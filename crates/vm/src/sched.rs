//! Deterministic scheduling policies.
//!
//! DetLock's contribution is the *instrumentation* — compiler-placed
//! logical clocks. The *arbitration policy* that consumes those clocks is
//! a separate axis: [`Sched`] is that policy. Given a per-round view of
//! every thread (phase, logical clock), [`Sched::lease`] says who holds
//! the turn and for how many rounds, or that a batch commits;
//! [`Sched::decide`] gives that batch's order. Two flags
//! ([`Sched::bumps_on_contention`], [`Sched::uses_release_clocks`]) fix
//! the rule for contended acquires. Three policies ship — see the
//! [`Sched`] variants for each one's determinism argument.
//!
//! # What a policy may observe
//!
//! Exactly the [`ThreadView`] slice: thread phase and logical clock.
//! Nothing else — no cycle counter, no jitter RNG, no memory, no lock
//! table. That restriction is the determinism argument: every view field
//! is itself jitter-invariant in deterministic modes (clocks advance only
//! by ticks, store chunks, and deterministic sync events; phases change
//! only at deterministic points), so any pure function of the view
//! sequence is jitter-invariant too. A policy that peeked at wall-clock
//! state (cycles, RNG position, the `pending` countdown) would leak
//! seed-dependence into the lock order and break the weak-determinism
//! guarantee. [`Sched::lease`] — whose turn it is and for how many rounds
//! it stands, which lets the round loop skip the rounds in between — reads
//! the same slice and nothing more.
//!
//! Because different policies legitimately produce different lock orders
//! (and hence different trace hashes, receipts, and sanitizer reports),
//! the scheduler is part of the job identity: receipts are
//! scheduler-keyed, and a [`crate::machine::Checkpoint`] refuses to
//! resume under a different scheduler: its fingerprint folds the policy
//! and its parameters (see
//! [`crate::machine::ResumeError::ConfigMismatch`]). Every policy is a
//! pure function of the view, so that identity check is all a checkpoint
//! needs to carry.
//!
//! A policy is a [`crate::machine::MachineConfig`] field like any other:
//! the constructor or a `--scheduler` flag (`kendo` |
//! `chunk[:SIZE[:COST]]` | `dc-batch`) sets it, and
//! `MachineConfig::default()` holds [`Sched::Kendo`].

/// Chunked store-counter clock parameters (Table II). The paper notes
/// Kendo must balance chunk size by hand; `chunk_size` is that knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// Retired stores between performance-counter overflow interrupts.
    pub chunk_size: u64,
    /// Cycle cost of servicing one overflow interrupt.
    pub interrupt_cost: u64,
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams {
            chunk_size: 1024,
            // A performance-counter overflow interrupt traps into the
            // kernel: order 10^3 cycles on the paper's era of hardware.
            interrupt_cost: 800,
        }
    }
}

/// What a scheduler sees of one thread in one round. The deliberately
/// minimal observation surface — see the module docs for why nothing
/// cycle- or jitter-dependent is exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadView {
    /// Where the thread is in its lifecycle this round.
    pub phase: Phase,
    /// The thread's logical clock.
    pub clock: u64,
}

/// Thread lifecycle phase, as visible to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Executing instructions (or mid-instruction countdown).
    Runnable,
    /// Blocked on a synchronization event that needs the scheduler's
    /// permission: a lock acquire, a barrier arrival, or a thread exit.
    Arbitrating,
    /// Parked with no pending decision (inside a barrier): not a turn
    /// candidate.
    Parked,
    /// Finished.
    Done,
}

/// One round's scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decision {
    /// At most one thread may perform its synchronization event this
    /// round (min-clock-style arbitration). `None` parks every
    /// arbitrating thread for the round.
    Turn(Option<u32>),
    /// Commit a whole synchronization batch this round: the listed
    /// threads perform their pending events in order, against the lock
    /// table as it evolves within the batch. Threads whose lock is still
    /// physically held when their turn comes stay blocked and join a
    /// later batch.
    Batch(Vec<u32>),
}

/// How long a round's decision is certain to stand — what lets the round
/// loop advance simulated time to the next event in closed form instead of
/// asking [`Sched::decide`] once per cycle. Like the decision, a pure
/// function of the view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lease {
    /// No thread may synchronize, and none will until the view changes.
    Idle,
    /// `holder` has the turn. If it is blocked and bumps its clock once
    /// per round while the rest of the view stands still, `decide` keeps
    /// naming it for exactly `rounds` rounds, this one included
    /// (`u64::MAX`: no other thread competes). Only policies that bump on
    /// contention hand out turns.
    Turn {
        /// The thread `decide` names this round.
        holder: u32,
        /// Rounds of bump-and-retry until the turn passes on.
        rounds: u64,
    },
    /// A batch commits this round.
    Batch,
}

/// Which deterministic scheduling policy arbitrates synchronization. The
/// enum *is* the policy: in deterministic modes the round loop asks
/// [`Sched::lease`] at each arbitrated round for the turn holder (or a
/// batch), and calls [`Sched::decide`] only for a batch's order and in a
/// debug assertion that the lease names the turn `decide` would. Every
/// variant is a pure function of the [`ThreadView`] sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sched {
    /// Kendo-style arbitration on whatever drives the logical clocks
    /// (ticks in `Det` mode), the reference and the policy the paper's
    /// DetLock measurements use: the unique thread with the minimum
    /// `(clock, tid)` among runnable and arbitrating threads holds the
    /// turn for the round; a contended acquirer bumps its clock by one
    /// and retries, and an acquire additionally requires the lock's
    /// logical release to precede the acquirer's clock.
    #[default]
    Kendo,
    /// The same turn rule as [`Sched::Kendo`], but threads additionally
    /// run fixed logical-work chunks between clock updates: the
    /// virtualized retired-store counter only surfaces at overflow
    /// interrupts, so the clock advances in [`ChunkParams::chunk_size`]
    /// units and each boundary costs [`ChunkParams::interrupt_cost`]
    /// cycles. Under `ExecMode::Kendo` (uninstrumented, no tick
    /// instructions) this reproduces the paper's Table II simulated-Kendo
    /// baseline bit-for-bit; under `ExecMode::Det` it layers chunk clocks
    /// on top of the compiler-placed ticks.
    Chunk(ChunkParams),
    /// Deterministic-consistency-style rounds (after Aviram & Ford's
    /// workspace-consistency model): threads execute *freely* to their
    /// next synchronization point — no per-acquire arbitration, no clock
    /// bumps while contended — and once no live thread is runnable, every
    /// pending synchronization operation commits in one deterministic
    /// batch, ordered by `(clock, tid)`.
    ///
    /// Within a batch the lock table evolves as grants land: a member
    /// whose lock is still physically held when its slot comes (taken by
    /// an earlier member, or by a holder that is itself blocked elsewhere
    /// in the batch) simply stays blocked and joins a later batch.
    /// Because a batch only forms at quiescence, every held lock's holder
    /// is itself in the batch (or parked), so nested acquisitions drain
    /// batch-by-batch instead of deadlocking.
    ///
    /// Determinism argument: batch *membership* is fixed by program
    /// structure — the batch forms exactly when every thread has reached
    /// its next synchronization point, which is a per-thread
    /// deterministic sequence — and batch *order* is a pure function of
    /// logical clocks, which advance only at ticks and deterministic
    /// events. Jitter moves the cycle at which quiescence happens, never
    /// who is in the batch or in what order it commits, so lock orders,
    /// trace hashes, and final clocks stay seed-invariant. They differ
    /// from [`Sched::Kendo`]'s on contended workloads by design —
    /// receipts are scheduler-keyed.
    DcBatch,
}

impl Sched {
    /// Parse a CLI spelling: `kendo`, `chunk`, `chunk:SIZE`,
    /// `chunk:SIZE:COST`, `dc-batch`.
    pub fn parse(s: &str) -> Result<Sched, String> {
        match s {
            "kendo" => return Ok(Sched::Kendo),
            "chunk" => return Ok(Sched::Chunk(ChunkParams::default())),
            "dc-batch" => return Ok(Sched::DcBatch),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("chunk:") {
            let mut it = rest.split(':');
            let size = it
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|&v| v > 0);
            let cost = match it.next() {
                None => Some(ChunkParams::default().interrupt_cost),
                Some(v) => v.parse::<u64>().ok(),
            };
            if let (Some(chunk_size), Some(interrupt_cost), None) = (size, cost, it.next()) {
                return Ok(Sched::Chunk(ChunkParams {
                    chunk_size,
                    interrupt_cost,
                }));
            }
        }
        Err(format!(
            "unknown scheduler '{s}' (expected 'kendo', 'chunk[:SIZE[:COST]]', or 'dc-batch')"
        ))
    }

    /// The policy family name (no parameters).
    pub fn label(self) -> &'static str {
        match self {
            Sched::Kendo => "kendo",
            Sched::Chunk(_) => "chunk",
            Sched::DcBatch => "dc-batch",
        }
    }

    /// The full canonical spelling, round-tripped by [`Sched::parse`].
    /// Default chunk parameters print as plain `chunk` so the common
    /// spelling stays stable in identity keys and receipts.
    pub fn spec(self) -> String {
        match self {
            Sched::Chunk(p) if p != ChunkParams::default() => {
                format!("chunk:{}:{}", p.chunk_size, p.interrupt_cost)
            }
            other => other.label().to_string(),
        }
    }

    /// The chunked store-counter parameters, if this is [`Sched::Chunk`].
    pub fn chunk_params(self) -> Option<ChunkParams> {
        match self {
            Sched::Chunk(p) => Some(p),
            _ => None,
        }
    }

    /// Words folded into the checkpoint fingerprint: a policy tag plus
    /// its parameters. Restoring a checkpoint under a different scheduler
    /// (or the same policy with different parameters) must be refused —
    /// unlike the execution backend, schedulers are *not* interchangeable
    /// executors of the same schedule.
    pub(crate) fn fingerprint_words(self) -> [u64; 3] {
        match self {
            Sched::Kendo => [0, 0, 0],
            Sched::Chunk(p) => [1, p.chunk_size, p.interrupt_cost],
            Sched::DcBatch => [2, 0, 0],
        }
    }

    /// The turn (or batch) for this round.
    #[inline]
    pub fn decide(self, threads: &[ThreadView]) -> Decision {
        match self {
            Sched::Kendo | Sched::Chunk(_) => {
                let [(_, tid), _] = min_clock_turn(threads);
                Decision::Turn((tid != NONE.1).then_some(tid))
            }
            Sched::DcBatch => {
                if !batch_due(threads) {
                    return Decision::Turn(None);
                }
                let mut batch: Vec<u32> = threads
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.phase == Phase::Arbitrating)
                    .map(|(tid, _)| tid as u32)
                    .collect();
                batch.sort_unstable_by_key(|&tid| (threads[tid as usize].clock, tid));
                Decision::Batch(batch)
            }
        }
    }

    /// How long [`Sched::decide`]'s answer for this view stands. Under the
    /// min-clock policies the holder `(clock, tid)` stays the minimum while
    /// its bumped key is below the runner-up's `(c2, t2)`: through clock
    /// `c2` if it wins the tie (`tid < t2`), through `c2 − 1` if not.
    #[inline]
    pub fn lease(self, threads: &[ThreadView]) -> Lease {
        match self {
            Sched::Kendo | Sched::Chunk(_) => match min_clock_turn(threads) {
                [NONE, _] => Lease::Idle,
                [(_, holder), NONE] => Lease::Turn {
                    holder,
                    rounds: u64::MAX,
                },
                [(clock, holder), (c2, t2)] => Lease::Turn {
                    holder,
                    rounds: c2 - clock + u64::from(holder < t2),
                },
            },
            Sched::DcBatch if batch_due(threads) => Lease::Batch,
            Sched::DcBatch => Lease::Idle,
        }
    }

    /// Clock-bump policy on contended acquires: `true` means a turn
    /// holder whose lock is not logically free bumps its clock by one and
    /// retries (Kendo); `false` means it simply waits. Batch members
    /// wait: bumping clocks while waiting would make final clocks depend
    /// on how many rounds the wait lasted — i.e. on the jitter seed.
    pub fn bumps_on_contention(self) -> bool {
        !matches!(self, Sched::DcBatch)
    }

    /// Whether an acquire additionally requires the lock's release clock
    /// to precede the acquirer's clock (Kendo's logical-release rule).
    /// Batch commit orders grants structurally, so the physical hold
    /// state alone gates a grant there.
    pub fn uses_release_clocks(self) -> bool {
        !matches!(self, Sched::DcBatch)
    }
}

impl std::fmt::Display for Sched {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec())
    }
}

/// A turn candidate's `(clock, tid)`: the smallest holds the turn.
type Key = (u64, u32);

/// The key of no thread: above every thread's, since no thread's id is
/// `u32::MAX`.
const NONE: Key = (u64::MAX, u32::MAX);

/// The two smallest keys over runnable and arbitrating threads, [`NONE`]
/// where there are fewer: the turn holder and its runner-up — shared by
/// [`Sched::Kendo`] and [`Sched::Chunk`]. The lease asks for this at every
/// arbitrated advance step, so the keys are plain pairs.
fn min_clock_turn(threads: &[ThreadView]) -> [Key; 2] {
    let (mut best, mut second) = (NONE, NONE);
    for (tid, v) in threads.iter().enumerate() {
        if matches!(v.phase, Phase::Parked | Phase::Done) {
            continue;
        }
        let key = (v.clock, tid as u32);
        if key < best {
            second = best;
            best = key;
        } else if key < second {
            second = key;
        }
    }
    [best, second]
}

/// [`Sched::DcBatch`]'s quiescence test: a batch commits exactly when no
/// live thread is still running and some thread has an event pending.
fn batch_due(threads: &[ThreadView]) -> bool {
    !threads.iter().any(|v| v.phase == Phase::Runnable)
        && threads.iter().any(|v| v.phase == Phase::Arbitrating)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(phase: Phase, clock: u64) -> ThreadView {
        ThreadView { phase, clock }
    }

    #[test]
    fn parse_round_trips_specs() {
        for s in [
            Sched::Kendo,
            Sched::Chunk(ChunkParams::default()),
            Sched::Chunk(ChunkParams {
                chunk_size: 512,
                interrupt_cost: 900,
            }),
            Sched::DcBatch,
        ] {
            assert_eq!(Sched::parse(&s.spec()), Ok(s));
        }
        assert_eq!(
            Sched::parse("chunk:64"),
            Ok(Sched::Chunk(ChunkParams {
                chunk_size: 64,
                ..ChunkParams::default()
            }))
        );
        for other in ["fifo", "dcbatch", "dc_batch"] {
            assert!(Sched::parse(other).is_err(), "{other}");
        }
        assert!(Sched::parse("chunk:0").is_err());
        assert!(Sched::parse("chunk:1:2:3").is_err());
    }

    #[test]
    fn default_chunk_spec_is_bare() {
        assert_eq!(Sched::Chunk(ChunkParams::default()).spec(), "chunk");
        assert_eq!(
            Sched::Chunk(ChunkParams {
                chunk_size: 64,
                interrupt_cost: 800,
            })
            .spec(),
            "chunk:64:800"
        );
    }

    #[test]
    fn fingerprints_distinguish_policies_and_params() {
        let all = [
            Sched::Kendo,
            Sched::Chunk(ChunkParams::default()),
            Sched::Chunk(ChunkParams {
                chunk_size: 64,
                interrupt_cost: 800,
            }),
            Sched::DcBatch,
        ];
        for (i, a) in all.iter().enumerate() {
            for (j, b) in all.iter().enumerate() {
                assert_eq!(
                    a.fingerprint_words() == b.fingerprint_words(),
                    i == j,
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn kendo_picks_min_clock_breaking_ties_by_tid() {
        let views = [
            v(Phase::Runnable, 5),
            v(Phase::Arbitrating, 3),
            v(Phase::Arbitrating, 3),
            v(Phase::Parked, 0),
            v(Phase::Done, 0),
        ];
        assert_eq!(Sched::Kendo.decide(&views), Decision::Turn(Some(1)));
    }

    #[test]
    fn dc_batch_waits_for_quiescence_then_commits_in_clock_order() {
        let running = [v(Phase::Runnable, 9), v(Phase::Arbitrating, 1)];
        assert_eq!(Sched::DcBatch.decide(&running), Decision::Turn(None));
        let quiescent = [
            v(Phase::Arbitrating, 9),
            v(Phase::Arbitrating, 2),
            v(Phase::Parked, 0),
            v(Phase::Arbitrating, 2),
        ];
        assert_eq!(
            Sched::DcBatch.decide(&quiescent),
            Decision::Batch(vec![1, 3, 0])
        );
    }

    /// The lease against its definition: bump the holder's clock once per
    /// round and count how long `decide` keeps naming it.
    fn assert_lease_matches_iterated_decide(s: Sched, views: &[ThreadView]) {
        let Lease::Turn { holder, rounds } = s.lease(views) else {
            assert_eq!(s.lease(views), Lease::Idle, "{views:?}");
            assert_eq!(s.decide(views), Decision::Turn(None), "{views:?}");
            return;
        };
        let live = views
            .iter()
            .filter(|v| matches!(v.phase, Phase::Runnable | Phase::Arbitrating))
            .count();
        assert_eq!(rounds == u64::MAX, live == 1, "{views:?}");
        let mut bumped = views.to_vec();
        for round in 0..rounds.min(100) {
            let turn = s.decide(&bumped);
            assert_eq!(
                turn,
                Decision::Turn(Some(holder)),
                "round {round} of {views:?}"
            );
            bumped[holder as usize].clock += 1;
        }
        if rounds != u64::MAX {
            let next = s.decide(&bumped);
            assert_ne!(
                next,
                Decision::Turn(Some(holder)),
                "lease {rounds} too short: {views:?}"
            );
        }
    }

    #[test]
    fn lease_counts_the_rounds_a_bumping_holder_keeps_the_turn() {
        let a = Phase::Arbitrating;
        let turn = |holder, rounds| Lease::Turn { holder, rounds };
        // (view, lease): both tie-break directions, equal clocks, a sole
        // live thread, nobody live.
        let table: [(&[ThreadView], Lease); 6] = [
            (&[v(a, 3), v(Phase::Runnable, 7)], turn(0, 5)),
            (&[v(Phase::Runnable, 7), v(a, 3)], turn(1, 4)),
            (&[v(a, 4), v(a, 4), v(a, 4)], turn(0, 1)),
            (
                &[v(Phase::Parked, 0), v(a, 9), v(a, 2), v(a, 5)],
                turn(2, 4),
            ),
            (
                &[v(Phase::Done, 0), v(a, 9), v(Phase::Parked, 1)],
                turn(1, u64::MAX),
            ),
            (&[v(Phase::Parked, 3), v(Phase::Done, 1)], Lease::Idle),
        ];
        for s in [Sched::Kendo, Sched::Chunk(ChunkParams::default())] {
            for (views, lease) in table {
                assert_eq!(s.lease(views), lease, "{s}: {views:?}");
                assert_lease_matches_iterated_decide(s, views);
            }
        }
        // Random slices; clocks from a narrow range so ties are common.
        let mut rng = detlock_shim::rng::SmallRng::seed_from_u64(0x1ea5e);
        let phases = [Phase::Runnable, a, Phase::Parked, Phase::Done];
        for _ in 0..2000 {
            let views: Vec<ThreadView> = (0..rng.gen_range_usize(1..7))
                .map(|_| v(phases[rng.gen_range_usize(0..4)], rng.gen_range(0..12)))
                .collect();
            assert_lease_matches_iterated_decide(Sched::Kendo, &views);
            // A batch policy's lease says whether `decide` commits a batch.
            let lease = match Sched::DcBatch.decide(&views) {
                Decision::Batch(_) => Lease::Batch,
                Decision::Turn(_) => Lease::Idle,
            };
            assert_eq!(Sched::DcBatch.lease(&views), lease, "{views:?}");
        }
    }

    /// The lease scan against its definition: the first two of the sorted
    /// `(clock, tid)` keys of the runnable and arbitrating threads, on
    /// random slices with tied clocks, parked and finished threads and
    /// clocks at `u64::MAX`.
    #[test]
    fn min_clock_turn_matches_a_sort() {
        let mut rng = detlock_shim::rng::SmallRng::seed_from_u64(0x5ca1);
        let phases = [
            Phase::Runnable,
            Phase::Arbitrating,
            Phase::Parked,
            Phase::Done,
        ];
        let clocks = [0, 1, 2, 3, u64::MAX - 1, u64::MAX];
        for _ in 0..4000 {
            let views: Vec<ThreadView> = (0..rng.gen_range_usize(0..9))
                .map(|_| {
                    let clock = clocks[rng.gen_range_usize(0..clocks.len())];
                    v(phases[rng.gen_range_usize(0..4)], clock)
                })
                .collect();
            let mut keys: Vec<Key> = (views.iter().enumerate())
                .filter(|(_, v)| matches!(v.phase, Phase::Runnable | Phase::Arbitrating))
                .map(|(tid, v)| (v.clock, tid as u32))
                .collect();
            keys.sort_unstable();
            keys.resize(2.max(keys.len()), NONE);
            assert_eq!(min_clock_turn(&views), [keys[0], keys[1]], "{views:?}");
        }
    }

    #[test]
    fn policies_expose_their_contracts() {
        let custom = ChunkParams {
            chunk_size: 7,
            interrupt_cost: 11,
        };
        // (policy, bumps_on_contention, uses_release_clocks, chunk_params)
        let table = [
            (Sched::Kendo, true, true, None),
            (
                Sched::Chunk(ChunkParams::default()),
                true,
                true,
                Some(ChunkParams::default()),
            ),
            (Sched::Chunk(custom), true, true, Some(custom)),
            (Sched::DcBatch, false, false, None),
        ];
        for (s, bumps, release, chunk) in table {
            assert_eq!(s.bumps_on_contention(), bumps, "{s}");
            assert_eq!(s.uses_release_clocks(), release, "{s}");
            assert_eq!(s.chunk_params(), chunk, "{s}");
        }
    }
}
