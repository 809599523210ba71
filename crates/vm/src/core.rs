//! The determinism core: everything about a run that does not depend on
//! how an instruction is executed.
//!
//! `DetCore` owns the [`RunState`] and advances it: the event round loop
//! and its time advance, the issue and synchronization steps, the lock and
//! barrier tables, min-`(clock, tid)` arbitration through the `Sched`
//! policy, cost charging with the positional jitter draw, the sanitizer
//! hooks. All it asks of an execution backend is
//! [`ExecBackend::exec_next`].

use crate::builtins;
use crate::checkpoint::{Frame, RunState, Status, Thread};
use crate::interp::InterpBackend;
use crate::lower::ThreadedBackend;
use crate::machine::{Jitter, MachineConfig};
use crate::metrics::RunMetrics;
use crate::sanitizer::SanitizerReport;
use crate::sched::{ChunkParams, Decision, Lease, Phase, ThreadView};
use detlock_ir::inst::Operand;
use detlock_ir::module::Module;
use detlock_ir::types::Reg;
use detlock_passes::cost::CostModel;
use detlock_shim::acq::Acquisition;

pub(crate) enum Action {
    None,
    /// A tick skipped in a mode that does not execute ticks: the
    /// uninstrumented binary never contained it, so it must not consume a
    /// cycle either — the stepper immediately retries the next instruction.
    Free,
    Lock(i64),
    Unlock(i64),
    Barrier(u32),
    Exited,
}

/// One instruction executor. The contract is strict: an implementation
/// must fetch/apply/charge exactly as the interpreter does — same metric
/// increments, same [`DetCore::charge`] calls in the same order (the
/// jitter RNG is positional), same sanitizer sites, same frame coordinate
/// updates — so that every observable artifact (trace hash, receipt,
/// metrics, sanitizer report, checkpoint digest) is backend-invariant.
pub(crate) trait ExecBackend {
    /// Fetch, apply, and charge the next instruction (or terminator) of
    /// thread `t`. Returns the synchronization action, if any.
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action;
}

/// Static enum dispatch over the two backends (no vtable in the hot loop).
pub(crate) enum ExecImpl {
    Interp(InterpBackend),
    Threaded(ThreadedBackend),
}

/// The backend-agnostic core (see the module docs). Everything outside
/// `state` is fixed for the machine's life or rebuilt from `cfg` and
/// `state`, which is why a checkpoint holds `state` alone.
///
/// While a run is in the core, each thread's countdown and its busy and
/// wait counters are kept in event form (DESIGN.md §15, "Event rounds"):
/// a `Ready` thread's countdown is its absolute issue cycle in `due`, with
/// the busy cycles up to it already in `busy_cycles`, and a waiting
/// thread's wait cycles since `since` are not yet in `wait_cycles`. [`DetCore::run_state`] and
/// [`DetCore::into_results`] convert back.
pub(crate) struct DetCore<'m> {
    pub(crate) module: &'m Module,
    pub(crate) cost: &'m CostModel,
    pub(crate) cfg: MachineConfig,
    /// Everything the run mutates.
    pub(crate) state: RunState,
    /// Chunked store-counter parameters, hoisted out of `cfg.scheduler`:
    /// `Some` iff the mode is deterministic and the policy drives clocks
    /// from retired stores. Consulted on every store retirement and by
    /// the threaded backend's fusion gate.
    pub(crate) chunk: Option<ChunkParams>,
    /// Per thread: the cycle a `Ready` thread issues its next instruction
    /// at, `u64::MAX` for every other status.
    due: Vec<u64>,
    /// Per thread: the first cycle a waiting thread (arbitrating or
    /// parked) has not yet added to `wait_cycles`.
    since: Vec<u64>,
    /// What the scheduler sees, kept equal to the threads' statuses and
    /// clocks wherever those change.
    views: Vec<ThreadView>,
    /// Threads in `AcquiringLock`, `AcquiringBarrier` or `ExitWait`.
    arbitrating: usize,
    /// What the round loop has done so far: about the simulator rather
    /// than the simulated run, so not part of [`RunMetrics`] or of
    /// anything compared for identity.
    pub(crate) profile: RoundProfile,
    /// Scratch buffer for builtin-call argument evaluation, transient
    /// within one `exec_next`.
    pub(crate) scratch_args: Vec<i64>,
    /// The cycle a time advance (and a fused run in the threaded backend)
    /// must not pass: the cycle limit or the driving loop's next snapshot
    /// boundary, whichever comes first. Set by the caller.
    pub(crate) next_stop: u64,
    /// `mem.len() - 1` when the memory size is a power of two: address
    /// wrapping then becomes a mask instead of a 64-bit `rem_euclid`
    /// division per load/store.
    pub(crate) mem_mask: Option<u64>,
    /// `threads.len() - 1` when the thread count is a power of two: the
    /// service-order rotation then takes a mask instead of a division.
    rot_mask: Option<u64>,
    /// First thread in this round's service order.
    rot_start: usize,
}

/// The rotation multiplier (64-bit golden ratio; Weyl sequence over tids).
const ROT_MUL: u64 = 0x9e3779b97f4a7c15;

/// Work counters of the round loop, for `dlc --profile`: how much of a run
/// was executed round by round and how much was advanced in closed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Rounds executed: the threads that issue and, unless the round was
    /// quiet, the synchronization a scheduler decision allows.
    pub event_rounds: u64,
    /// Of those, rounds that found no thread at a synchronization
    /// operation and skipped the arbiter: no lease, no decision.
    pub quiet_rounds: u64,
    /// Cycles advanced without a round, as counter arithmetic.
    pub skipped_cycles: u64,
    /// Of those, cycles in which a blocked turn holder's bump-and-retry
    /// was folded into one addition.
    pub collapsed_bumps: u64,
    /// Scheduling decisions taken by arbitrated rounds in deterministic
    /// modes: a turn read off the round's lease, or a batch from
    /// [`Sched::decide`](crate::sched::Sched::decide).
    pub decide_calls: u64,
    /// Threads the rounds touched, by the status they were found in, in
    /// the order of [`RoundProfile::STATUS`]; an issue counts as `ready`.
    pub steps: [u64; 6],
    /// Dispatches of the threaded backend by how many operations they
    /// ran, in the buckets of [`RoundProfile::RUN_LENGTHS`]: one per issue.
    pub fused_runs: [u64; 4],
    /// Fusible runs the cycle-limit / snapshot gate cut to length 1.
    pub gate_cuts: u64,
}

impl RoundProfile {
    /// Labels for [`RoundProfile::steps`].
    pub const STATUS: [&'static str; 6] = [
        "ready",
        "acquiring-lock",
        "acquiring-barrier",
        "in-barrier",
        "exit-wait",
        "done",
    ];

    /// Labels for [`RoundProfile::fused_runs`].
    pub const RUN_LENGTHS: [&'static str; 4] = ["1", "2-3", "4-7", "8-16"];

    /// Count one dispatch of `len` operations.
    #[inline]
    pub(crate) fn count_run(&mut self, len: usize) {
        self.fused_runs[(len.ilog2() as usize).min(3)] += 1;
    }
}

/// The scheduler's view of a thread's status.
fn phase(status: Status) -> Phase {
    match status {
        Status::Done => Phase::Done,
        Status::Ready => Phase::Runnable,
        Status::AcquiringLock(_) | Status::AcquiringBarrier(_) | Status::ExitWait => {
            Phase::Arbitrating
        }
        // Parked: no turn participation.
        Status::InBarrier(_) => Phase::Parked,
    }
}

/// Fold a core's event-form counters back into `state` (see [`DetCore`]):
/// a `Ready` thread's countdown from its issue cycle, giving back the busy
/// cycles not yet reached, and a waiting thread's waits since its stamp.
fn settle(state: &mut RunState, due: &[u64], since: &[u64]) {
    let cycle = state.cycle;
    for (t, th) in state.threads.iter_mut().enumerate() {
        match th.status {
            Status::Ready => {
                th.pending = due[t] - cycle;
                th.m.busy_cycles -= th.pending;
            }
            Status::Done => {}
            _ => th.m.wait_cycles += cycle - since[t],
        }
    }
}

impl<'m> DetCore<'m> {
    /// The one place a core is assembled: the run state moves in and
    /// everything derived is rebuilt from `cfg` and that state.
    pub(crate) fn new(
        module: &'m Module,
        cost: &'m CostModel,
        cfg: MachineConfig,
        mut state: RunState,
    ) -> DetCore<'m> {
        let words = state.mem.len();
        let n = state.threads.len();
        let cycle = state.cycle;
        let mut due = vec![u64::MAX; n];
        let since = vec![cycle; n];
        let mut views = Vec::with_capacity(n);
        let mut arbitrating = 0;
        for (t, th) in state.threads.iter_mut().enumerate() {
            match th.status {
                Status::Ready => {
                    due[t] = cycle + th.pending;
                    th.m.busy_cycles += th.pending;
                    th.pending = 0;
                }
                Status::AcquiringLock(_) | Status::AcquiringBarrier(_) | Status::ExitWait => {
                    arbitrating += 1;
                }
                Status::InBarrier(_) | Status::Done => {}
            }
            views.push(ThreadView {
                phase: phase(th.status),
                clock: th.clock,
            });
        }
        DetCore {
            module,
            cost,
            // Nondeterministic modes never consult the scheduler, so its
            // chunk knobs must not move their clocks.
            chunk: if cfg.mode.deterministic() {
                cfg.scheduler.chunk_params()
            } else {
                None
            },
            next_stop: cfg.max_cycles,
            cfg,
            state,
            due,
            since,
            views,
            arbitrating,
            profile: RoundProfile::default(),
            scratch_args: Vec::new(),
            mem_mask: words.is_power_of_two().then(|| words as u64 - 1),
            rot_mask: n.is_power_of_two().then(|| n as u64 - 1),
            rot_start: 0,
        }
    }

    /// The run state as a checkpoint holds it: a clone with the event-form
    /// counters settled.
    pub(crate) fn run_state(&self) -> RunState {
        let mut state = self.state.clone();
        settle(&mut state, &self.due, &self.since);
        state
    }

    /// One iteration of the main loop: advance simulated time to the next
    /// event in closed form, then execute that event's round — the threads
    /// that issue now and, under one arbiter decision when some thread is
    /// at a synchronization operation, those it lets synchronize. Returns
    /// early, without the round, when the advance reaches `next_stop`.
    pub(crate) fn round(&mut self, exec: &ExecImpl) {
        // One enum match per *round*, not per step: `round_inner` is
        // monomorphized per backend, so every `exec_next` call below is a
        // direct (inlinable) call instead of a dispatch in the hot loop.
        match exec {
            ExecImpl::Interp(b) => self.round_inner(b),
            ExecImpl::Threaded(b) => self.round_inner(b),
        }
    }

    fn round_inner<B: ExecBackend>(&mut self, exec: &B) {
        debug_assert!(self.event_form_is_consistent());
        let n = self.state.threads.len();
        let det = self.cfg.mode.deterministic();
        // The earliest instruction issue. Until then a round only moves
        // counters that are kept in event form or, for a blocked turn
        // holder's bumps, added up here; no RNG is drawn and the lock and
        // barrier tables stand still.
        let issue = self.due.iter().copied().min().unwrap_or(u64::MAX);
        let mut turn = None;
        if self.arbitrating > 0 {
            // Arbitrated round: advance repeatedly while only the turn
            // moves on, which changes who bumps.
            let mut lease = None;
            while issue > self.state.cycle {
                let (horizon, bumper, l) = self.sync_horizon();
                if horizon == 0 {
                    lease = l;
                    break;
                }
                let cycle = self.state.cycle;
                let k = (issue - cycle).min(horizon).min(self.next_stop - cycle);
                self.advance(k, bumper);
                if self.state.cycle == self.next_stop {
                    return;
                }
                // Bumping short of the horizon keeps the holder's turn;
                // using all of it may have passed the turn on.
                lease = if k < horizon { l } else { None };
            }
            self.profile.event_rounds += 1;
            // Deterministic modes take the round's synchronization decision
            // from the policy's lease, which names the turn; only a batch
            // asks the policy for its order. Nondeterministic modes never
            // consult it (their grants are first come, first served).
            if det {
                self.profile.decide_calls += 1;
                match lease.unwrap_or_else(|| self.cfg.scheduler.lease(&self.views)) {
                    Lease::Turn { holder, .. } => turn = Some(holder as usize),
                    Lease::Idle => {}
                    Lease::Batch => {
                        let Decision::Batch(order) = self.cfg.scheduler.decide(&self.views) else {
                            unreachable!("a batch lease decides a batch");
                        };
                        self.commit_batch(&order);
                        self.state.cycle += 1;
                        return;
                    }
                }
                debug_assert_eq!(
                    Decision::Turn(turn.map(|t| t as u32)),
                    self.cfg.scheduler.decide(&self.views),
                    "the lease names the turn `decide` would"
                );
            }
        } else {
            // Quiet round: with nobody at a synchronization operation no
            // event can fire before the earliest issue, so the arbiter is
            // not asked and time moves straight to the issue.
            if issue >= self.next_stop {
                self.profile.skipped_cycles += self.next_stop - self.state.cycle;
                self.state.cycle = self.next_stop;
                return;
            }
            self.profile.skipped_cycles += issue - self.state.cycle;
            self.state.cycle = issue;
            self.profile.event_rounds += 1;
            self.profile.quiet_rounds += 1;
        }
        // Rotate the service order so baseline FCFS has no fixed
        // lowest-tid bias; in deterministic modes only the turn holder
        // acts on sync events, so there the rotation only orders same-cycle
        // memory accesses.
        let cycle = self.state.cycle;
        let rot = cycle
            .wrapping_mul(ROT_MUL)
            .wrapping_add(self.cfg.jitter.seed);
        self.rot_start = match self.rot_mask {
            Some(mask) => rot & mask,
            None => rot % n as u64,
        } as usize;
        // Only the threads that act are touched: those whose issue cycle
        // is now, and the arbitrating ones the decision lets act (all of
        // them without turns). Every other thread's cycle is accounted in
        // event form.
        for i in 0..n {
            // `start + i < 2n`: a conditional subtraction, not a modulo.
            let mut t = self.rot_start + i;
            if t >= n {
                t -= n;
            }
            if self.due[t] == cycle {
                self.profile.steps[0] += 1;
                self.issue(t, exec);
            } else if self.views[t].phase == Phase::Arbitrating && (!det || turn == Some(t)) {
                self.sync_step(t, i);
            }
        }
        self.state.cycle += 1;
    }

    /// Whether the event-form bookkeeping agrees with the thread states it
    /// summarizes (checked every round in debug builds).
    fn event_form_is_consistent(&self) -> bool {
        let mut arbitrating = 0;
        for (t, th) in self.state.threads.iter().enumerate() {
            let view = ThreadView {
                phase: phase(th.status),
                clock: th.clock,
            };
            if self.views[t] != view || (th.status == Status::Ready) != (self.due[t] != u64::MAX) {
                return false;
            }
            if th.status == Status::Ready && (self.due[t] < self.state.cycle || th.pending != 0) {
                return false;
            }
            arbitrating += usize::from(view.phase == Phase::Arbitrating);
        }
        arbitrating == self.arbitrating
    }

    /// `k` rounds in which no thread issues and no synchronization event
    /// fires, as arithmetic; `bumper` is the blocked turn holder that
    /// spends them bumping its clock.
    fn advance(&mut self, k: u64, bumper: Option<usize>) {
        if let Some(t) = bumper {
            self.state.threads[t].clock += k;
            self.state.threads[t].m.lock_clock_bumps += k;
            self.views[t].clock += k;
            self.profile.collapsed_bumps += k;
        }
        self.state.cycle += k;
        self.profile.skipped_cycles += k;
    }

    /// The synchronization half of the time advance: for how many rounds
    /// from now no synchronization event can fire (the caller bounds this
    /// by the earliest instruction issue, which is also the earliest a
    /// lock can be released), and which thread, if any, spends those
    /// rounds bumping its clock; in deterministic modes also the policy's
    /// lease of the current view, which both are derived from.
    fn sync_horizon(&self) -> (u64, Option<usize>, Option<Lease>) {
        if !self.cfg.mode.deterministic() {
            // No turns: an exit, a barrier arrival or an acquire of a
            // free lock happens in the round it is stepped.
            let fires = self.state.threads.iter().any(|th| match th.status {
                Status::AcquiringBarrier(_) | Status::ExitWait => true,
                Status::AcquiringLock(id) => self.grantable(id),
                _ => false,
            });
            return (if fires { 0 } else { u64::MAX }, None, None);
        }
        let lease = self.cfg.scheduler.lease(&self.views);
        let (horizon, bumper) = match lease {
            Lease::Batch => (0, None),
            Lease::Idle => (u64::MAX, None),
            Lease::Turn { holder, rounds } => {
                let t = holder as usize;
                match self.state.threads[t].status {
                    // Mid-instruction: its own countdown is the bound.
                    Status::Ready => (u64::MAX, None),
                    // Blocked, so it bumps once per round: until the lock
                    // is logically free or the turn passes on.
                    Status::AcquiringLock(id) => match self.bumps_until_free(t, id) {
                        0 => (0, None),
                        bumps => (bumps.min(rounds), Some(t)),
                    },
                    // An exit or a barrier arrival, performed now.
                    _ => (0, None),
                }
            }
        };
        (horizon, bumper, Some(lease))
    }

    /// How often turn holder `t` must bump its clock before lock `id` is
    /// logically free for it: 0 grants now; `u64::MAX` means physically
    /// held, which no bump cures. Free but released at a clock `rc` not yet
    /// in the acquirer's past (the policy's logical-release rule) takes
    /// `rc − clock + 1` bumps.
    fn bumps_until_free(&self, t: usize, id: i64) -> u64 {
        let Some(st) = self.state.locks.get(&id) else {
            return 0;
        };
        let clock = self.state.threads[t].clock;
        match (st.held_by, st.release_clock) {
            (Some(_), _) => u64::MAX,
            (None, Some(rc)) if self.cfg.scheduler.uses_release_clocks() && rc >= clock => {
                rc - clock + 1
            }
            _ => 0,
        }
    }

    /// Nondeterministic modes: is lock `id` free? First come, first served
    /// on the physical hold state.
    fn grantable(&self, id: i64) -> bool {
        self.state
            .locks
            .get(&id)
            .is_none_or(|st| st.held_by.is_none())
    }

    pub(crate) fn into_results(self) -> (RunMetrics, Vec<i64>, bool, Option<SanitizerReport>) {
        let DetCore {
            module,
            cfg,
            mut state,
            due,
            since,
            ..
        } = self;
        settle(&mut state, &due, &since);
        let hit_limit = state.done_count < state.threads.len();
        let sanitizer = state.san.map(|s| s.finalize(module));
        let metrics = RunMetrics {
            cycles: state.cycle,
            per_thread: state.threads.into_iter().map(|t| t.m).collect(),
            lock_order_hash: state.log.hash(),
            lock_order: state.log.into_kept(),
            ghz: cfg.ghz,
        };
        (metrics, state.mem, hit_limit, sanitizer)
    }

    /// Thread `t` issues its next instruction this cycle.
    fn issue<B: ExecBackend>(&mut self, t: usize, exec: &B) {
        let mut action = exec.exec_next(self, t);
        // Skipped ticks are free: retry until a real instruction issues
        // this cycle.
        while matches!(action, Action::Free) {
            action = exec.exec_next(self, t);
        }
        match action {
            Action::None | Action::Free => {}
            Action::Lock(id) => self.start_arbitrating(t, Status::AcquiringLock(id)),
            Action::Unlock(id) => {
                let clock = self.state.threads[t].clock;
                let st = self.state.locks.entry(id).or_default();
                st.held_by = None;
                st.release_clock = Some(clock);
                if self.cfg.mode.deterministic() {
                    self.state.threads[t].clock += 1;
                }
                if let Some(san) = self.state.san.as_deref_mut() {
                    san.release(t as u32, id);
                }
                self.charge(t, self.cost.sync);
            }
            Action::Barrier(id) => self.start_arbitrating(t, Status::AcquiringBarrier(id)),
            // Baseline exits resolve in the next round; in deterministic
            // modes the exit is a det event.
            Action::Exited => self.start_arbitrating(t, Status::ExitWait),
        }
        if self.state.threads[t].status == Status::Ready {
            self.count_down(t, self.state.cycle + 1);
        }
        self.views[t].clock = self.state.threads[t].clock;
    }

    /// Thread `t`, ready until now, waits from the next cycle on for its
    /// synchronization event. Its countdown stays in `pending` as the
    /// issue left it: an exit's last charge is never counted down.
    fn start_arbitrating(&mut self, t: usize, status: Status) {
        self.state.threads[t].status = status;
        self.due[t] = u64::MAX;
        self.since[t] = self.state.cycle + 1;
        self.views[t].phase = Phase::Arbitrating;
        self.arbitrating += 1;
    }

    /// Thread `t` is `Ready` with `pending` cycles to count down from
    /// cycle `from` on: it issues at `from + pending`, and those cycles
    /// are busy cycles, credited now since nothing can interrupt them.
    fn count_down(&mut self, t: usize, from: u64) {
        let th = &mut self.state.threads[t];
        let pending = std::mem::take(&mut th.pending);
        th.m.busy_cycles += pending;
        self.due[t] = from + pending;
    }

    /// Add thread `t`'s waits before cycle `until` to its counter.
    fn flush_wait(&mut self, t: usize, until: u64) {
        self.state.threads[t].m.wait_cycles += until - self.since[t];
        self.since[t] = until;
    }

    /// The arbitrating thread `t`, `i`-th in this round's service order,
    /// performs its synchronization event if it can. Deterministic modes
    /// step only the turn holder.
    fn sync_step(&mut self, t: usize, i: usize) {
        let status = self.state.threads[t].status;
        self.profile.steps[status.code().0 as usize] += 1;
        match status {
            Status::ExitWait => self.finish(t),
            Status::AcquiringBarrier(id) => self.arrive_barrier(t, id, Some(i)),
            Status::AcquiringLock(id) if self.cfg.mode.deterministic() => {
                if self.bumps_until_free(t, id) == 0 {
                    self.grant_lock(t, id);
                } else if self.cfg.scheduler.bumps_on_contention() {
                    // Deterministic clock bump and retry (Kendo).
                    let th = &mut self.state.threads[t];
                    th.clock += 1;
                    th.m.lock_clock_bumps += 1;
                    self.views[t].clock = th.clock;
                }
            }
            Status::AcquiringLock(id) => {
                if self.grantable(id) {
                    self.grant_lock(t, id);
                }
            }
            Status::Ready | Status::InBarrier(_) | Status::Done => {
                unreachable!("thread {t} is not arbitrating: {status:?}")
            }
        }
    }

    /// Commit one [`Decision::Batch`]: the listed threads perform their
    /// pending synchronization events in batch order, against the lock
    /// table as it evolves within the batch — the deterministic-
    /// consistency commit round. A member whose lock is physically held
    /// when its slot comes stays blocked (no clock bump: the batch
    /// policy's contention rule) and joins a later batch; because batches
    /// only form at quiescence, any such holder is itself in this batch
    /// or parked, so nested acquisitions drain batch-by-batch. Grants go
    /// through [`DetCore::grant_lock`], so protocol costs, trace-hash
    /// records, and sanitizer hooks are identical to turn-based grants.
    fn commit_batch(&mut self, order: &[u32]) {
        for &tid in order {
            let t = tid as usize;
            let status = self.state.threads[t].status;
            self.profile.steps[status.code().0 as usize] += 1;
            match status {
                // Physical hold state alone gates the grant
                // (`uses_release_clocks` is false for batch policies): the
                // batch order *is* the logical order.
                Status::AcquiringLock(id) if self.grantable(id) => self.grant_lock(t, id),
                Status::AcquiringBarrier(id) => self.arrive_barrier(t, id, None),
                Status::ExitWait => self.finish(t),
                // A barrier arrival earlier in the batch released this
                // member back to Ready, and it resumes next round; or its
                // lock is held, and it waits for a later batch.
                _ => {}
            }
        }
    }

    fn grant_lock(&mut self, t: usize, id: i64) {
        let tid = t as u32;
        self.state.locks.entry(id).or_default().held_by = Some(tid);
        if let Some(san) = self.state.san.as_deref_mut() {
            // The frame's ip already points past the Lock instruction the
            // thread blocked on.
            let fr = *self.state.threads[t].frames.last().unwrap();
            let ip = fr.ip.saturating_sub(1);
            san.acquire(tid, id, Frame { ip, ..fr }.site());
        }
        let cycle = self.state.cycle;
        self.flush_wait(t, cycle);
        self.arbitrating -= 1;
        self.views[t].phase = Phase::Runnable;
        let th = &mut self.state.threads[t];
        if self.cfg.mode.deterministic() {
            th.clock += 1;
        }
        th.m.lock_acquires += 1;
        th.status = Status::Ready;
        let protocol = if self.cfg.mode.deterministic() {
            self.cfg.det_event_cost
        } else {
            0
        };
        self.charge(t, self.cost.sync + protocol);
        self.count_down(t, cycle + 1);
        let clock = self.state.threads[t].clock;
        self.views[t].clock = clock;
        // `as u64` keeps the id's eight bytes, so the record hashes as the id.
        self.state.log.push(Acquisition {
            lock: id as u64,
            tid,
            clock,
        });
    }

    /// Thread `t` arrives at barrier `id`, as the `i`-th thread of a
    /// round's service order, or in a batch commit (`None`), where the
    /// commit cycle counts as a wait for a thread that stays parked.
    fn arrive_barrier(&mut self, t: usize, id: u32, i: Option<usize>) {
        let cycle = self.state.cycle;
        self.arbitrating -= 1;
        self.views[t].phase = Phase::Parked;
        if i.is_some() {
            // In a round the arrival cycle is not a wait.
            self.flush_wait(t, cycle);
            self.since[t] = cycle + 1;
        }
        self.state.threads[t].m.barrier_waits += 1;
        self.state.threads[t].status = Status::InBarrier(id);
        let bar = self.state.barriers.entry(id).or_default();
        bar.arrivals.push(t as u32);
        let everyone = self.state.threads.len() - self.state.done_count;
        if bar.arrivals.len() < everyone {
            return;
        }
        // Release: reconcile clocks to max+1 in deterministic modes.
        let arrivals = std::mem::take(&mut self.state.barriers.get_mut(&id).unwrap().arrivals);
        if let Some(san) = self.state.san.as_deref_mut() {
            san.barrier(&arrivals);
        }
        let new_clock = arrivals
            .iter()
            .map(|&a| self.state.threads[a as usize].clock)
            .max()
            .unwrap_or(0)
            + 1;
        let det = self.cfg.mode.deterministic();
        let n = self.state.threads.len();
        for a in arrivals {
            let a = a as usize;
            // Where each thread's waits end and its countdown starts. A
            // thread this round's rotation has not reached yet counts down
            // from this cycle, as its step would have; the releaser and the
            // threads already stepped (which waited this cycle) count down
            // from the next, and so does everyone in a commit, where
            // nobody waits the commit cycle out.
            let (waited, from) = match i {
                Some(i) if (a + n - self.rot_start) % n > i => (cycle, cycle),
                Some(_) => (cycle + 1, cycle + 1),
                None => (cycle, cycle + 1),
            };
            self.flush_wait(a, waited);
            let th = &mut self.state.threads[a];
            th.status = Status::Ready;
            if det {
                th.clock = new_clock;
            }
            th.pending = self.cost.sync;
            self.views[a] = ThreadView {
                phase: Phase::Runnable,
                clock: th.clock,
            };
            self.count_down(a, from);
        }
    }

    fn finish(&mut self, t: usize) {
        let cycle = self.state.cycle;
        self.flush_wait(t, cycle);
        self.arbitrating -= 1;
        self.views[t].phase = Phase::Done;
        let th = &mut self.state.threads[t];
        th.status = Status::Done;
        th.m.finish_cycle = cycle;
        th.m.final_clock = th.clock;
        self.state.done_count += 1;
    }

    /// Charge `cost` cycles for the instruction just applied (1 cycle is
    /// consumed now; the remainder plus jitter occupies subsequent cycles).
    pub(crate) fn charge(&mut self, t: usize, cost: u64) {
        charge_thread(&mut self.state.threads[t], &self.cfg.jitter, cost);
    }

    /// Register read against a hoisted frame base — the hot-loop variant
    /// that skips the per-access `frames.last()` lookup.
    #[inline]
    pub(crate) fn reg_at(&self, t: usize, base: usize, r: Reg) -> i64 {
        self.state.threads[t].regs[base + r.index()]
    }

    /// Register write against a hoisted frame base.
    #[inline]
    pub(crate) fn set_reg_at(&mut self, t: usize, base: usize, r: Reg, v: i64) {
        self.state.threads[t].regs[base + r.index()] = v;
    }

    #[inline]
    pub(crate) fn operand_at(&self, t: usize, base: usize, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.reg_at(t, base, r),
            Operand::Imm(v) => v,
        }
    }

    #[inline]
    pub(crate) fn mem_index(&self, addr: i64) -> usize {
        mem_index_of(self.mem_mask, self.state.mem.len(), addr)
    }

    /// Sanitizer memory hook: record the access at the instruction site
    /// `frame` points at. A no-op (one null check) when sanitizing is off.
    #[inline]
    pub(crate) fn san_access(&mut self, t: usize, word: usize, write: bool, frame: Frame) {
        if let Some(san) = self.state.san.as_deref_mut() {
            san.access(t as u32, word, write, frame.site());
        }
    }

    pub(crate) fn retired_store(&mut self, t: usize, count: u64) {
        retire_stores(&mut self.state.threads[t], self.chunk, count);
    }

    /// Shared builtin semantics: apply `builtin` to the already-evaluated
    /// arguments, including the memset/memcpy memory side effects and
    /// sanitizer hooks. Both backends call this, so the store-retirement
    /// accounting and san-site order agree by construction.
    #[inline]
    pub(crate) fn apply_builtin(
        &mut self,
        t: usize,
        builtin: detlock_ir::Builtin,
        argv: &[i64],
        size: i64,
        frame: Frame,
    ) -> i64 {
        use detlock_ir::Builtin as B;
        match builtin {
            B::Memset => {
                let (base, val, len) = (
                    argv.first().copied().unwrap_or(0),
                    argv.get(1).copied().unwrap_or(0),
                    size.max(0),
                );
                for k in 0..len.min(self.state.mem.len() as i64) {
                    let idx = self.mem_index(base.wrapping_add(k));
                    self.state.mem[idx] = val;
                    self.san_access(t, idx, true, frame);
                }
                self.retired_store(t, len.max(0) as u64);
                0
            }
            B::Memcpy => {
                let (d, s, len) = (
                    argv.first().copied().unwrap_or(0),
                    argv.get(1).copied().unwrap_or(0),
                    size.max(0),
                );
                for k in 0..len.min(self.state.mem.len() as i64) {
                    let si = self.mem_index(s.wrapping_add(k));
                    let di = self.mem_index(d.wrapping_add(k));
                    self.state.mem[di] = self.state.mem[si];
                    self.san_access(t, si, false, frame);
                    self.san_access(t, di, true, frame);
                }
                self.retired_store(t, len.max(0) as u64);
                0
            }
            B::Sqrt => builtins::isqrt(argv.first().copied().unwrap_or(0)),
            B::Sin => builtins::fixed_sin(argv.first().copied().unwrap_or(0)),
            B::Cos => builtins::fixed_cos(argv.first().copied().unwrap_or(0)),
            B::Exp => builtins::fixed_exp(argv.first().copied().unwrap_or(0)),
            B::Log => builtins::ilog2(argv.first().copied().unwrap_or(0)),
            B::Rand => builtins::xorshift64(argv.first().copied().unwrap_or(0)),
        }
    }
}

/// Wrap `addr` into the memory of size `len` (`mask = len - 1` when `len`
/// is a power of two). The mask path equals `rem_euclid` exactly: in
/// two's complement, `addr as u64` is `addr + 2^64` for negative `addr`,
/// and `len` divides `2^64`, so masking yields the Euclidean residue
/// without the 64-bit division `rem_euclid` costs per load/store.
#[inline]
pub(crate) fn mem_index_of(mask: Option<u64>, len: usize, addr: i64) -> usize {
    match mask {
        Some(m) => (addr as u64 & m) as usize,
        None => addr.rem_euclid(len as i64) as usize,
    }
}

/// [`DetCore::charge`] over one thread's state: a free function so a
/// backend holding disjoint field borrows on the core can charge without
/// re-borrowing `&mut DetCore`. The jitter draw sequence on `th.rng` is
/// positional — every backend must call this exactly where the
/// interpreter would, or trace hashes diverge.
#[inline]
pub(crate) fn charge_thread(th: &mut Thread, jitter: &Jitter, cost: u64) {
    th.pending = charge_amount(th, jitter, cost);
    th.m.busy_cycles += 1;
}

/// The countdown a charge of `cost` earns: draws the jitter RNG exactly
/// like [`charge_thread`] but leaves `pending` and `busy_cycles` for the
/// caller — the fused-run path in the threaded backend accumulates several
/// charges (in program order, preserving the positional draw sequence)
/// into one combined countdown.
#[inline]
pub(crate) fn charge_amount(th: &mut Thread, jitter: &Jitter, cost: u64) -> u64 {
    let extra = if jitter.prob_den > 0
        && th.rng.gen_range(0..jitter.prob_den as u64) < jitter.prob_num as u64
    {
        1 + th.rng.gen_range(0..jitter.max_extra.max(1))
    } else {
        0
    };
    cost.saturating_sub(1) + extra
}

/// [`DetCore::retired_store`] over one thread's state (a free function for
/// the same reason as [`charge_thread`]). `chunk` is the core's hoisted
/// [`DetCore::chunk`]: `Some` iff a chunk-clock scheduler is active.
#[inline]
pub(crate) fn retire_stores(th: &mut Thread, chunk: Option<ChunkParams>, count: u64) {
    let before = th.m.retired_stores;
    th.m.retired_stores += count;
    if let Some(cp) = chunk {
        // The virtualized performance counter only surfaces at overflow
        // interrupts: the clock advances in chunk_size units, and each
        // interrupt costs cycles.
        let chunks = th.m.retired_stores / cp.chunk_size - before / cp.chunk_size;
        if chunks > 0 {
            th.clock += chunks * cp.chunk_size;
            th.pending += chunks * cp.interrupt_cost;
        }
    }
}
