//! The determinism core: everything about a run that does not depend on
//! how an instruction is executed.
//!
//! `DetCore` owns the [`RunState`] and advances it: the round loop and its
//! next-event time advance, the step of one thread, the lock and barrier
//! tables, min-`(clock, tid)` arbitration through the `Sched` policy, cost
//! charging with the positional jitter draw, the sanitizer hooks. All it
//! asks of an execution backend is [`ExecBackend::exec_next`].

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
    /// Scratch view buffer handed to the scheduler, rebuilt in every
    /// arbitrated round.
    views: Vec<ThreadView>,
    /// What the round loop has done so far: about the simulator rather
    /// than the simulated run, so not part of [`RunMetrics`] or of
    /// anything compared for identity.
    pub(crate) profile: RoundProfile,
    /// Scratch buffer for builtin-call argument evaluation, transient
    /// within one `exec_next`.
    pub(crate) scratch_args: Vec<i64>,
    /// Checkpoint interval of the driving loop (0 = none), set by the
    /// caller each run and consulted only to stop the time advance in
    /// [`DetCore::round`] (and a fused run in the threaded backend) at a
    /// snapshot boundary.
    pub(crate) ckpt_every: u64,
    /// `mem.len() - 1` when the memory size is a power of two: address
    /// wrapping then becomes a mask instead of a 64-bit `rem_euclid`
    /// division per load/store.
    pub(crate) mem_mask: Option<u64>,
    /// `threads.len() - 1` when the thread count is a power of two: the
    /// service-order rotation then takes a mask instead of a division.
    rot_mask: Option<u64>,
}

/// The rotation multiplier (64-bit golden ratio; Weyl sequence over tids).
const ROT_MUL: u64 = 0x9e3779b97f4a7c15;

/// Work counters of the round loop, for `dlc --profile`: how much of a run
/// was executed round by round and how much was advanced in closed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundProfile {
    /// Rounds executed in full: one step per thread and, unless the round
    /// was quiet, a scheduler decision (deterministic modes).
    pub event_rounds: u64,
    /// Of those, rounds that found no thread at a synchronization
    /// operation and skipped the arbiter: no view, no lease, no decision.
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
    /// `step` calls by the status they found the thread in, in the order
    /// of [`RoundProfile::STATUS`].
    pub steps: [u64; 6],
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
}

impl<'m> DetCore<'m> {
    /// The one place a core is assembled: the run state moves in and
    /// everything derived is rebuilt from `cfg` and that state.
    pub(crate) fn new(
        module: &'m Module,
        cost: &'m CostModel,
        cfg: MachineConfig,
        state: RunState,
    ) -> DetCore<'m> {
        let words = state.mem.len();
        let n = state.threads.len();
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
            cfg,
            state,
            views: Vec::new(),
            profile: RoundProfile::default(),
            scratch_args: Vec::new(),
            ckpt_every: 0,
            mem_mask: words.is_power_of_two().then(|| words as u64 - 1),
            rot_mask: n.is_power_of_two().then(|| n as u64 - 1),
        }
    }

    /// One iteration of the main loop: advance simulated time to the next
    /// event in closed form, then execute that event's round — one step per
    /// thread, under one arbiter decision when some thread is at a
    /// synchronization operation. Returns early, without the round, when
    /// the advance reaches `max_cycles` or a checkpoint boundary.
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
        let n = self.state.threads.len();
        // One pass over the threads finds the earliest instruction issue —
        // the smallest countdown of a Ready thread — and whether any thread
        // is at a synchronization operation.
        let mut issue = u64::MAX;
        let mut arbitrating = false;
        for th in &self.state.threads {
            match th.status {
                Status::Ready => issue = issue.min(th.pending),
                Status::AcquiringLock(_) | Status::AcquiringBarrier(_) | Status::ExitWait => {
                    arbitrating = true;
                }
                Status::InBarrier(_) | Status::Done => {}
            }
        }
        // Next-event time advance. Until a thread issues an instruction or
        // a synchronization event fires, a round only moves counters: a
        // Ready thread counts down, a waiting one accrues a wait cycle and
        // a blocked turn holder bumps its clock. No RNG is drawn and the
        // lock and barrier tables stand still, so those rounds are applied
        // as arithmetic. Stopping at `max_cycles` and at every checkpoint
        // boundary keeps the advance invisible to snapshots, crash plans
        // and all metrics.
        let mut fold = 0;
        let mut turn = None;
        if arbitrating {
            let det = self.cfg.mode.deterministic();
            // Arbitrated round: fill the scheduler's view and advance —
            // repeatedly while only the turn moves on, which changes who
            // bumps.
            self.views.clear();
            self.views
                .extend(self.state.threads.iter().map(|th| ThreadView {
                    phase: match th.status {
                        Status::Done => Phase::Done,
                        Status::Ready => Phase::Runnable,
                        Status::AcquiringLock(_)
                        | Status::AcquiringBarrier(_)
                        | Status::ExitWait => Phase::Arbitrating,
                        // Parked: no turn participation.
                        Status::InBarrier(_) => Phase::Parked,
                    },
                    clock: th.clock,
                }));
            // The lease of the view as it stands, once one was taken.
            let mut lease = None;
            while issue > 0 {
                let (horizon, bumper, l) = self.sync_horizon();
                if horizon == 0 {
                    lease = l;
                    break;
                }
                let stop = self.until_stop();
                let k = issue.min(horizon).min(stop);
                self.advance(k, bumper);
                if k == stop {
                    return;
                }
                // Bumping short of the horizon keeps the holder's turn;
                // using all of it may have passed the turn on.
                lease = if k < horizon { l } else { None };
                // `u64::MAX` stands for "no Ready thread" and stays.
                if issue != u64::MAX {
                    issue -= k;
                }
            }
            self.profile.event_rounds += 1;
            // Deterministic modes take the round's synchronization decision
            // from the policy's lease, which names the turn; only a batch
            // asks the policy for its order. Nondeterministic modes never
            // consult it (their grants are first come, first served).
            if det {
                self.profile.decide_calls += 1;
                match lease.unwrap_or_else(|| self.cfg.scheduler.lease(&self.views)) {
                    Lease::Turn { holder, .. } => turn = Some(holder),
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
                    Decision::Turn(turn),
                    self.cfg.scheduler.decide(&self.views),
                    "the lease names the turn `decide` would"
                );
            }
        } else {
            // Quiet round: with nobody at a synchronization operation no
            // step reads the turn, and no event can fire before the
            // earliest issue — the lease is `Idle` or names a Ready holder,
            // whose bound is its own countdown. So the arbiter is not
            // asked: the round builds no view, and the cycles up to the
            // issue are folded into the round's own steps.
            if issue > 0 {
                let stop = self.until_stop();
                if issue >= stop {
                    self.advance(stop, None);
                    return;
                }
                self.state.cycle += issue;
                self.profile.skipped_cycles += issue;
                fold = issue;
            }
            self.profile.event_rounds += 1;
            self.profile.quiet_rounds += 1;
        }
        // Rotate the service order so baseline FCFS has no fixed
        // lowest-tid bias; in deterministic modes only the turn holder
        // acts on sync events, so there the rotation only orders same-cycle
        // memory accesses.
        let rot = self
            .state
            .cycle
            .wrapping_mul(ROT_MUL)
            .wrapping_add(self.cfg.jitter.seed);
        let start = match self.rot_mask {
            Some(mask) => rot & mask,
            None => rot % n as u64,
        } as usize;
        // Every thread is stepped; `step` moves those it does not find
        // `Ready` to their own slot. Counting the common case here, once
        // per round, keeps the counter out of the per-step path.
        self.profile.steps[0] += n as u64;
        for i in 0..n {
            // `start + i < 2n`: a conditional subtraction, not a modulo.
            let mut t = start + i;
            if t >= n {
                t -= n;
            }
            self.step(t, fold, turn, exec);
        }
        self.state.cycle += 1;
    }

    /// Cycles from now to where a time advance has to stop: the cycle
    /// limit or the next checkpoint boundary, whichever comes first.
    fn until_stop(&self) -> u64 {
        let stop = self.cfg.max_cycles - self.state.cycle;
        if self.ckpt_every == 0 {
            return stop;
        }
        stop.min(self.ckpt_every - self.state.cycle % self.ckpt_every)
    }

    /// `k` rounds in which no thread issues and no synchronization event
    /// fires, as arithmetic; `bumper` is the blocked turn holder that
    /// spends them bumping its clock.
    fn advance(&mut self, k: u64, bumper: Option<usize>) {
        for th in self.state.threads.iter_mut() {
            match th.status {
                Status::Done => {}
                Status::Ready => {
                    th.pending -= k;
                    th.m.busy_cycles += k;
                }
                _ => th.m.wait_cycles += k,
            }
        }
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
        let hit_limit = self.state.done_count < self.state.threads.len();
        let sanitizer = self.state.san.map(|s| s.finalize(self.module));
        let metrics = RunMetrics {
            cycles: self.state.cycle,
            per_thread: self.state.threads.into_iter().map(|t| t.m).collect(),
            lock_order_hash: self.state.log.hash(),
            lock_order: self.state.log.into_kept(),
            ghz: self.cfg.ghz,
        };
        (metrics, self.state.mem, hit_limit, sanitizer)
    }

    /// Reclassify one step from `ready`, where [`DetCore::round`] counted
    /// it, to the status `step` found the thread in.
    #[inline]
    fn count_step(&mut self, status: Status) {
        self.profile.steps[0] -= 1;
        self.profile.steps[status.code().0 as usize] += 1;
    }

    /// One thread's part of an event round. `fold` is the number of cycles
    /// before this one that the round advances in the same step (nonzero
    /// only in a quiet round, where it is the smallest countdown): a Ready
    /// thread counts them down, a parked one waits them out, and the thread
    /// whose countdown they exhaust issues its next instruction. `turn` is
    /// the arbiter's decision, `None` in a quiet round, where no thread is
    /// in a status that reads it.
    fn step<B: ExecBackend>(&mut self, t: usize, fold: u64, turn: Option<u32>, exec: &B) {
        let det = self.cfg.mode.deterministic();
        let tid = t as u32;
        let status = self.state.threads[t].status;
        debug_assert!(
            fold == 0 || matches!(status, Status::Ready | Status::InBarrier(_) | Status::Done),
            "a round that folds cycles found thread {t} {status:?}"
        );
        match status {
            Status::Done => self.count_step(status),
            Status::InBarrier(_) => {
                self.count_step(status);
                self.state.threads[t].m.wait_cycles += fold + 1;
            }
            Status::ExitWait => {
                self.count_step(status);
                if !det || turn == Some(tid) {
                    self.finish(t);
                } else {
                    self.state.threads[t].m.wait_cycles += 1;
                }
            }
            Status::AcquiringBarrier(id) => {
                self.count_step(status);
                if !det || turn == Some(tid) {
                    self.arrive_barrier(t, id);
                } else {
                    self.state.threads[t].m.wait_cycles += 1;
                }
            }
            Status::AcquiringLock(id) => {
                self.count_step(status);
                if det {
                    if turn != Some(tid) {
                        self.state.threads[t].m.wait_cycles += 1;
                    } else if self.bumps_until_free(t, id) == 0 {
                        self.grant_lock(t, id);
                    } else {
                        if self.cfg.scheduler.bumps_on_contention() {
                            // Deterministic clock bump and retry (Kendo).
                            self.state.threads[t].clock += 1;
                            self.state.threads[t].m.lock_clock_bumps += 1;
                        }
                        self.state.threads[t].m.wait_cycles += 1;
                    }
                } else if self.grantable(id) {
                    self.grant_lock(t, id);
                } else {
                    self.state.threads[t].m.wait_cycles += 1;
                }
            }
            Status::Ready => {
                let th = &mut self.state.threads[t];
                if th.pending > fold {
                    th.pending -= fold + 1;
                    th.m.busy_cycles += fold + 1;
                    return;
                }
                // The countdown runs out with the fold: `charge` and a
                // store-retirement interrupt find `pending` at zero.
                th.pending -= fold;
                th.m.busy_cycles += fold;
                let mut action = exec.exec_next(self, t);
                // Skipped ticks are free: retry until a real instruction
                // issues this cycle.
                while matches!(action, Action::Free) {
                    action = exec.exec_next(self, t);
                }
                match action {
                    Action::None | Action::Free => {}
                    Action::Lock(id) => {
                        self.state.threads[t].status = Status::AcquiringLock(id);
                    }
                    Action::Unlock(id) => {
                        let clock = self.state.threads[t].clock;
                        let st = self.state.locks.entry(id).or_default();
                        st.held_by = None;
                        st.release_clock = Some(clock);
                        if det {
                            self.state.threads[t].clock += 1;
                        }
                        if let Some(san) = self.state.san.as_deref_mut() {
                            san.release(tid, id);
                        }
                        self.charge(t, self.cost.sync);
                    }
                    Action::Barrier(id) => {
                        self.state.threads[t].status = Status::AcquiringBarrier(id);
                    }
                    Action::Exited => {
                        self.state.threads[t].status = Status::ExitWait;
                        // Baseline exits resolve immediately next step; in
                        // deterministic modes the exit is a det event.
                    }
                }
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
            match self.state.threads[t].status {
                Status::AcquiringLock(id) => {
                    // Physical hold state alone gates the grant
                    // (`uses_release_clocks` is false for batch policies):
                    // the batch order *is* the logical order.
                    let held = self.state.locks.entry(id).or_default().held_by;
                    if held.is_none() {
                        self.grant_lock(t, id);
                    } else {
                        self.state.threads[t].m.wait_cycles += 1;
                    }
                }
                Status::AcquiringBarrier(id) => self.arrive_barrier(t, id),
                Status::ExitWait => self.finish(t),
                // A barrier arrival earlier in the batch released this
                // member back to Ready; it resumes next round.
                _ => {}
            }
        }
        for th in self.state.threads.iter_mut() {
            if matches!(th.status, Status::InBarrier(_)) {
                th.m.wait_cycles += 1;
            }
        }
    }

    fn grant_lock(&mut self, t: usize, id: i64) {
        let tid = t as u32;
        {
            let st = self.state.locks.entry(id).or_default();
            st.held_by = Some(tid);
        }
        if let Some(san) = self.state.san.as_deref_mut() {
            // The frame's ip already points past the Lock instruction the
            // thread blocked on.
            let fr = *self.state.threads[t].frames.last().unwrap();
            let ip = fr.ip.saturating_sub(1);
            san.acquire(tid, id, Frame { ip, ..fr }.site());
        }
        if self.cfg.mode.deterministic() {
            self.state.threads[t].clock += 1;
        }
        self.state.threads[t].m.lock_acquires += 1;
        self.state.threads[t].status = Status::Ready;
        let protocol = if self.cfg.mode.deterministic() {
            self.cfg.det_event_cost
        } else {
            0
        };
        self.charge(t, self.cost.sync + protocol);
        let clock = self.state.threads[t].clock;
        // `as u64` keeps the id's eight bytes, so the record hashes as the id.
        self.state.log.push(Acquisition {
            lock: id as u64,
            tid,
            clock,
        });
    }

    fn arrive_barrier(&mut self, t: usize, id: u32) {
        let tid = t as u32;
        self.state.threads[t].m.barrier_waits += 1;
        self.state.threads[t].status = Status::InBarrier(id);
        let bar = self.state.barriers.entry(id).or_default();
        bar.arrivals.push(tid);
        let everyone = self.state.threads.len() - self.state.done_count;
        if bar.arrivals.len() >= everyone {
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
            for a in arrivals {
                let th = &mut self.state.threads[a as usize];
                th.status = Status::Ready;
                if det {
                    th.clock = new_clock;
                }
                th.pending = self.cost.sync;
            }
        }
    }

    fn finish(&mut self, t: usize) {
        self.state.threads[t].status = Status::Done;
        self.state.threads[t].m.finish_cycle = self.state.cycle;
        self.state.threads[t].m.final_clock = self.state.threads[t].clock;
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
