//! Per-thread logical clocks and the thread registry.
//!
//! Every registered thread owns a cache-line-padded atomic clock slot and a
//! state (`Active`, `Blocked`, `Finished`). Deterministic events
//! use [`Registry::wait_for_turn`]: spin until this thread's `(clock, tid)`
//! is the minimum over all *active* threads — Kendo's turn rule as adopted
//! by DetLock.
//!
//! State transitions (spawn, exit, block, unblock) are rare; they
//! take the transition mutex and bump a seqlock epoch so that arbitration
//! scans observe a consistent snapshot of the active set. Clock ticks are
//! plain atomic adds — the hot path the compiler pass emits costs one
//! `fetch_add`.
//!
//! # Stall watchdog
//!
//! The turn rule makes the whole runtime hostage to the minimum-clock
//! active thread: if that thread wedges (livelock, a non-deterministic wait
//! inside a det section, a bug in instrumented code), every other thread
//! spins forever. When a watchdog is configured
//! ([`Registry::with_watchdog`]), arbitration spins track the current
//! minimum `(clock, tid)` candidate; if the candidate makes no progress for
//! the configured timeout, the runtime captures a [`StallReport`] and
//! applies the configured [`StallAction`] — abort with diagnostics or
//! surface [`DetError::Stalled`]. Blocked waits (join, barrier) use the
//! coarser [`Registry::activity_stamp`]: if *no* clock or event counter in
//! the whole registry moves for a full timeout, the wait is stalled.
//!
//! The spin itself backs off spin → yield → park (`park_timeout`), so a
//! long wait costs microsleeps instead of a pegged core.

use crate::error::{DetError, StallAction, StallReport, ThreadSnapshot};
use detlock_shim::sync::Mutex;
use detlock_shim::CachePadded;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Thread lifecycle states as seen by the arbiter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ThreadState {
    /// Slot not yet allocated.
    Inactive = 0,
    /// Participates in deterministic arbitration.
    Active = 1,
    /// Deterministically deactivated (barrier, join): excluded from
    /// arbitration until deterministically reactivated.
    Blocked = 2,
    /// Exited; excluded forever.
    Finished = 3,
}

impl ThreadState {
    fn from_u8(v: u8) -> ThreadState {
        match v {
            1 => ThreadState::Active,
            2 => ThreadState::Blocked,
            3 => ThreadState::Finished,
            _ => ThreadState::Inactive,
        }
    }
}

/// A deterministic thread id: assigned in deterministic spawn order, used
/// as the arbitration tie-breaker.
pub type DetTid = u32;

/// Sentinel for "not waiting on any lock" in the `waiting_on` slot.
const NOT_WAITING: u64 = u64::MAX;

struct Slot {
    clock: CachePadded<AtomicU64>,
    state: CachePadded<AtomicU8>,
    /// Clock at exit (valid once `Finished`), consumed by join.
    exit_clock: AtomicU64,
    /// Deterministic events entered by this thread (diagnostics + fault
    /// injection coordinate).
    events: AtomicU64,
    /// Lock/barrier id currently waited on ([`NOT_WAITING`] if
    /// none); diagnostics only.
    waiting_on: AtomicU64,
}

/// The thread registry: clock slots, states, and the transition seqlock.
pub struct Registry {
    slots: Box<[Slot]>,
    /// Seqlock epoch: odd while a transition is in flight.
    epoch: AtomicU64,
    /// Serializes state transitions and tid allocation.
    transition: Mutex<u32>, // next tid
    /// `(timeout, action)` when the stall watchdog is enabled.
    watchdog: Option<(Duration, StallAction)>,
}

/// Progress tracker for *blocked* waits (join, barrier). The wait
/// is declared stalled when the registry-wide [`Registry::activity_stamp`]
/// is unchanged for the watchdog timeout. Obtain via
/// [`Registry::stall_timer`]; call [`StallTimer::expired`] between timed
/// condvar waits.
pub struct StallTimer {
    /// `None` when the watchdog is disabled (never expires).
    armed: Option<(Instant, u64)>,
    timeout: Duration,
}

impl StallTimer {
    /// A sensible interval for timed condvar waits between expiry checks.
    pub fn poll_interval(&self) -> Duration {
        if self.armed.is_some() {
            (self.timeout / 4).max(Duration::from_millis(1))
        } else {
            Duration::from_millis(100)
        }
    }

    /// True when the watchdog timeout elapsed with no registry-wide
    /// activity. Any clock tick or event entry anywhere resets the timer.
    pub fn expired(&mut self, reg: &Registry) -> bool {
        match &mut self.armed {
            None => false,
            Some((start, last_stamp)) => {
                let stamp = reg.activity_stamp();
                if stamp != *last_stamp {
                    *start = Instant::now();
                    *last_stamp = stamp;
                    false
                } else {
                    start.elapsed() >= self.timeout
                }
            }
        }
    }
}

impl Registry {
    /// Create a registry with capacity for `max_threads` thread slots and
    /// no stall watchdog (slots are not reused; registering more threads
    /// than this returns [`DetError::CapacityExhausted`]).
    pub fn new(max_threads: usize) -> Registry {
        Registry::with_watchdog(max_threads, None, StallAction::Abort)
    }

    /// Create a registry with a stall watchdog: if arbitration makes no
    /// progress for `timeout`, apply `action` (see the module docs).
    pub fn with_watchdog(
        max_threads: usize,
        timeout: Option<Duration>,
        action: StallAction,
    ) -> Registry {
        assert!(max_threads >= 1);
        let slots = (0..max_threads)
            .map(|_| Slot {
                clock: CachePadded::new(AtomicU64::new(0)),
                state: CachePadded::new(AtomicU8::new(ThreadState::Inactive as u8)),
                exit_clock: AtomicU64::new(0),
                events: AtomicU64::new(0),
                waiting_on: AtomicU64::new(NOT_WAITING),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Registry {
            slots,
            epoch: AtomicU64::new(0),
            transition: Mutex::new(0),
            watchdog: timeout.map(|t| (t, action)),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Run `f` under the transition lock with the epoch held odd, so
    /// concurrent arbitration scans retry instead of observing a torn
    /// active set. `f` receives the next-tid counter.
    ///
    /// `f` must not panic: a panic here would leave the epoch odd and wedge
    /// every future arbitration scan. All internal callers are
    /// panic-free; fallible work (capacity checks) returns through `R`.
    pub fn transition<R>(&self, f: impl FnOnce(&mut u32) -> R) -> R {
        let mut next = self.transition.lock();
        self.epoch.fetch_add(1, Ordering::AcqRel); // odd: unstable
        let r = f(&mut next);
        self.epoch.fetch_add(1, Ordering::AcqRel); // even: stable
        r
    }

    /// Register a new thread: allocates the next tid with the given start
    /// clock, or [`DetError::CapacityExhausted`] when every slot is taken.
    /// The capacity check happens *before* any arbitration state changes,
    /// so a failed registration leaves the registry fully healthy.
    pub fn register(&self, start_clock: u64) -> Result<DetTid, DetError> {
        self.transition(|next| {
            let tid = *next;
            if (tid as usize) >= self.slots.len() {
                return Err(DetError::CapacityExhausted {
                    capacity: self.slots.len(),
                });
            }
            *next += 1;
            let slot = &self.slots[tid as usize];
            slot.clock.store(start_clock, Ordering::Release);
            slot.state
                .store(ThreadState::Active as u8, Ordering::Release);
            Ok(tid)
        })
    }

    /// Current clock of a thread.
    #[inline]
    pub fn clock(&self, tid: DetTid) -> u64 {
        self.slots[tid as usize].clock.load(Ordering::Acquire)
    }

    /// Advance a thread's clock — the `tick` hot path.
    #[inline]
    pub fn tick(&self, tid: DetTid, amount: u64) {
        self.slots[tid as usize]
            .clock
            .fetch_add(amount, Ordering::AcqRel);
    }

    /// Overwrite a thread's clock (barrier reconciliation, join, signal —
    /// always inside a deterministic event).
    #[inline]
    pub fn set_clock(&self, tid: DetTid, value: u64) {
        self.slots[tid as usize]
            .clock
            .store(value, Ordering::Release);
    }

    /// Current state of a thread.
    #[inline]
    pub fn state(&self, tid: DetTid) -> ThreadState {
        ThreadState::from_u8(self.slots[tid as usize].state.load(Ordering::Acquire))
    }

    /// Set a thread's state. Call only inside [`Registry::transition`].
    #[inline]
    pub fn set_state(&self, tid: DetTid, state: ThreadState) {
        self.slots[tid as usize]
            .state
            .store(state as u8, Ordering::Release);
    }

    /// Record the exit clock (inside the exit transition).
    pub fn set_exit_clock(&self, tid: DetTid, clock: u64) {
        self.slots[tid as usize]
            .exit_clock
            .store(clock, Ordering::Release);
    }

    /// Exit clock of a finished thread.
    pub fn exit_clock(&self, tid: DetTid) -> u64 {
        self.slots[tid as usize].exit_clock.load(Ordering::Acquire)
    }

    /// Count a deterministic event entry for `tid`; returns the 0-based
    /// event index (the fault-injection coordinate).
    #[inline]
    pub fn bump_events(&self, tid: DetTid) -> u64 {
        self.slots[tid as usize]
            .events
            .fetch_add(1, Ordering::Relaxed)
    }

    /// Deterministic events entered by `tid` so far.
    pub fn events(&self, tid: DetTid) -> u64 {
        self.slots[tid as usize].events.load(Ordering::Relaxed)
    }

    /// Record (or clear, with `None`) the lock id `tid` is waiting on —
    /// diagnostics for [`StallReport`].
    #[inline]
    pub fn set_waiting(&self, tid: DetTid, lock: Option<u64>) {
        self.slots[tid as usize]
            .waiting_on
            .store(lock.unwrap_or(NOT_WAITING), Ordering::Relaxed);
    }

    /// Cheap registry-wide progress fingerprint: wrapping sum of every
    /// slot's clock and event counter. Any tick or event anywhere changes
    /// it (modulo wrap-around collisions, which only delay stall detection
    /// by one poll interval).
    pub fn activity_stamp(&self) -> u64 {
        let mut stamp = 0u64;
        for slot in self.slots.iter() {
            stamp = stamp
                .wrapping_add(slot.clock.load(Ordering::Relaxed))
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(slot.events.load(Ordering::Relaxed));
        }
        stamp
    }

    /// Snapshot every allocated slot (diagnostics; not epoch-validated).
    pub fn snapshot(&self) -> Vec<ThreadSnapshot> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let state = ThreadState::from_u8(slot.state.load(Ordering::Acquire));
                if state == ThreadState::Inactive {
                    return None;
                }
                let waiting = slot.waiting_on.load(Ordering::Relaxed);
                Some(ThreadSnapshot {
                    tid: i as DetTid,
                    clock: slot.clock.load(Ordering::Acquire),
                    state,
                    events: slot.events.load(Ordering::Relaxed),
                    waiting_on: (waiting != NOT_WAITING).then_some(waiting),
                })
            })
            .collect()
    }

    /// Build a [`StallReport`] naming `waiter` (and optionally a culprit).
    pub fn stall_report(&self, waiter: DetTid, culprit: Option<DetTid>) -> StallReport {
        StallReport {
            waiter,
            culprit,
            timeout: self.watchdog.map(|(t, _)| t).unwrap_or_default(),
            threads: self.snapshot(),
        }
    }

    /// The minimum `(clock, tid)` over active threads, if any — the thread
    /// currently holding (or about to take) the turn. Diagnostic scan, not
    /// epoch-validated.
    pub fn min_active(&self) -> Option<(u64, DetTid)> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                ThreadState::from_u8(s.state.load(Ordering::Acquire)) == ThreadState::Active
            })
            .map(|(i, s)| (s.clock.load(Ordering::Acquire), i as DetTid))
            .min()
    }

    /// A [`StallTimer`] for blocked waits, armed iff the watchdog is
    /// enabled.
    pub fn stall_timer(&self) -> StallTimer {
        match self.watchdog {
            Some((timeout, _)) => StallTimer {
                armed: Some((Instant::now(), self.activity_stamp())),
                timeout,
            },
            None => StallTimer {
                armed: None,
                timeout: Duration::from_secs(0),
            },
        }
    }

    /// Apply the configured [`StallAction`] for a *blocked* wait whose
    /// [`StallTimer`] expired: abort, or return the error for the waiter
    /// to surface.
    pub fn on_blocked_stall(&self, waiter: DetTid) -> DetError {
        self.apply_stall(waiter, self.min_active().map(|(_, t)| t))
    }

    /// Apply the configured [`StallAction`] to `waiter`'s stalled wait,
    /// with `candidate` the minimum-clock active thread that made no
    /// progress: abort with the report, or return it as
    /// [`DetError::Stalled`].
    fn apply_stall(&self, waiter: DetTid, candidate: Option<DetTid>) -> DetError {
        let report = self.stall_report(waiter, candidate.filter(|&t| t != waiter));
        match self.watchdog.map(|(_, a)| a).unwrap_or_default() {
            StallAction::Abort => {
                eprintln!("{report}");
                std::process::abort();
            }
            StallAction::Error => DetError::Stalled(Box::new(report)),
        }
    }

    /// One arbitration scan: does `(my_clock, tid)` currently hold the
    /// minimum over active threads? Returns `None` when a transition raced
    /// the scan (caller retries).
    fn scan_is_min(&self, tid: DetTid, my_clock: u64) -> Option<bool> {
        let e1 = self.epoch.load(Ordering::Acquire);
        if e1 % 2 == 1 {
            return None;
        }
        let me = (my_clock, tid);
        for (i, slot) in self.slots.iter().enumerate() {
            let i = i as u32;
            if i == tid {
                continue;
            }
            if ThreadState::from_u8(slot.state.load(Ordering::Acquire)) != ThreadState::Active {
                continue;
            }
            let other = (slot.clock.load(Ordering::Acquire), i);
            if other < me {
                let e2 = self.epoch.load(Ordering::Acquire);
                if e2 != e1 {
                    return None;
                }
                return Some(false);
            }
        }
        let e2 = self.epoch.load(Ordering::Acquire);
        if e2 != e1 {
            return None;
        }
        Some(true)
    }

    /// Wait until thread `tid` (with its current clock) holds the
    /// deterministic turn. The clock is re-read each scan, so callers that
    /// bump their own clock while waiting observe the new value.
    ///
    /// Backs off spin → yield → park, and (when the watchdog is enabled)
    /// tracks whether the minimum-clock candidate makes progress; a
    /// stalled candidate triggers the configured [`StallAction`]. Returns
    /// [`DetError::Stalled`] under [`StallAction::Error`].
    pub fn wait_for_turn(&self, tid: DetTid) -> Result<(), DetError> {
        let mut spins = 0u64;
        // (start, last candidate) once the watchdog arms in the slow phase.
        let mut watch: Option<(Instant, Option<(u64, DetTid)>)> = None;
        loop {
            let my_clock = self.clock(tid);
            match self.scan_is_min(tid, my_clock) {
                Some(true) => return Ok(()),
                _ => {
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else if spins < 4096 {
                        std::thread::yield_now();
                    } else {
                        std::thread::park_timeout(Duration::from_micros(100));
                    }
                }
            }
            // Slow-phase bookkeeping only: the watchdog.
            if spins >= 64 && spins.is_multiple_of(128) {
                if let Some((timeout, _)) = self.watchdog {
                    let cand = self.min_active();
                    match &mut watch {
                        None => watch = Some((Instant::now(), cand)),
                        Some((start, last)) => {
                            if cand != *last {
                                *start = Instant::now();
                                *last = cand;
                            } else if start.elapsed() >= timeout {
                                return Err(self.apply_stall(tid, cand.map(|(_, t)| t)));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Whether `tid` holds the turn at its current clock, scanned once.
    fn has_turn(r: &Registry, tid: DetTid) -> bool {
        matches!(r.scan_is_min(tid, r.clock(tid)), Some(true))
    }

    #[test]
    fn register_assigns_sequential_tids() {
        let r = Registry::new(4);
        assert_eq!(r.register(0).unwrap(), 0);
        assert_eq!(r.register(5).unwrap(), 1);
        assert_eq!(r.clock(1), 5);
        assert_eq!(r.state(0), ThreadState::Active);
        assert_eq!(r.state(3), ThreadState::Inactive);
    }

    #[test]
    fn capacity_exhaustion_is_a_typed_error_not_a_panic() {
        let r = Registry::new(1);
        r.register(0).unwrap();
        match r.register(0) {
            Err(DetError::CapacityExhausted { capacity: 1 }) => {}
            other => panic!("expected CapacityExhausted, got {other:?}"),
        }
        // Crucially the seqlock epoch is even again: scans still complete
        // (a panic inside `transition` would have wedged them forever).
        assert!(has_turn(&r, 0));
        // And a third attempt fails identically rather than corrupting.
        assert!(matches!(
            r.register(0),
            Err(DetError::CapacityExhausted { .. })
        ));
    }

    #[test]
    fn tick_and_set_clock() {
        let r = Registry::new(2);
        let t = r.register(0).unwrap();
        r.tick(t, 10);
        r.tick(t, 5);
        assert_eq!(r.clock(t), 15);
        r.set_clock(t, 100);
        assert_eq!(r.clock(t), 100);
    }

    #[test]
    fn turn_follows_min_clock_then_tid() {
        let r = Registry::new(3);
        let a = r.register(0).unwrap();
        let b = r.register(0).unwrap();
        // Equal clocks: lower tid wins.
        assert!(has_turn(&r, a));
        assert!(!has_turn(&r, b));
        r.tick(a, 10);
        assert!(!has_turn(&r, a));
        assert!(has_turn(&r, b));
    }

    #[test]
    fn blocked_and_finished_excluded_from_arbitration() {
        let r = Registry::new(4);
        let a = r.register(0).unwrap();
        let b = r.register(0).unwrap();
        r.transition(|_| r.set_state(a, ThreadState::Blocked));
        assert!(
            has_turn(&r, b),
            "blocked thread must not hold the turn open"
        );
        r.transition(|_| {
            r.set_state(a, ThreadState::Finished);
            r.set_exit_clock(a, 42)
        });
        assert!(has_turn(&r, b));
        assert_eq!(r.exit_clock(a), 42);
    }

    #[test]
    fn wait_for_turn_unblocks_when_other_passes() {
        let r = Arc::new(Registry::new(2));
        let a = r.register(0).unwrap();
        let b = r.register(0).unwrap();
        r.tick(b, 100); // b waits for a to pass 100
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || {
            r2.wait_for_turn(b).unwrap();
            r2.clock(b)
        });
        // Give the waiter a moment, then advance a past b.
        std::thread::sleep(std::time::Duration::from_millis(10));
        r.tick(a, 101);
        assert_eq!(h.join().unwrap(), 100);
        let _ = a;
    }

    #[test]
    fn scan_retries_during_transition_do_not_wedge() {
        // Hammer transitions while another thread spins for its turn.
        let r = Arc::new(Registry::new(8));
        let a = r.register(0).unwrap();
        let b = r.register(0).unwrap();
        r.tick(b, 50);
        let r2 = Arc::clone(&r);
        let h = std::thread::spawn(move || r2.wait_for_turn(b));
        for i in 0..1000 {
            r.transition(|_| i); // epoch churn
            if i == 500 {
                r.tick(a, 60);
            }
        }
        h.join().unwrap().unwrap();
    }

    #[test]
    fn watchdog_error_mode_reports_the_culprit() {
        // a holds the minimum clock and never moves; b's wait must time out
        // with a report naming a.
        let r = Registry::with_watchdog(2, Some(Duration::from_millis(40)), StallAction::Error);
        let a = r.register(0).unwrap();
        let b = r.register(10).unwrap();
        match r.wait_for_turn(b) {
            Err(DetError::Stalled(report)) => {
                assert_eq!(report.waiter, b);
                assert_eq!(report.culprit, Some(a));
                assert_eq!(report.threads.len(), 2);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn events_and_waiting_on_feed_snapshots() {
        let r = Registry::new(2);
        let t = r.register(3).unwrap();
        assert_eq!(r.bump_events(t), 0);
        assert_eq!(r.bump_events(t), 1);
        r.set_waiting(t, Some(7));
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].events, 2);
        assert_eq!(snap[0].waiting_on, Some(7));
        r.set_waiting(t, None);
        assert_eq!(r.snapshot()[0].waiting_on, None);
    }

    #[test]
    fn stall_timer_resets_on_activity() {
        let r = Registry::with_watchdog(2, Some(Duration::from_millis(30)), StallAction::Error);
        let t = r.register(0).unwrap();
        let mut timer = r.stall_timer();
        assert!(!timer.expired(&r));
        std::thread::sleep(Duration::from_millis(40));
        r.tick(t, 1); // activity: the timer must re-arm, not expire
        assert!(!timer.expired(&r));
        std::thread::sleep(Duration::from_millis(40));
        assert!(timer.expired(&r));
    }
}
