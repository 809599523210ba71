//! The deterministic runtime: thread spawn/join, the thread-local current
//! handle, and the `tick` hot path.
//!
//! This is the user-space library half of DetLock (paper §III-B): it
//! replaces pthread creation/join and provides the logical-clock plumbing
//! that compiler-inserted `tick` calls drive. No kernel support, no
//! hardware counters — plain atomics and a spin-with-yield arbiter.
//!
//! # Panic safety
//!
//! A deterministic thread that panics is not allowed to wedge the arbiter:
//! the spawned closure runs under `catch_unwind`, the deterministic exit
//! protocol runs unconditionally afterwards (so the slot reaches
//! `Finished` and a joining parent is reactivated), and the panic payload
//! travels to the parent — [`DetJoinHandle::join`] re-raises it,
//! [`DetJoinHandle::try_join`] returns it as
//! [`DetError::ChildPanicked`]. Runtime-internal failures (capacity,
//! stalls) surface as typed [`DetError`] values; infallible
//! entry points raise them as panics *carrying the `DetError` payload*, so
//! even through the panic channel the error stays machine-readable.

use crate::error::{DetError, StallAction};
use crate::event::{det_event, wait_exit_turn};
use crate::fault::FaultPlan;
use crate::registry::{DetTid, Registry, ThreadState};
use crate::trace::TraceRecorder;
use detlock_shim::sync::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Runtime configuration.
#[derive(Debug, Clone)]
pub struct DetConfig {
    /// Maximum number of deterministic threads over the runtime's lifetime
    /// (slots are not reused).
    pub max_threads: usize,
    /// Record the lock-acquisition trace (see [`crate::trace`]).
    pub record_trace: bool,
    /// Trace retention: `None` keeps every event (the real-thread suites'
    /// divergence-diagnosis mode); `Some(n)` keeps the first `n`, so
    /// long-running episodes stay O(1) in memory and an event's index is
    /// its index in the whole trace. The trace *hash* always covers the
    /// complete history either way.
    pub trace_capacity: Option<usize>,
    /// Stall watchdog: when `Some`, a deterministic wait that observes no
    /// arbitration progress for this long triggers `on_stall`. `None`
    /// disables the watchdog (waits may hang forever on a wedged program).
    pub watchdog_timeout: Option<Duration>,
    /// What the watchdog does on a suspected deadlock (see
    /// [`StallAction`]).
    pub on_stall: StallAction,
    /// Deterministic fault injection plan (see [`crate::fault`]); `None`
    /// injects nothing.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for DetConfig {
    fn default() -> Self {
        DetConfig {
            max_threads: 64,
            record_trace: false,
            trace_capacity: None,
            watchdog_timeout: Some(Duration::from_secs(5)),
            on_stall: StallAction::Abort,
            fault_plan: None,
        }
    }
}

pub(crate) struct Inner {
    pub(crate) registry: Registry,
    pub(crate) trace: TraceRecorder,
    pub(crate) next_lock_id: AtomicU64,
    pub(crate) fault: Option<FaultPlan>,
    /// child tid → parent tid parked joining it (notified via `join_cv`).
    join_waiters: Mutex<HashMap<DetTid, DetTid>>,
    join_cv: Condvar,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Inner>, DetTid)>> = const { RefCell::new(None) };
}

/// Handle to the deterministic runtime. Cheap to clone; the creating thread
/// is registered as deterministic thread 0 ("main").
#[derive(Clone)]
pub struct DetRuntime {
    pub(crate) inner: Arc<Inner>,
}

impl DetRuntime {
    /// Create a runtime and register the calling thread as main (tid 0)
    /// with logical clock 0.
    pub fn new(config: DetConfig) -> DetRuntime {
        let inner = Arc::new(Inner {
            registry: Registry::with_watchdog(
                config.max_threads,
                config.watchdog_timeout,
                config.on_stall,
            ),
            trace: TraceRecorder::with_capacity(config.record_trace, config.trace_capacity),
            next_lock_id: AtomicU64::new(0),
            fault: config.fault_plan.filter(|p| !p.is_empty()),
            join_waiters: Mutex::new(HashMap::new()),
            join_cv: Condvar::new(),
        });
        let main_tid = inner
            .registry
            .register(0)
            .expect("fresh registry has capacity for main");
        debug_assert_eq!(main_tid, 0);
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&inner), main_tid)));
        DetRuntime { inner }
    }

    /// Create a runtime with the default configuration.
    pub fn with_defaults() -> DetRuntime {
        DetRuntime::new(DetConfig::default())
    }

    /// The calling thread's deterministic tid (panics if the thread is not
    /// registered with this runtime; see [`DetRuntime::try_current_tid`]).
    pub fn current_tid(&self) -> DetTid {
        self.try_current_tid().unwrap_or_else(|e| raise(e))
    }

    /// The calling thread's deterministic tid, or
    /// [`DetError::NotRegistered`] / [`DetError::WrongRuntime`].
    pub fn try_current_tid(&self) -> Result<DetTid, DetError> {
        let (inner, tid) = try_current()?;
        if !Arc::ptr_eq(&inner, &self.inner) {
            return Err(DetError::WrongRuntime);
        }
        Ok(tid)
    }

    /// Advance the calling thread's logical clock — the operation the
    /// DetLock compiler pass inserts at basic-block granularity.
    #[inline]
    pub fn tick(&self, amount: u64) {
        let (_, tid) = current();
        self.inner.registry.tick(tid, amount);
    }

    /// The calling thread's current logical clock.
    pub fn clock(&self) -> u64 {
        let (_, tid) = current();
        self.inner.registry.clock(tid)
    }

    /// Spawn a deterministic thread. This is itself a deterministic event:
    /// the parent waits for its turn, so child tids (the arbitration
    /// tie-breakers) are assigned in a timing-independent order; the child
    /// starts with `parent clock + 1`.
    ///
    /// Panics on runtime errors (capacity, stall, OS spawn failure) with a
    /// [`DetError`] payload; use [`DetRuntime::try_spawn`] for a `Result`.
    pub fn spawn<F, T>(&self, f: F) -> DetJoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        self.try_spawn(f).unwrap_or_else(|e| raise(e))
    }

    /// Fallible [`DetRuntime::spawn`]: surfaces
    /// [`DetError::CapacityExhausted`] (the registry's fixed slots ran
    /// out), [`DetError::SpawnFailed`] (the OS refused a thread; the
    /// reserved slot is rolled back so arbitration stays healthy), and
    /// watchdog errors from the spawn event's own turn wait.
    pub fn try_spawn<F, T>(&self, f: F) -> Result<DetJoinHandle<T>, DetError>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let reg = &self.inner.registry;
        let (child_tid, child_clock) = det_event(self, None, |turn| {
            let child_clock = turn.clock() + 1;
            let child_tid = reg.register(child_clock)?;
            reg.tick(turn.me, 1);
            Ok(Some((child_tid, child_clock)))
        })?;

        let child_inner = Arc::clone(&self.inner);
        let spawn_result = std::thread::Builder::new()
            .name(format!("det-{child_tid}"))
            .spawn(move || {
                CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&child_inner), child_tid)));
                // Panic safety: catch the payload so the deterministic exit
                // protocol ALWAYS runs — a panicking child must still reach
                // `Finished` and reactivate a joining parent, otherwise the
                // whole arbiter wedges on its frozen clock.
                let result = catch_unwind(AssertUnwindSafe(f));
                det_exit(&child_inner, child_tid);
                result
            });
        let std_handle = match spawn_result {
            Ok(h) => h,
            Err(source) => {
                // The child slot was reserved but no thread will ever run
                // it: retire it so its zero-progress clock cannot stall
                // arbitration.
                reg.transition(|_| {
                    reg.set_exit_clock(child_tid, child_clock);
                    reg.set_state(child_tid, ThreadState::Finished);
                });
                return Err(DetError::SpawnFailed { source });
            }
        };
        Ok(DetJoinHandle {
            rt: self.clone(),
            tid: child_tid,
            std: Some(std_handle),
        })
    }

    /// Deterministically retire the calling thread from arbitration without
    /// exiting the OS thread. Call this on the *main* thread when it will
    /// stop participating in deterministic synchronization (otherwise its
    /// stalled clock blocks every other thread's events). Joining threads
    /// deactivates main automatically while blocked, so a main that spawns
    /// then immediately joins does not need this.
    pub fn retire_current(&self) {
        let (inner, me) = current();
        assert!(Arc::ptr_eq(&inner, &self.inner));
        det_exit(&self.inner, me);
        CURRENT.with(|c| *c.borrow_mut() = None);
    }

    /// Number of recorded lock acquisitions (when tracing is on).
    pub fn trace_len(&self) -> usize {
        self.inner.trace.len()
    }

    /// Snapshot of the lock-acquisition trace.
    pub fn trace_events(&self) -> Vec<crate::Acquisition> {
        self.inner.trace.snapshot()
    }

    /// Order-sensitive hash of the acquisition trace (equal across runs ⇔
    /// weak determinism held).
    pub fn trace_hash(&self) -> u64 {
        self.inner.trace.hash()
    }

    /// Clear the recorded trace.
    pub fn trace_clear(&self) {
        self.inner.trace.clear()
    }

    /// Diagnostic snapshot of every deterministic thread (tid, clock,
    /// state, event count, waited-on lock) — the same data a
    /// [`crate::StallReport`] carries.
    pub fn thread_snapshots(&self) -> Vec<crate::ThreadSnapshot> {
        self.inner.registry.snapshot()
    }

    pub(crate) fn alloc_lock_id(&self) -> u64 {
        self.inner.next_lock_id.fetch_add(1, Ordering::Relaxed)
    }
}

/// The calling thread's `(runtime, tid)`; panics (with a
/// [`DetError::NotRegistered`] payload) when called from a thread not
/// registered with any deterministic runtime.
pub(crate) fn current() -> (Arc<Inner>, DetTid) {
    try_current().unwrap_or_else(|e| raise(e))
}

/// Fallible [`current`].
pub(crate) fn try_current() -> Result<(Arc<Inner>, DetTid), DetError> {
    CURRENT.with(|c| {
        c.borrow()
            .as_ref()
            .map(|(i, t)| (Arc::clone(i), *t))
            .ok_or(DetError::NotRegistered)
    })
}

/// Raise a runtime error from an infallible API: panic carrying the typed
/// [`DetError`] payload, so `catch_unwind` / [`DetJoinHandle::try_join`]
/// callers can downcast it rather than parse a message.
pub(crate) fn raise(e: DetError) -> ! {
    std::panic::panic_any(e)
}

/// Advance the calling thread's logical clock (free-function form used by
/// instrumented code). Panics on an unregistered thread; see [`try_tick`].
#[inline]
pub fn tick(amount: u64) {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (inner, tid) = b
            .as_ref()
            .expect("tick() called on a thread not registered with a DetRuntime");
        inner.registry.tick(*tid, amount);
    });
}

/// Fallible [`tick`]: `Err(DetError::NotRegistered)` instead of panicking
/// when the calling thread is not deterministic.
#[inline]
pub fn try_tick(amount: u64) -> Result<(), DetError> {
    CURRENT.with(|c| {
        let b = c.borrow();
        let (inner, tid) = b.as_ref().ok_or(DetError::NotRegistered)?;
        inner.registry.tick(*tid, amount);
        Ok(())
    })
}

/// Deterministic thread exit: an event at the thread's turn — or a forced
/// exit without it, see [`wait_exit_turn`]; it must never wedge. Marks the
/// slot finished and, if a parent is parked joining, reactivates it with
/// `max(parent, child) + 1`.
fn det_exit(inner: &Inner, me: DetTid) {
    let reg = &inner.registry;
    wait_exit_turn(inner, me);
    let my_clock = reg.clock(me);
    let mut waiters = inner.join_waiters.lock();
    reg.transition(|_| {
        reg.set_exit_clock(me, my_clock);
        reg.set_state(me, ThreadState::Finished);
        if let Some(parent) = waiters.remove(&me) {
            let pc = reg.clock(parent).max(my_clock) + 1;
            reg.set_clock(parent, pc);
            reg.set_state(parent, ThreadState::Active);
        }
    });
    drop(waiters);
    inner.join_cv.notify_all();
}

/// Join handle for a deterministic thread.
///
/// Dropping an unjoined handle *detaches* the child deterministically: the
/// child keeps running and its exit event proceeds normally (no parent to
/// wake), and no stale `join_waiters` entry is left behind.
pub struct DetJoinHandle<T> {
    rt: DetRuntime,
    tid: DetTid,
    std: Option<std::thread::JoinHandle<std::thread::Result<T>>>,
}

impl<T> DetJoinHandle<T> {
    /// The child's deterministic tid.
    pub fn det_tid(&self) -> DetTid {
        self.tid
    }

    /// Deterministically join the child: a det event at the parent's turn.
    /// While blocked, the parent is excluded from arbitration; the child's
    /// exit event reactivates it with `max(parent, child) + 1`.
    ///
    /// If the child panicked, the panic is re-raised here (like
    /// `std::thread::JoinHandle::join().unwrap()`); other runtime errors
    /// raise a [`DetError`] panic. Use [`DetJoinHandle::try_join`] to
    /// handle both as values.
    pub fn join(mut self) -> T {
        match self.join_inner() {
            Ok(v) => v,
            Err(DetError::ChildPanicked { payload, .. }) => resume_unwind(payload),
            Err(e) => raise(e),
        }
    }

    /// Fallible join: [`DetError::ChildPanicked`] carries a panicking
    /// child's payload (inspect with [`crate::panic_message`] or downcast
    /// to e.g. [`crate::fault::InjectedPanic`]); stall-watchdog and
    /// misuse errors are returned typed as well.
    pub fn try_join(mut self) -> Result<T, DetError> {
        self.join_inner()
    }

    fn join_inner(&mut self) -> Result<T, DetError> {
        let child = self.tid;
        det_event(&self.rt, None, |turn| {
            let (reg, me) = (turn.reg(), turn.me);
            let mut waiters = turn.inner.join_waiters.lock();
            let finished = reg.transition(|_| {
                let finished = reg.state(child) == ThreadState::Finished;
                if !finished {
                    reg.set_state(me, ThreadState::Blocked);
                    waiters.insert(child, me);
                }
                finished
            });
            if finished {
                reg.set_clock(me, turn.clock().max(reg.exit_clock(child)) + 1);
            } else {
                // On a stall, withdraw the entry so a late child exit does
                // not touch a parent that already gave up.
                turn.park(&turn.inner.join_cv, &mut waiters, |w| {
                    w.remove(&child);
                })?;
            }
            Ok(Some(()))
        })?;
        let handle = self.std.take().expect("joined twice");
        match handle.join() {
            Ok(Ok(v)) => Ok(v),
            // The closure panicked and catch_unwind captured the payload.
            Ok(Err(payload)) => Err(DetError::ChildPanicked {
                tid: self.tid,
                payload,
            }),
            // Panic escaped catch_unwind (i.e. inside det_exit) — still
            // surface it rather than poison the caller.
            Err(payload) => Err(DetError::ChildPanicked {
                tid: self.tid,
                payload,
            }),
        }
    }
}

impl<T> Drop for DetJoinHandle<T> {
    fn drop(&mut self) {
        if self.std.take().is_some() {
            // Never joined: detach. No join_waiters entry can exist for an
            // unjoined child (join_inner inserts it and always consumes the
            // handle), but withdraw defensively so a logic slip elsewhere
            // can never redirect a wake-up at a dead parent.
            self.rt.inner.join_waiters.lock().remove(&self.tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::tests::{raised, stall_rt};

    #[test]
    fn spawn_join_returns_value_and_orders_clocks() {
        let rt = DetRuntime::with_defaults();
        rt.tick(10);
        let h = rt.spawn(|| {
            tick(5);
            42
        });
        assert_eq!(h.join(), 42);
        // Parent clock advanced past child's exit clock.
        assert!(rt.clock() > 10);
    }

    #[test]
    fn child_tids_are_sequential_in_spawn_order() {
        let rt = DetRuntime::with_defaults();
        let h1 = rt.spawn(|| 1);
        let h2 = rt.spawn(|| 2);
        assert_eq!(h1.det_tid(), 1);
        assert_eq!(h2.det_tid(), 2);
        // Join in reverse order still works (each join is its own event).
        assert_eq!(h2.join(), 2);
        assert_eq!(h1.join(), 1);
    }

    #[test]
    fn nested_spawn() {
        let rt = DetRuntime::with_defaults();
        let rt2 = rt.clone();
        let h = rt.spawn(move || {
            let inner = rt2.spawn(|| 7);
            inner.join() + 1
        });
        assert_eq!(h.join(), 8);
    }

    #[test]
    fn tick_free_function_matches_handle() {
        let rt = DetRuntime::with_defaults();
        tick(3);
        rt.tick(4);
        assert_eq!(rt.clock(), 7);
    }

    #[test]
    fn join_blocks_parent_without_stalling_children() {
        // Parent joins child A while child B does det work: B must not be
        // stalled by the blocked parent's low clock.
        let rt = DetRuntime::with_defaults();
        let slow = rt.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            tick(1000);
            1
        });
        let busy = rt.spawn(|| {
            for _ in 0..100 {
                tick(10);
            }
            2
        });
        assert_eq!(slow.join(), 1);
        assert_eq!(busy.join(), 2);
    }

    #[test]
    fn tick_outside_runtime_panics() {
        let r = std::thread::spawn(|| tick(1)).join();
        assert!(r.is_err(), "tick on an unregistered thread must panic");
    }

    #[test]
    fn try_tick_outside_runtime_errors() {
        let r = std::thread::spawn(|| try_tick(1)).join().unwrap();
        assert!(matches!(r, Err(DetError::NotRegistered)));
    }

    #[test]
    fn retire_current_releases_workers() {
        let rt = DetRuntime::with_defaults();
        let h = rt.spawn(|| {
            tick(1);
            5
        });
        // Retire main: workers proceed even though main's clock is 0 and it
        // never ticks again. Then the handle can still be joined via the
        // std handle path... join() requires registration, so join first.
        let v = h.join();
        rt.retire_current();
        assert_eq!(v, 5);
    }

    #[test]
    fn child_panic_propagates_through_join() {
        let rt = DetRuntime::with_defaults();
        let h = rt.spawn(|| -> u32 { panic!("child exploded") });
        // join() re-raises the child's panic in the parent...
        let caught = catch_unwind(AssertUnwindSafe(|| h.join()));
        let payload = caught.expect_err("join must re-raise the child panic");
        assert_eq!(crate::panic_message(payload.as_ref()), "child exploded");
        // ...and the runtime is still healthy: spawn/join again.
        assert_eq!(rt.spawn(|| 9).join(), 9);
    }

    #[test]
    fn try_join_returns_child_panic_as_typed_error() {
        let rt = DetRuntime::with_defaults();
        let h = rt.spawn(|| -> u32 { panic!("typed boom") });
        let tid = h.det_tid();
        match h.try_join() {
            Err(DetError::ChildPanicked { tid: t, payload }) => {
                assert_eq!(t, tid);
                assert_eq!(crate::panic_message(payload.as_ref()), "typed boom");
            }
            other => panic!("expected ChildPanicked, got {other:?}"),
        }
        assert_eq!(rt.spawn(|| 1).join(), 1);
    }

    #[test]
    fn dropping_handle_detaches_without_wedging() {
        let rt = DetRuntime::with_defaults();
        {
            let _dropped = rt.spawn(|| {
                tick(2);
                "detached"
            });
        } // handle dropped unjoined here
          // The detached child exits on its own; the runtime keeps working.
        let h = rt.spawn(|| {
            tick(1);
            3
        });
        assert_eq!(h.join(), 3);
    }

    #[test]
    fn capacity_exhaustion_is_a_clean_error() {
        let rt = DetRuntime::new(DetConfig {
            max_threads: 2, // main + one child
            ..DetConfig::default()
        });
        let ok = rt.spawn(|| 1);
        match rt.try_spawn(|| 2) {
            Err(DetError::CapacityExhausted { capacity: 2 }) => {}
            Err(other) => panic!("expected CapacityExhausted, got {other:?}"),
            Ok(_) => panic!("expected CapacityExhausted, got a handle"),
        }
        // The failed spawn left arbitration healthy: the live child still
        // joins fine.
        assert_eq!(ok.join(), 1);
    }

    #[test]
    fn spawn_from_unregistered_thread_errors() {
        let rt = DetRuntime::with_defaults();
        let rt2 = rt.clone();
        let r = std::thread::spawn(move || rt2.try_spawn(|| 1).map(|_| ()))
            .join()
            .unwrap();
        assert!(matches!(r, Err(DetError::NotRegistered)));
    }

    #[test]
    fn cross_runtime_handle_misuse_is_a_typed_error() {
        use crate::{DetBarrier, DetMutex, DetPool};
        // A thread registered with runtime B using a handle or primitive
        // of runtime A must get WrongRuntime — in release builds too — not
        // silently arbitrate in B's registry and tick A's.
        let rt_a = DetRuntime::with_defaults();
        let h = rt_a.spawn(|| 41);
        let m = DetMutex::new(&rt_a, 0);
        let pool = DetPool::new(&rt_a, 1);
        let bar = DetBarrier::new(&rt_a, 1);
        let clock_a = rt_a.clock();
        let rt_a2 = rt_a.clone();
        let misuses = std::thread::spawn(move || {
            let rt_b = DetRuntime::with_defaults();
            let wrong = |f: &mut dyn FnMut()| matches!(raised(f), Some(DetError::WrongRuntime));
            let verdicts = [
                matches!(h.try_join(), Err(DetError::WrongRuntime)),
                wrong(&mut || drop(m.lock())),
                wrong(&mut || drop(m.try_lock())),
                matches!(rt_a2.try_spawn(|| 0), Err(DetError::WrongRuntime)),
                wrong(&mut || drop(pool.alloc(0u64))),
                wrong(&mut || {
                    bar.wait();
                }),
            ];
            rt_b.retire_current();
            verdicts
        })
        .join()
        .unwrap();
        assert_eq!(
            misuses, [true; 6],
            "expected WrongRuntime from every foreign use"
        );
        // Runtime A is unharmed: nothing ticked its clocks, its detached
        // child exited cleanly and new work proceeds.
        assert_eq!(rt_a.clock(), clock_a);
        assert_eq!(rt_a.spawn(|| 5).join(), 5);
    }

    #[test]
    fn stalled_join_withdraws_the_parent() {
        let rt = stall_rt(StallAction::Error);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let h = rt.spawn(move || rx.recv().is_ok());
        let tid = h.det_tid();
        // The child blocks outside the runtime: nothing in the registry
        // moves, so the parked parent's wait is declared dead.
        assert!(matches!(h.try_join(), Err(DetError::Stalled(_))));
        assert_eq!(rt.thread_snapshots()[0].state, ThreadState::Active);
        assert!(!rt.inner.join_waiters.lock().contains_key(&tid));
        tx.send(()).unwrap(); // the detached child exits on its own
    }

    #[test]
    fn thread_snapshots_expose_state() {
        let rt = DetRuntime::with_defaults();
        let h = rt.spawn(|| {
            tick(7);
            0
        });
        h.join();
        let snaps = rt.thread_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].tid, 0);
        assert_eq!(snaps[1].state, ThreadState::Finished);
        assert!(snaps[0].events >= 1, "join is a counted det event");
    }
}
