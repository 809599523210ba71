//! The deterministic event — the one place the runtime's protocol is
//! written down. Every primitive (mutex, barrier, spawn, join) is
//! [`det_event`] around its own at-turn transition; the ones that block
//! finish that transition with [`Turn::park`].
//!
//! What lives here, and nowhere else:
//!
//! * **the turn rule** — the caller's transition runs only while its
//!   `(clock, tid)` is the minimum over active threads, and a transition
//!   that cannot complete (lock not logically free) costs a clock bump and
//!   a fresh turn wait;
//! * **the fault-point list** — every [`det_event`] is one fault point and
//!   nothing else is: thread exit ([`wait_exit_turn`]) takes its turn
//!   without one, so injected faults can never hit recovery itself;
//! * **the record-before-tick rule** — [`Turn::acquired`];
//! * **the parked wait** — timed waits, the blocked-stall watchdog and
//!   withdraw-on-stall, [`Turn::park`].
//!
//! Physical timing may delay any of this but is never an input to it: the
//! transition sees only state that is a function of logical clocks.

use crate::error::DetError;
use crate::fault::InjectedPanic;
use crate::registry::{DetTid, Registry, ThreadState};
use crate::runtime::{try_current, DetRuntime, Inner};
use detlock_shim::sync::{Condvar, MutexGuard};
use std::sync::Arc;
use std::time::Duration;

/// The calling thread inside a deterministic event, handed to the event's
/// at-turn transition.
pub(crate) struct Turn<'a> {
    pub(crate) inner: &'a Inner,
    pub(crate) me: DetTid,
}

/// Run one deterministic event of the calling thread on an object owned by
/// `rt` (`on` is the object's id, shown in stall reports while the event is
/// in flight).
///
/// `at_turn` runs *while holding the turn* and answers `Ok(Some(r))` —
/// done — or `Ok(None)` — bump the clock by one and retry at the next
/// turn. Bumps happen only here, at the turn, so the number of retries is
/// timing-independent. A transition that deactivates the thread gives the
/// turn up at that point and must end in [`Turn::park`].
///
/// Errors — no registered thread, a thread of another runtime, a stalled
/// turn wait, or whatever `at_turn` returns — leave the thread active
/// with `waiting_on` cleared; infallible entry points
/// [`crate::runtime::raise`] them.
pub(crate) fn det_event<R>(
    rt: &DetRuntime,
    on: Option<u64>,
    mut at_turn: impl FnMut(&Turn<'_>) -> Result<Option<R>, DetError>,
) -> Result<R, DetError> {
    let (inner, me) = try_current()?;
    if !Arc::ptr_eq(&inner, &rt.inner) {
        return Err(DetError::WrongRuntime);
    }
    let reg = &inner.registry;
    fault_point(&inner, me);
    reg.set_waiting(me, on);
    let turn = Turn { inner: &inner, me };
    let outcome = loop {
        match reg.wait_for_turn(me).and_then(|()| at_turn(&turn)) {
            Ok(None) => reg.tick(me, 1),
            Ok(Some(r)) => break Ok(r),
            Err(e) => break Err(e),
        }
    };
    reg.set_waiting(me, None);
    outcome
}

/// The turn wait of the exit event. No fault point, and it never fails: a
/// thread whose wait errors *force-exits* — an imperfectly ordered exit
/// clock is strictly better than a slot that never reaches `Finished`.
pub(crate) fn wait_exit_turn(inner: &Inner, me: DetTid) {
    let _ = inner.registry.wait_for_turn(me);
}

/// Count the event and apply the configured fault plan (seeded delay
/// and/or injected panic) at its `(tid, event)` coordinate.
fn fault_point(inner: &Inner, tid: DetTid) {
    let event = inner.registry.bump_events(tid);
    if let Some(plan) = &inner.fault {
        if let Some(us) = plan.delay_us(tid, event) {
            std::thread::sleep(Duration::from_micros(us));
        }
        if plan.panics_at(tid, event) {
            std::panic::panic_any(InjectedPanic { tid, event });
        }
    }
}

impl Turn<'_> {
    pub(crate) fn reg(&self) -> &Registry {
        &self.inner.registry
    }

    /// The thread's clock at this turn.
    pub(crate) fn clock(&self) -> u64 {
        self.reg().clock(self.me)
    }

    /// The "acquired" step of every lock: record, then tick. The tick is
    /// what hands the turn on and lets the next thread acquire, so the
    /// record must land first — while this thread still holds the turn —
    /// for the trace's append order to be the logical order.
    pub(crate) fn acquired(&self, id: u64) -> DetTid {
        self.inner.trace.record(id, self.me, self.clock() + 1);
        self.reg().tick(self.me, 1);
        self.me
    }

    /// Reactivate parked threads at `clock`, inside this event. Only those
    /// still `Blocked`: one that gave up on a stall must not be resurrected
    /// into arbitration on a clock nobody advances.
    pub(crate) fn reactivate(&self, tids: &[DetTid], clock: u64) {
        let reg = self.reg();
        reg.transition(|_| {
            for &t in tids {
                if reg.state(t) == ThreadState::Blocked {
                    reg.set_clock(t, clock);
                    reg.set_state(t, ThreadState::Active);
                }
            }
        });
    }

    /// Wait, `Blocked`, until another thread's event reactivates this one.
    ///
    /// `st` is the primitive's state lock, held since before the thread
    /// went `Blocked` (so the waker, which takes the same lock, sees it
    /// parked); `cv` is the condvar the waker notifies. If the watchdog
    /// declares the wait dead (and does not abort), `withdraw` removes the
    /// thread from the primitive's wait list and the thread reactivates
    /// itself before the error propagates, so a late waker cannot wake a
    /// ghost.
    pub(crate) fn park<S>(
        &self,
        cv: &Condvar,
        st: &mut MutexGuard<'_, S>,
        withdraw: impl FnOnce(&mut S),
    ) -> Result<(), DetError> {
        let (reg, me) = (self.reg(), self.me);
        let mut timer = reg.stall_timer();
        while reg.state(me) != ThreadState::Active {
            let timed_out = cv.wait_for(st, timer.poll_interval());
            if timed_out && reg.state(me) != ThreadState::Active && timer.expired(reg) {
                let e = reg.on_blocked_stall(me);
                withdraw(st);
                reg.transition(|_| {
                    if reg.state(me) == ThreadState::Blocked {
                        reg.set_state(me, ThreadState::Active);
                    }
                });
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::registry::ThreadState;
    use crate::runtime::DetConfig;
    use crate::{DetError, DetMutex, DetRuntime, StallAction};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// A runtime whose watchdog gives up after 40 ms (shared by the stall
    /// tests of every primitive).
    pub(crate) fn stall_rt(on_stall: StallAction) -> DetRuntime {
        DetRuntime::new(DetConfig {
            watchdog_timeout: Some(Duration::from_millis(40)),
            on_stall,
            ..DetConfig::default()
        })
    }

    /// The typed error an infallible entry point raised, if it raised one.
    pub(crate) fn raised(f: impl FnOnce()) -> Option<DetError> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        payload.downcast::<DetError>().ok().map(|e| *e)
    }

    #[test]
    fn stalled_turn_wait_clears_waiting_on() {
        let rt = stall_rt(StallAction::Error);
        let m = Arc::new(DetMutex::new(&rt, 0));
        let (m2, (tx, rx)) = (Arc::clone(&m), mpsc::channel());
        let h = rt.spawn(move || {
            let e = raised(|| drop(m2.lock()));
            tx.send(()).unwrap();
            matches!(e, Some(DetError::Stalled(_)))
        });
        // Main holds the minimum clock and blocks outside the runtime, so
        // the child's turn wait has to stall.
        rx.recv().unwrap();
        assert_eq!(rt.thread_snapshots()[1].waiting_on, None);
        assert!(h.join(), "the child's lock must fail with Stalled");
        let child = &rt.thread_snapshots()[1];
        assert_eq!(
            (child.state, child.waiting_on),
            (ThreadState::Finished, None)
        );
    }
}
