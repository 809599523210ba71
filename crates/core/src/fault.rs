//! Deterministic fault injection.
//!
//! A [`FaultPlan`] perturbs a deterministic program in two seeded,
//! reproducible ways, keyed on `(tid, event-index)` — both coordinates are
//! themselves deterministic, so an injection site is the *same program
//! point* on every run:
//!
//! * **delays** — sleep before entering a deterministic event. Weak
//!   determinism promises the synchronization order is timing-independent,
//!   so injected delays must leave `trace_hash()` unchanged; the chaos
//!   tests assert exactly that (the validation style of replay systems:
//!   perturb the schedule, check the order). A plan's delays may also be
//!   *re-seeded per run* while the trace stays invariant.
//! * **panics** — panic on entry to a chosen `(tid, event)` pair, before
//!   the event touches arbitration state. The runtime's panic safety net
//!   (`catch_unwind` + the exit protocol) must convert this into a
//!   [`crate::DetError::ChildPanicked`] at the joining parent with no
//!   deadlock — which is what makes fault tolerance a payoff of
//!   determinism rather than a liability.

use crate::registry::DetTid;
use detlock_shim::rng::mix;
use std::fmt;

/// Payload of an injected panic (downcast it from
/// [`crate::DetError::ChildPanicked`] to distinguish injected faults from
/// organic ones in tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The thread the panic was injected into.
    pub tid: DetTid,
    /// The deterministic event index at which it fired.
    pub event: u64,
}

impl fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected panic at tid {} event {} (FaultPlan)",
            self.tid, self.event
        )
    }
}

/// A seeded, per-tid/per-event fault schedule (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Delay an event with probability `delay_num / delay_den`.
    delay_num: u32,
    delay_den: u32,
    /// Injected delays are uniform in `1..=max_delay_us` microseconds.
    max_delay_us: u64,
    /// `(tid, event-index)` pairs that panic on entry.
    panics: Vec<(DetTid, u64)>,
}

impl FaultPlan {
    /// An empty plan (no delays, no panics) with the given seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_num: 0,
            delay_den: 1,
            max_delay_us: 0,
            panics: Vec::new(),
        }
    }

    /// Enable delay injection: each deterministic event is delayed with
    /// probability `num/den`, for a seeded-uniform `1..=max_delay_us`
    /// microseconds.
    pub fn with_delays(mut self, num: u32, den: u32, max_delay_us: u64) -> FaultPlan {
        assert!(den > 0, "delay probability denominator must be nonzero");
        assert!(max_delay_us > 0, "max_delay_us must be nonzero");
        self.delay_num = num;
        self.delay_den = den;
        self.max_delay_us = max_delay_us;
        self
    }

    /// Inject a panic when `tid` enters its `event`-th deterministic event
    /// (0-based; spawn, lock, barrier, and join entries all count).
    pub fn with_panic_at(mut self, tid: DetTid, event: u64) -> FaultPlan {
        self.panics.push((tid, event));
        self
    }

    /// The injected delay for `(tid, event)`, in microseconds, if any.
    pub fn delay_us(&self, tid: DetTid, event: u64) -> Option<u64> {
        if self.delay_num == 0 {
            return None;
        }
        let draw = mix(self.seed, u64::from(tid), event);
        if (draw % self.delay_den as u64) < self.delay_num as u64 {
            let span = mix(self.seed ^ 0xd1b54a32d192ed03, u64::from(tid), event);
            Some(1 + span % self.max_delay_us)
        } else {
            None
        }
    }

    /// Whether `(tid, event)` is scheduled to panic.
    pub fn panics_at(&self, tid: DetTid, event: u64) -> bool {
        self.panics.iter().any(|&(t, e)| t == tid && e == event)
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.delay_num == 0 && self.panics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_reproducible_for_a_seed() {
        let a = FaultPlan::new(7).with_delays(1, 3, 200);
        let b = FaultPlan::new(7).with_delays(1, 3, 200);
        for tid in 0..4 {
            for ev in 0..64 {
                assert_eq!(a.delay_us(tid, ev), b.delay_us(tid, ev));
            }
        }
    }

    #[test]
    fn delays_hit_roughly_the_requested_rate() {
        let p = FaultPlan::new(42).with_delays(1, 4, 100);
        let hits = (0..1000u64).filter(|&e| p.delay_us(1, e).is_some()).count();
        assert!((150..350).contains(&hits), "got {hits}/1000 at p=1/4");
        assert!((0..1000u64)
            .filter_map(|e| p.delay_us(1, e))
            .all(|us| (1..=100).contains(&us)));
    }

    #[test]
    fn panic_schedule_matches_exactly() {
        let p = FaultPlan::new(0).with_panic_at(3, 5).with_panic_at(1, 0);
        assert!(p.panics_at(3, 5));
        assert!(p.panics_at(1, 0));
        assert!(!p.panics_at(3, 4));
        assert!(!p.panics_at(2, 5));
    }

    #[test]
    fn empty_plan_is_inert() {
        let p = FaultPlan::new(9);
        assert!(p.is_empty());
        assert_eq!(p.delay_us(0, 0), None);
        assert!(!p.panics_at(0, 0));
    }
}
