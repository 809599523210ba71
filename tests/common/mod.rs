//! The timing-independent record of a finished real-thread run, for
//! `fault_tolerance`'s reproducibility checks.
//!
//! The trace hash covers every `(lock, tid, clock)` record; comparing the
//! records themselves shows *where* two runs split, and every thread's
//! final clock covers the ticks after its last acquisition.

use detlock::detlock_core::{first_divergence, Acquisition};
use detlock::DetRuntime;

#[derive(Debug, PartialEq)]
pub struct RunClocks {
    events: Vec<Acquisition>,
    /// Final logical clock per tid.
    finals: Vec<u64>,
}

/// Capture `rt`'s record once every spawned thread has been joined.
/// Asserts that recorded clocks never decrease in record order: every
/// acquisition happens at the global minimum, so one that does was
/// recorded after the turn had already moved on.
pub fn run_clocks(rt: &DetRuntime) -> RunClocks {
    let events = rt.trace_events();
    if let Some(i) = (1..events.len()).find(|&i| events[i].clock < events[i - 1].clock) {
        panic!(
            "event {i} recorded out of logical order: {:?} after {:?}",
            events[i],
            events[i - 1]
        );
    }
    let finals = rt.thread_snapshots().iter().map(|t| t.clock).collect();
    RunClocks { events, finals }
}

/// Two runs of one program must agree event for event, clocks included;
/// on a mismatch, show the first diverging acquisition rather than two
/// full traces.
pub fn assert_same_clocks(a: &RunClocks, b: &RunClocks, what: &str) {
    if let Some(i) = first_divergence(&a.events, &b.events) {
        panic!(
            "{what}: first divergence at event {i} of {}/{}: {:?} vs {:?} (after {:?})",
            a.events.len(),
            b.events.len(),
            a.events.get(i),
            b.events.get(i),
            i.checked_sub(1).map(|p| a.events[p]),
        );
    }
    assert_eq!(a.finals, b.finals, "{what}: final thread clocks differ");
}
