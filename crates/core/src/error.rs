//! Typed errors and stall diagnostics for the deterministic runtime.
//!
//! The failure model (DESIGN.md §"Failure model"): every way a
//! deterministic program can go wrong — a panicking child, an exhausted
//! registry, a wedged thread starving the arbiter — must surface as a
//! [`DetError`] or a diagnosable abort, never as a silent deadlock. Kendo's
//! min-clock turn rule makes the runtime *globally* sensitive to a single
//! thread's failure (every other thread waits on the minimum clock), so the
//! runtime treats fault handling as part of the protocol rather than an
//! afterthought.

use crate::registry::{DetTid, ThreadState};
use std::any::Any;
use std::fmt;
use std::time::Duration;

/// What the stall watchdog does when it concludes the arbiter is wedged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StallAction {
    /// Dump the [`StallReport`] to stderr and abort the process. The
    /// default: a wedged deterministic program has no useful continuation,
    /// and failing loudly beats hanging CI for hours.
    #[default]
    Abort,
    /// Surface [`DetError::Stalled`] from the waiting operation. Infallible
    /// APIs (e.g. [`crate::DetMutex::lock`]) raise it as a panic carrying
    /// the `DetError` payload, which the runtime's panic safety net turns
    /// into an `Err` at the joining parent.
    Error,
}

/// Per-thread state captured in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadSnapshot {
    /// Deterministic thread id.
    pub tid: DetTid,
    /// Logical clock at capture time.
    pub clock: u64,
    /// Arbitration state at capture time.
    pub state: ThreadState,
    /// Number of deterministic events this thread has entered.
    pub events: u64,
    /// Runtime-assigned id of the lock or barrier the thread is currently
    /// waiting on, if any.
    pub waiting_on: Option<u64>,
}

/// Diagnostic snapshot produced when the watchdog suspects a deadlock.
#[derive(Debug, Clone)]
pub struct StallReport {
    /// The thread whose wait timed out.
    pub waiter: DetTid,
    /// The thread the waiter identified as holding arbitration back
    /// (the minimum-clock active thread that made no progress), when the
    /// stall was observed inside an arbitration spin.
    pub culprit: Option<DetTid>,
    /// The configured watchdog timeout that elapsed.
    pub timeout: Duration,
    /// State of every registered thread at capture time.
    pub threads: Vec<ThreadSnapshot>,
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deterministic runtime stalled: tid {} made no progress for {:?}{}",
            self.waiter,
            self.timeout,
            match self.culprit {
                Some(c) => format!(" (suspected culprit: tid {c})"),
                None => String::new(),
            }
        )?;
        writeln!(f, "  tid  state      clock        events   waiting-on")?;
        for t in &self.threads {
            writeln!(
                f,
                "  {:<4} {:<10} {:<12} {:<8} {}",
                t.tid,
                format!("{:?}", t.state),
                t.clock,
                t.events,
                match t.waiting_on {
                    Some(id) => format!("lock {id}"),
                    None => "-".to_string(),
                }
            )?;
        }
        Ok(())
    }
}

/// Errors surfaced by the deterministic runtime.
///
/// Not `Clone`/`PartialEq`: [`DetError::ChildPanicked`] carries the child's
/// raw panic payload so callers can rethrow it (`resume_unwind`) or inspect
/// it. Use [`panic_message`] to extract a human-readable message.
pub enum DetError {
    /// The registry's fixed thread capacity was exhausted; raise
    /// `DetConfig::max_threads`. Returned *before* any arbitration state is
    /// touched, so the runtime stays healthy.
    CapacityExhausted {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The calling OS thread is not registered with any deterministic
    /// runtime.
    NotRegistered,
    /// The calling thread is registered, but with a *different*
    /// `DetRuntime` than the object it invoked belongs to.
    WrongRuntime,
    /// A joined child terminated by panicking; the payload is the child's
    /// panic value.
    ChildPanicked {
        /// The child's deterministic tid.
        tid: DetTid,
        /// The panic payload (e.g. a `&str`, `String`, or
        /// [`crate::fault::InjectedPanic`]).
        payload: Box<dyn Any + Send + 'static>,
    },
    /// The stall watchdog fired in [`StallAction::Error`] mode (or a
    /// blocked wait timed out without global progress).
    Stalled(Box<StallReport>),
    /// The OS refused to spawn the backing thread.
    SpawnFailed {
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

/// Best-effort extraction of a human-readable message from a panic payload
/// (as produced by `catch_unwind` or carried by
/// [`DetError::ChildPanicked`]).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(ip) = payload.downcast_ref::<crate::fault::InjectedPanic>() {
        ip.to_string()
    } else if let Some(e) = payload.downcast_ref::<DetError>() {
        e.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

impl fmt::Display for DetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetError::CapacityExhausted { capacity } => write!(
                f,
                "deterministic thread capacity ({capacity}) exhausted; raise DetConfig::max_threads"
            ),
            DetError::NotRegistered => {
                write!(f, "calling thread is not registered with a DetRuntime")
            }
            DetError::WrongRuntime => {
                write!(f, "calling thread belongs to a different DetRuntime")
            }
            DetError::ChildPanicked { tid, payload } => write!(
                f,
                "deterministic thread {tid} panicked: {}",
                panic_message(payload.as_ref())
            ),
            DetError::Stalled(report) => write!(f, "{report}"),
            DetError::SpawnFailed { source } => {
                write!(f, "failed to spawn OS thread: {source}")
            }
        }
    }
}

impl fmt::Debug for DetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Same as Display, prefixed with the variant name where it isn't
        // obvious; the payload itself is not Debug.
        write!(f, "DetError::")?;
        match self {
            DetError::CapacityExhausted { .. } => write!(f, "CapacityExhausted({self})"),
            DetError::NotRegistered => write!(f, "NotRegistered"),
            DetError::WrongRuntime => write!(f, "WrongRuntime"),
            DetError::ChildPanicked { tid, payload } => write!(
                f,
                "ChildPanicked {{ tid: {tid}, payload: {:?} }}",
                panic_message(payload.as_ref())
            ),
            DetError::Stalled(r) => {
                write!(f, "Stalled(waiter={}, culprit={:?})", r.waiter, r.culprit)
            }
            DetError::SpawnFailed { source } => write!(f, "SpawnFailed {{ source: {source:?} }}"),
        }
    }
}

impl std::error::Error for DetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DetError::SpawnFailed { source } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = DetError::CapacityExhausted { capacity: 4 };
        assert!(e.to_string().contains("capacity"));
        assert!(e.to_string().contains('4'));
        let e = DetError::ChildPanicked {
            tid: 3,
            payload: Box::new("boom"),
        };
        assert!(e.to_string().contains("boom"));
        assert!(format!("{e:?}").contains("ChildPanicked"));
    }

    #[test]
    fn panic_message_downcasts() {
        assert_eq!(panic_message(&"x"), "x");
        assert_eq!(panic_message(&String::from("y")), "y");
        assert_eq!(panic_message(&42u32), "<non-string panic payload>");
    }

    #[test]
    fn stall_report_renders_all_threads() {
        let r = StallReport {
            waiter: 1,
            culprit: Some(0),
            timeout: Duration::from_millis(50),
            threads: vec![
                ThreadSnapshot {
                    tid: 0,
                    clock: 7,
                    state: ThreadState::Active,
                    events: 2,
                    waiting_on: None,
                },
                ThreadSnapshot {
                    tid: 1,
                    clock: 12,
                    state: ThreadState::Active,
                    events: 5,
                    waiting_on: Some(3),
                },
            ],
        };
        let s = r.to_string();
        assert!(s.contains("culprit: tid 0"));
        assert!(s.contains("lock 3"));
        assert!(s.lines().count() >= 4);
    }
}
