//! In-memory spans recorded from the benchmark's side of each call into the
//! product: `{name, start, end, parent, op}`. A layer's self time is its
//! span minus the part its direct children cover. Spans are kept in a `Vec`
//! and written out once, when the workload ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ir.parse`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<u32>,
    /// The op this span belongs to (spans of one op share it).
    pub op: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Count, self time and inclusive time of every span sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Σ (span − direct children), ns.
    pub self_ns: u64,
    /// Σ span, ns.
    pub total_ns: u64,
}

/// A span recorder owned by one thread. Disabled, `span` only calls the
/// closure, so untraced blocks run the same code path minus the clock reads.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch across
    /// the threads of a workload so their spans line up).
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turn recording on or off (between blocks, never inside a span).
    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.enabled = on;
    }

    /// Tag the spans that follow with op identifier `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span called `name`; spans opened by `f` through the
    /// tracer it is handed become this span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Record a duration the callee measured itself (a server-reported
    /// queue or exec time) as a child of the open span, so the open span's
    /// self time excludes it. Only the duration is real: children attributed
    /// to one span are laid end to end from its start.
    pub fn attribute(&mut self, name: &'static str, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let parent = *self.stack.last().expect("attribute outside a span");
        // Children come after their parent, so only that tail is searched.
        let start_ns = self.spans[parent as usize + 1..]
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent))
            .map_or(self.spans[parent as usize].start_ns, |s| s.end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            op: self.op,
        });
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// An empty tracer for another thread: same epoch, same on/off state.
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.epoch, self.enabled)
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: duration minus its direct children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur());
        }
    }
    own
}

/// Aggregate spans by name (sorted, so reports repeat in the same order).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += own_ns;
        t.total_ns += s.dur();
    }
    out
}

/// The trace as one JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80 + 4);
    out.push_str("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = match s.parent {
            Some(p) => p.to_string(),
            None => "null".to_string(),
        };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"op\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        );
        out.push_str(if i + 1 == spans.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100) has siblings a [10,30) and b [40,90); b nests c [50,70).
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 30, 20]);
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].self_ns, 30);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["b"].self_ns, 30);
        assert_eq!(t["c"].self_ns, 20);
        // A grandchild is charged to its parent only, never twice.
        let own_sum: u64 = t.values().map(|v| v.self_ns).sum();
        assert_eq!(own_sum, 100);
    }

    #[test]
    fn totals_group_repeated_names() {
        let spans = vec![
            span("op", 0, 10, None),
            span("x", 1, 4, Some(0)),
            span("op", 10, 30, None),
            span("x", 12, 20, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["op"].count, 2);
        assert_eq!(t["x"].count, 2);
        assert_eq!(t["x"].total_ns, 11);
        assert_eq!(t["op"].self_ns, 30 - 11);
    }

    #[test]
    fn tracer_records_nesting_and_op_ids() {
        let mut tr = Tracer::new(Instant::now(), true);
        tr.set_op(7);
        let got = tr.span("outer", |tr| {
            tr.span("first", |_| ());
            tr.span("second", |tr| tr.span("inner", |_| 42))
        });
        assert_eq!(got, 42);
        let s = tr.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "first", "second", "inner"]);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(s[0].end_ns >= s[3].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_runs_the_closure() {
        let mut tr = Tracer::new(Instant::now(), false);
        assert_eq!(tr.span("x", |tr| tr.span("y", |_| 5)), 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn attributed_durations_come_off_the_open_spans_self_time() {
        let mut tr = Tracer::new(Instant::now(), true);
        tr.span("request", |tr| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            tr.attribute("queue", 300_000);
            tr.attribute("exec", 500_000);
        });
        let s = tr.spans();
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[1].start_ns, s[0].start_ns);
        assert_eq!(s[2].start_ns, s[1].end_ns);
        let t = totals_by_name(s);
        assert_eq!(t["queue"].total_ns + t["exec"].total_ns, 800_000);
        assert_eq!(t["request"].self_ns, t["request"].total_ns - 800_000);
    }

    #[test]
    fn absorb_rebases_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.span("a", |_| ());
        let mut b = Tracer::new(epoch, true);
        b.span("b", |tr| tr.span("b.child", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].name, "b.child");
        assert_eq!(a.spans()[2].parent, Some(1));
        let json = to_json(a.spans());
        assert!(json.contains("\"name\":\"b.child\""));
        assert!(json.contains("\"parent\":null"));
        assert!(detlock_shim::json::Json::parse(&json).is_ok());
    }
}
