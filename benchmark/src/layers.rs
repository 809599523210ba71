//! Per-layer numbers read off one workload's own trace run: self-time shares
//! of op time, tracing overhead, the simulated counts of its program set —
//! and the layer-isolation table that says whether the workload stresses the
//! layer it was chosen for.

use crate::harness::RunResult;
use crate::stats;
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Per-layer metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Write the spans to `benchmark/out/trace_<workload>.json`.
pub fn write_trace(workload: &str, spans: &[Span]) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    let path = dir.join(format!("trace_{workload}.json"));
    std::fs::write(&path, trace::to_json(spans)).expect("write the trace file");
    path
}

/// The share bucket a span's self time counts towards.
fn bucket(span_name: &str) -> &'static str {
    match span_name {
        "op" => "trace.share.bench",
        "vm.lower" => "trace.share.vm_lower",
        "vm.new" => "trace.share.vm_new",
        "vm.exec" => "trace.share.vm_exec",
        "serve.queue" => "trace.share.serve_queue",
        "serve.exec" => "trace.share.serve_exec",
        n if n.starts_with("serve.request.") => "trace.share.serve_wire",
        n if n.starts_with("ir.") => "trace.share.ir",
        n if n.starts_with("passes.") => "trace.share.passes",
        other => panic!("span {other} has no layer bucket"),
    }
}

const BUCKETS: [&str; 9] = [
    "trace.share.ir",
    "trace.share.passes",
    "trace.share.vm_lower",
    "trace.share.vm_new",
    "trace.share.vm_exec",
    "trace.share.serve_queue",
    "trace.share.serve_exec",
    "trace.share.serve_wire",
    "trace.share.bench",
];

/// Self time of each layer as a share of total op time.
pub fn layer_shares(primary_spans: &[Span]) -> Values {
    let totals = trace::totals_by_name(primary_spans);
    let op_ns = totals.get("op").map_or(0, |t| t.total_ns) as f64;
    let mut shares: Values = BUCKETS.iter().map(|&b| (b, 0.0)).collect();
    if op_ns > 0.0 {
        for (name, t) in &totals {
            *shares.get_mut(bucket(name)).expect("bucket listed") += t.self_ns as f64 / op_ns;
        }
    }
    shares
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// `serve.job.*` and `serve.wire.*` from request spans and the server-timed
/// children attributed to them. Means where the parts should add up to the
/// whole (wall = queue + exec + wire), medians per class, p99 overall.
/// Spans hold raw times; `speed` is the clock they were measured at.
pub fn serve_job_metrics(spans: &[Span], speed: f64) -> Values {
    let ms = |ns: u64| ns as f64 / 1e6 * speed;
    let own = trace::self_times(spans);
    let (mut wall, mut wire): ([Vec<f64>; 2], [Vec<f64>; 2]) = Default::default();
    let (mut queue, mut exec) = (Vec::new(), Vec::new());
    for (s, own_ns) in spans.iter().zip(own) {
        let class = match s.name {
            "serve.request.small" => 0,
            "serve.request.medium" => 1,
            "serve.queue" => {
                queue.push(ms(s.end_ns - s.start_ns));
                continue;
            }
            "serve.exec" => {
                exec.push(ms(s.end_ns - s.start_ns));
                continue;
            }
            _ => continue,
        };
        wall[class].push(ms(s.end_ns - s.start_ns));
        wire[class].push(ms(own_ns));
    }
    assert!(
        !wall[0].is_empty() && !wall[1].is_empty(),
        "no serve request spans of both classes in the trace"
    );
    let all_wall: Vec<f64> = wall.iter().flatten().copied().collect();
    let all_wire: Vec<f64> = wire.iter().flatten().copied().collect();
    Values::from([
        ("serve.job.wall_ms.small", stats::median(&wall[0])),
        ("serve.job.wall_ms.medium", stats::median(&wall[1])),
        ("serve.job.p99_ms", stats::percentile(&all_wall, 99.0)),
        ("serve.job.queue_ms", mean(&queue)),
        ("serve.job.exec_ms", mean(&exec)),
        ("serve.wire.self_ms", mean(&all_wire)),
        ("serve.wire.self_ms.small", mean(&wire[0])),
        ("serve.wire.self_ms.medium", mean(&wire[1])),
    ])
}

/// Everything the workload's own run says about its layers.
pub fn from_run(r: &RunResult) -> Values {
    let mut v = layer_shares(&r.spans[..r.primary_spans]);
    let untraced = stats::ops_per_s(r.ops_per_block.0, &r.primary.block_wall_s());
    let traced = stats::ops_per_s(r.ops_per_block.0, &r.primary_traced.block_wall_s());
    v.insert("trace.overhead_share", 1.0 - traced / untraced);
    let sim = &r.sim;
    v.insert("vm.sim.instructions", sim.instructions as f64);
    v.insert("vm.sim.cycles", sim.det_cycles as f64);
    v.insert("vm.sim.lock_acquires", sim.lock_acquires as f64);
    v.insert("vm.sim.barrier_waits", sim.barrier_waits as f64);
    v.insert(
        "vm.sim.wait_cycle_share",
        sim.wait_cycles as f64 / (sim.wait_cycles + sim.busy_cycles) as f64,
    );
    v.insert(
        "vm.sim.tick_share",
        sim.ticks_executed as f64 / sim.instructions as f64,
    );
    v.insert("vm.sim.lock_clock_bumps", sim.lock_clock_bumps as f64);
    v.insert(
        "vm.sim.clocks_only_overhead_pct",
        sim.clocks_only_overhead_pct(),
    );
    v.extend(r.layer_counts.iter().copied());
    if r.spans.iter().any(|s| s.name.starts_with("serve.request.")) {
        v.extend(serve_job_metrics(
            &r.spans[..r.primary_spans],
            r.primary_traced.mean_speed(),
        ));
    }
    v
}

enum Limit {
    AtLeast(f64),
    AtMost(f64),
    /// Printed, not asserted.
    Reported,
}

struct Check {
    what: &'static str,
    value: f64,
    limit: Limit,
}

/// The layer-isolation table of `workload`, as text; records the number of
/// violated assertions as `isolation.failed`. `quick` runs print the table
/// but assert nothing (one block is not a measurement).
pub fn isolation_table(workload: &str, v: &mut Values, quick: bool) -> String {
    let get = |k: &str| v[k];
    let checks = match workload {
        "compile" => vec![Check {
            what: "ir + passes self time / op time",
            value: get("trace.share.ir") + get("trace.share.passes"),
            limit: Limit::AtLeast(0.7),
        }],
        "vm_compute" => vec![
            Check {
                what: "vm.exec self time / op time",
                value: get("trace.share.vm_exec"),
                limit: Limit::AtLeast(0.8),
            },
            Check {
                what: "arbiter share (Det - ClocksOnly) / Det",
                value: get("vm.arbiter.share.vm_compute"),
                limit: Limit::AtMost(0.15),
            },
        ],
        "vm_sync" => vec![Check {
            what: "arbiter share (Det - ClocksOnly) / Det",
            value: get("vm.arbiter.share.vm_sync"),
            limit: Limit::AtLeast(0.5),
        }],
        "serve_closed" => {
            let class = |wall: &str, wire: &str| (get(wall) - get(wire), get(wire));
            let (small_in, small_wire) =
                class("serve.job.wall_ms.small", "serve.wire.self_ms.small");
            let (medium_in, medium_wire) =
                class("serve.job.wall_ms.medium", "serve.wire.self_ms.medium");
            vec![
                Check {
                    what: "small: queue + exec ms (median wall - wire)",
                    value: small_in,
                    limit: Limit::Reported,
                },
                Check {
                    what: "small: wire self ms",
                    value: small_wire,
                    limit: Limit::Reported,
                },
                Check {
                    what: "medium: queue + exec ms (median wall - wire)",
                    value: medium_in,
                    limit: Limit::Reported,
                },
                Check {
                    what: "medium: wire self ms",
                    value: medium_wire,
                    limit: Limit::Reported,
                },
            ]
        }
        other => panic!("no isolation table for workload {other}"),
    };
    let mut failed = 0;
    let mut out = format!("layer isolation — {workload}\n");
    for c in &checks {
        let (ok, rule) = match c.limit {
            Limit::Reported => (true, "reported".to_string()),
            Limit::AtLeast(x) => (c.value >= x, format!(">= {x}")),
            Limit::AtMost(x) => (c.value <= x, format!("<= {x}")),
        };
        let verdict = match (&c.limit, quick, ok) {
            (Limit::Reported, ..) => rule,
            (_, true, _) => format!("{rule} unchecked (quick)"),
            (_, false, true) => format!("{rule} ok"),
            (_, false, false) => {
                failed += 1;
                format!("{rule} FAILED")
            }
        };
        let _ = writeln!(out, "  {:<46} {:>10.4}  {verdict}", c.what, c.value);
    }
    v.insert("isolation.failed", f64::from(failed));
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
    fn shares_split_op_time_by_layer_and_sum_to_one() {
        let spans = vec![
            span("op", 0, 1000, None),
            span("ir.parse", 0, 300, Some(0)),
            span("ir.verify", 300, 400, Some(0)),
            span("passes.instrument", 400, 800, Some(0)),
            span("vm.lower", 800, 950, Some(0)),
        ];
        let s = layer_shares(&spans);
        assert!((s["trace.share.ir"] - 0.4).abs() < 1e-12);
        assert!((s["trace.share.passes"] - 0.4).abs() < 1e-12);
        assert!((s["trace.share.vm_lower"] - 0.15).abs() < 1e-12);
        assert!((s["trace.share.bench"] - 0.05).abs() < 1e-12);
        assert!((s.values().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s["trace.share.serve_wire"], 0.0);
    }

    #[test]
    fn serve_metrics_take_wire_as_request_self_time() {
        let ms = 1_000_000;
        let spans = vec![
            span("op", 0, 10 * ms, None),
            span("serve.request.small", 0, 10 * ms, Some(0)),
            span("serve.queue", 0, 4 * ms, Some(1)),
            span("serve.exec", 4 * ms, 9 * ms, Some(1)),
            span("op", 0, 30 * ms, None),
            span("serve.request.medium", 0, 30 * ms, Some(4)),
            span("serve.queue", 0, 8 * ms, Some(5)),
            span("serve.exec", 8 * ms, 28 * ms, Some(5)),
        ];
        let v = serve_job_metrics(&spans, 1.0);
        assert_eq!(v["serve.job.wall_ms.small"], 10.0);
        assert_eq!(v["serve.job.wall_ms.medium"], 30.0);
        assert_eq!(v["serve.wire.self_ms.small"], 1.0);
        assert_eq!(v["serve.wire.self_ms.medium"], 2.0);
        assert_eq!(v["serve.job.queue_ms"], 6.0);
        assert_eq!(v["serve.job.exec_ms"], 12.5);
        assert_eq!(v["serve.wire.self_ms"], 1.5);
    }

    #[test]
    fn isolation_assertions_count_violations() {
        let mut v = Values::from([("trace.share.ir", 0.3), ("trace.share.passes", 0.5)]);
        let table = isolation_table("compile", &mut v, false);
        assert!(table.contains("ok"), "{table}");
        assert_eq!(v["isolation.failed"], 0.0);

        let mut v = Values::from([
            ("trace.share.vm_exec", 0.7),
            ("vm.arbiter.share.vm_compute", 0.2),
        ]);
        let table = isolation_table("vm_compute", &mut v, false);
        assert_eq!(table.matches("FAILED").count(), 2, "{table}");
        assert_eq!(v["isolation.failed"], 2.0);
        // A quick run reports the same numbers and asserts nothing.
        isolation_table("vm_compute", &mut v, true);
        assert_eq!(v["isolation.failed"], 0.0);
    }
}
