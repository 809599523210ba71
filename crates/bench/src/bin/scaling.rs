//! Extension experiment (not in the paper): how DetLock's overheads scale
//! with core count. The paper measures 4 cores; Kendo's own evaluation
//! swept 2–8, so this harness does the same for the radiosity (hardest)
//! and raytrace (moderate) workloads.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin scaling [--scale F] [--json] [--out FILE]
//! ```

use detlock_bench::{instrumented, run_baseline, run_clocks_then_det};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_shim::json::{Json, ToJson};

fn main() {
    let opts = detlock_bench::CliOptions::parse();
    let scale = opts.scale_or(0.3);
    let cost = CostModel::default();
    let mut rows: Vec<Json> = Vec::new();

    if !opts.json {
        println!(
            "{:<12}{:>8}{:>14}{:>12}{:>12}{:>14}",
            "benchmark", "threads", "baseline ms", "clocks %", "det %", "locks/sec"
        );
    }
    for name in ["radiosity", "raytrace"] {
        for threads in [1usize, 2, 4, 8] {
            let w = detlock_workloads::by_name(name, threads, scale).unwrap();
            let base = run_baseline(&w, &cost, opts.seed);
            let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
            let (clk, det) = run_clocks_then_det(&w, &inst.module, &cost, opts.seed);
            if !opts.json {
                println!(
                    "{:<12}{:>8}{:>14.3}{:>11.1}%{:>11.1}%{:>14.0}",
                    name,
                    threads,
                    base.seconds() * 1e3,
                    clk.overhead_pct(&base),
                    det.overhead_pct(&base),
                    base.locks_per_sec()
                );
            }
            rows.push(Json::obj([
                ("name", name.to_json()),
                ("threads", threads.to_json()),
                ("baseline_ms", (base.seconds() * 1e3).to_json()),
                ("clocks_pct", clk.overhead_pct(&base).to_json()),
                ("det_pct", det.overhead_pct(&base).to_json()),
                ("locks_per_sec", base.locks_per_sec().to_json()),
            ]));
        }
    }
    opts.emit_json(&Json::Arr(rows));
}
