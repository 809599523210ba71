//! Regenerates the paper's **Figure 14**: for each benchmark, two stacked
//! bars — unoptimized vs all-optimizations — where the lower stack is the
//! clock-insertion overhead and the upper stack the additional cost of
//! deterministic execution.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin fig14 [--scale F] [--json]
//! ```

use detlock_bench::{instrumented, run_baseline, run_clocks_then_det, CliOptions};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_shim::json::{Json, ToJson};

struct Bar {
    name: String,
    config: &'static str,
    clocks_pct: f64,
    det_extra_pct: f64,
    total_pct: f64,
}

impl ToJson for Bar {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("config", self.config.to_json()),
            ("clocks_pct", self.clocks_pct.to_json()),
            ("det_extra_pct", self.det_extra_pct.to_json()),
            ("total_pct", self.total_pct.to_json()),
        ])
    }
}

fn main() {
    let opts = CliOptions::parse();
    let cost = CostModel::default();
    let mut bars: Vec<Bar> = Vec::new();

    for w in opts.workloads() {
        eprintln!("running {} ...", w.name);
        let base = run_baseline(&w, &cost, opts.seed);
        for (level, label) in [(OptLevel::None, "no-opt"), (OptLevel::All, "all-opts")] {
            let inst = instrumented(&w, &cost, level, Placement::Start);
            let (clk, det) = run_clocks_then_det(&w, &inst.module, &cost, opts.seed);
            let clocks_pct = clk.overhead_pct(&base);
            let total_pct = det.overhead_pct(&base);
            bars.push(Bar {
                name: w.name.to_string(),
                config: label,
                clocks_pct,
                det_extra_pct: total_pct - clocks_pct,
                total_pct,
            });
        }
    }

    opts.emit_json(&bars.to_json());
    if opts.json {
        return;
    }

    println!("Figure 14: overhead of inserting clocks (lower stack) and of");
    println!("deterministic execution (upper stack), unoptimized vs all opts\n");
    let max = bars.iter().map(|b| b.total_pct).fold(1.0, f64::max);
    for b in &bars {
        let clocks_w = ((b.clocks_pct / max) * 50.0).round().max(0.0) as usize;
        let det_w = ((b.det_extra_pct / max) * 50.0).round().max(0.0) as usize;
        println!(
            "{:>10} {:>8}  [{}{}] {:5.1}% = {:4.1}% clocks + {:4.1}% det",
            b.name,
            b.config,
            "#".repeat(clocks_w),
            "+".repeat(det_w),
            b.total_pct,
            b.clocks_pct,
            b.det_extra_pct
        );
    }
}
