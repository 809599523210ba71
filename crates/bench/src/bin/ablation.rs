//! Ablation studies for the design choices DESIGN.md calls out — beyond the
//! paper's own tables:
//!
//! 1. **O2a vs O2b** — the paper reports O2 as one number; here the precise
//!    and approximate halves are separated.
//! 2. **Clockability thresholds** — sensitivity of O1 to the paper's
//!    `mean/2.5` range and `mean/5` σ rules.
//! 3. **O4 latch threshold** — sweep of the "certain threshold value".
//! 4. **O2b divergence bound** — sweep of the 1/10 rule.
//! 5. **Deterministic protocol cost** — how Table I's deterministic rows
//!    scale with the per-event arbitration cost the simulator charges.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin ablation [--scale F] [--only NAME] [--json] [--out FILE]
//! ```
//!
//! Every number in the `--json` report is a simulated count, so two runs
//! at the same `{threads, scale, seed}` header are byte-identical and CI
//! diffs the report against `ci/baselines/BENCH_passes.json`. Wall times
//! appear only in the text pass table: what a change costs in time is the
//! repo benchmark's to say (`benchmark/`).

use detlock_bench::{
    kendo_sweep, machine_config, run_baseline, run_clocks_then_det, thread_specs, CliOptions,
};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig};
use detlock_passes::plan::Placement;
use detlock_shim::json::{Json, ToJson};
use detlock_vm::machine::{run, ExecMode};
use detlock_vm::{ChunkParams, Sched};
use detlock_workloads::Workload;

fn overheads(w: &Workload, cost: &CostModel, cfg: &OptConfig, seed: u64) -> (f64, f64, usize) {
    let base = run_baseline(w, cost, seed);
    let inst = instrument(&w.module, cost, cfg, Placement::Start, &w.entries);
    let (clk, det) = run_clocks_then_det(w, &inst.module, cost, seed);
    (
        clk.overhead_pct(&base),
        det.overhead_pct(&base),
        inst.stats.ticks_inserted,
    )
}

fn main() {
    let opts = CliOptions::parse();
    // Ablation sweeps re-run every workload dozens of times; default to a
    // reduced dataset unless `--scale` was given explicitly.
    let scale = opts.scale_or(0.2);
    let threads = opts.threads_or(4);
    let cost = CostModel::default();
    let text = !opts.json;

    // 1. O2a vs O2b separation.
    if text {
        println!("== O2a vs O2b (paper reports them jointly as O2) ==");
        println!(
            "{:<12}{:>14}{:>14}{:>14}{:>14}",
            "benchmark", "none clk%", "O2a-only clk%", "O2b adds", "O2 full clk%"
        );
    }
    let mut o2_rows: Vec<Json> = Vec::new();
    for w in opts.workloads_at(threads, scale) {
        let none = overheads(&w, &cost, &OptConfig::none(), opts.seed);
        let mut only2a = OptConfig::none();
        only2a.o2 = true;
        only2a.opt2b.max_divergence = 0.0; // disables the approximate half
        let a = overheads(&w, &cost, &only2a, opts.seed);
        let mut full2 = OptConfig::none();
        full2.o2 = true;
        let f = overheads(&w, &cost, &full2, opts.seed);
        if text {
            println!(
                "{:<12}{:>13.1}%{:>13.1}%{:>13.1}%{:>13.1}%",
                w.name,
                none.0,
                a.0,
                f.0 - a.0,
                f.0
            );
        }
        o2_rows.push(Json::obj([
            ("name", w.name.to_json()),
            ("none_clk_pct", none.0.to_json()),
            ("o2a_only_clk_pct", a.0.to_json()),
            ("o2_full_clk_pct", f.0.to_json()),
        ]));
    }

    // 2. Clockability thresholds (radiosity is the sensitive benchmark).
    if text {
        println!("\n== O1 clockability thresholds (radiosity) ==");
        println!(
            "{:<24}{:>12}{:>12}{:>12}",
            "range_div/std_div", "clockable", "clk%", "det%"
        );
    }
    let mut o1_rows: Vec<Json> = Vec::new();
    if let Some(w) = detlock_workloads::by_name("radiosity", threads, scale) {
        for (rd, sd) in [
            (1.0, 10.0),
            (2.5, 5.0),
            (5.0, 2.5),
            (10.0, 1.0),
            (100.0, 0.01),
        ] {
            let mut cfg = OptConfig::none();
            cfg.o1 = true;
            cfg.clockable.range_divisor = rd;
            cfg.clockable.std_divisor = sd;
            let inst = instrument(&w.module, &cost, &cfg, Placement::Start, &w.entries);
            let (clk, det, _) = overheads(&w, &cost, &cfg, opts.seed);
            if text {
                println!(
                    "{:<24}{:>12}{:>11.1}%{:>11.1}%",
                    format!("{rd}/{sd}"),
                    inst.stats.clockable_functions,
                    clk,
                    det
                );
            }
            o1_rows.push(Json::obj([
                ("range_divisor", rd.to_json()),
                ("std_divisor", sd.to_json()),
                ("clockable", inst.stats.clockable_functions.to_json()),
                ("clk_pct", clk.to_json()),
                ("det_pct", det.to_json()),
            ]));
        }
    }

    // 3. O4 latch threshold (water is the sensitive benchmark).
    if text {
        println!("\n== O4 latch threshold (water-nsq) ==");
        println!("{:<12}{:>12}{:>12}", "threshold", "ticks", "clk%");
    }
    let mut o4_rows: Vec<Json> = Vec::new();
    if let Some(w) = detlock_workloads::by_name("water-nsq", threads, scale) {
        for thr in [0u64, 4, 8, 16, 64, 1024] {
            let mut cfg = OptConfig::none();
            cfg.o4 = true;
            cfg.opt4.threshold = thr;
            let (clk, _, ticks) = overheads(&w, &cost, &cfg, opts.seed);
            if text {
                println!("{:<12}{:>12}{:>11.1}%", thr, ticks, clk);
            }
            o4_rows.push(Json::obj([
                ("threshold", thr.to_json()),
                ("ticks", ticks.to_json()),
                ("clk_pct", clk.to_json()),
            ]));
        }
    }

    // 4. O2b divergence bound.
    if text {
        println!("\n== O2b divergence bound (volrend) ==");
        println!("{:<12}{:>12}{:>12}", "bound", "ticks", "clk%");
    }
    let mut o2b_rows: Vec<Json> = Vec::new();
    if let Some(w) = detlock_workloads::by_name("volrend", threads, scale) {
        for bound in [0.0, 0.02, 0.1, 0.5] {
            let mut cfg = OptConfig::none();
            cfg.o2 = true;
            cfg.opt2b.max_divergence = bound;
            let (clk, _, ticks) = overheads(&w, &cost, &cfg, opts.seed);
            if text {
                println!("{:<12}{:>12}{:>11.1}%", bound, ticks, clk);
            }
            o2b_rows.push(Json::obj([
                ("bound", bound.to_json()),
                ("ticks", ticks.to_json()),
                ("clk_pct", clk.to_json()),
            ]));
        }
    }

    // 5b. Kendo chunk-size balance (paper §V-C: "It also has to balance
    // the chunk size ... For Radiosity, the authors of Kendo had to
    // manually adjust the chunk size").
    if text {
        println!("\n== Kendo chunk-size balance ==");
        println!(
            "{:<12}{:>10}{:>14}{:>14}",
            "benchmark", "chunk", "kendo det%", ""
        );
    }
    let mut kendo_rows: Vec<Json> = Vec::new();
    for name in ["radiosity", "water-nsq"] {
        if let Some(w) = detlock_workloads::kendo_dataset(name, threads, scale) {
            let chunks = [128u64, 512, 2048, 8192, 32768];
            let (_, pcts) = kendo_sweep(&w, &cost, opts.seed, &chunks);
            for (chunk, pct) in chunks.into_iter().zip(pcts) {
                if text {
                    println!("{:<12}{:>10}{:>13.1}%", name, chunk, pct);
                }
                kendo_rows.push(Json::obj([
                    ("name", name.to_json()),
                    ("chunk", chunk.to_json()),
                    ("kendo_det_pct", pct.to_json()),
                ]));
            }
        }
    }

    // 5. Deterministic protocol cost sensitivity (radiosity).
    if text {
        println!("\n== det_event_cost sensitivity (radiosity, all opts) ==");
        println!("{:<12}{:>12}", "cost", "det%");
    }
    let mut cost_rows: Vec<Json> = Vec::new();
    if let Some(w) = detlock_workloads::by_name("radiosity", threads, scale) {
        let base = run_baseline(&w, &cost, opts.seed);
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let specs = thread_specs(&w);
        for dc in [0u64, 40, 120, 400, 1200] {
            let mut mc = machine_config(&w, ExecMode::Det, opts.seed);
            mc.det_event_cost = dc;
            let (det, hit) = run(&inst.module, &cost, &specs, mc);
            assert!(!hit);
            if text {
                println!("{:<12}{:>11.1}%", dc, det.overhead_pct(&base));
            }
            cost_rows.push(Json::obj([
                ("det_event_cost", dc.to_json()),
                ("det_pct", det.overhead_pct(&base).to_json()),
            ]));
        }
    }

    // 6. Per-pass pipeline telemetry: which passes add/remove clock mass
    // (and, in the text table, where the pipeline spends its time), per
    // workload at the full configuration.
    let mut pass_rows: Vec<Json> = Vec::new();
    for w in opts.workloads_at(threads, scale) {
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        if text {
            println!("\n== pass telemetry ({}, all opts) ==", w.name);
            print!(
                "{}",
                detlock_passes::render_pass_table(&inst.stats.per_pass)
            );
            println!(
                "analysis cache: {} hits / {} misses",
                inst.stats.analysis_cache_hits, inst.stats.analysis_cache_misses
            );
        }
        let rows: Vec<Json> = inst
            .stats
            .per_pass
            .iter()
            .map(|p| {
                Json::obj([
                    ("pass", p.name.to_json()),
                    ("ticks_added", (p.ticks_added as u64).to_json()),
                    ("ticks_removed", (p.ticks_removed as u64).to_json()),
                    ("mass_moved", p.mass_moved.to_json()),
                ])
            })
            .collect();
        pass_rows.push(Json::obj([
            ("name", w.name.to_json()),
            (
                "analysis_cache_hits",
                inst.stats.analysis_cache_hits.to_json(),
            ),
            (
                "analysis_cache_misses",
                inst.stats.analysis_cache_misses.to_json(),
            ),
            ("passes", Json::Arr(rows)),
        ]));
    }

    // 7. Scheduler overhead: the same deterministic run (all opts, Det
    // mode, interpreter timing semantics) under each arbitration policy.
    // Simulated cycles differ legitimately across policies — each is
    // internally deterministic but orders contended acquires differently —
    // so this section reports per-policy cycles and the overhead factor
    // over the Kendo reference.
    if text {
        println!("\n== scheduler overhead (all opts, det mode) ==");
        println!(
            "{:<12}{:>14}{:>14}{:>14}{:>10}{:>10}",
            "benchmark", "kendo cyc", "chunk cyc", "dc-batch cyc", "chunk x", "dc x"
        );
    }
    let mut sched_rows: Vec<Json> = Vec::new();
    let (mut kendo_cyc_total, mut chunk_cyc_total, mut dc_cyc_total) = (0u64, 0u64, 0u64);
    for w in opts.workloads_at(threads, scale) {
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let specs = thread_specs(&w);
        let cycles = |sched: Sched| -> u64 {
            let mut cfg = machine_config(&w, ExecMode::Det, opts.seed);
            cfg.scheduler = sched;
            let (metrics, hit) = run(&inst.module, &cost, &specs, cfg);
            assert!(!hit, "{}: {sched} hit the cycle limit", w.name);
            metrics.cycles
        };
        let kendo = cycles(Sched::Kendo);
        let chunk = cycles(Sched::Chunk(ChunkParams::default()));
        let dc = cycles(Sched::DcBatch);
        kendo_cyc_total += kendo;
        chunk_cyc_total += chunk;
        dc_cyc_total += dc;
        let chunk_x = chunk as f64 / kendo.max(1) as f64;
        let dc_x = dc as f64 / kendo.max(1) as f64;
        if text {
            println!(
                "{:<12}{:>14}{:>14}{:>14}{:>9.2}x{:>9.2}x",
                w.name, kendo, chunk, dc, chunk_x, dc_x
            );
        }
        sched_rows.push(Json::obj([
            ("name", w.name.to_json()),
            ("kendo_cycles", kendo.to_json()),
            ("chunk_cycles", chunk.to_json()),
            ("dc_batch_cycles", dc.to_json()),
            ("chunk_overhead", chunk_x.to_json()),
            ("dc_batch_overhead", dc_x.to_json()),
        ]));
    }
    let chunk_total_x = chunk_cyc_total as f64 / kendo_cyc_total.max(1) as f64;
    let dc_total_x = dc_cyc_total as f64 / kendo_cyc_total.max(1) as f64;
    if text {
        println!(
            "{:<12}{:>14}{:>14}{:>14}{:>9.2}x{:>9.2}x",
            "TOTAL", kendo_cyc_total, chunk_cyc_total, dc_cyc_total, chunk_total_x, dc_total_x
        );
    }

    opts.emit_json(&Json::obj([
        (
            "header",
            Json::obj([
                ("threads", threads.to_json()),
                ("scale", scale.to_json()),
                ("seed", opts.seed.to_json()),
            ]),
        ),
        ("o2a_vs_o2b", Json::Arr(o2_rows)),
        ("o1_thresholds", Json::Arr(o1_rows)),
        ("o4_threshold", Json::Arr(o4_rows)),
        ("o2b_bound", Json::Arr(o2b_rows)),
        ("kendo_chunks", Json::Arr(kendo_rows)),
        ("det_event_cost", Json::Arr(cost_rows)),
        ("pass_telemetry", Json::Arr(pass_rows)),
        (
            "schedulers",
            Json::obj([
                ("kendo_total_cycles", kendo_cyc_total.to_json()),
                ("chunk_total_cycles", chunk_cyc_total.to_json()),
                ("dc_batch_total_cycles", dc_cyc_total.to_json()),
                ("chunk_total_overhead", chunk_total_x.to_json()),
                ("dc_batch_total_overhead", dc_total_x.to_json()),
                ("workloads", Json::Arr(sched_rows)),
            ]),
        ),
    ]));
}
