//! End-to-end pipeline on the Radiosity workload: generate the IR, run the
//! DetLock pass at each optimization level, execute on the simulated
//! quad-core, and print the overhead/diagnostics the paper reports for its
//! hardest benchmark — including the run-to-run determinism check, which
//! exits 1 if it fails.
//!
//! ```text
//! cargo run --release --example radiosity_sim [scale]
//! ```

use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use detlock_shim::acq::first_divergence;
use detlock_vm::machine::{run, ExecMode, Jitter, MachineConfig, ThreadSpec};
use detlock_vm::RunMetrics;
use detlock_workloads::radiosity::{build, RadiosityParams};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("scale must be a float"))
        .unwrap_or(0.2);
    let threads = 4;
    let w = build(threads, &RadiosityParams::scaled(scale));
    let cost = CostModel::default();
    let specs: Vec<ThreadSpec> = w
        .threads
        .iter()
        .map(|t| ThreadSpec {
            func: t.func,
            args: t.args.clone(),
        })
        .collect();
    let cfg = |mode| MachineConfig {
        mode,
        mem_words: w.mem_words,
        jitter: Jitter::default(),
        ..MachineConfig::default()
    };

    println!("radiosity @ scale {scale}, {threads} simulated cores\n");
    let (base, hit) = run(&w.module, &cost, &specs, cfg(ExecMode::Baseline));
    assert!(!hit);
    println!(
        "baseline: {} cycles ({:.3} simulated ms), {} lock acquisitions, {:.0} locks/sec",
        base.cycles,
        base.seconds() * 1e3,
        base.lock_acquires(),
        base.locks_per_sec()
    );

    println!(
        "\n{:<48}{:>10}{:>10}{:>12}{:>10}",
        "configuration", "clocks", "det", "ticks", "clockable"
    );
    for level in OptLevel::table1_rows() {
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::only(level),
            Placement::Start,
            &w.entries,
        );
        let (clk, h1) = run(&inst.module, &cost, &specs, cfg(ExecMode::ClocksOnly));
        let (det, h2) = run(&inst.module, &cost, &specs, cfg(ExecMode::Det));
        assert!(!h1 && !h2);
        println!(
            "{:<48}{:>9.1}%{:>9.1}%{:>12}{:>10}",
            level.label(),
            clk.overhead_pct(&base),
            det.overhead_pct(&base),
            inst.stats.ticks_inserted,
            inst.stats.clockable_functions
        );
    }

    // Weak determinism: identical lock order across timing seeds.
    let inst = instrument(
        &w.module,
        &cost,
        &OptConfig::all(),
        Placement::Start,
        &w.entries,
    );
    let seeds = [1, 7, 42, 1234];
    let orders = |module: &Module, mode| {
        seeds.map(|seed| {
            let mut cfg = cfg(mode);
            cfg.jitter = cfg.jitter.with_seed(seed);
            let (m, hit) = run(module, &cost, &specs, cfg);
            assert!(!hit);
            m
        })
    };
    // The first acquisition at which a seed's run departs from the first
    // seed's, if any: past the recorded prefix when only the hashes differ.
    let divergence = |runs: &[RunMetrics]| {
        runs[1..].iter().find_map(|m| {
            let differs = m.lock_order_hash != runs[0].lock_order_hash;
            first_divergence(&runs[0].lock_order, &m.lock_order)
                .or(differs.then_some(m.lock_order.len()))
        })
    };
    let det = orders(&inst.module, ExecMode::Det);
    let split = divergence(&det);
    match split {
        None => println!(
            "\ndeterminism across 4 timing seeds: PASS (order hash {:#018x})",
            det[0].lock_order_hash
        ),
        Some(i) => println!("\ndeterminism across 4 timing seeds: FAIL at acquisition {i}"),
    }
    let base = orders(&w.module, ExecMode::Baseline);
    println!(
        "baseline (nondeterministic) orders across the same seeds differ: {}",
        divergence(&base).is_some()
    );
    if split.is_some() {
        std::process::exit(1);
    }
}
