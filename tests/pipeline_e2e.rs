//! End-to-end integration: workload generation → instrumentation → VM, and
//! the cross-mode invariants every configuration must satisfy.

use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use detlock_vm::machine::{run, ExecMode, Jitter, MachineConfig, ThreadSpec};
use detlock_workloads::{all_benchmarks, Workload};

fn specs(w: &Workload) -> Vec<ThreadSpec> {
    w.threads
        .iter()
        .map(|t| ThreadSpec {
            func: t.func,
            args: t.args.clone(),
        })
        .collect()
}

fn cfg(w: &Workload, mode: ExecMode) -> MachineConfig {
    MachineConfig {
        mode,
        mem_words: w.mem_words,
        jitter: Jitter::default(),
        max_cycles: 2_000_000_000,
        ..MachineConfig::default()
    }
}

#[test]
fn every_workload_and_level_verifies_and_runs() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        for level in OptLevel::table1_rows() {
            let inst = instrument(
                &w.module,
                &cost,
                &OptConfig::only(level),
                Placement::Start,
                &w.entries,
            );
            detlock_ir::verify::verify_module(&inst.module)
                .unwrap_or_else(|e| panic!("{} {:?}: {:?}", w.name, level, e));
            let (_, hit) = run(&inst.module, &cost, &specs(&w), cfg(&w, ExecMode::Det));
            assert!(!hit, "{} {:?} hit cycle limit", w.name, level);
        }
    }
}

#[test]
fn mode_ordering_invariants() {
    // For every workload: baseline ≤ clocks-only ≤ (roughly) det, and more
    // optimization never makes clocks-only slower than no-opt.
    let cost = CostModel::default();
    for w in all_benchmarks(4, 0.05) {
        let (base, _) = run(&w.module, &cost, &specs(&w), cfg(&w, ExecMode::Baseline));
        let none = instrument(
            &w.module,
            &cost,
            &OptConfig::none(),
            Placement::Start,
            &w.entries,
        );
        let all = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let (clk_none, _) = run(
            &none.module,
            &cost,
            &specs(&w),
            cfg(&w, ExecMode::ClocksOnly),
        );
        let (clk_all, _) = run(
            &all.module,
            &cost,
            &specs(&w),
            cfg(&w, ExecMode::ClocksOnly),
        );
        let (det_all, _) = run(&all.module, &cost, &specs(&w), cfg(&w, ExecMode::Det));

        assert!(
            clk_none.cycles >= base.cycles,
            "{}: instrumentation cannot be free",
            w.name
        );
        assert!(
            clk_all.cycles <= clk_none.cycles,
            "{}: all-opts must not insert more overhead than no-opt ({} vs {})",
            w.name,
            clk_all.cycles,
            clk_none.cycles
        );
        // Deterministic execution adds waiting on top of instrumentation.
        // Allow a tiny tolerance: scheduling differences can make det
        // marginally faster on nearly-lock-free workloads.
        assert!(
            det_all.cycles as f64 >= clk_all.cycles as f64 * 0.99,
            "{}: det should not be faster than clocks-only",
            w.name
        );
    }
}

#[test]
fn tick_counts_decrease_monotonically_with_all_opts() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        let count = |level| {
            instrument(
                &w.module,
                &cost,
                &OptConfig::only(level),
                Placement::Start,
                &w.entries,
            )
            .stats
            .ticks_inserted
        };
        let none = count(OptLevel::None);
        let all = count(OptLevel::All);
        assert!(all <= none, "{}: {} vs {}", w.name, all, none);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3, OptLevel::O4] {
            assert!(
                count(level) <= none,
                "{}: single opt {:?} increased ticks",
                w.name,
                level
            );
        }
    }
}

#[test]
fn baseline_work_is_mode_independent() {
    // The committed application work (retired stores) must be identical in
    // baseline and clocks-only modes with identical jitter: ticks are
    // observation, not behaviour.
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let (base, _) = run(&inst.module, &cost, &specs(&w), cfg(&w, ExecMode::Baseline));
        let (clk, _) = run(
            &inst.module,
            &cost,
            &specs(&w),
            cfg(&w, ExecMode::ClocksOnly),
        );
        let stores = |m: &detlock_vm::RunMetrics| -> u64 {
            m.per_thread.iter().map(|t| t.retired_stores).sum()
        };
        assert_eq!(stores(&base), stores(&clk), "{}", w.name);
    }
}

#[test]
fn placement_changes_timing_not_clock_totals() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        let s = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let e = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::End,
            &w.entries,
        );
        assert_eq!(
            s.stats.ticks_inserted, e.stats.ticks_inserted,
            "{}: placement must not change tick count",
            w.name
        );
        assert_eq!(
            s.stats.static_clock_mass, e.stats.static_clock_mass,
            "{}: placement must not change clock mass",
            w.name
        );
    }
}
