//! Regression tests pinning the *shapes* of the paper's results — who wins,
//! in which direction each optimization moves each benchmark, where the
//! DetLock/Kendo crossover falls. Absolute percentages live in
//! EXPERIMENTS.md; these tests keep the qualitative claims from regressing.
//! They are claims about the paper's reference arbitration, Kendo
//! min-clock turns, which is the policy `MachineConfig::default()` holds.

use detlock_bench::{
    instrumented, machine_config, run_baseline, run_benchmark, run_kendo, run_level, thread_specs,
};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_vm::machine::ExecMode;
use detlock_workloads::by_name;

const SCALE: f64 = 0.1;

#[test]
fn water_shape_o2_o4_help_o1_o3_dont() {
    let w = by_name("water-nsq", 4, SCALE).unwrap();
    let cost = CostModel::default();
    let r = run_benchmark(&w, &cost, 1);
    let clk = |l| r.level(l).clocks_pct;
    // Highest unoptimized clock overhead of all benchmarks (paper: 43%).
    assert!(clk(OptLevel::None) > 30.0, "{}", clk(OptLevel::None));
    // O1 and O3 are inert (no calls; imbalanced arms).
    assert!((clk(OptLevel::O1) - clk(OptLevel::None)).abs() < 3.0);
    assert!((clk(OptLevel::O3) - clk(OptLevel::None)).abs() < 3.0);
    // O2 and O4 each cut the overhead substantially.
    assert!(clk(OptLevel::O2) < clk(OptLevel::None) - 10.0);
    assert!(clk(OptLevel::O4) < clk(OptLevel::None) - 5.0);
    // All ≈ O2's level (paper: 20 vs 23).
    assert!(clk(OptLevel::All) <= clk(OptLevel::O2) + 2.0);
    // Deterministic execution adds almost nothing (paper: +1 point).
    let det_extra = r.level(OptLevel::All).det_pct - clk(OptLevel::All);
    assert!(det_extra < 6.0, "water det extra: {det_extra}");
}

#[test]
fn radiosity_shape_highest_det_overhead_o1_strongest() {
    let w = by_name("radiosity", 4, SCALE).unwrap();
    let cost = CostModel::default();
    let r = run_benchmark(&w, &cost, 1);
    let clk = |l| r.level(l).clocks_pct;
    let det = |l| r.level(l).det_pct;
    // Clockable functions near the paper's 39.
    assert!(
        (30..=46).contains(&r.clockable_functions),
        "{}",
        r.clockable_functions
    );
    // Very high lock frequency (paper: 2.2M/s).
    let locks_per_sec = r.baseline.locks_per_sec();
    assert!(locks_per_sec > 1.0e6, "{locks_per_sec}");
    // Unoptimized clock overhead is large; O1 cuts it the most, O4 the
    // least; All is the smallest.
    assert!(clk(OptLevel::None) > 25.0);
    assert!(clk(OptLevel::O1) < clk(OptLevel::O2));
    assert!(clk(OptLevel::O4) > clk(OptLevel::O2));
    assert!(clk(OptLevel::All) < clk(OptLevel::O1) + 2.0);
    // Deterministic execution overhead is the largest of all benchmarks and
    // O1 reduces it far more than O2/O4 do (ahead-of-time clocking, §V-B).
    assert!(det(OptLevel::None) > det(OptLevel::O1) + 10.0);
    assert!(det(OptLevel::O2) > det(OptLevel::O1));
    assert!(det(OptLevel::O4) > det(OptLevel::O1));
    assert!(det(OptLevel::All) < det(OptLevel::None) * 0.6);
}

#[test]
fn ocean_shape_negligible_overheads() {
    let w = by_name("ocean", 4, SCALE).unwrap();
    let cost = CostModel::default();
    let r = run_benchmark(&w, &cost, 1);
    for l in &r.levels {
        assert!(l.clocks_pct < 5.0, "{:?}: {}", l.level, l.clocks_pct);
        assert!(l.det_pct < 6.0, "{:?}: {}", l.level, l.det_pct);
    }
    // Lowest lock frequency by orders of magnitude.
    assert!(r.baseline.locks_per_sec() < 50_000.0);
}

#[test]
fn raytrace_volrend_shape_moderate() {
    let cost = CostModel::default();
    for name in ["raytrace", "volrend"] {
        let w = by_name(name, 4, SCALE).unwrap();
        let r = run_benchmark(&w, &cost, 1);
        let none = r.level(OptLevel::None).clocks_pct;
        let all = r.level(OptLevel::All).clocks_pct;
        assert!((4.0..25.0).contains(&none), "{name}: {none}");
        assert!(all < none, "{name}");
        let det_all = r.level(OptLevel::All).det_pct;
        assert!(det_all < 15.0, "{name}: {det_all}");
    }
}

#[test]
fn table2_crossover_detlock_beats_kendo_on_radiosity_loses_on_water() {
    let cost = CostModel::default();
    let chunks = [256, 1024, 4096];

    // DetLock's all-opts det overhead on its dataset; Kendo's best chunk
    // on Kendo's own dataset.
    let compare = |name: &str| {
        let w = by_name(name, 4, SCALE).unwrap();
        let base = run_baseline(&w, &cost, 1);
        let detlock_pct = run_level(&w, &cost, 1, &base, OptLevel::All, Placement::Start).det_pct;
        let kw = detlock_workloads::kendo_dataset(name, 4, SCALE).unwrap();
        (detlock_pct, run_kendo(&kw, &cost, 1, &chunks).pct)
    };

    let (detlock_pct, kendo_pct) = compare("radiosity");
    assert!(
        detlock_pct < kendo_pct,
        "radiosity: DetLock ({detlock_pct:.1}) must beat Kendo ({kendo_pct:.1}) at high lock rates",
    );

    let (detlock_pct, kendo_pct) = compare("water-nsq");
    assert!(
        kendo_pct < detlock_pct,
        "water-nsq: Kendo ({kendo_pct:.1}) must beat DetLock ({detlock_pct:.1}) — its hot loop \
         forces clock updates DetLock cannot remove",
    );
}

#[test]
fn fig15_shape_start_placement_beats_end_beats_nothing() {
    let w = by_name("radiosity", 4, 0.15).unwrap();
    let cost = CostModel::default();
    let base = run_baseline(&w, &cost, 1);
    let go = |level, placement| run_level(&w, &cost, 1, &base, level, placement);
    let none = go(OptLevel::None, Placement::Start);
    let o1_end = go(OptLevel::O1, Placement::End);
    let o1_start = go(OptLevel::O1, Placement::Start);
    // Paper Figure 15 ordering: no-opt worst, O1-end middle, O1-start best.
    assert!(
        o1_start.det_pct < o1_end.det_pct,
        "ahead-of-time (start) placement must cut deterministic overhead: \
         start {:.1} vs end {:.1}",
        o1_start.det_pct,
        o1_end.det_pct
    );
    assert!(
        o1_start.det_pct < none.det_pct,
        "O1+start must beat no optimization"
    );
    // The clocks-only portion is placement-independent.
    assert!((o1_start.clocks_pct - o1_end.clocks_pct).abs() < 2.0);
}

#[test]
fn locks_per_sec_spread_matches_paper_ordering() {
    // Paper Table I ordering: radiosity ≫ volrend > raytrace > water ≫ ocean.
    let cost = CostModel::default();
    let rate = |name: &str| {
        let w = by_name(name, 4, SCALE).unwrap();
        run_baseline(&w, &cost, 1).locks_per_sec()
    };
    let radiosity = rate("radiosity");
    let volrend = rate("volrend");
    let raytrace = rate("raytrace");
    let water = rate("water-nsq");
    let ocean = rate("ocean");
    assert!(radiosity > volrend, "{radiosity} vs {volrend}");
    assert!(volrend > raytrace, "{volrend} vs {raytrace}");
    assert!(raytrace > water, "{raytrace} vs {water}");
    assert!(water > ocean * 3.0, "{water} vs {ocean}");
}

#[test]
fn kendo_mode_also_deterministic_on_workloads() {
    // Table II's comparison is only fair if the simulated Kendo is itself
    // deterministic.
    let cost = CostModel::default();
    let w = by_name("radiosity", 4, 0.05).unwrap();
    let specs = thread_specs(&w);
    let mut cfg = machine_config(&w, ExecMode::Kendo, 0);
    cfg.scheduler = detlock_vm::Sched::Chunk(Default::default());
    let report =
        detlock_vm::determinism::check_determinism(&w.module, &cost, &specs, &cfg, &[1, 5, 23]);
    assert!(!report.any_hit_limit);
    assert!(report.deterministic, "{:x?}", report.hashes);
}

#[test]
fn clocks_only_never_deterministic_claim_is_not_made() {
    // Sanity that instrumentation alone does NOT give determinism — the
    // runtime arbitration is load-bearing.
    let cost = CostModel::default();
    let w = by_name("radiosity", 4, 0.05).unwrap();
    let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
    let specs = thread_specs(&w);
    let report = detlock_vm::determinism::check_determinism(
        &inst.module,
        &cost,
        &specs,
        &machine_config(&w, ExecMode::ClocksOnly, 0),
        &[1, 5, 23, 99],
    );
    assert!(
        !report.deterministic,
        "clocks-only mode should remain timing-dependent"
    );
}

#[test]
fn det_overhead_grows_with_core_count() {
    // Extension shape (scaling binary): deterministic-execution overhead
    // rises with thread count — more clocks to pass, higher aggregate lock
    // rate — while instrumentation overhead stays flat.
    let cost = CostModel::default();
    let measure = |threads: usize| -> (f64, f64) {
        let w = by_name("radiosity", threads, 0.1).unwrap();
        let base = run_baseline(&w, &cost, 1);
        let l = run_level(&w, &cost, 1, &base, OptLevel::All, Placement::Start);
        (l.clocks_pct, l.det_pct)
    };
    let (clk2, det2) = measure(2);
    let (clk8, det8) = measure(8);
    assert!(
        (clk2 - clk8).abs() < 4.0,
        "clock overhead ~flat: {clk2} vs {clk8}"
    );
    assert!(
        det8 > det2 + 3.0,
        "det overhead must grow with cores: {det2} -> {det8}"
    );
}
