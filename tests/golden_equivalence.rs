//! Golden-equivalence suite for the instrumentation pipeline.
//!
//! `detlock_passes::pass::PassPipeline` runs the paper's compiler pass as
//! one driver. This suite holds it to a reference written out by hand — O1
//! fixpoint, split, base plan, then O2a/O2b/O3/O4 function by function,
//! materialization — from the same public building blocks: the two must
//! produce byte-identical modules, plans and certificate obligations for
//! every Table-I config × both placements × every workload, and the
//! pipeline's output must not depend on its worker count or on the plan
//! cache.

use detlock_ir::analysis::cfg::Cfg;
use detlock_ir::analysis::dom::DomTree;
use detlock_ir::analysis::loops::LoopInfo;
use detlock_ir::inst::Inst;
use detlock_ir::module::Module;
use detlock_ir::types::FuncId;
use detlock_passes::cache::PlanCache;
use detlock_passes::cert::PlanCert;
use detlock_passes::cost::CostModel;
use detlock_passes::materialize::materialize;
use detlock_passes::opt1::compute_clocked;
use detlock_passes::opt2a::apply_opt2a;
use detlock_passes::opt2b::apply_opt2b;
use detlock_passes::opt3::apply_opt3;
use detlock_passes::opt4::apply_opt4;
use detlock_passes::pipeline::Instrumented;
use detlock_passes::pipeline::{instrument, instrument_with, CompileOpts, OptConfig, OptLevel};
use detlock_passes::plan::{base_plan, split_module, ModulePlan, Placement};
use detlock_workloads::all_benchmarks;

/// The pre-refactor `instrument()` body, verbatim in structure: O1 fixpoint,
/// split, base plan, then a function-major loop applying O2a/O2b/O3/O4, then
/// materialization and `PlanCert::new`.
fn reference_instrument(
    module: &Module,
    cost: &CostModel,
    config: &OptConfig,
    placement: Placement,
    entries: &[FuncId],
) -> (Module, ModulePlan, PlanCert) {
    let clocked = if config.o1 {
        compute_clocked(module, cost, entries, &config.clockable)
    } else {
        vec![None; module.functions.len()]
    };
    let split = split_module(module, &clocked);
    let mut plans = base_plan(&split, cost, &clocked);
    let mut o2b_moved = vec![0u64; split.functions.len()];
    for (fid, func) in split.iter_funcs() {
        if clocked[fid.index()].is_some() {
            continue;
        }
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let plan = &mut plans[fid.index()];
        if config.o2 {
            apply_opt2a(&cfg, &loops, plan);
            o2b_moved[fid.index()] = apply_opt2b(&cfg, &loops, config.opt2b, plan);
        }
        if config.o3 {
            apply_opt3(&cfg, &dom, &loops, config.clockable, plan);
        }
        if config.o4 {
            apply_opt4(&cfg, &loops, config.opt4, plan);
        }
    }
    let plan = ModulePlan {
        placement,
        clocked,
        funcs: plans,
    };
    let out = materialize(&split, &plan, cost);
    let cert = PlanCert::new(config, &plan, o2b_moved);
    (out, plan, cert)
}

/// Sorted multiset of every static tick amount in the module.
fn tick_multiset(module: &Module) -> Vec<u64> {
    let mut amounts: Vec<u64> = module
        .functions
        .iter()
        .flat_map(|f| f.blocks.iter())
        .flat_map(|b| b.insts.iter())
        .filter_map(|i| match i {
            Inst::Tick { amount } => Some(*amount),
            _ => None,
        })
        .collect();
    amounts.sort_unstable();
    amounts
}

#[test]
fn pipeline_matches_reference_for_all_configs_placements_and_workloads() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        for level in OptLevel::table1_rows() {
            let config = OptConfig::only(level);
            for placement in [Placement::Start, Placement::End] {
                let got = instrument(&w.module, &cost, &config, placement, &w.entries);
                let (ref_module, ref_plan, ref_cert) =
                    reference_instrument(&w.module, &cost, &config, placement, &w.entries);
                let ctx = format!("{} / {level:?} / {placement:?}", w.name);

                // Byte-identical output module (stronger than the required
                // tick-multiset identity, which we still assert by name).
                assert_eq!(got.module, ref_module, "module mismatch: {ctx}");
                assert_eq!(
                    tick_multiset(&got.module),
                    tick_multiset(&ref_module),
                    "tick multiset mismatch: {ctx}"
                );

                // Identical plan.
                assert_eq!(got.plan.placement, ref_plan.placement, "{ctx}");
                assert_eq!(got.plan.clocked, ref_plan.clocked, "{ctx}");
                for (f, (a, b)) in got.plan.funcs.iter().zip(&ref_plan.funcs).enumerate() {
                    assert_eq!(a.block_clock, b.block_clock, "plan fn {f}: {ctx}");
                    assert_eq!(a.pinned, b.pinned, "pinned fn {f}: {ctx}");
                }

                // Identical cert obligations.
                assert_eq!(got.cert.placement, ref_cert.placement, "{ctx}");
                assert_eq!(got.cert.clocked, ref_cert.clocked, "{ctx}");
                assert_eq!(got.cert.block_clock, ref_cert.block_clock, "{ctx}");
                assert_eq!(got.cert.frac_bound, ref_cert.frac_bound, "{ctx}");
                assert_eq!(got.cert.o2b_slack, ref_cert.o2b_slack, "{ctx}");
                assert_eq!(
                    got.cert.o4_latch_threshold, ref_cert.o4_latch_threshold,
                    "{ctx}"
                );
                assert_eq!(
                    got.cert.clockable.range_divisor, ref_cert.clockable.range_divisor,
                    "{ctx}"
                );
                // The synthesized reference pass certs match the pipeline's
                // real ones — same passes, same composed deltas.
                assert_eq!(got.cert.pass_certs, ref_cert.pass_certs, "{ctx}");
            }
        }
    }
}

#[test]
fn all_and_none_configs_match_reference_too() {
    // `OptConfig::all()`/`none()` are the configs the serving path and the
    // bench default paths use; Table-I rows above cover them via
    // `only(All)`/`only(None)`, but pin the direct constructors as well.
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        for config in [OptConfig::all(), OptConfig::none()] {
            let got = instrument(&w.module, &cost, &config, Placement::Start, &w.entries);
            let (ref_module, _, ref_cert) =
                reference_instrument(&w.module, &cost, &config, Placement::Start, &w.entries);
            assert_eq!(got.module, ref_module, "{}", w.name);
            assert_eq!(got.cert.o2b_slack, ref_cert.o2b_slack, "{}", w.name);
        }
    }
}

/// Everything observable about two compiles must agree: module bytes,
/// plan, cert obligations, and the deterministic halves of the stats
/// (wall times are the only legitimate difference between a serial, a
/// parallel and a cached compile).
fn assert_compiles_identical(a: &Instrumented, b: &Instrumented, ctx: &str) {
    assert_eq!(a.module, b.module, "module mismatch: {ctx}");
    assert_eq!(a.plan.placement, b.plan.placement, "{ctx}");
    assert_eq!(a.plan.clocked, b.plan.clocked, "{ctx}");
    for (f, (pa, pb)) in a.plan.funcs.iter().zip(&b.plan.funcs).enumerate() {
        assert_eq!(pa.block_clock, pb.block_clock, "plan fn {f}: {ctx}");
        assert_eq!(pa.pinned, pb.pinned, "pinned fn {f}: {ctx}");
    }
    assert_eq!(a.cert.block_clock, b.cert.block_clock, "{ctx}");
    assert_eq!(a.cert.o2b_slack, b.cert.o2b_slack, "{ctx}");
    assert_eq!(a.cert.pass_certs, b.cert.pass_certs, "{ctx}");
    assert_eq!(a.stats.ticks_inserted, b.stats.ticks_inserted, "{ctx}");
    assert_eq!(
        a.stats.analysis_cache_hits, b.stats.analysis_cache_hits,
        "per-worker analysis managers must reproduce the serial hit count: {ctx}"
    );
    assert_eq!(
        a.stats.analysis_cache_misses, b.stats.analysis_cache_misses,
        "per-worker analysis managers must reproduce the serial miss count: {ctx}"
    );
    for (pa, pb) in a.stats.per_pass.iter().zip(&b.stats.per_pass) {
        assert_eq!(pa.name, pb.name, "{ctx}");
        assert_eq!(pa.ticks_added, pb.ticks_added, "{}: {ctx}", pa.name);
        assert_eq!(pa.ticks_removed, pb.ticks_removed, "{}: {ctx}", pa.name);
        assert_eq!(pa.mass_moved, pb.mass_moved, "{}: {ctx}", pa.name);
    }
}

#[test]
fn parallel_and_cached_compiles_match_serial_byte_for_byte() {
    // The compile pool and the plan cache are pure wall-time knobs:
    // serial ≡ parallel(2) ≡ parallel(8) ≡ warm-cache, for all six
    // Table-I configs × both placements × every workload.
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.03) {
        for level in OptLevel::table1_rows() {
            let config = OptConfig::only(level);
            for placement in [Placement::Start, Placement::End] {
                let ctx = format!("{} / {level:?} / {placement:?}", w.name);
                let serial = instrument_with(
                    &w.module,
                    &cost,
                    &config,
                    placement,
                    &w.entries,
                    CompileOpts::serial(),
                );
                for threads in [2, 8] {
                    let par = instrument_with(
                        &w.module,
                        &cost,
                        &config,
                        placement,
                        &w.entries,
                        CompileOpts::threads(threads),
                    );
                    assert_compiles_identical(
                        &serial,
                        &par,
                        &format!("{ctx} / parallel({threads})"),
                    );
                }
                // Cold fill then warm hit on the process-wide plan cache:
                // both must still equal the serial compile, and the second
                // call must be served from the cache.
                let cold = instrument_with(
                    &w.module,
                    &cost,
                    &config,
                    placement,
                    &w.entries,
                    CompileOpts::threads(2).cached(),
                );
                let hits = PlanCache::global().hits();
                let warm = instrument_with(
                    &w.module,
                    &cost,
                    &config,
                    placement,
                    &w.entries,
                    CompileOpts::serial().cached(),
                );
                assert_compiles_identical(&serial, &cold, &format!("{ctx} / cold-cache"));
                assert_compiles_identical(&serial, &warm, &format!("{ctx} / warm-cache"));
                assert!(
                    PlanCache::global().hits() > hits,
                    "second cached compile must hit: {ctx}"
                );
            }
        }
    }
}

#[test]
fn serving_path_configuration_reports_cache_hits() {
    // The serve shards instrument at OptLevel::All / Placement::Start; the
    // acceptance criterion requires analysis-cache hits > 0 on that path.
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let got = instrument(
            &w.module,
            &cost,
            &OptConfig::only(OptLevel::All),
            Placement::Start,
            &w.entries,
        );
        assert!(
            got.stats.analysis_cache_hits > 0,
            "{}: no cache hits",
            w.name
        );
    }
}
