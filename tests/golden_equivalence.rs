//! Golden suite for the instrumentation pipeline.
//!
//! `detlock_passes::pass::PassPipeline` runs the paper's compiler pass as
//! one driver. This suite pins what it emits — the printed instrumented
//! module, plan and certificate obligations — as one digest per workload
//! over every Table-I config × both placements, and holds the pipeline's
//! output independent of its worker count and of the plan cache.

use detlock_ir::dot::write_module_text;
use detlock_passes::cache::PlanCache;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{
    instrument, instrument_with, CompileOpts, Instrumented, OptConfig, OptLevel,
};
use detlock_passes::plan::Placement;
use detlock_shim::hash::Fnv64;
use detlock_workloads::{all_benchmarks, Workload};

/// One FNV-1a digest of everything the pipeline emits for workload `w`,
/// over every Table-I row × both placements, with `config` building each
/// row's [`OptConfig`]: per cell, the printed
/// instrumented module, the plan (`clocked`, each function's `block_clock`
/// and `pinned`), every cert obligation and each per-pass cert in order.
/// Floats go in by bit pattern, so the value is the same on every
/// toolchain.
fn pipeline_digest(w: &Workload, cost: &CostModel, config: fn(OptLevel) -> OptConfig) -> u64 {
    let mut h = Fnv64::new();
    // `None` and `Some(v)` never share a word pair.
    let opt = |v: &Option<u64>| [u64::from(v.is_some()), v.unwrap_or(0)];
    for level in OptLevel::table1_rows() {
        let config = config(level);
        for placement in [Placement::Start, Placement::End] {
            let got = instrument(&w.module, cost, &config, placement, &w.entries);
            write_module_text(&got.module, |bytes| h.write(bytes));

            let plan = &got.plan;
            h.write_u64(plan.placement as u64);
            words(&mut h, plan.clocked.iter().flat_map(opt));
            for f in &plan.funcs {
                words(&mut h, f.block_clock.iter().copied());
                words(&mut h, f.pinned.iter().map(|&p| u64::from(p)));
            }

            let cert = &got.cert;
            h.write_u64(cert.placement as u64);
            words(&mut h, cert.clocked.iter().flat_map(opt));
            for blocks in &cert.block_clock {
                words(&mut h, blocks.iter().copied());
            }
            let c = &cert.clockable;
            h.write_u64(c.range_divisor.to_bits());
            h.write_u64(c.std_divisor.to_bits());
            h.write_u64(c.max_paths as u64);
            h.write_u64(cert.frac_bound.to_bits());
            words(&mut h, cert.o2b_slack.iter().copied());
            words(&mut h, opt(&cert.o4_latch_threshold));

            h.write_u64(cert.pass_certs.len() as u64);
            for pc in &cert.pass_certs {
                h.write(pc.pass.as_bytes());
                h.write(&[0xff]);
                h.write_u64(pc.frac_bound.to_bits());
                words(&mut h, pc.o2b_slack.iter().copied());
                words(&mut h, opt(&pc.o4_latch_threshold));
            }
        }
    }
    h.finish()
}

/// Fold a length-prefixed run of words.
fn words(h: &mut Fnv64, vs: impl IntoIterator<Item = u64>) {
    let vs: Vec<u64> = vs.into_iter().collect();
    h.write_u64(vs.len() as u64);
    vs.into_iter().for_each(|v| h.write_u64(v));
}

/// [`pipeline_digest`] of each workload at `all_benchmarks(2, 0.03)`.
/// Any changed byte of a module, plan or cert moves its workload's value;
/// an intended change to the pipeline's output updates the constant here,
/// named in the change, as a moved `ci/baselines/BENCH_passes.json` is.
const PINNED: [(&str, u64); 5] = [
    ("ocean", 0xaa144f21da81d1dd),
    ("raytrace", 0xa339e6f60f24123d),
    ("water-nsq", 0x26006ad517851d8d),
    ("radiosity", 0xba18bae9ca6d814b),
    ("volrend", 0xb7d7a1a00da1b12b),
];

/// Check every workload's [`pipeline_digest`] under `config` against
/// [`PINNED`]; a failure names each moved workload and its new value.
fn assert_pinned(config: fn(OptLevel) -> OptConfig) {
    let cost = CostModel::default();
    let workloads = all_benchmarks(2, 0.03);
    assert_eq!(workloads.len(), PINNED.len(), "one pin per workload");
    let mut moved = Vec::new();
    for w in &workloads {
        let got = pipeline_digest(w, &cost, config);
        let pinned = PINNED.iter().find(|(name, _)| *name == w.name).map(|p| p.1);
        if pinned != Some(got) {
            moved.push(format!(
                "    (\"{}\", 0x{got:016x}), // pinned {pinned:#x?}",
                w.name
            ));
        }
    }
    assert!(
        moved.is_empty(),
        "pipeline output moved:\n{}",
        moved.join("\n")
    );
}

/// The pinned values were taken from the hand-written reference pipeline
/// while it was still present, so matching them is matching the reference.
#[test]
fn pipeline_matches_reference_for_all_configs_placements_and_workloads() {
    assert_pinned(OptConfig::only);
}

/// The Table-I "None" and "All" rows built by `OptConfig::none()` and
/// `OptConfig::all()` directly, not through `OptConfig::only`, land on the
/// same pinned values.
#[test]
fn all_and_none_configs_match_reference_too() {
    assert_pinned(|level| match level {
        OptLevel::None => OptConfig::none(),
        OptLevel::All => OptConfig::all(),
        other => OptConfig::only(other),
    });
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
