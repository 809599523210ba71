//! The LLVM-style pass manager behind [`instrument`](crate::pipeline::instrument).
//!
//! [`OptConfig`] lowers into a declarative [`PassPipeline`]: the O1
//! clockable-function fixpoint, block splitting and base planning run as
//! fixed module stages, the enabled clock-motion optimizations register as
//! [`Pass`] objects, and materialization closes the pipeline. One
//! [`AnalysisManager`] is shared across every stage, so `Cfg`/`DomTree`/
//! `LoopInfo` are computed once per function and reused — across O1
//! fixpoint rounds and across plan passes — until a stage that mutates the
//! IR declares [`PreservedAnalyses::None`].
//!
//! Every stage is timed and its plan delta recorded as a
//! [`PassStats`] row, and every registered pass
//! contributes a [`PassCert`] delta that composes into the module
//! [`PlanCert`], so the translation validator can name the pass that broke
//! an obligation.
//!
//! Ordering note: the pipeline runs pass-major (each pass sweeps every
//! function before the next pass starts) where the pre-refactor loop ran
//! function-major. The two orders produce byte-identical plans because each
//! plan pass reads and writes only its own function's [`FuncPlan`] — plans
//! are per-function independent — and no plan pass touches the IR the
//! analyses are derived from.

use crate::cert::{PassCert, PlanCert};
use crate::cost::CostModel;
use crate::materialize::{materialize, materialize_function};
use crate::opt1::{compute_clocked_with, ClockableParams};
use crate::opt2a::apply_opt2a;
use crate::opt2b::{apply_opt2b, Opt2bParams};
use crate::opt3::apply_opt3;
use crate::opt4::{apply_opt4, Opt4Params};
use crate::pipeline::{Instrumented, OptConfig};
use crate::plan::{base_plan, split_module, FuncPlan, ModulePlan, Placement};
use crate::stats::{PassStats, Stats};
use detlock_ir::analysis::manager::{AnalysisManager, PreservedAnalyses};
use detlock_ir::module::{Function, Module};
use detlock_ir::types::FuncId;
use std::time::Instant;

/// A registered clock-plan transformation: one of the paper's O2a/O2b/O3/O4
/// optimizations, run once per unclocked function.
///
/// `Send + Sync` so the parallel pipeline can share the registered pass
/// objects across compile workers; passes are stateless parameter structs,
/// so the bound costs implementors nothing.
pub trait Pass: Send + Sync {
    /// Stable pass name, used in telemetry rows, `--print-passes` listings
    /// and per-pass certificates.
    fn name(&self) -> &'static str;

    /// Transform one function's plan, reading analyses from the shared
    /// manager. Returns the absolute clock mass this pass's *approximate*
    /// rewrites moved in this function (zero for precise passes); the
    /// pipeline threads the per-function values into the pass certificate.
    fn run(
        &self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64;

    /// Which analyses remain valid after this pass ran. Plan passes mutate
    /// only the [`FuncPlan`], never the IR, so the default preserves all.
    fn preserves(&self) -> PreservedAnalyses {
        PreservedAnalyses::All
    }

    /// This pass's contribution to the module cert's divergence
    /// obligations. `slack` holds the per-function values returned by
    /// [`Pass::run`].
    fn cert(&self, slack: Vec<u64>) -> PassCert;
}

/// Stage name of the O1 clockable-function fixpoint.
pub const PASS_O1: &str = "o1-function-clocking";
/// Stage name of block splitting around unclocked calls.
pub const PASS_SPLIT: &str = "split-blocks";
/// Stage name of base clock planning.
pub const PASS_BASE_PLAN: &str = "base-plan";
/// Pass name of O2a (precise conditional-block motion).
pub const PASS_O2A: &str = "o2a-cond-motion";
/// Pass name of O2b (approximate conditional-block motion).
pub const PASS_O2B: &str = "o2b-approx-motion";
/// Pass name of O3 (averaging of clocks).
pub const PASS_O3: &str = "o3-averaging";
/// Pass name of O4 (loop latch-into-header merging).
pub const PASS_O4: &str = "o4-loop-merge";
/// Stage name of tick materialization.
pub const PASS_MATERIALIZE: &str = "materialize-ticks";

/// O2a — precise cond/merge-node clock motion.
struct Opt2aPass;

impl Pass for Opt2aPass {
    fn name(&self) -> &'static str {
        PASS_O2A
    }

    fn run(
        &self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64 {
        let cfg = am.cfg(fid, func);
        let loops = am.loops(fid, func);
        apply_opt2a(&cfg, &loops, plan);
        0
    }

    fn cert(&self, slack: Vec<u64>) -> PassCert {
        PassCert::exact(PASS_O2A, slack)
    }
}

/// O2b — approximate motion bounded by the divergence rule.
struct Opt2bPass {
    params: Opt2bParams,
}

impl Pass for Opt2bPass {
    fn name(&self) -> &'static str {
        PASS_O2B
    }

    fn run(
        &self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64 {
        let cfg = am.cfg(fid, func);
        let loops = am.loops(fid, func);
        apply_opt2b(&cfg, &loops, self.params, plan)
    }

    fn cert(&self, slack: Vec<u64>) -> PassCert {
        PassCert {
            pass: PASS_O2B,
            frac_bound: 0.0,
            o2b_slack: slack,
            o4_latch_threshold: None,
        }
    }
}

/// O3 — averaging of clocks over dominated regions.
struct Opt3Pass {
    params: ClockableParams,
}

impl Pass for Opt3Pass {
    fn name(&self) -> &'static str {
        PASS_O3
    }

    fn run(
        &self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64 {
        let cfg = am.cfg(fid, func);
        let dom = am.dom(fid, func);
        let loops = am.loops(fid, func);
        apply_opt3(&cfg, &dom, &loops, self.params, plan);
        0
    }

    fn cert(&self, slack: Vec<u64>) -> PassCert {
        PassCert {
            pass: PASS_O3,
            // tight_average admits range ≤ mean/rd; the worst relative
            // path error is 1/(rd − 1) (see PlanCert::frac_bound docs).
            frac_bound: 1.0 / (self.params.range_divisor - 1.0),
            o2b_slack: slack,
            o4_latch_threshold: None,
        }
    }
}

/// O4 — merging small loop-latch clocks into headers.
struct Opt4Pass {
    params: Opt4Params,
}

impl Pass for Opt4Pass {
    fn name(&self) -> &'static str {
        PASS_O4
    }

    fn run(
        &self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64 {
        let cfg = am.cfg(fid, func);
        let loops = am.loops(fid, func);
        apply_opt4(&cfg, &loops, self.params, plan);
        0
    }

    fn cert(&self, slack: Vec<u64>) -> PassCert {
        PassCert {
            pass: PASS_O4,
            frac_bound: 0.0,
            o2b_slack: slack,
            o4_latch_threshold: Some(self.params.threshold),
        }
    }
}

/// The declarative pipeline an [`OptConfig`] lowers into.
pub struct PassPipeline {
    config: OptConfig,
    placement: Placement,
    passes: Vec<Box<dyn Pass>>,
}

impl PassPipeline {
    /// Lower `config` into the concrete stage sequence.
    pub fn from_config(config: &OptConfig, placement: Placement) -> PassPipeline {
        let mut passes: Vec<Box<dyn Pass>> = Vec::new();
        if config.o2 {
            passes.push(Box::new(Opt2aPass));
            passes.push(Box::new(Opt2bPass {
                params: config.opt2b,
            }));
        }
        if config.o3 {
            passes.push(Box::new(Opt3Pass {
                params: config.clockable,
            }));
        }
        if config.o4 {
            passes.push(Box::new(Opt4Pass {
                params: config.opt4,
            }));
        }
        PassPipeline {
            config: config.clone(),
            placement,
            passes,
        }
    }

    /// The resolved stage sequence, one human-readable line per stage
    /// (feeds `dlc --print-passes`).
    pub fn describe(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "{PASS_O1} ({})",
                if self.config.o1 { "enabled" } else { "skipped" }
            ),
            PASS_SPLIT.to_string(),
            PASS_BASE_PLAN.to_string(),
        ];
        for p in &self.passes {
            lines.push(p.name().to_string());
        }
        lines.push(format!(
            "{PASS_MATERIALIZE} (placement={:?})",
            self.placement
        ));
        lines
    }

    /// Run every stage over `module`; semantically identical to the
    /// pre-pass-manager `instrument()` for every config and placement.
    pub fn run(&self, module: &Module, cost: &CostModel, entries: &[FuncId]) -> Instrumented {
        self.run_threads(module, cost, entries, 1)
    }

    /// [`PassPipeline::run`] with the per-function phases (plan passes and
    /// tick materialization) fanned out over `threads` compile workers.
    ///
    /// Output is byte-identical to the serial run for any thread count:
    ///
    /// * the interprocedural stages (O1 fixpoint, splitting, base planning)
    ///   stay serial;
    /// * each worker transforms whole functions (function-major), which the
    ///   golden suite pins as equal to the serial pass-major order because
    ///   plan passes only touch their own function's plan;
    /// * results are committed in function-index order, and every
    ///   aggregate — pass rows, cert slack vectors, analysis counters — is
    ///   assembled from per-function values by index or by summation, so
    ///   no aggregate depends on scheduling;
    /// * analysis hit/miss totals match the serial shared-manager run
    ///   exactly: splitting invalidates every cached analysis, so the
    ///   serial phase-2 counts are a per-function sum, and each worker's
    ///   private manager reproduces its functions' terms verbatim.
    pub fn run_threads(
        &self,
        module: &Module,
        cost: &CostModel,
        entries: &[FuncId],
        threads: usize,
    ) -> Instrumented {
        let n = module.functions.len();
        let parallel = threads > 1 && n > 1;
        let mut am = AnalysisManager::new(n);
        let mut per_pass: Vec<PassStats> = Vec::new();

        // O1 fixpoint. The module is read-only here, so the analyses the
        // fixpoint computes stay cached across its rounds.
        let t = Instant::now();
        let clocked = if self.config.o1 {
            compute_clocked_with(module, cost, entries, &self.config.clockable, &mut am)
        } else {
            vec![None; n]
        };
        per_pass.push(PassStats::timed(PASS_O1, elapsed_ns(t)));

        // Splitting rewrites the IR: nothing cached survives.
        let t = Instant::now();
        let split = split_module(module, &clocked);
        am.apply_preservation(PreservedAnalyses::None);
        per_pass.push(PassStats::timed(PASS_SPLIT, elapsed_ns(t)));

        // Base plan: every tick the optimizations will rearrange appears
        // here, so the stage's delta is the whole planned clock mass.
        let t = Instant::now();
        let mut plans = base_plan(&split, cost, &clocked);
        let mut base = PassStats::timed(PASS_BASE_PLAN, 0);
        base.ticks_added = plans.iter().map(|p| p.clocked_blocks()).sum();
        base.mass_moved = plans.iter().map(|p| p.total_mass()).sum();
        base.wall_ns = elapsed_ns(t);
        per_pass.push(base);

        // Registered plan passes. Serial runs pass-major (see module docs
        // for why this order is observably identical to the old
        // function-major loop); parallel runs function-major on the compile
        // pool and commits per-function results in index order.
        let mut pass_certs: Vec<PassCert> = Vec::new();
        let mut worker_hits = 0u64;
        let mut worker_misses = 0u64;
        if !parallel || self.passes.is_empty() {
            for pass in &self.passes {
                let t = Instant::now();
                let mut slack = vec![0u64; n];
                let mut row = PassStats::timed(pass.name(), 0);
                for (fid, func) in split.iter_funcs() {
                    if clocked[fid.index()].is_some() {
                        continue; // clocked functions carry no clock code at all
                    }
                    let plan = &mut plans[fid.index()];
                    let before = plan.block_clock.clone();
                    slack[fid.index()] = pass.run(func, fid, plan, &mut am);
                    for (b, &new) in plan.block_clock.iter().enumerate() {
                        let old = before[b];
                        if old == 0 && new > 0 {
                            row.ticks_added += 1;
                        } else if old > 0 && new == 0 {
                            row.ticks_removed += 1;
                        }
                        row.mass_moved += new.abs_diff(old);
                    }
                }
                am.apply_preservation(pass.preserves());
                pass_certs.push(pass.cert(slack));
                row.wall_ns = elapsed_ns(t);
                per_pass.push(row);
            }
        } else {
            let passes = &self.passes;
            let split_ref = &split;
            let clocked_ref = &clocked;
            let plans_ref = &plans;
            let (results, workers) = crate::parallel::run_indexed_with(
                n,
                threads,
                || AnalysisManager::new(0),
                |wam, fidx| {
                    if clocked_ref[fidx].is_some() {
                        return (None, vec![FnPassDelta::default(); passes.len()]);
                    }
                    let fid = FuncId(fidx as u32);
                    let func = &split_ref.functions[fidx];
                    let mut plan = plans_ref[fidx].clone();
                    let mut deltas = Vec::with_capacity(passes.len());
                    for pass in passes {
                        let t = Instant::now();
                        let before = plan.block_clock.clone();
                        let mut d = FnPassDelta {
                            slack: pass.run(func, fid, &mut plan, wam),
                            ..FnPassDelta::default()
                        };
                        for (b, &new) in plan.block_clock.iter().enumerate() {
                            let old = before[b];
                            if old == 0 && new > 0 {
                                d.ticks_added += 1;
                            } else if old > 0 && new == 0 {
                                d.ticks_removed += 1;
                            }
                            d.mass_moved += new.abs_diff(old);
                        }
                        d.wall_ns = elapsed_ns(t);
                        deltas.push(d);
                    }
                    (Some(plan), deltas)
                },
            );
            // Commit phase: function-index order, aggregates by summation —
            // both invariant under scheduling.
            let mut rows: Vec<PassStats> = passes
                .iter()
                .map(|p| PassStats::timed(p.name(), 0))
                .collect();
            let mut slacks: Vec<Vec<u64>> = vec![vec![0u64; n]; passes.len()];
            for (fidx, (new_plan, deltas)) in results.into_iter().enumerate() {
                if let Some(p) = new_plan {
                    plans[fidx] = p;
                }
                for (j, d) in deltas.into_iter().enumerate() {
                    slacks[j][fidx] = d.slack;
                    rows[j].ticks_added += d.ticks_added;
                    rows[j].ticks_removed += d.ticks_removed;
                    rows[j].mass_moved += d.mass_moved;
                    rows[j].wall_ns += d.wall_ns;
                }
            }
            for (pass, slack) in passes.iter().zip(slacks) {
                pass_certs.push(pass.cert(slack));
            }
            per_pass.extend(rows);
            for w in &workers {
                worker_hits += w.cache_hits();
                worker_misses += w.cache_misses();
            }
        }

        let plan = ModulePlan {
            placement: self.placement,
            clocked,
            funcs: plans,
        };

        // Materialize ticks (rewrites the IR again). Per-function and
        // analysis-free, so the parallel path fans it out too; index-order
        // reassembly keeps the module byte-identical.
        let t = Instant::now();
        let out = if parallel {
            let plan_ref = &plan;
            let split_ref = &split;
            let (functions, _) = crate::parallel::run_indexed_with(
                n,
                threads,
                || (),
                |_, fidx| {
                    materialize_function(
                        &split_ref.functions[fidx],
                        &plan_ref.funcs[fidx],
                        plan_ref.placement,
                        cost,
                    )
                },
            );
            Module { functions }
        } else {
            materialize(&split, &plan, cost)
        };
        am.apply_preservation(PreservedAnalyses::None);
        let mut mat = PassStats::timed(PASS_MATERIALIZE, elapsed_ns(t));

        // In debug builds, catch pipeline breakage (dangling targets after
        // splitting, duplicated block names, bad registers) at the source.
        #[cfg(debug_assertions)]
        if let Err(errs) = detlock_ir::verify::verify_module(&out) {
            panic!("instrument produced an invalid module: {errs:?}");
        }

        let mut stats = Stats::collect(&out, &plan);
        mat.ticks_added = stats.ticks_inserted + stats.dynamic_ticks;
        per_pass.push(mat);
        stats.per_pass = per_pass;
        stats.analysis_cache_hits = am.cache_hits() + worker_hits;
        stats.analysis_cache_misses = am.cache_misses() + worker_misses;

        let cert = PlanCert::from_passes(&self.config, &plan, pass_certs);
        Instrumented {
            module: out,
            plan,
            stats,
            cert,
        }
    }
}

/// One pass's effect on one function, measured by a compile worker and
/// folded into the pass row / cert slack vector at commit time.
#[derive(Debug, Clone, Default)]
struct FnPassDelta {
    slack: u64,
    ticks_added: usize,
    ticks_removed: usize,
    mass_moved: u64,
    wall_ns: u64,
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OptLevel;
    use detlock_ir::builder::FunctionBuilder;

    fn module() -> (Module, FuncId) {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(12);
        fb.ret_void();
        let leaf = fb.finish_into(&mut m);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.block("entry");
        fb.call_void(leaf, vec![]);
        fb.ret_void();
        let entry = fb.finish_into(&mut m);
        (m, entry)
    }

    #[test]
    fn describe_lists_every_stage_in_order() {
        let pipe = PassPipeline::from_config(&OptConfig::all(), Placement::Start);
        let lines = pipe.describe();
        assert!(lines[0].starts_with(PASS_O1));
        assert!(lines[0].contains("enabled"));
        assert_eq!(lines[1], PASS_SPLIT);
        assert_eq!(lines[2], PASS_BASE_PLAN);
        assert_eq!(
            &lines[3..7],
            &[PASS_O2A, PASS_O2B, PASS_O3, PASS_O4].map(String::from)
        );
        assert!(lines[7].starts_with(PASS_MATERIALIZE));

        let none = PassPipeline::from_config(&OptConfig::none(), Placement::End);
        let lines = none.describe();
        assert_eq!(lines.len(), 4); // no plan passes registered
        assert!(lines[0].contains("skipped"));
        assert!(lines[3].contains("End"));
    }

    #[test]
    fn telemetry_covers_every_stage() {
        let (m, entry) = module();
        let cost = CostModel::default();
        let pipe = PassPipeline::from_config(&OptConfig::all(), Placement::Start);
        let out = pipe.run(&m, &cost, &[entry]);
        let names: Vec<&str> = out.stats.per_pass.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec![
                PASS_O1,
                PASS_SPLIT,
                PASS_BASE_PLAN,
                PASS_O2A,
                PASS_O2B,
                PASS_O3,
                PASS_O4,
                PASS_MATERIALIZE
            ]
        );
        // Base planning introduced the ticks; materialization emitted them.
        let base = &out.stats.per_pass[2];
        assert!(base.ticks_added > 0);
        assert!(base.mass_moved > 0);
        let mat = out.stats.per_pass.last().unwrap();
        assert_eq!(
            mat.ticks_added,
            out.stats.ticks_inserted + out.stats.dynamic_ticks
        );
    }

    #[test]
    fn analysis_cache_hits_on_full_pipeline() {
        let (m, entry) = module();
        let cost = CostModel::default();
        let out =
            PassPipeline::from_config(&OptConfig::all(), Placement::Start).run(&m, &cost, &[entry]);
        // O2a/O2b/O3/O4 all ask for the same cfg/loops: the cache must
        // serve most of those requests.
        assert!(out.stats.analysis_cache_hits > 0, "{:?}", out.stats);
        assert!(out.stats.analysis_cache_misses > 0);
    }

    #[test]
    fn per_pass_certs_compose_into_the_module_cert() {
        let (m, entry) = module();
        let cost = CostModel::default();
        let out =
            PassPipeline::from_config(&OptConfig::all(), Placement::Start).run(&m, &cost, &[entry]);
        let names: Vec<&str> = out.cert.pass_certs.iter().map(|c| c.pass).collect();
        assert_eq!(names, vec![PASS_O2A, PASS_O2B, PASS_O3, PASS_O4]);
        let frac: f64 = out.cert.pass_certs.iter().map(|c| c.frac_bound).sum();
        assert_eq!(out.cert.frac_bound, frac);
        let o4 = out.cert.pass_certs.last().unwrap();
        assert_eq!(out.cert.o4_latch_threshold, o4.o4_latch_threshold);
    }

    #[test]
    fn only_configs_register_matching_passes() {
        for (level, expect) in [
            (OptLevel::None, vec![]),
            (OptLevel::O2, vec![PASS_O2A, PASS_O2B]),
            (OptLevel::O3, vec![PASS_O3]),
            (OptLevel::O4, vec![PASS_O4]),
        ] {
            let pipe = PassPipeline::from_config(&OptConfig::only(level), Placement::Start);
            let names: Vec<&str> = pipe.passes.iter().map(|p| p.name()).collect();
            assert_eq!(names, expect, "{level:?}");
        }
    }
}
