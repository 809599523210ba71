//! The pass pipeline behind [`instrument`](crate::pipeline::instrument).
//!
//! [`OptConfig`] lowers into a declarative [`PassPipeline`]: the O1
//! clockable-function fixpoint, block splitting and base planning run as
//! fixed module stages, the enabled clock-motion optimizations are listed
//! as `PlanPass` values, and materialization closes the pipeline.
//!
//! One driver runs it at every worker count. The interprocedural stages run
//! once over the module; the plan passes run function-major through
//! [`run_indexed_with`], which is an inline loop with one worker state when
//! `threads ≤ 1`. Each function's plan passes read `Cfg`/`DomTree`/
//! `LoopInfo` from the worker's [`AnalysisManager`], so the analyses are
//! computed once per function and shared by every pass that runs on it.
//!
//! The source module is copied once, by block splitting. The pipeline owns
//! that split module and materializes the ticks into it in place, serially
//! at every worker count.
//!
//! Every stage is timed and its plan delta recorded as a [`PassStats`] row,
//! and every plan pass contributes a [`PassCert`] delta that composes into
//! the module [`PlanCert`], so the translation validator can name the pass
//! that broke an obligation.

use crate::cert::{PassCert, PlanCert};
use crate::cost::CostModel;
use crate::materialize::materialize_in_place;
use crate::opt1::{compute_clocked_with, ClockableParams};
use crate::opt2a::apply_opt2a;
use crate::opt2b::{apply_opt2b, Opt2bParams};
use crate::opt3::apply_opt3;
use crate::opt4::{apply_opt4, Opt4Params};
use crate::parallel::run_indexed_with;
use crate::pipeline::{Instrumented, OptConfig};
use crate::plan::{base_plan, split_module, FuncPlan, ModulePlan, Placement};
use crate::stats::{PassStats, Stats};
use detlock_ir::analysis::manager::AnalysisManager;
use detlock_ir::module::{Function, Module};
use detlock_ir::types::FuncId;
use std::time::Instant;

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

/// One of the paper's O2a/O2b/O3/O4 clock-plan optimizations, run once per
/// unclocked function. Plan passes rewrite only that function's
/// [`FuncPlan`], never the IR, so the analyses they read stay valid.
#[derive(Debug, Clone, Copy)]
enum PlanPass {
    /// O2a — precise cond/merge-node clock motion.
    O2a,
    /// O2b — approximate motion bounded by the divergence rule.
    O2b(Opt2bParams),
    /// O3 — averaging of clocks over dominated regions.
    O3(ClockableParams),
    /// O4 — merging small loop-latch clocks into headers.
    O4(Opt4Params),
}

impl PlanPass {
    /// Stable pass name, used in telemetry rows, `--print-passes` listings
    /// and per-pass certificates.
    fn name(self) -> &'static str {
        match self {
            PlanPass::O2a => PASS_O2A,
            PlanPass::O2b(_) => PASS_O2B,
            PlanPass::O3(_) => PASS_O3,
            PlanPass::O4(_) => PASS_O4,
        }
    }

    /// Transform one function's plan. Returns the absolute clock mass this
    /// pass's *approximate* rewrites moved in this function (zero for
    /// precise passes), which becomes the function's entry in the pass
    /// certificate.
    fn run(
        self,
        func: &Function,
        fid: FuncId,
        plan: &mut FuncPlan,
        am: &mut AnalysisManager,
    ) -> u64 {
        let cfg = am.cfg(fid, func);
        match self {
            PlanPass::O2a => {
                apply_opt2a(&cfg, &am.loops(fid, func), plan);
                0
            }
            PlanPass::O2b(params) => apply_opt2b(&cfg, &am.loops(fid, func), params, plan),
            PlanPass::O3(params) => {
                let dom = am.dom(fid, func);
                apply_opt3(&cfg, &dom, &am.loops(fid, func), params, plan);
                0
            }
            PlanPass::O4(params) => {
                apply_opt4(&cfg, &am.loops(fid, func), params, plan);
                0
            }
        }
    }

    /// This pass's contribution to the module cert's divergence
    /// obligations. `slack` holds the per-function values [`PlanPass::run`]
    /// returned.
    fn cert(self, slack: Vec<u64>) -> PassCert {
        let (frac_bound, o4_latch_threshold) = match self {
            PlanPass::O2a | PlanPass::O2b(_) => (0.0, None),
            // tight_average admits range ≤ mean/rd, so a region path's true
            // cost sits within `range` of the charged mean while being at
            // least `mean·(1 − 1/rd)`; the worst relative error is therefore
            // range/min ≤ (mean/rd)/(mean·(1 − 1/rd)) = 1/(rd − 1), not the
            // naive 1/rd.
            PlanPass::O3(params) => (1.0 / (params.range_divisor - 1.0), None),
            PlanPass::O4(params) => (0.0, Some(params.threshold)),
        };
        PassCert {
            pass: self.name(),
            frac_bound,
            o2b_slack: slack,
            o4_latch_threshold,
        }
    }
}

/// The declarative pipeline an [`OptConfig`] lowers into.
pub struct PassPipeline {
    config: OptConfig,
    placement: Placement,
    passes: Vec<PlanPass>,
}

impl PassPipeline {
    /// Lower `config` into the concrete stage sequence.
    pub fn from_config(config: &OptConfig, placement: Placement) -> PassPipeline {
        let mut passes = Vec::new();
        if config.o2 {
            passes.push(PlanPass::O2a);
            passes.push(PlanPass::O2b(config.opt2b));
        }
        if config.o3 {
            passes.push(PlanPass::O3(config.clockable));
        }
        if config.o4 {
            passes.push(PlanPass::O4(config.opt4));
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

    /// Run every stage over `module`, with the plan passes on `threads`
    /// compile workers.
    ///
    /// Output is byte-identical for any thread count:
    ///
    /// * the interprocedural stages (O1 fixpoint, splitting, base planning)
    ///   and materialization run once over the module;
    /// * each worker transforms whole functions (function-major), and plan
    ///   passes only touch their own function's plan;
    /// * results are committed in function-index order, and every
    ///   aggregate — pass rows, cert slack vectors, analysis counters — is
    ///   assembled from per-function values by index or by summation, so
    ///   no aggregate depends on scheduling;
    /// * the module-wide manager serves only O1, and every worker's manager
    ///   starts empty, so a function's analysis hits and misses are the
    ///   same whichever worker ran it.
    pub fn run_threads(
        &self,
        module: &Module,
        cost: &CostModel,
        entries: &[FuncId],
        threads: usize,
    ) -> Instrumented {
        let n = module.functions.len();
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

        // Splitting makes the pipeline's one copy of the IR, and nothing
        // `am` holds describes it.
        let t = Instant::now();
        let mut split = split_module(module, &clocked);
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

        // Plan passes, function-major: every pass over one function, then
        // the next function. Clocked functions carry no clock code at all.
        let passes = &self.passes;
        let (results, workers) = run_indexed_with(
            n,
            threads,
            || AnalysisManager::new(0),
            |wam, fidx| {
                if clocked[fidx].is_some() {
                    return None;
                }
                let fid = FuncId(fidx as u32);
                let func = &split.functions[fidx];
                let mut plan = plans[fidx].clone();
                let deltas: Vec<FnPassDelta> = passes
                    .iter()
                    .map(|pass| {
                        let t = Instant::now();
                        let before = plan.block_clock.clone();
                        let mut d = FnPassDelta {
                            slack: pass.run(func, fid, &mut plan, wam),
                            ..FnPassDelta::default()
                        };
                        for (&old, &new) in before.iter().zip(&plan.block_clock) {
                            if old == 0 && new > 0 {
                                d.ticks_added += 1;
                            } else if old > 0 && new == 0 {
                                d.ticks_removed += 1;
                            }
                            d.mass_moved += new.abs_diff(old);
                        }
                        d.wall_ns = elapsed_ns(t);
                        d
                    })
                    .collect();
                Some((plan, deltas))
            },
        );
        // Commit: function-index order, aggregates by summation — both
        // invariant under scheduling. A pass row's wall time is the sum of
        // its per-function times.
        let mut rows: Vec<PassStats> = passes
            .iter()
            .map(|p| PassStats::timed(p.name(), 0))
            .collect();
        let mut slacks: Vec<Vec<u64>> = vec![vec![0u64; n]; passes.len()];
        for (fidx, result) in results.into_iter().enumerate() {
            let Some((plan, deltas)) = result else {
                continue;
            };
            plans[fidx] = plan;
            for (j, d) in deltas.into_iter().enumerate() {
                slacks[j][fidx] = d.slack;
                rows[j].ticks_added += d.ticks_added;
                rows[j].ticks_removed += d.ticks_removed;
                rows[j].mass_moved += d.mass_moved;
                rows[j].wall_ns += d.wall_ns;
            }
        }
        let pass_certs: Vec<PassCert> = passes
            .iter()
            .zip(slacks)
            .map(|(pass, slack)| pass.cert(slack))
            .collect();
        per_pass.extend(rows);

        let plan = ModulePlan {
            placement: self.placement,
            clocked,
            funcs: plans,
        };

        // Materialize ticks into the split module, which becomes the output.
        let t = Instant::now();
        materialize_in_place(&mut split, &plan, cost);
        let out = split;
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
        stats.analysis_cache_hits =
            am.cache_hits() + workers.iter().map(|w| w.cache_hits()).sum::<u64>();
        stats.analysis_cache_misses =
            am.cache_misses() + workers.iter().map(|w| w.cache_misses()).sum::<u64>();

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
#[derive(Debug, Default)]
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

    impl PassPipeline {
        /// The serial run, the shape every test below asks for.
        fn run(&self, module: &Module, cost: &CostModel, entries: &[FuncId]) -> Instrumented {
            self.run_threads(module, cost, entries, 1)
        }
    }

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
    fn each_level_claims_its_divergence() {
        // The config → cert half of the obligations: precise levels claim
        // nothing, O3 the tight-average bound 1/(rd − 1), O4 its latch
        // threshold, and O2b exactly the mass it reports moving.
        let (m, entry) = module();
        let cost = CostModel::default();
        let config = OptConfig::all();
        let o3 = 1.0 / (config.clockable.range_divisor - 1.0);
        let latch = Some(config.opt4.threshold);
        for (level, frac_bound, o4_latch_threshold) in [
            (OptLevel::None, 0.0, None),
            (OptLevel::O1, 0.0, None),
            (OptLevel::O2, 0.0, None),
            (OptLevel::O3, o3, None),
            (OptLevel::O4, 0.0, latch),
            (OptLevel::All, o3, latch),
        ] {
            let cert = PassPipeline::from_config(&OptConfig::only(level), Placement::Start)
                .run(&m, &cost, &[entry])
                .cert;
            assert_eq!(cert.frac_bound, frac_bound, "{level:?}");
            assert_eq!(cert.o4_latch_threshold, o4_latch_threshold, "{level:?}");
            // The module has no conditional block, so O2b moves nothing.
            assert_eq!(cert.o2b_slack, vec![0, 0], "{level:?}");
            assert_eq!(
                cert.is_exact(),
                frac_bound == 0.0 && o4_latch_threshold.is_none(),
                "{level:?}"
            );
        }
        let moved = PlanPass::O2b(config.opt2b).cert(vec![3, 0]);
        assert_eq!((moved.frac_bound, moved.o2b_slack), (0.0, vec![3, 0]));
        assert_eq!(PlanPass::O2a.cert(vec![0, 0]).o4_latch_threshold, None);
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
