//! The instrumentation pipeline: the DetLock "compiler pass".
//!
//! Mirrors Figure 1 of the paper — the pass sits between the frontend-built
//! IR and execution. [`instrument`] lowers its [`OptConfig`] into a
//! [`PassPipeline`] and runs, in order:
//!
//! 1. Optimization 1's clockable-function fixpoint (if enabled);
//! 2. block splitting around calls to unclocked functions (§III-A);
//! 3. base clock planning (every block gets its static clock);
//! 4. Optimizations 2a, 2b, 3, 4 on each function's plan (as enabled);
//! 5. materialization into `tick` instructions.
//!
//! Analyses are computed once per function through an
//! [`AnalysisManager`](detlock_ir::analysis::manager::AnalysisManager), and
//! every stage reports per-pass telemetry and a delta certificate — see
//! [`crate::pass`] for the machinery.

use crate::cert::PlanCert;
use crate::cost::CostModel;
use crate::opt1::ClockableParams;
use crate::opt2b::Opt2bParams;
use crate::opt4::Opt4Params;
use crate::pass::PassPipeline;
use crate::plan::{ModulePlan, Placement};
use crate::stats::Stats;
use detlock_ir::module::Module;
use detlock_ir::types::FuncId;

/// Which optimizations to run.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Optimization 1 — Function Clocking.
    pub o1: bool,
    /// Optimization 2 — Conditional Blocks (parts a and b).
    pub o2: bool,
    /// Optimization 3 — Averaging of Clocks.
    pub o3: bool,
    /// Optimization 4 — Loops.
    pub o4: bool,
    /// Thresholds shared by O1/O3.
    pub clockable: ClockableParams,
    /// O2b's divergence bound.
    pub opt2b: Opt2bParams,
    /// O4's latch threshold.
    pub opt4: Opt4Params,
}

impl OptConfig {
    /// No optimizations (Table I "With No Optimization").
    pub fn none() -> Self {
        OptConfig {
            o1: false,
            o2: false,
            o3: false,
            o4: false,
            clockable: ClockableParams::default(),
            opt2b: Opt2bParams::default(),
            opt4: Opt4Params::default(),
        }
    }

    /// All optimizations (Table I "With All Optimizations").
    pub fn all() -> Self {
        OptConfig {
            o1: true,
            o2: true,
            o3: true,
            o4: true,
            ..OptConfig::none()
        }
    }

    /// Exactly one optimization enabled, per the Table I ablation rows.
    pub fn only(level: OptLevel) -> Self {
        let mut c = OptConfig::none();
        match level {
            OptLevel::None => {}
            OptLevel::O1 => c.o1 = true,
            OptLevel::O2 => c.o2 = true,
            OptLevel::O3 => c.o3 = true,
            OptLevel::O4 => c.o4 = true,
            OptLevel::All => return OptConfig::all(),
        }
        c
    }
}

/// The six configurations of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// No optimization.
    None,
    /// Function Clocking only.
    O1,
    /// Conditional Blocks only.
    O2,
    /// Averaging of Clocks only.
    O3,
    /// Loops only.
    O4,
    /// Everything.
    All,
}

impl OptLevel {
    /// All six Table I rows, in paper order.
    pub fn table1_rows() -> [OptLevel; 6] {
        [
            OptLevel::None,
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::O4,
            OptLevel::All,
        ]
    }

    /// Row label as printed in Table I.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::None => "With No Optimization",
            OptLevel::O1 => "With Function Clocking Only (O1)",
            OptLevel::O2 => "With Conditional Blocks Optimization Only (O2)",
            OptLevel::O3 => "With Averaging of Clocks Only (O3)",
            OptLevel::O4 => "With Loops Optimization Only (O4)",
            OptLevel::All => "With All Optimizations",
        }
    }
}

/// The output of [`instrument`].
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The split, tick-carrying module, ready for the VM.
    pub module: Module,
    /// The plan the ticks were lowered from (aligned with `module`).
    pub plan: ModulePlan,
    /// Instrumentation statistics.
    pub stats: Stats,
    /// The pipeline's claim about its own output, for translation
    /// validation (see [`crate::cert`]).
    pub cert: PlanCert,
}

/// How a compile should be executed: worker count and cache participation.
///
/// Neither knob affects the output — the golden-equivalence suite pins
/// serial ≡ parallel(2) ≡ parallel(8) ≡ warm-cache byte-for-byte. Every
/// binary and the server compile serially and uncached; the other settings
/// exist for the repo benchmark (DESIGN.md §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOpts {
    /// Compile workers for the per-function phases (1 = serial, the
    /// default).
    pub threads: usize,
    /// Consult (and populate) the process-wide content-addressed
    /// [`PlanCache`](crate::cache::PlanCache).
    pub cache: bool,
}

impl Default for CompileOpts {
    fn default() -> Self {
        CompileOpts {
            threads: 1,
            cache: false,
        }
    }
}

impl CompileOpts {
    /// Serial, uncached — the reference configuration.
    pub fn serial() -> CompileOpts {
        CompileOpts::default()
    }

    /// `threads` workers, uncached.
    pub fn threads(threads: usize) -> CompileOpts {
        CompileOpts {
            threads: threads.max(1),
            cache: false,
        }
    }

    /// Same options with the plan cache enabled.
    pub fn cached(self) -> CompileOpts {
        CompileOpts {
            cache: true,
            ..self
        }
    }
}

/// Run the DetLock pass over `module`.
///
/// `entries` are thread entry functions: they are never clocked by O1 (no
/// call site would charge their mean).
///
/// `config` lowers into a [`PassPipeline`] whose output is byte-for-byte
/// identical to a hand-written stage sequence over the same building blocks
/// (the golden-equivalence suite in `tests/golden_equivalence.rs` pins
/// this). Serial and uncached: the path every binary and the server take.
pub fn instrument(
    module: &Module,
    cost: &CostModel,
    config: &OptConfig,
    placement: Placement,
    entries: &[FuncId],
) -> Instrumented {
    instrument_with(
        module,
        cost,
        config,
        placement,
        entries,
        CompileOpts::serial(),
    )
}

/// [`instrument`] with explicit [`CompileOpts`].
///
/// With `opts.cache` set, the compile is keyed by
/// [`plan_key`](crate::cache::plan_key) in the process-wide
/// [`PlanCache`](crate::cache::PlanCache): a hit clones the cached artifact
/// instead of recompiling.
pub fn instrument_with(
    module: &Module,
    cost: &CostModel,
    config: &OptConfig,
    placement: Placement,
    entries: &[FuncId],
    opts: CompileOpts,
) -> Instrumented {
    let pipeline = PassPipeline::from_config(config, placement);
    if !opts.cache {
        return pipeline.run_threads(module, cost, entries, opts.threads);
    }
    let key = crate::cache::plan_key(module, cost, config, placement, entries);
    let cached = crate::cache::PlanCache::global().get_or_compute(key, || {
        pipeline.run_threads(module, cost, entries, opts.threads)
    });
    (*cached).clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::{CmpOp, Inst, Operand};
    use detlock_ir::verify::verify_module;

    /// A module with a clockable leaf, a branchy caller with a loop, and a
    /// thread entry.
    fn test_module() -> (Module, FuncId) {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(12);
        fb.ret_void();
        let leaf = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("work", 1);
        fb.block("entry");
        let head = fb.create_block("for.cond");
        let body = fb.create_block("for.body");
        let t = fb.create_block("if.then");
        let e = fb.create_block("if.else");
        let inc = fb.create_block("for.inc");
        let done = fb.create_block("for.end");
        let i = fb.iconst(0);
        fb.br(head);
        fb.switch_to(head);
        let n = fb.param(0);
        let c = fb.cmp(CmpOp::Lt, i, n);
        fb.cond_br(c, body, done);
        fb.switch_to(body);
        fb.call_void(leaf, vec![]);
        let odd = fb.bin(detlock_ir::BinOp::And, i, 1);
        fb.cond_br(odd, t, e);
        fb.switch_to(t);
        fb.compute(4);
        fb.br(inc);
        fb.switch_to(e);
        fb.compute(5);
        fb.br(inc);
        fb.switch_to(inc);
        fb.bin_to(detlock_ir::BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(done);
        fb.ret_void();
        let work = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("thread_main", 1);
        fb.block("entry");
        let n = fb.param(0);
        fb.call_void(work, vec![Operand::Reg(n)]);
        fb.ret_void();
        let entry = fb.finish_into(&mut m);
        let _ = (leaf, work);
        (m, entry)
    }

    #[test]
    fn all_levels_produce_verified_modules() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        for level in OptLevel::table1_rows() {
            let inst = instrument(
                &m,
                &cost,
                &OptConfig::only(level),
                Placement::Start,
                &[entry],
            );
            verify_module(&inst.module)
                .unwrap_or_else(|e| panic!("{level:?} produced invalid module: {e:?}"));
        }
    }

    #[test]
    fn no_opt_ticks_every_block() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        let inst = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[entry]);
        // Every block with nonzero base clock has a tick; with no
        // optimization every original block has instructions or a
        // terminator, so every block's clock > 0.
        for func in &inst.module.functions {
            for block in &func.blocks {
                let has_tick = block.insts.iter().any(|i| i.is_tick());
                assert!(has_tick, "{}/{} lacks a tick", func.name, block.name);
            }
        }
    }

    #[test]
    fn o1_declocks_leaf_and_charges_caller() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        let inst = instrument(
            &m,
            &cost,
            &OptConfig::only(OptLevel::O1),
            Placement::Start,
            &[entry],
        );
        assert_eq!(inst.plan.clockable_functions(), 1);
        let leaf_id = inst.module.func_by_name("leaf").unwrap();
        assert_eq!(inst.module.func(leaf_id).tick_count(), 0);
        // With O1 the call block is not split: `work` keeps its 7 blocks.
        let work_id = inst.module.func_by_name("work").unwrap();
        assert_eq!(inst.module.func(work_id).blocks.len(), 7);
        // Without O1 the body block is split around the call.
        let no = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[entry]);
        assert!(no.module.func(work_id).blocks.len() > 7);
    }

    #[test]
    fn all_opts_reduce_tick_count_and_preserve_mass_reasonably() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        let none = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[entry]);
        let all = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[entry]);
        let count =
            |i: &Instrumented| -> usize { i.module.functions.iter().map(|f| f.tick_count()).sum() };
        assert!(
            count(&all) < count(&none),
            "all-opts should emit fewer ticks: {} vs {}",
            count(&all),
            count(&none)
        );
    }

    #[test]
    fn placement_start_vs_end() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        let start = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[entry]);
        let end = instrument(&m, &cost, &OptConfig::none(), Placement::End, &[entry]);
        let f = start.module.func_by_name("work").unwrap();
        let sb = &start.module.func(f).blocks[0];
        assert!(sb.insts[0].is_tick());
        let eb = &end.module.func(f).blocks[0];
        assert!(eb.insts.last().unwrap().is_tick());
        // Same tick amounts either way.
        let amounts = |m: &Module| -> Vec<u64> {
            m.functions
                .iter()
                .flat_map(|f| f.blocks.iter())
                .flat_map(|b| b.insts.iter())
                .filter_map(|i| match i {
                    Inst::Tick { amount } => Some(*amount),
                    _ => None,
                })
                .collect()
        };
        let mut a = amounts(&start.module);
        let mut b = amounts(&end.module);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_reflect_configuration() {
        let (m, entry) = test_module();
        let cost = CostModel::default();
        let none = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[entry]);
        assert_eq!(none.stats.clockable_functions, 0);
        assert!(none.stats.ticks_inserted > 0);
        let all = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[entry]);
        assert_eq!(all.stats.clockable_functions, 1);
        assert!(all.stats.ticks_inserted < none.stats.ticks_inserted);
    }
}
