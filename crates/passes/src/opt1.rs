//! Optimization 1 — *Function Clocking* (paper §IV-A, Fig. 4).
//!
//! A function is **clockable** when all paths through it have nearly the
//! same clock total: no loops, no calls to unclocked functions, and path
//! totals whose range is at most `mean / 2.5` and standard deviation at most
//! `mean / 5`. Clock code is removed from such functions entirely and the
//! mean path clock is charged at every call site instead — the most
//! aggressive form of *ahead-of-time* clock updating, which §V-B shows cuts
//! deterministic-execution wait time the most.
//!
//! The greedy fixpoint (`UpdateClockableFuncList`) repeats over the module
//! until no new function becomes clockable, so non-leaf functions whose
//! callees all became clocked get promoted too.
//!
//! The paper's `getClocksOfAllPaths` is never materialized: the tightness
//! test reads only the count, mean, range and standard deviation of the
//! path totals, and [`path_stats`] derives those in one pass over the
//! blocks. The translation validator re-derives a claimed mean from an
//! enumeration of the paths instead; the two derivations share only
//! [`tight_average`], the decision rule.

use crate::cost::CostModel;
use crate::plan::block_clock_amounts;
use detlock_ir::analysis::manager::AnalysisManager;
use detlock_ir::analysis::paths::{path_stats, PathStats, Step};
use detlock_ir::inst::Inst;
use detlock_ir::module::{Function, Module};
use detlock_ir::types::FuncId;

/// Tunable thresholds for `is_clockable` (paper defaults: 2.5 and 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockableParams {
    /// Path-total range must be ≤ `mean / range_divisor`.
    pub range_divisor: f64,
    /// Path-total standard deviation must be ≤ `mean / std_divisor`.
    pub std_divisor: f64,
    /// Functions (and O3 regions) with more than this many acyclic paths
    /// are not clockable. A semantic threshold, not a bound on cost: the
    /// paths are counted in one pass over the blocks, never walked.
    pub max_paths: usize,
}

impl Default for ClockableParams {
    fn default() -> Self {
        ClockableParams {
            range_divisor: 2.5,
            std_divisor: 5.0,
            max_paths: 4096,
        }
    }
}

/// The tightness test shared with Optimization 3 (paper Fig. 4 lines 5–12):
/// returns the rounded mean when the path totals summarized by `stats`
/// qualify. Mean, range and variance come from the exact integer moments;
/// the variance is `(n·Σt² − (Σt)²) / n²`.
pub fn tight_average(stats: &PathStats, params: &ClockableParams) -> Option<u64> {
    if stats.count == 0 {
        return None;
    }
    let n = stats.count as f64;
    let mean = stats.sum as f64 / n;
    let range = (stats.max - stats.min) as f64;
    let var = (stats.count as u128 * stats.sum_sq - stats.sum * stats.sum) as f64 / (n * n);
    let std = var.sqrt();
    if range > mean / params.range_divisor || std > mean / params.std_divisor {
        return None;
    }
    Some(mean.round() as u64)
}

/// `isClockable` (paper Fig. 4): returns the mean path clock if the function
/// qualifies given the current clocked set.
pub fn is_clockable(
    func: &Function,
    cost: &CostModel,
    clocked: &[Option<u64>],
    params: &ClockableParams,
) -> Option<u64> {
    let mut am = AnalysisManager::new(1);
    is_clockable_with(func, FuncId(0), cost, clocked, params, &mut am)
}

/// [`is_clockable`] reading the CFG and loop info from a shared
/// [`AnalysisManager`]: neither changes across the O1 fixpoint's rounds
/// (only the clocked set does), so every round after the first gets them
/// from the cache. The paths are summarized afresh on every call: a
/// function reaches the summary only once every callee is clocked, its
/// block amounts are final from then on, and so only a function that is
/// loop-free and call-clean yet not tight is ever summarized twice.
pub fn is_clockable_with(
    func: &Function,
    fid: FuncId,
    cost: &CostModel,
    clocked: &[Option<u64>],
    params: &ClockableParams,
    am: &mut AnalysisManager,
) -> Option<u64> {
    // hasLoops(f)
    let loops = am.loops(fid, func);
    if loops.has_loops() {
        return None;
    }
    // hasUnclockedFunctions(f) — plus our additional disqualifiers:
    // synchronization intrinsics (their clocks are deterministic events and
    // must stay exact in program order) and size-dependent builtins (their
    // clock amount is not static).
    for block in &func.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Call { func: callee, .. } => {
                    if clocked.get(callee.index()).is_none_or(|c| c.is_none()) {
                        return None;
                    }
                }
                Inst::Lock { .. } | Inst::Unlock { .. } | Inst::Barrier { .. } => return None,
                _ => {
                    if cost.needs_dynamic_tick(inst).is_some() {
                        return None;
                    }
                }
            }
        }
    }
    // getClocksOfAllPaths(f), summarized: each block costed once, then one
    // pass over the blocks.
    let cfg = am.cfg(fid, func);
    let amounts = block_clock_amounts(func, cost, clocked);
    let paths = path_stats(
        &cfg,
        func.entry(),
        params.max_paths,
        |b| amounts[b.index()],
        |_, _| Step::Follow,
    )
    .ok()?;
    tight_average(&paths.stats, params)
}

/// `UpdateClockableFuncList` (paper Fig. 4): the greedy fixpoint. `entries`
/// (thread entry functions) are never clocked — nothing would charge their
/// mean.
pub fn compute_clocked(
    module: &Module,
    cost: &CostModel,
    entries: &[FuncId],
    params: &ClockableParams,
) -> Vec<Option<u64>> {
    let mut am = AnalysisManager::new(module.functions.len());
    compute_clocked_with(module, cost, entries, params, &mut am)
}

/// [`compute_clocked`] with a caller-owned [`AnalysisManager`], so the
/// caller can read its hit/miss counters. The CFG and loop info it caches
/// serve every fixpoint round after the first; block splitting then
/// rewrites the IR, so no later stage reads them.
pub fn compute_clocked_with(
    module: &Module,
    cost: &CostModel,
    entries: &[FuncId],
    params: &ClockableParams,
    am: &mut AnalysisManager,
) -> Vec<Option<u64>> {
    let mut clocked: Vec<Option<u64>> = vec![None; module.functions.len()];
    let mut modified = true;
    while modified {
        modified = false;
        for (fid, func) in module.iter_funcs() {
            if clocked[fid.index()].is_some() || entries.contains(&fid) {
                continue;
            }
            if let Some(avg) = is_clockable_with(func, fid, cost, &clocked, params, am) {
                clocked[fid.index()] = Some(avg);
                modified = true;
            }
        }
    }
    clocked
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::{CmpOp, Operand};
    use detlock_ir::Module;

    fn params() -> ClockableParams {
        ClockableParams::default()
    }

    #[test]
    fn tight_average_behaviour() {
        let p = params();
        let avg = |totals: &[u64]| tight_average(&PathStats::of(totals), &p);
        // Identical totals: always tight.
        assert_eq!(avg(&[10, 10, 10]), Some(10));
        // Paper's O3 example: 37, 38, 38, 29 → mean 35.5, range 9? The paper
        // reports range 8 (37-29) and accepts; with max=38 range is 9, still
        // below mean/2.5 = 14.2, std 3.77 < 7.1 → accepted, mean rounds to 36.
        assert_eq!(avg(&[37, 38, 38, 29]), Some(36));
        // Wildly divergent paths rejected by the range rule.
        assert_eq!(avg(&[10, 100]), None);
        // Empty rejected.
        assert_eq!(avg(&[]), None);
        // Single path always tight.
        assert_eq!(avg(&[42]), Some(42));
        // Range 8 = 20/2.5 and std 4 = 20/5 sit on both bounds and pass; a
        // stricter std divisor fails them on the std rule alone.
        assert_eq!(avg(&[16, 24]), Some(20));
        let strict = ClockableParams {
            std_divisor: 5.5,
            ..p
        };
        assert_eq!(tight_average(&PathStats::of(&[16, 24]), &strict), None);
    }

    #[test]
    fn single_block_leaf_is_clockable() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(10);
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = compute_clocked(&m, &cost, &[], &params());
        let avg = clocked[0].expect("leaf should be clockable");
        // 10 alu-ish ops (compute uses add/xor/mul mix) + term cost.
        assert!(avg > 10);
    }

    #[test]
    fn function_with_loop_not_clockable() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("looper", 1);
        fb.block("entry");
        let h = fb.create_block("head");
        let b = fb.create_block("body");
        let x = fb.create_block("exit");
        let i = fb.iconst(0);
        fb.br(h);
        fb.switch_to(h);
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Lt, i, p);
        fb.cond_br(c, b, x);
        fb.switch_to(b);
        fb.bin_to(detlock_ir::BinOp::Add, i, i, 1);
        fb.br(h);
        fb.switch_to(x);
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = compute_clocked(&m, &cost, &[], &params());
        assert_eq!(clocked[0], None);
    }

    #[test]
    fn balanced_branches_clockable_unbalanced_not() {
        let build = |then_n: usize, else_n: usize| -> Module {
            let mut m = Module::new();
            let mut fb = FunctionBuilder::new("f", 1);
            fb.block("entry");
            let t = fb.create_block("then");
            let e = fb.create_block("else");
            let mg = fb.create_block("merge");
            let p = fb.param(0);
            let c = fb.cmp(CmpOp::Gt, p, 0);
            fb.cond_br(c, t, e);
            fb.switch_to(t);
            fb.compute(then_n);
            fb.br(mg);
            fb.switch_to(e);
            fb.compute(else_n);
            fb.br(mg);
            fb.switch_to(mg);
            fb.compute(4);
            fb.ret_void();
            fb.finish_into(&mut m);
            m
        };
        let cost = CostModel::default();
        // 20 vs 22 instructions: tight.
        let m1 = build(20, 22);
        assert!(compute_clocked(&m1, &cost, &[], &params())[0].is_some());
        // 2 vs 80 instructions: range way beyond mean/2.5.
        let m2 = build(2, 80);
        assert_eq!(compute_clocked(&m2, &cost, &[], &params())[0], None);
    }

    #[test]
    fn function_with_lock_not_clockable() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("locker", 0);
        fb.block("entry");
        fb.lock(Operand::Imm(0));
        fb.unlock(Operand::Imm(0));
        fb.ret_void();
        fb.finish_into(&mut m);
        let cost = CostModel::default();
        assert_eq!(compute_clocked(&m, &cost, &[], &params())[0], None);
    }

    #[test]
    fn greedy_promotion_through_call_graph() {
        // leaf clockable; mid calls leaf twice (clockable once leaf is);
        // top calls mid (clockable once mid is). Paper Fig. 4's while loop.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(8);
        fb.ret_void();
        let leaf = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("mid", 0);
        fb.block("entry");
        fb.call_void(leaf, vec![]);
        fb.compute(3);
        fb.call_void(leaf, vec![]);
        fb.ret_void();
        let mid = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("top", 0);
        fb.block("entry");
        fb.call_void(mid, vec![]);
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = compute_clocked(&m, &cost, &[], &params());
        assert!(clocked[0].is_some(), "leaf");
        assert!(clocked[1].is_some(), "mid");
        assert!(clocked[2].is_some(), "top");
        // mid's avg ≥ 2 × leaf's avg.
        assert!(clocked[1].unwrap() >= 2 * clocked[0].unwrap());
    }

    #[test]
    fn recursive_function_never_clockable() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("rec", 1);
        fb.block("entry");
        fb.call_void(FuncId(0), vec![Operand::Imm(0)]);
        fb.ret_void();
        fb.finish_into(&mut m);
        let cost = CostModel::default();
        assert_eq!(compute_clocked(&m, &cost, &[], &params())[0], None);
    }

    #[test]
    fn entry_functions_excluded() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("thread_main", 0);
        fb.block("entry");
        fb.compute(5);
        fb.ret_void();
        let f = fb.finish_into(&mut m);
        let cost = CostModel::default();
        let clocked = compute_clocked(&m, &cost, &[f], &params());
        assert_eq!(clocked[0], None);
    }

    #[test]
    fn caller_of_unclocked_function_not_clockable() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("locker", 0);
        fb.block("entry");
        fb.lock(Operand::Imm(0));
        fb.unlock(Operand::Imm(0));
        fb.ret_void();
        let locker = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("entry");
        fb.call_void(locker, vec![]);
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = compute_clocked(&m, &cost, &[], &params());
        assert_eq!(clocked[0], None);
        assert_eq!(clocked[1], None);
    }
}
