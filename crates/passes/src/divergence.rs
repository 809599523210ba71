//! Clock-divergence audit.
//!
//! The paper's precise transformations (base insertion, O2a, and O4 on full
//! iterations) keep every acyclic path's clock total equal to the true cost
//! of the instructions on it; the approximate ones (O1, O2b, O3, O4's
//! loop-exit path) bound the error. This module measures the divergence of a
//! plan against the split module's true per-block costs so tests can assert
//! both properties.

use crate::cost::CostModel;
use crate::plan::{block_clock_amounts, ModulePlan};
use detlock_ir::analysis::cfg::Cfg;
use detlock_ir::analysis::dom::DomTree;
use detlock_ir::analysis::loops::LoopInfo;
use detlock_ir::analysis::paths::{enumerate_paths_recorded, Step};
use detlock_ir::module::Module;
use detlock_ir::types::{BlockId, FuncId};

/// Divergence of one function's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDivergence {
    /// The function.
    pub func: FuncId,
    /// Largest |planned − true| over all enumerated acyclic paths.
    pub max_abs: u64,
    /// Largest |planned − true| / true over all paths (0 when true is 0).
    pub max_frac: f64,
    /// Number of paths compared.
    pub paths: usize,
    /// Block sequence of the worst path (empty when the plan is exact).
    pub worst_path: Vec<BlockId>,
    /// Planned clock total of the worst path.
    pub worst_planned: u64,
    /// True clock total of the worst path.
    pub worst_true: u64,
    /// The branch on the worst path that produced the divergence: the edge
    /// `(branch block, taken successor)` after which the largest share of
    /// |planned − true| accumulates. `None` when the plan is exact or the
    /// worst path contains no branch.
    pub worst_branch: Option<(BlockId, BlockId)>,
}

/// Audit every unclocked function of the split module against its plan.
///
/// Paths are acyclic (back edges are not followed) and capped at
/// `max_paths`; functions exceeding the cap are skipped (`None` entries).
/// Clocked functions are skipped too — their divergence is governed by the
/// `is_clockable` tightness criteria at the call sites instead.
pub fn audit(
    split: &Module,
    plan: &ModulePlan,
    cost: &CostModel,
    max_paths: usize,
) -> Vec<Option<FuncDivergence>> {
    let mut out = Vec::with_capacity(split.functions.len());
    for (fid, func) in split.iter_funcs() {
        if plan.clocked[fid.index()].is_some() {
            out.push(None);
            continue;
        }
        let cfg = Cfg::compute(func);
        let dom = DomTree::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        let fplan = &plan.funcs[fid.index()];

        // One walk records the routes and the planned totals; the true
        // totals are the per-block true costs summed along the same routes.
        let truth = block_clock_amounts(func, cost, &plan.clocked);
        let planned = enumerate_paths_recorded(
            &cfg,
            func.entry(),
            max_paths,
            |b| fplan.clock(b),
            |from, to| {
                if loops.is_back_edge(from, to) {
                    Step::StopBefore
                } else {
                    Step::Follow
                }
            },
        );
        let Ok(planned) = planned else {
            out.push(None);
            continue;
        };
        let true_totals: Vec<u64> = planned
            .routes
            .iter()
            .map(|route| route.iter().map(|b| truth[b.index()]).sum())
            .collect();
        let mut max_abs = 0u64;
        let mut max_frac = 0f64;
        let mut worst: Option<usize> = None;
        for (i, (&p, &t)) in planned.totals.iter().zip(&true_totals).enumerate() {
            let d = p.abs_diff(t);
            max_abs = max_abs.max(d);
            let frac = if t > 0 {
                d as f64 / t as f64
            } else if d > 0 {
                f64::INFINITY
            } else {
                0.0
            };
            max_frac = max_frac.max(frac);
            if d > 0 {
                let better = match worst {
                    None => true,
                    Some(w) => {
                        let wd = planned.totals[w].abs_diff(true_totals[w]);
                        let wt = true_totals[w];
                        let wfrac = if wt > 0 {
                            wd as f64 / wt as f64
                        } else {
                            f64::INFINITY
                        };
                        frac > wfrac || (frac == wfrac && d > wd)
                    }
                };
                if better {
                    worst = Some(i);
                }
            }
        }
        let (worst_path, worst_planned, worst_true, worst_branch) = match worst {
            None => (Vec::new(), 0, 0, None),
            Some(i) => {
                let route = planned.routes[i].clone();
                let branch = blame_branch(&cfg, &route, |b| {
                    fplan.clock(b) as i64 - truth[b.index()] as i64
                });
                (route, planned.totals[i], true_totals[i], branch)
            }
        };
        out.push(Some(FuncDivergence {
            func: fid,
            max_abs,
            max_frac,
            paths: planned.totals.len(),
            worst_path,
            worst_planned,
            worst_true,
            worst_branch,
        }));
    }
    out
}

/// On `route`, find the branch edge after which the largest share of the
/// path's |planned − true| delta accumulates: for each edge whose source has
/// several successors, measure the remaining delta past that block and blame
/// the edge with the biggest one (ties go to the earliest edge). When the
/// whole delta sits at or before the first branch (O2b hoists mass into the
/// upper block), every suffix is zero — then the first branch edge is blamed:
/// it is the decision that committed the path to never repaying that mass.
fn blame_branch(
    cfg: &Cfg,
    route: &[BlockId],
    mut block_delta: impl FnMut(BlockId) -> i64,
) -> Option<(BlockId, BlockId)> {
    let deltas: Vec<i64> = route.iter().map(|&b| block_delta(b)).collect();
    let total: i64 = deltas.iter().sum();
    let mut prefix = 0i64;
    let mut best: Option<((BlockId, BlockId), i64)> = None;
    let mut first_branch: Option<(BlockId, BlockId)> = None;
    for i in 0..route.len().saturating_sub(1) {
        prefix += deltas[i];
        if cfg.succs(route[i]).len() < 2 {
            continue;
        }
        if first_branch.is_none() {
            first_branch = Some((route[i], route[i + 1]));
        }
        let after = (total - prefix).abs();
        if after > 0 && best.is_none_or(|(_, b)| after > b) {
            best = Some(((route[i], route[i + 1]), after));
        }
    }
    best.map(|(edge, _)| edge).or(first_branch)
}

/// True when every audited function has zero divergence (precise plans).
pub fn is_exact(audits: &[Option<FuncDivergence>]) -> bool {
    audits.iter().flatten().all(|d| d.max_abs == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{instrument, OptConfig, OptLevel};
    use crate::plan::Placement;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::CmpOp;

    /// Branchy function with uneven arms plus a loop.
    fn module() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry");
        let t = fb.create_block("t");
        let e = fb.create_block("e");
        let mrg = fb.create_block("m");
        let head = fb.create_block("head");
        let body = fb.create_block("body");
        let done = fb.create_block("done");
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.compute(9);
        fb.br(mrg);
        fb.switch_to(e);
        fb.compute(2);
        fb.br(mrg);
        fb.switch_to(mrg);
        let i = fb.iconst(0);
        fb.br(head);
        fb.switch_to(head);
        let c2 = fb.cmp(CmpOp::Lt, i, p);
        fb.cond_br(c2, body, done);
        fb.switch_to(body);
        fb.bin_to(detlock_ir::BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(done);
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    #[test]
    fn base_plan_is_exact() {
        let m = module();
        let cost = CostModel::default();
        let inst = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[]);
        let audits = audit(&inst.module, &inst.plan, &cost, 4096);
        assert!(is_exact(&audits), "{audits:?}");
    }

    #[test]
    fn opt2a_only_is_exact() {
        let m = module();
        let cost = CostModel::default();
        let mut cfg = OptConfig::none();
        cfg.o2 = true;
        // Disable 2b's approximation by setting its bound to zero.
        cfg.opt2b.max_divergence = 0.0;
        let inst = instrument(&m, &cost, &cfg, Placement::Start, &[]);
        let audits = audit(&inst.module, &inst.plan, &cost, 4096);
        assert!(is_exact(&audits), "{audits:?}");
    }

    /// The paper's O2b short-circuit shape with real instructions:
    /// upper(0) → {mid(1), end(2)}; mid → {end, other(3)}; end/other → exit(4).
    fn short_circuit_module() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("sc", 1);
        fb.block("upper");
        let mid = fb.create_block("mid");
        let end = fb.create_block("end");
        let other = fb.create_block("other");
        let exit = fb.create_block("exit");
        let p = fb.param(0);
        fb.compute(5);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, mid, end);
        fb.switch_to(mid);
        fb.compute(60);
        let c2 = fb.cmp(CmpOp::Gt, p, 5);
        fb.cond_br(c2, end, other);
        fb.switch_to(end);
        fb.compute(2);
        fb.br(exit);
        fb.switch_to(other);
        fb.compute(2);
        fb.br(exit);
        fb.switch_to(exit);
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    /// Regression: O2b's approximate move must stay within the paper's 1/10
    /// bound on the short-circuit CFG, and the audit must name the path and
    /// branch that produced the divergence.
    #[test]
    fn opt2b_respects_tenth_bound_on_short_circuit_and_names_the_branch() {
        use detlock_ir::types::BlockId;
        let m = short_circuit_module();
        let cost = CostModel::default();
        let mut cfg = OptConfig::none();
        cfg.o2 = true; // default Opt2bParams: max_divergence = 0.1
        let inst = instrument(&m, &cost, &cfg, Placement::Start, &[]);
        let audits = audit(&inst.module, &inst.plan, &cost, 4096);
        let d = audits[0].as_ref().expect("sc audited");
        assert!(
            d.max_abs > 0,
            "2b must have moved clock mass (else the test pins nothing)"
        );
        assert!(
            d.max_frac <= 0.1,
            "2b divergence exceeds the documented 1/10 bound: {d:?}"
        );
        // Worst path is upper → mid → other → exit (the only path that
        // misses the `end` block whose clock 2b hoisted into upper).
        assert_eq!(
            d.worst_path,
            vec![BlockId(0), BlockId(1), BlockId(3), BlockId(4)],
            "{d:?}"
        );
        assert!(d.worst_planned != d.worst_true);
        // The hoisted mass sits in upper, so the first branch is blamed:
        // taking upper → mid committed the path to possibly skipping `end`.
        assert_eq!(d.worst_branch, Some((BlockId(0), BlockId(1))), "{d:?}");
    }

    #[test]
    fn exact_plans_report_no_worst_path() {
        let m = module();
        let cost = CostModel::default();
        let inst = instrument(&m, &cost, &OptConfig::none(), Placement::Start, &[]);
        let audits = audit(&inst.module, &inst.plan, &cost, 4096);
        for d in audits.iter().flatten() {
            assert!(d.worst_path.is_empty());
            assert_eq!(d.worst_branch, None);
        }
    }

    #[test]
    fn full_pipeline_divergence_is_bounded() {
        let m = module();
        let cost = CostModel::default();
        let inst = instrument(
            &m,
            &cost,
            &OptConfig::only(OptLevel::All),
            Placement::Start,
            &[],
        );
        let audits = audit(&inst.module, &inst.plan, &cost, 4096);
        for d in audits.iter().flatten() {
            // O2b's bound is 1/10 per move; O3/O4 introduce comparable
            // bounded error. Across a whole function allow 50%.
            assert!(d.max_frac <= 0.5, "divergence too large: {:?}", d);
        }
    }
}
