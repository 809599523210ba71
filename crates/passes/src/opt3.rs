//! Optimization 3 — *Averaging of Clocks* (paper §IV-C, Fig. 11).
//!
//! A specialized form of Function Clocking applied *inside* a function: if
//! all paths emanating from a block through the region it dominates have
//! nearly equal clock totals (same tightness criteria as `is_clockable`),
//! the block takes the mean and every block on those paths loses its clock.
//!
//! Path formation rules (paper §IV-C): only blocks dominated by the start
//! block are considered; enumeration stops at back edges and at blocks with
//! unmovable clock code (unclocked calls); and it stops *at* a merge node
//! when any of that node's successors is not dominated by the start block
//! (the node's own clock is still included — the paper's example includes
//! the `_Z17intersection_type...` merge node but stops before `for.inc`).
//!
//! A region's paths are summarized, not enumerated: [`path_stats`] gives
//! the count, moments and range [`tight_average`] decides on, and the
//! region's blocks, in one pass over them.

use crate::opt1::{tight_average, ClockableParams};
use crate::plan::FuncPlan;
use detlock_ir::analysis::cfg::Cfg;
use detlock_ir::analysis::dom::DomTree;
use detlock_ir::analysis::loops::LoopInfo;
use detlock_ir::analysis::paths::{path_stats, PathSummary, Step};
use detlock_ir::types::BlockId;

/// Context for one function's Opt3 run.
pub struct Opt3<'a> {
    cfg: &'a Cfg,
    dom: &'a DomTree,
    loops: &'a LoopInfo,
    params: ClockableParams,
}

impl<'a> Opt3<'a> {
    /// Create the pass context.
    pub fn new(
        cfg: &'a Cfg,
        dom: &'a DomTree,
        loops: &'a LoopInfo,
        params: ClockableParams,
    ) -> Self {
        Opt3 {
            cfg,
            dom,
            loops,
            params,
        }
    }

    /// `meetsOpt3Requirements`: a branch node with movable clock code.
    fn meets_requirements(&self, bb: BlockId, plan: &FuncPlan) -> bool {
        !plan.is_pinned(bb) && self.cfg.succs(bb).len() >= 2
    }

    /// `getClocksOfAllOpt3Paths`: summarize the paths from `bb` per the
    /// region rules above. Returns `None` when the region has too many paths
    /// or is trivial (single block).
    fn region_paths(&self, bb: BlockId, plan: &FuncPlan) -> Option<PathSummary> {
        let ps = path_stats(
            self.cfg,
            bb,
            self.params.max_paths,
            |b| plan.clock(b),
            #[allow(clippy::if_same_then_else)] // branches mirror the paper's distinct stop rules
            |from, to| {
                if self.loops.is_back_edge(from, to) {
                    Step::StopBefore
                } else if !self.dom.dominates(bb, to) {
                    Step::StopBefore
                } else if plan.is_pinned(to) {
                    Step::StopBefore
                } else if self.loops.depth(to) > self.loops.depth(bb) {
                    // Never descend into a loop nested deeper than the
                    // start block: its body executes an unknown number of
                    // times, so one acyclic traversal cannot stand in for
                    // its clock mass.
                    Step::StopBefore
                } else {
                    Step::Follow
                }
            },
        )
        .ok()?;
        if ps.touched.len() < 2 {
            return None;
        }
        Some(ps)
    }

    /// `APPLYOPT3` / `updateOpt3Clocks` (paper Fig. 11): DFS from the entry;
    /// where a region qualifies, set the start block to the mean, zero the
    /// rest, and continue from the region's frontier.
    pub fn run(&self, plan: &mut FuncPlan) {
        let mut visited = vec![false; self.cfg.len()];
        let mut stack = vec![BlockId(0)];
        visited[0] = true;
        while let Some(bb) = stack.pop() {
            let mut advanced = false;
            if self.meets_requirements(bb, plan) {
                if let Some(ps) = self.region_paths(bb, plan) {
                    if let Some(avg) = tight_average(&ps.stats, &self.params) {
                        // setClock(bb, avg); removeClock(all touched).
                        for &tb in &ps.touched {
                            plan.set_clock(tb, 0);
                        }
                        plan.set_clock(bb, avg);
                        // Continue from successors of touched blocks that
                        // lie outside the averaged region (Fig. 11 l.13–16).
                        for &tb in &ps.touched {
                            visited[tb.index()] = true;
                            for &s in self.cfg.succs(tb) {
                                if !ps.touched.contains(&s) && !visited[s.index()] {
                                    visited[s.index()] = true;
                                    stack.push(s);
                                }
                            }
                        }
                        advanced = true;
                    }
                }
            }
            if !advanced {
                for &s in self.cfg.succs(bb) {
                    if !visited[s.index()] {
                        visited[s.index()] = true;
                        stack.push(s);
                    }
                }
            }
        }
    }
}

/// Convenience: run Opt3 over one function plan.
pub fn apply_opt3(
    cfg: &Cfg,
    dom: &DomTree,
    loops: &LoopInfo,
    params: ClockableParams,
    plan: &mut FuncPlan,
) {
    Opt3::new(cfg, dom, loops, params).run(plan);
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::CmpOp;
    use detlock_ir::module::Function;

    fn analyses(f: &Function) -> (Cfg, DomTree, LoopInfo) {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(&cfg);
        let loops = LoopInfo::compute(&cfg, &dom);
        (cfg, dom, loops)
    }

    fn plan_with(clocks: Vec<u64>) -> FuncPlan {
        let n = clocks.len();
        FuncPlan {
            block_clock: clocks,
            pinned: vec![false; n],
        }
    }

    /// entry(0) -> {t(1), e(2)} -> merge(3) -> ret; balanced arms.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("d", 1);
        fb.block("entry");
        let t = fb.create_block("t");
        let e = fb.create_block("e");
        let m = fb.create_block("m");
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(m);
        fb.switch_to(e);
        fb.br(m);
        fb.switch_to(m);
        fb.ret_void();
        fb.finish().unwrap()
    }

    #[test]
    fn balanced_diamond_averaged() {
        let f = diamond();
        let (cfg, dom, loops) = analyses(&f);
        // Totals: 5+10+3=18 and 5+11+3=19 → mean 18.5, range 1: tight.
        let mut plan = plan_with(vec![5, 10, 11, 3]);
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.clock(BlockId(0)), 19); // 18.5 rounds to 19
        assert_eq!(plan.clock(BlockId(1)), 0);
        assert_eq!(plan.clock(BlockId(2)), 0);
        assert_eq!(plan.clock(BlockId(3)), 0);
    }

    #[test]
    fn unbalanced_diamond_untouched() {
        let f = diamond();
        let (cfg, dom, loops) = analyses(&f);
        let mut plan = plan_with(vec![5, 100, 2, 3]);
        let before = plan.block_clock.clone();
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.block_clock, before);
    }

    #[test]
    fn pinned_start_block_skipped() {
        let f = diamond();
        let (cfg, dom, loops) = analyses(&f);
        let mut plan = plan_with(vec![5, 10, 11, 3]);
        plan.pinned[0] = true;
        let before = plan.block_clock.clone();
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.block_clock, before);
    }

    #[test]
    fn pinned_region_block_bounds_the_region() {
        // Pinning the merge makes paths stop before it: totals 5+10 / 5+11,
        // still tight; merge keeps its clock.
        let f = diamond();
        let (cfg, dom, loops) = analyses(&f);
        let mut plan = plan_with(vec![5, 10, 11, 3]);
        plan.pinned[3] = true;
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.clock(BlockId(0)), 16); // (15+16)/2 = 15.5 → 16
        assert_eq!(plan.clock(BlockId(3)), 3);
    }

    /// Paper's shape: the region's merge node is included but enumeration
    /// stops where a successor escapes the dominated region (`for.inc`).
    #[test]
    fn region_stops_at_non_dominated_successor() {
        // entry(0) -> head(1); head -> {a(2), b(3)} -> merge(4) -> for.inc(5)
        // for.inc -> head (back edge) — for.inc is NOT dominated by head? It
        // is. Make for.inc reachable from entry directly so it's not
        // dominated by the branch block `head`... simpler: branch at head,
        // merge at 4, and 4's successor is `out`(5) whose other pred is
        // entry, so `out` is not dominated by head.
        let mut fb = FunctionBuilder::new("r", 1);
        fb.block("entry");
        let head = fb.create_block("head");
        let a = fb.create_block("a");
        let b = fb.create_block("b");
        let m = fb.create_block("merge");
        let out = fb.create_block("out");
        let p = fb.param(0);
        let c0 = fb.cmp(CmpOp::Gt, p, 10);
        fb.cond_br(c0, head, out);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        fb.br(m);
        fb.switch_to(b);
        fb.br(m);
        fb.switch_to(m);
        fb.br(out);
        fb.switch_to(out);
        fb.ret_void();
        let f = fb.finish().unwrap();
        let (cfg, dom, loops) = analyses(&f);
        assert!(!dom.dominates(head, out));
        // head=4, a=10, b=9, merge=2, out=7. Paths from head: 4+10+2=16 and
        // 4+9+2=15 (merge included, out excluded) → avg 16 (15.5 → 16).
        let mut plan = plan_with(vec![1, 4, 10, 9, 2, 7]);
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.clock(head), 16);
        assert_eq!(plan.clock(a), 0);
        assert_eq!(plan.clock(b), 0);
        assert_eq!(plan.clock(m), 0);
        assert_eq!(plan.clock(out), 7, "out is beyond the region");
    }

    #[test]
    fn back_edges_bound_the_region() {
        // A loop whose header branches: back edge must not be followed.
        let mut fb = FunctionBuilder::new("l", 1);
        fb.block("entry"); // 0
        let h = fb.create_block("h"); // 1
        let a = fb.create_block("a"); // 2
        let b = fb.create_block("b"); // 3
        let latch = fb.create_block("latch"); // 4
        let x = fb.create_block("x"); // 5
        let p = fb.param(0);
        fb.br(h);
        fb.switch_to(h);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, a, x);
        fb.switch_to(a);
        let c2 = fb.cmp(CmpOp::Gt, p, 1);
        fb.cond_br(c2, b, latch);
        fb.switch_to(b);
        fb.br(latch);
        fb.switch_to(latch);
        fb.br(h); // back edge
        fb.switch_to(x);
        fb.ret_void();
        let f = fb.finish().unwrap();
        let (cfg, dom, loops) = analyses(&f);
        // From a(2): paths a->b->latch (stop at back edge) and a->latch.
        // totals 3+4+2=9, 3+2=5 — range 4 vs mean 7: 4 > 7/2.5 = 2.8 → not
        // tight, nothing changes.
        let mut plan = plan_with(vec![1, 2, 3, 4, 2, 6]);
        let before = plan.block_clock.clone();
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        assert_eq!(plan.block_clock, before);
    }

    #[test]
    fn continues_past_averaged_region() {
        // Two sequential diamonds: both get averaged independently.
        let mut fb = FunctionBuilder::new("2d", 1);
        fb.block("entry"); // 0: first branch
        let t1 = fb.create_block("t1"); // 1
        let e1 = fb.create_block("e1"); // 2
        let m1 = fb.create_block("m1"); // 3: second branch
        let t2 = fb.create_block("t2"); // 4
        let e2 = fb.create_block("e2"); // 5
        let m2 = fb.create_block("m2"); // 6
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, t1, e1);
        fb.switch_to(t1);
        fb.br(m1);
        fb.switch_to(e1);
        fb.br(m1);
        fb.switch_to(m1);
        let c2 = fb.cmp(CmpOp::Gt, p, 5);
        fb.cond_br(c2, t2, e2);
        fb.switch_to(t2);
        fb.br(m2);
        fb.switch_to(e2);
        fb.br(m2);
        fb.switch_to(m2);
        fb.ret_void();
        let f = fb.finish().unwrap();
        let (cfg, dom, loops) = analyses(&f);
        let mut plan = plan_with(vec![5, 10, 11, 3, 7, 8, 2]);
        apply_opt3(&cfg, &dom, &loops, ClockableParams::default(), &mut plan);
        // Whole function is one dominated region from entry with 4 tight
        // paths (5+10+3+7+2=27, 28, 26, 27... range small): entry absorbs
        // everything.
        assert!(plan.clock(BlockId(0)) > 0);
        for b in 1..7u32 {
            assert_eq!(plan.clock(BlockId(b)), 0, "bb{b}");
        }
    }
}
