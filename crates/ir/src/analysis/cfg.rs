//! CFG shape queries: successor/predecessor maps, reverse post-order,
//! reachability.

use crate::module::Function;
use crate::types::BlockId;

/// Precomputed CFG edges for one function.
///
/// Both edge maps are flat: block `b`'s successors are
/// `succ[succ_start[b]..succ_start[b + 1]]`, and likewise for
/// predecessors, so a CFG is a handful of allocations whatever the block
/// count.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Successors of every block (deduplicated, in branch order), block
    /// after block.
    succ: Vec<BlockId>,
    /// `succ_start[b]..succ_start[b + 1]` indexes `b`'s successors.
    succ_start: Vec<u32>,
    /// Predecessors of every block (deduplicated, ascending), block after
    /// block.
    pred: Vec<BlockId>,
    /// `pred_start[b]..pred_start[b + 1]` indexes `b`'s predecessors.
    pred_start: Vec<u32>,
    /// Reverse post-order over reachable blocks, starting at the entry.
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] = position of b in rpo`, or `usize::MAX` if unreachable.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Compute the CFG for `func`.
    pub fn compute(func: &Function) -> Cfg {
        let n = func.blocks.len();
        let mut succ: Vec<BlockId> = Vec::with_capacity(n * 2);
        let mut succ_start: Vec<u32> = Vec::with_capacity(n + 1);
        // Predecessor counts, summed below into each block's end offset.
        let mut pred_start = vec![0u32; n + 1];
        for block in &func.blocks {
            let start = succ.len();
            succ_start.push(start as u32);
            for s in block.successors() {
                // A switch may repeat targets, even non-adjacently.
                if !succ[start..].contains(&s) {
                    succ.push(s);
                    pred_start[s.index()] += 1;
                }
            }
        }
        succ_start.push(succ.len() as u32);
        for b in 1..n {
            pred_start[b] += pred_start[b - 1];
        }
        pred_start[n] = succ.len() as u32;
        // Filling each list from its end while visiting blocks in
        // descending order leaves every predecessor list ascending (each
        // edge is seen once, so deduplicated) and moves each end offset
        // back to its start.
        let mut pred = vec![BlockId(0); succ.len()];
        for b in (0..n).rev() {
            for &s in &succ[succ_start[b] as usize..succ_start[b + 1] as usize] {
                pred_start[s.index()] -= 1;
                pred[pred_start[s.index()] as usize] = BlockId(b as u32);
            }
        }

        let mut cfg = Cfg {
            succ,
            succ_start,
            pred,
            pred_start,
            rpo: Vec::with_capacity(n),
            rpo_index: vec![usize::MAX; n],
        };
        // Iterative DFS post-order, then reverse. `rpo_index` doubles as the
        // visited mark until the real positions are written.
        let mut stack: Vec<(BlockId, usize)> = vec![(func.entry(), 0)];
        cfg.rpo_index[func.entry().index()] = 0;
        while let Some(&mut (bb, ref mut next)) = stack.last_mut() {
            let ss = cfg.succs(bb);
            if *next < ss.len() {
                let child = ss[*next];
                *next += 1;
                if cfg.rpo_index[child.index()] == usize::MAX {
                    cfg.rpo_index[child.index()] = 0;
                    stack.push((child, 0));
                }
            } else {
                cfg.rpo.push(bb);
                stack.pop();
            }
        }
        cfg.rpo.reverse();
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_index[b.index()] = i;
        }
        cfg
    }

    /// Successors of `b`.
    #[inline]
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.succ[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// Predecessors of `b`.
    #[inline]
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        let i = b.index();
        &self.pred[self.pred_start[i] as usize..self.pred_start[i + 1] as usize]
    }

    /// Whether `b` is reachable from the entry.
    #[inline]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()] != usize::MAX
    }

    /// Number of blocks (including unreachable ones).
    #[inline]
    pub fn len(&self) -> usize {
        self.rpo_index.len()
    }

    /// True when the function has no blocks (cannot normally happen for a
    /// verified function).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rpo_index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;

    /// entry -> {then, else} -> merge -> ret ; plus an unreachable block.
    fn diamond_with_unreachable() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        let entry = fb.block("entry");
        let t = fb.create_block("then");
        let e = fb.create_block("else");
        let m = fb.create_block("merge");
        let u = fb.create_block("unreachable");
        let c = {
            let p = fb.param(0);
            fb.cmp(CmpOp::Gt, p, 0)
        };
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.br(m);
        fb.switch_to(e);
        fb.br(m);
        fb.switch_to(m);
        fb.ret_void();
        fb.switch_to(u);
        fb.ret_void();
        let f = fb.finish().unwrap();
        assert_eq!(entry, BlockId(0));
        f
    }

    #[test]
    fn preds_and_succs() {
        let f = diamond_with_unreachable();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(3)), &[BlockId(1), BlockId(2)]);
        assert_eq!(cfg.preds(BlockId(0)), &[] as &[BlockId]);
    }

    #[test]
    fn rpo_starts_at_entry_and_respects_order() {
        let f = diamond_with_unreachable();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.rpo[0], BlockId(0));
        // merge must come after both then and else in RPO.
        let pos = |b: BlockId| cfg.rpo_index[b.index()];
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_detected() {
        let f = diamond_with_unreachable();
        let cfg = Cfg::compute(&f);
        assert!(!cfg.is_reachable(BlockId(4)));
        assert!(cfg.is_reachable(BlockId(3)));
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(cfg.len(), 5);
    }

    #[test]
    fn duplicate_switch_targets_deduplicated() {
        let mut fb = FunctionBuilder::new("s", 1);
        fb.block("entry");
        let a = fb.create_block("a");
        let p = fb.param(0);
        fb.switch(p, vec![(0, a), (1, a)], a);
        fb.switch_to(a);
        fb.ret_void();
        let f = fb.finish().unwrap();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs(BlockId(0)), &[a]);
        assert_eq!(cfg.preds(a), &[BlockId(0)]);
    }

    #[test]
    fn self_loop() {
        let mut fb = FunctionBuilder::new("l", 1);
        let entry = fb.block("entry");
        let body = fb.create_block("body");
        fb.br(body);
        fb.switch_to(body);
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, body, entry /* irreducible-ish back to entry */);
        let f = fb.finish().unwrap();
        let cfg = Cfg::compute(&f);
        assert!(cfg.succs(body).contains(&body));
        assert!(cfg.preds(body).contains(&body));
        assert_eq!(cfg.rpo.len(), 2);
    }
}
