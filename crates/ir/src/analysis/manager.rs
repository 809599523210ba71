//! Lazy caching of per-function analyses.
//!
//! Most instrumentation stages want the same three structural analyses —
//! [`Cfg`], [`DomTree`], [`LoopInfo`] — of a function. All three are pure
//! functions of the IR, so as long as nothing rewrites the function they
//! can be computed once and shared. The [`AnalysisManager`] owns that
//! cache: analyses are computed on first request and returned as cheap
//! [`Arc`] clones. A caller that rewrites the IR starts a fresh manager.
//!
//! Hit/miss counters are kept so callers (the pass pipeline, the serve
//! `/stats` endpoint) can observe how much recomputation the cache avoided.

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::DomTree;
use crate::analysis::loops::LoopInfo;
use crate::module::Function;
use crate::types::FuncId;
use std::sync::Arc;

/// Per-function cached analyses.
#[derive(Debug, Default)]
struct FuncSlot {
    cfg: Option<Arc<Cfg>>,
    dom: Option<Arc<DomTree>>,
    loops: Option<Arc<LoopInfo>>,
}

/// Lazily computes and caches [`Cfg`]/[`DomTree`]/[`LoopInfo`] per
/// function.
#[derive(Debug, Default)]
pub struct AnalysisManager {
    slots: Vec<FuncSlot>,
    hits: u64,
    misses: u64,
}

impl AnalysisManager {
    /// A manager for a module with `num_funcs` functions, with every cache
    /// slot empty.
    pub fn new(num_funcs: usize) -> AnalysisManager {
        AnalysisManager {
            slots: (0..num_funcs).map(|_| FuncSlot::default()).collect(),
            hits: 0,
            misses: 0,
        }
    }

    fn slot(&mut self, fid: FuncId) -> &mut FuncSlot {
        let i = fid.index();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, FuncSlot::default);
        }
        &mut self.slots[i]
    }

    /// The CFG of `func`, computed on first request.
    ///
    /// The caller is responsible for passing the function the manager's
    /// `fid` slot refers to; the manager never inspects module identity.
    pub fn cfg(&mut self, fid: FuncId, func: &Function) -> Arc<Cfg> {
        if let Some(cfg) = self.slot(fid).cfg.clone() {
            self.hits += 1;
            return cfg;
        }
        self.misses += 1;
        let cfg = Arc::new(Cfg::compute(func));
        self.slot(fid).cfg = Some(Arc::clone(&cfg));
        cfg
    }

    /// The dominator tree of `func` (computes the CFG first if needed).
    pub fn dom(&mut self, fid: FuncId, func: &Function) -> Arc<DomTree> {
        if let Some(dom) = self.slot(fid).dom.clone() {
            self.hits += 1;
            return dom;
        }
        let cfg = self.cfg(fid, func);
        self.misses += 1;
        let dom = Arc::new(DomTree::compute(&cfg));
        self.slot(fid).dom = Some(Arc::clone(&dom));
        dom
    }

    /// The natural-loop analysis of `func` (computes CFG and dominators
    /// first if needed).
    pub fn loops(&mut self, fid: FuncId, func: &Function) -> Arc<LoopInfo> {
        if let Some(loops) = self.slot(fid).loops.clone() {
            self.hits += 1;
            return loops;
        }
        let cfg = self.cfg(fid, func);
        let dom = self.dom(fid, func);
        self.misses += 1;
        let loops = Arc::new(LoopInfo::compute(&cfg, &dom));
        self.slot(fid).loops = Some(Arc::clone(&loops));
        loops
    }

    /// Requests served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.hits
    }

    /// Requests that had to compute the analysis.
    pub fn cache_misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;

    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry");
        let t = fb.create_block("then");
        let e = fb.create_block("else");
        let m = fb.create_block("merge");
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
    fn manager_is_send() {
        // The parallel compile pool hands one manager to each worker
        // thread; `Arc`-backed slots keep that sound.
        fn assert_send<T: Send>() {}
        assert_send::<AnalysisManager>();
    }

    #[test]
    fn second_request_hits_cache() {
        let f = diamond();
        let mut am = AnalysisManager::new(1);
        let a = am.cfg(FuncId(0), &f);
        assert_eq!(am.cache_misses(), 1);
        assert_eq!(am.cache_hits(), 0);
        let b = am.cfg(FuncId(0), &f);
        assert_eq!(am.cache_hits(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn dom_and_loops_share_the_cfg() {
        let f = diamond();
        let mut am = AnalysisManager::new(1);
        let _ = am.loops(FuncId(0), &f);
        // loops computed cfg + dom + loops: three misses (dom's internal
        // cfg fetch is already a hit)...
        assert_eq!(am.cache_misses(), 3);
        assert_eq!(am.cache_hits(), 1);
        // ...and asking again for any of the three is pure hits.
        let _ = am.cfg(FuncId(0), &f);
        let _ = am.dom(FuncId(0), &f);
        let _ = am.loops(FuncId(0), &f);
        assert_eq!(am.cache_misses(), 3);
        assert_eq!(am.cache_hits(), 4);
    }
}
