//! Lazy, invalidation-aware caching of per-function analyses.
//!
//! The instrumentation pipeline is a sequence of passes, and most of them
//! want the same three structural analyses — [`Cfg`], [`DomTree`],
//! [`LoopInfo`] — plus the set of acyclic routes through a function. All of
//! these are pure functions of the IR, so as long as no pass mutates the
//! module they can be computed once and shared. The [`AnalysisManager`]
//! owns that cache: analyses are computed on first request, returned as
//! cheap [`Arc`] clones, and dropped when a pass declares (via
//! [`PreservedAnalyses`]) that it changed the underlying IR.
//!
//! Hit/miss counters are kept so callers (the pass pipeline, the serve
//! `/stats` endpoint) can observe how much recomputation the cache avoided.

use crate::analysis::cfg::Cfg;
use crate::analysis::dom::DomTree;
use crate::analysis::loops::LoopInfo;
use crate::analysis::paths::{enumerate_paths_recorded, PathError, Step};
use crate::module::Function;
use crate::types::{BlockId, FuncId};
use std::sync::Arc;

/// What a pass declares about the analyses that were valid before it ran.
///
/// Passes that only rewrite derived data (clock plans, certificates) leave
/// the IR untouched and preserve everything; passes that restructure the
/// module (block splitting, tick materialization) preserve nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreservedAnalyses {
    /// The IR is unchanged: every cached analysis remains valid.
    All,
    /// The IR changed: every cached analysis must be recomputed on demand.
    None,
}

/// How cached acyclic routes through a function were enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathPolicy {
    /// Follow every CFG edge (only terminates on acyclic CFGs; a cycle is
    /// reported as [`PathError::Cycle`], exactly like a direct enumeration).
    FollowAll,
    /// Stop before natural-loop back edges, so each route is one acyclic
    /// traversal with loop re-entries truncated at the latch.
    CutBackEdges,
}

/// One cached route enumeration: the policy and cap it was computed under,
/// and its outcome.
#[derive(Debug, Clone)]
struct RouteEntry {
    policy: PathPolicy,
    cap: usize,
    result: Result<Arc<Vec<Vec<BlockId>>>, PathError>,
}

/// Per-function cached analyses.
#[derive(Debug, Clone, Default)]
struct FuncSlot {
    cfg: Option<Arc<Cfg>>,
    dom: Option<Arc<DomTree>>,
    loops: Option<Arc<LoopInfo>>,
    routes: Vec<RouteEntry>,
}

impl FuncSlot {
    fn clear(&mut self) {
        *self = FuncSlot::default();
    }
}

/// Lazily computes and caches [`Cfg`]/[`DomTree`]/[`LoopInfo`]/route
/// summaries per function, with invalidation driven by pass preservation
/// declarations.
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

    /// The block sequences of every path from the entry of `func` under
    /// `policy`, capped at `max_paths` (exceeding the cap yields
    /// [`PathError::TooManyPaths`], exactly like a direct enumeration).
    ///
    /// Routes are value-independent: callers re-derive path totals by
    /// summing their own per-block value over each route, so one
    /// enumeration serves every check of the translation validator on a
    /// function (its only caller; O1 walks the paths without naming them).
    pub fn entry_routes(
        &mut self,
        fid: FuncId,
        func: &Function,
        policy: PathPolicy,
        max_paths: usize,
    ) -> Result<Arc<Vec<Vec<BlockId>>>, PathError> {
        if let Some(entry) = self
            .slot(fid)
            .routes
            .iter()
            .find(|e| e.policy == policy)
            .cloned()
        {
            match &entry.result {
                Ok(routes) => {
                    // A complete enumeration found `routes.len()` paths; any
                    // cap at least that large reproduces it, any smaller cap
                    // would have overflowed mid-walk.
                    self.hits += 1;
                    return if routes.len() <= max_paths {
                        Ok(Arc::clone(routes))
                    } else {
                        Err(PathError::TooManyPaths)
                    };
                }
                Err(PathError::TooManyPaths) if max_paths <= entry.cap => {
                    self.hits += 1;
                    return Err(PathError::TooManyPaths);
                }
                Err(PathError::TooManyPaths) => {} // larger cap: recompute
                Err(e) => {
                    // Cycle/Abort depend only on the CFG and policy.
                    self.hits += 1;
                    return Err(*e);
                }
            }
        }
        self.misses += 1;
        let result = self.compute_routes(fid, func, policy, max_paths);
        let slot = self.slot(fid);
        slot.routes.retain(|e| e.policy != policy);
        slot.routes.push(RouteEntry {
            policy,
            cap: max_paths,
            result: result.clone(),
        });
        result
    }

    fn compute_routes(
        &mut self,
        fid: FuncId,
        func: &Function,
        policy: PathPolicy,
        max_paths: usize,
    ) -> Result<Arc<Vec<Vec<BlockId>>>, PathError> {
        let cfg = self.cfg(fid, func);
        let recorded = match policy {
            PathPolicy::FollowAll => {
                enumerate_paths_recorded(&cfg, func.entry(), max_paths, |_| 0, |_, _| Step::Follow)?
            }
            PathPolicy::CutBackEdges => {
                let loops = self.loops(fid, func);
                enumerate_paths_recorded(
                    &cfg,
                    func.entry(),
                    max_paths,
                    |_| 0,
                    |from, to| {
                        if loops.is_back_edge(from, to) {
                            Step::StopBefore
                        } else {
                            Step::Follow
                        }
                    },
                )?
            }
        };
        Ok(Arc::new(recorded.routes))
    }

    /// Drop every cached analysis for one function.
    pub fn invalidate(&mut self, fid: FuncId) {
        self.slot(fid).clear();
    }

    /// Drop every cached analysis for every function.
    pub fn invalidate_all(&mut self) {
        for slot in &mut self.slots {
            slot.clear();
        }
    }

    /// Apply a pass's preservation declaration: [`PreservedAnalyses::All`]
    /// keeps the cache, [`PreservedAnalyses::None`] clears it.
    pub fn apply_preservation(&mut self, preserved: PreservedAnalyses) {
        match preserved {
            PreservedAnalyses::All => {}
            PreservedAnalyses::None => self.invalidate_all(),
        }
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

    fn looper() -> Function {
        let mut fb = FunctionBuilder::new("l", 1);
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
        fb.br(h);
        fb.switch_to(x);
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

    #[test]
    fn invalidation_forces_recompute() {
        let f = diamond();
        let mut am = AnalysisManager::new(1);
        let _ = am.cfg(FuncId(0), &f);
        am.apply_preservation(PreservedAnalyses::All);
        let _ = am.cfg(FuncId(0), &f);
        assert_eq!((am.cache_hits(), am.cache_misses()), (1, 1));
        am.apply_preservation(PreservedAnalyses::None);
        let _ = am.cfg(FuncId(0), &f);
        assert_eq!((am.cache_hits(), am.cache_misses()), (1, 2));
    }

    #[test]
    fn routes_match_direct_enumeration() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let direct =
            enumerate_paths_recorded(&cfg, f.entry(), 100, |_| 0, |_, _| Step::Follow).unwrap();
        let mut am = AnalysisManager::new(1);
        let routes = am
            .entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 100)
            .unwrap();
        assert_eq!(*routes, direct.routes);
        // Cached on the second request.
        let h = am.cache_hits();
        let again = am
            .entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 100)
            .unwrap();
        assert!(Arc::ptr_eq(&routes, &again));
        assert_eq!(am.cache_hits(), h + 1);
    }

    #[test]
    fn route_cap_semantics_survive_caching() {
        let f = diamond(); // two paths
        let mut am = AnalysisManager::new(1);
        let ok = am.entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 100);
        assert_eq!(ok.unwrap().len(), 2);
        // A smaller cap than the cached route count must fail exactly like
        // a direct enumeration with that cap would.
        let err = am.entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 1);
        assert_eq!(err.unwrap_err(), PathError::TooManyPaths);
        // A cached TooManyPaths is only trusted up to its cap.
        let mut am = AnalysisManager::new(1);
        assert_eq!(
            am.entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 1)
                .unwrap_err(),
            PathError::TooManyPaths
        );
        let ok = am.entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 100);
        assert_eq!(ok.unwrap().len(), 2);
    }

    #[test]
    fn cut_back_edges_truncates_loops() {
        let f = looper();
        let mut am = AnalysisManager::new(1);
        // Following everything in a loopy CFG is a cycle error…
        assert_eq!(
            am.entry_routes(FuncId(0), &f, PathPolicy::FollowAll, 100)
                .unwrap_err(),
            PathError::Cycle
        );
        // …but cutting back edges yields finite acyclic routes.
        let routes = am
            .entry_routes(FuncId(0), &f, PathPolicy::CutBackEdges, 100)
            .unwrap();
        assert!(!routes.is_empty());
    }
}
