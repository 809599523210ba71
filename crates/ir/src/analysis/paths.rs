//! Bounded enumeration of acyclic paths through a CFG region.
//!
//! Optimization 1 (*Function Clocking*) needs the clock totals of *all
//! paths* through a loop-free function (paper Fig. 4, `getClocksOfAllPaths`);
//! Optimization 3 (*Averaging of Clocks*) needs the totals of all paths
//! emanating from a block through the region it dominates (paper Fig. 11,
//! `getClocksOfAllOpt3Paths`). Both are served by [`enumerate_paths`], which
//! walks the CFG from a start block, accumulating a caller-supplied per-block
//! value, with a caller-supplied per-edge policy deciding how far paths
//! extend. The walk calls `block_value` once per *visit*, so callers look
//! the value up in a per-block table rather than compute it there.

use crate::analysis::cfg::Cfg;
use crate::types::BlockId;

/// Decision for extending a path along the edge `from -> to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Enter `to`, add its value, and keep walking.
    Follow,
    /// The path ends at `from` (recorded with its current total); `to` is
    /// not entered and not counted. Each such edge records its own
    /// truncated path — it represents a real dynamic continuation whose
    /// remainder lies outside the region.
    StopBefore,
    /// Enter `to`, add its value, and end the path there.
    StopAfter,
    /// The whole enumeration is invalid (e.g. region contains a construct
    /// the optimization cannot handle).
    Abort,
}

/// Result of a successful enumeration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSet {
    /// Accumulated value of every complete path (start block included).
    pub totals: Vec<u64>,
    /// Every block that appeared on at least one path (start included;
    /// `StopBefore` targets excluded). Sorted ascending.
    pub touched: Vec<BlockId>,
}

/// Result of [`enumerate_paths_recorded`]: like [`PathSet`] but the block
/// sequence of every path is retained, so a caller (the translation
/// validator) can point at the concrete worst path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedPaths {
    /// Accumulated value of every complete path (aligned with `routes`).
    pub totals: Vec<u64>,
    /// Block sequence of every path (start block first). A `StopBefore`
    /// edge's truncated path ends at the edge source; a `StopAfter` path
    /// includes the edge target.
    pub routes: Vec<Vec<BlockId>>,
}

/// Why an enumeration failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// The per-edge policy returned [`Step::Abort`].
    Aborted,
    /// More than `max_paths` paths exist.
    TooManyPaths,
    /// A block repeated within a single path (cycle not filtered by the
    /// policy).
    Cycle,
}

/// One block on the partial path the walk is extending.
struct Frame {
    block: BlockId,
    /// Accumulated value up to and including `block`.
    acc: u64,
    /// Index of the next successor of `block` to try.
    next_succ: usize,
}

/// The one depth-first walk behind both public enumerations. `path_end`
/// sees every complete path in DFS order: its total, the frames from
/// `start` to the last block walked into, and the target of the `StopAfter`
/// edge that ended it, if one did. Returns, per block, whether any path
/// entered it.
fn walk(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    mut block_value: impl FnMut(BlockId) -> u64,
    mut decide: impl FnMut(BlockId, BlockId) -> Step,
    mut path_end: impl FnMut(u64, &[Frame], Option<BlockId>),
) -> Result<Vec<bool>, PathError> {
    let mut touched = vec![false; cfg.len()];
    let mut on_path = vec![false; cfg.len()];
    let mut paths = 0usize;
    let mut end = |total: u64, stack: &[Frame], last: Option<BlockId>| {
        path_end(total, stack, last);
        paths += 1;
        if paths > max_paths {
            Err(PathError::TooManyPaths)
        } else {
            Ok(())
        }
    };

    let mut stack = vec![Frame {
        block: start,
        acc: block_value(start),
        next_succ: 0,
    }];
    touched[start.index()] = true;
    on_path[start.index()] = true;

    while let Some(top) = stack.last_mut() {
        let (from, acc) = (top.block, top.acc);
        let succs = cfg.succs(from);
        let Some(&to) = succs.get(top.next_succ) else {
            // All successors processed; terminal blocks end their path.
            if succs.is_empty() {
                end(acc, &stack, None)?;
            }
            on_path[from.index()] = false;
            stack.pop();
            continue;
        };
        top.next_succ += 1;
        let step = decide(from, to);
        match step {
            Step::Abort => return Err(PathError::Aborted),
            // The path ends at `from`; record its total as-is.
            Step::StopBefore => end(acc, &stack, None)?,
            Step::StopAfter | Step::Follow => {
                if on_path[to.index()] {
                    return Err(PathError::Cycle);
                }
                let acc = acc + block_value(to);
                touched[to.index()] = true;
                if step == Step::StopAfter {
                    end(acc, &stack, Some(to))?;
                } else {
                    on_path[to.index()] = true;
                    stack.push(Frame {
                        block: to,
                        acc,
                        next_succ: 0,
                    });
                }
            }
        }
    }
    Ok(touched)
}

/// Enumerate all paths from `start`.
///
/// * `block_value(b)` — the value accumulated when a path enters `b`.
/// * `decide(from, to)` — how to extend paths along each edge.
/// * `max_paths` — enumeration cap to bound the (potentially exponential)
///   walk; exceeded ⇒ `Err(TooManyPaths)`.
///
/// A path ends when it reaches a block with no successors, or when every
/// outgoing edge is `StopBefore`, or along a `StopAfter` edge.
pub fn enumerate_paths(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    block_value: impl FnMut(BlockId) -> u64,
    decide: impl FnMut(BlockId, BlockId) -> Step,
) -> Result<PathSet, PathError> {
    let mut totals = Vec::new();
    let touched = walk(cfg, start, max_paths, block_value, decide, |total, _, _| {
        totals.push(total)
    })?;
    let touched = (0..cfg.len() as u32)
        .map(BlockId)
        .filter(|b| touched[b.index()])
        .collect();
    Ok(PathSet { totals, touched })
}

/// [`enumerate_paths`] with the block sequence of every path retained: the
/// same walk, so `totals` come out in the same order.
pub fn enumerate_paths_recorded(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    block_value: impl FnMut(BlockId) -> u64,
    decide: impl FnMut(BlockId, BlockId) -> Step,
) -> Result<RecordedPaths, PathError> {
    let mut totals = Vec::new();
    let mut routes: Vec<Vec<BlockId>> = Vec::new();
    walk(
        cfg,
        start,
        max_paths,
        block_value,
        decide,
        |total, stack, last| {
            totals.push(total);
            routes.push(stack.iter().map(|f| f.block).chain(last).collect());
        },
    )?;
    Ok(RecordedPaths { totals, routes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;
    use crate::module::Function;

    /// Diamond with per-block "values" equal to block index + 1.
    fn diamond() -> Function {
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry"); // 0
        let t = fb.create_block("then"); // 1
        let e = fb.create_block("else"); // 2
        let m = fb.create_block("merge"); // 3
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

    fn val(b: BlockId) -> u64 {
        b.0 as u64 + 1
    }

    #[test]
    fn diamond_paths() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, _| Step::Follow).unwrap();
        let mut totals = ps.totals.clone();
        totals.sort();
        // entry(1)+then(2)+merge(4)=7 ; entry(1)+else(3)+merge(4)=8
        assert_eq!(totals, vec![7, 8]);
        assert_eq!(
            ps.touched,
            vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3)]
        );
    }

    #[test]
    fn stop_before_prunes_edge() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        // Never enter merge: both paths end at then/else.
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(3) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        })
        .unwrap();
        let mut totals = ps.totals.clone();
        totals.sort();
        assert_eq!(totals, vec![3, 4]); // 1+2, 1+3
        assert!(!ps.touched.contains(&BlockId(3)));
    }

    #[test]
    fn stop_after_includes_target_then_ends() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(3) {
                Step::StopAfter
            } else {
                Step::Follow
            }
        })
        .unwrap();
        let mut totals = ps.totals.clone();
        totals.sort();
        assert_eq!(totals, vec![7, 8]);
        assert!(ps.touched.contains(&BlockId(3)));
    }

    #[test]
    fn abort_propagates() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let r = enumerate_paths(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(2) {
                Step::Abort
            } else {
                Step::Follow
            }
        });
        assert_eq!(r.unwrap_err(), PathError::Aborted);
    }

    #[test]
    fn cycle_detected_when_policy_follows_back_edge() {
        let mut fb = FunctionBuilder::new("l", 1);
        fb.block("entry");
        let h = fb.create_block("h");
        fb.br(h);
        fb.switch_to(h);
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, h, BlockId(0)); // h -> h self loop and back to entry
        let f = fb.finish().unwrap();
        let cfg = Cfg::compute(&f);
        let r = enumerate_paths(&cfg, BlockId(0), 100, val, |_, _| Step::Follow);
        assert_eq!(r.unwrap_err(), PathError::Cycle);
    }

    #[test]
    fn too_many_paths() {
        // Chain of k diamonds => 2^k paths; cap below that.
        let mut fb = FunctionBuilder::new("many", 1);
        fb.block("entry");
        let mut prev_merge = BlockId(0);
        let p = fb.param(0);
        for i in 0..8 {
            let t = fb.create_block(format!("t{i}"));
            let e = fb.create_block(format!("e{i}"));
            let m = fb.create_block(format!("m{i}"));
            fb.switch_to(prev_merge);
            let c = fb.cmp(CmpOp::Gt, p, i);
            fb.cond_br(c, t, e);
            fb.switch_to(t);
            fb.br(m);
            fb.switch_to(e);
            fb.br(m);
            prev_merge = m;
        }
        fb.switch_to(prev_merge);
        fb.ret_void();
        let f = fb.finish().unwrap();
        let cfg = Cfg::compute(&f);
        let r = enumerate_paths(&cfg, BlockId(0), 10, |_| 1, |_, _| Step::Follow);
        assert_eq!(r.unwrap_err(), PathError::TooManyPaths);
        let ok = enumerate_paths(&cfg, BlockId(0), 1 << 12, |_| 1, |_, _| Step::Follow).unwrap();
        assert_eq!(ok.totals.len(), 256);
    }

    #[test]
    fn recorded_routes_align_with_totals() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let rp = enumerate_paths_recorded(&cfg, BlockId(0), 100, val, |_, _| Step::Follow).unwrap();
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, _| Step::Follow).unwrap();
        assert_eq!(rp.totals, ps.totals, "identical walk order");
        assert_eq!(rp.routes.len(), rp.totals.len());
        for (route, &total) in rp.routes.iter().zip(&rp.totals) {
            assert_eq!(route[0], BlockId(0));
            let sum: u64 = route.iter().map(|&b| val(b)).sum();
            assert_eq!(sum, total, "route {route:?} sums to its total");
        }
    }

    #[test]
    fn recorded_stop_before_route_ends_at_edge_source() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let rp = enumerate_paths_recorded(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(3) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        })
        .unwrap();
        for route in &rp.routes {
            assert!(!route.contains(&BlockId(3)));
        }
        let rp2 = enumerate_paths_recorded(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(3) {
                Step::StopAfter
            } else {
                Step::Follow
            }
        })
        .unwrap();
        for route in &rp2.routes {
            assert_eq!(*route.last().unwrap(), BlockId(3));
        }
    }

    /// Loop-shaped CFG (the block-level analogue of a recursive call):
    /// a <-> b mutual cycle. `StopBefore` on the back edge terminates; a
    /// policy that follows it must report `Cycle`, not hang — the lockset
    /// fixpoint and the validator both rely on this.
    fn mutual_loop() -> Function {
        let mut fb = FunctionBuilder::new("ml", 1);
        fb.block("entry"); // 0
        let a = fb.create_block("a"); // 1
        let b = fb.create_block("b"); // 2
        let out = fb.create_block("out"); // 3
        let p = fb.param(0);
        fb.br(a);
        fb.switch_to(a);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, b, out);
        fb.switch_to(b);
        fb.br(a); // closes the a <-> b cycle
        fb.switch_to(out);
        fb.ret_void();
        fb.finish().unwrap()
    }

    #[test]
    fn mutual_cycle_terminates_under_stop_before() {
        let f = mutual_loop();
        let cfg = Cfg::compute(&f);
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |from, to| {
            if from == BlockId(2) && to == BlockId(1) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        })
        .unwrap();
        let mut totals = ps.totals.clone();
        totals.sort_unstable();
        // entry+a+b truncated (1+2+3=6) and entry+a+out (1+2+4=7).
        assert_eq!(totals, vec![6, 7]);
        let rp = enumerate_paths_recorded(&cfg, BlockId(0), 100, val, |from, to| {
            if from == BlockId(2) && to == BlockId(1) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        })
        .unwrap();
        assert_eq!(rp.totals.len(), 2);
    }

    #[test]
    fn mutual_cycle_detected_when_followed() {
        let f = mutual_loop();
        let cfg = Cfg::compute(&f);
        let r = enumerate_paths(&cfg, BlockId(0), 100, val, |_, _| Step::Follow);
        assert_eq!(r.unwrap_err(), PathError::Cycle);
        let r = enumerate_paths_recorded(&cfg, BlockId(0), 100, val, |_, _| Step::Follow);
        assert_eq!(r.unwrap_err(), PathError::Cycle);
    }

    #[test]
    fn all_edges_stop_before_record_truncated_paths() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, _| Step::StopBefore).unwrap();
        // One truncated path per stopped edge (each is a real dynamic
        // continuation leaving the region).
        assert_eq!(ps.totals, vec![1, 1]);
        assert_eq!(ps.touched, vec![BlockId(0)]);
    }

    #[test]
    fn mixed_follow_and_stop_records_both() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        // Follow the then-arm, stop before the else-arm: the truncated
        // entry-only path must still be recorded (this is what keeps
        // Optimization 3 from averaging a region as if a pruned exit did
        // not exist).
        let ps = enumerate_paths(&cfg, BlockId(0), 100, val, |_, to| {
            if to == BlockId(2) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        })
        .unwrap();
        let mut t = ps.totals.clone();
        t.sort_unstable();
        assert_eq!(t, vec![1, 7]); // truncated at entry; entry+then+merge
    }
}
