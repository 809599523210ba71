//! Acyclic paths through a CFG region: summarized, or enumerated.
//!
//! Optimization 1 (*Function Clocking*) decides on the clock totals of *all
//! paths* through a loop-free function (paper Fig. 4, `getClocksOfAllPaths`);
//! Optimization 3 (*Averaging of Clocks*) on the totals of all paths
//! emanating from a block through the region it dominates (paper Fig. 11,
//! `getClocksOfAllOpt3Paths`). Both read only the set's count, mean, range
//! and standard deviation, so both take [`path_stats`]: one depth-first
//! pass over the blocks that keeps, per block, the count, sum, sum of
//! squares, minimum and maximum of the totals of the paths leaving it
//! (the DAG recurrence of Ball & Larus's path numbering). Its cost is
//! linear in the region's edges, not in its paths.
//!
//! The translation validator needs the paths themselves: the totals, to
//! re-derive an O1 mean by a walk independent of the summary, and each
//! route, to point at the worst one. [`enumerate_paths`] and
//! [`enumerate_paths_recorded`] walk every path, up to a cap.
//!
//! All three take a start block, a per-block value accumulated along a
//! path, and a per-edge policy, and agree on what a path is: it ends at a
//! block with no successors, or at the source of a [`Step::StopBefore`]
//! edge (one path per such edge). They give `Err` alike: when a
//! [`Step::Follow`] edge closes a cycle, or when more than `max_paths` paths
//! exist.

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
}

/// Count, moments and range of a set of path totals: everything the
/// tightness test (`detlock_passes::opt1::tight_average`) reads. The
/// moments are exact integers, so a summary does not depend on the order
/// its paths were found in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStats {
    /// Number of paths.
    pub count: u64,
    /// Sum of the totals.
    pub sum: u128,
    /// Sum of the squared totals.
    pub sum_sq: u128,
    /// Smallest total (0 when `count` is 0).
    pub min: u64,
    /// Largest total (0 when `count` is 0).
    pub max: u64,
}

impl PathStats {
    /// The summary of an explicit list of totals, for callers that
    /// enumerate.
    pub fn of(totals: &[u64]) -> PathStats {
        let mut stats = PathStats::default();
        for &t in totals {
            stats.add(PathStats::point(t));
        }
        stats
    }

    /// One path of total `t`.
    fn point(t: u64) -> PathStats {
        let t2 = t as u128;
        PathStats {
            count: 1,
            sum: t2,
            sum_sq: t2 * t2,
            min: t,
            max: t,
        }
    }

    /// Fold the paths of `other` into `self`.
    fn add(&mut self, other: PathStats) {
        if self.count == 0 {
            *self = other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Every total raised by `v`: `(t + v)² = t² + 2vt + v²`.
    fn shifted(self, v: u64) -> PathStats {
        let (v2, n) = (v as u128, self.count as u128);
        PathStats {
            count: self.count,
            sum: self.sum + v2 * n,
            sum_sq: self.sum_sq + 2 * v2 * self.sum + v2 * v2 * n,
            min: self.min + v,
            max: self.max + v,
        }
    }
}

/// Result of [`path_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSummary {
    /// The totals of every path from the start block.
    pub stats: PathStats,
    /// Every block that appears on at least one path (start included;
    /// `StopBefore` targets excluded). Sorted ascending.
    pub touched: Vec<BlockId>,
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
    /// edge's truncated path ends at the edge source.
    pub routes: Vec<Vec<BlockId>>,
}

/// Why a summary or an enumeration failed. Both fail on the same regions,
/// but where a region has a cycle *and* too many paths the two may name
/// different reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathError {
    /// More than `max_paths` paths exist.
    TooManyPaths,
    /// A block repeated within a single path (cycle not filtered by the
    /// policy).
    Cycle,
}

/// DFS colour of a block in [`path_stats`].
#[derive(Clone, Copy, PartialEq, Eq)]
enum Visit {
    New,
    /// On the DFS stack: a `Follow` edge into it closes a cycle.
    Open,
    /// Its summary is final.
    Done,
}

/// Summarize all paths from `start` in one pass over the blocks.
///
/// Takes the same arguments as [`enumerate_paths`] and succeeds exactly
/// when it does, with `stats == PathStats::of(&totals)` and the same
/// touched set. Each block reachable along `Follow` edges is finished
/// after its successors, and its value is read once. A block's summary is
/// the sum over its successor edges, in `cfg.succs` order: a `Follow`
/// edge contributes its target's summary, a `StopBefore` edge one path of
/// total zero, and a block with no successors one path of total zero;
/// then every total is raised by the block's value. The first block whose
/// path count passes `max_paths` ends the pass with `TooManyPaths` (every
/// path from it extends to a distinct path from `start`), so the cap is a
/// semantic threshold, not a bound on cost.
///
/// The moments are exact while every total stays below 2^50 (then
/// `count · sum_sq` fits in `u128` for up to 4 096 paths).
pub fn path_stats(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    mut block_value: impl FnMut(BlockId) -> u64,
    mut decide: impl FnMut(BlockId, BlockId) -> Step,
) -> Result<PathSummary, PathError> {
    let mut visit = vec![Visit::New; cfg.len()];
    // While a block is open: the summary of its successor edges so far.
    let mut stats = vec![PathStats::default(); cfg.len()];
    // (block, index of the next successor to take).
    let mut stack = Vec::with_capacity(cfg.len());
    stack.push((start, 0usize));
    visit[start.index()] = Visit::Open;

    while let Some(top) = stack.last_mut() {
        let (from, next) = *top;
        let b = from.index();
        let succs = cfg.succs(from);
        let Some(&to) = succs.get(next) else {
            // Every successor is in: close the block.
            if succs.is_empty() {
                stats[b] = PathStats::point(0);
            }
            if stats[b].count > max_paths as u64 {
                return Err(PathError::TooManyPaths);
            }
            stats[b] = stats[b].shifted(block_value(from));
            visit[b] = Visit::Done;
            stack.pop();
            if let Some(&(parent, _)) = stack.last() {
                let closed = stats[b];
                stats[parent.index()].add(closed);
            }
            continue;
        };
        top.1 += 1;
        match decide(from, to) {
            Step::StopBefore => stats[b].add(PathStats::point(0)),
            Step::Follow => match visit[to.index()] {
                Visit::Open => return Err(PathError::Cycle),
                Visit::Done => {
                    let done = stats[to.index()];
                    stats[b].add(done);
                }
                Visit::New => {
                    visit[to.index()] = Visit::Open;
                    stack.push((to, 0));
                }
            },
        }
    }
    let mut touched = Vec::with_capacity(cfg.len());
    touched.extend(
        (0..cfg.len() as u32)
            .map(BlockId)
            .filter(|b| visit[b.index()] == Visit::Done),
    );
    Ok(PathSummary {
        stats: stats[start.index()],
        touched,
    })
}

/// One block on the partial path the walk is extending.
struct Frame {
    block: BlockId,
    /// Accumulated value up to and including `block`.
    acc: u64,
    /// Index of the next successor of `block` to try.
    next_succ: usize,
}

/// The one depth-first walk behind both enumerations. `path_end` sees
/// every complete path in DFS order: its total and the frames from `start`
/// to the block it ends at. Returns, per block, whether any path entered
/// it.
fn walk(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    mut block_value: impl FnMut(BlockId) -> u64,
    mut decide: impl FnMut(BlockId, BlockId) -> Step,
    mut path_end: impl FnMut(u64, &[Frame]),
) -> Result<Vec<bool>, PathError> {
    let mut touched = vec![false; cfg.len()];
    let mut on_path = vec![false; cfg.len()];
    let mut paths = 0usize;
    let mut end = |total: u64, stack: &[Frame]| {
        path_end(total, stack);
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
                end(acc, &stack)?;
            }
            on_path[from.index()] = false;
            stack.pop();
            continue;
        };
        top.next_succ += 1;
        match decide(from, to) {
            // The path ends at `from`; record its total as-is.
            Step::StopBefore => end(acc, &stack)?,
            Step::Follow => {
                if on_path[to.index()] {
                    return Err(PathError::Cycle);
                }
                touched[to.index()] = true;
                on_path[to.index()] = true;
                stack.push(Frame {
                    block: to,
                    acc: acc + block_value(to),
                    next_succ: 0,
                });
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
/// A path ends when it reaches a block with no successors, or along each
/// `StopBefore` edge. The walk calls `block_value` once per *visit*, so
/// callers look the value up in a per-block table rather than compute it
/// there.
pub fn enumerate_paths(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    block_value: impl FnMut(BlockId) -> u64,
    decide: impl FnMut(BlockId, BlockId) -> Step,
) -> Result<PathSet, PathError> {
    let mut totals = Vec::new();
    let touched = walk(cfg, start, max_paths, block_value, decide, |total, _| {
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
        |total, stack| {
            totals.push(total);
            routes.push(stack.iter().map(|f| f.block).collect());
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

    /// Chain of `k` diamonds: 2^k paths.
    fn diamond_chain(k: i64) -> Function {
        let mut fb = FunctionBuilder::new("many", 1);
        fb.block("entry");
        let mut prev_merge = BlockId(0);
        let p = fb.param(0);
        for i in 0..k {
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
        fb.finish().unwrap()
    }

    #[test]
    fn too_many_paths() {
        // Chain of 8 diamonds => 256 paths; cap below that.
        let f = diamond_chain(8);
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

    /// `path_stats` against the enumeration it summarizes: the same
    /// verdict, and on success the same touched set and the moments of the
    /// enumerated totals.
    fn summary_agrees(
        cfg: &Cfg,
        max_paths: usize,
        decide: impl Fn(BlockId, BlockId) -> Step,
    ) -> Result<PathSummary, PathError> {
        let sum = path_stats(cfg, BlockId(0), max_paths, val, &decide);
        match enumerate_paths(cfg, BlockId(0), max_paths, val, &decide) {
            Ok(ps) => {
                let sum = sum.as_ref().expect("enumeration succeeded");
                assert_eq!(sum.stats, PathStats::of(&ps.totals));
                assert_eq!(sum.touched, ps.touched);
            }
            Err(_) => assert!(sum.is_err(), "enumeration failed, summary did not"),
        }
        sum
    }

    #[test]
    fn summary_of_a_diamond() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let s = summary_agrees(&cfg, 100, |_, _| Step::Follow).unwrap();
        assert_eq!(
            s.stats,
            PathStats {
                count: 2,
                sum: 15,
                sum_sq: 49 + 64,
                min: 7,
                max: 8
            }
        );
        assert_eq!(s.touched.len(), 4);
        // Stopping before the merge, before the else-arm, and everywhere.
        let merge = summary_agrees(&cfg, 100, |_, to| {
            if to == BlockId(3) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        });
        assert_eq!(merge.unwrap().stats, PathStats::of(&[3, 4]));
        let arm = summary_agrees(&cfg, 100, |_, to| {
            if to == BlockId(2) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        });
        assert_eq!(arm.unwrap().stats, PathStats::of(&[1, 7]));
        let all = summary_agrees(&cfg, 100, |_, _| Step::StopBefore).unwrap();
        assert_eq!(all.stats, PathStats::of(&[1, 1]));
        assert_eq!(all.touched, vec![BlockId(0)]);
    }

    #[test]
    fn summary_refuses_cycles_and_counts_over_the_cap() {
        let f = mutual_loop();
        let cfg = Cfg::compute(&f);
        let cut = summary_agrees(&cfg, 100, |from, to| {
            if from == BlockId(2) && to == BlockId(1) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        });
        assert_eq!(cut.unwrap().stats, PathStats::of(&[6, 7]));
        let followed = summary_agrees(&cfg, 100, |_, _| Step::Follow);
        assert_eq!(followed.unwrap_err(), PathError::Cycle);

        let f = diamond_chain(8);
        let cfg = Cfg::compute(&f);
        assert_eq!(
            summary_agrees(&cfg, 256, |_, _| Step::Follow)
                .unwrap()
                .stats
                .count,
            256
        );
        let over = summary_agrees(&cfg, 255, |_, _| Step::Follow);
        assert_eq!(over.unwrap_err(), PathError::TooManyPaths);
        // No successors: one path, which a cap of zero refuses.
        let leaf = path_stats(&cfg, BlockId(24), 0, val, |_, _| Step::Follow);
        assert_eq!(leaf.unwrap_err(), PathError::TooManyPaths);
    }

    #[test]
    fn shifted_moments_are_the_moments_of_the_shifted_totals() {
        let totals = [3u64, 9, 9, 14];
        let raised: Vec<u64> = totals.iter().map(|t| t + 11).collect();
        assert_eq!(PathStats::of(&totals).shifted(11), PathStats::of(&raised));
        let mut merged = PathStats::of(&totals[..1]);
        merged.add(PathStats::of(&totals[1..]));
        assert_eq!(merged, PathStats::of(&totals));
        assert_eq!(PathStats::of(&[]), PathStats::default());
    }
}
