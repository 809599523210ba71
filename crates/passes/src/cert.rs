//! The plan certificate — the artifact the translation validator consumes.
//!
//! [`instrument`](crate::pipeline::instrument) emits a [`PlanCert`] alongside
//! the instrumented module: a self-contained record of *what the pipeline
//! claims it did* (which functions were clocked and at what value, the static
//! clock planned per block of the split module, the tick placement, and the
//! divergence bound the enabled optimizations are allowed). A validator can
//! then check the claim against the pre-instrumentation module and the
//! emitted binary without trusting any pipeline internals: the cert is the
//! proof obligation, not the proof.

use crate::opt1::ClockableParams;
use crate::pipeline::OptConfig;
use crate::plan::{ModulePlan, Placement};

/// One plan pass's contribution to the module cert's divergence
/// obligations — the delta cert the pipeline collects for each pass and
/// composes into the [`PlanCert`]. Keeping the deltas alongside the
/// composed bound lets the validator name the pass that most plausibly
/// broke an obligation instead of rejecting the whole plan anonymously.
#[derive(Debug, Clone, PartialEq)]
pub struct PassCert {
    /// The pass that produced this delta (see constants in [`crate::pass`]).
    pub pass: &'static str,
    /// The per-path fractional divergence this pass may introduce.
    pub frac_bound: f64,
    /// Per function: the absolute clock mass this pass's approximate
    /// rewrites moved (nonzero only for O2b).
    pub o2b_slack: Vec<u64>,
    /// `Some(threshold)` when this pass may shift up to the threshold per
    /// loop back edge (O4's latch merging).
    pub o4_latch_threshold: Option<u64>,
}

/// What the instrumentation pipeline claims about its output.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCert {
    /// Where static ticks were placed in each block.
    pub placement: Placement,
    /// Per function: `Some(mean)` when O1 clocked it (call sites charge the
    /// mean, the body carries no ticks), `None` otherwise.
    pub clocked: Vec<Option<u64>>,
    /// Per function, per block of the *split* module: the static clock the
    /// pipeline planned. Index-aligned with the split module's blocks.
    pub block_clock: Vec<Vec<u64>>,
    /// Tightness thresholds used by O1/O3 — the validator re-checks clocked
    /// means with `tight_average` under the same parameters.
    pub clockable: ClockableParams,
    /// Claimed per-path fractional divergence bound: O3's
    /// `1/(range_divisor - 1)` from the tight-average criterion when O3 ran,
    /// zero otherwise. (O2b's divergence is *not* a per-path fraction — see
    /// [`o2b_slack`](Self::o2b_slack).)
    pub frac_bound: f64,
    /// Per function: the total clock mass O2b's approximate moves relocated.
    /// Each move perturbs any single path by at most its own moved amount
    /// (the move is exact on the `upper→endSucc` and `upper→middle→endSucc`
    /// paths and off by exactly `moved` on `middle`'s other exits), so the
    /// per-function sum is an absolute bound on any path's |planned − true|
    /// contribution from O2b. The pass bounds each individual move by
    /// `max_divergence` of the surrounding loop (or function) mass, but
    /// several moves may stack on one path — a per-path *fraction* is not
    /// something O2b promises, so the cert records the absolute claim.
    pub o2b_slack: Vec<u64>,
    /// `Some(threshold)` when O4 ran: each loop's exit path may additionally
    /// diverge by up to the merged latch clock, which is below this
    /// threshold (absolute slack per back edge, not a fraction).
    pub o4_latch_threshold: Option<u64>,
    /// The per-pass delta certs the composed obligations above were summed
    /// from, in pipeline order (empty for hand-built certs).
    pub pass_certs: Vec<PassCert>,
}

impl PlanCert {
    /// Compose per-pass delta certs into the module certificate: fractional
    /// bounds and absolute slacks add, the latch threshold is the largest
    /// any pass claimed.
    pub fn from_passes(
        config: &OptConfig,
        plan: &ModulePlan,
        pass_certs: Vec<PassCert>,
    ) -> PlanCert {
        let mut frac_bound = 0.0;
        let mut o2b_slack = vec![0u64; plan.funcs.len()];
        let mut o4_latch_threshold: Option<u64> = None;
        for pc in &pass_certs {
            frac_bound += pc.frac_bound;
            for (total, s) in o2b_slack.iter_mut().zip(&pc.o2b_slack) {
                *total += s;
            }
            if let Some(t) = pc.o4_latch_threshold {
                o4_latch_threshold = Some(o4_latch_threshold.map_or(t, |cur| cur.max(t)));
            }
        }
        PlanCert {
            placement: plan.placement,
            clocked: plan.clocked.clone(),
            block_clock: plan.funcs.iter().map(|f| f.block_clock.clone()).collect(),
            clockable: config.clockable,
            frac_bound,
            o2b_slack,
            o4_latch_threshold,
            pass_certs,
        }
    }

    /// The pass most plausibly responsible for a path-sum violation in
    /// function `fid`: the approximate pass with the largest claimed slack
    /// there, falling back to the fractional (O3) and then latch (O4)
    /// claimants. `None` when every registered pass was precise — a
    /// violation then means the plan itself is wrong, not over-approximated.
    pub fn suspect_for_path_sum(&self, fid: usize) -> Option<&'static str> {
        if let Some(pc) = self
            .pass_certs
            .iter()
            .filter(|pc| pc.o2b_slack.get(fid).copied().unwrap_or(0) > 0)
            .max_by_key(|pc| pc.o2b_slack.get(fid).copied().unwrap_or(0))
        {
            return Some(pc.pass);
        }
        if let Some(pc) = self.pass_certs.iter().find(|pc| pc.frac_bound > 0.0) {
            return Some(pc.pass);
        }
        self.pass_certs
            .iter()
            .find(|pc| pc.o4_latch_threshold.is_some())
            .map(|pc| pc.pass)
    }

    /// Whether the cert claims exact path sums (every enabled transformation
    /// preserves per-path clock totals).
    pub fn is_exact(&self) -> bool {
        self.frac_bound == 0.0
            && self.o4_latch_threshold.is_none()
            && self.o2b_slack.iter().all(|&s| s == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{PASS_O2A, PASS_O2B, PASS_O3, PASS_O4};
    use crate::plan::FuncPlan;

    fn dummy_plan() -> ModulePlan {
        ModulePlan {
            placement: Placement::Start,
            clocked: vec![None, Some(7)],
            funcs: vec![
                FuncPlan {
                    block_clock: vec![3, 0, 5],
                    pinned: vec![false, true, false],
                },
                FuncPlan {
                    block_clock: vec![0],
                    pinned: vec![false],
                },
            ],
        }
    }

    fn delta(pass: &'static str, frac_bound: f64, slack: [u64; 2], latch: Option<u64>) -> PassCert {
        PassCert {
            pass,
            frac_bound,
            o2b_slack: slack.to_vec(),
            o4_latch_threshold: latch,
        }
    }

    fn compose(passes: Vec<PassCert>) -> PlanCert {
        PlanCert::from_passes(&OptConfig::all(), &dummy_plan(), passes)
    }

    #[test]
    fn exactness_follows_the_pass_certs() {
        assert!(compose(vec![]).is_exact());
        // O2a and an O2b that moved nothing are exact...
        let c = compose(vec![
            delta(PASS_O2A, 0.0, [0, 0], None),
            delta(PASS_O2B, 0.0, [0, 0], None),
        ]);
        assert!(c.is_exact());
        assert_eq!(c.frac_bound, 0.0);
        // ...but any reported O2b move makes the cert approximate.
        let c = compose(vec![delta(PASS_O2B, 0.0, [3, 0], None)]);
        assert!(!c.is_exact());
        assert_eq!(c.o2b_slack, vec![3, 0]);
        // A fractional bound or a latch threshold does too.
        let c = compose(vec![delta(PASS_O3, 0.25, [0, 0], None)]);
        assert!(!c.is_exact());
        assert_eq!(c.frac_bound, 0.25);
        let c = compose(vec![delta(PASS_O4, 0.0, [0, 0], Some(16))]);
        assert!(!c.is_exact());
        assert_eq!(c.o4_latch_threshold, Some(16));
        assert_eq!(c.frac_bound, 0.0);
    }

    #[test]
    fn cert_copies_the_plan() {
        let c = compose(vec![]);
        assert_eq!(c.clocked, vec![None, Some(7)]);
        assert_eq!(c.block_clock, vec![vec![3, 0, 5], vec![0]]);
        assert_eq!(c.placement, Placement::Start);
        assert_eq!(c.clockable, OptConfig::all().clockable);
    }

    #[test]
    fn pass_certs_compose_and_name_suspects() {
        let c = compose(vec![
            delta(PASS_O2A, 0.0, [0, 0], None),
            delta(PASS_O2B, 0.0, [4, 0], None),
            delta(PASS_O3, 0.25, [1, 0], None),
            delta(PASS_O4, 0.125, [0, 0], Some(16)),
        ]);
        // Fractional bounds and slacks add; the latch threshold is the
        // largest claimed.
        assert_eq!(c.o2b_slack, vec![5, 0]);
        assert_eq!(c.frac_bound, 0.375);
        assert_eq!(c.o4_latch_threshold, Some(16));
        assert_eq!(c.pass_certs.len(), 4);
        // Function 0: the largest slack claimant is the primary suspect; in
        // function 1 suspicion falls to the first fractional claimant.
        assert_eq!(c.suspect_for_path_sum(0), Some(PASS_O2B));
        assert_eq!(c.suspect_for_path_sum(1), Some(PASS_O3));
        // A fully precise cert names nobody.
        let c = compose(vec![delta(PASS_O2A, 0.0, [0, 0], None)]);
        assert_eq!(c.suspect_for_path_sum(0), None);
        // Latch-only: the latch claimant is the suspect.
        let c = compose(vec![delta(PASS_O4, 0.0, [0, 0], Some(16))]);
        assert_eq!(c.suspect_for_path_sum(0), Some(PASS_O4));
        let c = compose(vec![
            delta(PASS_O4, 0.0, [0, 0], Some(8)),
            delta(PASS_O4, 0.0, [0, 0], Some(16)),
        ]);
        assert_eq!(c.o4_latch_threshold, Some(16));
    }
}
