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

impl PassCert {
    /// A delta cert claiming no divergence at all (precise passes).
    pub fn exact(pass: &'static str, slack: Vec<u64>) -> PassCert {
        debug_assert!(slack.iter().all(|&s| s == 0), "{pass} claimed slack");
        PassCert {
            pass,
            frac_bound: 0.0,
            o2b_slack: slack,
            o4_latch_threshold: None,
        }
    }
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
    /// Build the certificate for a finished plan under `config`.
    /// `o2b_moved` is the per-function approximate mass O2b reported moving
    /// (all zeros when O2 did not run).
    ///
    /// Synthesizes the per-pass delta certs the pipeline would have
    /// collected and composes them via [`PlanCert::from_passes`].
    pub fn new(config: &OptConfig, plan: &ModulePlan, o2b_moved: Vec<u64>) -> PlanCert {
        debug_assert_eq!(o2b_moved.len(), plan.funcs.len());
        let zeros = vec![0u64; plan.funcs.len()];
        let mut pass_certs = Vec::new();
        if config.o2 || o2b_moved.iter().any(|&m| m > 0) {
            pass_certs.push(PassCert::exact(crate::pass::PASS_O2A, zeros.clone()));
            pass_certs.push(PassCert {
                pass: crate::pass::PASS_O2B,
                frac_bound: 0.0,
                o2b_slack: o2b_moved,
                o4_latch_threshold: None,
            });
        }
        if config.o3 {
            // tight_average admits range ≤ mean/rd, so a region path's true
            // cost sits within `range` of the charged mean while being at
            // least `mean·(1 − 1/rd)`; the worst relative error is therefore
            // range/min ≤ (mean/rd)/(mean·(1 − 1/rd)) = 1/(rd − 1), not the
            // naive 1/rd.
            pass_certs.push(PassCert {
                pass: crate::pass::PASS_O3,
                frac_bound: 1.0 / (config.clockable.range_divisor - 1.0),
                o2b_slack: zeros.clone(),
                o4_latch_threshold: None,
            });
        }
        if config.o4 {
            pass_certs.push(PassCert {
                pass: crate::pass::PASS_O4,
                frac_bound: 0.0,
                o2b_slack: zeros,
                o4_latch_threshold: Some(config.opt4.threshold),
            });
        }
        PlanCert::from_passes(config, plan, pass_certs)
    }

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
    use crate::pipeline::{OptConfig, OptLevel};
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

    #[test]
    fn exactness_tracks_config() {
        let plan = dummy_plan();
        let none = vec![0, 0];
        assert!(PlanCert::new(&OptConfig::none(), &plan, none.clone()).is_exact());
        assert!(PlanCert::new(&OptConfig::only(OptLevel::O1), &plan, none.clone()).is_exact());
        // O2 with no approximate move applied is exact (2a is exact and 2b
        // reported nothing moved)...
        let c = PlanCert::new(&OptConfig::only(OptLevel::O2), &plan, none.clone());
        assert!(c.is_exact());
        assert_eq!(c.frac_bound, 0.0);
        // ...but any reported 2b move makes the cert approximate.
        let c = PlanCert::new(&OptConfig::only(OptLevel::O2), &plan, vec![3, 0]);
        assert!(!c.is_exact());
        assert_eq!(c.o2b_slack, vec![3, 0]);
        // O3 contributes the tight-average fractional bound.
        let c = PlanCert::new(&OptConfig::only(OptLevel::O3), &plan, none.clone());
        assert!(!c.is_exact());
        assert!(c.frac_bound > 0.0);
        let c = PlanCert::new(&OptConfig::only(OptLevel::O4), &plan, none);
        assert!(!c.is_exact());
        assert_eq!(c.o4_latch_threshold, Some(16));
        assert_eq!(c.frac_bound, 0.0);
    }

    #[test]
    fn cert_copies_the_plan() {
        let plan = dummy_plan();
        let c = PlanCert::new(&OptConfig::all(), &plan, vec![0, 0]);
        assert_eq!(c.clocked, vec![None, Some(7)]);
        assert_eq!(c.block_clock, vec![vec![3, 0, 5], vec![0]]);
        assert_eq!(c.placement, Placement::Start);
    }

    #[test]
    fn pass_certs_compose_and_name_suspects() {
        let plan = dummy_plan();
        let c = PlanCert::new(&OptConfig::all(), &plan, vec![4, 0]);
        // All four plan passes contributed a delta cert.
        let names: Vec<&str> = c.pass_certs.iter().map(|p| p.pass).collect();
        assert_eq!(
            names,
            vec![
                crate::pass::PASS_O2A,
                crate::pass::PASS_O2B,
                crate::pass::PASS_O3,
                crate::pass::PASS_O4
            ]
        );
        // Composed obligations match the deltas.
        assert_eq!(c.o2b_slack, vec![4, 0]);
        assert!(c.frac_bound > 0.0);
        assert_eq!(c.o4_latch_threshold, Some(16));
        // Function 0 has O2b slack: it is the primary suspect there; in
        // function 1 suspicion falls to the fractional claimant (O3).
        assert_eq!(c.suspect_for_path_sum(0), Some(crate::pass::PASS_O2B));
        assert_eq!(c.suspect_for_path_sum(1), Some(crate::pass::PASS_O3));
        // A fully precise cert names nobody.
        let c = PlanCert::new(&OptConfig::only(OptLevel::O1), &plan, vec![0, 0]);
        assert_eq!(c.suspect_for_path_sum(0), None);
        // O4-only: the latch claimant is the suspect.
        let c = PlanCert::new(&OptConfig::only(OptLevel::O4), &plan, vec![0, 0]);
        assert_eq!(c.suspect_for_path_sum(0), Some(crate::pass::PASS_O4));
    }
}
