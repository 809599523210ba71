//! End-to-end detlint acceptance: the shipped workloads are statically
//! race-clean and every Table I instrumentation config validates against its
//! certificate; the sanitizer's triage confirms every static verdict (the
//! deliberately racy control is flagged and witnessed).

use detlock_analyze::races::analyze_races;
use detlock_analyze::triage::{triage, Verdict};
use detlock_analyze::Severity;
use detlock_bench::{instrumented, lint_workload, race_threads, sanitize_workload_sweep};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_workloads::{all_benchmarks, racy};

const SCALE: f64 = 0.05;

#[test]
fn splash_workloads_lint_clean() {
    let cost = CostModel::default();
    for w in all_benchmarks(4, SCALE) {
        for placement in [Placement::Start, Placement::End] {
            let report = lint_workload(&w, &cost, placement);
            assert!(
                report.ok(true),
                "{} ({placement:?}) must lint clean under --deny-warnings:\n{report}",
                w.name
            );
        }
    }
}

/// Triage acceptance: every static `race` finding on the racy counter is
/// dynamically `confirmed` (with a happens-before witness), the SPLASH
/// workloads stay silent under the sanitizer, and the deadlock control —
/// statically clean — is flagged by the runtime lock-order graph.
#[test]
fn sanitizer_triage_matches_the_static_verdicts() {
    let cost = CostModel::default();
    let seeds = [1, 7, 42];

    // Racy control: flagged statically as an `error[race]`, and every
    // static race finding confirmed with a happens-before witness (what
    // `detlint --confirm` prints).
    let w = racy::build(4, &racy::RacyParams::scaled(SCALE));
    let report = analyze_races(&w.module, &race_threads(&w));
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.severity == Severity::Error && f.rule == "race"),
        "the racy counter must produce an error[race]:\n{report}"
    );
    let dyn_report = sanitize_workload_sweep(&w, &cost, &seeds);
    assert!(!dyn_report.races.is_empty());
    let tri = triage(&report, &dyn_report);
    assert!(!tri.rows.is_empty(), "static race findings must be triaged");
    for row in &tri.rows {
        assert_eq!(
            row.verdict,
            Verdict::Confirmed,
            "static finding not confirmed: {row}"
        );
        assert!(row.witness.is_some(), "confirmed rows carry a witness");
    }

    // SPLASH workloads: silent, and triage has nothing to do.
    for w in all_benchmarks(4, SCALE) {
        let dyn_report = sanitize_workload_sweep(&w, &cost, &seeds);
        assert!(
            dyn_report.races.is_empty() && dyn_report.lock_cycles.is_empty(),
            "{}: sanitizer must stay silent on a clean workload",
            w.name
        );
    }

    // Deadlock control: no data race (statically or dynamically), but the
    // lock-order graph must see the 2->3 / 3->2 cycle.
    let w = racy::build_deadlock(4);
    let report = analyze_races(&w.module, &race_threads(&w));
    assert!(
        report.ok(true),
        "deadlock control must be statically race-clean:\n{report}"
    );
    let dyn_report = sanitize_workload_sweep(&w, &cost, &seeds);
    assert!(dyn_report.races.is_empty());
    assert_eq!(
        dyn_report.lock_cycles.len(),
        1,
        "exactly one lock-order cycle expected"
    );
    assert_eq!(dyn_report.lock_cycles[0].locks, vec![2, 3]);
}

#[test]
fn validator_accepts_every_table1_config() {
    let cost = CostModel::default();
    for w in all_benchmarks(4, SCALE) {
        for level in OptLevel::table1_rows() {
            let inst = instrumented(&w, &cost, level, Placement::Start);
            let r = detlock_analyze::validate::validate(&w.module, &inst.module, &inst.cert, &cost);
            assert!(
                r.count(Severity::Error) == 0,
                "{} / {}: validator rejected a pipeline output:\n{r}",
                w.name,
                level.label()
            );
        }
    }
}
