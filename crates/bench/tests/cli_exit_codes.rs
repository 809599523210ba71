//! The exit-code contract of the CLI front-ends, as documented in
//! README.md ("Exit codes"). CI and editor integrations key off these
//! numbers, so they are pinned by test: 0 = clean, 1 = findings /
//! violations / gate failure, 2 = usage error (every CLI) or unreadable
//! input (perfgate), 3 = broken scheduler/checkpoint refusal (detcheck;
//! unreachable here unless the typed `SchedulerMismatch` contract
//! regresses, so only the clean path is exercised).

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> i32 {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
        .status
        .code()
        .expect("terminated by signal")
}

#[test]
fn detlint_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_detlint");
    // Clean workload → 0.
    assert_eq!(exit_code(bin, &["--only", "ocean", "--scale", "0.02"]), 0);
    // The deliberately racy negative control → 1.
    assert_eq!(
        exit_code(bin, &["--only", "racy-counter", "--scale", "0.02"]),
        1
    );
    // Unknown flag, missing operand, unparseable value → usage (2).
    assert_eq!(exit_code(bin, &["--definitely-not-a-flag"]), 2);
    assert_eq!(exit_code(bin, &["--threads"]), 2);
    assert_eq!(exit_code(bin, &["--scheduler", "fifo"]), 2);
}

#[test]
fn detcheck_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_detcheck");
    // Lint-clean + seed-invariant workload → 0.
    assert_eq!(exit_code(bin, &["--only", "ocean", "--scale", "0.05"]), 0);
    // Unknown flag → usage (2).
    assert_eq!(exit_code(bin, &["--definitely-not-a-flag"]), 2);
}

#[test]
fn perfgate_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_perfgate");
    // No report pair at all → usage (2).
    assert_eq!(exit_code(bin, &[]), 2);
    // Unreadable input → 2 as well (distinct from a failed gate's 1).
    assert_eq!(
        exit_code(
            bin,
            &[
                "--baseline-passes",
                "/nonexistent/baseline.json",
                "--current-passes",
                "/nonexistent/current.json"
            ]
        ),
        2
    );
}
