//! The exit-code contract of the CLI front-ends, as documented in
//! README.md ("Exit codes"). CI and editor integrations key off these
//! numbers, so they are pinned by test: 0 = clean, 1 = findings /
//! violations / gate failure (perfgate's negative controls live here),
//! 2 = usage error (every CLI) or unreadable input (perfgate), 3 = broken
//! scheduler/checkpoint refusal (detcheck; unreachable here unless the
//! typed `SchedulerMismatch` contract regresses, so only the clean path is
//! exercised).

use std::io::Write;
use std::process::{Command, Stdio};

/// Exit code and stdout of one invocation.
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    (
        out.status.code().expect("terminated by signal"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn exit_code(bin: &str, args: &[&str]) -> i32 {
    run(bin, args).0
}

/// The one-line complaint of an invocation that must be a usage error.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
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
    let err = usage_error(bin, &["--seed", "x"]);
    assert!(err.contains("--seed: cannot parse 'x'"), "{err}");
    // Policy and engine are not shared flags: detlint runs no schedule.
    for flag in ["--backend", "--scheduler"] {
        let err = usage_error(bin, &[flag, "threaded"]);
        assert!(err.contains(&format!("unknown option {flag}")), "{err}");
    }
    // ... and the same for the binary's own flags.
    assert_eq!(exit_code(bin, &["--sanitize-log"]), 2);
}

#[test]
fn detload_and_detserved_usage_errors_exit_2() {
    let detload = env!("CARGO_BIN_EXE_detload");
    assert_eq!(exit_code(detload, &["--conns"]), 2);
    assert_eq!(exit_code(detload, &["--sweep", "x"]), 2);
    let err = usage_error(detload, &["--scheduler", "fifo"]);
    assert!(err.contains("unknown scheduler 'fifo'"), "{err}");
    assert_eq!(
        exit_code(detload, &[]),
        2,
        "neither --addr nor --ready-file"
    );
    let detserved = env!("CARGO_BIN_EXE_detserved");
    assert_eq!(exit_code(detserved, &["--shards", "x"]), 2);
    assert_eq!(exit_code(detserved, &["--definitely-not-a-flag"]), 2);
    // Zero where at least one is needed is a usage error, not a panic in
    // the admission queue or (behind `--route`) the hash ring.
    assert_eq!(exit_code(detserved, &["--queue", "0"]), 2);
    assert_eq!(
        exit_code(detserved, &["--route", "127.0.0.1:9", "--vnodes", "0"]),
        2
    );
}

#[test]
fn the_compile_pool_flag_is_a_usage_error() {
    // Every binary compiles serially and uncached; no flag sizes a pool.
    for bin in [
        env!("CARGO_BIN_EXE_ablation"),
        env!("CARGO_BIN_EXE_detserved"),
    ] {
        assert_eq!(exit_code(bin, &["--compile-threads", "2"]), 2, "{bin}");
    }
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
fn paper_usage_errors_exit_2_before_simulating() {
    let bin = env!("CARGO_BIN_EXE_paper");
    // Every setting is a constant: any argument is a usage error.
    for args in [&["--scale", "0.1"][..], &["--json"], &["EXPERIMENTS.md"]] {
        assert_eq!(exit_code(bin, args), 2, "{args:?}");
    }
    // The document on stdin; a malformed block is found before the first
    // run, so none of these simulates anything.
    let filter = |doc: &str| {
        let mut child = Command::new(bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn paper");
        child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(doc.as_bytes())
            .expect("write the document");
        let out = child.wait_with_output().expect("wait for paper");
        (
            out.status.code().expect("terminated by signal"),
            String::from_utf8(out.stdout).expect("UTF-8 stdout"),
        )
    };
    for doc in [
        "<!-- paper:table3 -->\n<!-- /paper -->\n",
        "<!-- paper:fig14 -->\n<!-- /paper -->\n<!-- paper:fig14 -->\n<!-- /paper -->\n",
        "<!-- paper:table1 -->\nno end marker\n",
    ] {
        assert_eq!(filter(doc), (2, String::new()), "{doc:?}");
    }
    // A document without blocks passes through unchanged.
    let plain = "# Notes\r\n\nno generated blocks here";
    assert_eq!(filter(plain), (0, plain.to_string()));
}

#[test]
fn perfgate_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_perfgate");
    // No report at all → usage (2).
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
    // Unknown flag → 2; that includes every threshold the gate used to take.
    for flag in [
        "--definitely-not-a-flag",
        "--max-regress-pct",
        "--min-backend-speedup",
        "--max-sched-overhead",
        "--max-p99-ms",
        "--min-sustained-qps",
        "--slowdown",
        "--baseline-serve",
    ] {
        assert_eq!(exit_code(bin, &[flag, "1"]), 2, "{flag}");
    }

    // The gate's negative controls, on fixtures written here.
    let dir = std::env::temp_dir().join(format!("perfgate-fixtures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, body: String| -> String {
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path.to_str().unwrap().to_string()
    };

    // An ablation report in miniature: header, one pass row, one total.
    let passes = |scale: &str, mass: u64, cycles: u64, extra: &str| {
        format!(
            r#"{{"header": {{"threads": 4, "scale": {scale}, "seed": 1}},
                "pass_telemetry": [{{"name": "ocean", "passes": [
                    {{"pass": "o4-loop-merge", "ticks_added": 0, "mass_moved": {mass}}}]}}],
                "schedulers": {{"kendo_total_cycles": {cycles}{extra}}}}}"#
        )
    };
    let baseline = write("baseline.json", passes("0.2", 5069, 3593817, ""));
    let gate = |name: &str, current: String| {
        let current = write(name, current);
        run(
            bin,
            &["--baseline-passes", &baseline, "--current-passes", &current],
        )
    };
    // Equal documents → 0.
    assert_eq!(gate("equal.json", passes("0.2", 5069, 3593817, "")).0, 0);
    // One changed leaf → 1, and stdout names its JSON path.
    let (code, stdout) = gate("mass.json", passes("0.2", 5070, 3593817, ""));
    assert_eq!(code, 1);
    assert!(
        stdout.contains("/pass_telemetry/0/passes/0/mass_moved"),
        "{stdout}"
    );
    let (code, stdout) = gate("cycles.json", passes("0.2", 5069, 3593818, ""));
    assert_eq!(code, 1);
    assert!(
        stdout.contains("/schedulers/kendo_total_cycles"),
        "{stdout}"
    );
    // A key present on one side only → 1, whichever side.
    let with_key = passes("0.2", 5069, 3593817, r#", "chunk_total_cycles": 1"#);
    let (code, stdout) = gate("added.json", with_key.clone());
    assert_eq!(code, 1);
    assert!(
        stdout.contains("/schedulers/chunk_total_cycles"),
        "{stdout}"
    );
    let wider = write("wider.json", with_key);
    let removed = ["--baseline-passes", &wider, "--current-passes", &baseline];
    assert_eq!(exit_code(bin, &removed), 1);
    // A header mismatch → 1, reported instead of the paths it would drown.
    let (code, stdout) = gate("scale.json", passes("0.5", 5070, 3593817, ""));
    assert_eq!(code, 1);
    assert!(stdout.contains("passes/header"), "{stdout}");
    assert!(!stdout.contains("mass_moved"), "{stdout}");

    // A detload report in miniature; each identity fact broken in turn.
    let serve = |name: &str, identical: bool, failed: u64, memo_hits: u64| {
        let report = write(
            name,
            format!(
                r#"{{"receipts_identical": {identical}, "receipts_compared": 24,
                    "sweep1": {{"failed": 0}}, "sweep2": {{"failed": {failed}}},
                    "server_stats": {{"counters": {{"memo_hits": {memo_hits}}}}}}}"#
            ),
        );
        exit_code(bin, &["--current-serve", &report])
    };
    assert_eq!(serve("serve-ok.json", true, 0, 10), 0);
    assert_eq!(serve("serve-diverged.json", false, 0, 10), 1);
    assert_eq!(serve("serve-failed.json", true, 1, 10), 1);
    assert_eq!(serve("serve-cold.json", true, 0, 0), 1);

    std::fs::remove_dir_all(&dir).unwrap();
}
