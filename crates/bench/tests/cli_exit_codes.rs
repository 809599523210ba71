//! The exit-code contract of the CLI front-ends, as documented in
//! README.md ("Exit codes"). CI and editor integrations key off these
//! numbers, so they are pinned by test: 0 = clean, 1 = findings /
//! violations, 2 = usage error (every CLI).

use std::io::Write;
use std::process::{Command, Stdio};

fn exit_code(bin: &str, args: &[&str]) -> i32 {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot spawn {bin}: {e}"))
        .status
        .code()
        .expect("terminated by signal")
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
    // A removed flag is an unknown one, operand or not.
    let err = usage_error(bin, &["--sanitize-log", "detsan.log"]);
    assert!(err.contains("unknown option"), "{err}");
}

#[test]
fn detload_and_detserved_usage_errors_exit_2() {
    let detload = env!("CARGO_BIN_EXE_detload");
    assert_eq!(exit_code(detload, &["--conns"]), 2);
    assert_eq!(exit_code(detload, &["--sweep", "x"]), 2);
    let err = usage_error(detload, &["--scheduler", "fifo"]);
    assert!(err.contains("unknown scheduler 'fifo'"), "{err}");
    // Engines and policies are the determinism matrix's axes: detload
    // re-executes nothing locally.
    for args in [&["--cross-backends"][..], &["--schedulers", "kendo"]] {
        assert_eq!(exit_code(detload, args), 2, "{args:?}");
    }
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
