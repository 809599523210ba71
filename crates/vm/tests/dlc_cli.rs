//! `dlc --run … --profile` on a run the cycle limit cuts: the exit code is
//! 1 (README, "Exit codes") and the profile is still printed — steps by
//! status is what says which threads sit where. An unknown flag, or an
//! operand a flag rejects, is a usage error (2). And a run is a function
//! of its flags and input alone: the environment does not reach it.

use detlock_ir::builder::FunctionBuilder;
use detlock_ir::dot::function_to_text;
use detlock_ir::inst::CmpOp;
use detlock_ir::Module;
use std::path::Path;
use std::process::Command;

/// Lock-order reversal with nothing in between: thread 0 nests lock 3
/// inside lock 2, every other thread lock 2 inside lock 3, and each holds
/// its first lock for a while before asking for the second.
/// (`detlock_workloads::racy::build_deadlock` is the control *without* a
/// reachable deadlock — a barrier separates its two phases — so it cannot
/// reach the limit `dlc` runs under.)
fn deadlock_text() -> String {
    let mut module = Module::new();
    let mut fb = FunctionBuilder::new("main", 1);
    fb.block("entry");
    let fwd = fb.create_block("fwd");
    let rev = fb.create_block("rev");
    let tid = fb.param(0);
    let leader = fb.cmp(CmpOp::Eq, tid, 0);
    fb.cond_br(leader, fwd, rev);
    for (block, first, second) in [(fwd, 2i64, 3i64), (rev, 3, 2)] {
        fb.switch_to(block);
        fb.lock(first);
        fb.compute(40);
        fb.lock(second);
        fb.unlock(second);
        fb.unlock(first);
        fb.ret_void();
    }
    fb.finish_into(&mut module);
    module
        .functions
        .iter()
        .map(|f| function_to_text(f, |_| None))
        .collect()
}

/// Every thread takes lock 1 three times, with work inside and between:
/// the threads contend, and the arbitration policy decides the order.
fn contended_text() -> String {
    let mut module = Module::new();
    let mut fb = FunctionBuilder::new("main", 1);
    fb.block("entry");
    for _ in 0..3 {
        fb.lock(1);
        fb.compute(30);
        fb.unlock(1);
        fb.compute(10);
    }
    fb.ret_void();
    fb.finish_into(&mut module);
    module
        .functions
        .iter()
        .map(|f| function_to_text(f, |_| None))
        .collect()
}

/// The environment variables that once chose a policy and an engine for
/// every default-constructed configuration, set to non-default values.
const FORMER_KNOBS: [(&str, &str); 2] = [
    ("DETLOCK_SCHEDULER", "dc-batch"),
    ("DETLOCK_BACKEND", "threaded"),
];

#[test]
fn the_environment_does_not_reach_a_run() {
    let path = std::env::temp_dir().join(format!("dlc-contended-{}.dir", std::process::id()));
    std::fs::write(&path, contended_text()).unwrap();
    let dlc = |set: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_dlc"));
        cmd.arg(&path)
            .args(["--emit", "none", "--run", "main", "--mode", "det"])
            .args(["--threads", "4", "--args", "tid", "--profile"]);
        for (key, value) in FORMER_KNOBS {
            if set {
                cmd.env(key, value);
            } else {
                cmd.env_remove(key);
            }
        }
        let out = cmd.output().expect("cannot spawn dlc");
        assert!(out.status.success(), "knobs set: {set}");
        String::from_utf8(out.stdout).unwrap()
    };
    let plain = dlc(false);
    assert!(plain.contains("\nprofile: "), "{plain}");
    assert_eq!(plain, dlc(true));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_run_cut_by_the_cycle_limit_still_prints_its_profile() {
    let path = std::env::temp_dir().join(format!("dlc-deadlock-{}.dir", std::process::id()));
    std::fs::write(&path, deadlock_text()).unwrap();
    let dlc = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_dlc"))
            .arg(&path)
            // FCFS grants: once both threads wait, no event is left and the
            // time advance reaches the limit in one step.
            .args(["--emit", "none", "--run", "main", "--mode", "baseline"])
            .args(["--threads", threads, "--args", "tid", "--profile"])
            .output()
            .expect("cannot spawn dlc");
        (
            out.status.code().expect("terminated by signal"),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // Thread 0 alone nests its two locks and finishes.
    let (code, stdout, _) = dlc("1");
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("\nprofile: "), "{stdout}");
    // With a second thread each ends up waiting for the other's lock.
    let (code, stdout, stderr) = dlc("2");
    assert_eq!(code, 1, "{stdout}");
    assert!(stderr.contains("hit the cycle limit"), "{stderr}");
    assert!(stdout.starts_with("profile: "), "{stdout}");
    assert!(stdout.contains("acquiring-lock"), "{stdout}");
    std::fs::remove_file(&path).unwrap();
}

/// `dlc`'s exit code on `prog.dir` (which does not exist) with `args`.
fn exit_code(args: &[&str]) -> Option<i32> {
    assert!(!Path::new("prog.dir").exists());
    Command::new(env!("CARGO_BIN_EXE_dlc"))
        .arg("prog.dir")
        .args(args)
        .output()
        .expect("cannot spawn dlc")
        .status
        .code()
}

#[test]
fn the_compile_pool_flag_is_a_usage_error() {
    assert_eq!(exit_code(&["--compile-threads", "2"]), Some(2));
}

#[test]
fn an_unknown_policy_or_engine_is_a_usage_error() {
    assert_eq!(exit_code(&["--scheduler", "fifo"]), Some(2));
    assert_eq!(exit_code(&["--backend", "jit"]), Some(2));
    // The canonical spellings parse: dlc gets as far as reading the input.
    assert_eq!(
        exit_code(&["--scheduler", "dc-batch", "--backend", "threaded"]),
        Some(1)
    );
}
