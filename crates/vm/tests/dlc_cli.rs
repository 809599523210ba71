//! `dlc --run … --profile` on a run the cycle limit cuts: the exit code is
//! 1 (README, "Exit codes") and the profile is still printed — steps by
//! status is what says which threads sit where. And an unknown flag is a
//! usage error (2).

use detlock_ir::builder::FunctionBuilder;
use detlock_ir::dot::function_to_text;
use detlock_ir::inst::CmpOp;
use detlock_ir::Module;
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

#[test]
fn the_compile_pool_flag_is_a_usage_error() {
    let code = Command::new(env!("CARGO_BIN_EXE_dlc"))
        .args(["prog.dir", "--compile-threads", "2"])
        .output()
        .expect("cannot spawn dlc")
        .status
        .code();
    assert_eq!(code, Some(2));
}
