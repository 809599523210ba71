//! `detload` against an in-process server: the jobs it sends carry the
//! thread count `--threads` names, and 2 when the flag is absent.

use detlock_serve::server::{DetServed, ServeConfig};
use detlock_shim::json::Json;
use detlock_vm::Backend;
use std::process::Command;

/// Drive one small sweep with `args` and return the report's `threads`.
fn reported_threads(args: &[&str]) -> u64 {
    let server = DetServed::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 1,
        backend: Backend::Threaded,
        ..ServeConfig::default()
    })
    .expect("server boot");
    let addr = server.local_addr().to_string();
    let report = std::env::temp_dir().join(format!("detload-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_detload"))
        .args(["--addr", &addr, "--only", "ocean", "--seeds", "1"])
        .args(["--conns", "1", "--rate", "1000", "--shutdown", "--out"])
        .arg(&report)
        .args(args)
        .output()
        .expect("cannot spawn detload");
    server.join();
    assert!(
        out.status.success(),
        "detload {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&report).unwrap();
    std::fs::remove_file(&report).unwrap();
    Json::parse(&text)
        .unwrap()
        .get("threads")
        .and_then(Json::as_u64)
        .expect("threads in the report")
}

#[test]
fn jobs_run_on_the_requested_thread_count() {
    assert_eq!(reported_threads(&["--threads", "4"]), 4);
    assert_eq!(reported_threads(&["--threads", "3"]), 3);
    assert_eq!(reported_threads(&[]), 2);
}
