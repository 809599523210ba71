//! `detserved` — the deterministic-execution daemon.
//!
//! Boots a [`detlock_serve::server::DetServed`] instance and blocks until a
//! client sends the `shutdown` op (graceful drain). The bound address is
//! printed on the first stdout line so scripts driving an ephemeral port
//! (`--addr 127.0.0.1:0`) can discover it.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin detserved -- \
//!     [--addr HOST:PORT] [--shards N] [--queue N] [--max-retries N] \
//!     [--budget CYCLES] [--watchdog-ms MS] \
//!     [--backend interp|threaded] [--scheduler kendo|chunk|dc-batch] \
//!     [--checkpoint-interval CYCLES] \
//!     [--cycle-slice CYCLES] [--net-faults SEED] [--crash-faults SEED] \
//!     [--ready-file PATH]
//!
//! # router mode (multi-process shard group)
//! cargo run -p detlock-bench --release --bin detserved -- \
//!     --route ADDR1,ADDR2,... [--addr HOST:PORT] [--vnodes N] \
//!     [--ready-file PATH]
//! ```
//!
//! `--watchdog-ms 0` disables the stall supervisor. `--shards`, `--queue`
//! and `--vnodes` must be at least 1. `--backend` picks the execution
//! engine every shard runs jobs on (byte-identical receipts either way;
//! also settable via `DETLOCK_BACKEND`). `--scheduler` sets the default arbitration policy
//! for jobs whose request does not name one (also settable via
//! `DETLOCK_SCHEDULER`); unlike the backend it is part of job identity,
//! and per-request `scheduler` fields override it.
//! `--checkpoint-interval 0` disables checkpointing (crash recovery then
//! requeues cold); `--cycle-slice N` preempts jobs every N cycles of
//! progress so long jobs share shards. `--net-faults` / `--crash-faults`
//! boot the server with seeded fault plans already armed (clients can
//! also arm/disarm them at runtime via the `chaos` op). `--ready-file
//! PATH` atomically publishes the bound address to `PATH` *after* the
//! listener is accepting — a race-free readiness marker for scripts that
//! would otherwise have to sleep-poll the port.
//!
//! With `--route`, the binary becomes a [`GroupRouter`] instead: a
//! consistent-hash front for a multi-process shard group. `--vnodes`
//! sizes the ring. The requests the receipt audit schedule picks go to a
//! second process and their receipts are compared with the owner's
//! (cross-process determinism verification, no extra forwards).

use detlock_bench::{operand, parsed_operand};
use detlock_serve::group::{GroupConfig, GroupRouter};
use detlock_serve::netfault::{CrashPlan, NetFaultPlan};
use detlock_serve::server::{DetServed, ServeConfig};
use detlock_vm::{Backend, Sched};
use std::io::Write;
use std::num::NonZeroUsize;
use std::time::Duration;

/// Publish `addr` to `path` atomically: write a sibling temp file, then
/// rename into place. A reader that sees the file sees the whole address,
/// and the server is already accepting by the time the rename lands.
fn write_ready_file(path: &str, addr: &str) {
    let tmp = format!("{path}.tmp");
    let mut f = std::fs::File::create(&tmp).expect("create ready file");
    writeln!(f, "{addr}").expect("write ready file");
    f.sync_all().expect("sync ready file");
    drop(f);
    std::fs::rename(&tmp, path).expect("publish ready file");
}

/// A usage error in one of `detserved`'s own flags: one line, exit 2.
fn usage(what: &str) -> ! {
    eprintln!("usage: detserved: {what}");
    std::process::exit(2)
}

fn main() {
    let mut cfg = ServeConfig::default();
    let mut group = GroupConfig::default();
    let mut ready_file: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--route" => {
                group.backends = operand(&args, &mut i)
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
            }
            "--vnodes" => group.vnodes = parsed_operand::<NonZeroUsize>(&args, &mut i).get(),
            "--backend" => {
                cfg.backend = Backend::parse(operand(&args, &mut i)).unwrap_or_else(|e| usage(&e));
            }
            "--scheduler" => {
                cfg.scheduler = Sched::parse(operand(&args, &mut i)).unwrap_or_else(|e| usage(&e));
            }
            "--ready-file" => ready_file = Some(operand(&args, &mut i).to_string()),
            "--addr" => cfg.addr = operand(&args, &mut i).to_string(),
            "--shards" => cfg.shards = parsed_operand::<NonZeroUsize>(&args, &mut i).get(),
            "--queue" => cfg.queue_capacity = parsed_operand::<NonZeroUsize>(&args, &mut i).get(),
            "--max-retries" => cfg.max_retries = parsed_operand(&args, &mut i),
            "--budget" => cfg.job_cycle_budget = parsed_operand(&args, &mut i),
            "--watchdog-ms" => {
                let ms: u64 = parsed_operand(&args, &mut i);
                cfg.watchdog = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--checkpoint-interval" => cfg.checkpoint_interval = parsed_operand(&args, &mut i),
            "--cycle-slice" => cfg.cycle_slice = parsed_operand(&args, &mut i),
            "--net-faults" => {
                cfg.net_faults = Some(NetFaultPlan::new(parsed_operand(&args, &mut i)))
            }
            "--crash-faults" => {
                cfg.crash_faults = Some(CrashPlan::new(parsed_operand(&args, &mut i)))
            }
            other => usage(&format!("unknown option {other}")),
        }
        i += 1;
    }

    if !group.backends.is_empty() {
        group.addr = cfg.addr.clone();
        let router = GroupRouter::start(group.clone()).expect("bind router address");
        println!("detserved routing on {}", router.local_addr());
        if let Some(path) = &ready_file {
            write_ready_file(path, &router.local_addr().to_string());
        }
        eprintln!(
            "router backends={:?} vnodes={}",
            group.backends, group.vnodes
        );
        router.join();
        eprintln!("detserved: router stopped");
        return;
    }

    let server = DetServed::start(cfg.clone()).expect("bind listen address");
    println!("detserved listening on {}", server.local_addr());
    if let Some(path) = &ready_file {
        write_ready_file(path, &server.local_addr().to_string());
    }
    eprintln!(
        "shards={} queue={} max_retries={} budget={} watchdog={:?} backend={} \
         scheduler={} checkpoint_interval={} cycle_slice={} net_faults={:?} \
         crash_faults={:?}",
        cfg.shards,
        cfg.queue_capacity,
        cfg.max_retries,
        cfg.job_cycle_budget,
        cfg.watchdog,
        cfg.backend,
        cfg.scheduler,
        cfg.checkpoint_interval,
        cfg.cycle_slice,
        cfg.net_faults.map(|p| p.seed),
        cfg.crash_faults.map(|p| p.seed),
    );
    server.join();
    eprintln!("detserved: drained and stopped");
}
