//! `detload` — load generator and determinism verifier for `detserved`.
//!
//! Fires a fixed job list (workload × seed grid) at the server from a
//! single `poll(2)` loop over persistent keep-alive connections — tens of
//! thousands are fine. Arrivals are **open loop**: frame *k* is released
//! by the clock, not by completions, so server slowdown shows up as
//! latency rather than as a politely reduced load. The whole list is
//! driven **twice**; every receipt — including hot-key duplicates and
//! post-reconnect reissues — must be byte-identical across sightings,
//! sweeps, and (behind a group router) processes. Any difference is a
//! determinism violation: detload prints it and exits nonzero. A job that
//! is never definitively answered (reissues exhausted, or still shed at
//! the phase deadline) is a hard error too — silently missing data points
//! don't count as passing.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin detload -- --addr HOST:PORT \
//!     [--ready-file PATH] [--rate JOBS_PER_SEC | --sweep R1,R2,...] \
//!     [--jobs N] [--threads N] [--scale F] [--seeds A,B,C] \
//!     [--conns N] [--closed-conns N] [--pipeline D] [--hot-key P] \
//!     [--net-faults SEED] [--crash-faults SEED] \
//!     [--scheduler kendo|chunk[:SIZE[:COST]]|dc-batch] \
//!     [--json] [--out BENCH_serve.json] [--shutdown]
//! ```
//!
//! `--conns N` sizes the open-loop connection pool (frames round-robin
//! over it), `--closed-conns M` adds closed-loop background connections
//! that always keep one frame in flight, `--pipeline D` puts D jobs in
//! each v2 `batch` frame (1 sends v1 `run` lines), and `--hot-key P`
//! (per-1024; 1024 and up is every slot) skews a deterministic share of
//! slots onto one job. `--sweep R1,R2,...` walks several offered rates
//! where `--rate` drives one; each rate becomes one point on the report's
//! `latency_curve` (p50/p99 vs offered and achieved QPS) — observability
//! output that nothing gates: the judged serving numbers are the repo
//! benchmark's `serve_closed` rows. Under chaos the curve comes from the
//! *clean* sweep (sweep 2 measures fault recovery, not service latency).
//!
//! `--ready-file PATH` waits for `detserved --ready-file PATH` to publish
//! its bound address and uses that instead of (or as well as) `--addr` —
//! the race-free replacement for sleep-polling an ephemeral port.
//! `--out` writes the benchmark report (conventionally `BENCH_serve.json`,
//! or `BENCH_chaos.json` in chaos mode); `--shutdown` drains the server
//! when done.
//!
//! **Chaos mode** (`--net-faults` and/or `--crash-faults`): sweep 1 runs
//! over a clean wire as the reference; detload then arms the server's
//! seeded fault plans via the `chaos` op, drives sweep 2 through drops,
//! truncations, stalls, delays and injected shard crashes, disarms, and
//! compares. The receipts must still be byte-identical, and when crash
//! faults were armed at least one **checkpoint recovery** must have
//! happened on the server — otherwise the sweep exercised nothing and
//! detload exits nonzero.
//!
//! Every job asks for the arbitration policy `--scheduler` names (Kendo
//! by default), on `--threads` simulated cores (2 by default). That a
//! receipt is the same on either execution engine, and stable under each
//! policy, is a property of the program rather than of the serving path:
//! the determinism matrix (`tests/matrix.rs`) holds it.

use detlock_bench::loadgen::{Ledger, LoadGen, LoadOptions, PhaseReport};
use detlock_bench::{operand, parsed_operand, CliOptions};
use detlock_passes::pipeline::OptLevel;
use detlock_serve::netfault::{CrashPlan, NetFaultPlan};
use detlock_serve::protocol::{Client, JobSpec};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::Sched;
use std::num::NonZeroUsize;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// How long `--ready-file` waits for the server to publish its address.
const READY_TIMEOUT: Duration = Duration::from_secs(120);

/// Open-loop keep-alive connections unless `--conns` says otherwise.
const DEFAULT_CONNS: usize = 16;

/// Block until `path` exists (published atomically by `detserved
/// --ready-file`) and return the address on its first line.
fn await_ready_file(path: &str) -> String {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(contents) = std::fs::read_to_string(path) {
            let addr = contents.lines().next().unwrap_or("").trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for ready file `{path}`"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Drive one pass: the job list once per offered rate.
fn run_pass(
    gen: &mut LoadGen,
    label: &str,
    jobs: &[JobSpec],
    rates: &[f64],
) -> (Vec<PhaseReport>, Ledger) {
    let mut ledger = Ledger::default();
    let phases = rates
        .iter()
        .map(|&rate| {
            let p = gen.run_phase(jobs, rate, &mut ledger);
            eprintln!(
                "detload: {label} offered={:.0}qps achieved={:.0}qps p50={}us p99={}us \
                 completed={} failed={} sheds={} reconnects={}",
                p.offered_qps,
                p.achieved_qps,
                p.p50_us,
                p.p99_us,
                p.completed,
                p.failed,
                p.sheds,
                p.reconnects
            );
            p
        })
        .collect();
    (phases, ledger)
}

/// Aggregate a pass (one trip over all sweep rates) into its report
/// section.
fn pass_json(phases: &[PhaseReport], ledger: &Ledger) -> Json {
    let completed: u64 = phases.iter().map(|p| p.completed).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let sheds: u64 = phases.iter().map(|p| p.sheds).sum();
    let reconnects: u64 = phases.iter().map(|p| p.reconnects).sum();
    let wall_ms: u64 = phases.iter().map(|p| p.wall.as_millis() as u64).sum();
    let mut backends: Vec<u64> = Vec::new();
    for p in phases {
        for &b in &p.backends_seen {
            if !backends.contains(&b) {
                backends.push(b);
            }
        }
    }
    backends.sort_unstable();
    Json::obj([
        ("completed", completed.to_json()),
        ("failed", failed.to_json()),
        ("unanswered", ledger.unanswered.to_json()),
        ("rejections", sheds.to_json()),
        ("reconnects", reconnects.to_json()),
        ("wall_ms", wall_ms.to_json()),
        (
            "throughput_jps",
            (completed as f64 / (wall_ms as f64 / 1000.0).max(1e-9)).to_json(),
        ),
        (
            "latency",
            phases
                .last()
                .map(|p| p.latency.clone())
                .unwrap_or(Json::Null),
        ),
        ("backends_seen", backends.to_json()),
        (
            "failures",
            Json::Arr(ledger.failures.iter().take(50).cloned().collect()),
        ),
    ])
}

fn verdict(ok: bool, pass: &'static str) -> &'static str {
    if ok {
        pass
    } else {
        "MISMATCH"
    }
}

/// An offered rate: a positive number of jobs per second.
struct Rate(f64);

impl FromStr for Rate {
    type Err = &'static str;
    fn from_str(s: &str) -> Result<Rate, Self::Err> {
        match s.parse() {
            Ok(r) if r > 0.0 => Ok(Rate(r)),
            _ => Err("an offered rate is a positive number"),
        }
    }
}

/// A `--scheduler` operand.
struct Policy(Sched);

impl FromStr for Policy {
    type Err = String;
    fn from_str(s: &str) -> Result<Policy, String> {
        Sched::parse(s).map(Policy)
    }
}

/// A comma-separated operand (`--sweep`). Never empty: the empty string
/// is not a `T`.
struct List<T>(Vec<T>);

impl<T: FromStr> FromStr for List<T> {
    type Err = T::Err;
    fn from_str(s: &str) -> Result<List<T>, T::Err> {
        s.split(',')
            .map(|x| x.trim().parse())
            .collect::<Result<_, _>>()
            .map(List)
    }
}

fn main() {
    let mut addr = String::new();
    let mut ready_file: Option<String> = None;
    // `--rate` alone is a one-point sweep.
    let mut rates = vec![50.0f64];
    let mut jobs_target = 0usize; // 0 = one job per workload × seed
    let mut do_shutdown = false;
    let mut net_seed: Option<u64> = None;
    let mut crash_seed: Option<u64> = None;
    let mut scheduler = Sched::Kendo;
    let mut conns = DEFAULT_CONNS;
    let mut closed_conns = 0usize;
    let mut pipeline = 1usize;
    let mut hot_key = 0u32;
    let opts = CliOptions::parse_with(|flag, args, i| {
        match flag {
            "--conns" => conns = parsed_operand::<NonZeroUsize>(args, i).get(),
            "--closed-conns" => closed_conns = parsed_operand(args, i),
            "--pipeline" => pipeline = parsed_operand::<NonZeroUsize>(args, i).get(),
            "--hot-key" => hot_key = parsed_operand(args, i),
            "--sweep" => {
                let List(sweep) = parsed_operand::<List<Rate>>(args, i);
                rates = sweep.into_iter().map(|r| r.0).collect();
            }
            "--addr" => addr = operand(args, i).to_string(),
            "--ready-file" => ready_file = Some(operand(args, i).to_string()),
            "--rate" => rates = vec![parsed_operand::<Rate>(args, i).0],
            "--jobs" => jobs_target = parsed_operand(args, i),
            "--net-faults" => net_seed = Some(parsed_operand(args, i)),
            "--crash-faults" => crash_seed = Some(parsed_operand(args, i)),
            "--scheduler" => scheduler = parsed_operand::<Policy>(args, i).0,
            "--shutdown" => do_shutdown = true,
            _ => return false,
        }
        true
    });
    let chaos = net_seed.is_some() || crash_seed.is_some();
    if let Some(path) = &ready_file {
        addr = await_ready_file(path);
        eprintln!("detload: server ready at {addr} (via {path})");
    }
    if addr.is_empty() {
        eprintln!("usage: detload requires --addr HOST:PORT or --ready-file PATH");
        std::process::exit(2);
    }
    let scale = opts.scale_or(0.02); // service jobs are short episodes, not benchmarks
    let threads = opts.threads_or(2);

    // The job grid: workloads × seeds, truncated/cycled to --jobs.
    let names: Vec<String> = match &opts.only {
        Some(name) => vec![name.clone()],
        None => detlock_workloads::all_benchmarks(threads, scale)
            .iter()
            .map(|w| w.name.to_string())
            .collect(),
    };
    let mut grid: Vec<JobSpec> = Vec::new();
    for seed in &opts.seeds {
        for name in &names {
            grid.push(JobSpec {
                tenant: "detload".to_string(),
                workload: name.clone(),
                threads,
                scale,
                seed: *seed,
                opt: OptLevel::All,
                sanitize: false,
                scheduler,
            });
        }
    }
    let jobs: Vec<JobSpec> = if jobs_target == 0 {
        grid
    } else {
        grid.iter().cycle().take(jobs_target).cloned().collect()
    };

    let total_conns = conns + closed_conns;
    eprintln!(
        "detload: {} jobs x {} rate(s) x 2 passes, {} open-loop + {} closed-loop conns, \
         pipeline {}, hot-key {}/1024 against {}{}",
        jobs.len(),
        rates.len(),
        conns,
        closed_conns,
        pipeline,
        hot_key,
        addr,
        if chaos { " (chaos mode)" } else { "" },
    );

    // Chaos mode: pass 1 is the clean reference, pass 2 runs with the
    // server's seeded fault plans armed, then chaos is disarmed. The
    // `chaos` op is control-plane, so arming/disarming works even while
    // wire faults are active.
    let set_chaos = |net: Option<&NetFaultPlan>, crash: Option<&CrashPlan>| {
        let mut c = Client::connect(&addr).expect("connect for chaos op");
        let resp = c.chaos(net, crash).expect("chaos op failed");
        assert_eq!(
            resp.get("ok").and_then(Json::as_bool),
            Some(true),
            "chaos op rejected: {}",
            resp.to_string_compact()
        );
    };
    if chaos {
        set_chaos(None, None);
    }

    let mut gen = LoadGen::new(LoadOptions {
        addr: addr.clone(),
        conns,
        closed_conns,
        pipeline,
        hot_per_1024: hot_key,
        max_attempts: 32,
    });
    let open = gen.prewarm();
    let conns_ok = open == total_conns;
    eprintln!("detload: {open}/{total_conns} keep-alive connections established");

    let (phases1, ledger1) = run_pass(&mut gen, "pass1", &jobs, &rates);
    let net_plan = net_seed.map(NetFaultPlan::new);
    let crash_plan = crash_seed.map(CrashPlan::new);
    if chaos {
        set_chaos(net_plan.as_ref(), crash_plan.as_ref());
    }
    let (phases2, ledger2) = run_pass(&mut gen, "pass2", &jobs, &rates);
    if chaos {
        set_chaos(None, None);
    }

    // Receipt identity: in-pass divergence (hot-key duplicates, reissues)
    // plus cross-pass divergence, key for key.
    let mut mismatches: Vec<Json> = Vec::new();
    mismatches.extend(ledger1.mismatches.iter().cloned());
    mismatches.extend(ledger2.mismatches.iter().cloned());
    let mut compared = mismatches.len() as u64;
    for (key, r1) in &ledger1.receipts {
        if let Some(r2) = ledger2.receipts.get(key) {
            compared += 1;
            if r1 != r2 {
                mismatches.push(Json::obj([
                    ("job", key.to_json()),
                    ("sweep1", r1.to_json()),
                    ("sweep2", r2.to_json()),
                ]));
            }
        }
    }
    let identical = mismatches.is_empty();

    let server_stats = Client::connect(&addr)
        .and_then(|mut c| c.stats())
        .unwrap_or_else(|e| Json::obj([("error", format!("stats: {e}").to_json())]));
    // A group router's counters are its own; faults are injected and
    // recovered from in its backends, whose addresses its stats list.
    let backend_stats: Vec<Json> = server_stats
        .get("backends")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|b| b.get("addr").and_then(Json::as_str))
        .filter_map(|addr| Client::connect(addr).and_then(|mut c| c.stats()).ok())
        .collect();
    let server_counter = |k: &str| -> u64 {
        std::iter::once(&server_stats)
            .chain(&backend_stats)
            .filter_map(|s| s.get("counters")?.get(k)?.as_u64())
            .sum()
    };
    let recoveries = server_counter("recoveries");
    let unanswered_total = ledger1.unanswered + ledger2.unanswered;

    let chaos_json = Json::obj([
        ("enabled", chaos.to_json()),
        (
            "net_seed",
            net_seed.map(|s| s.to_json()).unwrap_or(Json::Null),
        ),
        (
            "crash_seed",
            crash_seed.map(|s| s.to_json()).unwrap_or(Json::Null),
        ),
        ("recoveries", recoveries.to_json()),
        ("cold_requeues", server_counter("cold_requeues").to_json()),
        (
            "net_faults_injected",
            server_counter("net_faults_injected").to_json(),
        ),
        (
            "crashes_injected",
            server_counter("crashes_injected").to_json(),
        ),
        ("unanswered", unanswered_total.to_json()),
    ]);
    let report = Json::obj([
        ("addr", addr.to_json()),
        ("rates", rates.to_json()),
        ("jobs_per_sweep", jobs.len().to_json()),
        ("threads", threads.to_json()),
        ("scale", scale.to_json()),
        ("seeds", opts.seeds.to_json()),
        (
            "load",
            Json::obj([
                ("conns", conns.to_json()),
                ("closed_conns", closed_conns.to_json()),
                ("conns_requested", total_conns.to_json()),
                ("conns_open", open.to_json()),
                ("pipeline", pipeline.to_json()),
                ("hot_key_per_1024", (hot_key as u64).to_json()),
                ("reconnects", gen.reconnects().to_json()),
            ]),
        ),
        ("chaos", chaos_json),
        ("sweep1", pass_json(&phases1, &ledger1)),
        ("sweep2", pass_json(&phases2, &ledger2)),
        (
            // Under chaos, sweep 2 measures fault recovery, not service
            // latency — the clean sweep is the honest curve. Without
            // chaos, sweep 2 is the warm one.
            "latency_curve",
            Json::Arr(
                (if chaos { &phases1 } else { &phases2 })
                    .iter()
                    .map(PhaseReport::to_json)
                    .collect(),
            ),
        ),
        ("receipts_compared", compared.to_json()),
        ("receipts_identical", identical.to_json()),
        ("mismatches", Json::Arr(mismatches)),
        ("server_stats", server_stats),
    ]);
    opts.emit_json(&report);
    if !opts.json {
        eprintln!(
            "receipts: {compared} compared, {}",
            verdict(identical, "all identical")
        );
    }

    if do_shutdown {
        if let Ok(mut c) = Client::connect(&addr) {
            let _ = c.shutdown();
        }
    }
    let mut failures: Vec<&str> = Vec::new();
    if !identical || compared == 0 {
        failures.push("no comparable receipts or receipt mismatch");
    }
    if unanswered_total > 0 {
        failures.push("requests went unanswered (lost jobs are errors, not gaps)");
    }
    if !conns_ok {
        failures.push("failed to establish the requested keep-alive connection count");
    }
    if crash_seed.is_some() && recoveries == 0 {
        failures.push("crash chaos requested but zero checkpoint recoveries happened");
    }
    if !failures.is_empty() {
        eprintln!("detload: FAIL ({})", failures.join("; "));
        std::process::exit(1);
    }
}
