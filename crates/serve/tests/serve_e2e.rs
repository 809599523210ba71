//! End-to-end tests: boot a real server on an ephemeral port, talk to it
//! over TCP, and assert the service-level determinism contract.

use detlock_passes::pipeline::OptLevel;
use detlock_serve::netfault::CrashPlan;
use detlock_serve::protocol::{Client, JobSpec};
use detlock_serve::receipt::{audit_scheduled, Receipt, AUDIT_PERIOD};
use detlock_serve::server::{DetServed, ServeConfig};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::{Backend, ChunkParams, Sched};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 3,
        queue_capacity: 32,
        max_retries: 3,
        job_cycle_budget: u64::MAX,
        watchdog: Some(Duration::from_secs(60)),
        compile_threads: 2,
        backend: Backend::Threaded,
        ..ServeConfig::default()
    }
}

/// Every arbitration policy, for the tests whose property holds per policy.
fn policies() -> [Sched; 3] {
    [
        Sched::Kendo,
        Sched::Chunk(ChunkParams::default()),
        Sched::DcBatch,
    ]
}

fn spec(workload: &str, seed: u64) -> JobSpec {
    JobSpec {
        tenant: "e2e".to_string(),
        workload: workload.to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: Sched::Kendo,
    }
}

/// A job long enough (≈100 ms on the threaded engine) that a drain sent as
/// soon as `/stats` shows it executing arrives well before it finishes.
fn long_spec(workload: &str, seed: u64, scale: f64) -> JobSpec {
    JobSpec {
        scale,
        ..spec(workload, seed)
    }
}

/// Poll `/stats` until `ready` holds, and hand back that snapshot with the
/// connection that saw it.
fn wait_for_stats(addr: &str, ready: impl Fn(&Json) -> bool) -> (Client, Json) {
    let mut c = Client::connect(addr).unwrap();
    loop {
        let stats = c.stats().unwrap();
        if ready(&stats) {
            return (c, stats);
        }
        std::thread::yield_now();
    }
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counters.{key} missing"))
}

/// Executions that ended with a receipt, summed over the shard rows.
fn executions(stats: &Json) -> u64 {
    stats
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|s| s.get("completed").and_then(Json::as_u64).unwrap())
        .sum()
}

fn source(resp: &Json) -> &str {
    resp.get("source").and_then(Json::as_str).unwrap_or("-")
}

/// The `source` of requests `from..=to` (1-based) of `job` when each is
/// answered before the next is sent: what the audit schedule picks
/// executes, the record answers the rest.
fn sources_on_schedule(job: &JobSpec, from: u64, to: u64) -> Vec<&'static str> {
    let key = job.identity_key();
    let source = |k| {
        if audit_scheduled(&key, k) {
            "exec"
        } else {
            "memo"
        }
    };
    (from..=to).map(source).collect()
}

/// Run `job` until its receipt is on record and the next `answers`
/// requests for it are ones the record answers; returns the `source` of
/// every request that took.
fn memoise(c: &mut Client, job: &JobSpec, answers: u64) -> Vec<String> {
    let key = job.identity_key();
    let mut sources = Vec::new();
    loop {
        let sent = sources.len() as u64;
        if sent >= 2 && !(1..=answers).any(|i| audit_scheduled(&key, sent + i)) {
            return sources;
        }
        sources.push(source(&run_ok(c, job).0).to_string());
    }
}

fn receipt_line(resp: &Json) -> String {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "job failed: {}",
        resp.to_string_compact()
    );
    resp.get("receipt").expect("no receipt").to_string_compact()
}

/// Write every frame before reading any response (true pipelining), then
/// read one response line per frame, in order.
fn pipelined(addr: &str, frames: &[Json]) -> Vec<Json> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let wire: String = frames
        .iter()
        .map(|f| f.to_string_compact() + "\n")
        .collect();
    stream.write_all(wire.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    frames
        .iter()
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            Json::parse(line.trim_end()).expect("response line")
        })
        .collect()
}

/// The id of a shard `/stats` shows busy.
fn busy_shard(stats: &Json) -> Option<usize> {
    stats
        .get("shards")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .position(|s| s.get("busy").and_then(Json::as_bool) == Some(true))
}

/// Poll `/stats` until a job is in flight on a busy shard, and hand back
/// the connection that saw it.
fn wait_until_executing(addr: &str) -> Client {
    let executing = |s: &Json| {
        s.get("in_flight").and_then(Json::as_u64).unwrap() >= 1 && busy_shard(s).is_some()
    };
    wait_for_stats(addr, executing).0
}

fn run_ok(client: &mut Client, spec: &JobSpec) -> (Json, Receipt) {
    let resp = client.run(spec).expect("request failed");
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "job failed: {}",
        resp.to_string_compact()
    );
    let receipt =
        Receipt::from_json(resp.get("receipt").expect("no receipt")).expect("malformed receipt");
    (resp, receipt)
}

#[test]
fn two_sweeps_yield_identical_receipts() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let jobs: Vec<JobSpec> = [("ocean", 1), ("raytrace", 2), ("water-nsq", 3)]
        .iter()
        .map(|&(w, s)| spec(w, s))
        .collect();

    let sweep = |client: &mut Client| -> Vec<String> {
        jobs.iter()
            .map(|j| run_ok(client, j).1.canonical())
            .collect()
    };
    let first = sweep(&mut client);
    let second = sweep(&mut client);
    assert_eq!(
        first, second,
        "receipts must be byte-identical across sweeps"
    );

    // The server cross-checked them too: zero mismatches.
    let stats = client.stats().unwrap();
    let mismatches = stats
        .get("counters")
        .and_then(|c| c.get("receipt_mismatches"))
        .and_then(Json::as_u64);
    assert_eq!(mismatches, Some(0));

    client.shutdown().unwrap();
    server.join();
}

/// A `sanitize: true` job over the wire: the response grows a `sanitize`
/// block (zero races/cycles on the serving workloads), the receipt is
/// byte-identical to the unsanitized run's, and `/stats` counts the job
/// under the `sanitizer` block.
#[test]
fn sanitized_jobs_report_over_the_wire() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let plain = spec("ocean", 4);
    let mut sanitized = plain.clone();
    sanitized.sanitize = true;

    let (resp_plain, receipt_plain) = run_ok(&mut client, &plain);
    assert!(
        resp_plain.get("sanitize").is_none(),
        "unsanitized responses must not carry a sanitize block"
    );
    let (resp, receipt) = run_ok(&mut client, &sanitized);
    assert_eq!(
        receipt.canonical(),
        receipt_plain.canonical(),
        "the sanitizer must not perturb the schedule"
    );
    let block = resp.get("sanitize").expect("sanitize block in response");
    let races = block.get("races").and_then(Json::as_arr).unwrap();
    let cycles = block.get("lock_cycles").and_then(Json::as_arr).unwrap();
    assert!(races.is_empty(), "ocean must be dynamically race-free");
    assert!(cycles.is_empty());

    let stats = client.stats().unwrap();
    let san = stats.get("sanitizer").expect("sanitizer stats block");
    assert_eq!(san.get("jobs").and_then(Json::as_u64), Some(1));
    assert_eq!(san.get("races").and_then(Json::as_u64), Some(0));
    assert_eq!(san.get("lock_cycles").and_then(Json::as_u64), Some(0));

    client.shutdown().unwrap();
    server.join();
}

#[test]
fn receipts_are_identical_across_tenants_and_connections() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    let mut a = Client::connect(&addr).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    let mut spec_a = spec("radiosity", 9);
    spec_a.tenant = "tenant-a".to_string();
    let mut spec_b = spec_a.clone();
    spec_b.tenant = "tenant-b".to_string();

    let (_, ra) = run_ok(&mut a, &spec_a);
    let (_, rb) = run_ok(&mut b, &spec_b);
    assert_eq!(ra.canonical(), rb.canonical());

    a.shutdown().unwrap();
    server.join();
}

#[test]
fn backpressure_rejects_with_retry_hint() {
    let config = ServeConfig {
        queue_capacity: 1,
        shards: 1,
        ..test_config()
    };
    let server = DetServed::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // Saturate: several concurrent slow-ish jobs against a 1-deep queue
    // and a single shard. At least one must be rejected with a hint.
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.run(&spec("volrend", 100 + i)).unwrap()
            })
        })
        .collect();
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let rejected: Vec<&Json> = responses
        .iter()
        .filter(|r| r.get("error").and_then(Json::as_str) == Some("queue_full"))
        .collect();
    let accepted = responses
        .iter()
        .filter(|r| r.get("ok").and_then(Json::as_bool) == Some(true))
        .count();
    assert!(accepted >= 1, "at least one job must complete");
    for r in &rejected {
        assert!(
            r.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0) >= 50,
            "rejects must carry retry_after_ms: {}",
            r.to_string_compact()
        );
    }

    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn killed_shard_mid_run_still_yields_identical_receipt() {
    for sched in policies() {
        let server = DetServed::start(test_config()).unwrap();
        let addr = server.local_addr().to_string();

        // Reference receipt from a healthy run.
        let mut c = Client::connect(&addr).unwrap();
        let job = JobSpec {
            scheduler: sched,
            ..spec("ocean", 77)
        };
        let (_, reference) = run_ok(&mut c, &job);

        // Fire the same job again and concurrently kill every shard we can
        // (the server refuses to evict the last one). Whatever shard picks
        // the job up — possibly after eviction + requeue — the receipt must
        // not change.
        let killer = {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut k = Client::connect(&addr).unwrap();
                for s in 0..3 {
                    let _ = k.kill_shard(s);
                }
            })
        };
        let (resp, rerun) = run_ok(&mut c, &job);
        killer.join().unwrap();
        assert_eq!(
            rerun.canonical(),
            reference.canonical(),
            "receipt changed across eviction/requeue: {}",
            resp.to_string_compact()
        );

        // Evictions happened (2 of 3 shards die; the last is protected).
        let stats = c.stats().unwrap();
        let evictions = stats
            .get("counters")
            .and_then(|s| s.get("evictions"))
            .and_then(Json::as_u64)
            .unwrap();
        assert_eq!(evictions, 2);
        let mismatches = stats
            .get("counters")
            .and_then(|s| s.get("receipt_mismatches"))
            .and_then(Json::as_u64);
        assert_eq!(mismatches, Some(0));

        c.shutdown().unwrap();
        server.join();
    }
}

#[test]
fn cycle_budget_exhaustion_fails_without_retry() {
    let config = ServeConfig {
        job_cycle_budget: 1000,
        ..test_config()
    };
    let server = DetServed::start(config).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let resp = c.run(&spec("ocean", 1)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
    assert!(resp
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("cycle budget"));
    // Deterministic failure: no retries were attempted.
    assert_eq!(resp.get("attempts").and_then(Json::as_u64), Some(0));

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn unknown_workload_and_bad_requests_are_rejected() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();

    let resp = c.run(&spec("not-a-workload", 1)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    let resp = c
        .request(&Json::obj([("op", "frobnicate".to_json())]))
        .unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    let resp = c.request(&Json::obj([("nop", 1u64.to_json())])).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));

    c.shutdown().unwrap();
    server.join();
}

#[test]
fn graceful_drain_finishes_inflight_work_and_rejects_new() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();

    // Start a job, then shut down from another connection while more jobs
    // try to enter. The in-flight job completes; late jobs get "draining".
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.run(&long_spec("raytrace", 5, 0.5)).unwrap()
        })
    };
    let mut c = wait_until_executing(&addr);
    let resp = c.shutdown().unwrap();
    assert_eq!(resp.get("drained").and_then(Json::as_bool), Some(true));

    let in_flight = worker.join().unwrap();
    assert_eq!(
        in_flight.get("ok").and_then(Json::as_bool),
        Some(true),
        "in-flight job must complete during drain: {}",
        in_flight.to_string_compact()
    );
    server.join();
}

#[test]
fn injected_crashes_recover_via_checkpoints_with_identical_receipts() {
    for sched in policies() {
        // Fault-free reference receipts first.
        let server = DetServed::start(test_config()).unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        let jobs: Vec<JobSpec> = [("ocean", 21), ("raytrace", 22)]
            .iter()
            .map(|&(w, s)| JobSpec {
                scheduler: sched,
                ..spec(w, s)
            })
            .collect();
        let reference: Vec<String> = jobs
            .iter()
            .map(|j| run_ok(&mut c, j).1.canonical())
            .collect();
        c.shutdown().unwrap();
        server.join();

        // Same jobs on a crash-chaos server with aggressive checkpointing,
        // the crash plan armed before the first job. max_retries is raised
        // because the crash plan needs a few attempts to decay to zero.
        let config = ServeConfig {
            checkpoint_interval: 1500,
            max_retries: 10,
            ..test_config()
        };
        let server = DetServed::start(config).unwrap();
        let addr = server.local_addr().to_string();
        let mut c = Client::connect(&addr).unwrap();
        let plan = CrashPlan {
            seed: 7,
            per_1024: 1024,
        };
        c.chaos(None, Some(&plan)).unwrap();
        let chaotic: Vec<String> = jobs
            .iter()
            .map(|j| run_ok(&mut c, j).1.canonical())
            .collect();
        assert_eq!(
            chaotic, reference,
            "recovered receipts must be byte-identical to fault-free ones"
        );

        let stats = c.stats().unwrap();
        let counter = |k: &str| {
            stats
                .get("counters")
                .and_then(|s| s.get(k))
                .and_then(Json::as_u64)
                .unwrap()
        };
        assert!(counter("crashes_injected") >= 1, "crash plan never fired");
        assert!(
            counter("recoveries") >= 1,
            "crashes must recover warm (from a checkpoint), not cold"
        );
        assert_eq!(counter("receipt_mismatches"), 0);
        let recovery = stats.get("recovery").expect("recovery block");
        assert!(
            recovery
                .get("checkpoints_taken")
                .and_then(Json::as_u64)
                .unwrap()
                >= 1
        );
        assert_eq!(
            recovery.get("crash_faults_active").and_then(Json::as_bool),
            Some(true)
        );

        // Disarm via the control plane and verify the server runs clean again.
        c.chaos(None, None).unwrap();
        let (_, clean) = run_ok(&mut c, &jobs[0]);
        assert_eq!(clean.canonical(), reference[0]);

        c.shutdown().unwrap();
        server.join();
    }
}

#[test]
fn drain_under_load_flushes_final_checkpoints_and_sheds_typed() {
    let config = ServeConfig {
        checkpoint_interval: 1000,
        ..test_config()
    };
    let server = DetServed::start(config).unwrap();
    let addr = server.local_addr().to_string();

    // Keep several jobs in flight, then drain mid-stream.
    let workers: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.run(&long_spec("ocean", 500 + i, 0.2)).unwrap()
            })
        })
        .collect();
    let mut c = wait_until_executing(&addr);
    let resp = c.shutdown().unwrap();
    assert_eq!(resp.get("drained").and_then(Json::as_bool), Some(true));
    // In-flight jobs checkpointed at a 1000-cycle interval, so the drain
    // must have flushed a final checkpoint for at least one of them.
    assert!(
        resp.get("drain_flushed").and_then(Json::as_u64).unwrap() >= 1,
        "drain flushed no checkpoints: {}",
        resp.to_string_compact()
    );

    // In-flight jobs completed; any job racing admission after the close
    // got the *typed* draining shed.
    for w in workers {
        let r = w.join().unwrap();
        let ok = r.get("ok").and_then(Json::as_bool) == Some(true);
        if !ok {
            assert_eq!(r.get("error_kind").and_then(Json::as_str), Some("shed"));
            assert_eq!(r.get("reason").and_then(Json::as_str), Some("draining"));
        }
    }
    server.join();
}

#[test]
fn queue_full_sheds_are_typed() {
    let config = ServeConfig {
        queue_capacity: 1,
        shards: 1,
        ..test_config()
    };
    let server = DetServed::start(config).unwrap();
    let addr = server.local_addr().to_string();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).unwrap();
                c.run(&spec("volrend", 300 + i)).unwrap()
            })
        })
        .collect();
    let responses: Vec<Json> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in responses
        .iter()
        .filter(|r| r.get("error").and_then(Json::as_str) == Some("queue_full"))
    {
        assert_eq!(r.get("error_kind").and_then(Json::as_str), Some("shed"));
        assert_eq!(r.get("reason").and_then(Json::as_str), Some("queue_full"));
        assert!(r.get("retry_after_ms").and_then(Json::as_u64).unwrap_or(0) >= 50);
    }
    let mut c = Client::connect(&addr).unwrap();
    c.shutdown().unwrap();
    server.join();
}

#[test]
fn stats_snapshot_has_the_advertised_shape() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    run_ok(&mut c, &spec("water-nsq", 11));

    let stats = c.stats().unwrap();
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
    assert!(stats.get("queue_depth").and_then(Json::as_u64).is_some());
    assert_eq!(stats.get("draining").and_then(Json::as_bool), Some(false));
    let shards = stats.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(shards.len(), 3);
    let completed: u64 = shards
        .iter()
        .map(|s| s.get("completed").and_then(Json::as_u64).unwrap())
        .sum();
    assert_eq!(completed, 1);
    let exec = stats.get("exec_latency").unwrap();
    assert_eq!(exec.get("count").and_then(Json::as_u64), Some(1));
    assert!(exec.get("p99_us").and_then(Json::as_u64).unwrap() > 0);

    // Recovery/chaos observability: the block and its counters exist, and
    // per-shard rows carry recovery/requeue/checkpoint counts.
    let recovery = stats.get("recovery").expect("recovery block");
    for k in [
        "checkpoint_interval",
        "checkpoints_taken",
        "recoveries",
        "cold_requeues",
        "drain_flushed",
    ] {
        assert!(
            recovery.get(k).and_then(Json::as_u64).is_some(),
            "recovery.{k} missing: {}",
            recovery.to_string_compact()
        );
    }
    assert_eq!(
        recovery.get("net_faults_active").and_then(Json::as_bool),
        Some(false)
    );
    for k in ["recoveries", "requeues", "checkpoints"] {
        assert!(
            shards
                .iter()
                .all(|s| s.get(k).and_then(Json::as_u64).is_some()),
            "per-shard `{k}` missing"
        );
    }
    let counters = stats.get("counters").unwrap();
    for k in [
        "memo_hits",
        "collapsed",
        "audits",
        "shed_full",
        "shed_draining",
        "recoveries",
        "cold_requeues",
        "net_faults_injected",
        "crashes_injected",
        "drain_flushed",
    ] {
        assert!(
            counters.get(k).and_then(Json::as_u64).is_some(),
            "counters.{k} missing"
        );
    }

    // Pipeline telemetry: the job compiled at OptLevel::All through the
    // pass manager, so the shared analysis cache must report hits, and the
    // per-pass rows must be present.
    let instr = stats.get("instrumentation").expect("instrumentation block");
    assert!(
        instr
            .get("analysis_cache_hits")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "serve path must hit the analysis cache: {}",
        instr.to_string_compact()
    );
    assert!(
        instr
            .get("analysis_cache_misses")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let passes = instr.get("passes").and_then(Json::as_arr).unwrap();
    assert!(
        passes
            .iter()
            .any(|p| p.get("pass").and_then(Json::as_str) == Some("materialize-ticks")),
        "per-pass rows missing: {}",
        instr.to_string_compact()
    );
    let shard_hits: u64 = shards
        .iter()
        .map(|s| s.get("analysis_hits").and_then(Json::as_u64).unwrap())
        .sum();
    assert!(shard_hits > 0);

    // Every admitted request is accounted for once it is answered,
    // whichever way it was answered; shard rows count executions only.
    let job = spec("water-nsq", 11);
    let sources: Vec<String> = (2..=3)
        .map(|_| source(&run_ok(&mut c, &job).0).to_string())
        .collect();
    assert_eq!(sources, sources_on_schedule(&job, 2, 3));
    assert_eq!(sources[0], "exec");
    let memo_hits = sources.iter().filter(|s| *s == "memo").count() as u64;
    assert_eq!(
        c.run(&spec("not-a-workload", 1)).unwrap().get("ok"),
        Some(&Json::Bool(false))
    );
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "accepted"), 4);
    assert_eq!(
        (counter(&stats, "completed"), counter(&stats, "failed")),
        (3, 1)
    );
    assert_eq!(
        (counter(&stats, "memo_hits"), counter(&stats, "audits")),
        (memo_hits, 2 - memo_hits)
    );
    assert_eq!(executions(&stats), 3 - memo_hits);

    c.shutdown().unwrap();
    server.join();
}

/// One long job and `N` pipelined duplicates of it are one execution, and
/// stay one through the eviction of the shard running it: the waiters hang
/// on the identity, so they follow the job to its next shard.
#[test]
fn pipelined_duplicates_collapse_onto_one_execution_across_an_eviction() {
    const N: u64 = 5;
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let job = long_spec("raytrace", 31, 2.0);

    let frames: Vec<Json> = (0..=N).map(|_| job.to_json()).collect();
    let driver = {
        let addr = addr.clone();
        std::thread::spawn(move || pipelined(&addr, &frames))
    };
    // Everyone is parked and the owner is mid-run: evict its shard.
    let (mut c, stats) = wait_for_stats(&addr, |s| {
        counter(s, "collapsed") == N && busy_shard(s).is_some()
    });
    let victim = busy_shard(&stats).unwrap();
    let killed = c.kill_shard(victim).unwrap();
    assert_eq!(killed.get("evicted").and_then(Json::as_bool), Some(true));

    let responses = driver.join().unwrap();
    let receipts: Vec<String> = responses.iter().map(receipt_line).collect();
    assert!(receipts.iter().all(|r| *r == receipts[0]), "{receipts:?}");
    let sources: Vec<&str> = responses.iter().map(source).collect();
    assert_eq!(sources[0], "exec");
    assert!(sources[1..].iter().all(|s| *s == "attached"), "{sources:?}");
    for r in &responses[1..] {
        assert_eq!(r.get("exec_us").and_then(Json::as_u64), Some(0));
        assert_ne!(
            r.get("shard").and_then(Json::as_u64),
            Some(victim as u64),
            "the receipt came from the shard that finished the job"
        );
    }

    let stats = c.stats().unwrap();
    assert_eq!(executions(&stats), 1, "duplicates must not execute");
    assert_eq!(counter(&stats, "collapsed"), N);
    assert_eq!(counter(&stats, "accepted"), N + 1);
    assert_eq!(counter(&stats, "completed"), N + 1);
    assert!(
        counter(&stats, "requeues") >= 1,
        "the kill landed after the job finished: nothing migrated"
    );
    assert_eq!(counter(&stats, "receipt_mismatches"), 0);

    c.shutdown().unwrap();
    server.join();
}

/// The audit schedule over the wire: the miss and the first repeat
/// execute, then one request in `AUDIT_PERIOD`; the record answers the rest.
#[test]
fn repeats_are_answered_from_the_memo_between_scheduled_audits() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let job = spec("volrend", 12);

    let n = 2 + AUDIT_PERIOD;
    let responses: Vec<Json> = (0..n).map(|_| run_ok(&mut c, &job).0).collect();
    let sources: Vec<&str> = responses.iter().map(source).collect();
    assert_eq!(sources, sources_on_schedule(&job, 1, n));
    assert_eq!(sources[..2], ["exec", "exec"]);
    assert_eq!(sources.iter().filter(|s| **s == "exec").count(), 3);
    let receipts: Vec<String> = responses.iter().map(receipt_line).collect();
    assert!(receipts.iter().all(|r| *r == receipts[0]), "{receipts:?}");
    for memo in responses.iter().filter(|r| source(r) == "memo") {
        assert_eq!(memo.get("queue_us").and_then(Json::as_u64), Some(0));
        assert_eq!(memo.get("exec_us").and_then(Json::as_u64), Some(0));
        assert_eq!(memo.get("attempts").and_then(Json::as_u64), Some(0));
    }

    let stats = c.stats().unwrap();
    assert_eq!(executions(&stats), 3);
    assert_eq!(counter(&stats, "memo_hits"), n - 3);
    assert_eq!(counter(&stats, "audits"), 2);
    assert_eq!(counter(&stats, "accepted"), n);
    assert_eq!(counter(&stats, "completed"), n);
    // The latency histograms keep meaning "executions".
    let exec = stats.get("exec_latency").unwrap();
    assert_eq!(exec.get("count").and_then(Json::as_u64), Some(3));

    c.shutdown().unwrap();
    server.join();
}

/// A request that needs a report, or arrives while crashes are being
/// injected on purpose, executes however well its identity is memoised.
#[test]
fn sanitize_and_an_armed_crash_plan_bypass_the_memo() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let job = spec("ocean", 13);
    let sources = memoise(&mut c, &job, 1);
    assert_eq!(sources, sources_on_schedule(&job, 1, sources.len() as u64));
    let executed = sources.iter().filter(|s| *s == "exec").count() as u64;
    let answered = sources.len() as u64 - executed;

    let sanitized = JobSpec {
        sanitize: true,
        ..job.clone()
    };
    let (resp, _) = run_ok(&mut c, &sanitized);
    assert_eq!(source(&resp), "exec");
    assert!(resp.get("sanitize").is_some(), "the report is the point");

    // Armed is what counts, not whether the plan ever fires.
    let plan = CrashPlan {
        seed: 1,
        per_1024: 0,
    };
    c.chaos(None, Some(&plan)).unwrap();
    assert_eq!(source(&run_ok(&mut c, &job).0), "exec");
    assert_eq!(source(&run_ok(&mut c, &job).0), "exec");
    c.chaos(None, None).unwrap();
    assert_eq!(source(&run_ok(&mut c, &job).0), "memo");

    let stats = c.stats().unwrap();
    assert_eq!(executions(&stats), executed + 3);
    assert_eq!(counter(&stats, "memo_hits"), answered + 1);
    assert_eq!(counter(&stats, "receipt_mismatches"), 0);

    c.shutdown().unwrap();
    server.join();
}

/// Drain refuses everything at the door, a memoised identity included:
/// the client must learn the server is going away.
#[test]
fn a_memoised_identity_is_still_shed_during_drain() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let job = spec("ocean", 14);
    memoise(&mut c, &job, 1);
    assert_eq!(source(&run_ok(&mut c, &job).0), "memo");

    // Hold the drain open with a long job, then ask again.
    let worker = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).unwrap();
            c.run(&long_spec("raytrace", 15, 2.0)).unwrap()
        })
    };
    let mut closer = wait_until_executing(&addr);
    let closer = std::thread::spawn(move || closer.shutdown().unwrap());
    wait_for_stats(&addr, |s| {
        s.get("draining").and_then(Json::as_bool) == Some(true)
    });
    let shed = c.run(&job).unwrap();
    assert_eq!(
        shed.get("reason").and_then(Json::as_str),
        Some("draining"),
        "{}",
        shed.to_string_compact()
    );
    assert_eq!(shed.get("error_kind").and_then(Json::as_str), Some("shed"));

    assert_eq!(
        worker.join().unwrap().get("ok").and_then(Json::as_bool),
        Some(true)
    );
    let drained = closer.join().unwrap();
    assert_eq!(drained.get("drained").and_then(Json::as_bool), Some(true));
    server.join();
}

/// A failure reaches everyone parked on the execution that failed, and is
/// not memoised: the next request for the identity executes again.
#[test]
fn a_cycle_budget_failure_reaches_every_waiter_and_is_not_memoised() {
    const N: u64 = 4;
    // Half of what the job needs (4.2 M cycles), so it runs for tens of
    // milliseconds before it is cut off.
    let config = ServeConfig {
        job_cycle_budget: 2_000_000,
        ..test_config()
    };
    let server = DetServed::start(config).unwrap();
    let addr = server.local_addr().to_string();
    let job = long_spec("raytrace", 16, 2.0);

    let frames: Vec<Json> = (0..=N).map(|_| job.to_json()).collect();
    let driver = {
        let addr = addr.clone();
        std::thread::spawn(move || pipelined(&addr, &frames))
    };
    let (mut c, _) = wait_for_stats(&addr, |s| counter(s, "collapsed") == N);
    for resp in driver.join().unwrap() {
        assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(false));
        let error = resp.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("cycle budget"), "{error}");
    }

    // Neither parked nor answered from a record: it ran, and failed again.
    let again = c.run(&job).unwrap();
    assert_eq!(again.get("ok").and_then(Json::as_bool), Some(false));
    let stats = c.stats().unwrap();
    assert_eq!(counter(&stats, "collapsed"), N);
    assert_eq!(counter(&stats, "memo_hits"), 0);
    assert_eq!(counter(&stats, "accepted"), N + 2);
    assert_eq!(counter(&stats, "failed"), N + 2);
    assert_eq!(counter(&stats, "completed"), 0);

    c.shutdown().unwrap();
    server.join();
}

/// One v2 `batch` frame whose jobs are answered three different ways
/// still comes back as one `results` array in submission order.
#[test]
fn a_batch_mixing_hits_attaches_and_misses_answers_in_order() {
    let server = DetServed::start(test_config()).unwrap();
    let addr = server.local_addr().to_string();
    let mut c = Client::connect(&addr).unwrap();
    let hit = spec("ocean", 17);
    memoise(&mut c, &hit, 2);
    let long = long_spec("raytrace", 18, 0.5);
    let miss = spec("volrend", 19);

    let batch = [&hit, &long, &long, &hit, &miss].map(JobSpec::clone);
    let results = c.run_batch(&batch).unwrap();
    let sources: Vec<&str> = results.iter().map(source).collect();
    assert_eq!(sources, ["memo", "exec", "attached", "memo", "exec"]);
    for (job, result) in batch.iter().zip(&results) {
        let receipt = Receipt::from_json(result.get("receipt").unwrap()).unwrap();
        assert_eq!(
            (receipt.workload.as_str(), receipt.seed, receipt.scale),
            (job.workload.as_str(), job.seed, job.scale),
            "a result is out of place"
        );
    }
    assert_eq!(receipt_line(&results[1]), receipt_line(&results[2]));

    c.shutdown().unwrap();
    server.join();
}
