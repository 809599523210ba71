//! Shard-group end-to-end tests: several real `DetServed` processes'
//! worth of shards behind a `GroupRouter`, driven over real TCP.
//!
//! (The backends here are in-process `DetServed` instances rather than
//! forked binaries — the router talks to them over loopback TCP exactly
//! as it would to separate processes, so the wire paths exercised are
//! identical; CI's serve-load job runs the true multi-process shape.)

use detlock_passes::pipeline::OptLevel;
use detlock_serve::group::{GroupConfig, GroupRouter};
use detlock_serve::protocol::{Client, JobSpec};
use detlock_serve::receipt::audit_scheduled;
use detlock_serve::server::{DetServed, ServeConfig};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::{Backend, ChunkParams, Sched};
use std::time::Duration;

fn backend_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        queue_capacity: 32,
        max_retries: 3,
        job_cycle_budget: u64::MAX,
        watchdog: Some(Duration::from_secs(60)),
        compile_threads: 2,
        backend: Backend::Threaded,
        ..ServeConfig::default()
    }
}

fn spec(workload: &str, seed: u64) -> JobSpec {
    JobSpec {
        tenant: "group-e2e".to_string(),
        workload: workload.to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: Sched::Kendo,
    }
}

struct Group {
    backends: Vec<DetServed>,
    router: GroupRouter,
}

fn boot_group(n: usize) -> Group {
    route((0..n).map(|_| backend_config()).collect())
}

/// One backend per config, behind a router.
fn route(configs: Vec<ServeConfig>) -> Group {
    let backends: Vec<DetServed> = configs
        .into_iter()
        .map(|c| DetServed::start(c).expect("backend boot"))
        .collect();
    let router = GroupRouter::start(GroupConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect(),
        vnodes: 32,
    })
    .expect("router boot");
    Group { backends, router }
}

impl Group {
    fn stop(self) {
        self.router.shutdown_and_join();
        for b in self.backends {
            b.shutdown_and_join();
        }
    }
}

fn counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| {
            panic!(
                "stats missing counter {name}: {}",
                stats.to_string_compact()
            )
        })
}

fn stats(addr: &str) -> Json {
    let mut client = Client::connect(addr).unwrap();
    client
        .request(&Json::obj([("op", "stats".to_json())]))
        .unwrap()
}

/// The receipt and the `backend` stamp of one successful answer.
fn receipt_and_backend(resp: &Json) -> (String, u64) {
    assert_eq!(
        resp.get("ok").and_then(Json::as_bool),
        Some(true),
        "job failed through router: {}",
        resp.to_string_compact()
    );
    let receipt = resp.get("receipt").expect("receipt").to_string_compact();
    let backend = resp
        .get("backend")
        .and_then(Json::as_u64)
        .expect("backend stamp");
    (receipt, backend)
}

#[test]
fn receipts_are_identical_across_sweeps_and_processes() {
    let group = boot_group(3);
    let addr = group.router.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let jobs: Vec<JobSpec> = (0..8)
        .map(|i| spec(["ocean", "raytrace", "water-nsq"][i % 3], i as u64))
        .collect();

    let sweep = |client: &mut Client| -> (Vec<String>, Vec<u64>) {
        jobs.iter()
            .map(|j| receipt_and_backend(&client.run(j).expect("request")))
            .unzip()
    };

    // Sweep k sends each identity's k-th request: the first goes to the
    // key's owner, and from the second on the ones the audit schedule
    // picks go to another process.
    let (first, owners) = sweep(&mut client);
    let distinct: std::collections::HashSet<u64> = owners.iter().copied().collect();
    assert!(
        distinct.len() >= 2,
        "8 keys on a 3-backend ring should span processes, got {owners:?}"
    );
    let mut picked = 0;
    for k in 2..=3 {
        let (receipts, placement) = sweep(&mut client);
        assert_eq!(receipts, first, "sweep {k}: receipts must be identical");
        for ((j, &owner), &b) in jobs.iter().zip(&owners).zip(&placement) {
            let key = j.identity_key();
            if audit_scheduled(&key, k) {
                picked += 1;
                assert_ne!(
                    b, owner,
                    "sweep {k}: the audit of {key} stayed on its owner"
                );
            } else {
                assert_eq!(b, owner, "sweep {k}: {key} left its owner");
            }
        }
    }

    let stats = stats(&addr);
    assert_eq!(stats.get("router").and_then(Json::as_bool), Some(true));
    assert_eq!(counter(&stats, "routed"), 3 * jobs.len() as u64);
    assert_eq!(
        counter(&stats, "cross_checks"),
        picked,
        "every audit is one cross-process check: {}",
        stats.to_string_compact()
    );
    assert_eq!(
        counter(&stats, "dedup_hits"),
        2 * jobs.len() as u64,
        "sweeps 2 and 3 re-sight every key"
    );
    assert_eq!(counter(&stats, "receipt_mismatches"), 0);
    let forwarded: u64 = stats
        .get("backends")
        .and_then(Json::as_arr)
        .expect("backend rows")
        .iter()
        .filter_map(|b| b.get("forwarded").and_then(Json::as_u64))
        .sum();
    assert_eq!(
        forwarded,
        counter(&stats, "routed"),
        "one forward per request"
    );

    group.stop();
}

/// The negative control for cross-process audits: a per-process setting
/// that leaks into a receipt (here each backend's default scheduler, for a
/// request that names none) is invisible to every same-process audit and
/// caught by the first audit the router sends to the other process.
#[test]
fn an_audit_on_a_second_process_catches_a_per_process_setting_in_the_receipt() {
    let group = route(vec![
        ServeConfig {
            scheduler: Sched::Kendo,
            ..backend_config()
        },
        ServeConfig {
            scheduler: Sched::Chunk(ChunkParams::default()),
            ..backend_config()
        },
    ]);
    let addr = group.router.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let run = Json::parse(r#"{"op":"run","workload":"ocean","threads":2,"scale":0.02,"seed":7}"#)
        .unwrap();
    let (first, owner) = receipt_and_backend(&client.request(&run).unwrap());
    let (second, auditor) = receipt_and_backend(&client.request(&run).unwrap());
    assert_ne!(
        auditor, owner,
        "the second request is an audit on the other process"
    );
    assert_ne!(first, second);

    let stats = stats(&addr);
    assert_eq!(counter(&stats, "receipt_mismatches"), 1);
    assert_eq!(counter(&stats, "cross_checks"), 1);

    group.stop();
}

#[test]
fn protocol_v2_negotiation_and_batches_work_through_the_router() {
    let group = boot_group(2);
    let addr = group.router.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    assert_eq!(client.hello().unwrap(), 2, "router speaks wire v2");

    let jobs: Vec<JobSpec> = (0..5).map(|i| spec("ocean", 100 + i)).collect();
    let mut batch = || -> Vec<String> {
        let results = client.run_batch(&jobs).unwrap();
        results.iter().map(|r| receipt_and_backend(r).0).collect()
    };
    let first = batch();
    assert_eq!(first.len(), jobs.len());
    // Same batch again: byte-identical receipts.
    assert_eq!(batch(), first);

    group.stop();
}

#[test]
fn dead_backend_fails_over_without_losing_determinism() {
    let mut group = boot_group(3);
    let addr = group.router.local_addr().to_string();

    let jobs: Vec<JobSpec> = (0..6).map(|i| spec("raytrace", 500 + i)).collect();

    // Warm sweep with all three backends up.
    let mut client = Client::connect(&addr).unwrap();
    let warm: Vec<String> = jobs
        .iter()
        .map(|j| receipt_and_backend(&client.run(j).expect("warm request")).0)
        .collect();

    // Take a backend down; its keys must re-route, and the receipts the
    // substitutes produce must match the ledger from the warm sweep.
    group.backends.remove(2).shutdown_and_join();
    // A job whose backend died mid-request is answered with the typed
    // retryable shed; wait out its `retry_after_ms` and ask again.
    let mut failover = |j: &JobSpec| -> Json {
        for _ in 0..20 {
            let resp = client.run(j).expect("failover request");
            if resp.get("error_kind").and_then(Json::as_str) != Some("shed") {
                return resp;
            }
            let ms = resp.get("retry_after_ms").and_then(Json::as_u64).unwrap();
            std::thread::sleep(Duration::from_millis(ms));
        }
        panic!("{} still shed after 20 tries", j.identity_key());
    };
    let mut after = Vec::new();
    for j in &jobs {
        let (receipt, b) = receipt_and_backend(&failover(j));
        assert_ne!(b, 2, "dead backend cannot have answered");
        after.push(receipt);
    }
    assert_eq!(warm, after, "failover must not change receipts");

    let stats = stats(&addr);
    assert_eq!(
        counter(&stats, "receipt_mismatches"),
        0,
        "substitute backends diverged from the ledger: {}",
        stats.to_string_compact()
    );

    group.stop();
}

#[test]
fn wire_shutdown_drains_the_whole_group() {
    let group = boot_group(2);
    let addr = group.router.local_addr().to_string();
    let mut client = Client::connect(&addr).unwrap();

    let resp = client.run(&spec("ocean", 9000)).unwrap();
    assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));

    let down = client
        .request(&Json::obj([("op", "shutdown".to_json())]))
        .unwrap();
    assert_eq!(
        down.get("ok").and_then(Json::as_bool),
        Some(true),
        "group shutdown failed: {}",
        down.to_string_compact()
    );
    assert_eq!(down.get("drained").and_then(Json::as_bool), Some(true));
    let per_backend = down.get("backends").and_then(Json::as_arr).unwrap();
    assert_eq!(per_backend.len(), 2);
    for r in per_backend {
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
    }

    group.router.join();
    for b in group.backends {
        b.join();
    }
}
