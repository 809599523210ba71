//! `detload`'s retry path against an in-process server whose wire drops,
//! truncates, stalls and delays responses. A receipt is a function of the
//! job, so re-sending a job after a wire casualty is safe: every job is
//! answered, and every answer to one job identity carries the receipt the
//! clean wire gave it.

use detlock_bench::loadgen::{Ledger, LoadGen, LoadOptions, PhaseReport};
use detlock_passes::pipeline::OptLevel;
use detlock_serve::netfault::NetFaultPlan;
use detlock_serve::protocol::{Client, JobSpec};
use detlock_serve::server::{DetServed, ServeConfig};
use detlock_shim::json::Json;
use detlock_vm::{Backend, Sched};

fn spec(seed: u64) -> JobSpec {
    JobSpec {
        tenant: "wire-chaos".to_string(),
        workload: "ocean".to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler: Sched::Kendo,
    }
}

/// Drive `jobs` once through a fresh pool of one keep-alive connection,
/// `pipeline` jobs per frame (1: v1 `run` lines, more: v2 `batch` frames),
/// every frame released at once.
fn phase(addr: &str, pipeline: usize, jobs: &[JobSpec], ledger: &mut Ledger) -> PhaseReport {
    let mut gen = LoadGen::new(LoadOptions {
        addr: addr.to_string(),
        pipeline,
        ..LoadOptions::default()
    });
    gen.run_phase(jobs, 1e6, ledger)
}

fn counter(stats: &Json, key: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("counters.{key} missing"))
}

fn listed(items: &[Json]) -> Vec<String> {
    items.iter().map(Json::to_string_compact).collect()
}

#[test]
fn detload_rides_out_wire_chaos_with_one_receipt_per_job() {
    let server = DetServed::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: 2,
        backend: Backend::Threaded,
        ..ServeConfig::default()
    })
    .expect("server boot");
    let addr = server.local_addr().to_string();
    let mut control = Client::connect(&addr).unwrap();
    let jobs: Vec<JobSpec> = (0..8).map(|i| spec(60 + i)).collect();
    let mut ledger = Ledger::default();

    // The clean wire records each job's reference receipt.
    let clean = phase(&addr, 1, &jobs, &mut ledger);
    assert_eq!(clean.completed, jobs.len() as u64);
    assert_eq!(ledger.receipts.len(), jobs.len());

    // Over a third of the data-plane responses vanish or arrive cut
    // mid-frame (an abrupt close stands in for a TCP reset). Each phase
    // sends every job twice, so each identity is answered again within
    // the phase as well as against the clean phase's record.
    let plan = NetFaultPlan {
        drop_per_1024: 256,
        truncate_per_1024: 128,
        partial_per_1024: 64,
        delay_per_1024: 128,
        max_delay_ms: 5,
        ..NetFaultPlan::new(0xFA17)
    };
    let armed = control.chaos(Some(&plan), None).unwrap();
    assert_eq!(armed.get("ok").and_then(Json::as_bool), Some(true));
    let twice: Vec<JobSpec> = jobs.iter().chain(&jobs).cloned().collect();
    for pipeline in [1, 2] {
        let p = phase(&addr, pipeline, &twice, &mut ledger);
        assert_eq!(
            p.completed,
            twice.len() as u64,
            "pipeline {pipeline}: {} of {} jobs completed",
            p.completed,
            twice.len()
        );
        assert!(
            p.reconnects >= 1,
            "pipeline {pipeline}: no connection casualty, so no job was re-sent"
        );
    }
    control.chaos(None, None).unwrap();

    assert!(
        ledger.mismatches.is_empty(),
        "a re-answered job changed its receipt: {:?}",
        listed(&ledger.mismatches)
    );
    assert!(
        ledger.failures.is_empty(),
        "jobs failed under wire chaos: {:?}",
        listed(&ledger.failures)
    );
    assert_eq!(ledger.unanswered, 0);
    let stats = control.stats().unwrap();
    assert!(
        counter(&stats, "net_faults_injected") >= 1,
        "the fault plan never fired"
    );
    assert_eq!(counter(&stats, "receipt_mismatches"), 0);
    control.shutdown().unwrap();
    server.join();
}
