//! Property sweep over the arbitration-policy axis.
//!
//! Two contracts, complementary to the backend differential:
//!
//! 1. **Within a policy, nothing else may matter.** For every workload ×
//!    scheduler × jitter seed, re-executing the same job must reproduce
//!    the receipt byte-for-byte — in the same shard engine, and in a
//!    fresh one (no hidden cache or process state in the receipt). Trace
//!    hashes, and the acquisition lists with their clocks, must also be
//!    jitter-seed-invariant per policy.
//!
//! 2. **Across policies, the difference must be real.** The schedulers
//!    are not renames of one another: on at least one contended workload,
//!    Kendo and DC-batch must commit locks in *different* deterministic
//!    orders. Without this negative control, a bug that collapsed every
//!    policy into one would pass the stability properties trivially.

use detlock_bench::{instrumented, machine_config, thread_specs};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_serve::protocol::JobSpec;
use detlock_serve::shard::ShardEngine;
use detlock_shim::acq::{first_divergence, Acquisition};
use detlock_vm::machine::{ExecMode, Machine};
use detlock_vm::{ChunkParams, Sched};
use detlock_workloads::all_benchmarks;

fn policies() -> [Sched; 3] {
    [
        Sched::Kendo,
        Sched::Chunk(ChunkParams::default()),
        Sched::DcBatch,
    ]
}

fn spec(workload: &str, seed: u64, scheduler: Sched) -> JobSpec {
    JobSpec {
        tenant: "sched-matrix".to_string(),
        workload: workload.to_string(),
        threads: 2,
        scale: 0.02,
        seed,
        opt: OptLevel::All,
        sanitize: false,
        scheduler,
    }
}

/// Seeds × schedulers receipt stability: the same job executed twice in
/// one engine and once more in a fresh engine yields one canonical
/// receipt, and that receipt names the policy that produced it.
#[test]
fn receipts_stable_per_scheduler_across_seeds_and_engines() {
    let workloads: Vec<String> = all_benchmarks(2, 0.02)
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    let mut shared = ShardEngine::new(0);
    let mut cells = 0u32;
    for name in &workloads {
        for sched in policies() {
            for seed in [1u64, 7, 31337] {
                let job = spec(name, seed, sched);
                let first = shared
                    .execute(&job, u64::MAX)
                    .unwrap_or_else(|e| panic!("{name}/{sched}/seed {seed}: {e:?}"));
                let again = shared.execute(&job, u64::MAX).unwrap();
                assert_eq!(
                    first.canonical(),
                    again.canonical(),
                    "{name}/{sched}/seed {seed}: receipt unstable within one engine"
                );
                let fresh = ShardEngine::new(1).execute(&job, u64::MAX).unwrap();
                assert_eq!(
                    first.canonical(),
                    fresh.canonical(),
                    "{name}/{sched}/seed {seed}: receipt unstable across engines"
                );
                assert_eq!(
                    first.scheduler,
                    sched.spec(),
                    "receipt does not name its arbitration policy"
                );
                cells += 1;
            }
        }
    }
    assert!(cells >= 45, "stability grid shrank to {cells} cells");
}

/// The scheduler is part of job identity: two specs differing only in
/// policy must never share an identity key (and so never share a cache
/// slot or a dedup bucket in the serving layer).
#[test]
fn policies_never_collide_in_identity_space() {
    let keys: Vec<String> = policies()
        .iter()
        .map(|&s| spec("ocean", 1, s).identity_key())
        .collect();
    for i in 0..keys.len() {
        for j in i + 1..keys.len() {
            assert_ne!(keys[i], keys[j], "identity collision between policies");
        }
    }
}

/// Per policy, the lock-order trace hash — and the recorded acquisition
/// list with the acquirer's clock at every grant — must be a function of
/// the workload alone, never of the jitter seed. This is the determinism
/// guarantee each scheduler owes, checked policy-by-policy.
///
/// Under the two Kendo-style policies a lock's acquisitions also carry
/// strictly increasing clocks: a waiter is granted only once its clock has
/// passed the holder's release clock, so every grant stamps a clock above
/// the one before it. DC-batch has no release-clock rule and is exempt.
#[test]
fn trace_hashes_jitter_seed_invariant_under_every_policy() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        for sched in policies() {
            let runs: Vec<_> = [0u64, 1, 31337]
                .iter()
                .map(|&seed| {
                    let mut cfg = machine_config(&w, ExecMode::Det, seed);
                    cfg.scheduler = sched;
                    let (metrics, _, hit, _) =
                        Machine::new(&inst.module, &cost, &specs, cfg).run_sanitized();
                    assert!(!hit, "{}/{sched}: hit the cycle limit", w.name);
                    (metrics.lock_order_hash, metrics.lock_order)
                })
                .collect();
            let hashes: Vec<u64> = runs.iter().map(|r| r.0).collect();
            assert!(
                hashes.windows(2).all(|p| p[0] == p[1]),
                "{}/{sched}: trace hash varies with jitter seed: {hashes:x?}",
                w.name
            );
            let order = &runs[0].1;
            for (seed, run) in [1, 31337].iter().zip(&runs[1..]) {
                if let Some(i) = first_divergence(order, &run.1) {
                    panic!(
                        "{}/{sched}: seeds 0 and {seed} first differ at acquisition {i}: \
                         {:?} vs {:?}",
                        w.name,
                        order.get(i),
                        run.1.get(i)
                    );
                }
            }
            if sched != Sched::DcBatch {
                let mut last = std::collections::BTreeMap::new();
                for &Acquisition { lock, tid, clock } in order {
                    if let Some(prev) = last.insert(lock, clock) {
                        assert!(
                            clock > prev,
                            "{}/{sched}: lock {lock} granted to tid {tid} at clock {clock}, \
                             after a grant at clock {prev}",
                            w.name
                        );
                    }
                }
            }
        }
    }
}

/// Negative control: Kendo and DC-batch must disagree on the lock
/// acquisition order of at least one contended workload. Each is
/// deterministic in itself, but batch commit at quiescence is a
/// genuinely different arbitration rule than min-clock turns — if every
/// workload hashes identically under both, the policies have collapsed.
#[test]
fn kendo_and_dc_batch_order_locks_differently_somewhere() {
    let cost = CostModel::default();
    let mut divergent = Vec::new();
    let mut compared = 0u32;
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        let hashes = [Sched::Kendo, Sched::DcBatch].map(|sched| {
            let mut cfg = machine_config(&w, ExecMode::Det, 1);
            cfg.scheduler = sched;
            let (metrics, _, _, _) = Machine::new(&inst.module, &cost, &specs, cfg).run_sanitized();
            metrics.lock_order_hash
        });
        compared += 1;
        if hashes[0] != hashes[1] {
            divergent.push(w.name.to_string());
        }
    }
    assert!(compared >= 5, "workload registry shrank");
    assert!(
        !divergent.is_empty(),
        "Kendo and DC-batch agree on every workload's lock order — \
         the policies have collapsed into one"
    );
}
