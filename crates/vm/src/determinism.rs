//! Run-to-run determinism checking.
//!
//! *Weak determinism* (the paper's guarantee, after Kendo) means the lock
//! acquisition order of a race-free program is identical on every run with
//! the same input, regardless of timing. The simulator's jitter seed models
//! timing perturbation; [`check_determinism`] reruns a workload across seeds
//! and compares the acquisition-order fingerprints.

use crate::machine::{run, MachineConfig, ThreadSpec};
use crate::metrics::RunMetrics;
use detlock_ir::module::Module;
use detlock_passes::cost::CostModel;
use detlock_shim::acq::{first_divergence, Acquisition};

/// Result of a multi-seed determinism probe.
#[derive(Debug, Clone)]
pub struct DeterminismReport {
    /// Acquisition-order hash per seed.
    pub hashes: Vec<u64>,
    /// Whether all seeds produced the same order.
    pub deterministic: bool,
    /// Metrics of the first run (for inspection).
    pub first: RunMetrics,
    /// Whether any run hit the cycle limit.
    pub any_hit_limit: bool,
    /// On violation, the first diverging acquisition between the first run
    /// and the earliest run that disagreed with it.
    pub divergence: Option<Divergence>,
}

/// The first point where two runs' lock-acquisition sequences differ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Jitter seed of the reference (first) run.
    pub seed_a: u64,
    /// Jitter seed of the earliest run disagreeing with the reference.
    pub seed_b: u64,
    /// Index of the first differing acquisition.
    pub index: usize,
    /// What the reference run acquired at `index`, if the recorded
    /// (bounded) prefix reaches that far.
    pub a: Option<Acquisition>,
    /// What the diverging run acquired at `index`.
    pub b: Option<Acquisition>,
}

/// Run the workload once per seed and compare lock-acquisition orders.
pub fn check_determinism(
    module: &Module,
    cost: &CostModel,
    threads: &[ThreadSpec],
    base_cfg: &MachineConfig,
    seeds: &[u64],
) -> DeterminismReport {
    assert!(!seeds.is_empty());
    let mut hashes = Vec::with_capacity(seeds.len());
    let mut first: Option<RunMetrics> = None;
    let mut any_hit_limit = false;
    let mut divergence: Option<Divergence> = None;
    for &seed in seeds {
        let mut cfg = base_cfg.clone();
        cfg.jitter = cfg.jitter.with_seed(seed);
        let (metrics, hit) = run(module, cost, threads, cfg);
        any_hit_limit |= hit;
        hashes.push(metrics.lock_order_hash);
        match &first {
            None => first = Some(metrics),
            Some(reference) => {
                if divergence.is_none() && metrics.lock_order_hash != reference.lock_order_hash {
                    let idx = first_divergence(&reference.lock_order, &metrics.lock_order);
                    divergence = Some(Divergence {
                        seed_a: seeds[0],
                        seed_b: seed,
                        // Hashes disagreed but the bounded recorded prefixes
                        // agree: the divergence lies past the window.
                        index: idx.unwrap_or(reference.lock_order.len()),
                        a: idx.and_then(|i| reference.lock_order.get(i).copied()),
                        b: idx.and_then(|i| metrics.lock_order.get(i).copied()),
                    });
                }
            }
        }
    }
    let deterministic = hashes.windows(2).all(|w| w[0] == w[1]);
    DeterminismReport {
        hashes,
        deterministic,
        first: first.unwrap(),
        any_hit_limit,
        divergence,
    }
}
