//! Determinism receipts.
//!
//! Every job response carries a receipt: the episode's acquisition-order
//! hash plus the final logical clocks of every thread. Both are O(1) in
//! episode length (the hash is folded incrementally by the VM; the clocks
//! are one word per thread — the same "deterministic state is one clock
//! word per thread" argument `--bin related` makes against log-based
//! replay). Two runs of the same job are weakly deterministic **iff** their
//! receipts are byte-for-byte identical in [`Receipt::canonical`] form —
//! which is what `detload` and the `serve-smoke` CI job assert.

use crate::protocol::JobSpec;
use detlock_shim::json::{Json, ToJson};
use detlock_vm::metrics::RunMetrics;
use std::collections::HashMap;

/// The determinism evidence returned with every completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct Receipt {
    /// The job this receipt certifies (tenant excluded: receipts are a
    /// property of the program + input, not of who asked).
    pub workload: String,
    /// Thread count of the episode.
    pub threads: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Jitter seed of the episode.
    pub seed: u64,
    /// Optimization configuration label (`none`..`all`).
    pub opt: String,
    /// Scheduler spec (`kendo`, `chunk[:SIZE[:COST]]`, `dc-batch`). Part
    /// of the receipt: each policy certifies its own lock order.
    pub scheduler: String,
    /// FNV-1a hash over the global `(lock, tid)` acquisition sequence.
    pub trace_hash: u64,
    /// Final logical clock of every thread, in tid order.
    pub final_clocks: Vec<u64>,
    /// Total lock acquisitions of the episode.
    pub lock_acquires: u64,
    /// Simulated cycles of the episode.
    pub cycles: u64,
}

impl Receipt {
    /// Build a receipt from a finished VM run.
    pub fn from_metrics(spec: &JobSpec, m: &RunMetrics) -> Receipt {
        Receipt {
            workload: spec.workload.clone(),
            threads: spec.threads,
            scale: spec.scale,
            seed: spec.seed,
            opt: spec.opt_label().to_string(),
            scheduler: spec.scheduler.spec(),
            trace_hash: m.lock_order_hash,
            final_clocks: m.per_thread.iter().map(|t| t.final_clock).collect(),
            lock_acquires: m.lock_acquires(),
            cycles: m.cycles,
        }
    }

    /// The canonical single-line form used for byte-for-byte identity
    /// checks (stable field order, hash in fixed-width hex).
    pub fn canonical(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse a receipt back out of a response (`None` on shape mismatch).
    pub fn from_json(v: &Json) -> Option<Receipt> {
        Some(Receipt {
            workload: v.get("workload")?.as_str()?.to_string(),
            threads: v.get("threads")?.as_u64()? as usize,
            scale: v.get("scale")?.as_f64()?,
            seed: v.get("seed")?.as_u64()?,
            opt: v.get("opt")?.as_str()?.to_string(),
            scheduler: v.get("scheduler")?.as_str()?.to_string(),
            trace_hash: u64::from_str_radix(
                v.get("trace_hash")?.as_str()?.trim_start_matches("0x"),
                16,
            )
            .ok()?,
            final_clocks: v
                .get("final_clocks")?
                .as_arr()?
                .iter()
                .map(|c| c.as_u64())
                .collect::<Option<Vec<u64>>>()?,
            lock_acquires: v.get("lock_acquires")?.as_u64()?,
            cycles: v.get("cycles")?.as_u64()?,
        })
    }
}

impl ToJson for Receipt {
    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", self.workload.to_json()),
            ("threads", self.threads.to_json()),
            ("scale", self.scale.to_json()),
            ("seed", self.seed.to_json()),
            ("opt", self.opt.to_json()),
            ("scheduler", self.scheduler.to_json()),
            (
                "trace_hash",
                format!("0x{:016x}", self.trace_hash).to_json(),
            ),
            ("final_clocks", self.final_clocks.to_json()),
            ("lock_acquires", self.lock_acquires.to_json()),
            ("cycles", self.cycles.to_json()),
        ])
    }
}

/// How many distinct job identities a [`ReceiptLedger`] remembers.
/// Bounded so the mismatch detector is O(1) in uptime, like everything
/// else on the serving path.
pub const RECEIPT_MEMORY: usize = 4096;

/// What a [`ReceiptLedger`] made of one finished receipt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sighting {
    /// No earlier receipt is on record for this identity.
    First,
    /// An earlier receipt is on record and this one is byte-identical.
    Same,
    /// An earlier receipt is on record and this one differs: an incident.
    Mismatch,
}

/// Bounded identity key → canonical receipt memory. Receipts are a
/// function of the job, so every re-sighting of a key — another tenant,
/// shard, sweep or process — must repeat the first one byte for byte.
#[derive(Default)]
pub struct ReceiptLedger {
    seen: HashMap<String, String>,
}

impl ReceiptLedger {
    /// Record a finished receipt against its job identity. Past
    /// [`RECEIPT_MEMORY`] keys new identities are no longer remembered
    /// (they keep reporting [`Sighting::First`]).
    pub fn record(&mut self, key: String, canonical: &str) -> Sighting {
        match self.seen.get(&key) {
            Some(prev) if prev == canonical => Sighting::Same,
            Some(_) => Sighting::Mismatch,
            None => {
                if self.seen.len() < RECEIPT_MEMORY {
                    self.seen.insert(key, canonical.to_string());
                }
                Sighting::First
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_first_same_mismatch_and_stays_bounded() {
        let mut l = ReceiptLedger::default();
        assert_eq!(l.record("k".into(), "r1"), Sighting::First);
        assert_eq!(l.record("k".into(), "r1"), Sighting::Same);
        assert_eq!(l.record("k".into(), "r2"), Sighting::Mismatch);
        // The first sighting stays the reference after a mismatch.
        assert_eq!(l.record("k".into(), "r1"), Sighting::Same);
        for i in 0..RECEIPT_MEMORY + 10 {
            l.record(format!("fill{i}"), "r");
        }
        assert_eq!(l.seen.len(), RECEIPT_MEMORY);
        assert_eq!(l.record("late".into(), "r"), Sighting::First);
        assert_eq!(l.record("late".into(), "other"), Sighting::First);
    }

    fn sample() -> Receipt {
        Receipt {
            workload: "ocean".into(),
            threads: 4,
            scale: 0.05,
            seed: 7,
            opt: "all".into(),
            scheduler: "kendo".into(),
            trace_hash: 0xdeadbeef,
            final_clocks: vec![10, 20, 30, 40],
            lock_acquires: 99,
            cycles: 123456,
        }
    }

    #[test]
    fn canonical_round_trips() {
        let r = sample();
        let line = r.canonical();
        assert!(!line.contains('\n'));
        let back = Receipt::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.canonical(), line);
    }

    #[test]
    fn canonical_is_sensitive_to_every_field() {
        let base = sample().canonical();
        let mut r = sample();
        r.trace_hash ^= 1;
        assert_ne!(r.canonical(), base);
        let mut r = sample();
        r.final_clocks[2] += 1;
        assert_ne!(r.canonical(), base);
        let mut r = sample();
        r.cycles += 1;
        assert_ne!(r.canonical(), base);
        let mut r = sample();
        r.scheduler = "dc-batch".into();
        assert_ne!(r.canonical(), base);
    }
}
