//! Determinism receipts.
//!
//! Every job response carries a receipt: the episode's acquisition-order
//! hash plus the final logical clocks of every thread. Both are O(1) in
//! episode length (the hash is folded incrementally by the VM; the clocks
//! are one word per thread, where a replay log grows with every
//! acquisition). Two runs of the same job are weakly deterministic **iff**
//! their receipts are byte-for-byte identical in [`Receipt::canonical`]
//! form — which is what `detload` and the `serve-smoke` CI job assert.

use crate::protocol::JobSpec;
use detlock_shim::hash::Fnv64;
use detlock_shim::json::{Json, ToJson};
use detlock_vm::metrics::RunMetrics;
use std::collections::hash_map::Entry as MapEntry;
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
    /// FNV-1a hash over the global `(lock, tid, clock)` acquisition sequence.
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
            opt: spec.opt.name().to_string(),
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

/// What a [`ReceiptLedger`] tells admission to do with one request.
#[derive(Debug)]
pub enum Admission<'a, W> {
    /// Run the job. `audit` says a receipt is already on record, so this
    /// execution is the scheduled re-check of it.
    Execute {
        /// Whether this execution re-checks a receipt on record.
        audit: bool,
    },
    /// The identity's first execution is in flight: park the request on
    /// this list, and [`ReceiptLedger::finish`] or
    /// [`ReceiptLedger::abandon`] hands it back when that execution ends.
    Attach(&'a mut Vec<W>),
    /// The identity has finished before: answer with the canonical
    /// receipt on record, executing nothing.
    Answer(&'a str),
}

/// Of the requests for an identity on record, one in this many executes
/// instead of being answered from the record.
pub const AUDIT_PERIOD: u64 = 6;

/// Whether the `k`-th request (1-based) for `key` is one the audit schedule
/// executes: the miss, the first repeat, and from then on one request in
/// [`AUDIT_PERIOD`], on a phase the key picks — identities submitted in
/// lockstep (a sweep over a job list) are not all re-executed by the same
/// sweep. A function of the key and the count alone: what a server
/// executes for a request stream depends neither on when the requests
/// arrive nor on how long the server has been up.
pub fn audit_scheduled(key: &str, k: u64) -> bool {
    scheduled(phase_of(key), k)
}

fn phase_of(key: &str) -> u64 {
    Fnv64::of(key.as_bytes()) % AUDIT_PERIOD
}

fn scheduled(phase: u64, k: u64) -> bool {
    k <= 2 || (k + phase).is_multiple_of(AUDIT_PERIOD)
}

/// One identity's row.
struct Entry<W> {
    /// The receipt on record (`None`: the first execution has not ended).
    canonical: Option<String>,
    /// Requests [`ReceiptLedger::admit`] has seen for the identity.
    requests: u64,
    /// Scheduled audits not started yet: an audit that falls due while an
    /// execution is in flight is owed, not skipped.
    due: u64,
    /// `Some` while an admitted execution is in flight: the requests
    /// parked on it.
    waiters: Option<Vec<W>>,
}

impl<W> Entry<W> {
    /// A row nothing has been asked of yet and nothing is running on.
    fn new(canonical: Option<String>) -> Self {
        Entry {
            canonical,
            requests: 0,
            due: 0,
            waiters: None,
        }
    }
}

/// Bounded identity key → canonical receipt table. Receipts are a
/// function of the job, so every re-sighting of a key — another tenant,
/// shard, sweep or process — must repeat the first one byte for byte.
///
/// A group router [`record`](ReceiptLedger::record)s receipts and counts
/// requests, to send the ones the audit schedule picks to a second
/// process. A server also consults the table at admission, where the same
/// premise makes it a memo: a request for an identity whose first
/// execution is in flight parks on it as a `W`, and one for a finished
/// identity is answered from the record. The memo audits itself on a
/// schedule nobody sets ([`audit_scheduled`]): the miss and the first
/// repeat execute, then one request in [`AUDIT_PERIOD`]; an audit's
/// receipt goes through the same comparison, and a mismatch drops the
/// row, so a disputed receipt is never served again.
pub struct ReceiptLedger<W = ()> {
    seen: HashMap<String, Entry<W>>,
}

impl<W> Default for ReceiptLedger<W> {
    fn default() -> Self {
        ReceiptLedger {
            seen: HashMap::new(),
        }
    }
}

impl<W> ReceiptLedger<W> {
    /// Decide one request for `key`. Past [`RECEIPT_MEMORY`] keys a new
    /// identity is not tracked: it always executes and nothing parks on it.
    pub fn admit(&mut self, key: String) -> Admission<'_, W> {
        let phase = phase_of(&key);
        let Some(e) = self.row(key) else {
            return Admission::Execute { audit: false };
        };
        e.requests += 1;
        let Some(canonical) = &e.canonical else {
            return match &mut e.waiters {
                Some(parked) => Admission::Attach(parked),
                waiters => {
                    *waiters = Some(Vec::new());
                    Admission::Execute { audit: false }
                }
            };
        };
        if scheduled(phase, e.requests) {
            e.due += 1;
        }
        // An audit in flight keeps nobody waiting: the record answers.
        if e.due == 0 || e.waiters.is_some() {
            return Admission::Answer(canonical);
        }
        e.due -= 1;
        e.waiters = Some(Vec::new());
        Admission::Execute { audit: true }
    }

    /// Record a finished receipt against its job identity. Past
    /// [`RECEIPT_MEMORY`] keys new identities are no longer remembered
    /// (they keep reporting [`Sighting::First`]).
    pub fn record(&mut self, key: String, canonical: &str) -> Sighting {
        let Some(e) = self.row(key) else {
            return Sighting::First;
        };
        match &e.canonical {
            Some(prev) if prev == canonical => Sighting::Same,
            Some(_) => Sighting::Mismatch,
            None => {
                e.canonical = Some(canonical.to_string());
                Sighting::First
            }
        }
    }

    /// Count one request for `key` and return its 1-based number: the `k`
    /// of [`audit_scheduled`] for a caller that routes rather than admits
    /// (a group router). Past [`RECEIPT_MEMORY`] keys a new identity is
    /// not tracked and has no number.
    pub(crate) fn count(&mut self, key: String) -> Option<u64> {
        let e = self.row(key)?;
        e.requests += 1;
        Some(e.requests)
    }

    /// `key`'s row, made empty if it has none and the table is not full.
    fn row(&mut self, key: String) -> Option<&mut Entry<W>> {
        let full = self.seen.len() >= RECEIPT_MEMORY;
        match self.seen.entry(key) {
            MapEntry::Occupied(o) => Some(o.into_mut()),
            MapEntry::Vacant(_) if full => None,
            MapEntry::Vacant(v) => Some(v.insert(Entry::new(None))),
        }
    }

    /// An execution of `key` ended with a receipt: [`record`] it, hand
    /// back everyone parked on the identity, and on
    /// [`Sighting::Mismatch`] drop the row — which of the two receipts
    /// is wrong is unknown, so neither is served.
    ///
    /// [`record`]: ReceiptLedger::record
    pub fn finish(&mut self, key: &str, canonical: &str) -> (Sighting, Vec<W>) {
        let waiters = self.release(key);
        let sighting = self.record(key.to_string(), canonical);
        if sighting == Sighting::Mismatch {
            self.seen.remove(key);
        }
        (sighting, waiters)
    }

    /// The execution [`admit`](ReceiptLedger::admit) asked for ended
    /// without a receipt (it failed, or was refused at the door): hand
    /// back everyone parked on it and memoise nothing — an identity with
    /// no receipt on record is forgotten, so its next request executes.
    pub fn abandon(&mut self, key: &str) -> Vec<W> {
        let waiters = self.release(key);
        if self.seen.get(key).is_some_and(|e| e.canonical.is_none()) {
            self.seen.remove(key);
        }
        waiters
    }

    /// Mark `key` no longer in flight and take what was parked on it.
    fn release(&mut self, key: &str) -> Vec<W> {
        self.seen
            .get_mut(key)
            .and_then(|e| e.waiters.take())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_first_same_mismatch_and_stays_bounded() {
        let mut l = ReceiptLedger::<()>::default();
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

    #[test]
    fn count_numbers_the_requests_of_the_row_record_fills() {
        let mut l = ReceiptLedger::<()>::default();
        let receipt = |l: &ReceiptLedger<()>| l.seen["k"].canonical.clone();
        assert_eq!(l.count("k".into()), Some(1));
        assert_eq!(receipt(&l), None);
        assert_eq!(l.record("k".into(), "r"), Sighting::First);
        assert_eq!(l.count("k".into()), Some(2));
        assert_eq!(receipt(&l).as_deref(), Some("r"));
        for i in 0..RECEIPT_MEMORY {
            l.count(format!("fill{i}"));
        }
        assert_eq!(l.count("late".into()), None, "past the bound");
        assert_eq!(l.count("k".into()), Some(3));
    }

    /// What `admit` decided, with the parked list and the borrowed receipt
    /// flattened so decisions compare with `==`.
    #[derive(Debug, PartialEq)]
    enum Did {
        Execute { audit: bool },
        Attached,
        Answered(String),
    }

    fn admit(l: &mut ReceiptLedger<u32>, key: &str, waiter: u32) -> Did {
        match l.admit(key.to_string()) {
            Admission::Execute { audit } => Did::Execute { audit },
            Admission::Attach(parked) => {
                parked.push(waiter);
                Did::Attached
            }
            Admission::Answer(canonical) => Did::Answered(canonical.to_string()),
        }
    }

    /// Requests `from..=to` of `key`, one after the other, every execution
    /// finishing with receipt `r` before the next request: which executed.
    fn executed(l: &mut ReceiptLedger<u32>, key: &str, from: u64, to: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for k in from..=to {
            match admit(l, key, k as u32) {
                Did::Execute { .. } => {
                    out.push(k);
                    assert_eq!(l.finish(key, "r").1, vec![]);
                }
                Did::Answered(canonical) => assert_eq!(canonical, "r"),
                Did::Attached => panic!("request {k} parked on a settled identity"),
            }
        }
        out
    }

    #[test]
    fn requests_for_a_running_identity_park_and_come_back_exactly_once() {
        let mut l = ReceiptLedger::default();
        assert_eq!(admit(&mut l, "k", 0), Did::Execute { audit: false });
        for w in 1..=5 {
            assert_eq!(admit(&mut l, "k", w), Did::Attached);
        }
        // Another identity is its own owner.
        assert_eq!(admit(&mut l, "other", 9), Did::Execute { audit: false });
        assert_eq!(l.finish("k", "r"), (Sighting::First, vec![1, 2, 3, 4, 5]));
        assert_eq!(l.finish("k", "r"), (Sighting::Same, vec![]));
        assert_eq!(l.abandon("k"), vec![]);
        // Parked requests were requests: the schedule goes on from the 7th.
        let period = 7..6 + AUDIT_PERIOD;
        let due: Vec<u64> = period.filter(|&k| audit_scheduled("k", k)).collect();
        assert_eq!(executed(&mut l, "k", 7, 5 + AUDIT_PERIOD), due);
    }

    #[test]
    fn the_first_two_requests_execute_and_then_one_in_every_period() {
        let mut l = ReceiptLedger::default();
        assert_eq!(admit(&mut l, "k", 1), Did::Execute { audit: false });
        assert_eq!(l.finish("k", "r"), (Sighting::First, vec![]));
        assert_eq!(admit(&mut l, "k", 2), Did::Execute { audit: true });
        assert_eq!(l.finish("k", "r"), (Sighting::Same, vec![]));
        let last = 2 + 5 * AUDIT_PERIOD;
        let ran = executed(&mut l, "k", 3, last);
        assert_eq!(ran.len(), 5, "{ran:?}");
        assert!(
            ran.windows(2).all(|w| w[1] - w[0] == AUDIT_PERIOD),
            "{ran:?}"
        );
        let scheduled: Vec<u64> = (3..=last).filter(|&k| audit_scheduled("k", k)).collect();
        assert_eq!(ran, scheduled);
    }

    /// Identities that differ in one digit and are asked for in lockstep —
    /// a sweep over a job list — are not all audited by the same sweep.
    #[test]
    fn identities_swept_in_lockstep_are_audited_on_different_sweeps() {
        let keys: Vec<String> = (1..=8).map(|seed| format!("ocean/seed{seed}")).collect();
        let mut audits = 0;
        for sweep in 3..3 + AUDIT_PERIOD {
            let audited = keys.iter().filter(|k| audit_scheduled(k, sweep)).count();
            assert!(audited <= keys.len() / 2, "sweep {sweep}: {audited}");
            audits += audited;
        }
        assert_eq!(audits, keys.len(), "each identity once a period");
    }

    /// What a request stream makes the server execute does not depend on
    /// when its requests arrive: an audit that falls due while another
    /// execution of the identity is in flight is owed, not skipped.
    #[test]
    fn an_audit_due_while_one_is_in_flight_runs_afterwards() {
        let first = (3..).find(|&k| audit_scheduled("k", k)).unwrap();
        let last = first + 3 * AUDIT_PERIOD;
        let mut unhurried = ReceiptLedger::default();
        let audits = executed(&mut unhurried, "k", 1, last).len();
        assert_eq!(audits, 2 + 4);

        let mut l = ReceiptLedger::default();
        assert_eq!(executed(&mut l, "k", 1, first - 1), [1, 2]);
        assert_eq!(admit(&mut l, "k", 0), Did::Execute { audit: true });
        // Two whole periods go by before it finishes: the record answers.
        for _ in 0..2 * AUDIT_PERIOD {
            assert_eq!(admit(&mut l, "k", 0), Did::Answered("r".into()));
        }
        assert_eq!(l.finish("k", "r").0, Sighting::Same);
        let next = first + 2 * AUDIT_PERIOD + 1;
        let late = executed(&mut l, "k", next, last);
        assert_eq!(late, [next, next + 1, last]);
        assert_eq!(2 + 1 + late.len(), audits);
    }

    /// The negative control: the memo is built out of the mismatch
    /// detector and must not retire it.
    #[test]
    fn an_audit_that_disagrees_is_a_mismatch_and_the_receipt_is_never_served_again() {
        let mut l = ReceiptLedger::default();
        assert_eq!(admit(&mut l, "k", 1), Did::Execute { audit: false });
        assert_eq!(l.finish("k", "r1").0, Sighting::First);
        assert_eq!(admit(&mut l, "k", 2), Did::Execute { audit: true });
        assert_eq!(l.finish("k", "r1").0, Sighting::Same);
        let audit = (3..).find(|&k| audit_scheduled("k", k)).unwrap();
        for k in 3..audit {
            assert_eq!(admit(&mut l, "k", k as u32), Did::Answered("r1".into()));
        }
        assert_eq!(admit(&mut l, "k", 0), Did::Execute { audit: true });
        assert_eq!(l.finish("k", "r2").0, Sighting::Mismatch);
        // Neither receipt is trusted: the identity starts over.
        assert_eq!(admit(&mut l, "k", 0), Did::Execute { audit: false });
        assert_eq!(l.finish("k", "r2").0, Sighting::First);
    }

    #[test]
    fn a_failed_execution_memoises_nothing_and_frees_its_row() {
        let mut l = ReceiptLedger::default();
        assert_eq!(admit(&mut l, "k", 1), Did::Execute { audit: false });
        assert_eq!(admit(&mut l, "k", 2), Did::Attached);
        assert_eq!(l.abandon("k"), vec![2]);
        assert!(l.seen.is_empty());
        assert_eq!(admit(&mut l, "k", 3), Did::Execute { audit: false });
        assert_eq!(l.finish("k", "r"), (Sighting::First, vec![]));
        // A failed audit leaves the receipt on record where it was.
        assert_eq!(admit(&mut l, "k", 4), Did::Execute { audit: true });
        assert_eq!(l.abandon("k"), vec![]);
        let audit = (3..).find(|&k| audit_scheduled("k", k)).unwrap();
        assert_eq!(executed(&mut l, "k", 3, audit), [audit]);
    }

    #[test]
    fn past_the_bound_a_new_identity_always_executes() {
        let mut l = ReceiptLedger::default();
        for i in 0..RECEIPT_MEMORY {
            l.record(format!("fill{i}"), "r");
        }
        for w in 0..4 {
            assert_eq!(admit(&mut l, "late", w), Did::Execute { audit: false });
        }
        assert_eq!(l.finish("late", "r"), (Sighting::First, vec![]));
        assert_eq!(admit(&mut l, "late", 4), Did::Execute { audit: false });
        assert_eq!(l.seen.len(), RECEIPT_MEMORY);
        // Identities inside the bound are still served, on the schedule.
        let scheduled: Vec<u64> = (1..=8).filter(|&k| audit_scheduled("fill0", k)).collect();
        assert_eq!(scheduled.len(), 3);
        assert_eq!(executed(&mut l, "fill0", 1, 8), scheduled);
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
