//! Triage: join `detsan` dynamic reports against static lockset findings.
//!
//! The static analysis over-approximates (`may-race`); the
//! happens-before sanitizer ([`detlock_vm::sanitizer`]) gives a precise
//! per-site verdict. Every static `race` / `may-race` finding becomes one
//! of:
//!
//! * [`Verdict::Confirmed`] — a dynamic race touches the finding's site:
//!   the row carries that [`DynRace`] as its witness.
//! * [`Verdict::RefutedByHb`] — the site executed and a conflicting
//!   same-word access by another thread existed, but every such pair was
//!   happens-before ordered: on the swept inputs the lockset analysis was
//!   too coarse.
//! * [`Verdict::Unobserved`] — the swept workloads/seeds never exercised
//!   the site concurrently; the static finding stands as-is.
//!
//! The join key is the `(function, block, instruction)` coordinate both
//! layers already speak: static findings carry it in
//! [`Finding::func`]/[`Finding::block`]/[`Finding::inst`], and the
//! sanitizer runs over the *source* (uninstrumented) module so instruction
//! indices line up with the analysis exactly.

use crate::{Finding, Report, Severity};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::sanitizer::{DynRace, SanitizerReport};

/// The dynamic verdict on one static race finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A dynamic happens-before witness touches this site.
    Confirmed,
    /// The site was never exercised concurrently on the swept runs.
    Unobserved,
    /// Conflicts on the site's words existed but all were HB-ordered.
    RefutedByHb,
}

impl Verdict {
    /// Stable lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Confirmed => "confirmed",
            Verdict::Unobserved => "unobserved",
            Verdict::RefutedByHb => "refuted-by-HB",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One triaged static finding.
#[derive(Debug, Clone)]
pub struct TriagedFinding {
    /// Index of the finding in the static report it was triaged from.
    pub index: usize,
    /// The static rule (`race` or `may-race`).
    pub rule: &'static str,
    /// Function of the static finding.
    pub func: String,
    /// Block label of the static finding (as the static report prints it).
    pub block: Option<String>,
    /// Instruction index of the static finding.
    pub inst: Option<usize>,
    /// The dynamic verdict.
    pub verdict: Verdict,
    /// For confirmed findings: the happens-before witness.
    pub witness: Option<DynRace>,
}

impl std::fmt::Display for TriagedFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.func)?;
        if let Some(b) = &self.block {
            write!(f, "/{b}")?;
        }
        if let Some(i) = self.inst {
            write!(f, "#{i}")?;
        }
        write!(f, ": {}", self.verdict)?;
        if let Some(w) = &self.witness {
            write!(f, " ({w})")?;
        }
        Ok(())
    }
}

impl ToJson for TriagedFinding {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", Json::Int(self.index as i64)),
            ("rule", self.rule.to_json()),
            ("func", self.func.to_json()),
            ("block", self.block.to_json()),
            ("inst", self.inst.to_json()),
            ("verdict", self.verdict.label().to_json()),
            (
                "witness",
                match &self.witness {
                    Some(w) => Json::Str(w.to_string()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The triage of one workload's static report against one (possibly
/// seed-merged) sanitizer report.
#[derive(Debug, Clone, Default)]
pub struct TriageReport {
    /// One row per static `race` / `may-race` finding, in report order.
    pub rows: Vec<TriagedFinding>,
}

impl TriageReport {
    /// Rows with the given verdict.
    pub fn count(&self, v: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == v).count()
    }

    /// The first confirmed witness, if any — what `detlint --confirm`
    /// prints.
    pub fn witness(&self) -> Option<&DynRace> {
        self.rows.iter().find_map(|r| r.witness.as_ref())
    }

    /// Compact `confirmed/unobserved/refuted` summary for table columns.
    pub fn summary(&self) -> String {
        if self.rows.is_empty() {
            return "-".to_string();
        }
        format!(
            "{}c/{}u/{}r",
            self.count(Verdict::Confirmed),
            self.count(Verdict::Unobserved),
            self.count(Verdict::RefutedByHb)
        )
    }
}

impl std::fmt::Display for TriageReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for row in &self.rows {
            writeln!(f, "{row}")?;
        }
        Ok(())
    }
}

impl ToJson for TriageReport {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "confirmed",
                Json::Int(self.count(Verdict::Confirmed) as i64),
            ),
            (
                "unobserved",
                Json::Int(self.count(Verdict::Unobserved) as i64),
            ),
            (
                "refuted_by_hb",
                Json::Int(self.count(Verdict::RefutedByHb) as i64),
            ),
            (
                "rows",
                Json::Arr(self.rows.iter().map(|r| r.to_json()).collect()),
            ),
        ])
    }
}

/// Parse the block index out of a static finding's block label, which the
/// lockset analysis renders as `"{name} (bb{N})"`.
fn block_index(label: &str) -> Option<u32> {
    let open = label.rfind("(bb")?;
    let rest = &label[open + 3..];
    let close = rest.find(')')?;
    rest[..close].parse().ok()
}

/// Triage every static `race` / `may-race` finding in `report` against
/// `dynamic`. Findings without a full site coordinate (no block or no
/// instruction index) are classified `Unobserved` — the sanitizer cannot
/// address them.
pub fn triage(report: &Report, dynamic: &SanitizerReport) -> TriageReport {
    let mut rows = Vec::new();
    for (index, f) in report.findings.iter().enumerate() {
        if f.rule != "race" && f.rule != "may-race" {
            continue;
        }
        let site = f
            .block
            .as_deref()
            .and_then(block_index)
            .zip(f.inst)
            .map(|(b, i)| (b, i as u32));
        let (verdict, witness) = match site {
            None => (Verdict::Unobserved, None),
            Some((block, inst)) => {
                let races = dynamic.races_at(&f.func, block, inst);
                if let Some(r) = races.first() {
                    (Verdict::Confirmed, Some((*r).clone()))
                } else {
                    match dynamic.site(&f.func, block, inst) {
                        Some(stat) if stat.contended => (Verdict::RefutedByHb, None),
                        _ => (Verdict::Unobserved, None),
                    }
                }
            }
        };
        rows.push(TriagedFinding {
            index,
            rule: f.rule,
            func: f.func.clone(),
            block: f.block.clone(),
            inst: f.inst,
            verdict,
            witness,
        });
    }
    TriageReport { rows }
}

/// Convert a sanitizer report's own discoveries into static-report-shaped
/// findings, so dynamic-only problems (races the lockset analysis missed,
/// deadlock-prone lock cycles no static pass can see through indirect lock
/// choice) surface through the same reporting pipeline and exit codes.
///
/// Races aggregate per word (`detsan/race`, error); each lock-order cycle
/// becomes one `detsan/lock-cycle` warning — deadlock-*prone*, not a
/// determinism violation per se.
pub fn dynamic_findings(dynamic: &SanitizerReport) -> Report {
    let mut findings = Vec::new();
    let mut word: Option<usize> = None;
    let mut sites: Vec<String> = Vec::new();
    let mut pairs = 0usize;
    let flush = |word: &mut Option<usize>,
                 sites: &mut Vec<String>,
                 pairs: &mut usize,
                 findings: &mut Vec<Finding>| {
        if let Some(w) = word.take() {
            findings.push(Finding {
                severity: Severity::Error,
                rule: "detsan/race",
                func: sites.first().cloned().unwrap_or_default(),
                block: None,
                inst: None,
                message: format!(
                    "word {w}: {pairs} unordered conflicting access pair{} observed",
                    if *pairs == 1 { "" } else { "s" }
                ),
                related: std::mem::take(sites),
            });
            *pairs = 0;
        }
    };
    for r in &dynamic.races {
        if word != Some(r.word) {
            flush(&mut word, &mut sites, &mut pairs, &mut findings);
            word = Some(r.word);
        }
        pairs += 1;
        for acc in [&r.a, &r.b] {
            let line = format!("{acc}");
            if !sites.contains(&line) {
                sites.push(line);
            }
        }
    }
    flush(&mut word, &mut sites, &mut pairs, &mut findings);
    for c in &dynamic.lock_cycles {
        findings.push(Finding {
            severity: Severity::Warning,
            rule: "detsan/lock-cycle",
            func: c.edges.first().map(|e| e.func.clone()).unwrap_or_default(),
            block: None,
            inst: None,
            message: format!("deadlock-prone acquisition cycle: {c}"),
            related: c
                .edges
                .iter()
                .map(|e| {
                    format!(
                        "{}->{} at {}/bb{}#{}",
                        e.from, e.to, e.func, e.block, e.inst
                    )
                })
                .collect(),
        });
    }
    Report { findings }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_vm::sanitizer::Sanitizer;

    fn static_race(func: &str, block: &str, inst: usize) -> Report {
        Report {
            findings: vec![Finding {
                severity: Severity::Error,
                rule: "race",
                func: func.to_string(),
                block: Some(block.to_string()),
                inst: Some(inst),
                message: "data race".to_string(),
                related: vec![],
            }],
        }
    }

    #[test]
    fn block_label_parses() {
        assert_eq!(block_index("body (bb2)"), Some(2));
        assert_eq!(block_index("loop.head (bb10)"), Some(10));
        assert_eq!(block_index("no id here"), None);
    }

    #[test]
    fn unordered_conflict_confirms_the_static_finding() {
        let mut s = Sanitizer::new(2);
        s.access(0, 5, true, (0, 2, 3));
        s.access(1, 5, true, (0, 2, 3));
        let module = detlock_ir::Module::new();
        let dyn_report = s.finalize(&module);
        let t = triage(&static_race("@f0", "body (bb2)", 3), &dyn_report);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(t.rows[0].verdict, Verdict::Confirmed);
        assert!(t.witness().is_some());
    }

    #[test]
    fn ordered_conflict_refutes_and_silence_is_unobserved() {
        let mut s = Sanitizer::new(2);
        s.acquire(0, 9, (0, 0, 0));
        s.access(0, 5, true, (0, 2, 3));
        s.release(0, 9);
        s.acquire(1, 9, (0, 0, 0));
        s.access(1, 5, true, (0, 2, 3));
        s.release(1, 9);
        let module = detlock_ir::Module::new();
        let dyn_report = s.finalize(&module);
        let refuted = triage(&static_race("@f0", "body (bb2)", 3), &dyn_report);
        assert_eq!(refuted.rows[0].verdict, Verdict::RefutedByHb);
        let silent = triage(&static_race("@f0", "other (bb7)", 1), &dyn_report);
        assert_eq!(silent.rows[0].verdict, Verdict::Unobserved);
    }

    #[test]
    fn dynamic_findings_raise_errors_and_cycle_warnings() {
        let mut s = Sanitizer::new(2);
        s.access(0, 5, true, (0, 2, 3));
        s.access(1, 5, true, (0, 2, 4));
        s.acquire(0, 2, (0, 0, 0));
        s.acquire(0, 3, (0, 0, 1));
        s.release(0, 3);
        s.release(0, 2);
        s.acquire(1, 3, (0, 0, 2));
        s.acquire(1, 2, (0, 0, 3));
        s.release(1, 2);
        s.release(1, 3);
        let module = detlock_ir::Module::new();
        let r = dynamic_findings(&s.finalize(&module));
        assert_eq!(r.count(Severity::Error), 1, "one aggregated race word");
        assert_eq!(r.count(Severity::Warning), 1, "one lock cycle");
        assert!(!r.ok(false));
    }
}
