//! `perfgate` — the CI determinism gate.
//!
//! Every number `ablation --json` reports is a *simulated* count — ticks,
//! clock mass, cycles, overhead percentages derived from cycles — and so a
//! pure function of the source tree and the `{threads, scale, seed}`
//! header. The gate therefore holds the whole report to the committed
//! baseline by **equality** and prints the JSON path of every value that
//! differs. A serve report (`detload --out`) is held to the identity facts
//! that need no baseline: receipts byte-identical across sweeps, no failed
//! job, and evidence the warm path ran (plan-cache hits, or receipt-ledger
//! dedup hits behind a group router).
//!
//! ```text
//! perfgate [--baseline-passes FILE --current-passes FILE]
//!          [--current-serve FILE]
//!          [--out diff.json]            # machine-readable artifact
//! ```
//!
//! No check here reads a clock or a wall time: what a change costs in time
//! is the repo benchmark's verdict (`benchmark/`, host-speed-normalised),
//! and DESIGN.md §12 maps each former wall gate to the metric that
//! replaced it. A legitimate change to a simulated number is committed by
//! regenerating the baseline: `ablation --json --out
//! ci/baselines/BENCH_passes.json`.
//!
//! Exit status: 0 = gate passed, 1 = a value differs or an identity fact
//! fails, 2 = usage / unreadable input.

use detlock_shim::json::{Json, ToJson};

struct Check {
    name: String,
    ok: bool,
    detail: String,
}

impl Check {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("ok", self.ok.to_json()),
            ("detail", self.detail.to_json()),
        ])
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfgate [--baseline-passes FILE --current-passes FILE] \
         [--current-serve FILE] [--out FILE]"
    );
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("perfgate: cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("perfgate: {path}: bad json: {e}");
        std::process::exit(2);
    })
}

/// Every place `baseline` and `current` differ, as `(JSON pointer, what)`:
/// a changed leaf, or a key / array element present on one side only.
fn diff(path: &str, baseline: &Json, current: &Json, out: &mut Vec<(String, String)>) {
    let mut side = |at: String, b: Option<&Json>, c: Option<&Json>| match (b, c) {
        (Some(b), Some(c)) => diff(&at, b, c, out),
        (Some(_), None) => out.push((at, "only in the baseline".to_string())),
        (None, Some(_)) => out.push((at, "only in the current report".to_string())),
        (None, None) => {}
    };
    match (baseline, current) {
        (Json::Obj(b), Json::Obj(c)) => {
            for (k, bv) in b {
                side(format!("{path}/{k}"), Some(bv), current.get(k));
            }
            for (k, cv) in c.iter().filter(|(k, _)| baseline.get(k).is_none()) {
                side(format!("{path}/{k}"), None, Some(cv));
            }
        }
        (Json::Arr(b), Json::Arr(c)) => {
            for i in 0..b.len().max(c.len()) {
                side(format!("{path}/{i}"), b.get(i), c.get(i));
            }
        }
        (b, c) if b == c => {}
        (b, c) => out.push((
            path.to_string(),
            format!(
                "baseline {} != current {}",
                b.to_string_compact(),
                c.to_string_compact()
            ),
        )),
    }
}

/// Whole-document equality of two `ablation --json` reports. The header
/// goes first: reports produced at different `{threads, scale, seed}`
/// differ everywhere, and listing those paths would bury the reason.
fn check_passes(baseline: &Json, current: &Json, checks: &mut Vec<Check>) {
    let (bh, ch) = (baseline.get("header"), current.get("header"));
    if bh != ch {
        let show = |h: Option<&Json>| h.map_or("none".to_string(), Json::to_string_compact);
        checks.push(Check {
            name: "passes/header".to_string(),
            ok: false,
            detail: format!(
                "baseline header {} != current {}: the reports are not comparable \
                 (run `ablation --json` with the baseline's threads, scale and seed)",
                show(bh),
                show(ch)
            ),
        });
        return;
    }
    let mut diffs = Vec::new();
    diff("", baseline, current, &mut diffs);
    checks.push(Check {
        name: "passes/identical".to_string(),
        ok: diffs.is_empty(),
        detail: format!(
            "{} simulated value(s) differ from the baseline",
            diffs.len()
        ),
    });
    checks.extend(diffs.into_iter().map(|(path, what)| Check {
        name: format!("passes{path}"),
        ok: false,
        detail: what,
    }));
}

/// The identity facts of one `detload --out` report.
fn check_serve(current: &Json, checks: &mut Vec<Check>) {
    let identical = current
        .get("receipts_identical")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let compared = current
        .get("receipts_compared")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    checks.push(Check {
        name: "serve/receipts-identical".to_string(),
        ok: identical && compared > 0,
        detail: format!("{compared} receipts compared across sweeps, identical = {identical}"),
    });
    let failed: u64 = ["sweep1", "sweep2"]
        .iter()
        .filter_map(|s| current.get(s)?.get("failed")?.as_u64())
        .sum();
    checks.push(Check {
        name: "serve/no-failed-jobs".to_string(),
        ok: failed == 0,
        detail: format!("{failed} failed job(s) across both sweeps"),
    });
    // Behind a group router the stats snapshot is the router's, which has
    // no instrumentation section; the equivalent warm-path evidence there
    // is the cross-process dedup ledger getting hits.
    let stats = current.get("server_stats");
    let counter = |section: &str, key: &str| -> u64 {
        stats
            .and_then(|s| s.get(section)?.get(key)?.as_u64())
            .unwrap_or(0)
    };
    let is_router = stats
        .and_then(|s| s.get("router")?.as_bool())
        .unwrap_or(false);
    checks.push(if is_router {
        let dedup = counter("counters", "dedup_hits");
        Check {
            name: "serve/router-dedup-hits".to_string(),
            ok: dedup > 0,
            detail: format!(
                "group router reported {dedup} receipt-ledger dedup hits after the \
                 two-sweep drive (sweep 2 must re-sight sweep 1's keys)"
            ),
        }
    } else {
        let plan_hits = counter("instrumentation", "plan_cache_hits");
        Check {
            name: "serve/plan-cache-hits".to_string(),
            ok: plan_hits > 0,
            detail: format!(
                "server reported {plan_hits} plan-cache hits after the two-sweep drive \
                 (sibling shards must reuse compiled artifacts)"
            ),
        }
    });
}

fn main() {
    let mut baseline_passes: Option<String> = None;
    let mut current_passes: Option<String> = None;
    let mut current_serve: Option<String> = None;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let slot = match flag.as_str() {
            "--baseline-passes" => &mut baseline_passes,
            "--current-passes" => &mut current_passes,
            "--current-serve" => &mut current_serve,
            "--out" => &mut out,
            _ => usage(),
        };
        *slot = Some(args.next().unwrap_or_else(|| usage()));
    }

    let mut checks: Vec<Check> = Vec::new();
    match (&baseline_passes, &current_passes) {
        (Some(b), Some(c)) => check_passes(&load(b), &load(c), &mut checks),
        (None, None) if current_serve.is_some() => {}
        _ => usage(),
    }
    if let Some(c) = &current_serve {
        check_serve(&load(c), &mut checks);
    }

    for c in &checks {
        println!(
            "{} {:<36} {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let failed = checks.iter().filter(|c| !c.ok).count();

    if let Some(path) = &out {
        let artifact = Json::obj([
            ("ok", (failed == 0).to_json()),
            (
                "checks",
                Json::Arr(checks.iter().map(Check::to_json).collect()),
            ),
        ]);
        std::fs::write(path, artifact.to_string_pretty() + "\n").unwrap_or_else(|e| {
            eprintln!("perfgate: cannot write {path}: {e}");
            std::process::exit(2);
        });
    }

    if failed > 0 {
        eprintln!("\nperfgate: {failed} check(s) failed");
        std::process::exit(1);
    }
    println!("\nperfgate: all {} checks passed", checks.len());
}
