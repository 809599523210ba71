//! Static analysis front-end: lockset race detection plus clock-placement
//! translation validation over the shipped workloads, with optional
//! `detsan` dynamic triage.
//!
//! ```text
//! cargo run -p detlock-bench --release --bin detlint -- \
//!     [--threads N] [--scale F] [--only NAME] [--racy] [--confirm] \
//!     [--sanitize] [--sanitize-log FILE] [--deny-warnings] [--json] \
//!     [--out FILE]
//! ```
//!
//! Exit status is 1 when any error-severity finding exists, or any warning
//! under `--deny-warnings`. `--racy` adds the negative-control workloads
//! (the racy counter and the deadlock-cycle lock-order reversal — both
//! must FAIL). `--sanitize` additionally runs the happens-before sanitizer
//! over the seed sweep: every static `race`/`may-race` finding gets a
//! triage verdict (`confirmed` / `unobserved` / `refuted-by-HB`), dynamic
//! races and deadlock-prone lock cycles the static pass missed become
//! `detsan/*` findings, and `--sanitize-log FILE` writes the minimal
//! schedule log. `--confirm` attaches the sanitizer's happens-before
//! witness to each race-flagged workload (sweeping the sanitizer over that
//! workload itself when `--sanitize` was not given). `--out FILE` writes
//! the JSON report regardless of `--json`.

use detlock_analyze::triage::{dynamic_findings, triage, TriageReport};
use detlock_analyze::{Report, Severity};
use detlock_bench::{lint_workload, operand, sanitize_workload_sweep, CliOptions};
use detlock_passes::cost::CostModel;
use detlock_passes::plan::Placement;
use detlock_shim::json::{Json, ToJson};
use detlock_vm::sanitizer::{DynRace, SanitizerReport};
use detlock_workloads::{racy, Workload};

#[derive(Default)]
struct LintFlags {
    racy: bool,
    confirm: bool,
    sanitize: bool,
    sanitize_log: Option<String>,
    deny_warnings: bool,
}

fn main() {
    let mut flags = LintFlags::default();
    let opts = CliOptions::parse_with(|flag, args, i| {
        match flag {
            "--racy" => flags.racy = true,
            "--confirm" => flags.confirm = true,
            "--sanitize" => flags.sanitize = true,
            "--sanitize-log" => {
                flags.sanitize_log = Some(operand(args, i).to_string());
                flags.sanitize = true;
            }
            "--deny-warnings" => flags.deny_warnings = true,
            _ => return false,
        }
        true
    });
    let scale = opts.scale_or(0.05); // lint only needs the small dataset
    let threads = opts.threads_or(4);
    let cost = CostModel::default();

    let controls = ["racy-counter", "deadlock-cycle"];
    let mut workloads: Vec<Workload> = match &opts.only {
        Some(name) if controls.contains(&name.as_str()) => Vec::new(),
        Some(name) => vec![detlock_workloads::by_name(name, threads, scale)
            .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))],
        None => detlock_workloads::all_benchmarks(threads, scale),
    };
    if flags.racy || opts.only.as_deref() == Some("racy-counter") {
        workloads.push(racy::build(threads, &racy::RacyParams::scaled(scale)));
    }
    if flags.racy || opts.only.as_deref() == Some("deadlock-cycle") {
        workloads.push(racy::build_deadlock(threads));
    }

    let mut out_workloads: Vec<Json> = Vec::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut minimal_logs = String::new();

    for w in &workloads {
        let mut report = lint_workload(w, &cost, Placement::Start);

        // Dynamic pass: sweep the sanitizer, triage the static findings,
        // and fold sanitizer-only discoveries into the report so they
        // drive the exit status like any other finding.
        let sanitized: Option<(SanitizerReport, TriageReport)> = flags.sanitize.then(|| {
            let dyn_report = sanitize_workload_sweep(w, &cost, &opts.seeds);
            let tri = triage(&report, &dyn_report);
            (dyn_report, tri)
        });
        if let Some((dyn_report, _)) = &sanitized {
            report.extend(dynamic_findings(dyn_report));
            if flags.sanitize_log.is_some() {
                minimal_logs.push_str(&format!("# workload: {}\n", w.name));
                minimal_logs.push_str(&dyn_report.minimal_log());
            }
        }
        errors += report.count(Severity::Error);
        warnings += report.count(Severity::Warning);

        // Confirmation: the first static race finding the sanitizer saw
        // happen, with its happens-before witness.
        let witness: Option<DynRace> = if flags.confirm && report.count(Severity::Error) > 0 {
            match &sanitized {
                Some((_, tri)) => tri.witness().cloned(),
                None => triage(&report, &sanitize_workload_sweep(w, &cost, &opts.seeds))
                    .witness()
                    .cloned(),
            }
        } else {
            None
        };

        if !opts.json {
            print_text(
                w,
                &report,
                flags.deny_warnings,
                witness.as_ref(),
                sanitized.as_ref(),
            );
        }
        let mut fields = vec![
            ("name", w.name.to_json()),
            ("report", report.to_json()),
            ("witness", witness.map(|x| x.to_string()).to_json()),
        ];
        if let Some((dyn_report, tri)) = &sanitized {
            fields.push(("sanitize", dyn_report.to_json()));
            fields.push(("triage", tri.to_json()));
        }
        out_workloads.push(Json::obj(fields));
    }

    if let Some(path) = &flags.sanitize_log {
        std::fs::write(path, &minimal_logs).expect("write --sanitize-log file");
    }

    let json = Json::obj([
        ("threads", threads.to_json()),
        ("scale", scale.to_json()),
        ("deny_warnings", flags.deny_warnings.to_json()),
        ("sanitize", flags.sanitize.to_json()),
        ("errors", errors.to_json()),
        ("warnings", warnings.to_json()),
        ("workloads", Json::Arr(out_workloads)),
    ]);
    opts.emit_json(&json);

    if errors > 0 || (flags.deny_warnings && warnings > 0) {
        eprintln!("\ndetlint: {errors} error(s), {warnings} warning(s)");
        std::process::exit(1);
    }
}

fn print_text(
    w: &Workload,
    report: &Report,
    deny_warnings: bool,
    witness: Option<&DynRace>,
    sanitized: Option<&(SanitizerReport, TriageReport)>,
) {
    let verdict = if report.ok(deny_warnings) {
        "clean"
    } else {
        "FAIL"
    };
    println!(
        "{:<14} {:>5}  ({} errors, {} warnings, {} infos)",
        w.name,
        verdict,
        report.count(Severity::Error),
        report.count(Severity::Warning),
        report.count(Severity::Info),
    );
    for f in &report.findings {
        println!("  {f}");
    }
    if let Some((dyn_report, tri)) = sanitized {
        println!(
            "  detsan: {} dynamic race(s), {} lock cycle(s); triage {}",
            dyn_report.races.len(),
            dyn_report.lock_cycles.len(),
            tri.summary(),
        );
        for row in &tri.rows {
            println!("    {row}");
        }
    }
    if let Some(x) = witness {
        println!("  confirmed by the VM: {x}");
    }
}
