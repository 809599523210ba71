//! Run-to-run determinism probe: every Table I workload, instrumented with
//! all optimizations, executed in deterministic mode across several jitter
//! seeds — the lock-acquisition-order fingerprints must agree. The same
//! workloads in baseline mode must (almost always) disagree, demonstrating
//! that the determinism is DetLock's doing and not an accident of the
//! workload.
//!
//! The `detsan triage` column runs the happens-before sanitizer over the
//! source module (seed `--seed`) and reports `clean` when it sees no
//! dynamic races or lock cycles, else a `confirmed/unobserved/refuted`
//! triage of the static findings (see `detlock-analyze`'s `triage`).
//!
//! A final probe checks the checkpoint/scheduler safety contract: a
//! snapshot taken under one arbitration policy must *refuse* to resume
//! under another with the typed `SchedulerMismatch` error. A broken
//! refusal exits 3 (distinct from exit 1, a determinism violation).
//!
//! ```text
//! cargo run -p detlock-bench --release --bin detcheck [--scale F]
//! ```

use detlock_analyze::triage::triage;
use detlock_analyze::Severity;
use detlock_bench::{lint_workload, machine_config, sanitize_workload, thread_specs, CliOptions};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig};
use detlock_passes::plan::Placement;
use detlock_vm::determinism::check_determinism;
use detlock_vm::machine::{CkptControl, ExecMode, Machine, ResumeError};
use detlock_vm::Sched;

/// The scheduler/checkpoint safety probe: snapshots are scheduler-keyed,
/// so resuming a Kendo checkpoint under `dc-batch` must fail with the
/// typed mismatch — never silently run under the wrong policy. Returns
/// `false` (exit 3 at the call site) when the refusal contract is broken.
fn scheduler_restore_refusal_holds(opts: &CliOptions, cost: &CostModel) -> bool {
    let Some(w) = detlock_workloads::by_name("ocean", opts.threads, 0.02) else {
        return false;
    };
    let mut cfg = machine_config(&w, ExecMode::Det, opts.seed);
    cfg.scheduler = Sched::Kendo;
    let mut taken = None;
    let outcome = Machine::new(&w.module, cost, &thread_specs(&w), cfg.clone())
        .run_with_checkpoints(256, &mut |ck| {
            taken = Some(ck.clone());
            CkptControl::Abort
        });
    let Some(ckpt) = taken else {
        eprintln!("detcheck: scheduler probe took no checkpoint ({outcome:?})");
        return false;
    };
    let mut other = cfg.clone();
    other.scheduler = Sched::DcBatch;
    match Machine::resume(&w.module, cost, other, &ckpt) {
        Err(ResumeError::SchedulerMismatch { .. }) => {
            Machine::resume(&w.module, cost, cfg, &ckpt).is_ok()
        }
        Err(e) => {
            eprintln!("detcheck: expected SchedulerMismatch, got {e}");
            false
        }
        Ok(_) => {
            eprintln!("detcheck: checkpoint resumed under the wrong scheduler");
            false
        }
    }
}

fn main() {
    let opts = CliOptions::parse();
    let scale = opts.scale_or(0.15); // determinism probing doesn't need long runs
    let cost = CostModel::default();
    let seeds = opts.seeds.clone();
    let mut failures = 0;

    println!(
        "{:<12}{:>12}{:>24}{:>28}{:>16}",
        "benchmark",
        "static lint",
        "det mode seed-invariant",
        "baseline varies with seed",
        "detsan triage"
    );
    for w in opts.workloads_at(scale) {
        // Static pre-pass: the empirical determinism probe below only means
        // anything if the workload is race-free and the instrumentation is
        // faithful to its certificate — check both before spending cycles.
        // Deny-level = warning or error, the same bar `detlint
        // --deny-warnings` holds the workloads to in CI: a pre-pass that
        // gates on less than the lint does would let a finding the lint
        // rejects slip past the determinism probe.
        let lint = lint_workload(&w, &cost, Placement::Start);
        let lint_ok = lint.ok(true);
        if !lint_ok {
            failures += 1;
            for f in lint
                .findings
                .iter()
                .filter(|f| matches!(f.severity, Severity::Error | Severity::Warning))
            {
                eprintln!("  {f}");
            }
        }
        let inst = instrument(
            &w.module,
            &cost,
            &OptConfig::all(),
            Placement::Start,
            &w.entries,
        );
        let specs = thread_specs(&w);
        let det = check_determinism(
            &inst.module,
            &cost,
            &specs,
            &machine_config(&w, ExecMode::Det, 0),
            &seeds,
        );
        let base = check_determinism(
            &w.module,
            &cost,
            &specs,
            &machine_config(&w, ExecMode::Baseline, 0),
            &seeds,
        );
        let det_ok = det.deterministic && !det.any_hit_limit;
        // Dynamic sanity: the sanitizer must stay silent on the serving
        // workloads; its triage of the static findings fills the column.
        let dyn_report = sanitize_workload(&w, &cost, opts.seed);
        let dyn_clean = dyn_report.races.is_empty() && dyn_report.lock_cycles.is_empty();
        let tri = triage(&lint, &dyn_report);
        let triage_cell = if dyn_clean && tri.rows.is_empty() {
            "clean".to_string()
        } else {
            format!(
                "{} race(s), {} cycle(s), {}",
                dyn_report.races.len(),
                dyn_report.lock_cycles.len(),
                tri.summary()
            )
        };
        println!(
            "{:<12}{:>12}{:>24}{:>28}{:>16}",
            w.name,
            if lint_ok { "PASS" } else { "FAIL" },
            if det_ok { "PASS" } else { "FAIL" },
            if base.deterministic {
                "no (coincidence or too few locks)"
            } else {
                "yes"
            },
            triage_cell
        );
        if !dyn_clean {
            failures += 1;
            for r in &dyn_report.races {
                eprintln!("  detsan race: {r}");
            }
            for c in &dyn_report.lock_cycles {
                eprintln!("  detsan cycle: {c}");
            }
        }
        if !det_ok {
            failures += 1;
            eprintln!("  det hashes: {:x?}", det.hashes);
            if let Some(d) = &det.divergence {
                let show = |e: Option<(i64, u32, u64)>| match e {
                    Some((lock, tid, clock)) => {
                        format!("lock {lock} acquired by tid {tid} at clock {clock}")
                    }
                    None => "beyond the recorded window".to_string(),
                };
                eprintln!(
                    "  first diverging acquisition: event #{}: seed {} saw {}, seed {} saw {}",
                    d.index,
                    d.seed_a,
                    show(d.a),
                    d.seed_b,
                    show(d.b)
                );
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} workload(s) violated weak determinism");
        std::process::exit(1);
    }
    if !scheduler_restore_refusal_holds(&opts, &cost) {
        eprintln!("\nscheduler/checkpoint refusal contract violated");
        std::process::exit(3);
    }
    println!("scheduler restore-mismatch refusal: PASS");
}
