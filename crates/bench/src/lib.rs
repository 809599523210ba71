//! # detlock-bench
//!
//! The experiment harness: the helpers that run the workload generators
//! through the instrumentation pipeline and the cycle-level simulator, and
//! the binaries built on them (run with `--release`):
//!
//! * `paper` — regenerates EXPERIMENTS.md's paper tables (Table I,
//!   Table II, Figures 14 and 15, core-count scaling): a stdin → stdout
//!   filter over the document's generated blocks;
//! * `ablation` — sweeps of the design constants the paper fixes, plus
//!   per-pass telemetry and per-scheduler cycles, all simulated counts
//!   (CI diffs its `--json` report against the committed baseline);
//! * `detlint` — the static race analysis and translation validator over
//!   the workloads, with optional sanitizer triage;
//! * `detserved` / `detload` — the deterministic-execution daemon and its
//!   load generator ([`loadgen`]).

#![warn(missing_docs)]

pub mod loadgen;

use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use detlock_shim::json::Json;
use detlock_vm::machine::{run, ExecMode, Jitter, Machine, MachineConfig, ThreadSpec};
use detlock_vm::metrics::RunMetrics;
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::{Backend, ChunkParams, Sched};
use detlock_workloads::Workload;

/// Convert workload thread plans into VM thread specs.
pub fn thread_specs(w: &Workload) -> Vec<ThreadSpec> {
    w.threads
        .iter()
        .map(|t| ThreadSpec {
            func: t.func,
            args: t.args.clone(),
        })
        .collect()
}

/// Simulator configuration for experiment runs: the threaded engine
/// (results are the interpreter's, bit for bit, in less wall time) and
/// Kendo arbitration.
pub fn machine_config(w: &Workload, mode: ExecMode, seed: u64) -> MachineConfig {
    MachineConfig {
        mode,
        mem_words: w.mem_words,
        jitter: Jitter::default().with_seed(seed),
        max_cycles: 60_000_000_000,
        lock_order_limit: 4096,
        backend: Backend::Threaded,
        ..MachineConfig::default()
    }
}

/// Run a workload's original (uninstrumented-equivalent) binary.
pub fn run_baseline(w: &Workload, cost: &CostModel, seed: u64) -> RunMetrics {
    let (m, hit) = run(
        &w.module,
        cost,
        &thread_specs(w),
        machine_config(w, ExecMode::Baseline, seed),
    );
    assert!(!hit, "{}: baseline hit the cycle limit", w.name);
    m
}

/// Run an instrumented build of `w` under `ClocksOnly`, then under `Det`:
/// the pair of runs behind every clocks-vs-det overhead the tables report.
pub fn run_clocks_then_det(
    w: &Workload,
    inst: &detlock_ir::Module,
    cost: &CostModel,
    seed: u64,
) -> (RunMetrics, RunMetrics) {
    let specs = thread_specs(w);
    let go = |mode: ExecMode| {
        let (m, hit) = run(inst, cost, &specs, machine_config(w, mode, seed));
        assert!(!hit, "{}: {mode:?} hit the cycle limit", w.name);
        m
    };
    (go(ExecMode::ClocksOnly), go(ExecMode::Det))
}

/// Instrument a workload at `level` with the given placement.
pub fn instrumented(
    w: &Workload,
    cost: &CostModel,
    level: OptLevel,
    placement: Placement,
) -> detlock_passes::pipeline::Instrumented {
    instrument(
        &w.module,
        cost,
        &OptConfig::only(level),
        placement,
        &w.entries,
    )
}

/// One Table I cell pair: clocks-only and deterministic overhead, percent
/// over the baseline.
#[derive(Debug, Clone, Copy)]
pub struct LevelResult {
    /// Optimization configuration.
    pub level: OptLevel,
    /// Overhead of tick execution alone (Table I upper half).
    pub clocks_pct: f64,
    /// Overhead of ticks + deterministic execution (Table I lower half).
    pub det_pct: f64,
}

/// Instrument `w` at `level` with `placement` and measure it against
/// `base`, the workload's [`run_baseline`].
pub fn run_level(
    w: &Workload,
    cost: &CostModel,
    seed: u64,
    base: &RunMetrics,
    level: OptLevel,
    placement: Placement,
) -> LevelResult {
    let inst = instrumented(w, cost, level, placement);
    let (clk, det) = run_clocks_then_det(w, &inst.module, cost, seed);
    LevelResult {
        level,
        clocks_pct: clk.overhead_pct(base),
        det_pct: det.overhead_pct(base),
    }
}

/// All Table I data for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: &'static str,
    /// The baseline run: "Original Exec Time" and "Locks/sec".
    pub baseline: RunMetrics,
    /// Clockable functions found by O1 (Table I row 3).
    pub clockable_functions: usize,
    /// Results per optimization level, in Table I row order, clocks at
    /// block start.
    pub levels: Vec<LevelResult>,
}

impl BenchResult {
    /// The cell pair of Table I row `level`.
    pub fn level(&self, level: OptLevel) -> &LevelResult {
        self.levels
            .iter()
            .find(|l| l.level == level)
            .expect("Table I measures every OptLevel")
    }
}

/// Run the full Table I experiment for one workload.
pub fn run_benchmark(w: &Workload, cost: &CostModel, seed: u64) -> BenchResult {
    let baseline = run_baseline(w, cost, seed);
    let levels = OptLevel::table1_rows()
        .into_iter()
        .map(|level| run_level(w, cost, seed, &baseline, level, Placement::Start))
        .collect();
    BenchResult {
        name: w.name,
        baseline,
        clockable_functions: instrumented(w, cost, OptLevel::O1, Placement::Start)
            .stats
            .clockable_functions,
        levels,
    }
}

/// Simulated Kendo on `w` at each of `chunks`. Kendo runs the
/// uninstrumented module: `ExecMode::Kendo` (no tick clocks) under the
/// chunk scheduler. Returns the baseline run and, per chunk, Kendo's
/// overhead over it in percent.
pub fn kendo_sweep(
    w: &Workload,
    cost: &CostModel,
    seed: u64,
    chunks: &[u64],
) -> (RunMetrics, Vec<f64>) {
    let base = run_baseline(w, cost, seed);
    let specs = thread_specs(w);
    let pcts = chunks
        .iter()
        .map(|&chunk| {
            let mut cfg = machine_config(w, ExecMode::Kendo, seed);
            cfg.scheduler = Sched::Chunk(ChunkParams {
                chunk_size: chunk,
                ..ChunkParams::default()
            });
            let (k, hit) = run(&w.module, cost, &specs, cfg);
            assert!(!hit, "{}: kendo chunk {chunk} hit the cycle limit", w.name);
            k.overhead_pct(&base)
        })
        .collect();
    (base, pcts)
}

/// Table II's Kendo cells for one workload.
#[derive(Debug, Clone, Copy)]
pub struct KendoResult {
    /// Locks per second of the baseline run.
    pub locks_per_sec: f64,
    /// The lowest overhead of the sweep, percent.
    pub pct: f64,
    /// The first chunk size that reaches it.
    pub chunk: u64,
}

/// [`kendo_sweep`]'s best chunk: the paper notes Kendo's chunk size is
/// balanced by hand per benchmark. Table II runs it on Kendo's own dataset
/// (`detlock_workloads::kendo_dataset`), with the lower lock frequencies
/// the paper's Kendo rows used.
pub fn run_kendo(w: &Workload, cost: &CostModel, seed: u64, chunks: &[u64]) -> KendoResult {
    let (base, pcts) = kendo_sweep(w, cost, seed, chunks);
    let mut best = 0;
    for (i, &pct) in pcts.iter().enumerate() {
        if pct < pcts[best] {
            best = i;
        }
    }
    KendoResult {
        locks_per_sec: base.locks_per_sec(),
        pct: pcts[best],
        chunk: chunks[best],
    }
}

/// Thread entry tuples in the shape `detlock_analyze::races` expects.
pub fn race_threads(w: &Workload) -> Vec<(detlock_ir::FuncId, Vec<i64>)> {
    w.threads.iter().map(|t| (t.func, t.args.clone())).collect()
}

/// The full static lint for one workload: the lockset race analysis once,
/// plus the translation validator over every Table I configuration at
/// `placement`. Validator findings get the config label appended to their
/// context lines.
pub fn lint_workload(
    w: &Workload,
    cost: &CostModel,
    placement: Placement,
) -> detlock_analyze::Report {
    let mut report = detlock_analyze::races::analyze_races(&w.module, &race_threads(w));
    for level in OptLevel::table1_rows() {
        let inst = instrument(
            &w.module,
            cost,
            &OptConfig::only(level),
            placement,
            &w.entries,
        );
        let mut r = detlock_analyze::validate::validate(&w.module, &inst.module, &inst.cert, cost);
        for f in &mut r.findings {
            f.related.push(format!("config: {}", level.label()));
        }
        report.extend(r);
    }
    report
}

/// Run `w`'s *source* (uninstrumented) module under deterministic
/// arbitration with the `detsan` happens-before sanitizer enabled, once
/// per jitter seed in `seeds`, and merge the reports. The source module
/// keeps `(function, block, inst)` coordinates aligned with the static
/// analysis (instrumentation inserts ticks that shift instruction
/// indices); `Det` mode works uninstrumented because its logical clocks
/// advance on synchronization events alone. The canonical race set is
/// seed-invariant by construction (see [`detlock_vm::sanitizer`]); the
/// sweep exists so triage verdicts rest on observed schedules rather than
/// the invariance argument alone.
pub fn sanitize_workload_sweep(w: &Workload, cost: &CostModel, seeds: &[u64]) -> SanitizerReport {
    assert!(!seeds.is_empty());
    let mut merged: Option<SanitizerReport> = None;
    for &seed in seeds {
        let mut cfg = machine_config(w, ExecMode::Det, seed);
        cfg.sanitize = true;
        let (_, _, hit, report) =
            Machine::new(&w.module, cost, &thread_specs(w), cfg).run_sanitized();
        assert!(!hit, "{}: sanitized run hit the cycle limit", w.name);
        let r = report.expect("sanitize flag was set");
        match &mut merged {
            None => merged = Some(r),
            Some(m) => m.merge(&r),
        }
    }
    merged.unwrap()
}

/// The seed sweep every determinism probe defaults to.
pub const DEFAULT_SEEDS: [u64; 5] = [1, 2, 7, 42, 31337];

/// Shared command-line options for the bench binaries. Every binary
/// accepts the same core flags (`--threads`, `--scale`, `--seed`,
/// `--seeds`, `--json`, `--out`, `--only`); binaries with extra flags
/// layer them on via [`CliOptions::parse_with`].
pub struct CliOptions {
    /// Number of simulated cores/threads: `Some` only when `--threads` was
    /// given. Each binary resolves its own default via
    /// [`CliOptions::threads_or`].
    pub threads: Option<usize>,
    /// Workload scale factor: `Some` only when `--scale` was given on the
    /// command line. Each binary resolves its own default via
    /// [`CliOptions::scale_or`] (each wants a different small dataset).
    pub scale: Option<f64>,
    /// Emit JSON instead of the table format.
    pub json: bool,
    /// Jitter seed.
    pub seed: u64,
    /// Seed sweep for multi-seed probes (`--seeds a,b,c`).
    pub seeds: Vec<u64>,
    /// Write the JSON report to this file (independent of `--json`).
    pub out: Option<String>,
    /// Restrict to one benchmark.
    pub only: Option<String>,
}

/// A command-line usage error: one line on stderr and exit code 2, the
/// code `dlc` uses for the same thing.
fn usage_error(what: std::fmt::Arguments<'_>) -> ! {
    eprintln!("usage: {what}");
    std::process::exit(2)
}

/// The operand of the flag at `args[*i]`, advancing `i` onto it; a missing
/// operand is a usage error (exit 2). For [`CliOptions::parse_with`]
/// callbacks and `detserved`'s own argument loop, so a binary's extra
/// flags fail the same way the shared ones do.
pub fn operand<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    let flag = &args[*i];
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage_error(format_args!("{flag} needs an operand")),
    }
}

/// [`operand`], parsed; an operand `T` rejects is a usage error (exit 2)
/// that quotes `T`'s reason.
pub fn parsed_operand<T>(args: &[String], i: &mut usize) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let flag = &args[*i];
    let v = operand(args, i);
    v.parse()
        .unwrap_or_else(|e| usage_error(format_args!("{flag}: cannot parse '{v}': {e}")))
}

impl CliOptions {
    /// Parse from `std::env::args` (ignores the binary name). Supported:
    /// `--threads N`, `--scale F`, `--seed N`, `--seeds A,B,C`, `--json`,
    /// `--out FILE`, `--only NAME`.
    pub fn parse() -> CliOptions {
        Self::parse_with(|_, _, _| false)
    }

    /// Like [`CliOptions::parse`], but unrecognized flags are first offered
    /// to `extra(flag, args, &mut i)`; the callback consumes any operands
    /// (through [`operand`] / [`parsed_operand`], which advance `i`) and
    /// returns `true` if it recognized the flag.
    pub fn parse_with(mut extra: impl FnMut(&str, &[String], &mut usize) -> bool) -> CliOptions {
        let mut opts = CliOptions {
            threads: None,
            scale: None,
            json: false,
            seed: 1,
            seeds: DEFAULT_SEEDS.to_vec(),
            out: None,
            only: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => opts.threads = Some(parsed_operand(&args, &mut i)),
                "--scale" => opts.scale = Some(parsed_operand(&args, &mut i)),
                "--seed" => opts.seed = parsed_operand(&args, &mut i),
                "--seeds" => {
                    opts.seeds = operand(&args, &mut i)
                        .split(',')
                        .map(|s| s.trim().parse())
                        .collect::<Result<_, _>>()
                        .unwrap_or_else(|e| usage_error(format_args!("--seeds A,B,C: {e}")));
                }
                "--json" => opts.json = true,
                "--out" => opts.out = Some(operand(&args, &mut i).to_string()),
                "--only" => opts.only = Some(operand(&args, &mut i).to_string()),
                other => {
                    if !extra(other, &args, &mut i) {
                        usage_error(format_args!(
                            "unknown option {other} (core flags: --threads N --scale F --seed N \
                             --seeds A,B,C --json --out FILE --only NAME)"
                        ));
                    }
                }
            }
            i += 1;
        }
        opts
    }

    /// Shared report emission: print to stdout under `--json`, write to the
    /// `--out` file when given (pretty-printed in both cases).
    pub fn emit_json(&self, report: &Json) {
        if self.json {
            println!("{}", report.to_string_pretty());
        }
        if let Some(path) = &self.out {
            std::fs::write(path, report.to_string_pretty()).expect("write --out file");
        }
    }

    /// The effective scale: the `--scale` value when given, else the
    /// binary's own `default`.
    pub fn scale_or(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }

    /// The effective thread count: the `--threads` value when given, else
    /// the binary's own `default`.
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    /// The workloads selected by `--only` (or all five) at `threads` and
    /// `scale`.
    pub fn workloads_at(&self, threads: usize, scale: f64) -> Vec<Workload> {
        match &self.only {
            Some(name) => vec![detlock_workloads::by_name(name, threads, scale)
                .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))],
            None => detlock_workloads::all_benchmarks(threads, scale),
        }
    }
}
