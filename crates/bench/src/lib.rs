//! # detlock-bench
//!
//! The experiment harness: everything needed to regenerate the paper's
//! Table I, Table II, Figure 14 and Figure 15 from the workload generators,
//! the instrumentation pipeline, and the cycle-level simulator.
//!
//! Binaries (run with `--release`):
//!
//! * `table1` — per-benchmark overheads for all six optimization configs in
//!   both clocks-only and deterministic modes;
//! * `table2` — DetLock (all opts) vs simulated Kendo;
//! * `fig14` — the stacked no-opt vs all-opt overhead view of Table I;
//! * `fig15` — Radiosity with clocks at block start vs block end (the
//!   ahead-of-time effect);
//! * `detcheck` — run-to-run determinism probe across jitter seeds.

#![warn(missing_docs)]

pub mod loadgen;

use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, instrument_with, CompileOpts, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use detlock_shim::json::{Json, ToJson};
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

/// Simulator configuration for experiment runs.
pub fn machine_config(w: &Workload, mode: ExecMode, seed: u64) -> MachineConfig {
    MachineConfig {
        mode,
        mem_words: w.mem_words,
        jitter: Jitter::default().with_seed(seed),
        max_cycles: 60_000_000_000,
        ghz: 2.66,
        lock_order_limit: 4096,
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

/// One Table I cell pair: clocks-only and deterministic overhead (percent
/// over baseline), plus the run cycles behind them.
#[derive(Debug, Clone)]
pub struct LevelResult {
    /// Optimization configuration label.
    pub level: String,
    /// Overhead of tick execution alone (Table I upper half).
    pub clocks_pct: f64,
    /// Overhead of ticks + deterministic execution (Table I lower half).
    pub det_pct: f64,
    /// Cycles of the clocks-only run.
    pub clocks_cycles: u64,
    /// Cycles of the deterministic run.
    pub det_cycles: u64,
    /// Static ticks the pass inserted.
    pub ticks_inserted: usize,
}

impl ToJson for LevelResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("level", self.level.to_json()),
            ("clocks_pct", self.clocks_pct.to_json()),
            ("det_pct", self.det_pct.to_json()),
            ("clocks_cycles", self.clocks_cycles.to_json()),
            ("det_cycles", self.det_cycles.to_json()),
            ("ticks_inserted", self.ticks_inserted.to_json()),
        ])
    }
}

/// All Table I data for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Baseline run cycles ("Original Exec Time").
    pub baseline_cycles: u64,
    /// Baseline simulated milliseconds.
    pub baseline_ms: f64,
    /// Lock acquisitions per simulated second in the baseline run.
    pub locks_per_sec: f64,
    /// Clockable functions found by O1 (Table I row 3).
    pub clockable_functions: usize,
    /// Results per optimization level, in Table I row order.
    pub levels: Vec<LevelResult>,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("baseline_cycles", self.baseline_cycles.to_json()),
            ("baseline_ms", self.baseline_ms.to_json()),
            ("locks_per_sec", self.locks_per_sec.to_json()),
            ("clockable_functions", self.clockable_functions.to_json()),
            ("levels", self.levels.to_json()),
        ])
    }
}

/// Run the full Table I experiment for one workload.
pub fn run_benchmark(w: &Workload, cost: &CostModel, seed: u64) -> BenchResult {
    let base = run_baseline(w, cost, seed);
    let clockable = instrumented(w, cost, OptLevel::O1, Placement::Start)
        .stats
        .clockable_functions;

    let mut levels = Vec::new();
    for level in OptLevel::table1_rows() {
        let inst = instrumented(w, cost, level, Placement::Start);
        let (clk, det) = run_clocks_then_det(w, &inst.module, cost, seed);
        levels.push(LevelResult {
            level: level.label().to_string(),
            clocks_pct: clk.overhead_pct(&base),
            det_pct: det.overhead_pct(&base),
            clocks_cycles: clk.cycles,
            det_cycles: det.cycles,
            ticks_inserted: inst.stats.ticks_inserted,
        });
    }

    BenchResult {
        name: w.name.to_string(),
        baseline_cycles: base.cycles,
        baseline_ms: base.seconds() * 1e3,
        locks_per_sec: base.locks_per_sec(),
        clockable_functions: clockable,
        levels,
    }
}

/// Table II data for one benchmark: DetLock (all opts) vs simulated Kendo.
#[derive(Debug, Clone)]
pub struct KendoComparison {
    /// Benchmark name.
    pub name: String,
    /// Locks per second (baseline run, DetLock dataset).
    pub locks_per_sec: f64,
    /// Locks per second of the Kendo dataset (the paper's Kendo rows use
    /// lower-lock-frequency datasets for radiosity/volrend/raytrace).
    pub kendo_locks_per_sec: f64,
    /// DetLock overall overhead (all optimizations, det mode), percent.
    pub detlock_pct: f64,
    /// Simulated Kendo overhead, percent.
    pub kendo_pct: f64,
    /// The chunk size used for Kendo (the paper notes Kendo tunes this by
    /// hand per benchmark).
    pub kendo_chunk: u64,
}

impl ToJson for KendoComparison {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("locks_per_sec", self.locks_per_sec.to_json()),
            ("kendo_locks_per_sec", self.kendo_locks_per_sec.to_json()),
            ("detlock_pct", self.detlock_pct.to_json()),
            ("kendo_pct", self.kendo_pct.to_json()),
            ("kendo_chunk", self.kendo_chunk.to_json()),
        ])
    }
}

/// Run the Table II comparison for one workload. `chunks` are the candidate
/// Kendo chunk sizes; the best (lowest overhead) is reported, mirroring the
/// paper's hand-tuned Kendo numbers. As in the paper, Kendo runs its own
/// dataset (`kendo_w`) with a lower lock frequency where the paper's did.
pub struct KendoInputs<'a> {
    /// The DetLock-side workload (Table I dataset).
    pub detlock: &'a Workload,
    /// The Kendo-side workload (Kendo's published dataset sizes).
    pub kendo: &'a Workload,
}

/// See [`KendoInputs`].
pub fn run_kendo_comparison(
    inputs: KendoInputs<'_>,
    cost: &CostModel,
    seed: u64,
    chunks: &[u64],
) -> KendoComparison {
    let w = inputs.detlock;
    let base = run_baseline(w, cost, seed);
    let inst = instrumented(w, cost, OptLevel::All, Placement::Start);
    let specs = thread_specs(w);
    let (det, hit) = run(
        &inst.module,
        cost,
        &specs,
        machine_config(w, ExecMode::Det, seed),
    );
    assert!(!hit);

    let kw = inputs.kendo;
    let kendo_base = run_baseline(kw, cost, seed);
    let kendo_specs = thread_specs(kw);
    let mut best: Option<(f64, u64)> = None;
    for &chunk in chunks {
        // Kendo runs the uninstrumented module: `ExecMode::Kendo` (no tick
        // clocks) under the chunk scheduler, pinned explicitly so Table II
        // numbers are independent of `DETLOCK_SCHEDULER`.
        let mut cfg = machine_config(kw, ExecMode::Kendo, seed);
        cfg.scheduler = Sched::Chunk(ChunkParams {
            chunk_size: chunk,
            ..ChunkParams::default()
        });
        let (k, hit) = run(&kw.module, cost, &kendo_specs, cfg);
        assert!(!hit, "{}: kendo chunk {} hit limit", kw.name, chunk);
        let pct = k.overhead_pct(&kendo_base);
        if best.is_none_or(|(b, _)| pct < b) {
            best = Some((pct, chunk));
        }
    }
    let (kendo_pct, kendo_chunk) = best.unwrap();

    KendoComparison {
        name: w.name.to_string(),
        locks_per_sec: base.locks_per_sec(),
        kendo_locks_per_sec: kendo_base.locks_per_sec(),
        detlock_pct: det.overhead_pct(&base),
        kendo_pct,
        kendo_chunk,
    }
}

/// Figure 15 data: Radiosity under O1 with different tick placements.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Benchmark name.
    pub name: String,
    /// No-optimization deterministic overhead (left bar).
    pub none_pct: f64,
    /// O1 with ticks at block end (middle bar).
    pub o1_end_pct: f64,
    /// O1 with ticks at block start (right bar — DetLock's default).
    pub o1_start_pct: f64,
    /// Clocks-only portions of the same three bars.
    pub none_clocks_pct: f64,
    /// Clocks-only, O1 end placement.
    pub o1_end_clocks_pct: f64,
    /// Clocks-only, O1 start placement.
    pub o1_start_clocks_pct: f64,
}

impl ToJson for PlacementResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("none_pct", self.none_pct.to_json()),
            ("o1_end_pct", self.o1_end_pct.to_json()),
            ("o1_start_pct", self.o1_start_pct.to_json()),
            ("none_clocks_pct", self.none_clocks_pct.to_json()),
            ("o1_end_clocks_pct", self.o1_end_clocks_pct.to_json()),
            ("o1_start_clocks_pct", self.o1_start_clocks_pct.to_json()),
        ])
    }
}

/// Run the Figure 15 experiment on a workload.
pub fn run_placement(w: &Workload, cost: &CostModel, seed: u64) -> PlacementResult {
    let base = run_baseline(w, cost, seed);
    let go = |level: OptLevel, placement: Placement| -> (f64, f64) {
        let inst = instrumented(w, cost, level, placement);
        let (clk, det) = run_clocks_then_det(w, &inst.module, cost, seed);
        (clk.overhead_pct(&base), det.overhead_pct(&base))
    };
    let (none_clk, none_det) = go(OptLevel::None, Placement::Start);
    let (end_clk, end_det) = go(OptLevel::O1, Placement::End);
    let (start_clk, start_det) = go(OptLevel::O1, Placement::Start);
    PlacementResult {
        name: w.name.to_string(),
        none_pct: none_det,
        o1_end_pct: end_det,
        o1_start_pct: start_det,
        none_clocks_pct: none_clk,
        o1_end_clocks_pct: end_clk,
        o1_start_clocks_pct: start_clk,
    }
}

/// Thread entry tuples in the shape `detlock_analyze::races` expects.
pub fn race_threads(w: &Workload) -> Vec<(detlock_ir::FuncId, Vec<i64>)> {
    w.threads.iter().map(|t| (t.func, t.args.clone())).collect()
}

/// The full static lint for one workload: the lockset race analysis once,
/// plus the translation validator over every Table I configuration at
/// `placement`. Validator findings get the config label appended to their
/// context lines. `opts` lets `detlint`/`detcheck` honor
/// `--compile-threads` and share the plan cache across the six
/// configurations they validate.
pub fn lint_workload(
    w: &Workload,
    cost: &CostModel,
    placement: Placement,
    opts: CompileOpts,
) -> detlock_analyze::Report {
    let mut report = detlock_analyze::races::analyze_races(&w.module, &race_threads(w));
    for level in OptLevel::table1_rows() {
        let inst = instrument_with(
            &w.module,
            cost,
            &OptConfig::only(level),
            placement,
            &w.entries,
            opts,
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
/// arbitration with the `detsan` happens-before sanitizer enabled, at
/// jitter seed `seed`. The source module keeps `(function, block, inst)`
/// coordinates aligned with the static analysis (instrumentation inserts
/// ticks that shift instruction indices); `Det` mode works uninstrumented
/// because its logical clocks advance on synchronization events alone.
pub fn sanitize_workload(w: &Workload, cost: &CostModel, seed: u64) -> SanitizerReport {
    let mut cfg = machine_config(w, ExecMode::Det, seed);
    cfg.sanitize = true;
    let (_, _, hit, report) = Machine::new(&w.module, cost, &thread_specs(w), cfg).run_sanitized();
    assert!(!hit, "{}: sanitized run hit the cycle limit", w.name);
    report.expect("sanitize flag was set")
}

/// [`sanitize_workload`] swept across `seeds` and merged into one report.
/// The canonical race set is seed-invariant by construction (see
/// [`detlock_vm::sanitizer`]); the sweep exists so triage verdicts rest on
/// observed schedules rather than the invariance argument alone.
pub fn sanitize_workload_sweep(w: &Workload, cost: &CostModel, seeds: &[u64]) -> SanitizerReport {
    assert!(!seeds.is_empty());
    let mut merged: Option<SanitizerReport> = None;
    for &seed in seeds {
        let r = sanitize_workload(w, cost, seed);
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
/// `--seeds`, `--json`, `--out`, `--only`, `--compile-threads`); binaries
/// with extra flags layer them on via [`CliOptions::parse_with`].
pub struct CliOptions {
    /// Number of simulated cores/threads.
    pub threads: usize,
    /// Workload scale factor: `Some` only when `--scale` was given on the
    /// command line. Each binary resolves its own default via
    /// [`CliOptions::scale_or`] (the paper figures want full-size runs, the
    /// probes and the lint want small datasets).
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
    /// Instrumentation compile workers (`--compile-threads N`, default
    /// `DETLOCK_COMPILE_THREADS` or 1). Distinct from `--threads`, which is
    /// the *simulated* core count.
    pub compile_threads: usize,
    /// Execution backend (`--backend interp|threaded`, default
    /// `DETLOCK_BACKEND` or the interpreter). Parsing the flag installs the
    /// process-wide default, so every machine the binary builds afterwards
    /// uses it without further plumbing.
    pub backend: Backend,
    /// Deterministic scheduling policy (`--scheduler
    /// kendo|chunk[:SIZE[:COST]]|dc-batch`, default `DETLOCK_SCHEDULER` or
    /// Kendo). Like `--backend`, parsing installs the process-wide default.
    pub scheduler: Sched,
}

/// A command-line usage error: one line on stderr and exit code 2, the
/// code `dlc` and `perfgate` use for the same thing.
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
    /// `--out FILE`, `--only NAME`, `--compile-threads N`,
    /// `--backend interp|threaded`, `--scheduler kendo|chunk|dc-batch`.
    pub fn parse() -> CliOptions {
        Self::parse_with(|_, _, _| false)
    }

    /// Like [`CliOptions::parse`], but unrecognized flags are first offered
    /// to `extra(flag, args, &mut i)`; the callback consumes any operands
    /// (through [`operand`] / [`parsed_operand`], which advance `i`) and
    /// returns `true` if it recognized the flag.
    pub fn parse_with(mut extra: impl FnMut(&str, &[String], &mut usize) -> bool) -> CliOptions {
        let mut opts = CliOptions {
            threads: 4,
            scale: None,
            json: false,
            seed: 1,
            seeds: DEFAULT_SEEDS.to_vec(),
            out: None,
            only: None,
            compile_threads: CompileOpts::from_env().threads,
            backend: Backend::resolve(),
            scheduler: Sched::resolve(),
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => opts.threads = parsed_operand(&args, &mut i),
                "--scale" => opts.scale = Some(parsed_operand(&args, &mut i)),
                "--seed" => opts.seed = parsed_operand(&args, &mut i),
                "--seeds" => {
                    opts.seeds = operand(&args, &mut i)
                        .split(',')
                        .map(|s| s.trim().parse())
                        .collect::<Result<_, _>>()
                        .unwrap_or_else(|e| usage_error(format_args!("--seeds A,B,C: {e}")));
                }
                "--compile-threads" => opts.compile_threads = parsed_operand(&args, &mut i),
                "--backend" => {
                    opts.backend = Backend::parse(operand(&args, &mut i))
                        .unwrap_or_else(|e| usage_error(format_args!("--backend: {e}")));
                    opts.backend.set_process_default();
                }
                "--scheduler" => {
                    opts.scheduler = Sched::parse(operand(&args, &mut i))
                        .unwrap_or_else(|e| usage_error(format_args!("--scheduler: {e}")));
                    opts.scheduler.set_process_default();
                }
                "--json" => opts.json = true,
                "--out" => opts.out = Some(operand(&args, &mut i).to_string()),
                "--only" => opts.only = Some(operand(&args, &mut i).to_string()),
                other => {
                    if !extra(other, &args, &mut i) {
                        usage_error(format_args!(
                            "unknown option {other} (core flags: --threads N --scale F --seed N \
                             --seeds A,B,C --json --out FILE --only NAME --compile-threads N \
                             --backend interp|threaded \
                             --scheduler kendo|chunk[:SIZE[:COST]]|dc-batch)"
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

    /// The resolved [`CompileOpts`]: `--compile-threads` workers with the
    /// process-wide plan cache enabled.
    pub fn compile_opts(&self) -> CompileOpts {
        CompileOpts::threads(self.compile_threads).cached()
    }

    /// The workloads selected by `--only` (or all five) at the paper's
    /// full scale unless `--scale` was given. Binaries with a smaller
    /// default use [`CliOptions::workloads_at`] with their resolved scale.
    pub fn workloads(&self) -> Vec<Workload> {
        self.workloads_at(self.scale_or(1.0))
    }

    /// The workloads selected by `--only` (or all five) at `scale`.
    pub fn workloads_at(&self, scale: f64) -> Vec<Workload> {
        match &self.only {
            Some(name) => vec![detlock_workloads::by_name(name, self.threads, scale)
                .unwrap_or_else(|| panic!("unknown benchmark `{name}`"))],
            None => detlock_workloads::all_benchmarks(self.threads, scale),
        }
    }
}
