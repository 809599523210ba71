//! The matrix driver: a [`Cell`] names one run of the simulator or the
//! serving layer, [`outcome`] runs it into an [`Outcome`], and the
//! properties in `tests/matrix.rs` are relations over outcomes.
//!
//! Outcomes are memoised by cell, so a cell that several properties read
//! runs once per test binary. A failed property names the cells it
//! compared in full (`Cell`'s `Debug`), which is the whole recipe for
//! re-running them.

use detlock_bench::{instrumented, machine_config, thread_specs};
use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_serve::protocol::JobSpec;
use detlock_serve::receipt::Receipt;
use detlock_serve::shard::{ExecOpts, ExecOutcome, ShardEngine};
use detlock_vm::checkpoint::Checkpoint;
use detlock_vm::machine::{CkptControl, ExecMode, Machine, RunOutcome, ThreadSpec};
use detlock_vm::metrics::RunMetrics;
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::{Backend, ChunkParams, Sched};
use detlock_workloads::racy::{self, RacyParams};
use detlock_workloads::{micro, Workload};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, OnceLock};

/// The three arbitration policies.
pub fn policies() -> [Sched; 3] {
    [
        Sched::Kendo,
        Sched::Chunk(ChunkParams::default()),
        Sched::DcBatch,
    ]
}

/// The program an input names: a Table I workload at the serving layer's
/// size (2 threads, scale 0.02), so the same input can be a job, or one of
/// the controls and stressors.
pub fn workload(input: &str) -> Workload {
    match input {
        "racy-counter" => racy::build(4, &RacyParams { iters: 60 }),
        "deadlock-control" => racy::build_deadlock(4),
        "lockhammer" => micro::lock_hammer(4, 100),
        "barrierhammer" => micro::barrier_hammer(3, 60),
        name => detlock_workloads::by_name(name, 2, 0.02).expect("known input"),
    }
}

/// The five Table I workloads.
pub fn splash() -> Vec<&'static str> {
    let names: Vec<_> = detlock_workloads::all_benchmarks(2, 0.02)
        .iter()
        .map(|w| w.name)
        .collect();
    assert!(names.len() >= 5, "workload registry shrank");
    names
}

/// Which engine executes the run. `Alternate` switches at every resume of
/// a chain, starting with the interpreter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    Interp,
    Threaded,
    Alternate,
}

impl Engine {
    fn backend(self, resumes: usize) -> Backend {
        match self {
            Engine::Interp => Backend::Interp,
            Engine::Threaded => Backend::Threaded,
            Engine::Alternate if resumes.is_multiple_of(2) => Backend::Interp,
            Engine::Alternate => Backend::Threaded,
        }
    }
}

/// Snapshots taken during the run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Ckpt {
    Off,
    /// One every this many cycles; the run continues past each.
    Stream(u64),
    /// One every this many cycles, and the run stops at each and resumes
    /// from it: interrupted at every boundary.
    Resume(u64),
}

impl Ckpt {
    /// The snapshot interval (0: none), and whether the run stops at each.
    fn interval(self) -> (u64, bool) {
        match self {
            Ckpt::Off => (0, false),
            Ckpt::Stream(every) => (every, false),
            Ckpt::Resume(every) => (every, true),
        }
    }
}

/// Where the cell runs: on a `Machine`, or as a job on a `ShardEngine`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Host {
    Machine,
    /// The test thread's long-lived shard engine, which has run the
    /// thread's earlier jobs.
    Shared,
    /// The job once more on that engine, after it has run it.
    Again,
    /// A shard engine of its own.
    Fresh,
}

/// One run: every input the outcome may depend on.
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    /// A name [`workload`] knows.
    pub input: &'static str,
    /// `None` runs the source module; otherwise the module instrumented at
    /// this level with ticks at `placement`.
    pub level: Option<OptLevel>,
    pub placement: Placement,
    pub mode: ExecMode,
    pub sched: Sched,
    pub engine: Engine,
    pub seed: u64,
    pub sanitize: bool,
    pub ckpt: Ckpt,
    /// Cycle limit; `None` is the harness default (no cut).
    pub limit: Option<u64>,
    pub host: Host,
}

impl Cell {
    /// `input` instrumented at every optimization, ticks at block start,
    /// under `Det` + Kendo on the threaded engine, seed 1, run once.
    pub fn det(input: &'static str) -> Cell {
        Cell {
            input,
            level: Some(OptLevel::All),
            placement: Placement::Start,
            mode: ExecMode::Det,
            sched: Sched::Kendo,
            engine: Engine::Threaded,
            seed: 1,
            sanitize: false,
            ckpt: Ckpt::Off,
            limit: None,
            host: Host::Machine,
        }
    }

    /// A serving-layer job for a Table I workload: `Det` at every
    /// optimization on the interpreter. A job runs on one engine, the
    /// one `engine` names; `Alternate` is not a job.
    pub fn job(input: &'static str) -> Cell {
        Cell {
            engine: Engine::Interp,
            host: Host::Shared,
            ..Cell::det(input)
        }
    }

    /// The job this cell submits.
    pub fn spec(&self) -> JobSpec {
        let job = self.mode == ExecMode::Det
            && self.placement == Placement::Start
            && self.engine != Engine::Alternate;
        let opt = self.level.filter(|_| job);
        JobSpec {
            tenant: "matrix".to_string(),
            workload: self.input.to_string(),
            threads: 2,
            scale: 0.02,
            seed: self.seed,
            opt: opt.unwrap_or_else(|| panic!("not a serving-layer job: {self:?}")),
            sanitize: self.sanitize,
            scheduler: self.sched,
        }
    }
}

/// A run's cycle, deep digest and size at one snapshot.
pub type Stamp = (u64, u64, usize);

fn stamp(ck: &Checkpoint) -> Stamp {
    (ck.cycle(), ck.digest(), ck.approx_bytes())
}

/// Everything a cell's run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `None` for a job: the serving layer answers with a receipt.
    pub metrics: Option<RunMetrics>,
    /// The nonzero words of final memory, by index.
    pub memory: Vec<(usize, i64)>,
    pub hit_limit: bool,
    pub sanitizer: Option<SanitizerReport>,
    pub receipt: Option<Receipt>,
    /// `Stream`: one per snapshot, in order.
    pub stamps: Vec<Stamp>,
    /// `Resume`: how often the chain resumed.
    pub resumes: usize,
    /// `Resume` on a machine, two resumes in sixteen (an odd and an even
    /// one, so both directions of an alternating chain; a deep digest folds
    /// the sanitizer's shadow state too): the checkpoint, and the resumed
    /// machine's snapshot before it runs a cycle.
    pub round_trips: Vec<(Stamp, Stamp)>,
}

impl Outcome {
    pub fn metrics(&self) -> &RunMetrics {
        self.metrics.as_ref().expect("a machine run")
    }
}

/// Assert that two outcomes end in the same state, field by field, naming
/// both cells and the first field that differs. Snapshots are left to the
/// caller: a run and its resume chain take different ones.
pub fn assert_same(a: (&Cell, &Outcome), b: (&Cell, &Outcome)) {
    let ((ca, a), (cb, b)) = (a, b);
    let hash = |o: &Outcome| o.metrics.as_ref().map(|m| m.lock_order_hash);
    // The serialized forms the tools print, not only the structure.
    let text = |o: &Outcome| o.sanitizer.as_ref().map(SanitizerReport::canonical);
    let receipt = |o: &Outcome| o.receipt.as_ref().map(Receipt::canonical);
    let fields = [
        ("cycle-limit flag", a.hit_limit == b.hit_limit),
        ("trace hash", hash(a) == hash(b)),
        ("run metrics", a.metrics == b.metrics),
        ("final memory", a.memory == b.memory),
        ("sanitizer report", a.sanitizer == b.sanitizer),
        ("canonical report", text(a) == text(b)),
        ("receipt", receipt(a) == receipt(b)),
    ];
    if let Some((what, _)) = fields.iter().find(|(_, same)| !same) {
        panic!("{what} diverged between\n  {ca:?}\n  {cb:?}");
    }
}

type Memo<V> = Mutex<BTreeMap<String, Arc<OnceLock<Arc<V>>>>>;

/// `make()` once per key; concurrent callers with one key wait for the
/// first. A property that panicked poisons nothing: `make` runs outside the
/// lock.
fn memo<V>(map: &Memo<V>, key: String, make: impl FnOnce() -> V) -> Arc<V> {
    let slot = map.lock().unwrap().entry(key).or_default().clone();
    slot.get_or_init(|| Arc::new(make())).clone()
}

/// A program as a cell runs it.
struct Program {
    module: Module,
    specs: Vec<ThreadSpec>,
    source: Workload,
}

fn program(cell: &Cell) -> Arc<Program> {
    static PROGRAMS: Memo<Program> = Mutex::new(BTreeMap::new());
    let key = format!("{} {:?} {:?}", cell.input, cell.level, cell.placement);
    memo(&PROGRAMS, key, || {
        let source = workload(cell.input);
        let module = match cell.level {
            Some(level) => {
                instrumented(&source, &CostModel::default(), level, cell.placement).module
            }
            None => source.module.clone(),
        };
        Program {
            module,
            specs: thread_specs(&source),
            source,
        }
    })
}

thread_local! {
    /// The test thread's long-lived shard engine per execution engine, and
    /// the cells they have run.
    static SHARED: RefCell<(HashMap<Engine, ShardEngine>, BTreeSet<String>)> =
        RefCell::default();
}

/// A shard engine that runs every job on `engine`.
fn shard(id: usize, engine: Engine) -> ShardEngine {
    ShardEngine::new(id).with_backend(engine.backend(0))
}

/// The cell's outcome, run on first use.
pub fn outcome(cell: &Cell) -> Arc<Outcome> {
    static OUTCOMES: Memo<Outcome> = Mutex::new(BTreeMap::new());
    memo(&OUTCOMES, format!("{cell:?}"), || match cell.host {
        Host::Machine => run_machine(cell),
        Host::Shared | Host::Again => SHARED.with_borrow_mut(|(engines, ran)| {
            let engine = engines
                .entry(cell.engine)
                .or_insert_with(|| shard(0, cell.engine));
            let first = format!(
                "{:?}",
                Cell {
                    host: Host::Shared,
                    ..*cell
                }
            );
            if cell.host == Host::Again && !ran.contains(&first) {
                run_job(engine, cell);
            }
            ran.insert(first);
            run_job(engine, cell)
        }),
        Host::Fresh => run_job(&mut shard(1, cell.engine), cell),
    })
}

fn run_machine(cell: &Cell) -> Outcome {
    let p = program(cell);
    let cost = CostModel::default();
    let mut cfg = machine_config(&p.source, cell.mode, cell.seed);
    cfg.scheduler = cell.sched;
    cfg.sanitize = cell.sanitize;
    cfg.max_cycles = cell.limit.unwrap_or(cfg.max_cycles);
    let (every, stop) = cell.ckpt.interval();
    let (mut stamps, mut round_trips, mut resumes) = (Vec::new(), Vec::new(), 0);
    let mut resume: Option<Checkpoint> = None;
    loop {
        let mut cfg = cfg.clone();
        cfg.backend = cell.engine.backend(resumes);
        let machine = match &resume {
            Some(ck) => {
                let m = Machine::resume(&p.module, &cost, cfg, ck)
                    .unwrap_or_else(|e| panic!("{cell:?}: {e}"));
                if resumes % 16 < 2 {
                    round_trips.push((stamp(ck), stamp(&m.snapshot())));
                }
                m
            }
            None => Machine::new(&p.module, &cost, &p.specs, cfg),
        };
        let mut last = None;
        match machine.run_with_checkpoints(every, &mut |ck| {
            if !stop {
                stamps.push(stamp(ck));
                return CkptControl::Continue;
            }
            last = Some(ck.clone());
            CkptControl::Abort
        }) {
            RunOutcome::Finished {
                metrics,
                memory,
                hit_limit,
                sanitizer,
            } => {
                return Outcome {
                    metrics: Some(metrics),
                    memory: (memory.into_iter().enumerate())
                        .filter(|&(_, w)| w != 0)
                        .collect(),
                    hit_limit,
                    sanitizer,
                    receipt: None,
                    stamps,
                    resumes,
                    round_trips,
                }
            }
            RunOutcome::Aborted { .. } => (resume, resumes) = (last, resumes + 1),
        }
        assert!(resumes < 100_000, "{cell:?}: no end to the chain");
    }
}

fn run_job(engine: &mut ShardEngine, cell: &Cell) -> Outcome {
    let spec = cell.spec();
    let (every, stop) = cell.ckpt.interval();
    let mut resumes = 0;
    let mut resume_from = None;
    // A chain that stops at every boundary is a job evicted before each
    // attempt: the attempt stops at its first boundary, one interval on.
    let evicted = AtomicBool::new(stop);
    loop {
        let opts = ExecOpts {
            checkpoint_every: every,
            resume_from: resume_from.take(),
            evicted: Some(&evicted),
            ..ExecOpts::default()
        };
        match engine.execute_resumable(&spec, cell.limit.unwrap_or(u64::MAX), opts) {
            ExecOutcome::Done {
                receipt, sanitizer, ..
            } => {
                return Outcome {
                    sanitizer,
                    receipt: Some(receipt),
                    resumes,
                    ..Outcome::default()
                }
            }
            ExecOutcome::Preempted { checkpoint } => {
                (resume_from, resumes) = (Some(checkpoint), resumes + 1)
            }
            _ => panic!("{cell:?}: the job failed"),
        }
        assert!(resumes < 100_000, "{cell:?}: no end to the chain");
    }
}

/// One cell per input, from `base`.
pub fn grid(inputs: Vec<&'static str>, base: fn(&'static str) -> Cell) -> Vec<Cell> {
    inputs.into_iter().map(base).collect()
}

/// Grid building on a list of cells.
pub trait Axes: Sized {
    /// Every cell once per value of one axis, `set` writing the value into
    /// it: chained, a product grid.
    fn across<T: Copy>(
        self,
        values: impl IntoIterator<Item = T>,
        set: impl Fn(&mut Cell, T),
    ) -> Self;

    /// Every cell with `edit` applied.
    fn each(self, edit: impl Fn(&mut Cell)) -> Self {
        self.across([()], |c, ()| edit(c))
    }
}

impl Axes for Vec<Cell> {
    fn across<T: Copy>(
        self,
        values: impl IntoIterator<Item = T>,
        set: impl Fn(&mut Cell, T),
    ) -> Self {
        let (values, set) = (&values.into_iter().collect::<Vec<T>>(), &set);
        self.into_iter()
            .flat_map(|c| {
                values.iter().map(move |&v| {
                    let mut c = c;
                    set(&mut c, v);
                    c
                })
            })
            .collect()
    }
}
