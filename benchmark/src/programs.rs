//! Programs the VM workloads run, and the one way the benchmark runs them.
//!
//! Besides the SPLASH-2 shapes from `detlock-workloads`, two arbiter
//! stressors are built here with the IR builder: `lockhammer` (every thread
//! takes one lock around a shared-word increment, ~13 instructions per
//! acquisition) and `barrierhammer` (the same plus a barrier every
//! iteration). Both are race-free: the shared word is only touched under
//! lock 1.

use detlock_ir::builder::FunctionBuilder;
use detlock_ir::inst::{BinOp, CmpOp};
use detlock_ir::types::BarrierId;
use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, Instrumented, OptConfig};
use detlock_passes::plan::Placement;
use detlock_vm::machine::{ExecMode, Jitter, Machine, MachineConfig, ThreadSpec};
use detlock_vm::metrics::RunMetrics;
use detlock_vm::{Backend, Sched};
use detlock_workloads::{ThreadPlan, Workload};

/// The shared word both hammers increment under lock 1.
const HAMMER_WORD: i64 = 8;
/// Filler ALU ops per iteration, outside the critical section.
const HAMMER_FILLER: usize = 8;

fn hammer(name: &'static str, threads: usize, iters: i64, with_barrier: bool) -> Workload {
    let mut module = Module::new();
    // entry(iters)
    let mut fb = FunctionBuilder::new(name, 1);
    fb.block("entry");
    let head = fb.create_block("loop.cond");
    let body = fb.create_block("loop.body");
    let done = fb.create_block("done");
    let iters_reg = fb.param(0);
    let i = fb.iconst(0);
    let word = fb.iconst(HAMMER_WORD);
    fb.br(head);

    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters_reg);
    fb.cond_br(c, body, done);

    fb.switch_to(body);
    fb.lock(1i64);
    let v = fb.load(word, 0);
    let v2 = fb.add(v, 1);
    fb.store(word, 0, v2);
    fb.unlock(1i64);
    fb.compute(HAMMER_FILLER);
    if with_barrier {
        fb.barrier(BarrierId(0));
    }
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);

    fb.switch_to(done);
    fb.ret_void();
    let entry = fb.finish_into(&mut module);

    Workload {
        name,
        module,
        entries: vec![entry],
        threads: (0..threads)
            .map(|_| ThreadPlan {
                func: entry,
                args: vec![iters],
            })
            .collect(),
        mem_words: 1 << 10,
    }
}

/// `threads` threads × `iters` × {lock, load/add/store one word, unlock,
/// 8 ALU ops}: one acquisition per ~13 instructions.
pub fn lockhammer(threads: usize, iters: i64) -> Workload {
    hammer("lockhammer", threads, iters, false)
}

/// [`lockhammer`] with a barrier at the end of every iteration.
pub fn barrierhammer(threads: usize, iters: i64) -> Workload {
    hammer("barrierhammer", threads, iters, true)
}

/// A workload compiled for the VM: the original module (what `Baseline`
/// runs), the instrumented one, and its thread specs.
pub struct Program {
    /// The source workload (module before instrumentation).
    pub source: Workload,
    /// O-all, `Placement::Start` instrumentation of `source`.
    pub inst: Instrumented,
    /// One spec per simulated thread.
    pub specs: Vec<ThreadSpec>,
}

impl Program {
    /// Instrument `source` with every optimization, clocks at block start.
    pub fn compile(source: Workload, cost: &CostModel) -> Program {
        let inst = instrument(
            &source.module,
            cost,
            &OptConfig::all(),
            Placement::Start,
            &source.entries,
        );
        let specs = source
            .threads
            .iter()
            .map(|t| ThreadSpec {
                func: t.func,
                args: t.args.clone(),
            })
            .collect();
        Program {
            source,
            inst,
            specs,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.source.name
    }
}

/// Engine and arbitration policy of one VM configuration. Always set
/// explicitly, so `DETLOCK_BACKEND` / `DETLOCK_SCHEDULER` cannot reroute a
/// benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Engine {
    /// Instruction executor.
    pub backend: Backend,
    /// Deterministic scheduler.
    pub sched: Sched,
}

/// What two correct executions of one (program, mode, policy, jitter seed)
/// must agree on, whichever backend ran them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSig {
    /// Simulated cycles.
    pub cycles: u64,
    /// Hash of the global lock-acquisition order.
    pub lock_order_hash: u64,
    /// Hash of the final shared memory image.
    pub mem_hash: u64,
}

/// Word-wise multiply-xor hash of a memory image (an FNV-1a variant over
/// 64-bit lanes: a byte-wise pass over 512 KiB per op would show up as
/// benchmark self time).
pub fn hash_words(words: &[i64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        h = (h ^ w as u64).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

impl RunSig {
    /// The signature of a finished run.
    pub fn of(metrics: &RunMetrics, memory: &[i64]) -> RunSig {
        RunSig {
            cycles: metrics.cycles,
            lock_order_hash: metrics.lock_order_hash,
            mem_hash: hash_words(memory),
        }
    }
}

/// The product's default machine configuration with mode, engine and jitter
/// seed set — the same shape a serve shard builds for a job.
pub fn config(
    program: &Program,
    mode: ExecMode,
    engine: Engine,
    jitter_seed: u64,
) -> MachineConfig {
    MachineConfig {
        mode,
        mem_words: program.source.mem_words,
        jitter: Jitter::default().with_seed(jitter_seed),
        backend: engine.backend,
        scheduler: engine.sched,
        ..MachineConfig::default()
    }
}

/// Run `program` once in `mode`. `Baseline` executes the source module (the
/// uninstrumented binary), every other mode the instrumented one.
pub fn run(
    program: &Program,
    cost: &CostModel,
    mode: ExecMode,
    engine: Engine,
    jitter_seed: u64,
) -> (RunMetrics, RunSig) {
    let cfg = config(program, mode, engine, jitter_seed);
    let module = match mode {
        ExecMode::Baseline => &program.source.module,
        _ => &program.inst.module,
    };
    let machine = Machine::new(module, cost, &program.specs, cfg);
    let (metrics, memory, hit_limit) = machine.run_with_memory();
    assert!(!hit_limit, "{}: hit the cycle limit", program.name());
    let sig = RunSig::of(&metrics, &memory);
    (metrics, sig)
}

/// Exact simulated counts over a program set: the paper's Table I metric
/// and the counts behind it. Integer sums, so they repeat bit-for-bit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Σ cycles of the uninstrumented program, nondeterministic locks.
    pub baseline_cycles: u64,
    /// Σ cycles under `ExecMode::Det`, Kendo.
    pub det_cycles: u64,
    /// Σ cycles under `ExecMode::ClocksOnly` (0 unless requested).
    pub clocks_only_cycles: u64,
    /// Σ instructions of the Det runs.
    pub instructions: u64,
    /// Σ lock acquisitions of the Det runs.
    pub lock_acquires: u64,
    /// Σ barrier waits of the Det runs.
    pub barrier_waits: u64,
    /// Σ per-thread cycles spent waiting (Det).
    pub wait_cycles: u64,
    /// Σ per-thread cycles spent executing (Det).
    pub busy_cycles: u64,
    /// Σ tick instructions executed (Det).
    pub ticks_executed: u64,
    /// Σ clock bumps taken on contended acquisitions (Det).
    pub lock_clock_bumps: u64,
}

/// The engine simulated counts are taken on. Which backend is immaterial —
/// both are bit-identical — so the faster one.
pub const SIM_ENGINE: Engine = Engine {
    backend: Backend::Threaded,
    sched: Sched::Kendo,
};

impl SimCounts {
    /// Add `weight` runs of `program` at `jitter_seed`.
    pub fn add(
        &mut self,
        program: &Program,
        cost: &CostModel,
        jitter_seed: u64,
        weight: u64,
        with_clocks_only: bool,
    ) {
        let (base, _) = run(program, cost, ExecMode::Baseline, SIM_ENGINE, jitter_seed);
        let (det, _) = run(program, cost, ExecMode::Det, SIM_ENGINE, jitter_seed);
        self.baseline_cycles += weight * base.cycles;
        self.det_cycles += weight * det.cycles;
        if with_clocks_only {
            let (clk, _) = run(program, cost, ExecMode::ClocksOnly, SIM_ENGINE, jitter_seed);
            self.clocks_only_cycles += weight * clk.cycles;
        }
        self.instructions += weight * det.instructions();
        self.lock_acquires += weight * det.lock_acquires();
        self.wait_cycles += weight * det.wait_cycles();
        self.ticks_executed += weight * det.ticks_executed();
        for t in &det.per_thread {
            self.barrier_waits += weight * t.barrier_waits;
            self.busy_cycles += weight * t.busy_cycles;
            self.lock_clock_bumps += weight * t.lock_clock_bumps;
        }
    }

    /// Paper Table I: 100·(Σ Det − Σ Baseline) / Σ Baseline.
    pub fn det_overhead_pct(&self) -> f64 {
        pct_over(self.det_cycles, self.baseline_cycles)
    }

    /// Table I upper half: the cost of executing ticks alone.
    pub fn clocks_only_overhead_pct(&self) -> f64 {
        pct_over(self.clocks_only_cycles, self.baseline_cycles)
    }
}

fn pct_over(cycles: u64, baseline: u64) -> f64 {
    100.0 * (cycles as f64 - baseline as f64) / baseline as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::verify::verify_module;

    const KENDO_INTERP: Engine = Engine {
        backend: Backend::Interp,
        sched: Sched::Kendo,
    };

    #[test]
    fn hammers_verify_and_count_what_they_say() {
        let cost = CostModel::default();
        for (w, barriers) in [(lockhammer(4, 50), 0), (barrierhammer(4, 50), 200)] {
            verify_module(&w.module).unwrap();
            let p = Program::compile(w, &cost);
            verify_module(&p.inst.module).unwrap();
            let (m, _) = run(&p, &cost, ExecMode::Det, KENDO_INTERP, 1);
            assert_eq!(m.lock_acquires(), 200);
            let waits: u64 = m.per_thread.iter().map(|t| t.barrier_waits).sum();
            assert_eq!(waits, barriers);
        }
    }

    #[test]
    fn hammers_are_race_free_and_deterministic() {
        let cost = CostModel::default();
        for w in [lockhammer(4, 40), barrierhammer(4, 40)] {
            let threads: Vec<_> = w.threads.iter().map(|t| (t.func, t.args.clone())).collect();
            let report = detlock_analyze::races::analyze_races(&w.module, &threads);
            assert!(report.ok(true), "{}: {report}", w.name);
            let p = Program::compile(w, &cost);
            let (_, a) = run(&p, &cost, ExecMode::Det, KENDO_INTERP, 1);
            let (_, b) = run(&p, &cost, ExecMode::Det, KENDO_INTERP, 2);
            assert_eq!(a.lock_order_hash, b.lock_order_hash);
            // Every increment landed: the shared word holds threads × iters.
            let threaded = Engine {
                backend: Backend::Threaded,
                ..KENDO_INTERP
            };
            assert_eq!(run(&p, &cost, ExecMode::Det, threaded, 1).1, a);
        }
    }

    #[test]
    fn hash_words_sees_every_word() {
        let mut mem = vec![0i64; 64];
        let h0 = hash_words(&mem);
        mem[63] = 1;
        let h1 = hash_words(&mem);
        mem[63] = 0;
        mem[0] = 1;
        assert_ne!(h0, h1);
        assert_ne!(h1, hash_words(&mem));
    }
}
