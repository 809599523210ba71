//! `vm_compute` and `vm_sync`: one op is one `Machine::new(..).run()`.
//!
//! The two share everything but their program set, because what separates
//! them is *where the VM spends its time*, and the schedulers differ only in
//! the arbiter:
//!
//! * `vm_compute` — ocean / water-nsq / volrend: at most a few dozen locks
//!   per million instructions, so fused straight-line dispatch in the
//!   backend is the cost and the arbiter is idle. An exec-loop gain shows
//!   here.
//! * `vm_sync` — `lockhammer`, `barrierhammer` (built in `programs.rs`) and
//!   radiosity (the paper's highest lock rate): the arbiter does most of the
//!   work, so an exec-loop gain should *not* move it and an
//!   arbiter/scheduler gain should. The two hammers are sized to carry the
//!   workload's time, not radiosity.
//!
//! Primary phase = threaded backend + Kendo; alt = interpreter + dc-batch
//! (same `DetCore`, other engine and policy).
//!
//! Correctness: set-up runs every (program, policy, jitter seed) on the
//! *other* backend; a timed op must reproduce that run's `(cycles,
//! lock_order_hash, final-memory hash)`. Set-up also asserts the paper's
//! claim itself — the lock order is the same under both jitter seeds.

use crate::harness::{BlockOut, Phase, Workload};
use crate::programs::{self, Engine, Program, RunSig, SimCounts};
use crate::trace::Tracer;
use crate::workloads::compile::SIM_JITTER_SEED;
use crate::workloads::{block_seed, shuffled_kinds};
use detlock_passes::cost::CostModel;
use detlock_vm::machine::{ExecMode, Machine};
use detlock_vm::{Backend, Sched};
use std::marker::PhantomData;

/// Simulated threads of every VM-workload program.
pub const VM_THREADS: usize = 4;
/// Jitter seeds each program runs under (derived from `--seed`).
const JITTER_SEEDS: usize = 2;

/// Engine of the primary phase.
pub const PRIMARY: Engine = Engine {
    backend: Backend::Threaded,
    sched: Sched::Kendo,
};
/// Engine of the alt phase.
pub const ALT: Engine = Engine {
    backend: Backend::Interp,
    sched: Sched::DcBatch,
};

/// The backend that did *not* run the op: its result is the reference.
fn other_backend(engine: Engine) -> Engine {
    Engine {
        backend: match engine.backend {
            Backend::Interp => Backend::Threaded,
            Backend::Threaded => Backend::Interp,
        },
        ..engine
    }
}

fn engine_of(phase: Phase) -> Engine {
    match phase {
        Phase::Primary => PRIMARY,
        Phase::Alt => ALT,
    }
}

/// A program set and its committed block sizes.
pub trait ProgramSet {
    /// Workload name.
    const NAME: &'static str;
    /// Ops per block of (primary, alt); multiples of programs × jitter seeds.
    const OPS_PER_BLOCK: (usize, usize);
    /// Build the set's source workloads.
    fn sources() -> Vec<detlock_workloads::Workload>;
}

/// Low lock rate: the exec loop is the cost.
pub struct ComputeSet;

impl ProgramSet for ComputeSet {
    const NAME: &'static str = "vm_compute";
    const OPS_PER_BLOCK: (usize, usize) = (54, 24);
    fn sources() -> Vec<detlock_workloads::Workload> {
        ["ocean", "water-nsq", "volrend"]
            .iter()
            .map(|n| detlock_workloads::by_name(n, VM_THREADS, 0.1).expect("known workload"))
            .collect()
    }
}

/// High synchronization rate: the arbiter is the cost.
pub struct SyncSet;

/// Iterations per thread of `lockhammer`.
pub const LOCKHAMMER_ITERS: i64 = 4000;
/// Iterations per thread of `barrierhammer`: sized to run ~0.7× as long as
/// `lockhammer`, so the three programs make three latency clusters and p50
/// and p90 each sit inside one instead of on the seam between two.
pub const BARRIERHAMMER_ITERS: i64 = 1800;

impl ProgramSet for SyncSet {
    const NAME: &'static str = "vm_sync";
    const OPS_PER_BLOCK: (usize, usize) = (36, 24);
    fn sources() -> Vec<detlock_workloads::Workload> {
        vec![
            programs::lockhammer(VM_THREADS, LOCKHAMMER_ITERS),
            programs::barrierhammer(VM_THREADS, BARRIERHAMMER_ITERS),
            detlock_workloads::by_name("radiosity", VM_THREADS, 0.05).expect("known workload"),
        ]
    }
}

/// Compile a set's programs (shared with the layer probes).
pub fn compile_set<S: ProgramSet>(cost: &CostModel) -> Vec<Program> {
    S::sources()
        .into_iter()
        .map(|w| Program::compile(w, cost))
        .collect()
}

/// A VM workload over program set `S`.
pub struct Vm<S: ProgramSet> {
    cost: CostModel,
    programs: Vec<Program>,
    jitter: [u64; JITTER_SEEDS],
    /// `reference[phase][program][jitter]`, from the other backend.
    reference: [Vec<[RunSig; JITTER_SEEDS]>; 2],
    seed: u64,
    _set: PhantomData<S>,
}

/// `vm_compute`.
pub type VmCompute = Vm<ComputeSet>;
/// `vm_sync`.
pub type VmSync = Vm<SyncSet>;

impl<S: ProgramSet> Workload for Vm<S> {
    const NAME: &'static str = S::NAME;

    fn set_up(seed: u64) -> Vm<S> {
        let cost = CostModel::default();
        let programs = compile_set::<S>(&cost);
        let jitter = [0, 1].map(|i| seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i));
        let reference = [Phase::Primary, Phase::Alt].map(|phase| {
            let engine = other_backend(engine_of(phase));
            programs
                .iter()
                .map(|p| {
                    let sigs = jitter.map(|j| programs::run(p, &cost, ExecMode::Det, engine, j).1);
                    assert_eq!(
                        sigs[0].lock_order_hash,
                        sigs[1].lock_order_hash,
                        "{} under {}: lock order changed with the jitter seed",
                        p.name(),
                        engine.sched
                    );
                    sigs
                })
                .collect()
        });
        Vm {
            cost,
            programs,
            jitter,
            reference,
            seed,
            _set: PhantomData,
        }
    }

    fn ops_per_block(&self, phase: Phase) -> usize {
        match phase {
            Phase::Primary => S::OPS_PER_BLOCK.0,
            Phase::Alt => S::OPS_PER_BLOCK.1,
        }
    }

    fn run_block(&mut self, phase: Phase, block: usize, tracer: &mut Tracer, out: &mut BlockOut) {
        let kinds = self.programs.len() * JITTER_SEEDS;
        let order = shuffled_kinds(
            self.ops_per_block(phase),
            kinds,
            block_seed(self.seed, phase, block),
        );
        let engine = engine_of(phase);
        let cost = &self.cost;
        for (i, kind) in order.into_iter().enumerate() {
            let (p, j) = (kind / JITTER_SEEDS, kind % JITTER_SEEDS);
            let program = &self.programs[p];
            let want = self.reference[phase as usize][p][j];
            let cfg = programs::config(program, ExecMode::Det, engine, self.jitter[j]);
            out.op(tracer, i as u64, |tr| {
                let machine = tr.span("vm.new", |_| {
                    Machine::new(&program.inst.module, cost, &program.specs, cfg)
                });
                let (metrics, memory, hit_limit) =
                    tr.span("vm.exec", |_| machine.run_with_memory());
                !hit_limit && RunSig::of(&metrics, &memory) == want
            });
        }
    }

    fn sim_counts(&self, with_clocks_only: bool) -> SimCounts {
        let mut sim = SimCounts::default();
        for p in &self.programs {
            sim.add(p, &self.cost, SIM_JITTER_SEED, 1, with_clocks_only);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// A set small enough for a debug-build unit test.
    struct TinySet;

    impl ProgramSet for TinySet {
        const NAME: &'static str = "tiny";
        const OPS_PER_BLOCK: (usize, usize) = (8, 4);
        fn sources() -> Vec<detlock_workloads::Workload> {
            vec![programs::lockhammer(4, 30), programs::barrierhammer(4, 20)]
        }
    }

    #[test]
    fn ops_match_the_other_backend_until_a_reference_is_tampered_with() {
        let mut w = Vm::<TinySet>::set_up(3);
        let mut tracer = Tracer::new(Instant::now(), false);
        for phase in [Phase::Primary, Phase::Alt] {
            let mut out = BlockOut::new(Instant::now());
            w.run_block(phase, 1, &mut tracer, &mut out);
            assert_eq!(out.ops.len(), w.ops_per_block(phase));
            assert_eq!(out.failed, 0, "{phase:?}");
        }
        // One wrong reference (program 0, jitter seed 0, primary phase):
        // exactly the ops that draw it fail — 8 ops over 4 kinds, so 2.
        w.reference[Phase::Primary as usize][0][0].cycles += 1;
        let mut out = BlockOut::new(Instant::now());
        w.run_block(Phase::Primary, 1, &mut tracer, &mut out);
        assert_eq!(out.failed, 2);
        let mut out = BlockOut::new(Instant::now());
        w.run_block(Phase::Alt, 1, &mut tracer, &mut out);
        assert_eq!(out.failed, 0);
    }

    #[test]
    fn block_sizes_cover_every_program_and_jitter_seed_equally() {
        for (p, a) in [ComputeSet::OPS_PER_BLOCK, SyncSet::OPS_PER_BLOCK] {
            assert_eq!(p % (3 * JITTER_SEEDS), 0);
            assert_eq!(a % (3 * JITTER_SEEDS), 0);
        }
    }

    #[test]
    fn jitter_seeds_follow_the_workload_seed() {
        let a = Vm::<TinySet>::set_up(1).jitter;
        assert_eq!(a, Vm::<TinySet>::set_up(1).jitter);
        assert_ne!(a, Vm::<TinySet>::set_up(2).jitter);
        assert_ne!(a[0], a[1]);
    }
}
