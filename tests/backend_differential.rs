//! Differential oracle for the threaded-code execution backend.
//!
//! `detlock_vm` has two execution engines under one determinism layer: the
//! tree-walking interpreter (the semantic oracle) and the threaded-code
//! engine (`detlock_vm::lower`), which pre-decodes the module into a flat
//! program once and dispatches on that. The threaded engine's correctness
//! argument is *differential*: on every workload × Table-I opt config ×
//! placement × jitter seed, both backends must produce byte-identical
//! results — run metrics (cycles, per-thread counters, the lock-order
//! trace hash and the trace itself), final shared memory, and sanitizer
//! reports. Any divergence is a bug in the lowering, full stop: the
//! interpreter is the spec.

use detlock_bench::{instrumented, machine_config, thread_specs};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_vm::machine::{ExecMode, Machine, ThreadSpec};
use detlock_vm::metrics::RunMetrics;
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::{Backend, ChunkParams, MachineConfig, Sched};
use detlock_workloads::all_benchmarks;
use detlock_workloads::racy::{self, RacyParams};

/// Run `module` once per backend from the same config template and return
/// both `(metrics, memory, hit_limit, report)` tuples for comparison.
fn run_both(
    module: &detlock_ir::module::Module,
    cost: &CostModel,
    specs: &[ThreadSpec],
    cfg: &MachineConfig,
) -> [(RunMetrics, Vec<i64>, bool, Option<SanitizerReport>); 2] {
    [Backend::Interp, Backend::Threaded].map(|backend| {
        let mut cfg = cfg.clone();
        cfg.backend = backend;
        Machine::new(module, cost, specs, cfg).run_sanitized()
    })
}

/// Assert the two tuples from [`run_both`] are byte-identical, with a
/// context label naming the grid cell that diverged.
fn assert_identical(
    [(m_i, mem_i, hit_i, san_i), (m_t, mem_t, hit_t, san_t)]: [(RunMetrics, Vec<i64>, bool, Option<SanitizerReport>);
        2],
    ctx: &str,
) {
    assert_eq!(hit_i, hit_t, "cycle-limit flag diverged: {ctx}");
    assert_eq!(
        m_i.lock_order_hash, m_t.lock_order_hash,
        "trace hash diverged: {ctx}"
    );
    assert_eq!(m_i, m_t, "run metrics diverged: {ctx}");
    assert_eq!(mem_i, mem_t, "final memory diverged: {ctx}");
    assert_eq!(san_i, san_t, "sanitizer report diverged: {ctx}");
    if let (Some(a), Some(b)) = (&san_i, &san_t) {
        // The serialized forms the tools print must match too, not just the
        // structural comparison.
        assert_eq!(a.canonical(), b.canonical(), "canonical report: {ctx}");
        assert_eq!(a.minimal_log(), b.minimal_log(), "minimal log: {ctx}");
    }
}

/// The full differential grid from the acceptance criteria: every workload
/// × all six Table-I opt levels × both tick placements × two jitter seeds,
/// executed deterministically (`Det`) under both backends.
#[test]
fn det_runs_identical_across_the_full_opt_grid() {
    let cost = CostModel::default();
    let mut cells = 0u32;
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        for level in OptLevel::table1_rows() {
            for placement in [Placement::Start, Placement::End] {
                let inst = instrumented(&w, &cost, level, placement);
                for seed in [1u64, 31337] {
                    let cfg = machine_config(&w, ExecMode::Det, seed);
                    let ctx = format!("{} / {level:?} / {placement:?} / seed {seed}", w.name);
                    assert_identical(run_both(&inst.module, &cost, &specs, &cfg), &ctx);
                    cells += 1;
                }
            }
        }
    }
    assert!(cells >= 120, "grid shrank to {cells} cells");
}

/// Every arbitration policy must be backend-invariant too: for each
/// scheduler, both engines must produce byte-identical metrics, memory,
/// and sanitizer reports. Schedulers legitimately differ from *each
/// other* — that cross-policy divergence is pinned by the scheduler
/// matrix suite — but within one policy the backend must not matter.
/// `None` and `All` are the two extremes of tick placement: every block
/// ticks, or the fewest blocks do.
#[test]
fn det_runs_identical_across_the_scheduler_grid() {
    let cost = CostModel::default();
    let scheds = [
        Sched::Kendo,
        Sched::Chunk(ChunkParams::default()),
        Sched::DcBatch,
    ];
    let mut cells = 0u32;
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        for level in [OptLevel::None, OptLevel::All] {
            let inst = instrumented(&w, &cost, level, Placement::Start);
            for sched in scheds {
                for seed in [1u64, 31337] {
                    let mut cfg = machine_config(&w, ExecMode::Det, seed);
                    cfg.scheduler = sched;
                    cfg.sanitize = true;
                    let ctx = format!("{} / {level:?} / {sched} / seed {seed}", w.name);
                    assert_identical(run_both(&inst.module, &cost, &specs, &cfg), &ctx);
                    cells += 1;
                }
            }
        }
    }
    assert!(cells >= 60, "scheduler grid shrank to {cells} cells");
}

/// The mode the differential covers after `mode`. The match is exhaustive,
/// so a new `ExecMode` does not compile until it is chained in here.
fn mode_after(mode: ExecMode) -> Option<ExecMode> {
    match mode {
        ExecMode::Baseline => Some(ExecMode::ClocksOnly),
        ExecMode::ClocksOnly => Some(ExecMode::Det),
        ExecMode::Det => Some(ExecMode::Kendo),
        ExecMode::Kendo => None,
    }
}

/// Every execution mode the simulator supports — including the
/// nondeterministic ones, whose schedules are still a deterministic
/// function of the jitter seed — must agree across backends.
#[test]
fn all_exec_modes_identical_across_backends() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        for mode in std::iter::successors(Some(ExecMode::Baseline), |&m| mode_after(m)) {
            // Instrumented modes run the instrumented module; the rest run
            // the source module, mirroring how the bench harness does it.
            let module = match mode {
                ExecMode::ClocksOnly | ExecMode::Det => &inst.module,
                _ => &w.module,
            };
            for seed in [1u64, 7] {
                let cfg = machine_config(&w, mode, seed);
                let ctx = format!("{} / {mode:?} / seed {seed}", w.name);
                assert_identical(run_both(module, &cost, &specs, &cfg), &ctx);
            }
        }
    }
}

/// Sanitized runs: the happens-before sanitizer observes execution through
/// `(function, block, instruction)` site coordinates, so identical reports
/// prove the threaded engine preserves source coordinates exactly — the
/// shape-preservation property the lowering is built around.
#[test]
fn sanitizer_reports_identical_across_backends() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        for seed in [1u64, 31337] {
            let mut cfg = machine_config(&w, ExecMode::Det, seed);
            cfg.sanitize = true;
            let ctx = format!("{} / sanitize / seed {seed}", w.name);
            let results = run_both(&w.module, &cost, &specs, &cfg);
            assert!(
                results[0].3.is_some(),
                "sanitize flag dropped the report: {ctx}"
            );
            assert_identical(results, &ctx);
        }
    }
}

/// The racy-counter positive control: both backends must report the *same*
/// race at the same site — the happens-before witness `detlint --confirm`
/// prints is read out of this report.
#[test]
fn racy_counter_witness_identical_across_backends() {
    let cost = CostModel::default();
    let w = racy::build(4, &RacyParams { iters: 60 });
    let specs = thread_specs(&w);
    let mut cfg = machine_config(&w, ExecMode::Det, 1);
    cfg.sanitize = true;
    let results = run_both(&w.module, &cost, &specs, &cfg);
    assert!(
        results[0].3.as_ref().is_some_and(|r| !r.races.is_empty()),
        "racy counter lost its race under the interpreter"
    );
    assert_identical(results, "racy counter");
}

/// Cycle-limit cuts: stopping a run mid-flight must observe identical
/// machine states under both backends. This pins the threaded engine's
/// fused-dispatch gate on `max_cycles` — a fused run whose countdown could
/// straddle the limit must fall back to single-op execution, or the
/// instruction counts at the cut would differ.
#[test]
fn cycle_limit_cuts_identical_across_backends() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        for limit in [17u64, 1031, 20011] {
            let mut cfg = machine_config(&w, ExecMode::Det, 1);
            cfg.max_cycles = limit;
            let ctx = format!("{} / limit {limit}", w.name);
            let results = run_both(&inst.module, &cost, &specs, &cfg);
            assert!(results[0].2, "limit {limit} did not cut {}", w.name);
            assert_identical(results, &ctx);
        }
    }
}

/// Checkpoint streams: snapshots taken every few cycles must be
/// deep-digest-identical between backends at *every* boundary, not just at
/// the end. This pins the fused-dispatch gate on checkpoint intervals —
/// a fused run is only legal when its divergence window cannot contain a
/// snapshot boundary.
#[test]
fn checkpoint_streams_identical_across_backends() {
    let cost = CostModel::default();
    for w in all_benchmarks(2, 0.02) {
        let specs = thread_specs(&w);
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        for every in [64u64, 1031] {
            let streams =
                [Backend::Interp, Backend::Threaded].map(|backend| {
                    let mut cfg = machine_config(&w, ExecMode::Det, 1);
                    cfg.backend = backend;
                    let mut digests = Vec::new();
                    let outcome = Machine::new(&inst.module, &cost, &specs, cfg)
                        .run_with_checkpoints(every, &mut |ckpt| {
                            digests.push(ckpt.digest());
                            detlock_vm::machine::CkptControl::Continue
                        });
                    (digests, outcome)
                });
            let ctx = format!("{} / every {every}", w.name);
            assert!(!streams[0].0.is_empty(), "no checkpoints taken: {ctx}");
            assert_eq!(
                streams[0].0, streams[1].0,
                "checkpoint stream diverged: {ctx}"
            );
            assert_eq!(streams[0].1, streams[1].1, "outcome diverged: {ctx}");
        }
    }
}

/// The deadlock-cycle negative control: no data race, but a lock-order
/// cycle — the reports must agree on both.
#[test]
fn deadlock_control_identical_across_backends() {
    let cost = CostModel::default();
    let w = racy::build_deadlock(4);
    let specs = thread_specs(&w);
    let mut cfg = machine_config(&w, ExecMode::Det, 7);
    cfg.sanitize = true;
    let results = run_both(&w.module, &cost, &specs, &cfg);
    assert!(
        results[0]
            .3
            .as_ref()
            .is_some_and(|r| r.races.is_empty() && !r.lock_cycles.is_empty()),
        "deadlock control changed shape: expected no races, one lock cycle"
    );
    assert_identical(results, "deadlock control");
}

/// `threads` threads × `iters` × {lock 1, load/add/store one word, unlock,
/// 8 ALU ops}: the benchmark's lock hammer.
fn lock_hammer(threads: usize, iters: i64) -> detlock_workloads::Workload {
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::{BinOp, CmpOp};
    let mut module = detlock_ir::Module::new();
    let mut fb = FunctionBuilder::new("lockhammer", 1);
    fb.block("entry");
    let head = fb.create_block("loop.cond");
    let body = fb.create_block("loop.body");
    let done = fb.create_block("done");
    let iters_reg = fb.param(0);
    let i = fb.iconst(0);
    let word = fb.iconst(8);
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
    fb.compute(8);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let entry = fb.finish_into(&mut module);
    detlock_workloads::Workload {
        name: "lockhammer",
        module,
        entries: vec![entry],
        threads: (0..threads)
            .map(|_| detlock_workloads::ThreadPlan {
                func: entry,
                args: vec![iters],
            })
            .collect(),
        mem_words: 1 << 10,
    }
}

/// The threaded engine's dispatches, pinned: the run-length histogram
/// (`RoundProfile::fused_runs`) of radiosity (4 threads, scale 0.05) and of
/// the lock hammer, `Det` + Kendo, every optimization, one seed. This
/// oracle cannot see fusion lost — every simulated number stays right and
/// only the wall time moves — so the counts are held exactly. A dispatch
/// runs up to the next load, store, executing tick, lock, unlock, barrier,
/// builtin or final `ret`, across branches, calls and returns: radiosity's
/// small diamonds and calls take half the dispatches that block-local runs
/// did (226 261 before), while the hammer's ops are mostly observable.
#[test]
fn threaded_dispatch_counts_are_pinned() {
    let cost = CostModel::default();
    let radiosity = detlock_workloads::by_name("radiosity", 4, 0.05).expect("known workload");
    for (w, runs) in [
        (radiosity, [942, 52_788, 38_356, 21_401]),
        (lock_hammer(4, 100), [2_804, 804, 404, 400]),
    ] {
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        let cfg = machine_config(&w, ExecMode::Det, 1);
        let (_, hit, profile) =
            Machine::new(&inst.module, &cost, &thread_specs(&w), cfg).run_profiled();
        assert!(!hit, "{}", w.name);
        assert_eq!(
            profile.steps[0],
            runs.iter().sum::<u64>(),
            "{}: one dispatch per issue",
            w.name
        );
        assert_eq!(
            (profile.fused_runs, profile.gate_cuts),
            (runs, 0),
            "{}",
            w.name
        );
    }
}
