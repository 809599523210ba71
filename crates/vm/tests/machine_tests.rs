//! Integration tests for the cycle-level simulator: interpreter semantics,
//! mode behaviour, deterministic arbitration, and the Kendo simulation.

use detlock_ir::builder::FunctionBuilder;
use detlock_ir::inst::{BinOp, CmpOp, Inst, Operand};
use detlock_ir::types::{BarrierId, FuncId};
use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_vm::determinism::check_determinism;
use detlock_vm::machine::{
    run, Checkpoint, CkptControl, ExecMode, Jitter, Machine, MachineConfig, RunOutcome, ThreadSpec,
};
use detlock_vm::{Backend, ChunkParams, Sched};

fn cfg(mode: ExecMode) -> MachineConfig {
    MachineConfig {
        mode,
        max_cycles: 50_000_000,
        ..MachineConfig::default()
    }
}

/// Kendo-mode config with the chunk scheduler (these tests assert
/// chunked-clock behaviour).
fn kendo_cfg(params: ChunkParams) -> MachineConfig {
    let mut c = cfg(ExecMode::Kendo);
    c.scheduler = Sched::Chunk(params);
    c
}

fn no_jitter(mut c: MachineConfig) -> MachineConfig {
    c.jitter = Jitter {
        seed: 0,
        prob_num: 0,
        prob_den: 0,
        max_extra: 0,
    };
    c
}

/// A program that computes a value into shared memory: mem[0] = sum of
/// 1..=n via a loop, then returns.
fn sum_program() -> (Module, FuncId) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("sum", 1);
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let done = fb.create_block("done");
    let n = fb.param(0);
    let i = fb.iconst(0);
    let acc = fb.iconst(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, n);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.bin_to(BinOp::Add, acc, acc, i);
    fb.br(head);
    fb.switch_to(done);
    let addr = fb.iconst(0);
    fb.store(addr, 0, acc);
    fb.ret(acc);
    let f = fb.finish_into(&mut m);
    (m, f)
}

#[test]
fn interpreter_computes_correct_sum() {
    let (m, f) = sum_program();
    let cost = CostModel::default();
    let (metrics, hit) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![10],
        }],
        no_jitter(cfg(ExecMode::Baseline)),
    );
    assert!(!hit);
    // 1+..+10 = 55 stored; verify via instruction count sanity + stores.
    assert_eq!(metrics.per_thread[0].retired_stores, 1);
    assert!(metrics.per_thread[0].instructions > 30);
    assert!(metrics.cycles > 0);
}

/// Threads increment a shared counter under a lock, `iters` times each.
fn counter_program(iters: i64, compute_between: usize) -> (Module, FuncId) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("worker", 2); // (tid, iters)
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let done = fb.create_block("done");
    let iters_r = fb.param(1);
    let i = fb.iconst(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters_r);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    fb.compute(compute_between);
    fb.lock(0i64);
    let addr = fb.iconst(100);
    let v = fb.load(addr, 0);
    let v2 = fb.add(v, 1);
    fb.store(addr, 0, v2);
    fb.unlock(0i64);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let _ = iters;
    (m, f)
}

fn counter_threads(f: FuncId, n: usize, iters: i64) -> Vec<ThreadSpec> {
    (0..n)
        .map(|t| ThreadSpec {
            func: f,
            args: vec![t as i64, iters],
        })
        .collect()
}

#[test]
fn locks_are_mutually_exclusive_and_all_acquires_counted() {
    let (m, f) = counter_program(50, 5);
    let cost = CostModel::default();
    let (metrics, hit) = run(
        &m,
        &cost,
        &counter_threads(f, 4, 50),
        cfg(ExecMode::Baseline),
    );
    assert!(!hit);
    assert_eq!(metrics.lock_acquires(), 200);
    assert_eq!(metrics.lock_order.len(), 200);
}

#[test]
fn baseline_lock_order_varies_with_seed() {
    let (m, f) = counter_program(60, 3);
    let cost = CostModel::default();
    let report = check_determinism(
        &m,
        &cost,
        &counter_threads(f, 4, 60),
        &cfg(ExecMode::Baseline),
        &[1, 2, 3, 4, 5],
    );
    assert!(!report.any_hit_limit);
    assert!(
        !report.deterministic,
        "baseline should be timing-dependent: {:?}",
        report.hashes
    );
    // A violated probe pinpoints the first diverging acquisition so the
    // operator can see *where* the orders split, not just that they did.
    let d = report.divergence.expect("divergence located");
    assert_eq!(d.seed_a, 1);
    assert!(d.a.is_some() || d.b.is_some());
    assert_ne!(d.a, d.b);
}

#[test]
fn clocks_only_mode_is_still_nondeterministic() {
    // Without instrumentation in the module, ClocksOnly == Baseline; the
    // point is that the lock discipline (FCFS) remains timing-dependent.
    let (m, f) = counter_program(60, 3);
    let cost = CostModel::default();
    let report = check_determinism(
        &m,
        &cost,
        &counter_threads(f, 4, 60),
        &cfg(ExecMode::ClocksOnly),
        &[7, 8, 9, 10],
    );
    assert!(!report.deterministic);
}

/// Instrument the counter program so Det mode has clocks to arbitrate on.
fn instrumented_counter(compute: usize) -> (Module, FuncId) {
    let (m, f) = counter_program(0, compute);
    let cost = CostModel::default();
    let out = detlock_passes::pipeline::instrument(
        &m,
        &cost,
        &detlock_passes::pipeline::OptConfig::none(),
        detlock_passes::plan::Placement::Start,
        &[f],
    );
    (out.module, f)
}

#[test]
fn det_mode_is_deterministic_across_seeds() {
    let (m, f) = instrumented_counter(8);
    let cost = CostModel::default();
    let report = check_determinism(
        &m,
        &cost,
        &counter_threads(f, 4, 40),
        &cfg(ExecMode::Det),
        &[1, 2, 3, 4, 5, 99, 12345],
    );
    assert!(!report.any_hit_limit, "deadlock or runaway");
    assert!(
        report.deterministic,
        "det mode must be seed-invariant: {:?}",
        report.hashes
    );
    assert_eq!(report.first.lock_acquires(), 160);
}

#[test]
fn det_mode_differs_from_unbalanced_compute_still_deterministic() {
    // Unequal per-thread work: thread 0 computes more between locks. The
    // order is no longer round-robin but must still be seed-invariant.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("worker", 2); // (extra, iters)
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let heavy = fb.create_block("heavy");
    let light = fb.create_block("light");
    let lock_bb = fb.create_block("lock");
    let done = fb.create_block("done");
    let extra = fb.param(0);
    let iters = fb.param(1);
    let i = fb.iconst(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    let is_heavy = fb.cmp(CmpOp::Gt, extra, 0);
    fb.cond_br(is_heavy, heavy, light);
    fb.switch_to(heavy);
    fb.compute(30);
    fb.br(lock_bb);
    fb.switch_to(light);
    fb.compute(4);
    fb.br(lock_bb);
    fb.switch_to(lock_bb);
    fb.lock(7i64);
    let a = fb.iconst(50);
    let v = fb.load(a, 0);
    let v2 = fb.add(v, 1);
    fb.store(a, 0, v2);
    fb.unlock(7i64);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let f = fb.finish_into(&mut m);

    let cost = CostModel::default();
    let out = detlock_passes::pipeline::instrument(
        &m,
        &cost,
        &detlock_passes::pipeline::OptConfig::none(),
        detlock_passes::plan::Placement::Start,
        &[f],
    );
    let threads: Vec<ThreadSpec> = (0..4)
        .map(|t| ThreadSpec {
            func: f,
            args: vec![(t == 0) as i64, 30],
        })
        .collect();
    let report = check_determinism(
        &out.module,
        &cost,
        &threads,
        &cfg(ExecMode::Det),
        &[3, 1416, 55],
    );
    assert!(!report.any_hit_limit);
    assert!(report.deterministic, "{:?}", report.hashes);
}

#[test]
fn kendo_mode_is_deterministic_across_seeds() {
    // Kendo runs the *uninstrumented* module (clocks from stores). The
    // counter program stores once per iteration inside the lock plus the
    // compute filler; give it store traffic via memset.
    let (m, f) = counter_program(0, 6);
    let cost = CostModel::default();
    let report = check_determinism(
        &m,
        &cost,
        &counter_threads(f, 4, 40),
        &kendo_cfg(ChunkParams {
            chunk_size: 8,
            interrupt_cost: 30,
        }),
        &[1, 2, 3, 42],
    );
    assert!(!report.any_hit_limit);
    assert!(report.deterministic, "{:?}", report.hashes);
}

#[test]
fn clocks_only_overhead_is_positive_and_modest() {
    let (m, f) = instrumented_counter(20);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 50);
    let (base, _) = run(&m, &cost, &threads, no_jitter(cfg(ExecMode::Baseline)));
    let (clk, _) = run(&m, &cost, &threads, no_jitter(cfg(ExecMode::ClocksOnly)));
    let overhead = clk.overhead_pct(&base);
    assert!(overhead > 0.0, "ticks must cost cycles: {overhead}");
    assert!(overhead < 150.0, "tick overhead out of range: {overhead}");
    assert!(clk.ticks_executed() > 0);
    assert_eq!(base.ticks_executed(), 0);
}

#[test]
fn det_overhead_at_least_clocks_overhead() {
    let (m, f) = instrumented_counter(20);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 50);
    let (base, _) = run(&m, &cost, &threads, no_jitter(cfg(ExecMode::Baseline)));
    let (clk, _) = run(&m, &cost, &threads, no_jitter(cfg(ExecMode::ClocksOnly)));
    let (det, _) = run(&m, &cost, &threads, no_jitter(cfg(ExecMode::Det)));
    assert!(det.cycles >= clk.cycles, "det adds waiting on top of ticks");
    assert!(det.wait_cycles() > base.wait_cycles());
}

#[test]
fn barrier_releases_all_threads_and_reconciles_clocks() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("bar", 1); // tid
    fb.block("entry");
    let after = fb.create_block("after");
    // Unequal pre-barrier work.
    let tid = fb.param(0);
    let amount = fb.mul(tid, 40);
    let i = fb.iconst(0);
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, amount);
    fb.cond_br(c, body, after);
    fb.switch_to(body);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(after);
    fb.barrier(BarrierId(0));
    fb.compute(3);
    fb.ret_void();
    let f = fb.finish_into(&mut m);

    let cost = CostModel::default();
    let out = detlock_passes::pipeline::instrument(
        &m,
        &cost,
        &detlock_passes::pipeline::OptConfig::none(),
        detlock_passes::plan::Placement::Start,
        &[f],
    );
    let threads: Vec<ThreadSpec> = (0..4)
        .map(|t| ThreadSpec {
            func: f,
            args: vec![t],
        })
        .collect();
    let (metrics, hit) = run(&out.module, &cost, &threads, no_jitter(cfg(ExecMode::Det)));
    assert!(!hit, "barrier must release everyone");
    for t in &metrics.per_thread {
        assert_eq!(t.barrier_waits, 1);
    }
    // After reconciliation all threads executed the same post-barrier code:
    // final clocks equal (same post-barrier ticks from the same base).
    let clocks: Vec<u64> = metrics.per_thread.iter().map(|t| t.final_clock).collect();
    assert!(
        clocks.windows(2).all(|w| w[0] == w[1]),
        "clocks diverged after barrier: {clocks:?}"
    );
}

#[test]
fn function_calls_and_returns_work() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("double", 1);
    fb.block("entry");
    let x = fb.param(0);
    let d = fb.mul(x, 2);
    fb.ret(d);
    let double = fb.finish_into(&mut m);

    let mut fb = FunctionBuilder::new("main", 0);
    fb.block("entry");
    let a = fb.call(double, vec![Operand::Imm(21)]);
    let addr = fb.iconst(5);
    fb.store(addr, 0, a);
    fb.ret(a);
    let f = fb.finish_into(&mut m);

    let cost = CostModel::default();
    let (metrics, hit) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![],
        }],
        no_jitter(cfg(ExecMode::Baseline)),
    );
    assert!(!hit);
    // double executed: its mul counted.
    assert!(metrics.per_thread[0].instructions >= 6);
}

#[test]
fn recursion_executes() {
    // fib via naive recursion, depth-limited.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("fib", 1);
    fb.block("entry");
    let rec = fb.create_block("rec");
    let basecase = fb.create_block("base");
    let n = fb.param(0);
    let c = fb.cmp(CmpOp::Lt, n, 2);
    fb.cond_br(c, basecase, rec);
    fb.switch_to(basecase);
    fb.ret(n);
    fb.switch_to(rec);
    let n1 = fb.sub(n, 1);
    let n2 = fb.sub(n, 2);
    let a = fb.call(FuncId(0), vec![Operand::Reg(n1)]);
    let b = fb.call(FuncId(0), vec![Operand::Reg(n2)]);
    let s = fb.add(a, Operand::Reg(b));
    fb.ret(s);
    let f = fb.finish_into(&mut m);

    let mut fb = FunctionBuilder::new("main", 0);
    fb.block("entry");
    let r = fb.call(f, vec![Operand::Imm(12)]);
    let addr = fb.iconst(0);
    fb.store(addr, 0, r);
    fb.ret_void();
    let main = fb.finish_into(&mut m);

    let cost = CostModel::default();
    let (metrics, hit) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: main,
            args: vec![],
        }],
        no_jitter(cfg(ExecMode::Baseline)),
    );
    assert!(!hit);
    // fib(12) = 144 recursive calls dominate the instruction count.
    assert!(metrics.per_thread[0].instructions > 1000);
}

#[test]
fn tick_dyn_advances_clock_by_size() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("f", 1);
    fb.block("entry");
    let len = fb.param(0);
    fb.push(Inst::TickDyn {
        base: 3,
        per_unit: 2,
        size: Operand::Reg(len),
    });
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let (metrics, _) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![10],
        }],
        no_jitter(cfg(ExecMode::ClocksOnly)),
    );
    assert_eq!(metrics.per_thread[0].final_clock, 3 + 2 * 10);
}

#[test]
fn ticks_free_in_baseline_and_kendo() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("f", 0);
    fb.block("entry");
    for _ in 0..100 {
        fb.push(Inst::Tick { amount: 5 });
    }
    fb.compute(10);
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let t = [ThreadSpec {
        func: f,
        args: vec![],
    }];
    let (base, _) = run(&m, &cost, &t, no_jitter(cfg(ExecMode::Baseline)));
    let (clk, _) = run(&m, &cost, &t, no_jitter(cfg(ExecMode::ClocksOnly)));
    let (kendo, _) = run(&m, &cost, &t, no_jitter(kendo_cfg(ChunkParams::default())));
    assert!(
        clk.cycles > base.cycles + 150,
        "100 ticks cost ≥ 200 cycles"
    );
    // Kendo executes no ticks: same busy cycles as baseline (single thread,
    // exit is a det event but with one thread it is always the min).
    assert_eq!(kendo.per_thread[0].ticks_executed, 0);
    assert_eq!(base.per_thread[0].ticks_executed, 0);
    assert_eq!(clk.per_thread[0].ticks_executed, 100);
}

#[test]
fn kendo_chunked_clock_advances_on_stores() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("f", 0);
    fb.block("entry");
    let addr = fb.iconst(0);
    for k in 0..20 {
        fb.store(addr, k, 1i64);
    }
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let (metrics, _) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![],
        }],
        no_jitter(kendo_cfg(ChunkParams {
            chunk_size: 8,
            interrupt_cost: 10,
        })),
    );
    // 20 stores → 2 full chunks of 8 → clock 16 (chunk granularity).
    assert_eq!(metrics.per_thread[0].final_clock, 16);
    assert_eq!(metrics.per_thread[0].retired_stores, 20);
}

#[test]
fn memset_counts_stores_and_writes_memory() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("f", 0);
    fb.block("entry");
    fb.builtin_void(
        detlock_ir::Builtin::Memset,
        vec![Operand::Imm(10), Operand::Imm(7), Operand::Imm(16)],
        Some(2),
    );
    let a = fb.iconst(10);
    let v = fb.load(a, 3);
    let out = fb.iconst(200);
    fb.store(out, 0, v);
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let (metrics, _) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![],
        }],
        no_jitter(cfg(ExecMode::Baseline)),
    );
    assert_eq!(metrics.per_thread[0].retired_stores, 17);
}

#[test]
fn cycle_limit_reported() {
    // Infinite loop must hit the limit, not hang.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("spin", 0);
    let entry = fb.block("entry");
    fb.compute(2);
    fb.br(entry);
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let mut c = no_jitter(cfg(ExecMode::Baseline));
    c.max_cycles = 10_000;
    let (metrics, hit) = run(
        &m,
        &cost,
        &[ThreadSpec {
            func: f,
            args: vec![],
        }],
        c,
    );
    assert!(hit);
    assert_eq!(metrics.cycles, 10_000);
}

#[test]
fn start_placement_reduces_det_wait_vs_end_placement() {
    // The Figure 15 mechanism: a lock waiter is released once every other
    // thread's logical clock passes its own bar; clocks only move at ticks,
    // so a runner inside a big block is "stale" by the unexecuted part of
    // the block with End placement, but runs ahead of execution with Start
    // placement. The effect needs *heterogeneous* per-iteration work (as in
    // Radiosity's variable-size tasks) so that bars land mid-block.
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("worker", 2); // (tid, iters)
    fb.block("entry");
    let head = fb.create_block("head");
    let pick = fb.create_block("pick");
    let small = fb.create_block("small");
    let medium = fb.create_block("medium");
    let large = fb.create_block("large");
    let huge = fb.create_block("huge");
    let lock_bb = fb.create_block("lock_bb");
    let next = fb.create_block("next");
    let done = fb.create_block("done");
    let tid = fb.param(0);
    let iters = fb.param(1);
    let i = fb.iconst(0);
    let seed0 = fb.add(tid, 12345);
    let state = fb.mov(seed0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, pick, done);
    fb.switch_to(pick);
    // Pseudo-random size class per (thread, iteration).
    let state2 = fb.builtin(detlock_ir::Builtin::Rand, vec![Operand::Reg(state)], None);
    fb.mov_to(state, state2);
    let cls = fb.bin(BinOp::And, state2, 3);
    fb.switch(cls, vec![(0, small), (1, medium), (2, large)], huge);
    fb.switch_to(small);
    fb.compute(40);
    fb.br(lock_bb);
    fb.switch_to(medium);
    fb.compute(130);
    fb.br(lock_bb);
    fb.switch_to(large);
    fb.compute(260);
    fb.br(lock_bb);
    fb.switch_to(huge);
    fb.compute(400);
    fb.br(lock_bb);
    fb.switch_to(lock_bb);
    fb.lock(0i64);
    let a = fb.iconst(300);
    let v = fb.load(a, 0);
    let v2 = fb.add(v, 1);
    fb.store(a, 0, v2);
    fb.unlock(0i64);
    fb.br(next);
    fb.switch_to(next);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let cost = CostModel::default();
    let threads: Vec<ThreadSpec> = (0..4)
        .map(|t| ThreadSpec {
            func: f,
            args: vec![t, 100],
        })
        .collect();

    let mk = |placement| {
        detlock_passes::pipeline::instrument(
            &m,
            &cost,
            &detlock_passes::pipeline::OptConfig::none(),
            placement,
            &[f],
        )
    };
    let start = mk(detlock_passes::plan::Placement::Start);
    let end = mk(detlock_passes::plan::Placement::End);
    let (ms, _) = run(
        &start.module,
        &cost,
        &threads,
        no_jitter(cfg(ExecMode::Det)),
    );
    let (me, _) = run(&end.module, &cost, &threads, no_jitter(cfg(ExecMode::Det)));
    assert!(
        ms.wait_cycles() < me.wait_cycles(),
        "ahead-of-time (start) placement should cut deterministic wait: \
         start={} end={} (cycles {} vs {})",
        ms.wait_cycles(),
        me.wait_cycles(),
        ms.cycles,
        me.cycles
    );
}

/// Crash-at-every-checkpoint chain: abort at the first checkpoint after
/// each (re)start, resume from it, repeat until the run finishes. The
/// final metrics and memory must be byte-identical to the uninterrupted
/// run — the determinism argument behind serve-side crash recovery.
#[test]
fn repeated_crash_resume_chain_matches_uninterrupted_run() {
    let (m, f) = instrumented_counter(8);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 40);
    let config = cfg(ExecMode::Det);

    let (ref_metrics, ref_mem, ref_hit) =
        Machine::new(&m, &cost, &threads, config.clone()).run_with_memory();
    assert!(!ref_hit);

    for every in [700u64, 1777, 4096] {
        let mut machine = Machine::new(&m, &cost, &threads, config.clone());
        let mut crashes = 0u32;
        loop {
            let mut latest: Option<Checkpoint> = None;
            match machine.run_with_checkpoints(every, &mut |ck| {
                latest = Some(ck.clone());
                CkptControl::Abort
            }) {
                RunOutcome::Finished {
                    metrics,
                    memory,
                    hit_limit,
                    ..
                } => {
                    assert!(!hit_limit);
                    assert!(crashes > 0, "interval {every} never checkpointed");
                    assert_eq!(
                        metrics, ref_metrics,
                        "interval {every}: resumed metrics diverged after {crashes} crashes"
                    );
                    assert_eq!(memory, ref_mem, "interval {every}: memory diverged");
                    break;
                }
                RunOutcome::Aborted { at_cycle } => {
                    crashes += 1;
                    let ck = latest.expect("abort implies a checkpoint was sunk");
                    assert_eq!(ck.cycle(), at_cycle);
                    machine = Machine::resume(&m, &cost, config.clone(), &ck)
                        .expect("fingerprint matches");
                }
            }
        }
    }
}

/// Two identical runs agree on checkpoint digests cycle-for-cycle (deep
/// state equality, not just trace-hash equality); a different jitter seed
/// diverges the digests (the RNG position is part of machine state).
#[test]
fn checkpoint_digests_fingerprint_machine_state() {
    let (m, f) = instrumented_counter(8);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 20);
    let collect = |config: MachineConfig| {
        let mut digests = Vec::new();
        let outcome =
            Machine::new(&m, &cost, &threads, config).run_with_checkpoints(1000, &mut |ck| {
                digests.push((ck.cycle(), ck.digest()));
                CkptControl::Continue
            });
        assert!(matches!(outcome, RunOutcome::Finished { .. }));
        digests
    };
    let a = collect(cfg(ExecMode::Det));
    let b = collect(cfg(ExecMode::Det));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same config must give identical state digests");
    let c = collect(MachineConfig {
        jitter: Jitter::default().with_seed(99),
        ..cfg(ExecMode::Det)
    });
    assert_ne!(a, c, "jitter RNG position is machine state");
}

/// `worker(tid, iters)`: per iteration, `mid(i)` — which calls a
/// three-op `leaf` twice — then the result added to a shared word under
/// lock 0. Instrumented with every optimization, so Function Clocking
/// charges the callees at their call sites and no tick runs inside them: a
/// threaded dispatch runs from the call through both leaves and back.
fn call_heavy() -> (Module, FuncId) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("leaf", 1);
    fb.block("entry");
    let a = fb.param(0);
    let b = fb.mul(a, 3);
    let c = fb.add(b, 1);
    fb.ret(c);
    let leaf = fb.finish_into(&mut m);
    let mut fb = FunctionBuilder::new("mid", 1);
    fb.block("entry");
    let a = fb.param(0);
    let x = fb.call(leaf, vec![a.into()]);
    let y = fb.call(leaf, vec![x.into()]);
    fb.ret(y);
    let mid = fb.finish_into(&mut m);
    let mut fb = FunctionBuilder::new("worker", 2);
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let done = fb.create_block("done");
    let iters = fb.param(1);
    let i = fb.iconst(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    let r = fb.call(mid, vec![i.into()]);
    fb.lock(0i64);
    let addr = fb.iconst(100);
    let v = fb.load(addr, 0);
    let v2 = fb.add(v, r);
    fb.store(addr, 0, v2);
    fb.unlock(0i64);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let f = fb.finish_into(&mut m);
    let out = detlock_passes::pipeline::instrument(
        &m,
        &CostModel::default(),
        &detlock_passes::pipeline::OptConfig::all(),
        detlock_passes::plan::Placement::Start,
        &[f],
    );
    (out.module, f)
}

/// The threaded engine's stop gate, at the boundaries it is tightest at.
/// At a checkpoint interval of 1 every dispatch is a single op (the op
/// after the head would issue at or after the next boundary). At 4 short
/// runs straddle boundaries, and on [`call_heavy`] boundaries land inside
/// a callee's run and right after a non-final `ret`. Either way the
/// engine must agree with the interpreter at every boundary (deep state
/// digests) and with its own run without snapshots at the end (metrics
/// incl. the trace hash, final memory): under `Det`; under `Baseline` on
/// the instrumented module, where ticks are skipped; and under a chunk
/// policy small enough that store-retirement interrupts land on the
/// countdown.
#[test]
fn length_one_runs_match_the_interpreter_and_the_fused_run() {
    let cost = CostModel::default();
    let (counter, f) = instrumented_counter(8);
    let (calls, g) = call_heavy();
    let chunk = ChunkParams {
        chunk_size: 2,
        interrupt_cost: 7,
    };
    for (name, m, threads) in [
        ("counter", &counter, counter_threads(f, 3, 12)),
        ("call-heavy", &calls, counter_threads(g, 3, 12)),
    ] {
        for every in [1, 4] {
            for (mode, scheduler) in [
                (ExecMode::Det, Sched::Kendo),
                (ExecMode::Baseline, Sched::Kendo),
                (ExecMode::Det, Sched::Chunk(chunk)),
            ] {
                let ctx = format!("{name} / every {every} / {mode:?} / {scheduler}");
                let config = |backend| MachineConfig {
                    scheduler,
                    backend,
                    mem_words: 256,
                    ..cfg(mode)
                };
                let stepped = |backend| {
                    let mut digests = Vec::new();
                    let mut regs = Vec::new();
                    let machine = Machine::new(m, &cost, &threads, config(backend));
                    match machine.run_with_checkpoints(every, &mut |ck| {
                        digests.push((ck.cycle(), ck.digest()));
                        regs.push(ck.approx_bytes());
                        CkptControl::Continue
                    }) {
                        RunOutcome::Finished {
                            metrics,
                            memory,
                            hit_limit: false,
                            ..
                        } => (digests, regs, metrics, memory),
                        other => panic!("{ctx}: {other:?}"),
                    }
                };
                let (digests, regs, metrics, memory) = stepped(Backend::Threaded);
                let (ref_digests, _, ref_metrics, ref_memory) = stepped(Backend::Interp);
                assert!(digests.len() > 100, "{ctx}");
                assert!(digests == ref_digests, "{ctx}: state diverged");
                assert_eq!(metrics, ref_metrics, "{ctx}");
                assert_eq!(memory, ref_memory, "{ctx}");

                let (fused_metrics, fused_memory, hit) =
                    Machine::new(m, &cost, &threads, config(Backend::Threaded)).run_with_memory();
                assert!(!hit);
                assert_eq!(metrics, fused_metrics, "{ctx}");
                assert_eq!(memory, fused_memory, "{ctx}");

                let t0 = &metrics.per_thread[0];
                assert_eq!(t0.ticks_executed > 0, mode == ExecMode::Det, "{ctx}");
                assert!(t0.retired_stores >= 4 * chunk.chunk_size, "{ctx}");
                // A callee's registers sit on top of its caller's, so a
                // snapshot with more registers than the first (every
                // thread in its entry frame) caught a thread in a call.
                assert_eq!(
                    regs.iter().any(|r| r > &regs[0]),
                    name == "call-heavy",
                    "{ctx}"
                );
            }
        }
    }
}

/// Resume refuses a checkpoint taken under a different config, module,
/// cost model or thread count instead of silently diverging.
#[test]
fn resume_refuses_mismatched_fingerprint() {
    let (m, f) = instrumented_counter(8);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 20);
    let config = cfg(ExecMode::Det);
    let ck = Machine::new(&m, &cost, &threads, config.clone()).snapshot();

    // Same everything: accepted.
    assert!(Machine::resume(&m, &cost, config.clone(), &ck).is_ok());
    // Different jitter seed: refused (the RNG streams would not line up).
    let other = MachineConfig {
        jitter: Jitter::default().with_seed(31337),
        ..config.clone()
    };
    assert!(Machine::resume(&m, &cost, other, &ck).is_err());
    // Different module shape: refused.
    let (m2, _) = counter_program(0, 3);
    assert!(Machine::resume(&m2, &cost, config.clone(), &ck).is_err());
    // Different memory geometry: refused.
    let smaller = MachineConfig {
        mem_words: 1 << 10,
        ..config.clone()
    };
    assert!(Machine::resume(&m, &cost, smaller, &ck).is_err());
    // Different charges (an estimates file): refused.
    let mut dearer = CostModel::default();
    dearer.sync += 1;
    assert!(Machine::resume(&m, &dearer, config, &ck).is_err());
}

/// `run_with_checkpoints(0, ...)` never calls the sink and matches `run`.
#[test]
fn zero_interval_disables_checkpointing() {
    let (m, f) = instrumented_counter(8);
    let cost = CostModel::default();
    let threads = counter_threads(f, 4, 10);
    let config = cfg(ExecMode::Det);
    let (ref_metrics, _) = run(&m, &cost, &threads, config.clone());
    let mut calls = 0u32;
    match Machine::new(&m, &cost, &threads, config).run_with_checkpoints(0, &mut |_| {
        calls += 1;
        CkptControl::Continue
    }) {
        RunOutcome::Finished { metrics, .. } => assert_eq!(metrics, ref_metrics),
        RunOutcome::Aborted { .. } => panic!("nothing aborted this run"),
    }
    assert_eq!(calls, 0);
}

/// `holder` takes lock 1 and, still holding it, runs eight ticks with
/// nothing in between; `waiter` ticks once and then asks for lock 1.
fn ticks_under_a_held_lock() -> (Module, [FuncId; 2]) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("holder", 0);
    fb.block("entry");
    fb.lock(1i64);
    for amount in [1, 3, 1, 2, 1, 1, 4, 1] {
        fb.push(Inst::Tick { amount });
    }
    fb.unlock(1i64);
    fb.ret_void();
    let holder = fb.finish_into(&mut m);
    let mut fb = FunctionBuilder::new("waiter", 0);
    fb.block("entry");
    fb.push(Inst::Tick { amount: 1 });
    fb.lock(1i64);
    fb.unlock(1i64);
    fb.ret_void();
    let waiter = fb.finish_into(&mut m);
    (m, [holder, waiter])
}

/// A blocked waiter (thread 0, so it wins clock ties) holds the turn and
/// bumps its clock while the lock holder's ticks, a tick costing two
/// cycles and moving the clock by one to four, carry the holder's clock
/// past the waiter's again and again: each crossing passes the turn and
/// changes who bumps, so the bump count and the cycle of the waiter's
/// grant depend on the cycle at which the arbiter sees each tick. The
/// threaded engine runs the eight ticks in one dispatch and must agree
/// with the interpreter on all of it.
#[test]
fn ticks_that_cross_a_bumping_waiter_match_the_interpreter() {
    let cost = CostModel::default();
    let (m, [holder, waiter]) = ticks_under_a_held_lock();
    let threads = [waiter, holder].map(|func| ThreadSpec { func, args: vec![] });
    for seed in [1, 2, 3] {
        let run = |backend| {
            let config = MachineConfig {
                backend,
                jitter: Jitter::default().with_seed(seed),
                mem_words: 64,
                ..cfg(ExecMode::Det)
            };
            let (metrics, hit, profile) = Machine::new(&m, &cost, &threads, config).run_profiled();
            assert!(!hit, "seed {seed}: {backend:?}");
            (metrics, profile)
        };
        let (threaded, fused) = run(Backend::Threaded);
        let (interp, stepped) = run(Backend::Interp);
        let ctx = format!("seed {seed}");
        assert_eq!(threaded.cycles, interp.cycles, "{ctx}");
        assert_eq!(threaded.lock_order_hash, interp.lock_order_hash, "{ctx}");
        for (t, (a, b)) in threaded
            .per_thread
            .iter()
            .zip(&interp.per_thread)
            .enumerate()
        {
            assert_eq!(a.lock_clock_bumps, b.lock_clock_bumps, "{ctx}: thread {t}");
            assert_eq!(a.final_clock, b.final_clock, "{ctx}: thread {t}");
        }
        assert_eq!(threaded, interp, "{ctx}");
        // The scenario happened: the holder's eight ticks ran, and the
        // waiter bumped past more than one of them.
        assert_eq!(interp.per_thread[1].ticks_executed, 8, "{ctx}");
        // Every op here but the ticks heads its dispatch, so fewer
        // dispatches than issues means ticks ran ahead: the holder's
        // eight run in one dispatch, seven of them published.
        assert!(fused.steps[0] < stepped.steps[0], "{ctx}: {fused:?}");
        assert_eq!(fused.ticks_published, 7, "{ctx}");
        assert!(
            interp.per_thread[0].lock_clock_bumps > 4,
            "{ctx}: {interp:?}"
        );
    }
}

/// `iters` rounds of a tick, then a load, an add and a store of word
/// `word`, in a block of their own, from the builder's current block.
fn tick_load_store_loop(fb: &mut FunctionBuilder, word: i64, iters: i64) {
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let done = fb.create_block("done");
    let i = fb.iconst(0);
    let addr = fb.iconst(word);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    fb.push(Inst::Tick { amount: 1 });
    let v = fb.load(addr, 0);
    let v2 = fb.add(v, 1);
    fb.store(addr, 0, v2);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
}

/// Every thread takes lock 1 and, holding it, increments word 8 forty
/// times: while one runs its loads and stores every other thread waits on
/// the lock it physically holds.
fn memory_under_a_held_lock() -> (Module, Vec<FuncId>) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("holder", 0);
    fb.block("entry");
    fb.lock(1i64);
    tick_load_store_loop(&mut fb, 8, 40);
    fb.unlock(1i64);
    fb.ret_void();
    let holder = fb.finish_into(&mut m);
    (m, vec![holder; 3])
}

/// A racy word: `looper` increments word 8 sixty times without a lock;
/// `writer` computes (and, where ticks run, moves its clock to 20), then
/// asks for lock 2, which nobody ever holds, and stores 1000 to word 8.
/// The writer waits on a free lock while the looper runs; its grant comes
/// in the middle of the looper's loop, so where its store lands among the
/// looper's is the final value of the word.
fn racy_word_and_a_free_lock() -> (Module, Vec<FuncId>) {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("looper", 0);
    fb.block("entry");
    tick_load_store_loop(&mut fb, 8, 60);
    fb.ret_void();
    let looper = fb.finish_into(&mut m);
    let mut fb = FunctionBuilder::new("writer", 0);
    fb.block("entry");
    fb.push(Inst::Tick { amount: 20 });
    fb.compute(12);
    fb.lock(2i64);
    let addr = fb.iconst(8);
    fb.store(addr, 0, 1000i64);
    fb.unlock(2i64);
    fb.ret_void();
    let writer = fb.finish_into(&mut m);
    (m, vec![looper, writer])
}

/// The threaded engine against the interpreter where some threads are
/// blocked while another runs loads and stores: everything a run produces
/// (cycles, per-thread metrics, trace hash, final memory, the sanitizer's
/// report) agrees, over three seeds, in `Baseline`, `Det` + Kendo and
/// `Det` + a chunk policy whose store interrupts move the clock inside
/// the loops. In the first program every other thread waits on a lock the
/// runner holds; in the second a waiter on a free lock is granted in the
/// middle of the runner's loop and writes the word it loops over, so a
/// load or store run ahead of that grant moves the final memory.
#[test]
fn loads_and_stores_beside_blocked_threads_match_the_interpreter() {
    let cost = CostModel::default();
    let chunk = ChunkParams {
        chunk_size: 4,
        interrupt_cost: 7,
    };
    for (name, (m, funcs)) in [
        ("held lock", memory_under_a_held_lock()),
        ("free lock", racy_word_and_a_free_lock()),
    ] {
        let threads: Vec<ThreadSpec> = funcs
            .into_iter()
            .map(|func| ThreadSpec { func, args: vec![] })
            .collect();
        for (mode, scheduler) in [
            (ExecMode::Baseline, Sched::Kendo),
            (ExecMode::Det, Sched::Kendo),
            (ExecMode::Det, Sched::Chunk(chunk)),
        ] {
            for seed in [1, 2, 3] {
                let ctx = format!("{name} / {mode:?} / {scheduler} / seed {seed}");
                let run = |backend| {
                    let config = MachineConfig {
                        backend,
                        scheduler,
                        sanitize: true,
                        jitter: Jitter::default().with_seed(seed),
                        mem_words: 64,
                        ..cfg(mode)
                    };
                    let (metrics, memory, hit, report) =
                        Machine::new(&m, &cost, &threads, config).run_sanitized();
                    assert!(!hit, "{ctx}: {backend:?}");
                    (metrics, memory, report.expect("sanitized"))
                };
                let (threaded, threaded_mem, threaded_report) = run(Backend::Threaded);
                let (interp, interp_mem, interp_report) = run(Backend::Interp);
                assert_eq!(threaded.cycles, interp.cycles, "{ctx}");
                assert_eq!(threaded.lock_order_hash, interp.lock_order_hash, "{ctx}");
                assert_eq!(threaded.per_thread, interp.per_thread, "{ctx}");
                assert_eq!(threaded_mem, interp_mem, "{ctx}");
                assert_eq!(threaded_report, interp_report, "{ctx}");
                assert_eq!(threaded, interp, "{ctx}");
                let word = interp_mem[8];
                if name == "held lock" {
                    assert_eq!(word, 120, "{ctx}");
                } else {
                    // The writer's store landed inside the loop: neither
                    // before the looper's first load nor after its last store.
                    assert!(word != 1000 && word != 1060, "{ctx}: word 8 reads {word}");
                    assert!(!interp_report.races.is_empty(), "{ctx}");
                }
            }
        }
    }
}
