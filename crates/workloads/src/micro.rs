//! Micro programs for property tests and the pass test-suite: random
//! structured control flow (nested diamonds, loops, call chains) over which
//! pass invariants must hold, and the two arbiter stressors
//! ([`lock_hammer`], [`barrier_hammer`]).

use crate::util::GenRng;
use crate::{ThreadPlan, Workload};
use detlock_ir::builder::FunctionBuilder;
use detlock_ir::inst::{BinOp, CmpOp, Operand};
use detlock_ir::types::{BarrierId, FuncId};
use detlock_ir::Module;

/// `threads` threads × `iters` × {lock 1, load/add/store one word, unlock,
/// 8 ALU ops}: one acquisition per ~13 instructions, so some thread is
/// waiting on nearly every cycle. Race-free: the word is only touched under
/// lock 1.
pub fn lock_hammer(threads: usize, iters: i64) -> Workload {
    hammer("lockhammer", threads, iters, false)
}

/// [`lock_hammer`] with a barrier closing every iteration.
pub fn barrier_hammer(threads: usize, iters: i64) -> Workload {
    hammer("barrierhammer", threads, iters, true)
}

fn hammer(name: &'static str, threads: usize, iters: i64, with_barrier: bool) -> Workload {
    let mut module = Module::new();
    let mut fb = FunctionBuilder::new(name, 1);
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

/// Shape knobs for random structured functions.
#[derive(Debug, Clone)]
pub struct MicroParams {
    /// Nesting depth of diamonds/loops.
    pub depth: u32,
    /// Max instructions per straight-line run.
    pub max_ops: u32,
    /// Probability (percent) of a loop at each level, else a diamond.
    pub loop_pct: u32,
}

impl Default for MicroParams {
    fn default() -> Self {
        MicroParams {
            depth: 3,
            max_ops: 12,
            loop_pct: 30,
        }
    }
}

/// Generate one random structured function (no calls) and add it to the
/// module. The function takes one data parameter used for branch
/// conditions, so control flow is input-dependent but loop trip counts are
/// bounded.
pub fn random_function(
    module: &mut Module,
    name: String,
    rng: &mut GenRng,
    params: &MicroParams,
) -> FuncId {
    let mut fb = FunctionBuilder::new(name, 1);
    fb.block("entry");
    let data = fb.param(0);
    let acc = fb.iconst(0);
    let mut next_region = 0u32;
    emit_region(
        &mut fb,
        rng,
        params,
        params.depth,
        data,
        acc,
        &mut next_region,
    );
    fb.ret(acc);
    fb.finish_into(module)
}

fn emit_ops(fb: &mut FunctionBuilder, rng: &mut GenRng, max_ops: u32, acc: detlock_ir::Reg) {
    let n = rng.range(1, max_ops as u64 + 1);
    for k in 0..n {
        match k % 3 {
            0 => fb.bin_to(BinOp::Add, acc, acc, Operand::Imm(k as i64 + 1)),
            1 => fb.bin_to(BinOp::Xor, acc, acc, Operand::Imm(0x55)),
            _ => fb.bin_to(BinOp::Mul, acc, acc, Operand::Imm(3)),
        }
    }
}

fn emit_region(
    fb: &mut FunctionBuilder,
    rng: &mut GenRng,
    params: &MicroParams,
    depth: u32,
    data: detlock_ir::Reg,
    acc: detlock_ir::Reg,
    next_region: &mut u32,
) {
    emit_ops(fb, rng, params.max_ops, acc);
    if depth == 0 {
        return;
    }
    // Region counter keeps block names unique (two sibling regions at the
    // same depth would otherwise collide, which the verifier now rejects).
    let id = *next_region;
    *next_region += 1;
    if rng.range(0, 100) < params.loop_pct as u64 {
        // Bounded loop: i in 0..(data & 7).
        let head = fb.create_block(format!("loop.head.{id}"));
        let body = fb.create_block(format!("loop.body.{id}"));
        let exit = fb.create_block(format!("loop.exit.{id}"));
        let i = fb.iconst(0);
        let bound = fb.bin(BinOp::And, data, 7);
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, bound);
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        emit_region(fb, rng, params, depth - 1, data, acc, next_region);
        fb.bin_to(BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(exit);
        emit_ops(fb, rng, params.max_ops, acc);
    } else {
        // Diamond.
        let t = fb.create_block(format!("then.{id}"));
        let e = fb.create_block(format!("else.{id}"));
        let m = fb.create_block(format!("merge.{id}"));
        let bit = fb.bin(BinOp::And, data, depth as i64 + 1);
        let c = fb.cmp(CmpOp::Ne, bit, 0);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        emit_region(fb, rng, params, depth - 1, data, acc, next_region);
        fb.br(m);
        fb.switch_to(e);
        emit_region(fb, rng, params, depth - 1, data, acc, next_region);
        fb.br(m);
        fb.switch_to(m);
        emit_ops(fb, rng, params.max_ops, acc);
    }
}

/// A module of `n` random functions plus a driver that calls them all in a
/// loop — used by end-to-end pass/VM property tests.
pub fn random_module(seed: u64, n: usize, params: &MicroParams) -> (Module, FuncId) {
    let mut module = Module::new();
    let mut rng = GenRng::new(seed);
    let funcs: Vec<FuncId> = (0..n)
        .map(|i| random_function(&mut module, format!("rf{i}"), &mut rng, params))
        .collect();

    let mut fb = FunctionBuilder::new("driver", 2); // (data, iters)
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let done = fb.create_block("done");
    let data = fb.param(0);
    let iters = fb.param(1);
    let i = fb.iconst(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, body, done);
    fb.switch_to(body);
    for f in &funcs {
        let arg = fb.add(data, Operand::Reg(i));
        fb.call_void(*f, vec![Operand::Reg(arg)]);
    }
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);
    fb.switch_to(done);
    fb.ret_void();
    let driver = fb.finish_into(&mut module);
    (module, driver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::verify::verify_module;

    #[test]
    fn random_functions_verify() {
        for seed in 1..30 {
            let (m, _) = random_module(seed, 3, &MicroParams::default());
            verify_module(&m).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
        }
    }

    #[test]
    fn hammers_verify() {
        for w in [lock_hammer(4, 100), barrier_hammer(3, 60)] {
            verify_module(&w.module).unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        }
    }

    #[test]
    fn block_names_are_unique() {
        for seed in 1..30 {
            let (m, _) = random_module(seed, 3, &MicroParams::default());
            for f in &m.functions {
                let mut names: Vec<&str> = f.blocks.iter().map(|b| b.name.as_str()).collect();
                names.sort_unstable();
                let before = names.len();
                names.dedup();
                assert_eq!(before, names.len(), "seed {seed}, fn {}", f.name);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (a, _) = random_module(7, 2, &MicroParams::default());
        let (b, _) = random_module(7, 2, &MicroParams::default());
        assert_eq!(a.functions.len(), b.functions.len());
        for (fa, fb) in a.functions.iter().zip(&b.functions) {
            assert_eq!(fa.blocks.len(), fb.blocks.len());
            for (ba, bb) in fa.blocks.iter().zip(&fb.blocks) {
                assert_eq!(ba.insts, bb.insts);
            }
        }
    }
}
