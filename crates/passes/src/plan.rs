//! The clock plan: per-block clock amounts that the optimizations rearrange
//! and the materializer finally lowers to `tick` instructions.
//!
//! Base insertion follows §III-A of the paper: every basic block gets a
//! clock update; blocks containing calls to *unclocked* functions are split
//! so that each piece either contains no call or is exactly one call, and
//! the pieces between calls are clocked separately ("we update the clocks in
//! between the function calls").

use crate::cost::CostModel;
use detlock_ir::inst::{Inst, Terminator};
use detlock_ir::module::{Block, Function, Module};
use detlock_ir::types::{BlockId, FuncId};

/// Where the materializer places each block's tick.
///
/// The paper's §V-B (Figure 15) compares updating clocks at the *start* of
/// each block (ahead of time — threads waiting on locks see other threads'
/// clocks advance sooner) against the *end*; `Start` is DetLock's default.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Tick as the first instruction of the block (ahead of time).
    Start,
    /// Tick as the last instruction before the terminator.
    End,
}

/// Per-function clock plan over the *split* function's blocks.
#[derive(Debug, Clone)]
pub struct FuncPlan {
    /// Static clock amount per block. Zero ⇒ no tick emitted.
    pub block_clock: Vec<u64>,
    /// Blocks whose clock code cannot be moved or removed: they contain a
    /// call to an unclocked function or a size-dependent builtin (the clock
    /// must update "in between the function calls", §III-A).
    pub pinned: Vec<bool>,
}

impl FuncPlan {
    /// Clock of a block.
    #[inline]
    pub fn clock(&self, b: BlockId) -> u64 {
        self.block_clock[b.index()]
    }

    /// Set the clock of a block.
    #[inline]
    pub fn set_clock(&mut self, b: BlockId, v: u64) {
        self.block_clock[b.index()] = v;
    }

    /// Whether clock code in `b` is immovable.
    #[inline]
    pub fn is_pinned(&self, b: BlockId) -> bool {
        self.pinned[b.index()]
    }

    /// Sum of all static clock amounts (the "clock mass" conserved by the
    /// precise optimizations along any path, and overall by construction).
    pub fn total_mass(&self) -> u64 {
        self.block_clock.iter().sum()
    }

    /// Number of blocks that will receive a tick.
    pub fn clocked_blocks(&self) -> usize {
        self.block_clock.iter().filter(|&&c| c > 0).count()
    }
}

/// Whole-module clock plan, aligned with the *split* module.
#[derive(Debug, Clone)]
pub struct ModulePlan {
    /// Tick placement for materialization.
    pub placement: Placement,
    /// Per function: `Some(mean path clock)` if Optimization 1 clocked it
    /// (its internal ticks removed; callers charge the mean at call sites).
    pub clocked: Vec<Option<u64>>,
    /// Per-function block plans.
    pub funcs: Vec<FuncPlan>,
}

impl ModulePlan {
    /// Number of clocked (O1) functions — the paper's "Clockable Functions"
    /// row in Table I.
    pub fn clockable_functions(&self) -> usize {
        self.clocked.iter().filter(|c| c.is_some()).count()
    }
}

/// Split every block of `func` so that each resulting block either contains
/// no call to an unclocked function, or consists of exactly that one call.
///
/// Synchronization intrinsics split exactly the same way: in the real
/// system `det_mutex_lock`/`unlock`/`barrier_wait` are calls into the
/// runtime (never compiled by the DetLock pass), so the code around them
/// always lands in separate blocks. This matters for correct ahead-of-time
/// placement: a thread's clock at a lock must not already include the code
/// *after* the lock in the same original block.
///
/// Calls to *clocked* callees are left in place (paper §IV-A: "no splitting
/// of the block is done and the mean number of instructions ... added to the
/// clock"). Remainder blocks are named `split.<orig>` after the paper's
/// `split.lor.lhs.false23` (`split<k>.<orig>` between two calls); isolated
/// call blocks `<orig>.call<k>`. A name the function already uses gets the
/// first free `.1`, `.2`, … suffix.
///
/// This is where the pipeline copies the source IR, once: every block and
/// segment is built with room for the tick that materialization adds.
pub fn split_function(func: &Function, is_clocked: impl Fn(FuncId) -> bool) -> Function {
    let splits_at = |inst: &Inst| match inst {
        Inst::Call { func: callee, .. } => !is_clocked(*callee),
        _ => inst.is_sync(),
    };
    // Block `i`'s first segment keeps id `i`, so every branch target stays
    // valid; further segments are appended, and the original terminator
    // moves along the chain to the last one.
    let mut blocks: Vec<Block> = func
        .blocks
        .iter()
        .map(|b| Block {
            name: b.name.clone(),
            insts: Vec::new(),
            term: b.term.clone(),
        })
        .collect();
    for (orig, block) in func.blocks.iter().enumerate() {
        let insts = &block.insts;
        let segment = |lo: usize, hi: usize| {
            let mut seg = Vec::with_capacity(hi - lo + 1);
            seg.extend_from_slice(&insts[lo..hi]);
            seg
        };
        let next_split = |from: usize| insts[from..].iter().position(splits_at).map(|d| from + d);
        let Some(mut at) = next_split(0) else {
            blocks[orig].insts = segment(0, insts.len());
            continue;
        };
        blocks[orig].insts = segment(0, at);
        let mut last = orig;
        let mut chain = |name: String, insts: Vec<Inst>| {
            let name = fresh_name(&blocks, name);
            let id = blocks.len();
            let target = Terminator::Br {
                target: BlockId(id as u32),
            };
            let term = std::mem::replace(&mut blocks[last].term, target);
            blocks.push(Block { name, insts, term });
            last = id;
        };
        // Segment `2j - 1` is call `j` and segment `2j` the code after it.
        for call_no in 1.. {
            chain(format!("{}.call{call_no}", block.name), segment(at, at + 1));
            match next_split(at + 1) {
                Some(next) => {
                    chain(
                        format!("split{}.{}", 2 * call_no, block.name),
                        segment(at + 1, next),
                    );
                    at = next;
                }
                None => {
                    // A trailing empty remainder is dropped: the call
                    // block carries the terminator itself.
                    if at + 1 < insts.len() {
                        chain(
                            format!("split.{}", block.name),
                            segment(at + 1, insts.len()),
                        );
                    }
                    break;
                }
            }
        }
    }

    Function {
        name: func.name.clone(),
        params: func.params,
        num_regs: func.num_regs,
        blocks,
    }
}

/// `name` if no block in `blocks` has it, else `name.<k>` for the smallest
/// `k ≥ 1` that none has.
fn fresh_name(blocks: &[Block], name: String) -> String {
    let taken = |n: &str| blocks.iter().any(|b| b.name == n);
    if !taken(&name) {
        return name;
    }
    (1..)
        .map(|k| format!("{name}.{k}"))
        .find(|n| !taken(n))
        .expect("some suffix is free")
}

/// Split every function of the module (clocked functions contain no
/// unclocked calls by construction, so splitting them is a no-op).
pub fn split_module(module: &Module, clocked: &[Option<u64>]) -> Module {
    let is_clocked = |f: FuncId| clocked.get(f.index()).is_some_and(|c| c.is_some());
    Module {
        functions: module
            .functions
            .iter()
            .map(|f| split_function(f, is_clocked))
            .collect(),
    }
}

/// Static clock amount of a block: the summed cost of its instructions
/// (size-dependent builtins contribute only their base; the scaled part
/// becomes a dynamic tick), plus the mean path clock of every *clocked*
/// callee charged at the call site, plus the terminator cost.
pub fn block_clock_amount(block: &Block, cost: &CostModel, clocked: &[Option<u64>]) -> u64 {
    let mut total = 0u64;
    for inst in &block.insts {
        // Tick instructions are the instrumentation itself, never part of a
        // clock amount (their execution cost is the measured overhead).
        if inst.is_tick() {
            continue;
        }
        total += cost.inst_cost(inst);
        if let Inst::Call { func: callee, .. } = inst {
            if let Some(Some(avg)) = clocked.get(callee.index()) {
                total += *avg;
            }
        }
    }
    total + term_cost(&block.term, cost)
}

/// [`block_clock_amount`] of every block of `func`, indexed by block. A
/// block's amount depends on the block and the clocked set alone, so
/// whoever sums amounts along paths (O1's tightness test, the validator)
/// costs each block here once, not once per visit.
pub fn block_clock_amounts(func: &Function, cost: &CostModel, clocked: &[Option<u64>]) -> Vec<u64> {
    func.blocks
        .iter()
        .map(|b| block_clock_amount(b, cost, clocked))
        .collect()
}

/// Cost charged for executing a terminator (a branch is an instruction too).
pub fn term_cost(_term: &Terminator, cost: &CostModel) -> u64 {
    cost.alu
}

/// Compute the unoptimized ("With No Optimization", Table I) plan for an
/// already-split module: every block of every unclocked function receives
/// its full static clock; clocked functions receive all-zero plans.
pub fn base_plan(split: &Module, cost: &CostModel, clocked: &[Option<u64>]) -> Vec<FuncPlan> {
    let mut plans = Vec::with_capacity(split.functions.len());
    for (fid, func) in split.iter_funcs() {
        let n = func.blocks.len();
        let is_clocked_fn = clocked.get(fid.index()).is_some_and(|c| c.is_some());
        let block_clock = if is_clocked_fn {
            vec![0u64; n]
        } else {
            block_clock_amounts(func, cost, clocked)
        };
        let mut pinned = vec![false; n];
        for (bid, block) in func.iter_blocks() {
            let has_unclocked_call = block.insts.iter().any(|i| match i {
                Inst::Call { func: callee, .. } => {
                    clocked.get(callee.index()).is_none_or(|c| c.is_none())
                }
                _ => false,
            });
            let has_dyn_builtin = block
                .insts
                .iter()
                .any(|i| cost.needs_dynamic_tick(i).is_some());
            // Synchronization operations are deterministic events: the clock
            // observed at a lock/barrier must not be perturbed by moving
            // clock code across it, so such blocks are pinned too.
            pinned[bid.index()] = has_unclocked_call || has_dyn_builtin || block.has_sync();
        }
        plans.push(FuncPlan {
            block_clock,
            pinned,
        });
    }
    plans
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::Operand;
    use detlock_ir::verify::verify_module;
    use detlock_ir::Builtin;

    fn leaf(m: &mut Module) -> FuncId {
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(4);
        fb.ret_void();
        fb.finish_into(m)
    }

    #[test]
    fn split_isolates_unclocked_calls() {
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("work");
        fb.compute(2);
        fb.call_void(callee, vec![]);
        fb.compute(3);
        fb.call_void(callee, vec![]);
        fb.ret_void();
        let caller = fb.finish_into(&mut m);

        let split = split_module(&m, &[None, None]);
        assert!(verify_module(&split).is_ok());
        let f = split.func(caller);
        // work | work.call1 | mid | work.call2 (trailing empty segment
        // dropped, so the second call block carries the terminator).
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[0].name, "work");
        assert_eq!(f.blocks[0].insts.len(), 2);
        assert!(f.blocks[1].name.contains("call1"));
        assert_eq!(f.blocks[1].insts.len(), 1);
        assert!(matches!(f.blocks[1].insts[0], Inst::Call { .. }));
        assert_eq!(f.blocks[2].insts.len(), 3);
        assert!(f.blocks[3].name.contains("call2"));
        assert!(matches!(f.blocks[3].term, Terminator::Ret { .. }));
    }

    #[test]
    fn split_call_at_block_start_matches_paper_shape() {
        // Paper §IV-A: a block with a call at the start splits into the call
        // block (keeping the original name/id) and `split.<name>`.
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("lor.lhs.false23");
        fb.call_void(callee, vec![]);
        fb.compute(5);
        fb.ret_void();
        let caller = fb.finish_into(&mut m);

        let split = split_module(&m, &[None, None]);
        let f = split.func(caller);
        assert_eq!(f.blocks.len(), 3);
        // Original id: empty first segment (no insts before the call).
        assert_eq!(f.blocks[0].insts.len(), 0);
        assert!(matches!(f.blocks[1].insts[0], Inst::Call { .. }));
        assert_eq!(f.blocks[2].name, "split.lor.lhs.false23");
        assert_eq!(f.blocks[2].insts.len(), 5);
    }

    #[test]
    fn split_names_stay_unique_in_the_function() {
        let names = |extra: &str| -> Vec<String> {
            let text = format!(
                "fn main(params=1) {{\n  entry (bb0):\n    lock 1\n    unlock 1\n    \
                 r0 = add r0, 1\n    br bb1\n  exit (bb1):\n    ret\n{extra}}}\n"
            );
            let m = detlock_ir::parse::parse_module(&text).unwrap();
            assert!(verify_module(&m).is_ok());
            let out = crate::pipeline::instrument(
                &m,
                &CostModel::default(),
                &crate::pipeline::OptConfig::none(),
                Placement::Start,
                &[],
            );
            assert_eq!(verify_module(&out.module), Ok(()), "{text}");
            let f = &out.module.functions[0];
            f.blocks.iter().map(|b| b.name.clone()).collect()
        };
        // No clash: the names every existing module gets.
        assert_eq!(
            names(""),
            [
                "entry",
                "exit",
                "entry.call1",
                "split2.entry",
                "entry.call2",
                "split.entry"
            ]
        );
        // Each generated name the function already uses takes the first
        // free suffix; the others stay as they were.
        assert_eq!(
            names("  split.entry:\n    ret\n  split.entry.1:\n    ret\n"),
            [
                "entry",
                "exit",
                "split.entry",
                "split.entry.1",
                "entry.call1",
                "split2.entry",
                "entry.call2",
                "split.entry.2"
            ]
        );
        assert_eq!(
            names("  entry.call1:\n    ret\n  split2.entry:\n    ret\n"),
            [
                "entry",
                "exit",
                "entry.call1",
                "split2.entry",
                "entry.call1.1",
                "split2.entry.1",
                "entry.call2",
                "split.entry"
            ]
        );
    }

    #[test]
    fn split_noop_for_clocked_callee() {
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("entry");
        fb.compute(2);
        fb.call_void(callee, vec![]);
        fb.ret_void();
        let caller = fb.finish_into(&mut m);

        let split = split_module(&m, &[Some(6), None]);
        assert_eq!(split.func(caller).blocks.len(), 1);
    }

    #[test]
    fn base_plan_charges_clocked_callee_at_call_site() {
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("entry");
        fb.compute(2);
        fb.call_void(callee, vec![]);
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = vec![Some(9u64), None];
        let split = split_module(&m, &clocked);
        let plans = base_plan(&split, &cost, &clocked);
        // Clocked function plan is all zeros.
        assert!(plans[0].block_clock.iter().all(|&c| c == 0));
        // Caller single block: 2 alu + call(2) + avg(9) + term(1) = 14.
        assert_eq!(plans[1].block_clock, vec![2 + 2 + 9 + 1]);
        assert!(!plans[1].pinned[0]);
    }

    #[test]
    fn base_plan_pins_unclocked_call_and_sync_blocks() {
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("entry");
        fb.call_void(callee, vec![]);
        fb.lock(Operand::Imm(0));
        fb.unlock(Operand::Imm(0));
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = vec![None, None];
        let split = split_module(&m, &clocked);
        let plans = base_plan(&split, &cost, &clocked);
        let caller_plan = &plans[1];
        // Call block pinned; sync block pinned.
        let pinned_count = caller_plan.pinned.iter().filter(|&&p| p).count();
        assert!(pinned_count >= 2, "pinned: {:?}", caller_plan.pinned);
    }

    #[test]
    fn base_plan_dynamic_builtin_base_only() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry");
        let len = fb.param(0);
        fb.builtin_void(
            Builtin::Memset,
            vec![Operand::Imm(0), Operand::Imm(0), Operand::Reg(len)],
            Some(2),
        );
        fb.ret_void();
        fb.finish_into(&mut m);

        let cost = CostModel::default();
        let clocked = vec![None];
        let split = split_module(&m, &clocked);
        let plans = base_plan(&split, &cost, &clocked);
        // memset base(8) + term(1) = 9; block pinned because dynamic.
        assert_eq!(plans[0].block_clock, vec![9]);
        assert!(plans[0].pinned[0]);
    }

    #[test]
    fn total_mass_and_clocked_blocks() {
        let plan = FuncPlan {
            block_clock: vec![5, 0, 7],
            pinned: vec![false, false, false],
        };
        assert_eq!(plan.total_mass(), 12);
        assert_eq!(plan.clocked_blocks(), 2);
    }

    #[test]
    fn consecutive_calls_split_correctly() {
        let mut m = Module::new();
        let callee = leaf(&mut m);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.block("entry");
        fb.call_void(callee, vec![]);
        fb.call_void(callee, vec![]);
        fb.ret_void();
        let caller = fb.finish_into(&mut m);

        let split = split_module(&m, &[None, None]);
        assert!(verify_module(&split).is_ok());
        let f = split.func(caller);
        // entry(empty) -> call1 -> between(empty) -> call2
        let call_blocks = f
            .blocks
            .iter()
            .filter(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })))
            .count();
        assert_eq!(call_blocks, 2);
        for b in &f.blocks {
            let calls = b
                .insts
                .iter()
                .filter(|i| matches!(i, Inst::Call { .. }))
                .count();
            assert!(calls <= 1);
            if calls == 1 {
                assert_eq!(b.insts.len(), 1);
            }
        }
    }
}
