//! The threaded-code execution backend: compile the interpreter away.
//!
//! [`lower`] translates a verified (and typically instrumented) module once
//! into a [`ThreadedProgram`] — a flat pre-decoded program in which every
//! source instruction becomes exactly one `Op` with its operand slots
//! pre-resolved (register/immediate variants split at lowering time, so the
//! hot loop never matches on [`Operand`]), its cost-model charge baked in
//! where it depends on the opcode, callee register-file sizes and builtin
//! cost estimates copied inline, and jump targets kept as plain array
//! indices. Each function is one contiguous `ops` array: block `b` starts
//! at `starts[b]` and its terminator sits at `starts[b] + insts.len()`, so
//! fetching the next operation is a single add plus one bounds-checked
//! load — no per-step function/block/terminator re-derivation. Execution
//! additionally runs on disjoint field borrows of the determinism core
//! (thread, memory, sanitizer), skipping the repeated `threads[t]`
//! re-indexing the interpreter's method-per-access style pays. The DetLock
//! thesis applied to our own VM: pay for determinism machinery once, at
//! compile time.
//!
//! The lowering is *shape-preserving*: function, block, and instruction
//! indices are identical to the source module (the flat `pc` is internal —
//! frames still carry source-relative `(func, block, ip)` coordinates), so
//! call frames, sanitizer sites, and checkpoints mean the same thing under
//! both backends. Combined with charging the same costs in the same order
//! (the jitter RNG is positional), this makes every observable artifact —
//! trace hash, metrics, receipt, sanitizer report, checkpoint digest —
//! byte-identical to the interpreter's, which the differential golden
//! suite asserts exhaustively.
//!
//! Lowering is not cached: a machine lowers its module when it is built
//! and owns the program. A content-addressed cache has to print and hash
//! the whole module to find its entry, and that key costs 7–9× what the
//! lowering itself does (DESIGN.md §15, "The lowering").

use crate::checkpoint::{Frame, Thread};
use crate::core::{
    charge_amount, charge_thread, mem_index_of, retire_stores, Action, DetCore, ExecBackend,
};
use crate::machine::MachineConfig;
use crate::sanitizer::Sanitizer;
use crate::sched::ChunkParams;
use detlock_ir::inst::{BinOp, CmpOp, Inst, Operand, Terminator};
use detlock_ir::module::Module;
use detlock_ir::types::{BlockId, FuncId, Reg};
use detlock_ir::Builtin;
use detlock_passes::cost::{CostModel, Estimate};

/// A pre-decoded operation. One [`Op`] per source [`Inst`] plus one per
/// [`Terminator`], in source order, so instruction pointers are
/// interchangeable between backends. Register/immediate operand variants
/// are split here so dispatch does the match once, at lowering time.
pub(crate) enum Op {
    Const {
        dst: Reg,
        value: i64,
    },
    MovR {
        dst: Reg,
        src: Reg,
    },
    MovI {
        dst: Reg,
        value: i64,
    },
    BinR {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
        cost: u64,
    },
    BinI {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        imm: i64,
        cost: u64,
    },
    CmpR {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Reg,
    },
    CmpI {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        imm: i64,
    },
    Load {
        dst: Reg,
        addr: Reg,
        offset: i64,
    },
    StoreR {
        src: Reg,
        addr: Reg,
        offset: i64,
    },
    StoreI {
        value: i64,
        addr: Reg,
        offset: i64,
    },
    Call {
        func: FuncId,
        /// The callee's register-file size, copied at lowering so the call
        /// never touches the module.
        num_regs: u32,
        args: Box<[Operand]>,
        dst: Option<Reg>,
    },
    CallBuiltin {
        builtin: Builtin,
        args: Box<[Operand]>,
        dst: Option<Reg>,
        size_arg: Option<usize>,
        /// The builtin's cost estimate, copied from the [`CostModel`].
        est: Estimate,
    },
    Tick {
        amount: u64,
    },
    TickDyn {
        base: u64,
        per_unit: u64,
        size: Operand,
    },
    LockR(Reg),
    LockI(i64),
    UnlockR(Reg),
    UnlockI(i64),
    Barrier(u32),
    // Terminators, stored inline at the end of each block's op range.
    Br {
        target: BlockId,
    },
    CondBr {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    Switch {
        disc: Reg,
        cases: Box<[(i64, BlockId)]>,
        default: BlockId,
    },
    RetR(Reg),
    RetI(i64),
    RetVoid,
}

/// Static fusion info for the run of operations starting at one flat `pc`
/// (see [`run_fused`]): `len` operations can be dispatched in one step, and
/// `cost_sum` bounds their combined charge. `len == 1` means "no fusion
/// here" — the op runs alone.
#[derive(Clone, Copy)]
pub(crate) struct Fuse {
    pub(crate) len: u8,
    pub(crate) cost_sum: u32,
}

/// Cap on fused-run length: bounds the schedule-divergence window the
/// checkpoint/limit gate has to reason about, and keeps `cost_sum` small.
const FUSE_MAX: usize = 16;

/// A lowered function: every block's instructions plus its terminator,
/// flattened into one array. Block `b` occupies `starts[b] ..=
/// starts[b] + insts_len`, the last slot being the terminator, so the
/// executor's fetch is `ops[starts[block] + ip]` — `ip` stays
/// source-relative (shape preservation) while the fetch is flat.
/// `fuse[pc]` describes the statically fusible run starting at each op.
pub(crate) struct LFunc {
    pub(crate) ops: Vec<Op>,
    pub(crate) starts: Vec<u32>,
    pub(crate) fuse: Vec<Fuse>,
}

/// A module lowered to threaded code: same function/block/instruction
/// indexing as the source [`Module`], fully self-contained (no borrows).
pub struct ThreadedProgram {
    pub(crate) funcs: Vec<LFunc>,
}

/// Lower `module` against `cost` into a [`ThreadedProgram`]. Pure: the
/// output is a function of the module and the cost model alone.
pub fn lower(module: &Module, cost: &CostModel) -> ThreadedProgram {
    let funcs = module
        .functions
        .iter()
        .map(|f| {
            let mut ops = Vec::with_capacity(f.blocks.iter().map(|b| b.insts.len() + 1).sum());
            let mut starts = Vec::with_capacity(f.blocks.len());
            let mut block_ends = Vec::with_capacity(f.blocks.len());
            for b in &f.blocks {
                starts.push(ops.len() as u32);
                ops.extend(b.insts.iter().map(|i| lower_inst(module, cost, i)));
                ops.push(lower_term(&b.term));
                block_ends.push(ops.len());
            }
            let fuse = fuse_table(&ops, &starts, &block_ends, cost);
            LFunc { ops, starts, fuse }
        })
        .collect();
    ThreadedProgram { funcs }
}

fn lower_inst(module: &Module, cost: &CostModel, inst: &Inst) -> Op {
    match inst {
        Inst::Const { dst, value } => Op::Const {
            dst: *dst,
            value: *value,
        },
        Inst::Mov { dst, src } => match src {
            Operand::Reg(r) => Op::MovR { dst: *dst, src: *r },
            Operand::Imm(v) => Op::MovI {
                dst: *dst,
                value: *v,
            },
        },
        Inst::Bin { op, dst, lhs, rhs } => {
            let c = match op {
                BinOp::Mul => cost.mul,
                BinOp::Div | BinOp::Rem => cost.div,
                _ => cost.alu,
            };
            match rhs {
                Operand::Reg(r) => Op::BinR {
                    op: *op,
                    dst: *dst,
                    lhs: *lhs,
                    rhs: *r,
                    cost: c,
                },
                Operand::Imm(v) => Op::BinI {
                    op: *op,
                    dst: *dst,
                    lhs: *lhs,
                    imm: *v,
                    cost: c,
                },
            }
        }
        Inst::Cmp { op, dst, lhs, rhs } => match rhs {
            Operand::Reg(r) => Op::CmpR {
                op: *op,
                dst: *dst,
                lhs: *lhs,
                rhs: *r,
            },
            Operand::Imm(v) => Op::CmpI {
                op: *op,
                dst: *dst,
                lhs: *lhs,
                imm: *v,
            },
        },
        Inst::Load { dst, addr, offset } => Op::Load {
            dst: *dst,
            addr: *addr,
            offset: *offset,
        },
        Inst::Store { src, addr, offset } => match src {
            Operand::Reg(r) => Op::StoreR {
                src: *r,
                addr: *addr,
                offset: *offset,
            },
            Operand::Imm(v) => Op::StoreI {
                value: *v,
                addr: *addr,
                offset: *offset,
            },
        },
        Inst::Call { func, args, dst } => Op::Call {
            func: *func,
            num_regs: module.functions[func.index()].num_regs,
            args: args.clone().into_boxed_slice(),
            dst: *dst,
        },
        Inst::CallBuiltin {
            builtin,
            args,
            dst,
            size_arg,
        } => Op::CallBuiltin {
            builtin: *builtin,
            args: args.clone().into_boxed_slice(),
            dst: *dst,
            size_arg: *size_arg,
            est: cost.builtin(*builtin),
        },
        Inst::Tick { amount } => Op::Tick { amount: *amount },
        Inst::TickDyn {
            base,
            per_unit,
            size,
        } => Op::TickDyn {
            base: *base,
            per_unit: *per_unit,
            size: *size,
        },
        Inst::Lock { id } => match id {
            Operand::Reg(r) => Op::LockR(*r),
            Operand::Imm(v) => Op::LockI(*v),
        },
        Inst::Unlock { id } => match id {
            Operand::Reg(r) => Op::UnlockR(*r),
            Operand::Imm(v) => Op::UnlockI(*v),
        },
        Inst::Barrier { id } => Op::Barrier(id.0),
    }
}

fn lower_term(term: &Terminator) -> Op {
    match term {
        Terminator::Br { target } => Op::Br { target: *target },
        Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        } => Op::CondBr {
            cond: *cond,
            then_bb: *then_bb,
            else_bb: *else_bb,
        },
        Terminator::Switch {
            disc,
            cases,
            default,
        } => Op::Switch {
            disc: *disc,
            cases: cases.clone().into_boxed_slice(),
            default: *default,
        },
        Terminator::Ret { value } => match value {
            Some(Operand::Reg(r)) => Op::RetR(*r),
            Some(Operand::Imm(v)) => Op::RetI(*v),
            None => Op::RetVoid,
        },
    }
}

/// Register-only operations: they touch nothing another thread (or the
/// sanitizer, or the arbiter) can observe, so executing them a few cycles
/// early inside a fused run is invisible — the combined countdown restores
/// the exact unfused timing before anything observable happens next.
fn is_pure(op: &Op) -> bool {
    matches!(
        op,
        Op::Const { .. }
            | Op::MovR { .. }
            | Op::MovI { .. }
            | Op::BinR { .. }
            | Op::BinI { .. }
            | Op::CmpR { .. }
            | Op::CmpI { .. }
    )
}

/// Operations that may *head* a fused run: the head executes at its natural
/// cycle (fusion only moves the ops *after* it), so one externally visible
/// op — a memory access (sanitizer event, store retirement) or a tick
/// (logical-clock bump the arbiter reads) — is allowed there and only
/// there.
fn is_head(op: &Op) -> bool {
    is_pure(op)
        || matches!(
            op,
            Op::Load { .. }
                | Op::StoreR { .. }
                | Op::StoreI { .. }
                | Op::Tick { .. }
                | Op::TickDyn { .. }
        )
}

/// Terminators a fused run may end with: pure frame-coordinate updates.
/// `Ret` is excluded — popping the last frame changes the thread's status
/// (an arbiter-visible event that must land on its natural cycle).
fn is_tail(op: &Op) -> bool {
    matches!(op, Op::Br { .. } | Op::CondBr { .. } | Op::Switch { .. })
}

/// The charge [`run_fused`] applies for `op` — used to bound a fused run's
/// combined countdown at lowering time.
fn fuse_cost(op: &Op, cost: &CostModel) -> u64 {
    match op {
        Op::BinR { cost: c, .. } | Op::BinI { cost: c, .. } => *c,
        Op::Load { .. } => cost.load,
        Op::StoreR { .. } | Op::StoreI { .. } => cost.store,
        Op::Tick { .. } => cost.tick,
        Op::TickDyn { .. } => cost.tick + cost.tick_dyn_extra,
        _ => cost.alu,
    }
}

/// Compute the per-`pc` fusion table: the maximal run starting at each op
/// that is one optional externally-visible head followed by register-only
/// ops, optionally closing with the block's branch terminator, capped at
/// [`FUSE_MAX`]. `cost_sum` saturates; the runtime gate treats a huge sum
/// as "never fits", which degrades to unfused execution — always correct.
fn fuse_table(ops: &[Op], starts: &[u32], block_ends: &[usize], cost: &CostModel) -> Vec<Fuse> {
    let mut fuse = vec![
        Fuse {
            len: 1,
            cost_sum: 0
        };
        ops.len()
    ];
    for (b, &end) in block_ends.iter().enumerate() {
        let start = starts[b] as usize;
        for j in start..end {
            if !is_head(&ops[j]) || j == end - 1 {
                continue;
            }
            let mut k = 1usize;
            let mut sum = fuse_cost(&ops[j], cost) as u128;
            let mut i = j + 1;
            while i < end - 1 && k < FUSE_MAX && is_pure(&ops[i]) {
                sum += fuse_cost(&ops[i], cost) as u128;
                k += 1;
                i += 1;
            }
            if i == end - 1 && k < FUSE_MAX && is_tail(&ops[i]) {
                sum += fuse_cost(&ops[i], cost) as u128;
                k += 1;
            }
            if k > 1 {
                fuse[j] = Fuse {
                    len: k as u8,
                    cost_sum: u32::try_from(sum).unwrap_or(u32::MAX),
                };
            }
        }
    }
    fuse
}

/// Execute the run of `len` ops starting at `pc` in one dispatch: the one
/// copy of every fusable op's semantics. Dispatching a single op is the
/// `len == 1` case — `pending` is 0 at entry, so the combined countdown
/// below degenerates to that op's own charge.
///
/// Why `len > 1` is invisible: only the head op can touch anything outside
/// the thread (memory + sanitizer, store retirement, or a tick's clock
/// bump), and it executes at its natural cycle. The register-only tail executes
/// "early", but registers and frame coordinates are thread-private, and
/// the combined countdown `Σ charge_i + (executed − 1)` makes the *next*
/// externally visible step land on exactly the cycle the unfused schedule
/// would reach it — with identical positional RNG draws, identical
/// per-cycle `busy_cycles` accrual (one here, the rest via the countdown),
/// and identical `pending` whenever another component can read it (the
/// caller's gate keeps checkpoint boundaries and the cycle limit outside
/// the divergence window).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn run_fused(
    lf: &LFunc,
    pc: usize,
    len: usize,
    frame: Frame,
    th: &mut Thread,
    mem: &mut [i64],
    san: &mut Option<Box<Sanitizer>>,
    cfg: &MachineConfig,
    cost: &CostModel,
    mem_mask: Option<u64>,
    chunk: Option<ChunkParams>,
    t: usize,
) -> Action {
    let base = frame.reg_base;
    let mut fr = frame;
    let mut pending_sum = 0u64;
    let mut executed = 0u64;
    for op in &lf.ops[pc..pc + len] {
        match op {
            Op::Const { dst, value } | Op::MovI { dst, value } => {
                fr.ip += 1;
                th.m.instructions += 1;
                th.regs[base + dst.index()] = *value;
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
            }
            Op::MovR { dst, src } => {
                fr.ip += 1;
                th.m.instructions += 1;
                th.regs[base + dst.index()] = th.regs[base + src.index()];
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
            }
            Op::BinR {
                op,
                dst,
                lhs,
                rhs,
                cost: c,
            } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + lhs.index()];
                let b = th.regs[base + rhs.index()];
                th.regs[base + dst.index()] = op.apply(a, b);
                pending_sum += charge_amount(th, &cfg.jitter, *c);
                executed += 1;
            }
            Op::BinI {
                op,
                dst,
                lhs,
                imm,
                cost: c,
            } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + lhs.index()];
                th.regs[base + dst.index()] = op.apply(a, *imm);
                pending_sum += charge_amount(th, &cfg.jitter, *c);
                executed += 1;
            }
            Op::CmpR { op, dst, lhs, rhs } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + lhs.index()];
                let b = th.regs[base + rhs.index()];
                th.regs[base + dst.index()] = op.apply(a, b);
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
            }
            Op::CmpI { op, dst, lhs, imm } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + lhs.index()];
                th.regs[base + dst.index()] = op.apply(a, *imm);
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
            }
            // Head-only ops below: `fuse_table` admits them at position 0
            // alone, so they run at their natural cycle and `frame` is
            // still the correct sanitizer site.
            Op::Load { dst, addr, offset } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + addr.index()].wrapping_add(*offset);
                let idx = mem_index_of(mem_mask, mem.len(), a);
                let v = mem[idx];
                if let Some(s) = san.as_deref_mut() {
                    s.access(t as u32, idx, false, frame.site());
                }
                th.regs[base + dst.index()] = v;
                pending_sum += charge_amount(th, &cfg.jitter, cost.load);
                executed += 1;
            }
            Op::StoreR { src, addr, offset } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + addr.index()].wrapping_add(*offset);
                let v = th.regs[base + src.index()];
                let idx = mem_index_of(mem_mask, mem.len(), a);
                mem[idx] = v;
                if let Some(s) = san.as_deref_mut() {
                    s.access(t as u32, idx, true, frame.site());
                }
                pending_sum += charge_amount(th, &cfg.jitter, cost.store);
                retire_stores(th, chunk, 1);
                executed += 1;
            }
            Op::StoreI {
                value,
                addr,
                offset,
            } => {
                fr.ip += 1;
                th.m.instructions += 1;
                let a = th.regs[base + addr.index()].wrapping_add(*offset);
                let idx = mem_index_of(mem_mask, mem.len(), a);
                mem[idx] = *value;
                if let Some(s) = san.as_deref_mut() {
                    s.access(t as u32, idx, true, frame.site());
                }
                pending_sum += charge_amount(th, &cfg.jitter, cost.store);
                retire_stores(th, chunk, 1);
                executed += 1;
            }
            Op::Tick { amount } => {
                fr.ip += 1;
                if cfg.mode.executes_ticks() {
                    th.m.instructions += 1;
                    th.m.ticks_executed += 1;
                    th.clock += amount;
                    pending_sum += charge_amount(th, &cfg.jitter, cost.tick);
                    executed += 1;
                }
                // Else (Baseline / Kendo: the binary was never
                // instrumented): free skip, zero accounting — the rest of
                // the run issues within the same step, exactly where the
                // `Action::Free` retry of a lone tick lands.
            }
            Op::TickDyn {
                base: tick_base,
                per_unit,
                size,
            } => {
                fr.ip += 1;
                if cfg.mode.executes_ticks() {
                    th.m.instructions += 1;
                    th.m.ticks_executed += 1;
                    let s = match *size {
                        Operand::Reg(r) => th.regs[base + r.index()],
                        Operand::Imm(v) => v,
                    }
                    .max(0) as u64;
                    th.clock += tick_base + per_unit * s;
                    pending_sum += charge_amount(th, &cfg.jitter, cost.tick + cost.tick_dyn_extra);
                    executed += 1;
                }
            }
            // Tail terminators: pure frame-coordinate updates.
            Op::Br { target } => {
                th.m.instructions += 1;
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
                fr.block = *target;
                fr.ip = 0;
            }
            Op::CondBr {
                cond,
                then_bb,
                else_bb,
            } => {
                th.m.instructions += 1;
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
                let c = th.regs[base + cond.index()];
                fr.block = if c != 0 { *then_bb } else { *else_bb };
                fr.ip = 0;
            }
            Op::Switch {
                disc,
                cases,
                default,
            } => {
                th.m.instructions += 1;
                pending_sum += charge_amount(th, &cfg.jitter, cost.alu);
                executed += 1;
                let d = th.regs[base + disc.index()];
                fr.block = cases
                    .iter()
                    .find(|(v, _)| *v == d)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                fr.ip = 0;
            }
            _ => unreachable!("fuse_table admits only pure, head, and tail ops"),
        }
    }
    *th.frames.last_mut().unwrap() = fr;
    if executed == 0 {
        // A lone tick in a mode that skips ticks (every longer run has an
        // executing op behind its head): no cycle, the stepper retries.
        return Action::Free;
    }
    th.m.busy_cycles += 1;
    // `+=`, not `=`: a chunk-clock store retirement above may already have
    // deposited its interrupt countdown.
    th.pending += pending_sum + (executed - 1);
    Action::None
}

/// The threaded-code [`ExecBackend`]: dispatches over the pre-decoded
/// [`ThreadedProgram`] while driving the shared determinism core.
pub(crate) struct ThreadedBackend {
    pub(crate) prog: ThreadedProgram,
}

impl ThreadedBackend {
    /// The one op with cross-cutting state (the scratch argument buffer and
    /// the shared [`DetCore::apply_builtin`] semantics): executed on the
    /// whole core, outside the fast path's field borrows.
    fn exec_builtin(&self, core: &mut DetCore<'_>, t: usize) -> Action {
        let frame = *core.state.threads[t].frames.last().unwrap();
        let base = frame.reg_base;
        let lf = &self.prog.funcs[frame.func.index()];
        let Op::CallBuiltin {
            builtin,
            args,
            dst,
            size_arg,
            est,
        } = &lf.ops[lf.starts[frame.block.index()] as usize + frame.ip]
        else {
            unreachable!("the fast path handles every other op");
        };
        core.state.threads[t].frames.last_mut().unwrap().ip += 1;
        core.state.threads[t].m.instructions += 1;
        let mut argv = std::mem::take(&mut core.scratch_args);
        argv.clear();
        argv.extend(args.iter().map(|&a| core.operand_at(t, base, a)));
        let size = size_arg.and_then(|i| argv.get(i).copied()).unwrap_or(0);
        let cycles = est.eval(size);
        let result = core.apply_builtin(t, *builtin, &argv, size, frame);
        core.scratch_args = argv;
        if let Some(d) = dst {
            core.set_reg_at(t, base, *d, result);
        }
        core.charge(t, cycles.max(1));
        Action::None
    }
}

impl ExecBackend for ThreadedBackend {
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action {
        // Fast path: one flat fetch, then direct work on disjoint field
        // borrows of the core — every metric increment, RNG draw, and
        // sanitizer site matches the interpreter's exactly (that contract
        // is what the differential suite pins down).
        {
            let cfg = &core.cfg;
            let cost = core.cost;
            let mem_mask = core.mem_mask;
            let ckpt_every = core.ckpt_every;
            let chunk = core.chunk;
            let cycle = core.state.cycle;
            let mem = &mut core.state.mem;
            let san = &mut core.state.san;
            let th = &mut core.state.threads[t];
            let frame = *th.frames.last().unwrap();
            let base = frame.reg_base;
            let lf = &self.prog.funcs[frame.func.index()];
            let pc = lf.starts[frame.block.index()] as usize + frame.ip;
            let op = &lf.ops[pc];
            // Every head or tail op goes through the run loop: the whole
            // statically-identified run in one step when nothing can
            // observe the difference, else the op alone — see `run_fused`
            // for the invisibility argument and the gate conditions it
            // depends on.
            if is_head(op) || is_tail(op) {
                let fuse = lf.fuse[pc];
                let mut run_len = 1;
                if fuse.len > 1 {
                    // Upper bound on the divergence window: every charge is
                    // at most `cost + max_extra`, plus the chunk-clock
                    // store-retirement interrupt the head may incur.
                    let mut w =
                        fuse.cost_sum as u64 + fuse.len as u64 * (cfg.jitter.max_extra.max(1) + 1);
                    if let Some(cp) = chunk {
                        w = w.saturating_add(cp.interrupt_cost);
                    }
                    let fits_limit = cycle.saturating_add(w) < cfg.max_cycles;
                    let fits_ckpt = ckpt_every == 0 || cycle % ckpt_every + w < ckpt_every;
                    if fits_limit && fits_ckpt {
                        run_len = fuse.len as usize;
                    }
                }
                // Two call sites, one callee: inlined with a constant
                // length, the loop and the countdown arithmetic fold away
                // for lone ops (worth ~6 % of `vm_compute` ops/s).
                if run_len == 1 {
                    return run_fused(
                        lf, pc, 1, frame, th, mem, san, cfg, cost, mem_mask, chunk, t,
                    );
                }
                return run_fused(
                    lf, pc, run_len, frame, th, mem, san, cfg, cost, mem_mask, chunk, t,
                );
            }
            match op {
                Op::Call {
                    func,
                    num_regs,
                    args,
                    dst,
                } => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    // Grow the register file first, then evaluate arguments
                    // straight into the callee's slots: the caller's
                    // registers live below `reg_base`, so the resize cannot
                    // disturb them and no temporary vector is needed.
                    let reg_base = th.regs.len();
                    th.regs.resize(reg_base + *num_regs as usize, 0);
                    for (i, &a) in args.iter().enumerate() {
                        let v = match a {
                            Operand::Reg(r) => th.regs[base + r.index()],
                            Operand::Imm(v) => v,
                        };
                        th.regs[reg_base + i] = v;
                    }
                    th.frames.push(Frame {
                        func: *func,
                        block: BlockId(0),
                        ip: 0,
                        reg_base,
                        ret_dst: *dst,
                    });
                    charge_thread(th, &cfg.jitter, cost.call);
                    return Action::None;
                }
                Op::LockR(r) => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    return Action::Lock(th.regs[base + r.index()]);
                }
                Op::LockI(v) => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    return Action::Lock(*v);
                }
                Op::UnlockR(r) => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    return Action::Unlock(th.regs[base + r.index()]);
                }
                Op::UnlockI(v) => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    return Action::Unlock(*v);
                }
                Op::Barrier(id) => {
                    th.frames.last_mut().unwrap().ip += 1;
                    th.m.instructions += 1;
                    return Action::Barrier(*id);
                }
                // Same metric/charge order as the interpreter; `ip` dies
                // with the frame.
                ret @ (Op::RetR(_) | Op::RetI(_) | Op::RetVoid) => {
                    th.m.instructions += 1;
                    charge_thread(th, &cfg.jitter, cost.alu);
                    let v = match ret {
                        Op::RetR(r) => Some(th.regs[base + r.index()]),
                        Op::RetI(v) => Some(*v),
                        _ => None,
                    };
                    let popped = th.frames.pop().unwrap();
                    th.regs.truncate(popped.reg_base);
                    if th.frames.is_empty() {
                        return Action::Exited;
                    }
                    if let (Some(dst), Some(v)) = (popped.ret_dst, v) {
                        let caller_base = th.frames.last().unwrap().reg_base;
                        th.regs[caller_base + dst.index()] = v;
                    }
                    return Action::None;
                }
                Op::CallBuiltin { .. } => {} // falls through to the slow path
                _ => unreachable!("head and tail ops took the run loop above"),
            }
        }
        self.exec_builtin(core, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;

    fn sample() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry");
        let x = fb.iconst(3);
        let y = fb.add(x, 4);
        fb.store(y, 0, x);
        fb.lock(1i64);
        fb.unlock(1i64);
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    #[test]
    fn lowering_preserves_shape() {
        let m = sample();
        let p = lower(&m, &CostModel::default());
        assert_eq!(p.funcs.len(), m.functions.len());
        for (lf, f) in p.funcs.iter().zip(&m.functions) {
            assert_eq!(lf.starts.len(), f.blocks.len());
            let total: usize = f.blocks.iter().map(|b| b.insts.len() + 1).sum();
            assert_eq!(lf.ops.len(), total);
            for (b, block) in f.blocks.iter().enumerate() {
                // Block b's ops span starts[b] .. starts[b] + insts + 1,
                // the last slot being its terminator.
                let start = lf.starts[b] as usize;
                let end = start + block.insts.len() + 1;
                assert!(end <= lf.ops.len());
                assert!(matches!(
                    lf.ops[end - 1],
                    Op::Br { .. }
                        | Op::CondBr { .. }
                        | Op::Switch { .. }
                        | Op::RetR(_)
                        | Op::RetI(_)
                        | Op::RetVoid
                ));
                if b + 1 < f.blocks.len() {
                    assert_eq!(lf.starts[b + 1] as usize, end);
                }
            }
        }
    }

    #[test]
    fn fuse_table_is_well_formed() {
        let m = sample();
        let cost = CostModel::default();
        let p = lower(&m, &cost);
        for (lf, f) in p.funcs.iter().zip(&m.functions) {
            assert_eq!(lf.fuse.len(), lf.ops.len());
            for b in 0..f.blocks.len() {
                let start = lf.starts[b] as usize;
                let end = start + f.blocks[b].insts.len() + 1;
                for pc in start..end {
                    let fu = lf.fuse[pc];
                    let k = fu.len as usize;
                    assert!((1..=FUSE_MAX).contains(&k));
                    if k == 1 {
                        continue;
                    }
                    assert!(pc + k <= end, "run leaves its block");
                    assert!(is_head(&lf.ops[pc]), "run head must be a head op");
                    let mut sum = fuse_cost(&lf.ops[pc], &cost);
                    for i in pc + 1..pc + k {
                        if i == end - 1 {
                            assert!(is_tail(&lf.ops[i]), "terminator slot needs a tail op");
                        } else {
                            assert!(is_pure(&lf.ops[i]), "run middles must be register-only");
                        }
                        sum += fuse_cost(&lf.ops[i], &cost);
                    }
                    assert_eq!(fu.cost_sum as u64, sum, "cost bound drifted");
                }
            }
        }
        // The sample opens with const+add: if that stops fusing, the test
        // has gone vacuous.
        assert!(p.funcs[0].fuse[0].len >= 2, "const+add should fuse");
    }
}
