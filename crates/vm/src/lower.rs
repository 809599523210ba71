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
//! One dispatch runs the op at the thread's `pc` on its natural cycle and
//! then every following thread-private op — ALU, const, mov, cmp, `br`,
//! `condbr`, `switch`, `call`, a `ret` that is not the thread's last frame,
//! a tick, a builtin that only computes — across blocks and frames,
//! stopping before the next op anything outside the thread can observe
//! (lock, unlock, barrier, memset, memcpy, the final `ret`, a load or
//! store) or the first op that would issue at or after `next_stop`. Loads
//! and stores join the run when the core found at
//! the issue that no other thread can touch memory before this one next
//! synchronizes, or when the op's thread mask, set by the privacy proof in
//! `Machine::new`, names this thread. An executing tick's one outside
//! reader is the arbiter, which sees a clock from the cycle after its issue
//! on: a tick after the head leaves `(issue cycle + 1, clock)` in the
//! core's `published` list, and the core shows it to the arbiter at that
//! cycle; so does a store whose chunk interrupt moves the clock. The op
//! kinds, the masks and the core's verdict decide where a run stops and the
//! exact issue cycle decides where the gate cuts it, so nothing about runs
//! is computed at lowering time (DESIGN.md §15, "Fused dispatch").
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

use crate::builtins;
use crate::checkpoint::Frame;
use crate::core::{
    charge_amount, charge_thread, mem_index_of, retire_stores, Action, DetCore, ExecBackend,
    PUBLISHED_CAP,
};
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
    // A load or store carries the threads whose words at this site no
    // other thread can touch, bit `t` for thread `t` (`crate::privacy`).
    Load {
        dst: Reg,
        addr: Reg,
        offset: i64,
        private: u64,
    },
    StoreR {
        src: Reg,
        addr: Reg,
        offset: i64,
        private: u64,
    },
    StoreI {
        value: i64,
        addr: Reg,
        offset: i64,
        private: u64,
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

/// A lowered function: every block's instructions plus its terminator,
/// flattened into one array. Block `b` occupies `starts[b] ..=
/// starts[b] + insts_len`, the last slot being the terminator, so the
/// executor's fetch is `ops[starts[block] + ip]` — `ip` stays
/// source-relative (shape preservation) while the fetch is flat.
pub(crate) struct LFunc {
    pub(crate) ops: Vec<Op>,
    pub(crate) starts: Vec<u32>,
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
            for b in &f.blocks {
                starts.push(ops.len() as u32);
                ops.extend(b.insts.iter().map(|i| lower_inst(module, cost, i)));
                ops.push(lower_term(&b.term));
            }
            LFunc { ops, starts }
        })
        .collect();
    ThreadedProgram { funcs }
}

impl ThreadedProgram {
    /// Let the loads and stores the privacy proof cleared join a dispatch
    /// after its head (`crate::privacy`).
    pub(crate) fn mark_private(&mut self, sites: &[(u32, u32, u64)]) {
        for &(func, op, mask) in sites {
            match &mut self.funcs[func as usize].ops[op as usize] {
                Op::Load { private, .. }
                | Op::StoreR { private, .. }
                | Op::StoreI { private, .. } => *private = mask,
                _ => unreachable!("the proof clears loads and stores only"),
            }
        }
    }
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
            private: 0,
        },
        Inst::Store { src, addr, offset } => match src {
            Operand::Reg(r) => Op::StoreR {
                src: *r,
                addr: *addr,
                offset: *offset,
                private: 0,
            },
            Operand::Imm(v) => Op::StoreI {
                value: *v,
                addr: *addr,
                offset: *offset,
                private: 0,
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

/// The threaded-code [`ExecBackend`]: dispatches over the pre-decoded
/// [`ThreadedProgram`] while driving the shared determinism core.
pub(crate) struct ThreadedBackend {
    pub(crate) prog: ThreadedProgram,
}

impl ThreadedBackend {
    /// `memset` and `memcpy`, the ops with cross-cutting state (the scratch
    /// argument buffer, the memory writes and their sanitizer sites in
    /// [`DetCore::apply_builtin`]): executed on the whole core, outside the
    /// fast path's field borrows.
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
    const RUNS_AHEAD: bool = true;

    /// One dispatch: the op at the thread's `pc` at its natural cycle, then
    /// every following thread-private op up to the next one another
    /// thread, the arbiter or the sanitizer can observe, or up to the
    /// first op whose own issue cycle reaches `next_stop` (DESIGN.md §15,
    /// "Fused dispatch").
    ///
    /// Why that is invisible: the ops after the head touch only registers,
    /// frames, the thread's clock and memory no other thread can touch
    /// before the run ends, and the arbiter, the clock's one reader, is
    /// handed each new clock at the cycle the unfused schedule shows it
    /// at; their charges draw the jitter RNG in program
    /// order; and the combined countdown puts the next observable op on
    /// exactly the cycle the unfused schedule issues it at. `next` is that
    /// issue cycle for the op the loop looks at, so the gate
    /// `next >= next_stop` keeps every op that would issue at or after a
    /// snapshot or the cycle limit for a later dispatch, and a snapshot
    /// sees the state the per-op schedule has there: every published clock
    /// is due by the stop.
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action {
        // Fast path: direct work on disjoint field borrows of the core —
        // every metric increment, RNG draw and sanitizer site matches the
        // interpreter's exactly (the determinism matrix pins that).
        'fast: {
            let cfg = &core.cfg;
            let cost = core.cost;
            let gate = core.gate;
            let ticks = cfg.mode.executes_ticks();
            // Only deterministic modes' arbiters read clocks.
            let det = cfg.mode.deterministic();
            let mem_mask = core.mem_mask;
            let next_stop = core.next_stop;
            let chunk = core.chunk;
            let alone = core.alone;
            // Every mask is 0 with more than 64 threads.
            let bit = 1u64.checked_shl(t as u32).unwrap_or(0);
            let cycle = core.state.cycle;
            let mem = &mut core.state.mem;
            let san = &mut core.state.san;
            let th = &mut core.state.threads[t];
            let profile = &mut core.profile;
            let shown = &mut core.views[t].clock;
            // Every earlier publication is due by now; the view takes this
            // dispatch's clocks instead.
            core.publish_from[t] = 0;
            let published = &mut core.published[t];
            published.clear();
            debug_assert_eq!(th.pending, 0, "a ready thread's countdown is in `due`");
            let mut fr = *th.frames.last().expect("a ready thread has a frame");
            let mut base = fr.reg_base;
            let mut lf = &self.prog.funcs[fr.func.index()];
            let mut start = lf.starts[fr.block.index()] as usize;
            // The issue cycle of the op under `pc`, had every op so far
            // issued alone.
            let mut next = cycle;
            // The gate: `next_stop`, or 0 once the run has published
            // `PUBLISHED_CAP` clocks.
            let mut stop = next_stop;
            let mut executed = 0u64;
            // An op anything outside the thread can observe runs only at
            // the head of a dispatch.
            macro_rules! head {
                () => {
                    if executed > 0 {
                        break;
                    }
                };
            }
            // A thread-private op joins the run only if it would issue
            // before the stop. The head issues at `cycle`, which a round
            // never reaches `next_stop` at, so this never cuts it.
            macro_rules! private {
                () => {
                    if next >= stop {
                        profile.gate_cuts += u64::from(next >= next_stop);
                        break;
                    }
                };
            }
            // A head that ends its dispatch on an action for the core.
            macro_rules! sync {
                ($action:expr) => {{
                    head!();
                    fr.ip += 1;
                    th.m.instructions += 1;
                    *th.frames.last_mut().expect("a ready thread has a frame") = fr;
                    profile.count_run(1);
                    return $action;
                }};
            }
            // Apply an op's charge: it issued at `next`, so the op after
            // it issues one cycle and the charge later. Every op the loop
            // charges is one instruction, counted at the end.
            macro_rules! charge {
                ($cost:expr) => {{
                    next += 1 + charge_amount(&gate, &mut th.rng, $cost);
                    executed += 1;
                }};
            }
            // A load or store is thread-private while the core finds that
            // no other thread can touch memory before this one next
            // synchronizes, or at a site whose words only this thread ever
            // touches; otherwise it heads its dispatch.
            macro_rules! memop {
                ($private:expr) => {
                    if !alone && $private & bit == 0 {
                        head!();
                    } else if executed > 0 {
                        private!();
                        profile.memops_run_ahead += 1;
                    }
                };
            }
            // The op at `next` moved the clock the arbiter reads from
            // `$before`. After the head the arbiter sees the new clock from
            // the cycle after the op's issue, as it sees every issue's
            // clock; the head's own clock, which a head tick or a chunk
            // interrupt moved, is what it sees until then.
            macro_rules! publish {
                ($before:expr) => {
                    if executed > 0 && det {
                        if published.is_empty() {
                            *shown = $before;
                        }
                        published.push((next + 1, th.clock));
                        if published.len() == PUBLISHED_CAP {
                            stop = 0;
                        }
                    }
                };
            }
            macro_rules! tick {
                ($amount:expr) => {{
                    let before = th.clock;
                    th.clock += $amount;
                    th.m.ticks_executed += 1;
                    publish!(before);
                    profile.ticks_published += u64::from(executed > 0 && det);
                }};
            }
            // A store retires before its charge: a chunk policy's interrupt
            // moves the clock, as a tick does, and delays the next op.
            macro_rules! retire_store {
                () => {{
                    let before = th.clock;
                    retire_stores(th, chunk, 1);
                    if th.clock != before {
                        publish!(before);
                    }
                    next += std::mem::take(&mut th.pending);
                }};
            }
            loop {
                match &lf.ops[start + fr.ip] {
                    Op::Const { dst, value } | Op::MovI { dst, value } => {
                        private!();
                        fr.ip += 1;
                        th.regs[base + dst.index()] = *value;
                        charge!(cost.alu);
                    }
                    Op::MovR { dst, src } => {
                        private!();
                        fr.ip += 1;
                        th.regs[base + dst.index()] = th.regs[base + src.index()];
                        charge!(cost.alu);
                    }
                    Op::BinR {
                        op,
                        dst,
                        lhs,
                        rhs,
                        cost: c,
                    } => {
                        private!();
                        fr.ip += 1;
                        let a = th.regs[base + lhs.index()];
                        let b = th.regs[base + rhs.index()];
                        th.regs[base + dst.index()] = op.apply(a, b);
                        charge!(*c);
                    }
                    Op::BinI {
                        op,
                        dst,
                        lhs,
                        imm,
                        cost: c,
                    } => {
                        private!();
                        fr.ip += 1;
                        let a = th.regs[base + lhs.index()];
                        th.regs[base + dst.index()] = op.apply(a, *imm);
                        charge!(*c);
                    }
                    Op::CmpR { op, dst, lhs, rhs } => {
                        private!();
                        fr.ip += 1;
                        let a = th.regs[base + lhs.index()];
                        let b = th.regs[base + rhs.index()];
                        th.regs[base + dst.index()] = op.apply(a, b);
                        charge!(cost.alu);
                    }
                    Op::CmpI { op, dst, lhs, imm } => {
                        private!();
                        fr.ip += 1;
                        let a = th.regs[base + lhs.index()];
                        th.regs[base + dst.index()] = op.apply(a, *imm);
                        charge!(cost.alu);
                    }
                    Op::Load {
                        dst,
                        addr,
                        offset,
                        private,
                    } => {
                        memop!(*private);
                        let site = fr.site();
                        fr.ip += 1;
                        let a = th.regs[base + addr.index()].wrapping_add(*offset);
                        let idx = mem_index_of(mem_mask, mem.len(), a);
                        let v = mem[idx];
                        if let Some(s) = san.as_deref_mut() {
                            s.access(t as u32, idx, false, site);
                        }
                        th.regs[base + dst.index()] = v;
                        charge!(cost.load);
                    }
                    Op::StoreR {
                        src,
                        addr,
                        offset,
                        private,
                    } => {
                        memop!(*private);
                        let site = fr.site();
                        fr.ip += 1;
                        let a = th.regs[base + addr.index()].wrapping_add(*offset);
                        let v = th.regs[base + src.index()];
                        let idx = mem_index_of(mem_mask, mem.len(), a);
                        mem[idx] = v;
                        if let Some(s) = san.as_deref_mut() {
                            s.access(t as u32, idx, true, site);
                        }
                        retire_store!();
                        charge!(cost.store);
                    }
                    Op::StoreI {
                        value,
                        addr,
                        offset,
                        private,
                    } => {
                        memop!(*private);
                        let site = fr.site();
                        fr.ip += 1;
                        let a = th.regs[base + addr.index()].wrapping_add(*offset);
                        let idx = mem_index_of(mem_mask, mem.len(), a);
                        mem[idx] = *value;
                        if let Some(s) = san.as_deref_mut() {
                            s.access(t as u32, idx, true, site);
                        }
                        retire_store!();
                        charge!(cost.store);
                    }
                    // In a mode that skips ticks the binary never contained
                    // them: no instruction, no cycle, and private.
                    Op::Tick { .. } | Op::TickDyn { .. } if !ticks => {
                        private!();
                        fr.ip += 1;
                    }
                    // An executing tick is private too: its clock is
                    // published (see `tick!`).
                    Op::Tick { amount } => {
                        private!();
                        fr.ip += 1;
                        tick!(amount);
                        charge!(cost.tick);
                    }
                    Op::TickDyn {
                        base: tick_base,
                        per_unit,
                        size,
                    } => {
                        private!();
                        fr.ip += 1;
                        let s = match *size {
                            Operand::Reg(r) => th.regs[base + r.index()],
                            Operand::Imm(v) => v,
                        }
                        .max(0) as u64;
                        tick!(tick_base + per_unit * s);
                        charge!(cost.tick + cost.tick_dyn_extra);
                    }
                    // Frame and register-file updates: private.
                    Op::Call {
                        func,
                        num_regs,
                        args,
                        dst,
                    } => {
                        private!();
                        fr.ip += 1;
                        // Grow the register file first, then evaluate
                        // arguments straight into the callee's slots: the
                        // caller's registers live below `reg_base`, so the
                        // resize cannot disturb them.
                        let reg_base = th.regs.len();
                        th.regs.resize(reg_base + *num_regs as usize, 0);
                        for (i, &a) in args.iter().enumerate() {
                            th.regs[reg_base + i] = match a {
                                Operand::Reg(r) => th.regs[base + r.index()],
                                Operand::Imm(v) => v,
                            };
                        }
                        *th.frames.last_mut().expect("a ready thread has a frame") = fr;
                        fr = Frame {
                            func: *func,
                            block: BlockId(0),
                            ip: 0,
                            reg_base,
                            ret_dst: *dst,
                        };
                        th.frames.push(fr);
                        charge!(cost.call);
                        base = reg_base;
                        lf = &self.prog.funcs[func.index()];
                        start = 0;
                    }
                    Op::Br { target } => {
                        private!();
                        charge!(cost.alu);
                        fr.block = *target;
                        fr.ip = 0;
                        start = lf.starts[target.index()] as usize;
                    }
                    Op::CondBr {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        private!();
                        charge!(cost.alu);
                        let c = th.regs[base + cond.index()];
                        fr.block = if c != 0 { *then_bb } else { *else_bb };
                        fr.ip = 0;
                        start = lf.starts[fr.block.index()] as usize;
                    }
                    Op::Switch {
                        disc,
                        cases,
                        default,
                    } => {
                        private!();
                        charge!(cost.alu);
                        let d = th.regs[base + disc.index()];
                        fr.block = cases
                            .iter()
                            .find(|(v, _)| *v == d)
                            .map(|(_, b)| *b)
                            .unwrap_or(*default);
                        fr.ip = 0;
                        start = lf.starts[fr.block.index()] as usize;
                    }
                    // Same metric/charge order as the interpreter; `ip`
                    // dies with the frame.
                    ret @ (Op::RetR(_) | Op::RetI(_) | Op::RetVoid) => {
                        let v = match ret {
                            Op::RetR(r) => Some(th.regs[base + r.index()]),
                            Op::RetI(v) => Some(*v),
                            _ => None,
                        };
                        if th.frames.len() == 1 {
                            // The thread's last frame: its exit is a status
                            // change the arbiter acts on.
                            head!();
                            th.m.instructions += 1;
                            charge_thread(th, &gate, cost.alu);
                            th.frames.pop();
                            th.regs.truncate(fr.reg_base);
                            profile.count_run(1);
                            return Action::Exited;
                        }
                        private!();
                        charge!(cost.alu);
                        th.frames.pop();
                        th.regs.truncate(fr.reg_base);
                        let ret_dst = fr.ret_dst;
                        fr = *th.frames.last().expect("a non-final return has a caller");
                        base = fr.reg_base;
                        lf = &self.prog.funcs[fr.func.index()];
                        start = lf.starts[fr.block.index()] as usize;
                        if let (Some(dst), Some(v)) = (ret_dst, v) {
                            th.regs[base + dst.index()] = v;
                        }
                    }
                    Op::LockR(r) => sync!(Action::Lock(th.regs[base + r.index()])),
                    Op::LockI(v) => sync!(Action::Lock(*v)),
                    Op::UnlockR(r) => sync!(Action::Unlock(th.regs[base + r.index()])),
                    Op::UnlockI(v) => sync!(Action::Unlock(*v)),
                    Op::Barrier(id) => sync!(Action::Barrier(*id)),
                    // A builtin that only computes is private, charged as
                    // `exec_builtin` charges it; one that writes memory
                    // heads its dispatch and takes the slow path.
                    Op::CallBuiltin {
                        builtin,
                        args,
                        dst,
                        size_arg,
                        est,
                    } => {
                        let arg = |i: usize| match args.get(i) {
                            Some(Operand::Reg(r)) => th.regs[base + r.index()],
                            Some(Operand::Imm(v)) => *v,
                            None => 0,
                        };
                        let Some(v) = builtins::pure(*builtin, arg(0)) else {
                            head!();
                            // Past any skipped ticks, for the slow path below.
                            *th.frames.last_mut().expect("a ready thread has a frame") = fr;
                            profile.count_run(1);
                            break 'fast;
                        };
                        private!();
                        let size = size_arg.map_or(0, arg);
                        fr.ip += 1;
                        if let Some(d) = dst {
                            th.regs[base + d.index()] = v;
                        }
                        charge!(est.eval(size).max(1));
                    }
                }
            }
            *th.frames.last_mut().expect("a ready thread has a frame") = fr;
            th.m.instructions += executed;
            // One busy cycle now, the rest of the run as the countdown.
            th.m.busy_cycles += 1;
            th.pending = next - cycle - 1;
            profile.count_run(executed as usize);
            if let Some(&(at, _)) = published.first() {
                core.next_publication = core.next_publication.min(at);
            }
            return Action::None;
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

    /// `leaf(a) = a + 1`, and a `main` that reaches every kind of op the
    /// dispatch loop tells apart: an instrumentation tick, a `rand`, `br`
    /// and `condbr` into new blocks, a call and its non-final `ret`, a
    /// load, a store, a memset, lock, unlock, barrier and the final `ret`.
    fn fusion_sample() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 1);
        fb.block("entry");
        let a = fb.param(0);
        let b = fb.add(a, 1);
        fb.ret(b);
        let leaf = fb.finish_into(&mut m);
        let mut fb = FunctionBuilder::new("main", 0);
        fb.block("entry");
        let test = fb.create_block("test");
        let body = fb.create_block("body");
        let x = fb.iconst(1);
        fb.push(Inst::Tick { amount: 3 });
        let y = fb.add(x, 2);
        fb.builtin(Builtin::Rand, vec![y.into()], None);
        fb.br(test);
        fb.switch_to(test);
        let c = fb.cmp(CmpOp::Lt, y, 10);
        fb.cond_br(c, body, test);
        fb.switch_to(body);
        let z = fb.call(leaf, vec![y.into()]);
        let w = fb.add(z, 100);
        let v = fb.load(w, 0);
        fb.store(w, 1, v);
        let n = fb.add(v, 8);
        fb.builtin_void(Builtin::Memset, vec![w.into(), 0.into(), n.into()], Some(2));
        fb.lock(1i64);
        fb.unlock(1i64);
        fb.barrier(detlock_ir::types::BarrierId(0));
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    /// Where a dispatch leaves the thread: `(func, block, ip, action)`.
    type Stop = (u32, u32, u32, &'static str);

    /// Where each dispatch of `fusion_sample`'s `main` leaves the thread,
    /// with the stop `gap` cycles after the cycle every dispatch issues at,
    /// `alone` as what the core reports at each issue and `load` as the
    /// threads the load is private to; and how many ticks it published and
    /// how many loads and stores it ran after a head.
    fn dispatches(
        mode: crate::machine::ExecMode,
        gap: u64,
        alone: bool,
        load: u64,
    ) -> (Vec<Stop>, (u64, u64)) {
        use crate::checkpoint::RunState;
        use crate::machine::{MachineConfig, ThreadSpec};
        let m = fusion_sample();
        let cost = CostModel::default();
        let cfg = MachineConfig {
            mode,
            ..MachineConfig::default()
        };
        let specs = [ThreadSpec {
            func: FuncId(1),
            args: vec![],
        }];
        let state = RunState::new(&m, &specs, &cfg);
        let mut core = DetCore::new(&m, &cost, cfg, state);
        core.next_stop = gap;
        let mut engine = ThreadedBackend {
            prog: lower(&m, &cost),
        };
        // main's load: block 2 (body), ip 2.
        let op = engine.prog.funcs[1].starts[2] + 2;
        engine.prog.mark_private(&[(1, op, load)]);
        let mut stops = Vec::new();
        loop {
            core.alone = alone;
            let action = match engine.exec_next(&mut core, 0) {
                Action::None => "",
                Action::Lock(_) => "lock",
                Action::Unlock(_) => "unlock",
                Action::Barrier(_) => "barrier",
                Action::Exited => "exit",
                Action::Free => "free",
            };
            let th = &mut core.state.threads[0];
            // What the core's countdown does between two issues.
            th.pending = 0;
            let Some(fr) = th.frames.last() else {
                stops.push((0, 0, 0, action));
                let p = &core.profile;
                return (stops, (p.ticks_published, p.memops_run_ahead));
            };
            let (func, block, ip) = fr.site();
            stops.push((func, block, ip, action));
        }
    }

    /// The fusion rule, position by position: a dispatch crosses `br` and
    /// `condbr` into the next block, `call` into the callee, a non-final
    /// `ret` back to the caller, a tick, executed or skipped, and a builtin
    /// that only computes; it stops before lock, unlock, barrier, a
    /// builtin that writes memory and the final `ret`, and
    /// before a load or a store unless the core reports that no other
    /// thread can touch memory or the site is the thread's alone. With the
    /// stop one cycle away every dispatch
    /// is a single op. The determinism matrix cannot see a lost fusion (the
    /// numbers stay right), so this pins it.
    #[test]
    fn dispatches_run_up_to_the_next_observable_op() {
        use crate::machine::ExecMode;
        // main's blocks: 0 entry, 1 test, 2 body (load at ip 2).
        let tail = [
            (1, 2, 2, ""), // const, tick, add, rand, br, cmp, condbr, call,
            //                leaf's add and ret, the caller's add
            (1, 2, 3, ""), // the load, up to the store
            (1, 2, 5, ""), // the store and the add, up to the memset
            (1, 2, 6, ""), // the memset, alone
            (1, 2, 7, "lock"),
            (1, 2, 8, "unlock"),
            (1, 2, 9, "barrier"),
            (0, 0, 0, "exit"),
        ];
        // Det executes the tick after the run's head, and publishes its
        // clock; Baseline skips it. Either way it joins the run.
        let (det, counts) = dispatches(ExecMode::Det, u64::MAX, false, 0);
        assert_eq!((det, counts), (tail.to_vec(), (1, 0)));
        let (baseline, counts) = dispatches(ExecMode::Baseline, u64::MAX, false, 0);
        assert_eq!((baseline, counts), (tail.to_vec(), (0, 0)));
        // With no other thread able to touch memory the load and the store
        // join the first run too, which now stops at the memset.
        let (alone, counts) = dispatches(ExecMode::Det, u64::MAX, true, 0);
        assert_eq!((alone[0], &alone[1..]), ((1, 2, 5, ""), &tail[3..]));
        assert_eq!(counts, (1, 2));
        // Beside a ready thread, a load private to this thread joins the
        // first run, which now stops at the store; one private to another
        // thread heads its own dispatch.
        let (private, counts) = dispatches(ExecMode::Det, u64::MAX, false, 0b01);
        assert_eq!((private, counts), (tail[1..].to_vec(), (1, 1)));
        let (shared, counts) = dispatches(ExecMode::Det, u64::MAX, false, 0b10);
        assert_eq!((shared, counts), (tail.to_vec(), (1, 0)));
        // The gate: a stop one cycle on admits nothing after the head, so
        // a dispatch is one op — a skipped tick still joins its successor.
        let (stepped, _) = dispatches(ExecMode::Baseline, 1, false, 0);
        assert_eq!(dispatches(ExecMode::Baseline, 1, true, 0b01).0, stepped);
        assert_eq!(
            stepped[..12],
            [
                (1, 0, 1, ""), // const
                (1, 0, 3, ""), // skipped tick + add
                (1, 0, 4, ""), // rand
                (1, 1, 0, ""), // br
                (1, 1, 1, ""), // cmp
                (1, 2, 0, ""), // condbr
                (0, 0, 0, ""), // call
                (0, 0, 1, ""), // leaf's add
                (1, 2, 1, ""), // ret
                (1, 2, 2, ""), // add
                (1, 2, 3, ""), // load
                (1, 2, 4, ""), // store
            ]
        );
        assert_eq!(stepped[12..], tail[2..]);
    }
}
