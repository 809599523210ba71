//! The tree-walking interpreter: the oracle.
//!
//! Decodes the IR on every step — no lowering, no pre-decoding, no fusion —
//! so it is simple enough to audit against the paper, and every other way
//! of executing a module ([`crate::lower`]) is differentially tested
//! against it.

use crate::checkpoint::Frame;
use crate::core::{Action, DetCore, ExecBackend};
use detlock_ir::inst::{Inst, Terminator};
use detlock_ir::types::{BlockId, Reg};

/// See the module docs.
pub(crate) struct InterpBackend;

impl ExecBackend for InterpBackend {
    const RUNS_AHEAD: bool = false;

    #[inline]
    fn exec_next(&self, core: &mut DetCore<'_>, t: usize) -> Action {
        core.interp_exec_next(t)
    }
}

impl DetCore<'_> {
    #[inline]
    fn set_reg(&mut self, t: usize, r: Reg, v: i64) {
        let th = &mut self.state.threads[t];
        let base = th.frames.last().unwrap().reg_base;
        th.regs[base + r.index()] = v;
    }

    /// The interpreter's fetch/apply/charge (see [`InterpBackend`]). The
    /// function/block/frame state is re-derived from the IR each step; the
    /// frame is `Copy` and the register base is hoisted once, so the loop
    /// carries no per-step allocation or repeated `frames.last()` walks.
    fn interp_exec_next(&mut self, t: usize) -> Action {
        let frame = *self.state.threads[t].frames.last().unwrap();
        let base = frame.reg_base;
        // `module` is a `&'m` field, so these borrows are independent of
        // `self` and stay live across the mutations below.
        let func = &self.module.functions[frame.func.index()];
        let block = &func.blocks[frame.block.index()];

        if frame.ip >= block.insts.len() {
            // Terminator.
            self.state.threads[t].m.instructions += 1;
            let term = &block.term;
            self.charge(t, self.cost.alu);
            match term {
                Terminator::Br { target } => {
                    let f = self.state.threads[t].frames.last_mut().unwrap();
                    f.block = *target;
                    f.ip = 0;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.reg_at(t, base, *cond);
                    let f = self.state.threads[t].frames.last_mut().unwrap();
                    f.block = if c != 0 { *then_bb } else { *else_bb };
                    f.ip = 0;
                }
                Terminator::Switch {
                    disc,
                    cases,
                    default,
                } => {
                    let d = self.reg_at(t, base, *disc);
                    let target = cases
                        .iter()
                        .find(|(v, _)| *v == d)
                        .map(|(_, b)| *b)
                        .unwrap_or(*default);
                    let f = self.state.threads[t].frames.last_mut().unwrap();
                    f.block = target;
                    f.ip = 0;
                }
                Terminator::Ret { value } => {
                    let v = value.map(|o| self.operand_at(t, base, o));
                    let th = &mut self.state.threads[t];
                    let popped = th.frames.pop().unwrap();
                    th.regs.truncate(popped.reg_base);
                    if th.frames.is_empty() {
                        return Action::Exited;
                    }
                    if let (Some(dst), Some(v)) = (popped.ret_dst, v) {
                        self.set_reg(t, dst, v);
                    }
                }
            }
            return Action::None;
        }

        let inst = &block.insts[frame.ip];
        // Advance ip first; sync instructions have already "issued".
        self.state.threads[t].frames.last_mut().unwrap().ip += 1;

        match inst {
            Inst::Const { dst, value } => {
                let (dst, value) = (*dst, *value);
                self.state.threads[t].m.instructions += 1;
                self.set_reg_at(t, base, dst, value);
                self.charge(t, self.cost.alu);
            }
            Inst::Mov { dst, src } => {
                let (dst, src) = (*dst, *src);
                self.state.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, src);
                self.set_reg_at(t, base, dst, v);
                self.charge(t, self.cost.alu);
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let (op, dst, lhs, rhs) = (*op, *dst, *lhs, *rhs);
                self.state.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, lhs);
                let b = self.operand_at(t, base, rhs);
                self.set_reg_at(t, base, dst, op.apply(a, b));
                let c = match op {
                    detlock_ir::BinOp::Mul => self.cost.mul,
                    detlock_ir::BinOp::Div | detlock_ir::BinOp::Rem => self.cost.div,
                    _ => self.cost.alu,
                };
                self.charge(t, c);
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                let (op, dst, lhs, rhs) = (*op, *dst, *lhs, *rhs);
                self.state.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, lhs);
                let b = self.operand_at(t, base, rhs);
                self.set_reg_at(t, base, dst, op.apply(a, b));
                self.charge(t, self.cost.alu);
            }
            Inst::Load { dst, addr, offset } => {
                let (dst, addr, offset) = (*dst, *addr, *offset);
                self.state.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, addr).wrapping_add(offset);
                let idx = self.mem_index(a);
                let v = self.state.mem[idx];
                self.san_access(t, idx, false, frame);
                self.set_reg_at(t, base, dst, v);
                self.charge(t, self.cost.load);
            }
            Inst::Store { src, addr, offset } => {
                let (src, addr, offset) = (*src, *addr, *offset);
                self.state.threads[t].m.instructions += 1;
                let a = self.reg_at(t, base, addr).wrapping_add(offset);
                let v = self.operand_at(t, base, src);
                let idx = self.mem_index(a);
                self.state.mem[idx] = v;
                self.san_access(t, idx, true, frame);
                self.charge(t, self.cost.store);
                self.retired_store(t, 1);
            }
            Inst::Call { func, args, dst } => {
                let callee_id = *func;
                let dst = *dst;
                self.state.threads[t].m.instructions += 1;
                let callee = &self.module.functions[callee_id.index()];
                // Grow the register file first, then evaluate arguments
                // straight into the callee's slots: the caller's registers
                // live below `reg_base`, so the resize cannot disturb them
                // and no temporary argument vector is needed.
                let reg_base = self.state.threads[t].regs.len();
                self.state.threads[t]
                    .regs
                    .resize(reg_base + callee.num_regs as usize, 0);
                for (i, &a) in args.iter().enumerate() {
                    let v = self.operand_at(t, base, a);
                    self.state.threads[t].regs[reg_base + i] = v;
                }
                self.state.threads[t].frames.push(Frame {
                    func: callee_id,
                    block: BlockId(0),
                    ip: 0,
                    reg_base,
                    ret_dst: dst,
                });
                self.charge(t, self.cost.call);
            }
            Inst::CallBuiltin {
                builtin,
                args,
                dst,
                size_arg,
            } => {
                let builtin = *builtin;
                let dst = *dst;
                let size_arg = *size_arg;
                self.state.threads[t].m.instructions += 1;
                let mut argv = std::mem::take(&mut self.scratch_args);
                argv.clear();
                argv.extend(args.iter().map(|&a| self.operand_at(t, base, a)));
                let est = self.cost.builtin(builtin);
                let size = size_arg.and_then(|i| argv.get(i).copied()).unwrap_or(0);
                let cycles = est.eval(size);
                let result = self.apply_builtin(t, builtin, &argv, size, frame);
                self.scratch_args = argv;
                if let Some(d) = dst {
                    self.set_reg_at(t, base, d, result);
                }
                self.charge(t, cycles.max(1));
            }
            Inst::Tick { amount } => {
                let amount = *amount;
                if self.cfg.mode.executes_ticks() {
                    self.state.threads[t].m.instructions += 1;
                    self.state.threads[t].m.ticks_executed += 1;
                    self.state.threads[t].clock += amount;
                    self.charge(t, self.cost.tick);
                } else {
                    // Baseline / Kendo: the binary was never instrumented —
                    // skip at zero cost and zero cycles.
                    return Action::Free;
                }
            }
            Inst::TickDyn {
                base: tick_base,
                per_unit,
                size,
            } => {
                let (tick_base, per_unit, size) = (*tick_base, *per_unit, *size);
                if self.cfg.mode.executes_ticks() {
                    self.state.threads[t].m.instructions += 1;
                    self.state.threads[t].m.ticks_executed += 1;
                    let s = self.operand_at(t, base, size).max(0) as u64;
                    self.state.threads[t].clock += tick_base + per_unit * s;
                    self.charge(t, self.cost.tick + self.cost.tick_dyn_extra);
                } else {
                    return Action::Free;
                }
            }
            Inst::Lock { id } => {
                let id = *id;
                self.state.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, id);
                return Action::Lock(v);
            }
            Inst::Unlock { id } => {
                let id = *id;
                self.state.threads[t].m.instructions += 1;
                let v = self.operand_at(t, base, id);
                return Action::Unlock(v);
            }
            Inst::Barrier { id } => {
                let id = *id;
                self.state.threads[t].m.instructions += 1;
                return Action::Barrier(id.0);
            }
        }
        Action::None
    }
}
