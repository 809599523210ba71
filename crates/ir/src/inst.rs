//! The instruction set of the mini-IR.
//!
//! The IR mirrors the slice of LLVM IR that the DetLock pass cares about:
//! straight-line compute instructions grouped into basic blocks, calls
//! (direct and builtin), memory operations, synchronization intrinsics
//! (`lock`/`unlock`/`barrier`), and the `tick` pseudo-instruction that the
//! instrumentation pass inserts to advance the executing thread's logical
//! clock.
//!
//! Values are 64-bit signed integers. Memory is a flat array of 64-bit
//! words. The IR is executable (see `detlock-vm`) so that the overhead of
//! inserted clock code and of deterministic lock arbitration can actually be
//! measured, rather than merely counted statically.

use crate::types::{BarrierId, BlockId, FuncId, Reg};
use std::fmt;

/// A right-hand-side operand: either a register or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Operand {
    /// Read the value of a register.
    Reg(Reg),
    /// A constant.
    Imm(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::Imm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
        }
    }
}

/// Binary arithmetic / bitwise operations.
#[allow(missing_docs)] // variants are standard mnemonics
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Min,
    Max,
}

impl BinOp {
    /// Apply the operation. Division and remainder by zero yield zero, and
    /// all arithmetic wraps; workload generators rely on total semantics so
    /// that random programs never trap.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a / b
                }
            }
            BinOp::Rem => {
                if b == 0 || (a == i64::MIN && b == -1) {
                    0
                } else {
                    a % b
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => a.wrapping_shl((b & 63) as u32),
            BinOp::Shr => a.wrapping_shr((b & 63) as u32),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Div => "div",
            BinOp::Rem => "rem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Shr => "shr",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// The operation whose [`mnemonic`](Self::mnemonic) is `m`, if any.
    pub(crate) fn from_mnemonic(m: &[u8]) -> Option<BinOp> {
        Some(match m {
            b"add" => BinOp::Add,
            b"sub" => BinOp::Sub,
            b"mul" => BinOp::Mul,
            b"div" => BinOp::Div,
            b"rem" => BinOp::Rem,
            b"and" => BinOp::And,
            b"or" => BinOp::Or,
            b"xor" => BinOp::Xor,
            b"shl" => BinOp::Shl,
            b"shr" => BinOp::Shr,
            b"min" => BinOp::Min,
            b"max" => BinOp::Max,
            _ => return None,
        })
    }
}

/// Comparison predicates; results are `1` (true) or `0` (false).
#[allow(missing_docs)] // variants are standard mnemonics
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Evaluate the predicate.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        };
        r as i64
    }

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpOp::Eq => "eq",
            CmpOp::Ne => "ne",
            CmpOp::Lt => "lt",
            CmpOp::Le => "le",
            CmpOp::Gt => "gt",
            CmpOp::Ge => "ge",
        }
    }

    /// The predicate whose [`mnemonic`](Self::mnemonic) is `m`, if any.
    pub(crate) fn from_mnemonic(m: &[u8]) -> Option<CmpOp> {
        Some(match m {
            b"eq" => CmpOp::Eq,
            b"ne" => CmpOp::Ne,
            b"lt" => CmpOp::Lt,
            b"le" => CmpOp::Le,
            b"gt" => CmpOp::Gt,
            b"ge" => CmpOp::Ge,
            _ => return None,
        })
    }
}

/// Builtin (compiler-intrinsic / library) functions.
///
/// The paper (§III-B) notes that LLVM generates no IR for builtins such as
/// `memset` and the math functions, so DetLock charges them an estimated
/// instruction count from an *instructions estimate file*, optionally scaled
/// by a size parameter. We model exactly that: a builtin has a name used to
/// look up its cost estimate, an optional size operand, and a simple
/// executable semantic so programs remain runnable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Builtin {
    /// `memset(dst, val, len)` — cost scales with `len`.
    Memset,
    /// `memcpy(dst, src, len)` — cost scales with `len`.
    Memcpy,
    /// Integer square root.
    Sqrt,
    /// Fixed-point sine approximation.
    Sin,
    /// Fixed-point cosine approximation.
    Cos,
    /// Fixed-point exponential approximation.
    Exp,
    /// Integer log2.
    Log,
    /// Pseudo-random number generator step (xorshift) — models `rand()`.
    Rand,
}

impl Builtin {
    /// The name under which the builtin appears in the instructions
    /// estimate file.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Memset => "memset",
            Builtin::Memcpy => "memcpy",
            Builtin::Sqrt => "sqrt",
            Builtin::Sin => "sin",
            Builtin::Cos => "cos",
            Builtin::Exp => "exp",
            Builtin::Log => "log",
            Builtin::Rand => "rand",
        }
    }

    /// The builtin whose [`name`](Self::name) is `name`, if any.
    pub(crate) fn from_name(name: &[u8]) -> Option<Builtin> {
        Some(match name {
            b"memset" => Builtin::Memset,
            b"memcpy" => Builtin::Memcpy,
            b"sqrt" => Builtin::Sqrt,
            b"sin" => Builtin::Sin,
            b"cos" => Builtin::Cos,
            b"exp" => Builtin::Exp,
            b"log" => Builtin::Log,
            b"rand" => Builtin::Rand,
            _ => return None,
        })
    }

    /// All builtins, for table construction.
    pub fn all() -> &'static [Builtin] {
        &[
            Builtin::Memset,
            Builtin::Memcpy,
            Builtin::Sqrt,
            Builtin::Sin,
            Builtin::Cos,
            Builtin::Exp,
            Builtin::Log,
            Builtin::Rand,
        ]
    }
}

/// A non-terminator instruction.
#[allow(missing_docs)] // field names (dst/src/lhs/rhs/addr/...) are idiomatic
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Inst {
    /// `dst = imm`
    Const { dst: Reg, value: i64 },
    /// `dst = src`
    Mov { dst: Reg, src: Operand },
    /// `dst = op(lhs, rhs)`
    Bin {
        op: BinOp,
        dst: Reg,
        lhs: Reg,
        rhs: Operand,
    },
    /// `dst = cmp(lhs, rhs)` (0/1)
    Cmp {
        op: CmpOp,
        dst: Reg,
        lhs: Reg,
        rhs: Operand,
    },
    /// `dst = mem[addr + offset]`
    Load { dst: Reg, addr: Reg, offset: i64 },
    /// `mem[addr + offset] = src` — counts as a *retired store* for the
    /// simulated-Kendo performance counter.
    Store {
        src: Operand,
        addr: Reg,
        offset: i64,
    },
    /// Direct call. Arguments are copied into the callee's first registers;
    /// the callee's return value (if any) lands in `dst`.
    Call {
        func: FuncId,
        args: Vec<Operand>,
        dst: Option<Reg>,
    },
    /// Builtin call with up to three operands (semantics per [`Builtin`]).
    /// `size` names the operand the cost estimate may scale with.
    CallBuiltin {
        builtin: Builtin,
        args: Vec<Operand>,
        dst: Option<Reg>,
        /// Index into `args` of the size parameter, if the builtin's cost
        /// depends on one (e.g. `len` for memset/memcpy).
        size_arg: Option<usize>,
    },
    /// Advance the executing thread's logical clock by `amount`.
    /// Inserted by the instrumentation pass; never written by frontends.
    Tick { amount: u64 },
    /// Advance the logical clock by `base + per_unit * value(size)`.
    ///
    /// Emitted next to builtins whose instruction estimate scales with a
    /// size parameter (paper §III-B: "for memset and other functions which
    /// depend upon the size parameter, we increment the clock considering
    /// the size parameter"). The amount is clamped at zero for negative
    /// sizes.
    TickDyn {
        base: u64,
        per_unit: u64,
        size: Operand,
    },
    /// Acquire the lock whose id is the value of `id`.
    Lock { id: Operand },
    /// Release the lock whose id is the value of `id`.
    Unlock { id: Operand },
    /// Wait on the statically-numbered barrier.
    Barrier { id: BarrierId },
}

impl Inst {
    /// True for the synchronization intrinsics that the DetLock runtime
    /// intercepts (and that the instrumentation pass must not hoist clock
    /// updates across).
    pub fn is_sync(&self) -> bool {
        matches!(
            self,
            Inst::Lock { .. } | Inst::Unlock { .. } | Inst::Barrier { .. }
        )
    }

    /// True for the clock-update pseudo-instructions.
    pub fn is_tick(&self) -> bool {
        matches!(self, Inst::Tick { .. } | Inst::TickDyn { .. })
    }

    /// The register written by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Const { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Cmp { dst, .. }
            | Inst::Load { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } | Inst::CallBuiltin { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Registers read by this instruction (for the verifier).
    pub fn uses(&self, out: &mut Vec<Reg>) {
        fn op(out: &mut Vec<Reg>, o: &Operand) {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        }
        match self {
            Inst::Const { .. } | Inst::Tick { .. } | Inst::Barrier { .. } => {}
            Inst::TickDyn { size, .. } => op(out, size),
            Inst::Mov { src, .. } => op(out, src),
            Inst::Bin { lhs, rhs, .. } | Inst::Cmp { lhs, rhs, .. } => {
                out.push(*lhs);
                op(out, rhs);
            }
            Inst::Load { addr, .. } => out.push(*addr),
            Inst::Store { src, addr, .. } => {
                op(out, src);
                out.push(*addr);
            }
            Inst::Call { args, .. } => args.iter().for_each(|a| op(out, a)),
            Inst::CallBuiltin { args, .. } => args.iter().for_each(|a| op(out, a)),
            Inst::Lock { id } | Inst::Unlock { id } => op(out, id),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Const { dst, value } => write!(f, "{dst} = const {value}"),
            Inst::Mov { dst, src } => write!(f, "{dst} = mov {src}"),
            Inst::Bin { op, dst, lhs, rhs } => {
                write!(f, "{dst} = {} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                write!(f, "{dst} = cmp.{} {lhs}, {rhs}", op.mnemonic())
            }
            Inst::Load { dst, addr, offset } => write!(f, "{dst} = load [{addr}+{offset}]"),
            Inst::Store { src, addr, offset } => write!(f, "store [{addr}+{offset}] = {src}"),
            Inst::Call { func, args, dst } => {
                if let Some(d) = dst {
                    write!(f, "{d} = call {func}(")?;
                } else {
                    write!(f, "call {func}(")?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Inst::CallBuiltin {
                builtin,
                args,
                dst,
                size_arg,
            } => {
                if let Some(d) = dst {
                    write!(f, "{d} = {}(", builtin.name())?;
                } else {
                    write!(f, "{}(", builtin.name())?;
                }
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")?;
                if let Some(k) = size_arg {
                    write!(f, " [size=#{k}]")?;
                }
                Ok(())
            }
            Inst::Tick { amount } => write!(f, "tick {amount}"),
            Inst::TickDyn {
                base,
                per_unit,
                size,
            } => write!(f, "tick {base} + {per_unit}*{size}"),
            Inst::Lock { id } => write!(f, "lock {id}"),
            Inst::Unlock { id } => write!(f, "unlock {id}"),
            Inst::Barrier { id } => write!(f, "barrier {id}"),
        }
    }
}

/// A block terminator.
#[allow(missing_docs)] // field names are idiomatic
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Terminator {
    /// Unconditional branch.
    Br { target: BlockId },
    /// Two-way branch on `cond != 0`.
    CondBr {
        cond: Reg,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Multi-way branch (models `switch`).
    Switch {
        disc: Reg,
        cases: Vec<(i64, BlockId)>,
        default: BlockId,
    },
    /// Return from the function.
    Ret { value: Option<Operand> },
}

impl Terminator {
    /// Successor blocks, in branch order (then before else; cases before
    /// default). Duplicate targets are preserved.
    pub fn successors(&self) -> Successors<'_> {
        let (cases, tail): (&[(i64, BlockId)], _) = match self {
            Terminator::Br { target } => (&[], [Some(*target), None]),
            Terminator::CondBr {
                then_bb, else_bb, ..
            } => (&[], [Some(*then_bb), Some(*else_bb)]),
            Terminator::Switch { cases, default, .. } => (cases, [Some(*default), None]),
            Terminator::Ret { .. } => (&[], [None, None]),
        };
        Successors {
            cases: cases.iter(),
            tail,
        }
    }
}

/// Iterator over a terminator's successors, from
/// [`Terminator::successors`]: a switch's case targets, then the
/// remaining targets in `tail`, filled from the front.
#[derive(Clone, Debug)]
pub struct Successors<'a> {
    cases: std::slice::Iter<'a, (i64, BlockId)>,
    tail: [Option<BlockId>; 2],
}

impl Iterator for Successors<'_> {
    type Item = BlockId;

    #[inline]
    fn next(&mut self) -> Option<BlockId> {
        match self.cases.next() {
            Some(&(_, b)) => Some(b),
            None => self.tail[0].take().or_else(|| self.tail[1].take()),
        }
    }
}

impl fmt::Display for Terminator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Terminator::Br { target } => write!(f, "br {target}"),
            Terminator::CondBr {
                cond,
                then_bb,
                else_bb,
            } => write!(f, "condbr {cond}, {then_bb}, {else_bb}"),
            Terminator::Switch {
                disc,
                cases,
                default,
            } => {
                write!(f, "switch {disc} [")?;
                for (i, (v, b)) in cases.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v} -> {b}")?;
                }
                write!(f, "] default {default}")
            }
            Terminator::Ret { value: Some(v) } => write!(f, "ret {v}"),
            Terminator::Ret { value: None } => write!(f, "ret"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_total_semantics() {
        assert_eq!(BinOp::Div.apply(10, 0), 0);
        assert_eq!(BinOp::Rem.apply(10, 0), 0);
        assert_eq!(BinOp::Div.apply(i64::MIN, -1), 0);
        assert_eq!(BinOp::Add.apply(i64::MAX, 1), i64::MIN);
        assert_eq!(BinOp::Shl.apply(1, 65), 2); // shift masked to 6 bits
        assert_eq!(BinOp::Min.apply(3, -4), -4);
        assert_eq!(BinOp::Max.apply(3, -4), 3);
    }

    #[test]
    fn cmp_semantics() {
        assert_eq!(CmpOp::Lt.apply(1, 2), 1);
        assert_eq!(CmpOp::Lt.apply(2, 2), 0);
        assert_eq!(CmpOp::Ge.apply(2, 2), 1);
        assert_eq!(CmpOp::Ne.apply(5, 5), 0);
    }

    #[test]
    fn successors_of_terminators() {
        let t = Terminator::CondBr {
            cond: Reg(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert!(t.successors().eq([BlockId(1), BlockId(2)]));
        let r = Terminator::Ret { value: None };
        assert_eq!(r.successors().next(), None);
        let s = Terminator::Switch {
            disc: Reg(0),
            cases: vec![(0, BlockId(3)), (1, BlockId(4))],
            default: BlockId(5),
        };
        assert!(s.successors().eq([BlockId(3), BlockId(4), BlockId(5)]));
    }

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(3),
            lhs: Reg(1),
            rhs: Operand::Reg(Reg(2)),
        };
        assert_eq!(i.def(), Some(Reg(3)));
        let mut u = vec![];
        i.uses(&mut u);
        assert_eq!(u, vec![Reg(1), Reg(2)]);

        let s = Inst::Store {
            src: Operand::Imm(5),
            addr: Reg(0),
            offset: 4,
        };
        assert_eq!(s.def(), None);
        let mut u = vec![];
        s.uses(&mut u);
        assert_eq!(u, vec![Reg(0)]);
    }

    #[test]
    fn sync_and_tick_classification() {
        assert!(Inst::Lock {
            id: Operand::Imm(0)
        }
        .is_sync());
        assert!(Inst::Barrier { id: BarrierId(0) }.is_sync());
        assert!(Inst::Tick { amount: 3 }.is_tick());
        assert!(!Inst::Const {
            dst: Reg(0),
            value: 1
        }
        .is_sync());
    }

    /// Each spelling the printer writes reads back as its variant, and a
    /// near miss reads as nothing.
    #[test]
    fn spellings_round_trip() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic().as_bytes()), Some(op));
        }
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(CmpOp::from_mnemonic(op.mnemonic().as_bytes()), Some(op));
        }
        for &b in Builtin::all() {
            assert_eq!(Builtin::from_name(b.name().as_bytes()), Some(b));
        }
        for miss in ["ad", "addd", "Add", ""] {
            assert_eq!(BinOp::from_mnemonic(miss.as_bytes()), None, "{miss}");
        }
        for miss in ["lq", "cmp.lq", "cmp.lt", "l"] {
            assert_eq!(CmpOp::from_mnemonic(miss.as_bytes()), None, "{miss}");
        }
        for miss in ["Sqrt", "sqr", "sqrtt", "add"] {
            assert_eq!(Builtin::from_name(miss.as_bytes()), None, "{miss}");
        }
    }

    #[test]
    fn display_smoke() {
        let i = Inst::Bin {
            op: BinOp::Mul,
            dst: Reg(1),
            lhs: Reg(0),
            rhs: Operand::Imm(3),
        };
        assert_eq!(i.to_string(), "r1 = mul r0, 3");
        assert_eq!(Inst::Tick { amount: 7 }.to_string(), "tick 7");
    }
}
