//! An `IRBuilder`-style construction API.
//!
//! [`FunctionBuilder`] keeps a current insertion block and offers one helper
//! per instruction kind, allocating destination registers on demand.
//! Terminators are set explicitly; [`FunctionBuilder::finish`] checks that
//! every created block was terminated.

use crate::inst::{BinOp, Builtin, CmpOp, Inst, Operand, Terminator};
use crate::module::{Block, Function, Module};
use crate::types::{BarrierId, BlockId, FuncId, Reg};

/// Errors produced while finalizing a built function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A block was created but never given a terminator.
    UnterminatedBlock {
        /// The offending block.
        block: BlockId,
        /// Its label.
        name: String,
    },
    /// No blocks were created at all.
    EmptyFunction,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnterminatedBlock { block, name } => {
                write!(f, "block {block} (`{name}`) has no terminator")
            }
            BuildError::EmptyFunction => write!(f, "function has no blocks"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds one [`Function`].
pub struct FunctionBuilder {
    name: String,
    params: u32,
    num_regs: u32,
    names: Vec<String>,
    insts: Vec<Vec<Inst>>,
    terms: Vec<Option<Terminator>>,
    current: Option<BlockId>,
}

impl FunctionBuilder {
    /// Start a function with `params` parameters (available as `r0..`).
    pub fn new(name: impl Into<String>, params: u32) -> Self {
        FunctionBuilder {
            name: name.into(),
            params,
            num_regs: params,
            names: Vec::new(),
            insts: Vec::new(),
            terms: Vec::new(),
            current: None,
        }
    }

    /// The `i`-th parameter register.
    pub fn param(&self, i: u32) -> Reg {
        assert!(i < self.params, "param index out of range");
        Reg(i)
    }

    /// Allocate a fresh register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Create a new block; the first block created is the entry. Does not
    /// change the insertion point.
    pub fn create_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.names.len() as u32);
        self.names.push(name.into());
        self.insts.push(Vec::new());
        self.terms.push(None);
        id
    }

    /// Create a block and move the insertion point to it.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        let id = self.create_block(name);
        self.current = Some(id);
        id
    }

    /// Move the insertion point.
    pub fn switch_to(&mut self, bb: BlockId) {
        assert!(bb.index() < self.names.len(), "no such block");
        self.current = Some(bb);
    }

    /// The current insertion block.
    pub fn current_block(&self) -> BlockId {
        self.current.expect("no insertion block set")
    }

    /// Append a raw instruction to the current block.
    pub fn push(&mut self, inst: Inst) {
        let cur = self.current_block();
        assert!(
            self.terms[cur.index()].is_none(),
            "appending to terminated block {cur}"
        );
        self.insts[cur.index()].push(inst);
    }

    // ---- instruction helpers -------------------------------------------

    /// `dst = const value`
    pub fn iconst(&mut self, value: i64) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Const { dst, value });
        dst
    }

    /// `dst = src`
    pub fn mov(&mut self, src: impl Into<Operand>) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
        dst
    }

    /// `dst = src` into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.push(Inst::Mov {
            dst,
            src: src.into(),
        });
    }

    /// `dst = op lhs, rhs` into a fresh register.
    pub fn bin(&mut self, op: BinOp, lhs: Reg, rhs: impl Into<Operand>) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Bin {
            op,
            dst,
            lhs,
            rhs: rhs.into(),
        });
        dst
    }

    /// `dst = op lhs, rhs` into an existing register (`dst` may alias `lhs`).
    pub fn bin_to(&mut self, op: BinOp, dst: Reg, lhs: Reg, rhs: impl Into<Operand>) {
        self.push(Inst::Bin {
            op,
            dst,
            lhs,
            rhs: rhs.into(),
        });
    }

    /// `add` convenience.
    pub fn add(&mut self, lhs: Reg, rhs: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// `sub` convenience.
    pub fn sub(&mut self, lhs: Reg, rhs: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// `mul` convenience.
    pub fn mul(&mut self, lhs: Reg, rhs: impl Into<Operand>) -> Reg {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// `dst = cmp.op lhs, rhs`
    pub fn cmp(&mut self, op: CmpOp, lhs: Reg, rhs: impl Into<Operand>) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Cmp {
            op,
            dst,
            lhs,
            rhs: rhs.into(),
        });
        dst
    }

    /// `dst = load [addr+offset]`
    pub fn load(&mut self, addr: Reg, offset: i64) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Load { dst, addr, offset });
        dst
    }

    /// `store [addr+offset] = src`
    pub fn store(&mut self, addr: Reg, offset: i64, src: impl Into<Operand>) {
        self.push(Inst::Store {
            src: src.into(),
            addr,
            offset,
        });
    }

    /// Direct call with a result.
    pub fn call(&mut self, func: FuncId, args: Vec<Operand>) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::Call {
            func,
            args,
            dst: Some(dst),
        });
        dst
    }

    /// Direct call discarding the result.
    pub fn call_void(&mut self, func: FuncId, args: Vec<Operand>) {
        self.push(Inst::Call {
            func,
            args,
            dst: None,
        });
    }

    /// Builtin call with a result. `size_arg` indexes `args` if the
    /// builtin's cost scales with one of them.
    pub fn builtin(
        &mut self,
        builtin: Builtin,
        args: Vec<Operand>,
        size_arg: Option<usize>,
    ) -> Reg {
        let dst = self.new_reg();
        self.push(Inst::CallBuiltin {
            builtin,
            args,
            dst: Some(dst),
            size_arg,
        });
        dst
    }

    /// Builtin call discarding the result.
    pub fn builtin_void(&mut self, builtin: Builtin, args: Vec<Operand>, size_arg: Option<usize>) {
        self.push(Inst::CallBuiltin {
            builtin,
            args,
            dst: None,
            size_arg,
        });
    }

    /// Acquire a lock.
    pub fn lock(&mut self, id: impl Into<Operand>) {
        self.push(Inst::Lock { id: id.into() });
    }

    /// Release a lock.
    pub fn unlock(&mut self, id: impl Into<Operand>) {
        self.push(Inst::Unlock { id: id.into() });
    }

    /// Wait on a barrier.
    pub fn barrier(&mut self, id: BarrierId) {
        self.push(Inst::Barrier { id });
    }

    /// Emit `n` filler compute instructions (used by workload generators to
    /// give a block a definite size). Alternates cheap ALU ops writing a
    /// scratch register.
    pub fn compute(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        let scratch = self.new_reg();
        self.push(Inst::Const {
            dst: scratch,
            value: 1,
        });
        for k in 1..n {
            let op = match k % 3 {
                0 => BinOp::Add,
                1 => BinOp::Xor,
                _ => BinOp::Mul,
            };
            self.push(Inst::Bin {
                op,
                dst: scratch,
                lhs: scratch,
                rhs: Operand::Imm((k as i64 & 7) + 1),
            });
        }
    }

    // ---- terminators ----------------------------------------------------

    fn terminate(&mut self, term: Terminator) {
        let cur = self.current_block();
        assert!(
            self.terms[cur.index()].is_none(),
            "block {cur} already terminated"
        );
        self.terms[cur.index()] = Some(term);
        self.current = None;
    }

    /// Unconditional branch.
    pub fn br(&mut self, target: BlockId) {
        self.terminate(Terminator::Br { target });
    }

    /// Conditional branch on `cond != 0`.
    pub fn cond_br(&mut self, cond: Reg, then_bb: BlockId, else_bb: BlockId) {
        self.terminate(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        });
    }

    /// Multi-way branch.
    pub fn switch(&mut self, disc: Reg, cases: Vec<(i64, BlockId)>, default: BlockId) {
        self.terminate(Terminator::Switch {
            disc,
            cases,
            default,
        });
    }

    /// Return a value.
    pub fn ret(&mut self, value: impl Into<Operand>) {
        self.terminate(Terminator::Ret {
            value: Some(value.into()),
        });
    }

    /// Return without a value.
    pub fn ret_void(&mut self) {
        self.terminate(Terminator::Ret { value: None });
    }

    /// Finalize into a [`Function`].
    pub fn finish(self) -> Result<Function, BuildError> {
        if self.names.is_empty() {
            return Err(BuildError::EmptyFunction);
        }
        // The terminator-less check is centralized in the verifier (a
        // finished `Block` cannot represent the missing-terminator state).
        if let Err(crate::verify::VerifyError::UnterminatedBlock { block, name }) =
            crate::verify::check_raw_terminators(&self.names, &self.terms)
        {
            return Err(BuildError::UnterminatedBlock { block, name });
        }
        let mut blocks = Vec::with_capacity(self.names.len());
        for ((name, insts), term) in self.names.into_iter().zip(self.insts).zip(self.terms) {
            let term = term.expect("checked by check_raw_terminators");
            blocks.push(Block { name, insts, term });
        }
        Ok(Function {
            name: self.name,
            params: self.params,
            num_regs: self.num_regs,
            blocks,
        })
    }

    /// Finalize and add to a module, panicking on build errors (the common
    /// path for hand-written workload generators and tests).
    pub fn finish_into(self, module: &mut Module) -> FuncId {
        match self.finish() {
            Ok(f) => module.add_function(f),
            Err(e) => panic!("FunctionBuilder::finish failed: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::CmpOp;

    #[test]
    fn builds_a_diamond() {
        let mut fb = FunctionBuilder::new("diamond", 1);
        let entry = fb.block("entry");
        assert_eq!(entry, BlockId(0));
        let t = fb.create_block("then");
        let e = fb.create_block("else");
        let m = fb.create_block("merge");

        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, t, e);

        fb.switch_to(t);
        let v1 = fb.iconst(10);
        fb.br(m);

        fb.switch_to(e);
        let _v2 = fb.iconst(20);
        fb.br(m);

        fb.switch_to(m);
        let s = fb.add(v1, 1);
        fb.ret(s);

        let f = fb.finish().unwrap();
        assert_eq!(f.blocks.len(), 4);
        assert!(f.block(BlockId(0)).successors().eq([t, e]));
        assert_eq!(f.block(m).successors().next(), None);
        assert_eq!(f.params, 1);
        assert!(f.num_regs >= 4);
    }

    #[test]
    fn unterminated_block_is_an_error() {
        let mut fb = FunctionBuilder::new("bad", 0);
        fb.block("entry");
        let err = fb.finish().unwrap_err();
        assert!(matches!(err, BuildError::UnterminatedBlock { .. }));
        assert!(err.to_string().contains("entry"));
    }

    #[test]
    fn empty_function_is_an_error() {
        let fb = FunctionBuilder::new("empty", 0);
        assert_eq!(fb.finish().unwrap_err(), BuildError::EmptyFunction);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut fb = FunctionBuilder::new("f", 0);
        let b = fb.block("entry");
        fb.ret_void();
        fb.switch_to(b);
        fb.ret_void();
    }

    #[test]
    fn compute_emits_requested_count() {
        let mut fb = FunctionBuilder::new("f", 0);
        fb.block("entry");
        fb.compute(5);
        fb.ret_void();
        let f = fb.finish().unwrap();
        assert_eq!(f.blocks[0].insts.len(), 5);
    }

    #[test]
    fn compute_zero_is_noop() {
        let mut fb = FunctionBuilder::new("f", 0);
        fb.block("entry");
        fb.compute(0);
        fb.ret_void();
        let f = fb.finish().unwrap();
        assert!(f.blocks[0].insts.is_empty());
    }
}
