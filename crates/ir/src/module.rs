//! Containers: [`Block`], [`Function`], [`Module`].

use crate::inst::{Inst, Successors, Terminator};
use crate::types::{BlockId, FuncId, Reg};

/// A basic block: a name (kept for readable dumps mirroring the paper's
/// figures), a straight-line instruction list, and a terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Human-readable label, e.g. `if.end21` in the paper's running example.
    pub name: String,
    /// Non-terminator instructions, in program order.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Terminator,
}

impl Block {
    /// Successor blocks (delegates to the terminator).
    #[inline]
    pub fn successors(&self) -> Successors<'_> {
        self.term.successors()
    }

    /// Whether the block contains a synchronization intrinsic.
    pub fn has_sync(&self) -> bool {
        self.insts.iter().any(|i| i.is_sync())
    }
}

/// A function: a named CFG over virtual registers.
///
/// Block 0 is always the entry block. Parameters arrive in registers
/// `r0..r{params-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Function name (used in dumps and by the callgraph).
    pub name: String,
    /// Number of parameters.
    pub params: u32,
    /// Total register-file size (≥ `params`).
    pub num_regs: u32,
    /// The blocks; `BlockId(i)` indexes `blocks[i]`.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block id (always block 0).
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Borrow a block.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)`.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Ids of every block.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// All [`FuncId`]s directly called by this function (with duplicates).
    pub fn callees(&self) -> Vec<FuncId> {
        let mut out = Vec::new();
        for b in &self.blocks {
            for i in &b.insts {
                if let Inst::Call { func, .. } = i {
                    out.push(*func);
                }
            }
        }
        out
    }

    /// Whether the function makes any direct call.
    pub fn is_leaf(&self) -> bool {
        self.callees().is_empty()
    }

    /// Find a block id by label name (test/dump convenience).
    pub fn block_by_name(&self, name: &str) -> Option<BlockId> {
        self.iter_blocks()
            .find(|(_, b)| b.name == name)
            .map(|(id, _)| id)
    }

    /// Allocate a fresh register.
    pub fn new_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Total number of `Tick` instructions in the function.
    pub fn tick_count(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.insts.iter().filter(|i| i.is_tick()).count())
            .sum()
    }
}

/// A module: a set of functions. `FuncId(i)` indexes `functions[i]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Module {
    /// The functions.
    pub functions: Vec<Function>,
}

impl Module {
    /// Create an empty module.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Borrow a function.
    #[inline]
    pub fn func(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Mutably borrow a function.
    #[inline]
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.functions[id.index()]
    }

    /// Iterate over `(FuncId, &Function)`.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &Function)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Find a function id by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.iter_funcs()
            .find(|(_, f)| f.name == name)
            .map(|(id, _)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Operand, Terminator};
    use crate::types::BlockId;

    fn ret_block(name: &str) -> Block {
        Block {
            name: name.to_string(),
            insts: vec![],
            term: Terminator::Ret { value: None },
        }
    }

    #[test]
    fn function_accessors() {
        let mut f = Function {
            name: "f".into(),
            params: 1,
            num_regs: 1,
            blocks: vec![ret_block("entry"), ret_block("exit")],
        };
        assert_eq!(f.entry(), BlockId(0));
        assert_eq!(f.block(BlockId(1)).name, "exit");
        assert_eq!(f.block_by_name("exit"), Some(BlockId(1)));
        assert_eq!(f.block_by_name("nope"), None);
        let r = f.new_reg();
        assert_eq!(r.index(), 1);
        assert_eq!(f.num_regs, 2);
        assert!(f.is_leaf());
    }

    #[test]
    fn module_round_trip() {
        let mut m = Module::new();
        let id = m.add_function(Function {
            name: "main".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![ret_block("entry")],
        });
        assert_eq!(m.func(id).name, "main");
        assert_eq!(m.func_by_name("main"), Some(id));
    }

    #[test]
    fn callees_and_ticks() {
        let mut b = ret_block("entry");
        b.insts.push(Inst::Call {
            func: crate::types::FuncId(7),
            args: vec![Operand::Imm(1)],
            dst: None,
        });
        b.insts.push(Inst::Tick { amount: 4 });
        let f = Function {
            name: "g".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![b],
        };
        assert_eq!(f.callees(), vec![crate::types::FuncId(7)]);
        assert!(!f.is_leaf());
        assert_eq!(f.tick_count(), 1);
    }
}
