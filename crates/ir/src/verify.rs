//! Structural verifier for modules.
//!
//! Catches the classes of breakage that instrumentation passes could
//! introduce: dangling branch targets after block splitting, register
//! references outside the frame, call-arity mismatches, and unreachable
//! entry manipulation. Run in tests after every pass.

use crate::inst::{Inst, Terminator};
use crate::module::{Function, Module};
use crate::types::{BlockId, FuncId, Reg};
use std::collections::HashMap;

/// A verification failure.
#[allow(missing_docs)] // field names (func/block/target/...) are idiomatic
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A terminator names a block that does not exist.
    BadBranchTarget {
        func: FuncId,
        block: BlockId,
        target: BlockId,
    },
    /// An instruction references a register outside `num_regs`.
    BadRegister {
        func: FuncId,
        block: BlockId,
        reg: Reg,
    },
    /// A call names a function that does not exist.
    BadCallee {
        func: FuncId,
        block: BlockId,
        callee: FuncId,
    },
    /// A call passes the wrong number of arguments.
    BadArity {
        func: FuncId,
        block: BlockId,
        callee: FuncId,
        expected: u32,
        got: usize,
    },
    /// `num_regs` is smaller than `params`.
    RegsSmallerThanParams { func: FuncId },
    /// The function has no blocks.
    NoBlocks { func: FuncId },
    /// Two blocks share one name. Names are the ids used by textual dumps
    /// and [`Function::block_by_name`]; duplicates make both ambiguous.
    DuplicateBlockName {
        func: FuncId,
        name: String,
        first: BlockId,
        second: BlockId,
    },
    /// A raw (still under construction) block has no terminator. A finished
    /// [`Module`] cannot represent this state — every [`crate::module::Block`]
    /// owns a `Terminator` — so this is only produced by
    /// [`check_raw_terminators`], which builders run before assembly.
    UnterminatedBlock { block: BlockId, name: String },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::BadBranchTarget {
                func,
                block,
                target,
            } => write!(f, "{func}/{block}: branch to nonexistent {target}"),
            VerifyError::BadRegister { func, block, reg } => {
                write!(f, "{func}/{block}: register {reg} out of range")
            }
            VerifyError::BadCallee {
                func,
                block,
                callee,
            } => write!(f, "{func}/{block}: call to nonexistent {callee}"),
            VerifyError::BadArity {
                func,
                block,
                callee,
                expected,
                got,
            } => write!(
                f,
                "{func}/{block}: call to {callee} expects {expected} args, got {got}"
            ),
            VerifyError::RegsSmallerThanParams { func } => {
                write!(f, "{func}: num_regs < params")
            }
            VerifyError::NoBlocks { func } => write!(f, "{func}: no blocks"),
            VerifyError::DuplicateBlockName {
                func,
                name,
                first,
                second,
            } => write!(f, "{func}: blocks {first} and {second} share name `{name}`"),
            VerifyError::UnterminatedBlock { block, name } => {
                write!(f, "block {block} (`{name}`) has no terminator")
            }
        }
    }
}

/// Check a raw block list (as held by a builder or parser before final
/// assembly) for missing terminators. Centralizes the terminator-less
/// rejection that [`Module`] itself cannot express;
/// [`crate::builder::FunctionBuilder::finish`] delegates here.
pub fn check_raw_terminators(
    names: &[String],
    terms: &[Option<Terminator>],
) -> Result<(), VerifyError> {
    for (i, term) in terms.iter().enumerate() {
        if term.is_none() {
            return Err(VerifyError::UnterminatedBlock {
                block: BlockId(i as u32),
                name: names.get(i).cloned().unwrap_or_default(),
            });
        }
    }
    Ok(())
}

impl std::error::Error for VerifyError {}

/// Verify a whole module. Returns every error found.
pub fn verify_module(module: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errors = Vec::new();
    for (fid, func) in module.iter_funcs() {
        verify_function_inner(module, fid, func, &mut errors);
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

fn verify_function_inner(
    module: &Module,
    fid: FuncId,
    func: &Function,
    errors: &mut Vec<VerifyError>,
) {
    if func.blocks.is_empty() {
        errors.push(VerifyError::NoBlocks { func: fid });
        return;
    }
    if func.num_regs < func.params {
        errors.push(VerifyError::RegsSmallerThanParams { func: fid });
    }
    let nblocks = func.blocks.len() as u32;
    let mut seen_names: HashMap<&str, BlockId> = HashMap::new();
    for (bid, block) in func.iter_blocks() {
        match seen_names.entry(block.name.as_str()) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(bid);
            }
            std::collections::hash_map::Entry::Occupied(e) => {
                errors.push(VerifyError::DuplicateBlockName {
                    func: fid,
                    name: block.name.clone(),
                    first: *e.get(),
                    second: bid,
                });
            }
        }
    }
    let mut used = Vec::new();
    for (bid, block) in func.iter_blocks() {
        for target in block.successors() {
            if target.0 >= nblocks {
                errors.push(VerifyError::BadBranchTarget {
                    func: fid,
                    block: bid,
                    target,
                });
            }
        }
        for inst in &block.insts {
            used.clear();
            inst.uses(&mut used);
            if let Some(d) = inst.def() {
                used.push(d);
            }
            for r in &used {
                if r.0 >= func.num_regs {
                    errors.push(VerifyError::BadRegister {
                        func: fid,
                        block: bid,
                        reg: *r,
                    });
                }
            }
            if let Inst::Call {
                func: callee, args, ..
            } = inst
            {
                if callee.index() >= module.functions.len() {
                    errors.push(VerifyError::BadCallee {
                        func: fid,
                        block: bid,
                        callee: *callee,
                    });
                } else {
                    let expected = module.func(*callee).params;
                    if args.len() != expected as usize {
                        errors.push(VerifyError::BadArity {
                            func: fid,
                            block: bid,
                            callee: *callee,
                            expected,
                            got: args.len(),
                        });
                    }
                }
            }
        }
        // Terminator register uses.
        match &block.term {
            crate::inst::Terminator::CondBr { cond, .. } if cond.0 >= func.num_regs => {
                errors.push(VerifyError::BadRegister {
                    func: fid,
                    block: bid,
                    reg: *cond,
                });
            }
            crate::inst::Terminator::Switch { disc, .. } if disc.0 >= func.num_regs => {
                errors.push(VerifyError::BadRegister {
                    func: fid,
                    block: bid,
                    reg: *disc,
                });
            }
            crate::inst::Terminator::Ret {
                value: Some(crate::inst::Operand::Reg(r)),
            } if r.0 >= func.num_regs => {
                errors.push(VerifyError::BadRegister {
                    func: fid,
                    block: bid,
                    reg: *r,
                });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::{Operand, Terminator};
    use crate::module::{Block, Function};

    fn good_module() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 1);
        fb.block("entry");
        let p = fb.param(0);
        let v = fb.add(p, 1);
        fb.ret(v);
        let leaf = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("main", 0);
        fb.block("entry");
        let r = fb.call(leaf, vec![Operand::Imm(1)]);
        fb.ret(r);
        fb.finish_into(&mut m);
        m
    }

    #[test]
    fn good_module_verifies() {
        assert!(verify_module(&good_module()).is_ok());
    }

    #[test]
    fn detects_bad_branch_target() {
        let mut m = good_module();
        m.func_mut(FuncId(0)).blocks[0].term = Terminator::Br {
            target: BlockId(99),
        };
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadBranchTarget { .. })));
    }

    #[test]
    fn detects_bad_register() {
        let mut m = good_module();
        m.func_mut(FuncId(0)).blocks[0].insts.push(Inst::Mov {
            dst: Reg(1000),
            src: Operand::Imm(0),
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadRegister { reg: Reg(1000), .. })));
    }

    #[test]
    fn detects_bad_callee_and_arity() {
        let mut m = good_module();
        m.func_mut(FuncId(1)).blocks[0].insts.push(Inst::Call {
            func: FuncId(42),
            args: vec![],
            dst: None,
        });
        m.func_mut(FuncId(1)).blocks[0].insts.push(Inst::Call {
            func: FuncId(0),
            args: vec![],
            dst: None,
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadCallee { .. })));
        assert!(errs.iter().any(|e| matches!(
            e,
            VerifyError::BadArity {
                expected: 1,
                got: 0,
                ..
            }
        )));
    }

    #[test]
    fn detects_no_blocks() {
        let mut m = Module::new();
        m.add_function(Function {
            name: "empty".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![],
        });
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(errs, vec![VerifyError::NoBlocks { func: FuncId(0) }]);
    }

    #[test]
    fn detects_regs_smaller_than_params() {
        let mut m = Module::new();
        m.add_function(Function {
            name: "bad".into(),
            params: 3,
            num_regs: 1,
            blocks: vec![Block {
                name: "entry".into(),
                insts: vec![],
                term: Terminator::Ret { value: None },
            }],
        });
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::RegsSmallerThanParams { .. })));
    }

    #[test]
    fn detects_duplicate_block_names() {
        let mut m = Module::new();
        let mk_block = |name: &str| Block {
            name: name.into(),
            insts: vec![],
            term: Terminator::Ret { value: None },
        };
        m.add_function(Function {
            name: "dup".into(),
            params: 0,
            num_regs: 0,
            blocks: vec![mk_block("entry"), mk_block("body"), mk_block("body")],
        });
        let errs = verify_module(&m).unwrap_err();
        assert_eq!(
            errs,
            vec![VerifyError::DuplicateBlockName {
                func: FuncId(0),
                name: "body".into(),
                first: BlockId(1),
                second: BlockId(2),
            }]
        );
        assert!(errs[0].to_string().contains("share name `body`"));
    }

    #[test]
    fn raw_terminator_check_finds_the_hole() {
        let names = vec!["entry".to_string(), "gap".to_string()];
        let terms = vec![Some(Terminator::Ret { value: None }), None];
        let err = check_raw_terminators(&names, &terms).unwrap_err();
        assert_eq!(
            err,
            VerifyError::UnterminatedBlock {
                block: BlockId(1),
                name: "gap".into(),
            }
        );
        let all = vec![
            Some(Terminator::Ret { value: None }),
            Some(Terminator::Ret { value: None }),
        ];
        assert!(check_raw_terminators(&names, &all).is_ok());
    }

    #[test]
    fn detects_bad_terminator_register() {
        let mut m = good_module();
        m.func_mut(FuncId(0)).blocks[0].term = Terminator::Ret {
            value: Some(Operand::Reg(Reg(500))),
        };
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, VerifyError::BadRegister { reg: Reg(500), .. })));
    }
}
