//! Lower a [`crate::plan::ModulePlan`] into actual `tick` instructions.
//!
//! Static per-block clocks become `Tick { amount }` at the block's start or
//! end per [`Placement`]; size-dependent builtins additionally get a
//! `TickDyn` *before* the builtin call (ahead of time), carrying the
//! per-unit scale from the estimate file.

use crate::cost::CostModel;
use crate::plan::{ModulePlan, Placement};
use detlock_ir::inst::Inst;
use detlock_ir::module::Module;

/// Insert tick instructions into the split module according to the plan.
/// The module must be the same split module the plan was computed against;
/// the pipeline owns it and rewrites it into the instrumented one.
pub fn materialize_in_place(split: &mut Module, plan: &ModulePlan, cost: &CostModel) {
    for (func, fplan) in split.functions.iter_mut().zip(&plan.funcs) {
        for (block, &amount) in func.blocks.iter_mut().zip(&fplan.block_clock) {
            // Dynamic ticks first (positions shift as we insert).
            let mut i = 0;
            while i < block.insts.len() {
                if let Some((per_unit, size)) = cost.needs_dynamic_tick(&block.insts[i]) {
                    block.insts.insert(
                        i,
                        Inst::TickDyn {
                            base: 0,
                            per_unit,
                            size,
                        },
                    );
                    i += 1; // skip the TickDyn we just inserted
                }
                i += 1;
            }
            if amount > 0 {
                match plan.placement {
                    Placement::Start => block.insts.insert(0, Inst::Tick { amount }),
                    Placement::End => block.insts.push(Inst::Tick { amount }),
                }
            }
        }
    }
}

/// Strip every tick instruction (used to produce the uninstrumented
/// baseline binary from an instrumented module in tests).
pub fn strip_ticks(module: &Module) -> Module {
    let mut out = module.clone();
    for func in out.functions.iter_mut() {
        for block in func.blocks.iter_mut() {
            block.insts.retain(|i| !i.is_tick());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FuncPlan;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::Operand;
    use detlock_ir::verify::verify_module;
    use detlock_ir::Builtin;

    fn simple_module() -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 1);
        fb.block("entry");
        fb.compute(3);
        let len = fb.param(0);
        fb.builtin_void(
            Builtin::Memset,
            vec![Operand::Imm(0), Operand::Imm(0), Operand::Reg(len)],
            Some(2),
        );
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    /// [`simple_module`] with its one block's clock `clock` materialized
    /// at `placement`.
    fn materialized(placement: Placement, clock: u64) -> Module {
        let mut m = simple_module();
        let plan = ModulePlan {
            placement,
            clocked: vec![None],
            funcs: vec![FuncPlan {
                block_clock: vec![clock],
                pinned: vec![false],
            }],
        };
        materialize_in_place(&mut m, &plan, &CostModel::default());
        m
    }

    #[test]
    fn start_placement_puts_tick_first() {
        let out = materialized(Placement::Start, 12);
        assert!(verify_module(&out).is_ok());
        let b = &out.functions[0].blocks[0];
        assert_eq!(b.insts[0], Inst::Tick { amount: 12 });
    }

    #[test]
    fn end_placement_puts_tick_last() {
        let out = materialized(Placement::End, 12);
        let b = &out.functions[0].blocks[0];
        assert!(matches!(b.insts.last(), Some(Inst::Tick { amount: 12 })));
    }

    #[test]
    fn zero_clock_emits_no_tick() {
        let out = materialized(Placement::Start, 0);
        let static_ticks = out.functions[0].blocks[0]
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Tick { .. }))
            .count();
        assert_eq!(static_ticks, 0);
    }

    #[test]
    fn dynamic_tick_inserted_before_builtin() {
        let out = materialized(Placement::Start, 5);
        let insts = &out.functions[0].blocks[0].insts;
        let dyn_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::TickDyn { .. }))
            .expect("TickDyn inserted");
        let builtin_pos = insts
            .iter()
            .position(|i| matches!(i, Inst::CallBuiltin { .. }))
            .unwrap();
        assert_eq!(dyn_pos + 1, builtin_pos, "dyn tick right before builtin");
        if let Inst::TickDyn { per_unit, .. } = &insts[dyn_pos] {
            assert_eq!(*per_unit, 1); // memset default
        }
    }

    #[test]
    fn strip_ticks_round_trip() {
        let out = materialized(Placement::Start, 12);
        let m = simple_module();
        let stripped = strip_ticks(&out);
        for (a, b) in m.functions[0].blocks[0]
            .insts
            .iter()
            .zip(&stripped.functions[0].blocks[0].insts)
        {
            assert_eq!(a, b);
        }
        assert_eq!(
            m.functions[0].blocks[0].insts.len(),
            stripped.functions[0].blocks[0].insts.len()
        );
    }
}
