//! The instruction cost model and the *instructions estimate file*.
//!
//! The paper's logical clock unit is "one instruction", with multi-cycle
//! instructions charged "according to the approximate number of clock cycles
//! they take" (§III-A). Builtins that LLVM lowers without IR (memset, math
//! functions) are charged from a text file of estimates, optionally linear
//! in a size parameter (§III-B).
//!
//! The same numbers serve two roles:
//!
//! 1. the instrumentation pass sums them per block to compute clock amounts;
//! 2. the `detlock-vm` simulator charges them as execution cycles,
//!
//! so by construction the logical clock tracks simulated time exactly for
//! unoptimized instrumentation — divergence is introduced only by the
//! approximate optimizations, which is exactly the paper's situation.

use detlock_ir::inst::{BinOp, Builtin, Inst};
use std::collections::HashMap;

/// A linear cost estimate: `base + per_unit * size`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Constant part.
    pub base: u64,
    /// Cost per unit of the builtin's size argument.
    pub per_unit: u64,
}

impl Estimate {
    /// A flat estimate with no size dependence.
    pub const fn flat(base: u64) -> Estimate {
        Estimate { base, per_unit: 0 }
    }

    /// Evaluate for a known size.
    pub fn eval(&self, size: i64) -> u64 {
        self.base + self.per_unit.saturating_mul(size.max(0) as u64)
    }
}

/// Per-instruction-kind cycle costs plus builtin estimates.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Simple ALU ops (`add`, `sub`, bitwise, `min`/`max`), `mov`, `const`,
    /// `cmp`.
    pub alu: u64,
    /// Multiplication.
    pub mul: u64,
    /// Division / remainder.
    pub div: u64,
    /// Memory load.
    pub load: u64,
    /// Memory store.
    pub store: u64,
    /// Call/return overhead charged at the call site.
    pub call: u64,
    /// Lock/unlock intrinsic base cost (the uncontended fast path).
    pub sync: u64,
    /// Cost of one inserted `tick` instruction — *this is the
    /// instrumentation overhead* the paper's Table I "After Inserting
    /// Clocks" rows measure.
    pub tick: u64,
    /// Extra cost of a dynamic (size-scaled) tick over a static one.
    pub tick_dyn_extra: u64,
    /// Builtin estimates by name.
    builtins: HashMap<String, Estimate>,
}

impl Default for CostModel {
    fn default() -> Self {
        let mut builtins = HashMap::new();
        builtins.insert(
            "memset".into(),
            Estimate {
                base: 8,
                per_unit: 1,
            },
        );
        builtins.insert(
            "memcpy".into(),
            Estimate {
                base: 8,
                per_unit: 2,
            },
        );
        builtins.insert("sqrt".into(), Estimate::flat(20));
        builtins.insert("sin".into(), Estimate::flat(24));
        builtins.insert("cos".into(), Estimate::flat(24));
        builtins.insert("exp".into(), Estimate::flat(30));
        builtins.insert("log".into(), Estimate::flat(26));
        builtins.insert("rand".into(), Estimate::flat(6));
        CostModel {
            alu: 1,
            mul: 3,
            div: 12,
            load: 2,
            store: 2,
            call: 2,
            sync: 4,
            tick: 2,
            tick_dyn_extra: 2,
            builtins,
        }
    }
}

/// Error from parsing an estimate file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "estimate file line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl CostModel {
    /// Look up a builtin estimate. Unknown builtins cost `call` (the paper:
    /// unknown shared-library functions are either ignored or added to the
    /// estimate file; we charge at least the call overhead).
    pub fn builtin(&self, b: Builtin) -> Estimate {
        self.builtin_by_name(b.name())
    }

    /// Look up an estimate by name, defaulting to `Estimate::flat(call)`.
    pub fn builtin_by_name(&self, name: &str) -> Estimate {
        self.builtins
            .get(name)
            .copied()
            .unwrap_or(Estimate::flat(self.call))
    }

    /// Static cost of one instruction, charging size-dependent builtins only
    /// their `base` part (the `per_unit` part becomes a dynamic tick) and
    /// builtins with a *constant* size argument their full folded cost.
    ///
    /// `Tick`/`TickDyn` report their own *execution* cost (`tick`), which is
    /// the overhead the instrumentation adds; it is never part of a block's
    /// clock amount.
    pub fn inst_cost(&self, inst: &Inst) -> u64 {
        match inst {
            Inst::Const { .. } | Inst::Mov { .. } | Inst::Cmp { .. } => self.alu,
            Inst::Bin { op, .. } => match op {
                BinOp::Mul => self.mul,
                BinOp::Div | BinOp::Rem => self.div,
                _ => self.alu,
            },
            Inst::Load { .. } => self.load,
            Inst::Store { .. } => self.store,
            Inst::Call { .. } => self.call,
            Inst::CallBuiltin {
                builtin,
                size_arg,
                args,
                ..
            } => {
                let est = self.builtin(*builtin);
                match size_arg.and_then(|i| args.get(i)) {
                    Some(detlock_ir::inst::Operand::Imm(v)) => est.eval(*v),
                    Some(detlock_ir::inst::Operand::Reg(_)) => est.base,
                    None => est.base,
                }
            }
            Inst::Tick { .. } => self.tick,
            Inst::TickDyn { .. } => self.tick + self.tick_dyn_extra,
            Inst::Lock { .. } | Inst::Unlock { .. } => self.sync,
            Inst::Barrier { .. } => self.sync,
        }
    }

    /// Whether the builtin needs a dynamic tick: size-scaled estimate with a
    /// non-constant size operand.
    pub fn needs_dynamic_tick(&self, inst: &Inst) -> Option<(u64, detlock_ir::inst::Operand)> {
        if let Inst::CallBuiltin {
            builtin,
            size_arg,
            args,
            ..
        } = inst
        {
            let est = self.builtin(*builtin);
            if est.per_unit > 0 {
                if let Some(detlock_ir::inst::Operand::Reg(r)) = size_arg.and_then(|i| args.get(i))
                {
                    return Some((est.per_unit, detlock_ir::inst::Operand::Reg(*r)));
                }
            }
        }
        None
    }

    /// A stable digest of every cost knob, for the plan cache's content
    /// key: two models with the same fingerprint price every instruction
    /// and builtin identically, so plans compiled under one are valid under
    /// the other. Builtins are folded in sorted by name — `HashMap` order
    /// never leaks into the digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = detlock_shim::hash::Fnv64::new();
        for v in [
            self.alu,
            self.mul,
            self.div,
            self.load,
            self.store,
            self.call,
            self.sync,
            self.tick,
            self.tick_dyn_extra,
        ] {
            h.write_u64(v);
        }
        let mut names: Vec<&String> = self.builtins.keys().collect();
        names.sort();
        for name in names {
            let est = &self.builtins[name];
            h.write(name.as_bytes());
            h.write(&[0]);
            h.write_u64(est.base);
            h.write_u64(est.per_unit);
        }
        h.finish()
    }

    /// Parse an *instructions estimate file* and merge it into this model.
    ///
    /// Format (one entry per line, `#` comments):
    ///
    /// ```text
    /// # name = base [+ per_unit*size]
    /// memset = 4 + 1*size
    /// sqrt   = 30
    /// ```
    pub fn merge_estimate_file(&mut self, text: &str) -> Result<(), ParseError> {
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (name, rhs) = line.split_once('=').ok_or_else(|| ParseError {
                line: line_no,
                message: format!("expected `name = estimate`, got `{line}`"),
            })?;
            let name = name.trim();
            if name.is_empty() {
                return Err(ParseError {
                    line: line_no,
                    message: "empty name".into(),
                });
            }
            let rhs = rhs.trim();
            let est = parse_estimate(rhs).map_err(|m| ParseError {
                line: line_no,
                message: m,
            })?;
            self.builtins.insert(name.to_string(), est);
        }
        Ok(())
    }
}

fn parse_estimate(rhs: &str) -> Result<Estimate, String> {
    // Forms: "N" | "N + M*size"
    let parts: Vec<&str> = rhs.split('+').map(str::trim).collect();
    match parts.as_slice() {
        [base] => {
            let base: u64 = base
                .parse()
                .map_err(|_| format!("bad base `{base}` (expected integer)"))?;
            Ok(Estimate::flat(base))
        }
        [base, scaled] => {
            let base: u64 = base
                .parse()
                .map_err(|_| format!("bad base `{base}` (expected integer)"))?;
            let (coef, var) = scaled
                .split_once('*')
                .ok_or_else(|| format!("expected `M*size`, got `{scaled}`"))?;
            let coef: u64 = coef
                .trim()
                .parse()
                .map_err(|_| format!("bad coefficient `{coef}`"))?;
            if var.trim() != "size" {
                return Err(format!("expected variable `size`, got `{}`", var.trim()));
            }
            Ok(Estimate {
                base,
                per_unit: coef,
            })
        }
        _ => Err(format!("too many `+` terms in `{rhs}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::inst::Operand;
    use detlock_ir::Reg;

    #[test]
    fn default_costs_sane() {
        let cm = CostModel::default();
        assert_eq!(
            cm.inst_cost(&Inst::Const {
                dst: Reg(0),
                value: 3
            }),
            1
        );
        assert_eq!(
            cm.inst_cost(&Inst::Bin {
                op: BinOp::Mul,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Operand::Imm(1)
            }),
            cm.mul
        );
        assert_eq!(
            cm.inst_cost(&Inst::Bin {
                op: BinOp::Div,
                dst: Reg(0),
                lhs: Reg(0),
                rhs: Operand::Imm(1)
            }),
            cm.div
        );
        assert_eq!(cm.inst_cost(&Inst::Tick { amount: 100 }), cm.tick);
    }

    #[test]
    fn builtin_constant_size_folds() {
        let cm = CostModel::default();
        let i = Inst::CallBuiltin {
            builtin: Builtin::Memset,
            args: vec![Operand::Imm(0), Operand::Imm(0), Operand::Imm(16)],
            dst: None,
            size_arg: Some(2),
        };
        assert_eq!(cm.inst_cost(&i), 8 + 16);
        assert!(cm.needs_dynamic_tick(&i).is_none());
    }

    #[test]
    fn builtin_dynamic_size_needs_dyn_tick() {
        let cm = CostModel::default();
        let i = Inst::CallBuiltin {
            builtin: Builtin::Memset,
            args: vec![Operand::Imm(0), Operand::Imm(0), Operand::Reg(Reg(3))],
            dst: None,
            size_arg: Some(2),
        };
        assert_eq!(cm.inst_cost(&i), 8); // base only
        let (per, size) = cm.needs_dynamic_tick(&i).unwrap();
        assert_eq!(per, 1);
        assert_eq!(size, Operand::Reg(Reg(3)));
    }

    #[test]
    fn flat_builtin_never_dynamic() {
        let cm = CostModel::default();
        let i = Inst::CallBuiltin {
            builtin: Builtin::Sqrt,
            args: vec![Operand::Reg(Reg(1))],
            dst: Some(Reg(2)),
            size_arg: None,
        };
        assert_eq!(cm.inst_cost(&i), 20);
        assert!(cm.needs_dynamic_tick(&i).is_none());
    }

    #[test]
    fn estimate_file_round_trip() {
        let mut cm = CostModel::default();
        cm.merge_estimate_file(
            "# comment\n\
             memset = 4 + 1*size\n\
             \n\
             mycustom = 42   # trailing comment\n\
             scaled = 1 + 3*size\n",
        )
        .unwrap();
        assert_eq!(
            cm.builtin_by_name("memset"),
            Estimate {
                base: 4,
                per_unit: 1
            }
        );
        assert_eq!(cm.builtin_by_name("mycustom"), Estimate::flat(42));
        assert_eq!(
            cm.builtin_by_name("scaled"),
            Estimate {
                base: 1,
                per_unit: 3
            }
        );
    }

    #[test]
    fn unknown_builtin_defaults_to_call_cost() {
        let cm = CostModel::default();
        assert_eq!(cm.builtin_by_name("no_such_fn"), Estimate::flat(cm.call));
    }

    #[test]
    fn estimate_file_errors() {
        let mut cm = CostModel::default();
        let e = cm.merge_estimate_file("garbage line").unwrap_err();
        assert_eq!(e.line, 1);
        let e = cm.merge_estimate_file("x = 1 + 2*bytes").unwrap_err();
        assert!(e.message.contains("size"));
        let e = cm.merge_estimate_file("ok = 5\nbad = foo").unwrap_err();
        assert_eq!(e.line, 2);
        let e = cm.merge_estimate_file(" = 5").unwrap_err();
        assert!(e.message.contains("empty name"));
        let e = cm.merge_estimate_file("x = 1 + 2*size + 3").unwrap_err();
        assert!(e.message.contains("too many"));
    }

    #[test]
    fn estimate_eval_clamps_negative_size() {
        let e = Estimate {
            base: 5,
            per_unit: 2,
        };
        assert_eq!(e.eval(-10), 5);
        assert_eq!(e.eval(3), 11);
    }
}
