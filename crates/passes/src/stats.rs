//! Instrumentation statistics — feeds the "Clockable Functions" row of
//! Table I, the per-pass telemetry consumed by `dlc --pass-stats`,
//! `ablation --json` and the serve `/stats` endpoint, and general reporting.

use crate::plan::ModulePlan;
use detlock_ir::inst::Inst;
use detlock_ir::module::Module;

/// Telemetry for one pipeline stage: what it did to the clock plan and how
/// long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassStats {
    /// Stage name (see the constants in [`crate::pass`]).
    pub name: &'static str,
    /// Wall time the stage took, in nanoseconds. For a plan pass (O2a–O4)
    /// it is the sum of the pass's per-function times, at any worker count.
    pub wall_ns: u64,
    /// Blocks whose planned clock went from zero to nonzero (a tick the
    /// stage introduced).
    pub ticks_added: usize,
    /// Blocks whose planned clock went from nonzero to zero (a tick the
    /// stage eliminated).
    pub ticks_removed: usize,
    /// Total absolute per-block clock change, in cycles: the clock mass the
    /// stage moved around the plan (a relocation counts its source decrease
    /// and destination increase).
    pub mass_moved: u64,
}

impl PassStats {
    /// A zero-delta row for `name` with only the wall time filled in.
    pub fn timed(name: &'static str, wall_ns: u64) -> PassStats {
        PassStats {
            name,
            wall_ns,
            ticks_added: 0,
            ticks_removed: 0,
            mass_moved: 0,
        }
    }
}

/// Add `rows` into `totals` by pass name: a name already in `totals` sums
/// every counter into its row, a new name appends a copy.
pub fn fold_pass_stats(totals: &mut Vec<PassStats>, rows: &[PassStats]) {
    for ps in rows {
        match totals.iter_mut().find(|t| t.name == ps.name) {
            Some(t) => {
                t.wall_ns += ps.wall_ns;
                t.ticks_added += ps.ticks_added;
                t.ticks_removed += ps.ticks_removed;
                t.mass_moved += ps.mass_moved;
            }
            None => totals.push(ps.clone()),
        }
    }
}

/// Render per-pass telemetry as an aligned text table (shared by
/// `dlc --pass-stats` and the bench bins).
pub fn render_pass_table(passes: &[PassStats]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>8} {:>8} {:>12} {:>10}\n",
        "pass", "ticks+", "ticks-", "mass-moved", "wall-us"
    ));
    for p in passes {
        out.push_str(&format!(
            "{:<22} {:>8} {:>8} {:>12} {:>10.1}\n",
            p.name,
            p.ticks_added,
            p.ticks_removed,
            p.mass_moved,
            p.wall_ns as f64 / 1_000.0
        ));
    }
    out
}

/// Static statistics about an instrumented module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Functions clocked by Optimization 1 (Table I row).
    pub clockable_functions: usize,
    /// Total functions in the module.
    pub functions: usize,
    /// Total basic blocks after splitting.
    pub blocks: usize,
    /// Blocks that received a static tick.
    pub blocks_with_tick: usize,
    /// Static `Tick` instructions inserted.
    pub ticks_inserted: usize,
    /// Dynamic (`TickDyn`) instructions inserted.
    pub dynamic_ticks: usize,
    /// Sum of all static tick amounts (total clock mass).
    pub static_clock_mass: u64,
    /// Per-stage telemetry, in pipeline order (empty when the stats were
    /// collected outside a pipeline run).
    pub per_pass: Vec<PassStats>,
    /// Analysis-cache requests served without recomputation.
    pub analysis_cache_hits: u64,
    /// Analysis-cache requests that computed the analysis.
    pub analysis_cache_misses: u64,
}

impl Stats {
    /// Collect statistics from a materialized module and its plan.
    pub fn collect(module: &Module, plan: &ModulePlan) -> Stats {
        let mut blocks = 0;
        let mut blocks_with_tick = 0;
        let mut ticks_inserted = 0;
        let mut dynamic_ticks = 0;
        let mut static_clock_mass = 0u64;
        for func in &module.functions {
            for block in &func.blocks {
                blocks += 1;
                let mut any = false;
                for inst in &block.insts {
                    match inst {
                        Inst::Tick { amount } => {
                            ticks_inserted += 1;
                            static_clock_mass += amount;
                            any = true;
                        }
                        Inst::TickDyn { .. } => {
                            dynamic_ticks += 1;
                            any = true;
                        }
                        _ => {}
                    }
                }
                if any {
                    blocks_with_tick += 1;
                }
            }
        }
        Stats {
            clockable_functions: plan.clockable_functions(),
            functions: module.functions.len(),
            blocks,
            blocks_with_tick,
            ticks_inserted,
            dynamic_ticks,
            static_clock_mass,
            per_pass: Vec::new(),
            analysis_cache_hits: 0,
            analysis_cache_misses: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{FuncPlan, Placement};
    use detlock_ir::builder::FunctionBuilder;

    #[test]
    fn counts_ticks_and_mass() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        fb.block("a");
        fb.push(Inst::Tick { amount: 5 });
        fb.compute(2);
        let b = fb.create_block("b");
        fb.br(b);
        fb.switch_to(b);
        fb.push(Inst::Tick { amount: 7 });
        fb.ret_void();
        fb.finish_into(&mut m);
        let plan = ModulePlan {
            placement: Placement::Start,
            clocked: vec![None],
            funcs: vec![FuncPlan {
                block_clock: vec![5, 7],
                pinned: vec![false, false],
            }],
        };
        let s = Stats::collect(&m, &plan);
        assert_eq!(s.functions, 1);
        assert_eq!(s.blocks, 2);
        assert_eq!(s.blocks_with_tick, 2);
        assert_eq!(s.ticks_inserted, 2);
        assert_eq!(s.static_clock_mass, 12);
        assert_eq!(s.dynamic_ticks, 0);
        assert_eq!(s.clockable_functions, 0);
        assert!(s.per_pass.is_empty());
    }

    #[test]
    fn pass_table_renders_every_row() {
        let rows = vec![
            PassStats {
                name: "base-plan",
                wall_ns: 1_500,
                ticks_added: 7,
                ticks_removed: 0,
                mass_moved: 99,
            },
            PassStats::timed("o2a-cond-motion", 2_000),
        ];
        let table = render_pass_table(&rows);
        assert!(table.starts_with("pass"));
        assert!(table.contains("base-plan"));
        assert!(table.contains("o2a-cond-motion"));
        assert!(table.contains("99"));
        assert_eq!(table.lines().count(), 3);
    }

    #[test]
    fn fold_sums_by_name_and_appends_new_names() {
        let mut totals = vec![PassStats {
            mass_moved: 5,
            ..PassStats::timed("base-plan", 1_000)
        }];
        fold_pass_stats(
            &mut totals,
            &[
                PassStats {
                    ticks_added: 2,
                    ..PassStats::timed("o2a-cond-motion", 30)
                },
                PassStats {
                    mass_moved: 7,
                    ..PassStats::timed("base-plan", 500)
                },
            ],
        );
        let names: Vec<_> = totals.iter().map(|p| p.name).collect();
        assert_eq!(names, ["base-plan", "o2a-cond-motion"]);
        assert_eq!((totals[0].wall_ns, totals[0].mass_moved), (1_500, 12));
        assert_eq!(totals[1].ticks_added, 2);
    }
}
