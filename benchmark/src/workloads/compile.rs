//! `compile`: text in, verified instrumented module and lowered program out.
//!
//! Why: `ir` and `passes` do all the work and the VM executes nothing, so a
//! pass-pipeline or parser change shows here and nowhere else. One op takes
//! the five SPLASH-2 modules (scale 1.0, printed once to text) through
//! `parse_module → verify_module → instrument_with(serial, uncached) →
//! lower` at one of the 12 (OptLevel × Placement) configs. The alt phase is
//! the read beside that write: the same modules and configs through
//! `CompileOpts::serial().cached()` on a warm plan cache (plan-key hashing
//! of the canonical text plus the hit), so a cold-compile gain that fattens
//! keys or hashing shows.
//!
//! Correctness: set-up compiles every (config, module) pair once and holds
//! the result to `detlock_analyze::validate` (zero findings) and
//! `verify_module`; every timed op's output must equal that validated
//! reference structurally — which is stronger than hashing identically.

use crate::harness::{BlockOut, Phase, Workload};
use crate::programs::{Program, SimCounts};
use crate::trace::Tracer;
use crate::workloads::{block_seed, shuffled_kinds};
use detlock_analyze::validate::validate;
use detlock_ir::dot::function_to_text;
use detlock_ir::parse::parse_module;
use detlock_ir::types::FuncId;
use detlock_ir::verify::verify_module;
use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument_with, CompileOpts, Instrumented, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use std::hint::black_box;

/// Cold-compile ops per block (a multiple of the 12 configs).
pub const PRIMARY_OPS_PER_BLOCK: usize = 192;
/// Cached-compile ops per block.
pub const ALT_OPS_PER_BLOCK: usize = 768;
/// Simulated threads of the corpus modules.
pub const CORPUS_THREADS: usize = 4;
/// Scale the corpus runs at for `sim_overhead_pct`.
const SIM_SCALE: f64 = 0.05;
/// Jitter seed of the simulated-overhead runs (fixed: they repeat exactly).
pub const SIM_JITTER_SEED: u64 = 1;

/// The 12 compile configurations, Table I rows × tick placement.
pub fn configs() -> Vec<(OptLevel, Placement)> {
    OptLevel::table1_rows()
        .into_iter()
        .flat_map(|level| [(level, Placement::Start), (level, Placement::End)])
        .collect()
}

/// One corpus module as the compiler receives it.
pub struct Source {
    /// Benchmark name.
    pub name: &'static str,
    /// Canonical text (what `dlc` would read from a file).
    pub text: String,
    /// The module `text` parses to.
    pub module: Module,
    /// Thread entry functions (never clocked by O1).
    pub entries: Vec<FuncId>,
    /// `(entry, arguments)` of every thread, as the race analysis takes them.
    pub threads: Vec<(FuncId, Vec<i64>)>,
    /// Instructions and terminators in the module.
    pub insts: usize,
}

/// Print a module the way `plan_key` and `dlc` see it.
pub fn module_text(module: &Module) -> String {
    module
        .functions
        .iter()
        .map(|f| function_to_text(f, |_| None))
        .collect()
}

/// Instructions plus terminators: the unit `ns_per_inst` metrics divide by.
pub fn inst_count(module: &Module) -> usize {
    module
        .functions
        .iter()
        .flat_map(|f| &f.blocks)
        .map(|b| b.insts.len() + 1)
        .sum()
}

/// The five SPLASH-2 modules at scale 1.0, printed and parsed back.
pub fn corpus() -> Vec<Source> {
    detlock_workloads::all_benchmarks(CORPUS_THREADS, 1.0)
        .into_iter()
        .map(|w| {
            let text = module_text(&w.module);
            let module = parse_module(&text).expect("printed module parses");
            assert!(
                module == w.module,
                "{}: print → parse changed the module",
                w.name
            );
            Source {
                name: w.name,
                insts: inst_count(&module),
                text,
                module,
                entries: w.entries,
                threads: w.threads.into_iter().map(|t| (t.func, t.args)).collect(),
            }
        })
        .collect()
}

/// Whether `got` is the validated reference output.
pub fn same_output(got: &Instrumented, want: &Instrumented) -> bool {
    got.module == want.module && got.cert == want.cert
}

/// The `compile` workload.
pub struct Compile {
    cost: CostModel,
    corpus: Vec<Source>,
    configs: Vec<(OptLevel, Placement)>,
    /// `reference[config][module]`, each validated in set-up.
    reference: Vec<Vec<Instrumented>>,
    ops_per_block: (usize, usize),
    seed: u64,
}

impl Workload for Compile {
    const NAME: &'static str = "compile";

    fn set_up(seed: u64) -> Compile {
        let cost = CostModel::default();
        let corpus = corpus();
        for src in &corpus {
            verify_module(&src.module).unwrap_or_else(|e| panic!("{}: {e:?}", src.name));
            let lint = detlock_analyze::races::analyze_races(&src.module, &src.threads);
            assert!(
                lint.count(detlock_analyze::Severity::Error) == 0,
                "{}: corpus module is racy:\n{lint}",
                src.name
            );
        }
        let configs = configs();
        let reference = configs
            .iter()
            .map(|&(level, placement)| {
                corpus
                    .iter()
                    .map(|src| {
                        let out = instrument_with(
                            &src.module,
                            &cost,
                            &OptConfig::only(level),
                            placement,
                            &src.entries,
                            CompileOpts::serial(),
                        );
                        verify_module(&out.module)
                            .unwrap_or_else(|e| panic!("{} {level:?}: {e:?}", src.name));
                        let report = validate(&src.module, &out.module, &out.cert, &cost);
                        assert!(
                            report.findings.is_empty(),
                            "{} {level:?} {placement:?}: validate found:\n{report}",
                            src.name
                        );
                        out
                    })
                    .collect()
            })
            .collect();
        Compile {
            cost,
            corpus,
            configs,
            reference,
            ops_per_block: (PRIMARY_OPS_PER_BLOCK, ALT_OPS_PER_BLOCK),
            seed,
        }
    }

    fn ops_per_block(&self, phase: Phase) -> usize {
        match phase {
            Phase::Primary => self.ops_per_block.0,
            Phase::Alt => self.ops_per_block.1,
        }
    }

    fn run_block(&mut self, phase: Phase, block: usize, tracer: &mut Tracer, out: &mut BlockOut) {
        let order = shuffled_kinds(
            self.ops_per_block(phase),
            self.configs.len(),
            block_seed(self.seed, phase, block),
        );
        let cost = &self.cost;
        for (i, cfg) in order.into_iter().enumerate() {
            let (level, placement) = self.configs[cfg];
            let opt = OptConfig::only(level);
            let pairs = self.corpus.iter().zip(&self.reference[cfg]);
            out.op(tracer, i as u64, |tr| match phase {
                Phase::Primary => pairs.fold(true, |ok, (src, want)| {
                    let Ok(module) = tr.span("ir.parse", |_| parse_module(&src.text)) else {
                        return false;
                    };
                    if tr.span("ir.verify", |_| verify_module(&module)).is_err() {
                        return false;
                    }
                    let got = tr.span("passes.instrument", |_| {
                        instrument_with(
                            &module,
                            cost,
                            &opt,
                            placement,
                            &src.entries,
                            CompileOpts::serial(),
                        )
                    });
                    black_box(tr.span("vm.lower", |_| detlock_vm::lower::lower(&got.module, cost)));
                    ok & same_output(&got, want)
                }),
                Phase::Alt => pairs.fold(true, |ok, (src, want)| {
                    let got = tr.span("passes.cached", |_| {
                        instrument_with(
                            &src.module,
                            cost,
                            &opt,
                            placement,
                            &src.entries,
                            CompileOpts::serial().cached(),
                        )
                    });
                    ok & same_output(&got, want)
                }),
            });
        }
    }

    fn sim_counts(&self, with_clocks_only: bool) -> SimCounts {
        let mut sim = SimCounts::default();
        for w in detlock_workloads::all_benchmarks(CORPUS_THREADS, SIM_SCALE) {
            let program = Program::compile(w, &self.cost);
            sim.add(&program, &self.cost, SIM_JITTER_SEED, 1, with_clocks_only);
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn twelve_distinct_configs() {
        let c = configs();
        assert_eq!(c.len(), 12);
        assert_eq!(PRIMARY_OPS_PER_BLOCK % c.len(), 0);
        assert_eq!(ALT_OPS_PER_BLOCK % c.len(), 0);
        for (i, a) in c.iter().enumerate() {
            assert!(c[i + 1..].iter().all(|b| a != b));
        }
    }

    #[test]
    fn a_tampered_reference_is_counted_as_failed_ops() {
        let mut w = Compile::set_up(1);
        w.ops_per_block = (12, 12);
        let mut tracer = Tracer::new(Instant::now(), false);
        let failed = |w: &mut Compile, tracer: &mut Tracer, phase| {
            let mut out = BlockOut::new(Instant::now());
            w.run_block(phase, 1, tracer, &mut out);
            assert_eq!(out.ops.len(), 12);
            out.failed
        };
        assert_eq!(failed(&mut w, &mut tracer, Phase::Primary), 0);
        assert_eq!(failed(&mut w, &mut tracer, Phase::Alt), 0);
        // Swap two modules' references under config 0: the one op per block
        // that compiles at config 0 now fails, in either phase.
        w.reference[0].swap(0, 1);
        assert_eq!(failed(&mut w, &mut tracer, Phase::Primary), 1);
        assert_eq!(failed(&mut w, &mut tracer, Phase::Alt), 1);
    }
}
