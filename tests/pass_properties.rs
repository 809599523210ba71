//! Property-based tests over randomly generated structured programs:
//! invariants of the instrumentation passes and of the deterministic
//! simulator that must hold for *any* program, not just the workloads.
//!
//! Cases are driven by deterministic seed sweeps (a fixed PRNG draws the
//! seeds), so every run exercises the same programs and failures name the
//! exact seed to replay.

use detlock_analyze::validate::validate;
use detlock_ir::analysis::cfg::Cfg;
use detlock_ir::analysis::dom::DomTree;
use detlock_ir::analysis::loops::LoopInfo;
use detlock_ir::analysis::paths::{
    enumerate_paths, enumerate_paths_recorded, path_stats, PathError, PathStats, Step,
};
use detlock_ir::dot::function_to_text;
use detlock_ir::parse::parse_module;
use detlock_ir::verify::verify_module;
use detlock_ir::{BlockId, CmpOp, FuncId, Function, FunctionBuilder, Inst, Module};
use detlock_passes::cost::CostModel;
use detlock_passes::opt1::{compute_clocked, is_clockable, tight_average, ClockableParams};
use detlock_passes::opt3::apply_opt3;
use detlock_passes::pipeline::{instrument, Instrumented, OptConfig, OptLevel};
use detlock_passes::plan::{
    base_plan, block_clock_amount, block_clock_amounts, split_module, FuncPlan, Placement,
};
use detlock_shim::acq::first_divergence;
use detlock_shim::rng::SmallRng;
use detlock_vm::machine::{run, ExecMode, Jitter, MachineConfig, ThreadSpec};
use detlock_workloads::micro::{random_module, MicroParams};

fn micro_params() -> MicroParams {
    MicroParams {
        depth: 3,
        max_ops: 10,
        loop_pct: 35,
    }
}

/// Draw `cases` seeds from `lo..hi`, deterministically per test name.
fn seed_sweep(test: &str, cases: u64, lo: u64, hi: u64) -> Vec<u64> {
    let mut h = 0xcbf29ce484222325u64;
    for b in test.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100000001b3);
    }
    let mut rng = SmallRng::seed_from_u64(h);
    (0..cases).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Print a module the way `dlc` and the plan cache see it.
fn module_text(m: &Module) -> String {
    m.functions
        .iter()
        .map(|f| function_to_text(f, |_| None))
        .collect()
}

/// Every optimization level produces a structurally valid module on
/// random structured programs.
#[test]
fn random_programs_instrument_cleanly() {
    for seed in seed_sweep("random_programs_instrument_cleanly", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 3, &micro_params());
        let cost = CostModel::default();
        for level in OptLevel::table1_rows() {
            let out = instrument(
                &m,
                &cost,
                &OptConfig::only(level),
                Placement::Start,
                &[driver],
            );
            assert!(verify_module(&out.module).is_ok(), "seed {seed}");
        }
    }
}

/// The translation validator accepts `out` as compiled from `m` with no
/// finding of any severity: its path-sum obligation holds every acyclic
/// path's planned clock to the true cost within the cert's bounds, and a
/// function over the path cap would be a warning.
fn assert_validates(m: &Module, out: &Instrumented, cost: &CostModel, what: &str) {
    let report = validate(m, &out.module, &out.cert, cost);
    assert!(report.findings.is_empty(), "{what}:\n{report}");
}

/// The unoptimized plan and the O2a-only plan are *exact*: every
/// acyclic path's planned clock equals its true cost.
#[test]
fn precise_configs_have_zero_divergence() {
    for seed in seed_sweep("precise_configs_have_zero_divergence", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 3, &micro_params());
        let cost = CostModel::default();

        let mut o2a_only = OptConfig::none();
        o2a_only.o2 = true;
        o2a_only.opt2b.max_divergence = 0.0; // disable the approximate half
        for (name, config) in [("none", OptConfig::none()), ("O2a", o2a_only)] {
            let out = instrument(&m, &cost, &config, Placement::Start, &[driver]);
            assert!(out.cert.is_exact(), "seed {seed} {name}: inexact cert");
            assert_validates(&m, &out, &cost, &format!("seed {seed} {name}"));
        }
    }
}

/// The full pipeline's divergence stays within its cert's bounds on
/// random programs.
#[test]
fn full_pipeline_divergence_bounded() {
    for seed in seed_sweep("full_pipeline_divergence_bounded", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 3, &micro_params());
        let cost = CostModel::default();
        let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[driver]);
        assert_validates(&m, &out, &cost, &format!("seed {seed}"));
    }
}

/// Optimizations never increase the inserted tick count.
#[test]
fn opts_never_add_ticks() {
    for seed in seed_sweep("opts_never_add_ticks", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 3, &micro_params());
        let cost = CostModel::default();
        let count = |cfg: &OptConfig| {
            instrument(&m, &cost, cfg, Placement::Start, &[driver])
                .stats
                .ticks_inserted
        };
        let none = count(&OptConfig::none());
        for level in [
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::O4,
            OptLevel::All,
        ] {
            assert!(count(&OptConfig::only(level)) <= none, "seed {seed}");
        }
    }
}

/// Function Clocking as it was first written, kept as the oracle: every
/// route of a loop-free function materialised as a block sequence, every
/// block re-costed on every visit, the totals handed to `tight_average`
/// in enumeration order.
fn reference_clocked(
    module: &Module,
    cost: &CostModel,
    entries: &[FuncId],
    params: &ClockableParams,
) -> Vec<Option<u64>> {
    let clockable = |func: &Function, clocked: &[Option<u64>]| -> Option<u64> {
        let cfg = Cfg::compute(func);
        if LoopInfo::compute(&cfg, &DomTree::compute(&cfg)).has_loops() {
            return None;
        }
        for inst in func.blocks.iter().flat_map(|b| &b.insts) {
            match inst {
                Inst::Call { func: callee, .. } => {
                    clocked.get(callee.index()).copied().flatten()?;
                }
                Inst::Lock { .. } | Inst::Unlock { .. } | Inst::Barrier { .. } => return None,
                _ if cost.needs_dynamic_tick(inst).is_some() => return None,
                _ => {}
            }
        }
        let recorded = enumerate_paths_recorded(
            &cfg,
            func.entry(),
            params.max_paths,
            |_| 0,
            |_, _| Step::Follow,
        )
        .ok()?;
        let totals: Vec<u64> = recorded
            .routes
            .iter()
            .map(|route| {
                route
                    .iter()
                    .map(|&b| block_clock_amount(func.block(b), cost, clocked))
                    .sum()
            })
            .collect();
        tight_average(&PathStats::of(&totals), params)
    };
    let mut clocked = vec![None; module.functions.len()];
    let mut modified = true;
    while modified {
        modified = false;
        for (fid, func) in module.iter_funcs() {
            if clocked[fid.index()].is_none() && !entries.contains(&fid) {
                if let Some(mean) = clockable(func, &clocked) {
                    clocked[fid.index()] = Some(mean);
                    modified = true;
                }
            }
        }
    }
    clocked
}

/// `compute_clocked` agrees with the reference — which functions are
/// clocked and at what mean — on the five SPLASH-2 modules and on random
/// structured programs.
#[test]
fn function_clocking_matches_reference() {
    let cost = CostModel::default();
    let params = ClockableParams::default();
    let mut corpus_clocked = 0;
    for w in detlock_workloads::all_benchmarks(4, 1.0) {
        let got = compute_clocked(&w.module, &cost, &w.entries, &params);
        corpus_clocked += got.iter().flatten().count();
        assert_eq!(
            got,
            reference_clocked(&w.module, &cost, &w.entries, &params),
            "{}",
            w.name
        );
    }
    assert!(corpus_clocked > 30, "the corpus clocks {corpus_clocked}");
    // Loop-free random programs (every function a candidate) and loopy ones.
    for (loop_pct, tight) in [(0, false), (0, true), (35, false)] {
        let shape = MicroParams {
            loop_pct,
            ..micro_params()
        };
        // Thresholds loose enough that uneven diamonds qualify too, so both
        // verdicts of the tightness test are compared.
        let params = if tight {
            params
        } else {
            ClockableParams {
                range_divisor: 1.2,
                std_divisor: 2.0,
                ..params
            }
        };
        for seed in seed_sweep("function_clocking_matches_reference", 16, 1, 10_000) {
            let (m, driver) = random_module(seed, 3, &shape);
            assert_eq!(
                compute_clocked(&m, &cost, &[driver], &params),
                reference_clocked(&m, &cost, &[driver], &params),
                "seed {seed} loop_pct {loop_pct} tight {tight}"
            );
        }
    }
}

/// A chain of `k` diamonds with arms one instruction apart: 2^k paths.
fn diamond_chain(k: usize) -> Module {
    let mut m = Module::new();
    m.add_function(chain_function(k, false));
    m
}

/// `diamond_chain`'s function; with `fork`, one more branch in front of
/// the chain, whose other arm returns at once: 2^k + 1 paths.
fn chain_function(k: usize, fork: bool) -> Function {
    let mut fb = FunctionBuilder::new("chain", 1);
    fb.block("entry");
    let p = fb.param(0);
    fb.compute(64);
    if fork {
        let first = fb.create_block("first");
        let out = fb.create_block("out");
        let c = fb.cmp(CmpOp::Lt, p, 0);
        fb.cond_br(c, first, out);
        fb.switch_to(out);
        fb.ret_void();
        fb.switch_to(first);
    }
    for i in 0..k {
        let t = fb.create_block(format!("t{i}"));
        let e = fb.create_block(format!("e{i}"));
        let m = fb.create_block(format!("m{i}"));
        let c = fb.cmp(CmpOp::Gt, p, i as i64);
        fb.cond_br(c, t, e);
        fb.switch_to(t);
        fb.compute(2);
        fb.br(m);
        fb.switch_to(e);
        fb.compute(3);
        fb.br(m);
        fb.switch_to(m);
    }
    fb.ret_void();
    fb.finish().unwrap()
}

/// The path cap is `> max_paths`: exactly 4 096 paths are evaluated (and
/// found tight), 8 192 are not clockable.
#[test]
fn function_clocking_path_cap_edge() {
    let cost = CostModel::default();
    let params = ClockableParams::default();
    assert_eq!(params.max_paths, 4096);
    let at_cap = diamond_chain(12);
    let got = compute_clocked(&at_cap, &cost, &[], &params);
    assert!(got[0].is_some(), "4096 paths must be evaluated");
    assert_eq!(got, reference_clocked(&at_cap, &cost, &[], &params));
    let over = diamond_chain(13);
    assert_eq!(compute_clocked(&over, &cost, &[], &params), vec![None]);
    assert_eq!(reference_clocked(&over, &cost, &[], &params), vec![None]);
}

/// A caller whose callee has the higher `FuncId` is refused in the first
/// sweep of the fixpoint and clocked in the second, at its own cost plus
/// the callee's mean.
#[test]
fn function_clocking_promotes_caller_in_second_sweep() {
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("caller", 0);
    fb.block("entry");
    fb.compute(3);
    fb.call_void(FuncId(1), vec![]);
    fb.ret_void();
    fb.finish_into(&mut m);
    let mut fb = FunctionBuilder::new("leaf", 0);
    fb.block("entry");
    fb.compute(8);
    fb.ret_void();
    fb.finish_into(&mut m);
    assert!(verify_module(&m).is_ok());

    let cost = CostModel::default();
    let params = ClockableParams::default();
    let got = compute_clocked(&m, &cost, &[], &params);
    assert_eq!(got, reference_clocked(&m, &cost, &[], &params));
    let leaf = got[1].expect("leaf is clockable");
    let caller = m.func(FuncId(0));
    assert_eq!(is_clockable(caller, &cost, &[None, None], &params), None);
    assert_eq!(
        got[0],
        is_clockable(caller, &cost, &[None, Some(leaf)], &params)
    );
    assert_eq!(
        got[0],
        Some(block_clock_amount(&caller.blocks[0], &cost, &[None, None]) + leaf)
    );
}

/// The passes' path summary against the enumeration the validator keeps:
/// `path_stats` and `enumerate_paths` under the same arguments must agree
/// on `Ok` versus `Err`, and on success give the same touched set and
/// `stats == PathStats::of(&totals)`. Returns the summary's verdict.
fn assert_summary_matches(
    cfg: &Cfg,
    start: BlockId,
    max_paths: usize,
    value: impl Fn(BlockId) -> u64,
    decide: impl Fn(BlockId, BlockId) -> Step,
    what: &str,
) -> Result<PathStats, PathError> {
    let summary = path_stats(cfg, start, max_paths, &value, &decide);
    let paths = enumerate_paths(cfg, start, max_paths, &value, &decide);
    match (&summary, paths) {
        (Ok(s), Ok(p)) => {
            assert_eq!(s.stats, PathStats::of(&p.totals), "{what}: stats");
            assert_eq!(s.touched, p.touched, "{what}: touched");
        }
        (Err(_), Err(_)) => {}
        (s, p) => panic!("{what}: summary {s:?}, enumeration {p:?}"),
    }
    summary.map(|s| s.stats)
}

/// `path_stats` summarizes exactly the paths `enumerate_paths` walks: from
/// every block of random programs (loop-free and loopy), under O1's policy
/// (follow every edge) and O3's (stop before back edges, blocks the start
/// does not dominate, pinned blocks and deeper loops), at the default cap
/// and a small one; and on hand-built edge cases.
#[test]
fn paths_summary_matches_enumeration() {
    let cost = CostModel::default();
    let params = ClockableParams::default();
    let (mut ok, mut err) = (0, 0);
    for loop_pct in [0, 35] {
        let shape = MicroParams {
            loop_pct,
            ..micro_params()
        };
        for seed in seed_sweep("paths_summary_matches_enumeration", 12, 1, 10_000) {
            let (m, driver) = random_module(seed, 3, &shape);
            let clocked = compute_clocked(&m, &cost, &[driver], &params);
            let split = split_module(&m, &clocked);
            let plans = base_plan(&split, &cost, &clocked);
            for ((fid, f), plan) in split.iter_funcs().zip(&plans) {
                let cfg = Cfg::compute(f);
                let dom = DomTree::compute(&cfg);
                let loops = LoopInfo::compute(&cfg, &dom);
                let amounts = block_clock_amounts(f, &cost, &clocked);
                let value = |b: BlockId| amounts[b.index()];
                for start in f.block_ids() {
                    let o3 = |from: BlockId, to: BlockId| {
                        if loops.is_back_edge(from, to)
                            || !dom.dominates(start, to)
                            || plan.is_pinned(to)
                            || loops.depth(to) > loops.depth(start)
                        {
                            Step::StopBefore
                        } else {
                            Step::Follow
                        }
                    };
                    for cap in [8, params.max_paths] {
                        let what =
                            format!("seed {seed} loop_pct {loop_pct} {fid} from {start} cap {cap}");
                        let verdicts = [
                            assert_summary_matches(
                                &cfg,
                                start,
                                cap,
                                value,
                                |_, _| Step::Follow,
                                &format!("{what} O1"),
                            ),
                            assert_summary_matches(
                                &cfg,
                                start,
                                cap,
                                value,
                                o3,
                                &format!("{what} O3"),
                            ),
                        ];
                        for v in verdicts {
                            if v.is_ok() {
                                ok += 1;
                            } else {
                                err += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(ok > 4000 && err > 800, "{ok} summaries, {err} refusals");

    let one = |_: BlockId| 1;
    let follow = |_: BlockId, _: BlockId| Step::Follow;
    // `condbr r, bbX, bbX`, and a switch repeating its targets.
    let mut fb = FunctionBuilder::new("repeats", 1);
    let entry = fb.block("entry");
    let a = fb.create_block("a");
    let b = fb.create_block("b");
    let exit = fb.create_block("exit");
    let p = fb.param(0);
    fb.switch(p, vec![(0, b), (1, a), (2, b), (3, exit)], a);
    fb.switch_to(a);
    fb.compute(3);
    fb.br(exit);
    fb.switch_to(b);
    let c = fb.cmp(CmpOp::Gt, p, 0);
    fb.cond_br(c, exit, exit);
    fb.switch_to(exit);
    fb.ret_void();
    let f = fb.finish().unwrap();
    let cfg = Cfg::compute(&f);
    let value = |x: BlockId| block_clock_amount(f.block(x), &cost, &[]);
    let s = assert_summary_matches(&cfg, entry, 4096, value, follow, "repeats").unwrap();
    assert_eq!(s.count, cfg.succs(entry).len() as u64);
    assert_summary_matches(&cfg, b, 4096, value, follow, "condbr to one block").unwrap();
    let stop_at_exit = |_: BlockId, to: BlockId| {
        if to == exit {
            Step::StopBefore
        } else {
            Step::Follow
        }
    };
    assert_summary_matches(&cfg, entry, 4096, value, stop_at_exit, "repeats, exit cut").unwrap();

    // A reachable cycle: refused when followed, summarized when cut.
    let mut fb = FunctionBuilder::new("cycle", 1);
    fb.block("entry");
    let head = fb.create_block("head");
    let body = fb.create_block("body");
    let out = fb.create_block("out");
    let p = fb.param(0);
    fb.br(head);
    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Gt, p, 0);
    fb.cond_br(c, body, out);
    fb.switch_to(body);
    fb.br(head);
    fb.switch_to(out);
    fb.ret_void();
    let f = fb.finish().unwrap();
    let cfg = Cfg::compute(&f);
    let r = assert_summary_matches(&cfg, f.entry(), 4096, one, follow, "cycle");
    assert_eq!(r, Err(PathError::Cycle));
    let cut = |from: BlockId, to: BlockId| {
        if from == body && to == head {
            Step::StopBefore
        } else {
            Step::Follow
        }
    };
    let s = assert_summary_matches(&cfg, f.entry(), 4096, one, cut, "cycle, cut").unwrap();
    assert_eq!(s, PathStats::of(&[3, 3]));

    // The cap is `> max_paths`: 4 096 paths pass, 4 097 do not.
    for (fork, cap, want) in [
        (false, 4096, Ok(4096)),
        (true, 4096, Err(PathError::TooManyPaths)),
        (true, 4097, Ok(4097)),
    ] {
        let f = chain_function(12, fork);
        let cfg = Cfg::compute(&f);
        let value = |x: BlockId| block_clock_amount(f.block(x), &cost, &[]);
        let what = format!("2^12 paths, fork {fork}, cap {cap}");
        let got = assert_summary_matches(&cfg, f.entry(), cap, value, follow, &what);
        assert_eq!(got.map(|s| s.count), want, "{what}");
    }

    // 2^40 paths are refused by their count: each block's value is read at
    // most once, and the pass stops a dozen diamonds from the end.
    let f = chain_function(40, false);
    let cfg = Cfg::compute(&f);
    let reads = std::cell::Cell::new(0usize);
    let r = path_stats(
        &cfg,
        f.entry(),
        4096,
        |_| {
            reads.set(reads.get() + 1);
            1
        },
        follow,
    );
    assert_eq!(r.unwrap_err(), PathError::TooManyPaths);
    assert!(reads.get() < 3 * 14, "{} block values read", reads.get());
    assert_summary_matches(&cfg, f.entry(), 4096, one, follow, "2^40").unwrap_err();
}

/// Optimization 3 as specified, kept as the oracle for `apply_opt3`: the
/// same DFS from the entry, with each region's paths enumerated by
/// `enumerate_paths` and handed to `tight_average` as a list.
fn reference_opt3(
    cfg: &Cfg,
    dom: &DomTree,
    loops: &LoopInfo,
    params: &ClockableParams,
    plan: &mut FuncPlan,
) {
    let mut visited = vec![false; cfg.len()];
    let mut stack = vec![BlockId(0)];
    visited[0] = true;
    while let Some(bb) = stack.pop() {
        let region = if !plan.is_pinned(bb) && cfg.succs(bb).len() >= 2 {
            enumerate_paths(
                cfg,
                bb,
                params.max_paths,
                |b| plan.clock(b),
                |from, to| {
                    if loops.is_back_edge(from, to)
                        || !dom.dominates(bb, to)
                        || plan.is_pinned(to)
                        || loops.depth(to) > loops.depth(bb)
                    {
                        Step::StopBefore
                    } else {
                        Step::Follow
                    }
                },
            )
            .ok()
            .filter(|ps| ps.touched.len() >= 2)
        } else {
            None
        };
        let averaged = region.and_then(|ps| {
            tight_average(&PathStats::of(&ps.totals), params).map(|avg| (ps.touched, avg))
        });
        let next: Vec<BlockId> = match averaged {
            Some((touched, avg)) => {
                for &tb in &touched {
                    plan.set_clock(tb, 0);
                    visited[tb.index()] = true;
                }
                plan.set_clock(bb, avg);
                touched
                    .iter()
                    .flat_map(|&tb| cfg.succs(tb).iter().copied())
                    .filter(|s| !touched.contains(s))
                    .collect()
            }
            None => cfg.succs(bb).to_vec(),
        };
        for s in next {
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push(s);
            }
        }
    }
}

/// `apply_opt3` produces the reference's plan exactly, on the SPLASH-2
/// modules and on random programs, loop-free and loopy, at the paper's
/// thresholds and at loose ones (so that uneven regions are averaged too).
#[test]
fn averaging_matches_reference() {
    let cost = CostModel::default();
    let tight = ClockableParams::default();
    let loose = ClockableParams {
        range_divisor: 1.2,
        std_divisor: 2.0,
        ..tight
    };
    let mut modules: Vec<(String, Module, Vec<FuncId>)> =
        detlock_workloads::all_benchmarks(4, 0.05)
            .into_iter()
            .map(|w| (w.name.to_string(), w.module, w.entries))
            .collect();
    for loop_pct in [0, 35] {
        let shape = MicroParams {
            loop_pct,
            ..micro_params()
        };
        for seed in seed_sweep("averaging_matches_reference", 16, 1, 10_000) {
            let (m, driver) = random_module(seed, 3, &shape);
            modules.push((format!("seed {seed} loop_pct {loop_pct}"), m, vec![driver]));
        }
    }
    let mut averaged = 0;
    for (name, m, entries) in &modules {
        let clocked = compute_clocked(m, &cost, entries, &tight);
        let split = split_module(m, &clocked);
        let plans = base_plan(&split, &cost, &clocked);
        for ((fid, f), base) in split.iter_funcs().zip(&plans) {
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            let loops = LoopInfo::compute(&cfg, &dom);
            for (label, params) in [("tight", tight), ("loose", loose)] {
                let mut got = base.clone();
                apply_opt3(&cfg, &dom, &loops, params, &mut got);
                let mut want = base.clone();
                reference_opt3(&cfg, &dom, &loops, &params, &mut want);
                assert_eq!(got.block_clock, want.block_clock, "{name} {fid} {label}");
                assert_eq!(got.pinned, want.pinned, "{name} {fid} {label}");
                averaged += (got.block_clock != base.block_clock) as usize;
            }
        }
    }
    assert!(averaged > 150, "{averaged} plans averaged");
}

/// Dominator-tree sanity on random CFGs: the entry dominates every
/// reachable block; immediate dominators are strict dominators.
#[test]
fn dominator_invariants() {
    for seed in seed_sweep("dominator_invariants", 24, 1, 10_000) {
        let (m, _) = random_module(seed, 2, &micro_params());
        for f in &m.functions {
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            for b in f.block_ids() {
                if !cfg.is_reachable(b) {
                    continue;
                }
                assert!(dom.dominates(f.entry(), b), "seed {seed}");
                if b != f.entry() {
                    let id = dom.idom(b).unwrap();
                    assert!(dom.strictly_dominates(id, b), "seed {seed}");
                }
            }
        }
    }
}

/// Loop-analysis sanity: headers dominate their latches; depth is
/// positive exactly on loop blocks.
#[test]
fn loop_invariants() {
    for seed in seed_sweep("loop_invariants", 24, 1, 10_000) {
        let (m, _) = random_module(seed, 2, &micro_params());
        for f in &m.functions {
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            let li = LoopInfo::compute(&cfg, &dom);
            for l in &li.loops {
                for latch in &l.latches {
                    assert!(dom.dominates(l.header, *latch), "seed {seed}");
                }
                for b in &l.blocks {
                    assert!(li.depth(*b) >= 1, "seed {seed}");
                }
            }
        }
    }
}

/// `Cfg::compute` against a reference built straight from the
/// terminators: successors deduplicated to their first occurrence in
/// branch order, predecessors ascending, and a recursive DFS that visits
/// successors in that order for the reverse post-order.
fn assert_cfg_matches_reference(f: &Function, what: &str) {
    let n = f.blocks.len();
    let mut succs: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    let mut preds: Vec<Vec<BlockId>> = vec![Vec::new(); n];
    for (b, block) in f.iter_blocks() {
        for s in block.term.successors() {
            if !succs[b.index()].contains(&s) {
                succs[b.index()].push(s);
                preds[s.index()].push(b);
            }
        }
    }
    fn visit(b: BlockId, succs: &[Vec<BlockId>], seen: &mut [bool], post: &mut Vec<BlockId>) {
        seen[b.index()] = true;
        for &s in &succs[b.index()] {
            if !seen[s.index()] {
                visit(s, succs, seen, post);
            }
        }
        post.push(b);
    }
    let mut rpo = Vec::new();
    visit(f.entry(), &succs, &mut vec![false; n], &mut rpo);
    rpo.reverse();
    let mut rpo_index = vec![usize::MAX; n];
    for (i, b) in rpo.iter().enumerate() {
        rpo_index[b.index()] = i;
    }

    let cfg = Cfg::compute(f);
    assert_eq!(cfg.len(), n, "{what}");
    for b in f.block_ids() {
        assert_eq!(cfg.succs(b), &succs[b.index()][..], "{what}: succs({b})");
        assert_eq!(cfg.preds(b), &preds[b.index()][..], "{what}: preds({b})");
        assert_eq!(cfg.is_reachable(b), rpo_index[b.index()] != usize::MAX);
    }
    assert_eq!(cfg.rpo, rpo, "{what}: rpo");
    assert_eq!(cfg.rpo_index, rpo_index, "{what}: rpo_index");
}

/// The CFG's edge lists and orders are pinned on the SPLASH-2 modules
/// (source and instrumented), random programs, and hand-built edge cases.
#[test]
fn cfg_matches_successor_reference() {
    let cost = CostModel::default();
    for w in detlock_workloads::all_benchmarks(4, 0.05) {
        let out = instrument(
            &w.module,
            &cost,
            &OptConfig::none(),
            Placement::Start,
            &w.entries,
        );
        for m in [&w.module, &out.module] {
            for f in &m.functions {
                assert_cfg_matches_reference(f, &format!("{}/{}", w.name, f.name));
            }
        }
    }
    for seed in seed_sweep("cfg_matches_successor_reference", 24, 1, 10_000) {
        let (m, _) = random_module(seed, 3, &micro_params());
        for f in &m.functions {
            assert_cfg_matches_reference(f, &format!("seed {seed}/{}", f.name));
        }
    }

    // A switch repeating its targets, with the default among them, plus a
    // self loop, a back edge to the entry and an unreachable block.
    let mut fb = FunctionBuilder::new("edges", 1);
    let entry = fb.block("entry");
    let a = fb.create_block("a");
    let b = fb.create_block("b");
    let dead = fb.create_block("dead");
    let exit = fb.create_block("exit");
    let p = fb.param(0);
    fb.switch(p, vec![(0, b), (1, a), (2, b), (3, a), (4, exit)], a);
    fb.switch_to(a);
    let c = fb.cmp(CmpOp::Gt, p, 0);
    fb.cond_br(c, a, entry);
    fb.switch_to(b);
    fb.cond_br(c, exit, exit);
    fb.switch_to(dead);
    fb.br(b);
    fb.switch_to(exit);
    fb.ret_void();
    let f = fb.finish().unwrap();
    assert_cfg_matches_reference(&f, "edges");
    let cfg = Cfg::compute(&f);
    assert_eq!(cfg.succs(entry), &[b, a, exit]);
    assert_eq!(cfg.preds(exit), &[entry, b]);
    assert_eq!(cfg.preds(b), &[entry, dead]);
    assert!(!cfg.is_reachable(dead));
}

/// Path totals over the instrumented module equal the materialized tick
/// sums along those paths (plan ↔ ticks consistency).
#[test]
fn materialized_ticks_match_plan() {
    for seed in seed_sweep("materialized_ticks_match_plan", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 2, &micro_params());
        let cost = CostModel::default();
        let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[driver]);
        for (fid, f) in out.module.iter_funcs() {
            let plan = &out.plan.funcs[fid.index()];
            let cfg = Cfg::compute(f);
            let dom = DomTree::compute(&cfg);
            let li = LoopInfo::compute(&cfg, &dom);
            let from_ticks = enumerate_paths(
                &cfg,
                f.entry(),
                1 << 14,
                |b| {
                    f.block(b)
                        .insts
                        .iter()
                        .filter_map(|i| match i {
                            detlock_ir::Inst::Tick { amount } => Some(*amount),
                            _ => None,
                        })
                        .sum()
                },
                |from, to| {
                    if li.is_back_edge(from, to) {
                        Step::StopBefore
                    } else {
                        Step::Follow
                    }
                },
            );
            let from_plan = enumerate_paths(
                &cfg,
                f.entry(),
                1 << 14,
                |b| plan.block_clock[b.index()],
                |from, to| {
                    if li.is_back_edge(from, to) {
                        Step::StopBefore
                    } else {
                        Step::Follow
                    }
                },
            );
            if let (Ok(a), Ok(b)) = (from_ticks, from_plan) {
                assert_eq!(a.totals, b.totals, "seed {seed}");
            }
        }
    }
}

/// Weak determinism on random contended programs: lock order identical
/// across jitter seeds in Det mode.
#[test]
fn random_contended_programs_are_deterministic() {
    for seed in seed_sweep("random_contended_programs_are_deterministic", 8, 1, 2_000) {
        // Wrap each random function in a lock-using driver.
        let (mut m, _) = random_module(seed, 2, &micro_params());
        let mut fb = detlock_ir::FunctionBuilder::new("locked_driver", 2);
        fb.block("entry");
        let head = fb.create_block("head");
        let body = fb.create_block("body");
        let done = fb.create_block("done");
        let data = fb.param(0);
        let iters = fb.param(1);
        let i = fb.iconst(0);
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(detlock_ir::CmpOp::Lt, i, iters);
        fb.cond_br(c, body, done);
        fb.switch_to(body);
        let arg = fb.add(data, detlock_ir::Operand::Reg(i));
        fb.call_void(detlock_ir::FuncId(0), vec![detlock_ir::Operand::Reg(arg)]);
        fb.lock(0i64);
        let a = fb.iconst(64);
        let v = fb.load(a, 0);
        let v2 = fb.add(v, 1);
        fb.store(a, 0, v2);
        fb.unlock(0i64);
        fb.bin_to(detlock_ir::BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(done);
        fb.ret_void();
        let driver = fb.finish_into(&mut m);

        let cost = CostModel::default();
        let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[driver]);
        let threads: Vec<ThreadSpec> = (0..3)
            .map(|t| ThreadSpec {
                func: driver,
                args: vec![t * 17, 25],
            })
            .collect();
        let cfg = MachineConfig {
            mode: ExecMode::Det,
            jitter: Jitter::default(),
            max_cycles: 500_000_000,
            ..MachineConfig::default()
        };
        let runs = [1, 99, 4242].map(|jitter| {
            let cfg = MachineConfig {
                jitter: cfg.jitter.with_seed(jitter),
                ..cfg.clone()
            };
            let (m, hit) = run(&out.module, &cost, &threads, cfg);
            assert!(!hit, "seed {seed}, jitter {jitter}");
            m
        });
        for m in &runs[1..] {
            assert_eq!(
                first_divergence(&runs[0].lock_order, &m.lock_order),
                None,
                "seed {seed}"
            );
            assert_eq!(runs[0].lock_order_hash, m.lock_order_hash, "seed {seed}");
        }
    }
}

/// Application work (retired stores) is identical between baseline and
/// instrumented runs: ticks observe, they don't perturb.
#[test]
fn instrumentation_preserves_work() {
    for seed in seed_sweep("instrumentation_preserves_work", 24, 1, 10_000) {
        let (m, driver) = random_module(seed, 2, &micro_params());
        let cost = CostModel::default();
        let out = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[driver]);
        let t = [ThreadSpec {
            func: driver,
            args: vec![seed as i64, 4],
        }];
        let mk = |mode| MachineConfig {
            mode,
            jitter: Jitter {
                seed: 0,
                prob_num: 0,
                prob_den: 0,
                max_extra: 0,
            },
            max_cycles: 500_000_000,
            ..MachineConfig::default()
        };
        let (base, _) = run(&out.module, &cost, &t, mk(ExecMode::Baseline));
        let (clk, _) = run(&out.module, &cost, &t, mk(ExecMode::ClocksOnly));
        assert_eq!(
            base.per_thread[0].retired_stores, clk.per_thread[0].retired_stores,
            "seed {seed}"
        );
        // And the tick execution shows up only in the instrumented run.
        assert_eq!(base.per_thread[0].ticks_executed, 0, "seed {seed}");
    }
}

/// The textual printer and parser are inverses: printing the parse of a
/// printed module reproduces the text exactly, for random programs and
/// for every instrumented variant.
#[test]
fn print_parse_print_roundtrip() {
    for seed in seed_sweep("print_parse_print_roundtrip", 16, 1, 10_000) {
        let (m, driver) = random_module(seed, 2, &micro_params());
        let cost = CostModel::default();
        let inst = instrument(&m, &cost, &OptConfig::all(), Placement::Start, &[driver]);
        for module in [&m, &inst.module] {
            let printed: String = module
                .functions
                .iter()
                .map(|f| detlock_ir::dot::function_to_text(f, |_| None))
                .collect::<Vec<_>>()
                .join("\n");
            let reparsed =
                detlock_ir::parse::parse_module(&printed).expect("printed module must parse");
            assert!(verify_module(&reparsed).is_ok(), "seed {seed}");
            let reprinted: String = reparsed
                .functions
                .iter()
                .map(|f| detlock_ir::dot::function_to_text(f, |_| None))
                .collect::<Vec<_>>()
                .join("\n");
            assert_eq!(&printed, &reprinted, "seed {seed}");
        }
    }
}

/// A module whose builtins carry size arguments: a register-sized `memset`
/// (dynamic tick beside it) and an immediate-sized `memcpy`.
fn sized_builtins() -> (Module, FuncId) {
    use detlock_ir::{Builtin, Operand};
    let mut m = Module::new();
    let mut fb = FunctionBuilder::new("fill", 2);
    fb.block("entry");
    let (dst, len) = (fb.param(0), fb.param(1));
    fb.builtin_void(
        Builtin::Memset,
        vec![dst.into(), Operand::Imm(0), len.into()],
        Some(2),
    );
    fb.builtin_void(
        Builtin::Memcpy,
        vec![dst.into(), dst.into(), Operand::Imm(16)],
        Some(2),
    );
    fb.ret_void();
    let entry = fb.finish_into(&mut m);
    (m, entry)
}

/// The same fixpoint on what the pipeline emits at `OptLevel::All`, both
/// placements, for the five SPLASH-2 modules and [`sized_builtins`]:
/// `tick N`, `tick a + b*rN` and `[size=#k]` all survive text → parse → IR
/// → print → text, and the reparsed module is the instrumented one.
#[test]
fn instrumented_corpus_roundtrips() {
    let cost = CostModel::default();
    let mut modules: Vec<(&str, Module, Vec<FuncId>)> = detlock_workloads::all_benchmarks(4, 1.0)
        .into_iter()
        .map(|w| (w.name, w.module, w.entries))
        .collect();
    let (sized, entry) = sized_builtins();
    modules.push(("sized-builtins", sized, vec![entry]));
    let mut seen = String::new();
    for (name, module, entries) in &modules {
        let source = module_text(module);
        assert!(parse_module(&source).unwrap() == *module, "{name}");
        for placement in [Placement::Start, Placement::End] {
            let inst = instrument(module, &cost, &OptConfig::all(), placement, entries);
            let printed = module_text(&inst.module);
            let reparsed =
                parse_module(&printed).unwrap_or_else(|e| panic!("{name} {placement:?}: {e}"));
            assert!(reparsed == inst.module, "{name} {placement:?}");
            assert_eq!(module_text(&reparsed), printed, "{name} {placement:?}");
            seen.push_str(&printed);
        }
    }
    for form in ["    tick ", "*r", " [size=#"] {
        assert!(seen.contains(form), "no module prints `{form}`");
    }
}

/// Reparsed modules run identically: same retired stores and lock
/// acquisitions as the original under identical seeds.
#[test]
fn reparsed_modules_execute_identically() {
    for seed in seed_sweep("reparsed_modules_execute_identically", 16, 1, 2_000) {
        let (m, driver) = random_module(seed, 2, &micro_params());
        let printed: String = m
            .functions
            .iter()
            .map(|f| detlock_ir::dot::function_to_text(f, |_| None))
            .collect::<Vec<_>>()
            .join("\n");
        let reparsed = detlock_ir::parse::parse_module(&printed).unwrap();
        let cost = CostModel::default();
        let t = [ThreadSpec {
            func: driver,
            args: vec![seed as i64, 3],
        }];
        let mk = || MachineConfig {
            mode: ExecMode::Baseline,
            jitter: Jitter {
                seed: 3,
                prob_num: 1,
                prob_den: 16,
                max_extra: 2,
            },
            max_cycles: 500_000_000,
            ..MachineConfig::default()
        };
        let (a, _) = run(&m, &cost, &t, mk());
        let (b, _) = run(&reparsed, &cost, &t, mk());
        assert_eq!(
            a.per_thread[0].retired_stores, b.per_thread[0].retired_stores,
            "seed {seed}"
        );
        assert_eq!(
            a.per_thread[0].instructions, b.per_thread[0].instructions,
            "seed {seed}"
        );
    }
}

/// The 256 inputs of [`parser_never_panics`]: bytes drawn from a mix of
/// printable ASCII, IR-ish punctuation, and raw control characters,
/// approximating an arbitrary-string generator.
fn arbitrary_inputs() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0x70617273);
    (0..256)
        .map(|_| {
            let len = rng.gen_range(0..400) as usize;
            (0..len)
                .map(|_| match rng.gen_range(0..10) {
                    0..=5 => (rng.gen_range(0x20..0x7f) as u8) as char,
                    6..=7 => {
                        ['%', ':', '{', '}', '(', ')', ',', '\n'][rng.gen_range(0..8) as usize]
                    }
                    _ => (rng.gen_range(0..32) as u8) as char,
                })
                .collect()
        })
        .collect()
}

/// The 256 inputs of [`parser_survives_mutations`]: a printed random
/// program cut at a random byte, with a stray `%` appended.
fn truncated_inputs() -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(0x6d757461);
    (0..256)
        .map(|_| {
            let seed = rng.gen_range(1..5_000);
            let cut = rng.gen_range(0..300) as usize;
            let (m, _) = random_module(seed, 1, &micro_params());
            let mut printed = module_text(&m);
            if !printed.is_empty() {
                let mut k = cut % printed.len();
                while k > 0 && !printed.is_char_boundary(k) {
                    k -= 1;
                }
                printed.truncate(k);
                printed.push('%');
            }
            printed
        })
        .collect()
}

/// The parser is total: arbitrary input produces Ok or a positioned
/// error, never a panic.
#[test]
fn parser_never_panics() {
    for input in arbitrary_inputs() {
        let _ = parse_module(&input);
    }
}

/// Near-miss inputs (mutations of a valid program) also never panic.
#[test]
fn parser_survives_mutations() {
    for input in truncated_inputs() {
        let _ = parse_module(&input);
    }
}

/// Every statement kind the parser knows: `parse.rs`'s own `SAMPLE` plus
/// the forms it lacks (void and argument-less calls, `call@`, a bare and an
/// immediate `ret`, an empty `switch`, negative offsets, a `clock =`
/// header, an id-less header, comments, odd spacing).
const STATEMENTS: &str = r#"
# every statement kind
fn helper(params=1) {
  entry (bb0):
    r1 = add r0, 3
    ret r1
}

fn main(params=2) {
  entry (bb0):    clock = 12
    r2 = const 0
    r3 = mov r2
    br bb1
  loop.head (bb1):
    r4 = cmp.lt r2, r1
    condbr r4, bb2, bb3
  loop.body (bb2):
    r5 = call @f0(r2)
    r6 = load [r0+4]
    store [r0+8] = r6
    tick 7
    tick 2 + 1*r5
    lock 3
    unlock r3
    barrier bar0
    r2 = add r2, 1
    memset(r0, 0, 16) [size=#2]
    r8 = memcpy(r0, r1, r2) [size=#2]
    call @f0(-4)
    call@f2()
    r9 = call @f2()
    r9 = load [r0+-3]
    store [r0+-5] = -17
    r9 = max r9, -1
    br bb1
  // a comment between blocks
  done (bb3):
    r7 = sqrt(r2)
    switch r7 [0 -> bb0, 5 -> bb3] default bb4
  tail:
    switch r7 [] default bb5
  last (bb5):
    ret -1
}

fn leaf(params=0) {
  only:
    rand()
    ret
}
"#;

/// Split a line into whitespace runs, identifier runs (`[A-Za-z0-9._]+`)
/// and single punctuation characters; concatenated they give the line back.
fn tokens(line: &str) -> Vec<&str> {
    let class = |c: char| {
        if c.is_whitespace() {
            0
        } else if c.is_ascii_alphanumeric() || c == '.' || c == '_' {
            1
        } else {
            2
        }
    };
    let mut out = Vec::new();
    let mut start = 0;
    let mut prev = None;
    for (i, c) in line.char_indices() {
        let k = class(c);
        if prev.is_some_and(|p| p != k || k == 2) {
            out.push(&line[start..i]);
            start = i;
        }
        prev = Some(k);
    }
    if start < line.len() {
        out.push(&line[start..]);
    }
    out
}

/// [`STATEMENTS`] with one token dropped, duplicated, swapped with the next
/// one or padded with whitespace — every token of every line in turn — and
/// with one line dropped, duplicated or swapped with the next.
fn statement_mutations() -> Vec<String> {
    let lines: Vec<&str> = STATEMENTS.lines().collect();
    let rebuild = |at: usize, replacement: &[String]| -> String {
        let mut out = String::new();
        for (i, line) in lines.iter().enumerate() {
            if i == at {
                for r in replacement {
                    out.push_str(r);
                    out.push('\n');
                }
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    };
    let mut inputs = vec![STATEMENTS.to_string()];
    for (at, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        inputs.push(rebuild(at, &[]));
        inputs.push(rebuild(at, &[line.to_string(), line.to_string()]));
        if let Some(next) = lines.get(at + 1) {
            let mut swapped = lines.clone();
            swapped[at] = next;
            swapped[at + 1] = line;
            inputs.push(swapped.join("\n"));
        }
        let toks = tokens(line);
        let solid: Vec<usize> = (0..toks.len())
            .filter(|&i| !toks[i].trim().is_empty())
            .collect();
        for (k, &i) in solid.iter().enumerate() {
            let with = |edit: &dyn Fn(&mut Vec<String>)| {
                let mut t: Vec<String> = toks.iter().map(|s| s.to_string()).collect();
                edit(&mut t);
                rebuild(at, &[t.concat()])
            };
            inputs.push(with(&|t| {
                t.remove(i);
            }));
            inputs.push(with(&|t| t.insert(i, toks[i].to_string())));
            if let Some(&j) = solid.get(k + 1) {
                inputs.push(with(&|t| t.swap(i, j)));
            }
            inputs.push(with(&|t| t[i] = format!("  {}\t", toks[i])));
        }
    }
    inputs
}

/// One function spelled the ways a byte-level reader could get wrong: CRLF
/// line ends; eight whitespace characters (four outside ASCII) as
/// indentation, as trailing space and around commas; signs and leading
/// zeros on registers, immediates and block ids; extra spaces. 34 parse;
/// 4 do not (a signed tick base, an immediate past `i64`, `clock=` without
/// its spaces, a byte-order mark before `fn`).
fn spelling_variants() -> Vec<String> {
    const BASE: &str = "fn f(params=1) {\n  entry (bb0):\n    r1 = add r0, 3\n    \
                        r2 = load [r0+4]\n    tick 7\n    condbr r1, bb1, bb1\n  \
                        next (bb1):\n    ret r2\n}\n";
    let mut inputs = vec![BASE.to_string(), BASE.replace('\n', "\r\n")];
    for ws in [
        "\t", "\u{b}", "\u{c}", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\u{2028}",
    ] {
        inputs.push(BASE.replace("\n  ", &format!("\n{ws}")));
        inputs.push(BASE.replace('\n', &format!("{ws}\n")));
        inputs.push(BASE.replace(',', &format!("{ws},{ws}")));
    }
    for (from, to) in [
        ("condbr r1", "condbr r+1"),
        ("ret r2", "ret r002"),
        ("r0, 3", "r0, +3"),
        ("[r0+4]", "[r0++4]"),
        ("bb1, bb1", "bb001, bb1"),
        ("(bb0)", "(bb00)"),
        ("r1 = add", "r1   =   add"),
        ("r0, 3", "r0  ,   3"),
        ("tick 7", "tick +7"),
        ("r0, 3", "r0, 99999999999999999999"),
        ("(bb0):", "(bb0): clock=5"),
        ("fn f", "\u{feff}fn f"),
    ] {
        assert!(BASE.contains(from), "`{from}` is not in the base text");
        inputs.push(BASE.replacen(from, to, 1));
    }
    inputs
}

/// Every number position the grammar reads, at the edges of its type: the
/// two largest register numbers (only the first fits, since the register
/// count `N + 1` must) wherever a register is read; `i64::MIN`, `i64::MAX`
/// and one past each wherever an `i64` is; the largest `u64` and `u32` and
/// one past each in tick amounts, block, barrier and function ids,
/// `params` and builtin size annotations. Each input is one small function
/// with one edited statement, header or terminator.
fn number_edges() -> Vec<String> {
    let inst = |s: &str| format!("fn f(params=1) {{\n  entry (bb0):\n    {s}\n    ret\n}}\n");
    let term = |s: &str| format!("fn f(params=1) {{\n  entry (bb0):\n    {s}\n}}\n");
    let mut inputs = Vec::new();
    for r in ["r4294967294", "r4294967295"] {
        for s in [
            format!("{r} = const 1"),
            format!("r1 = add {r}, 1"),
            format!("r1 = sub r0, {r}"),
            format!("r1 = cmp.lt {r}, r0"),
            format!("r1 = cmp.ge r0, {r}"),
            format!("r1 = mov {r}"),
            format!("r1 = load [{r}+0]"),
            format!("store [{r}+0] = r0"),
            format!("store [r0+0] = {r}"),
            format!("call @f0({r})"),
            format!("r1 = call @f0(r0, {r})"),
            format!("memset({r}, 0, 1) [size=#2]"),
            format!("r1 = sqrt({r})"),
            format!("tick 1 + 2*{r}"),
            format!("lock {r}"),
            format!("unlock {r}"),
        ] {
            inputs.push(inst(&s));
        }
        for s in [
            format!("condbr {r}, bb0, bb0"),
            format!("switch {r} [0 -> bb0] default bb0"),
            format!("ret {r}"),
        ] {
            inputs.push(term(&s));
        }
    }
    for n in [
        "-9223372036854775808",
        "9223372036854775807",
        "-9223372036854775809",
        "9223372036854775808",
    ] {
        for s in [
            format!("r1 = const {n}"),
            format!("r1 = add r0, {n}"),
            format!("r1 = cmp.eq r0, {n}"),
            format!("r1 = mov {n}"),
            format!("r1 = load [r0+{n}]"),
            format!("store [r0+{n}] = 1"),
            format!("store [r0+0] = {n}"),
            format!("call @f0({n})"),
            format!("lock {n}"),
        ] {
            inputs.push(inst(&s));
        }
        for s in [
            format!("switch r0 [{n} -> bb0] default bb0"),
            format!("switch r0 [0 -> bb0, {n} -> bb0] default bb0"),
            format!("ret {n}"),
        ] {
            inputs.push(term(&s));
        }
    }
    for u in [
        "4294967295",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
    ] {
        for s in [
            format!("tick {u}"),
            format!("tick {u} + 1*r0"),
            format!("tick 1 + {u}*r0"),
            format!("barrier bar{u}"),
            format!("call @f{u}()"),
            format!("memset(r0, 0, 1) [size=#{u}]"),
        ] {
            inputs.push(inst(&s));
        }
        for s in [
            format!("br bb{u}"),
            format!("condbr r0, bb{u}, bb0"),
            format!("condbr r0, bb0, bb{u}"),
            format!("switch r0 [0 -> bb{u}] default bb0"),
            format!("switch r0 [] default bb{u}"),
        ] {
            inputs.push(term(&s));
        }
        inputs.push(format!(
            "fn f(params=1) {{\n  entry (bb{u}):\n    ret\n}}\n"
        ));
        inputs.push(format!(
            "fn f(params={u}) {{\n  entry (bb0):\n    ret\n}}\n"
        ));
    }
    inputs
}

/// `(inputs, accepted, rejected, digest)` of what the parser makes of
/// `inputs`: `Ok` as the printed module, `Err` as `(line, message)`.
fn parser_outcomes(inputs: &[String]) -> (usize, usize, usize, u64) {
    let mut digest = detlock_shim::hash::Fnv64::new();
    let (mut accepted, mut rejected) = (0, 0);
    for input in inputs {
        let outcome = match parse_module(input) {
            Ok(m) => {
                accepted += 1;
                format!("ok\n{}", module_text(&m))
            }
            Err(e) => {
                rejected += 1;
                format!("err {}: {}", e.line, e.message)
            }
        };
        digest.write(outcome.as_bytes());
        digest.write(&[0xff]);
    }
    (inputs.len(), accepted, rejected, digest.finish())
}

/// What the parser makes of every input it has ever been shown, pinned as
/// one digest per family. The first family is the 512 inputs of the two
/// tests above plus [`statement_mutations`], all ASCII; the second is
/// [`spelling_variants`], which pins what trimming and number decoding must
/// keep; the third is [`number_edges`], every number position at the edges
/// of its type. A parser edit that accepts one more input, rejects one fewer, or
/// words or places one error differently changes a digest.
#[test]
fn parser_outcomes_are_pinned() {
    let mut inputs = arbitrary_inputs();
    inputs.extend(truncated_inputs());
    inputs.extend(statement_mutations());
    assert_eq!(
        parser_outcomes(&inputs),
        (1642, 410, 1232, 0x7118_b8d5_d9b1_4885),
        "parser outcomes moved"
    );
    assert_eq!(
        parser_outcomes(&spelling_variants()),
        (38, 34, 4, 0xb5b7_e21f_191e_2b30),
        "parser outcomes of the spelling variants moved"
    );
    assert_eq!(
        parser_outcomes(&number_edges()),
        (138, 63, 75, 0xeb4f_4da1_3944_eabe),
        "parser outcomes of the number edges moved"
    );
}
