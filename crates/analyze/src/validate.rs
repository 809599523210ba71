//! Translation validation of the clock-instrumentation pipeline.
//!
//! [`validate`] checks an instrumented module against the
//! [`PlanCert`] the pipeline emitted for it,
//! without trusting any pipeline internals. The obligations, in order:
//!
//! 1. **Pre-module sanity** — the baseline carries no ticks (otherwise
//!    "tick-preservation" claims are meaningless) and the cert's vectors are
//!    shaped for this module pair.
//! 2. **Structure** — stripping every tick from the instrumented module
//!    yields exactly the block-split baseline: instrumentation may only
//!    *add* tick instructions, never touch program code.
//! 3. **Placement** — each block's ticks are exactly what the cert's
//!    per-block clock and the cost model's dynamic-tick rule dictate, at
//!    the claimed [`Placement`].
//! 4. **Clocked means** — every O1-clocked function is tick-free and its
//!    claimed mean re-derives from the baseline under the cert's own
//!    tightness thresholds.
//! 5. **Path sums** — along every acyclic path (loops cut at back edges),
//!    the planned clock equals the true cost exactly for exact configs, and
//!    stays within the cert's documented divergence bound for approximate
//!    ones: O3's per-path fraction, O2b's per-function absolute moved mass,
//!    and O4's per-loop latch slack.
//! 6. **Lock regions** — no block that can be reached with a lock held was
//!    given *more* clock than its true cost: optimizations must not sink
//!    extra ticks into critical sections, where an inflated clock delays
//!    every other thread's deterministic acquire.
//!
//! CFGs and loop forests come from one [`AnalysisManager`] per module, so
//! obligations 5 and 6 share each function's CFG; each obligation walks its
//! own paths, once per function. Findings that trace back
//! to a specific pipeline stage carry a `suspect pass: …` related line —
//! for path-sum violations the suspect comes from the cert's own per-pass
//! delta certs ([`PlanCert::suspect_for_path_sum`]).

use crate::{Finding, Report, Severity};
use detlock_ir::analysis::manager::AnalysisManager;
use detlock_ir::analysis::paths::{
    enumerate_paths, enumerate_paths_recorded, PathError, PathStats, Step,
};
use detlock_ir::inst::{Inst, Operand};
use detlock_ir::module::{Function, Module};
use detlock_ir::types::{BlockId, FuncId};
use detlock_passes::cost::CostModel;
use detlock_passes::materialize::strip_ticks;
use detlock_passes::opt1::tight_average;
use detlock_passes::pass::{PASS_MATERIALIZE, PASS_O1, PASS_SPLIT};
use detlock_passes::plan::{block_clock_amounts, split_module, Placement};
use detlock_passes::PlanCert;

/// Path-enumeration cap for the validator's path-sum check (a checker may
/// walk more paths than the optimizer's 4096-path threshold admits).
const MAX_PATHS: usize = 65536;

fn finding(severity: Severity, rule: &'static str, func: &str, message: String) -> Finding {
    Finding {
        severity,
        rule,
        func: func.to_string(),
        block: None,
        inst: None,
        message,
        related: Vec::new(),
    }
}

/// Append the pipeline stage most plausibly responsible for `f`.
fn blame(mut f: Finding, suspect: &'static str) -> Finding {
    f.related.push(format!("suspect pass: {suspect}"));
    f
}

/// Validate `post` (the instrumented module) against `pre` (the module
/// handed to the pipeline) and the pipeline's `cert`, under `cost`.
pub fn validate(pre: &Module, post: &Module, cert: &PlanCert, cost: &CostModel) -> Report {
    let mut report = Report::default();

    // -- 1. shape ---------------------------------------------------------
    for (_, func) in pre.iter_funcs() {
        if func.tick_count() > 0 {
            report.findings.push(finding(
                Severity::Error,
                "validate/pre-ticks",
                &func.name,
                "baseline module already contains tick instructions".to_string(),
            ));
        }
    }
    if pre.functions.len() != post.functions.len()
        || cert.clocked.len() != pre.functions.len()
        || cert.block_clock.len() != pre.functions.len()
        || cert.o2b_slack.len() != pre.functions.len()
    {
        report.findings.push(finding(
            Severity::Error,
            "validate/cert-shape",
            "<module>",
            format!(
                "function counts disagree: pre {}, post {}, cert.clocked {}, \
                 cert.block_clock {}, cert.o2b_slack {}",
                pre.functions.len(),
                post.functions.len(),
                cert.clocked.len(),
                cert.block_clock.len(),
                cert.o2b_slack.len()
            ),
        ));
    }
    if !report.findings.is_empty() {
        return report; // nothing below is meaningful
    }

    let split = split_module(pre, &cert.clocked);
    let stripped = strip_ticks(post);

    // Analysis caches: one for the pre module (clocked-mean checks), one
    // for the split module (path sums and lock regions both want its CFG;
    // the manager computes it once per function).
    let mut am_pre = AnalysisManager::new(pre.functions.len());
    let mut am_split = AnalysisManager::new(split.functions.len());

    for (fid, split_func) in split.iter_funcs() {
        let post_func = post.func(fid);
        let fname = &split_func.name;

        // -- 2. structure --------------------------------------------------
        if let Some(msg) = structural_mismatch(split_func, stripped.func(fid)) {
            report.findings.push(blame(
                finding(
                    Severity::Error,
                    "validate/structure",
                    fname,
                    format!(
                        "instrumented module differs from the split baseline beyond ticks: {msg}"
                    ),
                ),
                PASS_SPLIT,
            ));
            continue; // block-level claims are meaningless for this function
        }
        let clocks = &cert.block_clock[fid.index()];
        if clocks.len() != split_func.blocks.len() {
            report.findings.push(finding(
                Severity::Error,
                "validate/cert-shape",
                fname,
                format!(
                    "cert has {} block clocks for {} blocks",
                    clocks.len(),
                    split_func.blocks.len()
                ),
            ));
            continue;
        }

        // -- 3. placement --------------------------------------------------
        let mut placement_ok = true;
        for (b, split_block) in split_func.iter_blocks() {
            let mut expected: Vec<Inst> = Vec::new();
            for inst in &split_block.insts {
                if let Some((per_unit, size)) = cost.needs_dynamic_tick(inst) {
                    expected.push(Inst::TickDyn {
                        base: 0,
                        per_unit,
                        size,
                    });
                }
                expected.push(inst.clone());
            }
            let amount = clocks[b.index()];
            if amount > 0 {
                match cert.placement {
                    Placement::Start => expected.insert(0, Inst::Tick { amount }),
                    Placement::End => expected.push(Inst::Tick { amount }),
                }
            }
            let actual = &post_func.block(b).insts;
            if &expected != actual {
                placement_ok = false;
                report.findings.push(Finding {
                    severity: Severity::Error,
                    rule: "validate/placement",
                    func: fname.clone(),
                    block: Some(format!("{} ({b})", split_block.name)),
                    inst: None,
                    message: "emitted ticks do not match the certified per-block clock".to_string(),
                    related: vec![
                        format!("certified clock: {amount}"),
                        format!(
                            "emitted: [{}]",
                            actual
                                .iter()
                                .filter(|i| i.is_tick())
                                .map(|i| i.to_string())
                                .collect::<Vec<_>>()
                                .join("; ")
                        ),
                        format!("suspect pass: {PASS_MATERIALIZE}"),
                    ],
                });
            }
        }

        // -- 4. clocked functions ------------------------------------------
        if let Some(mean) = cert.clocked[fid.index()] {
            if post_func.tick_count() > 0 {
                report.findings.push(blame(
                    finding(
                        Severity::Error,
                        "validate/clocked-ticks",
                        fname,
                        "function is claimed clocked (O1) but still carries ticks".to_string(),
                    ),
                    PASS_O1,
                ));
            }
            if clocks.iter().any(|&c| c > 0) {
                report.findings.push(blame(
                    finding(
                        Severity::Error,
                        "validate/clocked-ticks",
                        fname,
                        "cert assigns block clocks to a clocked function".to_string(),
                    ),
                    PASS_O1,
                ));
            }
            // Re-derive the mean on the *pre* function (the split adds
            // terminator costs for the chaining branches, so it is not the
            // surface O1 measured).
            check_clocked_mean(
                pre.func(fid),
                fid,
                mean,
                cert,
                cost,
                &mut am_pre,
                &mut report,
            );
            continue; // no path sums: call sites charge the mean instead
        }

        if !placement_ok {
            continue; // path sums would re-report the same corruption
        }

        // -- 5 & 6: path sums and lock regions over the split function -----
        let true_cost = block_clock_amounts(split_func, cost, &cert.clocked);
        check_path_sums(
            split_func,
            fid,
            clocks,
            &true_cost,
            cert,
            cert.o2b_slack[fid.index()],
            &mut am_split,
            &mut report,
        );
        check_lock_regions(
            split_func,
            fid,
            clocks,
            &true_cost,
            cert,
            &mut am_split,
            &mut report,
        );
    }

    report
}

/// Compare two tick-free functions; `None` when identical.
fn structural_mismatch(a: &Function, b: &Function) -> Option<String> {
    if a.name != b.name {
        return Some(format!("name `{}` vs `{}`", a.name, b.name));
    }
    if a.params != b.params || a.num_regs != b.num_regs {
        return Some("parameter/register counts differ".to_string());
    }
    if a.blocks.len() != b.blocks.len() {
        return Some(format!(
            "{} blocks vs {} blocks",
            a.blocks.len(),
            b.blocks.len()
        ));
    }
    for (x, y) in a.blocks.iter().zip(&b.blocks) {
        if x.name != y.name {
            return Some(format!("block `{}` renamed `{}`", x.name, y.name));
        }
        if x.term != y.term {
            return Some(format!("terminator of `{}` changed", x.name));
        }
        if x.insts != y.insts {
            return Some(format!("instructions of `{}` changed", x.name));
        }
    }
    None
}

/// Obligation 4: the claimed O1 mean re-derives from the baseline function
/// under the cert's own thresholds. O1 summarizes the path totals in one
/// pass over the blocks (`path_stats`); this check enumerates them, so the
/// mean is derived twice, independently, and only the decision rule
/// (`tight_average`) is shared.
#[allow(clippy::too_many_arguments)]
fn check_clocked_mean(
    pre_func: &Function,
    fid: FuncId,
    mean: u64,
    cert: &PlanCert,
    cost: &CostModel,
    am: &mut AnalysisManager,
    report: &mut Report,
) {
    // Path totals under the cert's own clocked set, capped where O1 caps.
    let cfg = am.cfg(fid, pre_func);
    let amounts = block_clock_amounts(pre_func, cost, &cert.clocked);
    let rederived = match enumerate_paths(
        &cfg,
        pre_func.entry(),
        cert.clockable.max_paths,
        |b| amounts[b.index()],
        |_, _| Step::Follow,
    ) {
        Ok(paths) => tight_average(&PathStats::of(&paths.totals), &cert.clockable),
        Err(_) => None, // loops / too many paths: O1 must not have clocked it
    };
    if rederived != Some(mean) {
        report.findings.push(blame(
            finding(
                Severity::Error,
                "validate/clocked-mean",
                &pre_func.name,
                match rederived {
                    Some(m) => format!("claimed clocked mean {mean} but paths re-derive {m}"),
                    None => format!(
                        "claimed clocked mean {mean} but the function does not satisfy \
                         the tightness criterion at all"
                    ),
                },
            ),
            PASS_O1,
        ));
    }
}

/// Obligation 5: per acyclic path (back edges cut), the certified clock
/// tracks the true cost (`true_cost`, per block) within the cert's bound.
/// `o2b_slack` is the cert's claimed absolute divergence for this function
/// from O2b's approximate moves (the pass bounds each move against
/// loop/function mass, not against any particular path, so the claim is an
/// absolute mass, not a fraction).
#[allow(clippy::too_many_arguments)]
fn check_path_sums(
    split_func: &Function,
    fid: FuncId,
    clocks: &[u64],
    true_cost: &[u64],
    cert: &PlanCert,
    o2b_slack: u64,
    am: &mut AnalysisManager,
    report: &mut Report,
) {
    let cfg = am.cfg(fid, split_func);
    let loops = am.loops(fid, split_func);
    // Every acyclic route from the entry, loops cut before their back edge;
    // each route's total is its true cost.
    let paths = enumerate_paths_recorded(
        &cfg,
        split_func.entry(),
        MAX_PATHS,
        |b| true_cost[b.index()],
        |from, to| {
            if loops.is_back_edge(from, to) {
                Step::StopBefore
            } else {
                Step::Follow
            }
        },
    );
    let paths = match paths {
        Ok(p) => p,
        Err(e) => {
            report.findings.push(finding(
                Severity::Warning,
                "validate/too-many-paths",
                &split_func.name,
                format!(
                    "path sums not checkable: {}",
                    match e {
                        PathError::TooManyPaths => format!("more than {MAX_PATHS} acyclic paths"),
                        PathError::Cycle => "cycle not cut by back edges".to_string(),
                    }
                ),
            ));
            return;
        }
    };

    // Worst violation across all paths; one finding per function.
    let mut worst: Option<(f64, usize, u64, u64, f64)> = None;
    for (i, (route, &true_sum)) in paths.routes.iter().zip(&paths.totals).enumerate() {
        let planned: u64 = route.iter().map(|b| clocks[b.index()]).sum();
        // Allowed divergence: the cert's fractional bound of the true cost
        // (O3), plus the function's absolute O2b slack, plus O4's absolute
        // latch slack once per loop the path crosses, plus half a unit of
        // integer-rounding slack per block for the fractional configs (O3
        // charges `mean.round()` per region, and a path crosses at most one
        // region per block).
        let headers = route.iter().filter(|b| loops.is_loop_header(**b)).count() as f64;
        let latch_slack = cert.o4_latch_threshold.unwrap_or(0) as f64 * headers;
        let rounding = if cert.frac_bound > 0.0 {
            0.5 * route.len() as f64
        } else {
            0.0
        };
        let allowed = cert.frac_bound * true_sum as f64 + o2b_slack as f64 + latch_slack + rounding;
        let diff = (planned as f64 - true_sum as f64).abs();
        if diff > allowed + 1e-9 {
            let excess = diff - allowed;
            if worst.is_none_or(|(w, ..)| excess > w) {
                worst = Some((excess, i, true_sum, planned, allowed));
            }
        }
    }
    if let Some((_, i, true_sum, planned, allowed)) = worst {
        let route_names: Vec<String> = paths.routes[i]
            .iter()
            .map(|b| split_func.block(*b).name.clone())
            .collect();
        let mut related = vec![format!("worst path: {}", route_names.join(" → "))];
        // The cert's own per-pass deltas name the approximate pass most
        // plausibly responsible; when every registered pass was precise the
        // plan itself is wrong, not over-approximated.
        related.push(match cert.suspect_for_path_sum(fid.index()) {
            Some(pass) => format!("suspect pass: {pass}"),
            None => "suspect pass: none — every registered pass claimed exact sums".to_string(),
        });
        report.findings.push(Finding {
            severity: Severity::Error,
            rule: "validate/path-sum",
            func: split_func.name.clone(),
            block: None,
            inst: None,
            message: format!(
                "path clock diverges from true cost beyond the certified bound \
                 (planned {planned}, true {true_sum}, allowed ±{allowed:.1})"
            ),
            related,
        });
    }
}

/// Lock token for the intraprocedural may-held analysis (obligation 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum HeldTok {
    Imm(i64),
    Reg(u32),
}

/// Obligation 6: blocks reachable with a lock possibly held must not be
/// planned *more* clock than their true cost.
#[allow(clippy::too_many_arguments)]
fn check_lock_regions(
    split_func: &Function,
    fid: FuncId,
    clocks: &[u64],
    true_cost: &[u64],
    cert: &PlanCert,
    am: &mut AnalysisManager,
    report: &mut Report,
) {
    let tok = |id: &Operand| -> HeldTok {
        match id {
            Operand::Imm(v) => HeldTok::Imm(*v),
            Operand::Reg(r) => HeldTok::Reg(r.0),
        }
    };
    let step_block = |entry: &[HeldTok], b: BlockId| -> Vec<HeldTok> {
        let mut held = entry.to_vec();
        for inst in &split_func.block(b).insts {
            match inst {
                Inst::Lock { id } => {
                    let t = tok(id);
                    if let Err(pos) = held.binary_search(&t) {
                        held.insert(pos, t);
                    }
                }
                Inst::Unlock { id } => {
                    if let Ok(pos) = held.binary_search(&tok(id)) {
                        held.remove(pos);
                    }
                }
                Inst::Barrier { .. } => held.clear(),
                _ => {}
            }
        }
        held
    };

    // May-held fixpoint: union join, so a block counts as lock-held if ANY
    // path reaches it with a lock still held.
    let cfg = am.cfg(fid, split_func);
    let n = split_func.blocks.len();
    let mut entry_held: Vec<Option<Vec<HeldTok>>> = vec![None; n];
    entry_held[split_func.entry().index()] = Some(Vec::new());
    let mut work = vec![split_func.entry()];
    let mut budget = 8 * n.max(1) * n.max(1);
    while let Some(b) = work.pop() {
        if budget == 0 {
            break;
        }
        budget -= 1;
        let held = step_block(entry_held[b.index()].as_ref().expect("queued"), b);
        for succ in cfg.succs(b) {
            let slot = &mut entry_held[succ.index()];
            let changed = match slot {
                Some(existing) => {
                    let mut changed = false;
                    for &t in &held {
                        if let Err(pos) = existing.binary_search(&t) {
                            existing.insert(pos, t);
                            changed = true;
                        }
                    }
                    changed
                }
                None => {
                    *slot = Some(held.clone());
                    true
                }
            };
            if changed && !work.contains(succ) {
                work.push(*succ);
            }
        }
    }

    for (b, block) in split_func.iter_blocks() {
        let Some(entry) = &entry_held[b.index()] else {
            continue;
        };
        // The tick executes where it is placed: at block entry for `Start`,
        // after the body for `End` — judge the lockset at that point.
        let held_at_tick = match cert.placement {
            Placement::Start => entry.clone(),
            Placement::End => step_block(entry, b),
        };
        if held_at_tick.is_empty() {
            continue;
        }
        let true_amount = true_cost[b.index()];
        let planned = clocks[b.index()];
        if planned > true_amount {
            report.findings.push(Finding {
                severity: Severity::Error,
                rule: "validate/tick-in-lock",
                func: split_func.name.clone(),
                block: Some(format!("{} ({b})", block.name)),
                inst: None,
                message: format!(
                    "block reachable with a lock held was planned {planned} clock \
                     against a true cost of {true_amount}: extra ticks were sunk \
                     into a critical section"
                ),
                related: vec![
                    format!(
                        "locks possibly held at the tick: {}",
                        held_at_tick
                            .iter()
                            .map(|t| match t {
                                HeldTok::Imm(v) => format!("lock {v}"),
                                HeldTok::Reg(r) => format!("lock[r{r}]"),
                            })
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                    format!("suspect pass: {PASS_MATERIALIZE}"),
                ],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::CmpOp;
    use detlock_ir::Builtin;
    use detlock_passes::pipeline::{instrument, OptConfig, OptLevel};

    /// A module exercising every pipeline feature: a clockable leaf, a loop,
    /// an unclocked-call split, a lock region, and a dynamic builtin.
    fn test_module() -> (Module, Vec<detlock_ir::FuncId>) {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 0);
        fb.block("entry");
        fb.compute(8);
        fb.ret_void();
        let leaf = fb.finish_into(&mut m);

        let mut fb = FunctionBuilder::new("main", 1);
        fb.block("entry");
        let head = fb.create_block("head");
        let body = fb.create_block("body");
        let after = fb.create_block("after");
        let i = fb.iconst(0);
        fb.br(head);
        fb.switch_to(head);
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Lt, i, p);
        fb.cond_br(c, body, after);
        fb.switch_to(body);
        fb.compute(3);
        fb.call_void(leaf, vec![]);
        fb.bin_to(detlock_ir::BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(after);
        fb.lock(1i64);
        fb.compute(2);
        fb.unlock(1i64);
        fb.builtin_void(
            Builtin::Memset,
            vec![Operand::Imm(0), Operand::Imm(0), Operand::Imm(16)],
            Some(2),
        );
        fb.ret_void();
        let main = fb.finish_into(&mut m);
        (m, vec![main])
    }

    fn cost() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn accepts_every_table1_row() {
        let (m, entries) = test_module();
        for level in OptLevel::table1_rows() {
            for placement in [Placement::Start, Placement::End] {
                let out = instrument(&m, &cost(), &OptConfig::only(level), placement, &entries);
                let r = validate(&m, &out.module, &out.cert, &cost());
                assert!(
                    r.ok(true),
                    "{} / {placement:?}: {:#?}",
                    level.label(),
                    r.findings
                );
            }
        }
    }

    #[test]
    fn rejects_tampered_tick_amount() {
        let (m, entries) = test_module();
        let mut out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &entries);
        'outer: for func in out.module.functions.iter_mut() {
            for block in func.blocks.iter_mut() {
                for inst in block.insts.iter_mut() {
                    if let Inst::Tick { amount } = inst {
                        *amount += 3;
                        break 'outer;
                    }
                }
            }
        }
        let r = validate(&m, &out.module, &out.cert, &cost());
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "validate/placement")
            .expect("placement finding");
        assert!(
            f.related
                .iter()
                .any(|l| l == "suspect pass: materialize-ticks"),
            "{:#?}",
            f.related
        );
    }

    #[test]
    fn rejects_consistently_corrupted_cert() {
        // Corrupt the cert AND the module the same way: placement agrees,
        // so only the path-sum obligation can catch it.
        let (m, entries) = test_module();
        let mut out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &entries);
        let fid = out
            .cert
            .block_clock
            .iter()
            .position(|c| c.iter().any(|&v| v > 0))
            .unwrap();
        let bid = out.cert.block_clock[fid]
            .iter()
            .position(|&v| v > 0)
            .unwrap();
        out.cert.block_clock[fid][bid] += 5;
        let block = &mut out.module.functions[fid].blocks[bid];
        for inst in block.insts.iter_mut() {
            if let Inst::Tick { amount } = inst {
                *amount += 5;
                break;
            }
        }
        let r = validate(&m, &out.module, &out.cert, &cost());
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "validate/path-sum")
            .unwrap_or_else(|| panic!("{:#?}", r.findings));
        // No-optimization run registered only precise passes: the validator
        // reports that nobody's slack budget explains the divergence.
        assert!(
            f.related
                .iter()
                .any(|l| l.starts_with("suspect pass: none")),
            "{:#?}",
            f.related
        );
    }

    #[test]
    fn rejects_tamper_beyond_o2b_slack() {
        // Under O2 the cert grants each function an absolute slack equal to
        // the mass 2b reported moving — corrupting a tick (and the cert, so
        // placement agrees) by more than that slack must still trip the
        // path-sum obligation.
        let (m, entries) = test_module();
        let mut out = instrument(
            &m,
            &cost(),
            &OptConfig::only(OptLevel::O2),
            Placement::Start,
            &entries,
        );
        let fid = out
            .cert
            .block_clock
            .iter()
            .position(|c| c.iter().any(|&v| v > 0))
            .unwrap();
        let bid = out.cert.block_clock[fid]
            .iter()
            .position(|&v| v > 0)
            .unwrap();
        let delta = out.cert.o2b_slack[fid] + 5;
        out.cert.block_clock[fid][bid] += delta;
        let block = &mut out.module.functions[fid].blocks[bid];
        for inst in block.insts.iter_mut() {
            if let Inst::Tick { amount } = inst {
                *amount += delta;
                break;
            }
        }
        let r = validate(&m, &out.module, &out.cert, &cost());
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "validate/path-sum")
            .unwrap_or_else(|| panic!("{:#?}", r.findings));
        // The suspect line is wired to the cert's own per-pass blame: the
        // tampered function carried no O2b slack in this module, so no
        // approximate pass claims the divergence (the policy itself is
        // unit-tested in detlock-passes' cert module).
        let expected = match out.cert.suspect_for_path_sum(fid) {
            Some(p) => format!("suspect pass: {p}"),
            None => "suspect pass: none — every registered pass claimed exact sums".to_string(),
        };
        assert!(f.related.contains(&expected), "{:#?}", f.related);
    }

    #[test]
    fn rejects_program_code_edits() {
        let (m, entries) = test_module();
        let mut out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &entries);
        // Change a non-tick instruction in the output.
        'outer: for func in out.module.functions.iter_mut() {
            for block in func.blocks.iter_mut() {
                for inst in block.insts.iter_mut() {
                    if let Inst::Const { value, .. } = inst {
                        *value += 1;
                        break 'outer;
                    }
                }
            }
        }
        let r = validate(&m, &out.module, &out.cert, &cost());
        assert!(r.findings.iter().any(|f| f.rule == "validate/structure"));
    }

    #[test]
    fn rejects_pre_module_with_ticks() {
        let (mut m, entries) = test_module();
        let out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &entries);
        m.functions[0].blocks[0]
            .insts
            .insert(0, Inst::Tick { amount: 1 });
        let r = validate(&m, &out.module, &out.cert, &cost());
        assert!(r.findings.iter().any(|f| f.rule == "validate/pre-ticks"));
    }

    #[test]
    fn rejects_tick_sunk_into_lock_region() {
        // entry(lock) → held(compute) → exit(unlock): move clock mass from
        // `exit` into `held` keeping path sums exact — only the lock-region
        // obligation can reject it.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("crit", 0);
        fb.block("entry");
        let held = fb.create_block("held");
        let exit = fb.create_block("exit");
        fb.lock(1i64);
        fb.br(held);
        fb.switch_to(held);
        fb.compute(4);
        fb.br(exit);
        fb.switch_to(exit);
        fb.unlock(1i64);
        fb.compute(6);
        fb.ret_void();
        let f = fb.finish_into(&mut m);

        let mut out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &[f]);
        // The split isolates the lock/unlock into their own blocks; find the
        // lock-held `held` block and the post-unlock tail by name.
        let blocks = &out.module.functions[f.index()].blocks;
        let idx_held = blocks.iter().position(|b| b.name == "held").unwrap();
        let idx_tail = blocks.iter().position(|b| b.name == "split.exit").unwrap();
        let clocks = &mut out.cert.block_clock[f.index()];
        assert!(clocks[idx_tail] > 2, "tail block has mass to move");
        clocks[idx_held] += 2;
        clocks[idx_tail] -= 2;
        let fixed = clocks.clone();
        for (b, block) in out.module.functions[f.index()]
            .blocks
            .iter_mut()
            .enumerate()
        {
            for inst in block.insts.iter_mut() {
                if let Inst::Tick { amount } = inst {
                    *amount = fixed[b];
                }
            }
        }
        let r = validate(&m, &out.module, &out.cert, &cost());
        assert!(
            r.findings.iter().any(|f| f.rule == "validate/tick-in-lock"),
            "{:#?}",
            r.findings
        );
        assert!(
            !r.findings.iter().any(|f| f.rule == "validate/path-sum"),
            "path sums were kept exact on purpose: {:#?}",
            r.findings
        );
    }

    #[test]
    fn warns_once_when_acyclic_paths_exceed_the_cap() {
        // 17 diamonds in sequence: 2^17 = 131 072 acyclic paths, twice
        // MAX_PATHS. Path sums cannot be checked; that is a warning, never
        // an error, and it is reported once per function.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("wide", 1);
        fb.block("entry");
        let p = fb.param(0);
        for i in 0..17 {
            let t = fb.create_block(format!("then{i}"));
            let e = fb.create_block(format!("else{i}"));
            let j = fb.create_block(format!("join{i}"));
            let c = fb.cmp(CmpOp::Gt, p, i as i64);
            fb.cond_br(c, t, e);
            fb.switch_to(t);
            fb.compute(1 + i % 3);
            fb.br(j);
            fb.switch_to(e);
            fb.compute(2);
            fb.br(j);
            fb.switch_to(j);
        }
        fb.ret_void();
        let f = fb.finish_into(&mut m);

        for level in OptLevel::table1_rows() {
            let out = instrument(&m, &cost(), &OptConfig::only(level), Placement::Start, &[f]);
            let r = validate(&m, &out.module, &out.cert, &cost());
            let warned: Vec<&Finding> = r
                .findings
                .iter()
                .filter(|f| f.rule == "validate/too-many-paths")
                .collect();
            assert_eq!(warned.len(), 1, "{}: {:#?}", level.label(), r.findings);
            assert!(matches!(warned[0].severity, Severity::Warning));
            assert!(
                warned[0].message.contains("more than 65536 acyclic paths"),
                "{}",
                warned[0].message
            );
            assert!(
                !r.findings
                    .iter()
                    .any(|f| matches!(f.severity, Severity::Error)),
                "{}: {:#?}",
                level.label(),
                r.findings
            );
        }
    }

    #[test]
    fn rejects_clocked_mean_claimed_for_a_looping_function() {
        // `main` loops, so it has no finite set of entry paths to average:
        // a cert that claims an O1 mean for it cannot re-derive at all.
        let (m, entries) = test_module();
        let mut out = instrument(&m, &cost(), &OptConfig::none(), Placement::Start, &entries);
        let main = entries[0].index();
        out.cert.clocked[main] = Some(10);
        let r = validate(&m, &out.module, &out.cert, &cost());
        let f = r
            .findings
            .iter()
            .find(|f| f.rule == "validate/clocked-mean")
            .unwrap_or_else(|| panic!("{:#?}", r.findings));
        assert!(
            f.message
                .contains("does not satisfy the tightness criterion"),
            "{}",
            f.message
        );
        assert!(f
            .related
            .iter()
            .any(|l| l == "suspect pass: o1-function-clocking"));
    }

    #[test]
    fn rejects_wrong_clocked_mean() {
        let (m, entries) = test_module();
        let mut out = instrument(
            &m,
            &cost(),
            &OptConfig::only(OptLevel::O1),
            Placement::Start,
            &entries,
        );
        let cid = out
            .cert
            .clocked
            .iter()
            .position(|c| c.is_some())
            .expect("leaf gets clocked under O1");
        *out.cert.clocked[cid].as_mut().unwrap() += 7;
        let r = validate(&m, &out.module, &out.cert, &cost());
        assert!(
            r.findings.iter().any(|f| f.rule == "validate/clocked-mean"),
            "{:#?}",
            r.findings
        );
    }
}
