//! The repo benchmark. See `README.md` in this directory and the root
//! `BENCHMARK.json`.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload in this
//!   process; the last line of stdout is the result object.
//! * no `--workload` — the full pass: every workload, one fresh process each.
//! * `--selfcheck` — the full pass twice on this build, gaps held to bounds.
//! * `--quick` — one block per phase: wiring check, numbers invalid.

mod clock;
mod harness;
mod joblist;
mod layers;
mod metrics;
mod probes;
mod programs;
mod stats;
mod trace;
mod workloads;

use detlock_shim::json::Json;
use harness::{Plan, RunResult, Workload};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Workload names, in full-pass order.
pub const WORKLOADS: [&str; 4] = ["compile", "vm_compute", "vm_sync", "serve_closed"];
/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 14;
/// What one block is sized to take on the 2-core reference container.
const NOMINAL_BLOCK_S: f64 = 1.5;
/// Set-up repetitions of a measured run (`setup_s` is their median).
const SETUP_REPS: usize = 3;

const USAGE: &str =
    "usage: detlock-benchmark [--workload compile|vm_compute|vm_sync|serve_closed] \
[--seed N] [--seconds S] [--trace [0|1]] [--quick] [--selfcheck]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    selfcheck: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        selfcheck: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--quick" => args.quick = true,
            "--selfcheck" => args.selfcheck = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Blocks of (primary, alt) for a `--seconds` budget: the budget over the
/// nominal block time, split 5:4 (the primary phase feeds three metrics, the
/// alt phase one, but a median of three blocks spread twice as wide as a
/// median of five). Block *sizes* never depend on it, so both commits of a
/// comparison do identical work.
fn blocks_for(seconds: u64) -> (usize, usize) {
    let total = ((seconds as f64 / NOMINAL_BLOCK_S).round() as usize).max(2);
    let primary = (total * 5).div_ceil(9).min(total - 1);
    (primary, total - primary)
}

fn plan_for(args: &Args) -> Plan {
    let (primary_blocks, alt_blocks) = match (args.quick, args.trace) {
        (true, false) => (1, 1),
        (true, true) => (2, 1),
        // A trace run decomposes; it does not gate. Three untraced and three
        // traced primary blocks, interleaved, and one traced alt block.
        (false, true) => (6, 1),
        (false, false) => blocks_for(args.seconds),
    };
    Plan {
        seed: args.seed,
        primary_blocks,
        alt_blocks,
        setup_reps: if args.quick || args.trace {
            1
        } else {
            SETUP_REPS
        },
        trace: args.trace,
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The end-to-end values, in the order of [`metrics::END_TO_END`].
fn end_to_end(r: &RunResult) -> [f64; metrics::END_TO_END.len()] {
    [
        stats::median(&r.setup.iter().map(|t| t.s).collect::<Vec<_>>()),
        stats::ops_per_s(r.ops_per_block.0, &r.primary.block_wall_s()),
        stats::ops_per_s(r.ops_per_block.1, &r.alt.block_wall_s()),
        r.primary.latency_ms(50.0),
        r.primary.latency_ms(90.0),
        harness::peak_rss_mb(),
        r.sim.det_overhead_pct(),
    ]
}

fn run_workload<W: Workload>(args: &Args, start: Instant) -> ExitCode {
    let plan = plan_for(args);
    let r = harness::run::<W>(plan, start);
    let attempted = r.primary.attempted() + r.primary_traced.attempted() + r.alt.attempted();
    let failed = r.primary.failed + r.primary_traced.failed + r.alt.failed + r.warmup_failed;

    let metrics: Vec<Metric> = if args.trace {
        let spans_path = layers::write_trace(W::NAME, &r.spans);
        eprintln!(
            "trace: {} spans written to {}",
            r.spans.len(),
            spans_path.display()
        );
        let mut values = layers::from_run(&r);
        values.extend(probes::run(W::NAME, args.seed, &r, args.quick));
        let table = layers::isolation_table(W::NAME, &mut values, args.quick);
        eprint!("{table}");
        metrics::PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: *values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name)),
                unit: m.unit,
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .zip(end_to_end(&r))
            .map(|(m, value)| Metric {
                name: m.name,
                value,
                unit: m.unit,
            })
            .collect()
    };

    println!(
        "# {} seed {} — {} primary + {} alt blocks of {} / {} ops; {} latency samples, {} beyond the blocks' p90s{}",
        W::NAME,
        args.seed,
        r.primary.blocks.len(),
        r.alt.blocks.len(),
        r.ops_per_block.0,
        r.ops_per_block.1,
        r.primary.attempted(),
        r.primary.blocks.len() * stats::samples_beyond(r.ops_per_block.0, 90.0),
        if args.quick {
            " — QUICK: numbers invalid"
        } else {
            ""
        },
    );
    // Times are at the host's reference speed; raw wall and measured speed beside.
    let walls = |name: &str, w: &[harness::Timed]| {
        let col = |f: &dyn Fn(&harness::Timed) -> f64| {
            w.iter()
                .map(|t| format!("{:.3}", f(t)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("# {name} s: {}", col(&|t| t.s));
        println!(
            "#   raw wall s: {}   host speed: {}",
            col(&|t| t.raw_s),
            col(&|t| t.speed)
        );
    };
    walls("set-up", &r.setup);
    walls("primary block", &r.primary.blocks);
    if args.trace {
        walls("traced primary block", &r.primary_traced.blocks);
    }
    walls("alt block", &r.alt.blocks);
    for m in &metrics {
        println!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<44} {:>16} ops", "attempted", attempted);
    println!("{:<44} {:>16} ops", "failed", failed);
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let value = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.to_string_compact());
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}: {failed} of {attempted} ops failed their output check",
            W::NAME
        );
        ExitCode::FAILURE
    }
}

/// The result object of one workload, run in a fresh process.
fn run_child(workload: &str, args: &Args) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload}: exited with {}; result: {last}",
            out.status
        ));
    }
    Ok(result)
}

fn metric_value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing from a result"))
}

/// Run every workload in `order`, one fresh process each.
fn pass(order: &[&str], args: &Args) -> Result<Vec<(String, Json)>, String> {
    order
        .iter()
        .map(|w| {
            eprintln!("running {w} ...");
            run_child(w, args).map(|r| (w.to_string(), r))
        })
        .collect()
}

fn full_pass(args: &Args) -> ExitCode {
    let results = match pass(&WORKLOADS, args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if args.quick {
        println!(
            "QUICK mode: one block per phase — wiring check only, every number below is INVALID"
        );
    }
    let names: Vec<(&str, &str)> = if args.trace {
        metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .collect()
    };
    print!("{:<44} {:>8}", "metric", "unit");
    for (w, _) in &results {
        print!(" {w:>16}");
    }
    println!();
    for (name, unit) in names {
        print!("{name:<44} {unit:>8}");
        for (_, r) in &results {
            print!(" {:>16.6}", metric_value(r, name));
        }
        println!();
    }
    for key in ["attempted", "failed"] {
        print!("{key:<44} {:>8}", "ops");
        for (_, r) in &results {
            print!(" {:>16}", r.get(key).and_then(Json::as_u64).unwrap_or(0));
        }
        println!();
    }
    let isolation_failed: f64 = if args.trace {
        results
            .iter()
            .map(|(_, r)| metric_value(r, "isolation.failed"))
            .sum()
    } else {
        0.0
    };
    if isolation_failed > 0.0 {
        eprintln!("{isolation_failed} layer-isolation assertion(s) failed (tables above)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn selfcheck(args: &Args) -> ExitCode {
    let reversed: Vec<&str> = WORKLOADS.iter().rev().copied().collect();
    let (a, b) = match (pass(&WORKLOADS, args), pass(&reversed, args)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "pass A", "pass B", "gap", "bound"
    );
    let mut over = 0;
    for (w, ra) in &a {
        let rb = &b
            .iter()
            .find(|(wb, _)| wb == w)
            .expect("same workloads in both passes")
            .1;
        for m in &metrics::END_TO_END {
            let (va, vb) = (metric_value(ra, m.name), metric_value(rb, m.name));
            let gap = stats::relative_gap(va, vb);
            let ok = gap <= m.bound;
            over += usize::from(!ok);
            println!(
                "{w:<14} {:<18} {va:>14.6} {vb:>14.6} {:>7.2}% {:>7.2}%  {}",
                m.name,
                gap * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "OVER" }
            );
        }
    }
    if over > 0 {
        eprintln!("selfcheck: {over} cell(s) moved by more than their bound between two runs of one build");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_deref() {
        Some("compile") => run_workload::<workloads::compile::Compile>(&args, start),
        Some("vm_compute") => run_workload::<workloads::vm::VmCompute>(&args, start),
        Some("vm_sync") => run_workload::<workloads::vm::VmSync>(&args, start),
        Some("serve_closed") => run_workload::<workloads::serve::Serve>(&args, start),
        Some(other) => unreachable!("parse_args admitted workload {other}"),
        None if args.selfcheck => selfcheck(&args),
        None => full_pass(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload vm_sync --seed 7 --seconds 14 --trace 0").unwrap();
        assert_eq!(a.workload.as_deref(), Some("vm_sync"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 14, false));
        assert!(parse("--workload compile --trace 1").unwrap().trace);
        // Bare --trace, then another flag.
        let a = parse("--trace --quick").unwrap();
        assert!(a.trace && a.quick && a.workload.is_none());
        assert_eq!(parse("").unwrap().seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--seconds 61").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    #[test]
    fn seconds_choose_the_block_count_never_the_block_size() {
        assert_eq!(blocks_for(DEFAULT_SECONDS), (5, 4));
        assert_eq!(blocks_for(12), (5, 3));
        assert_eq!(blocks_for(21), (8, 6));
        assert_eq!(blocks_for(1), (1, 1));
        assert_eq!(blocks_for(60), (23, 17));
    }
}
