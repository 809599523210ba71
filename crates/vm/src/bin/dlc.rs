//! `dlc` — the DetLock compiler driver.
//!
//! Parse a textual IR module, run the DetLock instrumentation pass, and
//! either dump the instrumented program or execute it on the simulated
//! multicore:
//!
//! ```text
//! dlc prog.dir                          # instrument (all opts), dump text
//! dlc prog.dir --opt none --emit dot    # Graphviz of each function
//! dlc prog.dir --run main --threads 4 --mode det --args 0,100
//! dlc prog.dir --run main --mode baseline --seed 7
//! dlc prog.dir --estimates my_costs.txt # load an instructions estimate file
//! ```
//!
//! `--mode` ∈ {baseline, clocks, det, kendo}; `--opt` ∈ {none, o1, o2, o3,
//! o4, all}; `--placement` ∈ {start, end}. With `--run`, each thread gets
//! the same entry function and arguments, except that the literal `tid` in
//! `--args` is replaced by the thread index. `--print-passes` lists the
//! pass pipeline the selected `--opt`/`--placement` lower to and exits;
//! `--pass-stats` prints per-pass telemetry after instrumenting;
//! `--profile` prints, after `--run`, how the simulator got through the
//! run: rounds executed, cycles advanced in closed form, scheduler calls,
//! the threads the rounds touched and the threaded engine's run lengths.
//! `--backend interp|threaded` picks the execution engine; results are
//! identical either way, only the wall-clock time differs.
//! `--scheduler kendo|chunk[:SIZE[:COST]]|dc-batch` picks the
//! deterministic arbitration policy;
//! different policies legitimately produce different (each internally
//! deterministic) lock orders. `--mode kendo` with no explicit
//! `--scheduler` implies `--scheduler chunk`, preserving the historical
//! Table II spelling.

use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use detlock_passes::{render_pass_table, PassPipeline};
use detlock_vm::machine::{ExecMode, Jitter, Machine, MachineConfig, RoundProfile, ThreadSpec};
use detlock_vm::metrics::GHZ;
use detlock_vm::{Backend, Sched};

struct Options {
    input: String,
    opt: OptLevel,
    placement: Placement,
    emit: String,
    run_entry: Option<String>,
    threads: usize,
    mode: ExecMode,
    args: Vec<String>,
    seed: u64,
    estimates: Option<String>,
    print_passes: bool,
    pass_stats: bool,
    profile: bool,
    backend: Backend,
    /// `None`: Kendo, or chunk under `--mode kendo`.
    scheduler: Option<Sched>,
}

fn usage() -> ! {
    eprintln!(
        "usage: dlc <input.dir> [--opt none|o1|o2|o3|o4|all] [--placement start|end]\n\
         \x20          [--emit text|dot|none] [--estimates FILE]\n\
         \x20          [--print-passes] [--pass-stats]\n\
         \x20          [--backend interp|threaded]\n\
         \x20          [--scheduler kendo|chunk[:SIZE[:COST]]|dc-batch]\n\
         \x20          [--run ENTRY --threads N --mode baseline|clocks|det|kendo\n\
         \x20           --args a,b,tid --seed S [--profile]]"
    );
    std::process::exit(2);
}

fn parse_options() -> Options {
    let mut o = Options {
        input: String::new(),
        opt: OptLevel::All,
        placement: Placement::Start,
        emit: "text".into(),
        run_entry: None,
        threads: 4,
        mode: ExecMode::Det,
        args: vec![],
        seed: 1,
        estimates: None,
        print_passes: false,
        pass_stats: false,
        profile: false,
        backend: Backend::Interp,
        scheduler: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--opt" => {
                i += 1;
                o.opt = match argv.get(i).map(|v| OptLevel::parse(v)) {
                    Some(Ok(level)) => level,
                    _ => usage(),
                };
            }
            "--placement" => {
                i += 1;
                o.placement = match argv.get(i).map(String::as_str) {
                    Some("start") => Placement::Start,
                    Some("end") => Placement::End,
                    _ => usage(),
                };
            }
            "--emit" => {
                i += 1;
                o.emit = argv.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--run" => {
                i += 1;
                o.run_entry = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threads" => {
                i += 1;
                o.threads = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--mode" => {
                i += 1;
                o.mode = match argv.get(i).map(String::as_str) {
                    Some("baseline") => ExecMode::Baseline,
                    Some("clocks") => ExecMode::ClocksOnly,
                    Some("det") => ExecMode::Det,
                    Some("kendo") => ExecMode::Kendo,
                    _ => usage(),
                };
            }
            "--args" => {
                i += 1;
                o.args = argv
                    .get(i)
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                o.seed = argv
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--estimates" => {
                i += 1;
                o.estimates = Some(argv.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--backend" => {
                i += 1;
                o.backend = match argv.get(i).map(|v| Backend::parse(v)) {
                    Some(Ok(b)) => b,
                    _ => usage(),
                };
            }
            "--scheduler" => {
                i += 1;
                o.scheduler = match argv.get(i).map(|v| Sched::parse(v)) {
                    Some(Ok(s)) => Some(s),
                    _ => usage(),
                };
            }
            "--print-passes" => o.print_passes = true,
            "--pass-stats" => o.pass_stats = true,
            "--profile" => o.profile = true,
            flag if flag.starts_with("--") => usage(),
            path => {
                if !o.input.is_empty() {
                    usage();
                }
                o.input = path.to_string();
            }
        }
        i += 1;
    }
    if o.input.is_empty() {
        usage();
    }
    o
}

fn main() {
    let o = parse_options();
    if o.print_passes {
        // Describe the pipeline the flags lower to, without compiling.
        let pipeline = PassPipeline::from_config(&OptConfig::only(o.opt), o.placement);
        for line in pipeline.describe() {
            println!("{line}");
        }
        return;
    }
    let text = std::fs::read_to_string(&o.input).unwrap_or_else(|e| {
        eprintln!("dlc: cannot read {}: {e}", o.input);
        std::process::exit(1);
    });
    let module = detlock_ir::parse::parse_module(&text).unwrap_or_else(|e| {
        eprintln!("dlc: {}: {e}", o.input);
        std::process::exit(1);
    });
    if let Err(errors) = detlock_ir::verify::verify_module(&module) {
        for e in errors {
            eprintln!("dlc: verify: {e}");
        }
        std::process::exit(1);
    }

    let mut cost = CostModel::default();
    if let Some(path) = &o.estimates {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("dlc: cannot read {path}: {e}");
            std::process::exit(1);
        });
        if let Err(e) = cost.merge_estimate_file(&text) {
            eprintln!("dlc: {path}: {e}");
            std::process::exit(1);
        }
    }

    // Entry functions are excluded from Function Clocking.
    let entries: Vec<detlock_ir::FuncId> = match &o.run_entry {
        Some(name) => {
            let id = module.func_by_name(name).unwrap_or_else(|| {
                eprintln!("dlc: no function named `{name}`");
                std::process::exit(1);
            });
            vec![id]
        }
        None => vec![],
    };

    let out = instrument(
        &module,
        &cost,
        &OptConfig::only(o.opt),
        o.placement,
        &entries,
    );
    eprintln!(
        "dlc: {} functions, {} clockable, {} ticks inserted ({} blocks of {})",
        out.stats.functions,
        out.stats.clockable_functions,
        out.stats.ticks_inserted,
        out.stats.blocks_with_tick,
        out.stats.blocks
    );
    if o.pass_stats {
        eprint!("{}", render_pass_table(&out.stats.per_pass));
        eprintln!(
            "dlc: analysis cache: {} hits / {} misses",
            out.stats.analysis_cache_hits, out.stats.analysis_cache_misses
        );
    }

    match o.emit.as_str() {
        "text" => {
            for (fid, f) in out.module.iter_funcs() {
                let plan = &out.plan.funcs[fid.index()];
                print!(
                    "{}",
                    detlock_ir::dot::function_to_text(f, |b| Some(plan.block_clock[b.index()]))
                );
            }
        }
        "dot" => {
            for (fid, f) in out.module.iter_funcs() {
                let plan = &out.plan.funcs[fid.index()];
                print!(
                    "{}",
                    detlock_ir::dot::function_to_dot(f, |b| Some(plan.block_clock[b.index()]))
                );
            }
        }
        "none" => {}
        other => {
            eprintln!("dlc: unknown --emit `{other}`");
            std::process::exit(2);
        }
    }

    let Some(entry_name) = o.run_entry else {
        return;
    };
    let entry = out.module.func_by_name(&entry_name).unwrap();
    let params = out.module.func(entry).params as usize;
    let threads: Vec<ThreadSpec> = (0..o.threads)
        .map(|t| {
            let mut args: Vec<i64> = o
                .args
                .iter()
                .map(|a| {
                    if a == "tid" {
                        t as i64
                    } else {
                        a.parse().unwrap_or_else(|_| {
                            eprintln!("dlc: bad --args value `{a}`");
                            std::process::exit(2);
                        })
                    }
                })
                .collect();
            args.resize(params, 0);
            ThreadSpec { func: entry, args }
        })
        .collect();

    // `--mode kendo` historically meant "Kendo with chunked clocks"; keep
    // that spelling working when no scheduler was named explicitly.
    let scheduler = o.scheduler.unwrap_or(match o.mode {
        ExecMode::Kendo => Sched::Chunk(Default::default()),
        _ => Sched::Kendo,
    });
    let cfg = MachineConfig {
        mode: o.mode,
        jitter: Jitter::default().with_seed(o.seed),
        backend: o.backend,
        scheduler,
        ..MachineConfig::default()
    };
    let (metrics, hit, profile) = Machine::new(&out.module, &cost, &threads, cfg).run_profiled();
    if hit {
        eprintln!("dlc: run hit the cycle limit (deadlock or runaway loop?)");
    } else {
        println!(
            "\nrun: {} cycles ({:.3} simulated ms at {:.2} GHz)",
            metrics.cycles,
            metrics.seconds() * 1e3,
            GHZ
        );
        println!(
            "     {} instructions, {} lock acquisitions ({:.0} locks/sec), {} wait cycles",
            metrics.instructions(),
            metrics.lock_acquires(),
            metrics.locks_per_sec(),
            metrics.wait_cycles()
        );
        println!("     lock-order hash {:#018x}", metrics.lock_order_hash);
        for (t, m) in metrics.per_thread.iter().enumerate() {
            println!(
                "     thread {t}: {} insts, final clock {}, {} acquires, {} stores",
                m.instructions, m.final_clock, m.lock_acquires, m.retired_stores
            );
        }
    }
    // Also after a cut run: which status the rounds found the threads
    // they touched in is what tells a deadlock from a runaway loop.
    if o.profile {
        let counts = |labels: &[&str], values: &[u64]| -> String {
            let parts: Vec<String> = labels
                .iter()
                .zip(values)
                .filter(|&(_, &n)| n > 0)
                .map(|(label, n)| format!("{label} {n}"))
                .collect();
            parts.join(", ")
        };
        println!(
            "profile: {} event rounds for {} cycles, {} advanced in closed form ({} of them bump rounds)",
            profile.event_rounds, metrics.cycles, profile.skipped_cycles, profile.collapsed_bumps
        );
        println!(
            "         {} quiet rounds, {} arbitrated, {} scheduler decisions; threads touched: {}",
            profile.quiet_rounds,
            profile.event_rounds - profile.quiet_rounds,
            profile.decide_calls,
            counts(&RoundProfile::STATUS, &profile.steps)
        );
        if profile.fused_runs.iter().any(|&n| n > 0) {
            println!(
                "         dispatches by ops run: {}; {} runs cut short by the limit/snapshot gate; \
                 {} ticks published, {} advance steps cut short by a publication; \
                 {} loads and stores run after a head",
                counts(&RoundProfile::RUN_LENGTHS, &profile.fused_runs),
                profile.gate_cuts,
                profile.ticks_published,
                profile.publication_stops,
                profile.memops_run_ahead
            );
        }
        if !profile.private_sites.is_empty() {
            let per_thread: Vec<String> = profile
                .private_sites
                .iter()
                .map(|n| n.to_string())
                .collect();
            println!(
                "         load/store sites private to their thread, per thread: {}",
                per_thread.join(" ")
            );
        }
    }
    if hit {
        std::process::exit(1);
    }
}
