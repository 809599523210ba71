//! The layer probes of a trace run: fixed inputs, timed calls into each
//! crate's public functions from the benchmark's side. They do not depend on
//! which workload the trace run is for (only the `serve.job.*` numbers do:
//! on `serve_closed` they come from the workload's own spans, elsewhere from
//! a short probe session over the same mix and the same code path), so the
//! same layer reads the same way beside every workload.
//!
//! Every time is a median of repeated calls; counts marked exact in the
//! README are integers read from returned `Stats` / `RunMetrics` / response
//! fields and repeat bit-for-bit.

use crate::clock::Clock;
use crate::harness::{BlockOut, Phase, RunResult, Workload};
use crate::joblist;
use crate::layers::{self, Values};
use crate::programs::{self, Engine, Program};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::compile::{self, Source};
use crate::workloads::serve::{self, Serve};
use crate::workloads::vm::{self, ComputeSet, SyncSet};
use detlock_core::{tick, DetBarrier, DetConfig, DetMutex, DetRuntime};
use detlock_passes::cache::plan_key;
use detlock_passes::cost::CostModel;
use detlock_passes::pass;
use detlock_passes::pipeline::{instrument_with, CompileOpts, Instrumented, OptConfig};
use detlock_passes::plan::Placement;
use detlock_serve::group::{GroupConfig, GroupRouter, HashRing};
use detlock_serve::protocol::{batch_request, parse_batch, FrameBuffer};
use detlock_serve::queue::AdmissionQueue;
use detlock_serve::shard::ShardEngine;
use detlock_serve::{Client, JobSpec, Receipt};
use detlock_shim::json::{Json, ToJson};
use detlock_vm::machine::{CkptControl, ExecMode, Machine, MachineConfig};
use detlock_vm::{Backend, ChunkParams, Sched};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, ns at the host's reference speed:
/// each call is followed by one clock probe in this thread.
fn time_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut clock = Clock::new(Instant::now());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            let raw_ns = start.elapsed().as_nanos() as f64;
            raw_ns * clock.sample().speed()
        })
        .collect();
    stats::median(&samples)
}

/// Median over `reps` of the per-call time of a loop of `inner` calls, ns —
/// for calls too short to time one at a time.
fn time_loop_ns<R>(reps: usize, inner: usize, mut f: impl FnMut() -> R) -> f64 {
    time_ns(reps, || {
        for _ in 0..inner {
            black_box(f());
        }
    }) / inner as f64
}

/// Repetitions of (whole-module, sub-millisecond, microsecond-loop) probes.
struct Reps {
    module: usize,
    run: usize,
    micro: usize,
}

const FULL: Reps = Reps {
    module: 7,
    run: 5,
    micro: 7,
};
const QUICK: Reps = Reps {
    module: 1,
    run: 1,
    micro: 1,
};

const ALL_START: Placement = Placement::Start;

fn compile_all(src: &Source, cost: &CostModel, opts: CompileOpts) -> Instrumented {
    instrument_with(
        &src.module,
        cost,
        &OptConfig::all(),
        ALL_START,
        &src.entries,
        opts,
    )
}

fn ir_and_passes(v: &mut Values, cost: &CostModel, reps: &Reps) {
    let corpus = compile::corpus();
    let insts: usize = corpus.iter().map(|s| s.insts).sum();
    let per_inst = |total_ns: f64| total_ns / insts as f64;
    let sum = |f: &dyn Fn(&Source) -> f64| corpus.iter().map(f).sum::<f64>();

    v.insert("ir.corpus.insts", insts as f64);
    v.insert(
        "ir.parse.ns_per_inst",
        per_inst(sum(&|s| {
            time_ns(reps.module, || detlock_ir::parse::parse_module(&s.text))
        })),
    );
    v.insert(
        "ir.verify.ns_per_inst",
        per_inst(sum(&|s| {
            time_ns(reps.module, || detlock_ir::verify::verify_module(&s.module))
        })),
    );
    v.insert(
        "ir.print.ns_per_inst",
        per_inst(sum(&|s| {
            time_ns(reps.module, || compile::module_text(&s.module))
        })),
    );

    // Cold compile, O-all: wall per function, per-pass wall from the
    // pipeline's own telemetry, analysis-cache hit share, ticks (exact).
    let functions: usize = corpus.iter().map(|s| s.module.functions.len()).sum();
    let serial_ns = sum(&|s| time_ns(reps.module, || compile_all(s, cost, CompileOpts::serial())));
    v.insert(
        "passes.instrument.cold_us_per_fn",
        serial_ns / 1e3 / functions as f64,
    );
    let parallel_ns = sum(&|s| {
        time_ns(reps.module, || {
            compile_all(s, cost, CompileOpts::threads(2))
        })
    });
    v.insert("passes.parallel.speedup_2t", serial_ns / parallel_ns);

    const PASSES: [(&str, &str); 8] = [
        (pass::PASS_O1, "passes.pass.o1-function-clocking.ns"),
        (pass::PASS_SPLIT, "passes.pass.split-blocks.ns"),
        (pass::PASS_BASE_PLAN, "passes.pass.base-plan.ns"),
        (pass::PASS_O2A, "passes.pass.o2a-cond-motion.ns"),
        (pass::PASS_O2B, "passes.pass.o2b-approx-motion.ns"),
        (pass::PASS_O3, "passes.pass.o3-averaging.ns"),
        (pass::PASS_O4, "passes.pass.o4-loop-merge.ns"),
        (pass::PASS_MATERIALIZE, "passes.pass.materialize-ticks.ns"),
    ];
    let compiles: Vec<Vec<Instrumented>> = (0..reps.module)
        .map(|_| {
            corpus
                .iter()
                .map(|s| compile_all(s, cost, CompileOpts::serial()))
                .collect()
        })
        .collect();
    for (pass_name, metric) in PASSES {
        let per_rep: Vec<f64> = compiles
            .iter()
            .map(|outs| {
                outs.iter()
                    .flat_map(|o| &o.stats.per_pass)
                    .filter(|p| p.name == pass_name)
                    .map(|p| p.wall_ns as f64)
                    .sum()
            })
            .collect();
        v.insert(metric, stats::median(&per_rep));
    }
    let outs = &compiles[0];
    let (hits, misses) = outs.iter().fold((0, 0), |(h, m), o| {
        (
            h + o.stats.analysis_cache_hits,
            m + o.stats.analysis_cache_misses,
        )
    });
    v.insert(
        "passes.analysis_cache.hit_share",
        hits as f64 / (hits + misses) as f64,
    );
    v.insert(
        "passes.ticks_materialized",
        outs.iter().map(|o| o.stats.ticks_inserted as f64).sum(),
    );

    // The read path: key hashing alone, then key + hit + clone.
    let modules = corpus.len() as f64;
    let key_ns = sum(&|s| {
        time_ns(reps.module, || {
            plan_key(&s.module, cost, &OptConfig::all(), ALL_START, &s.entries)
        })
    });
    v.insert("passes.plan_key.us", key_ns / 1e3 / modules);
    let cached = CompileOpts::serial().cached();
    for s in &corpus {
        compile_all(s, cost, cached);
    }
    let hit_ns = sum(&|s| time_ns(reps.module, || compile_all(s, cost, cached)));
    v.insert("passes.cache.hit_us", hit_ns / 1e3 / modules);

    // Lowering and the analyses that sit off every hot path.
    let out_insts: usize = outs.iter().map(|o| compile::inst_count(&o.module)).sum();
    let lower_ns: f64 = outs
        .iter()
        .map(|o| time_ns(reps.module, || detlock_vm::lower::lower(&o.module, cost)))
        .sum();
    v.insert("vm.lower.ns_per_inst", lower_ns / out_insts as f64);
    let validate_ns: f64 = corpus
        .iter()
        .zip(outs)
        .map(|(s, o)| {
            time_ns(reps.run, || {
                detlock_analyze::validate::validate(&s.module, &o.module, &o.cert, cost)
            })
        })
        .sum();
    v.insert("analyze.validate.ms", validate_ns / 1e6);
    let lint_ns = sum(&|s| {
        time_ns(reps.run, || {
            detlock_analyze::races::analyze_races(&s.module, &s.threads)
        })
    });
    v.insert("analyze.lint.ms", lint_ns / 1e6);
}

/// One VM configuration a program set is timed under.
type VmConfig = (ExecMode, Engine);

/// What one configuration cost over a whole program set.
struct SetCost {
    /// Σ over programs of the median host time of one run, ns.
    host_ns: f64,
    /// Lock acquisitions plus barrier waits of those runs.
    syncs: u64,
    /// Instructions of those runs.
    instrs: u64,
}

/// Time every program of `set` under every configuration. Repetitions are
/// the outer loop, so drift over the probe lands on all configurations
/// alike and the differences between them (the arbiter is Det minus
/// ClocksOnly) are not differences between two moments.
fn set_costs(set: &[Program], cost: &CostModel, configs: &[VmConfig], reps: usize) -> Vec<SetCost> {
    let seed = compile::SIM_JITTER_SEED;
    let mut samples = vec![vec![Vec::with_capacity(reps); set.len()]; configs.len()];
    for _ in 0..reps {
        for (c, &(mode, engine)) in configs.iter().enumerate() {
            for (p, program) in set.iter().enumerate() {
                samples[c][p].push(time_ns(1, || {
                    programs::run(program, cost, mode, engine, seed)
                }));
            }
        }
    }
    configs
        .iter()
        .zip(samples)
        .map(|(&(mode, engine), per_program)| {
            let mut out = SetCost {
                host_ns: per_program.iter().map(|s| stats::median(s)).sum(),
                syncs: 0,
                instrs: 0,
            };
            for program in set {
                let (m, _) = programs::run(program, cost, mode, engine, seed);
                out.syncs +=
                    m.lock_acquires() + m.per_thread.iter().map(|t| t.barrier_waits).sum::<u64>();
                out.instrs += m.instructions();
            }
            out
        })
        .collect()
}

fn vm_engines(v: &mut Values, cost: &CostModel, reps: &Reps) {
    let interp_kendo = Engine {
        backend: Backend::Interp,
        ..vm::PRIMARY
    };
    let with_sched = |sched| Engine {
        sched,
        ..vm::PRIMARY
    };

    let compute = vm::compile_set::<ComputeSet>(cost);
    let configs = [
        (ExecMode::Det, vm::PRIMARY),
        (ExecMode::Det, vm::ALT),
        (ExecMode::Det, interp_kendo),
        (ExecMode::ClocksOnly, vm::PRIMARY),
    ];
    let [threaded, alt, interp, clocks_only] = &set_costs(&compute, cost, &configs, reps.run)[..]
    else {
        unreachable!("one cost per configuration")
    };
    v.insert(
        "vm.exec.ns_per_instr",
        threaded.host_ns / threaded.instrs as f64,
    );
    v.insert("vm.exec_alt.ns_per_instr", alt.host_ns / alt.instrs as f64);
    v.insert(
        "vm.exec.interp_over_threaded",
        interp.host_ns / threaded.host_ns,
    );
    // The arbiter is what Det adds to ClocksOnly on the same engine.
    v.insert(
        "vm.arbiter.share.vm_compute",
        (threaded.host_ns - clocks_only.host_ns) / threaded.host_ns,
    );

    let sync = vm::compile_set::<SyncSet>(cost);
    let configs = [
        (ExecMode::ClocksOnly, vm::PRIMARY),
        (ExecMode::Det, with_sched(Sched::Kendo)),
        (
            ExecMode::Det,
            with_sched(Sched::Chunk(ChunkParams::default())),
        ),
        (ExecMode::Det, with_sched(Sched::DcBatch)),
    ];
    let [clocks_only, kendo, chunk, dc_batch] = &set_costs(&sync, cost, &configs, reps.run)[..]
    else {
        unreachable!("one cost per configuration")
    };
    let ns_per_sync = |det: &SetCost| (det.host_ns - clocks_only.host_ns) / det.syncs as f64;
    v.insert("vm.arbiter.ns_per_sync", ns_per_sync(kendo));
    v.insert(
        "vm.arbiter.share.vm_sync",
        (kendo.host_ns - clocks_only.host_ns) / kendo.host_ns,
    );
    v.insert("vm.sched.kendo.ns_per_sync", ns_per_sync(kendo));
    v.insert("vm.sched.chunk.ns_per_sync", ns_per_sync(chunk));
    v.insert("vm.sched.dc-batch.ns_per_sync", ns_per_sync(dc_batch));
}

/// Checkpointing, resume, sanitizer and machine construction, on the two
/// job shapes the serve mix runs.
fn vm_job_costs(v: &mut Values, cost: &CostModel, reps: &Reps) {
    let mix = serve::mix_programs(cost);
    let small = &mix[joblist::HOT.0];
    let medium = &mix[joblist::MEDIUM_KIND];
    fn cfg(p: &Program) -> MachineConfig {
        programs::config(p, ExecMode::Det, vm::PRIMARY, 1)
    }
    fn new_machine<'a>(p: &'a Program, cost: &'a CostModel) -> Machine<'a> {
        Machine::new(&p.inst.module, cost, &p.specs, cfg(p))
    }
    let machine = |p| new_machine(p, cost);

    // Lowered-program cache warm, as on a shard that has seen the config.
    machine(small);
    v.insert(
        "vm.machine_new.us",
        time_ns(reps.micro * 3, || machine(small)) / 1e3,
    );

    let interval = serve::serve_config().checkpoint_interval;
    let plain_ns = time_ns(reps.run, || machine(medium).run());
    let mut taken = Vec::new();
    let ckpt_ns = time_ns(reps.run, || {
        taken.clear();
        machine(medium).run_with_checkpoints(interval, &mut |ck| {
            // What a shard does with each snapshot: keep the latest.
            taken.push(ck.clone());
            taken.truncate(1);
            CkptControl::Continue
        })
    });
    v.insert("vm.checkpoint.overhead_share", ckpt_ns / plain_ns - 1.0);

    // A mid-run snapshot: stop at the third checkpoint, resume from it.
    let mut mid = None;
    let mut seen = 0;
    machine(medium).run_with_checkpoints(interval, &mut |ck| {
        seen += 1;
        mid = Some(ck.clone());
        if seen == 3 {
            CkptControl::Abort
        } else {
            CkptControl::Continue
        }
    });
    let mid = mid.expect("the medium job runs past one checkpoint interval");
    v.insert("vm.checkpoint.bytes", mid.approx_bytes() as f64);
    let resume = || Machine::resume(&medium.inst.module, cost, cfg(medium), &mid).expect("resume");
    v.insert("vm.resume.us", time_ns(reps.micro * 3, resume) / 1e3);
    let resumed = resume();
    v.insert(
        "vm.checkpoint.snapshot_us",
        time_ns(reps.micro * 3, || resumed.snapshot()) / 1e3,
    );

    let sanitized = MachineConfig {
        sanitize: true,
        ..cfg(medium)
    };
    let san_ns = time_ns(reps.run, || {
        Machine::new(&medium.inst.module, cost, &medium.specs, sanitized.clone()).run_sanitized()
    });
    v.insert("vm.sanitize.slowdown", san_ns / plain_ns);

    let hot = &joblist::identities()[0];
    v.insert(
        "workloads.build.us",
        time_ns(reps.micro * 3, || {
            detlock_workloads::by_name(&hot.workload, hot.threads, hot.scale)
        }) / 1e3,
    );
}

/// Serve-layer pieces called directly: protocol, receipt, queue, shard
/// engine, hash ring.
fn serve_direct(v: &mut Values, cost: &CostModel, reps: &Reps) {
    let ids = joblist::identities();
    let (hot, medium) = (&ids[0], ids.last().expect("identities"));
    let line = hot.to_json().to_string_compact();
    let parse_spec = |s: &str| JobSpec::from_json(&Json::parse(s).expect("request line parses"));
    v.insert(
        "serve.protocol.parse_us",
        time_loop_ns(reps.micro, 2000, || parse_spec(&line)) / 1e3,
    );

    let mut framed = line.clone().into_bytes();
    framed.push(b'\n');
    let mut fb = FrameBuffer::new();
    v.insert(
        "serve.protocol.frame_ns",
        time_loop_ns(reps.micro, 20_000, || {
            fb.push(&framed);
            fb.next_frame()
        }),
    );

    let batch = joblist::block(10, 1)[..serve::BATCH].to_vec();
    let frame = batch_request(&batch).to_string_compact();
    let parse_frame = || parse_batch(&Json::parse(&frame).expect("batch frame parses"));
    v.insert(
        "serve.protocol.batch_parse_us_per_job",
        time_loop_ns(reps.micro, 500, parse_frame) / 1e3 / serve::BATCH as f64,
    );

    let mix = serve::mix_programs(cost);
    let (metrics, _) = programs::run(
        &mix[&hot.workload],
        cost,
        ExecMode::Det,
        vm::PRIMARY,
        hot.seed,
    );
    v.insert(
        "serve.receipt.us",
        time_loop_ns(reps.micro, 2000, || {
            Receipt::from_metrics(hot, &metrics).canonical()
        }) / 1e3,
    );

    let queue = AdmissionQueue::new(64);
    v.insert(
        "serve.queue.push_pop_ns",
        time_loop_ns(reps.micro, 50_000, || {
            queue.try_push(7u64).expect("room in the queue");
            queue.pop()
        }),
    );

    let budget = serve::serve_config().job_cycle_budget;
    let mut engine = ShardEngine::new(0).with_backend(Backend::Threaded);
    for (job, metric) in [
        (hot, "serve.shard.exec_ms.small"),
        (medium, "serve.shard.exec_ms.medium"),
    ] {
        engine.execute(job, budget).expect("job executes");
        let warm_ns = time_ns(reps.run * 2, || {
            engine.execute(job, budget).expect("job executes")
        });
        v.insert(metric, warm_ns / 1e6);
    }
    // First job of a config on a fresh engine, plan cache bypassed: workload
    // build + instrument + run (the lowered-program cache stays warm).
    let cold_ns = time_ns(reps.run, || {
        ShardEngine::new(1)
            .with_backend(Backend::Threaded)
            .with_compile_opts(CompileOpts::serial())
            .execute(hot, budget)
            .expect("job executes")
    });
    v.insert("serve.shard.cold_ms", cold_ns / 1e6);

    let labels: Vec<String> = (0..3).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect();
    let ring = HashRing::new(&labels, GroupConfig::default().vnodes);
    let key = hot.identity_key();
    v.insert(
        "serve.group.route_ns",
        time_loop_ns(reps.micro, 50_000, || ring.route(&key)),
    );
}

/// What needs a live server: `stats` round trips, the `/stats` document for
/// the JSON probes, the router hop, and — unless the workload under trace is
/// `serve_closed` itself — a traced block of the job mix.
fn serve_session(v: &mut Values, seed: u64, traced_block: bool, reps: &Reps) {
    let mut session = Serve::set_up(seed);
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, false);
    session.run_block(Phase::Primary, 0, &mut tracer, &mut BlockOut::new(epoch));
    if traced_block {
        let mut session_block = BlockOut::new(epoch);
        tracer.set_enabled(true);
        session.run_block(Phase::Primary, 1, &mut tracer, &mut session_block);
        tracer.set_enabled(false);
        assert_eq!(
            session_block.failed, 0,
            "probe session: a receipt mismatched"
        );
        let speed = session_block.clock.speed(0, u64::MAX);
        v.extend(layers::serve_job_metrics(tracer.spans(), speed));
        v.extend(session.layer_counts());
    }

    session.stats_round_trip();
    v.insert(
        "serve.stats.rtt_us",
        time_ns(reps.micro * 30, || session.stats_round_trip()) / 1e3,
    );

    let doc = session.stats_round_trip();
    let text = doc.to_string_compact();
    let mb = text.len() as f64 / 1e6;
    let parse_s = time_loop_ns(reps.micro, 200, || Json::parse(&text)) / 1e9;
    let render_s = time_loop_ns(reps.micro, 200, || doc.to_string_compact()) / 1e9;
    v.insert("shim.json.parse_mb_per_s", mb / parse_s);
    v.insert("shim.json.render_mb_per_s", mb / render_s);

    // p50 of the hot job through a one-backend router, minus direct.
    let router = GroupRouter::start(GroupConfig {
        backends: vec![session.addr()],
        ..GroupConfig::default()
    })
    .expect("start the group router");
    let hot = &joblist::identities()[0];
    let p50_ms = |addr: String| {
        let mut client = Client::connect(&addr).expect("connect");
        client.run(hot).expect("warm the connection");
        let n = reps.micro * 6;
        let samples: Vec<f64> = (0..n)
            .map(|_| time_ns(1, || client.run(hot).expect("job runs")) / 1e6)
            .collect();
        stats::median(&samples)
    };
    let direct = p50_ms(session.addr());
    let routed = p50_ms(router.local_addr().to_string());
    v.insert("serve.group.hop_ms", routed - direct);
    router.shutdown_and_join();
    session.tear_down();
}

/// The native runtime (`detlock-core`). Reported with its spread: two
/// threads handing one `DetMutex` back and forth do not repeat within a
/// tenth on this container, which is why no workload gates on it.
fn core_runtime(v: &mut Values, reps: &Reps) {
    {
        let _rt = DetRuntime::with_defaults();
        v.insert(
            "core.tick.ns",
            time_loop_ns(reps.micro, 500_000, || tick(black_box(3))),
        );
    }
    let uncontended = |record_trace: bool| {
        let rt = DetRuntime::new(DetConfig {
            record_trace,
            trace_capacity: Some(4096),
            ..DetConfig::default()
        });
        let m = DetMutex::new(&rt, 0u64);
        time_loop_ns(reps.micro, 50_000, || {
            tick(1);
            *m.lock() += 1;
        })
    };
    let (plain, recorded) = (uncontended(false), uncontended(true));
    v.insert("core.mutex.uncontended_ns", plain);
    v.insert("core.trace.record_share", (recorded - plain) / recorded);

    // Whole episodes, timed from the outside: runtime creation and the two
    // spawns are part of the price of a hand-off run.
    const ACQUISITIONS: u64 = 4000;
    let handoff = || {
        let rt = DetRuntime::with_defaults();
        let m = Arc::new(DetMutex::new(&rt, 0u64));
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let m = Arc::clone(&m);
                rt.spawn(move || {
                    for i in 0..ACQUISITIONS / 2 {
                        tick(5 + (t + i) % 3);
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(*m.lock(), ACQUISITIONS);
    };
    let runs: Vec<f64> = (0..reps.run.max(3))
        .map(|_| time_ns(1, handoff) / ACQUISITIONS as f64)
        .collect();
    v.insert("core.mutex.handoff_ns_2t", stats::median(&runs));
    v.insert(
        "core.mutex.handoff_ns_2t.min",
        runs.iter().copied().fold(f64::INFINITY, f64::min),
    );
    v.insert(
        "core.mutex.handoff_ns_2t.max",
        runs.iter().copied().fold(0.0, f64::max),
    );

    const ROUNDS: u64 = 500;
    let barrier = || {
        let rt = DetRuntime::with_defaults();
        let bar = Arc::new(DetBarrier::new(&rt, 2));
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let bar = Arc::clone(&bar);
                rt.spawn(move || {
                    for r in 0..ROUNDS {
                        tick(2 + (t + r) % 4);
                        bar.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
    };
    v.insert(
        "core.barrier.ns_2t",
        time_ns(reps.run.max(3), barrier) / ROUNDS as f64,
    );
}

/// Run every probe. `workload` is the workload the trace run is for; `r` its
/// result (whose spans already gave `serve.job.*` if it is `serve_closed`).
pub fn run(workload: &str, seed: u64, r: &RunResult, quick: bool) -> Values {
    let reps = if quick { &QUICK } else { &FULL };
    let cost = CostModel::default();
    let mut v = Values::new();
    let started = Instant::now();
    ir_and_passes(&mut v, &cost, reps);
    vm_engines(&mut v, &cost, reps);
    vm_job_costs(&mut v, &cost, reps);
    serve_direct(&mut v, &cost, reps);
    let has_serve_spans = r.spans.iter().any(|s| s.name.starts_with("serve.request."));
    serve_session(&mut v, seed, !has_serve_spans, reps);
    core_runtime(&mut v, reps);
    eprintln!(
        "probes: {} layer metrics beside {workload} in {:.1} s",
        v.len(),
        started.elapsed().as_secs_f64()
    );
    v
}
