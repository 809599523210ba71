//! The determinism matrix: the paper's one claim, weak determinism (same
//! input, same lock-acquisition order, whatever the physical timing),
//! checked as relations over the outcomes of grid cells.
//!
//! A cell (`common/matrix.rs`) is {input, opt level, placement, mode,
//! policy, engine, seed, sanitize, checkpoint interval, cycle limit,
//! host}; it runs once per test binary, however many properties read it.
//! The properties:
//!
//! * **engine invariance** — the interpreter is the threaded engine's
//!   spec: metrics, the acquisition list, final memory, sanitizer reports,
//!   cycle-limit cuts and every checkpoint digest agree;
//! * **seed invariance** — under `Det` per policy, and under `Kendo` mode
//!   on chunk clocks, the acquisition list (clocks included), the final
//!   memory of a race-free program and the sanitizer's report are a
//!   function of the program, never of the jitter seed; the negative
//!   controls are the racy counter's final memory and the two FCFS modes,
//!   whose lock order does follow the seed;
//! * **resume equals run** — a run interrupted at every checkpoint ends
//!   where the uninterrupted run ends, on one engine, the threaded engine,
//!   alternating engines and with the sanitizer on;
//! * **receipt stability** — a job's receipt is the same executed again on
//!   one shard engine and on a fresh one;
//! * **the policy is identity**, and **the policies differ**: Kendo and
//!   dc-batch order locks differently on at least one workload, or every
//!   stability property above could pass with the policies collapsed into
//!   one;
//! * **pins** for what no relation sees: the hammers' schedules (a rule
//!   both engines share, changed, stays deterministic) and the threaded
//!   engine's dispatch counts (lost fusion moves no simulated number).

#[path = "common/matrix.rs"]
mod driver;

use detlock_bench::{instrumented, machine_config, thread_specs};
use detlock_ir::Module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;
use detlock_shim::acq::{first_divergence, Acquisition};
use detlock_vm::machine::{Checkpoint, CkptControl, ExecMode, Machine, MachineConfig, ResumeError};
use detlock_vm::sanitizer::SanitizerReport;
use detlock_vm::{ChunkParams, Sched};
use detlock_workloads::Workload;
use driver::{
    assert_same, grid, outcome, policies, splash, workload, Axes, Cell, Ckpt, Engine, Host, Outcome,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Engine invariance: every cell ends in the same state, with the same
/// checkpoint stream, on both engines. Returns the interpreter's outcomes
/// for the checks a grid adds.
fn engine_invariant(cells: &[Cell]) -> Vec<Arc<Outcome>> {
    cells
        .iter()
        .map(|&c| {
            let [interp, threaded] =
                [Engine::Interp, Engine::Threaded].map(|engine| Cell { engine, ..c });
            let (a, b) = (outcome(&interp), outcome(&threaded));
            assert_same((&interp, &a), (&threaded, &b));
            if a.stamps != b.stamps {
                panic!("checkpoint stream diverged between\n  {interp:?}\n  {threaded:?}");
            }
            a
        })
        .collect()
}

/// Seed invariance: per cell, every seed gives one acquisition list, clocks
/// included, and one final memory (weak determinism's payoff: the program's
/// state, not only its lock order; the cells must be race-free). Under the
/// two Kendo-style policies a lock's grants also follow the release-clock
/// rule: the holder releases at or after its own grant clock `g`, a waiter
/// is granted only once its clock has passed that release, and the grant
/// ticks it once more, so the next grant of the lock records at least
/// `g + 2`. Dc-batch has no release-clock rule.
fn seed_invariant(cells: &[Cell], seeds: &[u64]) {
    for &c in cells {
        let runs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let c = Cell { seed, ..c };
                let o = outcome(&c);
                assert!(!o.hit_limit, "hit the cycle limit: {c:?}");
                (c, o)
            })
            .collect();
        let (c0, first) = (&runs[0].0, runs[0].1.metrics());
        for (c, o) in &runs[1..] {
            let m = o.metrics();
            assert_eq!(
                first.lock_order_hash, m.lock_order_hash,
                "trace hash varies with the seed:\n  {c0:?}\n  {c:?}"
            );
            if let Some(i) = first_divergence(&first.lock_order, &m.lock_order) {
                panic!(
                    "acquisition {i} differs, {:?} vs {:?}, between\n  {c0:?}\n  {c:?}",
                    first.lock_order.get(i),
                    m.lock_order.get(i)
                );
            }
            assert!(
                runs[0].1.memory == o.memory,
                "final memory varies with the seed:\n  {c0:?}\n  {c:?}"
            );
        }
        if c.sched != Sched::DcBatch {
            let mut last = BTreeMap::new();
            for &Acquisition { lock, tid, clock } in &first.lock_order {
                if let Some(prev) = last.insert(lock, clock) {
                    assert!(
                        clock >= prev + 2,
                        "lock {lock} granted to tid {tid} at clock {clock}, after a grant at \
                         clock {prev}: {c0:?}"
                    );
                }
            }
        }
    }
}

/// Resume equals run: `run` interrupted at every snapshot, `every` cycles
/// apart, and resumed each time on `engine`, ends where `run` ends; on a
/// machine a resumed state, snapshotted before it runs a cycle, is the
/// checkpoint it came from (cycle, deep digest and size). Returns the
/// chain's resumes.
fn resume_equals_run(run: Cell, every: u64, engine: Engine) -> usize {
    let mut chain = run;
    (chain.ckpt, chain.engine) = (Ckpt::Resume(every), engine);
    let (a, b) = (outcome(&chain), outcome(&run));
    assert_same((&chain, &a), (&run, &b));
    if let Some((ck, back)) = a.round_trips.iter().find(|(ck, back)| ck != back) {
        panic!("resumed into {back:?}, not the checkpoint {ck:?}: {chain:?}");
    }
    a.resumes
}

/// Every workload × all six Table I opt levels × both tick placements ×
/// two seeds, under `Det`: the same on both engines and under both seeds.
#[test]
fn det_runs_identical_across_the_full_opt_grid() {
    let seeds = [1, 31337];
    let runs = grid(splash(), Cell::det)
        .across(OptLevel::table1_rows(), |c, l| c.level = Some(l))
        .across([Placement::Start, Placement::End], |c, p| c.placement = p);
    let cells = runs.clone().across(seeds, |c, s| c.seed = s);
    assert!(cells.len() >= 120, "grid shrank to {} cells", cells.len());
    engine_invariant(&cells);
    seed_invariant(&runs, &seeds);
}

/// Every policy, at the two extremes of tick placement (every block ticks,
/// or the fewest do), sanitizer on.
#[test]
fn det_runs_identical_across_the_scheduler_grid() {
    let cells = grid(splash(), Cell::det)
        .across([OptLevel::None, OptLevel::All], |c, l| c.level = Some(l))
        .across(policies(), |c, s| c.sched = s)
        .across([1, 31337], |c, s| c.seed = s)
        .each(|c| c.sanitize = true);
    assert!(cells.len() >= 60, "grid shrank to {} cells", cells.len());
    engine_invariant(&cells);
}

/// The mode after `mode`. The match is exhaustive, so a new `ExecMode`
/// does not compile until it is chained in here.
fn mode_after(mode: ExecMode) -> Option<ExecMode> {
    match mode {
        ExecMode::Baseline => Some(ExecMode::ClocksOnly),
        ExecMode::ClocksOnly => Some(ExecMode::Det),
        ExecMode::Det => Some(ExecMode::Kendo),
        ExecMode::Kendo => None,
    }
}

/// Every execution mode, the nondeterministic ones included: their
/// schedules are still a function of the jitter seed. Instrumented modes
/// run the instrumented module, the rest the source, as the bench does.
#[test]
fn all_exec_modes_identical_across_backends() {
    let modes = std::iter::successors(Some(ExecMode::Baseline), |&m| mode_after(m));
    let cells = grid(splash(), Cell::det)
        .across(modes, |c, mode| {
            c.mode = mode;
            if !matches!(mode, ExecMode::ClocksOnly | ExecMode::Det) {
                c.level = None;
            }
        })
        .across([1, 7], |c, s| c.seed = s);
    engine_invariant(&cells);
}

/// A sanitized run of the uninstrumented source.
fn sanitized(c: &mut Cell) {
    c.level = None;
    c.sanitize = true;
}

/// The report of a sanitized cell.
fn report(o: &Outcome) -> SanitizerReport {
    o.sanitizer.clone().expect("sanitize is on")
}

/// The sanitizer sees execution through `(function, block, instruction)`
/// sites, so equal reports show that the threaded engine keeps source
/// coordinates. Under `Det` the happens-before relation follows the
/// synchronization order alone, so a report is also the same under every
/// jitter seed.
#[test]
fn sanitizer_reports_identical_across_backends() {
    let seeds = [1, 31337];
    let cells = grid(splash(), Cell::det)
        .across(seeds, |c, s| c.seed = s)
        .each(sanitized);
    let outcomes = engine_invariant(&cells);
    for (cs, os) in cells.chunks(seeds.len()).zip(outcomes.chunks(seeds.len())) {
        let first = report(&os[0]);
        for (c, o) in cs.iter().zip(os).skip(1) {
            let r = report(o);
            assert_eq!(r.canonical(), first.canonical(), "report varies: {c:?}");
        }
    }
}

/// The racy counter's race (the witness `detlint --confirm` prints) is the
/// same on both engines and under every seed.
#[test]
fn racy_counter_witness_identical_across_backends() {
    let racy = grid(vec!["racy-counter"], Cell::det)
        .each(sanitized)
        .across([1, 7, 99], |c, s| c.seed = s);
    let reports: Vec<_> = engine_invariant(&racy).iter().map(|o| report(o)).collect();
    let races = &reports[0];
    assert!(!races.races.is_empty(), "the racy counter lost its race");
    for (c, r) in racy.iter().zip(&reports).skip(1) {
        assert_eq!(r.canonical(), races.canonical(), "report varies: {c:?}");
    }
}

/// The negative control: a lock-order cycle with no race, on both engines
/// and under every seed.
#[test]
fn deadlock_control_identical_across_backends() {
    let deadlock = grid(vec!["deadlock-control"], Cell::det)
        .each(sanitized)
        .across([1, 7, 99], |c, s| c.seed = s);
    let reports: Vec<_> = engine_invariant(&deadlock)
        .iter()
        .map(|o| report(o))
        .collect();
    let cycle = &reports[0];
    assert!(
        cycle.races.is_empty() && !cycle.lock_cycles.is_empty(),
        "the deadlock control changed shape: expected no races, one lock cycle"
    );
    for (c, r) in deadlock.iter().zip(&reports).skip(1) {
        assert_eq!(r.canonical(), cycle.canonical(), "report varies: {c:?}");
    }
}

/// A cycle limit stops the run at the same state on both engines: each
/// engine stops at exactly the limit, the threaded engine's dispatches at
/// the exact stop gate (DESIGN §15) like every other boundary.
#[test]
fn cycle_limit_cuts_identical_across_backends() {
    let cells = grid(splash(), Cell::det).across([17, 1031, 20011], |c, l| c.limit = Some(l));
    for (c, o) in cells.iter().zip(engine_invariant(&cells)) {
        assert!(o.hit_limit, "the limit did not cut: {c:?}");
    }
}

/// Snapshots every few cycles agree in deep digest at every boundary, not
/// only at the end: the threaded engine runs thread-private ops ahead of
/// their cycle, and the exact stop gate (DESIGN §15) ends a dispatch before
/// any op whose issue cycle reaches the next snapshot.
#[test]
fn checkpoint_streams_identical_across_backends() {
    let cells = grid(splash(), Cell::det).across([64, 1031], |c, e| c.ckpt = Ckpt::Stream(e));
    for (c, o) in cells.iter().zip(engine_invariant(&cells)) {
        assert!(!o.stamps.is_empty(), "no checkpoints taken: {c:?}");
    }
}

/// Seed invariance under every policy, and of the simulated Kendo baseline
/// (Table II): `Kendo` mode runs the source module on chunk clocks, at the
/// default chunking and at a short chunk with a cheap interrupt.
#[test]
fn trace_hashes_jitter_seed_invariant_under_every_policy() {
    let mut inputs = splash();
    inputs.extend(["lockhammer", "barrierhammer"]);
    let det = grid(inputs.clone(), Cell::det).across(policies(), |c, s| c.sched = s);
    let chunks = [
        ChunkParams::default(),
        ChunkParams {
            chunk_size: 8,
            interrupt_cost: 30,
        },
    ];
    let kendo = grid(inputs, Cell::det).across(chunks, |c, p| {
        (c.mode, c.level, c.sched) = (ExecMode::Kendo, None, Sched::Chunk(p));
    });
    seed_invariant(&[det, kendo].concat(), &[0, 1, 31337]);
}

/// Negative control for seed invariance: without the arbiter, locks go
/// first come, first served, so under `Baseline` and `ClocksOnly` the
/// hammers' lock order follows the jitter seed. A seed invariance that held
/// whatever the mode would show here.
#[test]
fn nondeterministic_modes_order_locks_by_the_seed() {
    let cells = grid(vec!["lockhammer", "barrierhammer"], Cell::det).across(
        [
            (ExecMode::Baseline, None),
            (ExecMode::ClocksOnly, Some(OptLevel::All)),
        ],
        |c, (mode, level)| (c.mode, c.level) = (mode, level),
    );
    let seeds = [0, 1, 7, 31337];
    for c in cells {
        let runs = seeds.map(|seed| outcome(&Cell { seed, ..c }));
        let first = runs[0].metrics();
        let other = (runs[1..].iter().map(|o| o.metrics()))
            .find(|m| m.lock_order_hash != first.lock_order_hash)
            .unwrap_or_else(|| panic!("seeds {seeds:?} all ran one lock order: {c:?}"));
        assert!(
            first_divergence(&first.lock_order, &other.lock_order).is_some(),
            "the hashes differ but the recorded orders agree: {c:?}"
        );
    }
}

/// Negative control for the final-memory half of seed invariance: the racy
/// counter's unlocked word loses a different number of its 240 increments
/// under different seeds, on both engines, so a comparison of final memory
/// that always passed would show here.
#[test]
fn racy_counter_final_memory_varies_with_the_seed() {
    let racy = grid(vec!["racy-counter"], Cell::det).across([0, 1, 31337], |c, s| c.seed = s);
    let counters: Vec<i64> = engine_invariant(&racy)
        .iter()
        .map(|o| {
            let word = detlock_workloads::racy::RACY_WORD as usize;
            o.memory
                .iter()
                .find(|&&(i, _)| i == word)
                .map_or(0, |&(_, v)| v)
        })
        .collect();
    assert_eq!(counters, [238, 237, 237], "{racy:?}");
}

/// Negative control: each policy is deterministic in itself, but batch
/// commit at quiescence is a different rule from min-clock turns.
#[test]
fn kendo_and_dc_batch_order_locks_differently_somewhere() {
    let cells = grid(splash(), Cell::det);
    let hash = |c: &Cell, sched| outcome(&Cell { sched, ..*c }).metrics().lock_order_hash;
    if cells
        .iter()
        .all(|c| hash(c, Sched::Kendo) == hash(c, Sched::DcBatch))
    {
        let names: Vec<String> = cells.iter().map(|c| format!("\n  {c:?}")).collect();
        panic!(
            "the policies have collapsed: each cell runs one lock order under {} and {}:{}",
            Sched::Kendo,
            Sched::DcBatch,
            names.concat()
        );
    }
}

/// A job executed twice on one shard engine and once on a fresh one gives
/// one receipt, the same on either execution engine, and the receipt names
/// its policy.
#[test]
fn receipts_stable_per_scheduler_across_seeds_and_engines() {
    let cells = grid(splash(), Cell::job)
        .across(policies(), |c, s| c.sched = s)
        .across([1, 7, 31337], |c, s| c.seed = s)
        .across([Engine::Interp, Engine::Threaded], |c, e| c.engine = e);
    assert!(cells.len() >= 90, "grid shrank to {} cells", cells.len());
    for c in cells {
        let [first, again, fresh] =
            [Host::Shared, Host::Again, Host::Fresh].map(|host| Cell { host, ..c });
        let o = outcome(&first);
        assert_same((&first, &o), (&again, &outcome(&again)));
        assert_same((&first, &o), (&fresh, &outcome(&fresh)));
        let interp = Cell {
            engine: Engine::Interp,
            ..first
        };
        assert_same((&interp, &outcome(&interp)), (&first, &o));
        let named = &o.receipt.as_ref().expect("a job").scheduler;
        assert!(*named == c.sched.spec(), "the receipt names {named}: {c:?}");
    }
}

/// Two jobs that differ only in policy never share an identity key, so
/// never a cache slot or a dedup bucket.
#[test]
fn policies_never_collide_in_identity_space() {
    let keys: BTreeSet<String> = grid(vec!["ocean"], Cell::job)
        .across(policies(), |c, s| c.sched = s)
        .iter()
        .map(|c| c.spec().identity_key())
        .collect();
    assert!(
        keys.len() == policies().len(),
        "identity collision: {keys:?}"
    );
}

/// splitmix64, the repo-wide idiom for seeded-but-stateless draws.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(b.wrapping_mul(0xbf58476d1ce4e5b9))
        .wrapping_add(0x94d049bb133111eb);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Every workload × policy × two seeds as a job interrupted at every
/// checkpoint, at two seeded intervals in [500, 8000) per cell: the
/// serving layer's crash recovery stands on this. Each chain is held to
/// its own policy's run.
#[test]
fn resume_from_checkpoint_matches_run_from_zero_across_the_workload_grid() {
    let inputs = splash();
    let runs = grid(inputs.clone(), Cell::job)
        .across(policies(), |c, s| c.sched = s)
        .across([1, 7], |c, s| c.seed = s);
    let mut resumes = 0;
    for run in runs {
        let wi = inputs.iter().position(|&i| i == run.input).unwrap() as u64;
        for k in 0..2 {
            let every = 500 + mix(0xC4EC, wi, run.seed * 2 + k) % 7500;
            resumes += resume_equals_run(run, every, run.engine);
        }
    }
    assert!(
        resumes > 0,
        "no chain was interrupted: intervals too coarse"
    );
}

/// A sanitized run resumed at every `every` cycles ends with the report of
/// the uninterrupted run.
fn sanitized_resume_equals_run(run: Cell, every: u64) {
    assert!(outcome(&run).sanitizer.is_some(), "no report: {run:?}");
    assert!(
        resume_equals_run(run, every, run.engine) > 0,
        "too short: {run:?}"
    );
}

/// Sanitizer state is part of the checkpoint: races that straddle a
/// snapshot are found only if shadow memory and vector clocks cross it.
#[test]
fn sanitizer_state_survives_checkpoint_restore() {
    let racy = Cell {
        level: None,
        sanitize: true,
        seed: 5,
        ..Cell::det("racy-counter")
    };
    sanitized_resume_equals_run(racy, 64);
    assert!(
        !report(&outcome(&racy)).races.is_empty(),
        "the racy counter must race"
    );
}

/// The same as a job: a serve resume chain ends with the report the
/// uninterrupted job gives.
#[test]
fn serve_resume_chain_preserves_the_sanitizer_report() {
    let job = Cell {
        sanitize: true,
        seed: 9,
        ..Cell::job("ocean")
    };
    sanitized_resume_equals_run(job, 900);
}

/// The snapshot cadence, "never" included, is invisible in the receipt.
#[test]
fn checkpoint_interval_does_not_leak_into_the_receipt() {
    let run = Cell {
        seed: 3,
        ..Cell::job("ocean")
    };
    for every in [701, 4096] {
        let streamed = Cell {
            ckpt: Ckpt::Stream(every),
            ..run
        };
        assert_same((&streamed, &outcome(&streamed)), (&run, &outcome(&run)));
    }
}

/// The checkpoint fingerprint leaves the engine out, since the engines are
/// bit-identical: a chain on the threaded engine, and one alternating
/// engines at every resume, both end where the interpreter's run does, and
/// every resume round-trips the state type, sanitizer on and off.
#[test]
fn threaded_and_cross_backend_resume_match_run_from_zero() {
    let runs = grid(splash(), Cell::det)
        .across([true, false], |c, s| c.sanitize = s)
        .each(|c| (c.seed, c.engine) = (11, Engine::Interp));
    for run in runs {
        for engine in [Engine::Threaded, Engine::Alternate] {
            assert!(
                resume_equals_run(run, 512, engine) > 0,
                "too short: {run:?}"
            );
        }
    }
}

/// The snapshot of `module`, built from `w`, 256 cycles into its run.
fn early_checkpoint(w: &Workload, module: &Module, cfg: &MachineConfig) -> Checkpoint {
    let (cost, mut taken) = (CostModel::default(), None);
    let machine = Machine::new(module, &cost, &thread_specs(w), cfg.clone());
    machine.run_with_checkpoints(256, &mut |ck| {
        taken = Some(ck.clone());
        CkptControl::Abort
    });
    taken.expect("a checkpoint was taken")
}

/// Scheduler identity rides the checkpoint, and a restore under another
/// policy is refused with the typed error. The inverse holds for engines
/// (above): they are bit-identical, so snapshots move between them; the
/// policies are not, so a snapshot replays under the one that made it.
#[test]
fn restore_under_a_different_scheduler_is_a_typed_error() {
    let w = workload("ocean");
    let cost = CostModel::default();
    let cfg = machine_config(&w, ExecMode::Det, 3);
    let ckpt = early_checkpoint(&w, &w.module, &cfg);
    assert_eq!(ckpt.scheduler(), Sched::Kendo);

    let mut other = cfg.clone();
    other.scheduler = Sched::DcBatch;
    match Machine::resume(&w.module, &cost, other, &ckpt) {
        Err(ResumeError::SchedulerMismatch {
            checkpoint,
            requested,
        }) => {
            assert_eq!(checkpoint, Sched::Kendo);
            assert_eq!(requested, Sched::DcBatch);
        }
        Err(e) => panic!("expected SchedulerMismatch, got {e:?}"),
        Ok(_) => panic!("scheduler mismatch must refuse to resume"),
    }
    assert!(Machine::resume(&w.module, &cost, cfg, &ckpt).is_ok());
}

/// A checkpoint is bound to the module it was taken on: a mid-run snapshot
/// of each workload with ticks at block start, offered to the same
/// workload with ticks at block end (the same counts of functions, blocks
/// and registers), is refused with the typed error.
#[test]
fn restore_on_a_different_module_is_a_typed_error() {
    let cost = CostModel::default();
    for input in splash() {
        let w = workload(input);
        let [start, end] =
            [Placement::Start, Placement::End].map(|p| instrumented(&w, &cost, OptLevel::All, p));
        let cfg = machine_config(&w, ExecMode::Det, 1);
        let ckpt = early_checkpoint(&w, &start.module, &cfg);
        match Machine::resume(&end.module, &cost, cfg.clone(), &ckpt) {
            Err(ResumeError::ConfigMismatch { .. }) => {}
            Err(e) => panic!("{input}: expected ConfigMismatch, got {e:?}"),
            Ok(_) => panic!("{input}: resumed a checkpoint on another module"),
        }
        assert!(Machine::resume(&start.module, &cost, cfg, &ckpt).is_ok());
    }
}

/// The relations above cannot see a consistent change to the rules both
/// engines share: a lock granted one bump early (or late) under every seed,
/// engine and resume is still deterministic. So the two hammers, the most
/// contended inputs, keep their schedules pinned under every policy:
/// simulated cycles and the trace hash (order and clocks of every grant).
#[test]
fn hammer_schedules_are_pinned() {
    let cells =
        grid(vec!["lockhammer", "barrierhammer"], Cell::det).across(policies(), |c, s| c.sched = s);
    let pins: [(u64, u64); 6] = [
        (59777, 0x7a82d9f1d1ae22c7),
        (59777, 0x7a82d9f1d1ae22c7),
        (65941, 0x498125e1261e4c29),
        (27966, 0x7a9beafa6207f0f1),
        (27966, 0x7a9beafa6207f0f1),
        (29596, 0x7fd55cf9d7f47c63),
    ];
    for (c, pin) in cells.iter().zip(pins) {
        let m = outcome(c);
        let (cycles, hash) = (m.metrics().cycles, m.metrics().lock_order_hash);
        let moved = format!("({cycles}, {hash:#018x})");
        assert!(
            (cycles, hash) == pin,
            "(cycles, trace hash) moved to {moved}: {c:?}"
        );
    }
}

/// The threaded engine's dispatches, pinned: the run-length histogram
/// (`RoundProfile::fused_runs`) of radiosity (4 threads, scale 0.05) and of
/// the lock hammer, `Det` + Kendo, every optimization, one seed. No outcome
/// can see fusion lost — every simulated number stays right and only the
/// wall time moves — so the counts are held exactly. A dispatch runs up to
/// the next lock, unlock, barrier, builtin or final `ret`, across branches,
/// calls, returns and executing ticks, whose clocks the core publishes to
/// the arbiter, and across loads and stores while every other thread is
/// blocked and no lock waiter's lock is free: radiosity takes 89 026
/// dispatches (90 362 while loads and stores always headed their own,
/// 113 487 while ticks did too) and the hammer 1 608 (2 408, 4 412).
#[test]
fn threaded_dispatch_counts_are_pinned() {
    let cost = CostModel::default();
    let radiosity = detlock_workloads::by_name("radiosity", 4, 0.05).expect("known workload");
    for (w, runs) in [
        (radiosity, [292, 38_619, 18_425, 31_690]),
        (workload("lockhammer"), [804, 0, 400, 404]),
    ] {
        let inst = instrumented(&w, &cost, OptLevel::All, Placement::Start);
        let cfg = machine_config(&w, ExecMode::Det, 1);
        let (_, hit, profile) =
            Machine::new(&inst.module, &cost, &thread_specs(&w), cfg).run_profiled();
        assert!(!hit, "{}", w.name);
        assert_eq!(
            profile.steps[0],
            runs.iter().sum::<u64>(),
            "{}: one dispatch per issue",
            w.name
        );
        assert_eq!(
            (profile.fused_runs, profile.gate_cuts),
            (runs, 0),
            "{}",
            w.name
        );
    }
}
