//! The measurement protocol every workload shares.
//!
//! Fixed work, not fixed time: a phase is N blocks of a constant, committed
//! op count, so two commits do identical work and a faster commit simply
//! finishes sooner. Throughput is `ops_per_block / median(block wall)`; a
//! latency percentile is the median over the primary blocks of each block's
//! own percentile, so a neighbour's burst that spoils a block spoils one
//! vote. One untimed warm-up block per phase is part of set-up, and set-up
//! as a whole is repeated so `setup_s` is a median too. Every wall time is
//! normalised to the host's reference speed (see `clock.rs`); the raw walls
//! are kept beside.

use crate::clock::Clock;
use crate::programs::SimCounts;
use crate::stats;
use crate::trace::{Span, Tracer};
use std::time::Instant;

/// The two phases of a workload: the configuration it is named for, and
/// the read-beside-the-write / other-engine variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Reported as `ops_per_s`, `op_p50_ms`, `op_p90_ms`.
    Primary,
    /// Reported as `alt_ops_per_s`.
    Alt,
}

/// What one block did: when each op ran, the failure count, and the clock
/// samples taken while it ran.
#[derive(Debug)]
pub struct BlockOut {
    /// `(start, end)` of every op, ns since the epoch, in completion order.
    pub ops: Vec<(u64, u64)>,
    /// Ops whose output was wrong, refused, or errored.
    pub failed: u64,
    /// Core-clock samples covering the block.
    pub clock: Clock,
    /// Probe time spent *in the measuring thread* (not part of the work).
    in_thread_probe_ns: u64,
}

impl BlockOut {
    /// An empty block on `epoch` (the tracer's epoch: process start).
    pub fn new(epoch: Instant) -> BlockOut {
        BlockOut {
            ops: Vec::new(),
            failed: 0,
            clock: Clock::new(epoch),
            in_thread_probe_ns: 0,
        }
    }

    /// Run one op inside an `op` span, time it, count it as failed unless
    /// `f` says its output checked out, then run one clock probe in this
    /// thread: the op's work ran on this core, so the probe reads the speed
    /// the work ran at.
    pub fn op(&mut self, tracer: &mut Tracer, id: u64, f: impl FnOnce(&mut Tracer) -> bool) {
        tracer.set_op(id);
        let start_ns = self.clock.now_ns();
        let ok = tracer.span("op", f);
        self.record(start_ns, self.clock.now_ns(), ok);
        self.probe();
    }

    /// One clock probe in this thread, its wall time kept out of the block's.
    pub fn probe(&mut self) {
        self.in_thread_probe_ns += self.clock.sample().wall_ns;
    }

    /// Count one op that ran over `[start_ns, end_ns]` and whose output
    /// check said `ok`.
    pub fn record(&mut self, start_ns: u64, end_ns: u64, ok: bool) {
        self.ops.push((start_ns, end_ns));
        if !ok {
            self.failed += 1;
        }
    }

    /// Fold another client thread's ops and probes into this block.
    pub fn absorb(&mut self, other: BlockOut) {
        self.ops.extend(other.ops);
        self.failed += other.failed;
        self.clock.absorb(other.clock);
        self.in_thread_probe_ns += other.in_thread_probe_ns;
    }
}

/// One benchmark workload. `set_up` builds inputs and independent reference
/// results; the harness then runs the warm-up and timed blocks through
/// `run_block`, whose block 0 is the warm-up.
pub trait Workload: Sized {
    /// Name on the command line and in `BENCHMARK.json`.
    const NAME: &'static str;

    /// Generate inputs from `seed` and compute the reference outputs.
    fn set_up(seed: u64) -> Self;

    /// Constant op count of one block of `phase`.
    fn ops_per_block(&self, phase: Phase) -> usize;

    /// Run block `block` of `phase` (0 = warm-up), checking every op.
    fn run_block(&mut self, phase: Phase, block: usize, tracer: &mut Tracer, out: &mut BlockOut);

    /// Simulated cycle counts of the workload's program set (paper Table I);
    /// `with_clocks_only` adds the ClocksOnly runs the trace run reports.
    fn sim_counts(&self, with_clocks_only: bool) -> SimCounts;

    /// Counts only this workload can read (server counters, mix shares),
    /// as per-layer metrics of a trace run.
    fn layer_counts(&mut self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stop anything `set_up` started.
    fn tear_down(self) {}
}

/// How much to run. Block op counts are constants of each workload; only
/// the number of blocks is chosen here.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed.
    pub seed: u64,
    /// Timed primary blocks.
    pub primary_blocks: usize,
    /// Timed alt blocks.
    pub alt_blocks: usize,
    /// How many times set-up (inputs, references, warm-up blocks) runs.
    pub setup_reps: usize,
    /// Traced run: primary blocks alternate untraced / traced.
    pub trace: bool,
}

/// A wall time with the clock it was measured at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall time at the host's reference speed, s: `raw_s × speed`.
    pub s: f64,
    /// Wall time as measured, s (in-thread probe time excluded).
    pub raw_s: f64,
    /// Measured host speed relative to the reference (1.0 = quiet, base clock).
    pub speed: f64,
}

impl Timed {
    fn new(raw_ns: u64, speed: f64) -> Timed {
        let raw_s = raw_ns as f64 / 1e9;
        Timed {
            s: raw_s * speed,
            raw_s,
            speed,
        }
    }
}

/// Timed blocks of one phase.
#[derive(Debug, Default)]
pub struct PhaseStats {
    /// Wall time of each block.
    pub blocks: Vec<Timed>,
    /// Latency of every op, block by block, ms at the reference speed.
    pub op_ms: Vec<Vec<f64>>,
    /// Ops that failed their check.
    pub failed: u64,
}

impl PhaseStats {
    fn push(&mut self, wall: Timed, out: &BlockOut) {
        self.blocks.push(wall);
        self.op_ms.push(
            out.ops
                .iter()
                .map(|&(start, end)| (end - start) as f64 / 1e6 * out.clock.speed(start, end))
                .collect(),
        );
        self.failed += out.failed;
    }

    /// Ops run.
    pub fn attempted(&self) -> u64 {
        self.op_ms.iter().map(Vec::len).sum::<usize>() as u64
    }

    /// Latency percentile `p`: the median over blocks of each block's own.
    pub fn latency_ms(&self, p: f64) -> f64 {
        let per_block: Vec<f64> = self
            .op_ms
            .iter()
            .map(|block| stats::percentile(block, p))
            .collect();
        stats::median(&per_block)
    }

    /// Block walls at the reference clock, s.
    pub fn block_wall_s(&self) -> Vec<f64> {
        self.blocks.iter().map(|b| b.s).collect()
    }

    /// Mean measured host speed over the phase's blocks.
    pub fn mean_speed(&self) -> f64 {
        self.blocks.iter().map(|b| b.speed).sum::<f64>() / self.blocks.len() as f64
    }
}

/// Everything one workload process measured.
pub struct RunResult {
    /// Each set-up repetition (the first counts from process start).
    pub setup: Vec<Timed>,
    /// Untraced primary blocks.
    pub primary: PhaseStats,
    /// Traced primary blocks (empty unless `Plan::trace`).
    pub primary_traced: PhaseStats,
    /// Alt blocks (traced in a trace run).
    pub alt: PhaseStats,
    /// Ops per block of (primary, alt).
    pub ops_per_block: (usize, usize),
    /// Failures during warm-up blocks (counted, never timed).
    pub warmup_failed: u64,
    /// Simulated counts of the workload's program set.
    pub sim: SimCounts,
    /// [`Workload::layer_counts`] (trace runs only).
    pub layer_counts: Vec<(&'static str, f64)>,
    /// Spans of the traced blocks, primary phase first (raw times).
    pub spans: Vec<Span>,
    /// How many of `spans` belong to the primary phase.
    pub primary_spans: usize,
}

fn timed_block<W: Workload>(
    w: &mut W,
    phase: Phase,
    block: usize,
    tracer: &mut Tracer,
    epoch: Instant,
) -> (Timed, BlockOut) {
    let mut out = BlockOut::new(epoch);
    let start_ns = out.clock.now_ns();
    w.run_block(phase, block, tracer, &mut out);
    let end_ns = out.clock.now_ns();
    let wall = Timed::new(
        end_ns - start_ns - out.in_thread_probe_ns,
        out.clock.speed_over(&out.ops),
    );
    (wall, out)
}

/// Run workload `W` under `plan`. `process_start` is when `main` began, so
/// the first set-up repetition includes process start-up.
pub fn run<W: Workload>(plan: Plan, process_start: Instant) -> RunResult {
    let epoch = process_start;
    let mut tracer = Tracer::new(epoch, false);
    let mut setup = Vec::with_capacity(plan.setup_reps);
    let mut warmup_failed = 0;
    let mut workload = None;
    for rep in 0..plan.setup_reps {
        let mut warmups = BlockOut::new(epoch);
        let start_ns = if rep == 0 { 0 } else { warmups.clock.now_ns() };
        let mut w = W::set_up(plan.seed);
        for phase in [Phase::Primary, Phase::Alt] {
            let (_, out) = timed_block(&mut w, phase, 0, &mut tracer, epoch);
            warmups.absorb(out);
        }
        let end_ns = warmups.clock.now_ns();
        // The host speed of the warm-up ops stands for the whole repetition.
        setup.push(Timed::new(
            end_ns - start_ns - warmups.in_thread_probe_ns,
            warmups.clock.speed_over(&warmups.ops),
        ));
        warmup_failed += warmups.failed;
        if rep + 1 == plan.setup_reps {
            workload = Some(w);
        } else {
            w.tear_down();
        }
    }
    let mut w = workload.expect("at least one set-up repetition");
    let ops_per_block = (w.ops_per_block(Phase::Primary), w.ops_per_block(Phase::Alt));

    let mut primary = PhaseStats::default();
    let mut primary_traced = PhaseStats::default();
    let mut alt = PhaseStats::default();
    for block in 1..=plan.primary_blocks {
        // A trace run interleaves the two kinds of block, so drift over the
        // phase lands on both sides of `trace.overhead_share` alike.
        let traced = plan.trace && block % 2 == 0;
        tracer.set_enabled(traced);
        let (wall, out) = timed_block(&mut w, Phase::Primary, block, &mut tracer, epoch);
        if traced {
            &mut primary_traced
        } else {
            &mut primary
        }
        .push(wall, &out);
    }
    let primary_spans = tracer.spans().len();
    tracer.set_enabled(plan.trace);
    for block in 1..=plan.alt_blocks {
        let (wall, out) = timed_block(&mut w, Phase::Alt, block, &mut tracer, epoch);
        alt.push(wall, &out);
    }
    tracer.set_enabled(false);
    let sim = w.sim_counts(plan.trace);
    let layer_counts = if plan.trace {
        w.layer_counts()
    } else {
        Vec::new()
    };
    w.tear_down();
    RunResult {
        setup,
        primary,
        primary_traced,
        alt,
        ops_per_block,
        warmup_failed,
        sim,
        layer_counts,
        spans: tracer.spans().to_vec(),
        primary_spans,
    }
}

/// `VmHWM` of this process in MB (peak resident set).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload whose every third op of the primary phase fails.
    struct Flaky {
        blocks_run: Vec<(Phase, usize)>,
    }

    impl Workload for Flaky {
        const NAME: &'static str = "flaky";
        fn set_up(_seed: u64) -> Self {
            Flaky {
                blocks_run: Vec::new(),
            }
        }
        fn ops_per_block(&self, phase: Phase) -> usize {
            match phase {
                Phase::Primary => 6,
                Phase::Alt => 2,
            }
        }
        fn run_block(
            &mut self,
            phase: Phase,
            block: usize,
            tracer: &mut Tracer,
            out: &mut BlockOut,
        ) {
            self.blocks_run.push((phase, block));
            for i in 0..self.ops_per_block(phase) {
                out.op(tracer, i as u64, |tr| {
                    tr.span("inner", |_| phase == Phase::Alt || i % 3 != 0)
                });
            }
        }
        fn sim_counts(&self, _with_clocks_only: bool) -> SimCounts {
            SimCounts::default()
        }
    }

    #[test]
    fn failed_ops_are_counted_per_phase_and_warm_up_is_untimed() {
        let plan = Plan {
            seed: 1,
            primary_blocks: 3,
            alt_blocks: 2,
            setup_reps: 2,
            trace: false,
        };
        let r = run::<Flaky>(plan, Instant::now());
        assert_eq!(r.setup.len(), 2);
        assert_eq!(r.primary.blocks.len(), 3);
        assert_eq!(r.primary.attempted(), 18);
        assert_eq!(r.primary.failed, 6);
        assert_eq!(r.alt.attempted(), 4);
        assert_eq!(r.alt.failed, 0);
        // Two set-up repetitions, each with one failing warm-up block.
        assert_eq!(r.warmup_failed, 4);
        assert!(r.primary_traced.blocks.is_empty() && r.spans.is_empty());
        // Walls are normalised: reference time = raw time x measured speed.
        let b = r.primary.blocks[0];
        assert!(b.speed > 0.0 && (b.s - b.raw_s * b.speed).abs() < 1e-12);
        // One latency per op, kept block by block.
        assert_eq!(r.primary.op_ms.len(), 3);
        assert!(r.primary.op_ms.iter().all(|block| block.len() == 6));
        assert!(r.primary.latency_ms(50.0) > 0.0);
    }

    #[test]
    fn trace_run_alternates_untraced_and_traced_primary_blocks() {
        let plan = Plan {
            seed: 1,
            primary_blocks: 4,
            alt_blocks: 1,
            setup_reps: 1,
            trace: true,
        };
        let r = run::<Flaky>(plan, Instant::now());
        assert_eq!(r.primary.blocks.len(), 2);
        assert_eq!(r.primary_traced.blocks.len(), 2);
        // Traced: 2 primary blocks × 6 ops + 1 alt block × 2 ops, 2 spans each.
        assert_eq!(r.spans.len(), (12 + 2) * 2);
        assert!(r
            .spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent.is_some()));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 1.0);
    }
}
