//! The run state and its snapshot format.
//!
//! `RunState` is everything a run mutates. `DetCore` embeds one and a
//! [`Checkpoint`] wraps one, so a snapshot is a clone, a resume is a move,
//! and what is checkpointed is decided in one place: that struct's field
//! list. [`Checkpoint::digest`] and [`Checkpoint::approx_bytes`] destructure
//! it without `..` — a field added later does not compile until both have
//! said what they do with it.

use crate::machine::{ExecMode, MachineConfig, ThreadSpec};
use crate::metrics::ThreadMetrics;
use crate::sanitizer::Sanitizer;
use crate::sched::Sched;
use detlock_ir::module::Module;
use detlock_ir::types::{BlockId, FuncId, Reg};
use detlock_passes::cost::CostModel;
use detlock_shim::acq::AcquisitionLog;
use detlock_shim::hash::Fnv64;
use detlock_shim::rng::SmallRng;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Status {
    Ready,
    AcquiringLock(i64),
    AcquiringBarrier(u32),
    InBarrier(u32),
    ExitWait,
    Done,
}

impl Status {
    /// `(tag, payload)`: the status as two words, for checkpoint digests;
    /// the tag also indexes [`crate::machine::RoundProfile::steps`].
    pub(crate) fn code(self) -> (u64, u64) {
        match self {
            Status::Ready => (0, 0),
            Status::AcquiringLock(id) => (1, id as u64),
            Status::AcquiringBarrier(id) => (2, id as u64),
            Status::InBarrier(id) => (3, id as u64),
            Status::ExitWait => (4, 0),
            Status::Done => (5, 0),
        }
    }
}

/// A call-stack frame. `Copy` so the hot loop reads it off the stack
/// without cloning a heap structure per step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    pub(crate) func: FuncId,
    pub(crate) block: BlockId,
    pub(crate) ip: usize,
    pub(crate) reg_base: usize,
    pub(crate) ret_dst: Option<Reg>,
}

impl Frame {
    /// The `(func, block, ip)` site the sanitizer reports for the
    /// instruction this frame points at.
    #[inline]
    pub(crate) fn site(&self) -> (u32, u32, u32) {
        (
            self.func.index() as u32,
            self.block.index() as u32,
            self.ip as u32,
        )
    }
}

#[derive(Clone)]
pub(crate) struct Thread {
    pub(crate) status: Status,
    pub(crate) frames: Vec<Frame>,
    pub(crate) regs: Vec<i64>,
    pub(crate) clock: u64,
    pub(crate) pending: u64,
    pub(crate) rng: SmallRng,
    pub(crate) m: ThreadMetrics,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct LockState {
    pub(crate) held_by: Option<u32>,
    pub(crate) release_clock: Option<u64>,
}

#[derive(Debug, Default, Clone)]
pub(crate) struct BarrierState {
    pub(crate) arrivals: Vec<u32>,
}

/// Everything a run mutates, and nothing else. What the core rebuilds
/// from the config (chunk knobs, the memory mask, scratch buffers) or that
/// describes the simulator and not the run (the round profile) stays out.
#[derive(Clone)]
pub(crate) struct RunState {
    pub(crate) cycle: u64,
    pub(crate) threads: Vec<Thread>,
    pub(crate) mem: Vec<i64>,
    /// Ordered maps, not hashed ones: a contended acquisition looks its
    /// lock up four to six times (the default hasher on that path was an
    /// eighth of `vm_sync`'s op time), and the digest folds the tables in
    /// id order. Ids can come from registers, so they are not dense.
    pub(crate) locks: BTreeMap<i64, LockState>,
    pub(crate) barriers: BTreeMap<u32, BarrierState>,
    /// The acquisitions so far: their hash, and the first
    /// `lock_order_limit` of them.
    pub(crate) log: AcquisitionLog,
    pub(crate) done_count: usize,
    /// Happens-before sanitizer (`None` unless the config sanitizes: the
    /// disabled path costs one null check per hook site). State, so that a
    /// resumed run reports the same races as run-from-zero.
    pub(crate) san: Option<Box<Sanitizer>>,
}

impl RunState {
    /// The state at cycle 0: one `Ready` thread per spec, arguments in its
    /// entry function's parameter registers, zeroed memory, empty tables.
    pub(crate) fn new(module: &Module, specs: &[ThreadSpec], cfg: &MachineConfig) -> RunState {
        assert!(!specs.is_empty(), "need at least one thread");
        let threads = specs
            .iter()
            .enumerate()
            .map(|(tid, spec)| {
                let func = &module.functions[spec.func.index()];
                assert!(
                    spec.args.len() == func.params as usize,
                    "thread {tid}: entry {} expects {} args, got {}",
                    func.name,
                    func.params,
                    spec.args.len()
                );
                let mut regs = vec![0i64; func.num_regs as usize];
                regs[..spec.args.len()].copy_from_slice(&spec.args);
                Thread {
                    status: Status::Ready,
                    frames: vec![Frame {
                        func: spec.func,
                        block: BlockId(0),
                        ip: 0,
                        reg_base: 0,
                        ret_dst: None,
                    }],
                    regs,
                    clock: 0,
                    pending: 0,
                    rng: SmallRng::seed_from_u64(
                        cfg.jitter.seed ^ (tid as u64).wrapping_mul(0x9e3779b97f4a7c15),
                    ),
                    m: ThreadMetrics::default(),
                }
            })
            .collect();
        RunState {
            cycle: 0,
            threads,
            mem: vec![0i64; cfg.mem_words.max(1)],
            locks: BTreeMap::new(),
            barriers: BTreeMap::new(),
            log: AcquisitionLog::new(cfg.lock_order_limit),
            done_count: 0,
            san: cfg.sanitize.then(|| Box::new(Sanitizer::new(specs.len()))),
        }
    }
}

/// A deterministic snapshot of a running [`Machine`].
///
/// Captures *all* mutable machine state — per-thread frames, registers,
/// logical clocks, pending acquisitions, jitter-RNG positions, the shared
/// memory image, lock/barrier tables, and the acquisition log — so that
/// [`Machine::resume`] continues the run exactly where the snapshot was
/// taken. Because snapshots are pure reads placed at round boundaries of
/// the min-clock arbiter (see [`Machine::run_with_checkpoints`]),
/// checkpoint placement cannot perturb the schedule: a resumed run
/// produces byte-identical final metrics (and hence receipts) to the
/// uninterrupted run.
///
/// A checkpoint is tied to the (module, config, cost model, thread count)
/// it was taken under via a [`fingerprint`](Checkpoint::fingerprint); `resume` refuses a
/// mismatched fingerprint rather than silently diverging. It is plain data
/// (`Clone + Send`), so a serving layer can hand it to another worker —
/// cross-shard migration is sound exactly when both shards compiled the
/// byte-identical module, which the fingerprint asserts structurally.
/// The execution [`Backend`](crate::Backend) is *not* part of the
/// fingerprint: both engines execute the one schedule bit-identically, so
/// a snapshot taken under one resumes under the other (the
/// checkpoint/restore tests pin this down). The [`Sched`] is: two policies
/// continue a run with genuinely different schedules, so a different one
/// is refused with a typed [`ResumeError::SchedulerMismatch`].
///
/// [`Machine`]: crate::machine::Machine
/// [`Machine::resume`]: crate::machine::Machine::resume
/// [`Machine::run_with_checkpoints`]: crate::machine::Machine::run_with_checkpoints
#[derive(Clone)]
pub struct Checkpoint {
    pub(crate) fingerprint: u64,
    pub(crate) sched: Sched,
    pub(crate) state: RunState,
}

impl Checkpoint {
    /// The cycle at which this snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Threads that had already finished when the snapshot was taken.
    pub fn done_count(&self) -> usize {
        self.state.done_count
    }

    /// The (module, config, cost model, thread count) fingerprint this
    /// checkpoint is valid against.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The scheduling policy the snapshot was taken under — the only
    /// policy it may resume on.
    pub fn scheduler(&self) -> Sched {
        self.sched
    }

    /// Approximate heap footprint in bytes (memory image + registers),
    /// for capacity accounting in serving layers.
    pub fn approx_bytes(&self) -> usize {
        let RunState {
            threads,
            mem,
            // Small next to the two above: the tables hold a handful of
            // entries, the log keeps at most `lock_order_limit` records.
            cycle: _,
            locks: _,
            barriers: _,
            log: _,
            done_count: _,
            san: _,
        } = &self.state;
        let regs: usize = threads.iter().map(|t| t.regs.len()).sum();
        (mem.len() + regs) * std::mem::size_of::<i64>()
    }

    /// A deep digest of the snapshot: two runs of the same program that
    /// agree on this value at a given cycle are in *identical* machine
    /// states (same frames, registers, clocks, memory, lock tables, RNG
    /// positions) and will therefore evolve identically. Used by tests to
    /// assert state convergence, not just trace-hash convergence.
    /// Compared between runs of one build only; never stored.
    pub fn digest(&self) -> u64 {
        let RunState {
            cycle,
            threads,
            mem,
            locks,
            barriers,
            // A record of past grants: its hash covers every one of them.
            log,
            done_count,
            san,
        } = &self.state;
        let mut h = Fnv64::new();
        h.write_u64(self.fingerprint);
        for w in self.sched.fingerprint_words() {
            h.write_u64(w);
        }
        h.write_u64(*cycle);
        h.write_u64(*done_count as u64);
        h.write_u64(log.hash());
        // Memory is mostly zero: fold the nonzero words with their
        // indices, led by their count. Finding them is a cheap scan; hashing
        // every byte of the store was most of a snapshot's digest.
        let nonzero = || mem.iter().enumerate().filter(|&(_, &w)| w != 0);
        h.write_u64(nonzero().count() as u64);
        for (i, &w) in nonzero() {
            h.write_u64(i as u64);
            h.write_u64(w as u64);
        }
        for th in threads {
            let Thread {
                status,
                frames,
                regs,
                clock,
                pending,
                rng,
                // Counters the run reports, not state it evolves from,
                // but for `retired_stores`: its remainder modulo the chunk
                // size decides the next chunk-policy clock jump.
                m,
            } = th;
            let (tag, payload) = status.code();
            h.write_u64(tag);
            h.write_u64(payload);
            h.write_u64(*clock);
            h.write_u64(*pending);
            h.write_u64(m.retired_stores);
            for s in rng.state() {
                h.write_u64(s);
            }
            for &r in regs {
                h.write_u64(r as u64);
            }
            for f in frames {
                h.write_u64(f.func.index() as u64);
                h.write_u64(f.block.index() as u64);
                h.write_u64(f.ip as u64);
                h.write_u64(f.reg_base as u64);
                h.write_u64(f.ret_dst.map(|r| r.index() as u64 + 1).unwrap_or(0));
            }
        }
        for (&id, st) in locks {
            h.write_u64(id as u64);
            h.write_u64(st.held_by.map(|t| t as u64 + 1).unwrap_or(0));
            h.write_u64(st.release_clock.map(|c| c + 1).unwrap_or(0));
        }
        for (&id, bar) in barriers {
            h.write_u64(id as u64);
            for &a in &bar.arrivals {
                h.write_u64(a as u64);
            }
        }
        match san {
            Some(s) => {
                h.write_u64(1);
                h.write_u64(s.digest());
            }
            None => h.write_u64(0),
        }
        h.finish()
    }
}

/// Structural fingerprint binding a checkpoint to what it may resume on:
/// execution mode, scheduling policy and jitter model with their
/// parameters, memory geometry, cost-relevant config, the [`CostModel`]
/// the machine charges instructions by, thread count and the module's code
/// (every instruction and terminator with its operands and tick amounts;
/// not names) — all of which two shards that compiled the same plan-cache
/// entry agree on. Free: the backend (see [`Checkpoint`]) and the cycle
/// limit. Every field is named, so a new one fails to compile until
/// classified.
pub(crate) fn config_fingerprint(
    cfg: &MachineConfig,
    cost: &CostModel,
    module: &Module,
    n_threads: usize,
) -> u64 {
    let MachineConfig {
        mode,
        mem_words,
        jitter,
        max_cycles: _,
        lock_order_limit,
        det_event_cost,
        sanitize,
        backend: _,
        scheduler,
    } = cfg;
    let mut h = Fnv64::new();
    h.write_u64(cost.fingerprint());
    h.write_u64(match mode {
        ExecMode::Baseline => 0,
        ExecMode::ClocksOnly => 1,
        ExecMode::Det => 2,
        ExecMode::Kendo => 3,
    });
    for v in scheduler.fingerprint_words() {
        h.write_u64(v);
    }
    h.write_u64(jitter.seed);
    h.write_u64(jitter.prob_num as u64);
    h.write_u64(jitter.prob_den as u64);
    h.write_u64(jitter.max_extra);
    h.write_u64(*mem_words as u64);
    h.write_u64(*det_event_cost);
    h.write_u64(*lock_order_limit as u64);
    h.write_u64(n_threads as u64);
    h.write_u64(*sanitize as u64);
    h.write_u64(module.functions.len() as u64);
    let mut code = DefaultHasher::new();
    for f in &module.functions {
        code.write_u32(f.num_regs);
        code.write_usize(f.blocks.len());
        for b in &f.blocks {
            b.insts.hash(&mut code);
            b.term.hash(&mut code);
        }
    }
    h.write_u64(code.finish());
    h.finish()
}

/// Why [`Machine::resume`](crate::machine::Machine::resume) refused a
/// checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeError {
    /// The checkpoint was taken under a different scheduling policy (or
    /// the same policy with different parameters). The scheduler *defines*
    /// the schedule: resuming under another would continue the run with a
    /// different lock order than it started with, silently breaking
    /// receipt and trace-hash stability.
    SchedulerMismatch {
        /// The policy the checkpoint was taken under.
        checkpoint: Sched,
        /// The policy the resuming config requested.
        requested: Sched,
    },
    /// The structural fingerprints disagree: different module, config,
    /// cost model or thread count.
    ConfigMismatch {
        /// The checkpoint's fingerprint.
        checkpoint: u64,
        /// The fingerprint of the config/module offered for resume.
        machine: u64,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::SchedulerMismatch {
                checkpoint,
                requested,
            } => write!(
                f,
                "checkpoint was taken under scheduler '{checkpoint}' but resume requested \
                 '{requested}' (schedulers define the schedule and are not interchangeable)"
            ),
            ResumeError::ConfigMismatch {
                checkpoint,
                machine,
            } => write!(
                f,
                "checkpoint fingerprint mismatch: checkpoint 0x{checkpoint:016x} vs machine \
                 0x{machine:016x} (different module, config, cost model or thread count)"
            ),
        }
    }
}

impl std::error::Error for ResumeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{CkptControl, Machine};
    use crate::sched::ChunkParams;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::{BinOp, CmpOp};
    use detlock_passes::cost::CostModel;

    /// `retired_stores` is state under a chunk policy: two snapshots that
    /// differ in nothing else resume to different clocks, so the digest
    /// has to tell them apart.
    #[test]
    fn digest_covers_the_store_counter_that_steers_chunk_clocks() {
        const CHUNK: u64 = 64;
        // Each thread retires 2·CHUNK − 1 stores, one short of a second
        // counter overflow, then takes a lock.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("worker", 1);
        fb.block("entry");
        let head = fb.create_block("head");
        let body = fb.create_block("body");
        let done = fb.create_block("done");
        let addr = fb.param(0);
        let i = fb.iconst(0);
        fb.br(head);
        fb.switch_to(head);
        let c = fb.cmp(CmpOp::Lt, i, (2 * CHUNK - 1) as i64);
        fb.cond_br(c, body, done);
        fb.switch_to(body);
        fb.store(addr, 0, i);
        fb.bin_to(BinOp::Add, i, i, 1);
        fb.br(head);
        fb.switch_to(done);
        fb.lock(1i64);
        fb.unlock(1i64);
        fb.ret_void();
        let func = fb.finish_into(&mut m);
        let cost = CostModel::default();
        let specs: Vec<ThreadSpec> = (0..2)
            .map(|t| ThreadSpec {
                func,
                args: vec![t],
            })
            .collect();
        let cfg = MachineConfig {
            mode: ExecMode::Kendo,
            scheduler: Sched::Chunk(ChunkParams {
                chunk_size: CHUNK,
                interrupt_cost: 10,
            }),
            mem_words: 16,
            ..MachineConfig::default()
        };

        let mut taken = None;
        Machine::new(&m, &cost, &specs, cfg.clone()).run_with_checkpoints(100, &mut |c| {
            taken = Some(c.clone());
            CkptControl::Abort
        });
        let ckpt = taken.expect("the run outlasts one checkpoint interval");
        let stores = ckpt.state.threads[0].m.retired_stores;
        assert!(
            0 < stores && stores < CHUNK - 1,
            "snapshot is mid-chunk: {stores}"
        );
        // One more store on the counter and the thread's last store
        // overflows it a second time.
        let mut bumped = ckpt.clone();
        bumped.state.threads[0].m.retired_stores += 1;
        assert_ne!(ckpt.digest(), bumped.digest());

        let final_clock = |c: &Checkpoint| {
            let (metrics, hit) = Machine::resume(&m, &cost, cfg.clone(), c).unwrap().run();
            assert!(!hit);
            metrics.per_thread[0].final_clock
        };
        assert_eq!(final_clock(&ckpt) + CHUNK, final_clock(&bumped));
    }

    /// The memory fold names every nonzero word by its index: a value moved
    /// to another word, or cleared, is a different state.
    #[test]
    fn digest_covers_where_each_nonzero_word_lives() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("worker", 0);
        fb.block("entry");
        fb.compute(8);
        fb.ret_void();
        let func = fb.finish_into(&mut m);
        let specs = [ThreadSpec { func, args: vec![] }];
        let cfg = MachineConfig {
            mem_words: 16,
            ..MachineConfig::default()
        };
        let mut taken = None;
        Machine::new(&m, &CostModel::default(), &specs, cfg).run_with_checkpoints(1, &mut |c| {
            taken = Some(c.clone());
            CkptControl::Abort
        });
        let mut base = taken.expect("the run outlasts one cycle");
        base.state.mem[3] = 7;
        let digest_after = |edit: fn(&mut Vec<i64>)| {
            let mut c = base.clone();
            edit(&mut c.state.mem);
            c.digest()
        };
        assert_ne!(base.digest(), digest_after(|mem| mem.swap(3, 4)));
        assert_ne!(base.digest(), digest_after(|mem| mem[3] = 0));
    }
}
