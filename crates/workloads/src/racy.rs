//! Deliberately defective micro workloads — the negative controls.
//!
//! [`build`] is detlint's control: every thread hammers a read-modify-write
//! increment on a shared counter **without taking the lock** (the seeded
//! race), while a second counter is incremented correctly under lock 1 and
//! per-thread scratch takes the rest of the traffic. The static lockset
//! analysis must flag exactly the unlocked counter; a detsan
//! happens-before witness confirms it.
//!
//! [`build_deadlock`] is detsan's control: thread 0 nests lock 2 inside
//! lock 3's reverse order relative to every other thread, but the two
//! acquisition phases are separated by a barrier so the program can never
//! actually deadlock — and is perfectly race-free, so the static lockset
//! pass stays silent. Only the runtime lock-order graph sees the 2→3 /
//! 3→2 cycle.

use crate::util::scratch_base;
use crate::{ThreadPlan, Workload};
use detlock_ir::builder::FunctionBuilder;
use detlock_ir::inst::{BinOp, CmpOp};
use detlock_ir::types::BarrierId;
use detlock_ir::Module;

/// Shared word incremented without a lock — the race.
pub const RACY_WORD: i64 = 0;
/// Shared word incremented under lock 1 — the control.
pub const LOCKED_WORD: i64 = 8;

/// Racy-counter parameters.
#[derive(Debug, Clone)]
pub struct RacyParams {
    /// Increments per thread.
    pub iters: i64,
}

impl RacyParams {
    /// Parameters scaled from the defaults.
    pub fn scaled(scale: f64) -> RacyParams {
        RacyParams {
            iters: ((600.0 * scale) as i64).max(50),
        }
    }
}

/// Build the racy workload for `threads` threads.
pub fn build(threads: usize, params: &RacyParams) -> Workload {
    let mut module = Module::new();

    // entry(tid, iters)
    let mut fb = FunctionBuilder::new("racy_thread", 2);
    fb.block("entry");
    let head = fb.create_block("loop.cond");
    let body = fb.create_block("loop.body");
    let done = fb.create_block("done");

    let tid = fb.param(0);
    let iters = fb.param(1);
    let scratch = scratch_base(&mut fb, tid);
    let i = fb.iconst(0);
    let racy = fb.iconst(RACY_WORD);
    let locked = fb.iconst(LOCKED_WORD);
    fb.br(head);

    fb.switch_to(head);
    let c = fb.cmp(CmpOp::Lt, i, iters);
    fb.cond_br(c, body, done);

    fb.switch_to(body);
    // The race: unlocked read-modify-write of the shared counter.
    let v = fb.load(racy, 0);
    let v2 = fb.add(v, 1);
    fb.store(racy, 0, v2);
    // The control: the same pattern done right.
    fb.lock(1i64);
    let w = fb.load(locked, 0);
    let w2 = fb.add(w, 1);
    fb.store(locked, 0, w2);
    fb.unlock(1i64);
    // Private traffic that must stay unflagged.
    fb.store(scratch, 0, w2);
    fb.bin_to(BinOp::Add, i, i, 1);
    fb.br(head);

    fb.switch_to(done);
    fb.ret_void();
    let entry = fb.finish_into(&mut module);

    Workload {
        name: "racy-counter",
        module,
        entries: vec![entry],
        threads: (0..threads)
            .map(|t| ThreadPlan {
                func: entry,
                args: vec![t as i64, params.iters],
            })
            .collect(),
        mem_words: 1 << 16,
    }
}

/// Shared word incremented under *both* locks in the deadlock control.
pub const DEADLOCK_WORD: i64 = 16;

/// Build the deadlock-cycle control: lock-order reversal without a
/// reachable deadlock (a barrier separates the two acquisition phases)
/// and without a data race (the shared word is always under both locks).
pub fn build_deadlock(threads: usize) -> Workload {
    let mut module = Module::new();

    // entry(tid)
    let mut fb = FunctionBuilder::new("deadlock_thread", 1);
    fb.block("entry");
    let fwd = fb.create_block("phase1.fwd");
    let skip1 = fb.create_block("phase1.skip");
    let meet = fb.create_block("meet");
    let rev = fb.create_block("phase2.rev");
    let skip2 = fb.create_block("phase2.skip");
    let done = fb.create_block("done");

    let tid = fb.param(0);
    let scratch = scratch_base(&mut fb, tid);
    let counter = fb.iconst(DEADLOCK_WORD);
    let leader = fb.cmp(CmpOp::Eq, tid, 0);
    fb.cond_br(leader, fwd, skip1);

    // Phase 1: only thread 0 nests lock 3 inside lock 2.
    fb.switch_to(fwd);
    fb.lock(2i64);
    fb.lock(3i64);
    let v = fb.load(counter, 0);
    let v2 = fb.add(v, 1);
    fb.store(counter, 0, v2);
    fb.unlock(3i64);
    fb.unlock(2i64);
    fb.br(meet);

    fb.switch_to(skip1);
    fb.store(scratch, 0, tid);
    fb.br(meet);

    // The barrier makes circular wait unreachable: phase 2's reversed
    // nesting can only start after phase 1 fully drained.
    fb.switch_to(meet);
    fb.barrier(BarrierId(0));
    fb.cond_br(leader, skip2, rev);

    // Phase 2: every other thread nests lock 2 inside lock 3.
    fb.switch_to(rev);
    fb.lock(3i64);
    fb.lock(2i64);
    let w = fb.load(counter, 0);
    let w2 = fb.add(w, 1);
    fb.store(counter, 0, w2);
    fb.unlock(2i64);
    fb.unlock(3i64);
    fb.br(done);

    fb.switch_to(skip2);
    fb.store(scratch, 0, tid);
    fb.br(done);

    fb.switch_to(done);
    fb.ret_void();
    let entry = fb.finish_into(&mut module);

    Workload {
        name: "deadlock-cycle",
        module,
        entries: vec![entry],
        threads: (0..threads)
            .map(|t| ThreadPlan {
                func: entry,
                args: vec![t as i64],
            })
            .collect(),
        mem_words: 1 << 16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::verify::verify_module;

    #[test]
    fn builds_and_verifies() {
        let w = build(4, &RacyParams::scaled(1.0));
        assert!(verify_module(&w.module).is_ok());
        assert_eq!(w.threads.len(), 4);
        assert_eq!(w.name, "racy-counter");
    }

    #[test]
    fn deadlock_control_builds_and_verifies() {
        let w = build_deadlock(4);
        assert!(verify_module(&w.module).is_ok());
        assert_eq!(w.threads.len(), 4);
        assert_eq!(w.name, "deadlock-cycle");
    }
}
