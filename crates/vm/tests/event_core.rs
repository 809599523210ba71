//! Pins for `DetCore`'s round loop, the one place simulated time advances.
//!
//! * [`golden_table`] holds absolute simulated numbers — cycles, every
//!   thread's busy/wait/bump/clock/finish counters, the lock-order hash and
//!   a hash of final memory — for sync-heavy shapes and one compute-bound
//!   shape under every execution mode and scheduler. The constants were
//!   captured on the loop that stepped every cycle individually (the
//!   compute shape's on the loop that ran the arbiter in every event round);
//!   any way of advancing time faster has to reproduce them to the last
//!   digit.
//! * [`lock_order_list_determines_the_hash`] refolds every golden cell's
//!   acquisition list: the hash column can only move with the list or with
//!   `AcquisitionLog`'s fold.
//! * [`checkpoint_interval_one_is_the_stepped_oracle`] and
//!   [`a_cycle_limit_inside_a_skip_cuts_where_the_stepper_does`] compare the
//!   loop against itself: a checkpoint interval of 1 clamps every time
//!   advance to one cycle, so that run is the per-cycle stepper, and every
//!   other interval, the plain run and every cycle-limit cut must agree
//!   with it. The first takes the interpreter's stepped run as the oracle
//!   for both engines, so the threaded engine's dispatches, which run
//!   thread-private ops ahead of their cycle, are held to the per-op
//!   state at every boundary.
//! * [`round_profile_counts_add_up`] holds the loop's own work counters to
//!   the identities between them (rounds, decisions, the threads a round
//!   touches, the threaded engine's run lengths, published ticks and the
//!   loads and stores it ran after a head), and the share of rounds that
//!   skip the arbiter to what the shape predicts.

use detlock_ir::builder::FunctionBuilder;
use detlock_ir::inst::{BinOp, CmpOp, Inst, Operand};
use detlock_ir::types::{BarrierId, FuncId};
use detlock_ir::{Builtin, Module};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument, OptConfig};
use detlock_passes::plan::Placement;
use detlock_shim::acq::AcquisitionLog;
use detlock_shim::hash::Fnv64;
use detlock_vm::machine::{
    CkptControl, ExecMode, Jitter, Machine, MachineConfig, RunOutcome, ThreadSpec,
};
use detlock_vm::{Backend, ChunkParams, Sched};
use detlock_workloads::radiosity::{self, RadiosityParams};
use detlock_workloads::util::{mixed_compute, scratch_base, single_block_leaf};
use detlock_workloads::{micro, racy, Workload};
use std::collections::HashMap;
use std::fmt::Write;

/// A program in both forms the modes need: `source` for the modes that run
/// the uninstrumented binary, `inst` (every optimization, ticks at block
/// start) for `ClocksOnly` and `Det`.
struct Shape {
    name: &'static str,
    source: Module,
    inst: Module,
    specs: Vec<ThreadSpec>,
    mem_words: usize,
}

impl Shape {
    fn new(
        name: &'static str,
        source: Module,
        entries: &[FuncId],
        specs: Vec<ThreadSpec>,
        mem_words: usize,
        cost: &CostModel,
    ) -> Shape {
        let inst = instrument(&source, cost, &OptConfig::all(), Placement::Start, entries).module;
        Shape {
            name,
            source,
            inst,
            specs,
            mem_words,
        }
    }

    fn from_workload(name: &'static str, w: Workload, cost: &CostModel) -> Shape {
        let specs = w
            .threads
            .iter()
            .map(|t| ThreadSpec {
                func: t.func,
                args: t.args.clone(),
            })
            .collect();
        Shape::new(name, w.module, &w.entries, specs, w.mem_words, cost)
    }
}

/// `threads` × `timesteps` × {a sweep of rows, each a block of grid
/// arithmetic and a call; a memset and a memcpy sized by a register, so the
/// instrumented module carries `TickDyn`s; a barrier}, closed by one
/// reduction under a lock. Ocean's shape: about one synchronization per 900
/// instructions, so in nearly every round some thread issues an instruction
/// and none is at a synchronization operation. Thread `t` sweeps `3 + t`
/// rows: the early arrivers sit in the barrier while the last one computes.
fn stencil(threads: usize, timesteps: i64, cost: &CostModel) -> Shape {
    let mut module = Module::new();
    let relax = single_block_leaf(&mut module, "relax".into(), 24);
    let mut fb = FunctionBuilder::new("stencil", 2);
    fb.block("entry");
    let ts_head = fb.create_block("ts.cond");
    let sweep = fb.create_block("sweep");
    let row = fb.create_block("row");
    let halo = fb.create_block("halo");
    let reduce = fb.create_block("reduce");
    let tid = fb.param(0);
    let timesteps_reg = fb.param(1);
    let scratch = scratch_base(&mut fb, tid);
    let rows = fb.add(tid, 3);
    let halo_src = fb.add(scratch, 512);
    let halo_dst = fb.add(scratch, 768);
    let ts = fb.iconst(0);
    let r = fb.iconst(0);
    fb.br(ts_head);

    fb.switch_to(ts_head);
    let c = fb.cmp(CmpOp::Lt, ts, timesteps_reg);
    fb.cond_br(c, sweep, reduce);

    fb.switch_to(sweep);
    fb.mov_to(r, 0i64);
    fb.br(row);

    fb.switch_to(row);
    mixed_compute(&mut fb, 250, scratch);
    fb.call_void(relax, vec![Operand::Reg(scratch)]);
    fb.bin_to(BinOp::Add, r, r, 1);
    let c = fb.cmp(CmpOp::Lt, r, rows);
    fb.cond_br(c, row, halo);

    fb.switch_to(halo);
    let low = fb.bin(BinOp::And, ts, 7);
    let len = fb.add(low, 6);
    let fill = vec![Operand::Reg(halo_src), Operand::Reg(ts), Operand::Reg(len)];
    fb.builtin_void(Builtin::Memset, fill, Some(2));
    let copy = vec![
        Operand::Reg(halo_dst),
        Operand::Reg(halo_src),
        Operand::Reg(len),
    ];
    fb.builtin_void(Builtin::Memcpy, copy, Some(2));
    fb.barrier(BarrierId(0));
    fb.bin_to(BinOp::Add, ts, ts, 1);
    fb.br(ts_head);

    fb.switch_to(reduce);
    fb.lock(1i64);
    let acc = fb.iconst(16);
    let total = fb.load(acc, 0);
    let local = fb.load(scratch, 0);
    let sum = fb.add(total, Operand::Reg(local));
    fb.store(acc, 0, sum);
    fb.unlock(1i64);
    fb.ret_void();
    let entry = fb.finish_into(&mut module);
    let specs = (0..threads)
        .map(|t| ThreadSpec {
            func: entry,
            args: vec![t as i64, timesteps],
        })
        .collect();
    let shape = Shape::new("stencil", module, &[entry], specs, 1 << 13, cost);
    let dynamic_ticks = shape.inst.functions[entry.index()]
        .blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::TickDyn { .. }))
        .count();
    assert_eq!(dynamic_ticks, 2, "one per register-sized builtin");
    shape
}

/// The grid's five programs. Thread counts differ on purpose: 3 is not a
/// power of two, so the service-order rotation `(cycle · φ64 + seed) mod n`
/// takes its general path there. Radiosity comes from the caller: the
/// golden table runs scale 0.05, the stepped runs [`stepped_radiosity`].
fn shapes(cost: &CostModel, radiosity: Workload) -> Vec<Shape> {
    vec![
        Shape::from_workload("lock-hammer", micro::lock_hammer(4, 100), cost),
        Shape::from_workload("barrier-hammer", micro::barrier_hammer(3, 60), cost),
        Shape::from_workload("radiosity", radiosity, cost),
        Shape::from_workload("deadlock-control", racy::build_deadlock(3), cost),
        stencil(3, 5, cost),
    ]
}

/// Words of memory for the stepped runs, which copy the memory image every
/// cycle: every address radiosity's two threads and the three of the
/// deadlock control and of the stencil touch lies below it (queue head 0,
/// elements from 2048, scratch regions from 4096 + 1024·tid), so nothing
/// aliases and the programs run as they do in their own 65 536.
const STEPPED_MEM: usize = 8192;

/// Radiosity cut down for one snapshot per cycle: a short queue of tasks
/// with one subdivision pass per kind instead of seven, which also raises
/// the share of cycles spent at the queue lock.
fn stepped_radiosity() -> Workload {
    let params = RadiosityParams {
        tasks: 12,
        ..RadiosityParams::scaled(0.05)
    };
    radiosity::build_with_iters(2, &params, 1)
}

/// Small chunks, so the store-counter clocks actually move on these short
/// programs (the default 1024-store chunk never overflows here).
const CHUNK: ChunkParams = ChunkParams {
    chunk_size: 8,
    interrupt_cost: 40,
};

/// One grid column: label, mode, policy, and whether the mode runs the
/// instrumented module.
type Config = (&'static str, ExecMode, Sched, bool);

fn configs() -> [Config; 6] {
    [
        ("baseline", ExecMode::Baseline, Sched::Kendo, false),
        ("clocks-only", ExecMode::ClocksOnly, Sched::Kendo, true),
        ("det+kendo", ExecMode::Det, Sched::Kendo, true),
        ("det+chunk", ExecMode::Det, Sched::Chunk(CHUNK), true),
        ("det+dc-batch", ExecMode::Det, Sched::DcBatch, true),
        ("kendo+chunk", ExecMode::Kendo, Sched::Chunk(CHUNK), false),
    ]
}

const SEEDS: [u64; 2] = [1, 31337];

/// The module and machine configuration of one grid cell.
fn cell(
    shape: &Shape,
    (_, mode, scheduler, instrumented): Config,
    seed: u64,
    backend: Backend,
) -> (&Module, MachineConfig) {
    let cfg = MachineConfig {
        mode,
        mem_words: shape.mem_words,
        jitter: Jitter::default().with_seed(seed),
        max_cycles: 50_000_000,
        scheduler,
        backend,
        ..MachineConfig::default()
    };
    let module = if instrumented {
        &shape.inst
    } else {
        &shape.source
    };
    (module, cfg)
}

/// One golden row: shape, config, jitter seed, then total cycles, the
/// lock-order hash, the hash of final memory and, per thread,
/// `[busy_cycles, wait_cycles, lock_clock_bumps, final_clock, finish_cycle]`.
type Golden = (
    &'static str,
    &'static str,
    u64,
    u64,
    u64,
    u64,
    &'static [[u64; 5]],
);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("lock-hammer", "baseline", 1, 3747, 0x26ff021b232249b5, 0x2c9bb52f5446b93a, &[[2956, 650, 0, 0, 3706], [2980, 597, 0, 0, 3677], [2967, 679, 0, 0, 3746], [2952, 643, 0, 0, 3695]]),
    ("lock-hammer", "baseline", 31337, 3786, 0x02c9aa9586968745, 0x2c9bb52f5446b93a, &[[2971, 633, 0, 0, 3704], [2956, 643, 0, 0, 3699], [2952, 733, 0, 0, 3785], [2955, 690, 0, 0, 3745]]),
    ("lock-hammer", "clocks-only", 1, 6340, 0x25a23315da773b39, 0x2c9bb52f5446b93a, &[[4391, 1681, 0, 3306, 6172], [4415, 1468, 0, 3306, 5983], [4401, 1838, 0, 3306, 6339], [4372, 1760, 0, 3306, 6232]]),
    ("lock-hammer", "clocks-only", 31337, 6282, 0x8b19531caaa4f9e5, 0x2c9bb52f5446b93a, &[[4396, 1603, 0, 3306, 6099], [4388, 1778, 0, 3306, 6266], [4379, 1802, 0, 3306, 6281], [4386, 1629, 0, 3306, 6115]]),
    ("lock-hammer", "det+kendo", 1, 59777, 0x7a82d9f1d1ae22c7, 0x2c9bb52f5446b93a, &[[16391, 26814, 396, 3902, 43305], [16415, 26928, 409, 3915, 43443], [16401, 26957, 422, 3928, 43458], [16372, 43304, 3900, 7406, 59776]]),
    ("lock-hammer", "det+kendo", 31337, 59772, 0x7a82d9f1d1ae22c7, 0x2c9bb52f5446b93a, &[[16396, 26790, 396, 3902, 43286], [16388, 26936, 409, 3915, 43424], [16379, 26960, 422, 3928, 43439], [16386, 43285, 3900, 7406, 59771]]),
    ("lock-hammer", "det+chunk", 1, 61829, 0x0f93121131638eb6, 0x2c9bb52f5446b93a, &[[16871, 27906, 588, 4190, 44877], [16895, 28020, 601, 4203, 45015], [16881, 28049, 614, 4216, 45030], [16852, 44876, 4188, 7790, 61828]]),
    ("lock-hammer", "det+chunk", 31337, 61822, 0x0f93121131638eb6, 0x2c9bb52f5446b93a, &[[16876, 27880, 588, 4190, 44856], [16868, 28026, 601, 4203, 44994], [16859, 28050, 614, 4216, 45009], [16866, 44855, 4188, 7790, 61821]]),
    ("lock-hammer", "det+dc-batch", 1, 65941, 0x498125e1261e4c29, 0x2c9bb52f5446b93a, &[[16391, 48963, 0, 3506, 65454], [16415, 49101, 0, 3506, 65616], [16401, 49278, 0, 3506, 65779], [16372, 49468, 0, 3506, 65940]]),
    ("lock-hammer", "det+dc-batch", 31337, 65911, 0x498125e1261e4c29, 0x2c9bb52f5446b93a, &[[16396, 48931, 0, 3506, 65427], [16388, 49100, 0, 3506, 65588], [16379, 49270, 0, 3506, 65749], [16386, 49424, 0, 3506, 65910]]),
    ("lock-hammer", "kendo+chunk", 1, 62161, 0x9f7176a0f321d195, 0x2c9bb52f5446b93a, &[[15436, 0, 0, 296, 15536], [15460, 15531, 296, 592, 31091], [15447, 31086, 592, 888, 46633], [15432, 46628, 888, 1184, 62160]]),
    ("lock-hammer", "kendo+chunk", 31337, 62140, 0x9f7176a0f321d195, 0x2c9bb52f5446b93a, &[[15451, 0, 0, 296, 15551], [15436, 15546, 296, 592, 31082], [15432, 31077, 592, 888, 46609], [15435, 46604, 888, 1184, 62139]]),
    ("barrier-hammer", "baseline", 1, 3274, 0x8c7b7e49bebde0b5, 0x65b2ff4c7b953791, &[[2013, 1080, 0, 0, 3273], [2015, 1078, 0, 0, 3273], [2039, 1054, 0, 0, 3273]]),
    ("barrier-hammer", "baseline", 31337, 3282, 0x0b598843051b5855, 0x65b2ff4c7b953791, &[[2025, 1076, 0, 0, 3281], [2015, 1086, 0, 0, 3281], [2010, 1091, 0, 0, 3281]]),
    ("barrier-hammer", "clocks-only", 1, 5131, 0x90bd80cfd3f97766, 0x65b2ff4c7b953791, &[[3123, 1827, 0, 2348, 5130], [3144, 1805, 0, 2348, 5129], [3131, 1818, 0, 2348, 5129]]),
    ("barrier-hammer", "clocks-only", 31337, 5115, 0x9ef2f1da69689bf2, 0x65b2ff4c7b953791, &[[3135, 1798, 0, 2348, 5113], [3120, 1814, 0, 2348, 5114], [3116, 1818, 0, 2348, 5114]]),
    ("barrier-hammer", "det+kendo", 1, 27966, 0x7a9beafa6207f0f1, 0x65b2ff4c7b953791, &[[10323, 17460, 0, 4088, 27963], [10344, 17440, 780, 4088, 27964], [10331, 17454, 1560, 4088, 27965]]),
    ("barrier-hammer", "det+kendo", 31337, 27955, 0x7a9beafa6207f0f1, 0x65b2ff4c7b953791, &[[10335, 17437, 0, 4088, 27952], [10320, 17453, 780, 4088, 27953], [10316, 17458, 1560, 4088, 27954]]),
    ("barrier-hammer", "det+chunk", 1, 28779, 0xfd638f9df647469b, 0x65b2ff4c7b953791, &[[10603, 17993, 0, 4256, 28776], [10624, 17973, 836, 4256, 28777], [10611, 17987, 1672, 4256, 28778]]),
    ("barrier-hammer", "det+chunk", 31337, 28776, 0xfd638f9df647469b, 0x65b2ff4c7b953791, &[[10615, 17978, 0, 4256, 28773], [10600, 17994, 836, 4256, 28774], [10596, 17999, 1672, 4256, 28775]]),
    ("barrier-hammer", "det+dc-batch", 1, 29596, 0x7fd55cf9d7f47c63, 0x65b2ff4c7b953791, &[[10323, 19092, 0, 2528, 29595], [10344, 19071, 0, 2528, 29595], [10331, 19084, 0, 2528, 29595]]),
    ("barrier-hammer", "det+dc-batch", 31337, 29570, 0x7fd55cf9d7f47c63, 0x65b2ff4c7b953791, &[[10335, 19054, 0, 2528, 29569], [10320, 19069, 0, 2528, 29569], [10316, 19073, 0, 2528, 29569]]),
    ("barrier-hammer", "kendo+chunk", 1, 27909, 0x87673e81f73abc16, 0x65b2ff4c7b953791, &[[9493, 18233, 0, 588, 27906], [9495, 18232, 176, 588, 27907], [9519, 18209, 352, 588, 27908]]),
    ("barrier-hammer", "kendo+chunk", 31337, 27889, 0x87673e81f73abc16, 0x65b2ff4c7b953791, &[[9505, 18201, 0, 588, 27886], [9495, 18212, 176, 588, 27887], [9490, 18218, 352, 588, 27888]]),
    ("radiosity", "baseline", 1, 409199, 0xdb4cc9ec03000645, 0xf957f7156fbe6aa3, &[[408686, 455, 0, 0, 409198], [400670, 959, 0, 0, 401714]]),
    ("radiosity", "baseline", 31337, 408739, 0xdb4cc9ec03000645, 0xf957f7156fbe6aa3, &[[408255, 426, 0, 0, 408738], [400647, 830, 0, 0, 401562]]),
    ("radiosity", "clocks-only", 1, 429585, 0xf897fe8fe5c3f8cc, 0xf957f7156fbe6aa3, &[[428077, 731, 0, 399153, 428855], [428859, 630, 0, 390028, 429584]]),
    ("radiosity", "clocks-only", 31337, 429412, 0xf897fe8fe5c3f8cc, 0xf957f7156fbe6aa3, &[[427643, 1001, 0, 399153, 428691], [428795, 521, 0, 390028, 429411]]),
    ("radiosity", "det+kendo", 1, 450295, 0x35284f1d6d3c88f2, 0x9b332a88462dc29b, &[[437096, 8262, 0, 392033, 445441], [436876, 13359, 1422, 398854, 450294]]),
    ("radiosity", "det+kendo", 31337, 450099, 0x35284f1d6d3c88f2, 0x9b332a88462dc29b, &[[436647, 8530, 0, 392033, 445260], [436793, 13246, 1422, 398854, 450098]]),
    ("radiosity", "det+chunk", 1, 587120, 0xc768e511cff70443, 0x9b332a88462dc29b, &[[569296, 11970, 299, 418772, 581349], [568076, 18984, 1534, 425206, 587119]]),
    ("radiosity", "det+chunk", 31337, 586841, 0xc768e511cff70443, 0x9b332a88462dc29b, &[[568847, 12153, 299, 418772, 581083], [567993, 18788, 1534, 425206, 586840]]),
    ("radiosity", "det+dc-batch", 1, 809438, 0xf00d51e68183d3bd, 0x45fd079683e41601, &[[449334, 359181, 0, 405077, 808586], [424611, 384755, 0, 384388, 809437]]),
    ("radiosity", "det+dc-batch", 31337, 808941, 0xf00d51e68183d3bd, 0x45fd079683e41601, &[[448961, 359054, 0, 405077, 808086], [424580, 384289, 0, 384388, 808940]]),
    ("radiosity", "kendo+chunk", 1, 566809, 0x60e95a63d5c2db84, 0x9b332a88462dc29b, &[[550678, 16069, 84, 26678, 566808], [539091, 24835, 154, 26524, 564007]]),
    ("radiosity", "kendo+chunk", 31337, 566678, 0x60e95a63d5c2db84, 0x9b332a88462dc29b, &[[550260, 16356, 84, 26678, 566677], [539077, 24720, 154, 26524, 563878]]),
    ("deadlock-control", "baseline", 1, 82, 0x65dd5dbda0a95104, 0x71d4a8e60bcf2125, &[[38, 0, 0, 0, 42], [38, 20, 0, 0, 62], [38, 39, 0, 0, 81]]),
    ("deadlock-control", "baseline", 31337, 83, 0x626b15de2d0eaea4, 0x71d4a8e60bcf2125, &[[38, 0, 0, 0, 42], [39, 39, 0, 0, 82], [38, 20, 0, 0, 62]]),
    ("deadlock-control", "clocks-only", 1, 151, 0xe4419c2361e4042e, 0x71d4a8e60bcf2125, &[[71, 0, 0, 47, 75], [69, 41, 0, 45, 114], [68, 78, 0, 45, 150]]),
    ("deadlock-control", "clocks-only", 31337, 153, 0x9f51b90d1536210e, 0x71d4a8e60bcf2125, &[[68, 0, 0, 47, 72], [69, 79, 0, 45, 152], [68, 42, 0, 45, 114]]),
    ("deadlock-control", "det+kendo", 1, 888, 0x15eeddd97d448451, 0x71d4a8e60bcf2125, &[[311, 1, 0, 52, 316], [309, 292, 0, 82, 605], [308, 575, 27, 109, 887]]),
    ("deadlock-control", "det+kendo", 31337, 885, 0x15eeddd97d448451, 0x71d4a8e60bcf2125, &[[308, 1, 0, 52, 313], [309, 289, 0, 82, 602], [308, 572, 27, 109, 884]]),
    ("deadlock-control", "det+chunk", 1, 888, 0x15eeddd97d448451, 0x71d4a8e60bcf2125, &[[311, 1, 0, 52, 316], [309, 292, 0, 82, 605], [308, 575, 27, 109, 887]]),
    ("deadlock-control", "det+chunk", 31337, 885, 0x15eeddd97d448451, 0x71d4a8e60bcf2125, &[[308, 1, 0, 52, 313], [309, 289, 0, 82, 602], [308, 572, 27, 109, 884]]),
    ("deadlock-control", "det+dc-batch", 1, 888, 0x0195f671a082bd03, 0x71d4a8e60bcf2125, &[[311, 3, 0, 52, 318], [309, 290, 0, 82, 603], [308, 575, 0, 82, 887]]),
    ("deadlock-control", "det+dc-batch", 31337, 885, 0x0195f671a082bd03, 0x71d4a8e60bcf2125, &[[308, 3, 0, 52, 315], [309, 287, 0, 82, 600], [308, 572, 0, 82, 884]]),
    ("deadlock-control", "kendo+chunk", 1, 813, 0xd2b86e5384549277, 0x71d4a8e60bcf2125, &[[278, 0, 0, 5, 282], [278, 265, 0, 9, 547], [278, 530, 4, 13, 812]]),
    ("deadlock-control", "kendo+chunk", 31337, 814, 0xd2b86e5384549277, 0x71d4a8e60bcf2125, &[[278, 0, 0, 5, 282], [279, 265, 0, 9, 548], [278, 531, 4, 13, 813]]),
    ("stencil", "baseline", 1, 12080, 0xa361ab77e387d267, 0xce65d69ae7b46220, &[[7367, 4675, 0, 0, 12053], [9722, 2346, 0, 0, 12079], [12043, 12, 0, 0, 12066]]),
    ("stencil", "baseline", 31337, 12075, 0x4cf48e28a5e23b37, 0xce65d69ae7b46220, &[[7360, 4677, 0, 0, 12048], [9714, 2336, 0, 0, 12061], [12038, 25, 0, 0, 12074]]),
    ("stencil", "clocks-only", 1, 12236, 0x206d5d5cb4427ff9, 0xce65d69ae7b46220, &[[7497, 4709, 0, 7235, 12217], [9855, 2331, 0, 9545, 12197], [12187, 37, 0, 11855, 12235]]),
    ("stencil", "clocks-only", 31337, 12230, 0x26e4c7566c0a8e79, 0xce65d69ae7b46220, &[[7484, 4697, 0, 7235, 12192], [9855, 2344, 0, 9545, 12210], [12182, 36, 0, 11855, 12229]]),
    ("stencil", "det+kendo", 1, 12620, 0xc4f96342d4116c56, 0xce65d69ae7b46220, &[[7617, 4703, 0, 11862, 12331], [9975, 2489, 16, 11878, 12475], [12307, 301, 32, 11894, 12619]]),
    ("stencil", "det+kendo", 31337, 12616, 0xc4f96342d4116c56, 0xce65d69ae7b46220, &[[7604, 4712, 0, 11862, 12327], [9975, 2485, 16, 11878, 12471], [12302, 302, 32, 11894, 12615]]),
    ("stencil", "det+chunk", 1, 18381, 0x82bfea43c4d549d5, 0xce65d69ae7b46220, &[[11097, 6984, 0, 13086, 18092], [14575, 3650, 16, 13102, 18236], [18067, 302, 32, 13118, 18380]]),
    ("stencil", "det+chunk", 31337, 18375, 0x82bfea43c4d549d5, 0xce65d69ae7b46220, &[[11084, 6991, 0, 13086, 18086], [14575, 3644, 16, 13102, 18230], [18062, 301, 32, 13118, 18374]]),
    ("stencil", "det+dc-batch", 1, 12607, 0x10628e87051a7f86, 0xce65d69ae7b46220, &[[7617, 4692, 0, 11862, 12320], [9975, 2477, 0, 11862, 12463], [12307, 288, 0, 11862, 12606]]),
    ("stencil", "det+dc-batch", 31337, 12603, 0x10628e87051a7f86, 0xce65d69ae7b46220, &[[7604, 4701, 0, 11862, 12316], [9975, 2473, 0, 11862, 12459], [12302, 289, 0, 11862, 12602]]),
    ("stencil", "kendo+chunk", 1, 18210, 0xb1bbf5472a6c77a7, 0xce65d69ae7b46220, &[[10967, 6955, 0, 1231, 17933], [14442, 3618, 2, 1233, 18071], [17923, 275, 4, 1235, 18209]]),
    ("stencil", "kendo+chunk", 31337, 18206, 0xb1bbf5472a6c77a7, 0xce65d69ae7b46220, &[[10960, 6958, 0, 1231, 17929], [14434, 3622, 2, 1233, 18067], [17918, 276, 4, 1235, 18205]]),
];

#[test]
fn golden_table() {
    let cost = CostModel::default();
    let mut actual = String::new();
    let mut rows = GOLDEN.iter();
    let mut mismatches = Vec::new();
    let radiosity = radiosity::build(2, &RadiosityParams::scaled(0.05));
    for shape in shapes(&cost, radiosity) {
        for config in configs() {
            for seed in SEEDS {
                let run = |backend| {
                    let (module, cfg) = cell(&shape, config, seed, backend);
                    let (m, mem, hit) =
                        Machine::new(module, &cost, &shape.specs, cfg).run_with_memory();
                    assert!(!hit, "{} / {} hit the cycle limit", shape.name, config.0);
                    let threads: Vec<[u64; 5]> = m
                        .per_thread
                        .iter()
                        .map(|t| {
                            [
                                t.busy_cycles,
                                t.wait_cycles,
                                t.lock_clock_bumps,
                                t.final_clock,
                                t.finish_cycle,
                            ]
                        })
                        .collect();
                    let mut words = Fnv64::new();
                    mem.iter().for_each(|&w| words.write_u64(w as u64));
                    (m.cycles, m.lock_order_hash, words.finish(), threads)
                };
                let got = run(Backend::Interp);
                let ctx = format!("{} / {} / seed {seed}", shape.name, config.0);
                assert_eq!(got, run(Backend::Threaded), "backends disagree: {ctx}");
                writeln!(
                    actual,
                    "    ({:?}, {:?}, {seed}, {}, {:#018x}, {:#018x}, &{:?}),",
                    shape.name, config.0, got.0, got.1, got.2, got.3
                )
                .unwrap();
                let pinned = rows.next().is_some_and(|g| {
                    (g.0, g.1, g.2) == (shape.name, config.0, seed)
                        && (g.3, g.4, g.5, g.6) == (got.0, got.1, got.2, &got.3[..])
                });
                if !pinned {
                    mismatches.push(ctx);
                }
            }
        }
    }
    assert!(
        mismatches.is_empty() && rows.next().is_none(),
        "simulated numbers moved in {mismatches:?}; the table as this build computes it:\n{actual}"
    );
}

/// The recorded acquisition list determines `lock_order_hash`: in every
/// golden cell the list holds every acquisition, and folding it again
/// gives the hash the run reported. So a golden hash can only move when
/// the list or the fold does.
#[test]
fn lock_order_list_determines_the_hash() {
    let cost = CostModel::default();
    let radiosity = radiosity::build(2, &RadiosityParams::scaled(0.05));
    for shape in shapes(&cost, radiosity) {
        for config in configs() {
            for seed in SEEDS {
                let (module, cfg) = cell(&shape, config, seed, Backend::Threaded);
                let (m, _) = Machine::new(module, &cost, &shape.specs, cfg).run();
                let ctx = format!("{} / {} / seed {seed}", shape.name, config.0);
                assert_eq!(m.lock_order.len() as u64, m.lock_acquires(), "{ctx}");
                let mut log = AcquisitionLog::new(0);
                for &a in &m.lock_order {
                    log.push(a);
                }
                assert_eq!(log.hash(), m.lock_order_hash, "{ctx}");
            }
        }
    }
}

/// Run one cell with a snapshot every `every` cycles. Returns the outcome
/// and the deep digest at every boundary that `keep` selects.
fn stream(
    module: &Module,
    cost: &CostModel,
    specs: &[ThreadSpec],
    cfg: &MachineConfig,
    every: u64,
    keep: impl Fn(u64) -> bool,
) -> (RunOutcome, HashMap<u64, u64>) {
    let mut digests = HashMap::new();
    let outcome =
        Machine::new(module, cost, specs, cfg.clone()).run_with_checkpoints(every, &mut |ckpt| {
            if keep(ckpt.cycle()) {
                digests.insert(ckpt.cycle(), ckpt.digest());
            }
            CkptControl::Continue
        });
    (outcome, digests)
}

/// Intervals the stepped run is compared against: one that cuts most
/// multi-cycle advances short and one that almost never does.
const INTERVALS: [u64; 2] = [7, 1000];

/// The oracle is the interpreter's interval-1 run: both engines, at every
/// interval, must match its state at each of their boundaries. Each
/// engine is held to the interpreter's stream and not only to its own,
/// because an engine that moved state across a boundary would agree with
/// itself at every interval. The threaded engine is also run at interval
/// 1, where each dispatch is a single op.
#[test]
fn checkpoint_interval_one_is_the_stepped_oracle() {
    let cost = CostModel::default();
    let keep = |c: u64| INTERVALS.iter().any(|&e| c.is_multiple_of(e));
    for mut shape in shapes(&cost, stepped_radiosity()) {
        shape.mem_words = shape.mem_words.min(STEPPED_MEM);
        for config in configs() {
            for seed in SEEDS {
                let (module, mut cfg) = cell(&shape, config, seed, Backend::Interp);
                // Radiosity's shadow memory is a map entry per touched
                // word, cloned by every snapshot: with it, interval 1
                // costs ten times the rest of this test.
                cfg.sanitize = shape.name != "radiosity";
                let (stepped, oracle) = stream(module, &cost, &shape.specs, &cfg, 1, keep);
                for (backend, intervals) in [
                    (Backend::Interp, &INTERVALS[..]),
                    (Backend::Threaded, &[1, INTERVALS[0], INTERVALS[1]][..]),
                ] {
                    let ctx = format!("{} / {} / seed {seed} / {backend:?}", shape.name, config.0);
                    let cfg = MachineConfig {
                        backend,
                        ..cfg.clone()
                    };
                    for &every in intervals {
                        let (outcome, digests) =
                            stream(module, &cost, &shape.specs, &cfg, every, keep);
                        assert_eq!(outcome, stepped, "every {every} vs every 1: {ctx}");
                        for (cycle, digest) in digests {
                            assert_eq!(
                                Some(&digest),
                                oracle.get(&cycle),
                                "state at cycle {cycle}, every {every} vs the interpreter's \
                                 every 1: {ctx}"
                            );
                        }
                    }
                    let (metrics, memory, hit_limit, sanitizer) =
                        Machine::new(module, &cost, &shape.specs, cfg).run_sanitized();
                    let plain = RunOutcome::Finished {
                        metrics,
                        memory,
                        hit_limit,
                        sanitizer,
                    };
                    assert_eq!(plain, stepped, "run() vs every 1: {ctx}");
                }
            }
        }
    }
}

/// The cycle limits the sweep below cuts at.
const LIMITS: std::ops::Range<u64> = 150..400;

/// A run of consecutive cycle limits is certain to put some of them
/// strictly inside a multi-cycle advance: on the hammers the 124-cycle
/// countdown after every deterministic grant alone covers most cycles. On
/// every shape it also puts one exactly on an instruction issue that ends
/// such an advance (`issue == stop`: the advance lands on the limit and
/// nothing may execute there), one a cycle before it and one a cycle after;
/// the same three cuts are then made by a checkpoint interval.
#[test]
fn a_cycle_limit_inside_a_skip_cuts_where_the_stepper_does() {
    let cost = CostModel::default();
    let shapes = shapes(&cost, stepped_radiosity());
    let cut = ["lock-hammer", "barrier-hammer", "stencil"];
    for shape in shapes.iter().filter(|s| cut.contains(&s.name)) {
        for config in configs() {
            let (module, cfg) = cell(shape, config, 1, Backend::Threaded);
            // Instructions issued before each limit.
            let mut issued = Vec::new();
            for limit in LIMITS {
                let ctx = format!("{} / {} / limit {limit}", shape.name, config.0);
                let mut cfg = cfg.clone();
                cfg.max_cycles = limit;
                let (stepped, _) = stream(module, &cost, &shape.specs, &cfg, 1, |_| false);
                let (metrics, memory, hit_limit, sanitizer) =
                    Machine::new(module, &cost, &shape.specs, cfg).run_sanitized();
                assert!(hit_limit, "limit did not cut: {ctx}");
                assert_eq!(metrics.cycles, limit, "{ctx}");
                issued.push(metrics.instructions());
                let plain = RunOutcome::Finished {
                    metrics,
                    memory,
                    hit_limit,
                    sanitizer,
                };
                assert_eq!(plain, stepped, "run() vs every 1: {ctx}");
            }
            // A cycle in which a thread issues right after one in which
            // none did: the limits above include it and both neighbours.
            let ctx = format!("{} / {}", shape.name, config.0);
            let landing = issued
                .windows(3)
                .position(|w| w[0] == w[1] && w[1] < w[2])
                .unwrap_or_else(|| panic!("no limit fell on an issue after a skip: {ctx}"));
            let issue = LIMITS.start + 1 + landing as u64;
            let mut cfg = cfg.clone();
            cfg.max_cycles = 3 * issue + issue / 2;
            let intervals = [issue - 1, issue, issue + 1];
            let (stepped, oracle) = stream(module, &cost, &shape.specs, &cfg, 1, |c| {
                intervals.iter().any(|&e| c.is_multiple_of(e))
            });
            for every in intervals {
                let (outcome, digests) = stream(module, &cost, &shape.specs, &cfg, every, |_| true);
                assert_eq!(outcome, stepped, "every {every} vs every 1: {ctx}");
                assert_eq!(digests.len(), 3, "every {every}: {ctx}");
                for (cycle, digest) in digests {
                    assert_eq!(
                        Some(&digest),
                        oracle.get(&cycle),
                        "state at cycle {cycle}, every {every} vs every 1: {ctx}"
                    );
                }
            }
        }
    }
}

/// `RoundProfile` is exact counts, so it is tested by equality: every cycle
/// is an event round or was advanced in closed form, the policy is asked
/// exactly in the rounds that are not quiet, every issue is one dispatch
/// of the threaded engine and one instruction of the interpreter, and a
/// round touches only the threads that act — never a parked or finished
/// one, and under a turn policy at most one that does not issue.
#[test]
fn round_profile_counts_add_up() {
    let cost = CostModel::default();
    for shape in shapes(&cost, stepped_radiosity()) {
        for config in configs() {
            for backend in [Backend::Interp, Backend::Threaded] {
                let ctx = format!("{} / {} / {backend:?}", shape.name, config.0);
                let (module, cfg) = cell(&shape, config, 1, backend);
                let (mode, policy) = (cfg.mode, cfg.scheduler);
                let (metrics, hit, p) =
                    Machine::new(module, &cost, &shape.specs, cfg).run_profiled();
                assert!(!hit, "{ctx}");
                assert!(p.quiet_rounds <= p.event_rounds, "{ctx}");
                assert_eq!(p.event_rounds + p.skipped_cycles, metrics.cycles, "{ctx}");
                let deterministic = matches!(mode, ExecMode::Det | ExecMode::Kendo);
                let asked = if deterministic {
                    p.event_rounds - p.quiet_rounds
                } else {
                    0
                };
                assert_eq!(p.decide_calls, asked, "{ctx}");
                // Every round acts: a thread issues, or the decision lets
                // one synchronize.
                let [issues, lock, barrier, parked, exit, done] = p.steps;
                assert!(
                    issues + lock + barrier + exit >= p.event_rounds,
                    "{ctx}: {p:?}"
                );
                assert_eq!((parked, done), (0, 0), "{ctx}: {p:?}");
                if deterministic && policy != Sched::DcBatch {
                    assert!(
                        lock + barrier + exit <= p.event_rounds - p.quiet_rounds,
                        "{ctx}: {p:?}"
                    );
                }
                // Only the threaded engine runs ops after a dispatch's head,
                // and only a deterministic mode's arbiter reads the clocks
                // they move: an executing tick's, or a chunk policy's at a
                // store.
                let publications = (p.ticks_published, p.publication_stops);
                if backend == Backend::Interp || !deterministic {
                    assert_eq!(publications, (0, 0), "{ctx}");
                }
                if mode == ExecMode::Kendo {
                    assert_eq!(p.ticks_published, 0, "{ctx}");
                }
                assert!(p.ticks_published <= metrics.ticks_executed(), "{ctx}");
                match backend {
                    Backend::Interp => {
                        assert_eq!(issues, metrics.instructions(), "{ctx}");
                        assert_eq!((p.fused_runs, p.gate_cuts), ([0; 4], 0), "{ctx}");
                        assert_eq!(p.memops_run_ahead, 0, "{ctx}");
                    }
                    Backend::Threaded => {
                        assert_eq!(p.fused_runs.iter().sum::<u64>(), issues, "{ctx}");
                        assert!(issues <= metrics.instructions(), "{ctx}");
                        assert!(
                            p.memops_run_ahead <= metrics.instructions() - issues,
                            "{ctx}: {p:?}"
                        );
                    }
                }
                if config.0 == "det+kendo" {
                    // Ocean's shape idles the arbiter: it is asked in under
                    // 1 % of the cycles. On the hammer some thread waits
                    // for the lock in most rounds.
                    match shape.name {
                        "stencil" => {
                            let arbitrated = p.event_rounds - p.quiet_rounds;
                            assert!(100 * arbitrated < metrics.cycles, "{ctx}: {p:?}")
                        }
                        "lock-hammer" => {
                            assert!(2 * p.quiet_rounds < p.event_rounds, "{ctx}: {p:?}");
                            // Its lock holder's load and store run while
                            // every other thread waits on the lock.
                            if backend == Backend::Threaded {
                                assert!(p.memops_run_ahead > 0, "{ctx}: {p:?}");
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}
