//! The privacy proof: which load and store sites touch only words that no
//! other thread can ever touch (DESIGN.md §15, "Fused dispatch").
//!
//! Such an access needs no arbitration, so the threaded engine runs it
//! after a dispatch's head even while another thread is ready. The proof is
//! an interval analysis per thread, seeded with that thread's
//! [`ThreadSpec`] args, over a compact form of the module that keeps only
//! the registers feeding an address or a memset/memcpy operand:
//!
//! - the entry frame's registers `[..args.len()]` hold the args and every
//!   other register starts at 0, as `RunState::new` and a call's zeroed
//!   register file make them; a callee's params are the join of the args
//!   at every call the thread can reach;
//! - const and mov are exact, and exact ⊕ exact goes through
//!   [`BinOp::apply`]; add, sub and mul work on bounds with `checked_*`,
//!   any possible wrap giving ⊤; `and` with a non-negative operand gives
//!   `[0, that operand's hi]`; `rem` by a positive constant, `min` and
//!   `max` keep bounds; cmp gives `[0, 1]`; load, call and builtin results
//!   and every other op give ⊤; after two joins that moved a block's
//!   state, the registers a further join moves widen to ⊤;
//! - a site's words are its address plus offset: a bounded interval inside
//!   memory stays as it is, anything else is all of memory (the address
//!   wraps); memset and memcpy touch `[base, base + len_hi)` for the
//!   destination and, for memcpy, the source, `len` clamped to the memory.
//!
//! Site *s* is private for thread *t* iff *t*'s words at *s* are disjoint
//! from every word any other thread can touch, by load, store or builtin.
//! With more than 64 threads nothing is private. The proof runs in
//! `Machine::new`, every thread's fixpoint in one walk with a lane per
//! thread, and its state is dropped before the run.

use crate::machine::ThreadSpec;
use detlock_ir::inst::{BinOp, Inst, Operand};
use detlock_ir::module::Module;
use detlock_ir::types::Reg;
use detlock_ir::Builtin;

/// A closed interval of values; `lo > hi` is the empty one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: i64,
    hi: i64,
}

impl Iv {
    const TOP: Iv = Iv {
        lo: i64::MIN,
        hi: i64::MAX,
    };
    const EMPTY: Iv = Iv { lo: 1, hi: 0 };

    fn exact(v: i64) -> Iv {
        Iv { lo: v, hi: v }
    }

    fn is_empty(self) -> bool {
        self.lo > self.hi
    }

    fn single(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    fn from_bounds(lo: Option<i64>, hi: Option<i64>) -> Iv {
        match (lo, hi) {
            (Some(lo), Some(hi)) => Iv { lo, hi },
            _ => Iv::TOP,
        }
    }

    /// The values `op` can give on operands from `a` and `b`.
    fn bin(op: BinOp, a: Iv, b: Iv) -> Iv {
        if let (Some(x), Some(y)) = (a.single(), b.single()) {
            return Iv::exact(op.apply(x, y));
        }
        match op {
            BinOp::Add => Iv::from_bounds(a.lo.checked_add(b.lo), a.hi.checked_add(b.hi)),
            BinOp::Sub => Iv::from_bounds(a.lo.checked_sub(b.hi), a.hi.checked_sub(b.lo)),
            // A product is bilinear, so its extremes are at the corners.
            BinOp::Mul => {
                let corners = [
                    a.lo.checked_mul(b.lo),
                    a.lo.checked_mul(b.hi),
                    a.hi.checked_mul(b.lo),
                    a.hi.checked_mul(b.hi),
                ];
                match corners {
                    [Some(p), Some(q), Some(r), Some(s)] => Iv {
                        lo: p.min(q).min(r).min(s),
                        hi: p.max(q).max(r).max(s),
                    },
                    _ => Iv::TOP,
                }
            }
            // A non-negative operand clears the sign bit and bounds the rest.
            BinOp::And => match (a.lo >= 0, b.lo >= 0) {
                (true, true) => Iv {
                    lo: 0,
                    hi: a.hi.min(b.hi),
                },
                (true, false) => Iv { lo: 0, hi: a.hi },
                (false, true) => Iv { lo: 0, hi: b.hi },
                (false, false) => Iv::TOP,
            },
            // Truncated remainder: the sign of `a`, less than `c` in size.
            BinOp::Rem => match b.single() {
                Some(c) if c > 0 && a.lo >= 0 && a.hi < c => a,
                Some(c) if c > 0 => Iv {
                    lo: a.lo.min(0).max(1 - c),
                    hi: a.hi.max(0).min(c - 1),
                },
                _ => Iv::TOP,
            },
            BinOp::Min => Iv {
                lo: a.lo.min(b.lo),
                hi: a.hi.min(b.hi),
            },
            BinOp::Max => Iv {
                lo: a.lo.max(b.lo),
                hi: a.hi.max(b.hi),
            },
            _ => Iv::TOP,
        }
    }

    /// The words `self + offset .. + len` touch in a memory of `mem`
    /// words: as they are when they lie inside it, all of it otherwise.
    fn words(self, offset: i64, len: i64, mem: i64) -> Iv {
        let lo = self.lo.checked_add(offset);
        let hi = self
            .hi
            .checked_add(offset)
            .and_then(|h| h.checked_add(len - 1));
        match (lo, hi) {
            (Some(lo), Some(hi)) if lo >= 0 && hi < mem => Iv { lo, hi },
            _ => Iv { lo: 0, hi: mem - 1 },
        }
    }
}

/// A value the compact program reads: a tracked register's slot or an
/// immediate.
#[derive(Debug, Clone, Copy)]
enum Val {
    Slot(u32),
    Imm(i64),
}

/// One step of a function's compact program: only what moves a tracked
/// register, touches memory or enters a function that does. Registers are
/// slots: a function numbers the ones it tracks from 0.
#[derive(Debug)]
enum Step {
    Set(u32, Iv),
    Mov(u32, Val),
    Bin(BinOp, u32, Val, Val),
    /// A load or store: site `site` touches `slot + offset`.
    Access {
        site: u32,
        slot: u32,
        offset: i64,
    },
    /// A memset or memcpy operand: `fill` touches `[base, base + len)`.
    Fill {
        fill: u32,
        base: Val,
        len: Val,
    },
    /// A call: `call_args[args..][..n]` are `(callee slot, value)` for the
    /// params the callee tracks.
    Call {
        func: u32,
        args: u32,
        n: u32,
    },
}

/// A function's compact program: block `b` runs `steps[step_ends[b - 1]
/// .. step_ends[b]]` and flows to `succs[succ_ends[b - 1] .. succ_ends[b]]`.
/// No blocks at all: nothing in the function touches memory.
#[derive(Default)]
struct Proc {
    /// Registers tracked.
    slots: usize,
    /// Where the function's blocks start among the module's.
    first_block: usize,
    /// Where its first block's state starts among the module's.
    first_state: usize,
    steps: Vec<Step>,
    step_ends: Vec<u32>,
    succs: Vec<u32>,
    succ_ends: Vec<u32>,
}

impl Proc {
    fn block(&self, b: usize) -> (&[Step], &[u32]) {
        let at = |ends: &[u32], b: usize| if b == 0 { 0 } else { ends[b - 1] as usize };
        let steps = &self.steps[at(&self.step_ends, b)..self.step_ends[b] as usize];
        let succs = &self.succs[at(&self.succ_ends, b)..self.succ_ends[b] as usize];
        (steps, succs)
    }
}

/// After this many joins that moved a block's entry state, the registers
/// a further join moves go to ⊤.
const WIDEN_AFTER: u8 = 2;

/// What the proof found: the load and store sites each thread alone
/// touches.
pub(crate) struct Privacy {
    /// `(function, op index, thread mask)` for every site private to some
    /// thread; the op index is the lowering's flat one.
    pub(crate) sites: Vec<(u32, u32, u64)>,
    /// Per thread: how many sites it reaches are private to it.
    pub(crate) counts: Vec<u32>,
}

/// The privacy proof for `threads` running `module` on `mem_words` words
/// of memory (see the module docs).
pub(crate) fn prove(module: &Module, threads: &[ThreadSpec], mem_words: usize) -> Privacy {
    let n = threads.len();
    let mut privacy = Privacy {
        sites: Vec::new(),
        counts: vec![0; n],
    };
    if n > 64 {
        return privacy;
    }
    let program = Program::new(module);
    // Per site and per fill operand, each thread's words in its lane.
    let (sites, fills) = program.reach(threads, mem_words as i64);
    let mut owners = Owners::new(mem_words, &sites, &fills);
    for lanes in sites.chunks(n).chain(fills.chunks(n)) {
        for (t, &w) in lanes.iter().enumerate() {
            owners.add(t, w);
        }
    }
    for (&(func, op), lanes) in program.site_ops.iter().zip(sites.chunks(n)) {
        let mut mask = 0;
        for (t, &w) in lanes.iter().enumerate() {
            if owners.only(t, w) {
                mask |= 1u64 << t;
                privacy.counts[t] += 1;
            }
        }
        if mask != 0 {
            privacy.sites.push((func, op, mask));
        }
    }
    privacy
}

/// Who touches each word, over buckets of `1 << shift` words up to the
/// highest word touched: at most 2^16 buckets, so in a larger memory a
/// bucket stands for every word in it.
struct Owners {
    shift: u32,
    /// The highest word touched.
    top: i64,
    /// Per bucket: 0 untouched, `t + 1` touched by thread `t` alone,
    /// [`Owners::SHARED`] touched by two or more threads.
    of: Vec<u8>,
    /// The threads with an unbounded access, whose words are left out of
    /// `of`: they touch every word.
    everywhere: u64,
}

impl Owners {
    const SHARED: u8 = u8::MAX;

    fn new(mem_words: usize, sites: &[Iv], fills: &[Iv]) -> Owners {
        let shift = mem_words
            .div_ceil(1 << 16)
            .next_power_of_two()
            .trailing_zeros();
        let touched = sites.iter().chain(fills).filter(|w| !w.is_empty());
        let top = touched.map(|w| w.hi).max().unwrap_or(0);
        Owners {
            shift,
            top,
            of: vec![0; ((top as usize) >> shift) + 1],
            everywhere: 0,
        }
    }

    /// The buckets `w` covers.
    fn buckets(&self, w: Iv) -> std::ops::RangeInclusive<usize> {
        ((w.lo as usize) >> self.shift)..=((w.hi as usize) >> self.shift)
    }

    /// Thread `t` touches the words `w`.
    fn add(&mut self, t: usize, w: Iv) {
        if w.is_empty() {
            return;
        }
        if w.lo == 0 && w.hi >= self.top {
            // All of memory: a bit stands for every such access.
            self.everywhere |= 1 << t;
            return;
        }
        for b in self.buckets(w) {
            let of = &mut self.of[b];
            *of = match *of {
                0 => t as u8 + 1,
                o if o == t as u8 + 1 => o,
                _ => Owners::SHARED,
            };
        }
    }

    /// Whether thread `t` alone touches every word of `w`, one of its
    /// accesses: no other thread touches everywhere, and the buckets hold
    /// `t` alone.
    fn only(&self, t: usize, w: Iv) -> bool {
        !w.is_empty()
            && self.everywhere & !(1 << t) == 0
            && self.buckets(w).all(|b| self.of[b] == t as u8 + 1)
    }
}

/// The module's compact form, shared by every thread's analysis.
struct Program {
    procs: Vec<Proc>,
    /// Per function, per register: its slot, or `u32::MAX` when untracked.
    slot_of: Vec<Vec<u32>>,
    /// The `(callee slot, value)` pairs of every call step.
    call_args: Vec<(u32, Val)>,
    /// Per load/store site: its `(function, flat op index)`.
    site_ops: Vec<(u32, u32)>,
    fills: usize,
    blocks: usize,
    states: usize,
}

/// The memory operands of `builtin`'s `args`, as
/// [`DetCore::apply_builtin`](crate::core::DetCore::apply_builtin) reads
/// them: the base it writes, the one it reads, and the length.
fn fill_operands(
    builtin: Builtin,
    args: &[Operand],
    size_arg: Option<usize>,
) -> Option<(Operand, Option<Operand>, Operand)> {
    let arg = |i: usize| args.get(i).copied().unwrap_or(Operand::Imm(0));
    let len = size_arg.map_or(Operand::Imm(0), arg);
    match builtin {
        Builtin::Memset => Some((arg(0), None, len)),
        Builtin::Memcpy => Some((arg(0), Some(arg(1)), len)),
        _ => None,
    }
}

/// The relevance sweep of one function (see [`Program::new`]).
#[derive(Default)]
struct Sweep {
    /// Per register: its slot once it feeds memory.
    slot_of: Vec<u32>,
    slots: u32,
    /// Per register: whether the sweep passed a def of it before it fed
    /// memory.
    defined: Vec<bool>,
    /// Marking a register `defined` holds needs another sweep.
    again: bool,
    /// Some register was marked.
    changed: bool,
}

impl Sweep {
    /// A def of `r`: its slot, while it feeds memory.
    fn def(&mut self, r: Reg) -> Option<u32> {
        match self.slot_of[r.index()] {
            u32::MAX => {
                self.defined[r.index()] = true;
                None
            }
            s => Some(s),
        }
    }

    /// A use of `o` by a step that feeds memory.
    fn feed(&mut self, o: Operand) -> Val {
        match o {
            Operand::Reg(r) => {
                let slot = &mut self.slot_of[r.index()];
                if *slot == u32::MAX {
                    *slot = self.slots;
                    self.slots += 1;
                    self.changed = true;
                    self.again |= self.defined[r.index()];
                }
                Val::Slot(*slot)
            }
            Operand::Imm(v) => Val::Imm(v),
        }
    }
}

impl Program {
    /// Which registers feed an address or a memset/memcpy operand is a
    /// backward closure through mov, the ALU and call arguments. One
    /// reverse sweep per function, callees first, settles it and records
    /// the function's steps, unless the sweep marks a register whose def
    /// it passed, or a call reads a function not swept yet; then the
    /// function, or every function, is swept again.
    fn new(module: &Module) -> Program {
        let funcs = &module.functions;
        let mut program = Program {
            procs: Vec::with_capacity(funcs.len()),
            slot_of: funcs
                .iter()
                .map(|f| vec![u32::MAX; f.num_regs as usize])
                .collect(),
            call_args: Vec::new(),
            site_ops: Vec::new(),
            fills: 0,
            blocks: 0,
            states: 0,
        };
        let (mut sweep, mut counts) = (Sweep::default(), Vec::new());
        loop {
            program.procs.clear();
            program.call_args.clear();
            program.site_ops.clear();
            program.fills = 0;
            let (mut changed, mut forward) = (false, false);
            for (fi, f) in funcs.iter().enumerate() {
                sweep.slot_of = std::mem::take(&mut program.slot_of[fi]);
                sweep.slots = sweep.slot_of.iter().filter(|&&s| s != u32::MAX).count() as u32;
                sweep.again = true;
                sweep.changed = false;
                let mut p = Proc::default();
                let marks = (
                    program.call_args.len(),
                    program.site_ops.len(),
                    program.fills,
                );
                while sweep.again {
                    sweep.again = false;
                    sweep.defined.clear();
                    sweep.defined.resize(f.num_regs as usize, false);
                    p.steps.clear();
                    counts.clear();
                    program.call_args.truncate(marks.0);
                    program.site_ops.truncate(marks.1);
                    program.fills = marks.2;
                    let mut op: u32 = f.blocks.iter().map(|b| b.insts.len() as u32 + 1).sum();
                    for b in f.blocks.iter().rev() {
                        let before = p.steps.len();
                        op -= 1;
                        for inst in b.insts.iter().rev() {
                            op -= 1;
                            // The def first: it happens after the uses.
                            let dst = inst.def().and_then(|d| sweep.def(d));
                            let step = match (inst, dst) {
                                (Inst::Const { value, .. }, Some(d)) => {
                                    Step::Set(d, Iv::exact(*value))
                                }
                                (Inst::Mov { src, .. }, Some(d)) => Step::Mov(d, sweep.feed(*src)),
                                (Inst::Bin { op, lhs, rhs, .. }, Some(d)) => {
                                    let l = sweep.feed(Operand::Reg(*lhs));
                                    Step::Bin(*op, d, l, sweep.feed(*rhs))
                                }
                                (Inst::Cmp { .. }, Some(d)) => Step::Set(d, Iv { lo: 0, hi: 1 }),
                                (
                                    Inst::Load { addr, offset, .. }
                                    | Inst::Store { addr, offset, .. },
                                    _,
                                ) => {
                                    if let Some(d) = dst {
                                        p.steps.push(Step::Set(d, Iv::TOP));
                                    }
                                    program.site_ops.push((fi as u32, op));
                                    let Val::Slot(slot) = sweep.feed(Operand::Reg(*addr)) else {
                                        unreachable!("an address is a register");
                                    };
                                    Step::Access {
                                        site: program.site_ops.len() as u32 - 1,
                                        slot,
                                        offset: *offset,
                                    }
                                }
                                (Inst::Call { func, args, .. }, _) => {
                                    if let Some(d) = dst {
                                        p.steps.push(Step::Set(d, Iv::TOP));
                                    }
                                    let g = func.index();
                                    forward |= g >= fi;
                                    // A function swept without blocks
                                    // touches no memory; one not swept yet
                                    // may.
                                    if g < fi && program.procs[g].step_ends.is_empty() {
                                        continue;
                                    }
                                    let start = program.call_args.len();
                                    for (i, &a) in args.iter().enumerate() {
                                        let params = if g == fi {
                                            &sweep.slot_of
                                        } else {
                                            &program.slot_of[g]
                                        };
                                        match params.get(i) {
                                            Some(&slot) if slot != u32::MAX => {
                                                let v = sweep.feed(a);
                                                program.call_args.push((slot, v));
                                            }
                                            _ => {}
                                        }
                                    }
                                    Step::Call {
                                        func: g as u32,
                                        args: start as u32,
                                        n: (program.call_args.len() - start) as u32,
                                    }
                                }
                                (
                                    Inst::CallBuiltin {
                                        builtin,
                                        args,
                                        size_arg,
                                        ..
                                    },
                                    _,
                                ) => {
                                    if let Some(d) = dst {
                                        p.steps.push(Step::Set(d, Iv::TOP));
                                    }
                                    let Some((to, from, len)) =
                                        fill_operands(*builtin, args, *size_arg)
                                    else {
                                        continue;
                                    };
                                    let len = sweep.feed(len);
                                    for base in from.into_iter().chain([to]) {
                                        let base = sweep.feed(base);
                                        let fill = program.fills as u32;
                                        program.fills += 1;
                                        p.steps.push(Step::Fill { fill, base, len });
                                    }
                                    continue;
                                }
                                _ => continue,
                            };
                            p.steps.push(step);
                        }
                        counts.push((p.steps.len() - before) as u32);
                    }
                }
                changed |= sweep.changed;
                p.steps.reverse();
                p.slots = sweep.slots as usize;
                program.slot_of[fi] = std::mem::take(&mut sweep.slot_of);
                let touches = p.steps.iter().any(|s| {
                    matches!(
                        s,
                        Step::Access { .. } | Step::Fill { .. } | Step::Call { .. }
                    )
                });
                // When no op moves a register the proof follows, every
                // block the thread reaches has the entry state: the
                // function is one block of all its steps.
                let moves = p
                    .steps
                    .iter()
                    .any(|s| matches!(s, Step::Set(..) | Step::Mov(..) | Step::Bin(..)));
                if !touches {
                    p.steps.clear();
                } else if moves {
                    let mut end = 0;
                    p.step_ends = counts
                        .iter()
                        .rev()
                        .map(|&c| {
                            end += c;
                            end
                        })
                        .collect();
                    for b in &f.blocks {
                        p.succs
                            .extend(b.term.successors().map(|s| s.index() as u32));
                        p.succ_ends.push(p.succs.len() as u32);
                    }
                } else {
                    p.step_ends = vec![p.steps.len() as u32];
                    p.succ_ends = vec![0];
                }
                p.first_block = program.blocks;
                p.first_state = program.states;
                program.blocks += p.step_ends.len();
                program.states += p.step_ends.len() * p.slots;
                program.procs.push(p);
            }
            if !(forward && changed) {
                return program;
            }
            program.blocks = 0;
            program.states = 0;
        }
    }

    /// Every thread's fixpoint at once, thread `t` in lane `t`: per site
    /// and per fill operand, the words each thread can touch there (empty
    /// where it never gets), `lanes` values each.
    fn reach(&self, threads: &[ThreadSpec], mem: i64) -> (Vec<Iv>, Vec<Iv>) {
        let lanes = threads.len();
        let mut sites = vec![Iv::EMPTY; self.site_ops.len() * lanes];
        let mut fills = vec![Iv::EMPTY; self.fills * lanes];
        let mut walk = Walk {
            procs: &self.procs,
            lanes,
            state: vec![Iv::exact(0); self.states * lanes],
            reached: vec![0; self.blocks],
            joins: vec![0; self.blocks],
            queued: vec![false; self.blocks],
            work: Vec::new(),
        };
        let mut cur = Vec::new();
        // Each entry frame: args in the first registers, zeros elsewhere.
        for (t, spec) in threads.iter().enumerate() {
            let p = &self.procs[spec.func.index()];
            if p.step_ends.is_empty() {
                continue;
            }
            cur.clear();
            cur.resize(p.slots * lanes, Iv::exact(0));
            for (&a, &s) in spec.args.iter().zip(&self.slot_of[spec.func.index()]) {
                if s != u32::MAX {
                    cur[s as usize * lanes + t] = Iv::exact(a);
                }
            }
            walk.join(spec.func.index(), 0, &cur, 1 << t);
        }
        let mut callee_in = Vec::new();
        while let Some((f, b)) = walk.work.pop() {
            let (f, b) = (f as usize, b as usize);
            let p = &self.procs[f];
            let g = p.first_block + b;
            walk.queued[g] = false;
            let mask = walk.reached[g];
            let at = (p.first_state + b * p.slots) * lanes;
            cur.clear();
            cur.extend_from_slice(&walk.state[at..at + p.slots * lanes]);
            let get = |cur: &[Iv], v: Val, l: usize| match v {
                Val::Slot(s) => cur[s as usize * lanes + l],
                Val::Imm(v) => Iv::exact(v),
            };
            let (steps, succs) = p.block(b);
            for step in steps {
                let reached = (0..lanes).filter(|l| mask >> l & 1 == 1);
                match *step {
                    Step::Set(d, v) => cur[d as usize * lanes..][..lanes].fill(v),
                    Step::Mov(d, v) => {
                        for l in 0..lanes {
                            cur[d as usize * lanes + l] = get(&cur, v, l);
                        }
                    }
                    Step::Bin(op, d, x, y) => {
                        for l in 0..lanes {
                            cur[d as usize * lanes + l] =
                                Iv::bin(op, get(&cur, x, l), get(&cur, y, l));
                        }
                    }
                    Step::Access { site, slot, offset } => {
                        for l in reached {
                            let w = cur[slot as usize * lanes + l].words(offset, 1, mem);
                            sites[site as usize * lanes + l] = w;
                        }
                    }
                    Step::Fill { fill, base, len } => {
                        for l in reached {
                            let len = get(&cur, len, l);
                            fills[fill as usize * lanes + l] = if len.hi <= 0 {
                                Iv::EMPTY
                            } else {
                                get(&cur, base, l).words(0, len.hi.min(mem), mem)
                            };
                        }
                    }
                    // A function not swept when its caller was may turn
                    // out to touch no memory.
                    Step::Call { func, .. } if self.procs[func as usize].step_ends.is_empty() => {}
                    Step::Call { func, args, n } => {
                        callee_in.clear();
                        callee_in.resize(self.procs[func as usize].slots * lanes, Iv::exact(0));
                        for &(s, v) in &self.call_args[args as usize..][..n as usize] {
                            for l in 0..lanes {
                                callee_in[s as usize * lanes + l] = get(&cur, v, l);
                            }
                        }
                        walk.join(func as usize, 0, &callee_in, mask);
                    }
                }
            }
            for &s in succs {
                walk.join(f, s as usize, &cur, mask);
            }
        }
        (sites, fills)
    }
}

/// The threads' fixpoint in progress: per block of the module, its entry
/// state (`lanes` values a slot), the lanes that reach it, how often a
/// join moved it and whether it waits in `work`.
struct Walk<'p> {
    procs: &'p [Proc],
    lanes: usize,
    state: Vec<Iv>,
    reached: Vec<u64>,
    joins: Vec<u8>,
    queued: Vec<bool>,
    work: Vec<(u32, u32)>,
}

impl Walk<'_> {
    /// Join the lanes `mask` of `src` into the entry state of block `b` of
    /// function `f`, and queue the block if that moved it.
    fn join(&mut self, f: usize, b: usize, src: &[Iv], mask: u64) {
        let p = &self.procs[f];
        let g = p.first_block + b;
        let lanes = self.lanes;
        let at = (p.first_state + b * p.slots) * lanes;
        let dst = &mut self.state[at..at + p.slots * lanes];
        let fresh = mask & !self.reached[g];
        let widen = self.joins[g] >= WIDEN_AFTER;
        let mut moved = false;
        let lane_bits = (0..lanes).map(|l| 1u64 << l).cycle();
        for ((d, &s), lane) in dst.iter_mut().zip(src).zip(lane_bits) {
            if fresh & lane != 0 {
                *d = s;
            } else if mask & lane != 0 && (s.lo < d.lo || s.hi > d.hi) {
                *d = if widen {
                    Iv::TOP
                } else {
                    Iv {
                        lo: d.lo.min(s.lo),
                        hi: d.hi.max(s.hi),
                    }
                };
                moved = true;
            }
        }
        self.joins[g] = self.joins[g].saturating_add(u8::from(moved));
        self.reached[g] |= mask;
        if (moved || fresh != 0) && !self.queued[g] {
            self.queued[g] = true;
            self.work.push((f as u32, b as u32));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::builder::FunctionBuilder;
    use detlock_ir::inst::CmpOp;
    use detlock_ir::types::FuncId;

    const MEM: usize = 1 << 16;

    /// Each load and store of `m`, in function and op order, with the
    /// threads it is private to.
    fn masks(m: &Module, threads: &[(FuncId, Vec<i64>)], mem: usize) -> Vec<u64> {
        let specs: Vec<ThreadSpec> = threads
            .iter()
            .map(|(func, args)| ThreadSpec {
                func: *func,
                args: args.clone(),
            })
            .collect();
        let privacy = prove(m, &specs, mem);
        let mut all = Vec::new();
        for (fi, f) in m.functions.iter().enumerate() {
            let mut op = 0;
            for b in &f.blocks {
                for inst in &b.insts {
                    if matches!(inst, Inst::Load { .. } | Inst::Store { .. }) {
                        let mask = privacy
                            .sites
                            .iter()
                            .find(|&&(func, at, _)| (func, at) == (fi as u32, op))
                            .map_or(0, |&(_, _, mask)| mask);
                        all.push(mask);
                    }
                    op += 1;
                }
                op += 1;
            }
        }
        all
    }

    /// `tid * 1024 + 4096`: the thread's scratch base, from its first arg.
    fn base(fb: &mut FunctionBuilder) -> detlock_ir::types::Reg {
        let tid = fb.param(0);
        let off = fb.mul(tid, 1024);
        fb.add(off, 4096)
    }

    /// `entry(tid)` with `body` at its scratch base, run by `tids`.
    fn per_thread(
        tids: &[i64],
        body: impl FnOnce(&mut FunctionBuilder, detlock_ir::types::Reg),
    ) -> Vec<u64> {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("entry", 1);
        fb.block("entry");
        let b = base(&mut fb);
        body(&mut fb, b);
        fb.ret_void();
        let f = fb.finish_into(&mut m);
        let threads: Vec<_> = tids.iter().map(|&t| (f, vec![t])).collect();
        masks(&m, &threads, MEM)
    }

    #[test]
    fn own_scratch_words_are_private_and_the_next_threads_base_is_not() {
        // Thread t stores at 4096 + 1024t and at 1024 words on, where
        // thread t + 1 stores first: only thread 0's first store and the
        // last thread's second one are private.
        let got = per_thread(&[0, 1], |fb, b| {
            fb.store(b, 0, 1i64);
            fb.store(b, 1024, 1i64);
        });
        assert_eq!(got, [0b01, 0b10]);
        let got = per_thread(&[0, 1, 2], |fb, b| {
            fb.store(b, 0, 1i64);
            fb.store(b, 1024, 1i64);
        });
        assert_eq!(got, [0b001, 0b100]);
        // A load bounded by a non-negative mask stays in its region.
        let got = per_thread(&[0, 1, 2], |fb, b| {
            let x = fb.load(b, 0);
            let i = fb.bin(BinOp::And, x, 1023);
            let a = fb.add(b, i);
            fb.store(a, 0, 1i64);
        });
        assert_eq!(got, [0b111, 0b111]);
    }

    #[test]
    fn an_address_from_a_load_makes_every_other_site_shared() {
        // Thread 0 stores where a loaded word points; thread 1 only at its
        // base, which that store may hit. Thread 0's load stays its own.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("wild", 1);
        fb.block("entry");
        let b = base(&mut fb);
        let p = fb.load(b, 0);
        fb.store(p, 0, 1i64);
        fb.ret_void();
        let wild = fb.finish_into(&mut m);
        let mut fb = FunctionBuilder::new("tame", 1);
        fb.block("entry");
        let b = base(&mut fb);
        fb.store(b, 0, 1i64);
        fb.ret_void();
        let tame = fb.finish_into(&mut m);
        let got = masks(&m, &[(wild, vec![0]), (tame, vec![1])], MEM);
        assert_eq!(got, [0b01, 0, 0]);
        // Masked with a negative operand it is still anywhere: a multiple
        // of 4096, 8192 among them.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("aligned", 1);
        fb.block("entry");
        let b = base(&mut fb);
        let x = fb.load(b, 0);
        let p = fb.bin(BinOp::And, x, -4096);
        fb.store(p, 0, 1i64);
        fb.ret_void();
        let aligned = fb.finish_into(&mut m);
        let mut fb = FunctionBuilder::new("fixed", 0);
        fb.block("entry");
        let b = fb.iconst(8192);
        fb.store(b, 0, 1i64);
        fb.ret_void();
        let fixed = fb.finish_into(&mut m);
        let got = masks(&m, &[(aligned, vec![0]), (fixed, vec![])], MEM);
        assert_eq!(got, [0b01, 0, 0]);
    }

    #[test]
    fn memset_and_memcpy_reach_other_threads_words() {
        use detlock_ir::Builtin;
        // Thread 0 clears 2048 words from its base, over thread 1's; its
        // own base stays its own.
        let got = per_thread(&[0, 1], |fb, b| {
            let tid = fb.param(0);
            let c = fb.cmp(CmpOp::Eq, tid, 0);
            let (clear, store) = (fb.create_block("clear"), fb.create_block("store"));
            fb.cond_br(c, clear, store);
            fb.switch_to(clear);
            let len = fb.iconst(2048);
            fb.builtin_void(
                Builtin::Memset,
                vec![b.into(), 0.into(), len.into()],
                Some(2),
            );
            fb.br(store);
            fb.switch_to(store);
            fb.store(b, 0, 1i64);
        });
        assert_eq!(got, [0b01]);
        // Thread 0 copies 8 words from thread 1's base into its own.
        let got = per_thread(&[0, 1], |fb, b| {
            let tid = fb.param(0);
            let c = fb.cmp(CmpOp::Eq, tid, 0);
            let (copy, store) = (fb.create_block("copy"), fb.create_block("store"));
            fb.cond_br(c, copy, store);
            fb.switch_to(copy);
            let src = fb.add(b, 1024);
            fb.builtin_void(
                Builtin::Memcpy,
                vec![b.into(), src.into(), 8.into()],
                Some(2),
            );
            fb.br(store);
            fb.switch_to(store);
            fb.store(b, 100, 1i64);
            fb.store(b, 0, 1i64);
        });
        // Word 100 of each region is private; thread 1's base is read by
        // thread 0's copy, and thread 0's is written by it.
        assert_eq!(got, [0b11, 0b01]);
        // A length that is not an operand copies nothing.
        let got = per_thread(&[0, 1], |fb, b| {
            let src = fb.add(b, 1024);
            fb.builtin_void(Builtin::Memcpy, vec![b.into(), src.into(), 8.into()], None);
            fb.store(b, 0, 1i64);
        });
        assert_eq!(got, [0b11]);
    }

    #[test]
    fn addresses_outside_memory_wrap_onto_every_word() {
        // Negative for thread 0, so anywhere after the wrap: on thread 1's
        // base too.
        let got = per_thread(&[0, 1], |fb, b| {
            fb.store(b, -5000, 1i64);
            fb.store(b, 0, 1i64);
        });
        assert_eq!(got, [0, 0b01]);
        // At or past the end of memory: thread 1's second store, which
        // may hit both of thread 0's words.
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("entry", 1);
        fb.block("entry");
        let b = base(&mut fb);
        fb.store(b, 0, 1i64);
        fb.store(b, 8192 - 4096 - 1024, 1i64);
        fb.ret_void();
        let f = fb.finish_into(&mut m);
        let got = masks(&m, &[(f, vec![0]), (f, vec![1])], 8192);
        assert_eq!(got, [0b10, 0]);
        // In a larger memory every word is one thread's.
        let got = masks(&m, &[(f, vec![0]), (f, vec![1])], MEM);
        assert_eq!(got, [0b11, 0b11]);
    }

    #[test]
    fn threads_with_equal_args_share_their_words() {
        let got = per_thread(&[0, 0, 1], |fb, b| fb.store(b, 0, 1i64));
        assert_eq!(got, [0b100]);
    }

    #[test]
    fn a_callee_reached_with_two_bases_touches_both() {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("put", 1);
        fb.block("entry");
        let p = fb.param(0);
        fb.store(p, 0, 1i64);
        fb.ret_void();
        let put = fb.finish_into(&mut m);
        // Thread 0 puts at its base and at thread 1's; thread 1 at its own.
        let mut fb = FunctionBuilder::new("twice", 1);
        fb.block("entry");
        let b = base(&mut fb);
        fb.call_void(put, vec![b.into()]);
        let next = fb.add(b, 1024);
        fb.call_void(put, vec![next.into()]);
        fb.ret_void();
        let twice = fb.finish_into(&mut m);
        let mut fb = FunctionBuilder::new("once", 1);
        fb.block("entry");
        let b = base(&mut fb);
        fb.call_void(put, vec![b.into()]);
        fb.store(b, 1, 1i64);
        fb.ret_void();
        let once = fb.finish_into(&mut m);
        let got = masks(
            &m,
            &[(twice, vec![0]), (once, vec![1]), (once, vec![2])],
            MEM,
        );
        assert_eq!(got, [0b100, 0b110]);
    }

    #[test]
    fn a_loop_carried_address_needs_a_mask() {
        // `for p = base; ; p += 1 { store p }`, and with `p & 1023` added
        // to the base instead.
        let walk = |masked: bool| {
            per_thread(&[0, 1, 2], |fb, b| {
                let p = fb.iconst(0);
                let (body, done) = (fb.create_block("body"), fb.create_block("done"));
                fb.br(body);
                fb.switch_to(body);
                let at = if masked {
                    let i = fb.bin(BinOp::And, p, 1023);
                    fb.add(b, i)
                } else {
                    fb.add(b, p)
                };
                fb.store(at, 0, 1i64);
                fb.bin_to(BinOp::Add, p, p, 1);
                let c = fb.cmp(CmpOp::Lt, p, 100);
                fb.cond_br(c, body, done);
                fb.switch_to(done);
            })
        };
        assert_eq!(walk(false), [0]);
        assert_eq!(walk(true), [0b111]);
    }

    #[test]
    fn more_than_64_threads_have_nothing_private() {
        let tids: Vec<i64> = (0..65).collect();
        assert_eq!(per_thread(&tids, |fb, b| fb.store(b, 0, 1i64)), [0]);
    }

    /// How many (site, thread) pairs the proof clears on each SPLASH-2
    /// shape, 4 threads at scale 0.05: every site but the shared queue,
    /// accumulator and lock-protected words.
    #[test]
    fn private_site_counts_are_pinned() {
        let pairs = |name: &str| {
            let w = detlock_workloads::by_name(name, 4, 0.05).expect("known workload");
            let specs: Vec<ThreadSpec> = w
                .threads
                .iter()
                .map(|t| ThreadSpec {
                    func: t.func,
                    args: t.args.clone(),
                })
                .collect();
            let privacy = prove(&w.module, &specs, w.mem_words);
            privacy.counts.iter().sum::<u32>()
        };
        let got: Vec<(&str, u32)> = ["ocean", "raytrace", "water-nsq", "radiosity", "volrend"]
            .into_iter()
            .map(|name| (name, pairs(name)))
            .collect();
        assert_eq!(
            got,
            [
                ("ocean", 692),
                ("raytrace", 1448),
                ("water-nsq", 12),
                ("radiosity", 1764),
                ("volrend", 128),
            ]
        );
    }
}
