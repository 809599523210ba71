//! `detsan`: a happens-before sanitizer woven into the VM.
//!
//! The static lockset analysis in `detlock-analyze` over-approximates: a
//! `may-race` finding names an access the analysis could not prove
//! protected, not an access that is actually unordered. This module is the
//! dynamic other half — a FastTrack-style vector-clock detector (see
//! PAPERS.md: Flanagan & Freund's FastTrack; Entezari's comparative
//! analysis motivates vector clocks over pure lockset for precision)
//! maintained by [`crate::machine::Machine`] on every `Load` / `Store` /
//! lock acquire / lock release / barrier release when
//! [`crate::machine::MachineConfig::sanitize`] is set.
//!
//! # Schedule-invariance
//!
//! The happens-before relation of a run is a function of the observed
//! *synchronization order* only; under [`crate::machine::ExecMode::Det`]
//! that order is deterministic, and any physical interleaving the
//! simulator produces is a linearization of it. The detector keeps, per
//! memory word, the last access per `(thread, static site, read/write)`
//! stamped with the accessor's own clock component, and flags a new access
//! `X` by thread `u` against an entry by thread `t` when
//! `VC_X[t] < entry.clock` — i.e. the entry is not in `X`'s happens-before
//! past. Because every conflicting same-word pair is compared and the
//! comparison depends only on clocks (not on which access physically
//! happened first), the *set* of flagged `(word, site, site)` pairs equals
//! the full set of HB-unordered conflicting pairs, independent of the
//! jitter seed. Canonical reports are therefore byte-identical across
//! seeds — the property the determinism matrix's sanitizer tests check
//! (`tests/matrix.rs`). (The usual weak-determinism caveat applies: if
//! control flow branches on racy data the executed sites themselves can
//! differ between schedules.)
//!
//! # Minimal schedule log
//!
//! Following "Efficient Deterministic Replay Using Complete Race
//! Detection" (Guo et al., PAPERS.md), a complete race detector is exactly
//! the machinery that shrinks a replay log: every release→acquire edge is
//! already reproduced by the deterministic arbiter, so only the ordering
//! of *racy* access pairs needs pinning. [`SanitizerReport::minimal_log`]
//! emits one constraint per unordered pair, direction-normalized to the
//! canonical (sorted) order — a normalization that pins a canonical
//! deterministic schedule rather than a recording of the observed run.
//! For a race-free program the log is empty, which is the whole point:
//! this artifact is the foundation ROADMAP item 3's `detdebug` replays.

use detlock_ir::module::Module;
use detlock_shim::hash::Fnv64;
use detlock_shim::json::{Json, ToJson};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A static access site inside the module: `(function, block, inst)`
/// indices, matching the coordinates `detlock-analyze` findings carry.
type Site = (u32, u32, u32);

/// One shadow-memory cell: the last access to a word by a given
/// `(thread, site, kind)`, stamped with the accessor's own clock component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessEntry {
    tid: u32,
    site: Site,
    write: bool,
    clock: u64,
}

/// Canonical key for one access half of a race record. Ordered so a pair
/// can be direction-normalized by sorting its two halves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct AccKey {
    tid: u32,
    site: Site,
    write: bool,
}

/// Canonical key for a detected race: a word plus its two access halves in
/// sorted order. The set of these keys is schedule-invariant (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct RaceKey {
    word: u64,
    a: AccKey,
    b: AccKey,
}

/// One edge of the runtime lock-order graph: `from` was held while `to`
/// was acquired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct EdgeData {
    /// Bitmask of threads that traversed the edge.
    tid_mask: u64,
    /// Sample acquisition sites (bounded; the mask covers all threads).
    sites: BTreeSet<Site>,
}

const EDGE_SITE_SAMPLES: usize = 4;

/// The sanitizer state carried by a machine (and its checkpoints).
///
/// Plain data: `Clone` so checkpoint/restore carries it, and every
/// container iterates in a deterministic order so [`Sanitizer::digest`]
/// and the finalized report are reproducible.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    n: usize,
    /// Per-thread vector clocks; `vc[t][t]` starts at 1 so the initial
    /// epoch is distinguishable from "never observed".
    vc: Vec<Vec<u64>>,
    /// Per-lock clocks: the releaser's vector clock at the last release.
    lock_vc: BTreeMap<i64, Vec<u64>>,
    /// Per-thread stack of currently held locks (for order edges).
    held: Vec<Vec<i64>>,
    /// Shadow memory: per touched word, last access per (tid, site, kind).
    shadow: BTreeMap<u64, Vec<AccessEntry>>,
    /// Runtime lock-order graph.
    edges: BTreeMap<(i64, i64), EdgeData>,
    /// Canonical set of HB-unordered conflicting access pairs.
    races: BTreeSet<RaceKey>,
    acquires: u64,
    releases: u64,
    barrier_releases: u64,
}

fn join_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

impl Sanitizer {
    /// Fresh state for `n` threads.
    pub fn new(n: usize) -> Sanitizer {
        let mut vc = vec![vec![0u64; n]; n];
        for (t, row) in vc.iter_mut().enumerate() {
            row[t] = 1;
        }
        Sanitizer {
            n,
            vc,
            lock_vc: BTreeMap::new(),
            held: vec![Vec::new(); n],
            shadow: BTreeMap::new(),
            edges: BTreeMap::new(),
            races: BTreeSet::new(),
            acquires: 0,
            releases: 0,
            barrier_releases: 0,
        }
    }

    /// Record a memory access by thread `tid` to `word` at static `site`.
    pub fn access(&mut self, tid: u32, word: usize, write: bool, site: Site) {
        let t = tid as usize;
        let own = self.vc[t][t];
        let vc = &self.vc[t];
        let entries = self.shadow.entry(word as u64).or_default();
        let key = AccKey { tid, site, write };
        let mut fresh: Vec<RaceKey> = Vec::new();
        let mut slot = None;
        for (i, e) in entries.iter().enumerate() {
            if e.tid == tid {
                if e.site == site && e.write == write {
                    slot = Some(i);
                }
                continue;
            }
            if (write || e.write) && vc[e.tid as usize] < e.clock {
                let other = AccKey {
                    tid: e.tid,
                    site: e.site,
                    write: e.write,
                };
                let (a, b) = if other <= key {
                    (other, key)
                } else {
                    (key, other)
                };
                fresh.push(RaceKey {
                    word: word as u64,
                    a,
                    b,
                });
            }
        }
        match slot {
            Some(i) => entries[i].clock = own,
            None => entries.push(AccessEntry {
                tid,
                site,
                write,
                clock: own,
            }),
        }
        self.races.extend(fresh);
    }

    /// Lock acquire by `tid` at `site`: join the lock's release clock into
    /// the thread and record lock-order edges for every lock already held.
    pub fn acquire(&mut self, tid: u32, lock: i64, site: Site) {
        let t = tid as usize;
        self.acquires += 1;
        if let Some(lvc) = self.lock_vc.get(&lock) {
            join_into(&mut self.vc[t], lvc);
        }
        for &h in &self.held[t] {
            if h != lock {
                let e = self.edges.entry((h, lock)).or_default();
                e.tid_mask |= 1u64 << (tid % 64);
                if e.sites.len() < EDGE_SITE_SAMPLES {
                    e.sites.insert(site);
                }
            }
        }
        self.held[t].push(lock);
    }

    /// Lock release by `tid`: publish the thread's clock on the lock, then
    /// advance the thread's own component (FastTrack release rule).
    pub fn release(&mut self, tid: u32, lock: i64) {
        let t = tid as usize;
        self.releases += 1;
        self.lock_vc.insert(lock, self.vc[t].clone());
        self.vc[t][t] += 1;
        if let Some(p) = self.held[t].iter().rposition(|&x| x == lock) {
            self.held[t].remove(p);
        }
    }

    /// Barrier release: every arrival joins to the common supremum, then
    /// advances its own component — all pre-barrier accesses happen-before
    /// all post-barrier accesses.
    pub fn barrier(&mut self, arrivals: &[u32]) {
        self.barrier_releases += 1;
        let mut sup = vec![0u64; self.n];
        for &a in arrivals {
            join_into(&mut sup, &self.vc[a as usize]);
        }
        for &a in arrivals {
            let t = a as usize;
            self.vc[t] = sup.clone();
            self.vc[t][t] += 1;
        }
    }

    /// Deep digest of the sanitizer state, folded into checkpoint digests:
    /// two runs that agree on this value hold identical detector state.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        let mut fold = |v: u64| h.write_u64(v);
        fold(self.n as u64);
        fold(self.acquires);
        fold(self.releases);
        fold(self.barrier_releases);
        for row in &self.vc {
            for &c in row {
                fold(c);
            }
        }
        for (id, lvc) in &self.lock_vc {
            fold(*id as u64);
            for &c in lvc {
                fold(c);
            }
        }
        for stack in &self.held {
            fold(stack.len() as u64);
            for &l in stack {
                fold(l as u64);
            }
        }
        for (word, entries) in &self.shadow {
            fold(*word);
            fold(entries.len() as u64);
            for e in entries {
                fold(e.tid as u64);
                fold(e.site.0 as u64);
                fold(e.site.1 as u64);
                fold(e.site.2 as u64);
                fold(e.write as u64);
                fold(e.clock);
            }
        }
        for ((a, b), e) in &self.edges {
            fold(*a as u64);
            fold(*b as u64);
            fold(e.tid_mask);
            for s in &e.sites {
                fold(s.0 as u64);
                fold(s.1 as u64);
                fold(s.2 as u64);
            }
        }
        for r in &self.races {
            fold(r.word);
            for k in [r.a, r.b] {
                fold(k.tid as u64);
                fold(k.site.0 as u64);
                fold(k.site.1 as u64);
                fold(k.site.2 as u64);
                fold(k.write as u64);
            }
        }
        h.finish()
    }

    fn name_access(module: &Module, k: AccKey) -> DynAccess {
        let func = module
            .functions
            .get(k.site.0 as usize)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| format!("@f{}", k.site.0));
        DynAccess {
            tid: k.tid,
            func,
            block: k.site.1,
            inst: k.site.2,
            write: k.write,
        }
    }

    /// Strongly connected components of the lock-order graph with more
    /// than one node (or a self-loop): each is a deadlock-prone cycle.
    fn lock_cycles(&self, module: &Module) -> Vec<LockCycle> {
        let nodes: BTreeSet<i64> = self.edges.keys().flat_map(|&(a, b)| [a, b]).collect();
        let reach = |from: i64| -> BTreeSet<i64> {
            let mut seen = BTreeSet::new();
            let mut stack = vec![from];
            while let Some(x) = stack.pop() {
                for (&(a, b), _) in self.edges.range((x, i64::MIN)..=(x, i64::MAX)) {
                    debug_assert_eq!(a, x);
                    if seen.insert(b) {
                        stack.push(b);
                    }
                }
            }
            seen
        };
        let reachable: BTreeMap<i64, BTreeSet<i64>> =
            nodes.iter().map(|&a| (a, reach(a))).collect();
        let mut cycles = Vec::new();
        let mut assigned: BTreeSet<i64> = BTreeSet::new();
        for &a in &nodes {
            if assigned.contains(&a) {
                continue;
            }
            let scc: Vec<i64> = reachable[&a]
                .iter()
                .copied()
                .filter(|&b| reachable[&b].contains(&a))
                .collect();
            // A node alone in its SCC cycles only via a self-loop, which
            // `acquire` never records (h != lock); skip it.
            if scc.len() < 2 {
                continue;
            }
            assigned.extend(scc.iter().copied());
            let in_scc: BTreeSet<i64> = scc.iter().copied().collect();
            let edges = self
                .edges
                .iter()
                .filter(|((x, y), _)| in_scc.contains(x) && in_scc.contains(y))
                .map(|(&(from, to), e)| {
                    let site = e.sites.iter().next().copied().unwrap_or((0, 0, 0));
                    LockEdge {
                        from,
                        to,
                        tid_mask: e.tid_mask,
                        func: module
                            .functions
                            .get(site.0 as usize)
                            .map(|f| f.name.clone())
                            .unwrap_or_else(|| format!("@f{}", site.0)),
                        block: site.1,
                        inst: site.2,
                    }
                })
                .collect();
            cycles.push(LockCycle { locks: scc, edges });
        }
        cycles
    }

    /// Finalize into a [`SanitizerReport`], resolving function names
    /// against `module` (the module the machine executed).
    pub fn finalize(&self, module: &Module) -> SanitizerReport {
        let races: Vec<DynRace> = self
            .races
            .iter()
            .map(|r| DynRace {
                word: r.word as usize,
                a: Self::name_access(module, r.a),
                b: Self::name_access(module, r.b),
            })
            .collect();
        // Per-site stats for triage: which static sites were observed at
        // all, by which threads, and whether a conflicting same-word
        // access by another thread existed (ordered or not).
        let mut sites: BTreeMap<(AccKey, bool), SiteStat> = BTreeMap::new();
        for entries in self.shadow.values() {
            for e in entries {
                let conflicted = entries
                    .iter()
                    .any(|o| o.tid != e.tid && (e.write || o.write));
                let key = AccKey {
                    tid: 0,
                    site: e.site,
                    write: e.write,
                };
                let stat = sites.entry((key, e.write)).or_insert_with(|| SiteStat {
                    func: module
                        .functions
                        .get(e.site.0 as usize)
                        .map(|f| f.name.clone())
                        .unwrap_or_else(|| format!("@f{}", e.site.0)),
                    block: e.site.1,
                    inst: e.site.2,
                    write: e.write,
                    tid_mask: 0,
                    contended: false,
                });
                stat.tid_mask |= 1u64 << (e.tid % 64);
                stat.contended |= conflicted;
            }
        }
        SanitizerReport {
            threads: self.n,
            races,
            lock_cycles: self.lock_cycles(module),
            sites: sites.into_values().collect(),
            acquires: self.acquires,
            releases: self.releases,
            barrier_releases: self.barrier_releases,
        }
    }
}

/// One half of a dynamic race: who accessed, where in the program, how.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DynAccess {
    /// Thread id of the accessor.
    pub tid: u32,
    /// Function name (resolved from the executed module).
    pub func: String,
    /// Basic-block index within the function.
    pub block: u32,
    /// Instruction index within the block.
    pub inst: u32,
    /// True for a store (or builtin write), false for a load.
    pub write: bool,
}

impl DynAccess {
    fn kind(&self) -> &'static str {
        if self.write {
            "write"
        } else {
            "read"
        }
    }
}

impl fmt::Display for DynAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}/bb{}#{} by tid {}",
            self.kind(),
            self.func,
            self.block,
            self.inst,
            self.tid
        )
    }
}

/// A precise dynamic race: two conflicting accesses to one word with no
/// happens-before edge between them, named down to the instruction.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DynRace {
    /// The shared-memory word both sides touched.
    pub word: usize,
    /// The canonically-first access (sorted order, not temporal order).
    pub a: DynAccess,
    /// The canonically-second access.
    pub b: DynAccess,
}

impl fmt::Display for DynRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "word {}: {} is unordered with {}",
            self.word, self.a, self.b
        )
    }
}

impl DynRace {
    /// Does either side of this race sit at the given static coordinates?
    pub fn touches(&self, func: &str, block: u32, inst: u32) -> bool {
        [&self.a, &self.b]
            .iter()
            .any(|x| x.func == func && x.block == block && x.inst == inst)
    }
}

impl ToJson for DynRace {
    fn to_json(&self) -> Json {
        let acc = |x: &DynAccess| {
            Json::obj([
                ("tid", Json::Int(x.tid as i64)),
                ("func", Json::Str(x.func.clone())),
                ("block", Json::Int(x.block as i64)),
                ("inst", Json::Int(x.inst as i64)),
                ("kind", Json::Str(x.kind().to_string())),
            ])
        };
        Json::obj([
            ("word", Json::Int(self.word as i64)),
            ("a", acc(&self.a)),
            ("b", acc(&self.b)),
        ])
    }
}

/// One edge of a reported lock cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: i64,
    /// Lock acquired while holding `from`.
    pub to: i64,
    /// Bitmask of threads that traversed the edge.
    pub tid_mask: u64,
    /// Function name of a sample acquisition site.
    pub func: String,
    /// Block index of the sample site.
    pub block: u32,
    /// Instruction index of the sample site.
    pub inst: u32,
}

/// A deadlock-prone acquisition cycle in the runtime lock-order graph:
/// a strongly connected component of held→acquired edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockCycle {
    /// The locks in the cycle, sorted.
    pub locks: Vec<i64>,
    /// The edges among them, sorted by (from, to).
    pub edges: Vec<LockEdge>,
}

impl fmt::Display for LockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let locks: Vec<String> = self.locks.iter().map(|l| l.to_string()).collect();
        write!(f, "locks {{{}}}:", locks.join(", "))?;
        for (i, e) in self.edges.iter().enumerate() {
            let sep = if i == 0 { " " } else { ", " };
            write!(
                f,
                "{sep}{}->{} at {}/bb{}#{} (tids 0x{:x})",
                e.from, e.to, e.func, e.block, e.inst, e.tid_mask
            )?;
        }
        Ok(())
    }
}

impl ToJson for LockCycle {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "locks",
                Json::Arr(self.locks.iter().map(|&l| Json::Int(l)).collect()),
            ),
            (
                "edges",
                Json::Arr(
                    self.edges
                        .iter()
                        .map(|e| {
                            Json::obj([
                                ("from", Json::Int(e.from)),
                                ("to", Json::Int(e.to)),
                                ("tid_mask", Json::Int(e.tid_mask as i64)),
                                ("func", Json::Str(e.func.clone())),
                                ("block", Json::Int(e.block as i64)),
                                ("inst", Json::Int(e.inst as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Per-static-site observation stats, consumed by the triage layer to
/// separate `unobserved` from `refuted-by-HB`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStat {
    /// Function name.
    pub func: String,
    /// Block index.
    pub block: u32,
    /// Instruction index.
    pub inst: u32,
    /// True for store sites.
    pub write: bool,
    /// Bitmask of threads observed executing the site.
    pub tid_mask: u64,
    /// True when some word this site touched was also accessed by another
    /// thread with at least one write in the pair — a conflict existed,
    /// ordered or not.
    pub contended: bool,
}

/// The finalized sanitizer output for one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SanitizerReport {
    /// Thread count of the run.
    pub threads: usize,
    /// All HB-unordered conflicting access pairs, canonically sorted.
    pub races: Vec<DynRace>,
    /// Deadlock-prone acquisition cycles in the lock-order graph.
    pub lock_cycles: Vec<LockCycle>,
    /// Per-site observation stats (sorted), for triage.
    pub sites: Vec<SiteStat>,
    /// Total lock acquisitions observed (the full replay log's length —
    /// what the minimal log compresses away).
    pub acquires: u64,
    /// Total lock releases observed.
    pub releases: u64,
    /// Total barrier releases observed.
    pub barrier_releases: u64,
}

impl SanitizerReport {
    /// Merge another run's report into this one (e.g. across jitter
    /// seeds): union of races and cycles, max of counters, OR of site
    /// masks. Used when a sweep runs the same workload under many seeds.
    pub fn merge(&mut self, other: &SanitizerReport) {
        let mut races: BTreeSet<DynRace> = self.races.iter().cloned().collect();
        races.extend(other.races.iter().cloned());
        self.races = races.into_iter().collect();
        for c in &other.lock_cycles {
            if !self.lock_cycles.contains(c) {
                self.lock_cycles.push(c.clone());
            }
        }
        self.lock_cycles.sort_by(|x, y| x.locks.cmp(&y.locks));
        for s in &other.sites {
            match self.sites.iter_mut().find(|m| {
                m.func == s.func && m.block == s.block && m.inst == s.inst && m.write == s.write
            }) {
                Some(m) => {
                    m.tid_mask |= s.tid_mask;
                    m.contended |= s.contended;
                }
                None => self.sites.push(s.clone()),
            }
        }
        self.sites.sort_by(|x, y| {
            (&x.func, x.block, x.inst, x.write).cmp(&(&y.func, y.block, y.inst, y.write))
        });
        self.acquires = self.acquires.max(other.acquires);
        self.releases = self.releases.max(other.releases);
        self.barrier_releases = self.barrier_releases.max(other.barrier_releases);
    }

    /// Stats for the static site at `(func, block, inst)`, any kind.
    pub fn site(&self, func: &str, block: u32, inst: u32) -> Option<&SiteStat> {
        self.sites
            .iter()
            .find(|s| s.func == func && s.block == block && s.inst == inst)
    }

    /// The dynamic races touching the static site, if any.
    pub fn races_at(&self, func: &str, block: u32, inst: u32) -> Vec<&DynRace> {
        self.races
            .iter()
            .filter(|r| r.touches(func, block, inst))
            .collect()
    }

    /// Canonical textual form: byte-identical across jitter seeds for the
    /// same (module, threads, inputs) run in a deterministic mode. Counts
    /// that are schedule-invariant (acquires, barrier releases) are
    /// included; nothing clock- or cycle-valued is.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "detsan threads={} races={} lock_cycles={} acquires={} releases={} barriers={}\n",
            self.threads,
            self.races.len(),
            self.lock_cycles.len(),
            self.acquires,
            self.releases,
            self.barrier_releases
        ));
        for r in &self.races {
            out.push_str(&format!("race {r}\n"));
        }
        for c in &self.lock_cycles {
            out.push_str(&format!("cycle {c}\n"));
        }
        for s in &self.sites {
            out.push_str(&format!(
                "site {}/bb{}#{} {} tids=0x{:x} contended={}\n",
                s.func,
                s.block,
                s.inst,
                if s.write { "write" } else { "read" },
                s.tid_mask,
                s.contended
            ));
        }
        out
    }

    /// The compressed minimal schedule log (`detsan.log`): one ordering
    /// constraint per racy access pair, direction-normalized to canonical
    /// order. Everything else is reproduced by the deterministic arbiter,
    /// so a replayer needs only these lines (empty for race-free runs).
    pub fn minimal_log(&self) -> String {
        let mut out = String::new();
        out.push_str("# detsan minimal schedule log v1\n");
        out.push_str(&format!(
            "# constraints={} (full sync log would hold {} acquire entries)\n",
            self.races.len(),
            self.acquires
        ));
        for r in &self.races {
            out.push_str(&format!(
                "constraint word={} first=t{}@{}/bb{}#{}:{} second=t{}@{}/bb{}#{}:{}\n",
                r.word,
                r.a.tid,
                r.a.func,
                r.a.block,
                r.a.inst,
                if r.a.write { "W" } else { "R" },
                r.b.tid,
                r.b.func,
                r.b.block,
                r.b.inst,
                if r.b.write { "W" } else { "R" },
            ));
        }
        out
    }
}

impl ToJson for SanitizerReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("threads", Json::Int(self.threads as i64)),
            (
                "races",
                Json::Arr(self.races.iter().map(|r| r.to_json()).collect()),
            ),
            (
                "lock_cycles",
                Json::Arr(self.lock_cycles.iter().map(|c| c.to_json()).collect()),
            ),
            ("acquires", Json::Int(self.acquires as i64)),
            ("releases", Json::Int(self.releases as i64)),
            ("barrier_releases", Json::Int(self.barrier_releases as i64)),
            ("minimal_log", Json::Str(self.minimal_log())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn module_stub() -> Module {
        Module::new()
    }

    #[test]
    fn unsynchronized_conflict_is_flagged_once_per_site_pair() {
        let mut s = Sanitizer::new(2);
        // Thread 0 writes word 5; thread 1 writes it too, no sync between.
        for _ in 0..3 {
            s.access(0, 5, true, (0, 1, 2));
            s.access(1, 5, true, (0, 1, 2));
        }
        let r = s.finalize(&module_stub());
        assert_eq!(r.races.len(), 1, "dedup to one canonical pair");
        assert_eq!(r.races[0].word, 5);
        assert_ne!(r.races[0].a.tid, r.races[0].b.tid);
    }

    #[test]
    fn release_acquire_orders_the_conflict() {
        let mut s = Sanitizer::new(2);
        s.acquire(0, 9, (0, 0, 0));
        s.access(0, 5, true, (0, 1, 2));
        s.release(0, 9);
        s.acquire(1, 9, (0, 0, 0));
        s.access(1, 5, true, (0, 1, 2));
        s.release(1, 9);
        let r = s.finalize(&module_stub());
        assert!(r.races.is_empty(), "lock ordering suppresses the pair");
        let stat = r.sites.first().expect("site observed");
        assert!(stat.contended, "conflict existed even though ordered");
    }

    #[test]
    fn read_read_sharing_is_not_a_race() {
        let mut s = Sanitizer::new(2);
        s.access(0, 7, false, (0, 0, 0));
        s.access(1, 7, false, (0, 0, 1));
        assert!(s.finalize(&module_stub()).races.is_empty());
    }

    #[test]
    fn barrier_orders_phases() {
        let mut s = Sanitizer::new(2);
        s.access(0, 3, true, (0, 0, 0));
        s.barrier(&[0, 1]);
        s.access(1, 3, true, (0, 0, 1));
        assert!(s.finalize(&module_stub()).races.is_empty());
    }

    #[test]
    fn opposite_order_acquisition_forms_a_cycle() {
        let mut s = Sanitizer::new(2);
        s.acquire(0, 2, (0, 0, 0));
        s.acquire(0, 3, (0, 0, 1));
        s.release(0, 3);
        s.release(0, 2);
        s.acquire(1, 3, (0, 0, 2));
        s.acquire(1, 2, (0, 0, 3));
        s.release(1, 2);
        s.release(1, 3);
        let r = s.finalize(&module_stub());
        assert_eq!(r.lock_cycles.len(), 1);
        assert_eq!(r.lock_cycles[0].locks, vec![2, 3]);
    }

    #[test]
    fn digest_tracks_state() {
        let mut a = Sanitizer::new(2);
        let mut b = Sanitizer::new(2);
        assert_eq!(a.digest(), b.digest());
        a.access(0, 1, true, (0, 0, 0));
        assert_ne!(a.digest(), b.digest());
        b.access(0, 1, true, (0, 0, 0));
        assert_eq!(a.digest(), b.digest());
    }
}
