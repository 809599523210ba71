//! Content-addressed plan cache: compile each distinct (module, config)
//! pair once per process.
//!
//! The cache key is an FNV-1a digest of everything the pipeline's output is
//! a pure function of: every function's canonical IR text (block order
//! included, so reordering blocks changes the key), the full [`OptConfig`]
//! (flags and every threshold, including the O1/O3 path cap that selects
//! the route-enumeration policy), the [`Placement`], the entry-function
//! set, and the [`CostModel`] fingerprint. The cached value is the complete
//! [`Instrumented`] artifact — materialized module, plan, per-pass certs
//! and stats — so a hit is byte-identical to a recompile.
//!
//! Granularity is the whole module, not a single function: O1's clockable
//! set is an interprocedural fixpoint over the call graph, so a function's
//! compiled plan is not context-free and per-function reuse across modules
//! would be unsound. Within one process the module is the unit `dlc`, the
//! ablation sweeps and every `detserved` shard actually compile, which is
//! exactly the repetition the cache removes.
//!
//! The map is sharded by key so concurrent shards rarely contend on one
//! lock, and a per-key *pending* marker makes racing compilers coalesce:
//! the first thread to miss compiles, later threads block on the shard
//! condvar and are served the finished artifact as hits — so the miss
//! counter counts distinct keys compiled, never racing duplicates.
//!
//! The pipeline is the cache's one tenant because a hit pays there: the
//! key is one print of the module, the compile it saves several times that.
//! The VM's lowering is the opposite case — 7–9× cheaper to rebuild than to
//! key (DESIGN.md §15) — and is not cached, here or anywhere.

use crate::cost::CostModel;
use crate::pipeline::{Instrumented, OptConfig};
use crate::plan::Placement;
use detlock_ir::dot::function_to_text;
use detlock_ir::module::Module;
use detlock_ir::types::FuncId;
use detlock_shim::hash::Fnv64;
use detlock_shim::sync::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The FNV-1a content key for one compile: canonical IR of every function
/// plus every compile-relevant knob.
pub fn plan_key(
    module: &Module,
    cost: &CostModel,
    config: &OptConfig,
    placement: Placement,
    entries: &[FuncId],
) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(module.functions.len() as u64);
    for func in &module.functions {
        // `function_to_text` prints name, params, blocks in order and every
        // instruction/terminator — the canonical serialization.
        h.write(function_to_text(func, |_| None).as_bytes());
        h.write(&[0xff]); // function separator
    }
    h.write(&[
        config.o1 as u8,
        config.o2 as u8,
        config.o3 as u8,
        config.o4 as u8,
    ]);
    // Floats by bit pattern: exact, no rounding ambiguity.
    h.write_u64(config.clockable.range_divisor.to_bits());
    h.write_u64(config.clockable.std_divisor.to_bits());
    h.write_u64(config.clockable.max_paths as u64);
    h.write_u64(config.opt2b.max_divergence.to_bits());
    h.write_u64(config.opt4.threshold);
    h.write(&[match placement {
        Placement::Start => 0u8,
        Placement::End => 1u8,
    }]);
    h.write_u64(entries.len() as u64);
    for e in entries {
        h.write_u64(e.index() as u64);
    }
    h.write_u64(cost.fingerprint());
    h.finish()
}

/// A cache slot: either a finished artifact or a marker that some thread is
/// compiling it right now.
enum Slot {
    Pending,
    Ready(Arc<Instrumented>),
}

/// One lock shard of the cache.
struct Shard {
    map: Mutex<ShardMap>,
    cv: Condvar,
}

#[derive(Default)]
struct ShardMap {
    slots: HashMap<u64, Slot>,
    /// Ready keys in insertion order — the FIFO eviction queue.
    order: Vec<u64>,
}

const NUM_SHARDS: usize = 8;

/// Sharded content-addressed cache of compiled [`Instrumented`] artifacts.
pub struct PlanCache {
    shards: Vec<Shard>,
    /// Max *ready* entries per shard.
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// The process-wide cache shared by `dlc`, the bench bins and every
    /// `detserved` shard.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::with_capacity(512))
    }

    /// A cache bounded at roughly `capacity` entries (rounded up to a
    /// multiple of the shard count).
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            shards: (0..NUM_SHARDS)
                .map(|_| Shard {
                    map: Mutex::new(ShardMap::default()),
                    cv: Condvar::new(),
                })
                .collect(),
            per_shard_capacity: capacity.div_ceil(NUM_SHARDS).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Shard {
        &self.shards[(key % NUM_SHARDS as u64) as usize]
    }

    /// Fetch the artifact for `key`, running `compile` exactly once per key
    /// across all racing threads. Concurrent callers with the same key
    /// block until the first one finishes and then count as hits.
    pub fn get_or_compute(
        &self,
        key: u64,
        compile: impl FnOnce() -> Instrumented,
    ) -> Arc<Instrumented> {
        let shard = self.shard(key);
        let mut g = shard.map.lock();
        loop {
            match g.slots.get(&key) {
                Some(Slot::Ready(v)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Arc::clone(v);
                }
                Some(Slot::Pending) => {}
                None => break,
            }
            shard.cv.wait(&mut g);
        }
        g.slots.insert(key, Slot::Pending);
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(g);

        // If `compile` unwinds (debug-build verifier panic), clear the
        // pending marker so waiters retry instead of hanging forever.
        struct Unpend<'a> {
            cache: &'a PlanCache,
            key: u64,
            armed: bool,
        }
        impl Drop for Unpend<'_> {
            fn drop(&mut self) {
                if self.armed {
                    let shard = self.cache.shard(self.key);
                    let mut g = shard.map.lock();
                    g.slots.remove(&self.key);
                    shard.cv.notify_all();
                }
            }
        }
        let mut unpend = Unpend {
            cache: self,
            key,
            armed: true,
        };
        let value = Arc::new(compile());
        unpend.armed = false;

        let mut g = shard.map.lock();
        g.slots.insert(key, Slot::Ready(Arc::clone(&value)));
        g.order.push(key);
        while g.order.len() > self.per_shard_capacity {
            let victim = g.order.remove(0);
            g.slots.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        shard.cv.notify_all();
        value
    }

    /// Lookups served from the cache (including coalesced waiters).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that compiled (exactly one per distinct key ever inserted).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Ready entries discarded to stay within capacity.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Ready entries currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.map.lock().order.len()).sum()
    }

    /// Whether the cache holds no ready entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::instrument;
    use detlock_ir::builder::FunctionBuilder;
    use std::sync::atomic::AtomicUsize;

    /// One function whose blocks form a chain `entry -> b0 -> b1 -> ...`,
    /// each carrying the given compute payload in order.
    fn chain_module(payloads: &[usize]) -> Module {
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("f", 0);
        fb.block("entry");
        for (i, &p) in payloads.iter().enumerate() {
            let b = fb.create_block(format!("b{i}"));
            fb.br(b);
            fb.switch_to(b);
            fb.compute(p);
        }
        fb.ret_void();
        fb.finish_into(&mut m);
        m
    }

    #[test]
    fn same_input_same_key_and_block_order_changes_it() {
        let cost = CostModel::default();
        let cfg = OptConfig::all();
        let a = chain_module(&[5, 7]);
        let b = chain_module(&[7, 5]); // same instruction multiset, swapped
        let key = |m: &Module| plan_key(m, &cost, &cfg, Placement::Start, &[]);
        assert_eq!(key(&a), key(&a), "keying must be deterministic");
        assert_eq!(key(&a), key(&chain_module(&[5, 7])));
        // A hash that combined block digests order-insensitively would
        // collide these two; the canonical-text key must not.
        assert_ne!(key(&a), key(&b), "block order must be part of the key");
    }

    #[test]
    fn every_compile_knob_invalidates_the_key() {
        let cost = CostModel::default();
        let m = chain_module(&[3, 9, 27]);
        let base = plan_key(&m, &cost, &OptConfig::all(), Placement::Start, &[]);

        let mut c = OptConfig::all();
        c.o4 = false;
        assert_ne!(
            base,
            plan_key(&m, &cost, &c, Placement::Start, &[]),
            "flag change must miss"
        );
        let mut c = OptConfig::all();
        c.opt4.threshold += 1;
        assert_ne!(
            base,
            plan_key(&m, &cost, &c, Placement::Start, &[]),
            "threshold change must miss"
        );
        let mut c = OptConfig::all();
        c.opt2b.max_divergence += 0.01;
        assert_ne!(
            base,
            plan_key(&m, &cost, &c, Placement::Start, &[]),
            "divergence bound change must miss"
        );
        assert_ne!(
            base,
            plan_key(&m, &cost, &OptConfig::all(), Placement::End, &[]),
            "placement change must miss"
        );
        assert_ne!(
            base,
            plan_key(&m, &cost, &OptConfig::all(), Placement::Start, &[FuncId(0)]),
            "entry-set change must miss"
        );
    }

    #[test]
    fn racing_threads_compile_each_key_exactly_once() {
        let cache = PlanCache::with_capacity(64);
        let cost = CostModel::default();
        let cfg = OptConfig::all();
        let m = chain_module(&[11, 13]);
        let key = plan_key(&m, &cost, &cfg, Placement::Start, &[]);
        let compiles = AtomicUsize::new(0);

        const THREADS: usize = 8;
        const GETS_PER_THREAD: usize = 4;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..GETS_PER_THREAD {
                        let got = cache.get_or_compute(key, || {
                            compiles.fetch_add(1, Ordering::Relaxed);
                            instrument(&m, &cost, &cfg, Placement::Start, &[])
                        });
                        assert_eq!(got.stats.functions, 1);
                    }
                });
            }
        });

        // The pending marker coalesces racing compilers: one compile, one
        // miss, every other lookup (including coalesced waiters) a hit.
        assert_eq!(compiles.load(Ordering::Relaxed), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), (THREADS * GETS_PER_THREAD - 1) as u64);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn fifo_eviction_is_bounded_and_counted() {
        // Capacity 1 per shard; keys 0 and 8 both land in shard 0, so the
        // second insert must evict the first.
        let cache = PlanCache::with_capacity(1);
        let cost = CostModel::default();
        let cfg = OptConfig::all();
        let m = chain_module(&[2]);
        let compile = || instrument(&m, &cost, &cfg, Placement::Start, &[]);

        cache.get_or_compute(0, compile);
        cache.get_or_compute(8, compile);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(
            cache
                .shards
                .iter()
                .map(|s| s.map.lock().order.len())
                .max()
                .unwrap(),
            1
        );
        // The evicted key recompiles (a miss, not a hang or a stale hit).
        cache.get_or_compute(0, compile);
        assert_eq!(cache.misses(), 3);
    }
}
