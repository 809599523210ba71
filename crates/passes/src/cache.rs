//! Content-addressed plan cache: compile each distinct (module, config)
//! pair once per process.
//!
//! The cache key is an FNV-1a digest of everything the pipeline's output is
//! a pure function of: every function's canonical IR text (block order
//! included, so reordering blocks changes the key), the full [`OptConfig`]
//! (flags and every threshold, including the O1/O3 path-count threshold),
//! the [`Placement`], the entry-function set, and the [`CostModel`]
//! fingerprint. The cached value is the complete
//! [`Instrumented`] artifact — materialized module, plan, per-pass certs
//! and stats — so a hit is byte-identical to a recompile.
//!
//! Granularity is the whole module, not a single function: O1's clockable
//! set is an interprocedural fixpoint over the call graph, so a function's
//! compiled plan is not context-free and per-function reuse across modules
//! would be unsound.
//!
//! No binary and no server shard compiles through the cache: the key
//! prints the whole module, which costs about as much as a cold compile
//! (DESIGN.md §12). It stays for the repo benchmark's warm-read phase and
//! the golden suite's warm leg, behind
//! [`CompileOpts::cached`](crate::pipeline::CompileOpts::cached).

use crate::cost::CostModel;
use crate::pipeline::{Instrumented, OptConfig};
use crate::plan::Placement;
use detlock_ir::dot::write_module_text;
use detlock_ir::module::Module;
use detlock_ir::types::FuncId;
use detlock_shim::hash::Fnv64;
use detlock_shim::sync::Mutex;
use std::collections::{HashMap, VecDeque};
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
    write_module_text(module, |bytes| h.write(bytes));
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

#[derive(Default)]
struct Entries {
    map: HashMap<u64, Arc<Instrumented>>,
    /// Keys in insertion order — the FIFO eviction queue.
    order: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

/// Content-addressed cache of compiled [`Instrumented`] artifacts.
pub struct PlanCache {
    entries: Mutex<Entries>,
    capacity: usize,
}

impl PlanCache {
    /// The process-wide cache.
    pub fn global() -> &'static PlanCache {
        static GLOBAL: OnceLock<PlanCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PlanCache::with_capacity(512))
    }

    fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            entries: Mutex::new(Entries::default()),
            capacity: capacity.max(1),
        }
    }

    /// Fetch the artifact for `key`, running `compile` on a miss. The lock
    /// is not held while compiling, so two threads that miss on one key
    /// both compile (and both count as misses); the first insert wins.
    pub fn get_or_compute(
        &self,
        key: u64,
        compile: impl FnOnce() -> Instrumented,
    ) -> Arc<Instrumented> {
        {
            let mut e = self.entries.lock();
            if let Some(v) = e.map.get(&key).cloned() {
                e.hits += 1;
                return v;
            }
            e.misses += 1;
        }
        let value = Arc::new(compile());
        let mut e = self.entries.lock();
        if let Some(v) = e.map.get(&key) {
            return Arc::clone(v);
        }
        e.map.insert(key, Arc::clone(&value));
        e.order.push_back(key);
        while e.order.len() > self.capacity {
            let victim = e.order.pop_front().expect("non-empty");
            e.map.remove(&victim);
        }
        value
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.entries.lock().hits
    }

    /// Lookups that compiled.
    pub fn misses(&self) -> u64 {
        self.entries.lock().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::instrument;
    use detlock_ir::builder::FunctionBuilder;

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
    fn hits_misses_and_fifo_eviction() {
        let cache = PlanCache::with_capacity(1);
        let cost = CostModel::default();
        let cfg = OptConfig::all();
        let m = chain_module(&[2]);
        let compile = || instrument(&m, &cost, &cfg, Placement::Start, &[]);

        cache.get_or_compute(0, compile);
        let hit = cache.get_or_compute(0, || unreachable!("a hit must not compile"));
        assert_eq!(hit.stats.functions, 1);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Capacity 1: a second key evicts the first, which then recompiles.
        cache.get_or_compute(8, compile);
        cache.get_or_compute(0, compile);
        assert_eq!((cache.hits(), cache.misses()), (1, 3));
        assert_eq!(cache.entries.lock().map.len(), 1);
    }
}
