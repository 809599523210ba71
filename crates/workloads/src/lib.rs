//! # detlock-workloads
//!
//! IR workload generators with the synchronization and control-flow shape
//! of the five SPLASH-2 benchmarks the DetLock paper evaluates (the
//! originals are C programs; what the instrumentation and the deterministic
//! runtime respond to is *shape* — block sizes, branch density, loop
//! nests, clockable-function structure, and lock frequency — which these
//! generators reproduce; see DESIGN.md for the per-benchmark mapping):
//!
//! | Generator | Shape | Paper locks/sec |
//! |---|---|---|
//! | [`ocean`] | huge straight-line sweeps + barriers, rare lock | 343 |
//! | [`raytrace`] | tile queue + branchy descent + shading leaves | 227,835 |
//! | [`water`] | tiny hot inner `for` with an `if`, molecule locks | 126,034 |
//! | [`radiosity`] | task queue at very high rate, clockable compute | 2,211,621 |
//! | [`volrend`] | ray batches + opacity ladder | 443,070 |
//!
//! [`micro`] generates random structured CFGs for property tests and
//! builds the two arbiter stressors (lock and barrier hammers);
//! [`racy`] is a deliberately racy counter used as detlint's negative
//! control (it is *not* part of [`all_benchmarks`]).

#![warn(missing_docs)]

pub mod micro;
pub mod ocean;
pub mod racy;
pub mod radiosity;
pub mod raytrace;
pub mod util;
pub mod volrend;
pub mod water;

use detlock_ir::types::FuncId;
use detlock_ir::Module;

/// One thread of a workload: entry function + arguments.
#[derive(Debug, Clone)]
pub struct ThreadPlan {
    /// Entry function.
    pub func: FuncId,
    /// Arguments for the entry function's parameters.
    pub args: Vec<i64>,
}

/// A buildable workload: the module, its thread plans, and the entry
/// functions that the instrumentation pass must not clock.
pub struct Workload {
    /// Benchmark name as printed in the paper's tables.
    pub name: &'static str,
    /// The program.
    pub module: Module,
    /// Entry functions (excluded from Function Clocking).
    pub entries: Vec<FuncId>,
    /// One plan per thread.
    pub threads: Vec<ThreadPlan>,
    /// Shared-memory size the workload expects.
    pub mem_words: usize,
}

/// Build all five Table I workloads at `scale` (1.0 = the sizes used for
/// the shipped experiment numbers) for `threads` threads.
pub fn all_benchmarks(threads: usize, scale: f64) -> Vec<Workload> {
    vec![
        ocean::build(threads, &ocean::OceanParams::scaled(scale)),
        raytrace::build(threads, &raytrace::RaytraceParams::scaled(scale)),
        water::build(threads, &water::WaterParams::scaled(scale)),
        radiosity::build(threads, &radiosity::RadiosityParams::scaled(scale)),
        volrend::build(threads, &volrend::VolrendParams::scaled(scale)),
    ]
}

/// Build the *Kendo dataset* variant of a benchmark — the paper compares
/// against Kendo's published numbers, which were measured on data sets with
/// *lower* lock frequencies than the ones used for Table I ("For Radiosity
/// and Volrend, we could not find matching data sets ... and instead used
/// data sets with higher lock frequencies than Kendo", §V-C). Table II's
/// Kendo locks/sec column: ocean 279, raytrace 216,979, water 143,202,
/// radiosity 939,771, volrend 79,612.
pub fn kendo_dataset(name: &str, threads: usize, scale: f64) -> Option<Workload> {
    match name {
        "ocean" => by_name(name, threads, scale),
        "raytrace" => {
            // ~217k locks/sec: bigger tiles.
            let mut p = raytrace::RaytraceParams::scaled(scale);
            p.pixels_per_tile = 104;
            p.tiles = (p.tiles * 64 / 104).max(8);
            Some(raytrace::build(threads, &p))
        }
        "water-nsq" | "water" => by_name(name, threads, scale),
        "radiosity" => {
            // ~940k locks/sec: double the subdivision work per task.
            let mut p = radiosity::RadiosityParams::scaled(scale);
            p.kinds = 8;
            p.tasks = (p.tasks / 2).max(16);
            Some(radiosity::build_with_iters(threads, &p, 15))
        }
        "volrend" => {
            // ~80k locks/sec: much larger ray batches.
            let mut p = volrend::VolrendParams::scaled(scale);
            p.rays_per_batch = 40;
            p.batches = (p.batches / 5).max(8);
            Some(volrend::build(threads, &p))
        }
        _ => None,
    }
}

/// Build one benchmark by its Table I name.
pub fn by_name(name: &str, threads: usize, scale: f64) -> Option<Workload> {
    match name {
        "ocean" => Some(ocean::build(threads, &ocean::OceanParams::scaled(scale))),
        "raytrace" => Some(raytrace::build(
            threads,
            &raytrace::RaytraceParams::scaled(scale),
        )),
        "water-nsq" | "water" => Some(water::build(threads, &water::WaterParams::scaled(scale))),
        "radiosity" => Some(radiosity::build(
            threads,
            &radiosity::RadiosityParams::scaled(scale),
        )),
        "volrend" => Some(volrend::build(
            threads,
            &volrend::VolrendParams::scaled(scale),
        )),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detlock_ir::verify::verify_module;

    #[test]
    fn all_benchmarks_build_and_verify() {
        let ws = all_benchmarks(4, 0.05);
        assert_eq!(ws.len(), 5);
        for w in &ws {
            verify_module(&w.module).unwrap_or_else(|e| panic!("{}: {:?}", w.name, e));
            assert_eq!(w.threads.len(), 4);
            assert!(!w.entries.is_empty());
        }
    }

    #[test]
    fn by_name_resolves_paper_names() {
        for n in ["ocean", "raytrace", "water-nsq", "radiosity", "volrend"] {
            assert!(by_name(n, 2, 0.05).is_some(), "{n}");
        }
        assert!(by_name("fft", 2, 0.05).is_none());
    }
}
