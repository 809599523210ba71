//! Allocation budget of the cold compile path.
//!
//! One compile op takes the five SPLASH-2 modules (scale 1.0, printed to
//! text) through `parse_module → verify_module → instrument_with(serial) →
//! lower` at one of the 12 (Table I row × placement) configs, as the repo
//! benchmark's `compile` workload does. This test runs all 12 configs and
//! holds each stage's heap allocations per op (the mean over the configs)
//! under a fixed budget, so a change that brings back a per-block
//! temporary or a second copy of the module fails here rather than as a
//! few percent of benchmark noise.
//!
//! The counting allocator counts only the calling thread's allocations
//! (`alloc`, `alloc_zeroed` and `realloc` calls), so tests running in
//! parallel cannot disturb the count. The budgets leave about 10 % above
//! the measured counts: dev and release builds may elide different
//! allocations, and dev builds also verify the pipeline's output inside
//! `instrument_with`.

use detlock_ir::dot::function_to_text;
use detlock_ir::parse::parse_module;
use detlock_ir::verify::verify_module;
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::{instrument_with, CompileOpts, OptConfig, OptLevel};
use detlock_passes::plan::Placement;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Per-op budgets: (stage, allocations).
const BUDGET: [(&str, u64); 4] = [
    ("parse", 3_100),
    ("verify", 395),
    ("instrument", 7_450),
    ("lower", 770),
];

#[test]
fn cold_compile_stays_within_its_allocation_budget() {
    let cost = CostModel::default();
    let corpus: Vec<(String, Vec<detlock_ir::FuncId>)> = detlock_workloads::all_benchmarks(4, 1.0)
        .into_iter()
        .map(|w| {
            let text = w
                .module
                .functions
                .iter()
                .map(|f| function_to_text(f, |_| None))
                .collect();
            (text, w.entries)
        })
        .collect();
    let configs: Vec<(OptLevel, Placement)> = OptLevel::table1_rows()
        .into_iter()
        .flat_map(|level| [(level, Placement::Start), (level, Placement::End)])
        .collect();

    let mut totals = [0u64; 4];
    for &(level, placement) in &configs {
        let opt = OptConfig::only(level);
        for (text, entries) in &corpus {
            let (module, n) = counted(|| parse_module(text).expect("corpus parses"));
            totals[0] += n;
            let (ok, n) = counted(|| verify_module(&module).is_ok());
            assert!(ok);
            totals[1] += n;
            let (out, n) = counted(|| {
                instrument_with(
                    &module,
                    &cost,
                    &opt,
                    placement,
                    entries,
                    CompileOpts::serial(),
                )
            });
            totals[2] += n;
            let (lowered, n) = counted(|| detlock_vm::lower::lower(&out.module, &cost));
            totals[3] += n;
            black_box(lowered);
        }
    }

    let ops = configs.len() as u64;
    let report: Vec<String> = BUDGET
        .iter()
        .zip(totals)
        .map(|((stage, budget), total)| {
            format!("{stage}: {} per op (budget {budget})", total / ops)
        })
        .collect();
    eprintln!("{}", report.join("\n"));
    for ((stage, budget), total) in BUDGET.iter().zip(totals) {
        assert!(
            total / ops <= *budget,
            "{stage} makes {} allocations per compile op, over its budget of {budget}\n{}",
            total / ops,
            report.join("\n")
        );
    }
}
