//! Regenerates the paper tables of EXPERIMENTS.md: Table I, Table II,
//! Figures 14 and 15, and the core-count scaling extension.
//!
//! ```text
//! cargo build --release -p detlock-bench --bin paper
//! ./target/release/paper < EXPERIMENTS.md > paper.md && diff -u EXPERIMENTS.md paper.md
//! ```
//!
//! A stdin → stdout filter. The document is copied through byte for byte,
//! except the lines between a `<!-- paper:NAME -->` line and the next
//! `<!-- /paper -->` line, which become artifact NAME (`table1`, `table2`,
//! `fig14`, `fig15` or `scaling`) as markdown tables. Every setting is a
//! constant — the paper's 4 threads, seed 1, full scale (0.3 for
//! `scaling`), Kendo arbitration — so the output is a function of the
//! source tree alone, and a document that passes through unchanged holds
//! exactly what the code measures.
//!
//! Table I's 65 runs are made once and the other artifacts reuse them:
//! Figure 14 is its None and All rows, Figure 15 its radiosity None and O1
//! rows plus the one O1 build with clocks at block end, and Table II's
//! DetLock column its All row beside the Kendo sweep. Any argument, and an
//! unknown, duplicated or unterminated marker, is a usage error (exit 2)
//! found before anything is simulated.

use std::cell::OnceCell;
use std::io::{Read, Write};

use detlock_bench::{run_baseline, run_benchmark, run_kendo, run_level, BenchResult, LevelResult};
use detlock_passes::cost::CostModel;
use detlock_passes::pipeline::OptLevel;
use detlock_passes::plan::Placement;

/// The artifacts, by marker name.
const BLOCKS: [&str; 5] = ["table1", "table2", "fig14", "fig15", "scaling"];
const THREADS: usize = 4;
const SEED: u64 = 1;
/// The Kendo chunk sizes Table II sweeps; it reports the best.
const KENDO_CHUNKS: [u64; 7] = [256, 512, 1024, 2048, 4096, 8192, 16384];

/// Copy `doc` through, replacing the body of each generated block with
/// `render(name)`. The whole document is checked before `render` is first
/// called, so a malformed one costs no simulation.
fn splice(doc: &str, mut render: impl FnMut(&str) -> String) -> Result<String, String> {
    // Verbatim pieces, each but the last followed by its block's name.
    let mut pieces: Vec<(&str, Option<&str>)> = Vec::new();
    let mut open: Option<&str> = None;
    let (mut from, mut at) = (0, 0);
    for line in doc.split_inclusive('\n') {
        let bare = line.trim_end_matches(['\n', '\r']);
        if let Some(rest) = bare.strip_prefix("<!-- paper:") {
            let name = rest
                .strip_suffix(" -->")
                .filter(|n| BLOCKS.contains(n))
                .ok_or_else(|| format!("unknown marker `{bare}` (blocks: {BLOCKS:?})"))?;
            if let Some(outer) = open {
                return Err(format!("block `{outer}` is not closed before `{bare}`"));
            }
            if pieces.iter().any(|&(_, n)| n == Some(name)) {
                return Err(format!("block `{name}` appears twice"));
            }
            pieces.push((&doc[from..at + line.len()], Some(name)));
            open = Some(name);
        } else if bare.starts_with("<!-- /paper") {
            if bare != "<!-- /paper -->" {
                return Err(format!("unknown marker `{bare}`"));
            }
            if open.take().is_none() {
                return Err("`<!-- /paper -->` closes no block".to_string());
            }
            from = at;
        }
        at += line.len();
    }
    if let Some(name) = open {
        return Err(format!("block `{name}` is not closed"));
    }
    pieces.push((&doc[from..], None));
    Ok(pieces
        .into_iter()
        .map(|(text, name)| text.to_string() + &name.map(&mut render).unwrap_or_default())
        .collect())
}

/// One markdown table row.
fn row(label: &str, cells: impl IntoIterator<Item = String>) -> String {
    let mut s = format!("| {label} |");
    for c in cells {
        s += &format!(" {c} |");
    }
    s + "\n"
}

/// A markdown table's header row and its separator.
fn header<'a>(label: &str, cols: impl IntoIterator<Item = &'a str>) -> String {
    let head = row(label, cols.into_iter().map(str::to_string));
    let sep = "|---".repeat(head.matches(" |").count()) + "|\n";
    head + &sep
}

fn table1(results: &[BenchResult]) -> String {
    let names = results.iter().map(|r| r.name);
    let per_workload =
        |f: fn(&BenchResult) -> String| results.iter().map(f).chain(["—".to_string()]);
    let mut s = header("Row", names.clone().chain(["Average"]));
    s += &row(
        "Original exec time (simulated ms)",
        per_workload(|r| format!("{:.2}", r.baseline.seconds() * 1e3)),
    );
    s += &row(
        "Locks/sec",
        per_workload(|r| format!("{:.0}", r.baseline.locks_per_sec())),
    );
    s += &row(
        "Clockable functions",
        per_workload(|r| r.clockable_functions.to_string()),
    );
    for (half, det) in [
        ("After inserting clocks", false),
        ("After deterministic execution", true),
    ] {
        let pct = |l: &LevelResult| if det { l.det_pct } else { l.clocks_pct };
        s += "\n";
        s += &header(half, names.clone().chain(["Average"]));
        for level in OptLevel::table1_rows() {
            let pcts: Vec<f64> = results.iter().map(|r| pct(r.level(level))).collect();
            let average = pcts.iter().sum::<f64>() / pcts.len() as f64;
            let cells = pcts.into_iter().chain([average]);
            s += &row(level.label(), cells.map(|p| format!("{p:.0}%")));
        }
    }
    s
}

fn table2(results: &[BenchResult], cost: &CostModel) -> String {
    let kendo: Vec<_> = results
        .iter()
        .map(|r| {
            eprintln!("table2: {} ...", r.name);
            let w = detlock_workloads::kendo_dataset(r.name, THREADS, 1.0)
                .expect("every Table I workload has a Kendo dataset");
            run_kendo(&w, cost, SEED, &KENDO_CHUNKS)
        })
        .collect();
    let mut s = header("Row", results.iter().map(|r| r.name));
    s += &row(
        "Kendo locks/sec (Kendo dataset)",
        kendo.iter().map(|k| format!("{:.0}", k.locks_per_sec)),
    );
    s += &row(
        "Kendo overhead (best chunk)",
        kendo.iter().map(|k| format!("{:.0}%", k.pct)),
    );
    s += &row(
        "Kendo chunk size",
        kendo.iter().map(|k| k.chunk.to_string()),
    );
    s += &row(
        "DetLock locks/sec (our dataset)",
        results
            .iter()
            .map(|r| format!("{:.0}", r.baseline.locks_per_sec())),
    );
    s += &row(
        "DetLock overhead (all opts)",
        results
            .iter()
            .map(|r| format!("{:.0}%", r.level(OptLevel::All).det_pct)),
    );
    s
}

/// A stacked bar as total, clocks-only stack and deterministic stack.
fn bar(clocks_pct: f64, det_pct: f64) -> [String; 3] {
    [det_pct, clocks_pct, det_pct - clocks_pct].map(|p| format!("{p:.1}%"))
}

fn fig14(results: &[BenchResult]) -> String {
    let mut s = header("Benchmark", ["config", "total", "clocks", "det"]);
    for r in results {
        for (level, config) in [(OptLevel::None, "no-opt"), (OptLevel::All, "all-opts")] {
            let l = r.level(level);
            s += &row(
                r.name,
                [config.to_string()]
                    .into_iter()
                    .chain(bar(l.clocks_pct, l.det_pct)),
            );
        }
    }
    s
}

fn fig15(results: &[BenchResult], cost: &CostModel) -> String {
    eprintln!("fig15: radiosity O1, clocks at block end ...");
    let r = results
        .iter()
        .find(|r| r.name == "radiosity")
        .expect("Table I runs radiosity");
    let w = detlock_workloads::by_name("radiosity", THREADS, 1.0).expect("radiosity exists");
    let end = run_level(&w, cost, SEED, &r.baseline, OptLevel::O1, Placement::End);
    let mut s = header("Bar (radiosity)", ["total", "clocks", "det"]);
    for (label, l) in [
        ("No optimization", r.level(OptLevel::None)),
        ("O1, clocks at block end", &end),
        ("O1, clocks at block start", r.level(OptLevel::O1)),
    ] {
        s += &row(label, bar(l.clocks_pct, l.det_pct));
    }
    s
}

fn scaling(cost: &CostModel) -> String {
    let mut s = header(
        "Benchmark",
        ["threads", "baseline ms", "clocks", "det", "locks/sec"],
    );
    for name in ["radiosity", "raytrace"] {
        for threads in [1usize, 2, 4, 8] {
            eprintln!("scaling: {name} at {threads} threads ...");
            let w = detlock_workloads::by_name(name, threads, 0.3).expect("workload exists");
            let base = run_baseline(&w, cost, SEED);
            let l = run_level(&w, cost, SEED, &base, OptLevel::All, Placement::Start);
            s += &row(
                name,
                [
                    threads.to_string(),
                    format!("{:.3}", base.seconds() * 1e3),
                    format!("{:.1}%", l.clocks_pct),
                    format!("{:.1}%", l.det_pct),
                    format!("{:.0}", base.locks_per_sec()),
                ],
            );
        }
    }
    s
}

/// A usage error: one line on stderr and exit code 2, before any run.
fn usage(what: &str) -> ! {
    eprintln!("usage: paper < EXPERIMENTS.md > paper.md: {what}");
    std::process::exit(2)
}

fn main() {
    if std::env::args().len() > 1 {
        usage("paper takes no arguments");
    }
    let mut doc = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut doc) {
        usage(&format!("stdin: {e}"));
    }
    let cost = CostModel::default();
    let table1_runs = OnceCell::new();
    let runs = || {
        table1_runs.get_or_init(|| {
            detlock_workloads::all_benchmarks(THREADS, 1.0)
                .iter()
                .map(|w| {
                    eprintln!("table1: {} ...", w.name);
                    run_benchmark(w, &cost, SEED)
                })
                .collect::<Vec<_>>()
        })
    };
    let out = splice(&doc, |name| match name {
        "table1" => table1(runs()),
        "table2" => table2(runs(), &cost),
        "fig14" => fig14(runs()),
        "fig15" => fig15(runs(), &cost),
        "scaling" => scaling(&cost),
        other => unreachable!("splice passed an unknown block `{other}`"),
    })
    .unwrap_or_else(|e| usage(&e));
    std::io::stdout()
        .write_all(out.as_bytes())
        .expect("write stdout");
}

#[cfg(test)]
mod tests {
    use super::splice;

    /// Renders each block as one line naming it and how often it was asked.
    fn fake(doc: &str) -> Result<String, String> {
        let mut calls = 0;
        splice(doc, |name| {
            calls += 1;
            format!("generated {name} #{calls}\n")
        })
    }

    const DOC: &str = "# Title\r\n\nprose `<!-- paper:table1 -->` inline\n\
        <!-- paper:table1 -->\nstale row\nanother\n<!-- /paper -->\n\
        between\n<!-- paper:fig15 -->\n<!-- /paper -->\ntail without newline";

    #[test]
    fn text_outside_the_markers_is_copied_byte_for_byte() {
        assert_eq!(
            fake(DOC).unwrap(),
            "# Title\r\n\nprose `<!-- paper:table1 -->` inline\n\
             <!-- paper:table1 -->\ngenerated table1 #1\n<!-- /paper -->\n\
             between\n<!-- paper:fig15 -->\ngenerated fig15 #2\n<!-- /paper -->\n\
             tail without newline"
        );
        let plain = "no blocks\r\n\n  at all";
        assert_eq!(fake(plain).unwrap(), plain);
        assert_eq!(fake("").unwrap(), "");
    }

    #[test]
    fn splicing_twice_equals_splicing_once() {
        let render = |name: &str| format!("| {name} |\n|---|\n");
        let once = splice(DOC, render).unwrap();
        assert_eq!(splice(&once, render).unwrap(), once);
    }

    #[test]
    fn bad_markers_are_errors_before_any_block_renders() {
        for doc in [
            "<!-- paper:table3 -->\n<!-- /paper -->\n",
            "<!-- paper:table1-->\n<!-- /paper -->\n",
            "<!-- paper:table1 -->\n<!-- /paper-->\n",
            "<!-- paper:fig14 -->\n<!-- /paper -->\n<!-- paper:fig14 -->\n<!-- /paper -->\n",
            "<!-- paper:fig14 -->\nrow\n",
            "<!-- paper:fig14 -->\n<!-- paper:fig15 -->\n<!-- /paper -->\n",
            "<!-- /paper -->\n",
            "<!-- paper:table1 -->\n<!-- /paper -->\n<!-- paper:nope -->\n",
        ] {
            let mut rendered = false;
            let r = splice(doc, |_| {
                rendered = true;
                String::new()
            });
            assert!(r.is_err(), "{doc:?}");
            assert!(!rendered, "{doc:?}");
        }
    }
}
