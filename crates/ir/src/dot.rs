//! Human-readable dumps: a textual pretty-printer and Graphviz output,
//! optionally annotated with per-block clock values.
//!
//! The `compiler_pipeline` example uses these to reproduce the paper's
//! Figures 3–13 (the Radiosity running example at each optimization stage).

use crate::module::{Function, Module};
use crate::types::BlockId;
use std::fmt::Write as _;

/// Pretty-print a function as text. `clock(b)` supplies the per-block clock
/// annotation (`None` = unannotated dump).
pub fn function_to_text(func: &Function, clock: impl Fn(BlockId) -> Option<u64>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fn {}(params={}) {{", func.name, func.params);
    for (bid, block) in func.iter_blocks() {
        match clock(bid) {
            Some(c) => {
                let _ = writeln!(out, "  {} ({}):    clock = {}", block.name, bid, c);
            }
            None => {
                let _ = writeln!(out, "  {} ({}):", block.name, bid);
            }
        }
        for inst in &block.insts {
            let _ = writeln!(out, "    {inst}");
        }
        let _ = writeln!(out, "    {}", block.term);
    }
    let _ = writeln!(out, "}}");
    out
}

/// Feed `module`'s canonical text to `write`: the function count as a
/// little-endian `u64`, then each function's unannotated
/// [`function_to_text`] (name, params, blocks in order, every instruction
/// and terminator) followed by a `0xff` separator. The plan cache's key
/// and the golden suite's pin both hash exactly these bytes.
pub fn write_module_text(module: &Module, mut write: impl FnMut(&[u8])) {
    write(&(module.functions.len() as u64).to_le_bytes());
    for func in &module.functions {
        write(function_to_text(func, |_| None).as_bytes());
        write(&[0xff]);
    }
}

/// Emit a Graphviz `digraph` for a function. Nodes are labelled
/// `name\nclock = N` like the paper's figures; blocks whose clock is zero
/// (clock code removed by an optimization) are filled gray, mirroring the
/// paper's convention of graying removed blocks.
pub fn function_to_dot(func: &Function, clock: impl Fn(BlockId) -> Option<u64>) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", func.name);
    let _ = writeln!(out, "  node [shape=box, fontname=\"monospace\"];");
    for (bid, block) in func.iter_blocks() {
        let label = match clock(bid) {
            Some(c) => format!("{}\\nclock = {}", block.name, c),
            None => block.name.clone(),
        };
        let style = match clock(bid) {
            Some(0) => ", style=filled, fillcolor=gray80",
            _ => "",
        };
        let _ = writeln!(out, "  {} [label=\"{}\"{}];", bid.0, label, style);
    }
    for (bid, block) in func.iter_blocks() {
        let mut seen: Vec<BlockId> = Vec::new();
        for s in block.successors() {
            if !seen.contains(&s) {
                seen.push(s);
                let _ = writeln!(out, "  {} -> {};", bid.0, s.0);
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::inst::CmpOp;

    fn sample() -> Function {
        let mut fb = FunctionBuilder::new("sample", 1);
        fb.block("entry");
        let a = fb.create_block("if.then");
        let b = fb.create_block("if.end");
        let p = fb.param(0);
        let c = fb.cmp(CmpOp::Gt, p, 0);
        fb.cond_br(c, a, b);
        fb.switch_to(a);
        fb.compute(2);
        fb.br(b);
        fb.switch_to(b);
        fb.ret_void();
        fb.finish().unwrap()
    }

    #[test]
    fn text_contains_blocks_and_clocks() {
        let f = sample();
        let txt = function_to_text(&f, |b| Some(b.0 as u64 * 10));
        assert!(txt.contains("fn sample"));
        assert!(txt.contains("entry (bb0):    clock = 0"));
        assert!(txt.contains("if.end (bb2):    clock = 20"));
        assert!(txt.contains("condbr"));
    }

    #[test]
    fn text_without_clocks() {
        let f = sample();
        let txt = function_to_text(&f, |_| None);
        assert!(txt.contains("entry (bb0):\n"));
        assert!(!txt.contains("clock ="));
    }

    #[test]
    fn dot_shape() {
        let f = sample();
        let dot = function_to_dot(&f, |b| Some(if b.0 == 1 { 0 } else { 5 }));
        assert!(dot.starts_with("digraph \"sample\""));
        assert!(dot.contains("0 -> 1;"));
        assert!(dot.contains("0 -> 2;"));
        assert!(dot.contains("1 -> 2;"));
        // Zero-clock block grayed out.
        assert!(dot.contains("fillcolor=gray80"));
        assert!(dot.contains("clock = 5"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
