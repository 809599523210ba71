//! Textual IR parser — the inverse of [`crate::dot::function_to_text`].
//!
//! The format is exactly what the pretty-printer emits, so modules survive a
//! print → parse → print round trip (the property tests check the printed
//! fixpoint). This is what makes the `dlc` driver binary usable: write a
//! program in a file, instrument it, run it.
//!
//! ```text
//! fn kernel(params=1) {
//!   entry (bb0):
//!     r1 = const 0
//!     r2 = cmp.lt r1, r0
//!     condbr r2, bb1, bb2
//!   body (bb1):
//!     r1 = add r1, 1
//!     br bb0
//!   done (bb2):
//!     ret r1
//! }
//! ```
//!
//! Block headers may carry `clock = N` annotations (as in instrumented
//! dumps); the annotation is ignored. Lines starting with `#` or `//` are
//! comments. Function references are positional: `@f0` is the first
//! function in the file.

use crate::inst::{BinOp, Builtin, CmpOp, Inst, Operand, Terminator};
use crate::module::{Block, Function, Module};
use crate::types::{BarrierId, BlockId, FuncId, Reg};

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        message: message.into(),
    })
}

/// Parse a whole module.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut p = Parser::new(text);
    let mut module = Module::new();
    while let Some(header) = p.skip_blank() {
        let f = p.parse_function(header)?;
        module.add_function(f);
    }
    if module.functions.is_empty() {
        return err(1, "no functions in input");
    }
    Ok(module)
}

/// A cursor over the input's lines; every line is trimmed once, as it
/// becomes current.
struct Parser<'a> {
    rest: std::str::Lines<'a>,
    /// The trimmed line at `pos`; `None` past the last one.
    cur: Option<&'a str>,
    /// 0-based index of `cur`.
    pos: usize,
    /// Scratch for the registers one instruction names.
    regs: Vec<Reg>,
    /// The instructions of the block being read; its terminator copies
    /// them out at their exact count.
    insts: Vec<Inst>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        let mut rest = text.lines();
        Parser {
            cur: rest.next().map(str::trim),
            rest,
            pos: 0,
            regs: Vec::new(),
            insts: Vec::new(),
        }
    }

    fn lineno(&self) -> usize {
        self.pos + 1
    }

    fn advance(&mut self) {
        self.cur = self.rest.next().map(str::trim);
        self.pos += 1;
    }

    /// Skip blank and comment lines; the line now current, if any is left.
    fn skip_blank(&mut self) -> Option<&'a str> {
        while let Some(l) = self.cur {
            if l.is_empty() || l.starts_with('#') || l.starts_with("//") {
                self.advance();
            } else {
                break;
            }
        }
        self.cur
    }

    /// Parse one function; `line` is the current line, its header.
    fn parse_function(&mut self, line: &str) -> Result<Function, ParseError> {
        let ln = self.lineno();
        let rest = line.strip_prefix("fn ").ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected `fn name(params=N) {{`, got `{line}`"),
        })?;
        let open = rest.find('(').ok_or_else(|| ParseError {
            line: ln,
            message: "missing `(` in function header".into(),
        })?;
        let name = rest[..open].trim().to_string();
        let after_open = &rest[open + 1..];
        let close = after_open.find(')').ok_or_else(|| ParseError {
            line: ln,
            message: "missing `)` in function header".into(),
        })?;
        let params_part = after_open[..close].trim();
        let params: u32 = params_part
            .strip_prefix("params=")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| ParseError {
                line: ln,
                message: format!("expected `params=N`, got `{params_part}`"),
            })?;
        if !after_open[close + 1..].trim_start().starts_with('{') {
            return err(ln, "expected `{` after function header");
        }
        self.advance();

        let mut blocks: Vec<(String, Vec<Inst>, Option<Terminator>)> = Vec::new();
        let mut max_reg: u32 = params.saturating_sub(1);

        loop {
            let Some(l) = self.skip_blank() else {
                return err(self.lineno(), "unexpected end of input inside function");
            };
            let ln = self.lineno();
            if l == "}" {
                self.advance();
                break;
            }
            if l.ends_with(':') || l.contains("):") {
                blocks.push((parse_block_header(l, ln, blocks.len())?, Vec::new(), None));
                self.insts.clear();
                self.advance();
                continue;
            }

            // Instruction or terminator inside the current block.
            let Some(cur) = blocks.last_mut() else {
                return err(ln, format!("statement `{l}` before any block header"));
            };
            if cur.2.is_some() {
                return err(ln, format!("statement `{l}` after block terminator"));
            }
            match parse_statement(l, ln)? {
                Statement::Term(term) => {
                    if let Some(r) = term_reg(&term) {
                        max_reg = max_reg.max(r.0);
                    }
                    cur.1 = self.insts.drain(..).collect();
                    cur.2 = Some(term);
                }
                Statement::Inst(inst) => {
                    self.regs.clear();
                    inst.uses(&mut self.regs);
                    self.regs.extend(inst.def());
                    max_reg = self.regs.iter().fold(max_reg, |m, r| m.max(r.0));
                    self.insts.push(inst);
                }
            }
            self.advance();
        }

        if blocks.is_empty() {
            return err(self.lineno(), "function has no blocks");
        }
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, (name, insts, term))| {
                let term = term.ok_or_else(|| ParseError {
                    line: self.lineno(),
                    message: format!("block bb{i} (`{name}`) has no terminator"),
                })?;
                Ok(Block { name, insts, term })
            })
            .collect::<Result<Vec<_>, ParseError>>()?;
        Ok(Function {
            name,
            params,
            num_regs: max_reg + 1,
            blocks,
        })
    }
}

/// Parse a block header — `name (bbK):` or `name:`, either with an optional
/// trailing `clock = N` — into the block's name. `expected` is the id the
/// block gets; an explicit `bbK` must agree with it.
fn parse_block_header(l: &str, ln: usize, expected: usize) -> Result<String, ParseError> {
    let header = if l.contains('=') {
        l.split("clock =").next().unwrap_or(l).trim_end()
    } else {
        l
    };
    let header = header.trim_end_matches(':').trim_end();
    let Some(i) = header.find(" (bb") else {
        return Ok(header.trim_end_matches(':').to_string());
    };
    let id: usize = header[i + 4..]
        .trim_end_matches(')')
        .parse()
        .map_err(|_| ParseError {
            line: ln,
            message: format!("bad block id in `{l}`"),
        })?;
    if id != expected {
        return err(
            ln,
            format!("block id bb{id} out of order (expected bb{expected})"),
        );
    }
    Ok(header[..i].trim_end().to_string())
}

/// The register a terminator reads, if any.
fn term_reg(t: &Terminator) -> Option<Reg> {
    match t {
        Terminator::CondBr { cond, .. } => Some(*cond),
        Terminator::Switch { disc, .. } => Some(*disc),
        Terminator::Ret {
            value: Some(Operand::Reg(r)),
        } => Some(*r),
        _ => None,
    }
}

fn parse_reg(tok: &str, line: usize) -> Result<Reg, ParseError> {
    tok.strip_prefix('r')
        .and_then(|v| v.parse().ok())
        .map(Reg)
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected register, got `{tok}`"),
        })
}

fn parse_block_ref(tok: &str, line: usize) -> Result<BlockId, ParseError> {
    tok.strip_prefix("bb")
        .and_then(|v| v.parse().ok())
        .map(BlockId)
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected block reference, got `{tok}`"),
        })
}

fn parse_operand(tok: &str, line: usize) -> Result<Operand, ParseError> {
    let tok = tok.trim();
    match tok.strip_prefix('r') {
        Some(n) if !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()) => {
            parse_reg(tok, line).map(Operand::Reg)
        }
        _ => tok
            .parse::<i64>()
            .map(Operand::Imm)
            .map_err(|_| ParseError {
                line,
                message: format!("expected operand (rN or integer), got `{tok}`"),
            }),
    }
}

/// Split `s` at its commas into exactly `N` trimmed operands.
fn operands<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut parts = s.split(',');
    let mut out = [""; N];
    for slot in &mut out {
        *slot = parts.next()?.trim();
    }
    parts.next().is_none().then_some(out)
}

fn binop_from(mnemonic: &str) -> Option<BinOp> {
    Some(match mnemonic {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "xor" => BinOp::Xor,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        _ => return None,
    })
}

fn cmpop_from(mnemonic: &str) -> Option<CmpOp> {
    Some(match mnemonic {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        _ => return None,
    })
}

fn builtin_from(name: &str) -> Option<Builtin> {
    Builtin::all().iter().copied().find(|b| b.name() == name)
}

/// Parse `[rA+K]` into (addr, offset).
fn parse_mem(tok: &str, line: usize) -> Result<(Reg, i64), ParseError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|t| t.strip_suffix(']'))
        .ok_or_else(|| ParseError {
            line,
            message: format!("expected `[rA+K]`, got `{tok}`"),
        })?;
    // Offset may be negative: rA+-3 prints as r0+-3.
    let (addr, offset) = inner.split_once('+').ok_or_else(|| ParseError {
        line,
        message: format!("expected `+` in address `{tok}`"),
    })?;
    let addr = parse_reg(addr, line)?;
    let offset: i64 = offset.parse().map_err(|_| ParseError {
        line,
        message: format!("bad offset in `{tok}`"),
    })?;
    Ok((addr, offset))
}

fn parse_call_args(argstr: &str, line: usize) -> Result<Vec<Operand>, ParseError> {
    let argstr = argstr.trim();
    if argstr.is_empty() {
        return Ok(vec![]);
    }
    argstr.split(',').map(|a| parse_operand(a, line)).collect()
}

/// One line of a block body.
enum Statement {
    Inst(Inst),
    Term(Terminator),
}

/// Parse a trimmed, non-blank body line that is not a block header.
///
/// The line is dispatched on its keyword — the leading run of lowercase
/// letters — and on the character after it: a terminator's keyword is a
/// whole whitespace-delimited token, `store` / `tick` / `lock` / `unlock` /
/// `barrier` take a space, `call` a space or `@`, a builtin's name its `(`.
/// Anything else has to be an assignment `rN = …`.
fn parse_statement(l: &str, ln: usize) -> Result<Statement, ParseError> {
    let word_end = l
        .bytes()
        .position(|b| !b.is_ascii_lowercase())
        .unwrap_or(l.len());
    let (word, rest) = l.split_at(word_end);
    let next = rest.chars().next();
    let whole_token = next.is_none_or(char::is_whitespace);
    let spaced = next == Some(' ');
    let inst = match word {
        "br" if whole_token => {
            let target = parse_block_ref(rest.split_whitespace().next().unwrap_or(""), ln)?;
            return Ok(Statement::Term(Terminator::Br { target }));
        }
        "condbr" if whole_token => {
            // condbr r4, bb2, bb15
            let Some([cond, then_bb, else_bb]) = operands(rest) else {
                return err(ln, format!("expected `condbr rC, bbT, bbF`, got `{l}`"));
            };
            return Ok(Statement::Term(Terminator::CondBr {
                cond: parse_reg(cond, ln)?,
                then_bb: parse_block_ref(then_bb, ln)?,
                else_bb: parse_block_ref(else_bb, ln)?,
            }));
        }
        "switch" if whole_token => return parse_switch(rest, ln).map(Statement::Term),
        "ret" if whole_token => {
            let rest = rest.trim_start();
            let value = if rest.is_empty() {
                None
            } else {
                Some(parse_operand(rest, ln)?)
            };
            return Ok(Statement::Term(Terminator::Ret { value }));
        }
        "store" if spaced => {
            // store [r2+8] = r3
            let (mem, src) = rest.split_once('=').ok_or_else(|| ParseError {
                line: ln,
                message: format!("expected `store [..] = v`, got `{l}`"),
            })?;
            let (addr, offset) = parse_mem(mem.trim(), ln)?;
            Inst::Store {
                src: parse_operand(src, ln)?,
                addr,
                offset,
            }
        }
        "tick" if spaced => parse_tick(l, rest, ln)?,
        "lock" if spaced => Inst::Lock {
            id: parse_operand(rest, ln)?,
        },
        "unlock" if spaced => Inst::Unlock {
            id: parse_operand(rest, ln)?,
        },
        "barrier" if spaced => {
            let id = rest
                .trim_start()
                .strip_prefix("bar")
                .and_then(|v| v.parse().ok())
                .map(BarrierId)
                .ok_or_else(|| ParseError {
                    line: ln,
                    message: format!("expected `barrier barN`, got `{l}`"),
                })?;
            Inst::Barrier { id }
        }
        "call" if spaced || next == Some('@') => parse_call(None, rest, ln)?,
        _ => {
            let builtin = matches!(next, None | Some('('))
                .then(|| builtin_from(word))
                .flatten();
            match builtin {
                Some(bi) => parse_builtin_call(None, bi, l, ln)?,
                None => parse_assignment(l, ln)?,
            }
        }
    };
    Ok(Statement::Inst(inst))
}

/// `switch r1 [0 -> bb2, 1 -> bb3] default bb4`, keyword already taken.
fn parse_switch(rest: &str, ln: usize) -> Result<Terminator, ParseError> {
    let open = rest.find('[').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `[` in switch".into(),
    })?;
    let close = rest.rfind(']').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `]` in switch".into(),
    })?;
    // A `]` before the `[` would sit in the discriminant, which then fails.
    let disc = parse_reg(rest[..open].trim(), ln)?;
    let mut cases = Vec::new();
    let body = rest[open + 1..close].trim();
    if !body.is_empty() {
        for case in body.split(',') {
            let (v, b) = case.split_once("->").ok_or_else(|| ParseError {
                line: ln,
                message: format!("bad switch case `{case}`"),
            })?;
            let v: i64 = v.trim().parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad case value `{v}`"),
            })?;
            cases.push((v, parse_block_ref(b.trim(), ln)?));
        }
    }
    let default = rest[close + 1..]
        .trim_start()
        .strip_prefix("default")
        .ok_or_else(|| ParseError {
            line: ln,
            message: "missing `default bbN` in switch".into(),
        })?;
    Ok(Terminator::Switch {
        disc,
        cases,
        default: parse_block_ref(default.trim_start(), ln)?,
    })
}

/// `tick 7` or `tick 3 + 2*r5`, keyword already taken (`l` is the whole
/// line, for messages).
fn parse_tick(l: &str, rest: &str, ln: usize) -> Result<Inst, ParseError> {
    let Some((base, scaled)) = rest.split_once('+') else {
        let amount = rest.trim_start().parse().map_err(|_| ParseError {
            line: ln,
            message: format!("bad tick amount in `{l}`"),
        })?;
        return Ok(Inst::Tick { amount });
    };
    let base = base.trim().parse().map_err(|_| ParseError {
        line: ln,
        message: format!("bad tick base in `{l}`"),
    })?;
    let (per, size) = scaled.split_once('*').ok_or_else(|| ParseError {
        line: ln,
        message: format!("expected `per*size` in `{l}`"),
    })?;
    let per_unit = per.trim().parse().map_err(|_| ParseError {
        line: ln,
        message: format!("bad tick coefficient in `{l}`"),
    })?;
    Ok(Inst::TickDyn {
        base,
        per_unit,
        size: parse_operand(size, ln)?,
    })
}

/// Destination forms: `rN = …`.
fn parse_assignment(l: &str, ln: usize) -> Result<Inst, ParseError> {
    let unrecognized = || ParseError {
        line: ln,
        message: format!("unrecognized statement `{l}`"),
    };
    let (dst, rhs) = l.split_once('=').ok_or_else(unrecognized)?;
    let dst = parse_reg(dst.trim_end(), ln)?;
    let rhs = rhs.trim_start();
    let (head, args) = rhs.split_at(rhs.find(char::is_whitespace).unwrap_or(rhs.len()));
    let two = |what: &str| {
        operands::<2>(args).ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected `{what} rA, v`, got `{l}`"),
        })
    };
    match head {
        "const" => {
            let value = args.trim_start().parse().map_err(|_| ParseError {
                line: ln,
                message: format!("bad constant in `{l}`"),
            })?;
            Ok(Inst::Const { dst, value })
        }
        "mov" => Ok(Inst::Mov {
            dst,
            src: parse_operand(args, ln)?,
        }),
        "load" => {
            let (addr, offset) = parse_mem(args.trim_start(), ln)?;
            Ok(Inst::Load { dst, addr, offset })
        }
        _ if rhs.starts_with("call") => parse_call(Some(dst), &rhs["call".len()..], ln),
        _ => {
            if let Some(op) = head.strip_prefix("cmp.").and_then(cmpop_from) {
                let [lhs, rhs] = two("cmp.op")?;
                Ok(Inst::Cmp {
                    op,
                    dst,
                    lhs: parse_reg(lhs, ln)?,
                    rhs: parse_operand(rhs, ln)?,
                })
            } else if let Some(op) = binop_from(head) {
                let [lhs, rhs] = two(head)?;
                Ok(Inst::Bin {
                    op,
                    dst,
                    lhs: parse_reg(lhs, ln)?,
                    rhs: parse_operand(rhs, ln)?,
                })
            } else if let Some(bi) = rhs.split('(').next().and_then(builtin_from) {
                parse_builtin_call(Some(dst), bi, rhs, ln)
            } else {
                Err(unrecognized())
            }
        }
    }
}

/// `@f3(r2, 5)`, after the `call` keyword.
fn parse_call(dst: Option<Reg>, rest: &str, ln: usize) -> Result<Inst, ParseError> {
    let rest = rest.trim();
    let func = rest
        .strip_prefix("@f")
        .and_then(|r| r.split('(').next())
        .and_then(|v| v.parse().ok())
        .map(FuncId)
        .ok_or_else(|| ParseError {
            line: ln,
            message: format!("expected `@fN(...)`, got `{rest}`"),
        })?;
    let open = rest.find('(').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `(` in call".into(),
    })?;
    let close = rest.rfind(')').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `)` in call".into(),
    })?;
    let args = parse_call_args(&rest[open + 1..close], ln)?;
    Ok(Inst::Call { func, args, dst })
}

fn parse_builtin_call(
    dst: Option<Reg>,
    builtin: Builtin,
    text: &str,
    ln: usize,
) -> Result<Inst, ParseError> {
    let open = text.find('(').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `(` in builtin call".into(),
    })?;
    let close = text.rfind(')').ok_or_else(|| ParseError {
        line: ln,
        message: "missing `)` in builtin call".into(),
    })?;
    let args = parse_call_args(&text[open + 1..close], ln)?;
    let tail = text[close + 1..].trim();
    let size_arg = if let Some(sz) = tail.strip_prefix("[size=#") {
        let k: usize = sz.trim_end_matches(']').parse().map_err(|_| ParseError {
            line: ln,
            message: format!("bad size annotation `{tail}`"),
        })?;
        Some(k)
    } else {
        None
    };
    Ok(Inst::CallBuiltin {
        builtin,
        args,
        dst,
        size_arg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot::function_to_text;
    use crate::verify::verify_module;

    fn print_module(m: &Module) -> String {
        m.functions
            .iter()
            .map(|f| function_to_text(f, |_| None))
            .collect::<Vec<_>>()
            .join("\n")
    }

    const SAMPLE: &str = r#"
fn helper(params=1) {
  entry (bb0):
    r1 = add r0, 3
    ret r1
}

fn main(params=2) {
  entry (bb0):
    r2 = const 0
    r3 = mov r2
    br bb1
  loop.head (bb1):
    r4 = cmp.lt r2, r1
    condbr r4, bb2, bb3
  loop.body (bb2):
    r5 = call @f0(r2)
    r6 = load [r0+4]
    store [r0+8] = r6
    tick 7
    tick 2 + 1*r5
    lock 3
    unlock 3
    barrier bar0
    r2 = add r2, 1
    memset(r0, 0, 16) [size=#2]
    br bb1
  done (bb3):
    r7 = sqrt(r2)
    switch r7 [0 -> bb0, 5 -> bb3] default bb1
}
"#;

    #[test]
    fn parses_sample_and_verifies() {
        let m = parse_module(SAMPLE).unwrap();
        assert_eq!(m.functions.len(), 2);
        assert!(verify_module(&m).is_ok());
        let main = m.func_by_name("main").unwrap();
        let f = m.func(main);
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[2].insts.len(), 10);
        assert!(f.blocks[2].insts.iter().any(|i| i.is_tick()));
    }

    #[test]
    fn print_parse_print_fixpoint_on_sample() {
        let m1 = parse_module(SAMPLE).unwrap();
        let p1 = print_module(&m1);
        let m2 = parse_module(&p1).unwrap();
        let p2 = print_module(&m2);
        assert_eq!(p1, p2);
    }

    #[test]
    fn builder_modules_round_trip() {
        use crate::builder::FunctionBuilder;
        let mut m = Module::new();
        let mut fb = FunctionBuilder::new("leaf", 1);
        fb.block("entry");
        let p = fb.param(0);
        let v = fb.mul(p, -3);
        fb.store(v, -2, 11i64);
        fb.ret(v);
        fb.finish_into(&mut m);

        let p1 = print_module(&m);
        let m2 = parse_module(&p1).unwrap();
        assert_eq!(print_module(&m2), p1);
    }

    #[test]
    fn error_messages_carry_line_numbers() {
        let e = parse_module("fn f(params=0) {\n  entry (bb0):\n    garbage here\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("garbage"));

        let e = parse_module("not a function").unwrap_err();
        assert_eq!(e.line, 1);
    }

    /// A `)` before the header's `(` used to slice backwards and panic; the
    /// closing parenthesis is the first one after the opening one.
    #[test]
    fn stray_close_paren_before_the_open_one_is_not_a_panic() {
        let e = parse_module("fn )(").unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (1, "missing `)` in function header")
        );
        let m = parse_module("fn a)b(params=0) {\n  e:\n    ret\n}").unwrap();
        assert_eq!(m.functions[0].name, "a)b");
    }

    #[test]
    fn rejects_out_of_order_block_ids() {
        let e = parse_module("fn f(params=0) {\n  a (bb1):\n    ret\n}").unwrap_err();
        assert!(e.message.contains("out of order"));
    }

    #[test]
    fn rejects_unterminated_block() {
        let e = parse_module("fn f(params=0) {\n  a (bb0):\n    r0 = const 1\n}").unwrap_err();
        assert!(e.message.contains("no terminator"), "{e}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let m = parse_module(
            "# leading comment\n\nfn f(params=0) {\n  // block\n  entry (bb0):\n    ret\n}\n",
        )
        .unwrap();
        assert_eq!(m.functions.len(), 1);
    }

    #[test]
    fn clock_annotations_in_headers_are_ignored() {
        let m =
            parse_module("fn f(params=0) {\n  entry (bb0):    clock = 42\n    ret\n}\n").unwrap();
        assert_eq!(m.functions[0].blocks[0].name, "entry");
    }

    #[test]
    fn negative_offsets_and_immediates() {
        let m = parse_module(
            "fn f(params=1) {\n  entry (bb0):\n    r1 = load [r0+-3]\n    store [r0+-5] = -17\n    ret -1\n}\n",
        )
        .unwrap();
        let b = &m.functions[0].blocks[0];
        assert_eq!(
            b.insts[0],
            Inst::Load {
                dst: Reg(1),
                addr: Reg(0),
                offset: -3
            }
        );
        assert_eq!(
            b.insts[1],
            Inst::Store {
                src: Operand::Imm(-17),
                addr: Reg(0),
                offset: -5
            }
        );
    }
}
