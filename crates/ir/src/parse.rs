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
//!
//! One byte cursor walks each line: it ends at `\n`, loses exactly
//! `str::trim`'s whitespace, and is dispatched on its first bytes; ids and
//! integers are decoded on bytes as `str::parse` reads them, by small
//! decoders that are always inlined (as calls they cost ≈8 % of a parse).
//! Every outcome of ≈1 700 inputs, whitespace and number spellings
//! included, is pinned by `parser_outcomes_are_pinned`
//! (`tests/pass_properties.rs`), which CI also runs in release.

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

/// Parse a whole module.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    let mut p = Parser {
        text,
        next: 0,
        cur: None,
        paren: false,
        pos: 0,
        max_reg: 0,
    };
    p.cur = p.read_line();
    let mut module = Module::new();
    while let Some(header) = p.skip_blank() {
        let f = p.parse_function(header)?;
        module.add_function(f);
    }
    if module.functions.is_empty() {
        return Err(ParseError {
            line: 1,
            message: "no functions in input".into(),
        });
    }
    Ok(module)
}

/// A cursor over the input's lines; every line is trimmed once, as it
/// becomes current.
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the line after `cur`.
    next: usize,
    /// The trimmed line at `pos`; `None` past the last one.
    cur: Option<&'a str>,
    /// Whether `cur` holds a `)`: only then can it contain a header's `):`.
    paren: bool,
    /// 0-based index of `cur`.
    pos: usize,
    /// The largest register the function being read names so far.
    max_reg: u32,
}

impl<'a> Parser<'a> {
    /// The next line, trimmed. Lines split as `str::lines` splits them: at
    /// `\n`, with no line after a final one (a `\r` before the `\n` goes
    /// with the rest of the trailing whitespace).
    fn read_line(&mut self) -> Option<&'a str> {
        let rest = self.text.as_bytes().get(self.next..)?;
        if rest.is_empty() {
            return None;
        }
        let (len, paren) = line_len(rest);
        self.paren = paren;
        // Indentation is spaces: up to eight of them are skipped at once.
        let spaces = rest.first_chunk().map_or(0, |&w| {
            let w = u64::from_le_bytes(w) ^ u64::from_le_bytes([b' '; 8]);
            w.trailing_zeros() as usize / 8
        });
        let line = &self.text[self.next + spaces.min(len)..self.next + len];
        self.next += len + 1;
        Some(trim(line))
    }

    fn lineno(&self) -> usize {
        self.pos + 1
    }

    fn advance(&mut self) {
        self.cur = self.read_line();
        self.pos += 1;
    }

    /// A positioned error on the current line.
    #[cold]
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.lineno(),
            message: message.into(),
        }
    }

    /// Skip blank and comment lines; the line now current, if any is left.
    fn skip_blank(&mut self) -> Option<&'a str> {
        while let Some([] | [b'#', ..] | [b'/', b'/', ..]) = self.cur.map(str::as_bytes) {
            self.advance();
        }
        self.cur
    }

    /// Parse one function; `line` is the current line, its header.
    fn parse_function(&mut self, line: &str) -> Result<Function, ParseError> {
        let rest = line
            .strip_prefix("fn ")
            .ok_or_else(|| self.error(format!("expected `fn name(params=N) {{`, got `{line}`")))?;
        let open = rest
            .find('(')
            .ok_or_else(|| self.error("missing `(` in function header"))?;
        let name = trim(&rest[..open]).to_string();
        let after_open = &rest[open + 1..];
        let close = after_open
            .find(')')
            .ok_or_else(|| self.error("missing `)` in function header"))?;
        let params_part = trim(&after_open[..close]);
        let params: u32 = params_part
            .strip_prefix("params=")
            .and_then(unsigned)
            .ok_or_else(|| self.error(format!("expected `params=N`, got `{params_part}`")))?;
        if !trim_start(&after_open[close + 1..]).starts_with('{') {
            return Err(self.error("expected `{` after function header"));
        }
        self.advance();

        let mut blocks: Vec<(String, Vec<Inst>, Option<Terminator>)> = Vec::new();
        self.max_reg = params.saturating_sub(1);
        loop {
            let Some(l) = self.skip_blank() else {
                return Err(self.error("unexpected end of input inside function"));
            };
            if l == "}" {
                self.advance();
                break;
            }
            if l.ends_with(':') || (self.paren && l.contains("):")) {
                // A block holds about nine instructions in the SPLASH-2 corpus.
                let insts = Vec::with_capacity(8);
                blocks.push((self.block_header(l, blocks.len())?, insts, None));
            } else {
                let Some((_, insts, term)) = blocks.last_mut() else {
                    return Err(self.error(format!("statement `{l}` before any block header")));
                };
                if term.is_some() {
                    return Err(self.error(format!("statement `{l}` after block terminator")));
                }
                *term = self.statement(l, insts)?;
            }
            self.advance();
        }

        if blocks.is_empty() {
            return Err(self.error("function has no blocks"));
        }
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, (name, insts, term))| {
                let term = term.ok_or_else(|| {
                    self.error(format!("block bb{i} (`{name}`) has no terminator"))
                })?;
                Ok(Block { name, insts, term })
            })
            .collect::<Result<Vec<_>, ParseError>>()?;
        Ok(Function {
            name,
            params,
            // `reg` refuses `u32::MAX`, so this cannot overflow.
            num_regs: self.max_reg + 1,
            blocks,
        })
    }

    /// Parse a block header — `name (bbK):` or `name:`, either with an
    /// optional trailing `clock = N` — into the block's name. `expected` is
    /// the id the block gets; an explicit `bbK` must agree with it.
    fn block_header(&self, l: &str, expected: usize) -> Result<String, ParseError> {
        let header = match l.bytes().any(|b| b == b'=') {
            true => trim_end(l.split("clock =").next().unwrap_or(l)),
            false => l,
        };
        let header = trim_end(strip_end(header, b':'));
        let Some(i) = header.as_bytes().windows(4).position(|w| w == b" (bb") else {
            return Ok(strip_end(header, b':').to_string());
        };
        let id: usize = unsigned(strip_end(&header[i + 4..], b')'))
            .ok_or_else(|| self.error(format!("bad block id in `{l}`")))?;
        if id != expected {
            return Err(self.error(format!(
                "block id bb{id} out of order (expected bb{expected})"
            )));
        }
        Ok(trim_end(&header[..i]).to_string())
    }

    /// `rN`, with `N` below `u32::MAX` so that the register count `N + 1`
    /// fits; raises the function's `max_reg`.
    #[inline(always)]
    fn reg(&mut self, tok: &str) -> Result<Reg, ParseError> {
        match tok.strip_prefix('r').and_then(unsigned) {
            Some(n) if n < u32::MAX => {
                self.max_reg = self.max_reg.max(n);
                Ok(Reg(n))
            }
            Some(_) => Err(self.error(format!(
                "register `{tok}` is out of range (at most r{})",
                u32::MAX - 1
            ))),
            None => Err(self.error(format!("expected register, got `{tok}`"))),
        }
    }

    fn block_ref(&self, tok: &str) -> Result<BlockId, ParseError> {
        tok.strip_prefix("bb")
            .and_then(unsigned)
            .map(BlockId)
            .ok_or_else(|| self.error(format!("expected block reference, got `{tok}`")))
    }

    #[inline(always)]
    fn operand(&mut self, tok: &str) -> Result<Operand, ParseError> {
        let tok = trim(tok);
        match tok.as_bytes() {
            [b'r', n @ ..] if !n.is_empty() && n.iter().all(u8::is_ascii_digit) => {
                self.reg(tok).map(Operand::Reg)
            }
            _ => signed(tok).map(Operand::Imm).ok_or_else(|| {
                self.error(format!("expected operand (rN or integer), got `{tok}`"))
            }),
        }
    }

    /// `[rA+K]` into (addr, offset).
    fn mem(&mut self, tok: &str) -> Result<(Reg, i64), ParseError> {
        let inner = tok
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .ok_or_else(|| self.error(format!("expected `[rA+K]`, got `{tok}`")))?;
        // Offset may be negative: rA+-3 prints as r0+-3.
        let (addr, offset) = split_once(inner, b'+')
            .ok_or_else(|| self.error(format!("expected `+` in address `{tok}`")))?;
        let addr = self.reg(addr)?;
        let offset = signed(offset).ok_or_else(|| self.error(format!("bad offset in `{tok}`")))?;
        Ok((addr, offset))
    }

    fn call_args(&mut self, argstr: &str) -> Result<Vec<Operand>, ParseError> {
        let mut args = Vec::new();
        let mut rest = Some(trim(argstr)).filter(|a| !a.is_empty());
        while let Some(a) = rest {
            let (arg, more) = part(a, b',');
            args.push(self.operand(arg)?);
            rest = more;
        }
        Ok(args)
    }

    /// Parse a trimmed, non-blank body line that is not a block header: an
    /// instruction is pushed onto `insts`, a terminator is returned.
    ///
    /// The line is dispatched on its keyword — the leading run of lowercase
    /// letters — and on the byte after it: a terminator's keyword is a
    /// whole whitespace-delimited token, `store` / `tick` / `lock` /
    /// `unlock` / `barrier` take a space, `call` a space or `@`, a
    /// builtin's name its `(`. Anything else has to be an assignment
    /// `rN = …`.
    fn statement(
        &mut self,
        l: &str,
        insts: &mut Vec<Inst>,
    ) -> Result<Option<Terminator>, ParseError> {
        if let [b'r', b'0'..=b'9' | b'+', ..] = l.as_bytes() {
            // The commonest form: its keyword would be `r`, which is none.
            insts.push(self.assignment(l)?);
            return Ok(None);
        }
        let word_end = l
            .bytes()
            .position(|b| !b.is_ascii_lowercase())
            .unwrap_or(l.len());
        let (word, rest) = l.split_at(word_end);
        let next = rest.bytes().next();
        let whole_token = || space_at(rest) == 0;
        let spaced = next == Some(b' ');
        let inst = match word {
            "br" if whole_token() => {
                let target = trim_start(rest);
                let target = self.block_ref(&target[..space_at(target)])?;
                return Ok(Some(Terminator::Br { target }));
            }
            "condbr" if whole_token() => {
                // condbr r4, bb2, bb15
                let Some([cond, then_bb, else_bb]) = operands(rest) else {
                    return Err(self.error(format!("expected `condbr rC, bbT, bbF`, got `{l}`")));
                };
                return Ok(Some(Terminator::CondBr {
                    cond: self.reg(cond)?,
                    then_bb: self.block_ref(then_bb)?,
                    else_bb: self.block_ref(else_bb)?,
                }));
            }
            "switch" if whole_token() => return self.switch(rest).map(Some),
            "ret" if whole_token() => {
                let rest = trim_start(rest);
                let value = if rest.is_empty() {
                    None
                } else {
                    Some(self.operand(rest)?)
                };
                return Ok(Some(Terminator::Ret { value }));
            }
            "store" if spaced => {
                // store [r2+8] = r3
                let (mem, Some(src)) = part(rest, b'=') else {
                    return Err(self.error(format!("expected `store [..] = v`, got `{l}`")));
                };
                let (addr, offset) = self.mem(mem)?;
                Inst::Store {
                    src: self.operand(src)?,
                    addr,
                    offset,
                }
            }
            "tick" if spaced => self.tick(l, rest)?,
            "lock" if spaced => Inst::Lock {
                id: self.operand(rest)?,
            },
            "unlock" if spaced => Inst::Unlock {
                id: self.operand(rest)?,
            },
            "barrier" if spaced => {
                let id = trim_start(rest)
                    .strip_prefix("bar")
                    .and_then(unsigned)
                    .map(BarrierId)
                    .ok_or_else(|| self.error(format!("expected `barrier barN`, got `{l}`")))?;
                Inst::Barrier { id }
            }
            "call" if spaced || next == Some(b'@') => self.call(None, rest)?,
            _ => match matches!(next, None | Some(b'(')).then(|| builtin_from(word)) {
                Some(Some(bi)) => self.builtin_call(None, bi, l)?,
                _ => self.assignment(l)?,
            },
        };
        insts.push(inst);
        Ok(None)
    }

    /// `switch r1 [0 -> bb2, 1 -> bb3] default bb4`, keyword already taken.
    fn switch(&mut self, rest: &str) -> Result<Terminator, ParseError> {
        let open = rest
            .find('[')
            .ok_or_else(|| self.error("missing `[` in switch"))?;
        let close = rest
            .rfind(']')
            .ok_or_else(|| self.error("missing `]` in switch"))?;
        // A `]` before the `[` would sit in the discriminant, which then fails.
        let disc = self.reg(trim(&rest[..open]))?;
        let mut cases = Vec::new();
        let body = trim(&rest[open + 1..close]);
        if !body.is_empty() {
            for case in body.split(',') {
                let (v, b) = case
                    .split_once("->")
                    .ok_or_else(|| self.error(format!("bad switch case `{case}`")))?;
                let v =
                    signed(trim(v)).ok_or_else(|| self.error(format!("bad case value `{v}`")))?;
                cases.push((v, self.block_ref(trim(b))?));
            }
        }
        let default = trim_start(&rest[close + 1..])
            .strip_prefix("default")
            .ok_or_else(|| self.error("missing `default bbN` in switch"))?;
        Ok(Terminator::Switch {
            disc,
            cases,
            default: self.block_ref(trim_start(default))?,
        })
    }

    /// `tick 7` or `tick 3 + 2*r5`, keyword already taken (`l` is the whole
    /// line, for messages).
    fn tick(&mut self, l: &str, rest: &str) -> Result<Inst, ParseError> {
        let (base, Some(scaled)) = part(rest, b'+') else {
            let amount = unsigned(trim_start(rest))
                .ok_or_else(|| self.error(format!("bad tick amount in `{l}`")))?;
            return Ok(Inst::Tick { amount });
        };
        let base = unsigned(base).ok_or_else(|| self.error(format!("bad tick base in `{l}`")))?;
        let (per, Some(size)) = part(scaled, b'*') else {
            return Err(self.error(format!("expected `per*size` in `{l}`")));
        };
        let per_unit =
            unsigned(per).ok_or_else(|| self.error(format!("bad tick coefficient in `{l}`")))?;
        Ok(Inst::TickDyn {
            base,
            per_unit,
            size: self.operand(size)?,
        })
    }

    /// Destination forms: `rN = …`.
    fn assignment(&mut self, l: &str) -> Result<Inst, ParseError> {
        let unrecognized = |p: &Self| p.error(format!("unrecognized statement `{l}`"));
        let (dst, Some(rhs)) = part(l, b'=') else {
            return Err(unrecognized(self));
        };
        let dst = self.reg(dst)?;
        let rhs = trim_start(rhs);
        let (head, args) = rhs.split_at(space_at(rhs));
        let two = |p: &Self, what: &str| {
            operands::<2>(args)
                .ok_or_else(|| p.error(format!("expected `{what} rA, v`, got `{l}`")))
        };
        // The heads below are disjoint, so testing the commonest first
        // changes no outcome.
        if let Some(op) = binop_from(head) {
            let [lhs, rhs] = two(self, head)?;
            let (lhs, rhs) = (self.reg(lhs)?, self.operand(rhs)?);
            return Ok(Inst::Bin { op, dst, lhs, rhs });
        }
        match head {
            "const" => {
                let value = signed(trim_start(args))
                    .ok_or_else(|| self.error(format!("bad constant in `{l}`")))?;
                Ok(Inst::Const { dst, value })
            }
            "mov" => Ok(Inst::Mov {
                dst,
                src: self.operand(args)?,
            }),
            "load" => {
                let (addr, offset) = self.mem(trim_start(args))?;
                Ok(Inst::Load { dst, addr, offset })
            }
            _ if rhs.starts_with("call") => self.call(Some(dst), &rhs["call".len()..]),
            _ => {
                if let Some(op) = head.strip_prefix("cmp.").and_then(cmpop_from) {
                    let [lhs, rhs] = two(self, "cmp.op")?;
                    let (lhs, rhs) = (self.reg(lhs)?, self.operand(rhs)?);
                    Ok(Inst::Cmp { op, dst, lhs, rhs })
                } else if let Some(bi) = rhs.split('(').next().and_then(builtin_from) {
                    self.builtin_call(Some(dst), bi, rhs)
                } else {
                    Err(unrecognized(self))
                }
            }
        }
    }

    /// `@f3(r2, 5)`, after the `call` keyword.
    fn call(&mut self, dst: Option<Reg>, rest: &str) -> Result<Inst, ParseError> {
        let rest = trim(rest);
        let func = rest
            .strip_prefix("@f")
            .and_then(|r| r.split('(').next())
            .and_then(unsigned)
            .map(FuncId)
            .ok_or_else(|| self.error(format!("expected `@fN(...)`, got `{rest}`")))?;
        let open = rest
            .find('(')
            .ok_or_else(|| self.error("missing `(` in call"))?;
        let close = rest
            .rfind(')')
            .ok_or_else(|| self.error("missing `)` in call"))?;
        let args = self.call_args(&rest[open + 1..close])?;
        Ok(Inst::Call { func, args, dst })
    }

    fn builtin_call(
        &mut self,
        dst: Option<Reg>,
        builtin: Builtin,
        text: &str,
    ) -> Result<Inst, ParseError> {
        let open = text
            .find('(')
            .ok_or_else(|| self.error("missing `(` in builtin call"))?;
        let close = text
            .rfind(')')
            .ok_or_else(|| self.error("missing `)` in builtin call"))?;
        let args = self.call_args(&text[open + 1..close])?;
        let tail = trim(&text[close + 1..]);
        let size_arg = match tail.strip_prefix("[size=#") {
            Some(sz) => Some(
                unsigned(sz.trim_end_matches(']'))
                    .ok_or_else(|| self.error(format!("bad size annotation `{tail}`")))?,
            ),
            None => None,
        };
        Ok(Inst::CallBuiltin {
            builtin,
            args,
            dst,
            size_arg,
        })
    }
}

fn binop_from(mnemonic: &str) -> Option<BinOp> {
    use BinOp::*;
    [Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, Shr, Min, Max]
        .into_iter()
        .find(|op| op.mnemonic() == mnemonic)
}

fn cmpop_from(mnemonic: &str) -> Option<CmpOp> {
    use CmpOp::{Eq, Ge, Gt, Le, Lt, Ne};
    [Eq, Ne, Lt, Le, Gt, Ge]
        .into_iter()
        .find(|op| op.mnemonic() == mnemonic)
}

fn builtin_from(name: &str) -> Option<Builtin> {
    Builtin::all().iter().copied().find(|b| b.name() == name)
}

/// Split `s` at its commas into exactly `N` trimmed operands.
fn operands<const N: usize>(s: &str) -> Option<[&str; N]> {
    let mut out = [""; N];
    let mut rest = Some(s);
    for slot in &mut out {
        (*slot, rest) = part(rest?, b',');
    }
    rest.is_none().then_some(out)
}

/// `s.split_once(delim)` with the part before `delim` trimmed, in one pass;
/// with no `delim`, all of `s` trimmed and `None`.
#[inline(always)]
fn part(s: &str, delim: u8) -> (&str, Option<&str>) {
    let b = s.as_bytes();
    let start = b.iter().position(|&c| !is_space(c)).unwrap_or(b.len());
    let (mut i, mut end) = (start, start);
    while let Some(&c) = b.get(i).filter(|&&c| c != delim) {
        if !is_space(c) {
            end = i + 1;
        }
        i += 1;
    }
    let rest = (i < b.len()).then(|| &s[i + 1..]);
    // Every byte outside `start..end` is ASCII whitespace; an edge inside it
    // that is not ASCII may still be whitespace to `str::trim`.
    if b.get(start).is_some_and(|&c| c >= 0x80) || (end > start && b[end - 1] >= 0x80) {
        return (s[..i].trim(), rest);
    }
    (&s[start..end], rest)
}

/// The length of the line `rest` starts with (up to its `\n` or the end),
/// and whether it holds a `)`. Eight bytes at a time: `zeros` flags the
/// lowest zero byte of a word exactly, and a higher one only above a zero
/// byte, so the first `\n` is exact and a `)` flagged before it is real.
fn line_len(rest: &[u8]) -> (usize, bool) {
    const ONES: u64 = u64::from_le_bytes([1; 8]);
    let zeros = |w: u64| w.wrapping_sub(ONES) & !w & (ONES << 7);
    let (mut i, mut paren) = (0, false);
    while let Some(&chunk) = rest[i..].first_chunk() {
        let w = u64::from_le_bytes(chunk);
        let nl = zeros(w ^ (ONES * u64::from(b'\n')));
        let close = zeros(w ^ (ONES * u64::from(b')')));
        if nl != 0 {
            let k = nl.trailing_zeros();
            return (i + k as usize / 8, paren || close & ((1 << k) - 1) != 0);
        }
        paren |= close != 0;
        i += 8;
    }
    while let Some(&b) = rest.get(i).filter(|&&b| b != b'\n') {
        paren |= b == b')';
        i += 1;
    }
    (i, paren)
}

/// `s.split_once(b)` for an ASCII byte, found on bytes.
fn split_once(s: &str, b: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|c| c == b)?;
    Some((&s[..i], &s[i + 1..]))
}

/// `s.trim_end_matches(b)` for an ASCII byte.
fn strip_end(s: &str, b: u8) -> &str {
    &s[..s.bytes().rposition(|c| c != b).map_or(0, |i| i + 1)]
}

/// `char::is_whitespace`, for an ASCII byte.
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

/// `s.trim_start()`: ASCII whitespace is skipped on bytes, and a first
/// non-ASCII character is left to `str::trim_start`.
#[inline(always)]
fn trim_start(s: &str) -> &str {
    let i = s.bytes().position(|b| !is_space(b)).unwrap_or(s.len());
    match s.as_bytes().get(i) {
        Some(&b) if b >= 0x80 => s[i..].trim_start(),
        _ => &s[i..],
    }
}

/// `s.trim_end()`, as [`trim_start`] from the other end.
#[inline(always)]
fn trim_end(s: &str) -> &str {
    let e = s.bytes().rposition(|b| !is_space(b)).map_or(0, |i| i + 1);
    match e.checked_sub(1).map(|i| s.as_bytes()[i]) {
        Some(b) if b >= 0x80 => s[..e].trim_end(),
        _ => &s[..e],
    }
}

/// `s.trim()`.
fn trim(s: &str) -> &str {
    trim_end(trim_start(s))
}

/// Byte index of the first `char::is_whitespace` character in `s`, or its
/// length.
fn space_at(s: &str) -> usize {
    for (i, b) in s.bytes().enumerate() {
        if is_space(b) {
            return i;
        }
        if b >= 0x80 {
            return s[i..].find(char::is_whitespace).map_or(s.len(), |j| i + j);
        }
    }
    s.len()
}

/// `s.parse()` for an unsigned integer type: an optional `+`, then one or
/// more ASCII digits (leading zeros allowed); overflow is `None`.
#[inline(always)]
fn unsigned<T: TryFrom<u64>>(s: &str) -> Option<T> {
    let d = s.as_bytes();
    digits(d.strip_prefix(b"+").unwrap_or(d)).and_then(|v| T::try_from(v).ok())
}

/// `s.parse::<i64>()`: [`unsigned`] with a `-` allowed in place of the `+`.
#[inline(always)]
fn signed(s: &str) -> Option<i64> {
    match s.as_bytes() {
        [b'-', d @ ..] => digits(d).and_then(|v| 0i64.checked_sub_unsigned(v)),
        _ => unsigned(s),
    }
}

/// One or more ASCII digits as a `u64`; `None` if empty, on any other byte
/// or on overflow.
#[inline(always)]
fn digits(d: &[u8]) -> Option<u64> {
    if d.is_empty() {
        return None;
    }
    d.iter().try_fold(0u64, |v, &b| {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            return None;
        }
        v.checked_mul(10)?.checked_add(u64::from(digit))
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

    /// The error `r4294967295` gets wherever it stands in a one-block
    /// function: its register count would not fit in a `u32`.
    fn largest_register_error(statements: &str) -> (usize, String) {
        let text = format!("fn f(params=0) {{\n  entry (bb0):\n{statements}}}\n");
        let e = parse_module(&text).unwrap_err();
        (e.line, e.message)
    }

    const OUT_OF_RANGE: &str = "register `r4294967295` is out of range (at most r4294967294)";

    #[test]
    fn largest_register_number_as_a_definition_is_an_error() {
        assert_eq!(
            largest_register_error("    r4294967295 = const 1\n    ret\n"),
            (3, OUT_OF_RANGE.to_string())
        );
    }

    #[test]
    fn largest_register_number_as_a_use_is_an_error() {
        assert_eq!(
            largest_register_error("    r1 = const 1\n    r2 = add r4294967295, r1\n    ret\n"),
            (4, OUT_OF_RANGE.to_string())
        );
    }

    #[test]
    fn largest_register_number_returned_is_an_error() {
        assert_eq!(
            largest_register_error("    ret r4294967295\n"),
            (3, OUT_OF_RANGE.to_string())
        );
        // One below it still fits, with the largest register file there is.
        let m = parse_module("fn f(params=0) {\n  entry (bb0):\n    ret r4294967294\n}\n").unwrap();
        assert_eq!(m.functions[0].num_regs, u32::MAX);
    }
}
