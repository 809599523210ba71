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
//! Lines end at `\n` and lose exactly `str::trim`'s whitespace. A `Cursor`
//! then reads each statement once, left to right: every form is one
//! sequence of tokens — whitespace, a register, an integer, a keyword, a
//! literal — each decoded as the cursor passes it, numbers exactly as
//! `str::parse` reads them. A line that strays from its form gets the error
//! `explain` words for it: the first part, in reading order, that a split
//! at the form's delimiters finds wrong. Every outcome of ≈1 800 inputs —
//! whitespace, number spellings and the edges of every number position
//! included — is pinned by `parser_outcomes_are_pinned`
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
        c: Cursor::default(),
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

/// The input's lines, one current at a time, and the cursor that reads it.
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
    /// The statement cursor; it keeps the function's largest register.
    c: Cursor<'a>,
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
        // Most lines keep no whitespace at either end once the indent is gone.
        match (line.as_bytes().first(), line.as_bytes().last()) {
            (Some(a), Some(z)) if a.is_ascii_graphic() && z.is_ascii_graphic() => Some(line),
            _ => Some(line.trim()),
        }
    }

    fn advance(&mut self) {
        self.cur = self.read_line();
        self.pos += 1;
    }

    /// A positioned error on the current line.
    #[cold]
    fn error(&self, message: impl Into<String>) -> ParseError {
        let (line, message) = (self.pos + 1, message.into());
        ParseError { line, message }
    }

    /// Skip blank and comment lines; the line now current, if any is left.
    fn skip_blank(&mut self) -> Option<&'a str> {
        while let Some([] | [b'#', ..] | [b'/', b'/', ..]) = self.cur.map(str::as_bytes) {
            self.advance();
        }
        self.cur
    }

    /// Parse one function; `line` is the current line, its header
    /// `fn name(params=N) {`.
    fn parse_function(&mut self, line: &'a str) -> Result<Function, ParseError> {
        let rest = line
            .strip_prefix("fn ")
            .ok_or_else(|| self.error(format!("expected `fn name(params=N) {{`, got `{line}`")))?;
        let open = rest
            .find('(')
            .ok_or_else(|| self.error("missing `(` in function header"))?;
        let name = rest[..open].trim().to_string();
        let (params, tail) = rest[open + 1..]
            .split_once(')')
            .ok_or_else(|| self.error("missing `)` in function header"))?;
        let params = Cursor::whole(params.trim(), Cursor::params)
            .ok_or_else(|| self.error(format!("expected `params=N`, got `{}`", params.trim())))?;
        if !tail.trim_start().starts_with('{') {
            return Err(self.error("expected `{` after function header"));
        }
        self.advance();

        let mut blocks: Vec<(String, Vec<Inst>, Option<Terminator>)> = Vec::new();
        self.c.max_reg = params.saturating_sub(1);
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
                let read = self.c.at(l).statement(insts, term);
                read.map_err(|(form, at)| self.error(explain(l, at, form)))?;
            }
            self.advance();
        }
        if blocks.is_empty() {
            return Err(self.error("function has no blocks"));
        }
        let blocks = blocks
            .into_iter()
            .enumerate()
            .map(|(i, (name, insts, term))| match term {
                Some(term) => Ok(Block { name, insts, term }),
                None => Err(self.error(format!("block bb{i} (`{name}`) has no terminator"))),
            })
            .collect::<Result<Vec<_>, ParseError>>()?;
        // A register number is below `u32::MAX`, so this cannot overflow.
        let num_regs = self.c.max_reg + 1;
        Ok(Function {
            name,
            params,
            num_regs,
            blocks,
        })
    }

    /// Parse a block header — `name (bbK):` or `name:`, either with an
    /// optional trailing `clock = N` — into the block's name. `expected` is
    /// the id the block gets; an explicit `bbK` must agree with it.
    fn block_header(&self, l: &str, expected: usize) -> Result<String, ParseError> {
        let header = match l.contains('=') {
            true => l.split("clock =").next().unwrap_or(l).trim_end(),
            false => l,
        };
        let header = header.trim_end_matches(':').trim_end();
        let Some(i) = header.as_bytes().windows(4).position(|w| w == b" (bb") else {
            return Ok(header.trim_end_matches(':').to_string());
        };
        let id = Cursor::whole(header[i + 4..].trim_end_matches(')'), Cursor::uint::<usize>);
        match id.ok_or_else(|| self.error(format!("bad block id in `{l}`")))? {
            id if id == expected => Ok(header[..i].trim_end().to_string()),
            id => Err(self.error(format!(
                "block id bb{id} out of order (expected bb{expected})"
            ))),
        }
    }
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

/// A byte cursor over a trimmed line, or a part of one. Each decoder
/// consumes its token, or returns `None` where the bytes do not spell one
/// (the position is then of no further use).
#[derive(Clone, Copy, Default)]
struct Cursor<'a> {
    s: &'a str,
    i: usize,
    /// The largest register number read so far.
    max_reg: u32,
}

impl<'a> Cursor<'a> {
    /// Point the cursor at the start of `s`.
    fn at(&mut self, s: &'a str) -> &mut Self {
        (self.s, self.i) = (s, 0);
        self
    }

    /// What `read` makes of all of `s`.
    fn whole<T>(s: &'a str, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        let mut c = *Cursor::default().at(s);
        read(&mut c).filter(|_| c.end().is_some())
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn end(&self) -> Option<()> {
        (self.i == self.s.len()).then_some(())
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        (self.peek() == Some(b)).then(|| self.i += 1)
    }

    fn lit(&mut self, word: &str) -> Option<()> {
        let found = self.s.as_bytes()[self.i..].starts_with(word.as_bytes());
        found.then(|| self.i += word.len())
    }

    /// The byte length of the whitespace character at the cursor, if one
    /// is there: whitespace is what `str::trim` takes off.
    #[inline(always)]
    fn space(&self) -> Option<usize> {
        match self.peek()? {
            b' ' | b'\t'..=b'\r' => Some(1),
            0x80.. => self.wide_space(),
            _ => None,
        }
    }

    /// [`Cursor::space`] for a character outside ASCII.
    #[cold]
    fn wide_space(&self) -> Option<usize> {
        let c = self.s[self.i..].chars().next()?;
        c.is_whitespace().then(|| c.len_utf8())
    }

    #[inline(always)]
    fn ws(&mut self) {
        while let Some(n) = self.space() {
            self.i += n;
        }
    }

    /// Whether a token ends here: at the end or before whitespace.
    #[inline(always)]
    fn at_break(&self) -> bool {
        self.peek().is_none() || self.space().is_some()
    }

    /// `sep` with any whitespace around it. The printer's ` = ` and `, `
    /// are read at once.
    #[inline(always)]
    fn sep(&mut self, sep: &str) -> Option<()> {
        match (sep.as_bytes(), &self.s.as_bytes()[self.i..]) {
            ([s], [b' ', c, b' ', ..]) if c == s => self.i += 3,
            ([s], [c, b' ', ..]) if c == s => self.i += 2,
            _ => {
                self.ws();
                self.lit(sep)?;
            }
        }
        self.ws();
        Some(())
    }

    /// Whitespace, what `read` reads, then the end of the line.
    #[inline(always)]
    fn last<T>(&mut self, read: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.ws();
        read(self).filter(|_| self.end().is_some())
    }

    /// The run of lowercase ASCII letters at the cursor.
    fn word(&mut self) -> &'a [u8] {
        let start = self.i;
        while let Some(b'a'..=b'z') = self.peek() {
            self.i += 1;
        }
        &self.s.as_bytes()[start..self.i]
    }

    /// One or more ASCII digits (leading zeros allowed) as a `u64`; `None`
    /// on overflow.
    #[inline(always)]
    fn digits(&mut self) -> Option<u64> {
        let start = self.i;
        let mut v = 0u64;
        while let Some(d @ b'0'..=b'9') = self.peek() {
            v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
            self.i += 1;
        }
        (self.i > start).then_some(v)
    }

    /// `str::parse` for an unsigned type: an optional `+`, then digits.
    fn uint<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let _ = self.eat(b'+');
        T::try_from(self.digits()?).ok()
    }

    /// `str::parse::<i64>`: [`Cursor::uint`], or a `-` and digits.
    fn int(&mut self) -> Option<i64> {
        match self.eat(b'-') {
            Some(()) => 0i64.checked_sub_unsigned(self.digits()?),
            None => self.uint(),
        }
    }

    /// A register's digits, `N` below `u32::MAX` so that the register count
    /// `N + 1` fits; raises `max_reg`.
    fn number(&mut self) -> Option<Reg> {
        let n = u32::try_from(self.digits()?)
            .ok()
            .filter(|&n| n < u32::MAX)?;
        self.max_reg = self.max_reg.max(n);
        Some(Reg(n))
    }

    /// `rN` where only a register can stand, `r+N` too.
    fn reg(&mut self) -> Option<Reg> {
        self.eat(b'r')?;
        let _ = self.eat(b'+');
        self.number()
    }

    /// `rN` or an integer.
    fn operand(&mut self) -> Option<Operand> {
        match self.eat(b'r') {
            Some(()) => self.number().map(Operand::Reg),
            None => self.int().map(Operand::Imm),
        }
    }

    fn block(&mut self) -> Option<BlockId> {
        self.lit("bb")?;
        self.uint().map(BlockId)
    }

    /// `[rA+K]`.
    fn mem(&mut self) -> Option<(Reg, i64)> {
        self.eat(b'[')?;
        self.eat(b'r')?;
        let addr = self.number()?;
        self.eat(b'+')?;
        let offset = self.int()?;
        self.eat(b']').map(|()| (addr, offset))
    }

    fn params(&mut self) -> Option<u32> {
        self.lit("params=")?;
        self.uint()
    }

    /// Comma-separated `item`s and then `close`.
    fn list<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        let mut items = Vec::new();
        self.ws();
        while self.eat(close).is_none() {
            if !items.is_empty() {
                self.sep(",")?;
            }
            items.push(item(self)?);
            self.ws();
        }
        Some(items)
    }

    /// Parse the trimmed, non-blank body line under the cursor, which is
    /// not a block header: an instruction is pushed onto `insts`, a
    /// terminator is put in `term`.
    ///
    /// The line is dispatched on its keyword — the leading run of lowercase
    /// letters — and on the byte after it: a terminator's keyword is a
    /// whole whitespace-delimited token, `store` / `tick` / `lock` /
    /// `unlock` / `barrier` take a space, `call` a space or `@`, a
    /// builtin's name its `(`. Anything else has to be an assignment
    /// `rN = …`.
    fn statement(
        &mut self,
        insts: &mut Vec<Inst>,
        term: &mut Option<Terminator>,
    ) -> Result<(), Failed> {
        if let [b'r', b'0'..=b'9' | b'+', ..] = self.s.as_bytes() {
            // The commonest form: its keyword would be `r`, which is none.
            return self.assignment(insts);
        }
        let word = self.word();
        let at = self.i;
        let next = self.peek();
        let (whole, spaced) = (self.at_break(), next == Some(b' '));
        let fail = |form| (form, at);
        match word {
            b"br" if whole => *term = Some(self.br().ok_or(fail(Form::Br))?),
            b"condbr" if whole => *term = Some(self.condbr().ok_or(fail(Form::CondBr))?),
            b"switch" if whole => *term = Some(self.switch().ok_or(fail(Form::Switch))?),
            b"ret" if whole => *term = Some(self.ret().ok_or(fail(Form::Operand))?),
            b"store" if spaced => insts.push(self.store().ok_or(fail(Form::Store))?),
            b"tick" if spaced => insts.push(self.tick().ok_or(fail(Form::Tick))?),
            b"lock" if spaced => {
                let id = self.last(Self::operand).ok_or(fail(Form::Operand))?;
                insts.push(Inst::Lock { id });
            }
            b"unlock" if spaced => {
                let id = self.last(Self::operand).ok_or(fail(Form::Operand))?;
                insts.push(Inst::Unlock { id });
            }
            b"barrier" if spaced => insts.push(self.barrier().ok_or(fail(Form::Barrier))?),
            b"call" if spaced || next == Some(b'@') => {
                insts.push(self.call(None).ok_or(fail(Form::Call))?);
            }
            _ => match Builtin::from_name(word).filter(|_| matches!(next, None | Some(b'('))) {
                Some(b) => insts.push(self.builtin(b, None).ok_or(fail(Form::Builtin))?),
                None => return self.at(self.s).assignment(insts),
            },
        }
        Ok(())
    }

    /// `rN = …` from the start of the line, onto `insts`.
    fn assignment(&mut self, insts: &mut Vec<Inst>) -> Result<(), Failed> {
        let dst = self.reg().filter(|_| self.sep("=").is_some());
        let dst = dst.ok_or((Form::Dst, 0))?;
        let rhs = self.i;
        let head = self.word();
        let mut at = self.i;
        let next = self.peek();
        // The heads below are disjoint, so testing the commonest first
        // changes no outcome. A mnemonic or keyword is a whole token.
        if let Some(op) = BinOp::from_mnemonic(head).filter(|_| self.at_break()) {
            let (lhs, rhs) = self.two().ok_or((Form::Two(Some(op)), at))?;
            insts.push(Inst::Bin { op, dst, lhs, rhs });
            return Ok(());
        }
        let (inst, form) = match head {
            b"const" if self.at_break() => {
                let value = self.last(Self::int);
                (value.map(|value| Inst::Const { dst, value }), Form::Const)
            }
            b"mov" if self.at_break() => {
                let src = self.last(Self::operand);
                (src.map(|src| Inst::Mov { dst, src }), Form::Operand)
            }
            b"load" if self.at_break() => {
                let mem = self.last(Self::mem);
                let load = mem.map(|(addr, offset)| Inst::Load { dst, addr, offset });
                (load, Form::Load)
            }
            b"cmp" if next == Some(b'.') => {
                self.i += 1;
                let Some(op) = CmpOp::from_mnemonic(self.word()).filter(|_| self.at_break()) else {
                    return Err((Form::Unknown, 0));
                };
                at = self.i;
                let cmp = self.two().map(|(lhs, rhs)| Inst::Cmp { op, dst, lhs, rhs });
                (cmp, Form::Two(None))
            }
            _ if head.starts_with(b"call") => {
                at = rhs + "call".len();
                self.i = at;
                (self.call(Some(dst)), Form::Call)
            }
            _ => match Builtin::from_name(head).filter(|_| matches!(next, None | Some(b'('))) {
                Some(b) => (self.builtin(b, Some(dst)), Form::Builtin),
                None => (None, Form::Unknown),
            },
        };
        insts.push(inst.ok_or((form, at))?);
        Ok(())
    }

    /// `rA, v` to the end of the line.
    #[inline(always)]
    fn two(&mut self) -> Option<(Reg, Operand)> {
        self.ws();
        let lhs = self.reg()?;
        self.sep(",")?;
        Some((lhs, self.last(Self::operand)?))
    }

    /// `bbN` after `br`; what follows the block id's token is ignored.
    fn br(&mut self) -> Option<Terminator> {
        self.ws();
        let target = self.block()?;
        self.at_break().then_some(Terminator::Br { target })
    }

    /// `rC, bbT, bbF` after `condbr`.
    fn condbr(&mut self) -> Option<Terminator> {
        self.ws();
        let cond = self.reg()?;
        self.sep(",")?;
        let then_bb = self.block()?;
        self.sep(",")?;
        let else_bb = self.last(Self::block)?;
        Some(Terminator::CondBr {
            cond,
            then_bb,
            else_bb,
        })
    }

    /// `r1 [0 -> bb2, 1 -> bb3] default bb4` after `switch`.
    fn switch(&mut self) -> Option<Terminator> {
        self.ws();
        let disc = self.reg()?;
        self.sep("[")?;
        let cases = self.list(b']', |c| {
            let value = c.int()?;
            c.sep("->")?;
            Some((value, c.block()?))
        })?;
        self.sep("default")?;
        let default = self.last(Self::block)?;
        Some(Terminator::Switch {
            disc,
            cases,
            default,
        })
    }

    /// An optional operand after `ret`.
    fn ret(&mut self) -> Option<Terminator> {
        self.ws();
        let value = match self.end() {
            Some(()) => None,
            None => Some(self.last(Self::operand)?),
        };
        Some(Terminator::Ret { value })
    }

    /// `[r2+8] = r3` after `store`.
    fn store(&mut self) -> Option<Inst> {
        self.ws();
        let (addr, offset) = self.mem()?;
        self.sep("=")?;
        let src = self.last(Self::operand)?;
        Some(Inst::Store { src, addr, offset })
    }

    /// `7` or `3 + 2*r5` after `tick`.
    fn tick(&mut self) -> Option<Inst> {
        self.ws();
        let base = self.digits()?;
        self.ws();
        if self.end().is_some() {
            return Some(Inst::Tick { amount: base });
        }
        self.sep("+")?;
        let per_unit = self.uint()?;
        self.sep("*")?;
        let size = self.last(Self::operand)?;
        Some(Inst::TickDyn {
            base,
            per_unit,
            size,
        })
    }

    /// `barN` after `barrier`.
    fn barrier(&mut self) -> Option<Inst> {
        self.ws();
        self.lit("bar")?;
        let id = BarrierId(self.uint()?);
        self.end().map(|()| Inst::Barrier { id })
    }

    /// `@f3(r2, 5)` after `call`; what follows the `)` is ignored.
    fn call(&mut self, dst: Option<Reg>) -> Option<Inst> {
        self.ws();
        self.lit("@f")?;
        let func = FuncId(self.uint()?);
        let args = self.args()?;
        Some(Inst::Call { func, args, dst })
    }

    /// `(r0, 0, 16)` after a builtin's name, then an optional `[size=#k]`;
    /// anything else after the `)` is ignored.
    fn builtin(&mut self, builtin: Builtin, dst: Option<Reg>) -> Option<Inst> {
        let args = self.args()?;
        self.ws();
        let mut size_arg = None;
        if self.lit("[size=#").is_some() {
            size_arg = Some(self.uint()?);
            while self.eat(b']').is_some() {}
            self.end()?;
        }
        Some(Inst::CallBuiltin {
            builtin,
            args,
            dst,
            size_arg,
        })
    }

    /// `(r2, 5)`, whose `)` is the line's last.
    fn args(&mut self) -> Option<Vec<Operand>> {
        self.eat(b'(')?;
        let args = self.list(b')', Self::operand)?;
        (!self.s[self.i..].contains(')')).then_some(args)
    }
}

/// Where a statement's grammar failed: the form it was reading, and the
/// byte of the line where the form's operands start.
type Failed = (Form, usize);

/// A statement form whose grammar failed, for [`explain`]: `Two` is
/// `rA, v` after a binary operation's mnemonic (`None`: after `cmp.op`),
/// `Operand` a single operand that ends the line, `Dst` an assignment's
/// `rN =`.
#[derive(Clone, Copy)]
enum Form {
    Dst,
    Two(Option<BinOp>),
    Const,
    Operand,
    Load,
    Store,
    Tick,
    Barrier,
    Call,
    Builtin,
    Br,
    CondBr,
    Switch,
    Unknown,
}

/// The error of line `l`, which does not read as `form` from byte `at`
/// (where the form's operands start): the first part, in reading order,
/// that a split at the form's delimiters finds wrong, each part trimmed.
#[cold]
#[inline(never)]
fn explain(l: &str, at: usize, form: Form) -> String {
    let rest = &l[at..];
    let count = |part: &str| reads(part.trim(), Cursor::uint::<u64>);
    match form {
        Form::Dst => match l.split_once('=') {
            Some((dst, _)) => reg_error(dst.trim()),
            None => format!("unrecognized statement `{l}`"),
        },
        Form::Two(op) => match rest.split(',').map(str::trim).collect::<Vec<_>>()[..] {
            [lhs, _] if !reads(lhs, Cursor::reg) => reg_error(lhs),
            [_, rhs] => operand_error(rhs),
            _ => {
                let what = op.map_or("cmp.op", BinOp::mnemonic);
                format!("expected `{what} rA, v`, got `{l}`")
            }
        },
        Form::Const => format!("bad constant in `{l}`"),
        Form::Operand => operand_error(rest.trim()),
        Form::Load => mem_error(rest.trim()),
        Form::Store => match rest.split_once('=') {
            None => format!("expected `store [..] = v`, got `{l}`"),
            Some((mem, _)) if !reads(mem.trim(), Cursor::mem) => mem_error(mem.trim()),
            Some((_, src)) => operand_error(src.trim()),
        },
        Form::Tick => match rest.split_once('+').map(|(b, s)| (b, s.split_once('*'))) {
            None => format!("bad tick amount in `{l}`"),
            Some((base, _)) if !count(base) => format!("bad tick base in `{l}`"),
            Some((_, None)) => format!("expected `per*size` in `{l}`"),
            Some((_, Some((per, _)))) if !count(per) => format!("bad tick coefficient in `{l}`"),
            Some((_, Some((_, size)))) => operand_error(size.trim()),
        },
        Form::Barrier => format!("expected `barrier barN`, got `{l}`"),
        Form::Call => {
            let rest = rest.trim();
            let func = rest.strip_prefix("@f").and_then(|r| r.split('(').next());
            match (rest.find('('), rest.rfind(')')) {
                _ if !func.is_some_and(|f| reads(f, Cursor::uint::<u32>)) => {
                    format!("expected `@fN(...)`, got `{rest}`")
                }
                (None, _) => "missing `(` in call".into(),
                (_, None) => "missing `)` in call".into(),
                (Some(open), Some(close)) => {
                    operand_error(bad_arg(&rest[open + 1..close]).unwrap_or_default())
                }
            }
        }
        // A builtin's call text runs from its name to the line's end, and
        // the line's first `(` is the one after the name.
        Form::Builtin => match (l.find('('), l.rfind(')')) {
            (None, _) => "missing `(` in builtin call".into(),
            (_, None) => "missing `)` in builtin call".into(),
            (Some(open), Some(close)) => match bad_arg(&l[open + 1..close]) {
                Some(arg) => operand_error(arg),
                None => format!("bad size annotation `{}`", l[close + 1..].trim()),
            },
        },
        Form::Br => block_error(rest.split_whitespace().next().unwrap_or("")),
        Form::CondBr => match rest.split(',').map(str::trim).collect::<Vec<_>>()[..] {
            [cond, _, _] if !reads(cond, Cursor::reg) => reg_error(cond),
            [_, then_bb, _] if !reads(then_bb, Cursor::block) => block_error(then_bb),
            [_, _, else_bb] => block_error(else_bb),
            _ => format!("expected `condbr rC, bbT, bbF`, got `{l}`"),
        },
        Form::Switch => switch_error(rest),
        Form::Unknown => format!("unrecognized statement `{l}`"),
    }
}

/// [`explain`] for a `switch`, whose case list runs from the first `[` to
/// the last `]`.
fn switch_error(rest: &str) -> String {
    let (Some(open), Some(close)) = (rest.find('['), rest.rfind(']')) else {
        let missing = if rest.contains('[') { ']' } else { '[' };
        return format!("missing `{missing}` in switch");
    };
    // A `]` before the `[` sits in the discriminant, which then fails.
    let disc = rest[..open].trim();
    if !reads(disc, Cursor::reg) {
        return reg_error(disc);
    }
    let body = rest[open + 1..close].trim();
    for case in body.split(',').filter(|_| !body.is_empty()) {
        let Some((value, target)) = case.split_once("->") else {
            return format!("bad switch case `{case}`");
        };
        if !reads(value.trim(), Cursor::int) {
            return format!("bad case value `{value}`");
        }
        if !reads(target.trim(), Cursor::block) {
            return block_error(target.trim());
        }
    }
    match rest[close + 1..].trim_start().strip_prefix("default") {
        Some(default) => block_error(default.trim_start()),
        None => "missing `default bbN` in switch".into(),
    }
}

/// The first of a call's comma-separated arguments, trimmed, that is not
/// an operand.
fn bad_arg(args: &str) -> Option<&str> {
    let args = args.trim();
    let mut parts = args.split(',').map(str::trim).filter(|_| !args.is_empty());
    parts.find(|a| !reads(a, Cursor::operand))
}

/// The error of an address that does not read as `[rA+K]`.
fn mem_error(tok: &str) -> String {
    let Some(inner) = tok.strip_prefix('[').and_then(|t| t.strip_suffix(']')) else {
        return format!("expected `[rA+K]`, got `{tok}`");
    };
    match inner.split_once('+') {
        None => format!("expected `+` in address `{tok}`"),
        Some((addr, _)) if !reads(addr, Cursor::reg) => reg_error(addr),
        Some(_) => format!("bad offset in `{tok}`"),
    }
}

/// The error of an operand that does not read as one.
fn operand_error(tok: &str) -> String {
    match tok.as_bytes() {
        [b'r', n @ ..] if !n.is_empty() && n.iter().all(u8::is_ascii_digit) => reg_error(tok),
        _ => format!("expected operand (rN or integer), got `{tok}`"),
    }
}

/// The error of a register that does not read as one.
fn reg_error(tok: &str) -> String {
    match Cursor::whole(tok, |c| c.eat(b'r').and_then(|()| c.uint::<u32>())) {
        Some(u32::MAX) => format!(
            "register `{tok}` is out of range (at most r{})",
            u32::MAX - 1
        ),
        _ => format!("expected register, got `{tok}`"),
    }
}

fn block_error(tok: &str) -> String {
    format!("expected block reference, got `{tok}`")
}

/// Whether `read` reads all of `part`.
fn reads<'a, T>(part: &'a str, read: impl FnOnce(&mut Cursor<'a>) -> Option<T>) -> bool {
    Cursor::whole(part, read).is_some()
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
