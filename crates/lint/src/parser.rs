//! A recursive-descent parser over the [`crate::lexer`] token stream.
//!
//! This is deliberately **not** a full Rust parser: it recovers exactly the
//! structure the interprocedural rules need and skips everything else.
//!
//! * **[`Code`]** — one file's code tokens with the two facts every pass
//!   shares, decided once: each bracket's partner (so "where does this
//!   group end" is a table lookup) and the test-only spans (`#[test]` items
//!   and items whose `#[cfg(…)]` cannot hold without `test`, see
//!   [`attr_is_test`]). The token rules read the same view.
//! * **Items** — `mod` nesting, `impl`/`trait` blocks (self-type tracked),
//!   `fn` signatures (visibility, generics, params, `Result` returns),
//!   `struct` field types (so `self.field as u32` casts can be classified).
//! * **Bodies** — one walk per function body records the flat facts: call
//!   sites (with qualifier path, receiver and argument idents), slice-index
//!   expressions, panic sites (`panic!`-family macros, `assert!`-family
//!   macros, `.unwrap()`, `.expect()`), `as` casts with a best-effort source
//!   type, typed locals, statements that discard a call's return value
//!   (`let _ = f(x);` or a bare `f(x);`), comparisons, the concurrency facts
//!   and the return spans. Nested `fn` items are parsed as their own
//!   definitions where the walk meets them and kept out of the outer facts.
//!
//! The output feeds [`crate::graph`], which resolves calls across the
//! workspace into a call graph and runs the `panic-path`, `lossy-cast` and
//! `unused-result` analyses.

// cmr-lint: allow-file(panic-path) cursor and arena indices are bounded by construction; the parser owns every index it dereferences

use crate::lexer::{Token, TokenKind};
use std::collections::HashSet;

/// Everything the parser recovered from one source file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Every function definition (and bodiless trait method) in the file.
    pub fns: Vec<FnDef>,
    /// Struct definitions with named fields (field name → type tail).
    pub structs: Vec<StructDef>,
    /// `static` items whose type involves a lock (the lock model only
    /// records these; plain statics are skipped as before).
    pub statics: Vec<StaticDef>,
}

/// A struct with named fields; tuple structs are skipped.
#[derive(Debug)]
pub struct StructDef {
    /// The struct's name.
    pub name: String,
    /// Line of the struct's name token.
    pub line: u32,
    /// `(field name, type tail)` pairs — see [`type_tail`].
    pub fields: Vec<(String, String)>,
    /// `(field name, lock kind)` for fields whose declared type mentions
    /// `Mutex`, `RwLock` or `Condvar` anywhere (so `Vec<Mutex<Shard>>`
    /// registers as a sharded `Mutex` class).
    pub lock_fields: Vec<(String, String)>,
}

/// A `static` item of lock type (`Mutex`/`RwLock`/`Condvar` in its
/// declared type). Non-lock statics are not recorded.
#[derive(Debug)]
pub struct StaticDef {
    /// The static's name.
    pub name: String,
    /// Lock kind: `Mutex`, `RwLock` or `Condvar`.
    pub kind: String,
    /// Line of the name token.
    pub line: u32,
}

/// One function definition (or trait-method declaration without a body).
#[derive(Debug)]
pub struct FnDef {
    /// The function's name.
    pub name: String,
    /// Inline-`mod` path from the file root down to this fn.
    pub module: Vec<String>,
    /// Self type when declared inside an `impl`/`trait` block.
    pub self_ty: Option<String>,
    /// `true` only for bare `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Line of the `fn` name token.
    pub line: u32,
    /// Column of the `fn` name token.
    pub col: u32,
    /// Line of the item's first token (attribute, `pub`, or `fn`) — the
    /// anchor a function-scoped allow comment attaches to.
    pub attach_line: u32,
    /// `true` when the declared return type is a top-level `Result<…>`.
    pub returns_result: bool,
    /// `true` when the declared return type mentions a lock guard
    /// (`MutexGuard`/`RwLockReadGuard`/`RwLockWriteGuard`) — calling such a
    /// fn acquires the lock its body locks.
    pub returns_guard: bool,
    /// Inside a `#[test]` fn or a `#[cfg(test)]` mod/impl.
    pub is_test: bool,
    /// `(name, type tail)` of simple typed params (`self` and complex
    /// patterns skipped).
    pub params: Vec<(String, String)>,
    /// Positional names of every non-`self` parameter (`""` for patterns
    /// the parser can't name) — aligned with paren-argument positions at
    /// call sites, which `params` is not (it drops untypeable entries).
    pub param_names: Vec<String>,
    /// Body facts; `None` for bodiless trait-method declarations.
    pub body: Option<Body>,
}

/// Facts extracted from one function body.
#[derive(Debug, Default)]
pub struct Body {
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Panic sites in source order.
    pub panics: Vec<PanicSite>,
    /// Slice/array index expressions (`expr[…]`, full-range `[..]` exempt).
    pub indexes: Vec<IndexSite>,
    /// `as` casts in source order.
    pub casts: Vec<CastSite>,
    /// `(name, type tail, line)` of typed `let` bindings, in source order.
    pub locals: Vec<(String, String, u32)>,
    /// Lock-guard acquisition sites (`.lock()` and zero-arg
    /// `.read()`/`.write()`), in source order.
    pub acquires: Vec<AcquireSite>,
    /// Condvar wait/notify sites, in source order.
    pub condvars: Vec<CondvarSite>,
    /// Blocking-call sites (sleep, zero-arg join, channel send/recv,
    /// socket/file I/O), in source order.
    pub blocking: Vec<BlockingSite>,
    /// Single-ident `let` bindings with initializer extent and enclosing
    /// scope end — the guard-lifetime skeleton.
    pub binds: Vec<LetBind>,
    /// Explicit `drop(x)` statements: `(binding name, line, col)`.
    pub drops: Vec<(String, u32, u32)>,
    /// `vec![elem; len]` repeat macros with the idents of the length
    /// expression — the one allocation sink not expressible as a call.
    pub vec_macros: Vec<VecMacroSite>,
    /// Comparison expressions with the idents on both sides — the
    /// bounds-check evidence the taint pass matches against sink operands.
    pub checks: Vec<CheckSite>,
    /// Spans of `return` statements and the trailing expression, with the
    /// idents each mentions — what the function actually hands back.
    pub rets: Vec<RetSpan>,
}

/// One `vec![elem; len]` repeat-macro invocation.
#[derive(Debug)]
pub struct VecMacroSite {
    /// 1-based line of the `vec` token.
    pub line: u32,
    /// 1-based column of the `vec` token.
    pub col: u32,
    /// Idents in the length expression (after the top-level `;`).
    pub len_idents: Vec<String>,
}

/// One comparison expression (`<`, `<=`, `>`, `>=`, `==`, `!=`).
///
/// Over-approximate by design: generic-argument `<`/`>` produce harmless
/// noise because sanitization requires the check to mention the *tainted*
/// ident, which type names never are.
#[derive(Debug)]
pub struct CheckSite {
    /// 1-based line of the comparison operator.
    pub line: u32,
    /// Idents on either side of the operator, bounded by expression
    /// delimiters.
    pub idents: Vec<String>,
}

/// One value-producing region: a `return …;` statement or the body's
/// trailing expression.
#[derive(Debug)]
pub struct RetSpan {
    /// 1-based line of the span's first token.
    pub start_line: u32,
    /// Column of the span's first token.
    pub start_col: u32,
    /// 1-based line of the span's last token.
    pub end_line: u32,
    /// Column of the span's last token.
    pub end_col: u32,
    /// Idents the span mentions.
    pub idents: Vec<String>,
    /// The span's first token is `Err` — the value handed back is an error
    /// (a diagnostic), not data, so the taint pass ignores it.
    pub is_err: bool,
    /// The span contains a modular reduction (`%`) or a literal mask
    /// (`& 0xff`), so the value handed back is range-bounded regardless of
    /// its inputs. The taint pass treats such returns as sanitized.
    pub bounded: bool,
}

/// One lock-guard acquisition site inside a body.
#[derive(Debug)]
pub struct AcquireSite {
    /// 1-based line of the method name token.
    pub line: u32,
    /// 1-based column of the method name token.
    pub col: u32,
    /// `lock`, `read` or `write`.
    pub method: String,
    /// Receiver key: `self.field`, `base.field`, a bare ident (static or
    /// local), or `""` when the receiver shape is unrecoverable. Index
    /// expressions are erased (`self.shards[i].lock()` → `self.shards`).
    pub target: String,
}

/// One `Condvar` operation inside a body.
#[derive(Debug)]
pub struct CondvarSite {
    /// 1-based line of the method name token.
    pub line: u32,
    /// 1-based column of the method name token.
    pub col: u32,
    /// `wait`, `wait_timeout`, `wait_while`, `notify_one` or `notify_all`.
    pub method: String,
    /// Receiver key in the same shape as [`AcquireSite::target`].
    pub target: String,
    /// For `wait*`: the guard binding passed as first argument, when it is
    /// a plain ident.
    pub guard_arg: Option<String>,
    /// `true` when the site sits inside any `loop`/`while`/`for` body —
    /// the predicate-rechecking shape `condvar-discipline` requires.
    pub in_loop: bool,
}

/// One call that blocks the current thread (outside lock acquisition).
#[derive(Debug)]
pub struct BlockingSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Short description, e.g. `thread::sleep` or `JoinHandle::join`.
    pub what: String,
}

/// One single-ident `let` binding with the extents guard-lifetime tracking
/// needs: where its initializer ends (acquisitions inside it belong to the
/// binding) and where its enclosing scope closes (the implicit drop point).
#[derive(Debug)]
pub struct LetBind {
    /// The bound name.
    pub name: String,
    /// 1-based line of the name token.
    pub line: u32,
    /// 1-based column of the name token.
    pub col: u32,
    /// Position of the statement-terminating `;` (end of initializer).
    pub init_end_line: u32,
    /// Column of the terminating `;`.
    pub init_end_col: u32,
    /// Position of the `}` closing the innermost enclosing scope.
    pub end_line: u32,
    /// Column of that `}`.
    pub end_col: u32,
    /// Idents mentioned by the initializer expression.
    pub rhs_idents: Vec<String>,
    /// The initializer contains a bit-mask (`& <int>`) or modulo — value
    /// bounded by construction, so the taint pass treats the bind as clean.
    pub rhs_bounded: bool,
}

/// What sits before the `.` of a method call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `self.method(…)`.
    SelfRecv,
    /// `ident.method(…)` where `ident` starts the chain.
    Ident(String),
    /// Anything more complex (chained field/method access, call result…).
    Unknown,
}

/// One call site inside a body.
#[derive(Debug)]
pub struct CallSite {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// The callee's final name segment.
    pub name: String,
    /// Path segments before the name (`Mlp::forward` → `["Mlp"]`).
    pub qualifier: Vec<String>,
    /// `Some` for method-call syntax, `None` for free/path calls.
    pub receiver: Option<Receiver>,
    /// `true` when the statement discards this call's return value
    /// (`let _ = f();` or bare `f();` with this call outermost).
    pub discarded: bool,
    /// Idents per top-level comma-separated argument of the paren group
    /// (empty when the call has no argument list the parser can see).
    pub args: Vec<Vec<String>>,
}

/// The kind of panic hazard at a [`PanicSite`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `panic!` / `todo!` / `unimplemented!` / `unreachable!`.
    Macro,
    /// `assert!` / `assert_eq!` / `assert_ne!`.
    Assert,
    /// `.unwrap()` / `.expect(…)`.
    UnwrapExpect,
}

/// One potential panic site inside a body.
#[derive(Debug)]
pub struct PanicSite {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Which hazard class.
    pub kind: PanicKind,
    /// Short human description (`panic!`, `.unwrap()`, `assert!`…).
    pub what: String,
}

/// One slice/array index expression.
#[derive(Debug)]
pub struct IndexSite {
    /// 1-based line of the `[`.
    pub line: u32,
    /// 1-based column of the `[`.
    pub col: u32,
    /// Idents inside the bracket group (covers `[n]`, `[..n]`, `[a..b]`).
    pub idents: Vec<String>,
    /// The bracket group contains a bit-mask (`& <int>`) or modulo — the
    /// index is bounded by construction (`TABLE[(x & 0xff) as usize]`).
    pub bounded: bool,
}

/// Best-effort source classification of an `as` cast operand.
#[derive(Debug, Clone, PartialEq)]
pub enum CastSrc {
    /// Operand has a known type tail (from a param, local, struct field,
    /// loop counter, `.len()`/`.count()` tail, or an inner cast).
    Ty(String),
    /// Operand is an integer literal with this value.
    IntLit(i128),
    /// Operand is a float literal.
    FloatLit,
    /// Source type could not be determined; the rule stays quiet.
    Unknown,
}

/// One `expr as Type` cast.
#[derive(Debug)]
pub struct CastSite {
    /// 1-based line of the `as` token.
    pub line: u32,
    /// 1-based column of the `as` token.
    pub col: u32,
    /// Source classification.
    pub src: CastSrc,
    /// Destination type tail (`u32`, `f64`, …).
    pub dst: String,
}

/// Keywords that look like a call when followed by `(` but are not.
const EXPR_KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "in", "as", "move", "ref",
    "mut", "break", "continue", "where", "impl", "fn", "pub", "use", "mod", "struct", "enum",
    "trait", "type", "const", "static", "unsafe", "extern", "crate", "super", "dyn", "await",
    "yield", "box",
];

/// Lock type names the lock model inventories (struct fields, statics).
const LOCK_TYPES: &[&str] = &["Mutex", "RwLock", "Condvar"];
/// Guard type names that mark a fn as guard-returning in its signature.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];
/// `Condvar` method names tracked by the concurrency pass.
const CONDVAR_METHODS: &[&str] =
    &["wait", "wait_timeout", "wait_while", "notify_one", "notify_all"];
/// Method calls that block the current thread when they appear under a
/// held guard. `join`/`recv` only count with zero arguments (separating
/// `JoinHandle::join` from `slice::join(sep)`); the I/O names take
/// buffers and are matched by name alone.
const BLOCKING_METHODS: &[&str] = &[
    "recv_timeout", "send", "read_exact", "read_to_end", "read_to_string", "write_all",
    "accept",
];
/// `panic!`-family macro names.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];
/// `assert!`-family macro names (`debug_assert*` compiled out in release,
/// so not panic hazards for the production profile).
const ASSERT_MACROS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// A [`Code`] position that is not a matched bracket.
const UNPAIRED: usize = usize::MAX;

/// One lexed file as every pass sees it: the non-comment tokens, each
/// bracket's partner and the test-only spans, all computed once. Positions
/// index the code tokens.
pub struct Code {
    /// Every token of the file, comments included.
    toks: Vec<Token>,
    /// `toks` indices of the non-comment tokens.
    idx: Vec<usize>,
    /// Per position: the partner of a matched `(`/`[`/`{` or its closer.
    pair: Vec<usize>,
    /// Inclusive position ranges of test-only items, in source order.
    tests: Vec<(usize, usize)>,
}

impl Code {
    /// Builds the code view of one lexed file.
    pub fn new(toks: Vec<Token>) -> Self {
        let idx: Vec<usize> = (0..toks.len()).filter(|&i| !toks[i].is_comment()).collect();
        let mut pair = vec![UNPAIRED; idx.len()];
        let mut open = Vec::new();
        for (p, &i) in idx.iter().enumerate() {
            if toks[i].kind != TokenKind::Punct {
                continue;
            }
            match toks[i].text.as_str() {
                "(" | "[" | "{" => open.push(p),
                ")" | "]" | "}" => {
                    if let Some(o) = open.pop() {
                        pair[o] = p;
                        pair[p] = o;
                    }
                }
                _ => {}
            }
        }
        let mut code = Code {
            toks,
            idx,
            pair,
            tests: Vec::new(),
        };
        code.tests = code.test_spans();
        code
    }

    /// The items an outer test attribute ([`attr_is_test`]) marks: from the
    /// attribute through the item's body closer or its `;`.
    fn test_spans(&self) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut p = 0;
        while p < self.len() {
            let t = self.tok(p);
            if t.kind == (TokenKind::Attr { inner: false }) && attr_is_test(&t.text) {
                let q = self.seek(p + 1, self.len(), false, |u| {
                    u.is_punct("{") || u.is_punct(";")
                });
                if q < self.len() && !self.is_close(q) {
                    let last = if self.tok(q).is_punct(";") {
                        q
                    } else {
                        self.close(q)
                    };
                    spans.push((p, last.min(self.len() - 1)));
                    p = last;
                }
            }
            p += 1;
        }
        spans
    }

    /// Number of code tokens.
    pub(crate) fn len(&self) -> usize {
        self.idx.len()
    }

    /// The code token at `p` (callers keep `p` below [`Code::len`]).
    pub(crate) fn tok(&self, p: usize) -> &Token {
        &self.toks[self.idx[p]]
    }

    /// The code token at `p`, if any.
    pub(crate) fn get(&self, p: usize) -> Option<&Token> {
        self.idx.get(p).map(|&i| &self.toks[i])
    }

    fn pos(&self, p: usize) -> (u32, u32) {
        let t = self.tok(p);
        (t.line, t.col)
    }

    /// Is position `p` a `(`, `[` or `{`?
    pub(crate) fn is_open(&self, p: usize) -> bool {
        let t = self.tok(p);
        t.kind == TokenKind::Punct && matches!(t.text.as_str(), "(" | "[" | "{")
    }

    fn is_close(&self, p: usize) -> bool {
        let t = self.tok(p);
        t.kind == TokenKind::Punct && matches!(t.text.as_str(), ")" | "]" | "}")
    }

    /// The closer of the group opening at `p`; [`Code::len`] when unmatched.
    pub(crate) fn close(&self, p: usize) -> usize {
        match self.pair[p] {
            q if q != UNPAIRED && q > p => q,
            _ => self.len(),
        }
    }

    /// Is position `p` inside a test-only item?
    pub(crate) fn in_test(&self, p: usize) -> bool {
        let k = self.tests.partition_point(|&(s, _)| s <= p);
        k > 0 && self.tests[k - 1].1 >= p
    }

    /// The first position in `from..end` whose token `stop` accepts, or the
    /// closer of the group enclosing `from`, whichever comes first; `end`
    /// when neither does. Bracket groups are hopped whole (`stop` sees their
    /// opener), and with `angles` so is the inside of `<…>` generic
    /// arguments (`>>` closes two levels).
    fn seek(
        &self,
        from: usize,
        end: usize,
        angles: bool,
        mut stop: impl FnMut(&Token) -> bool,
    ) -> usize {
        let mut angle = 0isize;
        let mut p = from;
        while p < end {
            let t = self.tok(p);
            if angle <= 0 && stop(t) || self.is_close(p) {
                return p;
            }
            if angles {
                angle += angle_step(t);
            }
            p = if self.is_open(p) {
                self.close(p) + 1
            } else {
                p + 1
            };
        }
        end
    }

    /// The `sep`-separated top-level pieces of `from..end`, empty ones
    /// included (see [`Code::seek`] for `angles`).
    fn split(&self, from: usize, end: usize, angles: bool, sep: &str) -> Vec<(usize, usize)> {
        let mut pieces = Vec::new();
        let mut s = from;
        loop {
            let e = self.seek(s, end, angles, |t| t.is_punct(sep));
            pieces.push((s, e));
            if !self.get(e).is_some_and(|t| e < end && t.is_punct(sep)) {
                return pieces;
            }
            s = e + 1;
        }
    }

    /// The position just past the `<…>` generic list opening at `p`.
    fn angle_end(&self, p: usize) -> usize {
        let mut depth = 0isize;
        let mut q = p;
        while q < self.len() {
            depth += angle_step(self.tok(q));
            q += 1;
            if depth <= 0 {
                break;
            }
        }
        q
    }
}

/// How a token moves `<…>` generic depth (`<<` and `>>` count twice).
fn angle_step(t: &Token) -> isize {
    match (&t.kind, t.text.as_str()) {
        (TokenKind::Punct, "<") => 1,
        (TokenKind::Punct, "<<") => 2,
        (TokenKind::Punct, ">") => -1,
        (TokenKind::Punct, ">>") => -2,
        _ => 0,
    }
}

/// Reduces the type starting at code position `from` to its salient tail
/// segment: `&mut cca::Matrix<f64>` → `Matrix`, `Vec<f32>` → `Vec`, `f64` →
/// `f64`. Only a prefix is read, so `end` may lie past the type. Returns
/// `None` for slices/tuples/fn-pointers and other shapes the rules don't
/// classify.
pub fn type_tail(c: &Code, from: usize, end: usize) -> Option<String> {
    let tok = |p: usize| (p < end).then(|| c.tok(p));
    let mut i = from;
    // Strip leading refs, mutability and lifetimes.
    while tok(i).is_some_and(|t| {
        t.is_punct("&") || t.kind == TokenKind::Lifetime || t.is_ident("mut") || t.is_ident("dyn")
    }) {
        i += 1;
    }
    // Peel transparent pointer wrappers: `Arc<Inner>` types as `Inner` —
    // the type you reach *through* the value, which is what receiver and
    // lock-field resolution care about.
    while tok(i).is_some_and(|t| {
        t.kind == TokenKind::Ident && matches!(t.text.as_str(), "Arc" | "Rc" | "Box")
    }) && tok(i + 1).is_some_and(|t| t.is_punct("<"))
    {
        i += 2;
    }
    let mut last: Option<String> = None;
    while let Some(t) = tok(i) {
        match t.kind {
            TokenKind::Ident => last = Some(t.text.clone()),
            TokenKind::Punct if t.text == "::" => {}
            // Stop at generic args or anything structural.
            _ => break,
        }
        i += 1;
    }
    last
}

/// The idents of `from..end` (keywords dropped) and whether the range is
/// bounded by construction: it holds a modulo or a mask with an integer
/// literal (`& 0xff`).
fn operand(c: &Code, from: usize, end: usize) -> (Vec<String>, bool) {
    let mut idents = Vec::new();
    let mut bounded = false;
    for q in from..end {
        let u = c.tok(q);
        match u.kind {
            TokenKind::Ident if !EXPR_KEYWORDS.contains(&u.text.as_str()) => {
                idents.push(u.text.clone());
            }
            TokenKind::Punct if u.text == "%" => bounded = true,
            TokenKind::Punct if u.text == "&" => {
                bounded |= q + 1 < end && c.tok(q + 1).kind == TokenKind::Int;
            }
            _ => {}
        }
    }
    (idents, bounded)
}

/// A parse cursor over a [`Code`] view.
struct Cursor<'a> {
    c: &'a Code,
    /// The current code position.
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> Option<&'a Token> {
        self.c.get(self.pos + ahead)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.c.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Skips a balanced `<…>` generic-argument list (cursor on `<`).
    fn skip_generics(&mut self) {
        self.pos = self.c.angle_end(self.pos);
    }

    /// Moves to the first top-level token `stop` accepts (generic arguments
    /// hopped), or to the closer that ends the enclosing group.
    fn seek(&mut self, stop: impl FnMut(&Token) -> bool) {
        self.pos = self.c.seek(self.pos, self.c.len(), true, stop);
    }

    /// Skips past the next top-level `;` (for `use`, `const`, `static`,
    /// `type` items).
    fn skip_to_semi(&mut self) {
        self.pos = self
            .c
            .seek(self.pos, self.c.len(), false, |t| t.is_punct(";"));
        if self.peek(0).is_some_and(|t| t.is_punct(";")) {
            self.pos += 1;
        }
    }

    /// Cursor on `(`/`[`/`{`: moves past the group and returns the code
    /// range of its interior.
    fn skip_balanced(&mut self) -> (usize, usize) {
        let close = self.c.close(self.pos);
        let interior = (self.pos + 1, close);
        self.pos = (close + 1).min(self.c.len());
        interior
    }
}

/// Item-level scope the parser walks through.
struct Scope {
    /// `Some(name)` for a named `mod`.
    module: Option<String>,
    /// Self type for `impl`/`trait` scopes.
    self_ty: Option<String>,
}

/// Parses one file from its code view.
pub fn parse(code: &Code) -> ParsedFile {
    let mut out = ParsedFile::default();
    let mut cx = Cursor { c: code, pos: 0 };
    let mut scopes: Vec<Scope> = Vec::new();

    // Pending item modifiers (reset whenever an item or brace is consumed).
    let mut pend_pub = false;
    let mut pend_start: Option<u32> = None;

    while let Some(t) = cx.peek(0) {
        let modifier = matches!(
            t.text.as_str(),
            "pub" | "unsafe" | "async" | "default" | "extern"
        ) || t.text == "const" && cx.peek(1).is_some_and(|n| n.is_ident("fn"));
        match t.kind {
            TokenKind::Attr { inner } => {
                if !inner {
                    pend_start.get_or_insert(t.line);
                }
                cx.bump();
                continue;
            }
            TokenKind::Ident if modifier => {
                pend_start.get_or_insert(t.line);
                cx.bump();
                if t.text != "pub" {
                    // `extern "C"` string.
                    if cx.peek(0).is_some_and(|n| n.kind == TokenKind::Str) {
                        cx.bump();
                    }
                } else if cx.peek(0).is_some_and(|n| n.is_punct("(")) {
                    cx.skip_balanced();
                } else {
                    pend_pub = true;
                }
                continue;
            }
            _ => {}
        }
        let peek_is = |cx: &Cursor, p: &str| cx.peek(0).is_some_and(|n| n.is_punct(p));
        match (&t.kind, t.text.as_str()) {
            (TokenKind::Ident, "mod") => {
                cx.bump();
                let name = cx.bump().map(|n| n.text.clone()).unwrap_or_default();
                if peek_is(&cx, "{") {
                    cx.bump();
                    scopes.push(Scope {
                        module: Some(name),
                        self_ty: None,
                    });
                } else {
                    cx.skip_to_semi();
                }
            }
            (TokenKind::Ident, "impl") => {
                cx.bump();
                if peek_is(&cx, "<") {
                    cx.skip_generics();
                }
                let first = parse_type_path(&mut cx);
                let self_ty = if cx.peek(0).is_some_and(|n| n.is_ident("for")) {
                    cx.bump();
                    parse_type_path(&mut cx)
                } else {
                    first
                };
                // Skip `where …` up to the opening brace.
                cx.seek(|n| n.is_punct("{"));
                if peek_is(&cx, "{") {
                    cx.bump();
                    scopes.push(Scope {
                        module: None,
                        self_ty,
                    });
                }
            }
            (TokenKind::Ident, "trait") => {
                cx.bump();
                let name = cx.bump().map(|n| n.text.clone());
                cx.seek(|n| n.is_punct("{") || n.is_punct(";"));
                let braced = peek_is(&cx, "{");
                cx.bump();
                if braced {
                    scopes.push(Scope {
                        module: None,
                        self_ty: name,
                    });
                }
            }
            (TokenKind::Ident, "fn") => {
                let module: Vec<String> = scopes.iter().filter_map(|s| s.module.clone()).collect();
                let self_ty = scopes.iter().rev().find_map(|s| s.self_ty.clone());
                parse_fn(&mut cx, &mut out, module, self_ty, pend_pub, pend_start);
            }
            (TokenKind::Ident, "struct") => {
                cx.bump();
                let (name, line) = cx
                    .bump()
                    .map(|n| (n.text.clone(), n.line))
                    .unwrap_or_default();
                if peek_is(&cx, "<") {
                    cx.skip_generics();
                }
                if peek_is(&cx, "{") {
                    let (s, e) = cx.skip_balanced();
                    let (fields, lock_fields) = parse_struct_fields(code, s, e);
                    out.structs.push(StructDef {
                        name,
                        line,
                        fields,
                        lock_fields,
                    });
                } else {
                    if peek_is(&cx, "(") {
                        cx.skip_balanced();
                    }
                    cx.skip_to_semi();
                }
            }
            (TokenKind::Ident, "enum" | "union") => {
                cx.bump();
                cx.bump(); // name
                if peek_is(&cx, "<") {
                    cx.skip_generics();
                }
                if peek_is(&cx, "{") {
                    cx.skip_balanced();
                } else {
                    cx.skip_to_semi();
                }
            }
            (TokenKind::Ident, "use" | "type" | "const") => cx.skip_to_semi(),
            (TokenKind::Ident, "static") => {
                cx.bump();
                if cx.peek(0).is_some_and(|n| n.is_ident("mut")) {
                    cx.bump();
                }
                let name = cx.peek(0).filter(|n| n.kind == TokenKind::Ident);
                if let Some(name) = name {
                    cx.bump();
                    if peek_is(&cx, ":") {
                        cx.bump();
                        // The first lock type name in the declared type
                        // makes the static a lock.
                        let ty = cx.pos;
                        cx.seek(|n| n.is_punct("=") || n.is_punct(";"));
                        let kind = (ty..cx.pos).map(|p| code.tok(p)).find(|n| {
                            n.kind == TokenKind::Ident && LOCK_TYPES.contains(&n.text.as_str())
                        });
                        if let Some(kind) = kind {
                            out.statics.push(StaticDef {
                                name: name.text.clone(),
                                kind: kind.text.clone(),
                                line: name.line,
                            });
                        }
                    }
                }
                cx.skip_to_semi();
            }
            (TokenKind::Ident, "macro_rules") => {
                cx.bump();
                cx.bump(); // !
                cx.bump(); // name
                if peek_is(&cx, "{") {
                    cx.skip_balanced();
                }
            }
            (TokenKind::Punct, "{") => {
                cx.bump();
                scopes.push(Scope {
                    module: None,
                    self_ty: None,
                });
            }
            (TokenKind::Punct, "}") => {
                cx.bump();
                scopes.pop();
            }
            _ => {
                cx.bump();
            }
        }
        (pend_pub, pend_start) = (false, None);
    }
    out
}

/// Parses a type path at the cursor (`a::b::Name`), returning the last
/// segment; stops before generic args.
fn parse_type_path(cx: &mut Cursor) -> Option<String> {
    let mut last = None;
    loop {
        match cx.peek(0) {
            Some(t) if t.kind == TokenKind::Ident => {
                last = Some(t.text.clone());
                cx.bump();
            }
            Some(t) if t.is_punct("&") || t.kind == TokenKind::Lifetime => {
                cx.bump();
                continue;
            }
            _ => break,
        }
        match cx.peek(0) {
            Some(t) if t.is_punct("::") => {
                cx.bump();
            }
            Some(t) if t.is_punct("<") => {
                cx.skip_generics();
                break;
            }
            _ => break,
        }
    }
    last
}

/// Parses `name: Type` fields inside a struct body's code range.
///
/// Returns `(fields, lock_fields)`: `fields` maps each named field to its
/// type tail (for method resolution), while `lock_fields` records fields
/// whose full declared type mentions a lock primitive anywhere (so
/// `Vec<Mutex<Shard>>` still registers as a `Mutex` field).
fn parse_struct_fields(
    c: &Code,
    start: usize,
    end: usize,
) -> (Vec<(String, String)>, Vec<(String, String)>) {
    let mut fields = Vec::new();
    let mut lock_fields = Vec::new();
    for (mut i, e) in c.split(start, end, true, ",") {
        // Field start: skip attrs / pub(...)
        while i < e {
            let t = c.tok(i);
            if matches!(t.kind, TokenKind::Attr { .. }) {
                i += 1;
            } else if t.is_ident("pub") {
                i += 1;
                if i < e && c.tok(i).is_punct("(") {
                    i = c.close(i) + 1;
                }
            } else {
                break;
            }
        }
        let named = i + 1 < e && c.tok(i).kind == TokenKind::Ident && c.tok(i + 1).is_punct(":");
        if !named {
            break; // not a named-field body
        }
        let name = c.tok(i).text.clone();
        let lock_kind = LOCK_TYPES
            .iter()
            .find(|k| (i + 2..e).any(|p| c.tok(p).is_ident(k)));
        if let Some(kind) = lock_kind {
            lock_fields.push((name.clone(), (*kind).to_string()));
        }
        if let Some(tail) = type_tail(c, i + 2, e) {
            fields.push((name, tail));
        }
    }
    (fields, lock_fields)
}

/// Parses one `fn` starting at the `fn` keyword.
fn parse_fn(
    cx: &mut Cursor,
    out: &mut ParsedFile,
    module: Vec<String>,
    self_ty: Option<String>,
    is_pub: bool,
    pend_start: Option<u32>,
) {
    let c = cx.c;
    let fn_tok_line = cx.peek(0).map(|t| t.line).unwrap_or(0);
    cx.bump(); // `fn`
    let Some(name_tok) = cx.bump() else { return };
    let is_test = c.in_test(cx.pos - 1);
    if cx.peek(0).is_some_and(|t| t.is_punct("<")) {
        cx.skip_generics();
    }
    // Params.
    let mut params = Vec::new();
    let mut param_names = Vec::new();
    if cx.peek(0).is_some_and(|t| t.is_punct("(")) {
        let (s, e) = cx.skip_balanced();
        (params, param_names) = parse_params(c, s, e);
    }
    // Return type: up to the body, the `;` or a `where` clause.
    let mut returns_result = false;
    let mut returns_guard = false;
    if cx.peek(0).is_some_and(|t| t.is_punct("->")) {
        cx.bump();
        let ty = cx.pos;
        cx.seek(|t| {
            returns_result |= t.is_ident("Result");
            t.is_punct("{") || t.is_punct(";") || t.is_ident("where")
        });
        returns_guard = (ty..cx.pos).any(|p| {
            let t = c.tok(p);
            t.kind == TokenKind::Ident && GUARD_TYPES.contains(&t.text.as_str())
        });
    }
    // Where clause.
    if cx.peek(0).is_some_and(|t| t.is_ident("where")) {
        cx.seek(|t| t.is_punct("{") || t.is_punct(";"));
    }
    // Body or `;`.
    let body = match cx.peek(0) {
        Some(t) if t.is_punct("{") => {
            let (s, e) = cx.skip_balanced();
            Some(extract_body(c, out, &module, self_ty.clone(), s, e))
        }
        Some(t) if t.is_punct(";") => {
            cx.bump();
            None
        }
        _ => None,
    };
    out.fns.push(FnDef {
        name: name_tok.text.clone(),
        module,
        self_ty,
        is_pub,
        line: name_tok.line,
        col: name_tok.col,
        attach_line: pend_start.unwrap_or(fn_tok_line),
        returns_result,
        returns_guard,
        is_test,
        params,
        param_names,
        body,
    });
}

/// Recognizes a byte-slice type (`&[u8]`, `&mut [u8]`) that [`type_tail`]
/// cannot classify — the untrusted-input boundary the taint pass seeds.
fn byte_slice_tail(c: &Code, from: usize, end: usize) -> Option<String> {
    let mut i = from;
    while i < end && {
        let t = c.tok(i);
        t.is_punct("&") || t.kind == TokenKind::Lifetime || t.is_ident("mut")
    } {
        i += 1;
    }
    let slice = i + 2 < end
        && c.tok(i).is_punct("[")
        && c.tok(i + 1).is_ident("u8")
        && c.tok(i + 2).is_punct("]");
    slice.then(|| "[u8]".to_string())
}

/// Parses the param list's code range into typed `(name, type tail)` pairs
/// plus the positional name list (every non-`self` param in order, `""` for
/// patterns) that call-argument alignment needs.
fn parse_params(c: &Code, start: usize, end: usize) -> (Vec<(String, String)>, Vec<String>) {
    let mut params = Vec::new();
    let mut names = Vec::new();
    for (s, e) in c.split(start, end, true, ",") {
        if s >= e {
            continue;
        }
        // A `self` receiver (`&self`, `mut self`, `self: Arc<Self>`) is not
        // a paren argument at call sites, so it gets no positional slot.
        let has = |f: fn(&Token) -> bool| (s..e).any(|p| f(c.tok(p)));
        if has(|t| t.is_ident("self")) && !has(|t| t.is_punct(":")) {
            continue;
        }
        // `name: Type` with an optional leading `mut`; everything else
        // (destructuring patterns) keeps its position but stays unnamed.
        let j = if c.tok(s).is_ident("mut") { s + 1 } else { s };
        if j + 1 < e && c.tok(j).kind == TokenKind::Ident && c.tok(j + 1).is_punct(":") {
            if c.tok(j).is_ident("self") {
                continue;
            }
            let name = c.tok(j).text.clone();
            names.push(name.clone());
            if let Some(tail) = type_tail(c, j + 2, e).or_else(|| byte_slice_tail(c, j + 2, e)) {
                params.push((name, tail));
            }
        } else {
            names.push(String::new());
        }
    }
    (params, names)
}

/// Collects the idents of each top-level comma-separated argument of the
/// call whose name token sits at code position `i` (skipping a turbofish).
fn call_args(c: &Code, i: usize, end: usize) -> Vec<Vec<String>> {
    let mut p = i + 1;
    // `name::<T>(…)` — hop over the turbofish to the paren group.
    if p < end && c.tok(p).is_punct("::") {
        p += 1;
        if p < end && c.tok(p).is_punct("<") {
            p = c.angle_end(p);
        }
    }
    if p >= end || !c.tok(p).is_punct("(") {
        return Vec::new();
    }
    let args: Vec<Vec<String>> = c
        .split(p + 1, c.close(p).min(end), false, ",")
        .into_iter()
        .map(|(s, e)| operand(c, s, e).0)
        .collect();
    if let [only] = &args[..] {
        if only.is_empty() {
            return Vec::new();
        }
    }
    args
}

/// Comparison operators recognized as bounds-check evidence. `==`/`!=`
/// cover the exact-length idiom (`buf.remaining() != want`).
const CHECK_OPS: &[&str] = &["<", "<=", ">", ">=", "==", "!="];

/// Puncts a comparison operand scan walks through; anything else
/// delimits the operand expression.
fn check_continues(t: &Token) -> bool {
    match t.kind {
        TokenKind::Ident => t.text == "as" || !EXPR_KEYWORDS.contains(&t.text.as_str()),
        TokenKind::Int | TokenKind::Float => true,
        TokenKind::Punct => {
            matches!(
                t.text.as_str(),
                "." | "::" | "[" | "]" | "*" | "+" | "-" | "/" | "%"
            )
        }
        _ => false,
    }
}

/// Extracts a body's facts from its interior `start..end` in one walk.
///
/// Each fact looks at most at the statement or group around its token, so
/// one forward pass suffices: a discarded call is decided at its
/// statement's start, before the walk reaches the call, and guard scopes
/// end at their brace's partner in the bracket table. Only the return
/// spans wait for the walk's end, because a trailing expression is known
/// once the last top-level `;` is.
fn extract_body(
    c: &Code,
    out: &mut ParsedFile,
    module: &[String],
    self_ty: Option<String>,
    start: usize,
    end: usize,
) -> Body {
    let mut body = Body::default();
    // Nested fn items: parsed as their own definitions where the walk meets
    // them; their ranges stay out of this body's facts.
    let mut nested: Vec<(usize, usize)> = Vec::new();
    // Call positions whose statement discards the value.
    let mut discarded: HashSet<usize> = HashSet::new();
    let mut stmt_start = true;
    // Open delimiters `(position, is a loop body)`; a pending
    // `loop`/`while`/`for` marks the next `{` as a loop body.
    let mut open: Vec<(usize, bool)> = Vec::new();
    let mut pending_loop = false;
    // Value ranges of `return` statements, and the last top-level `;`.
    let mut returns: Vec<(usize, usize)> = Vec::new();
    let mut last_semi: Option<usize> = None;
    let fn_close = if end < c.len() {
        c.pos(end)
    } else {
        c.toks.last().map_or((u32::MAX, 0), |t| (t.line, t.col))
    };
    let mut i = start;
    while i < end {
        let t = c.tok(i);
        if t.is_ident("fn") && i + 2 < end && c.tok(i + 1).kind == TokenKind::Ident {
            let mut sub = Cursor { c, pos: i };
            parse_fn(&mut sub, out, module.to_vec(), self_ty.clone(), false, None);
            nested.push((i, sub.pos.min(end)));
            i = sub.pos.min(end);
            stmt_start = true;
            continue;
        }
        // Lookbehind stops at the body start and at a nested fn.
        let floor = nested.last().map_or(start, |&(_, e)| e);
        let prev = |n: usize| i.checked_sub(n).filter(|&p| p >= floor).map(|p| c.tok(p));
        let next = |n: usize| (i + n < end).then(|| c.tok(i + n));
        let (line, col) = (t.line, t.col);

        // Discarded calls: statements `let _ = <expr>;` and bare
        // `<call-chain>;` — record the position of the outermost call.
        if stmt_start {
            let from = if t.is_ident("let")
                && next(1).is_some_and(|n| n.is_ident("_"))
                && next(2).is_some_and(|n| n.is_punct("="))
            {
                Some(i + 3)
            } else {
                (t.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&t.text.as_str()))
                    .then_some(i)
            };
            if let Some(call) = from.and_then(|f| outermost_call(c, f, end)) {
                discarded.insert(call);
            }
        }
        stmt_start = t.is_punct(";") || t.is_punct("{") || t.is_punct("}");

        match t.kind {
            TokenKind::Ident => {
                let name = t.text.as_str();
                match name {
                    "let" => let_facts(c, i, end, &open, fn_close, &mut body),
                    "loop" => pending_loop = true,
                    "for" => {
                        pending_loop = true;
                        // `for i in a..b` — classify the counter as usize
                        // (by far the dominant shape in this workspace's
                        // kernels).
                        let counter = next(1).filter(|n| n.kind == TokenKind::Ident);
                        if let Some(n) =
                            counter.filter(|_| next(2).is_some_and(|m| m.is_ident("in")))
                        {
                            let range = (i + 3..end)
                                .map(|k| c.tok(k))
                                .take_while(|u| !u.is_punct("{"))
                                .any(|u| u.is_punct("..") || u.is_punct("..="));
                            if range {
                                body.locals
                                    .push((n.text.clone(), "usize".to_string(), n.line));
                            }
                        }
                    }
                    "if" | "while" => {
                        pending_loop |= name == "while";
                        // Bare boolean condition (`if on {`, `while !self.done {`):
                        // the tested idents are bools, not magnitudes, so they are
                        // recorded as check evidence — a return span like
                        // `if on { return ON; } OFF` must not taint on `on`.
                        let mut idents = Vec::new();
                        let mut bare = true;
                        for u in (i + 1..end)
                            .map(|q| c.tok(q))
                            .take_while(|u| !u.is_punct("{"))
                        {
                            match u.kind {
                                TokenKind::Ident if !EXPR_KEYWORDS.contains(&u.text.as_str()) => {
                                    idents.push(u.text.clone());
                                }
                                TokenKind::Punct
                                    if matches!(u.text.as_str(), "." | "!" | "&&" | "||") => {}
                                _ => {
                                    bare = false;
                                    break;
                                }
                            }
                        }
                        if bare && !idents.is_empty() {
                            body.checks.push(CheckSite { line, idents });
                        }
                    }
                    "return" => {
                        // The value runs to the `;` (or enclosing `}`/`,`).
                        let e = c.seek(i + 1, end, false, |u| u.is_punct(";") || u.is_punct(","));
                        returns.push((i + 1, e));
                    }
                    _ => {}
                }
                if next(1).is_some_and(|n| n.is_punct("!")) {
                    if name == "vec" && next(2).is_some_and(|n| n.is_punct("[")) {
                        // `vec![elem; len]` — idents after the top-level `;`.
                        let close = c.close(i + 2).min(end);
                        let semi = c.seek(i + 3, close, false, |u| u.is_punct(";"));
                        if semi < close && c.tok(semi).is_punct(";") {
                            let len_idents = operand(c, semi + 1, close).0;
                            body.vec_macros.push(VecMacroSite {
                                line,
                                col,
                                len_idents,
                            });
                        }
                    }
                    let kind = if PANIC_MACROS.contains(&name) {
                        Some(PanicKind::Macro)
                    } else if ASSERT_MACROS.contains(&name) {
                        Some(PanicKind::Assert)
                    } else {
                        None
                    };
                    if let Some(kind) = kind {
                        body.panics.push(PanicSite {
                            line,
                            col,
                            kind,
                            what: format!("{name}!"),
                        });
                    }
                } else if (name == "unwrap" || name == "expect")
                    && prev(1).is_some_and(|p| p.is_punct("."))
                    && next(1).is_some_and(|n| n.is_punct("("))
                {
                    let what = format!(".{name}()");
                    body.panics.push(PanicSite {
                        line,
                        col,
                        kind: PanicKind::UnwrapExpect,
                        what,
                    });
                } else if name == "as" {
                    if let Some(cast) = classify_cast(c, i, start, end) {
                        body.casts.push(cast);
                    }
                }
                // Call site: `name(` or `name::<T>(`, name not a keyword.
                let is_call = !EXPR_KEYWORDS.contains(&name)
                    && match next(1) {
                        Some(n) if n.is_punct("(") => true,
                        // turbofish `name::<T>(…)`
                        Some(n) if n.is_punct("::") => next(2).is_some_and(|m| m.is_punct("<")),
                        _ => false,
                    }
                    && !prev(1).is_some_and(|p| p.is_ident("fn"));
                if is_call {
                    let (qualifier, receiver) = call_context(c, i, start);
                    body.calls.push(CallSite {
                        line,
                        col,
                        name: name.to_string(),
                        qualifier,
                        receiver,
                        discarded: discarded.contains(&i),
                        args: call_args(c, i, end),
                    });
                }
                // Concurrency facts: `drop(x)`, guard acquisitions, condvar
                // operations and blocking calls.
                let open_paren = next(1).is_some_and(|n| n.is_punct("("));
                let zero_arg = open_paren && next(2).is_some_and(|n| n.is_punct(")"));
                let arg = next(2).filter(|n| n.kind == TokenKind::Ident);
                if name == "drop"
                    && open_paren
                    && arg.is_some()
                    && next(3).is_some_and(|n| n.is_punct(")"))
                {
                    let dropped = arg.map(|n| n.text.clone()).unwrap_or_default();
                    body.drops.push((dropped, line, col));
                } else if open_paren && prev(1).is_some_and(|p| p.is_punct(".")) {
                    if matches!(name, "lock" | "read" | "write") && zero_arg {
                        let target = recv_key(c, i, start);
                        body.acquires.push(AcquireSite {
                            line,
                            col,
                            method: name.to_string(),
                            target,
                        });
                    } else if CONDVAR_METHODS.contains(&name) {
                        body.condvars.push(CondvarSite {
                            line,
                            col,
                            method: name.to_string(),
                            target: recv_key(c, i, start),
                            guard_arg: arg.map(|n| n.text.clone()),
                            in_loop: open.iter().any(|&(_, l)| l),
                        });
                    } else if BLOCKING_METHODS.contains(&name)
                        || (zero_arg && matches!(name, "join" | "recv" | "flush"))
                    {
                        body.blocking.push(BlockingSite {
                            line,
                            col,
                            what: format!(".{name}()"),
                        });
                    }
                } else if open_paren && prev(1).is_some_and(|p| p.is_punct("::")) {
                    let qual = prev(2).map(|p| p.text.as_str()).unwrap_or_default();
                    let blocking = matches!(
                        (qual, name),
                        ("thread", "sleep")
                            | ("TcpStream", "connect")
                            | ("File", "open" | "create")
                            | ("fs", _)
                    );
                    if blocking {
                        body.blocking.push(BlockingSite {
                            line,
                            col,
                            what: format!("{qual}::{name}"),
                        });
                    }
                }
            }
            TokenKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => {
                    open.push((i, t.text == "{" && pending_loop));
                    pending_loop &= t.text != "{";
                    let indexable = t.text == "["
                        && prev(1).is_some_and(|p| {
                            p.kind == TokenKind::Ident && !EXPR_KEYWORDS.contains(&p.text.as_str())
                                || p.is_punct(")")
                                || p.is_punct("]")
                        });
                    // `[..]` full-range slices cannot panic.
                    let full_range = next(1).is_some_and(|n| n.is_punct(".."))
                        && next(2).is_some_and(|n| n.is_punct("]"));
                    if indexable && !full_range {
                        let (idents, bounded) = operand(c, i + 1, c.close(i).min(end));
                        body.indexes.push(IndexSite {
                            line,
                            col,
                            idents,
                            bounded,
                        });
                    }
                }
                ")" | "]" | "}" => {
                    open.pop();
                }
                ";" => {
                    pending_loop = false;
                    if open.is_empty() {
                        last_semi = Some(i);
                    }
                }
                op if CHECK_OPS.contains(&op) => {
                    // Comparison: collect operand idents on both sides.
                    let operand_ident = |u: &&Token| u.kind == TokenKind::Ident && u.text != "as";
                    let left = (start..i)
                        .rev()
                        .map(|q| c.tok(q))
                        .take_while(|u| check_continues(u));
                    let mut idents: Vec<String> =
                        left.filter(operand_ident).map(|u| u.text.clone()).collect();
                    idents.reverse();
                    let right = (i + 1..end)
                        .map(|q| c.tok(q))
                        .take_while(|u| check_continues(u));
                    idents.extend(right.filter(operand_ident).map(|u| u.text.clone()));
                    if !idents.is_empty() {
                        body.checks.push(CheckSite { line, idents });
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }

    // Value-producing regions — explicit `return …;` statements, then the
    // trailing expression (after the last top-level `;`). The taint pass
    // derives return-value taint from these instead of the whole body, so
    // internally-sanitized functions stay clean.
    let trailing = (last_semi.map_or(start, |s| s + 1), end);
    for (s, e) in returns.into_iter().chain([trailing]) {
        if s >= e {
            continue;
        }
        let (mut idents, mut bounded) = (Vec::new(), false);
        let mut p = s;
        for (ns, ne) in nested.iter().copied().chain([(e, e)]) {
            if ns >= p {
                let (ids, b) = operand(c, p, ns.min(e));
                idents.extend(ids);
                bounded |= b;
            }
            p = p.max(ne);
            if p >= e {
                break;
            }
        }
        let ((start_line, start_col), (end_line, end_col)) = (c.pos(s), c.pos(e - 1));
        let is_err = c.tok(s).is_ident("Err");
        body.rets.push(RetSpan {
            start_line,
            start_col,
            end_line,
            end_col,
            idents,
            is_err,
            bounded,
        });
    }
    body
}

/// The facts of the `let` at code position `i`: a typed local (annotated,
/// or `let x = Type::ctor(…)`) and, for a named binding, its initializer
/// extent and enclosing scope — the guard-lifetime skeleton.
fn let_facts(
    c: &Code,
    i: usize,
    end: usize,
    open: &[(usize, bool)],
    fn_close: (u32, u32),
    body: &mut Body,
) {
    let at = |p: usize| (p < end).then(|| c.tok(p));
    let j = if at(i + 1).is_some_and(|t| t.is_ident("mut")) {
        i + 2
    } else {
        i + 1
    };
    let Some(bind) = at(j).filter(|t| t.kind == TokenKind::Ident) else {
        return;
    };
    let annotated = at(j + 1).is_some_and(|t| t.is_punct(":"));
    // `let x = Type::ctor(…)` — infer the local's type from the
    // constructor path (covers the ubiquitous `let m = Mlp::new(…)`).
    let ctor = at(j + 2).filter(|t| {
        t.kind == TokenKind::Ident && t.text.chars().next().is_some_and(char::is_uppercase)
    });
    if let Some(ty) = ctor.filter(|_| {
        at(j + 1).is_some_and(|t| t.is_punct("=")) && at(j + 3).is_some_and(|t| t.is_punct("::"))
    }) {
        body.locals
            .push((bind.text.clone(), ty.text.clone(), bind.line));
    }
    if annotated {
        if let Some(tail) = type_tail(c, j + 2, end) {
            body.locals.push((bind.text.clone(), tail, bind.line));
        }
    }
    if bind.text == "_" {
        return;
    }
    // `let x: T = …` — skip the annotation to the `=`.
    let k = if annotated {
        c.seek(j + 2, end, true, |t| t.is_punct("=") || t.is_punct(";"))
    } else {
        j + 1
    };
    if !at(k).is_some_and(|t| t.is_punct("=")) {
        return;
    }
    // The initializer runs to the top-level `;`.
    let m = c.seek(k + 1, end, false, |t| t.is_punct(";"));
    let (rhs_idents, rhs_bounded) = operand(c, k + 1, m);
    let (init_end_line, init_end_col) = if m < end { c.pos(m) } else { fn_close };
    let scope = open.iter().rev().find(|&&(p, _)| c.tok(p).is_punct("{"));
    let (end_line, end_col) = scope
        .map(|&(p, _)| c.close(p))
        .filter(|&q| q < end)
        .map_or(fn_close, |q| c.pos(q));
    body.binds.push(LetBind {
        name: bind.text.clone(),
        line: bind.line,
        col: bind.col,
        init_end_line,
        init_end_col,
        end_line,
        end_col,
        rhs_idents,
        rhs_bounded,
    });
}

/// Walks the `.`-chain receiver left of the method-name token at code
/// position `i` (whose previous token is `.`), erasing balanced `[…]`
/// index expressions, and returns the dotted key (`"self.inner.queue"`,
/// `"q"`, `"REGISTRY"`, …). A computed receiver — call result, literal —
/// yields `""` (the guard is chain-only: it never outlives the statement).
fn recv_key(c: &Code, i: usize, start: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut p = i;
    while p > start && c.tok(p - 1).is_punct(".") {
        p -= 1; // at the `.`
        if p == start {
            return String::new();
        }
        p -= 1; // component end
        if c.tok(p).is_punct("]") {
            // Erase a balanced `[…]` index expression.
            match c.pair[p] {
                o if o < p && o > start => p = o - 1,
                _ => return String::new(),
            }
        }
        let u = c.tok(p);
        if u.kind != TokenKind::Ident || EXPR_KEYWORDS.contains(&u.text.as_str()) {
            return String::new();
        }
        parts.push(u.text.clone());
        if parts.len() > 6 {
            return String::new();
        }
    }
    parts.reverse();
    parts.join(".")
}

/// From `from` (a statement's expression start), decides whether the
/// statement is a pure call chain whose outermost expression is a call, and
/// returns the code position of that call's name token.
///
/// Conservative: any top-level operator other than `.`/`::` aborts; a
/// top-level `?` means the value is consumed (not discarded); a macro
/// invocation aborts.
fn outermost_call(c: &Code, from: usize, end: usize) -> Option<usize> {
    let mut last_call: Option<usize> = None;
    let mut last_close: Option<usize> = None;
    let mut i = from;
    while i < end {
        let t = c.tok(i);
        match t.kind {
            TokenKind::Punct if c.is_open(i) => {
                // Only a call's argument list may open at the top level:
                // grouping parens, blocks and arrays mean no bare call.
                let callee = i
                    .checked_sub(1)
                    .is_some_and(|p| c.tok(p).kind == TokenKind::Ident);
                if !(t.text == "(" && callee) {
                    return None;
                }
                i = c.close(i);
                last_close = Some(i);
            }
            TokenKind::Punct => match t.text.as_str() {
                // Outermost call only if the statement ends right after its
                // closing paren.
                ";" => {
                    return match (last_call, last_close) {
                        (Some(call), Some(cl)) if cl + 1 == i => Some(call),
                        _ => None,
                    };
                }
                "." | "::" => {}
                _ => return None, // operator or `?`: the value is used
            },
            TokenKind::Ident => {
                if EXPR_KEYWORDS.contains(&t.text.as_str()) {
                    return None;
                }
                let nx = (i + 1 < end).then(|| c.tok(i + 1));
                if nx.is_some_and(|n| n.is_punct("!")) {
                    return None; // macro statement
                }
                if nx.is_some_and(|n| n.is_punct("(")) {
                    last_call = Some(i);
                }
            }
            // Literal heads of method chains: `"x".to_string();`.
            TokenKind::Str | TokenKind::RawStr | TokenKind::Int | TokenKind::Float => {}
            _ => return None,
        }
        i += 1;
    }
    None
}

/// Recovers the qualifier path and receiver for a call at code position `i`.
fn call_context(c: &Code, i: usize, start: usize) -> (Vec<String>, Option<Receiver>) {
    let tok = |p: usize| c.tok(p);
    // Method call: preceded by `.`
    if i > start && tok(i - 1).is_punct(".") {
        if i >= start + 2 {
            let r = tok(i - 2);
            if r.kind == TokenKind::Ident {
                // Chain head only when the receiver ident itself starts the
                // chain (not `a.b.method()` or `f().g.method()`).
                let head = i < start + 3 || {
                    let b = tok(i - 3);
                    !(b.is_punct(".") || b.is_punct(")") || b.is_punct("]"))
                };
                if head {
                    if r.text == "self" {
                        return (Vec::new(), Some(Receiver::SelfRecv));
                    }
                    return (Vec::new(), Some(Receiver::Ident(r.text.clone())));
                }
            }
        }
        return (Vec::new(), Some(Receiver::Unknown));
    }
    // Path call: walk back over `ident ::` pairs.
    let mut qualifier = Vec::new();
    let mut p = i;
    while p >= start + 2 && tok(p - 1).is_punct("::") && tok(p - 2).kind == TokenKind::Ident {
        qualifier.push(tok(p - 2).text.clone());
        p -= 2;
    }
    qualifier.reverse();
    (qualifier, None)
}

/// Classifies the cast at code position `i` (the `as` token).
fn classify_cast(c: &Code, i: usize, start: usize, end: usize) -> Option<CastSite> {
    let tok = |p: usize| c.tok(p);
    let as_tok = tok(i);
    // Destination: `as u32`, `as f64`, `as usize` — a single ident (paths
    // and pointer casts are not numeric and are skipped).
    let dst_tok = if i + 1 < end { Some(tok(i + 1)) } else { None };
    let dst = match dst_tok {
        Some(t) if t.kind == TokenKind::Ident => t.text.clone(),
        _ => return None,
    };
    if i == start {
        return None;
    }
    let p = tok(i - 1);
    let src = match p.kind {
        TokenKind::Int => CastSrc::IntLit(parse_int_literal(&p.text)?),
        TokenKind::Float => CastSrc::FloatLit,
        TokenKind::Ident => {
            // `self.field as T` / `recv.field as T` handled by the caller
            // (needs struct context); mark the ident for lookup.
            CastSrc::Ty(format!("?ident:{}", ident_cast_context(c, i, start)))
        }
        TokenKind::Punct if p.text == ")" => {
            // `.len() as` / `.count() as` → usize; `(x as T) as U` → T.
            closing_paren_source(c, i, start).unwrap_or(CastSrc::Unknown)
        }
        _ => CastSrc::Unknown,
    };
    Some(CastSite {
        line: as_tok.line,
        col: as_tok.col,
        src,
        dst,
    })
}

/// Builds the lookup key for an identifier cast operand: `name`,
/// `self.field`, or `other.field` (resolved later against locals, params
/// and struct fields).
fn ident_cast_context(c: &Code, i: usize, start: usize) -> String {
    let tok = |p: usize| c.tok(p);
    let name = tok(i - 1).text.clone();
    if i >= start + 3 && tok(i - 2).is_punct(".") && tok(i - 3).kind == TokenKind::Ident {
        // Only a two-segment chain head (`x.field as`), deeper chains are
        // unknown.
        let base_clear = i < start + 4 || {
            let b = tok(i - 4);
            !(b.is_punct(".") || b.is_punct(")") || b.is_punct("]"))
        };
        if base_clear {
            return format!("{}.{}", tok(i - 3).text, name);
        }
        return String::new();
    }
    if i >= start + 2 {
        let b = tok(i - 2);
        if b.is_punct(".") || b.is_punct("::") {
            return String::new(); // deeper chain; unknown
        }
    }
    name
}

/// Source classification when the cast operand ends in `)`.
fn closing_paren_source(c: &Code, i: usize, start: usize) -> Option<CastSrc> {
    let tok = |p: usize| c.tok(p);
    // `… . len ( ) as` → usize (same for count).
    if i >= start + 4
        && tok(i - 2).is_punct("(")
        && tok(i - 3).kind == TokenKind::Ident
        && tok(i - 4).is_punct(".")
    {
        let m = tok(i - 3).text.as_str();
        if m == "len" || m == "count" || m == "capacity" {
            return Some(CastSrc::Ty("usize".to_string()));
        }
        return Some(CastSrc::Unknown);
    }
    // `( x as T ) as` → T.
    if i >= start + 3 && tok(i - 2).kind == TokenKind::Ident && tok(i - 3).is_ident("as") {
        return Some(CastSrc::Ty(tok(i - 2).text.clone()));
    }
    Some(CastSrc::Unknown)
}

/// Parses an integer literal's value (decimal/hex/octal/binary, `_`
/// separators and type suffixes tolerated).
fn parse_int_literal(text: &str) -> Option<i128> {
    let t: String = text.chars().filter(|&c| c != '_').collect();
    let (digits, radix) = if let Some(h) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        (h, 16)
    } else if let Some(o) = t.strip_prefix("0o") {
        (o, 8)
    } else if let Some(b) = t.strip_prefix("0b") {
        (b, 2)
    } else {
        (t.as_str(), 10)
    };
    // Strip a type suffix (`u32`, `usize`, …): cut at the first char that is
    // not a digit of the radix.
    let end = digits
        .char_indices()
        .find(|&(_, c)| !c.is_digit(radix))
        .map(|(idx, _)| idx)
        .unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    i128::from_str_radix(&digits[..end], radix).ok()
}

/// Does an outer attribute make its item test-only? `#[test]` does, and so
/// does a `#[cfg(…)]` whose predicate cannot hold without `test`: `test`
/// itself, an `all(…)` with such a member, or an `any(…)` whose members all
/// are. `any(test, …)`, `not(test)` and names that merely contain "test"
/// mark production code.
pub fn attr_is_test(text: &str) -> bool {
    let inner: String = text
        .trim_start_matches('#')
        .trim_start_matches('!')
        .trim_start_matches('[')
        .trim_end_matches(']')
        .chars()
        .filter(|c| !c.is_whitespace())
        .collect();
    inner == "test"
        || inner.starts_with("test(")
        || inner
            .strip_prefix("cfg(")
            .and_then(|p| p.strip_suffix(')'))
            .is_some_and(cfg_needs_test)
}

/// Can the cfg predicate `p` (whitespace removed) hold only with `test` set?
fn cfg_needs_test(p: &str) -> bool {
    let Some((op, rest)) = p.split_once('(') else {
        return p == "test";
    };
    let Some(args) = rest.strip_suffix(')') else {
        return false;
    };
    let mut members = Vec::new();
    let (mut depth, mut from) = (0usize, 0usize);
    for (i, ch) in args.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                members.push(&args[from..i]);
                from = i + 1;
            }
            _ => {}
        }
    }
    members.push(&args[from..]);
    members.retain(|m| !m.is_empty());
    match op {
        "all" => members.into_iter().any(cfg_needs_test),
        "any" => !members.is_empty() && members.into_iter().all(cfg_needs_test),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&Code::new(lex(src).expect("lex")))
    }

    #[test]
    fn fn_signature_and_module_path() {
        let src = r#"
            pub mod outer {
                impl Model {
                    /// doc
                    pub fn embed(&self, x: &Tensor, k: usize) -> Result<Vec<f32>, E> { x.forward() }
                    fn helper(&self) {}
                }
                pub fn free(a: f64) -> f64 { a }
            }
        "#;
        let p = parsed(src);
        assert_eq!(p.fns.len(), 3);
        let embed = &p.fns[0];
        assert_eq!(embed.name, "embed");
        assert_eq!(embed.module, vec!["outer"]);
        assert_eq!(embed.self_ty.as_deref(), Some("Model"));
        assert!(embed.is_pub && embed.returns_result);
        assert_eq!(embed.params, vec![("x".into(), "Tensor".into()), ("k".into(), "usize".into())]);
        assert!(!p.fns[1].is_pub);
        assert_eq!(p.fns[2].self_ty, None);
        assert!(!p.fns[2].returns_result);
    }

    #[test]
    fn calls_receivers_and_qualifiers() {
        let src = r#"
            fn f(m: Mlp) {
                m.forward(1);
                self_like::Type::build(2);
                helper(3);
                self.step();
            }
        "#;
        let p = parsed(src);
        let calls = &p.fns[0].body.as_ref().unwrap().calls;
        assert_eq!(calls.len(), 4);
        assert_eq!(calls[0].receiver, Some(Receiver::Ident("m".into())));
        assert_eq!(calls[1].qualifier, vec!["self_like", "Type"]);
        assert!(calls[2].qualifier.is_empty() && calls[2].receiver.is_none());
        assert_eq!(calls[3].receiver, Some(Receiver::SelfRecv));
    }

    #[test]
    fn panic_sites_by_kind() {
        let src = r#"
            fn f(v: Vec<u32>) {
                let a = v.first().unwrap();
                assert!(a > &0);
                if v.is_empty() { panic!("no"); }
            }
        "#;
        let p = parsed(src);
        let panics = &p.fns[0].body.as_ref().unwrap().panics;
        let kinds: Vec<PanicKind> = panics.iter().map(|p| p.kind).collect();
        assert_eq!(kinds, vec![PanicKind::UnwrapExpect, PanicKind::Assert, PanicKind::Macro]);
    }

    #[test]
    fn index_sites_and_full_range_exemption() {
        let src = "fn f(v: &[f32], out: &mut [f32]) { let x = v[3] + v[4]; out[..].fill(x); let s = &v[1..2]; }";
        let p = parsed(src);
        let idx = &p.fns[0].body.as_ref().unwrap().indexes;
        assert_eq!(idx.len(), 3, "{idx:?}"); // v[3], v[4], v[1..2]; out[..] exempt
    }

    #[test]
    fn cast_sources() {
        let src = r#"
            fn f(n: usize, r: f64) {
                let a = n as u32;
                let b = 300 as u8;
                let c = 1.5 as u64;
                let d = v.len() as f64;
                let e = (n as u32) as u16;
                for i in 0..n { let g = i as f32; }
            }
        "#;
        let p = parsed(src);
        let casts = &p.fns[0].body.as_ref().unwrap().casts;
        assert_eq!(casts.len(), 7, "{casts:?}");
        assert_eq!(casts[0].src, CastSrc::Ty("?ident:n".into()));
        assert_eq!(casts[1].src, CastSrc::IntLit(300));
        assert_eq!(casts[2].src, CastSrc::FloatLit);
        assert_eq!(casts[3].src, CastSrc::Ty("usize".into()));
        // `(n as u32) as u16` carries both the inner and the outer cast,
        // and the outer one sees the parenthesised `u32` source.
        assert_eq!(casts[4].dst, "u32");
        assert_eq!((casts[5].src.clone(), casts[5].dst.as_str()), (CastSrc::Ty("u32".into()), "u16"));
        assert_eq!(casts[6].src, CastSrc::Ty("?ident:i".into()));
        // the loop counter is recorded as a usize local
        let locals = &p.fns[0].body.as_ref().unwrap().locals;
        assert!(locals.iter().any(|(n, t, _)| n == "i" && t == "usize"), "{locals:?}");
    }

    #[test]
    fn discarded_calls_detected() {
        let src = r#"
            fn f(s: Store) {
                let _ = s.save(1);
                s.save(2);
                let ok = s.save(3);
                let _ = s.save(4)?;
                log(s.save(5));
                x += s.save(6);
            }
        "#;
        let p = parsed(src);
        let calls = &p.fns[0].body.as_ref().unwrap().calls;
        let discarded: Vec<u32> =
            calls.iter().filter(|c| c.discarded).map(|c| c.line).collect();
        // save(1), save(2) and the outermost `log(…)` statement are
        // discarded; save(3..6) are consumed (binding, `?`, argument, `+=`).
        assert_eq!(discarded, vec![3, 4, 7], "{calls:?}");
    }

    #[test]
    fn test_regions_flagged() {
        let src = r#"
            fn lib_fn() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { helper(); }
                fn helper() {}
            }
        "#;
        let p = parsed(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("lib_fn").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("helper").is_test);
    }

    #[test]
    fn only_cfgs_that_need_test_are_test_only() {
        for (attr, test_only) in [
            ("#[test]", true),
            ("#[cfg(test)]", true),
            ("#[cfg(all(test, feature = \"fast\"))]", true),
            ("#[cfg(all(unix, any(test, test)))]", true),
            ("#[cfg(any(test, feature = \"fast\"))]", false),
            ("#[cfg(feature = \"latest\")]", false),
            ("#[cfg(not(test))]", false),
            ("#[cfg(attest)]", false),
            ("#[cfg_attr(test, derive(Debug))]", false),
        ] {
            assert_eq!(attr_is_test(attr), test_only, "{attr}");
            let p = parsed(&format!("{attr} fn f() {{ x.unwrap(); }} fn g() {{}}"));
            assert_eq!(p.fns[0].is_test, test_only, "{attr}");
            assert!(!p.fns[1].is_test, "{attr}: the next item is production code");
        }
    }

    #[test]
    fn struct_fields_parsed() {
        let src = "pub struct M { pub rows: usize, cols: usize, data: Vec<f64> }";
        let p = parsed(src);
        assert_eq!(p.structs.len(), 1);
        assert_eq!(
            p.structs[0].fields,
            vec![
                ("rows".to_string(), "usize".to_string()),
                ("cols".to_string(), "usize".to_string()),
                ("data".to_string(), "Vec".to_string())
            ]
        );
    }

    #[test]
    fn trait_methods_and_bodiless_decls() {
        let src = r#"
            trait Loss {
                fn eval(&self, x: f32) -> f32;
                fn grad(&self) -> f32 { 0.0 }
            }
        "#;
        let p = parsed(src);
        assert_eq!(p.fns.len(), 2);
        assert!(p.fns[0].body.is_none());
        assert!(p.fns[1].body.is_some());
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Loss"));
    }

    #[test]
    fn lock_fields_and_statics_inventoried() {
        let src = r#"
            use std::sync::{Condvar, Mutex, RwLock};
            pub struct Inner {
                queue: Mutex<VecDeque<Job>>,
                cv: Condvar,
                shards: Vec<Mutex<Shard>>,
                table: RwLock<HashMap<u32, u32>>,
                plain: usize,
            }
            static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());
            static COUNT: AtomicU64 = AtomicU64::new(0);
        "#;
        let p = parsed(src);
        assert_eq!(
            p.structs[0].lock_fields,
            vec![
                ("queue".to_string(), "Mutex".to_string()),
                ("cv".to_string(), "Condvar".to_string()),
                ("shards".to_string(), "Mutex".to_string()),
                ("table".to_string(), "RwLock".to_string()),
            ]
        );
        assert_eq!(p.statics.len(), 1, "atomics are not locks");
        assert_eq!(p.statics[0].name, "REGISTRY");
        assert_eq!(p.statics[0].kind, "Mutex");
    }

    #[test]
    fn guard_returning_fn_flagged() {
        let src = r#"
            impl Inner {
                fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
                    self.queue.lock().unwrap_or_else(|p| p.into_inner())
                }
                fn depth(&self) -> usize { 0 }
            }
        "#;
        let p = parsed(src);
        assert!(p.fns[0].returns_guard);
        assert!(!p.fns[1].returns_guard);
    }

    #[test]
    fn acquires_binds_and_drops_tracked() {
        let src = r#"
            fn f(inner: &Inner) {
                let mut q = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
                q.push_back(1);
                drop(q);
                let n = inner.shards[0].lock().unwrap().len();
                let chain_only = inner.table.read().unwrap().get(&0).copied();
            }
        "#;
        let p = parsed(src);
        let body = p.fns[0].body.as_ref().unwrap();
        let targets: Vec<&str> = body.acquires.iter().map(|a| a.target.as_str()).collect();
        assert_eq!(targets, vec!["inner.queue", "inner.shards", "inner.table"]);
        assert_eq!(body.acquires[0].method, "lock");
        assert_eq!(body.acquires[2].method, "read");
        let q = body.binds.iter().find(|b| b.name == "q").expect("q bound");
        assert_eq!(q.line, 3);
        assert!(q.init_end_line == 3 && q.end_line > q.line);
        assert_eq!(body.drops.len(), 1);
        assert!(body.drops[0].0 == "q" && body.drops[0].1 == 5);
    }

    #[test]
    fn condvar_sites_record_loop_context_and_guard_arg() {
        let src = r#"
            fn w(inner: &Inner) {
                let mut q = inner.lock_queue();
                loop {
                    if !q.is_empty() { break; }
                    q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
                }
                if q.is_empty() {
                    q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
                }
                inner.cv.notify_one();
            }
        "#;
        let p = parsed(src);
        let cvs = &p.fns[0].body.as_ref().unwrap().condvars;
        assert_eq!(cvs.len(), 3);
        assert!(cvs[0].in_loop && cvs[0].guard_arg.as_deref() == Some("q"));
        assert_eq!(cvs[0].target, "inner.cv");
        assert!(!cvs[1].in_loop, "wait under `if` is not predicate-rechecking");
        assert_eq!(cvs[2].method, "notify_one");
        assert!(cvs[2].guard_arg.is_none());
    }

    #[test]
    fn call_args_and_param_names_align() {
        let src = r#"
            fn f(bytes: &[u8], n: usize, (a, b): (u32, u32)) {
                decode(bytes, n + 1);
                Reader::new::<u8>(bytes);
                done();
            }
        "#;
        let p = parsed(src);
        let f = &p.fns[0];
        assert_eq!(f.param_names, vec!["bytes", "n", ""]);
        assert!(
            f.params.iter().any(|(n, t)| n == "bytes" && t == "[u8]"),
            "byte-slice param typed: {:?}",
            f.params
        );
        let calls = &f.body.as_ref().unwrap().calls;
        assert_eq!(
            calls[0].args,
            vec![vec!["bytes".to_string()], vec!["n".to_string()]]
        );
        assert_eq!(calls[1].args, vec![vec!["bytes".to_string()]]);
        assert!(calls[2].args.is_empty(), "{:?}", calls[2].args);
    }

    #[test]
    fn index_idents_checks_and_vec_macros() {
        let src = r#"
            fn f(v: &[f32], n: usize, b: u8) {
                if n < v.len() { let x = v[n]; }
                let t = TABLE[(b & 0xff) as usize];
                let big = vec![0u8; n];
                let s = &v[..n];
            }
        "#;
        let p = parsed(src);
        let body = p.fns[0].body.as_ref().unwrap();
        assert_eq!(body.indexes.len(), 3, "{:?}", body.indexes);
        assert_eq!(body.indexes[0].idents, vec!["n"]);
        assert!(!body.indexes[0].bounded);
        assert!(body.indexes[1].bounded, "mask index is bounded");
        assert_eq!(body.indexes[2].idents, vec!["n"]);
        let check = body.checks.iter().find(|c| c.idents.contains(&"n".to_string()));
        assert!(check.is_some(), "{:?}", body.checks);
        assert_eq!(body.vec_macros.len(), 1);
        assert_eq!(body.vec_macros[0].len_idents, vec!["n"]);
        let t_bind = body.binds.iter().find(|b| b.name == "t").unwrap();
        assert!(t_bind.rhs_bounded, "mask rhs is bounded");
        let x_bind = body.binds.iter().find(|b| b.name == "x").unwrap();
        assert!(x_bind.rhs_idents.contains(&"v".to_string()));
        assert!(x_bind.rhs_idents.contains(&"n".to_string()));
    }

    #[test]
    fn ret_spans_cover_returns_and_trailing_expr() {
        let src = r#"
            fn f(a: usize, b: usize) -> usize {
                if a > b { return a; }
                let c = a + b;
                c
            }
        "#;
        let p = parsed(src);
        let rets = &p.fns[0].body.as_ref().unwrap().rets;
        assert_eq!(rets.len(), 2, "{rets:?}");
        assert_eq!(rets[0].idents, vec!["a"]);
        assert_eq!(rets[1].idents, vec!["c"]);
    }

    #[test]
    fn blocking_sites_classified() {
        let src = r#"
            fn f(rx: &Receiver<u32>, h: JoinHandle<()>, stream: &mut TcpStream) {
                thread::sleep(Duration::from_millis(1));
                let _ = rx.recv();
                let _ = rx.recv_timeout(d);
                let _ = h.join();
                stream.write_all(b"x").ok();
                let s = fs::read_to_string(path);
                let joined = parts.join(", ");
            }
        "#;
        let p = parsed(src);
        let what: Vec<&str> = p.fns[0]
            .body
            .as_ref()
            .unwrap()
            .blocking
            .iter()
            .map(|b| b.what.as_str())
            .collect();
        assert_eq!(
            what,
            vec!["thread::sleep", ".recv()", ".recv_timeout()", ".join()", ".write_all()", "fs::read_to_string"]
        );
    }
}
