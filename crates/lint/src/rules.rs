//! The repo-specific rule set and the engine that applies it.
//!
//! Token-local rules operate on the [`crate::parser::Code`] view of the
//! lexed file, so string literals, comments and doc examples can never trip
//! them, and they share the parser's test-only spans. Interprocedural rules
//! (`panic-path`, `lossy-cast`, `unused-result`) run on the AST from
//! [`crate::parser`] and the workspace call graph from [`crate::graph`].
//! Each finding is anchored to a `file:line:col` and carries its rule id.
//!
//! Suppression comes in three scopes, all requiring a reason:
//!
//! * `// cmr-lint: allow(rule-id) reason` — same line or the line directly
//!   below; on a `fn` declaration an `allow(panic-path)` (or
//!   `allow(blocking-under-lock)`) makes the fn a *barrier* (documented
//!   panic or block, never taints callers).
//! * `// cmr-lint: allow-file(rule-id) reason` — whole file; meant for
//!   kernel-dense files where per-line indexing allows would drown the code.
//! * An allow that suppresses nothing is itself a finding (`stale-allow`),
//!   so the exemption inventory shrinks as code is hardened.
//!
//! Every directive lives in one [`Ledger`]. Token rules, the call graph, the
//! lock pass and the taint pass all ask it the same two questions —
//! `Ledger::covers` for a finding site and `Ledger::fn_barrier` for a
//! function — and it marks the directives that answered, which is all
//! `stale-allow` needs.
//!
//! | id | what it enforces |
//! |----|------------------|
//! | `op-coverage` | every `Op` variant in `crates/tensor/src/op.rs` has a `grad_check` test in `check.rs` |
//! | `no-panic-lib` | no `unwrap()/expect()/panic!/todo!/unimplemented!` in non-test library code |
//! | `env-centralization` | `env::var` only in `crates/tensor/src/threading.rs`, `crates/obs/src/lib.rs`, `crates/serve/src/config.rs` and `crates/bench` |
//! | `no-println-lib` | no `println!/eprintln!/dbg!` outside `crates/bench`, binaries, examples, tests |
//! | `float-eq` | no `==`/`!=` against non-zero float literals — use a tolerance helper |
//! | `panic-path` | no `pub` library fn may transitively reach an undefused panic |
//! | `lossy-cast` | no narrowing/sign-changing/truncating `as` cast unless provably in range |
//! | `unused-result` | no discarding a workspace `Result` via `let _ =` or a bare statement |
//! | `untrusted-length` | no network/disk-derived value may reach an allocation/length sink unsanitized |
//! | `untrusted-index` | no network/disk-derived value may reach an index/range sink unsanitized |
//! | `stale-allow` | no allow directive that suppresses zero findings |

// cmr-lint: allow-file(panic-path) token indices come from the lexer that produced the buffer; bounds hold by construction

use crate::graph::{self, BarrierFrom, FieldMap, FileUnit};
use crate::lexer::{lex, Token, TokenKind};
use crate::locks;
use crate::taint;
use crate::parser::{self, CastSite, CastSrc, Code, FnDef, ParsedFile};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Every rule id with a one-line description (drives `--help` and the
/// unknown-rule check on allow comments).
pub const RULES: &[(&str, &str)] = &[
    ("op-coverage", "every Op enum variant needs a grad_check test in crates/tensor/src/check.rs"),
    ("no-panic-lib", "unwrap()/expect()/panic!/todo!/unimplemented! banned in non-test library code"),
    ("env-centralization", "std::env::var only in crates/tensor/src/threading.rs, crates/obs/src/lib.rs (CMR_OBS), crates/serve/src/config.rs (CMR_SERVE_*, CMR_IVF_NPROBE) and crates/bench"),
    ("no-println-lib", "println!/eprintln!/dbg! banned outside crates/bench, binaries, examples, tests"),
    ("float-eq", "direct ==/!= against a non-zero float literal; compare with a tolerance instead"),
    ("panic-path", "a pub library fn transitively reaches an undefused panic (witness chain reported)"),
    ("lossy-cast", "narrowing, sign-changing or truncating `as` cast that is not provably in range"),
    ("unused-result", "a workspace Result discarded via `let _ =` or a bare call statement"),
    ("lock-order", "a cycle in the acquired-while-holding lock graph; potential deadlock (all interleaved chains reported)"),
    ("blocking-under-lock", "I/O, sleep, join, channel op or a second workspace-lock acquisition while a guard is live"),
    ("condvar-discipline", "Condvar::wait outside a predicate-rechecking loop, or notify without the paired mutex held"),
    ("untrusted-length", "a network/disk-derived value reaches Vec::with_capacity/reserve/set_len or a vec![…; n] length unsanitized"),
    ("untrusted-index", "a network/disk-derived value reaches a slice index, range or split_at unsanitized"),
    ("stale-allow", "an allow directive that suppresses zero findings; delete it"),
    ("allow-missing-reason", "a cmr-lint allow comment must carry a reason after the rule id"),
    ("allow-unknown-rule", "a cmr-lint allow comment names a rule id that does not exist"),
    ("lex-error", "the file could not be lexed (unterminated literal or comment)"),
];

/// Path of the operator enum R1 audits.
pub const OP_PATH: &str = "crates/tensor/src/op.rs";
/// Path of the gradient-check suite R1 audits against.
pub const CHECK_PATH: &str = "crates/tensor/src/check.rs";

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Repo-relative path (unix separators).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id from [`RULES`].
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// A `rule` finding at `file:line:col`.
    pub(crate) fn new(file: &str, line: u32, col: u32, rule: &'static str, msg: String) -> Self {
        Finding { file: file.to_string(), line, col, rule, message: msg }
    }

    /// Renders the finding in the canonical `file:line:col [rule] message`
    /// form.
    pub fn render(&self) -> String {
        format!("{}:{}:{} [{}] {}", self.file, self.line, self.col, self.rule, self.message)
    }
}

/// A source file handed to the engine.
pub struct SourceFile {
    /// Repo-relative path with `/` separators.
    pub path: String,
    /// Full file contents.
    pub src: String,
}

/// Scope of an allow directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllowScope {
    /// `allow(rule)` / `trust(…)`: own line plus the line directly below.
    Line,
    /// `allow-file(rule)`: the whole file.
    File,
}

/// A parsed, valid allow directive with usage tracking for `stale-allow`.
pub struct Allow {
    /// Rule id the directive names (`trust` for `trust(…)`).
    pub rule: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// 1-based column of the directive comment.
    pub col: u32,
    /// Line or file scope.
    pub scope: AllowScope,
    used: Cell<bool>,
}

impl Allow {
    /// Did the directive suppress or defuse at least one thing?
    pub fn used(&self) -> bool {
        self.used.get()
    }

    /// Does the directive speak for a `rule` finding? Besides its own rule,
    /// a `trust(…)` covers both taint rules, and a line
    /// `allow(no-panic-lib)` also defuses panic-path sites and barriers.
    fn accepts(&self, rule: &str) -> bool {
        self.rule == rule
            || self.scope == AllowScope::Line
                && matches!(
                    (self.rule.as_str(), rule),
                    ("trust", "untrusted-length" | "untrusted-index")
                        | ("no-panic-lib", "panic-path")
                )
    }
}

/// The allow ledger: every valid directive of the scanned files, queried by
/// every rule and marking the directives that were load-bearing.
#[derive(Default)]
pub struct Ledger {
    files: BTreeMap<String, Vec<Allow>>,
}

impl Ledger {
    /// Records `path`'s directives from its tokens; malformed ones become
    /// findings instead of silently suppressing anything.
    pub(crate) fn add_file(&mut self, path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
        let allows = collect_allows(path, tokens, findings);
        self.files.entry(path.to_string()).or_default().extend(allows);
    }

    /// Every directive with its file, by path then source order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Allow)> {
        self.files.iter().flat_map(|(f, v)| v.iter().map(move |a| (f.as_str(), a)))
    }

    /// The directive that suppresses a `rule` finding at `file:line`: a
    /// file-scope one, else the first line-scope one on that line or the
    /// line directly above. Marks every covering directive used.
    pub(crate) fn covers(&self, file: &str, rule: &str, line: u32) -> Option<&Allow> {
        let mut hit: Option<&Allow> = None;
        for a in self.files.get(file)?.iter().filter(|a| a.accepts(rule)) {
            let on = a.scope == AllowScope::File || a.line == line || a.line + 1 == line;
            if on {
                a.used.set(true);
                if hit.is_none_or(|h| h.scope == AllowScope::Line && a.scope == AllowScope::File)
                {
                    hit = Some(a);
                }
            }
        }
        hit
    }

    /// [`Ledger::covers`] for a finding: `true` when it is suppressed.
    pub(crate) fn suppress(&self, f: &Finding) -> bool {
        self.covers(&f.file, f.rule, f.line).is_some()
    }

    /// Is `def` a barrier for `rule`: a file-scope directive, or a line one
    /// on the fn's attribute block, the line above it, or the name line?
    /// Nothing is marked; see [`Ledger::mark_barrier`].
    pub(crate) fn fn_barrier(&self, file: &str, rule: &str, def: &FnDef) -> Option<BarrierFrom> {
        let allows = self.files.get(file)?;
        if allows.iter().any(|a| a.scope == AllowScope::File && a.accepts(rule)) {
            return Some(BarrierFrom::File);
        }
        [def.attach_line.checked_sub(1), Some(def.attach_line), Some(def.line)]
            .into_iter()
            .flatten()
            .find(|&l| {
                allows.iter().any(|a| a.scope == AllowScope::Line && a.line == l && a.accepts(rule))
            })
            .map(BarrierFrom::Line)
    }

    /// Marks the directives behind a barrier that turned out load-bearing.
    pub(crate) fn mark_barrier(&self, file: &str, rule: &str, barrier: BarrierFrom) {
        for a in self.files.get(file).into_iter().flatten().filter(|a| a.accepts(rule)) {
            let on = match barrier {
                BarrierFrom::File => a.scope == AllowScope::File,
                BarrierFrom::Line(l) => a.scope == AllowScope::Line && a.line == l,
            };
            if on {
                a.used.set(true);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Path classification
// ---------------------------------------------------------------------------

/// Where a file sits in the workspace, decided once from its path.
#[derive(Clone, Copy, Debug)]
pub struct PathKind {
    /// Test or bench code: a `tests` or `benches` path component.
    pub test: bool,
    /// An `examples` path component.
    pub example: bool,
    /// A binary: under `src/bin/`, or a `main.rs`.
    pub bin: bool,
}

impl PathKind {
    /// Classifies a repo-relative path.
    pub fn of(path: &str) -> Self {
        let has = |comp: &str| path.split('/').any(|c| c == comp);
        PathKind {
            test: has("tests") || has("benches"),
            example: has("examples"),
            bin: path.contains("/src/bin/") || path.ends_with("/main.rs") || path == "src/main.rs",
        }
    }

    /// Library code: not test, example or binary code.
    pub fn lib(self) -> bool {
        !(self.test || self.example || self.bin)
    }
}

fn is_bench_crate(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

/// Sanctioned `env::var` sites: the `CMR_NUM_THREADS` knob in the
/// threading module, the `CMR_OBS` knob in the obs crate root, the
/// serving knobs (the batch ceiling `CMR_SERVE_BATCH`, the scatter-gather
/// knobs `CMR_SERVE_SHARDS`, `CMR_SERVE_DEADLINE_US`, `CMR_SERVE_RETRIES`,
/// `CMR_SERVE_HEDGE_US`, and the IVF probe-width knob `CMR_IVF_NPROBE`) in
/// the serve config module, and the experiment harness. Router/shard/breaker code must
/// take its tuning from `ServeConfig`, never from the environment
/// directly.
fn env_var_allowed(path: &str) -> bool {
    path == "crates/tensor/src/threading.rs"
        || path == "crates/obs/src/lib.rs"
        || path == "crates/serve/src/config.rs"
        || is_bench_crate(path)
}

// ---------------------------------------------------------------------------
// Allow-comment parsing
// ---------------------------------------------------------------------------

fn comment_body(text: &str) -> &str {
    let t = text.trim_start();
    if let Some(rest) = t.strip_prefix("//") {
        rest.trim_start_matches(['/', '!']).trim()
    } else if let Some(rest) = t.strip_prefix("/*") {
        rest.trim_start_matches(['*', '!']).trim_end_matches("*/").trim()
    } else {
        t
    }
}

fn known_rule(id: &str) -> bool {
    RULES.iter().any(|&(r, _)| r == id)
}

/// Extracts allow directives from comment tokens; malformed directives
/// become findings instead of silently suppressing anything.
fn collect_allows(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let body = comment_body(&t.text);
        let Some(directive) = body.strip_prefix("cmr-lint:") else { continue };
        let directive = directive.trim();
        let mut fail = |rule: &'static str, message: String| {
            findings.push(Finding::new(path, t.line, t.col, rule, message));
        };
        // `trust(reason)`: the taint-pass escape hatch — suppresses an
        // `untrusted-length`/`untrusted-index` flow on its line (or the
        // line below) and is stale-allow accounted like any other allow.
        if let Some(rest) = directive.strip_prefix("trust(") {
            let Some(close) = rest.rfind(')') else {
                fail("allow-unknown-rule", "unclosed `trust(` in cmr-lint directive".to_string());
                continue;
            };
            if rest[..close].trim().is_empty() {
                fail(
                    "allow-missing-reason",
                    "trust() has no reason; write `// cmr-lint: trust(<why this value is bounded>)`"
                        .to_string(),
                );
                continue;
            }
            allows.push(Allow {
                rule: "trust".to_string(),
                line: t.line,
                col: t.col,
                scope: AllowScope::Line,
                used: Cell::new(false),
            });
            continue;
        }
        let (scope, rest) = if let Some(rest) = directive.strip_prefix("allow-file(") {
            (AllowScope::File, rest)
        } else if let Some(rest) = directive.strip_prefix("allow(") {
            (AllowScope::Line, rest)
        } else {
            fail(
                "allow-unknown-rule",
                format!(
                    "malformed cmr-lint directive {directive:?}: expected \
                     `allow(rule-id) reason` or `allow-file(rule-id) reason`"
                ),
            );
            continue;
        };
        let Some(close) = rest.find(')') else {
            fail("allow-unknown-rule", "unclosed `allow(` in cmr-lint directive".to_string());
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim();
        if !known_rule(&rule) {
            fail("allow-unknown-rule", format!("allow names unknown rule {rule:?}"));
            continue;
        }
        if reason.is_empty() {
            fail(
                "allow-missing-reason",
                format!("allow({rule}) has no reason; write `// cmr-lint: allow({rule}) <why>`"),
            );
            continue;
        }
        allows.push(Allow { rule, line: t.line, col: t.col, scope, used: Cell::new(false) });
    }
    allows
}

// ---------------------------------------------------------------------------
// Per-file token rules
// ---------------------------------------------------------------------------

/// Banned `.method()` calls for `no-panic-lib`.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
/// Banned macros for `no-panic-lib`.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented"];
/// Banned macros for `no-println-lib`.
const PRINT_MACROS: &[&str] = &["println", "eprintln", "dbg"];

struct FileCtx<'a> {
    path: &'a str,
    code: &'a Code,
    kind: PathKind,
}

impl FileCtx<'_> {
    /// Test, example and binary code may panic, and so may test items.
    fn exempt_panic(&self, p: usize) -> bool {
        !self.kind.lib() || self.code.in_test(p)
    }

    fn exempt_print(&self, p: usize) -> bool {
        self.exempt_panic(p) || is_bench_crate(self.path)
    }

    /// The token at `p` with its neighbours.
    fn at(&self, p: usize) -> (Option<&Token>, &Token, Option<&Token>) {
        let prev = p.checked_sub(1).map(|q| self.code.tok(q));
        (prev, self.code.tok(p), self.code.get(p + 1))
    }
}

fn rule_no_panic_lib(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for p in 0..ctx.code.len() {
        let (prev, t, next) = ctx.at(p);
        if ctx.exempt_panic(p) || t.kind != TokenKind::Ident {
            continue;
        }
        if PANIC_METHODS.contains(&t.text.as_str())
            && prev.is_some_and(|p| p.is_punct("."))
            && next.is_some_and(|n| n.is_punct("("))
        {
            let msg = format!(".{}() can panic; return a typed error instead", t.text);
            findings.push(Finding::new(ctx.path, t.line, t.col, "no-panic-lib", msg));
        }
        if PANIC_MACROS.contains(&t.text.as_str()) && next.is_some_and(|n| n.is_punct("!")) {
            let msg = format!("{}! in library code; return a typed error instead", t.text);
            findings.push(Finding::new(ctx.path, t.line, t.col, "no-panic-lib", msg));
        }
    }
}

fn rule_env_centralization(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if env_var_allowed(ctx.path) {
        return;
    }
    for p in 2..ctx.code.len() {
        let t = ctx.code.tok(p);
        if ctx.kind.test || ctx.code.in_test(p) || !(t.is_ident("var") || t.is_ident("var_os")) {
            continue;
        }
        if ctx.code.tok(p - 1).is_punct("::") && ctx.code.tok(p - 2).is_ident("env") {
            let msg = "env::var outside crates/tensor/src/threading.rs, crates/obs/src/lib.rs, \
                       crates/serve/src/config.rs and crates/bench; route runtime knobs through \
                       those modules"
                .to_string();
            findings.push(Finding::new(ctx.path, t.line, t.col, "env-centralization", msg));
        }
    }
}

fn rule_no_println_lib(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for p in 0..ctx.code.len() {
        let (_, t, next) = ctx.at(p);
        if ctx.exempt_print(p) {
            continue;
        }
        if t.kind == TokenKind::Ident
            && PRINT_MACROS.contains(&t.text.as_str())
            && next.is_some_and(|n| n.is_punct("!"))
        {
            let msg = format!(
                "{}! in library code; only crates/bench, binaries and tests may print",
                t.text
            );
            findings.push(Finding::new(ctx.path, t.line, t.col, "no-println-lib", msg));
        }
    }
}

/// Is a float-literal token the literal zero (`0.0`, `0.`, `0e0`, with an
/// optional `f32`/`f64` suffix)? Comparing against exact zero is the
/// sparsity/norm-guard idiom and allowed by construction.
fn float_literal_is_zero(text: &str) -> bool {
    let t = text.trim_end_matches("f32").trim_end_matches("f64").trim_end_matches('_');
    let mantissa = t.split(['e', 'E']).next().unwrap_or(t);
    !mantissa.is_empty() && mantissa.chars().all(|c| matches!(c, '0' | '.' | '_'))
}

fn rule_float_eq(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    for p in 0..ctx.code.len() {
        let (prev, t, next) = ctx.at(p);
        if ctx.kind.test || ctx.kind.example || ctx.code.in_test(p) {
            continue;
        }
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let lits: Vec<&Token> =
            [prev, next].into_iter().flatten().filter(|tok| tok.kind == TokenKind::Float).collect();
        if !lits.is_empty() && !lits.iter().all(|tok| float_literal_is_zero(&tok.text)) {
            let msg =
                format!("`{}` against a float literal; compare with a tolerance helper", t.text);
            findings.push(Finding::new(ctx.path, t.line, t.col, "float-eq", msg));
        }
    }
}

// ---------------------------------------------------------------------------
// lossy-cast (AST rule)
// ---------------------------------------------------------------------------

/// Bit width and signedness of an integer type tail.
fn int_info(ty: &str) -> Option<(u32, bool)> {
    Some(match ty {
        "i8" => (8, true),
        "i16" => (16, true),
        "i32" => (32, true),
        "i64" => (64, true),
        "i128" => (128, true),
        "isize" => (64, true),
        "u8" => (8, false),
        "u16" => (16, false),
        "u32" => (32, false),
        "u64" => (64, false),
        "u128" => (128, false),
        "usize" => (64, false),
        _ => return None,
    })
}

/// Mantissa precision (exactly-representable integer bits) of a float type.
fn float_mantissa(ty: &str) -> Option<u32> {
    match ty {
        "f32" => Some(24),
        "f64" => Some(53),
        _ => None,
    }
}

/// Inclusive integer range of an integer type (u128 clamped to `i128::MAX`).
fn int_range(ty: &str) -> Option<(i128, i128)> {
    let (bits, signed) = int_info(ty)?;
    Some(if signed {
        if bits >= 128 {
            (i128::MIN, i128::MAX)
        } else {
            (-(1i128 << (bits - 1)), (1i128 << (bits - 1)) - 1)
        }
    } else if bits >= 127 {
        (0, i128::MAX)
    } else {
        (0, (1i128 << bits) - 1)
    })
}

/// Why a `src as dst` cast is lossy, or `None` when it is value-preserving
/// (or unknowable — an unresolved source type is deliberately silent, the
/// documented under-approximation of a first-party analyzer).
///
/// Policy notes: `usize`/`u64 as f64` is *not* flagged — index and length
/// magnitudes in this workspace are far below 2^53 and flagging them would
/// bury the signal; `as f32` *is* flagged for >24-bit sources because tensor
/// payloads are f32 and those casts sit on real data paths.
fn cast_lossiness(src: &CastSrc, src_ty: Option<&str>, dst: &str) -> Option<String> {
    match src {
        CastSrc::IntLit(v) => {
            if let Some((lo, hi)) = int_range(dst) {
                return (*v < lo || *v > hi)
                    .then(|| format!("literal {v} is out of range for {dst}"));
            }
            if let Some(m) = float_mantissa(dst) {
                let exact = 1i128 << m;
                return (v.abs() > exact)
                    .then(|| format!("literal {v} is not exactly representable in {dst}"));
            }
            None
        }
        CastSrc::FloatLit => int_info(dst)
            .map(|_| format!("float literal truncated by `as {dst}`; write the integer directly")),
        CastSrc::Ty(_) | CastSrc::Unknown => {
            let s = src_ty?;
            if s == dst {
                return None;
            }
            if let (Some((sb, ss)), Some((db, ds))) = (int_info(s), int_info(dst)) {
                if db < sb {
                    return Some(format!("narrowing {s} → {dst} can truncate"));
                }
                if ss && !ds {
                    return Some(format!("{s} → {dst} loses the sign"));
                }
                if !ss && ds && db <= sb {
                    return Some(format!("{s} → {dst} can overflow the sign bit"));
                }
                return None;
            }
            if let (Some(sb), Some(m)) = (int_info(s).map(|(b, _)| b), float_mantissa(dst)) {
                // int → float: only int → f32 from wide sources is on a real
                // precision cliff (tensor payloads); int → f64 is exempt.
                return (dst == "f32" && sb > m)
                    .then(|| format!("{s} → f32 loses precision above 2^24"));
            }
            if float_mantissa(s).is_some() && int_info(dst).is_some() {
                return Some(format!("{s} → {dst} truncates toward zero"));
            }
            if s == "f64" && dst == "f32" {
                return Some("f64 → f32 halves the mantissa".to_string());
            }
            None
        }
    }
}

/// Resolves the source type tail of a cast whose operand was an identifier
/// (or `recv.field`) using the fn's typed locals/params and the workspace
/// struct-field map.
fn resolve_cast_src_ty(
    cast: &CastSite,
    def: &FnDef,
    krate: &str,
    fields: &FieldMap,
) -> Option<String> {
    let CastSrc::Ty(t) = &cast.src else { return None };
    let Some(rest) = t.strip_prefix("?ident:") else { return Some(t.clone()) };
    if rest.is_empty() {
        return None;
    }
    if let Some((base, field)) = rest.split_once('.') {
        let base_ty = if base == "self" {
            def.self_ty.clone()
        } else {
            graph::local_type(def, base, cast.line)
        }?;
        return fields.get(&(krate.to_string(), base_ty)).and_then(|m| m.get(field)).cloned();
    }
    graph::local_type(def, rest, cast.line)
}

fn rule_lossy_cast(u: &FileUnit, fields: &FieldMap, findings: &mut Vec<Finding>) {
    if u.kind.test || u.kind.example {
        return;
    }
    let krate = graph::crate_of(u.path);
    for def in &u.parsed.fns {
        if def.is_test {
            continue;
        }
        let Some(body) = &def.body else { continue };
        for cast in &body.casts {
            let src_ty = resolve_cast_src_ty(cast, def, &krate, fields);
            if let Some(why) = cast_lossiness(&cast.src, src_ty.as_deref(), &cast.dst) {
                let message = format!("{why}; prove the range or carry a reasoned allow");
                findings.push(Finding::new(u.path, cast.line, cast.col, "lossy-cast", message));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// R1: op-coverage (cross-file)
// ---------------------------------------------------------------------------

/// `MatMulTransB` and `matmul_transb` both normalise to `matmultransb`,
/// which is what makes variant↔builder-method matching robust to the
/// repo's `matmul` (not `mat_mul`) naming.
fn normalize(name: &str) -> String {
    name.chars().filter(|&c| c != '_').collect::<String>().to_lowercase()
}

/// Extracts the variant names (with positions) of `pub enum Op { … }`.
fn op_variants(code: &Code) -> Vec<(String, u32, u32)> {
    let mut variants = Vec::new();
    let enum_op = (2..code.len()).find(|&p| {
        let at = |q: usize| code.tok(q);
        at(p - 2).is_ident("enum") && at(p - 1).is_ident("Op") && at(p).is_punct("{")
    });
    let Some(open) = enum_op else { return variants };
    // Variants sit at the top level of the body, right after `{` or `,`;
    // groups are hopped whole, and attrs don't affect position.
    let mut prev = "{";
    let mut p = open + 1;
    while p < code.close(open) {
        let t = code.tok(p);
        if !matches!(t.kind, TokenKind::Attr { .. }) {
            if t.kind == TokenKind::Ident
                && t.text.chars().next().is_some_and(char::is_uppercase)
                && matches!(prev, "{" | ",")
            {
                variants.push((t.text.clone(), t.line, t.col));
            }
            if code.is_open(p) {
                p = code.close(p);
            }
            prev = code.get(p).map_or("", |u| u.text.as_str());
        }
        p += 1;
    }
    variants
}

/// Identifiers appearing inside the test items of `check.rs`, normalised.
fn check_coverage_idents(code: &Code) -> (Vec<String>, bool) {
    let idents: Vec<&str> = (0..code.len())
        .filter(|&p| code.in_test(p))
        .map(|p| code.tok(p))
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    (idents.iter().map(|t| normalize(t)).collect(), idents.contains(&"grad_check"))
}

/// Runs R1 given the two relevant files. Findings anchor at the variant
/// declaration in `op.rs`, so an inline allow there suppresses them.
fn rule_op_coverage(op: &Code, check: Option<&Code>, findings: &mut Vec<Finding>) {
    let (covered, has_grad_check) = check.map(check_coverage_idents).unwrap_or_default();
    for (name, line, col) in op_variants(op) {
        if !(has_grad_check && covered.contains(&normalize(&name))) {
            let message = format!(
                "Op::{name} has no grad_check coverage in {CHECK_PATH}; \
                 add a finite-difference test or an inline allow with a reason"
            );
            findings.push(Finding::new(OP_PATH, line, col, "op-coverage", message));
        }
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Full analysis result: findings plus the call graph and allow statistics
/// that drive the report summary and `CALLGRAPH.json`.
pub struct Analysis {
    /// Every unsuppressed finding, sorted by file, line, column.
    pub findings: Vec<Finding>,
    /// Files handed to the engine.
    pub files_scanned: usize,
    /// Valid allow directives seen.
    pub allows_total: usize,
    /// Allow directives that suppressed or defused at least one thing.
    pub allows_used: usize,
    /// Every allow directive with its usage.
    pub ledger: Ledger,
    /// The workspace call graph (panic propagation already run).
    pub graph: graph::Graph,
    /// The concurrency pass result (lock inventory, order edges, cycles).
    pub locks: locks::LockAnalysis,
    /// The taint pass result (source/sink/sanitizer inventory, flows).
    pub taint: taint::TaintAnalysis,
}

/// Lints a set of files and returns every unsuppressed finding, sorted by
/// file, line, column. Thin wrapper over [`analyze`].
pub fn run(files: &[SourceFile]) -> Vec<Finding> {
    analyze(files).findings
}

/// Runs the full pipeline: lex, token rules, parse, call-graph build +
/// panic propagation, lossy-cast, panic-path / unused-result findings,
/// op-coverage, the lock and taint passes, and finally stale-allow over the
/// whole allow ledger.
///
/// The cross-file `op-coverage` rule runs when the set contains
/// [`OP_PATH`]; its findings are suppressible by allow comments in that
/// file like any other finding.
pub fn analyze(files: &[SourceFile]) -> Analysis {
    let mut findings = Vec::new();
    let mut codes: Vec<Option<Code>> = Vec::with_capacity(files.len());
    let mut ledger = Ledger::default();

    // ---- lex + allows + token rules ----
    for file in files {
        let tokens = match lex(&file.src) {
            Ok(t) => t,
            Err(e) => {
                findings.push(Finding::new(&file.path, e.line, e.col, "lex-error", e.message));
                codes.push(None);
                continue;
            }
        };
        let mut raw = Vec::new();
        ledger.add_file(&file.path, &tokens, &mut raw);
        let code = Code::new(tokens);
        let ctx = FileCtx { path: &file.path, code: &code, kind: PathKind::of(&file.path) };
        rule_no_panic_lib(&ctx, &mut raw);
        rule_env_centralization(&ctx, &mut raw);
        rule_no_println_lib(&ctx, &mut raw);
        rule_float_eq(&ctx, &mut raw);
        findings.extend(raw.into_iter().filter(|f| !ledger.suppress(f)));
        codes.push(Some(code));
    }

    // ---- parse + call graph + panic propagation ----
    let parsed: Vec<Option<ParsedFile>> =
        codes.iter().map(|c| c.as_ref().map(parser::parse)).collect();
    let units: Vec<FileUnit> = files
        .iter()
        .zip(&parsed)
        .filter_map(|(file, parsed)| {
            let kind = PathKind::of(&file.path);
            parsed.as_ref().map(|parsed| FileUnit { path: &file.path, parsed, kind })
        })
        .collect();
    let g = graph::build(&units, &ledger);

    // ---- lossy-cast ----
    for u in &units {
        let mut raw = Vec::new();
        rule_lossy_cast(u, &g.fields, &mut raw);
        findings.extend(raw.into_iter().filter(|f| !ledger.suppress(f)));
    }

    // ---- panic-path findings (suppression is the barrier/defuse system) ----
    for (i, node) in g.nodes.iter().enumerate() {
        if node.is_pub
            && node.in_lib
            && !node.is_test
            && node.barrier.is_none()
            && g.panic[i].is_some()
        {
            let message = format!("pub fn can reach a panic: {}", g.chain(&g.panic, i, false));
            findings.push(Finding::new(&node.file, node.line, node.col, "panic-path", message));
        }
    }

    // ---- unused-result findings (tests and examples may discard) ----
    for d in &g.discarded_results {
        let caller = &g.nodes[d.caller];
        if caller.is_test || units[caller.unit].kind.example {
            continue;
        }
        let message = format!(
            "Result of `{}` is discarded; handle the error or carry a reasoned allow",
            d.callee_name
        );
        let f = Finding::new(&d.file, d.line, d.col, "unused-result", message);
        if !ledger.suppress(&f) {
            findings.push(f);
        }
    }

    // ---- op-coverage ----
    let code_of = |path: &str| {
        files.iter().rposition(|f| f.path == path).and_then(|fi| codes[fi].as_ref())
    };
    if let Some(op) = code_of(OP_PATH) {
        let mut raw = Vec::new();
        rule_op_coverage(op, code_of(CHECK_PATH), &mut raw);
        findings.extend(raw.into_iter().filter(|f| !ledger.suppress(f)));
    }

    // ---- concurrency + taint passes (they consult the ledger themselves) ----
    let lock_analysis = locks::analyze(&units, &g, &ledger);
    findings.extend(lock_analysis.findings.iter().cloned());
    let taint_analysis = taint::analyze(&units, &g, &ledger);
    findings.extend(taint_analysis.findings.iter().cloned());

    // ---- stale-allow ----
    let mut allows_total = 0usize;
    let mut allows_used = 0usize;
    for (file, a) in ledger.iter() {
        allows_total += 1;
        if a.used() {
            allows_used += 1;
            continue;
        }
        let form = match a.scope {
            AllowScope::Line => "allow",
            AllowScope::File => "allow-file",
        };
        let message = format!(
            "{form}({}) suppresses no findings; delete it or move it to the violation",
            a.rule
        );
        findings.push(Finding::new(file, a.line, a.col, "stale-allow", message));
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule))
    });
    Analysis {
        findings,
        files_scanned: files.len(),
        allows_total,
        allows_used,
        ledger,
        graph: g,
        locks: lock_analysis,
        taint: taint_analysis,
    }
}
