//! R16–R17: interprocedural untrusted-input taint analysis — network/disk
//! bytes flowing into allocation and index sinks.
//!
//! The serving tier parses raw attacker-shaped bytes (HTTP heads, f32le
//! bodies) and the checkpoint/embedding loaders decode length-prefixed
//! blobs straight from disk. A corrupted or hostile length field that
//! reaches `Vec::with_capacity` or a slice index before being validated is
//! an OOM abort or a panic in production. This pass recovers that dataflow
//! statically:
//!
//! * **Sources** — `&[u8]` parameters of non-test fns (the byte-slice
//!   boundary every loader and parser crosses), `fs::read` /
//!   `fs::read_to_string` results, `env::var` strings, and buffer-filling
//!   reads (`read`, `read_exact`, `read_to_end`, `read_line` taint their
//!   destination buffer; the returned byte *count* is trusted — the OS
//!   guarantees it fits the buffer).
//! * **Propagation** — through `let` bindings (initializer idents and
//!   tainted call expressions), method receivers mutated by tainted
//!   arguments (`head.extend_from_slice(&tmp[..n])` taints `head`),
//!   function arguments to resolved workspace callees (positional
//!   `param_names` alignment), tainted `self` receivers, and function
//!   return values — judged from the parser's return spans, so a function
//!   that clamps internally and returns the clamped binding stays clean.
//! * **Sinks** — `Vec::with_capacity` / `reserve` / `reserve_exact` /
//!   `set_len` arguments and `vec![elem; len]` lengths (`untrusted-length`),
//!   `split_at` / `split_at_mut` arguments and slice-index/range operands
//!   (`untrusted-index`).
//! * **Sanitizers** — a dominating comparison that mentions the tainted
//!   sink operand (`if count > buf.remaining() { return Err(…) }` above the
//!   allocation), `.min(cap)` / `.clamp(lo, hi)` rebinds, bit-mask or
//!   modulo bounding (`TABLE[(x & 0xff) as usize]`), and a reasoned
//!   `// cmr-lint: trust(reason)` escape hatch that is load-bearing-allow
//!   accounted like every other suppression. `checked_mul`/`saturating_*`
//!   are deliberately *not* sanitizers: they prevent overflow, not
//!   magnitude.
//!
//! Taint carries [`Witness`] provenance like panic-path and renders it with
//! the shared [`Graph::chain`], so every flow reads
//! `source-site → fnA → fnB → sink (file:line)`. Allows and `trust(…)` are
//! answered by the shared [`Ledger`]. The
//! whole model — source/sink/sanitizer inventory, flow edges with witness
//! chains, per-crate unsanitized counts — renders to the deterministic
//! `TAINTGRAPH.json` artifact next to `CALLGRAPH.json`/`LOCKGRAPH.json`.

// cmr-lint: allow-file(panic-path) node indices are minted by the graph arena; every dereference uses an index the builder issued

use crate::graph::{crate_of, FileUnit, Graph, Node, Witness};
use crate::parser::{CallSite, FnDef, LetBind, Receiver};
use crate::report::{quoted, JsonOut};
use crate::rules::{AllowScope, Finding, Ledger};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Schema version stamped into `TAINTGRAPH.json`.
pub const TAINTGRAPH_SCHEMA_VERSION: u32 = 1;

/// One inventoried source, sink or sanitizer.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct InvItem {
    /// Stable id, usually `fn-id: what`.
    pub id: String,
    /// `byte-slice-param`, `fs-read`, `env-var`, `stream-read`, `alloc`,
    /// `index`, `bounds-check`, `mask`, `clamp` or `trust`.
    pub kind: String,
    /// Repo-relative file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// One source→sink flow the pass proved, with its disposition.
pub struct Flow {
    /// `untrusted-length` or `untrusted-index`.
    pub rule: &'static str,
    /// `sanitized`, `trusted` or `unsanitized`.
    pub status: &'static str,
    /// Repo-relative file of the sink.
    pub file: String,
    /// 1-based line of the sink.
    pub line: u32,
    /// 1-based column of the sink.
    pub col: u32,
    /// Human description of the sink (`Vec::with_capacity(n)`, `slice index [i]`…).
    pub sink: String,
    /// Shortest chain from the taint source down to the sink.
    pub witness: String,
}

/// Everything the taint pass learned, plus its rule findings.
pub struct TaintAnalysis {
    /// Sources that actually produced taint, sorted.
    pub sources: Vec<InvItem>,
    /// Sinks reached by taint, sorted.
    pub sinks: Vec<InvItem>,
    /// Sanitizers that cleaned or vouched for at least one flow, sorted.
    pub sanitizers: Vec<InvItem>,
    /// Every proved flow, sorted by sink site.
    pub flows: Vec<Flow>,
    /// Unsuppressed findings (one per unsanitized flow).
    pub findings: Vec<Finding>,
}

/// Methods whose result is a trusted scalar even on a tainted receiver:
/// sizes and flags derived from what is actually *present*, not from what a
/// length field *claims* — comparing against them is the sanitizing idiom.
/// `min`/`clamp` bound their result by the trusted operand.
const TRUSTED_METHODS: &[&str] =
    &["len", "is_empty", "capacity", "remaining", "count", "position", "min", "clamp"];

/// Calls that bound a `let` initializer: the bind comes out clean.
const SANITIZING: &[&str] = &["min", "clamp"];

/// Buffer-filling reads: the first argument (the destination buffer) is
/// tainted; the returned byte count is trusted.
const STREAM_READS: &[&str] = &["read", "read_exact", "read_to_end", "read_line"];

/// Methods that copy argument data into their receiver: a tainted argument
/// taints the receiver (`head.extend_from_slice(&tmp[..n])`). Anything else
/// with a tainted argument (`store.set_frozen(id, frozen)`) leaves the
/// receiver clean — treating every such call as a receiver write drowns the
/// analysis in object-graph taint.
const MUTATORS: &[&str] = &[
    "push",
    "push_str",
    "extend",
    "extend_from_slice",
    "append",
    "insert",
    "copy_from_slice",
    "clone_from",
    "fill",
];

/// Allocation/length sinks (`untrusted-length`).
const LEN_SINKS: &[&str] = &["with_capacity", "reserve", "reserve_exact", "set_len", "resize"];

/// Split sinks (`untrusted-index`, alongside slice indexing).
const SPLIT_SINKS: &[&str] = &["split_at", "split_at_mut"];

fn fs_source(c: &CallSite) -> bool {
    c.qualifier.last().is_some_and(|q| q == "fs")
        && matches!(c.name.as_str(), "read" | "read_to_string")
}

fn env_source(c: &CallSite) -> bool {
    c.qualifier.last().is_some_and(|q| q == "env")
        && matches!(c.name.as_str(), "var" | "var_os")
}

fn stream_read(c: &CallSite) -> bool {
    c.receiver.is_some()
        && STREAM_READS.contains(&c.name.as_str())
        && c.args.first().is_some_and(|a| !a.is_empty())
}

/// The receiver a method call names: `self` or the chain-head ident.
fn receiver_name(c: &CallSite) -> Option<&str> {
    match &c.receiver {
        Some(Receiver::SelfRecv) => Some("self"),
        Some(Receiver::Ident(x)) => Some(x),
        _ => None,
    }
}

/// A call whose value is trusted whatever its receiver: a [`TRUSTED_METHODS`]
/// size or flag, or a float payload, which carries no magnitude a
/// length/index sink could consume (`buf.get_f32_le()`, a `floats(..)`
/// converter; a cast back to an integer is the lossy-cast rule's business).
fn value_clean(name: &str) -> bool {
    TRUSTED_METHODS.contains(&name)
        || name.contains("f32")
        || name.contains("f64")
        || name.contains("float")
}

/// Display form of a call sink (`Vec::with_capacity(count)`, `.reserve(n)`).
fn call_desc(c: &CallSite, hit: &[String]) -> String {
    let args = hit.join(", ");
    match c.qualifier.last() {
        Some(q) => format!("{q}::{}({args})", c.name),
        None if c.receiver.is_some() => format!(".{}({args})", c.name),
        None => format!("{}({args})", c.name),
    }
}

/// One sink hit inside a body, pre-disposition.
struct SinkHit {
    line: u32,
    col: u32,
    rule: &'static str,
    desc: String,
    /// The tainted idents that reached the sink.
    idents: Vec<String>,
    /// Index group carries a bit-mask/modulo — bounded by construction.
    bounded: bool,
}

/// Everything one intra-procedural simulation learns about a body.
#[derive(Default)]
struct Sim {
    tainted: BTreeSet<String>,
    /// The function's return value is tainted (judged from return spans).
    ret: bool,
    /// `(kind, what, line)` of primitive sources present in the body.
    sources: Vec<(&'static str, String, u32)>,
    /// `(callee node, argument position)`; `usize::MAX` means the receiver.
    out: Vec<(usize, usize)>,
    /// Sink hits in source order.
    sinks: Vec<SinkHit>,
    /// `(line, kind)` of sanitizing binds that cleaned a tainted rhs.
    cleansed: Vec<(u32, &'static str)>,
}

/// Receiver position marker in [`Sim::out`].
const SELF_POS: usize = usize::MAX;

/// Simulates one body against an entry set of tainted names and the current
/// callee return summaries. Deterministic: iterates parser facts in source
/// order with a bounded fixpoint.
fn simulate(def: &FnDef, node: &Node, entry: &BTreeSet<String>, ret_tainted: &[bool]) -> Sim {
    let mut sim = Sim { tainted: entry.clone(), ..Sim::default() };
    let Some(body) = &def.body else { return sim };
    // Taint propagates only across *unambiguously* resolved calls: the
    // call graph's bare-name fallback over-links (`router.search(..)` on
    // an untyped receiver matches every `search` in the workspace), which
    // is the right over-approximation for panic reachability but sprays
    // taint across unrelated subsystems. One candidate = one edge.
    let mut targets: HashMap<(u32, u32), usize> = HashMap::new();
    for rc in &node.resolved_calls {
        if let [only] = rc.targets.as_slice() {
            targets.insert((rc.line, rc.col), *only);
        }
    }

    // Dominating-check evidence: a comparison at or above `line` that
    // mentions `id` clears the value for every later use — the flow-
    // sensitive core of the sanitizer model. Range membership counts:
    // `(1..=MAX_K).contains(&k)` is a bounds check on `k`.
    let checked_before = |id: &str, line: u32| {
        body.checks.iter().any(|ck| ck.line <= line && ck.idents.iter().any(|x| x == id))
            || body.calls.iter().any(|c| {
                c.name == "contains"
                    && c.line <= line
                    && c.args.iter().flatten().any(|a| a == id)
            })
    };
    // Is a call expression's *value* tainted?
    let call_tainted = |c: &CallSite, tainted: &BTreeSet<String>| -> bool {
        if fs_source(c) || env_source(c) {
            return true;
        }
        if stream_read(c) || value_clean(&c.name) {
            return false;
        }
        if receiver_name(c).is_some_and(|r| tainted.contains(r)) {
            return true;
        }
        // Conversions preserve taint (`String::from_utf8(head)`, `Ok(buf)`).
        // Only for *unresolved* callees: a resolved workspace fn has a
        // return summary (the final clause below) and gets judged by it,
        // not by this heuristic. Method calls on an untainted receiver are
        // exempt: the result is the receiver's own content, and a tainted
        // *key* does not make it attacker-controlled (`store.by_name(&name)`
        // yields a store id).
        if c.receiver.is_none()
            && !targets.contains_key(&(c.line, c.col))
            && c.args
                .iter()
                .flatten()
                .any(|a| tainted.contains(a) && !checked_before(a, c.line))
        {
            return true;
        }
        targets.get(&(c.line, c.col)).is_some_and(|&t| ret_tainted[t])
    };
    let in_span = |c: &CallSite, s: (u32, u32), e: (u32, u32)| {
        (c.line, c.col) >= s && (c.line, c.col) <= e
    };
    // `v` is *covered* on a line/span when it is the receiver of a
    // value-clean call there: in `Vec::with_capacity(v.len())` the value
    // consumed is the count of what is actually present, not `v`'s
    // untrusted content, and in `data.push(buf.get_f32_le()?)` the value
    // read off `buf` is a float no length/index sink can consume.
    let covered_line = |id: &str, line: u32| {
        body.calls
            .iter()
            .any(|c| c.line == line && value_clean(&c.name) && receiver_name(c) == Some(id))
    };
    let covered_span = |id: &str, s: (u32, u32), e: (u32, u32)| {
        body.calls
            .iter()
            .any(|c| in_span(c, s, e) && value_clean(&c.name) && receiver_name(c) == Some(id))
    };
    // An ident that appears inside a span only as a call's receiver or
    // argument is judged by `call_tainted` on that call, not by raw ident
    // intersection: `store.by_name(&name)` mentions the tainted `name`,
    // but the call-level rules already decided the lookup result is clean.
    let consumed_by_call = |id: &str, s: (u32, u32), e: (u32, u32)| {
        body.calls.iter().any(|c| {
            in_span(c, s, e)
                && (receiver_name(c) == Some(id) || c.args.iter().flatten().any(|a| a == id))
        })
    };

    // `.min(cap)` / `.clamp(lo, hi)` / `& mask` / `%` bound a bind's value:
    // it is clean even over a tainted rhs.
    let sanitizing = |b: &LetBind| {
        let span = ((b.line, b.col), (b.init_end_line, b.init_end_col));
        b.rhs_bounded
            || body
                .calls
                .iter()
                .any(|c| in_span(c, span.0, span.1) && SANITIZING.contains(&c.name.as_str()))
    };

    // Bounded fixpoint: binds can feed later mutations and vice versa.
    for _ in 0..4 {
        let before = sim.tainted.len();
        for c in &body.calls {
            if stream_read(c) {
                for id in c.args.first().into_iter().flatten() {
                    sim.tainted.insert(id.clone());
                }
            } else if MUTATORS.contains(&c.name.as_str())
                && c.args
                    .iter()
                    .flatten()
                    .any(|a| sim.tainted.contains(a) && !covered_line(a, c.line))
            {
                // A method fed a tainted argument taints its receiver
                // (`head.extend_from_slice(&tmp[..n])`).
                if let Some(r) = receiver_name(c) {
                    sim.tainted.insert(r.to_string());
                }
            }
        }
        for b in &body.binds {
            if sanitizing(b) {
                sim.tainted.remove(&b.name);
                continue;
            }
            let span = ((b.line, b.col), (b.init_end_line, b.init_end_col));
            if b.rhs_idents.iter().any(|x| {
                sim.tainted.contains(x)
                    && !covered_span(x, span.0, span.1)
                    && !consumed_by_call(x, span.0, span.1)
            }) || body
                .calls
                .iter()
                .any(|c| in_span(c, span.0, span.1) && call_tainted(c, &sim.tainted))
            {
                sim.tainted.insert(b.name.clone());
            }
        }
        if sim.tainted.len() == before {
            break;
        }
    }

    // Sanitizing binds that actually cleaned a tainted initializer.
    for b in &body.binds {
        if sanitizing(b) && b.rhs_idents.iter().any(|x| sim.tainted.contains(x)) {
            sim.cleansed.push((b.line, if b.rhs_bounded { "mask" } else { "clamp" }));
        }
    }

    // Return-value taint from the parser's return spans, not the whole
    // body: a fn that clamps internally and returns the clean bind stays
    // untainted for its callers.
    for r in &body.rets {
        if r.bounded && r.idents.iter().any(|x| sim.tainted.contains(x)) {
            sim.cleansed.push((r.start_line, "mask"));
        }
    }
    sim.ret = body.rets.iter().filter(|r| !r.is_err && !r.bounded).any(|r| {
        let (s, e) = ((r.start_line, r.start_col), (r.end_line, r.end_col));
        // An ident that only feeds a comparison inside the span produces a
        // bool (`current == ON`), which carries no magnitude.
        let checked = |x: &str| {
            body.checks.iter().any(|ck| {
                ck.line >= r.start_line && ck.line <= r.end_line && ck.idents.iter().any(|i| i == x)
            })
        };
        r.idents.iter().any(|x| {
            sim.tainted.contains(x)
                && !covered_span(x, s, e)
                && !checked(x)
                && !consumed_by_call(x, s, e)
        }) || body.calls.iter().any(|c| in_span(c, s, e) && call_tainted(c, &sim.tainted))
    });

    // Primitive sources present (inventory + provenance roots).
    for c in &body.calls {
        if fs_source(c) {
            sim.sources.push(("fs-read", format!("fs::{}", c.name), c.line));
        } else if env_source(c) {
            sim.sources.push(("env-var", format!("env::{}", c.name), c.line));
        } else if stream_read(c) {
            sim.sources.push(("stream-read", format!(".{}(buf)", c.name), c.line));
        }
    }

    // Interprocedural edges: tainted arguments and receivers.
    for c in &body.calls {
        let Some(&t) = targets.get(&(c.line, c.col)) else { continue };
        // A sibling call on the same line that consumes ident `a` (as
        // receiver or argument) owns the judgment for it: in
        // `T::new(rows, floats(&tensor[..n]))` the `tensor` bytes only
        // reach `T::new` through `floats`, so `call_tainted(floats)`
        // decides, not raw ident intersection.
        let consumed_here = |a: &str| {
            body.calls.iter().any(|c2| {
                c2.line == c.line
                    && c2.col != c.col
                    && (receiver_name(c2) == Some(a) || c2.args.iter().flatten().any(|x| x == a))
            })
        };
        for (k, argids) in c.args.iter().enumerate() {
            let raw = argids.iter().any(|a| {
                sim.tainted.contains(a)
                    && !covered_line(a, c.line)
                    && !checked_before(a, c.line)
                    && !consumed_here(a)
            });
            let inner = body.calls.iter().any(|c2| {
                c2.line == c.line
                    && c2.col != c.col
                    && argids.iter().any(|a| a == &c2.name)
                    && call_tainted(c2, &sim.tainted)
            });
            if raw || inner {
                sim.out.push((t, k));
            }
        }
        if receiver_name(c).is_some_and(|r| sim.tainted.contains(r)) {
            sim.out.push((t, SELF_POS));
        }
    }

    // Sinks: the tainted idents each sink site consumes, minus those the
    // site covers.
    let tainted_at = |ids: &[String], line: u32| {
        let mut hit: Vec<String> = ids
            .iter()
            .filter(|a| sim.tainted.contains(*a) && !covered_line(a, line))
            .cloned()
            .collect();
        hit.dedup();
        hit
    };
    let mut sinks = Vec::new();
    for c in &body.calls {
        let rule = if LEN_SINKS.contains(&c.name.as_str()) {
            "untrusted-length"
        } else if SPLIT_SINKS.contains(&c.name.as_str()) {
            "untrusted-index"
        } else {
            continue;
        };
        let args: Vec<String> = c.args.iter().flatten().cloned().collect();
        let hit = tainted_at(&args, c.line);
        sinks.push((c.line, c.col, rule, call_desc(c, &hit), hit, false));
    }
    for v in &body.vec_macros {
        let hit = tainted_at(&v.len_idents, v.line);
        let desc = format!("vec![…; {}]", hit.join(", "));
        sinks.push((v.line, v.col, "untrusted-length", desc, hit, false));
    }
    for ix in &body.indexes {
        let hit = tainted_at(&ix.idents, ix.line);
        let desc = format!("slice index [{}]", hit.join(", "));
        sinks.push((ix.line, ix.col, "untrusted-index", desc, hit, ix.bounded));
    }
    for (line, col, rule, desc, idents, bounded) in sinks {
        if !idents.is_empty() {
            sim.sinks.push(SinkHit { line, col, rule, desc, idents, bounded });
        }
    }
    sim.sinks.sort_by_key(|s| (s.line, s.col));
    sim
}

/// Runs the taint pass over the same `units` slice that built `g`; the
/// ledger answers the taint allows and `trust(…)` directives.
pub fn analyze(units: &[FileUnit<'_>], g: &Graph, ledger: &Ledger) -> TaintAnalysis {
    let n = g.nodes.len();
    let defs: Vec<&FnDef> = (0..n).map(|i| g.def(units, i)).collect();
    let active = |i: usize| !g.nodes[i].is_test;

    let mut entry: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut prov: Vec<Option<Witness>> = vec![None; n];
    let mut ret_tainted = vec![false; n];
    let mut source_inv: BTreeSet<InvItem> = BTreeSet::new();

    // Seeds: `&[u8]` parameters are the byte-slice boundary every loader
    // and parser crosses — whatever crosses it is attacker-shaped.
    for i in 0..n {
        if !active(i) {
            continue;
        }
        for (pname, ptail) in &defs[i].params {
            if ptail == "[u8]" {
                entry[i].insert(pname.clone());
                if prov[i].is_none() {
                    prov[i] = Some(Witness {
                        dist: 1,
                        via: None,
                        site: format!(
                            "untrusted bytes `{pname}: &[u8]` ({}:{})",
                            g.nodes[i].file, g.nodes[i].line
                        ),
                    });
                }
                if g.nodes[i].in_lib {
                    source_inv.insert(InvItem {
                        id: format!("{}({pname})", g.nodes[i].id),
                        kind: "byte-slice-param".to_string(),
                        file: g.nodes[i].file.clone(),
                        line: g.nodes[i].line,
                    });
                }
            }
        }
    }

    // Worklist fixpoint over (entry sets, return summaries).
    let mut queue: VecDeque<usize> = (0..n).filter(|&i| active(i)).collect();
    let mut inq = vec![false; n];
    for &i in &queue {
        inq[i] = true;
    }
    while let Some(i) = queue.pop_front() {
        inq[i] = false;
        let sim = simulate(defs[i], &g.nodes[i], &entry[i], &ret_tainted);
        if prov[i].is_none() {
            if let Some((_kind, what, line)) = sim.sources.first() {
                prov[i] = Some(Witness {
                    dist: 1,
                    via: None,
                    site: format!("{what} ({}:{line})", g.nodes[i].file),
                });
            }
        }
        let dist = prov[i].as_ref().map_or(1, |t| t.dist);
        for &(t, pos) in &sim.out {
            if !active(t) {
                continue;
            }
            let name = if pos == SELF_POS {
                Some("self")
            } else {
                defs[t].param_names.get(pos).map(String::as_str).filter(|s| !s.is_empty())
            };
            let Some(name) = name else { continue };
            if entry[t].insert(name.to_string()) {
                if prov[t].is_none() {
                    prov[t] = Some(Witness { dist: dist + 1, via: Some(i), site: String::new() });
                }
                if !inq[t] {
                    queue.push_back(t);
                    inq[t] = true;
                }
            }
        }
        if sim.ret && !ret_tainted[i] {
            ret_tainted[i] = true;
            for &c in &g.callers[i] {
                if !active(c) {
                    continue;
                }
                // A caller tainted by this return value inherits the
                // provenance through the callee, so witnesses reach back to
                // the primitive source even across return flows.
                if prov[c].is_none() {
                    prov[c] = Some(Witness { dist: dist + 1, via: Some(i), site: String::new() });
                }
                if !inq[c] {
                    queue.push_back(c);
                    inq[c] = true;
                }
            }
        }
    }

    // Final pass: flows, findings and the sanitizer inventory, library
    // nodes only (bins/tests feed propagation but are not audited).
    let mut findings: Vec<Finding> = Vec::new();
    let mut flows: Vec<Flow> = Vec::new();
    let mut sink_inv: BTreeSet<InvItem> = BTreeSet::new();
    let mut san_inv: BTreeSet<InvItem> = BTreeSet::new();
    for i in 0..n {
        if !active(i) || !g.nodes[i].in_lib {
            continue;
        }
        let sim = simulate(defs[i], &g.nodes[i], &entry[i], &ret_tainted);
        let file = &g.nodes[i].file;
        for (kind, what, line) in &sim.sources {
            source_inv.insert(InvItem {
                id: format!("{} {what}", g.nodes[i].id),
                kind: (*kind).to_string(),
                file: file.clone(),
                line: *line,
            });
        }
        let body = defs[i].body.as_ref();
        for hit in &sim.sinks {
            let witness =
                format!("{} → {} ({file}:{})", g.chain(&prov, i, true), hit.desc, hit.line);
            sink_inv.insert(InvItem {
                id: format!("{} {}", g.nodes[i].id, hit.desc),
                kind: if hit.rule == "untrusted-length" { "alloc" } else { "index" }.to_string(),
                file: file.clone(),
                line: hit.line,
            });
            // Dominating bounds check: a comparison at or above the sink
            // line mentioning every tainted sink operand.
            let check_line = |id: &str| {
                body.and_then(|b| {
                    b.checks
                        .iter()
                        .find(|ck| ck.line <= hit.line && ck.idents.iter().any(|x| x == id))
                        .map(|ck| ck.line)
                })
            };
            let checks: Vec<Option<u32>> = hit.idents.iter().map(|id| check_line(id)).collect();
            let (status, san): (&'static str, Option<(u32, &'static str)>) = if hit.bounded {
                ("sanitized", Some((hit.line, "mask")))
            } else if checks.iter().all(Option::is_some) {
                ("sanitized", checks.first().copied().flatten().map(|l| (l, "bounds-check")))
            } else {
                match ledger.covers(file, hit.rule, hit.line) {
                    None => {
                        let what = if hit.rule == "untrusted-length" {
                            "controls an allocation"
                        } else {
                            "indexes a slice"
                        };
                        let message = format!(
                            "untrusted value {what} without a dominating bounds check: {witness}"
                        );
                        findings.push(Finding::new(file, hit.line, hit.col, hit.rule, message));
                        ("unsanitized", None)
                    }
                    Some(a) if a.scope == AllowScope::File => ("trusted", None),
                    Some(a) => {
                        let kind = if a.rule == "trust" { "trust" } else { "allow" };
                        ("trusted", Some((a.line, kind)))
                    }
                }
            };
            if let Some((line, kind)) = san {
                san_inv.insert(InvItem {
                    id: format!("{} {kind}@{line}", g.nodes[i].id),
                    kind: kind.to_string(),
                    file: file.clone(),
                    line,
                });
            }
            flows.push(Flow {
                rule: hit.rule,
                status,
                file: file.clone(),
                line: hit.line,
                col: hit.col,
                sink: hit.desc.clone(),
                witness,
            });
        }
        for (line, kind) in &sim.cleansed {
            san_inv.insert(InvItem {
                id: format!("{} {kind}@{line}", g.nodes[i].id),
                kind: (*kind).to_string(),
                file: file.clone(),
                line: *line,
            });
        }
    }
    flows.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));

    // Sources inventory: keep only roots that produced live taint — a
    // byte-slice param seed is live by construction; primitive sites are
    // inventoried where they appear in library bodies.
    TaintAnalysis {
        sources: source_inv.into_iter().collect(),
        sinks: sink_inv.into_iter().collect(),
        sanitizers: san_inv.into_iter().collect(),
        flows,
        findings,
    }
}

impl TaintAnalysis {
    /// Count of flows still marked `unsanitized` (the gate must see zero).
    pub fn unsanitized(&self) -> usize {
        self.flows.iter().filter(|f| f.status == "unsanitized").count()
    }

    /// Renders the deterministic `TAINTGRAPH.json` artifact.
    pub fn render_json(&self) -> String {
        let mut w = JsonOut::new();
        w.field("schema_version", TAINTGRAPH_SCHEMA_VERSION);
        w.field("sources", self.sources.len());
        w.field("sinks", self.sinks.len());
        w.field("sanitizers", self.sanitizers.len());
        w.field("flows", self.flows.len());
        w.field("unsanitized_flows", self.unsanitized());
        // Per-crate rollup: source/sink/sanitizer inventory sizes plus flow
        // and unsanitized-flow counts.
        let mut per: BTreeMap<String, [usize; 5]> = BTreeMap::new();
        for (slot, items) in [
            (0usize, &self.sources),
            (1, &self.sinks),
            (2, &self.sanitizers),
        ] {
            for it in items {
                per.entry(crate_of(&it.file)).or_default()[slot] += 1;
            }
        }
        for f in &self.flows {
            let e = per.entry(crate_of(&f.file)).or_default();
            e[3] += 1;
            if f.status == "unsanitized" {
                e[4] += 1;
            }
        }
        w.block("crates", '{');
        for (kr, c) in &per {
            w.field(kr, format_args!(
                "{{\"sources\": {}, \"sinks\": {}, \"sanitizers\": {}, \"flows\": {}, \"unsanitized\": {}}}",
                c[0], c[1], c[2], c[3], c[4],
            ));
        }
        w.end();
        w.block("inventory", '{');
        for (key, items) in [
            ("sources", &self.sources),
            ("sinks", &self.sinks),
            ("sanitizers", &self.sanitizers),
        ] {
            w.block(key, '[');
            for it in items {
                w.item(format_args!(
                    "{{\"id\": {}, \"kind\": {}, \"file\": {}, \"line\": {}}}",
                    quoted(&it.id),
                    quoted(&it.kind),
                    quoted(&it.file),
                    it.line,
                ));
            }
            w.end();
        }
        w.end();
        w.block("flow_edges", '[');
        for f in &self.flows {
            w.item(format_args!(
                "{{\"rule\": {}, \"status\": {}, \"site\": {}, \"sink\": {}, \"witness\": {}}}",
                quoted(f.rule),
                quoted(f.status),
                quoted(&format!("{}:{}:{}", f.file, f.line, f.col)),
                quoted(&f.sink),
                quoted(&f.witness),
            ));
        }
        w.finish()
    }
}
