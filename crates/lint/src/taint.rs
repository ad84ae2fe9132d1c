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
use crate::parser::{CallSite, FnDef, Receiver};
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

    let recv_tainted = |c: &CallSite, tainted: &BTreeSet<String>| -> bool {
        match &c.receiver {
            Some(Receiver::SelfRecv) => tainted.contains("self"),
            Some(Receiver::Ident(x)) => tainted.contains(x),
            _ => false,
        }
    };
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
        if stream_read(c) || TRUSTED_METHODS.contains(&c.name.as_str()) {
            return false;
        }
        // Float payloads carry no magnitude a length/index sink could
        // consume (`buf.get_f32_le()`, a `floats(..)` converter); a cast
        // back to an integer is the lossy-cast rule's business.
        if c.name.contains("f32") || c.name.contains("f64") || c.name.contains("float") {
            return false;
        }
        if recv_tainted(c, tainted) {
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
    let receiver_is = |c: &CallSite, id: &str| match &c.receiver {
        Some(Receiver::Ident(x)) => x == id,
        Some(Receiver::SelfRecv) => id == "self",
        _ => false,
    };
    let value_clean = |name: &str| {
        TRUSTED_METHODS.contains(&name)
            || name.contains("f32")
            || name.contains("f64")
            || name.contains("float")
    };
    let covered_line = |id: &str, line: u32| {
        body.calls
            .iter()
            .any(|c| c.line == line && value_clean(&c.name) && receiver_is(c, id))
    };
    let covered_span = |id: &str, s: (u32, u32), e: (u32, u32)| {
        body.calls
            .iter()
            .any(|c| in_span(c, s, e) && value_clean(&c.name) && receiver_is(c, id))
    };
    // An ident that appears inside a span only as a call's receiver or
    // argument is judged by `call_tainted` on that call, not by raw ident
    // intersection: `store.by_name(&name)` mentions the tainted `name`,
    // but the call-level rules already decided the lookup result is clean.
    let consumed_by_call = |id: &str, s: (u32, u32), e: (u32, u32)| {
        body.calls.iter().any(|c| {
            in_span(c, s, e)
                && (receiver_is(c, id) || c.args.iter().flatten().any(|a| a == id))
        })
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
                match &c.receiver {
                    Some(Receiver::Ident(r)) => {
                        sim.tainted.insert(r.clone());
                    }
                    Some(Receiver::SelfRecv) => {
                        sim.tainted.insert("self".to_string());
                    }
                    _ => {}
                }
            }
        }
        for b in &body.binds {
            let span = ((b.line, b.col), (b.init_end_line, b.init_end_col));
            let sanitizing_call = body
                .calls
                .iter()
                .any(|c| in_span(c, span.0, span.1) && SANITIZING.contains(&c.name.as_str()));
            if b.rhs_bounded || sanitizing_call {
                // `.min(cap)` / `.clamp(lo, hi)` / `& mask` / `%` bound the
                // value: the bind is clean even over a tainted rhs.
                sim.tainted.remove(&b.name);
                continue;
            }
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
        let span = ((b.line, b.col), (b.init_end_line, b.init_end_col));
        let sanitizing_call = body
            .calls
            .iter()
            .any(|c| in_span(c, span.0, span.1) && SANITIZING.contains(&c.name.as_str()));
        if (b.rhs_bounded || sanitizing_call)
            && b.rhs_idents.iter().any(|x| sim.tainted.contains(x))
        {
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
                    && (receiver_is(c2, a) || c2.args.iter().flatten().any(|x| x == a))
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
        if recv_tainted(c, &sim.tainted) {
            sim.out.push((t, SELF_POS));
        }
    }

    // Sinks.
    for c in &body.calls {
        let rule = if LEN_SINKS.contains(&c.name.as_str()) {
            "untrusted-length"
        } else if SPLIT_SINKS.contains(&c.name.as_str()) {
            "untrusted-index"
        } else {
            continue;
        };
        let mut hit: Vec<String> = c
            .args
            .iter()
            .flatten()
            .filter(|a| sim.tainted.contains(*a) && !covered_line(a, c.line))
            .cloned()
            .collect();
        hit.dedup();
        if !hit.is_empty() {
            let desc = call_desc(c, &hit);
            sim.sinks.push(SinkHit { line: c.line, col: c.col, rule, desc, idents: hit, bounded: false });
        }
    }
    for v in &body.vec_macros {
        let mut hit: Vec<String> = v
            .len_idents
            .iter()
            .filter(|a| sim.tainted.contains(*a) && !covered_line(a, v.line))
            .cloned()
            .collect();
        hit.dedup();
        if !hit.is_empty() {
            sim.sinks.push(SinkHit {
                line: v.line,
                col: v.col,
                rule: "untrusted-length",
                desc: format!("vec![…; {}]", hit.join(", ")),
                idents: hit,
                bounded: false,
            });
        }
    }
    for ix in &body.indexes {
        let mut hit: Vec<String> = ix
            .idents
            .iter()
            .filter(|a| sim.tainted.contains(*a) && !covered_line(a, ix.line))
            .cloned()
            .collect();
        hit.dedup();
        if !hit.is_empty() {
            sim.sinks.push(SinkHit {
                line: ix.line,
                col: ix.col,
                rule: "untrusted-index",
                desc: format!("slice index [{}]", hit.join(", ")),
                idents: hit,
                bounded: ix.bounded,
            });
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
                        findings.push(Finding {
                            file: file.clone(),
                            line: hit.line,
                            col: hit.col,
                            rule: hit.rule,
                            message: format!(
                                "untrusted value {what} without a dominating bounds check: {witness}"
                            ),
                        });
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
        let esc = crate::report::escape;
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema_version\": {TAINTGRAPH_SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"sources\": {},\n", self.sources.len()));
        out.push_str(&format!("  \"sinks\": {},\n", self.sinks.len()));
        out.push_str(&format!("  \"sanitizers\": {},\n", self.sanitizers.len()));
        out.push_str(&format!("  \"flows\": {},\n", self.flows.len()));
        out.push_str(&format!("  \"unsanitized_flows\": {},\n", self.unsanitized()));
        // Per-crate rollup: source/sink/sanitizer inventory sizes plus flow
        // and unsanitized-flow counts.
        let mut per: BTreeMap<String, [usize; 5]> = BTreeMap::new();
        for (slot, items) in
            [(0usize, &self.sources), (1, &self.sinks), (2, &self.sanitizers)]
        {
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
        out.push_str("  \"crates\": {\n");
        let nc = per.len();
        for (i, (kr, c)) in per.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"sources\": {}, \"sinks\": {}, \"sanitizers\": {}, \"flows\": {}, \"unsanitized\": {}}}{}\n",
                esc(kr), c[0], c[1], c[2], c[3], c[4],
                if i + 1 < nc { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"inventory\": {\n");
        for (w, (key, items)) in [
            ("sources", &self.sources),
            ("sinks", &self.sinks),
            ("sanitizers", &self.sanitizers),
        ]
        .into_iter()
        .enumerate()
        {
            out.push_str(&format!("    \"{key}\": [\n"));
            let ni = items.len();
            for (i, it) in items.iter().enumerate() {
                out.push_str(&format!(
                    "      {{\"id\": \"{}\", \"kind\": \"{}\", \"file\": \"{}\", \"line\": {}}}{}\n",
                    esc(&it.id),
                    esc(&it.kind),
                    esc(&it.file),
                    it.line,
                    if i + 1 < ni { "," } else { "" }
                ));
            }
            out.push_str(&format!("    ]{}\n", if w < 2 { "," } else { "" }));
        }
        out.push_str("  },\n  \"flow_edges\": [\n");
        let nf = self.flows.len();
        for (i, f) in self.flows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rule\": \"{}\", \"status\": \"{}\", \"site\": \"{}:{}:{}\", \"sink\": \"{}\", \"witness\": \"{}\"}}{}\n",
                f.rule,
                f.status,
                esc(&f.file),
                f.line,
                f.col,
                esc(&f.sink),
                esc(&f.witness),
                if i + 1 < nf { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}
