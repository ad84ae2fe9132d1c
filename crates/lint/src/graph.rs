//! Workspace-wide call graph and transitive panic reachability.
//!
//! [`build`] resolves every call site recovered by [`crate::parser`] into a
//! graph over all function definitions in the scanned file set, then runs a
//! multi-source BFS from every *panic source* (panic/assert macro,
//! `.unwrap()`/`.expect()`, slice index) backwards over the call edges, so
//! each function knows whether it can transitively reach a panic and via
//! which shortest witness chain.
//!
//! ## Resolution strategy (deterministic, documented heuristics)
//!
//! * `Type::method(…)` / `Self::method(…)` → `impl` fns of that type name.
//! * `module::func(…)` → free fns whose module or crate matches the last
//!   qualifier segment.
//! * `recv.method(…)` → the receiver's type when known (a typed `let`, a
//!   parameter, or `self`), else *all* workspace methods of that name —
//!   unless the name collides with ubiquitous `std` methods
//!   ([`STD_METHOD_COLLISIONS`]), in which case the call is treated as
//!   external rather than over-linking half the workspace.
//! * Bare `func(…)` → free fns, preferring same module, then same crate.
//!
//! Unresolved calls are assumed external (std) and do not propagate taint;
//! this under-approximates across type-erased call sites and is the
//! documented trade-off of a first-party analyzer with no type inference.
//!
//! ## Shared reachability
//!
//! [`build`] also records the reverse edges ([`Graph::callers`]) once, and
//! `Graph::reach` is the one multi-source shortest-witness BFS over them:
//! panic-path here, and the lock pass's acquire and blocking taint, all
//! call it with their own seeds and barrier predicate, and render chains
//! with [`Graph::chain`].
//!
//! ## Allows
//!
//! A panic source is *defused* (does not taint its function or callers) by
//! an inline `allow(panic-path)`/`allow(no-panic-lib)` on its line; a
//! function is a *barrier* (proven/documented — never taints callers) when
//! an `allow(panic-path)` is attached to its declaration or a file-scope
//! `allow-file(panic-path)` covers its file. Both are answered by the shared
//! [`Ledger`], which marks the directives that were load-bearing so the
//! `stale-allow` rule can flag the rest.

// cmr-lint: allow-file(panic-path) node ids are arena indices minted by build(); every dereference uses an id the arena issued

use crate::parser::{CallSite, FnDef, ParsedFile, PanicKind, Receiver};
use crate::report::{quoted, JsonOut};
use crate::rules::{Ledger, PathKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

/// Schema version stamped into `CALLGRAPH.json`.
pub const CALLGRAPH_SCHEMA_VERSION: u32 = 1;

/// Method names so common on `std` types that an unknown-receiver call must
/// not be linked to same-named workspace methods (over-approximation would
/// drown the analysis in false paths through `Vec::len`-alikes).
pub const STD_METHOD_COLLISIONS: &[&str] = &[
    "abs", "all", "and_then", "any", "as_bytes", "as_mut", "as_ref", "as_slice", "as_str",
    "borrow", "bytes", "capacity", "ceil", "chars", "chunks", "clamp", "clear", "clone",
    "cloned", "cmp", "collect", "contains", "contains_key", "copied", "copy_from_slice",
    "compare_exchange", "compare_exchange_weak", "cos", "count", "dedup", "drain", "entry",
    "enumerate", "eq", "exp", "extend", "fetch_add", "fetch_max", "fetch_min", "fetch_sub",
    "fill",
    "filter", "filter_map", "find", "first", "flat_map", "flatten", "floor", "flush",
    "fold", "fmt", "from_bits", "get", "get_mut", "get_or_init", "get_or_insert_with",
    "hash", "insert", "into_iter", "is_empty", "is_finite", "is_nan", "is_none", "is_some",
    "iter", "iter_mut", "join", "keys", "last", "len", "lines", "ln", "load", "lock",
    "map", "map_err", "max", "max_by", "min", "min_by", "next", "ok", "ok_or",
    "ok_or_else", "or_else", "parse",
    "partial_cmp", "pop", "position", "powf", "powi", "push", "push_str", "read",
    "read_exact", "read_to_end", "read_to_string", "remove", "reserve", "resize", "rev",
    "round", "seek", "set_len", "sin", "skip", "sort", "sort_by", "sort_by_key",
    "sort_unstable", "sort_unstable_by", "split", "split_at", "split_at_mut",
    "split_whitespace", "sqrt", "starts_with", "ends_with", "sum", "swap", "take", "tanh",
    "to_bits", "to_owned", "to_string", "to_vec", "trim", "try_into", "unwrap_or",
    "unwrap_or_default", "unwrap_or_else", "values", "windows", "with_capacity", "write",
    "write_all", "zip",
];

/// One scanned file handed to [`build`].
pub struct FileUnit<'a> {
    /// Repo-relative path with `/` separators.
    pub path: &'a str,
    /// Parser output for the file.
    pub parsed: &'a ParsedFile,
    /// Where the file sits (test, example, binary or library code).
    pub kind: PathKind,
}

/// What made a function a barrier for a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierFrom {
    /// A fn-scoped line allow at this allow-comment line.
    Line(u32),
    /// A file-scope `allow-file` directive.
    File,
}

/// One undefused panic source inside a function.
#[derive(Clone, Debug)]
pub struct SourceSite {
    /// 1-based line.
    pub line: u32,
    /// Short description (`panic!`, `.unwrap()`, `slice index`, …).
    pub what: String,
}

/// Shortest-witness provenance of one reached node.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Chain length in functions (1 = the seed site is in this fn itself).
    pub dist: u32,
    /// Next function on the chain toward the seed (`None` for the seed fn).
    pub via: Option<usize>,
    /// Description + location of the seed site (empty off the seed fn).
    pub site: String,
}

/// Struct fields per `(crate, type)`: field name → type tail. Built from
/// non-test files only; the first declaration of a field wins.
pub type FieldMap = HashMap<(String, String), HashMap<String, String>>;

/// One function node in the call graph.
pub struct Node {
    /// Index of the defining file in the `units` slice handed to [`build`].
    pub unit: usize,
    /// Index of the definition in that unit's `parsed.fns`.
    pub def: usize,
    /// Stable display id, e.g. `adamine::Model::embed`.
    pub id: String,
    /// Repo-relative file.
    pub file: String,
    /// Line of the fn name token.
    pub line: u32,
    /// Column of the fn name token.
    pub col: u32,
    /// Short crate name (workspace dir name).
    pub krate: String,
    /// Bare-`pub` function.
    pub is_pub: bool,
    /// Inside a test region or a test-path file.
    pub is_test: bool,
    /// Library code (see [`PathKind::lib`]).
    pub in_lib: bool,
    /// Declared to return `Result<…>`.
    pub returns_result: bool,
    /// Barrier fn: proven/documented, never taints callers.
    pub barrier: Option<BarrierFrom>,
    /// Panic sources before defusing, by kind: `[macro, assert, unwrap, index]`.
    pub sources_by_kind: [usize; 4],
    /// Sites still live after allows.
    pub live_sources: Vec<SourceSite>,
    /// How many sites allows defused.
    pub defused: usize,
    /// Resolved callee node indices (sorted, deduped).
    pub callees: Vec<usize>,
    /// Every resolved call site in body order, with its candidate targets
    /// (the per-site view `callees` flattens away; the lock pass needs the
    /// site's line/col to intersect with live guard spans).
    pub resolved_calls: Vec<ResolvedCall>,
    /// Call sites that could not be resolved to a workspace fn.
    pub unresolved_calls: usize,
}

/// One call site resolved to workspace candidates.
pub struct ResolvedCall {
    /// 1-based line of the callee name token.
    pub line: u32,
    /// 1-based column of the callee name token.
    pub col: u32,
    /// Callee name as written at the site.
    pub name: String,
    /// Candidate node indices (every workspace fn the site may reach).
    pub targets: Vec<usize>,
}

/// A statement-discarded call (`let _ = f();` or bare `f();`) whose every
/// resolved workspace candidate returns `Result`.
#[derive(Clone, Debug)]
pub struct DiscardedResult {
    /// Repo-relative file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: u32,
    /// 1-based column of the call site.
    pub col: u32,
    /// Node index of the calling function.
    pub caller: usize,
    /// Name of the discarded callee.
    pub callee_name: String,
}

/// The resolved workspace call graph.
pub struct Graph {
    /// All function nodes, in deterministic (file, line) order.
    pub nodes: Vec<Node>,
    /// Reverse call edges: every caller of each node (sorted, deduped).
    pub callers: Vec<Vec<usize>>,
    /// Transitive panic reachability per node (shortest witness).
    pub panic: Vec<Option<Witness>>,
    /// The workspace struct-field map (receiver and cast-source typing).
    pub fields: FieldMap,
    /// Discarded calls resolving only to `Result`-returning workspace fns.
    pub discarded_results: Vec<DiscardedResult>,
}

/// Short crate name from a repo-relative path.
pub fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("?").to_string(),
        Some("src") => "facade".to_string(),
        Some(first) => first.to_string(),
        None => "?".to_string(),
    }
}

impl Graph {
    /// The definition behind node `i`, from the `units` that built the graph.
    pub(crate) fn def<'a>(&self, units: &[FileUnit<'a>], i: usize) -> &'a FnDef {
        let n = &self.nodes[i];
        &units[n.unit].parsed.fns[n.def]
    }

    /// Multi-source shortest-witness BFS backwards over the call edges.
    /// Every seed `(node, site)` reaches itself at distance 1, then each
    /// caller inherits the shortest chain. A `blocked` node is neither
    /// seeded nor reached (barrier fns, test code), so it stops the chain.
    pub(crate) fn reach(
        &self,
        seeds: impl IntoIterator<Item = (usize, String)>,
        blocked: impl Fn(usize) -> bool,
    ) -> Vec<Option<Witness>> {
        let mut wit: Vec<Option<Witness>> = vec![None; self.nodes.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for (i, site) in seeds {
            if wit[i].is_none() && !blocked(i) {
                wit[i] = Some(Witness { dist: 1, via: None, site });
                queue.push_back(i);
            }
        }
        while let Some(cur) = queue.pop_front() {
            let dist = wit[cur].as_ref().map_or(1, |w| w.dist) + 1;
            for &caller in &self.callers[cur] {
                if wit[caller].is_none() && !blocked(caller) {
                    wit[caller] = Some(Witness { dist, via: Some(cur), site: String::new() });
                    queue.push_back(caller);
                }
            }
        }
        wit
    }

    /// Renders the witness chain from `from` down to its seed site, e.g.
    /// `adamine::Model::embed → nn::Mlp::forward → .unwrap() (crates/nn/src/mlp.rs:90)`;
    /// `reversed` renders it seed-first.
    pub fn chain(&self, wit: &[Option<Witness>], from: usize, reversed: bool) -> String {
        let mut parts = Vec::new();
        let mut cur = from;
        for _ in 0..64 {
            parts.push(self.nodes[cur].id.clone());
            match &wit[cur] {
                Some(Witness { via: Some(nxt), .. }) => cur = *nxt,
                Some(w) => {
                    parts.push(w.site.clone());
                    break;
                }
                None => break,
            }
        }
        if reversed {
            parts.reverse();
        }
        parts.join(" → ")
    }

    /// Renders the deterministic `CALLGRAPH.json` artifact.
    pub fn render_json(&self) -> String {
        let mut w = JsonOut::new();
        w.field("schema_version", CALLGRAPH_SCHEMA_VERSION);
        w.field("functions", self.nodes.len());
        w.field(
            "edges",
            self.nodes.iter().map(|n| n.callees.len()).sum::<usize>(),
        );
        w.block("crates", '{');
        for (name, s) in &self.crate_stats() {
            w.field(name, format_args!(
                "{{\"fns\": {}, \"pub_fns\": {}, \"panic_sources\": {{\"macro\": {}, \"assert\": {}, \"unwrap_expect\": {}, \"index\": {}}}, \"defused_sources\": {}, \"barrier_fns\": {}, \"panic_surface\": {}}}",
                s.fns, s.pub_fns, s.sources[0], s.sources[1], s.sources[2],
                s.sources[3], s.defused, s.barriers, s.panic_surface,
            ));
        }
        w.end();
        w.block("nodes", '[');
        for (i, node) in self.nodes.iter().enumerate() {
            let chain = match &self.panic[i] {
                Some(_) => format!(
                    ", \"panic_chain\": {}",
                    quoted(&self.chain(&self.panic, i, false))
                ),
                None => String::new(),
            };
            let barrier = if node.barrier.is_some() {
                ", \"barrier\": true"
            } else {
                ""
            };
            w.item(format_args!(
                "{{\"id\": {}, \"file\": {}, \"line\": {}, \"pub\": {}, \"test\": {}, \"sources\": {}, \"defused\": {}{barrier}{chain}}}",
                quoted(&node.id),
                quoted(&node.file),
                node.line,
                node.is_pub,
                node.is_test,
                node.live_sources.len(),
                node.defused,
            ));
        }
        w.end();
        w.block("calls", '[');
        for node in &self.nodes {
            for &c in &node.callees {
                w.item(format_args!(
                    "[{}, {}]",
                    quoted(&node.id),
                    quoted(&self.nodes[c].id)
                ));
            }
        }
        w.finish()
    }

    /// Per-crate aggregate metrics (deterministically ordered).
    pub fn crate_stats(&self) -> BTreeMap<String, CrateStats> {
        let mut map: BTreeMap<String, CrateStats> = BTreeMap::new();
        for (node, panic) in self.nodes.iter().zip(&self.panic) {
            let s = map.entry(node.krate.clone()).or_default();
            s.fns += 1;
            if node.is_pub && !node.is_test {
                s.pub_fns += 1;
            }
            for k in 0..4 {
                s.sources[k] += node.sources_by_kind[k];
            }
            s.defused += node.defused;
            if node.barrier.is_some() {
                s.barriers += 1;
            }
            if node.is_pub && !node.is_test && node.in_lib && panic.is_some() {
                s.panic_surface += 1;
            }
        }
        map
    }

    /// Total panic surface: pub lib fns that can transitively reach an
    /// undefused panic.
    pub fn panic_surface(&self) -> usize {
        self.crate_stats().values().map(|s| s.panic_surface).sum()
    }
}

/// Aggregate call-graph metrics for one crate.
#[derive(Default, Clone, Debug)]
pub struct CrateStats {
    /// Function definitions.
    pub fns: usize,
    /// Bare-`pub` non-test functions.
    pub pub_fns: usize,
    /// Panic sources by kind: `[macro, assert, unwrap_expect, index]`.
    pub sources: [usize; 4],
    /// Sites defused by allows.
    pub defused: usize,
    /// Barrier functions.
    pub barriers: usize,
    /// Pub lib fns with transitive panic reachability.
    pub panic_surface: usize,
}

/// Builds the call graph and runs panic propagation. The ledger answers the
/// panic allows (site defuses, fn barriers) and marks the load-bearing ones.
pub fn build(units: &[FileUnit], ledger: &Ledger) -> Graph {
    let mut fields: FieldMap = HashMap::new();
    for u in units.iter().filter(|u| !u.kind.test) {
        let krate = crate_of(u.path);
        for st in &u.parsed.structs {
            let entry = fields.entry((krate.clone(), st.name.clone())).or_default();
            for (f, t) in &st.fields {
                entry.entry(f.clone()).or_insert_with(|| t.clone());
            }
        }
    }

    // ---- nodes ----
    let mut nodes: Vec<Node> = Vec::new();
    let mut defs: Vec<&FnDef> = Vec::new();
    let mut id_seen: HashMap<String, usize> = HashMap::new();
    for (ui, u) in units.iter().enumerate() {
        let krate = crate_of(u.path);
        for (di, def) in u.parsed.fns.iter().enumerate() {
            let mut id = String::new();
            id.push_str(&krate);
            for m in &def.module {
                id.push_str("::");
                id.push_str(m);
            }
            if let Some(ty) = &def.self_ty {
                id.push_str("::");
                id.push_str(ty);
            }
            id.push_str("::");
            id.push_str(&def.name);
            let dup = id_seen.entry(id.clone()).or_insert(0);
            *dup += 1;
            if *dup > 1 {
                id.push_str(&format!("#{dup}"));
            }

            let barrier = ledger.fn_barrier(u.path, "panic-path", def);

            // Panic sources.
            let mut by_kind = [0usize; 4];
            let mut live = Vec::new();
            let mut defused = 0usize;
            if let Some(body) = &def.body {
                let mut sites: Vec<(u32, u32, usize, String)> = Vec::new();
                for p in &body.panics {
                    let k = match p.kind {
                        PanicKind::Macro => 0,
                        PanicKind::Assert => 1,
                        PanicKind::UnwrapExpect => 2,
                    };
                    sites.push((p.line, p.col, k, p.what.clone()));
                }
                for ix in &body.indexes {
                    sites.push((ix.line, ix.col, 3, "slice index".to_string()));
                }
                sites.sort();
                for (line, _col, k, what) in sites {
                    by_kind[k] += 1;
                    let covered = ledger.covers(u.path, "panic-path", line).is_some();
                    if covered || barrier.is_some() {
                        defused += 1;
                    } else {
                        live.push(SourceSite { line, what });
                    }
                }
            }

            nodes.push(Node {
                unit: ui,
                def: di,
                id,
                file: u.path.to_string(),
                line: def.line,
                col: def.col,
                krate: krate.clone(),
                is_pub: def.is_pub,
                is_test: def.is_test || u.kind.test,
                in_lib: u.kind.lib(),
                returns_result: def.returns_result,
                barrier,
                sources_by_kind: by_kind,
                live_sources: live,
                defused,
                callees: Vec::new(),
                resolved_calls: Vec::new(),
                unresolved_calls: 0,
            });
            defs.push(def);
        }
    }

    // ---- resolution indexes ----
    let mut by_type_method: HashMap<(String, String), Vec<usize>> = HashMap::new();
    let mut free_by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut method_by_name: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, def) in defs.iter().enumerate() {
        match &def.self_ty {
            Some(ty) => {
                by_type_method.entry((ty.clone(), def.name.clone())).or_default().push(i);
                method_by_name.entry(def.name.clone()).or_default().push(i);
            }
            None => free_by_name.entry(def.name.clone()).or_default().push(i),
        }
    }

    // ---- edges ----
    let mut discarded_results: Vec<DiscardedResult> = Vec::new();
    for i in 0..nodes.len() {
        let Some(body) = &defs[i].body else { continue };
        let mut callees: BTreeSet<usize> = BTreeSet::new();
        let mut resolved_calls: Vec<ResolvedCall> = Vec::new();
        let mut unresolved = 0usize;
        for call in &body.calls {
            let targets = resolve_call(
                i,
                call,
                &defs,
                &nodes,
                &by_type_method,
                &free_by_name,
                &method_by_name,
            );
            if targets.is_empty() {
                unresolved += 1;
                continue;
            }
            if call.discarded && targets.iter().all(|&t| defs[t].returns_result) {
                discarded_results.push(DiscardedResult {
                    file: nodes[i].file.clone(),
                    line: call.line,
                    col: call.col,
                    caller: i,
                    callee_name: call.name.clone(),
                });
            }
            callees.extend(targets.iter().copied());
            resolved_calls.push(ResolvedCall {
                line: call.line,
                col: call.col,
                name: call.name.clone(),
                targets,
            });
        }
        nodes[i].callees = callees.into_iter().collect();
        nodes[i].resolved_calls = resolved_calls;
        nodes[i].unresolved_calls = unresolved;
    }
    discarded_results.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));

    // ---- reverse edges (ascending callers, each once: callees are deduped) ----
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (i, node) in nodes.iter().enumerate() {
        for &c in &node.callees {
            callers[c].push(i);
        }
    }

    // ---- panic propagation ----
    let mut g = Graph { nodes, callers, panic: Vec::new(), fields, discarded_results };
    let seeds = g.nodes.iter().enumerate().filter_map(|(i, n)| {
        n.live_sources.first().map(|s| (i, format!("{} ({}:{})", s.what, n.file, s.line)))
    });
    let panic = g.reach(seeds, |i| g.nodes[i].barrier.is_some() || g.nodes[i].is_test);
    g.panic = panic;

    // ---- allow usage: load-bearing barriers ----
    for node in &g.nodes {
        let Some(b) = node.barrier else { continue };
        let total: usize = node.sources_by_kind.iter().sum();
        if total > 0 || node.callees.iter().any(|&c| g.panic[c].is_some()) {
            ledger.mark_barrier(&node.file, "panic-path", b);
        }
    }
    g
}

/// Looks up the latest typed binding of `name` before `line`.
pub(crate) fn local_type(def: &FnDef, name: &str, line: u32) -> Option<String> {
    let mut best: Option<(u32, &str)> = None;
    if let Some(body) = &def.body {
        for (n, t, l) in &body.locals {
            if n == name && *l <= line && best.map(|(bl, _)| *l >= bl).unwrap_or(true) {
                best = Some((*l, t));
            }
        }
    }
    if let Some((_, t)) = best {
        return Some(t.to_string());
    }
    def.params.iter().find(|(n, _)| n == name).map(|(_, t)| t.clone())
}

fn resolve_call(
    caller: usize,
    call: &CallSite,
    defs: &[&FnDef],
    nodes: &[Node],
    by_type_method: &HashMap<(String, String), Vec<usize>>,
    free_by_name: &HashMap<String, Vec<usize>>,
    method_by_name: &HashMap<String, Vec<usize>>,
) -> Vec<usize> {
    let def = defs[caller];
    let name = call.name.as_str();
    let typed = |ty: &str| -> Vec<usize> {
        by_type_method
            .get(&(ty.to_string(), name.to_string()))
            .cloned()
            .unwrap_or_default()
    };
    // An untyped method call links to every workspace method of its name,
    // unless the name collides with a ubiquitous std method.
    let any_method = || {
        if STD_METHOD_COLLISIONS.contains(&name) {
            return Vec::new();
        }
        method_by_name.get(name).cloned().unwrap_or_default()
    };
    match &call.receiver {
        Some(Receiver::SelfRecv) => {
            let t = def.self_ty.as_deref().map(typed).unwrap_or_default();
            if t.is_empty() {
                any_method()
            } else {
                t
            }
        }
        // A known receiver type resolves exactly (or externally).
        Some(Receiver::Ident(v)) => match local_type(def, v, call.line) {
            Some(ty) => typed(&ty),
            None => any_method(),
        },
        Some(Receiver::Unknown) => any_method(),
        None => {
            if let Some(last) = call.qualifier.last() {
                if last == "Self" {
                    return def.self_ty.as_deref().map(typed).unwrap_or_default();
                }
                if last.chars().next().is_some_and(char::is_uppercase) {
                    return typed(last);
                }
                // Module- or crate-qualified free call.
                return free_by_name
                    .get(name)
                    .map(|cands| {
                        cands
                            .iter()
                            .copied()
                            .filter(|&c| {
                                defs[c].module.last().map(String::as_str) == Some(last.as_str())
                                    || nodes[c].krate == *last
                                    || nodes[c].krate == last.trim_start_matches("cmr_")
                            })
                            .collect()
                    })
                    .unwrap_or_default();
            }
            // A bare call through a parameter is a closure invocation, not a
            // free fn — `store.load(slot, parse)` must not link `parse(&b)`
            // to some crate's free `parse`.
            if def.params.iter().any(|(n, _)| n == name) {
                return Vec::new();
            }
            // Bare call: prefer same module in same crate, then same crate.
            let Some(cands) = free_by_name.get(name) else { return Vec::new() };
            let me = &nodes[caller];
            let same_unit: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| nodes[c].unit == me.unit && defs[c].module == def.module)
                .collect();
            if !same_unit.is_empty() {
                return same_unit;
            }
            let same_crate: Vec<usize> =
                cands.iter().copied().filter(|&c| nodes[c].krate == me.krate).collect();
            if !same_crate.is_empty() {
                return same_crate;
            }
            cands.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::{parse, Code};

    /// Builds the graph with every file's allow directives in the ledger.
    fn graph_with(files: &[(&str, &str)], ledger: &mut Ledger) -> Graph {
        let tokens: Vec<_> = files.iter().map(|(_, src)| lex(src).expect("lex")).collect();
        for ((path, _), toks) in files.iter().zip(&tokens) {
            ledger.add_file(path, toks, &mut Vec::new());
        }
        let parsed: Vec<ParsedFile> = tokens.into_iter().map(|t| parse(&Code::new(t))).collect();
        let units: Vec<FileUnit> = files
            .iter()
            .zip(parsed.iter())
            .map(|((path, _), p)| FileUnit { path, parsed: p, kind: PathKind::of(path) })
            .collect();
        build(&units, ledger)
    }

    fn graph_of(files: &[(&str, &str)]) -> Graph {
        graph_with(files, &mut Ledger::default())
    }

    #[test]
    fn transitive_taint_with_shortest_chain() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                r#"
                pub struct Model;
                impl Model {
                    pub fn embed(&self, m: Mlp) -> f32 { m.forward(0) }
                }
                "#,
            ),
            (
                "crates/b/src/lib.rs",
                r#"
                pub struct Mlp;
                impl Mlp {
                    pub fn forward(&self, i: usize) -> f32 { self.layer(i) }
                    fn layer(&self, i: usize) -> f32 { let w = [0.0]; w[i] }
                }
                "#,
            ),
        ]);
        let embed = g.nodes.iter().position(|n| n.id == "a::Model::embed").unwrap();
        let t = g.panic[embed].as_ref().expect("embed tainted");
        assert_eq!(t.dist, 3);
        let chain = g.chain(&g.panic, embed, false);
        assert!(
            chain.starts_with("a::Model::embed → b::Mlp::forward → b::Mlp::layer → slice index"),
            "{chain}"
        );
    }

    #[test]
    fn barrier_stops_taint_and_is_load_bearing() {
        let files = [
            ("crates/a/src/lib.rs", "pub fn call() { helper(); }"),
            (
                "crates/b/src/lib.rs",
                "\n// cmr-lint: allow(panic-path) barrier (line 2)\n\
                 pub fn helper() { panic!(\"boom\") }",
            ),
        ];
        let mut ledger = Ledger::default();
        let g = graph_with(&files, &mut ledger);
        let call = g.nodes.iter().position(|n| n.id == "a::call").unwrap();
        assert!(g.panic[call].is_none(), "barrier must stop taint");
        assert!(ledger
            .iter()
            .any(|(f, a)| f == "crates/b/src/lib.rs" && a.line == 2 && a.used()));
    }

    #[test]
    fn std_collisions_do_not_overlink() {
        let g = graph_of(&[
            (
                "crates/a/src/lib.rs",
                "pub fn f(v: Vec<u32>) -> usize { v.len() }",
            ),
            (
                "crates/b/src/lib.rs",
                "pub struct T; impl T { pub fn len(&self) -> usize { panic!(\"x\") } }",
            ),
        ]);
        let f = g.nodes.iter().position(|n| n.id == "a::f").unwrap();
        assert!(g.panic[f].is_none(), "v.len() must not link to T::len");
    }

    #[test]
    fn json_is_deterministic() {
        let files = [
            ("crates/a/src/lib.rs", "pub fn f() { g(); } fn g() { panic!(\"x\") }"),
        ];
        let a = graph_of(&files).render_json();
        let b = graph_of(&files).render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema_version\""), "{a}");
    }
}
