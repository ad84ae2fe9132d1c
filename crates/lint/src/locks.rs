//! R13–R15: interprocedural concurrency analysis over the workspace call
//! graph — the lock-order graph, blocking-under-lock, and Condvar
//! discipline.
//!
//! The pass recovers a *lock model* from the parser's concurrency facts:
//! every `Mutex`/`RwLock`/`Condvar` struct field and static is inventoried
//! as a named lock (`serve::Inner.queue`, `obs::REGISTRY`), guard-producing
//! sites (`.lock()`/`.read()`/`.write()` and calls to guard-returning
//! helpers) are matched to their `let` bindings, and each binding's live
//! range runs from the end of its initializer to its `drop(..)` or scope
//! end. Held-lock sets then propagate over the call graph exactly like
//! panic taint, through the graph's shared `Graph::reach`: one BFS per
//! lock answers "can calling this fn acquire L?", another answers "can
//! calling this fn block?", and both carry shortest witness chains.
//!
//! Three rules come out of the model:
//!
//! * `lock-order` — every acquisition inside a live guard span adds an
//!   `acquired-while-held` edge; a cycle in that graph is a potential
//!   deadlock, reported once per cycle with every interleaved chain.
//! * `blocking-under-lock` — TCP/file I/O, `thread::sleep`,
//!   `JoinHandle::join`, `mpsc` send/recv, `Condvar::wait` on a *different*
//!   lock, or a second workspace-lock acquisition while a guard is live.
//!   Reasoned `// cmr-lint: allow(blocking-under-lock) …` line allows,
//!   fn-decl barriers and `allow-file` are honored like `panic-path`, all
//!   through the shared [`Ledger`].
//! * `condvar-discipline` — `wait`/`wait_timeout` outside a
//!   predicate-rechecking loop is a lost-wakeup hazard; `notify_*` without
//!   the paired mutex held is flagged as advisory.
//!
//! The whole model renders to the deterministic `LOCKGRAPH.json` artifact
//! next to `CALLGRAPH.json`.

// cmr-lint: allow-file(panic-path) lock/edge/node indices are minted by this pass's own inventory and the graph arena; every dereference uses an index the builder issued

use crate::graph::{crate_of, local_type, BarrierFrom, FileUnit, Graph, Witness};
use crate::parser::FnDef;
use crate::report::{quoted, JsonOut};
use crate::rules::{Finding, Ledger};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Schema version stamped into `LOCKGRAPH.json`.
pub const LOCKGRAPH_SCHEMA_VERSION: u32 = 1;

/// One lock or condvar in the workspace inventory.
pub struct LockDef {
    /// Stable id: `crate::Type.field` for fields, `crate::NAME` for statics.
    pub id: String,
    /// `Mutex`, `RwLock` or `Condvar`.
    pub kind: String,
    /// Short crate name.
    pub krate: String,
    /// Repo-relative declaring file.
    pub file: String,
    /// Declaration line (struct name or static name).
    pub line: u32,
}

/// A directed lock-order edge: `to` is acquired while `from` is held.
pub struct LockEdge {
    /// Holding lock — index into [`LockAnalysis::locks`].
    pub from: usize,
    /// Acquired lock — index into [`LockAnalysis::locks`].
    pub to: usize,
    /// File of the anchoring acquisition or call site.
    pub file: String,
    /// Line of the anchor site.
    pub line: u32,
    /// Column of the anchor site.
    pub col: u32,
    /// Witness: the call chain from the anchor down to the acquisition.
    pub witness: String,
}

/// Everything the concurrency pass learned, plus its rule findings.
pub struct LockAnalysis {
    /// Mutex/RwLock inventory in declaration order.
    pub locks: Vec<LockDef>,
    /// Condvar inventory in declaration order.
    pub condvars: Vec<LockDef>,
    /// Deduped acquired-while-held edges (anchored at their first site).
    pub edges: Vec<LockEdge>,
    /// Lock-index cycles (strongly connected components, incl. self-loops).
    pub cycles: Vec<Vec<usize>>,
    /// Maximum number of workspace locks provably held at once.
    pub max_held_depth: usize,
    /// Unsuppressed findings from the three rules.
    pub findings: Vec<Finding>,
}

/// A resolved acquisition target.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Res {
    Lock(usize),
    Cv(usize),
}

/// A resolved acquisition event inside one fn body.
#[derive(Clone)]
struct Ev {
    pos: (u32, u32),
    lock: usize,
    desc: String,
}

/// A live guard span: `lock` is held from just after `start` through `end`.
struct Span {
    bind: String,
    lock: usize,
    start: (u32, u32),
    end: (u32, u32),
}

const BLOCKING: &str = "blocking-under-lock";

/// Runs the concurrency pass over the same `units` slice that built `g`;
/// the ledger answers the three rules' allows.
pub fn analyze(units: &[FileUnit<'_>], g: &Graph, ledger: &Ledger) -> LockAnalysis {
    let n = g.nodes.len();
    let defs: Vec<&FnDef> = (0..n).map(|i| g.def(units, i)).collect();
    let mut findings: Vec<Finding> = Vec::new();

    // ---- lock inventory: one map from (crate, owner, name) to its lock or
    // condvar; the owner is the struct for a field and "" for a static ----
    let mut locks: Vec<LockDef> = Vec::new();
    let mut condvars: Vec<LockDef> = Vec::new();
    let mut inventory: HashMap<(String, String, String), Res> = HashMap::new();
    let fields = &g.fields;
    let mut struct_home: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (kr, ty) in fields.keys() {
        struct_home.entry(ty).or_default().insert(kr);
    }
    // Condvar → first Mutex/RwLock field of the same struct.
    let mut cv_pair: HashMap<usize, usize> = HashMap::new();
    for u in units.iter().filter(|u| !u.kind.test) {
        let krate = crate_of(u.path);
        let mut register = |owner: &str, name: &str, kind: &str, id: String, line: u32| {
            let key = (krate.clone(), owner.to_string(), name.to_string());
            *inventory.entry(key).or_insert_with(|| {
                let (list, res): (&mut Vec<LockDef>, fn(usize) -> Res) = if kind == "Condvar" {
                    (&mut condvars, Res::Cv)
                } else {
                    (&mut locks, Res::Lock)
                };
                let file = u.path.to_string();
                list.push(LockDef { id, kind: kind.to_string(), krate: krate.clone(), file, line });
                res(list.len() - 1)
            })
        };
        for st in &u.parsed.structs {
            let mut pair = None;
            let mut cvs = Vec::new();
            for (fname, kind) in &st.lock_fields {
                let id = format!("{krate}::{}.{fname}", st.name);
                match register(&st.name, fname, kind, id, st.line) {
                    Res::Lock(l) => pair = pair.or(Some(l)),
                    Res::Cv(c) => cvs.push(c),
                }
            }
            for c in cvs {
                if let Some(l) = pair {
                    cv_pair.entry(c).or_insert(l);
                }
            }
        }
        for sd in &u.parsed.statics {
            register("", &sd.name, &sd.kind, format!("{krate}::{}", sd.name), sd.line);
        }
    }

    // ---- target resolution ----
    let resolve = |krate: &str, def: &FnDef, target: &str, line: u32| -> Option<Res> {
        if target.is_empty() {
            return None;
        }
        let parts: Vec<&str> = target.split('.').collect();
        if let [name] = parts[..] {
            let key = (krate.to_string(), String::new(), name.to_string());
            if let Some(&r) = inventory.get(&key) {
                return Some(r);
            }
            // Unique-across-workspace fallback for re-exported statics: a
            // unique lock first, else a unique condvar.
            let unique = |lock: bool| {
                let mut hits = inventory.iter().filter(|((_, owner, s), r)| {
                    owner.is_empty() && s == name && matches!(r, Res::Lock(_)) == lock
                });
                match (hits.next(), hits.next()) {
                    (Some((_, &r)), None) => Some(r),
                    _ => None,
                }
            };
            return unique(true).or_else(|| unique(false));
        }
        let mut ty = if parts[0] == "self" {
            def.self_ty.clone()?
        } else {
            local_type(def, parts[0], line)?
        };
        let mut kr = krate.to_string();
        for (w, part) in parts.iter().enumerate().skip(1) {
            // Locate the struct (same crate first, else its unique home).
            let home = if fields.contains_key(&(kr.clone(), ty.clone())) {
                kr.clone()
            } else {
                struct_home.get(ty.as_str())?.iter().next()?.to_string()
            };
            if w == parts.len() - 1 {
                return inventory.get(&(home, ty, (*part).to_string())).copied();
            }
            ty = fields.get(&(home.clone(), ty))?.get(*part)?.clone();
            kr = home;
        }
        None
    };

    // ---- per-node facts: direct acquires, condvar sites ----
    let mut direct: Vec<Vec<Ev>> = Vec::with_capacity(n);
    for (i, def) in defs.iter().enumerate() {
        let mut evs = Vec::new();
        if let Some(body) = &def.body {
            for a in &body.acquires {
                if let Some(Res::Lock(l)) = resolve(&g.nodes[i].krate, def, &a.target, a.line) {
                    evs.push(Ev {
                        pos: (a.line, a.col),
                        lock: l,
                        desc: format!(
                            "acquires {} via .{}() ({}:{})",
                            locks[l].id, a.method, g.nodes[i].file, a.line
                        ),
                    });
                }
            }
        }
        direct.push(evs);
    }

    // ---- guard-provider locks (fns returning MutexGuard & co.) ----
    let mut provided: Vec<Option<Option<usize>>> = vec![None; n];
    fn provider_of(
        i: usize,
        defs: &[&FnDef],
        g: &Graph,
        direct: &[Vec<Ev>],
        provided: &mut Vec<Option<Option<usize>>>,
        visiting: &mut HashSet<usize>,
    ) -> Option<usize> {
        if let Some(memo) = provided[i] {
            return memo;
        }
        if !defs[i].returns_guard || !visiting.insert(i) {
            return None;
        }
        let mut out = direct[i].first().map(|e| e.lock);
        if out.is_none() {
            'calls: for call in &g.nodes[i].resolved_calls {
                for &t in &call.targets {
                    if let Some(l) = provider_of(t, defs, g, direct, provided, visiting) {
                        out = Some(l);
                        break 'calls;
                    }
                }
            }
        }
        visiting.remove(&i);
        provided[i] = Some(out);
        out
    }
    for i in 0..n {
        let mut visiting = HashSet::new();
        provider_of(i, &defs, g, &direct, &mut provided, &mut visiting);
    }

    // ---- guard spans: events matched to their innermost `let` binding ----
    let mut spans: Vec<Vec<Span>> = Vec::with_capacity(n);
    for (i, def) in defs.iter().enumerate() {
        let mut out: Vec<Span> = Vec::new();
        if let Some(body) = &def.body {
            // Acquisition events: direct acquires plus guard-provider calls.
            let mut evs: Vec<Ev> = direct[i].clone();
            for call in &g.nodes[i].resolved_calls {
                let prov = call.targets.iter().find_map(|&t| provided[t].flatten());
                if let Some(l) = prov {
                    evs.push(Ev {
                        pos: (call.line, call.col),
                        lock: l,
                        desc: format!(
                            "acquires {} via {}() ({}:{})",
                            locks[l].id, call.name, g.nodes[i].file, call.line
                        ),
                    });
                }
            }
            evs.sort_by_key(|e| e.pos);
            for ev in &evs {
                // Innermost binding whose initializer contains the event.
                let bind = body
                    .binds
                    .iter()
                    .filter(|b| {
                        (b.line, b.col) <= ev.pos
                            && ev.pos <= (b.init_end_line, b.init_end_col)
                    })
                    .max_by_key(|b| (b.line, b.col));
                let Some(b) = bind else { continue }; // chain-only temporary
                if out.iter().any(|s| s.bind == b.name && s.start == (b.init_end_line, b.init_end_col)) {
                    continue; // keep the first event of a multi-acquire init
                }
                let drop_end = body
                    .drops
                    .iter()
                    .filter(|(dn, dl, dc)| {
                        dn == &b.name && (*dl, *dc) > (b.init_end_line, b.init_end_col)
                    })
                    .map(|(_, dl, dc)| (*dl, *dc))
                    .min();
                let scope_end = (b.end_line, b.end_col);
                out.push(Span {
                    bind: b.name.clone(),
                    lock: ev.lock,
                    start: (b.init_end_line, b.init_end_col),
                    end: drop_end.map_or(scope_end, |d| d.min(scope_end)),
                });
            }
        }
        spans.push(out);
    }

    // ---- blocking seeds (allow-defused) + fn barriers ----
    let mut barrier_b: Vec<Option<BarrierFrom>> = vec![None; n];
    let mut live_blocking: Vec<Vec<(u32, u32, String)>> = vec![Vec::new(); n];
    let mut raw_site_count: Vec<usize> = vec![0; n];
    for (i, def) in defs.iter().enumerate() {
        let file = &g.nodes[i].file;
        barrier_b[i] = ledger.fn_barrier(file, BLOCKING, def);
        let Some(body) = &def.body else { continue };
        let mut sites: Vec<(u32, u32, String)> = body
            .blocking
            .iter()
            .map(|b| (b.line, b.col, b.what.clone()))
            .collect();
        for cv in &body.condvars {
            if matches!(cv.method.as_str(), "wait" | "wait_timeout" | "wait_while") {
                sites.push((cv.line, cv.col, format!("Condvar::{}", cv.method)));
            }
        }
        sites.sort();
        raw_site_count[i] = sites.len();
        if barrier_b[i].is_none() {
            live_blocking[i] = sites
                .into_iter()
                .filter(|&(line, _, _)| ledger.covers(file, BLOCKING, line).is_none())
                .collect();
        }
    }

    // ---- per-lock acquire taint and blocking taint (shortest chains) ----
    let acq: Vec<Vec<Option<Witness>>> = (0..locks.len())
        .map(|l| {
            let seeds = (0..n).filter_map(|i| {
                direct[i].iter().find(|e| e.lock == l).map(|ev| (i, ev.desc.clone()))
            });
            g.reach(seeds, |i| g.nodes[i].is_test)
        })
        .collect();
    let blk_seeds = (0..n).filter_map(|i| {
        live_blocking[i]
            .first()
            .map(|(line, _col, what)| (i, format!("{} ({}:{})", what, g.nodes[i].file, line)))
    });
    let blk = g.reach(blk_seeds, |i| barrier_b[i].is_some() || g.nodes[i].is_test);

    // ---- edges + blocking findings over live spans ----
    let mut edge_map: BTreeMap<(usize, usize), LockEdge> = BTreeMap::new();
    let mut barrier_suppressed: Vec<bool> = vec![false; n];
    let in_span = |s: &Span, pos: (u32, u32)| s.start < pos && pos <= s.end;
    // The call target with the shortest witness chain (lowest index on ties).
    let nearest = |wit: &[Option<Witness>], targets: &[usize]| {
        let reached = targets.iter().filter_map(|&t| wit[t].as_ref().map(|w| (w.dist, t)));
        reached.min().map(|(_, t)| t)
    };
    for i in 0..n {
        if g.nodes[i].is_test {
            continue;
        }
        let file = g.nodes[i].file.clone();
        let def = defs[i];
        let mut add_edge = |from: usize, to: usize, line: u32, col: u32, witness: String| {
            let e = edge_map.entry((from, to)).or_insert_with(|| LockEdge {
                from,
                to,
                file: file.clone(),
                line,
                col,
                witness: witness.clone(),
            });
            if (file.as_str(), line, col) < (e.file.as_str(), e.line, e.col) {
                *e = LockEdge { from, to, file: file.clone(), line, col, witness };
            }
        };
        let mut block_findings: Vec<(u32, u32, String)> = Vec::new();
        for s in &spans[i] {
            // Second direct acquisition while this guard is live.
            for ev in &direct[i] {
                if !in_span(s, ev.pos) {
                    continue;
                }
                add_edge(s.lock, ev.lock, ev.pos.0, ev.pos.1, ev.desc.clone());
                block_findings.push((
                    ev.pos.0,
                    ev.pos.1,
                    format!(
                        "acquires {} while holding {} (guard `{}`); lock-order edge recorded",
                        locks[ev.lock].id, locks[s.lock].id, s.bind
                    ),
                ));
            }
            // Calls that transitively acquire or block.
            for call in &g.nodes[i].resolved_calls {
                let pos = (call.line, call.col);
                if !in_span(s, pos) {
                    continue;
                }
                let mut hit_lock = false;
                for (l, taint) in acq.iter().enumerate() {
                    if let Some(t) = nearest(taint, &call.targets) {
                        let w = g.chain(taint, t, false);
                        add_edge(s.lock, l, pos.0, pos.1, w.clone());
                        if !hit_lock {
                            hit_lock = true;
                            block_findings.push((
                                pos.0,
                                pos.1,
                                format!(
                                    "call can acquire {} while holding {} (guard `{}`): {}",
                                    locks[l].id, locks[s.lock].id, s.bind, w
                                ),
                            ));
                        }
                    }
                }
                if !hit_lock {
                    if let Some(t) = nearest(&blk, &call.targets) {
                        block_findings.push((
                            pos.0,
                            pos.1,
                            format!(
                                "call can block while holding {} (guard `{}`): {}",
                                locks[s.lock].id, s.bind, g.chain(&blk, t, false)
                            ),
                        ));
                    }
                }
            }
            // Local blocking sites under the guard. `Condvar::wait(guard)`
            // on the span's own guard atomically releases it — exempt.
            for (line, col, what) in &live_blocking[i] {
                if !in_span(s, (*line, *col)) {
                    continue;
                }
                if what.starts_with("Condvar::wait") {
                    let own = def.body.as_ref().is_some_and(|b| {
                        b.condvars.iter().any(|cv| {
                            cv.line == *line
                                && cv.col == *col
                                && cv.guard_arg.as_deref() == Some(s.bind.as_str())
                        })
                    });
                    if own {
                        continue;
                    }
                    block_findings.push((
                        *line,
                        *col,
                        format!(
                            "{what} releases only its own mutex; {} (guard `{}`) stays held through the park",
                            locks[s.lock].id, s.bind
                        ),
                    ));
                } else {
                    block_findings.push((
                        *line,
                        *col,
                        format!(
                            "blocking call {what} while holding {} (guard `{}`)",
                            locks[s.lock].id, s.bind
                        ),
                    ));
                }
            }
        }
        block_findings.sort();
        block_findings.dedup();
        if barrier_b[i].is_some() {
            barrier_suppressed[i] = !block_findings.is_empty();
            continue;
        }
        for (line, col, msg) in block_findings {
            findings.push(Finding::new(&file, line, col, BLOCKING, msg));
        }
    }

    // ---- blocking barrier usage (load-bearing only) ----
    for i in 0..n {
        let Some(b) = barrier_b[i] else { continue };
        let stops_callee = g.nodes[i].callees.iter().any(|&c| blk[c].is_some());
        if raw_site_count[i] > 0 || stops_callee || barrier_suppressed[i] {
            ledger.mark_barrier(&g.nodes[i].file, BLOCKING, b);
        }
    }

    // ---- condvar-discipline ----
    for (i, def) in defs.iter().enumerate() {
        if g.nodes[i].is_test {
            continue;
        }
        let Some(body) = &def.body else { continue };
        for cv in &body.condvars {
            let Some(Res::Cv(c)) = resolve(&g.nodes[i].krate, def, &cv.target, cv.line) else {
                continue;
            };
            match cv.method.as_str() {
                "wait" | "wait_timeout" if !cv.in_loop => {
                    findings.push(Finding::new(
                        &g.nodes[i].file,
                        cv.line,
                        cv.col,
                        "condvar-discipline",
                        format!(
                            "Condvar::{} on {} outside a predicate-rechecking loop; a spurious or lost wakeup proceeds on a stale predicate — use `while !pred {{ guard = cv.{}(guard)… }}`",
                            cv.method, condvars[c].id, cv.method
                        ),
                    ));
                }
                "notify_one" | "notify_all" => {
                    let Some(&pair) = cv_pair.get(&c) else { continue };
                    let held = spans[i]
                        .iter()
                        .any(|s| s.lock == pair && in_span(s, (cv.line, cv.col)));
                    if !held {
                        findings.push(Finding::new(
                            &g.nodes[i].file,
                            cv.line,
                            cv.col,
                            "condvar-discipline",
                            format!(
                                "advisory: {} on {} without holding its paired mutex {}; ensure waiters re-check the predicate under the lock",
                                cv.method, condvars[c].id, locks[pair].id
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }

    // ---- lock-order cycles (SCCs over the edge relation) ----
    let edges: Vec<LockEdge> = edge_map.into_values().collect();
    let cycles = find_cycles(locks.len(), &edges);
    for cyc in &cycles {
        let member: BTreeSet<usize> = cyc.iter().copied().collect();
        let mut cyc_edges: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| member.contains(&e.from) && member.contains(&e.to))
            .collect();
        cyc_edges.sort_by(|a, b| (a.from, a.to).cmp(&(b.from, b.to)));
        let Some(anchor) = cyc_edges
            .iter()
            .min_by_key(|e| (e.file.as_str(), e.line, e.col))
        else {
            continue;
        };
        let ring: Vec<&str> = cyc.iter().map(|&l| locks[l].id.as_str()).collect();
        let witnesses: Vec<String> = cyc_edges
            .iter()
            .map(|e| format!("[{} → {}] {}", locks[e.from].id, locks[e.to].id, e.witness))
            .collect();
        findings.push(Finding::new(
            &anchor.file,
            anchor.line,
            anchor.col,
            "lock-order",
            format!(
                "potential deadlock: lock-order cycle {} → {}; {}",
                ring.join(" → "),
                ring[0],
                witnesses.join("; ")
            ),
        ));
    }
    findings.retain(|f| !ledger.suppress(f));

    // ---- max held-set depth ----
    let mut memo: Vec<Option<usize>> = vec![None; n];
    fn depth_of(
        i: usize,
        g: &Graph,
        spans: &[Vec<Span>],
        memo: &mut Vec<Option<usize>>,
        visiting: &mut HashSet<usize>,
    ) -> usize {
        if let Some(d) = memo[i] {
            return d;
        }
        if !visiting.insert(i) {
            return 0;
        }
        let live_at = |pos: (u32, u32)| -> usize {
            spans[i].iter().filter(|s| s.start < pos && pos <= s.end).count()
        };
        let mut best = 0usize;
        for s in &spans[i] {
            best = best.max(live_at((s.start.0, s.start.1 + 1)));
        }
        for call in &g.nodes[i].resolved_calls {
            let held = live_at((call.line, call.col));
            let sub = call
                .targets
                .iter()
                .map(|&t| depth_of(t, g, spans, memo, visiting))
                .max()
                .unwrap_or(0);
            best = best.max(held + sub);
        }
        visiting.remove(&i);
        memo[i] = Some(best);
        best
    }
    let mut max_held_depth = 0usize;
    for i in 0..n {
        if g.nodes[i].is_test {
            continue;
        }
        let mut visiting = HashSet::new();
        max_held_depth = max_held_depth.max(depth_of(i, g, &spans, &mut memo, &mut visiting));
    }

    LockAnalysis {
        locks,
        condvars,
        edges,
        cycles,
        max_held_depth,
        findings,
    }
}

/// Strongly connected components of the lock-order relation that contain a
/// cycle (size > 1 or a self-loop), in deterministic order.
fn find_cycles(n_locks: usize, edges: &[LockEdge]) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_locks];
    for e in edges {
        adj[e.from].push(e.to);
    }
    for a in &mut adj {
        a.sort_unstable();
        a.dedup();
    }
    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n_locks];
    let mut low = vec![0usize; n_locks];
    let mut on_stack = vec![false; n_locks];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    for root in 0..n_locks {
        if index[root] != usize::MAX {
            continue;
        }
        // (node, next-child-cursor)
        let mut work: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if *cursor == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if index[w] == usize::MAX {
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&mut (p, _)) = work.last_mut() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    let cyclic = comp.len() > 1
                        || adj[comp[0]].contains(&comp[0]);
                    if cyclic {
                        out.push(comp);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

impl LockAnalysis {
    /// Renders the deterministic `LOCKGRAPH.json` artifact.
    pub fn render_json(&self) -> String {
        let mut w = JsonOut::new();
        w.field("schema_version", LOCKGRAPH_SCHEMA_VERSION);
        w.field("locks", self.locks.len());
        w.field("condvars", self.condvars.len());
        w.field("edges", self.edges.len());
        w.field("cycles", self.cycles.len());
        w.field("max_held_depth", self.max_held_depth);
        let mut per_crate: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for l in &self.locks {
            per_crate.entry(&l.krate).or_default().0 += 1;
        }
        for c in &self.condvars {
            per_crate.entry(&c.krate).or_default().1 += 1;
        }
        w.block("crates", '{');
        for (kr, (nl, ncv)) in &per_crate {
            w.field(kr, format_args!("{{\"locks\": {nl}, \"condvars\": {ncv}}}"));
        }
        w.end();
        w.block("inventory", '[');
        let mut inv: Vec<&LockDef> = self.locks.iter().chain(&self.condvars).collect();
        inv.sort_by(|a, b| a.id.cmp(&b.id));
        for l in inv {
            w.item(format_args!(
                "{{\"id\": {}, \"kind\": {}, \"file\": {}, \"line\": {}}}",
                quoted(&l.id),
                quoted(&l.kind),
                quoted(&l.file),
                l.line,
            ));
        }
        w.end();
        w.block("order_edges", '[');
        let mut es: Vec<&LockEdge> = self.edges.iter().collect();
        es.sort_by(|a, b| {
            (&self.locks[a.from].id, &self.locks[a.to].id)
                .cmp(&(&self.locks[b.from].id, &self.locks[b.to].id))
        });
        for e in es {
            w.item(format_args!(
                "{{\"from\": {}, \"to\": {}, \"site\": {}, \"witness\": {}}}",
                quoted(&self.locks[e.from].id),
                quoted(&self.locks[e.to].id),
                quoted(&format!("{}:{}:{}", e.file, e.line, e.col)),
                quoted(&e.witness),
            ));
        }
        w.finish()
    }
}
