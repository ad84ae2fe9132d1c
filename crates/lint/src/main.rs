//! The `cmr-lint` binary: walks the workspace sources, applies the rule set,
//! prints findings as `file:line:col [rule] message`, and exits non-zero when
//! anything is found.
//!
//! ```text
//! cargo run -p cmr-lint --release -- --workspace
//! cargo run -p cmr-lint --release -- --workspace --json results/LINT_report.json
//! cargo run -p cmr-lint --release -- --workspace --graph results/CALLGRAPH.json
//! cargo run -p cmr-lint --release -- crates/tensor/src/op.rs
//! ```

use cmr_lint::report::{render_json, render_summary, render_text};
use cmr_lint::rules::{analyze, SourceFile, RULES};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Directory names never descended into: build output, the lint's own
/// intentionally-violating fixtures, vendored stand-in crates, VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "fixtures", "vendor", ".git"];

/// Roots walked by `--workspace`, relative to the repo root.
const WORKSPACE_ROOTS: &[&str] = &["crates", "src", "tests", "examples"];

fn usage() -> String {
    let mut s = String::from(
        "usage: cmr-lint [--workspace] [--root DIR] [--json PATH] [--graph PATH]\n\
        \x20                [--explain RULE] [PATH...]\n\n\
         Walks the given files/directories (or, with --workspace, the repo's\n\
         crates/, src/, tests/ and examples/ trees) and reports rule\n\
         violations as `file:line:col [rule] message`. `--graph` writes the\n\
         deterministic call-graph artifact (CALLGRAPH.json) with per-crate\n\
         panic-surface metrics, plus the lock-order artifact (LOCKGRAPH.json)\n\
         and the taint artifact (TAINTGRAPH.json) in the same directory.\n\
         `--explain RULE` prints the rule's documentation — for the taint\n\
         rules, the source/sink/sanitizer definitions and an example witness\n\
         chain — and exits. Exits 1 when findings exist, 2 on usage or IO\n\
         errors.\n\nrules:\n",
    );
    for (id, desc) in RULES {
        s.push_str(&format!("  {id:<22} {desc}\n"));
    }
    s
}

/// Long-form documentation for `--explain`. The taint rules get the full
/// source/sink/sanitizer model; every other rule falls back to its one-line
/// description from [`RULES`].
fn explain(rule: &str) -> Result<String, String> {
    let taint_model = "\
sources (what makes a value untrusted):\n\
  - `&[u8]` parameters of non-test fns — the byte-slice boundary every\n\
    loader/parser crosses; whatever crosses it is attacker-shaped\n\
  - `std::fs::read` / `fs::read_to_string` results (disk bytes)\n\
  - `std::env::var` / `var_os` strings (environment)\n\
  - buffer-filling reads: `.read(&mut buf)` / `.read_exact` /\n\
    `.read_to_end` / `.read_line` taint the destination buffer\n\
    (the returned byte count is trusted — it fits the buffer)\n\
\n\
propagation: `let` bindings, mutated receivers\n\
  (`head.extend_from_slice(&tmp[..n])` taints `head`), arguments to\n\
  resolved workspace callees, tainted `self`, and return values (judged\n\
  from return spans, so internally-clamping fns stay clean).\n\
\n\
sanitizers (what cleans a flow):\n\
  - a dominating comparison mentioning the sink operand:\n\
      if count > buf.remaining() { return Err(…) }\n\
      let buf = Vec::with_capacity(count);              // sanitized\n\
  - `.min(cap)` / `.clamp(lo, hi)` rebinds; `& mask` / `%` bounding\n\
  - `// cmr-lint: trust(reason)` on or above the sink line — the escape\n\
    hatch is stale-allow accounted, so an unused trust is itself a finding\n\
  - NOT sanitizers: `checked_mul`/`saturating_*` (they prevent overflow,\n\
    not magnitude)\n";
    // Verbatim witnesses of the `taint_flow.rs` fixture flows, as
    // `cmr-lint crates/lint/fixtures` reports them.
    let chain = |witness: &str| format!("\nexample witness chain:\n  {witness}\n");
    match rule {
        "untrusted-length" => Ok(format!(
            "untrusted-length: a network/disk-derived value reaches an\n\
             allocation/length sink unsanitized.\n\n\
             sinks: `Vec::with_capacity` / `reserve` / `reserve_exact` /\n\
             `set_len` arguments and `vec![elem; len]` lengths. A hostile\n\
             length field that reaches one of these before validation is an\n\
             OOM abort waiting to happen.\n\n{taint_model}{}",
            chain(
                "untrusted bytes `raw: &[u8]` (crates/lint/fixtures/taint_flow.rs:55) \
                 → lint::deep_flow → lint::inner_alloc \
                 → Vec::with_capacity(count) (crates/lint/fixtures/taint_flow.rs:61)"
            )
        )),
        "untrusted-index" => Ok(format!(
            "untrusted-index: a network/disk-derived value reaches an\n\
             index/range sink unsanitized.\n\n\
             sinks: slice index/range operands (`buf[n]`, `&buf[..n]`,\n\
             `buf[a..b]`) and `split_at` / `split_at_mut` arguments. An\n\
             unvalidated offset panics (or worse) on hostile input.\n\n{taint_model}{}",
            chain(
                "untrusted bytes `data: &[u8]` (crates/lint/fixtures/taint_flow.rs:18) \
                 → lint::index_flow → slice index [i] (crates/lint/fixtures/taint_flow.rs:20)"
            )
        )),
        _ => RULES
            .iter()
            .find(|&&(id, _)| id == rule)
            .map(|&(id, desc)| format!("{id}: {desc}\n"))
            .ok_or_else(|| format!("unknown rule {rule:?}\n\n{}", usage())),
    }
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Repo-relative unix-style path for rule matching and reporting.
fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut out = String::new();
    for c in rel.components() {
        match c {
            std::path::Component::RootDir => out.push('/'),
            other => {
                if !out.is_empty() && !out.ends_with('/') {
                    out.push('/');
                }
                out.push_str(&other.as_os_str().to_string_lossy());
            }
        }
    }
    out
}

struct Args {
    workspace: bool,
    root: PathBuf,
    json: Option<PathBuf>,
    graph: Option<PathBuf>,
    explain: Option<String>,
    paths: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: PathBuf::from("."),
        json: None,
        graph: None,
        explain: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{arg} takes {what}"));
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => args.root = PathBuf::from(value("a directory")?),
            "--json" => args.json = Some(PathBuf::from(value("a file path")?)),
            "--graph" => args.graph = Some(PathBuf::from(value("a file path")?)),
            "--explain" => args.explain = Some(value("a rule id")?),
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other:?}\n\n{}", usage()));
            }
            other => args.paths.push(PathBuf::from(other)),
        }
    }
    if args.explain.is_none() && !args.workspace && args.paths.is_empty() {
        return Err(format!("nothing to lint\n\n{}", usage()));
    }
    Ok(args)
}

fn run_cli() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if let Some(rule) = &args.explain {
        print!("{}", explain(rule)?);
        return Ok(ExitCode::SUCCESS);
    }
    let mut files: Vec<PathBuf> = Vec::new();
    if args.workspace {
        for root in WORKSPACE_ROOTS {
            let dir = args.root.join(root);
            if dir.is_dir() {
                walk(&dir, &mut files)?;
            }
        }
    }
    for p in &args.paths {
        if p.is_dir() {
            walk(p, &mut files)?;
        } else {
            files.push(p.clone());
        }
    }
    files.sort();
    files.dedup();

    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        sources.push(SourceFile { path: rel_path(&args.root, path), src });
    }

    let started = std::time::Instant::now();
    let analysis = analyze(&sources);
    let elapsed_ms = started.elapsed().as_millis() as u64;
    print!("{}", render_text(&analysis.findings, sources.len()));
    print!("{}", render_summary(&analysis));
    let write_artifact = |path: &PathBuf, content: String| -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
    };
    if let Some(json_path) = &args.json {
        write_artifact(json_path, render_json(&analysis.findings, sources.len(), elapsed_ms))?;
    }
    if let Some(graph_path) = &args.graph {
        write_artifact(graph_path, analysis.graph.render_json())?;
        let lock_path = graph_path.with_file_name("LOCKGRAPH.json");
        write_artifact(&lock_path, analysis.locks.render_json())?;
        let taint_path = graph_path.with_file_name("TAINTGRAPH.json");
        write_artifact(&taint_path, analysis.taint.render_json())?;
    }
    Ok(if analysis.findings.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn main() -> ExitCode {
    match run_cli() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
