//! Rendering findings as text and as a machine-readable JSON report.
//!
//! The JSON report (`--json PATH`, normally `results/LINT_report.json`)
//! carries per-rule counts so successive PRs can diff finding totals.

use crate::rules::{Analysis, Finding, RULES};
use cmr_obs::json_escape;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// Schema version stamped into `LINT_report.json` so downstream diffing
/// tools can detect format changes. v2 added the concurrency rule ids
/// (`lock-order`, `blocking-under-lock`, `condvar-discipline`) to `counts`;
/// v3 added the taint rule ids (`untrusted-length`, `untrusted-index`) and
/// the `elapsed_ms` wall-clock budget field.
pub const LINT_SCHEMA_VERSION: u32 = 3;

/// Canonical text output: one `file:line:col [rule] message` line per
/// finding, plus a summary line.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.render());
        out.push('\n');
    }
    out.push_str(&format!(
        "cmr-lint: {} finding{} in {} file{} scanned\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        files_scanned,
        if files_scanned == 1 { "" } else { "s" },
    ));
    out
}

/// `s` as a JSON string literal.
pub(crate) fn quoted(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// The layout all four lint artifacts share: nested blocks hold one entry
/// per line, indented two spaces per level, and each entry is preformatted
/// inline JSON. The writer places the commas and the closers.
pub(crate) struct JsonOut {
    out: String,
    /// Per open block: its closer, and whether it holds an entry yet.
    open: Vec<(char, bool)>,
}

impl JsonOut {
    /// Starts the top-level object.
    pub(crate) fn new() -> Self {
        JsonOut {
            out: String::from("{"),
            open: vec![('}', false)],
        }
    }

    fn entry(&mut self) {
        if let Some((_, filled)) = self.open.last_mut() {
            if *filled {
                self.out.push(',');
            }
            *filled = true;
        }
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.open.len()));
    }

    /// An object entry `"key": value`.
    pub(crate) fn field(&mut self, key: &str, value: impl Display) {
        self.entry();
        let _ = write!(self.out, "{}: {value}", quoted(key));
    }

    /// An array element.
    pub(crate) fn item(&mut self, value: impl Display) {
        self.entry();
        let _ = write!(self.out, "{value}");
    }

    /// Opens a nested block under `key`: `{` for an object, `[` for an array.
    pub(crate) fn block(&mut self, key: &str, opener: char) {
        self.entry();
        let _ = write!(self.out, "{}: {opener}", quoted(key));
        self.open
            .push((if opener == '[' { ']' } else { '}' }, false));
    }

    /// Closes the innermost open block.
    pub(crate) fn end(&mut self) {
        if let Some((closer, _)) = self.open.pop() {
            self.out.push('\n');
            self.out.push_str(&"  ".repeat(self.open.len()));
            self.out.push(closer);
        }
    }

    /// Closes every open block and returns the document.
    pub(crate) fn finish(mut self) -> String {
        while !self.open.is_empty() {
            self.end();
        }
        self.out.push('\n');
        self.out
    }
}

/// One-line machine-greppable summary of a full analysis: file/finding
/// counts, allow inventory, the workspace panic surface (pub lib fns that
/// can transitively reach an undefused panic), and the lock-order graph
/// health (edge and cycle counts).
pub fn render_summary(analysis: &Analysis) -> String {
    format!(
        "cmr-lint summary: files={} findings={} allows={} (used {}) panic-surface={} lock-edges={} lock-cycles={} taint-flows={} (unsanitized {})\n",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.allows_total,
        analysis.allows_used,
        analysis.graph.panic_surface(),
        analysis.locks.edges.len(),
        analysis.locks.cycles.len(),
        analysis.taint.flows.len(),
        analysis.taint.unsanitized(),
    )
}

/// Renders the JSON report: scanned-file count, elapsed wall-clock of the
/// full pass (the verify.sh lint-budget gate reads it), per-rule finding
/// counts (every rule listed, zero or not, so diffs are stable), and the
/// findings.
pub fn render_json(findings: &[Finding], files_scanned: usize, elapsed_ms: u64) -> String {
    let mut counts: BTreeMap<&str, usize> = RULES.iter().map(|&(r, _)| (r, 0)).collect();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let mut w = JsonOut::new();
    w.field("schema_version", LINT_SCHEMA_VERSION);
    w.field("files_scanned", files_scanned);
    w.field("elapsed_ms", elapsed_ms);
    w.field("total_findings", findings.len());
    w.block("counts", '{');
    for (rule, count) in &counts {
        w.field(rule, count);
    }
    w.end();
    w.block("findings", '[');
    for f in findings {
        w.item(format_args!(
            "{{\"file\": {}, \"line\": {}, \"col\": {}, \"rule\": {}, \"message\": {}}}",
            quoted(&f.file),
            f.line,
            f.col,
            quoted(f.rule),
            quoted(&f.message),
        ));
    }
    w.finish()
}
