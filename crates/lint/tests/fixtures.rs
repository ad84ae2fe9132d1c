//! Rule-engine tests over the fixture snippets in `fixtures/` — the edge
//! cases that break naive grep-based linting.

use cmr_lint::rules::{run, Finding, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lints one fixture as if it were library code at the given path.
fn lint_as(path: &str, name: &str) -> Vec<Finding> {
    run(&[SourceFile { path: path.to_string(), src: fixture(name) }])
}

fn lib(name: &str) -> Vec<Finding> {
    lint_as("crates/foo/src/lib.rs", name)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn raw_strings_hide_banned_calls() {
    let findings = lib("raw_string.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn nested_comments_and_doc_examples_are_exempt() {
    let findings = lib("nested_comments.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn char_literal_does_not_desync_the_lexer() {
    let findings = lib("char_literal.rs");
    // The `'"'` char must not swallow the rest of the file: the one real
    // unwrap() below it must still be found — and nothing else.
    assert_eq!(rules_of(&findings), vec!["no-panic-lib"], "{findings:?}");
    assert!(findings[0].message.contains("unwrap"));
}

#[test]
fn allow_without_reason_is_itself_a_finding() {
    let findings = lib("allow_missing_reason.rs");
    let rules = rules_of(&findings);
    // missing-reason: reported AND the unwrap is not suppressed
    assert!(rules.contains(&"allow-missing-reason"), "{findings:?}");
    // unknown rule: reported AND the unwrap is not suppressed
    assert!(rules.contains(&"allow-unknown-rule"), "{findings:?}");
    assert_eq!(
        rules.iter().filter(|r| **r == "no-panic-lib").count(),
        2,
        "both bad allows must fail open: {findings:?}"
    );
    // the valid allow suppresses its line: 2 unsuppressed unwraps + 2 metas
    assert_eq!(findings.len(), 4, "{findings:?}");
}

#[test]
fn one_violation_per_rule_in_order() {
    let findings = lib("violations.rs");
    assert_eq!(
        rules_of(&findings),
        vec![
            "no-panic-lib",
            "no-panic-lib",
            "env-centralization",
            "no-println-lib",
            "float-eq",
            "lossy-cast",
            "unused-result",
            "panic-path",
        ],
        "{findings:?}"
    );
    // The panic-path finding anchors at the pub declaration and carries the
    // witness chain down to the private indexing helper.
    let pp = findings.iter().find(|f| f.rule == "panic-path").unwrap();
    assert!(pp.message.contains("v8 → foo::pick → slice index"), "{}", pp.message);
    // Renders in the canonical file:line:col [rule] message form.
    let line = findings[0].render();
    assert!(
        line.starts_with("crates/foo/src/lib.rs:") && line.contains("[no-panic-lib]"),
        "{line}"
    );
}

#[test]
fn test_files_are_fully_exempt() {
    for path in ["crates/foo/tests/integration.rs", "tests/end_to_end.rs"] {
        let findings = lint_as(path, "violations.rs");
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn binaries_may_panic_and_print_but_floats_and_env_still_checked() {
    for path in ["crates/foo/src/bin/tool.rs", "crates/foo/src/main.rs"] {
        let rules = rules_of(&lint_as(path, "violations.rs"));
        assert!(!rules.contains(&"no-panic-lib"), "{path}: {rules:?}");
        assert!(!rules.contains(&"no-println-lib"), "{path}: {rules:?}");
        assert!(rules.contains(&"env-centralization"), "{path}: {rules:?}");
        assert!(rules.contains(&"float-eq"), "{path}: {rules:?}");
    }
}

#[test]
fn examples_are_demo_code() {
    let rules = rules_of(&lint_as("examples/demo.rs", "violations.rs"));
    assert!(!rules.contains(&"no-panic-lib"), "{rules:?}");
    assert!(!rules.contains(&"no-println-lib"), "{rules:?}");
    assert!(!rules.contains(&"float-eq"), "{rules:?}");
}

#[test]
fn bench_crate_may_print_but_not_panic() {
    let findings = lint_as("crates/bench/src/lib.rs", "violations.rs");
    let rules = rules_of(&findings);
    assert!(!rules.contains(&"no-println-lib"), "{findings:?}");
    assert!(!rules.contains(&"env-centralization"), "{findings:?}");
    assert!(rules.contains(&"no-panic-lib"), "{findings:?}");
}

#[test]
fn threading_module_may_read_env() {
    let findings = lint_as("crates/tensor/src/threading.rs", "violations.rs");
    assert!(!rules_of(&findings).contains(&"env-centralization"), "{findings:?}");
}

/// The obs crate root owns the `CMR_OBS` knob, so its `env::var` read is
/// registered with the rule; everywhere else in the crate still counts.
#[test]
fn obs_knob_module_may_read_env() {
    let findings = lint_as("crates/obs/src/lib.rs", "violations.rs");
    assert!(!rules_of(&findings).contains(&"env-centralization"), "{findings:?}");
    let elsewhere = lint_as("crates/obs/src/registry.rs", "violations.rs");
    assert!(rules_of(&elsewhere).contains(&"env-centralization"), "{elsewhere:?}");
}

/// The serve config module owns the `CMR_SERVE_BATCH` / `CMR_SERVE_WAIT_US`
/// knobs, so its `env::var` read is registered with the rule; the rest of
/// the serve crate still counts.
#[test]
fn serve_config_module_may_read_env() {
    let findings = lint_as("crates/serve/src/config.rs", "violations.rs");
    assert!(!rules_of(&findings).contains(&"env-centralization"), "{findings:?}");
    let elsewhere = lint_as("crates/serve/src/server.rs", "violations.rs");
    assert!(rules_of(&elsewhere).contains(&"env-centralization"), "{elsewhere:?}");
}

/// The four scatter-gather knobs (`CMR_SERVE_SHARDS`,
/// `CMR_SERVE_DEADLINE_US`, `CMR_SERVE_RETRIES`, `CMR_SERVE_HEDGE_US`)
/// are registered at the same sanctioned site as the batching knobs: the
/// serve config module. Reading them from the router (or anywhere else in
/// the serve crate) is a finding per knob.
#[test]
fn scatter_gather_knobs_are_centralized_in_serve_config() {
    let findings = lint_as("crates/serve/src/config.rs", "serve_knobs.rs");
    assert!(findings.is_empty(), "{findings:?}");
    let elsewhere = lint_as("crates/serve/src/router.rs", "serve_knobs.rs");
    assert_eq!(
        rules_of(&elsewhere),
        vec!["env-centralization"; 4],
        "one finding per knob read outside config.rs: {elsewhere:?}"
    );
}

#[test]
fn json_report_is_diffable() {
    let findings = lib("violations.rs");
    let json = cmr_lint::report::render_json(&findings, 1, 7);
    assert!(json.contains("\"schema_version\": 3"), "{json}");
    assert!(json.contains("\"files_scanned\": 1"), "{json}");
    assert!(json.contains("\"elapsed_ms\": 7"), "{json}");
    assert!(json.contains("\"total_findings\": 8"), "{json}");
    // v2 lists the concurrency rules even at zero so diffs stay stable.
    assert!(json.contains("\"lock-order\": 0"), "{json}");
    assert!(json.contains("\"blocking-under-lock\": 0"), "{json}");
    assert!(json.contains("\"condvar-discipline\": 0"), "{json}");
    // v3 lists the taint rules even at zero.
    assert!(json.contains("\"untrusted-length\": 0"), "{json}");
    assert!(json.contains("\"untrusted-index\": 0"), "{json}");
    assert!(json.contains("\"no-panic-lib\": 2"), "{json}");
    assert!(json.contains("\"float-eq\": 1"), "{json}");
    assert!(json.contains("\"panic-path\": 1"), "{json}");
    assert!(json.contains("\"lossy-cast\": 1"), "{json}");
    assert!(json.contains("\"unused-result\": 1"), "{json}");
    // zero-count rules stay listed so future diffs are stable
    assert!(json.contains("\"op-coverage\": 0"), "{json}");
}

#[test]
fn stale_allow_is_flagged_and_working_allow_is_not() {
    let findings = lib("stale_allow.rs");
    assert_eq!(rules_of(&findings), vec!["stale-allow"], "{findings:?}");
    assert!(findings[0].message.contains("no-println-lib"), "{findings:?}");
}

#[test]
fn float_eq_against_zero_is_allowed_by_construction() {
    let findings = lib("float_zero.rs");
    assert_eq!(rules_of(&findings), vec!["float-eq"], "{findings:?}");
    // Only the non-zero comparison (is_half) is flagged.
    assert_eq!(findings[0].line, 16, "{findings:?}");
}

#[test]
fn only_cfgs_that_need_test_exempt_their_items() {
    let src = r#"
#[cfg(feature = "latest")]
pub fn a(x: Option<u8>) -> u8 { x.unwrap() }
#[cfg(any(test, feature = "fast"))]
pub fn b(x: Option<u8>) -> u8 { x.unwrap() }
#[cfg(all(test, feature = "fast"))]
pub fn c(x: Option<u8>) -> u8 { x.unwrap() }
"#;
    let findings = run(&[SourceFile { path: "crates/foo/src/lib.rs".into(), src: src.into() }]);
    let unwraps: Vec<u32> =
        findings.iter().filter(|f| f.rule == "no-panic-lib").map(|f| f.line).collect();
    assert_eq!(unwraps, vec![3, 5], "{findings:?}");
}
