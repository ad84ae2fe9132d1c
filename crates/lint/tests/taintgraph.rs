//! Contract tests for the taint pass and its `TAINTGRAPH.json` artifact:
//! both rules fire with full witness chains, every disposition (sanitized /
//! trusted / unsanitized) is classified, trust directives are load-bearing
//! accounted, and two independent analyses render byte-identical JSON
//! because verify.sh archives the artifact and PRs diff it.

use cmr_lint::rules::{analyze, SourceFile};

fn fixture(name: &str) -> String {
    let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn sources() -> Vec<SourceFile> {
    // The taint scenarios plus a taint-free file, so the per-crate rollup
    // has a crate to skip.
    [
        ("crates/c/src/lib.rs", "taint_flow.rs"),
        ("crates/p/src/lib.rs", "chain_a.rs"),
    ]
    .into_iter()
    .map(|(path, name)| SourceFile { path: path.to_string(), src: fixture(name) })
    .collect()
}

#[test]
fn taintgraph_json_is_byte_identical_across_runs() {
    let a = analyze(&sources()).taint.render_json();
    let b = analyze(&sources()).taint.render_json();
    assert_eq!(a, b, "TAINTGRAPH.json must be deterministic");
    assert!(a.contains("\"schema_version\": 1"), "{a}");
}

#[test]
fn both_rules_fire_with_witness_chains() {
    let a = analyze(&sources());
    let msgs: Vec<&str> = a
        .findings
        .iter()
        .filter(|f| f.rule.starts_with("untrusted-"))
        .map(|f| f.message.as_str())
        .collect();
    // alloc_flow: with_capacity + vec! macro; index_flow; deep_flow's callee.
    assert_eq!(msgs.len(), 4, "{msgs:#?}");
    assert!(
        msgs.iter().any(|m| m.contains("untrusted bytes `data: &[u8]`")
            && m.contains("c::alloc_flow → Vec::with_capacity(n)")),
        "{msgs:#?}"
    );
    assert!(msgs.iter().any(|m| m.contains("c::alloc_flow → vec![…; n]")), "{msgs:#?}");
    assert!(
        msgs.iter().any(|m| m.contains("indexes a slice")
            && m.contains("c::index_flow → slice index [i]")),
        "{msgs:#?}"
    );
    // The multi-hop witness names both functions on the path.
    assert!(
        msgs.iter().any(|m| m.contains("untrusted bytes `raw: &[u8]`")
            && m.contains("c::deep_flow → c::inner_alloc → Vec::with_capacity(count)")),
        "{msgs:#?}"
    );
}

#[test]
fn dispositions_are_classified_and_trusts_are_load_bearing() {
    let a = analyze(&sources());
    let t = &a.taint;
    assert_eq!(t.unsanitized(), 4, "unexpected flows: {:#?}", flows_of(t));
    let status_of = |needle: &str| -> Vec<&str> {
        t.flows.iter().filter(|f| f.sink.contains(needle)).map(|f| f.status).collect()
    };
    // checked_flow's two sinks sit below the dominating comparison.
    assert!(
        t.flows
            .iter()
            .filter(|f| f.witness.contains("c::checked_flow"))
            .all(|f| f.status == "sanitized"),
        "{:#?}",
        flows_of(t)
    );
    assert_eq!(status_of("slice index [seed]"), ["sanitized"], "{:#?}", flows_of(t));
    assert_eq!(status_of("slice index [lane]"), ["trusted"], "{:#?}", flows_of(t));
    // The load-bearing trust is recorded against its file and line.
    assert!(
        a.ledger.iter().any(|(f, d)| f == "crates/c/src/lib.rs" && d.rule == "trust" && d.used()),
        "{:?}",
        a.ledger.iter().map(|(f, d)| (f, d.line, d.rule.as_str(), d.used())).collect::<Vec<_>>()
    );
    // Sanitizer inventory carries all three kinds the fixture exercises.
    for kind in ["bounds-check", "mask", "trust"] {
        assert!(t.sanitizers.iter().any(|s| s.kind == kind), "missing {kind}");
    }
}

#[test]
fn stale_trust_is_flagged() {
    let a = analyze(&sources());
    assert!(
        a.findings
            .iter()
            .any(|f| f.rule == "stale-allow" && f.file == "crates/c/src/lib.rs"),
        "stale trust directive must be reported: {:#?}",
        a.findings.iter().map(|f| (f.rule, f.line)).collect::<Vec<_>>()
    );
}

#[test]
fn artifact_carries_rollup_and_flow_edges() {
    let json = analyze(&sources()).taint.render_json();
    assert!(json.contains("\"unsanitized_flows\": 4"), "{json}");
    // Rollup lists only the crate with taint activity.
    assert!(json.contains("\"c\": {"), "{json}");
    assert!(!json.contains("\"p\": {"), "taint-free crate stays out: {json}");
    // Flow edges carry rule, status, site and the witness chain.
    assert!(
        json.contains("\"rule\": \"untrusted-index\", \"status\": \"trusted\""),
        "{json}"
    );
    assert!(json.contains("\"sink\": \"Vec::with_capacity(count)\""), "{json}");
}

/// `--explain` must cite real flows: each example chain it prints is one of
/// the witnesses the `taint_flow.rs` fixture produces, for the same rule,
/// at the path `cmr-lint crates/lint/fixtures` reports.
#[test]
fn explain_examples_are_real_fixture_witnesses() {
    let a = analyze(&[SourceFile {
        path: "crates/lint/fixtures/taint_flow.rs".to_string(),
        src: fixture("taint_flow.rs"),
    }]);
    for rule in ["untrusted-length", "untrusted-index"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cmr-lint"))
            .args(["--explain", rule])
            .output()
            .unwrap_or_else(|e| panic!("run cmr-lint --explain {rule}: {e}"));
        assert!(out.status.success(), "--explain {rule} failed");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines = text.lines().skip_while(|l| !l.starts_with("example witness chain"));
        assert!(lines.next().is_some(), "--explain {rule} prints no example chain:\n{text}");
        let chain = lines.next().map(str::trim).unwrap_or_default();
        assert!(
            a.taint.flows.iter().any(|f| f.rule == rule && f.witness == chain),
            "--explain {rule} cites {chain:?}, which is no {rule} witness of the fixture: {:#?}",
            flows_of(&a.taint)
        );
    }
}

fn flows_of(t: &cmr_lint::taint::TaintAnalysis) -> Vec<(String, String, &str)> {
    t.flows.iter().map(|f| (f.sink.clone(), f.witness.clone(), f.status)).collect()
}
