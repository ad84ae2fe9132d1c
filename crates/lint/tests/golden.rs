//! Golden outputs of the fixture suite: the text report and the three
//! graph artifacts that `cmr-lint crates/lint/fixtures --graph
//! DIR/CALLGRAPH.json` produces when run from the repo root, byte for byte.
//! A refactor of the lint must leave them unchanged; a deliberate change
//! regenerates them with that command (text report from stdout) and says
//! why in CHANGES.md.

use cmr_lint::report::{render_summary, render_text};
use cmr_lint::rules::{analyze, SourceFile};
use std::path::Path;

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn fixture_suite_matches_its_goldens() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root.join("fixtures"))
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    let files: Vec<SourceFile> = names
        .iter()
        .map(|n| SourceFile {
            path: format!("crates/lint/fixtures/{n}"),
            src: read(&root.join("fixtures").join(n)),
        })
        .collect();
    let a = analyze(&files);
    let outputs = [
        ("fixtures.txt", render_text(&a.findings, files.len()) + &render_summary(&a)),
        ("CALLGRAPH.json", a.graph.render_json()),
        ("LOCKGRAPH.json", a.locks.render_json()),
        ("TAINTGRAPH.json", a.taint.render_json()),
    ];
    for (name, got) in outputs {
        let want = read(&root.join("tests/golden").join(name));
        let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        assert!(
            got == want,
            "{name} differs from tests/golden/{name} (first differing line: {:?})",
            first_diff.map(|i| i + 1)
        );
    }
}
