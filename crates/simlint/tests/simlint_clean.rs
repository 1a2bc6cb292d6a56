//! Self-lint: the analyzer's own crate must scan clean under the full
//! rule set, including the interprocedural P family. The fixture
//! literals embedded in tests must not self-flag: rule tokens inside
//! string literals are data to the parser, not code. Paths are
//! re-prefixed with the crate's workspace location so rule scoping sees
//! the files exactly as the workspace scan does (Support scope: S1 only).

use std::path::Path;

use simlint::analyze_files;

#[test]
fn simlint_scans_its_own_source_cleanly() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files: Vec<(String, String)> = simlint::read_tree(root)
        .expect("crate scans")
        .into_iter()
        .map(|(path, src)| (format!("crates/simlint/{path}"), src))
        .collect();
    assert!(files.len() >= 3, "lib, main, tests scanned");
    let analysis = analyze_files(&files);
    assert!(
        analysis.parse_failures.is_empty(),
        "{:?}",
        analysis.parse_failures
    );
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
}
