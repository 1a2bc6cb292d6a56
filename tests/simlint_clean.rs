//! Tier-1 gate: the workspace must stay clean under both of its static
//! analysis passes, enforced by `cargo test` so a violating change cannot
//! land even when the CI lint jobs are skipped.
//!
//! - simlint: the semantic rules (D5, U1–U3, O1, P1–P5, S1) and the cost
//!   rules (A1–A4), with every file parseable by simlint's parser.
//!   Equivalent to `cargo run -p simlint -- --baseline simlint.baseline`
//!   exiting 0. Findings listed in `simlint.baseline` are tolerated; the
//!   baseline is a ratchet, so an entry whose finding has been swept away
//!   fails the gate until the entry is removed.
//! - clippy with `-D warnings` over every target and feature: the
//!   `disallowed-types`/`disallowed-macros` bans in `clippy.toml` and the
//!   `[lints.clippy]` table of each sim crate. These replaced simlint's
//!   line rules (D1–D4, D5's `.unwrap()` half, D6's lexical check, E1 and
//!   the `thread_local!` check), so a violation of any of them still fails
//!   `cargo test`. Clippy reads those bans from hand-copied config (one
//!   lint table per sim crate, two `clippy.toml` lists), so a further test
//!   asserts every copy is complete: dropping a lint from one of them
//!   fails here instead of silently narrowing coverage.

use std::path::Path;
use std::process::Command;

fn workspace_baseline(root: &Path) -> simlint::Baseline {
    let text = std::fs::read_to_string(root.join("simlint.baseline"))
        .expect("simlint.baseline exists at the workspace root");
    simlint::Baseline::parse(&text).expect("simlint.baseline parses")
}

#[test]
fn workspace_has_no_unbaselined_simlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = simlint::analyze_tree(root).expect("workspace tree scans");
    assert!(
        analysis.scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        analysis.scanned
    );
    assert!(
        analysis.parse_failures.is_empty(),
        "simlint could not parse {} file(s):\n{}",
        analysis.parse_failures.len(),
        analysis
            .parse_failures
            .iter()
            .map(|e| format!("{}:{}: {}", e.path, e.line, e.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let baseline = workspace_baseline(root);
    let (new, _tolerated) = baseline.split(&analysis.findings);
    assert!(
        new.is_empty(),
        "simlint found {} unbaselined violation(s):\n{}",
        new.len(),
        new.iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_baseline_has_no_stale_entries() {
    // The ratchet only shrinks: a baseline entry whose finding was fixed
    // must be deleted, or it could silently mask a future regression at
    // the same site.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = simlint::analyze_tree(root).expect("workspace tree scans");
    let baseline = workspace_baseline(root);
    let stale = baseline.stale(&analysis.findings);
    assert!(
        stale.is_empty(),
        "baseline entries no longer matched by any finding (delete them):\n{}",
        stale
            .iter()
            .map(|(rule, path, line)| format!("{rule}\t{path}\t{line}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_autofix_is_a_no_op() {
    // A clean tree must stay byte-identical under `--fix`; CI asserts
    // the same with `git diff --exit-code`. Baselined findings carry no
    // mechanical fix, so the baseline does not exempt anything here.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = simlint::read_tree(root).expect("workspace tree reads");
    let applied = simlint::fix_source_set(&mut files);
    assert_eq!(applied, 0, "clean workspace should need no fixes");
}

#[test]
fn workspace_is_clean_under_clippy() {
    // A target directory of its own, so the nested cargo neither waits on
    // nor invalidates the build running this test.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "clippy",
            "--workspace",
            "--all-targets",
            "--all-features",
            "--offline",
            "--target-dir",
            "target/clippy-gate",
            "--",
            "-D",
            "warnings",
        ])
        .output()
        .expect("cargo clippy starts");
    assert!(
        out.status.success(),
        "`cargo clippy --workspace --all-targets --all-features -- -D warnings` failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The lints each simulation crate's `[lints.clippy]` table must deny.
const SIM_LINTS: [&str; 4] = [
    "cast_possible_truncation",
    "cast_sign_loss",
    "unwrap_used",
    "wildcard_enum_match_arm",
];

/// The `disallowed-types` bans of the root `clippy.toml`.
const BANNED_TYPES: [&str; 5] = [
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::collections::hash_map::RandomState",
    "std::time::Instant",
    "std::time::SystemTime",
];

/// `key = "value"` pairs of the `[header]` table of a manifest.
fn toml_table(text: &str, header: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            inside = line == header;
        } else if let (true, Some((key, value))) = (inside, line.split_once('=')) {
            if !key.trim_start().starts_with('#') {
                let value = value.split_once('#').map_or(value, |(v, _)| v);
                let value = value.trim().trim_matches('"');
                out.push((key.trim().to_string(), value.to_string()));
            }
        }
    }
    out
}

/// The `path = "..."` entries of the `key = [ ... ]` list in a clippy.toml.
fn clippy_paths(text: &str, key: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut inside = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with(key) {
            inside = true;
        } else if inside && line.starts_with(']') {
            inside = false;
        } else if let (true, Some(rest)) = (inside, line.split_once("path = \"")) {
            out.push(rest.1.split('"').next().unwrap_or("").to_string());
        }
    }
    out
}

#[test]
fn clippy_config_copies_are_complete() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |p: &Path| {
        std::fs::read_to_string(p).unwrap_or_else(|e| panic!("cannot read {}: {e}", p.display()))
    };

    // Every crate simlint scopes as simulation code, plus the root
    // package (src/, tests/, examples/), denies the four lints.
    let mut manifests = vec![root.join("Cargo.toml")];
    let mut crates: Vec<_> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ lists")
        .map(|entry| entry.expect("crates/ entry reads").file_name())
        .collect();
    crates.sort();
    for name in crates {
        let name = name.to_string_lossy().into_owned();
        if simlint::scope_of(&format!("crates/{name}/src/lib.rs")) == simlint::Scope::Sim {
            manifests.push(root.join("crates").join(name).join("Cargo.toml"));
        }
    }
    assert!(
        manifests.len() >= 11,
        "too few sim manifests: {manifests:?}"
    );
    for manifest in &manifests {
        let table = toml_table(&read(manifest), "[lints.clippy]");
        for lint in SIM_LINTS {
            assert!(
                table.iter().any(|(k, v)| k == lint && v == "deny"),
                "{}: `[lints.clippy]` must set {lint} = \"deny\"",
                manifest.display()
            );
        }
    }

    // The root clippy.toml bans every type and `thread_local!`; the
    // bench copy bans the same minus `Instant`, which it times with.
    let macros = ["std::thread_local".to_string()];
    let root_cfg = read(&root.join("clippy.toml"));
    assert_eq!(clippy_paths(&root_cfg, "disallowed-types"), BANNED_TYPES);
    assert_eq!(clippy_paths(&root_cfg, "disallowed-macros"), macros);
    let bench_cfg = read(&root.join("crates/bench/clippy.toml"));
    let bench_types: Vec<_> = BANNED_TYPES
        .into_iter()
        .filter(|t| *t != "std::time::Instant")
        .collect();
    assert_eq!(clippy_paths(&bench_cfg, "disallowed-types"), bench_types);
    assert_eq!(clippy_paths(&bench_cfg, "disallowed-macros"), macros);
}
