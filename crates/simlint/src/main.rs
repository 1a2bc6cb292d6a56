//! `cargo run -p simlint [-- <flags>] [ROOT]` — walk a source tree and
//! report unit-safety, overflow, parallel-readiness, hot-path cost, and
//! RNG-stream rule violations (the checks clippy cannot make).
//!
//! Exit codes:
//!   0  clean (no findings after suppression/filtering)
//!   1  one or more findings reported
//!   2  a file could not be parsed, or the invocation itself was invalid

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{analyze_tree, emit, fix_tree, Rule};

const HELP: &str = "\
simlint — static analysis for the simulator workspace

usage: simlint [OPTIONS] [ROOT]

  ROOT             directory to scan (default: the workspace root / cwd)

options:
  --rules LIST     comma-separated rule ids or family letters to report
                   (e.g. `--rules U,O` or `--rules D5,P3`; default: all)
  --emit FORMAT    output format: text (default), json, or sarif
  --fix            apply mechanical fixes in place, then report what remains
  --baseline FILE  ratchet mode: findings listed in FILE are tolerated,
                   anything new still fails; entries no finding matches
                   any more are stale and also fail (the file may only
                   shrink — remove the swept lines)
  --write-baseline FILE
                   write the current findings to FILE in baseline format
                   and exit (the only sanctioned way to grow the file)
  --explain [RULE] print the rule table and exit; with a rule id (e.g.
                   `--explain P2`), print that rule's full rationale
  -h, --help       print this help and exit

exit codes:
  0  clean — no findings
  1  findings reported
  2  parse error (a scanned file could not be parsed) or bad usage

Suppress a finding with `// simlint: allow(RULE) — reason` on (or above)
the offending line. Unused allows are themselves reported (rule S1).
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}");
    eprintln!("run `simlint --help` for usage");
    ExitCode::from(2)
}

/// Default scan root: the workspace root when invoked via `cargo run -p
/// simlint` (two levels up from this crate), else the cwd.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|crates| crates.parent())
        .filter(|ws| ws.join("Cargo.toml").is_file())
        .map(|ws| ws.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rules: Option<Vec<Rule>> = None;
    let mut emit_fmt = Emit::Text;
    let mut do_fix = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                // Optional rule-id operand: `--explain P2` prints the full
                // rationale for one rule; bare `--explain` prints the table.
                if let Some(next) = args.next() {
                    let Some(r) = Rule::parse(&next) else {
                        return usage_error(&format!(
                            "unknown rule `{next}` for --explain (try `--explain` \
                             for the full table)"
                        ));
                    };
                    println!("{}", r.doc());
                    return ExitCode::SUCCESS;
                }
                for r in Rule::ALL {
                    println!("{}: {}", r.id(), r.summary());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--fix" => do_fix = true,
            "--baseline" => {
                let Some(file) = args.next() else {
                    return usage_error("--baseline needs a file path");
                };
                baseline_path = Some(PathBuf::from(file));
            }
            "--write-baseline" => {
                let Some(file) = args.next() else {
                    return usage_error("--write-baseline needs a file path");
                };
                write_baseline = Some(PathBuf::from(file));
            }
            "--rules" => {
                let Some(list) = args.next() else {
                    return usage_error("--rules needs a value (e.g. `--rules U,O`)");
                };
                let mut selected = Vec::new();
                for entry in list.split(',').filter(|e| !e.trim().is_empty()) {
                    match Rule::parse_filter(entry) {
                        Some(mut rs) => selected.append(&mut rs),
                        None => {
                            return usage_error(&format!(
                                "unknown rule or family `{}` in --rules",
                                entry.trim()
                            ));
                        }
                    }
                }
                if selected.is_empty() {
                    return usage_error("--rules selected no rules");
                }
                selected.sort();
                selected.dedup();
                rules = Some(selected);
            }
            "--emit" => {
                let Some(fmt) = args.next() else {
                    return usage_error("--emit needs a value: text, json, or sarif");
                };
                emit_fmt = match fmt.as_str() {
                    "text" => Emit::Text,
                    "json" => Emit::Json,
                    "sarif" => Emit::Sarif,
                    other => {
                        return usage_error(&format!(
                            "unknown --emit format `{other}` (expected text, json, or sarif)"
                        ));
                    }
                };
            }
            _ if arg.starts_with('-') => {
                return usage_error(&format!("unknown option `{arg}`"));
            }
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => return usage_error("more than one ROOT given"),
        }
    }
    let root = root.unwrap_or_else(default_root);

    if do_fix {
        match fix_tree(&root) {
            Ok(report) => {
                if report.applied > 0 {
                    eprintln!(
                        "simlint: applied {} fix(es) across {} file(s)",
                        report.applied,
                        report.files.len()
                    );
                    for f in &report.files {
                        eprintln!("  fixed {f}");
                    }
                } else {
                    eprintln!("simlint: nothing to fix");
                }
            }
            Err(e) => {
                eprintln!("simlint: cannot fix {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    let mut analysis = match analyze_tree(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(selected) = &rules {
        analysis.findings.retain(|f| selected.contains(&f.rule));
    }

    if let Some(path) = &write_baseline {
        let text = simlint::Baseline::render(&analysis.findings);
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("simlint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "simlint: wrote {} baseline entr{} to {}",
            analysis.findings.len(),
            if analysis.findings.len() == 1 {
                "y"
            } else {
                "ies"
            },
            path.display()
        );
        return if analysis.parse_failures.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(2)
        };
    }

    let mut stale_entries = Vec::new();
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simlint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let baseline = match simlint::Baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("simlint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        stale_entries = baseline.stale(&analysis.findings);
        let before = analysis.findings.len();
        analysis.findings.retain(|f| !baseline.contains(f));
        let tolerated = before - analysis.findings.len();
        if tolerated > 0 {
            eprintln!(
                "simlint: {tolerated} baselined finding(s) tolerated per {}",
                path.display()
            );
        }
        for (rule, fpath, line) in &stale_entries {
            eprintln!(
                "simlint: stale baseline entry {rule}\t{fpath}\t{line} — no finding \
                 matches it any more; remove the line (the ratchet only shrinks)"
            );
        }
    }

    match emit_fmt {
        Emit::Json => print!(
            "{}",
            emit::to_json(
                &analysis.findings,
                &analysis.parse_failures,
                analysis.scanned
            )
        ),
        Emit::Sarif => print!(
            "{}",
            emit::to_sarif(&analysis.findings, &analysis.parse_failures)
        ),
        Emit::Text => {
            for f in &analysis.findings {
                println!("{f}");
            }
            for e in &analysis.parse_failures {
                eprintln!("{}:{}: parse error: {}", e.path, e.line, e.message);
            }
            if analysis.findings.is_empty() && analysis.parse_failures.is_empty() {
                println!(
                    "simlint: clean — {} files scanned under {}",
                    analysis.scanned,
                    root.display()
                );
            } else {
                println!(
                    "simlint: {} finding(s), {} parse error(s) in {} files scanned under {} \
                     (suppress with `// simlint: allow(RULE) — reason`)",
                    analysis.findings.len(),
                    analysis.parse_failures.len(),
                    analysis.scanned,
                    root.display()
                );
            }
        }
    }

    if !analysis.parse_failures.is_empty() {
        ExitCode::from(2)
    } else if analysis.findings.is_empty() && stale_entries.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
