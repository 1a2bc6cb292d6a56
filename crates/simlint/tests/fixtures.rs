//! Self-test: the known-bad fixture files must each trigger their rule
//! (with correct file:line attribution), suppressions must silence, and
//! clean code must stay clean. These fixtures are also what CI's
//! `simlint` job can be pointed at to prove the binary exits nonzero.

use std::path::Path;

use simlint::{analyze_files, fix_source_set, scan_tree, Rule};

fn fixture(name: &str) -> (String, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src = std::fs::read_to_string(&path).expect("fixture file exists");
    (name.to_string(), src)
}

/// Load a fixture plus the shared unit definitions, run the full
/// pipeline, and return the findings attributed to the named fixture.
fn v2_findings(name: &str) -> Vec<simlint::Finding> {
    let files = vec![fixture("dcsim/units.rs"), fixture(name)];
    let analysis = analyze_files(&files);
    assert!(
        analysis.parse_failures.is_empty(),
        "{:?}",
        analysis.parse_failures
    );
    analysis
        .findings
        .into_iter()
        .filter(|f| f.path == name)
        .collect()
}

#[test]
fn d5_fixture_fires_on_the_empty_expect_only() {
    let got = v2_findings("bad_d5_unwrap.rs");
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].rule, Rule::D5);
    assert_eq!(got[0].line, 5, "the message-less expect attributed");
}

#[test]
fn p3_fault_fixture_fires_despite_the_distributor_exemption() {
    let got = v2_findings("bad_p3_fault_stream.rs");
    assert!(got.iter().all(|f| f.rule == Rule::P3), "{got:?}");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 9], "{got:?}");
    assert!(got[0].message.contains("DetRng::new") && got[0].message.contains("FAULT_STREAM"));
    assert!(
        got[1].message.contains("stream 2 (RED"),
        "{}",
        got[1].message
    );
}

#[test]
fn p3_fault_context_comes_from_names_at_the_site() {
    let got = v2_findings("bad_p3_rng_wiring.rs");
    assert!(got.iter().all(|f| f.rule == Rule::P3), "{got:?}");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 12, 15, 21], "{got:?}");
    for f in &got[..3] {
        assert!(f.message.contains("DetRng::new"), "{}", f.message);
    }
    assert!(got[3].message.contains("ECMP_STREAM"), "{}", got[3].message);
}

#[test]
fn suppressed_fixture_is_silent() {
    assert!(v2_findings("suppressed_ok.rs").is_empty());
}

#[test]
fn clean_fixture_is_silent() {
    assert!(v2_findings("clean_ok.rs").is_empty());
}

#[test]
fn u1_fixture_fires_on_every_mixing_direction() {
    let got = v2_findings("bad_u1_mixed_arith.rs");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert!(got.iter().all(|f| f.rule == Rule::U1), "{got:?}");
    assert_eq!(lines, vec![7, 11, 15, 19], "{got:?}");
    // Unit mixing has no mechanical rewrite: the right unit is a design
    // decision, so U1 never offers a fix.
    assert!(got.iter().all(|f| f.fix.is_none()));
}

#[test]
fn u2_fixture_fires_and_offers_as_u64() {
    let got = v2_findings("bad_u2_newtype_escape.rs");
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got.iter().all(|f| f.rule == Rule::U2));
    assert!(got.iter().all(|f| {
        f.fix
            .as_ref()
            .is_some_and(|fix| fix.replacement == ".as_u64()")
    }));
}

#[test]
fn u3_fixture_fires_and_offers_named_constructors() {
    let got = v2_findings("bad_u3_raw_construction.rs");
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(got.iter().all(|f| f.rule == Rule::U3));
    let reps: Vec<&str> = got
        .iter()
        .map(|f| f.fix.as_ref().expect("U3 is fixable").replacement.as_str())
        .collect();
    assert_eq!(
        reps,
        vec![
            "Nanos::ZERO",
            "Bytes::new(1000)",
            "BitRate::from_bps(100_000_000_000)"
        ]
    );
}

#[test]
fn o1_fixture_fires_on_add_mul_and_compound_assign() {
    let got = v2_findings("dcsim/bad_o1_overflow.rs");
    assert_eq!(got.len(), 3, "{got:?}");
    assert!(got.iter().all(|f| f.rule == Rule::O1 && f.fix.is_some()));
    let reps: Vec<&str> = got
        .iter()
        .map(|f| f.fix.as_ref().expect("checked above").replacement.as_str())
        .collect();
    assert_eq!(
        reps,
        vec![
            "now.as_u64().saturating_add(step.as_u64())",
            "t.as_u64().saturating_mul(n)",
            "total = total.saturating_add(t.as_u64())",
        ]
    );
}

#[test]
fn s1_fixture_flags_the_stale_allow_with_a_deletion_fix() {
    let got = v2_findings("bad_s1_stale_allow.rs");
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].rule, Rule::S1);
    let fix = got[0].fix.as_ref().expect("S1 deletes the comment");
    assert!(fix.replacement.is_empty());
}

#[test]
fn clean_units_fixture_is_silent() {
    assert!(v2_findings("clean_units_ok.rs").is_empty());
}

#[test]
fn parse_error_fixture_reports_a_failure_not_findings() {
    let files = vec![fixture("parse_error.rs")];
    let analysis = analyze_files(&files);
    assert_eq!(analysis.parse_failures.len(), 1);
    assert_eq!(analysis.parse_failures[0].path, "parse_error.rs");
    assert!(analysis.findings.is_empty(), "{:?}", analysis.findings);
}

#[test]
fn autofix_converges_and_is_idempotent() {
    // One pass of fix_source_set must clear every fixable finding; a
    // second pass must be a no-op (this is what CI's `--fix && git diff
    // --exit-code` step relies on).
    let mut files = vec![
        fixture("dcsim/units.rs"),
        fixture("bad_u2_newtype_escape.rs"),
        fixture("bad_u3_raw_construction.rs"),
        fixture("dcsim/bad_o1_overflow.rs"),
        fixture("bad_s1_stale_allow.rs"),
    ];
    let applied = fix_source_set(&mut files);
    assert!(
        applied >= 9,
        "expected all fixable findings fixed: {applied}"
    );

    let after = analyze_files(&files);
    assert!(
        after.findings.iter().all(|f| f.fix.is_none()),
        "fixable findings survived --fix: {:?}",
        after.findings
    );

    let snapshot = files.clone();
    let again = fix_source_set(&mut files);
    assert_eq!(again, 0, "second --fix pass must change nothing");
    assert_eq!(files, snapshot);
}

#[test]
fn p1_fixture_fires_on_both_statics() {
    let got = v2_findings("bad_p1_shared_static.rs");
    assert!(got.iter().all(|f| f.rule == Rule::P1), "{got:?}");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 10], "{got:?}"); // static mut, atomic
                                               // The hot-path-reachable static carries a witness call chain.
    assert!(
        got[1]
            .message
            .contains("run (bad_p1_shared_static.rs:12) → bump"),
        "witness chain rendered: {}",
        got[1].message
    );
}

#[test]
fn p2_fixture_fires_locally_and_through_the_call_chain() {
    let got = v2_findings("bad_p2_unstable_iter.rs");
    let p2: Vec<_> = got.iter().filter(|f| f.rule == Rule::P2).collect();
    assert_eq!(p2.len(), 2, "{got:?}");
    // Interprocedural: schedule_ready consumes gather_ready's hash-ordered
    // results; reported at the call site, no mechanical fix.
    assert_eq!(p2[0].line, 19);
    assert!(
        p2[0].message.contains("chain: gather_ready"),
        "{}",
        p2[0].message
    );
    assert!(p2[0].fix.is_none());
    // Local: report's own iteration, with the BTreeMap container swap.
    assert_eq!(p2[1].line, 27);
    let fix = p2[1]
        .fix
        .as_ref()
        .expect("local P2 offers the container swap");
    assert!(fix.replacement.contains("BTreeMap") && !fix.replacement.contains("HashMap"));
}

#[test]
fn p3_fixture_fires_on_every_discipline_breach() {
    let got = v2_findings("bad_p3_stream_context.rs");
    assert!(got.iter().all(|f| f.rule == Rule::P3), "{got:?}");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![13, 18, 22, 26], "{got:?}");
    // Private DetRng::new two hops below RED-marked code, caught via chain.
    assert!(got[0].message.contains("red_mark") && got[0].message.contains("DetRng::new"));
    // ECMP code borrowing RED's stream by number.
    assert!(got[1].message.contains("ECMP") && got[1].message.contains("RED"));
    // Raw stream number where the named constant exists.
    assert!(got[2].message.contains("ECMP_STREAM"));
    // Named constant of the wrong subsystem.
    assert!(got[3].message.contains("RED_STREAM"));
}

#[test]
fn p4_fixture_fires_on_declarations_and_push_sites() {
    let got = v2_findings("bad_p4_time_key.rs");
    assert!(got.iter().all(|f| f.rule == Rule::P4), "{got:?}");
    let lines: Vec<usize> = got.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![8, 13, 17, 18], "{got:?}");
    // Only the tuple-keyed declaration has a mechanical fix: insert the
    // u64 tiebreak slot.
    let fix = got[2]
        .fix
        .as_ref()
        .expect("tuple-keyed declaration is fixable");
    assert_eq!(fix.replacement, " u64,");
    assert!(got[0].fix.is_none() && got[1].fix.is_none() && got[3].fix.is_none());
}

#[test]
fn p5_fixture_fires_locally_and_through_the_call_chain() {
    let got = v2_findings("bad_p5_float_reduction.rs");
    let p5: Vec<_> = got.iter().filter(|f| f.rule == Rule::P5).collect();
    assert_eq!(p5.len(), 2, "{got:?}");
    assert_eq!(p5[0].line, 11, "direct HashMap sum attributed");
    assert_eq!(p5[1].line, 27, "reduction over tainted producer attributed");
    assert!(
        p5[1].message.contains("chain: gather_samples"),
        "{}",
        p5[1].message
    );
}

#[test]
fn a1_fixture_fires_on_every_hot_allocation_with_witness_chains() {
    let got = v2_findings("bad_a1_hot_alloc.rs");
    let a1: Vec<_> = got.iter().filter(|f| f.rule == Rule::A1).collect();
    let lines: Vec<usize> = a1.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![11, 12, 16, 18], "{got:?}");
    // Every finding names the chain from the per-event root.
    assert!(a1
        .iter()
        .all(|f| f.message.contains("hot chain: step") && f.message.contains("bad_a1")));
    // Loop escalation on the push; reserve fix on the declaration.
    assert!(
        a1[3].message.contains("every iteration"),
        "{}",
        a1[3].message
    );
    let fix = a1[2]
        .fix
        .as_ref()
        .expect("Vec::new decl gets the reserve fix");
    assert_eq!(fix.replacement, "Vec::with_capacity(xs.len())");
    assert!(a1[3].fix.is_none(), "push site carries no fix of its own");
}

#[test]
fn a2_fixture_fires_on_the_boxed_variant() {
    let got = v2_findings("bad_a2_boxed_event.rs");
    let a2: Vec<_> = got.iter().filter(|f| f.rule == Rule::A2).collect();
    assert_eq!(a2.len(), 1, "{got:?}");
    assert_eq!(a2[0].line, 10, "attributed to the enum declaration");
    assert!(
        a2[0].message.contains("Event::Arrive") && a2[0].message.contains("12 bytes"),
        "{}",
        a2[0].message
    );
}

#[test]
fn a3_fixture_fires_on_chain_and_for_head_with_fusion_fixes() {
    let got = v2_findings("bad_a3_collect_reiter.rs");
    let a3: Vec<_> = got.iter().filter(|f| f.rule == Rule::A3).collect();
    let lines: Vec<usize> = a3.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![7, 14], "{got:?}");
    // Both sites fuse by deleting the materialization.
    for f in &a3 {
        let fix = f.fix.as_ref().expect("A3 fusion fix present");
        assert!(fix.replacement.is_empty(), "fusion deletes, never rewrites");
    }
}

#[test]
fn a4_fixture_fires_on_both_hot_call_edges() {
    let got = v2_findings("bad_a4_byval_hot.rs");
    let a4: Vec<_> = got.iter().filter(|f| f.rule == Rule::A4).collect();
    let lines: Vec<usize> = a4.iter().map(|f| f.line).collect();
    assert_eq!(lines, vec![17, 21], "{got:?}");
    assert!(
        a4.iter().all(|f| f.message.contains("~80 bytes")),
        "{got:?}"
    );
    assert!(
        a4[1].message.contains("step") && a4[1].message.contains("sink"),
        "callee chain runs from the root: {}",
        a4[1].message
    );
}

#[test]
fn a_rule_autofixes_converge_and_are_idempotent() {
    let mut files = vec![
        fixture("dcsim/units.rs"),
        fixture("bad_a1_hot_alloc.rs"),
        fixture("bad_a3_collect_reiter.rs"),
    ];
    let applied = fix_source_set(&mut files);
    assert!(applied >= 3, "A1 reserve + two A3 fusions: {applied}");
    let a1_src = &files[1].1;
    assert!(
        a1_src.contains("let mut out = Vec::with_capacity(xs.len());"),
        "reserve inserted at the declaration: {a1_src}"
    );
    let a3_src = &files[2].1;
    assert!(
        !a3_src.contains(".collect::<"),
        "both materializations deleted: {a3_src}"
    );
    assert!(
        a3_src.contains("for x in xs.iter().map(|v| v + 1) {"),
        "for-head now iterates the fused chain: {a3_src}"
    );

    let after = analyze_files(&files);
    assert!(
        after.findings.iter().all(|f| f.fix.is_none()),
        "fixable findings survived --fix: {:?}",
        after.findings
    );

    let snapshot = files.clone();
    assert_eq!(
        fix_source_set(&mut files),
        0,
        "second --fix pass must change nothing"
    );
    assert_eq!(files, snapshot);
}

#[test]
fn p_rule_autofixes_converge_and_are_idempotent() {
    let mut files = vec![
        fixture("dcsim/units.rs"),
        fixture("bad_p2_unstable_iter.rs"),
        fixture("bad_p4_time_key.rs"),
    ];
    let applied = fix_source_set(&mut files);
    assert!(applied >= 2, "P2 swap + P4 slot insertion: {applied}");
    let p2_src = &files[1].1;
    assert!(
        p2_src.contains("let mut seen: BTreeMap<u64, u64> = BTreeMap::new();"),
        "container swapped on the declaration: {p2_src}"
    );
    let p4_src = &files[2].1;
    assert!(
        p4_src.contains("BinaryHeap<(Nanos, u64, FlowId)> = BinaryHeap::new()"),
        "tiebreak slot inserted: {p4_src}"
    );

    let after = analyze_files(&files);
    assert!(
        after.findings.iter().all(|f| f.fix.is_none()),
        "fixable findings survived --fix: {:?}",
        after.findings
    );

    let snapshot = files.clone();
    assert_eq!(
        fix_source_set(&mut files),
        0,
        "second --fix pass must change nothing"
    );
    assert_eq!(files, snapshot);
}

#[test]
fn scanning_the_fixture_tree_reports_every_bad_file() {
    // Pointing the walker directly at fixtures/ (as CI does to prove the
    // nonzero exit path) must reproduce all of the above findings.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let (findings, scanned) = scan_tree(&root).expect("fixtures dir scans");
    assert_eq!(scanned, 22, "all fixture files scanned");
    let bad_files: std::collections::BTreeSet<&str> =
        findings.iter().map(|f| f.path.as_str()).collect();
    assert_eq!(
        bad_files.into_iter().collect::<Vec<_>>(),
        vec![
            "bad_a1_hot_alloc.rs",
            "bad_a2_boxed_event.rs",
            "bad_a3_collect_reiter.rs",
            "bad_a4_byval_hot.rs",
            "bad_d5_unwrap.rs",
            "bad_p1_shared_static.rs",
            "bad_p2_unstable_iter.rs",
            "bad_p3_fault_stream.rs",
            "bad_p3_rng_wiring.rs",
            "bad_p3_stream_context.rs",
            "bad_p4_time_key.rs",
            "bad_p5_float_reduction.rs",
            "bad_s1_stale_allow.rs",
            "bad_u1_mixed_arith.rs",
            "bad_u2_newtype_escape.rs",
            "bad_u3_raw_construction.rs",
            "dcsim/bad_o1_overflow.rs",
        ]
    );
}
