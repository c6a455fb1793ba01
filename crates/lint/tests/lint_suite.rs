//! Integration suite for `charles-lint`.
//!
//! Each fixture under `tests/fixtures/` seeds violations for exactly one
//! rule; [`charles_lint::lint_source`] runs it under a synthetic
//! workspace path that puts the rule in scope. The final test lints the
//! real workspace tree and requires it to be clean — the same gate CI
//! enforces.

use std::collections::BTreeMap;

use charles_lint::token::{FileTokens, TokKind};
use charles_lint::{
    apply_fix_edits, lint_source, lint_sources, lint_tree, render_json, stale_suppression_edits,
    Finding, RULES, UNUSED_SUPPRESSION,
};

fn lines_for(findings: &[Finding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------------------
// One fixture per rule: the rule fires on the seeded lines and nowhere else.
// ---------------------------------------------------------------------------

#[test]
fn float_fold_order_catches_fixture() {
    let src = include_str!("fixtures/float_fold.rs");
    // The relation crate's column code is in scope like the engine's.
    for path in [
        "crates/core/src/fixture.rs",
        "crates/relation/src/fixture.rs",
    ] {
        let findings = lint_source(path, src);
        let lines = lines_for(&findings, "float-fold-order");
        assert_eq!(
            lines.len(),
            3,
            "{path}: sum, fold, and += loop: {findings:?}"
        );
        // The u64 sum at the end must not fire.
        assert!(findings.iter().all(|f| f.rule == "float-fold-order"));
    }
}

#[test]
fn float_fold_order_exempts_kernels() {
    let src = include_str!("fixtures/float_fold.rs");
    let findings = lint_source("crates/numerics/src/kernels.rs", src);
    assert!(
        lines_for(&findings, "float-fold-order").is_empty(),
        "kernels.rs is the one place float folds are defined: {findings:?}"
    );
}

#[test]
fn ordered_iteration_catches_fixture() {
    let src = include_str!("fixtures/ordered_iter.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    let lines = lines_for(&findings, "ordered-iteration");
    assert_eq!(
        lines.len(),
        3,
        "keys().collect(), for-values +=, and extend: {findings:?}"
    );
    // The allow-suppressed sort-after site and the BTreeMap site are clean,
    // and the in-fixture allow is consumed (no unused-suppression report).
    assert!(
        lines_for(&findings, UNUSED_SUPPRESSION).is_empty(),
        "{findings:?}"
    );
}

#[test]
fn wire_float_exactness_catches_fixture() {
    let src = include_str!("fixtures/wire_float.rs");
    let findings = lint_source("crates/server/src/proto.rs", src);
    let lines = lines_for(&findings, "wire-float-exactness");
    assert_eq!(lines.len(), 1, "only the raw Json::Num site: {findings:?}");
    // The allow on the one sanctioned encoder is consumed, not stale.
    assert!(
        lines_for(&findings, UNUSED_SUPPRESSION).is_empty(),
        "{findings:?}"
    );
}

#[test]
fn wire_float_exactness_out_of_scope_elsewhere() {
    let src = include_str!("fixtures/wire_float.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(lines_for(&findings, "wire-float-exactness").is_empty());
}

#[test]
fn no_panic_catches_fixture_outside_tests() {
    let src = include_str!("fixtures/panic_path.rs");
    let findings = lint_source("crates/server/src/fixture.rs", src);
    let lines = lines_for(&findings, "no-panic-in-request-path");
    assert_eq!(
        lines.len(),
        3,
        "unwrap, expect, and panic! — but not the #[cfg(test)] unwrap: {findings:?}"
    );
}

#[test]
fn no_panic_out_of_scope_outside_server() {
    let src = include_str!("fixtures/panic_path.rs");
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(lines_for(&findings, "no-panic-in-request-path").is_empty());
}

// ---------------------------------------------------------------------------
// Interprocedural passes over the multi-file xcrate fixture workspace
// ---------------------------------------------------------------------------

/// The three xcrate fixture files as one synthetic workspace: a server
/// routes file (seed surface), a core store (deep panic + one half of
/// the lock order), and a core stats helper (the lock inversion).
fn xcrate_workspace() -> charles_lint::Report {
    lint_sources(vec![
        (
            "crates/server/src/routes.rs".to_string(),
            include_str!("fixtures/xcrate/routes.rs").to_string(),
        ),
        (
            "crates/core/src/store.rs".to_string(),
            include_str!("fixtures/xcrate/store.rs").to_string(),
        ),
        (
            "crates/core/src/stats.rs".to_string(),
            include_str!("fixtures/xcrate/stats.rs").to_string(),
        ),
    ])
}

#[test]
fn xcrate_panic_reachability_crosses_crates_with_three_hop_chain() {
    let report = xcrate_workspace();
    let panics: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "no-panic-in-request-path")
        .collect();
    assert_eq!(
        panics.len(),
        1,
        "only fetch_raw's unwrap: {:?}",
        report.findings
    );
    let f = panics[0];
    assert_eq!(f.path, "crates/core/src/store.rs");
    assert_eq!(
        f.call_chain,
        vec![
            "routes.rs::Router::handle".to_string(),
            "store.rs::Store::lookup".to_string(),
            "store.rs::fetch_raw".to_string(),
        ],
        "seed -> method-through-field -> free fn, across files: {f:?}"
    );
    assert!(f.message.contains("request path:"), "{f:?}");
}

#[test]
fn xcrate_lock_order_detects_cross_file_inversion_and_cycle() {
    let report = xcrate_workspace();
    let locks: Vec<&Finding> = report
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert_eq!(
        locks.len(),
        2,
        "one reversal, one cycle: {:?}",
        report.findings
    );
    let reversal = locks
        .iter()
        .find(|f| f.message.contains("reverses the documented"))
        .expect("reversal finding");
    // Anchored where the holder can fix it: `rebalance` holds the
    // registry and calls into the latch-taking helper in the other file.
    assert_eq!(reversal.path, "crates/core/src/stats.rs");
    assert!(
        reversal
            .message
            .contains("deep acquisition at crates/core/src/store.rs"),
        "witness must point at the deep latch site: {reversal:?}"
    );
    let cycle = locks
        .iter()
        .find(|f| f.message.contains("lock-order cycle"))
        .expect("cycle finding");
    assert!(
        cycle.message.contains("latch") && cycle.message.contains("registry"),
        "{cycle:?}"
    );
}

#[test]
fn relaxed_test_files_get_suppression_hygiene_but_no_rules() {
    // A tests/ file may fold floats freely (it is not served), but a
    // stale allow in it is still reported — and it must not contribute
    // call-graph edges that would put core helpers on the request path.
    let report = lint_sources(vec![(
        "crates/core/tests/bench_helper.rs".to_string(),
        "pub fn naive_mean(xs: &[f64]) -> f64 {\n    \
         xs.iter().sum::<f64>() / xs.len() as f64\n}\n\n\
         pub fn unused_allow() -> u64 {\n    \
         // lint:allow(float-fold-order: nothing folds here)\n    7\n}\n"
            .to_string(),
    )]);
    let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, vec![UNUSED_SUPPRESSION], "{:?}", report.findings);
}

// ---------------------------------------------------------------------------
// Suppression machinery
// ---------------------------------------------------------------------------

#[test]
fn used_suppression_silences_and_is_not_reported() {
    let src = "pub fn total(xs: &[f64]) -> f64 {\n    \
               // lint:allow(float-fold-order: scalar reference, fixed row order)\n    \
               xs.iter().sum()\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn same_line_suppression_works() {
    let src = "pub fn total(xs: &[f64]) -> f64 {\n    \
               xs.iter().sum() // lint:allow(float-fold-order: pinned scalar order)\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn standalone_suppression_covers_multiline_statement() {
    let src = "pub fn keys(m: &std::collections::HashMap<String, u64>) -> Vec<String> {\n    \
               // lint:allow(ordered-iteration: sorted by the caller)\n    \
               let v: Vec<String> = m\n        \
               .keys()\n        \
               .cloned()\n        \
               .collect();\n    \
               v\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(
        findings.is_empty(),
        "allow must cover the whole chain: {findings:?}"
    );
}

#[test]
fn unused_suppression_is_reported() {
    let src = "pub fn clean() -> u64 {\n    \
               // lint:allow(float-fold-order: nothing here actually folds)\n    \
               7\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    let lines = lines_for(&findings, UNUSED_SUPPRESSION);
    assert_eq!(lines, vec![2], "{findings:?}");
}

#[test]
fn unknown_rule_in_suppression_is_reported() {
    let src = "pub fn clean() -> u64 {\n    \
               // lint:allow(made-up-rule)\n    \
               7\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(
        lines_for(&findings, UNUSED_SUPPRESSION),
        vec![2],
        "{findings:?}"
    );
}

#[test]
fn suppression_reason_may_contain_commas() {
    let src = "pub fn total(xs: &[f64]) -> f64 {\n    \
               // lint:allow(float-fold-order: fixed order, bench-only, not served)\n    \
               xs.iter().sum()\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn doc_comments_never_act_as_suppressions() {
    // A rustdoc line quoting the marker must not suppress the real finding
    // below it — and must not be reported as an unused suppression either.
    let src = "/// Write `// lint:allow(float-fold-order)` to suppress.\n\
               pub fn total(xs: &[f64]) -> f64 {\n    \
               xs.iter().sum()\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert_eq!(
        lines_for(&findings, "float-fold-order"),
        vec![3],
        "{findings:?}"
    );
    assert!(
        lines_for(&findings, UNUSED_SUPPRESSION).is_empty(),
        "{findings:?}"
    );
}

// ---------------------------------------------------------------------------
// Tokenizer edge cases: rule needles inside strings/comments are inert.
// ---------------------------------------------------------------------------

#[test]
fn needles_inside_string_literals_are_inert() {
    let src = r##"pub fn describe() -> &'static str {
    "HashMap .keys() .sum() unwrap() Json::Num 128 a.lock() b.lock()"
}
"##;
    for path in [
        "crates/core/src/fixture.rs",
        "crates/server/src/proto.rs",
        "crates/core/src/manager.rs",
    ] {
        let findings = lint_source(path, src);
        assert!(findings.is_empty(), "{path}: {findings:?}");
    }
}

#[test]
fn needles_inside_raw_strings_are_inert() {
    let src = "pub fn template() -> &'static str {\n    \
               r#\"{\"alpha\": Json::Num(0.5), \"n\": 128}\"#\n}\n";
    let findings = lint_source("crates/server/src/proto.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn needles_inside_nested_block_comments_are_inert() {
    let src = "/* outer /* xs.iter().sum() over f64 */ still comment 128 */\n\
               pub fn clean() -> u64 { 7 }\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn tokenizer_separates_chars_from_lifetimes() {
    let src = "fn f<'a>(x: &'a str) -> char { let c = 'a'; let _ = x; c }\n";
    let ft = FileTokens::tokenize(src);
    let chars: Vec<_> = ft.toks.iter().filter(|t| t.kind == TokKind::Char).collect();
    let lifetimes: Vec<_> = ft
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Lifetime)
        .collect();
    assert_eq!(chars.len(), 1, "{chars:?}");
    assert_eq!(lifetimes.len(), 2, "{lifetimes:?}");
}

#[test]
fn tokenizer_handles_float_vs_range() {
    let ft = FileTokens::tokenize("let a = 1.5; for i in 1..10 { let b = 2.; }");
    let nums: Vec<&str> = ft
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert_eq!(nums, vec!["1.5", "1", "10", "2."]);
}

// ---------------------------------------------------------------------------
// Whole-workspace gate and output formats
// ---------------------------------------------------------------------------

#[test]
fn workspace_tree_is_clean() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let report = lint_tree(&root).expect("walk workspace tree");
    assert!(
        report.files_scanned > 50,
        "scanned {}",
        report.files_scanned
    );
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean:\n{}",
        charles_lint::render_human(&report)
    );
}

#[test]
fn json_output_is_stable_and_escaped() {
    let src = "pub fn total(xs: &[f64]) -> f64 {\n    xs.iter().sum()\n}\n";
    let findings = lint_source("crates/core/src/fixture.rs", src);
    let report = charles_lint::Report {
        files_scanned: 1,
        suppressions_used: 0,
        findings,
    };
    let json = render_json(&report);
    assert!(json.contains("\"version\":3"), "{json}");
    assert!(json.contains("\"rule\":\"float-fold-order\""), "{json}");
    assert!(json.contains("\"files_scanned\":1"), "{json}");
    assert!(json.contains("\"suppressions_used\":0"), "{json}");
    assert!(
        json.contains("\"contract\":\"float reductions use the kernels' fixed fold order\""),
        "{json}"
    );
    assert!(json.contains("\"call_chain\":["), "{json}");
    // Messages quote backticked identifiers; the output must stay valid JSON
    // (no raw control characters, quotes escaped).
    assert!(!json.chars().any(|c| c.is_control() && c != '\n'), "{json}");
}

#[test]
fn reports_are_deterministic_byte_for_byte() {
    // Findings are sorted by (path, line, rule) and every pass iterates
    // ordered structures, so two runs over identical inputs must render
    // identical bytes — CI diffs BENCH artifacts across runs.
    let inputs = || {
        vec![
            (
                "crates/server/src/proto.rs".to_string(),
                include_str!("fixtures/wire_float.rs").to_string(),
            ),
            (
                "crates/server/src/routes.rs".to_string(),
                include_str!("fixtures/xcrate/routes.rs").to_string(),
            ),
            (
                "crates/core/src/store.rs".to_string(),
                include_str!("fixtures/xcrate/store.rs").to_string(),
            ),
            (
                "crates/core/src/stats.rs".to_string(),
                include_str!("fixtures/xcrate/stats.rs").to_string(),
            ),
            (
                "crates/core/src/plane.rs".to_string(),
                include_str!("fixtures/ordered_iter.rs").to_string(),
            ),
        ]
    };
    let a = render_json(&lint_sources(inputs()));
    let b = render_json(&lint_sources(inputs()));
    assert!(
        !a.contains("\"findings\":[]"),
        "fixture set must find things"
    );
    assert_eq!(a, b, "same inputs must render the same bytes");
    // And the ordering invariant itself: (path, line) pairs ascend.
    let report = lint_sources(inputs());
    let keys: Vec<(String, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.path.clone(), f.line, f.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(
        keys, sorted,
        "findings must be sorted by (path, line, rule)"
    );
}

#[test]
fn json_call_chain_carries_interprocedural_path() {
    let report = xcrate_workspace();
    let json = render_json(&report);
    assert!(
        json.contains("\"call_chain\":[\"routes.rs::Router::handle\",\"store.rs::Store::lookup\",\"store.rs::fetch_raw\"]"),
        "{json}"
    );
}

// ---------------------------------------------------------------------------
// Stale-suppression fixer
// ---------------------------------------------------------------------------

#[test]
fn fix_suppressions_removes_stale_allows_and_keeps_used_ones() {
    // Line 2: used standalone allow (stays). Line 5: stale standalone
    // allow (whole line removed). Line 7: stale trailing allow (comment
    // stripped, code kept).
    let src = "pub fn total(xs: &[f64]) -> f64 {\n    \
               // lint:allow(float-fold-order: pinned scalar order)\n    \
               xs.iter().sum()\n}\n\
               // lint:allow(float-fold-order: stale, nothing folds below)\n\
               pub fn seven() -> u64 {\n    \
               7 // lint:allow(ordered-iteration: stale too)\n}\n";
    let path = "crates/core/src/fixture.rs";
    let report = lint_sources(vec![(path.to_string(), src.to_string())]);
    assert!(
        report.findings.iter().all(|f| f.rule == UNUSED_SUPPRESSION),
        "{:?}",
        report.findings
    );
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);

    let sources: BTreeMap<String, String> = [(path.to_string(), src.to_string())].into();
    let edits = stale_suppression_edits(&report, &sources);
    assert_eq!(edits.len(), 2, "{edits:?}");
    assert_eq!(edits[0].line, 5);
    assert_eq!(edits[0].replacement, None, "standalone: drop the line");
    assert_eq!(edits[1].line, 7);
    assert_eq!(
        edits[1].replacement.as_deref(),
        Some("    7"),
        "trailing: keep the code"
    );

    let fixed = apply_fix_edits(src, &edits.iter().collect::<Vec<_>>());
    assert!(!fixed.contains("stale"), "{fixed}");
    assert!(
        fixed.contains("lint:allow(float-fold-order: pinned scalar order)"),
        "used allow must survive: {fixed}"
    );
    // The fixed source lints clean (used allow still consumed).
    let after = lint_sources(vec![(path.to_string(), fixed)]);
    assert!(after.findings.is_empty(), "{:?}", after.findings);
}

#[test]
fn malformed_allow_is_reported_but_not_auto_fixed() {
    let src = "pub fn seven() -> u64 {\n    \
               // lint:allow(float-fold-order missing close\n    7\n}\n";
    let path = "crates/core/src/fixture.rs";
    let report = lint_sources(vec![(path.to_string(), src.to_string())]);
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert!(report.findings[0].message.contains("malformed"));
    let sources: BTreeMap<String, String> = [(path.to_string(), src.to_string())].into();
    assert!(
        stale_suppression_edits(&report, &sources).is_empty(),
        "malformed allows need a human"
    );
}

#[test]
fn rule_registry_is_distinct_and_excludes_pseudo_rule() {
    let mut names = RULES.to_vec();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), RULES.len(), "duplicate rule name in registry");
    assert!(!RULES.contains(&UNUSED_SUPPRESSION));
}
