//! Differential/property harness pinning the candidate-partition contract:
//! the search splits its work by candidate, and *how* the candidates are
//! split must never show in the answer.
//!
//! - Any thread count answers **byte-identically** to the `threads = 1`
//!   oracle: rankings (display strings plus score bits), `sweep_alpha`
//!   outputs, `targets()`, and — for failing queries — the error message.
//!   A successful run also reports the same `Session::stats()` work
//!   counters: threads racing on one memo entry count it once.
//! - `run_search` over a permuted candidate slice ranks the same
//!   summaries (same `signature()`, same score bits) as over the
//!   generated order. Display strings are not compared there: among
//!   structurally equal summaries with equal scores the lowest candidate
//!   index survives, and which copy that is depends on the slice order.
//!
//! Nothing here uses tolerances: every comparison is on rendered strings,
//! signatures, and `f64::to_bits`.

use charles_core::{
    generate_candidates, run_search, Candidate, CharlesConfig, Query, QueryResult, SearchContext,
    Session,
};
use charles_relation::{
    apply_updates, ApplyMode, Expr, Predicate, SnapshotPair, TableBuilder, UpdateStatement,
};
use charles_synth::county;
use proptest::prelude::*;

/// Thread counts compared against the single-threaded oracle: fewer than,
/// more than, and far more than the cores of a small machine.
const THREAD_COUNTS: [usize; 3] = [2, 3, 8];

/// Render a result for exact comparison: display strings plus the raw bits
/// of every score component.
fn fingerprint(result: &QueryResult) -> Vec<(String, u64, u64, u64)> {
    result
        .summaries
        .iter()
        .map(|s| {
            (
                s.to_string(),
                s.scores.score.to_bits(),
                s.scores.accuracy.to_bits(),
                s.scores.interpretability.to_bits(),
            )
        })
        .collect()
}

fn session_with_threads(pair: &SnapshotPair, threads: usize) -> Session {
    Session::open_with_config(pair.clone(), CharlesConfig::default().with_threads(threads))
        .expect("session opens")
}

/// Assert that every tested thread count answers `query` (and an α-sweep
/// over it) exactly like the single-threaded oracle — identical successes
/// or identical errors.
fn assert_thread_equivalent(
    pair: &SnapshotPair,
    query: &Query,
    alphas: &[f64],
) -> Result<(), TestCaseError> {
    let oracle = session_with_threads(pair, 1);
    let oracle_targets = oracle.targets().unwrap();
    let base = oracle.run(query);
    let base_stats = oracle.stats();
    for &threads in &THREAD_COUNTS {
        let session = session_with_threads(pair, threads);
        prop_assert_eq!(
            session.targets().unwrap(),
            oracle_targets.clone(),
            "targets() diverged at {} threads",
            threads
        );
        let subject = session.run(query);
        match (&base, &subject) {
            (Ok(expected), Ok(actual)) => {
                prop_assert_eq!(
                    session.stats(),
                    base_stats,
                    "work counters diverged at {} threads: {:?} vs {:?}",
                    threads,
                    session.stats(),
                    base_stats
                );
                prop_assert_eq!(
                    fingerprint(actual),
                    fingerprint(expected),
                    "rankings diverged at {} threads",
                    threads
                );
                prop_assert_eq!(actual.alpha.to_bits(), expected.alpha.to_bits());
                let swept_oracle = oracle.sweep_alpha(expected, alphas).unwrap();
                let swept = session.sweep_alpha(actual, alphas).unwrap();
                for (a, b) in swept.iter().zip(swept_oracle.iter()) {
                    prop_assert_eq!(
                        fingerprint(a),
                        fingerprint(b),
                        "sweep diverged at {} threads, α={}",
                        threads,
                        b.alpha
                    );
                }
            }
            (Err(expected), Err(actual)) => {
                prop_assert_eq!(
                    actual.to_string(),
                    expected.to_string(),
                    "errors diverged at {} threads",
                    threads
                );
            }
            (expected, actual) => {
                return Err(TestCaseError::fail(format!(
                    "oracle and {threads}-thread session disagree on feasibility: \
                     oracle={expected:?} subject={actual:?}"
                )));
            }
        }
    }
    Ok(())
}

/// A policy-driven synthetic pair: `rows` employees over three education
/// groups, bonus evolved by per-group affine rules drawn from the
/// parameters. Deterministic in its inputs, so proptest failures replay.
fn policy_pair(rows: usize, scale_pct: u8, offset_step: u16, churn: u8) -> SnapshotPair {
    let names: Vec<String> = (0..rows).map(|i| format!("e{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let edu: Vec<&str> = (0..rows)
        .map(|i| ["PhD", "MS", "BS"][(i + churn as usize) % 3])
        .collect();
    let exp: Vec<i64> = (0..rows)
        .map(|i| ((i * 7 + churn as usize) % 11) as i64)
        .collect();
    let bonus: Vec<f64> = (0..rows)
        .map(|i| 5_000.0 + ((i as f64 * 631.0 + churn as f64 * 97.0) % 17_000.0))
        .collect();
    let source = TableBuilder::new("v1")
        .str_col("name", &name_refs)
        .str_col("edu", &edu)
        .int_col("exp", &exp)
        .float_col("bonus", &bonus)
        .key("name")
        .build()
        .unwrap();
    let scale = 1.0 + f64::from(scale_pct % 16) / 100.0;
    let offset = f64::from(offset_step % 12) * 250.0;
    let policy = [
        UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", scale, offset),
            Predicate::eq("edu", "PhD"),
        ),
        UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", 1.0 + f64::from(scale_pct % 7) / 200.0, 400.0),
            Predicate::eq("edu", "MS"),
        ),
    ];
    let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
        .unwrap()
        .table;
    SnapshotPair::align(source, target).unwrap()
}

/// The county payroll pair at `rows` rows, with its bench shortlists.
fn county_case(rows: usize, seed: u64) -> (SnapshotPair, String) {
    let scenario = county(rows, seed);
    let pair = SnapshotPair::align(scenario.source, scenario.target).unwrap();
    (pair, scenario.target_attr)
}

/// Resolve `names` against the pair's source schema.
fn refs(pair: &SnapshotPair, names: &[&str]) -> Vec<charles_relation::AttrRef> {
    let schema = pair.source().schema();
    names.iter().map(|n| schema.attr_ref(n).unwrap()).collect()
}

/// Ranked summaries keyed by structure and score bits — the part of a
/// ranking that must not depend on candidate order.
fn ranking_key(ctx: &SearchContext<'_>, candidates: &[Candidate]) -> Vec<(String, u64, u64, u64)> {
    let (summaries, _) = run_search(ctx, candidates).unwrap();
    summaries
        .iter()
        .map(|s| {
            (
                s.signature(),
                s.scores.score.to_bits(),
                s.scores.accuracy.to_bits(),
                s.scores.interpretability.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Policy-driven synthetic pairs from empty to a few hundred rows,
    /// × thread counts × α overrides.
    #[test]
    fn threads_equal_oracle_on_policy_pairs(
        rows in prop_oneof![0usize..6, 6usize..130, 130usize..400],
        scale_pct in 0u8..=255,
        offset_step in 0u16..=999,
        churn in 0u8..=255,
        alpha_idx in 0usize..4,
    ) {
        let pair = policy_pair(rows, scale_pct, offset_step, churn);
        let alpha = [0.0, 0.3, 0.5, 1.0][alpha_idx];
        let query = Query::new("bonus")
            .with_condition_attrs(["edu", "exp"])
            .with_transform_attrs(["bonus"])
            .with_alpha(alpha);
        assert_thread_equivalent(&pair, &query, &[0.0, 0.25, 0.5, 0.75, 1.0])?;
    }

    /// The paper's county payroll scenario at proptest-drawn sizes and
    /// seeds, queried with the bench shortlists. Its department conditions
    /// render as `≠` chains whose descriptor order differs between
    /// structurally equal summaries, so a schedule-dependent merge shows
    /// here as a changed display string.
    #[test]
    fn threads_equal_oracle_on_county_payroll(
        rows in 40usize..320,
        seed in 0u64..1_000,
    ) {
        let (pair, target) = county_case(rows, seed);
        let query = Query::new(&target)
            .with_condition_attrs(["department", "grade"])
            .with_transform_attrs(["base_salary"]);
        assert_thread_equivalent(&pair, &query, &[0.0, 0.5, 1.0])?;
    }
}

/// Degenerate pairs, pinned deterministically (not only via proptest).
#[test]
fn degenerate_pairs_match_oracle() {
    // Fewer rows than threads: most threads find no candidate to claim.
    let pair = policy_pair(9, 5, 4, 0);
    let query = Query::new("bonus")
        .with_condition_attrs(["edu"])
        .with_transform_attrs(["bonus"]);
    assert_thread_equivalent(&pair, &query, &[0.0, 1.0]).unwrap();

    // A zero-row pair: sessions open, targets() is empty, and queries
    // fail identically on every thread count.
    let empty = policy_pair(0, 1, 1, 1);
    assert!(session_with_threads(&empty, 1)
        .targets()
        .unwrap()
        .is_empty());
    assert_thread_equivalent(&empty, &query, &[0.0, 1.0]).unwrap();
}

/// `run_search` on permuted candidate slices, at every thread count,
/// ranks the same summaries with the same score bits.
#[test]
fn permuted_candidates_rank_identically() {
    let (pair, target) = county_case(240, 7);
    let config = CharlesConfig::default();
    let tran = ["base_salary".to_string()];
    let cond = refs(&pair, &["department", "grade"]);
    let candidates = generate_candidates(&cond, &refs(&pair, &["base_salary"]), &config);
    assert!(candidates.len() >= 4, "{} candidates", candidates.len());

    let n = candidates.len();
    let mut permutations: Vec<Vec<usize>> = vec![
        (0..n).rev().collect(),
        (0..n).map(|i| (i + n / 3) % n).collect(),
        (0..n)
            .filter(|i| i % 2 == 1)
            .chain((0..n).step_by(2))
            .collect(),
    ];
    // A seeded Fisher–Yates shuffle (fixed LCG, so failures replay).
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut shuffled: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    permutations.push(shuffled);

    let oracle_config = config.clone().with_threads(1);
    let oracle_ctx = SearchContext::new(&pair, &target, &tran, &oracle_config).unwrap();
    let expected = ranking_key(&oracle_ctx, &candidates);
    assert!(!expected.is_empty());
    for threads in [1usize, 2, 3, 8] {
        let threaded = config.clone().with_threads(threads);
        for (p, order) in permutations.iter().enumerate() {
            let permuted: Vec<Candidate> = order.iter().map(|&i| candidates[i].clone()).collect();
            // A fresh context per run, so every run computes from cold
            // memos rather than replaying an earlier run's cached fits.
            let ctx = SearchContext::new(&pair, &target, &tran, &threaded).unwrap();
            assert_eq!(
                ranking_key(&ctx, &permuted),
                expected,
                "permutation {p} diverged at {threads} threads"
            );
        }
    }
}

/// A search whose candidates fail reports the error of the lowest failing
/// candidate index on every thread count, as the sequential path does.
#[test]
fn lowest_failing_candidate_error_wins_on_every_thread_count() {
    let pair = policy_pair(200, 9, 3, 1);
    // The context extracts only `bonus`, so a candidate transforming by
    // `exp` or `edu` fails with "no extracted column view" for that name.
    let tran = ["bonus".to_string()];
    let good = generate_candidates(
        &refs(&pair, &["edu", "exp"]),
        &refs(&pair, &["bonus"]),
        &CharlesConfig::default(),
    );
    let failing = |name: &str| Candidate {
        cond_attrs: Vec::new(),
        tran_attrs: refs(&pair, &[name]),
        k: 1,
    };
    let mut candidates = good.clone();
    candidates.insert(good.len() / 2, failing("exp"));
    candidates.push(failing("edu"));
    candidates.extend(good);

    let oracle_config = CharlesConfig::default().with_threads(1);
    let oracle_ctx = SearchContext::new(&pair, "bonus", &tran, &oracle_config).unwrap();
    let expected = run_search(&oracle_ctx, &candidates)
        .unwrap_err()
        .to_string();
    assert!(expected.contains("\"exp\""), "{expected}");
    for threads in THREAD_COUNTS {
        let config = CharlesConfig::default().with_threads(threads);
        let ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        let actual = run_search(&ctx, &candidates).unwrap_err().to_string();
        assert_eq!(actual, expected, "{threads} threads");
    }
}
