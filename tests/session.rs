//! Integration tests for the session-oriented query API: equivalence with
//! the one-shot `Charles` facade, α-sweep correctness, multi-target runs,
//! and cache effectiveness across runs.

use charles::core::{Charles, Query, Session};
use charles::prelude::*;

/// A pair where two numeric attributes (`bonus`, `salary`) evolve under
/// separate latent policies — the multi-target scenario.
fn two_target_pair() -> SnapshotPair {
    let n = 60;
    let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    let edu: Vec<&str> = (0..n)
        .map(|i| match i % 3 {
            0 => "PhD",
            1 => "MS",
            _ => "BS",
        })
        .collect();
    let exp: Vec<i64> = (0..n).map(|i| (i as i64 * 7) % 10).collect();
    let salary: Vec<f64> = (0..n).map(|i| 90_000.0 + 1_500.0 * i as f64).collect();
    let bonus: Vec<f64> = salary.iter().map(|s| s * 0.1).collect();
    let source = TableBuilder::new("s")
        .str_col("name", &names)
        .str_col("edu", &edu)
        .int_col("exp", &exp)
        .float_col("salary", &salary)
        .float_col("bonus", &bonus)
        .key("name")
        .build()
        .unwrap();
    let policy = [
        // Salary: flat 3% for everyone.
        UpdateStatement::new("salary", Expr::affine("salary", 1.03, 0.0), Predicate::True),
        // Bonus: PhDs get 5% + 1000, everyone else unchanged.
        UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", 1.05, 1000.0),
            Predicate::eq("edu", "PhD"),
        ),
    ];
    // Sequential: both statements apply (they touch different attributes).
    let target = apply_updates(&source, &policy, ApplyMode::Sequential)
        .unwrap()
        .table;
    SnapshotPair::align(source, target).unwrap()
}

fn rendered(summaries: &[charles::core::ChangeSummary]) -> Vec<String> {
    summaries.iter().map(|s| s.to_string()).collect()
}

#[test]
fn session_targets_match_changed_numeric_attributes() {
    let pair = two_target_pair();
    let session = Session::open(pair.clone()).unwrap();
    let expected = Charles::changed_numeric_attributes(&pair).unwrap();
    assert_eq!(session.targets().unwrap(), expected);
    assert_eq!(
        expected,
        vec!["salary".to_string(), "bonus".to_string()],
        "both targets changed"
    );
}

#[test]
fn alpha_sweep_equals_fresh_rescore_per_alpha() {
    let pair = two_target_pair();
    let session = Session::open(pair.clone()).unwrap();
    let base = session.run(&Query::new("bonus")).unwrap();
    let alphas = [0.0, 0.25, 0.5, 0.75, 1.0];
    let swept = session.sweep_alpha(&base, &alphas).unwrap();

    for (result, &alpha) in swept.iter().zip(alphas.iter()) {
        // The reference: a completely fresh one-shot engine, run + rescore.
        let engine = Charles::from_pair(pair.clone(), "bonus").unwrap();
        let fresh = engine.run().unwrap();
        let reference = engine.rescore(&fresh, alpha).unwrap();
        assert_eq!(
            rendered(&result.summaries),
            rendered(&reference.summaries),
            "sweep at α={alpha} must match a fresh run + rescore"
        );
    }
}

#[test]
fn multi_target_run_equals_independent_runs() {
    let pair = two_target_pair();
    let session = Session::open(pair.clone()).unwrap();
    let queries: Vec<Query> = session
        .targets()
        .unwrap()
        .into_iter()
        .map(Query::new)
        .collect();
    assert_eq!(queries.len(), 2);
    let multi = session.run_multi(&queries).unwrap();

    for (query, result) in queries.iter().zip(multi.iter()) {
        // The reference: a fresh one-shot engine per target.
        let reference = Charles::from_pair(pair.clone(), &query.target)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            rendered(&result.summaries),
            rendered(&reference.summaries),
            "multi-target result for {:?} must match an independent run",
            query.target
        );
    }
}

#[test]
fn second_run_of_same_query_hits_every_cache() {
    let session = Session::open(two_target_pair()).unwrap();
    let query = Query::new("bonus");
    let first = session.run(&query).unwrap();
    let warmed = session.stats();
    assert!(warmed.global_fits_computed > 0, "cold run fits something");

    let second = session.run(&query).unwrap();
    let after = session.stats();
    assert_eq!(
        after.global_fits_computed, warmed.global_fits_computed,
        "warm rerun must perform zero new global fits"
    );
    assert_eq!(
        after.labelings_computed, warmed.labelings_computed,
        "warm rerun must perform zero new labelings"
    );
    assert_eq!(
        after.candidates_computed, warmed.candidates_computed,
        "warm rerun must re-evaluate zero candidates"
    );
    assert_eq!(
        after.columns_extracted, warmed.columns_extracted,
        "warm rerun must extract zero columns"
    );
    assert_eq!(rendered(&first.summaries), rendered(&second.summaries));
}

#[test]
fn facade_and_session_agree() {
    let pair = two_target_pair();
    let facade = Charles::from_pair(pair.clone(), "bonus")
        .unwrap()
        .run()
        .unwrap();
    let session = Session::open(pair).unwrap();
    let result = session.run(&Query::new("bonus")).unwrap();
    assert_eq!(rendered(&facade.summaries), rendered(&result.summaries));
    assert_eq!(facade.stats.candidates, result.stats.candidates);
    assert_eq!(facade.stats.distinct, result.stats.distinct);
}

#[test]
fn facade_rescore_equals_session_rescore() {
    let pair = two_target_pair();
    let engine = Charles::from_pair(pair.clone(), "bonus").unwrap();
    let base = engine.run().unwrap();
    let session = Session::open(pair).unwrap();
    let session_base = session.run(&Query::new("bonus")).unwrap();
    for alpha in [0.0, 0.3, 0.9] {
        let facade = engine.rescore(&base, alpha).unwrap();
        let through_session = session.rescore(&session_base, alpha).unwrap();
        assert_eq!(
            rendered(&facade.summaries),
            rendered(&through_session.summaries),
            "rescore at α={alpha}"
        );
    }
}

#[test]
fn shortlist_overrides_flow_through_queries() {
    let session = Session::open(two_target_pair()).unwrap();
    let result = session
        .run(
            &Query::new("bonus")
                .with_condition_attrs(["edu"])
                .with_transform_attrs(["bonus"])
                .with_top_k(3),
        )
        .unwrap();
    assert!(result.summaries.len() <= 3);
    let top = result.top().unwrap();
    assert_eq!(top.transform_attrs, vec!["bonus".to_string()]);
    assert!(top.scores.accuracy > 0.999, "{}", top.scores.accuracy);
}

/// A 40-row pair whose `a_copy` column equals `bonus`, evolved by
/// `bonus = 1.05 × bonus` for every row: `1.05 × bonus` and
/// `1.05 × a_copy` explain the change equally well and tie on score.
fn aliased_pair() -> SnapshotPair {
    let n = 40;
    let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    let edu: Vec<&str> = (0..n)
        .map(|i| if i % 2 == 0 { "PhD" } else { "MS" })
        .collect();
    let bonus: Vec<f64> = (0..n).map(|i| 10_000.0 + 250.0 * i as f64).collect();
    let source = TableBuilder::new("s")
        .str_col("name", &names)
        .str_col("edu", &edu)
        .float_col("a_copy", &bonus)
        .float_col("bonus", &bonus)
        .key("name")
        .build()
        .unwrap();
    let policy = [UpdateStatement::new(
        "bonus",
        Expr::affine("bonus", 1.05, 0.0),
        Predicate::True,
    )];
    let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
        .unwrap()
        .table;
    SnapshotPair::align(source, target).unwrap()
}

fn signature_bits(summaries: &[charles::core::ChangeSummary]) -> Vec<(String, u64)> {
    summaries
        .iter()
        .map(|s| (s.signature(), s.scores.score.to_bits()))
        .collect()
}

#[test]
fn rescore_at_run_alpha_keeps_run_ranking() {
    // Score ties break the same way in a run and in every re-ranking
    // path: the autoregressive `1.05 × bonus` ranks above `1.05 × a_copy`.
    let query = Query::new("bonus")
        .with_alpha(0.5)
        .with_condition_attrs(["edu"])
        .with_transform_attrs(["a_copy", "bonus"]);
    let session = Session::open(aliased_pair()).unwrap();
    let run = session.run(&query).unwrap();
    let top = run.top().unwrap();
    assert_eq!(top.transform_attrs, vec!["bonus".to_string()], "{top}");
    let rescored = session.rescore(&run, run.alpha).unwrap();
    assert_eq!(
        signature_bits(&rescored.summaries),
        signature_bits(&run.summaries)
    );
    let swept = session.sweep_alpha(&run, &[run.alpha]).unwrap();
    assert_eq!(
        signature_bits(&swept[0].summaries),
        signature_bits(&run.summaries)
    );

    let engine = Charles::from_pair(aliased_pair(), "bonus")
        .unwrap()
        .with_condition_attrs(["edu"])
        .with_transform_attrs(["a_copy", "bonus"]);
    let base = engine.run().unwrap();
    assert_eq!(
        signature_bits(&base.summaries),
        signature_bits(&run.summaries)
    );
    let facade = engine.rescore(&base, 0.5).unwrap();
    assert_eq!(
        signature_bits(&facade.summaries),
        signature_bits(&base.summaries)
    );
}
