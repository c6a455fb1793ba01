//! Property-based tests for core components: scoring bounds, condition
//! compilation, constant snapping budgets.

use charles_core::snap::snap_fit;
use charles_core::{
    CharlesConfig, Condition, Descriptor, ManagerConfig, ScoringContext, SessionManager, Term,
    Transformation,
};
use charles_numerics::ols::fit_ols;
use charles_numerics::stats::{mean, std_dev};
use charles_relation::{TableBuilder, Value};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snap_respects_error_budget(
        xs in proptest::collection::vec(1.0f64..1e5, 4..30),
        slope in -10.0f64..10.0,
        intercept in -1e4f64..1e4,
        noise in proptest::collection::vec(-50.0f64..50.0, 4..30),
        tol in 0.0f64..0.1,
    ) {
        let n = xs.len().min(noise.len());
        let xs = &xs[..n];
        let mx = mean(xs).unwrap();
        prop_assume!(xs.iter().any(|v| (v - mx).abs() > 1.0));
        let y: Vec<f64> = xs.iter().zip(noise.iter())
            .map(|(&x, &e)| slope * x + intercept + e)
            .collect();
        let fit = fit_ols(&[xs.to_vec()], &y).unwrap();
        let base_mae = fit.mean_abs_error();
        let snapped = snap_fit(&[xs.to_vec()], &y, &fit, tol);
        let budget = base_mae * (1.0 + tol)
            + tol * std_dev(&y).unwrap_or(1.0) / 1000.0
            + 1e-9;
        prop_assert!(
            snapped.mae <= budget,
            "snapped mae {} exceeds budget {}", snapped.mae, budget
        );
    }

    #[test]
    fn transformation_apply_matches_formula(
        coef in -10.0f64..10.0,
        add in -1e4f64..1e4,
        vals in proptest::collection::vec(0.0f64..1e5, 1..20),
    ) {
        let table = TableBuilder::new("t")
            .float_col("x", &vals)
            .build()
            .unwrap();
        let t = Transformation::linear(
            "x",
            vec![Term { attr: "x".into(), coefficient: coef }],
            add,
        );
        let rows: Vec<usize> = (0..vals.len()).collect();
        let out = t.apply(&table, "x", &rows).unwrap();
        for (o, &v) in out.iter().zip(vals.iter()) {
            prop_assert!((o - (coef * v + add)).abs() < 1e-9 * (1.0 + o.abs()));
        }
    }

    #[test]
    fn condition_rows_match_predicate(
        cats in proptest::collection::vec(0usize..3, 1..30),
        threshold in 0.0f64..100.0,
        nums in proptest::collection::vec(0.0f64..100.0, 1..30),
    ) {
        let n = cats.len().min(nums.len());
        let labels: Vec<&str> = cats[..n].iter().map(|&c| ["A", "B", "C"][c]).collect();
        let table = TableBuilder::new("t")
            .str_col("cat", &labels)
            .float_col("num", &nums[..n])
            .build()
            .unwrap();
        let cond = Condition::new(vec![
            Descriptor::Equals { attr: "cat".into(), value: Value::str("A") },
            Descriptor::LessThan { attr: "num".into(), threshold },
        ]);
        let rows = cond.matching_rows(&table).unwrap();
        for r in 0..n {
            let expected = labels[r] == "A" && nums[r] < threshold;
            prop_assert_eq!(rows.contains(&r), expected, "row {}", r);
        }
    }

    #[test]
    fn scores_always_bounded(
        y_source in proptest::collection::vec(1.0f64..1e5, 2..30),
        deltas in proptest::collection::vec(-1e4f64..1e4, 2..30),
    ) {
        let n = y_source.len().min(deltas.len());
        let y_source = &y_source[..n];
        let y_target: Vec<f64> = y_source.iter().zip(deltas.iter())
            .map(|(s, d)| s + d)
            .collect();
        let table = TableBuilder::new("t")
            .float_col("x", y_source)
            .build()
            .unwrap();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&table, "x", &y_target, y_source, &config);
        // Score the trivial no-change CT list.
        let ct = charles_core::ConditionalTransformation::new(
            Condition::all(),
            Transformation::Identity,
            (0..n).collect(),
            n,
            0.0,
        );
        let (scores, breakdown) = ctx.score(&[ct]).unwrap();
        prop_assert!((0.0..=1.0).contains(&scores.accuracy));
        prop_assert!((0.0..=1.0).contains(&scores.interpretability));
        prop_assert!((0.0..=1.0).contains(&scores.score));
        for s in [breakdown.size, breakdown.simplicity, breakdown.coverage, breakdown.normality] {
            prop_assert!((0.0..=1.0).contains(&s));
        }
    }
}

/// A byte run that breaks CSV structure: quotes, separators, line
/// endings, a BOM.
fn csv_noise() -> BoxedStrategy<&'static str> {
    prop_oneof![
        Just("\""),
        Just(","),
        Just("\r"),
        Just("\n"),
        Just("\r\n"),
        Just("\u{feff}")
    ]
    .boxed()
}

/// Fuzzed CSV text: `name,x` records with numbers, floats, booleans,
/// currency, quoted fields and nulls, spliced with noise that breaks the
/// header, the quoting, the row width or the key's uniqueness.
fn fuzzed_csv() -> impl Strategy<Value = String> {
    let cell = prop_oneof![
        4 => Just("1"),
        3 => Just("2.5"),
        2 => Just("yes"),
        2 => Just(""),
        2 => Just("a"),
        1 => Just("\"q,\"\"r\"\"\""),
        1 => Just(" "),
        1 => Just("$3")
    ];
    let row = (
        0usize..8,
        cell,
        prop_oneof![8 => Just(""), 1 => csv_noise()],
        prop_oneof![Just("\n"), Just("\r\n")],
    );
    let header = prop_oneof![
        6 => Just("name,x\n"),
        2 => Just("\u{feff}name,x\r\n"),
        1 => csv_noise()
    ];
    (header, proptest::collection::vec(row, 0..12)).prop_map(|(header, rows)| {
        let mut doc = header.to_string();
        for (i, (dup, x, noise, end)) in rows.iter().enumerate() {
            // Mostly unique keys; `n0` repeats now and then.
            let name = if *dup == 0 { 0 } else { i };
            doc.push_str(&format!("n{name},{x}{noise}{end}"));
        }
        doc
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CSV ingress through `DatasetSpec::CsvInline`: any text registers or
    /// returns a typed error, never a panic.
    #[test]
    fn inline_csv_ingest_never_panics(
        source in fuzzed_csv(),
        other in fuzzed_csv(),
        same in any::<bool>(),
        keyed in any::<bool>(),
    ) {
        let target = if same { source.clone() } else { other };
        let manager = SessionManager::new(ManagerConfig::default());
        let key = keyed.then(|| "name".to_string());
        let registered = manager.register_csv_inline("fuzz", source, target, key);
        prop_assert_eq!(manager.contains("fuzz"), registered.is_ok());
    }
}
