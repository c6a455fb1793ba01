//! Property-based tests for the numeric substrate.

use charles_numerics::normality::{
    round_to_significant, roundness, scored_snap_candidates, snap_candidates,
};
use charles_numerics::ols::{fit_ols, r_squared};
use charles_numerics::stats::{mean, quantile, ranks};
use charles_numerics::{pearson, spearman};
use proptest::prelude::*;

/// Quantile inputs: spread values, signed zeros, both NaN signs, and a
/// small pool of repeated values.
fn quantile_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        4 => -1e6f64..1e6,
        1 => Just(0.0),
        1 => Just(-0.0),
        1 => Just(f64::NAN),
        1 => Just(-f64::NAN),
        4 => (0usize..3).prop_map(|i| [1.5, -2.25, 7.0][i]),
    ]
}

/// The sort-based quantile `quantile` replaced: the same interpolation
/// over a `total_cmp`-sorted copy.
fn sorted_quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi {
        return sorted[lo];
    }
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Constants to snap: floating-point-dusted round values, negatives,
/// zeros, subnormals, infinities, NaN, and plain ranges.
fn snap_input() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1.0499999999999696),
        Just(0.0),
        Just(-0.0),
        Just(5e-324),
        Just(-2.5e-310),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        -1e9f64..1e9,
        -2.0f64..2.0,
        (-1e4f64..1e4).prop_map(|x| round_to_significant(x, 3) * (1.0 + 3e-15)),
    ]
}

/// `roundness` as it was before the decimal magnitude and each rounding
/// were computed once per call.
fn reference_roundness(x: f64) -> f64 {
    if !x.is_finite() {
        return 0.0;
    }
    if x == 0.0 {
        return 1.0;
    }
    const SCORES: [f64; 7] = [1.0, 0.85, 0.65, 0.4, 0.2, 0.1, 0.0];
    let d = (1..=7)
        .find(|&d| {
            round_to_significant(x, d) == x || ((round_to_significant(x, d) - x) / x).abs() < 1e-9
        })
        .unwrap_or(8) as usize;
    let base = SCORES[(d - 1).min(6)];
    if (2..=7).contains(&d) {
        let magnitude = x.abs().log10().floor();
        let scaled = (x.abs() * 10f64.powf(d as f64 - 1.0 - magnitude)).round();
        if (scaled % 10.0) as u8 == 5 {
            return (SCORES[d - 2] + base) / 2.0;
        }
    }
    base
}

/// `snap_candidates` as it was before its sort keys were hoisted:
/// roundness re-evaluated inside the comparator, then a hash-set
/// deduplication.
fn comparator_snap_candidates(x: f64) -> Vec<f64> {
    if !x.is_finite() {
        return vec![x];
    }
    let mut cands: Vec<f64> = (1..=3).map(|d| round_to_significant(x, d)).collect();
    let magnitude = if x == 0.0 {
        0.0
    } else {
        x.abs().log10().floor()
    };
    let grids: &[f64] = if magnitude < 1.0 {
        &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5]
    } else if magnitude < 3.0 {
        &[0.25, 0.5, 1.0, 5.0, 10.0, 25.0, 50.0, 100.0]
    } else {
        &[10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 5000.0]
    };
    for &g in grids {
        cands.push((x / g).round() * g);
    }
    cands.push(x);
    cands.sort_by(|a, b| {
        (a - x)
            .abs()
            .total_cmp(&(b - x).abs())
            .then(roundness(*b).total_cmp(&roundness(*a)))
    });
    let mut seen = std::collections::HashSet::new();
    cands.retain(|c| seen.insert(c.to_bits()));
    cands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn ols_recovers_exact_affine(
        xs in proptest::collection::vec(-1e5f64..1e5, 3..40),
        slope in -100.0f64..100.0,
        intercept in -1e5f64..1e5,
    ) {
        // Require variance in x so the relation is identifiable.
        let mx = mean(&xs).unwrap();
        prop_assume!(xs.iter().any(|v| (v - mx).abs() > 1.0));
        let y: Vec<f64> = xs.iter().map(|&x| slope * x + intercept).collect();
        let fit = fit_ols(std::slice::from_ref(&xs), &y).unwrap();
        let scale = slope.abs().max(1.0);
        prop_assert!(
            (fit.coefficients[0] - slope).abs() < 1e-6 * scale,
            "slope {} vs {}", fit.coefficients[0], slope
        );
        prop_assert!(fit.r_squared > 1.0 - 1e-6);
    }

    #[test]
    fn ols_residuals_sum_to_zero(
        xs in proptest::collection::vec(-1e4f64..1e4, 4..30),
        ys in proptest::collection::vec(-1e4f64..1e4, 4..30),
    ) {
        let n = xs.len().min(ys.len());
        let xs = &xs[..n];
        let ys = &ys[..n];
        let mx = mean(xs).unwrap();
        prop_assume!(xs.iter().any(|v| (v - mx).abs() > 1.0));
        let fit = fit_ols(&[xs.to_vec()], ys).unwrap();
        // With an intercept, OLS residuals are mean-zero.
        let mean_resid = fit.residuals.iter().sum::<f64>() / n as f64;
        let scale = ys.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!(mean_resid.abs() < 1e-6 * scale, "mean residual {mean_resid}");
    }

    #[test]
    fn quantile_within_bounds(
        xs in prop_oneof![
            proptest::collection::vec(quantile_value(), 1..=2),
            proptest::collection::vec(quantile_value(), 1..50),
        ],
        q in prop_oneof![Just(0.0), Just(0.5), Just(1.0), 0.0f64..=1.0],
    ) {
        let v = quantile(&xs, q).unwrap();
        // Selection reads the same order statistics as a full sort, bit
        // for bit, even among NaNs and signed zeros.
        prop_assert_eq!(v.to_bits(), sorted_quantile(&xs, q).to_bits());
        if xs.iter().all(|x| x.is_finite()) {
            let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
            // Monotone in q.
            let v2 = quantile(&xs, (q + 0.1).min(1.0)).unwrap();
            prop_assert!(v2 >= v - 1e-12);
        }
    }

    #[test]
    fn roundness_matches_reference(x in snap_input()) {
        prop_assert_eq!(roundness(x).to_bits(), reference_roundness(x).to_bits());
        let cands = snap_candidates(x);
        for c in cands {
            prop_assert_eq!(roundness(c).to_bits(), reference_roundness(c).to_bits());
        }
    }

    #[test]
    fn snap_candidates_match_comparator_sort(x in snap_input()) {
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<u64>>();
        let expected = bits(&comparator_snap_candidates(x));
        prop_assert_eq!(bits(&snap_candidates(x)), expected.clone());
        let scored = scored_snap_candidates(x);
        let (cands, scores): (Vec<f64>, Vec<f64>) = scored.into_iter().unzip();
        prop_assert_eq!(bits(&cands), expected);
        let rounded: Vec<f64> = cands.iter().map(|&c| roundness(c)).collect();
        prop_assert_eq!(bits(&scores), bits(&rounded));
    }

    #[test]
    fn ranks_are_valid(xs in proptest::collection::vec(-1e6f64..1e6, 0..50)) {
        let r = ranks(&xs);
        prop_assert_eq!(r.len(), xs.len());
        if !xs.is_empty() {
            let n = xs.len() as f64;
            // Ranks sum to n(n+1)/2 regardless of ties.
            let sum: f64 = r.iter().sum();
            prop_assert!((sum - n * (n + 1.0) / 2.0).abs() < 1e-6);
            for &v in &r {
                prop_assert!((1.0..=n).contains(&v));
            }
        }
    }

    #[test]
    fn pearson_symmetric_and_bounded(
        xs in proptest::collection::vec(-1e4f64..1e4, 2..40),
        ys in proptest::collection::vec(-1e4f64..1e4, 2..40),
    ) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let a = pearson(xs, ys).unwrap();
        let b = pearson(ys, xs).unwrap();
        prop_assert!((a - b).abs() < 1e-12);
        prop_assert!((-1.0..=1.0).contains(&a));
        let s = spearman(xs, ys).unwrap();
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn roundness_bounded_and_rounding_helps(x in -1e9f64..1e9) {
        let r = roundness(x);
        prop_assert!((0.0..=1.0).contains(&r));
        let rounded = round_to_significant(x, 1);
        prop_assert!(roundness(rounded) >= r - 1e-12,
            "rounding {x} to {rounded} lowered roundness");
    }

    #[test]
    fn snap_candidates_always_contain_raw(x in -1e9f64..1e9) {
        let cands = snap_candidates(x);
        prop_assert!(!cands.is_empty());
        prop_assert!(cands.contains(&x));
    }

    #[test]
    fn r_squared_at_most_one(
        ys in proptest::collection::vec(-1e4f64..1e4, 1..30),
    ) {
        // Perfect predictions give exactly 1.
        prop_assert!((r_squared(&ys, &ys) - 1.0).abs() < 1e-12);
    }
}
