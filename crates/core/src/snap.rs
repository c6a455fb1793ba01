//! Constant snapping: trading a sliver of accuracy for *normality*.
//!
//! Raw OLS coefficients are rarely round ("2.479%"). The paper's normality
//! desideratum prefers constants a human policy would contain ("5%",
//! "$1000"). This module greedily replaces each fitted constant with the
//! roundest nearby candidate whose acceptance keeps the partition's mean
//! absolute error within a configured budget, re-fitting the remaining free
//! constants after each acceptance (so a snapped slope can be absorbed by
//! the intercept, exactly like a human rounding a policy).

use charles_numerics::normality::{roundness, scored_snap_candidates};
use charles_numerics::ols::{fit_constant, fit_ols_cols, LinearFit};

/// Result of snapping: the (possibly) rounded fit plus bookkeeping.
#[derive(Debug, Clone)]
pub struct SnappedFit {
    /// Final coefficients (same order as the input columns).
    pub coefficients: Vec<f64>,
    /// Final intercept.
    pub intercept: f64,
    /// Mean absolute error of the snapped model on the partition.
    pub mae: f64,
    /// How many constants were changed from their OLS values.
    pub snapped_count: usize,
}

fn mae_of(columns: &[Vec<f64>], y: &[f64], coefs: &[f64], intercept: f64) -> f64 {
    let n = y.len();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for i in 0..n {
        // lint:allow(float-fold-order: scalar reference accumulation in fixed row order)
        total += abs_residual(columns, y, coefs, intercept, i);
    }
    total / n as f64
}

/// `|prediction − y|` at row `i`, the prediction summed in column order.
fn abs_residual(columns: &[Vec<f64>], y: &[f64], coefs: &[f64], intercept: f64, i: usize) -> f64 {
    let mut pred = intercept;
    for (c, col) in coefs.iter().zip(columns.iter()) {
        pred += c * col[i];
    }
    (pred - y[i]).abs()
}

/// Rows a trial sums between checks of its running error.
const PREFIX_ROWS: usize = 64;

/// [`mae_of`] when it is within `budget`, else `None`, giving up on a
/// prefix: the terms are non-negative (or NaN, which no prefix check
/// rejects and the closing check does), and IEEE addition of a
/// non-negative term and division by `n` are monotone, so a prefix whose
/// mean over all `n` rows is already over budget is rejected exactly as
/// the full sum would be. The rows are summed in the same order as
/// [`mae_of`] sums them, so an accepted error has the same bits.
fn mae_within(
    columns: &[Vec<f64>],
    y: &[f64],
    coefs: &[f64],
    intercept: f64,
    budget: f64,
) -> Option<f64> {
    let n = y.len();
    if n == 0 {
        return (0.0 <= budget).then_some(0.0);
    }
    let mut total = 0.0;
    for start in (0..n).step_by(PREFIX_ROWS) {
        let end = (start + PREFIX_ROWS).min(n);
        for i in start..end {
            // lint:allow(float-fold-order: the same row order as `mae_of`, whose bits an accepted error keeps)
            total += abs_residual(columns, y, coefs, intercept, i);
        }
        if end < n && total / n as f64 > budget {
            return None;
        }
    }
    let err = total / n as f64;
    (err <= budget).then_some(err)
}

/// Fit the free (unsnapped) columns against the residual target after
/// subtracting fixed contributions, in `residual` (reused across calls).
/// Returns (coefficients in full order, intercept) or `None` if the
/// refit fails.
fn refit_free(
    columns: &[Vec<f64>],
    y: &[f64],
    fixed: &[Option<f64>],
    residual: &mut Vec<f64>,
) -> Option<(Vec<f64>, f64)> {
    let n = y.len();
    residual.clear();
    residual.extend_from_slice(y);
    let mut free_idx = Vec::new();
    for (j, fix) in fixed.iter().enumerate() {
        match fix {
            Some(c) => {
                for i in 0..n {
                    residual[i] -= c * columns[j][i];
                }
            }
            None => free_idx.push(j),
        }
    }
    if free_idx.is_empty() {
        let fit = fit_constant(residual).ok()?;
        let coefs: Vec<f64> = fixed.iter().map(|f| f.unwrap_or(0.0)).collect();
        return Some((coefs, fit.intercept));
    }
    let free_cols: Vec<&[f64]> = free_idx.iter().map(|&j| columns[j].as_slice()).collect();
    let fit = fit_ols_cols(&free_cols, residual).ok()?;
    let mut coefs: Vec<f64> = fixed.iter().map(|f| f.unwrap_or(0.0)).collect();
    for (slot, &j) in free_idx.iter().enumerate() {
        coefs[j] = fit.coefficients[slot];
    }
    Some((coefs, fit.intercept))
}

/// Candidates for a constant with their roundness, roundest first,
/// distance as tie-break, raw value guaranteed present. Distances below
/// 1e-9 relative are treated as zero, and ties prefer the shorter decimal
/// rendering — this is what canonicalizes a floating-point-dusted
/// `1.0499999999999696` to `1.05`. Roundness and distance are computed
/// once per candidate; a rendering only for the rare pair they tie on.
/// The sort is stable, so equal keys keep [`scored_snap_candidates`]
/// order.
fn ordered_candidates(x: f64) -> Vec<(f64, f64)> {
    let quantize = |c: f64| -> f64 {
        let d = (c - x).abs();
        if d <= 1e-9 * x.abs().max(1e-300) {
            0.0
        } else {
            d
        }
    };
    let mut keyed: Vec<(f64, f64, f64)> = scored_snap_candidates(x)
        .into_iter()
        .map(|(c, r)| (r, quantize(c), c))
        .collect();
    let rendered_len = |c: f64| format!("{c}").len();
    keyed.sort_by(|a, b| {
        b.0.total_cmp(&a.0)
            .then(a.1.total_cmp(&b.1))
            .then_with(|| rendered_len(a.2).cmp(&rendered_len(b.2)))
    });
    keyed.into_iter().map(|(r, _, c)| (c, r)).collect()
}

/// Snap a fitted model's constants.
///
/// `tolerance` is relative slack on the base fit's error: the snapped model
/// may have mean absolute error up to `base_mae × (1 + tolerance)` plus a
/// small absolute floor (`tolerance × std(y) / 1000`) that lets exact fits
/// absorb floating-point dust. Anchoring the budget to the *base error*
/// rather than the data scale is what keeps snapping honest: on exactly
/// generated data (base error ≈ 0) a genuinely different constant (1.04 →
/// 1.05) is rejected, while on noisy data the snap may move constants
/// freely within the noise floor.
pub fn snap_fit(columns: &[Vec<f64>], y: &[f64], fit: &LinearFit, tolerance: f64) -> SnappedFit {
    let p = fit.coefficients.len();
    debug_assert_eq!(columns.len(), p);
    let scale = charles_numerics::stats::std_dev(y).unwrap_or(1.0);
    let base_mae = mae_of(columns, y, &fit.coefficients, fit.intercept);
    let budget = base_mae * (1.0 + tolerance) + tolerance * scale / 1000.0 + 1e-12;

    let mut fixed: Vec<Option<f64>> = vec![None; p];
    let mut current_coefs = fit.coefficients.clone();
    let mut current_intercept = fit.intercept;
    // The error of (`current_coefs`, `current_intercept`): each accepted
    // trial's error is the error of the model it leaves.
    let mut mae = base_mae;
    let mut snapped_count = 0;
    let mut residual = Vec::with_capacity(y.len());

    // Snap slopes one at a time, largest-magnitude first (they dominate the
    // rendered transformation).
    let mut order: Vec<usize> = (0..p).collect();
    order.sort_by(|&a, &b| {
        fit.coefficients[b]
            .abs()
            .total_cmp(&fit.coefficients[a].abs())
    });
    for &j in &order {
        let raw = current_coefs[j];
        let raw_roundness = roundness(raw);
        let mut accepted = false;
        for (cand, cand_roundness) in ordered_candidates(raw) {
            if cand_roundness < raw_roundness {
                continue; // never snap to something less round
            }
            // Only slot `j` differs between trials.
            fixed[j] = Some(cand);
            let Some((coefs, intercept)) = refit_free(columns, y, &fixed, &mut residual) else {
                continue;
            };
            if let Some(err) = mae_within(columns, y, &coefs, intercept, budget) {
                if cand != raw {
                    snapped_count += 1;
                }
                current_coefs = coefs;
                current_intercept = intercept;
                mae = err;
                accepted = true;
                break;
            }
        }
        if !accepted {
            fixed[j] = Some(raw);
        }
    }

    // Snap the intercept last: all slopes are fixed now, so the candidate
    // intercept is evaluated directly.
    let raw_intercept = current_intercept;
    let raw_roundness = roundness(raw_intercept);
    for (cand, cand_roundness) in ordered_candidates(raw_intercept) {
        if cand_roundness < raw_roundness {
            continue;
        }
        if let Some(err) = mae_within(columns, y, &current_coefs, cand, budget) {
            if cand != raw_intercept {
                snapped_count += 1;
            }
            current_intercept = cand;
            mae = err;
            break;
        }
    }

    SnappedFit {
        coefficients: current_coefs,
        intercept: current_intercept,
        mae,
        snapped_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_numerics::normality::snap_candidates;
    use charles_numerics::ols::fit_ols;
    use proptest::prelude::*;

    /// `ordered_candidates` as it was before its sort keys were hoisted:
    /// roundness, quantized distance and a `format!` rendering evaluated
    /// inside the comparator.
    fn comparator_ordered_candidates(x: f64) -> Vec<f64> {
        let mut cands = snap_candidates(x);
        let quantize = |c: f64| -> f64 {
            let d = (c - x).abs();
            if d <= 1e-9 * x.abs().max(1e-300) {
                0.0
            } else {
                d
            }
        };
        cands.sort_by(|a, b| {
            roundness(*b)
                .total_cmp(&roundness(*a))
                .then(quantize(*a).total_cmp(&quantize(*b)))
                .then(format!("{a}").len().cmp(&format!("{b}").len()))
        });
        cands
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
            (-1e4f64..1e4).prop_map(|x| {
                charles_numerics::normality::round_to_significant(x, 3) * (1.0 + 3e-15)
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Hoisted keys order the candidates exactly as the comparator
        /// chain did, and carry each candidate's own roundness.
        #[test]
        fn ordered_candidates_match_comparator_sort(x in snap_input()) {
            let ordered = ordered_candidates(x);
            let bits: Vec<u64> = ordered.iter().map(|(c, _)| c.to_bits()).collect();
            let expected: Vec<u64> = comparator_ordered_candidates(x)
                .iter()
                .map(|c| c.to_bits())
                .collect();
            prop_assert_eq!(bits, expected);
            for (c, r) in ordered {
                prop_assert_eq!(r.to_bits(), roundness(c).to_bits());
            }
        }
    }

    /// [`snap_fit`] as it was before trials gave up on a prefix: a full
    /// [`mae_of`] pass per trial, a cloned `fixed` per slope trial, and a
    /// closing [`mae_of`] pass for the returned error.
    fn snap_fit_reference(
        columns: &[Vec<f64>],
        y: &[f64],
        fit: &LinearFit,
        tolerance: f64,
    ) -> SnappedFit {
        let p = fit.coefficients.len();
        let scale = charles_numerics::stats::std_dev(y).unwrap_or(1.0);
        let base_mae = mae_of(columns, y, &fit.coefficients, fit.intercept);
        let budget = base_mae * (1.0 + tolerance) + tolerance * scale / 1000.0 + 1e-12;
        let mut fixed: Vec<Option<f64>> = vec![None; p];
        let mut current_coefs = fit.coefficients.clone();
        let mut current_intercept = fit.intercept;
        let mut snapped_count = 0;
        let mut order: Vec<usize> = (0..p).collect();
        order.sort_by(|&a, &b| {
            fit.coefficients[b]
                .abs()
                .total_cmp(&fit.coefficients[a].abs())
        });
        for &j in &order {
            let raw = current_coefs[j];
            let raw_roundness = roundness(raw);
            let mut accepted = false;
            for (cand, cand_roundness) in ordered_candidates(raw) {
                if cand_roundness < raw_roundness {
                    continue;
                }
                let mut trial_fixed = fixed.clone();
                trial_fixed[j] = Some(cand);
                let refit = refit_free(columns, y, &trial_fixed, &mut Vec::new());
                if let Some((coefs, intercept)) = refit {
                    let err = mae_of(columns, y, &coefs, intercept);
                    if err <= budget {
                        if cand != raw {
                            snapped_count += 1;
                        }
                        fixed = trial_fixed;
                        current_coefs = coefs;
                        current_intercept = intercept;
                        accepted = true;
                        break;
                    }
                }
            }
            if !accepted {
                fixed[j] = Some(raw);
            }
        }
        let raw_intercept = current_intercept;
        let raw_roundness = roundness(raw_intercept);
        for (cand, cand_roundness) in ordered_candidates(raw_intercept) {
            if cand_roundness < raw_roundness {
                continue;
            }
            if mae_of(columns, y, &current_coefs, cand) <= budget {
                if cand != raw_intercept {
                    snapped_count += 1;
                }
                current_intercept = cand;
                break;
            }
        }
        let mae = mae_of(columns, y, &current_coefs, current_intercept);
        SnappedFit {
            coefficients: current_coefs,
            intercept: current_intercept,
            mae,
            snapped_count,
        }
    }

    /// A partition to snap: `p` predictor columns, a target from round
    /// constants plus optional noise, hand-edited outliers and ±∞/NaN
    /// cells, and the snapping tolerance.
    #[derive(Debug, Clone)]
    struct SnapCase {
        columns: Vec<Vec<f64>>,
        y: Vec<f64>,
        tolerance: f64,
    }

    fn snap_case() -> impl Strategy<Value = SnapCase> {
        (
            (0usize..=3, 1usize..300),
            proptest::collection::vec(0usize..8, 4),
            prop_oneof![Just(0.0), Just(1e-9), 0.0f64..5.0],
            proptest::collection::vec((0usize..400, 0usize..6), 0..6),
            (
                prop_oneof![Just(0.0), Just(0.001), Just(0.02), 0.0f64..0.1],
                any::<u64>(),
            ),
        )
            .prop_map(|((p, n), constants, noise, edits, (tolerance, seed))| {
                let round = [0.0, 0.5, 1.0, 1.05, 2.0, 0.03, 250.0, 1000.0];
                let mut state = seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64
                };
                let columns: Vec<Vec<f64>> = (0..p)
                    .map(|_| (0..n).map(|_| (next() * 5e4).round()).collect())
                    .collect();
                let mut y: Vec<f64> = (0..n)
                    .map(|i| {
                        let mut v = round[constants[3]];
                        for (j, col) in columns.iter().enumerate() {
                            v += round[constants[j]] * col[i];
                        }
                        v + noise * (next() - 0.5)
                    })
                    .collect();
                for (row, kind) in edits {
                    if let Some(v) = y.get_mut(row % n) {
                        *v = match kind {
                            0 => f64::INFINITY,
                            1 => f64::NEG_INFINITY,
                            2 => f64::NAN,
                            _ => *v * 3.0 + 7.0,
                        };
                    }
                }
                SnapCase {
                    columns,
                    y,
                    tolerance,
                }
            })
    }

    /// Residual magnitudes with long exact-zero runs, and budgets at the
    /// exact error of every 64-row prefix, so an early check that rejects
    /// at equality, or that skips the tail, shows.
    fn prefix_case() -> impl Strategy<Value = (Vec<f64>, f64)> {
        (
            proptest::collection::vec(prop_oneof![Just(0.0), Just(0.0), 0.0f64..9.0], 1..300),
            1usize..300,
            any::<usize>(),
            prop_oneof![Just(0.0), Just(-1.0), Just(1.0)],
        )
            .prop_map(|(mut y, zero_from, pick, nudge)| {
                for v in y.iter_mut().skip(zero_from) {
                    *v = 0.0;
                }
                let n = y.len() as f64;
                let mut sums = vec![0.0];
                let mut total = 0.0;
                for (i, v) in y.iter().enumerate() {
                    total += v.abs();
                    if (i + 1) % PREFIX_ROWS == 0 || i + 1 == y.len() {
                        sums.push(total);
                    }
                }
                let budget = sums[pick % sums.len()] / n;
                let budget = budget + nudge * budget * f64::EPSILON;
                (y, budget)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Prefix rejection, the carried error, the hoisted `fixed` and the
        /// reused residual buffer decide every trial as the full passes
        /// did: coefficients, intercept, error and snap count, by bits.
        #[test]
        fn snap_fit_matches_full_pass_reference(case in snap_case()) {
            let SnapCase { columns, y, tolerance } = &case;
            let clean: Vec<f64> = y.iter().map(|v| if v.is_finite() { *v } else { 0.0 }).collect();
            let fit = if columns.len() < y.len() && !columns.is_empty() {
                fit_ols(columns, &clean).unwrap_or_else(|_| fit_constant(&clean).unwrap())
            } else {
                fit_constant(&clean).unwrap()
            };
            let used: &[Vec<f64>] = if fit.coefficients.is_empty() { &[] } else { columns };
            let got = snap_fit(used, y, &fit, *tolerance);
            let want = snap_fit_reference(used, y, &fit, *tolerance);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.coefficients), bits(&want.coefficients));
            prop_assert_eq!(got.intercept.to_bits(), want.intercept.to_bits());
            prop_assert_eq!(got.mae.to_bits(), want.mae.to_bits());
            prop_assert_eq!(got.snapped_count, want.snapped_count);
        }

        /// A trial checked on prefixes accepts exactly when the full error
        /// is within budget, and then with the full error's bits.
        #[test]
        fn prefix_check_decides_as_full_pass((y, budget) in prefix_case()) {
            let full = mae_of(&[], &y, &[], 0.0);
            let want = (full <= budget).then_some(full.to_bits());
            let got = mae_within(&[], &y, &[], 0.0, budget).map(f64::to_bits);
            prop_assert_eq!(got, want);
        }
    }

    /// Helper: OLS then snap.
    fn fit_and_snap(columns: &[Vec<f64>], y: &[f64], tol: f64) -> SnappedFit {
        let fit = fit_ols(columns, y).unwrap();
        snap_fit(columns, y, &fit, tol)
    }

    #[test]
    fn exact_constants_stay_exact() {
        // y = 1.05 x + 1000 exactly: snapping must not disturb it.
        let x: Vec<f64> = vec![23_000.0, 25_000.0, 21_000.0, 16_000.0];
        let y: Vec<f64> = x.iter().map(|v| 1.05 * v + 1000.0).collect();
        let s = fit_and_snap(std::slice::from_ref(&x), &y, 0.02);
        assert!((s.coefficients[0] - 1.05).abs() < 1e-9, "{:?}", s);
        assert!((s.intercept - 1000.0).abs() < 1e-6);
        assert!(s.mae < 1e-6);
    }

    #[test]
    fn noisy_constants_snap_to_round_values() {
        // Data generated by y = 1.05 x + 1000 with small noise: raw OLS
        // gives ragged constants, snapping should restore the round ones.
        let x: Vec<f64> = (0..40).map(|i| 10_000.0 + 500.0 * i as f64).collect();
        let noise = [13.0, -11.0, 7.0, -5.0, 9.0, -13.0, 3.0, -7.0];
        let y: Vec<f64> = x
            .iter()
            .enumerate()
            .map(|(i, v)| 1.05 * v + 1000.0 + noise[i % noise.len()])
            .collect();
        let s = fit_and_snap(&[x], &y, 0.02);
        assert!(
            (s.coefficients[0] - 1.05).abs() < 1e-9,
            "coef = {}",
            s.coefficients[0]
        );
        assert_eq!(s.intercept, 1000.0);
        assert!(s.snapped_count >= 1);
    }

    #[test]
    fn zero_tolerance_only_free_snaps() {
        let x: Vec<f64> = (0..10).map(|i| i as f64).collect();
        // y = 1.2340567 x: no round value reproduces it.
        let y: Vec<f64> = x.iter().map(|v| 1.234_056_7 * v).collect();
        let s = fit_and_snap(&[x], &y, 0.0);
        assert!(
            (s.coefficients[0] - 1.234_056_7).abs() < 1e-7,
            "coef = {}",
            s.coefficients[0]
        );
    }

    #[test]
    fn exact_but_different_constants_not_rewritten() {
        // y = 1.98x + 3 exactly: 2.0 is rounder than 1.98, but the data
        // says 1.98 — snapping must not rewrite real structure even with a
        // generous tolerance (the budget anchors on the base error, ≈ 0).
        let x: Vec<f64> = (0..30).map(|i| 100.0 + i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 1.98 * v + 3.0).collect();
        let generous = fit_and_snap(std::slice::from_ref(&x), &y, 0.05);
        assert!(
            (generous.coefficients[0] - 1.98).abs() < 1e-9,
            "{generous:?}"
        );
        assert!((generous.intercept - 3.0).abs() < 1e-6);
        let strict = fit_and_snap(&[x], &y, 1e-6);
        assert!((strict.coefficients[0] - 1.98).abs() < 1e-9);
    }

    #[test]
    fn numerical_dust_canonicalized() {
        // Coefficients that are 1.05 up to floating-point dust must render
        // as exactly 1.05 after snapping.
        let x = vec![23_000.0, 25_000.0, 21_000.0];
        let y: Vec<f64> = x.iter().map(|v| 1.05 * v + 1000.0).collect();
        let s = fit_and_snap(&[x], &y, 0.02);
        assert_eq!(s.coefficients[0], 1.05);
        assert_eq!(s.intercept, 1000.0);
    }

    #[test]
    fn constant_only_model_snaps_intercept() {
        let y = vec![996.8, 1003.1, 1001.4, 998.7];
        let fit = fit_constant(&y).unwrap();
        let s = snap_fit(&[], &y, &fit, 0.02);
        assert_eq!(s.intercept, 1000.0);
        assert!(s.coefficients.is_empty());
    }

    #[test]
    fn two_predictor_snapping() {
        // y = 0.1 a + 2 b + 500 exactly.
        let a: Vec<f64> = (0..25).map(|i| 50_000.0 + 1_000.0 * i as f64).collect();
        let b: Vec<f64> = (0..25).map(|i| (i % 7) as f64 * 3.0).collect();
        let y: Vec<f64> = a
            .iter()
            .zip(b.iter())
            .map(|(&x1, &x2)| 0.1 * x1 + 2.0 * x2 + 500.0)
            .collect();
        let s = fit_and_snap(&[a, b], &y, 0.01);
        assert!((s.coefficients[0] - 0.1).abs() < 1e-9);
        assert!((s.coefficients[1] - 2.0).abs() < 1e-9);
        assert!((s.intercept - 500.0).abs() < 1e-9);
        assert!(s.mae < 1e-6);
    }

    #[test]
    fn empty_target_is_safe() {
        let fit = LinearFit {
            intercept: 1.0,
            coefficients: vec![],
            r_squared: 1.0,
            residuals: vec![],
            ridge_lambda: 0.0,
        };
        let s = snap_fit(&[], &[], &fit, 0.1);
        assert_eq!(s.mae, 0.0);
    }
}
