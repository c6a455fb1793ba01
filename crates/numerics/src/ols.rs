//! Ordinary least squares — the workhorse of ChARLES transformation
//! discovery.
//!
//! Fits `y ≈ β₀ + β₁x₁ + … + βₚxₚ` by solving the normal equations with
//! Cholesky; if the Gram matrix is (near-)singular — common on tiny
//! partitions or collinear predictors — retries with ridge regularization,
//! escalating λ until the system solves.
//!
//! ## One pass over the rows
//!
//! [`fit_ols_cols`] validates its input and derives per-column
//! conditioning scales ([`conditioning_scales`]: one fused
//! [`crate::kernels::max_abs_finite`] pass per column), then builds the
//! normal equations of the scaled design with [`gram`], solves, and
//! unscales. [`gram`] walks the rows in fixed 128-row blocks: each block's
//! column windows are pre-scaled once into a column-major stage, and each
//! `XᵀX`/`Xᵀy` entry's share of the block is one [`crate::kernels::dot`]
//! over two staged columns — [`crate::kernels::LANES`] independent partial
//! sums folded in a fixed order, which the autovectorizer turns into packed
//! FMAs. Block shares are added into the totals in block order, so the
//! order of every floating-point operation depends only on the input
//! slices, never on the caller.
//!
//! [`gram_scalar`] is the pre-kernel scalar row walk, kept as the reference
//! the kernel bench and the property suite compare [`gram`] against. Its
//! fold order differs (floating-point addition is not associative), so the
//! two agree within rounding tolerance, not bit for bit.

use crate::error::{NumericsError, Result};
use crate::kernels;
use crate::matrix::Matrix;
use crate::solve::solve_cholesky;

/// Rows per accumulation block of [`gram`]. A multiple of
/// [`kernels::LANES`], so full blocks have no sub-lane tail.
const GRAM_BLOCK_ROWS: usize = 128;

const _: () = assert!(GRAM_BLOCK_ROWS.is_multiple_of(kernels::LANES));

/// A fitted linear model `y = intercept + Σ coef[i]·x[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearFit {
    /// Intercept term β₀.
    pub intercept: f64,
    /// Slope coefficients β₁..βₚ, one per predictor column.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data (1 = perfect;
    /// may be negative for pathological fits on ridge fallback).
    pub r_squared: f64,
    /// Training residuals `y_i − ŷ_i` in input order.
    pub residuals: Vec<f64>,
    /// Ridge λ that was needed (0.0 = plain OLS succeeded).
    pub ridge_lambda: f64,
}

impl LinearFit {
    /// Predict for one observation (`x.len()` must equal predictor count).
    pub fn predict(&self, x: &[f64]) -> f64 {
        // lint:allow(float-fold-order: row-order scalar dot is the pinned prediction semantics; input order is fixed by the slice)
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x.iter())
                .map(|(&c, &v)| c * v)
                .sum::<f64>()
    }

    /// Predict for columns of predictor data.
    pub fn predict_columns(&self, columns: &[Vec<f64>]) -> Result<Vec<f64>> {
        let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        self.predict_cols(&cols)
    }

    /// Slice-of-slices variant of [`LinearFit::predict_columns`].
    pub fn predict_cols(&self, columns: &[&[f64]]) -> Result<Vec<f64>> {
        if columns.len() != self.coefficients.len() {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{} predictor columns", self.coefficients.len()),
                found: format!("{}", columns.len()),
            });
        }
        let n = columns.first().map_or(0, |c| c.len());
        let mut out = vec![self.intercept; n];
        for (&c, col) in self.coefficients.iter().zip(columns.iter()) {
            if col.len() != n {
                return Err(NumericsError::DimensionMismatch {
                    expected: format!("{n} rows"),
                    found: format!("{} rows", col.len()),
                });
            }
            kernels::axpy(&mut out, c, col);
        }
        Ok(out)
    }

    /// Mean absolute residual (L1 error / n) on training data.
    pub fn mean_abs_error(&self) -> f64 {
        if self.residuals.is_empty() {
            return 0.0;
        }
        // lint:allow(float-fold-order: residuals are in canonical row order; sequential sum is the pinned scalar semantics)
        self.residuals.iter().map(|r| r.abs()).sum::<f64>() / self.residuals.len() as f64
    }

    /// Maximum absolute residual on training data.
    pub fn max_abs_error(&self) -> f64 {
        // lint:allow(float-fold-order: max-fold is order-insensitive for the finite residuals it sees)
        self.residuals.iter().fold(0.0, |m, r| m.max(r.abs()))
    }
}

/// Compute R² of predictions against observations (lane-accumulated
/// sums; see [`crate::kernels`]).
pub fn r_squared(y: &[f64], y_hat: &[f64]) -> f64 {
    let n = y.len();
    if n == 0 {
        return 1.0;
    }
    let mean = kernels::sum(y) / n as f64;
    let ss_tot = kernels::sum_sq_dev(y, mean);
    let ss_res = kernels::sum_sq_diff(y, y_hat);
    if ss_tot == 0.0 {
        // Constant target: perfect iff we predict the constant.
        return if ss_res < 1e-18 { 1.0 } else { 0.0 };
    }
    1.0 - ss_res / ss_tot
}

/// Escalating ridge penalties tried after plain OLS fails.
const RIDGE_LADDER: [f64; 4] = [1e-8, 1e-4, 1e-1, 1.0];

/// Fit `y` on predictor columns with an intercept.
///
/// Requires at least `p + 1` observations for `p` predictors (otherwise the
/// system is underdetermined even with the intercept).
pub fn fit_ols(columns: &[Vec<f64>], y: &[f64]) -> Result<LinearFit> {
    let cols: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
    fit_ols_cols(&cols, y)
}

/// Slice-of-slices variant of [`fit_ols`] — the zero-copy entry point: the
/// search hot path hands borrowed column views straight in, without
/// cloning whole columns per candidate.
///
/// Validates and scales the input ([`conditioning_scales`]), accumulates
/// the normal equations ([`gram`]), solves them with Cholesky and the ridge
/// ladder, unscales the coefficients, and computes residuals and R².
pub fn fit_ols_cols(columns: &[&[f64]], y: &[f64]) -> Result<LinearFit> {
    let scales = conditioning_scales(columns, y)?;
    let (mut xtx, xty) = gram(columns, y, &scales);
    let d = columns.len() + 1;
    // Mirror the upper triangle.
    for i in 0..d {
        for j in 0..i {
            xtx[i * d + j] = xtx[j * d + i];
        }
    }
    let gram = Matrix::from_rows(d, d, xtx)?;

    let mut beta: Option<Vec<f64>> = None;
    let mut used_lambda = 0.0;
    match solve_cholesky(&gram, &xty) {
        Ok(b) => beta = Some(b),
        Err(_) => {
            for &lambda in &RIDGE_LADDER {
                let mut g = gram.clone();
                // Regularize slopes only; leave the intercept unpenalized.
                for i in 1..g.rows() {
                    g[(i, i)] += lambda;
                }
                if let Ok(b) = solve_cholesky(&g, &xty) {
                    beta = Some(b);
                    used_lambda = lambda;
                    break;
                }
            }
        }
    }
    let beta = beta.ok_or_else(|| {
        NumericsError::Singular("normal equations unsolvable even with ridge".to_string())
    })?;

    let intercept = beta[0];
    let coefficients: Vec<f64> = beta[1..]
        .iter()
        .zip(scales.iter())
        .map(|(&b, &s)| b / s)
        .collect();

    let fit = LinearFit {
        intercept,
        coefficients,
        r_squared: 0.0,
        residuals: Vec::new(),
        ridge_lambda: used_lambda,
    };
    let y_hat = fit.predict_cols(columns)?;
    let residuals: Vec<f64> = y.iter().zip(y_hat.iter()).map(|(a, b)| a - b).collect();
    let r2 = r_squared(y, &y_hat);
    Ok(LinearFit {
        residuals,
        r_squared: r2,
        ..fit
    })
}

/// Validate a regression input and derive its conditioning scales.
///
/// The checks run in a fixed order and the first failure is returned:
/// ragged columns ([`NumericsError::DimensionMismatch`]), fewer than
/// `p + 1` rows ([`NumericsError::InsufficientData`]), then a non-finite
/// value in `y` or any column ([`NumericsError::InvalidArgument`]). Each
/// scale is the column's max-|x|, or 1.0 for an all-zero column. Every
/// column is read once, by the fused [`kernels::max_abs_finite`] pass,
/// whose `max` fold is exact under any order.
pub fn conditioning_scales(columns: &[&[f64]], y: &[f64]) -> Result<Vec<f64>> {
    let n = y.len();
    for c in columns {
        if c.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{n} rows"),
                found: format!("{} rows", c.len()),
            });
        }
    }
    let p = columns.len();
    if n < p + 1 {
        return Err(NumericsError::InsufficientData {
            needed: p + 1,
            got: n,
        });
    }
    let (_, mut finite) = kernels::max_abs_finite(y);
    let scales: Vec<f64> = columns
        .iter()
        .map(|c| {
            let (m, fin) = kernels::max_abs_finite(c);
            finite &= fin;
            if m > 0.0 {
                m
            } else {
                1.0
            }
        })
        .collect();
    if !finite {
        return Err(NumericsError::InvalidArgument(
            "non-finite value in regression input".to_string(),
        ));
    }
    Ok(scales)
}

/// The normal equations of the scaled design `[1 | x₁/s₁ … xₚ/sₚ]`
/// (`d = p + 1` columns with the intercept): the row-major `d × d` upper
/// triangle of `XᵀX` (entries below the diagonal are `0.0`) and `Xᵀy`.
///
/// Rows are walked in blocks of 128. Within a block:
///
/// 1. every design column's window — the intercept's ones and each
///    predictor divided by its scale — is staged **once** into a
///    column-major scratch (one divide per value, then the value is reused
///    across every entry that reads it);
/// 2. each upper-triangle `XᵀX` entry and each `Xᵀy` entry gets one
///    [`kernels::dot`] over two staged windows, added straight into its
///    total.
///
/// Totals start at `0.0` and take block shares in block order.
// lint:allow(float-fold-order: block shares are added into the totals in block order, the one fixed order of every fit)
pub fn gram(columns: &[&[f64]], y: &[f64], scales: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let n = y.len();
    let d = columns.len() + 1;
    let mut xtx = vec![0.0f64; d * d];
    let mut xty = vec![0.0f64; d];
    // Column-major block stage: window `i` of the scaled design lives at
    // `stage[i * GRAM_BLOCK_ROWS..][..len]`. Window 0 (the intercept's
    // ones) is written once and never overwritten — trailing rows of a
    // short final block are simply not read.
    let mut stage = vec![0.0f64; d * GRAM_BLOCK_ROWS];
    stage[..GRAM_BLOCK_ROWS].fill(1.0);
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + GRAM_BLOCK_ROWS).min(n);
        let len = hi - lo;
        let (_ones, predictors) = stage.split_at_mut(GRAM_BLOCK_ROWS);
        for (dst, (c, &s)) in predictors
            .chunks_exact_mut(GRAM_BLOCK_ROWS)
            .zip(columns.iter().zip(scales.iter()))
        {
            kernels::scale_into(&mut dst[..len], &c[lo..hi], s);
        }
        let yb = &y[lo..hi];
        for i in 0..d {
            let ci = &stage[i * GRAM_BLOCK_ROWS..i * GRAM_BLOCK_ROWS + len];
            for j in i..d {
                let cj = &stage[j * GRAM_BLOCK_ROWS..j * GRAM_BLOCK_ROWS + len];
                xtx[i * d + j] += kernels::dot(ci, cj);
            }
            xty[i] += kernels::dot(ci, yb);
        }
        lo = hi;
    }
    (xtx, xty)
}

/// The pre-kernel scalar reference for [`gram`]: a per-row `x_row` staging
/// pass feeding a scalar triangle walk with zero-skip branches, same
/// output layout. Kept for the kernel bench (`bench_search` asserts the
/// blocked kernel's speedup over this) and the property suite's tolerance
/// comparison — its fold order differs from the kernel's, so agreement on
/// finite data is within rounding, not bit-exact.
pub fn gram_scalar(columns: &[&[f64]], y: &[f64], scales: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let d = columns.len() + 1;
    let mut xtx = vec![0.0f64; d * d];
    let mut xty = vec![0.0f64; d];
    let mut x_row = vec![1.0f64; d];
    for (r, &yr) in y.iter().enumerate() {
        for (slot, (c, &s)) in x_row[1..].iter_mut().zip(columns.iter().zip(scales.iter())) {
            *slot = c[r] / s;
        }
        for i in 0..d {
            let a = x_row[i];
            if a == 0.0 {
                continue;
            }
            let row = &mut xtx[i * d..(i + 1) * d];
            for j in i..d {
                // lint:allow(float-fold-order: scalar row-walk reference the blocked gram kernel is tested against)
                row[j] += a * x_row[j];
            }
        }
        if yr != 0.0 {
            for (o, &a) in xty.iter_mut().zip(x_row.iter()) {
                *o += a * yr;
            }
        }
    }
    (xtx, xty)
}

/// Fit a constant model `y = c` (no predictors): `c` is the mean of `y`.
/// This is the degenerate transformation "set everything to c" and also the
/// fallback when no transformation attributes are available.
pub fn fit_constant(y: &[f64]) -> Result<LinearFit> {
    if y.is_empty() {
        return Err(NumericsError::InsufficientData { needed: 1, got: 0 });
    }
    // lint:allow(float-fold-order: sequential row-order sum is the pinned constant-fit semantics)
    let mean = y.iter().sum::<f64>() / y.len() as f64;
    let residuals: Vec<f64> = y.iter().map(|v| v - mean).collect();
    let y_hat = vec![mean; y.len()];
    Ok(LinearFit {
        intercept: mean,
        coefficients: Vec::new(),
        r_squared: r_squared(y, &y_hat),
        residuals,
        ridge_lambda: 0.0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_affine_relation() {
        // The paper's R1: y = 1.05 x + 1000, exactly.
        let x: Vec<f64> = vec![23_000.0, 25_000.0, 21_000.0, 18_000.0];
        let y: Vec<f64> = x.iter().map(|v| 1.05 * v + 1000.0).collect();
        let fit = fit_ols(&[x], &y).unwrap();
        assert!((fit.coefficients[0] - 1.05).abs() < 1e-9);
        assert!((fit.intercept - 1000.0).abs() < 1e-4);
        assert!(fit.r_squared > 0.999_999);
        assert!(fit.max_abs_error() < 1e-6);
        assert_eq!(fit.ridge_lambda, 0.0);
    }

    #[test]
    fn recovers_two_predictor_relation() {
        // y = 0.1·salary + 200·exp + 50
        let salary = vec![230_000.0, 250_000.0, 160_000.0, 130_000.0, 110_000.0];
        let exp = vec![2.0, 3.0, 5.0, 1.0, 2.0];
        let y: Vec<f64> = salary
            .iter()
            .zip(exp.iter())
            .map(|(&s, &e)| 0.1 * s + 200.0 * e + 50.0)
            .collect();
        let fit = fit_ols(&[salary, exp], &y).unwrap();
        assert!((fit.coefficients[0] - 0.1).abs() < 1e-9);
        assert!((fit.coefficients[1] - 200.0).abs() < 1e-6);
        assert!((fit.intercept - 50.0).abs() < 1e-4);
    }

    #[test]
    fn predict_matches_formula() {
        let fit = LinearFit {
            intercept: 10.0,
            coefficients: vec![2.0, -1.0],
            r_squared: 1.0,
            residuals: vec![],
            ridge_lambda: 0.0,
        };
        assert_eq!(fit.predict(&[3.0, 4.0]), 10.0 + 6.0 - 4.0);
        let cols = vec![vec![3.0, 0.0], vec![4.0, 0.0]];
        assert_eq!(fit.predict_columns(&cols).unwrap(), vec![12.0, 10.0]);
        assert!(fit.predict_columns(&[vec![1.0]]).is_err());
    }

    #[test]
    fn insufficient_data_rejected() {
        assert!(matches!(
            fit_ols(&[vec![1.0]], &[2.0]).unwrap_err(),
            NumericsError::InsufficientData { needed: 2, got: 1 }
        ));
    }

    #[test]
    fn collinear_predictors_fall_back_to_ridge() {
        let x1 = vec![1.0, 2.0, 3.0, 4.0];
        let x2 = vec![2.0, 4.0, 6.0, 8.0]; // exactly 2·x1
        let y = vec![3.0, 6.0, 9.0, 12.0];
        let fit = fit_ols(&[x1.clone(), x2], &y).unwrap();
        assert!(fit.ridge_lambda > 0.0, "expected ridge fallback");
        // The fit should still predict well.
        let y_hat = fit
            .predict_columns(&[x1.clone(), x1.iter().map(|v| 2.0 * v).collect()])
            .unwrap();
        for (a, b) in y.iter().zip(y_hat.iter()) {
            assert!((a - b).abs() < 0.2, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_column_handled() {
        // A predictor with zero variance is collinear with the intercept.
        let x = vec![5.0, 5.0, 5.0];
        let y = vec![1.0, 2.0, 3.0];
        let fit = fit_ols(&[x], &y).unwrap();
        assert!((fit.predict(&[5.0]) - 2.0).abs() < 0.5);
    }

    #[test]
    fn non_finite_input_rejected() {
        assert!(fit_ols(&[vec![1.0, f64::NAN, 3.0]], &[1.0, 2.0, 3.0]).is_err());
        assert!(fit_ols(&[vec![1.0, 2.0, 3.0]], &[1.0, f64::INFINITY, 3.0]).is_err());
    }

    #[test]
    fn constant_fit_is_mean() {
        let fit = fit_constant(&[2.0, 4.0, 6.0]).unwrap();
        assert_eq!(fit.intercept, 4.0);
        assert!(fit.coefficients.is_empty());
        assert_eq!(fit.predict(&[]), 4.0);
        assert!(fit_constant(&[]).is_err());
    }

    #[test]
    fn r_squared_edge_cases() {
        assert_eq!(r_squared(&[], &[]), 1.0);
        // Constant target predicted perfectly.
        assert_eq!(r_squared(&[3.0, 3.0], &[3.0, 3.0]), 1.0);
        // Constant target predicted wrongly.
        assert_eq!(r_squared(&[3.0, 3.0], &[1.0, 1.0]), 0.0);
        // Perfect fit.
        assert_eq!(r_squared(&[1.0, 2.0], &[1.0, 2.0]), 1.0);
    }

    #[test]
    fn mean_abs_error_empty_residuals() {
        let fit = LinearFit {
            intercept: 0.0,
            coefficients: vec![],
            r_squared: 1.0,
            residuals: vec![],
            ridge_lambda: 0.0,
        };
        assert_eq!(fit.mean_abs_error(), 0.0);
        assert_eq!(fit.max_abs_error(), 0.0);
    }

    #[test]
    fn validation_errors_keep_their_order() {
        // Inputs that trip several checks at once report the first check
        // in the fixed order: ragged columns, then too few rows, then a
        // non-finite value.
        let dim = |cols: &[&[f64]], y: &[f64]| {
            matches!(
                fit_ols_cols(cols, y).unwrap_err(),
                NumericsError::DimensionMismatch { .. }
            )
        };
        assert!(dim(&[&[1.0, 2.0]], &[1.0]), "ragged + too few rows");
        assert!(dim(&[&[f64::NAN, 1.0, 2.0]], &[1.0, 2.0]), "ragged + NaN");
        assert!(
            dim(&[&[1.0, 2.0], &[1.0]], &[1.0, 2.0]),
            "second column ragged"
        );
        assert!(matches!(
            fit_ols_cols(&[&[f64::INFINITY]], &[1.0]).unwrap_err(),
            NumericsError::InsufficientData { needed: 2, got: 1 }
        ));
        assert!(matches!(
            fit_ols_cols(&[], &[]).unwrap_err(),
            NumericsError::InsufficientData { needed: 1, got: 0 }
        ));
        for (x, y) in [
            ([1.0, f64::NAN, 3.0], [1.0, 2.0, 3.0]),
            ([1.0, 2.0, 3.0], [1.0, 2.0, f64::NEG_INFINITY]),
        ] {
            assert!(matches!(
                fit_ols_cols(&[&x], &y).unwrap_err(),
                NumericsError::InvalidArgument(_)
            ));
        }
    }

    #[test]
    fn large_scale_predictors_conditioned() {
        // Salary-scale values: conditioning via column scaling must cope.
        let x: Vec<f64> = (0..100).map(|i| 100_000.0 + 1_000.0 * i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.1 * v + 12_345.0).collect();
        let fit = fit_ols(&[x], &y).unwrap();
        assert!((fit.coefficients[0] - 0.1).abs() < 1e-8);
        assert!((fit.intercept - 12_345.0).abs() < 1e-3);
    }
}
