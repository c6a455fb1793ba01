//! Ordinary least squares — the workhorse of ChARLES transformation
//! discovery.
//!
//! Fits `y ≈ β₀ + β₁x₁ + … + βₚxₚ` by solving the normal equations with
//! Cholesky; if the Gram matrix is (near-)singular — common on tiny
//! partitions or collinear predictors — retries with ridge regularization,
//! escalating λ until the system solves.
//!
//! ## Mergeable sufficient statistics
//!
//! The fit is factored through *sufficient statistics* that can be
//! computed over contiguous row ranges and merged with bit-identical
//! results:
//!
//! 1. [`column_moments`] — row count, per-column max-|x|, finiteness.
//!    Merging ([`ColumnMoments::merge`]) uses only `max`/`+`/`&&`, which
//!    are exact regardless of how rows were split.
//! 2. [`gram_partial`] — `XᵀX` and `Xᵀy` of the scaled design, accumulated
//!    per **canonical block** of [`GRAM_BLOCK_ROWS`] rows. The block grid
//!    is anchored at absolute row 0 and independent of how rows are
//!    split, so a range whose boundaries sit on the grid produces exactly
//!    the block sums the whole-range pass produces. [`fit_from_parts`]
//!    folds block sums in block order — the same floating-point
//!    operations in the same order no matter how many ranges computed
//!    them.
//!
//! [`fit_ols_cols`] is the one-range instance of this pipeline.
//!
//! ## Blocked kernels
//!
//! Since PR 6 the per-block accumulation is a cache-blocked, lane-wide
//! kernel ([`crate::kernels`]): each canonical block's column windows are
//! pre-scaled once into a column-major stage, and every `XᵀX`/`Xᵀy` entry
//! is a [`crate::kernels::dot`] over two staged columns — [`crate::kernels::LANES`]
//! independent partial sums folded in a fixed order at block end, which
//! the autovectorizer turns into packed FMAs instead of the old scalar
//! triangle walk. The kernel's fold order differs from the pre-PR-6
//! scalar row walk (floating-point addition is not associative), so the
//! blocked kernel is THE canonical accumulation everywhere: every fit
//! calls this one function on the same canonical blocks, keeping the
//! bit-identical merge contract true by construction. The retained [`gram_partial_scalar`] /
//! [`column_moments_scalar`] are the pre-kernel reference used by benches
//! and differential tests (agreement within tolerance, not bits).

use crate::error::{NumericsError, Result};
use crate::kernels;
use crate::matrix::Matrix;
use crate::solve::solve_cholesky;

/// Rows per canonical accumulation block of the Gram statistics. Row-range
/// boundaries must be multiples of this for bit-exact merges. A multiple
/// of [`kernels::LANES`], so full blocks have no sub-lane tail.
pub const GRAM_BLOCK_ROWS: usize = 128;

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
/// Internally this is the mergeable-statistics pipeline over one range:
/// [`column_moments`] → [`gram_partial`] over the whole range →
/// [`fit_from_parts`].
pub fn fit_ols_cols(columns: &[&[f64]], y: &[f64]) -> Result<LinearFit> {
    let moments = column_moments(columns, y)?;
    let scales = moments.validated_scales(columns.len())?;
    let part = gram_partial(columns, y, &scales, 0);
    fit_from_parts(vec![part], &scales, columns, y)
}

/// Phase-A sufficient statistics of one row range: row count, per-column
/// max-|x| (conditioning scales are derived from these), and whether every
/// value is finite. All three merge exactly: `+` on disjoint counts, `max`
/// (associative, commutative, 0-identity over absolute values), and `&&`.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMoments {
    /// Rows covered.
    pub rows: usize,
    /// Per-column maximum absolute value over the covered rows.
    pub max_abs: Vec<f64>,
    /// Whether every covered value (columns and y) is finite.
    pub finite: bool,
}

impl ColumnMoments {
    /// Merge statistics of disjoint row ranges (order-insensitive: every
    /// combining operation here is exact).
    pub fn merge(parts: &[ColumnMoments]) -> ColumnMoments {
        let p = parts.first().map_or(0, |m| m.max_abs.len());
        let mut out = ColumnMoments {
            rows: 0,
            max_abs: vec![0.0; p],
            finite: true,
        };
        for part in parts {
            out.rows += part.rows;
            out.finite &= part.finite;
            for (m, v) in out.max_abs.iter_mut().zip(part.max_abs.iter()) {
                *m = m.max(*v);
            }
        }
        out
    }

    /// Validate the merged statistics exactly as [`fit_ols_cols`] does
    /// (enough rows, all finite) and derive the conditioning scales
    /// (max-|x|, with 1.0 for all-zero columns).
    pub fn validated_scales(&self, p: usize) -> Result<Vec<f64>> {
        if self.rows < p + 1 {
            return Err(NumericsError::InsufficientData {
                needed: p + 1,
                got: self.rows,
            });
        }
        if !self.finite {
            return Err(NumericsError::InvalidArgument(
                "non-finite value in regression input".to_string(),
            ));
        }
        Ok(self
            .max_abs
            .iter()
            .map(|&m| if m > 0.0 { m } else { 1.0 })
            .collect())
    }
}

/// Compute [`ColumnMoments`] over one row range (`columns` and `y` are the
/// range's slices). Errors on ragged column lengths.
///
/// Each column is read **once**: max-|x| and finiteness come out of one
/// fused lane-accumulated pass ([`kernels::max_abs_finite`]). Because
/// `max` and `&&` are exact under any fold order, the result is
/// bit-identical to the retained scalar reference
/// ([`column_moments_scalar`]) on every input.
pub fn column_moments(columns: &[&[f64]], y: &[f64]) -> Result<ColumnMoments> {
    let n = y.len();
    for c in columns {
        if c.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{n} rows"),
                found: format!("{} rows", c.len()),
            });
        }
    }
    let (_, mut finite) = kernels::max_abs_finite(y);
    let max_abs: Vec<f64> = columns
        .iter()
        .map(|c| {
            let (m, fin) = kernels::max_abs_finite(c);
            finite &= fin;
            m
        })
        .collect();
    Ok(ColumnMoments {
        rows: n,
        max_abs,
        finite,
    })
}

/// The pre-kernel scalar reference for [`column_moments`]: separate
/// max-fold and finiteness passes per column. Retained for the
/// differential bench (`bench_search`'s kernel section) and the property
/// suite; agreement with the fused kernel is **exact** (bit-identical) —
/// both reductions are order-insensitive.
pub fn column_moments_scalar(columns: &[&[f64]], y: &[f64]) -> Result<ColumnMoments> {
    let n = y.len();
    for c in columns {
        if c.len() != n {
            return Err(NumericsError::DimensionMismatch {
                expected: format!("{n} rows"),
                found: format!("{} rows", c.len()),
            });
        }
    }
    // lint:allow(float-fold-order: scalar bit-reference for kernels::column_moments; max-fold is order-insensitive)
    let max_abs: Vec<f64> = columns
        .iter()
        .map(|c| c.iter().fold(0.0f64, |m, v| m.max(v.abs())))
        .collect();
    let finite =
        y.iter().all(|v| v.is_finite()) && columns.iter().all(|c| c.iter().all(|v| v.is_finite()));
    Ok(ColumnMoments {
        rows: n,
        max_abs,
        finite,
    })
}

/// One canonical block's share of the normal equations: `XᵀX` (row-major,
/// `d × d` with `d = p + 1` for the intercept) and `Xᵀy` of the scaled
/// design over up to [`GRAM_BLOCK_ROWS`] rows.
#[derive(Debug, Clone, PartialEq)]
pub struct GramBlock {
    xtx: Vec<f64>,
    xty: Vec<f64>,
}

impl GramBlock {
    /// Reassemble a block from its raw sums. Any rounding of the sums
    /// before they get here would break the bit-identical merge
    /// contract.
    pub fn new(xtx: Vec<f64>, xty: Vec<f64>) -> Self {
        GramBlock { xtx, xty }
    }

    /// Row-major upper-triangular `XᵀX` sums of this block.
    pub fn xtx(&self) -> &[f64] {
        &self.xtx
    }

    /// `Xᵀy` sums of this block.
    pub fn xty(&self) -> &[f64] {
        &self.xty
    }
}

/// Phase-B sufficient statistics of one row range: its canonical blocks,
/// tagged with the absolute index of the first one.
#[derive(Debug, Clone, PartialEq)]
pub struct GramPartial {
    /// Absolute block index (`range.start / GRAM_BLOCK_ROWS`) of
    /// `blocks[0]`.
    pub first_block: usize,
    blocks: Vec<GramBlock>,
}

impl GramPartial {
    /// Reassemble a partial from deserialized blocks (see
    /// [`GramBlock::new`]).
    pub fn new(first_block: usize, blocks: Vec<GramBlock>) -> Self {
        GramPartial {
            first_block,
            blocks,
        }
    }

    /// The canonical blocks, in block order.
    pub fn blocks(&self) -> &[GramBlock] {
        &self.blocks
    }
}

/// Accumulate the blocked Gram statistics of one row range. The range must
/// start on the canonical grid: `first_block` is its absolute start row
/// divided by [`GRAM_BLOCK_ROWS`]. Within each block:
///
/// 1. every design column's window — the intercept's ones and each
///    predictor pre-scaled by its conditioning scale — is staged **once**
///    into a column-major scratch (one divide per value, then the value
///    is reused across every Gram entry that reads it);
/// 2. each upper-triangle `XᵀX` entry and each `Xᵀy` entry is one
///    [`kernels::dot`] over two staged windows: [`kernels::LANES`]-wide
///    partial sums folded in a fixed order at block end.
///
/// The accumulation order inside a block depends only on the block's
/// data — never on the caller — so a range whose boundaries sit on the
/// canonical grid produces exactly the block sums the whole-range pass
/// produces, kernel or not. ([`gram_partial_scalar`] keeps the pre-kernel
/// row-walk order as a tolerance reference.)
pub fn gram_partial(
    columns: &[&[f64]],
    y: &[f64],
    scales: &[f64],
    first_block: usize,
) -> GramPartial {
    let n = y.len();
    let d = columns.len() + 1;
    let mut blocks = Vec::with_capacity(n.div_ceil(GRAM_BLOCK_ROWS));
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
        let mut block = GramBlock {
            xtx: vec![0.0; d * d],
            xty: vec![0.0; d],
        };
        let yb = &y[lo..hi];
        // Upper triangle only; mirrored once after the global fold.
        for i in 0..d {
            let ci = &stage[i * GRAM_BLOCK_ROWS..i * GRAM_BLOCK_ROWS + len];
            for j in i..d {
                let cj = &stage[j * GRAM_BLOCK_ROWS..j * GRAM_BLOCK_ROWS + len];
                block.xtx[i * d + j] = kernels::dot(ci, cj);
            }
            block.xty[i] = kernels::dot(ci, yb);
        }
        blocks.push(block);
        lo = hi;
    }
    GramPartial {
        first_block,
        blocks,
    }
}

/// The pre-kernel scalar reference for [`gram_partial`]: a per-row
/// `x_row` staging pass feeding a scalar triangle walk with zero-skip
/// branches. Retained for the differential bench (`bench_search`'s
/// kernel section asserts the blocked kernel's speedup over this) and
/// for the property suite's tolerance comparison — the kernel folds each
/// block's terms in a different (but equally fixed) order, so agreement
/// on finite data is within rounding, not bit-exact.
pub fn gram_partial_scalar(
    columns: &[&[f64]],
    y: &[f64],
    scales: &[f64],
    first_block: usize,
) -> GramPartial {
    let n = y.len();
    let d = columns.len() + 1;
    let mut blocks = Vec::with_capacity(n.div_ceil(GRAM_BLOCK_ROWS));
    let mut x_row = vec![0.0f64; d];
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + GRAM_BLOCK_ROWS).min(n);
        let mut block = GramBlock {
            xtx: vec![0.0; d * d],
            xty: vec![0.0; d],
        };
        for r in lo..hi {
            x_row[0] = 1.0;
            for (slot, (c, &s)) in x_row[1..].iter_mut().zip(columns.iter().zip(scales.iter())) {
                *slot = c[r] / s;
            }
            for i in 0..d {
                let a = x_row[i];
                if a == 0.0 {
                    continue;
                }
                let row = &mut block.xtx[i * d..(i + 1) * d];
                for j in i..d {
                    // lint:allow(float-fold-order: scalar bit-reference implementation the blocked gram kernel is tested against)
                    row[j] += a * x_row[j];
                }
            }
            let yr = y[r];
            if yr != 0.0 {
                for (o, &a) in block.xty.iter_mut().zip(x_row.iter()) {
                    *o += a * yr;
                }
            }
        }
        blocks.push(block);
        lo = hi;
    }
    GramPartial {
        first_block,
        blocks,
    }
}

/// Solve the merged normal equations and finish the fit: fold every block
/// in absolute block order (parts are sorted here, so hand them over in any
/// order), Cholesky with the ridge ladder, unscale the coefficients, and
/// compute residuals/R² over the full columns.
///
/// `columns`/`y` are the **full** data — residual computation
/// is elementwise, so it needs no blocking to stay exact.
pub fn fit_from_parts(
    mut parts: Vec<GramPartial>,
    scales: &[f64],
    columns: &[&[f64]],
    y: &[f64],
) -> Result<LinearFit> {
    let d = columns.len() + 1;
    parts.sort_by_key(|p| p.first_block);
    // Merged partials must tile the block grid: each non-empty partial
    // picks up exactly where the previous one ended. An overlap or a
    // duplicate would silently double-count its rows in the fold below.
    debug_assert!(
        parts
            .iter()
            .filter(|p| !p.blocks.is_empty())
            .try_fold(None::<usize>, |prev_end, p| match prev_end {
                Some(end) if p.first_block != end => None,
                _ => Some(Some(p.first_block + p.blocks.len())),
            })
            .is_some(),
        "merged GramPartials must cover disjoint, contiguous block ranges"
    );
    let mut xtx = vec![0.0f64; d * d];
    let mut xty = vec![0.0f64; d];
    for part in &parts {
        for block in &part.blocks {
            for (acc, v) in xtx.iter_mut().zip(block.xtx.iter()) {
                *acc += v;
            }
            for (acc, v) in xty.iter_mut().zip(block.xty.iter()) {
                *acc += v;
            }
        }
    }
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

    /// Deterministic pseudo-random data without external crates.
    fn lcg_data(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 2_000.0 - 1_000.0
            })
            .collect()
    }

    #[test]
    fn sharded_sufficient_statistics_are_bit_identical() {
        // Splitting the rows at any set of block-aligned boundaries and
        // merging the per-shard statistics must reproduce the unsharded
        // fit to the last bit — coefficients, residuals, R², λ.
        for n in [5usize, 127, 128, 129, 400, 1000, 4097] {
            let x1 = lcg_data(n, 7);
            let x2 = lcg_data(n, 99);
            let y: Vec<f64> = x1
                .iter()
                .zip(x2.iter())
                .zip(lcg_data(n, 5).iter())
                .map(|((a, b), e)| 1.05 * a - 3.0 * b + 40.0 + 0.01 * e)
                .collect();
            let cols: Vec<&[f64]> = vec![&x1, &x2];
            let central = fit_ols_cols(&cols, &y).unwrap();

            for shards in [1usize, 2, 3, 7, 64] {
                // Block-aligned boundaries: whole blocks spread near-equally.
                let n_blocks = n.div_ceil(GRAM_BLOCK_ROWS);
                let bounds: Vec<(usize, usize)> = (0..shards)
                    .map(|i| {
                        let lo = (i * n_blocks / shards) * GRAM_BLOCK_ROWS;
                        let hi = (((i + 1) * n_blocks / shards) * GRAM_BLOCK_ROWS).min(n);
                        (lo.min(n), hi.max(lo.min(n)))
                    })
                    .collect();
                let moments: Vec<ColumnMoments> = bounds
                    .iter()
                    .map(|&(lo, hi)| {
                        let sliced: Vec<&[f64]> = cols.iter().map(|c| &c[lo..hi]).collect();
                        column_moments(&sliced, &y[lo..hi]).unwrap()
                    })
                    .collect();
                let merged = ColumnMoments::merge(&moments);
                assert_eq!(merged.rows, n);
                let scales = merged.validated_scales(cols.len()).unwrap();
                let parts: Vec<GramPartial> = bounds
                    .iter()
                    .map(|&(lo, hi)| {
                        let sliced: Vec<&[f64]> = cols.iter().map(|c| &c[lo..hi]).collect();
                        gram_partial(&sliced, &y[lo..hi], &scales, lo / GRAM_BLOCK_ROWS)
                    })
                    .collect();
                let sharded = fit_from_parts(parts, &scales, &cols, &y).unwrap();

                assert_eq!(sharded.intercept.to_bits(), central.intercept.to_bits());
                for (a, b) in sharded.coefficients.iter().zip(central.coefficients.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} shards={shards}");
                }
                for (a, b) in sharded.residuals.iter().zip(central.residuals.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "n={n} shards={shards}");
                }
                assert_eq!(sharded.r_squared.to_bits(), central.r_squared.to_bits());
                assert_eq!(sharded.ridge_lambda, central.ridge_lambda);
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "disjoint, contiguous block ranges")]
    fn overlapping_gram_partials_are_rejected() {
        // Feeding the same shard's statistics twice would double-count
        // its rows; fit_from_parts traps this in debug builds.
        let x = lcg_data(256, 11);
        let y = lcg_data(256, 13);
        let cols: Vec<&[f64]> = vec![&x];
        let scales = column_moments(&cols, &y)
            .unwrap()
            .validated_scales(1)
            .unwrap();
        let part = gram_partial(&cols, &y, &scales, 0);
        let _ = fit_from_parts(vec![part.clone(), part], &scales, &cols, &y);
    }

    #[test]
    fn merged_moments_reproduce_validation_errors() {
        // Merged statistics must fail in exactly the cases the central
        // path fails: too few rows, non-finite values.
        let short = column_moments(&[&[1.0][..]], &[2.0]).unwrap();
        assert!(matches!(
            ColumnMoments::merge(&[short])
                .validated_scales(1)
                .unwrap_err(),
            NumericsError::InsufficientData { needed: 2, got: 1 }
        ));
        let a = column_moments(&[&[1.0, 2.0][..]], &[1.0, 2.0]).unwrap();
        let b = column_moments(&[&[f64::NAN][..]], &[3.0]).unwrap();
        assert!(!b.finite);
        assert!(ColumnMoments::merge(&[a, b]).validated_scales(1).is_err());
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
