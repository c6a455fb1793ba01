//! Property tests for the blocked statistics kernels.
//!
//! Two contracts, mirroring the module docs in `ols.rs`:
//!
//! 1. **Moments kernel vs a scalar fold: bit-identical on every input**,
//!    including NaN/∞ and all-zero columns — `max` and `&&` are exact
//!    under any fold order, so the lane-wise `max_abs_finite` must equal
//!    a left-to-right fold.
//! 2. **Gram kernel vs the retained scalar reference: within documented
//!    tolerance on finite data.** The blocked kernel folds products in a
//!    different (fixed) order than the scalar row walk, so sums agree to
//!    rounding, not bits. The bound below is the standard
//!    `n·ε·Σ|terms|` backward-error envelope with slack.

use charles_numerics::kernels::max_abs_finite;
use charles_numerics::ols::{conditioning_scales, gram, gram_scalar};
use proptest::prelude::*;

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

/// Row counts that straddle the 128-row Gram block boundary.
fn row_count() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(127usize),
        Just(128usize),
        Just(129usize),
        Just(4097usize),
        9usize..400,
    ]
}

fn make_design(n: usize, p: usize, seed: u64, zero_col: bool) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut cols: Vec<Vec<f64>> = (0..p).map(|j| lcg_data(n, seed ^ (j as u64 + 1))).collect();
    if zero_col {
        cols[0] = vec![0.0; n];
    }
    let y = lcg_data(n, seed ^ 0xABCD);
    (cols, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn moments_kernel_matches_scalar_bitwise(
        n in row_count(),
        p in 1usize..=8,
        seed in 0u64..1_000_000,
        zero_col in any::<bool>(),
        poison in prop_oneof![
            Just(None),
            Just(Some(f64::NAN)),
            Just(Some(f64::INFINITY)),
            Just(Some(f64::NEG_INFINITY)),
        ],
        poison_pos in 0usize..4096,
    ) {
        let (mut cols, mut y) = make_design(n, p, seed, zero_col);
        if let Some(v) = poison {
            // Poison either a predictor cell or a y cell.
            if poison_pos % 2 == 0 {
                let c = &mut cols[poison_pos % p];
                let i = poison_pos % c.len();
                c[i] = v;
            } else {
                let i = poison_pos % y.len();
                y[i] = v;
            }
        }
        for xs in cols.iter().chain([&y]) {
            let (max, finite) = max_abs_finite(xs);
            let scalar_max = xs.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            prop_assert_eq!(max.to_bits(), scalar_max.to_bits(), "poison={:?}", poison);
            prop_assert_eq!(finite, xs.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn gram_kernel_within_tolerance_of_scalar(
        n in row_count(),
        p in 1usize..=8,
        seed in 0u64..1_000_000,
        zero_col in any::<bool>(),
    ) {
        let (cols, y) = make_design(n, p, seed, zero_col);
        let col_refs: Vec<&[f64]> = cols.iter().map(Vec::as_slice).collect();
        prop_assume!(n > p);
        let scales = conditioning_scales(&col_refs, &y).unwrap();
        let (kernel_xtx, kernel_xty) = gram(&col_refs, &y, &scales);
        let (scalar_xtx, scalar_xty) = gram_scalar(&col_refs, &y, &scales);
        prop_assert_eq!(kernel_xtx.len(), scalar_xtx.len());
        prop_assert_eq!(kernel_xty.len(), scalar_xty.len());
        // Scaled design values satisfy |x| ≤ 1, so each XᵀX entry is a sum
        // of n values in [-1, 1]; Xᵀy terms carry max|y|.
        let max_y = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let tol_xtx = 1e-12 * n as f64;
        let tol_xty = 1e-12 * n as f64 * max_y.max(1.0);
        for (a, b) in kernel_xtx.iter().zip(scalar_xtx.iter()) {
            prop_assert!((a - b).abs() <= tol_xtx, "xtx {a} vs {b}");
        }
        for (a, b) in kernel_xty.iter().zip(scalar_xty.iter()) {
            prop_assert!((a - b).abs() <= tol_xty, "xty {a} vs {b}");
        }
    }
}
