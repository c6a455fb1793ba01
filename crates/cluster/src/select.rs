//! Automatic selection of the number of clusters `k`.
//!
//! ChARLES enumerates candidate partitionings over a range of `k`; this
//! module clusters the values exactly at each `k` and scores the result by
//! silhouette, so the engine can prioritize promising partition counts.
//! Only the silhouette score is subsampled on large inputs; the clustering
//! it scores is always computed over every value.

use crate::error::Result;
use crate::kmeans1d::kmeans_1d;
use crate::silhouette::silhouette_1d;

/// Result of evaluating one candidate `k`.
#[derive(Debug, Clone)]
pub struct KCandidate {
    /// Number of clusters.
    pub k: usize,
    /// Mean silhouette of the clustering at this `k` (0.0 for k=1).
    pub silhouette: f64,
    /// Within-cluster sum of squares.
    pub inertia: f64,
}

/// Evaluate each `k` in `k_range` on scalar `values` using exact 1-D
/// k-means, returning candidates sorted by descending silhouette.
///
/// For inputs above `max_eval_points`, the silhouette (an O(s²) score) is
/// computed on an evenly strided subsample (deterministic) of the exact
/// clustering's assignments.
pub fn rank_k_choices(
    values: &[f64],
    k_range: std::ops::RangeInclusive<usize>,
    max_eval_points: usize,
) -> Result<Vec<KCandidate>> {
    let mut out = Vec::new();
    for k in k_range {
        if k == 0 || k > values.len() {
            continue;
        }
        let res = kmeans_1d(values, k)?;
        let sil = if k == 1 {
            0.0
        } else if values.len() <= max_eval_points {
            silhouette_1d(values, &res.assignments)?
        } else {
            // Deterministic stride subsample keeping cluster proportions
            // roughly intact.
            let stride = values.len().div_ceil(max_eval_points);
            let sub_vals: Vec<f64> = values.iter().step_by(stride).copied().collect();
            let sub_asg: Vec<usize> = res.assignments.iter().step_by(stride).copied().collect();
            silhouette_1d(&sub_vals, &sub_asg)?
        };
        out.push(KCandidate {
            k,
            silhouette: sil,
            inertia: res.inertia,
        });
    }
    out.sort_by(|a, b| b.silhouette.total_cmp(&a.silhouette).then(a.k.cmp(&b.k)));
    Ok(out)
}

/// The single best `k` by silhouette (ties broken towards smaller `k`).
pub fn best_k(
    values: &[f64],
    k_range: std::ops::RangeInclusive<usize>,
    max_eval_points: usize,
) -> Result<usize> {
    let ranked = rank_k_choices(values, k_range, max_eval_points)?;
    Ok(ranked.first().map_or(1, |c| c.k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_groups() -> Vec<f64> {
        let mut v = Vec::new();
        for i in 0..15 {
            v.push(0.0 + i as f64 * 0.01);
        }
        for i in 0..15 {
            v.push(5.0 + i as f64 * 0.01);
        }
        for i in 0..15 {
            v.push(-4.0 + i as f64 * 0.01);
        }
        v
    }

    #[test]
    fn picks_true_group_count() {
        let v = three_groups();
        let k = best_k(&v, 1..=6, 10_000).unwrap();
        assert_eq!(k, 3);
    }

    #[test]
    fn ranked_candidates_sorted_by_silhouette() {
        let v = three_groups();
        let ranked = rank_k_choices(&v, 1..=5, 10_000).unwrap();
        for w in ranked.windows(2) {
            assert!(w[0].silhouette >= w[1].silhouette);
        }
        assert_eq!(ranked.first().unwrap().k, 3);
    }

    #[test]
    fn k_beyond_n_skipped() {
        let v = vec![1.0, 2.0];
        let ranked = rank_k_choices(&v, 1..=5, 100).unwrap();
        assert!(ranked.iter().all(|c| c.k <= 2));
    }

    #[test]
    fn subsampling_still_reasonable() {
        let v = three_groups();
        // Force subsampling with a tiny cap.
        let k = best_k(&v, 2..=4, 12).unwrap();
        assert_eq!(k, 3);
    }

    #[test]
    fn degenerate_single_value() {
        let v = vec![7.0; 10];
        let k = best_k(&v, 1..=3, 100).unwrap();
        // No structure: k=1 wins (all silhouettes ≤ 0).
        assert_eq!(k, 1);
    }
}
