//! Exact 1-D k-means by dynamic programming.
//!
//! ChARLES clusters *residuals from a global regression fit* — a 1-D
//! problem — to find candidate partitions. In one dimension the clusters
//! of an optimal solution are contiguous in sorted order, so optimal
//! k-means is a dynamic program over prefix lengths with `O(1)` range
//! costs from prefix sums. Exactness matters here: Lloyd's algorithm on
//! residuals can merge the small, semantically distinct residual groups
//! that correspond to different latent update rules.
//!
//! Each DP layer is filled by divide and conquer over the monotone optimal
//! split points (Grønlund et al. 2017, arXiv:1701.07204), so the whole
//! clustering costs `O(k · n log n)` and is exact at every `n`.

use crate::error::{ClusterError, Result};

/// The result of [`kmeans_1d`].
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster id (0..k) per input value, in input order; ids are
    /// ordered by value.
    pub assignments: Vec<usize>,
    /// Cluster means, indexed by cluster id.
    pub centroids: Vec<f64>,
    /// Total within-cluster sum of squared deviations.
    pub inertia: f64,
}

/// Cluster scalar `values` into exactly `k` groups, minimizing
/// within-cluster sum of squared deviations. Exact at every input size.
/// Returns assignments aligned with the input order, cluster ids ordered
/// by value, and 1-D centroids.
///
/// Ties between equally good split points resolve to the leftmost one
/// (the smallest prefix for the earlier clusters), so the result is a pure
/// function of the input multiset and its order.
///
/// This is the single-`k` case of [`kmeans_1d_many`].
pub fn kmeans_1d(values: &[f64], k: usize) -> Result<KMeansResult> {
    let mut results = kmeans_1d_many(values, &[k])?;
    Ok(results.swap_remove(0))
}

/// [`kmeans_1d`] for every `k` in `ks` at once, one result per entry in
/// `ks` order, each bit-identical to its own [`kmeans_1d`] call.
///
/// DP layer `c < k` is the same computation for every `k` (the same
/// prefix-length range and split bounds), so the values are sorted and
/// summed once, layers `1..k_max` are filled once, and only each `k`'s
/// last layer — filled at `j = n` alone — is its own.
pub fn kmeans_1d_many(values: &[f64], ks: &[usize]) -> Result<Vec<KMeansResult>> {
    let n = values.len();
    for &k in ks {
        if k == 0 {
            return Err(ClusterError::InvalidParameter("k must be ≥ 1".into()));
        }
        if n < k {
            return Err(ClusterError::TooFewPoints { points: n, k });
        }
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(ClusterError::NonFinite);
    }
    let Some(&k_max) = ks.iter().max() else {
        return Ok(Vec::new());
    };

    // Sort, remembering original positions.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
    let costs = RangeCosts::new(&sorted);

    // `cost[c][j]` is the best cost of clustering the first j sorted values
    // into c clusters; `split[c][j]` is where the last of those c clusters
    // starts in that optimum. Layer 0 (no clusters) is finite only at
    // j = 0. Layers below `k_max` need every prefix length that can still
    // hold the remaining clusters.
    let mut first = vec![f64::INFINITY; n + 1];
    first[0] = 0.0;
    let mut cost: Vec<Vec<f64>> = vec![first];
    let mut split: Vec<Vec<usize>> = vec![Vec::new()];
    for c in 1..k_max {
        let mut next = vec![f64::INFINITY; n + 1];
        let mut arg = vec![0usize; n + 1];
        fill_layer(
            &costs,
            &cost[c - 1],
            &mut next,
            &mut arg,
            (c, n),
            (c - 1, n - 1),
        );
        cost.push(next);
        split.push(arg);
    }

    let mut results = Vec::with_capacity(ks.len());
    for &k in ks {
        // Only j = n matters in the last layer.
        let mut last = vec![f64::INFINITY; n + 1];
        let mut last_arg = vec![0usize; n + 1];
        fill_layer(
            &costs,
            &cost[k - 1],
            &mut last,
            &mut last_arg,
            (n, n),
            (k - 1, n - 1),
        );

        // Recover boundaries.
        let mut boundaries = vec![0usize; k + 1];
        boundaries[k] = n;
        let mut j = n;
        for c in (1..=k).rev() {
            let i = if c == k { last_arg[j] } else { split[c][j] };
            boundaries[c - 1] = i;
            j = i;
        }

        // Build assignments (cluster ids ordered by value) and centroids.
        let mut assignments = vec![0usize; n];
        let mut centroids = Vec::with_capacity(k);
        for c in 0..k {
            let (lo, hi) = (boundaries[c], boundaries[c + 1]);
            centroids.push(costs.mean(lo, hi));
            for &orig in &order[lo..hi] {
                assignments[orig] = c;
            }
        }
        results.push(KMeansResult {
            assignments,
            centroids,
            inertia: last[n],
        });
    }
    Ok(results)
}

/// Prefix sums over sorted values: the within-cluster cost of any range
/// of them in `O(1)`.
struct RangeCosts {
    prefix: Vec<f64>,
    prefix_sq: Vec<f64>,
}

impl RangeCosts {
    fn new(sorted: &[f64]) -> Self {
        let mut prefix = vec![0.0; sorted.len() + 1];
        let mut prefix_sq = vec![0.0; sorted.len() + 1];
        for (i, &v) in sorted.iter().enumerate() {
            prefix[i + 1] = prefix[i] + v;
            prefix_sq[i + 1] = prefix_sq[i] + v * v;
        }
        RangeCosts { prefix, prefix_sq }
    }

    /// Cost of clustering `sorted[i..j]` (exclusive `j`) into one cluster.
    fn cost(&self, i: usize, j: usize) -> f64 {
        let len = (j - i) as f64;
        if len <= 0.0 {
            return 0.0;
        }
        let s = self.prefix[j] - self.prefix[i];
        let sq = self.prefix_sq[j] - self.prefix_sq[i];
        (sq - s * s / len).max(0.0)
    }

    /// Mean of `sorted[lo..hi]` (0 for an empty range).
    fn mean(&self, lo: usize, hi: usize) -> f64 {
        (self.prefix[hi] - self.prefix[lo]) / (hi - lo).max(1) as f64
    }
}

/// Fill one DP layer for prefix lengths `j ∈ [jlo, jhi]`, given that each
/// of their optimal last-cluster starts lies in `[ilo, ihi]`:
/// `next[j] = min over i < j of prev[i] + cost(i, j)`, with the leftmost
/// strict-`<` argmin in `arg[j]`. The optimal start is monotone in `j`, so
/// solving the middle `j` bounds the search on either side of it.
fn fill_layer(
    costs: &RangeCosts,
    prev: &[f64],
    next: &mut [f64],
    arg: &mut [usize],
    (jlo, jhi): (usize, usize),
    (ilo, ihi): (usize, usize),
) {
    if jlo > jhi {
        return;
    }
    let mid = jlo + (jhi - jlo) / 2;
    let mut best = f64::INFINITY;
    let mut best_i = ilo;
    for (offset, &before) in prev[ilo..=ihi.min(mid - 1)].iter().enumerate() {
        let i = ilo + offset;
        let candidate = before + costs.cost(i, mid);
        if candidate < best {
            best = candidate;
            best_i = i;
        }
    }
    next[mid] = best;
    arg[mid] = best_i;
    if mid > jlo {
        fill_layer(costs, prev, next, arg, (jlo, mid - 1), (ilo, best_i));
    }
    fill_layer(costs, prev, next, arg, (mid + 1, jhi), (best_i, ihi));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference `O(k · n²)` DP: every layer scans every split point.
    /// [`kmeans_1d`] must match it exactly (assignments and inertia bits).
    fn kmeans_1d_dp(values: &[f64], k: usize) -> (Vec<usize>, f64) {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let costs = RangeCosts::new(&sorted);
        let inf = f64::INFINITY;
        let mut cost = vec![vec![inf; n + 1]; k + 1];
        let mut split = vec![vec![0usize; n + 1]; k + 1];
        cost[0][0] = 0.0;
        for c in 1..=k {
            for j in c..=n {
                for i in (c - 1)..j {
                    if cost[c - 1][i] == inf {
                        continue;
                    }
                    let candidate = cost[c - 1][i] + costs.cost(i, j);
                    if candidate < cost[c][j] {
                        cost[c][j] = candidate;
                        split[c][j] = i;
                    }
                }
            }
        }
        let mut assignments = vec![0usize; n];
        let mut j = n;
        for c in (1..=k).rev() {
            let i = split[c][j];
            for &orig in &order[i..j] {
                assignments[orig] = c - 1;
            }
            j = i;
        }
        (assignments, cost[k][n])
    }

    /// [`kmeans_1d`] as it was before it shared layers across `k`: every
    /// layer of its own DP, validation aside.
    fn kmeans_1d_per_k(values: &[f64], k: usize) -> KMeansResult {
        let n = values.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let sorted: Vec<f64> = order.iter().map(|&i| values[i]).collect();
        let costs = RangeCosts::new(&sorted);
        let mut cost = vec![f64::INFINITY; n + 1];
        cost[0] = 0.0;
        let mut split: Vec<Vec<usize>> = Vec::with_capacity(k);
        for c in 1..=k {
            let mut next = vec![f64::INFINITY; n + 1];
            let mut arg = vec![0usize; n + 1];
            let (jlo, jhi) = if c == k { (n, n) } else { (c, n) };
            fill_layer(
                &costs,
                &cost,
                &mut next,
                &mut arg,
                (jlo, jhi),
                (c - 1, n - 1),
            );
            cost = next;
            split.push(arg);
        }
        let mut boundaries = vec![0usize; k + 1];
        boundaries[k] = n;
        let mut j = n;
        for c in (1..=k).rev() {
            let i = split[c - 1][j];
            boundaries[c - 1] = i;
            j = i;
        }
        let mut assignments = vec![0usize; n];
        let mut centroids = Vec::with_capacity(k);
        for c in 0..k {
            let (lo, hi) = (boundaries[c], boundaries[c + 1]);
            centroids.push(costs.mean(lo, hi));
            for &orig in &order[lo..hi] {
                assignments[orig] = c;
            }
        }
        KMeansResult {
            assignments,
            centroids,
            inertia: cost[n],
        }
    }

    /// Inputs where exact ties and near-ties between split points abound:
    /// few distinct values, mostly zeros, or tight groups.
    fn hard_inputs() -> impl Strategy<Value = Vec<f64>> {
        let duplicate_heavy = proptest::collection::vec(0usize..6, 1..600)
            .prop_map(|ix| ix.into_iter().map(|i| i as f64 * 1.7 - 3.0).collect());
        let zero_heavy =
            proptest::collection::vec((0usize..10, -50.0f64..50.0), 1..600).prop_map(|xs| {
                xs.into_iter()
                    .map(|(coin, v)| if coin < 8 { 0.0 } else { v })
                    .collect()
            });
        let grouped = proptest::collection::vec((0usize..4, -1.0f64..1.0), 1..600).prop_map(|xs| {
            xs.into_iter()
                .map(|(g, noise)| [-900.0, 0.1, 0.3, 5e4][g] + noise * 0.01)
                .collect()
        });
        prop_oneof![duplicate_heavy, zero_heavy, grouped]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// Every `k` of one multi-`k` pass equals the per-`k` DP that
        /// fills all of its own layers: assignments, centroid bits and
        /// inertia bits.
        #[test]
        fn many_matches_per_k_dp(
            values in hard_inputs(),
            ks in proptest::collection::vec(1usize..=7, 0..6),
        ) {
            prop_assume!(ks.iter().all(|&k| k <= values.len()));
            let many = kmeans_1d_many(&values, &ks).unwrap();
            prop_assert_eq!(many.len(), ks.len());
            for (&k, got) in ks.iter().zip(&many) {
                let want = kmeans_1d_per_k(&values, k);
                prop_assert_eq!(&got.assignments, &want.assignments);
                prop_assert_eq!(got.inertia.to_bits(), want.inertia.to_bits());
                let bits = |r: &KMeansResult| -> Vec<u64> {
                    r.centroids.iter().map(|c| c.to_bits()).collect()
                };
                prop_assert_eq!(bits(got), bits(&want));
            }
        }

        #[test]
        fn matches_quadratic_dp(values in hard_inputs(), k in 1usize..=6) {
            prop_assume!(k <= values.len());
            let fast = kmeans_1d(&values, k).unwrap();
            let (assignments, inertia) = kmeans_1d_dp(&values, k);
            prop_assert_eq!(fast.assignments, assignments);
            prop_assert_eq!(fast.inertia.to_bits(), inertia.to_bits());
        }
    }

    #[test]
    fn matches_quadratic_dp_above_old_sampling_cutoff() {
        // 3000 points: more than the 2048 the clustering once subsampled to.
        let values: Vec<f64> = (0..3000u32)
            .map(|i| {
                let group = f64::from(i % 5) * 40.0;
                let jitter = f64::from(i.wrapping_mul(2_654_435_761) % 1000) / 100.0;
                group + jitter
            })
            .collect();
        for k in [2, 5, 6] {
            let fast = kmeans_1d(&values, k).unwrap();
            let (assignments, inertia) = kmeans_1d_dp(&values, k);
            assert_eq!(fast.assignments, assignments, "k = {k}");
            assert_eq!(fast.inertia.to_bits(), inertia.to_bits(), "k = {k}");
        }
    }

    #[test]
    fn exact_three_group_recovery() {
        // Three residual groups, like three latent update rules.
        let values = vec![0.01, 0.02, 0.0, 5.0, 5.1, 4.9, -3.0, -3.1, -2.9];
        let res = kmeans_1d(&values, 3).unwrap();
        assert_eq!(res.assignments[0], res.assignments[1]);
        assert_eq!(res.assignments[0], res.assignments[2]);
        assert_eq!(res.assignments[3], res.assignments[4]);
        assert_eq!(res.assignments[3], res.assignments[5]);
        assert_eq!(res.assignments[6], res.assignments[7]);
        assert_eq!(res.assignments[6], res.assignments[8]);
        // Clusters are ordered by value: negative group first.
        assert_eq!(res.assignments[6], 0);
        assert_eq!(res.assignments[0], 1);
        assert_eq!(res.assignments[3], 2);
        assert!(res.inertia < 0.1);
    }

    #[test]
    fn beats_or_matches_any_contiguous_split() {
        // Optimality sanity check on a small, awkward instance.
        let values = vec![1.0, 2.0, 3.0, 10.0, 11.0, 25.0];
        let res = kmeans_1d(&values, 2).unwrap();
        // Brute force all contiguous splits.
        let mut best = f64::INFINITY;
        for s in 1..values.len() {
            let cost = |xs: &[f64]| -> f64 {
                let m = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|x| (x - m).powi(2)).sum()
            };
            best = best.min(cost(&values[..s]) + cost(&values[s..]));
        }
        assert!((res.inertia - best).abs() < 1e-9);
    }

    #[test]
    fn k_one_is_global_variance() {
        let values = vec![1.0, 3.0];
        let res = kmeans_1d(&values, 1).unwrap();
        assert_eq!(res.assignments, vec![0, 0]);
        assert!((res.inertia - 2.0).abs() < 1e-12);
        assert!((res.centroids[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_n_zero_cost() {
        let values = vec![5.0, -1.0, 3.0];
        let res = kmeans_1d(&values, 3).unwrap();
        assert!(res.inertia < 1e-18);
        // Cluster ids are value-ordered: -1 -> 0, 3 -> 1, 5 -> 2.
        assert_eq!(res.assignments, vec![2, 0, 1]);
    }

    #[test]
    fn duplicates_handled() {
        let values = vec![2.0, 2.0, 2.0, 2.0];
        let res = kmeans_1d(&values, 2).unwrap();
        assert_eq!(res.assignments.len(), 4);
        assert!(res.inertia < 1e-18);
    }

    #[test]
    fn validation() {
        assert!(kmeans_1d(&[1.0], 0).is_err());
        assert!(kmeans_1d(&[1.0], 2).is_err());
        assert!(kmeans_1d(&[f64::NAN, 1.0], 1).is_err());
        assert!(matches!(
            kmeans_1d_many(&[1.0, 2.0], &[2, 3]),
            Err(ClusterError::TooFewPoints { points: 2, k: 3 })
        ));
        assert!(kmeans_1d_many(&[1.0], &[]).unwrap().is_empty());
    }

    #[test]
    fn unsorted_input_assignments_align_with_input_order() {
        let values = vec![100.0, 1.0, 101.0, 2.0];
        let res = kmeans_1d(&values, 2).unwrap();
        assert_eq!(res.assignments[0], res.assignments[2]);
        assert_eq!(res.assignments[1], res.assignments[3]);
        assert_ne!(res.assignments[0], res.assignments[1]);
    }
}
