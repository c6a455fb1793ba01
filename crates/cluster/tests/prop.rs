//! Property-based tests for the clustering substrate.

use charles_cluster::{dbscan, kmeans_1d};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kmeans_1d_assignments_valid(
        values in proptest::collection::vec(-1e6f64..1e6, 1..60),
        k in 1usize..6,
    ) {
        prop_assume!(k <= values.len());
        let res = kmeans_1d(&values, k).unwrap();
        prop_assert_eq!(res.assignments.len(), values.len());
        prop_assert!(res.assignments.iter().all(|&a| a < k));
        prop_assert!(res.inertia >= 0.0);
        // Clusters are value-ordered intervals: if v1 < v2 then
        // cluster(v1) <= cluster(v2).
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        for w in idx.windows(2) {
            prop_assert!(res.assignments[w[0]] <= res.assignments[w[1]]);
        }
    }

    #[test]
    fn kmeans_1d_more_clusters_never_worse(
        values in proptest::collection::vec(-1e4f64..1e4, 4..40),
    ) {
        let r2 = kmeans_1d(&values, 2).unwrap();
        let r3 = kmeans_1d(&values, 3).unwrap();
        prop_assert!(r3.inertia <= r2.inertia + 1e-6 * (1.0 + r2.inertia));
    }

    #[test]
    fn dbscan_labels_valid(
        values in proptest::collection::vec(-100.0f64..100.0, 0..40),
        eps in 0.1f64..20.0,
        min_pts in 1usize..5,
    ) {
        let points: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let res = dbscan(&points, eps, min_pts).unwrap();
        prop_assert_eq!(res.labels.len(), points.len());
        for &l in &res.labels {
            prop_assert!(l == -1 || (l as usize) < res.n_clusters);
        }
        // Every non-noise cluster id is actually used.
        for c in 0..res.n_clusters {
            prop_assert!(res.labels.contains(&(c as isize)));
        }
    }

    #[test]
    fn kmeans_1d_large_input_path(
        seed_vals in proptest::collection::vec(-1e3f64..1e3, 8..16),
    ) {
        // Large inputs (4096 points) are clustered exactly like small ones:
        // two well-separated blobs must come apart.
        let mut values = Vec::with_capacity(4096);
        for i in 0..4096 {
            let base = if i % 2 == 0 { 0.0 } else { 10_000.0 };
            values.push(base + seed_vals[i % seed_vals.len()].abs() % 100.0);
        }
        let res = kmeans_1d(&values, 2).unwrap();
        prop_assert_eq!(res.assignments.len(), values.len());
        // All small values share a cluster, all large the other.
        let small = res.assignments[0];
        for (i, &a) in res.assignments.iter().enumerate() {
            if i % 2 == 0 {
                prop_assert_eq!(a, small);
            } else {
                prop_assert_ne!(a, small);
            }
        }
    }
}
