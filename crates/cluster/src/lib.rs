//! # charles-cluster
//!
//! Clustering substrate for [ChARLES](https://arxiv.org/abs/2409.18386)
//! partition discovery.
//!
//! The paper's diff-discovery engine fits a global regression, then
//! clusters rows *by their distance from the regression line* to surface
//! candidate partitions. This crate provides:
//!
//! - exact 1-D k-means by dynamic programming ([`kmeans_1d`]) — the
//!   primary residual-clustering routine (deterministic and optimal at
//!   every input size in `O(k · n log n)`, which Lloyd's algorithm on
//!   residuals is not),
//! - general k-dimensional k-means with k-means++ seeding ([`kmeans()`]),
//! - silhouette scoring and automatic `k` selection ([`silhouette()`],
//!   [`best_k`]), and
//! - DBSCAN ([`dbscan()`]) as the partitioning ablation.
//!
//! ```
//! use charles_cluster::kmeans_1d;
//! // Residuals from two latent update rules cluster into two groups.
//! let residuals = [0.0, 0.1, -0.1, 1000.0, 1000.2, 999.9];
//! let res = kmeans_1d(&residuals, 2).unwrap();
//! assert_eq!(res.assignments[0], res.assignments[1]);
//! assert_ne!(res.assignments[0], res.assignments[3]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dbscan;
pub mod error;
pub mod kmeans;
pub mod kmeans1d;
pub mod select;
pub mod silhouette;

pub use dbscan::{dbscan, DbscanResult, NOISE};
pub use error::{ClusterError, Result};
pub use kmeans::{kmeans, KMeansConfig, KMeansResult};
pub use kmeans1d::kmeans_1d;
pub use select::{best_k, rank_k_choices, KCandidate};
pub use silhouette::{silhouette, silhouette_1d};
