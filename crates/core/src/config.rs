//! Engine configuration: the knobs the paper's *setup assistant* exposes.

use crate::error::{CharlesError, Result};

/// How candidate partitions are discovered within a (C, T) combination.
/// `ResidualKMeans` is the paper's method; the others are ablations
/// (experiment E9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMethod {
    /// Cluster residuals of the global fit with exact 1-D k-means
    /// (the paper's approach).
    #[default]
    ResidualKMeans,
    /// Split residuals at k-quantile boundaries (cheap baseline).
    ResidualQuantile,
    /// DBSCAN over residuals with MAD-derived eps (no fixed k).
    ResidualDbscan,
}

/// Deepest condition-induction tree a configuration may ask for. A tree of
/// this depth has at most 2^16 leaves, so every leaf id fits a `u16`.
pub(crate) const MAX_TREE_DEPTH: usize = 16;

/// Full engine configuration.
///
/// Defaults mirror the paper's demo: `α = 0.5`, up to `c = 3` condition
/// attributes, `t = 2` transformation attributes, top-10 summaries, and a
/// 0.5 correlation threshold for attribute shortlisting.
#[derive(Debug, Clone)]
pub struct CharlesConfig {
    /// Weight of accuracy in `Score = α·Acc + (1−α)·Int`; in [0, 1].
    pub alpha: f64,
    /// Maximum condition attributes per summary (the paper's `c`).
    pub max_condition_attrs: usize,
    /// Maximum transformation attributes per linear model (the paper's `t`).
    pub max_transform_attrs: usize,
    /// Minimum |correlation| for the assistant's attribute shortlist.
    pub correlation_threshold: f64,
    /// Cap on shortlisted condition attributes (keeps enumeration sane on
    /// wide tables).
    pub max_candidate_condition_attrs: usize,
    /// Cap on shortlisted transformation attributes.
    pub max_candidate_transform_attrs: usize,
    /// Partition counts to try (inclusive range of k).
    pub k_min: usize,
    /// Upper end of the k sweep (inclusive).
    pub k_max: usize,
    /// Number of ranked summaries returned (paper default: 10).
    pub max_summaries: usize,
    /// Smallest partition worth describing, as a fraction of rows.
    pub min_partition_fraction: f64,
    /// Structural depth cap for condition induction. Note this is *not*
    /// the paper's `c`: `c` bounds how many distinct attributes a summary
    /// may condition on (enforced by subset enumeration), while a tree may
    /// legitimately split several times on the same attribute (e.g. one
    /// equality per industry). Deeper trees yield more descriptors, which
    /// the interpretability score already penalizes. At most 16, so that
    /// every leaf of a tree has a `u16` id.
    pub max_tree_depth: usize,
    /// Relative accuracy loss tolerated when snapping a constant to a
    /// rounder value (normality), e.g. 0.02 = 2%.
    pub snap_tolerance: f64,
    /// Enable constant snapping (ablation switch).
    pub snap_constants: bool,
    /// Partition discovery method (ablation switch).
    pub partition_method: PartitionMethod,
    /// Interpretability sub-score weights
    /// (size, simplicity, coverage, normality); must sum to 1.
    pub interpretability_weights: [f64; 4],
    /// Sharpness of the accuracy measure: accuracy is
    /// `1 / (1 + sharpness · L1 / (n · mean|Δ|))`. Higher values punish
    /// residual error harder (the paper's raw "inverse L1 distance" is the
    /// sharp limit); 10.0 means a summary mis-explaining changes by 10% of
    /// the mean change magnitude scores 0.5.
    pub accuracy_sharpness: f64,
    /// Absolute tolerance under which a cell is considered *unchanged*.
    pub change_tolerance: f64,
    /// Worker threads for the candidate search (`0` = all available cores).
    pub threads: usize,
}

impl Default for CharlesConfig {
    fn default() -> Self {
        CharlesConfig {
            alpha: 0.5,
            max_condition_attrs: 3,
            max_transform_attrs: 2,
            correlation_threshold: 0.5,
            max_candidate_condition_attrs: 6,
            max_candidate_transform_attrs: 5,
            k_min: 1,
            k_max: 5,
            max_summaries: 10,
            min_partition_fraction: 0.02,
            max_tree_depth: 8,
            snap_tolerance: 0.02,
            snap_constants: true,
            partition_method: PartitionMethod::ResidualKMeans,
            interpretability_weights: [0.25, 0.25, 0.25, 0.25],
            accuracy_sharpness: 10.0,
            change_tolerance: 1e-9,
            threads: 0,
        }
    }
}

impl CharlesConfig {
    /// Set α (accuracy weight).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Set the paper's `c` parameter.
    pub fn with_max_condition_attrs(mut self, c: usize) -> Self {
        self.max_condition_attrs = c;
        self
    }

    /// Set the paper's `t` parameter.
    pub fn with_max_transform_attrs(mut self, t: usize) -> Self {
        self.max_transform_attrs = t;
        self
    }

    /// Set the k sweep range.
    pub fn with_k_range(mut self, k_min: usize, k_max: usize) -> Self {
        self.k_min = k_min;
        self.k_max = k_max;
        self
    }

    /// Set how many summaries to return.
    pub fn with_max_summaries(mut self, n: usize) -> Self {
        self.max_summaries = n;
        self
    }

    /// Toggle constant snapping.
    pub fn with_snapping(mut self, on: bool) -> Self {
        self.snap_constants = on;
        self
    }

    /// Choose the partition-discovery method.
    pub fn with_partition_method(mut self, m: PartitionMethod) -> Self {
        self.partition_method = m;
        self
    }

    /// Set worker thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Validate invariants; call before running the engine.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.alpha) {
            return Err(CharlesError::BadConfig(format!(
                "alpha must be in [0, 1], got {}",
                self.alpha
            )));
        }
        if self.max_transform_attrs == 0 {
            return Err(CharlesError::BadConfig(
                "max_transform_attrs (t) must be ≥ 1".into(),
            ));
        }
        if self.k_min == 0 || self.k_min > self.k_max {
            return Err(CharlesError::BadConfig(format!(
                "invalid k range [{}, {}]",
                self.k_min, self.k_max
            )));
        }
        if self.max_summaries == 0 {
            return Err(CharlesError::BadConfig("max_summaries must be ≥ 1".into()));
        }
        if !(0.0..1.0).contains(&self.min_partition_fraction) {
            return Err(CharlesError::BadConfig(format!(
                "min_partition_fraction must be in [0, 1), got {}",
                self.min_partition_fraction
            )));
        }
        if self.snap_tolerance < 0.0 {
            return Err(CharlesError::BadConfig(
                "snap_tolerance must be non-negative".into(),
            ));
        }
        if !(1..=MAX_TREE_DEPTH).contains(&self.max_tree_depth) {
            return Err(CharlesError::BadConfig(format!(
                "max_tree_depth must be in [1, {MAX_TREE_DEPTH}], got {}",
                self.max_tree_depth
            )));
        }
        if self.accuracy_sharpness <= 0.0 || !self.accuracy_sharpness.is_finite() {
            return Err(CharlesError::BadConfig(format!(
                "accuracy_sharpness must be positive and finite, got {}",
                self.accuracy_sharpness
            )));
        }
        let wsum = charles_numerics::kernels::sum(&self.interpretability_weights);
        if (wsum - 1.0).abs() > 1e-9 {
            return Err(CharlesError::BadConfig(format!(
                "interpretability weights must sum to 1, got {wsum}"
            )));
        }
        if self
            .interpretability_weights
            .iter()
            .any(|&w| !(0.0..=1.0).contains(&w))
        {
            return Err(CharlesError::BadConfig(
                "interpretability weights must each lie in [0, 1]".into(),
            ));
        }
        Ok(())
    }

    /// Effective worker thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = CharlesConfig::default();
        assert_eq!(c.alpha, 0.5);
        assert_eq!(c.max_condition_attrs, 3);
        assert_eq!(c.max_transform_attrs, 2);
        assert_eq!(c.correlation_threshold, 0.5);
        assert_eq!(c.max_summaries, 10);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let c = CharlesConfig::default()
            .with_alpha(0.75)
            .with_max_condition_attrs(2)
            .with_max_transform_attrs(1)
            .with_k_range(2, 3)
            .with_max_summaries(5)
            .with_snapping(false)
            .with_partition_method(PartitionMethod::ResidualQuantile)
            .with_threads(2);
        assert_eq!(c.alpha, 0.75);
        assert_eq!(c.k_max, 3);
        assert!(!c.snap_constants);
        assert_eq!(c.effective_threads(), 2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        assert!(CharlesConfig::default().with_alpha(1.5).validate().is_err());
        assert!(CharlesConfig::default()
            .with_max_transform_attrs(0)
            .validate()
            .is_err());
        assert!(CharlesConfig::default()
            .with_k_range(0, 3)
            .validate()
            .is_err());
        assert!(CharlesConfig::default()
            .with_k_range(4, 3)
            .validate()
            .is_err());
        assert!(CharlesConfig::default()
            .with_max_summaries(0)
            .validate()
            .is_err());
        let c = CharlesConfig {
            interpretability_weights: [0.5, 0.5, 0.5, 0.5],
            ..CharlesConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CharlesConfig {
            min_partition_fraction: 1.0,
            ..CharlesConfig::default()
        };
        assert!(c.validate().is_err());
        let c = CharlesConfig {
            snap_tolerance: -0.1,
            ..CharlesConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn tree_depth_bounded_so_leaf_ids_fit_u16() {
        let depth = |max_tree_depth| CharlesConfig {
            max_tree_depth,
            ..CharlesConfig::default()
        };
        assert!(depth(1).validate().is_ok());
        assert!(depth(MAX_TREE_DEPTH).validate().is_ok());
        for bad in [0, MAX_TREE_DEPTH + 1, usize::MAX] {
            assert!(
                matches!(depth(bad).validate(), Err(CharlesError::BadConfig(_))),
                "max_tree_depth = {bad} must be rejected"
            );
        }
    }

    #[test]
    fn auto_threads_positive() {
        assert!(CharlesConfig::default().effective_threads() >= 1);
    }
}
