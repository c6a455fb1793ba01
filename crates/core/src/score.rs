//! Scoring: `Score(S) = α·Accuracy(S) + (1−α)·Interpretability(S)`.
//!
//! Accuracy follows the paper exactly: the inverse (normalized) L1 distance
//! between the transformed source `Ŝ(D_s)(a_i)` and the target `D_t(a_i)`.
//! Interpretability is the weighted mean of four sub-scores implementing
//! the paper's four desiderata: smaller summaries, simpler conditions and
//! transformations, higher coverage, and higher normality of constants.

use crate::config::CharlesConfig;
use crate::ct::ConditionalTransformation;
use crate::error::Result;
use crate::summary::{InterpretabilityBreakdown, Scores};
use crate::transform::Transformation;
use charles_numerics::kernels;
use charles_relation::{AttrId, NumericView, Table};
use std::collections::HashMap;

/// Everything needed to score candidate summaries against one snapshot
/// pair. Build once per engine run, reuse across all candidates.
///
/// Prediction runs on the same `Arc`-shared [`NumericView`] plane as the
/// search: every numeric attribute is extracted once at construction, and
/// applying a transformation reads columns through interned ids — no
/// string lookups and no column copies per scored candidate.
#[derive(Debug)]
pub struct ScoringContext<'a> {
    /// Source snapshot.
    pub source: &'a Table,
    /// Target attribute name.
    pub target_attr: &'a str,
    /// Target-snapshot values of the target attribute, aligned to source
    /// row order.
    y_target: NumericView,
    /// Source-snapshot values of the target attribute.
    y_source: NumericView,
    /// Shared views of the source's numeric attributes, keyed by id.
    views: HashMap<AttrId, NumericView>,
    /// Normalization scale for the L1 distance (mean |target|).
    pub scale: f64,
    /// Engine configuration (α and interpretability weights).
    pub config: &'a CharlesConfig,
}

impl<'a> ScoringContext<'a> {
    /// Create a context, deriving the normalization scale from the mean
    /// absolute *change* of the target attribute (we are explaining the
    /// change, so residual error is judged relative to how much change
    /// there was to explain). Falls back to the mean absolute target value
    /// when nothing changed, then to 1.0 when that is degenerate too.
    ///
    /// Extracts a shared view of every null-free numeric column once.
    pub fn new(
        source: &'a Table,
        target_attr: &'a str,
        y_target: &[f64],
        y_source: &[f64],
        config: &'a CharlesConfig,
    ) -> Self {
        let mut views = HashMap::new();
        for (field, id) in source
            .schema()
            .fields()
            .iter()
            .zip(source.schema().attr_ids())
        {
            if !matches!(field.dtype(), charles_relation::DataType::Utf8) {
                if let Ok(view) = source.column_by_id(id).numeric_view(field.name()) {
                    views.insert(id, view);
                }
            }
        }
        Self::from_views(
            source,
            target_attr,
            NumericView::new(y_target.to_vec()),
            NumericView::new(y_source.to_vec()),
            views,
            config,
        )
    }

    /// Create a context over pre-extracted shared views (the search path:
    /// zero additional extraction).
    pub fn from_views(
        source: &'a Table,
        target_attr: &'a str,
        y_target: NumericView,
        y_source: NumericView,
        views: HashMap<AttrId, NumericView>,
        config: &'a CharlesConfig,
    ) -> Self {
        let scale = derive_scale(&y_target, &y_source);
        Self::from_views_scaled(
            source,
            target_attr,
            y_target,
            y_source,
            views,
            scale,
            config,
        )
    }

    /// Create a context over pre-extracted views **and** a precomputed
    /// normalization scale (the session path: the scale is a property of
    /// the target plane and survives across α re-scorings, so rescoring
    /// touches no column data at all).
    #[allow(clippy::too_many_arguments)]
    pub fn from_views_scaled(
        source: &'a Table,
        target_attr: &'a str,
        y_target: NumericView,
        y_source: NumericView,
        views: HashMap<AttrId, NumericView>,
        scale: f64,
        config: &'a CharlesConfig,
    ) -> Self {
        ScoringContext {
            source,
            target_attr,
            y_target,
            y_source,
            views,
            scale,
            config,
        }
    }

    /// Target-snapshot values (aligned to source rows).
    pub fn y_target(&self) -> &[f64] {
        &self.y_target
    }

    /// Source-snapshot values of the target attribute.
    pub fn y_source(&self) -> &[f64] {
        &self.y_source
    }

    /// The shared view a term reads: id-indexed when the handle resolves
    /// to a field of the *same name* in this context's schema (handles
    /// interned on an identically-shaped schema are accepted), one name
    /// lookup otherwise (externally built transformations).
    fn term_view(&self, attr: &charles_relation::AttrRef) -> Result<&NumericView> {
        let id = match attr.id() {
            Some(id)
                if self
                    .source
                    .schema()
                    .field(id.index())
                    .is_ok_and(|f| f.name() == attr.name()) =>
            {
                id
            }
            _ => self.source.schema().attr_id(attr.name())?,
        };
        self.views.get(&id).ok_or_else(|| {
            crate::error::CharlesError::BadConfig(format!(
                "attribute {:?} has no numeric view (null or non-numeric column)",
                attr.name()
            ))
        })
    }

    /// Predicted target values after applying `cts` to the source: rows not
    /// covered by any CT keep their source value.
    pub fn predict(&self, cts: &[ConditionalTransformation]) -> Result<Vec<f64>> {
        let mut pred = self.y_source.to_vec();
        for ct in cts {
            match &ct.transformation {
                // Identity: covered rows keep their source value, which is
                // what `pred` already holds.
                Transformation::Identity => {}
                Transformation::Linear {
                    terms, intercept, ..
                } => {
                    // Full-coverage CTs (rows = exactly 0..n) run the dense
                    // elementwise kernels over whole column slices; partial
                    // CTs scatter through the hoisted column slice.
                    let full = ct.rows.len() == pred.len()
                        && ct.rows.iter().enumerate().all(|(i, &r)| r == i);
                    if full {
                        pred.fill(*intercept);
                        for term in terms {
                            let view = self.term_view(&term.attr)?;
                            kernels::axpy(&mut pred, term.coefficient, view.as_slice());
                        }
                    } else {
                        for &row in &ct.rows {
                            pred[row] = *intercept;
                        }
                        for term in terms {
                            let view = self.term_view(&term.attr)?.as_slice();
                            for &row in &ct.rows {
                                pred[row] += term.coefficient * view[row];
                            }
                        }
                    }
                }
            }
        }
        Ok(pred)
    }

    /// Accuracy of a full prediction vector:
    /// `1 / (1 + sharpness · L1/(n·scale))`.
    pub fn accuracy_of(&self, pred: &[f64]) -> f64 {
        let n = self.y_target.len();
        if n == 0 {
            return 1.0;
        }
        let l1 = kernels::sum_abs_diff(pred, self.y_target.as_slice());
        1.0 / (1.0 + self.config.accuracy_sharpness * l1 / (n as f64 * self.scale))
    }

    /// Accuracy of a candidate CT set.
    pub fn accuracy(&self, cts: &[ConditionalTransformation]) -> Result<f64> {
        Ok(self.accuracy_of(&self.predict(cts)?))
    }

    /// Interpretability sub-scores for a candidate CT set.
    pub fn interpretability(&self, cts: &[ConditionalTransformation]) -> InterpretabilityBreakdown {
        if cts.is_empty() {
            return InterpretabilityBreakdown {
                size: 1.0,
                simplicity: 1.0,
                coverage: 0.0,
                normality: 1.0,
            };
        }
        // (1) Smaller summaries: 1 CT scores 1.0, decaying smoothly.
        let size = 1.0 / (1.0 + (cts.len() as f64 - 1.0) / 4.0);

        // (2) Simpler conditions & transformations: coverage-weighted mean
        // of a per-CT simplicity decaying with descriptor + variable count.
        // lint:allow(float-fold-order: hot scoring path, fixed contingency-table order, no allocation budget)
        let total_cov: f64 = cts.iter().map(|ct| ct.coverage).sum();
        let simplicity = if total_cov > 0.0 {
            cts.iter()
                .map(|ct| {
                    let units =
                        ct.condition.complexity() as f64 + ct.transformation.complexity() as f64;
                    ct.coverage * (1.0 / (1.0 + units / 4.0))
                })
                // lint:allow(float-fold-order: hot scoring path, fixed contingency-table order, no allocation budget)
                .sum::<f64>()
                / total_cov
        } else {
            1.0
        };

        // (3) Higher coverage: concentration of coverage mass (Herfindahl).
        // One partition covering everything = 1.0; k even partitions = 1/k;
        // uncovered rows contribute nothing.
        // lint:allow(float-fold-order: hot scoring path, fixed contingency-table order, no allocation budget)
        let coverage = cts.iter().map(|ct| ct.coverage * ct.coverage).sum::<f64>();

        // (4) Normality of constants, coverage-weighted over CTs.
        let normality = if total_cov > 0.0 {
            cts.iter()
                .map(|ct| {
                    ct.coverage * 0.5 * (ct.condition.normality() + ct.transformation.normality())
                })
                // lint:allow(float-fold-order: hot scoring path, fixed contingency-table order, no allocation budget)
                .sum::<f64>()
                / total_cov
        } else {
            1.0
        };

        InterpretabilityBreakdown {
            size,
            simplicity,
            coverage,
            normality,
        }
    }

    /// Score a candidate CT set, returning full scores and the breakdown.
    pub fn score(
        &self,
        cts: &[ConditionalTransformation],
    ) -> Result<(Scores, InterpretabilityBreakdown)> {
        let accuracy = self.accuracy(cts)?;
        let b = self.interpretability(cts);
        let [w_size, w_simp, w_cov, w_norm] = self.config.interpretability_weights;
        let interpretability =
            w_size * b.size + w_simp * b.simplicity + w_cov * b.coverage + w_norm * b.normality;
        let alpha = self.config.alpha;
        Ok((
            Scores {
                accuracy,
                interpretability,
                score: alpha * accuracy + (1.0 - alpha) * interpretability,
            },
            b,
        ))
    }
}

/// The L1 normalization scale for one target plane: mean absolute change,
/// falling back to mean absolute target value, then to 1.0 when degenerate.
pub fn derive_scale(y_target: &[f64], y_source: &[f64]) -> f64 {
    let n = y_target.len();
    if n == 0 {
        return 1.0;
    }
    let mean_change = kernels::sum_abs_diff(y_target, y_source) / n as f64;
    if mean_change > 0.0 {
        return mean_change;
    }
    let m = kernels::sum_abs(y_target) / n as f64;
    if m > 0.0 {
        m
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, Descriptor};
    use crate::transform::{Term, Transformation};
    use charles_relation::{TableBuilder, Value};

    fn setup() -> (Table, Vec<f64>, Vec<f64>) {
        let source = TableBuilder::new("s")
            .str_col("edu", &["PhD", "PhD", "BS", "BS"])
            .float_col("bonus", &[20_000.0, 10_000.0, 5_000.0, 6_000.0])
            .build()
            .unwrap();
        let y_source = vec![20_000.0, 10_000.0, 5_000.0, 6_000.0];
        // PhDs got 1.1x; BS unchanged.
        let y_target = vec![22_000.0, 11_000.0, 5_000.0, 6_000.0];
        (source, y_source, y_target)
    }

    fn phd_ct(coef: f64) -> ConditionalTransformation {
        ConditionalTransformation::new(
            Condition::all().with(Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("PhD"),
            }),
            Transformation::linear(
                "bonus",
                vec![Term {
                    attr: "bonus".into(),
                    coefficient: coef,
                }],
                0.0,
            ),
            vec![0, 1],
            4,
            0.0,
        )
    }

    #[test]
    fn perfect_summary_has_accuracy_one() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        let cts = vec![phd_ct(1.1)];
        assert!((ctx.accuracy(&cts).unwrap() - 1.0).abs() < 1e-12);
        let (scores, _) = ctx.score(&cts).unwrap();
        assert!(scores.score > 0.75);
    }

    #[test]
    fn wrong_summary_scores_lower() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        let good = ctx.accuracy(&[phd_ct(1.1)]).unwrap();
        let bad = ctx.accuracy(&[phd_ct(2.0)]).unwrap();
        assert!(good > bad);
        // Empty summary = "nothing changed": wrong for PhD rows.
        let nothing = ctx.accuracy(&[]).unwrap();
        assert!(good > nothing);
        assert!(nothing > bad, "mild error beats wild overshoot");
    }

    #[test]
    fn uncovered_rows_keep_source_values() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        let pred = ctx.predict(&[phd_ct(1.1)]).unwrap();
        assert_eq!(pred[2], 5_000.0);
        assert_eq!(pred[3], 6_000.0);
        assert_eq!(pred[0], 22_000.0);
    }

    #[test]
    fn alpha_extremes() {
        let (source, y_source, y_target) = setup();
        let acc_only = CharlesConfig::default().with_alpha(1.0);
        let int_only = CharlesConfig::default().with_alpha(0.0);
        let cts = vec![phd_ct(1.1)];

        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &acc_only);
        let (s, _) = ctx.score(&cts).unwrap();
        assert!((s.score - s.accuracy).abs() < 1e-12);

        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &int_only);
        let (s, _) = ctx.score(&cts).unwrap();
        assert!((s.score - s.interpretability).abs() < 1e-12);
    }

    #[test]
    fn interpretability_prefers_fewer_cts() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        let one = ctx.interpretability(&[phd_ct(1.1)]);
        let two = ctx.interpretability(&[phd_ct(1.1), phd_ct(1.2)]);
        assert!(one.size > two.size);
    }

    #[test]
    fn coverage_concentration() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        // One CT covering everything.
        let full = ConditionalTransformation::new(
            Condition::all(),
            Transformation::Identity,
            vec![0, 1, 2, 3],
            4,
            0.0,
        );
        let b = ctx.interpretability(&[full]);
        assert!((b.coverage - 1.0).abs() < 1e-12);
        // Half coverage scores 0.25 (0.5²).
        let half = phd_ct(1.1);
        let b = ctx.interpretability(&[half]);
        assert!((b.coverage - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_cts_defined() {
        let (source, y_source, y_target) = setup();
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "bonus", &y_target, &y_source, &config);
        let b = ctx.interpretability(&[]);
        assert_eq!(b.size, 1.0);
        assert_eq!(b.coverage, 0.0);
        let (scores, _) = ctx.score(&[]).unwrap();
        assert!(scores.score > 0.0);
    }

    #[test]
    fn scale_degenerate_target() {
        let source = TableBuilder::new("s")
            .float_col("x", &[0.0, 0.0])
            .build()
            .unwrap();
        let y = vec![0.0, 0.0];
        let config = CharlesConfig::default();
        let ctx = ScoringContext::new(&source, "x", &y, &y, &config);
        assert_eq!(ctx.scale, 1.0);
        assert_eq!(ctx.accuracy(&[]).unwrap(), 1.0);
    }
}
