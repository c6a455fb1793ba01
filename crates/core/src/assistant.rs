//! The setup assistant: correlation-driven attribute shortlisting.
//!
//! For wide tables the space of candidate summaries explodes; the paper's
//! assistant estimates each attribute's influence on the target attribute
//! and presents ranked shortlists for *condition* attributes (categorical
//! or numeric; association measured against the observed change) and
//! *transformation* attributes (numeric; association measured against the
//! target's new values). Users can accept the defaults or override.

use crate::config::CharlesConfig;
use crate::error::{CharlesError, Result};
use charles_cluster::kmeans_1d;
use charles_numerics::corr::{correlation_ratio, pearson};
use charles_relation::{Column, DataType, SnapshotPair, Value};
use std::collections::BTreeMap;

/// One scored candidate attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeScore {
    /// Attribute name.
    pub attr: String,
    /// Association strength in [0, 1] (|Pearson| or correlation ratio η).
    pub correlation: f64,
    /// Whether the attribute is categorical (Utf8/Bool) or numeric.
    pub categorical: bool,
}

/// The assistant's output: ranked candidate lists.
#[derive(Debug, Clone, Default)]
pub struct SetupReport {
    /// Candidates for partitioning conditions, best first (`A_cond`).
    pub condition_candidates: Vec<AttributeScore>,
    /// Candidates for transformation models, best first (`A_tran`).
    pub transform_candidates: Vec<AttributeScore>,
}

impl SetupReport {
    /// The shortlisted condition attribute names, best first.
    pub fn condition_attrs(&self) -> Vec<String> {
        self.condition_candidates
            .iter()
            .map(|a| a.attr.clone())
            .collect()
    }

    /// The shortlisted transformation attribute names, best first.
    pub fn transform_attrs(&self) -> Vec<String> {
        self.transform_candidates
            .iter()
            .map(|a| a.attr.clone())
            .collect()
    }
}

/// Dictionary codes for a categorical column (Bool → 0/1; nulls get a
/// dedicated code so they group together).
fn category_codes(col: &Column) -> Vec<u32> {
    match col {
        Column::Utf8 {
            codes, validity, ..
        } => codes
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                if validity.as_ref().is_none_or(|m| m[i]) {
                    c + 1
                } else {
                    0
                }
            })
            .collect(),
        Column::Bool { values, validity } => values
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                if validity.as_ref().is_none_or(|m| m[i]) {
                    1 + u32::from(b)
                } else {
                    0
                }
            })
            .collect(),
        _ => (0..col.len())
            .map(|i| if col.is_valid(i) { 1 } else { 0 })
            .collect(),
    }
}

/// Numeric values with nulls imputed to the column mean (screening only —
/// the engine itself refuses nulls in regression inputs).
fn numeric_or_imputed(col: &Column) -> Option<Vec<f64>> {
    if !col.dtype().is_numeric() {
        return None;
    }
    let mut vals = Vec::with_capacity(col.len());
    let mut sum = 0.0;
    let mut count = 0usize;
    for i in 0..col.len() {
        match col.get_f64(i) {
            Some(v) => {
                vals.push(Some(v));
                // lint:allow(float-fold-order: single-pass mean imputation in fixed row order)
                sum += v;
                count += 1;
            }
            None => vals.push(None),
        }
    }
    let mean = if count > 0 { sum / count as f64 } else { 0.0 };
    Some(vals.into_iter().map(|v| v.unwrap_or(mean)).collect())
}

fn gini_of(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total as f64;
            p * p
        })
        // lint:allow(float-fold-order: Gini over a handful of label counts, fixed slice order)
        .sum::<f64>()
}

/// Weighted Gini impurity of label counts over a set of leaves.
fn leaves_impurity(leaves: &[Vec<usize>], labels: &[usize], n_labels: usize, n: usize) -> f64 {
    leaves
        .iter()
        .map(|rows| {
            let mut counts = vec![0usize; n_labels];
            for &r in rows {
                counts[labels[r]] += 1;
            }
            rows.len() as f64 / n as f64 * gini_of(&counts, rows.len())
        })
        .sum()
}

/// Split one leaf by an attribute: categorical attributes group by value;
/// numeric attributes use the best binary threshold for *this* leaf.
/// Returns `None` when the attribute cannot split the leaf.
fn split_leaf(
    col: &Column,
    rows: &[usize],
    labels: &[usize],
    n_labels: usize,
) -> Option<Vec<Vec<usize>>> {
    if rows.len() < 2 {
        return None;
    }
    if col.dtype().is_numeric() {
        let mut vals: Vec<(f64, usize)> = rows
            .iter()
            .filter_map(|&r| col.get_f64(r).map(|v| (v, r)))
            .collect();
        if vals.len() < rows.len() {
            return None; // nulls: skip
        }
        vals.sort_by(|a, b| a.0.total_cmp(&b.0));
        const MAX_THRESHOLDS: usize = 32;
        let step = (vals.len() / MAX_THRESHOLDS).max(1);
        let mut best: Option<(f64, usize)> = None;
        for i in (step..vals.len()).step_by(step) {
            if vals[i - 1].0 >= vals[i].0 {
                continue;
            }
            let left: Vec<usize> = vals[..i].iter().map(|&(_, r)| r).collect();
            let right: Vec<usize> = vals[i..].iter().map(|&(_, r)| r).collect();
            let child = leaves_impurity(&[left, right], labels, n_labels, rows.len());
            if best.as_ref().is_none_or(|&(b, _)| child < b) {
                best = Some((child, i));
            }
        }
        best.map(|(_, i)| {
            vec![
                vals[..i].iter().map(|&(_, r)| r).collect(),
                vals[i..].iter().map(|&(_, r)| r).collect(),
            ]
        })
    } else {
        // BTree-grouped so the emitted groups come out in `Value` order —
        // hash order here would make split enumeration (and any
        // score-tie winner downstream) vary run to run.
        let mut by_value: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
        for &r in rows {
            by_value.entry(col.get(r)).or_default().push(r);
        }
        if by_value.len() < 2 || by_value.len() > 24 {
            return None;
        }
        Some(by_value.into_values().collect())
    }
}

/// Greedy forward selection of condition attributes against the
/// change-behaviour clusters.
///
/// Starting from one leaf holding all rows, repeatedly pick the attribute
/// whose per-leaf splits most reduce the weighted Gini impurity of the
/// cluster labels; its *relevance* is √(impurity reduction / root
/// impurity). This is the label-space analogue of a correlation ratio and,
/// crucially, it is **conditional**: an attribute like `grade` whose
/// marginal association is diluted still scores highly once `department`
/// has absorbed the clusters it cannot separate.
fn forward_condition_selection(
    candidates: &[(String, &Column)],
    labels: &[usize],
    n_labels: usize,
    accept_threshold: f64,
    cap: usize,
) -> Vec<(String, f64)> {
    let n = labels.len();
    if n < 2 || n_labels < 2 {
        return Vec::new();
    }
    let mut leaves: Vec<Vec<usize>> = vec![(0..n).collect()];
    let root = leaves_impurity(&leaves, labels, n_labels, n);
    if root <= 1e-12 {
        return Vec::new();
    }
    let mut current = root;
    let mut chosen: Vec<(String, f64)> = Vec::new();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    while chosen.len() < cap && current > 1e-12 {
        let mut best: Option<(usize, f64, Vec<Vec<usize>>)> = None;
        for &ci in &remaining {
            let (_, col) = &candidates[ci];
            let mut new_leaves: Vec<Vec<usize>> = Vec::new();
            for leaf in &leaves {
                match split_leaf(col, leaf, labels, n_labels) {
                    Some(parts) => new_leaves.extend(parts),
                    None => new_leaves.push(leaf.clone()),
                }
            }
            let impurity = leaves_impurity(&new_leaves, labels, n_labels, n);
            if best.as_ref().is_none_or(|&(_, b, _)| impurity < b) {
                best = Some((ci, impurity, new_leaves));
            }
        }
        let Some((ci, impurity, new_leaves)) = best else {
            break;
        };
        let relevance = ((current - impurity) / root).max(0.0).sqrt();
        if relevance < accept_threshold {
            break;
        }
        chosen.push((candidates[ci].0.clone(), relevance));
        remaining.retain(|&r| r != ci);
        leaves = new_leaves;
        current = impurity;
    }
    chosen
}

/// Run the assistant over an aligned snapshot pair.
///
/// Condition candidates are scored by the strongest of three association
/// measures with the observed change: correlation with the absolute delta,
/// correlation with the relative delta, and split relevance against a
/// clustering of the relative delta (the latter captures attributes whose
/// split — not whose value — separates change behaviours). Transformation
/// candidates are scored against the *new* values, because that is what
/// the linear model must reproduce. The target's own old value is always a
/// transformation candidate (the paper's demo picks "bonus of the previous
/// year" first).
pub fn analyze(
    pair: &SnapshotPair,
    target_attr: &str,
    config: &CharlesConfig,
) -> Result<SetupReport> {
    let source = pair.source();
    let schema = source.schema();
    let target_idx = schema.index_of(target_attr)?;
    if !schema.fields()[target_idx].dtype().is_numeric() {
        return Err(CharlesError::BadTargetAttribute(format!(
            "{target_attr:?} must be numeric, found {}",
            schema.fields()[target_idx].dtype()
        )));
    }
    // Shared views: zero-copy for null-free Float64 columns (and, on
    // identity-aligned pairs, for the target side too).
    let y_new = pair.target_numeric_view(target_attr)?;
    let y_old = source
        .numeric_view(target_attr)
        .map_err(CharlesError::from)?;
    let delta: Vec<f64> = y_new.iter().zip(y_old.iter()).map(|(n, o)| n - o).collect();
    let rel_delta: Vec<f64> = y_new
        .iter()
        .zip(y_old.iter())
        .map(|(n, o)| (n - o) / o.abs().max(1.0))
        .collect();
    // One cheap clustering of the relative change drives split relevance.
    let labels: Option<(Vec<usize>, usize)> = {
        let k = config.k_max.clamp(2, 6).min(rel_delta.len());
        if rel_delta.len() >= 4 {
            kmeans_1d(&rel_delta, k).ok().map(|r| (r.assignments, k))
        } else {
            None
        }
    };

    let mut transform_candidates = Vec::new();
    // (name, col, categorical, marginal association with the change)
    let mut cond_pool: Vec<(String, &Column, bool, f64)> = Vec::new();

    for (idx, field) in schema.fields().iter().enumerate() {
        let name = field.name();
        if Some(name) == pair.key_attr() {
            continue; // keys identify entities, they never explain change
        }
        let col = source.column(idx)?;
        // Skip free-text-like columns: a categorical attribute with
        // (almost) one distinct value per row cannot define a partition.
        let distinct = col.distinct_count();
        let is_categorical = matches!(field.dtype(), DataType::Utf8 | DataType::Bool);
        if is_categorical && distinct > (source.height() / 2).max(20) {
            continue;
        }

        // Condition candidacy: marginal association with the change Δ
        // (absolute or relative). The target attribute itself is excluded
        // — "bonus ≥ 20000 → new bonus = ..." is a circular description,
        // not an explanation of *why* the change happened.
        if name != target_attr {
            let marginal = if is_categorical {
                correlation_ratio(&category_codes(col), &delta)
                    .unwrap_or(0.0)
                    .max(correlation_ratio(&category_codes(col), &rel_delta).unwrap_or(0.0))
            } else {
                let x = numeric_or_imputed(col);
                let c1 = x
                    .as_ref()
                    .and_then(|x| pearson(x, &delta).ok())
                    .map_or(0.0, f64::abs);
                let c2 = x
                    .as_ref()
                    .and_then(|x| pearson(x, &rel_delta).ok())
                    .map_or(0.0, f64::abs);
                c1.max(c2)
            };
            cond_pool.push((name.to_string(), col, is_categorical, marginal));
        }

        // Transformation candidacy: numeric attributes, association with
        // the new values.
        if field.dtype().is_numeric() {
            if let Some(x) = numeric_or_imputed(col) {
                let corr = pearson(&x, &y_new).map_or(0.0, f64::abs);
                let passes = corr >= config.correlation_threshold || name == target_attr;
                if passes {
                    transform_candidates.push(AttributeScore {
                        attr: name.to_string(),
                        correlation: corr,
                        categorical: false,
                    });
                }
            }
        }
    }

    // Conditional relevance: greedy forward selection against the change
    // clusters, accepted at half the marginal threshold (it is a stricter,
    // conditional measure — see `forward_condition_selection`).
    let forward: Vec<(String, f64)> = match &labels {
        Some((l, k)) if *k >= 2 => {
            let refs: Vec<(String, &Column)> = cond_pool
                .iter()
                .map(|(name, col, _, _)| (name.clone(), *col))
                .collect();
            forward_condition_selection(
                &refs,
                l,
                *k,
                config.correlation_threshold / 2.0,
                config.max_candidate_condition_attrs,
            )
        }
        _ => Vec::new(),
    };

    let mut condition_candidates: Vec<AttributeScore> = Vec::new();
    for (name, _, categorical, marginal) in &cond_pool {
        let fwd = forward
            .iter()
            .find(|(f, _)| f == name)
            .map_or(0.0, |(_, r)| *r);
        let score = marginal.max(fwd);
        if *marginal >= config.correlation_threshold || fwd > 0.0 {
            condition_candidates.push(AttributeScore {
                attr: name.clone(),
                correlation: score,
                categorical: *categorical,
            });
        }
    }

    condition_candidates.sort_by(|a, b| {
        b.correlation
            .total_cmp(&a.correlation)
            .then_with(|| a.attr.cmp(&b.attr))
    });
    transform_candidates.sort_by(|a, b| {
        // The target's previous value first (the natural autoregressive
        // predictor), then by correlation.
        let a_is_target = a.attr == target_attr;
        let b_is_target = b.attr == target_attr;
        b_is_target
            .cmp(&a_is_target)
            .then(b.correlation.total_cmp(&a.correlation))
            .then_with(|| a.attr.cmp(&b.attr))
    });
    condition_candidates.truncate(config.max_candidate_condition_attrs);
    transform_candidates.truncate(config.max_candidate_transform_attrs);

    Ok(SetupReport {
        condition_candidates,
        transform_candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::{
        apply_updates, ApplyMode, Expr, Predicate, TableBuilder, UpdateStatement,
    };

    /// Build a pair where edu drives the change and bonus/salary predict
    /// the new values, while `noise` is irrelevant.
    fn pair() -> SnapshotPair {
        let n = 40;
        let edu: Vec<&str> = (0..n)
            .map(|i| if i % 2 == 0 { "PhD" } else { "BS" })
            .collect();
        let salary: Vec<f64> = (0..n).map(|i| 100_000.0 + 1_000.0 * i as f64).collect();
        let bonus: Vec<f64> = salary.iter().map(|s| s * 0.1).collect();
        let noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 97) as f64).collect();
        let names: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
        let source = TableBuilder::new("s")
            .str_col("name", &names)
            .str_col("edu", &edu)
            .float_col("salary", &salary)
            .float_col("bonus", &bonus)
            .float_col("noise", &noise)
            .key("name")
            .build()
            .unwrap();
        let policy = [UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", 1.10, 500.0),
            Predicate::eq("edu", "PhD"),
        )];
        let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
            .unwrap()
            .table;
        SnapshotPair::align(source, target).unwrap()
    }

    #[test]
    fn shortlists_informative_attributes() {
        let p = pair();
        let report = analyze(&p, "bonus", &CharlesConfig::default()).unwrap();
        let cond = report.condition_attrs();
        assert!(
            cond.contains(&"edu".to_string()),
            "edu should be a condition candidate, got {cond:?}"
        );
        let tran = report.transform_attrs();
        assert!(tran.contains(&"bonus".to_string()));
        assert!(tran.contains(&"salary".to_string()));
        // Old target value ranked first.
        assert_eq!(tran[0], "bonus");
    }

    #[test]
    fn irrelevant_attribute_excluded() {
        let p = pair();
        let report = analyze(&p, "bonus", &CharlesConfig::default()).unwrap();
        assert!(!report.condition_attrs().contains(&"noise".to_string()));
        assert!(!report.transform_attrs().contains(&"noise".to_string()));
    }

    #[test]
    fn key_attribute_never_candidate() {
        let p = pair();
        let report = analyze(&p, "bonus", &CharlesConfig::default()).unwrap();
        assert!(!report.condition_attrs().contains(&"name".to_string()));
    }

    #[test]
    fn non_numeric_target_rejected() {
        let p = pair();
        assert!(matches!(
            analyze(&p, "edu", &CharlesConfig::default()).unwrap_err(),
            CharlesError::BadTargetAttribute(_)
        ));
    }

    #[test]
    fn threshold_respected() {
        let p = pair();
        let strict = CharlesConfig {
            correlation_threshold: 0.999,
            ..CharlesConfig::default()
        };
        let report = analyze(&p, "bonus", &strict).unwrap();
        // Even with an impossible threshold, the old target value stays a
        // transformation candidate.
        assert_eq!(report.transform_attrs(), vec!["bonus".to_string()]);
    }

    #[test]
    fn caps_respected() {
        let p = pair();
        let capped = CharlesConfig {
            max_candidate_condition_attrs: 1,
            max_candidate_transform_attrs: 1,
            correlation_threshold: 0.0,
            ..CharlesConfig::default()
        };
        let report = analyze(&p, "bonus", &capped).unwrap();
        assert_eq!(report.condition_candidates.len(), 1);
        assert_eq!(report.transform_candidates.len(), 1);
    }
}
