//! Partition discovery: from regression residuals to *expressible*
//! partitions.
//!
//! The paper's engine fits one global regression for the target attribute
//! over the transformation attributes, then clusters rows **by distance
//! from the regression line**. The clusters are only *potential* partitions
//! though: a cluster is useful to a human only if it can be described by
//! conditions over the condition attributes. This module closes that gap —
//! and with it the paper's "cyclic dependency" between clustering and
//! pattern sharing — by inducing a shallow CART-style decision tree over
//! the condition attributes that predicts the cluster labels, then
//! re-partitioning rows by the induced predicates. The result is a set of
//! disjoint, covering, *expressible* partitions: whatever the clusters
//! suggested that conditions cannot express is washed out, and whatever
//! they suggested that conditions can express becomes exact.

use crate::condition::{Condition, Descriptor};
use crate::config::{CharlesConfig, PartitionMethod, MAX_TREE_DEPTH};
use crate::error::Result;
use charles_cluster::{dbscan, kmeans_1d};
use charles_numerics::normality::{roundness, scored_snap_candidates};
use charles_numerics::stats::{mad, median};
use charles_relation::{AttrRef, Column, Table, Value};
use std::sync::Arc;

/// A discovered partition: an expressible condition plus the rows that
/// satisfy it.
#[derive(Debug, Clone)]
pub struct PartitionSpec {
    /// The condition describing this partition.
    pub condition: Condition,
    /// Source row ids matching the condition (disjoint across specs).
    pub rows: Vec<usize>,
}

/// Distance (in MADs from the median) beyond which a residual is treated
/// as an out-of-policy outlier and excluded from clustering. Keeps a
/// handful of hand-edited cells from hijacking k-means clusters (k-means
/// is notoriously outlier-sensitive).
const OUTLIER_MADS: f64 = 8.0;

/// Label marking rows whose change is out-of-policy noise. Condition
/// induction *ignores* these rows when computing impurity: noise is not
/// structure to describe, and trying to describe it is how trees overfit.
/// The rows still land in whichever partition their attribute values
/// select, where the trimmed per-partition refit absorbs them.
pub const OUTLIER_LABEL: usize = usize::MAX;

/// Split rows into (inlier indices, outlier indices) by MAD distance.
fn trim_outliers(values: &[f64]) -> (Vec<usize>, Vec<usize>) {
    let med = median(values).unwrap_or(0.0);
    let spread = mad(values).unwrap_or(0.0);
    if spread <= 0.0 {
        return ((0..values.len()).collect(), Vec::new());
    }
    let cutoff = OUTLIER_MADS * spread;
    let mut inliers = Vec::with_capacity(values.len());
    let mut outliers = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if (v - med).abs() > cutoff {
            outliers.push(i);
        } else {
            inliers.push(i);
        }
    }
    // Guard: if "outliers" are actually a substantial population (≥ 10%),
    // they are structure, not noise — keep everything.
    if outliers.len() * 10 >= values.len() {
        return ((0..values.len()).collect(), Vec::new());
    }
    (inliers, outliers)
}

/// Cluster residuals into `k` groups using the configured method.
/// Returns one label per row (labels are dense, 0-based). Out-of-policy
/// outliers (beyond `OUTLIER_MADS`) are assigned a dedicated trailing
/// label rather than participating in clustering.
pub fn cluster_residuals(
    residuals: &[f64],
    k: usize,
    config: &CharlesConfig,
) -> Result<Vec<usize>> {
    if k <= 1 || residuals.len() <= 1 {
        return Ok(vec![0; residuals.len()]);
    }
    let (inliers, outliers) = match config.partition_method {
        PartitionMethod::ResidualDbscan => ((0..residuals.len()).collect(), Vec::new()),
        _ => trim_outliers(residuals),
    };
    if !outliers.is_empty() {
        let inlier_vals: Vec<f64> = inliers.iter().map(|&i| residuals[i]).collect();
        let sub = cluster_residuals(&inlier_vals, k, config)?;
        let mut labels = vec![0usize; residuals.len()];
        for (slot, &row) in inliers.iter().enumerate() {
            labels[row] = sub[slot];
        }
        for &row in &outliers {
            labels[row] = OUTLIER_LABEL;
        }
        return Ok(labels);
    }
    let k = k.min(residuals.len());
    match config.partition_method {
        PartitionMethod::ResidualKMeans => Ok(kmeans_1d(residuals, k)?.assignments),
        PartitionMethod::ResidualQuantile => {
            let mut sorted = residuals.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            // Boundaries at the i/k quantiles.
            let bounds: Vec<f64> = (1..k).map(|i| sorted[(i * sorted.len()) / k]).collect();
            Ok(residuals
                .iter()
                .map(|&r| bounds.iter().take_while(|&&b| r >= b).count())
                .collect())
        }
        PartitionMethod::ResidualDbscan => {
            let spread = mad(residuals).unwrap_or(0.0);
            let med = median(residuals).unwrap_or(0.0);
            let eps = (spread * 1.5).max(med.abs() * 1e-6).max(1e-9);
            let min_points = (residuals.len() / 50).max(2);
            let points: Vec<Vec<f64>> = residuals.iter().map(|&r| vec![r]).collect();
            let res = dbscan(&points, eps, min_points)?;
            // Noise points become their own trailing label so the tree can
            // still try to describe them.
            let noise_label = res.n_clusters;
            Ok(res
                .labels
                .iter()
                .map(|&l| if l < 0 { noise_label } else { l as usize })
                .collect())
        }
    }
}

// ---------------------------------------------------------------------------
// Decision-tree induction over condition attributes
// ---------------------------------------------------------------------------
//
// Split search runs on label counts. Gini impurity is a pure function of a
// node's per-label counts, so every candidate split is scored from counts
// alone: a numeric attribute sweeps prefix counts along its presorted rows
// (SLIQ/SPRINT-style attribute lists: sorted once, then split stably into
// the children), and a categorical attribute reads its one-vs-rest counts
// off one (value group × label) pass. Only the winning split materializes
// rows.

/// Gini impurity of a label-count vector. Rows labelled [`OUTLIER_LABEL`]
/// are never counted, so they are invisible to the impurity.
fn gini(counts: &[usize]) -> f64 {
    let n: usize = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n as f64;
            p * p
        })
        // lint:allow(float-fold-order: Gini over a handful of label counts, fixed slice order)
        .sum::<f64>()
}

/// Per-label counts of `rows`, skipping [`OUTLIER_LABEL`].
fn label_counts(labels: &[usize], rows: &[usize], n_labels: usize) -> Vec<usize> {
    let mut counts = vec![0usize; n_labels];
    for &r in rows {
        if labels[r] != OUTLIER_LABEL {
            counts[labels[r]] += 1;
        }
    }
    counts
}

/// Whether all (non-outlier) rows share one label.
fn is_pure(labels: &[usize], rows: &[usize]) -> bool {
    let mut first: Option<usize> = None;
    for &r in rows {
        let l = labels[r];
        if l == OUTLIER_LABEL {
            continue;
        }
        match first {
            None => first = Some(l),
            Some(f) if f != l => return false,
            _ => {}
        }
    }
    true
}

/// Pick the roundest threshold `t` such that `x < t` partitions identically
/// for every `t ∈ (below, above]`, where `below` is the largest value going
/// left and `above` the smallest going right.
fn nice_threshold(below: f64, above: f64) -> f64 {
    let mid = (below + above) / 2.0;
    let mut best = above; // `x < above` is always a valid boundary
    let mut best_r = roundness(above);
    for (cand, r) in scored_snap_candidates(mid) {
        let rounder = r > best_r || (r == best_r && (cand - mid).abs() < (best - mid).abs());
        if cand > below && cand <= above && rounder {
            best = cand;
            best_r = r;
        }
    }
    best
}

/// A condition attribute prepared once per run for split search.
pub(crate) enum SplitColumn {
    /// Numeric: the non-null rows in ascending value order, ties by row
    /// id, NaNs last (no threshold `v < t` admits a NaN, so every split's
    /// `yes` side is a prefix of this order), and every row's value (NaN
    /// at the null rows `order` leaves out).
    Numeric { order: Vec<usize>, values: Vec<f64> },
    /// Categorical: every row's value group (by dictionary code or
    /// boolean, nulls forming one group) and each group's value.
    Categorical {
        groups: Vec<usize>,
        values: Vec<Value>,
    },
}

impl SplitColumn {
    /// Whether some row holds a null or a NaN: the values a tree can route
    /// down a path its leaf's condition does not match.
    fn has_gaps(&self) -> bool {
        match self {
            // Nulls are left out of `order`; NaNs sort last in it.
            SplitColumn::Numeric { order, values } => {
                order.len() < values.len() || order.last().is_some_and(|&r| values[r].is_nan())
            }
            SplitColumn::Categorical { values, .. } => values.iter().any(Value::is_null),
        }
    }

    /// Prepare one column (`None` if it is neither numeric nor groupable).
    pub(crate) fn new(col: &Column) -> Option<SplitColumn> {
        if col.dtype().is_numeric() {
            let values: Vec<f64> = (0..col.len())
                .map(|r| col.get_f64(r).unwrap_or(f64::NAN))
                .collect();
            let mut order: Vec<usize> = (0..col.len()).filter(|&r| col.is_valid(r)).collect();
            order.sort_by(|&a, &b| {
                let (x, y) = (values[a], values[b]);
                x.is_nan().cmp(&y.is_nan()).then(x.total_cmp(&y))
            });
            return Some(SplitColumn::Numeric { order, values });
        }
        let grouped = col.group_codes()?;
        let values = grouped
            .groups
            .iter()
            .map(|(_, rows)| rows.first().map_or(Value::Null, |&r| col.get(r)))
            .collect();
        Some(SplitColumn::Categorical {
            groups: grouped.labels,
            values,
        })
    }
}

/// Which rows of a node the winning split sends to its `yes` side.
enum YesSide<'c> {
    /// The first `len` rows of the split attribute's sorted list.
    Prefix(usize),
    /// The rows in value group `group` of a categorical attribute.
    Group { groups: &'c [usize], group: usize },
}

/// The best split found so far at a node.
struct Best<'c> {
    gain: f64,
    attr: usize,
    descriptor: Descriptor,
    yes: YesSide<'c>,
}

/// One node of the growing tree.
struct Node {
    /// The node's rows: the parent's order, or the split attribute's
    /// sorted order below a numeric split.
    rows: Vec<usize>,
    /// Per condition attribute, the node's non-null rows in presorted
    /// order (empty for categorical attributes).
    sorted: Vec<Vec<usize>>,
    path: Vec<Descriptor>,
    depth: usize,
}

/// The parts of a node every candidate split is scored against.
struct NodeStats {
    len: usize,
    counts: Vec<usize>,
    gini: f64,
}

impl NodeStats {
    /// Parent impurity minus the size-weighted impurity of the children,
    /// for a `yes` side of `yes_len` rows with label counts `yes`.
    fn gain(&self, yes: &[usize], yes_len: usize) -> f64 {
        let no: Vec<usize> = self.counts.iter().zip(yes).map(|(p, y)| p - y).collect();
        let n = self.len as f64;
        let child =
            (yes_len as f64 / n) * gini(yes) + ((self.len - yes_len) as f64 / n) * gini(&no);
        self.gini - child
    }
}

/// Keep a candidate split when it strictly beats the best so far (and is
/// not numerically zero); the first of equal-gain candidates wins.
fn offer<'c>(
    best: &mut Option<Best<'c>>,
    gain: f64,
    attr: usize,
    make: impl FnOnce() -> (Descriptor, YesSide<'c>),
) {
    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
        let (descriptor, yes) = make();
        *best = Some(Best {
            gain,
            attr,
            descriptor,
            yes,
        });
    }
}

/// Most distinct values (the null group included) a categorical attribute
/// may show at a node and still be split on.
const MAX_CATEGORIES: usize = 24;

/// Numeric splits are tried at no more than this many thresholds per node.
const MAX_THRESHOLDS: usize = 32;

/// The CART split finder over one table, labeling and attribute list.
struct Cart<'a> {
    attrs: &'a [AttrRef],
    columns: Vec<Option<Arc<SplitColumn>>>,
    labels: &'a [usize],
    n_labels: usize,
    min_leaf: usize,
}

impl<'a> Cart<'a> {
    fn new(
        table: &Table,
        attrs: &'a [AttrRef],
        labels: &'a [usize],
        n_labels: usize,
        min_leaf: usize,
        prepared: &dyn Fn(&AttrRef, &Column) -> Option<Arc<SplitColumn>>,
    ) -> Self {
        let columns = attrs
            .iter()
            .map(|attr| prepared(attr, column_of(table, attr)?))
            .collect();
        Cart {
            attrs,
            columns,
            labels,
            n_labels,
            min_leaf,
        }
    }

    /// A node over `rows` (ascending), as the root is.
    fn node(&self, rows: Vec<usize>) -> Node {
        let mut member = vec![false; self.labels.len()];
        for &r in &rows {
            member[r] = true;
        }
        let sorted = self
            .columns
            .iter()
            .map(|column| match column.as_deref() {
                Some(SplitColumn::Numeric { order, .. }) => {
                    order.iter().copied().filter(|&r| member[r]).collect()
                }
                _ => Vec::new(),
            })
            .collect();
        Node {
            rows,
            sorted,
            path: Vec::new(),
            depth: 0,
        }
    }

    /// The best split of a node: attributes in order, each attribute's
    /// candidates in order, a later candidate winning only on strictly
    /// higher gain.
    fn best_split(&self, node: &Node) -> Option<Best<'_>> {
        let counts = label_counts(self.labels, &node.rows, self.n_labels);
        let stats = NodeStats {
            len: node.rows.len(),
            gini: gini(&counts),
            counts,
        };
        let mut best = None;
        for (a, column) in self.columns.iter().enumerate() {
            match column.as_deref() {
                None => {}
                Some(SplitColumn::Numeric { values, .. }) => {
                    self.numeric_splits(a, values, &node.sorted[a], &stats, &mut best)
                }
                Some(SplitColumn::Categorical { groups, values }) => {
                    self.categorical_splits(a, groups, values, &node.rows, &stats, &mut best)
                }
            }
        }
        best
    }

    /// `attr < t` at every `step`-th boundary between adjacent distinct
    /// values, sampled so that at most [`MAX_THRESHOLDS`] are tried. An
    /// attribute with a null at the node is not split on.
    fn numeric_splits(
        &self,
        a: usize,
        values: &[f64],
        sorted: &[usize],
        stats: &NodeStats,
        best: &mut Option<Best<'_>>,
    ) {
        let m = sorted.len();
        if m < stats.len {
            return;
        }
        let bounds = |pair: &[usize]| (values[pair[0]], values[pair[1]]);
        let boundaries = sorted
            .windows(2)
            .filter(|pair| {
                let (below, above) = bounds(pair);
                below < above
            })
            .count();
        let step = boundaries.div_ceil(MAX_THRESHOLDS).max(1);
        let mut yes = vec![0usize; self.n_labels];
        let mut boundary = 0usize;
        for (p, pair) in sorted.windows(2).enumerate() {
            let label = self.labels[pair[0]];
            if label != OUTLIER_LABEL {
                yes[label] += 1;
            }
            let (below, above) = bounds(pair);
            if below < above {
                let sampled = boundary.is_multiple_of(step);
                boundary += 1;
                let yes_len = p + 1;
                if sampled && yes_len >= self.min_leaf && m - yes_len >= self.min_leaf {
                    offer(best, stats.gain(&yes, yes_len), a, || {
                        let descriptor = Descriptor::LessThan {
                            attr: self.attrs[a].clone(),
                            threshold: nice_threshold(below, above),
                        };
                        (descriptor, YesSide::Prefix(yes_len))
                    });
                }
            }
        }
    }

    /// One-vs-rest `attr = v` for every non-null value group present at
    /// the node, in `Value` order, from one (group × label) count pass.
    /// Attributes with fewer than two or more than [`MAX_CATEGORIES`]
    /// groups at the node are not split on.
    fn categorical_splits<'c>(
        &self,
        a: usize,
        groups: &'c [usize],
        values: &[Value],
        rows: &[usize],
        stats: &NodeStats,
        best: &mut Option<Best<'c>>,
    ) {
        const UNSEEN: usize = usize::MAX;
        let mut slot_of_group = vec![UNSEEN; values.len()];
        // (group, rows, label counts) in order of first appearance.
        let mut present: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        for &r in rows {
            let slot = &mut slot_of_group[groups[r]];
            if *slot == UNSEEN {
                if present.len() == MAX_CATEGORIES {
                    return;
                }
                *slot = present.len();
                present.push((groups[r], 0, vec![0; self.n_labels]));
            }
            let (_, len, counts) = &mut present[*slot];
            *len += 1;
            if self.labels[r] != OUTLIER_LABEL {
                counts[self.labels[r]] += 1;
            }
        }
        if present.len() < 2 {
            return;
        }
        present.sort_by(|x, y| values[x.0].cmp(&values[y.0]));
        for (group, len, counts) in present {
            let value = &values[group];
            if value.is_null() || len < self.min_leaf || stats.len - len < self.min_leaf {
                continue;
            }
            offer(best, stats.gain(&counts, len), a, || {
                let descriptor = Descriptor::Equals {
                    attr: self.attrs[a].clone(),
                    value: value.clone(),
                };
                (descriptor, YesSide::Group { groups, group })
            });
        }
    }

    /// Split a node by its winning split into (yes, no) children. Numeric
    /// winners take the sorted prefix and rest; categorical ones keep the
    /// node's row order. Every sorted list is split stably; `in_yes` is an
    /// all-false scratch mask over the table's rows, left all-false.
    fn split(node: Node, best: Best<'_>, in_yes: &mut [bool]) -> (Node, Node) {
        let (yes_rows, no_rows): (Vec<usize>, Vec<usize>) = match best.yes {
            YesSide::Prefix(len) => {
                let sorted = &node.sorted[best.attr];
                (sorted[..len].to_vec(), sorted[len..].to_vec())
            }
            YesSide::Group { groups, group } => {
                node.rows.iter().partition(|&&r| groups[r] == group)
            }
        };
        for &r in &yes_rows {
            in_yes[r] = true;
        }
        let (yes_sorted, no_sorted): (Vec<Vec<usize>>, Vec<Vec<usize>>) = node
            .sorted
            .iter()
            .map(|list| list.iter().partition(|&&r| in_yes[r]))
            .unzip();
        for &r in &yes_rows {
            in_yes[r] = false;
        }
        let mut yes_path = node.path.clone();
        yes_path.push(best.descriptor.clone());
        let mut no_path = node.path;
        no_path.push(best.descriptor.negate());
        let depth = node.depth + 1;
        (
            Node {
                rows: yes_rows,
                sorted: yes_sorted,
                path: yes_path,
                depth,
            },
            Node {
                rows: no_rows,
                sorted: no_sorted,
                path: no_path,
                depth,
            },
        )
    }
}

/// Resolve a condition attribute to its column: interned ids index
/// directly; unresolved handles fall back to one name lookup.
fn column_of<'t>(table: &'t Table, attr: &AttrRef) -> Option<&'t Column> {
    if let Some(id) = attr.id() {
        if let Ok(field) = table.schema().field(id.index()) {
            if field.name() == attr.name() {
                return Some(table.column_by_id(id));
            }
        }
    }
    table.column_by_name(attr.name()).ok()
}

/// Remove redundant descriptors from a root-to-leaf path:
/// - an `Equals` on an attribute supersedes any `NotEquals` on it;
/// - multiple `LessThan` keep the tightest (smallest threshold);
/// - multiple `AtLeast` keep the tightest (largest threshold);
/// - an `AtLeast`+`LessThan` pair fuses into `InRange`.
fn simplify_path(path: Vec<Descriptor>) -> Vec<Descriptor> {
    use std::collections::BTreeMap;
    let mut equals: BTreeMap<String, Descriptor> = BTreeMap::new();
    let mut not_equals: Vec<Descriptor> = Vec::new();
    let mut lt: BTreeMap<String, f64> = BTreeMap::new();
    let mut ge: BTreeMap<String, f64> = BTreeMap::new();
    let mut attr_order: Vec<AttrRef> = Vec::new();
    let note_attr = |order: &mut Vec<AttrRef>, attr: &AttrRef| {
        if !order.iter().any(|a| a == attr) {
            order.push(attr.clone());
        }
    };
    for d in path {
        note_attr(&mut attr_order, d.attr_ref());
        let attr = d.attr().to_string();
        match d {
            Descriptor::Equals { .. } => {
                equals.insert(attr, d);
            }
            Descriptor::NotEquals { .. } => not_equals.push(d),
            Descriptor::LessThan { threshold, .. } => {
                lt.entry(attr)
                    .and_modify(|t| *t = t.min(threshold))
                    .or_insert(threshold);
            }
            Descriptor::AtLeast { threshold, .. } => {
                ge.entry(attr)
                    .and_modify(|t| *t = t.max(threshold))
                    .or_insert(threshold);
            }
            other => not_equals.push(other), // OneOf/InRange pass through
        }
    }
    let mut out = Vec::new();
    for attr in attr_order {
        let name = attr.name().to_string();
        if let Some(eq) = equals.remove(&name) {
            out.push(eq);
            // Drop NotEquals on this attribute: implied by equality.
            not_equals.retain(|d| d.attr() != name);
        }
        match (ge.remove(&name), lt.remove(&name)) {
            (Some(lo), Some(hi)) => out.push(Descriptor::InRange {
                attr: attr.clone(),
                lo,
                hi,
            }),
            (Some(lo), None) => out.push(Descriptor::AtLeast {
                attr: attr.clone(),
                threshold: lo,
            }),
            (None, Some(hi)) => out.push(Descriptor::LessThan {
                attr: attr.clone(),
                threshold: hi,
            }),
            (None, None) => {}
        }
        let (matching, rest): (Vec<_>, Vec<_>) =
            not_equals.into_iter().partition(|d| d.attr() == name);
        out.extend(matching);
        not_equals = rest;
    }
    out.extend(not_equals);
    out
}

/// The leaves of one CART tree: disjoint conditions ordered by the first
/// row the tree sent to them, and each row's leaf.
#[derive(Debug)]
pub(crate) struct Leaves {
    /// Leaf conditions in tree-first-row order.
    pub(crate) conditions: Vec<Condition>,
    /// The index into `conditions` of each row's leaf. Depth is capped at
    /// [`MAX_TREE_DEPTH`], so a tree has at most 2^16 leaves.
    pub(crate) leaf_of_row: Vec<u16>,
    /// Rows no leaf condition matches (ascending; their `leaf_of_row` is
    /// meaningless). Only a null can be one: it satisfies no descriptor.
    pub(crate) unmatched: Vec<usize>,
}

impl Leaves {
    /// Every leaf's rows, ascending, bucketed in one pass over the rows:
    /// exactly the rows each leaf's condition matches.
    pub(crate) fn rows(&self) -> Vec<Vec<usize>> {
        let mut sizes = vec![0usize; self.conditions.len()];
        for &leaf in &self.leaf_of_row {
            sizes[usize::from(leaf)] += 1;
        }
        let mut rows: Vec<Vec<usize>> = sizes.into_iter().map(Vec::with_capacity).collect();
        let mut unmatched = self.unmatched.iter().peekable();
        for (r, &leaf) in self.leaf_of_row.iter().enumerate() {
            if unmatched.next_if_eq(&&r).is_none() {
                rows[usize::from(leaf)].push(r);
            }
        }
        rows
    }
}

/// Induce the leaves of a CART tree over `cond_attrs` that predicts
/// `labels`. With `cond_attrs` empty (or labels constant), the single
/// universal condition. `prepared` supplies each attribute's
/// [`SplitColumn`], so a search prepares each attribute once per run.
///
/// A leaf's rows are the rows its (simplified) condition matches. Where
/// no split attribute holds a null or a NaN, those are the rows the tree
/// sent to the leaf, so no table is scanned. Otherwise a row can take a
/// path its leaf's condition does not match (a null goes down the `≠`
/// side of an equality split, and `≠` matches no null), and each leaf's
/// rows are found by matching its condition.
pub(crate) fn induce_conditions(
    table: &Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    config: &CharlesConfig,
    prepared: &dyn Fn(&AttrRef, &Column) -> Option<Arc<SplitColumn>>,
) -> Result<Leaves> {
    let n = table.height();
    let n_labels = labels
        .iter()
        .copied()
        .filter(|&l| l != OUTLIER_LABEL)
        .max()
        .map_or(1, |m| m + 1);
    if cond_attrs.is_empty() || n_labels <= 1 || n == 0 {
        return Ok(Leaves {
            conditions: vec![Condition::all()],
            leaf_of_row: vec![0; n],
            unmatched: Vec::new(),
        });
    }
    let min_leaf = ((n as f64 * config.min_partition_fraction).ceil() as usize).max(1);
    // Clamped as `validate` bounds it, so an unvalidated config cannot
    // grow more leaves than a `u16` id can name.
    let max_depth = config.max_tree_depth.clamp(1, MAX_TREE_DEPTH);
    let cart = Cart::new(table, cond_attrs, labels, n_labels, min_leaf, prepared);
    let tree_rows_exact = !cart.columns.iter().flatten().any(|c| c.has_gaps());

    // Recursive growth with an explicit stack.
    let mut in_yes = vec![false; labels.len()];
    let mut leaves: Vec<(usize, Condition, Vec<usize>)> = Vec::new();
    let mut stack = vec![cart.node((0..n).collect())];
    while let Some(node) = stack.pop() {
        let stop = node.depth >= max_depth
            || node.rows.len() < 2 * min_leaf
            || is_pure(labels, &node.rows);
        match (!stop).then(|| cart.best_split(&node)).flatten() {
            Some(best) => {
                let (yes, no) = Cart::split(node, best, &mut in_yes);
                stack.push(yes);
                stack.push(no);
            }
            None => {
                let condition = Condition::new(simplify_path(node.path));
                let first = node.rows.iter().copied().min().unwrap_or(usize::MAX);
                leaves.push((first, condition, node.rows));
            }
        }
    }
    // Deterministic order: by first row id.
    leaves.sort_by_key(|&(first, _, _)| first);
    let mut leaf_of_row = vec![0u16; n];
    let mut matched = vec![false; n];
    let mut conditions = Vec::with_capacity(leaves.len());
    for (leaf, (_, condition, tree_rows)) in (0..=u16::MAX).zip(leaves) {
        let rows = if tree_rows_exact {
            if cfg!(debug_assertions) {
                let mut sorted = tree_rows.clone();
                sorted.sort_unstable();
                debug_assert_eq!(
                    condition.matching_rows(table).ok(),
                    Some(sorted),
                    "simplified condition must select the same rows as the tree path"
                );
            }
            tree_rows
        } else {
            condition.matching_rows(table)?
        };
        for r in rows {
            debug_assert!(!matched[r], "leaf conditions must be disjoint");
            leaf_of_row[r] = leaf;
            matched[r] = true;
        }
        conditions.push(condition);
    }
    Ok(Leaves {
        conditions,
        leaf_of_row,
        unmatched: (0..n).filter(|&r| !matched[r]).collect(),
    })
}

/// Induce expressible partitions from cluster labels.
///
/// Returns disjoint, covering partitions, each with a condition built from
/// `cond_attrs`. With `cond_attrs` empty (or labels constant), a single
/// universal partition is returned.
pub fn induce_partitions(
    table: &Table,
    cond_attrs: &[AttrRef],
    labels: &[usize],
    config: &CharlesConfig,
) -> Result<Vec<PartitionSpec>> {
    let prepare = |_: &AttrRef, col: &Column| SplitColumn::new(col).map(Arc::new);
    let leaves = induce_conditions(table, cond_attrs, labels, config, &prepare)?;
    let rows = leaves.rows();
    Ok(leaves
        .conditions
        .into_iter()
        .zip(rows)
        .map(|(condition, rows)| PartitionSpec { condition, rows })
        .collect())
}

/// The split finder CART used before it worked from label counts:
/// per-threshold row materialization and per-split Gini recomputation.
/// Kept as the differential oracle for [`Cart::best_split`].
#[cfg(test)]
mod oracle {
    use super::*;
    use std::collections::BTreeMap;

    /// Gini impurity of the label multiset at `rows`; rows labelled
    /// [`OUTLIER_LABEL`] are invisible to the impurity.
    fn gini(labels: &[usize], rows: &[usize], n_labels: usize) -> f64 {
        let mut counts = vec![0usize; n_labels];
        let mut n = 0usize;
        for &r in rows {
            if labels[r] != OUTLIER_LABEL {
                counts[labels[r]] += 1;
                n += 1;
            }
        }
        if n == 0 {
            return 0.0;
        }
        1.0 - counts
            .iter()
            .map(|&c| {
                let p = c as f64 / n as f64;
                p * p
            })
            // lint:allow(float-fold-order: Gini over a handful of label counts, fixed slice order)
            .sum::<f64>()
    }

    /// A candidate binary split.
    pub(super) struct Split {
        pub(super) descriptor: Descriptor,
        pub(super) yes: Vec<usize>,
        pub(super) no: Vec<usize>,
        pub(super) gain: f64,
    }

    /// The distinct values of a categorical column over a row subset, each
    /// with its rows (in row order). Dictionary-encoded columns group by
    /// integer code — no string hashing; the string is materialized once per
    /// distinct value for the descriptor. Falls back to value hashing only for
    /// non-dictionary categoricals (booleans). The null group, when present,
    /// carries `Value::Null`.
    fn categorical_groups(col: &Column, rows: &[usize]) -> Vec<(Value, Vec<usize>)> {
        if let Some(view) = col.codes_view() {
            const UNSEEN: usize = usize::MAX;
            let mut slot_of_code = vec![UNSEEN; view.dict_len()];
            let mut null_slot = UNSEEN;
            let mut groups: Vec<(Value, Vec<usize>)> = Vec::new();
            for &r in rows {
                let slot = match view.code(r) {
                    Some(code) => {
                        let slot = &mut slot_of_code[code as usize];
                        if *slot == UNSEEN {
                            *slot = groups.len();
                            groups.push((col.get(r), Vec::new()));
                        }
                        *slot
                    }
                    None => {
                        if null_slot == UNSEEN {
                            null_slot = groups.len();
                            groups.push((Value::Null, Vec::new()));
                        }
                        null_slot
                    }
                };
                groups[slot].1.push(r);
            }
            groups
        } else {
            // BTree-grouped so the emitted groups come out in `Value` order —
            // hash order here would make split enumeration (and any
            // score-tie winner downstream) vary run to run.
            let mut by_value: BTreeMap<Value, Vec<usize>> = BTreeMap::new();
            for &r in rows {
                by_value.entry(col.get(r)).or_default().push(r);
            }
            by_value.into_iter().collect()
        }
    }

    /// Enumerate candidate splits for one attribute at a node.
    fn splits_for_attr(
        attr: &AttrRef,
        col: &Column,
        labels: &[usize],
        rows: &[usize],
        n_labels: usize,
        min_leaf: usize,
    ) -> Vec<Split> {
        let parent_gini = gini(labels, rows, n_labels);
        let n = rows.len() as f64;
        let mut out = Vec::new();

        if col.dtype().is_numeric() {
            // Sort node rows by attribute value; thresholds between adjacent
            // distinct values.
            let mut vals: Vec<(f64, usize)> = rows
                .iter()
                .filter_map(|&r| col.get_f64(r).map(|v| (v, r)))
                .collect();
            if vals.len() < rows.len() {
                return out; // nulls present: skip numeric splits on this attr
            }
            vals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut boundaries: Vec<(f64, f64)> = Vec::new();
            for w in vals.windows(2) {
                if w[0].0 < w[1].0 {
                    boundaries.push((w[0].0, w[1].0));
                }
            }
            // Cap the number of evaluated thresholds on large nodes.
            const MAX_THRESHOLDS: usize = 32;
            let step = boundaries.len().div_ceil(MAX_THRESHOLDS).max(1);
            for (below, above) in boundaries.into_iter().step_by(step) {
                let threshold = nice_threshold(below, above);
                let mut yes = Vec::new();
                let mut no = Vec::new();
                for &(v, r) in &vals {
                    if v < threshold {
                        yes.push(r);
                    } else {
                        no.push(r);
                    }
                }
                if yes.len() < min_leaf || no.len() < min_leaf {
                    continue;
                }
                let child = (yes.len() as f64 / n) * gini(labels, &yes, n_labels)
                    + (no.len() as f64 / n) * gini(labels, &no, n_labels);
                out.push(Split {
                    descriptor: Descriptor::LessThan {
                        attr: attr.clone(),
                        threshold,
                    },
                    yes,
                    no,
                    gain: parent_gini - child,
                });
            }
        } else {
            // Categorical: one-vs-rest equality splits per distinct value,
            // grouped by dictionary code.
            let mut groups = categorical_groups(col, rows);
            if groups.len() < 2 || groups.len() > 24 {
                return out; // unsplittable or too high-cardinality
            }
            groups.sort_by(|a, b| a.0.cmp(&b.0)); // determinism
            for (value, yes) in groups {
                if value.is_null() {
                    continue;
                }
                let yes_set: std::collections::HashSet<usize> = yes.iter().copied().collect();
                let no: Vec<usize> = rows
                    .iter()
                    .copied()
                    .filter(|r| !yes_set.contains(r))
                    .collect();
                if yes.len() < min_leaf || no.len() < min_leaf {
                    continue;
                }
                let child = (yes.len() as f64 / n) * gini(labels, &yes, n_labels)
                    + (no.len() as f64 / n) * gini(labels, &no, n_labels);
                out.push(Split {
                    descriptor: Descriptor::Equals {
                        attr: attr.clone(),
                        value,
                    },
                    yes,
                    no,
                    gain: parent_gini - child,
                });
            }
        }
        out
    }

    pub(super) fn best_split(
        table: &Table,
        cond_attrs: &[AttrRef],
        labels: &[usize],
        rows: &[usize],
        n_labels: usize,
        min_leaf: usize,
    ) -> Option<Split> {
        let mut best: Option<Split> = None;
        for attr in cond_attrs {
            let Some(col) = column_of(table, attr) else {
                continue;
            };
            for split in splits_for_attr(attr, col, labels, rows, n_labels, min_leaf) {
                if split.gain > 1e-12 && best.as_ref().is_none_or(|b| split.gain > b.gain) {
                    best = Some(split);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::{DataType, TableBuilder};
    use proptest::prelude::*;

    /// One node-level input for the split-finder differential test.
    #[derive(Debug)]
    struct NodeCase {
        table: Table,
        attrs: Vec<AttrRef>,
        labels: Vec<usize>,
        rows: Vec<usize>,
        min_leaf: usize,
    }

    /// A table whose condition attributes cover every split path: tied
    /// integers, tied floats, integers with nulls, a dictionary
    /// categorical (with a null group and, at high cardinality, more than
    /// [`MAX_CATEGORIES`] values), and a boolean. Labels include
    /// [`OUTLIER_LABEL`] rows; the node is an ascending row subset.
    fn node_case() -> impl Strategy<Value = NodeCase> {
        let row = (
            (0i64..12, 0usize..8, -500.0f64..500.0),
            (0i64..40, 0usize..10),
            (0usize..30, 0usize..10, any::<bool>()),
            (0usize..5, 0usize..12, 0usize..10),
        );
        (
            proptest::collection::vec(row, 2..90),
            1usize..=30,
            0usize..5,
            (0usize..4, 0.0f64..1.0),
        )
            .prop_map(|(rows, card, rotate, (leaf_pick, leaf_frac))| {
                let n = rows.len();
                let mut ints = Vec::with_capacity(n);
                let mut floats = Vec::with_capacity(n);
                let mut nullable = Vec::with_capacity(n);
                let mut cats = Vec::with_capacity(n);
                let mut flags = Vec::with_capacity(n);
                let mut labels = Vec::with_capacity(n);
                let mut keep = Vec::with_capacity(n);
                for (
                    r,
                    ((int, tie, float), (nint, ncoin), (cat, ccoin, flag), (label, lcoin, kcoin)),
                ) in rows.into_iter().enumerate()
                {
                    ints.push(int);
                    // Mostly a few tied values, sometimes a distinct one.
                    floats.push(if tie < 6 { tie as f64 * 0.37 } else { float });
                    nullable.push(if ncoin == 0 {
                        Value::Null
                    } else {
                        Value::Int(nint)
                    });
                    cats.push(if ccoin == 0 {
                        Value::Null
                    } else {
                        Value::str(format!("c{}", cat % card))
                    });
                    flags.push(flag);
                    labels.push(if lcoin == 0 { OUTLIER_LABEL } else { label });
                    if kcoin < 8 || r == 0 {
                        keep.push(r);
                    }
                }
                let table = TableBuilder::new("node")
                    .int_col("num", &ints)
                    .float_col("fnum", &floats)
                    .value_col("nnum", DataType::Int64, &nullable)
                    .unwrap()
                    .value_col("cat", DataType::Utf8, &cats)
                    .unwrap()
                    .bool_col("flag", &flags)
                    .build()
                    .unwrap();
                let mut names = ["num", "fnum", "nnum", "cat", "flag"];
                names.rotate_left(rotate);
                let attrs = names
                    .iter()
                    .map(|a| table.schema().attr_ref(a).unwrap())
                    .collect();
                let half = keep.len() / 2;
                let min_leaf = match leaf_pick {
                    0 => 1,
                    1 => half.max(1),
                    2 => half + 1,
                    _ => 1 + (leaf_frac * half as f64) as usize,
                };
                NodeCase {
                    table,
                    attrs,
                    labels,
                    rows: keep,
                    min_leaf,
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The count-based finder picks the same winner as the row-based
        /// oracle: gain bits, descriptor, and yes/no rows in order. Its
        /// children keep every attribute's rows in presorted order.
        #[test]
        fn count_sweep_matches_row_oracle(case in node_case()) {
            let NodeCase { table, attrs, labels, rows, min_leaf } = case;
            let n_labels = labels
                .iter()
                .copied()
                .filter(|&l| l != OUTLIER_LABEL)
                .max()
                .map_or(1, |m| m + 1);
            let expected = oracle::best_split(&table, &attrs, &labels, &rows, n_labels, min_leaf);
            let prepare = |_: &AttrRef, col: &Column| SplitColumn::new(col).map(Arc::new);
            let cart = Cart::new(&table, &attrs, &labels, n_labels, min_leaf, &prepare);
            let node = cart.node(rows);
            match (expected, cart.best_split(&node)) {
                (None, None) => {}
                (Some(old), Some(new)) => {
                    prop_assert_eq!(old.gain.to_bits(), new.gain.to_bits());
                    prop_assert_eq!(format!("{:?}", old.descriptor), format!("{:?}", new.descriptor));
                    let (yes, no) = Cart::split(node, new, &mut vec![false; labels.len()]);
                    prop_assert_eq!(&old.yes, &yes.rows);
                    prop_assert_eq!(&old.no, &no.rows);
                    for child in [&yes, &no] {
                        let mut rows = child.rows.clone();
                        rows.sort_unstable();
                        prop_assert_eq!(&cart.node(rows).sorted, &child.sorted);
                    }
                }
                (old, new) => {
                    return Err(TestCaseError::fail(format!(
                        "oracle found {:?}, count sweep found {:?}",
                        old.map(|s| s.descriptor),
                        new.map(|b| b.descriptor)
                    )));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every leaf's bucketed rows are exactly the rows its simplified
        /// condition matches; the leaves are disjoint, and the rows in no
        /// leaf are the listed unmatched ones. `gaps` picks the table: 0
        /// fills every null (the tree's rows are used as they are), 1 keeps
        /// `node_case`'s nulls, 2 adds NaNs of both signs. The tree-path
        /// check in `induce_conditions` runs in debug builds only; this
        /// also runs in release.
        #[test]
        fn leaf_rows_equal_condition_rows(
            case in node_case(),
            depth in 1usize..=MAX_TREE_DEPTH,
            gaps in 0usize..3,
            nan_rows in proptest::collection::vec(0usize..90, 1..4),
        ) {
            let NodeCase { mut table, attrs, labels, min_leaf, .. } = case;
            let n = table.height();
            if gaps == 0 {
                for (name, fill) in [("cat", Value::str("c0")), ("nnum", Value::Int(0))] {
                    let col = table.column_by_name_mut(name).unwrap();
                    for r in (0..n).filter(|&r| !col.is_valid(r)).collect::<Vec<_>>() {
                        col.set(r, fill.clone()).unwrap();
                    }
                }
            }
            if gaps == 2 {
                let col = table.column_by_name_mut("fnum").unwrap();
                for &r in nan_rows.iter().filter(|&&r| r < n) {
                    let nan = if r % 2 == 0 { f64::NAN } else { -f64::NAN };
                    col.set(r, Value::Float(nan)).unwrap();
                }
            }
            let config = CharlesConfig {
                min_partition_fraction: (min_leaf - 1) as f64 / n as f64,
                max_tree_depth: depth,
                ..CharlesConfig::default()
            };
            let prepare = |_: &AttrRef, col: &Column| SplitColumn::new(col).map(Arc::new);
            let leaves = induce_conditions(&table, &attrs, &labels, &config, &prepare).unwrap();
            prop_assert_eq!(leaves.leaf_of_row.len(), n);
            let rows = leaves.rows();
            prop_assert_eq!(rows.len(), leaves.conditions.len());
            let mut covered = vec![0usize; n];
            for (condition, rows) in leaves.conditions.iter().zip(&rows) {
                prop_assert_eq!(rows, &condition.matching_rows(&table).unwrap(), "{}", condition);
                for &r in rows {
                    covered[r] += 1;
                }
            }
            prop_assert!(covered.iter().all(|&c| c <= 1), "leaves overlap");
            let uncovered: Vec<usize> = (0..n).filter(|&r| covered[r] == 0).collect();
            prop_assert_eq!(&uncovered, &leaves.unmatched);
            if gaps == 0 {
                prop_assert!(uncovered.is_empty(), "leaves must cover a table without nulls");
            }
        }
    }

    /// A tree that keeps splitting past any depth: 300 rows of distinct
    /// values with scrambled labels.
    fn deep_tree(depth: usize) -> Leaves {
        let n = 300;
        let xs: Vec<f64> = (0..n).map(|i| (i * 37 % n) as f64).collect();
        let ys: Vec<i64> = (0..n as i64).map(|i| i * 11 % 29).collect();
        let table = TableBuilder::new("deep")
            .float_col("x", &xs)
            .int_col("y", &ys)
            .build()
            .unwrap();
        let attrs: Vec<AttrRef> = ["x", "y"]
            .iter()
            .map(|a| table.schema().attr_ref(a).unwrap())
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| (i * 7919 + i / 3) % 3).collect();
        let config = CharlesConfig {
            min_partition_fraction: 0.0,
            max_tree_depth: depth,
            ..CharlesConfig::default()
        };
        let prepare = |_: &AttrRef, col: &Column| SplitColumn::new(col).map(Arc::new);
        induce_conditions(&table, &attrs, &labels, &config, &prepare).unwrap()
    }

    /// What a leaf set says: its conditions, rendered, and its row ids.
    fn rendered(leaves: &Leaves) -> (Vec<String>, Vec<u16>) {
        let conditions = leaves.conditions.iter().map(|c| c.to_string()).collect();
        (conditions, leaves.leaf_of_row.clone())
    }

    #[test]
    fn unvalidated_depth_is_clamped_to_leaf_id_range() {
        let capped = rendered(&deep_tree(MAX_TREE_DEPTH));
        // The tree still grows at the cap, so the clamp is what stops it.
        assert_ne!(rendered(&deep_tree(MAX_TREE_DEPTH - 1)), capped);
        for depth in [MAX_TREE_DEPTH + 1, 64, usize::MAX] {
            assert_eq!(rendered(&deep_tree(depth)), capped, "depth {depth}");
        }
        assert_eq!(rendered(&deep_tree(0)), rendered(&deep_tree(1)));
    }

    /// Nine employees as in paper Example 1.
    fn emp() -> Table {
        TableBuilder::new("emp")
            .str_col(
                "edu",
                &["PhD", "PhD", "MS", "MS", "BS", "MS", "BS", "MS", "PhD"],
            )
            .int_col("exp", &[2, 3, 5, 1, 2, 4, 3, 4, 1])
            .build()
            .unwrap()
    }

    /// Labels mirroring the paper's four latent groups:
    /// PhD → 0, MS&exp≥3 → 1, MS&exp<3 → 2, BS → 3.
    fn truth_labels() -> Vec<usize> {
        vec![0, 0, 1, 2, 3, 1, 3, 1, 0]
    }

    fn default_config() -> CharlesConfig {
        CharlesConfig {
            min_partition_fraction: 0.01,
            ..CharlesConfig::default()
        }
    }

    #[test]
    fn recovers_example_1_partitions() {
        let table = emp();
        let labels = truth_labels();
        let specs = induce_partitions(
            &table,
            &["edu".into(), "exp".into()],
            &labels,
            &default_config(),
        )
        .unwrap();
        assert_eq!(specs.len(), 4, "{specs:?}");
        // Every spec must be pure w.r.t. the labels.
        for spec in &specs {
            let first = labels[spec.rows[0]];
            assert!(
                spec.rows.iter().all(|&r| labels[r] == first),
                "impure partition {spec:?}"
            );
        }
        // Partitions are disjoint and covering.
        let mut all: Vec<usize> = specs.iter().flat_map(|s| s.rows.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        // The induced partitions must coincide with the four latent groups
        // (equivalent conditions may differ from the paper's phrasing, e.g.
        // `edu ≠ PhD ∧ exp ≥ 4` describes the same rows as
        // `edu = MS ∧ exp ≥ 3` on this data — both are exact).
        for spec in &specs {
            let expected: Vec<usize> = (0..9)
                .filter(|&r| labels[r] == labels[spec.rows[0]])
                .collect();
            let mut got = spec.rows.clone();
            got.sort_unstable();
            assert_eq!(got, expected, "partition differs from latent group");
        }
        // Numeric splits carry round thresholds.
        let rendered: Vec<String> = specs.iter().map(|s| s.condition.to_string()).collect();
        assert!(
            rendered.iter().any(|r| r.contains("exp")),
            "expected a numeric split on exp, got {rendered:?}"
        );
    }

    #[test]
    fn constant_labels_single_partition() {
        let table = emp();
        let specs = induce_partitions(&table, &["edu".into()], &[0; 9], &default_config()).unwrap();
        assert_eq!(specs.len(), 1);
        assert!(specs[0].condition.is_universal());
        assert_eq!(specs[0].rows.len(), 9);
    }

    #[test]
    fn no_condition_attrs_single_partition() {
        let table = emp();
        let specs = induce_partitions(&table, &[], &truth_labels(), &default_config()).unwrap();
        assert_eq!(specs.len(), 1);
    }

    #[test]
    fn inexpressible_labels_collapse() {
        // Labels alternate independently of edu/exp: no split can help, so
        // the tree yields few (possibly one) impure partitions rather than
        // inventing noise.
        let table = emp();
        let labels = vec![0, 1, 0, 1, 0, 1, 0, 1, 0];
        let specs = induce_partitions(&table, &["edu".into()], &labels, &default_config()).unwrap();
        let total: usize = specs.iter().map(|s| s.rows.len()).sum();
        assert_eq!(total, 9);
        assert!(specs.len() <= 3);
    }

    #[test]
    fn min_partition_fraction_blocks_tiny_leaves() {
        let table = emp();
        let config = CharlesConfig {
            min_partition_fraction: 0.4, // leaves need ≥ 4 of 9 rows
            ..CharlesConfig::default()
        };
        let specs = induce_partitions(
            &table,
            &["edu".into(), "exp".into()],
            &truth_labels(),
            &config,
        )
        .unwrap();
        for s in &specs {
            assert!(s.rows.len() >= 4 || specs.len() == 1, "{specs:?}");
        }
    }

    #[test]
    fn cluster_residuals_kmeans_and_quantile() {
        let residuals = vec![0.0, 0.1, -0.1, 100.0, 100.1, 99.9];
        let config = default_config();
        let labels = cluster_residuals(&residuals, 2, &config).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[3]);

        let qconfig = CharlesConfig {
            partition_method: PartitionMethod::ResidualQuantile,
            ..default_config()
        };
        let qlabels = cluster_residuals(&residuals, 2, &qconfig).unwrap();
        assert_eq!(qlabels[0], qlabels[1]);
        assert_ne!(qlabels[0], qlabels[3]);
    }

    #[test]
    fn cluster_residuals_k1_trivial() {
        let config = default_config();
        assert_eq!(
            cluster_residuals(&[1.0, 2.0, 3.0], 1, &config).unwrap(),
            vec![0, 0, 0]
        );
        assert!(cluster_residuals(&[], 3, &config).unwrap().is_empty());
    }

    #[test]
    fn cluster_residuals_dbscan_no_k() {
        let mut residuals = vec![0.0; 30];
        residuals.extend(vec![500.0; 30]);
        let config = CharlesConfig {
            partition_method: PartitionMethod::ResidualDbscan,
            ..default_config()
        };
        let labels = cluster_residuals(&residuals, 4, &config).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[30]);
    }

    #[test]
    fn nice_threshold_prefers_round() {
        // Any t in (2, 3] splits identically: 3 is roundest.
        assert_eq!(nice_threshold(2.0, 3.0), 3.0);
        // (23.4, 27.9]: 25 is the roundest inside.
        assert_eq!(nice_threshold(23.4, 27.9), 25.0);
        // Degenerate narrow gap still yields a valid boundary.
        let t = nice_threshold(1.0001, 1.0002);
        assert!(t > 1.0001 && t <= 1.0002);
    }

    #[test]
    fn simplify_fuses_ranges_and_drops_redundant() {
        let path = vec![
            Descriptor::NotEquals {
                attr: "edu".into(),
                value: Value::str("BS"),
            },
            Descriptor::Equals {
                attr: "edu".into(),
                value: Value::str("MS"),
            },
            Descriptor::AtLeast {
                attr: "exp".into(),
                threshold: 1.0,
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 5.0,
            },
            Descriptor::LessThan {
                attr: "exp".into(),
                threshold: 3.0,
            },
        ];
        let simplified = simplify_path(path);
        let rendered: Vec<String> = simplified.iter().map(|d| d.to_string()).collect();
        assert!(rendered.contains(&"edu = MS".to_string()));
        assert!(rendered.contains(&"1 ≤ exp < 3".to_string()));
        assert!(
            !rendered.iter().any(|r| r.contains("≠")),
            "NotEquals should be dropped: {rendered:?}"
        );
        assert_eq!(simplified.len(), 2);
    }
}
