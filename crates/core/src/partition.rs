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
use charles_cluster::{dbscan, kmeans_1d_many};
use charles_numerics::normality::{roundness, scored_snap_candidates};
use charles_numerics::stats::{mad, median};
use charles_relation::{AttrRef, Column, RelationError, Table, Value};
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
///
/// This is the single-`k` case of [`cluster_residuals_many`].
pub fn cluster_residuals(
    residuals: &[f64],
    k: usize,
    config: &CharlesConfig,
) -> Result<Vec<usize>> {
    let mut labelings = cluster_residuals_many(residuals, &[k], config)?;
    Ok(labelings.swap_remove(0))
}

/// [`cluster_residuals`] for every `k` in `ks`, one labeling per entry in
/// `ks` order, each equal to its own [`cluster_residuals`] call.
///
/// The outlier trim does not depend on `k`, so it runs once, to its fixed
/// point (the trim repeats on the inliers until it removes nothing); the
/// k-means layers below the largest `k` are shared through
/// [`kmeans_1d_many`].
pub fn cluster_residuals_many(
    residuals: &[f64],
    ks: &[usize],
    config: &CharlesConfig,
) -> Result<Vec<Vec<usize>>> {
    let n = residuals.len();
    // The rows still clustered and their residuals; every trimmed row is
    // labelled `OUTLIER_LABEL`.
    let mut rows: Vec<usize> = (0..n).collect();
    let mut values = residuals.to_vec();
    if config.partition_method != PartitionMethod::ResidualDbscan {
        while values.len() > 1 {
            let (inliers, outliers) = trim_outliers(&values);
            if outliers.is_empty() {
                break;
            }
            rows = inliers.iter().map(|&i| rows[i]).collect();
            values = inliers.iter().map(|&i| values[i]).collect();
        }
    }
    let clusters = |k: usize| k > 1 && n > 1 && values.len() > 1;
    let clustered: Vec<usize> = ks
        .iter()
        .filter(|&&k| clusters(k))
        .map(|&k| k.min(values.len()))
        .collect();
    let mut clusterings = if clustered.is_empty() {
        Vec::new()
    } else {
        cluster_inliers(&values, &clustered, config)?
    }
    .into_iter();
    ks.iter()
        .map(|&k| {
            if k <= 1 || n <= 1 {
                return Ok(vec![0; n]);
            }
            let labels = if clusters(k) {
                clusterings.next().ok_or_else(|| {
                    RelationError::InvalidArgument("one clustering per clustered k".into())
                })?
            } else {
                vec![0; values.len()]
            };
            let mut out = vec![OUTLIER_LABEL; n];
            for (&row, label) in rows.iter().zip(labels) {
                out[row] = label;
            }
            Ok(out)
        })
        .collect()
}

/// Cluster the (trimmed) residuals into each of `ks` groups, every `k`
/// at most `values.len()`.
fn cluster_inliers(
    values: &[f64],
    ks: &[usize],
    config: &CharlesConfig,
) -> Result<Vec<Vec<usize>>> {
    match config.partition_method {
        PartitionMethod::ResidualKMeans => Ok(kmeans_1d_many(values, ks)?
            .into_iter()
            .map(|r| r.assignments)
            .collect()),
        PartitionMethod::ResidualQuantile => {
            let mut sorted = values.to_vec();
            sorted.sort_by(|a, b| a.total_cmp(b));
            Ok(ks
                .iter()
                .map(|&k| {
                    // Boundaries at the i/k quantiles.
                    let bounds: Vec<f64> = (1..k).map(|i| sorted[(i * sorted.len()) / k]).collect();
                    values
                        .iter()
                        .map(|&r| bounds.iter().take_while(|&&b| r >= b).count())
                        .collect()
                })
                .collect())
        }
        PartitionMethod::ResidualDbscan => {
            if ks.is_empty() {
                return Ok(Vec::new());
            }
            let spread = mad(values).unwrap_or(0.0);
            let med = median(values).unwrap_or(0.0);
            let eps = (spread * 1.5).max(med.abs() * 1e-6).max(1e-9);
            let min_points = (values.len() / 50).max(2);
            let points: Vec<Vec<f64>> = values.iter().map(|&r| vec![r]).collect();
            let res = dbscan(&points, eps, min_points)?;
            // Noise points become their own trailing label so the tree can
            // still try to describe them.
            let noise_label = res.n_clusters;
            let labels: Vec<usize> = res
                .labels
                .iter()
                .map(|&l| if l < 0 { noise_label } else { l as usize })
                .collect();
            Ok(vec![labels; ks.len()])
        }
    }
}

// ---------------------------------------------------------------------------
// Decision-tree induction over condition attributes
// ---------------------------------------------------------------------------
//
// Split search runs on per-code label counts. Each condition attribute is
// prepared once per run as one rank code per row: a numeric attribute's
// codes are its distinct values in ascending order (NaNs last, nulls on a
// code of their own), a categorical attribute's are its value groups in
// `Value` order. Gini impurity is a pure function of label counts, so
// every candidate split of a node is scored from the node's per-code
// (rows, label counts) walked in code order: a numeric attribute sweeps
// prefix counts across its codes, a categorical one takes each code's
// one-vs-rest counts. A node is a `[start, end)` range of one row buffer,
// and a split partitions that range in place, stably, so every node's
// rows stay ascending.
//
// The per-code counts come from one of two sources. An attribute with at
// most `DENSE_CODES` codes keeps a dense (code × label) histogram per node,
// as histogram-based gradient boosting does: a pass over the smaller
// child's rows counts it, and the larger child's is its parent's minus the
// smaller's. An attribute with more keeps its rows in (code, row id) order
// in a list of its own over the same ranges (SLIQ/SPRINT-style), split
// stably too, and walks the node's range of it. Both sources feed one
// evaluator, and only the winning split's threshold is rendered.

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

/// Pick the roundest threshold `t` such that `x < t` partitions identically
/// for every `t ∈ (below, above]`, where `below` is the largest value going
/// left and `above` the smallest going right.
pub(crate) fn nice_threshold(below: f64, above: f64) -> f64 {
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

/// What the trees of one run may share. The provided methods compute
/// each part afresh; a search overrides them with run-scoped caches, and a
/// plain closure preparing split columns is a plane that shares nothing
/// else.
pub(crate) trait CartPlane {
    /// A condition attribute prepared for split search (`None` if it is
    /// neither numeric nor groupable).
    fn split_column(&self, attr: &AttrRef, col: &Column) -> Option<Arc<SplitColumn>>;

    /// One histogram column's root counts over every row: they depend
    /// only on the column and the labeling, so the trees of one labeling
    /// can share them. `count` counts them afresh.
    fn root_counts(&self, _attr: &AttrRef, count: &dyn Fn() -> Vec<u32>) -> Arc<Vec<u32>> {
        Arc::new(count())
    }

    /// [`nice_threshold`], a pure function of its arguments' bits.
    fn threshold(&self, below: f64, above: f64) -> f64 {
        nice_threshold(below, above)
    }
}

impl<F> CartPlane for F
where
    F: Fn(&AttrRef, &Column) -> Option<Arc<SplitColumn>>,
{
    fn split_column(&self, attr: &AttrRef, col: &Column) -> Option<Arc<SplitColumn>> {
        self(attr, col)
    }
}

/// The plane of a lone tree: every part computed afresh.
fn fresh_column(_: &AttrRef, col: &Column) -> Option<Arc<SplitColumn>> {
    SplitColumn::new(col).map(Arc::new)
}

/// Most codes an attribute may have and still keep its node counts in a
/// dense histogram; an attribute with more walks a presorted row list.
const DENSE_CODES: usize = 256;

/// What the codes of a [`SplitColumn`] stand for.
enum CodeValues {
    /// Each non-null code's value, ascending by `(is_nan, total_cmp)`;
    /// code `values.len()` holds the nulls.
    Numeric(Vec<f64>),
    /// Each code's value group (the null group's value is `Value::Null`),
    /// in `Value` order.
    Categorical(Vec<Value>),
}

/// A condition attribute prepared once per run for split search: one rank
/// code per row.
pub(crate) struct SplitColumn {
    codes: Vec<u32>,
    values: CodeValues,
    /// The rows in (code, row id) order, for an attribute with more than
    /// [`DENSE_CODES`] codes; `None` where its counts are a histogram.
    order: Option<Vec<u32>>,
    /// Whether some row holds a null or a NaN: the values a tree can route
    /// down a path its leaf's condition does not match.
    gaps: bool,
}

impl SplitColumn {
    /// Prepare one column (`None` if it is neither numeric nor groupable).
    pub(crate) fn new(col: &Column) -> Option<SplitColumn> {
        SplitColumn::with_dense_codes(col, DENSE_CODES)
    }

    /// Prepare one column, keeping a presorted row list instead of
    /// histograms when it has more than `dense_codes` codes.
    fn with_dense_codes(col: &Column, dense_codes: usize) -> Option<SplitColumn> {
        let n = col.len();
        let (codes, values, gaps) = if col.dtype().is_numeric() {
            let mut valid: Vec<(f64, u32)> = (0..n)
                .filter(|&r| col.is_valid(r))
                .map(|r| (col.get_f64(r).unwrap_or(f64::NAN), r as u32))
                .collect();
            valid.sort_by(|(x, _), (y, _)| x.is_nan().cmp(&y.is_nan()).then(x.total_cmp(y)));
            let mut values: Vec<f64> = Vec::new();
            let mut codes = vec![u32::MAX; n];
            for &(v, r) in &valid {
                if values
                    .last()
                    .is_none_or(|last| last.to_bits() != v.to_bits())
                {
                    values.push(v);
                }
                codes[r as usize] = (values.len() - 1) as u32;
            }
            for code in codes.iter_mut().filter(|c| **c == u32::MAX) {
                *code = values.len() as u32;
            }
            let gaps = valid.len() < n || values.last().is_some_and(|v| v.is_nan());
            (codes, CodeValues::Numeric(values), gaps)
        } else {
            let grouped = col.group_codes()?;
            let mut by_value: Vec<(Value, usize)> = grouped
                .groups
                .iter()
                .enumerate()
                .map(|(g, (_, rows))| (rows.first().map_or(Value::Null, |&r| col.get(r)), g))
                .collect();
            by_value.sort_by(|x, y| x.0.cmp(&y.0));
            let mut code_of_group = vec![0u32; by_value.len()];
            for (code, &(_, g)) in by_value.iter().enumerate() {
                code_of_group[g] = code as u32;
            }
            let codes = grouped.labels.iter().map(|&g| code_of_group[g]).collect();
            let values: Vec<Value> = by_value.into_iter().map(|(v, _)| v).collect();
            let gaps = values.iter().any(Value::is_null);
            (codes, CodeValues::Categorical(values), gaps)
        };
        let mut column = SplitColumn {
            codes,
            values,
            order: None,
            gaps,
        };
        let n_codes = column.n_codes();
        if n_codes > dense_codes {
            // Counting sort: rows bucketed by code, ascending within each.
            let mut next = vec![0usize; n_codes + 1];
            for &c in &column.codes {
                next[c as usize + 1] += 1;
            }
            for c in 0..n_codes {
                next[c + 1] += next[c];
            }
            let mut order = vec![0u32; n];
            for (r, &c) in column.codes.iter().enumerate() {
                order[next[c as usize]] = r as u32;
                next[c as usize] += 1;
            }
            column.order = Some(order);
        }
        Some(column)
    }

    /// How many codes the attribute has (a numeric one's null code
    /// included, whether or not a row holds it).
    fn n_codes(&self) -> usize {
        match &self.values {
            CodeValues::Numeric(values) => values.len() + 1,
            CodeValues::Categorical(values) => values.len(),
        }
    }
}

/// Which codes of the winning attribute a split sends to its `yes` side.
enum Cut {
    /// `attr < t` for any `t ∈ (below, above]`: the codes up to `last`.
    Below { last: u32, below: f64, above: f64 },
    /// `attr = value`: the one code `code`.
    Equals { code: u32, value: Value },
}

impl Cut {
    /// The `yes` side's codes, `lo..=hi`.
    fn codes(&self) -> (u32, u32) {
        match *self {
            Cut::Below { last, .. } => (0, last),
            Cut::Equals { code, .. } => (code, code),
        }
    }
}

/// Move the rows whose code lies in `lo..=hi` to the front of `rows`, both
/// sides keeping their order, and return how many there are. `scratch`
/// (at least as long as `rows`) holds the other side meanwhile. Each row
/// is written to both sides and only its own side advances, so no branch
/// depends on the data.
fn stable_split(
    rows: &mut [u32],
    codes: &[u32],
    (lo, hi): (u32, u32),
    scratch: &mut [u32],
) -> usize {
    let (mut yes, mut no) = (0, 0);
    for i in 0..rows.len() {
        let r = rows[i];
        let admitted = codes[r as usize].wrapping_sub(lo) <= hi - lo;
        rows[yes] = r;
        scratch[no] = r;
        yes += usize::from(admitted);
        no += usize::from(!admitted);
    }
    rows[yes..].copy_from_slice(&scratch[..no]);
    yes
}

/// The best split found so far at a node.
struct Best {
    gain: f64,
    /// Index of the split attribute among the grower's columns.
    column: usize,
    cut: Cut,
    /// Rows on the `yes` side, [`OUTLIER_LABEL`] rows included.
    yes_len: usize,
    /// Per-label counts of the `yes` side.
    yes: Vec<usize>,
}

/// Keep a candidate split when it strictly beats the best so far (and is
/// not numerically zero); the first of equal-gain candidates wins.
fn offer(best: &mut Option<Best>, gain: f64, make: impl FnOnce() -> Best) {
    if gain > 1e-12 && best.as_ref().is_none_or(|b| gain > b.gain) {
        *best = Some(make());
    }
}

/// The parts of a node every candidate split is scored against.
struct NodeStats<'n> {
    len: usize,
    counts: &'n [usize],
    gini: f64,
}

impl NodeStats<'_> {
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

/// Most distinct values (the null group included) a categorical attribute
/// may show at a node and still be split on.
const MAX_CATEGORIES: usize = 24;

/// Numeric splits are tried at no more than this many thresholds per node.
const MAX_THRESHOLDS: usize = 32;

/// One node of the growing tree.
struct Node {
    /// The node's rows: `rows[start..end]` of the grower's row buffer.
    start: usize,
    end: usize,
    /// Per-label row counts ([`OUTLIER_LABEL`] rows not counted).
    counts: Vec<usize>,
    /// The histogram columns' (code × label slot) counts, each column's
    /// at its offset; empty for a node that is not searched.
    hist: Vec<u32>,
    path: Vec<Descriptor>,
    depth: usize,
}

impl Node {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One attribute's counts at a node, walked in code order.
enum Counts<'n> {
    /// A dense histogram: per code, `stride` row counts by label slot.
    Histogram { hist: &'n [u32], stride: usize },
    /// The node's rows in (code, row id) order, and every row's code and
    /// label slot.
    List {
        rows: &'n [u32],
        codes: &'n [u32],
        slots: &'n [u32],
    },
}

impl Counts<'_> {
    /// Walk the node's rows in code order: `f` hears of every present
    /// code as it starts, then of its rows, by label slot.
    fn each(&self, mut f: impl FnMut(Walk)) {
        match *self {
            Counts::Histogram { hist, stride } => {
                for (code, slots) in hist.chunks_exact(stride).enumerate() {
                    if slots.iter().any(|&k| k > 0) {
                        f(Walk::Code(code as u32));
                        for (slot, &k) in slots.iter().enumerate() {
                            f(Walk::Rows(slot, k as usize));
                        }
                    }
                }
            }
            Counts::List { rows, codes, slots } => {
                let mut last = None;
                for &r in rows {
                    let code = codes[r as usize];
                    if last != Some(code) {
                        f(Walk::Code(code));
                        last = Some(code);
                    }
                    f(Walk::Rows(slots[r as usize] as usize, 1));
                }
            }
        }
    }
}

/// One step of [`Counts::each`].
#[derive(Clone, Copy)]
enum Walk {
    /// The next present code starts.
    Code(u32),
    /// This many of the current code's rows have this label slot.
    Rows(usize, usize),
}

/// Where a column's per-code counts at a node come from.
enum Source {
    /// They start at this offset of the node's histogram.
    Histogram(usize),
    /// A walk of the node's range of this list: the column's rows in
    /// (code, row id) order, over the same ranges as the row buffer.
    List(Vec<u32>),
}

/// The CART tree grower over one labeling and attribute list.
struct Grower<'a> {
    /// Shared root counts and thresholds.
    plane: &'a dyn CartPlane,
    attrs: &'a [AttrRef],
    /// The attributes that can be split on: index into `attrs`, column.
    columns: Vec<(usize, &'a SplitColumn)>,
    /// Each row's label slot: its label, or `n_labels` for an
    /// [`OUTLIER_LABEL`] row (counted in node sizes, not in impurity).
    slots: Vec<u32>,
    n_labels: usize,
    min_leaf: usize,
    max_depth: usize,
    /// The row buffer every node owns a range of.
    rows: Vec<u32>,
    /// Per column, where its counts at a node come from.
    sources: Vec<Source>,
    /// The length of a node histogram: every histogram column's counts.
    hist_len: usize,
    /// Histograms of finished nodes, reused for new ones.
    spare: Vec<Vec<u32>>,
    /// Scratch for a stable split's `no` side.
    scratch: Vec<u32>,
}

impl<'a> Grower<'a> {
    fn new(
        attrs: &'a [AttrRef],
        columns: &'a [(usize, Arc<SplitColumn>)],
        labels: &[usize],
        n_labels: usize,
        min_leaf: usize,
        max_depth: usize,
    ) -> Self {
        let stride = n_labels + 1;
        let mut hist_len = 0;
        let sources = columns
            .iter()
            .map(|(_, col)| {
                if col.order.is_some() {
                    // Filled by `root`.
                    return Source::List(Vec::new());
                }
                let at = hist_len;
                hist_len += col.n_codes() * stride;
                Source::Histogram(at)
            })
            .collect();
        let slots = labels
            .iter()
            .map(|&l| if l == OUTLIER_LABEL { n_labels } else { l } as u32)
            .collect();
        Grower {
            plane: &fresh_column,
            attrs,
            columns: columns.iter().map(|(a, col)| (*a, &**col)).collect(),
            slots,
            n_labels,
            min_leaf,
            max_depth,
            rows: Vec::new(),
            sources,
            hist_len,
            spare: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The root over `rows`, which must be ascending; its histogram is
    /// counted (or, over every row, taken from the plane) whether or not
    /// it is searched.
    fn root(&mut self, rows: Vec<u32>) -> Node {
        let all = rows.len() == self.slots.len();
        let mut member = vec![all; self.slots.len()];
        if !all {
            for &r in &rows {
                member[r as usize] = true;
            }
        }
        for (source, (_, col)) in self.sources.iter_mut().zip(&self.columns) {
            if let (Source::List(list), Some(order)) = (source, &col.order) {
                *list = order
                    .iter()
                    .copied()
                    .filter(|&r| member[r as usize])
                    .collect();
            }
        }
        self.scratch = vec![0; rows.len()];
        let mut counts = vec![0usize; self.n_labels + 1];
        for &r in &rows {
            counts[self.slots[r as usize] as usize] += 1;
        }
        counts.truncate(self.n_labels);
        let end = rows.len();
        self.rows = rows;
        let hist = if all {
            self.root_histogram()
        } else {
            self.histogram(0, end)
        };
        Node {
            start: 0,
            end,
            counts,
            hist,
            path: Vec::new(),
            depth: 0,
        }
    }

    /// The histogram of a root over every row, each column's counts from
    /// the plane.
    fn root_histogram(&mut self) -> Vec<u32> {
        let stride = self.n_labels + 1;
        let mut hist = self.spare.pop().unwrap_or_default();
        hist.clear();
        hist.resize(self.hist_len, 0);
        for (&(a, col), source) in self.columns.iter().zip(&self.sources) {
            let Source::Histogram(at) = *source else {
                continue;
            };
            let len = col.n_codes() * stride;
            let count = || {
                let mut counts = vec![0; len];
                count_codes(&mut counts, &col.codes, &self.slots, &self.rows, stride);
                counts
            };
            let counts = self.plane.root_counts(&self.attrs[a], &count);
            hist[at..at + len].copy_from_slice(&counts);
        }
        hist
    }

    /// Whether a node is split-searched: below the depth cap, large
    /// enough for two leaves, and not pure.
    fn searchable(&self, node: &Node) -> bool {
        node.depth < self.max_depth
            && node.len() >= 2 * self.min_leaf
            && node.counts.iter().filter(|&&c| c > 0).count() > 1
    }

    /// Every histogram column's counts over `rows[start..end]`, one pass
    /// over the rows per column (measured faster than one pass updating
    /// every column per row).
    fn histogram(&mut self, start: usize, end: usize) -> Vec<u32> {
        let stride = self.n_labels + 1;
        let mut hist = self.spare.pop().unwrap_or_default();
        hist.clear();
        hist.resize(self.hist_len, 0);
        let rows = &self.rows[start..end];
        for (&(_, col), source) in self.columns.iter().zip(&self.sources) {
            let Source::Histogram(at) = *source else {
                continue;
            };
            let hist = &mut hist[at..at + col.n_codes() * stride];
            count_codes(hist, &col.codes, &self.slots, rows, stride);
        }
        hist
    }

    /// The best split of a node: attributes in order, each attribute's
    /// candidates in order, a later candidate winning only on strictly
    /// higher gain.
    fn best_split(&self, node: &Node) -> Option<Best> {
        let stats = NodeStats {
            len: node.len(),
            counts: &node.counts,
            gini: gini(&node.counts),
        };
        let stride = self.n_labels + 1;
        let mut best = None;
        for (c, &(_, col)) in self.columns.iter().enumerate() {
            let counts = match &self.sources[c] {
                Source::Histogram(at) => Counts::Histogram {
                    hist: &node.hist[*at..*at + col.n_codes() * stride],
                    stride,
                },
                Source::List(list) => Counts::List {
                    rows: &list[node.start..node.end],
                    codes: &col.codes,
                    slots: &self.slots,
                },
            };
            self.evaluate(c, col, &counts, &stats, &mut best);
        }
        best
    }

    /// Offer one attribute's candidate splits, from its counts at the node.
    ///
    /// A numeric attribute tries `attr < t` at every `step`-th boundary
    /// between adjacent codes whose values differ, sampled so that at most
    /// [`MAX_THRESHOLDS`] are tried; one with a null at the node is not
    /// split on. A categorical attribute tries one-vs-rest `attr = v` for
    /// every non-null code, unless the node shows fewer than two or more
    /// than [`MAX_CATEGORIES`] of its codes.
    fn evaluate(
        &self,
        c: usize,
        col: &SplitColumn,
        counts: &Counts,
        stats: &NodeStats,
        best: &mut Option<Best>,
    ) {
        let fits = |len: usize| len >= self.min_leaf && stats.len - len >= self.min_leaf;
        let mut yes = vec![0usize; self.n_labels];
        match &col.values {
            CodeValues::Numeric(values) => {
                // The null code has no value: no step into it is a boundary.
                let value = |code: u32| values.get(code as usize).copied().unwrap_or(f64::NAN);
                let (mut boundaries, mut last) = (0usize, None);
                counts.each(|step| {
                    if let Walk::Code(code) = step {
                        if last.is_some_and(|l| value(l) < value(code)) {
                            boundaries += 1;
                        }
                        last = Some(code);
                    }
                });
                if last.is_some_and(|l| l as usize == values.len()) {
                    return;
                }
                let step_by = boundaries.div_ceil(MAX_THRESHOLDS).max(1);
                let (mut yes_len, mut boundary, mut prev) = (0usize, 0usize, None);
                counts.each(|step| match step {
                    Walk::Code(code) => {
                        if let Some(last) = prev {
                            let (below, above) = (value(last), value(code));
                            if below < above {
                                let sampled = boundary.is_multiple_of(step_by);
                                boundary += 1;
                                if sampled && fits(yes_len) {
                                    let gain = stats.gain(&yes, yes_len);
                                    offer(best, gain, || Best {
                                        gain,
                                        column: c,
                                        cut: Cut::Below { last, below, above },
                                        yes_len,
                                        yes: yes.clone(),
                                    });
                                }
                            }
                        }
                        prev = Some(code);
                    }
                    Walk::Rows(slot, k) => {
                        yes_len += k;
                        if let Some(y) = yes.get_mut(slot) {
                            *y += k;
                        }
                    }
                });
            }
            CodeValues::Categorical(values) => {
                let mut present = 0;
                counts.each(|step| present += usize::from(matches!(step, Walk::Code(_))));
                if !(2..=MAX_CATEGORIES).contains(&present) {
                    return;
                }
                let mut offer_code = |code: u32, len: usize, yes: &[usize]| {
                    let value = &values[code as usize];
                    if value.is_null() || !fits(len) {
                        return;
                    }
                    let gain = stats.gain(yes, len);
                    offer(best, gain, || Best {
                        gain,
                        column: c,
                        cut: Cut::Equals {
                            code,
                            value: value.clone(),
                        },
                        yes_len: len,
                        yes: yes.to_vec(),
                    });
                };
                let (mut current, mut len) = (None, 0usize);
                counts.each(|step| match step {
                    Walk::Code(code) => {
                        if let Some(current) = current {
                            offer_code(current, len, &yes);
                        }
                        (current, len) = (Some(code), 0);
                        yes.fill(0);
                    }
                    Walk::Rows(slot, k) => {
                        len += k;
                        if let Some(y) = yes.get_mut(slot) {
                            *y += k;
                        }
                    }
                });
                if let Some(current) = current {
                    offer_code(current, len, &yes);
                }
            }
        }
    }

    /// The winning split's descriptor; only here is a threshold rendered.
    fn descriptor(&self, best: &Best) -> Descriptor {
        let attr = self.attrs[self.columns[best.column].0].clone();
        match &best.cut {
            Cut::Below { below, above, .. } => Descriptor::LessThan {
                attr,
                threshold: self.plane.threshold(*below, *above),
            },
            Cut::Equals { value, .. } => Descriptor::Equals {
                attr,
                value: value.clone(),
            },
        }
    }

    /// Split a node by its winning split into (yes, no) children: its
    /// range of the row buffer and of every list is split stably, `yes`
    /// rows first. The children to be searched get their histograms: the
    /// smaller child's counted, the larger's its parent's minus the
    /// smaller's.
    fn split(&mut self, node: Node, best: Best) -> (Node, Node) {
        let (start, end) = (node.start, node.end);
        let codes: &'a [u32] = &self.columns[best.column].1.codes;
        let yes = best.cut.codes();
        let kept = stable_split(&mut self.rows[start..end], codes, yes, &mut self.scratch);
        debug_assert_eq!(kept, best.yes_len, "the cut must select the counted rows");
        for (c, source) in self.sources.iter_mut().enumerate() {
            // A numeric cut's `yes` rows already lead its own list.
            let prefix = c == best.column && matches!(best.cut, Cut::Below { .. });
            if let (Source::List(list), false) = (source, prefix) {
                stable_split(&mut list[start..end], codes, yes, &mut self.scratch);
            }
        }
        let descriptor = self.descriptor(&best);
        let mid = start + best.yes_len;
        let depth = node.depth + 1;
        let no_counts = node
            .counts
            .iter()
            .zip(&best.yes)
            .map(|(p, y)| p - y)
            .collect();
        let mut yes_path = node.path.clone();
        yes_path.push(descriptor.clone());
        let mut no_path = node.path;
        no_path.push(descriptor.negate());
        let mut yes = Node {
            start,
            end: mid,
            counts: best.yes,
            hist: Vec::new(),
            path: yes_path,
            depth,
        };
        let mut no = Node {
            start: mid,
            end,
            counts: no_counts,
            hist: Vec::new(),
            path: no_path,
            depth,
        };
        let (small, large) = if yes.len() <= no.len() {
            (&mut yes, &mut no)
        } else {
            (&mut no, &mut yes)
        };
        let (small_searched, large_searched) = (self.searchable(small), self.searchable(large));
        let mut parent = node.hist;
        if self.hist_len > 0 && (small_searched || large_searched) {
            let counted = self.histogram(small.start, small.end);
            if large_searched {
                for (p, k) in parent.iter_mut().zip(&counted) {
                    *p -= k;
                }
                large.hist = std::mem::take(&mut parent);
            }
            if small_searched {
                small.hist = counted;
            } else {
                self.spare.push(counted);
            }
        }
        self.spare.push(parent);
        (yes, no)
    }

    /// Grow the tree from `root`: each leaf's first row (the smallest
    /// row id), simplified condition and range of the returned row buffer.
    fn grow(mut self, root: Node) -> (Vec<u32>, Vec<TreeLeaf>) {
        let mut leaves = Vec::new();
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            let best = if self.searchable(&node) {
                self.best_split(&node)
            } else {
                None
            };
            match best {
                Some(best) => {
                    let (yes, no) = self.split(node, best);
                    stack.push(yes);
                    stack.push(no);
                }
                None => {
                    // Splits are stable, so a node's rows stay ascending.
                    let first = self.rows[node.start..node.end].first();
                    let condition = Condition::new(simplify_path(node.path));
                    leaves.push((
                        first.map_or(usize::MAX, |&r| r as usize),
                        condition,
                        node.start..node.end,
                    ));
                    self.spare.push(node.hist);
                }
            }
        }
        (self.rows, leaves)
    }
}

/// Add each of `rows` to its (code × label slot) count.
fn count_codes(hist: &mut [u32], codes: &[u32], slots: &[u32], rows: &[u32], stride: usize) {
    for &r in rows {
        let r = r as usize;
        hist[codes[r] as usize * stride + slots[r] as usize] += 1;
    }
}

/// A grown leaf: its first row, condition, and range of the row buffer.
type TreeLeaf = (usize, Condition, std::ops::Range<usize>);

/// Prepare each condition attribute that resolves to a splittable column:
/// its index into `attrs` and its [`SplitColumn`].
fn split_columns(
    table: &Table,
    attrs: &[AttrRef],
    plane: &dyn CartPlane,
) -> Vec<(usize, Arc<SplitColumn>)> {
    attrs
        .iter()
        .enumerate()
        .filter_map(|(a, attr)| Some((a, plane.split_column(attr, column_of(table, attr)?)?)))
        .collect()
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
/// universal condition. `plane` supplies each attribute's
/// [`SplitColumn`], root counts and thresholds, so a search computes each
/// once per run.
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
    plane: &dyn CartPlane,
) -> Result<Leaves> {
    let n = table.height();
    let n_labels = label_count(labels);
    if cond_attrs.is_empty() || n_labels <= 1 || n == 0 {
        return Ok(Leaves {
            conditions: vec![Condition::all()],
            leaf_of_row: vec![0; n],
            unmatched: Vec::new(),
        });
    }
    // The grower and its prepared columns name rows by `u32`.
    let Ok(height) = u32::try_from(n) else {
        let message = format!("{n} rows is more than split search can index");
        return Err(RelationError::InvalidArgument(message).into());
    };
    let (min_leaf, max_depth) = tree_bounds(n, config);
    let columns = split_columns(table, cond_attrs, plane);
    let tree_rows_exact = !columns.iter().any(|(_, col)| col.gaps);
    let mut grower = Grower::new(cond_attrs, &columns, labels, n_labels, min_leaf, max_depth);
    grower.plane = plane;
    let root = grower.root((0..height).collect());
    let (rows, leaves) = grower.grow(root);
    leaves_of_tree(table, tree_rows_exact, &rows, leaves)
}

/// How many labels `labels` uses, [`OUTLIER_LABEL`] aside.
fn label_count(labels: &[usize]) -> usize {
    labels
        .iter()
        .copied()
        .filter(|&l| l != OUTLIER_LABEL)
        .max()
        .map_or(1, |m| m + 1)
}

/// A tree's least leaf size and depth cap over `n` rows.
fn tree_bounds(n: usize, config: &CharlesConfig) -> (usize, usize) {
    let min_leaf = ((n as f64 * config.min_partition_fraction).ceil() as usize).max(1);
    // Clamped as `validate` bounds it, so an unvalidated config cannot
    // grow more leaves than a `u16` id can name.
    (min_leaf, config.max_tree_depth.clamp(1, MAX_TREE_DEPTH))
}

/// Order a grown tree's leaves by first row and give every row its leaf.
fn leaves_of_tree(
    table: &Table,
    tree_rows_exact: bool,
    rows: &[u32],
    mut leaves: Vec<TreeLeaf>,
) -> Result<Leaves> {
    let n = table.height();
    leaves.sort_by_key(|(first, _, _)| *first);
    let mut leaf_of_row = vec![0u16; n];
    let mut matched = vec![false; n];
    let mut conditions = Vec::with_capacity(leaves.len());
    for (leaf, (_, condition, range)) in (0..=u16::MAX).zip(leaves) {
        let mut mark = |r: usize| {
            debug_assert!(!matched[r], "leaf conditions must be disjoint");
            leaf_of_row[r] = leaf;
            matched[r] = true;
        };
        if tree_rows_exact {
            let tree_rows = &rows[range];
            if cfg!(debug_assertions) {
                let mut sorted: Vec<usize> = tree_rows.iter().map(|&r| r as usize).collect();
                sorted.sort_unstable();
                debug_assert_eq!(
                    condition.matching_rows(table).ok(),
                    Some(sorted),
                    "simplified condition must select the same rows as the tree path"
                );
            }
            tree_rows.iter().for_each(|&r| mark(r as usize));
        } else {
            condition.matching_rows(table)?.into_iter().for_each(mark);
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
    let leaves = induce_conditions(table, cond_attrs, labels, config, &fresh_column)?;
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
/// Kept as the differential oracle for [`Grower::best_split`].
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

/// The tree grower CART used before it worked from per-code counts: each
/// node owns its rows and, per numeric attribute, its rows in presorted
/// order, split stably into the children; each candidate's threshold is
/// rendered as it improves. Kept as the whole-tree differential oracle for
/// [`Grower`].
#[cfg(test)]
mod sorted_list {
    use super::*;

    /// A condition attribute prepared once per tree for split search.
    enum SortedColumn {
        /// Numeric: the non-null rows in ascending value order, ties by
        /// row id, NaNs last (no threshold `v < t` admits a NaN, so every
        /// split's `yes` side is a prefix of this order), and every row's
        /// value (NaN at the null rows `order` leaves out).
        Numeric { order: Vec<usize>, values: Vec<f64> },
        /// Categorical: every row's value group (by dictionary code or
        /// boolean, nulls forming one group) and each group's value.
        Categorical {
            groups: Vec<usize>,
            values: Vec<Value>,
        },
    }

    impl SortedColumn {
        /// Whether some row holds a null or a NaN.
        fn has_gaps(&self) -> bool {
            match self {
                // Nulls are left out of `order`; NaNs sort last in it.
                SortedColumn::Numeric { order, values } => {
                    order.len() < values.len() || order.last().is_some_and(|&r| values[r].is_nan())
                }
                SortedColumn::Categorical { values, .. } => values.iter().any(Value::is_null),
            }
        }

        /// Prepare one column (`None` if it is neither numeric nor
        /// groupable).
        fn new(col: &Column) -> Option<SortedColumn> {
            if col.dtype().is_numeric() {
                let values: Vec<f64> = (0..col.len())
                    .map(|r| col.get_f64(r).unwrap_or(f64::NAN))
                    .collect();
                let mut order: Vec<usize> = (0..col.len()).filter(|&r| col.is_valid(r)).collect();
                order.sort_by(|&a, &b| {
                    let (x, y) = (values[a], values[b]);
                    x.is_nan().cmp(&y.is_nan()).then(x.total_cmp(&y))
                });
                return Some(SortedColumn::Numeric { order, values });
            }
            let grouped = col.group_codes()?;
            let values = grouped
                .groups
                .iter()
                .map(|(_, rows)| rows.first().map_or(Value::Null, |&r| col.get(r)))
                .collect();
            Some(SortedColumn::Categorical {
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

    /// The sorted-list split finder over one table, labeling and
    /// attribute list.
    struct Cart<'a> {
        attrs: &'a [AttrRef],
        columns: Vec<Option<SortedColumn>>,
        labels: &'a [usize],
        n_labels: usize,
        min_leaf: usize,
    }

    impl<'a> Cart<'a> {
        /// A node over `rows` (ascending), as the root is.
        fn node(&self, rows: Vec<usize>) -> Node {
            let mut member = vec![false; self.labels.len()];
            for &r in &rows {
                member[r] = true;
            }
            let sorted = self
                .columns
                .iter()
                .map(|column| match column {
                    Some(SortedColumn::Numeric { order, .. }) => {
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

        fn best_split(&self, node: &Node) -> Option<Best<'_>> {
            let counts = label_counts(self.labels, &node.rows, self.n_labels);
            let stats = NodeStats {
                len: node.rows.len(),
                gini: gini(&counts),
                counts: &counts,
            };
            let mut best = None;
            for (a, column) in self.columns.iter().enumerate() {
                match column {
                    None => {}
                    Some(SortedColumn::Numeric { values, .. }) => {
                        self.numeric_splits(a, values, &node.sorted[a], &stats, &mut best)
                    }
                    Some(SortedColumn::Categorical { groups, values }) => {
                        self.categorical_splits(a, groups, values, &node.rows, &stats, &mut best)
                    }
                }
            }
            best
        }

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

        /// Split a node by its winning split into (yes, no) children; every
        /// sorted list is split stably.
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

    /// [`induce_conditions`] as the sorted-list grower computes it.
    pub(super) fn induce_conditions(
        table: &Table,
        cond_attrs: &[AttrRef],
        labels: &[usize],
        config: &CharlesConfig,
    ) -> Result<Leaves> {
        let n = table.height();
        let n_labels = label_count(labels);
        if cond_attrs.is_empty() || n_labels <= 1 || n == 0 {
            return Ok(Leaves {
                conditions: vec![Condition::all()],
                leaf_of_row: vec![0; n],
                unmatched: Vec::new(),
            });
        }
        let (min_leaf, max_depth) = tree_bounds(n, config);
        let cart = Cart {
            attrs: cond_attrs,
            columns: cond_attrs
                .iter()
                .map(|attr| SortedColumn::new(column_of(table, attr)?))
                .collect(),
            labels,
            n_labels,
            min_leaf,
        };
        let tree_rows_exact = !cart.columns.iter().flatten().any(|c| c.has_gaps());
        let mut in_yes = vec![false; labels.len()];
        let mut rows: Vec<u32> = Vec::with_capacity(n);
        let mut leaves = Vec::new();
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
                    let start = rows.len();
                    rows.extend(node.rows.iter().map(|&r| r as u32));
                    leaves.push((first, condition, start..rows.len()));
                }
            }
        }
        leaves_of_tree(table, tree_rows_exact, &rows, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::{DataType, TableBuilder};
    use proptest::prelude::*;

    /// One input for the split-finder and tree-grower differential tests.
    #[derive(Debug)]
    struct NodeCase {
        table: Table,
        attrs: Vec<AttrRef>,
        labels: Vec<usize>,
        rows: Vec<usize>,
        min_leaf: usize,
        /// The histogram bound the split columns are prepared with.
        dense_codes: usize,
    }

    /// A table of up to `max_rows` rows whose condition attributes cover
    /// every split path: tied integers; floats with ties, ±0.0 and (in
    /// some tables) NaNs of both signs, with or without nulls; integers
    /// with nulls; a
    /// wide integer with up to ~`max_rows` distinct values; a dictionary
    /// categorical (with a null group and, at high cardinality, more than
    /// [`MAX_CATEGORIES`] values); and a boolean. Labels include
    /// [`OUTLIER_LABEL`] rows; the node is an ascending row subset. The
    /// histogram bound puts attributes on either side of it, the real
    /// [`DENSE_CODES`] included.
    fn node_case(max_rows: usize) -> impl Strategy<Value = NodeCase> {
        let row = (
            (0i64..12, 0usize..12, -500.0f64..500.0, 0i64..1000),
            (0i64..40, 0usize..10),
            (0usize..30, 0usize..10, any::<bool>()),
            (0usize..5, 0usize..12, 0usize..10),
        );
        (
            proptest::collection::vec(row, 2..max_rows),
            (1usize..=30, 0usize..3),
            0usize..6,
            (0usize..4, 0.0f64..1.0),
            0usize..6,
        )
            .prop_map(
                |(rows, (card, float_gaps), rotate, (leaf_pick, leaf_frac), dense_pick)| {
                    let n = rows.len();
                    let mut ints = Vec::with_capacity(n);
                    let mut floats = Vec::with_capacity(n);
                    let mut wide = Vec::with_capacity(n);
                    let mut nullable = Vec::with_capacity(n);
                    let mut cats = Vec::with_capacity(n);
                    let mut flags = Vec::with_capacity(n);
                    let mut labels = Vec::with_capacity(n);
                    let mut keep = Vec::with_capacity(n);
                    for (
                        r,
                        (
                            (int, tie, float, spread),
                            (nint, ncoin),
                            (cat, ccoin, flag),
                            (label, lcoin, kcoin),
                        ),
                    ) in rows.into_iter().enumerate()
                    {
                        ints.push(int);
                        let sign = if int % 2 == 0 { 1.0 } else { -1.0 };
                        // Mostly a few tied values, sometimes a distinct one.
                        floats.push(match tie {
                            0..6 => Value::Float(tie as f64 * 0.37),
                            6 => Value::Float(sign * 0.0),
                            7 if float_gaps > 0 => Value::Float(f64::NAN.copysign(sign)),
                            8 if float_gaps > 1 => Value::Null,
                            _ => Value::Float(float),
                        });
                        wide.push(spread);
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
                        .value_col("fnum", DataType::Float64, &floats)
                        .unwrap()
                        .int_col("wide", &wide)
                        .value_col("nnum", DataType::Int64, &nullable)
                        .unwrap()
                        .value_col("cat", DataType::Utf8, &cats)
                        .unwrap()
                        .bool_col("flag", &flags)
                        .build()
                        .unwrap();
                    let mut names = ["num", "fnum", "wide", "nnum", "cat", "flag"];
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
                        dense_codes: [0, 3, 16, DENSE_CODES, DENSE_CODES, DENSE_CODES][dense_pick],
                    }
                },
            )
    }

    /// Split-column preparation under a histogram bound.
    fn prepare_with(dense_codes: usize) -> impl Fn(&AttrRef, &Column) -> Option<Arc<SplitColumn>> {
        move |_, col| SplitColumn::with_dense_codes(col, dense_codes).map(Arc::new)
    }

    /// What a leaf set says: each condition's rendering, exact form and
    /// thresholds' bits; each row's leaf; the unmatched rows.
    fn described(leaves: &Leaves) -> (Vec<String>, &[u16], &[usize]) {
        let conditions = leaves
            .conditions
            .iter()
            .map(|c| {
                let bits: Vec<u64> = c
                    .descriptors()
                    .iter()
                    .flat_map(|d| match *d {
                        Descriptor::LessThan { threshold, .. }
                        | Descriptor::AtLeast { threshold, .. } => vec![threshold.to_bits()],
                        Descriptor::InRange { lo, hi, .. } => vec![lo.to_bits(), hi.to_bits()],
                        _ => Vec::new(),
                    })
                    .collect();
                format!("{c} | {c:?} | {bits:x?}")
            })
            .collect();
        (conditions, &leaves.leaf_of_row, &leaves.unmatched)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The histogram finder picks the same winner as the row-based
        /// oracle: gain bits and descriptor. Its split sends the same row
        /// sets each way, ascending (the oracle orders a numeric split's
        /// rows by value), with the same label counts. It leaves each list
        /// column's child ranges in (code, row id) order, and gives each
        /// searched child the histogram a fresh count of its rows gives.
        #[test]
        fn count_sweep_matches_row_oracle(case in node_case(90)) {
            let NodeCase { table, attrs, labels, rows, min_leaf, dense_codes } = &case;
            let columns = split_columns(table, attrs, &prepare_with(*dense_codes));
            let n_labels = label_count(labels);
            let expected =
                oracle::best_split(table, attrs, labels, rows, n_labels, *min_leaf);
            let mut grower =
                Grower::new(attrs, &columns, labels, n_labels, *min_leaf, MAX_TREE_DEPTH);
            let node = grower.root(rows.iter().map(|&r| r as u32).collect());
            match (expected, grower.best_split(&node)) {
                (None, None) => {}
                (Some(old), Some(new)) => {
                    prop_assert_eq!(old.gain.to_bits(), new.gain.to_bits());
                    let descriptor = grower.descriptor(&new);
                    prop_assert_eq!(format!("{:?}", old.descriptor), format!("{:?}", descriptor));
                    let (yes, no) = grower.split(node, new);
                    for (child, old_rows) in [(&yes, &old.yes), (&no, &old.no)] {
                        let range = child.start..child.end;
                        let got: Vec<usize> =
                            grower.rows[range.clone()].iter().map(|&r| r as usize).collect();
                        let mut want = old_rows.clone();
                        want.sort_unstable();
                        prop_assert_eq!(&got, &want);
                        let mut counts = vec![0usize; n_labels];
                        for &r in &want {
                            if labels[r] != OUTLIER_LABEL {
                                counts[labels[r]] += 1;
                            }
                        }
                        prop_assert_eq!(&child.counts, &counts);
                        for (source, (_, col)) in grower.sources.iter().zip(&columns) {
                            if let Source::List(list) = source {
                                let mut ordered: Vec<u32> = want.iter().map(|&r| r as u32).collect();
                                ordered.sort_by_key(|&r| (col.codes[r as usize], r));
                                prop_assert_eq!(&list[range.clone()], &ordered[..]);
                            }
                        }
                        if !child.hist.is_empty() {
                            let fresh = grower.histogram(child.start, child.end);
                            prop_assert_eq!(&child.hist, &fresh);
                        }
                    }
                }
                (old, new) => {
                    return Err(TestCaseError::fail(format!(
                        "oracle found {:?}, count sweep found {:?}",
                        old.map(|s| s.descriptor),
                        new.map(|b| grower.descriptor(&b))
                    )));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The histogram grower and the sorted-list grower induce the same
        /// tree: the same conditions (thresholds to the bit), the same
        /// leaf per row and the same unmatched rows.
        #[test]
        fn histogram_tree_matches_sorted_list_tree(
            case in node_case(400),
            depth in 1usize..=MAX_TREE_DEPTH,
        ) {
            let NodeCase { table, attrs, labels, min_leaf, dense_codes, .. } = &case;
            let config = CharlesConfig {
                min_partition_fraction: (min_leaf - 1) as f64 / table.height() as f64,
                max_tree_depth: depth,
                ..CharlesConfig::default()
            };
            let expected = sorted_list::induce_conditions(table, attrs, labels, &config).unwrap();
            let prepare = prepare_with(*dense_codes);
            let leaves = induce_conditions(table, attrs, labels, &config, &prepare).unwrap();
            prop_assert_eq!(described(&expected), described(&leaves));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Every leaf's bucketed rows are exactly the rows its simplified
        /// condition matches; the leaves are disjoint, and the rows in no
        /// leaf are the listed unmatched ones. `gaps` picks the table: 0
        /// fills every null and NaN (the tree's rows are used as they are),
        /// 1 keeps `node_case`'s, 2 adds NaNs of both signs. The tree-path
        /// check in `induce_conditions` runs in debug builds only; this
        /// also runs in release.
        #[test]
        fn leaf_rows_equal_condition_rows(
            case in node_case(90),
            depth in 1usize..=MAX_TREE_DEPTH,
            gaps in 0usize..3,
            nan_rows in proptest::collection::vec(0usize..90, 1..4),
        ) {
            let NodeCase { mut table, attrs, labels, min_leaf, dense_codes, .. } = case;
            let n = table.height();
            if gaps == 0 {
                let fills = [
                    ("cat", Value::str("c0")),
                    ("nnum", Value::Int(0)),
                    ("fnum", Value::Float(0.5)),
                ];
                for (name, fill) in fills {
                    let col = table.column_by_name_mut(name).unwrap();
                    let gaps = (0..n).filter(|&r| col.get(r).is_null() || col.get_f64(r).is_some_and(f64::is_nan));
                    for r in gaps.collect::<Vec<_>>() {
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
            let prepare = prepare_with(dense_codes);
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

    /// A null on the `≠` side of an equality split reaches a leaf whose
    /// condition it does not satisfy (`≠` matches no null), so it lands in
    /// no partition although the split gains counted it. This pins that
    /// behaviour, an open correctness item, for both growers.
    #[test]
    fn null_on_not_equals_side_is_unmatched() {
        let cats = ["a", "a", "a", "b", "b"].map(Value::str);
        let table = TableBuilder::new("nulls")
            .value_col("cat", DataType::Utf8, &[&cats[..], &[Value::Null]].concat())
            .unwrap()
            .build()
            .unwrap();
        let attrs = vec![table.schema().attr_ref("cat").unwrap()];
        let labels = [0, 0, 0, 1, 1, 1];
        let prepare = |_: &AttrRef, col: &Column| SplitColumn::new(col).map(Arc::new);
        let leaves =
            induce_conditions(&table, &attrs, &labels, &default_config(), &prepare).unwrap();
        let rendered: Vec<String> = leaves.conditions.iter().map(|c| c.to_string()).collect();
        assert_eq!(rendered, ["cat = a", "cat ≠ a"]);
        assert_eq!(leaves.unmatched, [5]);
        assert_eq!(leaves.rows(), [vec![0, 1, 2], vec![3, 4]]);
        let oracle =
            sorted_list::induce_conditions(&table, &attrs, &labels, &default_config()).unwrap();
        assert_eq!(described(&oracle), described(&leaves));
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

    /// [`cluster_residuals`] as it was before the trim ran once for every
    /// `k`: the trim recurses on the inliers, then clusters at one `k`.
    fn cluster_residuals_recursive(
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
            let sub = cluster_residuals_recursive(&inlier_vals, k, config)?;
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
        Ok(cluster_inliers(residuals, &[k], config)?.swap_remove(0))
    }

    /// Residuals with a few far outliers, in nested rings so the trim
    /// takes several rounds, and sometimes almost nothing left.
    fn residual_case() -> impl Strategy<Value = Vec<f64>> {
        let base = proptest::collection::vec((0usize..4, -1.0f64..1.0), 0..120).prop_map(|xs| {
            xs.into_iter()
                .map(|(g, noise)| [0.0, 3.0, 7.0, -4.0][g] + noise)
                .collect::<Vec<f64>>()
        });
        let rings = proptest::collection::vec((0usize..3, any::<bool>()), 0..5);
        (base, rings).prop_map(|(mut values, rings)| {
            for (ring, negative) in rings {
                let far = [1e3, 1e6, 1e9][ring];
                values.push(if negative { -far } else { far });
            }
            values
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// One multi-`k` clustering equals a recursive per-`k` clustering
        /// at every `k`, outlier labels included, under every method.
        #[test]
        fn many_matches_recursive_per_k(
            residuals in residual_case(),
            ks in proptest::collection::vec(0usize..=6, 0..6),
            method in 0usize..3,
        ) {
            let config = CharlesConfig {
                partition_method: [
                    PartitionMethod::ResidualKMeans,
                    PartitionMethod::ResidualQuantile,
                    PartitionMethod::ResidualDbscan,
                ][method],
                ..default_config()
            };
            let many = cluster_residuals_many(&residuals, &ks, &config).unwrap();
            prop_assert_eq!(many.len(), ks.len());
            for (&k, labels) in ks.iter().zip(&many) {
                let want = cluster_residuals_recursive(&residuals, k, &config).unwrap();
                prop_assert_eq!(labels, &want, "k = {}", k);
            }
        }
    }

    #[test]
    fn clustering_errors_match_per_k() {
        let config = default_config();
        let residuals = [1.0, f64::NAN, 2.0];
        assert!(cluster_residuals_many(&residuals, &[2, 3], &config).is_err());
        assert!(cluster_residuals_recursive(&residuals, 2, &config).is_err());
        // k ≤ 1 never clusters, so it never fails.
        assert_eq!(
            cluster_residuals(&residuals, 1, &config).unwrap(),
            [0, 0, 0]
        );
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
