//! Candidate enumeration and (parallel) evaluation.
//!
//! A *candidate* is one `(C, T, k)` triple: condition-attribute subset,
//! transformation-attribute subset, and partition count. Evaluating a
//! candidate runs the paper's diff-discovery pipeline — global fit →
//! residual clustering → condition induction → per-partition fits →
//! scoring — and yields one scored [`ChangeSummary`]. The search evaluates
//! every candidate, deduplicates structurally identical summaries (keeping
//! the best score), and ranks.
//!
//! ## The zero-copy data plane
//!
//! [`SearchContext`] is built **once** per engine run and shared by every
//! worker thread. It extracts each numeric attribute into an `Arc`-backed
//! [`NumericView`] exactly once (`Float64` columns alias the table's own
//! storage), precomputes the candidate-independent change signals
//! (absolute and relative delta), and memoizes the global regression per
//! transformation subset — candidates sharing `T` but differing in
//! `(C, k)` reuse one [`LinearFit`]. The per-candidate loop therefore
//! performs no full-column clones and no string-keyed map lookups: columns
//! are reached through interned [`AttrId`]s, and partition rows are
//! bucketed from the CART tree's per-row leaf ids in one pass.

use crate::combi::bounded_subsets;
use crate::condition::{Condition, ConditionKey};
use crate::config::CharlesConfig;
use crate::ct::ConditionalTransformation;
use crate::error::{CharlesError, Result};
use crate::partition::{cluster_residuals, induce_conditions, Leaves, SplitColumn};
use crate::score::ScoringContext;
use crate::snap::snap_fit;
use crate::summary::ChangeSummary;
use crate::transform::{Term, Transformation};
use charles_numerics::kernels;
use charles_numerics::ols::{fit_constant, fit_ols_cols, LinearFit};
use charles_relation::{AttrId, AttrRef, Column, NumericView, SnapshotPair, Table};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One point of the search space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// Condition attributes `C` (may be empty: single universal partition).
    pub cond_attrs: Vec<AttrRef>,
    /// Transformation attributes `T` (never empty).
    pub tran_attrs: Vec<AttrRef>,
    /// Number of residual clusters to request.
    pub k: usize,
}

/// Search bookkeeping for reporting and experiments.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates that produced a summary (some fail, e.g. tiny data).
    pub evaluated: usize,
    /// Distinct summaries after deduplication.
    pub distinct: usize,
    /// Worker threads the evaluation actually ran on (after clamping the
    /// configured count to the candidate count), so benchmarks report the
    /// parallelism achieved rather than the parallelism requested.
    pub threads_used: usize,
}

/// The memoization plane shared by candidate evaluations — and, through
/// [`crate::session::Session`], *across* runs.
///
/// All keys carry the target attribute's interned id, so one cache instance
/// can serve multi-target sessions without cross-talk. Entries are valid
/// for exactly one snapshot pair and one *search-relevant* configuration
/// (everything except `alpha`, which is part of the candidate key): the
/// session invalidates the whole plane when its config changes, and runs
/// carrying a per-query config override get a private fresh instance.
#[derive(Default)]
pub struct PlaneCaches {
    /// Global fit per (target, transformation subset) (`None` =
    /// infeasible), shared across worker threads so equal-`T` candidates
    /// fit once.
    fit_memo: Mutex<HashMap<FitKey, Arc<Option<LinearFit>>>>,
    /// Cluster labelings per (target, change signal, k): the delta signals
    /// are candidate-independent and residuals depend only on `T`, so the
    /// dominant per-candidate cost (1-D k-means over all rows) is shared
    /// across every candidate with the same signal — different condition
    /// subsets reuse the identical labeling.
    label_memo: Mutex<HashMap<LabelKey, Arc<Vec<usize>>>>,
    /// Fully evaluated candidates per (target, C, T, k, α): a warm rerun of
    /// an identical query re-ranks cached summaries without re-inducing
    /// partitions or refitting anything.
    candidate_memo: Mutex<HashMap<CandidateKey, Arc<Option<ChangeSummary>>>>,
    /// Number of global OLS fits actually computed (memo misses).
    fits_computed: AtomicUsize,
    /// Number of labelings actually computed (clusterings + categorical
    /// groupings; memo misses).
    labelings_computed: AtomicUsize,
    /// Number of candidate evaluations actually computed (memo misses).
    candidates_computed: AtomicUsize,
}

impl PlaneCaches {
    /// Global fits computed so far (memo misses, monotone).
    pub fn fits_computed(&self) -> usize {
        self.fits_computed.load(Ordering::Relaxed)
    }

    /// Labelings computed so far (memo misses, monotone).
    pub fn labelings_computed(&self) -> usize {
        self.labelings_computed.load(Ordering::Relaxed)
    }

    /// Candidate evaluations computed so far (memo misses, monotone).
    pub fn candidates_computed(&self) -> usize {
        self.candidates_computed.load(Ordering::Relaxed)
    }

    /// Approximate resident bytes of the memo planes. Fits and labelings
    /// hold O(rows) buffers (residuals; per-row labels), so on large
    /// pairs the memos rival the column plane — memory-budgeted owners
    /// ([`crate::SessionManager`]) must see them. Entry growth is bounded
    /// by the enumerated search space per target (candidate results are
    /// additionally memoized only at the session's own α).
    pub fn approx_bytes(&self) -> usize {
        let fits: usize = self
            .fit_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|fit| {
                fit.as_ref()
                    .as_ref()
                    .map_or(16, |f| (f.residuals.len() + f.coefficients.len()) * 8 + 64)
            })
            .sum();
        let labelings: usize = self
            .label_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|labels| labels.len() * 8 + 64)
            .sum();
        // Summaries are small structured data (a few CTs of terms and
        // descriptors); a flat per-entry estimate is plenty here.
        let candidates = self
            .candidate_memo
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
            * 512;
        fits + labelings + candidates
    }
}

impl fmt::Debug for PlaneCaches {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlaneCaches")
            .field("fits_computed", &self.fits_computed())
            .field("labelings_computed", &self.labelings_computed())
            .field("candidates_computed", &self.candidates_computed())
            .finish_non_exhaustive()
    }
}

/// Memo key for one global fit: (target, transformation subset).
type FitKey = (AttrId, Vec<AttrId>);

/// Memo key for one labeling: (target, structural signal identity).
type LabelKey = (AttrId, LabelingKey);

/// Memo key identifying one fully evaluated candidate: target, condition
/// subset, transformation subset, k, and the α its labelings were judged
/// under (α picks the best labeling *within* a candidate, so it is part of
/// the evaluation's identity; everything else search-relevant is pinned by
/// the cache instance).
type CandidateKey = (AttrId, Vec<AttrId>, Vec<AttrId>, usize, u64);

/// Memo key for one CART induction: condition subset and labeling.
type CartKey = (Vec<AttrId>, LabelingKey);

/// Memo key for one partition fit: transformation subset and the
/// partition's structural condition.
type PartitionFitKey = (Vec<AttrId>, ConditionKey);

/// A fitted partition model and its mean absolute error (`None` when
/// infeasible).
type PartitionFit = Option<(Transformation, f64)>;

/// Memos that live for one engine run, beside the session-lifetime
/// [`PlaneCaches`]. Their values hold no row vectors: a tree's leaves keep
/// one `u16` leaf id per row, from which a candidate buckets its
/// partitions' rows, so the memos stay small.
#[derive(Default)]
struct RunMemos {
    /// Condition attributes prepared for split search (numeric ones
    /// sorted), once per run.
    split_columns: Mutex<HashMap<AttrId, Option<Arc<SplitColumn>>>>,
    split_columns_prepared: AtomicUsize,
    /// Tree leaves per CART input: candidates that share a condition
    /// subset and a labeling (all `T` sharing a Δ labeling do) grow one
    /// tree.
    cart: Mutex<HashMap<CartKey, Arc<Leaves>>>,
    carts_computed: AtomicUsize,
    /// Partition fits per (T, condition): trees over different labelings
    /// often induce the same leaves.
    partition_fits: Mutex<HashMap<PartitionFitKey, Arc<PartitionFit>>>,
    partition_fits_computed: AtomicUsize,
}

/// Everything shared by candidate evaluations for one engine run.
///
/// Construction performs exactly one extraction per numeric attribute;
/// evaluation threads only ever read through shared views. The memo plane
/// lives behind an `Arc` so a [`crate::session::Session`] can keep it alive
/// across runs; the CART and partition-fit memos are the run's own.
pub struct SearchContext<'a> {
    /// The aligned snapshot pair.
    pub pair: &'a SnapshotPair,
    /// Target attribute name.
    pub target_attr: &'a str,
    /// Resolved handle of the target attribute.
    pub target: AttrRef,
    /// Interned id of the target attribute (memo-key component).
    target_id: AttrId,
    /// Target values aligned to source rows (shared view).
    pub y_target: NumericView,
    /// Source values of the target attribute (shared view).
    pub y_source: NumericView,
    /// Source columns for every numeric attribute usable in models,
    /// extracted once and keyed by interned attribute id.
    pub views: HashMap<AttrId, NumericView>,
    /// Engine configuration.
    pub config: &'a CharlesConfig,
    /// Absolute change of the target per row (candidate-independent).
    delta: NumericView,
    /// Relative change of the target per row (candidate-independent).
    rel_delta: NumericView,
    /// Shared scoring context (built once, used by all candidates).
    scoring: ScoringContext<'a>,
    /// The memo plane (session-owned for warm runs, fresh otherwise).
    caches: Arc<PlaneCaches>,
    /// Whether fully evaluated candidates may enter the memo plane.
    /// Sessions disable this for off-default-α runs: candidate results are
    /// α-keyed, so caching them for every α a slider visits would grow the
    /// session-lifetime memo without bound. Fits and labelings are
    /// α-independent and always memoized.
    memoize_candidates: bool,
    /// Run-scoped memos.
    run: RunMemos,
}

/// Memo key for one clustering request. Clustering depends only on the
/// signal values and `k`; the signal is identified structurally.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum LabelingKey {
    /// Residuals of the global fit for a transformation subset.
    Residual(Vec<AttrId>, usize),
    /// Absolute change of the target.
    Delta(usize),
    /// Relative change of the target.
    RelDelta(usize),
    /// GROUP-BY-value labels of one categorical condition attribute.
    Categorical(AttrId),
}

impl<'a> SearchContext<'a> {
    /// Build the shared context (extracts each numeric column once) with a
    /// private, run-local memo plane.
    pub fn new(
        pair: &'a SnapshotPair,
        target_attr: &'a str,
        tran_attrs: &[String],
        config: &'a CharlesConfig,
    ) -> Result<Self> {
        let source = pair.source();
        let schema = source.schema();
        let target = schema.attr_ref(target_attr)?;
        let y_target = pair.target_numeric_view(target_attr)?;
        let y_source = source.numeric_view(target_attr)?;
        let mut views = HashMap::new();
        for attr in tran_attrs {
            let id = schema.attr_id(attr)?;
            views.insert(id, source.numeric_view_by_id(id)?);
        }
        // The target's source values are always available (identity CTs and
        // autoregressive terms read them).
        views
            .entry(target.id().ok_or_else(|| unresolved_attr(&target))?)
            .or_insert_with(|| y_source.clone());

        let (delta, rel_delta) = change_signals(&y_target, &y_source);
        let scale = crate::score::derive_scale(&y_target, &y_source);
        Self::from_plane(
            pair,
            target_attr,
            target,
            y_target,
            y_source,
            delta,
            rel_delta,
            scale,
            views,
            config,
            Arc::new(PlaneCaches::default()),
            true,
        )
    }

    /// Assemble a context over an already-extracted data plane and a
    /// (possibly warm, session-owned) memo plane. No column is touched:
    /// every argument is an `Arc`-shared view.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_plane(
        pair: &'a SnapshotPair,
        target_attr: &'a str,
        target: AttrRef,
        y_target: NumericView,
        y_source: NumericView,
        delta: NumericView,
        rel_delta: NumericView,
        scale: f64,
        views: HashMap<AttrId, NumericView>,
        config: &'a CharlesConfig,
        caches: Arc<PlaneCaches>,
        memoize_candidates: bool,
    ) -> Result<Self> {
        let scoring = ScoringContext::from_views_scaled(
            pair.source(),
            target_attr,
            y_target.clone(),
            y_source.clone(),
            views.clone(),
            scale,
            config,
        );
        let target_id = target.id().ok_or_else(|| unresolved_attr(&target))?;
        Ok(SearchContext {
            pair,
            target_attr,
            target_id,
            target,
            y_target,
            y_source,
            views,
            config,
            delta,
            rel_delta,
            scoring,
            caches,
            memoize_candidates,
            run: RunMemos::default(),
        })
    }

    /// Memoized clustering of one change signal.
    fn labels_for(&self, key: LabelingKey, signal: &[f64], k: usize) -> Result<Arc<Vec<usize>>> {
        memoized(
            &self.caches.label_memo,
            (self.target_id, key),
            &self.caches.labelings_computed,
            || Ok(Arc::new(cluster_residuals(signal, k, self.config)?)),
        )
    }

    /// Memoized GROUP-BY-value labeling of one categorical condition
    /// attribute (`None` when the attribute is numeric, null-containing,
    /// or outside the cardinality bounds). Negative results are memoized
    /// as an empty labeling — a real labeling always has ≥ 1 row because
    /// empty tables bail out before any labeling is requested.
    fn categorical_labels_for(&self, attr: &AttrRef) -> Result<Option<Arc<Vec<usize>>>> {
        let Some(id) = attr.id() else {
            return Ok(categorical_labels(self.source(), attr).map(Arc::new));
        };
        let labels = memoized(
            &self.caches.label_memo,
            (self.target_id, LabelingKey::Categorical(id)),
            &self.caches.labelings_computed,
            || {
                Ok(Arc::new(
                    categorical_labels(self.source(), attr).unwrap_or_default(),
                ))
            },
        )?;
        Ok((!labels.is_empty()).then_some(labels))
    }

    fn source(&self) -> &Table {
        self.pair.source()
    }

    /// A condition attribute prepared for split search, once per run.
    fn split_column(&self, attr: &AttrRef, col: &Column) -> Option<Arc<SplitColumn>> {
        let prepare = || SplitColumn::new(col).map(Arc::new);
        match attr.id() {
            Some(id) => memoized(
                &self.run.split_columns,
                id,
                &self.run.split_columns_prepared,
                || Ok(prepare()),
            )
            .ok()
            .flatten(),
            None => prepare(),
        }
    }

    /// The leaves of the CART tree over `cond_attrs` predicting one
    /// labeling, memoized for the run (unresolved handles bypass it).
    fn leaves(
        &self,
        cond_attrs: &[AttrRef],
        labeling: Option<&LabelingKey>,
        labels: &[usize],
    ) -> Result<Arc<Leaves>> {
        let induce = || {
            let prepared = |attr: &AttrRef, col: &Column| self.split_column(attr, col);
            Ok(Arc::new(induce_conditions(
                self.source(),
                cond_attrs,
                labels,
                self.config,
                &prepared,
            )?))
        };
        match (attr_ids(cond_attrs), labeling) {
            (Some(ids), Some(labeling)) => memoized(
                &self.run.cart,
                (ids, labeling.clone()),
                &self.run.carts_computed,
                induce,
            ),
            _ => induce(),
        }
    }

    /// The fitted model of one partition, memoized for the run on
    /// (`T`, condition): the partition's `rows` are a function of its
    /// condition, so equal conditions fit identically.
    fn partition_fit(
        &self,
        tran_attrs: &[AttrRef],
        condition: &Condition,
        rows: &[usize],
    ) -> Result<Arc<PartitionFit>> {
        let fit = || Arc::new(fit_partition(self, tran_attrs, rows));
        match (attr_ids(tran_attrs), condition.key()) {
            (Some(tran), Some(cond)) => memoized(
                &self.run.partition_fits,
                (tran, cond),
                &self.run.partition_fits_computed,
                || Ok(fit()),
            ),
            _ => Ok(fit()),
        }
    }

    /// The shared scoring context.
    pub fn scoring(&self) -> &ScoringContext<'a> {
        &self.scoring
    }

    /// Column views for a transformation-attribute subset, in subset order.
    /// Pure id-indexed lookups — no string hashing, no copies.
    fn columns_for(&self, tran_attrs: &[AttrRef]) -> Result<Vec<&[f64]>> {
        tran_attrs
            .iter()
            .map(|a| {
                let id = a.id().ok_or_else(|| unresolved_attr(a))?;
                Ok(self
                    .views
                    .get(&id)
                    .ok_or_else(|| missing_view(a))?
                    .as_slice())
            })
            .collect()
    }

    /// The memoized global fit for a transformation subset. Candidates with
    /// the same `T` but different `(C, k)` share one OLS solve — and, on a
    /// session-owned plane, so do later runs.
    fn global_fit(&self, tran_attrs: &[AttrRef]) -> Result<Arc<Option<LinearFit>>> {
        let key: Vec<AttrId> = tran_attrs
            .iter()
            .map(|a| a.id().ok_or_else(|| unresolved_attr(a)))
            .collect::<Result<_>>()?;
        memoized(
            &self.caches.fit_memo,
            (self.target_id, key),
            &self.caches.fits_computed,
            || {
                let cols = self.columns_for(tran_attrs)?;
                Ok(Arc::new(fit_ols_cols(&cols, &self.y_target).ok()))
            },
        )
    }
}

/// The candidate-independent change signals of one target plane: absolute
/// and relative per-row delta.
pub(crate) fn change_signals(
    y_target: &NumericView,
    y_source: &NumericView,
) -> (NumericView, NumericView) {
    let delta: Vec<f64> = y_target
        .iter()
        .zip(y_source.iter())
        .map(|(t, s)| t - s)
        .collect();
    let rel_delta: Vec<f64> = y_target
        .iter()
        .zip(y_source.iter())
        .map(|(t, s)| (t - s) / s.abs().max(1.0))
        .collect();
    (NumericView::new(delta), NumericView::new(rel_delta))
}

/// Double-checked memoization over a mutex-guarded map. The computation
/// runs outside the lock: concurrent first-comers may race to compute the
/// same entry, but every computation here is deterministic, so whichever
/// insertion lands first is identical to the losers, and all callers
/// observe that one shared value. `computed` counts the insertions that
/// land, so a race's losing computations are not counted and the counter
/// does not depend on the thread schedule.
pub(crate) fn memoized<K, V, F>(
    memo: &Mutex<HashMap<K, V>>,
    key: K,
    computed: &AtomicUsize,
    compute: F,
) -> Result<V>
where
    K: Eq + std::hash::Hash,
    V: Clone,
    F: FnOnce() -> Result<V>,
{
    if let Some(hit) = memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .get(&key)
    {
        return Ok(hit.clone());
    }
    let value = compute()?;
    match memo
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(key)
    {
        Entry::Occupied(entry) => Ok(entry.get().clone()),
        Entry::Vacant(entry) => {
            computed.fetch_add(1, Ordering::Relaxed);
            Ok(entry.insert(value).clone())
        }
    }
}

/// The interned ids of `attrs` (`None` if any handle is unresolved).
fn attr_ids(attrs: &[AttrRef]) -> Option<Vec<AttrId>> {
    attrs.iter().map(AttrRef::id).collect()
}

fn unresolved_attr(attr: &AttrRef) -> CharlesError {
    CharlesError::BadConfig(format!(
        "attribute {:?} was not resolved against the schema",
        attr.name()
    ))
}

fn missing_view(attr: &AttrRef) -> CharlesError {
    CharlesError::BadConfig(format!(
        "no extracted column view for attribute {:?}",
        attr.name()
    ))
}

/// Enumerate the `(C, T, k)` search space.
///
/// For every transformation subset `T` there is one *global* candidate
/// (`C = ∅`, `k = 1`, a single universal partition — the "R4"-style
/// summary), plus one candidate per non-empty condition subset and each
/// `k ≥ 2` in the configured range.
pub fn generate_candidates(
    cond_attrs: &[AttrRef],
    tran_attrs: &[AttrRef],
    config: &CharlesConfig,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    let t_subsets = bounded_subsets(tran_attrs, config.max_transform_attrs);
    let c_subsets = bounded_subsets(cond_attrs, config.max_condition_attrs);
    for t in &t_subsets {
        if config.k_min <= 1 {
            out.push(Candidate {
                cond_attrs: Vec::new(),
                tran_attrs: t.clone(),
                k: 1,
            });
        }
        for c in &c_subsets {
            for k in config.k_min.max(2)..=config.k_max {
                out.push(Candidate {
                    cond_attrs: c.clone(),
                    tran_attrs: t.clone(),
                    k,
                });
            }
        }
    }
    out
}

/// Mean absolute error of an affine model over a partition — columnwise
/// (one [`kernels::axpy`] sweep per predictor, then one lane-accumulated
/// L1 pass) rather than a per-row dot product.
fn partition_mae(cols: &[Vec<f64>], y: &[f64], coefs: &[f64], intercept: f64) -> f64 {
    if y.is_empty() {
        return 0.0;
    }
    let mut pred = vec![intercept; y.len()];
    for (&c, col) in coefs.iter().zip(cols.iter()) {
        kernels::axpy(&mut pred, c, col);
    }
    kernels::sum_abs_diff(&pred, y) / y.len() as f64
}

/// Fit a (possibly snapped) linear model on a partition, returning the
/// transformation and its mean absolute error over *all* partition rows.
///
/// Robustness: after a first OLS pass, rows whose residuals exceed 6 MADs
/// are treated as out-of-policy edits; when they are few (≤ 20%) the model
/// — and all subsequent constant snapping — is fitted on the inliers only,
/// so a handful of hand-edited cells cannot drag the recovered policy.
fn fit_partition(
    ctx: &SearchContext<'_>,
    tran_attrs: &[AttrRef],
    rows: &[usize],
) -> Option<(Transformation, f64)> {
    let y: Vec<f64> = rows.iter().map(|&r| ctx.y_target[r]).collect();
    let full_cols = ctx.columns_for(tran_attrs).ok()?;
    // Per-partition row gathers (bounded by the partition size — the only
    // copies the evaluation makes, and OLS needs contiguous input anyway).
    let cols: Vec<Vec<f64>> = full_cols
        .iter()
        .map(|c| rows.iter().map(|&r| c[r]).collect())
        .collect();

    // Enough rows for a full fit (n = p+1 is exact interpolation, which is
    // legitimate here: two points determine the affine rule that produced
    // them)? Otherwise fall back to a constant model.
    let mut fit: LinearFit = if rows.len() > cols.len() {
        match charles_numerics::ols::fit_ols(&cols, &y) {
            Ok(f) => f,
            Err(_) => fit_constant(&y).ok()?,
        }
    } else {
        fit_constant(&y).ok()?
    };

    // One-step trimmed refit (see doc comment). Track the inlier set: the
    // snapping pass below must see the same robust view of the data.
    let mut in_cols: Vec<Vec<f64>> = cols.clone();
    let mut in_y: Vec<f64> = y.clone();
    if !fit.residuals.is_empty() {
        let spread = charles_numerics::stats::mad(&fit.residuals).unwrap_or(0.0);
        if spread > 0.0 {
            let cutoff = 6.0 * spread;
            let inliers: Vec<usize> = (0..y.len())
                .filter(|&i| fit.residuals[i].abs() <= cutoff)
                .collect();
            let n_out = y.len() - inliers.len();
            if n_out > 0 && n_out * 5 <= y.len() && inliers.len() > cols.len() {
                let trimmed_cols: Vec<Vec<f64>> = cols
                    .iter()
                    .map(|c| inliers.iter().map(|&i| c[i]).collect())
                    .collect();
                let trimmed_y: Vec<f64> = inliers.iter().map(|&i| y[i]).collect();
                if let Ok(refit) = charles_numerics::ols::fit_ols(&trimmed_cols, &trimmed_y) {
                    fit = refit;
                    in_cols = trimmed_cols;
                    in_y = trimmed_y;
                }
            }
        }
    }

    let (coefficients, intercept) = if ctx.config.snap_constants {
        let used_cols: &[Vec<f64>] = if fit.coefficients.is_empty() {
            &[]
        } else {
            &in_cols
        };
        let snapped = snap_fit(used_cols, &in_y, &fit, ctx.config.snap_tolerance);
        (snapped.coefficients, snapped.intercept)
    } else {
        (fit.coefficients.clone(), fit.intercept)
    };

    // Kill numerically-dust terms: a coefficient whose whole contribution
    // across the partition is below 1e-9 of the target magnitude carries
    // no information (ridge fallbacks and collinear predictors produce
    // ±1e-16-style coefficients that would otherwise pollute rendering).
    let y_scale = kernels::sum_abs(&y) / y.len().max(1) as f64 + 1.0;
    let coefficients: Vec<f64> = coefficients
        .iter()
        .zip(cols.iter())
        .map(|(&coefficient, col)| {
            let (col_max, _) = kernels::max_abs_finite(col);
            if coefficient.abs() * col_max < 1e-9 * y_scale {
                0.0
            } else {
                coefficient
            }
        })
        .collect();
    let mae = partition_mae(&cols, &y, &coefficients, intercept);

    // A model that snapped all the way to `new = 1·old + 0` *is* the
    // identity: render it as "no change".
    let is_identity = intercept == 0.0
        && tran_attrs
            .iter()
            .zip(coefficients.iter())
            .all(|(attr, &c)| (attr.name() == ctx.target_attr && c == 1.0) || c == 0.0)
        && tran_attrs
            .iter()
            .zip(coefficients.iter())
            .any(|(attr, &c)| attr.name() == ctx.target_attr && c == 1.0);
    if is_identity {
        return Some((Transformation::Identity, mae));
    }

    let terms: Vec<Term> = tran_attrs
        .iter()
        .zip(coefficients.iter())
        .map(|(attr, &coefficient)| Term {
            attr: attr.clone(),
            coefficient,
        })
        .collect();
    Some((
        Transformation::linear(ctx.target_attr, terms, intercept),
        mae,
    ))
}

/// Fuse two descriptors over the union of their row sets: complementary
/// pairs vanish; adjacent numeric intervals concatenate. Returns `None`
/// when not fusable, `Some(None)` when the pair covers everything (drop
/// both), `Some(Some(d))` for a fused replacement.
fn fuse_descriptors(
    a: &crate::condition::Descriptor,
    b: &crate::condition::Descriptor,
) -> Option<Option<crate::condition::Descriptor>> {
    use crate::condition::Descriptor as D;
    if *b == a.negate() {
        return Some(None);
    }
    if a.attr() != b.attr() {
        return None;
    }
    let attr = a.attr_ref().clone();
    // Normalize ordering: try both (a, b) and (b, a).
    let fused = |x: &D, y: &D| -> Option<Option<D>> {
        match (x, y) {
            // `v < m` ∪ `m ≤ v < hi` = `v < hi`
            (D::LessThan { threshold, .. }, D::InRange { lo, hi, .. }) if threshold == lo => {
                Some(Some(D::LessThan {
                    attr: attr.clone(),
                    threshold: *hi,
                }))
            }
            // `lo ≤ v < m` ∪ `m ≤ v < hi` = `lo ≤ v < hi`
            (
                D::InRange { lo, hi, .. },
                D::InRange {
                    lo: lo2, hi: hi2, ..
                },
            ) if hi == lo2 => Some(Some(D::InRange {
                attr: attr.clone(),
                lo: *lo,
                hi: *hi2,
            })),
            // `lo ≤ v < m` ∪ `v ≥ m` = `v ≥ lo`
            (D::InRange { lo, hi, .. }, D::AtLeast { threshold, .. }) if hi == threshold => {
                Some(Some(D::AtLeast {
                    attr: attr.clone(),
                    threshold: *lo,
                }))
            }
            _ => None,
        }
    };
    fused(a, b).or_else(|| fused(b, a))
}

/// If two conditions are identical except for exactly one fusable pair of
/// descriptors (complementary, like `grade < 24` vs `grade ≥ 24`, or
/// adjacent intervals), return the condition describing the union of the
/// two partitions.
fn merge_conditions(
    a: &crate::condition::Condition,
    b: &crate::condition::Condition,
) -> Option<crate::condition::Condition> {
    let da = a.descriptors();
    let db = b.descriptors();
    if da.len() != db.len() || da.is_empty() {
        return None;
    }
    let mut used = vec![false; db.len()];
    let mut mismatch: Option<(usize, usize)> = None; // (index in da, index in db)
    for (i, d) in da.iter().enumerate() {
        if let Some(pos) = db
            .iter()
            .enumerate()
            .position(|(j, other)| !used[j] && other == d)
        {
            used[pos] = true;
            continue;
        }
        if mismatch.is_some() {
            return None; // more than one mismatching descriptor
        }
        mismatch = Some((i, usize::MAX));
    }
    let (ai, _) = mismatch?;
    let bj = used.iter().position(|&u| !u)?;
    let fused = fuse_descriptors(&da[ai], &db[bj])?;
    let mut kept: Vec<crate::condition::Descriptor> = db
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != bj)
        .map(|(_, d)| d.clone())
        .collect();
    if let Some(replacement) = fused {
        kept.push(replacement);
    }
    Some(crate::condition::Condition::new(kept))
}

/// Merge CTs carrying the *same* transformation whose conditions differ by
/// one complementary descriptor. Tree induction splits every path by the
/// chosen attribute, so semantically-identical siblings are common
/// (`POL ∧ grade < 24` and `POL ∧ grade ≥ 24`, both "4% + $1500"); merging
/// restores the minimal rule list.
///
/// "Same" means equal rendered [`Transformation::signature`]s (coefficients
/// to 9 decimals). Each CT's signature is rendered once: a merged CT keeps
/// the first CT's transformation, so its signature does not change.
fn merge_equivalent_cts(
    mut cts: Vec<ConditionalTransformation>,
    total_rows: usize,
) -> Vec<ConditionalTransformation> {
    let mut signatures: Vec<String> = cts.iter().map(|ct| ct.transformation.signature()).collect();
    loop {
        let mut merged: Option<(usize, usize, crate::condition::Condition)> = None;
        'outer: for i in 0..cts.len() {
            for j in (i + 1)..cts.len() {
                if signatures[i] != signatures[j] {
                    continue;
                }
                if let Some(cond) = merge_conditions(&cts[i].condition, &cts[j].condition) {
                    merged = Some((i, j, cond));
                    break 'outer;
                }
            }
        }
        let Some((i, j, condition)) = merged else {
            return cts;
        };
        let b = cts.remove(j);
        signatures.remove(j);
        let a = &mut cts[i];
        let (na, nb) = (a.rows.len() as f64, b.rows.len() as f64);
        // Same model on both sides: the union MAE is the weighted mean.
        let mae = if na + nb > 0.0 {
            (a.mae * na + b.mae * nb) / (na + nb)
        } else {
            0.0
        };
        let mut rows = std::mem::take(&mut a.rows);
        rows.extend(b.rows);
        rows.sort_unstable();
        *a = ConditionalTransformation::new(
            condition,
            a.transformation.clone(),
            rows,
            total_rows,
            mae,
        );
    }
}

/// Dense labels from a categorical column's dictionary codes (`None` for
/// numeric, null-containing, or high-cardinality columns). Grouping runs
/// on integer codes — no string materialization.
fn categorical_labels(table: &Table, attr: &AttrRef) -> Option<Vec<usize>> {
    let col = match attr.id() {
        Some(id) if id.index() < table.width() => table.column_by_id(id),
        _ => table.column_by_name(attr.name()).ok()?,
    };
    if col.dtype().is_numeric() || col.null_count() > 0 {
        return None;
    }
    let groups = col.group_codes()?;
    if groups.n_groups() < 2 || groups.n_groups() > 24 {
        return None;
    }
    Some(groups.labels)
}

/// Build conditional transformations from one labeling (identified by
/// `labeling` for the run's CART memo).
fn cts_from_labels(
    ctx: &SearchContext<'_>,
    candidate: &Candidate,
    labeling: Option<&LabelingKey>,
    labels: &[usize],
) -> Result<Vec<ConditionalTransformation>> {
    let n = ctx.y_target.len();
    let leaves = ctx.leaves(&candidate.cond_attrs, labeling, labels)?;
    let tolerance = ctx.config.change_tolerance;
    let mut cts = Vec::with_capacity(leaves.conditions.len());
    // The partitions are *exactly* what the conditions say: a leaf's rows
    // are the rows its condition matches.
    for (condition, rows) in leaves.conditions.iter().zip(leaves.rows()) {
        if rows.is_empty() {
            continue;
        }
        // "No change" partitions get the identity transformation (the
        // hatched rectangle in the paper's step 10).
        let unchanged = rows
            .iter()
            .all(|&r| (ctx.y_target[r] - ctx.y_source[r]).abs() <= tolerance);
        let (transformation, mae) = if unchanged {
            (Transformation::Identity, 0.0)
        } else {
            match ctx
                .partition_fit(&candidate.tran_attrs, condition, &rows)?
                .as_ref()
            {
                Some(ft) => ft.clone(),
                None => continue,
            }
        };
        cts.push(ConditionalTransformation::new(
            condition.clone(),
            transformation,
            rows,
            n,
            mae,
        ));
    }
    Ok(merge_equivalent_cts(cts, n))
}

/// Evaluate one candidate into a scored summary. Returns `Ok(None)` when
/// the candidate is infeasible (e.g. not enough rows for the global fit).
///
/// Results are memoized on the context's [`PlaneCaches`]: re-evaluating an
/// identical candidate (same target, `C`, `T`, `k`, and α) is a map lookup
/// plus a summary clone. On a session-owned plane this makes warm reruns of
/// a whole query O(candidates) map hits.
pub fn evaluate_candidate(
    ctx: &SearchContext<'_>,
    candidate: &Candidate,
) -> Result<Option<ChangeSummary>> {
    let key: Option<CandidateKey> = if !ctx.memoize_candidates {
        // Off-default-α session runs: compute without touching the memo
        // (see `SearchContext::memoize_candidates`).
        None
    } else {
        match (
            attr_ids(&candidate.cond_attrs),
            attr_ids(&candidate.tran_attrs),
        ) {
            (Some(cond), Some(tran)) => Some((
                ctx.target_id,
                cond,
                tran,
                candidate.k,
                ctx.config.alpha.to_bits(),
            )),
            // Unresolved handles (hand-built candidates) bypass the memo.
            _ => None,
        }
    };
    let Some(key) = key else {
        return evaluate_candidate_uncached(ctx, candidate);
    };
    let cached = memoized(
        &ctx.caches.candidate_memo,
        key,
        &ctx.caches.candidates_computed,
        || Ok(Arc::new(evaluate_candidate_uncached(ctx, candidate)?)),
    )?;
    Ok((*cached).clone())
}

/// The memo-free candidate evaluation (see [`evaluate_candidate`]).
fn evaluate_candidate_uncached(
    ctx: &SearchContext<'_>,
    candidate: &Candidate,
) -> Result<Option<ChangeSummary>> {
    let n = ctx.y_target.len();
    if n == 0 {
        return Ok(None);
    }

    // Global fit over all rows; its residuals drive partition discovery.
    // Shared across all candidates with the same transformation subset.
    let global = ctx.global_fit(&candidate.tran_attrs)?;
    let Some(global) = global.as_ref() else {
        return Ok(None);
    };

    let scoring = ctx.scoring();
    let mut best: Option<(ChangeSummary, f64)> = None;
    let mut seen_labelings: Vec<Arc<Vec<usize>>> = Vec::new();
    let mut labelings: Vec<(Option<LabelingKey>, Arc<Vec<usize>>)> = Vec::new();
    // The change signals candidate partitions are mined from: the global
    // fit's residuals (the paper's method) plus the direct absolute and
    // relative deltas (precomputed once per run — when latent groups differ
    // in *slope*, residuals interleave groups, the paper's acknowledged
    // "cyclic dependency" between clustering and pattern sharing).
    // Each clustering is memoized: candidates sharing a signal and k (all
    // condition subsets do) reuse one k-means run.
    let tkey: Vec<AttrId> = candidate
        .tran_attrs
        .iter()
        .map(|a| a.id().ok_or_else(|| unresolved_attr(a)))
        .collect::<Result<_>>()?;
    let k = candidate.k;
    for (key, signal) in [
        (LabelingKey::Residual(tkey, k), global.residuals.as_slice()),
        (LabelingKey::Delta(k), ctx.delta.as_slice()),
        (LabelingKey::RelDelta(k), ctx.rel_delta.as_slice()),
    ] {
        let labels = ctx.labels_for(key.clone(), signal, k)?;
        labelings.push((Some(key), labels));
    }
    // For a single categorical condition attribute, the GROUP-BY-value
    // partitioning is an obvious candidate in its own right: when the
    // latent groups' change behaviours overlap in signal space (similar
    // slopes, wide value ranges), clustering cannot seed them, but a direct
    // per-value split still recovers them exactly.
    if let [attr] = candidate.cond_attrs.as_slice() {
        if let Some(labels) = ctx.categorical_labels_for(attr)? {
            labelings.push((attr.id().map(LabelingKey::Categorical), labels));
        }
    }
    for (key, labels) in labelings {
        if seen_labelings
            .iter()
            .any(|seen| Arc::ptr_eq(seen, &labels) || **seen == *labels)
        {
            continue; // identical labeling ⇒ identical summary
        }
        let cts = cts_from_labels(ctx, candidate, key.as_ref(), &labels)?;
        seen_labelings.push(labels);
        if cts.is_empty() {
            continue;
        }
        let (scores, breakdown) = scoring.score(&cts)?;
        if best.as_ref().is_none_or(|(_, s)| scores.score > *s) {
            let score = scores.score;
            best = Some((
                ChangeSummary {
                    cts,
                    target_attr: ctx.target_attr.to_string(),
                    condition_attrs: candidate
                        .cond_attrs
                        .iter()
                        .map(|a| a.name().to_string())
                        .collect(),
                    transform_attrs: candidate
                        .tran_attrs
                        .iter()
                        .map(|a| a.name().to_string())
                        .collect(),
                    scores,
                    breakdown,
                    total_rows: n,
                },
                score,
            ));
        }
    }
    Ok(best.map(|(summary, _)| summary))
}

/// Reference ("naive") data plane: rebuild a fresh context for one
/// candidate, re-extracting every column and refitting the global model —
/// exactly the per-candidate work the seed implementation did. Kept as an
/// A/B oracle: `BENCH_search.json` measures the shared data plane against
/// this path, and the equivalence test in `tests/determinism.rs` asserts
/// both produce identical summaries.
pub fn evaluate_candidate_naive(
    pair: &SnapshotPair,
    target_attr: &str,
    candidate: &Candidate,
    config: &CharlesConfig,
) -> Result<Option<ChangeSummary>> {
    let tran_names: Vec<String> = candidate
        .tran_attrs
        .iter()
        .map(|a| a.name().to_string())
        .collect();
    let ctx = SearchContext::new(pair, target_attr, &tran_names, config)?;
    let schema = pair.source().schema();
    // Re-resolve the candidate against the fresh context's schema.
    let candidate = Candidate {
        cond_attrs: candidate
            .cond_attrs
            .iter()
            .map(|a| schema.attr_ref(a.name()))
            .collect::<charles_relation::Result<_>>()?,
        tran_attrs: candidate
            .tran_attrs
            .iter()
            .map(|a| schema.attr_ref(a.name()))
            .collect::<charles_relation::Result<_>>()?,
        k: candidate.k,
    };
    evaluate_candidate(&ctx, &candidate)
}

/// The one ranking order of summaries explaining `target`, shared by
/// [`run_search`] and every re-ranking path (`Session::rescore`,
/// `Charles::rescore`, the α-sweep). Higher score first; ties go to fewer
/// CTs, then to autoregressive transformations (explaining the new value
/// in terms of the target's *own* previous value reads most naturally:
/// "5% increase on last year's bonus"), then to a stable structural key.
pub(crate) fn rank_order(target: &str, a: &ChangeSummary, b: &ChangeSummary) -> std::cmp::Ordering {
    let self_referential = |s: &ChangeSummary| -> bool {
        s.cts.iter().any(|ct| {
            ct.transformation
                .attributes()
                .iter()
                .any(|attr| attr == target)
        })
    };
    b.scores
        .score
        .total_cmp(&a.scores.score)
        .then(a.cts.len().cmp(&b.cts.len()))
        .then_with(|| self_referential(b).cmp(&self_referential(a)))
        .then_with(|| a.signature().cmp(&b.signature()))
}

/// Evaluate all candidates (in parallel when configured), deduplicate, and
/// rank by descending score.
///
/// The answer does not depend on the thread count or the thread schedule:
/// each candidate's outcome lands in the slot of its index, and the merge
/// reads the slots in candidate order. So among structurally identical
/// summaries with equal scores the lowest candidate index survives, and a
/// failing search reports the error of the lowest failing index — on any
/// thread count, exactly as the sequential path does.
pub fn run_search(
    ctx: &SearchContext<'_>,
    candidates: &[Candidate],
) -> Result<(Vec<ChangeSummary>, SearchStats)> {
    let threads = ctx.config.effective_threads().min(candidates.len().max(1));

    let all: Vec<ChangeSummary> = if threads <= 1 {
        candidates
            .iter()
            .map(|candidate| evaluate_candidate(ctx, candidate))
            .filter_map(Result::transpose)
            .collect::<Result<_>>()?
    } else {
        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let slots: Vec<Mutex<Option<Result<Option<ChangeSummary>>>>> =
            candidates.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    // After a failure, stop claiming. Indices are claimed in
                    // increasing order, so every index below the failing one
                    // is already claimed and its slot gets filled.
                    while !failed.load(Ordering::Relaxed) {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (Some(candidate), Some(slot)) = (candidates.get(i), slots.get(i))
                        else {
                            break;
                        };
                        let outcome = evaluate_candidate(ctx, candidate);
                        if outcome.is_err() {
                            failed.store(true, Ordering::Relaxed);
                        }
                        *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
                    }
                });
            }
        });
        // Empty slots lie past the lowest failure, where the merge stops.
        slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .filter_map(Result::transpose)
            .collect::<Result<_>>()?
    };
    let evaluated = all.len();

    // Deduplicate by structural signature, keeping the best-scoring copy
    // (on equal scores, the lowest candidate index: `all` is in candidate
    // order and a later copy must score strictly higher to replace it).
    let mut best: HashMap<String, ChangeSummary> = HashMap::with_capacity(all.len());
    for summary in all {
        let sig = summary.signature();
        match best.get(&sig) {
            Some(existing) if existing.scores.score >= summary.scores.score => {}
            _ => {
                best.insert(sig, summary);
            }
        }
    }
    // lint:allow(ordered-iteration: which copy survives each signature is fixed by the candidate-index order above; the hash order of the survivors is erased by the total-order sort below)
    let mut ranked: Vec<ChangeSummary> = best.into_values().collect();
    let distinct = ranked.len();
    ranked.sort_by(|a, b| rank_order(ctx.target_attr, a, b));
    ranked.truncate(ctx.config.max_summaries);

    Ok((
        ranked,
        SearchStats {
            candidates: candidates.len(),
            evaluated,
            distinct,
            threads_used: threads,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::{
        apply_updates, ApplyMode, Expr, Predicate, TableBuilder, UpdateStatement,
    };

    fn example_pair() -> SnapshotPair {
        let source = TableBuilder::new("2016")
            .str_col(
                "name",
                &[
                    "Anne", "Bob", "Amber", "Allen", "Cathy", "Tom", "James", "Lucy", "Frank",
                ],
            )
            .str_col(
                "edu",
                &["PhD", "PhD", "MS", "MS", "BS", "MS", "BS", "MS", "PhD"],
            )
            .int_col("exp", &[2, 3, 5, 1, 2, 4, 3, 4, 1])
            .float_col(
                "bonus",
                &[
                    23_000.0, 25_000.0, 16_000.0, 13_000.0, 11_000.0, 15_000.0, 12_000.0, 15_000.0,
                    21_000.0,
                ],
            )
            .key("name")
            .build()
            .unwrap();
        let policy = [
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.05, 1000.0),
                Predicate::eq("edu", "PhD"),
            ),
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.04, 800.0),
                Predicate::eq("edu", "MS").and(Predicate::cmp(
                    "exp",
                    charles_relation::CmpOp::Ge,
                    3,
                )),
            ),
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.03, 400.0),
                Predicate::eq("edu", "MS").and(Predicate::cmp(
                    "exp",
                    charles_relation::CmpOp::Lt,
                    3,
                )),
            ),
        ];
        let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
            .unwrap()
            .table;
        SnapshotPair::align(source, target).unwrap()
    }

    /// Resolve attribute names against a pair's source schema.
    fn refs(pair: &SnapshotPair, names: &[&str]) -> Vec<AttrRef> {
        names
            .iter()
            .map(|n| pair.source().schema().attr_ref(n).unwrap())
            .collect()
    }

    #[test]
    fn candidate_generation_shape() {
        let pair = example_pair();
        let config = CharlesConfig::default()
            .with_max_condition_attrs(2)
            .with_max_transform_attrs(1)
            .with_k_range(1, 3);
        let cands = generate_candidates(
            &refs(&pair, &["edu", "exp"]),
            &refs(&pair, &["bonus"]),
            &config,
        );
        // T subsets: {bonus}. Global candidate (C=∅, k=1) + 3 C-subsets × 2
        // k values (2, 3) = 1 + 6.
        assert_eq!(cands.len(), 7);
        assert!(cands.iter().any(|c| c.cond_attrs.is_empty() && c.k == 1));
        assert!(cands.iter().all(|c| !c.tran_attrs.is_empty()));
    }

    #[test]
    fn evaluate_recovers_example_1_with_right_candidate() {
        let pair = example_pair();
        let config = CharlesConfig::default();
        let tran = vec!["bonus".to_string()];
        let ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        let candidate = Candidate {
            cond_attrs: refs(&pair, &["edu", "exp"]),
            tran_attrs: refs(&pair, &["bonus"]),
            k: 4,
        };
        let summary = evaluate_candidate(&ctx, &candidate).unwrap().unwrap();
        // Perfect accuracy: the latent rules are exactly linear in bonus.
        assert!(
            summary.scores.accuracy > 0.999,
            "accuracy = {}\n{summary}",
            summary.scores.accuracy
        );
        assert_eq!(summary.cts.len(), 4, "{summary}");
        // One CT must be the identity over the BS partition.
        assert!(summary.cts.iter().any(|ct| ct.is_no_change()));
        // The PhD rule is recovered with round constants.
        let rendered = summary.to_string();
        assert!(rendered.contains("1.05"), "{rendered}");
        assert!(rendered.contains("1000"), "{rendered}");
    }

    #[test]
    fn naive_and_shared_data_planes_agree() {
        let pair = example_pair();
        let config = CharlesConfig::default();
        let tran = vec!["bonus".to_string()];
        let ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        for candidate in generate_candidates(
            &refs(&pair, &["edu", "exp"]),
            &refs(&pair, &["bonus"]),
            &config,
        ) {
            let shared = evaluate_candidate(&ctx, &candidate).unwrap();
            let naive = evaluate_candidate_naive(&pair, "bonus", &candidate, &config).unwrap();
            match (shared, naive) {
                (None, None) => {}
                (Some(s), Some(n)) => {
                    assert_eq!(s.signature(), n.signature(), "candidate {candidate:?}");
                    assert_eq!(s.to_string(), n.to_string());
                }
                (s, n) => panic!("planes disagree: {s:?} vs {n:?}"),
            }
        }
    }

    #[test]
    fn global_fit_memo_shares_transformation_subsets() {
        let pair = example_pair();
        let config = CharlesConfig::default();
        let tran = vec!["bonus".to_string()];
        let ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        let t = refs(&pair, &["bonus"]);
        let a = ctx.global_fit(&t).unwrap();
        let b = ctx.global_fit(&t).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the memo");
        assert!(a.is_some());
    }

    #[test]
    fn run_memos_share_trees_and_partition_fits() {
        let pair = example_pair();
        let config = CharlesConfig::default();
        let tran = vec!["bonus".to_string()];
        let mut ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        // Bypass the candidate memo, so a repeat evaluation reaches CART.
        ctx.memoize_candidates = false;
        let candidate = Candidate {
            cond_attrs: refs(&pair, &["edu", "exp"]),
            tran_attrs: refs(&pair, &["bonus"]),
            k: 4,
        };
        let first = evaluate_candidate(&ctx, &candidate).unwrap().unwrap();
        let count = |c: &AtomicUsize| c.load(Ordering::Relaxed);
        let (carts, fits) = (
            count(&ctx.run.carts_computed),
            count(&ctx.run.partition_fits_computed),
        );
        assert!(carts > 0 && fits > 0);
        let again = evaluate_candidate(&ctx, &candidate).unwrap().unwrap();
        assert_eq!(again.to_string(), first.to_string());
        assert_eq!(again.scores.score.to_bits(), first.scores.score.to_bits());
        assert_eq!(count(&ctx.run.carts_computed), carts);
        assert_eq!(count(&ctx.run.partition_fits_computed), fits);
        // Each condition attribute (`edu`, `exp`) is prepared once.
        assert_eq!(count(&ctx.run.split_columns_prepared), 2);
    }

    /// Sibling CTs whose coefficients agree to 9 decimals carry the same
    /// rendered signature, so they merge even though their bits differ.
    #[test]
    fn merge_keys_on_rendered_signature_not_bits() {
        use crate::condition::Descriptor;
        let ct = |descriptor, coefficient: f64, rows: Vec<usize>| {
            let terms = vec![Term {
                attr: "bonus".into(),
                coefficient,
            }];
            ConditionalTransformation::new(
                Condition::new(vec![descriptor]),
                Transformation::linear("bonus", terms, 1000.0),
                rows,
                4,
                0.0,
            )
        };
        let (a, b): (f64, f64) = (1.05, 1.05 + 2e-12);
        assert_ne!(a.to_bits(), b.to_bits());
        let below = Descriptor::LessThan {
            attr: "grade".into(),
            threshold: 24.0,
        };
        let above = below.negate();
        let merged =
            merge_equivalent_cts(vec![ct(below, a, vec![0, 2]), ct(above, b, vec![1, 3])], 4);
        assert_eq!(merged.len(), 1, "{merged:?}");
        assert!(merged[0].condition.is_universal());
        assert_eq!(merged[0].rows, vec![0, 1, 2, 3]);
        // The merged CT keeps the first CT's transformation.
        assert_eq!(
            merged[0].transformation.constants()[0].to_bits(),
            a.to_bits()
        );
    }

    #[test]
    fn search_ranks_true_summary_first() {
        let pair = example_pair();
        let config = CharlesConfig::default();
        let tran = vec!["bonus".to_string()];
        let ctx = SearchContext::new(&pair, "bonus", &tran, &config).unwrap();
        let candidates = generate_candidates(
            &refs(&pair, &["edu", "exp"]),
            &refs(&pair, &["bonus"]),
            &config,
        );
        let (ranked, stats) = run_search(&ctx, &candidates).unwrap();
        assert!(!ranked.is_empty());
        assert!(stats.evaluated > 0);
        assert!(stats.distinct <= stats.evaluated);
        let top = &ranked[0];
        assert!(
            top.scores.accuracy > 0.999,
            "top accuracy = {}",
            top.scores.accuracy
        );
        // Scores descend.
        for w in ranked.windows(2) {
            assert!(w[0].scores.score >= w[1].scores.score);
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let pair = example_pair();
        let seq_config = CharlesConfig::default().with_threads(1);
        let par_config = CharlesConfig::default().with_threads(4);
        let tran = vec!["bonus".to_string()];

        let ctx_seq = SearchContext::new(&pair, "bonus", &tran, &seq_config).unwrap();
        let cands = generate_candidates(
            &refs(&pair, &["edu", "exp"]),
            &refs(&pair, &["bonus"]),
            &seq_config,
        );
        let (seq, _) = run_search(&ctx_seq, &cands).unwrap();

        let ctx_par = SearchContext::new(&pair, "bonus", &tran, &par_config).unwrap();
        let (par, _) = run_search(&ctx_par, &cands).unwrap();

        let seq_sigs: Vec<String> = seq.iter().map(|s| s.signature()).collect();
        let par_sigs: Vec<String> = par.iter().map(|s| s.signature()).collect();
        assert_eq!(seq_sigs, par_sigs);
    }

    #[test]
    fn no_change_pair_yields_identity_summary() {
        let source = TableBuilder::new("s")
            .str_col("k", &["a", "b", "c", "d"])
            .float_col("x", &[1.0, 2.0, 3.0, 4.0])
            .key("k")
            .build()
            .unwrap();
        let pair = SnapshotPair::align(source.clone(), source).unwrap();
        let config = CharlesConfig::default();
        let tran = vec!["x".to_string()];
        let ctx = SearchContext::new(&pair, "x", &tran, &config).unwrap();
        let cands = generate_candidates(&[], &refs(&pair, &["x"]), &config);
        let (ranked, _) = run_search(&ctx, &cands).unwrap();
        let top = &ranked[0];
        assert!((top.scores.accuracy - 1.0).abs() < 1e-12);
        assert!(top.cts.iter().all(|ct| ct.is_no_change()));
    }
}
