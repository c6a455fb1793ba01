//! The session-oriented query API: a long-lived [`Session`] over a cached
//! data plane.
//!
//! The ChARLES demo flow (paper Figure 3, steps 2–8) is interactive: a user
//! opens a snapshot pair once, picks a changed attribute, tweaks the
//! assistant's shortlists, slides α, and re-runs. A [`Session`] makes that
//! cheap by building the data plane **once per column**: the first use of
//! an attribute extracts it into an `Arc`-shared [`NumericView`] that
//! lives as long as the session, and the per-target change signals, setup
//! reports, global fits, cluster labelings, and evaluated candidates
//! likewise survive *across* runs instead of dying with each search.
//!
//! Queries are plain data ([`Query`], built by chaining), answered by
//! [`Session::run`]; several changed attributes can be explained over the
//! same plane with [`Session::run_multi`]; and the demo's α-slider is
//! [`Session::sweep_alpha`] — O(summaries) per α, with no re-search and no
//! column re-extraction.
//!
//! ```
//! use charles_core::{Query, Session};
//! use charles_relation::{apply_updates, ApplyMode, Expr, Predicate,
//!                        SnapshotPair, TableBuilder, UpdateStatement};
//!
//! let v2016 = TableBuilder::new("2016")
//!     .str_col("name", &["Anne", "Bob", "Cathy", "Dan"])
//!     .str_col("edu", &["PhD", "PhD", "BS", "BS"])
//!     .float_col("bonus", &[23_000.0, 25_000.0, 11_000.0, 9_000.0])
//!     .key("name")
//!     .build()
//!     .unwrap();
//! let policy = [UpdateStatement::new(
//!     "bonus",
//!     Expr::affine("bonus", 1.05, 1000.0),
//!     Predicate::eq("edu", "PhD"),
//! )];
//! let v2017 = apply_updates(&v2016, &policy, ApplyMode::FirstMatch).unwrap().table;
//!
//! let session = Session::open(SnapshotPair::align(v2016, v2017).unwrap()).unwrap();
//! // Step 2: which attributes changed at all?
//! assert_eq!(session.targets().unwrap(), vec!["bonus".to_string()]);
//! // Steps 3–8: query, then slide α without re-searching.
//! let result = session.run(&Query::new("bonus")).unwrap();
//! assert!(result.top().unwrap().scores.accuracy > 0.999);
//! let swept = session.sweep_alpha(&result, &[0.0, 0.5, 1.0]).unwrap();
//! assert_eq!(swept.len(), 3);
//! // A warm rerun of the same query recomputes nothing:
//! let before = session.stats();
//! let again = session.run(&Query::new("bonus")).unwrap();
//! assert_eq!(session.stats().global_fits_computed, before.global_fits_computed);
//! assert_eq!(again.summaries.len(), result.summaries.len());
//! ```

use crate::assistant::{analyze, SetupReport};
use crate::config::CharlesConfig;
use crate::error::{CharlesError, QueryError, Result};
use crate::score::{derive_scale, ScoringContext};
use crate::search::{
    change_signals, generate_candidates, memoized, rank_order, run_search, PlaneCaches,
    SearchContext, SearchStats,
};
use crate::summary::ChangeSummary;
use crate::transform::Transformation;
use charles_relation::{AttrId, AttrRef, NumericView, SnapshotPair};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// The schema id of a resolved [`AttrRef`]. Refs produced by
/// `Schema::attr_ref` are always resolved; losing the binding is a
/// construction bug surfaced as a typed error, not a panic on the
/// serving path.
fn resolved_id(attr: &AttrRef) -> Result<AttrId> {
    attr.id().ok_or_else(|| {
        CharlesError::BadTargetAttribute(format!(
            "attribute `{}` lost its schema binding",
            attr.name()
        ))
    })
}

/// One question asked of a [`Session`]: which target to explain, and
/// optionally how. Unset fields fall back to the session's defaults — the
/// assistant's shortlists, the session config's α, and its summary budget.
///
/// Built by chaining:
///
/// ```
/// # use charles_core::Query;
/// let query = Query::new("bonus")
///     .with_alpha(0.7)
///     .with_condition_attrs(["edu", "exp"])
///     .with_transform_attrs(["bonus"])
///     .with_top_k(5);
/// # assert_eq!(query.target, "bonus");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// The changed attribute to explain (must be numeric).
    pub target: String,
    /// Accuracy weight override (demo step 6's slider); `None` = session
    /// config's α.
    pub alpha: Option<f64>,
    /// Condition-attribute shortlist override (demo step 4); `None` = the
    /// assistant's shortlist.
    pub condition_attrs: Option<Vec<String>>,
    /// Transformation-attribute shortlist override (demo step 5); `None` =
    /// the assistant's shortlist.
    pub transform_attrs: Option<Vec<String>>,
    /// Full configuration override. Runs carrying one use a private memo
    /// plane (the session's caches are only valid for its own config).
    pub config: Option<CharlesConfig>,
    /// Ranked-summary budget override; `None` = config's `max_summaries`.
    pub top_k: Option<usize>,
}

impl Query {
    /// A query for `target` with all session defaults.
    pub fn new(target: impl Into<String>) -> Self {
        Query {
            target: target.into(),
            ..Query::default()
        }
    }

    /// Override α for this query only.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = Some(alpha);
        self
    }

    /// Override the condition-attribute shortlist.
    pub fn with_condition_attrs<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.condition_attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Override the transformation-attribute shortlist.
    pub fn with_transform_attrs<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.transform_attrs = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Override the whole configuration for this query.
    pub fn with_config(mut self, config: CharlesConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Override how many ranked summaries to return.
    pub fn with_top_k(mut self, top_k: usize) -> Self {
        self.top_k = Some(top_k);
        self
    }
}

/// Everything one [`Session::run`] produces: ranked summaries plus
/// provenance, and the query they answer.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query as issued (resolved α is in [`QueryResult::alpha`]).
    pub query: Query,
    /// The α the summaries are scored and ranked under.
    pub alpha: f64,
    /// Ranked summaries, best first (at most the query's summary budget).
    pub summaries: Vec<ChangeSummary>,
    /// The assistant's attribute analysis, present exactly when it
    /// supplied a shortlist the query left unset (shared with the
    /// session's cache).
    pub setup: Option<Arc<SetupReport>>,
    /// Search bookkeeping.
    pub stats: SearchStats,
    /// Wall-clock duration of the search (or of the re-scoring, for
    /// results produced by [`Session::rescore`] / [`Session::sweep_alpha`]).
    pub elapsed: Duration,
}

impl QueryResult {
    /// The best summary, if any.
    pub fn top(&self) -> Option<&ChangeSummary> {
        self.summaries.first()
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:?} @ α={}: {} summaries ({} candidates, {} evaluated, {} distinct) in {:.1?}",
            self.query.target,
            self.alpha,
            self.summaries.len(),
            self.stats.candidates,
            self.stats.evaluated,
            self.stats.distinct,
            self.elapsed
        )?;
        for (i, s) in self.summaries.iter().enumerate() {
            writeln!(f, "#{:<2} {s}", i + 1)?;
        }
        Ok(())
    }
}

/// Monotone counters of the work a [`Session`] has actually performed (memo
/// misses). The difference between two snapshots measures the cost of the
/// runs in between — a warm rerun of an identical query adds zero to every
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Columns extracted into shared views, each on first use (source
    /// side and aligned target side count separately).
    pub columns_extracted: usize,
    /// Per-target change-signal planes built.
    pub target_planes_built: usize,
    /// Setup-assistant reports computed (a query naming both shortlists
    /// runs none).
    pub setup_reports_computed: usize,
    /// Global OLS fits computed.
    pub global_fits_computed: usize,
    /// Labelings computed (clusterings + categorical groupings), one per
    /// (signal, k) entry, though one clustering pass fills every `k`.
    pub labelings_computed: usize,
    /// Candidate evaluations computed.
    pub candidates_computed: usize,
}

/// The per-target slice of the data plane: target values aligned to source
/// rows, the candidate-independent change signals, and the scoring scale.
/// Built once per target and shared by every run, re-scoring, and sweep.
#[derive(Debug)]
struct TargetPlane {
    target: AttrRef,
    y_target: NumericView,
    y_source: NumericView,
    delta: NumericView,
    rel_delta: NumericView,
    scale: f64,
}

/// A long-lived handle on one aligned snapshot pair, owning the extracted
/// column plane and every cache the search warms up.
///
/// All query methods take `&self`: a session can be shared behind an `Arc`
/// and queried from several threads (caches are internally synchronized).
/// See the [module docs](self) for a tour.
pub struct Session {
    pair: SnapshotPair,
    config: CharlesConfig,
    /// Source columns extracted into shared views on first use, keyed by
    /// interned attribute id. Lazy so a session (or the one-shot facade
    /// over it) never pays for columns no query reads — on a wide table
    /// only the target, the shortlists, and whatever `targets()` compares
    /// are ever materialized.
    views: Mutex<HashMap<AttrId, NumericView>>,
    /// Target columns in source row order, extracted on first use.
    aligned: Mutex<HashMap<AttrId, NumericView>>,
    /// Per-target change-signal planes.
    planes: Mutex<HashMap<AttrId, Arc<TargetPlane>>>,
    /// Setup reports per target (valid for the session config).
    setups: Mutex<HashMap<AttrId, Arc<SetupReport>>>,
    /// Global fits, labelings, and evaluated candidates (valid for the
    /// session config; see [`PlaneCaches`]).
    caches: Arc<PlaneCaches>,
    columns_extracted: AtomicUsize,
    planes_built: AtomicUsize,
    setups_computed: AtomicUsize,
}

impl Session {
    /// Open a session over an aligned pair with the default configuration.
    /// Columns join the shared plane lazily, on first use, and stay for
    /// the session's lifetime.
    pub fn open(pair: SnapshotPair) -> Result<Self> {
        Session::open_with_config(pair, CharlesConfig::default())
    }

    /// Open a session with a custom configuration. The configuration is
    /// validated lazily, when a query first uses it (mirroring
    /// [`crate::Charles`]).
    pub fn open_with_config(pair: SnapshotPair, config: CharlesConfig) -> Result<Self> {
        Ok(Session {
            pair,
            config,
            views: Mutex::new(HashMap::new()),
            aligned: Mutex::new(HashMap::new()),
            planes: Mutex::new(HashMap::new()),
            setups: Mutex::new(HashMap::new()),
            caches: Arc::new(PlaneCaches::default()),
            columns_extracted: AtomicUsize::new(0),
            planes_built: AtomicUsize::new(0),
            setups_computed: AtomicUsize::new(0),
        })
    }

    /// The aligned snapshot pair.
    pub fn pair(&self) -> &SnapshotPair {
        &self.pair
    }

    /// The session's default configuration.
    pub fn config(&self) -> &CharlesConfig {
        &self.config
    }

    /// Replace the session configuration. Caches that depend on it — setup
    /// reports, global fits, labelings, evaluated candidates, and their
    /// counters — are invalidated; the extracted column plane and the
    /// per-target change signals survive (they are config-independent).
    pub fn set_config(&mut self, config: CharlesConfig) {
        self.config = config;
        self.setups
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.setups_computed.store(0, Ordering::Relaxed);
        self.caches = Arc::new(PlaneCaches::default());
    }

    /// Approximate resident bytes of this session's data plane: both
    /// snapshot tables, every column view and change signal extracted so
    /// far, and the memo planes (global-fit residuals, labelings,
    /// candidate results — see [`PlaneCaches::approx_bytes`]).
    ///
    /// Buffers are counted **once per allocation**, not once per holder:
    /// one seen-set (keyed by `Arc` allocation address) threads through
    /// the tables, the extracted views, the aligned views, and the
    /// change-signal planes, so a view aliasing a table column adds
    /// nothing the second time.
    pub fn approx_plane_bytes(&self) -> usize {
        let mut seen: HashSet<usize> = HashSet::new();
        let note_view = |seen: &mut HashSet<usize>, v: &NumericView| -> usize {
            let buf = v.shared();
            if seen.insert(Arc::as_ptr(buf) as usize) {
                buf.len() * 8
            } else {
                0
            }
        };
        let mut total = self.pair.source().approx_bytes_dedup(&mut seen)
            + self.pair.target().approx_bytes_dedup(&mut seen);
        // lint:allow(ordered-iteration: usize byte totals are commutative — each allocation counts once whatever the visit order)
        for v in self
            .views
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            total += note_view(&mut seen, v);
        }
        for v in self
            .aligned
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            total += note_view(&mut seen, v);
        }
        // y_target/y_source alias the maps above and dedup to zero; the
        // derived signals (delta, rel_delta) are the planes' own buffers.
        for p in self
            .planes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
        {
            total += note_view(&mut seen, &p.y_target);
            total += note_view(&mut seen, &p.y_source);
            total += note_view(&mut seen, &p.delta);
            total += note_view(&mut seen, &p.rel_delta);
        }
        total + self.caches.approx_bytes()
    }

    /// Work counters so far; see [`SessionStats`].
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            columns_extracted: self.columns_extracted.load(Ordering::Relaxed),
            target_planes_built: self.planes_built.load(Ordering::Relaxed),
            setup_reports_computed: self.setups_computed.load(Ordering::Relaxed),
            global_fits_computed: self.caches.fits_computed(),
            labelings_computed: self.caches.labelings_computed(),
            candidates_computed: self.caches.candidates_computed(),
        }
    }

    /// Numeric non-key attributes whose values actually changed between
    /// the snapshots — the candidate *targets* a user picks in demo step 2.
    /// Comparison runs over the cached column plane: the first call
    /// extracts each side once, later calls clone nothing.
    pub fn targets(&self) -> Result<Vec<String>> {
        let schema = self.pair.source().schema();
        let mut out = Vec::new();
        for (field, id) in schema.fields().iter().zip(schema.attr_ids()) {
            let name = field.name();
            if !field.dtype().is_numeric() || Some(name) == self.pair.key_attr() {
                continue;
            }
            let Ok(old) = self.source_view(id) else {
                continue; // nulls: not a usable target
            };
            let new = match self.aligned_view(name, id) {
                Ok(v) => v,
                Err(_) => continue,
            };
            if old.iter().zip(new.iter()).any(|(a, b)| a != b) {
                out.push(name.to_string());
            }
        }
        Ok(out)
    }

    /// The setup assistant's report for `target` under the session
    /// configuration (demo steps 4–5), cached per target.
    pub fn setup(&self, target: &str) -> Result<Arc<SetupReport>> {
        self.config.validate()?;
        let target_ref = self.resolve_target(target)?;
        self.setup_cached(&target_ref, &self.config, true)
    }

    /// Answer one query: assistant (cached, and only when the query leaves
    /// a shortlist unset), enumeration, evaluation over the shared plane
    /// (cached fits/labelings/candidates), ranking.
    ///
    /// A second run of an identical query re-ranks cached candidate
    /// summaries without performing any new fits, clusterings, or column
    /// work — see [`Session::stats`].
    pub fn run(&self, query: &Query) -> Result<QueryResult> {
        let config = self.effective_config(query);
        config.validate()?;
        let target_ref = self.resolve_target(&query.target)?;
        let setup = if query.condition_attrs.is_some() && query.transform_attrs.is_some() {
            None
        } else {
            Some(self.setup_cached(&target_ref, &config, query.config.is_none())?)
        };
        let (cond, tran) = resolve_attrs(&self.pair, query, setup.as_deref())?;
        let schema = self.pair.source().schema();
        let cond_refs: Vec<AttrRef> = cond
            .iter()
            .map(|a| schema.attr_ref(a))
            .collect::<charles_relation::Result<_>>()?;
        let tran_refs: Vec<AttrRef> = tran
            .iter()
            .map(|a| schema.attr_ref(a))
            .collect::<charles_relation::Result<_>>()?;

        let started = Instant::now();
        let plane = self.target_plane(&target_ref)?;
        let views = self.views_for_run(&plane, &tran_refs)?;
        // Per-query config overrides get a private memo plane: the shared
        // caches are only valid for the session's own (search-relevant)
        // configuration. α and top-k overrides still share — α never
        // affects fits or labelings, and top-k only truncates. Candidate
        // *results* depend on α, though, so they are memoized only at the
        // session's own α — otherwise a stream of distinct α queries would
        // grow the candidate memo without bound.
        let (caches, memoize_candidates) = if query.config.is_none() {
            (Arc::clone(&self.caches), config.alpha == self.config.alpha)
        } else {
            // Private plane: dies with this run, safe to fill freely.
            (Arc::new(PlaneCaches::default()), true)
        };
        let ctx = SearchContext::from_plane(
            &self.pair,
            &query.target,
            plane.target.clone(),
            plane.y_target.clone(),
            plane.y_source.clone(),
            plane.delta.clone(),
            plane.rel_delta.clone(),
            plane.scale,
            views,
            &config,
            caches,
            memoize_candidates,
        )?;
        let candidates = generate_candidates(&cond_refs, &tran_refs, &config);
        if candidates.is_empty() {
            return Err(CharlesError::NoCandidates(format!(
                "empty search space (|A_cond|={}, |A_tran|={}, c={}, t={})",
                cond.len(),
                tran.len(),
                config.max_condition_attrs,
                config.max_transform_attrs
            )));
        }
        let (summaries, stats) = run_search(&ctx, &candidates)?;
        Ok(QueryResult {
            query: query.clone(),
            alpha: config.alpha,
            summaries,
            setup,
            stats,
            elapsed: started.elapsed(),
        })
    }

    /// Answer several queries over the one shared plane — the multi-target
    /// mode: explain every changed attribute of a pair in a single pass,
    /// sharing column extraction, setup analysis, and (per target) every
    /// memoized fit. Results are in query order; each is identical to what
    /// [`Session::run`] would return for that query alone.
    pub fn run_multi(&self, queries: &[Query]) -> Result<Vec<QueryResult>> {
        queries.iter().map(|q| self.run(q)).collect()
    }

    /// Re-score and re-rank an existing result under a different α — the
    /// demo's slider (step 6) without repeating the search. O(summaries):
    /// the candidate pool is the result's ranked list and the scoring plane
    /// is fully cached, so no column is read end-to-end.
    pub fn rescore(&self, result: &QueryResult, alpha: f64) -> Result<QueryResult> {
        let started = Instant::now();
        let mut config = match &result.query.config {
            Some(c) => c.clone(),
            None => self.config.clone(),
        };
        config.alpha = alpha;
        if let Some(top_k) = result.query.top_k {
            config.max_summaries = top_k;
        }
        let summaries = self.rescore_summaries(&result.query.target, &result.summaries, &config)?;
        Ok(QueryResult {
            query: result.query.clone().with_alpha(alpha),
            alpha,
            summaries,
            setup: result.setup.clone(),
            stats: result.stats.clone(),
            elapsed: started.elapsed(),
        })
    }

    /// The α-sweep: one [`Session::rescore`] per requested α, in order.
    /// Instant in practice — each point is O(summaries) over cached state.
    pub fn sweep_alpha(&self, result: &QueryResult, alphas: &[f64]) -> Result<Vec<QueryResult>> {
        alphas.iter().map(|&a| self.rescore(result, a)).collect()
    }

    /// Re-score a summary list under `config` using the cached scoring
    /// plane (shared with [`crate::Charles::rescore`]). The result is
    /// re-ranked and truncated to `config.max_summaries`.
    pub(crate) fn rescore_summaries(
        &self,
        target: &str,
        summaries: &[ChangeSummary],
        config: &CharlesConfig,
    ) -> Result<Vec<ChangeSummary>> {
        config.validate()?;
        let target_ref = self.resolve_target(target)?;
        let plane = self.target_plane(&target_ref)?;
        let scoring = ScoringContext::from_views_scaled(
            self.pair.source(),
            target,
            plane.y_target.clone(),
            plane.y_source.clone(),
            self.views_for_summaries(&plane, summaries)?,
            plane.scale,
            config,
        );
        let mut out = summaries.to_vec();
        for summary in &mut out {
            let (scores, breakdown) = scoring.score(&summary.cts)?;
            summary.scores = scores;
            summary.breakdown = breakdown;
        }
        out.sort_by(|a, b| rank_order(target, a, b));
        out.truncate(config.max_summaries);
        Ok(out)
    }

    /// Resolve and validate the target attribute (must exist and be
    /// numeric). Failures are typed [`QueryError`]s: callers can tell an
    /// unknown name from a non-numeric column without string matching.
    pub(crate) fn resolve_target(&self, target: &str) -> Result<AttrRef> {
        let schema = self.pair.source().schema();
        let Ok(target_ref) = schema.attr_ref(target) else {
            return Err(QueryError::UnknownTarget {
                name: target.to_string(),
            }
            .into());
        };
        let idx = resolved_id(&target_ref)?.index();
        let field = schema.fields().get(idx).ok_or_else(|| {
            CharlesError::BadTargetAttribute(format!(
                "attribute `{target}` points past the schema ({idx} of {})",
                schema.fields().len()
            ))
        })?;
        if !field.dtype().is_numeric() {
            return Err(QueryError::NonNumericTarget {
                name: target.to_string(),
                dtype: field.dtype().to_string(),
            }
            .into());
        }
        Ok(target_ref)
    }

    /// Shared source-side view of one attribute, extracted on first use
    /// (errors — nulls, non-numeric — are not cached and surface on every
    /// attempt, mirroring direct extraction).
    fn source_view(&self, id: AttrId) -> Result<NumericView> {
        memoized(&self.views, id, &self.columns_extracted, || {
            self.pair
                .source()
                .numeric_view_by_id(id)
                .map_err(Into::into)
        })
    }

    /// Aligned target-side view of one attribute, cached per target.
    fn aligned_view(&self, name: &str, id: AttrId) -> Result<NumericView> {
        memoized(&self.aligned, id, &self.columns_extracted, || {
            self.pair.target_numeric_view(name).map_err(Into::into)
        })
    }

    /// The per-target change-signal plane, built once per target.
    fn target_plane(&self, target: &AttrRef) -> Result<Arc<TargetPlane>> {
        let id = resolved_id(target)?;
        memoized(&self.planes, id, &self.planes_built, || {
            let y_target = self.aligned_view(target.name(), id)?;
            let y_source = self.source_view(id)?;
            let (delta, rel_delta) = change_signals(&y_target, &y_source);
            let scale = derive_scale(&y_target, &y_source);
            Ok(Arc::new(TargetPlane {
                target: target.clone(),
                y_target,
                y_source,
                delta,
                rel_delta,
                scale,
            }))
        })
    }

    /// Setup report for a resolved target, consulting the cache only when
    /// the effective config's assistant-relevant knobs are the session's
    /// own (`shareable`, i.e. no per-query config override — α and top-k
    /// overrides never affect the assistant).
    fn setup_cached(
        &self,
        target: &AttrRef,
        config: &CharlesConfig,
        shareable: bool,
    ) -> Result<Arc<SetupReport>> {
        if !shareable {
            self.setups_computed.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::new(analyze(&self.pair, target.name(), config)?));
        }
        memoized(
            &self.setups,
            resolved_id(target)?,
            &self.setups_computed,
            || Ok(Arc::new(analyze(&self.pair, target.name(), config)?)),
        )
    }

    /// The query's effective configuration: its override or the session
    /// config, with α and top-k applied on top.
    fn effective_config(&self, query: &Query) -> CharlesConfig {
        let mut config = match &query.config {
            Some(c) => c.clone(),
            None => self.config.clone(),
        };
        if let Some(alpha) = query.alpha {
            config.alpha = alpha;
        }
        if let Some(top_k) = query.top_k {
            config.max_summaries = top_k;
        }
        config
    }

    /// The view map for one run: the transformation attributes plus the
    /// target's source values (identity CTs and autoregressive terms read
    /// them) — exactly what the search and its scoring touch, all shared
    /// with the session plane.
    fn views_for_run(
        &self,
        plane: &TargetPlane,
        tran_refs: &[AttrRef],
    ) -> Result<HashMap<AttrId, NumericView>> {
        let mut views = HashMap::with_capacity(tran_refs.len() + 1);
        for attr in tran_refs {
            let id = resolved_id(attr)?;
            views.insert(id, self.source_view(id)?);
        }
        views
            .entry(resolved_id(&plane.target)?)
            .or_insert_with(|| plane.y_source.clone());
        Ok(views)
    }

    /// The view map for re-scoring a summary list: one shared view per
    /// attribute its transformations actually read.
    fn views_for_summaries(
        &self,
        plane: &TargetPlane,
        summaries: &[ChangeSummary],
    ) -> Result<HashMap<AttrId, NumericView>> {
        let schema = self.pair.source().schema();
        let mut views = HashMap::new();
        views.insert(resolved_id(&plane.target)?, plane.y_source.clone());
        for summary in summaries {
            for ct in &summary.cts {
                if let Transformation::Linear { terms, .. } = &ct.transformation {
                    for term in terms {
                        // Resolve like the scorer does: trust the interned
                        // id when its name matches this schema, else look
                        // the name up (externally built transformations).
                        let id = match term.attr.id() {
                            Some(id)
                                if schema
                                    .field(id.index())
                                    .is_ok_and(|f| f.name() == term.attr.name()) =>
                            {
                                id
                            }
                            _ => schema.attr_id(term.attr.name())?,
                        };
                        if let std::collections::hash_map::Entry::Vacant(slot) = views.entry(id) {
                            slot.insert(self.source_view(id)?);
                        }
                    }
                }
            }
        }
        Ok(views)
    }
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("rows", &self.pair.len())
            .field("key_attr", &self.pair.key_attr())
            .field(
                "views",
                &self
                    .views
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

/// Resolve the attribute lists a run will search over: the query's own,
/// else the assistant's (`setup` is present whenever the query leaves a
/// list unset); validates that transformation attributes are numeric.
fn resolve_attrs(
    pair: &SnapshotPair,
    query: &Query,
    setup: Option<&SetupReport>,
) -> Result<(Vec<String>, Vec<String>)> {
    let shortlist = |list: fn(&SetupReport) -> Vec<String>| setup.map(list).unwrap_or_default();
    let cond = query
        .condition_attrs
        .clone()
        .unwrap_or_else(|| shortlist(SetupReport::condition_attrs));
    let tran = query
        .transform_attrs
        .clone()
        .unwrap_or_else(|| shortlist(SetupReport::transform_attrs));
    let schema = pair.source().schema();
    for attr in &cond {
        schema.index_of(attr)?;
    }
    for attr in &tran {
        let idx = schema.index_of(attr)?;
        let numeric = schema
            .fields()
            .get(idx)
            .is_some_and(|f| f.dtype().is_numeric());
        if !numeric {
            return Err(CharlesError::BadConfig(format!(
                "transformation attribute {attr:?} must be numeric"
            )));
        }
    }
    if tran.is_empty() {
        return Err(QueryError::EmptyTransformShortlist.into());
    }
    Ok((cond, tran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use charles_relation::{
        apply_updates, ApplyMode, CmpOp, Expr, Predicate, Table, TableBuilder, UpdateStatement,
    };

    fn fig1_source() -> Table {
        TableBuilder::new("2016")
            .str_col(
                "name",
                &[
                    "Anne", "Bob", "Amber", "Allen", "Cathy", "Tom", "James", "Lucy", "Frank",
                ],
            )
            .str_col("gen", &["F", "M", "F", "M", "F", "M", "M", "F", "M"])
            .str_col(
                "edu",
                &["PhD", "PhD", "MS", "MS", "BS", "MS", "BS", "MS", "PhD"],
            )
            .int_col("exp", &[2, 3, 5, 1, 2, 4, 3, 4, 1])
            .float_col(
                "salary",
                &[
                    230_000.0, 250_000.0, 160_000.0, 130_000.0, 110_000.0, 150_000.0, 120_000.0,
                    150_000.0, 210_000.0,
                ],
            )
            .float_col(
                "bonus",
                &[
                    23_000.0, 25_000.0, 16_000.0, 13_000.0, 11_000.0, 15_000.0, 12_000.0, 15_000.0,
                    21_000.0,
                ],
            )
            .key("name")
            .build()
            .unwrap()
    }

    fn fig1_pair() -> SnapshotPair {
        let source = fig1_source();
        let policy = [
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.05, 1000.0),
                Predicate::eq("edu", "PhD"),
            ),
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.04, 800.0),
                Predicate::eq("edu", "MS").and(Predicate::cmp("exp", CmpOp::Ge, 3)),
            ),
            UpdateStatement::new(
                "bonus",
                Expr::affine("bonus", 1.03, 400.0),
                Predicate::eq("edu", "MS").and(Predicate::cmp("exp", CmpOp::Lt, 3)),
            ),
        ];
        let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
            .unwrap()
            .table;
        SnapshotPair::align(source, target).unwrap()
    }

    fn fig1_query() -> Query {
        Query::new("bonus")
            .with_condition_attrs(["edu", "exp", "gen"])
            .with_transform_attrs(["bonus", "salary"])
    }

    #[test]
    fn session_is_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Session>();
        // And concurrently queryable behind an Arc.
        let session = Arc::new(Session::open(fig1_pair()).unwrap());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let session = Arc::clone(&session);
                std::thread::spawn(move || session.run(&fig1_query()).unwrap())
            })
            .collect();
        let rendered: Vec<Vec<String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap()
                    .summaries
                    .iter()
                    .map(|s| s.to_string())
                    .collect()
            })
            .collect();
        for pair in rendered.windows(2) {
            assert_eq!(pair[0], pair[1], "concurrent runs must agree");
        }
    }

    #[test]
    fn session_answers_fig1_query() {
        let session = Session::open(fig1_pair()).unwrap();
        let result = session.run(&fig1_query()).unwrap();
        let top = result.top().expect("summaries");
        assert!(top.scores.accuracy > 0.999, "{}", top.scores.accuracy);
        let rendered = top.to_string();
        assert!(rendered.contains("1.05 × old_bonus + 1000"), "{rendered}");
        assert_eq!(result.alpha, session.config().alpha);
    }

    #[test]
    fn warm_rerun_is_pure_cache_hits() {
        let session = Session::open(fig1_pair()).unwrap();
        let query = fig1_query();
        let first = session.run(&query).unwrap();
        let warmed = session.stats();
        assert!(warmed.global_fits_computed > 0);
        assert!(warmed.candidates_computed > 0);

        let second = session.run(&query).unwrap();
        let after = session.stats();
        assert_eq!(after, warmed, "warm rerun must not compute anything new");
        let a: Vec<String> = first.summaries.iter().map(|s| s.to_string()).collect();
        let b: Vec<String> = second.summaries.iter().map(|s| s.to_string()).collect();
        assert_eq!(a, b, "warm rerun must be byte-identical");
    }

    #[test]
    fn alpha_override_shares_plane_but_not_candidate_memo() {
        let session = Session::open(fig1_pair()).unwrap();
        let base = session.run(&fig1_query()).unwrap();
        let warmed = session.stats();
        let shifted = session.run(&fig1_query().with_alpha(0.9)).unwrap();
        let after = session.stats();
        // Fits and labelings are α-independent: fully reused.
        assert_eq!(after.global_fits_computed, warmed.global_fits_computed);
        assert_eq!(after.labelings_computed, warmed.labelings_computed);
        // Candidate results are α-dependent; off-default-α runs compute
        // them afresh *without* filling the session memo (it would grow
        // unboundedly across a slider's worth of distinct α values).
        assert_eq!(after.candidates_computed, warmed.candidates_computed);
        assert_eq!(shifted.alpha, 0.9);
        assert_eq!(base.alpha, 0.5);
        // And a rerun at the session's own α is still fully cached.
        session.run(&fig1_query()).unwrap();
        assert_eq!(
            session.stats().candidates_computed,
            warmed.candidates_computed
        );
    }

    #[test]
    fn targets_lists_changed_attributes() {
        let session = Session::open(fig1_pair()).unwrap();
        assert_eq!(session.targets().unwrap(), vec!["bonus".to_string()]);
        // Cached: a second call extracts nothing new.
        let before = session.stats().columns_extracted;
        session.targets().unwrap();
        assert_eq!(session.stats().columns_extracted, before);
    }

    #[test]
    fn rescore_matches_run_semantics() {
        let session = Session::open(fig1_pair()).unwrap();
        let base = session.run(&fig1_query()).unwrap();
        let at_zero = session.rescore(&base, 0.0).unwrap();
        assert_eq!(at_zero.summaries.len(), base.summaries.len());
        for s in &at_zero.summaries {
            assert!((s.scores.score - s.scores.interpretability).abs() < 1e-12);
        }
        for w in at_zero.summaries.windows(2) {
            assert!(w[0].scores.score >= w[1].scores.score);
        }
        assert!(session.rescore(&base, 2.0).is_err());
    }

    #[test]
    fn sweep_alpha_is_ordered_and_complete() {
        let session = Session::open(fig1_pair()).unwrap();
        let base = session.run(&fig1_query()).unwrap();
        let alphas = [0.0, 0.25, 0.5, 0.75, 1.0];
        let swept = session.sweep_alpha(&base, &alphas).unwrap();
        assert_eq!(swept.len(), alphas.len());
        for (result, &alpha) in swept.iter().zip(alphas.iter()) {
            assert_eq!(result.alpha, alpha);
            assert_eq!(result.summaries.len(), base.summaries.len());
        }
    }

    #[test]
    fn run_multi_matches_individual_runs() {
        let session = Session::open(fig1_pair()).unwrap();
        let queries = [fig1_query(), Query::new("bonus").with_alpha(1.0)];
        let multi = session.run_multi(&queries).unwrap();
        let singles: Vec<QueryResult> = queries.iter().map(|q| session.run(q).unwrap()).collect();
        for (m, s) in multi.iter().zip(singles.iter()) {
            let m_text: Vec<String> = m.summaries.iter().map(|x| x.to_string()).collect();
            let s_text: Vec<String> = s.summaries.iter().map(|x| x.to_string()).collect();
            assert_eq!(m_text, s_text);
            assert_eq!(m.alpha, s.alpha);
        }
    }

    #[test]
    fn bad_queries_rejected() {
        let session = Session::open(fig1_pair()).unwrap();
        assert!(session.run(&Query::new("bonus").with_alpha(2.0)).is_err());
        assert!(session
            .run(&Query::new("bonus").with_condition_attrs(["nonexistent"]))
            .is_err());
        assert!(matches!(
            session
                .run(&Query::new("bonus").with_transform_attrs(["edu"]))
                .unwrap_err(),
            CharlesError::BadConfig(_)
        ));
    }

    #[test]
    fn unknown_target_is_typed_query_error() {
        let session = Session::open(fig1_pair()).unwrap();
        match session.run(&Query::new("nope")).unwrap_err() {
            CharlesError::Query(QueryError::UnknownTarget { name }) => {
                assert_eq!(name, "nope");
            }
            other => panic!("expected UnknownTarget, got {other:?}"),
        }
    }

    #[test]
    fn non_numeric_target_is_typed_query_error() {
        let session = Session::open(fig1_pair()).unwrap();
        match session.run(&Query::new("edu")).unwrap_err() {
            CharlesError::Query(QueryError::NonNumericTarget { name, dtype }) => {
                assert_eq!(name, "edu");
                assert!(!dtype.is_empty());
            }
            other => panic!("expected NonNumericTarget, got {other:?}"),
        }
    }

    #[test]
    fn empty_transform_shortlist_is_typed_query_error() {
        let session = Session::open(fig1_pair()).unwrap();
        let query = Query::new("bonus").with_transform_attrs(Vec::<String>::new());
        assert!(matches!(
            session.run(&query).unwrap_err(),
            CharlesError::Query(QueryError::EmptyTransformShortlist)
        ));
    }

    #[test]
    fn approx_plane_bytes_grows_with_extraction() {
        let session = Session::open(fig1_pair()).unwrap();
        let resident = session.approx_plane_bytes();
        assert!(resident > 0);
        session.run(&fig1_query()).unwrap();
        assert!(session.approx_plane_bytes() > resident);
    }

    #[test]
    fn top_k_truncates() {
        let session = Session::open(fig1_pair()).unwrap();
        let result = session.run(&fig1_query().with_top_k(2)).unwrap();
        assert!(result.summaries.len() <= 2);
    }

    #[test]
    fn config_override_gets_private_caches() {
        let session = Session::open(fig1_pair()).unwrap();
        session.run(&fig1_query()).unwrap();
        let warmed = session.stats();
        // A query with a full config override must not touch (or reuse)
        // the session's memo plane.
        let custom = CharlesConfig::default().with_k_range(1, 3);
        session.run(&fig1_query().with_config(custom)).unwrap();
        let after = session.stats();
        assert_eq!(after.global_fits_computed, warmed.global_fits_computed);
        assert_eq!(after.candidates_computed, warmed.candidates_computed);
        // The query names both shortlists, so no assistant runs.
        assert_eq!(after.setup_reports_computed, 0);
        // A shortlist query under an override computes a private setup
        // report, and it is counted.
        let custom = CharlesConfig::default().with_k_range(1, 3);
        let result = session
            .run(&Query::new("bonus").with_config(custom))
            .unwrap();
        assert!(result.setup.is_some());
        assert_eq!(session.stats().setup_reports_computed, 1);
    }

    #[test]
    fn setup_runs_only_for_shortlist_queries() {
        let session = Session::open(fig1_pair()).unwrap();
        let named = session.run(&fig1_query()).unwrap();
        assert!(named.setup.is_none());
        assert_eq!(session.stats().setup_reports_computed, 0);
        // One list named: the assistant supplies the other.
        let half = session
            .run(&Query::new("bonus").with_condition_attrs(["edu", "exp"]))
            .unwrap();
        assert!(half.setup.is_some());
        assert_eq!(session.stats().setup_reports_computed, 1);
        let shortlist = session.run(&Query::new("bonus")).unwrap();
        assert!(Arc::ptr_eq(
            half.setup.as_ref().unwrap(),
            shortlist.setup.as_ref().unwrap()
        ));
        assert_eq!(session.stats().setup_reports_computed, 1);
        // A rescore keeps the result's (absent) report.
        assert!(session.rescore(&named, 0.2).unwrap().setup.is_none());
    }

    /// A query naming both shortlists fails as it did when the assistant
    /// ran first: each malformed part with its own error variant.
    #[test]
    fn named_query_errors_keep_their_variants() {
        let session = Session::open(fig1_pair()).unwrap();
        let named = |target: &str, cond: &[&str], tran: &[&str]| {
            Query::new(target)
                .with_condition_attrs(cond.iter().copied())
                .with_transform_attrs(tran.iter().copied())
        };
        let error = |query: Query| session.run(&query).unwrap_err();
        assert!(matches!(
            error(named("nope", &["edu"], &["bonus"])),
            CharlesError::Query(QueryError::UnknownTarget { .. })
        ));
        assert!(matches!(
            error(named("edu", &["exp"], &["bonus"])),
            CharlesError::Query(QueryError::NonNumericTarget { .. })
        ));
        assert!(matches!(
            error(named("bonus", &["nonexistent"], &["bonus"])),
            CharlesError::Relation(_)
        ));
        assert!(matches!(
            error(named("bonus", &["edu"], &["edu"])),
            CharlesError::BadConfig(_)
        ));
        assert!(matches!(
            error(named("bonus", &["edu"], &[])),
            CharlesError::Query(QueryError::EmptyTransformShortlist)
        ));
        assert_eq!(session.stats().setup_reports_computed, 0);
    }

    #[test]
    fn set_config_invalidates_dependent_caches() {
        let pair = fig1_pair();
        let mut session = Session::open(pair).unwrap();
        session.run(&fig1_query()).unwrap();
        assert!(session.stats().global_fits_computed > 0);
        session.set_config(CharlesConfig::default().with_k_range(1, 3));
        let reset = session.stats();
        assert_eq!(reset.global_fits_computed, 0);
        assert_eq!(reset.setup_reports_computed, 0);
        // Plane survives: no new column extraction on the next run.
        let cols = reset.columns_extracted;
        let result = session.run(&fig1_query()).unwrap();
        assert!(result.top().unwrap().scores.accuracy > 0.99);
        assert_eq!(session.stats().columns_extracted, cols);
    }

    #[test]
    fn plane_bytes_count_aliased_views_once() {
        // Extracting a float column aliases the table's own buffer; the
        // byte report must not grow by another copy of it.
        let session = Session::open(fig1_pair()).unwrap();
        let before = session.approx_plane_bytes();
        let id = session.pair().source().schema().attr_id("bonus").unwrap();
        let view = session.source_view(id).unwrap();
        let aliased = Arc::ptr_eq(
            view.shared(),
            // Float columns extract zero-copy; the view shares the
            // column's allocation.
            session
                .pair()
                .source()
                .numeric_view_by_id(id)
                .unwrap()
                .shared(),
        );
        let after = session.approx_plane_bytes();
        if aliased {
            assert_eq!(after, before, "aliased view must cost zero bytes");
        } else {
            assert!(after >= before);
        }
    }

    #[test]
    fn setup_is_cached_per_target() {
        let session = Session::open(fig1_pair()).unwrap();
        let a = session.setup("bonus").unwrap();
        let b = session.setup("bonus").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(session.stats().setup_reports_computed, 1);
        assert!(a.condition_attrs().contains(&"edu".to_string()));
    }
}
