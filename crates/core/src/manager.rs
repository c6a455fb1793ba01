//! The multi-tenant entry point: a registry of named datasets behind
//! lazily-opened, budget-evicted [`Session`]s.
//!
//! A [`SessionManager`] turns the session plane from "one in-process
//! caller holding one [`Session`]" into a *served resource*: datasets are
//! **registered** under names (as CSV paths, inline CSV text, an aligned
//! pair, or a provider closure), **opened** into `Arc<Session>`s on first
//! use, and **evicted** least-recently-used when the configured session or
//! memory budget is exceeded. Every open session keeps its whole warm
//! plane — extracted columns, global fits, labelings, evaluated candidates
//! — so repeated queries against a resident dataset hit PR 2's warm path,
//! while cold datasets cost one open.
//!
//! All methods take `&self`; a manager is shared behind an `Arc` by the
//! serving front end (`charles-server`) and queried from many connection
//! threads concurrently.
//!
//! ```
//! use charles_core::{ManagerConfig, Query, SessionManager};
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
//! let manager = SessionManager::new(ManagerConfig::default());
//! manager.register_pair("salaries", SnapshotPair::align(v2016, v2017).unwrap());
//! let session = manager.open_or_get("salaries").unwrap();
//! let result = session.run(&Query::new("bonus")).unwrap();
//! assert!(result.top().unwrap().scores.accuracy > 0.999);
//! assert_eq!(manager.list().len(), 1);
//! ```

use crate::config::CharlesConfig;
use crate::error::{CharlesError, Result};
use crate::session::Session;
use charles_relation::{read_csv, read_csv_path, SnapshotPair, Table};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// How a registered dataset's snapshot pair is (re)materialized when its
/// session is opened — after registration and after every eviction.
///
/// Cheap specs (paths, closures) make eviction meaningful: dropping the
/// session frees the parsed columns and caches, and a later
/// [`SessionManager::open_or_get`] rebuilds them from the spec.
#[derive(Clone)]
pub enum DatasetSpec {
    /// An already-aligned pair, kept resident in the spec itself. Eviction
    /// frees the session's extracted views and caches but not the tables —
    /// use a path- or provider-backed spec when the budget must bound raw
    /// data too.
    Pair(SnapshotPair),
    /// Two CSV files on disk, re-read and aligned on every open.
    CsvPair {
        /// Path of the earlier snapshot.
        source: PathBuf,
        /// Path of the later snapshot.
        target: PathBuf,
        /// Key attribute to align on (`None` = the tables' declared key,
        /// or positional alignment).
        key: Option<String>,
    },
    /// CSV documents held as text (the wire `LoadCsv` ingest path):
    /// eviction keeps only the text, re-parsing on the next open.
    CsvInline {
        /// CSV text of the earlier snapshot.
        source: String,
        /// CSV text of the later snapshot.
        target: String,
        /// Key attribute to align on (`None` = declared key/positional).
        key: Option<String>,
    },
    /// An arbitrary pair factory (synthetic workloads, other formats).
    Provider(Arc<dyn Fn() -> Result<SnapshotPair> + Send + Sync>),
}

impl fmt::Debug for DatasetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetSpec::Pair(pair) => f.debug_tuple("Pair").field(&pair.len()).finish(),
            DatasetSpec::CsvPair { source, target, .. } => f
                .debug_struct("CsvPair")
                .field("source", source)
                .field("target", target)
                .finish_non_exhaustive(),
            DatasetSpec::CsvInline { source, target, .. } => f
                .debug_struct("CsvInline")
                .field("source_len", &source.len())
                .field("target_len", &target.len())
                .finish_non_exhaustive(),
            DatasetSpec::Provider(_) => f.write_str("Provider(..)"),
        }
    }
}

impl DatasetSpec {
    /// Materialize the aligned pair this spec describes.
    fn open_pair(&self) -> Result<SnapshotPair> {
        let align = |source: Table, target: Table, key: &Option<String>| match key {
            Some(key) => SnapshotPair::align_on(source, target, key),
            None => SnapshotPair::align(source, target),
        };
        match self {
            DatasetSpec::Pair(pair) => Ok(pair.clone()),
            DatasetSpec::CsvPair {
                source,
                target,
                key,
            } => Ok(align(read_csv_path(source)?, read_csv_path(target)?, key)?),
            DatasetSpec::CsvInline {
                source,
                target,
                key,
            } => Ok(align(
                read_csv(source.as_bytes())?,
                read_csv(target.as_bytes())?,
                key,
            )?),
            DatasetSpec::Provider(provider) => provider(),
        }
    }

    /// Open a session over this spec's pair.
    fn open_session(&self, config: CharlesConfig) -> Result<Session> {
        Session::open_with_config(self.open_pair()?, config)
    }
}

/// Budgets bounding how much a [`SessionManager`] keeps resident.
///
/// Both budgets are *soft* in one deliberate way: the session being opened
/// or queried is never evicted to make room for itself, so a single
/// dataset larger than the byte budget still serves (with nothing else
/// resident). Eviction drops the registry's `Arc`; memory is actually
/// released when the last in-flight query holding the session finishes.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Maximum resident (open) sessions; `0` = unlimited.
    pub max_sessions: usize,
    /// Maximum total [`Session::approx_plane_bytes`] across resident
    /// sessions; `0` = unlimited.
    pub max_resident_bytes: usize,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            max_sessions: 8,
            max_resident_bytes: 0,
        }
    }
}

impl ManagerConfig {
    /// Set the resident-session budget (`0` = unlimited).
    pub fn with_max_sessions(mut self, n: usize) -> Self {
        self.max_sessions = n;
        self
    }

    /// Set the resident-byte budget (`0` = unlimited).
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = bytes;
        self
    }
}

/// One registered dataset's bookkeeping, as reported by
/// [`SessionManager::list`] / [`SessionManager::dataset_stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetStats {
    /// Registered name.
    pub name: String,
    /// Whether a session is currently open (resident).
    pub resident: bool,
    /// Times a session was opened (registration misses + re-opens after
    /// eviction).
    pub opens: usize,
    /// Times `open_or_get` found the session already resident.
    pub hits: usize,
    /// Times this dataset's session was evicted.
    pub evictions: usize,
    /// Approximate resident bytes of the open session's data plane
    /// (`0` when not resident; see [`Session::approx_plane_bytes`]).
    pub approx_bytes: usize,
    /// LRU position: how many `open_or_get` calls (across all datasets)
    /// had happened when this one was last used. Larger = more recent.
    pub last_used_tick: u64,
}

struct DatasetEntry {
    spec: DatasetSpec,
    config: CharlesConfig,
    session: Option<Arc<Session>>,
    approx_bytes: usize,
    last_used_tick: u64,
    opens: usize,
    hits: usize,
    evictions: usize,
    /// Bumped on (re-)registration so an open racing a replacement never
    /// installs a session built from the old spec.
    generation: u64,
    /// Serializes cold opens of this dataset (and only this dataset) so
    /// concurrent first requests produce one open, without holding the
    /// registry lock across the slow CSV-read/align/`Session::open` work.
    open_latch: Arc<Mutex<()>>,
}

struct Registry {
    /// Name → entry, BTree-ordered so every iteration (listings, stats,
    /// budget math) is deterministic by name with no per-site sorting.
    datasets: BTreeMap<String, DatasetEntry>,
    /// Logical clock advanced on every `open_or_get`; drives LRU order.
    clock: u64,
    /// Source of per-registration generations.
    next_generation: u64,
}

/// A thread-safe registry of named datasets → lazily-opened
/// [`Session`]s with LRU eviction under a [`ManagerConfig`] budget.
///
/// This is the canonical multi-tenant entry point; [`crate::Charles`] and
/// a bare [`Session`] remain as thin facades for one-shot and
/// single-caller use. See the [module docs](self) for a tour.
pub struct SessionManager {
    config: ManagerConfig,
    session_config: CharlesConfig,
    inner: Mutex<Registry>,
}

impl SessionManager {
    /// A manager with the given budgets and default session configuration.
    pub fn new(config: ManagerConfig) -> Self {
        SessionManager {
            config,
            session_config: CharlesConfig::default(),
            inner: Mutex::new(Registry {
                datasets: BTreeMap::new(),
                clock: 0,
                next_generation: 0,
            }),
        }
    }

    /// Use `config` for sessions opened from now on (per-dataset overrides
    /// are possible via [`SessionManager::register_with_config`]).
    pub fn with_session_config(mut self, config: CharlesConfig) -> Self {
        self.session_config = config;
        self
    }

    /// The manager's budgets.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// Register (or replace) a dataset under `name`. Replacing drops any
    /// open session of the previous registration. Returns `true` when the
    /// name was new.
    pub fn register(&self, name: impl Into<String>, spec: DatasetSpec) -> bool {
        self.register_with_config(name, spec, self.session_config.clone())
    }

    /// [`SessionManager::register`] with a per-dataset engine config.
    pub fn register_with_config(
        &self,
        name: impl Into<String>,
        spec: DatasetSpec,
        config: CharlesConfig,
    ) -> bool {
        self.install(name.into(), spec, config, None).is_none()
    }

    /// Insert (or replace) a registration, optionally with a pre-opened
    /// session, returning the displaced entry.
    fn install(
        &self,
        name: String,
        spec: DatasetSpec,
        config: CharlesConfig,
        session: Option<Arc<Session>>,
    ) -> Option<()> {
        let approx_bytes = session.as_ref().map_or(0, |s| s.approx_plane_bytes());
        let mut inner = self.lock_registry();
        inner.next_generation += 1;
        let generation = inner.next_generation;
        let (opens, last_used_tick) = if session.is_some() {
            inner.clock += 1;
            (1, inner.clock)
        } else {
            (0, 0)
        };
        let displaced = inner
            .datasets
            .insert(
                name.clone(),
                DatasetEntry {
                    spec,
                    config,
                    session,
                    approx_bytes,
                    last_used_tick,
                    opens,
                    hits: 0,
                    evictions: 0,
                    generation,
                    open_latch: Arc::new(Mutex::new(())),
                },
            )
            .map(|_| ());
        self.enforce_budget(&mut inner, &name);
        displaced
    }

    /// Register an already-aligned pair (kept resident in the spec).
    pub fn register_pair(&self, name: impl Into<String>, pair: SnapshotPair) -> bool {
        self.register(name, DatasetSpec::Pair(pair))
    }

    /// Register two CSV files to be read and aligned on open.
    pub fn register_csv(
        &self,
        name: impl Into<String>,
        source: impl Into<PathBuf>,
        target: impl Into<PathBuf>,
        key: Option<String>,
    ) -> bool {
        self.register(
            name,
            DatasetSpec::CsvPair {
                source: source.into(),
                target: target.into(),
                key,
            },
        )
    }

    /// Register CSV text (the serving layer's `LoadCsv` ingest). The pair
    /// is parsed and aligned exactly once — malformed documents fail here
    /// without registering — and the resulting session is installed
    /// already-open as the dataset's resident session.
    pub fn register_csv_inline(
        &self,
        name: impl Into<String>,
        source: impl Into<String>,
        target: impl Into<String>,
        key: Option<String>,
    ) -> Result<()> {
        let spec = DatasetSpec::CsvInline {
            source: source.into(),
            target: target.into(),
            key,
        };
        let config = self.session_config.clone();
        let session = Arc::new(spec.open_session(config.clone())?);
        self.install(name.into(), spec, config, Some(session));
        Ok(())
    }

    /// Remove a dataset entirely (spec and any open session). Returns
    /// `true` when it was registered.
    pub fn unregister(&self, name: &str) -> bool {
        self.lock_registry().datasets.remove(name).is_some()
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.lock_registry().datasets.contains_key(name)
    }

    /// The session for `name`, opening it if not resident, then enforcing
    /// the budgets by evicting least-recently-used *other* sessions.
    ///
    /// The slow cold-open work (CSV read, alignment, `Session::open`) runs
    /// *outside* the registry lock — one opener per dataset via the
    /// entry's latch — so a multi-second open of one tenant's dataset
    /// never stalls requests for resident tenants.
    ///
    /// The returned `Arc` stays valid even if the session is evicted while
    /// the caller still runs queries on it; eviction only drops the
    /// registry's reference.
    pub fn open_or_get(&self, name: &str) -> Result<Arc<Session>> {
        if let Some(session) = self.touch_resident(name)? {
            return Ok(session);
        }
        // Cold path: snapshot what the open needs, then release the
        // registry. The latch keeps concurrent first requests to one open.
        let (latch, spec, config, generation) = {
            let mut inner = self.lock_registry();
            let entry = inner
                .datasets
                .get_mut(name)
                .ok_or_else(|| CharlesError::UnknownDataset(name.to_string()))?;
            (
                Arc::clone(&entry.open_latch),
                entry.spec.clone(),
                entry.config.clone(),
                entry.generation,
            )
        };
        // Lock order (documented, lint-checked): a dataset's open latch
        // may be held while taking the registry lock (latch → registry);
        // the registry lock is NEVER held while taking a latch — the
        // snapshot block above releases it first. The latch guards unit
        // content, so poison recovery is trivially safe.
        let _opener = latch
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // A racing opener may have installed the session while we waited.
        if let Some(session) = self.touch_resident(name)? {
            return Ok(session);
        }
        let session = Arc::new(spec.open_session(config)?);
        let approx_bytes = session.approx_plane_bytes();

        // lint:allow(lock-discipline: latch → registry is the documented lock order; the registry lock is the leaf)
        let mut inner = self.lock_registry();
        inner.clock += 1;
        let tick = inner.clock;
        // Only install into the registration we opened for; if the
        // dataset was replaced or removed meanwhile, still serve what we
        // opened but don't cache it.
        let installed = match inner.datasets.get_mut(name) {
            Some(entry) if entry.generation == generation => {
                entry.opens += 1;
                entry.last_used_tick = tick;
                entry.approx_bytes = approx_bytes;
                entry.session = Some(Arc::clone(&session));
                true
            }
            _ => false,
        };
        if installed {
            self.enforce_budget(&mut inner, name);
        }
        Ok(session)
    }

    /// Mark a resident session used and return it, or `None` when not
    /// resident. When a byte budget is configured, the plane-size
    /// estimate is also refreshed — outside the registry lock, since it
    /// takes the session's own locks; with no byte budget (the default)
    /// the hot hit path is a single short registry critical section and
    /// the reported `approx_bytes` is the one captured at open.
    fn touch_resident(&self, name: &str) -> Result<Option<Arc<Session>>> {
        let session = {
            let mut inner = self.lock_registry();
            inner.clock += 1;
            let tick = inner.clock;
            let entry = inner
                .datasets
                .get_mut(name)
                .ok_or_else(|| CharlesError::UnknownDataset(name.to_string()))?;
            let Some(session) = &entry.session else {
                return Ok(None);
            };
            entry.hits += 1;
            entry.last_used_tick = tick;
            Arc::clone(session)
        };
        if self.config.max_resident_bytes == 0 {
            return Ok(Some(session));
        }
        // The lazily-extracted plane grows across queries; refresh the
        // byte estimate and re-check the budget with fresh numbers.
        let approx_bytes = session.approx_plane_bytes();
        let mut inner = self.lock_registry();
        let still_resident = match inner.datasets.get_mut(name) {
            Some(entry)
                if entry
                    .session
                    .as_ref()
                    .is_some_and(|s| Arc::ptr_eq(s, &session)) =>
            {
                entry.approx_bytes = approx_bytes;
                true
            }
            _ => false,
        };
        if still_resident {
            self.enforce_budget(&mut inner, name);
        }
        Ok(Some(session))
    }

    /// The open session for `name`, if resident — without bumping LRU
    /// order or hit counters. Observability endpoints use this so reading
    /// stats never perturbs eviction order.
    pub fn peek_session(&self, name: &str) -> Option<Arc<Session>> {
        self.lock_registry()
            .datasets
            .get(name)
            .and_then(|e| e.session.clone())
    }

    /// Drop `name`'s open session (keeping the registration). Returns
    /// `true` when a session was actually resident.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.lock_registry();
        match inner.datasets.get_mut(name) {
            Some(entry) if entry.session.is_some() => {
                entry.session = None;
                entry.approx_bytes = 0;
                entry.evictions += 1;
                true
            }
            _ => false,
        }
    }

    /// Per-dataset stats, sorted by name (stable for tests and the
    /// wire); the registry's BTree order *is* name order.
    pub fn list(&self) -> Vec<DatasetStats> {
        let inner = self.lock_registry();
        inner
            .datasets
            .iter()
            .map(|(name, e)| DatasetStats {
                name: name.clone(),
                resident: e.session.is_some(),
                opens: e.opens,
                hits: e.hits,
                evictions: e.evictions,
                approx_bytes: e.approx_bytes,
                last_used_tick: e.last_used_tick,
            })
            .collect()
    }

    /// Stats for one dataset.
    pub fn dataset_stats(&self, name: &str) -> Result<DatasetStats> {
        self.list()
            .into_iter()
            .find(|d| d.name == name)
            .ok_or_else(|| CharlesError::UnknownDataset(name.to_string()))
    }

    /// Number of resident sessions.
    pub fn resident_sessions(&self) -> usize {
        self.lock_registry()
            .datasets
            .values()
            .filter(|e| e.session.is_some())
            .count()
    }

    /// Total approximate resident bytes across open sessions.
    pub fn resident_bytes(&self) -> usize {
        self.lock_registry()
            .datasets
            .values()
            .map(|e| e.approx_bytes)
            .sum()
    }

    /// Evict least-recently-used sessions (never `just_used`) until both
    /// budgets hold.
    fn enforce_budget(&self, inner: &mut Registry, just_used: &str) {
        loop {
            let resident: usize = inner
                .datasets
                .values()
                .filter(|e| e.session.is_some())
                .count();
            let bytes: usize = inner.datasets.values().map(|e| e.approx_bytes).sum();
            let over_sessions = self.config.max_sessions > 0 && resident > self.config.max_sessions;
            let over_bytes =
                self.config.max_resident_bytes > 0 && bytes > self.config.max_resident_bytes;
            if !over_sessions && !over_bytes {
                return;
            }
            let victim = inner
                .datasets
                .iter()
                .filter(|(name, e)| e.session.is_some() && name.as_str() != just_used)
                .min_by_key(|(_, e)| e.last_used_tick)
                .map(|(name, _)| name.clone());
            let Some(victim) = victim else {
                return; // only the just-used session is resident
            };
            if let Some(entry) = inner.datasets.get_mut(&victim) {
                entry.session = None;
                entry.approx_bytes = 0;
                entry.evictions += 1;
            }
        }
    }
}

impl SessionManager {
    /// Lock the registry, recovering from poison: the registry is plain
    /// bookkeeping (specs, counters, `Arc`s) that stays structurally
    /// valid if an opener thread panicked, and refusing every future
    /// request over a historical panic is strictly worse than serving.
    fn lock_registry(&self) -> std::sync::MutexGuard<'_, Registry> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionManager")
            .field("config", &self.config)
            .field("resident_sessions", &self.resident_sessions())
            .field("resident_bytes", &self.resident_bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Query;
    use charles_relation::{
        apply_updates, write_csv_path, ApplyMode, Expr, Predicate, Table, TableBuilder,
        UpdateStatement,
    };

    fn tiny_pair(scale: f64) -> SnapshotPair {
        let source = TableBuilder::new("v1")
            .str_col("name", &["Anne", "Bob", "Cathy", "Dan", "Eve", "Finn"])
            .str_col("edu", &["PhD", "PhD", "BS", "BS", "PhD", "BS"])
            .float_col(
                "bonus",
                &[23_000.0, 25_000.0, 11_000.0, 9_000.0, 20_000.0, 8_000.0],
            )
            .key("name")
            .build()
            .unwrap();
        let policy = [UpdateStatement::new(
            "bonus",
            Expr::affine("bonus", scale, 1000.0),
            Predicate::eq("edu", "PhD"),
        )];
        let target = apply_updates(&source, &policy, ApplyMode::FirstMatch)
            .unwrap()
            .table;
        SnapshotPair::align(source, target).unwrap()
    }

    fn rankings(session: &Session) -> Vec<String> {
        session
            .run(&Query::new("bonus"))
            .unwrap()
            .summaries
            .iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn open_or_get_caches_and_counts() {
        let manager = SessionManager::new(ManagerConfig::default());
        manager.register_pair("a", tiny_pair(1.05));
        assert!(manager.contains("a"));
        let first = manager.open_or_get("a").unwrap();
        let second = manager.open_or_get("a").unwrap();
        assert!(Arc::ptr_eq(&first, &second), "resident hit must share");
        let stats = manager.dataset_stats("a").unwrap();
        assert_eq!((stats.opens, stats.hits), (1, 1));
        assert!(stats.resident);
        assert!(manager.resident_bytes() > 0);
    }

    #[test]
    fn unknown_dataset_is_typed_error() {
        let manager = SessionManager::new(ManagerConfig::default());
        assert!(matches!(
            manager.open_or_get("nope").unwrap_err(),
            CharlesError::UnknownDataset(_)
        ));
        assert!(matches!(
            manager.dataset_stats("nope").unwrap_err(),
            CharlesError::UnknownDataset(_)
        ));
    }

    #[test]
    fn lru_eviction_respects_session_budget_and_reopen_is_correct() {
        let manager = SessionManager::new(ManagerConfig::default().with_max_sessions(2));
        manager.register_pair("a", tiny_pair(1.05));
        manager.register_pair("b", tiny_pair(1.10));
        manager.register_pair("c", tiny_pair(1.20));

        let baseline_a = rankings(&manager.open_or_get("a").unwrap());
        let _ = manager.open_or_get("b").unwrap();
        assert_eq!(manager.resident_sessions(), 2);

        // Opening "c" must push out the LRU ("a") and stay under budget.
        let _ = manager.open_or_get("c").unwrap();
        assert_eq!(manager.resident_sessions(), 2);
        let a = manager.dataset_stats("a").unwrap();
        assert!(!a.resident, "LRU dataset should be evicted");
        assert_eq!(a.evictions, 1);
        assert!(manager.dataset_stats("b").unwrap().resident);
        assert!(manager.dataset_stats("c").unwrap().resident);

        // Re-opening the evicted dataset rebuilds it and answers
        // identically.
        let reopened = rankings(&manager.open_or_get("a").unwrap());
        assert_eq!(reopened, baseline_a, "re-open must be byte-identical");
        assert_eq!(manager.resident_sessions(), 2);
        assert_eq!(manager.dataset_stats("a").unwrap().opens, 2);
    }

    #[test]
    fn byte_budget_evicts_but_serves_oversized_single_dataset() {
        // A budget smaller than any one session: the just-used session is
        // never evicted for itself, so each open serves, and at most one
        // session stays resident.
        let manager = SessionManager::new(ManagerConfig::default().with_max_resident_bytes(1));
        manager.register_pair("a", tiny_pair(1.05));
        manager.register_pair("b", tiny_pair(1.10));
        let a = manager.open_or_get("a").unwrap();
        assert!(!rankings(&a).is_empty());
        assert_eq!(manager.resident_sessions(), 1);
        let _ = manager.open_or_get("b").unwrap();
        assert_eq!(manager.resident_sessions(), 1, "byte budget must evict");
        assert!(manager.dataset_stats("b").unwrap().resident);
        assert!(!manager.dataset_stats("a").unwrap().resident);
    }

    #[test]
    fn csv_pair_spec_roundtrips_through_disk() {
        let dir = std::env::temp_dir().join(format!("charles_mgr_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let pair = tiny_pair(1.05);
        let src = dir.join("v1.csv");
        let dst = dir.join("v2.csv");
        write_csv_path(pair.source(), &src).unwrap();
        write_csv_path(pair.target(), &dst).unwrap();

        let manager = SessionManager::new(ManagerConfig::default());
        manager.register_csv("disk", &src, &dst, Some("name".into()));
        let session = manager.open_or_get("disk").unwrap();
        let served = rankings(&session);
        let direct = rankings(&Session::open(pair).unwrap());
        assert_eq!(served, direct, "CSV round-trip must not change answers");

        // Evict, re-open from disk, same answer.
        assert!(manager.evict("disk"));
        assert!(!manager.dataset_stats("disk").unwrap().resident);
        let reopened = rankings(&manager.open_or_get("disk").unwrap());
        assert_eq!(reopened, served);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_inline_validates_eagerly() {
        let manager = SessionManager::new(ManagerConfig::default());
        let err = manager.register_csv_inline("bad", "a,b\n1", "a,b\n1,2\n", None);
        assert!(err.is_err(), "ragged CSV must not register");
        assert!(!manager.contains("bad"));

        let pair = tiny_pair(1.05);
        let mut src = Vec::new();
        let mut dst = Vec::new();
        charles_relation::write_csv(pair.source(), &mut src).unwrap();
        charles_relation::write_csv(pair.target(), &mut dst).unwrap();
        manager
            .register_csv_inline(
                "inline",
                String::from_utf8(src).unwrap(),
                String::from_utf8(dst).unwrap(),
                Some("name".into()),
            )
            .unwrap();
        assert!(manager.dataset_stats("inline").unwrap().resident);
        let served = rankings(&manager.open_or_get("inline").unwrap());
        assert_eq!(served, rankings(&Session::open(pair).unwrap()));
    }

    #[test]
    fn provider_spec_and_replacement() {
        let manager = SessionManager::new(ManagerConfig::default());
        manager.register(
            "synth",
            DatasetSpec::Provider(Arc::new(|| Ok(tiny_pair(1.05)))),
        );
        assert!(!rankings(&manager.open_or_get("synth").unwrap()).is_empty());
        // Re-registering under the same name replaces the dataset.
        assert!(!manager.register_pair("synth", tiny_pair(1.10)));
        let stats = manager.dataset_stats("synth").unwrap();
        assert!(!stats.resident, "replacement drops the old session");
        assert!(manager.unregister("synth"));
        assert!(!manager.contains("synth"));
    }

    #[test]
    fn concurrent_open_or_get_is_consistent() {
        let manager = Arc::new(SessionManager::new(
            ManagerConfig::default().with_max_sessions(2),
        ));
        for (i, scale) in [1.05, 1.10, 1.20].iter().enumerate() {
            manager.register_pair(format!("d{i}"), tiny_pair(*scale));
        }
        let handles: Vec<_> = (0..6)
            .map(|i| {
                let manager = Arc::clone(&manager);
                std::thread::spawn(move || {
                    let name = format!("d{}", i % 3);
                    let session = manager.open_or_get(&name).unwrap();
                    rankings(&session)
                })
            })
            .collect();
        let results: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same dataset ⇒ same rankings, regardless of interleaving.
        for i in 0..3 {
            assert_eq!(results[i], results[i + 3]);
        }
        assert!(manager.resident_sessions() <= 2);
    }

    #[test]
    fn table_byte_accounting_feeds_budget() {
        let pair = tiny_pair(1.05);
        let t: &Table = pair.source();
        assert!(t.approx_bytes() > 0);
        let session = Session::open(pair.clone()).unwrap();
        assert!(session.approx_plane_bytes() >= t.approx_bytes());
    }
}
