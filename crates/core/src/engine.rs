//! The top-level ChARLES engine (paper Figure 3).
//!
//! [`Charles`] wires the two architectural components together: the *setup
//! assistant* (attribute shortlisting, parameter handling) and the *diff
//! discovery engine* (partition + transformation discovery, scoring,
//! ranking). Typical use:
//!
//! ```no_run
//! # use charles_core::Charles;
//! # let (v2016, v2017) = unimplemented!();
//! let result = Charles::new(v2016, v2017, "bonus").unwrap().run().unwrap();
//! println!("{}", result.top().unwrap());
//! ```
//!
//! `Charles` is the one-shot facade: one engine, one target, one run. It is
//! kept (unchanged in API) for compatibility and simple batch jobs, but it
//! is now a thin wrapper over a private single-query [`Session`] — new code
//! that asks more than one question of the same snapshot pair (several
//! targets, α-sweeps, shortlist tweaks) should hold a [`Session`] instead
//! and reuse its cached data plane across queries.

use crate::assistant::SetupReport;
use crate::config::CharlesConfig;
use crate::error::Result;
use crate::search::SearchStats;
use crate::session::{Query, Session};
use crate::summary::ChangeSummary;
use charles_relation::{SnapshotPair, Table};
use std::fmt;
use std::time::{Duration, Instant};

/// The one-shot engine facade: a private [`Session`], the target
/// attribute, and optional user overrides of the assistant's shortlists.
#[derive(Debug)]
pub struct Charles {
    session: Session,
    target_attr: String,
    condition_attrs_override: Option<Vec<String>>,
    transform_attrs_override: Option<Vec<String>>,
}

/// Everything a run produces: ranked summaries plus provenance.
#[derive(Debug)]
pub struct RunResult {
    /// Ranked summaries, best first (at most `config.max_summaries`).
    pub summaries: Vec<ChangeSummary>,
    /// The assistant's attribute analysis, present exactly when it
    /// supplied a shortlist the engine was not given.
    pub setup: Option<SetupReport>,
    /// Search bookkeeping.
    pub stats: SearchStats,
    /// Wall-clock duration of the search.
    pub elapsed: Duration,
}

impl RunResult {
    /// The best summary, if any.
    pub fn top(&self) -> Option<&ChangeSummary> {
        self.summaries.first()
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} summaries ({} candidates, {} evaluated, {} distinct) in {:.1?}",
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

impl Charles {
    /// Create an engine from two snapshots (aligned by their declared key
    /// column, or positionally when none is declared).
    pub fn new(source: Table, target: Table, target_attr: &str) -> Result<Self> {
        let pair = SnapshotPair::align(source, target)?;
        Charles::from_pair(pair, target_attr)
    }

    /// Create an engine from a pre-aligned pair.
    pub fn from_pair(pair: SnapshotPair, target_attr: &str) -> Result<Self> {
        let session = Session::open(pair)?;
        session.resolve_target(target_attr)?;
        Ok(Charles {
            session,
            target_attr: target_attr.to_string(),
            condition_attrs_override: None,
            transform_attrs_override: None,
        })
    }

    /// Replace the configuration.
    pub fn with_config(mut self, config: CharlesConfig) -> Self {
        self.session.set_config(config);
        self
    }

    /// Override the assistant's condition-attribute shortlist (demo step 4's
    /// interactive filtering).
    pub fn with_condition_attrs<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.condition_attrs_override = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// Override the assistant's transformation-attribute shortlist (demo
    /// step 5).
    pub fn with_transform_attrs<I, S>(mut self, attrs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.transform_attrs_override = Some(attrs.into_iter().map(Into::into).collect());
        self
    }

    /// The aligned snapshot pair.
    pub fn pair(&self) -> &SnapshotPair {
        self.session.pair()
    }

    /// The target attribute.
    pub fn target_attr(&self) -> &str {
        &self.target_attr
    }

    /// The active configuration.
    pub fn config(&self) -> &CharlesConfig {
        self.session.config()
    }

    /// Run only the setup assistant (demo steps 4–5).
    pub fn setup(&self) -> Result<SetupReport> {
        Ok((*self.session.setup(&self.target_attr)?).clone())
    }

    /// This engine's question as a session [`Query`].
    fn query(&self) -> Query {
        let mut query = Query::new(&self.target_attr);
        query.condition_attrs = self.condition_attrs_override.clone();
        query.transform_attrs = self.transform_attrs_override.clone();
        query
    }

    /// Re-score and re-rank an existing run's summaries under a different
    /// α — the demo's slider (step 6) without repeating the search. The
    /// candidate pool is the previous run's ranked list and the scoring
    /// plane is the session's cached one, so this touches no column data;
    /// for a *wider* pool at the new α, run the engine again with the new
    /// config.
    pub fn rescore(&self, result: &RunResult, alpha: f64) -> Result<RunResult> {
        let mut config = self.session.config().clone();
        config.alpha = alpha;
        let summaries =
            self.session
                .rescore_summaries(&self.target_attr, &result.summaries, &config)?;
        Ok(RunResult {
            summaries,
            setup: result.setup.clone(),
            stats: result.stats.clone(),
            elapsed: result.elapsed,
        })
    }

    /// Numeric non-key attributes whose values actually changed between
    /// the snapshots — the candidate *targets* a user would pick in demo
    /// step 2. This is [`Session::targets`] on a session over `pair`.
    pub fn changed_numeric_attributes(pair: &SnapshotPair) -> Result<Vec<String>> {
        Session::open(pair.clone())?.targets()
    }

    /// Full run: assistant, enumeration, parallel evaluation, ranking
    /// (demo steps 6–8). Delegates to the private session; repeated runs
    /// of the same engine therefore reuse every cached fit and labeling.
    pub fn run(&self) -> Result<RunResult> {
        let started = Instant::now();
        let result = self.session.run(&self.query())?;
        Ok(RunResult {
            summaries: result.summaries,
            setup: result.setup.as_deref().cloned(),
            stats: result.stats,
            elapsed: started.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CharlesError;
    use charles_relation::{
        apply_updates, ApplyMode, CmpOp, Expr, Predicate, TableBuilder, UpdateStatement,
    };

    /// Exactly the paper's Figure 1 source snapshot.
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

    #[test]
    fn end_to_end_example_1() {
        // Demo steps 4–5: the user accepts "education", "exp year", and
        // "gender" as condition attributes and "bonus"/"salary" as
        // transformation attributes.
        let engine = Charles::from_pair(fig1_pair(), "bonus")
            .unwrap()
            .with_condition_attrs(["edu", "exp", "gen"])
            .with_transform_attrs(["bonus", "salary"]);
        let result = engine.run().unwrap();
        let top = result.top().expect("summaries produced");
        assert!(
            top.scores.accuracy > 0.999,
            "top accuracy {}",
            top.scores.accuracy
        );
        // The recovered summary should use the paper's constants for R1 and
        // R2. R3's partition ("MS with < 3 years") contains only Allen in
        // the Figure-1 data, so its coefficients (1.03, 400) are not
        // identifiable from one point — any exact explanation of his new
        // bonus is acceptable there.
        let rendered = top.to_string();
        assert!(rendered.contains("1.05 × old_bonus + 1000"), "{rendered}");
        assert!(rendered.contains("1.04 × old_bonus + 800"), "{rendered}");
        assert!(rendered.contains("no change"), "{rendered}");
        assert!(result.stats.candidates > 0);
        assert!(result.summaries.len() <= 10);
    }

    #[test]
    fn end_to_end_with_assistant_defaults() {
        // Without overrides the assistant picks its own condition
        // vocabulary; whatever it chooses, the top summary must explain
        // the change essentially perfectly.
        let engine = Charles::from_pair(fig1_pair(), "bonus").unwrap();
        let result = engine.run().unwrap();
        let top = result.top().unwrap();
        assert!(
            top.scores.accuracy > 0.99,
            "top accuracy {}",
            top.scores.accuracy
        );
        // Condition candidates never include the target attribute itself.
        assert!(!top.condition_attrs.iter().any(|a| a == "bonus"));
    }

    #[test]
    fn setup_shortlists_fig1_attributes() {
        let engine = Charles::from_pair(fig1_pair(), "bonus").unwrap();
        let setup = engine.setup().unwrap();
        let cond = setup.condition_attrs();
        assert!(cond.contains(&"edu".to_string()), "{cond:?}");
        let tran = setup.transform_attrs();
        assert_eq!(tran[0], "bonus");
        assert!(tran.contains(&"salary".to_string()));
    }

    #[test]
    fn override_attrs_respected() {
        let engine = Charles::from_pair(fig1_pair(), "bonus")
            .unwrap()
            .with_condition_attrs(["edu", "exp"])
            .with_transform_attrs(["bonus"]);
        let result = engine.run().unwrap();
        let top = result.top().unwrap();
        assert_eq!(top.transform_attrs, vec!["bonus".to_string()]);
        assert!(top.scores.accuracy > 0.999);
    }

    #[test]
    fn non_numeric_target_rejected() {
        let err = Charles::from_pair(fig1_pair(), "edu").unwrap_err();
        assert!(matches!(
            err,
            CharlesError::Query(crate::error::QueryError::NonNumericTarget { .. })
        ));
    }

    #[test]
    fn unknown_override_attr_rejected() {
        let engine = Charles::from_pair(fig1_pair(), "bonus")
            .unwrap()
            .with_condition_attrs(["nonexistent"]);
        assert!(engine.run().is_err());
    }

    #[test]
    fn invalid_config_rejected_at_run() {
        let engine = Charles::from_pair(fig1_pair(), "bonus")
            .unwrap()
            .with_config(CharlesConfig::default().with_alpha(2.0));
        assert!(matches!(
            engine.run().unwrap_err(),
            CharlesError::BadConfig(_)
        ));
        assert!(engine.setup().is_err());
    }

    #[test]
    fn rescore_reorders_without_research() {
        let engine = Charles::from_pair(fig1_pair(), "bonus")
            .unwrap()
            .with_condition_attrs(["edu", "exp", "gen"])
            .with_transform_attrs(["bonus", "salary"]);
        let base = engine.run().unwrap();
        let at_zero = engine.rescore(&base, 0.0).unwrap();
        assert_eq!(at_zero.summaries.len(), base.summaries.len());
        // At α = 0 only interpretability matters: scores equal interp.
        for s in &at_zero.summaries {
            assert!((s.scores.score - s.scores.interpretability).abs() < 1e-12);
        }
        // Still sorted.
        for w in at_zero.summaries.windows(2) {
            assert!(w[0].scores.score >= w[1].scores.score);
        }
        // Invalid alpha rejected.
        assert!(engine.rescore(&base, 2.0).is_err());
    }

    #[test]
    fn changed_numeric_attributes_detects_targets() {
        let pair = fig1_pair();
        let changed = Charles::changed_numeric_attributes(&pair).unwrap();
        assert_eq!(changed, vec!["bonus".to_string()]);
    }

    #[test]
    fn run_result_display() {
        let engine = Charles::from_pair(fig1_pair(), "bonus").unwrap();
        let result = engine.run().unwrap();
        let text = result.to_string();
        assert!(text.contains("#1"), "{text}");
        assert!(text.contains("candidates"), "{text}");
    }
}
