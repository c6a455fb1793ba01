//! The versioned wire protocol: typed requests, serializable views of
//! query results, and error envelopes.
//!
//! Every request body is a JSON object carrying the protocol version
//! (`"v": 1`) and an operation tag (`"op"`); the HTTP front end also
//! derives the same [`Request`] values from its REST-style routes, so both
//! entry points share one dispatch path. Responses are plain JSON
//! documents ([`WireQueryResult`], [`WireDatasetStats`], …); failures are
//! [`ErrorEnvelope`]s with a stable machine-readable `code`.
//!
//! Encode→decode is identity for every type here (pinned by the proptest
//! suite in `tests/proto_roundtrip.rs`), including floats, unicode
//! attribute names, and strings needing escapes.

use crate::json::{Json, JsonError};
use charles_core::{CharlesError, DatasetStats, Query, QueryError, QueryResult, SessionStats};

/// The wire protocol version this build speaks.
pub const PROTOCOL_VERSION: usize = 1;

/// A decode failure: the document was valid JSON but not a valid protocol
/// message (or not valid JSON at all).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was malformed.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        ProtoError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<JsonError> for ProtoError {
    fn from(e: JsonError) -> Self {
        ProtoError::new(e.to_string())
    }
}

type Decode<T> = Result<T, ProtoError>;

fn need<'a>(obj: &'a Json, key: &str) -> Decode<&'a Json> {
    obj.get(key)
        .ok_or_else(|| ProtoError::new(format!("missing field {key:?}")))
}

fn need_str(obj: &Json, key: &str) -> Decode<String> {
    need(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a string")))
}

fn need_f64(obj: &Json, key: &str) -> Decode<f64> {
    need(obj, key)?
        .as_f64()
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a number")))
}

fn need_usize(obj: &Json, key: &str) -> Decode<usize> {
    need(obj, key)?
        .as_usize()
        .ok_or_else(|| ProtoError::new(format!("field {key:?} must be a non-negative integer")))
}

fn opt_str_arr(obj: &Json, key: &str) -> Decode<Option<Vec<String>>> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_arr()
            .map(|items| {
                items
                    .iter()
                    .map(|s| {
                        s.as_str().map(str::to_string).ok_or_else(|| {
                            ProtoError::new(format!("field {key:?} must hold strings"))
                        })
                    })
                    .collect::<Decode<Vec<String>>>()
            })
            .transpose()?
            .map(Some)
            .ok_or_else(|| ProtoError::new(format!("field {key:?} must be an array"))),
    }
}

fn str_arr(obj: &Json, key: &str) -> Decode<Vec<String>> {
    opt_str_arr(obj, key)?.ok_or_else(|| ProtoError::new(format!("missing array field {key:?}")))
}

fn opt_to_json<T>(value: &Option<T>, f: impl Fn(&T) -> Json) -> Json {
    value.as_ref().map_or(Json::Null, f)
}

/// Encode one float (scores, α, timings) as a plain JSON number. Rust's
/// `{}` float formatting is shortest-round-trip, so a finite value parses
/// back to the identical f64 while staying readable in `curl` output and
/// dashboards. Every float the protocol carries goes through here.
fn human_f64(v: f64) -> Json {
    // lint:allow(wire-float-exactness: shortest-round-trip decimal, read-back exact, human-facing fields only)
    Json::Num(v)
}

/// The wire form of a [`Query`]: what to explain and optional overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQuery {
    /// The changed attribute to explain.
    pub target: String,
    /// Accuracy-weight override (`None` = session default).
    pub alpha: Option<f64>,
    /// Condition-attribute shortlist override.
    pub condition_attrs: Option<Vec<String>>,
    /// Transformation-attribute shortlist override.
    pub transform_attrs: Option<Vec<String>>,
    /// Ranked-summary budget override.
    pub top_k: Option<usize>,
}

impl WireQuery {
    /// A wire query for `target` with every override unset.
    pub fn new(target: impl Into<String>) -> Self {
        WireQuery {
            target: target.into(),
            alpha: None,
            condition_attrs: None,
            transform_attrs: None,
            top_k: None,
        }
    }

    /// Convert into the engine's [`Query`].
    pub fn to_query(&self) -> Query {
        let mut query = Query::new(&self.target);
        query.alpha = self.alpha;
        query.condition_attrs = self.condition_attrs.clone();
        query.transform_attrs = self.transform_attrs.clone();
        query.top_k = self.top_k;
        query
    }

    /// The wire form of an engine [`Query`] (config overrides, which are
    /// not wire-expressible, are dropped).
    pub fn from_query(query: &Query) -> Self {
        WireQuery {
            target: query.target.clone(),
            alpha: query.alpha,
            condition_attrs: query.condition_attrs.clone(),
            transform_attrs: query.transform_attrs.clone(),
            top_k: query.top_k,
        }
    }

    /// Encode as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("target", Json::str(&self.target)),
            ("alpha", opt_to_json(&self.alpha, |a| human_f64(*a))),
            (
                "condition_attrs",
                opt_to_json(&self.condition_attrs, |a| Json::str_arr(a)),
            ),
            (
                "transform_attrs",
                opt_to_json(&self.transform_attrs, |a| Json::str_arr(a)),
            ),
            ("top_k", opt_to_json(&self.top_k, |k| Json::num_usize(*k))),
        ])
    }

    /// Decode from a JSON value.
    pub fn from_json(value: &Json) -> Decode<Self> {
        Ok(WireQuery {
            target: need_str(value, "target")?,
            alpha: match value.get("alpha") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_f64()
                        .ok_or_else(|| ProtoError::new("field \"alpha\" must be a number"))?,
                ),
            },
            condition_attrs: opt_str_arr(value, "condition_attrs")?,
            transform_attrs: opt_str_arr(value, "transform_attrs")?,
            top_k: match value.get("top_k") {
                None | Some(Json::Null) => None,
                Some(v) => Some(v.as_usize().ok_or_else(|| {
                    ProtoError::new("field \"top_k\" must be a non-negative integer")
                })?),
            },
        })
    }
}

/// One ranked change summary, rendered for the wire: scores plus each
/// conditional transformation as its canonical display string.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedSummary {
    /// 1-based rank in the result.
    pub rank: usize,
    /// Combined score `α·accuracy + (1−α)·interpretability`.
    pub score: f64,
    /// Accuracy sub-score.
    pub accuracy: f64,
    /// Interpretability sub-score.
    pub interpretability: f64,
    /// Conditional transformations, rendered (`condition → transformation`
    /// plus coverage), in partition order.
    pub cts: Vec<String>,
    /// Condition attributes the summary's search used.
    pub condition_attrs: Vec<String>,
    /// Transformation attributes the summary's search used.
    pub transform_attrs: Vec<String>,
    /// Fraction of rows covered by non-identity CTs.
    pub changed_coverage: f64,
}

impl RankedSummary {
    /// Encode as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rank", Json::num_usize(self.rank)),
            ("score", human_f64(self.score)),
            ("accuracy", human_f64(self.accuracy)),
            ("interpretability", human_f64(self.interpretability)),
            ("cts", Json::str_arr(&self.cts)),
            ("condition_attrs", Json::str_arr(&self.condition_attrs)),
            ("transform_attrs", Json::str_arr(&self.transform_attrs)),
            ("changed_coverage", human_f64(self.changed_coverage)),
        ])
    }

    /// Decode from a JSON value.
    pub fn from_json(value: &Json) -> Decode<Self> {
        Ok(RankedSummary {
            rank: need_usize(value, "rank")?,
            score: need_f64(value, "score")?,
            accuracy: need_f64(value, "accuracy")?,
            interpretability: need_f64(value, "interpretability")?,
            cts: str_arr(value, "cts")?,
            condition_attrs: str_arr(value, "condition_attrs")?,
            transform_attrs: str_arr(value, "transform_attrs")?,
            changed_coverage: need_f64(value, "changed_coverage")?,
        })
    }
}

/// The wire form of a [`QueryResult`]: the resolved α, search bookkeeping,
/// and the ranked summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct WireQueryResult {
    /// Target attribute the result explains.
    pub target: String,
    /// The α the summaries are scored under.
    pub alpha: f64,
    /// Wall-clock milliseconds the server spent answering.
    pub elapsed_ms: f64,
    /// Candidates enumerated.
    pub candidates: usize,
    /// Candidates that produced a summary.
    pub evaluated: usize,
    /// Distinct summaries after deduplication.
    pub distinct: usize,
    /// Ranked summaries, best first.
    pub summaries: Vec<RankedSummary>,
}

impl WireQueryResult {
    /// Render an engine result for the wire.
    pub fn from_result(result: &QueryResult) -> Self {
        WireQueryResult {
            target: result.query.target.clone(),
            alpha: result.alpha,
            elapsed_ms: result.elapsed.as_secs_f64() * 1e3,
            candidates: result.stats.candidates,
            evaluated: result.stats.evaluated,
            distinct: result.stats.distinct,
            summaries: result
                .summaries
                .iter()
                .enumerate()
                .map(|(i, s)| RankedSummary {
                    rank: i + 1,
                    score: s.scores.score,
                    accuracy: s.scores.accuracy,
                    interpretability: s.scores.interpretability,
                    cts: s.cts.iter().map(|ct| ct.to_string()).collect(),
                    condition_attrs: s.condition_attrs.clone(),
                    transform_attrs: s.transform_attrs.clone(),
                    changed_coverage: s.changed_coverage(),
                })
                .collect(),
        }
    }

    /// Encode as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("target", Json::str(&self.target)),
            ("alpha", human_f64(self.alpha)),
            ("elapsed_ms", human_f64(self.elapsed_ms)),
            ("candidates", Json::num_usize(self.candidates)),
            ("evaluated", Json::num_usize(self.evaluated)),
            ("distinct", Json::num_usize(self.distinct)),
            (
                "summaries",
                Json::Arr(self.summaries.iter().map(RankedSummary::to_json).collect()),
            ),
        ])
    }

    /// Decode from a JSON value.
    pub fn from_json(value: &Json) -> Decode<Self> {
        let summaries = need(value, "summaries")?
            .as_arr()
            .ok_or_else(|| ProtoError::new("field \"summaries\" must be an array"))?
            .iter()
            .map(RankedSummary::from_json)
            .collect::<Decode<Vec<_>>>()?;
        Ok(WireQueryResult {
            target: need_str(value, "target")?,
            alpha: need_f64(value, "alpha")?,
            elapsed_ms: need_f64(value, "elapsed_ms")?,
            candidates: need_usize(value, "candidates")?,
            evaluated: need_usize(value, "evaluated")?,
            distinct: need_usize(value, "distinct")?,
            summaries,
        })
    }
}

/// The wire form of one dataset's registry entry plus (when resident) its
/// session's work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDatasetStats {
    /// Registry bookkeeping ([`DatasetStats`]).
    pub dataset: DatasetStats,
    /// The resident session's monotone work counters, if open.
    pub session: Option<SessionStats>,
}

impl WireDatasetStats {
    /// Encode as a JSON value.
    pub fn to_json(&self) -> Json {
        let d = &self.dataset;
        Json::obj([
            ("name", Json::str(&d.name)),
            ("resident", Json::Bool(d.resident)),
            ("opens", Json::num_usize(d.opens)),
            ("hits", Json::num_usize(d.hits)),
            ("evictions", Json::num_usize(d.evictions)),
            ("approx_bytes", Json::num_usize(d.approx_bytes)),
            ("last_used_tick", Json::num_usize(d.last_used_tick as usize)),
            (
                "session",
                opt_to_json(&self.session, |s| {
                    Json::obj([
                        ("columns_extracted", Json::num_usize(s.columns_extracted)),
                        (
                            "target_planes_built",
                            Json::num_usize(s.target_planes_built),
                        ),
                        (
                            "setup_reports_computed",
                            Json::num_usize(s.setup_reports_computed),
                        ),
                        (
                            "global_fits_computed",
                            Json::num_usize(s.global_fits_computed),
                        ),
                        ("labelings_computed", Json::num_usize(s.labelings_computed)),
                        (
                            "candidates_computed",
                            Json::num_usize(s.candidates_computed),
                        ),
                    ])
                }),
            ),
        ])
    }

    /// Decode from a JSON value.
    pub fn from_json(value: &Json) -> Decode<Self> {
        let session = match value.get("session") {
            None | Some(Json::Null) => None,
            Some(s) => Some(SessionStats {
                columns_extracted: need_usize(s, "columns_extracted")?,
                target_planes_built: need_usize(s, "target_planes_built")?,
                setup_reports_computed: need_usize(s, "setup_reports_computed")?,
                global_fits_computed: need_usize(s, "global_fits_computed")?,
                labelings_computed: need_usize(s, "labelings_computed")?,
                candidates_computed: need_usize(s, "candidates_computed")?,
            }),
        };
        Ok(WireDatasetStats {
            dataset: DatasetStats {
                name: need_str(value, "name")?,
                resident: need(value, "resident")?
                    .as_bool()
                    .ok_or_else(|| ProtoError::new("field \"resident\" must be a boolean"))?,
                opens: need_usize(value, "opens")?,
                hits: need_usize(value, "hits")?,
                evictions: need_usize(value, "evictions")?,
                approx_bytes: need_usize(value, "approx_bytes")?,
                last_used_tick: need_usize(value, "last_used_tick")? as u64,
            },
            session,
        })
    }
}

/// A versioned protocol request — the single dispatch currency shared by
/// the REST routes and the `/v1/rpc` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Answer one query against a named dataset.
    RunQuery {
        /// Registered dataset name.
        dataset: String,
        /// The question.
        query: WireQuery,
    },
    /// Answer several queries over the dataset's one shared plane.
    RunMulti {
        /// Registered dataset name.
        dataset: String,
        /// The questions, answered in order.
        queries: Vec<WireQuery>,
    },
    /// Run one query, then re-score it under each requested α.
    SweepAlpha {
        /// Registered dataset name.
        dataset: String,
        /// The base question.
        query: WireQuery,
        /// The α values to sweep, in order.
        alphas: Vec<f64>,
    },
    /// List the dataset's changed numeric attributes (candidate targets).
    ListTargets {
        /// Registered dataset name.
        dataset: String,
    },
    /// Registry + session statistics for one dataset (`Some`) or all
    /// (`None`).
    Stats {
        /// Dataset name, or `None` for everything.
        dataset: Option<String>,
    },
    /// Ingest two CSV documents as a named dataset.
    LoadCsv {
        /// Name to register under (replaces any previous registration).
        dataset: String,
        /// CSV text of the earlier snapshot.
        source_csv: String,
        /// CSV text of the later snapshot.
        target_csv: String,
        /// Key attribute to align on (`None` = declared key/positional).
        key: Option<String>,
    },
}

impl Request {
    /// The operation tag carried on the wire.
    pub fn op(&self) -> &'static str {
        match self {
            Request::RunQuery { .. } => "run_query",
            Request::RunMulti { .. } => "run_multi",
            Request::SweepAlpha { .. } => "sweep_alpha",
            Request::ListTargets { .. } => "list_targets",
            Request::Stats { .. } => "stats",
            Request::LoadCsv { .. } => "load_csv",
        }
    }

    /// Encode as a versioned JSON envelope.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("v".to_string(), Json::num_usize(PROTOCOL_VERSION)),
            ("op".to_string(), Json::str(self.op())),
        ];
        match self {
            Request::RunQuery { dataset, query } => {
                pairs.push(("dataset".into(), Json::str(dataset)));
                pairs.push(("query".into(), query.to_json()));
            }
            Request::RunMulti { dataset, queries } => {
                pairs.push(("dataset".into(), Json::str(dataset)));
                pairs.push((
                    "queries".into(),
                    Json::Arr(queries.iter().map(WireQuery::to_json).collect()),
                ));
            }
            Request::SweepAlpha {
                dataset,
                query,
                alphas,
            } => {
                pairs.push(("dataset".into(), Json::str(dataset)));
                pairs.push(("query".into(), query.to_json()));
                pairs.push((
                    "alphas".into(),
                    Json::Arr(alphas.iter().map(|&a| human_f64(a)).collect()),
                ));
            }
            Request::ListTargets { dataset } => {
                pairs.push(("dataset".into(), Json::str(dataset)));
            }
            Request::Stats { dataset } => {
                pairs.push((
                    "dataset".into(),
                    opt_to_json(dataset, |d| Json::str(d.clone())),
                ));
            }
            Request::LoadCsv {
                dataset,
                source_csv,
                target_csv,
                key,
            } => {
                pairs.push(("dataset".into(), Json::str(dataset)));
                pairs.push(("source_csv".into(), Json::str(source_csv)));
                pairs.push(("target_csv".into(), Json::str(target_csv)));
                pairs.push(("key".into(), opt_to_json(key, |k| Json::str(k.clone()))));
            }
        }
        Json::Obj(pairs)
    }

    /// Decode a versioned JSON envelope; rejects unknown versions and ops.
    pub fn from_json(value: &Json) -> Decode<Self> {
        let v = need_usize(value, "v")?;
        if v != PROTOCOL_VERSION {
            return Err(ProtoError::new(format!(
                "unsupported protocol version {v} (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        let op = need_str(value, "op")?;
        match op.as_str() {
            "run_query" => Ok(Request::RunQuery {
                dataset: need_str(value, "dataset")?,
                query: WireQuery::from_json(need(value, "query")?)?,
            }),
            "run_multi" => Ok(Request::RunMulti {
                dataset: need_str(value, "dataset")?,
                queries: need(value, "queries")?
                    .as_arr()
                    .ok_or_else(|| ProtoError::new("field \"queries\" must be an array"))?
                    .iter()
                    .map(WireQuery::from_json)
                    .collect::<Decode<Vec<_>>>()?,
            }),
            "sweep_alpha" => Ok(Request::SweepAlpha {
                dataset: need_str(value, "dataset")?,
                query: WireQuery::from_json(need(value, "query")?)?,
                alphas: need(value, "alphas")?
                    .as_arr()
                    .ok_or_else(|| ProtoError::new("field \"alphas\" must be an array"))?
                    .iter()
                    .map(|a| {
                        a.as_f64()
                            .ok_or_else(|| ProtoError::new("field \"alphas\" must hold numbers"))
                    })
                    .collect::<Decode<Vec<_>>>()?,
            }),
            "list_targets" => Ok(Request::ListTargets {
                dataset: need_str(value, "dataset")?,
            }),
            "stats" => {
                Ok(Request::Stats {
                    dataset: match value.get("dataset") {
                        None | Some(Json::Null) => None,
                        Some(d) => Some(d.as_str().map(str::to_string).ok_or_else(|| {
                            ProtoError::new("field \"dataset\" must be a string")
                        })?),
                    },
                })
            }
            "load_csv" => Ok(Request::LoadCsv {
                dataset: need_str(value, "dataset")?,
                source_csv: need_str(value, "source_csv")?,
                target_csv: need_str(value, "target_csv")?,
                key: match value.get("key") {
                    None | Some(Json::Null) => None,
                    Some(k) => Some(
                        k.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ProtoError::new("field \"key\" must be a string"))?,
                    ),
                },
            }),
            other => Err(ProtoError::new(format!("unknown op {other:?}"))),
        }
    }
}

/// A typed error response: a stable machine-readable `code` plus a human
/// message, wrapped as `{"error": {...}}` on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorEnvelope {
    /// Stable error code (e.g. `"unknown_dataset"`, `"bad_query"`).
    pub code: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorEnvelope {
    /// Build an envelope.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        ErrorEnvelope {
            code: code.into(),
            message: message.into(),
        }
    }

    /// Map an engine error to `(HTTP status, envelope)`.
    pub fn from_charles(e: &CharlesError) -> (u16, ErrorEnvelope) {
        let (status, code) = match e {
            CharlesError::UnknownDataset(_) => (404, "unknown_dataset"),
            CharlesError::Query(QueryError::UnknownTarget { .. }) => (404, "unknown_target"),
            CharlesError::Query(_) => (400, "bad_query"),
            CharlesError::BadConfig(_) => (400, "bad_config"),
            CharlesError::BadTargetAttribute(_) => (400, "bad_query"),
            CharlesError::NoCandidates(_) => (422, "no_candidates"),
            CharlesError::Relation(_) => (400, "bad_data"),
            CharlesError::Numerics(_) | CharlesError::Cluster(_) => (500, "internal"),
        };
        (status, ErrorEnvelope::new(code, e.to_string()))
    }

    /// Encode as the wire's `{"error": {...}}` document.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "error",
            Json::obj([
                ("code", Json::str(&self.code)),
                ("message", Json::str(&self.message)),
            ]),
        )])
    }

    /// Decode from the wire document.
    pub fn from_json(value: &Json) -> Decode<Self> {
        let inner = need(value, "error")?;
        Ok(ErrorEnvelope {
            code: need_str(inner, "code")?,
            message: need_str(inner, "message")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_envelopes_roundtrip() {
        let requests = [
            Request::RunQuery {
                dataset: "county".into(),
                query: WireQuery {
                    target: "base_salary".into(),
                    alpha: Some(0.7),
                    condition_attrs: Some(vec!["department".into(), "grade".into()]),
                    transform_attrs: None,
                    top_k: Some(5),
                },
            },
            Request::RunMulti {
                dataset: "county".into(),
                queries: vec![
                    WireQuery::new("base_salary"),
                    WireQuery::new("overtime_pay"),
                ],
            },
            Request::SweepAlpha {
                dataset: "μ-data \"quoted\"".into(),
                query: WireQuery::new("bonus"),
                alphas: vec![0.0, 0.25, 1.0],
            },
            Request::ListTargets {
                dataset: "county".into(),
            },
            Request::Stats { dataset: None },
            Request::Stats {
                dataset: Some("county".into()),
            },
            Request::LoadCsv {
                dataset: "payroll".into(),
                source_csv: "name,pay\nAnne,\"1,000\"\n".into(),
                target_csv: "name,pay\nAnne,1100\n".into(),
                key: Some("name".into()),
            },
        ];
        for request in requests {
            let encoded = request.to_json().encode();
            let decoded = Request::from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, request, "{encoded}");
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let doc = Json::parse(r#"{"v":2,"op":"stats"}"#).unwrap();
        let err = Request::from_json(&doc).unwrap_err();
        assert!(err.message.contains("unsupported protocol version"));
        let doc = Json::parse(r#"{"op":"stats"}"#).unwrap();
        assert!(Request::from_json(&doc).is_err(), "missing v must fail");
        let doc = Json::parse(r#"{"v":1,"op":"fly"}"#).unwrap();
        assert!(Request::from_json(&doc)
            .unwrap_err()
            .message
            .contains("unknown op"));
    }

    #[test]
    fn error_envelope_roundtrip_and_mapping() {
        let (status, envelope) =
            ErrorEnvelope::from_charles(&CharlesError::UnknownDataset("x".into()));
        assert_eq!(status, 404);
        assert_eq!(envelope.code, "unknown_dataset");
        let reparsed =
            ErrorEnvelope::from_json(&Json::parse(&envelope.to_json().encode()).unwrap()).unwrap();
        assert_eq!(reparsed, envelope);

        let (status, envelope) = ErrorEnvelope::from_charles(&CharlesError::Query(
            charles_core::QueryError::EmptyTransformShortlist,
        ));
        assert_eq!((status, envelope.code.as_str()), (400, "bad_query"));
        let (status, envelope) = ErrorEnvelope::from_charles(&CharlesError::Query(
            charles_core::QueryError::UnknownTarget { name: "x".into() },
        ));
        assert_eq!((status, envelope.code.as_str()), (404, "unknown_target"));
    }

    #[test]
    fn dataset_stats_roundtrip() {
        let stats = WireDatasetStats {
            dataset: DatasetStats {
                name: "county".into(),
                resident: true,
                opens: 3,
                hits: 17,
                evictions: 2,
                approx_bytes: 123_456,
                last_used_tick: 42,
            },
            session: Some(SessionStats {
                columns_extracted: 5,
                target_planes_built: 1,
                setup_reports_computed: 1,
                global_fits_computed: 9,
                labelings_computed: 12,
                candidates_computed: 40,
            }),
        };
        let encoded = stats.to_json().encode();
        let decoded = WireDatasetStats::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, stats);
    }

    #[test]
    fn wire_query_converts_to_engine_query() {
        let wire = WireQuery {
            target: "bonus".into(),
            alpha: Some(0.9),
            condition_attrs: Some(vec!["edu".into()]),
            transform_attrs: Some(vec!["bonus".into()]),
            top_k: Some(3),
        };
        let query = wire.to_query();
        assert_eq!(query.target, "bonus");
        assert_eq!(query.alpha, Some(0.9));
        assert_eq!(query.top_k, Some(3));
        assert_eq!(WireQuery::from_query(&query), wire);
    }
}
