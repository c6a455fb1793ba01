//! Inputs and output checks shared by the workloads.
//!
//! Every input comes from the county generator under a seed derived from
//! the run's `--seed`; the engine sees only CSV text (or the pair parsed
//! from it), never the generator's policy.

use charles_core::{evaluate_recovery, ChangeSummary, CharlesConfig, Query, TruthRule};
use charles_relation::{read_csv, write_csv, SnapshotPair};
use charles_server::{Json, WireQuery};
use charles_synth::county;

/// The attribute whose change the e5 query explains.
pub const TARGET: &str = "base_salary";
/// The e5 query's condition attributes.
pub const COND_ATTRS: [&str; 3] = ["department", "grade", "division"];
/// The e5 query's transformation attributes.
pub const TRAN_ATTRS: [&str; 2] = ["base_salary", "overtime_pay"];
/// Candidates the e5 query enumerates under the default configuration.
pub const E5_CANDIDATES: usize = 87;
/// The fixed α list of the interactive sweep.
pub const SWEEP_ALPHAS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
/// The key both snapshots are aligned on.
pub const KEY: &str = "name";
/// Lowest acceptable ARI of the top summary against the planted policy.
/// Recovery at 4k rows is ≥ 0.98 on every seed tried; the floor leaves
/// room for a deliberate re-baseline (e.g. exact k-means) without letting
/// a broken search pass.
pub const MIN_RECOVERY_ARI: f64 = 0.9;

/// Seed of the `j`-th input of a run: distinct for distinct `(seed, j)`
/// while `j < 64`.
pub fn sub_seed(seed: u64, j: usize) -> u64 {
    seed.wrapping_mul(64).wrapping_add(j as u64)
}

/// The engine configuration every workload pins: one search thread, so
/// timings do not depend on the thread schedule.
pub fn engine_config() -> CharlesConfig {
    CharlesConfig::default().with_threads(1)
}

/// The e5 query.
pub fn e5_query() -> Query {
    Query::new(TARGET)
        .with_condition_attrs(COND_ATTRS)
        .with_transform_attrs(TRAN_ATTRS)
}

/// The e5 query as a `/query` body.
pub fn query_body() -> String {
    query_json().encode()
}

/// The e5 query swept over [`SWEEP_ALPHAS`], as a `/sweep` body.
pub fn sweep_body() -> String {
    Json::Obj(vec![
        ("query".into(), query_json()),
        (
            "alphas".into(),
            Json::Arr(SWEEP_ALPHAS.iter().map(|&a| Json::Num(a)).collect()),
        ),
    ])
    .encode()
}

fn query_json() -> Json {
    let mut query = WireQuery::new(TARGET);
    query.condition_attrs = Some(COND_ATTRS.map(String::from).to_vec());
    query.transform_attrs = Some(TRAN_ATTRS.map(String::from).to_vec());
    query.to_json()
}

/// One county snapshot pair as CSV text, plus the planted policy.
pub struct CsvPair {
    /// CSV of the earlier snapshot.
    pub source_csv: String,
    /// CSV of the later snapshot.
    pub target_csv: String,
    /// The policy that evolved source into target.
    pub truth: Vec<TruthRule>,
}

impl CsvPair {
    /// Generate `rows` county employees under `seed` and encode both
    /// snapshots as CSV.
    pub fn generate(rows: usize, seed: u64) -> CsvPair {
        let scenario = county(rows, seed);
        let encode = |t: &charles_relation::Table| {
            let mut buf = Vec::new();
            write_csv(t, &mut buf).expect("CSV encoding into memory cannot fail");
            String::from_utf8(buf).expect("CSV output is UTF-8")
        };
        CsvPair {
            source_csv: encode(&scenario.source),
            target_csv: encode(&scenario.target),
            truth: scenario
                .policy
                .rule_pairs()
                .into_iter()
                .map(|(condition, expr)| TruthRule { condition, expr })
                .collect(),
        }
    }

    /// Parse both snapshots and align them on the key, as ingest does.
    pub fn ingest(&self) -> charles_relation::Result<SnapshotPair> {
        SnapshotPair::align_on(
            read_csv(self.source_csv.as_bytes())?,
            read_csv(self.target_csv.as_bytes())?,
            KEY,
        )
    }

    /// The `POST /v1/datasets/{name}` body that uploads this pair.
    pub fn upload_body(&self) -> String {
        Json::obj([
            ("source_csv", Json::str(self.source_csv.as_str())),
            ("target_csv", Json::str(self.target_csv.as_str())),
            ("key", Json::str(KEY)),
        ])
        .encode()
    }
}

/// ARI of `top` against the planted policy on `pair`.
pub fn recovery_ari(top: &ChangeSummary, pair: &SnapshotPair, truth: &[TruthRule]) -> f64 {
    evaluate_recovery(top, pair, TARGET, truth, &engine_config()).map_or(f64::NAN, |r| r.ari)
}

/// A ranking as the exactness contract sees it: structural signature and
/// score bits per rank. Rendering (`Display`) is deliberately not part of
/// it: descriptor order inside a rendered condition is not canonical.
pub fn fingerprint(summaries: &[ChangeSummary]) -> Vec<(String, u64)> {
    summaries
        .iter()
        .map(|s| (s.signature(), s.scores.score.to_bits()))
        .collect()
}

/// What the wire carries of one ranked summary and can be compared
/// exactly: score and accuracy bits (floats are encoded shortest
/// round-trip), the attribute subsets, and the number of CTs.
pub type WireRank = (u64, u64, Vec<String>, Vec<String>, usize);

/// [`WireRank`]s of an in-process ranking.
pub fn wire_fingerprint(summaries: &[ChangeSummary]) -> Vec<WireRank> {
    summaries
        .iter()
        .map(|s| {
            (
                s.scores.score.to_bits(),
                s.scores.accuracy.to_bits(),
                s.condition_attrs.clone(),
                s.transform_attrs.clone(),
                s.cts.len(),
            )
        })
        .collect()
}

/// [`WireRank`]s of one `WireQueryResult` JSON object, or `None` when it
/// is malformed.
pub fn wire_fingerprint_json(result: &Json) -> Option<Vec<WireRank>> {
    let strings = |v: &Json| -> Option<Vec<String>> {
        v.as_arr()?
            .iter()
            .map(|s| s.as_str().map(str::to_string))
            .collect()
    };
    result
        .get("summaries")?
        .as_arr()?
        .iter()
        .map(|s| {
            Some((
                s.get("score")?.as_f64()?.to_bits(),
                s.get("accuracy")?.as_f64()?.to_bits(),
                strings(s.get("condition_attrs")?)?,
                strings(s.get("transform_attrs")?)?,
                s.get("cts")?.as_arr()?.len(),
            ))
        })
        .collect()
}
