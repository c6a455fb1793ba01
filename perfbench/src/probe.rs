//! The layer probe of the traced run.
//!
//! It times calls into each module's public functions on the run's first
//! county pair, from the benchmark's own files:
//!
//! - the relation layer (`read_csv`, `align_on`) and the JSON parser on
//!   the pair's CSV text and upload body;
//! - one cold `Session::run` of the e5 query (the opaque reference time);
//! - a replay of that query through the layer entry points in the order
//!   `evaluate_candidate` calls them, computing each distinct global fit
//!   and labeling once as the session's memo planes do: `fit_ols_cols`,
//!   `cluster_residuals` on residual/Δ/relative Δ, `Column::group_codes`,
//!   `induce_partitions`, `fit_ols` per induced partition, and
//!   `ScoringContext::score`. The replay skips what the engine does
//!   between those calls (trimmed refits, constant snapping, CT merging,
//!   ranking); `trace.coverage` shows how much of the opaque time the
//!   timed layers account for;
//! - warm in-process `Session::run` and `sweep_alpha`, and every served
//!   route over HTTP against the same warm session.
//!
//! The probe is the same on every workload; only the seed changes its
//! input.

use crate::data::{
    self, engine_config, sub_seed, wire_fingerprint, wire_fingerprint_json, CsvPair, KEY,
    SWEEP_ALPHAS, TARGET,
};
use crate::report::{Metric, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Params;
use charles_core::partition::{cluster_residuals, induce_partitions};
use charles_core::{
    generate_candidates, ConditionalTransformation, ManagerConfig, ScoringContext, SessionManager,
    Term, Transformation,
};
use charles_numerics::ols::{fit_ols, fit_ols_cols, LinearFit};
use charles_relation::{read_csv, AttrId, AttrRef, NumericView, SnapshotPair};
use charles_server::{HttpClient, Json, Server, ServerConfig};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of each cheap probe; the metric is their median.
const REPS: usize = 15;

/// Median milliseconds of `reps` calls of `f`.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Run the probe, recording its spans in `tracer` and its failures in
/// `out`; returns the per-layer metrics it measures.
pub fn run(params: &Params, tracer: &mut Tracer, out: &mut Outcome) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let csv = CsvPair::generate(params.rows, sub_seed(params.seed, 0));

    // Relation layer and JSON parser.
    let csv_bytes = csv.source_csv.len() + csv.target_csv.len();
    let read_ms = median_ms(REPS, || {
        (
            read_csv(csv.source_csv.as_bytes()),
            read_csv(csv.target_csv.as_bytes()),
        )
    });
    let source = read_csv(csv.source_csv.as_bytes()).expect("generated CSV parses");
    let target = read_csv(csv.target_csv.as_bytes()).expect("generated CSV parses");
    let align_ms = median_ms(REPS, || {
        SnapshotPair::align_on(source.clone(), target.clone(), KEY)
    });
    let body = csv.upload_body();
    let json_parse_ms = median_ms(REPS, || Json::parse(&body));
    let pair = csv.ingest().expect("generated CSV parses and aligns");
    let open_ms = median_ms(REPS, || {
        charles_core::Session::open_with_config(pair.clone(), engine_config())
    });
    metrics.extend([
        Metric::new("relation.read_csv_ms", read_ms, "ms", REPS),
        Metric::new(
            "relation.read_csv_mb_s",
            csv_bytes as f64 / 1e6 / (read_ms / 1e3),
            "MB/s",
            REPS,
        ),
        Metric::new("relation.align_ms", align_ms, "ms", REPS),
        Metric::new("session.open_ms", open_ms, "ms", REPS),
        Metric::new("server.json_parse_ms", json_parse_ms, "ms", REPS),
    ]);

    // One cold run on a manager-owned session, which then serves warm.
    let manager = Arc::new(
        SessionManager::new(ManagerConfig::default()).with_session_config(engine_config()),
    );
    manager.register_pair("probe", pair.clone());
    let session = manager.open_or_get("probe").expect("registered pair opens");
    let query = data::e5_query();
    let started = Instant::now();
    let cold = tracer.time("search.run", 0, || session.run(&query));
    let cold_run_ms = started.elapsed().as_secs_f64() * 1e3;
    let cold = match cold {
        Ok(r) => r,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("probe cold run: {e}"));
            return metrics;
        }
    };
    let stats = session.stats();

    let replay = replay(&pair, tracer);
    let totals = tracer.totals();
    let self_ms = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ms());
    let calls = |name: &str| totals.get(name).map_or(0, |t| t.count);
    let layer_ms: f64 = LAYER_SPANS.iter().map(|n| self_ms(n)).sum();
    let (cart_ms, kmeans_ms, pfit_ms, score_ms) = (
        self_ms("partition.cart"),
        self_ms("cluster.kmeans"),
        self_ms("numerics.partition_fit"),
        self_ms("score.score"),
    );
    let share = |ms: f64| ms / cold_run_ms;
    // The replay copies the engine's memo rules; if the engine drifts from
    // them, the shares below would time a different computation.
    out.attempted += 1;
    if replay.global_fits != stats.global_fits_computed
        || replay.labelings != stats.labelings_computed
    {
        out.fail(format!(
            "replay computed {} global fits and {} labelings, the engine {} and {}",
            replay.global_fits,
            replay.labelings,
            stats.global_fits_computed,
            stats.labelings_computed
        ));
    }
    metrics.extend([
        Metric::new("search.cold_run_ms", cold_run_ms, "ms", 1),
        Metric::new("partition.cart_ms", cart_ms, "ms", calls("partition.cart")),
        Metric::new(
            "partition.cart_calls",
            calls("partition.cart") as f64,
            "count",
            1,
        ),
        Metric::new(
            "partition.cart_distinct_frac",
            replay.cart_distinct as f64 / calls("partition.cart").max(1) as f64,
            "frac",
            calls("partition.cart"),
        ),
        Metric::new("partition.cart_share", share(cart_ms), "frac", 1),
        Metric::new(
            "cluster.kmeans_ms",
            kmeans_ms,
            "ms",
            calls("cluster.kmeans"),
        ),
        Metric::new("cluster.labelings", replay.labelings as f64, "count", 1),
        Metric::new("cluster.kmeans_share", share(kmeans_ms), "frac", 1),
        Metric::new(
            "numerics.partition_fit_ms",
            pfit_ms,
            "ms",
            calls("numerics.partition_fit"),
        ),
        Metric::new("numerics.partition_fit_share", share(pfit_ms), "frac", 1),
        Metric::new(
            "numerics.global_fit_ms",
            self_ms("numerics.global_fit"),
            "ms",
            calls("numerics.global_fit"),
        ),
        Metric::new(
            "numerics.global_fits",
            replay.global_fits as f64,
            "count",
            1,
        ),
        Metric::new("score.score_ms", score_ms, "ms", calls("score.score")),
        Metric::new("score.score_share", share(score_ms), "frac", 1),
        Metric::new("trace.coverage", layer_ms / cold_run_ms, "frac", 1),
    ]);

    // Warm in-process paths on the now-warm session.
    let warm_run_ms = median_ms(REPS, || session.run(&query));
    let rescore_ms = median_ms(REPS, || session.sweep_alpha(&cold, &SWEEP_ALPHAS));
    metrics.extend([
        Metric::new("search.warm_run_ms", warm_run_ms, "ms", REPS),
        Metric::new("score.rescore_ms", rescore_ms, "ms", REPS),
    ]);

    // Every served route against the warm session.
    match served_routes(&manager, &csv, &cold) {
        Ok(p50) => {
            out.attempted += p50.requests;
            let query_p50 = p50.ms["query"];
            for (name, route) in [
                ("server.query_p50_ms", "query"),
                ("server.sweep_p50_ms", "sweep"),
                ("server.stats_p50_ms", "stats"),
                ("server.targets_p50_ms", "targets"),
                ("server.upload_p50_ms", "upload"),
            ] {
                metrics.push(Metric::new(name, p50.ms[route], "ms", p50.reps[route]));
            }
            metrics.push(Metric::new(
                "server.wire_ms",
                query_p50 - warm_run_ms,
                "ms",
                REPS,
            ));
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("probe served routes: {e}"));
        }
    }
    out.extra.extend(phase_table(cold_run_ms, &totals));
    metrics
}

/// The spans that time a layer's own work (the replay's per-candidate and
/// root spans only group them).
const LAYER_SPANS: [&str; 7] = [
    "assistant.setup",
    "numerics.global_fit",
    "cluster.kmeans",
    "relation.group_codes",
    "partition.cart",
    "numerics.partition_fit",
    "score.score",
];

/// The ROADMAP's phase table from the replay: each layer's self time as a
/// share of the cold run.
fn phase_table(
    cold_run_ms: f64,
    totals: &BTreeMap<&'static str, crate::trace::Totals>,
) -> Vec<Metric> {
    LAYER_SPANS
        .iter()
        .filter_map(|name| {
            let t = totals.get(name)?;
            Some(Metric::new(
                name,
                t.self_ms() / cold_run_ms,
                "share",
                t.count,
            ))
        })
        .collect()
}

/// What the replay computed.
struct Replay {
    global_fits: usize,
    labelings: usize,
    cart_distinct: usize,
}

/// Replay the cold e5 query through the layer entry points.
fn replay(pair: &SnapshotPair, tracer: &mut Tracer) -> Replay {
    let root = tracer.enter("search.replay", 0);
    let config = engine_config();
    let source = pair.source();
    let schema = source.schema();
    let refs = |names: &[&str]| -> Vec<AttrRef> {
        names
            .iter()
            .map(|n| schema.attr_ref(n).expect("county attribute"))
            .collect()
    };
    let cond = refs(&data::COND_ATTRS);
    let tran = refs(&data::TRAN_ATTRS);

    // The assistant's setup report, which a cold run computes first.
    let fresh = charles_core::Session::open_with_config(pair.clone(), config.clone())
        .expect("session opens");
    tracer.time("assistant.setup", 0, || {
        fresh.setup(TARGET).expect("setup report")
    });

    let y_target = pair.target_numeric_view(TARGET).expect("numeric target");
    let y_source = source.numeric_view(TARGET).expect("numeric target");
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
    let mut views: HashMap<AttrId, NumericView> = HashMap::new();
    for a in &tran {
        let id = a.id().expect("resolved attribute");
        views.insert(id, source.numeric_view_by_id(id).expect("numeric column"));
    }
    let scoring = ScoringContext::from_views(
        source,
        TARGET,
        y_target.clone(),
        y_source.clone(),
        views.clone(),
        &config,
    );
    let n = y_target.len();

    let mut fits: HashMap<Vec<AttrId>, Option<LinearFit>> = HashMap::new();
    let mut labelings: HashMap<String, Arc<Vec<usize>>> = HashMap::new();
    let mut cart_inputs: HashSet<(Vec<AttrId>, Arc<Vec<usize>>)> = HashSet::new();
    for (c, candidate) in generate_candidates(&cond, &tran, &config)
        .iter()
        .enumerate()
    {
        let op = c as u64 + 1;
        let span = tracer.enter("search.candidate", op);
        let tkey: Vec<AttrId> = candidate
            .tran_attrs
            .iter()
            .filter_map(AttrRef::id)
            .collect();
        let cols: Vec<&[f64]> = tkey.iter().map(|id| views[id].as_slice()).collect();
        let fit = fits
            .entry(tkey.clone())
            .or_insert_with(|| {
                tracer.time("numerics.global_fit", op, || {
                    fit_ols_cols(&cols, &y_target).ok()
                })
            })
            .clone();
        let Some(fit) = fit else {
            tracer.exit(span);
            continue;
        };
        let k = candidate.k;
        let mut candidates_labels: Vec<Arc<Vec<usize>>> = Vec::new();
        for (key, signal) in [
            (format!("residual {tkey:?} {k}"), fit.residuals.as_slice()),
            (format!("delta {k}"), delta.as_slice()),
            (format!("rel_delta {k}"), rel_delta.as_slice()),
        ] {
            let labels = labelings.entry(key).or_insert_with(|| {
                Arc::new(tracer.time("cluster.kmeans", op, || {
                    cluster_residuals(signal, k, &config).expect("clustering")
                }))
            });
            candidates_labels.push(Arc::clone(labels));
        }
        if let [attr] = candidate.cond_attrs.as_slice() {
            let key = format!("categorical {}", attr.name());
            let labels = labelings.entry(key).or_insert_with(|| {
                Arc::new(tracer.time("relation.group_codes", op, || {
                    categorical_labels(source, attr).unwrap_or_default()
                }))
            });
            if !labels.is_empty() {
                candidates_labels.push(Arc::clone(labels));
            }
        }
        let mut seen: Vec<Arc<Vec<usize>>> = Vec::new();
        for labels in candidates_labels {
            if seen.iter().any(|s| **s == *labels) {
                continue;
            }
            seen.push(Arc::clone(&labels));
            let cond_ids: Vec<AttrId> = candidate
                .cond_attrs
                .iter()
                .filter_map(AttrRef::id)
                .collect();
            cart_inputs.insert((cond_ids, Arc::clone(&labels)));
            let specs = tracer.time("partition.cart", op, || {
                induce_partitions(source, &candidate.cond_attrs, &labels, &config)
                    .expect("condition induction")
            });
            let mut cts = Vec::with_capacity(specs.len());
            for spec in specs.into_iter().filter(|s| !s.rows.is_empty()) {
                let y: Vec<f64> = spec.rows.iter().map(|&r| y_target[r]).collect();
                let part: Vec<Vec<f64>> = cols
                    .iter()
                    .map(|col| spec.rows.iter().map(|&r| col[r]).collect())
                    .collect();
                let Ok(fit) = tracer.time("numerics.partition_fit", op, || fit_ols(&part, &y))
                else {
                    continue;
                };
                let terms = candidate
                    .tran_attrs
                    .iter()
                    .zip(&fit.coefficients)
                    .map(|(attr, &coefficient)| Term {
                        attr: attr.clone(),
                        coefficient,
                    })
                    .collect();
                let mae = fit.residuals.iter().map(|r| r.abs()).sum::<f64>() / y.len() as f64;
                cts.push(ConditionalTransformation::new(
                    spec.condition,
                    Transformation::linear(TARGET, terms, fit.intercept),
                    spec.rows,
                    n,
                    mae,
                ));
            }
            if !cts.is_empty() {
                let _ = tracer.time("score.score", op, || scoring.score(&cts));
            }
        }
        tracer.exit(span);
    }
    tracer.exit(root);
    Replay {
        global_fits: fits.len(),
        labelings: labelings.len(),
        cart_distinct: cart_inputs.len(),
    }
}

/// GROUP-BY-value labels of a categorical attribute, under the engine's
/// rule: text, null-free, 2 to 24 distinct values.
fn categorical_labels(table: &charles_relation::Table, attr: &AttrRef) -> Option<Vec<usize>> {
    let col = table.column_by_name(attr.name()).ok()?;
    if col.dtype().is_numeric() || col.null_count() > 0 {
        return None;
    }
    let groups = col.group_codes()?;
    (2..=24)
        .contains(&groups.n_groups())
        .then_some(groups.labels)
}

/// Per-route medians of the served probe.
struct RouteP50 {
    ms: BTreeMap<&'static str, f64>,
    reps: BTreeMap<&'static str, usize>,
    requests: usize,
}

/// Time every route against the manager's warm `probe` dataset, checking
/// each answer.
fn served_routes(
    manager: &Arc<SessionManager>,
    csv: &CsvPair,
    cold: &charles_core::QueryResult,
) -> Result<RouteP50, String> {
    let mut server = Server::start(
        Arc::clone(manager),
        ServerConfig::default().with_workers(crate::workloads::SERVER_WORKERS),
    )
    .map_err(|e| format!("server: {e}"))?;
    let result = (|| {
        let mut client =
            HttpClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        let query_ref = wire_fingerprint(&cold.summaries);
        let query_body = data::query_body();
        let sweep_body = data::sweep_body();
        let upload_body = csv.upload_body();
        let routes: [(&'static str, &str, &str, Option<&str>, usize); 5] = [
            (
                "query",
                "POST",
                "/v1/datasets/probe/query",
                Some(&query_body),
                3 * REPS,
            ),
            (
                "sweep",
                "POST",
                "/v1/datasets/probe/sweep",
                Some(&sweep_body),
                3 * REPS,
            ),
            ("stats", "GET", "/v1/datasets/probe/stats", None, 3 * REPS),
            (
                "targets",
                "GET",
                "/v1/datasets/probe/targets",
                None,
                3 * REPS,
            ),
            (
                "upload",
                "POST",
                "/v1/datasets/probe-upload",
                Some(&upload_body),
                REPS,
            ),
        ];
        let mut out = RouteP50 {
            ms: BTreeMap::new(),
            reps: BTreeMap::new(),
            requests: 0,
        };
        for (route, method, path, body, reps) in routes {
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let started = Instant::now();
                let response = client
                    .request(method, path, body)
                    .map_err(|e| format!("{path}: {e}"))?;
                samples.push(started.elapsed().as_secs_f64() * 1e3);
                out.requests += 1;
                if !response.is_success() {
                    return Err(format!("{path}: status {}", response.status));
                }
                if route == "query" {
                    let doc = Json::parse(&response.body).map_err(|e| e.to_string())?;
                    if wire_fingerprint_json(&doc).as_ref() != Some(&query_ref) {
                        return Err("served ranking differs from the engine's".into());
                    }
                }
            }
            out.ms.insert(route, median(&samples));
            out.reps.insert(route, reps);
        }
        Ok(out)
    })();
    server.shutdown();
    result
}
