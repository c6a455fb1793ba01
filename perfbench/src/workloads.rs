//! The three workloads and the closed loop that drives them.
//!
//! Each workload sets up several times (`setup_s` is the median), then
//! runs a closed loop from one client for the run's seconds, timing each
//! operation and checking its output outside the timed region. A failed
//! check counts the operation as failed; it never aborts the run.
//!
//! The traced run sets up once and runs the same loop with every other
//! operation traced (spans around the operation and each request), so the
//! traced and untraced operations interleave; then it runs the layer probe
//! of [`crate::probe`].

use crate::data::{
    self, engine_config, fingerprint, recovery_ari, sub_seed, wire_fingerprint,
    wire_fingerprint_json, CsvPair, WireRank, E5_CANDIDATES, MIN_RECOVERY_ARI, SWEEP_ALPHAS,
};
use crate::host::{self, peak_rss_mb};
use crate::report::{Metric, Outcome};
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{probe, Params};
use charles_core::{ManagerConfig, Session, SessionManager, TruthRule};
use charles_relation::SnapshotPair;
use charles_server::{HttpClient, HttpResponse, Json, Server, ServerConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Distinct county pairs `search_cold` cycles through. The cold query's
/// cost moves by ±9% between seeds at 4k rows, so a run that timed a
/// single pair would inherit that spread; the median over eight pairs
/// does not.
pub const SEARCH_PAIRS: usize = 8;
/// Datasets `serve_ingest` rotates through.
pub const INGEST_DATASETS: usize = 4;
/// The session cache of `serve_ingest`: below [`INGEST_DATASETS`], so the
/// working set does not fit.
pub const INGEST_MAX_SESSIONS: usize = 2;
/// Server worker threads.
pub const SERVER_WORKERS: usize = 2;

/// One timed operation: its latency and whether its output checked out.
pub struct OpResult {
    /// Milliseconds the timed part took.
    pub latency_ms: f64,
    /// `Err` with the reason when the operation or its check failed.
    pub check: Result<(), String>,
}

/// Work counters a workload's traced operations accumulate, read from the
/// program's own public counters and from the requests the client sent.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Operations that ran a search (a query, or the run behind a sweep).
    pub searches: usize,
    /// Candidate lookups those searches made.
    pub candidate_lookups: usize,
    /// Candidates actually evaluated (memo misses).
    pub candidates_computed: usize,
    /// Sessions the manager opened.
    pub manager_opens: usize,
    /// Requests the manager served from a resident session.
    pub manager_hits: usize,
    /// Sessions the manager evicted.
    pub manager_evictions: usize,
    /// HTTP requests sent.
    pub requests: usize,
    /// Request body bytes sent.
    pub request_bytes: usize,
    /// Response body bytes received.
    pub response_bytes: usize,
}

/// Run `f` inside a span named `name` of operation `op` when tracing.
fn traced<T>(
    tracer: Option<&mut Tracer>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, op as u64, f),
        None => f(),
    }
}

/// Run a workload and report it.
///
/// The end-to-end run repeats `setup` `params.setups` times and times every
/// operation untraced. The traced run sets up once and traces every
/// odd-numbered operation inside an `op` span, so traced and untraced
/// operations share the host's drift and `trace.overhead_frac` compares
/// their medians. `op` gets the state, the operation number, the tracer
/// when the operation is traced, and the counters of the traced
/// operations. `finish` runs on the state after the loop; it may fail the
/// run or add printed metrics, and returns the resident plane bytes.
fn drive<S>(
    params: &Params,
    min_ops: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&mut S, usize, Option<&mut Tracer>, &mut Counters) -> OpResult,
    finish: impl FnOnce(&mut S, &mut Outcome, &mut Counters) -> f64,
) -> Outcome {
    let mut out = Outcome::default();
    let setups = if params.trace {
        1
    } else {
        params.setups.max(1)
    };
    let mut setup_s = Vec::with_capacity(setups);
    let mut state = None;
    for _ in 0..setups {
        // Drop the previous state first so set-ups do not overlap.
        drop(state.take());
        let started = Instant::now();
        state = Some(setup());
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut st = match state.expect("at least one set-up ran") {
        Ok(st) => st,
        Err(why) => {
            out.attempted += 1;
            out.fail(format!("set-up: {why}"));
            return out;
        }
    };
    let mut tracer = params.trace.then(Tracer::new);
    let mut counters = Counters::default();
    let mut untraced_counters = Counters::default();
    // `peak_rss_mb` covers the loop, not the set-ups before it.
    host::reset_peak_rss();
    let (mut plain, mut traced_ms) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut i = 0;
    // At least two operations, so a traced run has one of each kind.
    while i < min_ops.max(2) || started.elapsed().as_secs_f64() < params.seconds {
        let result = match tracer.as_mut().filter(|_| i % 2 == 1) {
            Some(t) => {
                let span = t.enter("op", i as u64);
                let result = op(&mut st, i, Some(&mut *t), &mut counters);
                t.exit(span);
                traced_ms.push(result.latency_ms);
                result
            }
            None => {
                let result = op(&mut st, i, None, &mut untraced_counters);
                plain.push(result.latency_ms);
                result
            }
        };
        out.attempted += 1;
        if let Err(why) = result.check {
            out.fail(format!("op {i}: {why}"));
        }
        i += 1;
    }
    let resident_bytes = finish(&mut st, &mut out, &mut counters);
    drop(st);
    match tracer {
        Some(tracer) => {
            let overhead_frac = (median(&traced_ms) - median(&plain)) / median(&plain);
            finish_traced(
                &mut out,
                params,
                tracer,
                &counters,
                overhead_frac,
                traced_ms.len(),
            );
        }
        None => end_to_end(&mut out, &setup_s, &plain, resident_bytes),
    }
    out
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
///
/// Throughput is operations per second of timed work, not of loop wall
/// time: the loop's wall time also holds the output checks, and a closed
/// loop of a few multi-second operations would otherwise quantize it to
/// whole operations. The tail latency goes to the human-readable lines
/// only, since not every workload holds enough operations for one.
fn end_to_end(out: &mut Outcome, setup_s: &[f64], latencies_ms: &[f64], resident_bytes: f64) {
    let n = latencies_ms.len();
    let mean_ms = latencies_ms.iter().sum::<f64>() / n as f64;
    out.metrics.extend([
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new("op_p50_ms", median(latencies_ms), "ms", n),
        Metric::new("throughput_ops_s", 1e3 / mean_ms, "1/s", n),
        Metric::new("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB", n),
        Metric::new("resident_mb", resident_bytes / 1e6, "MB", n),
    ]);
    if let Some(p99) = tail_percentile(latencies_ms, 99) {
        out.extra.push(Metric::new("op_p99_ms", p99, "ms", n));
    } else if let Some(p90) = tail_percentile(latencies_ms, 90) {
        out.extra.push(Metric::new("op_p90_ms", p90, "ms", n));
    }
}

/// Finish a traced run: the traced operations' counters, the layer probe,
/// and the trace file.
fn finish_traced(
    out: &mut Outcome,
    params: &Params,
    mut tracer: Tracer,
    counters: &Counters,
    overhead_frac: f64,
    traced_ops: usize,
) {
    let probe_metrics = probe::run(params, &mut tracer, out);
    out.metrics.extend(probe_metrics);
    let frac = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let hits = counters
        .candidate_lookups
        .saturating_sub(counters.candidates_computed);
    let manager_requests = counters.manager_hits + counters.manager_opens;
    out.metrics.extend([
        Metric::new(
            "search.candidates_computed",
            frac(counters.candidates_computed, counters.searches),
            "count",
            counters.searches,
        ),
        Metric::new(
            "search.memo_hit_frac",
            frac(hits, counters.candidate_lookups),
            "frac",
            counters.candidate_lookups,
        ),
        Metric::new(
            "manager.opens",
            counters.manager_opens as f64,
            "count",
            manager_requests,
        ),
        Metric::new(
            "manager.hits",
            counters.manager_hits as f64,
            "count",
            manager_requests,
        ),
        Metric::new(
            "manager.evictions",
            counters.manager_evictions as f64,
            "count",
            manager_requests,
        ),
        Metric::new(
            "manager.hit_frac",
            frac(counters.manager_hits, manager_requests),
            "frac",
            manager_requests,
        ),
        Metric::new(
            "server.request_bytes",
            frac(counters.request_bytes, counters.requests),
            "B",
            counters.requests,
        ),
        Metric::new(
            "server.response_bytes",
            frac(counters.response_bytes, counters.requests),
            "B",
            counters.requests,
        ),
        Metric::new("trace.overhead_frac", overhead_frac, "frac", traced_ops),
    ]);
    let path = params.trace_dir.join(format!(
        "trace-{}-{}.json",
        params.workload.name(),
        params.seed
    ));
    if let Err(e) = tracer.write(&path) {
        out.fail(format!("writing {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// search_cold
// ---------------------------------------------------------------------------

struct ColdInput {
    pair: SnapshotPair,
    truth: Vec<TruthRule>,
    /// The ranking of this pair's first cold run in this process.
    reference: Option<Vec<(String, u64)>>,
}

struct Cold {
    inputs: Vec<ColdInput>,
    /// Run each pair twice in a row, so that in the traced run every
    /// traced operation has an untraced twin on the same pair.
    twin: bool,
    /// Recovery ARI of each pair's first run.
    aris: Vec<f64>,
    /// Plane bytes of each searched session.
    resident_bytes: Vec<f64>,
}

/// Generate, CSV-encode, parse and align the run's county pairs.
fn cold_setup(params: &Params) -> Cold {
    let inputs = (0..SEARCH_PAIRS)
        .map(|j| {
            let csv = CsvPair::generate(params.rows, sub_seed(params.seed, j));
            ColdInput {
                pair: csv.ingest().expect("generated CSV parses and aligns"),
                truth: csv.truth,
                reference: None,
            }
        })
        .collect();
    Cold {
        inputs,
        twin: params.trace,
        aris: Vec::new(),
        resident_bytes: Vec::new(),
    }
}

/// One cold e5 query on the next pair.
fn cold_op(
    st: &mut Cold,
    i: usize,
    mut tracer: Option<&mut Tracer>,
    counters: &mut Counters,
) -> OpResult {
    let n = st.inputs.len();
    let input = &mut st.inputs[if st.twin { i / 2 } else { i } % n];
    let query = data::e5_query();
    let started = Instant::now();
    let session = traced(tracer.as_deref_mut(), "session.open", i, || {
        Session::open_with_config(input.pair.clone(), engine_config())
    });
    let result = session
        .as_ref()
        .ok()
        .map(|s| traced(tracer, "search.run", i, || s.run(&query)));
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    let check = (|| -> Result<(), String> {
        let session = session.map_err(|e| format!("open: {e}"))?;
        let result = result.ok_or("no run")?.map_err(|e| format!("run: {e}"))?;
        if result.stats.candidates != E5_CANDIDATES {
            return Err(format!(
                "{} candidates, expected {E5_CANDIDATES}",
                result.stats.candidates
            ));
        }
        let top = result.top().ok_or("no summary")?;
        let cold = fingerprint(&result.summaries);
        let computed = session.stats().candidates_computed;
        counters.searches += 1;
        counters.candidate_lookups += result.stats.candidates;
        counters.candidates_computed += computed;
        // A warm rerun must hit every memo and rank identically.
        let warm = session.run(&query).map_err(|e| format!("warm run: {e}"))?;
        if session.stats().candidates_computed != computed {
            return Err("warm rerun evaluated candidates again".into());
        }
        if fingerprint(&warm.summaries) != cold {
            return Err("warm rerun ranked differently from the cold run".into());
        }
        // Recovery is judged on a pair's first run; a later run of the
        // pair must then rank with the same signatures and score bits,
        // which gives it the same ARI.
        match &input.reference {
            Some(reference) if *reference != cold => {
                return Err("ranking differs from this pair's earlier run".into())
            }
            Some(_) => {}
            None => {
                let ari = recovery_ari(top, &input.pair, &input.truth);
                st.aris.push(ari);
                if ari.is_nan() || ari < MIN_RECOVERY_ARI {
                    return Err(format!("recovery ARI {ari} below {MIN_RECOVERY_ARI}"));
                }
                input.reference = Some(cold);
            }
        }
        st.resident_bytes.push(session.approx_plane_bytes() as f64);
        Ok(())
    })();
    OpResult { latency_ms, check }
}

/// `search_cold`: open a session on an aligned 4k-row pair and run the e5
/// query, cold, in process.
pub fn search_cold(params: &Params) -> Outcome {
    drive(
        params,
        3,
        || Ok(cold_setup(params)),
        cold_op,
        |st, out, _| {
            if !st.aris.is_empty() {
                out.extra.push(Metric::new(
                    "recovery_ari",
                    median(&st.aris),
                    "ari",
                    st.aris.len(),
                ));
            }
            // The plane size depends on the pair, so the median over the
            // pairs searched, not the last one.
            if st.resident_bytes.is_empty() {
                f64::NAN
            } else {
                median(&st.resident_bytes)
            }
        },
    )
}

// ---------------------------------------------------------------------------
// The served workloads
// ---------------------------------------------------------------------------

/// A server over its own manager, with one keep-alive client.
struct Served {
    manager: Arc<SessionManager>,
    server: Server,
    /// Dropped before shutdown: an open keep-alive connection would hold
    /// a server worker until its idle timeout.
    client: Option<HttpClient>,
}

impl Served {
    fn start(max_sessions: usize) -> Served {
        let manager = Arc::new(
            SessionManager::new(ManagerConfig::default().with_max_sessions(max_sessions))
                .with_session_config(engine_config()),
        );
        let server = Server::start(
            Arc::clone(&manager),
            ServerConfig::default().with_workers(SERVER_WORKERS),
        )
        .expect("server binds a loopback port");
        let client = HttpClient::connect(server.local_addr()).expect("client connects");
        Served {
            manager,
            server,
            client: Some(client),
        }
    }

    /// One request; counts bytes and checks for a 2xx answer.
    fn request(
        &mut self,
        counters: &mut Counters,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, String> {
        let response = self
            .client
            .as_mut()
            .expect("the client lives until drop")
            .request(method, path, body)
            .map_err(|e| format!("{method} {path}: {e}"))?;
        counters.requests += 1;
        counters.request_bytes += body.map_or(0, str::len);
        counters.response_bytes += response.body.len();
        if !response.is_success() {
            return Err(format!(
                "{method} {path}: status {}: {}",
                response.status, response.body
            ));
        }
        Ok(response)
    }

    /// Per-dataset (opens, hits, evictions) as the manager reports them.
    fn manager_counts(&self) -> BTreeMap<String, [usize; 3]> {
        self.manager
            .list()
            .into_iter()
            .map(|d| (d.name, [d.opens, d.hits, d.evictions]))
            .collect()
    }

    /// Bytes of every resident session's plane.
    fn resident_bytes(&self) -> usize {
        self.manager
            .list()
            .iter()
            .filter_map(|d| self.manager.peek_session(&d.name))
            .map(|s| s.approx_plane_bytes())
            .sum()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.client.take();
        self.server.shutdown();
    }
}

/// Add the manager's counter changes between two snapshots to `c`. An
/// uploaded dataset's registration is replaced, which restarts its
/// counters, so for `replaced` the new counts are the change.
fn add_manager_delta(
    c: &mut Counters,
    before: &BTreeMap<String, [usize; 3]>,
    after: &BTreeMap<String, [usize; 3]>,
    replaced: Option<&str>,
) {
    for (name, now) in after {
        let was = match before.get(name) {
            Some(was) if Some(name.as_str()) != replaced => *was,
            _ => [0; 3],
        };
        c.manager_opens += now[0].saturating_sub(was[0]);
        c.manager_hits += now[1].saturating_sub(was[1]);
        c.manager_evictions += now[2].saturating_sub(was[2]);
    }
}

fn parse(response: &HttpResponse) -> Result<Json, String> {
    Json::parse(&response.body).map_err(|e| format!("response JSON: {e}"))
}

fn targets_of(doc: &Json) -> Option<Vec<String>> {
    doc.get("targets")?
        .as_arr()?
        .iter()
        .map(|t| t.as_str().map(str::to_string))
        .collect()
}

// ---------------------------------------------------------------------------
// serve_interactive
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Route {
    Query,
    Sweep,
    Stats,
    Targets,
}

/// The routes of one interactive cycle, one request each.
const ROUTES: [Route; 4] = [Route::Query, Route::Sweep, Route::Stats, Route::Targets];

/// [`ROUTES`] in a seeded order (Fisher–Yates over splitmix64).
fn seeded_order(seed: u64) -> [Route; 4] {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut order = ROUTES;
    for i in (1..order.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The dataset `serve_interactive` keeps resident.
const DATASET: &str = "county";

/// One request of the interactive cycle, built once.
struct Request {
    route: Route,
    method: &'static str,
    path: String,
    body: Option<String>,
    span: &'static str,
}

impl Request {
    fn new(route: Route) -> Request {
        let (method, path, body, span) = match route {
            Route::Query => ("POST", "query", Some(data::query_body()), "http.query"),
            Route::Sweep => ("POST", "sweep", Some(data::sweep_body()), "http.sweep"),
            Route::Stats => ("GET", "stats", None, "http.stats"),
            Route::Targets => ("GET", "targets", None, "http.targets"),
        };
        Request {
            route,
            method,
            path: format!("/v1/datasets/{DATASET}/{path}"),
            body,
            span,
        }
    }
}

struct Interactive {
    served: Served,
    /// One request of every route, in the run's seeded order.
    cycle: Vec<Request>,
    /// The engine's own answers, the served ones must equal.
    query_ref: Vec<WireRank>,
    sweep_ref: Vec<Vec<WireRank>>,
    targets_ref: Vec<String>,
    /// Candidates the resident session had evaluated after warm-up.
    computed_after_warmup: usize,
}

fn interactive_setup(params: &Params) -> Result<Interactive, String> {
    let csv = CsvPair::generate(params.rows, sub_seed(params.seed, 0));
    let mut served = Served::start(1);
    let mut scratch = Counters::default();
    served.request(
        &mut scratch,
        "POST",
        &format!("/v1/datasets/{DATASET}"),
        Some(&csv.upload_body()),
    )?;
    // Warm-up: one cycle, whose first query or sweep is the cold search.
    let cycle: Vec<Request> = seeded_order(params.seed)
        .into_iter()
        .map(Request::new)
        .collect();
    for r in &cycle {
        served.request(&mut scratch, r.method, &r.path, r.body.as_deref())?;
    }
    let session = served
        .manager
        .peek_session(DATASET)
        .ok_or("dataset not resident after warm-up")?;
    let base = session
        .run(&data::e5_query())
        .map_err(|e| format!("in-process run: {e}"))?;
    let sweep_ref = session
        .sweep_alpha(&base, &SWEEP_ALPHAS)
        .map_err(|e| format!("in-process sweep: {e}"))?
        .iter()
        .map(|r| wire_fingerprint(&r.summaries))
        .collect();
    let targets_ref = session.targets().map_err(|e| format!("targets: {e}"))?;
    Ok(Interactive {
        served,
        cycle,
        query_ref: wire_fingerprint(&base.summaries),
        sweep_ref,
        targets_ref,
        computed_after_warmup: session.stats().candidates_computed,
    })
}

/// One cycle: a request of every route, back to back.
fn interactive_op(
    st: &mut Interactive,
    i: usize,
    mut tracer: Option<&mut Tracer>,
    counters: &mut Counters,
) -> OpResult {
    let before = tracer.is_some().then(|| st.served.manager_counts());
    let mut responses = Vec::with_capacity(st.cycle.len());
    let started = Instant::now();
    for r in &st.cycle {
        responses.push(traced(tracer.as_deref_mut(), r.span, i, || {
            st.served
                .request(counters, r.method, &r.path, r.body.as_deref())
        }));
    }
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(before) = before {
        add_manager_delta(counters, &before, &st.served.manager_counts(), None);
    }
    let check = st
        .cycle
        .iter()
        .zip(responses)
        .try_for_each(|(r, response)| check_interactive(st, r.route, response, counters));
    OpResult { latency_ms, check }
}

/// Check one served answer against the engine's own.
fn check_interactive(
    st: &Interactive,
    route: Route,
    response: Result<HttpResponse, String>,
    counters: &mut Counters,
) -> Result<(), String> {
    let doc = parse(&response?)?;
    match route {
        Route::Query => {
            counters.searches += 1;
            counters.candidate_lookups += E5_CANDIDATES;
            if wire_fingerprint_json(&doc).as_ref() != Some(&st.query_ref) {
                return Err("served ranking differs from the engine's".into());
            }
        }
        Route::Sweep => {
            counters.searches += 1;
            counters.candidate_lookups += E5_CANDIDATES;
            let results = doc
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("no results")?;
            let swept: Option<Vec<_>> = results.iter().map(wire_fingerprint_json).collect();
            let alphas: Option<Vec<u64>> = results
                .iter()
                .map(|r| r.get("alpha").and_then(Json::as_f64).map(f64::to_bits))
                .collect();
            if swept.as_ref() != Some(&st.sweep_ref)
                || alphas != Some(SWEEP_ALPHAS.map(f64::to_bits).to_vec())
            {
                return Err("served sweep differs from the engine's".into());
            }
        }
        Route::Stats => {
            let name = doc.get("name").and_then(Json::as_str);
            let resident = doc.get("resident").and_then(Json::as_bool);
            if name != Some(DATASET) || resident != Some(true) {
                return Err(format!("unexpected stats {}", doc.encode()));
            }
        }
        Route::Targets => {
            if targets_of(&doc).as_ref() != Some(&st.targets_ref) {
                return Err(format!("unexpected targets {}", doc.encode()));
            }
        }
    }
    Ok(())
}

/// `serve_interactive`: cycles of a warm query, an α sweep, stats and
/// targets over one keep-alive connection to a resident 4k-row dataset.
pub fn serve_interactive(params: &Params) -> Outcome {
    drive(
        params,
        16,
        || interactive_setup(params),
        interactive_op,
        |st, out, counters| {
            // The session is not resident: no warm loop can match.
            let computed = st
                .served
                .manager
                .peek_session(DATASET)
                .map_or(usize::MAX, |s| s.stats().candidates_computed);
            if computed != st.computed_after_warmup {
                out.fail("warm loop evaluated candidates".into());
            }
            counters.candidates_computed = computed.saturating_sub(st.computed_after_warmup);
            st.served.resident_bytes() as f64
        },
    )
}

// ---------------------------------------------------------------------------
// serve_ingest
// ---------------------------------------------------------------------------

struct Ingest {
    served: Served,
    names: Vec<String>,
    bodies: Vec<String>,
    targets: Vec<Vec<String>>,
    rows: usize,
}

fn ingest_setup(params: &Params) -> Result<Ingest, String> {
    let csvs: Vec<CsvPair> = (0..INGEST_DATASETS)
        .map(|j| CsvPair::generate(params.rows, sub_seed(params.seed, j)))
        .collect();
    let bodies: Vec<String> = csvs.iter().map(CsvPair::upload_body).collect();
    // What `/targets` must answer for each dataset, from the engine in
    // process.
    let targets = csvs
        .iter()
        .map(|c| {
            let pair = c.ingest().map_err(|e| format!("ingest: {e}"))?;
            Session::open_with_config(pair, engine_config())
                .and_then(|s| s.targets())
                .map_err(|e| format!("targets: {e}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut st = Ingest {
        served: Served::start(INGEST_MAX_SESSIONS),
        names: (0..INGEST_DATASETS)
            .map(|j| format!("county-{j}"))
            .collect(),
        bodies,
        targets,
        rows: params.rows,
    };
    let mut scratch = Counters::default();
    for j in 0..INGEST_DATASETS {
        let path = format!("/v1/datasets/{}", st.names[j]);
        st.served
            .request(&mut scratch, "POST", &path, Some(&st.bodies[j]))?;
    }
    // Warm-up: one full rotation of the loop's cycle.
    for i in 0..INGEST_DATASETS {
        ingest_op(&mut st, i, None, &mut scratch).check?;
    }
    Ok(st)
}

/// Upload dataset `i mod M`, then read `/targets` of dataset `i+2 mod M`:
/// with M = 4 and two resident sessions that is the least recently used
/// other dataset, evicted two cycles ago, so the read reopens it from its
/// registered CSV.
fn ingest_op(
    st: &mut Ingest,
    i: usize,
    mut tracer: Option<&mut Tracer>,
    counters: &mut Counters,
) -> OpResult {
    let m = st.names.len();
    let (up, read) = (i % m, (i + 2) % m);
    let upload_path = format!("/v1/datasets/{}", st.names[up]);
    let read_path = format!("/v1/datasets/{}/targets", st.names[read]);
    let before = tracer.is_some().then(|| st.served.manager_counts());
    let started = Instant::now();
    let uploaded = traced(tracer.as_deref_mut(), "http.upload", i, || {
        st.served
            .request(counters, "POST", &upload_path, Some(&st.bodies[up]))
    });
    let read_response = traced(tracer, "http.targets", i, || {
        st.served.request(counters, "GET", &read_path, None)
    });
    let latency_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(before) = before {
        add_manager_delta(
            counters,
            &before,
            &st.served.manager_counts(),
            Some(&st.names[up]),
        );
    }
    let check = (|| -> Result<(), String> {
        let doc = parse(&uploaded?)?;
        if doc.get("registered").and_then(Json::as_str) != Some(st.names[up].as_str())
            || doc.get("rows").and_then(Json::as_usize) != Some(st.rows)
        {
            return Err(format!("unexpected upload answer {}", doc.encode()));
        }
        let doc = parse(&read_response?)?;
        if targets_of(&doc).as_ref() != Some(&st.targets[read]) {
            return Err(format!("unexpected targets {}", doc.encode()));
        }
        Ok(())
    })();
    OpResult { latency_ms, check }
}

/// `serve_ingest`: uploads beside reads of evicted datasets, over one
/// keep-alive connection, with a working set larger than the session
/// cache.
pub fn serve_ingest(params: &Params) -> Outcome {
    drive(
        params,
        8,
        || ingest_setup(params),
        // Operations 0..M ran as the warm-up.
        |st, i, t, c| ingest_op(st, i + INGEST_DATASETS, t, c),
        |st, _, _| st.served.resident_bytes() as f64,
    )
}
