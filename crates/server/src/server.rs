//! The threaded serving front end: a `std::net` HTTP/1.1 listener routing
//! REST-style paths (and a versioned `/v1/rpc` endpoint) onto a shared
//! [`SessionManager`].
//!
//! Architecture: one accept thread hands connections to a **bounded**
//! queue drained by a fixed worker pool (thread-per-connection inside the
//! pool, keep-alive honored). The bound is the backpressure mechanism —
//! when all workers are busy and the queue is full, new connections are
//! answered `503` immediately instead of piling up unboundedly.
//! [`Server::shutdown`] is graceful: in-flight requests complete, idle
//! keep-alive connections close, and every thread is joined.
//!
//! ## Routes (all responses `application/json`)
//!
//! | Method & path                        | Meaning                               |
//! |--------------------------------------|---------------------------------------|
//! | `GET  /healthz`                      | liveness probe                        |
//! | `GET  /v1/datasets`                  | stats for every registered dataset    |
//! | `POST /v1/datasets/{name}`           | ingest CSV (`{source_csv, target_csv, key?}`) |
//! | `DELETE /v1/datasets/{name}`         | unregister (drops any open session)   |
//! | `POST /v1/datasets/{name}/query`     | run one query (body = wire query)     |
//! | `POST /v1/datasets/{name}/multi`     | run several (`{queries: [...]}`)       |
//! | `POST /v1/datasets/{name}/sweep`     | α-sweep (`{query, alphas}`)           |
//! | `GET  /v1/datasets/{name}/targets`   | changed numeric attributes            |
//! | `GET  /v1/datasets/{name}/stats`     | registry + session counters           |
//! | `POST /v1/datasets/{name}/evict`     | drop the open session, keep the spec  |
//! | `POST /v1/rpc`                       | a versioned [`Request`] envelope      |

use crate::http::{read_request, write_response, HttpRequest, ReadError};
use crate::json::Json;
use crate::proto::{
    ErrorCode, ErrorEnvelope, Request, WireDatasetStats, WireQuery, WireQueryResult,
    PROTOCOL_VERSION,
};
use charles_core::{CharlesError, SessionManager};
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Front-end knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections allowed to wait for a worker before new ones
    /// are answered `503` (the backpressure bound).
    pub max_pending: usize,
    /// How long an idle keep-alive connection may hold a worker before the
    /// server closes it (also bounds slow-loris clients).
    pub idle_timeout: std::time::Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            max_pending: 64,
            idle_timeout: std::time::Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// Set the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the worker-pool size (clamped to ≥ 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the pending-connection bound (clamped to ≥ 1).
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Set the keep-alive idle timeout.
    pub fn with_idle_timeout(mut self, idle_timeout: std::time::Duration) -> Self {
        self.idle_timeout = idle_timeout;
        self
    }
}

struct Shared {
    manager: Arc<SessionManager>,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    available: Condvar,
    max_pending: usize,
    idle_timeout: std::time::Duration,
}

/// A running server; dropping it shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `manager` in background threads; returns as
    /// soon as the listener is live.
    pub fn start(manager: Arc<SessionManager>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            manager,
            shutdown: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            max_pending: config.max_pending.max(1),
            idle_timeout: config.idle_timeout,
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("charles-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
            })
            .collect::<io::Result<Vec<_>>>()?;

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("charles-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port `0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wakeup barrier: workers check the flag only while holding the
        // queue mutex, so after this lock round-trip every worker is
        // either before its check (and will see the flag) or already
        // parked in `wait` (and will receive the notify below). Without
        // it, a notify landing between a worker's check and its `wait`
        // would be lost and the join would hang.
        drop(lock_queue(&self.shared));
        self.shared.available.notify_all();
        // Unblock the accept loop with a wake-up connection; it checks the
        // flag before queueing.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            self.shared.available.notify_all();
            let _ = worker.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Lock the connection queue, recovering from poison: the queue holds
/// plain `TcpStream`s, which stay structurally valid even if a worker
/// panicked mid-push, so serving beats propagating the panic.
fn lock_queue(shared: &Shared) -> std::sync::MutexGuard<'_, VecDeque<TcpStream>> {
    shared
        .queue
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Persistent accept errors (EMFILE under fd exhaustion) would
            // otherwise busy-spin a core at the worst possible moment.
            std::thread::sleep(std::time::Duration::from_millis(10));
            continue;
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or a raced client) is dropped
        }
        let mut queue = lock_queue(shared);
        if queue.len() >= shared.max_pending {
            drop(queue);
            // Backpressure: refuse rather than queue unboundedly. Half-close
            // and drain the unread request so closing doesn't RST the
            // refusal out of the client's receive buffer. The drain runs on
            // the accept thread, so it is hard-capped in both time and
            // bytes — a trickling client must not block new accepts.
            let mut stream = stream;
            let envelope =
                ErrorEnvelope::new(ErrorCode::Overloaded, "server at capacity, retry later");
            let _ = write_response(&mut stream, 503, &envelope.to_json().encode(), false);
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(100)));
            let deadline = std::time::Instant::now() + std::time::Duration::from_millis(250);
            let mut drained = 0usize;
            let mut sink = [0u8; 4096];
            while drained < 64 * 1024 && std::time::Instant::now() < deadline {
                match io::Read::read(&mut stream, &mut sink) {
                    Ok(n) if n > 0 => drained += n,
                    _ => break,
                }
            }
            continue;
        }
        queue.push_back(stream);
        drop(queue);
        shared.available.notify_one();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = lock_queue(shared);
            loop {
                if let Some(stream) = queue.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        serve_connection(stream, shared);
    }
}

/// Serve one connection until close, error, or shutdown. An idle read
/// timeout bounds how long a keep-alive connection (or a slow-loris
/// client) can hold a worker, and lets shutdown reclaim workers parked on
/// idle connections.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.idle_timeout));
    // Request→response exchanges on keep-alive connections: Nagle only
    // adds delayed-ACK stalls between a response and the next request.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut read_half = BufReader::new(stream);
    loop {
        match read_request(&mut read_half) {
            Ok(request) => {
                let close = request.wants_close() || shared.shutdown.load(Ordering::SeqCst);
                let (status, body) = route(&shared.manager, &request);
                if write_response(&mut write_half, status, &body.encode(), !close).is_err() || close
                {
                    return;
                }
            }
            Err(ReadError::Eof) => return,
            Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(status, message)) => {
                let envelope = ErrorEnvelope::new(ErrorCode::BadRequest, message);
                let _ =
                    write_response(&mut write_half, status, &envelope.to_json().encode(), false);
                return;
            }
        }
    }
}

/// Route one HTTP request to a protocol [`Request`] and dispatch it.
fn route(manager: &SessionManager, request: &HttpRequest) -> (u16, Json) {
    match route_inner(manager, request) {
        Ok(body) => (200, body),
        Err((status, envelope)) => (status, envelope.to_json()),
    }
}

type RouteResult = Result<Json, (u16, ErrorEnvelope)>;

fn bad_request(message: impl Into<String>) -> (u16, ErrorEnvelope) {
    (400, ErrorEnvelope::new(ErrorCode::BadRequest, message))
}

/// Decode `%XX` escapes in one path segment (no `+`→space: that is
/// query-string form encoding, not path encoding). `None` on malformed
/// escapes or non-UTF-8 results.
// lint:allow(no-panic-in-request-path: i < bytes.len() is the loop guard and lookahead reads use bytes.get)
fn percent_decode(segment: &str) -> Option<String> {
    let bytes = segment.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = |b: &u8| (*b as char).to_digit(16);
            let hi = bytes.get(i + 1).and_then(hex)?;
            let lo = bytes.get(i + 2).and_then(hex)?;
            out.push((hi * 16 + lo) as u8);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

fn route_inner(manager: &SessionManager, request: &HttpRequest) -> RouteResult {
    // Strip any query string; the API carries arguments in bodies. Each
    // segment is percent-decoded after splitting, so names containing
    // '/', '?', spaces, or non-ASCII are reachable through the REST
    // surface as `%XX` escapes (the /v1/rpc envelope takes them raw).
    let path = request.path.split('?').next().unwrap_or("");
    let decoded: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(percent_decode)
        .collect::<Option<_>>()
        .ok_or_else(|| bad_request("malformed percent-encoding in path"))?;
    let segments: Vec<&str> = decoded.iter().map(String::as_str).collect();
    let method = request.method.as_str();

    let body_json = || -> Result<Json, (u16, ErrorEnvelope)> {
        let text = std::str::from_utf8(&request.body)
            .map_err(|_| bad_request("body must be UTF-8 JSON"))?;
        Json::parse(text).map_err(|e| bad_request(e.to_string()))
    };

    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => Ok(Json::obj([
            ("ok", Json::Bool(true)),
            ("protocol_version", Json::num_usize(PROTOCOL_VERSION)),
        ])),
        ("GET", ["v1", "datasets"]) => dispatch(manager, &Request::Stats { dataset: None }),
        ("POST", ["v1", "rpc"]) => {
            let request =
                Request::from_json(&body_json()?).map_err(|e| bad_request(e.to_string()))?;
            dispatch(manager, &request)
        }
        ("POST", ["v1", "datasets", name]) => {
            let body = body_json()?;
            let request = Request::LoadCsv {
                dataset: (*name).to_string(),
                source_csv: body
                    .get("source_csv")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad_request("missing field \"source_csv\""))?
                    .to_string(),
                target_csv: body
                    .get("target_csv")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad_request("missing field \"target_csv\""))?
                    .to_string(),
                key: body.get("key").and_then(Json::as_str).map(str::to_string),
            };
            dispatch(manager, &request)
        }
        ("DELETE", ["v1", "datasets", name]) => {
            let removed = manager.unregister(name);
            if removed {
                Ok(Json::obj([("unregistered", Json::Bool(true))]))
            } else {
                Err((
                    404,
                    ErrorEnvelope::new(
                        ErrorCode::UnknownDataset,
                        format!("{name:?} is not registered"),
                    ),
                ))
            }
        }
        ("POST", ["v1", "datasets", name, "query"]) => {
            let query =
                WireQuery::from_json(&body_json()?).map_err(|e| bad_request(e.to_string()))?;
            dispatch(
                manager,
                &Request::RunQuery {
                    dataset: (*name).to_string(),
                    query,
                },
            )
        }
        ("POST", ["v1", "datasets", name, "multi"]) => {
            let body = body_json()?;
            let queries = body
                .get("queries")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad_request("missing array field \"queries\""))?
                .iter()
                .map(WireQuery::from_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| bad_request(e.to_string()))?;
            dispatch(
                manager,
                &Request::RunMulti {
                    dataset: (*name).to_string(),
                    queries,
                },
            )
        }
        ("POST", ["v1", "datasets", name, "sweep"]) => {
            let body = body_json()?;
            let query = WireQuery::from_json(
                body.get("query")
                    .ok_or_else(|| bad_request("missing field \"query\""))?,
            )
            .map_err(|e| bad_request(e.to_string()))?;
            let alphas = body
                .get("alphas")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad_request("missing array field \"alphas\""))?
                .iter()
                .map(|a| {
                    a.as_f64()
                        .ok_or_else(|| bad_request("alphas must be numbers"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            dispatch(
                manager,
                &Request::SweepAlpha {
                    dataset: (*name).to_string(),
                    query,
                    alphas,
                },
            )
        }
        ("GET", ["v1", "datasets", name, "targets"]) => dispatch(
            manager,
            &Request::ListTargets {
                dataset: (*name).to_string(),
            },
        ),
        ("GET", ["v1", "datasets", name, "stats"]) => dispatch(
            manager,
            &Request::Stats {
                dataset: Some((*name).to_string()),
            },
        ),
        ("POST", ["v1", "datasets", name, "evict"]) => {
            if !manager.contains(name) {
                return Err((
                    404,
                    ErrorEnvelope::new(
                        ErrorCode::UnknownDataset,
                        format!("{name:?} is not registered"),
                    ),
                ));
            }
            let evicted = manager.evict(name);
            Ok(Json::obj([("evicted", Json::Bool(evicted))]))
        }
        _ => {
            // Distinguish "this path exists under another method" (405)
            // from a path no method serves (404).
            let known_path = matches!(
                segments.as_slice(),
                ["healthz"]
                    | ["v1", "rpc"]
                    | ["v1", "datasets"]
                    | ["v1", "datasets", _]
                    | [
                        "v1",
                        "datasets",
                        _,
                        "query" | "multi" | "sweep" | "targets" | "stats" | "evict"
                    ]
            );
            if known_path {
                Err((
                    405,
                    ErrorEnvelope::new(
                        ErrorCode::MethodNotAllowed,
                        format!("{method} not allowed on {path:?}"),
                    ),
                ))
            } else {
                Err((
                    404,
                    ErrorEnvelope::new(ErrorCode::NotFound, format!("no route for {path:?}")),
                ))
            }
        }
    }
}

/// Execute a protocol request against the manager. Shared by every route
/// and by `/v1/rpc`.
pub fn dispatch(manager: &SessionManager, request: &Request) -> RouteResult {
    let engine_err = |e: CharlesError| ErrorEnvelope::from_charles(&e);
    // Failures while *opening* a registered dataset (its backing CSV was
    // deleted, a provider broke) are server-state problems, not client
    // errors — only "not registered" stays a 404.
    let open_err = |e: CharlesError| match e {
        CharlesError::Relation(_) => (
            503,
            ErrorEnvelope::new(ErrorCode::DatasetUnavailable, e.to_string()),
        ),
        _ => ErrorEnvelope::from_charles(&e),
    };
    match request {
        Request::RunQuery { dataset, query } => {
            let session = manager.open_or_get(dataset).map_err(open_err)?;
            let result = session.run(&query.to_query()).map_err(engine_err)?;
            Ok(WireQueryResult::from_result(&result).to_json())
        }
        Request::RunMulti { dataset, queries } => {
            let session = manager.open_or_get(dataset).map_err(open_err)?;
            let engine_queries: Vec<_> = queries.iter().map(WireQuery::to_query).collect();
            let results = session.run_multi(&engine_queries).map_err(engine_err)?;
            Ok(Json::obj([(
                "results",
                Json::Arr(
                    results
                        .iter()
                        .map(|r| WireQueryResult::from_result(r).to_json())
                        .collect(),
                ),
            )]))
        }
        Request::SweepAlpha {
            dataset,
            query,
            alphas,
        } => {
            let session = manager.open_or_get(dataset).map_err(open_err)?;
            let base = session.run(&query.to_query()).map_err(engine_err)?;
            let swept = session.sweep_alpha(&base, alphas).map_err(engine_err)?;
            Ok(Json::obj([(
                "results",
                Json::Arr(
                    swept
                        .iter()
                        .map(|r| WireQueryResult::from_result(r).to_json())
                        .collect(),
                ),
            )]))
        }
        Request::ListTargets { dataset } => {
            let session = manager.open_or_get(dataset).map_err(open_err)?;
            let targets = session.targets().map_err(engine_err)?;
            Ok(Json::obj([("targets", Json::str_arr(targets))]))
        }
        Request::Stats { dataset } => {
            let stats_of = |d: &charles_core::DatasetStats| -> Json {
                // `peek` keeps stats reads from perturbing LRU order.
                let session = manager.peek_session(&d.name).map(|s| s.stats());
                WireDatasetStats {
                    dataset: d.clone(),
                    session,
                }
                .to_json()
            };
            match dataset {
                Some(name) => {
                    let stats = manager.dataset_stats(name).map_err(engine_err)?;
                    Ok(stats_of(&stats))
                }
                None => Ok(Json::obj([
                    (
                        "datasets",
                        Json::Arr(manager.list().iter().map(stats_of).collect()),
                    ),
                    (
                        "resident_sessions",
                        Json::num_usize(manager.resident_sessions()),
                    ),
                    ("resident_bytes", Json::num_usize(manager.resident_bytes())),
                ])),
            }
        }
        Request::LoadCsv {
            dataset,
            source_csv,
            target_csv,
            key,
        } => {
            manager
                .register_csv_inline(
                    dataset.clone(),
                    source_csv.clone(),
                    target_csv.clone(),
                    key.clone(),
                )
                .map_err(engine_err)?;
            // Ingest leaves the session resident; peek instead of a
            // redundant open (None only if the budget evicted it already).
            let rows = manager
                .peek_session(dataset)
                .map(|s| s.pair().len())
                .map_or(Json::Null, Json::num_usize);
            Ok(Json::obj([
                ("registered", Json::str(dataset.clone())),
                ("rows", rows),
            ]))
        }
    }
}
