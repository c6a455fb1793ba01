//! End-to-end tests: a real listener, raw TCP clients, multi-tenant
//! datasets, eviction correctness, error envelopes, backpressure, and
//! graceful shutdown.

use charles_core::{ManagerConfig, Query, Session, SessionManager};
use charles_server::{http_request, HttpClient, Json, Server, ServerConfig, WireQuery};
use charles_synth::example1;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

fn demo_manager() -> Arc<SessionManager> {
    let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
    let scenario = example1();
    let pair = charles_relation::SnapshotPair::align(scenario.source, scenario.target).unwrap();
    manager.register_pair("demo", pair);
    manager
}

fn start(manager: Arc<SessionManager>) -> Server {
    Server::start(manager, ServerConfig::default().with_workers(2)).unwrap()
}

fn query_body(target: &str) -> String {
    WireQuery::new(target).to_json().encode()
}

#[test]
fn health_and_query_roundtrip() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let health = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "{}", health.body);
    assert!(health.body.contains("\"protocol_version\":1"));

    let response = http_request(
        addr,
        "POST",
        "/v1/datasets/demo/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let doc = Json::parse(&response.body).unwrap();
    assert_eq!(doc.get("target").unwrap().as_str(), Some("bonus"));
    let summaries = doc.get("summaries").unwrap().as_arr().unwrap();
    assert!(!summaries.is_empty());
    let top = &summaries[0];
    assert!(top.get("accuracy").unwrap().as_f64().unwrap() > 0.99);
    assert_eq!(top.get("rank").unwrap().as_usize(), Some(1));

    // A warm rerun over the wire is byte-identical except elapsed_ms.
    let again = http_request(
        addr,
        "POST",
        "/v1/datasets/demo/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    let strip = |body: &str| -> Json {
        let mut doc = Json::parse(body).unwrap();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "elapsed_ms");
        }
        doc
    };
    assert_eq!(strip(&response.body), strip(&again.body));
    server.shutdown();
}

#[test]
fn error_envelopes_are_typed() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let missing = http_request(
        addr,
        "POST",
        "/v1/datasets/nope/query",
        Some(&query_body("x")),
    )
    .unwrap();
    assert_eq!(missing.status, 404, "{}", missing.body);
    assert!(missing.body.contains("\"code\":\"unknown_dataset\""));

    let bad_target = http_request(
        addr,
        "POST",
        "/v1/datasets/demo/query",
        Some(&query_body("nope")),
    )
    .unwrap();
    assert_eq!(bad_target.status, 404, "{}", bad_target.body);
    assert!(bad_target.body.contains("\"code\":\"unknown_target\""));

    let non_numeric = http_request(
        addr,
        "POST",
        "/v1/datasets/demo/query",
        Some(&query_body("edu")),
    )
    .unwrap();
    assert_eq!(non_numeric.status, 400, "{}", non_numeric.body);
    assert!(non_numeric.body.contains("\"code\":\"bad_query\""));

    let bad_alpha_body = r#"{"target":"bonus","alpha":2.5}"#;
    let bad_alpha = http_request(
        addr,
        "POST",
        "/v1/datasets/demo/query",
        Some(bad_alpha_body),
    )
    .unwrap();
    assert_eq!(bad_alpha.status, 400, "{}", bad_alpha.body);
    assert!(bad_alpha.body.contains("\"code\":\"bad_config\""));

    let not_json = http_request(addr, "POST", "/v1/datasets/demo/query", Some("not json")).unwrap();
    assert_eq!(not_json.status, 400, "{}", not_json.body);
    assert!(not_json.body.contains("\"code\":\"bad_request\""));

    let no_route = http_request(addr, "GET", "/v2/everything", None).unwrap();
    assert_eq!(no_route.status, 404);
    // An unknown path *under* /v1 is 404, not 405: no method serves it.
    let typo = http_request(addr, "GET", "/v1/bogus", None).unwrap();
    assert_eq!(typo.status, 404, "{}", typo.body);
    let wrong_method = http_request(addr, "PATCH", "/v1/datasets/demo/query", None).unwrap();
    assert_eq!(wrong_method.status, 405, "{}", wrong_method.body);

    // Hostile deeply-nested JSON is rejected, not a process-killing
    // stack overflow.
    let bomb = "[".repeat(50_000);
    let nested = http_request(addr, "POST", "/v1/rpc", Some(&bomb)).unwrap();
    assert_eq!(nested.status, 400, "{}", nested.body);
    assert!(nested.body.contains("nesting"), "{}", nested.body);
    server.shutdown();
}

#[test]
fn rpc_endpoint_speaks_versioned_envelopes() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let rpc = charles_server::Request::RunQuery {
        dataset: "demo".into(),
        query: WireQuery::new("bonus"),
    };
    let response = http_request(addr, "POST", "/v1/rpc", Some(&rpc.to_json().encode())).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert!(response.body.contains("\"summaries\""));

    let future = r#"{"v":99,"op":"run_query","dataset":"demo","query":{"target":"bonus"}}"#;
    let rejected = http_request(addr, "POST", "/v1/rpc", Some(future)).unwrap();
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("unsupported protocol version"));
    server.shutdown();
}

#[test]
fn retired_shard_ops_are_unknown_and_the_server_keeps_serving() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();
    // Row-shard statistics ops were removed from the protocol; an old
    // client sending one gets the ordinary unknown-op answer.
    let retired = r#"{"v":1,"op":"shard_gram","dataset":"demo","target":"bonus","tran_attrs":["bonus"],"scales":[],"start":0,"len":9}"#;
    let response = http_request(addr, "POST", "/v1/rpc", Some(retired)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    let envelope =
        charles_server::ErrorEnvelope::from_json(&Json::parse(&response.body).unwrap()).unwrap();
    assert_eq!(envelope.code, charles_server::ErrorCode::BadRequest);
    assert_eq!(
        envelope.message,
        r#"protocol error: unknown op "shard_gram""#
    );

    let rpc = charles_server::Request::RunQuery {
        dataset: "demo".into(),
        query: WireQuery::new("bonus"),
    };
    let after = http_request(addr, "POST", "/v1/rpc", Some(&rpc.to_json().encode())).unwrap();
    assert_eq!(after.status, 200, "{}", after.body);
    assert!(after.body.contains("\"summaries\""));
    server.shutdown();
}

#[test]
fn targets_stats_sweep_and_multi() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let targets = http_request(addr, "GET", "/v1/datasets/demo/targets", None).unwrap();
    assert_eq!(targets.status, 200, "{}", targets.body);
    assert!(targets.body.contains("\"bonus\""));

    let sweep_body = r#"{"query":{"target":"bonus"},"alphas":[0.0,0.5,1.0]}"#;
    let sweep = http_request(addr, "POST", "/v1/datasets/demo/sweep", Some(sweep_body)).unwrap();
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    let doc = Json::parse(&sweep.body).unwrap();
    let results = doc.get("results").unwrap().as_arr().unwrap();
    assert_eq!(results.len(), 3);
    let alphas: Vec<f64> = results
        .iter()
        .map(|r| r.get("alpha").unwrap().as_f64().unwrap())
        .collect();
    assert_eq!(alphas, vec![0.0, 0.5, 1.0]);

    let multi_body = r#"{"queries":[{"target":"bonus"},{"target":"bonus","alpha":1.0}]}"#;
    let multi = http_request(addr, "POST", "/v1/datasets/demo/multi", Some(multi_body)).unwrap();
    assert_eq!(multi.status, 200, "{}", multi.body);
    let doc = Json::parse(&multi.body).unwrap();
    assert_eq!(doc.get("results").unwrap().as_arr().unwrap().len(), 2);

    let stats = http_request(addr, "GET", "/v1/datasets/demo/stats", None).unwrap();
    assert_eq!(stats.status, 200, "{}", stats.body);
    let doc = Json::parse(&stats.body).unwrap();
    assert_eq!(doc.get("resident").unwrap().as_bool(), Some(true));
    assert!(doc
        .get("session")
        .unwrap()
        .get("global_fits_computed")
        .is_some());

    let listing = http_request(addr, "GET", "/v1/datasets", None).unwrap();
    assert_eq!(listing.status, 200);
    assert!(listing.body.contains("\"demo\""), "{}", listing.body);
    server.shutdown();
}

#[test]
fn csv_ingest_eviction_and_unregister() {
    let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
    let mut server = start(Arc::clone(&manager));
    let addr = server.local_addr();

    // Ingest the example-1 snapshots as CSV text over the wire.
    let scenario = example1();
    let mut source_csv = Vec::new();
    let mut target_csv = Vec::new();
    charles_relation::write_csv(&scenario.source, &mut source_csv).unwrap();
    charles_relation::write_csv(&scenario.target, &mut target_csv).unwrap();
    let ingest = Json::obj([
        (
            "source_csv",
            Json::str(String::from_utf8(source_csv).unwrap()),
        ),
        (
            "target_csv",
            Json::str(String::from_utf8(target_csv).unwrap()),
        ),
        ("key", Json::str("name")),
    ]);
    let loaded =
        http_request(addr, "POST", "/v1/datasets/payroll", Some(&ingest.encode())).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.body);
    assert!(loaded.body.contains("\"registered\":\"payroll\""));

    // Served answers must match a direct in-process session.
    let served = http_request(
        addr,
        "POST",
        "/v1/datasets/payroll/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(served.status, 200, "{}", served.body);
    let direct_pair =
        charles_relation::SnapshotPair::align(example1().source, example1().target).unwrap();
    let direct = Session::open(direct_pair).unwrap();
    let direct_top = direct
        .run(&Query::new("bonus"))
        .unwrap()
        .top()
        .unwrap()
        .scores
        .score;
    let doc = Json::parse(&served.body).unwrap();
    let served_top = doc.get("summaries").unwrap().as_arr().unwrap()[0]
        .get("score")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(
        (served_top - direct_top).abs() < 1e-12,
        "served {served_top} vs direct {direct_top}"
    );

    // Evict, then re-query: the manager re-opens from the retained CSV
    // text and answers identically.
    let evicted = http_request(addr, "POST", "/v1/datasets/payroll/evict", None).unwrap();
    assert_eq!(evicted.status, 200, "{}", evicted.body);
    assert!(evicted.body.contains("\"evicted\":true"));
    assert_eq!(manager.resident_sessions(), 0);
    let reopened = http_request(
        addr,
        "POST",
        "/v1/datasets/payroll/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(reopened.status, 200);
    let strip = |body: &str| -> Json {
        let mut doc = Json::parse(body).unwrap();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "elapsed_ms");
        }
        doc
    };
    assert_eq!(strip(&served.body), strip(&reopened.body));

    let removed = http_request(addr, "DELETE", "/v1/datasets/payroll", None).unwrap();
    assert_eq!(removed.status, 200, "{}", removed.body);
    let gone = http_request(
        addr,
        "POST",
        "/v1/datasets/payroll/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(gone.status, 404);

    // Malformed CSV is rejected with a typed envelope and not registered.
    let bad = Json::obj([
        ("source_csv", Json::str("a,b\n1")),
        ("target_csv", Json::str("a,b\n1,2\n")),
    ]);
    let rejected = http_request(addr, "POST", "/v1/datasets/broken", Some(&bad.encode())).unwrap();
    assert_eq!(rejected.status, 400, "{}", rejected.body);
    assert!(rejected.body.contains("\"code\":\"bad_data\""));
    assert!(!manager.contains("broken"));
    server.shutdown();
}

#[test]
fn percent_encoded_dataset_names_route() {
    let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
    let scenario = example1();
    let pair = charles_relation::SnapshotPair::align(scenario.source, scenario.target).unwrap();
    manager.register_pair("my μ-data", pair);
    let mut server = start(manager);
    let addr = server.local_addr();

    // "my μ-data" = my%20%CE%BC-data (space + UTF-8 µ, percent-escaped).
    let targets = http_request(addr, "GET", "/v1/datasets/my%20%CE%BC-data/targets", None).unwrap();
    assert_eq!(targets.status, 200, "{}", targets.body);
    assert!(targets.body.contains("bonus"));
    let bad_escape = http_request(addr, "GET", "/v1/datasets/my%2/targets", None).unwrap();
    assert_eq!(bad_escape.status, 400, "{}", bad_escape.body);
    assert!(bad_escape.body.contains("percent-encoding"));
    server.shutdown();
}

#[test]
fn broken_backing_file_maps_to_503_not_400() {
    let dir = std::env::temp_dir().join(format!("charles_e2e_503_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scenario = example1();
    let src = dir.join("v1.csv");
    let dst = dir.join("v2.csv");
    charles_relation::write_csv_path(&scenario.source, &src).unwrap();
    charles_relation::write_csv_path(&scenario.target, &dst).unwrap();

    let manager = Arc::new(SessionManager::new(ManagerConfig::default()));
    manager.register_csv("disk", &src, &dst, Some("name".into()));
    let mut server = start(Arc::clone(&manager));
    let addr = server.local_addr();

    let ok = http_request(
        addr,
        "POST",
        "/v1/datasets/disk/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);

    // Break the backing file, evict, and re-query: a server-state 503,
    // not a client-error 400.
    std::fs::remove_file(&src).unwrap();
    manager.evict("disk");
    let broken = http_request(
        addr,
        "POST",
        "/v1/datasets/disk/query",
        Some(&query_body("bonus")),
    )
    .unwrap();
    assert_eq!(broken.status, 503, "{}", broken.body);
    assert!(broken.body.contains("\"code\":\"dataset_unavailable\""));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_clients_agree() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                (0..3)
                    .map(|_| {
                        let response = http_request(
                            addr,
                            "POST",
                            "/v1/datasets/demo/query",
                            Some(&query_body("bonus")),
                        )
                        .unwrap();
                        assert_eq!(response.status, 200, "{}", response.body);
                        let mut doc = Json::parse(&response.body).unwrap();
                        if let Json::Obj(pairs) = &mut doc {
                            pairs.retain(|(k, _)| k != "elapsed_ms");
                        }
                        doc.encode()
                    })
                    .collect::<Vec<String>>()
            })
        })
        .collect();
    let all: Vec<String> = handles
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    for pair in all.windows(2) {
        assert_eq!(pair[0], pair[1], "concurrent served answers must agree");
    }
    server.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    for i in 0..3 {
        let body = query_body("bonus");
        write!(
            stream,
            "POST /v1/datasets/demo/query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        stream.flush().unwrap();
        // Read exactly one response: head + Content-Length body.
        let response = read_one_response(&mut stream);
        assert!(response.contains("200 OK"), "request {i}: {response}");
        assert!(response.contains("\"summaries\""), "request {i}");
    }
    server.shutdown();
}

/// Read one HTTP response (head + exact Content-Length body) from a
/// keep-alive stream.
fn read_one_response(stream: &mut TcpStream) -> String {
    use std::io::Read;
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    // Head: read until CRLFCRLF.
    while !buf.ends_with(b"\r\n\r\n") {
        assert_ne!(stream.read(&mut byte).unwrap(), 0, "unexpected EOF in head");
        buf.push(byte[0]);
    }
    let head = String::from_utf8(buf.clone()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        })
        .map(|(_, v)| v.trim().parse().unwrap())
        .expect("Content-Length present");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).unwrap();
    head + &String::from_utf8(body).unwrap()
}

#[test]
fn keep_alive_client_reuses_one_connection_until_idle_timeout() {
    // A short idle timeout so the close side of the contract is testable.
    let manager = demo_manager();
    let mut server = Server::start(
        manager,
        ServerConfig::default()
            .with_workers(2)
            .with_idle_timeout(std::time::Duration::from_millis(300)),
    )
    .unwrap();
    let addr = server.local_addr();

    // N sequential requests on ONE connection get N responses, and the
    // server does not close in between (a close would surface as an EOF
    // error on the next exchange).
    let mut client = HttpClient::connect(addr).unwrap();
    let mut bodies = Vec::new();
    for i in 0..4 {
        let response = client
            .request(
                "POST",
                "/v1/datasets/demo/query",
                Some(&query_body("bonus")),
            )
            .unwrap_or_else(|e| panic!("request {i} on keep-alive connection: {e}"));
        assert_eq!(response.status, 200, "request {i}: {}", response.body);
        assert!(!client.is_closed(), "server must keep the connection open");
        let mut doc = Json::parse(&response.body).unwrap();
        if let Json::Obj(pairs) = &mut doc {
            pairs.retain(|(k, _)| k != "elapsed_ms");
        }
        bodies.push(doc.encode());
    }
    for pair in bodies.windows(2) {
        assert_eq!(pair[0], pair[1], "keep-alive answers must agree");
    }

    // Go idle past the timeout: the server's reaper closes the
    // connection, and the next request must ride a transparent reconnect
    // — long-lived coordinator→worker channels depend on this — instead
    // of surfacing a stale-close error.
    std::thread::sleep(std::time::Duration::from_millis(800));
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(2)))
        .unwrap();
    assert_eq!(client.reconnects(), 0);
    let after_idle = client
        .request(
            "POST",
            "/v1/datasets/demo/query",
            Some(&query_body("bonus")),
        )
        .expect("stale keep-alive connection must transparently reconnect");
    assert_eq!(after_idle.status, 200, "{}", after_idle.body);
    assert_eq!(
        client.reconnects(),
        1,
        "the retry must have replaced the reaped connection"
    );
    assert!(!client.is_closed());
    // The answer over the fresh connection is the same bytes.
    let mut doc = Json::parse(&after_idle.body).unwrap();
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "elapsed_ms");
    }
    assert_eq!(doc.encode(), bodies[0]);

    // And the client keeps serving on the replaced connection.
    assert_eq!(client.request("GET", "/healthz", None).unwrap().status, 200);
    assert_eq!(client.reconnects(), 1, "no spurious reconnects");
    server.shutdown();
}

#[test]
fn graceful_shutdown_stops_serving() {
    let mut server = start(demo_manager());
    let addr = server.local_addr();
    let ok = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(ok.status, 200);

    server.shutdown();
    server.shutdown(); // idempotent

    // After shutdown the listener is gone: either the connect fails or the
    // connection is dropped without a response.
    match http_request(addr, "GET", "/healthz", None) {
        Err(_) => {}
        Ok(response) => assert_ne!(response.status, 200, "served after shutdown"),
    }
}

#[test]
fn backpressure_replies_503_when_saturated() {
    // One worker, queue bound of 1: occupy the worker with a half-sent
    // request, park one connection in the queue, and the next connection
    // must be refused with 503 rather than queued unboundedly.
    let manager = demo_manager();
    let mut server = Server::start(
        manager,
        ServerConfig::default().with_workers(1).with_max_pending(1),
    )
    .unwrap();
    let addr = server.local_addr();

    let mut busy = TcpStream::connect(addr).unwrap();
    busy.write_all(b"POST /v1/datasets/demo/query HTTP/1.1\r\n")
        .unwrap();
    busy.flush().unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));
    let _parked = TcpStream::connect(addr).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(200));

    let refused = http_request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(refused.body.contains("\"code\":\"overloaded\""));
    drop(busy);
    server.shutdown();
}
