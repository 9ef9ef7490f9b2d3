//! End-to-end tests over real sockets: equivalence with in-process
//! generation (f32 and int8), keep-alive, deadline expiry, hot-swap, the
//! result cache, the `/models` queue report and graceful shutdown. Serving
//! is Linux-only (epoll).

#![cfg(target_os = "linux")]

use sqlgen_core::{Constraint, GenConfig, LearnedSqlGen};
use sqlgen_serve::client::{self, Client};
use sqlgen_serve::{serve, ServeConfig, ServerHandle};
use sqlgen_storage::gen::tpch_database;
use std::time::{Duration, Instant};

const SEED: u64 = 11;

/// Serves one schema named `name`. Metrics are process-global and labeled
/// by schema, so a test that reads `/metrics` counters uses its own name.
fn start_schema_server(name: &str, gen_config: &GenConfig, config: ServeConfig) -> ServerHandle {
    let db = tpch_database(0.05, 2);
    let schema = sqlgen_serve::Schema::build(name, &db, gen_config, None, config.max_queue);
    serve(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            read_timeout_ms: 2_000,
            ..config
        },
        vec![schema],
    )
    .expect("bind ephemeral port")
}

fn start_server_with(config: ServeConfig) -> ServerHandle {
    start_schema_server("tpch", &GenConfig::fast().with_seed(SEED), config)
}

fn start_server(batch: usize, max_queue: usize) -> ServerHandle {
    start_server_with(ServeConfig {
        batch,
        max_queue,
        ..ServeConfig::default()
    })
}

/// Serves one seeded request from `gen_config`'s model, then answers the
/// same request in process with a *different* batch width: byte-identical
/// SQL is the serving determinism contract.
fn assert_served_matches_in_process(name: &str, gen_config: GenConfig) {
    let server = start_schema_server(
        name,
        &gen_config,
        ServeConfig {
            batch: 8,
            max_queue: 64,
            ..ServeConfig::default()
        },
    );
    let body = format!(
        r#"{{"schema":"{name}","constraint":{{"metric":"cardinality","min":1,"max":500}},"n":4,"seed":21}}"#
    );
    let (status, resp) = client::request(server.addr(), "POST", "/generate", Some(&body)).unwrap();
    assert_eq!(status, 200, "{resp}");
    let v = serde_json::from_str::<serde_json::Value>(&resp).unwrap();
    assert_eq!(v.get("model").unwrap().as_str(), Some("builtin"));
    assert_eq!(v.get("expired").unwrap().as_u64(), Some(0));
    let served: Vec<(String, bool)> = v
        .get("queries")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|q| {
            (
                q.get("sql").unwrap().as_str().unwrap().to_string(),
                q.get("satisfied").unwrap().as_bool().unwrap(),
            )
        })
        .collect();
    let (_, models) = client::request(server.addr(), "GET", "/models", None).unwrap();
    let v = serde_json::from_str::<serde_json::Value>(&models).unwrap();
    let entry = &v.get("schemas").unwrap().as_array().unwrap()[0];
    assert_eq!(
        entry.get("quantized").unwrap().as_bool(),
        Some(gen_config.quantize)
    );
    server.shutdown();

    let db = tpch_database(0.05, 2);
    let gen = LearnedSqlGen::new(&db, Constraint::cardinality_range(1.0, 500.0), gen_config);
    let direct: Vec<(String, bool)> = gen
        .generate_seeded(4, 21)
        .into_iter()
        .map(|q| (q.sql, q.satisfied))
        .collect();
    assert_eq!(served, direct);
}

#[test]
fn served_generation_matches_in_process_generator() {
    assert_served_matches_in_process("tpch", GenConfig::fast().with_seed(SEED));
}

#[test]
fn quantized_registry_serves_generation_matching_in_process_int8() {
    let gen_config = GenConfig::fast().with_seed(SEED).with_quantize(true);
    assert_served_matches_in_process("tpch_int8", gen_config);
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let server = start_server(4, 64);
    let mut c = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    let (status, body) = c.request("GET", "/healthz", None).unwrap();
    assert_eq!(status, 200, "{body}");
    let gen_body = r#"{"constraint":{"point":50},"n":1,"seed":3}"#;
    let (status, _) = c.request("POST", "/generate", Some(gen_body)).unwrap();
    assert_eq!(status, 200);
    // Same connection, same request → same bytes.
    let (_, a) = c.request("POST", "/generate", Some(gen_body)).unwrap();
    let (_, b) = c.request("POST", "/generate", Some(gen_body)).unwrap();
    assert_eq!(a, b);
    let (status, metrics) = c.request("GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    assert!(
        metrics.contains(r#"serve_http_latency_us_count{endpoint="generate",status="200"}"#),
        "{metrics}"
    );
    assert!(metrics.contains("serve_batch_jobs"), "{metrics}");
    sqlgen_obs::validate_exposition(&metrics).expect("exposition-valid /metrics");
    server.shutdown();
}

#[test]
fn zero_timeout_expires_every_lane_to_504() {
    let server = start_server(4, 64);
    let body = r#"{"constraint":{"min":1,"max":500},"n":3,"seed":5,"timeout_ms":0}"#;
    let (status, resp) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(status, 504, "{resp}");
    assert!(resp.contains("deadline"), "{resp}");
    server.shutdown();
}

#[test]
fn malformed_http_and_bodies_get_400_413() {
    use std::io::{Read, Write};
    let server = start_server(4, 64);
    // Raw malformed request line → 400.
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"BOGUS\r\n\r\n").unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
    // Oversized declared body → 413.
    let mut s = std::net::TcpStream::connect(server.addr()).unwrap();
    s.write_all(b"POST /generate HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n")
        .unwrap();
    let mut resp = String::new();
    s.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.1 413"), "{resp}");
    // Bad JSON → 400 over the normal client.
    let (status, _) =
        client::request(server.addr(), "POST", "/generate", Some("not json")).unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn hot_swap_is_visible_in_models_and_responses() {
    let server = start_server(4, 64);
    let schema = server.schema("tpch").unwrap();
    let trained = schema.registry.current().actor.clone();
    schema.publish_actor("retrained", 7, trained);
    let (status, models) = client::request(server.addr(), "GET", "/models", None).unwrap();
    assert_eq!(status, 200);
    let v = serde_json::from_str::<serde_json::Value>(&models).unwrap();
    let entry = &v.get("schemas").unwrap().as_array().unwrap()[0];
    assert_eq!(entry.get("model").unwrap().as_str(), Some("retrained"));
    assert_eq!(entry.get("version").unwrap().as_u64(), Some(7));
    let (_, resp) = client::request(
        server.addr(),
        "POST",
        "/generate",
        Some(r#"{"constraint":{"point":50},"n":1}"#),
    )
    .unwrap();
    let v = serde_json::from_str::<serde_json::Value>(&resp).unwrap();
    assert_eq!(v.get("model_version").unwrap().as_u64(), Some(7));
    server.shutdown();
}

#[test]
fn every_response_carries_request_id_and_adopts_inbound_traceparent() {
    let server = start_server(4, 64);
    // Plain GET: fresh id, echoed on both headers.
    let resp = client::request_full(server.addr(), "GET", "/healthz", &[], None).unwrap();
    assert_eq!(resp.status, 200);
    let id = resp
        .header("x-request-id")
        .expect("x-request-id")
        .to_string();
    assert_eq!(id.len(), 32, "{id:?}");
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    let tp = resp.header("traceparent").expect("traceparent");
    assert_eq!(tp, format!("00-{id}-0000000000000001-01"));

    // Inbound traceparent: the trace id is adopted verbatim.
    let inbound = "00-0123456789abcdef0123456789abcdef-00000000000000aa-01";
    let resp = client::request_full(
        server.addr(),
        "POST",
        "/generate",
        &[("traceparent", inbound)],
        Some(r#"{"constraint":{"point":50},"n":1,"seed":3}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(
        resp.header("x-request-id"),
        Some("0123456789abcdef0123456789abcdef")
    );
    // A hostile traceparent is ignored, not echoed: the server mints a
    // fresh id rather than propagating garbage.
    let resp = client::request_full(
        server.addr(),
        "GET",
        "/healthz",
        &[("traceparent", "00-zzzz-bad-01")],
        None,
    )
    .unwrap();
    let fresh = resp.header("x-request-id").unwrap();
    assert_eq!(fresh.len(), 32);
    assert_ne!(fresh, "zzzz");
    server.shutdown();
}

#[test]
fn forced_504_trace_is_retained_with_tiled_phases() {
    let server = start_server_with(ServeConfig {
        batch: 4,
        max_wait_ms: 50,
        ..ServeConfig::default()
    });

    let resp = client::request_full(
        server.addr(),
        "POST",
        "/generate",
        &[],
        Some(r#"{"constraint":{"min":1,"max":500},"n":2,"seed":5,"timeout_ms":0}"#),
    )
    .unwrap();
    assert_eq!(resp.status, 504, "{}", resp.body);
    let id = resp
        .header("x-request-id")
        .expect("x-request-id")
        .to_string();

    // Error traces are always retained by tail sampling; the echoed id
    // must resolve to the full span tree.
    let (status, body) =
        client::request(server.addr(), "GET", &format!("/debug/traces/{id}"), None).unwrap();
    assert_eq!(status, 200, "{body}");
    let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some(id.as_str()));
    assert_eq!(v.get("status").unwrap().as_u64(), Some(504));
    let wall = v.get("dur_us").unwrap().as_f64().unwrap();
    let spans = v.get("spans").unwrap().as_array().unwrap();
    let phase = |name: &str| -> (f64, f64) {
        let s = spans
            .iter()
            .find(|s| s.get("name").unwrap().as_str() == Some(name))
            .unwrap_or_else(|| panic!("missing span {name}: {body}"));
        (
            s.get("start_us").unwrap().as_f64().unwrap(),
            s.get("dur_us").unwrap().as_f64().unwrap(),
        )
    };
    let (qw_start, qw_dur) = phase("queue_wait");
    let (bg_start, bg_dur) = phase("batch_gather");
    let (le_start, le_dur) = phase("lane_exec");
    // Phases tile: each ends where the next begins, no overlap.
    assert!(qw_start + qw_dur <= bg_start + 1.0, "{body}");
    assert!(bg_start + bg_dur <= le_start + 1.0, "{body}");
    // What the phases leave of the wall is fixed dispatch +
    // completion-wakeup overhead — bound it absolutely (10ms covers
    // scheduler jitter) rather than as a fraction, since the gather wait
    // can dominate the wall.
    let covered = qw_dur + bg_dur + le_dur;
    assert!(
        covered <= wall && wall - covered <= 10_000.0,
        "phases {covered}µs vs wall {wall}µs: {body}"
    );

    // The trace also shows up in the ring listings.
    let (status, listing) = client::request(server.addr(), "GET", "/debug/traces", None).unwrap();
    assert_eq!(status, 200);
    assert!(listing.contains(&id), "{listing}");
    let (status, _) = client::request(server.addr(), "GET", "/debug/slowest", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

#[test]
fn event_backend_drains_in_flight_requests_on_shutdown() {
    // One event loop, so every connection's admission runs on one thread
    // in arrival order (see the `/healthz` fence below).
    let server = start_server_with(ServeConfig {
        batch: 4,
        event_threads: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    // Admit several requests over HTTP, then shut down while they may
    // still sit in a shard queue or window: drain semantics say every
    // admitted request completes.
    let requests = 4;
    let workers: Vec<_> = (0..requests)
        .map(|seed| {
            std::thread::spawn(move || {
                let body = format!(r#"{{"constraint":{{"min":1,"max":500}},"n":8,"seed":{seed}}}"#);
                client::request(addr, "POST", "/generate", Some(&body))
                    .expect("in-flight request answered across shutdown")
            })
        })
        .collect();
    // Each request misses the result cache inside the admission call that
    // then pushes it onto a shard queue. Once all misses show, a `/healthz`
    // answered by the same event loop proves those calls have returned,
    // so every request was admitted before the pool closes.
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.cache_stats().1 < requests {
        assert!(
            Instant::now() < deadline,
            "requests never reached admission"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let (status, _) = client::request(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
    for worker in workers {
        let (status, body) = worker.join().unwrap();
        assert_eq!(status, 200, "{body}");
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        assert_eq!(v.get("expired").unwrap().as_u64(), Some(0));
    }
    // The listener is gone: a fresh connect must fail or yield nothing.
    std::thread::sleep(Duration::from_millis(50));
    if let Ok(mut s) = std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(300)) {
        use std::io::{Read, Write};
        let _ = s.set_read_timeout(Some(Duration::from_millis(300)));
        let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
        let mut probe = Vec::new();
        let dead = matches!(s.read_to_end(&mut probe), Ok(0) | Err(_)) || probe.is_empty();
        assert!(dead, "listener still serving after shutdown");
    }
}

/// `(hits, misses)` of the result cache of `schema`, read from the
/// `/metrics` exposition.
fn cache_counters(addr: std::net::SocketAddr, schema: &str) -> (f64, f64) {
    let (status, metrics) = client::request(addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let value = |family: &str| -> f64 {
        let series = format!("{family}{{schema=\"{schema}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&series))
            .unwrap_or_else(|| panic!("no {series}in /metrics: {metrics}"))
            .parse()
            .unwrap()
    };
    (value("serve_cache_hits"), value("serve_cache_misses"))
}

#[test]
fn repeat_requests_hit_the_cache_with_identical_bytes() {
    // Its own schema label: the `/metrics` counters below are global.
    let server = start_schema_server(
        "tpch_cache",
        &GenConfig::fast().with_seed(SEED),
        ServeConfig {
            batch: 4,
            max_queue: 64,
            ..ServeConfig::default()
        },
    );
    let body = r#"{"constraint":{"metric":"cardinality","min":1,"max":500},"n":3,"seed":77}"#;
    let (status, first) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(status, 200, "{first}");
    let (h0, _, _) = server.cache_stats();
    let (status, second) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(status, 200);
    assert_eq!(first, second, "cached body must be bitwise-identical");
    let (h1, _, _) = server.cache_stats();
    assert!(h1 > h0, "second identical request must be a cache hit");
    // /models reports the cache holding at least this entry.
    let (_, models) = client::request(server.addr(), "GET", "/models", None).unwrap();
    let v = serde_json::from_str::<serde_json::Value>(&models).unwrap();
    let cache = v.get("schemas").unwrap().as_array().unwrap()[0]
        .get("cache")
        .expect("cache stats in /models")
        .clone();
    assert!(cache.get("entries").unwrap().as_u64().unwrap() >= 1);
    assert!(cache.get("bytes").unwrap().as_u64().unwrap() > 0);

    // Warm a small seed pool once, then replay it: nearly every lookup of
    // the replay must hit.
    let mut c = Client::connect(server.addr(), Duration::from_secs(30)).unwrap();
    let request = |c: &mut Client, seed: u64| {
        let body = format!(r#"{{"constraint":{{"min":1,"max":500}},"n":2,"seed":{seed}}}"#);
        let (status, resp) = c.request("POST", "/generate", Some(&body)).unwrap();
        assert_eq!(status, 200, "{resp}");
    };
    const POOL: u64 = 8;
    for seed in 0..POOL {
        request(&mut c, seed);
    }
    let (hits0, misses0) = cache_counters(server.addr(), "tpch_cache");
    for round in 0..5 {
        for seed in 0..POOL {
            request(&mut c, (seed + round) % POOL);
        }
    }
    let (hits1, misses1) = cache_counters(server.addr(), "tpch_cache");
    let (hits, misses) = (hits1 - hits0, misses1 - misses0);
    let hit_rate = hits / (hits + misses);
    assert!(
        hit_rate > 0.9,
        "replay hit rate {hit_rate:.3} ({hits} hits, {misses} misses)"
    );
    server.shutdown();
}

#[test]
fn hot_swap_invalidates_cached_responses() {
    let server = start_server(4, 64);
    let body = r#"{"constraint":{"point":50},"n":1,"seed":3}"#;
    let (status, v0) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(status, 200, "{v0}");
    // Warm the cache, then publish a new version: the old entry is keyed
    // on version 0 and must never satisfy a version-7 request.
    let (_, cached) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(v0, cached);
    let schema = server.schema("tpch").unwrap();
    let trained = schema.registry.current().actor.clone();
    schema.publish_actor("retrained", 7, trained);
    let (status, v7) = client::request(server.addr(), "POST", "/generate", Some(body)).unwrap();
    assert_eq!(status, 200, "{v7}");
    let parsed = serde_json::from_str::<serde_json::Value>(&v7).unwrap();
    assert_eq!(
        parsed.get("model_version").unwrap().as_u64(),
        Some(7),
        "stale cached response served after hot swap: {v7}"
    );
    server.shutdown();
}

#[test]
fn models_reports_the_shard_pool_queue() {
    let server = start_server_with(ServeConfig {
        shards: 2,
        max_queue: 8,
        ..ServeConfig::default()
    });
    let (status, models) = client::request(server.addr(), "GET", "/models", None).unwrap();
    assert_eq!(status, 200, "{models}");
    let v = serde_json::from_str::<serde_json::Value>(&models).unwrap();
    let queue = v.get("queue").expect("pool queue in /models");
    assert_eq!(queue.get("shards").unwrap().as_u64(), Some(2));
    assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(16));
    assert_eq!(queue.get("depth").unwrap().as_u64(), Some(0));
    server.shutdown();
}
