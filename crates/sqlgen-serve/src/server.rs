//! The HTTP server: config, routing, `/generate` admission and graceful
//! shutdown.
//!
//! Thread layout (all std threads, no async runtime; Linux only — see
//! `event_loop.rs` for the transport):
//!
//! ```text
//! acceptor ──► N event loops ──ShardPool::try_push──► M shard workers
//!                  │                                        │
//!          parse, route, cache                  gather a window,
//!          hits answered in place;              run_window on `batch`
//!          429 full / 503 closed                lanes, reply by mailbox
//! ```
//!
//! Shutdown (`ServerHandle::shutdown`) drains rather than aborts: the
//! listener stops accepting, `/healthz` flips to 503, the shard queues
//! close (new `/generate` → 503) while already-admitted tasks run to
//! completion, and in-flight HTTP exchanges finish with
//! `Connection: close`.

use crate::batcher::{GenRequest, Schema};
use crate::cache::CacheKey;
use crate::http::{Limits, Response};
use crate::queue::PushError;
use crate::shard::{GenTask, RequestOutcome, Responder, ShardPool};
use sqlgen_obs::{Labels, RequestTrace, TraceContext, TraceStore, TraceStoreConfig};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server knobs; the CLI exposes the first four as
/// `--addr --batch --max-queue --max-wait-ms`.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Lockstep GEMM lanes per generation window.
    pub batch: usize,
    /// Admission queue capacity per shard; beyond it requests get 429.
    /// The server admits at most `shards × max_queue` tasks in total.
    pub max_queue: usize,
    /// How long a shard worker waits to coalesce a window.
    pub max_wait_ms: u64,
    /// Episode-count cap per window.
    pub max_batch_jobs: usize,
    /// Idle keep-alive and slow-request cap per connection.
    pub read_timeout_ms: u64,
    /// How long a connection may go without write progress.
    pub write_timeout_ms: u64,
    /// Value of the `Retry-After` header on 429.
    pub retry_after_s: u64,
    /// Generation deadline when the request has no `timeout_ms`.
    pub default_timeout_ms: u64,
    pub limits: Limits,
    /// Completed-trace ring capacity (see [`TraceStoreConfig`]).
    pub trace_capacity: usize,
    /// Percent of ordinary (non-error, non-slow) traces retained.
    pub trace_sample_pct: u64,
    /// Event-loop threads (`--event-threads`).
    pub event_threads: usize,
    /// Shard workers behind the consistent-hash router (`--shards`).
    pub shards: usize,
    /// Result-cache budget in MiB per schema (`--cache-mb`; 0 disables).
    pub cache_mb: usize,
    /// Pin shard workers to CPUs round-robin (`--pin-cpus`).
    pub pin_cpus: bool,
    /// Kernel send-buffer cap per connection; `None` keeps the OS
    /// default. Tests shrink it to force partial writes.
    pub sndbuf: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:8080".to_string(),
            batch: 8,
            max_queue: 64,
            max_wait_ms: 5,
            max_batch_jobs: 64,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            retry_after_s: 1,
            default_timeout_ms: 30_000,
            limits: Limits::default(),
            trace_capacity: 512,
            trace_sample_pct: 10,
            event_threads: 2,
            shards: 1,
            cache_mb: 64,
            pin_cpus: false,
            sndbuf: None,
        }
    }
}

pub(crate) struct ServerState {
    pub(crate) schemas: Vec<Arc<Schema>>,
    /// The shard queues every `/generate` is admitted through.
    pub(crate) pool: ShardPool,
    pub(crate) draining: AtomicBool,
    pub(crate) config: ServeConfig,
    /// Tail-sampled ring of completed request traces (`/debug/traces`).
    pub(crate) traces: Arc<TraceStore>,
}

impl ServerState {
    fn new(config: ServeConfig, schemas: Vec<Schema>) -> ServerState {
        let traces = Arc::new(TraceStore::new(TraceStoreConfig {
            capacity: config.trace_capacity.max(1),
            sample_pct: config.trace_sample_pct,
            ..TraceStoreConfig::default()
        }));
        let schemas: Vec<Arc<Schema>> = schemas.into_iter().map(Arc::new).collect();
        for schema in &schemas {
            schema.cache.set_budget(config.cache_mb * 1024 * 1024);
        }
        ServerState {
            schemas,
            pool: ShardPool::new(config.shards.max(1), config.max_queue),
            draining: AtomicBool::new(false),
            config,
            traces,
        }
    }
}

/// A running server. Dropping the handle leaks the threads; call
/// [`ServerHandle::shutdown`] to drain and join them.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    #[cfg(target_os = "linux")]
    backend: crate::event_loop::EventBackend,
}

impl ServerHandle {
    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct handle to a schema (tests and the in-process publish path).
    pub fn schema(&self, name: &str) -> Option<Arc<Schema>> {
        self.state.schemas.iter().find(|s| s.name == name).cloned()
    }

    /// Owned sampler of admitted-but-unstarted tasks across the shard
    /// queues: a closure the bench can move into a monitoring thread while
    /// the handle itself stays on the driver thread.
    pub fn depth_probe(&self) -> Box<dyn Fn() -> usize + Send + Sync> {
        let state = self.state.clone();
        Box::new(move || state.pool.depth())
    }

    /// `(hits, misses, evictions)` summed over every schema's result
    /// cache.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        let mut total = (0, 0, 0);
        for s in &self.state.schemas {
            let (h, m, e) = s.cache.stats();
            total = (total.0 + h, total.1 + m, total.2 + e);
        }
        total
    }

    /// Graceful drain: stop accepting, finish in-flight work, join all
    /// threads.
    pub fn shutdown(self) {
        self.state.draining.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        self.backend.shutdown(&self.state.pool);
    }
}

/// Binds, spawns the acceptor, event loops and shard workers, and returns
/// immediately.
#[cfg(target_os = "linux")]
pub fn serve(config: ServeConfig, schemas: Vec<Schema>) -> std::io::Result<ServerHandle> {
    assert!(!schemas.is_empty(), "serve() needs at least one schema");
    let listener = std::net::TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let state = Arc::new(ServerState::new(config, schemas));
    let backend = crate::event_loop::start(listener, state.clone())?;
    sqlgen_obs::obs_info!(
        "[serve] listening on {addr} ({} event loops, {} shards, batch {}, cache {} MiB, {} schemas)",
        state.config.event_threads.max(1),
        state.pool.len(),
        state.config.batch.max(1),
        state.config.cache_mb,
        state.schemas.len()
    );
    Ok(ServerHandle {
        addr,
        state,
        backend,
    })
}

/// Serving runs on the epoll event loops, which exist only on Linux.
#[cfg(not(target_os = "linux"))]
pub fn serve(_config: ServeConfig, _schemas: Vec<Schema>) -> std::io::Result<ServerHandle> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "sqlgen-serve needs Linux (epoll event loops)",
    ))
}

/// Trace-header echo, trace offer, and per-endpoint request metrics —
/// everything a response needs on its way out.
pub(crate) fn finalize_response(
    state: &ServerState,
    endpoint: &'static str,
    started: Instant,
    ctx: TraceContext,
    trace: Option<Arc<RequestTrace>>,
    mut resp: Response,
) -> Response {
    // The response's own span is the trace root.
    let echo = TraceContext {
        trace_id: ctx.trace_id,
        parent_span: sqlgen_obs::trace::ROOT_SPAN,
    };
    resp = resp
        .with_header("x-request-id", echo.request_id())
        .with_header("traceparent", echo.render_traceparent());
    if let Some(trace) = trace {
        state.traces.offer(trace.finish(resp.status));
    }
    sqlgen_obs::obs_count!("serve.http.requests.count");
    let labels = Labels::new()
        .with("endpoint", endpoint)
        .with("status", &resp.status.to_string());
    let m = sqlgen_obs::metrics::global();
    m.counter_with("serve.http.requests", &labels).inc(1);
    m.histogram_with("serve.http.latency_us", &labels)
        .record(started.elapsed().as_micros() as f64);
    resp
}

/// Metric label for the per-endpoint latency series.
pub(crate) fn endpoint_label(path: &str) -> &'static str {
    let path = path.split('?').next().unwrap_or("");
    if path.starts_with("/debug/") {
        return "debug";
    }
    match path {
        "/generate" => "generate",
        "/healthz" => "healthz",
        "/metrics" => "metrics",
        "/models" | "/models/reload" => "models",
        _ => "other",
    }
}

/// Answers every endpoint except `POST /generate`, which the event loop
/// hands to [`admit_generate`] instead.
pub(crate) fn route(state: &ServerState, method: &str, path: &str) -> Response {
    let path = path.split('?').next().unwrap_or("");
    match (method, path) {
        ("GET", "/healthz") => {
            if state.draining.load(Ordering::SeqCst) {
                Response::json(503, r#"{"status":"draining"}"#.to_string())
            } else {
                Response::json(
                    200,
                    format!(r#"{{"status":"ok","schemas":{}}}"#, state.schemas.len()),
                )
            }
        }
        ("GET", "/metrics") => Response::text(200, sqlgen_obs::metrics::render_text()),
        ("GET", "/models") => Response::json(200, models_json(state)),
        ("GET", "/debug/traces") => {
            Response::json(200, traces_json(&state.traces, state.traces.recent(32)))
        }
        ("GET", "/debug/slowest") => {
            Response::json(200, traces_json(&state.traces, state.traces.slowest(16)))
        }
        ("GET", p) if p.starts_with("/debug/traces/") => {
            let id = p.strip_prefix("/debug/traces/").unwrap_or("");
            match TraceContext::parse_request_id(id) {
                None => Response::error(400, "trace id must be 32 hex characters"),
                Some(id) => match state.traces.get(id) {
                    Some(t) => Response::json(200, t.to_json().to_string()),
                    None => Response::error(404, "trace not found (evicted or not sampled)"),
                },
            }
        }
        ("POST", "/models/reload") => reload(state),
        (_, "/healthz" | "/metrics" | "/models" | "/models/reload" | "/generate") => {
            Response::error(405, "method not allowed")
        }
        (_, p) if p.starts_with("/debug/") => Response::error(405, "method not allowed"),
        _ => Response::error(404, "no such endpoint"),
    }
}

/// Summary listing for `/debug/traces` and `/debug/slowest`, with the
/// store's sampling stats alongside.
fn traces_json(store: &TraceStore, traces: Vec<Arc<sqlgen_obs::FinishedTrace>>) -> String {
    let (offered, retained, held) = store.stats();
    let entries: Vec<String> = traces
        .iter()
        .map(|t| t.summary_json().to_string())
        .collect();
    format!(
        r#"{{"offered":{offered},"retained":{retained},"held":{held},"traces":[{}]}}"#,
        entries.join(",")
    )
}

fn models_json(state: &ServerState) -> String {
    let entries: Vec<String> = state
        .schemas
        .iter()
        .map(|s| {
            let m = s.registry.current();
            let (hits, misses, evictions) = s.cache.stats();
            format!(
                r#"{{"name":{},"model":{},"version":{},"quantized":{},"cache":{{"entries":{},"bytes":{},"hits":{hits},"misses":{misses},"evictions":{evictions}}}}}"#,
                json_str(&s.name),
                json_str(&m.label),
                m.version,
                m.quant.is_some(),
                s.cache.len(),
                s.cache.bytes()
            )
        })
        .collect();
    format!(
        r#"{{"queue":{{"shards":{},"depth":{},"capacity":{}}},"schemas":[{}]}}"#,
        state.pool.len(),
        state.pool.depth(),
        state.pool.capacity(),
        entries.join(",")
    )
}

fn reload(state: &ServerState) -> Response {
    let mut entries = Vec::new();
    for s in &state.schemas {
        let entry = match s.registry.refresh() {
            Ok(swapped) => {
                if swapped {
                    // Version-keyed entries are already unreachable; this
                    // just frees their bytes immediately.
                    s.cache.clear();
                }
                let m = s.registry.current();
                format!(
                    r#"{{"name":{},"swapped":{},"model":{},"version":{}}}"#,
                    json_str(&s.name),
                    swapped,
                    json_str(&m.label),
                    m.version
                )
            }
            Err(e) => format!(
                r#"{{"name":{},"swapped":false,"error":{}}}"#,
                json_str(&s.name),
                json_str(&e.to_string())
            ),
        };
        entries.push(entry);
    }
    Response::json(200, format!(r#"{{"schemas":[{}]}}"#, entries.join(",")))
}

/// What `/generate` admission decided: answer now, or wait for the shard
/// worker's reply.
pub(crate) enum Admission {
    Respond(Response),
    Queued {
        req: GenRequest,
        schema: Arc<Schema>,
        /// When the connection stops waiting and answers 504 itself.
        reply_deadline: Instant,
    },
}

/// `/generate` up to admission: parse the body, resolve the schema, answer
/// a cache hit in place, otherwise push a task that replies through
/// `reply` onto the routed shard queue — 429 with `Retry-After` when that
/// queue is full, 503 once the pool is closed.
pub(crate) fn admit_generate(
    state: &ServerState,
    body: &[u8],
    trace: Option<&Arc<RequestTrace>>,
    reply: Responder,
) -> Admission {
    let Ok(text) = std::str::from_utf8(body) else {
        return Admission::Respond(Response::error(400, "body is not utf-8"));
    };
    let req = match GenRequest::from_json(text) {
        Ok(req) => req,
        Err(e) => return Admission::Respond(Response::error(400, &e)),
    };
    if let Some(tr) = trace {
        tr.annotate_num("n", req.n as f64);
        tr.annotate_num("seed", req.seed as f64);
    }
    let Some(schema) = (if req.schema.is_empty() {
        state.schemas.first().cloned()
    } else {
        state.schemas.iter().find(|s| s.name == req.schema).cloned()
    }) else {
        let msg = format!("unknown schema {:?}", req.schema);
        return Admission::Respond(Response::error(404, &msg));
    };

    // Responses are pure functions of (model-version, schema, seed,
    // constraint, n), so a cached body is the same bytes a fresh rollout
    // would produce — answered without touching a queue.
    let key = CacheKey::for_request(&req, schema.registry.current().version);
    if let Some(body) = schema.cache.get(&key) {
        if let Some(tr) = trace {
            tr.annotate_str("cache", "hit");
        }
        return Admission::Respond(Response::json(200, body.as_ref().clone()));
    }
    if let Some(tr) = trace {
        tr.annotate_str("cache", "miss");
    }

    let now = Instant::now();
    let cfg = &state.config;
    // `timeout_ms: 0` is honoured as an already-expired deadline — useful
    // for probing the expiry path deterministically.
    let timeout = Duration::from_millis(req.timeout_ms.unwrap_or(cfg.default_timeout_ms));
    let deadline = now + timeout;
    let task = GenTask {
        req: req.clone(),
        deadline: Some(deadline),
        enqueued: now,
        reply,
        trace: trace.cloned(),
    };
    match state.pool.try_push(&schema, task) {
        Err((PushError::Full, _)) => Admission::Respond(
            Response::error(429, "queue full; retry later")
                .with_header("retry-after", cfg.retry_after_s.to_string()),
        ),
        Err((PushError::Closed, _)) => {
            Admission::Respond(Response::error(503, "server is shutting down"))
        }
        // The lanes abort at `deadline`; the grace term covers window
        // gather time plus the final lockstep iteration.
        Ok(()) => Admission::Queued {
            req,
            schema,
            reply_deadline: deadline + Duration::from_millis(cfg.max_wait_ms + 2_000),
        },
    }
}

/// Renders the `/generate` 200 body. Pub for the cache-equivalence fuzz
/// family, which must compare cached bytes against a fresh rendering.
pub fn outcome_json(schema: &str, req: &GenRequest, out: &RequestOutcome) -> String {
    let queries: Vec<String> = out
        .queries
        .iter()
        .map(|q| {
            format!(
                r#"{{"sql":{},"measured":{},"satisfied":{}}}"#,
                json_str(&q.sql),
                json_num(q.measured),
                q.satisfied
            )
        })
        .collect();
    format!(
        r#"{{"schema":{},"model":{},"model_version":{},"seed":{},"n":{},"expired":{},"queries":[{}]}}"#,
        json_str(schema),
        json_str(&out.model_label),
        out.model_version,
        req.seed,
        req.n,
        out.expired,
        queries.join(",")
    )
}

/// JSON string literal (quoted + escaped) via the vendored serde_json
/// `Value` renderer, so escaping rules live in one place.
fn json_str(s: &str) -> String {
    serde_json::Value::String(s.to_string()).to_string()
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

// Route and admission tests run on a `ServerState` whose shard workers
// were never spawned, so admission is deterministic: the shard queue is
// exactly as full as the test made it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{RecordingMailbox, ServedQuery};
    use sqlgen_core::{Constraint, GenConfig};
    use sqlgen_storage::gen::tpch_database;

    fn test_state(shards: usize, max_queue: usize) -> ServerState {
        let db = tpch_database(0.05, 2);
        let config = GenConfig::fast().with_seed(11);
        let schema = Schema::build("tpch", &db, &config, None, max_queue);
        let config = ServeConfig {
            shards,
            max_queue,
            ..ServeConfig::default()
        };
        ServerState::new(config, vec![schema])
    }

    fn admit(state: &ServerState, body: &[u8]) -> Admission {
        let reply = Responder {
            mailbox: Arc::new(RecordingMailbox::default()),
            token: 0,
            req_gen: 0,
        };
        admit_generate(state, body, None, reply)
    }

    fn response(admission: Admission) -> Response {
        match admission {
            Admission::Respond(resp) => resp,
            Admission::Queued { req, .. } => panic!("unexpectedly admitted {req:?}"),
        }
    }

    fn point_request(seed: u64) -> Vec<u8> {
        format!(r#"{{"constraint":{{"point":1}},"seed":{seed}}}"#).into_bytes()
    }

    #[test]
    fn unknown_paths_and_methods_get_404_and_405() {
        let state = test_state(1, 4);
        assert_eq!(route(&state, "GET", "/nope").status, 404);
        assert_eq!(route(&state, "DELETE", "/generate").status, 405);
        assert_eq!(route(&state, "POST", "/healthz").status, 405);
    }

    #[test]
    fn healthz_flips_to_503_while_draining() {
        let state = test_state(1, 4);
        assert_eq!(route(&state, "GET", "/healthz").status, 200);
        state.draining.store(true, Ordering::SeqCst);
        let resp = route(&state, "GET", "/healthz");
        assert_eq!(resp.status, 503);
        assert!(resp.body.contains("draining"));
    }

    #[test]
    fn generate_validates_body_and_schema() {
        let state = test_state(1, 4);
        assert_eq!(response(admit(&state, b"not json")).status, 400);
        assert_eq!(response(admit(&state, &[0xff, 0xfe])).status, 400);
        let unknown = br#"{"schema":"nope","constraint":{"point":1}}"#;
        assert_eq!(response(admit(&state, unknown)).status, 404);
        assert_eq!(state.pool.depth(), 0);
    }

    #[test]
    fn full_shard_queue_gets_429_with_retry_after() {
        let state = test_state(1, 2);
        for seed in 0..2 {
            assert!(matches!(
                admit(&state, &point_request(seed)),
                Admission::Queued { .. }
            ));
        }
        assert_eq!(state.pool.depth(), 2);
        let resp = response(admit(&state, &point_request(2)));
        assert_eq!(resp.status, 429);
        assert!(resp
            .headers
            .iter()
            .any(|(name, value)| name == "retry-after" && value == "1"));
        assert_eq!(state.pool.depth(), 2);
    }

    #[test]
    fn closed_pool_gets_503() {
        let state = test_state(1, 4);
        assert!(matches!(
            admit(&state, &point_request(0)),
            Admission::Queued { .. }
        ));
        state.pool.close();
        assert_eq!(response(admit(&state, &point_request(1))).status, 503);
        assert_eq!(state.pool.depth(), 1, "queued work stays for the drain");
    }

    #[test]
    fn models_and_metrics_render() {
        let state = test_state(2, 8);
        assert!(matches!(
            admit(&state, &point_request(0)),
            Admission::Queued { .. }
        ));
        let models = route(&state, "GET", "/models");
        assert_eq!(models.status, 200);
        let v = serde_json::from_str::<serde_json::Value>(&models.body).unwrap();
        let entry = &v.get("schemas").unwrap().as_array().unwrap()[0];
        assert_eq!(entry.get("name").unwrap().as_str(), Some("tpch"));
        assert_eq!(entry.get("model").unwrap().as_str(), Some("builtin"));
        assert_eq!(entry.get("quantized").unwrap().as_bool(), Some(false));
        let queue = v.get("queue").unwrap();
        assert_eq!(queue.get("shards").unwrap().as_u64(), Some(2));
        assert_eq!(queue.get("depth").unwrap().as_u64(), Some(1));
        assert_eq!(queue.get("capacity").unwrap().as_u64(), Some(16));
        assert_eq!(route(&state, "GET", "/metrics").status, 200);
        assert_eq!(route(&state, "POST", "/models/reload").status, 200);
    }

    #[test]
    fn outcome_json_escapes_sql() {
        let out = RequestOutcome {
            queries: vec![ServedQuery {
                sql: "SELECT \"x\"".to_string(),
                measured: 12.5,
                satisfied: true,
            }],
            expired: 1,
            model_label: "builtin".to_string(),
            model_version: 3,
        };
        let req = GenRequest {
            schema: String::new(),
            constraint: Constraint::cardinality_point(1.0),
            n: 2,
            seed: 7,
            timeout_ms: None,
        };
        let body = outcome_json("tpch", &req, &out);
        let v = serde_json::from_str::<serde_json::Value>(&body).unwrap();
        assert_eq!(
            v.get("queries").unwrap().as_array().unwrap()[0]
                .get("sql")
                .unwrap()
                .as_str(),
            Some("SELECT \"x\"")
        );
        assert_eq!(v.get("expired").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("model_version").unwrap().as_u64(), Some(3));
    }
}
