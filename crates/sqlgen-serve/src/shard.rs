//! Admission and gather: sharded generation workers behind the event loop.
//!
//! The flow is `shard queue → window → lanes → reply`:
//!
//! 1. The event loop pushes a [`GenTask`] onto the shard queue the ring
//!    routes it to ([`ShardPool::try_push`]); a full queue is a 429, a
//!    closed one a 503.
//! 2. The shard worker ([`shard_loop`]) gathers a window, groups it by
//!    schema and runs each group through [`run_window_tasks_with_model`]:
//!    trace-span tiling, [`crate::batcher::run_window`] on `lanes` lockstep
//!    lanes, and one [`Responder::send`] per task.
//!
//! Workers are decoupled from schemas: `N` identical workers each own a
//! bounded queue, and a consistent-hash ring over `(schema, model-version)`
//! routes every request to one shard. The ring gives two properties the
//! north-star multi-tenant deployment needs:
//!
//! * **Stability** — a `(schema, version)` pair always lands on the same
//!   shard, so its requests coalesce into shared windows instead of
//!   spraying across workers (window batching is what makes the GEMM
//!   lanes pay off).
//! * **Smooth rebalance** — adding a shard moves only `~1/N` of the keys,
//!   because each shard projects `VNODES` points onto the ring rather
//!   than one.
//!
//! Workers optionally pin to CPUs round-robin (`--pin-cpus`,
//! `sched_setaffinity`) so shard cache state stays core-local on
//! multi-core hosts. Purity makes all of this invisible in responses:
//! which shard (or window) runs a request cannot change its bytes.

use crate::batcher::{run_window, GenRequest, Schema, WindowRequest};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::ServedModel;
use sqlgen_engine::render;
use sqlgen_obs::trace::ROOT_SPAN;
use sqlgen_obs::{Labels, RequestTrace, TraceHandle};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Virtual nodes per shard on the hash ring.
const VNODES: usize = 40;

/// One generated query in a response.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    pub sql: String,
    pub measured: f64,
    pub satisfied: bool,
}

/// What a shard worker sends back for one task.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    pub queries: Vec<ServedQuery>,
    /// Episodes aborted by the request deadline (so `queries.len() +
    /// expired == n`).
    pub expired: usize,
    pub model_label: String,
    pub model_version: u64,
}

/// Receives finished outcomes for the connections of one event loop; the
/// loop's completion mailbox implements it.
pub(crate) trait Mailbox: Send + Sync {
    fn deliver(&self, token: usize, req_gen: u64, outcome: RequestOutcome);
}

/// Where a finished [`RequestOutcome`] goes: the owning event loop's
/// mailbox, addressed by connection slot. `req_gen` guards against slot
/// reuse — the loop drops a completion for a connection that timed out or
/// closed, never writing it to a stranger. Delivery never blocks.
pub struct Responder {
    pub(crate) mailbox: Arc<dyn Mailbox>,
    pub(crate) token: usize,
    pub(crate) req_gen: u64,
}

impl Responder {
    pub fn send(&self, outcome: RequestOutcome) {
        self.mailbox.deliver(self.token, self.req_gen, outcome);
    }
}

/// A request travelling through a shard queue.
pub struct GenTask {
    pub req: GenRequest,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    pub reply: Responder,
    /// Request trace the shard worker attributes `queue_wait` /
    /// `batch_gather` / `lane_exec` spans to (opened by the HTTP layer,
    /// `None` untraced).
    pub trace: Option<Arc<RequestTrace>>,
}

/// Window knobs; `lanes` is the GEMM batch width, `max_wait` the window
/// gather deadline, `max_batch_jobs` the episode-count cap per window.
#[derive(Debug, Clone)]
pub struct WindowConfig {
    pub lanes: usize,
    pub max_wait: Duration,
    pub max_batch_jobs: usize,
}

/// A task routed to a shard: the shard worker needs the schema bundle
/// alongside the request because one shard serves many schemas.
pub struct ShardTask {
    pub schema: Arc<Schema>,
    pub task: GenTask,
}

/// One shard worker's admission queue.
pub struct Shard {
    pub queue: BoundedQueue<ShardTask>,
}

/// FNV-1a 64-bit; stable across runs and platforms, which keeps routing
/// deterministic (the default `DefaultHasher` makes no such promise).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard workers plus the consistent-hash ring that routes to them.
pub struct ShardPool {
    shards: Vec<Arc<Shard>>,
    /// `(ring position, shard index)` sorted by position.
    ring: Vec<(u64, usize)>,
}

impl ShardPool {
    pub fn new(n: usize, queue_cap: usize) -> ShardPool {
        let n = n.max(1);
        let shards: Vec<Arc<Shard>> = (0..n)
            .map(|i| {
                Arc::new(Shard {
                    queue: BoundedQueue::named(queue_cap, &i.to_string()),
                })
            })
            .collect();
        let mut ring = Vec::with_capacity(n * VNODES);
        for (i, _) in shards.iter().enumerate() {
            for v in 0..VNODES {
                ring.push((fnv1a64(format!("shard/{i}/{v}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        ShardPool { shards, ring }
    }

    pub fn len(&self) -> usize {
        self.shards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Routes `(schema, model-version)` to its shard: first ring point at
    /// or after the key's hash, wrapping at the top.
    pub fn shard_for(&self, schema: &str, model_version: u64) -> &Arc<Shard> {
        let mut key = Vec::with_capacity(schema.len() + 9);
        key.extend_from_slice(schema.as_bytes());
        key.push(0);
        key.extend_from_slice(&model_version.to_le_bytes());
        let h = fnv1a64(&key);
        let idx = match self.ring.binary_search(&(h, usize::MAX)) {
            Ok(i) | Err(i) => i % self.ring.len(),
        };
        &self.shards[self.ring[idx].1]
    }

    /// Non-blocking admission to the routed shard. The rejected task rides
    /// back in the `Err` so the caller can answer 429/503 on its reply
    /// channel — worth the large variant. Routing keys on the registry's
    /// lock-free version hint, so admission never contends with a
    /// mid-publish writer holding the registry `RwLock`.
    #[allow(clippy::result_large_err)]
    pub fn try_push(
        &self,
        schema: &Arc<Schema>,
        task: GenTask,
    ) -> Result<(), (PushError, GenTask)> {
        self.shard_for(&schema.name, schema.registry.version_hint())
            .queue
            .try_push(ShardTask {
                schema: schema.clone(),
                task,
            })
            .map_err(|(e, st)| (e, st.task))
    }

    /// Spawns the worker threads. With `pin_cpus`, worker `i` pins to CPU
    /// `i % available_parallelism` — failure is a warning, not an error
    /// (cgroup masks can forbid it).
    pub fn spawn_workers(&self, cfg: &WindowConfig, pin_cpus: bool) -> Vec<JoinHandle<()>> {
        let ncpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = shard.clone();
                let cfg = cfg.clone();
                std::thread::Builder::new()
                    .name(format!("sqlgen-shard-{i}"))
                    .spawn(move || {
                        if pin_cpus {
                            #[cfg(target_os = "linux")]
                            if let Err(e) = crate::sys::pin_current_thread(i % ncpus) {
                                sqlgen_obs::obs_warn!("[serve] shard {i}: cpu pinning failed: {e}");
                            }
                            #[cfg(not(target_os = "linux"))]
                            let _ = ncpus;
                        }
                        shard_loop(&shard, &cfg);
                    })
                    .expect("spawn shard worker")
            })
            .collect()
    }

    /// Total queued tasks across all shards (bench queue-depth sampling).
    pub fn depth(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Total admission capacity: shards × per-shard `max_queue`.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.queue.capacity()).sum()
    }

    /// Stops admission on every shard; queued work still drains.
    pub fn close(&self) {
        for s in &self.shards {
            s.queue.close();
        }
    }
}

/// Shard-local model snapshots: one `(schema, generation, model)` entry
/// per schema this worker has served. Between windows the worker refreshes
/// the registry (disk scan, between windows only — never mid-window) and
/// re-reads `current()` only when the publish generation moved, so the
/// steady-state per-window registry cost is one atomic load instead of a
/// `RwLock` read + `Arc` clone per window. Bounded by the number of live
/// schemas, which the server fixes at startup.
struct ModelCache {
    entries: Vec<(Arc<Schema>, u64, Arc<ServedModel>)>,
}

impl ModelCache {
    fn new() -> ModelCache {
        ModelCache {
            entries: Vec::new(),
        }
    }

    /// The model the next window on `schema` should run. Refreshes the
    /// registry from disk first; a successful swap invalidates the result
    /// cache.
    fn model_for(&mut self, schema: &Arc<Schema>) -> Arc<ServedModel> {
        if let Ok(true) = schema.registry.refresh() {
            schema.cache.clear();
        }
        let generation = schema.registry.generation();
        match self
            .entries
            .iter_mut()
            .find(|(s, _, _)| Arc::ptr_eq(s, schema))
        {
            Some(entry) => {
                if entry.1 != generation {
                    entry.1 = generation;
                    entry.2 = schema.registry.current();
                }
                entry.2.clone()
            }
            None => {
                let model = schema.registry.current();
                self.entries
                    .push((schema.clone(), generation, model.clone()));
                model
            }
        }
    }
}

/// Shard worker body: gather a window, group the gathered tasks by schema
/// preserving arrival order, and run one window per schema group. Runs
/// until the shard's queue is closed and drained; every admitted task gets
/// exactly one reply.
///
/// Gather policy: drain whatever is already queued without waiting, and
/// keep waiting (bounded by `max_wait`) only while the window holds fewer
/// jobs than one GEMM lane width. Closed-loop bursts arrive together and
/// fill the window on the first drain, so they never pay the wait; smooth
/// open-loop arrivals would otherwise each get a private window and pay
/// the full per-window fixed cost (env + lane-state setup), capping
/// throughput far below the batched capacity.
fn shard_loop(shard: &Shard, cfg: &WindowConfig) {
    let mut models = ModelCache::new();
    loop {
        let Some(first) = shard.queue.pop_timeout(Duration::from_millis(50)) else {
            if shard.queue.is_closed() && shard.queue.is_empty() {
                return;
            }
            continue;
        };
        let gather_deadline = Instant::now() + cfg.max_wait;
        let mut gathered = vec![(first, Instant::now())];
        let mut job_count = gathered[0].0.task.req.n;
        while job_count < cfg.max_batch_jobs {
            match shard.queue.try_pop() {
                Some(t) => {
                    job_count += t.task.req.n;
                    gathered.push((t, Instant::now()));
                }
                None => {
                    if job_count >= cfg.lanes {
                        break;
                    }
                    let now = Instant::now();
                    if now >= gather_deadline {
                        break;
                    }
                    match shard.queue.pop_timeout(gather_deadline - now) {
                        Some(t) => {
                            job_count += t.task.req.n;
                            gathered.push((t, Instant::now()));
                        }
                        None => break,
                    }
                }
            }
        }
        // Group by schema, first-seen order. Purity means the grouping
        // cannot change any response; it only decides window composition.
        type SchemaGroup = (Arc<Schema>, Vec<(GenTask, Instant)>);
        let mut groups: Vec<SchemaGroup> = Vec::new();
        for (st, popped) in gathered {
            match groups.iter_mut().find(|(s, _)| Arc::ptr_eq(s, &st.schema)) {
                Some((_, tasks)) => tasks.push((st.task, popped)),
                None => groups.push((st.schema, vec![(st.task, popped)])),
            }
        }
        for (schema, tasks) in groups {
            let model = models.model_for(&schema);
            run_window_tasks_with_model(&schema, &model, tasks, cfg);
        }
    }
}

/// Executes one gathered window with the model snapshot chosen by the
/// caller: trace-span tiling, [`run_window`], and replies. The shard loop
/// resolves `model` once per `(schema, registry generation)` and reuses
/// the `Arc` across windows, so steady-state windows skip the registry
/// `RwLock` entirely.
pub fn run_window_tasks_with_model(
    schema: &Schema,
    model: &Arc<ServedModel>,
    tasks: Vec<(GenTask, Instant)>,
    cfg: &WindowConfig,
) {
    let job_count: usize = tasks.iter().map(|(t, _)| t.req.n).sum();
    // One labeled series per (schema, batch_width); the lookup is a map
    // probe per window, invisible next to the window itself.
    let phase_labels = Labels::new()
        .with("schema", &schema.name)
        .with("batch_width", &cfg.lanes.to_string());
    let m = sqlgen_obs::metrics::global();
    let queue_wait_h = m.histogram_with("serve.phase.queue_wait_us", &phase_labels);
    let gather_h = m.histogram_with("serve.phase.gather_us", &phase_labels);
    let exec_h = m.histogram_with("serve.phase.exec_us", &phase_labels);
    let started = Instant::now();
    let reqs: Vec<WindowRequest> = tasks
        .iter()
        .map(|(t, popped)| {
            queue_wait_h.record_silent((*popped - t.enqueued).as_micros() as f64);
            gather_h.record_silent((started - *popped).as_micros() as f64);
            // queue_wait ends where batch_gather starts and batch_gather
            // ends where lane_exec starts, so the three phases tile the
            // request wall time without overlap. lane_exec stays open
            // until the window finishes; per-job `episode` spans parent
            // under it.
            let trace = t.trace.as_ref().map(|tr| {
                tr.span_between("queue_wait", ROOT_SPAN, t.enqueued, *popped);
                tr.span_between("batch_gather", ROOT_SPAN, *popped, started);
                let lane = tr.open_span("lane_exec", ROOT_SPAN, started);
                tr.annotate_str("schema", &schema.name);
                tr.annotate_str("model", &model.label);
                tr.annotate_num("model_version", model.version as f64);
                tr.annotate_num("window_requests", tasks.len() as f64);
                tr.annotate_num("window_jobs", job_count as f64);
                tr.annotate_num("batch_width", cfg.lanes as f64);
                TraceHandle {
                    trace: tr.clone(),
                    parent: lane,
                }
            });
            WindowRequest {
                constraint: t.req.constraint,
                n: t.req.n,
                seed: t.req.seed,
                deadline: t.deadline,
                trace,
            }
        })
        .collect();
    sqlgen_obs::obs_record!("serve.batch.requests", tasks.len() as f64);
    sqlgen_obs::obs_record!("serve.batch.jobs", job_count as f64);
    for (t, _) in &tasks {
        sqlgen_obs::obs_record!(
            "serve.queue.wait_us",
            (started - t.enqueued).as_micros() as f64
        );
    }
    // Windows run on the int8 snapshot when the registry quantizes.
    let outcomes = match &model.quant {
        Some(q) => run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &reqs,
            cfg.lanes,
            Some(&schema.refiner),
        ),
        None => run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &reqs,
            cfg.lanes,
            Some(&schema.refiner),
        ),
    };
    let window_end = Instant::now();
    sqlgen_obs::obs_record!(
        "serve.window.latency_us",
        (window_end - started).as_micros() as f64
    );
    for r in &reqs {
        if let Some(handle) = &r.trace {
            handle.trace.close_span(handle.parent, window_end);
        }
        exec_h.record_silent((window_end - started).as_micros() as f64);
    }
    for ((task, _), out) in tasks.into_iter().zip(outcomes) {
        let queries = out
            .episodes
            .iter()
            .map(|ep| ServedQuery {
                sql: render(&ep.statement),
                measured: ep.measured,
                satisfied: ep.satisfied,
            })
            .collect();
        task.reply.send(RequestOutcome {
            queries,
            expired: out.expired,
            model_label: model.label.clone(),
            model_version: model.version,
        });
    }
}

/// Test mailbox: records every delivery as `(token, outcome)`.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct RecordingMailbox {
    pub(crate) delivered: std::sync::Mutex<Vec<(usize, RequestOutcome)>>,
}

#[cfg(test)]
impl Mailbox for RecordingMailbox {
    fn deliver(&self, token: usize, _req_gen: u64, outcome: RequestOutcome) {
        self.delivered
            .lock()
            .expect("recording mailbox")
            .push((token, outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_version_sensitive() {
        let pool = ShardPool::new(4, 8);
        let a1 = Arc::as_ptr(pool.shard_for("tpch", 1));
        let a2 = Arc::as_ptr(pool.shard_for("tpch", 1));
        assert_eq!(a1, a2, "same key must route to the same shard");
        // Across many (schema, version) keys, more than one shard is used.
        let mut seen = std::collections::HashSet::new();
        for v in 0..32u64 {
            seen.insert(Arc::as_ptr(pool.shard_for("tpch", v)));
            seen.insert(Arc::as_ptr(pool.shard_for("imdb", v)));
        }
        assert!(seen.len() > 1, "keys should spread across shards");
    }

    #[test]
    fn ring_growth_moves_only_a_fraction_of_keys() {
        let small = ShardPool::new(4, 8);
        let large = ShardPool::new(5, 8);
        let keys: Vec<String> = (0..400).map(|i| format!("schema-{i}")).collect();
        let moved = keys
            .iter()
            .filter(|k| ring_index(&small, k) != ring_index(&large, k))
            .count();
        // Consistent hashing: going 4 → 5 shards should move roughly 1/5
        // of keys, not most of them. Allow generous slack.
        assert!(moved < keys.len() / 2, "moved {moved} of {}", keys.len());
    }

    #[test]
    fn shard_model_cache_reuses_snapshots_until_publish() {
        let db = sqlgen_storage::gen::tpch_database(0.05, 2);
        let config = sqlgen_core::GenConfig::fast().with_seed(11);
        let schema = Arc::new(Schema::build("t", &db, &config, None, 8));
        let mut cache = ModelCache::new();
        let a = cache.model_for(&schema);
        let b = cache.model_for(&schema);
        assert!(
            Arc::ptr_eq(&a, &b),
            "no publish between windows → cached Arc is reused"
        );
        schema.publish_actor("trained", 3, a.actor.clone());
        let c = cache.model_for(&schema);
        assert!(
            !Arc::ptr_eq(&b, &c),
            "a publish must invalidate the cached snapshot"
        );
        assert_eq!(c.version, 3);
        assert_eq!(c.label, "trained");
    }

    #[test]
    fn shard_loop_replies_to_every_task_and_drains_on_close() {
        let db = sqlgen_storage::gen::tpch_database(0.05, 2);
        let config = sqlgen_core::GenConfig::fast().with_seed(11);
        let schemas = [
            Arc::new(Schema::build("a", &db, &config, None, 0)),
            Arc::new(Schema::build("b", &db, &config, None, 0)),
        ];
        let pool = ShardPool::new(1, 16);
        let mailbox = Arc::new(RecordingMailbox::default());
        let tasks = 6;
        for token in 0..tasks {
            let task = GenTask {
                req: GenRequest {
                    schema: String::new(),
                    constraint: sqlgen_core::Constraint::cardinality_range(1.0, 500.0),
                    n: 2,
                    seed: token as u64,
                    timeout_ms: None,
                },
                deadline: None,
                enqueued: Instant::now(),
                reply: Responder {
                    mailbox: mailbox.clone(),
                    token,
                    req_gen: 0,
                },
                trace: None,
            };
            pool.try_push(&schemas[token % 2], task)
                .map_err(|(e, _)| e)
                .unwrap();
        }
        // Close before the worker starts: it must still drain all queued
        // work, then return.
        pool.close();
        let cfg = WindowConfig {
            lanes: 4,
            max_wait: Duration::from_millis(2),
            max_batch_jobs: 8,
        };
        shard_loop(&pool.shards[0], &cfg);
        assert_eq!(pool.depth(), 0);
        let mut delivered = mailbox.delivered.lock().unwrap().clone();
        delivered.sort_by_key(|(token, _)| *token);
        let tokens: Vec<usize> = delivered.iter().map(|(token, _)| *token).collect();
        assert_eq!(tokens, (0..tasks).collect::<Vec<_>>(), "one reply per task");
        for (_, out) in &delivered {
            assert_eq!(out.queries.len() + out.expired, 2);
            assert_eq!(out.model_label, "builtin");
        }
    }

    fn ring_index(pool: &ShardPool, schema: &str) -> usize {
        let shard = pool.shard_for(schema, 0);
        pool.shards
            .iter()
            .position(|s| Arc::ptr_eq(s, shard))
            .unwrap()
    }
}
