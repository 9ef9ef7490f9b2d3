//! The two serving workloads, run against an in-process server started
//! with the `ServeConfig` defaults `sqlgen serve` ships (only the address
//! and the startup training differ), driven by an open-loop load generator.
//!
//! - `serve-cold`: unique seeds, so the result cache never hits and every
//!   request goes through admission, shard gather and lane batching.
//! - `serve-warm`: seeds drawn from a small pool after a warm-up pass, so
//!   the cache answers nearly every request and HTTP, the event loop and
//!   the cache dominate.

use crate::check::{Checker, Tally};
use crate::layers::{nn_step_us_per_token, Counters, Layers, Snapshot};
use crate::stats::{
    max_passing_rung, median, parse_exposition, quantile, ratio, reportable_tail, Rung,
};
use crate::{
    cfg_f64, cfg_list, config, int, metric, num, peak_rss_mb, secs_since, text, Args, Report,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::{Map, Value};
use sqlgen_core::{Constraint, GenConfig, LearnedSqlGen};
use sqlgen_engine::Estimator;
use sqlgen_serve::client::Client;
use sqlgen_serve::{serve, Schema, ServeConfig, ServerHandle};
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::Database;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Consecutive chunks the closed-loop phase is split into for its median.
const CLOSED_CHUNKS: usize = 5;

/// One request of a schedule.
#[derive(Debug, Clone, Copy)]
struct Planned {
    seed: u64,
    n: usize,
}

/// One request as the load generator saw it; times in seconds from the
/// schedule's origin.
#[derive(Debug, Clone)]
struct Sample {
    planned: Planned,
    due: f64,
    sent: f64,
    done: f64,
    /// How late the generator itself sent: `sent - max(due, previous
    /// response on this connection)`. Waiting on the server is not the
    /// generator's lateness.
    own_late: f64,
    status: u16,
    /// The response body, kept only for requests not answered before.
    body: String,
    /// For a request answered before: whether the body was byte-equal to
    /// that first answer (compared as it arrives, so repeated requests
    /// keep no bodies).
    repeat: Option<bool>,
    request_id: String,
}

/// The first answer to each `(seed, n)` with its query counts.
struct KnownBody {
    body: String,
    returned: u64,
    satisfied: u64,
}

type Known = BTreeMap<(u64, usize), KnownBody>;

impl Sample {
    fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

struct Server {
    handle: ServerHandle,
    db: Database,
    generator: LearnedSqlGen,
    constraint: Constraint,
}

impl Server {
    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }
}

/// Starts a server the way `sqlgen serve --train N --range lo hi` does and
/// waits until `/healthz` answers. Returns the server, set-up seconds and
/// the startup training's seconds.
fn start_server(cfg: &Value, seed: u64) -> Result<(Server, f64, f64), String> {
    let s = |k: &str| cfg_f64(cfg, &["serve", k]);
    let t0 = Instant::now();
    let db = Benchmark::TpcH.build(s("scale"), seed);
    let gen_config = GenConfig::default().with_seed(seed);
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let schema = Schema::build(
        Benchmark::TpcH.name(),
        &db,
        &gen_config,
        None,
        config.max_queue,
    );
    let constraint = Constraint::cardinality_range(s("min"), s("max"));
    let t = Instant::now();
    let mut generator = LearnedSqlGen::new(&db, constraint, gen_config);
    generator.train(s("train_episodes") as usize);
    let train_s = secs_since(t);
    schema.publish_actor("trained", 1, generator.checkpoint().actor);
    let handle = serve(config, vec![schema]).map_err(|e| format!("cannot bind: {e}"))?;
    let mut client = Client::connect(handle.addr(), CLIENT_TIMEOUT).map_err(|e| e.to_string())?;
    loop {
        match client.request("GET", "/healthz", None) {
            Ok((200, _)) => break,
            Ok(_) if t0.elapsed() < CLIENT_TIMEOUT => std::thread::sleep(Duration::from_millis(1)),
            other => return Err(format!("server never became healthy: {other:?}")),
        }
    }
    let server = Server {
        handle,
        db,
        generator,
        constraint,
    };
    Ok((server, secs_since(t0), train_s))
}

/// A `/generate` body for the cardinality range `[lo, hi]`.
fn request_body((lo, hi): (f64, f64), p: Planned) -> String {
    format!(
        r#"{{"constraint":{{"metric":"cardinality","min":{lo},"max":{hi}}},"n":{},"seed":{}}}"#,
        p.n, p.seed
    )
}

/// `count` request sizes in the exact proportions of the fixed mix
/// (largest remainder), in seeded random order, so runs with different
/// seeds offer the same work.
fn sizes(rng: &mut StdRng, count: usize, mix: &[(usize, f64)]) -> Vec<usize> {
    let total: f64 = mix.iter().map(|(_, w)| w).sum();
    let quotas: Vec<f64> = mix.iter().map(|(_, w)| w / total * count as f64).collect();
    let mut take: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut order: Vec<usize> = (0..mix.len()).collect();
    order.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    for &i in order.iter().take(count - take.iter().sum::<usize>()) {
        take[i] += 1;
    }
    let mut out: Vec<usize> = mix
        .iter()
        .zip(&take)
        .flat_map(|(&(n, _), &k)| std::iter::repeat_n(n, k))
        .collect();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.random_range(0..=i));
    }
    out
}

fn size_mix(cfg: &Value) -> Vec<(usize, f64)> {
    let sizes = cfg_list(cfg, &["serve", "sizes"]);
    let weights = cfg_list(cfg, &["serve", "size_weights"]);
    assert_eq!(
        sizes.len(),
        weights.len(),
        "config sizes/size_weights differ in length"
    );
    sizes.into_iter().map(|n| n as usize).zip(weights).collect()
}

/// Runs `plan` open-loop at `rate` requests/s over `conns` keep-alive
/// connections (request `i` is due at `i / rate` and goes out on
/// connection `i % conns`, one outstanding request per connection).
/// Optionally samples the server's queue depth before every send.
fn open_loop(
    addr: SocketAddr,
    range: (f64, f64),
    plan: &[Planned],
    rate: f64,
    conns: usize,
    known: &Known,
    depth: Option<&(dyn Fn() -> usize + Sync)>,
) -> Result<(Vec<Sample>, usize), String> {
    let max_depth = AtomicUsize::new(0);
    let mut clients = Vec::new();
    for _ in 0..conns {
        clients.push(Client::connect(addr, CLIENT_TIMEOUT).map_err(|e| e.to_string())?);
    }
    // The schedule starts after every connection is up.
    let origin = Instant::now() + Duration::from_millis(20);
    let results: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let max_depth = &max_depth;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut prev_done = 0.0f64;
                    for i in (c..plan.len()).step_by(conns) {
                        let due = i as f64 / rate;
                        let due_at = origin + Duration::from_secs_f64(due);
                        let now = Instant::now();
                        if due_at > now {
                            std::thread::sleep(due_at - now);
                        }
                        if let Some(probe) = depth {
                            max_depth.fetch_max(probe(), Ordering::Relaxed);
                        }
                        let sent = (Instant::now() - origin).as_secs_f64();
                        let body = request_body(range, plan[i]);
                        let resp = client
                            .request_full("POST", "/generate", &[], Some(&body))
                            .map_err(|e| format!("request {i} failed: {e}"))?;
                        let done = (Instant::now() - origin).as_secs_f64();
                        let first = known.get(&(plan[i].seed, plan[i].n));
                        let repeat = first
                            .filter(|_| resp.status == 200)
                            .map(|f| f.body == resp.body);
                        out.push(Sample {
                            planned: plan[i],
                            due,
                            sent,
                            done,
                            own_late: sent - due.max(prev_done),
                            status: resp.status,
                            // Only a traced phase matches responses to traces.
                            request_id: if depth.is_some() {
                                resp.header("x-request-id").unwrap_or("").to_string()
                            } else {
                                String::new()
                            },
                            body: if repeat.is_some() {
                                String::new()
                            } else {
                                resp.body
                            },
                            repeat,
                        });
                        prev_done = done;
                    }
                    Ok(out)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("load thread panicked"))
            .collect()
    });
    let mut samples = Vec::with_capacity(plan.len());
    for r in results {
        samples.extend(r?);
    }
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    Ok((samples, max_depth.load(Ordering::Relaxed)))
}

fn metrics_snapshot(addr: SocketAddr) -> Result<Snapshot, String> {
    let (status, body) = sqlgen_serve::client::request(addr, "GET", "/metrics", None)
        .map_err(|e| format!("/metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    Ok(parse_exposition(&body))
}

/// Checks every response of a phase: status, JSON shape and each query
/// (parse, validate, estimator measure, satisfied flag); a request
/// answered before must come back byte-equal to its first answer. Returns
/// the returned and satisfied query counts.
fn check_responses(
    checker: &Checker,
    samples: &[Sample],
    known: &mut Known,
    tally: &mut Tally,
) -> (u64, u64) {
    let mut returned = 0u64;
    let mut satisfied = 0u64;
    for s in samples {
        let key = (s.planned.seed, s.planned.n);
        tally.checked += 1;
        if s.status != 200 {
            tally.fail(format!("status {} for seed {}", s.status, s.planned.seed));
            continue;
        }
        if let Some(same) = s.repeat {
            let first = &known[&key];
            if !same {
                tally.fail(format!(
                    "repeated request differs (seed {})",
                    s.planned.seed
                ));
            }
            tally.digest.update(first.body.as_bytes());
            returned += first.returned;
            satisfied += first.satisfied;
            continue;
        }
        let doc = match serde_json::parse_value(&s.body) {
            Ok(v) => v,
            Err(e) => {
                tally.fail(format!("bad JSON body: {e}"));
                continue;
            }
        };
        let queries = doc.get("queries").and_then(Value::as_array);
        let expired = doc.get("expired").and_then(Value::as_u64);
        let (Some(queries), Some(0)) = (queries, expired) else {
            tally.fail(format!(
                "expired or malformed response for seed {}",
                s.planned.seed
            ));
            continue;
        };
        if queries.len() != s.planned.n {
            tally.fail(format!(
                "asked {} queries, got {}",
                s.planned.n,
                queries.len()
            ));
            continue;
        }
        let mut inner = Tally::default();
        let mut sat_here = 0u64;
        for q in queries {
            let sql = q.get("sql").and_then(Value::as_str).unwrap_or("");
            let measured = q
                .get("measured")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            let sat = q.get("satisfied").and_then(Value::as_bool).unwrap_or(false);
            checker.check(&mut inner, sql, measured, sat);
            sat_here += sat as u64;
        }
        if let Some(e) = inner.errors.first() {
            tally.fail(e.clone());
        }
        tally.digest.update(s.body.as_bytes());
        returned += queries.len() as u64;
        satisfied += sat_here;
        known.entry(key).or_insert_with(|| KnownBody {
            body: s.body.clone(),
            returned: queries.len() as u64,
            satisfied: sat_here,
        });
    }
    (returned, satisfied)
}

/// Latency from the due time at a reportable tail and the ladder verdict
/// of one rung.
fn rung_of(samples: &[Sample], rate: f64, seconds: f64) -> Rung {
    let lat: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    let q = samples.len() / 4;
    let first: Vec<f64> = lat[..q.max(1)].to_vec();
    let last: Vec<f64> = lat[lat.len() - q.max(1)..].to_vec();
    let ok = samples.iter().filter(|s| s.status == 200).count();
    Rung {
        offered_rps: rate,
        achieved_rps: ok as f64 / seconds,
        tail_ms: quantile(&lat, reportable_tail(lat.len()).unwrap_or(1.0)),
        first_quarter_p50_ms: median(&first),
        last_quarter_p50_ms: median(&last),
        failed: samples.len() - ok,
    }
}

/// A schedule of `count` requests: unique seeds with the exact size mix
/// (cold), or uniform draws from the warm pool.
fn plan(
    rng: &mut StdRng,
    count: usize,
    mix: &[(usize, f64)],
    pool: Option<&[Planned]>,
) -> Vec<Planned> {
    match pool {
        Some(pool) => (0..count)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect(),
        None => sizes(rng, count, mix)
            .into_iter()
            .map(|n| Planned {
                seed: rng.random::<u64>() >> 1,
                n,
            })
            .collect(),
    }
}

pub fn run(args: &Args, warm: bool) -> Result<Report, String> {
    let cfg = config();
    let s = |k: &str| cfg_f64(&cfg, &["serve", k]);
    let phase_key = if warm { "warm" } else { "cold" };
    let w = |k: &str| cfg_f64(&cfg, &["serve", phase_key, k]);
    let mix = size_mix(&cfg);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let conns = (s("connections") as usize).min(nproc).max(1);
    let limit_ms = s("p99_limit_ms");
    let range = (s("min"), s("max"));
    // `sqlgen serve` always collects metrics; /metrics is part of its surface.
    sqlgen_obs::enable_metrics();

    // Set up several servers for the set-up time; the same training gives
    // the same weights, so a probe must come back byte-identical from each.
    let probe = Planned {
        seed: u64::MAX,
        n: 8,
    };
    let mut setups = Vec::new();
    let mut train_rates = Vec::new();
    let mut probe_bodies = Vec::new();
    let mut server = None;
    for k in 0..s("setups") as usize {
        let (srv, setup_s, train_s) = start_server(&cfg, args.seed)?;
        setups.push(setup_s);
        train_rates.push(s("train_episodes") / train_s);
        let (status, body) = sqlgen_serve::client::request(
            srv.addr(),
            "POST",
            "/generate",
            Some(&request_body(range, probe)),
        )
        .map_err(|e| format!("probe: {e}"))?;
        probe_bodies.push((status, body));
        if k + 1 < s("setups") as usize {
            srv.handle.shutdown();
        } else {
            server = Some(srv);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let mut violations = Vec::new();
    if probe_bodies.iter().any(|b| b != &probe_bodies[0]) || probe_bodies[0].0 != 200 {
        violations.push("servers with the same weights answered the probe differently".into());
    }

    let checker = Checker {
        schema_db: &server.db,
        estimator: Estimator::build(&server.db),
        constraint: server.constraint,
    };
    let mut rng = StdRng::seed_from_u64(args.seed ^ if warm { 0x5741_524d } else { 0x434f_4c44 });
    let mut tally = Tally::default();
    let mut known = Known::new();
    let mut attempted = 0u64;

    // Warm: every pool entry answered once, sequentially, before timing.
    let pool: Option<Vec<Planned>> =
        warm.then(|| plan(&mut rng, w("seed_pool") as usize, &mix, None));
    if let Some(pool) = &pool {
        let (samples, _) = open_loop(addr, range, pool, f64::INFINITY, 1, &known, None)?;
        attempted += samples.len() as u64;
        check_responses(&checker, &samples, &mut known, &mut tally);
    }

    // Reference rate: latency percentiles. A traced run splits it into an
    // untraced half (the overhead baseline) and a traced half.
    let ref_rate = w("reference_rps");
    let ref_count = (ref_rate * args.seconds * w("reference_share")).ceil() as usize;
    let reference = plan(&mut rng, ref_count, &mix, pool.as_deref());
    let (untraced_part, traced_part) = if args.trace {
        reference.split_at(ref_count / 2)
    } else {
        (&reference[..], &reference[..0])
    };
    let (ref_samples, _) = open_loop(addr, range, untraced_part, ref_rate, conns, &known, None)?;
    attempted += ref_samples.len() as u64;
    // The digest covers the warm-up and the first half of the reference
    // plan, which traced and untraced runs of one seed both send.
    let (first_half, second_half) = ref_samples.split_at(ref_count / 2);
    let (r1, s1) = check_responses(&checker, first_half, &mut known, &mut tally);
    let digest = tally.digest.hex();
    let (r2, s2) = check_responses(&checker, second_half, &mut known, &mut tally);
    let (ref_returned, ref_satisfied) = (r1 + r2, s1 + s2);
    let lat: Vec<f64> = ref_samples.iter().map(Sample::latency_ms).collect();
    let late: Vec<f64> = ref_samples.iter().map(|s| s.own_late * 1e3).collect();
    let late_p99 = quantile(&late, 0.99);
    // Judged at the highest percentile with ten samples beyond it (p99 at
    // full run length), so one stall in a short run is not a verdict.
    let late_tail = reportable_tail(late.len()).unwrap_or(0.5);
    let late_at_tail = quantile(&late, late_tail);
    if late_at_tail > s("max_late_ms_p99") {
        return Err(format!(
            "load generator fell behind its schedule: {late_at_tail:.2} ms late at \
             quantile {late_tail} of {} sends",
            late.len()
        ));
    }

    let mut detail = Map::new();
    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if !args.trace {
        // The fixed ladder, every rung run so each run sends the same
        // number of requests.
        let ladder = cfg_list(&cfg, &["serve", phase_key, "ladder_rps"]);
        let rung_s = args.seconds * w("ladder_share") / ladder.len() as f64;
        let mut rungs = Vec::new();
        for rate in ladder {
            let count = (rate * rung_s).ceil() as usize;
            let requests = plan(&mut rng, count, &mix, pool.as_deref());
            let (samples, _) = open_loop(addr, range, &requests, rate, conns, &known, None)?;
            attempted += samples.len() as u64;
            check_responses(&checker, &samples, &mut known, &mut tally);
            let span = samples.iter().map(|s| s.done).fold(0.0, f64::max);
            rungs.push(rung_of(&samples, rate, span));
        }
        // Throughput: a fixed number of requests sent closed-loop by one
        // keep-alive client, each request sent when the previous returns.
        let count = w("closed_requests") as usize;
        let requests = plan(&mut rng, count, &mix, pool.as_deref());
        let (samples, _) = open_loop(addr, range, &requests, f64::INFINITY, 1, &known, None)?;
        attempted += samples.len() as u64;
        // The median over consecutive chunks, so a transient stall of the
        // machine moves one chunk rather than the whole figure.
        let mut closed_rates = Vec::new();
        let mut chunk_start = 0.0;
        for part in samples.chunks(samples.len().div_ceil(CLOSED_CHUNKS)) {
            let (_, sat) = check_responses(&checker, part, &mut known, &mut tally);
            let chunk_end = part.last().map_or(chunk_start, |s| s.done);
            closed_rates.push(sat as f64 / (chunk_end - chunk_start));
            chunk_start = chunk_end;
        }
        let best = max_passing_rung(&rungs, limit_ms);
        detail.insert(
            "max_rate_at_slo_rps".into(),
            num(best.map_or(0.0, |b| b.offered_rps)),
        );
        detail.insert(
            "ladder".into(),
            Value::Array(
                rungs
                    .iter()
                    .map(|r| {
                        let mut m = Map::new();
                        m.insert("offered_rps".into(), num(r.offered_rps));
                        m.insert("achieved_rps".into(), num(r.achieved_rps));
                        m.insert("tail_ms".into(), num(r.tail_ms));
                        m.insert("first_quarter_p50_ms".into(), num(r.first_quarter_p50_ms));
                        m.insert("last_quarter_p50_ms".into(), num(r.last_quarter_p50_ms));
                        m.insert("failed".into(), int(r.failed as u64));
                        m.insert("passes".into(), Value::Bool(r.passes(limit_ms)));
                        Value::Object(m)
                    })
                    .collect(),
            ),
        );
        end_to_end = vec![
            metric("setup_s", median(&setups), "s"),
            metric("peak_rss_mb", peak_rss_mb(), "MiB"),
            metric("train_eps_per_s", median(&train_rates), "1/s"),
            metric(
                "satisfied_rate",
                ratio(ref_satisfied as f64, ref_returned as f64),
                "share",
            ),
            metric("satisfied_qps", median(&closed_rates), "1/s"),
            metric("latency_p50_ms", median(&lat), "ms"),
            metric("latency_p99_ms", quantile(&lat, 0.99), "ms"),
        ];
    } else {
        let before = metrics_snapshot(addr)?;
        let probe_fn = server.handle.depth_probe();
        let depth_probe: &(dyn Fn() -> usize + Sync) = &*probe_fn;
        let (traced, max_depth) = open_loop(
            addr,
            range,
            traced_part,
            ref_rate,
            conns,
            &known,
            Some(depth_probe),
        )?;
        let after = metrics_snapshot(addr)?;
        attempted += traced.len() as u64;
        check_responses(&checker, &traced, &mut known, &mut tally);
        let d = Counters::between(&before, &after);
        let ok: Vec<&Sample> = traced.iter().filter(|s| s.status == 200).collect();
        let requests = ok.len() as f64;
        let hits = d.get("serve_cache_hits");
        let misses = d.get("serve_cache_misses");
        let phase = |p: &str| d.get(&format!("serve_phase_{p}_us_sum")) / 1e3 / requests;
        let generated = d.get("serve_phase_exec_us_count");
        // Every request is either generated (one sample in each phase
        // histogram) or a cache hit; nothing may be counted twice.
        if generated + hits != requests || d.get("serve_phase_queue_wait_us_count") != generated {
            violations.push(format!(
                "server counters do not reconcile: {generated} generated + {hits} hits for {requests} requests"
            ));
        }
        // Transport: client time from send minus the server's own trace
        // duration, over the requests the tail-sampled trace ring kept.
        let (_, listing) = sqlgen_serve::client::request(addr, "GET", "/debug/traces", None)
            .map_err(|e| format!("/debug/traces: {e}"))?;
        let listing = serde_json::parse_value(&listing).map_err(|e| e.to_string())?;
        let durations: BTreeMap<String, f64> = listing
            .get("traces")
            .and_then(Value::as_array)
            .map(|ts| {
                ts.iter()
                    .filter_map(|t| {
                        Some((
                            t.get("id")?.as_str()?.to_string(),
                            t.get("dur_us")?.as_f64()?,
                        ))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let transport: Vec<f64> = ok
            .iter()
            .filter_map(|s| {
                durations
                    .get(&s.request_id)
                    .map(|dur| (s.done - s.sent) * 1e3 - dur / 1e3)
            })
            .collect();
        let transport_ms = median(&transport);
        let traced_lat: Vec<f64> = ok.iter().map(|s| s.latency_ms()).collect();
        let mean_ms = traced_lat.iter().sum::<f64>() / requests;
        let backlog_ms = ok.iter().map(|s| (s.sent - s.due) * 1e3).sum::<f64>() / requests;
        let (qw, ga, ex) = (phase("queue_wait"), phase("gather"), phase("exec"));
        let mut layers = Layers::default();
        layers.set("serve.latency_mean_ms", mean_ms);
        layers.set("load.backlog_ms", backlog_ms);
        layers.set("serve.queue_wait_ms", qw);
        layers.set("serve.gather_ms", ga);
        layers.set("serve.exec_ms", ex);
        layers.set("serve.transport_ms", transport_ms);
        layers.set(
            "serve.rest_ms",
            mean_ms - backlog_ms - qw - ga - ex - transport_ms,
        );
        layers.set("serve.cache_hit_rate", ratio(hits, hits + misses));
        layers.set("serve.queue_depth_max", max_depth as f64);
        layers.set(
            "serve.rejected",
            traced.iter().filter(|s| s.status == 429).count() as f64,
        );
        let all_late: Vec<f64> = traced.iter().map(|s| s.own_late * 1e3).collect();
        layers.set("load.late_ms_p99", quantile(&all_late, 0.99));
        layers.set(
            "obs.overhead_share",
            median(&traced_lat) / median(&lat) - 1.0,
        );
        // The generation layers as the server exercised them in the
        // traced half.
        let card = d.secs("estimator_card_latency_us");
        let mask = d.secs("fsm_mask_latency_us");
        let step = d.secs("rl_step_latency_us");
        layers.set("engine.card_calls", d.get("estimator_card_calls"));
        layers.set("engine.card_s", card);
        layers.set("fsm.mask_s", mask);
        layers.set("fsm.tokens", d.get("fsm_tokens_count"));
        layers.set("rl.step_s", step);
        layers.set("rl.step.rest_s", step - card - mask);
        let cache_hit = d.get("estimator_cache_hit");
        layers.set(
            "rl.est_cache_hit_rate",
            ratio(cache_hit, cache_hit + d.get("estimator_cache_miss")),
        );
        layers.set(
            "rl.lane_occupancy",
            ratio(
                d.get("rl_batch_occupancy_sum"),
                d.get("rl_batch_occupancy_count"),
            ),
        );
        let queries: f64 = ok.iter().map(|s| s.planned.n as f64).sum();
        layers.set(
            "rl.episodes_per_query",
            ratio(d.get("rl_episodes_count"), queries),
        );
        let attempts = d.get("refine_attempts");
        layers.set("core.refine_attempts", attempts);
        layers.set(
            "core.refine_success_rate",
            ratio(d.get("refine_successes"), attempts),
        );
        layers.set("core.refine_resampled", d.get("refine_resampled"));
        layers.set("rl.train_s", s("train_episodes") / median(&train_rates));
        layers.set(
            "nn.step_us_per_token",
            nn_step_us_per_token(
                &server.generator.checkpoint().actor,
                server.generator.vocab(),
                &Estimator::build(&server.db),
                server.constraint,
                args.seed,
                s("replay_jobs") as usize,
                ServeConfig::default().batch,
            ),
        );
        layers.set("wall_s", traced.last().map_or(0.0, |s| s.done));
        layers.set("error_share", ratio(tally.failed as f64, attempted as f64));
        per_layer = layers.finish(1);
        detail.insert("transport_samples".into(), int(transport.len() as u64));
        detail.insert("traced_requests".into(), int(traced.len() as u64));
    }

    let Server { handle, .. } = server;
    handle.shutdown();

    detail.insert("digest".into(), text(&digest));
    detail.insert("connections".into(), int(conns as u64));
    detail.insert("reference_requests".into(), int(ref_samples.len() as u64));
    detail.insert(
        "reference_tail".into(),
        num(reportable_tail(ref_samples.len()).unwrap_or(f64::NAN)),
    );
    detail.insert("load_late_ms_p99".into(), num(late_p99));
    detail.insert("setups".into(), int(setups.len() as u64));
    detail.insert(
        "errors".into(),
        Value::Array(tally.errors.iter().map(|e| text(e)).collect()),
    );
    Ok(Report {
        attempted,
        failed: tally.failed,
        violations,
        end_to_end,
        per_layer,
        detail,
    })
}
