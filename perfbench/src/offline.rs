//! The two offline workloads: `cli-tight` (what a `sqlgen` CLI user waits
//! for: build, train with estimator rewards, generate with refinement) and
//! `train-exec` (training with execution rewards on a paged image several
//! times larger than the buffer pool).

use crate::check::{Checker, Tally};
use crate::layers::{nn_step_us_per_token, registry, Counters, Layers};
use crate::stats::{median, quantile, ratio};
use crate::{cfg_f64, config, int, metric, num, peak_rss_mb, secs_since, text, Args, Report};
use serde_json::{Map, Value};
use sqlgen_core::{Constraint, ExecBudget, ExecDb, GenConfig, LearnedSqlGen};
use sqlgen_engine::Estimator;
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::{PagedDb, PagedDbWriter};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// One fresh `cli-tight` repetition, phase by phase.
struct CliRep {
    build_s: f64,
    new_s: f64,
    train_s: f64,
    gen_s: f64,
    check_s: f64,
    wall_s: f64,
    returned: usize,
    satisfied: usize,
    tally: Tally,
    /// Program counters over training and generation (traced reps only).
    train_counters: Option<Counters>,
    gen_counters: Option<Counters>,
}

fn cli_rep(cfg: &Value, seed: u64, traced: bool) -> (CliRep, LearnedSqlGen, Arc<ExecDb>) {
    let c = |k: &str| cfg_f64(cfg, &["cli_tight", k]);
    let constraint = Constraint::cardinality_range(c("min"), c("max"));
    let start = Instant::now();

    let t = Instant::now();
    let db = Arc::new(ExecDb::Mem(Benchmark::TpcH.build(c("scale"), seed)));
    let build_s = secs_since(t);

    let t = Instant::now();
    let config = GenConfig::default()
        .with_seed(seed)
        .with_batch_size(c("batch") as usize);
    let mut gen = LearnedSqlGen::from_exec_db(db.clone(), constraint, config);
    let new_s = secs_since(t);

    let snap0 = traced.then(registry);
    let t = Instant::now();
    gen.train(c("train_episodes") as usize);
    let train_s = secs_since(t);
    let snap1 = traced.then(registry);

    let t = Instant::now();
    let queries = gen.generate(c("n") as usize);
    let gen_s = secs_since(t);
    let snap2 = traced.then(registry);

    let t = Instant::now();
    let mem = db.as_mem().expect("cli-tight builds an in-memory database");
    let checker = Checker {
        schema_db: mem,
        estimator: Estimator::build(mem),
        constraint,
    };
    let mut tally = Tally::default();
    for q in &queries {
        checker.check(&mut tally, &q.sql, q.measured, q.satisfied);
    }
    let check_s = secs_since(t);

    let rep = CliRep {
        build_s,
        new_s,
        train_s,
        gen_s,
        check_s,
        wall_s: secs_since(start),
        returned: queries.len(),
        satisfied: queries.iter().filter(|q| q.satisfied).count(),
        tally,
        train_counters: Counters::span(&snap0, &snap1),
        gen_counters: Counters::span(&snap1, &snap2),
    };
    (rep, gen, db)
}

/// Splits a generator's step-time histograms into the named parts.
fn add_step_layers(
    layers: &mut Layers,
    train: &Counters,
    gen: &Counters,
    train_s: f64,
    gen_s: f64,
) {
    let step_train = train.secs("rl_step_latency_us");
    let step_gen = gen.secs("rl_step_latency_us");
    let both = |f: &dyn Fn(&Counters) -> f64| f(train) + f(gen);
    let mask = both(&|c| c.secs("fsm_mask_latency_us"));
    let card = both(&|c| c.secs("estimator_card_latency_us"));
    layers.add("rl.step_s", step_train + step_gen);
    layers.add("rl.train.rest_s", train_s - step_train);
    layers.add("core.generate.rest_s", gen_s - step_gen);
    layers.add("fsm.mask_s", mask);
    layers.add("engine.card_s", card);
    layers.add("rl.step.rest_s", step_train + step_gen - mask - card);
    layers.add(
        "engine.card_calls",
        both(&|c| c.get("estimator_card_calls")),
    );
    layers.add("fsm.tokens", both(&|c| c.get("fsm_tokens_count")));
}

fn finish_rates(layers: &mut Layers, counters: &[&Counters]) {
    let total = |f: &str| counters.iter().map(|c| c.get(f)).sum::<f64>();
    let hits = total("estimator_cache_hit");
    layers.set(
        "rl.est_cache_hit_rate",
        ratio(hits, hits + total("estimator_cache_miss")),
    );
    layers.set(
        "rl.lane_occupancy",
        ratio(
            total("rl_batch_occupancy_sum"),
            total("rl_batch_occupancy_count"),
        ),
    );
}

/// `cli-tight`: fresh generator per repetition (its estimator and refine
/// caches persist across calls, and a CLI process pays them cold).
pub fn cli_tight(args: &Args) -> Result<Report, String> {
    let cfg = config();
    let c = |k: &str| cfg_f64(&cfg, &["cli_tight", k]);
    let budget = args.budget();
    let started = Instant::now();
    let mut violations = Vec::new();

    // A traced run first repeats the work untraced: the overhead baseline.
    let baseline = args.trace.then(|| cli_rep(&cfg, args.seed, false).0);
    if args.trace {
        sqlgen_obs::enable_metrics();
    }
    let mut reps = Vec::new();
    let mut last = None;
    while reps.len() < 2 || started.elapsed() < budget {
        let (rep, gen, db) = cli_rep(&cfg, args.seed, args.trace);
        reps.push(rep);
        last = Some((gen, db));
    }

    let mut baseline = baseline;
    let baseline_wall = baseline.as_ref().map(|b| b.wall_s);
    let digest = reps[0].tally.digest.hex();
    let mut tally = Tally::default();
    for rep in baseline.iter_mut().chain(reps.iter_mut()) {
        if rep.tally.digest.hex() != digest {
            violations.push(format!(
                "repetitions differ: digest {} vs {digest}",
                rep.tally.digest.hex()
            ));
        }
        tally.absorb(std::mem::take(&mut rep.tally));
    }

    let n = c("n");
    let train_eps = c("train_episodes");
    let collect = |f: &dyn Fn(&CliRep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let setup = collect(&|r| r.build_s + r.new_s + r.train_s);
    let waits = collect(&|r| (r.build_s + r.new_s + r.train_s + r.gen_s) * 1e3);
    let first = &reps[0];
    let end_to_end = vec![
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "train_eps_per_s",
            median(&collect(&|r| train_eps / r.train_s)),
            "1/s",
        ),
        metric(
            "satisfied_rate",
            ratio(first.satisfied as f64, first.returned as f64),
            "share",
        ),
        metric(
            "satisfied_qps",
            median(&collect(&|r| r.satisfied as f64 / r.gen_s)),
            "1/s",
        ),
        metric("latency_p50_ms", median(&waits), "ms"),
        metric("latency_p99_ms", quantile(&waits, 0.99), "ms"),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let mut layers = Layers::default();
        let mut all_counters = Vec::new();
        for r in &reps {
            let (tc, gc) = (
                r.train_counters.as_ref().expect("traced rep"),
                r.gen_counters.as_ref().expect("traced rep"),
            );
            layers.add("wall_s", r.wall_s);
            layers.add("storage.build_s", r.build_s);
            layers.add("core.new_s", r.new_s);
            layers.add("rl.train_s", r.train_s);
            layers.add("core.generate_s", r.gen_s);
            layers.add("bench.check_s", r.check_s);
            layers.add(
                "bench.rest_s",
                r.wall_s - r.build_s - r.new_s - r.train_s - r.gen_s - r.check_s,
            );
            add_step_layers(&mut layers, tc, gc, r.train_s, r.gen_s);
            layers.add("core.refine_attempts", gc.get("refine_attempts"));
            layers.add("core.refine_resampled", gc.get("refine_resampled"));
            all_counters.push(tc);
            all_counters.push(gc);
        }
        let gen_counters: Vec<&Counters> = reps
            .iter()
            .filter_map(|r| r.gen_counters.as_ref())
            .collect();
        let sum = |f: &str| gen_counters.iter().map(|c| c.get(f)).sum::<f64>();
        layers.set(
            "core.refine_success_rate",
            ratio(sum("refine_successes"), sum("refine_attempts")),
        );
        layers.set(
            "rl.episodes_per_query",
            ratio(sum("rl_episodes_count"), n * reps.len() as f64),
        );
        finish_rates(&mut layers, &all_counters);
        let (gen, db) = last.expect("at least one repetition");
        let mem = db.as_mem().expect("in-memory database");
        layers.set(
            "nn.step_us_per_token",
            nn_step_us_per_token(
                &gen.checkpoint().actor,
                gen.vocab(),
                &Estimator::build(mem),
                gen.constraint(),
                args.seed,
                c("replay_jobs") as usize,
                c("batch") as usize,
            ),
        );
        let traced_wall = median(&collect(&|r| r.wall_s));
        layers.set(
            "obs.overhead_share",
            traced_wall / baseline_wall.expect("traced runs have a baseline") - 1.0,
        );
        layers.set(
            "error_share",
            ratio(tally.failed as f64, tally.checked as f64),
        );
        per_layer = layers.finish(reps.len());
    }

    let mut detail = Map::new();
    detail.insert("digest".into(), text(&digest));
    detail.insert("repetitions".into(), int(reps.len() as u64));
    detail.insert("latency_samples".into(), int(waits.len() as u64));
    detail.insert("queries_per_rep".into(), num(n));
    detail.insert(
        "errors".into(),
        Value::Array(tally.errors.iter().map(|e| text(e)).collect()),
    );
    Ok(Report {
        attempted: tally.checked,
        failed: tally.failed,
        violations,
        end_to_end,
        per_layer,
        detail,
    })
}

/// One `train-exec` session: a fresh image, store and generator, trained
/// with execution rewards, then sampled raw under estimator rewards.
struct ExecSession {
    build_s: f64,
    open_s: f64,
    new_s: f64,
    train_s: f64,
    gen_s: f64,
    check_s: f64,
    wall_s: f64,
    image_bytes: u64,
    /// Buffer-pool `(hits, misses, evictions)` during training.
    pool: (u64, u64, u64),
    sampled: usize,
    satisfied: usize,
    tally: Tally,
    train_counters: Option<Counters>,
    gen_counters: Option<Counters>,
}

/// The seed of session `k` of a run, mixed (splitmix64) so no two
/// sessions share samples: seeded generation gives query `j` the job seed
/// `seed ^ j`, so nearby session seeds would draw mostly the same jobs.
fn session_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn exec_session(
    cfg: &Value,
    seed: u64,
    traced: bool,
    dir: &std::path::Path,
    schema_db: &sqlgen_storage::Database,
) -> Result<(ExecSession, LearnedSqlGen), String> {
    let c = |k: &str| cfg_f64(cfg, &["train_exec", k]);
    let constraint = Constraint::cardinality_range(c("min"), c("max"));
    let policy_seed = c("policy_seed") as u64;
    let start = Instant::now();
    let path = dir.join(format!("image-{}-{seed}.db", std::process::id()));
    let result = (|| {
        let t = Instant::now();
        let mut writer = PagedDbWriter::create(&path).map_err(|e| e.to_string())?;
        Benchmark::TpcH
            .build_into(c("scale"), seed, &mut writer)
            .map_err(|e| e.to_string())?;
        writer.finish().map_err(|e| e.to_string())?;
        let build_s = secs_since(t);
        let image_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();

        let t = Instant::now();
        let paged = PagedDb::open(&path, c("pool_bytes") as usize).map_err(|e| e.to_string())?;
        let open_s = secs_since(t);
        let db = Arc::new(ExecDb::Paged(paged));
        let pool = |db: &ExecDb| db.as_paged().expect("paged store").pool_stats();

        let t = Instant::now();
        let budget = ExecBudget {
            max_rows: c("max_rows") as usize,
            max_micros: c("max_micros") as u64,
        };
        let config = GenConfig::default()
            .with_seed(policy_seed)
            .with_execute_rewards(budget);
        let mut gen = LearnedSqlGen::from_exec_db(db.clone(), constraint, config);
        let new_s = secs_since(t);

        let pool0 = pool(&db);
        let snap0 = traced.then(registry);
        let t = Instant::now();
        gen.train(c("episodes") as usize);
        let train_s = secs_since(t);
        let snap1 = traced.then(registry);
        let pool1 = pool(&db);

        // The raw trained policy, sampled under estimator rewards on the
        // same store and vocabulary: the accuracy sample.
        let t = Instant::now();
        let mut sampler = LearnedSqlGen::from_exec_db(
            db.clone(),
            constraint,
            GenConfig::default()
                .with_seed(policy_seed)
                .with_refine(false),
        );
        sampler
            .load_checkpoint(&gen.save_checkpoint())
            .map_err(|e| e.to_string())?;
        let mut check_s = secs_since(t);

        let n = c("sample") as usize;
        let t = Instant::now();
        let queries = sampler.generate_seeded(n, seed);
        let gen_s = secs_since(t);
        let snap2 = traced.then(registry);

        let t = Instant::now();
        let paged = db.as_paged().expect("paged store");
        let checker = Checker {
            schema_db,
            estimator: Estimator::from_stats(paged.table_stats()),
            constraint,
        };
        let mut tally = Tally::default();
        for q in &queries {
            checker.check(&mut tally, &q.sql, q.measured, q.satisfied);
        }
        // Same weights, schema, seed and constraint: same bytes. Query `j`
        // of a seeded sample depends only on `j`, so a shorter repeat must
        // reproduce the prefix.
        let repeat = sampler.generate_seeded(c("repeat") as usize, seed);
        if repeat
            .iter()
            .zip(&queries)
            .any(|(a, b)| a.sql != b.sql || a.measured.to_bits() != b.measured.to_bits())
        {
            tally.fail(format!("seeded sample not repeatable (seed {seed})"));
        }
        check_s += secs_since(t);

        let session = ExecSession {
            build_s,
            open_s,
            new_s,
            train_s,
            gen_s,
            check_s,
            wall_s: 0.0,
            image_bytes,
            pool: (
                pool1.hits - pool0.hits,
                pool1.misses - pool0.misses,
                pool1.evictions - pool0.evictions,
            ),
            sampled: queries.len(),
            satisfied: queries.iter().filter(|q| q.satisfied).count(),
            tally,
            train_counters: Counters::span(&snap0, &snap1),
            gen_counters: Counters::span(&snap1, &snap2),
        };
        Ok((session, sampler))
    })();
    let _ = std::fs::remove_file(&path);
    result.map(|(mut s, g)| {
        s.wall_s = secs_since(start);
        (s, g)
    })
}

/// `train-exec`: each session builds its own image from its own seed and
/// trains the same fixed-seed policy on it. The cost of an
/// execution-reward episode depends several-fold on which tables the
/// policy's first episodes happen to scan, which is a property of the
/// policy seed rather than of the system, so the run seed varies the data
/// and the policy seed stays fixed.
///
/// Rewards run under a per-query deadline, so an execution that lands near
/// it can fall back differently between runs: the determinism check here
/// is the seeded re-sample on the same weights, and the digest is recorded
/// but not compared across runs.
pub fn train_exec(args: &Args) -> Result<Report, String> {
    let cfg = config();
    let c = |k: &str| cfg_f64(&cfg, &["train_exec", k]);
    let budget = args.budget();
    let started = Instant::now();
    let dir = PathBuf::from(".perfbench_tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // Validation is schema-level; a small build of the same schema serves.
    let schema_db = Benchmark::TpcH.build(0.01, args.seed);

    let baseline = if args.trace {
        Some(exec_session(&cfg, session_seed(args.seed, 0), false, &dir, &schema_db)?.0)
    } else {
        None
    };
    if args.trace {
        sqlgen_obs::enable_metrics();
    }
    let mut sessions = Vec::new();
    let mut last = None;
    while sessions.len() < 2 || started.elapsed() < budget {
        let seed = session_seed(args.seed, sessions.len());
        let (s, sampler) = exec_session(&cfg, seed, args.trace, &dir, &schema_db)?;
        sessions.push(s);
        last = Some(sampler);
    }
    let _ = std::fs::remove_dir(&dir);

    let mut baseline = baseline;
    let baseline_wall = baseline.as_ref().map(|b| b.wall_s);
    let digest = sessions[0].tally.digest.hex();
    let mut tally = Tally::default();
    for s in baseline.iter_mut().chain(sessions.iter_mut()) {
        tally.absorb(std::mem::take(&mut s.tally));
    }

    let total = |f: &dyn Fn(&ExecSession) -> f64| sessions.iter().map(f).sum::<f64>();
    let collect = |f: &dyn Fn(&ExecSession) -> f64| sessions.iter().map(f).collect::<Vec<f64>>();
    let waits = collect(&|s| s.train_s * 1e3);
    let end_to_end = vec![
        metric(
            "setup_s",
            median(&collect(&|s| s.build_s + s.open_s + s.new_s)),
            "s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric(
            "train_eps_per_s",
            median(&collect(&|s| c("episodes") / s.train_s)),
            "1/s",
        ),
        metric(
            "satisfied_rate",
            ratio(total(&|s| s.satisfied as f64), total(&|s| s.sampled as f64)),
            "share",
        ),
        metric(
            "satisfied_qps",
            median(&collect(&|s| s.satisfied as f64 / s.gen_s)),
            "1/s",
        ),
        metric("latency_p50_ms", median(&waits), "ms"),
        metric("latency_p99_ms", quantile(&waits, 0.99), "ms"),
    ];

    let mut per_layer = Vec::new();
    if args.trace {
        let mut layers = Layers::default();
        let mut all_counters = Vec::new();
        for s in &sessions {
            let (tc, gc) = (
                s.train_counters.as_ref().expect("traced session"),
                s.gen_counters.as_ref().expect("traced session"),
            );
            layers.add("wall_s", s.wall_s);
            layers.add("storage.build_s", s.build_s);
            layers.add("storage.open_s", s.open_s);
            layers.add("core.new_s", s.new_s);
            layers.add("rl.train_s", s.train_s);
            layers.add("core.generate_s", s.gen_s);
            layers.add("bench.check_s", s.check_s);
            layers.add(
                "bench.rest_s",
                s.wall_s - s.build_s - s.open_s - s.new_s - s.train_s - s.gen_s - s.check_s,
            );
            layers.add("storage.pool_misses", s.pool.1 as f64);
            layers.add("storage.evictions", s.pool.2 as f64);
            add_step_layers(&mut layers, tc, gc, s.train_s, s.gen_s);
            all_counters.push(tc);
            all_counters.push(gc);
        }
        let hits = total(&|s| s.pool.0 as f64);
        layers.set(
            "storage.pool_hit_rate",
            ratio(hits, hits + total(&|s| s.pool.1 as f64)),
        );
        let sample_eps: f64 = sessions
            .iter()
            .filter_map(|s| s.gen_counters.as_ref())
            .map(|c| c.get("rl_episodes_count"))
            .sum();
        layers.set(
            "rl.episodes_per_query",
            ratio(sample_eps, total(&|s| s.sampled as f64)),
        );
        finish_rates(&mut layers, &all_counters);
        let sampler = last.expect("at least one session");
        let paged_estimator = {
            let db = sampler.exec_db().expect("sampler keeps its store");
            Estimator::from_stats(db.as_paged().expect("paged store").table_stats())
        };
        layers.set(
            "nn.step_us_per_token",
            nn_step_us_per_token(
                &sampler.checkpoint().actor,
                sampler.vocab(),
                &paged_estimator,
                sampler.constraint(),
                args.seed,
                c("replay_jobs") as usize,
                c("batch") as usize,
            ),
        );
        layers.set(
            "obs.overhead_share",
            sessions[0].wall_s / baseline_wall.expect("traced runs have a baseline") - 1.0,
        );
        layers.set(
            "error_share",
            ratio(tally.failed as f64, tally.checked as f64),
        );
        per_layer = layers.finish(sessions.len());
    }

    let mut detail = Map::new();
    detail.insert("digest".into(), text(&digest));
    detail.insert("sessions".into(), int(sessions.len() as u64));
    detail.insert("latency_samples".into(), int(waits.len() as u64));
    detail.insert(
        "image_bytes".into(),
        Value::Array(sessions.iter().map(|s| int(s.image_bytes)).collect()),
    );
    detail.insert("pool_bytes".into(), num(c("pool_bytes")));
    detail.insert(
        "session_satisfied".into(),
        Value::Array(sessions.iter().map(|s| int(s.satisfied as u64)).collect()),
    );
    detail.insert(
        "session_train_s".into(),
        Value::Array(sessions.iter().map(|s| num(s.train_s)).collect()),
    );
    detail.insert(
        "errors".into(),
        Value::Array(tally.errors.iter().map(|e| text(e)).collect()),
    );
    Ok(Report {
        attempted: tally.checked,
        failed: tally.failed,
        violations: Vec::new(),
        end_to_end,
        per_layer,
        detail,
    })
}
