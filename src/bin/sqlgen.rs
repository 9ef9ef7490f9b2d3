//! `sqlgen` — command-line constraint-aware SQL generation.
//!
//! ```sh
//! sqlgen --benchmark tpch --range 1000 2000 --n 10
//! sqlgen --benchmark job --metric cost --point 500 --train 800 --profile
//! sqlgen --benchmark xuetang --range 10 500 --kinds select,delete --execute
//! sqlgen --benchmark tpch --range 1000 2000 --save model.json
//! sqlgen --benchmark tpch --range 1000 2000 --load model.json --train 0
//! sqlgen --benchmark tpch --range 1000 2000 --trace run.jsonl --metrics
//! sqlgen serve --addr 127.0.0.1:8080 --batch 8 --max-queue 64 --shards 2
//! ```

use learned_sqlgen::core::{
    profile, Constraint, ExecBudget, ExecDb, GenConfig, LearnedSqlGen, Metric, Target,
};
use learned_sqlgen::engine::{ExecOptions, StatementKind};
use learned_sqlgen::fsm::FsmConfig;
use learned_sqlgen::storage::gen::Benchmark;
use learned_sqlgen::storage::{write_image, PagedDb, DEFAULT_POOL_BYTES};
use sqlgen_obs::{obs_error, obs_info};
use std::process::exit;
use std::sync::Arc;

struct Args {
    benchmark: Benchmark,
    scale: f64,
    seed: u64,
    constraint: Constraint,
    n: usize,
    train: usize,
    batch: usize,
    quant: bool,
    kinds: Option<Vec<StatementKind>>,
    execute: bool,
    profile: bool,
    save: Option<String>,
    load: Option<String>,
    db_file: Option<String>,
    reward: String,
    only_satisfied: bool,
    trace: Option<String>,
    metrics: bool,
    quiet: bool,
    json: bool,
}

const USAGE: &str = "\
sqlgen — constraint-aware SQL generation (LearnedSQLGen reproduction)

USAGE:
  sqlgen --benchmark <tpch|job|xuetang> (--point <v> | --range <lo> <hi>) [flags]
  sqlgen serve [serve flags]       run the HTTP generation service (see --help serve)
  sqlgen builddb [builddb flags]   stream a benchmark to a paged .db file

FLAGS:
  --metric <card|cost>    constrained metric (default: card)
  --n <count>             queries to generate (default: 10)
  --train <episodes>      RL training episodes (default: 500; 0 with --load)
  --batch <lanes>         lockstep rollout lanes for training and
                          generation (default: 1 = one episode at a time)
  --quant                 run inference on an int8 quantized weight snapshot
  --scale <sf>            data scale factor (default: 0.3)
  --seed <u64>            RNG seed (default: 42)
  --kinds <k1,k2,..>      statement kinds: select,insert,update,delete
  --only-satisfied        keep generating until --n satisfied queries
  --execute               also report the real (executed) cardinality
  --profile               print a diversity/complexity profile
  --save <path>           save the trained actor as JSON
  --load <path>           load an actor checkpoint before generating
  --db-file <path>        run against a paged database image (from
                          `sqlgen builddb`) instead of regenerating data
  --reward <est|exec>     cardinality reward signal: histogram estimates
                          (default) or real execution within a per-query
                          budget (DESIGN.md §14)
  --trace <path.jsonl>    write structured observability events (JSON lines)
  --metrics               collect latency metrics; print a summary table
  --json                  emit one JSON object per generated query
  --quiet                 suppress informational output";

fn parse_args() -> Args {
    let mut args = Args {
        benchmark: Benchmark::TpcH,
        scale: 0.3,
        seed: 42,
        constraint: Constraint::cardinality_point(0.0),
        n: 10,
        train: 500,
        batch: 1,
        quant: false,
        kinds: None,
        execute: false,
        profile: false,
        save: None,
        load: None,
        db_file: None,
        reward: "est".into(),
        only_satisfied: false,
        trace: None,
        metrics: false,
        quiet: false,
        json: false,
    };
    let mut metric = String::from("card");
    let mut point: Option<f64> = None;
    let mut range: Option<(f64, f64)> = None;
    let mut it = std::env::args().skip(1);
    let fail = |m: &str| -> ! {
        eprintln!("error: {m}\n\n{USAGE}");
        exit(2)
    };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--benchmark" => {
                args.benchmark = value("--benchmark")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--scale" => args.scale = value("--scale").parse().unwrap_or_else(|_| fail("--scale")),
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| fail("--seed")),
            "--metric" => metric = value("--metric"),
            "--point" => point = Some(value("--point").parse().unwrap_or_else(|_| fail("--point"))),
            "--range" => {
                let lo = value("--range")
                    .parse()
                    .unwrap_or_else(|_| fail("--range lo"));
                let hi = value("--range")
                    .parse()
                    .unwrap_or_else(|_| fail("--range hi"));
                range = Some((lo, hi));
            }
            "--n" => args.n = value("--n").parse().unwrap_or_else(|_| fail("--n")),
            "--train" => args.train = value("--train").parse().unwrap_or_else(|_| fail("--train")),
            "--batch" => {
                args.batch = value("--batch")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--batch"))
                    .max(1)
            }
            "--kinds" => {
                let kinds = value("--kinds")
                    .split(',')
                    .map(|k| match k.trim().to_ascii_lowercase().as_str() {
                        "select" => StatementKind::Select,
                        "insert" => StatementKind::Insert,
                        "update" => StatementKind::Update,
                        "delete" => StatementKind::Delete,
                        other => fail(&format!("unknown kind {other}")),
                    })
                    .collect();
                args.kinds = Some(kinds);
            }
            "--quant" => args.quant = true,
            "--execute" => args.execute = true,
            "--profile" => args.profile = true,
            "--only-satisfied" => args.only_satisfied = true,
            "--save" => args.save = Some(value("--save")),
            "--load" => args.load = Some(value("--load")),
            "--db-file" => args.db_file = Some(value("--db-file")),
            "--reward" => args.reward = value("--reward"),
            "--trace" => args.trace = Some(value("--trace")),
            "--metrics" => args.metrics = true,
            "--json" => args.json = true,
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0);
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    args.constraint = flag_constraint(&metric, point, range).unwrap_or_else(|e| fail(&e));
    if args.reward != "est" && args.reward != "exec" {
        fail("--reward must be est or exec");
    }
    args
}

/// The constraint named by `--metric` and `--point`/`--range`, with its
/// values checked by [`Constraint::checked`].
fn flag_constraint(
    metric: &str,
    point: Option<f64>,
    range: Option<(f64, f64)>,
) -> Result<Constraint, String> {
    let metric = match metric {
        "card" => Metric::Cardinality,
        "cost" => Metric::Cost,
        m => return Err(format!("unknown metric {m} (card|cost)")),
    };
    let target = match (point, range) {
        (Some(p), None) => Target::Point(p),
        (None, Some((lo, hi))) => Target::Range(lo, hi),
        (None, None) => return Err("one of --point or --range is required".to_string()),
        (Some(_), Some(_)) => return Err("--point and --range are mutually exclusive".to_string()),
    };
    Constraint::checked(metric, target)
}

/// Renders one generated query as a single JSON object line.
fn query_json(
    q: &learned_sqlgen::core::GeneratedQuery,
    real: Option<&Result<u64, String>>,
) -> String {
    let mut fields = serde_json::Map::new();
    fields.insert("sql".to_string(), serde_json::Value::String(q.sql.clone()));
    fields.insert(
        "measured".to_string(),
        serde_json::Value::Number(serde_json::Number::Float(q.measured)),
    );
    fields.insert(
        "satisfied".to_string(),
        serde_json::Value::Bool(q.satisfied),
    );
    match real {
        Some(Ok(rows)) => {
            fields.insert(
                "real".to_string(),
                serde_json::Value::Number(serde_json::Number::UInt(*rows)),
            );
        }
        Some(Err(e)) => {
            fields.insert("real".to_string(), serde_json::Value::Null);
            fields.insert(
                "real_error".to_string(),
                serde_json::Value::String(e.clone()),
            );
        }
        None => {}
    }
    serde_json::Value::Object(fields).to_string()
}

const SERVE_USAGE: &str = "\
sqlgen serve — constraint-aware SQL generation over HTTP (Linux only)

USAGE:
  sqlgen serve [flags]

FLAGS:
  --addr <host:port>      bind address (default: 127.0.0.1:8080; port 0 = ephemeral)
  --event-threads <n>     epoll event-loop threads (default: 2)
  --shards <n>            generation shard workers behind the consistent-hash
                          router on (schema, model-version) (default: 1)
  --cache-mb <mib>        result-cache budget per schema, MiB; 0 disables
                          caching (default: 64)
  --pin-cpus              pin shard workers to CPUs round-robin
  --batch <lanes>         lockstep GEMM lanes per generation window (default: 8)
  --quant                 serve int8 quantized snapshots of every model
  --max-queue <n>         admission queue capacity per shard; beyond it 429
                          (default: 64)
  --max-wait-ms <ms>      shard worker window coalescing wait (default: 5)
  --benchmark <name>      served schema: tpch|job|xuetang (default: tpch)
  --scale <sf>            data scale factor (default: 0.3)
  --seed <u64>            RNG seed (default: 42)
  --db-file <path>        cold-start the schema from a paged database image
                          (see `sqlgen builddb`) instead of regenerating;
                          --scale is ignored, --seed still seeds the policy
  --train <episodes>      pre-train the policy before serving (default: 0);
                          needs --point or --range for the training constraint
  --metric <card|cost>    training constraint metric (default: card)
  --point <v>             training constraint: point target
  --range <lo> <hi>       training constraint: range target
  --model-dir <dir>       hot-load *.ckpt checkpoints from this directory
  --trace <path.jsonl>    write structured observability events (JSON lines)
  --trace-ring <n>        completed-trace ring capacity (default: 512)
  --trace-sample <pct>    percent of ordinary traces retained; errors and
                          slowest-decile requests are always kept (default: 10)
  --quiet                 suppress informational output

ENDPOINTS:
  POST /generate   {\"constraint\": {\"metric\": \"cardinality\", \"min\": 1, \"max\": 500},
                    \"n\": 4, \"seed\": 7, \"timeout_ms\": 2000}
  GET  /healthz    200 while accepting, 503 while draining
  GET  /metrics    Prometheus-style text metrics
  GET  /models     the served model per schema and the admission queue
  POST /models/reload  re-scan --model-dir now
  GET  /debug/traces        recent sampled request traces (summaries)
  GET  /debug/traces/<id>   full span tree for one X-Request-Id
  GET  /debug/slowest       slowest retained traces";

fn serve_main(argv: Vec<String>) -> ! {
    let fail = |m: &str| -> ! {
        eprintln!("error: {m}\n\n{SERVE_USAGE}");
        exit(2)
    };
    let mut config = learned_sqlgen::serve::ServeConfig::default();
    let mut benchmark = Benchmark::TpcH;
    let mut scale = 0.3f64;
    let mut seed = 42u64;
    let mut train = 0usize;
    let mut metric = String::from("card");
    let mut point: Option<f64> = None;
    let mut range: Option<(f64, f64)> = None;
    let mut model_dir: Option<String> = None;
    let mut db_file: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut quant = false;
    let mut quiet = false;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--batch" => {
                config.batch = value("--batch")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--batch"))
                    .max(1)
            }
            "--max-queue" => {
                config.max_queue = value("--max-queue")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--max-queue"))
                    .max(1)
            }
            "--max-wait-ms" => {
                config.max_wait_ms = value("--max-wait-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-wait-ms"))
            }
            "--event-threads" => {
                config.event_threads = value("--event-threads")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--event-threads"))
                    .max(1)
            }
            "--shards" => {
                config.shards = value("--shards")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--shards"))
                    .max(1)
            }
            "--cache-mb" => {
                config.cache_mb = value("--cache-mb")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--cache-mb"))
            }
            "--pin-cpus" => config.pin_cpus = true,
            "--benchmark" => {
                benchmark = value("--benchmark")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--scale" => scale = value("--scale").parse().unwrap_or_else(|_| fail("--scale")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| fail("--seed")),
            "--train" => train = value("--train").parse().unwrap_or_else(|_| fail("--train")),
            "--metric" => metric = value("--metric"),
            "--point" => point = Some(value("--point").parse().unwrap_or_else(|_| fail("--point"))),
            "--range" => {
                let lo = value("--range")
                    .parse()
                    .unwrap_or_else(|_| fail("--range lo"));
                let hi = value("--range")
                    .parse()
                    .unwrap_or_else(|_| fail("--range hi"));
                range = Some((lo, hi));
            }
            "--model-dir" => model_dir = Some(value("--model-dir")),
            "--db-file" => db_file = Some(value("--db-file")),
            "--quant" => quant = true,
            "--trace" => trace = Some(value("--trace")),
            "--trace-ring" => {
                config.trace_capacity = value("--trace-ring")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--trace-ring"))
                    .max(1)
            }
            "--trace-sample" => {
                config.trace_sample_pct = value("--trace-sample")
                    .parse::<u64>()
                    .unwrap_or_else(|_| fail("--trace-sample"))
                    .min(100)
            }
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!("{SERVE_USAGE}");
                exit(0);
            }
            other => fail(&format!("unknown serve flag {other}")),
        }
    }

    if quiet {
        sqlgen_obs::set_level(sqlgen_obs::Level::Warn);
    }
    // /metrics is part of the service surface; always collect.
    sqlgen_obs::enable_metrics();
    if let Some(path) = &trace {
        let sink = sqlgen_obs::JsonlSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            obs_error!("cannot create trace file {path}: {e}");
            exit(1);
        });
        sqlgen_obs::install_sink(Arc::new(sink));
    }

    // Cold-start from a persisted image when given one: loading columnar
    // tables from slotted pages skips the (much slower) row generation +
    // statistics resampling of a fresh build.
    let db = match &db_file {
        Some(path) => {
            obs_info!("cold-starting {} from {path} ...", benchmark.name());
            let t0 = std::time::Instant::now();
            let paged = PagedDb::open(std::path::Path::new(path), DEFAULT_POOL_BYTES)
                .unwrap_or_else(|e| {
                    obs_error!("cannot open {path}: {e}");
                    exit(1);
                });
            let db = paged.load_database().unwrap_or_else(|e| {
                obs_error!("cannot load {path}: {e}");
                exit(1);
            });
            obs_info!(
                "loaded {} rows in {:.0} ms",
                db.total_rows(),
                t0.elapsed().as_secs_f64() * 1e3
            );
            db
        }
        None => {
            obs_info!(
                "building {} at scale {scale} (seed {seed}) ...",
                benchmark.name()
            );
            benchmark.build(scale, seed)
        }
    };
    let gen_config = GenConfig::default().with_seed(seed).with_quantize(quant);

    let schema = learned_sqlgen::serve::Schema::build(
        benchmark.name(),
        &db,
        &gen_config,
        model_dir.map(std::path::PathBuf::from),
        config.max_queue,
    );

    if train > 0 {
        let constraint = flag_constraint(&metric, point, range).unwrap_or_else(|e| fail(&e));
        obs_info!("training {train} episodes for {constraint} before serving ...");
        let mut generator = LearnedSqlGen::new(&db, constraint, gen_config.clone());
        generator.train(train);
        schema.publish_actor("trained", 1, generator.checkpoint().actor);
    }

    let addr = config.addr.clone();
    let handle = learned_sqlgen::serve::serve(config, vec![schema]).unwrap_or_else(|e| {
        obs_error!("cannot serve on {addr}: {e}");
        exit(1);
    });
    obs_info!("serving on http://{}", handle.addr());
    obs_info!(
        "try: curl -s http://{}/generate -d \
         '{{\"constraint\":{{\"metric\":\"cardinality\",\"min\":1,\"max\":500}},\"n\":2}}'",
        handle.addr()
    );
    // Serve until the process is killed; there is no portable std-only
    // signal hook, so drain-on-SIGTERM is the container runtime's job.
    loop {
        std::thread::park();
    }
}

const BUILDDB_USAGE: &str = "\
sqlgen builddb — stream a benchmark database to a paged .db image

The generators stream row-by-row into the slotted-page writer, holding one
page per table in memory, so scale factors far beyond RAM are buildable.
The image cold-starts `sqlgen --db-file`, `sqlgen serve --db-file` and the
execution-reward mode without regenerating data.

USAGE:
  sqlgen builddb --out <path.db> [flags]

FLAGS:
  --out <path>            output file (required)
  --benchmark <name>      tpch|job|xuetang (default: tpch)
  --scale <sf>            data scale factor (default: 0.3)
  --seed <u64>            RNG seed (default: 42)
  --quiet                 suppress informational output";

fn builddb_main(argv: Vec<String>) -> ! {
    let fail = |m: &str| -> ! {
        eprintln!("error: {m}\n\n{BUILDDB_USAGE}");
        exit(2)
    };
    let mut benchmark = Benchmark::TpcH;
    let mut scale = 0.3f64;
    let mut seed = 42u64;
    let mut out: Option<String> = None;
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--benchmark" => {
                benchmark = value("--benchmark")
                    .parse()
                    .unwrap_or_else(|e: String| fail(&e))
            }
            "--scale" => scale = value("--scale").parse().unwrap_or_else(|_| fail("--scale")),
            "--seed" => seed = value("--seed").parse().unwrap_or_else(|_| fail("--seed")),
            "--out" => out = Some(value("--out")),
            "--quiet" | "-q" => sqlgen_obs::set_level(sqlgen_obs::Level::Warn),
            "--help" | "-h" => {
                println!("{BUILDDB_USAGE}");
                exit(0);
            }
            other => fail(&format!("unknown builddb flag {other}")),
        }
    }
    let Some(out) = out else {
        fail("--out is required");
    };
    let path = std::path::Path::new(&out);
    obs_info!(
        "streaming {} at scale {scale} (seed {seed}) to {out} ...",
        benchmark.name()
    );
    // Built in a temp sibling and renamed into place: a server reading the
    // old image keeps it, and a crash mid-build leaves it intact.
    write_image(path, |writer| benchmark.build_into(scale, seed, writer)).unwrap_or_else(|e| {
        obs_error!("builddb failed: {e}");
        exit(1);
    });
    // Reopen read-only to verify every checksum before declaring success.
    let db = PagedDb::open(path, DEFAULT_POOL_BYTES).unwrap_or_else(|e| {
        obs_error!("reopen failed: {e}");
        exit(1);
    });
    if let Err(e) = db.verify() {
        obs_error!("verification failed: {e}");
        exit(1);
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    obs_info!(
        "wrote {out}: {} tables, {} rows, {:.1} MiB (checksums verified)",
        learned_sqlgen::storage::DbRead::table_names(&db).len(),
        db.total_rows(),
        bytes as f64 / (1024.0 * 1024.0)
    );
    exit(0)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        argv.remove(0);
        serve_main(argv);
    }
    if argv.first().map(String::as_str) == Some("builddb") {
        argv.remove(0);
        builddb_main(argv);
    }
    let args = parse_args();
    if args.quiet {
        sqlgen_obs::set_level(sqlgen_obs::Level::Warn);
    }
    if args.metrics {
        sqlgen_obs::enable_metrics();
    }
    if let Some(path) = &args.trace {
        let sink = sqlgen_obs::JsonlSink::create(std::path::Path::new(path)).unwrap_or_else(|e| {
            obs_error!("cannot create trace file {path}: {e}");
            exit(1);
        });
        sqlgen_obs::install_sink(Arc::new(sink));
    }

    let constraint = args.constraint;

    // The store the generator trains against: a cold-started paged image
    // (`--db-file`) or the freshly generated in-memory benchmark. Both go
    // through `ExecDb` so `--reward exec` and `--execute` work on either.
    let exec_db: Arc<ExecDb> = match &args.db_file {
        Some(path) => {
            obs_info!("opening paged database {path} ...");
            let paged = PagedDb::open(std::path::Path::new(path), DEFAULT_POOL_BYTES)
                .unwrap_or_else(|e| {
                    obs_error!("cannot open {path}: {e}");
                    exit(1);
                });
            Arc::new(ExecDb::Paged(paged))
        }
        None => {
            obs_info!(
                "building {} at scale {} (seed {}) ...",
                args.benchmark.name(),
                args.scale,
                args.seed
            );
            let _s = sqlgen_obs::obs_span!("cli.build_db");
            Arc::new(ExecDb::Mem(args.benchmark.build(args.scale, args.seed)))
        }
    };

    let mut config = GenConfig::default()
        .with_seed(args.seed)
        .with_batch_size(args.batch)
        .with_quantize(args.quant);
    if let Some(kinds) = &args.kinds {
        config.fsm = FsmConfig::default().with_statements(kinds);
    }
    if args.reward == "exec" {
        config = config.with_execute_rewards(ExecBudget::default());
    }
    let mut generator = LearnedSqlGen::from_exec_db(exec_db.clone(), constraint, config);

    if let Some(path) = &args.load {
        let json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            obs_error!("cannot read {path}: {e}");
            exit(1);
        });
        generator.load_actor(&json).unwrap_or_else(|e| {
            obs_error!("bad checkpoint {path}: {e}");
            exit(1);
        });
        obs_info!("loaded actor from {path}");
    }

    let train = if args.load.is_some() && args.train == 500 {
        0 // default to no re-training when a checkpoint was loaded
    } else {
        args.train
    };
    if train > 0 {
        obs_info!("training {train} episodes for {constraint} ...");
        let stats = generator.train(train);
        obs_info!(
            "  {} satisfied queries found during training",
            stats.satisfied_during_training.len()
        );
    }

    let queries = if args.only_satisfied {
        let (qs, attempts) = generator.generate_satisfied(args.n, args.n * 200);
        obs_info!("{} satisfied in {attempts} attempts", qs.len());
        qs
    } else {
        generator.generate(args.n)
    };

    let exec_opts = ExecOptions {
        max_rows: 5_000_000,
        deadline: None,
    };
    for q in &queries {
        let real = args.execute.then(|| {
            exec_db
                .cardinality(&q.statement, exec_opts.clone())
                .map_err(|e| e.to_string())
        });
        if args.json {
            println!("{}", query_json(q, real.as_ref()));
        } else {
            let mark = if q.satisfied { "ok" } else { "--" };
            match real {
                Some(Ok(rows)) => {
                    println!("[{mark}] est={:.0} real={rows}\t{}", q.measured, q.sql)
                }
                Some(Err(e)) => {
                    println!("[{mark}] est={:.0} real=error: {e}\t{}", q.measured, q.sql)
                }
                None => println!("[{mark}] est={:.0}\t{}", q.measured, q.sql),
            }
        }
    }
    let hits = queries.iter().filter(|q| q.satisfied).count();
    obs_info!(
        "accuracy: {hits}/{} = {:.1}%",
        queries.len(),
        100.0 * hits as f64 / queries.len().max(1) as f64
    );

    if args.profile {
        let r = profile(&queries);
        obs_info!("\nworkload profile:");
        obs_info!("  distinct SQL ratio : {:.2}", r.distinct_ratio);
        obs_info!("  structure entropy  : {:.2} bits", r.structure_entropy);
        obs_info!(
            "  multi-join share   : {:.1}%",
            100.0 * r.multi_join_share()
        );
        obs_info!("  nested share       : {:.1}%", 100.0 * r.nested_share());
        obs_info!(
            "  aggregated share   : {:.1}%",
            100.0 * r.aggregated_share()
        );
        obs_info!("  statement kinds    : {:?}", r.kinds);
    }

    if let Some(path) = &args.save {
        generator
            .write_checkpoint(std::path::Path::new(path))
            .unwrap_or_else(|e| {
                obs_error!("cannot write {path}: {e}");
                exit(1);
            });
        obs_info!("saved checkpoint to {path}");
    }

    if args.metrics {
        let table = sqlgen_obs::metrics::summary_table();
        if args.json {
            // Keep stdout pure JSON lines; the table goes to stderr.
            eprint!("{}", table.to_markdown());
        } else {
            table.print();
        }
    }
    if args.trace.is_some() {
        sqlgen_obs::metrics::emit_summary_events();
        sqlgen_obs::clear_sink();
        obs_info!("wrote trace to {}", args.trace.as_deref().unwrap_or(""));
    }
}
