//! LearnedSQLGen benchmark: one command, four workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced runs.
//!
//! ```text
//! sqlgen-perfbench --workload <cli-tight|train-exec|serve-cold|serve-warm>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run's detail record (provenance, output digest, sample counts, every
//! metric of both kinds). Workload settings are fixed in `config.json`,
//! compiled into the binary so no run can use other values.

mod check;
mod layers;
mod offline;
mod serve;
mod stats;

use serde_json::{Map, Number, Value};
use std::process::exit;
use std::time::Duration;

/// The fixed workload settings (offered rates, rate ladder, latency limit,
/// request-size mix, scales and pool size).
pub const CONFIG: &str = include_str!("../config.json");

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One named measurement with its unit.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload hands back: outcome counts, both metric sets, and
/// free-form detail for the provenance line.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures of the benchmark's own self-checks (determinism, counter
    /// reconciliation); any makes the run incorrect.
    pub violations: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub detail: Map,
}

/// The end-to-end metric names every untraced run must print.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "train_eps_per_s",
    "satisfied_rate",
    "satisfied_qps",
    "latency_p50_ms",
];

/// The per-layer metric names every traced run must print.
pub const PER_LAYER: &[&str] = &[
    "wall_s",
    "storage.build_s",
    "storage.open_s",
    "storage.pool_hit_rate",
    "storage.pool_misses",
    "storage.evictions",
    "core.new_s",
    "rl.train_s",
    "rl.train.rest_s",
    "core.generate_s",
    "core.generate.rest_s",
    "rl.step_s",
    "rl.step.rest_s",
    "engine.card_calls",
    "engine.card_s",
    "rl.est_cache_hit_rate",
    "fsm.mask_s",
    "fsm.tokens",
    "rl.lane_occupancy",
    "nn.step_us_per_token",
    "rl.episodes_per_query",
    "core.refine_attempts",
    "core.refine_success_rate",
    "core.refine_resampled",
    "bench.check_s",
    "bench.rest_s",
    "serve.latency_mean_ms",
    "load.backlog_ms",
    "serve.queue_wait_ms",
    "serve.gather_ms",
    "serve.exec_ms",
    "serve.transport_ms",
    "serve.rest_ms",
    "serve.cache_hit_rate",
    "serve.queue_depth_max",
    "serve.rejected",
    "load.late_ms_p99",
    "obs.overhead_share",
    "error_share",
];

fn usage(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: sqlgen-perfbench --workload <cli-tight|train-exec|serve-cold|serve-warm> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: f64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(s.is_finite() && s > 0.0) {
                    usage("--seconds must be positive");
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// The compiled-in config, parsed once.
pub fn config() -> Value {
    serde_json::parse_value(CONFIG).expect("config.json is valid JSON")
}

/// `config[path[0]][path[1]]...` as a number; the config is part of the
/// binary, so a missing key is a bug in this package.
pub fn cfg_f64(cfg: &Value, path: &[&str]) -> f64 {
    let mut v = cfg;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("config.json lacks {}", path.join(".")));
    }
    v.as_f64()
        .unwrap_or_else(|| panic!("config.json {} is not a number", path.join(".")))
}

pub fn cfg_list(cfg: &Value, path: &[&str]) -> Vec<f64> {
    let mut v = cfg;
    for key in path {
        v = v
            .get(key)
            .unwrap_or_else(|| panic!("config.json lacks {}", path.join(".")));
    }
    v.as_array()
        .unwrap_or_else(|| panic!("config.json {} is not a list", path.join(".")))
        .iter()
        .map(|x| x.as_f64().expect("numeric list"))
        .collect()
}

pub fn secs_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

pub fn int(v: u64) -> Value {
    Value::Number(Number::UInt(v))
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn metrics_object(metrics: &[Metric], names: &[&str]) -> Result<Value, String> {
    let mut out = Map::new();
    for &name in names {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite ({})", m.value));
        }
        let mut entry = Map::new();
        entry.insert("value".into(), num(m.value));
        entry.insert("unit".into(), text(m.unit));
        out.insert(name.to_string(), Value::Object(entry));
    }
    Ok(Value::Object(out))
}

fn main() {
    let args = parse_args();
    sqlgen_obs::set_level(sqlgen_obs::Level::Warn);
    let report = match args.workload.as_str() {
        "cli-tight" => offline::cli_tight(&args),
        "train-exec" => offline::train_exec(&args),
        "serve-cold" => serve::run(&args, false),
        "serve-warm" => serve::run(&args, true),
        other => usage(&format!("unknown workload {other}")),
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} run rejected: {e}", args.workload);
            exit(1);
        }
    };

    let (names, metrics) = if args.trace {
        (PER_LAYER, &report.per_layer)
    } else {
        (END_TO_END, &report.end_to_end)
    };
    let metrics_json = metrics_object(metrics, names).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        exit(1);
    });

    let mut detail = report.detail;
    detail.insert("workload".into(), text(&args.workload));
    detail.insert("seed".into(), int(args.seed));
    detail.insert("seconds".into(), num(args.seconds));
    detail.insert("trace".into(), Value::Bool(args.trace));
    detail.insert(
        "available_parallelism".into(),
        int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
    );
    detail.insert("config".into(), config());
    detail.insert(
        "violations".into(),
        Value::Array(report.violations.iter().map(|v| text(v)).collect()),
    );
    let every: Map = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .map(|m| (m.name.to_string(), num(m.value)))
        .collect();
    detail.insert("all_metrics".into(), Value::Object(every));
    let mut wrapped = Map::new();
    wrapped.insert("detail".into(), Value::Object(detail));
    println!("{}", Value::Object(wrapped));

    let mut result = Map::new();
    result.insert(
        "correct".into(),
        Value::Bool(report.failed == 0 && report.violations.is_empty()),
    );
    result.insert("attempted".into(), int(report.attempted.max(1)));
    result.insert("failed".into(), int(report.failed));
    result.insert("metrics".into(), metrics_json);
    println!("{}", Value::Object(result));
}
