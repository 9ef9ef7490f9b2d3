//! Unified method runners: LearnedSQLGen vs the two baselines, measured the
//! way the paper measures them (§7.1):
//!
//! * **accuracy** — generate `n` queries, report the satisfied fraction;
//! * **efficiency** — wall-clock time to collect `n` satisfied queries,
//!   *including* the learned method's training phase (satisfied queries
//!   discovered during training count toward the target, as in the paper).

use sqlgen_baselines::{RandomGen, TemplateGen};
use sqlgen_core::{Algorithm, GenConfig, LearnedSqlGen, RefineConfig};
use sqlgen_engine::Estimator;
use sqlgen_fsm::{FsmConfig, Vocabulary};
use sqlgen_rl::{Constraint, NetConfig, SqlGenEnv, TrainConfig};
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::sample::SampleConfig;
use sqlgen_storage::Database;
use std::time::Instant;

/// A prepared benchmark instance: data + action space + statistics.
pub struct TestBed {
    pub benchmark: Benchmark,
    pub db: Database,
    pub vocab: Vocabulary,
    pub est: Estimator,
    pub seed: u64,
}

impl TestBed {
    pub fn new(benchmark: Benchmark, scale: f64, seed: u64) -> Self {
        Self::with_sample(benchmark, scale, seed, SampleConfig::default())
    }

    pub fn with_sample(benchmark: Benchmark, scale: f64, seed: u64, sample: SampleConfig) -> Self {
        let db = benchmark.build(scale, seed);
        let vocab = Vocabulary::build(&db, &sample);
        let est = Estimator::build(&db);
        TestBed {
            benchmark,
            db,
            vocab,
            est,
            seed,
        }
    }

    pub fn env(&self, constraint: Constraint) -> SqlGenEnv<'_> {
        SqlGenEnv::new(&self.vocab, &self.est, constraint)
    }

    pub fn env_with(&self, constraint: Constraint, fsm: FsmConfig) -> SqlGenEnv<'_> {
        SqlGenEnv::new(&self.vocab, &self.est, constraint).with_fsm_config(fsm)
    }
}

/// One method's outcome for one experiment cell.
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub method: &'static str,
    pub accuracy: f64,
    pub seconds: f64,
    pub satisfied: usize,
    pub attempts: usize,
}

/// The experiment-grade generator configuration (smaller than the paper's
/// GPU-scale nets, same shape; see DESIGN.md scale note).
pub fn harness_gen_config(seed: u64) -> GenConfig {
    GenConfig {
        sample: SampleConfig::default(),
        // One extra join vs the library default: large-cardinality point
        // constraints are only reachable through fact-fact join chains.
        fsm: FsmConfig {
            max_joins: 3,
            ..FsmConfig::default()
        },
        train: TrainConfig {
            net: NetConfig {
                embed_dim: 24,
                hidden: 24,
                layers: 2,
                dropout: 0.1,
            },
            seed,
            ..Default::default()
        },
        algorithm: Algorithm::ActorCritic,
        default_train_episodes: 400,
        batch_size: 1,
        quantize: false,
        refine: RefineConfig::default(),
        reward_source: sqlgen_core::RewardSource::default(),
    }
}

/// LearnedSQLGen accuracy run: train, then generate `n`, report accuracy.
pub fn learned_accuracy(
    bed: &TestBed,
    constraint: Constraint,
    train_episodes: usize,
    n: usize,
    lanes: usize,
) -> MethodResult {
    let start = Instant::now();
    let mut cfg = harness_gen_config(bed.seed).with_batch_size(lanes);
    cfg.sample = SampleConfig {
        k: 100,
        ..Default::default()
    };
    let mut g = LearnedSqlGen::new(&bed.db, constraint, cfg);
    g.train(train_episodes);
    let qs = g.generate(n);
    let satisfied = qs.iter().filter(|q| q.satisfied).count();
    MethodResult {
        method: "LearnedSQLGen",
        accuracy: satisfied as f64 / n.max(1) as f64,
        seconds: start.elapsed().as_secs_f64(),
        satisfied,
        attempts: n,
    }
}

/// SQLSmith accuracy run: `n` random queries.
pub fn random_accuracy(bed: &TestBed, constraint: Constraint, n: usize) -> MethodResult {
    let env = bed.env(constraint);
    let mut g = RandomGen::new(bed.seed ^ 0x51);
    let start = Instant::now();
    let accuracy = g.accuracy(&env, n);
    MethodResult {
        method: "SQLSmith",
        accuracy,
        seconds: start.elapsed().as_secs_f64(),
        satisfied: (accuracy * n as f64).round() as usize,
        attempts: n,
    }
}

/// Template accuracy run: `n` tuning attempts.
pub fn template_accuracy(bed: &TestBed, constraint: Constraint, n: usize) -> MethodResult {
    let env = bed.env(constraint);
    let mut g = TemplateGen::from_rollouts(&bed.vocab, &env.fsm_config, 16, bed.seed ^ 0x7e);
    let start = Instant::now();
    let accuracy = g.accuracy(&env, n);
    MethodResult {
        method: "Template",
        accuracy,
        seconds: start.elapsed().as_secs_f64(),
        satisfied: (accuracy * n as f64).round() as usize,
        attempts: n,
    }
}

/// Efficiency runs: time to collect `n` satisfied queries (training
/// included for the learned method). When the attempt budget runs out with
/// `0 < m < n` found, the time is linearly extrapolated to `n`; with
/// `m = 0` the time is `+inf` ("n/a" in the tables).
pub fn learned_efficiency(
    bed: &TestBed,
    constraint: Constraint,
    train_episodes: usize,
    n: usize,
    lanes: usize,
) -> MethodResult {
    let start = Instant::now();
    let mut cfg = harness_gen_config(bed.seed).with_batch_size(lanes);
    cfg.sample = SampleConfig {
        k: 100,
        ..Default::default()
    };
    let mut g = LearnedSqlGen::new(&bed.db, constraint, cfg);
    g.train(train_episodes);
    let found_in_training = g.stats.satisfied_during_training.len().min(n);
    let remaining = n - found_in_training;
    let (found, attempts) = g.generate_satisfied(remaining, budget(n));
    let satisfied = found_in_training + found.len();
    finish(
        "LearnedSQLGen",
        start,
        satisfied,
        n,
        train_episodes + attempts,
    )
}

pub fn random_efficiency(bed: &TestBed, constraint: Constraint, n: usize) -> MethodResult {
    let env = bed.env(constraint);
    let mut g = RandomGen::new(bed.seed ^ 0x51);
    let start = Instant::now();
    let (found, attempts) = g.find_satisfied(&env, n, budget(n));
    finish("SQLSmith", start, found.len(), n, attempts)
}

pub fn template_efficiency(bed: &TestBed, constraint: Constraint, n: usize) -> MethodResult {
    let env = bed.env(constraint);
    let mut g = TemplateGen::from_rollouts(&bed.vocab, &env.fsm_config, 16, bed.seed ^ 0x7e);
    let start = Instant::now();
    let (found, attempts) = g.find_satisfied(&env, n, budget(n));
    finish("Template", start, found.len(), n, attempts)
}

fn budget(n: usize) -> usize {
    (n * 200).max(2_000)
}

fn finish(
    method: &'static str,
    start: Instant,
    satisfied: usize,
    target: usize,
    attempts: usize,
) -> MethodResult {
    let elapsed = start.elapsed().as_secs_f64();
    let seconds = if satisfied >= target {
        elapsed
    } else if satisfied > 0 {
        elapsed * target as f64 / satisfied as f64
    } else {
        f64::INFINITY
    };
    MethodResult {
        method,
        accuracy: satisfied as f64 / attempts.max(1) as f64,
        seconds,
        satisfied,
        attempts,
    }
}
