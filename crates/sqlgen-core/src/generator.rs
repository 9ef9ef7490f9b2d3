//! The LearnedSQLGen generator: train on a constraint, then generate
//! satisfying queries (paper §3, Algorithms 1 and 2).

use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointMeta};
use crate::config::{Algorithm, GenConfig};
use crate::refine::Refiner;
use sqlgen_engine::{render, Estimator, Statement};
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    run_jobs_batched, worker_seed, ActorCritic, Constraint, Episode, EstimatorCache, ExecDb,
    InferActor, Job, JobOutcome, QuantizedActor, SqlGenEnv,
};
use sqlgen_storage::Database;
use std::sync::Arc;
use std::time::Instant;

/// One generated query with its measured metric.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    pub statement: Statement,
    pub sql: String,
    /// Estimated cardinality or cost (per the constraint's metric).
    pub measured: f64,
    pub satisfied: bool,
}

/// Aggregate statistics from a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    pub episodes: usize,
    /// Per-episode average step reward (the Figure 8(c) training trace).
    pub reward_trace: Vec<f32>,
    /// Satisfied queries discovered *during* training (the paper counts
    /// these toward the generation budget).
    pub satisfied_during_training: Vec<GeneratedQuery>,
}

/// Constraint-aware SQL generator.
///
/// Owns the action space, the statistics-based estimator and the RL model.
/// Train once per constraint with [`LearnedSqlGen::train`], then call
/// [`LearnedSqlGen::generate`] any number of times.
pub struct LearnedSqlGen {
    vocab: Vocabulary,
    estimator: Estimator,
    constraint: Constraint,
    config: GenConfig,
    trainer: ActorCritic,
    /// Memo cache for estimator reward lookups. Persists across
    /// `generate` calls (so `generate_satisfied` never re-estimates a
    /// duplicate candidate); pure bit-exact memoization.
    cache: EstimatorCache,
    /// Int8 snapshot of the actor, present iff `config.quantize`.
    /// Refreshed after every train/load so it never runs stale weights.
    quant: Option<QuantizedActor>,
    /// Constraint-miss refinement engine (bounded local search + miss
    /// cache; see [`crate::refine`]). Deterministic, so it rides along on
    /// both the RNG-stream and the seeded generation paths.
    refiner: Refiner,
    /// Store for `RewardSource::Execute` rewards (shared with serving via
    /// `Arc`); `None` keeps the estimator-only paths untouched.
    exec_db: Option<Arc<ExecDb>>,
    pub stats: TrainStats,
}

/// Builds the environment from split field borrows, so callers can hold
/// `&mut self.trainer` at the same time.
fn build_env<'a>(
    vocab: &'a Vocabulary,
    estimator: &'a Estimator,
    constraint: Constraint,
    config: &GenConfig,
    cache: &'a EstimatorCache,
    exec_db: Option<&'a ExecDb>,
) -> SqlGenEnv<'a> {
    let mut env = SqlGenEnv::new(vocab, estimator, constraint)
        .with_fsm_config(config.fsm.clone())
        .with_cache(cache)
        .with_reward_source(config.reward_source);
    if let Some(db) = exec_db {
        env = env.with_exec_db(db);
        if let Some(mem) = db.as_mem() {
            env = env.with_database(mem);
        }
    }
    env
}

impl LearnedSqlGen {
    /// Builds the generator for a database and constraint. Statistics and
    /// the action space are derived from `db` once, here.
    pub fn new(db: &Database, constraint: Constraint, config: GenConfig) -> Self {
        let vocab = Vocabulary::build(db, &config.sample);
        let estimator = Estimator::build(db);
        Self::from_parts(vocab, estimator, constraint, config)
    }

    /// Builds the generator directly from an execution store — in-memory
    /// or paged. With a paged store the action space is sampled through
    /// the buffer pool and statistics are stride-sampled from disk, so a
    /// multi-GB database never needs a second in-memory copy; the store
    /// is retained for `RewardSource::Execute` rewards.
    pub fn from_exec_db(db: Arc<ExecDb>, constraint: Constraint, config: GenConfig) -> Self {
        let (vocab, estimator) = match &*db {
            ExecDb::Mem(mem) => (
                Vocabulary::build(mem, &config.sample),
                Estimator::build(mem),
            ),
            ExecDb::Paged(paged) => (
                Vocabulary::build(paged, &config.sample),
                Estimator::from_stats(paged.table_stats()),
            ),
        };
        let mut gen = Self::from_parts(vocab, estimator, constraint, config);
        gen.exec_db = Some(db);
        gen
    }

    fn from_parts(
        vocab: Vocabulary,
        estimator: Estimator,
        constraint: Constraint,
        config: GenConfig,
    ) -> Self {
        let trainer = match config.algorithm {
            Algorithm::Reinforce => ActorCritic::reinforce(vocab.size(), config.train.clone()),
            Algorithm::ActorCritic => ActorCritic::new(vocab.size(), config.train.clone()),
        };
        let refiner = Refiner::new(config.refine.clone());
        let mut gen = LearnedSqlGen {
            vocab,
            estimator,
            constraint,
            config,
            trainer,
            cache: EstimatorCache::default(),
            quant: None,
            refiner,
            exec_db: None,
            stats: TrainStats::default(),
        };
        gen.refresh_quant();
        gen
    }

    /// Attaches a store for `RewardSource::Execute` rewards after
    /// construction (e.g. the in-memory db the generator was built from).
    pub fn with_exec_db(mut self, db: Arc<ExecDb>) -> Self {
        self.exec_db = Some(db);
        self
    }

    /// The attached execution store, if any.
    pub fn exec_db(&self) -> Option<&Arc<ExecDb>> {
        self.exec_db.as_ref()
    }

    /// The actor inference runs on: the int8 snapshot when quantized,
    /// otherwise the f32 actor.
    fn infer_actor(&self) -> &dyn InferActor {
        match &self.quant {
            Some(q) => q,
            None => &self.trainer.actor,
        }
    }

    /// Rebuilds (or drops) the int8 snapshot from the current f32 weights.
    fn refresh_quant(&mut self) {
        self.quant = if self.config.quantize {
            Some(QuantizedActor::from_actor(&self.trainer.actor))
        } else {
            None
        };
    }

    /// Whether inference currently runs on the int8 quantized snapshot.
    pub fn quantized(&self) -> bool {
        self.quant.is_some()
    }

    /// Enables or disables constraint-miss refinement at runtime.
    /// Disabling restores the legacy generate-and-hope path bit-for-bit.
    pub fn set_refine(&mut self, on: bool) {
        self.config.refine.enabled = on;
        self.refiner = Refiner::new(self.config.refine.clone());
    }

    /// Whether constraint-miss refinement is active.
    pub fn refine_enabled(&self) -> bool {
        self.refiner.enabled()
    }

    /// Enables or disables int8 quantized inference. Enabling snapshots the
    /// current f32 weights; disabling restores the bit-exact f32 path.
    pub fn set_quantize(&mut self, on: bool) {
        self.config.quantize = on;
        self.refresh_quant();
    }

    pub fn constraint(&self) -> Constraint {
        self.constraint
    }

    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    fn env(&self) -> SqlGenEnv<'_> {
        build_env(
            &self.vocab,
            &self.estimator,
            self.constraint,
            &self.config,
            &self.cache,
            self.exec_db.as_deref(),
        )
    }

    /// Overrides the lane width (lockstep GEMM lanes); used by the
    /// benchmark sweep. `1` restores the one-episode-at-a-time streams.
    pub fn set_batch_size(&mut self, batch_size: usize) {
        self.config.batch_size = batch_size.max(1);
    }

    /// Trains for `episodes` episodes (Algorithm 1 / Algorithm 3).
    ///
    /// Rollouts advance in `config.batch_size` lockstep GEMM lanes and
    /// updates use batched BPTT with one accumulated gradient step per
    /// round of `batch_size` episodes; width 1 is one episode and one
    /// update per round.
    pub fn train(&mut self, episodes: usize) -> &TrainStats {
        let _span = sqlgen_obs::obs_span!("gen.train");
        let started = std::time::Instant::now();
        let mut reward_sum = 0.0f64;
        let mut tokens = 0usize;
        // Split borrows: the env borrows vocab/estimator, the trainer is
        // updated mutably.
        let env = build_env(
            &self.vocab,
            &self.estimator,
            self.constraint,
            &self.config,
            &self.cache,
            self.exec_db.as_deref(),
        );
        let eps = self
            .trainer
            .train(&env, episodes, self.config.batch_size.max(1));
        for ep in &eps {
            reward_sum += ep.total_reward() as f64;
            tokens += ep.len();
            self.stats.episodes += 1;
            self.stats
                .reward_trace
                .push(ep.total_reward() / ep.len().max(1) as f32);
            if ep.satisfied {
                self.stats.satisfied_during_training.push(to_generated(ep));
            }
        }
        let secs = started.elapsed().as_secs_f64();
        if episodes > 0 && secs > 0.0 {
            sqlgen_obs::obs_gauge!("rl.rewards_per_sec", reward_sum / secs);
            sqlgen_obs::obs_gauge!("rl.episodes_per_sec", episodes as f64 / secs);
            sqlgen_obs::obs_gauge!("rl.tokens_per_sec", tokens as f64 / secs);
        }
        self.refresh_quant();
        &self.stats
    }

    /// Trains with the configured default episode budget.
    pub fn train_default(&mut self) -> &TrainStats {
        self.train(self.config.default_train_episodes)
    }

    /// Generates `n` queries with the trained policy (Algorithm 2). With
    /// refinement on (the default), missed constraints are repaired by
    /// bounded local search and — past the search budget — by redrawing
    /// the missed slots for up to `refine.resample_rounds` rounds. With
    /// refinement off this is the raw policy sample, bit-identical to the
    /// legacy path.
    pub fn generate(&mut self, n: usize) -> Vec<GeneratedQuery> {
        let _span = sqlgen_obs::obs_span!("gen.generate");
        let started = std::time::Instant::now();
        let env = build_env(
            &self.vocab,
            &self.estimator,
            self.constraint,
            &self.config,
            &self.cache,
            self.exec_db.as_deref(),
        );
        let batch = self.config.batch_size.max(1);
        let quant = self.quant.as_ref().map(|q| q as &dyn InferActor);
        let mut eps = self.trainer.generate(quant, &env, n, batch);
        let mut tokens: usize = eps.iter().map(Episode::len).sum();
        if self.refiner.enabled() {
            // Post-EOS repair: token streams above are untouched, only the
            // terminal statements of missed episodes are rewritten.
            for ep in &mut eps {
                self.refiner.refine_episode(&env, ep);
            }
            // Fallback: redraw still-missing slots (advancing the trainer
            // RNG, like any further generate call would) and refine the
            // redraws too. Slots are interchangeable on this unseeded path,
            // so each round draws at least a full lane width — the tail of
            // the miss set would otherwise run near-serial through the
            // batched engine and dilute tokens/sec at wide `batch`.
            for _round in 0..self.config.refine.resample_rounds {
                let missing: Vec<usize> = eps
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| !e.satisfied)
                    .map(|(i, _)| i)
                    .collect();
                if missing.is_empty() {
                    break;
                }
                let draws = missing.len().max(batch);
                sqlgen_obs::obs_count!("refine.resampled", draws as u64);
                let fresh = self.trainer.generate(quant, &env, draws, batch);
                let mut slots = missing.into_iter();
                let mut slot = slots.next();
                for mut ep in fresh {
                    tokens += ep.len();
                    let Some(open) = slot else {
                        continue; // surplus draw past the last open slot
                    };
                    self.refiner.refine_episode(&env, &mut ep);
                    if ep.satisfied {
                        eps[open] = ep;
                        slot = slots.next();
                    }
                }
            }
        }
        let out = eps.iter().map(to_generated).collect();
        let secs = started.elapsed().as_secs_f64();
        if n > 0 && secs > 0.0 {
            sqlgen_obs::obs_gauge!("gen.queries_per_sec", n as f64 / secs);
            sqlgen_obs::obs_gauge!("gen.tokens_per_sec", tokens as f64 / secs);
        }
        out
    }

    /// Keeps generating until `n` satisfied queries are found or
    /// `max_attempts` is exhausted. Returns the satisfied queries and the
    /// number of attempts spent.
    pub fn generate_satisfied(
        &mut self,
        n: usize,
        max_attempts: usize,
    ) -> (Vec<GeneratedQuery>, usize) {
        let mut out = Vec::with_capacity(n);
        let mut attempts = 0;
        // Attempts proceed one lockstep lane width at a time (still within
        // the budget); batch_size = 1 reproduces the one-at-a-time loop.
        let chunk = self.config.batch_size.max(1);
        while out.len() < n && attempts < max_attempts {
            let batch = chunk.min(max_attempts - attempts);
            attempts += batch;
            for q in self.generate(batch) {
                if q.satisfied && out.len() < n {
                    out.push(q);
                }
            }
        }
        (out, attempts)
    }

    /// Fraction of `n` **raw** policy samples satisfying the constraint —
    /// the paper's generation accuracy. Refinement is intentionally
    /// bypassed here: this measures the trained policy itself, not the
    /// repair loop (use [`LearnedSqlGen::generate`] for end-to-end rates).
    pub fn accuracy(&mut self, n: usize) -> f64 {
        let env = build_env(
            &self.vocab,
            &self.estimator,
            self.constraint,
            &self.config,
            &self.cache,
            self.exec_db.as_deref(),
        );
        let quant = self.quant.as_ref().map(|q| q as &dyn InferActor);
        let eps = self
            .trainer
            .generate(quant, &env, n, self.config.batch_size.max(1));
        eps.iter().filter(|e| e.satisfied).count() as f64 / n.max(1) as f64
    }

    /// Measures a statement under this generator's constraint metric.
    pub fn measure(&self, stmt: &Statement) -> f64 {
        self.env().measure(stmt)
    }

    /// Generates `n` queries whose token streams are a pure function of
    /// `(weights, constraint, seed)` — independent of `batch_size` and of
    /// anything else running in the process. Query `j` uses the per-job
    /// seed [`worker_seed`]`(seed, j)` and is refined and resampled by
    /// [`generate_window`], so the result is also what a server coalescing
    /// this request with others must return.
    pub fn generate_seeded(&self, n: usize, seed: u64) -> Vec<GeneratedQuery> {
        let _span = sqlgen_obs::obs_span!("gen.generate_seeded");
        let env = self.env();
        let req = SeededRequest {
            env: &env,
            n,
            seed,
            deadline: None,
            trace: None,
        };
        let lanes = self.config.batch_size;
        let mut window = generate_window(self.infer_actor(), &[req], lanes, Some(&self.refiner));
        // Without a deadline no job expires, so every slot holds a query.
        window
            .remove(0)
            .into_iter()
            .flatten()
            .map(|ep| to_generated(&ep))
            .collect()
    }

    /// Builds a versioned [`Checkpoint`] of the trained policy: actor +
    /// critic (when the algorithm has one) + config provenance.
    pub fn checkpoint(&self) -> Checkpoint {
        let algorithm = match self.trainer.critic {
            Some(_) => "actor-critic",
            None => "reinforce",
        };
        Checkpoint {
            config: CheckpointMeta {
                algorithm: algorithm.to_string(),
                vocab_size: self.vocab.size(),
                net: Some(self.config.train.net.clone()),
                constraint: Some(self.constraint),
            },
            actor: self.trainer.actor.clone(),
            critic: self.trainer.critic.clone(),
        }
    }

    /// Serializes the trained policy in the versioned checkpoint format
    /// (header line + JSON payload; see [`crate::checkpoint`]).
    pub fn save_checkpoint(&self) -> String {
        self.checkpoint().render()
    }

    /// Atomically writes [`LearnedSqlGen::save_checkpoint`] output to
    /// `path` (tmp file + rename), safe against concurrent registry scans.
    pub fn write_checkpoint(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        crate::checkpoint::write_atomic(path, &self.save_checkpoint())
    }

    /// Restores the policy from [`LearnedSqlGen::save_checkpoint`] output
    /// (or legacy [`LearnedSqlGen::save_actor`] JSON). Validates that the
    /// checkpoint's action space matches this generator's vocabulary and
    /// returns a typed error otherwise; on success installs the actor and —
    /// when both sides have one — the critic.
    pub fn load_checkpoint(&mut self, text: &str) -> Result<(), CheckpointError> {
        let ckpt = Checkpoint::parse_for_vocab(text, self.vocab.size())?;
        self.trainer.actor = ckpt.actor;
        if let (Some(critic), Some(_)) = (ckpt.critic, &self.trainer.critic) {
            self.trainer.critic = Some(critic);
        }
        self.refresh_quant();
        Ok(())
    }

    /// Serializes the trained actor to bare JSON (the legacy, headerless
    /// checkpoint format; kept for compatibility). Prefer
    /// [`LearnedSqlGen::save_checkpoint`], which also carries the critic
    /// and config.
    pub fn save_actor(&self) -> String {
        serde_json::to_string(&self.trainer.actor).expect("actor serializes")
    }

    /// Restores actor weights from either checkpoint format. Alias of
    /// [`LearnedSqlGen::load_checkpoint`]; unlike the pre-versioned
    /// implementation this validates the vocabulary size instead of
    /// silently installing a mismatched policy.
    pub fn load_actor(&mut self, text: &str) -> Result<(), CheckpointError> {
        self.load_checkpoint(text)
    }
}

fn to_generated(ep: &Episode) -> GeneratedQuery {
    GeneratedQuery {
        sql: render(&ep.statement),
        statement: ep.statement.clone(),
        measured: ep.measured,
        satisfied: ep.satisfied,
    }
}

/// One request of a seeded generation window.
pub struct SeededRequest<'e, 'v: 'e> {
    /// The request's environment: constraint, FSM limits, reward source
    /// and estimator cache.
    pub env: &'e SqlGenEnv<'v>,
    /// Number of queries.
    pub n: usize,
    /// Base seed; slot `j` first draws with [`worker_seed`]`(seed, j)`.
    pub seed: u64,
    /// Jobs still running at the deadline abort and leave their slot empty.
    pub deadline: Option<Instant>,
    /// Request trace the jobs attribute their lane time to, plus a
    /// `refine` phase for local search.
    pub trace: Option<sqlgen_obs::TraceHandle>,
}

/// Seeded generation for a window of requests on `lanes` lockstep lanes —
/// the pipeline behind both [`LearnedSqlGen::generate_seeded`] and
/// serving. Returns each request's `n` slots in order; `None` marks a job
/// that expired.
///
/// Every job is a fresh [`sqlgen_rl::Job`] with its own seed, and the
/// refiner is a pure function of `(schema, constraint, query)`, so each
/// request's slots depend only on the actor, its env and its
/// `(n, seed)` — not on `lanes` or on the other requests. With an enabled
/// `refiner`, missed slots are repaired by local search and then redrawn
/// for up to `resample_rounds` rounds: round `round` redraws slot `j` with
/// seed `worker_seed(seed, n·(round+1) + j)`, disjoint from the
/// primary block, and the lowest satisfying round wins. Once the miss set
/// is narrower than the lanes, several rounds are drawn speculatively in
/// one batched call; the seed schedule is fixed, so keeping the lowest
/// satisfying round per slot returns exactly what the round-by-round loop
/// would, while the tail no longer runs near-serial lanes.
pub fn generate_window<A: InferActor + ?Sized>(
    actor: &A,
    reqs: &[SeededRequest],
    lanes: usize,
    refiner: Option<&Refiner>,
) -> Vec<Vec<Option<Episode>>> {
    let lanes = lanes.max(1);
    // Runs one job per `(request, slot, seed)` draw; job tags index `draws`.
    let run = |draws: &[(usize, usize, u64)]| {
        let jobs = draws
            .iter()
            .enumerate()
            .map(|(k, &(ri, _, seed))| Job {
                env: reqs[ri].env,
                seed,
                deadline: reqs[ri].deadline,
                tag: k as u64,
                trace: reqs[ri].trace.clone(),
            })
            .collect();
        run_jobs_batched(actor, jobs, lanes)
    };
    let primary: Vec<(usize, usize, u64)> = reqs
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| (0..r.n).map(move |j| (ri, j, worker_seed(r.seed, j))))
        .collect();
    let mut slots: Vec<Vec<Option<Episode>>> = reqs
        .iter()
        .map(|r| (0..r.n).map(|_| None).collect())
        .collect();
    for (k, outcome) in run(&primary) {
        if let JobOutcome::Done(ep) = outcome {
            let (ri, j, _) = primary[k as usize];
            slots[ri][j] = Some(*ep);
        }
    }
    let Some(refiner) = refiner.filter(|r| r.enabled()) else {
        return slots;
    };
    for (r, req_slots) in reqs.iter().zip(&mut slots) {
        let t0 = r.trace.is_some().then(Instant::now);
        for ep in req_slots.iter_mut().flatten() {
            refiner.refine_episode(r.env, ep);
        }
        if let (Some(t0), Some(handle)) = (t0, &r.trace) {
            handle.accum("refine", t0.elapsed().as_nanos() as f64 / 1_000.0);
        }
    }
    let rounds = refiner.config().resample_rounds;
    let mut first = 0usize;
    while first < rounds {
        let missing: Vec<(usize, usize)> = slots
            .iter()
            .enumerate()
            .flat_map(|(ri, req_slots)| {
                req_slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.as_ref().is_some_and(|ep| !ep.satisfied))
                    .map(move |(j, _)| (ri, j))
            })
            .collect();
        if missing.is_empty() {
            break;
        }
        let span = (lanes / missing.len()).clamp(1, rounds - first);
        let draws: Vec<(usize, usize, u64)> = (first..first + span)
            .flat_map(|round| {
                missing.iter().map(move |&(ri, j)| {
                    let r = &reqs[ri];
                    (ri, j, worker_seed(r.seed, r.n * (round + 1) + j))
                })
            })
            .collect();
        sqlgen_obs::obs_count!("refine.resampled", draws.len() as u64);
        // Draw `k` is round `first + k / missing.len()` of missing slot
        // `k % missing.len()`; the lowest satisfying round wins.
        let mut won: Vec<Option<usize>> = vec![None; missing.len()];
        for (k, outcome) in run(&draws) {
            let JobOutcome::Done(mut ep) = outcome else {
                continue;
            };
            let (offset, m) = (k as usize / missing.len(), k as usize % missing.len());
            if won[m].is_some_and(|best| best <= offset) {
                continue;
            }
            let (ri, j) = missing[m];
            if refiner.refine_episode(reqs[ri].env, &mut ep) {
                won[m] = Some(offset);
                slots[ri][j] = Some(*ep);
            }
        }
        first += span;
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_storage::gen::tpch_database;

    fn quick_gen(constraint: Constraint) -> LearnedSqlGen {
        let db = tpch_database(0.2, 21);
        LearnedSqlGen::new(&db, constraint, GenConfig::fast().with_seed(5))
    }

    #[test]
    fn train_then_generate_beats_untrained_accuracy() {
        // Tight enough that the untrained policy rarely hits it.
        let constraint = Constraint::cardinality_range(100.0, 500.0);
        let mut untrained = quick_gen(constraint);
        let base_acc = untrained.accuracy(80);

        let mut g = quick_gen(constraint);
        g.train(500);
        let acc = g.accuracy(80);
        assert!(
            acc > base_acc + 0.05,
            "training did not help: {acc:.2} vs untrained {base_acc:.2}"
        );
        assert_eq!(g.stats.episodes, 500);
        assert_eq!(g.stats.reward_trace.len(), 500);
    }

    #[test]
    fn generated_queries_are_valid_sql() {
        let db = tpch_database(0.2, 21);
        let mut g = LearnedSqlGen::new(
            &db,
            Constraint::cardinality_range(1.0, 100_000.0),
            GenConfig::fast(),
        );
        g.train(50);
        for q in g.generate(20) {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
            let reparsed = sqlgen_engine::parse(&q.sql).unwrap();
            assert_eq!(render(&reparsed), q.sql);
        }
    }

    #[test]
    fn generated_queries_are_valid_sql_with_batching() {
        let db = tpch_database(0.2, 21);
        let mut g = LearnedSqlGen::new(
            &db,
            Constraint::cardinality_range(1.0, 100_000.0),
            GenConfig::fast().with_batch_size(8),
        );
        g.train(50);
        for q in g.generate(20) {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
            let reparsed = sqlgen_engine::parse(&q.sql).unwrap();
            assert_eq!(render(&reparsed), q.sql);
        }
    }

    /// Every generation width runs the lane engine, so every width reports
    /// its lane occupancy (width 1 included).
    #[test]
    fn generate_records_lane_occupancy_at_every_width() {
        let db = tpch_database(0.1, 21);
        let occupancy = sqlgen_obs::metrics::global().histogram("rl.batch.occupancy");
        for batch in [1usize, 4] {
            let mut g = LearnedSqlGen::new(
                &db,
                Constraint::cardinality_range(1.0, 100_000.0),
                GenConfig::fast().with_batch_size(batch),
            );
            let before = occupancy.count();
            g.generate(8);
            assert!(
                occupancy.count() > before,
                "width {batch}: no rl.batch.occupancy samples"
            );
        }
    }

    #[test]
    fn quantized_generation_is_valid_and_toggles_cleanly() {
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let db = tpch_database(0.2, 21);
        let mut g = LearnedSqlGen::new(&db, constraint, GenConfig::fast().with_seed(5));
        g.train(60);
        assert!(!g.quantized());
        let baseline = g.generate_seeded(6, 0x0DD);

        g.set_quantize(true);
        assert!(g.quantized());
        let quant = g.generate_seeded(6, 0x0DD);
        assert_eq!(quant.len(), 6);
        for q in &quant {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
        }
        // Plain generate also runs the int8 engine and yields valid SQL.
        for q in g.generate(10) {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
        }

        // Disabling restores the bit-exact f32 path.
        g.set_quantize(false);
        assert!(!g.quantized());
        let back = g.generate_seeded(6, 0x0DD);
        for (x, y) in back.iter().zip(&baseline) {
            assert_eq!(x.sql, y.sql);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
    }

    #[test]
    fn train_with_batching_then_quantized_load_roundtrips() {
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let db = tpch_database(0.2, 21);
        let mut g = LearnedSqlGen::new(
            &db,
            constraint,
            GenConfig::fast().with_seed(5).with_batch_size(8),
        );
        g.train(64); // lane-batched training path
        let text = g.save_checkpoint();

        // A quantize-at-load generator reproduces the trainer's own
        // quantized stream: the snapshot is a pure function of the weights.
        let mut fresh = LearnedSqlGen::new(
            &db,
            constraint,
            GenConfig::fast().with_seed(5).with_quantize(true),
        );
        fresh.load_checkpoint(&text).unwrap();
        assert!(fresh.quantized());
        g.set_quantize(true);
        let a = g.generate_seeded(5, 0xFACE);
        let b = fresh.generate_seeded(5, 0xFACE);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql, y.sql);
        }
    }

    #[test]
    fn generate_satisfied_respects_budget() {
        let mut g = quick_gen(Constraint::cardinality_range(1e11, 1e12)); // unreachable
        let (found, attempts) = g.generate_satisfied(5, 20);
        assert!(found.is_empty());
        assert_eq!(attempts, 20);
    }

    #[test]
    fn checkpoint_roundtrip_preserves_behavior() {
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let mut g = quick_gen(constraint);
        g.train(100);
        let ckpt = g.save_actor();
        let acc_before = g.accuracy(30);

        let mut fresh = quick_gen(constraint);
        fresh.load_actor(&ckpt).unwrap();
        let acc_after = fresh.accuracy(30);
        // Same weights, same (seeded) generation stream → similar accuracy.
        assert!(
            (acc_before - acc_after).abs() < 0.35,
            "checkpoint drift: {acc_before} vs {acc_after}"
        );
    }

    #[test]
    fn versioned_checkpoint_roundtrips_with_critic() {
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let mut g = quick_gen(constraint);
        g.train(50);
        let text = g.save_checkpoint();
        assert!(text.starts_with("sqlgen-checkpoint v1\n"));

        let mut fresh = quick_gen(constraint);
        fresh.load_checkpoint(&text).unwrap();
        // Same weights → bitwise-identical seeded generation.
        let a = g.generate_seeded(5, 0xbeef);
        let b = fresh.generate_seeded(5, 0xbeef);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.sql, y.sql);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
        // The critic rode along (ActorCritic is the default algorithm).
        let ckpt = crate::checkpoint::Checkpoint::parse(&text).unwrap();
        assert_eq!(ckpt.config.algorithm, "actor-critic");
        assert!(ckpt.critic.is_some());
    }

    #[test]
    fn load_rejects_vocab_mismatch_with_typed_error() {
        use crate::checkpoint::CheckpointError;
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        // A generator over a different schema/sample config has a different
        // action space; its checkpoint must be rejected, not installed.
        let db = tpch_database(0.1, 3);
        let other = LearnedSqlGen::new(
            &db,
            constraint,
            GenConfig::fast().with_seed(9).with_sample_k(8),
        );
        let foreign = other.save_checkpoint();
        let mut target = quick_gen(constraint);
        let err = target.load_checkpoint(&foreign).unwrap_err();
        assert!(
            matches!(err, CheckpointError::VocabMismatch { .. }),
            "want VocabMismatch, got {err:?}"
        );
        // The legacy headerless format is validated too.
        let err = target.load_actor(&other.save_actor()).unwrap_err();
        assert!(matches!(err, CheckpointError::VocabMismatch { .. }));
    }

    #[test]
    fn generate_seeded_is_independent_of_batch_width() {
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let mut g = quick_gen(constraint);
        g.train(30);
        let baseline = g.generate_seeded(6, 0x5eed);
        for &batch in &[2usize, 4, 8] {
            g.set_batch_size(batch);
            let got = g.generate_seeded(6, 0x5eed);
            assert_eq!(got.len(), baseline.len());
            for (x, y) in got.iter().zip(&baseline) {
                assert_eq!(x.sql, y.sql, "batch {batch} diverged");
                assert_eq!(x.measured.to_bits(), y.measured.to_bits());
            }
        }
        // And reproducible call-to-call.
        let again = g.generate_seeded(6, 0x5eed);
        assert_eq!(
            again.iter().map(|q| &q.sql).collect::<Vec<_>>(),
            baseline.iter().map(|q| &q.sql).collect::<Vec<_>>()
        );
    }

    /// Refinement must only raise the satisfied count, keep every emitted
    /// query valid SQL, and keep `measured` consistent with a re-measure.
    #[test]
    fn refine_off_matches_legacy_and_on_lifts_satisfaction() {
        let constraint = Constraint::cardinality_range(100.0, 500.0);
        let db = tpch_database(0.2, 21);
        let mut raw = LearnedSqlGen::new(
            &db,
            constraint,
            GenConfig::fast().with_seed(5).with_refine(false),
        );
        raw.train(60);
        let legacy = raw.generate(20);

        let mut refined = LearnedSqlGen::new(&db, constraint, GenConfig::fast().with_seed(5));
        assert!(refined.refine_enabled());
        refined.train(60);
        let out = refined.generate(20);
        assert_eq!(out.len(), 20);
        let raw_sat = legacy.iter().filter(|q| q.satisfied).count();
        let ref_sat = out.iter().filter(|q| q.satisfied).count();
        assert!(
            ref_sat >= raw_sat,
            "refinement lowered satisfaction: {ref_sat} < {raw_sat}"
        );
        for q in &out {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
            assert_eq!(
                refined.measure(&q.statement).to_bits(),
                q.measured.to_bits()
            );
            if q.satisfied {
                assert!(constraint.satisfied(q.measured));
            }
        }
    }

    /// With refinement (and its resampling fallback) engaged, seeded
    /// generation must stay a pure function of the seed — independent of
    /// the lane width, exactly like the unrefined path.
    #[test]
    fn seeded_refinement_is_pure_across_batch_widths() {
        // Tight band → plenty of misses → the refine/resample path runs.
        let constraint = Constraint::cardinality_range(200.0, 260.0);
        let mut g = quick_gen(constraint);
        g.train(30);
        let baseline = g.generate_seeded(8, 0xA11);
        for &batch in &[2usize, 8] {
            g.set_batch_size(batch);
            let got = g.generate_seeded(8, 0xA11);
            assert_eq!(got.len(), baseline.len());
            for (x, y) in got.iter().zip(&baseline) {
                assert_eq!(x.sql, y.sql, "batch {batch} diverged under refine");
                assert_eq!(x.measured.to_bits(), y.measured.to_bits());
            }
        }
    }

    /// `RewardSource::Execute` trains end-to-end against both store
    /// backends, stays within the per-query budget (fallbacks counted,
    /// never panics), and the paged store yields the same vocabulary as
    /// the in-memory copy it was saved from.
    #[test]
    fn execute_rewards_train_against_mem_and_paged_stores() {
        use sqlgen_rl::{ExecBudget, RewardSource};
        let constraint = Constraint::cardinality_range(10.0, 10_000.0);
        let db = tpch_database(0.1, 21);
        let cfg = GenConfig::fast()
            .with_seed(5)
            .with_execute_rewards(ExecBudget {
                max_rows: 200_000,
                max_micros: 0,
            });
        assert!(matches!(cfg.reward_source, RewardSource::Execute { .. }));

        // In-memory execute store.
        let mem = std::sync::Arc::new(ExecDb::Mem(db.clone()));
        let mut g = LearnedSqlGen::from_exec_db(mem, constraint, cfg.clone());
        g.train(40);
        let out = g.generate(8);
        assert_eq!(out.len(), 8);
        for q in &out {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
        }

        // Paged execute store: persist, reopen, train on real disk reads.
        let path = std::env::temp_dir().join(format!(
            "sqlgen_gen_exec_{}_{}.db",
            std::process::id(),
            0x9e
        ));
        sqlgen_storage::save_database(&db, &path).unwrap();
        let paged = sqlgen_storage::PagedDb::open(&path, 1 << 20).unwrap();
        let pg = std::sync::Arc::new(ExecDb::Paged(paged));
        let mut g2 = LearnedSqlGen::from_exec_db(pg.clone(), constraint, cfg);
        // Paged and in-memory backends derive the same action space.
        assert_eq!(g.vocab().size(), g2.vocab().size());
        g2.train(40);
        let out = g2.generate(8);
        assert_eq!(out.len(), 8);
        for q in &out {
            sqlgen_engine::validate(&db, &q.statement).unwrap();
        }
        // Real executions actually happened against the paged store.
        let (hits, _misses, _evics, _wb) = {
            let p = pg.as_paged().unwrap();
            let s = p.pool_stats();
            (s.hits, s.misses, s.evictions, s.write_backs)
        };
        assert!(hits > 0, "no buffer pool traffic during execute rewards");
        drop(g2);
        drop(pg);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reinforce_algorithm_also_works() {
        let db = tpch_database(0.2, 21);
        let mut g = LearnedSqlGen::new(
            &db,
            Constraint::cardinality_range(50.0, 5_000.0),
            GenConfig::fast().with_algorithm(Algorithm::Reinforce),
        );
        g.train(100);
        let qs = g.generate(10);
        assert_eq!(qs.len(), 10);
    }
}
