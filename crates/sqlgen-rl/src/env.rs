//! The RL environment (paper §3.2): the database system.
//!
//! The environment owns the FSM (action masking), the estimator + cost
//! model (reward computation from *estimated* cardinality/cost — "we do not
//! use the real cardinality for the efficiency issue"), and the constraint.

use crate::cache::EstimatorCache;
use crate::constraint::{Constraint, Metric};
use sqlgen_engine::{CostModel, Estimator, ExecError, ExecOptions, Executor, Statement};
use sqlgen_fsm::{FsmConfig, GenState, Vocabulary};
use sqlgen_storage::{Database, PagedDb};
use std::sync::atomic::{AtomicU64, Ordering};

/// Weight of the potential-based shaping term (see [`RewardShaper`]).
pub const DEFAULT_PARTIAL_WEIGHT: f32 = 0.5;
/// Weight of the terminal (complete-query) reward.
pub const DEFAULT_TERMINAL_WEIGHT: f32 = 4.0;

/// How intermediate rewards are emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardMode {
    /// Potential-based shaping (the default; see [`RewardShaper`]).
    #[default]
    Shaped,
    /// The paper's literal scheme: the raw §4.2 reward at every executable
    /// boundary. Kept for the reward-shaping ablation bench — it is
    /// vulnerable to boundary-padding reward hacking (DESIGN.md §5).
    RawBoundary,
}

/// Per-query execution budget for [`RewardSource::Execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecBudget {
    /// Abort (and fall back to the estimator) when an intermediate join
    /// result exceeds this many tuples.
    pub max_rows: usize,
    /// Per-query wall-clock budget in microseconds. `0` (the default)
    /// disables the deadline, keeping rewards fully deterministic —
    /// only the rows budget bounds execution.
    pub max_micros: u64,
}

impl Default for ExecBudget {
    fn default() -> Self {
        ExecBudget {
            max_rows: 2_000_000,
            max_micros: 0,
        }
    }
}

/// Where the cardinality reward signal comes from (DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RewardSource {
    /// Histogram-based estimates — the paper's choice ("we do not use the
    /// real cardinality for the efficiency issue").
    #[default]
    Estimator,
    /// Execute the query against the attached [`ExecDb`] and reward on
    /// the *true* cardinality, within `budget`. Failed executions
    /// (row-limit, timeout, malformed query) fall back to the estimate
    /// so training never stalls; [`ExecStats`] counts both paths.
    Execute { budget: ExecBudget },
}

/// A store the execute reward source can run queries against.
pub enum ExecDb {
    /// In-memory columnar tables.
    Mem(Database),
    /// Disk-backed slotted pages behind the buffer pool.
    Paged(PagedDb),
}

impl ExecDb {
    /// True result cardinality of `stmt` under `opts`.
    pub fn cardinality(&self, stmt: &Statement, opts: ExecOptions) -> Result<u64, ExecError> {
        match self {
            ExecDb::Mem(db) => Executor::with_options(db, opts).cardinality(stmt),
            ExecDb::Paged(db) => Executor::with_options(db, opts).cardinality(stmt),
        }
    }

    /// The in-memory database, when this store is one.
    pub fn as_mem(&self) -> Option<&Database> {
        match self {
            ExecDb::Mem(db) => Some(db),
            ExecDb::Paged(_) => None,
        }
    }

    /// The paged store, when this store is one.
    pub fn as_paged(&self) -> Option<&PagedDb> {
        match self {
            ExecDb::Paged(db) => Some(db),
            ExecDb::Mem(_) => None,
        }
    }
}

/// Execute-reward counters: how many rewards came from real execution
/// versus estimator fallback.
#[derive(Debug, Default)]
pub struct ExecStats {
    pub executed: AtomicU64,
    pub fallbacks: AtomicU64,
}

impl ExecStats {
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.executed.load(Ordering::Relaxed),
            self.fallbacks.load(Ordering::Relaxed),
        )
    }
}

/// Potential-based reward shaping over executable-prefix rewards.
///
/// The paper rewards every executable partial query (§4.2 Remark) to
/// densify the training signal. Summing those raw boundary rewards,
/// however, makes the *return* maximizable by padding the query with many
/// mediocre boundaries instead of ending on a satisfying query — a reward
/// hack we observed empirically (DESIGN.md §5). The standard fix (Ng et
/// al., 1999) is to emit the *difference* of a potential function instead:
///
/// `Φ(s) :=` §4.2 reward of the longest executable prefix of `s`
/// (carried over non-executable states), and
/// `r_t = w·(Φ(s_{t+1}) − Φ(s_t)) + [done]·W·Φ(s_T)`.
///
/// The shaping terms telescope to `w·Φ(s_T)`, so every trajectory's return
/// is `(w + W)·Φ(s_T)` — exactly proportional to the final query's §4.2
/// reward — while the agent still receives feedback at every clause
/// boundary.
#[derive(Debug, Clone, Default)]
pub struct RewardShaper {
    last_phi: f32,
}

impl RewardShaper {
    pub fn new() -> Self {
        RewardShaper::default()
    }

    /// The shaped reward after an action has been applied to `state`.
    pub fn shaped_reward(&mut self, env: &SqlGenEnv, state: &GenState, done: bool) -> f32 {
        match env.reward_mode {
            RewardMode::Shaped => {
                let phi = match state.partial_statement() {
                    Some(stmt) => env.constraint.reward(env.measure(&stmt)) as f32,
                    None => self.last_phi,
                };
                let delta = phi - self.last_phi;
                self.last_phi = phi;
                env.partial_weight * delta + if done { env.terminal_weight * phi } else { 0.0 }
            }
            RewardMode::RawBoundary => {
                let raw = env.reward_of(state);
                if done {
                    env.terminal_weight * raw
                } else {
                    raw
                }
            }
        }
    }
}

/// The SQL-generation environment.
pub struct SqlGenEnv<'a> {
    pub vocab: &'a Vocabulary,
    pub fsm_config: FsmConfig,
    pub estimator: &'a Estimator,
    pub cost_model: CostModel,
    pub constraint: Constraint,
    /// Scale applied to rewards of executable partial queries.
    pub partial_weight: f32,
    /// Scale applied to the complete query's reward at `EOF`.
    pub terminal_weight: f32,
    /// Intermediate-reward scheme (shaped by default).
    pub reward_mode: RewardMode,
    /// Live database for the latency metric (optional; estimates need no
    /// data access).
    pub db: Option<&'a Database>,
    /// Optional memo cache for estimator lookups (pure bit-exact
    /// memoization; never consulted for [`Metric::Latency`]).
    pub cache: Option<&'a EstimatorCache>,
    /// Cardinality reward signal: estimates (default) or real execution.
    pub reward_source: RewardSource,
    /// Store for [`RewardSource::Execute`] (in-memory or paged).
    pub exec_db: Option<&'a ExecDb>,
    /// Executed-vs-fallback counters for the execute reward source.
    pub exec_stats: ExecStats,
}

impl<'a> SqlGenEnv<'a> {
    pub fn new(vocab: &'a Vocabulary, estimator: &'a Estimator, constraint: Constraint) -> Self {
        SqlGenEnv {
            vocab,
            fsm_config: FsmConfig::default(),
            estimator,
            cost_model: CostModel::default(),
            constraint,
            partial_weight: DEFAULT_PARTIAL_WEIGHT,
            terminal_weight: DEFAULT_TERMINAL_WEIGHT,
            reward_mode: RewardMode::default(),
            db: None,
            cache: None,
            reward_source: RewardSource::default(),
            exec_db: None,
            exec_stats: ExecStats::default(),
        }
    }

    pub fn with_fsm_config(mut self, cfg: FsmConfig) -> Self {
        self.fsm_config = cfg;
        self
    }

    pub fn with_reward_mode(mut self, mode: RewardMode) -> Self {
        self.reward_mode = mode;
        self
    }

    /// Selects where cardinality rewards come from (estimates by default).
    pub fn with_reward_source(mut self, source: RewardSource) -> Self {
        self.reward_source = source;
        self
    }

    /// Attaches the store [`RewardSource::Execute`] runs queries against.
    pub fn with_exec_db(mut self, db: &'a ExecDb) -> Self {
        self.exec_db = Some(db);
        self
    }

    /// Attaches the live database, enabling [`Metric::Latency`].
    pub fn with_database(mut self, db: &'a Database) -> Self {
        self.db = Some(db);
        self
    }

    /// Attaches an estimator memo cache consulted by [`SqlGenEnv::measure`]
    /// for the cardinality and cost metrics (pure functions of the rendered
    /// statement, so memoization is bit-exact). Latency always executes.
    pub fn with_cache(mut self, cache: &'a EstimatorCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Starts a new episode: an empty query.
    pub fn reset(&self) -> GenState<'a> {
        GenState::new(self.vocab, self.fsm_config.clone())
    }

    /// The constrained metric of a statement, per the constraint's kind.
    /// Cardinality/cost lookups go through the memo cache when one is
    /// attached; latency never does (it measures wall-clock execution).
    pub fn measure(&self, stmt: &Statement) -> f64 {
        match self.constraint.metric {
            Metric::Cardinality => match self.reward_source {
                RewardSource::Estimator => match self.cache {
                    Some(c) => c
                        .get_or_insert_with(&format!("k{}", sqlgen_engine::render(stmt)), || {
                            self.estimator.cardinality(stmt)
                        }),
                    None => self.estimator.cardinality(stmt),
                },
                RewardSource::Execute { budget } => {
                    // Executed cardinalities live under a distinct "x" key
                    // prefix: they are not interchangeable with estimates.
                    let run = || self.execute_cardinality(stmt, budget);
                    match self.cache {
                        Some(c) => {
                            c.get_or_insert_with(&format!("x{}", sqlgen_engine::render(stmt)), run)
                        }
                        None => run(),
                    }
                }
            },
            Metric::Cost => match self.cache {
                Some(c) => c
                    .get_or_insert_with(&format!("c{}", sqlgen_engine::render(stmt)), || {
                        self.cost_model.cost(self.estimator, stmt)
                    }),
                None => self.cost_model.cost(self.estimator, stmt),
            },
            Metric::Latency => {
                let db = self.db.expect(
                    "latency metric requires SqlGenEnv::with_database                      (estimates cannot measure wall-clock time)",
                );
                let ex = Executor::with_options(
                    db,
                    ExecOptions {
                        max_rows: 5_000_000,
                        deadline: None,
                    },
                );
                let start = std::time::Instant::now();
                // Failed executions (e.g. row-limit) count as very slow.
                match ex.cardinality(stmt) {
                    Ok(_) => start.elapsed().as_secs_f64() * 1e6,
                    Err(_) => f64::INFINITY,
                }
            }
        }
    }

    /// Real-execution cardinality within `budget`, falling back to the
    /// estimate when execution errors out or blows the budget.
    fn execute_cardinality(&self, stmt: &Statement, budget: ExecBudget) -> f64 {
        let db = self.exec_db.expect(
            "RewardSource::Execute requires SqlGenEnv::with_exec_db \
             (no store attached to run queries against)",
        );
        let opts = ExecOptions {
            max_rows: budget.max_rows,
            deadline: (budget.max_micros > 0).then(|| {
                std::time::Instant::now() + std::time::Duration::from_micros(budget.max_micros)
            }),
        };
        match db.cardinality(stmt, opts) {
            Ok(n) => {
                self.exec_stats.executed.fetch_add(1, Ordering::Relaxed);
                n as f64
            }
            Err(_) => {
                self.exec_stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                self.estimator.cardinality(stmt)
            }
        }
    }

    /// Whether a statement satisfies the constraint (on estimates, like the
    /// paper's evaluation).
    pub fn satisfies(&self, stmt: &Statement) -> bool {
        self.constraint.satisfied(self.measure(stmt))
    }

    /// The §4.2 step reward for the current (partial or complete) state:
    /// executable → constraint reward of the estimated metric, else 0.
    pub fn reward_of(&self, state: &GenState) -> f32 {
        match state.partial_statement() {
            Some(stmt) => self.constraint.reward(self.measure(&stmt)) as f32,
            None => 0.0,
        }
    }

    /// Applies an action and returns `(shaped reward, done)`. The shaper
    /// carries the episode's potential; use one shaper per episode.
    pub fn step(
        &self,
        state: &mut GenState<'a>,
        action: usize,
        shaper: &mut RewardShaper,
    ) -> (f32, bool) {
        state
            .apply(action)
            .expect("environment only offers masked actions");
        let done = state.is_complete();
        (shaper.shaped_reward(self, state, done), done)
    }

    /// The action-space size.
    pub fn action_space(&self) -> usize {
        self.vocab.size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.2, 3);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 10,
                ..Default::default()
            },
        );
        (db, vocab)
    }

    #[test]
    fn random_episode_produces_rewards_and_terminates() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(10.0, 1000.0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let mut state = env.reset();
            let mut shaper = RewardShaper::new();
            let mut steps = 0;
            let mut saw_nonzero = false;
            let mut total = 0.0f32;
            loop {
                let allowed = state.allowed();
                let action = allowed[rng.random_range(0..allowed.len())];
                let (r, done) = env.step(&mut state, action, &mut shaper);
                total += r;
                assert!((-1.0..=1.0 + DEFAULT_TERMINAL_WEIGHT).contains(&r));
                saw_nonzero |= r > 0.0;
                steps += 1;
                assert!(steps < 200, "episode failed to terminate");
                if done {
                    break;
                }
            }
            // Every complete SELECT is executable, so the final step always
            // carries a reward signal (possibly small but computed).
            let stmt = state.statement().unwrap();
            let measured = env.measure(stmt);
            assert!(measured.is_finite() && measured >= 0.0);
            // Potential-based shaping telescopes: the return equals
            // (w + W) * final reward.
            let expected =
                (env.partial_weight + env.terminal_weight) * env.constraint.reward(measured) as f32;
            assert!(
                (total - expected).abs() < 1e-3,
                "return {total} != telescoped {expected}"
            );
            let _ = saw_nonzero;
        }
    }

    #[test]
    fn cost_metric_uses_cost_model() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let card_env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(100.0));
        let cost_env = SqlGenEnv::new(&vocab, &est, Constraint::cost_point(100.0));
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_quantity FROM lineitem").unwrap();
        let card = card_env.measure(&stmt);
        let cost = cost_env.measure(&stmt);
        assert!(card > 0.0 && cost > 0.0);
        assert_ne!(card, cost);
    }

    #[test]
    fn latency_metric_measures_real_execution() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env =
            SqlGenEnv::new(&vocab, &est, Constraint::latency_range_us(0.0, 1e9)).with_database(&db);
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_quantity FROM lineitem").unwrap();
        let us = env.measure(&stmt);
        assert!(us.is_finite() && us > 0.0, "latency {us}");
        assert!(env.satisfies(&stmt));
    }

    #[test]
    #[should_panic(expected = "latency metric requires")]
    fn latency_without_database_panics() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::latency_range_us(0.0, 1e9));
        let stmt = sqlgen_engine::parse("SELECT region.r_name FROM region").unwrap();
        env.measure(&stmt);
    }

    #[test]
    fn cached_measure_is_bit_exact() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let cache = crate::cache::EstimatorCache::new(64);
        let plain = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(100.0));
        let cached =
            SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(100.0)).with_cache(&cache);
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_quantity FROM lineitem").unwrap();
        for _ in 0..3 {
            assert_eq!(
                plain.measure(&stmt).to_bits(),
                cached.measure(&stmt).to_bits()
            );
        }
        assert_eq!(cache.stats(), (2, 1));
        // Cost uses a distinct key space: same SQL, separate entry.
        let cost_env =
            SqlGenEnv::new(&vocab, &est, Constraint::cost_point(100.0)).with_cache(&cache);
        let plain_cost = SqlGenEnv::new(&vocab, &est, Constraint::cost_point(100.0));
        assert_eq!(
            cost_env.measure(&stmt).to_bits(),
            plain_cost.measure(&stmt).to_bits()
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn satisfies_follows_constraint() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let stmt = sqlgen_engine::parse("SELECT lineitem.l_quantity FROM lineitem").unwrap();
        let card = est.cardinality(&stmt);
        let tight = SqlGenEnv::new(
            &vocab,
            &est,
            Constraint::cardinality_range(card - 1.0, card + 1.0),
        );
        assert!(tight.satisfies(&stmt));
        let wrong = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(0.0, 1.0));
        assert!(!wrong.satisfies(&stmt));
    }
}
