//! Reinforcement learning for LearnedSQLGen (paper §4 and §6).
//!
//! * [`constraint`] — cardinality/cost constraints and the §4.2 rewards,
//! * [`env`] — the database environment (FSM masking + estimator rewards),
//! * [`cache`] — LRU memo cache for estimator reward lookups,
//! * [`nets`] — actor (policy) and critic (value) LSTM networks,
//! * [`episode`] — episodes and the serial reference rollouts,
//! * [`batch`] — the lockstep lane engine every generation path runs
//!   through (continuous lane refill, the width-1 seeding rule),
//! * [`train_batch`] — lane-batched training rollouts (batched BPTT),
//! * [`reinforce`] — the REINFORCE baseline (Figure 8 ablation),
//! * [`actor_critic`] — the shipped A2C algorithm (Algorithm 3),
//! * [`ac_extend`] — constraint-in-the-state ablation (Figure 9),
//! * [`meta_critic`] — the §6 meta-critic for cross-constraint
//!   generalization.

pub mod ac_extend;
pub mod actor_critic;
pub mod batch;
pub mod cache;
pub mod constraint;
pub mod env;
pub mod episode;
pub mod meta_critic;
pub mod nets;
pub mod reinforce;
pub mod train_batch;

pub use ac_extend::AcExtend;
pub use actor_critic::ActorCritic;
pub use batch::{
    lane_rngs, run_jobs_batched, with_lane_rngs, worker_seed, BatchRollout, Job, JobOutcome,
};
pub use cache::{EstimatorCache, DEFAULT_ESTIMATOR_CACHE_CAPACITY};
pub use constraint::{Constraint, Metric, Target, POINT_TOLERANCE};
pub use env::{ExecBudget, ExecDb, ExecStats, RewardMode, RewardShaper, RewardSource, SqlGenEnv};
pub use episode::{
    rewards_to_go, rewards_to_go_into, run_episode, run_episode_infer, run_episode_into, Episode,
    InferRollout, Rollout,
};
pub use meta_critic::{ConstraintEncoder, MetaCritic, MetaCriticTrainer, TaskSlot};
pub use nets::{
    ActorNet, ActorStep, BatchScratch, CriticNet, CriticStep, InferActor, NetConfig, NetGradsBatch,
    NetScratch, QuantizedActor,
};
pub use reinforce::{Reinforce, TrainConfig};
pub use train_batch::TrainRollout;
