//! End-to-end generator configuration.

use crate::refine::RefineConfig;
use sqlgen_fsm::FsmConfig;
use sqlgen_rl::{ExecBudget, NetConfig, RewardSource, TrainConfig};
use sqlgen_storage::sample::SampleConfig;

/// Which RL algorithm drives generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Plain policy gradient (the paper's Figure 8 ablation).
    Reinforce,
    /// Actor-critic with TD advantages — the paper's shipped algorithm.
    ActorCritic,
}

/// Full configuration for [`crate::LearnedSqlGen`].
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Value sampling for the action space (paper default k = 100).
    pub sample: SampleConfig,
    /// FSM limits / statement kinds.
    pub fsm: FsmConfig,
    /// Network + optimizer hyper-parameters (§7.1 defaults).
    pub train: TrainConfig,
    pub algorithm: Algorithm,
    /// Default number of training episodes used by `train_default`.
    pub default_train_episodes: usize,
    /// Lockstep GEMM lanes of the rollout engine, for training and
    /// inference alike. `1` (the default) rolls one episode at a time on
    /// the trainer's own RNG stream — bit-identical to the original serial
    /// loops for a fixed seed. Values > 1 advance that many rollouts per
    /// step through batched kernels (continuous lane refill for
    /// inference; batched BPTT with one accumulated gradient step per
    /// round of `batch_size` episodes for training, see
    /// `sqlgen_rl::train_batch`); each `(seed, batch_size)` pair is
    /// reproducible.
    pub batch_size: usize,
    /// Run inference on an int8 per-output-channel quantized snapshot of
    /// the actor (see `sqlgen_nn::quant`). `false` (the default) keeps the
    /// bit-exact f32 path. Quantization is inference-only: training always
    /// updates the f32 weights, and the snapshot is refreshed after every
    /// train/load. Sampled token streams differ from the f32 path only
    /// within the quantization error bound of the logits.
    pub quantize: bool,
    /// Constraint-miss refinement (DESIGN.md §12): on a missed constraint,
    /// run bounded local search over the missed query before falling back
    /// to resampling. On by default; disable (`with_refine(false)` / the
    /// CLI `--no-refine` flag) to restore the legacy generate-and-hope
    /// path bit-for-bit.
    pub refine: RefineConfig,
    /// Cardinality reward signal (DESIGN.md §14): histogram estimates
    /// (the default, the paper's choice) or real execution against an
    /// attached store within a per-query budget. Execution requires
    /// [`crate::LearnedSqlGen::with_exec_db`] /
    /// [`crate::LearnedSqlGen::from_exec_db`].
    pub reward_source: RewardSource,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            sample: SampleConfig::default(),
            fsm: FsmConfig::default(),
            train: TrainConfig::default(),
            algorithm: Algorithm::ActorCritic,
            default_train_episodes: 600,
            batch_size: 1,
            quantize: false,
            refine: RefineConfig::default(),
            reward_source: RewardSource::default(),
        }
    }
}

impl GenConfig {
    /// A fast configuration for tests and examples: smaller networks,
    /// smaller value samples.
    pub fn fast() -> Self {
        GenConfig {
            sample: SampleConfig {
                k: 20,
                ..Default::default()
            },
            train: TrainConfig {
                net: NetConfig {
                    embed_dim: 16,
                    hidden: 16,
                    layers: 1,
                    dropout: 0.0,
                },
                ..Default::default()
            },
            default_train_episodes: 200,
            ..Default::default()
        }
    }

    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    pub fn with_fsm(mut self, fsm: FsmConfig) -> Self {
        self.fsm = fsm;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.train.seed = seed;
        self.sample.seed = seed ^ 0x5a5a;
        self
    }

    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    pub fn with_quantize(mut self, quantize: bool) -> Self {
        self.quantize = quantize;
        self
    }

    /// Enables or disables constraint-miss refinement (default on).
    pub fn with_refine(mut self, enabled: bool) -> Self {
        self.refine.enabled = enabled;
        self
    }

    /// Replaces the full refinement configuration (budgets, cache size,
    /// resample rounds).
    pub fn with_refine_config(mut self, refine: RefineConfig) -> Self {
        self.refine = refine;
        self
    }

    /// Selects the cardinality reward signal (estimates by default).
    pub fn with_reward_source(mut self, source: RewardSource) -> Self {
        self.reward_source = source;
        self
    }

    /// Shorthand for execution rewards with the given per-query budget.
    pub fn with_execute_rewards(mut self, budget: ExecBudget) -> Self {
        self.reward_source = RewardSource::Execute { budget };
        self
    }

    /// Overrides the per-column value-sample size `k` (paper default 100).
    /// Changing `k` changes the action-space size, so checkpoints are only
    /// portable between generators built with the same sample config.
    pub fn with_sample_k(mut self, k: usize) -> Self {
        self.sample.k = k;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = GenConfig::default();
        assert_eq!(c.sample.k, 100);
        assert_eq!(c.train.net.hidden, 30);
        assert_eq!(c.train.net.layers, 2);
        assert!((c.train.net.dropout - 0.3).abs() < 1e-6);
        assert!((c.train.lr_actor - 0.001).abs() < 1e-9);
        assert!((c.train.lr_critic - 0.003).abs() < 1e-9);
        assert!((c.train.lambda - 0.01).abs() < 1e-9);
        assert_eq!(c.algorithm, Algorithm::ActorCritic);
    }

    #[test]
    fn builders_compose() {
        let c = GenConfig::fast()
            .with_algorithm(Algorithm::Reinforce)
            .with_seed(99)
            .with_batch_size(8)
            .with_quantize(true);
        assert_eq!(c.algorithm, Algorithm::Reinforce);
        assert_eq!(c.train.seed, 99);
        assert_eq!(c.sample.seed, 99 ^ 0x5a5a);
        assert_eq!(c.batch_size, 8);
        assert!(c.quantize);
        assert!(!GenConfig::default().quantize);
        // batch_size must never be 0, and defaults to one lane.
        assert_eq!(GenConfig::default().batch_size, 1);
        assert_eq!(GenConfig::fast().with_batch_size(0).batch_size, 1);
    }

    #[test]
    fn refine_defaults_on_with_escape_hatch() {
        assert!(GenConfig::default().refine.enabled);
        assert!(GenConfig::fast().refine.enabled);
        assert!(!GenConfig::fast().with_refine(false).refine.enabled);
        let custom = GenConfig::fast().with_refine_config(RefineConfig {
            enabled: true,
            max_evals: 7,
            cache_capacity: 3,
            resample_rounds: 2,
        });
        assert_eq!(custom.refine.max_evals, 7);
        assert_eq!(custom.refine.resample_rounds, 2);
    }
}
