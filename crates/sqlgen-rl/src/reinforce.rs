//! The REINFORCE baseline algorithm (Williams 1992), §4.3.
//!
//! Plain policy gradient with reward-to-go returns and **no** baseline —
//! exactly the ablation the paper compares the actor-critic against in
//! Figure 8 (high return variance, slower/noisier convergence).

use crate::batch::{with_lane_rngs, BatchRollout};
use crate::env::SqlGenEnv;
use crate::episode::{rewards_to_go_into, Episode};
use crate::nets::{ActorNet, InferActor, NetConfig, NetGradsBatch};
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_nn::{clip_grad_norm, Adam, Optimizer};

/// Trainer hyper-parameters (paper §7.1 values as defaults).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub net: NetConfig,
    pub lr_actor: f32,
    pub lr_critic: f32,
    /// Entropy-regularization strength λ.
    pub lambda: f32,
    pub grad_clip: f32,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            net: NetConfig::default(),
            lr_actor: 0.001,
            lr_critic: 0.003,
            lambda: 0.01,
            grad_clip: 5.0,
            seed: 0xacc01ade,
        }
    }
}

/// REINFORCE trainer.
pub struct Reinforce {
    pub actor: ActorNet,
    pub cfg: TrainConfig,
    opt: Adam,
    rng: StdRng,
    /// Recycled inference-engine buffers.
    infer: BatchRollout,
}

impl Reinforce {
    pub fn new(action_space: usize, cfg: TrainConfig) -> Self {
        let actor = ActorNet::new(action_space, &cfg.net, cfg.seed);
        let opt = Adam::new(cfg.lr_actor);
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
        Reinforce {
            actor,
            cfg,
            opt,
            rng,
            infer: BatchRollout::new(),
        }
    }

    /// Trains on `episodes` episodes with `lanes` lockstep GEMM lanes
    /// (batched BPTT with gradient accumulation).
    ///
    /// Each round rolls one episode per lane under the current policy,
    /// runs one lane-batched backward into per-lane gradient arenas,
    /// reduces the arenas in ascending lane order, and applies **one**
    /// clipped Adam step for the whole round. `lanes <= 1` is one episode
    /// and one update per round on the trainer's own RNG stream; see
    /// [`crate::train_batch`] and [`with_lane_rngs`] for the contracts.
    pub fn train(&mut self, env: &SqlGenEnv, episodes: usize, lanes: usize) -> Vec<Episode> {
        // Round buffers live for this call only, so wide arenas are not
        // held through later generation.
        let mut ro = TrainRollout::new();
        let mut grads = NetGradsBatch::default();
        let mut returns: Vec<Vec<f32>> = Vec::new();
        let mut out = Vec::with_capacity(episodes);
        let mut remaining = episodes;
        while remaining > 0 {
            // One round = one episode per lane, bounding policy staleness
            // at `lanes` episodes.
            let b = remaining.min(lanes.max(1));
            let actor = &self.actor;
            let eps = with_lane_rngs(&mut self.rng, lanes, b, |rngs| ro.collect(actor, env, rngs));
            if returns.len() < b {
                returns.resize_with(b, Vec::new);
            }
            for (lane, ep) in eps.iter().enumerate() {
                rewards_to_go_into(&ep.rewards, &mut returns[lane]);
            }
            self.actor.ensure_grads(&mut grads, b);
            self.actor.backward_episodes_batch(
                b,
                &ro.steps,
                &ro.lens,
                &returns,
                self.cfg.lambda,
                &mut grads,
            );
            self.actor.reduce_grads(&mut grads, b);
            let mut params = self.actor.params_mut();
            clip_grad_norm(&mut params, self.cfg.grad_clip);
            self.opt.step(&mut params);
            out.extend(eps);
            remaining -= b;
        }
        out
    }

    /// Generates `n` queries (no updates) with `lanes` lockstep lanes on
    /// `actor` — any [`InferActor`], e.g. an int8 snapshot — or on the
    /// trainer's own f32 actor when `None`. Draws from the trainer's RNG
    /// stream under the [`with_lane_rngs`] rule; episodes come back in
    /// job order.
    pub fn generate(
        &mut self,
        actor: Option<&dyn InferActor>,
        env: &SqlGenEnv,
        n: usize,
        lanes: usize,
    ) -> Vec<Episode> {
        let actor = actor.unwrap_or(&self.actor);
        let ro = &mut self.infer;
        with_lane_rngs(&mut self.rng, lanes, lanes.min(n), |rngs| {
            ro.collect(actor, env, n, rngs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    /// REINFORCE must improve the average reward on a real constraint task.
    #[test]
    fn reinforce_improves_reward() {
        let db = tpch_database(0.2, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 10,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        // A generous range constraint so the signal is learnable quickly.
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(50.0, 5_000.0))
            .with_fsm_config(sqlgen_fsm::FsmConfig::spj());
        let cfg = TrainConfig {
            net: NetConfig {
                embed_dim: 16,
                hidden: 16,
                layers: 1,
                dropout: 0.0,
            },
            ..Default::default()
        };
        let mut trainer = Reinforce::new(vocab.size(), cfg);
        let mut early = 0.0;
        let mut late = 0.0;
        let n = 150;
        for (i, ep) in trainer.train(&env, n, 1).iter().enumerate() {
            let r = ep.total_reward() / ep.len() as f32;
            if i < 30 {
                early += r;
            }
            if i >= n - 30 {
                late += r;
            }
        }
        assert!(
            late > early,
            "no improvement: early {early:.3} late {late:.3}"
        );
    }

    #[test]
    fn generation_does_not_change_weights() {
        let db = tpch_database(0.1, 9);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(100.0));
        let mut trainer = Reinforce::new(vocab.size(), TrainConfig::default());
        let before = trainer.actor.head.w.value.data.clone();
        trainer.generate(None, &env, 3, 1);
        assert_eq!(before, trainer.actor.head.w.value.data);
    }
}
