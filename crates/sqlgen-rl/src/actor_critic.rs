//! Actor-critic training (paper §4.3, Algorithm 3) and its REINFORCE
//! ablation.
//!
//! Advantage `A(s_t, a_t) = r_t + V_φ(s_{t+1}) − V_φ(s_t)` (the TD error,
//! with `V(terminal) = 0` and γ = 1); actor loss `−logπ·A − λH`, critic
//! loss `(r_t + V(s_{t+1}) − V(s_t))²` treated semi-gradient (the target is
//! a constant w.r.t. φ).
//!
//! REINFORCE (Williams 1992) is the same loop without the critic: plain
//! policy gradient with reward-to-go advantages and **no** baseline —
//! exactly the ablation the paper compares the actor-critic against in
//! Figure 8 (high return variance, slower/noisier convergence).

use crate::batch::{with_lane_rngs, BatchRollout};
use crate::env::SqlGenEnv;
use crate::episode::{rewards_to_go_into, Episode};
use crate::nets::{ActorNet, CriticNet, HeadLoss, InferActor, NetConfig, NetGradsBatch};
use crate::train_batch::TrainRollout;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_nn::Adam;

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

/// Actor-critic trainer — the algorithm LearnedSQLGen ships with — or,
/// without a critic, the REINFORCE baseline.
pub struct ActorCritic {
    pub actor: ActorNet,
    /// The value network; `None` trains REINFORCE.
    pub critic: Option<CriticNet>,
    pub cfg: TrainConfig,
    opt_actor: Adam,
    opt_critic: Adam,
    rng: StdRng,
    /// Recycled inference-engine buffers.
    infer: BatchRollout,
}

impl ActorCritic {
    pub fn new(action_space: usize, cfg: TrainConfig) -> Self {
        let critic = CriticNet::critic(action_space, &cfg.net, cfg.seed ^ 0xc717);
        Self::from_nets(
            ActorNet::actor(action_space, &cfg.net, cfg.seed),
            Some(critic),
            cfg,
        )
    }

    /// The REINFORCE baseline: the same trainer without a critic.
    pub fn reinforce(action_space: usize, cfg: TrainConfig) -> Self {
        Self::from_nets(ActorNet::actor(action_space, &cfg.net, cfg.seed), None, cfg)
    }

    /// Builds a trainer around pre-constructed networks (used by the
    /// AC-extend ablation, which reserves context embedding rows).
    pub fn from_nets(actor: ActorNet, critic: Option<CriticNet>, cfg: TrainConfig) -> Self {
        ActorCritic {
            actor,
            critic,
            opt_actor: Adam::new(cfg.lr_actor),
            opt_critic: Adam::new(cfg.lr_critic),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x5eed),
            cfg,
            infer: BatchRollout::new(),
        }
    }

    /// TD advantages and critic-loss gradients for an episode.
    ///
    /// Returns `(advantages, dvalues)` with `A_t = r_t + V_{t+1} − V_t`
    /// and `dL/dV_t = −2·A_t` (semi-gradient of the squared TD error).
    pub fn td_terms(values: &[f32], rewards: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut adv = Vec::new();
        let mut dv = Vec::new();
        Self::td_terms_into(values, rewards, &mut adv, &mut dv);
        (adv, dv)
    }

    /// [`ActorCritic::td_terms`] into recycled buffers.
    pub fn td_terms_into(values: &[f32], rewards: &[f32], adv: &mut Vec<f32>, dv: &mut Vec<f32>) {
        let n = values.len();
        adv.clear();
        adv.resize(n, 0.0);
        dv.clear();
        dv.resize(n, 0.0);
        for t in 0..n {
            let v_next = if t + 1 < n { values[t + 1] } else { 0.0 };
            adv[t] = rewards[t] + v_next - values[t];
            dv[t] = -2.0 * adv[t];
        }
    }

    /// Trains on `episodes` episodes with `lanes` lockstep GEMM lanes —
    /// every network's forwards and backwards run lane-batched.
    ///
    /// Per round: one episode per lane under the current policy; with a
    /// critic, per-lane critic RNGs drawn from the trainer stream in lane
    /// order after the rollout and a lockstep critic forward over the
    /// collected token streams give TD advantages, without one the
    /// advantages are the rewards-to-go. Then **one** clipped Adam step
    /// per network (`LstmNet::update`).
    /// `lanes <= 1` is one episode and one update per round on the
    /// trainer's own RNG stream (Algorithm 3 as written); see
    /// [`crate::train_batch`] and [`with_lane_rngs`] for the contracts.
    pub fn train(&mut self, env: &SqlGenEnv, episodes: usize, lanes: usize) -> Vec<Episode> {
        // Round buffers live for this call only, so wide arenas are not
        // held through later generation.
        let mut ro = TrainRollout::new();
        let mut agrads = NetGradsBatch::default();
        let mut cgrads = NetGradsBatch::default();
        let mut advantages: Vec<Vec<f32>> = Vec::new();
        let mut dvalues: Vec<Vec<f32>> = Vec::new();
        let mut values: Vec<f32> = Vec::new();
        let mut out = Vec::with_capacity(episodes);
        let mut remaining = episodes;
        while remaining > 0 {
            // One round = one episode per lane, bounding policy staleness
            // at `lanes` episodes.
            let b = remaining.min(lanes.max(1));
            let actor = &self.actor;
            let eps = with_lane_rngs(&mut self.rng, lanes, b, |rngs| ro.collect(actor, env, rngs));
            if advantages.len() < b {
                advantages.resize_with(b, Vec::new);
                dvalues.resize_with(b, Vec::new);
            }
            if let Some(critic) = &self.critic {
                let mut crngs: Vec<StdRng> = (0..b)
                    .map(|_| StdRng::seed_from_u64(self.rng.random::<u64>()))
                    .collect();
                ro.critic_forward(critic, b, &mut crngs);
                for (lane, ep) in eps.iter().enumerate() {
                    values.clear();
                    values.extend(ro.csteps[lane][..ro.lens[lane]].iter().map(|s| s.value));
                    Self::td_terms_into(
                        &values,
                        &ep.rewards,
                        &mut advantages[lane],
                        &mut dvalues[lane],
                    );
                }
            } else {
                for (lane, ep) in eps.iter().enumerate() {
                    rewards_to_go_into(&ep.rewards, &mut advantages[lane]);
                }
            }

            let clip = self.cfg.grad_clip;
            let policy = HeadLoss::Policy {
                advantages: &advantages,
                lambda: self.cfg.lambda,
            };
            let (steps, lens) = (&ro.steps, &ro.lens);
            let opt = &mut self.opt_actor;
            self.actor
                .update(opt, clip, &mut agrads, steps, lens, policy);
            if let Some(critic) = &mut self.critic {
                let value = HeadLoss::Value { dvalues: &dvalues };
                let opt = &mut self.opt_critic;
                critic.update(opt, clip, &mut cgrads, &ro.csteps, lens, value);
            }

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

    #[test]
    fn td_terms_match_hand_computation() {
        let values = [0.5f32, 0.2, 0.1];
        let rewards = [0.0f32, 0.0, 1.0];
        let (adv, dv) = ActorCritic::td_terms(&values, &rewards);
        assert!((adv[0] - (0.0 + 0.2 - 0.5)).abs() < 1e-6);
        assert!((adv[1] - (0.0 + 0.1 - 0.2)).abs() < 1e-6);
        assert!((adv[2] - (1.0 + 0.0 - 0.1)).abs() < 1e-6);
        for (a, d) in adv.iter().zip(&dv) {
            assert!((d + 2.0 * a).abs() < 1e-6);
        }
    }

    fn training_env_setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.2, 9);
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
    fn actor_critic_improves_satisfaction_rate() {
        let (db, vocab) = training_env_setup();
        let est = Estimator::build(&db);
        // Tight enough that untrained policies rarely hit it.
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0))
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
        let satisfaction = |t: &mut ActorCritic, n: usize| -> f32 {
            t.generate(None, &env, n, 1)
                .iter()
                .filter(|ep| ep.satisfied)
                .count() as f32
                / n as f32
        };
        // Baseline: the untrained policy.
        let mut fresh = ActorCritic::new(vocab.size(), cfg.clone());
        let untrained = satisfaction(&mut fresh, 60);

        let mut trainer = ActorCritic::new(vocab.size(), cfg);
        trainer.train(&env, 900, 1);
        let trained = satisfaction(&mut trainer, 60);
        assert!(
            trained > untrained + 0.05,
            "no improvement: untrained {untrained:.3} trained {trained:.3}"
        );
    }

    /// The critic's value estimates should correlate with actual returns
    /// after training.
    #[test]
    fn critic_values_track_returns() {
        let (db, vocab) = training_env_setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(10.0, 10_000.0))
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
        let mut trainer = ActorCritic::new(vocab.size(), cfg);
        trainer.train(&env, 120, 1);
        // After training, V(s_0) should be positive (expected return > 0)
        // rather than the 0 it started at.
        let mut rng = StdRng::seed_from_u64(1);
        let critic = trainer.critic.as_ref().expect("actor-critic has a critic");
        let mut state = critic.begin();
        let v0 = critic.step(None, &mut state, None, false, &mut rng).value;
        assert!(v0 > 0.05, "critic uninformative: V(s0) = {v0}");
    }

    /// REINFORCE must improve the average reward on a real constraint task.
    #[test]
    fn reinforce_improves_reward() {
        let (db, vocab) = training_env_setup();
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
        let mut trainer = ActorCritic::reinforce(vocab.size(), cfg);
        assert!(trainer.critic.is_none());
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
        let mut trainer = ActorCritic::reinforce(vocab.size(), TrainConfig::default());
        let before = trainer.actor.head.w.value.data.clone();
        trainer.generate(None, &env, 3, 1);
        assert_eq!(before, trainer.actor.head.w.value.data);
    }
}
