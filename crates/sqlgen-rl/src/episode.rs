//! Episodes and the serial reference rollouts.
//!
//! One episode = one query generated token-by-token (Algorithm 1):
//! the FSM masks the action space, the actor samples, the environment
//! rewards executable prefixes. Every trainer rolls episodes through the
//! lane engines ([`crate::batch`], [`crate::train_batch`]); the
//! one-episode loops here are only the references the bitwise lane tests
//! and fuzz oracles compare them against.

use crate::env::{RewardShaper, SqlGenEnv};
use crate::nets::{ActorNet, BatchScratch, NetStep};
use rand::Rng;
use sqlgen_engine::Statement;
use sqlgen_nn::StackState;

/// A completed episode with everything the trainers need. The backward
/// caches live in the rollout arena that produced it ([`Rollout`] or
/// [`crate::train_batch::TrainRollout`]), not in the episode.
pub struct Episode {
    pub actions: Vec<usize>,
    pub rewards: Vec<f32>,
    pub statement: Statement,
    /// Estimated metric (cardinality or cost) of the final statement.
    pub measured: f64,
    /// Whether the final statement satisfies the environment's constraint.
    pub satisfied: bool,
}

impl Episode {
    pub fn total_reward(&self) -> f32 {
        self.rewards.iter().sum()
    }

    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }
}

/// Recycled rollout buffers: the [`NetStep`] arena plus everything else a
/// training episode needs. After the first episode the steady state is
/// allocation-free per token (the arena only grows when an episode is
/// longer than any previous one).
#[derive(Default)]
pub struct Rollout {
    /// Arena of per-step caches; `steps[..len]` is the live prefix.
    pub steps: Vec<NetStep>,
    pub len: usize,
    scratch: BatchScratch,
    lstm_state: StackState,
    mask: Vec<bool>,
}

impl Rollout {
    pub fn new() -> Self {
        Self::default()
    }

    /// The live steps of the most recent episode.
    pub fn steps(&self) -> &[NetStep] {
        &self.steps[..self.len]
    }
}

/// Recycled buffers for [`run_episode_infer`].
#[derive(Default)]
pub struct InferRollout(Rollout);

impl InferRollout {
    pub fn new() -> Self {
        Self::default()
    }
}

/// Wraps up a finished environment rollout into an [`Episode`].
pub(crate) fn finish_episode(
    env: &SqlGenEnv,
    state: &sqlgen_fsm::GenState,
    actions: Vec<usize>,
    rewards: Vec<f32>,
) -> Episode {
    let statement = state
        .statement()
        .expect("episode terminates with a complete statement")
        .clone();
    let measured = env.measure(&statement);
    let satisfied = env.constraint.satisfied(measured);
    sqlgen_obs::obs_record!("rl.episode.reward", rewards.iter().sum::<f32>());
    sqlgen_obs::obs_record!("rl.episode.len", rewards.len() as f64);
    sqlgen_obs::obs_count!("rl.episodes.count");
    // Unconditional so the counter exists (and appears in traces and the
    // summary) even for runs where nothing satisfies the constraint.
    sqlgen_obs::obs_count!("gen.satisfied.count", u64::from(satisfied));
    Episode {
        actions,
        rewards,
        statement,
        measured,
        satisfied,
    }
}

/// Generates one query with the current policy, storing per-step caches in
/// the rollout arena (`ro.steps[..ro.len]`): the serial reference for
/// [`crate::train_batch::TrainRollout`].
///
/// `train = true` enables dropout; the RNG draw order per token is exactly
/// that of the pre-arena path, so fixed seeds reproduce the same queries.
pub fn run_episode_into<R: Rng + ?Sized>(
    actor: &ActorNet,
    env: &SqlGenEnv,
    train: bool,
    rng: &mut R,
    ro: &mut Rollout,
) -> Episode {
    let mut state = env.reset();
    let mut shaper = RewardShaper::new();
    actor.lstm.reset_state(&mut ro.lstm_state);
    ro.mask.resize(env.action_space(), false);
    ro.len = 0;
    let mut actions = Vec::new();
    let mut rewards = Vec::new();
    let mut prev: Option<usize> = None;

    loop {
        let _t = sqlgen_obs::obs_time!("rl.step.latency_us");
        state.mask_into(&mut ro.mask);
        if ro.len == ro.steps.len() {
            ro.steps.push(NetStep::default());
        }
        let step = &mut ro.steps[ro.len];
        actor.step_into(
            prev,
            &mut ro.lstm_state,
            Some(&ro.mask),
            train,
            rng,
            step,
            &mut ro.scratch,
        );
        let action = step.action;
        ro.len += 1;
        let (reward, done) = env.step(&mut state, action, &mut shaper);
        prev = Some(action);
        actions.push(action);
        rewards.push(reward);
        if done {
            break;
        }
    }
    finish_episode(env, &state, actions, rewards)
}

/// Generates one query with the current policy, dropout off (one uniform
/// draw per token): the serial reference for
/// [`crate::batch::BatchRollout`]. Same as `run_episode_into(train =
/// false)`.
pub fn run_episode_infer<R: Rng + ?Sized>(
    actor: &ActorNet,
    env: &SqlGenEnv,
    rng: &mut R,
    ro: &mut InferRollout,
) -> Episode {
    run_episode_into(actor, env, false, rng, &mut ro.0)
}

/// Reward-to-go `R(τ_{t:T})` per step (the REINFORCE return).
pub fn rewards_to_go(rewards: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; rewards.len()];
    rewards_to_go_into(rewards, &mut out);
    out
}

/// [`rewards_to_go`] into a caller-provided buffer (resized to match).
pub fn rewards_to_go_into(rewards: &[f32], out: &mut Vec<f32>) {
    out.clear();
    out.resize(rewards.len(), 0.0);
    let mut acc = 0.0;
    for t in (0..rewards.len()).rev() {
        acc += rewards[t];
        out[t] = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::nets::NetConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    #[test]
    fn rewards_to_go_is_suffix_sum() {
        assert_eq!(
            rewards_to_go(&[1.0, 0.0, 2.0, 1.0]),
            vec![4.0, 3.0, 3.0, 1.0]
        );
        assert!(rewards_to_go(&[]).is_empty());
    }

    #[test]
    fn episode_runs_end_to_end_and_is_valid() {
        let db = tpch_database(0.1, 2);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = ActorNet::actor(
            vocab.size(),
            &NetConfig {
                embed_dim: 8,
                hidden: 8,
                layers: 1,
                dropout: 0.0,
            },
            1,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let mut ro = Rollout::new();
        for _ in 0..10 {
            let ep = run_episode_into(&actor, &env, true, &mut rng, &mut ro);
            assert_eq!(ro.steps().len(), ep.rewards.len());
            assert!(ep.len() >= 5, "even the smallest query has 5 tokens");
            sqlgen_engine::validate(&db, &ep.statement).unwrap();
            assert!(ep.measured >= 0.0);
        }
    }
}
