//! The AC-extend ablation (paper §7.4).
//!
//! "We directly encoded multiple constraints to the state without using the
//! meta-critic": one actor-critic pair serves *all* constraints by feeding a
//! constraint encoding into the state. Here the constraint is quantized
//! into one of [`CONTEXT_BUCKETS`] log-spaced buckets over the task domain;
//! each bucket owns a reserved embedding row used as the episode's start
//! token, which conditions both the policy and the value function on the
//! constraint.

use crate::actor_critic::{ActorCritic, TrainConfig};
use crate::constraint::Constraint;
use crate::env::SqlGenEnv;
use crate::episode::Episode;
use crate::nets::{ActorNet, CriticNet};

/// Number of constraint buckets (reserved embedding rows).
pub const CONTEXT_BUCKETS: usize = 16;

/// Actor-critic with the constraint folded into the state encoding.
pub struct AcExtend {
    pub ac: ActorCritic,
    domain: (f64, f64),
    vocab_size: usize,
}

impl AcExtend {
    /// `domain` is the metric range the constraints live in, e.g.
    /// `(10_000.0, 20_000.0)` for the paper's Figure 9 setup.
    pub fn new(action_space: usize, cfg: TrainConfig, domain: (f64, f64)) -> Self {
        assert!(domain.0 < domain.1 && domain.0 > 0.0, "bad domain");
        let actor = ActorNet::new(
            action_space,
            action_space,
            CONTEXT_BUCKETS,
            &cfg.net,
            cfg.seed,
        );
        let critic = CriticNet::new(
            action_space,
            1,
            CONTEXT_BUCKETS,
            &cfg.net,
            cfg.seed ^ 0xc717,
        );
        let ac = ActorCritic::from_nets(actor, Some(critic), cfg);
        AcExtend {
            ac,
            domain,
            vocab_size: action_space,
        }
    }

    /// Which bucket a constraint's center falls in (log-spaced).
    pub fn bucket(&self, constraint: &Constraint) -> usize {
        let c = constraint.center().max(self.domain.0).min(self.domain.1);
        let (lo, hi) = self.domain;
        let frac = (c.ln() - lo.ln()) / (hi.ln() - lo.ln());
        ((frac * CONTEXT_BUCKETS as f64) as usize).min(CONTEXT_BUCKETS - 1)
    }

    /// Conditions both networks on the constraint's bucket row: the bucket
    /// embedding is added to every step's input (persistent conditioning)
    /// and also fed as the start token.
    pub fn set_constraint(&mut self, constraint: &Constraint) {
        let row = self.vocab_size + 1 + self.bucket(constraint);
        for net in std::iter::once(&mut self.ac.actor).chain(&mut self.ac.critic) {
            net.set_start_token(row);
            net.set_context_token(Some(row));
        }
    }

    /// Trains one episode under the environment's constraint.
    pub fn train_episode(&mut self, env: &SqlGenEnv) -> Episode {
        self.set_constraint(&env.constraint.clone());
        self.ac.train(env, 1, 1).remove(0)
    }

    /// Inference under the environment's constraint.
    pub fn generate(&mut self, env: &SqlGenEnv) -> Episode {
        self.set_constraint(&env.constraint.clone());
        self.ac.generate(None, env, 1, 1).remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_domain_monotonically() {
        let ace = AcExtend::new(50, TrainConfig::default(), (1_000.0, 100_000.0));
        let b1 = ace.bucket(&Constraint::cardinality_point(1_000.0));
        let b2 = ace.bucket(&Constraint::cardinality_point(10_000.0));
        let b3 = ace.bucket(&Constraint::cardinality_point(100_000.0));
        assert_eq!(b1, 0);
        assert!(b2 > b1);
        assert_eq!(b3, CONTEXT_BUCKETS - 1);
        // Out-of-domain values clamp.
        assert_eq!(ace.bucket(&Constraint::cardinality_point(1.0)), 0);
    }

    #[test]
    fn set_constraint_switches_start_tokens() {
        let mut ace = AcExtend::new(50, TrainConfig::default(), (1_000.0, 100_000.0));
        ace.set_constraint(&Constraint::cardinality_range(1_000.0, 2_000.0));
        let t1 = ace.ac.actor.start_token;
        ace.set_constraint(&Constraint::cardinality_range(50_000.0, 90_000.0));
        let t2 = ace.ac.actor.start_token;
        assert_ne!(t1, t2);
        let critic = ace.ac.critic.as_ref().expect("AC-extend has a critic");
        assert_eq!(ace.ac.actor.start_token, critic.start_token);
        assert!(t1 > 50 && t2 > 50, "context rows live after the vocab");
    }
}
