//! Determinism contract of lane-batched training (batched BPTT).
//!
//! * Per-lane gradient equivalence: every lane's gradient arena from the
//!   batched backward is bit-identical to a serial `backward_episode` of
//!   that lane's episode alone, at several batch widths, for both the
//!   actor and the critic.
//! * One lane through the trainer facade is one episode and one update per
//!   round, so splitting a training run into calls changes nothing (the
//!   golden fixtures in `determinism.rs` pin the run itself).
//! * A fixed `(seed, batch)` training run is reproducible run-to-run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    lane_rngs, rewards_to_go, run_episode_into, worker_seed, ActorCritic, ActorNet, BatchRollout,
    Constraint, CriticNet, NetConfig, NetGradsBatch, QuantizedActor, Rollout, SqlGenEnv,
    TrainConfig, TrainRollout,
};
use sqlgen_storage::gen::tpch_database;
use sqlgen_storage::sample::SampleConfig;
use sqlgen_storage::Database;

fn cfg() -> TrainConfig {
    TrainConfig {
        net: NetConfig {
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout: 0.3,
        },
        seed: 5,
        ..Default::default()
    }
}

fn testbed() -> (Database, Vocabulary) {
    let db = tpch_database(0.2, 21);
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 20,
            ..Default::default()
        },
    );
    (db, vocab)
}

/// Batched training collection + batched BPTT produce, per lane, exactly
/// the episode and the gradients a serial rollout + `backward_episode`
/// with that lane's seed produces — for the actor and the critic, at
/// several batch widths, on a TPC-H-scale vocabulary.
#[test]
fn batched_bptt_gradients_match_serial_per_lane_on_tpch() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));
    let c = cfg();
    let mut actor = ActorNet::new(vocab.size(), &c.net, 1234);
    let mut critic = CriticNet::new(vocab.size(), &c.net, 1234 ^ 0xc717);
    let base = 0x7EA1;
    // Serial references start from untouched networks: `ensure_grads`
    // lends the networks' own gradient buffers to lane 0.
    let (ref_actor, ref_critic) = (actor.clone(), critic.clone());
    let mut agrads = NetGradsBatch::default();
    let mut cgrads = NetGradsBatch::default();

    for &batch in &[1usize, 2, 4, 8] {
        let mut ro = TrainRollout::new();
        let eps = ro.collect(&actor, &env, &mut lane_rngs(base, batch));
        assert_eq!(eps.len(), batch);

        // Batched actor backward into per-lane arenas.
        let advantages: Vec<Vec<f32>> = eps.iter().map(|ep| rewards_to_go(&ep.rewards)).collect();
        actor.ensure_grads(&mut agrads, batch);
        actor.backward_episodes_batch(
            batch,
            &ro.steps,
            &ro.lens,
            &advantages,
            c.lambda,
            &mut agrads,
        );

        // Batched critic forward + backward (fixed per-lane RNG seeds).
        let mut crngs: Vec<StdRng> = (0..batch)
            .map(|l| StdRng::seed_from_u64(0xC0FFEE ^ l as u64))
            .collect();
        ro.critic_forward(&critic, batch, &mut crngs);
        let mut dvalues: Vec<Vec<f32>> = Vec::new();
        for (lane, ep) in eps.iter().enumerate() {
            let values: Vec<f32> = ro.csteps[lane][..ro.lens[lane]]
                .iter()
                .map(|s| s.value)
                .collect();
            let (_, dv) = ActorCritic::td_terms(&values, &ep.rewards);
            dvalues.push(dv);
        }
        critic.ensure_grads(&mut cgrads, batch);
        critic.backward_episodes_batch(batch, &ro.csteps, &ro.lens, &dvalues, &mut cgrads);

        for lane in 0..batch {
            // Serial reference: same seed must reproduce the lane's episode.
            let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
            let mut sro = Rollout::new();
            let mut a2 = ref_actor.clone();
            let serial = run_episode_into(&a2, &env, true, &mut rng, &mut sro);
            assert_eq!(
                serial.actions, eps[lane].actions,
                "batch={batch} lane={lane}: training token stream diverged"
            );
            assert_eq!(serial.rewards, eps[lane].rewards);

            a2.zero_grad();
            a2.backward_episode(sro.steps(), &advantages[lane], c.lambda);
            assert_eq!(
                a2.embed.table.grad.data, agrads.embed[lane].data,
                "batch={batch} lane={lane}: embedding grads diverged"
            );
            for (l, layer) in a2.lstm.layers.iter().enumerate() {
                let g = &agrads.lstm[lane][l];
                assert_eq!(
                    layer.w_ih.grad.data, g.w_ih.data,
                    "batch={batch} lane={lane} layer={l}: w_ih grads diverged"
                );
                assert_eq!(layer.w_hh.grad.data, g.w_hh.data);
                assert_eq!(layer.b.grad.data, g.b.data);
            }
            assert_eq!(
                a2.head.w.grad.data, agrads.head[lane].w.data,
                "batch={batch} lane={lane}: head grads diverged"
            );
            assert_eq!(a2.head.b.grad.data, agrads.head[lane].b.data);

            // Serial critic reference over the same token stream.
            let mut c2 = ref_critic.clone();
            let mut crng = StdRng::seed_from_u64(0xC0FFEE ^ lane as u64);
            let mut cstate = c2.begin();
            let mut csteps = Vec::new();
            for s in sro.steps() {
                let prev = if s.input_token >= c2.vocab_size {
                    None
                } else {
                    Some(s.input_token)
                };
                csteps.push(c2.step(prev, &mut cstate, true, &mut crng));
            }
            for (t, s) in csteps.iter().enumerate() {
                assert_eq!(
                    s.value, ro.csteps[lane][t].value,
                    "batch={batch} lane={lane} t={t}: critic value diverged"
                );
            }
            c2.zero_grad();
            c2.backward_episode(&csteps, &dvalues[lane]);
            assert_eq!(
                c2.embed.table.grad.data, cgrads.embed[lane].data,
                "batch={batch} lane={lane}: critic embedding grads diverged"
            );
            for (l, layer) in c2.lstm.layers.iter().enumerate() {
                let g = &cgrads.lstm[lane][l];
                assert_eq!(layer.w_ih.grad.data, g.w_ih.data);
                assert_eq!(layer.w_hh.grad.data, g.w_hh.data);
                assert_eq!(layer.b.grad.data, g.b.data);
            }
            assert_eq!(c2.head.w.grad.data, cgrads.head[lane].w.data);
            assert_eq!(c2.head.b.grad.data, cgrads.head[lane].b.data);
        }
    }
}

/// Through the trainer facade, one lane trains one episode per round on
/// the trainer's own RNG stream: one call of 8 episodes equals calls of 3
/// and 5 — identical episodes and identical final weights.
#[test]
fn facade_width_one_training_is_call_split_invariant() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let mut whole = ActorCritic::new(vocab.size(), cfg());
    let whole_eps: Vec<Vec<usize>> = whole
        .train(&env, 8, 1)
        .into_iter()
        .map(|ep| ep.actions)
        .collect();

    let mut split = ActorCritic::new(vocab.size(), cfg());
    let mut split_eps: Vec<Vec<usize>> = Vec::new();
    for n in [3, 5] {
        split_eps.extend(split.train(&env, n, 1).into_iter().map(|ep| ep.actions));
    }

    assert_eq!(whole_eps, split_eps, "width-1 rounds depend on call split");
    assert_eq!(whole.actor.head.w.value.data, split.actor.head.w.value.data);
    assert_eq!(
        whole.critic.head.w.value.data,
        split.critic.head.w.value.data
    );
}

/// A fixed `(seed, batch)` training run reproduces bit-for-bit, and the
/// quantized snapshot of the trained actor generates reproducibly too.
#[test]
fn batched_training_and_quantized_generation_are_reproducible() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let run = || {
        let mut ac = ActorCritic::new(vocab.size(), cfg());
        let eps: Vec<Vec<usize>> = ac
            .train(&env, 10, 4)
            .into_iter()
            .map(|ep| ep.actions)
            .collect();
        let quant = QuantizedActor::from_actor(&ac.actor);
        let gen: Vec<Vec<usize>> = BatchRollout::new()
            .collect(&quant, &env, 9, &mut lane_rngs(0xDEED, 4))
            .into_iter()
            .map(|ep| ep.actions)
            .collect();
        (eps, ac.actor.head.w.value.data.clone(), gen)
    };
    let (eps_a, w_a, gen_a) = run();
    let (eps_b, w_b, gen_b) = run();
    assert_eq!(eps_a.len(), 10);
    assert_eq!(gen_a.len(), 9);
    assert_eq!(eps_a, eps_b, "fixed (seed, batch) training diverged");
    assert_eq!(w_a, w_b, "trained weights diverged between identical runs");
    assert_eq!(gen_a, gen_b, "quantized generation diverged");
}
