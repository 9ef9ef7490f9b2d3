//! Determinism contract of the batched GEMM inference engine.
//!
//! * Per-lane equivalence: every lane of a batched rollout reproduces, bit
//!   for bit, the serial `run_episode_infer` stream of that lane's seed
//!   (`base ^ lane`), including across continuous lane refills.
//! * One lane through the trainer facade continues the trainer's own RNG
//!   stream, so splitting a generation into calls changes nothing (the
//!   golden fixtures in `determinism.rs` pin the stream itself).
//! * A fixed `(seed, batch_size)` pair is reproducible run-to-run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{
    lane_rngs, run_episode_infer, worker_seed, ActorCritic, ActorNet, BatchRollout, Constraint,
    InferRollout, NetConfig, QuantizedActor, SqlGenEnv, TrainConfig,
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

/// Each lane of the batched engine emits exactly the token/reward streams a
/// serial inference loop produces for that lane's seed, on a TPC-H-scale
/// vocabulary and with more jobs than lanes (forcing refills mid-run).
#[test]
fn batched_lanes_match_serial_inference_on_tpch() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));
    let actor = ActorNet::actor(vocab.size(), &cfg().net, 1234);
    let base = 0xBA7C4;

    for &batch in &[2usize, 8] {
        let n = 2 * batch + 3; // uneven: some lanes run one extra episode
        let mut ro = BatchRollout::new();
        let tagged = ro.collect_tagged(&actor, &env, n, &mut lane_rngs(base, batch));
        assert_eq!(tagged.len(), n);

        for lane in 0..batch {
            let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
            lane_eps.sort_by_key(|(job, _, _)| *job);
            let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
            let mut iro = InferRollout::new();
            for (job, _, ep) in lane_eps {
                let serial = run_episode_infer(&actor, &env, &mut rng, &mut iro);
                assert_eq!(
                    ep.actions, serial.actions,
                    "batch={batch} lane={lane} job={job}: token stream diverged"
                );
                assert_eq!(
                    ep.rewards, serial.rewards,
                    "batch={batch} lane={lane} job={job}: rewards diverged"
                );
            }
        }
    }
}

/// Through the trainer facade, one lane runs on the trainer's own RNG
/// stream and hands it back: one call of `n` equals `n` calls of one, for
/// the f32 actor and for an int8 snapshot alike.
#[test]
fn facade_width_one_continues_the_trainer_stream() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    for quantize in [false, true] {
        let run = |split: bool| -> Vec<Vec<usize>> {
            let mut ac = ActorCritic::new(vocab.size(), cfg());
            ac.train(&env, 10, 1);
            let quant = quantize.then(|| QuantizedActor::from_actor(&ac.actor));
            let actor = quant.as_ref().map(|q| q as &dyn sqlgen_rl::InferActor);
            let eps = if split {
                (0..6)
                    .flat_map(|_| ac.generate(actor, &env, 1, 1))
                    .collect()
            } else {
                ac.generate(actor, &env, 6, 1)
            };
            eps.into_iter().map(|ep| ep.actions).collect()
        };
        assert_eq!(
            run(false),
            run(true),
            "width-1 stream not continued across calls (quantize={quantize})"
        );
    }
}

/// A fixed `(seed, batch_size)` is bit-reproducible run-to-run through the
/// trainer facade, and episodes come back in job order.
#[test]
fn facade_batched_generation_is_reproducible() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let run = || {
        let mut ac = ActorCritic::new(vocab.size(), cfg());
        ac.train(&env, 10, 1);
        ac.generate(None, &env, 13, 8)
            .into_iter()
            .map(|ep| ep.actions)
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a.len(), 13);
    assert_eq!(a, b, "fixed (seed, batch) diverged between identical runs");
}
