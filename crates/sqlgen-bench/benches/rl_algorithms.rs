//! Criterion bench: per-episode training cost of the three RL algorithms
//! (REINFORCE vs actor-critic vs meta-critic) — the microbenchmark behind
//! Figures 8 and 9.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlgen_bench::TestBed;
use sqlgen_rl::{ActorCritic, Constraint, MetaCriticTrainer, NetConfig, TrainConfig};
use sqlgen_storage::gen::Benchmark;
use std::hint::black_box;

fn cfg(seed: u64) -> TrainConfig {
    TrainConfig {
        net: NetConfig {
            embed_dim: 24,
            hidden: 24,
            layers: 2,
            dropout: 0.1,
        },
        seed,
        ..Default::default()
    }
}

fn bench_rl(c: &mut Criterion) {
    let bed = TestBed::new(Benchmark::TpcH, 0.2, 42);
    let constraint = Constraint::cardinality_range(10.0, 5_000.0);
    let env = bed.env(constraint);

    let mut group = c.benchmark_group("rl_train_episode");
    group.sample_size(10);

    let mut reinforce = ActorCritic::reinforce(bed.vocab.size(), cfg(1));
    group.bench_function("reinforce", |b| {
        b.iter(|| black_box(reinforce.train(&env, 1, 1)[0].total_reward()))
    });

    let mut ac = ActorCritic::new(bed.vocab.size(), cfg(2));
    group.bench_function("actor_critic", |b| {
        b.iter(|| black_box(ac.train(&env, 1, 1)[0].total_reward()))
    });

    let mut meta = MetaCriticTrainer::new(bed.vocab.size(), vec![constraint], cfg(3));
    group.bench_function("meta_critic", |b| {
        b.iter(|| black_box(meta.train_task(0, &env).total_reward()))
    });

    group.finish();
}

criterion_group!(benches, bench_rl);
criterion_main!(benches);
