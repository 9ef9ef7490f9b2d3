//! Figure 8: REINFORCE vs the actor-critic LearnedSQLGen.
//!
//! (a) accuracy per range constraint, (b) time to N satisfied queries,
//! (c) the average-reward training trace. The paper runs this on JOB; the
//! binary defaults to JOB and honours `--benchmark`.

use sqlgen_bench::table::{pct, secs};
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_rl::{ActorCritic, Constraint, NetConfig, Reinforce, SqlGenEnv, TrainConfig};
use sqlgen_storage::gen::Benchmark;
use std::time::Instant;

fn train_cfg(seed: u64) -> TrainConfig {
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

enum Algo {
    Reinforce(Box<Reinforce>),
    ActorCritic(Box<ActorCritic>),
}

impl Algo {
    fn train_episode(&mut self, env: &SqlGenEnv) -> sqlgen_rl::Episode {
        match self {
            Algo::Reinforce(t) => t.train(env, 1, 1).remove(0),
            Algo::ActorCritic(t) => t.train(env, 1, 1).remove(0),
        }
    }

    fn generate(&mut self, env: &SqlGenEnv) -> sqlgen_rl::Episode {
        match self {
            Algo::Reinforce(t) => t.generate(None, env, 1, 1).remove(0),
            Algo::ActorCritic(t) => t.generate(None, env, 1, 1).remove(0),
        }
    }
}

/// Trains, then reports (accuracy over n, time to n satisfied, reward trace).
fn run(mut algo: Algo, env: &SqlGenEnv, train: usize, n: usize) -> (f64, f64, Vec<f32>) {
    let start = Instant::now();
    let mut trace = Vec::with_capacity(train);
    let mut found = 0usize;
    let mut time_to_n = None;
    for _ in 0..train {
        let ep = algo.train_episode(env);
        trace.push(ep.total_reward() / ep.len().max(1) as f32);
        if ep.satisfied {
            found += 1;
            if found == n && time_to_n.is_none() {
                time_to_n = Some(start.elapsed().as_secs_f64());
            }
        }
    }
    // Accuracy of the trained policy.
    let mut hits = 0;
    for _ in 0..n {
        if algo.generate(env).satisfied {
            hits += 1;
        }
    }
    // If training alone did not reach n satisfied, keep generating.
    let seconds = time_to_n.unwrap_or_else(|| {
        let mut extra = 0usize;
        let budget = n * 200;
        while found < n && extra < budget {
            extra += 1;
            if algo.generate(env).satisfied {
                found += 1;
            }
        }
        if found >= n {
            start.elapsed().as_secs_f64()
        } else if found > 0 {
            start.elapsed().as_secs_f64() * n as f64 / found as f64
        } else {
            f64::INFINITY
        }
    });
    (hits as f64 / n as f64, seconds, trace)
}

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let benchmark = match args.benchmark.as_deref() {
        Some(s) => s.parse().expect("benchmark name"),
        None => Benchmark::Job,
    };
    sqlgen_obs::obs_info!("[fig8] preparing {} ...", benchmark.name());
    let bed = TestBed::new(benchmark, args.scale, args.seed);
    let ranges = [(1e3, 2e3), (1e3, 4e3), (1e3, 6e3), (1e3, 8e3)];

    let mut acc_table = Table::new(
        format!(
            "Figure 8(a) — Accuracy (N={}, {})",
            args.n,
            benchmark.name()
        ),
        &["constraint", "REINFORCE", "LearnedSQLGen (AC)"],
    );
    let mut time_table = Table::new(
        format!(
            "Figure 8(b) — Time to {} satisfied queries ({})",
            args.n,
            benchmark.name()
        ),
        &["constraint", "REINFORCE", "LearnedSQLGen (AC)"],
    );

    let mut traces: Vec<(String, Vec<f32>, Vec<f32>)> = Vec::new();
    for (lo, hi) in ranges {
        let label = format!("Card in [{:.0}k, {:.0}k]", lo / 1e3, hi / 1e3);
        sqlgen_obs::obs_info!("[fig8] {label}");
        let constraint = Constraint::cardinality_range(lo, hi);
        let env = bed.env(constraint);
        let (acc_r, t_r, trace_r) = run(
            Algo::Reinforce(Box::new(Reinforce::new(
                bed.vocab.size(),
                train_cfg(args.seed),
            ))),
            &env,
            args.train,
            args.n,
        );
        let (acc_a, t_a, trace_a) = run(
            Algo::ActorCritic(Box::new(ActorCritic::new(
                bed.vocab.size(),
                train_cfg(args.seed),
            ))),
            &env,
            args.train,
            args.n,
        );
        acc_table.row(vec![label.clone(), pct(acc_r), pct(acc_a)]);
        time_table.row(vec![label.clone(), secs(t_r), secs(t_a)]);
        traces.push((label, trace_r, trace_a));
    }

    acc_table.print();
    time_table.print();
    write_csv(&acc_table, "fig8a_accuracy");
    write_csv(&time_table, "fig8b_time");

    // Figure 8(c): average-reward trace (bucketed every 10 episodes) for the
    // first constraint.
    let mut trace_table = Table::new(
        "Figure 8(c) — Average reward per training epoch (first constraint)",
        &["epoch", "REINFORCE", "LearnedSQLGen (AC)"],
    );
    let (_, trace_r, trace_a) = &traces[0];
    let bucket = 10usize;
    for (i, chunk) in trace_r.chunks(bucket).enumerate() {
        let r: f32 = chunk.iter().sum::<f32>() / chunk.len() as f32;
        let a_chunk = &trace_a[i * bucket..((i + 1) * bucket).min(trace_a.len())];
        let a: f32 = a_chunk.iter().sum::<f32>() / a_chunk.len().max(1) as f32;
        trace_table.row(vec![
            format!("{}", i * bucket),
            format!("{r:.4}"),
            format!("{a:.4}"),
        ]);
    }
    trace_table.print();
    write_csv(&trace_table, "fig8c_training_trace");
    args.finish_obs();
}
