//! Figure 9: generalizing to new constraints — Scratch vs AC-extend vs
//! MetaCritic.
//!
//! Paper setup (on XueTang): pre-train on K uniform sub-ranges of a
//! cardinality domain, then adapt to unseen constraints inside the domain.
//! Reports (a) accuracy after adaptation, (b) adaptation time to N
//! satisfied queries, (c) the accuracy-vs-epoch adaptation trace.

use sqlgen_bench::table::{pct, secs};
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_rl::{
    AcExtend, ActorCritic, Constraint, MetaCriticTrainer, NetConfig, SqlGenEnv, TrainConfig,
};
use sqlgen_storage::gen::Benchmark;
use std::time::Instant;

// The paper uses [10k, 20k] on 24 GB XueTang; at our scale the well-covered
// cardinality region is lower, so the domain keeps the same relative width
// (5 tasks, adapt on boundary-straddling sub-ranges) shifted down.
const DOMAIN: (f64, f64) = (200.0, 2_200.0);
const PRETRAIN_TASKS: usize = 5;

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

/// The pre-training tasks: uniform sub-ranges of the domain.
fn pretrain_constraints() -> Vec<Constraint> {
    let width = (DOMAIN.1 - DOMAIN.0) / PRETRAIN_TASKS as f64;
    (0..PRETRAIN_TASKS)
        .map(|i| {
            let lo = DOMAIN.0 + i as f64 * width;
            Constraint::cardinality_range(lo, lo + width)
        })
        .collect()
}

/// Unseen tasks: ranges straddling the pre-training boundaries.
fn new_constraints() -> Vec<Constraint> {
    let width = (DOMAIN.1 - DOMAIN.0) / PRETRAIN_TASKS as f64;
    (0..4)
        .map(|i| {
            let center = DOMAIN.0 + (i as f64 + 1.0) * width;
            Constraint::cardinality_range(center - width / 4.0, center + width / 4.0)
        })
        .collect()
}

struct AdaptResult {
    accuracy: f64,
    seconds: f64,
    trace: Vec<f32>,
}

fn evaluate<F: FnMut(&SqlGenEnv) -> sqlgen_rl::Episode>(
    env: &SqlGenEnv,
    n: usize,
    mut gen: F,
) -> f64 {
    let mut hits = 0;
    for _ in 0..n {
        if gen(env).satisfied {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

/// Adaptation loop: train for `episodes`, record the reward trace and the
/// time at which the n-th satisfied query appeared.
fn adapt<F: FnMut(&SqlGenEnv) -> sqlgen_rl::Episode>(
    env: &SqlGenEnv,
    episodes: usize,
    n: usize,
    mut train: F,
) -> (f64, Vec<f32>) {
    let start = Instant::now();
    let mut trace = Vec::with_capacity(episodes);
    let mut found = 0usize;
    let mut seconds = f64::INFINITY;
    for _ in 0..episodes {
        let ep = train(env);
        trace.push(ep.total_reward() / ep.len().max(1) as f32);
        if ep.satisfied {
            found += 1;
            if found == n && !seconds.is_finite() {
                seconds = start.elapsed().as_secs_f64();
            }
        }
    }
    if !seconds.is_finite() && found > 0 {
        seconds = start.elapsed().as_secs_f64() * n as f64 / found as f64;
    }
    (seconds, trace)
}

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let benchmark = match args.benchmark.as_deref() {
        Some(s) => s.parse().expect("benchmark name"),
        None => Benchmark::XueTang,
    };
    sqlgen_obs::obs_info!("[fig9] preparing {} ...", benchmark.name());
    let bed = TestBed::new(benchmark, args.scale, args.seed);
    let pretrain = pretrain_constraints();
    let adapt_episodes = args.train;
    let pre_episodes = args.train / 2;

    // Pre-train MetaCritic across the K tasks.
    sqlgen_obs::obs_info!("[fig9] pre-training MetaCritic on {PRETRAIN_TASKS} tasks ...");
    let mut meta = MetaCriticTrainer::new(bed.vocab.size(), pretrain.clone(), train_cfg(args.seed));
    for round in 0..pre_episodes {
        for (i, &c) in pretrain.iter().enumerate() {
            let env = bed.env(c);
            meta.train_task(i, &env);
        }
        if round % 50 == 0 {
            sqlgen_obs::obs_info!("[fig9]   meta pre-train round {round}/{pre_episodes}");
        }
    }

    // Pre-train AC-extend on the same tasks (shared nets, bucket-token
    // conditioned).
    sqlgen_obs::obs_info!("[fig9] pre-training AC-extend ...");
    let mut ace = AcExtend::new(bed.vocab.size(), train_cfg(args.seed ^ 1), DOMAIN);
    for _ in 0..pre_episodes {
        for &c in &pretrain {
            let env = bed.env(c);
            ace.train_episode(&env);
        }
    }

    let mut acc_table = Table::new(
        format!(
            "Figure 9(a) — Accuracy on new constraints (N={}, {}, adapt={adapt_episodes} eps)",
            args.n,
            benchmark.name()
        ),
        &["constraint", "Scratch", "AC-extend", "MetaCritic"],
    );
    let mut time_table = Table::new(
        format!(
            "Figure 9(b) — Adaptation time to {} satisfied queries",
            args.n
        ),
        &["constraint", "Scratch", "AC-extend", "MetaCritic"],
    );
    let mut traces: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = Vec::new();

    for c in new_constraints() {
        let label = format!(
            "Card in [{:.1}k, {:.1}k]",
            match c.target {
                sqlgen_rl::Target::Range(lo, _) => lo / 1e3,
                _ => unreachable!(),
            },
            match c.target {
                sqlgen_rl::Target::Range(_, hi) => hi / 1e3,
                _ => unreachable!(),
            }
        );
        sqlgen_obs::obs_info!("[fig9] adapting to {label}");
        let env = bed.env(c);

        // Scratch: fresh actor-critic.
        let mut scratch = ActorCritic::new(bed.vocab.size(), train_cfg(args.seed ^ 2));
        let (sec_scratch, trace_scratch) = adapt(&env, adapt_episodes, args.n, |e| {
            scratch.train(e, 1, 1).remove(0)
        });
        let acc_scratch = evaluate(&env, args.n, |e| scratch.generate(None, e, 1, 1).remove(0));
        let r_scratch = AdaptResult {
            accuracy: acc_scratch,
            seconds: sec_scratch,
            trace: trace_scratch,
        };

        // AC-extend: continue training the shared nets on the new bucket.
        let (sec_ace, trace_ace) = adapt(&env, adapt_episodes, args.n, |e| ace.train_episode(e));
        let acc_ace = evaluate(&env, args.n, |e| ace.generate(e));
        let r_ace = AdaptResult {
            accuracy: acc_ace,
            seconds: sec_ace,
            trace: trace_ace,
        };

        // MetaCritic: new actor, warm shared critic.
        let task = meta.add_task(bed.vocab.size(), c);
        let (sec_meta, trace_meta) =
            adapt(&env, adapt_episodes, args.n, |e| meta.train_task(task, e));
        let acc_meta = evaluate(&env, args.n, |e| meta.generate(task, e));
        let r_meta = AdaptResult {
            accuracy: acc_meta,
            seconds: sec_meta,
            trace: trace_meta,
        };

        acc_table.row(vec![
            label.clone(),
            pct(r_scratch.accuracy),
            pct(r_ace.accuracy),
            pct(r_meta.accuracy),
        ]);
        time_table.row(vec![
            label,
            secs(r_scratch.seconds),
            secs(r_ace.seconds),
            secs(r_meta.seconds),
        ]);
        traces.push((r_scratch.trace, r_ace.trace, r_meta.trace));
    }

    acc_table.print();
    time_table.print();
    write_csv(&acc_table, "fig9a_accuracy");
    write_csv(&time_table, "fig9b_time");

    // Figure 9(c): adaptation reward trace on the first new task.
    let mut trace_table = Table::new(
        "Figure 9(c) — Average reward per adaptation epoch (first new task)",
        &["epoch", "Scratch", "AC-extend", "MetaCritic"],
    );
    let (ts, ta, tm) = &traces[0];
    let bucket = 10usize;
    let avg = |t: &[f32], i: usize| -> f32 {
        let c = &t[i * bucket..((i + 1) * bucket).min(t.len())];
        c.iter().sum::<f32>() / c.len().max(1) as f32
    };
    for i in 0..ts.len() / bucket {
        trace_table.row(vec![
            format!("{}", i * bucket),
            format!("{:.4}", avg(ts, i)),
            format!("{:.4}", avg(ta, i)),
            format!("{:.4}", avg(tm, i)),
        ]);
    }
    trace_table.print();
    write_csv(&trace_table, "fig9c_adaptation_trace");
    args.finish_obs();
}
