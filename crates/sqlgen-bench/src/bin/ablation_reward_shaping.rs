//! Ablation: potential-based reward shaping vs the paper's literal
//! raw-boundary rewards (the deviation documented in DESIGN.md §5).
//!
//! Trains the same actor-critic under both reward modes on point and range
//! constraints and reports trained accuracy. Raw boundary rewards are
//! vulnerable to boundary-padding reward hacking; shaping aligns the return
//! with the final query's §4.2 reward.

use sqlgen_bench::table::pct;
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_rl::{ActorCritic, Constraint, NetConfig, RewardMode, TrainConfig};
use sqlgen_storage::gen::Benchmark;

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

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let bed = TestBed::new(Benchmark::TpcH, args.scale, args.seed);
    let constraints = [
        ("Card = 1e2", Constraint::cardinality_point(1e2)),
        ("Card = 1e3", Constraint::cardinality_point(1e3)),
        ("Card in [1k, 2k]", Constraint::cardinality_range(1e3, 2e3)),
        (
            "Card in [200, 400]",
            Constraint::cardinality_range(200.0, 400.0),
        ),
    ];

    let mut table = Table::new(
        format!(
            "Ablation — reward scheme (N={}, train={}, TPC-H scale={})",
            args.n, args.train, args.scale
        ),
        &["constraint", "raw boundary rewards", "potential shaping"],
    );

    for (label, constraint) in constraints {
        sqlgen_obs::obs_info!("[ablation] {label}");
        let mut accs = Vec::new();
        for mode in [RewardMode::RawBoundary, RewardMode::Shaped] {
            let env = bed.env(constraint).with_reward_mode(mode);
            let mut trainer = ActorCritic::new(bed.vocab.size(), cfg(args.seed));
            trainer.train(&env, args.train, 1);
            let hits = trainer
                .generate(None, &env, args.n, 1)
                .iter()
                .filter(|ep| ep.satisfied)
                .count();
            accs.push(hits as f64 / args.n as f64);
        }
        table.row(vec![label.to_string(), pct(accs[0]), pct(accs[1])]);
    }

    table.print();
    write_csv(&table, "ablation_reward_shaping");
    args.finish_obs();
}
