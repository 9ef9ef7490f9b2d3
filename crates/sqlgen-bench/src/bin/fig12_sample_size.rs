//! Figure 12: sensitivity to the value-sample size (paper §7.7).
//!
//! Varies `k`, the number of sampled values per numerical column (the
//! paper varies the ratio η of samples to distinct values), and reports
//! accuracy and total time (training + inference) for a point and a range
//! constraint on TPC-H.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_bench::table::{pct, secs};
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_core::LearnedSqlGen;
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::sample::SampleConfig;
use std::time::Instant;

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let ks = [2usize, 5, 10, 25, 50, 100, 200];
    let constraints = [
        ("Card = 1e3", Constraint::cardinality_point(1e3)),
        ("Card in [1k, 4k]", Constraint::cardinality_range(1e3, 4e3)),
    ];

    // Average distinct count of numerical columns, to report η like the
    // paper does.
    let probe = TestBed::new(Benchmark::TpcH, args.scale, args.seed);
    let mut distinct_sum = 0usize;
    let mut distinct_cnt = 0usize;
    for t in probe.db.tables() {
        let stats = probe.est.table_stats(t.name()).expect("stats exist");
        for c in &stats.columns {
            if c.dtype.is_numeric() {
                distinct_sum += c.distinct;
                distinct_cnt += 1;
            }
        }
    }
    let avg_distinct = (distinct_sum as f64 / distinct_cnt.max(1) as f64).max(1.0);

    let mut acc_table = Table::new(
        format!(
            "Figure 12(a) — Accuracy vs sample size (N={}, TPC-H, train={})",
            args.n, args.train
        ),
        &["k", "eta", constraints[0].0, constraints[1].0],
    );
    let mut time_table = Table::new(
        format!("Figure 12(b) — Total time vs sample size (N={})", args.n),
        &["k", "eta", constraints[0].0, constraints[1].0],
    );

    for &k in &ks {
        sqlgen_obs::obs_info!("[fig12] k = {k}");
        let bed = TestBed::with_sample(
            Benchmark::TpcH,
            args.scale,
            args.seed,
            SampleConfig {
                k,
                ..Default::default()
            },
        );
        let eta = (k as f64 / avg_distinct).min(1.0);
        // RL training at this scale is seed-sensitive; average 3 seeds.
        const SEEDS: u64 = 3;
        let mut accs = Vec::new();
        let mut times = Vec::new();
        for (_, constraint) in constraints {
            let mut acc = 0.0;
            let mut time = 0.0;
            for s in 0..SEEDS {
                let start = Instant::now();
                let mut cfg =
                    harness_gen_config(bed.seed ^ (s * 0x9e37)).with_batch_size(args.batch);
                cfg.sample = SampleConfig {
                    k,
                    ..Default::default()
                };
                let mut g = LearnedSqlGen::new(&bed.db, constraint, cfg);
                g.train(args.train);
                let qs = g.generate(args.n);
                let satisfied = qs.iter().filter(|q| q.satisfied).count();
                acc += satisfied as f64 / args.n as f64;
                time += start.elapsed().as_secs_f64();
            }
            accs.push(acc / SEEDS as f64);
            times.push(time / SEEDS as f64);
        }
        acc_table.row(vec![
            k.to_string(),
            format!("{eta:.3}"),
            pct(accs[0]),
            pct(accs[1]),
        ]);
        time_table.row(vec![
            k.to_string(),
            format!("{eta:.3}"),
            secs(times[0]),
            secs(times[1]),
        ]);
    }

    acc_table.print();
    time_table.print();
    write_csv(&acc_table, "fig12a_accuracy");
    write_csv(&time_table, "fig12b_time");
    args.finish_obs();
}
