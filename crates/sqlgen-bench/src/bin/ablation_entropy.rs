//! Ablation: entropy-regularization strength λ (paper §4.3 and §7.5).
//!
//! The paper sets λ = 0.01 "to prevent the actor from generating a lot of
//! same queries". This ablation sweeps λ and reports both accuracy and the
//! diversity of the satisfied set (distinct-SQL ratio and structural
//! entropy), reproducing the accuracy-vs-diversity trade-off.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_bench::table::pct;
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_core::{profile, LearnedSqlGen};
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::Benchmark;

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let bed = TestBed::new(Benchmark::TpcH, args.scale, args.seed);
    let constraint = Constraint::cardinality_range(1e3, 8e3);
    let lambdas = [0.0f32, 0.005, 0.01, 0.05, 0.2];

    let mut table = Table::new(
        format!(
            "Ablation — entropy regularization λ (N={}, train={}, {constraint})",
            args.n, args.train
        ),
        &[
            "lambda",
            "accuracy",
            "distinct SQL",
            "structure entropy (bits)",
            "shape entropy (bits)",
        ],
    );

    for &lambda in &lambdas {
        sqlgen_obs::obs_info!("[ablation] lambda = {lambda}");
        let mut cfg = harness_gen_config(bed.seed).with_batch_size(args.batch);
        cfg.train.lambda = lambda;
        let mut g = LearnedSqlGen::new(&bed.db, constraint, cfg);
        g.train(args.train);
        let qs = g.generate(args.n);
        let acc = qs.iter().filter(|q| q.satisfied).count() as f64 / args.n as f64;
        let report = profile(&qs);
        table.row(vec![
            format!("{lambda}"),
            pct(acc),
            format!("{:.2}", report.distinct_ratio),
            format!("{:.2}", report.structure_entropy),
            format!("{:.2}", report.shape_entropy),
        ]);
    }

    table.print();
    write_csv(&table, "ablation_entropy");
    args.finish_obs();
}
