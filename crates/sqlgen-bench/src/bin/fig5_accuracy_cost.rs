//! Figure 5: generation accuracy under **cost** constraints.
//!
//! Same grid as Figure 4 with the optimizer cost model as the metric.

use sqlgen_bench::methods::{learned_accuracy, random_accuracy, template_accuracy};
use sqlgen_bench::table::pct;
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::Benchmark;

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    // The paper's cost axis spans 10²..10⁸ on 33 GB data; our scaled data
    // puts interesting costs at 10¹..10⁶ cost units — same spread, shifted
    // (documented in EXPERIMENTS.md).
    let points: [f64; 4] = [1e2, 1e3, 1e4, 1e5];
    let ranges = [(1e2, 2e2), (1e2, 4e2), (1e2, 6e2), (1e2, 8e2)];

    let mut table = Table::new(
        format!(
            "Figure 5 — Accuracy, cost constraints (N={}, scale={}, train={})",
            args.n, args.scale, args.train
        ),
        &[
            "dataset",
            "constraint",
            "SQLSmith",
            "Template",
            "LearnedSQLGen",
        ],
    );

    for benchmark in Benchmark::ALL {
        if let Some(only) = &args.benchmark {
            if !benchmark.name().eq_ignore_ascii_case(only) {
                continue;
            }
        }
        sqlgen_obs::obs_info!("[fig5] preparing {} ...", benchmark.name());
        let bed = TestBed::new(benchmark, args.scale, args.seed);

        let constraints: Vec<(String, Constraint)> = points
            .iter()
            .map(|&c| {
                (
                    format!("Cost = 1e{:.0}", c.log10()),
                    Constraint::cost_point(c),
                )
            })
            .chain(ranges.iter().map(|&(lo, hi)| {
                (
                    format!("Cost in [{lo:.0}, {hi:.0}]"),
                    Constraint::cost_range(lo, hi),
                )
            }))
            .collect();

        for (label, constraint) in constraints {
            sqlgen_obs::obs_info!("[fig5] {} / {label}", benchmark.name());
            let rnd = random_accuracy(&bed, constraint, args.n);
            let tpl = template_accuracy(&bed, constraint, args.n);
            let lrn = learned_accuracy(&bed, constraint, args.train, args.n, args.batch);
            table.row(vec![
                benchmark.name().to_string(),
                label,
                pct(rnd.accuracy),
                pct(tpl.accuracy),
                pct(lrn.accuracy),
            ]);
        }
    }

    table.print();
    write_csv(&table, "fig5_accuracy_cost");
    args.finish_obs();
}
