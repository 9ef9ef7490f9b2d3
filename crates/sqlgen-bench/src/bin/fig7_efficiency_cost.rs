//! Figure 7: generation time (training + inference) to collect N satisfied
//! queries under **cost** constraints.

use sqlgen_bench::methods::{learned_efficiency, random_efficiency, template_efficiency};
use sqlgen_bench::table::secs;
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::Benchmark;

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let points: [f64; 4] = [1e2, 1e3, 1e4, 1e5];
    let ranges = [(1e2, 2e2), (1e2, 4e2), (1e2, 6e2), (1e2, 8e2)];

    let mut table = Table::new(
        format!(
            "Figure 7 — Time to generate {} satisfied queries, cost constraints \
             (scale={}, train={})",
            args.n, args.scale, args.train
        ),
        &[
            "dataset",
            "constraint",
            "SQLSmith",
            "Template",
            "LearnedSQLGen",
            "tried (S/T/L)",
        ],
    );

    for benchmark in Benchmark::ALL {
        if let Some(only) = &args.benchmark {
            if !benchmark.name().eq_ignore_ascii_case(only) {
                continue;
            }
        }
        sqlgen_obs::obs_info!("[fig7] preparing {} ...", benchmark.name());
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
            sqlgen_obs::obs_info!("[fig7] {} / {label}", benchmark.name());
            let rnd = random_efficiency(&bed, constraint, args.n);
            let tpl = template_efficiency(&bed, constraint, args.n);
            let lrn = learned_efficiency(&bed, constraint, args.train, args.n, args.batch);
            table.row(vec![
                benchmark.name().to_string(),
                label,
                secs(rnd.seconds),
                secs(tpl.seconds),
                secs(lrn.seconds),
                // Hardware-independent effort: queries evaluated per method
                // (the paper's time ratios are driven by this count times
                // the DBMS's per-EXPLAIN latency; see EXPERIMENTS.md).
                format!("{}/{}/{}", rnd.attempts, tpl.attempts, lrn.attempts),
            ]);
        }
    }

    table.print();
    write_csv(&table, "fig7_efficiency_cost");
    args.finish_obs();
}
