//! Figure 11: time to generate increasing numbers of *complicated*
//! satisfied queries (nested SELECT / INSERT / DELETE) under cost
//! constraints on TPC-H.
//!
//! The cost points are adapted to our cost model's units (the paper's 10²..
//! 10⁶ axis assumes 33 GB tables; see EXPERIMENTS.md): nested/delete use
//! reachable cost points, INSERT cost is constant in both models so its
//! constraint is a band around that constant — the curve then measures pure
//! generation + validation throughput, as in the paper.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_bench::table::secs;
use sqlgen_bench::{write_csv, HarnessArgs, Table, TestBed};
use sqlgen_core::LearnedSqlGen;
use sqlgen_engine::{Statement, StatementKind};
use sqlgen_fsm::FsmConfig;
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::Benchmark;
use std::time::Instant;

/// Whether a statement counts as the target complicated type.
fn matches(kind: &str, stmt: &Statement) -> bool {
    match kind {
        "nested" => stmt.as_select().is_some_and(|q| q.has_subquery()),
        "insert" => stmt.kind() == StatementKind::Insert,
        "delete" => stmt.kind() == StatementKind::Delete,
        other => unreachable!("unknown kind {other}"),
    }
}

fn fsm_for(kind: &str) -> FsmConfig {
    match kind {
        "nested" => FsmConfig {
            max_subquery_depth: 1,
            ..FsmConfig::default()
        },
        "insert" => FsmConfig::default().with_statements(&[StatementKind::Insert]),
        "delete" => FsmConfig::default().with_statements(&[StatementKind::Delete]),
        other => unreachable!("unknown kind {other}"),
    }
}

fn main() {
    let args = HarnessArgs::parse();
    args.init_obs();
    let bed = TestBed::new(Benchmark::TpcH, args.scale, args.seed);
    let targets: Vec<usize> = (1..=10).map(|i| i * args.n / 10).collect();

    // (kind, label, constraints): cost levels reachable per statement type.
    let cases: Vec<(&str, Vec<(String, Constraint)>)> = vec![
        (
            "nested",
            vec![
                ("Cost = 1e2".into(), Constraint::cost_point(1e2)),
                ("Cost = 1e3".into(), Constraint::cost_point(1e3)),
                (
                    "Cost in [1e2, 4e2]".into(),
                    Constraint::cost_range(1e2, 4e2),
                ),
            ],
        ),
        (
            "insert",
            vec![(
                "Cost in [0.01, 1]".into(),
                Constraint::cost_range(0.01, 1.0),
            )],
        ),
        (
            "delete",
            vec![
                ("Cost = 1e1".into(), Constraint::cost_point(1e1)),
                ("Cost in [1, 50]".into(), Constraint::cost_range(1.0, 50.0)),
            ],
        ),
    ];

    for (kind, constraints) in cases {
        let mut table = Table::new(
            format!(
                "Figure 11 — Time to generate k satisfied {kind} queries (TPC-H, scale={})",
                args.scale
            ),
            &{
                let mut h = vec!["k"];
                h.extend(constraints.iter().map(|(l, _)| l.as_str()));
                h
            },
        );

        // Per constraint: train once, then collect up to max(targets),
        // recording the elapsed time at each checkpoint.
        let mut series: Vec<Vec<f64>> = Vec::new();
        for (label, constraint) in &constraints {
            sqlgen_obs::obs_info!("[fig11] {kind} / {label}");
            let mut cfg = harness_gen_config(bed.seed).with_batch_size(args.batch);
            cfg.fsm = fsm_for(kind);
            let start = Instant::now();
            let mut g = LearnedSqlGen::new(&bed.db, *constraint, cfg);
            g.train(args.train.min(200));
            let mut times = Vec::with_capacity(targets.len());
            let mut found = 0usize;
            let budget = targets.last().unwrap() * 300;
            let mut attempts = 0usize;
            let mut next_target = 0usize;
            while next_target < targets.len() && attempts < budget {
                attempts += 1;
                let q = &g.generate(1)[0];
                if q.satisfied && matches(kind, &q.statement) {
                    found += 1;
                    while next_target < targets.len() && found >= targets[next_target] {
                        times.push(start.elapsed().as_secs_f64());
                        next_target += 1;
                    }
                }
            }
            while times.len() < targets.len() {
                times.push(f64::INFINITY);
            }
            series.push(times);
        }

        for (i, &k) in targets.iter().enumerate() {
            let mut row = vec![k.to_string()];
            row.extend(series.iter().map(|s| secs(s[i])));
            table.row(row);
        }
        table.print();
        write_csv(&table, &format!("fig11_{kind}"));
    }
    args.finish_obs();
}
