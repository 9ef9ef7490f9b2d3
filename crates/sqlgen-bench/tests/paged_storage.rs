//! The paged storage tier end to end (DESIGN.md §14): an image streamed to
//! disk reads back bitwise identical through a buffer pool much smaller
//! than the file, and execution rewards train against a paged image.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_core::{Constraint, ExecBudget, ExecDb, LearnedSqlGen};
use sqlgen_engine::{Estimator, ExecOptions};
use sqlgen_fuzz::invariants::value_bits_eq;
use sqlgen_storage::gen::Benchmark;
use sqlgen_storage::{DbRead, PagedDb, PagedDbWriter, TableRead};
use std::path::PathBuf;
use std::sync::Arc;

const SEED: u64 = 42;

/// A paged image in the temp dir, removed on drop (also when a test fails).
struct TempImage(PathBuf);

impl TempImage {
    /// Streams TPC-H at `scale` into a fresh paged file.
    fn build(tag: &str, scale: f64) -> TempImage {
        let path =
            std::env::temp_dir().join(format!("sqlgen-paged-{tag}-{}.db", std::process::id()));
        let mut w = PagedDbWriter::create(&path).expect("create paged file");
        Benchmark::TpcH
            .build_into(scale, SEED, &mut w)
            .and_then(|()| w.finish())
            .expect("paged build");
        TempImage(path)
    }

    fn bytes(&self) -> u64 {
        std::fs::metadata(&self.0).expect("stat paged file").len()
    }
}

impl Drop for TempImage {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn paged_scan_matches_memory_through_a_small_pool() {
    const SCALE: f64 = 11.0;
    const POOL_BYTES: usize = 512 << 10;
    let image = TempImage::build("scan", SCALE);
    let mem = Benchmark::TpcH.build(SCALE, SEED);
    let paged = PagedDb::open(&image.0, POOL_BYTES).expect("open paged image");
    paged.verify().expect("every page checksums");
    let before = paged.pool_stats();
    let mut mismatches = 0u64;
    for name in mem.table_names() {
        let mt = mem.table(name).expect("listed table exists");
        let dt = paged.read_table(name).expect("paged table exists");
        assert_eq!(TableRead::row_count(dt), mt.row_count(), "{name} rows");
        for r in 0..mt.row_count() {
            for c in 0..mt.schema.columns.len() {
                if !value_bits_eq(&mt.columns[c].get(r), &dt.value(c, r)) {
                    mismatches += 1;
                }
            }
        }
    }
    let after = paged.pool_stats();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    assert_eq!(mismatches, 0, "cells differ from the in-memory build");
    assert!(after.evictions > before.evictions, "the pool never evicted");
    assert!(hit_rate > 0.5, "row-major hit rate {hit_rate:.3}");
    let ratio = image.bytes() as f64 / POOL_BYTES as f64;
    assert!(ratio >= 10.0, "file only {ratio:.1}x the pool");
}

#[test]
fn execution_rewards_train_on_a_paged_image() {
    let budget = ExecBudget::default();
    let image = TempImage::build("reward", 0.1);
    let paged = PagedDb::open(&image.0, 4 << 20).expect("open paged image");
    let estimator = Estimator::from_stats(paged.table_stats());
    let exec_db = Arc::new(ExecDb::Paged(paged));
    let config = harness_gen_config(SEED).with_execute_rewards(budget);
    let mut g = LearnedSqlGen::from_exec_db(
        exec_db.clone(),
        Constraint::cardinality_range(10.0, 5_000.0),
        config,
    );
    g.train(40);

    // Replay the generated queries under the reward path's own budget.
    // Every one that executes must have been measured by execution, not
    // by the estimator fallback; its q-error is the estimator's error.
    let opts = ExecOptions {
        max_rows: budget.max_rows,
        deadline: None,
    };
    let mut qerrs: Vec<f64> = g
        .generate_seeded(20, SEED)
        .iter()
        .filter_map(|q| {
            let real = exec_db.cardinality(&q.statement, opts.clone()).ok()? as f64;
            assert_eq!(q.measured, real, "reward path did not execute {}", q.sql);
            let est = estimator.cardinality(&q.statement).max(1.0);
            let real = real.max(1.0);
            Some(est.max(real) / est.min(real))
        })
        .collect();
    assert!(!qerrs.is_empty(), "no query executed within the budget");
    for q in &qerrs {
        assert!(q.is_finite() && *q >= 1.0, "bad q-error {q}");
    }
    qerrs.sort_by(f64::total_cmp);
    let pct = |p: f64| qerrs[((qerrs.len() - 1) as f64 * p).round() as usize];
    println!(
        "q-error over {} executed queries: p50 {:.2} p90 {:.2} p99 {:.2}",
        qerrs.len(),
        pct(0.50),
        pct(0.90),
        pct(0.99)
    );
}
