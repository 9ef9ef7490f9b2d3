//! Differential fuzzing and invariant harness for the SQL substrate.
//!
//! The generation pipeline (FSM → render → parse → validate → execute →
//! estimate) has many independently implemented components that must agree
//! with each other. This crate stress-tests those agreements with thirteen
//! invariant families over randomly generated schemas, data and statements:
//!
//! * **round-trip** — `parse(render(ast)) == ast`, rendering is a fixpoint,
//! * **estimator** — cardinality/cost estimates finite and non-negative,
//!   selectivities in `[0, 1]`, conjuncts never raise estimates,
//! * **differential** — `Executor::cardinality` matches a naive
//!   nested-loop oracle; `like_match` matches a naive recursive matcher,
//! * **fsm-closure** — every masked rollout parses, validates, executes,
//! * **nn-numerics** — softmax/sampling/argmax survive non-finite logits,
//! * **batch-equivalence** — batched lockstep generation at B∈{2,4,8}
//!   yields per-lane token streams identical to serial runs with the same
//!   lane seeds, and every emitted query passes the fsm-closure checks,
//! * **serve-equivalence** — dynamic-batcher windows produce episodes
//!   bitwise-identical to each request served alone, and the HTTP parser
//!   survives truncated/oversized/hostile bytes with correct 400/413,
//! * **trace-header** — the `traceparent`/`X-Request-Id` parser survives
//!   hostile bytes without panicking, rejects malformed headers, and any
//!   accepted or minted identity echoes as a canonical header,
//! * **quant-error** — int8 per-output-channel quantization honors its
//!   theoretical error envelope on random weights and hostile activation
//!   magnitudes (NaN/±inf excluded), and masked argmax over quantized
//!   logits agrees with f32 argmax on ≥99% of decisive trials (f32
//!   margin beyond the summed row error bounds), with non-decisive flips
//!   bounded by the error envelope,
//! * **refine-validity** — every step of constraint-miss refinement
//!   (DESIGN.md §12) parses, re-renders to a fixpoint, validates, and
//!   executes; accepted-step rewards strictly increase toward the
//!   constraint interval; an accepted result satisfies the constraint and
//!   re-measures bit-identically; the search is deterministic,
//! * **cache-equivalence** — the sharded LRU result cache behaves as a
//!   pure map under random interleavings; under eviction a hit is always
//!   the exact last body for that key and held bytes stay within budget;
//!   a cached response body is bitwise identical to fresh generation at a
//!   different batch width; keys ignore `timeout_ms` but miss on seed or
//!   model-version changes (hot-swap invalidation),
//! * **paged-equivalence** — a random database saved as a paged image and
//!   read back through a minimum-size (two-frame, constantly evicting)
//!   buffer pool is bitwise-identical to the in-memory original: schemas,
//!   every cell, cursor scans, and executor cardinalities on random
//!   statements; a deliberately damaged file (torn final page or a random
//!   byte flip) must be rejected by the checksummed open/verify path,
//! * **checkpoint-hostile** — a rendered checkpoint truncated at a random
//!   byte, or with one dimension, token or tensor data length changed,
//!   either fails to load with a typed error or loads a network whose
//!   seeded generation runs without panicking and yields valid SQL.
//!
//! Everything is deterministic: case `i` of a run with seed `s` derives its
//! own RNG from `s ^ (i + 1) * GOLDEN`, so any failure reproduces from the
//! printed case seed alone (`fuzz_smoke --family <f> --case-seed <hex>`).
//! Failing statements are shrunk greedily to a minimal reproduction.

pub mod astgen;
pub mod dbgen;
pub mod invariants;
pub mod oracle;
pub mod shrink;

pub use astgen::GenOptions;
pub use dbgen::DbProfile;
pub use invariants::CheckFail;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Mix constant for per-case seeds (the 64-bit golden ratio, as used by
/// splitmix64).
pub const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The thirteen invariant families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Roundtrip,
    Estimator,
    Differential,
    FsmClosure,
    NnNumerics,
    BatchEquivalence,
    ServeEquivalence,
    TraceHeader,
    QuantError,
    RefineValidity,
    CacheEquivalence,
    PagedEquivalence,
    CheckpointHostile,
}

impl Family {
    pub const ALL: [Family; 13] = [
        Family::Roundtrip,
        Family::Estimator,
        Family::Differential,
        Family::FsmClosure,
        Family::NnNumerics,
        Family::BatchEquivalence,
        Family::ServeEquivalence,
        Family::TraceHeader,
        Family::QuantError,
        Family::RefineValidity,
        Family::CacheEquivalence,
        Family::PagedEquivalence,
        Family::CheckpointHostile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Family::Roundtrip => "roundtrip",
            Family::Estimator => "estimator",
            Family::Differential => "differential",
            Family::FsmClosure => "fsm-closure",
            Family::NnNumerics => "nn-numerics",
            Family::BatchEquivalence => "batch-equivalence",
            Family::ServeEquivalence => "serve-equivalence",
            Family::TraceHeader => "trace-header",
            Family::QuantError => "quant-error",
            Family::RefineValidity => "refine-validity",
            Family::CacheEquivalence => "cache-equivalence",
            Family::PagedEquivalence => "paged-equivalence",
            Family::CheckpointHostile => "checkpoint-hostile",
        }
    }

    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.iter().copied().find(|f| f.name() == name)
    }

    fn index(self) -> usize {
        Family::ALL.iter().position(|f| *f == self).expect("listed")
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of cases; family `i % ALL.len()` runs on case `i`, so a
    /// multiple of the family count exercises all families equally.
    pub iters: u64,
    pub seed: u64,
    /// Stop after this many failures (shrinking is not free).
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            iters: 500,
            seed: 0,
            max_failures: 5,
        }
    }
}

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Failure {
    pub family: Family,
    pub iter: u64,
    /// Seed that reproduces this exact case in isolation.
    pub case_seed: u64,
    pub detail: String,
    pub sql: Option<String>,
    pub shrunk_sql: Option<String>,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] case {} (seed {:#x}): {}",
            self.family, self.iter, self.case_seed, self.detail
        )?;
        if let Some(sql) = &self.sql {
            write!(f, "\n  sql:    {sql}")?;
        }
        if let Some(sql) = &self.shrunk_sql {
            write!(f, "\n  shrunk: {sql}")?;
        }
        Ok(())
    }
}

/// Outcome of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    pub iters_run: u64,
    /// Total individual assertions that passed.
    pub checks: u64,
    /// Passed assertions per family, indexed like [`Family::ALL`].
    pub checks_per_family: [u64; Family::ALL.len()],
    pub failures: Vec<Failure>,
}

impl FuzzReport {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn summary(&self) -> String {
        let per: Vec<String> = Family::ALL
            .iter()
            .map(|f| format!("{}={}", f.name(), self.checks_per_family[f.index()]))
            .collect();
        format!(
            "{} cases, {} checks ({}), {} failure(s)",
            self.iters_run,
            self.checks,
            per.join(" "),
            self.failures.len()
        )
    }
}

/// The per-case seed for case `iter` of a run seeded with `seed`.
pub fn case_seed(seed: u64, iter: u64) -> u64 {
    seed ^ (iter + 1).wrapping_mul(GOLDEN)
}

/// Runs one case of `family` from an explicit case seed (reproduction
/// entry point).
pub fn run_case(family: Family, case_seed: u64) -> Result<u64, CheckFail> {
    let mut rng = StdRng::seed_from_u64(case_seed);
    match family {
        Family::Roundtrip => invariants::check_roundtrip(&mut rng),
        Family::Estimator => invariants::check_estimator(&mut rng),
        Family::Differential => invariants::check_differential(&mut rng),
        Family::FsmClosure => invariants::check_fsm_closure(&mut rng),
        Family::NnNumerics => invariants::check_nn_numerics(&mut rng),
        Family::BatchEquivalence => invariants::check_batch_equivalence(&mut rng),
        Family::ServeEquivalence => invariants::check_serve_equivalence(&mut rng),
        Family::TraceHeader => invariants::check_trace_header(&mut rng),
        Family::QuantError => invariants::check_quant_error(&mut rng),
        Family::RefineValidity => invariants::check_refine_validity(&mut rng),
        Family::CacheEquivalence => invariants::check_cache_equivalence(&mut rng),
        Family::PagedEquivalence => invariants::check_paged_equivalence(&mut rng),
        Family::CheckpointHostile => invariants::check_checkpoint_hostile(&mut rng),
    }
}

/// Runs the harness: `cfg.iters` cases, rotating through the families.
pub fn run(cfg: &FuzzConfig) -> FuzzReport {
    run_with(cfg, &Family::ALL)
}

/// Runs the harness over a chosen subset of families (e.g. a whole budget
/// on one family via `fuzz_smoke --family <f>`), rotating through them.
pub fn run_with(cfg: &FuzzConfig, families: &[Family]) -> FuzzReport {
    assert!(!families.is_empty(), "at least one family required");
    let mut report = FuzzReport::default();
    for iter in 0..cfg.iters {
        let family = families[(iter % families.len() as u64) as usize];
        let seed = case_seed(cfg.seed, iter);
        report.iters_run += 1;
        match run_case(family, seed) {
            Ok(checks) => {
                report.checks += checks;
                report.checks_per_family[family.index()] += checks;
            }
            Err(fail) => {
                report.failures.push(Failure {
                    family,
                    iter,
                    case_seed: seed,
                    detail: fail.detail,
                    sql: fail.sql,
                    shrunk_sql: fail.shrunk_sql,
                });
                if report.failures.len() >= cfg.max_failures {
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::{parse, Executor};
    use sqlgen_storage::{ColumnDef, DataType, Database, Table, TableSchema, Value};

    /// The library's own smoke test: a short run across all families must
    /// come back clean. (CI runs a longer budget via `fuzz_smoke`.)
    #[test]
    fn short_run_is_clean() {
        let report = run(&FuzzConfig {
            iters: 100,
            seed: 0xF0222,
            max_failures: 3,
        });
        for f in &report.failures {
            eprintln!("{f}");
        }
        assert!(report.ok(), "{}", report.summary());
        assert_eq!(report.iters_run, 100);
        for (i, f) in Family::ALL.iter().enumerate() {
            assert!(
                report.checks_per_family[i] > 0,
                "family {} never checked anything",
                f.name()
            );
        }
    }

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        assert_eq!(case_seed(7, 3), case_seed(7, 3));
        assert_ne!(case_seed(7, 3), case_seed(7, 4));
        assert_ne!(case_seed(7, 3), case_seed(8, 3));
    }

    fn students_scores() -> Database {
        let mut db = Database::new();
        let mut students = Table::new(
            TableSchema::new("students")
                .with_column(ColumnDef::new("id", DataType::Int))
                .with_primary_key()
                .with_column(ColumnDef::new("age", DataType::Int))
                .with_column(ColumnDef::new("name", DataType::Text)),
        );
        for i in 0..8 {
            students.push_row(vec![
                Value::Int(i),
                Value::Int(18 + (i % 4)),
                Value::Text(format!("s{}%", i % 3)),
            ]);
        }
        let mut scores = Table::new(
            TableSchema::new("scores")
                .with_column(ColumnDef::new("sid", DataType::Int))
                .with_foreign_key("students", "id")
                .with_column(ColumnDef::new("points", DataType::Float)),
        );
        for i in 0..16 {
            scores.push_row(vec![
                Value::Int(i % 9), // one dangling key
                Value::Float(if i == 5 { f64::NAN } else { 50.0 + i as f64 }),
            ]);
        }
        db.add_table(students);
        db.add_table(scores);
        db
    }

    /// The oracle agrees with the executor on handcrafted statements that
    /// hit joins, grouping, HAVING, IN, LIKE and NaN data.
    #[test]
    fn oracle_matches_executor_on_known_queries() {
        let db = students_scores();
        let ex = Executor::new(&db);
        for sql in [
            "SELECT students.id FROM students",
            "SELECT * FROM students",
            "SELECT students.id FROM students WHERE students.age < 20",
            "SELECT scores.points FROM scores JOIN students ON scores.sid = students.id",
            "SELECT students.age, COUNT(students.id) FROM students GROUP BY students.age",
            "SELECT students.age FROM students GROUP BY students.age \
             HAVING SUM(students.id) > 5.0",
            "SELECT SUM(scores.points) FROM scores",
            "SELECT students.id FROM students WHERE students.id IN \
             (SELECT scores.sid FROM scores WHERE scores.points > 55.0)",
            "SELECT students.name FROM students WHERE students.name LIKE 's1%'",
            "SELECT students.name FROM students WHERE students.name LIKE 's1\\%'",
            "SELECT students.id FROM students WHERE students.age > \
             (SELECT AVG(students.age) FROM students)",
            "DELETE FROM scores WHERE scores.points < 60.0",
            "UPDATE students SET age = 21 WHERE students.age = 19",
            "INSERT INTO students VALUES (99, 30, 'zz')",
        ] {
            let stmt = parse(sql).unwrap();
            let got = ex.cardinality(&stmt).expect(sql);
            let want = oracle::cardinality(&db, &stmt).expect(sql);
            assert_eq!(got, want, "{sql}");
        }
    }
}
