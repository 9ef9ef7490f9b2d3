//! End-to-end pipeline determinism: `GenConfig::fast().with_seed(5)` must
//! reproduce the pre-kernel-rewrite reward trace (exact f32 bits) and the
//! rendered SQL of the first generated queries, and the trained policy of
//! both algorithms must serialize to the same checkpoint bytes (64-bit
//! FNV-1a digest). The fixture was dumped by `examples/golden_dump.rs`
//! from the original serial implementation.

use sqlgen_core::{Algorithm, GenConfig, LearnedSqlGen};
use sqlgen_rl::Constraint;
use sqlgen_storage::gen::tpch_database;

fn fixture() -> serde_json::Value {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_pipeline.json"
    );
    let text = std::fs::read_to_string(path).expect("golden fixture present");
    serde_json::from_str(&text).expect("fixture parses")
}

/// The fixture's `checkpoint_digest` entry for `algorithm`.
fn want_digest(v: &serde_json::Value, algorithm: &str) -> String {
    v.get("checkpoint_digest")
        .and_then(|d| d.get(algorithm))
        .and_then(|d| d.as_str())
        .unwrap_or_else(|| panic!("checkpoint_digest.{algorithm}"))
        .to_string()
}

/// 64-bit FNV-1a of the rendered checkpoint, as hex.
fn checkpoint_digest(g: &LearnedSqlGen) -> String {
    let h = g
        .save_checkpoint()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    format!("{h:016x}")
}

#[test]
fn fast_config_pipeline_matches_golden_fixture() {
    let v = fixture();
    let want_bits: Vec<u32> = v
        .get("reward_trace_bits")
        .expect("reward_trace_bits")
        .as_array()
        .expect("array")
        .iter()
        .map(|b| b.as_u64().expect("u32 bits") as u32)
        .collect();
    let want_sql: Vec<String> = v
        .get("sql")
        .expect("sql")
        .as_array()
        .expect("array")
        .iter()
        .map(|s| s.as_str().expect("string").to_string())
        .collect();

    let db = tpch_database(0.2, 21);
    // Refinement off: the fixture pins the legacy generate-and-hope path,
    // which `--no-refine` must reproduce bit-for-bit.
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast().with_seed(5).with_refine(false),
    );
    g.train(60);
    let got_bits: Vec<u32> = g.stats.reward_trace.iter().map(|r| r.to_bits()).collect();
    assert_eq!(got_bits, want_bits, "reward trace drifted (f32 bit-exact)");

    let got_sql: Vec<String> = g.generate(8).into_iter().map(|q| q.sql).collect();
    assert_eq!(got_sql, want_sql, "generated SQL drifted");
    assert_eq!(
        checkpoint_digest(&g),
        want_digest(&v, "actor-critic"),
        "actor-critic checkpoint bytes drifted"
    );
}

/// REINFORCE on the same config: the trained actor (and the absent
/// critic) must serialize to the fixture's checkpoint bytes.
#[test]
fn reinforce_checkpoint_matches_golden_digest() {
    let v = fixture();
    let db = tpch_database(0.2, 21);
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast()
            .with_seed(5)
            .with_refine(false)
            .with_algorithm(Algorithm::Reinforce),
    );
    g.train(60);
    assert_eq!(
        checkpoint_digest(&g),
        want_digest(&v, "reinforce"),
        "reinforce checkpoint bytes drifted"
    );
}

/// Int8 quantized inference is allowed to sample slightly different token
/// streams (logits move within the quantization error bound), but on the
/// golden training config its batch-1 constraint satisfied-rate must stay
/// within ±2 queries of the f32 path over the same per-job seeds — both
/// with refinement off (the raw policy) and on (the shipping path). The
/// reported "int8 batch-1 drop" (84 vs 99) was bench accounting keeping the
/// satisfied count of whichever nondeterministic timing rep was fastest,
/// not a quantization defect; this pins the deterministic truth.
#[test]
fn quantized_satisfied_rate_tracks_f32_on_golden_config() {
    let db = tpch_database(0.2, 21);
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast().with_seed(5),
    );
    g.train(60);
    g.set_batch_size(1);
    let n = 20;
    let count = |g: &LearnedSqlGen| {
        g.generate_seeded(n, 0x601d)
            .iter()
            .filter(|q| q.satisfied)
            .count() as i64
    };
    for refine in [false, true] {
        g.set_refine(refine);
        g.set_quantize(false);
        let f32_sat = count(&g);
        g.set_quantize(true);
        let q_sat = count(&g);
        assert!(
            (q_sat - f32_sat).abs() <= 2,
            "quantized satisfied-rate drifted (refine={refine}): \
             f32 {f32_sat}/{n} vs int8 {q_sat}/{n}"
        );
    }
}
