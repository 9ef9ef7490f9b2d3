//! Determinism guarantee of the lane engine at width 1: training and
//! generation must reproduce the pre-kernel-rewrite token streams
//! bit-for-bit (`fixtures/golden_tokens.json`, dumped by
//! `examples/golden_dump.rs` from the original per-episode loops).

use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{ActorCritic, Constraint, NetConfig, SqlGenEnv, TrainConfig};
use sqlgen_storage::gen::tpch_database;
use sqlgen_storage::sample::SampleConfig;
use sqlgen_storage::Database;

fn cfg() -> TrainConfig {
    TrainConfig {
        net: NetConfig {
            embed_dim: 16,
            hidden: 16,
            layers: 2,
            dropout: 0.3,
        },
        seed: 5,
        ..Default::default()
    }
}

fn testbed() -> (Database, Vocabulary) {
    let db = tpch_database(0.2, 21);
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 20,
            ..Default::default()
        },
    );
    (db, vocab)
}

fn fixture_episodes(key: &str) -> Vec<Vec<usize>> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/golden_tokens.json"
    );
    let text = std::fs::read_to_string(path).expect("golden fixture present");
    let v: serde_json::Value = serde_json::from_str(&text).expect("fixture parses");
    v.get(key)
        .unwrap_or_else(|| panic!("fixture key {key}"))
        .as_array()
        .expect("array of episodes")
        .iter()
        .map(|ep| {
            ep.as_array()
                .expect("array of tokens")
                .iter()
                .map(|t| t.as_u64().expect("token id") as usize)
                .collect()
        })
        .collect()
}

/// The trainers at one lane reproduce the exact token streams the original
/// (pre-arena, pre-fused-kernel, pre-lane-engine) per-episode loops
/// produced.
#[test]
fn serial_batches_reproduce_golden_token_streams() {
    let (db, vocab) = testbed();
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let mut ac = ActorCritic::new(vocab.size(), cfg());
    let train: Vec<Vec<usize>> = ac
        .train(&env, 40, 1)
        .into_iter()
        .map(|ep| ep.actions)
        .collect();
    assert_eq!(train, fixture_episodes("ac_train"), "AC training drifted");
    let generated: Vec<Vec<usize>> = ac
        .generate(None, &env, 10, 1)
        .into_iter()
        .map(|ep| ep.actions)
        .collect();
    assert_eq!(
        generated,
        fixture_episodes("ac_generate"),
        "AC generation drifted"
    );

    let mut rf = ActorCritic::reinforce(vocab.size(), cfg());
    let train: Vec<Vec<usize>> = rf
        .train(&env, 20, 1)
        .into_iter()
        .map(|ep| ep.actions)
        .collect();
    assert_eq!(train, fixture_episodes("rf_train"), "RF training drifted");
    let generated: Vec<Vec<usize>> = rf
        .generate(None, &env, 5, 1)
        .into_iter()
        .map(|ep| ep.actions)
        .collect();
    assert_eq!(
        generated,
        fixture_episodes("rf_generate"),
        "RF generation drifted"
    );
}
