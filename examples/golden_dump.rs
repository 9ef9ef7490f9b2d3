//! One-shot fixture dumper: records the exact token streams the trainers
//! produce at one lane for fixed seeds. The committed fixtures were dumped
//! from the original per-episode loops and are guarded by the determinism
//! and golden-pipeline tests, which the one-lane engine must reproduce
//! bit-for-bit; rerun this only to change the fixtures on purpose.

use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_rl::{ActorCritic, Constraint, NetConfig, SqlGenEnv, TrainConfig};
use sqlgen_storage::gen::tpch_database;
use sqlgen_storage::sample::SampleConfig;

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

fn main() {
    let db = tpch_database(0.2, 21);
    let vocab = Vocabulary::build(
        &db,
        &SampleConfig {
            k: 20,
            ..Default::default()
        },
    );
    let est = Estimator::build(&db);
    let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(100.0, 800.0));

    let actions = |eps: Vec<sqlgen_rl::Episode>| -> Vec<Vec<usize>> {
        eps.into_iter().map(|ep| ep.actions).collect()
    };
    let mut ac = ActorCritic::new(vocab.size(), cfg());
    let ac_train = actions(ac.train(&env, 40, 1));
    let ac_generate = actions(ac.generate(None, &env, 10, 1));

    let mut rf = ActorCritic::reinforce(vocab.size(), cfg());
    let rf_train = actions(rf.train(&env, 20, 1));
    let rf_generate = actions(rf.generate(None, &env, 5, 1));

    fn arr(eps: &[Vec<usize>]) -> String {
        let rows: Vec<String> = eps
            .iter()
            .map(|ep| {
                let toks: Vec<String> = ep.iter().map(|a| a.to_string()).collect();
                format!("[{}]", toks.join(","))
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
    std::fs::write(
        "crates/sqlgen-rl/tests/fixtures/golden_tokens.json",
        format!(
            "{{\"ac_train\":{},\"ac_generate\":{},\"rf_train\":{},\"rf_generate\":{}}}\n",
            arr(&ac_train),
            arr(&ac_generate),
            arr(&rf_train),
            arr(&rf_generate)
        ),
    )
    .expect("write rl fixture");

    // Core-level fixture: the full pipeline (vocab build, training, SQL
    // rendering) for GenConfig::fast().with_seed(5).
    use sqlgen_core::{Algorithm, GenConfig, LearnedSqlGen};
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast().with_seed(5).with_refine(false),
    );
    g.train(60);
    let trace_bits: Vec<String> = g
        .stats
        .reward_trace
        .iter()
        .map(|r| r.to_bits().to_string())
        .collect();
    let sql: Vec<String> = g
        .generate(8)
        .into_iter()
        .map(|q| format!("{:?}", q.sql))
        .collect();
    // Checkpoint bytes of the trained policy, for both algorithms.
    let ac_digest = fnv1a64(g.save_checkpoint().as_bytes());
    let mut rf = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 500.0),
        GenConfig::fast()
            .with_seed(5)
            .with_refine(false)
            .with_algorithm(Algorithm::Reinforce),
    );
    rf.train(60);
    let rf_digest = fnv1a64(rf.save_checkpoint().as_bytes());
    std::fs::write(
        "crates/sqlgen-core/tests/fixtures/golden_pipeline.json",
        format!(
            "{{\"reward_trace_bits\":[{}],\"sql\":[{}],\"checkpoint_digest\":{{\"actor-critic\":\"{ac_digest:016x}\",\"reinforce\":\"{rf_digest:016x}\"}}}}\n",
            trace_bits.join(","),
            sql.join(",")
        ),
    )
    .expect("write core fixture");
    println!("fixtures written");
}

/// 64-bit FNV-1a: the checkpoint digest recorded in the core fixture.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
