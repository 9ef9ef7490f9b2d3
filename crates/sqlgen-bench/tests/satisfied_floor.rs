//! Constraint-satisfaction floor of the shipped pipeline (DESIGN.md §12):
//! a briefly trained policy, generating with refinement on, must satisfy
//! at least 99% of its targets at every lane width, for the f32 policy and
//! for its int8 snapshot alike.

use sqlgen_bench::methods::harness_gen_config;
use sqlgen_core::{Constraint, LearnedSqlGen};
use sqlgen_storage::gen::Benchmark;

const SEED: u64 = 42;
const QUERIES: usize = 40;
const FLOOR: f64 = 0.99;

#[test]
fn refined_generation_meets_the_satisfied_floor_at_every_width() {
    let db = Benchmark::TpcH.build(0.1, SEED);
    let mut g = LearnedSqlGen::new(
        &db,
        Constraint::cardinality_range(100.0, 10_000.0),
        harness_gen_config(SEED).with_refine(true),
    );
    g.train(60);
    for quantize in [false, true] {
        g.set_quantize(quantize);
        for width in [1, 8, 16] {
            g.set_batch_size(width);
            // Seeded generation counts each query exactly once, so the rate
            // is a pure function of the weights and the seed.
            let qs = g.generate_seeded(QUERIES, SEED);
            assert_eq!(qs.len(), QUERIES);
            let satisfied = qs.iter().filter(|q| q.satisfied).count();
            let rate = satisfied as f64 / qs.len() as f64;
            assert!(
                rate >= FLOOR,
                "satisfied rate {rate:.4} ({satisfied}/{QUERIES}) below {FLOOR} \
                 at width {width}, int8 {quantize}"
            );
        }
    }
}
