//! # LearnedSQLGen core
//!
//! The paper's headline system: given a database and a cardinality/cost
//! constraint, train an RL policy whose generated SQL satisfies the
//! constraint (paper §3).
//!
//! ```no_run
//! use sqlgen_core::{Constraint, GenConfig, LearnedSqlGen};
//! use sqlgen_storage::gen::Benchmark;
//!
//! let db = Benchmark::TpcH.build(1.0, 42);
//! let mut generator = LearnedSqlGen::new(
//!     &db,
//!     Constraint::cardinality_range(1_000.0, 2_000.0),
//!     GenConfig::default(),
//! );
//! generator.train(500);
//! for q in generator.generate(10) {
//!     println!("{} -> {:.0} (satisfied: {})", q.sql, q.measured, q.satisfied);
//! }
//! ```

pub mod checkpoint;
pub mod config;
pub mod diversity;
pub mod generator;
pub mod meta;
pub mod metrics;
pub mod refine;

pub use checkpoint::{Checkpoint, CheckpointError, CheckpointMeta, CHECKPOINT_VERSION};
pub use config::{Algorithm, GenConfig};
pub use diversity::{profile, structure_signature, DiversityReport};
pub use generator::{generate_window, GeneratedQuery, LearnedSqlGen, SeededRequest, TrainStats};
pub use meta::{MetaSqlGen, Specialized};
pub use metrics::{timed, GenerationReport};
pub use refine::{RefineConfig, RefineOutcome, RefineStep, Refiner};
// Re-export the constraint vocabulary so users need only this crate.
pub use sqlgen_rl::{
    Constraint, ExecBudget, ExecDb, Metric, RewardSource, Target, POINT_TOLERANCE,
};
