//! In-memory relational storage substrate for LearnedSQLGen.
//!
//! The SIGMOD'22 paper evaluates on TPC-H (33 GB), JOB/IMDB (14 GB) and the
//! proprietary XueTang OLTP benchmark (24 GB). The reinforcement-learning
//! signal, however, only depends on the *estimated* cardinality/cost, which
//! is a function of schema topology and column statistics rather than raw
//! data volume. This crate therefore provides:
//!
//! * typed columnar tables ([`Table`], [`Column`]) and a [`Database`] catalog,
//! * deterministic, seeded data generators reproducing the *shape* of the
//!   paper's three benchmarks ([`gen::tpch`], [`gen::job`], [`gen::xuetang`]),
//! * per-column statistics (equi-depth histograms, distinct counts and
//!   most-common values) consumed by the cardinality estimator
//!   ([`stats`]),
//! * value sampling used to build the RL action space ([`sample`]).
//!
//! Everything is deterministic given a seed, which the experiment harness
//! relies on for reproducibility.

pub mod bufpool;
pub mod cursor;
pub mod database;
pub mod dist;
pub mod durable;
pub mod gen;
pub mod heap;
pub mod paged;
pub mod pager;
pub mod sample;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use bufpool::{BufferPool, PoolStats};
pub use cursor::{ColCursor, DbRead, TableRead};
pub use database::Database;
pub use gen::{DatabaseSink, RowSink};
pub use paged::{
    save_database, write_image, PagedDb, PagedDbWriter, PagedTable, DEFAULT_POOL_BYTES,
};
pub use pager::{Pager, StorageError, PAGE_SIZE};
pub use schema::{ColumnDef, ForeignKey, TableSchema};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::{Column, Table};
pub use value::{DataType, Value};
