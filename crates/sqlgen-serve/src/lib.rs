//! `sqlgen-serve`: a query-generation service over the batched GEMM
//! inference engine.
//!
//! The server turns [`sqlgen_core::LearnedSqlGen`]-style generation into a
//! multi-tenant HTTP service (DESIGN.md §11):
//!
//! - [`http`] — hand-rolled, std-only HTTP/1.1 parsing and response
//!   writing with hard limits (no tokio/hyper in this build environment).
//! - [`queue`] — bounded admission queue; overflow becomes `429` +
//!   `Retry-After` instead of unbounded buffering.
//! - [`batcher`] — the pure generation window: request parsing, the
//!   per-database [`Schema`] and [`run_window`], which builds each
//!   request's environment and runs the window through
//!   [`sqlgen_core::generate_window`] — the one seeded pipeline (lockstep
//!   lanes, per-request deadlines, refinement, resampling) that
//!   `LearnedSqlGen::generate_seeded` runs too. Responses are
//!   bitwise-identical to `generate_seeded` and to solo generation for the
//!   same seed (the `serve-equivalence` fuzz family).
//! - [`registry`] — versioned checkpoint registry with atomic hot-swap.
//! - [`cache`] — sharded LRU over rendered response bodies, keyed on the
//!   purity tuple `(model-version, schema, seed, constraint, n)`.
//! - [`shard`] — admission and gather: one bounded queue per shard worker
//!   behind a consistent-hash router on `(schema, model-version)`, window
//!   gathering, and replies; optional CPU pinning.
//! - [`sys`] / [`event_loop`] — raw epoll bindings and the readiness
//!   event loops, the only transport. Both are Linux-only, so off Linux
//!   [`serve`] returns `ErrorKind::Unsupported`.
//! - [`server`] — config, routing (`/generate`, `/healthz`, `/metrics`,
//!   `/models`, `/models/reload`), `/generate` admission and graceful
//!   drain-style shutdown.
//! - [`client`] — minimal client used by tests, the CLI and the
//!   benchmark.

// Off Linux `serve` only reports `Unsupported`, leaving the routing and
// admission code unused.
#![cfg_attr(not(target_os = "linux"), allow(dead_code))]

pub mod batcher;
pub mod cache;
pub mod client;
pub mod event_loop;
pub mod http;
pub mod queue;
pub mod registry;
pub mod server;
pub mod shard;
pub mod sys;

pub use batcher::{
    run_window, GenRequest, Schema, WindowOutcome, WindowRequest, MAX_QUERIES_PER_REQUEST,
};
pub use cache::{CacheKey, ResultCache};
pub use http::{
    parse_buf, read_request, write_response, BufParse, Limits, ParseError, Request, Response,
};
pub use queue::{BoundedQueue, PushError};
pub use registry::{ModelRegistry, ServedModel};
pub use server::{outcome_json, serve, ServeConfig, ServerHandle};
pub use shard::{
    GenTask, RequestOutcome, Responder, ServedQuery, Shard, ShardPool, ShardTask, WindowConfig,
};
