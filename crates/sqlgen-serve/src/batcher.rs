//! The pure half of generation serving: request parsing, the per-database
//! [`Schema`] bundle, and [`run_window`], which runs a gathered window of
//! requests on lockstep GEMM lanes.
//!
//! `run_window` only builds each request's environment; the generation
//! itself — seeded jobs, local-search refinement and the resample
//! schedule — is [`sqlgen_core::generate_window`], the same function
//! `LearnedSqlGen::generate_seeded` calls. Admission, gathering and replies
//! live with the shard workers (`shard.rs`).
//!
//! Because every job re-seeds its lane RNG and zeroes its LSTM lane at
//! assignment, and refinement is deterministic, the response bytes for a
//! request are a pure function of (weights, schema, constraint, seed) —
//! identical no matter which co-tenant requests share the window or how
//! wide the batch is. That is the contract the `serve-equivalence` fuzz
//! family checks.

use crate::registry::ModelRegistry;
use sqlgen_core::{generate_window, Constraint, GenConfig, Metric, Refiner, SeededRequest, Target};
use sqlgen_engine::Estimator;
use sqlgen_fsm::{FsmConfig, Vocabulary};
use sqlgen_obs::TraceHandle;
use sqlgen_rl::{ActorCritic, ActorNet, Episode, InferActor, SqlGenEnv};
use sqlgen_storage::Database;
use std::path::PathBuf;
use std::time::Instant;

/// Upper bound on `n` per request; keeps one request from monopolising
/// windows far beyond `max_batch_jobs`.
pub const MAX_QUERIES_PER_REQUEST: usize = 256;

/// A parsed `/generate` request body.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// Schema (database) to generate against; empty string = the server's
    /// first schema.
    pub schema: String,
    pub constraint: Constraint,
    /// Number of queries to generate.
    pub n: usize,
    /// Base seed; episode `j` runs on `worker_seed(seed, j)`.
    pub seed: u64,
    /// Per-request deadline override in milliseconds.
    pub timeout_ms: Option<u64>,
}

impl GenRequest {
    /// Parses a JSON request body, e.g.
    /// `{"constraint":{"metric":"cardinality","min":1,"max":500},"n":4,"seed":7}`.
    /// Point constraints use `"point"`, ranges use `"min"`/`"max"`.
    pub fn from_json(body: &str) -> Result<GenRequest, String> {
        let v = serde_json::from_str::<serde_json::Value>(body)
            .map_err(|e| format!("invalid JSON body: {e}"))?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_str())
            .unwrap_or("")
            .to_string();
        let n = match v.get("n") {
            None => 1,
            Some(n) => n
                .as_u64()
                .ok_or_else(|| "\"n\" must be a non-negative integer".to_string())?
                as usize,
        };
        if n == 0 || n > MAX_QUERIES_PER_REQUEST {
            return Err(format!("\"n\" must be in 1..={MAX_QUERIES_PER_REQUEST}"));
        }
        let seed = match v.get("seed") {
            None => 0,
            Some(s) => s
                .as_u64()
                .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?,
        };
        let timeout_ms = match v.get("timeout_ms") {
            None => None,
            Some(t) => Some(
                t.as_u64()
                    .ok_or_else(|| "\"timeout_ms\" must be a non-negative integer".to_string())?,
            ),
        };
        let c = v
            .get("constraint")
            .ok_or_else(|| "missing \"constraint\" object".to_string())?;
        let metric = c
            .get("metric")
            .and_then(|m| m.as_str())
            .unwrap_or("cardinality");
        let num = |key: &str| -> Result<Option<f64>, String> {
            match c.get(key) {
                None => Ok(None),
                Some(x) => x
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| format!("constraint \"{key}\" must be a finite number >= 0")),
            }
        };
        let target = match (num("point")?, num("min")?, num("max")?) {
            (Some(p), None, None) => Target::Point(p),
            (None, Some(lo), Some(hi)) => Target::Range(lo, hi),
            _ => {
                return Err(
                    "constraint needs either \"point\" or both \"min\" and \"max\"".to_string(),
                )
            }
        };
        let metric = match metric {
            "cardinality" => Metric::Cardinality,
            "cost" => Metric::Cost,
            other => return Err(format!("unknown metric {other:?} (cardinality|cost)")),
        };
        let constraint = Constraint::checked(metric, target)?;
        Ok(GenRequest {
            schema,
            constraint,
            n,
            seed,
            timeout_ms,
        })
    }
}

/// The generation-side bundle for one database: action space, statistics,
/// FSM limits, model registry, refiner and result cache. Everything a
/// shard worker needs to run a window on this database.
pub struct Schema {
    pub name: String,
    pub vocab: Vocabulary,
    pub estimator: Estimator,
    pub fsm: FsmConfig,
    pub registry: ModelRegistry,
    /// Constraint-miss refinement engine shared by every window on this
    /// schema (deterministic local search + miss cache; DESIGN.md §12).
    pub refiner: Refiner,
    /// Rendered-response LRU keyed on `(model-version, seed, n,
    /// constraint)`; valid because responses are pure functions of that
    /// tuple. Cleared whenever the registry hot-swaps.
    pub cache: crate::cache::ResultCache,
}

impl Schema {
    /// Derives the action space and statistics from `db` exactly as
    /// `LearnedSqlGen::new` does — including the bootstrap policy weights —
    /// so an untrained server is bitwise-equivalent to an untrained
    /// generator with the same `GenConfig`.
    ///
    /// `_queue_cap` is unused: admission is bounded per shard by
    /// `ServeConfig::max_queue`. The parameter stays so existing callers
    /// keep building.
    pub fn build(
        name: &str,
        db: &Database,
        config: &GenConfig,
        model_dir: Option<PathBuf>,
        _queue_cap: usize,
    ) -> Schema {
        let vocab = Vocabulary::build(db, &config.sample);
        let estimator = Estimator::build(db);
        // Every algorithm starts from the same actor; the critic is not
        // served.
        let actor = ActorCritic::reinforce(vocab.size(), config.train.clone()).actor;
        let registry = ModelRegistry::new(
            crate::registry::ServedModel {
                label: "builtin".to_string(),
                version: 0,
                actor,
                quant: None,
            },
            model_dir,
            vocab.size(),
            config.quantize,
        );
        if let Err(e) = registry.refresh() {
            sqlgen_obs::obs_warn!("[serve] schema {name}: no loadable checkpoint yet: {e}");
        }
        Schema {
            name: name.to_string(),
            vocab,
            estimator,
            fsm: config.fsm.clone(),
            registry,
            refiner: Refiner::new(config.refine.clone()),
            cache: crate::cache::ResultCache::new(64 * 1024 * 1024, 8, name),
        }
    }

    /// Installs trained weights from a generator (in-process publish path,
    /// used by `sqlgen serve --train` and tests).
    pub fn publish_actor(&self, label: &str, version: u64, actor: ActorNet) {
        assert_eq!(
            actor.vocab_size,
            self.vocab.size(),
            "published actor must match the schema vocabulary"
        );
        self.registry.publish(crate::registry::ServedModel {
            label: label.to_string(),
            version,
            actor,
            quant: None, // built by the registry when it quantizes
        });
    }
}

/// One request's slice of a window, decoupled from the task plumbing so
/// `run_window` stays pure (the fuzz harness calls it directly).
#[derive(Debug, Clone)]
pub struct WindowRequest {
    pub constraint: Constraint,
    pub n: usize,
    pub seed: u64,
    pub deadline: Option<Instant>,
    /// Trace handle whose parent is this request's `lane_exec` span; every
    /// job spawned for this request attributes its lane time there.
    pub trace: Option<TraceHandle>,
}

impl From<&GenRequest> for WindowRequest {
    fn from(req: &GenRequest) -> WindowRequest {
        WindowRequest {
            constraint: req.constraint,
            n: req.n,
            seed: req.seed,
            deadline: None,
            trace: None,
        }
    }
}

/// Episodes for one window request, in episode order.
pub struct WindowOutcome {
    pub episodes: Vec<Episode>,
    pub expired: usize,
}

/// Runs a gathered window on `lanes` lockstep lanes: builds each
/// request's environment and hands the window to
/// [`sqlgen_core::generate_window`], the seeded pipeline
/// `LearnedSqlGen::generate_seeded` also runs. Pure: the output for
/// request `i` depends only on (actor, vocab, estimator, fsm, refiner
/// config, `reqs[i]`) — not on `lanes` or on the other requests in the
/// window. Generic over the policy so windows run unchanged on the f32
/// actor or its int8 quantized snapshot.
pub fn run_window<A: InferActor>(
    actor: &A,
    vocab: &Vocabulary,
    estimator: &Estimator,
    fsm: &FsmConfig,
    reqs: &[WindowRequest],
    lanes: usize,
    refiner: Option<&Refiner>,
) -> Vec<WindowOutcome> {
    let envs: Vec<SqlGenEnv<'_>> = reqs
        .iter()
        .map(|r| SqlGenEnv::new(vocab, estimator, r.constraint).with_fsm_config(fsm.clone()))
        .collect();
    let seeded: Vec<SeededRequest> = reqs
        .iter()
        .zip(&envs)
        .map(|(r, env)| SeededRequest {
            env,
            n: r.n,
            seed: r.seed,
            deadline: r.deadline,
            trace: r.trace.clone(),
        })
        .collect();
    generate_window(actor, &seeded, lanes, refiner)
        .into_iter()
        .map(|slots| {
            let n = slots.len();
            let episodes: Vec<Episode> = slots.into_iter().flatten().collect();
            WindowOutcome {
                expired: n - episodes.len(),
                episodes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlgen_engine::render;
    use sqlgen_storage::gen::tpch_database;

    fn fixture() -> (Database, GenConfig) {
        (tpch_database(0.05, 2), GenConfig::fast().with_seed(11))
    }

    #[test]
    fn parses_point_and_range_requests() {
        let r = GenRequest::from_json(
            r#"{"schema":"tpch","constraint":{"metric":"cost","point":100},"n":4,"seed":9,"timeout_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.schema, "tpch");
        assert_eq!(r.constraint, Constraint::cost_point(100.0));
        assert_eq!((r.n, r.seed, r.timeout_ms), (4, 9, Some(250)));
        let r = GenRequest::from_json(r#"{"constraint":{"min":1,"max":500}}"#).unwrap();
        assert_eq!(r.constraint, Constraint::cardinality_range(1.0, 500.0));
        assert_eq!((r.n, r.seed, r.timeout_ms), (1, 0, None));
    }

    #[test]
    fn rejects_malformed_requests_with_messages() {
        for (body, needle) in [
            ("{", "invalid JSON"),
            (r#"{"n":1}"#, "constraint"),
            (r#"{"constraint":{"metric":"latency","point":1}}"#, "metric"),
            (r#"{"constraint":{"min":9,"max":1}}"#, "min > max"),
            (r#"{"constraint":{"point":-3}}"#, "finite number"),
            (r#"{"constraint":{"min":1}}"#, "point"),
            (r#"{"constraint":{"point":1},"n":0}"#, "\"n\""),
            (r#"{"constraint":{"point":1},"n":100000}"#, "\"n\""),
            (r#"{"constraint":{"point":1},"seed":-4}"#, "seed"),
        ] {
            let err = GenRequest::from_json(body).unwrap_err();
            assert!(err.contains(needle), "{body} → {err}");
        }
    }

    #[test]
    fn window_results_are_independent_of_co_tenants_and_lanes() {
        let (db, config) = fixture();
        let schema = Schema::build("t", &db, &config, None, 8);
        let model = schema.registry.current();
        let a = WindowRequest {
            constraint: Constraint::cardinality_range(1.0, 500.0),
            n: 3,
            seed: 41,
            deadline: None,
            trace: None,
        };
        let b = WindowRequest {
            constraint: Constraint::cardinality_point(50.0),
            n: 2,
            seed: 99,
            deadline: None,
            trace: None,
        };
        let solo = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&a),
            1,
            None,
        );
        let coalesced = run_window(
            &model.actor,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            &[b.clone(), a.clone()],
            8,
            None,
        );
        let solo_eps = &solo[0].episodes;
        let shared_eps = &coalesced[1].episodes;
        assert_eq!(solo_eps.len(), 3);
        assert_eq!(shared_eps.len(), 3);
        for (x, y) in solo_eps.iter().zip(shared_eps) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
        assert_eq!(coalesced[0].episodes.len(), 2);
    }

    /// With refinement (and its resample fallback) engaged, a request's
    /// refined response must still be independent of lane width and
    /// co-tenant requests — the serving purity contract — and equal to
    /// what an untrained `LearnedSqlGen::generate_seeded` returns for the
    /// same `(config, constraint, n, seed)`. The second config gives local
    /// search no budget, so only resampling can repair a miss.
    #[test]
    fn refined_windows_remain_pure_functions_of_the_request() {
        let (db, base) = fixture();
        let mut no_search = base.clone();
        no_search.refine.max_evals = 0;
        for config in [base, no_search] {
            let schema = Schema::build("t", &db, &config, None, 8);
            assert!(schema.refiner.enabled());
            let model = schema.registry.current();
            // Tight band → the untrained policy misses often → refinement runs.
            let a = WindowRequest {
                constraint: Constraint::cardinality_range(40.0, 60.0),
                n: 4,
                seed: 7,
                deadline: None,
                trace: None,
            };
            let b = WindowRequest {
                constraint: Constraint::cardinality_point(25.0),
                n: 2,
                seed: 3,
                deadline: None,
                trace: None,
            };
            let window = |reqs: &[WindowRequest], lanes: usize, refiner: Option<&Refiner>| {
                run_window(
                    &model.actor,
                    &schema.vocab,
                    &schema.estimator,
                    &schema.fsm,
                    reqs,
                    lanes,
                    refiner,
                )
            };
            let solo = window(std::slice::from_ref(&a), 1, Some(&schema.refiner));
            let coalesced = window(&[b, a.clone()], 8, Some(&schema.refiner));
            assert_eq!(solo[0].episodes.len(), 4);
            assert_eq!(coalesced[1].episodes.len(), 4);
            for (x, y) in solo[0].episodes.iter().zip(&coalesced[1].episodes) {
                assert_eq!(render(&x.statement), render(&y.statement));
                assert_eq!(x.measured.to_bits(), y.measured.to_bits());
                assert_eq!(x.satisfied, y.satisfied);
            }

            let mut gen = sqlgen_core::LearnedSqlGen::new(&db, a.constraint, config.clone());
            for width in [1, 8] {
                gen.set_batch_size(width);
                let seeded = gen.generate_seeded(a.n, a.seed);
                assert_eq!(seeded.len(), 4, "width {width}");
                for (q, ep) in seeded.iter().zip(&solo[0].episodes) {
                    assert_eq!(q.sql, render(&ep.statement), "width {width}");
                    assert_eq!(q.measured.to_bits(), ep.measured.to_bits(), "width {width}");
                    assert_eq!(q.satisfied, ep.satisfied, "width {width}");
                }
            }

            if config.refine.max_evals == 0 {
                let raw = window(std::slice::from_ref(&a), 1, None);
                let repaired = raw[0]
                    .episodes
                    .iter()
                    .zip(&solo[0].episodes)
                    .filter(|(r, s)| !r.satisfied && s.satisfied)
                    .count();
                assert!(repaired > 0, "no raw miss was repaired by resampling");
            }
        }
    }

    #[test]
    fn quantized_schema_windows_run_on_the_int8_snapshot() {
        let (db, config) = fixture();
        let schema = Schema::build("t", &db, &config.with_quantize(true), None, 8);
        assert!(schema.registry.quantized());
        let model = schema.registry.current();
        let q = model.quant.as_ref().expect("quantized registry");
        let req = WindowRequest {
            constraint: Constraint::cardinality_range(1.0, 500.0),
            n: 3,
            seed: 41,
            deadline: None,
            trace: None,
        };
        let narrow = run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&req),
            1,
            Some(&schema.refiner),
        );
        let wide = run_window(
            q,
            &schema.vocab,
            &schema.estimator,
            &schema.fsm,
            std::slice::from_ref(&req),
            8,
            Some(&schema.refiner),
        );
        assert_eq!(narrow[0].episodes.len(), 3);
        // The purity contract holds on the int8 path too: results are
        // independent of the lane width.
        for (x, y) in narrow[0].episodes.iter().zip(&wide[0].episodes) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.measured.to_bits(), y.measured.to_bits());
        }
    }
}
