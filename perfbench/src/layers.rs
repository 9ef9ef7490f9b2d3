//! Per-layer measurement from outside the program: deltas of the metrics
//! it already exports, the per-layer result set, and a timed replay of the
//! network's inference step.

use crate::stats::{delta, family_sum, parse_exposition, ratio};
use crate::{metric, secs_since, Metric};
use rand::rngs::StdRng;
use sqlgen_core::Constraint;
use sqlgen_engine::Estimator;
use sqlgen_fsm::Vocabulary;
use sqlgen_nn::LstmBatchState;
use sqlgen_rl::{run_jobs_batched, ActorNet, BatchScratch, InferActor, Job, JobOutcome, SqlGenEnv};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every exported series and its value, keyed as in `/metrics`.
pub type Snapshot = BTreeMap<String, f64>;

/// Snapshot of every metric the program exports, keyed as in `/metrics`.
pub fn registry() -> Snapshot {
    parse_exposition(&sqlgen_obs::metrics::global().render_text())
}

/// Program counters between two registry snapshots, read by family.
pub struct Counters(BTreeMap<String, f64>);

impl Counters {
    pub fn between(before: &Snapshot, after: &Snapshot) -> Counters {
        Counters(delta(before, after))
    }

    /// Counters between two optional snapshots (traced phases only).
    pub fn span(before: &Option<Snapshot>, after: &Option<Snapshot>) -> Option<Counters> {
        before
            .as_ref()
            .zip(after.as_ref())
            .map(|(a, b)| Counters::between(a, b))
    }

    pub fn get(&self, family: &str) -> f64 {
        family_sum(&self.0, family)
    }

    /// A `*_us` histogram's sum in seconds.
    pub fn secs(&self, family: &str) -> f64 {
        self.get(&format!("{family}_sum")) / 1e6
    }
}

/// Per-layer values of one run: parts summed over units (reported as the
/// mean per unit, so the parts still add up to the mean wall time) and
/// values set once for the whole run.
#[derive(Default)]
pub struct Layers {
    sums: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_insert(0.0) += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Emits every per-layer name, with 0 for the layers this workload
    /// does not exercise.
    pub fn finish(self, units: usize) -> Vec<Metric> {
        crate::PER_LAYER
            .iter()
            .map(|&name| {
                let v = match self.values.get(name) {
                    Some(&v) => v,
                    None => self.sums.get(name).copied().unwrap_or(0.0) / units.max(1) as f64,
                };
                metric(name, v, unit_of(name))
            })
            .collect()
    }
}

fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_ms") || name == "load.late_ms_p99" {
        "ms"
    } else if name.ends_with("per_token") {
        "us/token"
    } else if name.ends_with("_rate") || name.ends_with("_share") {
        "share"
    } else if name.ends_with("occupancy") {
        "lanes"
    } else if name.ends_with("per_query") {
        "episodes/query"
    } else {
        "count"
    }
}

/// Times [`ActorNet::infer_step_batch`] — the LSTM and masked-head step —
/// from the outside, counting one token per active lane.
struct TimedActor<'a> {
    inner: &'a ActorNet,
    secs: Cell<f64>,
    tokens: Cell<u64>,
}

impl InferActor for TimedActor<'_> {
    fn vocab_size(&self) -> usize {
        InferActor::vocab_size(self.inner)
    }

    fn begin_batch(&self, batch: usize) -> LstmBatchState {
        InferActor::begin_batch(self.inner, batch)
    }

    fn infer_step_batch(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        masks: &[bool],
        rngs: &mut [StdRng],
        scratch: &mut BatchScratch,
        actions: &mut [usize],
    ) {
        let t = Instant::now();
        InferActor::infer_step_batch(
            self.inner, prev, active, state, masks, rngs, scratch, actions,
        );
        self.secs.set(self.secs.get() + secs_since(t));
        self.tokens
            .set(self.tokens.get() + active.iter().filter(|&&a| a).count() as u64);
    }
}

/// Microseconds of network inference per generated token, from replaying
/// `jobs` seeded episodes of `actor` through the lane-batched engine.
pub fn nn_step_us_per_token(
    actor: &ActorNet,
    vocab: &Vocabulary,
    estimator: &Estimator,
    constraint: Constraint,
    seed: u64,
    jobs: usize,
    lanes: usize,
) -> f64 {
    let env = SqlGenEnv::new(vocab, estimator, constraint);
    let timed = TimedActor {
        inner: actor,
        secs: Cell::new(0.0),
        tokens: Cell::new(0),
    };
    let batch: Vec<Job> = (0..jobs)
        .map(|j| Job {
            env: &env,
            seed: seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(j as u64),
            deadline: None,
            tag: j as u64,
            trace: None,
        })
        .collect();
    let done = run_jobs_batched(&timed, batch, lanes)
        .into_iter()
        .filter(|(_, o)| matches!(o, JobOutcome::Done(_)))
        .count();
    assert_eq!(done, jobs, "replay jobs have no deadline and always finish");
    ratio(timed.secs.get() * 1e6, timed.tokens.get() as f64)
}
