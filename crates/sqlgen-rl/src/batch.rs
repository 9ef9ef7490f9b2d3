//! Batched lockstep rollouts with continuous lane refill — the one
//! inference engine every generation path runs through.
//!
//! Single-stream inference re-reads the full weight matrices once per token
//! (memory-bandwidth bound). The batched engine instead advances `B`
//! independent rollouts ("lanes") one token per lockstep iteration: each
//! weight block is read once per iteration and amortized across all lanes
//! via the matrix-matrix kernels in `sqlgen-nn`, raising arithmetic
//! intensity even on one core. Width 1 is simply a one-lane engine.
//!
//! There is one lockstep loop. It runs a fixed list of [`Job`]s: each lane
//! owns one job's FSM [`GenState`] and [`RewardShaper`], and when the job
//! ends (`EOF`, or its deadline passed) the lane immediately restarts on
//! the next queued job — **continuous refill** — so short queries never
//! stall the batch. Once the queue is empty, finished lanes are
//! **compacted away** ([`Vec::swap_remove`]-style) and the drain tail runs
//! at the shrinking live width. That is legal because each lane's forward
//! math reads only its own slot (the batched kernels are bitwise position-
//! and width-independent per lane) and a lane's RNG stream travels with
//! its slot.
//!
//! The callers differ only in where a lane's RNG stream comes from:
//!
//! * [`BatchRollout::collect`] / [`BatchRollout::collect_tagged`] (training
//!   and unseeded generation) run lane `l` on the caller's stream
//!   `rngs[l]` across every episode the lane produces and hand it back
//!   advanced. Every lane's token stream is then bit-identical to a serial
//!   [`run_episode_infer`](crate::episode::run_episode_infer) loop over
//!   that stream, and for fixed streams and `n` the episodes are a pure
//!   function of the policy weights. Trainers pick the streams with
//!   [`with_lane_rngs`], the single place where width 1 differs from wider
//!   engines.
//! * [`run_jobs_batched`] (seeded generation and serving) reseeds a lane
//!   from [`Job::seed`] and zeroes it at every assignment, so each job's
//!   episode is a pure function of `(weights, env, seed)` — independent of
//!   the width, of its lane and of its co-tenant jobs.

use crate::env::{RewardShaper, SqlGenEnv};
use crate::episode::{finish_episode, Episode};
use crate::nets::{BatchScratch, InferActor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlgen_fsm::GenState;
use sqlgen_nn::LstmBatchState;
use sqlgen_obs::TraceHandle;
use std::time::Instant;

/// The RNG seed for lane `lane` of a round drawn with base seed `base`
/// (also the per-job seed schedule of seeded generation and serving).
#[inline]
pub fn worker_seed(base: u64, lane: usize) -> u64 {
    base ^ lane as u64
}

/// Fresh RNG streams for `lanes` lanes seeded [`worker_seed`]`(base, l)`.
pub fn lane_rngs(base: u64, lanes: usize) -> Vec<StdRng> {
    (0..lanes)
        .map(|l| StdRng::seed_from_u64(worker_seed(base, l)))
        .collect()
}

/// Runs `roll` on the lane RNGs of one rollout round of `width` lanes for
/// an engine configured with `lanes` lanes. This is the width-1 seeding
/// rule:
///
/// * `lanes <= 1`: the caller's own stream `rng` is lane 0 and is handed
///   back advanced, so a width-1 engine consumes exactly the draws of a
///   one-episode-at-a-time loop (the golden fixtures pin this);
/// * `lanes > 1`: one `base` is drawn from `rng` and lane `l` runs on
///   [`worker_seed`]`(base, l)` — reproducible per `(seed, lanes)`.
pub fn with_lane_rngs<T>(
    rng: &mut StdRng,
    lanes: usize,
    width: usize,
    roll: impl FnOnce(&mut [StdRng]) -> T,
) -> T {
    if lanes <= 1 {
        roll(std::slice::from_mut(rng))
    } else {
        let base: u64 = rng.random();
        roll(&mut lane_rngs(base, width))
    }
}

/// Elapsed microseconds since `t0`.
fn us_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64 / 1_000.0
}

/// One generation job for the lockstep engine.
pub struct Job<'e, 'v: 'e> {
    /// Environment the episode rolls out in. Jobs of one run may use
    /// different environments (constraints), but every environment must
    /// expose the same action space as the actor vocabulary.
    pub env: &'e SqlGenEnv<'v>,
    /// Seed for this job's private RNG stream under [`run_jobs_batched`]
    /// (unused by [`BatchRollout::collect`], whose lanes carry the
    /// caller's streams).
    pub seed: u64,
    /// Absolute deadline; once passed the job aborts mid-generation and is
    /// reported as [`JobOutcome::Expired`].
    pub deadline: Option<Instant>,
    /// Caller-chosen id handed back with the outcome.
    pub tag: u64,
    /// Request trace to attribute this job's lane time to: an `episode`
    /// span per job plus accumulated `estimator` and `refill` phases.
    /// Untraced jobs (`None`) pay one branch per token and nothing else.
    pub trace: Option<TraceHandle>,
}

/// Terminal state of one [`Job`].
pub enum JobOutcome {
    Done(Box<Episode>),
    /// The deadline passed before the episode finished.
    Expired,
}

/// Where each lane's RNG stream comes from — the one rule in which the
/// engine's callers differ.
enum LaneRngs<'r> {
    /// This many lanes; each is reseeded from [`Job::seed`] whenever a job
    /// is assigned to it.
    Reseed(usize),
    /// One lane per stream: lane `l` runs every job it is assigned on
    /// `rngs[l]`, which is handed back where the lane's stream stopped.
    Carry(&'r mut [StdRng]),
}

/// One in-flight job owned by a lane.
struct LaneRun<'e, 'v: 'e> {
    env: &'e SqlGenEnv<'v>,
    state: GenState<'v>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    deadline: Option<Instant>,
    tag: u64,
    trace: Option<TraceHandle>,
    /// When this job was assigned to its lane (traced jobs only).
    assigned: Option<Instant>,
    /// Accumulated `env.step` time — estimator-dominated (the shaped
    /// reward's cardinality/cost probes), flushed to the trace once at
    /// completion so the hot loop never touches the trace mutex.
    est_us: f64,
}

impl<'e, 'v: 'e> LaneRun<'e, 'v> {
    /// Starts `job` on physical slot `p`: zeroes the LSTM lane, feeds BOS
    /// next, and — when `reseed` — restarts the slot's RNG stream from
    /// [`Job::seed`].
    fn start(
        job: Job<'e, 'v>,
        p: usize,
        reseed: bool,
        state: &mut LstmBatchState,
        prev: &mut [Option<usize>],
        rngs: &mut [StdRng],
    ) -> Self {
        let t0 = job.trace.is_some().then(Instant::now);
        state.reset_lane(p);
        prev[p] = None;
        if reseed {
            rngs[p] = StdRng::seed_from_u64(job.seed);
        }
        let run = LaneRun {
            state: job.env.reset(),
            env: job.env,
            shaper: RewardShaper::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            deadline: job.deadline,
            tag: job.tag,
            trace: job.trace,
            assigned: t0,
            est_us: 0.0,
        };
        if let (Some(t0), Some(handle)) = (t0, &run.trace) {
            // Lane reset + reseed + env reset on behalf of the job.
            handle.accum("refill", us_since(t0));
        }
        run
    }

    /// Flushes this job's trace attribution: the `episode` wall span plus
    /// the accumulated `estimator` time and token count.
    fn flush_trace(&self, tokens: usize) {
        let Some(handle) = &self.trace else {
            return;
        };
        let now = Instant::now();
        if let Some(assigned) = self.assigned {
            handle.span_between("episode", assigned, now);
        }
        handle.accum("estimator", self.est_us);
        handle.trace.annotate_add("tokens", tokens as f64);
    }
}

/// Reusable buffers for batched lockstep generation. One instance can
/// serve many calls; buffers are resized (not reallocated) when the batch
/// width or vocabulary stays the same.
#[derive(Default)]
pub struct BatchRollout {
    state: LstmBatchState,
    scratch: BatchScratch,
    /// Row-major `[batch × vocab]` FSM mask block.
    masks: Vec<bool>,
    prev: Vec<Option<usize>>,
    active: Vec<bool>,
    actions: Vec<usize>,
    rngs: Vec<StdRng>,
}

impl BatchRollout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects `n` episodes with one lockstep lane per entry of `rngs`
    /// (at most `n` of them run), returning `(job, lane, episode)` tuples
    /// in completion order. `job` is the episode's index in the
    /// deterministic refill queue and `lane` the lane that produced it —
    /// enough to replay any lane serially. Each `rngs[l]` is left where
    /// lane `l`'s stream stopped.
    pub fn collect_tagged<A: InferActor + ?Sized>(
        &mut self,
        actor: &A,
        env: &SqlGenEnv,
        n: usize,
        rngs: &mut [StdRng],
    ) -> Vec<(usize, usize, Episode)> {
        let jobs = (0..n)
            .map(|j| Job {
                env,
                seed: 0,
                deadline: None,
                tag: j as u64,
                trace: None,
            })
            .collect();
        self.run(actor, jobs, LaneRngs::Carry(rngs))
            .into_iter()
            .map(|(job, lane, outcome)| match outcome {
                JobOutcome::Done(ep) => (job as usize, lane, *ep),
                JobOutcome::Expired => unreachable!("a job without a deadline never expires"),
            })
            .collect()
    }

    /// Collects `n` episodes with one lockstep lane per entry of `rngs`,
    /// ordered by job index (the stable order a serial loop would produce
    /// them in).
    pub fn collect<A: InferActor + ?Sized>(
        &mut self,
        actor: &A,
        env: &SqlGenEnv,
        n: usize,
        rngs: &mut [StdRng],
    ) -> Vec<Episode> {
        let mut tagged = self.collect_tagged(actor, env, n, rngs);
        tagged.sort_by_key(|(job, _, _)| *job);
        tagged.into_iter().map(|(_, _, ep)| ep).collect()
    }

    /// The lockstep loop: runs `jobs` in queue order and returns
    /// `(tag, lane, outcome)` in completion order, where `lane` is the
    /// logical lane the job ran on. Single-threaded lockstep has no
    /// scheduling freedom, so the order is deterministic for fixed jobs.
    fn run<'e, 'v: 'e, A: InferActor + ?Sized>(
        &mut self,
        actor: &A,
        jobs: Vec<Job<'e, 'v>>,
        mut rng_rule: LaneRngs<'_>,
    ) -> Vec<(u64, usize, JobOutcome)> {
        let (width, reseed) = match &rng_rule {
            LaneRngs::Reseed(lanes) => ((*lanes).max(1), true),
            LaneRngs::Carry(rngs) => (rngs.len(), false),
        };
        let b = width.min(jobs.len());
        if b == 0 {
            return Vec::new();
        }
        let vocab = actor.vocab_size();
        for job in &jobs {
            assert_eq!(
                job.env.action_space(),
                vocab,
                "job env action space must match the actor vocabulary"
            );
        }
        let has_deadlines = jobs.iter().any(|job| job.deadline.is_some());
        self.state = actor.begin_batch(b);
        self.masks.clear();
        self.masks.resize(b * vocab, false);
        self.prev.clear();
        self.prev.resize(b, None);
        self.active.clear();
        self.active.resize(b, true);
        self.actions.clear();
        self.actions.resize(b, 0);
        self.rngs.clear();
        match &rng_rule {
            // Placeholder streams: every assignment reseeds its lane first.
            LaneRngs::Reseed(_) => self.rngs.resize(b, StdRng::seed_from_u64(0)),
            LaneRngs::Carry(rngs) => self.rngs.extend_from_slice(&rngs[..b]),
        }

        let mut out = Vec::with_capacity(jobs.len());
        let mut queue = jobs.into_iter();
        // Physical slot `p` hosts the lane originally numbered `order[p]`:
        // the lane reported with each outcome and, under `Carry`, the lane
        // whose stream slot `p` carries.
        let mut order: Vec<usize> = (0..b).collect();
        let mut lanes: Vec<LaneRun> = Vec::with_capacity(b);
        for p in 0..b {
            let job = queue.next().expect("b <= jobs");
            lanes.push(LaneRun::start(
                job,
                p,
                reseed,
                &mut self.state,
                &mut self.prev,
                &mut self.rngs,
            ));
        }
        // Slots whose job ended this iteration, in slot order, and the
        // slots left without a job once the queue is empty.
        let mut ended: Vec<(usize, JobOutcome)> = Vec::new();
        let mut drained: Vec<usize> = Vec::new();

        loop {
            for (p, outcome) in ended.drain(..) {
                out.push((lanes[p].tag, order[p], outcome));
                match queue.next() {
                    Some(job) => {
                        lanes[p] = LaneRun::start(
                            job,
                            p,
                            reseed,
                            &mut self.state,
                            &mut self.prev,
                            &mut self.rngs,
                        )
                    }
                    None => drained.push(p),
                }
            }
            // Compact drained slots out, highest physical index first so
            // each swap_remove only moves a still-live slot.
            for &p in drained.iter().rev() {
                lanes.swap_remove(p);
                self.state.swap_remove_lane(p);
                let rng = self.rngs.swap_remove(p);
                if let LaneRngs::Carry(rngs) = &mut rng_rule {
                    rngs[order[p]] = rng;
                }
                self.prev.swap_remove(p);
                self.actions.swap_remove(p);
                order.swap_remove(p);
            }
            drained.clear();
            let w = lanes.len();
            self.active.truncate(w);
            if w == 0 {
                break;
            }

            if has_deadlines {
                // Deadline sweep before spending another lockstep
                // iteration; expired jobs are retired (and their slots
                // refilled) before any lane steps.
                let now = Instant::now();
                for (p, run) in lanes.iter().enumerate() {
                    if run.deadline.is_some_and(|d| now >= d) {
                        run.flush_trace(run.actions.len());
                        ended.push((p, JobOutcome::Expired));
                    }
                }
                if !ended.is_empty() {
                    continue;
                }
            }

            let start = sqlgen_obs::timing_enabled().then(Instant::now);
            for (p, run) in lanes.iter().enumerate() {
                run.state.mask_into_row(&mut self.masks, p);
            }
            actor.infer_step_batch(
                &self.prev,
                &self.active,
                &mut self.state,
                &self.masks[..w * vocab],
                &mut self.rngs,
                &mut self.scratch,
                &mut self.actions,
            );
            for (p, run) in lanes.iter_mut().enumerate() {
                let action = self.actions[p];
                // Traced jobs time each env.step locally (estimator-
                // dominated: the shaped reward's cardinality/cost probes);
                // untraced jobs pay one branch, no clock read.
                let step_t0 = run.trace.is_some().then(Instant::now);
                let (reward, done) = run.env.step(&mut run.state, action, &mut run.shaper);
                if let Some(t0) = step_t0 {
                    run.est_us += us_since(t0);
                }
                self.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                if done {
                    let fin_t0 = run.trace.is_some().then(Instant::now);
                    let actions = std::mem::take(&mut run.actions);
                    let rewards = std::mem::take(&mut run.rewards);
                    let ep = finish_episode(run.env, &run.state, actions, rewards);
                    if let Some(t0) = fin_t0 {
                        // finish_episode re-measures the final query; that
                        // probe is estimator time too.
                        run.est_us += us_since(t0);
                    }
                    run.flush_trace(ep.actions.len());
                    ended.push((p, JobOutcome::Done(Box::new(ep))));
                }
            }
            sqlgen_obs::obs_record!("rl.batch.occupancy", w as f64);
            if let Some(start) = start {
                // One histogram sample per emitted token (matching the
                // serial path's count contract) at the amortized cost.
                let us = us_since(start) / w as f64;
                for _ in 0..w {
                    sqlgen_obs::obs_record!("rl.step.latency_us", us);
                }
            }
        }
        out
    }
}

/// Runs a batch of seeded jobs on up to `lanes` lockstep lanes and returns
/// `(tag, outcome)` pairs in completion order. Every assignment zeroes the
/// lane and reseeds its RNG from [`Job::seed`], so each job's episode is a
/// pure function of `(weights, env, seed)` — the contract a server needs to
/// coalesce unrelated requests without perturbing any of them.
pub fn run_jobs_batched<'e, 'v: 'e, A: InferActor + ?Sized>(
    actor: &A,
    jobs: Vec<Job<'e, 'v>>,
    lanes: usize,
) -> Vec<(u64, JobOutcome)> {
    BatchRollout::new()
        .run(actor, jobs, LaneRngs::Reseed(lanes))
        .into_iter()
        .map(|(tag, _, outcome)| (tag, outcome))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use crate::episode::{run_episode_infer, InferRollout};
    use crate::nets::{ActorNet, NetConfig};
    use sqlgen_engine::Estimator;
    use sqlgen_fsm::Vocabulary;
    use sqlgen_storage::gen::tpch_database;
    use sqlgen_storage::sample::SampleConfig;

    fn setup() -> (sqlgen_storage::Database, Vocabulary) {
        let db = tpch_database(0.1, 2);
        let vocab = Vocabulary::build(
            &db,
            &SampleConfig {
                k: 8,
                ..Default::default()
            },
        );
        (db, vocab)
    }

    fn actor_for(vocab: &Vocabulary) -> ActorNet {
        ActorNet::actor(
            vocab.size(),
            &NetConfig {
                embed_dim: 8,
                hidden: 8,
                layers: 1,
                dropout: 0.0,
            },
            1,
        )
    }

    /// Every lane's token stream must equal a serial `run_episode_infer`
    /// loop over that lane's RNG — including across refills — and each
    /// lane's stream must come back to the caller exactly where the serial
    /// loop leaves it (the width-1 trainer contract).
    #[test]
    fn lanes_match_serial_runs_bitwise() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        let base = 0xfeed;
        for &batch in &[1usize, 3, 4] {
            let n = batch * 2 + 1; // forces refill on at least one lane
            let mut rngs = lane_rngs(base, batch);
            let tagged = BatchRollout::new().collect_tagged(&actor, &env, n, &mut rngs);
            assert_eq!(tagged.len(), n);
            for (lane, lane_rng) in rngs.iter_mut().enumerate() {
                let mut lane_eps: Vec<_> = tagged.iter().filter(|(_, l, _)| *l == lane).collect();
                lane_eps.sort_by_key(|(job, _, _)| *job);
                let mut rng = StdRng::seed_from_u64(worker_seed(base, lane));
                let mut ro = InferRollout::new();
                for (_, _, ep) in lane_eps {
                    let serial = run_episode_infer(&actor, &env, &mut rng, &mut ro);
                    assert_eq!(ep.actions, serial.actions, "lane {lane} batch {batch}");
                    assert_eq!(ep.rewards, serial.rewards, "lane {lane} batch {batch}");
                }
                assert_eq!(
                    lane_rng.random::<u64>(),
                    rng.random::<u64>(),
                    "lane {lane} batch {batch}: stream not handed back"
                );
            }
        }
        // No jobs: no lane runs and no stream advances.
        let mut rngs = lane_rngs(base, 2);
        assert!(BatchRollout::new()
            .collect_tagged(&actor, &env, 0, &mut rngs)
            .is_empty());
        assert_eq!(
            rngs[0].random::<u64>(),
            StdRng::seed_from_u64(worker_seed(base, 0)).random::<u64>()
        );
    }

    /// A job's episode must equal a serial `run_episode_infer` with the
    /// job's own seed — at every batch width, regardless of co-tenant jobs
    /// or which constraint each job carries.
    #[test]
    fn jobs_match_serial_runs_at_any_batch_width() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env_a = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let env_b = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_point(50.0));
        let actor = actor_for(&vocab);
        let seeds: Vec<u64> = (0..7).map(|i| 0x1000 + 7 * i).collect();

        // Serial references: one fresh RNG per seed, env alternating a/b.
        let mut serial = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let env = if i.is_multiple_of(2) { &env_a } else { &env_b };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ro = InferRollout::new();
            serial.push(run_episode_infer(&actor, env, &mut rng, &mut ro));
        }

        for &lanes in &[1usize, 3, 8] {
            let jobs: Vec<Job> = seeds
                .iter()
                .enumerate()
                .map(|(i, &seed)| Job {
                    env: if i % 2 == 0 { &env_a } else { &env_b },
                    seed,
                    deadline: None,
                    trace: None,
                    tag: i as u64,
                })
                .collect();
            let out = run_jobs_batched(&actor, jobs, lanes);
            assert_eq!(out.len(), seeds.len());
            for (tag, outcome) in out {
                let JobOutcome::Done(ep) = outcome else {
                    panic!("job {tag} expired without a deadline");
                };
                let want = &serial[tag as usize];
                assert_eq!(ep.actions, want.actions, "job {tag} lanes {lanes}");
                assert_eq!(ep.rewards, want.rewards, "job {tag} lanes {lanes}");
            }
        }
    }

    /// Jobs whose deadline has passed are reported `Expired` (aborting
    /// mid-generation) while co-tenant jobs without deadlines complete
    /// bit-exactly.
    #[test]
    fn deadline_expiry_aborts_without_perturbing_neighbors() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);

        let mut rng = StdRng::seed_from_u64(0x77);
        let mut ro = InferRollout::new();
        let want = run_episode_infer(&actor, &env, &mut rng, &mut ro);

        let past = Instant::now() - std::time::Duration::from_millis(1);
        let jobs = vec![
            Job {
                env: &env,
                seed: 0x77,
                deadline: None,
                tag: 0,
                trace: None,
            },
            Job {
                env: &env,
                seed: 0x88,
                deadline: Some(past),
                tag: 1,
                trace: None,
            },
            Job {
                env: &env,
                seed: 0x99,
                deadline: Some(past),
                tag: 2,
                trace: None,
            },
        ];
        let out = run_jobs_batched(&actor, jobs, 3);
        assert_eq!(out.len(), 3);
        let mut done = 0;
        let mut expired = 0;
        for (tag, outcome) in out {
            match outcome {
                JobOutcome::Done(ep) => {
                    done += 1;
                    assert_eq!(tag, 0);
                    assert_eq!(ep.actions, want.actions);
                    assert_eq!(ep.rewards, want.rewards);
                }
                JobOutcome::Expired => {
                    expired += 1;
                    assert!(tag == 1 || tag == 2);
                }
            }
        }
        assert_eq!((done, expired), (1, 2));
    }

    /// After an EOS → refill, the refilled lane must carry its own job's
    /// constraint target, a fresh FSM state, and untainted estimator-cache
    /// keying: every episode from a refilled slot (job index ≥ lane count)
    /// must be bit-identical — token stream, rewards, measured value,
    /// satisfied flag, rendered SQL — to a fresh serial run of the same
    /// seed against the same constraint with its own private cache, even
    /// though the batched run shares one estimator cache across jobs with
    /// *different* constraints (a keying bug would surface as a measured
    /// or reward drift here).
    #[test]
    fn refilled_lanes_match_fresh_serial_runs_with_caches() {
        use crate::cache::EstimatorCache;
        use sqlgen_engine::render;
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let shared = EstimatorCache::new(256);
        let env_a = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0))
            .with_cache(&shared);
        let env_b = SqlGenEnv::new(&vocab, &est, Constraint::cost_point(50.0)).with_cache(&shared);
        let actor = actor_for(&vocab);
        let lanes = 2usize;
        let seeds: Vec<u64> = (0..6).map(|i| 0xBEE5 + 13 * i).collect();

        let jobs: Vec<Job> = seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| Job {
                env: if i % 2 == 0 { &env_a } else { &env_b },
                seed,
                deadline: None,
                trace: None,
                tag: i as u64,
            })
            .collect();
        let out = run_jobs_batched(&actor, jobs, lanes);
        assert_eq!(out.len(), seeds.len());

        let mut refilled = 0;
        for (tag, outcome) in out {
            let JobOutcome::Done(ep) = outcome else {
                panic!("job {tag} expired without a deadline");
            };
            let i = tag as usize;
            if i >= lanes {
                refilled += 1;
            }
            let solo_cache = EstimatorCache::new(256);
            let env = if i.is_multiple_of(2) {
                SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0))
            } else {
                SqlGenEnv::new(&vocab, &est, Constraint::cost_point(50.0))
            }
            .with_cache(&solo_cache);
            let mut rng = StdRng::seed_from_u64(seeds[i]);
            let mut ro = InferRollout::new();
            let want = run_episode_infer(&actor, &env, &mut rng, &mut ro);
            assert_eq!(ep.actions, want.actions, "job {tag}: token stream drifted");
            assert_eq!(ep.rewards, want.rewards, "job {tag}: reward drifted");
            assert_eq!(
                ep.measured.to_bits(),
                want.measured.to_bits(),
                "job {tag}: estimator measurement drifted"
            );
            assert_eq!(ep.satisfied, want.satisfied, "job {tag}: satisfied drifted");
            assert_eq!(
                render(&ep.statement),
                render(&want.statement),
                "job {tag}: statement drifted"
            );
        }
        assert_eq!(
            refilled,
            seeds.len() - lanes,
            "expected every job past the initial lane fill to run in a refilled slot"
        );
    }

    /// Fixed (seed, batch) must reproduce run-to-run, and `collect` must
    /// order episodes by job index.
    #[test]
    fn collection_is_reproducible_and_job_ordered() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        let a = BatchRollout::new().collect(&actor, &env, 7, &mut lane_rngs(0xabc, 4));
        let b = BatchRollout::new().collect(&actor, &env, 7, &mut lane_rngs(0xabc, 4));
        assert_eq!(a.len(), 7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.actions, y.actions);
            assert_eq!(x.rewards, y.rewards);
        }
        let tagged = BatchRollout::new().collect_tagged(&actor, &env, 7, &mut lane_rngs(0xabc, 4));
        let jobs: Vec<usize> = {
            let mut t: Vec<usize> = tagged.iter().map(|(j, _, _)| *j).collect();
            t.sort_unstable();
            t
        };
        assert_eq!(jobs, (0..7).collect::<Vec<_>>());
    }
}
