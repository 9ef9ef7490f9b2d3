//! Batched lockstep rollout collection with continuous lane refill — the
//! one inference engine every generation path runs through.
//!
//! Single-stream inference re-reads the full weight matrices once per token
//! (memory-bandwidth bound). The batched engine instead advances `B`
//! independent rollouts ("lanes") one token per lockstep iteration: each
//! weight block is read once per iteration and amortized across all lanes
//! via the matrix-matrix kernels in `sqlgen-nn`, raising arithmetic
//! intensity even on one core. Width 1 is simply a one-lane engine.
//!
//! Lane `l` owns its FSM [`GenState`], its [`RewardShaper`], and the RNG
//! stream `rngs[l]` the caller hands in (and gets back, advanced). When a
//! lane emits `EOF` its finished query is flushed and the lane immediately
//! restarts on the next pending job — **continuous refill** — so short
//! queries never stall the batch. A refilled lane keeps its RNG stream
//! running, which yields the determinism contract:
//!
//! * every lane's token stream is bit-identical to a serial
//!   [`run_episode_infer`](crate::episode::run_episode_infer) loop over
//!   that lane's RNG (the batched kernels accumulate in the same order as
//!   their serial counterparts, and inactive lanes draw no RNG);
//! * for fixed lane RNGs and `n` the collected episodes are a pure
//!   function of the policy weights — single-threaded lockstep has no
//!   scheduling freedom — so runs reproduce exactly.
//!
//! Trainers pick the lane RNGs with [`with_lane_rngs`], the single place
//! where width 1 differs from wider engines.

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

/// One in-flight episode owned by a lane.
struct LaneRun<'a> {
    state: GenState<'a>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    /// Index of this episode in the caller's job queue (`0..n`).
    job: usize,
}

/// Reusable buffers for batched lockstep generation. One instance can
/// serve many [`BatchRollout::collect`] calls; buffers are resized (not
/// reallocated) when the batch width or vocabulary stays the same.
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
    ///
    /// Once the job queue is exhausted, finished lanes are **compacted
    /// away** ([`Vec::swap_remove`]-style) instead of riding through the
    /// GEMMs inactive: the drain tail runs at the shrinking live width.
    /// Legal because each lane's forward math reads only its own slot —
    /// the batched kernels are bitwise position- and width-independent per
    /// lane — and a lane's RNG stream travels with its slot, so every
    /// episode is unchanged.
    pub fn collect_tagged<A: InferActor + ?Sized>(
        &mut self,
        actor: &A,
        env: &SqlGenEnv,
        n: usize,
        rngs: &mut [StdRng],
    ) -> Vec<(usize, usize, Episode)> {
        let b = rngs.len().min(n);
        if b == 0 {
            return Vec::new();
        }
        let vocab = env.action_space();
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
        self.rngs.extend_from_slice(&rngs[..b]);

        // `b <= n`, so every slot starts with a job. Physical slot `p`
        // hosts the lane originally numbered `order[p]` (the tag reported
        // in the output tuples and the lane whose RNG stream slot `p`
        // carries).
        let mut order: Vec<usize> = (0..b).collect();
        let mut lanes: Vec<LaneRun> = (0..b)
            .map(|job| LaneRun {
                state: env.reset(),
                shaper: RewardShaper::new(),
                actions: Vec::new(),
                rewards: Vec::new(),
                job,
            })
            .collect();
        let mut next_job = b;
        let mut out = Vec::with_capacity(n);
        let mut done_slots: Vec<usize> = Vec::new();

        while !order.is_empty() {
            let w = order.len();
            let start = sqlgen_obs::timing_enabled().then(std::time::Instant::now);
            for (p, run) in lanes.iter().enumerate() {
                run.state.mask_into_row(&mut self.masks, p);
            }
            actor.infer_step_batch(
                &self.prev[..w],
                &self.active[..w],
                &mut self.state,
                &self.masks[..w * vocab],
                &mut self.rngs[..w],
                &mut self.scratch,
                &mut self.actions[..w],
            );
            done_slots.clear();
            for (p, run) in lanes.iter_mut().enumerate() {
                let action = self.actions[p];
                let (reward, done) = env.step(&mut run.state, action, &mut run.shaper);
                self.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                if done {
                    if next_job < n {
                        // Refill: fresh episode, zeroed LSTM lane, BOS
                        // input — the lane's RNG stream continues, exactly
                        // like a serial loop starting its next episode.
                        let fresh = LaneRun {
                            state: env.reset(),
                            shaper: RewardShaper::new(),
                            actions: Vec::new(),
                            rewards: Vec::new(),
                            job: next_job,
                        };
                        let LaneRun {
                            state,
                            actions,
                            rewards,
                            job,
                            ..
                        } = std::mem::replace(run, fresh);
                        out.push((job, order[p], finish_episode(env, &state, actions, rewards)));
                        next_job += 1;
                        self.state.reset_lane(p);
                        self.prev[p] = None;
                    } else {
                        done_slots.push(p);
                    }
                }
            }
            // Compact drained slots out, highest physical index first so
            // each swap_remove only moves a still-live slot. The drained
            // lane's stream goes back to the caller.
            for &p in done_slots.iter().rev() {
                let LaneRun {
                    state,
                    actions,
                    rewards,
                    job,
                    ..
                } = lanes.swap_remove(p);
                out.push((job, order[p], finish_episode(env, &state, actions, rewards)));
                self.state.swap_remove_lane(p);
                rngs[order[p]] = self.rngs.swap_remove(p);
                self.prev.swap_remove(p);
                self.actions.swap_remove(p);
                order.swap_remove(p);
            }
            self.active.truncate(order.len());
            sqlgen_obs::obs_record!("rl.batch.occupancy", w as f64);
            if let Some(start) = start {
                // One histogram sample per emitted token (matching the
                // serial path's count contract) at the amortized cost.
                let us = start.elapsed().as_nanos() as f64 / 1_000.0 / w as f64;
                for _ in 0..w {
                    sqlgen_obs::obs_record!("rl.step.latency_us", us);
                }
            }
        }
        out
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
}

/// One generation job for the pull-based [`BatchRollout::run_jobs`] engine.
///
/// Unlike [`BatchRollout::collect_tagged`] — where a lane's RNG stream spans
/// every episode the lane produces — a job carries its **own** seed and gets
/// a fresh RNG and a zeroed LSTM lane at assignment. Its token stream is
/// therefore a pure function of `(weights, env, seed)`: independent of the
/// batch width, of which lane it lands on, and of whatever co-tenant jobs
/// share the batch. That is the determinism contract a serving batcher
/// needs to coalesce unrelated requests without perturbing any of them.
pub struct Job<'e, 'v: 'e> {
    /// Environment the episode rolls out in. Jobs in one `run_jobs` call may
    /// use different environments (constraints), but every environment must
    /// expose the same action space as the actor vocabulary.
    pub env: &'e SqlGenEnv<'v>,
    /// Seed for this job's private RNG stream.
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

/// One in-flight job owned by a lane (multi-env variant of [`LaneRun`]).
struct JobRun<'e, 'v: 'e> {
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

impl JobRun<'_, '_> {
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

impl BatchRollout {
    /// Runs jobs pulled from `source` through up to `lanes` lockstep lanes,
    /// reporting each outcome to `sink` as it completes. A finishing (or
    /// expiring) lane immediately pulls its next job — continuous refill —
    /// so `source` may keep yielding work admitted after the call started
    /// (a live request queue). Returns the number of episodes completed.
    ///
    /// Each assignment zeroes the lane (LSTM state, BOS input) and reseeds
    /// its RNG from [`Job::seed`]; see [`Job`] for the determinism contract.
    /// Outcome order is completion order, deterministic for a fixed job
    /// stream (single-threaded lockstep has no scheduling freedom).
    pub fn run_jobs<'e, 'v: 'e, A: InferActor + ?Sized>(
        &mut self,
        actor: &A,
        lanes: usize,
        mut source: impl FnMut() -> Option<Job<'e, 'v>>,
        mut sink: impl FnMut(u64, JobOutcome),
    ) -> usize {
        let b = lanes.max(1);
        let vocab = actor.vocab_size();
        self.state = actor.begin_batch(b);
        self.masks.clear();
        self.masks.resize(b * vocab, false);
        self.prev.clear();
        self.prev.resize(b, None);
        self.active.clear();
        self.active.resize(b, false);
        self.actions.clear();
        self.actions.resize(b, 0);
        self.rngs.clear();
        // Placeholder streams; every assignment reseeds its lane from the
        // job's own seed before the lane draws anything.
        self.rngs
            .extend((0..b).map(|w| StdRng::seed_from_u64(w as u64)));

        let mut slots: Vec<Option<JobRun>> = (0..b).map(|_| None).collect();
        let mut completed = 0usize;
        for (lane, slot) in slots.iter_mut().enumerate() {
            if !Self::refill_lane(
                &mut source,
                slot,
                lane,
                vocab,
                &mut self.state,
                &mut self.prev,
                &mut self.rngs,
            ) {
                break;
            }
            self.active[lane] = true;
        }

        while self.active.iter().any(|&a| a) {
            // Deadline sweep before spending another lockstep iteration.
            // One clock read per iteration, and only when some lane has a
            // deadline at all.
            if slots.iter().flatten().any(|run| run.deadline.is_some()) {
                let now = Instant::now();
                for (lane, slot) in slots.iter_mut().enumerate() {
                    let expired = slot
                        .as_ref()
                        .is_some_and(|run| run.deadline.is_some_and(|d| now >= d));
                    if expired {
                        let run = slot.take().expect("expired lane has a run");
                        run.flush_trace(run.actions.len());
                        sink(run.tag, JobOutcome::Expired);
                        if !Self::refill_lane(
                            &mut source,
                            slot,
                            lane,
                            vocab,
                            &mut self.state,
                            &mut self.prev,
                            &mut self.rngs,
                        ) {
                            self.active[lane] = false;
                        }
                    }
                }
                if !self.active.iter().any(|&a| a) {
                    break;
                }
            }

            let start = sqlgen_obs::timing_enabled().then(Instant::now);
            for (lane, slot) in slots.iter().enumerate() {
                if self.active[lane] {
                    slot.as_ref()
                        .expect("active lane has a run")
                        .state
                        .mask_into_row(&mut self.masks, lane);
                }
            }
            actor.infer_step_batch(
                &self.prev,
                &self.active,
                &mut self.state,
                &self.masks,
                &mut self.rngs,
                &mut self.scratch,
                &mut self.actions,
            );
            let mut n_active = 0usize;
            for (lane, slot) in slots.iter_mut().enumerate() {
                if !self.active[lane] {
                    continue;
                }
                n_active += 1;
                let run = slot.as_mut().expect("active lane has a run");
                let action = self.actions[lane];
                // Traced jobs time each env.step locally (estimator-
                // dominated: the shaped reward's cardinality/cost probes);
                // untraced jobs pay one branch, no clock read.
                let step_t0 = run.trace.is_some().then(Instant::now);
                let (reward, done) = run.env.step(&mut run.state, action, &mut run.shaper);
                if let Some(t0) = step_t0 {
                    run.est_us += us_since(t0);
                }
                self.prev[lane] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                if done {
                    let mut run = slot.take().expect("active lane has a run");
                    let fin_t0 = run.trace.is_some().then(Instant::now);
                    let ep = finish_episode(run.env, &run.state, run.actions, run.rewards);
                    if let Some(t0) = fin_t0 {
                        // finish_episode re-measures the final query; that
                        // probe is estimator time too.
                        run.est_us += us_since(t0);
                    }
                    run.actions = Vec::new();
                    run.rewards = Vec::new();
                    run.flush_trace(ep.actions.len());
                    sink(run.tag, JobOutcome::Done(Box::new(ep)));
                    completed += 1;
                    if !Self::refill_lane(
                        &mut source,
                        slot,
                        lane,
                        vocab,
                        &mut self.state,
                        &mut self.prev,
                        &mut self.rngs,
                    ) {
                        self.active[lane] = false;
                    }
                }
            }
            sqlgen_obs::obs_record!("rl.batch.occupancy", n_active as f64);
            if let Some(start) = start {
                // One histogram sample per emitted token (matching the
                // serial path's count contract) at the amortized cost.
                let us = start.elapsed().as_nanos() as f64 / 1_000.0 / n_active.max(1) as f64;
                for _ in 0..n_active {
                    sqlgen_obs::obs_record!("rl.step.latency_us", us);
                }
            }
        }
        completed
    }

    /// Pulls the next job into an empty lane slot; `false` when the source
    /// is (currently) dry.
    fn refill_lane<'e, 'v: 'e>(
        source: &mut impl FnMut() -> Option<Job<'e, 'v>>,
        slot: &mut Option<JobRun<'e, 'v>>,
        lane: usize,
        vocab: usize,
        state: &mut LstmBatchState,
        prev: &mut [Option<usize>],
        rngs: &mut [StdRng],
    ) -> bool {
        match source() {
            Some(job) => {
                assert_eq!(
                    job.env.action_space(),
                    vocab,
                    "job env action space must match the actor vocabulary"
                );
                let t0 = job.trace.is_some().then(Instant::now);
                state.reset_lane(lane);
                prev[lane] = None;
                rngs[lane] = StdRng::seed_from_u64(job.seed);
                *slot = Some(JobRun {
                    state: job.env.reset(),
                    env: job.env,
                    shaper: RewardShaper::new(),
                    actions: Vec::new(),
                    rewards: Vec::new(),
                    deadline: job.deadline,
                    tag: job.tag,
                    assigned: t0,
                    est_us: 0.0,
                    trace: job.trace,
                });
                if let (Some(t0), Some(run)) = (t0, slot.as_ref()) {
                    // Lane reset + reseed + env reset on behalf of the
                    // incoming job.
                    if let Some(handle) = &run.trace {
                        handle.accum("refill", us_since(t0));
                    }
                }
                true
            }
            None => false,
        }
    }
}

/// Runs a batch of seeded jobs to completion and returns `(tag, outcome)`
/// pairs in completion order. Convenience wrapper over
/// [`BatchRollout::run_jobs`] for callers with a fixed job list.
pub fn run_jobs_batched<'e, 'v: 'e, A: InferActor + ?Sized>(
    actor: &A,
    jobs: Vec<Job<'e, 'v>>,
    lanes: usize,
) -> Vec<(u64, JobOutcome)> {
    let mut queue = std::collections::VecDeque::from(jobs);
    let mut out = Vec::with_capacity(queue.len());
    BatchRollout::new().run_jobs(
        actor,
        lanes,
        || queue.pop_front(),
        |tag, outcome| out.push((tag, outcome)),
    );
    out
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
        ActorNet::new(
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

    /// The source is consulted again after every completion, so jobs
    /// admitted "live" (after the call started) still run — the continuous
    /// refill contract a serving batcher relies on.
    #[test]
    fn source_is_polled_continuously() {
        let (db, vocab) = setup();
        let est = Estimator::build(&db);
        let env = SqlGenEnv::new(&vocab, &est, Constraint::cardinality_range(1.0, 500.0));
        let actor = actor_for(&vocab);
        // Yield jobs one at a time; the queue "arrives" while earlier jobs
        // are in flight.
        let mut next = 0u64;
        let mut outcomes = Vec::new();
        let completed = BatchRollout::new().run_jobs(
            &actor,
            2,
            || {
                if next < 5 {
                    next += 1;
                    Some(Job {
                        env: &env,
                        seed: next,
                        deadline: None,
                        tag: next,
                        trace: None,
                    })
                } else {
                    None
                }
            },
            |tag, outcome| outcomes.push((tag, outcome)),
        );
        assert_eq!(completed, 5);
        assert_eq!(outcomes.len(), 5);
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
