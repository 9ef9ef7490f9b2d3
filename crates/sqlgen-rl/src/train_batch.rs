//! Lane-batched training rollouts: batched BPTT with gradient accumulation.
//!
//! The lockstep inference engine in [`crate::batch`] amortizes weight reads
//! across lanes for generation; this module extends the same lane protocol
//! to *training*, where the forward pass must record backward caches and
//! the backward pass must produce gradients. One training round rolls one
//! episode per lane (no refill — a round is a closed set of episodes
//! collected under one policy snapshot), then the trainer runs a
//! lane-batched BPTT into per-lane gradient arenas and applies **one**
//! accumulated optimizer step for the round. Width 1 — one episode, one
//! update per round — is the paper's Algorithm 3 loop.
//!
//! Determinism contract:
//!
//! * lane `l` draws from the caller's RNG stream `rngs[l]` and its
//!   collected episode is bit-identical to a serial
//!   [`run_episode_into`](crate::episode::run_episode_into) with that
//!   stream (same dropout and sampling draws, same batched-kernel
//!   accumulation order as the serial kernels);
//! * each lane's gradient arena is bit-identical to a serial backward of
//!   that lane's episode alone; arenas reduce into `Param::grad` in
//!   ascending lane order, so the summed gradient is deterministic;
//! * a round applies one accumulated update, so training is reproducible
//!   per `(seed, lanes)`; different widths are different runs. Trainers
//!   choose the lane streams with [`with_lane_rngs`](crate::batch::with_lane_rngs).

use crate::env::{RewardShaper, SqlGenEnv};
use crate::episode::{finish_episode, Episode};
use crate::nets::{ActorNet, BatchScratch, CriticNet, NetStep};
use rand::rngs::StdRng;
use sqlgen_fsm::GenState;
use sqlgen_nn::LstmBatchState;

/// One in-flight training episode owned by a lane.
struct LaneRun<'a> {
    state: GenState<'a>,
    shaper: RewardShaper,
    actions: Vec<usize>,
    rewards: Vec<f32>,
}

/// Reusable buffers for lane-batched training rounds: the batched LSTM
/// states, the per-lane actor and critic [`NetStep`] arenas, and the
/// lockstep bookkeeping. One instance serves many rounds; arenas grow to
/// the longest episode seen and are then allocation-free.
#[derive(Default)]
pub struct TrainRollout {
    state: LstmBatchState,
    cstate: LstmBatchState,
    scratch: BatchScratch,
    /// Row-major `[batch × vocab]` FSM mask block.
    masks: Vec<bool>,
    prev: Vec<Option<usize>>,
    active: Vec<bool>,
    rngs: Vec<StdRng>,
    /// Per-lane actor step arenas; `steps[lane][..lens[lane]]` live.
    pub steps: Vec<Vec<NetStep>>,
    pub lens: Vec<usize>,
    /// Per-lane critic step arenas (used by the actor-critic trainer);
    /// `csteps[lane][..lens[lane]]` live after [`TrainRollout::critic_forward`].
    pub csteps: Vec<Vec<NetStep>>,
}

impl TrainRollout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Rolls out one **training** episode per entry of `rngs` in lockstep
    /// (dropout on, backward caches recorded into `self.steps`). Lane `l`
    /// draws from `rngs[l]`, which is left where its stream stopped; its
    /// episode is bit-identical to a serial training rollout with that
    /// stream. Returns episodes in lane order (steps stay in the arena,
    /// like [`Rollout`](crate::episode::Rollout)).
    ///
    /// Finished lanes are **compacted away** ([`Vec::swap_remove`]-style):
    /// physical slot `p` hosts logical lane `order[p]`, every per-slot
    /// buffer (LSTM state, masks, RNGs, …) shrinks with the live set, and
    /// the batched kernels always run at the live width. Legal because a
    /// lane's forward math reads only its own slot — the batched kernels
    /// are bitwise position- and width-independent per lane — and each
    /// lane's RNG stream travels with its slot.
    pub fn collect(
        &mut self,
        actor: &ActorNet,
        env: &SqlGenEnv,
        rngs: &mut [StdRng],
    ) -> Vec<Episode> {
        let b = rngs.len();
        let vocab = env.action_space();
        actor.lstm.reset_batch_state(&mut self.state, b);
        self.masks.clear();
        self.masks.resize(b * vocab, false);
        self.prev.clear();
        self.prev.resize(b, None);
        self.active.clear();
        self.active.resize(b, true);
        self.rngs.clear();
        self.rngs.extend_from_slice(rngs);
        if self.steps.len() < b {
            self.steps.resize_with(b, Vec::new);
        }
        self.lens.clear();
        self.lens.resize(b, 0);

        let mut runs: Vec<Option<LaneRun>> = (0..b)
            .map(|_| {
                Some(LaneRun {
                    state: env.reset(),
                    shaper: RewardShaper::new(),
                    actions: Vec::new(),
                    rewards: Vec::new(),
                })
            })
            .collect();
        let mut out: Vec<Option<Episode>> = (0..b).map(|_| None).collect();
        // Physical slot `p` → logical lane `order[p]`; slots `..w` are live.
        // Each lane's step arena travels with its slot (`arenas[p]`) and
        // goes back to lane order at the end.
        let mut order: Vec<usize> = (0..b).collect();
        let mut arenas: Vec<Vec<NetStep>> =
            self.steps[..b].iter_mut().map(std::mem::take).collect();
        let mut done_slots: Vec<usize> = Vec::new();

        let mut t = 0usize;
        let mut w = b;
        while w > 0 {
            let start = sqlgen_obs::timing_enabled().then(std::time::Instant::now);
            for (p, &lane) in order[..w].iter().enumerate() {
                runs[lane]
                    .as_ref()
                    .expect("live lane has a run")
                    .state
                    .mask_into_row(&mut self.masks, p);
            }
            // Every live lane gets an arena slot at `t` (the arena reaches
            // the longest episode's length and is then reused verbatim).
            for arena in &mut arenas[..w] {
                while arena.len() <= t {
                    arena.push(NetStep::default());
                }
            }
            actor.forward_step_batch(
                &self.prev[..w],
                &self.active[..w],
                &mut self.state,
                Some(&self.masks[..w * vocab]),
                &mut self.rngs[..w],
                &mut self.scratch,
                &mut arenas[..w],
                t,
            );
            done_slots.clear();
            for (p, &lane) in order[..w].iter().enumerate() {
                let run = runs[lane].as_mut().expect("live lane has a run");
                let action = arenas[p][t].action;
                let (reward, done) = env.step(&mut run.state, action, &mut run.shaper);
                self.prev[p] = Some(action);
                run.actions.push(action);
                run.rewards.push(reward);
                self.lens[lane] = t + 1;
                if done {
                    let LaneRun {
                        state,
                        actions,
                        rewards,
                        ..
                    } = runs[lane].take().expect("live lane has a run");
                    out[lane] = Some(finish_episode(env, &state, actions, rewards));
                    done_slots.push(p);
                }
            }
            // Compact finished slots out, highest physical index first so
            // each swap only moves a still-live slot; the finished slot's
            // arena and lane land just past the live prefix.
            let live = w;
            for &p in done_slots.iter().rev() {
                self.state.swap_remove_lane(p);
                rngs[order[p]] = self.rngs.swap_remove(p);
                self.prev.swap_remove(p);
                arenas.swap(p, w - 1);
                order.swap(p, w - 1);
                w -= 1;
            }
            self.active.truncate(w);
            sqlgen_obs::obs_record!("rl.batch.occupancy", live as f64);
            if let Some(start) = start {
                // One histogram sample per emitted token (matching the
                // serial path's count contract) at the amortized cost.
                let us = start.elapsed().as_nanos() as f64 / 1_000.0 / live as f64;
                for _ in 0..live {
                    sqlgen_obs::obs_record!("rl.step.latency_us", us);
                }
            }
            t += 1;
        }
        for (arena, &lane) in arenas.into_iter().zip(&order) {
            self.steps[lane] = arena;
        }
        out.into_iter()
            .map(|e| e.expect("every lane finished an episode"))
            .collect()
    }

    /// Runs the critic over every lane's collected token stream in
    /// lockstep, filling `self.csteps[lane][..self.lens[lane]]`.
    /// `crngs[lane]` drives lane `lane`'s dropout draws — the batched
    /// sibling of the per-episode critic RNG of the serial update path.
    /// Input tokens the critic does not own (the actor's BOS/context rows,
    /// `>= critic.vocab_size`) fall back to the critic's own start token,
    /// exactly like the serial forward.
    /// The episode lengths are known up front here, so lanes are packed
    /// **statically**: physical slots sorted by descending length make the
    /// live set a contiguous prefix that only shrinks — the batched state
    /// is truncated to the live width each step instead of dragging
    /// finished lanes through the GEMMs. `crngs[lane]` is cloned into its
    /// physical slot once; each lane still consumes its own stream.
    pub fn critic_forward(&mut self, critic: &CriticNet, batch: usize, crngs: &mut [StdRng]) {
        let b = batch.max(1);
        debug_assert!(self.lens.len() >= b);
        debug_assert_eq!(crngs.len(), b);
        critic.lstm.reset_batch_state(&mut self.cstate, b);
        if self.csteps.len() < b {
            self.csteps.resize_with(b, Vec::new);
        }
        let max_t = self.lens[..b].iter().copied().max().unwrap_or(0);
        // Physical slot `p` → logical lane `order[p]`, longest first. Each
        // lane's critic arena is moved into its slot (`arenas[p]`) for the
        // loop and back to lane order after it.
        let order = sqlgen_nn::ragged_order(&self.lens[..b]);
        let mut prngs: Vec<StdRng> = order.iter().map(|&lane| crngs[lane].clone()).collect();
        let mut arenas: Vec<Vec<NetStep>> = order
            .iter()
            .map(|&lane| std::mem::take(&mut self.csteps[lane]))
            .collect();
        self.prev.clear();
        self.prev.resize(b, None);
        self.active.clear();
        self.active.resize(b, true);
        for t in 0..max_t {
            let n_active = order.iter().take_while(|&&l| self.lens[l] > t).count();
            if n_active < self.cstate.batch {
                self.cstate.truncate_lanes(n_active);
            }
            for (p, &lane) in order[..n_active].iter().enumerate() {
                let tok = self.steps[lane][t].input_token;
                self.prev[p] = if tok >= critic.vocab_size {
                    None
                } else {
                    Some(tok)
                };
                let arena = &mut arenas[p];
                while arena.len() <= t {
                    arena.push(NetStep::default());
                }
            }
            critic.forward_step_batch(
                &self.prev[..n_active],
                &self.active[..n_active],
                &mut self.cstate,
                None,
                &mut prngs[..n_active],
                &mut self.scratch,
                &mut arenas[..n_active],
                t,
            );
        }
        for (arena, &lane) in arenas.into_iter().zip(&order) {
            self.csteps[lane] = arena;
        }
    }
}
