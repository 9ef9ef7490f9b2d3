//! The actor and critic networks (paper §4.3).
//!
//! Both are `embedding → 2-layer LSTM(30) → dropout(0.3) → linear`
//! (hyper-parameters from §7.1); the actor's output layer spans the action
//! space and feeds a masked softmax, the critic's is a scalar V-value.
//!
//! Networks process the token stream incrementally: at step `t` the input is
//! the token emitted at `t−1` (a learned beginning-of-sequence embedding at
//! `t = 0`), so the LSTM hidden state *is* the state representation `s_t`
//! of the partial query.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqlgen_nn::{
    actor_logit_grad, actor_logit_grad_into, masked_softmax, sample_categorical, Dropout,
    Embedding, Linear, LinearGrads, LstmBatchState, LstmLayerGrads, LstmStack, LstmStackGrads, Mat,
    Param, QuantizedLinear, QuantizedLstmStack, StackCache, StackState,
};

/// Reusable per-step forward scratch shared by the actor and critic hot
/// paths. Sized lazily on first use; steady-state steps allocate nothing.
#[derive(Debug, Default)]
pub struct NetScratch {
    /// Embedding input (embed_dim).
    x: Vec<f32>,
    /// LSTM gate pre-activations (4 × hidden).
    z: Vec<f32>,
    /// Head output for the cacheless inference path (vocab for the actor).
    probs: Vec<f32>,
}

/// Reusable `[B × dim]` activation arena for the batched inference path.
/// Sized lazily on first use; steady-state steps allocate nothing.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Embedding inputs (`batch × embed_dim`).
    x: Vec<f32>,
    /// LSTM gate pre-activations (`batch × 4 × hidden`).
    z: Vec<f32>,
    /// Head outputs / masked-softmax probabilities (`batch × vocab`).
    probs: Vec<f32>,
    /// Second gate plane for the quantized LSTM (`batch × 4 × hidden`;
    /// the int8 kernels keep the `W_ih·x` and `W_hh·h` products apart so
    /// the gate sum order matches the f32 path).
    tmp: Vec<f32>,
    /// Post-dropout head inputs for the batched training step
    /// (`batch × hidden`).
    tops: Vec<f32>,
    /// Admissible token ids of the lane being sampled (quantized compact
    /// head path).
    ids: Vec<usize>,
    /// Compact admissible-row logits matching `ids`.
    compact: Vec<f32>,
}

/// Network hyper-parameters (§7.1 defaults).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetConfig {
    pub embed_dim: usize,
    pub hidden: usize,
    pub layers: usize,
    pub dropout: f32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            embed_dim: 32,
            hidden: 30,
            layers: 2,
            dropout: 0.3,
        }
    }
}

/// A policy that can drive the lockstep batched generation engine in
/// [`crate::batch`]. Implemented by the full-precision [`ActorNet`] and by
/// the int8 [`QuantizedActor`]; the rollout machinery (lane ownership,
/// continuous refill, FSM masking, per-lane RNG streams) is identical for
/// both, so generation and serving code swap precision without forking
/// the engine.
pub trait InferActor {
    /// Size of the action space (the FSM mask width).
    fn vocab_size(&self) -> usize;
    /// Allocates a zeroed batched LSTM state for `batch` lanes.
    fn begin_batch(&self, batch: usize) -> LstmBatchState;
    /// One batched inference step over lockstep lanes. Exactly one uniform
    /// draw per *active* lane — inactive lanes ride through the GEMMs but
    /// never touch their RNG (see [`ActorNet::infer_step_batch`]).
    #[allow(clippy::too_many_arguments)]
    fn infer_step_batch(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        masks: &[bool],
        rngs: &mut [StdRng],
        scratch: &mut BatchScratch,
        actions: &mut [usize],
    );
}

/// Per-lane detached gradient arenas for one network's parameters
/// (embedding table, LSTM stack, head), one entry per lane. Lane `l`'s
/// arena receives exactly the op sequence a serial backward of lane `l`'s
/// episode would apply to `Param::grad`, so each arena is bit-identical
/// to that serial gradient; the trainer reduces arenas into `Param::grad`
/// in ascending lane order for a deterministic sum.
#[derive(Debug, Default)]
pub struct NetGradsBatch {
    pub embed: Vec<Mat>,
    pub lstm: Vec<LstmStackGrads>,
    pub head: Vec<LinearGrads>,
}

impl NetGradsBatch {
    /// Number of lane arenas currently allocated.
    pub fn lanes(&self) -> usize {
        self.embed.len()
    }

    /// Lane `lane`'s buffers in the order of the owning network's
    /// `params_mut()`: embedding table, LSTM `w_ih`/`w_hh`/`b` per layer,
    /// head `w`/`b`.
    fn lane_mut(&mut self, lane: usize) -> impl Iterator<Item = &mut Mat> {
        let head = &mut self.head[lane];
        std::iter::once(&mut self.embed[lane])
            .chain(
                self.lstm[lane]
                    .iter_mut()
                    .flat_map(|l| [&mut l.w_ih, &mut l.w_hh, &mut l.b]),
            )
            .chain([&mut head.w, &mut head.b])
    }

    /// Grows to at least `batch` (and one) lane arenas shaped like a
    /// network with these parts; allocations are recycled across rounds.
    /// Lane 0 owns no storage (empty placeholders): it borrows
    /// `Param::grad`, see [`NetGradsBatch::lend`].
    fn grow(&mut self, embed: &Embedding, lstm: &LstmStack, head: &Linear, batch: usize) {
        if self.embed.is_empty() {
            let empty = || Mat::zeros(0, 0);
            self.embed.push(empty());
            self.lstm.push(
                (0..lstm.layers.len())
                    .map(|_| LstmLayerGrads {
                        w_ih: empty(),
                        w_hh: empty(),
                        b: empty(),
                    })
                    .collect(),
            );
            self.head.push(LinearGrads {
                w: empty(),
                b: empty(),
            });
        }
        while self.embed.len() < batch {
            self.embed.push(embed.empty_grads());
            self.lstm.push(lstm.empty_stack_grads());
            self.head.push(head.empty_grads());
        }
    }

    /// Zeroes the first `batch` lane arenas after swapping lane 0's
    /// buffers with `params[i].grad`, so the lane-0 backward writes the
    /// network's own gradient buffers, which [`NetGradsBatch::reduce_into`]
    /// swaps back — a one-lane round touches exactly the memory a serial
    /// backward does. `Param::grad` is empty until then.
    fn lend(&mut self, mut params: Vec<&mut Param>, batch: usize) {
        for (p, g) in params.iter_mut().zip(self.lane_mut(0)) {
            if g.data.is_empty() {
                std::mem::swap(&mut p.grad, g);
            }
            if g.data.len() != p.value.data.len() {
                // Lent twice without a reduce in between.
                *g = Mat::zeros(p.value.rows, p.value.cols);
            }
        }
        for lane in 0..batch {
            self.lane_mut(lane).for_each(|g| g.fill(0.0));
        }
    }

    /// Sets each `params[i].grad` to the sum of the first `batch` lane
    /// arenas, reduced in ascending lane order (the deterministic-sum
    /// contract). Lane 0's arena is swapped in as the running sum rather
    /// than added onto zeroed gradients: the same values up to the sign of
    /// zero entries, which neither clipping nor Adam can observe.
    fn reduce_into(&mut self, mut params: Vec<&mut Param>, batch: usize) {
        for lane in 0..batch {
            for (p, g) in params.iter_mut().zip(self.lane_mut(lane)) {
                if lane == 0 {
                    std::mem::swap(&mut p.grad, g);
                } else {
                    p.grad.add_assign(g);
                }
            }
        }
    }
}

/// Per-step cache the actor needs for backprop.
#[derive(Debug, Default)]
pub struct ActorStep {
    /// Token row fed to the embedding (BOS = `vocab_size`).
    pub input_token: usize,
    pub caches: StackCache,
    pub drop_mask: Vec<f32>,
    /// Head input (top LSTM output after dropout).
    pub top: Vec<f32>,
    /// Masked softmax output.
    pub probs: Vec<f32>,
    /// Sampled action.
    pub action: usize,
}

/// The policy network π_θ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActorNet {
    pub embed: Embedding,
    pub lstm: LstmStack,
    pub head: Linear,
    #[serde(skip, default = "default_dropout")]
    pub dropout: Dropout,
    pub vocab_size: usize,
    /// Embedding row fed at step 0 (BOS by default; the AC-extend ablation
    /// points this at a constraint-bucket row to condition the policy).
    pub start_token: usize,
    /// Optional context row whose embedding is *added to every step's
    /// input* — persistent conditioning for AC-extend (a start token alone
    /// washes out of a 30-cell LSTM after a few steps).
    #[serde(default)]
    pub context_token: Option<usize>,
}

fn default_dropout() -> Dropout {
    Dropout::new(0.3)
}

impl ActorNet {
    pub fn new(vocab_size: usize, cfg: &NetConfig, seed: u64) -> Self {
        Self::with_context_rows(vocab_size, 0, cfg, seed)
    }

    /// Like [`ActorNet::new`] but reserves `context_rows` extra embedding
    /// rows after BOS (ids `vocab_size + 1 ..`), usable as alternative
    /// start tokens that encode external context such as a constraint.
    pub fn with_context_rows(
        vocab_size: usize,
        context_rows: usize,
        cfg: &NetConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        ActorNet {
            // +1 row: the beginning-of-sequence token.
            embed: Embedding::new(vocab_size + 1 + context_rows, cfg.embed_dim, &mut rng),
            lstm: LstmStack::new(cfg.embed_dim, cfg.hidden, cfg.layers, &mut rng),
            head: Linear::new(cfg.hidden, vocab_size, &mut rng),
            dropout: Dropout::new(cfg.dropout),
            vocab_size,
            start_token: vocab_size,
            context_token: None,
        }
    }

    pub fn bos(&self) -> usize {
        self.vocab_size
    }

    /// Sets the step-0 input row (must be BOS or a reserved context row).
    pub fn set_start_token(&mut self, token: usize) {
        assert!(token >= self.vocab_size && token < self.embed.vocab_size());
        self.start_token = token;
    }

    /// Sets (or clears) the persistent context row added to every input.
    pub fn set_context_token(&mut self, token: Option<usize>) {
        if let Some(t) = token {
            assert!(t >= self.vocab_size && t < self.embed.vocab_size());
        }
        self.context_token = token;
    }

    pub fn begin(&self) -> StackState {
        self.lstm.zero_state()
    }

    /// Builds the step input `x = embed(token) [+ embed(ctx)]` into
    /// `scratch.x` without allocating.
    fn input_into(&self, input_token: usize, scratch: &mut NetScratch) {
        scratch.x.clear();
        scratch.x.extend_from_slice(self.embed.row(input_token));
        if let Some(ctx) = self.context_token {
            for (xi, ci) in scratch.x.iter_mut().zip(self.embed.row(ctx)) {
                *xi += ci;
            }
        }
    }

    /// One generation step into recycled buffers: `step`'s vectors are
    /// overwritten in place (an arena-owned `ActorStep` reaches steady state
    /// after its first use and allocates nothing afterwards). RNG draw order
    /// matches [`ActorNet::step`] exactly: dropout mask draws (train only),
    /// then one sampling draw.
    // Hot path: the arguments are the rollout's split borrows — bundling
    // them into a struct would force the borrow conflicts this API avoids.
    #[allow(clippy::too_many_arguments)]
    pub fn step_into<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        mask: &[bool],
        train: bool,
        rng: &mut R,
        step: &mut ActorStep,
        scratch: &mut NetScratch,
    ) {
        let input_token = prev.unwrap_or(self.start_token);
        self.input_into(input_token, scratch);
        scratch.z.resize(self.lstm.scratch_len(), 0.0);
        if step.caches.len() != self.lstm.layers.len() {
            step.caches = self.lstm.empty_cache();
        }
        self.lstm
            .forward_step_into(&scratch.x, state, &mut step.caches, &mut scratch.z);
        let top_h = &state.last().expect("non-empty stack").h;
        step.top.clear();
        step.top.extend_from_slice(top_h);
        if train {
            self.dropout
                .apply_into(&mut step.top, rng, &mut step.drop_mask);
        } else {
            step.drop_mask.clear();
            step.drop_mask.resize(step.top.len(), 1.0);
        }
        step.probs.resize(self.vocab_size, 0.0);
        self.head.forward_into(&step.top, &mut step.probs);
        masked_softmax(&mut step.probs, mask);
        step.action = sample_categorical(&step.probs, rng);
        step.input_token = input_token;
    }

    /// One generation step: feeds the previous token, applies the FSM mask,
    /// samples an action from the masked policy. Allocating wrapper over
    /// [`ActorNet::step_into`].
    pub fn step<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        mask: &[bool],
        train: bool,
        rng: &mut R,
    ) -> ActorStep {
        let mut step = ActorStep::default();
        let mut scratch = NetScratch::default();
        self.step_into(prev, state, mask, train, rng, &mut step, &mut scratch);
        step
    }

    /// One *inference* step: no backward caches, no dropout, zero heap
    /// allocations in steady state. Produces the same action stream as
    /// [`ActorNet::step`] with `train = false` for the same RNG (one uniform
    /// draw per token).
    pub fn infer_step<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        mask: &[bool],
        rng: &mut R,
        scratch: &mut NetScratch,
    ) -> usize {
        let input_token = prev.unwrap_or(self.start_token);
        self.input_into(input_token, scratch);
        scratch.z.resize(self.lstm.scratch_len(), 0.0);
        self.lstm.infer_step_into(&scratch.x, state, &mut scratch.z);
        scratch.probs.resize(self.vocab_size, 0.0);
        self.head.forward_into(
            &state.last().expect("non-empty stack").h,
            &mut scratch.probs,
        );
        masked_softmax(&mut scratch.probs, mask);
        sample_categorical(&scratch.probs, rng)
    }

    /// One batched inference step over `batch` lockstep lanes.
    ///
    /// Per lane `l` the math is bit-identical to [`ActorNet::infer_step`]
    /// fed `prev[l]` under `masks[l·vocab..(l+1)·vocab]` with `rngs[l]`:
    /// the batched kernels accumulate each output element in the same
    /// left-to-right order as their serial counterparts, and each lane has
    /// its own accumulators, so lanes cannot perturb one another.
    ///
    /// Inactive lanes (`active[l] == false`) are still fed through the
    /// batched kernels (with the start-token embedding; their state is
    /// garbage and never read) but are skipped for softmax and sampling,
    /// so their RNG streams do not advance. Exactly one uniform draw is
    /// taken per *active* lane per call.
    // Hot path: the arguments are the rollout's split borrows — bundling
    // them into a struct would force the borrow conflicts this API avoids.
    #[allow(clippy::too_many_arguments)]
    pub fn infer_step_batch<R: Rng>(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        masks: &[bool],
        rngs: &mut [R],
        scratch: &mut BatchScratch,
        actions: &mut [usize],
    ) {
        let batch = state.batch;
        debug_assert_eq!(prev.len(), batch);
        debug_assert_eq!(active.len(), batch);
        debug_assert_eq!(masks.len(), batch * self.vocab_size);
        debug_assert_eq!(rngs.len(), batch);
        debug_assert_eq!(actions.len(), batch);
        let embed_dim = self.embed.dim();
        scratch.x.resize(batch * embed_dim, 0.0);
        for (lane, p) in prev.iter().enumerate() {
            let token = p.unwrap_or(self.start_token);
            let xl = &mut scratch.x[lane * embed_dim..(lane + 1) * embed_dim];
            xl.copy_from_slice(self.embed.row(token));
            if let Some(ctx) = self.context_token {
                for (xi, ci) in xl.iter_mut().zip(self.embed.row(ctx)) {
                    *xi += ci;
                }
            }
        }
        scratch.z.resize(self.lstm.batch_scratch_len(batch), 0.0);
        self.lstm
            .infer_step_batch_into(&scratch.x, state, &mut scratch.z);
        scratch.probs.resize(batch * self.vocab_size, 0.0);
        let top = state.h.last().expect("non-empty stack");
        self.head.forward_batch_into(top, batch, &mut scratch.probs);
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let row = &mut scratch.probs[lane * self.vocab_size..(lane + 1) * self.vocab_size];
            let mask = &masks[lane * self.vocab_size..(lane + 1) * self.vocab_size];
            masked_softmax(row, mask);
            actions[lane] = sample_categorical(row, &mut rngs[lane]);
        }
    }

    /// Backpropagates the policy-gradient + entropy loss through a whole
    /// episode (Eq. 4): per step, `∂L/∂logits = A·(π − e_a) + λ·π(logπ+H)`.
    pub fn backward_episode(&mut self, steps: &[ActorStep], advantages: &[f32], lambda: f32) {
        debug_assert_eq!(steps.len(), advantages.len());
        // The scalar loss is never needed for the gradients; materialize it
        // only when observability is collecting (extra O(steps·vocab) pass).
        if sqlgen_obs::timing_enabled() {
            let mut loss = 0.0f64;
            let mut entropy = 0.0f64;
            for (s, &adv) in steps.iter().zip(advantages) {
                let h: f32 = s
                    .probs
                    .iter()
                    .filter(|&&p| p > 0.0)
                    .map(|&p| -p * p.ln())
                    .sum();
                let logp = s.probs[s.action].max(1e-12).ln();
                loss += (-logp * adv - lambda * h) as f64;
                entropy += h as f64;
            }
            let n = steps.len().max(1) as f64;
            sqlgen_obs::obs_record!("rl.policy.loss", loss / n);
            sqlgen_obs::obs_record!("rl.policy.entropy", entropy / n);
        }
        // Head/dropout backward into one flat buffer, then stream BPTT
        // straight off the steps' own caches — no per-episode cache clone.
        let hidden = self.lstm.hidden();
        let mut dtops = vec![0.0f32; steps.len() * hidden];
        for (t, (s, &adv)) in steps.iter().zip(advantages).enumerate() {
            let dlogits = actor_logit_grad(&s.probs, s.action, adv, lambda);
            let dtop = &mut dtops[t * hidden..(t + 1) * hidden];
            self.head.backward_into(&s.top, &dlogits, dtop);
            Dropout::backward(dtop, &s.drop_mask);
        }
        // BPTT visits steps in reverse, but embedding-row gradients must
        // accumulate in forward step order (f32 addition is not
        // associative and rows repeat within an episode), so buffer the
        // input gradients and replay them forward.
        let in_dim = self.lstm.layers[0].input;
        let mut dxs = vec![0.0f32; steps.len() * in_dim];
        self.lstm.backward_sequence_with(
            steps.len(),
            |t| &steps[t].caches[..],
            |t| &dtops[t * hidden..(t + 1) * hidden],
            |t, dx| dxs[t * in_dim..(t + 1) * in_dim].copy_from_slice(dx),
        );
        for (t, s) in steps.iter().enumerate() {
            let dx = &dxs[t * in_dim..(t + 1) * in_dim];
            self.embed.backward(s.input_token, dx);
            if let Some(ctx) = self.context_token {
                // x = embed(token) + embed(ctx): the gradient flows to both.
                self.embed.backward(ctx, dx);
            }
        }
    }

    /// One batched **training** step over `batch` lockstep lanes: like
    /// [`ActorNet::infer_step_batch`] but with dropout and per-lane
    /// backward caches recorded into `steps[lane]`. Per active lane the
    /// recorded step (caches, dropout mask, probabilities, action) is
    /// bit-identical to a serial [`ActorNet::step_into`] fed the same
    /// inputs and RNG: the RNG draw order per lane is dropout mask draws
    /// then one sampling draw, and lanes own private streams, so the
    /// cross-lane processing order cannot perturb any lane. Inactive lanes
    /// ride through the GEMMs (start-token input, caches and steps
    /// untouched) and draw no RNG.
    // Hot path: the arguments are the rollout's split borrows — bundling
    // them into a struct would force the borrow conflicts this API avoids.
    #[allow(clippy::too_many_arguments)]
    pub fn train_step_batch<R: Rng>(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        masks: &[bool],
        rngs: &mut [R],
        scratch: &mut BatchScratch,
        steps: &mut [&mut ActorStep],
        actions: &mut [usize],
    ) {
        let batch = state.batch;
        debug_assert_eq!(prev.len(), batch);
        debug_assert_eq!(active.len(), batch);
        debug_assert_eq!(masks.len(), batch * self.vocab_size);
        debug_assert_eq!(rngs.len(), batch);
        debug_assert_eq!(steps.len(), batch);
        debug_assert_eq!(actions.len(), batch);
        let embed_dim = self.embed.dim();
        scratch.x.resize(batch * embed_dim, 0.0);
        for (lane, p) in prev.iter().enumerate() {
            let token = p.unwrap_or(self.start_token);
            let xl = &mut scratch.x[lane * embed_dim..(lane + 1) * embed_dim];
            xl.copy_from_slice(self.embed.row(token));
            if let Some(ctx) = self.context_token {
                for (xi, ci) in xl.iter_mut().zip(self.embed.row(ctx)) {
                    *xi += ci;
                }
            }
            if active[lane] {
                steps[lane].input_token = token;
            }
        }
        // Inactive lanes still ride through the batched LSTM step, so
        // every lane needs a correctly shaped (if unused) cache slot.
        for step in steps.iter_mut() {
            if step.caches.len() != self.lstm.layers.len() {
                step.caches = self.lstm.empty_cache();
            }
        }
        scratch.z.resize(self.lstm.batch_scratch_len(batch), 0.0);
        {
            let mut caches: Vec<&mut StackCache> =
                steps.iter_mut().map(|s| &mut s.caches).collect();
            self.lstm.forward_step_batch_into(
                &scratch.x,
                state,
                active,
                &mut caches,
                &mut scratch.z,
            );
        }
        let hidden = self.lstm.hidden();
        let top = state.h.last().expect("non-empty stack");
        scratch.tops.resize(batch * hidden, 0.0);
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let step = &mut *steps[lane];
            step.top.clear();
            step.top
                .extend_from_slice(&top[lane * hidden..(lane + 1) * hidden]);
            self.dropout
                .apply_into(&mut step.top, &mut rngs[lane], &mut step.drop_mask);
            scratch.tops[lane * hidden..(lane + 1) * hidden].copy_from_slice(&step.top);
        }
        scratch.probs.resize(batch * self.vocab_size, 0.0);
        self.head
            .forward_batch_into(&scratch.tops, batch, &mut scratch.probs);
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let row = &scratch.probs[lane * self.vocab_size..(lane + 1) * self.vocab_size];
            let mask = &masks[lane * self.vocab_size..(lane + 1) * self.vocab_size];
            let step = &mut *steps[lane];
            step.probs.clear();
            step.probs.extend_from_slice(row);
            masked_softmax(&mut step.probs, mask);
            step.action = sample_categorical(&step.probs, &mut rngs[lane]);
            actions[lane] = step.action;
        }
    }

    /// Readies `batch` zeroed lane arenas for
    /// [`ActorNet::backward_episodes_batch`]; pair with
    /// [`ActorNet::reduce_grads`] (`Param::grad` is lent to lane 0 in
    /// between).
    pub fn ensure_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.grow(&self.embed, &self.lstm, &self.head, batch);
        grads.lend(self.params_mut(), batch);
    }

    /// Replaces `Param::grad` with the sum of the first `batch` lane
    /// arenas, in ascending lane order (the deterministic-sum contract).
    pub fn reduce_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.reduce_into(self.params_mut(), batch);
    }

    /// Lane-batched [`ActorNet::backward_episode`] over `batch` ragged
    /// episodes at once. `steps[lane][..lens[lane]]` are lane `lane`'s
    /// recorded steps and `advantages[lane]` its per-step advantages;
    /// parameter gradients land in the per-lane arenas of `grads` with the
    /// exact op sequence of the serial backward, so every arena is
    /// bit-identical to running the serial backward on that lane alone.
    /// The wall-clock win comes from the batched transposed-matvec kernels
    /// on the head-dtop and BPTT dx/dh paths, which read each weight
    /// matrix once per step instead of once per lane per step.
    pub fn backward_episodes_batch(
        &self,
        batch: usize,
        steps: &[Vec<ActorStep>],
        lens: &[usize],
        advantages: &[Vec<f32>],
        lambda: f32,
        grads: &mut NetGradsBatch,
    ) {
        debug_assert!(steps.len() >= batch);
        debug_assert!(lens.len() >= batch);
        debug_assert!(advantages.len() >= batch);
        debug_assert!(grads.lanes() >= batch);
        if sqlgen_obs::timing_enabled() {
            // Same per-episode loss/entropy materialization as the serial
            // path (one histogram sample per episode).
            for lane in 0..batch {
                let mut loss = 0.0f64;
                let mut entropy = 0.0f64;
                for (s, &adv) in steps[lane][..lens[lane]].iter().zip(&advantages[lane]) {
                    let h: f32 = s
                        .probs
                        .iter()
                        .filter(|&&p| p > 0.0)
                        .map(|&p| -p * p.ln())
                        .sum();
                    let logp = s.probs[s.action].max(1e-12).ln();
                    loss += (-logp * adv - lambda * h) as f64;
                    entropy += h as f64;
                }
                let n = lens[lane].max(1) as f64;
                sqlgen_obs::obs_record!("rl.policy.loss", loss / n);
                sqlgen_obs::obs_record!("rl.policy.entropy", entropy / n);
            }
        }
        let hidden = self.lstm.hidden();
        let vocab = self.vocab_size;
        let in_dim = self.lstm.layers[0].input;
        let max_t = lens[..batch].iter().copied().max().unwrap_or(0);
        // Head/dropout backward per global step, prefix-compacted: lanes
        // sorted by descending length make the active set a contiguous
        // prefix, so the `[n_active × vocab]` logit-gradient and
        // `[n_active × hidden]` head-input blocks hold only live lanes and
        // the batched kernels run at the live width. `dtops` stays in
        // physical (slot) layout; `inv` maps logical lane → physical slot.
        let order = sqlgen_nn::ragged_order(&lens[..batch]);
        let mut inv = vec![0usize; batch];
        for (p, &lane) in order.iter().enumerate() {
            inv[lane] = p;
        }
        let mut dtops = vec![0.0f32; max_t * batch * hidden];
        {
            let mut dy = vec![0.0f32; batch * vocab];
            let mut tops = vec![0.0f32; batch * hidden];
            for s in 0..max_t {
                let n_active = order.iter().take_while(|&&l| lens[l] > s).count();
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    let step = &steps[lane][s];
                    actor_logit_grad_into(
                        &step.probs,
                        step.action,
                        advantages[lane][s],
                        lambda,
                        &mut dy[p * vocab..(p + 1) * vocab],
                    );
                    tops[p * hidden..(p + 1) * hidden].copy_from_slice(&step.top);
                }
                let dtop = &mut dtops[s * batch * hidden..s * batch * hidden + n_active * hidden];
                self.head.backward_prefix_into(
                    &tops[..n_active * hidden],
                    &dy[..n_active * vocab],
                    &order[..n_active],
                    &mut grads.head[..batch],
                    dtop,
                );
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    Dropout::backward(
                        &mut dtop[p * hidden..(p + 1) * hidden],
                        &steps[lane][s].drop_mask,
                    );
                }
            }
        }
        // BPTT over all lanes at once; input gradients are buffered and the
        // embedding rows replayed in forward step order per lane (f32
        // addition is not associative and rows repeat within an episode).
        // `backward_sequence_batch_with` derives the same descending-length
        // order from the same lens, so `dtops[(s·batch + inv[lane])…]` is
        // exactly the row the head phase wrote for that lane.
        let mut dxs = vec![0.0f32; batch * max_t * in_dim];
        self.lstm.backward_sequence_batch_with(
            batch,
            &lens[..batch],
            |lane, s| &steps[lane][s].caches[..],
            |lane, s| {
                &dtops[(s * batch + inv[lane]) * hidden..(s * batch + inv[lane] + 1) * hidden]
            },
            |lane, s, dx| {
                dxs[(lane * max_t + s) * in_dim..(lane * max_t + s + 1) * in_dim]
                    .copy_from_slice(dx)
            },
            &mut grads.lstm[..batch],
        );
        for lane in 0..batch {
            for (s, step) in steps[lane][..lens[lane]].iter().enumerate() {
                let dx = &dxs[(lane * max_t + s) * in_dim..(lane * max_t + s + 1) * in_dim];
                Embedding::backward_buf(&mut grads.embed[lane], step.input_token, dx);
                if let Some(ctx) = self.context_token {
                    Embedding::backward_buf(&mut grads.embed[lane], ctx, dx);
                }
            }
        }
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.extend(self.lstm.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.lstm.zero_grad();
        self.head.zero_grad();
    }

    pub fn restore_buffers(&mut self) {
        self.embed.restore_buffers();
        self.lstm.restore_buffers();
        self.head.restore_buffers();
    }
}

impl InferActor for ActorNet {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn begin_batch(&self, batch: usize) -> LstmBatchState {
        self.lstm.zero_batch_state(batch)
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
        ActorNet::infer_step_batch(self, prev, active, state, masks, rngs, scratch, actions);
    }
}

/// Int8 inference-only snapshot of an [`ActorNet`].
///
/// The LSTM and head weights are quantized per output channel
/// ([`sqlgen_nn::quant`]); the embedding stays a f32 row lookup (it is a
/// table read, not a GEMM — quantizing it would add error for zero
/// speedup), and biases stay f32. Built from trained weights at load
/// time; carries no gradients and cannot train.
///
/// The head is evaluated **masked**: logits are computed only for the
/// FSM-admissible rows of each lane (typically a handful out of the full
/// vocabulary) and `-∞` is written elsewhere. This is exact, not an
/// approximation — the masked softmax and the sampler never read masked
/// rows — and it is where most of the quantized path's speedup comes
/// from at generation time.
#[derive(Debug, Clone)]
pub struct QuantizedActor {
    /// f32 embedding table (`(vocab + 1 + ctx) × embed_dim`).
    table: Mat,
    pub lstm: QuantizedLstmStack,
    pub head: QuantizedLinear,
    pub vocab_size: usize,
    pub start_token: usize,
    pub context_token: Option<usize>,
}

impl QuantizedActor {
    /// Quantizes a trained actor's weights (per-output-channel symmetric
    /// int8; see [`sqlgen_nn::QuantizedMat`]).
    pub fn from_actor(a: &ActorNet) -> Self {
        QuantizedActor {
            table: a.embed.table.value.clone(),
            lstm: QuantizedLstmStack::from_stack(&a.lstm),
            head: QuantizedLinear::from_linear(&a.head),
            vocab_size: a.vocab_size,
            start_token: a.start_token,
            context_token: a.context_token,
        }
    }
}

impl InferActor for QuantizedActor {
    fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    fn begin_batch(&self, batch: usize) -> LstmBatchState {
        self.lstm.zero_batch_state(batch)
    }

    /// Mirrors [`ActorNet::infer_step_batch`] — same lane protocol, same
    /// RNG contract (one uniform draw per active lane) — over the int8
    /// kernels. Inactive lanes keep whatever mask rows they last had;
    /// their head outputs are computed but never read.
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
        let batch = state.batch;
        debug_assert_eq!(prev.len(), batch);
        debug_assert_eq!(active.len(), batch);
        debug_assert_eq!(masks.len(), batch * self.vocab_size);
        debug_assert_eq!(rngs.len(), batch);
        debug_assert_eq!(actions.len(), batch);
        let embed_dim = self.table.cols;
        scratch.x.resize(batch * embed_dim, 0.0);
        for (lane, p) in prev.iter().enumerate() {
            let token = p.unwrap_or(self.start_token);
            let xl = &mut scratch.x[lane * embed_dim..(lane + 1) * embed_dim];
            xl.copy_from_slice(self.table.row(token));
            if let Some(ctx) = self.context_token {
                for (xi, ci) in xl.iter_mut().zip(self.table.row(ctx)) {
                    *xi += ci;
                }
            }
        }
        let zlen = self.lstm.batch_scratch_len(batch);
        scratch.z.resize(zlen, 0.0);
        scratch.tmp.resize(zlen, 0.0);
        self.lstm
            .infer_step_batch_into(&scratch.x, state, &mut scratch.z, &mut scratch.tmp);
        let top = state.h.last().expect("non-empty stack");
        // Compact head path: gather each lane's admissible ids (one mask
        // scan), then evaluate logits, softmax and sample over just those
        // M entries. `softmax_dense` + the ascending-id gather visit the
        // same entries in the same order as the scattered
        // `masked_softmax`/`sample_categorical` row path, so the sampled
        // actions — and each lane's RNG stream — are unchanged.
        let hidden = self.lstm.hidden();
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let mask = &masks[lane * self.vocab_size..(lane + 1) * self.vocab_size];
            scratch.ids.clear();
            scratch
                .ids
                .extend(mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i));
            scratch.compact.resize(scratch.ids.len(), 0.0);
            self.head.forward_ids_into(
                &top[lane * hidden..(lane + 1) * hidden],
                &scratch.ids,
                &mut scratch.compact,
            );
            sqlgen_nn::softmax_dense(&mut scratch.compact);
            let k = sample_categorical(&scratch.compact, &mut rngs[lane]);
            // Fully-masked rows cannot occur mid-episode; match the
            // scattered path's all-zero-row fallback (action 0) anyway.
            actions[lane] = scratch.ids.get(k).copied().unwrap_or(0);
        }
    }
}

/// Per-step cache for the critic.
#[derive(Debug, Default)]
pub struct CriticStep {
    pub input_token: usize,
    pub caches: StackCache,
    pub drop_mask: Vec<f32>,
    pub top: Vec<f32>,
    pub value: f32,
}

/// The value network V_φ.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CriticNet {
    pub embed: Embedding,
    pub lstm: LstmStack,
    pub head: Linear,
    #[serde(skip, default = "default_dropout")]
    pub dropout: Dropout,
    pub vocab_size: usize,
    /// Embedding row fed at step 0 (see [`ActorNet::start_token`]).
    pub start_token: usize,
    /// See [`ActorNet::context_token`].
    #[serde(default)]
    pub context_token: Option<usize>,
}

impl CriticNet {
    pub fn new(vocab_size: usize, cfg: &NetConfig, seed: u64) -> Self {
        Self::with_context_rows(vocab_size, 0, cfg, seed)
    }

    /// See [`ActorNet::with_context_rows`].
    pub fn with_context_rows(
        vocab_size: usize,
        context_rows: usize,
        cfg: &NetConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        CriticNet {
            embed: Embedding::new(vocab_size + 1 + context_rows, cfg.embed_dim, &mut rng),
            lstm: LstmStack::new(cfg.embed_dim, cfg.hidden, cfg.layers, &mut rng),
            head: Linear::new(cfg.hidden, 1, &mut rng),
            dropout: Dropout::new(cfg.dropout),
            vocab_size,
            start_token: vocab_size,
            context_token: None,
        }
    }

    pub fn bos(&self) -> usize {
        self.vocab_size
    }

    /// Sets the step-0 input row (must be BOS or a reserved context row).
    pub fn set_start_token(&mut self, token: usize) {
        assert!(token >= self.vocab_size && token < self.embed.vocab_size());
        self.start_token = token;
    }

    /// Sets (or clears) the persistent context row added to every input.
    pub fn set_context_token(&mut self, token: Option<usize>) {
        if let Some(t) = token {
            assert!(t >= self.vocab_size && t < self.embed.vocab_size());
        }
        self.context_token = token;
    }

    pub fn begin(&self) -> StackState {
        self.lstm.zero_state()
    }

    /// One value estimate into recycled buffers (see
    /// [`ActorNet::step_into`]).
    pub fn step_into<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        train: bool,
        rng: &mut R,
        step: &mut CriticStep,
        scratch: &mut NetScratch,
    ) {
        let input_token = prev.unwrap_or(self.start_token);
        scratch.x.clear();
        scratch.x.extend_from_slice(self.embed.row(input_token));
        if let Some(ctx) = self.context_token {
            for (xi, ci) in scratch.x.iter_mut().zip(self.embed.row(ctx)) {
                *xi += ci;
            }
        }
        scratch.z.resize(self.lstm.scratch_len(), 0.0);
        if step.caches.len() != self.lstm.layers.len() {
            step.caches = self.lstm.empty_cache();
        }
        self.lstm
            .forward_step_into(&scratch.x, state, &mut step.caches, &mut scratch.z);
        step.top.clear();
        step.top
            .extend_from_slice(&state.last().expect("non-empty stack").h);
        if train {
            self.dropout
                .apply_into(&mut step.top, rng, &mut step.drop_mask);
        } else {
            step.drop_mask.clear();
            step.drop_mask.resize(step.top.len(), 1.0);
        }
        let mut value = [0.0f32];
        self.head.forward_into(&step.top, &mut value);
        step.value = value[0];
        step.input_token = input_token;
    }

    /// One value estimate `V(s_t)` for the state reached after feeding
    /// `prev`. Allocating wrapper over [`CriticNet::step_into`].
    pub fn step<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        train: bool,
        rng: &mut R,
    ) -> CriticStep {
        let mut step = CriticStep::default();
        let mut scratch = NetScratch::default();
        self.step_into(prev, state, train, rng, &mut step, &mut scratch);
        step
    }

    /// Backpropagates per-step value-loss gradients `dL/dV_t`.
    pub fn backward_episode(&mut self, steps: &[CriticStep], dvalues: &[f32]) {
        debug_assert_eq!(steps.len(), dvalues.len());
        let hidden = self.lstm.hidden();
        let mut dtops = vec![0.0f32; steps.len() * hidden];
        for (t, (s, &dv)) in steps.iter().zip(dvalues).enumerate() {
            let dtop = &mut dtops[t * hidden..(t + 1) * hidden];
            self.head.backward_into(&s.top, &[dv], dtop);
            Dropout::backward(dtop, &s.drop_mask);
        }
        // Buffer input gradients; embedding rows accumulate forward-order
        // (see ActorNet::backward_episode).
        let in_dim = self.lstm.layers[0].input;
        let mut dxs = vec![0.0f32; steps.len() * in_dim];
        self.lstm.backward_sequence_with(
            steps.len(),
            |t| &steps[t].caches[..],
            |t| &dtops[t * hidden..(t + 1) * hidden],
            |t, dx| dxs[t * in_dim..(t + 1) * in_dim].copy_from_slice(dx),
        );
        for (t, s) in steps.iter().enumerate() {
            let dx = &dxs[t * in_dim..(t + 1) * in_dim];
            self.embed.backward(s.input_token, dx);
            if let Some(ctx) = self.context_token {
                self.embed.backward(ctx, dx);
            }
        }
    }

    /// One batched critic step over lockstep lanes: mirrors
    /// [`CriticNet::step_into`] per active lane (dropout draws from the
    /// lane's own RNG, then the scalar head), recording backward caches
    /// into `steps[lane]`. The scalar head is evaluated per lane — at
    /// `hidden → 1` there is nothing to amortize; the batching win is the
    /// LSTM forward. Inactive lanes ride through the GEMMs and draw no
    /// RNG.
    pub fn forward_step_batch<R: Rng>(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        rngs: &mut [R],
        scratch: &mut BatchScratch,
        steps: &mut [&mut CriticStep],
    ) {
        let batch = state.batch;
        debug_assert_eq!(prev.len(), batch);
        debug_assert_eq!(active.len(), batch);
        debug_assert_eq!(rngs.len(), batch);
        debug_assert_eq!(steps.len(), batch);
        let embed_dim = self.embed.dim();
        scratch.x.resize(batch * embed_dim, 0.0);
        for (lane, p) in prev.iter().enumerate() {
            let token = p.unwrap_or(self.start_token);
            let xl = &mut scratch.x[lane * embed_dim..(lane + 1) * embed_dim];
            xl.copy_from_slice(self.embed.row(token));
            if let Some(ctx) = self.context_token {
                for (xi, ci) in xl.iter_mut().zip(self.embed.row(ctx)) {
                    *xi += ci;
                }
            }
            if active[lane] {
                steps[lane].input_token = token;
            }
        }
        // Inactive lanes still ride through the batched LSTM step, so
        // every lane needs a correctly shaped (if unused) cache slot.
        for step in steps.iter_mut() {
            if step.caches.len() != self.lstm.layers.len() {
                step.caches = self.lstm.empty_cache();
            }
        }
        scratch.z.resize(self.lstm.batch_scratch_len(batch), 0.0);
        {
            let mut caches: Vec<&mut StackCache> =
                steps.iter_mut().map(|s| &mut s.caches).collect();
            self.lstm.forward_step_batch_into(
                &scratch.x,
                state,
                active,
                &mut caches,
                &mut scratch.z,
            );
        }
        let hidden = self.lstm.hidden();
        let top = state.h.last().expect("non-empty stack");
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let step = &mut *steps[lane];
            step.top.clear();
            step.top
                .extend_from_slice(&top[lane * hidden..(lane + 1) * hidden]);
            self.dropout
                .apply_into(&mut step.top, &mut rngs[lane], &mut step.drop_mask);
            let mut value = [0.0f32];
            self.head.forward_into(&step.top, &mut value);
            step.value = value[0];
        }
    }

    /// See [`ActorNet::ensure_grads`].
    pub fn ensure_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.grow(&self.embed, &self.lstm, &self.head, batch);
        grads.lend(self.params_mut(), batch);
    }

    /// See [`ActorNet::reduce_grads`].
    pub fn reduce_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.reduce_into(self.params_mut(), batch);
    }

    /// Lane-batched [`CriticNet::backward_episode`]; the per-lane arena
    /// contract matches [`ActorNet::backward_episodes_batch`].
    pub fn backward_episodes_batch(
        &self,
        batch: usize,
        steps: &[Vec<CriticStep>],
        lens: &[usize],
        dvalues: &[Vec<f32>],
        grads: &mut NetGradsBatch,
    ) {
        debug_assert!(steps.len() >= batch);
        debug_assert!(lens.len() >= batch);
        debug_assert!(dvalues.len() >= batch);
        debug_assert!(grads.lanes() >= batch);
        let hidden = self.lstm.hidden();
        let in_dim = self.lstm.layers[0].input;
        let max_t = lens[..batch].iter().copied().max().unwrap_or(0);
        // Prefix-compacted like the actor: see
        // [`ActorNet::backward_episodes_batch`] for the slot layout.
        let order = sqlgen_nn::ragged_order(&lens[..batch]);
        let mut inv = vec![0usize; batch];
        for (p, &lane) in order.iter().enumerate() {
            inv[lane] = p;
        }
        let mut dtops = vec![0.0f32; max_t * batch * hidden];
        {
            let mut dy = vec![0.0f32; batch];
            let mut tops = vec![0.0f32; batch * hidden];
            for s in 0..max_t {
                let n_active = order.iter().take_while(|&&l| lens[l] > s).count();
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    dy[p] = dvalues[lane][s];
                    tops[p * hidden..(p + 1) * hidden].copy_from_slice(&steps[lane][s].top);
                }
                let dtop = &mut dtops[s * batch * hidden..s * batch * hidden + n_active * hidden];
                self.head.backward_prefix_into(
                    &tops[..n_active * hidden],
                    &dy[..n_active],
                    &order[..n_active],
                    &mut grads.head[..batch],
                    dtop,
                );
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    Dropout::backward(
                        &mut dtop[p * hidden..(p + 1) * hidden],
                        &steps[lane][s].drop_mask,
                    );
                }
            }
        }
        let mut dxs = vec![0.0f32; batch * max_t * in_dim];
        self.lstm.backward_sequence_batch_with(
            batch,
            &lens[..batch],
            |lane, s| &steps[lane][s].caches[..],
            |lane, s| {
                &dtops[(s * batch + inv[lane]) * hidden..(s * batch + inv[lane] + 1) * hidden]
            },
            |lane, s, dx| {
                dxs[(lane * max_t + s) * in_dim..(lane * max_t + s + 1) * in_dim]
                    .copy_from_slice(dx)
            },
            &mut grads.lstm[..batch],
        );
        for lane in 0..batch {
            for (s, step) in steps[lane][..lens[lane]].iter().enumerate() {
                let dx = &dxs[(lane * max_t + s) * in_dim..(lane * max_t + s + 1) * in_dim];
                Embedding::backward_buf(&mut grads.embed[lane], step.input_token, dx);
                if let Some(ctx) = self.context_token {
                    Embedding::backward_buf(&mut grads.embed[lane], ctx, dx);
                }
            }
        }
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.embed.params_mut();
        p.extend(self.lstm.params_mut());
        p.extend(self.head.params_mut());
        p
    }

    pub fn zero_grad(&mut self) {
        self.embed.zero_grad();
        self.lstm.zero_grad();
        self.head.zero_grad();
    }

    pub fn restore_buffers(&mut self) {
        self.embed.restore_buffers();
        self.lstm.restore_buffers();
        self.head.restore_buffers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn actor_step_respects_mask() {
        let cfg = NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        };
        let actor = ActorNet::new(10, &cfg, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let state = actor.begin();
        let mut mask = vec![false; 10];
        mask[3] = true;
        mask[7] = true;
        for _ in 0..20 {
            let step = actor.step(None, &mut state.clone(), &mask, false, &mut rng);
            assert!(step.action == 3 || step.action == 7);
            assert_eq!(step.probs[0], 0.0);
            assert!((step.probs[3] + step.probs[7] - 1.0).abs() < 1e-5);
        }
    }

    /// A tiny bandit: one step, action 2 of 4 always rewarded. The actor
    /// trained with policy gradients must concentrate probability on it.
    #[test]
    fn actor_learns_a_bandit() {
        use sqlgen_nn::{Adam, Optimizer};
        let cfg = NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        };
        let mut actor = ActorNet::new(4, &cfg, 3);
        let mut adam = Adam::new(0.05);
        let mut rng = StdRng::seed_from_u64(4);
        let mask = vec![true; 4];
        for _ in 0..300 {
            let mut state = actor.begin();
            let step = actor.step(None, &mut state, &mask, true, &mut rng);
            let reward: f32 = if step.action == 2 { 1.0 } else { 0.0 };
            // Advantage with a constant baseline of 0.25 (uniform chance).
            let adv = reward - 0.25;
            actor.zero_grad();
            actor.backward_episode(&[step], &[adv], 0.0);
            adam.step(&mut actor.params_mut());
        }
        let mut state = actor.begin();
        let step = actor.step(None, &mut state, &mask, false, &mut rng);
        assert!(
            step.probs[2] > 0.8,
            "policy failed to concentrate: {:?}",
            step.probs
        );
    }

    #[test]
    fn critic_fits_constant_target() {
        use sqlgen_nn::{Adam, Optimizer};
        let cfg = NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        };
        let mut critic = CriticNet::new(6, &cfg, 5);
        let mut adam = Adam::new(0.02);
        let mut rng = StdRng::seed_from_u64(6);
        let target = 0.7f32;
        for _ in 0..400 {
            let mut state = critic.begin();
            let step = critic.step(Some(1), &mut state, false, &mut rng);
            let dv = 2.0 * (step.value - target);
            critic.zero_grad();
            critic.backward_episode(&[step], &[dv]);
            adam.step(&mut critic.params_mut());
        }
        let mut state = critic.begin();
        let v = critic.step(Some(1), &mut state, false, &mut rng).value;
        assert!((v - target).abs() < 0.1, "critic value {v}");
    }

    #[test]
    fn actor_serde_roundtrip() {
        let cfg = NetConfig::default();
        let actor = ActorNet::new(20, &cfg, 7);
        let json = serde_json::to_string(&actor).unwrap();
        let mut back: ActorNet = serde_json::from_str(&json).unwrap();
        back.restore_buffers();
        let mut rng = StdRng::seed_from_u64(8);
        let mask = vec![true; 20];
        let mut s1 = actor.begin();
        let mut s2 = back.begin();
        let a = actor.step(Some(3), &mut s1, &mask, false, &mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let b = back.step(Some(3), &mut s2, &mask, false, &mut rng);
        assert_eq!(a.probs, b.probs);
    }
}
