//! The actor and critic network (paper §4.3).
//!
//! Both roles share one architecture, `embedding → 2-layer LSTM(30) →
//! dropout(0.3) → linear` (hyper-parameters from §7.1), and differ only in
//! the head width: the actor's spans the action space and feeds a masked
//! softmax, the critic's is a scalar V-value. [`LstmNet`] is that network;
//! [`ActorNet`] and [`CriticNet`] are its role names.
//!
//! Networks process the token stream incrementally: at step `t` the input is
//! the token emitted at `t−1` (a learned beginning-of-sequence embedding at
//! `t = 0`), so the LSTM hidden state *is* the state representation `s_t`
//! of the partial query.
//!
//! Every recorded forward writes one [`NetStep`]; the role shows only at
//! the end of a step (given an FSM mask the actor samples, without one the
//! critic reads its value) and in the [`HeadLoss`] a backward
//! differentiates. The serial step and backward are the references the
//! lane-batched ones are tested against bit for bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sqlgen_nn::{
    actor_logit_grad_into, clip_grad_norm, masked_softmax, sample_categorical, Adam, Dropout,
    Embedding, Linear, LinearGrads, LstmBatchState, LstmLayerGrads, LstmStack, LstmStackGrads, Mat,
    Optimizer, Param, QuantizedLinear, QuantizedLstmStack, StackCache, StackState,
};

/// Reusable activation arena for the serial and batched steps (`[B × dim]`
/// blocks; the serial paths use one lane). Sized lazily on first use;
/// steady-state steps allocate nothing.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Embedding inputs (`batch × embed_dim`).
    x: Vec<f32>,
    /// LSTM gate pre-activations (`batch × 4 × hidden`).
    z: Vec<f32>,
    /// Head outputs / masked-softmax probabilities (`batch × head`).
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
    /// One batched inference step over lockstep lanes: exactly one uniform
    /// draw per lane marked `active`. The engine compacts finished lanes
    /// out of the batch instead of passing them inactive, so it always
    /// marks every lane active; a lane marked inactive would draw nothing
    /// (see [`LstmNet::infer_step_batch`]).
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

    /// Lane `lane`'s buffers in the order of [`LstmNet::params_mut`]:
    /// embedding table, LSTM `w_ih`/`w_hh`/`b` per layer, head `w`/`b`.
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

    /// Grows to at least `batch` (and one) lane arenas shaped like `net`;
    /// allocations are recycled across rounds. Lane 0 owns no storage
    /// (empty placeholders): it borrows `Param::grad`, see
    /// [`NetGradsBatch::lend`].
    fn grow(&mut self, net: &LstmNet, batch: usize) {
        if self.embed.is_empty() {
            let empty = || Mat::zeros(0, 0);
            self.embed.push(empty());
            self.lstm.push(
                (0..net.lstm.layers.len())
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
            self.embed.push(net.embed.empty_grads());
            self.lstm.push(net.lstm.empty_stack_grads());
            self.head.push(net.head.empty_grads());
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

/// Per-step record of one network for backprop.
#[derive(Debug, Default)]
pub struct NetStep {
    /// Token row fed to the embedding (BOS = `vocab_size`).
    pub input_token: usize,
    pub caches: StackCache,
    pub drop_mask: Vec<f32>,
    /// Head input (top LSTM output after dropout).
    pub top: Vec<f32>,
    /// Actor: the masked softmax of the head output.
    pub probs: Vec<f32>,
    /// Actor: the sampled action.
    pub action: usize,
    /// Critic: the head output `V(s_t)`.
    pub value: f32,
}

/// The loss a backward differentiates, holding per-lane, per-step targets
/// (`targets[lane][t]`); it turns each recorded step into the gradient
/// w.r.t. the head output.
#[derive(Debug, Clone, Copy)]
pub enum HeadLoss<'a> {
    /// The actor's policy-gradient + entropy loss (Eq. 4) under advantages
    /// `A`: `∂L/∂logits = A·(π − e_a) + λ·π(logπ+H)`.
    Policy {
        advantages: &'a [Vec<f32>],
        lambda: f32,
    },
    /// The critic's value loss, given `dL/dV` per step.
    Value { dvalues: &'a [Vec<f32>] },
}

impl HeadLoss<'_> {
    /// Writes the head-output gradient of lane `lane`'s step `t` into `dy`.
    fn grad_into(&self, lane: usize, t: usize, step: &NetStep, dy: &mut [f32]) {
        match *self {
            HeadLoss::Policy { advantages, lambda } => {
                actor_logit_grad_into(&step.probs, step.action, advantages[lane][t], lambda, dy)
            }
            HeadLoss::Value { dvalues } => dy[0] = dvalues[lane][t],
        }
    }

    /// Records lane `lane`'s mean policy loss and entropy (one histogram
    /// sample per episode). The scalar loss is never needed for the
    /// gradients, so it is materialized only when observability is
    /// collecting (an extra O(steps·vocab) pass).
    fn record(&self, lane: usize, steps: &[NetStep]) {
        let HeadLoss::Policy { advantages, lambda } = *self else {
            return;
        };
        if !sqlgen_obs::timing_enabled() {
            return;
        }
        let mut loss = 0.0f64;
        let mut entropy = 0.0f64;
        for (s, &adv) in steps.iter().zip(&advantages[lane]) {
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
}

/// The actor/critic network: `embedding → LSTM stack → dropout → linear`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmNet {
    pub embed: Embedding,
    pub lstm: LstmStack,
    pub head: Linear,
    #[serde(skip, default = "default_dropout")]
    pub dropout: Dropout,
    pub vocab_size: usize,
    /// Embedding row fed at step 0 (BOS by default; the AC-extend ablation
    /// points this at a constraint-bucket row to condition the network).
    pub start_token: usize,
    /// Optional context row whose embedding is *added to every step's
    /// input* — persistent conditioning for AC-extend (a start token alone
    /// washes out of a 30-cell LSTM after a few steps).
    #[serde(default)]
    pub context_token: Option<usize>,
}

/// The policy network π_θ: an [`LstmNet`] whose head spans the action space.
pub type ActorNet = LstmNet;
/// The value network V_φ: an [`LstmNet`] with a one-unit head.
pub type CriticNet = LstmNet;

fn default_dropout() -> Dropout {
    Dropout::new(0.3)
}

/// The one embedding gather: row `l` of `x` becomes lane `l`'s step input
/// `embed(prev[l] or start) [+ embed(ctx)]` from the f32 table `table`.
fn gather_inputs(
    table: &Mat,
    start_token: usize,
    context_token: Option<usize>,
    prev: &[Option<usize>],
    x: &mut Vec<f32>,
) {
    let dim = table.cols;
    x.resize(prev.len() * dim, 0.0);
    for (lane, p) in prev.iter().enumerate() {
        let xl = &mut x[lane * dim..(lane + 1) * dim];
        xl.copy_from_slice(table.row(p.unwrap_or(start_token)));
        if let Some(ctx) = context_token {
            for (xi, ci) in xl.iter_mut().zip(table.row(ctx)) {
                *xi += ci;
            }
        }
    }
}

/// Ends a recorded step from its head output `out`: given an FSM mask (the
/// actor) the masked softmax and one sampling draw; without one (the
/// critic) the value.
fn finish_step<R: Rng + ?Sized>(
    out: &[f32],
    mask: Option<&[bool]>,
    rng: &mut R,
    step: &mut NetStep,
) {
    match mask {
        Some(mask) => {
            step.probs.clear();
            step.probs.extend_from_slice(out);
            masked_softmax(&mut step.probs, mask);
            step.action = sample_categorical(&step.probs, rng);
        }
        None => step.value = out[0],
    }
}

impl LstmNet {
    /// A network over `vocab_size` tokens with a `head`-wide output layer
    /// (the action space for the actor, 1 for the critic). `context_rows`
    /// extra embedding rows after BOS (ids `vocab_size + 1 ..`) are usable
    /// as start or context tokens that encode external context such as a
    /// constraint.
    pub fn new(
        vocab_size: usize,
        head: usize,
        context_rows: usize,
        cfg: &NetConfig,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        LstmNet {
            // +1 row: the beginning-of-sequence token.
            embed: Embedding::new(vocab_size + 1 + context_rows, cfg.embed_dim, &mut rng),
            lstm: LstmStack::new(cfg.embed_dim, cfg.hidden, cfg.layers, &mut rng),
            head: Linear::new(cfg.hidden, head, &mut rng),
            dropout: Dropout::new(cfg.dropout),
            vocab_size,
            start_token: vocab_size,
            context_token: None,
        }
    }

    /// An actor without context rows.
    pub fn actor(vocab_size: usize, cfg: &NetConfig, seed: u64) -> Self {
        Self::new(vocab_size, vocab_size, 0, cfg, seed)
    }

    /// A critic without context rows.
    pub fn critic(vocab_size: usize, cfg: &NetConfig, seed: u64) -> Self {
        Self::new(vocab_size, 1, 0, cfg, seed)
    }

    /// Whether `token` is BOS or a reserved context row.
    fn is_context_row(&self, token: usize) -> bool {
        (self.vocab_size..self.embed.vocab_size()).contains(&token)
    }

    /// Sets the step-0 input row (must be BOS or a reserved context row).
    pub fn set_start_token(&mut self, token: usize) {
        assert!(self.is_context_row(token));
        self.start_token = token;
    }

    /// Sets (or clears) the persistent context row added to every input.
    pub fn set_context_token(&mut self, token: Option<usize>) {
        if let Some(t) = token {
            assert!(self.is_context_row(t));
        }
        self.context_token = token;
    }

    /// Checks that a deserialized network can run: every matrix holds
    /// `rows × cols` values, the dimensions chain embedding → LSTM → head,
    /// the head is `head` wide, the embedding has BOS after the `vocab_size`
    /// token rows, and the start and context tokens are BOS or context
    /// rows. Returns what is wrong otherwise.
    pub fn check_shape(&self, head: usize) -> Result<(), String> {
        let table = &self.embed.table.value;
        let mut mats = vec![("embedding", table)];
        for l in &self.lstm.layers {
            mats.extend([
                ("lstm.w_ih", &l.w_ih.value),
                ("lstm.w_hh", &l.w_hh.value),
                ("lstm.b", &l.b.value),
            ]);
        }
        mats.extend([
            ("head.w", &self.head.w.value),
            ("head.b", &self.head.b.value),
        ]);
        for (name, m) in mats {
            if m.rows.checked_mul(m.cols) != Some(m.data.len()) {
                return Err(format!(
                    "{name} holds {} values for {}×{}",
                    m.data.len(),
                    m.rows,
                    m.cols
                ));
            }
        }
        let shape = |m: &Mat| (m.rows, m.cols);
        let Some(hidden) = self.lstm.layers.first().map(|l| l.hidden) else {
            return Err("the LSTM stack has no layers".to_string());
        };
        let mut input = table.cols;
        for (i, l) in self.lstm.layers.iter().enumerate() {
            let chains = |gates: usize| {
                shape(&l.w_ih.value) == (gates, input)
                    && shape(&l.w_hh.value) == (gates, hidden)
                    && shape(&l.b.value) == (gates, 1)
            };
            if l.input != input || l.hidden != hidden || !hidden.checked_mul(4).is_some_and(chains)
            {
                return Err(format!(
                    "LSTM layer {i} does not map width {input} to hidden {hidden}"
                ));
            }
            input = hidden;
        }
        if shape(&self.head.w.value) != (head, hidden) || shape(&self.head.b.value) != (head, 1) {
            return Err(format!(
                "head is {}×{}, expected {head}×{hidden}",
                self.head.w.value.rows, self.head.w.value.cols
            ));
        }
        if table.rows <= self.vocab_size {
            return Err(format!(
                "embedding has {} rows for {} tokens plus BOS",
                table.rows, self.vocab_size
            ));
        }
        for (name, token) in [
            ("start_token", Some(self.start_token)),
            ("context_token", self.context_token),
        ] {
            if let Some(t) = token.filter(|&t| !self.is_context_row(t)) {
                return Err(format!(
                    "{name} {t} is outside rows {}..{}",
                    self.vocab_size, table.rows
                ));
            }
        }
        Ok(())
    }

    pub fn begin(&self) -> StackState {
        self.lstm.zero_state()
    }

    /// [`gather_inputs`] over this network's table and tokens.
    fn inputs_into(&self, prev: &[Option<usize>], x: &mut Vec<f32>) {
        let table = &self.embed.table.value;
        gather_inputs(table, self.start_token, self.context_token, prev, x);
    }

    /// One recorded step into recycled buffers — the serial reference of
    /// [`LstmNet::forward_step_batch`]. Records the input row, backward
    /// caches, dropout mask (`train` only) and head input into `step`,
    /// then ends it per role: given an FSM `mask` (the actor) the masked
    /// softmax and one sampled action, without one (the critic) the value.
    /// RNG draw order: dropout mask draws (`train` only), then the actor's
    /// one sampling draw. An arena-owned step allocates nothing after its
    /// first use.
    // Hot path: the arguments are the rollout's split borrows — bundling
    // them into a struct would force the borrow conflicts this API avoids.
    #[allow(clippy::too_many_arguments)]
    pub fn step_into<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        mask: Option<&[bool]>,
        train: bool,
        rng: &mut R,
        step: &mut NetStep,
        scratch: &mut BatchScratch,
    ) {
        self.inputs_into(&[prev], &mut scratch.x);
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
        scratch.probs.resize(self.head.output_dim(), 0.0);
        self.head.forward_into(&step.top, &mut scratch.probs);
        step.input_token = prev.unwrap_or(self.start_token);
        finish_step(&scratch.probs, mask, rng, step);
    }

    /// Allocating wrapper over [`LstmNet::step_into`].
    pub fn step<R: Rng + ?Sized>(
        &self,
        prev: Option<usize>,
        state: &mut StackState,
        mask: Option<&[bool]>,
        train: bool,
        rng: &mut R,
    ) -> NetStep {
        let mut step = NetStep::default();
        let mut scratch = BatchScratch::default();
        self.step_into(prev, state, mask, train, rng, &mut step, &mut scratch);
        step
    }

    /// One batched actor inference step over `batch` lockstep lanes.
    ///
    /// Per lane `l` the math is bit-identical to [`LstmNet::step_into`]
    /// with `train = false` fed `prev[l]` under `masks[l·vocab..(l+1)·vocab]`
    /// with `rngs[l]`: the batched kernels accumulate each output element
    /// in the same left-to-right order as their serial counterparts, and
    /// each lane has its own accumulators, so lanes cannot perturb one
    /// another.
    ///
    /// Inactive lanes (`active[l] == false`) are still fed through the
    /// batched kernels (their state is garbage and never read) but are
    /// skipped for softmax and sampling, so their RNG streams do not
    /// advance. Exactly one uniform draw is taken per *active* lane per
    /// call.
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
        self.inputs_into(prev, &mut scratch.x);
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

    /// One batched **training** step over `batch` lockstep lanes, recorded
    /// into step `t` of lane `lane`'s arena, `steps[lane][t]`. Per active
    /// lane the recorded step is bit-identical to a serial
    /// [`LstmNet::step_into`] with `train = true` fed the same inputs and
    /// RNG: dropout mask draws, then — given `masks` (the actor, one
    /// `vocab`-wide row per lane) — one sampling draw, or — without (the
    /// critic) — the value. Lanes own private streams, so the cross-lane
    /// processing order cannot perturb any lane. Inactive lanes ride
    /// through the GEMMs (steps untouched) and draw no RNG.
    // Hot path: the arguments are the rollout's split borrows — bundling
    // them into a struct would force the borrow conflicts this API avoids.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_step_batch<R: Rng>(
        &self,
        prev: &[Option<usize>],
        active: &[bool],
        state: &mut LstmBatchState,
        masks: Option<&[bool]>,
        rngs: &mut [R],
        scratch: &mut BatchScratch,
        steps: &mut [Vec<NetStep>],
        t: usize,
    ) {
        let batch = state.batch;
        let width = self.head.output_dim();
        debug_assert_eq!(prev.len(), batch);
        debug_assert_eq!(active.len(), batch);
        if let Some(m) = masks {
            debug_assert_eq!(m.len(), batch * width);
        }
        debug_assert_eq!(rngs.len(), batch);
        debug_assert_eq!(steps.len(), batch);
        self.inputs_into(prev, &mut scratch.x);
        // Inactive lanes still ride through the batched LSTM step, so
        // every lane needs a correctly shaped (if unused) cache slot.
        for arena in steps.iter_mut() {
            let step = &mut arena[t];
            if step.caches.len() != self.lstm.layers.len() {
                step.caches = self.lstm.empty_cache();
            }
        }
        scratch.z.resize(self.lstm.batch_scratch_len(batch), 0.0);
        {
            let mut caches: Vec<&mut StackCache> =
                steps.iter_mut().map(|arena| &mut arena[t].caches).collect();
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
            let step = &mut steps[lane][t];
            step.input_token = prev[lane].unwrap_or(self.start_token);
            step.top.clear();
            step.top
                .extend_from_slice(&top[lane * hidden..(lane + 1) * hidden]);
            self.dropout
                .apply_into(&mut step.top, &mut rngs[lane], &mut step.drop_mask);
            scratch.tops[lane * hidden..(lane + 1) * hidden].copy_from_slice(&step.top);
        }
        scratch.probs.resize(batch * width, 0.0);
        self.head
            .forward_batch_into(&scratch.tops, batch, &mut scratch.probs);
        for lane in 0..batch {
            if active[lane] {
                let row = lane * width..(lane + 1) * width;
                let mask = masks.map(|m| &m[row.clone()]);
                finish_step(
                    &scratch.probs[row],
                    mask,
                    &mut rngs[lane],
                    &mut steps[lane][t],
                );
            }
        }
    }

    /// Backpropagates `loss` through one recorded episode into
    /// `Param::grad` — the serial reference of
    /// [`LstmNet::backward_episodes_batch`]; `loss` holds this one
    /// episode's targets as its lane 0.
    pub fn backward_episode(&mut self, steps: &[NetStep], loss: HeadLoss) {
        loss.record(0, steps);
        // Head/dropout backward into one flat buffer, then stream BPTT
        // straight off the steps' own caches — no per-episode cache clone.
        let hidden = self.lstm.hidden();
        let mut dy = vec![0.0f32; self.head.output_dim()];
        let mut dtops = vec![0.0f32; steps.len() * hidden];
        for (t, s) in steps.iter().enumerate() {
            loss.grad_into(0, t, s, &mut dy);
            let dtop = &mut dtops[t * hidden..(t + 1) * hidden];
            self.head.backward_into(&s.top, &dy, dtop);
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

    /// Readies `batch` zeroed lane arenas for
    /// [`LstmNet::backward_episodes_batch`]; pair with
    /// [`LstmNet::reduce_grads`] (`Param::grad` is lent to lane 0 in
    /// between).
    pub fn ensure_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.grow(self, batch);
        grads.lend(self.params_mut(), batch);
    }

    /// Replaces `Param::grad` with the sum of the first `batch` lane
    /// arenas, in ascending lane order (the deterministic-sum contract).
    pub fn reduce_grads(&mut self, grads: &mut NetGradsBatch, batch: usize) {
        grads.reduce_into(self.params_mut(), batch);
    }

    /// Lane-batched [`LstmNet::backward_episode`] over `batch` ragged
    /// episodes at once. `steps[lane][..lens[lane]]` are lane `lane`'s
    /// recorded steps and `loss` their per-lane targets; parameter
    /// gradients land in the per-lane arenas of `grads` with the exact op
    /// sequence of the serial backward, so every arena is bit-identical to
    /// running the serial backward on that lane alone. The wall-clock win
    /// comes from the batched transposed-matvec kernels on the head-dtop
    /// and BPTT dx/dh paths, which read each weight matrix once per step
    /// instead of once per lane per step.
    pub fn backward_episodes_batch(
        &self,
        batch: usize,
        steps: &[Vec<NetStep>],
        lens: &[usize],
        loss: HeadLoss,
        grads: &mut NetGradsBatch,
    ) {
        debug_assert!(steps.len() >= batch);
        debug_assert!(lens.len() >= batch);
        debug_assert!(grads.lanes() >= batch);
        for lane in 0..batch {
            loss.record(lane, &steps[lane][..lens[lane]]);
        }
        let hidden = self.lstm.hidden();
        let width = self.head.output_dim();
        let in_dim = self.lstm.layers[0].input;
        let max_t = lens[..batch].iter().copied().max().unwrap_or(0);
        // Head/dropout backward per global step, prefix-compacted: lanes
        // sorted by descending length make the active set a contiguous
        // prefix, so the `[n_active × width]` output-gradient and
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
            let mut dy = vec![0.0f32; batch * width];
            let mut tops = vec![0.0f32; batch * hidden];
            for s in 0..max_t {
                let n_active = order.iter().take_while(|&&l| lens[l] > s).count();
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    let step = &steps[lane][s];
                    loss.grad_into(lane, s, step, &mut dy[p * width..(p + 1) * width]);
                    tops[p * hidden..(p + 1) * hidden].copy_from_slice(&step.top);
                }
                let dtop = &mut dtops[s * batch * hidden..s * batch * hidden + n_active * hidden];
                self.head.backward_prefix_into(
                    &tops[..n_active * hidden],
                    &dy[..n_active * width],
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

    /// The one optimizer update every trainer applies to a round of
    /// `lens.len()` lanes: lends zeroed lane arenas, runs
    /// [`LstmNet::backward_episodes_batch`] under `loss`, reduces the
    /// arenas into `Param::grad` in ascending lane order, clips the global
    /// gradient norm to `clip` and takes one `opt` step.
    pub(crate) fn update(
        &mut self,
        opt: &mut Adam,
        clip: f32,
        grads: &mut NetGradsBatch,
        steps: &[Vec<NetStep>],
        lens: &[usize],
        loss: HeadLoss,
    ) {
        let batch = lens.len();
        self.ensure_grads(grads, batch);
        self.backward_episodes_batch(batch, steps, lens, loss, grads);
        self.reduce_grads(grads, batch);
        let mut params = self.params_mut();
        clip_grad_norm(&mut params, clip);
        opt.step(&mut params);
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

impl InferActor for LstmNet {
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
        LstmNet::infer_step_batch(self, prev, active, state, masks, rngs, scratch, actions);
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
/// vocabulary; [`QuantizedLinear::forward_ids_into`]). This is exact, not
/// an approximation — the sampler never reads masked rows — and it is
/// where most of the quantized path's speedup comes from at generation
/// time.
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

    /// Mirrors [`LstmNet::infer_step_batch`] — same lane protocol, same
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
        gather_inputs(
            &self.table,
            self.start_token,
            self.context_token,
            prev,
            &mut scratch.x,
        );
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

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NetConfig {
        NetConfig {
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            dropout: 0.0,
        }
    }

    #[test]
    fn actor_step_respects_mask() {
        let actor = ActorNet::actor(10, &tiny(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        let state = actor.begin();
        let mut mask = vec![false; 10];
        mask[3] = true;
        mask[7] = true;
        for _ in 0..20 {
            let step = actor.step(None, &mut state.clone(), Some(&mask), false, &mut rng);
            assert!(step.action == 3 || step.action == 7);
            assert_eq!(step.probs[0], 0.0);
            assert!((step.probs[3] + step.probs[7] - 1.0).abs() < 1e-5);
        }
    }

    /// A tiny bandit: one step, action 2 of 4 always rewarded. The actor
    /// trained with policy gradients must concentrate probability on it.
    #[test]
    fn actor_learns_a_bandit() {
        let mut actor = ActorNet::actor(4, &tiny(), 3);
        let mut adam = Adam::new(0.05);
        let mut rng = StdRng::seed_from_u64(4);
        let mask = vec![true; 4];
        for _ in 0..300 {
            let mut state = actor.begin();
            let step = actor.step(None, &mut state, Some(&mask), true, &mut rng);
            let reward: f32 = if step.action == 2 { 1.0 } else { 0.0 };
            // Advantage with a constant baseline of 0.25 (uniform chance).
            let advantages = [vec![reward - 0.25]];
            actor.zero_grad();
            actor.backward_episode(
                &[step],
                HeadLoss::Policy {
                    advantages: &advantages,
                    lambda: 0.0,
                },
            );
            adam.step(&mut actor.params_mut());
        }
        let mut state = actor.begin();
        let step = actor.step(None, &mut state, Some(&mask), false, &mut rng);
        assert!(
            step.probs[2] > 0.8,
            "policy failed to concentrate: {:?}",
            step.probs
        );
    }

    #[test]
    fn critic_fits_constant_target() {
        let mut critic = CriticNet::critic(6, &tiny(), 5);
        let mut adam = Adam::new(0.02);
        let mut rng = StdRng::seed_from_u64(6);
        let target = 0.7f32;
        for _ in 0..400 {
            let mut state = critic.begin();
            let step = critic.step(Some(1), &mut state, None, false, &mut rng);
            let dvalues = [vec![2.0 * (step.value - target)]];
            critic.zero_grad();
            critic.backward_episode(&[step], HeadLoss::Value { dvalues: &dvalues });
            adam.step(&mut critic.params_mut());
        }
        let mut state = critic.begin();
        let v = critic
            .step(Some(1), &mut state, None, false, &mut rng)
            .value;
        assert!((v - target).abs() < 0.1, "critic value {v}");
    }

    #[test]
    fn actor_serde_roundtrip() {
        let cfg = NetConfig::default();
        let actor = ActorNet::actor(20, &cfg, 7);
        let json = serde_json::to_string(&actor).unwrap();
        let mut back: ActorNet = serde_json::from_str(&json).unwrap();
        back.restore_buffers();
        let mut rng = StdRng::seed_from_u64(8);
        let mask = vec![true; 20];
        let mut s1 = actor.begin();
        let mut s2 = back.begin();
        let a = actor.step(Some(3), &mut s1, Some(&mask), false, &mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let b = back.step(Some(3), &mut s2, Some(&mask), false, &mut rng);
        assert_eq!(a.probs, b.probs);
    }

    /// Fresh networks of both roles pass the shape check for their own
    /// head width only; every broken dimension, length or token is named.
    #[test]
    fn shape_check_rejects_inconsistent_networks() {
        let cfg = NetConfig {
            layers: 2,
            ..tiny()
        };
        let actor = ActorNet::actor(10, &cfg, 1);
        let critic = CriticNet::new(10, 1, 3, &cfg, 2);
        assert_eq!(actor.check_shape(10), Ok(()));
        assert_eq!(critic.check_shape(1), Ok(()));
        assert!(actor.check_shape(1).is_err());
        assert!(critic.check_shape(10).is_err());

        let broken = |edit: &dyn Fn(&mut LstmNet)| {
            let mut net = critic.clone();
            edit(&mut net);
            net.check_shape(1).unwrap_err()
        };
        let err = broken(&|n| n.head.w.value.data.truncate(3));
        assert!(err.contains("head.w"), "{err}");
        let err = broken(&|n| n.head.w.value.rows = 5);
        assert!(err.contains("head.w"), "{err}");
        let err = broken(&|n| n.lstm.layers[1].input = 3);
        assert!(err.contains("LSTM layer 1"), "{err}");
        let err = broken(&|n| n.lstm.layers.clear());
        assert!(err.contains("no layers"), "{err}");
        let err = broken(&|n| n.start_token = 3);
        assert!(err.contains("start_token"), "{err}");
        let err = broken(&|n| n.context_token = Some(14));
        assert!(err.contains("context_token"), "{err}");
        let err = broken(&|n| n.vocab_size = 14);
        assert!(err.contains("embedding"), "{err}");
        // The reserved context rows are legal start and context tokens.
        let mut ok = critic.clone();
        ok.set_start_token(13);
        ok.set_context_token(Some(11));
        assert_eq!(ok.check_shape(1), Ok(()));
    }
}
