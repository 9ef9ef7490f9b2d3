//! Long Short-Term Memory layers with full backpropagation through time.
//!
//! Gate order in the packed weight matrices is `[i, f, g, o]` (input,
//! forget, cell candidate, output). Forward steps return a cache that the
//! caller stores per time step; `backward_step` consumes caches in reverse
//! order. Gradients are verified against finite differences in the tests.

use crate::param::Param;
use crate::tensor::{dsigmoid, dtanh, sigmoid, Mat};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Hidden state of one LSTM layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LstmState {
    pub h: Vec<f32>,
    pub c: Vec<f32>,
}

impl LstmState {
    pub fn zeros(hidden: usize) -> Self {
        LstmState {
            h: vec![0.0; hidden],
            c: vec![0.0; hidden],
        }
    }

    pub fn reset(&mut self) {
        self.h.iter_mut().for_each(|v| *v = 0.0);
        self.c.iter_mut().for_each(|v| *v = 0.0);
    }
}

/// Hidden states for `batch` independent lanes across a whole stack,
/// stored as one row-major `[batch × hidden]` plane per layer so the
/// batched kernels read each lane's state contiguously. Layer `l + 1`
/// consumes layer `l`'s `h` plane directly as its input block — no
/// per-lane gather/scatter anywhere on the batched path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LstmBatchState {
    pub batch: usize,
    /// Per layer: hidden outputs, `[batch × hidden]`.
    pub h: Vec<Vec<f32>>,
    /// Per layer: cell states, `[batch × hidden]`.
    pub c: Vec<Vec<f32>>,
}

impl LstmBatchState {
    /// Zeroes one lane's `h`/`c` rows in every layer (continuous lane
    /// refill: a finished lane restarts from the zero state while its
    /// neighbours keep generating).
    pub fn reset_lane(&mut self, lane: usize) {
        debug_assert!(lane < self.batch);
        for plane in self.h.iter_mut().chain(self.c.iter_mut()) {
            let hidden = plane.len() / self.batch;
            plane[lane * hidden..(lane + 1) * hidden]
                .iter_mut()
                .for_each(|v| *v = 0.0);
        }
    }

    /// One lane's hidden output in layer `layer` (test/diagnostic access).
    pub fn lane_h(&self, layer: usize, lane: usize) -> &[f32] {
        let hidden = self.h[layer].len() / self.batch;
        &self.h[layer][lane * hidden..(lane + 1) * hidden]
    }

    /// One lane's cell state in layer `layer` (test/diagnostic access).
    pub fn lane_c(&self, layer: usize, lane: usize) -> &[f32] {
        let hidden = self.c[layer].len() / self.batch;
        &self.c[layer][lane * hidden..(lane + 1) * hidden]
    }

    /// Removes one lane by swapping the last lane's rows into its slot and
    /// shrinking the state to `batch - 1` lanes — the batched-kernel
    /// sibling of `Vec::swap_remove`. Lane identities move: the caller
    /// owns the physical-slot-to-logical-lane mapping. Shrinking keeps
    /// ragged rollouts from dragging finished lanes through the GEMMs.
    pub fn swap_remove_lane(&mut self, lane: usize) {
        debug_assert!(lane < self.batch);
        let last = self.batch - 1;
        for plane in self.h.iter_mut().chain(self.c.iter_mut()) {
            let hidden = plane.len() / (last + 1);
            if lane != last {
                let (head, tail) = plane.split_at_mut(last * hidden);
                head[lane * hidden..(lane + 1) * hidden].swap_with_slice(&mut tail[..hidden]);
            }
            plane.truncate(last * hidden);
        }
        self.batch = last;
    }

    /// Shrinks the state to its first `n` lanes (for ragged batches whose
    /// lanes are pre-sorted by descending length, where finished lanes are
    /// always a suffix).
    pub fn truncate_lanes(&mut self, n: usize) {
        debug_assert!(n <= self.batch);
        for plane in self.h.iter_mut().chain(self.c.iter_mut()) {
            let hidden = plane.len() / self.batch;
            plane.truncate(n * hidden);
        }
        self.batch = n;
    }
}

/// Stable lane ordering by **descending** sequence length (ties keep
/// ascending lane order). Processing a ragged batch in this order makes
/// the still-active lanes at every global step a contiguous prefix, so
/// batched kernels run at the live width instead of masking finished
/// lanes through full-width GEMMs. The forward/backward walks and the
/// per-lane arenas both derive the same order from the same lengths, so
/// physical slots line up across phases without any scatter.
pub fn ragged_order(lens: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..lens.len()).collect();
    order.sort_by(|&a, &b| lens[b].cmp(&lens[a]).then(a.cmp(&b)));
    order
}

/// Per-step forward cache for one layer.
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    c_prev: Vec<f32>,
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    tanh_c: Vec<f32>,
}

/// Detached parameter-gradient buffers for one layer. The lane-batched
/// BPTT accumulates each lane's gradients into its own `LstmLayerGrads`
/// (bitwise equal to a serial backward of that lane alone) and the caller
/// reduces them into `Param::grad` in ascending lane order, so the final
/// sum is deterministic.
#[derive(Debug, Clone)]
pub struct LstmLayerGrads {
    pub w_ih: Mat,
    pub w_hh: Mat,
    pub b: Mat,
}

/// Per-lane gradient buffers for a whole stack (one entry per layer).
pub type LstmStackGrads = Vec<LstmLayerGrads>;

/// Copies `src` into `dst`, reusing `dst`'s allocation when it is already
/// the right size (the steady-state case for arena-recycled caches).
#[inline]
fn copy_into(dst: &mut Vec<f32>, src: &[f32]) {
    dst.clear();
    dst.extend_from_slice(src);
}

/// Resizes `v` to `n` without caring about contents (values are overwritten).
#[inline]
fn ensure_len(v: &mut Vec<f32>, n: usize) {
    v.resize(n, 0.0);
}

/// One LSTM layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmLayer {
    pub input: usize,
    pub hidden: usize,
    pub w_ih: Param, // 4H × I
    pub w_hh: Param, // 4H × H
    pub b: Param,    // 4H × 1
}

impl LstmLayer {
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, rng: &mut R) -> Self {
        let mut b = Param::new(Mat::zeros(4 * hidden, 1));
        // Forget-gate bias init to 1.0 — the standard trick that keeps
        // gradients flowing early in training.
        for v in &mut b.value.data[hidden..2 * hidden] {
            *v = 1.0;
        }
        LstmLayer {
            input,
            hidden,
            w_ih: Param::new(Mat::xavier(4 * hidden, input, rng)),
            w_hh: Param::new(Mat::xavier(4 * hidden, hidden, rng)),
            b,
        }
    }

    /// Fused gate pre-activations: `z[r] = (b[r] + w_ih[r]·x) + w_hh[r]·h`.
    ///
    /// One pass over the two weight matrices, four rows at a time, with no
    /// temporary buffers. Per row the additions happen in exactly the order
    /// the unfused path used (`z = b; z += w_ih·x; z += w_hh·h`), so the
    /// result is bit-identical to three separate kernels.
    fn gates_into(&self, x: &[f32], h_prev: &[f32], z: &mut [f32]) {
        let rows = 4 * self.hidden;
        let (ic, hc) = (self.input, self.hidden);
        debug_assert_eq!(x.len(), ic);
        debug_assert_eq!(h_prev.len(), hc);
        debug_assert_eq!(z.len(), rows);
        let wi = &self.w_ih.value.data;
        let wh = &self.w_hh.value.data;
        let b = &self.b.value.data;
        let mut blocks = z.chunks_exact_mut(4);
        let mut r = 0usize;
        for block in &mut blocks {
            let wi4 = &wi[r * ic..(r + 4) * ic];
            let (i0, rest) = wi4.split_at(ic);
            let (i1, rest) = rest.split_at(ic);
            let (i2, i3) = rest.split_at(ic);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for j in 0..ic {
                let xj = x[j];
                a0 += i0[j] * xj;
                a1 += i1[j] * xj;
                a2 += i2[j] * xj;
                a3 += i3[j] * xj;
            }
            let s0 = b[r] + a0;
            let s1 = b[r + 1] + a1;
            let s2 = b[r + 2] + a2;
            let s3 = b[r + 3] + a3;
            let wh4 = &wh[r * hc..(r + 4) * hc];
            let (h0, rest) = wh4.split_at(hc);
            let (h1, rest) = rest.split_at(hc);
            let (h2, h3) = rest.split_at(hc);
            let (mut c0, mut c1, mut c2, mut c3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for j in 0..hc {
                let hj = h_prev[j];
                c0 += h0[j] * hj;
                c1 += h1[j] * hj;
                c2 += h2[j] * hj;
                c3 += h3[j] * hj;
            }
            block[0] = s0 + c0;
            block[1] = s1 + c1;
            block[2] = s2 + c2;
            block[3] = s3 + c3;
            r += 4;
        }
        for zr in blocks.into_remainder() {
            let mut a = 0.0f32;
            for (w, xi) in wi[r * ic..(r + 1) * ic].iter().zip(x) {
                a += w * xi;
            }
            let s = b[r] + a;
            let mut c = 0.0f32;
            for (w, hi) in wh[r * hc..(r + 1) * hc].iter().zip(h_prev) {
                c += w * hi;
            }
            *zr = s + c;
            r += 1;
        }
    }

    /// Batched fused gate pre-activations over `batch` lanes:
    /// `z[lane][r] = (b[r] + w_ih[r]·x[lane]) + w_hh[r]·h_prev[lane]`.
    ///
    /// `x` is `[batch × input]`, `h_prev` is `[batch × hidden]`, `z` is
    /// `[batch × 4·hidden]`, all row-major per lane. Built from two
    /// [`Mat::matmul_nt`] sweeps (the SIMD register-tile kernel) plus
    /// elementwise passes, composed in exactly the `gates_into` summation
    /// structure — `a = Σ_j w_ih·x`, then `s = b + a`, then
    /// `c = Σ_j w_hh·h`, then `z = s + c`, every sum strictly left to
    /// right — so per lane the result is bit-identical to the serial
    /// kernel.
    pub fn gates_batch_into(&self, x: &[f32], h_prev: &[f32], batch: usize, z: &mut [f32]) {
        let rows = 4 * self.hidden;
        debug_assert_eq!(x.len(), batch * self.input);
        debug_assert_eq!(h_prev.len(), batch * self.hidden);
        debug_assert_eq!(z.len(), batch * rows);
        if batch == 1 {
            return self.gates_into(x, h_prev, z);
        }
        let b = &self.b.value.data;
        // a = w_ih · x, then s = b + a (same operand order as gates_into).
        self.w_ih.value.matmul_nt(x, batch, z);
        for zl in z.chunks_exact_mut(rows) {
            for (zv, bv) in zl.iter_mut().zip(b) {
                *zv += bv;
            }
        }
        // c = w_hh · h_prev, then z = s + c. The buffer comes from the
        // kernel scratch pool — this runs per layer per token.
        let mut c = crate::tensor::take_scratch(batch * rows);
        self.w_hh.value.matmul_nt(h_prev, batch, &mut c);
        for (zv, cv) in z.iter_mut().zip(&c) {
            *zv += cv;
        }
        crate::tensor::put_scratch(c);
    }

    /// One batched inference step over `batch` lanes: `h_plane`/`c_plane`
    /// are the layer's `[batch × hidden]` state planes (read as previous,
    /// overwritten with the new state), `x` is `[batch × input]` and `z`
    /// is gate scratch of `[batch × 4·hidden]`. Per lane the elementwise
    /// gate math matches [`LstmLayer::infer_step_into`] exactly, so each
    /// lane's trajectory is bit-identical to a serial rollout of that lane.
    pub fn infer_step_batch_into(
        &self,
        x: &[f32],
        h_plane: &mut [f32],
        c_plane: &mut [f32],
        batch: usize,
        z: &mut [f32],
    ) {
        let h = self.hidden;
        self.gates_batch_into(x, h_plane, batch, z);
        for lane in 0..batch {
            let zl = &z[lane * 4 * h..(lane + 1) * 4 * h];
            let hl = &mut h_plane[lane * h..(lane + 1) * h];
            let cl = &mut c_plane[lane * h..(lane + 1) * h];
            for k in 0..h {
                let i = sigmoid(zl[k]);
                let f = sigmoid(zl[h + k]);
                let g = zl[2 * h + k].tanh();
                let o = sigmoid(zl[3 * h + k]);
                let c = f * cl[k] + i * g;
                cl[k] = c;
                hl[k] = o * c.tanh();
            }
        }
    }

    /// One batched **training** step over `batch` lanes: like
    /// [`LstmLayer::infer_step_batch_into`] but records each lane's
    /// backward cache in `caches[lane]`. Lanes not marked `active` still
    /// ride through the fused GEMM (their state slots are scratch once
    /// their episode has ended) but skip the cache write. Per active lane
    /// the recorded cache and new state are bit-identical to a serial
    /// [`LstmLayer::forward_step_into`] on that lane.
    #[allow(clippy::too_many_arguments)]
    pub fn forward_step_batch_into<C: std::borrow::BorrowMut<LstmCache>>(
        &self,
        x: &[f32],
        h_plane: &mut [f32],
        c_plane: &mut [f32],
        batch: usize,
        active: &[bool],
        caches: &mut [C],
        z: &mut [f32],
    ) {
        let h = self.hidden;
        debug_assert_eq!(active.len(), batch);
        debug_assert_eq!(caches.len(), batch);
        for lane in 0..batch {
            if !active[lane] {
                continue;
            }
            let cache = caches[lane].borrow_mut();
            copy_into(&mut cache.x, &x[lane * self.input..(lane + 1) * self.input]);
            copy_into(&mut cache.h_prev, &h_plane[lane * h..(lane + 1) * h]);
            copy_into(&mut cache.c_prev, &c_plane[lane * h..(lane + 1) * h]);
        }
        self.gates_batch_into(x, h_plane, batch, z);
        for lane in 0..batch {
            let zl = &z[lane * 4 * h..(lane + 1) * 4 * h];
            let hl = &mut h_plane[lane * h..(lane + 1) * h];
            let cl = &mut c_plane[lane * h..(lane + 1) * h];
            if active[lane] {
                let cache = caches[lane].borrow_mut();
                ensure_len(&mut cache.i, h);
                ensure_len(&mut cache.f, h);
                ensure_len(&mut cache.g, h);
                ensure_len(&mut cache.o, h);
                ensure_len(&mut cache.tanh_c, h);
                for k in 0..h {
                    let i = sigmoid(zl[k]);
                    let f = sigmoid(zl[h + k]);
                    let g = zl[2 * h + k].tanh();
                    let o = sigmoid(zl[3 * h + k]);
                    let c = f * cache.c_prev[k] + i * g;
                    let tc = c.tanh();
                    cache.i[k] = i;
                    cache.f[k] = f;
                    cache.g[k] = g;
                    cache.o[k] = o;
                    cache.tanh_c[k] = tc;
                    cl[k] = c;
                    hl[k] = o * tc;
                }
            } else {
                for k in 0..h {
                    let i = sigmoid(zl[k]);
                    let f = sigmoid(zl[h + k]);
                    let g = zl[2 * h + k].tanh();
                    let o = sigmoid(zl[3 * h + k]);
                    let c = f * cl[k] + i * g;
                    cl[k] = c;
                    hl[k] = o * c.tanh();
                }
            }
        }
    }

    /// One forward step writing into reusable buffers: `state` is read as
    /// the previous state and overwritten with the new one, `cache` is
    /// refilled for backprop, `z` is gate scratch of length `4 * hidden`.
    /// Steady state performs zero heap allocations.
    pub fn forward_step_into(
        &self,
        x: &[f32],
        state: &mut LstmState,
        cache: &mut LstmCache,
        z: &mut [f32],
    ) {
        let h = self.hidden;
        copy_into(&mut cache.x, x);
        copy_into(&mut cache.h_prev, &state.h);
        copy_into(&mut cache.c_prev, &state.c);
        self.gates_into(x, &cache.h_prev, z);
        ensure_len(&mut cache.i, h);
        ensure_len(&mut cache.f, h);
        ensure_len(&mut cache.g, h);
        ensure_len(&mut cache.o, h);
        ensure_len(&mut cache.tanh_c, h);
        for k in 0..h {
            let i = sigmoid(z[k]);
            let f = sigmoid(z[h + k]);
            let g = z[2 * h + k].tanh();
            let o = sigmoid(z[3 * h + k]);
            let c = f * cache.c_prev[k] + i * g;
            let tc = c.tanh();
            cache.i[k] = i;
            cache.f[k] = f;
            cache.g[k] = g;
            cache.o[k] = o;
            cache.tanh_c[k] = tc;
            state.c[k] = c;
            state.h[k] = o * tc;
        }
    }

    /// One forward step without a backward cache — the inference fast path.
    /// `state` is updated in place; `z` is gate scratch of length
    /// `4 * hidden`. No heap allocations.
    pub fn infer_step_into(&self, x: &[f32], state: &mut LstmState, z: &mut [f32]) {
        let h = self.hidden;
        self.gates_into(x, &state.h, z);
        for k in 0..h {
            let i = sigmoid(z[k]);
            let f = sigmoid(z[h + k]);
            let g = z[2 * h + k].tanh();
            let o = sigmoid(z[3 * h + k]);
            let c = f * state.c[k] + i * g;
            state.c[k] = c;
            state.h[k] = o * c.tanh();
        }
    }

    /// One forward step. Returns the new state and the backward cache.
    /// Allocating convenience wrapper over [`LstmLayer::forward_step_into`].
    pub fn forward_step(&self, x: &[f32], prev: &LstmState) -> (LstmState, LstmCache) {
        let mut state = prev.clone();
        let mut cache = LstmCache::default();
        let mut z = vec![0.0; 4 * self.hidden];
        self.forward_step_into(x, &mut state, &mut cache, &mut z);
        (state, cache)
    }

    /// Elementwise gate backward: consumes `dh`/`dc`, fills `dz` and
    /// updates `dc` in place to the step t-1 cell gradient. Shared by the
    /// serial and lane-batched backward paths so both run the identical
    /// f32 expression sequence per unit.
    #[inline]
    fn gate_backward(cache: &LstmCache, hidden: usize, dh: &[f32], dc: &mut [f32], dz: &mut [f32]) {
        let h = hidden;
        for k in 0..h {
            let do_ = dh[k] * cache.tanh_c[k];
            let dck = dc[k] + dh[k] * cache.o[k] * dtanh(cache.tanh_c[k]);
            let di = dck * cache.g[k];
            let df = dck * cache.c_prev[k];
            let dg = dck * cache.i[k];
            dc[k] = dck * cache.f[k];
            dz[k] = di * dsigmoid(cache.i[k]);
            dz[h + k] = df * dsigmoid(cache.f[k]);
            dz[2 * h + k] = dg * dtanh(cache.g[k]);
            dz[3 * h + k] = do_ * dsigmoid(cache.o[k]);
        }
    }

    /// Accumulates one step's parameter gradients from `dz` into external
    /// buffers (the per-lane arenas of the batched BPTT, or the layer's own
    /// `Param::grad` on the serial path — identical op sequence either way).
    #[inline]
    fn accumulate_param_grads(grads: &mut LstmLayerGrads, cache: &LstmCache, dz: &[f32]) {
        grads.w_ih.add_outer(dz, &cache.x);
        grads.w_hh.add_outer(dz, &cache.h_prev);
        for (g, d) in grads.b.data.iter_mut().zip(dz.iter()) {
            *g += d;
        }
    }

    /// Detached gradient buffers shaped like this layer's parameters.
    pub fn empty_grads(&self) -> LstmLayerGrads {
        LstmLayerGrads {
            w_ih: Mat::zeros(4 * self.hidden, self.input),
            w_hh: Mat::zeros(4 * self.hidden, self.hidden),
            b: Mat::zeros(4 * self.hidden, 1),
        }
    }

    /// One backward step into caller-provided buffers.
    ///
    /// `dh` is the loss gradient w.r.t. this step's output `h` **plus** the
    /// recurrent gradient flowing back from step t+1. `dc` holds the cell
    /// gradient from step t+1 on entry and the cell gradient for step t-1 on
    /// exit (updated in place). `dz` is scratch of length `4 * hidden`;
    /// `dx` (length `input`) and `dh_prev` (length `hidden`) are overwritten.
    /// Parameter gradients are accumulated.
    pub fn backward_step_into(
        &mut self,
        cache: &LstmCache,
        dh: &[f32],
        dc: &mut [f32],
        dz: &mut [f32],
        dx: &mut [f32],
        dh_prev: &mut [f32],
    ) {
        Self::gate_backward(cache, self.hidden, dh, dc, dz);
        self.w_ih.grad.add_outer(dz, &cache.x);
        self.w_hh.grad.add_outer(dz, &cache.h_prev);
        for (g, d) in self.b.grad.data.iter_mut().zip(dz.iter()) {
            *g += d;
        }
        dx.iter_mut().for_each(|v| *v = 0.0);
        self.w_ih.value.matvec_t_acc(dz, dx);
        dh_prev.iter_mut().for_each(|v| *v = 0.0);
        self.w_hh.value.matvec_t_acc(dz, dh_prev);
    }

    /// One backward step. Allocating wrapper over
    /// [`LstmLayer::backward_step_into`]; returns `(dx, dh_prev, dc_prev)`.
    pub fn backward_step(
        &mut self,
        cache: &LstmCache,
        dh: &[f32],
        dc_next: &[f32],
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let h = self.hidden;
        let mut dz = vec![0.0; 4 * h];
        let mut dc = dc_next.to_vec();
        let mut dx = vec![0.0; self.input];
        let mut dh_prev = vec![0.0; h];
        self.backward_step_into(cache, dh, &mut dc, &mut dz, &mut dx, &mut dh_prev);
        (dx, dh_prev, dc)
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w_ih, &mut self.w_hh, &mut self.b]
    }

    pub fn zero_grad(&mut self) {
        self.w_ih.zero_grad();
        self.w_hh.zero_grad();
        self.b.zero_grad();
    }

    pub fn restore_buffers(&mut self) {
        self.w_ih.restore_buffers();
        self.w_hh.restore_buffers();
        self.b.restore_buffers();
    }
}

/// A stack of LSTM layers (the paper uses 2 layers × 30 cells).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LstmStack {
    pub layers: Vec<LstmLayer>,
}

/// Hidden states for the whole stack.
pub type StackState = Vec<LstmState>;
/// Per-step caches for the whole stack.
pub type StackCache = Vec<LstmCache>;

impl LstmStack {
    /// `layers` LSTM layers: the first maps `input → hidden`, the rest
    /// `hidden → hidden`.
    pub fn new<R: Rng + ?Sized>(input: usize, hidden: usize, layers: usize, rng: &mut R) -> Self {
        assert!(layers >= 1);
        let mut v = Vec::with_capacity(layers);
        v.push(LstmLayer::new(input, hidden, rng));
        for _ in 1..layers {
            v.push(LstmLayer::new(hidden, hidden, rng));
        }
        LstmStack { layers: v }
    }

    pub fn hidden(&self) -> usize {
        self.layers[0].hidden
    }

    pub fn zero_state(&self) -> StackState {
        self.layers
            .iter()
            .map(|l| LstmState::zeros(l.hidden))
            .collect()
    }

    /// Resets `state` to zeros in place, (re)sizing it on first use so a
    /// single buffer can be recycled across episodes.
    pub fn reset_state(&self, state: &mut StackState) {
        if state.len() != self.layers.len() {
            *state = self.zero_state();
        } else {
            state.iter_mut().for_each(LstmState::reset);
        }
    }

    /// Zeroed batch state for `batch` concurrent lanes.
    pub fn zero_batch_state(&self, batch: usize) -> LstmBatchState {
        let mut state = LstmBatchState::default();
        self.reset_batch_state(&mut state, batch);
        state
    }

    /// Resets `state` to `batch` zeroed lanes in place, reusing its planes
    /// (a recycled rollout allocates nothing once its planes have grown).
    pub fn reset_batch_state(&self, state: &mut LstmBatchState, batch: usize) {
        let layers = self.layers.len();
        state.h.resize_with(layers, Vec::new);
        state.c.resize_with(layers, Vec::new);
        for (l, layer) in self.layers.iter().enumerate() {
            for plane in [&mut state.h[l], &mut state.c[l]] {
                plane.clear();
                plane.resize(batch * layer.hidden, 0.0);
            }
        }
        state.batch = batch;
    }

    /// Gate-scratch length for a `batch`-lane step (`batch × 4 × hidden`).
    pub fn batch_scratch_len(&self, batch: usize) -> usize {
        batch * self.scratch_len()
    }

    /// One batched inference step through all layers. `x` is the
    /// `[batch × input]` block, `z` gate scratch of
    /// [`LstmStack::batch_scratch_len`]. Layer `l + 1` reads layer `l`'s
    /// `h` plane in place; the top-layer outputs end up in
    /// `state.h.last()`. Lanes never mix: each lane's trajectory is
    /// bit-identical to running [`LstmStack::infer_step_into`] on that
    /// lane alone.
    pub fn infer_step_batch_into(&self, x: &[f32], state: &mut LstmBatchState, z: &mut [f32]) {
        debug_assert_eq!(state.h.len(), self.layers.len());
        let batch = state.batch;
        for (l, layer) in self.layers.iter().enumerate() {
            if l == 0 {
                layer.infer_step_batch_into(x, &mut state.h[0], &mut state.c[0], batch, z);
            } else {
                let (below, rest) = state.h.split_at_mut(l);
                layer.infer_step_batch_into(&below[l - 1], &mut rest[0], &mut state.c[l], batch, z);
            }
        }
    }

    /// An empty per-step cache with one slot per layer, for arena reuse.
    pub fn empty_cache(&self) -> StackCache {
        vec![LstmCache::default(); self.layers.len()]
    }

    /// Gate-scratch length shared by every layer (`4 * hidden`).
    pub fn scratch_len(&self) -> usize {
        4 * self.hidden()
    }

    /// Largest input dimension across layers (for sizing backward scratch).
    pub fn max_input(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.input.max(l.hidden))
            .max()
            .unwrap_or(0)
    }

    /// One forward step through all layers into reusable buffers. The
    /// top-layer output is left in `state.last().unwrap().h`; `caches` must
    /// have one slot per layer (see [`LstmStack::empty_cache`]); `z` is gate
    /// scratch of length [`LstmStack::scratch_len`]. Zero allocations in
    /// steady state.
    pub fn forward_step_into(
        &self,
        x: &[f32],
        state: &mut StackState,
        caches: &mut StackCache,
        z: &mut [f32],
    ) {
        debug_assert_eq!(caches.len(), self.layers.len());
        for (l, (layer, cache)) in self.layers.iter().zip(caches.iter_mut()).enumerate() {
            if l == 0 {
                layer.forward_step_into(x, &mut state[0], cache, z);
            } else {
                let (below, rest) = state.split_at_mut(l);
                layer.forward_step_into(&below[l - 1].h, &mut rest[0], cache, z);
            }
        }
    }

    /// One batched **training** step through all layers: like
    /// [`LstmStack::infer_step_batch_into`] but records backward caches in
    /// `caches[lane][layer]` for every lane marked `active`. Per active
    /// lane the caches and states are bit-identical to a serial
    /// [`LstmStack::forward_step_into`] on that lane alone.
    pub fn forward_step_batch_into<S: std::borrow::BorrowMut<StackCache>>(
        &self,
        x: &[f32],
        state: &mut LstmBatchState,
        active: &[bool],
        caches: &mut [S],
        z: &mut [f32],
    ) {
        debug_assert_eq!(state.h.len(), self.layers.len());
        debug_assert_eq!(caches.len(), state.batch);
        let batch = state.batch;
        for (l, layer) in self.layers.iter().enumerate() {
            let mut lc: Vec<&mut LstmCache> = caches
                .iter_mut()
                .map(|sc| &mut sc.borrow_mut()[l])
                .collect();
            if l == 0 {
                layer.forward_step_batch_into(
                    x,
                    &mut state.h[0],
                    &mut state.c[0],
                    batch,
                    active,
                    &mut lc,
                    z,
                );
            } else {
                let (below, rest) = state.h.split_at_mut(l);
                layer.forward_step_batch_into(
                    &below[l - 1],
                    &mut rest[0],
                    &mut state.c[l],
                    batch,
                    active,
                    &mut lc,
                    z,
                );
            }
        }
    }

    /// Per-lane gradient arenas shaped like this stack's parameters.
    pub fn empty_stack_grads(&self) -> LstmStackGrads {
        self.layers.iter().map(LstmLayer::empty_grads).collect()
    }

    /// Lane-batched backward through `batch` ragged sequences at once —
    /// the training sibling of the batched inference step.
    ///
    /// `steps[lane]` is lane `lane`'s episode length; the walk runs the
    /// global step index `s` from `max(steps) - 1` down to `0`, and a lane
    /// participates only while `s < steps[lane]` (every lane starts at
    /// step 0, so its local time axis coincides with `s` and its cache
    /// visit order matches a serial backward exactly). `cache_at(lane, s)`
    /// returns lane `lane`'s per-layer caches at step `s`; `dtop_at(lane,
    /// s)` its top-layer output gradient; `dx_sink(lane, s, dx)` receives
    /// its input gradient (valid only during the call).
    ///
    /// Parameter gradients go to the **per-lane** arenas in `grads`, not
    /// to `Param::grad`: per lane the elementwise gate backward and
    /// rank-1 updates run the identical op sequence as
    /// [`LstmStack::backward_sequence_with`], and the heavy `Wᵀ·dz`
    /// products are batched through [`Mat::matvec_t_batch`] (bit-identical
    /// per lane), so each arena equals a serial backward of that lane
    /// alone — the lane-vs-serial equality tests pin this down. The caller
    /// then reduces the arenas into `Param::grad` in ascending lane order.
    pub fn backward_sequence_batch_with<'c>(
        &self,
        batch: usize,
        steps: &[usize],
        cache_at: impl Fn(usize, usize) -> &'c [LstmCache],
        dtop_at: impl Fn(usize, usize) -> &'c [f32],
        mut dx_sink: impl FnMut(usize, usize, &[f32]),
        grads: &mut [LstmStackGrads],
    ) {
        debug_assert_eq!(steps.len(), batch);
        debug_assert_eq!(grads.len(), batch);
        let n_layers = self.layers.len();
        let hidden = self.hidden();
        let max_t = steps.iter().copied().max().unwrap_or(0);
        let max_in = self.max_input();
        let width = max_in.max(hidden);
        // Physical slot `p` hosts logical lane `order[p]`. The reverse
        // walk activates lanes as `s` drops below their length; with lanes
        // sorted by descending length the active set is always the prefix
        // `0..n_active`, so every kernel below runs at the live width and
        // finished lanes cost nothing.
        let order = ragged_order(steps);
        let mut dh_next: Vec<Vec<f32>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; batch * l.hidden])
            .collect();
        let mut dc_next: Vec<Vec<f32>> = self
            .layers
            .iter()
            .map(|l| vec![0.0; batch * l.hidden])
            .collect();
        let mut dh_down = vec![0.0; batch * width];
        let mut dh = vec![0.0; batch * hidden];
        let mut dz = vec![0.0; batch * 4 * hidden];
        let mut dx = vec![0.0; batch * max_in];
        let mut dh_prev = vec![0.0; batch * hidden];

        for s in (0..max_t).rev() {
            let n_active = order.iter().take_while(|&&l| steps[l] > s).count();
            for (p, &lane) in order[..n_active].iter().enumerate() {
                dh_down[p * hidden..(p + 1) * hidden].copy_from_slice(dtop_at(lane, s));
            }
            let mut down_len = hidden;
            for l in (0..n_layers).rev() {
                let lh = self.layers[l].hidden;
                debug_assert_eq!(down_len, lh);
                for (p, &lane) in order[..n_active].iter().enumerate() {
                    let dzl = &mut dz[p * 4 * lh..(p + 1) * 4 * lh];
                    let dhl = &mut dh[p * lh..(p + 1) * lh];
                    for ((a, b), c) in dhl
                        .iter_mut()
                        .zip(&dh_down[p * down_len..p * down_len + lh])
                        .zip(&dh_next[l][p * lh..(p + 1) * lh])
                    {
                        *a = b + c;
                    }
                    let cache = &cache_at(lane, s)[l];
                    LstmLayer::gate_backward(
                        cache,
                        lh,
                        dhl,
                        &mut dc_next[l][p * lh..(p + 1) * lh],
                        dzl,
                    );
                    LstmLayer::accumulate_param_grads(&mut grads[lane][l], cache, dzl);
                }
                let in_dim = self.layers[l].input;
                self.layers[l].w_ih.value.matvec_t_batch(
                    &dz[..n_active * 4 * lh],
                    n_active,
                    &mut dx[..n_active * in_dim],
                );
                self.layers[l].w_hh.value.matvec_t_batch(
                    &dz[..n_active * 4 * lh],
                    n_active,
                    &mut dh_prev[..n_active * lh],
                );
                // Slots past the prefix keep their zero init, which is
                // exactly the dh/dc a lane must see at its last step.
                dh_next[l][..n_active * lh].copy_from_slice(&dh_prev[..n_active * lh]);
                dh_down[..n_active * in_dim].copy_from_slice(&dx[..n_active * in_dim]);
                down_len = in_dim;
            }
            for (p, &lane) in order[..n_active].iter().enumerate() {
                dx_sink(lane, s, &dh_down[p * down_len..(p + 1) * down_len]);
            }
        }
    }

    /// One forward step with no backward caches — the inference fast path.
    /// The top-layer output is left in `state.last().unwrap().h`.
    pub fn infer_step_into(&self, x: &[f32], state: &mut StackState, z: &mut [f32]) {
        for (l, layer) in self.layers.iter().enumerate() {
            if l == 0 {
                layer.infer_step_into(x, &mut state[0], z);
            } else {
                let (below, rest) = state.split_at_mut(l);
                layer.infer_step_into(&below[l - 1].h, &mut rest[0], z);
            }
        }
    }

    /// One forward step through all layers; returns the top-layer output.
    /// Allocating wrapper over [`LstmStack::forward_step_into`].
    pub fn forward_step(&self, x: &[f32], state: &mut StackState) -> (Vec<f32>, StackCache) {
        let mut caches = self.empty_cache();
        let mut z = vec![0.0; self.scratch_len()];
        self.forward_step_into(x, state, &mut caches, &mut z);
        (state.last().expect("non-empty stack").h.clone(), caches)
    }

    /// Backward through a full sequence, streaming results instead of
    /// materializing them.
    ///
    /// `cache_at(t)` returns step `t`'s per-layer caches; `dtop_at(t)` the
    /// loss gradient w.r.t. the top-layer output at step `t`; `dx_sink(t,
    /// dx)` receives `dL/dx_t` (valid only during the call). All scratch is
    /// internal and sized once, so the per-step work is allocation-free.
    pub fn backward_sequence_with<'c>(
        &mut self,
        steps: usize,
        cache_at: impl Fn(usize) -> &'c [LstmCache],
        dtop_at: impl Fn(usize) -> &'c [f32],
        mut dx_sink: impl FnMut(usize, &[f32]),
    ) {
        let n_layers = self.layers.len();
        let hidden = self.hidden();
        // Recurrent gradients flowing right-to-left, per layer.
        let mut dh_next: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.hidden]).collect();
        let mut dc_next: Vec<Vec<f32>> = self.layers.iter().map(|l| vec![0.0; l.hidden]).collect();
        let max_in = self.max_input();
        let mut dh_down = vec![0.0; max_in.max(hidden)];
        let mut dh = vec![0.0; hidden];
        let mut dz = vec![0.0; 4 * hidden];
        let mut dx = vec![0.0; max_in];
        let mut dh_prev = vec![0.0; hidden];

        for t in (0..steps).rev() {
            let caches = cache_at(t);
            // Gradient w.r.t. the current layer's output; starts at the top.
            dh_down[..hidden].copy_from_slice(dtop_at(t));
            let mut down_len = hidden;
            for l in (0..n_layers).rev() {
                for ((a, b), c) in dh.iter_mut().zip(&dh_down[..down_len]).zip(&dh_next[l]) {
                    *a = b + c;
                }
                let in_dim = self.layers[l].input;
                self.layers[l].backward_step_into(
                    &caches[l],
                    &dh,
                    &mut dc_next[l],
                    &mut dz,
                    &mut dx[..in_dim],
                    &mut dh_prev,
                );
                dh_next[l].copy_from_slice(&dh_prev);
                // dx becomes the output-gradient of the layer below.
                dh_down[..in_dim].copy_from_slice(&dx[..in_dim]);
                down_len = in_dim;
            }
            dx_sink(t, &dh_down[..down_len]);
        }
    }

    /// Backward through a full sequence.
    ///
    /// `caches[t]` is the cache of step `t`; `dtop[t]` is the loss gradient
    /// w.r.t. the top-layer output at step `t`. Returns `dL/dx_t` for every
    /// step (for the embedding below).
    pub fn backward_sequence(&mut self, caches: &[StackCache], dtop: &[Vec<f32>]) -> Vec<Vec<f32>> {
        assert_eq!(caches.len(), dtop.len());
        let mut dx_out = vec![Vec::new(); caches.len()];
        self.backward_sequence_with(
            caches.len(),
            |t| &caches[t][..],
            |t| &dtop[t][..],
            |t, dx| dx_out[t] = dx.to_vec(),
        );
        dx_out
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    pub fn zero_grad(&mut self) {
        self.layers.iter_mut().for_each(LstmLayer::zero_grad);
    }

    pub fn restore_buffers(&mut self) {
        self.layers.iter_mut().for_each(LstmLayer::restore_buffers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Optimizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs a full sequence and returns a scalar loss: the dot product of
    /// each step's top output with fixed coefficients.
    fn seq_loss(stack: &LstmStack, xs: &[Vec<f32>], coef: &[f32]) -> f32 {
        let mut state = stack.zero_state();
        let mut loss = 0.0;
        for x in xs {
            let (top, _) = stack.forward_step(x, &mut state);
            loss += top.iter().zip(coef).map(|(a, b)| a * b).sum::<f32>();
        }
        loss
    }

    #[test]
    fn forward_shapes_and_state_evolution() {
        let mut rng = StdRng::seed_from_u64(1);
        let stack = LstmStack::new(3, 4, 2, &mut rng);
        let mut state = stack.zero_state();
        let (out, caches) = stack.forward_step(&[0.1, -0.2, 0.3], &mut state);
        assert_eq!(out.len(), 4);
        assert_eq!(caches.len(), 2);
        assert_ne!(state[0].h, vec![0.0; 4]);
        // Second step changes the state further.
        let h1 = state[1].h.clone();
        stack.forward_step(&[0.1, -0.2, 0.3], &mut state);
        assert_ne!(state[1].h, h1);
    }

    #[test]
    fn bptt_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut stack = LstmStack::new(2, 3, 2, &mut rng);
        let xs: Vec<Vec<f32>> = vec![
            vec![0.5, -0.3],
            vec![-0.1, 0.8],
            vec![0.2, 0.2],
            vec![-0.6, 0.4],
        ];
        let coef = [1.0, -0.5, 0.7];

        // Analytic gradients.
        stack.zero_grad();
        let mut state = stack.zero_state();
        let mut caches = Vec::new();
        for x in &xs {
            let (_, c) = stack.forward_step(x, &mut state);
            caches.push(c);
        }
        let dtop: Vec<Vec<f32>> = xs.iter().map(|_| coef.to_vec()).collect();
        let dxs = stack.backward_sequence(&caches, &dtop);

        // Numeric check on a sample of parameters from every tensor.
        fn tensor_of(l: &mut LstmLayer, t: usize) -> &mut crate::param::Param {
            match t {
                0 => &mut l.w_ih,
                1 => &mut l.w_hh,
                _ => &mut l.b,
            }
        }
        let eps = 1e-3;
        for layer_idx in 0..2 {
            for tensor in 0..3 {
                let len = tensor_of(&mut stack.layers[layer_idx], tensor)
                    .value
                    .data
                    .len();
                for &i in &[0usize, len / 2, len - 1] {
                    let analytic = tensor_of(&mut stack.layers[layer_idx], tensor).grad.data[i];
                    let orig = tensor_of(&mut stack.layers[layer_idx], tensor).value.data[i];
                    tensor_of(&mut stack.layers[layer_idx], tensor).value.data[i] = orig + eps;
                    let up = seq_loss(&stack, &xs, &coef);
                    tensor_of(&mut stack.layers[layer_idx], tensor).value.data[i] = orig - eps;
                    let dn = seq_loss(&stack, &xs, &coef);
                    tensor_of(&mut stack.layers[layer_idx], tensor).value.data[i] = orig;
                    let num = (up - dn) / (2.0 * eps);
                    assert!(
                        (num - analytic).abs() < 2e-2,
                        "layer {layer_idx} tensor {tensor} idx {i}: \
                         numeric {num} vs analytic {analytic}"
                    );
                }
            }
        }

        // Input gradients on step 0.
        for i in 0..2 {
            let mut xp = xs.clone();
            xp[0][i] += eps;
            let up = seq_loss(&stack, &xp, &coef);
            xp[0][i] -= 2.0 * eps;
            let dn = seq_loss(&stack, &xp, &coef);
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (num - dxs[0][i]).abs() < 2e-2,
                "dx[0][{i}]: numeric {num} vs analytic {}",
                dxs[0][i]
            );
        }
    }

    /// Reference step written the pre-fusion way: three separate kernels,
    /// fresh buffers. The fused path must match it within 1e-5 (it is in
    /// fact bit-identical; the tolerance guards the test contract from
    /// ISSUE 2 if the kernels ever legitimately reassociate).
    fn naive_forward_step(layer: &LstmLayer, x: &[f32], prev: &LstmState) -> (LstmState, Vec<f32>) {
        let h = layer.hidden;
        let mut z = layer.b.value.data.clone();
        let mut tmp = vec![0.0; 4 * h];
        layer.w_ih.value.matvec(x, &mut tmp);
        for (zi, t) in z.iter_mut().zip(&tmp) {
            *zi += t;
        }
        layer.w_hh.value.matvec(&prev.h, &mut tmp);
        for (zi, t) in z.iter_mut().zip(&tmp) {
            *zi += t;
        }
        let mut c = vec![0.0; h];
        let mut h_new = vec![0.0; h];
        for k in 0..h {
            let i = sigmoid(z[k]);
            let f = sigmoid(z[h + k]);
            let g = z[2 * h + k].tanh();
            let o = sigmoid(z[3 * h + k]);
            c[k] = f * prev.c[k] + i * g;
            h_new[k] = o * c[k].tanh();
        }
        (LstmState { h: h_new, c }, z)
    }

    #[test]
    fn fused_forward_matches_naive_step() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(input, hidden) in &[(3, 4), (5, 5), (7, 6), (16, 16)] {
            let layer = LstmLayer::new(input, hidden, &mut rng);
            let mut state = LstmState::zeros(hidden);
            let mut cache = LstmCache::default();
            let mut z = vec![0.0; 4 * hidden];
            let mut naive_state = LstmState::zeros(hidden);
            for step in 0..6 {
                let x: Vec<f32> = (0..input).map(|_| rng.random_range(-1.0f32..1.0)).collect();
                let (next, _) = naive_forward_step(&layer, &x, &naive_state);
                naive_state = next;
                layer.forward_step_into(&x, &mut state, &mut cache, &mut z);
                for k in 0..hidden {
                    assert!(
                        (state.h[k] - naive_state.h[k]).abs() < 1e-5
                            && (state.c[k] - naive_state.c[k]).abs() < 1e-5,
                        "fused/naive divergence at step {step} unit {k}"
                    );
                }
                // The fast paths share the gate kernel, so the bitwise
                // check is the real assertion.
                assert_eq!(state.h, naive_state.h, "h not bit-identical");
                assert_eq!(state.c, naive_state.c, "c not bit-identical");
            }
        }
    }

    /// The cacheless inference step and the caching training step must
    /// produce the same state trajectory.
    #[test]
    fn infer_step_matches_forward_step() {
        let mut rng = StdRng::seed_from_u64(13);
        let stack = LstmStack::new(6, 8, 2, &mut rng);
        let mut train_state = stack.zero_state();
        let mut infer_state = stack.zero_state();
        let mut caches = stack.empty_cache();
        let mut z = vec![0.0; stack.scratch_len()];
        for _ in 0..5 {
            let x: Vec<f32> = (0..6).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            stack.forward_step_into(&x, &mut train_state, &mut caches, &mut z);
            stack.infer_step_into(&x, &mut infer_state, &mut z);
            for (a, b) in train_state.iter().zip(&infer_state) {
                assert_eq!(a.h, b.h);
                assert_eq!(a.c, b.c);
            }
        }
    }

    /// Streaming backward must equal the allocating wrapper (which the
    /// finite-difference test already validates).
    #[test]
    fn fused_backward_matches_naive_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut stack = LstmStack::new(4, 5, 2, &mut rng);
        let xs: Vec<Vec<f32>> = (0..7)
            .map(|_| (0..4).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();
        let mut state = stack.zero_state();
        let mut caches = Vec::new();
        for x in &xs {
            let (_, c) = stack.forward_step(x, &mut state);
            caches.push(c);
        }
        let dtop: Vec<Vec<f32>> = (0..xs.len())
            .map(|_| (0..5).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect();

        stack.zero_grad();
        let dxs_wrapper = stack.backward_sequence(&caches, &dtop);
        let grads_wrapper: Vec<Vec<f32>> = stack
            .layers
            .iter()
            .flat_map(|l| {
                [
                    l.w_ih.grad.data.clone(),
                    l.w_hh.grad.data.clone(),
                    l.b.grad.data.clone(),
                ]
            })
            .collect();

        stack.zero_grad();
        let mut dxs_stream = vec![Vec::new(); xs.len()];
        stack.backward_sequence_with(
            xs.len(),
            |t| &caches[t][..],
            |t| &dtop[t][..],
            |t, dx| dxs_stream[t] = dx.to_vec(),
        );
        let grads_stream: Vec<Vec<f32>> = stack
            .layers
            .iter()
            .flat_map(|l| {
                [
                    l.w_ih.grad.data.clone(),
                    l.w_hh.grad.data.clone(),
                    l.b.grad.data.clone(),
                ]
            })
            .collect();

        for (a, b) in dxs_wrapper.iter().zip(&dxs_stream) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5);
            }
            assert_eq!(a, b);
        }
        for (a, b) in grads_wrapper.iter().zip(&grads_stream) {
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-5);
            }
            assert_eq!(a, b);
        }
    }

    /// The batched inference step must be bit-identical, per lane, to `B`
    /// independent serial `infer_step_into` trajectories — the determinism
    /// contract of the batched generation engine.
    #[test]
    fn batch_infer_matches_independent_serial_lanes_bitwise() {
        let mut rng = StdRng::seed_from_u64(23);
        for &(input, hidden, layers) in &[(3, 4, 1), (5, 6, 2), (16, 16, 2), (7, 5, 3)] {
            for &batch in &[1usize, 2, 4, 8] {
                let stack = LstmStack::new(input, hidden, layers, &mut rng);
                let mut bstate = stack.zero_batch_state(batch);
                let mut serial: Vec<StackState> = (0..batch).map(|_| stack.zero_state()).collect();
                let mut z = vec![0.0; stack.batch_scratch_len(batch)];
                let mut zs = vec![0.0; stack.scratch_len()];
                for _ in 0..5 {
                    let x: Vec<f32> = (0..batch * input)
                        .map(|_| rng.random_range(-1.0f32..1.0))
                        .collect();
                    stack.infer_step_batch_into(&x, &mut bstate, &mut z);
                    for (lane, st) in serial.iter_mut().enumerate() {
                        stack.infer_step_into(&x[lane * input..(lane + 1) * input], st, &mut zs);
                        for (l, layer) in st.iter().enumerate() {
                            assert_eq!(bstate.lane_h(l, lane), &layer.h[..], "h lane {lane}");
                            assert_eq!(bstate.lane_c(l, lane), &layer.c[..], "c lane {lane}");
                        }
                    }
                }
            }
        }
    }

    /// Lane refill: resetting one lane mid-stream zeroes only that lane;
    /// its neighbours continue bit-identically to uninterrupted serial
    /// runs, and the reset lane restarts from the zero state exactly.
    #[test]
    fn reset_lane_is_isolated() {
        let mut rng = StdRng::seed_from_u64(29);
        let (input, hidden, layers, batch) = (4, 6, 2, 3);
        let stack = LstmStack::new(input, hidden, layers, &mut rng);
        let mut bstate = stack.zero_batch_state(batch);
        let mut serial: Vec<StackState> = (0..batch).map(|_| stack.zero_state()).collect();
        let mut z = vec![0.0; stack.batch_scratch_len(batch)];
        let mut zs = vec![0.0; stack.scratch_len()];
        let xs: Vec<Vec<f32>> = (0..6)
            .map(|_| {
                (0..batch * input)
                    .map(|_| rng.random_range(-1.0f32..1.0))
                    .collect()
            })
            .collect();
        for (t, x) in xs.iter().enumerate() {
            if t == 3 {
                // Lane 1 finished its query and is refilled.
                bstate.reset_lane(1);
                serial[1] = stack.zero_state();
            }
            stack.infer_step_batch_into(x, &mut bstate, &mut z);
            for (lane, st) in serial.iter_mut().enumerate() {
                stack.infer_step_into(&x[lane * input..(lane + 1) * input], st, &mut zs);
                for (l, layer) in st.iter().enumerate() {
                    assert_eq!(bstate.lane_h(l, lane), &layer.h[..], "t {t} lane {lane}");
                    assert_eq!(bstate.lane_c(l, lane), &layer.c[..], "t {t} lane {lane}");
                }
            }
        }
    }

    #[test]
    fn can_learn_to_remember_first_token() {
        // Task: output at the last step should equal the first input's sign.
        // A pure recurrence test: the LSTM must carry information across
        // 5 steps of noise.
        let mut rng = StdRng::seed_from_u64(3);
        let mut stack = LstmStack::new(1, 8, 1, &mut rng);
        let mut head = crate::linear::Linear::new(8, 1, &mut rng);
        let mut adam = crate::param::Adam::new(0.02);

        let mut losses = Vec::new();
        for epoch in 0..300 {
            let sign = if epoch % 2 == 0 { 1.0f32 } else { -1.0 };
            let mut xs = vec![vec![sign]];
            for k in 0..5 {
                xs.push(vec![((k * 37 + epoch) % 7) as f32 / 7.0 - 0.5]);
            }
            stack.zero_grad();
            head.zero_grad();
            let mut state = stack.zero_state();
            let mut caches = Vec::new();
            let mut last_top = Vec::new();
            for x in &xs {
                let (top, c) = stack.forward_step(x, &mut state);
                last_top = top;
                caches.push(c);
            }
            let y = head.forward(&last_top)[0];
            let err = y - sign;
            losses.push(err * err);
            let dtop_last = head.backward(&last_top, &[2.0 * err]);
            let mut dtop: Vec<Vec<f32>> = xs.iter().map(|_| vec![0.0; 8]).collect();
            *dtop.last_mut().unwrap() = dtop_last;
            stack.backward_sequence(&caches, &dtop);
            let mut params = stack.params_mut();
            params.extend(head.params_mut());
            adam.step(&mut params);
        }
        let early: f32 = losses[..20].iter().sum::<f32>() / 20.0;
        let late: f32 = losses[losses.len() - 20..].iter().sum::<f32>() / 20.0;
        assert!(
            late < early * 0.2,
            "LSTM failed to learn: early {early}, late {late}"
        );
    }

    /// Ragged lane-batched training forward + BPTT must be bit-identical,
    /// per lane, to a serial forward/backward of that lane's episode alone
    /// — the gradient-side determinism contract of batched training.
    #[test]
    fn batched_bptt_matches_serial_lanes_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for &(input, hidden, layers) in &[(3, 4, 1), (5, 6, 2), (16, 16, 2)] {
            let batch = 4usize;
            let steps = [5usize, 2, 4, 1];
            let max_t = 5usize;
            let stack = LstmStack::new(input, hidden, layers, &mut rng);
            let xs: Vec<Vec<f32>> = (0..max_t)
                .map(|_| {
                    (0..batch * input)
                        .map(|_| rng.random_range(-1.0f32..1.0))
                        .collect()
                })
                .collect();
            let dtops: Vec<Vec<f32>> = (0..max_t)
                .map(|_| {
                    (0..batch * hidden)
                        .map(|_| rng.random_range(-1.0f32..1.0))
                        .collect()
                })
                .collect();

            // Batched forward with ragged active flags.
            let mut bstate = stack.zero_batch_state(batch);
            let mut arena: Vec<Vec<StackCache>> = (0..batch)
                .map(|lane| (0..steps[lane]).map(|_| stack.empty_cache()).collect())
                .collect();
            let mut z = vec![0.0; stack.batch_scratch_len(batch)];
            for (t, x) in xs.iter().enumerate() {
                let active: Vec<bool> = steps.iter().map(|&n| t < n).collect();
                // Collect this step's cache slot per active lane.
                let mut slots: Vec<StackCache> = (0..batch).map(|_| stack.empty_cache()).collect();
                stack.forward_step_batch_into(x, &mut bstate, &active, &mut slots, &mut z);
                for (lane, slot) in slots.into_iter().enumerate() {
                    if active[lane] {
                        arena[lane][t] = slot;
                    }
                }
            }

            // Batched backward into per-lane arenas.
            let mut grads: Vec<LstmStackGrads> =
                (0..batch).map(|_| stack.empty_stack_grads()).collect();
            let mut dxs_batch: Vec<Vec<Vec<f32>>> = (0..batch)
                .map(|lane| vec![Vec::new(); steps[lane]])
                .collect();
            stack.backward_sequence_batch_with(
                batch,
                &steps,
                |lane, s| &arena[lane][s][..],
                |lane, s| &dtops[s][lane * hidden..(lane + 1) * hidden],
                |lane, s, dx| dxs_batch[lane][s] = dx.to_vec(),
                &mut grads,
            );

            // Serial reference per lane.
            for lane in 0..batch {
                let mut sstack = stack.clone();
                sstack.zero_grad();
                let mut state = sstack.zero_state();
                let mut caches = Vec::new();
                for x in xs.iter().take(steps[lane]) {
                    let (_, c) =
                        sstack.forward_step(&x[lane * input..(lane + 1) * input], &mut state);
                    caches.push(c);
                }
                // Forward caches must match the batched arena bitwise.
                for (t, (a, b)) in arena[lane].iter().zip(&caches).enumerate() {
                    for (ca, cb) in a.iter().zip(b) {
                        assert_eq!(ca.x, cb.x, "lane {lane} t {t} x");
                        assert_eq!(ca.h_prev, cb.h_prev, "lane {lane} t {t} h_prev");
                        assert_eq!(ca.c_prev, cb.c_prev, "lane {lane} t {t} c_prev");
                        assert_eq!(ca.i, cb.i, "lane {lane} t {t} i");
                        assert_eq!(ca.tanh_c, cb.tanh_c, "lane {lane} t {t} tanh_c");
                    }
                }
                let dtop: Vec<Vec<f32>> = (0..steps[lane])
                    .map(|t| dtops[t][lane * hidden..(lane + 1) * hidden].to_vec())
                    .collect();
                let dxs = sstack.backward_sequence(&caches, &dtop);
                for (t, (a, b)) in dxs_batch[lane].iter().zip(&dxs).enumerate() {
                    assert_eq!(
                        a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "dx lane {lane} t {t}"
                    );
                }
                for (l, (g, sl)) in grads[lane].iter().zip(&sstack.layers).enumerate() {
                    assert_eq!(g.w_ih.data, sl.w_ih.grad.data, "lane {lane} layer {l} w_ih");
                    assert_eq!(g.w_hh.data, sl.w_hh.grad.data, "lane {lane} layer {l} w_hh");
                    assert_eq!(g.b.data, sl.b.grad.data, "lane {lane} layer {l} b");
                }
            }
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let l = LstmLayer::new(2, 3, &mut rng);
        assert_eq!(&l.b.value.data[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&l.b.value.data[0..3], &[0.0, 0.0, 0.0]);
    }
}
