//! Int8 quantized inference kernels.
//!
//! Weights are quantized **per output channel** (one symmetric scale per
//! matrix row): `q[r][j] = round(w[r][j] / scale[r])` clamped to ±127 with
//! `scale[r] = max_j |w[r][j]| / 127`. Per-row scales matter because the
//! rows of a trained weight matrix have very different dynamic ranges (a
//! single per-tensor scale would crush the small rows to a handful of
//! levels); per-row scaling keeps the worst-case dequantization error of
//! every row at `scale[r] / 2 ≈ max|w| / 254` of *that row's* range.
//!
//! The kernels accumulate `Σ_j (q[r][j] as f32) · x[j]` strictly left to
//! right and multiply by `scale[r]` once at the end, so the batched tile
//! kernel is bit-identical per lane to the serial [`QuantizedMat::matvec_q8`]
//! — the same determinism contract the f32 kernels in [`crate::tensor`]
//! uphold. The absolute logit error against the f32 reference is bounded by
//! `|Δy_r| ≤ (scale[r] / 2) · ‖x‖₁` (each weight is off by at most half a
//! quantization step), which the `quant-error` fuzz family checks per layer.
//!
//! Quantization is an inference-only format: training stays f32, and a
//! checkpoint is quantized *at load time* (behind `GenConfig::quantize`),
//! so the on-disk format and the default serving path are unchanged.

use crate::linear::Linear;
use crate::lstm::{LstmBatchState, LstmLayer, LstmStack};
use crate::tensor::{put_scratch, sigmoid, transpose_lanes, Mat};

/// A dense `rows × cols` int8 matrix with one symmetric scale per row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMat {
    pub rows: usize,
    pub cols: usize,
    /// Row-major quantized weights, `q[r][j] ∈ [-127, 127]`.
    pub data: Vec<i8>,
    /// Per-output-channel dequantization scales, `len == rows`.
    pub scales: Vec<f32>,
}

impl QuantizedMat {
    /// Quantizes an f32 matrix row by row. All-zero rows get scale 0 so
    /// they dequantize to exactly zero.
    pub fn from_mat(m: &Mat) -> Self {
        let mut data = Vec::with_capacity(m.data.len());
        let mut scales = Vec::with_capacity(m.rows);
        for r in 0..m.rows {
            let row = m.row(r);
            let max_abs = row.iter().fold(0.0f32, |a, &w| a.max(w.abs()));
            if max_abs == 0.0 {
                scales.push(0.0);
                data.extend(std::iter::repeat_n(0i8, m.cols));
                continue;
            }
            let scale = max_abs / 127.0;
            scales.push(scale);
            for &w in row {
                let q = (w / scale).round().clamp(-127.0, 127.0);
                data.push(q as i8);
            }
        }
        QuantizedMat {
            rows: m.rows,
            cols: m.cols,
            data,
            scales,
        }
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[i8] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Dequantized copy (reference/diagnostics; the kernels never build it).
    pub fn dequantize(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let s = self.scales[r];
            for (o, &q) in m.row_mut(r).iter_mut().zip(self.row(r)) {
                *o = q as f32 * s;
            }
        }
        m
    }

    /// Worst-case absolute error of output row `r` against the f32 matvec,
    /// given the L1 norm of the input: every weight is off by at most half
    /// a quantization step, so `|Δy_r| ≤ (scale[r] / 2) · ‖x‖₁`.
    #[inline]
    pub fn row_error_bound(&self, r: usize, x_l1: f32) -> f32 {
        0.5 * self.scales[r] * x_l1
    }

    /// One output row: `Σ_j (q[r][j] as f32) · x[j]`, strictly left to
    /// right, times `scale[r]`. This scalar loop *is* the reference
    /// accumulation order every other q8 kernel must reproduce bitwise.
    #[inline]
    pub fn row_dot_q8(&self, r: usize, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.cols);
        let mut acc = 0.0f32;
        for (&q, &xj) in self.row(r).iter().zip(x) {
            acc += q as f32 * xj;
        }
        acc * self.scales[r]
    }

    /// `out = self · x` (quantized matrix-vector). Mirrors
    /// [`Mat::matvec`]'s four-row blocking; per row the accumulation order
    /// is identical to [`QuantizedMat::row_dot_q8`], so results are
    /// bit-identical to it.
    pub fn matvec_q8(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.cols);
        debug_assert_eq!(out.len(), self.rows);
        let cols = self.cols;
        let mut blocks = out.chunks_exact_mut(4);
        let mut r = 0usize;
        for block in &mut blocks {
            let base = r * cols;
            let rows = &self.data[base..base + 4 * cols];
            let (r0, rest) = rows.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for j in 0..cols {
                let xj = x[j];
                a0 += r0[j] as f32 * xj;
                a1 += r1[j] as f32 * xj;
                a2 += r2[j] as f32 * xj;
                a3 += r3[j] as f32 * xj;
            }
            block[0] = a0 * self.scales[r];
            block[1] = a1 * self.scales[r + 1];
            block[2] = a2 * self.scales[r + 2];
            block[3] = a3 * self.scales[r + 3];
            r += 4;
        }
        for o in blocks.into_remainder() {
            *o = self.row_dot_q8(r, x);
            r += 1;
        }
    }

    /// `out = x · selfᵀ` for a row-major batch — the quantized sibling of
    /// [`Mat::matmul_nt`], with the same lane-minor transpose and 8/4/1
    /// register tiling. Per lane the result is bit-identical to
    /// [`QuantizedMat::matvec_q8`] on that lane's input.
    pub fn matmul_nt_q8(&self, x: &[f32], batch: usize, out: &mut [f32]) {
        debug_assert_eq!(x.len(), batch * self.cols);
        debug_assert_eq!(out.len(), batch * self.rows);
        if batch == 1 {
            return self.matvec_q8(x, out);
        }
        let xt = transpose_lanes(x, batch, self.cols);
        let mut lane0 = 0usize;
        while batch - lane0 >= 8 {
            self.matmul_tile_q8::<8>(&xt, batch, lane0, out);
            lane0 += 8;
        }
        while batch - lane0 >= 4 {
            self.matmul_tile_q8::<4>(&xt, batch, lane0, out);
            lane0 += 4;
        }
        while lane0 < batch {
            self.matmul_tile_q8::<1>(&xt, batch, lane0, out);
            lane0 += 1;
        }
        put_scratch(xt);
    }

    /// Register tile of [`QuantizedMat::matmul_nt_q8`]; the scale multiply
    /// happens once per `(lane, row)` element after the integer-weight
    /// accumulation, exactly as in the serial kernel.
    fn matmul_tile_q8<const W: usize>(
        &self,
        xt: &[f32],
        batch: usize,
        lane0: usize,
        out: &mut [f32],
    ) {
        let (rows, cols) = (self.rows, self.cols);
        let tile = |j: usize| -> &[f32; W] {
            xt[j * batch + lane0..j * batch + lane0 + W]
                .try_into()
                .expect("tile width")
        };
        let mut r = 0usize;
        while r + 4 <= rows {
            let block = &self.data[r * cols..(r + 4) * cols];
            let (r0, rest) = block.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let mut a0 = [0.0f32; W];
            let mut a1 = [0.0f32; W];
            let mut a2 = [0.0f32; W];
            let mut a3 = [0.0f32; W];
            for j in 0..cols {
                let xv = tile(j);
                let (w0, w1, w2, w3) = (r0[j] as f32, r1[j] as f32, r2[j] as f32, r3[j] as f32);
                for (a, &xk) in a0.iter_mut().zip(xv) {
                    *a += w0 * xk;
                }
                for (a, &xk) in a1.iter_mut().zip(xv) {
                    *a += w1 * xk;
                }
                for (a, &xk) in a2.iter_mut().zip(xv) {
                    *a += w2 * xk;
                }
                for (a, &xk) in a3.iter_mut().zip(xv) {
                    *a += w3 * xk;
                }
            }
            let (s0, s1, s2, s3) = (
                self.scales[r],
                self.scales[r + 1],
                self.scales[r + 2],
                self.scales[r + 3],
            );
            for k in 0..W {
                let o = &mut out[(lane0 + k) * rows + r..(lane0 + k) * rows + r + 4];
                o[0] = a0[k] * s0;
                o[1] = a1[k] * s1;
                o[2] = a2[k] * s2;
                o[3] = a3[k] * s3;
            }
            r += 4;
        }
        while r < rows {
            let row = self.row(r);
            let mut a = [0.0f32; W];
            for (j, &q) in row.iter().enumerate() {
                let w = q as f32;
                for (ak, &xk) in a.iter_mut().zip(tile(j)) {
                    *ak += w * xk;
                }
            }
            for (k, &v) in a.iter().enumerate() {
                out[(lane0 + k) * rows + r] = v * self.scales[r];
            }
            r += 1;
        }
    }
}

/// Quantized `y = Wq·x + b`. The bias stays f32 — it is `out`-sized (tiny)
/// and quantizing it would add error for zero bandwidth savings.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    pub w: QuantizedMat,
    pub b: Vec<f32>,
}

impl QuantizedLinear {
    pub fn from_linear(l: &Linear) -> Self {
        QuantizedLinear {
            w: QuantizedMat::from_mat(&l.w.value),
            b: l.b.value.data.clone(),
        }
    }

    pub fn output_dim(&self) -> usize {
        self.w.rows
    }

    /// Dense forward into a caller buffer (matvec-then-bias, like
    /// [`Linear::forward_into`]).
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.w.matvec_q8(x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b) {
            *yi += bi;
        }
    }

    /// Masked head evaluation over an explicit admissible-row list:
    /// `y[k] = w[ids[k]]·x + b[ids[k]]`, the dense row math for just those
    /// rows. The FSM mask admits a handful of tokens per step out of a
    /// vocabulary of hundreds, and the sampler never reads inadmissible
    /// logits, so skipping them is exact — this row-skip (not int8
    /// arithmetic per se) is where the quantized head earns most of its
    /// speedup. With `softmax_dense` downstream no full-vocabulary sweep
    /// is left on the quantized sampling path.
    pub fn forward_ids_into(&self, x: &[f32], ids: &[usize], y: &mut [f32]) {
        debug_assert_eq!(ids.len(), y.len());
        for (yk, &r) in y.iter_mut().zip(ids) {
            *yk = self.w.row_dot_q8(r, x) + self.b[r];
        }
    }
}

/// One quantized LSTM layer: `w_ih`/`w_hh` are int8, the bias stays f32.
#[derive(Debug, Clone)]
pub struct QuantizedLstmLayer {
    pub input: usize,
    pub hidden: usize,
    pub w_ih: QuantizedMat,
    pub w_hh: QuantizedMat,
    pub b: Vec<f32>,
}

impl QuantizedLstmLayer {
    pub fn from_layer(l: &LstmLayer) -> Self {
        QuantizedLstmLayer {
            input: l.input,
            hidden: l.hidden,
            w_ih: QuantizedMat::from_mat(&l.w_ih.value),
            w_hh: QuantizedMat::from_mat(&l.w_hh.value),
            b: l.b.value.data.clone(),
        }
    }

    /// Batched gate pre-activations, composed like
    /// [`LstmLayer::gates_batch_into`]: `z = w_ih·x`, `z += b`,
    /// `tmp = w_hh·h_prev`, `z += tmp`. `tmp` is caller scratch of
    /// `batch × 4·hidden` so the step is allocation-free.
    pub fn gates_batch_into(
        &self,
        x: &[f32],
        h_prev: &[f32],
        batch: usize,
        z: &mut [f32],
        tmp: &mut [f32],
    ) {
        let rows = 4 * self.hidden;
        debug_assert_eq!(x.len(), batch * self.input);
        debug_assert_eq!(h_prev.len(), batch * self.hidden);
        debug_assert_eq!(z.len(), batch * rows);
        debug_assert_eq!(tmp.len(), batch * rows);
        self.w_ih.matmul_nt_q8(x, batch, z);
        for zl in z.chunks_exact_mut(rows) {
            for (zv, bv) in zl.iter_mut().zip(&self.b) {
                *zv += bv;
            }
        }
        self.w_hh.matmul_nt_q8(h_prev, batch, tmp);
        for (zv, tv) in z.iter_mut().zip(tmp.iter()) {
            *zv += tv;
        }
    }

    /// One batched inference step; the elementwise gate math matches
    /// [`LstmLayer::infer_step_batch_into`] exactly — only the weight
    /// precision differs.
    pub fn infer_step_batch_into(
        &self,
        x: &[f32],
        h_plane: &mut [f32],
        c_plane: &mut [f32],
        batch: usize,
        z: &mut [f32],
        tmp: &mut [f32],
    ) {
        let h = self.hidden;
        self.gates_batch_into(x, h_plane, batch, z, tmp);
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
}

/// A quantized LSTM stack — the inference-only mirror of [`LstmStack`].
/// It reuses [`LstmBatchState`], so the batched generation engine drives
/// it exactly like the f32 stack.
#[derive(Debug, Clone)]
pub struct QuantizedLstmStack {
    pub layers: Vec<QuantizedLstmLayer>,
}

impl QuantizedLstmStack {
    pub fn from_stack(s: &LstmStack) -> Self {
        QuantizedLstmStack {
            layers: s
                .layers
                .iter()
                .map(QuantizedLstmLayer::from_layer)
                .collect(),
        }
    }

    pub fn hidden(&self) -> usize {
        self.layers[0].hidden
    }

    /// Zeroed batch state for `batch` concurrent lanes (same layout as
    /// [`LstmStack::zero_batch_state`]).
    pub fn zero_batch_state(&self, batch: usize) -> LstmBatchState {
        LstmBatchState {
            batch,
            h: self
                .layers
                .iter()
                .map(|l| vec![0.0; batch * l.hidden])
                .collect(),
            c: self
                .layers
                .iter()
                .map(|l| vec![0.0; batch * l.hidden])
                .collect(),
        }
    }

    /// Gate-scratch length for a `batch`-lane step; callers need **two**
    /// buffers of this size (`z` and `tmp`).
    pub fn batch_scratch_len(&self, batch: usize) -> usize {
        batch * 4 * self.hidden()
    }

    /// One batched inference step through all layers, mirroring
    /// [`LstmStack::infer_step_batch_into`] (layer `l + 1` reads layer
    /// `l`'s `h` plane in place).
    pub fn infer_step_batch_into(
        &self,
        x: &[f32],
        state: &mut LstmBatchState,
        z: &mut [f32],
        tmp: &mut [f32],
    ) {
        debug_assert_eq!(state.h.len(), self.layers.len());
        let batch = state.batch;
        for (l, layer) in self.layers.iter().enumerate() {
            if l == 0 {
                layer.infer_step_batch_into(x, &mut state.h[0], &mut state.c[0], batch, z, tmp);
            } else {
                let (below, rest) = state.h.split_at_mut(l);
                layer.infer_step_batch_into(
                    &below[l - 1],
                    &mut rest[0],
                    &mut state.c[l],
                    batch,
                    z,
                    tmp,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_error_within_half_step_per_weight() {
        let mut rng = StdRng::seed_from_u64(101);
        for &(rows, cols) in &[(1, 1), (4, 7), (13, 3), (96, 24), (120, 30)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let q = QuantizedMat::from_mat(&m);
            let deq = q.dequantize();
            for r in 0..rows {
                let half = 0.5 * q.scales[r] * (1.0 + 1e-5);
                for (a, b) in m.row(r).iter().zip(deq.row(r)) {
                    assert!(
                        (a - b).abs() <= half,
                        "{rows}x{cols} row {r}: |{a} - {b}| > {half}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_row_quantizes_to_exact_zero() {
        let mut m = Mat::zeros(3, 5);
        m.row_mut(1).copy_from_slice(&[0.5, -0.25, 0.1, 0.0, 1.0]);
        let q = QuantizedMat::from_mat(&m);
        assert_eq!(q.scales[0], 0.0);
        assert_eq!(q.scales[2], 0.0);
        let mut y = vec![9.0; 3];
        q.matvec_q8(&[1.0, 1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y[0], 0.0);
        assert_eq!(y[2], 0.0);
        assert!(y[1] != 0.0);
    }

    #[test]
    fn matvec_q8_matches_row_dot_bitwise() {
        let mut rng = StdRng::seed_from_u64(103);
        for &(rows, cols) in &[(1, 1), (3, 5), (4, 4), (7, 9), (13, 3), (96, 24), (120, 30)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let q = QuantizedMat::from_mat(&m);
            let x: Vec<f32> = (0..cols).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut fast = vec![0.0; rows];
            q.matvec_q8(&x, &mut fast);
            for (r, got) in fast.iter().enumerate() {
                assert_eq!(
                    got.to_bits(),
                    q.row_dot_q8(r, &x).to_bits(),
                    "{rows}x{cols} row {r}"
                );
            }
        }
    }

    #[test]
    fn matmul_nt_q8_matches_matvec_q8_bitwise_per_lane() {
        let mut rng = StdRng::seed_from_u64(107);
        for &(rows, cols) in &[(1, 1), (3, 5), (7, 9), (13, 3), (96, 24), (120, 30)] {
            for &batch in &[1usize, 2, 4, 5, 8, 16] {
                let m = Mat::xavier(rows, cols, &mut rng);
                let q = QuantizedMat::from_mat(&m);
                let x: Vec<f32> = (0..batch * cols)
                    .map(|_| rng.random_range(-1.0..1.0))
                    .collect();
                let mut fast = vec![0.0; batch * rows];
                q.matmul_nt_q8(&x, batch, &mut fast);
                for lane in 0..batch {
                    let mut serial = vec![0.0; rows];
                    q.matvec_q8(&x[lane * cols..(lane + 1) * cols], &mut serial);
                    assert_eq!(
                        fast[lane * rows..(lane + 1) * rows]
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        serial.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{rows}x{cols} batch {batch} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_q8_error_within_theoretical_bound() {
        let mut rng = StdRng::seed_from_u64(109);
        for &(rows, cols) in &[(4, 7), (24, 24), (96, 24), (120, 30)] {
            let m = Mat::xavier(rows, cols, &mut rng);
            let q = QuantizedMat::from_mat(&m);
            let x: Vec<f32> = (0..cols).map(|_| rng.random_range(-2.0..2.0)).collect();
            let x_l1: f32 = x.iter().map(|v| v.abs()).sum();
            let mut y_q = vec![0.0; rows];
            q.matvec_q8(&x, &mut y_q);
            let mut y_f = vec![0.0; rows];
            m.matvec(&x, &mut y_f);
            for r in 0..rows {
                // Small slack for f32 accumulation order differences on
                // top of the exact half-step quantization bound.
                let bound = q.row_error_bound(r, x_l1) * (1.0 + 1e-4) + 1e-5;
                assert!(
                    (y_q[r] - y_f[r]).abs() <= bound,
                    "{rows}x{cols} row {r}: |{} - {}| > {bound}",
                    y_q[r],
                    y_f[r]
                );
            }
        }
    }

    #[test]
    fn compact_head_matches_dense_rows_bitwise() {
        let mut rng = StdRng::seed_from_u64(113);
        let l = Linear::new(16, 40, &mut rng);
        let ql = QuantizedLinear::from_linear(&l);
        let x: Vec<f32> = (0..16).map(|_| rng.random_range(-1.0..1.0)).collect();
        let ids: Vec<usize> = (0..40).filter(|r| r % 3 == 0).collect();
        let mut dense = vec![0.0; 40];
        ql.forward_into(&x, &mut dense);
        let mut compact = vec![0.0; ids.len()];
        ql.forward_ids_into(&x, &ids, &mut compact);
        for (k, &r) in ids.iter().enumerate() {
            assert_eq!(compact[k].to_bits(), dense[r].to_bits(), "row {r}");
        }
    }

    /// The quantized stack must track the f32 stack closely over a short
    /// rollout (the logit-level error bound is fuzzed separately; this is
    /// the end-to-end sanity check).
    #[test]
    fn quantized_stack_tracks_f32_stack() {
        let mut rng = StdRng::seed_from_u64(131);
        let stack = LstmStack::new(8, 16, 2, &mut rng);
        let qstack = QuantizedLstmStack::from_stack(&stack);
        let batch = 4;
        let mut fstate = stack.zero_batch_state(batch);
        let mut qstate = qstack.zero_batch_state(batch);
        let mut zf = vec![0.0; stack.batch_scratch_len(batch)];
        let mut zq = vec![0.0; qstack.batch_scratch_len(batch)];
        let mut tmp = vec![0.0; qstack.batch_scratch_len(batch)];
        for _ in 0..6 {
            let x: Vec<f32> = (0..batch * 8)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            stack.infer_step_batch_into(&x, &mut fstate, &mut zf);
            qstack.infer_step_batch_into(&x, &mut qstate, &mut zq, &mut tmp);
        }
        for l in 0..2 {
            for lane in 0..batch {
                for (a, b) in fstate.lane_h(l, lane).iter().zip(qstate.lane_h(l, lane)) {
                    assert!(
                        (a - b).abs() < 0.05,
                        "layer {l} lane {lane}: f32 {a} vs q8 {b}"
                    );
                }
            }
        }
    }
}
