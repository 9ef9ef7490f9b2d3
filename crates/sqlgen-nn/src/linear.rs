//! Fully-connected layer.

use crate::param::Param;
use crate::tensor::Mat;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `y = W·x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    pub w: Param, // out × in
    pub b: Param, // out × 1
}

/// Detached parameter-gradient buffers for one [`Linear`] (per-lane
/// arenas of the batched backward).
#[derive(Debug, Clone)]
pub struct LinearGrads {
    pub w: Mat,
    pub b: Mat,
}

impl Linear {
    pub fn new<R: Rng + ?Sized>(input: usize, output: usize, rng: &mut R) -> Self {
        Linear {
            w: Param::new(Mat::xavier(output, input, rng)),
            b: Param::new(Mat::zeros(output, 1)),
        }
    }

    pub fn input_dim(&self) -> usize {
        self.w.value.cols
    }

    pub fn output_dim(&self) -> usize {
        self.w.value.rows
    }

    /// Forward pass into a caller-provided buffer (`y.len() == output_dim`).
    /// No heap allocations; the caller keeps `x` for the backward pass.
    pub fn forward_into(&self, x: &[f32], y: &mut [f32]) {
        self.w.value.matvec(x, y);
        for (yi, bi) in y.iter_mut().zip(&self.b.value.data) {
            *yi += bi;
        }
    }

    /// Batched forward pass over `batch` row-major lanes
    /// (`x` is `[batch × in]`, `y` is `[batch × out]`). Per lane the
    /// matvec-then-bias order matches [`Linear::forward_into`] exactly, so
    /// each lane's output is bit-identical to a serial forward.
    pub fn forward_batch_into(&self, x: &[f32], batch: usize, y: &mut [f32]) {
        self.w.value.matmul_nt(x, batch, y);
        let out = self.output_dim();
        for lane in 0..batch {
            for (yi, bi) in y[lane * out..(lane + 1) * out]
                .iter_mut()
                .zip(&self.b.value.data)
            {
                *yi += bi;
            }
        }
    }

    /// Forward pass; the caller keeps `x` for the backward pass.
    /// Allocating wrapper over [`Linear::forward_into`].
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.output_dim()];
        self.forward_into(x, &mut y);
        y
    }

    /// Backward pass into a caller-provided buffer (`dx.len() == input_dim`,
    /// overwritten): accumulates parameter gradients, writes `dL/dx`.
    pub fn backward_into(&mut self, x: &[f32], dy: &[f32], dx: &mut [f32]) {
        self.w.grad.add_outer(dy, x);
        for (g, d) in self.b.grad.data.iter_mut().zip(dy) {
            *g += d;
        }
        dx.iter_mut().for_each(|v| *v = 0.0);
        self.w.value.matvec_t_acc(dy, dx);
    }

    /// Backward pass: accumulates parameter gradients, returns `dL/dx`.
    /// Allocating wrapper over [`Linear::backward_into`].
    pub fn backward(&mut self, x: &[f32], dy: &[f32]) -> Vec<f32> {
        let mut dx = vec![0.0; self.input_dim()];
        self.backward_into(x, dy, &mut dx);
        dx
    }

    /// Detached gradient buffers shaped like this layer's parameters.
    pub fn empty_grads(&self) -> LinearGrads {
        LinearGrads {
            w: Mat::zeros(self.output_dim(), self.input_dim()),
            b: Mat::zeros(self.output_dim(), 1),
        }
    }

    /// Prefix-compacted lane-batched backward: physical slot `p` hosts
    /// logical lane `order[p]`, and `x`/`dy`/`dx` are dense
    /// `[order.len() × dim]` blocks holding only live lanes. Parameter
    /// gradients land in `grads[order[p]]` with the exact op sequence of
    /// [`Linear::backward_into`], and `dx` comes from the batched
    /// [`Mat::matvec_t_batch`] kernel at the live width — per lane
    /// bit-identical to a serial backward, with no wasted work on
    /// finished lanes.
    pub fn backward_prefix_into(
        &self,
        x: &[f32],
        dy: &[f32],
        order: &[usize],
        grads: &mut [LinearGrads],
        dx: &mut [f32],
    ) {
        let (out, inp) = (self.output_dim(), self.input_dim());
        let n = order.len();
        debug_assert_eq!(x.len(), n * inp);
        debug_assert_eq!(dy.len(), n * out);
        debug_assert_eq!(dx.len(), n * inp);
        for (p, &lane) in order.iter().enumerate() {
            let dyl = &dy[p * out..(p + 1) * out];
            let xl = &x[p * inp..(p + 1) * inp];
            grads[lane].w.add_outer(dyl, xl);
            for (g, d) in grads[lane].b.data.iter_mut().zip(dyl) {
                *g += d;
            }
        }
        self.w.value.matvec_t_batch(dy, n, dx);
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }

    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    pub fn restore_buffers(&mut self) {
        self.w.restore_buffers();
        self.b.restore_buffers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(2, 2, &mut rng);
        l.w.value.data = vec![1.0, 2.0, 3.0, 4.0];
        l.b.value.data = vec![0.5, -0.5];
        let y = l.forward(&[1.0, -1.0]);
        assert_eq!(y, vec![-0.5, -1.5]);
    }

    #[test]
    fn forward_batch_matches_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let l = Linear::new(5, 3, &mut rng);
        for &batch in &[1usize, 2, 4, 7] {
            let x: Vec<f32> = (0..batch * 5)
                .map(|_| rng.random_range(-1.0..1.0))
                .collect();
            let mut y = vec![0.0; batch * 3];
            l.forward_batch_into(&x, batch, &mut y);
            for lane in 0..batch {
                let mut serial = vec![0.0; 3];
                l.forward_into(&x[lane * 5..(lane + 1) * 5], &mut serial);
                assert_eq!(&y[lane * 3..(lane + 1) * 3], &serial[..], "lane {lane}");
            }
        }
    }

    /// Finite-difference check of all gradients.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = vec![0.3, -0.7, 0.9];
        // Loss = sum of outputs weighted by fixed coefficients.
        let coef = [0.7, -1.3];
        let loss = |l: &Linear, x: &[f32]| -> f32 {
            l.forward(x).iter().zip(coef).map(|(y, c)| y * c).sum()
        };

        l.zero_grad();
        let dx = l.backward(&x, &coef);

        let eps = 1e-3;
        // dW
        for i in 0..l.w.value.data.len() {
            let orig = l.w.value.data[i];
            l.w.value.data[i] = orig + eps;
            let up = loss(&l, &x);
            l.w.value.data[i] = orig - eps;
            let dn = loss(&l, &x);
            l.w.value.data[i] = orig;
            let num = (up - dn) / (2.0 * eps);
            assert!(
                (num - l.w.grad.data[i]).abs() < 1e-3,
                "dW[{i}]: analytic {} vs numeric {num}",
                l.w.grad.data[i]
            );
        }
        // dx
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let up = loss(&l, &xp);
            xp[i] -= 2.0 * eps;
            let dn = loss(&l, &xp);
            let num = (up - dn) / (2.0 * eps);
            assert!((num - dx[i]).abs() < 1e-3);
        }
        // db
        for (g, c) in l.b.grad.data.iter().zip(&coef) {
            assert!((g - c).abs() < 1e-6);
        }
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(2, 1, &mut rng);
        l.zero_grad();
        l.backward(&[1.0, 0.0], &[1.0]);
        l.backward(&[1.0, 0.0], &[1.0]);
        assert_eq!(l.w.grad.data[0], 2.0);
    }
}
