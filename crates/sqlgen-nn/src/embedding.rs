//! Token embedding.
//!
//! The paper one-hot encodes every token and feeds it to the LSTM through
//! an input layer whose dimension equals the action-space size. A linear
//! layer applied to a one-hot vector is exactly a row lookup, so we
//! implement it as an embedding table — mathematically identical, O(E)
//! instead of O(V·E) per step.

use crate::param::Param;
use crate::tensor::Mat;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `vocab × dim` lookup table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    pub table: Param,
}

impl Embedding {
    pub fn new<R: Rng + ?Sized>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Embedding {
            table: Param::new(Mat::xavier(vocab, dim, rng)),
        }
    }

    pub fn vocab_size(&self) -> usize {
        self.table.value.rows
    }

    pub fn dim(&self) -> usize {
        self.table.value.cols
    }

    /// The embedding of `token`, borrowed (no copy).
    #[inline]
    pub fn row(&self, token: usize) -> &[f32] {
        self.table.value.row(token)
    }

    /// The embedding of `token`.
    pub fn forward(&self, token: usize) -> Vec<f32> {
        self.row(token).to_vec()
    }

    /// Accumulates the gradient for `token`'s row.
    pub fn backward(&mut self, token: usize, dy: &[f32]) {
        Self::backward_buf(&mut self.table.grad, token, dy);
    }

    /// Accumulates `token`'s row gradient into a detached buffer (the
    /// per-lane arena of the batched backward). Same op sequence as
    /// [`Embedding::backward`], so per-lane buffers reduced in ascending
    /// lane order match a serial backward bitwise per lane.
    pub fn backward_buf(grad: &mut Mat, token: usize, dy: &[f32]) {
        let row = grad.row_mut(token);
        for (g, d) in row.iter_mut().zip(dy) {
            *g += d;
        }
    }

    /// Detached gradient buffer shaped like the table.
    pub fn empty_grads(&self) -> Mat {
        Mat::zeros(self.vocab_size(), self.dim())
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.table]
    }

    pub fn zero_grad(&mut self) {
        self.table.zero_grad();
    }

    pub fn restore_buffers(&mut self) {
        self.table.restore_buffers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lookup_returns_the_row() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(5, 3, &mut rng);
        assert_eq!(e.forward(2), e.table.value.row(2).to_vec());
        assert_eq!(e.vocab_size(), 5);
        assert_eq!(e.dim(), 3);
    }

    #[test]
    fn backward_touches_only_that_row() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut e = Embedding::new(4, 2, &mut rng);
        e.zero_grad();
        e.backward(1, &[1.0, 2.0]);
        e.backward(1, &[1.0, 0.0]);
        assert_eq!(e.table.grad.row(1), &[2.0, 2.0]);
        assert_eq!(e.table.grad.row(0), &[0.0, 0.0]);
        assert_eq!(e.table.grad.row(3), &[0.0, 0.0]);
    }
}
