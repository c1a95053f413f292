//! Token and position embeddings.

use crate::layer::Layer;
use crate::param::Parameter;
use tensor::Tensor;

/// Lookup table mapping integer token ids to dense vectors.
///
/// Token ids are carried in `f32` tensors (exact for any realistic vocab
/// size); `forward` on a `[B, T]` id tensor returns `[B, T, dim]`.
/// The id input is not differentiable, so `backward` returns a zero
/// tensor of the id shape.
pub struct Embedding {
    table: Parameter,
    vocab: usize,
    dim: usize,
    cached_ids: Option<Vec<usize>>,
    cached_shape: Vec<usize>,
}

impl Embedding {
    /// Creates a `vocab × dim` table with N(0, 0.02) init (GPT-style).
    pub fn new(vocab: usize, dim: usize, seed: u64) -> Embedding {
        Embedding {
            table: Parameter::new("embedding.weight", Tensor::randn(&[vocab, dim], 0.02, seed)),
            vocab,
            dim,
            cached_ids: None,
            cached_shape: vec![],
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The underlying table (weight tying with the LM head).
    pub fn table(&self) -> &Parameter {
        &self.table
    }

    /// Embeds a slice of ids into a `[len, dim]` tensor.
    pub fn embed_ids(&self, ids: &[usize]) -> Tensor {
        let mut out = Tensor::zeros(&[ids.len(), self.dim]);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab, "token id {id} out of vocab {}", self.vocab);
            let src = &self.table.value.as_slice()[id * self.dim..(id + 1) * self.dim];
            out.as_mut_slice()[r * self.dim..(r + 1) * self.dim].copy_from_slice(src);
        }
        out
    }

    /// Accumulates gradients for a previously embedded id slice.
    pub fn backward_ids(&mut self, ids: &[usize], dy: &Tensor) {
        assert_eq!(dy.rows(), ids.len());
        assert_eq!(dy.cols(), self.dim);
        let grad = self.table.grad.as_mut_slice();
        for (r, &id) in ids.iter().enumerate() {
            let src = &dy.as_slice()[r * self.dim..(r + 1) * self.dim];
            let dst = &mut grad[id * self.dim..(id + 1) * self.dim];
            for (g, &d) in dst.iter_mut().zip(src) {
                *g += d;
            }
        }
    }
}

impl Layer for Embedding {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let ids: Vec<usize> = x.as_slice().iter().map(|&v| v as usize).collect();
        let out = self.embed_ids(&ids);
        self.cached_ids = Some(ids);
        self.cached_shape = x.shape().to_vec();
        let mut shape = x.shape().to_vec();
        shape.push(self.dim);
        out.reshape(&shape)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let ids = self.cached_ids.take().expect("backward before forward");
        let flat = dy.clone().reshape(&[ids.len(), self.dim]);
        self.backward_ids(&ids, &flat);
        Tensor::zeros(&self.cached_shape)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.table]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.table]
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        f(&mut self.table);
    }

    fn clear_caches(&mut self) {
        self.cached_ids = None;
    }

    fn cached_bytes(&self) -> usize {
        self.cached_ids
            .as_ref()
            .map_or(0, |ids| ids.len() * std::mem::size_of::<usize>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_returns_table_rows() {
        let mut e = Embedding::new(4, 3, 0);
        let ids = Tensor::from_vec(&[1, 2], vec![2.0, 0.0]);
        let y = e.forward(&ids);
        assert_eq!(y.shape(), &[1, 2, 3]);
        let row2 = &e.table.value.as_slice()[6..9];
        assert_eq!(&y.as_slice()[0..3], row2);
        let row0 = &e.table.value.as_slice()[0..3];
        assert_eq!(&y.as_slice()[3..6], row0);
    }

    #[test]
    fn backward_scatters_gradients() {
        let mut e = Embedding::new(4, 2, 0);
        let ids = Tensor::from_vec(&[3], vec![1.0, 1.0, 2.0]);
        e.forward(&ids);
        let dy = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        e.backward(&dy.reshape(&[3, 2]));
        // Token 1 appears twice: grads add.
        assert_eq!(&e.table.grad.as_slice()[2..4], &[4.0, 6.0]);
        assert_eq!(&e.table.grad.as_slice()[4..6], &[5.0, 6.0]);
        assert_eq!(&e.table.grad.as_slice()[0..2], &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn rejects_out_of_vocab() {
        let e = Embedding::new(4, 2, 0);
        e.embed_ids(&[4]);
    }
}
