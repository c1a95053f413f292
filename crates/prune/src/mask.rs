//! Pruning masks with linearized indices.
//!
//! A pruning algorithm's output, in the paper's notation, is
//! `ind = ⋃_i ind_i`: for each layer `i`, the indices of the *unpruned*
//! (nonzero) parameters. Sec. III-B stores these as 32-bit integers
//! against a flattened 1-D view of the layer's weight tensor, which for an
//! N-dimensional tensor saves N× index memory versus coordinate tuples.

use std::sync::Arc;

/// The set of unpruned parameter positions for one layer.
///
/// Invariants: `indices` is sorted, strictly increasing, each element
/// `< numel`. The mask is shared (`Arc`) between all compressed model
/// state tensors of the layer — the paper's "common index tensor"
/// optimization (Sec. III-B).
///
/// ```
/// let weights = vec![0.1, -5.0, 0.2, 3.0];
/// let mask = prune::magnitude_prune(&weights, &[4], 0.5);
/// assert_eq!(mask.indices().as_slice(), &[1, 3]); // two largest |w|
/// assert_eq!(mask.sparsity(), 0.5);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mask {
    shape: Vec<usize>,
    indices: Arc<Vec<u32>>,
}

impl Mask {
    /// Builds a mask from raw linearized indices.
    ///
    /// # Panics
    /// Panics if indices are unsorted, duplicated, or out of bounds, or if
    /// the tensor is too large for `u32` linearized indexing.
    pub fn new(shape: &[usize], indices: Vec<u32>) -> Mask {
        let numel: usize = shape.iter().product();
        assert!(numel <= u32::MAX as usize, "tensor too large for u32 indices");
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "mask indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!((last as usize) < numel, "mask index out of bounds");
        }
        Mask {
            shape: shape.to_vec(),
            indices: Arc::new(indices),
        }
    }

    /// A mask keeping every parameter (sparsity 0).
    pub fn dense(shape: &[usize]) -> Mask {
        let numel: usize = shape.iter().product();
        Mask::new(shape, (0..numel as u32).collect())
    }

    /// Shape of the masked tensor.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total parameter count of the (unpruned) tensor.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Number of *unpruned* parameters.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fraction of parameters pruned (`p` in the paper).
    pub fn sparsity(&self) -> f64 {
        if self.numel() == 0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / self.numel() as f64
        }
    }

    /// The shared linearized index tensor (`ind_i`).
    pub fn indices(&self) -> &Arc<Vec<u32>> {
        &self.indices
    }

    /// Bytes occupied by the index storage itself (4 bytes per index).
    pub fn index_bytes(&self) -> usize {
        self.nnz() * std::mem::size_of::<u32>()
    }

    /// Applies the mask in place: pruned positions are zeroed.
    pub fn apply(&self, dense: &mut [f32]) {
        assert_eq!(dense.len(), self.numel());
        // Walk the sorted kept indices and zero the gaps between them.
        let mut next_kept = 0usize;
        for (i, v) in dense.iter_mut().enumerate() {
            if next_kept < self.indices.len() && self.indices[next_kept] as usize == i {
                next_kept += 1;
            } else {
                *v = 0.0;
            }
        }
    }

    /// Returns a boolean keep-vector (true = unpruned).
    pub fn to_bools(&self) -> Vec<bool> {
        let mut out = vec![false; self.numel()];
        for &i in self.indices.iter() {
            out[i as usize] = true;
        }
        out
    }

    /// Hamming distance between two masks over the same shape — the
    /// convergence metric of the early-bird ticket criterion (You et al.,
    /// ICLR 2020): number of positions whose kept/pruned status differs.
    pub fn hamming_distance(&self, other: &Mask) -> usize {
        assert_eq!(self.shape, other.shape, "masks must cover the same tensor");
        // Merge the two sorted index lists counting symmetric difference.
        let (a, b) = (&self.indices, &other.indices);
        let (mut i, mut j, mut diff) = (0usize, 0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    diff += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    diff += 1;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        diff + (a.len() - i) + (b.len() - j)
    }

    /// Normalized mask distance in [0, 1] (Hamming / numel).
    pub fn distance(&self, other: &Mask) -> f64 {
        if self.numel() == 0 {
            0.0
        } else {
            self.hamming_distance(other) as f64 / self.numel() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_basic_accounting() {
        let m = Mask::new(&[2, 3], vec![0, 2, 5]);
        assert_eq!(m.numel(), 6);
        assert_eq!(m.nnz(), 3);
        assert!((m.sparsity() - 0.5).abs() < 1e-12);
        assert_eq!(m.index_bytes(), 12);
    }

    #[test]
    fn dense_mask_keeps_everything() {
        let m = Mask::dense(&[3, 3]);
        assert_eq!(m.nnz(), 9);
        assert_eq!(m.sparsity(), 0.0);
        let mut data = vec![1.0f32; 9];
        m.apply(&mut data);
        assert!(data.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn apply_zeroes_pruned_positions() {
        let m = Mask::new(&[6], vec![1, 4]);
        let mut data = vec![10.0, 11.0, 12.0, 13.0, 14.0, 15.0];
        m.apply(&mut data);
        assert_eq!(data, vec![0.0, 11.0, 0.0, 0.0, 14.0, 0.0]);
    }

    #[test]
    fn bool_roundtrip() {
        let keep = vec![true, false, true, true, false];
        let m = Mask::new(&[5], vec![0, 2, 3]);
        assert_eq!(m.to_bools(), keep);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        Mask::new(&[4], vec![2, 1]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds() {
        Mask::new(&[4], vec![0, 4]);
    }

    #[test]
    fn hamming_distance_symmetric_difference() {
        let a = Mask::new(&[6], vec![0, 1, 2]);
        let b = Mask::new(&[6], vec![1, 2, 3, 4]);
        // diff positions: 0 (only a), 3, 4 (only b) => 3
        assert_eq!(a.hamming_distance(&b), 3);
        assert_eq!(b.hamming_distance(&a), 3);
        assert_eq!(a.hamming_distance(&a), 0);
        assert!((a.distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_mask_edge_cases() {
        let m = Mask::new(&[4], vec![]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.sparsity(), 1.0);
        let mut data = vec![1.0f32; 4];
        m.apply(&mut data);
        assert!(data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shared_indices_are_actually_shared() {
        let m = Mask::new(&[4], vec![0, 2]);
        let i1 = Arc::clone(m.indices());
        let m2 = m.clone();
        // Three handles: mask, clone, explicit Arc.
        assert!(Arc::strong_count(&i1) >= 3);
        assert_eq!(m2.indices().as_slice(), i1.as_slice());
    }
}
