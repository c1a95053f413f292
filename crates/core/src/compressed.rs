//! Compression and expansion primitives (paper Sec. III-B/III-C).
//!
//! A *compressed* tensor holds values only at the unpruned positions
//! given by a shared, linearized `u32` index tensor (`ind`). "Expansion"
//! is defined by the paper as the inverse of compression: it takes a
//! compressed tensor and `ind` and produces the dense tensor with zeros
//! at pruned positions.

use prune::Mask;
use tensor::pool::{par_chunks_mut, SplitMut};

/// Compressed positions per pool task of the two primitives.
const MIN_CHUNK: usize = 64 * 1024;

/// Gathers `dense[ind[j]]` into a new compressed buffer, whatever the
/// element: `f32` master values, [`tensor::f16::F16`] gradients.
///
/// ```
/// use prune::Mask;
/// let mask = Mask::new(&[2, 2], vec![0, 3]); // paper's Sec. III-B example
/// let compressed = samo::compress(&[1.0, 2.0, 3.0, 4.0], &mask);
/// assert_eq!(compressed, vec![1.0, 4.0]);
/// assert_eq!(samo::expand(&compressed, &mask), vec![1.0, 0.0, 0.0, 4.0]);
/// ```
pub fn compress<T: Copy + Default + Send + Sync>(dense: &[T], mask: &Mask) -> Vec<T> {
    assert_eq!(dense.len(), mask.numel(), "dense length must match mask");
    let ind = mask.indices();
    let mut out = vec![T::default(); ind.len()];
    par_chunks_mut(&mut out[..], MIN_CHUNK, |s, chunk| {
        for (o, &i) in chunk.iter_mut().zip(&ind[s..]) {
            *o = dense[i as usize];
        }
    });
    out
}

/// Scatters compressed values to a fresh dense buffer (zeros elsewhere).
pub fn expand<T: Copy + Default + Send + Sync>(values: &[T], mask: &Mask) -> Vec<T> {
    let mut out = vec![T::default(); mask.numel()];
    expand_over_zeroed(values, mask, &mut out);
    out
}

/// Scatters compressed values into an existing dense buffer; positions
/// not covered by the mask are zeroed — the "expand" of the paper's
/// parameter-downcast step.
pub fn expand_into<T: Copy + Default + Send + Sync>(values: &[T], mask: &Mask, dense: &mut [T]) {
    dense.fill(T::default());
    expand_over_zeroed(values, mask, dense);
}

/// Scatter-only expansion: like [`expand_into`] but skips the `fill(0)`
/// pass. The caller must guarantee every pruned position of `dense` is
/// already zero (true for any buffer previously produced by an expansion
/// against the same mask).
pub fn expand_over_zeroed<T: Copy + Send + Sync>(values: &[T], mask: &Mask, dense: &mut [T]) {
    assert_eq!(values.len(), mask.nnz(), "values must match mask nnz");
    assert_eq!(dense.len(), mask.numel());
    par_chunks_mut(Scatter::new(mask.indices(), dense), MIN_CHUNK, |s, mut out| {
        for (&i, &v) in out.ind.iter().zip(&values[s..]) {
            out.put(i, v);
        }
    });
}

/// The dense side of an expansion, `dense[ind[j]]` for the positions `j`
/// of a sorted index, as the pool cuts it: between two positions. The
/// index is strictly increasing, so what the positions before a cut
/// scatter into lies wholly before `ind[cut]` and the rest from there on
/// — each half owns a contiguous interval of `dense`, and tasks need no
/// shared pointer into it.
pub(crate) struct Scatter<'a, T> {
    /// The positions of this piece.
    pub(crate) ind: &'a [u32],
    /// Dense position of `dense[0]`.
    base: usize,
    dense: &'a mut [T],
}

impl<'a, T> Scatter<'a, T> {
    /// The whole of `dense` behind the whole index.
    pub(crate) fn new(ind: &'a [u32], dense: &'a mut [T]) -> Scatter<'a, T> {
        Scatter { ind, base: 0, dense }
    }

    /// The piece as a kernel outside this crate takes it: its positions,
    /// and `(base, dense)` with position `i` at `dense[i - base]`.
    pub(crate) fn parts(&mut self) -> (&'a [u32], usize, &mut [T]) {
        (self.ind, self.base, self.dense)
    }

    /// `dense[i] = v`, for an `i` out of this piece's `ind`.
    #[inline]
    pub(crate) fn put(&mut self, i: u32, v: T) {
        self.dense[i as usize - self.base] = v;
    }
}

impl<T: Send> SplitMut for Scatter<'_, T> {
    fn len(&self) -> usize {
        self.ind.len()
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (before, after) = self.ind.split_at(mid);
        let cut = after.first().map_or(self.dense.len(), |&i| i as usize - self.base);
        let (lo, hi) = self.dense.split_at_mut(cut);
        let hi = Scatter { ind: after, base: self.base + cut, dense: hi };
        (Scatter { ind: before, base: self.base, dense: lo }, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::f16::F16;

    fn mask_4of8() -> Mask {
        Mask::new(&[2, 4], vec![0, 3, 5, 6])
    }

    #[test]
    fn compress_gathers_in_index_order() {
        let dense: Vec<f32> = (0..8).map(|i| i as f32 * 10.0).collect();
        let c = compress(&dense, &mask_4of8());
        assert_eq!(c, vec![0.0, 30.0, 50.0, 60.0]);
    }

    #[test]
    fn expand_restores_masked_dense() {
        let c = vec![1.0f32, 2.0, 3.0, 4.0];
        let d = expand(&c, &mask_4of8());
        assert_eq!(d, vec![1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn expand_compress_is_identity_on_compressed() {
        let mask = mask_4of8();
        let c = vec![7.0f32, -1.0, 0.5, 9.0];
        assert_eq!(compress(&expand(&c, &mask), &mask), c);
    }

    #[test]
    fn compress_expand_is_masking_on_dense() {
        let mask = mask_4of8();
        let dense: Vec<f32> = (1..=8).map(|i| i as f32).collect();
        let roundtrip = expand(&compress(&dense, &mask), &mask);
        let mut masked = dense.clone();
        mask.apply(&mut masked);
        assert_eq!(roundtrip, masked);
    }

    #[test]
    fn expand_into_overwrites_stale_data() {
        let mask = mask_4of8();
        let mut dense = vec![99.0f32; 8];
        expand_into(&[1.0, 2.0, 3.0, 4.0], &mask, &mut dense);
        assert_eq!(dense, vec![1.0, 0.0, 0.0, 2.0, 0.0, 3.0, 4.0, 0.0]);
    }

    #[test]
    fn f16_roundtrip() {
        let mask = mask_4of8();
        let dense: Vec<F16> = (0..8).map(|i| F16::from_f32(i as f32)).collect();
        let c = compress(&dense, &mask);
        assert_eq!(c.len(), 4);
        let mut back = vec![F16::ONE; 8];
        expand_into(&c, &mask, &mut back);
        for (i, v) in back.iter().enumerate() {
            if [0usize, 3, 5, 6].contains(&i) {
                assert_eq!(v.to_f32(), i as f32);
            } else {
                assert!(v.is_zero());
            }
        }
    }

    #[test]
    fn empty_and_full_masks() {
        let empty = Mask::new(&[4], vec![]);
        assert!(compress(&[1.0; 4], &empty).is_empty());
        assert_eq!(expand::<f32>(&[], &empty), vec![0.0; 4]);

        let full = Mask::dense(&[4]);
        let d = vec![1.0f32, 2.0, 3.0, 4.0];
        assert_eq!(compress(&d, &full), d);
        assert_eq!(expand(&d, &full), d);
    }

    #[test]
    fn a_scatter_cut_anywhere_expands_like_the_whole() {
        // What the pool does to an expansion on however many workers,
        // here by hand: pieces cut between compressed positions, each
        // writing only the interval of `dense` it owns.
        let mask = prune::random_prune(&[40, 25], 0.7, 11);
        let nnz = mask.nnz();
        let values: Vec<f32> = (0..nnz).map(|j| j as f32 + 1.0).collect();
        let want = expand(&values, &mask);
        for cuts in [vec![0], vec![1, 1], vec![nnz], vec![7, 100, 101, nnz - 1]] {
            let mut dense = vec![0.0f32; mask.numel()];
            let mut rest = Scatter::new(mask.indices(), &mut dense);
            let mut offset = 0;
            for cut in cuts.into_iter().chain([nnz]) {
                let (mut piece, tail) = rest.split_at(cut - offset);
                for (&i, &v) in piece.ind.iter().zip(&values[offset..]) {
                    piece.put(i, v);
                }
                (rest, offset) = (tail, cut);
            }
            assert_eq!(dense, want);
        }
    }

    #[test]
    fn large_parallel_compress() {
        let n = 300_000;
        let dense: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mask = prune::random_prune(&[n], 0.9, 5);
        let c = compress(&dense, &mask);
        assert_eq!(c.len(), mask.nnz());
        for (j, &i) in mask.indices().iter().enumerate() {
            assert_eq!(c[j], i as f32);
        }
    }
}
