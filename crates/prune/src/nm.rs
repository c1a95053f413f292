//! N:M structured pruning: keep the `n` largest-magnitude weights in
//! every group of `m` consecutive elements along a row.
//!
//! This is the mask family behind NVIDIA sparse tensor cores (2:4) and
//! apex ASP's `m4n2_1d` mask search (SNIPPETS.md §1): unlike the
//! unstructured magnitude masks elsewhere in this crate, an N:M mask has
//! a *fixed* local density, which is what lets `sparse::nm`'s structured
//! spMM consume it with a branch-free SIMD inner loop instead of the
//! paper's "sparse kernels can't win" CSR indirection (Fig. 1).

use crate::mask::Mask;
use crate::select::key;
use std::cmp::Reverse;

/// Builds an N:M structured mask over a row-major `rows × cols` weight
/// matrix: in each group of `m` consecutive columns, the `n` positions
/// with the largest `|w|` survive (ties keep the lower index, so the
/// result is deterministic). A ragged final group of `r < m` columns
/// keeps `min(n, r)` positions.
///
/// # Panics
/// Panics if `n > m`, `m == 0`, or the slice doesn't match the shape.
pub fn nm_prune(weights: &[f32], rows: usize, cols: usize, n: usize, m: usize) -> Mask {
    assert!(m >= 1, "group size m must be >= 1");
    assert!(n <= m, "cannot keep {n} of every {m}");
    assert_eq!(weights.len(), rows * cols, "weight slice/shape mismatch");
    let mut indices: Vec<u32> = Vec::with_capacity(rows * (cols / m * n + n.min(cols % m)));
    let mut order: Vec<usize> = Vec::with_capacity(m);
    let mut kept: Vec<u32> = Vec::with_capacity(n);
    for r in 0..rows {
        let row = &weights[r * cols..(r + 1) * cols];
        let mut g0 = 0;
        while g0 < cols {
            let g1 = (g0 + m).min(cols);
            order.clear();
            order.extend(g0..g1);
            order.sort_by_key(|&c| (Reverse(key(row[c])), c));
            kept.clear();
            kept.extend(order[..n.min(g1 - g0)].iter().map(|&c| (r * cols + c) as u32));
            kept.sort_unstable();
            indices.extend_from_slice(&kept);
            g0 = g1;
        }
    }
    Mask::new(&[rows, cols], indices)
}

/// Magnitude-based 2:4 mask — the default structured pattern consumed by
/// `sparse::nm::Nm24`.
// TEST-API: `nm_linear`'s tests and `nm_proptests` hold `Nm24::from_dense` to this mask.
pub fn nm_prune_24(weights: &[f32], rows: usize, cols: usize) -> Mask {
    nm_prune(weights, rows, cols, 2, 4)
}

/// Checks whether `mask` is a valid N:M structured mask for a
/// `rows × cols` matrix: every complete group of `m` consecutive columns
/// keeps exactly `n` positions, and a ragged final group of `r` columns
/// keeps exactly `min(n, r)`.
// TEST-API: `nm_proptests` checks every N:M mask with it.
pub fn is_nm_mask(mask: &Mask, rows: usize, cols: usize, n: usize, m: usize) -> bool {
    if m == 0 || n > m || mask.shape() != [rows, cols] {
        return false;
    }
    let groups_per_row = cols.div_ceil(m);
    let mut counts = vec![0u32; rows * groups_per_row];
    for &ix in mask.indices().iter() {
        let (r, c) = ((ix as usize) / cols, (ix as usize) % cols);
        counts[r * groups_per_row + c / m] += 1;
    }
    for r in 0..rows {
        for g in 0..groups_per_row {
            let gsize = m.min(cols - g * m);
            if counts[r * groups_per_row + g] != n.min(gsize) as u32 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_top_two_of_four_by_magnitude() {
        let w = [0.1f32, -0.9, 0.5, 0.2, /* row 2 */ 3.0, -4.0, 0.0, 1.0];
        let mask = nm_prune_24(&w, 2, 4);
        assert_eq!(mask.indices().as_slice(), &[1, 2, 4, 5]);
        assert!(is_nm_mask(&mask, 2, 4, 2, 4));
    }

    #[test]
    fn ties_keep_lower_index() {
        let w = [1.0f32, 1.0, 1.0, 1.0];
        let mask = nm_prune_24(&w, 1, 4);
        assert_eq!(mask.indices().as_slice(), &[0, 1]);
    }

    #[test]
    fn ragged_tail_keeps_min_n_r() {
        // cols = 6: one full group of 4 (keep 2) + tail of 2 (keep 2);
        // cols = 5: full group + tail of 1 (keep 1).
        let w6 = [0.0f32, 1.0, 2.0, 3.0, 9.0, 8.0];
        let m6 = nm_prune_24(&w6, 1, 6);
        assert_eq!(m6.indices().as_slice(), &[2, 3, 4, 5]);
        assert!(is_nm_mask(&m6, 1, 6, 2, 4));
        let w5 = [0.0f32, 1.0, 2.0, 3.0, 9.0];
        let m5 = nm_prune_24(&w5, 1, 5);
        assert_eq!(m5.indices().as_slice(), &[2, 3, 4]);
        assert!(is_nm_mask(&m5, 1, 5, 2, 4));
    }

    #[test]
    fn general_nm_shapes() {
        let w: Vec<f32> = (0..24).map(|i| (i % 7) as f32 - 3.0).collect();
        for &(n, m) in &[(1, 2), (1, 4), (2, 4), (3, 4), (4, 4), (2, 8)] {
            let mask = nm_prune(&w, 3, 8, n, m);
            assert!(is_nm_mask(&mask, 3, 8, n, m), "invalid {n}:{m} mask");
            // A different (n, m) should not validate unless degenerate.
            if n != m {
                assert!(!is_nm_mask(&mask, 3, 8, m, m));
            }
        }
    }

    #[test]
    fn validity_checker_rejects_unstructured() {
        // 4 of 8 kept, but both in the same group of 4.
        let mask = Mask::new(&[1, 8], vec![0, 1, 2, 3]);
        assert!(!is_nm_mask(&mask, 1, 8, 2, 4));
        // Wrong shape.
        let ok = nm_prune_24(&[1.0; 8], 1, 8);
        assert!(!is_nm_mask(&ok, 2, 4, 2, 4));
    }
}
