//! Structured pruning variants: block-sparse masks (Gray et al.; Chen et
//! al., both discussed in the paper's Sec. II-C) and channel pruning on
//! BatchNorm scale factors (the actual signal of You et al.'s Early-Bird
//! Tickets).
//!
//! SAMO itself is structure-agnostic — any mask compresses the same way —
//! but structured masks matter for the *kernels*: block-sparse weights
//! admit much faster spMM, which is the design tension Fig. 1 exposes.

use crate::mask::Mask;
use crate::select::key;
use std::cmp::Reverse;

/// Prunes a `rows × cols` matrix in `block × block` tiles: tiles are
/// ranked by their L1 norm and the smallest are pruned entirely, giving
/// overall sparsity ≈ `sparsity` (tile-granular).
pub fn block_prune(
    weights: &[f32],
    rows: usize,
    cols: usize,
    block: usize,
    sparsity: f64,
) -> Mask {
    assert_eq!(weights.len(), rows * cols);
    assert!(rows.is_multiple_of(block) && cols.is_multiple_of(block), "dims must divide block");
    let brows = rows / block;
    let bcols = cols / block;
    let nblocks = brows * bcols;
    let keep_blocks = ((1.0 - sparsity) * nblocks as f64).round() as usize;

    // L1 norm per tile.
    let mut norms: Vec<(f32, u32)> = (0..nblocks as u32)
        .map(|b| {
            let (bi, bj) = ((b as usize) / bcols, (b as usize) % bcols);
            let mut n = 0.0f32;
            for i in 0..block {
                for j in 0..block {
                    n += weights[(bi * block + i) * cols + (bj * block + j)].abs();
                }
            }
            (n, b)
        })
        .collect();
    norms.sort_by_key(|&(n, b)| (Reverse(key(n)), b));
    let mut kept_blocks: Vec<u32> = norms[..keep_blocks.min(nblocks)].iter().map(|&(_, b)| b).collect();
    kept_blocks.sort_unstable();

    let mut indices = Vec::with_capacity(keep_blocks * block * block);
    for &b in &kept_blocks {
        let (bi, bj) = ((b as usize) / bcols, (b as usize) % bcols);
        for i in 0..block {
            for j in 0..block {
                indices.push(((bi * block + i) * cols + (bj * block + j)) as u32);
            }
        }
    }
    indices.sort_unstable();
    Mask::new(&[rows, cols], indices)
}

/// Channel pruning on BatchNorm scale factors — the Early-Bird Tickets
/// signal: channels with the smallest |γ| are pruned, removing the whole
/// output channel (a row of the following layer's weight).
///
/// Returns the indices of *kept* channels, sorted.
pub fn prune_channels_by_bn_scale(gammas: &[f32], sparsity: f64) -> Vec<usize> {
    assert!((0.0..=1.0).contains(&sparsity));
    let keep = ((1.0 - sparsity) * gammas.len() as f64).round() as usize;
    let mut order: Vec<usize> = (0..gammas.len()).collect();
    order.sort_by_key(|&c| (Reverse(key(gammas[c])), c));
    let mut kept = order[..keep].to_vec();
    kept.sort_unstable();
    kept
}

/// Expands a kept-channel list into a weight mask for a `[out_ch, fan_in]`
/// matrix: pruned output channels lose their entire row.
pub fn channel_mask(kept_channels: &[usize], out_ch: usize, fan_in: usize) -> Mask {
    let mut indices = Vec::with_capacity(kept_channels.len() * fan_in);
    for &c in kept_channels {
        assert!(c < out_ch, "channel out of range");
        for j in 0..fan_in {
            indices.push((c * fan_in + j) as u32);
        }
    }
    indices.sort_unstable();
    Mask::new(&[out_ch, fan_in], indices)
}

/// Measures how "blocky" an unstructured mask is: the fraction of
/// `block × block` tiles that are entirely kept or entirely pruned.
/// Random unstructured masks score near zero at moderate sparsity;
/// block-pruned masks score 1.0.
pub fn block_coherence(mask: &Mask, rows: usize, cols: usize, block: usize) -> f64 {
    assert_eq!(mask.numel(), rows * cols);
    assert!(rows.is_multiple_of(block) && cols.is_multiple_of(block));
    let keep = mask.to_bools();
    let (brows, bcols) = (rows / block, cols / block);
    let mut pure = 0usize;
    for bi in 0..brows {
        for bj in 0..bcols {
            let mut count = 0usize;
            for i in 0..block {
                for j in 0..block {
                    if keep[(bi * block + i) * cols + (bj * block + j)] {
                        count += 1;
                    }
                }
            }
            if count == 0 || count == block * block {
                pure += 1;
            }
        }
    }
    pure as f64 / (brows * bcols) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_prune_keeps_whole_tiles() {
        let (rows, cols, block) = (8usize, 8, 4);
        // Make the top-left tile strongest.
        let mut w = vec![0.1f32; rows * cols];
        for i in 0..4 {
            for j in 0..4 {
                w[i * cols + j] = 10.0;
            }
        }
        let mask = block_prune(&w, rows, cols, block, 0.75);
        assert_eq!(mask.nnz(), 16, "exactly one of four tiles kept");
        let keep = mask.to_bools();
        for i in 0..4 {
            for j in 0..4 {
                assert!(keep[i * cols + j], "strong tile must survive");
            }
        }
        assert!((block_coherence(&mask, rows, cols, block) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn block_prune_sparsity_is_tile_granular() {
        let w: Vec<f32> = (0..64 * 64).map(|i| (i % 101) as f32).collect();
        let mask = block_prune(&w, 64, 64, 8, 0.9);
        // 64 tiles, keep round(6.4) = 6 tiles = 384 weights.
        assert_eq!(mask.nnz(), 6 * 64);
        mask.indices(); // valid by construction (Mask::new validated)
    }

    #[test]
    fn unstructured_mask_is_not_blocky() {
        let mask = crate::random_prune(&[64, 64], 0.5, 3);
        let coherence = block_coherence(&mask, 64, 64, 8);
        assert!(coherence < 0.05, "random mask should have ~no pure tiles: {coherence}");
    }

    #[test]
    fn bn_channel_pruning_keeps_large_gammas() {
        let gammas = vec![0.01, 0.9, 0.02, 1.5, 0.03, 0.8];
        let kept = prune_channels_by_bn_scale(&gammas, 0.5);
        assert_eq!(kept, vec![1, 3, 5]);
    }

    #[test]
    fn channel_mask_prunes_whole_rows() {
        let mask = channel_mask(&[0, 2], 4, 3);
        assert_eq!(mask.nnz(), 6);
        let keep = mask.to_bools();
        assert_eq!(keep, vec![
            true, true, true, //
            false, false, false, //
            true, true, true, //
            false, false, false,
        ]);
        assert!((mask.sparsity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channel_pruning_extremes() {
        let gammas = vec![1.0, 2.0, 3.0];
        assert_eq!(prune_channels_by_bn_scale(&gammas, 0.0), vec![0, 1, 2]);
        assert!(prune_channels_by_bn_scale(&gammas, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn block_prune_rejects_ragged_dims() {
        block_prune(&[0.0; 60], 6, 10, 4, 0.5);
    }
}
