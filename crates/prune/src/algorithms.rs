//! Pruning algorithms producing [`Mask`]s.
//!
//! The paper uses You et al.'s "Early-Bird Tickets" (ICLR 2020) to prune
//! networks to 90% sparsity before applying SAMO, and cites the lottery
//! ticket hypothesis literature (Frankle & Carbin) for why such masks
//! preserve accuracy. SAMO itself treats the pruning algorithm as an
//! oracle producing `ind`; this module provides three interchangeable
//! oracles:
//!
//! * [`magnitude_prune`] — keep the largest-|w| fraction per layer (the
//!   standard LTH criterion),
//! * [`global_magnitude_prune`] — one threshold across all layers,
//! * [`random_prune`] — uniformly random mask (control/baseline),
//! * [`EarlyBird`] — the early-bird stopping criterion: track the mask
//!   across training epochs and report a ticket as "drawn" once the mask
//!   distance over a sliding window falls below a tolerance.

use crate::mask::Mask;
use crate::select::{emit, reselect, Cut, Tally};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Keeps the `(1 - sparsity)` fraction of weights with the largest
/// magnitude in this layer. Ties are broken by index (deterministic); a
/// NaN ranks below every magnitude ([`crate::select::key`]).
pub fn magnitude_prune(weights: &[f32], shape: &[usize], sparsity: f64) -> Mask {
    assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
    let keep = ((1.0 - sparsity) * weights.len() as f64).round() as usize;
    reselect(shape, &[], (weights, 0), (weights, keep))
}

/// Global magnitude pruning: one threshold across several layers, so
/// layers with small weights get pruned harder. Returns one mask per
/// layer, with overall sparsity equal to `sparsity`.
pub fn global_magnitude_prune(layers: &[(&[f32], &[usize])], sparsity: f64) -> Vec<Mask> {
    assert!((0.0..=1.0).contains(&sparsity));
    let total: usize = layers.iter().map(|(w, _)| w.len()).sum();
    let keep = ((1.0 - sparsity) * total as f64).round() as usize;
    // One cut over the concatenated layers; its tie quota is spent in
    // (layer, index) order as the layers are emitted.
    let population = |t: &mut Tally| layers.iter().for_each(|(w, _)| t.count(w, |&x| x, 1));
    let (mut cut, mut none) = (Cut::best(total, keep, population), Cut::NONE);
    let (mut kept, mut at) = (vec![0; keep.min(total) + 1], 0);
    layers
        .iter()
        .map(|(w, shape)| {
            assert_eq!(w.len(), shape.iter().product::<usize>());
            let n = emit(w.len(), &[], (w, &mut none), (w, &mut cut), &mut kept[at..]);
            at += n;
            Mask::new(shape, kept[at - n..at].to_vec())
        })
        .collect()
}

/// Uniformly random mask at the requested sparsity (exact count).
pub fn random_prune(shape: &[usize], sparsity: f64, seed: u64) -> Mask {
    let numel: usize = shape.iter().product();
    assert!((0.0..=1.0).contains(&sparsity));
    let keep = ((1.0 - sparsity) * numel as f64).round() as usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<u32> = (0..numel as u32).collect();
    all.shuffle(&mut rng);
    let mut kept: Vec<u32> = all[..keep].to_vec();
    kept.sort_unstable();
    Mask::new(shape, kept)
}

/// Early-Bird ticket detector (You et al., ICLR 2020).
///
/// The original algorithm prunes based on BatchNorm scale factors at each
/// epoch and declares an "early-bird ticket" once the maximum pairwise
/// mask distance within a sliding FIFO window falls below a tolerance
/// (0.1 in the paper), at which point training can switch to the pruned
/// network. We reproduce the criterion over arbitrary magnitude-pruned
/// masks.
pub struct EarlyBird {
    sparsity: f64,
    tolerance: f64,
    window: usize,
    history: VecDeque<Mask>,
}

impl EarlyBird {
    /// `window` is the FIFO length (the paper uses 5), `tolerance` the
    /// mask-distance threshold (the paper uses 0.1).
    pub fn new(sparsity: f64, tolerance: f64, window: usize) -> EarlyBird {
        assert!(window >= 2, "need at least two masks to compare");
        EarlyBird {
            sparsity,
            tolerance,
            window,
            history: VecDeque::new(),
        }
    }

    /// Target sparsity of the ticket being searched for.
    pub fn sparsity(&self) -> f64 {
        self.sparsity
    }

    /// Records this epoch's weights; returns `Some(mask)` once the mask
    /// has converged (the "early-bird ticket" is drawn), `None` while the
    /// mask is still moving.
    pub fn observe(&mut self, weights: &[f32], shape: &[usize]) -> Option<Mask> {
        let mask = magnitude_prune(weights, shape, self.sparsity);
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(mask);
        if self.is_converged() {
            self.history.back().cloned()
        } else {
            None
        }
    }

    /// Maximum pairwise distance across the current window, if full.
    pub fn max_distance(&self) -> Option<f64> {
        if self.history.len() < self.window {
            return None;
        }
        let mut max = 0.0f64;
        for i in 0..self.history.len() {
            for j in (i + 1)..self.history.len() {
                max = max.max(self.history[i].distance(&self.history[j]));
            }
        }
        Some(max)
    }

    fn is_converged(&self) -> bool {
        self.max_distance().map(|d| d < self.tolerance).unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_keeps_largest() {
        let w = vec![0.1f32, -5.0, 0.2, 3.0, -0.05, 1.0];
        let m = magnitude_prune(&w, &[6], 0.5);
        // Largest three magnitudes: -5.0 (1), 3.0 (3), 1.0 (5).
        assert_eq!(m.indices().as_slice(), &[1, 3, 5]);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn magnitude_exact_sparsity() {
        let w: Vec<f32> = (0..1000).map(|i| (i as f32) * 0.001).collect();
        for &p in &[0.0, 0.25, 0.5, 0.9, 1.0] {
            let m = magnitude_prune(&w, &[1000], p);
            let expect = ((1.0 - p) * 1000.0).round() as usize;
            assert_eq!(m.nnz(), expect, "sparsity {p}");
        }
    }

    #[test]
    fn magnitude_extremes() {
        let w = vec![1.0f32; 8];
        assert_eq!(magnitude_prune(&w, &[8], 1.0).nnz(), 0);
        assert_eq!(magnitude_prune(&w, &[8], 0.0).nnz(), 8);
    }

    #[test]
    fn magnitude_deterministic_with_ties() {
        let w = vec![1.0f32; 10];
        let a = magnitude_prune(&w, &[10], 0.5);
        let b = magnitude_prune(&w, &[10], 0.5);
        assert_eq!(a, b);
        assert_eq!(a.nnz(), 5);
    }

    #[test]
    fn global_prunes_small_layers_harder() {
        let big = vec![10.0f32; 100];
        let small = vec![0.01f32; 100];
        let masks = global_magnitude_prune(&[(&big, &[100]), (&small, &[100])], 0.5);
        assert_eq!(masks[0].nnz(), 100, "all big weights kept");
        assert_eq!(masks[1].nnz(), 0, "all small weights pruned");
    }

    #[test]
    fn global_total_sparsity_exact() {
        let a: Vec<f32> = (0..300).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..700).map(|i| (i as f32) * 0.5).collect();
        let masks = global_magnitude_prune(&[(&a, &[300]), (&b, &[700])], 0.9);
        let kept: usize = masks.iter().map(|m| m.nnz()).sum();
        assert_eq!(kept, 100);
    }

    #[test]
    fn random_prune_deterministic_and_exact() {
        let m1 = random_prune(&[20, 50], 0.9, 7);
        let m2 = random_prune(&[20, 50], 0.9, 7);
        assert_eq!(m1, m2);
        assert_eq!(m1.nnz(), 100);
        let m3 = random_prune(&[20, 50], 0.9, 8);
        assert_ne!(m1, m3, "different seeds give different masks");
    }

    #[test]
    fn early_bird_detects_stable_mask() {
        let mut eb = EarlyBird::new(0.5, 0.1, 3);
        let stable: Vec<f32> = (0..100).map(|i| if i < 50 { 1.0 } else { 0.01 }).collect();
        assert!(eb.observe(&stable, &[100]).is_none()); // window not full
        assert!(eb.observe(&stable, &[100]).is_none());
        let ticket = eb.observe(&stable, &[100]);
        assert!(ticket.is_some(), "stable mask must converge once window fills");
        let t = ticket.unwrap();
        assert_eq!(t.nnz(), 50);
        assert!(t.indices().iter().all(|&i| i < 50));
    }

    #[test]
    fn early_bird_rejects_moving_mask() {
        let mut eb = EarlyBird::new(0.5, 0.05, 3);
        // Rotate which half is large: masks keep changing.
        for epoch in 0..6 {
            let w: Vec<f32> = (0..100)
                .map(|i| if (i + epoch * 17) % 100 < 50 { 1.0 } else { 0.01 })
                .collect();
            assert!(eb.observe(&w, &[100]).is_none(), "epoch {epoch} converged too early");
        }
        // Then stabilize: converges after `window` stable epochs.
        let stable: Vec<f32> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { 0.0 }).collect();
        let mut drawn = None;
        for _ in 0..3 {
            drawn = eb.observe(&stable, &[100]);
        }
        assert!(drawn.is_some());
    }

    #[test]
    fn early_bird_distance_tracks_window() {
        let mut eb = EarlyBird::new(0.5, 0.1, 2);
        assert!(eb.max_distance().is_none());
        let w1: Vec<f32> = (0..10).map(|i| if i < 5 { 1.0 } else { 0.0 }).collect();
        let w2: Vec<f32> = (0..10).map(|i| if i >= 5 { 1.0 } else { 0.0 }).collect();
        eb.observe(&w1, &[10]);
        eb.observe(&w2, &[10]);
        // Masks are complementary: distance = 1.0.
        assert!((eb.max_distance().unwrap() - 1.0).abs() < 1e-12);
    }
}
