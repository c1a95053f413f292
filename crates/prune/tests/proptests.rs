//! Property-based tests for masks and pruning algorithms.

use proptest::prelude::*;
use prune::{magnitude_prune, random_prune, Mask};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Magnitude pruning keeps exactly the requested count, and every
    /// kept weight's magnitude dominates every pruned weight's.
    #[test]
    fn magnitude_keeps_the_largest(
        weights in proptest::collection::vec(-100.0f32..100.0, 1..300),
        sparsity in 0.0f64..1.0,
    ) {
        let n = weights.len();
        let mask = magnitude_prune(&weights, &[n], sparsity);
        let expect = ((1.0 - sparsity) * n as f64).round() as usize;
        prop_assert_eq!(mask.nnz(), expect);

        let keep = mask.to_bools();
        let min_kept = (0..n)
            .filter(|&i| keep[i])
            .map(|i| weights[i].abs())
            .fold(f32::INFINITY, f32::min);
        let max_pruned = (0..n)
            .filter(|&i| !keep[i])
            .map(|i| weights[i].abs())
            .fold(0.0f32, f32::max);
        if mask.nnz() > 0 && mask.nnz() < n {
            prop_assert!(min_kept >= max_pruned, "{min_kept} < {max_pruned}");
        }
    }

    /// Bool-vector round trip is the identity.
    #[test]
    fn bools_roundtrip(keep in proptest::collection::vec(any::<bool>(), 0..200)) {
        let kept = (0..keep.len() as u32).filter(|&i| keep[i as usize]).collect();
        let mask = Mask::new(&[keep.len()], kept);
        prop_assert_eq!(mask.to_bools(), keep.clone());
        prop_assert_eq!(mask.nnz(), keep.iter().filter(|&&k| k).count());
    }

    /// apply() zeroes exactly the pruned positions and preserves kept
    /// values bit-for-bit.
    #[test]
    fn apply_matches_semantics(
        weights in proptest::collection::vec(-10.0f32..10.0, 1..200),
        sparsity in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let n = weights.len();
        let mask = random_prune(&[n], sparsity, seed);
        let keep = mask.to_bools();
        let mut applied = weights.clone();
        mask.apply(&mut applied);
        for i in 0..n {
            if keep[i] {
                prop_assert_eq!(applied[i], weights[i]);
            } else {
                prop_assert_eq!(applied[i], 0.0);
            }
        }
    }

    /// Hamming distance is a metric: symmetric, zero iff equal, and
    /// satisfies the triangle inequality.
    #[test]
    fn hamming_is_a_metric(
        n in 1usize..100,
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        s3 in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let a = random_prune(&[n], s1, seed);
        let b = random_prune(&[n], s2, seed ^ 1);
        let c = random_prune(&[n], s3, seed ^ 2);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert_eq!(a.hamming_distance(&a), 0);
        if a.hamming_distance(&b) == 0 {
            prop_assert_eq!(a.indices().as_slice(), b.indices().as_slice());
        }
        prop_assert!(
            a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c)
        );
    }
}
