//! The sequential oracle: exact-sum mean all-reduce over f16 replicas.
//!
//! This is the function the chunked ring all-reduce must equal
//! bit-for-bit (property-tested in `tests/ring_oracle.rs`), and the one
//! the in-process oracle `samo::reference::DataParallelSamo` reduces
//! with, so it and the threaded runtime compute the same bits.
//!
//! # Why exact summation buys determinism
//!
//! Every finite f16 is `k · 2⁻²⁴` for an integer `k` with `|k| < 2⁴¹`
//! (largest magnitude 65504 = 65504·2²⁴·2⁻²⁴). A sum of `G` such values
//! is an integer multiple of 2⁻²⁴ with magnitude below `G · 2⁴¹`, which
//! f64's 53-bit mantissa represents exactly for `G ≤ 2¹²`. Exact
//! floating-point addition is associative and commutative, so *any*
//! summation order — this oracle's rank loop, the ring's segment
//! rotation, a tree — produces identical f64 bits. The single final
//! rounding `f64 → f32 → f16` in [`f16_mean_from_exact_sum`] then
//! yields identical f16 bits everywhere.
//!
//! Non-finite inputs stay deterministic too: ±∞ inputs drive the exact
//! sum to ±∞ (or NaN for ∞ − ∞) identically in every order, and every
//! NaN mean is canonicalized to the one [`F16::NAN`] bit pattern, so no
//! order-dependent NaN payload can leak through.

use crate::CommsError;
use tensor::f16::F16;

/// Supported world size for the exactness argument above. Enforced so a
/// hypothetical 2¹³-rank group fails loudly instead of rounding subtly.
pub const MAX_EXACT_WORLD: usize = 1 << 12;

/// The final rounding from the exact f64 sum to the f16 mean. The double
/// rounding (f64→f32→f16) is part of the contract, not an accident, and
/// NaN is canonicalized for bitwise reproducibility. The narrowing is the
/// straight-line [`F16::from_f32_fast`], bit-identical to
/// [`F16::from_f32`] on every f32. The ring rounds a whole segment at a
/// time in `tensor::simd::ring_hop_tier`, which `tests/hop_kernel.rs`
/// holds to this function bit for bit on both tiers.
#[inline]
pub fn f16_mean_from_exact_sum(sum: f64, world: f64) -> F16 {
    let mean = sum / world;
    if mean.is_nan() {
        F16::NAN
    } else {
        F16::from_f32_fast(mean as f32)
    }
}

/// In-place mean all-reduce over per-replica compressed f16 buffers,
/// with exact f64 accumulation. All buffers end up holding the mean.
///
/// An empty replica set is a no-op `Ok`; mismatched buffer lengths —
/// ranks disagreeing about the compressed layout — are a collective
/// error and return `Err` without writing anything.
pub fn allreduce_mean_f16(replicas: &mut [&mut [F16]]) -> Result<(), CommsError> {
    let Some(first) = replicas.first() else {
        return Ok(());
    };
    let n = first.len();
    if let Some(bad) = replicas.iter().position(|r| r.len() != n) {
        return Err(CommsError::Mismatch(format!(
            "allreduce length mismatch: rank 0 has {n} elements, rank {bad} has {}",
            replicas[bad].len()
        )));
    }
    let world = replicas.len();
    if world > MAX_EXACT_WORLD {
        return Err(CommsError::Mismatch(format!(
            "world size {world} exceeds the exact-summation bound {MAX_EXACT_WORLD}"
        )));
    }
    let mut acc = vec![0.0f64; n];
    for r in replicas.iter() {
        for (a, g) in acc.iter_mut().zip(r.iter()) {
            *a += f64::from(g.to_f32());
        }
    }
    let w = world as f64;
    let mean16: Vec<F16> = acc.iter().map(|&s| f16_mean_from_exact_sum(s, w)).collect();
    for r in replicas.iter_mut() {
        r.copy_from_slice(&mean16);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_elementwise() {
        let mut a = vec![F16::from_f32(1.0), F16::from_f32(4.0)];
        let mut b = vec![F16::from_f32(3.0), F16::from_f32(0.0)];
        let mut bufs: Vec<&mut [F16]> = vec![&mut a, &mut b];
        allreduce_mean_f16(&mut bufs).unwrap();
        assert_eq!(a, vec![F16::from_f32(2.0); 2]);
        assert_eq!(a, b);
    }

    #[test]
    fn single_replica_is_identity_on_finite_values() {
        let vals: Vec<F16> = (0..200).map(|i| F16::from_f32(i as f32 * 0.37 - 31.0)).collect();
        let mut buf = vals.clone();
        let mut bufs: Vec<&mut [F16]> = vec![&mut buf];
        allreduce_mean_f16(&mut bufs).unwrap();
        assert_eq!(buf, vals);
    }

    #[test]
    fn summation_order_is_irrelevant() {
        // The core exactness claim, checked directly: permuting the
        // replica order never changes a single bit of the result.
        let mk = |seed: u64, n: usize| -> Vec<F16> {
            let mut s = seed;
            (0..n)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    F16((s >> 48) as u16 & 0x7BFF) // any finite bit pattern
                })
                .collect()
        };
        let ranks: Vec<Vec<F16>> = (0..7).map(|r| mk(1000 + r, 129)).collect();
        let reduce = |order: &[usize]| -> Vec<F16> {
            let mut copies: Vec<Vec<F16>> = order.iter().map(|&i| ranks[i].clone()).collect();
            let mut bufs: Vec<&mut [F16]> = copies.iter_mut().map(|c| c.as_mut_slice()).collect();
            allreduce_mean_f16(&mut bufs).unwrap();
            copies.pop().unwrap()
        };
        let fwd = reduce(&[0, 1, 2, 3, 4, 5, 6]);
        let rev = reduce(&[6, 5, 4, 3, 2, 1, 0]);
        let mixed = reduce(&[3, 0, 6, 1, 5, 2, 4]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, mixed);
    }

    #[test]
    fn non_finite_inputs_are_canonical() {
        let mut a = vec![F16::INFINITY, F16::INFINITY, F16(0x7E37)]; // odd NaN payload
        let mut b = vec![F16::NEG_INFINITY, F16::INFINITY, F16::from_f32(1.0)];
        let mut bufs: Vec<&mut [F16]> = vec![&mut a, &mut b];
        allreduce_mean_f16(&mut bufs).unwrap();
        assert_eq!(a[0], F16::NAN, "inf - inf canonicalizes");
        assert_eq!(a[1], F16::INFINITY);
        assert_eq!(a[2], F16::NAN, "NaN payload canonicalizes");
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        let mut none: Vec<&mut [F16]> = vec![];
        assert!(allreduce_mean_f16(&mut none).is_ok());
        let mut a = vec![F16::from_f32(1.0); 4];
        let a_before = a.clone();
        let mut b = vec![F16::from_f32(1.0); 3];
        let mut bufs: Vec<&mut [F16]> = vec![&mut a, &mut b];
        let err = allreduce_mean_f16(&mut bufs).unwrap_err();
        assert!(matches!(err, CommsError::Mismatch(_)));
        assert_eq!(a, a_before, "failed allreduce must not write");
    }
}
