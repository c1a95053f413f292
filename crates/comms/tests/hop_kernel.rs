//! The ring's hop arithmetic, `tensor::simd::ring_hop_tier`, on both tiers
//! against the oracle's rounding `comms::reference::f16_mean_from_exact_sum`:
//! every one of the 65,536 f16 bit patterns as a rank's own value, beside a
//! table of partners — signed zeros, the smallest subnormals, ±65504, ±∞,
//! quiet and signalling NaNs of both signs with payloads, and values whose
//! mean with a neighbour lands on an f32 or an f16 tie — at G = 1, 2, 3
//! and 8, the f64 partials of the middle hops included. The kernel runs on
//! segments of a length that leaves a scalar tail behind every vector body.

use comms::reference::f16_mean_from_exact_sum;
use tensor::f16::F16;
use tensor::simd::{ring_hop_tier, HopIn, HopOut, Tier};

const PARTNERS: [u16; 20] = [
    0x0000, 0x8000, // ±0
    0x0001, 0x8001, // ± the smallest subnormal
    0x0002, 0x0003, // beside 2.0: (2 + 2⁻²³)/2 is an f32 tie, (2 + 3·2⁻²⁴)/2 just above one
    0x7BFF, 0xFBFF, // ±65504
    0x7C00, 0xFC00, // ±∞
    0x7E00, 0xFE55, // quiet NaNs, the second with a payload
    0x7C01, 0xFD23, // signalling NaNs with payloads
    0x3C01, 0xBC01, // 1 ± 2⁻¹⁰: a mean with 1.0 is an f16 tie
    0x3C00, 0x4000, 0x1234, 0xD678,
];

/// An odd segment length: every vector body has a scalar tail.
const SEGMENT: usize = 8 * 511 + 5;

fn widen(x: F16) -> f64 {
    f64::from(x.to_f32())
}

/// The value rank `k` holds at position `j`: rank 0 every pattern in
/// order, the others the patterns in strides of their own.
fn value(k: usize, j: usize) -> F16 {
    F16((j.wrapping_mul(2 * k + 1).wrapping_add(7919 * k) % 65536) as u16)
}

/// `want` and `got` hold the same f64 bits, or are both NaN (a partial's
/// NaN payload is not part of the contract: every NaN mean is `F16::NAN`).
fn same_sum(got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
}

/// One reduce-scatter of `world` ranks as the ring's last rank sees it:
/// the predecessor's halves `theirs`, then ranks `1..world - 1`'s values
/// added hop by hop; returns the means, and checks the partials it
/// forwards on the way.
fn ring(tier: Tier, world: usize, theirs: &[F16]) -> Vec<F16> {
    let n = theirs.len();
    let rank = |k: usize| -> Vec<F16> { (0..n).map(|j| value(k, j)).collect() };
    let mut own = rank(1);
    if world == 2 {
        for (mine, theirs) in own.chunks_mut(SEGMENT).zip(theirs.chunks(SEGMENT)) {
            ring_hop_tier(tier, HopIn::Halves(theirs), mine, HopOut::Mean(2));
        }
        return own;
    }
    let mut sums = vec![0.0f64; n];
    for ((mine, theirs), sums) in own.chunks_mut(SEGMENT).zip(theirs.chunks(SEGMENT)).zip(sums.chunks_mut(SEGMENT)) {
        ring_hop_tier(tier, HopIn::Halves(theirs), mine, HopOut::Store(sums));
    }
    for j in 0..n {
        let want = widen(theirs[j]) + widen(own[j]);
        assert!(same_sum(sums[j], want), "{tier:?} hop 0 partial at {j}: {:e} vs {want:e}", sums[j]);
    }
    for k in 2..world - 1 {
        let before = sums.clone();
        let mut own = rank(k);
        for (mine, sums) in own.chunks_mut(SEGMENT).zip(sums.chunks_mut(SEGMENT)) {
            ring_hop_tier(tier, HopIn::Nothing, mine, HopOut::Add(sums));
        }
        for j in 0..n {
            let want = before[j] + widen(own[j]);
            assert!(same_sum(sums[j], want), "{tier:?} hop {} partial at {j}", k - 1);
        }
    }
    let mut own = rank(world - 1);
    for (mine, sums) in own.chunks_mut(SEGMENT).zip(sums.chunks(SEGMENT)) {
        ring_hop_tier(tier, HopIn::Sums(sums), mine, HopOut::Mean(world));
    }
    own
}

#[test]
fn every_half_beside_every_partner_means_as_the_oracle_on_both_tiers() {
    let n = 1 << 16;
    for tier in [Tier::Scalar, Tier::Avx2] {
        // A world of one: a finite half stays itself, a NaN becomes
        // `F16::NAN`.
        let mut own: Vec<F16> = (0..n).map(|j| value(0, j)).collect();
        for seg in own.chunks_mut(SEGMENT) {
            ring_hop_tier(tier, HopIn::Nothing, seg, HopOut::Mean(1));
        }
        for (j, got) in own.iter().enumerate() {
            let x = value(0, j);
            assert_eq!(*got, f16_mean_from_exact_sum(widen(x), 1.0), "{tier:?} G=1 at {:#06x}", x.0);
            assert_eq!(*got, if x.is_nan() { F16::NAN } else { x });
        }
        for partner in PARTNERS {
            // Rank 0's partner everywhere but on a stride of all patterns,
            // so both operands sweep the whole table.
            let theirs: Vec<F16> =
                (0..n).map(|j| if j % 3 == 0 { value(0, j) } else { F16(partner) }).collect();
            for world in [2, 3, 8] {
                let got = ring(tier, world, &theirs);
                for j in 0..n {
                    let sum = widen(theirs[j]) + (1..world).map(|k| widen(value(k, j))).sum::<f64>();
                    let want = f16_mean_from_exact_sum(sum, world as f64);
                    assert_eq!(
                        got[j].0, want.0,
                        "{tier:?} G={world} partner {partner:#06x} at {j}: own {:#06x}",
                        value(1, j).0
                    );
                }
            }
        }
    }
}

#[test]
fn the_mean_rounds_twice() {
    // f64 → f32 → f16 is the contract, not one rounding: over 4 ranks,
    // 2 + 2 + 2⁻⁹ + 2⁻²² means 1 + 2⁻¹¹ + 2⁻²⁴, an f32 tie that rounds
    // to even, 1 + 2⁻¹¹, and then an f16 tie that rounds to 1.0 — where
    // one rounding would give 1 + 2⁻¹⁰.
    for tier in [Tier::Scalar, Tier::Avx2] {
        let mut sums = [0.0f64; 9];
        ring_hop_tier(tier, HopIn::Halves(&[F16(0x4000); 9]), &mut [F16(0x4000); 9], HopOut::Store(&mut sums));
        ring_hop_tier(tier, HopIn::Nothing, &mut [F16(0x1800); 9], HopOut::Add(&mut sums));
        let mut own = [F16(0x0004); 9];
        ring_hop_tier(tier, HopIn::Sums(&sums), &mut own, HopOut::Mean(4));
        assert_eq!(own, [F16::ONE; 9], "{tier:?}");
        assert_eq!(f16_mean_from_exact_sum(sums[0] + widen(F16(0x0004)), 4.0), F16::ONE);
    }
}

#[test]
fn the_mean_divides() {
    // One ulp above 3·(1 + 2⁻¹¹ + 2⁻²⁴) (and its G = 7 twin), a sum over
    // 3 is just above an f32 tie that is an f16 tie too, and rounds up to
    // 1 + 2⁻¹⁰; times the rounded 1/3 it lands on the tie and rounds to
    // 1.0. A multiply by `1 / world` is the quotient only at powers of two.
    for tier in [Tier::Scalar, Tier::Avx2] {
        for (bits, world) in [(0x4008_0300_1800_0001u64, 3), (0x401C_0380_1C00_0001, 7)] {
            let sum = f64::from_bits(bits);
            let mut own = [F16::ZERO; 9];
            ring_hop_tier(tier, HopIn::Sums(&[sum; 9]), &mut own, HopOut::Mean(world));
            assert_eq!(own, [f16_mean_from_exact_sum(sum, world as f64); 9], "{tier:?} G={world}");
            assert_eq!(own[0], F16(0x3C01), "{tier:?} G={world}");
        }
    }
}

#[test]
fn every_exponent_of_a_mean_narrows_as_the_oracle() {
    // A partial sum the last hop adds a +0 half to is the sum itself:
    // every 4093rd f32 pattern as a sum (4093 is prime, so every exponent,
    // subnormals, halfway cases and NaN payloads come by) drives the
    // rounding to f32 and the narrowing to f16 well past what sums of
    // halves reach.
    let sums: Vec<f64> = (0..=u32::MAX).step_by(4093).map(|b| f64::from(f32::from_bits(b))).collect();
    for tier in [Tier::Scalar, Tier::Avx2] {
        for world in [1, 3] {
            let mut own = vec![F16::ZERO; sums.len()];
            ring_hop_tier(tier, HopIn::Sums(&sums), &mut own, HopOut::Mean(world));
            for (sum, got) in sums.iter().zip(&own) {
                let want = f16_mean_from_exact_sum(sum + 0.0, world as f64);
                assert_eq!(got.0, want.0, "{tier:?} G={world}: sum {sum:e}");
            }
        }
    }
}
