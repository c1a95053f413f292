//! Property test: the chunked ring all-reduce running on real OS
//! threads is **bitwise identical** to the sequential exact-sum oracle
//! in [`comms::reference`], for every world size 2–8, bucket sizes with
//! and without a remainder segment, compressed-gradient sparsity
//! `p ∈ {0, 0.5, 0.9, 1}`, and occasional non-finite values — no matter
//! how the threads interleave.

use comms::reference::allreduce_mean_f16;
use comms::{Communicator, InProcTransport};
use proptest::prelude::*;
use tensor::f16::F16;

/// Deterministic per-rank compressed-gradient bucket: sparsity `p_q` in
/// quarters (0, 2, 3.6, 4 → p = 0, 0.5, 0.9, 1), and with
/// `inject_nonfinite` a sprinkle of ±∞ and odd-payload NaNs, which the
/// canonical finalizer must still reduce identically everywhere.
fn bucket(seed: u64, n: usize, p_tenths: u32, inject_nonfinite: bool) -> Vec<F16> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s
    };
    (0..n)
        .map(|_| {
            let r = next();
            if (r % 10) < u64::from(p_tenths) {
                return F16::ZERO; // pruned coordinate
            }
            if inject_nonfinite && r % 97 == 0 {
                return match (r >> 32) % 3 {
                    0 => F16::INFINITY,
                    1 => F16::NEG_INFINITY,
                    _ => F16(0x7E00 | ((r >> 40) as u16 & 0x01FF)), // odd NaN payload
                };
            }
            F16::from_f32(((r >> 40) as f32) / (1 << 21) as f32 - 4.0)
        })
        .collect()
}

/// Runs the ring on `world` OS threads and returns every rank's result.
fn ring_on_threads(world: usize, buckets: &[Vec<F16>]) -> Vec<Vec<F16>> {
    let mesh = InProcTransport::mesh(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh
            .into_iter()
            .enumerate()
            .map(|(rank, t)| {
                let mut buf = buckets[rank].clone();
                s.spawn(move || {
                    let mut comm = Communicator::new(t);
                    comm.allreduce_mean_f16(&mut buf).unwrap();
                    buf
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    })
}

/// A bucket at the edges of half precision: `±65504` (the largest
/// finite), subnormals, `±∞` and NaNs with odd payloads, between ordinary
/// values — each edge in roughly one position of eight.
fn edge_bucket(seed: u64, n: usize) -> Vec<F16> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let sign = ((s >> 20) as u16 & 1) << 15;
            match (s >> 33) % 64 {
                0..=7 => F16(sign | 0x7BFF),                        // ±65504
                8..=15 => F16(sign | ((s >> 40) as u16 & 0x03FF)), // subnormal or ±0
                16..=18 => F16(sign | 0x7C00),                      // ±∞
                19..=20 => F16(sign | 0x7C01 | ((s >> 44) as u16 & 0x03FF)), // NaNs
                _ => F16::from_f32(((s >> 40) as f32) / (1 << 14) as f32 - 512.0),
            }
        })
        .collect()
}

fn oracle(buckets: &[Vec<F16>]) -> Vec<F16> {
    let mut copies = buckets.to_vec();
    let mut bufs: Vec<&mut [F16]> = copies.iter_mut().map(|c| c.as_mut_slice()).collect();
    allreduce_mean_f16(&mut bufs).unwrap();
    copies.pop().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline property (satellite #2): ring ≡ oracle, bit for bit.
    #[test]
    fn ring_is_bitwise_identical_to_sequential_reference(
        world in 2usize..9,
        // Sizes below, at, and far above world size: exercises empty
        // segments, the non-divisible remainder rule, and multi-element
        // segments all in one sweep.
        n in 0usize..300,
        p_idx in 0usize..4,
        nonfinite in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let p_tenths = [0u32, 5, 9, 10][p_idx];
        let buckets: Vec<Vec<F16>> =
            (0..world).map(|r| bucket(seed ^ r as u64, n, p_tenths, nonfinite)).collect();
        let want = oracle(&buckets);
        let got = ring_on_threads(world, &buckets);
        for (rank, g) in got.iter().enumerate() {
            prop_assert_eq!(
                g, &want,
                "world {} n {} p {}/10 nonfinite {} rank {}",
                world, n, p_tenths, nonfinite, rank
            );
        }
    }

    /// The fact a rank's overflow flag stands on: a reduced value is
    /// non-finite exactly when some rank's input at that position is. A
    /// mean of finite values up to ±65504 stays finite through the exact
    /// sum and the one rounding; any ±∞ or NaN input survives both. So
    /// the AND of the local flags is the group's verdict, known before the
    /// ring runs — the ring itself is held to the oracle on these inputs
    /// too.
    #[test]
    fn reduced_value_is_non_finite_iff_some_input_is(
        world in 1usize..9,
        n in 0usize..300,
        seed in any::<u64>(),
    ) {
        let buckets: Vec<Vec<F16>> = (0..world).map(|r| edge_bucket(seed ^ r as u64, n)).collect();
        let want = oracle(&buckets);
        for (i, mean) in want.iter().enumerate() {
            let some_input = buckets.iter().any(|b| !b[i].to_f32().is_finite());
            prop_assert_eq!(
                !mean.to_f32().is_finite(), some_input,
                "world {} position {} inputs {:?} mean {:?}",
                world, i, buckets.iter().map(|b| b[i]).collect::<Vec<_>>(), mean
            );
        }
        if world > 1 {
            for (rank, got) in ring_on_threads(world, &buckets).iter().enumerate() {
                prop_assert_eq!(got, &want, "world {} rank {}", world, rank);
            }
        }
    }

    /// Thread-timing independence: the same inputs reduced twice on
    /// fresh thread meshes give the same bits both times.
    #[test]
    fn repeated_runs_are_bitwise_stable(
        world in 2usize..6,
        n in 1usize..200,
        seed in any::<u64>(),
    ) {
        let buckets: Vec<Vec<F16>> =
            (0..world).map(|r| bucket(seed ^ r as u64, n, 5, true)).collect();
        let a = ring_on_threads(world, &buckets);
        let b = ring_on_threads(world, &buckets);
        prop_assert_eq!(a, b);
    }

    /// Pipelined multi-bucket rings (the overlap path the trainer uses)
    /// equal per-bucket oracles on every rank.
    #[test]
    fn pipelined_buckets_each_match_the_oracle(
        world in 2usize..6,
        sizes in prop::collection::vec(0usize..120, 1..5),
        seed in any::<u64>(),
    ) {
        let per_bucket: Vec<Vec<Vec<F16>>> = sizes
            .iter()
            .enumerate()
            .map(|(b, &n)| {
                (0..world)
                    .map(|r| bucket(seed ^ (b as u64) << 32 ^ r as u64, n, 5, false))
                    .collect()
            })
            .collect();
        let wants: Vec<Vec<F16>> = per_bucket.iter().map(|bs| oracle(bs)).collect();

        let mesh = InProcTransport::mesh(world);
        let got: Vec<Vec<(u64, Vec<F16>)>> = std::thread::scope(|s| {
            let handles: Vec<_> = mesh
                .into_iter()
                .enumerate()
                .map(|(rank, t)| {
                    let mine: Vec<Vec<F16>> =
                        per_bucket.iter().map(|bs| bs[rank].clone()).collect();
                    s.spawn(move || {
                        let mut comm = Communicator::new(t);
                        for data in mine {
                            comm.ring_start(data).unwrap();
                            comm.ring_pump().unwrap();
                        }
                        comm.ring_finish().unwrap();
                        let mut done = comm.take_completed();
                        done.sort_by_key(|(id, _)| *id);
                        done
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
        });

        for (rank, done) in got.iter().enumerate() {
            prop_assert_eq!(done.len(), sizes.len());
            for (b, (id, data)) in done.iter().enumerate() {
                prop_assert_eq!(*id as usize, b);
                prop_assert_eq!(data, &wants[b], "rank {} bucket {}", rank, b);
            }
        }
    }
}
