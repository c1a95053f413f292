//! Corruption-safety property tests for the checkpoint loader.
//!
//! The robustness contract (ISSUE: fault-tolerant training): a
//! checkpoint read back from disk is untrusted input. For *any*
//! truncation and *any* single-bit flip, `load_checkpoint` must return
//! `Err` — never panic, never abort, and never attempt an allocation
//! proportional to a corrupted length field — and a flip must always be
//! *detected* by the section CRCs (an undetected flip would silently
//! resurrect a diverged run from poisoned state). The structural guards
//! must hold on their own too: a flipped file whose CRC was recomputed
//! over the damage (a writer bug, not bit rot) may load or fail, but
//! never panics.

use nn::mixed::Optimizer;
use nn::optim::AdamConfig;
use proptest::prelude::*;
use samo::serialize::{crc32, load_checkpoint, save_checkpoint};
use samo::{SamoLayerState, TrainerMeta};

fn adam() -> Optimizer {
    Optimizer::Adam(AdamConfig::default())
}

/// A small two-layer checkpoint with non-trivial optimizer state.
fn sample_layers(seed: u64) -> Vec<SamoLayerState> {
    let opt = adam();
    [(24usize, 0.5f64), (40, 0.8)]
        .iter()
        .enumerate()
        .map(|(i, &(n, p))| {
            let mask = prune::random_prune(&[n], p, seed + i as u64);
            let vals: Vec<f32> = (0..n).map(|j| (j as f32 + 0.3) * 0.01).collect();
            SamoLayerState::from_params(&vals, mask, &opt)
        })
        .collect()
}

fn meta() -> TrainerMeta {
    TrainerMeta {
        loss_scale: 4096.0,
        good_steps: 17,
        steps_taken: 123,
        steps_skipped: 4,
    }
}

/// Byte ranges `(crc field, body)` of every section of a checkpoint
/// holding `layers`: header, then CRC + 28-byte meta, then per layer
/// CRC + rank, shape, nnz, indices, θ32, ∇θ16, tag and Adam state.
fn sections(layers: &[SamoLayerState]) -> Vec<(usize, std::ops::Range<usize>)> {
    let mut at = 6;
    let meta_body = 4 + 4 + 8 + 8 + 4;
    let bodies = std::iter::once(meta_body).chain(layers.iter().map(|l| {
        let (rank, nnz) = (l.mask().shape().len(), l.mask().nnz());
        1 + 8 * rank + 8 + (4 + 4 + 2) * nnz + 1 + 8 + 8 * nnz
    }));
    bodies
        .map(|len| {
            let sec = (at, at + 4..at + 4 + len);
            at += 4 + len;
            sec
        })
        .collect()
}

/// Recomputes a section's CRC over its (damaged) body.
fn reseal(buf: &mut [u8], (crc_at, body): &(usize, std::ops::Range<usize>)) {
    let crc = crc32(&buf[body.clone()]);
    buf[*crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Every truncation prefix of a checkpoint fails cleanly. Exhaustive,
/// not sampled: the files are small enough to try every length.
#[test]
fn every_truncation_prefix_errors() {
    for seed in [11, 13] {
        let full = save_checkpoint(&sample_layers(seed), &meta());
        for len in 0..full.len() {
            let res = load_checkpoint(&full[..len], &adam());
            assert!(res.is_err(), "truncation to {len} bytes must be an error");
        }
        assert!(load_checkpoint(&full, &adam()).is_ok());
    }
}

proptest! {
    /// Any single-bit flip is *detected*: the CRCs turn silent payload
    /// rot into a load error.
    #[test]
    fn single_bit_flips_always_detected(bit in 0usize..8, seed in 0u64..64) {
        let layers = sample_layers(3);
        let full = save_checkpoint(&layers, &meta());
        // One flipped byte position per case, every bit within it.
        let pos = (seed as usize * 2_654_435_761) % full.len();
        let mut corrupt = full.to_vec();
        corrupt[pos] ^= 1u8 << bit;
        let res = load_checkpoint(&corrupt, &adam());
        prop_assert!(
            res.is_err(),
            "flip of bit {bit} at byte {pos} loaded successfully"
        );
    }

    /// With the section's CRC recomputed over the flipped bytes the
    /// checksum no longer shields the parser, so a flip may load
    /// undetected — but it must never panic or over-allocate, even when
    /// it lands in a length field.
    #[test]
    fn resealed_single_bit_flips_never_panic(bit in 0usize..8, seed in 0u64..64) {
        let layers = sample_layers(5);
        let full = save_checkpoint(&layers, &meta());
        let pos = (seed as usize * 2_654_435_761) % full.len();
        let mut corrupt = full.to_vec();
        corrupt[pos] ^= 1u8 << bit;
        if let Some(sec) = sections(&layers).iter().find(|(_, body)| body.contains(&pos)) {
            reseal(&mut corrupt, sec);
        }
        // Either verdict is fine; surviving the call is the property.
        let _ = load_checkpoint(&corrupt, &adam());
    }

    /// Arbitrary garbage bytes never panic the loader.
    #[test]
    fn arbitrary_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = load_checkpoint(&data, &adam());
    }
}

/// A header claiming a huge layer count / element count must fail fast
/// without attempting the corresponding allocation.
#[test]
fn huge_counts_error_without_allocating() {
    let layers = sample_layers(7);
    let full = save_checkpoint(&layers, &meta());
    let secs = sections(&layers);
    assert_eq!(
        secs.last().unwrap().1.end,
        full.len(),
        "layout drifted from `sections`"
    );

    // An absurd layer count behind a valid meta CRC.
    let mut corrupt = full.to_vec();
    let count_at = secs[0].1.end - 4;
    corrupt[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut corrupt, &secs[0]);
    assert!(load_checkpoint(&corrupt, &adam()).is_err());

    // The first layer's nnz field inflated: the byte-budget check must
    // reject it before allocating nnz elements.
    let mut corrupt = full.to_vec();
    let nnz_at = secs[1].1.start + 1 + 8; // rank(1) shape(8) nnz(8)...
    corrupt[nnz_at..nnz_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    reseal(&mut corrupt, &secs[1]);
    assert!(load_checkpoint(&corrupt, &adam()).is_err());
}
