//! Property-based tests for the model zoo's parameter/flop accounting.

use models::gpt::GptConfig;
use proptest::prelude::*;

fn arb_cfg() -> impl Strategy<Value = GptConfig> {
    (1usize..64, 1usize..40, 1usize..16, 7usize..12, 100usize..60_000, 1usize..4096).prop_map(
        |(layers, h_mult, heads, seq_pow, vocab, batch)| GptConfig {
            name: "arb",
            layers,
            hidden: heads * h_mult * 8, // divisible by heads
            heads,
            seq: 1 << seq_pow,
            vocab,
            batch,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Parameter count decomposes exactly into embeddings + layers +
    /// final norm, and grows monotonically in every dimension.
    #[test]
    fn params_decompose_and_grow(cfg in arb_cfg()) {
        let p = cfg.params();
        let (h, emb) = (cfg.hidden as u64, (cfg.vocab + cfg.seq) as u64 * cfg.hidden as u64);
        prop_assert_eq!(p, emb + cfg.layers as u64 * (12 * h * h + 13 * h) + 2 * h);
        let mut more_layers = cfg;
        more_layers.layers += 1;
        prop_assert!(more_layers.params() > p);
        let mut more_vocab = cfg;
        more_vocab.vocab += 1000;
        prop_assert!(more_vocab.params() > p);
    }

    /// The Narayanan flop count is linear in batch size.
    #[test]
    fn flops_consistency(cfg in arb_cfg()) {
        let total = cfg.flops_per_batch();
        let mut double = cfg;
        double.batch *= 2;
        prop_assert!((double.flops_per_batch() - 2.0 * total).abs() <= 1e-6 * total);
    }

    /// Boundary activation bytes are linear in mbs.
    #[test]
    fn activation_accounting(cfg in arb_cfg(), mbs in 1usize..8) {
        let b1 = cfg.boundary_activation_bytes(mbs);
        prop_assert_eq!(b1, mbs as u64 * cfg.boundary_activation_bytes(1));
    }
}

/// Vision models: parameters and flops must decompose over layers.
#[test]
fn vision_models_decompose() {
    for vm in [models::vgg19(), models::wideresnet101()] {
        let sum_params: u64 = vm.layers.iter().map(|l| l.params()).sum();
        assert_eq!(vm.params(), sum_params);
        let sum_flops: f64 = vm.layers.iter().map(|l| l.flops()).sum();
        assert!((vm.flops_forward_per_image() - sum_flops).abs() < 1.0);
        assert!((vm.flops_per_image() - 3.0 * sum_flops).abs() < 1.0);
    }
}
