//! GPT-3-style transformer model descriptions (Brown et al., 2020),
//! exactly the four variants of the paper's Table I, plus the flop and
//! parameter formulas used for Table II's "% of peak" computation.

/// Architectural description of a GPT-3-style decoder-only transformer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GptConfig {
    pub name: &'static str,
    /// Number of transformer layers `l`.
    pub layers: usize,
    /// Model (hidden) dimension `h`.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Sequence length `s`.
    pub seq: usize,
    /// Vocabulary size `V`.
    pub vocab: usize,
    /// Global batch size in sequences (paper Table I).
    pub batch: usize,
}

/// GPT-3 XL: 1.3B parameters (Table I row 3).
pub const GPT3_XL: GptConfig = GptConfig {
    name: "GPT-3 XL",
    layers: 24,
    hidden: 2048,
    heads: 16,
    seq: 2048,
    vocab: 50257,
    batch: 512,
};

/// GPT-3 2.7B (Table I row 4) — the model of the Fig. 8 breakdown and
/// the 74% memory headline.
pub const GPT3_2_7B: GptConfig = GptConfig {
    name: "GPT-3 2.7B",
    layers: 32,
    hidden: 2560,
    heads: 32,
    seq: 2048,
    vocab: 50257,
    batch: 512,
};

/// GPT-3 6.7B (Table I row 5).
pub const GPT3_6_7B: GptConfig = GptConfig {
    name: "GPT-3 6.7B",
    layers: 32,
    hidden: 4096,
    heads: 32,
    seq: 2048,
    vocab: 50257,
    batch: 1024,
};

/// GPT-3 13B (Table I row 6) — the model of Table II.
pub const GPT3_13B: GptConfig = GptConfig {
    name: "GPT-3 13B",
    layers: 40,
    hidden: 5120,
    heads: 40,
    seq: 2048,
    vocab: 50257,
    batch: 2048,
};

impl GptConfig {
    /// Exact parameter count: token + position embeddings, per-layer
    /// attention (QKV + proj) and MLP (4× expansion) weights and biases,
    /// two LayerNorms per layer, final LayerNorm. The LM head is tied to
    /// the token embedding (GPT convention).
    pub fn params(&self) -> u64 {
        let h = self.hidden as u64;
        let l = self.layers as u64;
        let v = self.vocab as u64;
        let s = self.seq as u64;
        let embeddings = v * h + s * h;
        let per_layer = (4 * h * h + 4 * h)      // qkv (3h²+3h) + proj (h²+h)
            + (8 * h * h + 5 * h)                // mlp up (4h²+4h) + down (4h²+h)
            + 4 * h; // two layernorms (γ, β)
        embeddings + l * per_layer + 2 * h
    }

    /// Narayanan et al. (SC 2021) flop count for one training batch,
    /// including activation recomputation (factor 4 = 1 fwd + 2 bwd + 1
    /// recompute):
    /// `F = 96·B·s·l·h²·(1 + s/(6h) + V/(16·l·h))`.
    pub fn flops_per_batch(&self) -> f64 {
        let b = self.batch as f64;
        let s = self.seq as f64;
        let l = self.layers as f64;
        let h = self.hidden as f64;
        let v = self.vocab as f64;
        96.0 * b * s * l * h * h * (1.0 + s / (6.0 * h) + v / (16.0 * l * h))
    }

    /// Bytes of one fp16 activation tensor crossing a pipeline-stage
    /// boundary for a microbatch of `mbs` sequences: `2·mbs·s·h`.
    pub fn boundary_activation_bytes(&self, mbs: usize) -> u64 {
        2 * mbs as u64 * self.seq as u64 * self.hidden as u64
    }
}

/// All four Table I GPT variants.
pub const ALL_GPT: [GptConfig; 4] = [GPT3_XL, GPT3_2_7B, GPT3_6_7B, GPT3_13B];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counts_match_brown_et_al() {
        // Within 4% of the nominal sizes (Brown et al. report rounded
        // numbers; exact counts depend on vocab rounding).
        let cases = [
            (GPT3_XL, 1.3e9),
            (GPT3_2_7B, 2.7e9),
            (GPT3_6_7B, 6.7e9),
            (GPT3_13B, 13.0e9),
        ];
        for (cfg, nominal) in cases {
            let p = cfg.params() as f64;
            let err = (p - nominal).abs() / nominal;
            assert!(err < 0.04, "{}: {p:.3e} vs nominal {nominal:.1e} (err {err:.3})", cfg.name);
        }
    }

    #[test]
    fn flops_formula_sanity() {
        // GPT-3 13B, batch 2048 sequences of 2048 tokens: Narayanan's
        // formula gives ≈ 4.6e17 flops per batch (96·2048·2048·40·5120²·…).
        let f = GPT3_13B.flops_per_batch();
        assert!(f > 3e17 && f < 7e17, "flops {f:.3e}");
    }

    #[test]
    fn flops_scale_with_batch_and_layers() {
        let base = GPT3_XL.flops_per_batch();
        let mut double_batch = GPT3_XL;
        double_batch.batch *= 2;
        assert!((double_batch.flops_per_batch() / base - 2.0).abs() < 1e-9);
    }

    #[test]
    fn layer_split_recovers_total_flops() {
        // Σ layers (attn + mlp) + 0.75·head == a quarter of the batch
        // flops per sequence (the forward of the 1 + 2 + 1 units): per
        // token, attention costs `8h² + 4·s·h` (QKV + proj GEMMs and
        // the two s×s score/value products), the 4× MLP `16h²`, the head
        // GEMM `2·h·V`. Narayanan's V/(16lh) term contributes 1.5·T·h·V,
        // i.e. 3/4 of the raw head GEMM (their derivation folds the head
        // into the recompute factor differently).
        for cfg in ALL_GPT {
            for mbs in [1usize, 4] {
                let tokens = (mbs * cfg.seq) as f64;
                let (h, s) = (cfg.hidden as f64, cfg.seq as f64);
                let per_layer = tokens * (8.0 * h * h + 4.0 * s * h) + tokens * 16.0 * h * h;
                let head = 2.0 * tokens * (cfg.hidden * cfg.vocab) as f64;
                let with_head = cfg.layers as f64 * per_layer + 0.75 * head;
                let formula = cfg.flops_per_batch() / (4.0 * cfg.batch as f64) * mbs as f64;
                let err = (with_head - formula).abs() / formula;
                assert!(err < 1e-9, "{} mbs={mbs}: err {err}", cfg.name);
            }
        }
    }

    #[test]
    fn boundary_activation_bytes_formula() {
        // mbs=4, seq=2048, h=2048, fp16: 2*4*2048*2048 = 33.55 MB.
        assert_eq!(GPT3_XL.boundary_activation_bytes(4), 2 * 4 * 2048 * 2048);
    }

    #[test]
    fn table_i_batch_sizes() {
        assert_eq!(GPT3_XL.batch, 512);
        assert_eq!(GPT3_2_7B.batch, 512);
        assert_eq!(GPT3_6_7B.batch, 1024);
        assert_eq!(GPT3_13B.batch, 2048);
    }
}
