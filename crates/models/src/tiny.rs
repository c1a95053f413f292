//! A real, trainable, CPU-scale GPT — the substitution for training
//! GPT-3 XL / 2.7B to completion in the paper's Fig. 4 statistical-
//! efficiency experiment. Same architecture family (pre-LN decoder-only
//! transformer with learned position embeddings and tied LM head
//! omitted for clarity), three orders of magnitude smaller.

use nn::activations::Gelu;
use nn::attention::CausalSelfAttention;
use nn::embedding::Embedding;
use nn::layer::{Layer, Sequential};
use nn::linear::Linear;
use nn::norm::LayerNorm;
use nn::param::Parameter;
use tensor::Tensor;

/// Hyperparameters of the tiny GPT.
#[derive(Debug, Clone, Copy)]
pub struct TinyGptConfig {
    pub vocab: usize,
    pub seq: usize,
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
}

impl Default for TinyGptConfig {
    fn default() -> Self {
        TinyGptConfig {
            vocab: nn::data::VOCAB,
            seq: 32,
            dim: 32,
            heads: 4,
            layers: 2,
        }
    }
}

/// Pre-LN transformer block: `x + attn(ln1(x))`, then `x + mlp(ln2(x))`.
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: CausalSelfAttention,
    ln2: LayerNorm,
    mlp: Sequential,
    dim: usize,
    cache_shapes: Option<Vec<usize>>,
}

impl TransformerBlock {
    /// Builds a block over model dim `dim` with `heads` attention heads.
    pub fn new(dim: usize, heads: usize, seed: u64) -> TransformerBlock {
        TransformerBlock {
            ln1: LayerNorm::new(dim),
            attn: CausalSelfAttention::new(dim, heads, seed),
            ln2: LayerNorm::new(dim),
            mlp: Sequential::new()
                .push(Linear::new(dim, 4 * dim, true, seed + 10))
                .push(Gelu::new())
                .push(Linear::new(4 * dim, dim, true, seed + 11)),
            dim,
            cache_shapes: None,
        }
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape().to_vec();
        assert_eq!(shape.len(), 3, "block expects [B, T, C]");
        assert_eq!(shape[2], self.dim);
        let rows = shape[0] * shape[1];

        let h1 = self.ln1.forward(x);
        let a = self.attn.forward(&h1);
        // x2 = x + a
        let mut x2 = x.clone();
        tensor::ops::axpy(1.0, a.as_slice(), x2.as_mut_slice());

        let h2 = self.ln2.forward(&x2);
        let m = self
            .mlp
            .forward(&h2.clone().reshape(&[rows, self.dim]));
        let mut y = x2;
        tensor::ops::axpy(1.0, m.as_slice(), y.as_mut_slice());
        self.cache_shapes = Some(shape);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let shape = self.cache_shapes.take().expect("backward before forward");
        let rows = shape[0] * shape[1];
        // y = x2 + mlp(ln2(x2)):  dx2 = dy + ln2ᵀ(mlpᵀ(dy))
        let dm = self
            .mlp
            .backward(&dy.clone().reshape(&[rows, self.dim]));
        let dln2 = self.ln2.backward(&dm.reshape(&shape));
        let mut dx2 = dy.clone();
        tensor::ops::axpy(1.0, dln2.as_slice(), dx2.as_mut_slice());

        // x2 = x + attn(ln1(x)):  dx = dx2 + ln1ᵀ(attnᵀ(dx2))
        let da = self.attn.backward(&dx2);
        let dln1 = self.ln1.backward(&da);
        let mut dx = dx2;
        tensor::ops::axpy(1.0, dln1.as_slice(), dx.as_mut_slice());
        dx
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.ln1.params();
        v.extend(self.attn.params());
        v.extend(self.ln2.params());
        v.extend(self.mlp.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.ln1.params_mut();
        v.extend(self.attn.params_mut());
        v.extend(self.ln2.params_mut());
        v.extend(self.mlp.params_mut());
        v
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.ln1.for_each_param_mut(f);
        self.attn.for_each_param_mut(f);
        self.ln2.for_each_param_mut(f);
        self.mlp.for_each_param_mut(f);
    }

    fn clear_caches(&mut self) {
        self.cache_shapes = None;
        self.ln1.clear_caches();
        self.attn.clear_caches();
        self.ln2.clear_caches();
        self.mlp.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        self.ln1.cached_bytes()
            + self.attn.cached_bytes()
            + self.ln2.cached_bytes()
            + self.mlp.cached_bytes()
    }
}

/// The tiny GPT: token + position embeddings, `layers` transformer
/// blocks, final LayerNorm, linear LM head.
///
/// As a [`Layer`], its input is a `[B, T]` tensor of token ids (as f32)
/// and its output `[B*T, vocab]` logits, so the SAMO trainer can treat it
/// like any other model.
pub struct TinyGpt {
    pub config: TinyGptConfig,
    tok: Embedding,
    pos: Embedding,
    blocks: Vec<TransformerBlock>,
    ln_f: LayerNorm,
    head: Linear,
    cache_bt: Option<(usize, usize)>,
}

impl TinyGpt {
    /// Builds the model with deterministic seeded initialization.
    pub fn new(config: TinyGptConfig, seed: u64) -> TinyGpt {
        let blocks = (0..config.layers)
            .map(|i| TransformerBlock::new(config.dim, config.heads, seed + 100 * i as u64))
            .collect();
        TinyGpt {
            tok: Embedding::new(config.vocab, config.dim, seed + 1),
            pos: Embedding::new(config.seq, config.dim, seed + 2),
            blocks,
            ln_f: LayerNorm::new(config.dim),
            head: Linear::new(config.dim, config.vocab, false, seed + 3),
            config,
            cache_bt: None,
        }
    }

    /// Forward pass over explicit id slices: `ids.len()` must be `B·T`.
    pub fn forward_ids(&mut self, ids: &[usize], batch: usize, seq: usize) -> Tensor {
        assert_eq!(ids.len(), batch * seq);
        let ids_f: Vec<f32> = ids.iter().map(|&i| i as f32).collect();
        self.forward(&Tensor::from_vec(&[batch, seq], ids_f))
    }

    /// Autoregressive generation: extends `prompt` by `new_tokens`
    /// tokens, sampling from the temperature-scaled softmax with the
    /// given RNG (temperature 0 is greedy argmax).
    pub fn generate(
        &mut self,
        prompt: &[usize],
        new_tokens: usize,
        temperature: f32,
        rng: &mut impl rand::Rng,
    ) -> Vec<usize> {
        assert!(!prompt.is_empty(), "prompt must be non-empty");
        let mut ids = prompt.to_vec();
        for _ in 0..new_tokens {
            // Window to the model's context length.
            let start = ids.len().saturating_sub(self.config.seq);
            let window = &ids[start..];
            let logits = self.forward_ids(window, 1, window.len());
            let v = self.config.vocab;
            let last = &logits.as_slice()[(window.len() - 1) * v..window.len() * v];
            let next = if temperature <= 0.0 {
                last.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            } else {
                let mut probs: Vec<f32> = last.iter().map(|&l| l / temperature).collect();
                tensor::ops::softmax_rows(&mut probs, 1, v);
                let r: f32 = rng.gen();
                let mut acc = 0.0f32;
                let mut pick = v - 1;
                for (i, &p) in probs.iter().enumerate() {
                    acc += p;
                    if r < acc {
                        pick = i;
                        break;
                    }
                }
                pick
            };
            ids.push(next);
        }
        // Forward only: no backward will come for these activations.
        self.clear_caches();
        ids
    }
}

impl Layer for TinyGpt {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let shape = x.shape();
        assert_eq!(shape.len(), 2, "TinyGpt expects [B, T] ids");
        let (batch, seq) = (shape[0], shape[1]);
        assert!(seq <= self.config.seq, "sequence longer than context");

        let tok_emb = self.tok.forward(x); // [B, T, C]
        // Position ids 0..seq for every batch row.
        let pos_ids: Vec<f32> = (0..batch)
            .flat_map(|_| (0..seq).map(|t| t as f32))
            .collect();
        let pos_emb = self.pos.forward(&Tensor::from_vec(&[batch, seq], pos_ids));

        let mut h = tok_emb;
        tensor::ops::axpy(1.0, pos_emb.as_slice(), h.as_mut_slice());
        for block in &mut self.blocks {
            h = block.forward(&h);
        }
        let h = self.ln_f.forward(&h);
        let logits = self
            .head
            .forward(&h.reshape(&[batch * seq, self.config.dim]));
        self.cache_bt = Some((batch, seq));
        logits
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let (batch, seq) = self.cache_bt.take().expect("backward before forward");
        let dh = self.head.backward(dy);
        let mut dh = self
            .ln_f
            .backward(&dh.reshape(&[batch, seq, self.config.dim]));
        for block in self.blocks.iter_mut().rev() {
            dh = block.backward(&dh);
        }
        // Sum of token and position embedding paths; both consume dh.
        self.pos.backward(&dh);
        self.tok.backward(&dh)
    }

    fn params(&self) -> Vec<&Parameter> {
        let mut v = self.tok.params();
        v.extend(self.pos.params());
        for b in &self.blocks {
            v.extend(b.params());
        }
        v.extend(self.ln_f.params());
        v.extend(self.head.params());
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        let mut v = self.tok.params_mut();
        v.extend(self.pos.params_mut());
        for b in &mut self.blocks {
            v.extend(b.params_mut());
        }
        v.extend(self.ln_f.params_mut());
        v.extend(self.head.params_mut());
        v
    }

    fn for_each_param_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        self.tok.for_each_param_mut(f);
        self.pos.for_each_param_mut(f);
        for b in &mut self.blocks {
            b.for_each_param_mut(f);
        }
        self.ln_f.for_each_param_mut(f);
        self.head.for_each_param_mut(f);
    }

    fn clear_caches(&mut self) {
        self.cache_bt = None;
        self.tok.clear_caches();
        self.pos.clear_caches();
        for b in &mut self.blocks {
            b.clear_caches();
        }
        self.ln_f.clear_caches();
        self.head.clear_caches();
    }

    fn cached_bytes(&self) -> usize {
        self.tok.cached_bytes()
            + self.pos.cached_bytes()
            + self.blocks.iter().map(|b| b.cached_bytes()).sum::<usize>()
            + self.ln_f.cached_bytes()
            + self.head.cached_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::loss::cross_entropy;

    #[test]
    fn forward_shape() {
        let mut gpt = TinyGpt::new(TinyGptConfig::default(), 0);
        let ids: Vec<usize> = (0..2 * 8).map(|i| i % 16).collect();
        let logits = gpt.forward_ids(&ids, 2, 8);
        assert_eq!(logits.shape(), &[16, 16]);
        assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn block_gradcheck() {
        let mut block = TransformerBlock::new(8, 2, 5);
        let x = Tensor::randn(&[2, 3, 8], 0.5, 6);
        let report = nn::gradcheck::check_layer(&mut block, &x, 1e-2, 32);
        assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn loss_decreases_with_training() {
        use nn::optim::{adam_step, AdamConfig, AdamState};
        let cfg = TinyGptConfig {
            vocab: 16,
            seq: 16,
            dim: 16,
            heads: 2,
            layers: 1,
        };
        let mut gpt = TinyGpt::new(cfg, 3);
        let corpus = nn::data::Corpus::generate(5000, 9);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);

        let opt = AdamConfig {
            lr: 3e-3,
            ..Default::default()
        };
        let mut states: Vec<AdamState> =
            gpt.params().iter().map(|p| AdamState::new(p.numel())).collect();

        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let (x, y) = corpus.sample_batch(8, 16, &mut rng);
            let logits = gpt.forward_ids(&x, 8, 16);
            let (loss, dlogits) = cross_entropy(&logits, &y);
            gpt.backward(&dlogits);
            for (p, st) in gpt.params_mut().into_iter().zip(&mut states) {
                let grads = p.grad.as_slice().to_vec();
                adam_step(&opt, st, p.value.as_mut_slice(), &grads);
                p.zero_grad();
            }
            first.get_or_insert(loss);
            last = loss;
        }
        let first = first.unwrap();
        assert!(
            last < first - 0.3,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn param_count_formula() {
        let cfg = TinyGptConfig {
            vocab: 16,
            seq: 32,
            dim: 32,
            heads: 4,
            layers: 2,
        };
        let gpt = TinyGpt::new(cfg, 0);
        let total: usize = gpt.params().iter().map(|p| p.numel()).sum();
        // emb 16*32 + pos 32*32 + 2 blocks * (12*32² + 13*32) + ln_f 64
        // + head 32*16
        let expect = 16 * 32 + 32 * 32 + 2 * (12 * 32 * 32 + 13 * 32) + 64 + 32 * 16;
        assert_eq!(total, expect);
    }

    #[test]
    fn caches_are_reported_and_released() {
        let mut gpt = TinyGpt::new(TinyGptConfig::default(), 23);
        let ids: Vec<usize> = (0..2 * 8).map(|i| i % 16).collect();
        assert_eq!(gpt.cached_bytes(), 0);

        let logits = gpt.forward_ids(&ids, 2, 8);
        let held = gpt.cached_bytes();
        // At least every block's qkv output and attention probabilities.
        assert!(held > 2 * (3 * 16 * 32 + 2 * 4 * 8 * 8) * 4, "{held} B reported");
        gpt.clear_caches();
        assert_eq!(gpt.cached_bytes(), 0);

        gpt.forward_ids(&ids, 2, 8);
        assert_eq!(gpt.cached_bytes(), held);
        gpt.backward(&Tensor::zeros(logits.shape()));
        assert_eq!(gpt.cached_bytes(), 0, "backward consumes what forward cached");

        // A block on its own, as a pipeline stage holds it.
        let mut block = TransformerBlock::new(8, 2, 5);
        block.forward(&Tensor::randn(&[2, 3, 8], 0.5, 6));
        assert!(block.cached_bytes() > 0);
        block.clear_caches();
        assert_eq!(block.cached_bytes(), 0);

        // Generation runs forwards only and leaves nothing behind.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        gpt.generate(&[1, 2, 3], 4, 1.0, &mut rng);
        assert_eq!(gpt.cached_bytes(), 0);
    }

    #[test]
    fn generation_extends_prompt_within_vocab() {
        use rand::SeedableRng;
        let mut gpt = TinyGpt::new(TinyGptConfig::default(), 17);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = gpt.generate(&[1, 2, 3], 10, 1.0, &mut rng);
        assert_eq!(out.len(), 13);
        assert_eq!(&out[..3], &[1, 2, 3]);
        assert!(out.iter().all(|&t| t < 16));
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        use rand::SeedableRng;
        let mut g1 = TinyGpt::new(TinyGptConfig::default(), 19);
        let mut g2 = TinyGpt::new(TinyGptConfig::default(), 19);
        let mut r1 = rand::rngs::StdRng::seed_from_u64(1);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(999); // rng unused at T=0
        let a = g1.generate(&[0, 5], 8, 0.0, &mut r1);
        let b = g2.generate(&[0, 5], 8, 0.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn generation_respects_context_window() {
        use rand::SeedableRng;
        let cfg = TinyGptConfig {
            seq: 8,
            ..TinyGptConfig::default()
        };
        let mut gpt = TinyGpt::new(cfg, 23);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Prompt longer than the context: must not panic, windows input.
        let prompt: Vec<usize> = (0..20).map(|i| i % 16).collect();
        let out = gpt.generate(&prompt, 5, 0.5, &mut rng);
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn causal_generation_property() {
        // Output logits at position t depend only on ids ≤ t.
        let mut gpt = TinyGpt::new(TinyGptConfig::default(), 7);
        let ids1: Vec<usize> = (0..8).map(|i| i % 16).collect();
        let mut ids2 = ids1.clone();
        ids2[7] = (ids2[7] + 3) % 16; // change the last token
        let l1 = gpt.forward_ids(&ids1, 1, 8);
        let l2 = gpt.forward_ids(&ids2, 1, 8);
        // Positions 0..7 unchanged.
        for t in 0..7 {
            for v in 0..16 {
                let a = l1.as_slice()[t * 16 + v];
                let b = l2.as_slice()[t * 16 + v];
                assert!((a - b).abs() < 1e-5, "position {t} leaked future");
            }
        }
    }
}
