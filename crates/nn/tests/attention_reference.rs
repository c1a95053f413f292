//! `CausalSelfAttention` against a naive reference: attention runs its
//! per-head GEMMs in place on the fused `[B*T, 3C]` QKV buffer (views with
//! leading dimension `3C`, products landing at a stride), so the reference
//! is triple loops over that same buffer in f64 — no GEMM, no copies —
//! and has to agree on the output and on every gradient. Runs under
//! `SAMO_SIMD=off` and the default tier in CI.

use nn::attention::CausalSelfAttention;
use nn::layer::Layer;
use tensor::Tensor;

/// `y[r, o] = Σ_i x[r, i] · w[o, i] + b[o]`.
fn linear(x: &[f64], w: &[f32], b: &[f32], rows: usize, n_in: usize, n_out: usize) -> Vec<f64> {
    let mut y = vec![0.0; rows * n_out];
    for r in 0..rows {
        for o in 0..n_out {
            let dot: f64 = (0..n_in).map(|i| x[r * n_in + i] * w[o * n_in + i] as f64).sum();
            y[r * n_out + o] = dot + b[o] as f64;
        }
    }
    y
}

/// Gradients of [`linear`]: `(dx, dw, db)`.
fn linear_grads(
    x: &[f64],
    w: &[f32],
    dy: &[f64],
    rows: usize,
    n_in: usize,
    n_out: usize,
) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut dx, mut dw, mut db) = (vec![0.0; rows * n_in], vec![0.0; n_out * n_in], vec![0.0; n_out]);
    for r in 0..rows {
        for o in 0..n_out {
            let d = dy[r * n_out + o];
            db[o] += d;
            for i in 0..n_in {
                dw[o * n_in + i] += d * x[r * n_in + i];
                dx[r * n_in + i] += d * w[o * n_in + i] as f64;
            }
        }
    }
    (dx, dw, db)
}

/// Output and gradients `[y, dx, dw_qkv, db_qkv, dw_proj, db_proj]` of the
/// layer whose parameters are `params`, by loops over the fused buffer.
fn reference(
    params: &[&[f32]],
    x: &[f32],
    dy: &[f32],
    (batch, seq, c, heads): (usize, usize, usize, usize),
) -> [Vec<f64>; 6] {
    let (rows, hd, ld) = (batch * seq, c / heads, 3 * c);
    let scale = 1.0 / (hd as f64).sqrt();
    let x: Vec<f64> = x.iter().map(|&v| v as f64).collect();
    let dy: Vec<f64> = dy.iter().map(|&v| v as f64).collect();
    let qkv = linear(&x, params[0], params[1], rows, c, ld);
    // Element `d` of head `h`'s q (0), k (1) or v (2) row at (b, t).
    let at = |b: usize, t: usize, which: usize, h: usize, d: usize| {
        (b * seq + t) * ld + which * c + h * hd + d
    };

    let mut probs = vec![0.0; batch * heads * seq * seq];
    let mut att = vec![0.0; rows * c];
    for b in 0..batch {
        for h in 0..heads {
            let p = &mut probs[(b * heads + h) * seq * seq..][..seq * seq];
            for i in 0..seq {
                for j in 0..=i {
                    let dot: f64 =
                        (0..hd).map(|d| qkv[at(b, i, 0, h, d)] * qkv[at(b, j, 1, h, d)]).sum();
                    p[i * seq + j] = (dot * scale).exp();
                }
                let denom: f64 = p[i * seq..=i * seq + i].iter().sum();
                for j in 0..=i {
                    p[i * seq + j] /= denom;
                    for d in 0..hd {
                        att[(b * seq + i) * c + h * hd + d] += p[i * seq + j] * qkv[at(b, j, 2, h, d)];
                    }
                }
            }
        }
    }
    let y = linear(&att, params[2], params[3], rows, c, c);

    let (datt, dw_proj, db_proj) = linear_grads(&att, params[2], &dy, rows, c, c);
    let mut dqkv = vec![0.0; rows * ld];
    for b in 0..batch {
        for h in 0..heads {
            let p = &probs[(b * heads + h) * seq * seq..][..seq * seq];
            let dout = |i: usize, d: usize| datt[(b * seq + i) * c + h * hd + d];
            for i in 0..seq {
                let dp: Vec<f64> = (0..=i)
                    .map(|j| (0..hd).map(|d| dout(i, d) * qkv[at(b, j, 2, h, d)]).sum())
                    .collect();
                let dot: f64 = (0..=i).map(|j| p[i * seq + j] * dp[j]).sum();
                for j in 0..=i {
                    let ds = p[i * seq + j] * (dp[j] - dot) * scale;
                    for d in 0..hd {
                        dqkv[at(b, j, 2, h, d)] += p[i * seq + j] * dout(i, d);
                        dqkv[at(b, i, 0, h, d)] += ds * qkv[at(b, j, 1, h, d)];
                        dqkv[at(b, j, 1, h, d)] += ds * qkv[at(b, i, 0, h, d)];
                    }
                }
            }
        }
    }
    let (dx, dw_qkv, db_qkv) = linear_grads(&x, params[0], &dqkv, rows, c, ld);
    [y, dx, dw_qkv, db_qkv, dw_proj, db_proj]
}

#[test]
fn forward_and_every_gradient_agree_with_the_naive_reference() {
    let c = 16;
    for heads in [1usize, 2, 4] {
        for seq in [1usize, 5, 32] {
            for batch in [1usize, 3] {
                let seed = (heads * 100 + seq * 10 + batch) as u64;
                let mut attn = CausalSelfAttention::new(c, heads, seed);
                // Non-zero biases, so their path is exercised too.
                for (i, p) in attn.params_mut().into_iter().enumerate() {
                    if p.name.ends_with("bias") {
                        p.value = Tensor::randn(p.value.shape(), 0.1, seed + 7 + i as u64);
                    }
                }
                let x = Tensor::randn(&[batch, seq, c], 0.7, seed + 1);
                let dy = Tensor::randn(&[batch, seq, c], 0.5, seed + 2);

                let y = attn.forward(&x);
                let linears = (batch * seq * c + batch * seq * c) * 4;
                let own = (3 * batch * seq * c + batch * heads * seq * seq) * 4;
                assert_eq!(attn.cached_bytes(), own + linears, "cached_bytes");
                let dx = attn.backward(&dy);
                assert_eq!(attn.cached_bytes(), 0, "backward consumes the caches");

                let params: Vec<&[f32]> = attn.params().iter().map(|p| p.value.as_slice()).collect();
                let want = reference(&params, x.as_slice(), dy.as_slice(), (batch, seq, c, heads));
                let grads: Vec<&[f32]> = attn.params().iter().map(|p| p.grad.as_slice()).collect();
                let got = [y.as_slice(), dx.as_slice(), grads[0], grads[1], grads[2], grads[3]];
                let names = ["y", "dx", "qkv.weight", "qkv.bias", "proj.weight", "proj.bias"];
                for ((got, want), name) in got.iter().zip(&want).zip(names) {
                    assert_eq!(got.len(), want.len());
                    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
                        assert!(
                            (g as f64 - w).abs() <= 1e-5 * w.abs().max(1.0),
                            "heads {heads}, T {seq}, B {batch}: {name}[{i}] = {g}, reference {w}"
                        );
                    }
                }
            }
        }
    }
}
