//! Loss functions.

use tensor::ops::softmax_rows;
use tensor::Tensor;

/// Softmax cross-entropy over logits.
///
/// `logits` is `[N, V]`, `targets` a slice of `N` class indices. Returns
/// the mean loss and the gradient w.r.t. the logits (already divided by
/// `N`), computed with the numerically fused softmax+CE formulation
/// `d logits = (softmax(logits) − onehot) / N`.
pub fn cross_entropy(logits: &Tensor, targets: &[usize]) -> (f32, Tensor) {
    let n = logits.rows();
    let v = logits.cols();
    assert_eq!(targets.len(), n, "one target per row");

    let mut probs = logits.clone();
    softmax_rows(probs.as_mut_slice(), n, v);

    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < v, "target {t} out of range {v}");
        let p = probs.as_slice()[r * v + t].max(1e-30);
        loss -= (p as f64).ln();
    }
    let loss = (loss / n as f64) as f32;

    let mut grad = probs;
    let inv_n = 1.0 / n as f32;
    for (r, &t) in targets.iter().enumerate() {
        let row = &mut grad.as_mut_slice()[r * v..(r + 1) * v];
        row[t] -= 1.0;
        for g in row {
            *g *= inv_n;
        }
    }
    (loss, grad)
}

/// Perplexity = exp(cross-entropy) — the paper's Fig. 4 metric.
pub fn perplexity(cross_entropy_loss: f32) -> f32 {
    cross_entropy_loss.exp()
}

/// Mean squared error and its gradient w.r.t. predictions.
pub fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
    assert_eq!(pred.shape(), target.shape());
    let n = pred.numel() as f32;
    let mut grad = Tensor::zeros(pred.shape());
    let mut loss = 0.0f64;
    for ((g, &p), &t) in grad
        .as_mut_slice()
        .iter_mut()
        .zip(pred.as_slice())
        .zip(target.as_slice())
    {
        let d = p - t;
        loss += (d as f64) * (d as f64);
        *g = 2.0 * d / n;
    }
    ((loss / n as f64) as f32, grad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_vocab_loss() {
        let logits = Tensor::zeros(&[3, 10]);
        let (loss, grad) = cross_entropy(&logits, &[0, 5, 9]);
        assert!((loss - (10.0f32).ln()).abs() < 1e-5);
        // grad rows sum to zero (softmax minus one-hot).
        for row in grad.as_slice().chunks(10) {
            let s: f32 = row.iter().sum();
            assert!(s.abs() < 1e-6);
        }
        assert!((perplexity(loss) - 10.0).abs() < 1e-3);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Tensor::zeros(&[1, 4]);
        logits.as_mut_slice()[2] = 20.0;
        let (loss, grad) = cross_entropy(&logits, &[2]);
        assert!(loss < 1e-6);
        assert!(grad.as_slice().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn confident_wrong_prediction_has_high_loss() {
        let mut logits = Tensor::zeros(&[1, 4]);
        logits.as_mut_slice()[0] = 20.0;
        let (loss, grad) = cross_entropy(&logits, &[3]);
        assert!(loss > 15.0);
        assert!(grad.as_slice()[0] > 0.9); // pushes wrong logit down... grad is +p
        assert!(grad.as_slice()[3] < -0.9); // pulls right logit up
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_vec(&[2, 3], vec![0.5, -1.0, 2.0, 1.0, 1.5, -0.5]);
        let targets = [2usize, 0];
        let (_, grad) = cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for i in 0..6 {
            let mut lp = logits.clone();
            lp.as_mut_slice()[i] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[i] -= eps;
            let (fp, _) = cross_entropy(&lp, &targets);
            let (fm, _) = cross_entropy(&lm, &targets);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - grad.as_slice()[i]).abs() < 1e-3,
                "at {i}: fd {fd} vs analytic {}",
                grad.as_slice()[i]
            );
        }
    }

    #[test]
    fn large_logits_are_stable() {
        let logits = Tensor::from_vec(&[1, 3], vec![1000.0, 999.0, -1000.0]);
        let (loss, grad) = cross_entropy(&logits, &[0]);
        assert!(loss.is_finite());
        assert!(grad.as_slice().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn mse_zero_for_equal() {
        let a = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let (loss, grad) = mse(&a, &a);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Tensor::from_vec(&[2], vec![1.0, 0.0]);
        let target = Tensor::from_vec(&[2], vec![0.0, 1.0]);
        let (loss, grad) = mse(&pred, &target);
        assert_eq!(loss, 1.0);
        assert_eq!(grad.as_slice(), &[1.0, -1.0]);
    }
}
