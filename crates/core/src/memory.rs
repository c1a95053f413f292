//! The analytical memory model of paper Sec. III-D, plus byte-exact
//! accounting of the concrete data structures (checked against each other
//! in tests).
//!
//! For a network of `φ` parameters, pruned fraction `p`, `f = 1 − p`,
//! trained with Adam in mixed precision:
//!
//! * `M_default = 20φ` bytes (2 + 2 + 4 + 4 + 8),
//! * `M_SAMO    = 18fφ + 4fφ + 2φ + 2fφ = 24fφ + 2φ` bytes
//!   (compressed states + shared index + dense θ16 + transient downcast
//!   copy),
//! * absolute saving `(24p − 6)φ` bytes, break-even at `p = 0.25`,
//! * 66–78% saved in the typical pruning range `p ∈ [0.8, 0.9]`.

/// Bytes of model state for default dense mixed-precision Adam training.
///
/// ```
/// // GPT-3 2.7B: 20φ ≈ 53 GB of model state before SAMO.
/// let phi = 2_652_000_000u64;
/// assert_eq!(samo::m_default_bytes(phi), 20 * phi);
/// // At 90% sparsity SAMO cuts it by 78%:
/// let saved = 1.0 - samo::m_samo_bytes(phi, 0.9) as f64
///     / samo::m_default_bytes(phi) as f64;
/// assert!((saved - 0.78).abs() < 0.005);
/// ```
pub fn m_default_bytes(phi: u64) -> u64 {
    20 * phi
}

/// Bytes of model state under SAMO at pruned fraction `p` (Eq. 2),
/// including the transient compressed fp16 copy made during the
/// optimizer's downcast step (peak usage).
pub fn m_samo_bytes(phi: u64, p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p));
    let f = 1.0 - p;
    (24.0 * f * phi as f64 + 2.0 * phi as f64).round() as u64
}

/// Analytic per-rank memory of ZeRO-sharded SAMO (Adam) across `d`
/// data-parallel ranks (see `crate::state`): `2φ + 6fφ + 18fφ/d` at peak,
/// including the sharded downcast temp. Recovers [`m_samo_bytes`] at
/// `d = 1` and approaches `2φ + 6fφ` for large `d` — for GPT-3 2.7B at
/// `p = 0.9` and `d = 64` this is 6.9 GB vs SAMO's 11.7 GB vs dense 53 GB.
pub fn m_samo_zero_bytes(phi: u64, p: f64, d: u64) -> u64 {
    assert!((0.0..=1.0).contains(&p));
    assert!(d >= 1);
    let f = 1.0 - p;
    let full = 6.0 * f * phi as f64;
    let sharded = 18.0 * f * phi as f64 / d as f64;
    (2.0 * phi as f64 + full + sharded).round() as u64
}

/// Absolute memory saving `(24p − 6)φ` bytes (Eq. 5). Negative below the
/// break-even sparsity.
// TEST-API: `paper_claims` checks Eq. 5's (24p − 6)φ with it.
pub fn samo_savings_bytes(phi: u64, p: f64) -> i64 {
    m_default_bytes(phi) as i64 - m_samo_bytes(phi, p) as i64
}

/// Fractional saving relative to `M_default` (the Fig. 2 curve).
pub fn samo_savings_fraction(p: f64) -> f64 {
    (24.0 * p - 6.0) / 20.0
}

/// The sparsity below which SAMO *costs* memory: `p = 0.25`.
pub const BREAK_EVEN_SPARSITY: f64 = 0.25;

/// Component-wise breakdown of SAMO's model state for one layer/model of
/// `phi` parameters with `nnz` kept, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamoBreakdown {
    /// Dense half-precision parameters: `2φ`.
    pub theta16: u64,
    /// Shared linearized index tensor: `4fφ`.
    pub index: u64,
    /// Compressed fp32 master parameters: `4fφ`.
    pub theta32: u64,
    /// Compressed fp16 gradients: `2fφ`.
    pub grad16: u64,
    /// Compressed fp32 gradients: `4fφ`.
    pub grad32: u64,
    /// Compressed Adam states: `8fφ`.
    pub optimizer: u64,
    /// Transient compressed fp16 copy in the downcast step: `2fφ`.
    pub downcast_temp: u64,
}

impl SamoBreakdown {
    /// Breakdown for `phi` total parameters with `nnz` unpruned, Adam.
    pub fn new(phi: u64, nnz: u64) -> SamoBreakdown {
        SamoBreakdown {
            theta16: 2 * phi,
            index: 4 * nnz,
            theta32: 4 * nnz,
            grad16: 2 * nnz,
            grad32: 4 * nnz,
            optimizer: 8 * nnz,
            downcast_temp: 2 * nnz,
        }
    }

    /// Steady-state bytes (everything except the transient copy).
    pub fn steady_bytes(&self) -> u64 {
        self.theta16 + self.index + self.theta32 + self.grad16 + self.grad32 + self.optimizer
    }

    /// Peak bytes during the optimizer step (Eq. 2's `24fφ + 2φ`).
    pub fn peak_bytes(&self) -> u64 {
        self.steady_bytes() + self.downcast_temp
    }
}

/// GiB helper for reporting (the paper mixes GB/GiB loosely; we report
/// decimal GB as it matches their 2.7B headline closest).
pub fn bytes_to_gb(bytes: u64) -> f64 {
    bytes as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_20_bytes_per_param() {
        assert_eq!(m_default_bytes(1), 20);
        assert_eq!(m_default_bytes(2_700_000_000), 54_000_000_000);
    }

    #[test]
    fn samo_formula_matches_eq2() {
        // 24fφ + 2φ with f = 0.1, φ = 100 → 240 + 200 = 440.
        assert_eq!(m_samo_bytes(100, 0.9), 440);
        // f = 1 (no pruning): 26φ — SAMO costs 30% extra.
        assert_eq!(m_samo_bytes(100, 0.0), 2600);
    }

    #[test]
    fn break_even_at_quarter_sparsity() {
        assert_eq!(samo_savings_bytes(1000, BREAK_EVEN_SPARSITY), 0);
        assert!(samo_savings_bytes(1000, 0.24) < 0);
        assert!(samo_savings_bytes(1000, 0.26) > 0);
        assert!(samo_savings_fraction(BREAK_EVEN_SPARSITY).abs() < 1e-12);
    }

    #[test]
    fn paper_range_saves_66_to_78_percent() {
        let at_80 = samo_savings_fraction(0.8);
        let at_90 = samo_savings_fraction(0.9);
        assert!((at_80 - 0.66).abs() < 0.005, "p=0.8 saves {at_80}");
        assert!((at_90 - 0.78).abs() < 0.005, "p=0.9 saves {at_90}");
    }

    #[test]
    fn breakdown_sums_to_formula() {
        let phi = 1_000_000u64;
        for &p in &[0.0, 0.25, 0.5, 0.8, 0.9, 0.99] {
            let nnz = ((1.0 - p) * phi as f64).round() as u64;
            let b = SamoBreakdown::new(phi, nnz);
            assert_eq!(b.peak_bytes(), m_samo_bytes(phi, p), "p = {p}");
        }
    }

    #[test]
    fn theta16_dominates_at_extreme_sparsity() {
        let b = SamoBreakdown::new(1000, 10);
        assert!(b.theta16 > b.steady_bytes() - b.theta16);
    }

    #[test]
    fn sgd_variant_matches_live_structures() {
        // "SAMO can be easily extended to work with other optimizers"
        // (Sec. III-D): with SGD's one 4-byte momentum per kept value
        // the structures hold 2φ + (4 index + 4 θ32 + 2 ∇θ16 + 4 ∇θ32 +
        // 4 momentum + 2 temp)·nnz = 2φ + 20·nnz at peak, byte for byte.
        use crate::state::SamoLayerState;
        use nn::mixed::Optimizer;
        use nn::optim::SgdConfig;
        let phi = 10_000usize;
        let mask = prune::random_prune(&[phi], 0.9, 1);
        let nnz = mask.nnz() as u64;
        let st = SamoLayerState::from_params(
            &vec![0.1; phi],
            mask,
            &Optimizer::Sgd(SgdConfig::default()),
        );
        assert_eq!(st.measured_bytes(true), 2 * phi as u64 + 20 * nnz);
    }

    #[test]
    fn gpt27b_headline_direction() {
        // Paper Sec. I: 2.7B model, p = 0.9 → "74%" reduction
        // (80.16 GB → 20.28 GB measured on 16 GPUs, which includes
        // framework buffers; the pure model-state formula gives 78%).
        let phi = 2_700_000_000u64;
        let default = m_default_bytes(phi);
        let samo = m_samo_bytes(phi, 0.9);
        let reduction = 1.0 - samo as f64 / default as f64;
        assert!(reduction > 0.70 && reduction < 0.80, "reduction {reduction}");
    }

    #[test]
    fn zero_formula_recovers_samo_at_d1_and_falls_to_a_floor() {
        let phi = 1_000_000u64;
        for p in [0.5, 0.8, 0.9] {
            assert_eq!(m_samo_zero_bytes(phi, p, 1), m_samo_bytes(phi, p));
        }
        let mut prev = u64::MAX;
        for d in [1u64, 2, 4, 8, 64, 1024] {
            let m = m_samo_zero_bytes(phi, 0.9, d);
            assert!(m < prev);
            prev = m;
        }
        let floor = (2.0 * phi as f64 + 6.0 * 0.1 * phi as f64) as u64;
        assert!(prev >= floor && prev < floor + floor / 50, "should approach the floor");
        // Doc-comment claim: 2.7B, p = 0.9, d = 64 → ~6.9 GB per rank.
        let m = m_samo_zero_bytes(2_652_000_000, 0.9, 64) as f64 / 1e9;
        assert!((m - 6.9).abs() < 0.3, "got {m} GB");
    }
}
