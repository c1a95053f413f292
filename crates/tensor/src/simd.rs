//! Runtime SIMD feature dispatch and the explicitly-vectorized slice
//! kernels built on it.
//!
//! Every kernel in this crate with an AVX2 path keeps a scalar fallback
//! that is **bitwise identical**: both tiers perform the same IEEE
//! operations (correctly-rounded `mul_add`, one rounding per step) in the
//! same per-element order, vectorizing only across independent output
//! elements. That property is what lets the SIMD tier slide under the
//! existing checkpoint-byte determinism oracles without re-recording
//! anything — see DESIGN.md §11 for the full argument.
//!
//! The tier is chosen once per process from `is_x86_feature_detected!`
//! (AVX2, FMA and F16C together) and can be overridden with the `SAMO_SIMD`
//! environment variable:
//!
//! * `SAMO_SIMD=off` (or `scalar`) — force the scalar tier,
//! * `SAMO_SIMD=avx2` — require AVX2 (falls back with a warning when the
//!   CPU lacks it),
//! * `SAMO_SIMD=auto` or unset — use AVX2 when detected.
//!
//! Tests and benchmarks that need to pin a tier call the `*_tier` entry
//! points directly instead of mutating the environment; the safe wrappers
//! re-check [`detected_avx2`] before entering any `target_feature`
//! function, so passing [`Tier::Avx2`] on a non-AVX2 machine degrades to
//! scalar instead of being undefined behaviour.

use crate::f16::{to_f32_table, F16};
use crate::pool::SplitMut;
use std::sync::OnceLock;

/// The instruction tier a kernel executes with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Portable Rust; `mul_add` keeps it bit-compatible with AVX2+FMA.
    Scalar,
    /// 256-bit AVX2 with FMA (x86-64 only).
    Avx2,
}

impl Tier {
    /// Stable lowercase name used in logs and BENCH sections.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
        }
    }
}

/// `true` when the CPU supports AVX2, FMA *and* F16C — everything the
/// vector paths use (the GEMM pack widens a half-precision operand with
/// `vcvtph2ps`). They appeared together in practice, but check all three
/// — once: kernels ask per dispatch, some per output row, and three
/// feature tests there showed as +3 % on `serve_open`'s median latency.
pub fn detected_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
                && is_x86_feature_detected!("f16c")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide tier: resolved once from `SAMO_SIMD` + CPU detection.
pub fn active() -> Tier {
    static ACTIVE: OnceLock<Tier> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let auto = if detected_avx2() { Tier::Avx2 } else { Tier::Scalar };
        match std::env::var("SAMO_SIMD") {
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "off" | "scalar" | "0" => Tier::Scalar,
                "avx2" => {
                    if detected_avx2() {
                        Tier::Avx2
                    } else {
                        eprintln!(
                            "SAMO_SIMD=avx2 requested but AVX2+FMA+F16C not detected; \
                             using the scalar tier"
                        );
                        Tier::Scalar
                    }
                }
                "auto" | "" => auto,
                other => {
                    eprintln!("unknown SAMO_SIMD value '{other}' (off|avx2|auto); using auto");
                    auto
                }
            },
            Err(_) => auto,
        }
    })
}

/// Batch f16 → f32 widening on an explicit tier. Both tiers read the
/// same 65536-entry [`to_f32_table`] — the AVX2 path is a `vgatherdps`
/// over it — so the output is bit-identical by construction.
pub fn widen_slice_tier(tier: Tier, src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len());
    let table = to_f32_table();
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 presence just checked; the lengths are equal.
        unsafe { widen_avx2(table, src, dst) };
        return;
    }
    let _ = tier;
    for (d, s) in dst.iter_mut().zip(src) {
        *d = table[s.0 as usize];
    }
}

/// Batch f32 → f16 narrowing on an explicit tier. The AVX2 path is a
/// lane-for-lane transcription of [`F16::from_f32_fast`] (same integer
/// ops; the subnormal branch's `+0.5` uses `vaddps`, the identical IEEE
/// addition), so every lane — including NaN payloads — matches the scalar
/// tier bit-for-bit.
pub fn narrow_slice_tier(tier: Tier, src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 presence just checked; the lengths are equal.
        unsafe { narrow_avx2(src, dst) };
        return;
    }
    let _ = tier;
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = F16::from_f32_fast(s);
    }
}

/// What one hop of a ring reduce-scatter adds a rank's own halves to.
pub enum HopIn<'a> {
    /// Nothing: the sum is the rank's own half (a world of one, or a
    /// partial the hop adds to in place).
    Nothing,
    /// The predecessor's own halves (hop 0).
    Halves(&'a [F16]),
    /// The f64 partial sums the predecessor forwarded (hops `≥ 1`).
    Sums(&'a [f64]),
}

/// Where a hop's exact sums go, as [`Kept`] finishes a chain: stored as
/// the f64 partials the hop forwards, added to partials held in place,
/// or — on the last hop — averaged over `world` ranks into the rank's own
/// halves.
pub enum HopOut<'a> {
    Store(&'a mut [f64]),
    Add(&'a mut [f64]),
    Mean(usize),
}

/// The arithmetic of one ring reduce-scatter hop over a segment, on an
/// explicit tier: per position `j`, the f64 sum `input[j] + widen(own[j])`
/// — every widening [`to_f32_table`]'s, every sum of at most 2¹² halves
/// exact — finished as `out` says. A mean is `sum / world`, rounded to
/// f32 and narrowed by [`F16::from_f32_fast`], a NaN mean becoming
/// [`F16::NAN`]: the bits of `comms::reference::f16_mean_from_exact_sum`.
///
/// The AVX2 path runs eight positions at a time, and its lanes are the
/// scalar loop's bits: `vcvtph2ps` widens every half to the table's entry
/// but a signalling NaN, which it quiets — as the f64 widening after it
/// (`vcvtps2pd`, like the scalar `f64::from`) quiets the table's; `vaddpd`
/// and `vdivpd` are the IEEE sum and quotient — a `vmulpd` by `1 / world`
/// where `world` is a power of two, whose reciprocal is exact, so the
/// product is the quotient; `vcvtpd2ps` rounds as `as f32`; and
/// `vcvtps2ph` rounds every non-NaN f32 to nearest even as
/// [`F16::from_f32_fast`] does, a NaN lane being first replaced by the
/// quiet NaN that narrows to [`F16::NAN`].
///
/// # Panics
/// Panics if a slice differs in length from `own`, or a mean is over no
/// ranks.
pub fn ring_hop_tier(tier: Tier, input: HopIn<'_>, own: &mut [F16], mut out: HopOut<'_>) {
    let n = own.len();
    match &input {
        HopIn::Nothing => {}
        HopIn::Halves(h) => assert_eq!(h.len(), n, "ring_hop: halves"),
        HopIn::Sums(s) => assert_eq!(s.len(), n, "ring_hop: partial sums"),
    }
    match &out {
        HopOut::Store(s) | HopOut::Add(s) => assert_eq!(s.len(), n, "ring_hop: partial sums"),
        HopOut::Mean(world) => assert!(*world > 0, "ring_hop: a mean over no ranks"),
    }
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 and F16C presence just checked; every slice is
        // `own`'s length.
        done = unsafe { ring_hop_avx2(&input, own, &mut out) };
    }
    let _ = tier;
    let table = to_f32_table();
    let widen = |x: F16| f64::from(table[x.0 as usize]);
    for j in done..n {
        let mine = widen(own[j]);
        let sum = match input {
            HopIn::Nothing => mine,
            HopIn::Halves(h) => widen(h[j]) + mine,
            HopIn::Sums(s) => s[j] + mine,
        };
        match &mut out {
            HopOut::Store(s) => s[j] = sum,
            HopOut::Add(s) => s[j] += sum,
            HopOut::Mean(world) => {
                let mean = sum / *world as f64;
                own[j] = if mean.is_nan() { F16::NAN } else { F16::from_f32_fast(mean as f32) };
            }
        }
    }
}

/// Fused gather → f32-to-f16 narrow → finiteness test:
/// `out[j] = F16::from_f32_fast(src[idx[j] - base])`, returning `false` if
/// any produced half is non-finite. This is the inner loop of the fused
/// gradient compression step ([`core`]'s `compress_grad_fused`), where the
/// AVX2 path replaces the scalar gather with `vgatherdps`. `src` is the
/// part of the indexed array that starts at position `base` — the whole of
/// it at `base = 0`, or one row block of a gradient that is compressed as
/// it is produced.
///
/// # Panics
/// Panics if an index lies outside `base..base + src.len()` or the
/// lengths differ.
pub fn gather_narrow_finite(
    tier: Tier,
    src: &[f32],
    base: u32,
    idx: &[u32],
    out: &mut [F16],
) -> bool {
    assert_eq!(idx.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() && src.len() <= i32::MAX as usize {
        // The hardware gather performs no bounds checks and treats the
        // indices as signed i32, so validate up front: one vectorizable
        // max-reduction, negligible next to the gather itself. An index
        // below `base` wraps to at least `2^32 − base > i32::MAX`, so the
        // one comparison catches both ends. (With `src.len() <= i32::MAX`,
        // any in-bounds offset is non-negative.)
        if idx.is_empty() {
            return true;
        }
        let max = idx.iter().fold(0, |mx, &ix| ix.wrapping_sub(base).max(mx));
        assert!(
            (max as usize) < src.len(),
            "gather_narrow_finite: index out of bounds for positions {base}..{}",
            base as usize + src.len()
        );
        // SAFETY: AVX2 presence checked; all offsets in bounds, `src` short
        // enough for signed indices, `out` as long as `idx`.
        return unsafe { gather_narrow_finite_avx2(src, base, idx, out) };
    }
    let _ = tier;
    let mut finite = true;
    for (o, &ix) in out.iter_mut().zip(idx) {
        let h = F16::from_f32_fast(src[ix.wrapping_sub(base) as usize]);
        finite &= h.is_finite();
        *o = h;
    }
    finite
}

/// Where the chains of a product at kept positions go, one per position:
/// `0.0 + chain` narrowed to half precision beside the overflow test — a
/// chain added to a zeroed gradient, as a compress of that gradient reads
/// it — or the chain added to an f32 sum. The kept products of
/// [`crate::gemm`] differ in this and nothing else.
pub enum Kept<'a> {
    Narrow(&'a mut [F16]),
    Add(&'a mut [f32]),
}

impl SplitMut for Kept<'_> {
    fn len(&self) -> usize {
        match self {
            Kept::Narrow(out) => out.len(),
            Kept::Add(sums) => sums.len(),
        }
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        match self {
            Kept::Narrow(out) => {
                let (head, tail) = out.split_at_mut(mid);
                (Kept::Narrow(head), Kept::Narrow(tail))
            }
            Kept::Add(sums) => {
                let (head, tail) = sums.split_at_mut(mid);
                (Kept::Add(head), Kept::Add(tail))
            }
        }
    }
}

impl Kept<'_> {
    /// Finishes position `j` from its chain: `false` if the half it
    /// narrowed is not finite.
    #[inline]
    pub(crate) fn put(&mut self, j: usize, chain: f32) -> bool {
        match self {
            Kept::Narrow(out) => {
                out[j] = F16::from_f32_fast(0.0 + chain);
                out[j].is_finite()
            }
            Kept::Add(sums) => {
                sums[j] += chain;
                true
            }
        }
    }
}

/// Narrows sums into halves, as [`Kept::Narrow`] finishes chains:
/// `dst[j] = F16::from_f32_fast(0.0 + src[j])` (for a sum that started
/// from `+0.0` the addition changes nothing), and `false` if any half is
/// not finite — the overflow flag of a loss-scaled gradient. The AVX2 path
/// is [`gather_narrow_finite`]'s narrow and test without the gather; the
/// scalar tier is bitwise identical.
///
/// # Panics
/// Panics if the lengths differ.
pub fn narrow_sum_finite(tier: Tier, src: &[f32], dst: &mut [F16]) -> bool {
    assert_eq!(src.len(), dst.len());
    let n = src.len();
    let mut out = Kept::Narrow(dst);
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() && n >= 8 {
        use std::arch::x86_64::*;
        // SAFETY: AVX2 presence just checked; every eight loaded and put
        // starts at `i <= n − 8` of the equal lengths, and the overlapping
        // last one narrows again the chains it repeats.
        return unsafe {
            let mut nonfinite = _mm256_setzero_si256();
            for i in (0..n - 8).step_by(8).chain([n - 8]) {
                let lo = i.next_multiple_of(8) - i;
                nonfinite = _mm256_or_si256(nonfinite, put8(&mut out, i, lo, 8, _mm256_loadu_ps(src.as_ptr().add(i))));
            }
            _mm256_movemask_epi8(nonfinite) == 0
        };
    }
    let _ = tier;
    src.iter().enumerate().fold(true, |finite, (j, &v)| out.put(j, v) & finite)
}

/// A gathered sum that is never stored: position `j` is finished
/// ([`Kept`]) from `Σ_t a_t · src[p_t · width + idx[j] - base]` over
/// `terms = [(p_t, a_t)]`, the sum one chain of fused multiply-adds from
/// `+0.0` in `terms` order; `false` if a half it narrowed is not finite.
/// With `src` a matrix of `width`-long rows and `base..base + width` the
/// positions `idx` lies in, this is one row of a product `Aᵀ·B` at the
/// columns `idx` names, the chain of the GEMM's tile — the inner loop of
/// the sampled path of [`crate::gemm::matmul_tn_kept`]. The AVX2 path runs
/// eight columns at a time, `vgatherdps` + `vfmadd` per term; the scalar
/// tier is bitwise identical (`f32::mul_add`).
///
/// # Panics
/// Panics if an index lies outside `base..base + width`, a term's row
/// outside `src`, or the lengths differ.
pub fn gather_fma(tier: Tier, src: &[f32], terms: &[(usize, f32)], width: usize, base: u32, idx: &[u32], mut out: Kept) -> bool {
    assert_eq!(idx.len(), out.len());
    // One max-reduction, as in `gather_narrow_finite`: an index below
    // `base` wraps past any `width`.
    let max = idx.iter().fold(0, |mx, &ix| ix.wrapping_sub(base).max(mx));
    assert!(
        idx.is_empty() || (max as usize) < width,
        "gather_fma: index out of bounds for positions {base}..{}",
        base as usize + width
    );
    assert!(
        terms.iter().all(|&(p, _)| (p + 1) * width <= src.len()),
        "gather_fma: a term's row lies outside the source"
    );
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() && width <= i32::MAX as usize {
        // SAFETY: AVX2 and FMA presence checked; every `p · width + idx[j]
        // - base` is below `(p + 1) · width <= src.len()`, the offsets
        // within a row are non-negative as i32, and `out` is as long as
        // `idx`.
        return unsafe { gather_fma_avx2(src, terms, width, base, idx, &mut out) };
    }
    let _ = tier;
    gather_fma_scalar(src, terms, width, base, idx, &mut out)
}

/// The scalar tier of [`gather_fma`], and the tail of the vector one: per
/// index, one chain of FMAs from `+0.0` over `terms`.
fn gather_fma_scalar(src: &[f32], terms: &[(usize, f32)], width: usize, base: u32, idx: &[u32], out: &mut Kept) -> bool {
    idx.iter().enumerate().fold(true, |finite, (j, &ix)| {
        let col = ix.wrapping_sub(base) as usize;
        out.put(j, terms.iter().fold(0.0, |acc, &(p, a)| a.mul_add(src[p * width + col], acc))) & finite
    })
}

/// What the fused optimizer pass needs of Adam at one step: the
/// hyperparameters and that step's bias-correction denominators.
#[derive(Clone, Copy, Debug)]
pub struct AdamLanes {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    /// `1 − β1ᵗ` and `1 − β2ᵗ`.
    pub bias_corrections: (f32, f32),
}

/// The arrays the fused optimizer pass walks position by position, all of
/// one length: the reduced half-precision gradients it reads, and the
/// master weights, f32 gradients and Adam moments it updates.
pub struct AdamArrays<'a> {
    pub grad16: &'a [F16],
    pub theta32: &'a mut [f32],
    pub grad32: &'a mut [f32],
    pub m: &'a mut [f32],
    pub v: &'a mut [f32],
}

/// Where the pass scatters an updated weight: position `j` goes, narrowed,
/// to `theta16[ind[j] - base]` — and widened again to the same place in
/// `view`, and as it is to `payload[j]`, where those are held.
pub struct SweepTargets<'a> {
    pub ind: &'a [u32],
    pub base: usize,
    pub theta16: &'a mut [F16],
    pub view: Option<&'a mut [f32]>,
    pub payload: Option<&'a mut [F16]>,
}

/// The AVX2 tier of the fused Adam pass of `samo`'s
/// `SamoLayerState::optimizer_step_owned`, over the leading whole groups
/// of eight positions: returns how many positions that was — `0` on the
/// scalar tier — and the caller's scalar loop, the oracle of this one,
/// finishes from there. Per position `j`: `g = widen(grad16[j]) ·
/// inv_loss_scale` into `grad32`, `nn::optim::adam_update` on `(m, v,
/// theta32)[j]`, the new weight narrowed (`F16::from_f32_fast`) and
/// scattered as [`SweepTargets`] says.
///
/// The lanes are the scalar loop's bits: `adam_update` is seven
/// multiplications, four additions, a subtraction, three divisions and
/// a square root with no fused step among them, each correctly rounded
/// by IEEE 754 whether issued as `mulss` / `divss` / `sqrtss` or as
/// `vmulps` / `vdivps` / `vsqrtps`; they run here in the same order on
/// the same operands. `vcvtph2ps` widens every half to the table's entry
/// but a signalling NaN, which it quiets — as the scalar loop's next
/// multiplication does. The narrow is [`narrow_slice_tier`]'s.
///
/// # Panics
/// Panics if the arrays differ in length, `payload` is shorter than they,
/// or a target lies outside `theta16` or a held `view`.
pub fn adam_sweep_vector(
    tier: Tier,
    adam: &AdamLanes,
    inv_loss_scale: f32,
    arrays: AdamArrays<'_>,
    targets: SweepTargets<'_>,
) -> usize {
    let n = arrays.grad16.len();
    assert!(
        [arrays.theta32.len(), arrays.grad32.len(), arrays.m.len(), arrays.v.len()] == [n; 4]
            && targets.ind.len() == n
            && targets.payload.as_ref().is_none_or(|p| p.len() >= n),
        "the pass's arrays must be one length"
    );
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2, FMA and F16C presence just checked.
        return unsafe { adam_sweep_avx2(adam, inv_loss_scale, arrays, targets) };
    }
    let _ = (tier, adam, inv_loss_scale);
    0
}

// The elementwise transcendental kernels: one `exp` core (Cephes `expf`:
// Cody–Waite reduction, degree-5 polynomial), `tanh` on it, and the three
// slice kernels the layers call. Each core exists twice — `*_s` here,
// `*8` in `avx2` — as the same sequence of IEEE operations, constant for
// constant, so the tiers agree bit for bit (DESIGN.md §11).

/// `exp` saturates outside `±EXP_LIMIT`: `n` then stays in `-127..=127`,
/// where `(n + 127) << 23` is a float (`0.0` at `n = -127`).
const EXP_LIMIT: f32 = 88.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so that `n · LN2_HI` is exact for every `|n| <= 127`.
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `exp(r) ≈ 1 + r + r²·P(r)` on `|r| <= ln 2 / 2`, highest power first.
const EXP_POLY: [f32; 6] =
    [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];
/// `u(x) = √(2/π)·(x + 0.044715·x³) = x·(GELU_KC·x² + GELU_K)`.
const GELU_K: f32 = 0.797_884_6;
const GELU_KC: f32 = 0.035_677_407;

/// `exp(x)` for `|x| <= 88`, saturating beyond: `0.0` below `-87.7`,
/// `≈ 1.65e38` above. NaN stays NaN: the clamps are written as the
/// compare-and-select `vmaxps` / `vminps` perform, which hand back their
/// second operand — `x` — on a NaN, where `f32::max` would drop it; and
/// `NaN as i32 = 0` against `vcvtps2dq`'s `0x8000_0000` both leave
/// `1.0` after the shift, under a `y` that is NaN already.
#[inline]
fn exp_s(x: f32) -> f32 {
    let x = if -EXP_LIMIT > x { -EXP_LIMIT } else { x };
    let x = if EXP_LIMIT < x { EXP_LIMIT } else { x };
    let n = (x * LOG2E).round_ties_even();
    let r = n.mul_add(-LN2_HI, x);
    let r = n.mul_add(-LN2_LO, r);
    let mut p = EXP_POLY[0];
    for &c in &EXP_POLY[1..] {
        p = p.mul_add(r, c);
    }
    let y = p.mul_add(r * r, r) + 1.0;
    y * f32::from_bits(((n as i32 + 127) as u32) << 23)
}

/// `tanh(u) = 1 − 2/(exp(2u) + 1)`: within 2.5e-7 (absolute) of the
/// real function, `±1.0` beyond `|u| ≈ 9`, `tanh(0) = 0`, NaN for NaN.
#[inline]
fn tanh_s(u: f32) -> f32 {
    1.0 - 2.0 / (exp_s(u + u) + 1.0)
}

#[inline]
fn gelu_s(x: f32) -> f32 {
    let hx = 0.5 * x;
    hx.mul_add(tanh_s(x * GELU_KC.mul_add(x * x, GELU_K)), hx)
}

/// `gelu′(x) = ½(1 + t) + ½·x·(1 − t²)·u′(x)`, the last term as
/// `(−½·x·u′)·(t² − 1)`: no operation negates a register, so a NaN keeps
/// its sign on both tiers.
#[inline]
fn gelu_grad_s(x: f32) -> f32 {
    let x2 = x * x;
    let t = tanh_s(x * GELU_KC.mul_add(x2, GELU_K));
    let du = (3.0 * GELU_KC).mul_add(x2, GELU_K);
    (-0.5 * x * du).mul_add(t.mul_add(t, -1.0), 0.5f32.mul_add(t, 0.5))
}

/// `y[i] = gelu(x[i])`, the tanh approximation GPT-style transformers
/// use, on an explicit tier. Within `2e-7 · max(|x|, 1)` of the
/// real-valued formula; `gelu(0) = 0`; NaN in, NaN out; `+∞ → +∞` and
/// `−∞ → NaN`, as with libm's `tanh`.
pub fn gelu_tier(tier: Tier, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 and FMA presence just checked.
        unsafe { gelu_avx2(x, y) };
        return;
    }
    let _ = tier;
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = gelu_s(xi);
    }
}

/// `d[i] *= gelu′(x[i])` — GELU's backward, in place on the incoming
/// gradient — on an explicit tier. `gelu′` is within 2.5e-6 of the
/// real-valued formula: `1 − t²` cancels next to `|t| = 1`, as it does in
/// the same formula over libm's f32 `tanh`.
pub fn gelu_grad_mul_tier(tier: Tier, x: &[f32], d: &mut [f32]) {
    assert_eq!(x.len(), d.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 and FMA presence just checked.
        unsafe { gelu_grad_mul_avx2(x, d) };
        return;
    }
    let _ = tier;
    for (di, &xi) in d.iter_mut().zip(x) {
        *di *= gelu_grad_s(xi);
    }
}

/// `row[i] = exp(row[i] − max)` — the numerator pass of a stable softmax
/// — on an explicit tier. Entries more than 87.7 below `max` (a masked
/// `−∞` among them) become exactly `0.0`; a NaN stays NaN.
pub fn exp_sub_tier(tier: Tier, row: &mut [f32], max: f32) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && detected_avx2() {
        // SAFETY: AVX2 and FMA presence just checked.
        unsafe { exp_sub_avx2(row, max) };
        return;
    }
    let _ = tier;
    for v in row {
        *v = exp_s(*v - max);
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{exp_s, gather_fma_scalar, gelu_grad_s, gelu_s, AdamArrays, AdamLanes, HopIn, HopOut, Kept, SplitMut, SweepTargets, F16};
    use super::{EXP_LIMIT, EXP_POLY, GELU_K, GELU_KC, LN2_HI, LN2_LO, LOG2E};
    use std::arch::x86_64::*;

    /// Eight lanes of [`exp_s`], operation for operation.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn exp8(x: __m256) -> __m256 {
        let x = _mm256_max_ps(_mm256_set1_ps(-EXP_LIMIT), x);
        let x = _mm256_min_ps(_mm256_set1_ps(EXP_LIMIT), x);
        let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_mul_ps(x, _mm256_set1_ps(LOG2E)),
        );
        let r = _mm256_fmadd_ps(n, _mm256_set1_ps(-LN2_HI), x);
        let r = _mm256_fmadd_ps(n, _mm256_set1_ps(-LN2_LO), r);
        let mut p = _mm256_set1_ps(EXP_POLY[0]);
        for &c in &EXP_POLY[1..] {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(c));
        }
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0));
        let biased = _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127));
        _mm256_mul_ps(y, _mm256_castsi256_ps(_mm256_slli_epi32::<23>(biased)))
    }

    /// Eight lanes of [`super::tanh_s`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn tanh8(u: __m256) -> __m256 {
        let e1 = _mm256_add_ps(exp8(_mm256_add_ps(u, u)), _mm256_set1_ps(1.0));
        _mm256_sub_ps(_mm256_set1_ps(1.0), _mm256_div_ps(_mm256_set1_ps(2.0), e1))
    }

    /// Eight lanes of [`gelu_s`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn gelu8(x: __m256) -> __m256 {
        let hx = _mm256_mul_ps(_mm256_set1_ps(0.5), x);
        let inner =
            _mm256_fmadd_ps(_mm256_set1_ps(GELU_KC), _mm256_mul_ps(x, x), _mm256_set1_ps(GELU_K));
        _mm256_fmadd_ps(hx, tanh8(_mm256_mul_ps(x, inner)), hx)
    }

    /// Eight lanes of [`gelu_grad_s`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn gelu_grad8(x: __m256) -> __m256 {
        let (k, half) = (_mm256_set1_ps(GELU_K), _mm256_set1_ps(0.5));
        let x2 = _mm256_mul_ps(x, x);
        let t = tanh8(_mm256_mul_ps(x, _mm256_fmadd_ps(_mm256_set1_ps(GELU_KC), x2, k)));
        let du = _mm256_fmadd_ps(_mm256_set1_ps(3.0 * GELU_KC), x2, k);
        let nb = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(-0.5), x), du);
        let q = _mm256_fmadd_ps(t, t, _mm256_set1_ps(-1.0));
        _mm256_fmadd_ps(nb, q, _mm256_fmadd_ps(half, t, half))
    }

    /// Requires AVX2 and FMA (unsafe to call from code compiled without
    /// them), and `y.len() == x.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub fn gelu_avx2(x: &[f32], y: &mut [f32]) {
        let (mut xc, mut yc) = (x.chunks_exact(8), y.chunks_exact_mut(8));
        for (xs, ys) in (&mut xc).zip(&mut yc) {
            // SAFETY: `chunks_exact(8)`: each side is eight f32s.
            unsafe { _mm256_storeu_ps(ys.as_mut_ptr(), gelu8(_mm256_loadu_ps(xs.as_ptr()))) };
        }
        for (yi, &xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi = gelu_s(xi);
        }
    }

    /// Requires AVX2 and FMA, and `d.len() == x.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub fn gelu_grad_mul_avx2(x: &[f32], d: &mut [f32]) {
        let (mut xc, mut dc) = (x.chunks_exact(8), d.chunks_exact_mut(8));
        for (xs, ds) in (&mut xc).zip(&mut dc) {
            // SAFETY: `chunks_exact(8)`: each side is eight f32s.
            unsafe {
                let g = gelu_grad8(_mm256_loadu_ps(xs.as_ptr()));
                _mm256_storeu_ps(ds.as_mut_ptr(), _mm256_mul_ps(_mm256_loadu_ps(ds.as_ptr()), g));
            }
        }
        for (di, &xi) in dc.into_remainder().iter_mut().zip(xc.remainder()) {
            *di *= gelu_grad_s(xi);
        }
    }

    /// Requires AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub fn exp_sub_avx2(row: &mut [f32], max: f32) {
        let maxv = _mm256_set1_ps(max);
        let mut rc = row.chunks_exact_mut(8);
        for vs in &mut rc {
            // SAFETY: `chunks_exact_mut(8)`: the chunk is eight f32s.
            unsafe {
                let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(vs.as_ptr()), maxv));
                _mm256_storeu_ps(vs.as_mut_ptr(), e);
            }
        }
        for v in rc.into_remainder() {
            *v = exp_s(*v - max);
        }
    }

    // Constants shared with `F16::from_f32_fast` (all positive as i32, so
    // signed 32-bit compares against them are exact).
    const F16_MAX_EXP: i32 = (127 + 16) << 23; // |x| >= 2^16 → Inf/NaN
    const F32_INF: i32 = 255 << 23;
    const SUB_LIMIT: i32 = 113 << 23; // |x| < 2^-14 → subnormal/zero
    const DENORM_MAGIC: i32 = 126 << 23; // 0.5f32 aligns the mantissa

    /// Eight-lane transcription of `F16::from_f32_fast`: returns the f16
    /// bit patterns (sign | magnitude) in the low 16 bits of each 32-bit
    /// element.
    ///
    /// # Safety
    /// Requires AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn narrow8(x: __m256) -> __m256i {
        // SAFETY: register-only intrinsics; nothing here touches memory, so
        // the caller's AVX2 check is the whole contract.
        let bits = _mm256_castps_si256(x);
        let sign = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(0x8000));
        let au = _mm256_and_si256(bits, _mm256_set1_epi32(0x7FFF_FFFF));

        // Normal range: rebias + RTNE on the 13 dropped bits. The two
        // scalar `wrapping_add` constants fold into one.
        let mant_odd = _mm256_and_si256(_mm256_srli_epi32::<13>(au), _mm256_set1_epi32(1));
        let rounded = _mm256_add_epi32(
            _mm256_add_epi32(au, _mm256_set1_epi32(0xC800_0FFF_u32 as i32)),
            mant_odd,
        );
        let normal = _mm256_srli_epi32::<13>(rounded);

        // Subnormal/zero range: the `vaddps` is the exact IEEE addition
        // the scalar path performs, so the shifted mantissa matches.
        let shifted = _mm256_castps_si256(_mm256_add_ps(
            _mm256_castsi256_ps(au),
            _mm256_castsi256_ps(_mm256_set1_epi32(DENORM_MAGIC)),
        ));
        let subn = _mm256_sub_epi32(shifted, _mm256_set1_epi32(DENORM_MAGIC));

        // Inf/NaN: Inf stays 0x7C00, NaN keeps the top 10 payload bits.
        let nan = _mm256_or_si256(
            _mm256_set1_epi32(0x7E00),
            _mm256_and_si256(_mm256_srli_epi32::<13>(au), _mm256_set1_epi32(0x03FF)),
        );
        let is_nan = _mm256_cmpgt_epi32(au, _mm256_set1_epi32(F32_INF));
        let infnan = _mm256_blendv_epi8(_mm256_set1_epi32(0x7C00), nan, is_nan);

        let is_infnan = _mm256_cmpgt_epi32(au, _mm256_set1_epi32(F16_MAX_EXP - 1));
        let is_sub = _mm256_cmpgt_epi32(_mm256_set1_epi32(SUB_LIMIT), au);
        let mag = _mm256_blendv_epi8(normal, subn, is_sub);
        let mag = _mm256_blendv_epi8(mag, infnan, is_infnan);
        _mm256_or_si256(sign, _mm256_and_si256(mag, _mm256_set1_epi32(0xFFFF)))
    }

    /// Packs the low 16 bits of the eight 32-bit elements into eight
    /// contiguous u16s and stores them at `dst`.
    ///
    /// # Safety
    /// Requires AVX2; `dst` must be writable for eight halves.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store8_u16(dst: *mut F16, halves: __m256i) {
        // Elements are <= 0xFFFF, so unsigned-saturating pack is exact.
        let packed = _mm256_packus_epi32(halves, halves);
        // packus works per 128-bit lane; qwords 0 and 2 hold lanes 0-3
        // and 4-7 respectively.
        let lanes = _mm256_permute4x64_epi64::<0b00_00_10_00>(packed);
        // SAFETY: the one access — an unaligned 16-byte store over the eight
        // halves the caller vouches for.
        _mm_storeu_si128(dst as *mut __m128i, _mm256_castsi256_si128(lanes));
    }

    /// # Safety
    /// Requires AVX2, and `dst.len() >= src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn widen_avx2(table: &[f32; 65536], src: &[F16], dst: &mut [f32]) {
        let n = src.len();
        let tp = table.as_ptr();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        // SAFETY: every load and store below is at `i..i + 8` with
        // `i + 8 <= n`, or at `i < n`, inside `src` and (caller) `dst`; a
        // gather index is a zero-extended u16, inside the 65536 entries.
        let mut i = 0;
        while i + 8 <= n {
            let raw = _mm_loadu_si128(sp.add(i) as *const __m128i); // 8 × u16
            let idx = _mm256_cvtepu16_epi32(raw);
            let vals = _mm256_i32gather_ps::<4>(tp, idx);
            _mm256_storeu_ps(dp.add(i), vals);
            i += 8;
        }
        while i < n {
            *dp.add(i) = *tp.add((*sp.add(i)).0 as usize);
            i += 1;
        }
    }

    /// # Safety
    /// Requires AVX2, and `dst.len() >= src.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn narrow_avx2(src: &[f32], dst: &mut [F16]) {
        let n = src.len();
        let sp = src.as_ptr();
        let dp = dst.as_mut_ptr();
        // SAFETY: every load and store below is at `i..i + 8` with
        // `i + 8 <= n`, or at `i < n`, inside `src` and (caller) `dst`.
        let mut i = 0;
        while i + 8 <= n {
            let halves = narrow8(_mm256_loadu_ps(sp.add(i)));
            store8_u16(dp.add(i), halves);
            i += 8;
        }
        while i < n {
            *dp.add(i) = F16::from_f32_fast(*sp.add(i));
            i += 1;
        }
    }

    /// The eight halves at `src`, exactly, as f64: lanes 0–3, then 4–7.
    ///
    /// # Safety
    /// Requires AVX2 and F16C; `src` must be readable for eight halves.
    #[inline]
    #[target_feature(enable = "avx2,f16c")]
    unsafe fn widen8_f64(src: *const F16) -> (__m256d, __m256d) {
        // SAFETY: an unaligned 16-byte load of the eight halves the caller
        // vouches for.
        let v = _mm256_cvtph_ps(_mm_loadu_si128(src as *const __m128i));
        (_mm256_cvtps_pd(_mm256_castps256_ps128(v)), _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(v)))
    }

    /// The leading whole groups of eight positions of
    /// [`super::ring_hop_tier`], lane for lane: returns how many positions
    /// that was, and the scalar loop finishes the rest.
    ///
    /// # Safety
    /// Requires AVX2 and F16C; every slice of `input` and `out` is `own`'s
    /// length.
    #[target_feature(enable = "avx2,f16c")]
    pub unsafe fn ring_hop_avx2(input: &HopIn, own: &mut [F16], out: &mut HopOut) -> usize {
        let n = own.len() / 8 * 8;
        let op = own.as_mut_ptr();
        let world = if let HopOut::Mean(world) = *out { world } else { 1 };
        let w = _mm256_set1_pd(world as f64);
        let recip = world.is_power_of_two().then(|| _mm256_set1_pd(1.0 / world as f64));
        let quiet_nan = _mm256_set1_ps(f32::NAN);
        // SAFETY: every slice is read and written at `i..i + 8` with
        // `i + 8 <= n <= own.len()`, the length (caller) of them all.
        for i in (0..n).step_by(8) {
            let (mine_lo, mine_hi) = widen8_f64(op.add(i));
            let (lo, hi) = match *input {
                HopIn::Nothing => (mine_lo, mine_hi),
                HopIn::Halves(h) => {
                    let (lo, hi) = widen8_f64(h.as_ptr().add(i));
                    (_mm256_add_pd(lo, mine_lo), _mm256_add_pd(hi, mine_hi))
                }
                HopIn::Sums(s) => {
                    let p = s.as_ptr().add(i);
                    (_mm256_add_pd(_mm256_loadu_pd(p), mine_lo), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), mine_hi))
                }
            };
            match out {
                HopOut::Store(s) => {
                    let p = s.as_mut_ptr().add(i);
                    _mm256_storeu_pd(p, lo);
                    _mm256_storeu_pd(p.add(4), hi);
                }
                HopOut::Add(s) => {
                    let p = s.as_mut_ptr().add(i);
                    _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), lo));
                    _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), hi));
                }
                HopOut::Mean(_) => {
                    let (lo, hi) = match recip {
                        Some(r) => (_mm256_mul_pd(lo, r), _mm256_mul_pd(hi, r)),
                        None => (_mm256_div_pd(lo, w), _mm256_div_pd(hi, w)),
                    };
                    let mean = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
                    let mean = _mm256_blendv_ps(mean, quiet_nan, _mm256_cmp_ps::<_CMP_UNORD_Q>(mean, mean));
                    let halves = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(mean);
                    _mm_storeu_si128(op.add(i) as *mut __m128i, halves);
                }
            }
        }
        n
    }

    /// Finishes positions `j + lo .. j + hi` of `out` from lanes `lo..hi`
    /// of `acc` as [`Kept::put`] finishes each, and returns a mask that is
    /// set where a narrowed half is not finite (per lane, or — finished
    /// lane by lane — on all lanes or none). A narrow of all eight lanes
    /// (`hi == 8`) is one vector pass, and writes positions `j .. j + lo`
    /// again — with the halves they hold when they were finished from the
    /// same chains, the overlapping last eight of a run. A sum is one
    /// masked vector pass that reads and writes lanes `lo..hi` only.
    ///
    /// # Safety
    /// Requires AVX2; `lo <= hi <= 8` and `j + hi <= out.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub unsafe fn put8(out: &mut Kept, j: usize, lo: usize, hi: usize, acc: __m256) -> __m256i {
        debug_assert!(lo <= hi && hi <= 8 && j + hi <= out.len());
        match out {
            Kept::Narrow(halves) if hi == 8 => {
                let h = narrow8(_mm256_add_ps(_mm256_setzero_ps(), acc));
                // SAFETY: positions `j .. j + 8` lie inside `halves`.
                store8_u16(halves.as_mut_ptr().add(j), h);
                // Non-finite ⇔ all five exponent bits set (Inf or NaN).
                let exp_mask = _mm256_set1_epi32(0x7C00);
                _mm256_cmpeq_epi32(_mm256_and_si256(h, exp_mask), exp_mask)
            }
            Kept::Add(sums) => {
                let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let new = _mm256_andnot_si256(
                    _mm256_cmpgt_epi32(_mm256_set1_epi32(lo as i32), lane),
                    _mm256_cmpgt_epi32(_mm256_set1_epi32(hi as i32), lane),
                );
                // SAFETY: positions `j + lo .. j + hi` lie inside `sums`,
                // and a masked load or store touches no other lane.
                let at = sums.as_mut_ptr().add(j);
                _mm256_maskstore_ps(at, new, _mm256_add_ps(_mm256_maskload_ps(at, new), acc));
                _mm256_setzero_si256()
            }
            _ => {
                let mut lanes = [0.0f32; 8];
                _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
                let finite = (lo..hi).fold(true, |finite, l| out.put(j + l, lanes[l]) & finite);
                _mm256_set1_epi32(if finite { 0 } else { -1 })
            }
        }
    }

    /// # Safety
    /// Requires AVX2; every `idx[j] - base` must be in bounds for `src`,
    /// `src.len() <= i32::MAX` (gather indices are signed) and
    /// `out.len() >= idx.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_narrow_finite_avx2(
        src: &[f32],
        base: u32,
        idx: &[u32],
        out: &mut [F16],
    ) -> bool {
        let n = idx.len();
        let sp = src.as_ptr();
        let ip = idx.as_ptr();
        let op = out.as_mut_ptr();
        let exp_mask = _mm256_set1_epi32(0x7C00);
        let basev = _mm256_set1_epi32(base as i32);
        let mut nonfinite = _mm256_setzero_si256();
        // SAFETY: `idx` and `out` are read and written at `i..i + 8` with
        // `i + 8 <= n`, or at `i < n` (caller: `out` is that long); the
        // gather reads `src` at offsets the caller checked in bounds and
        // non-negative as i32.
        let mut i = 0;
        while i + 8 <= n {
            let iv = _mm256_sub_epi32(_mm256_loadu_si256(ip.add(i) as *const __m256i), basev);
            let vals = _mm256_i32gather_ps::<4>(sp, iv);
            let halves = narrow8(vals);
            // Non-finite ⇔ all five exponent bits set (Inf or NaN).
            let exp = _mm256_and_si256(halves, exp_mask);
            nonfinite = _mm256_or_si256(nonfinite, _mm256_cmpeq_epi32(exp, exp_mask));
            store8_u16(op.add(i), halves);
            i += 8;
        }
        let mut finite = _mm256_movemask_epi8(nonfinite) == 0;
        while i < n {
            let h = F16::from_f32_fast(*sp.add((*ip.add(i) - base) as usize));
            finite &= h.is_finite();
            *op.add(i) = h;
            i += 1;
        }
        finite
    }

    /// Requires AVX2, FMA and F16C (unsafe to call from code compiled
    /// without them); the lengths are the safe wrapper's to check. The
    /// scattered stores are bounds-checked.
    #[target_feature(enable = "avx2,fma,f16c")]
    pub fn adam_sweep_avx2(
        adam: &AdamLanes,
        inv_loss_scale: f32,
        a: AdamArrays<'_>,
        mut t: SweepTargets<'_>,
    ) -> usize {
        let splat = _mm256_set1_ps;
        let (lr, eps, wd) = (splat(adam.lr), splat(adam.eps), splat(adam.weight_decay));
        let (b1, b2) = (splat(adam.beta1), splat(adam.beta2));
        let (ob1, ob2) = (splat(1.0 - adam.beta1), splat(1.0 - adam.beta2));
        let (bc1, bc2) = (splat(adam.bias_corrections.0), splat(adam.bias_corrections.1));
        let inv = splat(inv_loss_scale);
        let rows = a.grad16.chunks_exact(8).zip(a.grad32.chunks_exact_mut(8));
        let state = a.m.chunks_exact_mut(8).zip(a.v.chunks_exact_mut(8)).zip(a.theta32.chunks_exact_mut(8));
        let mut done = 0;
        for ((g16, g32), ((m, v), p)) in rows.zip(state) {
            let (mut halves, mut wide) = ([F16::ZERO; 8], [0.0f32; 8]);
            // SAFETY: `chunks_exact(8)`: every pointer is to eight elements
            // — sixteen bytes of halves, thirty-two of floats; so are
            // `halves` and `wide`.
            unsafe {
                let g = _mm256_mul_ps(_mm256_cvtph_ps(_mm_loadu_si128(g16.as_ptr() as *const __m128i)), inv);
                _mm256_storeu_ps(g32.as_mut_ptr(), g);
                // `adam_update`, operation for operation.
                let m1 = _mm256_add_ps(_mm256_mul_ps(b1, _mm256_loadu_ps(m.as_ptr())), _mm256_mul_ps(ob1, g));
                let v1 = _mm256_add_ps(
                    _mm256_mul_ps(b2, _mm256_loadu_ps(v.as_ptr())),
                    _mm256_mul_ps(_mm256_mul_ps(ob2, g), g),
                );
                _mm256_storeu_ps(m.as_mut_ptr(), m1);
                _mm256_storeu_ps(v.as_mut_ptr(), v1);
                let (mhat, vhat) = (_mm256_div_ps(m1, bc1), _mm256_div_ps(v1, bc2));
                let p0 = _mm256_loadu_ps(p.as_ptr());
                let ratio = _mm256_div_ps(mhat, _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
                let p1 = _mm256_sub_ps(p0, _mm256_mul_ps(lr, _mm256_add_ps(ratio, _mm256_mul_ps(wd, p0))));
                _mm256_storeu_ps(p.as_mut_ptr(), p1);
                store8_u16(halves.as_mut_ptr(), narrow8(p1));
                if t.view.is_some() {
                    let packed = _mm_loadu_si128(halves.as_ptr() as *const __m128i);
                    _mm256_storeu_ps(wide.as_mut_ptr(), _mm256_cvtph_ps(packed));
                }
            }
            let ind = &t.ind[done..done + 8];
            for (&i, &h) in ind.iter().zip(&halves) {
                t.theta16[i as usize - t.base] = h;
            }
            if let Some(view) = t.view.as_deref_mut() {
                for (&i, &w) in ind.iter().zip(&wide) {
                    view[i as usize - t.base] = w;
                }
            }
            if let Some(payload) = t.payload.as_deref_mut() {
                payload[done..done + 8].copy_from_slice(&halves);
            }
            done += 8;
        }
        done
    }

    /// # Safety
    /// Requires AVX2 and FMA; for every term `(p, _)` and every `j`,
    /// `p · width + idx[j] - base` must be in bounds for `src` with
    /// `idx[j] - base <= i32::MAX` (gather indices are signed), and
    /// `out.len() >= idx.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gather_fma_avx2(
        src: &[f32],
        terms: &[(usize, f32)],
        width: usize,
        base: u32,
        idx: &[u32],
        out: &mut Kept,
    ) -> bool {
        let n = idx.len();
        debug_assert!(out.len() >= n);
        debug_assert!(idx.iter().all(|&ix| terms
            .iter()
            .all(|&(p, _)| p * width + ((ix - base) as usize) < src.len())));
        if n < 8 {
            return gather_fma_scalar(src, terms, width, base, idx, out);
        }
        let (sp, ip) = (src.as_ptr(), idx.as_ptr());
        let basev = _mm256_set1_epi32(base as i32);
        let mut nonfinite = _mm256_setzero_si256();
        // SAFETY: `idx` is read at `i..i + 8` with `i + 8 <= n`, and `out`
        // is put there; each gather reads `src` at `p · width + idx[j] -
        // base`, which the caller checked in bounds and non-negative as
        // i32. The last eight overlaps the one before where `n` is not a
        // multiple of eight: only its lanes from `lo` on are new.
        for i in (0..n - 8).step_by(8).chain([n - 8]) {
            let cols = _mm256_sub_epi32(_mm256_loadu_si256(ip.add(i) as *const __m256i), basev);
            let mut acc = _mm256_setzero_ps();
            for &(p, a) in terms {
                let vals = _mm256_i32gather_ps::<4>(sp.add(p * width), cols);
                acc = _mm256_fmadd_ps(_mm256_set1_ps(a), vals, acc);
            }
            let lo = i.next_multiple_of(8) - i;
            nonfinite = _mm256_or_si256(nonfinite, put8(out, i, lo, 8, acc));
        }
        _mm256_movemask_epi8(nonfinite) == 0
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::put8;
#[cfg(target_arch = "x86_64")]
use avx2::{
    adam_sweep_avx2, exp_sub_avx2, gather_fma_avx2, gather_narrow_finite_avx2, gelu_avx2,
    gelu_grad_mul_avx2, narrow_avx2, ring_hop_avx2, widen_avx2,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_tier_is_consistent_with_detection() {
        // Whatever the env says, Avx2 may only be active when detected.
        if active() == Tier::Avx2 {
            assert!(detected_avx2());
        }
    }

    #[test]
    fn tanh_core_is_within_its_bound_of_f64_tanh() {
        // Every 1021st bit pattern: all finite inputs, both signs, every
        // exponent. (The AVX2 twin is held to these bits by
        // `tests/elementwise.rs`.)
        let mut worst = 0.0f64;
        for b in (0..=u32::MAX).step_by(1021) {
            let u = f32::from_bits(b);
            if u.is_nan() {
                assert!(tanh_s(u).is_nan());
                continue;
            }
            let err = (tanh_s(u) as f64 - f64::tanh(u as f64)).abs();
            assert!(err <= 2.5e-7, "tanh({u:e}) = {:e}, off by {err:e}", tanh_s(u));
            worst = worst.max(err);
            if u.abs() >= 9.02 {
                assert_eq!(tanh_s(u), 1.0f32.copysign(u), "saturated at {u:e}");
            }
        }
        assert_eq!(tanh_s(0.0).to_bits(), 0);
        println!("worst |tanh error| {worst:.3e}");
    }

    /// `nn::optim::adam_update` and the narrow, as `samo`'s scalar sweep
    /// runs them (that loop is the oracle; `fused_step.rs` holds the two
    /// tiers to each other through it).
    fn adam_scalar(k: &AdamLanes, g: f32, m: &mut f32, v: &mut f32, p: &mut f32) -> F16 {
        *m = k.beta1 * *m + (1.0 - k.beta1) * g;
        *v = k.beta2 * *v + (1.0 - k.beta2) * g * g;
        let (mhat, vhat) = (*m / k.bias_corrections.0, *v / k.bias_corrections.1);
        *p -= k.lr * (mhat / (vhat.sqrt() + k.eps) + k.weight_decay * *p);
        F16::from_f32_fast(*p)
    }

    #[test]
    fn adam_sweep_vector_runs_whole_vectors_and_leaves_the_tail() {
        let adam = AdamLanes {
            lr: 0.02,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            bias_corrections: (0.1, 0.001),
        };
        let (n, base, inv) = (21usize, 100usize, 1.0 / 64.0);
        let grad16: Vec<F16> = (0..n).map(|j| F16::from_f32(j as f32 * 1.7 - 9.0)).collect();
        let ind: Vec<u32> = (0..n as u32).map(|j| base as u32 + 3 * j + 1).collect();
        for tier in [Tier::Scalar, Tier::Avx2] {
            for (held, sharded) in [(true, true), (true, false), (false, true), (false, false)] {
                let mut theta32: Vec<f32> = (0..n).map(|j| 0.3 * j as f32 - 2.0).collect();
                let (mut grad32, mut m, mut v) = (vec![9.0f32; n], vec![0.5f32; n], vec![0.25f32; n]);
                let mut theta16 = vec![F16::ONE; 3 * n + 2];
                let mut view = vec![1.0f32; 3 * n + 2];
                let mut payload = vec![F16::ONE; n];
                let (mut m0, mut v0, mut p0) = (m.clone(), v.clone(), theta32.clone());
                let arrays =
                    AdamArrays { grad16: &grad16, theta32: &mut theta32, grad32: &mut grad32, m: &mut m, v: &mut v };
                let targets = SweepTargets {
                    ind: &ind,
                    base,
                    theta16: &mut theta16,
                    view: held.then_some(&mut view[..]),
                    payload: sharded.then_some(&mut payload[..]),
                };
                let done = adam_sweep_vector(tier, &adam, inv, arrays, targets);
                let vector = tier == Tier::Avx2 && detected_avx2();
                assert_eq!(done, if vector { 16 } else { 0 }, "{tier:?}: whole groups of eight");
                for j in 0..n {
                    let at = 3 * j + 1;
                    if j < done {
                        let g = grad16[j].to_f32() * inv;
                        let h = adam_scalar(&adam, g, &mut m0[j], &mut v0[j], &mut p0[j]);
                        assert_eq!(grad32[j].to_bits(), g.to_bits(), "∇θ32[{j}]");
                        assert_eq!(theta16[at], h, "θ16 behind ind[{j}]");
                        assert_eq!(view[at].to_bits(), if held { h.to_f32().to_bits() } else { 1.0f32.to_bits() });
                        assert_eq!(payload[j], if sharded { h } else { F16::ONE }, "payload[{j}]");
                    } else {
                        assert_eq!((grad32[j], theta16[at], view[at], payload[j]), (9.0, F16::ONE, 1.0, F16::ONE));
                    }
                    assert_eq!((m[j].to_bits(), v[j].to_bits()), (m0[j].to_bits(), v0[j].to_bits()), "moments[{j}]");
                    assert_eq!(theta32[j].to_bits(), p0[j].to_bits(), "θ32[{j}]");
                }
                // Nothing between the targets is touched.
                assert!(theta16.iter().enumerate().all(|(i, &h)| i % 3 == 1 || h == F16::ONE));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one length")]
    fn adam_sweep_vector_refuses_ragged_arrays() {
        let adam =
            AdamLanes { lr: 0.1, beta1: 0.9, beta2: 0.99, eps: 1e-8, weight_decay: 0.0, bias_corrections: (1.0, 1.0) };
        let (mut a, mut b, mut c, mut short) = (vec![0.0f32; 8], vec![0.0f32; 8], vec![0.0f32; 8], vec![0.0f32; 7]);
        let arrays =
            AdamArrays { grad16: &[F16::ZERO; 8], theta32: &mut a, grad32: &mut b, m: &mut c, v: &mut short };
        let ind: Vec<u32> = (0..8).collect();
        let targets =
            SweepTargets { ind: &ind, base: 0, theta16: &mut [F16::ZERO; 8], view: None, payload: None };
        adam_sweep_vector(Tier::Scalar, &adam, 1.0, arrays, targets);
    }

    #[test]
    fn tier_names() {
        assert_eq!(Tier::Scalar.name(), "scalar");
        assert_eq!(Tier::Avx2.name(), "avx2");
    }

    #[test]
    fn gather_narrow_matches_scalar_loop() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.37).collect();
        let idx: Vec<u32> = (0..100).rev().step_by(3).map(|i| i as u32).collect();
        for tier in [Tier::Scalar, Tier::Avx2] {
            let mut out = vec![F16::ZERO; idx.len()];
            let finite = gather_narrow_finite(tier, &src, 0, &idx, &mut out);
            assert!(finite);
            for (o, &ix) in out.iter().zip(&idx) {
                assert_eq!(o.to_bits(), F16::from_f32_fast(src[ix as usize]).to_bits());
            }
        }
    }

    #[test]
    fn narrow_sum_matches_the_scalar_loop_at_every_length() {
        // Lengths around the vector (the overlapping last eight), every
        // class a sum can hold: −0.0 (narrowed as +0.0), subnormals,
        // values past the half range, ±∞ and NaN.
        let pool = [1.5f32, -0.0, 0.0, 1e-7, -3e-5, 65_520.0, -1e9, f32::INFINITY, f32::NAN, 2.0e-41, -7.25];
        for len in 0..=19 {
            for plant in 0..pool.len() {
                let src: Vec<f32> = (0..len).map(|j| if j == len / 2 { pool[plant] } else { pool[j % 5] * j as f32 }).collect();
                let want: Vec<F16> = src.iter().map(|&v| F16::from_f32_fast(0.0 + v)).collect();
                for tier in [Tier::Scalar, Tier::Avx2] {
                    let mut got = vec![F16::from_f32(9.0); len];
                    let finite = narrow_sum_finite(tier, &src, &mut got);
                    assert_eq!(got, want, "{tier:?}, {len} long, plant {plant}");
                    assert_eq!(finite, want.iter().all(|h| h.is_finite()), "{tier:?}, {len} long, plant {plant}");
                }
            }
        }
    }

    #[test]
    fn gather_narrow_from_a_block_matches_the_whole_array() {
        // A block that starts at `base` holds positions `base..`: the
        // same halves as gathering those indices from the whole array,
        // vector body and scalar tail alike.
        let src: Vec<f32> = (0..200).map(|i| (i as f32 - 90.0) * 0.21).collect();
        let (base, end) = (37usize, 150usize);
        let idx: Vec<u32> = (base..end).step_by(3).map(|i| i as u32).collect();
        for tier in [Tier::Scalar, Tier::Avx2] {
            let mut whole = vec![F16::ZERO; idx.len()];
            let mut block = vec![F16::ZERO; idx.len()];
            assert!(gather_narrow_finite(tier, &src, 0, &idx, &mut whole));
            assert!(gather_narrow_finite(tier, &src[base..end], base as u32, &idx, &mut block));
            assert_eq!(whole, block);
        }
    }

    #[test]
    fn gather_narrow_rejects_an_index_below_the_block() {
        let src = vec![0.0f32; 16];
        for tier in [Tier::Scalar, Tier::Avx2] {
            let r = std::panic::catch_unwind(|| {
                let mut out = vec![F16::ZERO; 9];
                gather_narrow_finite(tier, &src, 8, &[7, 8, 9, 10, 11, 12, 13, 14, 15], &mut out)
            });
            assert!(r.is_err(), "{tier:?} read before the block");
        }
    }

    #[test]
    fn gather_narrow_reports_nonfinite() {
        let mut src = vec![1.0f32; 40];
        src[17] = f32::INFINITY;
        let idx: Vec<u32> = (0..40).collect();
        for tier in [Tier::Scalar, Tier::Avx2] {
            let mut out = vec![F16::ZERO; 40];
            assert!(!gather_narrow_finite(tier, &src, 0, &idx, &mut out));
            // Overflow-to-inf must also be flagged.
            let big = vec![1e9f32; 9];
            let mut out2 = vec![F16::ZERO; 9];
            assert!(!gather_narrow_finite(tier, &big, 0, &[0, 1, 2, 3, 4, 5, 6, 7, 8], &mut out2));
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_narrow_rejects_out_of_bounds() {
        let src = vec![0.0f32; 8];
        let idx = [0u32, 1, 2, 3, 4, 5, 6, 8];
        let mut out = vec![F16::ZERO; 8];
        gather_narrow_finite(active(), &src, 0, &idx, &mut out);
    }
}
