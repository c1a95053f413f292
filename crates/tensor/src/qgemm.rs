//! Int8 per-channel symmetric-quantized GEMM for the inference path.
//!
//! Scheme (torchao-style dynamic activation quantization, SNIPPETS §3):
//! activations A are quantized per **row** at call time, weights B are
//! quantized per **column** and packed once offline. Both use symmetric
//! scales (`scale = max|v| / 127`, zero-point 0, round-to-nearest-even,
//! clamped to ±127), accumulation is exact i32, and the output is
//! dequantized to f32 as `(acc as f32) * sa * sb` — the only float ops
//! in the kernel, performed in the same association on every tier so the
//! scalar and AVX2 paths stay bitwise identical (integer accumulation is
//! order-independent to begin with).
//!
//! Ties-to-even is chosen deliberately: it is exactly what `vcvtps2dq`
//! rounds with, so the vectorized activation quantization is the same
//! instruction the definition names, and the scalar tier mirrors it with
//! `round_ties_even` plus an explicit emulation of the instruction's
//! NaN/out-of-range "integer indefinite" result (`i32::MIN`, which the
//! clamp then maps to −127) — quantization is bitwise tier-identical
//! even on garbage inputs.
//!
//! The packed B layout interleaves k-pairs: `packed[g][j]` holds
//! `(B[2g][j], B[2g+1][j])` as two adjacent i16s, so eight consecutive
//! columns of a pair-row are one 256-bit load and the inner loop is a
//! single `vpmaddwd` (16×16→32 multiply with horizontal pair add) per
//! eight columns. With |q| ≤ 127 each `vpmaddwd` lane is at most
//! 2·127² = 32258, and the i32 accumulator is safe for k up to 2^16
//! (`MAX_K`, asserted at pack time).
//!
//! The per-element worst-case dequantization error against the real-value
//! product is `Σ_p (|a_p|·sb/2 + |b_p|·sa/2 + sa·sb/4)` — the first-order
//! rounding cross-terms; the `error_bound` helper computes it and the
//! tests assert it holds against an f64 reference.

use crate::pool::par_rows_mut;
use crate::simd::{self, Tier};

/// Largest supported inner dimension: k/2 pair-products of magnitude
/// ≤ 2·127² keep the i32 accumulator overflow-free with margin.
pub const MAX_K: usize = 1 << 16;

/// Per-row symmetric-quantized activation matrix (`rows × k`, row-major).
pub struct QuantizedActs {
    pub rows: usize,
    pub k: usize,
    /// `rows × k` quantized values in `[-127, 127]`.
    pub data: Vec<i8>,
    /// Per-row dequantization scales.
    pub scales: Vec<f32>,
}

impl Default for QuantizedActs {
    /// An empty scratch buffer for [`quantize_rows_i8_into`]; grows to
    /// the largest batch quantized through it, then stays warm.
    fn default() -> Self {
        QuantizedActs {
            rows: 0,
            k: 0,
            data: Vec::new(),
            scales: Vec::new(),
        }
    }
}

/// Per-column symmetric-quantized, pair-interleaved weight matrix
/// (`k × n` logical shape).
pub struct PackedBi8 {
    pub k: usize,
    pub n: usize,
    /// `ceil(k/2) × n` pairs, each two adjacent i16s (odd k zero-padded).
    packed: Vec<i16>,
    /// Per-column dequantization scales.
    pub scales: Vec<f32>,
}

/// Symmetric scale for one channel: `max|v| / 127`, or 1.0 for an
/// all-zero channel (any scale dequantizes zeros exactly).
fn channel_scale(vals: impl Iterator<Item = f32>) -> f32 {
    let amax = vals.fold(0.0f32, |m, v| m.max(v.abs()));
    if amax == 0.0 {
        1.0
    } else {
        amax / 127.0
    }
}

/// Scalar model of `vcvtps2dq` + clamp: round to nearest even; NaN and
/// out-of-i32-range inputs produce the instruction's "integer
/// indefinite" `i32::MIN`, which the clamp maps to −127.
#[inline]
fn quantize_one(v: f32, inv_scale: f32) -> i8 {
    let t = v * inv_scale;
    let q = if t.abs() < 2_147_483_648.0 { t.round_ties_even() as i32 } else { i32::MIN };
    q.clamp(-127, 127) as i8
}

/// Quantizes a row-major `rows × k` activation matrix with per-row
/// symmetric scales, on the process-wide SIMD tier.
pub fn quantize_rows_i8(a: &[f32], rows: usize, k: usize) -> QuantizedActs {
    quantize_rows_i8_with_tier(simd::active(), a, rows, k)
}

/// [`quantize_rows_i8`] pinned to an explicit SIMD tier (parity tests,
/// bench). Tiers are bitwise identical — see the module docs.
pub fn quantize_rows_i8_with_tier(tier: Tier, a: &[f32], rows: usize, k: usize) -> QuantizedActs {
    let mut out = QuantizedActs {
        rows: 0,
        k: 0,
        data: Vec::new(),
        scales: Vec::new(),
    };
    quantize_rows_i8_into(tier, a, rows, k, &mut out);
    out
}

/// [`quantize_rows_i8_with_tier`] into caller-owned storage: `out.data`
/// and `out.scales` are cleared and refilled in place, so a warm
/// `QuantizedActs` is reused without touching the allocator — the
/// serving hot loop's entry point (`QuantLinear::infer_batch`, asserted
/// allocation-free by `tests/zero_alloc.rs`). Bitwise identical to the
/// allocating variant on every tier.
pub fn quantize_rows_i8_into(tier: Tier, a: &[f32], rows: usize, k: usize, out: &mut QuantizedActs) {
    assert_eq!(a.len(), rows * k, "activation slice/shape mismatch");
    assert!(k <= MAX_K, "k {k} exceeds MAX_K {MAX_K}");
    out.rows = rows;
    out.k = k;
    out.data.clear();
    out.data.resize(rows * k, 0);
    out.scales.clear();
    out.scales.resize(rows, 1.0);
    for r in 0..rows {
        let row = &a[r * k..(r + 1) * k];
        let s = channel_scale(row.iter().copied());
        let inv = 1.0 / s;
        let dst = &mut out.data[r * k..(r + 1) * k];
        quantize_row(tier, row, inv, dst);
        out.scales[r] = s;
    }
}

/// One row's quantize pass, dispatched by tier.
fn quantize_row(tier: Tier, row: &[f32], inv: f32, out: &mut [i8]) {
    assert_eq!(row.len(), out.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2 presence just checked; the lengths are equal.
        unsafe { quantize_row_avx2(row, inv, out) };
        return;
    }
    let _ = tier;
    for (q, &v) in out.iter_mut().zip(row) {
        *q = quantize_one(v, inv);
    }
}

/// AVX2 quantize: multiply, `vcvtps2dq` (nearest-even, NaN → `i32::MIN`),
/// clamp in the integer domain, pack 8×i32 → 8×i8. Saturating packs are
/// no-ops after the ±127 clamp.
///
/// # Safety
/// Requires AVX2, and `out` at least as long as `row`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_row_avx2(row: &[f32], inv: f32, out: &mut [i8]) {
    use std::arch::x86_64::*;
    // SAFETY: the 8-float load and the 8-byte store are both at `i..i + 8`
    // with `i + 8 <= row.len() <= out.len()`.
    let vinv = _mm256_set1_ps(inv);
    let lo = _mm256_set1_epi32(-127);
    let hi = _mm256_set1_epi32(127);
    let n = row.len();
    let mut i = 0;
    while i + 8 <= n {
        let t = _mm256_mul_ps(_mm256_loadu_ps(row.as_ptr().add(i)), vinv);
        let q = _mm256_cvtps_epi32(t);
        let q = _mm256_max_epi32(_mm256_min_epi32(q, hi), lo);
        let p16 = _mm256_packs_epi32(q, q);
        // Quadwords 0 and 2 hold the two distinct i16 quartets.
        let p16 = _mm256_permute4x64_epi64::<0b00_00_10_00>(p16);
        let p8 = _mm_packs_epi16(_mm256_castsi256_si128(p16), _mm256_castsi256_si128(p16));
        _mm_storel_epi64(out.as_mut_ptr().add(i) as *mut __m128i, p8);
        i += 8;
    }
    for j in i..n {
        out[j] = quantize_one(row[j], inv);
    }
}

impl PackedBi8 {
    /// Quantizes a row-major `k × n` weight matrix with per-column
    /// symmetric scales and packs it into the pair-interleaved layout.
    pub fn pack(b: &[f32], k: usize, n: usize) -> PackedBi8 {
        assert_eq!(b.len(), k * n, "weight slice/shape mismatch");
        assert!(k <= MAX_K, "k {k} exceeds MAX_K {MAX_K}");
        let mut scales = vec![1.0f32; n];
        for (j, s) in scales.iter_mut().enumerate() {
            *s = channel_scale((0..k).map(|p| b[p * n + j]));
        }
        let k2 = k.div_ceil(2);
        let mut packed = vec![0i16; k2 * n * 2];
        for g in 0..k2 {
            for (j, &sj) in scales.iter().enumerate() {
                let inv = 1.0 / sj;
                let lo = quantize_one(b[2 * g * n + j], inv) as i16;
                let hi = if 2 * g + 1 < k {
                    quantize_one(b[(2 * g + 1) * n + j], inv) as i16
                } else {
                    0
                };
                packed[g * n * 2 + 2 * j] = lo;
                packed[g * n * 2 + 2 * j + 1] = hi;
            }
        }
        PackedBi8 { k, n, packed, scales }
    }

    /// Dequantized dense `k × n` copy (test/debug helper).
    // TEST-API: `qlinear`'s and `qgemm`'s tests compare against the dequantized weight.
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for p in 0..self.k {
            let (g, h) = (p / 2, p % 2);
            for j in 0..self.n {
                out[p * self.n + j] =
                    self.packed[g * self.n * 2 + 2 * j + h] as f32 * self.scales[j];
            }
        }
        out
    }
}

/// `C = dequant(Aq · Bq)`: int8 GEMM with i32 accumulation and f32
/// per-channel dequantization, on the given SIMD tier (callers pass
/// [`simd::active`]; parity tests and the bench pin one). `c` is
/// `rows × n`, overwritten.
pub fn qgemm_i8_with_tier(tier: Tier, a: &QuantizedActs, b: &PackedBi8, c: &mut [f32]) {
    assert_eq!(a.k, b.k, "inner dimension mismatch");
    assert_eq!(c.len(), a.rows * b.n, "output slice/shape mismatch");
    let (rows, k, n) = (a.rows, a.k, b.n);
    if rows == 0 || n == 0 {
        return;
    }
    let k2 = k.div_ceil(2);

    // Re-pack each A row's quantized pairs as (lo, hi) adjacent i16s so
    // the AVX2 path can broadcast one 32-bit word per pair-row; shared
    // with the scalar path so both consume identical operands. The
    // scratch is thread-local (same idiom as gemm's `PACK_SCRATCH`) so
    // a warm serving loop re-packs without touching the allocator; the
    // pool never re-enters this GEMM on the same thread, so the borrow
    // cannot conflict.
    APAIR_SCRATCH.with(|cell| {
        let mut a_pairs = cell.borrow_mut();
        a_pairs.clear();
        a_pairs.resize(rows * k2 * 2, 0);
        for r in 0..rows {
            let src = &a.data[r * k..(r + 1) * k];
            let dst = &mut a_pairs[r * k2 * 2..(r + 1) * k2 * 2];
            for g in 0..k2 {
                dst[2 * g] = src[2 * g] as i16;
                dst[2 * g + 1] = if 2 * g + 1 < k { src[2 * g + 1] as i16 } else { 0 };
            }
        }
        let a_pairs: &[i16] = &a_pairs;

        par_rows_mut(c, n, 1, |offset, c_rows| {
            let r0 = offset / n;
            qgemm_rows(tier, a_pairs, &a.scales, b, r0, r0 + c_rows.len() / n, k2, n, c_rows);
        });
    });
}

thread_local! {
    /// Reusable A-pair re-pack buffer for [`qgemm_i8_with_tier`].
    static APAIR_SCRATCH: std::cell::RefCell<Vec<i16>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[allow(clippy::too_many_arguments)]
fn qgemm_rows(
    tier: Tier,
    a_pairs: &[i16],
    a_scales: &[f32],
    b: &PackedBi8,
    r0: usize,
    r1: usize,
    k2: usize,
    n: usize,
    c_rows: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Avx2 && simd::detected_avx2() {
        // SAFETY: AVX2 presence just checked; the operand sizes the kernel
        // relies on are asserted here, once per task.
        assert!(a_pairs.len() >= r1 * k2 * 2 && a_scales.len() >= r1);
        assert!(b.packed.len() == k2 * n * 2 && b.scales.len() == n);
        assert_eq!(c_rows.len(), (r1 - r0) * n);
        unsafe { qgemm_rows_avx2(a_pairs, a_scales, b, r0, r1, k2, n, c_rows) };
        return;
    }
    let _ = tier;
    for r in r0..r1 {
        let ap = &a_pairs[r * k2 * 2..(r + 1) * k2 * 2];
        let sa = a_scales[r];
        let crow = &mut c_rows[(r - r0) * n..(r - r0 + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            let mut acc = 0i32;
            for g in 0..k2 {
                let b0 = b.packed[g * n * 2 + 2 * j] as i32;
                let b1 = b.packed[g * n * 2 + 2 * j + 1] as i32;
                acc += ap[2 * g] as i32 * b0 + ap[2 * g + 1] as i32 * b1;
            }
            // Same association as the AVX2 tier: (acc · sa) · sb.
            *cv = (acc as f32) * sa * b.scales[j];
        }
    }
}

/// AVX2 row kernel: 4 rows × 16 columns of i32 accumulators, one
/// `vpmaddwd` per (pair-row, 8 columns). Integer accumulation is exact,
/// so only the final dequantization multiply order matters for parity —
/// it matches the scalar tier's `(acc · sa) · sb`.
///
/// # Safety
/// Requires AVX2; `a_pairs` and `a_scales` must hold rows `..r1` (`k2`
/// pairs and one scale each), `b` must be packed for `k2` pair-rows of `n`
/// columns, and `c_rows` must hold rows `r0..r1` of `n` columns.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn qgemm_rows_avx2(
    a_pairs: &[i16],
    a_scales: &[f32],
    b: &PackedBi8,
    r0: usize,
    r1: usize,
    k2: usize,
    n: usize,
    c_rows: &mut [f32],
) {
    use std::arch::x86_64::*;
    const RB: usize = 4; // row block
    // SAFETY: every access below is to pair-row `g < k2` of A row
    // `row < r1` (`a_pairs[row * k2 + g]` as a word, `a_scales[row]`), to
    // columns `j..j + 16 <= n` or `jj < n` of B's pair-row `g`
    // (`packed[g * n * 2 + 2 * col ..+ 2]`, `scales[col]`), or to
    // `c_rows[(row - r0) * n + col]` — inside the sizes the caller
    // vouches for.
    let bp = b.packed.as_ptr();
    let sb = b.scales.as_ptr();
    let cp = c_rows.as_mut_ptr();
    let apw = a_pairs.as_ptr() as *const i32; // (lo, hi) i16 pairs as one word

    let mut r = r0;
    while r + RB <= r1 {
        let a0 = apw.add(r * k2);
        let a1 = apw.add((r + 1) * k2);
        let a2 = apw.add((r + 2) * k2);
        let a3 = apw.add((r + 3) * k2);
        let mut j = 0;
        while j + 16 <= n {
            let mut acc00 = _mm256_setzero_si256();
            let mut acc01 = _mm256_setzero_si256();
            let mut acc10 = _mm256_setzero_si256();
            let mut acc11 = _mm256_setzero_si256();
            let mut acc20 = _mm256_setzero_si256();
            let mut acc21 = _mm256_setzero_si256();
            let mut acc30 = _mm256_setzero_si256();
            let mut acc31 = _mm256_setzero_si256();
            for g in 0..k2 {
                let brow = bp.add(g * n * 2 + 2 * j);
                let b0 = _mm256_loadu_si256(brow as *const __m256i); // cols j..j+8 pairs
                let b1 = _mm256_loadu_si256(brow.add(16) as *const __m256i); // j+8..j+16
                let v0 = _mm256_set1_epi32(*a0.add(g));
                acc00 = _mm256_add_epi32(acc00, _mm256_madd_epi16(v0, b0));
                acc01 = _mm256_add_epi32(acc01, _mm256_madd_epi16(v0, b1));
                let v1 = _mm256_set1_epi32(*a1.add(g));
                acc10 = _mm256_add_epi32(acc10, _mm256_madd_epi16(v1, b0));
                acc11 = _mm256_add_epi32(acc11, _mm256_madd_epi16(v1, b1));
                let v2 = _mm256_set1_epi32(*a2.add(g));
                acc20 = _mm256_add_epi32(acc20, _mm256_madd_epi16(v2, b0));
                acc21 = _mm256_add_epi32(acc21, _mm256_madd_epi16(v2, b1));
                let v3 = _mm256_set1_epi32(*a3.add(g));
                acc30 = _mm256_add_epi32(acc30, _mm256_madd_epi16(v3, b0));
                acc31 = _mm256_add_epi32(acc31, _mm256_madd_epi16(v3, b1));
            }
            let sb0 = _mm256_loadu_ps(sb.add(j));
            let sb1 = _mm256_loadu_ps(sb.add(j + 8));
            for (row, (lo, hi)) in [
                (r, (acc00, acc01)),
                (r + 1, (acc10, acc11)),
                (r + 2, (acc20, acc21)),
                (r + 3, (acc30, acc31)),
            ] {
                let sa = _mm256_set1_ps(*a_scales.get_unchecked(row));
                let out = cp.add((row - r0) * n + j);
                let d0 = _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(lo), sa), sb0);
                let d1 = _mm256_mul_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(hi), sa), sb1);
                _mm256_storeu_ps(out, d0);
                _mm256_storeu_ps(out.add(8), d1);
            }
            j += 16;
        }
        // Column tail: scalar, same integer math (exact) and dequant order.
        if j < n {
            for row in r..r + RB {
                let ap = &a_pairs[row * k2 * 2..(row + 1) * k2 * 2];
                let sa = *a_scales.get_unchecked(row);
                for jj in j..n {
                    let mut acc = 0i32;
                    for g in 0..k2 {
                        let b0 = *bp.add(g * n * 2 + 2 * jj) as i32;
                        let b1 = *bp.add(g * n * 2 + 2 * jj + 1) as i32;
                        acc += ap[2 * g] as i32 * b0 + ap[2 * g + 1] as i32 * b1;
                    }
                    *cp.add((row - r0) * n + jj) = (acc as f32) * sa * *sb.add(jj);
                }
            }
        }
        r += RB;
    }
    // Row tail: the scalar row kernel on the remaining < RB rows.
    if r < r1 {
        let off = (r - r0) * n;
        let tail = std::slice::from_raw_parts_mut(cp.add(off), (r1 - r) * n);
        qgemm_rows(Tier::Scalar, a_pairs, a_scales, b, r, r1, k2, n, tail);
    }
}

/// Dynamic-quantization convenience entry: quantizes `a` (`rows × k`,
/// f32) per row, then runs the int8 GEMM against the pre-packed `b` —
/// the call shape of an inference-time quantized `Linear`.
pub fn qgemm_dyn(tier: Tier, a: &[f32], rows: usize, b: &PackedBi8, c: &mut [f32]) {
    let qa = quantize_rows_i8(a, rows, b.k);
    qgemm_i8_with_tier(tier, &qa, b, c);
}

/// Per-element worst-case |dequantized − exact| bound for
/// `c[i][j] = Σ_p a[i][p]·b[p][j]`: quantizing `a` perturbs each element
/// by at most `sa/2`, `b` by at most `sb/2`, giving
/// `Σ_p (|a_p|·sb/2 + |b_p|·sa/2 + sa·sb/4)`.
// TEST-API: the int8 tests bound every product's error with it.
pub fn error_bound(a_row: &[f32], b_col: impl Iterator<Item = f32>, sa: f32, sb: f32) -> f64 {
    let (sa, sb) = (sa as f64, sb as f64);
    a_row
        .iter()
        .zip(b_col)
        .map(|(&av, bv)| av.abs() as f64 * sb / 2.0 + (bv.abs() as f64) * sa / 2.0 + sa * sb / 4.0)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_vec(n: usize, seed: u64, scale: f32) -> Vec<f32> {
        // SplitMix64-style generator; self-contained on purpose.
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                ((z >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 2.0 * scale
            })
            .collect()
    }

    #[test]
    fn quantize_roundtrip_within_half_step() {
        let a = lcg_vec(64, 1, 3.0);
        let q = quantize_rows_i8(&a, 4, 16);
        for r in 0..4 {
            let s = q.scales[r];
            for i in 0..16 {
                let back = q.data[r * 16 + i] as f32 * s;
                assert!((a[r * 16 + i] - back).abs() <= s / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn pack_dequantize_roundtrip() {
        for k in [1, 2, 7, 16] {
            let b = lcg_vec(k * 5, 2, 1.5);
            let packed = PackedBi8::pack(&b, k, 5);
            let back = packed.dequantize();
            for j in 0..5 {
                let s = packed.scales[j];
                for p in 0..k {
                    assert!((b[p * 5 + j] - back[p * 5 + j]).abs() <= s / 2.0 + 1e-6);
                }
            }
        }
    }

    #[test]
    fn qgemm_within_error_bound_of_f64_reference() {
        for &(m, n, k) in &[(1, 1, 4), (3, 5, 7), (8, 16, 32), (13, 33, 65)] {
            let a = lcg_vec(m * k, 10 + m as u64, 2.0);
            let b = lcg_vec(k * n, 20 + n as u64, 0.8);
            let qa = quantize_rows_i8(&a, m, k);
            let pb = PackedBi8::pack(&b, k, n);
            let mut c = vec![0.0f32; m * n];
            qgemm_i8_with_tier(simd::active(), &qa, &pb, &mut c);
            for i in 0..m {
                for j in 0..n {
                    let exact: f64 = (0..k)
                        .map(|p| a[i * k + p] as f64 * b[p * n + j] as f64)
                        .sum();
                    let bound = error_bound(
                        &a[i * k..(i + 1) * k],
                        (0..k).map(|p| b[p * n + j]),
                        qa.scales[i],
                        pb.scales[j],
                    );
                    let err = (c[i * n + j] as f64 - exact).abs();
                    assert!(
                        err <= bound * 1.0001 + 1e-5,
                        "({i},{j}): err {err} > bound {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn tiers_are_bitwise_identical() {
        for &(m, n, k) in &[(1, 3, 5), (4, 16, 8), (7, 19, 9), (12, 40, 33)] {
            let a = lcg_vec(m * k, 3, 4.0);
            let b = lcg_vec(k * n, 4, 1.0);
            let qa = quantize_rows_i8(&a, m, k);
            let pb = PackedBi8::pack(&b, k, n);
            let mut c_s = vec![0.0f32; m * n];
            let mut c_v = vec![0.0f32; m * n];
            qgemm_i8_with_tier(Tier::Scalar, &qa, &pb, &mut c_s);
            qgemm_i8_with_tier(Tier::Avx2, &qa, &pb, &mut c_v);
            for (i, (x, y)) in c_s.iter().zip(&c_v).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k} diverges at {i}");
            }
        }
    }

    #[test]
    fn quantize_tiers_are_bitwise_identical() {
        // Unaligned lengths straddle the 8-lane chunk; NaN/±∞ payloads
        // exercise the vcvtps2dq "integer indefinite" emulation.
        for &(rows, k) in &[(1usize, 1usize), (3, 7), (4, 8), (5, 29), (2, 64)] {
            let mut a = lcg_vec(rows * k, 77, 5.0);
            if a.len() >= 4 {
                a[0] = f32::NAN;
                a[1] = f32::INFINITY;
                a[2] = f32::NEG_INFINITY;
                a[3] = -0.0;
            }
            let qs = quantize_rows_i8_with_tier(Tier::Scalar, &a, rows, k);
            let qv = quantize_rows_i8_with_tier(Tier::Avx2, &a, rows, k);
            assert_eq!(qs.data, qv.data, "{rows}x{k} quantized data diverges");
            let sb = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(sb(&qs.scales), sb(&qv.scales), "{rows}x{k} scales diverge");
        }
    }

    #[test]
    fn zero_matrices_are_exact() {
        let qa = quantize_rows_i8(&[0.0; 12], 3, 4);
        let pb = PackedBi8::pack(&[0.0; 20], 4, 5);
        let mut c = vec![1.0f32; 15];
        qgemm_i8_with_tier(simd::active(), &qa, &pb, &mut c);
        assert_eq!(c, vec![0.0; 15]);
    }
}
