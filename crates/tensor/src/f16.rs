//! A software implementation of the IEEE 754 binary16 ("half precision")
//! floating point format.
//!
//! Mixed-precision training (Micikevicius et al., ICLR 2018) stores the
//! compute copy of the parameters (`θ16`) and the freshly produced gradients
//! (`∇θ16`) in half precision. The paper under reproduction keeps `θ16`
//! dense and compresses everything else, so a faithful 16-bit storage type
//! is load-bearing for the memory accounting: `size_of::<F16>()` must be 2.
//!
//! Arithmetic is performed by widening to `f32`, operating, and rounding
//! back — the same semantics as GPU half arithmetic with `f32` accumulators.
//! Conversion follows IEEE 754 round-to-nearest-even, including subnormals,
//! infinities and NaN.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Half-precision (binary16) floating point number.
///
/// The in-memory representation is exactly the 16 IEEE bits, so a
/// `Vec<F16>` of `n` elements occupies `2n` bytes — the property the SAMO
/// memory model (Sec. III-D of the paper) depends on.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Largest finite value, 65504.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, -65504.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, 2^-14.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);

    /// Creates an `F16` from raw IEEE 754 binary16 bits.
    #[inline]
    pub const fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Returns the raw IEEE 754 binary16 bits.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to half precision with round-to-nearest-even.
    ///
    /// Values whose magnitude exceeds 65504 round to the infinity of the
    /// same sign; values below the subnormal range flush to (signed) zero
    /// through normal rounding.
    pub fn from_f32(value: f32) -> F16 {
        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mantissa = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve a NaN payload bit so NaN stays NaN.
            return if mantissa == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00 | ((mantissa >> 13) as u16 & 0x03FF))
            };
        }

        // Unbiased exponent of the f32 value.
        let unbiased = exp - 127;
        if unbiased >= 16 {
            // Overflows the binary16 exponent range: round to infinity.
            return F16(sign | 0x7C00);
        }
        if unbiased >= -14 {
            // Normal binary16 range. Keep 10 mantissa bits, round to
            // nearest even on the 13 dropped bits.
            let half_exp = (unbiased + 15) as u16;
            let half_man = (mantissa >> 13) as u16;
            let round_bit = 1u32 << 12;
            let mut out = (sign | (half_exp << 10) | half_man) as u32;
            let rem = mantissa & 0x1FFF;
            if rem > round_bit || (rem == round_bit && (half_man & 1) == 1) {
                // May carry into the exponent; that carry is exactly the
                // correct IEEE behaviour (e.g. rounding 2047.5 ulps up).
                out += 1;
            }
            return F16(out as u16);
        }
        if unbiased >= -25 {
            // Subnormal binary16 range (or rounds up into it).
            // Implicit leading one becomes explicit.
            let man = mantissa | 0x0080_0000;
            let shift = (-14 - unbiased) as u32 + 13;
            let half_man = (man >> shift) as u16;
            let rem_mask = (1u32 << shift) - 1;
            let rem = man & rem_mask;
            let half_way = 1u32 << (shift - 1);
            let mut out = (sign | half_man) as u32;
            if rem > half_way || (rem == half_way && (half_man & 1) == 1) {
                out += 1;
            }
            return F16(out as u16);
        }
        // Too small even for subnormals: signed zero.
        F16(sign)
    }

    /// Converts the half-precision value to `f32` exactly (the conversion
    /// is always lossless in this direction).
    pub fn to_f32(self) -> f32 {
        let bits = self.0 as u32;
        let sign = (bits & 0x8000) << 16;
        let exp = (bits >> 10) & 0x1F;
        let man = bits & 0x03FF;

        let out = if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Subnormal: normalize by shifting the mantissa up until
                // the implicit bit appears.
                let mut exp32 = 127 - 15 + 1; // exponent of 2^-14 scaled
                let mut man32 = man;
                while man32 & 0x0400 == 0 {
                    man32 <<= 1;
                    exp32 -= 1;
                }
                man32 &= 0x03FF;
                sign | ((exp32 as u32) << 23) | (man32 << 13)
            }
        } else if exp == 0x1F {
            // Inf / NaN.
            sign | 0x7F80_0000 | (man << 13)
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(out)
    }

    /// Branch-reduced f32 → f16 conversion using the magic-number
    /// round-to-nearest-even trick (Giesen's `float_to_half_fast3_rtne`),
    /// extended to preserve NaN payloads the way [`F16::from_f32`] does.
    ///
    /// Bit-identical to [`F16::from_f32`] on every input (verified
    /// exhaustively in tests); unlike the reference implementation each
    /// path is a handful of straight-line integer/float ops, so the slice
    /// kernels built on it vectorize.
    #[inline]
    pub fn from_f32_fast(value: f32) -> F16 {
        const F16_MAX_EXP: u32 = (127 + 16) << 23; // |x| >= 2^16 → Inf/NaN
        const F32_INF: u32 = 255 << 23;
        const SUB_LIMIT: u32 = 113 << 23; // |x| < 2^-14 → subnormal/zero
        const DENORM_MAGIC: u32 = 126 << 23; // 0.5f0 aligns the mantissa

        let bits = value.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let au = bits & 0x7FFF_FFFF;

        let mag = if au >= F16_MAX_EXP {
            // Inf stays Inf; NaN keeps the top 10 payload bits (quieted).
            if au > F32_INF {
                0x7E00 | ((au >> 13) as u16 & 0x03FF)
            } else {
                0x7C00
            }
        } else if au < SUB_LIMIT {
            // Subnormal or zero: adding 0.5 makes the FPU do the RTNE
            // shift for us; subtracting the magic bits leaves the f16
            // subnormal (or a carry into 0x0400, the smallest normal).
            let shifted = (f32::from_bits(au) + f32::from_bits(DENORM_MAGIC)).to_bits();
            shifted.wrapping_sub(DENORM_MAGIC) as u16
        } else {
            // Normal range: rebias the exponent and round on the 13
            // dropped bits, with the mantissa-odd term making ties even.
            let mant_odd = (au >> 13) & 1;
            let rounded = au
                .wrapping_add(0xC800_0000) // ((15 - 127) << 23) as u32
                .wrapping_add(0x0FFF)
                .wrapping_add(mant_odd);
            (rounded >> 13) as u16
        };
        F16(sign | mag)
    }

    /// Table-based f16 → f32 conversion; bit-identical to
    /// [`F16::to_f32`] but a single load instead of the subnormal
    /// normalization loop. Hot slice kernels should fetch
    /// [`to_f32_table`] once and index it directly.
    #[inline]
    pub fn to_f32_lut(self) -> f32 {
        to_f32_table()[self.0 as usize]
    }

    /// `true` if this value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }

    /// `true` if this value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// `true` for zero of either sign.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> F16 {
        F16(self.0 & 0x7FFF)
    }
}

impl From<f32> for F16 {
    #[inline]
    fn from(v: f32) -> F16 {
        F16::from_f32(v)
    }
}

impl From<F16> for f32 {
    #[inline]
    fn from(v: F16) -> f32 {
        v.to_f32()
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &F16) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $op:tt) => {
        impl $trait for F16 {
            type Output = F16;
            #[inline]
            fn $method(self, rhs: F16) -> F16 {
                F16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
        impl $assign_trait for F16 {
            #[inline]
            fn $assign_method(&mut self, rhs: F16) {
                *self = *self $op rhs;
            }
        }
    };
}

impl_binop!(Add, add, AddAssign, add_assign, +);
impl_binop!(Sub, sub, SubAssign, sub_assign, -);
impl_binop!(Mul, mul, MulAssign, mul_assign, *);
impl_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for F16 {
    type Output = F16;
    #[inline]
    fn neg(self) -> F16 {
        F16(self.0 ^ 0x8000)
    }
}

/// The 65536-entry f16 → f32 conversion table: entry `i` is
/// `F16::from_bits(i).to_f32()`. 256 KiB, built once on first use; turns
/// every upcast (including f16 subnormals, which otherwise normalize in
/// a loop) into a single indexed load.
pub fn to_f32_table() -> &'static [f32; 65536] {
    static TABLE: std::sync::OnceLock<Box<[f32; 65536]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Box::new([0.0f32; 65536]);
        for bits in 0..=u16::MAX {
            t[bits as usize] = F16::from_bits(bits).to_f32();
        }
        t
    })
}

/// Batch f16 → f32 conversion, dispatched through [`crate::simd`].
///
/// Specified against [`F16::to_f32_lut`] — equivalently [`F16::to_f32`]:
/// the two agree bit-for-bit over all 65536 patterns (proven exhaustively
/// by `table_matches_scalar_to_f32_exhaustively`, and re-asserted for
/// this kernel on every tier by `widen_slice_is_specified_by_to_f32_lut`).
/// Both tiers read [`to_f32_table`]; the AVX2 path is a `vgatherdps` over
/// the same table, so the dispatch cannot change a single bit.
pub fn widen_slice(src: &[F16], dst: &mut [f32]) {
    crate::simd::widen_slice_tier(crate::simd::active(), src, dst);
}

/// Batch f32 → f16 conversion via [`F16::from_f32_fast`], dispatched
/// through [`crate::simd`]; bit-identical to mapping [`F16::from_f32`]
/// on either tier (the AVX2 path is a lane-for-lane transcription of the
/// same integer arithmetic, NaN payloads included).
pub fn narrow_slice(src: &[f32], dst: &mut [F16]) {
    crate::simd::narrow_slice_tier(crate::simd::active(), src, dst);
}

/// Converts a slice of `f32` values into half precision.
pub fn f32_slice_to_f16(src: &[f32]) -> Vec<F16> {
    let mut out = vec![F16::ZERO; src.len()];
    narrow_slice(src, &mut out);
    out
}

/// Converts a slice of half-precision values into `f32`.
pub fn f16_slice_to_f32(src: &[F16]) -> Vec<f32> {
    let mut out = vec![0.0f32; src.len()];
    widen_slice(src, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_is_two_bytes() {
        assert_eq!(std::mem::size_of::<F16>(), 2);
        assert_eq!(std::mem::size_of::<[F16; 8]>(), 16);
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(F16::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(F16::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0_f32.powi(-14));
    }

    #[test]
    fn infinities_and_nan() {
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::NAN.to_f32().is_nan());
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert_eq!(F16::NEG_INFINITY.to_f32(), f32::NEG_INFINITY);
        assert!(!F16::INFINITY.is_finite());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY); // above max, rounds up
        assert_eq!(F16::from_f32(-65520.0), F16::NEG_INFINITY);
        assert_eq!(F16::from_f32(1e30), F16::INFINITY);
        // 65504 + something that rounds down stays finite.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn subnormals() {
        // Smallest positive subnormal is 2^-24.
        let tiny = 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(F16::from_bits(0x0001).to_f32(), tiny);
        // Largest subnormal.
        let largest_sub = 2.0_f32.powi(-14) - 2.0_f32.powi(-24);
        assert_eq!(F16::from_f32(largest_sub).to_bits(), 0x03FF);
        assert_eq!(F16::from_bits(0x03FF).to_f32(), largest_sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(F16::from_f32(2.0_f32.powi(-26)), F16::ZERO);
        assert_eq!(F16::from_f32(-2.0_f32.powi(-26)).to_bits(), 0x8000);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1 + 2^-10;
        // it must round to the even mantissa, i.e. 1.0.
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9;
        // rounds up to even mantissa 2.
        let halfway_up = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(F16::from_f32(halfway_up).to_bits(), 0x3C02);
        // Slightly above halfway rounds up.
        assert_eq!(F16::from_f32(halfway + 1e-7).to_bits(), 0x3C01);
    }

    #[test]
    fn roundtrip_all_finite_f16_values() {
        // Every finite f16 bit pattern must survive f16 -> f32 -> f16.
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                assert!(F16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn arithmetic_via_f32() {
        let a = F16::from_f32(1.5);
        let b = F16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / F16::from_f32(0.5)).to_f32(), 4.5);
        assert_eq!((-a).to_f32(), -1.5);
        let mut c = a;
        c += b;
        assert_eq!(c.to_f32(), 3.75);
    }

    #[test]
    fn ordering_matches_f32() {
        let vals = [-3.0f32, -0.5, 0.0, 0.25, 1.0, 100.0];
        for &x in &vals {
            for &y in &vals {
                assert_eq!(
                    F16::from_f32(x).partial_cmp(&F16::from_f32(y)),
                    x.partial_cmp(&y)
                );
            }
        }
    }

    #[test]
    fn slice_conversions() {
        let src = vec![0.0f32, 1.0, -2.5, 1024.0];
        let h = f32_slice_to_f16(&src);
        let back = f16_slice_to_f32(&h);
        assert_eq!(back, src);
    }

    #[test]
    fn table_matches_scalar_to_f32_exhaustively() {
        let table = to_f32_table();
        for bits in 0u16..=0xFFFF {
            let h = F16::from_bits(bits);
            assert_eq!(
                table[bits as usize].to_bits(),
                h.to_f32().to_bits(),
                "to_f32 table diverges at {bits:#06x}"
            );
            assert_eq!(h.to_f32_lut().to_bits(), h.to_f32().to_bits());
        }
    }

    #[test]
    fn widen_slice_is_specified_by_to_f32_lut() {
        // `widen_slice` is documented as specified against `to_f32_lut`
        // (== `to_f32`, per the exhaustive test above). Check all 65536
        // bit patterns through the public batch kernel on both tiers.
        let src: Vec<F16> = (0u16..=0xFFFF).map(F16::from_bits).collect();
        for tier in [crate::simd::Tier::Scalar, crate::simd::Tier::Avx2] {
            let mut dst = vec![0.0f32; src.len()];
            crate::simd::widen_slice_tier(tier, &src, &mut dst);
            for (d, s) in dst.iter().zip(&src) {
                assert_eq!(
                    d.to_bits(),
                    s.to_f32_lut().to_bits(),
                    "widen_slice diverges from to_f32_lut at {:#06x} ({} tier)",
                    s.0,
                    tier.name()
                );
            }
        }
    }

    #[test]
    fn fast_matches_scalar_from_f32_exhaustively() {
        // Every f32 reachable from an f16 (covers the whole f16 range
        // including subnormals, infinities and NaN payloads) ...
        for bits in 0u16..=0xFFFF {
            let x = F16::from_bits(bits).to_f32();
            assert_eq!(
                F16::from_f32_fast(x).to_bits(),
                F16::from_f32(x).to_bits(),
                "from_f32_fast diverges on f16 {bits:#06x} -> {x}"
            );
        }
        // ... and every f32 whose low 16 bits are zero (covers all f32
        // exponents: overflow-to-inf, ties, flush-to-zero, f32 NaNs).
        for hi in 0u16..=0xFFFF {
            let x = f32::from_bits((hi as u32) << 16);
            assert_eq!(
                F16::from_f32_fast(x).to_bits(),
                F16::from_f32(x).to_bits(),
                "from_f32_fast diverges on f32 bits {:#010x}",
                (hi as u32) << 16
            );
        }
        // Targeted rounding boundaries away from the sampled grids.
        for x in [
            65503.998f32,
            65504.0,
            65519.0,
            65519.999,
            65520.0,
            65520.001,
            2.0f32.powi(-14),
            2.0f32.powi(-14) - 2.0f32.powi(-26),
            2.0f32.powi(-24),
            2.0f32.powi(-25),
            2.0f32.powi(-25) * 1.000001,
            2.0f32.powi(-26),
            1.0 + 2.0f32.powi(-11),
            1.0 + 3.0 * 2.0f32.powi(-11),
            f32::from_bits(0x7F800001), // signaling NaN, minimal payload
            f32::from_bits(0xFFC0_1234),
        ] {
            for v in [x, -x] {
                assert_eq!(
                    F16::from_f32_fast(v).to_bits(),
                    F16::from_f32(v).to_bits(),
                    "from_f32_fast diverges on {v}"
                );
            }
        }
    }

    #[test]
    fn batch_slice_kernels_match_scalar() {
        let mut vals = vec![0.0f32];
        for bits in (0u32..=0xFFFF).step_by(7) {
            vals.push(f32::from_bits(bits << 16 | 0x1234));
        }
        let mut h = vec![F16::ZERO; vals.len()];
        narrow_slice(&vals, &mut h);
        for (o, &v) in h.iter().zip(&vals) {
            assert_eq!(o.to_bits(), F16::from_f32(v).to_bits());
        }
        let mut back = vec![0.0f32; h.len()];
        widen_slice(&h, &mut back);
        for (o, s) in back.iter().zip(&h) {
            assert_eq!(o.to_bits(), s.to_f32().to_bits());
        }
    }
}
