//! Operands of a weight gradient behind a ReLU, for the bit-for-bit suites
//! of `Aᵀ·B` at kept positions (`sampled`, `kept_acc`). A step of an
//! output row is skipped exactly when every A value of its MR row group is
//! zero there (groups of four from row 0 while they fit, single rows
//! after): here a group is dead at scattered steps, so most blocks of
//! eight steps are partly live, and B holds `∞`, `−∞` or NaN exactly where
//! a group is dead — a kernel that multiplies a dead step's zero instead of
//! skipping it turns that group's chains into NaN.

/// Rows of a row group while four fit.
const MR: usize = 4;

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u32) -> u32 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as u32) % bound
    }

    /// A value in [-scale, scale).
    fn value(&mut self, scale: f32) -> f32 {
        (self.below(1 << 24) as f32 / (1u32 << 23) as f32 - 1.0) * scale
    }

    /// `+0.0` or `−0.0`.
    fn zero(&mut self) -> f32 {
        if self.below(2) == 0 { 0.0 } else { -0.0 }
    }
}

/// `(a, b)`: `a` is `k × m` and `b` is `k × n`, values below `scale`
/// (`1e-22` makes every product underflow to a signed zero or a
/// subnormal). Each row group of `a` is dead — all zeros, either sign — at
/// about a third of the steps; at a live step each of its rows is zero
/// with odds of one in four, so rows are also zero where their group is
/// live. With `non_finite`, column `j` of `b` belongs to group
/// `j mod groups`, and holds a non-finite value at about half the steps
/// where that group is dead: the group skips it and every group live
/// there meets it.
pub fn operands(m: usize, n: usize, k: usize, scale: f32, non_finite: bool, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut g = Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
    let full = m / MR * MR;
    let groups: Vec<(usize, usize)> = (0..full).step_by(MR).map(|s| (s, s + MR)).chain((full..m).map(|r| (r, r + 1))).collect();
    let mut dead = vec![false; k * groups.len()];
    let mut a = vec![0.0f32; k * m];
    for p in 0..k {
        for (gi, &(s, e)) in groups.iter().enumerate() {
            dead[p * groups.len() + gi] = g.below(3) == 0;
            for v in &mut a[p * m + s..p * m + e] {
                let zero = dead[p * groups.len() + gi] || g.below(4) == 0;
                *v = if zero { g.zero() } else { g.value(scale) };
            }
        }
    }
    let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let mut b: Vec<f32> = (0..k * n).map(|_| if g.below(8) == 0 { g.zero() } else { g.value(scale) }).collect();
    if non_finite {
        for p in 0..k {
            for j in 0..n {
                if dead[p * groups.len() + j % groups.len()] && g.below(2) == 0 {
                    b[p * n + j] = specials[g.below(3) as usize];
                }
            }
        }
    }
    (a, b)
}
