//! Portable 4-wide f64 lanes for the objective and solver lane kernels.
//!
//! The objective lane kernels (`gossipopt_functions`) and the solver update
//! kernels (`gossipopt_solvers`) process particles in groups of four.
//! [`F64x4`] holds one value per particle and supports ordinary operators,
//! so a kernel reads like its scalar counterpart while LLVM is free to
//! vectorize the fixed-width lane arithmetic.
//!
//! Every operation is element-wise and performs exactly the IEEE-754
//! operation its scalar counterpart performs (no FMA, no fast-math), so a
//! lane kernel that keeps the scalar kernel's operation *order* is
//! bit-identical to it. Operator expressions must therefore keep the same
//! associativity as the scalar code they mirror.
//!
//! ## Semantics pinned by the contract
//!
//! * `min(a, b)` is `if a < b { a } else { b }` — the `VMINPD` select
//!   (NaN or equal operands return `b`). Likewise `max` with `>`. These
//!   are *not* IEEE `minNum`.
//! * `clamp(v, lo, hi)` is the two-step select chain
//!   `t = if v < lo { lo } else { v }; if t > hi { hi } else { t }`,
//!   which reproduces `f64::clamp`'s result for every `lo <= hi`
//!   (including NaN passthrough and signed-zero bounds). Unlike
//!   `f64::clamp` it is total: it does not panic when `lo > hi`.
//! * `abs` clears the sign bit (matching `f64::abs`, even on NaN); `neg`
//!   flips it; `sqrt` and `floor` are IEEE-exact.
//! * Transcendentals (sin/cos/exp/powi/...) are never packed: kernels
//!   route them through [`F64x4::map`], which applies the scalar libm call
//!   per lane.

/// Four `f64` lanes with element-wise arithmetic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F64x4([f64; 4]);

#[inline(always)]
fn lanewise2(a: F64x4, b: F64x4, mut f: impl FnMut(f64, f64) -> f64) -> F64x4 {
    F64x4([
        f(a.0[0], b.0[0]),
        f(a.0[1], b.0[1]),
        f(a.0[2], b.0[2]),
        f(a.0[3], b.0[3]),
    ])
}

impl F64x4 {
    /// Pack four lanes.
    #[inline(always)]
    pub fn new(lanes: [f64; 4]) -> Self {
        F64x4(lanes)
    }

    /// Broadcast one value to all four lanes.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// Load the first four elements of `xs` (`xs.len() >= 4`).
    #[inline(always)]
    pub fn load(xs: &[f64]) -> Self {
        F64x4([xs[0], xs[1], xs[2], xs[3]])
    }

    /// Gather coordinate `d` from four points (the lane-kernel access
    /// pattern: one group = four particles, walked dimension-major).
    #[inline(always)]
    pub fn gather(pts: &[&[f64]; 4], d: usize) -> Self {
        F64x4([pts[0][d], pts[1][d], pts[2][d], pts[3][d]])
    }

    /// Store the four lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// Unpack the four lanes.
    #[inline(always)]
    pub fn to_array(self) -> [f64; 4] {
        self.0
    }

    /// Apply a scalar function to every lane: the route for
    /// transcendentals, so each lane runs the same libm call as the
    /// scalar kernel.
    #[inline(always)]
    pub fn map(self, mut f: impl FnMut(f64) -> f64) -> Self {
        F64x4([f(self.0[0]), f(self.0[1]), f(self.0[2]), f(self.0[3])])
    }

    /// Lane-wise IEEE square root.
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        self.map(f64::sqrt)
    }

    /// Lane-wise clear of the sign bit (matches `f64::abs` on NaN too).
    #[inline(always)]
    pub fn abs(self) -> Self {
        self.map(f64::abs)
    }

    /// Lane-wise round toward negative infinity.
    #[inline(always)]
    pub fn floor(self) -> Self {
        self.map(f64::floor)
    }

    /// Lane-wise `if self < rhs { self } else { rhs }` (NaN or equal
    /// operands return `rhs`).
    #[inline(always)]
    pub fn min(self, rhs: Self) -> Self {
        lanewise2(self, rhs, |x, y| if x < y { x } else { y })
    }

    /// Lane-wise `if self > rhs { self } else { rhs }` (NaN or equal
    /// operands return `rhs`).
    #[inline(always)]
    pub fn max(self, rhs: Self) -> Self {
        lanewise2(self, rhs, |x, y| if x > y { x } else { y })
    }

    /// Lane-wise clamp via the select chain documented at module level:
    /// bit-identical to `f64::clamp` for `lo <= hi`, total otherwise.
    #[inline(always)]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        // Not expressible via min/max: those return the *second* operand
        // on equal lanes (e.g. -0.0 vs +0.0), while f64::clamp keeps `v`
        // unless strictly out of bounds.
        let t = lanewise2(self, lo, |x, l| if x < l { l } else { x });
        lanewise2(t, hi, |x, h| if x > h { h } else { x })
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                lanewise2(self, rhs, |x, y| x $op y)
            }
        }
        impl std::ops::$trait<f64> for F64x4 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: f64) -> F64x4 {
                self.map(|x| x $op rhs)
            }
        }
        impl std::ops::$trait<F64x4> for f64 {
            type Output = F64x4;
            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                rhs.map(|y| self $op y)
            }
        }
    };
}
binop!(Add, add, +);
binop!(Sub, sub, -);
binop!(Mul, mul, *);
binop!(Div, div, /);

impl std::ops::Neg for F64x4 {
    type Output = F64x4;
    /// Lane-wise flip of the sign bit.
    #[inline(always)]
    fn neg(self) -> F64x4 {
        self.map(|x| -x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_match_plain_arithmetic() {
        let a = F64x4::new([1.5, -2.0, 0.0, 1.0e300]);
        let b = F64x4::new([0.5, 4.0, -0.0, 1.0e-300]);
        assert_eq!((a + b).to_array(), [2.0, 2.0, 0.0, 1.0e300 + 1.0e-300]);
        assert_eq!((a * b).to_array()[1], -8.0);
        assert_eq!(a.abs().to_array()[1], 2.0);
        assert_eq!((-a).to_array()[0], -1.5);
    }

    #[test]
    fn min_max_take_second_operand_on_nan() {
        let nan = f64::NAN;
        let a = F64x4::new([nan, 1.0, nan, 2.0]);
        let b = F64x4::new([3.0, nan, nan, 2.0]);
        let mn = a.min(b).to_array();
        let mx = a.max(b).to_array();
        // VMINPD/VMAXPD select semantics: NaN (or equality) in the
        // compare yields the second operand.
        assert_eq!(mn[0], 3.0);
        assert!(mn[1].is_nan());
        assert!(mn[2].is_nan());
        assert_eq!(mn[3], 2.0);
        assert_eq!(mx[0], 3.0);
        assert!(mx[1].is_nan());
    }

    #[test]
    fn clamp_matches_std_for_ordered_bounds() {
        let cases: [(f64, f64, f64); 7] = [
            (0.5, -1.0, 1.0),
            (-3.0, -1.0, 1.0),
            (3.0, -1.0, 1.0),
            (-0.0, 0.0, 1.0),
            (f64::NAN, -1.0, 1.0),
            (f64::NEG_INFINITY, -1.0, 1.0),
            (f64::INFINITY, -1.0, 1.0),
        ];
        for (v, lo, hi) in cases {
            let got = F64x4::splat(v)
                .clamp(F64x4::splat(lo), F64x4::splat(hi))
                .to_array()[0];
            let want = v.clamp(lo, hi);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "clamp({v}, {lo}, {hi}): got {got}, want {want}"
            );
        }
    }

    #[test]
    fn operators_preserve_associativity() {
        let x = F64x4::splat(3.0);
        let r = 2.0 * x * (x - 1.0) + 1.0;
        assert_eq!(r.to_array()[0], 13.0);
        assert_eq!((-x).to_array()[2], -3.0);
        assert_eq!((x / 2.0).to_array()[3], 1.5);
        let mut out = [0.0; 4];
        r.store(&mut out);
        assert_eq!(out, [13.0; 4]);
        assert_eq!(
            F64x4::load(&[1.0, 2.0, 3.0, 4.0]).to_array(),
            [1.0, 2.0, 3.0, 4.0]
        );
    }
}
