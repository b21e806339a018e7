//! Property tests for the per-operation contract of [`F64x4`]: every lane
//! must match a plain `f64` reference bit for bit over adversarial
//! IEEE-754 inputs — NaN, ±infinity, ±0.0, subnormals and arbitrary bit
//! patterns. If these hold, the kernel-level equivalence suites only have
//! to prove operation *order*, not operation *semantics* (see
//! ARCHITECTURE.md, "Lane kernels").

use gossipopt_util::simd::F64x4;
use gossipopt_util::SplitMix64;
use proptest::prelude::*;

const SIGN: u64 = 1 << 63;

/// Decode one adversarial lane from a selector byte plus raw bits:
/// arbitrary finite/infinite patterns, the IEEE special values, and
/// subnormals (exponent field all zero).
fn lane(sel: u8, raw: u64) -> f64 {
    match sel % 8 {
        0 => f64::from_bits(raw),
        1 => f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        6 => f64::from_bits(raw % 0x10_0000_0000_0000), // subnormal / tiny
        _ => -f64::from_bits(raw),
    }
}

/// Expand one drawn `u64` into four adversarial lanes (the vendored
/// proptest shim draws scalars only, so the lane selectors and raw bits
/// come from a SplitMix64 stream keyed by the drawn value).
fn lanes(seed: u64) -> [f64; 4] {
    let mut sm = SplitMix64::new(seed);
    let sels = sm.mix();
    std::array::from_fn(|l| lane((sels >> (8 * l)) as u8, sm.mix()))
}

/// Bit-compare a pack against per-lane reference values (NaN payloads
/// included).
macro_rules! assert_lanes {
    ($op:expr, $got:expr, $want:expr) => {{
        let (g, w): ([f64; 4], [f64; 4]) = ($got.to_array(), $want);
        for l in 0..4 {
            prop_assert_eq!(
                g[l].to_bits(),
                w[l].to_bits(),
                "{} lane {}: got {:?} ({:#018x}), want {:?} ({:#018x})",
                $op,
                l,
                g[l],
                g[l].to_bits(),
                w[l],
                w[l].to_bits()
            );
        }
    }};
}

proptest! {
    /// Packed arithmetic is exactly the scalar operation per lane, both
    /// pack-with-pack and pack-with-scalar on either side.
    #[test]
    fn arithmetic_matches_f64(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (lanes(sa), lanes(sb));
        let (va, vb) = (F64x4::new(a), F64x4::new(b));
        assert_lanes!("add", va + vb, std::array::from_fn(|l| a[l] + b[l]));
        assert_lanes!("sub", va - vb, std::array::from_fn(|l| a[l] - b[l]));
        assert_lanes!("mul", va * vb, std::array::from_fn(|l| a[l] * b[l]));
        assert_lanes!("div", va / vb, std::array::from_fn(|l| a[l] / b[l]));
        assert_lanes!("mul/splat", va * b[0], std::array::from_fn(|l| a[l] * b[0]));
        assert_lanes!("sub/splat", b[0] - va, std::array::from_fn(|l| b[0] - a[l]));
    }

    /// `min`/`max` are the hardware select: NaN in either operand, or
    /// equal operands (incl. -0.0 vs +0.0), return the second operand;
    /// otherwise they agree with `f64::min`/`f64::max`.
    #[test]
    fn min_max_return_second_operand_on_nan_or_equal(sa in any::<u64>(), sb in any::<u64>()) {
        let (a, b) = (lanes(sa), lanes(sb));
        let (mn, mx) = (F64x4::new(a).min(F64x4::new(b)), F64x4::new(a).max(F64x4::new(b)));
        let second = |l: usize| a[l].is_nan() || b[l].is_nan() || a[l] == b[l];
        assert_lanes!(
            "min",
            mn,
            std::array::from_fn(|l| if second(l) { b[l] } else { a[l].min(b[l]) })
        );
        assert_lanes!(
            "max",
            mx,
            std::array::from_fn(|l| if second(l) { b[l] } else { a[l].max(b[l]) })
        );
    }

    /// `abs` clears and `neg` flips the sign bit on every lane, NaN
    /// included; `sqrt` and `floor` are the IEEE scalar operations.
    #[test]
    fn unary_ops_match_f64(s in any::<u64>()) {
        let a = lanes(s);
        let v = F64x4::new(a);
        assert_lanes!("abs", v.abs(), std::array::from_fn(|l| f64::from_bits(a[l].to_bits() & !SIGN)));
        assert_lanes!("abs/std", v.abs(), std::array::from_fn(|l| a[l].abs()));
        assert_lanes!("neg", -v, std::array::from_fn(|l| f64::from_bits(a[l].to_bits() ^ SIGN)));
        assert_lanes!("sqrt", v.sqrt(), std::array::from_fn(|l| a[l].sqrt()));
        assert_lanes!("floor", v.floor(), std::array::from_fn(|l| a[l].floor()));
    }

    /// On ordered, non-NaN bounds `clamp` matches `f64::clamp` exactly —
    /// including signed-zero values and bounds, where a min/max-based
    /// clamp would diverge (the select returns the second operand on
    /// equal lanes).
    #[test]
    fn clamp_matches_std_on_ordered_bounds(sv in any::<u64>(), sb in any::<u64>()) {
        let v = lanes(sv);
        let bounds = lanes(sb);
        let zeros = [0.0, -0.0];
        for (lo, hi) in [
            (bounds[0], bounds[1]),
            (bounds[2], bounds[3]),
            (-0.0, 0.0),
            (0.0, -0.0),
            (zeros[(sv & 1) as usize], bounds[0]),
            (bounds[1], zeros[(sb & 1) as usize]),
        ] {
            if lo.is_nan() || hi.is_nan() {
                continue;
            }
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            assert_lanes!(
                "clamp",
                F64x4::new(v).clamp(F64x4::splat(lo), F64x4::splat(hi)),
                std::array::from_fn(|l| v[l].clamp(lo, hi))
            );
        }
    }

    /// `clamp` is total: unordered or NaN bounds never panic and follow
    /// the two-step select chain.
    #[test]
    fn clamp_is_total_select_chain(sv in any::<u64>(), sl in any::<u64>(), sh in any::<u64>()) {
        let (v, lo, hi) = (lanes(sv), lanes(sl), lanes(sh));
        let want = std::array::from_fn(|l| {
            let t = if v[l] < lo[l] { lo[l] } else { v[l] };
            if t > hi[l] { hi[l] } else { t }
        });
        assert_lanes!("clamp", F64x4::new(v).clamp(F64x4::new(lo), F64x4::new(hi)), want);
    }
}
