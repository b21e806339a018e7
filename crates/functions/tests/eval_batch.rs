//! `Objective::eval_batch` must agree with `eval` **bit for bit** for
//! every registered function, every batch size, and through every wrapper
//! — the batch path is the solvers' evaluation hot path, and a divergence
//! would silently break same-seed reproducibility.

use gossipopt_functions::{
    by_name, names, CountingObjective, Objective, RestrictedObjective, ShiftedObjective, Sphere,
};
use gossipopt_util::{Rng64, SplitMix64, Xoshiro256pp};
use proptest::prelude::*;
use std::sync::Arc;

fn random_batch(f: &dyn Objective, m: usize, rng: &mut Xoshiro256pp) -> Vec<f64> {
    let k = f.dim();
    let mut xs = Vec::with_capacity(m * k);
    for _ in 0..m {
        for d in 0..k {
            let (lo, hi) = f.bounds(d);
            xs.push(rng.range_f64(lo, hi));
        }
    }
    xs
}

fn assert_batch_matches(f: &dyn Objective, label: &str, rng: &mut Xoshiro256pp) {
    let k = f.dim();
    for m in [1usize, 2, 7, 32] {
        let xs = random_batch(f, m, rng);
        let mut batch = vec![0.0f64; m];
        f.eval_batch(&xs, k, &mut batch);
        for (i, chunk) in xs.chunks_exact(k).enumerate() {
            let pointwise = f.eval(chunk);
            assert_eq!(
                pointwise.to_bits(),
                batch[i].to_bits(),
                "{label}: point {i} of batch {m} diverged ({pointwise} vs {})",
                batch[i]
            );
        }
    }
}

#[test]
fn eval_batch_matches_eval_across_registry() {
    let mut rng = Xoshiro256pp::seeded(2024);
    for name in names() {
        let f = by_name(name, 10).unwrap_or_else(|| panic!("{name} not constructible"));
        assert_batch_matches(f.as_ref(), name, &mut rng);
    }
}

#[test]
fn eval_batch_matches_through_dyn_and_arc() {
    let mut rng = Xoshiro256pp::seeded(2025);
    let arc: Arc<dyn Objective> = Arc::from(by_name("rastrigin", 6).unwrap());
    assert_batch_matches(&arc, "arc<dyn>", &mut rng);
    let reference: &dyn Objective = &Sphere::new(6);
    assert_batch_matches(&reference, "&dyn", &mut rng);
}

#[test]
fn eval_batch_matches_through_wrappers() {
    let mut rng = Xoshiro256pp::seeded(2026);
    let shifted = ShiftedObjective::new(Sphere::new(5), vec![1.5, -2.0, 0.25, 8.0, -3.5]);
    assert_batch_matches(&shifted, "shifted", &mut rng);
    let restricted = RestrictedObjective::new(Sphere::new(3), vec![-10.0; 3], vec![10.0; 3]);
    assert_batch_matches(&restricted, "restricted", &mut rng);
}

#[test]
fn counting_wrapper_counts_batches_exactly() {
    let f = CountingObjective::new(Sphere::new(4));
    let counter = f.counter();
    let xs = vec![0.5f64; 4 * 9];
    let mut out = vec![0.0f64; 9];
    f.eval_batch(&xs, 4, &mut out);
    assert_eq!(counter.get(), 9, "batch of 9 counts 9 evaluations");
    f.eval(&xs[..4]);
    assert_eq!(counter.get(), 10);
}

#[test]
fn eval_batch_rejects_shape_mismatches() {
    let f = Sphere::new(3);
    let xs = vec![0.0f64; 6];
    let mut out = vec![0.0f64; 2];
    f.eval_batch(&xs, 3, &mut out); // fine: 2 points of dim 3
    let bad = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f64; 3];
        f.eval_batch(&xs, 3, &mut out); // 6 floats cannot hold 3 points
    });
    assert!(bad.is_err(), "length mismatch must panic");
    let bad_stride = std::panic::catch_unwind(|| {
        let mut out = vec![0.0f64; 3];
        f.eval_batch(&xs, 2, &mut out); // stride must equal dim
    });
    assert!(bad_stride.is_err(), "stride mismatch must panic");
}

/// Specials to splice in: the lane kernels must agree with `eval` even on
/// inputs no solver produces (NaN trajectories, infinities, signed zeros,
/// subnormals, overflow-prone magnitudes).
const SPECIALS: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    0.0,
    -0.0,
    f64::MIN_POSITIVE / 2.0, // subnormal
    1e308,
];

/// Build one batch: mostly 1.5x-domain samples, with specials spliced in
/// at positions keyed by `salt`.
fn special_batch(f: &dyn Objective, n: usize, salt: u64) -> Vec<f64> {
    let k = f.dim();
    let mut rng = Xoshiro256pp::seeded(salt);
    let mut sm = SplitMix64::new(salt ^ 0x5eed);
    (0..n * k)
        .map(|i| {
            let (lo, hi) = f.bounds(i % k);
            let draw = rng.range_f64(lo * 1.5, hi * 1.5);
            // ~1 in 8 positions becomes a special value.
            let roll = sm.mix();
            if roll.is_multiple_of(8) {
                SPECIALS[(roll >> 8) as usize % SPECIALS.len()]
            } else {
                draw
            }
        })
        .collect()
}

/// Result bits with every NaN folded to one pattern. Rust leaves the sign
/// and payload of a NaN produced by arithmetic unspecified (LLVM may
/// commute the operands of `NaN + NaN`), so only NaN-ness is comparable.
fn canonical_bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

proptest! {
    /// Every registry objective's `eval_batch` equals point-wise `eval`
    /// bit for bit (NaN-ness only for NaN results, see
    /// [`canonical_bits`]) with special values spliced in, at
    /// dimensionalities exercising full 4-wide lane groups and scalar
    /// tails.
    #[test]
    fn registry_batches_match_pointwise_on_specials(salt in any::<u64>(), n in 1usize..10) {
        for name in names() {
            for dim in [1usize, 2, 3, 4, 5, 7, 8, 12, 33] {
                let f = by_name(name, dim).expect("registered");
                let k = f.dim();
                let xs = special_batch(f.as_ref(), n, salt ^ (k as u64) << 32);
                let mut batch = vec![0.0f64; n];
                f.eval_batch(&xs, k, &mut batch);
                for (i, chunk) in xs.chunks_exact(k).enumerate() {
                    let pointwise = f.eval(chunk);
                    prop_assert_eq!(
                        canonical_bits(batch[i]),
                        canonical_bits(pointwise),
                        "{} dim {}: point {} diverged ({} vs {})",
                        name,
                        k,
                        i,
                        batch[i],
                        pointwise
                    );
                }
            }
        }
    }
}
