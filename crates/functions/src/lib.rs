#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # gossipopt-functions
//!
//! The continuous benchmark objective suite used in the paper's evaluation —
//! De Jong's F2, Zakharov, Rosenbrock, Sphere, Schaffer's F6 and Griewank —
//! plus a set of classic extensions (Rastrigin, Ackley, Schwefel 1.2, Step,
//! Styblinski–Tang) for the follow-on experiments.
//!
//! All functions are **minimization** problems exposing their search domain
//! and known global optimum through the [`Objective`] trait, and are
//! registered by name in [`registry`] so experiments can be configured from
//! strings.
//!
//! Wrappers in [`wrappers`] add evaluation counting, domain translation
//! (shifting the optimum) and restriction to a sub-box (used by the
//! search-space-partitioning coordination strategy).

pub mod extended;
pub(crate) mod lanes;
pub mod registry;
pub mod suite;
pub mod wrappers;

pub use extended::*;
pub use registry::{by_name, names, paper_suite, FunctionSpec};
pub use suite::*;
pub use wrappers::{CountingObjective, RestrictedObjective, ShiftedObjective};

/// A continuous objective function to be minimized over a box domain.
///
/// Implementations must be pure (no interior mutability observable through
/// `eval`) so they can be shared freely across simulated nodes and threads.
pub trait Objective: Send + Sync {
    /// Human-readable identifier (stable; used in experiment manifests).
    fn name(&self) -> &str;

    /// Problem dimensionality.
    fn dim(&self) -> usize;

    /// Per-coordinate search interval `[lo, hi]`.
    ///
    /// All suite functions use a hypercube, but the trait allows
    /// per-dimension bounds (needed by [`RestrictedObjective`]).
    fn bounds(&self, dim: usize) -> (f64, f64);

    /// Evaluate at `x`; `x.len()` must equal [`Objective::dim`].
    fn eval(&self, x: &[f64]) -> f64;

    /// Evaluate `out.len()` points stored contiguously in `xs` with stride
    /// `k` (point `i` is `xs[i*k..(i+1)*k]`), writing values into `out`.
    ///
    /// This is the batch entry of the evaluation hot path: solvers that
    /// keep positions in flat structure-of-arrays buffers evaluate through
    /// it, paying one virtual dispatch per *batch* instead of per point.
    /// The suite functions override it with tight loops sharing the exact
    /// per-point arithmetic of [`Objective::eval`], so values are
    /// bit-identical to point-wise evaluation. The default falls back to
    /// calling `eval` per chunk.
    fn eval_batch(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        assert_eq!(k, self.dim(), "stride must equal the dimensionality");
        assert_eq!(xs.len(), k * out.len(), "xs must hold out.len() points");
        for (chunk, slot) in xs.chunks_exact(k).zip(out.iter_mut()) {
            *slot = self.eval(chunk);
        }
    }

    /// The known global minimum value, used to compute solution quality
    /// `f(x) − f*` (all suite functions have `f* = 0`).
    fn optimum_value(&self) -> f64 {
        0.0
    }

    /// A known global minimizer, if any (used by tests).
    fn optimum_position(&self) -> Option<Vec<f64>> {
        None
    }

    /// Solution quality as defined in the paper: distance of the achieved
    /// value from the best known value.
    fn quality(&self, x: &[f64]) -> f64 {
        self.eval(x) - self.optimum_value()
    }
}

/// Blanket impl so `&T` can be used wherever an [`Objective`] is expected.
impl<T: Objective + ?Sized> Objective for &T {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        (**self).bounds(dim)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (**self).eval(x)
    }
    fn eval_batch(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        (**self).eval_batch(xs, k, out)
    }
    fn optimum_value(&self) -> f64 {
        (**self).optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        (**self).optimum_position()
    }
}

/// Blanket impl for shared ownership across simulated nodes.
impl<T: Objective + ?Sized> Objective for std::sync::Arc<T> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn bounds(&self, dim: usize) -> (f64, f64) {
        (**self).bounds(dim)
    }
    fn eval(&self, x: &[f64]) -> f64 {
        (**self).eval(x)
    }
    fn eval_batch(&self, xs: &[f64], k: usize, out: &mut [f64]) {
        (**self).eval_batch(xs, k, out)
    }
    fn optimum_value(&self) -> f64 {
        (**self).optimum_value()
    }
    fn optimum_position(&self) -> Option<Vec<f64>> {
        (**self).optimum_position()
    }
}
