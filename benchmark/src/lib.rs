//! Layered benchmark of the spECK engine.
//!
//! One process runs one seeded workload through the public `speck-core`
//! API in a closed loop with a single caller. The untraced run measures
//! the end-to-end metrics; a separate traced run times each layer's public
//! functions from outside with the benchmark's own spans and sets host
//! wall time next to simulated time per layer. Every product is checked
//! against the sequential reference `spgemm_seq`.

pub mod host;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod workloads;

use speck_core::{MultiplyReport, SpeckSpgemm};
use speck_sparse::Csr;
use std::borrow::Borrow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::{Kind, Pair};

/// Relative tolerance of the value comparison against `spgemm_seq`.
pub const RTOL: f64 = 1e-10;
/// Absolute tolerance of the value comparison against `spgemm_seq`.
pub const ATOL: f64 = 1e-12;

/// True when `c` has exactly the reference's structure and its values lie
/// within tolerance.
pub fn matches(c: &Csr<f64>, reference: &Csr<f64>) -> bool {
    c.approx_eq(reference, RTOL, ATOL)
}

/// The products of one engine call, with their reports.
pub type Products = Vec<(Csr<f64>, MultiplyReport)>;

/// One engine call of a workload: a `multiply` per matrix, or one
/// `multiply_batch` over the chunk in `small_batch`. A panic is caught and
/// returned as `None`.
pub fn engine_call(engine: &SpeckSpgemm, kind: Kind, mats: &[Pair]) -> Option<Products> {
    catch_unwind(AssertUnwindSafe(|| {
        if kind == Kind::SmallBatch {
            let pairs: Vec<_> = mats.iter().map(|a| (a, a)).collect();
            engine.multiply_batch(&pairs)
        } else {
            mats.iter().map(|a| engine.multiply(a, a)).collect()
        }
    }))
    .ok()
}

/// True when a call returned one product per input, each matching its
/// reference.
pub fn call_correct<R: Borrow<Csr<f64>>>(out: &Option<Products>, refs: &[R]) -> bool {
    out.as_ref().is_some_and(|res| {
        res.len() == refs.len()
            && res
                .iter()
                .zip(refs)
                .all(|((c, _), r)| matches(c, r.borrow()))
    })
}
