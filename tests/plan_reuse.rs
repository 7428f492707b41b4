//! Plan reuse must be *algorithmically* transparent: a reused plan
//! returns bit-identical output and memory, its timeline holds only the
//! stages that actually ran (numeric + sorting), and each of those stages
//! costs exactly what it costs on the cold path.

use proptest::prelude::*;
use speck_repro::sparse::reference::spgemm_seq;
use speck_repro::sparse::{Coo, Csr, Scalar};
use speck_repro::speck::pipeline::stage;
use speck_repro::speck::SpeckSpgemm;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn arb_csr(rows: usize, cols: usize, max_nnz: usize) -> impl Strategy<Value = Csr<f64>> {
    proptest::collection::vec(
        (
            0..rows as u32,
            0..cols as u32,
            (-500i32..500).prop_map(|v| v as f64 / 16.0 + 0.03125),
        ),
        0..=max_nnz,
    )
    .prop_map(move |trips| {
        let mut coo: Coo<f64> = Coo::new(rows, cols);
        for (r, c, v) in trips {
            coo.push(r, c, v);
        }
        coo.to_csr()
    })
}

/// Same pattern as `m`, deterministically perturbed values.
fn perturb(m: &Csr<f64>, salt: u64) -> Csr<f64> {
    Csr::from_parts_unchecked(
        m.rows(),
        m.cols(),
        m.row_ptr().to_vec(),
        m.col_idx().to_vec(),
        m.vals()
            .iter()
            .enumerate()
            .map(|(i, &v)| v * (1.0 + ((i as u64 + salt) % 13) as f64 * 1e-3))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_multiply_is_bit_identical_and_skips_setup(
        a in arb_csr(24, 20, 160),
        b in arb_csr(20, 28, 160),
    ) {
        let engine = SpeckSpgemm::default();
        let (c_cold, r_cold) = engine.multiply(&a, &b);
        let (c_warm, r_warm) = engine.multiply(&a, &b);
        prop_assert!(!r_cold.reused_plan);
        prop_assert!(r_warm.reused_plan);

        // Identical output bytes.
        prop_assert_eq!(c_warm.row_ptr(), c_cold.row_ptr());
        prop_assert_eq!(c_warm.col_idx(), c_cold.col_idx());
        for (x, y) in c_warm.vals().iter().zip(c_cold.vals()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }

        // Identical peak memory (plan structures stay device-resident),
        // no more simulated time than the cold call.
        prop_assert_eq!(r_warm.peak_mem_bytes, r_cold.peak_mem_bytes);
        prop_assert!(r_warm.sim_time_s <= r_cold.sim_time_s);

        // The warm timeline holds only the executed stages, and each one
        // is bit-identical to its cold counterpart.
        for (name, st) in r_warm.timeline.stages() {
            prop_assert!(
                name == stage::NUMERIC || name == stage::SORTING,
                "unexpected stage {} in a reused call", name
            );
            let cold_secs = r_cold
                .timeline
                .stages()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| s.seconds)
                .unwrap();
            prop_assert_eq!(st.seconds.to_bits(), cold_secs.to_bits());
        }
    }

    #[test]
    fn warm_multiply_with_fresh_values_is_correct(
        a in arb_csr(20, 16, 120),
        b in arb_csr(16, 22, 120),
        salt in 0u64..1000,
    ) {
        let engine = SpeckSpgemm::default();
        let _ = engine.multiply(&a, &b);
        // Same patterns, fresh values: the plan is reused, the values are
        // not — output must match the sequential reference on the new
        // values.
        let a2 = perturb(&a, salt);
        let b2 = perturb(&b, salt.wrapping_add(1));
        let (c, r) = engine.multiply(&a2, &b2);
        prop_assert!(r.reused_plan);
        let expect = spgemm_seq(&a2, &b2);
        prop_assert!(c.approx_eq(&expect, 1e-10, 1e-12));
    }
}

#[test]
fn batch_agrees_with_sequential_multiplies() {
    let ms: Vec<Csr<f64>> = (0..6)
        .map(|s| {
            speck_repro::sparse::gen::uniform_random(150 + 10 * s, 150 + 10 * s, 2, 6, s as u64)
        })
        .collect();
    let solo = SpeckSpgemm::default();
    let batch = SpeckSpgemm::default();
    let pairs: Vec<(&Csr<f64>, &Csr<f64>)> = ms.iter().map(|m| (m, m)).collect();
    let outs = batch.multiply_batch(&pairs);
    assert_eq!(outs.len(), pairs.len());
    for ((c_b, r_b), m) in outs.iter().zip(&ms) {
        let (c_s, r_s) = solo.multiply(m, m);
        assert!(c_b.approx_eq(&c_s, 0.0, 0.0), "batch result differs");
        assert_eq!(r_b.sim_time_s.to_bits(), r_s.sim_time_s.to_bits());
        assert_eq!(r_b.peak_mem_bytes, r_s.peak_mem_bytes);
    }
    // Second batch over the same patterns: every multiply is warm.
    let outs2 = batch.multiply_batch(&pairs);
    for ((c2, r2), (c1, r1)) in outs2.iter().zip(&outs) {
        assert!(r2.reused_plan);
        assert!(c2.approx_eq(c1, 0.0, 0.0));
        assert!(r2.sim_time_s < r1.sim_time_s);
    }
}

#[test]
fn explicit_plan_api_round_trips_through_the_facade() {
    let a = speck_repro::sparse::gen::banded(900, 3, 1.0, 5);
    let engine = SpeckSpgemm::default();
    let plan = engine.plan(&a, &a);
    let (c, r) = engine.execute_plan(&plan, &a, &a);
    assert!(r.reused_plan);
    assert_eq!(plan.nnz_c(), c.nnz());
    let (c_cold, r_cold) = SpeckSpgemm::default()
        .with_plan_cache_capacity(0)
        .multiply(&a, &a);
    assert!(c.approx_eq(&c_cold, 0.0, 0.0));
    let total = plan.setup_sim_time_s() + r.sim_time_s;
    assert!((total - r_cold.sim_time_s).abs() <= 1e-12 * r_cold.sim_time_s);
}

/// A scalar whose product panics when an operand is [`Checked::POISON`],
/// standing in for an overflow-checked integer semiring.
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
struct Checked(f64);

impl Checked {
    const POISON: f64 = -13.0;
}

impl Mul for Checked {
    type Output = Self;
    fn mul(self, o: Self) -> Self {
        assert!(
            self.0 != Self::POISON && o.0 != Self::POISON,
            "checked multiply overflowed"
        );
        Checked(self.0 * o.0)
    }
}

impl Add for Checked {
    type Output = Self;
    fn add(self, o: Self) -> Self {
        Checked(self.0 + o.0)
    }
}

impl AddAssign for Checked {
    fn add_assign(&mut self, o: Self) {
        self.0 += o.0;
    }
}

impl Sub for Checked {
    type Output = Self;
    fn sub(self, o: Self) -> Self {
        Checked(self.0 - o.0)
    }
}

impl Div for Checked {
    type Output = Self;
    fn div(self, o: Self) -> Self {
        Checked(self.0 / o.0)
    }
}

impl Neg for Checked {
    type Output = Self;
    fn neg(self) -> Self {
        Checked(-self.0)
    }
}

impl Scalar for Checked {
    fn zero() -> Self {
        Checked(0.0)
    }
    fn one() -> Self {
        Checked(1.0)
    }
    fn abs(self) -> Self {
        Checked(self.0.abs())
    }
    fn from_f64(v: f64) -> Self {
        Checked(v)
    }
    fn to_f64(self) -> f64 {
        self.0
    }
}

#[test]
fn panicking_warm_multiply_leaves_the_engine_usable() {
    let m = speck_repro::sparse::gen::banded(3000, 4, 1.0, 9);
    let with_vals = |f: &dyn Fn(usize, f64) -> f64| {
        Csr::from_parts_unchecked(
            m.rows(),
            m.cols(),
            m.row_ptr().to_vec(),
            m.col_idx().to_vec(),
            m.vals()
                .iter()
                .enumerate()
                .map(|(i, &v)| Checked(f(i, v)))
                .collect(),
        )
    };
    let a = with_vals(&|_, v| v);
    let poisoned = with_vals(&|i, v| if i == m.nnz() / 2 { Checked::POISON } else { v });

    let engine = SpeckSpgemm::default();
    let (c_cold, _) = engine.multiply(&a, &a);
    let warm = catch_unwind(AssertUnwindSafe(|| engine.multiply(&poisoned, &a)));
    assert!(warm.is_err(), "the poisoned product must panic");

    // The panic neither poisoned the plan cache nor lost the plan.
    assert_eq!(engine.cached_plans(), 1);
    assert_eq!(engine.plan_cache_stats(), (1, 1));
    let (c_warm, r) = engine.multiply(&a, &a);
    assert!(r.reused_plan);
    assert!(c_warm.approx_eq(&c_cold, 0.0, 0.0));
    assert!(c_warm.approx_eq(&spgemm_seq(&a, &a), 1e-10, 1e-12));
}
