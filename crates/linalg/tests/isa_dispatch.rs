//! Dispatch-correctness tests: every SIMD kernel pinned against the scalar
//! reference through the public product APIs, across ragged tile tails.
//!
//! Forcing an ISA (`kernels::force_isa`) mutates process-global dispatch
//! state, so every test here serialises on one mutex and restores the
//! default before releasing it.  The FMA GEMM kernels are held to the
//! documented bound `|simd − scalar| ≤ k · ε · (1 + Σ_p |a_p·b_p|)` (fused
//! multiply-add skips one rounding per k-step); `ops::axpy` and the
//! small-product fast path are held to exact equality.

use htc_linalg::kernels::{self, Isa};
use htc_linalg::ops::axpy;
use htc_linalg::DenseMatrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises every test that forces the global ISA.
static ISA_LOCK: Mutex<()> = Mutex::new(());

/// Runs `body` with the dispatcher pinned to `isa`, restoring the default
/// even on panic.
fn with_isa<T>(isa: Isa, body: impl FnOnce() -> T) -> T {
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            kernels::force_isa(None).expect("clearing the override cannot fail");
        }
    }
    let _restore = Restore;
    kernels::force_isa(Some(isa)).expect("caller checked support");
    body()
}

/// The SIMD ISAs this host can execute (may be empty on exotic hardware).
fn simd_isas() -> Vec<Isa> {
    [Isa::Avx512, Isa::Avx2, Isa::Neon]
        .into_iter()
        .filter(|isa| isa.supported())
        .collect()
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

/// Per-element FMA bound: `k·ε·(1 + Σ_p |a_p·b_p|)` for `A·B` at `(r, c)`.
fn fma_bound(a: &DenseMatrix, b: &DenseMatrix, r: usize, c: usize) -> f64 {
    let k = a.cols();
    let slack: f64 = (0..k).map(|p| (a.get(r, p) * b.get(p, c)).abs()).sum();
    k as f64 * f64::EPSILON * (1.0 + slack)
}

fn assert_within_fma_bound(
    simd: &DenseMatrix,
    scalar: &DenseMatrix,
    a: &DenseMatrix,
    b: &DenseMatrix,
    label: &str,
) {
    assert_eq!(simd.shape(), scalar.shape(), "{label}: shape mismatch");
    for r in 0..simd.rows() {
        for c in 0..simd.cols() {
            let (x, y) = (simd.get(r, c), scalar.get(r, c));
            let bound = fma_bound(a, b, r, c);
            assert!(
                (x - y).abs() <= bound,
                "{label} ({r},{c}): |{x} - {y}| > {bound}"
            );
        }
    }
}

/// Shapes whose products exceed the small-product cutoff (so the packed
/// kernels actually run) while straddling every tile boundary: m % mr ≠ 0
/// and n % nr ≠ 0 for every ISA's tile shape (mr ∈ {4, 8}, nr ∈ {4, 8}),
/// k ∈ {1, odd, KC-straddling} plus k = 0 via the zero-dimension test below.
const RAGGED_SHAPES: &[(usize, usize, usize)] = &[
    (33, 25, 85),  // m ≡ 1 (mod 4 and 8), n ≡ 1 (mod 4 and 8), odd k
    (34, 90, 27),  // k below a vector width away from tile edges
    (66, 1, 1023), // single output column, k crossing no KC boundary oddly
    (65, 300, 17), // crosses MC and KC
    (72, 64, 257), // exact tile multiples in m/n, k one past KC
    (41, 41, 41),  // everything odd
];

#[test]
fn simd_matmul_matches_scalar_within_fma_bound_on_ragged_tails() {
    let _guard = ISA_LOCK.lock().unwrap();
    for &(m, k, n) in RAGGED_SHAPES {
        let a = random_matrix(m, k, 100 + (m * 7 + k + n) as u64);
        let b = random_matrix(k, n, 200 + (m + k * 5 + n) as u64);
        let scalar = with_isa(Isa::Scalar, || a.matmul(&b).unwrap());
        for isa in simd_isas() {
            let simd = with_isa(isa, || a.matmul(&b).unwrap());
            assert_within_fma_bound(
                &simd,
                &scalar,
                &a,
                &b,
                &format!("{isa:?} matmul {m}x{k}x{n}"),
            );
        }
    }
}

#[test]
fn simd_product_variants_match_scalar_within_fma_bound() {
    let _guard = ISA_LOCK.lock().unwrap();
    let (m, d, n) = (45, 130, 37);
    let a = random_matrix(m, d, 7);
    let b = random_matrix(n, d, 8);
    let tall = random_matrix(d, m, 9);
    let rhs = random_matrix(d, n, 10);
    let scalar_mt = with_isa(Isa::Scalar, || a.matmul_transpose(&b).unwrap());
    let scalar_tm = with_isa(Isa::Scalar, || tall.transposed_matmul(&rhs).unwrap());
    let scalar_gram = with_isa(Isa::Scalar, || tall.gram());
    for isa in simd_isas() {
        let simd_mt = with_isa(isa, || a.matmul_transpose(&b).unwrap());
        assert_within_fma_bound(
            &simd_mt,
            &scalar_mt,
            &a,
            &b.transpose(),
            &format!("{isa:?} matmul_transpose"),
        );
        let simd_tm = with_isa(isa, || tall.transposed_matmul(&rhs).unwrap());
        assert_within_fma_bound(
            &simd_tm,
            &scalar_tm,
            &tall.transpose(),
            &rhs,
            &format!("{isa:?} transposed_matmul"),
        );
        let simd_gram = with_isa(isa, || tall.gram());
        assert_within_fma_bound(
            &simd_gram,
            &scalar_gram,
            &tall.transpose(),
            &tall,
            &format!("{isa:?} gram"),
        );
    }
}

#[test]
fn k_zero_and_k_one_products_are_identical_across_isas() {
    let _guard = ISA_LOCK.lock().unwrap();
    // k = 1 still runs the packed path when m·n is large enough; a single
    // multiply-add per element cannot differ between fused and unfused
    // rounding (one rounding each), so exact equality holds even for FMA.
    let a = random_matrix(300, 1, 11);
    let b = random_matrix(1, 300, 12);
    let scalar = with_isa(Isa::Scalar, || a.matmul(&b).unwrap());
    for isa in simd_isas() {
        let simd = with_isa(isa, || a.matmul(&b).unwrap());
        assert!(simd.approx_eq(&scalar, 0.0), "{isa:?} k=1 must be exact");
    }
    // k = 0: no multiply-adds at all — the zeroed output is ISA-independent.
    let empty_lhs = DenseMatrix::zeros(5, 0);
    let empty_rhs = DenseMatrix::zeros(0, 7);
    for isa in simd_isas() {
        let out = with_isa(isa, || empty_lhs.matmul(&empty_rhs).unwrap());
        assert_eq!(out.shape(), (5, 7));
        assert!(out.data().iter().all(|&v| v == 0.0), "{isa:?} k=0");
    }
}

#[test]
fn dispatched_axpy_is_bit_identical_to_scalar() {
    let _guard = ISA_LOCK.lock().unwrap();
    for n in [1usize, 7, 8, 63, 1000] {
        let x = random_matrix(1, n, 20 + n as u64).into_vec();
        let y0 = random_matrix(1, n, 30 + n as u64).into_vec();
        let mut scalar = y0.clone();
        with_isa(Isa::Scalar, || axpy(-0.73, &x, &mut scalar));
        for isa in simd_isas() {
            let mut simd = y0.clone();
            with_isa(isa, || axpy(-0.73, &x, &mut simd));
            assert_eq!(simd, scalar, "{isa:?} axpy n={n}");
        }
    }
}

#[test]
fn small_product_fast_path_is_isa_independent() {
    let _guard = ISA_LOCK.lock().unwrap();
    // Below the small-product cutoff the driver never dispatches, so every
    // ISA must produce literally the same bits.
    let a = random_matrix(9, 11, 40);
    let b = random_matrix(11, 13, 41);
    let scalar = with_isa(Isa::Scalar, || a.matmul(&b).unwrap());
    for isa in simd_isas() {
        let simd = with_isa(isa, || a.matmul(&b).unwrap());
        assert!(simd.approx_eq(&scalar, 0.0), "{isa:?} small product");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random ragged shapes big enough to reach the packed
    /// kernels, every supported SIMD ISA matches forced-scalar within the
    /// documented FMA bound.
    #[test]
    fn simd_matmul_matches_scalar_on_random_shapes(
        seed in 0u64..10_000,
        m in 20usize..70,
        k in 60usize..280,
        n in 20usize..70,
    ) {
        let _guard = ISA_LOCK.lock().unwrap();
        let a = random_matrix(m, k, seed);
        let b = random_matrix(k, n, seed.wrapping_add(1));
        let scalar = with_isa(Isa::Scalar, || a.matmul(&b).unwrap());
        for isa in simd_isas() {
            let simd = with_isa(isa, || a.matmul(&b).unwrap());
            for r in 0..m {
                for c in 0..n {
                    let (x, y) = (simd.get(r, c), scalar.get(r, c));
                    let bound = fma_bound(&a, &b, r, c);
                    prop_assert!(
                        (x - y).abs() <= bound,
                        "{:?} ({},{}) |{} - {}| > {}", isa, r, c, x, y, bound
                    );
                }
            }
        }
    }
}
