//! Criterion micro-benchmarks of the individual pipeline stages: edge-orbit
//! counting, orbit-Laplacian construction, sparse×dense propagation, one
//! training epoch, the LISI matrix and trusted-pair identification — plus
//! dense GEMM at 128/512/1024 comparing the blocked kernel against the
//! original (pre-blocking) row-parallel kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htc_core::laplacian::{orbit_laplacian, orbit_laplacians};
use htc_core::lisi::{lisi_matrix, trusted_pairs};
use htc_core::training::train_multi_orbit;
use htc_core::HtcConfig;
use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_graph::generators::{barabasi_albert, seeded_rng};
use htc_linalg::parallel::parallel_rows_mut;
use htc_linalg::DenseMatrix;
use htc_nn::{Activation, GcnEncoder};
use htc_orbits::{count_edge_orbits, GomSet, GomWeighting};
use rand::Rng;
use rand::SeedableRng;

fn bench_orbit_counting(c: &mut Criterion) {
    let mut group = c.benchmark_group("orbit_counting");
    group.sample_size(10);
    for &n in &[200usize, 500] {
        let mut rng = seeded_rng(1);
        let graph = barabasi_albert(n, 4, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &graph, |b, g| {
            b.iter(|| count_edge_orbits(g));
        });
    }
    group.finish();
}

fn bench_laplacian_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("orbit_laplacian");
    group.sample_size(10);
    let mut rng = seeded_rng(2);
    let graph = barabasi_albert(500, 4, &mut rng);
    let goms = GomSet::build(&graph, 13, GomWeighting::Weighted);
    group.bench_function("all_13_orbits_n500", |b| {
        b.iter(|| orbit_laplacians(&goms));
    });
    group.bench_function("single_orbit_n500", |b| {
        b.iter(|| orbit_laplacian(goms.orbit(0)));
    });
    group.finish();
}

fn bench_propagation(c: &mut Criterion) {
    let mut group = c.benchmark_group("gcn_propagation");
    group.sample_size(20);
    let mut rng = seeded_rng(3);
    let graph = barabasi_albert(1000, 5, &mut rng);
    let lap = orbit_laplacian(&graph.adjacency());
    let features_data: Vec<f64> = (0..1000 * 64).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let features = DenseMatrix::from_vec(1000, 64, features_data).unwrap();
    group.bench_function("spmm_n1000_d64", |b| {
        b.iter(|| lap.matmul_dense(&features).unwrap());
    });
    let mut enc_rng = rand::rngs::StdRng::seed_from_u64(4);
    let encoder = GcnEncoder::new(&[64, 64, 32], Activation::Tanh, &mut enc_rng);
    group.bench_function("two_layer_forward_n1000", |b| {
        b.iter(|| encoder.forward(&lap, &features).unwrap());
    });
    group.finish();
}

fn bench_training_epoch(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    let pair = generate_pair(&SyntheticPairConfig::tiny(150));
    let goms_s = GomSet::build(pair.source.graph(), 5, GomWeighting::Weighted);
    let goms_t = GomSet::build(pair.target.graph(), 5, GomWeighting::Weighted);
    let laps_s = orbit_laplacians(&goms_s);
    let laps_t = orbit_laplacians(&goms_t);
    let mut config = HtcConfig::fast();
    config.epochs = 1;
    group.bench_function("one_epoch_5_orbits_n150", |b| {
        b.iter(|| {
            train_multi_orbit(
                &laps_s,
                &laps_t,
                pair.source.attributes(),
                pair.target.attributes(),
                &config,
                &mut |_, _| true,
            )
            .unwrap()
        });
    });
    group.finish();
}

/// The dense matmul kernel as it existed before the blocked GEMM rewrite
/// (row-parallel, axpy inner loop, zero-skip).  Kept verbatim so the `gemm`
/// group measures the blocked kernel against the seed implementation.
fn seed_matmul(lhs: &DenseMatrix, rhs: &DenseMatrix) -> DenseMatrix {
    let (m, k, n) = (lhs.rows(), lhs.cols(), rhs.cols());
    assert_eq!(k, rhs.rows());
    let mut out = DenseMatrix::zeros(m, n);
    let lhs_data = lhs.data();
    let rhs_data = rhs.data();
    parallel_rows_mut(out.data_mut(), n.max(1), |start_row, chunk| {
        for (i, out_row) in chunk.chunks_mut(n.max(1)).enumerate() {
            let r = start_row + i;
            if r >= m || n == 0 {
                continue;
            }
            let lhs_row = &lhs_data[r * k..(r + 1) * k];
            for (p, &a) in lhs_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let rhs_row = &rhs_data[p * n..(p + 1) * n];
                for (out_v, &b) in out_row.iter_mut().zip(rhs_row) {
                    *out_v += a * b;
                }
            }
        }
    });
    out
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(rows, cols, data).unwrap()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(10);
    for &n in &[128usize, 512, 1024] {
        let a = random_matrix(n, n, 10 + n as u64);
        let b = random_matrix(n, n, 20 + n as u64);
        group.bench_with_input(BenchmarkId::new("blocked", n), &(a, b), |bch, (a, b)| {
            bch.iter(|| a.matmul(b).unwrap());
        });
    }
    for &n in &[128usize, 512, 1024] {
        let a = random_matrix(n, n, 10 + n as u64);
        let b = random_matrix(n, n, 20 + n as u64);
        group.bench_with_input(
            BenchmarkId::new("seed_kernel", n),
            &(a, b),
            |bch, (a, b)| {
                bch.iter(|| seed_matmul(a, b));
            },
        );
    }
    for &n in &[128usize, 512, 1024] {
        let a = random_matrix(n, 64, 30 + n as u64);
        let b = random_matrix(n, 64, 40 + n as u64);
        group.bench_with_input(
            BenchmarkId::new("matmul_transpose_d64", n),
            &(a, b),
            |bch, (a, b)| {
                bch.iter(|| a.matmul_transpose(b).unwrap());
            },
        );
    }
    group.finish();
}

/// Square matmul at 128/512/1024 under every ISA this host can execute, so
/// one bench run yields the per-ISA GFLOP/s table recorded in
/// PERFORMANCE.md.  Benches run sequentially in one process, so forcing the
/// global dispatch around each measurement is race-free; the default
/// decision is restored afterwards.
fn bench_gemm_per_isa(c: &mut Criterion) {
    use htc_linalg::kernels::{self, Isa};
    let mut group = c.benchmark_group("gemm_isa");
    group.sample_size(10);
    for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512, Isa::Neon] {
        if !isa.supported() {
            continue;
        }
        for &n in &[128usize, 512, 1024] {
            let a = random_matrix(n, n, 10 + n as u64);
            let b = random_matrix(n, n, 20 + n as u64);
            kernels::force_isa(Some(isa)).expect("supported() checked above");
            group.bench_with_input(BenchmarkId::new(isa.name(), n), &(a, b), |bch, (a, b)| {
                bch.iter(|| a.matmul(b).unwrap());
            });
            kernels::force_isa(None).unwrap();
        }
    }
    group.finish();
}

fn bench_lisi(c: &mut Criterion) {
    let mut group = c.benchmark_group("lisi");
    group.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    for &n in &[128usize, 512, 1024] {
        let hs_data: Vec<f64> = (0..n * 64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ht_data: Vec<f64> = (0..n * 64).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let hs = DenseMatrix::from_vec(n, 64, hs_data).unwrap();
        let ht = DenseMatrix::from_vec(n, 64, ht_data).unwrap();
        group.bench_with_input(
            BenchmarkId::new("lisi_matrix", n),
            &(hs, ht),
            |b, (hs, ht)| {
                b.iter(|| lisi_matrix(hs, ht, 20));
            },
        );
    }
    let hs = DenseMatrix::from_vec(
        400,
        32,
        (0..400 * 32).map(|i| (i % 97) as f64 * 0.01).collect(),
    )
    .unwrap();
    let lisi = lisi_matrix(&hs, &hs, 20);
    group.bench_function("trusted_pairs_400x400", |b| {
        b.iter(|| trusted_pairs(&lisi));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_orbit_counting,
    bench_laplacian_construction,
    bench_propagation,
    bench_training_epoch,
    bench_gemm,
    bench_gemm_per_isa,
    bench_lisi
);
criterion_main!(benches);
