//! Chunk-count × ISA invariance of the parallel blocked LISI sweep.
//!
//! The multi-threaded sweep of `lisi_topk` partitions row blocks into
//! chunks and merges chunk-partial state in ascending chunk order; the
//! determinism contract says neither the chunk count nor the instruction set
//! may influence a single result bit.  This test cross-checks every chunk
//! split against the dense LISI path under both the machine's best ISA and
//! the forced-scalar kernels.
//!
//! It lives in its own integration-test binary because `force_isa` mutates
//! process-global kernel dispatch: as the only test here, nothing races the
//! override.

use htc_core::lisi::{lisi_matrix, lisi_topk, trusted_pairs, BlockedLisiScratch, SweepControl};
use htc_linalg::kernels::force_isa;
use htc_linalg::ops::row_argmax;
use htc_linalg::{DenseMatrix, Isa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_embedding(n: usize, d: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
    DenseMatrix::from_vec(n, d, data).unwrap()
}

/// All observable outputs of one sweep, with scores as raw bits: retained
/// top-k rows, row arg-maxes, trusted pairs.
type Fingerprint = (Vec<Vec<(usize, u64)>>, Vec<usize>, Vec<(usize, usize)>);

fn fingerprint(
    hs: &DenseMatrix,
    ht: &DenseMatrix,
    m: usize,
    k: usize,
    block: usize,
    chunks: usize,
    cache_bytes: usize,
) -> Fingerprint {
    let mut scratch = BlockedLisiScratch::new();
    let control = SweepControl {
        corr_cache_bytes: cache_bytes,
        chunks: Some(chunks),
        progress: None,
    };
    let blocked = lisi_topk(hs, ht, m, k, block, &mut scratch, &control).unwrap();
    let rows = (0..blocked.topk.rows())
        .map(|r| blocked.topk.row(r).map(|(c, v)| (c, v.to_bits())).collect())
        .collect();
    (rows, blocked.row_best().to_vec(), blocked.trusted_pairs())
}

#[test]
fn sweep_bits_survive_chunking_and_forced_scalar_isa() {
    let (ns, nt, d, m, k, block) = (34, 21, 5, 4, 6, 3);
    let hs = random_embedding(ns, d, 77);
    let ht = random_embedding(nt, d, 78);

    // Reference on the machine's best ISA: dense matrix, plus the
    // single-chunk sweep checked against it entry by entry.
    let dense = lisi_matrix(&hs, &ht, m);
    let native = fingerprint(&hs, &ht, m, k, block, 1, 0);
    for (r, row) in native.0.iter().enumerate() {
        for &(c, bits) in row {
            assert_eq!(bits, dense.get(r, c).to_bits(), "LISI({r},{c})");
        }
    }
    assert_eq!(native.1, row_argmax(&dense));
    assert_eq!(native.2, trusted_pairs(&dense));

    // Chunk counts and cache budgets never change a bit on the native ISA.
    for chunks in [2usize, 3, 7, 12] {
        for cache in [0usize, 1 << 14, usize::MAX] {
            assert_eq!(
                fingerprint(&hs, &ht, m, k, block, chunks, cache),
                native,
                "native ISA, chunks={chunks}, cache={cache}"
            );
        }
    }

    // Forced-scalar kernels reproduce the same bits for every chunk split —
    // the new combine-argmax / threshold-scan kernels are scalar-pinned just
    // like the GEMM and combine kernels before them.
    force_isa(Some(Isa::Scalar)).expect("scalar is always available");
    let result = std::panic::catch_unwind(|| {
        for chunks in [1usize, 3, 12] {
            assert_eq!(
                fingerprint(&hs, &ht, m, k, block, chunks, usize::MAX),
                native,
                "scalar ISA, chunks={chunks}"
            );
        }
    });
    force_isa(None).expect("clearing the override never fails");
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
}
