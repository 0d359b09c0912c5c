//! The locally isolated similarity index (LISI, Eq. 9–11) and trusted pairs
//! (Eq. 12).
//!
//! Raw nearest-neighbour matching over embeddings suffers from the *hubness*
//! problem: a few target embeddings become the nearest neighbour of a large
//! fraction of source embeddings.  LISI corrects the Pearson correlation of a
//! pair by subtracting both nodes' mean similarity to their `m` nearest
//! cross-graph neighbours, preferring pairs that are similar to each other
//! *and* locally isolated:
//!
//! ```text
//! LISI(h_s, h_t) = 2·corr(h_s, h_t) − D_t(h_s) − D_s(h_t)
//! ```
//!
//! A *trusted pair* is a pair that are mutually each other's LISI arg-max.
//!
//! Two evaluations exist.  [`lisi_topk`] is the blocked, chunk-parallel
//! sweep: it never materialises the `n_s × n_t` matrix, tracks the exact
//! row/column arg-maxes (hence trusted pairs) and retains the top-k
//! candidates per row.  It is the only engine inside trusted-pair
//! fine-tuning, in every scale tier.  [`lisi_matrix`] materialises the full
//! matrix; dense-tier integration needs it for each orbit's full ranking,
//! and the tests use it as the reference the sweep must reproduce bit for
//! bit.

use crate::error::HtcError;
use crate::topk::{TopKRows, TopKRowsBuilder};
use htc_linalg::ops::{
    col_top_k_means, mutual_argmax_pairs, pearson_normalize_rows, row_top_k_means, top_k_gate,
    top_k_mean, top_k_mean_finish, top_k_push,
};
use htc_linalg::parallel::parallel_scratch_map;
use htc_linalg::DenseMatrix;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Full Pearson-correlation matrix between the rows of `source` and `target`.
///
/// Rows are mean-centred and ℓ₂-normalised first, so the correlation matrix is
/// a single `n_s × n_t` mat-mul.
pub fn correlation_matrix(source: &DenseMatrix, target: &DenseMatrix) -> DenseMatrix {
    let mut norm_source = source.clone();
    let mut norm_target = target.clone();
    pearson_normalize_rows(&mut norm_source);
    pearson_normalize_rows(&mut norm_target);
    norm_source
        .matmul_transpose(&norm_target)
        .expect("embedding dimensions match because the encoder is shared")
}

/// Computes the dense LISI score matrix (Eq. 11) from two embedding
/// matrices — the full ranking dense-tier integration consumes, and the
/// reference the blocked sweep ([`lisi_topk`]) is tested against.
///
/// `m` is the neighbourhood size used by the hubness terms (Eq. 10).
pub fn lisi_matrix(source: &DenseMatrix, target: &DenseMatrix, m: usize) -> DenseMatrix {
    lisi_from_correlation(&correlation_matrix(source, target), m)
}

/// Computes LISI given an already-materialised correlation matrix.  The
/// scale-by-2 and hubness-subtraction passes are fused into a single
/// traversal of the correlation matrix; the per-row sweep is the
/// ISA-dispatched `lisi_combine_argmax` kernel from `htc_linalg::kernels`
/// (explicit SIMD where supported, bit-identical to the scalar loop on every
/// ISA) — the blocked sweep's kernel, its arg-max index unused here.
pub fn lisi_from_correlation(corr: &DenseMatrix, m: usize) -> DenseMatrix {
    let m = m.max(1);
    // D_t(h_s): mean similarity of each source node to its m nearest targets.
    let hub_source = row_top_k_means(corr, m);
    // D_s(h_t): mean similarity of each target node to its m nearest sources.
    let hub_target = col_top_k_means(corr, m);
    let mut out = DenseMatrix::zeros(corr.rows(), corr.cols());
    let combine = htc_linalg::kernels::active().lisi_combine_argmax;
    for (r, &penalty_r) in hub_source.iter().enumerate() {
        combine(corr.row(r), &hub_target, penalty_r, out.row_mut(r));
    }
    out
}

/// Identifies trusted pairs: mutual arg-maxes of the LISI matrix (Eq. 12).
pub fn trusted_pairs(lisi: &DenseMatrix) -> Vec<(usize, usize)> {
    mutual_argmax_pairs(lisi)
}

/// Controls the chunk-parallel blocked sweep of [`lisi_topk`]:
/// correlation-block caching budget, an explicit chunk-count override, and a
/// cooperative progress / cancellation callback.
#[derive(Default)]
pub struct SweepControl<'a> {
    /// Byte budget for caching pass-1 correlation blocks so pass 2 can skip
    /// their GEMMs (split evenly across chunks, filled greedily from each
    /// chunk's first block).  `0` disables the cache: pass 2 recomputes every
    /// block, keeping peak memory at one block per chunk.
    pub corr_cache_bytes: usize,
    /// Explicit number of parallel chunks.  `None` uses one chunk per worker
    /// thread ([`htc_linalg::parallel::num_threads`]).  Results are
    /// bit-identical for every chunk count — this override exists so tests
    /// can force multi-chunk merges on single-core machines.
    pub chunks: Option<usize>,
    /// Invoked after every processed block with `(blocks_done, total_blocks)`
    /// (both passes counted).  Returning `false` cancels the sweep
    /// cooperatively: in-flight blocks finish, no further blocks start, and
    /// [`lisi_topk`] returns [`HtcError::Cancelled`].
    pub progress: Option<&'a (dyn Fn(usize, usize) -> bool + Sync)>,
}

/// Work counters of one blocked sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Row blocks per pass.
    pub blocks: usize,
    /// Blocks whose pass-1 correlation was cached and reused by pass 2.
    pub cached_blocks: usize,
}

impl SweepStats {
    /// Adds another sweep's totals into this one (per-iteration
    /// accumulation in the fine-tuning loop).
    pub fn accumulate(&mut self, other: &SweepStats) {
        self.blocks += other.blocks;
        self.cached_blocks += other.cached_blocks;
    }
}

/// Result of a blocked LISI evaluation: the retained top-k candidates plus
/// the *exact* full-width row/column arg-maxes (tracked during the streaming
/// pass, so trusted pairs need no dense matrix).
#[derive(Debug, Clone)]
pub struct BlockedLisi {
    /// Top-k retained LISI candidates per source row.
    pub topk: TopKRows,
    /// Block counters of the sweep that produced this.
    pub stats: SweepStats,
    /// Exact arg-max of every (conceptual) LISI row.
    row_best: Vec<usize>,
    /// Exact arg-max of every (conceptual) LISI column.
    col_best: Vec<usize>,
}

impl BlockedLisi {
    /// Trusted pairs (Eq. 12): mutual arg-maxes, in row order — identical to
    /// [`trusted_pairs`] on the dense LISI matrix, because the streaming pass
    /// tracks the exact full-width arg-maxes (not just the retained set).
    pub fn trusted_pairs(&self) -> Vec<(usize, usize)> {
        self.row_best
            .iter()
            .enumerate()
            .filter(|&(s, &t)| self.col_best.get(t) == Some(&s))
            .map(|(s, &t)| (s, t))
            .collect()
    }

    /// Exact arg-max per source row.
    pub fn row_best(&self) -> &[usize] {
        &self.row_best
    }
}

/// Per-chunk working state of the parallel blocked sweep.  Each chunk owns a
/// contiguous ascending range of row blocks and touches nothing outside this
/// struct while a pass runs, so chunks need no locking; the partial column
/// state is merged sequentially, in ascending chunk order, between and after
/// the passes.
#[derive(Debug, Clone, Default)]
struct ChunkScratch {
    /// Normalised source rows of each of the chunk's blocks, staged in pass 1
    /// and reused by pass 2 (sweep fusion: the copy happens once).
    source_blocks: Vec<DenseMatrix>,
    /// Pass-1 correlation blocks retained for pass 2 where the
    /// [`SweepControl::corr_cache_bytes`] budget allows.
    corr_blocks: Vec<DenseMatrix>,
    /// Which of the chunk's blocks have a cached correlation.
    corr_cached: Vec<bool>,
    /// Fallback `block_rows × n_t` correlation block for uncached blocks.
    corr_block: DenseMatrix,
    /// One fully materialised LISI row (the combine kernel's output).
    lisi_row: Vec<f64>,
    /// Candidate-index scratch for the vectorised threshold scans.
    idx: Vec<u32>,
    /// Chunk-partial per-column selection buffers for `D_s(h_t)` (Eq. 10).
    col_top: Vec<Vec<f64>>,
    /// Running k-th value per column: the exact threshold below which
    /// `top_k_push` would reject, hoisted out so a vectorised scan can skip
    /// the heap machinery for entries that cannot enter.
    col_gate: Vec<f64>,
    /// `D_t(h_s)` for the chunk's own rows (chunk-local indexing).
    hub_rows: Vec<f64>,
    /// Chunk-partial per-column arg-max value / row while streaming pass 2.
    col_best_val: Vec<f64>,
    col_best_row: Vec<usize>,
}

/// Reusable buffers for the blocked LISI path: normalised embedding copies
/// plus one `ChunkScratch` per parallel chunk.
#[derive(Debug, Clone, Default)]
pub struct BlockedLisiScratch {
    norm_source: DenseMatrix,
    norm_target: DenseMatrix,
    chunks: Vec<ChunkScratch>,
    /// Merged `D_s(h_t)` (Eq. 10) over all chunks.
    hub_target: Vec<f64>,
    /// Selection buffer for the sequential per-column hubness merge.
    merge_buf: Vec<f64>,
}

impl BlockedLisiScratch {
    /// Creates empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Picks the row-block height for a blocked LISI evaluation: large enough to
/// keep the GEMM efficient, small enough that one `block × n_t` correlation
/// block stays around 8 MB.
pub fn default_block_rows(target_nodes: usize) -> usize {
    ((1 << 20) / target_nodes.max(1)).clamp(16, 4096)
}

/// Blocked, top-k-retaining LISI evaluation (Eq. 9–11) — the similarity
/// engine of trusted-pair fine-tuning in every scale tier.  Never
/// materialises the `n_s × n_t` matrix: peak additional memory is one
/// `block_rows × n_t` correlation block per chunk (plus whatever pass-1
/// blocks [`SweepControl::corr_cache_bytes`] lets it keep) and O(n_t · m) of
/// per-column hubness state.
///
/// The result is **bit-identical** to the dense [`lisi_matrix`] wherever the
/// two overlap: every retained score equals the corresponding dense LISI
/// entry bit-for-bit, and the row/column arg-maxes (hence trusted pairs)
/// match exactly.  This holds because each correlation block is the same
/// GEMM (identical per-element accumulation order) on the same normalised
/// rows, the per-column hubness statistic replays the dense `top_k_mean`
/// insertion sequence via [`top_k_push`], and the per-row combine is the
/// very kernel dense scoring calls, the ISA-dispatched `lisi_combine_argmax`.
///
/// Two passes over the correlation blocks are required — the hubness terms
/// need global column statistics before any LISI value can be finalised.
/// The row blocks are partitioned into contiguous ascending chunks — one per
/// worker thread unless [`SweepControl::chunks`] overrides — and both passes
/// fan the chunks across the persistent thread pool.  Each chunk streams its
/// own blocks with purely chunk-local state:
///
/// * **pass 1** accumulates chunk-partial per-column top-`m` buffers behind a
///   running k-th-value gate (`scan_gt` emits only candidates the buffer
///   could accept — the gate is exactly `top_k_push`'s own rejection test,
///   so gated-out values provably leave the buffer unchanged);
/// * the chunk buffers are then **merged sequentially in ascending chunk
///   order** by replaying them through [`top_k_push`]: the merged buffer
///   holds the global top-`col_k` multiset of each column sorted ascending —
///   exactly the dense path's buffer — so the summed mean is bit-identical;
/// * **pass 2** recombines each block (reusing pass-1 correlations where the
///   cache budget allowed), tracks chunk-partial row/column arg-maxes with
///   the fused `lisi_combine_argmax` kernel, and feeds rows to a chunk-local
///   [`TopKRowsBuilder`]; builders and column maxima are again merged in
///   ascending chunk order (strict `>`, so the lower row index wins ties,
///   like the dense arg-max).
///
/// Chunk boundaries therefore never influence a result bit: the output is
/// identical across `HTC_NUM_THREADS`, chunk-count overrides, and the dense
/// path wherever they overlap (test-enforced).
pub fn lisi_topk(
    source: &DenseMatrix,
    target: &DenseMatrix,
    m: usize,
    k: usize,
    block_rows: usize,
    scratch: &mut BlockedLisiScratch,
    control: &SweepControl<'_>,
) -> crate::Result<BlockedLisi> {
    let m = m.max(1);
    let block_rows = block_rows.max(1);
    let (n_s, n_t) = (source.rows(), target.rows());

    let BlockedLisiScratch {
        norm_source,
        norm_target,
        chunks,
        hub_target,
        merge_buf,
    } = scratch;

    norm_source.copy_from(source);
    norm_target.copy_from(target);
    pearson_normalize_rows(norm_source);
    pearson_normalize_rows(norm_target);
    let norm_source = &*norm_source;
    let norm_target = &*norm_target;

    let num_blocks = n_s.div_ceil(block_rows);
    let mut stats = SweepStats {
        blocks: num_blocks,
        ..SweepStats::default()
    };
    if num_blocks == 0 {
        return Ok(BlockedLisi {
            topk: TopKRowsBuilder::new(n_t, k).finish(),
            stats,
            row_best: Vec::new(),
            col_best: vec![0; n_t],
        });
    }

    let num_chunks = control
        .chunks
        .unwrap_or_else(htc_linalg::parallel::num_threads)
        .clamp(1, num_blocks);
    chunks.resize_with(num_chunks, ChunkScratch::default);

    // Contiguous ascending block ranges, one per chunk: the merge order (and
    // with it every tie-break) is a function of the partition alone, never of
    // which thread finishes first.
    let mut plan = Vec::with_capacity(num_chunks);
    {
        let (base, rem) = (num_blocks / num_chunks, num_blocks % num_chunks);
        let mut b0 = 0;
        for i in 0..num_chunks {
            let b1 = b0 + base + usize::from(i < rem);
            plan.push((b0, b1));
            b0 = b1;
        }
    }

    let col_k = m.min(n_s.max(1));
    let chunk_cache_budget = control.corr_cache_bytes / num_chunks;
    let cancelled = AtomicBool::new(false);
    let blocks_done = AtomicUsize::new(0);
    let total_ticks = 2 * num_blocks;
    let tick = |_: ()| {
        let done = blocks_done.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(progress) = control.progress {
            if !progress(done, total_ticks) {
                cancelled.store(true, Ordering::Relaxed);
            }
        }
    };

    // Pass 1: per-row hubness D_t(h_s) directly; chunk-partial per-column
    // top-k buffers for D_s(h_t), threshold-gated.
    let pass1 = parallel_scratch_map(chunks.as_mut_slice(), |ci, cs: &mut ChunkScratch| {
        let (b_lo, b_hi) = plan[ci];
        let chunk_r0 = b_lo * block_rows;
        let chunk_rows = (b_hi * block_rows).min(n_s) - chunk_r0;
        let n_local = b_hi - b_lo;
        let ChunkScratch {
            source_blocks,
            corr_blocks,
            corr_cached,
            corr_block,
            idx,
            col_top,
            col_gate,
            hub_rows,
            ..
        } = cs;
        source_blocks.resize_with(n_local, DenseMatrix::default);
        corr_blocks.resize_with(n_local, DenseMatrix::default);
        corr_cached.clear();
        corr_cached.resize(n_local, false);
        col_top.resize_with(n_t, Vec::new);
        for buf in col_top.iter_mut() {
            buf.clear();
            buf.reserve(col_k + 1);
        }
        col_gate.clear();
        col_gate.resize(n_t, f64::NEG_INFINITY);
        hub_rows.clear();
        hub_rows.resize(chunk_rows, 0.0);
        idx.resize(n_t, 0);
        let scan_gt = htc_linalg::kernels::active().scan_gt;
        let d = norm_source.cols();
        let (mut cached, mut cache_used) = (0usize, 0usize);
        for (local_b, b) in (b_lo..b_hi).enumerate() {
            if cancelled.load(Ordering::Relaxed) {
                break;
            }
            let r0 = b * block_rows;
            let r1 = (r0 + block_rows).min(n_s);
            let src = &mut source_blocks[local_b];
            src.resize_for_overwrite(r1 - r0, d);
            for (i, r) in (r0..r1).enumerate() {
                src.row_mut(i).copy_from_slice(norm_source.row(r));
            }
            let block_bytes = (r1 - r0) * n_t * std::mem::size_of::<f64>();
            let out = if cache_used + block_bytes <= chunk_cache_budget {
                cache_used += block_bytes;
                cached += 1;
                corr_cached[local_b] = true;
                &mut corr_blocks[local_b]
            } else {
                &mut *corr_block
            };
            src.matmul_transpose_into(norm_target, out)
                .expect("embedding dimensions match because the encoder is shared");
            for (i, r) in (r0..r1).enumerate() {
                let row = out.row(i);
                hub_rows[r - chunk_r0] = top_k_mean(row, m);
                // `row[c] > col_gate[c]` is exactly the rejection test
                // `top_k_push` itself applies once the buffer is full (and
                // `-inf` while filling), hoisted into one vectorised scan.
                let hits = scan_gt(row, col_gate, idx);
                for &c in &idx[..hits] {
                    let c = c as usize;
                    top_k_push(&mut col_top[c], col_k, row[c]);
                    col_gate[c] = top_k_gate(&col_top[c], col_k);
                }
            }
            tick(());
        }
        cached
    });
    stats.cached_blocks = pass1.into_iter().sum();
    if cancelled.load(Ordering::Relaxed) {
        return Err(HtcError::Cancelled);
    }

    // Sequential hubness merge: replay every chunk's column buffer through
    // `top_k_push` in ascending chunk order.  The merged buffer is the
    // column's global top-`col_k` multiset sorted ascending — identical to
    // the dense path's buffer — so the summed mean matches bit-for-bit.
    hub_target.clear();
    if num_chunks == 1 {
        hub_target.extend(
            chunks[0]
                .col_top
                .iter()
                .map(|buf| top_k_mean_finish(buf, col_k)),
        );
    } else {
        hub_target.reserve(n_t);
        for c in 0..n_t {
            merge_buf.clear();
            for cs in chunks.iter() {
                for &v in &cs.col_top[c] {
                    top_k_push(merge_buf, col_k, v);
                }
            }
            hub_target.push(top_k_mean_finish(merge_buf, col_k));
        }
    }
    let hub_target: &[f64] = hub_target;

    // Pass 2: recombine each block (cached correlations skip the GEMM),
    // track chunk-partial row/column arg-maxes, retain top-k per row.
    let pass2 = parallel_scratch_map(chunks.as_mut_slice(), |ci, cs: &mut ChunkScratch| {
        let (b_lo, b_hi) = plan[ci];
        let chunk_r0 = b_lo * block_rows;
        let chunk_rows = (b_hi * block_rows).min(n_s) - chunk_r0;
        let ChunkScratch {
            source_blocks,
            corr_blocks,
            corr_cached,
            corr_block,
            lisi_row,
            idx,
            hub_rows,
            col_best_val,
            col_best_row,
            ..
        } = cs;
        lisi_row.resize(n_t, 0.0);
        idx.resize(n_t, 0);
        col_best_val.clear();
        col_best_val.resize(n_t, f64::NEG_INFINITY);
        col_best_row.clear();
        col_best_row.resize(n_t, 0);
        let kernels = htc_linalg::kernels::active();
        let mut row_best = vec![0usize; chunk_rows];
        let mut builder = TopKRowsBuilder::new(n_t, k);
        for (local_b, b) in (b_lo..b_hi).enumerate() {
            if cancelled.load(Ordering::Relaxed) {
                return None;
            }
            let r0 = b * block_rows;
            let r1 = (r0 + block_rows).min(n_s);
            if !corr_cached[local_b] {
                source_blocks[local_b]
                    .matmul_transpose_into(norm_target, corr_block)
                    .expect("embedding dimensions match because the encoder is shared");
            }
            let corr: &DenseMatrix = if corr_cached[local_b] {
                &corr_blocks[local_b]
            } else {
                corr_block
            };
            for (i, r) in (r0..r1).enumerate() {
                let local_r = r - chunk_r0;
                row_best[local_r] = (kernels.lisi_combine_argmax)(
                    corr.row(i),
                    hub_target,
                    hub_rows[local_r],
                    lisi_row,
                );
                // Column arg-max: strict `>` with ascending row order inside
                // the chunk replicates the dense tie-break (lower row wins).
                let hits = (kernels.scan_gt)(lisi_row, col_best_val, idx);
                for &c in &idx[..hits] {
                    let c = c as usize;
                    col_best_val[c] = lisi_row[c];
                    col_best_row[c] = r;
                }
                builder.push_row(lisi_row);
            }
            tick(());
        }
        Some((row_best, builder))
    });

    // Merge in ascending chunk order: row arg-maxes and builders concatenate;
    // column arg-maxes keep the earlier (lower-row) chunk on exact ties.
    let mut row_best = Vec::with_capacity(n_s);
    let mut builder = TopKRowsBuilder::new(n_t, k);
    for slot in pass2 {
        let Some((chunk_best, chunk_builder)) = slot else {
            return Err(HtcError::Cancelled);
        };
        row_best.extend(chunk_best);
        builder.append(&chunk_builder);
    }
    if cancelled.load(Ordering::Relaxed) {
        return Err(HtcError::Cancelled);
    }
    let mut col_best = vec![0usize; n_t];
    let mut col_val = vec![f64::NEG_INFINITY; n_t];
    for cs in chunks.iter() {
        for c in 0..n_t {
            if cs.col_best_val[c] > col_val[c] {
                col_val[c] = cs.col_best_val[c];
                col_best[c] = cs.col_best_row[c];
            }
        }
    }

    Ok(BlockedLisi {
        topk: builder.finish(),
        stats,
        row_best,
        col_best,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_embedding(n: usize, d: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * d).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(n, d, data).unwrap()
    }

    #[test]
    fn correlation_of_identical_embeddings_is_one_on_diagonal() {
        let h = random_embedding(6, 5, 1);
        let corr = correlation_matrix(&h, &h);
        for i in 0..6 {
            assert!((corr.get(i, i) - 1.0).abs() < 1e-9);
        }
        // All correlations are bounded by 1 in magnitude.
        assert!(corr.max_abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn identical_embeddings_recover_identity_pairs() {
        let h = random_embedding(8, 6, 2);
        let lisi = lisi_matrix(&h, &h, 3);
        let pairs = trusted_pairs(&lisi);
        // Every node should be matched to itself.
        assert_eq!(pairs.len(), 8);
        for (s, t) in pairs {
            assert_eq!(s, t);
        }
    }

    #[test]
    fn lisi_penalises_hubs() {
        // Build a target set where one embedding (the "hub") is close to every
        // source embedding while individual matches are slightly better.
        let source = DenseMatrix::from_rows(&[vec![1.0, 0.05, 0.0], vec![0.05, 1.0, 0.0]]).unwrap();
        let hubby_target = DenseMatrix::from_rows(&[
            vec![1.0, 0.1, 0.0], // good match for source 0
            vec![0.1, 1.0, 0.0], // good match for source 1
            vec![0.6, 0.6, 0.1], // hub: decently close to both
        ])
        .unwrap();
        let corr = correlation_matrix(&source, &hubby_target);
        let lisi = lisi_from_correlation(&corr, 2);
        // With LISI, the hub column is penalised relative to the true matches.
        let pairs = trusted_pairs(&lisi);
        assert!(pairs.contains(&(0, 0)));
        assert!(pairs.contains(&(1, 1)));
    }

    #[test]
    fn trusted_pairs_are_mutual() {
        let hs = random_embedding(10, 4, 3);
        let ht = random_embedding(12, 4, 4);
        let lisi = lisi_matrix(&hs, &ht, 3);
        for (s, t) in trusted_pairs(&lisi) {
            // t is the argmax of row s …
            let row = lisi.row(s);
            assert!(row.iter().all(|&v| v <= row[t] + 1e-12));
            // … and s is the argmax of column t.
            let col = lisi.column(t);
            assert!(col.iter().all(|&v| v <= col[s] + 1e-12));
        }
    }

    #[test]
    fn rectangular_shapes_are_supported() {
        let hs = random_embedding(5, 4, 5);
        let ht = random_embedding(9, 4, 6);
        let lisi = lisi_matrix(&hs, &ht, 4);
        assert_eq!(lisi.shape(), (5, 9));
        assert!(trusted_pairs(&lisi).len() <= 5);
    }

    #[test]
    fn blocked_lisi_matches_dense_bit_for_bit() {
        let hs = random_embedding(23, 5, 11);
        let ht = random_embedding(17, 5, 12);
        let m = 4;
        let dense = lisi_matrix(&hs, &ht, m);
        let mut scratch = BlockedLisiScratch::new();
        // k >= n_t: every candidate retained, so the blocked artifact must
        // reproduce the dense matrix exactly — including across an uneven
        // block split (7 does not divide 23).
        let blocked =
            lisi_topk(&hs, &ht, m, 17, 7, &mut scratch, &SweepControl::default()).unwrap();
        assert_eq!(blocked.topk.shape(), dense.shape());
        for r in 0..23 {
            for (c, v) in blocked.topk.row(r) {
                assert_eq!(
                    v.to_bits(),
                    dense.get(r, c).to_bits(),
                    "LISI({r},{c}) differs between blocked and dense"
                );
            }
        }
        assert_eq!(
            blocked.topk.best_per_row(),
            htc_linalg::ops::row_argmax(&dense)
        );
        assert_eq!(blocked.trusted_pairs(), trusted_pairs(&dense));
    }

    #[test]
    fn blocked_lisi_small_k_retains_exact_scores_and_argmax() {
        let hs = random_embedding(15, 4, 21);
        let ht = random_embedding(40, 4, 22);
        let dense = lisi_matrix(&hs, &ht, 3);
        let mut scratch = BlockedLisiScratch::new();
        let blocked = lisi_topk(&hs, &ht, 3, 5, 4, &mut scratch, &SweepControl::default()).unwrap();
        // Retention truncates the candidate *set*, never perturbs a score,
        // and the tracked arg-maxes stay exact (full-width).
        for r in 0..15 {
            assert_eq!(blocked.topk.row(r).count(), 5);
            for (c, v) in blocked.topk.row(r) {
                assert_eq!(v.to_bits(), dense.get(r, c).to_bits());
            }
        }
        assert_eq!(
            blocked.topk.best_per_row(),
            htc_linalg::ops::row_argmax(&dense)
        );
        assert_eq!(blocked.trusted_pairs(), trusted_pairs(&dense));
    }

    /// Retained candidates (scores as raw bits), row arg-maxes and trusted
    /// pairs of a blocked run, flattened for exact comparison across sweep
    /// configurations.
    type SweepFingerprint = (
        Vec<(usize, Vec<(usize, u64)>)>,
        Vec<usize>,
        Vec<(usize, usize)>,
    );

    fn sweep_fingerprint(b: &BlockedLisi) -> SweepFingerprint {
        let rows = (0..b.topk.rows())
            .map(|r| (r, b.topk.row(r).map(|(c, v)| (c, v.to_bits())).collect()))
            .collect();
        (rows, b.row_best().to_vec(), b.trusted_pairs())
    }

    #[test]
    fn chunked_sweep_is_invariant_to_chunk_count_and_cache() {
        // The determinism contract of `lisi_topk`: chunk partitioning
        // and correlation caching are pure execution strategies — every
        // combination must produce the same bits.  Block height 3 over 26
        // rows gives 9 blocks, so chunk counts 2/3/5 all split unevenly.
        let hs = random_embedding(26, 5, 31);
        let ht = random_embedding(19, 5, 32);
        let mut scratch = BlockedLisiScratch::new();
        let reference =
            lisi_topk(&hs, &ht, 3, 6, 3, &mut scratch, &SweepControl::default()).unwrap();
        let reference = sweep_fingerprint(&reference);
        for chunks in [1usize, 2, 3, 5, 9] {
            for cache_bytes in [0usize, 4096, usize::MAX] {
                let control = SweepControl {
                    corr_cache_bytes: cache_bytes,
                    chunks: Some(chunks),
                    progress: None,
                };
                let got = lisi_topk(&hs, &ht, 3, 6, 3, &mut scratch, &control).unwrap();
                assert_eq!(
                    sweep_fingerprint(&got),
                    reference,
                    "chunks={chunks} cache={cache_bytes}"
                );
                if cache_bytes == usize::MAX {
                    assert_eq!(got.stats.cached_blocks, got.stats.blocks);
                }
            }
        }
    }

    #[test]
    fn sweep_progress_reports_blocks_and_cancellation_aborts() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hs = random_embedding(20, 4, 41);
        let ht = random_embedding(10, 4, 42);
        let mut scratch = BlockedLisiScratch::new();
        // 20 rows / block height 4 = 5 blocks → 10 ticks over both passes.
        let ticks = AtomicUsize::new(0);
        let observe = |done: usize, total: usize| {
            assert_eq!(total, 10);
            assert!(done >= 1 && done <= total);
            ticks.fetch_add(1, Ordering::Relaxed);
            true
        };
        let control = SweepControl {
            corr_cache_bytes: 0,
            chunks: Some(2),
            progress: Some(&observe),
        };
        lisi_topk(&hs, &ht, 2, 5, 4, &mut scratch, &control).unwrap();
        assert_eq!(ticks.load(Ordering::Relaxed), 10);

        // Cancelling after the third tick aborts with HtcError::Cancelled.
        let seen = AtomicUsize::new(0);
        let cancel_after_3 =
            |_done: usize, _total: usize| seen.fetch_add(1, Ordering::Relaxed) + 1 < 3;
        let control = SweepControl {
            corr_cache_bytes: 0,
            chunks: Some(2),
            progress: Some(&cancel_after_3),
        };
        let err = lisi_topk(&hs, &ht, 2, 5, 4, &mut scratch, &control).unwrap_err();
        assert!(matches!(err, crate::error::HtcError::Cancelled));
        // Cancellation is cooperative at block granularity: no further
        // blocks start, so the observer fires at most once more per chunk.
        assert!(seen.load(Ordering::Relaxed) < 10);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Property (the blocked-equals-dense contract): for k ≥ n_t the
        /// blocked top-k path reproduces the dense LISI matrix bit-for-bit —
        /// same values, same per-row arg-maxes, same trusted pairs — for any
        /// block height.
        #[test]
        fn blocked_topk_equals_dense_argmax_path(
            seed in 0u64..500, ns in 1usize..12, nt in 1usize..12,
            d in 2usize..6, m in 1usize..6, block in 1usize..14,
            chunks in 1usize..5, cache_mb in 0usize..2
        ) {
            let hs = random_embedding(ns, d, seed);
            let ht = random_embedding(nt, d, seed.wrapping_add(13));
            let dense = lisi_matrix(&hs, &ht, m);
            let mut scratch = BlockedLisiScratch::new();
            let control = SweepControl {
                corr_cache_bytes: cache_mb << 20,
                chunks: Some(chunks),
                progress: None,
            };
            let blocked = lisi_topk(&hs, &ht, m, nt, block, &mut scratch, &control).unwrap();
            prop_assert_eq!(blocked.topk.num_candidates(), ns * nt);
            for r in 0..ns {
                for (c, v) in blocked.topk.row(r) {
                    prop_assert_eq!(v.to_bits(), dense.get(r, c).to_bits());
                }
            }
            prop_assert_eq!(blocked.topk.best_per_row(), htc_linalg::ops::row_argmax(&dense));
            prop_assert_eq!(blocked.trusted_pairs(), trusted_pairs(&dense));
        }

        /// Property: the number of trusted pairs never exceeds min(n_s, n_t)
        /// and each node appears in at most one pair.
        #[test]
        fn trusted_pairs_form_partial_matching(seed in 0u64..500, ns in 2usize..10, nt in 2usize..10, d in 2usize..6) {
            let hs = random_embedding(ns, d, seed);
            let ht = random_embedding(nt, d, seed.wrapping_add(1));
            let lisi = lisi_matrix(&hs, &ht, 3);
            let pairs = trusted_pairs(&lisi);
            prop_assert!(pairs.len() <= ns.min(nt));
            let mut sources: Vec<usize> = pairs.iter().map(|p| p.0).collect();
            let mut targets: Vec<usize> = pairs.iter().map(|p| p.1).collect();
            sources.dedup();
            targets.sort_unstable();
            targets.dedup();
            prop_assert_eq!(sources.len(), pairs.len());
            prop_assert_eq!(targets.len(), pairs.len());
        }

        /// Property: LISI values stay within [-4, 4] for normalised inputs
        /// (correlations are in [-1, 1], so 2·corr − D_t − D_s ∈ [-4, 4]).
        #[test]
        fn lisi_values_are_bounded(seed in 0u64..500, n in 2usize..8, d in 2usize..5) {
            let hs = random_embedding(n, d, seed);
            let ht = random_embedding(n, d, seed.wrapping_add(7));
            let lisi = lisi_matrix(&hs, &ht, 2);
            prop_assert!(lisi.max_abs() <= 4.0 + 1e-9);
        }
    }
}
