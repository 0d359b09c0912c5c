//! Alignment-specific matrix helpers.
//!
//! These are the small numeric routines that sit between raw linear algebra
//! and the alignment logic: Pearson row normalisation (so the full correlation
//! matrix becomes a single matmul), top-k statistics used by the hubness terms
//! of LISI, arg-max extraction and mutual-arg-max pair detection used for
//! trusted pairs and final anchor prediction.

use crate::dense::DenseMatrix;
use crate::parallel::parallel_map;

/// Fused in-place AXPY: `y[i] += alpha * x[i]` in a single traversal.
///
/// This is the one scaled-accumulate kernel in the workspace: gradient
/// accumulation in training, `DenseMatrix::add_scaled_inplace` and the
/// weighted integration of per-orbit alignment matrices all route through it,
/// so there is exactly one code path to keep fast.  It is a plain loop that
/// the compiler vectorises for the host CPU; the multiply and the add round
/// separately (Rust never contracts them into an FMA), so results are
/// bit-identical across ISAs.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy operands must have equal lengths");
    // Chunked so LLVM has a clean unroll target.
    const W: usize = 8;
    let mut yc = y.chunks_exact_mut(W);
    let mut xc = x.chunks_exact(W);
    for (yb, xb) in yc.by_ref().zip(xc.by_ref()) {
        for (yv, &xv) in yb.iter_mut().zip(xb) {
            *yv += alpha * xv;
        }
    }
    for (yv, &xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += alpha * xv;
    }
}

/// Mean-centres and ℓ₂-normalises every row of `m` in place.
///
/// After this transformation the dot product of two rows equals their Pearson
/// correlation coefficient (rows with zero variance are mapped to all-zero so
/// their correlation with anything is 0 rather than NaN).
pub fn pearson_normalize_rows(m: &mut DenseMatrix) {
    let cols = m.cols();
    if cols == 0 {
        return;
    }
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let mean = row.iter().sum::<f64>() / cols as f64;
        for v in row.iter_mut() {
            *v -= mean;
        }
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        } else {
            for v in row.iter_mut() {
                *v = 0.0;
            }
        }
    }
}

/// ℓ₂-normalises every row (without mean-centring); zero rows stay zero.
pub fn l2_normalize_rows(m: &mut DenseMatrix) {
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
}

/// Returns the mean of the `k` largest entries of `values`.
///
/// If `k == 0` or `values` is empty the result is 0.  If `k >= values.len()`
/// the plain mean is returned.  This is the hubness statistic `D_t(h_s)` of
/// the paper (Eq. 10) computed against an already-materialised similarity row.
pub fn top_k_mean(values: &[f64], k: usize) -> f64 {
    if values.is_empty() || k == 0 {
        return 0.0;
    }
    let k = k.min(values.len());
    // Partial selection: keep a small sorted buffer of the k largest values.
    let mut top: Vec<f64> = Vec::with_capacity(k + 1);
    for &v in values {
        top_k_push(&mut top, k, v);
    }
    top_k_mean_finish(&top, k)
}

/// One step of the partial selection behind [`top_k_mean`]: offers `v` to the
/// sorted-ascending buffer `top` of (at most) the `k` largest values seen so
/// far.  `k` must already be clamped to the total number of values the caller
/// will offer.
///
/// Exposed so streaming consumers — the blocked LISI path accumulates the
/// per-*column* hubness statistic across row blocks — run the *identical*
/// insertion sequence as the dense all-at-once path and therefore produce a
/// bit-identical buffer (content and order, hence a bit-identical
/// [`top_k_mean_finish`] sum).
pub fn top_k_push(top: &mut Vec<f64>, k: usize, v: f64) {
    if top.len() < k {
        top.push(v);
        if top.len() == k {
            top.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        }
    } else if v > top[0] {
        top[0] = v;
        let mut i = 0;
        while i + 1 < k && top[i] > top[i + 1] {
            top.swap(i, i + 1);
            i += 1;
        }
    }
}

/// The admission gate of [`top_k_push`]: the smallest retained value once the
/// buffer holds `k` entries (`top[0]` — only values strictly above it can
/// enter), or `-∞` while the buffer is still filling (everything enters).
///
/// A caller that pre-filters candidates with `v > top_k_gate(top, k)` and
/// only then calls [`top_k_push`] reproduces the unfiltered push sequence
/// exactly: the gate is the push's own rejection test, hoisted out.
pub fn top_k_gate(top: &[f64], k: usize) -> f64 {
    if top.len() < k {
        f64::NEG_INFINITY
    } else {
        top[0]
    }
}

/// Completes a [`top_k_push`] accumulation: the mean over the buffer, summed
/// in buffer order (ascending after the buffer filled), divided by `k`.
pub fn top_k_mean_finish(top: &[f64], k: usize) -> f64 {
    if k == 0 {
        return 0.0;
    }
    top.iter().sum::<f64>() / k as f64
}

/// Computes the mean of the top-`k` entries of every row of `m` in parallel.
pub fn row_top_k_means(m: &DenseMatrix, k: usize) -> Vec<f64> {
    parallel_map(m.rows(), |r| top_k_mean(m.row(r), k))
}

/// Computes the mean of the top-`k` entries of every column of `m`.
pub fn col_top_k_means(m: &DenseMatrix, k: usize) -> Vec<f64> {
    let t = m.transpose();
    row_top_k_means(&t, k)
}

/// Index of the maximum entry of `values` (ties broken towards the lower
/// index); `None` when empty.
pub fn argmax(values: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in values.iter().enumerate() {
        match best {
            None => best = Some((i, v)),
            Some((_, bv)) if v > bv => best = Some((i, v)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Arg-max of every row of `m`, computed in parallel.
pub fn row_argmax(m: &DenseMatrix) -> Vec<usize> {
    parallel_map(m.rows(), |r| argmax(m.row(r)).unwrap_or(0))
}

/// Arg-max of every column of `m`.
pub fn col_argmax(m: &DenseMatrix) -> Vec<usize> {
    let t = m.transpose();
    row_argmax(&t)
}

/// Finds all mutual arg-max pairs of a score matrix.
///
/// `(i, j)` is returned iff `j` is the arg-max of row `i` **and** `i` is the
/// arg-max of column `j` — the definition of a *trusted pair* in the paper
/// (Eq. 12).  Pairs are returned in row order.
pub fn mutual_argmax_pairs(m: &DenseMatrix) -> Vec<(usize, usize)> {
    if m.rows() == 0 || m.cols() == 0 {
        return Vec::new();
    }
    let row_best = row_argmax(m);
    let col_best = col_argmax(m);
    row_best
        .iter()
        .enumerate()
        .filter(|&(i, &j)| col_best[j] == i)
        .map(|(i, &j)| (i, j))
        .collect()
}

/// Returns the indices of the `k` largest entries of `values` in descending
/// order of value.
pub fn top_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_unstable_by(|&a, &b| values[b].partial_cmp(&values[a]).unwrap());
    idx.truncate(k);
    idx
}

/// 1-based rank of `values[target]` within `values` (rank 1 = largest).
///
/// Ties are broken by index (an entry equal to the target but at a lower
/// index ranks above it), which matches the behaviour of a stable descending
/// sort and keeps MRR consistent with `precision@q` even for degenerate
/// score matrices where many entries are exactly equal.
pub fn rank_of(values: &[f64], target: usize) -> usize {
    let t = values[target];
    1 + values
        .iter()
        .enumerate()
        .filter(|&(j, &v)| v > t || (v == t && j < target))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "axpy operands must have equal lengths")]
    fn axpy_rejects_mismatched_lengths() {
        axpy(1.0, &[1.0, 2.0], &mut [0.0; 3]);
    }

    #[test]
    fn pearson_rows_have_zero_mean_unit_norm() {
        let mut m =
            DenseMatrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 4.0, 5.0, 5.0, 5.0, 5.0]).unwrap();
        pearson_normalize_rows(&mut m);
        let row0 = m.row(0);
        let mean: f64 = row0.iter().sum::<f64>() / 4.0;
        let norm: f64 = row0.iter().map(|v| v * v).sum::<f64>();
        assert!(mean.abs() < 1e-12);
        assert!((norm - 1.0).abs() < 1e-12);
        // Constant row is mapped to zeros, not NaN.
        assert!(m.row(1).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pearson_dot_equals_correlation() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 9.0];
        let mut m = DenseMatrix::from_rows(&[a.to_vec(), b.to_vec()]).unwrap();
        pearson_normalize_rows(&mut m);
        let dot: f64 = m.row(0).iter().zip(m.row(1)).map(|(x, y)| x * y).sum();
        // Manual Pearson correlation.
        let mean_a = 2.5;
        let mean_b = 5.25;
        let cov: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (x - mean_a) * (y - mean_b))
            .sum();
        let var_a: f64 = a.iter().map(|x| (x - mean_a) * (x - mean_a)).sum();
        let var_b: f64 = b.iter().map(|y| (y - mean_b) * (y - mean_b)).sum();
        let corr = cov / (var_a * var_b).sqrt();
        assert!((dot - corr).abs() < 1e-12);
    }

    #[test]
    fn l2_normalize_keeps_direction() {
        let mut m = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]).unwrap();
        l2_normalize_rows(&mut m);
        assert!((m.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((m.get(0, 1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn top_k_mean_basic() {
        let v = [1.0, 5.0, 3.0, 2.0];
        assert_eq!(top_k_mean(&v, 1), 5.0);
        assert_eq!(top_k_mean(&v, 2), 4.0);
        assert_eq!(top_k_mean(&v, 10), 11.0 / 4.0);
        assert_eq!(top_k_mean(&v, 0), 0.0);
        assert_eq!(top_k_mean(&[], 3), 0.0);
    }

    #[test]
    fn top_k_mean_matches_sort_reference() {
        let v: Vec<f64> = (0..50).map(|i| ((i * 37) % 19) as f64 - 9.0).collect();
        for k in [1, 3, 7, 20, 50] {
            let mut sorted = v.clone();
            sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let expected: f64 = sorted[..k].iter().sum::<f64>() / k as f64;
            assert!((top_k_mean(&v, k) - expected).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn top_k_gate_matches_push_rejection() {
        let k = 3;
        let mut top = Vec::with_capacity(k + 1);
        // While filling, the gate admits everything.
        assert_eq!(top_k_gate(&top, k), f64::NEG_INFINITY);
        for v in [0.5, -0.2, 0.1] {
            top_k_push(&mut top, k, v);
        }
        // Full buffer: the gate is the buffer minimum, and a value equal to
        // it is rejected by push (no state change) exactly as the gate says.
        assert_eq!(top_k_gate(&top, k), -0.2);
        let before = top.clone();
        top_k_push(&mut top, k, -0.2);
        assert_eq!(top, before);
        top_k_push(&mut top, k, -0.1);
        assert_eq!(top_k_gate(&top, k), -0.1);
    }

    #[test]
    fn streaming_top_k_push_is_bit_identical_to_top_k_mean() {
        let v: Vec<f64> = (0..50).map(|i| (((i * 53) % 23) as f64).sin()).collect();
        for k in [1, 2, 5, 23, 50] {
            let k = k.min(v.len());
            let mut top = Vec::with_capacity(k + 1);
            for &x in &v {
                top_k_push(&mut top, k, x);
            }
            // Exact equality, not approximate: the blocked LISI path depends
            // on the streaming accumulation reproducing the dense sum
            // bit-for-bit.
            assert_eq!(top_k_mean_finish(&top, k), top_k_mean(&v, k), "k={k}");
        }
    }

    #[test]
    fn row_and_col_top_k() {
        let m = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 6.0, 5.0, 4.0]).unwrap();
        assert_eq!(row_top_k_means(&m, 2), vec![2.5, 5.5]);
        assert_eq!(col_top_k_means(&m, 1), vec![6.0, 5.0, 4.0]);
    }

    #[test]
    fn argmax_variants() {
        assert_eq!(argmax(&[1.0, 3.0, 2.0]), Some(1));
        assert_eq!(argmax(&[]), None);
        let m = DenseMatrix::from_vec(2, 3, vec![0.0, 9.0, 1.0, 7.0, 2.0, 3.0]).unwrap();
        assert_eq!(row_argmax(&m), vec![1, 0]);
        assert_eq!(col_argmax(&m), vec![1, 0, 1]);
    }

    #[test]
    fn mutual_argmax_identifies_trusted_pairs() {
        // Row 0 <-> col 1 are mutual; row 1 prefers col 1 but col 1 prefers row 0.
        let m = DenseMatrix::from_vec(2, 2, vec![0.1, 0.9, 0.2, 0.8]).unwrap();
        assert_eq!(mutual_argmax_pairs(&m), vec![(0, 1)]);
        // Identity-like matrix: every diagonal is a trusted pair.
        let id = DenseMatrix::identity(3);
        assert_eq!(mutual_argmax_pairs(&id), vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn mutual_argmax_empty() {
        let m = DenseMatrix::zeros(0, 0);
        assert!(mutual_argmax_pairs(&m).is_empty());
    }

    #[test]
    fn top_k_indices_sorted_by_value() {
        let v = [0.5, 9.0, 3.0, 7.0];
        assert_eq!(top_k_indices(&v, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&v, 10), vec![1, 3, 2, 0]);
    }

    #[test]
    fn rank_of_breaks_ties_by_index() {
        let v = [0.3, 0.9, 0.5, 0.9];
        assert_eq!(rank_of(&v, 1), 1);
        // The tie at index 3 ranks below the equal value at index 1.
        assert_eq!(rank_of(&v, 3), 2);
        assert_eq!(rank_of(&v, 2), 3);
        assert_eq!(rank_of(&v, 0), 4);
        // A constant vector degrades gracefully instead of giving everyone
        // rank 1.
        let constant = [0.5; 4];
        assert_eq!(rank_of(&constant, 0), 1);
        assert_eq!(rank_of(&constant, 3), 4);
    }
}
