//! One-to-one matching extraction from an alignment matrix.
//!
//! The paper predicts, for every source node, the highest-scoring target node
//! (a many-to-one rule, Section IV-E).  Downstream applications often need a
//! *one-to-one* correspondence instead — every target node used at most once.
//! This module provides two extractors on top of any alignment matrix:
//!
//! * [`greedy_matching`] — sort all pairs by score and accept greedily; simple
//!   and `O(n_s · n_t · log)` but can be locally sub-optimal;
//! * [`auction_matching`] — an ε-scaling auction algorithm (Bertsekas) that
//!   approximates the maximum-weight assignment; with the default settings it
//!   recovers the optimal assignment on small score matrices and a
//!   near-optimal one on large ones.
//!
//! Both return source-indexed assignments compatible with
//! [`crate::pipeline::HtcResult::alignment`].

use crate::topk::TopKRows;
use htc_linalg::DenseMatrix;

/// A one-to-one (partial) matching: `target_of[s]` is the target assigned to
/// source `s`, if any.
#[derive(Debug, Clone, PartialEq)]
pub struct Matching {
    target_of: Vec<Option<usize>>,
    total_score: f64,
}

impl Matching {
    /// The target matched to source `s`, if any.
    pub fn target_of(&self, s: usize) -> Option<usize> {
        self.target_of.get(s).copied().flatten()
    }

    /// Iterates over all matched `(source, target)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.target_of
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (s, t)))
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.target_of.iter().filter(|t| t.is_some()).count()
    }

    /// True when no pair is matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of the alignment scores of the matched pairs.
    pub fn total_score(&self) -> f64 {
        self.total_score
    }

    /// Fraction of matched pairs that agree with `ground_truth`
    /// (`target_of[s] == truth[s]`), measured over the ground-truth anchors.
    pub fn accuracy_against(&self, ground_truth: &htc_graph::perturb::GroundTruth) -> f64 {
        let anchors: Vec<(usize, usize)> = ground_truth.anchors().collect();
        if anchors.is_empty() {
            return 0.0;
        }
        let correct = anchors
            .iter()
            .filter(|&&(s, t)| self.target_of(s) == Some(t))
            .count();
        correct as f64 / anchors.len() as f64
    }
}

/// Greedy maximum-weight matching: repeatedly accept the highest-scoring
/// remaining pair whose source and target are both unmatched.
pub fn greedy_matching(alignment: &DenseMatrix) -> Matching {
    let (ns, nt) = alignment.shape();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(ns * nt);
    for s in 0..ns {
        for (t, &v) in alignment.row(s).iter().enumerate() {
            pairs.push((s, t, v));
        }
    }
    greedy_accept(pairs, ns, nt)
}

/// Greedy maximum-weight matching over a [`TopKRows`] candidate artifact —
/// the `Large`-tier matcher.  Identical policy to [`greedy_matching`]
/// (accept the highest-scoring remaining pair whose endpoints are free) but
/// it only ever considers the O(n_s · k) retained candidates instead of
/// materialising all n_s · n_t pairs.  Sources whose entire candidate list is
/// taken by better-scoring rows stay unmatched — with dense input (k ≥ n_t)
/// they would have been pushed onto some leftover target; at scale that
/// fallback is exactly the kind of noise-floor assignment the retention is
/// meant to drop.
pub fn greedy_matching_topk(candidates: &TopKRows) -> Matching {
    let (ns, nt) = candidates.shape();
    let mut pairs: Vec<(usize, usize, f64)> = Vec::with_capacity(candidates.num_candidates());
    for s in 0..ns {
        for (t, v) in candidates.row(s) {
            pairs.push((s, t, v));
        }
    }
    greedy_accept(pairs, ns, nt)
}

/// The greedy policy shared by both matchers: stably sort `(source, target,
/// score)` pairs by descending score and accept each pair whose source and
/// target are both still free.  The stable sort over the callers' row-major
/// pair order resolves equal scores towards the lower (source, column or
/// candidate-rank) pair, deterministically.
fn greedy_accept(mut pairs: Vec<(usize, usize, f64)>, ns: usize, nt: usize) -> Matching {
    pairs.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
    let mut target_of = vec![None; ns];
    let mut used_target = vec![false; nt];
    let mut used_source = vec![false; ns];
    let mut total = 0.0;
    let mut matched = 0usize;
    let max_pairs = ns.min(nt);
    for (s, t, v) in pairs {
        if matched == max_pairs {
            break;
        }
        if used_source[s] || used_target[t] {
            continue;
        }
        used_source[s] = true;
        used_target[t] = true;
        target_of[s] = Some(t);
        total += v;
        matched += 1;
    }
    Matching {
        target_of,
        total_score: total,
    }
}

/// Auction algorithm for the (approximate) maximum-weight assignment.
///
/// `epsilon` controls the optimality gap: the returned assignment's total
/// score is within `n_s · epsilon` of the optimum.  Sources that would have to
/// accept a strongly negative value (below `-1e6`) stay unmatched, which keeps
/// rectangular problems well-defined.
pub fn auction_matching(alignment: &DenseMatrix, epsilon: f64) -> Matching {
    let (ns, nt) = alignment.shape();
    if ns == 0 || nt == 0 {
        return Matching {
            target_of: vec![None; ns],
            total_score: 0.0,
        };
    }
    if ns > nt {
        // More bidders than items: run the auction on the transposed problem
        // (targets bid for sources) and invert the resulting assignment, so
        // every target can be matched and the ε-optimality guarantee holds.
        let transposed = auction_matching(&alignment.transpose(), epsilon);
        let mut target_of = vec![None; ns];
        for (t, s) in transposed.pairs() {
            target_of[s] = Some(t);
        }
        return Matching {
            target_of,
            total_score: transposed.total_score,
        };
    }
    let epsilon = epsilon.max(1e-9);
    let mut prices = vec![0.0_f64; nt];
    let mut owner: Vec<Option<usize>> = vec![None; nt];
    let mut assigned: Vec<Option<usize>> = vec![None; ns];
    let mut unassigned: Vec<usize> = (0..ns.min(nt)).collect();
    // Sources beyond the target count can never all be assigned; the auction
    // runs on the first min(ns, nt) bidders and the rest stay unmatched.
    let mut rounds = 0usize;
    let max_rounds = 50 * ns.max(nt) * ((1.0 / epsilon).log2().max(1.0) as usize + 4);
    while let Some(s) = unassigned.pop() {
        rounds += 1;
        if rounds > max_rounds {
            break;
        }
        // Find the best and second-best net value for bidder s.
        let row = alignment.row(s);
        let mut best_t = 0usize;
        let mut best_value = f64::NEG_INFINITY;
        let mut second_value = f64::NEG_INFINITY;
        for (t, &v) in row.iter().enumerate() {
            let net = v - prices[t];
            if net > best_value {
                second_value = best_value;
                best_value = net;
                best_t = t;
            } else if net > second_value {
                second_value = net;
            }
        }
        if !best_value.is_finite() || best_value < -1e6 {
            continue;
        }
        let increment = if second_value.is_finite() {
            best_value - second_value + epsilon
        } else {
            epsilon
        };
        prices[best_t] += increment;
        if let Some(previous) = owner[best_t].replace(s) {
            assigned[previous] = None;
            unassigned.push(previous);
        }
        assigned[s] = Some(best_t);
    }
    let total = assigned
        .iter()
        .enumerate()
        .filter_map(|(s, t)| t.map(|t| alignment.get(s, t)))
        .sum();
    Matching {
        target_of: assigned,
        total_score: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::perturb::GroundTruth;
    use proptest::prelude::*;

    fn square(data: Vec<f64>) -> DenseMatrix {
        let n = (data.len() as f64).sqrt() as usize;
        DenseMatrix::from_vec(n, n, data).unwrap()
    }

    #[test]
    fn greedy_picks_obvious_assignment() {
        let m = square(vec![0.9, 0.1, 0.2, 0.8]);
        let matching = greedy_matching(&m);
        assert_eq!(matching.target_of(0), Some(0));
        assert_eq!(matching.target_of(1), Some(1));
        assert_eq!(matching.len(), 2);
        assert!((matching.total_score() - 1.7).abs() < 1e-12);
    }

    #[test]
    fn greedy_is_one_to_one_on_rectangular_matrices() {
        let m = DenseMatrix::from_vec(3, 2, vec![0.9, 0.8, 0.7, 0.6, 0.5, 0.4]).unwrap();
        let matching = greedy_matching(&m);
        assert_eq!(matching.len(), 2);
        let targets: Vec<usize> = matching.pairs().map(|(_, t)| t).collect();
        let mut dedup = targets.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), targets.len());
    }

    #[test]
    fn auction_solves_case_where_greedy_is_suboptimal() {
        // Greedy takes (0,0)=10 then forces (1,1)=1 → total 11.
        // Optimal is (0,1)=9 + (1,0)=9 → total 18.
        let m = square(vec![10.0, 9.0, 9.0, 1.0]);
        let greedy = greedy_matching(&m);
        let auction = auction_matching(&m, 1e-3);
        assert!(auction.total_score() > greedy.total_score());
        assert_eq!(auction.target_of(0), Some(1));
        assert_eq!(auction.target_of(1), Some(0));
    }

    #[test]
    fn auction_matches_identity_on_diagonal_matrices() {
        let m = DenseMatrix::identity(6);
        let matching = auction_matching(&m, 1e-3);
        assert_eq!(matching.len(), 6);
        for (s, t) in matching.pairs() {
            assert_eq!(s, t);
        }
        let gt = GroundTruth::identity(6);
        assert_eq!(matching.accuracy_against(&gt), 1.0);
    }

    #[test]
    fn accuracy_against_partial_ground_truth() {
        let m = square(vec![1.0, 0.0, 0.0, 1.0]);
        let matching = greedy_matching(&m);
        let gt = GroundTruth::new(vec![Some(0), Some(0)]);
        assert_eq!(matching.accuracy_against(&gt), 0.5);
        assert_eq!(
            matching.accuracy_against(&GroundTruth::new(vec![None, None])),
            0.0
        );
    }

    #[test]
    fn topk_greedy_matches_dense_greedy_when_k_covers_all() {
        use crate::topk::TopKRowsBuilder;
        let m =
            DenseMatrix::from_vec(3, 3, vec![0.9, 0.1, 0.2, 0.8, 0.7, 0.3, 0.1, 0.6, 0.5]).unwrap();
        let mut builder = TopKRowsBuilder::new(3, 3);
        for r in 0..3 {
            builder.push_row(m.row(r));
        }
        let topk = builder.finish();
        let dense = greedy_matching(&m);
        let sparse = greedy_matching_topk(&topk);
        let dense_pairs: Vec<_> = dense.pairs().collect();
        let sparse_pairs: Vec<_> = sparse.pairs().collect();
        assert_eq!(dense_pairs, sparse_pairs);
        assert!((dense.total_score() - sparse.total_score()).abs() < 1e-12);
    }

    #[test]
    fn topk_greedy_is_one_to_one_under_truncation() {
        use crate::topk::TopKRowsBuilder;
        // Both sources retain only target 0; greedy gives it to the higher
        // score and leaves the other source unmatched (no dense fallback).
        let mut builder = TopKRowsBuilder::new(3, 1);
        builder.push_row(&[0.9, 0.0, 0.0]);
        builder.push_row(&[0.8, 0.0, 0.0]);
        let matching = greedy_matching_topk(&builder.finish());
        assert_eq!(matching.target_of(0), Some(0));
        assert_eq!(matching.target_of(1), None);
        assert_eq!(matching.len(), 1);
    }

    #[test]
    fn empty_matrices_are_handled() {
        let empty = DenseMatrix::zeros(0, 0);
        assert!(greedy_matching(&empty).is_empty());
        assert!(auction_matching(&empty, 1e-3).is_empty());
        let no_targets = DenseMatrix::zeros(3, 0);
        assert!(auction_matching(&no_targets, 1e-3).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Property: both extractors return one-to-one matchings and the
        /// auction's total score is never worse than greedy's by more than
        /// the epsilon slack.
        #[test]
        fn matchings_are_one_to_one_and_auction_competitive(
            seed in 0u64..1000, ns in 1usize..8, nt in 1usize..8
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let data: Vec<f64> = (0..ns * nt).map(|_| rng.gen_range(0.0..1.0)).collect();
            let m = DenseMatrix::from_vec(ns, nt, data).unwrap();
            let eps = 1e-3;
            for matching in [greedy_matching(&m), auction_matching(&m, eps)] {
                let mut targets: Vec<usize> = matching.pairs().map(|(_, t)| t).collect();
                let before = targets.len();
                targets.sort_unstable();
                targets.dedup();
                prop_assert_eq!(targets.len(), before);
                prop_assert!(matching.len() <= ns.min(nt));
            }
            let greedy = greedy_matching(&m);
            let auction = auction_matching(&m, eps);
            prop_assert!(
                auction.total_score() + (ns.max(nt) as f64) * eps + 1e-9 >= greedy.total_score(),
                "auction {} vs greedy {}", auction.total_score(), greedy.total_score()
            );
        }
    }
}
