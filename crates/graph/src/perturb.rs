//! Graph perturbation: the operations used to derive alignment targets.
//!
//! The paper constructs its synthetic target networks by randomly removing a
//! fraction of the source edges while preserving node identity (Section V-A),
//! and its real-world pairs differ by both structural and attribute noise.
//! This module implements those transformations:
//!
//! * [`remove_edges`] — drop a random fraction of edges (structural noise);
//! * [`add_random_edges`] — insert spurious edges;
//! * [`permute_graph`] / [`permute_network`] — relabel nodes by a permutation,
//!   returning the ground-truth mapping used for evaluation;
//! * [`perturb_attributes_gaussian`] / [`perturb_attributes_flip`] — add
//!   Gaussian noise / flip a fraction of binary attributes
//!   (attribute-consistency violation).

use crate::attributed::AttributedNetwork;
use crate::graph::Graph;
use htc_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Removes `ratio` (0.0–1.0) of the edges uniformly at random.
pub fn remove_edges(graph: &Graph, ratio: f64, rng: &mut StdRng) -> Graph {
    let ratio = ratio.clamp(0.0, 1.0);
    let mut edges: Vec<(usize, usize)> = graph.edges().to_vec();
    edges.shuffle(rng);
    let keep = ((1.0 - ratio) * edges.len() as f64).round() as usize;
    edges.truncate(keep);
    Graph::from_edges(graph.num_nodes(), &edges).expect("subset of valid edges is valid")
}

/// Adds `count` random new edges (skipping duplicates and self-loops).
pub fn add_random_edges(graph: &Graph, count: usize, rng: &mut StdRng) -> Graph {
    let n = graph.num_nodes();
    let mut edges: Vec<(usize, usize)> = graph.edges().to_vec();
    let mut existing: std::collections::BTreeSet<(usize, usize)> = edges.iter().copied().collect();
    let max_edges = n.saturating_mul(n.saturating_sub(1)) / 2;
    let target = (edges.len() + count).min(max_edges);
    let mut guard = 0usize;
    while existing.len() < target && guard < 100 * count + 100 {
        guard += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v {
            continue;
        }
        let e = (u.min(v), u.max(v));
        if existing.insert(e) {
            edges.push(e);
        }
    }
    Graph::from_edges(n, &edges).expect("generated edges are valid")
}

/// Relabels the nodes of `graph` so that original node `u` becomes
/// `perm[u]`.
///
/// Returns the relabelled graph.  `perm` must be a permutation of
/// `0..num_nodes`; this is asserted in debug builds.
pub fn permute_graph(graph: &Graph, perm: &[usize]) -> Graph {
    debug_assert_eq!(perm.len(), graph.num_nodes());
    debug_assert!({
        let mut sorted = perm.to_vec();
        sorted.sort_unstable();
        sorted == (0..graph.num_nodes()).collect::<Vec<_>>()
    });
    let edges: Vec<(usize, usize)> = graph
        .edges()
        .iter()
        .map(|&(u, v)| (perm[u], perm[v]))
        .collect();
    Graph::from_edges(graph.num_nodes(), &edges).expect("permutation preserves validity")
}

/// Relabels an attributed network by `perm` (node `u` becomes `perm[u]`),
/// permuting the attribute rows consistently.
pub fn permute_network(network: &AttributedNetwork, perm: &[usize]) -> AttributedNetwork {
    let graph = permute_graph(network.graph(), perm);
    let n = network.num_nodes();
    let d = network.attr_dim();
    let mut data = vec![0.0; n * d];
    for (u, &new) in perm.iter().enumerate() {
        data[new * d..(new + 1) * d].copy_from_slice(network.node_attributes(u));
    }
    let attributes = DenseMatrix::from_vec(n, d, data).expect("shape preserved");
    AttributedNetwork::new(graph, attributes).expect("row count preserved")
}

/// Adds zero-mean Gaussian noise with standard deviation `sigma` to every
/// attribute entry (Box–Muller; no external distribution crate needed).
pub fn perturb_attributes_gaussian(
    attributes: &DenseMatrix,
    sigma: f64,
    rng: &mut StdRng,
) -> DenseMatrix {
    let mut out = attributes.clone();
    for v in out.data_mut() {
        *v += sigma * standard_normal(rng);
    }
    out
}

/// Flips each entry of a 0/1 attribute matrix with probability `p`.
pub fn perturb_attributes_flip(attributes: &DenseMatrix, p: f64, rng: &mut StdRng) -> DenseMatrix {
    let mut out = attributes.clone();
    for v in out.data_mut() {
        if rng.gen::<f64>() < p {
            *v = if *v > 0.5 { 0.0 } else { 1.0 };
        }
    }
    out
}

/// Samples a standard normal variate via the Box–Muller transform.
pub fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A ground-truth alignment between a source and a target network.
///
/// `target_of[s]` is the target node corresponding to source node `s`, when it
/// exists.  For the synthetic datasets every source node has a target
/// counterpart; the struct still models partial ground truth because the
/// real-world datasets in the paper only share a subset of anchor links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    target_of: Vec<Option<usize>>,
}

impl GroundTruth {
    /// Builds ground truth from an explicit mapping.
    pub fn new(target_of: Vec<Option<usize>>) -> Self {
        Self { target_of }
    }

    /// Identity ground truth for `n` nodes (node `i` aligns to node `i`).
    pub fn identity(n: usize) -> Self {
        Self {
            target_of: (0..n).map(Some).collect(),
        }
    }

    /// Ground truth induced by a permutation: source `u` aligns to `perm[u]`.
    pub fn from_permutation(perm: &[usize]) -> Self {
        Self {
            target_of: perm.iter().map(|&v| Some(v)).collect(),
        }
    }

    /// Number of source nodes covered by this structure.
    pub fn num_source_nodes(&self) -> usize {
        self.target_of.len()
    }

    /// Number of anchor links (source nodes with a known target).
    pub fn num_anchors(&self) -> usize {
        self.target_of.iter().filter(|t| t.is_some()).count()
    }

    /// The target anchor of source node `s`, if known.
    pub fn target_of(&self, s: usize) -> Option<usize> {
        self.target_of.get(s).copied().flatten()
    }

    /// Iterates over all `(source, target)` anchor pairs.
    pub fn anchors(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.target_of
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (s, t)))
    }

    /// Keeps only a random fraction of the anchors (used to build the 10 %
    /// supervision seed given to the supervised baselines).
    pub fn sample_fraction(&self, fraction: f64, rng: &mut StdRng) -> GroundTruth {
        let anchors: Vec<(usize, usize)> = self.anchors().collect();
        let mut indices: Vec<usize> = (0..anchors.len()).collect();
        indices.shuffle(rng);
        let keep = ((fraction.clamp(0.0, 1.0)) * anchors.len() as f64).round() as usize;
        let kept: std::collections::BTreeSet<usize> = indices.into_iter().take(keep).collect();
        let mut target_of = vec![None; self.target_of.len()];
        for (i, &(s, t)) in anchors.iter().enumerate() {
            if kept.contains(&i) {
                target_of[s] = Some(t);
            }
        }
        GroundTruth { target_of }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{random_permutation, seeded_rng};

    #[test]
    fn remove_edges_keeps_requested_fraction() {
        let mut rng = seeded_rng(10);
        let g = Graph::complete(20);
        let pruned = remove_edges(&g, 0.3, &mut rng);
        assert_eq!(pruned.num_edges(), (0.7 * 190.0_f64).round() as usize);
        assert_eq!(pruned.num_nodes(), 20);
        // Every surviving edge existed in the original graph.
        for &(u, v) in pruned.edges() {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn remove_all_and_none() {
        let mut rng = seeded_rng(11);
        let g = Graph::cycle(10);
        assert_eq!(remove_edges(&g, 0.0, &mut rng).num_edges(), 10);
        assert_eq!(remove_edges(&g, 1.0, &mut rng).num_edges(), 0);
    }

    #[test]
    fn add_random_edges_grows_graph() {
        let mut rng = seeded_rng(12);
        let g = Graph::path(30);
        let denser = add_random_edges(&g, 15, &mut rng);
        assert_eq!(denser.num_edges(), 29 + 15);
        for &(u, v) in g.edges() {
            assert!(denser.has_edge(u, v));
        }
    }

    #[test]
    fn permute_graph_preserves_structure() {
        let mut rng = seeded_rng(13);
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 0), (3, 4)]).unwrap();
        let perm = random_permutation(5, &mut rng);
        let pg = permute_graph(&g, &perm);
        assert_eq!(pg.num_edges(), g.num_edges());
        for &(u, v) in g.edges() {
            assert!(pg.has_edge(perm[u], perm[v]));
        }
        assert_eq!(pg.triangle_count(), g.triangle_count());
    }

    #[test]
    fn permute_network_moves_attributes_with_nodes() {
        let g = Graph::path(3);
        let x = DenseMatrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]).unwrap();
        let net = AttributedNetwork::new(g, x).unwrap();
        let perm = vec![2, 0, 1];
        let permuted = permute_network(&net, &perm);
        // Original node 0 (attribute 10) became node 2.
        assert_eq!(permuted.node_attributes(2), &[10.0]);
        assert_eq!(permuted.node_attributes(0), &[20.0]);
        assert!(permuted.graph().has_edge(2, 0));
        assert!(permuted.graph().has_edge(0, 1));
    }

    #[test]
    fn gaussian_noise_changes_values_but_not_shape() {
        let mut rng = seeded_rng(14);
        let x = DenseMatrix::filled(10, 4, 1.0);
        let noisy = perturb_attributes_gaussian(&x, 0.1, &mut rng);
        assert_eq!(noisy.shape(), (10, 4));
        assert!(!noisy.approx_eq(&x, 1e-9));
        // Noise is small on average.
        let diff = noisy.sub(&x).unwrap().frobenius_norm() / (40.0_f64).sqrt();
        assert!(diff < 0.5, "rms diff {diff}");
    }

    #[test]
    fn flip_noise_only_toggles_bits() {
        let mut rng = seeded_rng(15);
        let x = DenseMatrix::from_vec(2, 3, vec![0.0, 1.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        let flipped = perturb_attributes_flip(&x, 0.5, &mut rng);
        for &v in flipped.data() {
            assert!(v == 0.0 || v == 1.0);
        }
        let same = perturb_attributes_flip(&x, 0.0, &mut rng);
        assert!(same.approx_eq(&x, 0.0));
    }

    #[test]
    fn standard_normal_statistics() {
        let mut rng = seeded_rng(16);
        let samples: Vec<f64> = (0..20000).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn ground_truth_accessors() {
        let gt = GroundTruth::from_permutation(&[2, 0, 1]);
        assert_eq!(gt.num_anchors(), 3);
        assert_eq!(gt.target_of(0), Some(2));
        assert_eq!(gt.anchors().count(), 3);
        let id = GroundTruth::identity(4);
        assert_eq!(id.target_of(3), Some(3));
        let partial = GroundTruth::new(vec![Some(1), None, Some(0)]);
        assert_eq!(partial.num_anchors(), 2);
        assert_eq!(partial.target_of(1), None);
    }

    #[test]
    fn sample_fraction_keeps_requested_share() {
        let mut rng = seeded_rng(17);
        let gt = GroundTruth::identity(100);
        let sampled = gt.sample_fraction(0.1, &mut rng);
        assert_eq!(sampled.num_anchors(), 10);
        assert_eq!(sampled.num_source_nodes(), 100);
        // Every sampled anchor agrees with the full ground truth.
        for (s, t) in sampled.anchors() {
            assert_eq!(gt.target_of(s), Some(t));
        }
    }
}
