//! PALE — Predict Anchor Links via Embedding (Man et al., IJCAI 2016).
//!
//! PALE embeds each network *independently* (the original uses a first/second
//! order proximity objective; here each graph is embedded by a graph
//! auto-encoder trained to reconstruct its own normalised adjacency, reusing
//! the `htc-nn` substrate) and then learns a supervised **mapping** from the
//! source embedding space into the target embedding space from the observed
//! anchor seeds.  Alignment scores are cosine similarities between mapped
//! source embeddings and target embeddings.  The mapping is the ridge
//! least-squares solution
//!
//! ```text
//! W = (H_sᵀ H_s + λ I)^{-1} H_sᵀ H_t        (rows restricted to seed anchors)
//! ```
//!
//! (the original's MLP mapping adds little at these sizes and the linear form
//! is the one analysed in the paper).

use crate::traits::{Aligner, BaselineError};
use htc_core::laplacian::normalized_adjacency;
use htc_graph::perturb::GroundTruth;
use htc_graph::AttributedNetwork;
use htc_linalg::ops::l2_normalize_rows;
use htc_linalg::DenseMatrix;
use htc_nn::{loss::reconstruction_loss_and_grad, Activation, Adam, ForwardCache, GcnEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// PALE configuration and aligner.
#[derive(Debug, Clone)]
pub struct Pale {
    /// Embedding dimension of the per-graph encoders.
    pub embedding_dim: usize,
    /// Training epochs per graph.
    pub epochs: usize,
    /// Learning rate of the per-graph encoders.
    pub learning_rate: f64,
    /// Ridge regularisation of the mapping.
    pub lambda: f64,
    /// Seed for the two independent weight initialisations.
    pub seed: u64,
}

impl Pale {
    /// Creates a PALE aligner with default hyper-parameters.
    pub fn new(seed: u64) -> Self {
        Self {
            embedding_dim: 32,
            epochs: 60,
            learning_rate: 0.02,
            lambda: 1e-3,
            seed,
        }
    }

    /// Embeds one network with its own (non-shared) auto-encoder.
    fn embed(&self, network: &AttributedNetwork, seed: u64) -> Result<DenseMatrix, BaselineError> {
        let propagator = normalized_adjacency(&network.graph().adjacency());
        let attrs = network.attributes();
        let mut rng = StdRng::seed_from_u64(seed);
        let dims = [attrs.cols(), self.embedding_dim, self.embedding_dim];
        let mut encoder = GcnEncoder::new(&dims, Activation::Tanh, &mut rng);
        let mut adam = Adam::for_parameters(self.learning_rate, encoder.weights());
        let mut cache = ForwardCache::new();
        for _ in 0..self.epochs {
            encoder
                .forward_into(&propagator, attrs, &mut cache)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
            let (_, grad_h) = reconstruction_loss_and_grad(&propagator, cache.output());
            let grads = encoder
                .backward(&propagator, &cache, &grad_h)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
            adam.step(encoder.weights_mut(), &grads);
        }
        encoder
            .forward(&propagator, attrs)
            .map_err(|e| BaselineError::Numerical(e.to_string()))
    }
}

impl Aligner for Pale {
    fn name(&self) -> &'static str {
        "PALE"
    }

    fn is_supervised(&self) -> bool {
        true
    }

    fn align(
        &self,
        source: &AttributedNetwork,
        target: &AttributedNetwork,
        seeds: &GroundTruth,
    ) -> Result<DenseMatrix, BaselineError> {
        let anchors: Vec<(usize, usize)> = seeds
            .anchors()
            .filter(|&(s, t)| s < source.num_nodes() && t < target.num_nodes())
            .collect();
        if anchors.is_empty() {
            return Err(BaselineError::MissingSupervision("PALE"));
        }
        let h_s = self.embed(source, self.seed)?;
        let h_t = self.embed(target, self.seed.wrapping_add(1))?;

        // Ridge least-squares mapping fitted on the seed anchors.
        let seed_rows_s: Vec<usize> = anchors.iter().map(|&(s, _)| s).collect();
        let seed_rows_t: Vec<usize> = anchors.iter().map(|&(_, t)| t).collect();
        let hs_seed = h_s.select_rows(&seed_rows_s);
        let ht_seed = h_t.select_rows(&seed_rows_t);
        let mut gram = hs_seed.gram();
        for i in 0..gram.rows() {
            gram.add_at(i, i, self.lambda);
        }
        let rhs = hs_seed
            .transpose()
            .matmul(&ht_seed)
            .map_err(|e| BaselineError::Numerical(e.to_string()))?;
        let mapping = gram
            .solve(&rhs)
            .map_err(|e| BaselineError::Numerical(e.to_string()))?;

        let mut mapped = h_s
            .matmul(&mapping)
            .map_err(|e| BaselineError::Numerical(e.to_string()))?;
        let mut h_t = h_t;
        l2_normalize_rows(&mut mapped);
        l2_normalize_rows(&mut h_t);
        mapped
            .matmul_transpose(&h_t)
            .map_err(|e| BaselineError::Numerical(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::generators::{barabasi_albert, seeded_rng};
    use htc_graph::Graph;
    use htc_linalg::ops::row_argmax;
    use rand::Rng;

    fn pair(n: usize) -> (AttributedNetwork, AttributedNetwork, GroundTruth) {
        let mut rng = seeded_rng(5);
        let g = barabasi_albert(n, 2, &mut rng);
        let data: Vec<f64> = (0..n * 4).map(|_| rng.gen_range(0.0..1.0)).collect();
        let x = DenseMatrix::from_vec(n, 4, data).unwrap();
        let s = AttributedNetwork::new(g.clone(), x.clone()).unwrap();
        let t = AttributedNetwork::new(g, x).unwrap();
        (s, t, GroundTruth::identity(n))
    }

    #[test]
    fn recovers_identity_alignment_with_seeds() {
        let (s, t, gt) = pair(30);
        let mut rng = seeded_rng(2);
        let seeds = gt.sample_fraction(0.2, &mut rng);
        let m = Pale::new(7).align(&s, &t, &seeds).unwrap();
        let best = row_argmax(&m);
        let correct = best.iter().enumerate().filter(|&(i, &j)| i == j).count();
        assert!(correct as f64 >= 0.5 * 30.0, "only {correct}/30 correct");
    }

    #[test]
    fn requires_seed_anchors() {
        let (s, t, _) = pair(10);
        let err = Pale::new(1)
            .align(&s, &t, &GroundTruth::new(vec![None; 10]))
            .unwrap_err();
        assert_eq!(err, BaselineError::MissingSupervision("PALE"));
    }

    #[test]
    fn metadata() {
        let p = Pale::new(0);
        assert_eq!(p.name(), "PALE");
        assert!(p.is_supervised());
    }

    #[test]
    fn embeddings_have_requested_dimension() {
        let (s, _, _) = pair(12);
        let h = Pale::new(3).embed(&s, 3).unwrap();
        assert_eq!(h.shape(), (12, 32));
        let g = Graph::empty(0);
        let _ = g; // silence unused in case of future edits
    }
}
