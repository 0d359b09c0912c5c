//! GAlign-style unsupervised multi-order GCN alignment (Trung et al., ICDE
//! 2020) — the paper's strongest unsupervised competitor.
//!
//! GAlign trains a shared-weight multi-layer GCN on both graphs without
//! labels and aligns nodes by combining the embedding similarities of *every*
//! GCN layer (its "multi-order" mechanism), together with an
//! augmentation-based refinement that makes it robust to consistency
//! violations.  This implementation keeps:
//!
//! * the shared-weight GCN auto-encoder over the normalised adjacency,
//! * per-layer embeddings combined with equal weights,
//! * an augmentation consistency pass: the encoder is additionally trained on
//!   an edge-dropped view of each graph so the embeddings are stable under
//!   structural noise (the mechanism behind GAlign's robustness in Fig. 9).
//!
//! The adaptive per-node weighting of the original refinement stage is
//! replaced by the uniform layer combination (documented simplification).

use crate::traits::{Aligner, BaselineError};
use htc_core::laplacian::normalized_adjacency;
use htc_graph::perturb::remove_edges;
use htc_graph::perturb::GroundTruth;
use htc_graph::AttributedNetwork;
use htc_linalg::ops::pearson_normalize_rows;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::{loss::reconstruction_loss_and_grad, Activation, Adam, ForwardCache, GcnEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// GAlign-style aligner configuration.
#[derive(Debug, Clone)]
pub struct GAlign {
    /// Embedding dimension of every GCN layer.
    pub embedding_dim: usize,
    /// Number of GCN layers (the "orders" whose embeddings are combined).
    pub num_layers: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Edge-drop ratio of the augmented views.
    pub augmentation_drop: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GAlign {
    /// Creates a GAlign-style aligner with defaults close to the original
    /// (2 layers, modest embedding dimension).
    pub fn new(seed: u64) -> Self {
        Self {
            embedding_dim: 64,
            num_layers: 2,
            epochs: 60,
            learning_rate: 0.02,
            augmentation_drop: 0.1,
            seed,
        }
    }

    fn layer_embeddings(
        encoder: &GcnEncoder,
        propagator: &CsrMatrix,
        attrs: &DenseMatrix,
    ) -> Result<Vec<DenseMatrix>, BaselineError> {
        // Re-run the forward pass layer by layer to expose every order.
        let mut embeddings = Vec::with_capacity(encoder.num_layers());
        let mut h = attrs.clone();
        for (w, act) in encoder.weights().iter().zip(encoder.activations()) {
            let p = propagator
                .matmul_dense(&h)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
            let z = p
                .matmul(w)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
            h = act.apply(&z);
            embeddings.push(h.clone());
        }
        Ok(embeddings)
    }
}

impl Aligner for GAlign {
    fn name(&self) -> &'static str {
        "GAlign"
    }

    fn align(
        &self,
        source: &AttributedNetwork,
        target: &AttributedNetwork,
        _seeds: &GroundTruth,
    ) -> Result<DenseMatrix, BaselineError> {
        if source.attr_dim() != target.attr_dim() {
            return Err(BaselineError::IncompatibleInputs(
                "GAlign requires a shared attribute space".into(),
            ));
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Original and augmented (edge-dropped) propagators for both graphs.
        let prop_s = normalized_adjacency(&source.graph().adjacency());
        let prop_t = normalized_adjacency(&target.graph().adjacency());
        let aug_s = normalized_adjacency(
            &remove_edges(source.graph(), self.augmentation_drop, &mut rng).adjacency(),
        );
        let aug_t = normalized_adjacency(
            &remove_edges(target.graph(), self.augmentation_drop, &mut rng).adjacency(),
        );

        // Shared encoder trained to reconstruct every view.
        let mut dims = vec![source.attr_dim()];
        dims.extend(std::iter::repeat_n(self.embedding_dim, self.num_layers));
        let mut encoder = GcnEncoder::new(&dims, Activation::Tanh, &mut rng);
        let mut adam = Adam::for_parameters(self.learning_rate, encoder.weights());
        let views: Vec<(&CsrMatrix, &DenseMatrix)> = vec![
            (&prop_s, source.attributes()),
            (&prop_t, target.attributes()),
            (&aug_s, source.attributes()),
            (&aug_t, target.attributes()),
        ];
        let mut cache = ForwardCache::new();
        for _ in 0..self.epochs {
            let mut grad_accum: Vec<DenseMatrix> = encoder
                .weights()
                .iter()
                .map(|w| DenseMatrix::zeros(w.rows(), w.cols()))
                .collect();
            for (prop, attrs) in &views {
                encoder
                    .forward_into(prop, attrs, &mut cache)
                    .map_err(|e| BaselineError::Numerical(e.to_string()))?;
                let (_, grad_h) = reconstruction_loss_and_grad(prop, cache.output());
                let grads = encoder
                    .backward(prop, &cache, &grad_h)
                    .map_err(|e| BaselineError::Numerical(e.to_string()))?;
                for (a, g) in grad_accum.iter_mut().zip(&grads) {
                    a.add_scaled_inplace(g, 1.0)
                        .map_err(|e| BaselineError::Numerical(e.to_string()))?;
                }
            }
            adam.step(encoder.weights_mut(), &grad_accum);
        }

        // Multi-order alignment: sum of per-layer Pearson similarities.
        let layers_s = Self::layer_embeddings(&encoder, &prop_s, source.attributes())?;
        let layers_t = Self::layer_embeddings(&encoder, &prop_t, target.attributes())?;
        let mut alignment = DenseMatrix::zeros(source.num_nodes(), target.num_nodes());
        for (hs, ht) in layers_s.into_iter().zip(layers_t) {
            let mut hs = hs;
            let mut ht = ht;
            pearson_normalize_rows(&mut hs);
            pearson_normalize_rows(&mut ht);
            let sim = hs
                .matmul_transpose(&ht)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
            alignment
                .add_scaled_inplace(&sim, 1.0 / self.num_layers as f64)
                .map_err(|e| BaselineError::Numerical(e.to_string()))?;
        }
        Ok(alignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_graph::generators::{planted_partition, seeded_rng};
    use htc_linalg::ops::row_argmax;
    use rand::Rng;

    fn pair(n: usize) -> (AttributedNetwork, AttributedNetwork, GroundTruth) {
        let mut rng = seeded_rng(21);
        let (g, labels) = planted_partition(n, 4, 0.25, 0.02, &mut rng);
        let mut data = Vec::with_capacity(n * 6);
        for &label in labels.iter().take(n) {
            for b in 0..6 {
                let base = if label % 6 == b { 1.0 } else { 0.0 };
                let flip = rng.gen::<f64>() < 0.05;
                data.push(if flip { 1.0 - base } else { base });
            }
        }
        let x = DenseMatrix::from_vec(n, 6, data).unwrap();
        (
            AttributedNetwork::new(g.clone(), x.clone()).unwrap(),
            AttributedNetwork::new(g, x).unwrap(),
            GroundTruth::identity(n),
        )
    }

    #[test]
    fn aligns_identical_graphs_better_than_chance() {
        let (s, t, _) = pair(40);
        let m = GAlign::new(5)
            .align(&s, &t, &GroundTruth::new(vec![None; 40]))
            .unwrap();
        let best = row_argmax(&m);
        let correct = best.iter().enumerate().filter(|&(i, &j)| i == j).count();
        assert!(correct >= 8, "only {correct}/40 correct (chance ≈ 1)");
    }

    #[test]
    fn unsupervised_and_named() {
        let g = GAlign::new(0);
        assert_eq!(g.name(), "GAlign");
        assert!(!g.is_supervised());
    }

    #[test]
    fn deterministic_given_seed() {
        let (s, t, _) = pair(20);
        let gt = GroundTruth::new(vec![None; 20]);
        let a = GAlign::new(3).align(&s, &t, &gt).unwrap();
        let b = GAlign::new(3).align(&s, &t, &gt).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn rejects_mismatched_attribute_spaces() {
        let (s, t, _) = pair(10);
        let bad = t.with_attributes(DenseMatrix::zeros(10, 2)).unwrap();
        assert!(GAlign::new(0)
            .align(&s, &bad, &GroundTruth::identity(0))
            .is_err());
    }
}
