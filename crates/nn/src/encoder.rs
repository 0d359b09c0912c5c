//! The shared-parameter GCN encoder.
//!
//! One encoder instance holds the weight matrices `W⁰ … W^{L-1}` that the
//! paper shares between the source graph, the target graph and every orbit
//! view.  A forward pass is parameterised by a *propagator* — the normalised
//! orbit Laplacian `L̃_k` (Eq. 4–5), possibly wrapped by the reinforcement
//! matrices of the fine-tuning stage (Eq. 14) — and the node attribute matrix:
//!
//! ```text
//! H⁰ = X,   H^{l+1} = f_l(L̃ H^l W^l)
//! ```
//!
//! The backward pass assumes the propagator is **symmetric** (all propagators
//! in this workspace are: symmetric normalisation and the diagonal
//! reinforcement wrapping both preserve symmetry), which avoids materialising
//! its transpose.

use crate::activation::Activation;
use crate::init::xavier_uniform;
use htc_linalg::{CsrMatrix, DenseMatrix, LinalgError};
use rand::rngs::StdRng;

/// Intermediate quantities of one forward pass, needed for backpropagation.
///
/// A cache is reusable: passing the same instance to
/// [`GcnEncoder::forward_into`] across epochs reuses every internal
/// allocation, so steady-state training performs no per-product allocation.
#[derive(Debug, Clone, Default)]
pub struct ForwardCache {
    /// Propagated inputs `P_l = L̃ · H^{l-1}` for every layer.
    propagated: Vec<DenseMatrix>,
    /// Pre-activations `Z_l = P_l · W^l` for every layer.
    pre_activations: Vec<DenseMatrix>,
    /// Final output `H^L`.
    output: DenseMatrix,
    /// Ping buffer for the intermediate hidden states `H^1 … H^{L-1}` (only
    /// one is live at a time during a forward sweep).
    hidden: DenseMatrix,
}

impl ForwardCache {
    /// Creates an empty cache; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The final embedding of this forward pass.
    pub fn output(&self) -> &DenseMatrix {
        &self.output
    }

    /// Ensures the per-layer vectors hold exactly `layers` entries.
    fn ensure_layers(&mut self, layers: usize) {
        self.propagated.resize(layers, DenseMatrix::zeros(0, 0));
        self.pre_activations
            .resize(layers, DenseMatrix::zeros(0, 0));
    }
}

/// Scratch buffers for [`GcnEncoder::backward_into`]; reusable across calls
/// so steady-state backpropagation performs no per-product allocation.
#[derive(Debug, Clone, Default)]
pub struct BackwardScratch {
    /// Current upstream gradient `∂loss/∂H^l`.
    grad_h: DenseMatrix,
    /// Pre-activation gradient `dZ_l`.
    dz: DenseMatrix,
    /// Intermediate product `dZ_l · W_lᵀ`.
    dz_w: DenseMatrix,
}

impl BackwardScratch {
    /// Creates empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A neighbourhood-sampled mini-batch: a core set of nodes plus a capped
/// one-hop halo, restricted to a self-contained sub-problem.
///
/// The `Large` training tier cannot afford full-graph forward/backward passes
/// per step, so each optimisation step runs on the subgraph induced by a
/// slice of a shuffled node permutation (the *core* nodes) together with up
/// to `neighbor_cap` of each core node's one-hop neighbours.  The halo gives
/// the first GCN layer real aggregation context for every core node; deeper
/// layers see progressively truncated neighbourhoods, which is the standard
/// sampling approximation.
///
/// Determinism: the halo takes the *first* `neighbor_cap` neighbours in CSR
/// storage order (ascending column index), the combined node set is sorted
/// ascending, and [`CsrMatrix::sub_matrix`] preserves CSR order — so for a
/// fixed core set the batch is a pure function of the propagator, independent
/// of thread count or ISA lane.
#[derive(Debug, Clone)]
pub struct NodeBatch {
    nodes: Vec<usize>,
    propagator: CsrMatrix,
}

impl NodeBatch {
    /// Expands `core` (any order, duplicates allowed) against `propagator`
    /// and extracts the induced sub-propagator.
    ///
    /// `neighbor_cap = 0` disables halo expansion entirely (the batch is the
    /// core set alone).
    pub fn expand(
        propagator: &CsrMatrix,
        core: &[usize],
        neighbor_cap: usize,
    ) -> Result<Self, LinalgError> {
        let mut nodes: Vec<usize> = core.to_vec();
        for &n in core {
            nodes.extend(propagator.row(n).take(neighbor_cap).map(|(c, _)| c));
        }
        nodes.sort_unstable();
        nodes.dedup();
        let sub = propagator.sub_matrix(&nodes)?;
        Ok(Self {
            nodes,
            propagator: sub,
        })
    }

    /// The batch node ids, sorted ascending — row `i` of the sub-propagator
    /// (and of any attribute selection) corresponds to `nodes()[i]` in the
    /// full graph.
    pub fn nodes(&self) -> &[usize] {
        &self.nodes
    }

    /// The induced sub-propagator (symmetric, like its parent).
    pub fn propagator(&self) -> &CsrMatrix {
        &self.propagator
    }

    /// Number of nodes in the batch (core plus halo).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A multi-layer GCN encoder with shared weights.
#[derive(Debug, Clone)]
pub struct GcnEncoder {
    weights: Vec<DenseMatrix>,
    activations: Vec<Activation>,
}

impl GcnEncoder {
    /// Creates an encoder with layer dimensions `dims = [d_in, d_1, …, d_L]`
    /// (so `dims.len() - 1` layers), Xavier-initialised weights and the same
    /// activation on every layer.
    ///
    /// # Panics
    /// Panics if fewer than two dimensions are supplied.
    pub fn new(dims: &[usize], activation: Activation, rng: &mut StdRng) -> Self {
        assert!(
            dims.len() >= 2,
            "an encoder needs at least an input and an output dimension"
        );
        let weights: Vec<DenseMatrix> = dims
            .windows(2)
            .map(|w| xavier_uniform(w[0], w[1], rng))
            .collect();
        let activations = vec![activation; weights.len()];
        Self {
            weights,
            activations,
        }
    }

    /// Creates an encoder from explicit weights and per-layer activations.
    ///
    /// # Panics
    /// Panics if the number of activations differs from the number of weight
    /// matrices or if consecutive weight shapes are incompatible.
    pub fn from_weights(weights: Vec<DenseMatrix>, activations: Vec<Activation>) -> Self {
        assert_eq!(weights.len(), activations.len());
        for pair in weights.windows(2) {
            assert_eq!(
                pair[0].cols(),
                pair[1].rows(),
                "consecutive layer dimensions must match"
            );
        }
        Self {
            weights,
            activations,
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Input feature dimension expected by the first layer.
    pub fn input_dim(&self) -> usize {
        self.weights[0].rows()
    }

    /// Output embedding dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.last().expect("at least one layer").cols()
    }

    /// Immutable access to the weight matrices.
    pub fn weights(&self) -> &[DenseMatrix] {
        &self.weights
    }

    /// Mutable access to the weight matrices (used by the optimiser).
    pub fn weights_mut(&mut self) -> &mut [DenseMatrix] {
        &mut self.weights
    }

    /// Per-layer activations.
    pub fn activations(&self) -> &[Activation] {
        &self.activations
    }

    /// Plain forward pass returning the final embedding (allocates a fresh
    /// [`ForwardCache`] and keeps only its output).
    pub fn forward(
        &self,
        propagator: &CsrMatrix,
        features: &DenseMatrix,
    ) -> Result<DenseMatrix, LinalgError> {
        let mut cache = ForwardCache::new();
        self.forward_into(propagator, features, &mut cache)?;
        Ok(cache.output)
    }

    /// Forward pass into a caller-owned cache, reusing its buffers, and
    /// returning a borrow of its output.  The cache also records the
    /// intermediate quantities [`GcnEncoder::backward`] needs.  This is the
    /// allocation-free path (after warm-up) the training loop runs every
    /// `(graph, orbit, epoch)` combination and the fine-tuning loop runs
    /// every refinement iteration.
    pub fn forward_into<'c>(
        &self,
        propagator: &CsrMatrix,
        features: &DenseMatrix,
        cache: &'c mut ForwardCache,
    ) -> Result<&'c DenseMatrix, LinalgError> {
        let layers = self.num_layers();
        cache.ensure_layers(layers);
        let ForwardCache {
            propagated,
            pre_activations,
            output,
            hidden,
        } = cache;
        for l in 0..layers {
            // P_l = L̃ · H^{l-1} (layer 0 reads the features directly).
            if l == 0 {
                propagator.matmul_dense_into(features, &mut propagated[0])?;
            } else {
                propagator.matmul_dense_into(hidden, &mut propagated[l])?;
            }
            // Z_l = P_l · W^l.
            propagated[l].matmul_into(&self.weights[l], &mut pre_activations[l])?;
            // H^l = f_l(Z_l); the last layer writes the output slot.
            let dst = if l + 1 == layers {
                &mut *output
            } else {
                &mut *hidden
            };
            self.activations[l].apply_into(&pre_activations[l], dst);
        }
        Ok(output)
    }

    /// Backpropagates `grad_output = ∂loss/∂H^L` through the cached forward
    /// pass and returns `∂loss/∂W^l` for every layer.
    ///
    /// The propagator must be the same (symmetric) matrix used in the forward
    /// pass.
    pub fn backward(
        &self,
        propagator: &CsrMatrix,
        cache: &ForwardCache,
        grad_output: &DenseMatrix,
    ) -> Result<Vec<DenseMatrix>, LinalgError> {
        let mut grads: Vec<DenseMatrix> = self
            .weights
            .iter()
            .map(|w| DenseMatrix::zeros(w.rows(), w.cols()))
            .collect();
        let mut scratch = BackwardScratch::new();
        self.backward_into(propagator, cache, grad_output, &mut grads, &mut scratch)?;
        Ok(grads)
    }

    /// Like [`GcnEncoder::backward`], but overwrites caller-owned gradient
    /// matrices and reuses caller-owned scratch buffers.
    ///
    /// `grads` must hold one matrix per layer (any shape — they are resized).
    ///
    /// # Panics
    /// Panics if `grads.len()` differs from the number of layers.
    pub fn backward_into(
        &self,
        propagator: &CsrMatrix,
        cache: &ForwardCache,
        grad_output: &DenseMatrix,
        grads: &mut [DenseMatrix],
        scratch: &mut BackwardScratch,
    ) -> Result<(), LinalgError> {
        let layers = self.num_layers();
        assert_eq!(grads.len(), layers, "one gradient slot per layer");
        let BackwardScratch { grad_h, dz, dz_w } = scratch;
        grad_h.copy_from(grad_output);
        for l in (0..layers).rev() {
            // dZ_l = dH_l ∘ f'(Z_l), fused into one traversal.
            self.activations[l].backprop_into(&cache.pre_activations[l], grad_h, dz);
            // dW_l = P_lᵀ dZ_l, without materialising the transpose.
            cache.propagated[l].transposed_matmul_into(dz, &mut grads[l])?;
            if l > 0 {
                // dH_{l-1} = L̃ᵀ (dZ_l W_lᵀ); the propagator is symmetric so
                // L̃ᵀ = L̃.
                dz.matmul_transpose_into(&self.weights[l], dz_w)?;
                propagator.matmul_dense_into(dz_w, grad_h)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::reconstruction_loss_and_grad;
    use rand::SeedableRng;

    fn toy_propagator() -> CsrMatrix {
        // Symmetric normalised Laplacian-like matrix of a 4-node path.
        let triplets = vec![
            (0, 0, 0.5),
            (0, 1, 0.4),
            (1, 0, 0.4),
            (1, 1, 0.3),
            (1, 2, 0.35),
            (2, 1, 0.35),
            (2, 2, 0.3),
            (2, 3, 0.4),
            (3, 2, 0.4),
            (3, 3, 0.5),
        ];
        CsrMatrix::from_triplets(4, 4, &triplets).unwrap()
    }

    fn toy_features() -> DenseMatrix {
        DenseMatrix::from_vec(
            4,
            3,
            vec![
                1.0, 0.2, -0.3, 0.5, -1.0, 0.8, 0.0, 0.7, 1.2, -0.4, 0.1, 0.6,
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = GcnEncoder::new(&[3, 8, 4], Activation::Tanh, &mut rng);
        assert_eq!(enc.num_layers(), 2);
        assert_eq!(enc.input_dim(), 3);
        assert_eq!(enc.output_dim(), 4);
        let out = enc.forward(&toy_propagator(), &toy_features()).unwrap();
        assert_eq!(out.shape(), (4, 4));
        assert!(out.data().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    #[should_panic(expected = "at least an input and an output dimension")]
    fn rejects_too_few_dims() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = GcnEncoder::new(&[3], Activation::Tanh, &mut rng);
    }

    #[test]
    fn forward_is_deterministic_given_weights() {
        let mut rng = StdRng::seed_from_u64(5);
        let enc = GcnEncoder::new(&[3, 5, 2], Activation::Relu, &mut rng);
        let a = enc.forward(&toy_propagator(), &toy_features()).unwrap();
        let b = enc.forward(&toy_propagator(), &toy_features()).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn shared_weights_map_identical_inputs_identically() {
        // Proposition 1's mechanism: the same encoder applied to identical
        // (propagator, features) pairs yields identical embeddings.
        let mut rng = StdRng::seed_from_u64(9);
        let enc = GcnEncoder::new(&[3, 6, 3], Activation::Tanh, &mut rng);
        let h_source = enc.forward(&toy_propagator(), &toy_features()).unwrap();
        let h_target = enc.forward(&toy_propagator(), &toy_features()).unwrap();
        assert!(h_source.approx_eq(&h_target, 0.0));
    }

    #[test]
    fn backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut enc = GcnEncoder::new(&[3, 5, 3], Activation::Tanh, &mut rng);
        let prop = toy_propagator();
        let x = toy_features();
        let target = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 0, 0.8),
                (0, 1, 0.2),
                (1, 0, 0.2),
                (1, 1, 0.6),
                (2, 2, 0.9),
                (2, 3, 0.1),
                (3, 2, 0.1),
                (3, 3, 0.7),
            ],
        )
        .unwrap();

        // Analytic gradient.
        let mut cache = ForwardCache::new();
        enc.forward_into(&prop, &x, &mut cache).unwrap();
        let (_, grad_h) = reconstruction_loss_and_grad(&target, cache.output());
        let grads = enc.backward(&prop, &cache, &grad_h).unwrap();

        // Finite differences on a handful of weight entries.
        let eps = 1e-5;
        #[allow(clippy::needless_range_loop)]
        for layer in 0..enc.num_layers() {
            for &(r, c) in &[(0usize, 0usize), (1, 2), (2, 1)] {
                if r >= enc.weights()[layer].rows() || c >= enc.weights()[layer].cols() {
                    continue;
                }
                let original = enc.weights()[layer].get(r, c);
                enc.weights_mut()[layer].set(r, c, original + eps);
                let h_plus = enc.forward(&prop, &x).unwrap();
                let (loss_plus, _) = reconstruction_loss_and_grad(&target, &h_plus);
                enc.weights_mut()[layer].set(r, c, original - eps);
                let h_minus = enc.forward(&prop, &x).unwrap();
                let (loss_minus, _) = reconstruction_loss_and_grad(&target, &h_minus);
                enc.weights_mut()[layer].set(r, c, original);
                let numeric = (loss_plus - loss_minus) / (2.0 * eps);
                let analytic = grads[layer].get(r, c);
                assert!(
                    (numeric - analytic).abs() < 1e-4 * (1.0 + analytic.abs()),
                    "layer {layer} ({r},{c}): numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn node_batch_expands_capped_csr_order_halo() {
        let prop = toy_propagator();
        // Core {0}: neighbours in CSR order are 0 then 1; cap 1 keeps only
        // the first, but 0 is already a core node, so the halo is just {0}.
        let batch = NodeBatch::expand(&prop, &[0], 1).unwrap();
        assert_eq!(batch.nodes(), &[0]);
        // Cap 2 reaches node 1 as well.
        let batch = NodeBatch::expand(&prop, &[0], 2).unwrap();
        assert_eq!(batch.nodes(), &[0, 1]);
        assert_eq!(batch.propagator().shape(), (2, 2));
        // The induced sub-propagator matches the dense principal block.
        let dense = prop.to_dense();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(batch.propagator().get(i, j), dense.get(i, j));
            }
        }
        // Symmetry is preserved by principal-block extraction.
        assert!(batch.propagator().is_symmetric(0.0));
    }

    #[test]
    fn node_batch_is_order_insensitive_and_deduplicated() {
        let prop = toy_propagator();
        let a = NodeBatch::expand(&prop, &[3, 1], 8).unwrap();
        let b = NodeBatch::expand(&prop, &[1, 3, 1], 8).unwrap();
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.propagator(), b.propagator());
        // With an uncapped halo the two cores pull in all four path nodes.
        assert_eq!(a.nodes(), &[0, 1, 2, 3]);
        assert_eq!(a.propagator(), &prop);
    }

    #[test]
    fn node_batch_zero_cap_keeps_core_only() {
        let prop = toy_propagator();
        let batch = NodeBatch::expand(&prop, &[1, 2], 0).unwrap();
        assert_eq!(batch.nodes(), &[1, 2]);
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
    }

    #[test]
    fn from_weights_validates_shapes() {
        let w0 = DenseMatrix::zeros(3, 4);
        let w1 = DenseMatrix::zeros(4, 2);
        let enc =
            GcnEncoder::from_weights(vec![w0, w1], vec![Activation::Relu, Activation::Identity]);
        assert_eq!(enc.output_dim(), 2);
    }

    #[test]
    #[should_panic(expected = "consecutive layer dimensions must match")]
    fn from_weights_rejects_mismatched_shapes() {
        let w0 = DenseMatrix::zeros(3, 4);
        let w1 = DenseMatrix::zeros(5, 2);
        let _ = GcnEncoder::from_weights(vec![w0, w1], vec![Activation::Relu, Activation::Relu]);
    }

    #[test]
    fn forward_rejects_wrong_feature_dim() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = GcnEncoder::new(&[5, 4], Activation::Tanh, &mut rng);
        assert!(enc.forward(&toy_propagator(), &toy_features()).is_err());
    }
}
