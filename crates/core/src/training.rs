//! Multi-orbit-aware training (Algorithm 1 of the paper).
//!
//! A single GCN encoder — one set of weights `W⁰ … W^{L-1}` — is shared
//! between the source graph, the target graph and every orbit view.  Each
//! epoch accumulates the gradient of the orbit-reconstruction loss
//! (Eq. 6–8) over all `(graph, orbit)` combinations and applies one Adam
//! step.  Sharing the encoder is what turns consistency into embedding
//! similarity (Proposition 1) and what makes the encoder *multi-orbit-aware*
//! (and, as the robustness experiment shows, tolerant to missing edges).

use crate::config::HtcConfig;
use crate::error::HtcError;
use crate::Result;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::NodeBatch;
use htc_nn::{
    loss::reconstruction_loss_and_grad_into, Activation, Adam, BackwardScratch, ForwardCache,
    GcnEncoder, LossScratch,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One-hop halo cap for neighbourhood-sampled mini-batches: each core node
/// contributes at most this many neighbours (the first ones in CSR order, so
/// the expansion is deterministic).  A small fixed cap bounds a batch at
/// `batch_size * (1 + NEIGHBOR_CAP)` nodes regardless of hub degrees, which
/// is what keeps per-step memory flat on power-law graphs.
const NEIGHBOR_CAP: usize = 16;

/// The outcome of the multi-orbit-aware training stage.
#[derive(Debug, Clone)]
pub struct TrainedModel {
    /// The shared encoder after training.
    pub encoder: GcnEncoder,
    /// Total reconstruction loss `Γ` per epoch (summed over graphs and
    /// orbits), useful for convergence diagnostics.
    pub loss_history: Vec<f64>,
}

/// Trains the shared encoder on every orbit Laplacian of both graphs.
///
/// `source_laplacians` and `target_laplacians` must have the same length (one
/// propagator per topological view) and the two attribute matrices must share
/// their column dimension.  `on_epoch(epoch, total_loss)` runs after every
/// epoch; returning `false` cancels the run cooperatively with
/// [`HtcError::Cancelled`] (pass `&mut |_, _| true` to run to completion).
pub fn train_multi_orbit(
    source_laplacians: &[CsrMatrix],
    target_laplacians: &[CsrMatrix],
    source_attrs: &DenseMatrix,
    target_attrs: &DenseMatrix,
    config: &HtcConfig,
    on_epoch: &mut dyn FnMut(usize, f64) -> bool,
) -> Result<TrainedModel> {
    assert_eq!(
        source_laplacians.len(),
        target_laplacians.len(),
        "both graphs must expose the same number of topological views"
    );
    assert_eq!(
        source_attrs.cols(),
        target_attrs.cols(),
        "the shared encoder requires a common attribute dimensionality"
    );
    // Orbit-major interleaving — (source, k), (target, k), (source, k+1), … —
    // fixes the floating-point accumulation order of the losses and gradient
    // sums; the session API's bit-identity guarantee depends on it.
    let passes: Vec<(&CsrMatrix, &DenseMatrix)> = source_laplacians
        .iter()
        .zip(target_laplacians)
        .flat_map(|(lap_s, lap_t)| [(lap_s, source_attrs), (lap_t, target_attrs)])
        .collect();
    train_over_passes(&passes, source_attrs.cols(), config, on_epoch)
}

/// Trains the shared encoder over the views of a *single* graph — the serving
/// path of `AlignmentSession::align_many`, where one catalog graph is trained
/// once and its encoder is reused against many incoming graphs.
///
/// Each epoch makes one pass per view (not the doubled source/target sweep of
/// [`train_multi_orbit`]), so an epoch costs half as much as the pairwise
/// equivalent.  `on_epoch` behaves as in [`train_multi_orbit`].
pub fn train_single_graph(
    laplacians: &[CsrMatrix],
    attrs: &DenseMatrix,
    config: &HtcConfig,
    on_epoch: &mut dyn FnMut(usize, f64) -> bool,
) -> Result<TrainedModel> {
    let passes: Vec<(&CsrMatrix, &DenseMatrix)> =
        laplacians.iter().map(|lap| (lap, attrs)).collect();
    train_over_passes(&passes, attrs.cols(), config, on_epoch)
}

/// The shared epoch loop.
///
/// With `config.batch_size == 0` (the dense tier): one Adam step per epoch
/// over the gradient summed across `passes`, in the exact order given.
///
/// With `config.batch_size > 0` (the `Large` tier): each epoch shuffles a
/// per-pass node permutation and takes one Adam step per batch index, where a
/// step accumulates the gradients of every pass's current
/// neighbourhood-sampled [`NodeBatch`] in the same pass order.  See the
/// determinism notes inside the loop.
fn train_over_passes(
    passes: &[(&CsrMatrix, &DenseMatrix)],
    input_dim: usize,
    config: &HtcConfig,
    on_epoch: &mut dyn FnMut(usize, f64) -> bool,
) -> Result<TrainedModel> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut dims = Vec::with_capacity(config.hidden_dims.len() + 1);
    dims.push(input_dim);
    dims.extend_from_slice(&config.hidden_dims);
    // Every layer uses tanh, the paper's GCN nonlinearity.
    let mut encoder = GcnEncoder::new(&dims, Activation::Tanh, &mut rng);
    let mut optimizer = Adam::for_parameters(config.learning_rate, encoder.weights());

    // All per-product buffers are hoisted out of the epoch loop: after the
    // first (graph, orbit) pass every forward, loss and backward evaluation
    // reuses these allocations (the packed GEMM panels are likewise reused
    // through thread-locals inside htc-linalg).
    let mut grad_accum: Vec<DenseMatrix> = encoder
        .weights()
        .iter()
        .map(|w| DenseMatrix::zeros(w.rows(), w.cols()))
        .collect();
    let mut grads: Vec<DenseMatrix> = grad_accum.clone();
    let mut cache = ForwardCache::new();
    let mut grad_h = DenseMatrix::zeros(0, 0);
    let mut loss_scratch = LossScratch::new();
    let mut backward_scratch = BackwardScratch::new();

    // Mini-batch state (only used when `config.batch_size > 0`): one node
    // permutation per pass, reshuffled every epoch from the same seeded RNG
    // stream that initialised the encoder.
    let minibatch = config.batch_size > 0;
    let mut permutations: Vec<Vec<usize>> = if minibatch {
        passes
            .iter()
            .map(|(lap, _)| (0..lap.rows()).collect())
            .collect()
    } else {
        Vec::new()
    };

    let mut loss_history = Vec::with_capacity(config.epochs);
    for epoch in 0..config.epochs {
        let total_loss = if minibatch {
            // Neighbourhood-sampled mini-batch epoch.  The permutations are
            // drawn in pass order from the single seeded RNG, and within one
            // optimisation step the passes are visited in the same
            // orbit-major interleaving as the full-batch loop — (source, k),
            // (target, k), (source, k+1), … — which fixes the floating-point
            // accumulation order of the losses and gradient sums; the
            // session API's bit-identity guarantee depends on it.  Every
            // batch is processed strictly sequentially (parallelism lives
            // inside the kernels, which are bit-identical across thread
            // counts), so a fixed seed yields bit-identical weights across
            // `HTC_NUM_THREADS` and `HTC_FORCE_ISA` settings.
            for perm in &mut permutations {
                perm.shuffle(&mut rng);
            }
            let num_batches = passes
                .iter()
                .map(|(lap, _)| lap.rows().div_ceil(config.batch_size))
                .max()
                .unwrap_or(0);
            let mut epoch_loss = 0.0;
            for b in 0..num_batches {
                for accum in &mut grad_accum {
                    accum.data_mut().fill(0.0);
                }
                let mut step_has_work = false;
                for (perm, &(lap, attrs)) in permutations.iter().zip(passes) {
                    let start = b * config.batch_size;
                    if start >= perm.len() {
                        continue;
                    }
                    let end = (start + config.batch_size).min(perm.len());
                    let batch = NodeBatch::expand(lap, &perm[start..end], NEIGHBOR_CAP)?;
                    let sub_attrs = attrs.select_rows(batch.nodes());
                    encoder.forward_into(batch.propagator(), &sub_attrs, &mut cache)?;
                    epoch_loss += reconstruction_loss_and_grad_into(
                        batch.propagator(),
                        cache.output(),
                        &mut grad_h,
                        &mut loss_scratch,
                    );
                    encoder.backward_into(
                        batch.propagator(),
                        &cache,
                        &grad_h,
                        &mut grads,
                        &mut backward_scratch,
                    )?;
                    for (accum, grad) in grad_accum.iter_mut().zip(&grads) {
                        accum.add_scaled_inplace(grad, 1.0)?;
                    }
                    step_has_work = true;
                }
                if step_has_work {
                    optimizer.step(encoder.weights_mut(), &grad_accum);
                }
            }
            epoch_loss
        } else {
            for accum in &mut grad_accum {
                accum.data_mut().fill(0.0);
            }
            let mut epoch_loss = 0.0;
            for &(lap, attrs) in passes {
                encoder.forward_into(lap, attrs, &mut cache)?;
                epoch_loss += reconstruction_loss_and_grad_into(
                    lap,
                    cache.output(),
                    &mut grad_h,
                    &mut loss_scratch,
                );
                encoder.backward_into(lap, &cache, &grad_h, &mut grads, &mut backward_scratch)?;
                for (accum, grad) in grad_accum.iter_mut().zip(&grads) {
                    accum.add_scaled_inplace(grad, 1.0)?;
                }
            }
            optimizer.step(encoder.weights_mut(), &grad_accum);
            epoch_loss
        };
        loss_history.push(total_loss);
        if !on_epoch(epoch, total_loss) {
            return Err(HtcError::Cancelled);
        }
    }

    Ok(TrainedModel {
        encoder,
        loss_history,
    })
}

/// Runs the trained encoder over every view of one graph, returning one
/// embedding matrix per view.
pub fn generate_embeddings(
    encoder: &GcnEncoder,
    laplacians: &[CsrMatrix],
    attrs: &DenseMatrix,
) -> Result<Vec<DenseMatrix>> {
    laplacians
        .iter()
        .map(|lap| encoder.forward(lap, attrs).map_err(Into::into))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::orbit_laplacians;
    use htc_graph::Graph;
    use htc_orbits::{GomSet, GomWeighting};

    fn toy_setup() -> (Vec<CsrMatrix>, Vec<CsrMatrix>, DenseMatrix, DenseMatrix) {
        let gs = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5)]).unwrap();
        let gt = gs.clone();
        let goms_s = GomSet::build(&gs, 4, GomWeighting::Weighted);
        let goms_t = GomSet::build(&gt, 4, GomWeighting::Weighted);
        let xs = DenseMatrix::from_vec(
            6,
            2,
            vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.5, 0.5, 1.0],
        )
        .unwrap();
        let xt = xs.clone();
        (orbit_laplacians(&goms_s), orbit_laplacians(&goms_t), xs, xt)
    }

    #[test]
    fn loss_decreases_during_training() {
        let (ls, lt, xs, xt) = toy_setup();
        let mut config = HtcConfig::fast();
        config.epochs = 40;
        let model = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        assert_eq!(model.loss_history.len(), 40);
        let first = model.loss_history[0];
        let last = *model.loss_history.last().unwrap();
        assert!(
            last < first,
            "training should reduce the reconstruction loss ({first} -> {last})"
        );
        assert!(last.is_finite());
    }

    #[test]
    fn identical_graphs_get_identical_embeddings() {
        // Proposition 1: with shared weights and identical inputs, source and
        // target embeddings coincide.
        let (ls, lt, xs, xt) = toy_setup();
        let config = HtcConfig::fast();
        let model = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        let hs = generate_embeddings(&model.encoder, &ls, &xs).unwrap();
        let ht = generate_embeddings(&model.encoder, &lt, &xt).unwrap();
        assert_eq!(hs.len(), ht.len());
        for (a, b) in hs.iter().zip(&ht) {
            assert!(a.approx_eq(b, 1e-12));
        }
    }

    #[test]
    fn training_is_deterministic_given_seed() {
        let (ls, lt, xs, xt) = toy_setup();
        let config = HtcConfig::fast();
        let a = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        let b = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        assert_eq!(a.loss_history, b.loss_history);
        for (wa, wb) in a.encoder.weights().iter().zip(b.encoder.weights()) {
            assert!(wa.approx_eq(wb, 0.0));
        }
    }

    #[test]
    fn embedding_dimensions_follow_config() {
        let (ls, lt, xs, xt) = toy_setup();
        let config = HtcConfig::fast().with_embedding_dim(5);
        let model = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        let hs = generate_embeddings(&model.encoder, &ls, &xs).unwrap();
        assert_eq!(hs[0].shape(), (6, 5));
    }

    #[test]
    #[should_panic(expected = "same number of topological views")]
    fn mismatched_view_counts_panic() {
        let (ls, lt, xs, xt) = toy_setup();
        let config = HtcConfig::fast();
        let _ = train_multi_orbit(&ls[..2], &lt, &xs, &xt, &config, &mut |_, _| true);
    }

    #[test]
    fn epoch_callback_sees_every_epoch_and_can_cancel() {
        let (ls, lt, xs, xt) = toy_setup();
        let config = HtcConfig::fast();

        let mut seen = Vec::new();
        let model = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |epoch, loss| {
            seen.push((epoch, loss));
            true
        })
        .unwrap();
        assert_eq!(seen.len(), config.epochs);
        assert_eq!(seen.last().unwrap().1, *model.loss_history.last().unwrap());

        let err =
            train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |epoch, _| epoch < 2).unwrap_err();
        assert_eq!(err, HtcError::Cancelled);
    }

    #[test]
    fn minibatch_training_converges_and_is_deterministic() {
        let (ls, lt, xs, xt) = toy_setup();
        let mut config = HtcConfig::fast();
        config.epochs = 40;
        config.batch_size = 3; // 6 nodes → 2 batches per pass per epoch
        let a = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        assert_eq!(a.loss_history.len(), 40);
        assert!(a.loss_history.iter().all(|l| l.is_finite()));
        assert!(
            a.loss_history.last().unwrap() < &a.loss_history[0],
            "mini-batch training should reduce the loss ({} -> {})",
            a.loss_history[0],
            a.loss_history.last().unwrap()
        );
        let b = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        assert_eq!(a.loss_history, b.loss_history);
        for (wa, wb) in a.encoder.weights().iter().zip(b.encoder.weights()) {
            assert!(wa.approx_eq(wb, 0.0));
        }
    }

    #[test]
    fn minibatch_covering_batch_still_trains() {
        // batch_size ≥ n: every epoch is a single batch containing all nodes
        // (plus a no-op halo), i.e. the mini-batch machinery degrades
        // gracefully to whole-graph steps.
        let (ls, lt, xs, xt) = toy_setup();
        let mut config = HtcConfig::fast();
        config.epochs = 30;
        config.batch_size = 64;
        let model = train_multi_orbit(&ls, &lt, &xs, &xt, &config, &mut |_, _| true).unwrap();
        assert!(model.loss_history.last().unwrap() < &model.loss_history[0]);
    }

    #[test]
    fn single_graph_training_converges() {
        let (ls, _, xs, _) = toy_setup();
        let mut config = HtcConfig::fast();
        config.epochs = 30;
        let model = train_single_graph(&ls, &xs, &config, &mut |_, _| true).unwrap();
        assert_eq!(model.loss_history.len(), 30);
        assert!(model.loss_history.last().unwrap() < &model.loss_history[0]);
        assert_eq!(model.encoder.input_dim(), xs.cols());
    }
}
