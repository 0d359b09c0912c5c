//! Trusted-pair based fine-tuning (Algorithm 2, Eq. 13–14).
//!
//! After training, each orbit's embeddings are refined independently:
//!
//! 1. evaluate LISI for the current embeddings with the blocked sweep
//!    ([`lisi_topk`]), which never materialises the `n_s × n_t` matrix;
//! 2. identify trusted pairs (mutual LISI arg-maxes, tracked exactly by the
//!    sweep) and count them;
//! 3. multiply the reinforcement factor of both ends of every trusted pair by
//!    `β` (Eq. 13);
//! 4. re-encode both graphs with the reinforced propagator `R L̃ R` (Eq. 14);
//! 5. repeat until the trusted-pair count stops growing.
//!
//! The same sweep runs in every [`ScaleTier`](crate::ScaleTier): its trusted
//! pairs equal the dense matrix's bit for bit, so the tier only decides what
//! integration does afterwards (recompute the full ranking, or merge the
//! retained top-k).
//!
//! Proposition 2 of the paper shows that boosting the aggregation
//! coefficients of trusted anchors pulls the embeddings of their undiscovered
//! neighbouring anchors closer together, which is why the count tends to grow
//! for a few rounds before saturating.

use crate::config::HtcConfig;
use crate::error::HtcError;
use crate::lisi::{default_block_rows, lisi_topk, BlockedLisiScratch, SweepControl, SweepStats};
use crate::session::ProgressObserver;
use crate::topk::TopKRows;
use crate::Result;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_nn::{ForwardCache, GcnEncoder};
use std::sync::Arc;

/// Byte budget for caching pass-1 correlation blocks of each sweep so pass 2
/// can skip their GEMMs.  A pure execution strategy: results are
/// bit-identical for every budget.
const SWEEP_CACHE_BYTES: usize = 256 << 20;

/// The refined state of a single orbit after fine-tuning.
#[derive(Debug, Clone)]
pub struct OrbitRefinement {
    /// Refined source embeddings for this orbit.
    pub source_embedding: DenseMatrix,
    /// Refined target embeddings for this orbit.
    pub target_embedding: DenseMatrix,
    /// The maximal number of trusted pairs observed (the `Tm_k` of Alg. 2);
    /// this is the weight ingredient of the posterior importance assignment.
    pub trusted_count: usize,
    /// Number of refinement iterations actually executed.
    pub iterations: usize,
    /// The top-[`top_k`](HtcConfig::top_k) LISI candidates of the best
    /// iteration.  `Large`-tier integration merges them directly instead of
    /// re-running a similarity sweep per orbit.
    pub topk: TopKRows,
    /// Block counters accumulated over every sweep this refinement ran.
    pub sweep_stats: SweepStats,
}

/// Runs Algorithm 2 for one orbit.
///
/// `lap_source` / `lap_target` are the orbit's normalised Laplacians; the
/// encoder is the (already trained) shared encoder.  When `config.fine_tune`
/// is `false` the function still evaluates the initial LISI sweep and
/// trusted-pair count (needed for the posterior importance weights) but
/// performs no reinforcement.
///
/// `orbit` only labels observer events.  The observer's
/// [`on_finetune_iteration`](ProgressObserver::on_finetune_iteration) fires
/// once per refinement iteration with the trusted-pair count, and
/// [`on_sweep_block`](ProgressObserver::on_sweep_block) fires at row-block
/// granularity inside each sweep, so deadline observers can interrupt a
/// long sweep mid-flight.  Both cancel with [`HtcError::Cancelled`] when
/// they return `false`.
///
/// The large buffers are reused across iterations: forward passes reuse two
/// [`ForwardCache`]s, the Eq. 14 reinforcement boost rescales into
/// persistent boosted-Laplacian scratch (`scale_sym_into`), and every sweep
/// shares one [`BlockedLisiScratch`]; only the per-row results (top-k,
/// arg-maxes, trusted pairs) are allocated per iteration.
#[allow(clippy::too_many_arguments)]
pub fn refine_orbit(
    encoder: &GcnEncoder,
    lap_source: &CsrMatrix,
    lap_target: &CsrMatrix,
    source_attrs: &DenseMatrix,
    target_attrs: &DenseMatrix,
    config: &HtcConfig,
    orbit: usize,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> Result<OrbitRefinement> {
    let sweep_progress = observer.map(|obs| {
        let obs = Arc::clone(obs);
        move |done: usize, total: usize| obs.on_sweep_block(done, total)
    });
    let control = SweepControl {
        corr_cache_bytes: SWEEP_CACHE_BYTES,
        chunks: None,
        progress: sweep_progress
            .as_ref()
            .map(|f| f as &(dyn Fn(usize, usize) -> bool + Sync)),
    };
    let mut scratch = BlockedLisiScratch::new();
    let mut sweep = |source: &DenseMatrix, target: &DenseMatrix| {
        lisi_topk(
            source,
            target,
            config.nearest_neighbors,
            config.top_k,
            default_block_rows(target.rows()),
            &mut scratch,
            &control,
        )
    };
    let notify = |iteration: usize, trusted: usize| match observer {
        Some(obs) if !obs.on_finetune_iteration(orbit, iteration, trusted) => {
            Err(HtcError::Cancelled)
        }
        _ => Ok(()),
    };

    // Reusable forward caches (one warm-up allocation per side) and
    // boosted-Laplacian scratch for the Eq. 14 re-encoding.
    let mut source_cache = ForwardCache::new();
    let mut target_cache = ForwardCache::new();
    let mut boosted_source = CsrMatrix::zeros(0, 0);
    let mut boosted_target = CsrMatrix::zeros(0, 0);
    encoder.forward_into(lap_source, source_attrs, &mut source_cache)?;
    encoder.forward_into(lap_target, target_attrs, &mut target_cache)?;

    // Iteration 1 scores the trained embeddings as they are; it is the best
    // iteration until a later one finds strictly more trusted pairs.
    let first = sweep(source_cache.output(), target_cache.output())?;
    let mut pairs = first.trusted_pairs();
    notify(1, pairs.len())?;
    let mut iterations = 1;
    let mut best_count = pairs.len();
    let mut best_topk = first.topk;
    let mut sweep_stats = first.stats;
    let mut best_source = source_cache.output().clone();
    let mut best_target = target_cache.output().clone();

    let max_iters = if config.fine_tune {
        config.max_finetune_iters
    } else {
        1
    };
    let mut reinforcement_source = vec![1.0; lap_source.rows()];
    let mut reinforcement_target = vec![1.0; lap_target.rows()];
    while iterations < max_iters {
        // Eq. 13: boost the reinforcement factors of both ends of each pair.
        for &(s, t) in &pairs {
            reinforcement_source[s] *= config.reinforcement_rate;
            reinforcement_target[t] *= config.reinforcement_rate;
        }
        // Eq. 14: re-encode with R L̃ R.
        lap_source.scale_sym_into(
            &reinforcement_source,
            &reinforcement_source,
            &mut boosted_source,
        )?;
        lap_target.scale_sym_into(
            &reinforcement_target,
            &reinforcement_target,
            &mut boosted_target,
        )?;
        encoder.forward_into(&boosted_source, source_attrs, &mut source_cache)?;
        encoder.forward_into(&boosted_target, target_attrs, &mut target_cache)?;

        iterations += 1;
        let blocked = sweep(source_cache.output(), target_cache.output())?;
        sweep_stats.accumulate(&blocked.stats);
        pairs = blocked.trusted_pairs();
        notify(iterations, pairs.len())?;
        if pairs.len() <= best_count {
            break;
        }
        best_count = pairs.len();
        best_topk = blocked.topk;
        best_source.copy_from(source_cache.output());
        best_target.copy_from(target_cache.output());
    }

    Ok(OrbitRefinement {
        source_embedding: best_source,
        target_embedding: best_target,
        trusted_count: best_count,
        iterations,
        topk: best_topk,
        sweep_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScaleTier;
    use crate::laplacian::orbit_laplacians;
    use crate::lisi::{lisi_matrix, trusted_pairs};
    use crate::training::train_multi_orbit;
    use htc_graph::Graph;
    use htc_orbits::{GomSet, GomWeighting};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// A trained encoder over two copies of one small graph.
    struct Setup {
        encoder: GcnEncoder,
        laps: Vec<CsrMatrix>,
        xs: DenseMatrix,
    }

    impl Setup {
        /// Refines orbit `k` (also the observer's orbit label).
        fn refine(
            &self,
            k: usize,
            config: &HtcConfig,
            observer: Option<&Arc<dyn ProgressObserver>>,
        ) -> Result<OrbitRefinement> {
            let (lap, xs) = (&self.laps[k], &self.xs);
            refine_orbit(&self.encoder, lap, lap, xs, xs, config, k, observer)
        }
    }

    fn trained_setup() -> Setup {
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        )
        .unwrap();
        let goms = GomSet::build(&g, 4, GomWeighting::Weighted);
        let laps = orbit_laplacians(&goms);
        let xs = DenseMatrix::from_vec(
            8,
            2,
            vec![
                1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.2, 0.8, 0.9, 0.1, 0.4, 0.6, 0.7, 0.3, 0.1, 0.9,
            ],
        )
        .unwrap();
        let model = train_multi_orbit(&laps, &laps, &xs, &xs, &HtcConfig::fast(), &mut |_, _| true);
        Setup {
            encoder: model.unwrap().encoder,
            laps,
            xs,
        }
    }

    #[test]
    fn identical_graphs_yield_full_trusted_set() {
        let refinement = trained_setup().refine(0, &HtcConfig::fast(), None).unwrap();
        // Two identical graphs with identical attributes: the bulk of the
        // nodes should form trusted pairs straight away (graph automorphisms
        // can tie a few of them).
        assert!(
            refinement.trusted_count >= 6 && refinement.trusted_count <= 8,
            "trusted count {}",
            refinement.trusted_count
        );
        assert!(refinement.iterations >= 1);
        assert_eq!(
            refinement.source_embedding.shape(),
            refinement.target_embedding.shape()
        );
    }

    #[test]
    fn disabling_fine_tune_runs_single_iteration() {
        let mut config = HtcConfig::fast();
        config.fine_tune = false;
        let refinement = trained_setup().refine(1, &config, None).unwrap();
        assert_eq!(refinement.iterations, 1);
        assert!(refinement.trusted_count > 0);
    }

    #[test]
    fn fine_tuning_never_reduces_the_reported_count() {
        let setup = trained_setup();
        let with_ft = setup.refine(0, &HtcConfig::fast(), None).unwrap();
        let mut no_ft_cfg = HtcConfig::fast();
        no_ft_cfg.fine_tune = false;
        let without_ft = setup.refine(0, &no_ft_cfg, None).unwrap();
        assert!(with_ft.trusted_count >= without_ft.trusted_count);
    }

    /// Algorithm 2 as the dense tier used to run it: the full LISI matrix
    /// and its mutual arg-maxes every iteration.  Returns the iteration
    /// count, the best trusted count and the best embeddings.
    fn dense_reference(
        setup: &Setup,
        k: usize,
        config: &HtcConfig,
    ) -> (usize, usize, DenseMatrix, DenseMatrix) {
        let (encoder, lap, x) = (&setup.encoder, &setup.laps[k], &setup.xs);
        let mut reinforce_s = vec![1.0; lap.rows()];
        let mut reinforce_t = vec![1.0; lap.rows()];
        let mut boosted = CsrMatrix::zeros(0, 0);
        let mut hs = encoder.forward(lap, x).unwrap();
        let mut ht = encoder.forward(lap, x).unwrap();
        let (mut best_s, mut best_t) = (hs.clone(), ht.clone());
        let (mut best_count, mut iterations) = (0, 0);
        let max_iters = if config.fine_tune {
            config.max_finetune_iters.max(1)
        } else {
            1
        };
        for _ in 0..max_iters {
            iterations += 1;
            let pairs = trusted_pairs(&lisi_matrix(&hs, &ht, config.nearest_neighbors));
            if pairs.len() <= best_count && iterations > 1 {
                break;
            }
            best_count = pairs.len();
            best_s = hs.clone();
            best_t = ht.clone();
            if !config.fine_tune {
                break;
            }
            for &(s, t) in &pairs {
                reinforce_s[s] *= config.reinforcement_rate;
                reinforce_t[t] *= config.reinforcement_rate;
            }
            lap.scale_sym_into(&reinforce_s, &reinforce_s, &mut boosted)
                .unwrap();
            hs = encoder.forward(&boosted, x).unwrap();
            lap.scale_sym_into(&reinforce_t, &reinforce_t, &mut boosted)
                .unwrap();
            ht = encoder.forward(&boosted, x).unwrap();
        }
        (iterations, best_count, best_s, best_t)
    }

    #[test]
    fn dense_tier_refinement_equals_dense_lisi_reference() {
        let setup = trained_setup();
        for fine_tune in [true, false] {
            let mut config = HtcConfig::fast();
            config.fine_tune = fine_tune;
            for k in 0..setup.laps.len() {
                let got = setup.refine(k, &config, None).unwrap();
                let (iterations, count, best_s, best_t) = dense_reference(&setup, k, &config);
                let what = format!("orbit {k}, fine_tune {fine_tune}");
                assert_eq!(got.iterations, iterations, "{what}");
                assert_eq!(got.trusted_count, count, "{what}");
                assert!(got.source_embedding.approx_eq(&best_s, 0.0), "{what}");
                assert!(got.target_embedding.approx_eq(&best_t, 0.0), "{what}");
            }
        }
    }

    #[test]
    fn large_tier_refinement_matches_dense_counts_and_keeps_topk() {
        let setup = trained_setup();
        let dense_cfg = HtcConfig::fast();
        // Same hyper-parameters, Large tier with k covering every target:
        // both tiers run the same sweep, so counts, embeddings and the
        // retained candidates must match.
        let large_cfg = dense_cfg.clone().with_scale(ScaleTier::Large).with_top_k(8);
        let dense = setup.refine(0, &dense_cfg, None).unwrap();
        let large = setup.refine(0, &large_cfg, None).unwrap();
        assert_eq!(dense.trusted_count, large.trusted_count);
        assert_eq!(dense.iterations, large.iterations);
        assert!(dense
            .source_embedding
            .approx_eq(&large.source_embedding, 0.0));
        // Every tier keeps the best iteration's top-k.
        assert_eq!(dense.topk.shape(), (8, 8));
        assert_eq!(large.topk.shape(), (8, 8));
        for r in 0..8 {
            let bits = |t: &TopKRows| -> Vec<(usize, u64)> {
                t.row(r).map(|(c, v)| (c, v.to_bits())).collect()
            };
            assert_eq!(bits(&dense.topk), bits(&large.topk), "row {r}");
        }
    }

    /// Records every observer callback; cancels via `on_sweep_block` after a
    /// configurable number of blocks (`usize::MAX` = never).
    struct SweepRecorder {
        iterations: Mutex<Vec<(usize, usize, usize)>>,
        blocks_seen: AtomicUsize,
        cancel_after_blocks: usize,
    }

    impl SweepRecorder {
        fn new(cancel_after_blocks: usize) -> Self {
            Self {
                iterations: Mutex::new(Vec::new()),
                blocks_seen: AtomicUsize::new(0),
                cancel_after_blocks,
            }
        }
    }

    impl ProgressObserver for SweepRecorder {
        fn on_finetune_iteration(&self, orbit: usize, iteration: usize, trusted: usize) -> bool {
            self.iterations
                .lock()
                .unwrap()
                .push((orbit, iteration, trusted));
            true
        }

        fn on_sweep_block(&self, _done: usize, _total: usize) -> bool {
            let seen = self.blocks_seen.fetch_add(1, Ordering::Relaxed) + 1;
            seen < self.cancel_after_blocks
        }
    }

    #[test]
    fn observer_receives_per_iteration_trusted_counts() {
        let recorder = Arc::new(SweepRecorder::new(usize::MAX));
        let observer: Arc<dyn ProgressObserver> = recorder.clone();
        let refinement = trained_setup()
            .refine(3, &HtcConfig::fast(), Some(&observer))
            .unwrap();
        let events = recorder.iterations.lock().unwrap().clone();
        assert_eq!(events.len(), refinement.iterations);
        for (i, &(orbit, iteration, _trusted)) in events.iter().enumerate() {
            assert_eq!(orbit, 3);
            assert_eq!(iteration, i + 1);
        }
        // The best count the refinement reports was among the observed ones.
        assert!(events
            .iter()
            .any(|&(_, _, t)| t == refinement.trusted_count));
        // The dense tier sweeps too: 8 targets fit one row block, so every
        // iteration runs one block per pass, and each block fires an event.
        assert_eq!(refinement.sweep_stats.blocks, refinement.iterations);
        assert_eq!(
            recorder.blocks_seen.load(Ordering::Relaxed),
            2 * refinement.sweep_stats.blocks
        );
    }

    #[test]
    fn large_tier_reports_sweep_stats_and_cancels_mid_sweep() {
        let setup = trained_setup();
        for scale in [ScaleTier::Dense, ScaleTier::Large] {
            let config = HtcConfig::fast().with_scale(scale).with_top_k(8);
            // Uncancelled run: block events fire and stats accumulate.
            let recorder = Arc::new(SweepRecorder::new(usize::MAX));
            let observer: Arc<dyn ProgressObserver> = recorder.clone();
            let refinement = setup.refine(0, &config, Some(&observer)).unwrap();
            assert!(refinement.sweep_stats.blocks > 0, "{scale:?}");
            assert!(
                recorder.blocks_seen.load(Ordering::Relaxed) >= 2 * refinement.sweep_stats.blocks,
                "{scale:?}"
            );

            // Cancelling from the second block event aborts mid-sweep with
            // HtcError::Cancelled instead of waiting for an iteration
            // boundary.
            let canceller = Arc::new(SweepRecorder::new(2));
            let observer: Arc<dyn ProgressObserver> = canceller.clone();
            let err = setup.refine(0, &config, Some(&observer)).unwrap_err();
            assert!(matches!(err, HtcError::Cancelled), "{scale:?}");
            // The cancel fired before any iteration completed.
            assert!(canceller.iterations.lock().unwrap().is_empty(), "{scale:?}");
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mut config = HtcConfig::fast();
        config.max_finetune_iters = 2;
        let refinement = trained_setup().refine(2, &config, None).unwrap();
        assert!(refinement.iterations <= 2);
    }
}
