//! The end-to-end HTC alignment pipeline (Fig. 3 of the paper).
//!
//! [`HtcAligner::align`] is the monolithic entry point; it delegates to a
//! one-shot [`AlignmentSession`](crate::session::AlignmentSession) and is
//! bit-identical to running the session stage-by-stage (test-enforced).

use crate::config::HtcConfig;
use crate::session::AlignmentSession;
use crate::topk::TopKRows;
use crate::Result;
use htc_graph::AttributedNetwork;
use htc_linalg::DenseMatrix;
use htc_metrics::StageTimer;

/// Stage names used in the runtime decomposition (Fig. 8 of the paper).
pub mod stages {
    /// GOM / orbit counting stage.
    pub const ORBIT_COUNTING: &str = "orbit counting";
    /// Orbit Laplacian construction stage.
    pub const LAPLACIAN: &str = "laplacian construction";
    /// Multi-orbit-aware training stage.
    pub const TRAINING: &str = "multi-orbit-aware training";
    /// Trusted-pair based fine-tuning stage.
    pub const FINE_TUNING: &str = "trusted-pair fine-tuning";
    /// Weighted integration stage.
    pub const INTEGRATION: &str = "weighted integration";
}

/// The alignment artifact a run produced: the full dense matrix in the
/// default tier, or the blocked top-k retention in [`ScaleTier::Large`]
/// (`crate::ScaleTier::Large`), where the `n_s × n_t` matrix is never
/// materialised.
#[derive(Debug, Clone)]
pub(crate) enum AlignmentArtifact {
    /// The full matrix `M ∈ R^{n_s × n_t}`.
    Dense(DenseMatrix),
    /// Top-k retained candidates per source row.
    TopK(TopKRows),
}

/// The outcome of one HTC alignment run.
#[derive(Debug, Clone)]
pub struct HtcResult {
    artifact: AlignmentArtifact,
    orbit_importance: Vec<f64>,
    trusted_counts: Vec<usize>,
    loss_history: Vec<f64>,
    timer: StageTimer,
    embeddings: Option<Vec<(DenseMatrix, DenseMatrix)>>,
}

impl HtcResult {
    /// Assembles a result from the outputs of the final pipeline stages (the
    /// session API is the only producer).
    pub(crate) fn from_parts(
        artifact: AlignmentArtifact,
        orbit_importance: Vec<f64>,
        trusted_counts: Vec<usize>,
        loss_history: Vec<f64>,
        timer: StageTimer,
        embeddings: Option<Vec<(DenseMatrix, DenseMatrix)>>,
    ) -> Self {
        Self {
            artifact,
            orbit_importance,
            trusted_counts,
            loss_history,
            timer,
            embeddings,
        }
    }

    /// The final alignment matrix `M ∈ R^{n_s × n_t}`.
    ///
    /// # Panics
    /// Panics for a `Large`-tier result, which never materialises the dense
    /// matrix — use [`score`](Self::score), [`top_k`](Self::top_k) or
    /// [`predicted_anchors`](Self::predicted_anchors) instead.
    pub fn alignment(&self) -> &DenseMatrix {
        match &self.artifact {
            AlignmentArtifact::Dense(m) => m,
            AlignmentArtifact::TopK(_) => panic!(
                "this Large-tier result holds a top-k artifact, not a dense alignment \
                 matrix; use score()/top_k()/predicted_anchors()"
            ),
        }
    }

    /// The alignment score of `(source, target)` under either artifact.  For
    /// a `Large`-tier result a pair outside the retained top-k set scores
    /// 0.0 (its true score is below the retention floor of its row).
    pub fn score(&self, source: usize, target: usize) -> f64 {
        match &self.artifact {
            AlignmentArtifact::Dense(m) => m.get(source, target),
            AlignmentArtifact::TopK(t) => t.score(source, target).unwrap_or(0.0),
        }
    }

    /// The `(source nodes, target nodes)` shape of the alignment.
    pub fn shape(&self) -> (usize, usize) {
        match &self.artifact {
            AlignmentArtifact::Dense(m) => m.shape(),
            AlignmentArtifact::TopK(t) => t.shape(),
        }
    }

    /// The retained top-k candidates of a `Large`-tier run; `None` for a
    /// dense-tier result.
    pub fn top_k(&self) -> Option<&TopKRows> {
        match &self.artifact {
            AlignmentArtifact::Dense(_) => None,
            AlignmentArtifact::TopK(t) => Some(t),
        }
    }

    /// Per-orbit importance weights `γ_k` (Eq. 15); sums to 1.
    pub fn orbit_importance(&self) -> &[f64] {
        &self.orbit_importance
    }

    /// Per-orbit trusted-pair counts `T_k`.
    pub fn trusted_counts(&self) -> &[usize] {
        &self.trusted_counts
    }

    /// Total training loss per epoch.
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Wall-clock decomposition of the run into the paper's stages.
    pub fn timer(&self) -> &StageTimer {
        &self.timer
    }

    /// Refined `(source, target)` embeddings per orbit; present only when the
    /// configuration asked to keep them ([`HtcConfig::keep_embeddings`]).
    pub fn embeddings(&self) -> Option<&[(DenseMatrix, DenseMatrix)]> {
        self.embeddings.as_deref()
    }

    /// For every source node, the index of the best-scoring target node
    /// (among the retained candidates in the `Large` tier; a source row with
    /// no retained candidate maps to target 0, matching the dense argmax of
    /// an all-equal row).
    pub fn predicted_anchors(&self) -> Vec<usize> {
        match &self.artifact {
            AlignmentArtifact::Dense(m) => htc_linalg::ops::row_argmax(m),
            AlignmentArtifact::TopK(t) => t.best_per_row(),
        }
    }
}

/// The HTC aligner: owns a configuration and aligns attributed network pairs.
#[derive(Debug, Clone)]
pub struct HtcAligner {
    config: HtcConfig,
}

impl HtcAligner {
    /// Creates an aligner with the given configuration.
    pub fn new(config: HtcConfig) -> Self {
        Self { config }
    }

    /// The aligner's configuration.
    pub fn config(&self) -> &HtcConfig {
        &self.config
    }

    /// Aligns `source` against `target`, returning the alignment matrix and
    /// per-stage diagnostics.
    ///
    /// This is a thin wrapper over a one-shot
    /// [`AlignmentSession`](crate::session::AlignmentSession): it opens a
    /// session on `source` and runs the pairwise (jointly trained) pipeline
    /// against `target`.  Callers aligning the same source repeatedly should
    /// hold a session instead and let it reuse the source-side artifacts.
    pub fn align(
        &self,
        source: &AttributedNetwork,
        target: &AttributedNetwork,
    ) -> Result<HtcResult> {
        self.session(source)?.align(target)
    }

    /// Opens a reusable [`AlignmentSession`] anchored on `source` with this
    /// aligner's configuration.
    pub fn session(&self, source: &AttributedNetwork) -> Result<AlignmentSession> {
        AlignmentSession::new(self.config.clone(), source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ScaleTier, TopologyMode};
    use crate::error::HtcError;
    use htc_datasets::{generate_pair, SyntheticPairConfig};
    use htc_metrics::AlignmentReport;

    fn tiny_pair() -> htc_datasets::DatasetPair {
        generate_pair(&SyntheticPairConfig {
            edge_removal: 0.0,
            attr_flip: 0.0,
            ..SyntheticPairConfig::tiny(14)
        })
    }

    #[test]
    fn aligns_a_noise_free_pair_well() {
        let pair = tiny_pair();
        let mut config = HtcConfig::fast();
        config.epochs = 40;
        let result = HtcAligner::new(config)
            .align(&pair.source, &pair.target)
            .unwrap();
        assert_eq!(result.alignment().shape(), (14, 14));
        let report = AlignmentReport::evaluate(result.alignment(), &pair.ground_truth, &[1, 5]);
        // A permuted copy with no noise should be essentially solvable.
        assert!(
            report.precision(1).unwrap() >= 0.5,
            "p@1 = {:?}",
            report.precision(1)
        );
        assert!(report.mrr() >= 0.5);
    }

    #[test]
    fn result_diagnostics_are_consistent() {
        let pair = tiny_pair();
        let result = HtcAligner::new(HtcConfig::fast())
            .align(&pair.source, &pair.target)
            .unwrap();
        let k = HtcConfig::fast().num_views();
        assert_eq!(result.orbit_importance().len(), k);
        assert_eq!(result.trusted_counts().len(), k);
        assert!((result.orbit_importance().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(result.loss_history().len(), HtcConfig::fast().epochs);
        assert!(result.timer().total().as_nanos() > 0);
        assert!(result.embeddings().is_none());
        assert_eq!(result.predicted_anchors().len(), 14);
    }

    #[test]
    fn keep_embeddings_returns_per_orbit_pairs() {
        let pair = tiny_pair();
        let mut config = HtcConfig::fast();
        config.keep_embeddings = true;
        let result = HtcAligner::new(config.clone())
            .align(&pair.source, &pair.target)
            .unwrap();
        let embeddings = result.embeddings().unwrap();
        assert_eq!(embeddings.len(), config.num_views());
        assert_eq!(embeddings[0].0.rows(), 14);
        assert_eq!(embeddings[0].1.rows(), 14);
        assert_eq!(embeddings[0].0.cols(), config.embedding_dim());
    }

    #[test]
    fn rejects_mismatched_attribute_dimensions() {
        let pair = tiny_pair();
        let bad_target = pair
            .target
            .with_attributes(htc_linalg::DenseMatrix::zeros(pair.target.num_nodes(), 9))
            .unwrap();
        let err = HtcAligner::new(HtcConfig::fast())
            .align(&pair.source, &bad_target)
            .unwrap_err();
        assert!(matches!(err, HtcError::AttributeDimensionMismatch { .. }));
    }

    #[test]
    fn rejects_empty_networks() {
        let pair = tiny_pair();
        let empty = AttributedNetwork::topology_only(htc_graph::Graph::empty(0));
        let err = HtcAligner::new(HtcConfig::fast())
            .align(&empty, &pair.target)
            .unwrap_err();
        assert_eq!(err, HtcError::EmptyNetwork);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let pair = tiny_pair();
        let a = HtcAligner::new(HtcConfig::fast())
            .align(&pair.source, &pair.target)
            .unwrap();
        let b = HtcAligner::new(HtcConfig::fast())
            .align(&pair.source, &pair.target)
            .unwrap();
        assert!(a.alignment().approx_eq(b.alignment(), 0.0));
        assert_eq!(a.trusted_counts(), b.trusted_counts());
    }

    // The single-thread-vs-multi-thread exactness check lives in
    // `tests/thread_determinism.rs`: it mutates `HTC_NUM_THREADS`, which is
    // only safe in a test binary where it is the sole test.

    #[test]
    fn large_tier_produces_topk_artifact() {
        let pair = tiny_pair();
        let mut config = HtcConfig::fast()
            .with_scale(crate::config::ScaleTier::Large)
            .with_top_k(5);
        config.batch_size = 4;
        let result = HtcAligner::new(config)
            .align(&pair.source, &pair.target)
            .unwrap();
        let topk = result.top_k().expect("Large tier retains top-k candidates");
        assert_eq!(topk.shape(), (14, 14));
        assert_eq!(topk.k(), 5);
        assert_eq!(result.shape(), (14, 14));
        let anchors = result.predicted_anchors();
        assert_eq!(anchors.len(), 14);
        for (s, &t) in anchors.iter().enumerate() {
            assert!(result.score(s, t).is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "top-k artifact")]
    fn large_tier_alignment_accessor_panics() {
        let pair = tiny_pair();
        let config = HtcConfig::fast()
            .with_scale(crate::config::ScaleTier::Large)
            .with_top_k(5);
        let result = HtcAligner::new(config)
            .align(&pair.source, &pair.target)
            .unwrap();
        let _ = result.alignment();
    }

    #[test]
    fn large_tier_with_covering_k_matches_dense_bit_for_bit() {
        // With k ≥ n_t and full-batch training the Large tier differs from
        // the dense tier only in how the integration result is *stored*:
        // every retained score must equal the dense matrix entry bit for bit
        // and the predicted anchors must coincide.
        let pair = tiny_pair();
        let dense = HtcAligner::new(HtcConfig::fast())
            .align(&pair.source, &pair.target)
            .unwrap();
        let large_cfg = HtcConfig::fast()
            .with_scale(crate::config::ScaleTier::Large)
            .with_top_k(14);
        let large = HtcAligner::new(large_cfg)
            .align(&pair.source, &pair.target)
            .unwrap();
        assert_eq!(dense.predicted_anchors(), large.predicted_anchors());
        assert_eq!(dense.trusted_counts(), large.trusted_counts());
        let topk = large.top_k().unwrap();
        for r in 0..14 {
            let mut retained = 0;
            for (c, v) in topk.row(r) {
                assert_eq!(
                    v.to_bits(),
                    dense.alignment().get(r, c).to_bits(),
                    "retained score ({r},{c}) must match the dense integration"
                );
                retained += 1;
            }
            assert_eq!(retained, 14, "k = n_t retains the whole row");
        }
    }

    #[test]
    fn timer_holds_exactly_the_five_paper_stages_in_both_tiers() {
        // Wall-clock totals must not count fine-tuning twice: no tier adds
        // pseudo-stages next to the five stages of Fig. 8.
        let pair = tiny_pair();
        let paper_stages = [
            stages::ORBIT_COUNTING,
            stages::LAPLACIAN,
            stages::TRAINING,
            stages::FINE_TUNING,
            stages::INTEGRATION,
        ];
        for scale in [ScaleTier::Dense, ScaleTier::Large] {
            let config = HtcConfig::fast().with_scale(scale).with_top_k(5);
            let result = HtcAligner::new(config)
                .align(&pair.source, &pair.target)
                .unwrap();
            let timer = result.timer();
            let names: Vec<&str> = timer.stages().map(|(name, _)| name).collect();
            assert_eq!(names, paper_stages, "{scale:?}");
            let sum: std::time::Duration = paper_stages.iter().map(|s| timer.duration(s)).sum();
            assert_eq!(timer.total(), sum, "{scale:?}");
        }
    }

    #[test]
    fn low_order_mode_uses_single_view() {
        let pair = tiny_pair();
        let mut config = HtcConfig::fast();
        config.topology = TopologyMode::LowOrderOnly;
        let result = HtcAligner::new(config)
            .align(&pair.source, &pair.target)
            .unwrap();
        assert_eq!(result.trusted_counts().len(), 1);
    }

    #[test]
    fn degree_feature_augmentation_runs() {
        let pair = tiny_pair();
        let mut config = HtcConfig::fast();
        config.append_degree_feature = true;
        let result = HtcAligner::new(config)
            .align(&pair.source, &pair.target)
            .unwrap();
        assert_eq!(result.alignment().rows(), 14);
    }
}
