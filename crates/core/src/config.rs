//! Pipeline configuration.

use crate::error::HtcError;
use crate::Result;
use htc_orbits::{GomWeighting, NUM_EDGE_ORBITS};

/// Upper bound on the number of diffusion views a configuration may ask for
/// (shared with the artifact loader in [`crate::persist`], so every view set
/// a valid session can build is also reloadable).
pub const MAX_DIFFUSION_VIEWS: usize = 1024;

/// Which topological views feed the encoder.
///
/// `Orbits` is the paper's method; the other modes exist for the ablation
/// study of Table III.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyMode {
    /// The first `K` graphlet-orbit matrices (the HTC method; `K = 13` in the
    /// paper).
    Orbits {
        /// Number of orbits used (must be 1–13; [`HtcConfig::validate`]
        /// rejects values outside that range).
        num_orbits: usize,
        /// Weighted or binary GOM entries.
        weighting: GomWeighting,
    },
    /// Only the trivial edge pattern (orbit 0) — the HTC-L / HTC-LT variants.
    LowOrderOnly,
    /// Personalised-PageRank diffusion matrices of increasing order — the
    /// HTC-DT variant of the ablation study.
    Diffusion {
        /// Number of diffusion views (matching the paper's best `k = 5`).
        num_views: usize,
        /// Teleport probability `α` (the paper's best `0.15`).
        alpha: f64,
    },
}

impl TopologyMode {
    /// Number of topological views this mode produces.
    ///
    /// Out-of-range settings are clamped here only as a last-resort guard for
    /// callers that bypass validation; the pipeline itself rejects them with a
    /// descriptive error in [`HtcConfig::validate`] instead of clamping
    /// silently.
    pub fn num_views(&self) -> usize {
        match *self {
            TopologyMode::Orbits { num_orbits, .. } => num_orbits.clamp(1, NUM_EDGE_ORBITS),
            TopologyMode::LowOrderOnly => 1,
            TopologyMode::Diffusion { num_views, .. } => num_views.max(1),
        }
    }
}

/// Memory regime the pipeline runs in.
///
/// Fine-tuning streams row-blocked LISI sweeps in both tiers; the tier
/// decides integration and training.  `Dense` is the paper-faithful path:
/// integration materialises each orbit's full n×m LISI matrix (one orbit at
/// a time) and the result is a dense alignment matrix; training is
/// full-batch.  `Large` is the 100k+-node tier: integration merges the
/// [`top_k`](HtcConfig::top_k) candidates per source row that fine-tuning
/// retained (a [`TopKRows`](crate::topk::TopKRows) artifact), and training
/// may run mini-batched via [`batch_size`](HtcConfig::batch_size).  Both
/// tiers keep the seeded-determinism contract; `Large` trades exactness of
/// the retained candidate *set* (not of any retained score) for O(n·k)
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleTier {
    /// Dense n×m alignment matrix and full-batch training (the default).
    Dense,
    /// Top-k alignment artifact and (optionally) mini-batch training.
    Large,
}

impl ScaleTier {
    /// Lower-case wire name used by `/stats` and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            ScaleTier::Dense => "dense",
            ScaleTier::Large => "large",
        }
    }

    /// Whether this is the blocked top-k tier.
    pub fn is_large(&self) -> bool {
        matches!(self, ScaleTier::Large)
    }
}

/// Hyper-parameters of the HTC pipeline.
///
/// Field defaults follow Section V-A of the paper: 2 GCN layers, embedding
/// dimension `d = 200`, learning rate `0.01`, `m = 20` nearest neighbours,
/// reinforcement rate `β = 1.1`, all 13 orbits.
#[derive(Debug, Clone, PartialEq)]
pub struct HtcConfig {
    /// Topological views fed to the encoder.
    pub topology: TopologyMode,
    /// Hidden-layer dimensions of the GCN encoder, **excluding** the input
    /// dimension (which is taken from the attribute matrix).  The last entry
    /// is the embedding dimension `d`.
    pub hidden_dims: Vec<usize>,
    /// Adam learning rate `η`.
    pub learning_rate: f64,
    /// Number of training epochs for the multi-orbit-aware stage.
    pub epochs: usize,
    /// Number of nearest neighbours `m` used by the LISI hubness terms.
    pub nearest_neighbors: usize,
    /// Reinforcement rate `β > 1` of the trusted-pair fine-tuning.
    pub reinforcement_rate: f64,
    /// Whether to run the trusted-pair fine-tuning stage at all (disabled for
    /// the HTC-L / HTC-H ablation variants).
    pub fine_tune: bool,
    /// Safety cap on fine-tuning iterations per orbit (the paper's loop stops
    /// when the trusted-pair count stops growing; this cap guards against
    /// pathological oscillation).
    pub max_finetune_iters: usize,
    /// Whether to append a normalised-degree column to the node attributes
    /// (useful when the datasets carry very few attributes).
    pub append_degree_feature: bool,
    /// Whether the result should retain the per-orbit refined embeddings
    /// (needed for the t-SNE visualisation of Fig. 11; costs memory).
    pub keep_embeddings: bool,
    /// RNG seed for weight initialisation.
    pub seed: u64,
    /// Memory regime: dense paper-faithful matrices or the blocked top-k
    /// `Large` tier.  See [`ScaleTier`].
    pub scale: ScaleTier,
    /// Candidates retained per source row by the blocked similarity sweep
    /// (must be ≥ 1).  Fine-tuning keeps the best iteration's top-k in every
    /// tier; [`ScaleTier::Large`] integration merges them, while
    /// [`ScaleTier::Dense`] integration recomputes the full ranking.
    pub top_k: usize,
    /// Mini-batch size for encoder training; 0 means full-batch.  Batches are
    /// processed strictly sequentially in a seeded deterministic order, so
    /// any value preserves the bit-identity contract across
    /// `HTC_NUM_THREADS`.
    pub batch_size: usize,
}

impl Default for HtcConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl HtcConfig {
    /// The hyper-parameters used in the paper's experiments.
    pub fn paper() -> Self {
        Self {
            topology: TopologyMode::Orbits {
                num_orbits: NUM_EDGE_ORBITS,
                weighting: GomWeighting::Weighted,
            },
            hidden_dims: vec![200, 200],
            learning_rate: 0.01,
            epochs: 100,
            nearest_neighbors: 20,
            reinforcement_rate: 1.1,
            fine_tune: true,
            max_finetune_iters: 30,
            append_degree_feature: false,
            keep_embeddings: false,
            seed: 42,
            scale: ScaleTier::Dense,
            top_k: 10,
            batch_size: 0,
        }
    }

    /// A reduced configuration for the `Small`-scale benchmark harness: the
    /// same structure as [`HtcConfig::paper`] but a smaller embedding space
    /// and fewer epochs so the full suite stays within a laptop budget.
    pub fn small() -> Self {
        Self {
            hidden_dims: vec![96, 64],
            epochs: 60,
            ..Self::paper()
        }
    }

    /// A very small configuration for unit tests and doctests.
    pub fn fast() -> Self {
        Self {
            topology: TopologyMode::Orbits {
                num_orbits: 5,
                weighting: GomWeighting::Weighted,
            },
            hidden_dims: vec![16, 8],
            learning_rate: 0.02,
            epochs: 15,
            nearest_neighbors: 3,
            reinforcement_rate: 1.1,
            fine_tune: true,
            max_finetune_iters: 5,
            append_degree_feature: false,
            keep_embeddings: false,
            seed: 42,
            scale: ScaleTier::Dense,
            top_k: 10,
            batch_size: 0,
        }
    }

    /// The 100k+-node tier: low-order topology (orbit enumeration at this
    /// size is ruled out by the O(e·D²) 4-node pass), a compact embedding,
    /// blocked top-k similarity, and neighbourhood-sampled mini-batch
    /// training.  The degree feature is appended because large synthetic
    /// pairs carry few raw attributes.
    pub fn large() -> Self {
        Self {
            topology: TopologyMode::LowOrderOnly,
            hidden_dims: vec![64, 32],
            learning_rate: 0.01,
            epochs: 20,
            nearest_neighbors: 10,
            reinforcement_rate: 1.1,
            fine_tune: true,
            max_finetune_iters: 2,
            append_degree_feature: true,
            keep_embeddings: false,
            seed: 42,
            scale: ScaleTier::Large,
            top_k: 10,
            batch_size: 4096,
        }
    }

    /// The named preset — `fast`, `small`, `paper` or `large` — the one map
    /// from a preset name (CLI flag, request field) to its configuration.
    pub fn preset(name: &str) -> std::result::Result<HtcConfig, String> {
        match name {
            "fast" => Ok(Self::fast()),
            "small" => Ok(Self::small()),
            "paper" => Ok(Self::paper()),
            "large" => Ok(Self::large()),
            other => Err(format!(
                "unknown preset {other:?} (expected fast|small|paper|large)"
            )),
        }
    }

    /// Embedding (output) dimension `d`.
    pub fn embedding_dim(&self) -> usize {
        *self
            .hidden_dims
            .last()
            .expect("validated: at least one layer")
    }

    /// Number of topological views the configuration will use.
    pub fn num_views(&self) -> usize {
        self.topology.num_views()
    }

    /// Checks that every hyper-parameter is in its valid range.
    pub fn validate(&self) -> Result<()> {
        if self.hidden_dims.is_empty() {
            return Err(HtcError::InvalidConfig(
                "hidden_dims must contain at least the embedding dimension".into(),
            ));
        }
        if self.hidden_dims.contains(&0) {
            return Err(HtcError::InvalidConfig(
                "layer dimensions must be positive".into(),
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(HtcError::InvalidConfig(
                "learning_rate must be positive".into(),
            ));
        }
        if self.epochs == 0 {
            return Err(HtcError::InvalidConfig("epochs must be positive".into()));
        }
        if self.nearest_neighbors == 0 {
            return Err(HtcError::InvalidConfig(
                "nearest_neighbors must be positive".into(),
            ));
        }
        if self.reinforcement_rate <= 1.0 {
            return Err(HtcError::InvalidConfig(
                "reinforcement_rate must be greater than 1".into(),
            ));
        }
        match self.topology {
            TopologyMode::Orbits { num_orbits, .. } => {
                if num_orbits == 0 || num_orbits > NUM_EDGE_ORBITS {
                    return Err(HtcError::InvalidConfig(format!(
                        "num_orbits must be between 1 and {NUM_EDGE_ORBITS} \
                         (the edge orbits of 2-4-node graphlets), got {num_orbits}"
                    )));
                }
            }
            TopologyMode::Diffusion { num_views, alpha } => {
                if num_views == 0 || num_views > MAX_DIFFUSION_VIEWS {
                    return Err(HtcError::InvalidConfig(format!(
                        "diffusion num_views must be between 1 and \
                         {MAX_DIFFUSION_VIEWS}, got {num_views}"
                    )));
                }
                if alpha <= 0.0 || alpha >= 1.0 {
                    return Err(HtcError::InvalidConfig(
                        "diffusion teleport probability must be in (0, 1)".into(),
                    ));
                }
            }
            TopologyMode::LowOrderOnly => {}
        }
        if self.top_k == 0 {
            return Err(HtcError::InvalidConfig("top_k must be positive".into()));
        }
        Ok(())
    }

    /// Builder-style setter for the number of orbits (keeps other topology
    /// settings; switches to orbit mode if needed).
    pub fn with_num_orbits(mut self, k: usize) -> Self {
        let weighting = match self.topology {
            TopologyMode::Orbits { weighting, .. } => weighting,
            _ => GomWeighting::Weighted,
        };
        self.topology = TopologyMode::Orbits {
            num_orbits: k,
            weighting,
        };
        self
    }

    /// Builder-style setter for the embedding dimension (rescales the last
    /// hidden layer only).
    pub fn with_embedding_dim(mut self, d: usize) -> Self {
        if let Some(last) = self.hidden_dims.last_mut() {
            *last = d;
        }
        self
    }

    /// Builder-style setter for the LISI neighbourhood size `m`.
    pub fn with_nearest_neighbors(mut self, m: usize) -> Self {
        self.nearest_neighbors = m;
        self
    }

    /// Builder-style setter for the reinforcement rate `β`.
    pub fn with_reinforcement_rate(mut self, beta: f64) -> Self {
        self.reinforcement_rate = beta;
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the memory regime.
    pub fn with_scale(mut self, scale: ScaleTier) -> Self {
        self.scale = scale;
        self
    }

    /// Builder-style setter for the per-row candidate retention `k` of the
    /// blocked similarity sweep.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Builder-style setter for the training mini-batch size (0 = full
    /// batch).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_va() {
        let cfg = HtcConfig::paper();
        assert_eq!(cfg.hidden_dims.len(), 2);
        assert_eq!(cfg.embedding_dim(), 200);
        assert_eq!(cfg.learning_rate, 0.01);
        assert_eq!(cfg.nearest_neighbors, 20);
        assert!((cfg.reinforcement_rate - 1.1).abs() < 1e-12);
        assert_eq!(cfg.num_views(), 13);
        assert!(cfg.validate().is_ok());
        assert_eq!(HtcConfig::default(), cfg);
    }

    #[test]
    fn fast_and_small_validate() {
        assert!(HtcConfig::fast().validate().is_ok());
        assert!(HtcConfig::small().validate().is_ok());
        assert!(HtcConfig::fast().num_views() <= 5);
    }

    #[test]
    fn presets_resolve_by_name() {
        assert_eq!(HtcConfig::preset("fast"), Ok(HtcConfig::fast()));
        assert_eq!(HtcConfig::preset("small"), Ok(HtcConfig::small()));
        assert_eq!(HtcConfig::preset("paper"), Ok(HtcConfig::paper()));
        assert_eq!(HtcConfig::preset("large"), Ok(HtcConfig::large()));
        assert_eq!(
            HtcConfig::preset("huge"),
            Err("unknown preset \"huge\" (expected fast|small|paper|large)".to_string())
        );
    }

    #[test]
    fn large_preset_validates_and_is_large() {
        let cfg = HtcConfig::large();
        assert!(cfg.validate().is_ok());
        assert!(cfg.scale.is_large());
        assert_eq!(cfg.scale.name(), "large");
        assert!(cfg.top_k >= 1);
        assert!(cfg.batch_size >= 1);
        assert_eq!(cfg.num_views(), 1);
    }

    #[test]
    fn large_tier_requires_positive_top_k() {
        // Fine-tuning keeps a top-k artifact in every tier, so a zero
        // retention is rejected in the dense tier as well.
        for cfg in [HtcConfig::large(), HtcConfig::fast()] {
            let err = cfg.with_top_k(0).validate().unwrap_err();
            assert!(matches!(&err, HtcError::InvalidConfig(msg) if msg.contains("top_k")));
        }
        // batch_size 0 (full batch) is valid in every tier.
        assert!(HtcConfig::large().with_batch_size(0).validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut cfg = HtcConfig::fast();
        cfg.hidden_dims.clear();
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.hidden_dims = vec![0];
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.learning_rate = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.epochs = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.nearest_neighbors = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.reinforcement_rate = 1.0;
        assert!(cfg.validate().is_err());

        let mut cfg = HtcConfig::fast();
        cfg.topology = TopologyMode::Diffusion {
            num_views: 3,
            alpha: 1.5,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_view_counts_instead_of_clamping() {
        // num_orbits = 0 and > 13 used to be silently clamped by num_views();
        // they are now validation errors with a descriptive message.
        for bad in [0usize, NUM_EDGE_ORBITS + 1, 50] {
            let cfg = HtcConfig::fast().with_num_orbits(bad);
            let err = cfg.validate().unwrap_err();
            assert!(
                matches!(&err, HtcError::InvalidConfig(msg) if msg.contains("num_orbits")),
                "num_orbits = {bad}: {err}"
            );
        }
        let mut cfg = HtcConfig::fast();
        cfg.topology = TopologyMode::Diffusion {
            num_views: 0,
            alpha: 0.15,
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(&err, HtcError::InvalidConfig(msg) if msg.contains("num_views")));

        // The boundaries themselves remain valid.
        assert!(HtcConfig::fast().with_num_orbits(1).validate().is_ok());
        assert!(HtcConfig::fast()
            .with_num_orbits(NUM_EDGE_ORBITS)
            .validate()
            .is_ok());
    }

    #[test]
    fn topology_mode_view_counts() {
        assert_eq!(TopologyMode::LowOrderOnly.num_views(), 1);
        assert_eq!(
            TopologyMode::Orbits {
                num_orbits: 50,
                weighting: GomWeighting::Weighted
            }
            .num_views(),
            13
        );
        assert_eq!(
            TopologyMode::Diffusion {
                num_views: 4,
                alpha: 0.15
            }
            .num_views(),
            4
        );
    }

    #[test]
    fn builder_setters() {
        let cfg = HtcConfig::fast()
            .with_num_orbits(7)
            .with_embedding_dim(32)
            .with_nearest_neighbors(11)
            .with_reinforcement_rate(1.5)
            .with_seed(9);
        assert_eq!(cfg.num_views(), 7);
        assert_eq!(cfg.embedding_dim(), 32);
        assert_eq!(cfg.nearest_neighbors, 11);
        assert_eq!(cfg.reinforcement_rate, 1.5);
        assert_eq!(cfg.seed, 9);
    }
}
