//! The staged alignment session API.
//!
//! [`HtcAligner::align`](crate::HtcAligner::align) runs the whole pipeline as
//! one opaque, blocking call.  That is the right interface for a one-off
//! experiment, but a serving workload — one catalog graph aligned against a
//! stream of incoming graphs — pays the two dominant stages of the paper's
//! runtime decomposition (orbit counting and multi-orbit-aware training,
//! Fig. 8) over and over for a source that never changes.
//!
//! [`AlignmentSession`] decomposes the pipeline into first-class, reusable
//! stage artifacts:
//!
//! ```text
//! TopologyViews ──> Propagators ──> TrainedEncoder ──> OrbitRefinements ──> HtcResult
//!  (GOM counting)    (Laplacians)    (shared GCN)       (trusted pairs)      (integration)
//! ```
//!
//! Each artifact can be built explicitly, inspected, persisted
//! ([`TopologyViews::save`], [`TrainedEncoder::save`]) and — critically —
//! shared: source-side artifacts are computed once per session and reused by
//! every subsequent alignment.
//!
//! Two alignment modes are offered:
//!
//! * **Pairwise** ([`AlignmentSession::align`] / [`AlignmentSession::begin`])
//!   trains the shared encoder *jointly* on the source and the target, exactly
//!   like the paper's Algorithm 1.  The output is bit-identical to
//!   [`HtcAligner::align`](crate::HtcAligner::align) (which is now a thin
//!   wrapper over a session).  The staged driver [`PairAlignment`] lets
//!   callers advance stage-by-stage and checkpoint in between.
//! * **One-vs-many** ([`AlignmentSession::align_many`]) trains the encoder
//!   once on the source graph alone and fans fine-tuning + integration out
//!   per target on the shared thread pool.  Orbit counting, Laplacian
//!   construction and training run **exactly once** for the source no matter
//!   how many targets are served (asserted by the session's
//!   [`StageTimer::count`]).  Because the encoder never sees the targets
//!   during training, results differ numerically from N pairwise runs — that
//!   is the serving trade: per-target cost drops from
//!   `O(counting + training + fine-tuning)` to `O(fine-tuning)`.
//!
//! Long runs can be observed and cancelled cooperatively through
//! [`ProgressObserver`]; a cancelled run returns [`HtcError::Cancelled`].

use crate::config::{HtcConfig, TopologyMode};
use crate::diffusion::diffusion_propagators;
use crate::error::HtcError;
use crate::finetune::{refine_orbit, OrbitRefinement};
use crate::integrate::{orbit_importance, AlignmentAccumulator, TopKAccumulator};
use crate::laplacian::{normalized_adjacency, orbit_laplacians};
use crate::lisi::lisi_matrix;
use crate::persist;
use crate::pipeline::{stages, AlignmentArtifact, HtcResult};
use crate::training::{train_multi_orbit, train_single_graph, TrainedModel};
use crate::Result;
use htc_graph::AttributedNetwork;
use htc_linalg::parallel::parallel_task_map;
use htc_linalg::{CsrMatrix, DenseMatrix};
use htc_metrics::StageTimer;
use htc_nn::GcnEncoder;
use htc_orbits::GomSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-stage and per-epoch progress callbacks with cooperative cancellation.
///
/// Every `bool`-returning hook acts as a cancellation point: returning `false`
/// abandons the run with [`HtcError::Cancelled`].  Observers are shared with
/// pool workers during [`AlignmentSession::align_many`], hence `Send + Sync`.
pub trait ProgressObserver: Send + Sync {
    /// A pipeline stage (see [`stages`]) is about to run.  Return `false` to
    /// cancel.  Stages served from cached session artifacts do not re-fire.
    ///
    /// During [`AlignmentSession::align_many`] the target-side stages run on
    /// pool workers, so several targets' stage events may interleave; the
    /// [`on_target_start`](Self::on_target_start) /
    /// [`on_target_end`](Self::on_target_end) pair brackets each target's
    /// events on its worker.
    fn on_stage_start(&self, _stage: &str) -> bool {
        true
    }

    /// A pipeline stage finished after `_elapsed`.
    fn on_stage_end(&self, _stage: &str, _elapsed: Duration) {}

    /// A training epoch finished with the given total reconstruction loss.
    /// Return `false` to cancel.
    fn on_epoch(&self, _epoch: usize, _total_epochs: usize, _loss: f64) -> bool {
        true
    }

    /// `align_many` is about to serve target `_index` of `_total`.  Return
    /// `false` to cancel (may fire on a pool worker thread).
    fn on_target_start(&self, _index: usize, _total: usize) -> bool {
        true
    }

    /// One fine-tuning refinement iteration finished for `_orbit` with
    /// `_trusted_pairs` trusted pairs.  Return `false` to cancel.  Orbits
    /// refine on pool workers, so different orbits' events may interleave.
    fn on_finetune_iteration(
        &self,
        _orbit: usize,
        _iteration: usize,
        _trusted_pairs: usize,
    ) -> bool {
        true
    }

    /// The blocked LISI sweep of a fine-tuning refinement finished one row
    /// block (`_done` of `_total`, counting both passes of the current
    /// sweep).  Return `false` to cancel — this is the finest-grained
    /// cancellation point, so deadlines interrupt a multi-minute sweep
    /// mid-flight instead of only between iterations.
    fn on_sweep_block(&self, _done: usize, _total: usize) -> bool {
        true
    }

    /// `align_many` finished target `_index` of `_total`.
    fn on_target_end(&self, _index: usize, _total: usize) {}
}

/// A [`ProgressObserver`] that cancels the run once a wall-clock deadline
/// passes — the cooperative time-budget primitive behind `htc-serve`'s
/// per-request deadlines, usable by any caller that needs a bounded
/// alignment.
///
/// Every cancellation point (stage start, epoch end, target start) compares
/// `Instant::now()` against the deadline; the first check past it vetoes the
/// run, which surfaces as [`HtcError::Cancelled`].  Whether the veto actually
/// fired is latched in [`expired`](Self::expired), so a caller sharing the
/// session with other cancellation sources can tell a deadline expiry apart
/// from an external cancel and report it differently (a `504` rather than a
/// `503`, say).  Cancellation never corrupts the session: artifacts publish
/// only on stage completion, so a timed-out session re-serves bit-identically.
#[derive(Debug)]
pub struct DeadlineObserver {
    deadline: Instant,
    expired: std::sync::atomic::AtomicBool,
}

impl DeadlineObserver {
    pub fn new(deadline: Instant) -> Self {
        Self {
            deadline,
            expired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// True once any cancellation point observed the deadline in the past
    /// (set even if the run finished before the veto could take effect).
    pub fn expired(&self) -> bool {
        self.expired.load(std::sync::atomic::Ordering::SeqCst)
    }

    fn check(&self) -> bool {
        if Instant::now() >= self.deadline {
            self.expired
                .store(true, std::sync::atomic::Ordering::SeqCst);
            false
        } else {
            true
        }
    }
}

impl ProgressObserver for DeadlineObserver {
    fn on_stage_start(&self, _stage: &str) -> bool {
        self.check()
    }

    fn on_epoch(&self, _epoch: usize, _total_epochs: usize, _loss: f64) -> bool {
        self.check()
    }

    fn on_target_start(&self, _index: usize, _total: usize) -> bool {
        self.check()
    }

    fn on_finetune_iteration(&self, _orbit: usize, _iteration: usize, _trusted: usize) -> bool {
        self.check()
    }

    fn on_sweep_block(&self, _done: usize, _total: usize) -> bool {
        self.check()
    }
}

/// Stage-1 artifact: the topological views of **one** graph.
///
/// For the paper's method this is the set of graphlet orbit matrices (the
/// output of the orbit-counting stage — the most expensive per-graph
/// preprocessing step); the ablation modes carry the plain adjacency instead.
/// The artifact is persistable ([`TopologyViews::save`]) so warm starts can
/// skip counting entirely.
#[derive(Debug, Clone)]
pub struct TopologyViews {
    pub(crate) num_nodes: usize,
    /// Structural fingerprint of the graph the views were built from (see
    /// [`graph_fingerprint`]); guards warm starts against stale artifacts.
    pub(crate) fingerprint: u64,
    pub(crate) kind: ViewKind,
}

/// Order-independent structural fingerprint of a graph: node count combined
/// with an XOR over per-edge FNV-1a hashes.  Two graphs with the same
/// fingerprint are, for warm-start purposes, the same graph — a changed edge
/// set (even with an unchanged node count) changes the fingerprint, so a
/// persisted [`TopologyViews`] artifact from an outdated catalog is rejected
/// instead of silently producing wrong alignments.
///
/// The fingerprint is also the artifact-cache key of a serving process (see
/// the `htc-serve` daemon): repeat requests for a structurally identical
/// source graph resolve to the same cached session artifacts.  Note that the
/// fingerprint covers **topology only** — callers whose cache identity must
/// also distinguish node attributes or configurations have to extend the key
/// themselves.
pub fn graph_fingerprint(graph: &htc_graph::Graph) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut combined = FNV_OFFSET ^ (graph.num_nodes() as u64).wrapping_mul(FNV_PRIME);
    for &(u, v) in graph.edges() {
        let (a, b) = if u <= v { (u, v) } else { (v, u) };
        let mut h = FNV_OFFSET;
        for byte in (a as u64)
            .to_le_bytes()
            .into_iter()
            .chain((b as u64).to_le_bytes())
        {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
        // XOR keeps the combination independent of edge order.
        combined ^= h;
    }
    combined
}

#[derive(Debug, Clone)]
pub(crate) enum ViewKind {
    /// Graphlet orbit matrices (the HTC method).
    Orbits(GomSet),
    /// The raw adjacency; expanded to one propagator (HTC-L / HTC-LT).
    LowOrder(CsrMatrix),
    /// The raw adjacency; expanded to `num_views` PPR diffusion propagators
    /// (HTC-DT).
    Diffusion {
        adjacency: CsrMatrix,
        num_views: usize,
        alpha: f64,
    },
}

impl TopologyViews {
    /// Builds the views of `network` for the configured topology mode.  In
    /// orbit mode this runs the GOM counting pass.
    pub fn build(network: &AttributedNetwork, config: &HtcConfig) -> Self {
        let kind = match config.topology {
            TopologyMode::Orbits {
                num_orbits,
                weighting,
            } => ViewKind::Orbits(GomSet::build(network.graph(), num_orbits, weighting)),
            TopologyMode::LowOrderOnly => ViewKind::LowOrder(network.graph().adjacency()),
            TopologyMode::Diffusion { num_views, alpha } => ViewKind::Diffusion {
                adjacency: network.graph().adjacency(),
                num_views,
                alpha,
            },
        };
        Self {
            num_nodes: network.num_nodes(),
            fingerprint: graph_fingerprint(network.graph()),
            kind,
        }
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Structural fingerprint of the graph these views were built from (see
    /// [`graph_fingerprint`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of propagators these views will expand to.
    pub fn num_views(&self) -> usize {
        match &self.kind {
            ViewKind::Orbits(goms) => goms.num_orbits(),
            ViewKind::LowOrder(_) => 1,
            ViewKind::Diffusion { num_views, .. } => (*num_views).max(1),
        }
    }

    /// The graphlet orbit matrices, when the views were built in orbit mode.
    pub fn goms(&self) -> Option<&GomSet> {
        match &self.kind {
            ViewKind::Orbits(goms) => Some(goms),
            _ => None,
        }
    }

    /// Whether building these views involves the (expensive) orbit-counting
    /// stage.
    pub(crate) fn counts_orbits(config: &HtcConfig) -> bool {
        matches!(config.topology, TopologyMode::Orbits { .. })
    }

    /// Checks that these views are exactly what [`TopologyViews::build`]
    /// would produce under `config` — same mode, and same mode parameters
    /// (orbit count and weighting, or diffusion order and teleport
    /// probability).  Guards the warm-start path against silently aligning
    /// with propagators the configuration never asked for.
    fn compatible_with(&self, config: &HtcConfig) -> Result<()> {
        let mismatch = |msg: String| Err(HtcError::Persistence(msg));
        match (&self.kind, config.topology) {
            (
                ViewKind::Orbits(goms),
                TopologyMode::Orbits {
                    num_orbits,
                    weighting,
                },
            ) => {
                if goms.num_orbits() != num_orbits {
                    return mismatch(format!(
                        "views carry {} orbit matrices, configuration asks for {num_orbits}",
                        goms.num_orbits()
                    ));
                }
                if goms.weighting() != weighting {
                    return mismatch(format!(
                        "views were built with {:?} GOM weighting, configuration asks for {:?}",
                        goms.weighting(),
                        weighting
                    ));
                }
                Ok(())
            }
            (ViewKind::LowOrder(_), TopologyMode::LowOrderOnly) => Ok(()),
            (
                ViewKind::Diffusion {
                    num_views, alpha, ..
                },
                TopologyMode::Diffusion {
                    num_views: want_views,
                    alpha: want_alpha,
                },
            ) => {
                if *num_views != want_views || *alpha != want_alpha {
                    return mismatch(format!(
                        "views were built for diffusion (k = {num_views}, α = {alpha}), \
                         configuration asks for (k = {want_views}, α = {want_alpha})"
                    ));
                }
                Ok(())
            }
            (kind, topology) => {
                let kind_name = match kind {
                    ViewKind::Orbits(_) => "orbit",
                    ViewKind::LowOrder(_) => "low-order",
                    ViewKind::Diffusion { .. } => "diffusion",
                };
                mismatch(format!(
                    "views were built in {kind_name} mode, configuration asks for {topology:?}"
                ))
            }
        }
    }

    /// Persists the views (including the GOMs) to `path` in the versioned
    /// binary artifact format; the round-trip is bit-exact.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        persist::save_views(self, path.as_ref())
    }

    /// Loads views previously written by [`TopologyViews::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        persist::load_views(path.as_ref())
    }
}

/// Stage-2 artifact: the normalised GCN propagators of one graph — one
/// symmetric matrix per topological view (Eq. 3–5 of the paper).
#[derive(Debug, Clone)]
pub struct Propagators {
    laplacians: Vec<CsrMatrix>,
}

impl Propagators {
    /// Expands topology views into their normalised propagators.
    pub fn build(views: &TopologyViews) -> Self {
        let laplacians = match &views.kind {
            ViewKind::Orbits(goms) => orbit_laplacians(goms),
            ViewKind::LowOrder(adjacency) => vec![normalized_adjacency(adjacency)],
            ViewKind::Diffusion {
                adjacency,
                num_views,
                alpha,
            } => diffusion_propagators(adjacency, *num_views, *alpha, 1e-4),
        };
        Self { laplacians }
    }

    /// Number of views.
    pub fn num_views(&self) -> usize {
        self.laplacians.len()
    }

    /// The per-view propagator matrices.
    pub fn laplacians(&self) -> &[CsrMatrix] {
        &self.laplacians
    }
}

/// Stage-3 artifact: the trained shared encoder plus its convergence history.
///
/// Persistable ([`TrainedEncoder::save`]) in the versioned binary artifact
/// format, so a serving process can warm-start from a model trained
/// elsewhere; the round-trip is bit-exact and preserves the session API's
/// determinism guarantees.
#[derive(Debug, Clone)]
pub struct TrainedEncoder {
    encoder: GcnEncoder,
    loss_history: Vec<f64>,
}

impl TrainedEncoder {
    pub(crate) fn from_model(model: TrainedModel) -> Self {
        Self {
            encoder: model.encoder,
            loss_history: model.loss_history,
        }
    }

    /// Rewraps an encoder and its training history (the deserialisation
    /// path).
    pub fn from_parts(encoder: GcnEncoder, loss_history: Vec<f64>) -> Self {
        Self {
            encoder,
            loss_history,
        }
    }

    /// The trained GCN encoder.
    pub fn encoder(&self) -> &GcnEncoder {
        &self.encoder
    }

    /// Total reconstruction loss per training epoch.
    pub fn loss_history(&self) -> &[f64] {
        &self.loss_history
    }

    /// Persists the encoder weights (bit-exact) and loss history to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        persist::save_encoder(self, path.as_ref())
    }

    /// Loads an encoder previously written by [`TrainedEncoder::save`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        persist::load_encoder(path.as_ref())
    }
}

/// Stage-4 artifact: the per-orbit refined embeddings and trusted-pair counts
/// produced by Algorithm 2.
#[derive(Debug, Clone)]
pub struct OrbitRefinements {
    refinements: Vec<OrbitRefinement>,
}

impl OrbitRefinements {
    /// Per-orbit refinement outcomes in orbit order.
    pub fn refinements(&self) -> &[OrbitRefinement] {
        &self.refinements
    }

    /// Number of refined orbits.
    pub fn len(&self) -> usize {
        self.refinements.len()
    }

    /// Whether no orbit was refined.
    pub fn is_empty(&self) -> bool {
        self.refinements.is_empty()
    }

    /// Per-orbit trusted-pair counts `T_k`.
    pub fn trusted_counts(&self) -> Vec<usize> {
        self.refinements.iter().map(|r| r.trusted_count).collect()
    }

    /// Posterior importance weights `γ_k` (Eq. 15) derived from the counts.
    pub fn importance(&self) -> Vec<f64> {
        orbit_importance(&self.trusted_counts())
    }
}

/// Applies the configured input augmentation to a network.
fn prepare(network: &AttributedNetwork, config: &HtcConfig) -> AttributedNetwork {
    if config.append_degree_feature {
        network.with_degree_feature()
    } else {
        network.clone()
    }
}

/// Runs one observed, timed pipeline stage: fires `on_stage_start`
/// (translating a veto into [`HtcError::Cancelled`]), executes `body`,
/// records the elapsed time and the process peak RSS observed at stage end
/// under `stage` in `timer`, fires `on_stage_end`, and returns the body's
/// output together with the elapsed time.
///
/// The RSS sample is the *process high-water mark* at the moment the stage
/// finished (0 where procfs is unavailable) — it tells which stage first
/// pushed the process to its peak, which is the number the `Large`-tier
/// memory budget is written against.
fn run_stage<R>(
    observer: Option<&Arc<dyn ProgressObserver>>,
    timer: &mut StageTimer,
    stage: &str,
    body: impl FnOnce() -> Result<R>,
) -> Result<(R, Duration)> {
    if let Some(obs) = observer {
        if !obs.on_stage_start(stage) {
            return Err(HtcError::Cancelled);
        }
    }
    let start = Instant::now();
    let result = body()?;
    let elapsed = start.elapsed();
    timer.record_with_peak_rss(stage, elapsed, htc_metrics::peak_rss_bytes().unwrap_or(0));
    if let Some(obs) = observer {
        obs.on_stage_end(stage, elapsed);
    }
    Ok((result, elapsed))
}

/// Stage 1 for one graph: builds the topology views of `network`, timed as
/// the orbit-counting stage when the mode counts orbits (the returned
/// duration).  The ablation modes just borrow the adjacency here and record
/// no stage; their real work happens in the Laplacian stage, mirroring the
/// monolithic pipeline's stage accounting.
fn views_stage(
    observer: Option<&Arc<dyn ProgressObserver>>,
    timer: &mut StageTimer,
    network: &AttributedNetwork,
    config: &HtcConfig,
) -> Result<(TopologyViews, Option<Duration>)> {
    if !TopologyViews::counts_orbits(config) {
        return Ok((TopologyViews::build(network, config), None));
    }
    let (views, elapsed) = run_stage(observer, timer, stages::ORBIT_COUNTING, || {
        Ok(TopologyViews::build(network, config))
    })?;
    Ok((views, Some(elapsed)))
}

/// Stage 5 plus result assembly: derives the importance weights γ (Eq. 15)
/// from the refinements' trusted-pair counts, runs the timed integration and
/// packs the [`HtcResult`], keeping the refined embeddings when configured.
fn integrate_stage(
    observer: Option<&Arc<dyn ProgressObserver>>,
    mut timer: StageTimer,
    config: &HtcConfig,
    refinements: Vec<OrbitRefinement>,
    loss_history: Vec<f64>,
    source_nodes: usize,
    target_nodes: usize,
) -> Result<HtcResult> {
    let trusted_counts: Vec<usize> = refinements.iter().map(|r| r.trusted_count).collect();
    let gamma = orbit_importance(&trusted_counts);
    let (alignment, _) = run_stage(observer, &mut timer, stages::INTEGRATION, || {
        Ok(integrate_refinements_artifact(
            config,
            &refinements,
            &gamma,
            source_nodes,
            target_nodes,
        ))
    })?;
    let embeddings = config.keep_embeddings.then(|| {
        refinements
            .into_iter()
            .map(|r| (r.source_embedding, r.target_embedding))
            .collect()
    });
    Ok(HtcResult::from_parts(
        alignment,
        gamma,
        trusted_counts,
        loss_history,
        timer,
        embeddings,
    ))
}

/// A reusable alignment session anchored on one **source** graph.
///
/// The session owns the source-side stage artifacts and builds each of them
/// at most once; see the [module docs](self) for the lifecycle and the
/// pairwise-vs-serving semantics.
pub struct AlignmentSession {
    config: HtcConfig,
    /// The source network with input augmentation already applied.
    source: AttributedNetwork,
    /// Attribute dimensionality before augmentation (what targets must match).
    raw_attr_dim: usize,
    /// Structural fingerprint of the source graph (see [`graph_fingerprint`]).
    source_fingerprint: u64,
    observer: Option<Arc<dyn ProgressObserver>>,
    /// Source-side shared-artifact stage times; per-alignment stage times live
    /// in each [`HtcResult::timer`].
    timer: StageTimer,
    source_views: Option<Arc<TopologyViews>>,
    source_propagators: Option<Arc<Propagators>>,
    /// Source-only trained encoder (the `align_many` serving path).
    shared_encoder: Option<Arc<TrainedEncoder>>,
}

impl std::fmt::Debug for AlignmentSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignmentSession")
            .field("source_nodes", &self.source.num_nodes())
            .field("num_views", &self.config.num_views())
            .field("has_views", &self.source_views.is_some())
            .field("has_propagators", &self.source_propagators.is_some())
            .field("has_shared_encoder", &self.shared_encoder.is_some())
            .finish()
    }
}

impl AlignmentSession {
    /// Opens a session for `source`, validating the configuration and the
    /// network up front.
    pub fn new(config: HtcConfig, source: &AttributedNetwork) -> Result<Self> {
        config.validate()?;
        if source.num_nodes() == 0 {
            return Err(HtcError::EmptyNetwork);
        }
        let raw_attr_dim = source.attr_dim();
        let source_fingerprint = graph_fingerprint(source.graph());
        let prepared = prepare(source, &config);
        Ok(Self {
            config,
            source: prepared,
            raw_attr_dim,
            source_fingerprint,
            observer: None,
            timer: StageTimer::new(),
            source_views: None,
            source_propagators: None,
            shared_encoder: None,
        })
    }

    /// Attaches a progress observer (builder style).
    pub fn with_observer(mut self, observer: Arc<dyn ProgressObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Attaches or replaces the progress observer on an existing session
    /// (`None` detaches).  Long-running processes swap observers per request
    /// batch without rebuilding the session's cached artifacts.
    pub fn set_observer(&mut self, observer: Option<Arc<dyn ProgressObserver>>) {
        self.observer = observer;
    }

    /// Structural fingerprint of the session's source graph (see
    /// [`graph_fingerprint`]).  Serving processes use this as the artifact
    /// cache key: a request whose source graph hashes to the same fingerprint
    /// can reuse this session's counted orbits, propagators and trained
    /// encoder.
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Discards every cached source-side artifact (topology views,
    /// propagators, shared encoder), returning the session to its
    /// freshly-opened state; the next alignment rebuilds them from scratch.
    ///
    /// A long-running server calls this after a request handler caught a
    /// panic that unwound through an alignment on this session: the cached
    /// artifacts themselves are only ever published *after* their stage
    /// completed, but dropping them guarantees the session cannot serve state
    /// derived from whatever the panicking stage left behind (e.g. a poisoned
    /// downstream computation).  Stage timings already accumulated are kept —
    /// rebuilt stages simply record additional occurrences.
    pub fn reset(&mut self) {
        self.source_views = None;
        self.source_propagators = None;
        self.shared_encoder = None;
    }

    /// The session's configuration.
    pub fn config(&self) -> &HtcConfig {
        &self.config
    }

    /// The source network (with input augmentation applied).
    pub fn source(&self) -> &AttributedNetwork {
        &self.source
    }

    /// Wall-clock spent building the session's shared source-side artifacts.
    ///
    /// Each shared stage appears at most once per artifact build —
    /// `timer().count(stages::TRAINING) == 1` after any number of
    /// [`align_many`](Self::align_many) calls is the "train once" guarantee.
    pub fn timer(&self) -> &StageTimer {
        &self.timer
    }

    /// Returns the (cached) source topology views plus the time just spent
    /// building them (`None` when served from cache or when the mode has no
    /// counting stage).
    fn ensure_source_views(&mut self) -> Result<(Arc<TopologyViews>, Option<Duration>)> {
        if let Some(views) = &self.source_views {
            return Ok((views.clone(), None));
        }
        let (views, spent) = views_stage(
            self.observer.as_ref(),
            &mut self.timer,
            &self.source,
            &self.config,
        )?;
        let views = Arc::new(views);
        self.source_views = Some(views.clone());
        Ok((views, spent))
    }

    /// Returns the (cached) source propagators plus the time just spent
    /// building them (`None` when served from cache).
    fn ensure_source_propagators(&mut self) -> Result<(Arc<Propagators>, Option<Duration>)> {
        if let Some(props) = &self.source_propagators {
            return Ok((props.clone(), None));
        }
        let (views, _) = self.ensure_source_views()?;
        let (props, elapsed) = run_stage(
            self.observer.as_ref(),
            &mut self.timer,
            stages::LAPLACIAN,
            || Ok(Propagators::build(&views)),
        )?;
        let props = Arc::new(props);
        self.source_propagators = Some(props.clone());
        Ok((props, Some(elapsed)))
    }

    /// Stage 1 for the source: topology views (orbit counting), computed once
    /// and cached.
    pub fn source_views(&mut self) -> Result<Arc<TopologyViews>> {
        Ok(self.ensure_source_views()?.0)
    }

    /// The cached source topology views, **without** building them — `None`
    /// until some alignment (or [`source_views`](Self::source_views) /
    /// [`set_source_views`](Self::set_source_views)) produced them.
    ///
    /// Serving processes use this together with
    /// [`encoder_if_trained`](Self::encoder_if_trained) to persist whatever
    /// artifacts a session has accumulated so far (e.g. a durable cache
    /// spilling after each request) without ever forcing an expensive stage
    /// just to save it.
    pub fn views_if_built(&self) -> Option<Arc<TopologyViews>> {
        self.source_views.clone()
    }

    /// The cached source-trained shared encoder, **without** training —
    /// `None` until [`train`](Self::train) /
    /// [`align_many`](Self::align_many) ran (or
    /// [`set_encoder`](Self::set_encoder) warm-started it).  See
    /// [`views_if_built`](Self::views_if_built).
    pub fn encoder_if_trained(&self) -> Option<Arc<TrainedEncoder>> {
        self.shared_encoder.clone()
    }

    /// Stage 2 for the source: normalised propagators, computed once and
    /// cached.
    pub fn source_propagators(&mut self) -> Result<Arc<Propagators>> {
        Ok(self.ensure_source_propagators()?.0)
    }

    /// Stage 3 for the serving path: trains the shared encoder on the source
    /// graph alone, once, and caches it for every subsequent
    /// [`align_many`](Self::align_many) / [`align_shared`](Self::align_shared)
    /// call.
    pub fn train(&mut self) -> Result<Arc<TrainedEncoder>> {
        if let Some(encoder) = &self.shared_encoder {
            return Ok(encoder.clone());
        }
        let (props, _) = self.ensure_source_propagators()?;
        let observer = self.observer.clone();
        let epochs = self.config.epochs;
        let source = &self.source;
        let config = &self.config;
        let (model, _) = run_stage(observer.as_ref(), &mut self.timer, stages::TRAINING, || {
            train_single_graph(
                props.laplacians(),
                source.attributes(),
                config,
                &mut |epoch, loss| {
                    observer
                        .as_ref()
                        .is_none_or(|o| o.on_epoch(epoch, epochs, loss))
                },
            )
        })?;
        let encoder = Arc::new(TrainedEncoder::from_model(model));
        self.shared_encoder = Some(encoder.clone());
        Ok(encoder)
    }

    /// Warm-starts the serving path with a persisted encoder (e.g. from
    /// [`TrainedEncoder::load`]), skipping the training stage entirely.
    ///
    /// The encoder must match the session: its input dimension must equal the
    /// (augmented) attribute dimensionality and its output dimension the
    /// configured embedding dimension.
    pub fn set_encoder(&mut self, encoder: TrainedEncoder) -> Result<()> {
        let expected_in = self.source.attr_dim();
        if encoder.encoder().input_dim() != expected_in {
            return Err(HtcError::Persistence(format!(
                "encoder expects input dimension {}, session attributes have {}",
                encoder.encoder().input_dim(),
                expected_in
            )));
        }
        if encoder.encoder().output_dim() != self.config.embedding_dim() {
            return Err(HtcError::Persistence(format!(
                "encoder produces dimension {}, configuration asks for {}",
                encoder.encoder().output_dim(),
                self.config.embedding_dim()
            )));
        }
        self.shared_encoder = Some(Arc::new(encoder));
        Ok(())
    }

    /// Warm-starts the session with persisted source topology views (e.g.
    /// from [`TopologyViews::load`]), skipping the orbit-counting stage.
    ///
    /// The views must match the session exactly — same node count, same
    /// topology mode and same mode parameters (orbit count and weighting, or
    /// diffusion order and teleport probability) — otherwise the session
    /// would silently align with propagators the configuration never asked
    /// for.
    pub fn set_source_views(&mut self, views: TopologyViews) -> Result<()> {
        if views.num_nodes() != self.source.num_nodes() {
            return Err(HtcError::Persistence(format!(
                "views were built for {} nodes, source has {}",
                views.num_nodes(),
                self.source.num_nodes()
            )));
        }
        views.compatible_with(&self.config)?;
        if views.fingerprint != graph_fingerprint(self.source.graph()) {
            return Err(HtcError::Persistence(
                "views were built from a structurally different graph \
                 (the catalog changed since the artifact was saved)"
                    .into(),
            ));
        }
        // The checks above establish that these views are exactly what
        // `TopologyViews::build` would produce for this session (same graph,
        // same mode, same parameters), so any propagators or encoder already
        // derived remain valid — in particular, `set_encoder` followed by
        // `set_source_views` keeps the warm-started encoder.
        self.source_views = Some(Arc::new(views));
        Ok(())
    }

    /// Validates a target against the session's source contract.
    fn check_target(&self, target: &AttributedNetwork) -> Result<()> {
        if target.num_nodes() == 0 {
            return Err(HtcError::EmptyNetwork);
        }
        if self.raw_attr_dim != target.attr_dim() {
            return Err(HtcError::AttributeDimensionMismatch {
                source: self.raw_attr_dim,
                target: target.attr_dim(),
            });
        }
        Ok(())
    }

    /// Starts a stage-by-stage **pairwise** alignment against `target`.
    ///
    /// The returned driver advances the pipeline lazily; dropping it discards
    /// the pair-specific artifacts while the session keeps the shared
    /// source-side ones.
    pub fn begin<'s>(&'s mut self, target: &AttributedNetwork) -> Result<PairAlignment<'s>> {
        self.check_target(target)?;
        let prepared = prepare(target, &self.config);
        Ok(PairAlignment {
            session: self,
            target: prepared,
            source_views: None,
            target_views: None,
            source_propagators: None,
            target_propagators: None,
            trained: None,
            refinements: None,
            timer: StageTimer::new(),
        })
    }

    /// **Pairwise** alignment: trains jointly on source and target, exactly
    /// like the paper.  Bit-identical to
    /// [`HtcAligner::align`](crate::HtcAligner::align) on the same pair, but
    /// reuses the session's cached source views and propagators.
    pub fn align(&mut self, target: &AttributedNetwork) -> Result<HtcResult> {
        self.begin(target)?.finish()
    }

    /// **Serving** alignment of one target with the shared source-trained
    /// encoder (equivalent to `align_many` with a single target).
    pub fn align_shared(&mut self, target: &AttributedNetwork) -> Result<HtcResult> {
        let mut results = self.align_many(std::slice::from_ref(target))?;
        Ok(results.pop().expect("one target in, one result out"))
    }

    /// Aligns the source against **many** targets, sharing every source-side
    /// artifact: orbit counting, Laplacian construction and encoder training
    /// run exactly once (on the first call), then per-target fine-tuning and
    /// integration fan out on the shared thread pool.
    ///
    /// Per-target stage timings live in each returned [`HtcResult::timer`];
    /// the shared stages accumulate in [`AlignmentSession::timer`].  Results
    /// are returned in target order and are bit-identical across thread
    /// counts.
    pub fn align_many(&mut self, targets: &[AttributedNetwork]) -> Result<Vec<HtcResult>> {
        for target in targets {
            self.check_target(target)?;
        }
        if targets.is_empty() {
            // Nothing to serve — in particular, do not train for an empty
            // batch.
            return Ok(Vec::new());
        }
        let encoder = self.train()?;
        let props = self.source_propagators()?;
        let config = &self.config;
        let source = &self.source;
        let observer = self.observer.clone();
        let total = targets.len();
        parallel_task_map(total, |i| {
            if let Some(obs) = &observer {
                if !obs.on_target_start(i, total) {
                    return Err(HtcError::Cancelled);
                }
            }
            let result = align_with_shared_encoder(
                config,
                source,
                &props,
                &encoder,
                &targets[i],
                observer.as_ref(),
            );
            if let Some(obs) = &observer {
                obs.on_target_end(i, total);
            }
            result
        })
        .into_iter()
        .collect()
    }
}

/// Serves one target with an already-trained source encoder: target-side
/// stages only (counting + Laplacians for the target, per-orbit fine-tuning,
/// weighted integration).  Each stage fires the observer's stage events and
/// honours cancellation; stage times land in the returned result's timer.
fn align_with_shared_encoder(
    config: &HtcConfig,
    source: &AttributedNetwork,
    source_propagators: &Propagators,
    encoder: &TrainedEncoder,
    raw_target: &AttributedNetwork,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> Result<HtcResult> {
    let target = prepare(raw_target, config);
    let mut timer = StageTimer::new();
    let (target_views, _) = views_stage(observer, &mut timer, &target, config)?;
    let (target_propagators, _) = run_stage(observer, &mut timer, stages::LAPLACIAN, || {
        Ok(Propagators::build(&target_views))
    })?;

    let (refinements, _) = run_stage(observer, &mut timer, stages::FINE_TUNING, || {
        refine_all_orbits(
            encoder.encoder(),
            source_propagators,
            &target_propagators,
            source.attributes(),
            target.attributes(),
            config,
            observer,
        )
    })?;
    integrate_stage(
        observer,
        timer,
        config,
        refinements,
        encoder.loss_history().to_vec(),
        source.num_nodes(),
        target.num_nodes(),
    )
}

/// Stage 4 over every orbit: refinements run as coarse tasks on the shared
/// worker pool, collected in orbit order so the outcome is identical to the
/// sequential loop for every thread count.
fn refine_all_orbits(
    encoder: &GcnEncoder,
    source_propagators: &Propagators,
    target_propagators: &Propagators,
    source_attrs: &DenseMatrix,
    target_attrs: &DenseMatrix,
    config: &HtcConfig,
    observer: Option<&Arc<dyn ProgressObserver>>,
) -> Result<Vec<OrbitRefinement>> {
    let source_laps = source_propagators.laplacians();
    let target_laps = target_propagators.laplacians();
    assert_eq!(
        source_laps.len(),
        target_laps.len(),
        "both graphs must expose the same number of topological views"
    );
    parallel_task_map(source_laps.len(), |k| {
        refine_orbit(
            encoder,
            &source_laps[k],
            &target_laps[k],
            source_attrs,
            target_attrs,
            config,
            k,
            observer,
        )
    })
    .into_iter()
    .collect()
}

/// Stage 5, dispatching on the configured scale tier: the dense weighted
/// accumulation below, or — in the `Large` tier — a gamma-weighted merge of
/// the top-k artifacts each refinement kept from its best iteration (no
/// additional similarity sweep; the `n_s × n_t` matrix is never
/// materialised).
fn integrate_refinements_artifact(
    config: &HtcConfig,
    refinements: &[OrbitRefinement],
    gamma: &[f64],
    source_nodes: usize,
    target_nodes: usize,
) -> AlignmentArtifact {
    if config.scale.is_large() {
        let mut accum = TopKAccumulator::new(source_nodes, target_nodes, config.top_k);
        for (refinement, &weight) in refinements.iter().zip(gamma) {
            if weight != 0.0 {
                accum.add_weighted(&refinement.topk, weight);
            }
        }
        AlignmentArtifact::TopK(accum.finish())
    } else {
        AlignmentArtifact::Dense(integrate_refinements(
            refinements,
            gamma,
            source_nodes,
            target_nodes,
            config.nearest_neighbors,
        ))
    }
}

/// Stage 5 (dense tier): each orbit's full LISI matrix, computed and
/// accumulated one orbit at a time in orbit order, so only one `n_s × n_t`
/// matrix is live besides the accumulator (the kernels inside parallelise;
/// bits are identical for every thread count).
fn integrate_refinements(
    refinements: &[OrbitRefinement],
    gamma: &[f64],
    source_nodes: usize,
    target_nodes: usize,
    nearest_neighbors: usize,
) -> DenseMatrix {
    let mut accum = AlignmentAccumulator::new(source_nodes, target_nodes);
    for (refinement, &weight) in refinements.iter().zip(gamma) {
        if weight != 0.0 {
            let lisi = lisi_matrix(
                &refinement.source_embedding,
                &refinement.target_embedding,
                nearest_neighbors,
            );
            accum.add_weighted(&lisi, weight);
        }
    }
    accum.finish()
}

/// A stage-by-stage **pairwise** alignment in progress (see
/// [`AlignmentSession::begin`]).
///
/// Each stage method computes its stage (and any missing prerequisite) on
/// first call and returns the artifact for inspection;
/// [`finish`](PairAlignment::finish) runs whatever remains and assembles the
/// [`HtcResult`].  Calling `finish()` directly on a fresh driver is exactly
/// [`AlignmentSession::align`].
pub struct PairAlignment<'s> {
    session: &'s mut AlignmentSession,
    /// The target network with input augmentation applied.
    target: AttributedNetwork,
    source_views: Option<Arc<TopologyViews>>,
    target_views: Option<TopologyViews>,
    source_propagators: Option<Arc<Propagators>>,
    target_propagators: Option<Propagators>,
    /// Jointly trained encoder — specific to this pair, never cached in the
    /// session.
    trained: Option<TrainedEncoder>,
    refinements: Option<OrbitRefinements>,
    /// Stage times incurred by *this* alignment, including shared source
    /// artifacts when this run was the one that built them.
    timer: StageTimer,
}

impl<'s> PairAlignment<'s> {
    /// Stage times incurred by this alignment so far.
    pub fn timer(&self) -> &StageTimer {
        &self.timer
    }

    /// Discards every pair-specific stage artifact (target views, target
    /// propagators, the jointly trained encoder, refinements), forcing the
    /// next stage call to recompute them; the session's shared source-side
    /// artifacts are kept.
    ///
    /// Stage methods only publish an artifact after its stage completed, so a
    /// failed or cancelled call leaves no partially-populated artifact behind
    /// and a plain retry recomputes exactly the missing stages.  `reset`
    /// exists for callers that want a *stronger* guarantee after an error —
    /// e.g. a serving loop that caught a panic mid-stage — by dropping even
    /// the completed pair-side artifacts before retrying.
    pub fn reset(&mut self) {
        self.target_views = None;
        self.target_propagators = None;
        self.trained = None;
        self.refinements = None;
    }

    /// The prepared target network.
    pub fn target(&self) -> &AttributedNetwork {
        &self.target
    }

    fn ensure_views(&mut self) -> Result<()> {
        if self.source_views.is_none() {
            let (views, spent) = self.session.ensure_source_views()?;
            if let Some(d) = spent {
                self.timer.record(stages::ORBIT_COUNTING, d);
            }
            self.source_views = Some(views);
        }
        if self.target_views.is_none() {
            let (views, _) = views_stage(
                self.session.observer.as_ref(),
                &mut self.timer,
                &self.target,
                &self.session.config,
            )?;
            self.target_views = Some(views);
        }
        Ok(())
    }

    /// Stage 1: topology views of `(source, target)`.
    pub fn topology_views(&mut self) -> Result<(&TopologyViews, &TopologyViews)> {
        self.ensure_views()?;
        Ok((
            self.source_views.as_deref().expect("just ensured"),
            self.target_views.as_ref().expect("just ensured"),
        ))
    }

    fn ensure_propagators(&mut self) -> Result<()> {
        self.ensure_views()?;
        if self.source_propagators.is_none() {
            let (props, spent) = self.session.ensure_source_propagators()?;
            if let Some(d) = spent {
                self.timer.record(stages::LAPLACIAN, d);
            }
            self.source_propagators = Some(props);
        }
        if self.target_propagators.is_none() {
            let views = self.target_views.as_ref().expect("ensured above");
            let (props, _) = run_stage(
                self.session.observer.as_ref(),
                &mut self.timer,
                stages::LAPLACIAN,
                || Ok(Propagators::build(views)),
            )?;
            self.target_propagators = Some(props);
        }
        Ok(())
    }

    /// Stage 2: normalised propagators of `(source, target)`.
    pub fn propagators(&mut self) -> Result<(&Propagators, &Propagators)> {
        self.ensure_propagators()?;
        Ok((
            self.source_propagators.as_deref().expect("just ensured"),
            self.target_propagators.as_ref().expect("just ensured"),
        ))
    }

    fn ensure_trained(&mut self) -> Result<()> {
        if self.trained.is_some() {
            return Ok(());
        }
        self.ensure_propagators()?;
        let observer = self.session.observer.clone();
        let epochs = self.session.config.epochs;
        let source_props = self.source_propagators.as_deref().expect("ensured above");
        let target_props = self.target_propagators.as_ref().expect("ensured above");
        let source_attrs = self.session.source.attributes();
        let target_attrs = self.target.attributes();
        let config = &self.session.config;
        let (model, _) = run_stage(observer.as_ref(), &mut self.timer, stages::TRAINING, || {
            train_multi_orbit(
                source_props.laplacians(),
                target_props.laplacians(),
                source_attrs,
                target_attrs,
                config,
                &mut |epoch, loss| {
                    observer
                        .as_ref()
                        .is_none_or(|o| o.on_epoch(epoch, epochs, loss))
                },
            )
        })?;
        self.trained = Some(TrainedEncoder::from_model(model));
        Ok(())
    }

    /// Stage 3: the encoder trained **jointly** on source and target
    /// (Algorithm 1).
    pub fn train(&mut self) -> Result<&TrainedEncoder> {
        self.ensure_trained()?;
        Ok(self.trained.as_ref().expect("just ensured"))
    }

    fn ensure_refined(&mut self) -> Result<()> {
        if self.refinements.is_some() {
            return Ok(());
        }
        self.ensure_trained()?;
        let encoder = self.trained.as_ref().expect("ensured above").encoder();
        let source_props = self.source_propagators.as_deref().expect("ensured above");
        let target_props = self.target_propagators.as_ref().expect("ensured above");
        let source_attrs = self.session.source.attributes();
        let target_attrs = self.target.attributes();
        let config = &self.session.config;
        let observer = self.session.observer.as_ref();
        let (refinements, _) = run_stage(observer, &mut self.timer, stages::FINE_TUNING, || {
            refine_all_orbits(
                encoder,
                source_props,
                target_props,
                source_attrs,
                target_attrs,
                config,
                observer,
            )
        })?;
        self.refinements = Some(OrbitRefinements { refinements });
        Ok(())
    }

    /// Stage 4: per-orbit trusted-pair fine-tuning (Algorithm 2).
    pub fn refine(&mut self) -> Result<&OrbitRefinements> {
        self.ensure_refined()?;
        Ok(self.refinements.as_ref().expect("just ensured"))
    }

    /// Runs every remaining stage and assembles the final [`HtcResult`].
    pub fn finish(mut self) -> Result<HtcResult> {
        self.ensure_refined()?;
        let refinements = self.refinements.take().expect("just ensured");
        let trained = self.trained.take().expect("refined implies trained");
        integrate_stage(
            self.session.observer.as_ref(),
            self.timer,
            &self.session.config,
            refinements.refinements,
            trained.loss_history,
            self.session.source.num_nodes(),
            self.target.num_nodes(),
        )
    }
}
