//! Integration tests for the staged `AlignmentSession` API: bit-identity
//! with the monolithic aligner, source-artifact reuse in `align_many`,
//! ablation variants through the session, progress/cancellation, and
//! persistence warm starts.

use htc::core::pipeline::stages;
use htc::core::{
    AlignmentSession, HtcAligner, HtcConfig, HtcError, HtcResult, HtcVariant, ProgressObserver,
    TopologyViews, TrainedEncoder,
};
use htc::datasets::{generate_pair, DatasetPair, SyntheticPairConfig};
use htc::metrics::StageTimer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn tiny_pair(n: usize) -> DatasetPair {
    generate_pair(&SyntheticPairConfig {
        edge_removal: 0.05,
        ..SyntheticPairConfig::tiny(n)
    })
}

fn fast_config() -> HtcConfig {
    let mut config = HtcConfig::fast();
    config.epochs = 10;
    config
}

/// Every recorded stage with its occurrence count, in recording order.
fn stage_counts(timer: &StageTimer) -> Vec<(&str, usize)> {
    timer
        .stages()
        .map(|(name, _)| (name, timer.count(name)))
        .collect()
}

fn assert_bit_identical(a: &HtcResult, b: &HtcResult) {
    assert!(
        a.alignment().approx_eq(b.alignment(), 0.0),
        "alignment matrices must match bit-for-bit"
    );
    assert_eq!(a.trusted_counts(), b.trusted_counts());
    assert_eq!(a.loss_history(), b.loss_history());
    assert_eq!(a.orbit_importance(), b.orbit_importance());
}

#[test]
fn session_align_is_bit_identical_to_aligner() {
    let pair = tiny_pair(14);
    let config = fast_config();
    let monolithic = HtcAligner::new(config.clone())
        .align(&pair.source, &pair.target)
        .unwrap();
    let mut session = AlignmentSession::new(config, &pair.source).unwrap();
    let staged = session.align(&pair.target).unwrap();
    assert_bit_identical(&monolithic, &staged);
}

#[test]
fn explicit_stage_by_stage_run_matches_monolithic() {
    let pair = tiny_pair(14);
    let config = fast_config();
    let monolithic = HtcAligner::new(config.clone())
        .align(&pair.source, &pair.target)
        .unwrap();

    let mut session = AlignmentSession::new(config.clone(), &pair.source).unwrap();
    let mut staged = session.begin(&pair.target).unwrap();
    // Advance one stage at a time, inspecting each artifact.
    let (sv, tv) = staged.topology_views().unwrap();
    assert_eq!(sv.num_nodes(), pair.source.num_nodes());
    assert_eq!(tv.num_nodes(), pair.target.num_nodes());
    assert!(sv.goms().is_some(), "orbit mode exposes the GOMs");
    let (sp, tp) = staged.propagators().unwrap();
    assert_eq!(sp.num_views(), config.num_views());
    assert_eq!(tp.num_views(), config.num_views());
    let trained = staged.train().unwrap();
    assert_eq!(trained.loss_history().len(), config.epochs);
    let refinements = staged.refine().unwrap();
    assert_eq!(refinements.len(), config.num_views());
    let total: f64 = refinements.importance().iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
    let result = staged.finish().unwrap();

    assert_bit_identical(&monolithic, &result);
    // The staged result accounts all five stages, exactly like the wrapper.
    for stage in [
        stages::ORBIT_COUNTING,
        stages::LAPLACIAN,
        stages::TRAINING,
        stages::FINE_TUNING,
        stages::INTEGRATION,
    ] {
        assert!(result.timer().count(stage) > 0, "missing stage {stage}");
    }
}

#[test]
fn repeated_pairwise_aligns_reuse_source_views() {
    let pair = tiny_pair(12);
    let mut session = AlignmentSession::new(fast_config(), &pair.source).unwrap();
    let a = session.align(&pair.target).unwrap();
    let b = session.align(&pair.target).unwrap();
    assert_bit_identical(&a, &b);
    // Source orbit counting ran once even though two alignments completed.
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);
    assert_eq!(session.timer().count(stages::LAPLACIAN), 1);
    // The second run therefore never recorded a counting stage of its own...
    assert_eq!(b.timer().count(stages::ORBIT_COUNTING), 1);
    // ...while the first run paid for source *and* target counting.
    assert_eq!(a.timer().count(stages::ORBIT_COUNTING), 2);
}

#[test]
fn align_many_runs_source_counting_and_training_exactly_once() {
    let pair_a = tiny_pair(12);
    let pair_b = tiny_pair(13);
    let pair_c = tiny_pair(12);
    let targets = vec![
        pair_a.target.clone(),
        pair_b.target.clone(),
        pair_c.target.clone(),
    ];

    let mut session = AlignmentSession::new(fast_config(), &pair_a.source).unwrap();
    let results = session.align_many(&targets).unwrap();
    assert_eq!(results.len(), 3);
    for (result, target) in results.iter().zip(&targets) {
        assert_eq!(
            result.alignment().shape(),
            (pair_a.source.num_nodes(), target.num_nodes())
        );
        let total: f64 = result.orbit_importance().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Per-target runs never re-train and never re-count the source.
        assert_eq!(result.timer().count(stages::TRAINING), 0);
        assert_eq!(result.timer().count(stages::ORBIT_COUNTING), 1); // target only
    }

    // The train-once guarantee, asserted via the session StageTimer.
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);
    assert_eq!(session.timer().count(stages::LAPLACIAN), 1);
    assert_eq!(session.timer().count(stages::TRAINING), 1);

    // A second batch reuses everything — the counts do not move.
    let more = session.align_many(&targets[..2]).unwrap();
    assert_eq!(more.len(), 2);
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);
    assert_eq!(session.timer().count(stages::TRAINING), 1);

    // Deterministic serving: same target, same batch position or not,
    // bit-identical output.
    assert_bit_identical(&results[0], &more[0]);
    assert_bit_identical(&results[1], &more[1]);

    // align_shared is align_many with a single target.
    let single = session.align_shared(&targets[0]).unwrap();
    assert_bit_identical(&results[0], &single);
}

#[test]
fn ablation_variants_run_end_to_end_through_sessions() {
    let pair = tiny_pair(14);
    let base = fast_config();
    for variant in HtcVariant::all() {
        let config = variant.configure(&base);
        let mut session = variant.session(&base, &pair.source).unwrap();
        let result = session.align(&pair.target).unwrap();

        let k = config.num_views();
        assert_eq!(
            result.alignment().shape(),
            (14, 14),
            "{}: alignment shape",
            variant.name()
        );
        assert_eq!(result.orbit_importance().len(), k, "{}", variant.name());
        assert_eq!(result.trusted_counts().len(), k, "{}", variant.name());
        let total: f64 = result.orbit_importance().iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "{}: importance weights must normalise (sum {total})",
            variant.name()
        );
        assert!(result
            .orbit_importance()
            .iter()
            .all(|&g| (0.0..=1.0).contains(&g)));
        assert_eq!(
            result.loss_history().len(),
            base.epochs,
            "{}",
            variant.name()
        );

        // Session and monolithic wrapper agree bit-for-bit per variant.
        let monolithic = variant
            .aligner(&base)
            .align(&pair.source, &pair.target)
            .unwrap();
        assert_bit_identical(&monolithic, &result);

        // Only the orbit modes time a counting stage; the others borrow the
        // adjacency and do their work in the Laplacian stage.  A fresh
        // pairwise run builds both graphs' views; a served run builds only
        // the target's and trains nothing (the session holds that stage).
        let counting = matches!(variant, HtcVariant::HighOrder | HtcVariant::Full);
        let mut pairwise = vec![(stages::LAPLACIAN, 2), (stages::TRAINING, 1)];
        let mut serving = vec![(stages::LAPLACIAN, 1)];
        if counting {
            pairwise.insert(0, (stages::ORBIT_COUNTING, 2));
            serving.insert(0, (stages::ORBIT_COUNTING, 1));
        }
        for list in [&mut pairwise, &mut serving] {
            list.extend([(stages::FINE_TUNING, 1), (stages::INTEGRATION, 1)]);
        }
        assert_eq!(stage_counts(result.timer()), pairwise, "{}", variant.name());

        // The serving path works for every variant too.
        let served = session.align_shared(&pair.target).unwrap();
        assert_eq!(served.alignment().shape(), (14, 14), "{}", variant.name());
        assert_eq!(stage_counts(served.timer()), serving, "{}", variant.name());
        assert_eq!(
            session.timer().count(stages::TRAINING),
            1,
            "{}",
            variant.name()
        );
    }
}

/// Observer that records events and cancels after a fixed number of epochs.
#[derive(Default)]
struct Recorder {
    stages_started: Mutex<Vec<String>>,
    epochs_seen: AtomicUsize,
    targets_done: AtomicUsize,
    cancel_after_epochs: Option<usize>,
    cancel_stage: Option<&'static str>,
}

impl ProgressObserver for Recorder {
    fn on_stage_start(&self, stage: &str) -> bool {
        self.stages_started.lock().unwrap().push(stage.to_string());
        self.cancel_stage != Some(stage)
    }

    fn on_epoch(&self, _epoch: usize, _total: usize, loss: f64) -> bool {
        assert!(loss.is_finite());
        let seen = self.epochs_seen.fetch_add(1, Ordering::SeqCst) + 1;
        self.cancel_after_epochs.is_none_or(|limit| seen < limit)
    }

    fn on_target_end(&self, _index: usize, _total: usize) {
        self.targets_done.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn observer_sees_stages_epochs_and_targets() {
    let pair = tiny_pair(12);
    let observer = Arc::new(Recorder::default());
    let config = fast_config();
    let mut session = AlignmentSession::new(config.clone(), &pair.source)
        .unwrap()
        .with_observer(observer.clone());
    session
        .align_many(std::slice::from_ref(&pair.target))
        .unwrap();

    let started = observer.stages_started.lock().unwrap().clone();
    assert_eq!(
        started,
        vec![
            // Shared source-side stages, once each...
            stages::ORBIT_COUNTING.to_string(),
            stages::LAPLACIAN.to_string(),
            stages::TRAINING.to_string(),
            // ...then the target-side stages of the single served target.
            stages::ORBIT_COUNTING.to_string(),
            stages::LAPLACIAN.to_string(),
            stages::FINE_TUNING.to_string(),
            stages::INTEGRATION.to_string(),
        ],
        "stage events fire in pipeline order, shared stages only once"
    );
    assert_eq!(observer.epochs_seen.load(Ordering::SeqCst), config.epochs);
    assert_eq!(observer.targets_done.load(Ordering::SeqCst), 1);
}

#[test]
fn serving_path_honours_stage_cancellation() {
    let pair = tiny_pair(12);
    let observer = Arc::new(Recorder {
        cancel_stage: Some(stages::FINE_TUNING),
        ..Recorder::default()
    });
    let mut session = AlignmentSession::new(fast_config(), &pair.source)
        .unwrap()
        .with_observer(observer);
    // Fine-tuning only happens target-side on the serving path; the veto
    // must still cancel the batch.
    let err = session
        .align_many(std::slice::from_ref(&pair.target))
        .unwrap_err();
    assert_eq!(err, HtcError::Cancelled);
    // The shared artifacts built before the veto stay cached.
    assert_eq!(session.timer().count(stages::TRAINING), 1);
}

#[test]
fn cancellation_mid_training_returns_cancelled() {
    let pair = tiny_pair(12);
    let observer = Arc::new(Recorder {
        cancel_after_epochs: Some(3),
        ..Recorder::default()
    });
    let mut session = AlignmentSession::new(fast_config(), &pair.source)
        .unwrap()
        .with_observer(observer.clone());
    let err = session.align(&pair.target).unwrap_err();
    assert_eq!(err, HtcError::Cancelled);
    assert_eq!(observer.epochs_seen.load(Ordering::SeqCst), 3);
}

#[test]
fn cancellation_at_stage_boundary_returns_cancelled() {
    let pair = tiny_pair(12);
    let observer = Arc::new(Recorder {
        cancel_stage: Some(stages::TRAINING),
        ..Recorder::default()
    });
    let mut session = AlignmentSession::new(fast_config(), &pair.source)
        .unwrap()
        .with_observer(observer);
    let err = session.align(&pair.target).unwrap_err();
    assert_eq!(err, HtcError::Cancelled);
    // The artifacts before the cancelled stage remain usable.
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);
}

/// Observer that vetoes every target after index 0 while armed.
struct TargetCanceller {
    armed: std::sync::atomic::AtomicBool,
    vetoed: AtomicUsize,
}

impl ProgressObserver for TargetCanceller {
    fn on_target_start(&self, index: usize, _total: usize) -> bool {
        if index == 0 || !self.armed.load(Ordering::SeqCst) {
            return true;
        }
        self.vetoed.fetch_add(1, Ordering::SeqCst);
        false
    }
}

#[test]
fn align_many_cancelled_mid_fanout_leaves_the_session_reusable() {
    let pair = tiny_pair(12);
    let targets: Vec<_> = (0..3)
        .map(|i| {
            generate_pair(&SyntheticPairConfig {
                edge_removal: 0.02 + 0.02 * i as f64,
                ..SyntheticPairConfig::tiny(12)
            })
            .target
        })
        .collect();
    let observer = Arc::new(TargetCanceller {
        armed: std::sync::atomic::AtomicBool::new(true),
        vetoed: AtomicUsize::new(0),
    });
    let mut session = AlignmentSession::new(fast_config(), &pair.source)
        .unwrap()
        .with_observer(observer.clone());

    // The observer cancels after the first target: the batch returns
    // `Cancelled` as an error — not a worker panic unwinding into the test.
    let err = session.align_many(&targets).unwrap_err();
    assert_eq!(err, HtcError::Cancelled);
    assert!(observer.vetoed.load(Ordering::SeqCst) >= 1);
    // The shared source-side artifacts built before the veto stay cached...
    assert_eq!(session.timer().count(stages::TRAINING), 1);
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 1);

    // ...and the session remains fully reusable: disarm the observer and the
    // same batch now serves, without re-training, bit-identical to a batch
    // from a session that was never cancelled.
    observer.armed.store(false, Ordering::SeqCst);
    let results = session.align_many(&targets).unwrap();
    assert_eq!(results.len(), 3);
    assert_eq!(session.timer().count(stages::TRAINING), 1);

    let mut fresh = AlignmentSession::new(fast_config(), &pair.source).unwrap();
    let expected = fresh.align_many(&targets).unwrap();
    for (got, want) in results.iter().zip(&expected) {
        assert_bit_identical(got, want);
    }
}

/// Observer that vetoes a named stage until disarmed.
struct StageCanceller {
    stage: &'static str,
    armed: std::sync::atomic::AtomicBool,
}

impl ProgressObserver for StageCanceller {
    fn on_stage_start(&self, stage: &str) -> bool {
        !(self.armed.load(Ordering::SeqCst) && stage == self.stage)
    }
}

#[test]
fn cancelled_stage_retried_on_the_same_session_recomputes_cleanly() {
    let pair = tiny_pair(13);
    let monolithic = HtcAligner::new(fast_config())
        .align(&pair.source, &pair.target)
        .unwrap();

    for stage in [stages::TRAINING, stages::FINE_TUNING, stages::INTEGRATION] {
        let observer = Arc::new(StageCanceller {
            stage,
            armed: std::sync::atomic::AtomicBool::new(true),
        });
        let mut session = AlignmentSession::new(fast_config(), &pair.source)
            .unwrap()
            .with_observer(observer.clone());
        let err = session.align(&pair.target).unwrap_err();
        assert_eq!(err, HtcError::Cancelled, "cancelling {stage}");

        // No stale partially-populated artifact survives the failed run: the
        // retried alignment neither panics on a broken invariant nor serves
        // results influenced by the aborted attempt.
        observer.armed.store(false, Ordering::SeqCst);
        let retried = session.align(&pair.target).unwrap();
        assert_bit_identical(&monolithic, &retried);
    }
}

#[test]
fn session_and_pair_reset_recompute_bit_identically() {
    let pair = tiny_pair(12);
    let mut session = AlignmentSession::new(fast_config(), &pair.source).unwrap();
    let baseline = session.align_shared(&pair.target).unwrap();
    assert_eq!(session.timer().count(stages::TRAINING), 1);

    // reset() drops every cached artifact: the next serve re-counts and
    // re-trains (counts move) and still produces bit-identical output.
    session.reset();
    let rebuilt = session.align_shared(&pair.target).unwrap();
    assert_bit_identical(&baseline, &rebuilt);
    assert_eq!(session.timer().count(stages::TRAINING), 2);
    assert_eq!(session.timer().count(stages::ORBIT_COUNTING), 2);

    // PairAlignment::reset() discards pair-side progress mid-flight; the
    // finished result still matches the monolithic aligner bit-for-bit.
    let monolithic = HtcAligner::new(fast_config())
        .align(&pair.source, &pair.target)
        .unwrap();
    let mut staged = session.begin(&pair.target).unwrap();
    staged.train().unwrap();
    staged.reset();
    let result = staged.finish().unwrap();
    assert_bit_identical(&monolithic, &result);
}

#[test]
fn persisted_artifacts_warm_start_a_new_session_bit_exactly() {
    let pair = tiny_pair(13);
    let config = fast_config();
    let dir = std::env::temp_dir();
    let encoder_path = dir.join(format!("htc-session-enc-{}.bin", std::process::id()));
    let views_path = dir.join(format!("htc-session-views-{}.bin", std::process::id()));

    // Train in a "producer" session and persist the artifacts.
    let mut producer = AlignmentSession::new(config.clone(), &pair.source).unwrap();
    let baseline = producer.align_shared(&pair.target).unwrap();
    producer.source_views().unwrap().save(&views_path).unwrap();
    producer.train().unwrap().save(&encoder_path).unwrap();

    // A fresh "consumer" session warm-starts from disk: no counting, no
    // training, bit-identical serving results.
    let mut consumer = AlignmentSession::new(config.clone(), &pair.source).unwrap();
    consumer
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap();
    consumer
        .set_encoder(TrainedEncoder::load(&encoder_path).unwrap())
        .unwrap();
    let served = consumer.align_shared(&pair.target).unwrap();
    assert_bit_identical(&baseline, &served);
    assert_eq!(consumer.timer().count(stages::ORBIT_COUNTING), 0);
    assert_eq!(consumer.timer().count(stages::TRAINING), 0);

    // The opposite load order must work too: validated views are exactly
    // what the session would build, so they do not invalidate the encoder.
    let mut reversed = AlignmentSession::new(config.clone(), &pair.source).unwrap();
    reversed
        .set_encoder(TrainedEncoder::load(&encoder_path).unwrap())
        .unwrap();
    reversed
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap();
    let served = reversed.align_shared(&pair.target).unwrap();
    assert_bit_identical(&baseline, &served);
    assert_eq!(reversed.timer().count(stages::TRAINING), 0);

    // Incompatible artifacts are rejected up front: wrong node count...
    let other = tiny_pair(9);
    let mut mismatched = AlignmentSession::new(config.clone(), &other.source).unwrap();
    let err = mismatched
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap_err();
    assert!(matches!(err, HtcError::Persistence(_)), "{err}");
    // ...wrong topology mode (orbit views into a low-order session)...
    let mut low_order_config = config.clone();
    low_order_config.topology = htc::core::TopologyMode::LowOrderOnly;
    let mut wrong_mode = AlignmentSession::new(low_order_config, &pair.source).unwrap();
    let err = wrong_mode
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap_err();
    assert!(matches!(err, HtcError::Persistence(_)), "{err}");
    // ...a structurally different graph with the same node count (stale
    // artifact after a catalog update)...
    let mut stale = AlignmentSession::new(config.clone(), &pair.target).unwrap();
    let err = stale
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap_err();
    assert!(matches!(err, HtcError::Persistence(_)), "{err}");
    // ...and wrong orbit parameters (different weighting).
    let mut binary_config = config;
    binary_config.topology = htc::core::TopologyMode::Orbits {
        num_orbits: 5,
        weighting: htc::orbits::GomWeighting::Binary,
    };
    let mut wrong_weighting = AlignmentSession::new(binary_config, &pair.source).unwrap();
    let err = wrong_weighting
        .set_source_views(TopologyViews::load(&views_path).unwrap())
        .unwrap_err();
    assert!(matches!(err, HtcError::Persistence(_)), "{err}");

    // An empty batch is a no-op: no counting, no training.
    let mut idle = AlignmentSession::new(fast_config(), &pair.source).unwrap();
    assert!(idle.align_many(&[]).unwrap().is_empty());
    assert_eq!(idle.timer().count(stages::TRAINING), 0);

    std::fs::remove_file(&encoder_path).ok();
    std::fs::remove_file(&views_path).ok();
}

#[test]
fn session_rejects_invalid_inputs_like_the_aligner() {
    let pair = tiny_pair(10);
    // Invalid config (out-of-range orbit count) fails at session open.
    let bad = HtcConfig::fast().with_num_orbits(99);
    assert!(matches!(
        AlignmentSession::new(bad, &pair.source),
        Err(HtcError::InvalidConfig(_))
    ));
    // Mismatched target attribute dimensionality fails at align time.
    let bad_target = pair
        .target
        .with_attributes(htc::linalg::DenseMatrix::zeros(pair.target.num_nodes(), 9))
        .unwrap();
    let mut session = AlignmentSession::new(fast_config(), &pair.source).unwrap();
    assert!(matches!(
        session.align(&bad_target),
        Err(HtcError::AttributeDimensionMismatch { .. })
    ));
    // And align_many validates every target before doing any work.
    let err = session
        .align_many(&[pair.target.clone(), bad_target])
        .unwrap_err();
    assert!(matches!(err, HtcError::AttributeDimensionMismatch { .. }));
    assert_eq!(session.timer().count(stages::TRAINING), 0);
}
