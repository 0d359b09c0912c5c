//! Thread-count invariance of neighbourhood-sampled mini-batch training.
//!
//! The `Large`-tier training path shuffles per-pass node permutations and
//! steps Adam once per batch, but every batch is processed strictly
//! sequentially and every kernel fixes its per-element accumulation order —
//! so a fixed seed must yield bit-identical loss histories and weights
//! across 1, 2 and 4 worker threads (tolerance 0.0).  The same contract
//! holds under `HTC_FORCE_ISA=scalar`, which CI exercises by re-running this
//! binary in the scalar lane.
//!
//! This lives in its own integration-test binary because it sets
//! `HTC_NUM_THREADS` for the whole process: as the only test here, nothing
//! races the env mutation (and the pool, once lazily created, is not
//! re-created — the env var is honoured at call granularity).

use htc_core::laplacian::orbit_laplacians;
use htc_core::training::train_multi_orbit;
use htc_core::HtcConfig;
use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_orbits::{GomSet, GomWeighting};

#[test]
fn minibatch_training_is_bit_identical_across_thread_counts() {
    let pair = generate_pair(&SyntheticPairConfig {
        edge_removal: 0.0,
        attr_flip: 0.0,
        ..SyntheticPairConfig::tiny(21)
    });
    let goms_s = GomSet::build(pair.source.graph(), 4, GomWeighting::Weighted);
    let goms_t = GomSet::build(pair.target.graph(), 4, GomWeighting::Weighted);
    let ls = orbit_laplacians(&goms_s);
    let lt = orbit_laplacians(&goms_t);

    let mut config = HtcConfig::fast();
    config.epochs = 12;
    config.batch_size = 4;

    let run = |cfg: &HtcConfig| {
        train_multi_orbit(
            &ls,
            &lt,
            pair.source.attributes(),
            pair.target.attributes(),
            cfg,
            &mut |_, _| true,
        )
        .unwrap()
    };

    // Machine-default pool first, so the pool is created with its normal
    // worker count before the env var narrows it.
    let baseline = run(&config);
    assert!(baseline.loss_history.iter().all(|l| l.is_finite()));

    for threads in ["2", "4", "1"] {
        std::env::set_var("HTC_NUM_THREADS", threads);
        let other = run(&config);
        std::env::remove_var("HTC_NUM_THREADS");
        assert_eq!(
            baseline.loss_history, other.loss_history,
            "mini-batch loss history must be bit-identical with {threads} thread(s)"
        );
        for (wa, wb) in baseline
            .encoder
            .weights()
            .iter()
            .zip(other.encoder.weights())
        {
            assert!(
                wa.approx_eq(wb, 0.0),
                "mini-batch weights must be bit-identical with {threads} thread(s)"
            );
        }
    }
}
