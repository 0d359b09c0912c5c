//! Machine-readable pipeline benchmark: runs the HTC aligner over the
//! real-world dataset presets and writes the per-stage wall-clock
//! decomposition (from `StageTimer`) to a JSON artifact, so successive PRs
//! have a comparable perf trajectory.
//!
//! ```text
//! cargo run --release -p htc-bench --bin bench_pipeline -- --scale small --out BENCH_pipeline.json
//! ```
//!
//! Without `--out` the JSON is written to `BENCH_pipeline.json` in the
//! current directory.  `--runs N` repeats each alignment N times and reports
//! the minimum per-stage time (the usual criterion-style noise floor).
//!
//! Besides the per-dataset pairwise decomposition, the artifact carries a
//! `one_vs_many` scenario measuring the session API's artifact reuse: one
//! catalog source served against several targets through
//! `AlignmentSession::align_many` (orbit counting + training once) versus the
//! same targets aligned independently (the only option before the session
//! API), a `fleet` scenario measuring served throughput behind the
//! consistent-hash router at 1, 2, and 4 in-process shards (warm artifact
//! caches, keep-alive clients — the scale-out curve in PERFORMANCE.md), and
//! an `idle_clients` scenario measuring live `/align` p99 over a population
//! of parked keep-alive connections versus an empty server — the reactor's
//! "idle connections cost no workers" claim as a tracked ratio.  Both serving
//! scenarios drive their load through `htc_bench::load`, the generator the
//! `serve_load` example uses.
//!
//! `--scale large` switches to the Large-tier scenario instead of the preset
//! loops: one seeded power-law pair of `--large-nodes` nodes (default
//! 100 000) aligned under `HtcConfig::large()` (blocked top-k similarity,
//! mini-batch training), with the process peak RSS checked against
//! `--rss-budget-mb` (default 4096) and a dense-vs-blocked top-k recall
//! cross-check at 5 000 nodes.  The run **exits non-zero** when the budget
//! is exceeded or the recall drops below 0.99, so CI's `large-smoke` job
//! fails on memory or retention regressions.  The committed
//! `BENCH_pipeline.json` is the union of a `--scale small` run and the
//! `large_scale` block of a `--scale large` run.

use htc_bench::load::{
    align_body, percentile, run_clients, scrape_stats, warmup, ClientOpts, IdlePopulation,
    InProcessFleet,
};
use htc_bench::{htc_config_for_scale, parse_args, HarnessArgs};
use htc_core::pipeline::stages;
use htc_core::{AlignmentSession, HtcAligner, ScaleTier};
use htc_datasets::{generate_pair, DatasetPreset, Scale, SyntheticPairConfig};
use htc_graph::generators::{random_permutation, seeded_rng};
use htc_graph::perturb::{permute_network, remove_edges};
use htc_graph::AttributedNetwork;
use htc_serve::{Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Times the one-vs-many serving scenario and renders its JSON object.
fn one_vs_many_json(scale: Scale) -> String {
    const NUM_TARGETS: usize = 3;
    let config = htc_config_for_scale(scale);
    let preset = DatasetPreset::Douban;
    let pair = generate_pair(&preset.config(scale));
    let source = pair.source;
    let targets: Vec<AttributedNetwork> = (0..NUM_TARGETS)
        .map(|i| {
            let mut rng = seeded_rng(1000 + i as u64);
            let noisy = AttributedNetwork::new(
                remove_edges(source.graph(), 0.1, &mut rng),
                source.attributes().clone(),
            )
            .expect("node count unchanged");
            permute_network(&noisy, &random_permutation(source.num_nodes(), &mut rng))
        })
        .collect();

    eprintln!(
        "[bench_pipeline] one-vs-many scenario: {} vs {NUM_TARGETS} targets (independent runs)",
        pair.name
    );
    let start = Instant::now();
    for target in &targets {
        HtcAligner::new(config.clone())
            .align(&source, target)
            .expect("generated datasets satisfy the input contract");
    }
    let independent = start.elapsed().as_secs_f64();

    eprintln!("[bench_pipeline] one-vs-many scenario: session align_many");
    let mut session =
        AlignmentSession::new(config, &source).expect("generated datasets satisfy the contract");
    let start = Instant::now();
    let results = session
        .align_many(&targets)
        .expect("generated datasets satisfy the input contract");
    let session_secs = start.elapsed().as_secs_f64();
    assert_eq!(results.len(), NUM_TARGETS);
    assert_eq!(session.timer().count(stages::TRAINING), 1);

    let shared_secs = session.timer().total().as_secs_f64();
    let per_target_secs: Vec<String> = results
        .iter()
        .map(|r| format!("{:.6}", r.timer().total().as_secs_f64()))
        .collect();
    format!(
        "  \"one_vs_many\": {{\"dataset\": \"{}\", \"targets\": {}, \
         \"independent_seconds\": {:.6}, \"session_seconds\": {:.6}, \"speedup\": {:.3}, \
         \"shared_stage_seconds\": {:.6}, \"per_target_seconds\": [{}], \
         \"source_counting_runs\": {}, \"training_runs\": {}}}",
        json_escape(&pair.name),
        NUM_TARGETS,
        independent,
        session_secs,
        independent / session_secs.max(1e-12),
        shared_secs,
        per_target_secs.join(", "),
        session.timer().count(stages::ORBIT_COUNTING),
        session.timer().count(stages::TRAINING),
    )
}

/// Times the fleet scale-out scenario and renders its JSON object: served
/// RPS through an in-process fleet of 1, 2 and 4 shard servers behind the
/// consistent-hash router, with warm per-source artifact caches.
fn fleet_json() -> String {
    const CLIENTS: usize = 4;
    const SOURCES: usize = 8;
    const NODES: usize = 12;
    const DURATION: Duration = Duration::from_secs(2);
    let bodies: Arc<Vec<String>> = Arc::new(
        (0..SOURCES)
            .map(|i| align_body(NODES, 41 + i as u64))
            .collect(),
    );
    let scaling: Vec<String> = [1usize, 2, 4]
        .iter()
        .map(|&shards| {
            eprintln!("[bench_pipeline] fleet scenario: {shards} shard(s), {CLIENTS} clients");
            let fleet = InProcessFleet::start(shards, 0);
            // Warm every source through the router so the measurement sees
            // cache serving, not one-off training runs.
            warmup(fleet.addr(), &bodies);
            let started = Instant::now();
            let opts = (0..CLIENTS).map(|i| ClientOpts::plain(false, 0x10ad_0000 + i as u64));
            let stats = run_clients(fleet.addr(), &bodies, started + DURATION, opts);
            let rps = stats.ok as f64 / started.elapsed().as_secs_f64().max(1e-9);
            fleet.teardown();
            format!(
                "{{\"shards\": {shards}, \"requests\": {}, \"rps\": {rps:.1}}}",
                stats.ok
            )
        })
        .collect();
    format!(
        "  \"fleet\": {{\"clients\": {CLIENTS}, \"sources\": {SOURCES}, \
         \"duration_seconds\": {:.1}, \"scaling\": [{}]}}",
        DURATION.as_secs_f64(),
        scaling.join(", ")
    )
}

/// Size of the parked keep-alive population in the `idle_clients` scenario.
const IDLE_POPULATION: usize = 2000;
/// Live (closed-loop) clients measured over the parked population.
const IDLE_LIVE_CLIENTS: usize = 4;
/// Measurement window for each of the two latency phases.  Shorter than the
/// population's 8 s minimum think time, so no idle ping lands inside it.
const IDLE_PHASE_DURATION: Duration = Duration::from_secs(2);

/// Times the idle-client scenario and renders its JSON object: live `/align`
/// latency over an empty server versus the same load over a population of
/// parked keep-alive connections.  The parked sockets live in the reactor,
/// not on workers, so the p99 ratio should stay near 1 — the artifact records
/// it so a regression (idle connections bleeding into live latency) shows up
/// in the perf trajectory.
fn idle_clients_json() -> String {
    let server = Server::start(ServerConfig {
        // The population sits parked far longer than the default keep-alive;
        // the scenario measures parked cost, not idle reaping.
        keep_alive: Duration::from_secs(120),
        ..ServerConfig::default()
    })
    .expect("start idle-scenario server");
    let addr = server.addr();
    let bodies = Arc::new(vec![align_body(14, 9)]);
    warmup(addr, &bodies);
    // One measurement phase: (requests, p50 ms, p99 ms).
    let phase = || {
        let deadline = Instant::now() + IDLE_PHASE_DURATION;
        let opts = (0..IDLE_LIVE_CLIENTS).map(|i| ClientOpts::plain(false, 0x10ad_0000 + i as u64));
        let mut stats = run_clients(addr, &bodies, deadline, opts);
        stats.latencies.sort_unstable();
        let pct = |p| percentile(&stats.latencies, p);
        (stats.ok, pct(0.50), pct(0.99))
    };

    eprintln!("[bench_pipeline] idle-client scenario: baseline ({IDLE_LIVE_CLIENTS} live clients)");
    let (baseline_requests, baseline_p50, baseline_p99) = phase();

    eprintln!("[bench_pipeline] idle-client scenario: parking {IDLE_POPULATION} idle connections");
    let idle = IdlePopulation::start(addr, IDLE_POPULATION);
    idle.await_ready(Duration::from_secs(120));

    eprintln!("[bench_pipeline] idle-client scenario: loaded ({IDLE_POPULATION} parked)");
    let (loaded_requests, loaded_p50, loaded_p99) = phase();

    // Occupancy and health straight from the server, while the population is
    // still parked: every idle connection must be in the reactor, none shed.
    let stats = scrape_stats(addr).expect("stats scrape");
    let runtime = stats.get("runtime").expect("stats runtime section");
    let gauge = |key: &str| {
        runtime
            .get(key)
            .and_then(htc_serve::json::Json::as_f64)
            .unwrap_or(-1.0) as i64
    };
    let parked = gauge("parked");
    let shed = gauge("shed_connections");
    let panics = gauge("worker_panics");
    idle.stop_and_join();
    server.shutdown();

    format!(
        "  \"idle_clients\": {{\"idle_population\": {IDLE_POPULATION}, \
         \"live_clients\": {IDLE_LIVE_CLIENTS}, \
         \"phase_seconds\": {:.1}, \
         \"baseline\": {{\"requests\": {baseline_requests}, \"p50_ms\": {baseline_p50:.3}, \
         \"p99_ms\": {baseline_p99:.3}}}, \
         \"loaded\": {{\"requests\": {loaded_requests}, \"p50_ms\": {loaded_p50:.3}, \
         \"p99_ms\": {loaded_p99:.3}}}, \
         \"p99_ratio\": {:.3}, \"parked_sampled\": {parked}, \
         \"shed_connections\": {shed}, \"worker_panics\": {panics}}}",
        IDLE_PHASE_DURATION.as_secs_f64(),
        loaded_p99 / baseline_p99.max(1e-9),
    )
}

/// Flags specific to the Large-tier scenario; `parse_args` tolerates and
/// ignores them, so they are re-scanned here.
struct LargeFlags {
    nodes: usize,
    rss_budget_mb: u64,
}

fn parse_large_flags<I: IntoIterator<Item = String>>(args: I) -> LargeFlags {
    let mut flags = LargeFlags {
        nodes: 100_000,
        rss_budget_mb: 4096,
    };
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--large-nodes" => {
                if let Some(value) = iter.next() {
                    flags.nodes = value.parse().unwrap_or(flags.nodes).max(64);
                }
            }
            "--rss-budget-mb" => {
                if let Some(value) = iter.next() {
                    flags.rss_budget_mb = value.parse().unwrap_or(flags.rss_budget_mb).max(1);
                }
            }
            _ => {}
        }
    }
    flags
}

/// Dense-vs-blocked retention cross-check at a size where the dense tier is
/// still cheap: the blocked run's top-k rows must retain the dense argmax of
/// at least `RECALL_THRESHOLD` of the source rows.
const RECALL_CHECK_NODES: usize = 5_000;
const RECALL_THRESHOLD: f64 = 0.99;

fn recall_check(config: &htc_core::HtcConfig) -> (f64, String) {
    let pair = generate_pair(&SyntheticPairConfig::large_pair(RECALL_CHECK_NODES, 97));
    eprintln!(
        "[bench_pipeline] recall cross-check: dense vs blocked top-{} at {RECALL_CHECK_NODES} nodes",
        config.top_k
    );
    let mut dense_config = config.clone();
    dense_config.scale = ScaleTier::Dense;
    let dense = HtcAligner::new(dense_config)
        .align(&pair.source, &pair.target)
        .expect("generated datasets satisfy the input contract");
    let blocked = HtcAligner::new(config.clone())
        .align(&pair.source, &pair.target)
        .expect("generated datasets satisfy the input contract");
    let reference = dense.predicted_anchors();
    let recall = blocked
        .top_k()
        .expect("the Large tier emits a top-k artifact")
        .recall_of(&reference);
    let json = format!(
        "{{\"nodes\": {RECALL_CHECK_NODES}, \"top_k\": {}, \"recall\": {recall:.4}, \
         \"threshold\": {RECALL_THRESHOLD}}}",
        config.top_k
    );
    (recall, json)
}

/// Committed single-thread fine-tuning baseline at 100k nodes (seconds) —
/// the pre-parallel-sweep `BENCH_pipeline.json` figure the multi-threaded
/// stage is gated against.
const FINETUNE_BASELINE_SECONDS: f64 = 604.180561;
/// Node count the committed baseline was measured at; the baseline gates
/// only apply when the scenario runs at this size.
const FINETUNE_BASELINE_NODES: usize = 100_000;
/// Required fine-tuning speedup over the baseline on a ≥ 4-core machine.
const FINETUNE_SPEEDUP_TARGET: f64 = 3.0;

/// Runs the Large-tier scenario and renders its JSON object plus a pass
/// flag (false on a peak-RSS budget, recall, determinism, or fine-tuning
/// performance regression — the caller still writes the artifact, then
/// exits non-zero).
///
/// The alignment is measured twice: at `HTC_NUM_THREADS=4` (first, so the
/// persistent pool — whose worker count is fixed at first use — is created
/// multi-threaded) and again at `HTC_NUM_THREADS=1`.  The two runs must
/// produce byte-identical matchings; their fine-tuning stage walls are both
/// recorded, with the 4-thread figure gated against the committed baseline.
fn large_scale_json(scale: Scale, flags: &LargeFlags, runs: usize) -> (String, bool) {
    let config = htc_config_for_scale(scale);
    let budget_bytes = flags.rss_budget_mb * 1024 * 1024;
    let pair = generate_pair(&SyntheticPairConfig::large_pair(flags.nodes, 77));
    eprintln!(
        "[bench_pipeline] large-tier scenario: {} nodes, {} + {} edges, top-{}, batch {}",
        flags.nodes,
        pair.source.num_edges(),
        pair.target.num_edges(),
        config.top_k,
        config.batch_size,
    );

    let saved_threads = std::env::var("HTC_NUM_THREADS").ok();
    std::env::set_var("HTC_NUM_THREADS", "4");
    let mut best_wall = f64::INFINITY;
    let mut finetune_4 = f64::INFINITY;
    let mut last_result = None;
    for run in 0..runs.max(1) {
        eprintln!(
            "[bench_pipeline] large-tier run {}/{} (4 threads)",
            run + 1,
            runs.max(1)
        );
        let wall_start = Instant::now();
        let result = HtcAligner::new(config.clone())
            .align(&pair.source, &pair.target)
            .expect("generated datasets satisfy the input contract");
        best_wall = best_wall.min(wall_start.elapsed().as_secs_f64());
        finetune_4 = finetune_4.min(result.timer().duration(stages::FINE_TUNING).as_secs_f64());
        last_result = Some(result);
    }
    let result = last_result.expect("at least one run");

    eprintln!("[bench_pipeline] large-tier run (1 thread, determinism cross-check)");
    std::env::set_var("HTC_NUM_THREADS", "1");
    let single = HtcAligner::new(config.clone())
        .align(&pair.source, &pair.target)
        .expect("generated datasets satisfy the input contract");
    let finetune_1 = single.timer().duration(stages::FINE_TUNING).as_secs_f64();
    match &saved_threads {
        Some(value) => std::env::set_var("HTC_NUM_THREADS", value),
        None => std::env::remove_var("HTC_NUM_THREADS"),
    }

    let matchings_identical = result.predicted_anchors() == single.predicted_anchors()
        && result.top_k() == single.top_k();

    let peak_rss = htc_metrics::peak_rss_bytes().unwrap_or(0);
    let within_budget = peak_rss <= budget_bytes;
    let (recall, recall_json) = recall_check(&config);

    // Fine-tuning gates: no regression against the committed 100k baseline
    // ever; the ≥ 3× speedup additionally requires the cores it was promised
    // on (the thread-count invariance and budget gates apply everywhere).
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let speedup_vs_baseline = FINETUNE_BASELINE_SECONDS / finetune_4.max(1e-9);
    let thread_scaling = finetune_1 / finetune_4.max(1e-9);
    let baseline_applies = flags.nodes == FINETUNE_BASELINE_NODES;
    let regression_ok = !baseline_applies || finetune_4 <= FINETUNE_BASELINE_SECONDS;
    let speedup_enforced = baseline_applies && cores >= 4;
    let speedup_ok = !speedup_enforced || speedup_vs_baseline >= FINETUNE_SPEEDUP_TARGET;

    eprintln!(
        "[bench_pipeline] large-tier: wall {best_wall:.1}s, fine-tuning {finetune_4:.1}s (4t) / \
         {finetune_1:.1}s (1t), peak RSS {:.0} MiB (budget {} MiB), recall {recall:.4}, \
         matchings identical: {matchings_identical}",
        peak_rss as f64 / (1024.0 * 1024.0),
        flags.rss_budget_mb,
    );
    let finetune_json = format!(
        "{{\"baseline_seconds\": {FINETUNE_BASELINE_SECONDS}, \
         \"baseline_nodes\": {FINETUNE_BASELINE_NODES}, \
         \"threads_4_seconds\": {finetune_4:.6}, \"threads_1_seconds\": {finetune_1:.6}, \
         \"speedup_vs_baseline\": {speedup_vs_baseline:.3}, \
         \"thread_scaling\": {thread_scaling:.3}, \"cores\": {cores}, \
         \"matchings_identical\": {matchings_identical}, \
         \"speedup_target\": {FINETUNE_SPEEDUP_TARGET}, \
         \"speedup_enforced\": {speedup_enforced}}}"
    );
    let json = format!(
        "  \"large_scale\": {{\"dataset\": \"{}\", \"nodes\": [{}, {}], \"edges\": [{}, {}], \
         \"top_k\": {}, \"batch_size\": {}, \"wall_seconds\": {best_wall:.6}, \
         \"peak_rss_bytes\": {peak_rss}, \"rss_budget_bytes\": {budget_bytes}, \
         \"within_budget\": {within_budget}, \"recall_check\": {recall_json}, \
         \"fine_tuning\": {finetune_json}, \"stages\": {}}}",
        json_escape(&pair.name),
        pair.source.num_nodes(),
        pair.target.num_nodes(),
        pair.source.num_edges(),
        pair.target.num_edges(),
        config.top_k,
        config.batch_size,
        result.timer().stages_json(),
    );
    if !within_budget {
        eprintln!(
            "error: peak RSS {peak_rss} bytes exceeds the {} MiB budget",
            flags.rss_budget_mb
        );
    }
    if recall < RECALL_THRESHOLD {
        eprintln!("error: dense-vs-blocked recall {recall:.4} fell below {RECALL_THRESHOLD}");
    }
    if !matchings_identical {
        eprintln!("error: matchings differ between HTC_NUM_THREADS=4 and =1");
    }
    if !regression_ok {
        eprintln!(
            "error: fine-tuning took {finetune_4:.1}s on 4 threads, \
             above the committed {FINETUNE_BASELINE_SECONDS:.1}s baseline"
        );
    }
    if !speedup_ok {
        eprintln!(
            "error: fine-tuning speedup {speedup_vs_baseline:.2}× is below the \
             {FINETUNE_SPEEDUP_TARGET}× target on a {cores}-core machine"
        );
    }
    let ok = within_budget
        && recall >= RECALL_THRESHOLD
        && matchings_identical
        && regression_ok
        && speedup_ok;
    (json, ok)
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if let Some(isa) = args.isa {
        // Forward `--isa` to the HTC_FORCE_ISA dispatch mechanism before the
        // first kernel runs, so the whole benchmark uses the requested ISA.
        if let Err(e) = htc_linalg::kernels::force_isa(Some(isa)) {
            eprintln!("error: --isa {}: {e}", isa.name());
            std::process::exit(2);
        }
    }
    eprintln!(
        "[bench_pipeline] kernel dispatch: {} (mr×nr = {}×{})",
        htc_linalg::active_isa().name(),
        htc_linalg::kernels::active().mr,
        htc_linalg::kernels::active().nr,
    );
    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    // Fail on an unwritable artifact path *before* spending minutes
    // benchmarking, not after.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write benchmark artifact {out_path:?}: {e}");
        std::process::exit(2);
    }

    // The Large tier replaces the preset/one-vs-many/fleet loops: those
    // measure the dense pipeline and serving stack, which the 100k-node
    // scenario is not about.
    let (sections, ok) = if args.scale == Scale::Large {
        let flags = parse_large_flags(std::env::args().skip(1));
        large_scale_json(args.scale, &flags, args.runs)
    } else {
        (preset_scale_json(&args), true)
    };
    let json = format!(
        "{{\n  \"schema\": \"htc-bench-pipeline-v8\",\n  \"scale\": \"{:?}\",\n  \"runs\": {},\n  \"threads\": {},\n  \"isa\": \"{}\",\n{sections}\n}}\n",
        args.scale,
        args.runs,
        htc_linalg::parallel::num_threads(),
        htc_linalg::active_isa().name(),
    );
    std::fs::write(&out_path, &json).expect("failed to write benchmark artifact");
    eprintln!("[bench_pipeline] wrote {out_path}");
    println!("{json}");
    if !ok {
        std::process::exit(1);
    }
}

/// The `--scale small|paper` artifact sections: the per-dataset pairwise
/// decomposition plus the one-vs-many, fleet and idle-client scenarios.
fn preset_scale_json(args: &HarnessArgs) -> String {
    let config = htc_config_for_scale(args.scale);
    let mut datasets_json = Vec::new();
    for preset in DatasetPreset::real_world() {
        let pair = generate_pair(&preset.config(args.scale));
        eprintln!(
            "[bench_pipeline] timing HTC on {} ({} runs)",
            pair.name, args.runs
        );

        // Per-stage minima across runs, preserving stage order from run 0.
        let mut stage_names: Vec<String> = Vec::new();
        let mut stage_best: Vec<f64> = Vec::new();
        let mut best_wall = f64::INFINITY;
        for _ in 0..args.runs {
            let wall_start = Instant::now();
            let result = HtcAligner::new(config.clone())
                .align(&pair.source, &pair.target)
                .expect("generated datasets satisfy the input contract");
            best_wall = best_wall.min(wall_start.elapsed().as_secs_f64());
            for (stage, duration) in result.timer().stages() {
                let secs = duration.as_secs_f64();
                match stage_names.iter().position(|n| n == stage) {
                    Some(i) => stage_best[i] = stage_best[i].min(secs),
                    None => {
                        stage_names.push(stage.to_string());
                        stage_best.push(secs);
                    }
                }
            }
        }

        let mut best = htc_metrics::StageTimer::new();
        for (name, &secs) in stage_names.iter().zip(&stage_best) {
            best.record(name, std::time::Duration::from_secs_f64(secs));
        }
        let stages = best.stages_json();
        let accounted: f64 = stage_best.iter().sum();
        datasets_json.push(format!(
            "    {{\"dataset\": \"{}\", \"nodes\": [{}, {}], \"wall_seconds\": {:.6}, \"other_seconds\": {:.6}, \"stages\": {}}}",
            json_escape(&pair.name),
            pair.source.num_nodes(),
            pair.target.num_nodes(),
            best_wall,
            (best_wall - accounted).max(0.0),
            stages
        ));
    }
    format!(
        "  \"datasets\": [\n{}\n  ],\n{},\n{},\n{}",
        datasets_json.join(",\n"),
        one_vs_many_json(args.scale),
        fleet_json(),
        idle_clients_json()
    )
}
