//! Drives `htc-serve` over a real TCP socket: artifact-cache hits between
//! requests sharing a source, same-source batching onto `align_many`,
//! persisted-artifact warm starts, rejection of truncated/corrupt artifacts
//! (decode error, never a panic), and clean shutdown.

use htc_core::{AlignmentSession, HtcConfig};
use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_graph::AttributedNetwork;
use htc_serve::http::Client;
use htc_serve::json::{self, network_spec as network_json};
use htc_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::time::Duration;

/// One HTTP/1.1 exchange per connection (`Connection: close`, which the
/// keep-alive server honours by closing after the response — the persistent
/// path is exercised by `tests/runtime_keepalive.rs`).
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, json::Json) {
    let mut client = Client::connect(addr).expect("connect");
    client
        .send_with(method, path, body, true)
        .expect("send request");
    let response = client.read().expect("read response");
    let payload = response.body_str();
    let parsed =
        json::parse(payload).unwrap_or_else(|e| panic!("unparsable body ({e}): {payload:?}"));
    (response.status, parsed)
}

fn align_body(source: &str, target: &AttributedNetwork) -> String {
    format!(
        "{{\"preset\":\"fast\",\"epochs\":6,\"source\":{source},\"target\":{}}}",
        network_json(target)
    )
}

fn get_num(v: &json::Json, path: &[&str]) -> f64 {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {}", v.render()));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number"))
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("htc-serve-test-{}-{name}", std::process::id()))
}

#[test]
fn server_round_trip_cache_batching_and_hostile_artifacts() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_capacity: 4,
        batch_window: Duration::from_millis(400),
        default_preset: "fast".into(),
        artifact_root: None,
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Liveness.
    let (status, health) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    // --- Two sequential requests sharing a source: second is a cache hit. ---
    let pair = generate_pair(&SyntheticPairConfig::tiny(14).with_seed(3));
    let other = generate_pair(
        &SyntheticPairConfig::tiny(14)
            .with_seed(3)
            .with_edge_removal(0.08),
    );
    let source = network_json(&pair.source);

    let (status, first) = request(addr, "POST", "/align", &align_body(&source, &pair.target));
    assert_eq!(status, 200, "{}", first.render());
    assert_eq!(first.get("cache_hit").unwrap().as_bool(), Some(false));
    assert_eq!(
        first.get("anchors").unwrap().as_arr().unwrap().len(),
        pair.source.num_nodes()
    );

    let (status, second) = request(addr, "POST", "/align", &align_body(&source, &other.target));
    assert_eq!(status, 200, "{}", second.render());
    assert_eq!(
        second.get("cache_hit").unwrap().as_bool(),
        Some(true),
        "same source + config must hit the artifact cache"
    );

    // Determinism through the cache: repeating the first request bit-matches.
    let (_, replay) = request(addr, "POST", "/align", &align_body(&source, &pair.target));
    assert_eq!(
        replay.get("anchors").unwrap(),
        first.get("anchors").unwrap(),
        "cached artifacts serve bit-identical results"
    );

    // The hit count is visible in /stats, and the shared training stage ran
    // exactly once for the cached source.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(
        get_num(&stats, &["cache", "hits"]) >= 2.0,
        "{}",
        stats.render()
    );
    assert_eq!(get_num(&stats, &["cache", "misses"]), 1.0);
    assert!(get_num(&stats, &["cache", "hit_rate"]) > 0.5);
    // The kernel dispatch decision is reported alongside the runtime gauges.
    assert_eq!(
        stats
            .get("runtime")
            .and_then(|r| r.get("active_isa"))
            .and_then(json::Json::as_str),
        Some(htc_linalg::active_isa().name()),
        "{}",
        stats.render()
    );
    let shared_stages = stats.get("shared_stages").unwrap().as_arr().unwrap();
    let training = shared_stages
        .iter()
        .find(|s| s.get("stage").and_then(json::Json::as_str) == Some("multi-orbit-aware training"))
        .expect("training stage present in shared stages");
    assert_eq!(
        training.get("count").unwrap().as_usize(),
        Some(1),
        "three served requests, one training run"
    );

    // --- Concurrent same-source requests coalesce onto one align_many. ---
    let targets: Vec<AttributedNetwork> = (0..3)
        .map(|i| {
            generate_pair(
                &SyntheticPairConfig::tiny(14)
                    .with_seed(3)
                    .with_edge_removal(0.02 + 0.02 * i as f64),
            )
            .target
        })
        .collect();
    let mut workers = Vec::new();
    for target in targets {
        let source = source.clone();
        workers.push(std::thread::spawn(move || {
            request(addr, "POST", "/align", &align_body(&source, &target))
        }));
    }
    let responses: Vec<(u16, json::Json)> =
        workers.into_iter().map(|w| w.join().unwrap()).collect();
    for (status, response) in &responses {
        assert_eq!(*status, 200, "{}", response.render());
        assert_eq!(response.get("cache_hit").unwrap().as_bool(), Some(true));
    }
    let max_batch = responses
        .iter()
        .map(|(_, r)| r.get("batched_with").unwrap().as_usize().unwrap())
        .max()
        .unwrap();
    assert!(
        max_batch >= 2,
        "concurrent same-source requests should share a batch (got {max_batch})"
    );

    // --- Persisted artifacts: a warm start works end to end... ---
    let warm = generate_pair(&SyntheticPairConfig::tiny(12).with_seed(11));
    let mut config = HtcConfig::fast();
    config.epochs = 6;
    let mut producer = AlignmentSession::new(config, &warm.source).unwrap();
    let views_path = tmp_path("views.bin");
    let encoder_path = tmp_path("encoder.bin");
    producer.source_views().unwrap().save(&views_path).unwrap();
    producer.train().unwrap().save(&encoder_path).unwrap();

    let warm_source = format!(
        "{},\"views_path\":{:?},\"encoder_path\":{:?}}}",
        network_json(&warm.source).trim_end_matches('}'),
        views_path.display().to_string(),
        encoder_path.display().to_string(),
    );
    let body = format!(
        "{{\"preset\":\"fast\",\"epochs\":6,\"source\":{warm_source},\"target\":{}}}",
        network_json(&warm.target)
    );
    let (status, warm_response) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", warm_response.render());

    // ...and a truncated artifact is rejected with a decode error — the
    // daemon answers 422 and stays up, it does not panic or abort.
    let bytes = std::fs::read(&views_path).unwrap();
    let truncated_path = tmp_path("views-truncated.bin");
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 2]).unwrap();
    // A fresh source (different seed) so the lookup misses and actually loads
    // the artifact.
    let fresh = generate_pair(&SyntheticPairConfig::tiny(12).with_seed(13));
    let hostile_source = format!(
        "{},\"views_path\":{:?}}}",
        network_json(&fresh.source).trim_end_matches('}'),
        truncated_path.display().to_string()
    );
    let body = format!(
        "{{\"preset\":\"fast\",\"epochs\":6,\"source\":{hostile_source},\"target\":{}}}",
        network_json(&fresh.target)
    );
    let (status, rejected) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 422, "{}", rejected.render());
    assert_eq!(
        rejected.get("kind").unwrap().as_str(),
        Some("invalid_artifact"),
        "{}",
        rejected.render()
    );

    // A fuzzed artifact (bit flips in the payload) is also a clean 422/400,
    // never a crash.
    let mut fuzzed = bytes.clone();
    for i in (8..fuzzed.len()).step_by(7) {
        fuzzed[i] ^= 0x5a;
    }
    std::fs::write(&truncated_path, &fuzzed).unwrap();
    let body = format!(
        "{{\"preset\":\"fast\",\"epochs\":6,\"source\":{hostile_source},\"target\":{}}}",
        network_json(&fresh.target)
    );
    let (status, _) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 422);

    // The daemon survived the hostile artifacts.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    // --- Malformed requests are 4xx, not connection drops. ---
    let (status, err) = request(addr, "POST", "/align", "{not json");
    assert_eq!(status, 400);
    assert_eq!(err.get("kind").unwrap().as_str(), Some("bad_request"));
    let (status, _) = request(addr, "GET", "/nope", "");
    assert_eq!(status, 404);

    // --- Clean shutdown over the wire. ---
    let (status, stopping) = request(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(stopping.get("status").unwrap().as_str(), Some("stopping"));
    server.join();

    std::fs::remove_file(&views_path).ok();
    std::fs::remove_file(&encoder_path).ok();
    std::fs::remove_file(&truncated_path).ok();
}

/// The artifact-root jail rejects absolute and traversal paths outright.
#[test]
fn artifact_root_rejects_traversal() {
    let root = tmp_path("artifact-root");
    std::fs::create_dir_all(&root).unwrap();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        artifact_root: Some(root.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let pair = generate_pair(&SyntheticPairConfig::tiny(10).with_seed(5));
    for bad in ["../secrets.bin", "/etc/passwd"] {
        let jailed_source = format!(
            "{},\"views_path\":{bad:?}}}",
            network_json(&pair.source).trim_end_matches('}')
        );
        let body = format!(
            "{{\"source\":{jailed_source},\"target\":{}}}",
            network_json(&pair.target)
        );
        let (status, response) = request(addr, "POST", "/align", &body);
        assert_eq!(status, 400, "{}", response.render());
        assert_eq!(
            response.get("kind").unwrap().as_str(),
            Some("forbidden_path"),
            "{}",
            response.render()
        );
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// A `max_nodes` bound turns oversized requests into a structured 413 before
/// any pipeline work, within-bound requests still align, and `/stats`
/// advertises the serving tier in its `pipeline` block.
#[test]
fn max_nodes_rejects_oversized_requests_with_structured_413() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        default_preset: "large".into(),
        max_nodes: 16,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let big = generate_pair(&SyntheticPairConfig::tiny(24).with_seed(9));
    let body = format!(
        "{{\"source\":{},\"target\":{}}}",
        network_json(&big.source),
        network_json(&big.target)
    );
    let (status, response) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 413, "{}", response.render());
    assert_eq!(
        response.get("kind").unwrap().as_str(),
        Some("too_large"),
        "{}",
        response.render()
    );

    // A within-bound request aligns under the Large-tier default preset.
    let small = generate_pair(&SyntheticPairConfig::tiny(12).with_seed(9));
    let body = format!(
        "{{\"epochs\":4,\"source\":{},\"target\":{}}}",
        network_json(&small.source),
        network_json(&small.target)
    );
    let (status, response) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", response.render());
    assert_eq!(
        response.get("anchors").unwrap().as_arr().unwrap().len(),
        small.source.num_nodes()
    );

    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    let pipeline = stats.get("pipeline").expect("stats carry a pipeline block");
    assert_eq!(pipeline.get("scale").unwrap().as_str(), Some("large"));
    assert_eq!(get_num(pipeline, &["max_nodes"]), 16.0);
    assert!(get_num(pipeline, &["top_k"]) > 0.0);
    assert_eq!(
        pipeline.get("default_preset").unwrap().as_str(),
        Some("large")
    );
    server.shutdown();
}

/// The ordered key paths of a fresh shard's `/stats` — `group.field`, or a
/// top-level `field`.  Consumers read these paths (`htcbench`, `serve_load`,
/// the CI smoke checks, the `get_num` helpers here), so a figure is renamed,
/// dropped or moved only together with this list.
const STATS_KEY_PATHS: &[&str] = &[
    "uptime_seconds",
    "requests.total",
    "requests.align_ok",
    "requests.align_err",
    "runtime.active_isa",
    "runtime.workers",
    "runtime.active_connections",
    "runtime.queue_depth",
    "runtime.queue_high_water",
    "runtime.total_connections",
    "runtime.total_requests",
    "runtime.reuse_ratio",
    "runtime.parked",
    "runtime.reactor_wakeups",
    "runtime.stall_timeouts_closed",
    "runtime.peer_cap_rejections",
    "runtime.shed_connections",
    "runtime.worker_panics",
    "cache.entries",
    "cache.capacity",
    "cache.hits",
    "cache.misses",
    "cache.evictions",
    "cache.hit_rate",
    "cache.spills",
    "cache.reloads",
    "cache.reload_errors",
    "batching.batches",
    "batching.batched_requests",
    "batching.max_batch",
    "robustness.pressure_level",
    "robustness.deadline_expired",
    "robustness.rate_limited",
    "robustness.degraded_responses",
    "robustness.faults_injected",
    "pipeline.default_preset",
    "pipeline.scale",
    "pipeline.top_k",
    "pipeline.max_nodes",
    "busy_sessions",
    "shared_stages",
    "request_stages",
];

#[test]
fn stats_key_paths_are_pinned() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let (status, stats) = request(server.addr(), "GET", "/stats", "");
    assert_eq!(status, 200);
    let json::Json::Obj(members) = &stats else {
        panic!("/stats is not an object: {}", stats.render())
    };
    let mut paths = Vec::new();
    for (key, value) in members {
        match value {
            json::Json::Obj(fields) => {
                paths.extend(fields.iter().map(|(field, _)| format!("{key}.{field}")))
            }
            _ => paths.push(key.clone()),
        }
    }
    assert_eq!(paths, STATS_KEY_PATHS);
    server.shutdown();
}

/// An unknown `default_preset` fails startup: serving would answer every
/// preset-less request `400 unknown preset` while `/stats` reported some
/// other preset's tier.
#[test]
fn unknown_default_preset_fails_startup() {
    let Err(err) = Server::start(ServerConfig {
        default_preset: "bogus".into(),
        ..ServerConfig::default()
    }) else {
        panic!("a server with default preset \"bogus\" started");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("bogus"), "{err}");
}

/// The body of a 90-byte request whose declared source size would make the
/// graph builder allocate terabytes before reading an edge.
const OVERSIZED_NUM_NODES: &str = "{\"source\":{\"num_nodes\":1000000000000,\"edges\":[]},\
     \"target\":{\"num_nodes\":2,\"edges\":[[0,1]]}}";

/// A declared `num_nodes` beyond the body's byte length is a structured 400
/// before anything is allocated — an allocation failure would abort the
/// whole process, which no panic boundary can contain — and the daemon
/// keeps serving.
#[test]
fn num_nodes_beyond_the_body_is_rejected_before_allocation() {
    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let (status, response) = request(addr, "POST", "/align", OVERSIZED_NUM_NODES);
    assert_eq!(status, 400, "{}", response.render());
    assert_eq!(
        response.get("kind").and_then(json::Json::as_str),
        Some("bad_request")
    );
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}
