//! In-process fleet tests: a real [`Router`] over real [`htc_serve::Server`]
//! upstreams (no child processes — the process-level supervisor drills live
//! in the workspace root's `tests/fleet_process.rs`, which owns the
//! binaries).
//!
//! Covered here: fingerprint→shard stickiness, failover serving warm and
//! bit-identically from the shared spill directory after the owner dies,
//! `/stats` aggregation summing to the per-shard values, chunked-response
//! relay, a full drain, and the HTTP edge cases run against both hops.

use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_fleet::{owner, Router, RouterConfig, ShardSet};
use htc_serve::http::Client;
use htc_serve::json::{self, network_spec, Json};
use htc_serve::server::{Merge, STATS};
use htc_serve::{routing_fingerprint, Server, ServerConfig};
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("htc-fleet-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn start_shard(shard_id: usize, cache_dir: &std::path::Path) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(cache_dir.to_path_buf()),
        shard_id: Some(shard_id),
        workers: 2,
        batch_window: Duration::ZERO,
        ..ServerConfig::default()
    })
    .expect("start shard server")
}

/// A shard table over in-process servers, populated the way a supervisor
/// would.
fn shard_set(servers: &[&Server]) -> Arc<ShardSet> {
    let set = Arc::new(ShardSet::new(servers.len()));
    for (i, server) in servers.iter().enumerate() {
        set.incarnate(i, server.addr(), None);
    }
    set
}

/// The number at `path` inside a `/stats` object.
fn stats_value(stats: &Json, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(stats, |v, k| v.get(k))
        .and_then(Json::as_f64)
}

/// The `group.field` (or top-level `field`) paths of a `/stats`-shaped
/// object, in order.
fn key_paths(stats: &Json) -> Vec<String> {
    let Json::Obj(members) = stats else {
        panic!("not an object: {}", stats.render())
    };
    let mut paths = Vec::new();
    for (key, value) in members {
        match value {
            Json::Obj(fields) => paths.extend(fields.iter().map(|(f, _)| format!("{key}.{f}"))),
            _ => paths.push(key.clone()),
        }
    }
    paths
}

fn align_body(seed: u64) -> String {
    let pair = generate_pair(&SyntheticPairConfig::tiny(8).with_seed(seed));
    format!(
        "{{\"preset\":\"fast\",\"epochs\":2,\"source\":{},\"target\":{}}}",
        network_spec(&pair.source),
        network_spec(&pair.target)
    )
}

/// The deterministic payload of an align response: everything except the
/// timing-carrying `stages` block and the cache provenance flag (a failover
/// replay is a warm start, so `cache_hit` legitimately differs).
fn result_payload(body: &str) -> Vec<(String, Json)> {
    let root = json::parse(body).expect("align response parses");
    [
        "anchors",
        "orbit_importance",
        "trusted_counts",
        "loss_final",
    ]
    .iter()
    .map(|key| {
        (
            key.to_string(),
            root.get(key).cloned().unwrap_or(Json::Null),
        )
    })
    .collect()
}

#[test]
fn requests_stick_to_their_rendezvous_shard() {
    let cache = tmp_dir("stickiness");
    let shards: Vec<Server> = (0..3).map(|i| start_shard(i, &cache)).collect();
    let refs: Vec<&Server> = shards.iter().collect();
    let set = shard_set(&refs);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    for seed in 50..56u64 {
        let body = align_body(seed);
        let expected = owner(routing_fingerprint(body.as_bytes()).unwrap(), 3);
        let mut seen = Vec::new();
        for _ in 0..3 {
            let response = client.request("POST", "/align", &body).expect("align");
            assert_eq!(response.status, 200, "{}", response.body_str());
            let shard: usize = response
                .header("x-htc-shard")
                .expect("router tags responses with the serving shard")
                .parse()
                .unwrap();
            seen.push(shard);
        }
        assert!(
            seen.iter().all(|&s| s == expected),
            "seed {seed} visited shards {seen:?}, expected all on {expected}"
        );
    }

    // With several distinct sources the rendezvous hash should not map
    // everything onto one shard.
    let distinct: std::collections::BTreeSet<usize> = (50..56u64)
        .map(|seed| owner(routing_fingerprint(align_body(seed).as_bytes()).unwrap(), 3))
        .collect();
    assert!(distinct.len() >= 2, "6 sources all landed on one shard");

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn failover_serves_warm_and_bit_identical_from_shared_spill() {
    let cache = tmp_dir("failover");
    let shard0 = start_shard(0, &cache);
    let shard1 = start_shard(1, &cache);
    let set = shard_set(&[&shard0, &shard1]);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();
    // Option-wrapped so either one can be shut down first (owner-dependent).
    let mut servers = [Some(shard0), Some(shard1)];

    // Owner-agnostic: read the assignment off the hash instead of assuming
    // which of the two shards gets this source.
    let body = align_body(60);
    let owner_id = owner(routing_fingerprint(body.as_bytes()).unwrap(), 2);

    let mut client = Client::connect(router.addr()).unwrap();
    let before = client.request("POST", "/align", &body).expect("align");
    assert_eq!(before.status, 200, "{}", before.body_str());
    assert_eq!(
        before.header("x-htc-shard").unwrap(),
        owner_id.to_string(),
        "first request must land on the rendezvous owner"
    );
    let payload_before = result_payload(before.body_str());

    // Kill the owner (in-process: drain it). Its artifacts are already
    // spilled into the shared cache dir — that happens on the request path.
    let survivor = 1 - owner_id;
    servers[owner_id].take().unwrap().shutdown();
    set.mark_down(owner_id);

    // Same request again: the router must fail over to the survivor, which
    // warm-starts the source from the dead owner's spill, bit-identically.
    let after = client
        .request("POST", "/align", &body)
        .expect("failover align");
    assert_eq!(after.status, 200, "{}", after.body_str());
    assert_eq!(
        after.header("x-htc-shard").unwrap(),
        survivor.to_string(),
        "failover must route to the surviving shard"
    );
    let root = json::parse(after.body_str()).unwrap();
    assert_eq!(
        root.get("cache_hit"),
        Some(&Json::Bool(true)),
        "survivor must warm-start from the shared spill, not retrain cold"
    );
    assert_eq!(
        result_payload(after.body_str()),
        payload_before,
        "failover answer must be bit-identical to the dead owner's"
    );
    // The handler bumps the counter after flushing the response, so the
    // client can observe the body a beat before the increment lands.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while router.metrics().failovers.get() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(router.metrics().failovers.get() >= 1);

    // The fleet health view reflects the degradation.
    let health = client.request("GET", "/fleet/healthz", "").unwrap();
    let health = json::parse(health.body_str()).unwrap();
    assert_eq!(
        health.get("status").and_then(Json::as_str),
        Some("degraded")
    );

    router.shutdown();
    servers[survivor].take().unwrap().shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn stats_aggregation_sums_match_per_shard_values() {
    let cache = tmp_dir("stats");
    let shards: Vec<Server> = (0..2).map(|i| start_shard(i, &cache)).collect();
    let refs: Vec<&Server> = shards.iter().collect();
    let set = shard_set(&refs);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    for seed in 70..74u64 {
        let body = align_body(seed);
        let response = client.request("POST", "/align", &body).expect("align");
        assert_eq!(response.status, 200, "{}", response.body_str());
    }

    // Per-shard truth, fetched directly from each shard.
    let mut direct_align_ok = 0.0;
    for shard in &refs {
        let mut direct = Client::connect(shard.addr()).unwrap();
        let stats = direct.request("GET", "/stats", "").unwrap();
        let stats = json::parse(stats.body_str()).unwrap();
        direct_align_ok += stats_value(&stats, &["requests", "align_ok"]).unwrap();
    }
    assert_eq!(direct_align_ok, 4.0, "four aligns served fleet-wide");

    let aggregated = client.request("GET", "/stats", "").unwrap();
    let aggregated = json::parse(aggregated.body_str()).unwrap();
    let total = |path: &[&str]| stats_value(&aggregated, path).unwrap_or(-1.0);
    assert_eq!(total(&["totals", "requests", "align_ok"]), direct_align_ok);
    assert_eq!(total(&["fleet", "shards"]), 2.0);
    assert_eq!(total(&["fleet", "healthy"]), 2.0);
    assert_eq!(total(&["router", "proxied_ok"]), 4.0);
    assert_eq!(total(&["router", "bad_gateway"]), 0.0);
    // The router's own runtime reports its worker panics, stall teardowns
    // and connection reuse next to the proxy counters; every request above
    // rode one keep-alive connection.
    assert_eq!(total(&["router", "worker_panics"]), 0.0);
    assert!(stats_value(&aggregated, &["router", "stall_timeouts_closed"]).is_some());
    assert!(total(&["router", "reuse_ratio"]) >= 1.0);
    // The per-shard raw snapshots ride along for drill-down.
    let members = aggregated.get("shards").and_then(Json::as_arr).unwrap();
    assert_eq!(members.len(), 2);

    // `totals` holds every additive figure of the shard table and nothing
    // else, each the sum of the shard snapshots the router scraped (the
    // shards' own `/stats` answers, embedded verbatim above).
    let totals = aggregated.get("totals").unwrap();
    let mut summed = Vec::new();
    for figure in STATS.iter().filter(|f| f.merge == Merge::Sum) {
        let path: Vec<&str> = [figure.group, figure.field]
            .into_iter()
            .filter(|key| !key.is_empty())
            .collect();
        let direct: f64 = members
            .iter()
            .map(|m| stats_value(m.get("stats").unwrap(), &path).unwrap())
            .sum();
        assert_eq!(stats_value(totals, &path), Some(direct), "{path:?}");
        summed.push(path.join("."));
    }
    assert_eq!(key_paths(totals), summed);

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn chunked_upstream_responses_relay_transparently() {
    let cache = tmp_dir("chunked");
    // stream_threshold 1: every align response streams out chunked, so the
    // relay's chunk-by-chunk re-framing is what the client exercises.
    let shard = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir: Some(cache.clone()),
        shard_id: Some(0),
        workers: 2,
        batch_window: Duration::ZERO,
        stream_threshold: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let set = shard_set(&[&shard]);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();

    let body = align_body(80);
    // Direct answer (also chunked) vs the relayed one must be bit-identical.
    let mut direct = Client::connect(shard.addr()).unwrap();
    let expected = direct.request("POST", "/align", &body).unwrap();
    assert_eq!(expected.status, 200, "{}", expected.body_str());

    let mut client = Client::connect(router.addr()).unwrap();
    let relayed = client.request("POST", "/align", &body).unwrap();
    assert_eq!(relayed.status, 200, "{}", relayed.body_str());
    assert_eq!(
        relayed.header("transfer-encoding"),
        Some("chunked"),
        "the relay must preserve the streaming framing"
    );
    assert_eq!(
        result_payload(relayed.body_str()),
        result_payload(expected.body_str())
    );
    // A second exchange on the same client connection proves the relayed
    // framing left the keep-alive byte stream aligned.
    let again = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(again.status, 200);

    router.shutdown();
    shard.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn unroutable_bodies_are_forwarded_not_dropped() {
    let cache = tmp_dir("unroutable");
    let shard = start_shard(0, &cache);
    let set = shard_set(&[&shard]);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    let response = client
        .request("POST", "/align", "{\"not\":\"an align request\"}")
        .unwrap();
    // The shard owns the rejection; the router just relays it.
    assert_eq!(response.status, 400, "{}", response.body_str());
    assert!(response.header("x-htc-shard").is_some());
    assert_eq!(router.metrics().unroutable.get(), 1);

    router.shutdown();
    shard.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn fleet_drain_stops_router_and_releases_clients() {
    let cache = tmp_dir("drain");
    let shard = start_shard(0, &cache);
    let set = shard_set(&[&shard]);
    let router = Router::start(RouterConfig::default(), Arc::clone(&set)).unwrap();
    let addr = router.addr();

    let mut client = Client::connect(addr).unwrap();
    let ack = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(ack.status, 200);
    // join returns only after the acceptor stopped and every worker joined;
    // a fresh connect must now be refused or immediately closed.
    router.join();
    let refused = match Client::connect(addr) {
        Err(_) => true,
        Ok(mut c) => c.request("GET", "/healthz", "").is_err(),
    };
    assert!(refused, "router still serving after drain");

    shard.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// Drives the HTTP edge cases against one front end under keep-alive and
/// returns every error response as `(status, body)`, in order, so hops can
/// be compared: back-to-back and pipelined requests, `404`/`405`, a
/// malformed request (400, then close) that does not poison the worker,
/// oversized head and body (431/413, then close), refused request framings
/// (chunked, conflicting or signed lengths), idle reaping after the
/// front end's 400 ms keep-alive window, and `Connection: close`.
fn http_edge_cases(addr: SocketAddr) -> Vec<(u16, String)> {
    let mut errors = Vec::new();
    let mut record = |response: htc_serve::http::ClientResponse, status: u16| {
        assert_eq!(response.status, status, "{}", response.body_str());
        errors.push((response.status, response.body_str().to_string()));
    };

    // Content-Length: 0 and back-to-back requests on one socket.
    let mut client = Client::connect(addr).unwrap();
    for _ in 0..3 {
        let response = client.request("GET", "/healthz", "").unwrap();
        assert_eq!(response.status, 200);
        let health = json::parse(response.body_str()).unwrap();
        assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    }
    // Pipelined: two full requests written before either response is read.
    client.send("GET", "/healthz", "").unwrap();
    client.send("GET", "/stats", "").unwrap();
    assert_eq!(client.read().unwrap().status, 200);
    assert_eq!(client.read().unwrap().status, 200);
    // No route: 404 for GET/POST, 405 for any other method, and the
    // connection stays open.
    record(client.request("GET", "/nope", "").unwrap(), 404);
    record(client.request("DELETE", "/healthz", "").unwrap(), 405);
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    drop(client);

    // A malformed second request gets a 400 and the connection closes —
    // but the worker survives to serve new connections.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    client
        .stream_mut()
        .write_all(b"NOT-A-REQUEST-LINE\r\n\r\n")
        .unwrap();
    record(client.read().unwrap(), 400);
    assert!(client.closed(), "connection closes after a parse error");
    let mut fresh = Client::connect(addr).unwrap();
    let response = fresh.request("GET", "/healthz", "").unwrap();
    assert_eq!(response.status, 200, "worker was not poisoned");
    drop(fresh);

    // Oversized head: 431, then close.
    let mut client = Client::connect(addr).unwrap();
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nHost: test\r\nX-Padding: {}\r\n\r\n",
        "x".repeat(32 * 1024)
    );
    client
        .stream_mut()
        .write_all(huge_header.as_bytes())
        .unwrap();
    record(client.read().unwrap(), 431);
    assert!(client.closed());

    // Oversized declared body: 413, then close.
    let mut client = Client::connect(addr).unwrap();
    client
        .stream_mut()
        .write_all(b"POST /align HTTP/1.1\r\nHost: test\r\nContent-Length: 268435456\r\n\r\n")
        .unwrap();
    record(client.read().unwrap(), 413);
    assert!(client.closed());

    // Request framings the parser cannot honour exactly are refused with a
    // parse error (`kind: "http"`, then close) instead of being read some
    // other way than a front proxy may have read them: a chunked body (411),
    // two differing Content-Length headers, and a signed Content-Length.
    let framings: [(&[u8], u16); 3] = [
        (
            b"POST /align HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
            411,
        ),
        (
            b"POST /align HTTP/1.1\r\nHost: test\r\nContent-Length: 100\r\nContent-Length: 2\r\n\r\n{}",
            400,
        ),
        (
            b"POST /align HTTP/1.1\r\nHost: test\r\nContent-Length: +2\r\n\r\n{}",
            400,
        ),
    ];
    for (request, status) in framings {
        let mut client = Client::connect(addr).unwrap();
        client.stream_mut().write_all(request).unwrap();
        let response = client.read().unwrap();
        let kind = json::parse(response.body_str())
            .ok()
            .and_then(|body| body.get("kind").and_then(Json::as_str).map(str::to_string));
        assert_eq!(kind.as_deref(), Some("http"), "{}", response.body_str());
        record(response, status);
        assert!(client.closed(), "connection closes after a refused framing");
    }

    // Idle timeout: a connection parked past the keep-alive window is
    // closed by the server.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.request("GET", "/healthz", "").unwrap().status, 200);
    std::thread::sleep(Duration::from_millis(900));
    assert!(client.closed(), "idle connection is reclaimed");

    // An explicit Connection: close is honoured.
    let mut client = Client::connect(addr).unwrap();
    client
        .stream_mut()
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let response = client.read().unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("connection"), Some("close"));
    assert!(client.closed());
    errors
}

/// The shard and the router serve through one request loop and one error
/// writer, so the edge cases hold on both hops and every error body is
/// byte-identical between them.
#[test]
fn http_edge_cases_under_keepalive() {
    let keep_alive = Duration::from_millis(400);
    let shard = Server::start(ServerConfig {
        workers: 2,
        keep_alive,
        ..ServerConfig::default()
    })
    .expect("shard starts");
    let router = Router::start(
        RouterConfig {
            keep_alive,
            ..RouterConfig::default()
        },
        shard_set(&[&shard]),
    )
    .expect("router starts");

    let from_shard = http_edge_cases(shard.addr());
    let from_router = http_edge_cases(router.addr());
    assert_eq!(from_shard, from_router);

    router.shutdown();
    shard.shutdown();
}
