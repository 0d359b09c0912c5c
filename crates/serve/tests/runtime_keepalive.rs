//! Integration tests for the connection runtime over real sockets: bounded
//! worker pool with queueing (not spawning), reactor-parked keep-alive
//! (idle connections cost no worker and generate no wakeups), `503
//! Retry-After` load shedding, chunked response streaming, the durable
//! `--cache-dir` restart warm start, and deterministic shutdown with a
//! parked population.  The hostile-input HTTP edge cases run against both
//! hops, shard and router, in the fleet crate's `router_integration.rs`.

use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_graph::AttributedNetwork;
use htc_serve::http::Client as HttpClient;
use htc_serve::json;
use htc_serve::{FaultPlan, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Thin test wrapper over the shared keep-alive [`HttpClient`]: unwraps
/// errors and parses response bodies as JSON.
struct Client(HttpClient);

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        Client(HttpClient::connect(addr).expect("connect"))
    }

    fn send(&mut self, method: &str, path: &str, body: &str) {
        self.0.send(method, path, body).expect("send request");
    }

    fn read(&mut self) -> htc_serve::http::ClientResponse {
        self.0.read().expect("read response")
    }

    fn closed(&mut self) -> bool {
        self.0.closed()
    }

    /// One exchange on the persistent connection.
    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, json::Json) {
        let response = self.0.request(method, path, body).expect("exchange");
        let parsed = json::parse(response.body_str())
            .unwrap_or_else(|e| panic!("unparsable body ({e}): {:?}", response.body_str()));
        (response.status, parsed)
    }
}

fn align_body(source: &AttributedNetwork, target: &AttributedNetwork) -> String {
    format!(
        "{{\"preset\":\"fast\",\"epochs\":5,\"source\":{},\"target\":{}}}",
        json::network_spec(source),
        json::network_spec(target)
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

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("htc-runtime-test-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// With `--workers 2`, more than two concurrent keep-alive connections all
/// complete — excess connections queue for a worker instead of spawning new
/// threads — and sequential requests on one socket drive the reuse ratio
/// above 1.0.
#[test]
fn bounded_pool_queues_and_reuses_connections() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 16,
        batch_window: Duration::from_millis(50),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let pair = generate_pair(&SyntheticPairConfig::tiny(12).with_seed(3));

    // 4 concurrent keep-alive connections through 2 workers, 3 requests
    // each: every request completes even though connections outnumber
    // workers 2×.
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = align_body(&pair.source, &pair.target);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                let (status, health) = client.request("GET", "/healthz", "");
                assert_eq!(status, 200, "{}", health.render());
                let (status, aligned) = client.request("POST", "/align", &body);
                assert_eq!(status, 200, "{}", aligned.render());
                let (status, _) = client.request("GET", "/healthz", "");
                assert_eq!(status, 200);
            })
        })
        .collect();
    for client in clients {
        client.join().expect("keep-alive client");
    }

    let metrics = server.metrics();
    assert!(
        metrics.active_connections.high_water() <= 2,
        "at most `workers` connections are ever active (got {})",
        metrics.active_connections.high_water()
    );

    let mut stats_client = Client::connect(addr);
    let (status, stats) = stats_client.request("GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(
        get_num(&stats, &["runtime", "reuse_ratio"]) > 1.0,
        "keep-alive connections carried several requests each: {}",
        stats.render()
    );
    assert_eq!(get_num(&stats, &["runtime", "worker_panics"]), 0.0);
    assert_eq!(get_num(&stats, &["runtime", "workers"]), 2.0);
    assert!(get_num(&stats, &["runtime", "total_connections"]) >= 5.0);
    // The reactor gauges are surfaced on /stats: the loop has woken (parks
    // and dispatches), and no stall teardowns or peer-cap refusals happened
    // in this well-behaved run.
    assert!(get_num(&stats, &["runtime", "reactor_wakeups"]) >= 1.0);
    assert!(get_num(&stats, &["runtime", "parked"]) >= 0.0);
    assert_eq!(get_num(&stats, &["runtime", "stall_timeouts_closed"]), 0.0);
    assert_eq!(get_num(&stats, &["runtime", "peer_cap_rejections"]), 0.0);

    // Deterministic shutdown over the wire: the acknowledgement arrives in
    // full, then join() returns with every worker drained.
    let (status, stopping) = stats_client.request("POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert_eq!(stopping.get("status").unwrap().as_str(), Some("stopping"));
    server.join();
    assert_eq!(metrics.active_connections.get(), 0);
    assert_eq!(metrics.queue_depth.get(), 0);
}

/// When every worker is occupied and the hand-off queue is full, the next
/// *readable* connection is shed with `503` + `Retry-After` instead of
/// growing state.  Under the reactor, idle connections park for free, so
/// saturation requires in-flight requests: a `slow_socket` fault pins the
/// single worker inside the handler for seconds.
#[test]
fn saturated_queue_sheds_with_503_retry_after() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        keep_alive: Duration::from_secs(30),
        // Every request stalls 2.5 s inside the handler before being served
        // — a deterministic way to hold the only worker busy.
        fault: Some(Arc::new(FaultPlan::parse("slow_socket=1@2500").unwrap())),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let metrics = server.metrics();

    // Occupier: its request is dispatched and pins the worker mid-handler.
    let mut occupier = Client::connect(addr);
    occupier.send("GET", "/healthz", "");
    for _ in 0..400 {
        if metrics.active_connections.get() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(metrics.active_connections.get(), 1);

    // Queued connection: readable, dispatched, waiting for the worker.
    let mut queued = TcpStream::connect(addr).unwrap();
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    for _ in 0..400 {
        if metrics.queue_depth.get() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(metrics.active_connections.get(), 1);
    assert_eq!(metrics.queue_depth.get(), 1);

    // Next readable connection overflows the queue: 503 with a Retry-After
    // hint, written by the reactor on dispatch, then closed.
    let mut shed = TcpStream::connect(addr).unwrap();
    shed.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    shed.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut response = String::new();
    shed.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "{response}");
    assert!(response.contains("Retry-After:"), "{response}");
    assert!(response.contains("overloaded"), "{response}");
    assert_eq!(metrics.shed_connections.get(), 1);

    // The occupier's (slow) response lands, then the queued connection
    // reaches the freed worker.
    assert_eq!(occupier.read().status, 200);
    queued
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut queued = Client(HttpClient::from_stream(queued).unwrap());
    let response = queued.read();
    assert_eq!(
        response.status, 200,
        "queued connection is served once a worker frees"
    );

    server.shutdown();
    assert_eq!(metrics.active_connections.get(), 0);
    assert_eq!(metrics.queue_depth.get(), 0);
    assert_eq!(metrics.parked.get(), 0);
}

/// The busy-poll regression guard: a parked idle connection generates no
/// reactor wakeups between timer ticks.  The loop sleeps straight to the
/// next armed idle deadline (tens of seconds away here), so a quiet window
/// must add at most the handful of wakeups the probe's own exchange causes.
#[test]
fn idle_parked_connection_generates_no_wakeups() {
    let server = Server::start(ServerConfig {
        workers: 2,
        keep_alive: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();

    // Park one idle keep-alive connection.
    let mut idle = Client::connect(addr);
    let (status, _) = idle.request("GET", "/healthz", "");
    assert_eq!(status, 200);

    // Sample the wakeup counter across a quiet window on a second
    // connection.  Each /stats exchange wakes the reactor twice (readable
    // dispatch + re-park); the idle connection must contribute nothing —
    // under the old 100 ms poll slices this window alone would show 12+.
    let mut probe = Client::connect(addr);
    let (_, s0) = probe.request("GET", "/stats", "");
    std::thread::sleep(Duration::from_millis(1200));
    let (_, s1) = probe.request("GET", "/stats", "");
    assert!(
        get_num(&s1, &["runtime", "parked"]) >= 1.0,
        "the idle connection is parked in the reactor: {}",
        s1.render()
    );
    let woke = get_num(&s1, &["runtime", "reactor_wakeups"])
        - get_num(&s0, &["runtime", "reactor_wakeups"]);
    assert!(
        woke <= 4.0,
        "idle parked connections must not wake the reactor (wakeups over a \
         quiet 1.2 s window: {woke})"
    );

    // The parked connection is still live after the quiet window.
    let (status, _) = idle.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    server.shutdown();
}

/// Deterministic drain with a parked population: shutdown with hundreds of
/// idle keep-alive sockets reaps every one (clients see the close), joins
/// every worker, and settles the gauges to zero.
#[test]
fn shutdown_reaps_parked_population() {
    let server = Server::start(ServerConfig {
        workers: 2,
        keep_alive: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let metrics = server.metrics();

    const PARKED: usize = 300;
    let mut clients: Vec<Client> = (0..PARKED)
        .map(|_| {
            let mut client = Client::connect(addr);
            let (status, _) = client.request("GET", "/healthz", "");
            assert_eq!(status, 200);
            client
        })
        .collect();
    for _ in 0..800 {
        if metrics.parked.get() == PARKED as u64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(metrics.parked.get(), PARKED as u64);

    // SIGTERM-equivalent: trigger + join.  Every parked socket must be
    // reaped and every worker joined before this returns.
    server.shutdown();
    assert_eq!(metrics.parked.get(), 0);
    assert_eq!(metrics.active_connections.get(), 0);
    assert_eq!(metrics.queue_depth.get(), 0);
    for client in &mut clients {
        assert!(client.closed(), "drained server closed every parked socket");
    }
}

/// Large anchor sets stream as `Transfer-Encoding: chunked`; the streamed
/// bytes are identical to the buffered (`Content-Length`) rendering of the
/// same deterministic alignment.
#[test]
fn chunked_streaming_matches_buffered_rendering() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(14).with_seed(9));
    let body = align_body(&pair.source, &pair.target);

    let streaming = Server::start(ServerConfig {
        stream_threshold: 1, // every align response streams
        ..ServerConfig::default()
    })
    .unwrap();
    let mut client = Client::connect(streaming.addr());
    client.send("POST", "/align", &body);
    let chunked = client.read();
    assert_eq!(chunked.status, 200, "{:?}", chunked.body_str());
    assert_eq!(
        chunked.header("transfer-encoding"),
        Some("chunked"),
        "large anchor sets must stream"
    );
    assert!(chunked.header("content-length").is_none());
    // The connection survives a chunked response (self-delimiting framing).
    let (status, _) = client.request("GET", "/healthz", "");
    assert_eq!(status, 200);
    drop(client);
    streaming.shutdown();

    let buffered = Server::start(ServerConfig::default()).unwrap();
    let mut client = Client::connect(buffered.addr());
    client.send("POST", "/align", &body);
    let plain = client.read();
    assert_eq!(plain.status, 200);
    assert_eq!(plain.header("transfer-encoding"), None);
    drop(client);
    buffered.shutdown();

    // Same pipeline, same determinism guarantees, two transports: the bodies
    // agree byte for byte (modulo the timing-dependent "stages"/"loss" tail,
    // which is compared structurally).
    let chunked_json = json::parse(chunked.body_str()).unwrap();
    let plain_json = json::parse(plain.body_str()).unwrap();
    assert_eq!(
        chunked_json.get("anchors").unwrap(),
        plain_json.get("anchors").unwrap(),
        "streamed and buffered renderings must agree bit-for-bit on anchors"
    );
    assert_eq!(
        chunked_json.get("orbit_importance").unwrap(),
        plain_json.get("orbit_importance").unwrap()
    );
    assert_eq!(
        chunked_json.get("trusted_counts").unwrap(),
        plain_json.get("trusted_counts").unwrap()
    );
    assert_eq!(
        chunked_json.get("loss_final").unwrap(),
        plain_json.get("loss_final").unwrap()
    );
}

/// The durable cache turns a restart into a warm start: artifacts spill to
/// `--cache-dir`, a fresh daemon reloads them lazily, the first request for
/// a previously-seen source is a cache hit that skips training, and the
/// results are bit-identical to the cold path.
#[test]
fn durable_cache_survives_restart_bit_identically() {
    let dir = tmp_dir("durable");
    let pair = generate_pair(&SyntheticPairConfig::tiny(13).with_seed(21));
    let body = align_body(&pair.source, &pair.target);
    let config = || ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    // Cold daemon: first request trains and spills.
    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.addr());
    let (status, cold) = client.request("POST", "/align", &body);
    assert_eq!(status, 200, "{}", cold.render());
    assert_eq!(cold.get("cache_hit").unwrap().as_bool(), Some(false));
    let (_, stats) = client.request("GET", "/stats", "");
    assert!(
        get_num(&stats, &["cache", "spills"]) >= 2.0,
        "views + encoder spilled: {}",
        stats.render()
    );
    drop(client);
    server.shutdown();
    let spill_files = std::fs::read_dir(&dir).unwrap().count();
    assert!(
        spill_files >= 2,
        "expected spill files, found {spill_files}"
    );

    // Restarted daemon, same cache dir: warm start.  The first request hits
    // (disk layer), skips training, and answers bit-identically.
    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.addr());
    let (status, warm) = client.request("POST", "/align", &body);
    assert_eq!(status, 200, "{}", warm.render());
    assert_eq!(
        warm.get("cache_hit").unwrap().as_bool(),
        Some(true),
        "restart with the same --cache-dir warm-starts: {}",
        warm.render()
    );
    assert_eq!(
        warm.get("anchors").unwrap(),
        cold.get("anchors").unwrap(),
        "warm-start results are bit-identical to the cold path"
    );
    assert_eq!(
        warm.get("loss_final").unwrap(),
        cold.get("loss_final").unwrap()
    );
    let (_, stats) = client.request("GET", "/stats", "");
    assert!(
        get_num(&stats, &["cache", "reloads"]) >= 2.0,
        "views + encoder reloaded: {}",
        stats.render()
    );
    // No training happened in this process: the shared stage timer never
    // recorded the training stage.
    let shared_stages = stats.get("shared_stages").unwrap().as_arr().unwrap();
    assert!(
        !shared_stages
            .iter()
            .any(|s| s.get("stage").and_then(json::Json::as_str)
                == Some("multi-orbit-aware training")),
        "warm-started source must not retrain: {}",
        stats.render()
    );
    assert!(
        !shared_stages
            .iter()
            .any(|s| s.get("stage").and_then(json::Json::as_str) == Some("orbit counting")),
        "warm-started source must not recount orbits: {}",
        stats.render()
    );
    drop(client);
    server.shutdown();

    // A corrupt spill file is discarded, not trusted: the daemon rebuilds
    // cold and still answers correctly.
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "views") {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        }
    }
    let server = Server::start(config()).unwrap();
    let mut client = Client::connect(server.addr());
    let (status, rebuilt) = client.request("POST", "/align", &body);
    assert_eq!(status, 200, "{}", rebuilt.render());
    assert_eq!(
        rebuilt.get("anchors").unwrap(),
        cold.get("anchors").unwrap(),
        "rebuild after corruption still matches"
    );
    let (_, stats) = client.request("GET", "/stats", "");
    assert!(
        get_num(&stats, &["cache", "reload_errors"]) >= 1.0,
        "corrupt spill counted: {}",
        stats.render()
    );
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
