//! Chaos suite: drives `htc-serve` under the deterministic fault plans of
//! [`htc_serve::fault`] and proves the request-lifecycle hardening
//! guarantees hold — injected durable-store faults never corrupt warm starts
//! (restart round-trips are bit-identical), deadlines fire as structured
//! 504s within budget with the session still reusable, worker panics are
//! contained and drained, rate-limited clients get `429 Retry-After`, a
//! stalled server cannot hang a client past its response deadline, and —
//! the other direction — stalled *clients* (header drips, mid-body stalls,
//! readers that stop draining a chunked response) are torn down on the
//! `stall_timeout` progress deadlines while concurrent warm requests stay
//! bit-identical.
//!
//! Every fault plan here is seeded, so the suite is deterministic run to
//! run — no sleeps-and-hope, no flaky "usually recovers".

use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_serve::fault::FaultPlan;
use htc_serve::http::{read_response_head, relay_response, Client, RelayError};
use htc_serve::json::{self, network_spec as network_json};
use htc_serve::{FairnessConfig, Server, ServerConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One `Connection: close` exchange, optionally with extra request headers.
fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    headers: &[(&str, &str)],
) -> (u16, json::Json, Vec<(String, String)>) {
    let mut client = Client::connect(addr).expect("connect");
    client
        .send_with_headers(method, path, body, true, headers)
        .expect("send request");
    let response = client.read().expect("read response");
    let payload = response.body_str();
    let parsed =
        json::parse(payload).unwrap_or_else(|e| panic!("unparsable body ({e}): {payload:?}"));
    (response.status, parsed, response.headers)
}

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, json::Json) {
    let (status, parsed, _) = request_with_headers(addr, method, path, body, &[]);
    (status, parsed)
}

fn align_body(source: &str, target_json: &str) -> String {
    format!("{{\"preset\":\"fast\",\"epochs\":6,\"source\":{source},\"target\":{target_json}}}")
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
    std::env::temp_dir().join(format!("htc-chaos-{}-{name}", std::process::id()))
}

fn plan(spec: &str) -> Option<Arc<FaultPlan>> {
    Some(Arc::new(FaultPlan::parse(spec).expect("valid fault plan")))
}

/// Torn and failed spills under a seeded fault plan never corrupt a warm
/// start: a restart over the damaged store discards the torn artifacts
/// (counted, never trusted), rebuilds cold with bit-identical results, and
/// the next spill repairs the store so the following restart is a true warm
/// start — still bit-identical.
#[test]
fn injected_store_faults_never_corrupt_warm_starts() {
    let dir = tmp_dir("store");
    std::fs::remove_dir_all(&dir).ok();
    let pair = generate_pair(&SyntheticPairConfig::tiny(12).with_seed(21));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    let body = align_body(&source, &target);

    // Phase 1: every spill lands torn (truncated at byte 10).
    let server = Server::start(ServerConfig {
        cache_dir: Some(dir.clone()),
        fault: plan("seed=1,torn_write=1@10"),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, reference) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", reference.render());
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        get_num(&stats, &["robustness", "faults_injected"]) >= 2.0,
        "views + encoder spills both torn: {}",
        stats.render()
    );
    server.shutdown();

    // Phase 2: restart fault-free over the damaged store.  The torn files
    // are discarded and counted, the source rebuilds cold, and the result is
    // bit-identical to the reference.
    let server = Server::start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, rebuilt) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", rebuilt.render());
    assert_eq!(
        rebuilt.get("anchors").unwrap(),
        reference.get("anchors").unwrap(),
        "torn spill files must never influence results"
    );
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(
        get_num(&stats, &["cache", "reload_errors"]),
        2.0,
        "both torn artifacts discarded: {}",
        stats.render()
    );
    assert!(
        get_num(&stats, &["cache", "spills"]) >= 2.0,
        "self-heal: clean spills replace the torn files: {}",
        stats.render()
    );
    server.shutdown();

    // Phase 3: the repaired store serves a genuine warm start — reloaded
    // artifacts, cache hit on the first request, bit-identical anchors.
    let server = Server::start(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, warm) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", warm.render());
    assert_eq!(warm.get("cache_hit").unwrap().as_bool(), Some(true));
    assert_eq!(
        warm.get("anchors").unwrap(),
        reference.get("anchors").unwrap(),
        "restart warm start is bit-identical"
    );
    server.shutdown();

    // Phase 4: injected *read* faults are transient — the reload probe fails
    // but the files are kept, the request rebuilds cold, results unchanged.
    let server = Server::start(ServerConfig {
        cache_dir: Some(dir.clone()),
        fault: plan("seed=9,store_read_err=1"),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let (status, transient) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", transient.render());
    assert_eq!(
        transient.get("anchors").unwrap(),
        reference.get("anchors").unwrap()
    );
    let survivors = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.ends_with(".views") || name.ends_with(".encoder")
        })
        .count();
    assert_eq!(survivors, 2, "transient read faults never delete spills");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// An `X-HTC-Deadline-Ms` budget that expires mid-training returns a
/// structured 504 within budget + 500 ms, and the session stays reusable:
/// the follow-up request without a deadline succeeds with anchors
/// bit-identical to an untouched server's.
#[test]
fn deadline_fires_within_budget_and_session_stays_reusable() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(10).with_seed(33));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    // Enough epochs that the full run comfortably exceeds the 40 ms budget
    // even in release builds (~0.3 ms/epoch release, ~1.3 ms/epoch debug);
    // the per-epoch observer hook keeps cancellation latency to one epoch.
    let body =
        format!("{{\"preset\":\"fast\",\"epochs\":1500,\"source\":{source},\"target\":{target}}}");

    let reference_server = Server::start(ServerConfig::default()).unwrap();
    let (status, reference) = request(reference_server.addr(), "POST", "/align", &body);
    assert_eq!(status, 200, "{}", reference.render());
    reference_server.shutdown();

    let server = Server::start(ServerConfig::default()).unwrap();
    let addr = server.addr();
    let budget = Duration::from_millis(40);
    let started = Instant::now();
    let (status, expired, _) = request_with_headers(
        addr,
        "POST",
        "/align",
        &body,
        &[("X-HTC-Deadline-Ms", "40")],
    );
    let elapsed = started.elapsed();
    assert_eq!(status, 504, "{}", expired.render());
    assert_eq!(
        expired.get("kind").unwrap().as_str(),
        Some("deadline_exceeded"),
        "{}",
        expired.render()
    );
    assert!(
        expired.get("retry_after_ms").is_some() && expired.get("queue_depth").is_some(),
        "504 carries the structured back-pressure fields: {}",
        expired.render()
    );
    assert!(
        elapsed <= budget + Duration::from_millis(500),
        "504 must land within budget+500ms, took {elapsed:?}"
    );

    // The same request without a deadline now completes on the same cached
    // session, bit-identical to the untouched reference server.
    let (status, retried) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", retried.render());
    assert_eq!(
        retried.get("anchors").unwrap(),
        reference.get("anchors").unwrap(),
        "a deadline-cancelled session must stay reusable bit-identically"
    );
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        get_num(&stats, &["robustness", "deadline_expired"]) >= 1.0,
        "{}",
        stats.render()
    );
    server.shutdown();
}

/// Scheduled handler panics are contained: each costs exactly one 500, the
/// worker pool keeps serving, the gauges settle to zero, and shutdown still
/// drains and joins deterministically (no leaked workers).
#[test]
fn scheduled_panics_are_contained_and_shutdown_drains() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(10).with_seed(7));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    let body = align_body(&source, &target);

    let server = Server::start(ServerConfig {
        fault: plan("seed=2,panic=2"),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let mut ok = 0;
    let mut failed = 0;
    for _ in 0..4 {
        let (status, response) = request(addr, "POST", "/align", &body);
        match status {
            200 => ok += 1,
            500 => {
                assert_eq!(
                    response.get("kind").unwrap().as_str(),
                    Some("internal"),
                    "{}",
                    response.render()
                );
                failed += 1;
            }
            other => panic!("unexpected status {other}: {}", response.render()),
        }
    }
    // panic=2 fires on a fixed residue: exactly half the sequential requests.
    assert_eq!((ok, failed), (2, 2));
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "daemon still alive after injected panics");
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(get_num(&stats, &["runtime", "worker_panics"]), 2.0);
    assert!(get_num(&stats, &["robustness", "faults_injected"]) >= 2.0);

    let metrics = server.metrics();
    server.shutdown();
    assert_eq!(metrics.active_connections.get(), 0, "no leaked connections");
    assert_eq!(metrics.queue_depth.get(), 0, "queue fully drained");
}

/// A client identity that exceeds its token bucket gets `429 Retry-After`
/// with the structured body, while other identities keep being served.
#[test]
fn hot_clients_are_rate_limited_with_retry_after() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(10).with_seed(17));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    let body = align_body(&source, &target);

    let server = Server::start(ServerConfig {
        fairness: FairnessConfig {
            peer_tokens_per_sec: 0.5,
            peer_burst: 2.0,
        },
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    let hot = [("X-HTC-Client", "hot")];
    for _ in 0..2 {
        let (status, response, _) = request_with_headers(addr, "POST", "/align", &body, &hot);
        assert_eq!(status, 200, "burst admits: {}", response.render());
    }
    let (status, limited, headers) = request_with_headers(addr, "POST", "/align", &body, &hot);
    assert_eq!(status, 429, "{}", limited.render());
    assert_eq!(
        limited.get("kind").unwrap().as_str(),
        Some("rate_limited"),
        "{}",
        limited.render()
    );
    assert!(
        get_num(&limited, &["retry_after_ms"]) >= 1.0,
        "{}",
        limited.render()
    );
    assert!(limited.get("queue_depth").is_some(), "{}", limited.render());
    assert!(
        headers
            .iter()
            .any(|(name, value)| name == "retry-after" && value.parse::<u64>().is_ok()),
        "429 carries a Retry-After header: {headers:?}"
    );

    // A different identity has its own bucket and is served immediately.
    let (status, other, _) = request_with_headers(
        addr,
        "POST",
        "/align",
        &body,
        &[("X-HTC-Client", "patient")],
    );
    assert_eq!(status, 200, "{}", other.render());
    // Health and stats probes are never rate limited, even for the hot
    // client's address.
    let (status, stats) = request(addr, "GET", "/stats", "");
    assert_eq!(status, 200);
    assert!(
        get_num(&stats, &["robustness", "rate_limited"]) >= 1.0,
        "{}",
        stats.render()
    );
    server.shutdown();
}

/// Regression: a server that accepts, sends partial headers and then stalls
/// can no longer hang the client — the response deadline of
/// `read_client_response_deadline` bounds the whole exchange.
#[test]
fn stalled_server_cannot_hang_the_client() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stall = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut scratch = [0u8; 256];
        let _ = socket.read(&mut scratch);
        // Partial headers, then silence: the worst case for a line-based
        // reader, which now re-checks its budget on every blocked read.
        socket
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n")
            .unwrap();
        socket.flush().unwrap();
        std::thread::sleep(Duration::from_secs(2));
        drop(socket);
    });

    let mut client = Client::connect(addr).unwrap();
    client.set_response_deadline(Duration::from_millis(300));
    client.send_with("GET", "/healthz", "", true).unwrap();
    let started = Instant::now();
    let err = client
        .read()
        .expect_err("stalled response must not succeed");
    let elapsed = started.elapsed();
    assert!(
        err.contains("deadline"),
        "error should name the deadline: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "client must give up well before the server un-stalls, took {elapsed:?}"
    );
    stall.join().unwrap();
}

/// A one-shot server that answers the first request with `head` and then
/// holds the socket open, silent, until the client hangs up — so a client
/// that trusted the head and waited for the body would sit out its whole
/// response deadline.
fn hostile_head_server(head: &'static str) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().unwrap();
        let mut scratch = [0u8; 256];
        let _ = socket.read(&mut scratch);
        socket.write_all(head.as_bytes()).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        while matches!(socket.read(&mut scratch), Ok(n) if n > 0) {}
    });
    (addr, server)
}

/// Response framing sizes beyond the body bound — a huge `Content-Length`,
/// a huge chunk, a chunk size that overflows the framing arithmetic — are
/// rejected before anything is allocated for them: an error, promptly, and
/// no allocation abort or overflow panic.
#[test]
fn hostile_response_framing_is_rejected_before_allocating() {
    for head in [
        "HTTP/1.1 200 OK\r\nContent-Length: 99999999999999\r\n\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5af3107a3fff\r\n",
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
    ] {
        let (addr, server) = hostile_head_server(head);
        let mut client = Client::connect(addr).unwrap();
        client.set_response_deadline(Duration::from_secs(5));
        client.send_with("GET", "/healthz", "", true).unwrap();
        let started = Instant::now();
        let err = client
            .read()
            .expect_err("an oversized body must not be accepted");
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "rejected only after {:?} ({err}) for {head:?}",
            started.elapsed()
        );
        drop(client);
        server.join().unwrap();
    }
}

/// The relay's chunk framing (`size + CRLF`) cannot overflow: a chunk size of
/// `usize::MAX` is an upstream error, not a panic or a wrapped count.
#[test]
fn relay_rejects_an_overflowing_chunk_size() {
    let (addr, server) = hostile_head_server(
        "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\n",
    );
    let mut upstream = Client::connect(addr).unwrap();
    upstream.send_with("GET", "/healthz", "", true).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    let head = read_response_head(upstream.reader_mut(), deadline).unwrap();
    let sink = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let mut downstream = TcpStream::connect(sink.local_addr().unwrap()).unwrap();
    let _peer = sink.accept().unwrap();
    let result = relay_response(
        upstream.reader_mut(),
        &head,
        &mut downstream,
        false,
        &[],
        deadline,
    );
    assert!(
        matches!(result, Err(RelayError::Upstream(_))),
        "expected an upstream error, got {result:?}"
    );
    drop(upstream);
    server.join().unwrap();
}

/// Locks a client socket's receive buffer small so unread response bytes
/// back up to the server's writer quickly (and deterministically, since the
/// lock also disables receive-window autotuning).
#[cfg(target_os = "linux")]
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const u8, len: u32) -> i32;
    }
    // SOL_SOCKET (1) / SO_RCVBUF (8).
    let val: i32 = 4096;
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            1,
            8,
            (&val as *const i32).cast(),
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "SO_RCVBUF");
}

#[cfg(not(target_os = "linux"))]
fn shrink_rcvbuf(_stream: &TcpStream) {}

/// Slow-header drip: clients that feed their request head one byte at a
/// time — scheduled by the new client-side `stall_header` fault site — are
/// torn down on the head-progress deadline with a structured 408 (or a
/// hard close), while concurrent warm requests on the same server return
/// anchors bit-identical to the fault-free exchange.
#[test]
fn slow_header_drips_are_torn_down_while_warm_requests_stay_bit_identical() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(10).with_seed(41));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    let body = align_body(&source, &target);
    let server = Server::start(ServerConfig {
        workers: 2,
        stall_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Fault-free reference exchange on the same server.
    let (status, reference) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", reference.render());

    // The client-side plan decides which exchanges stall: period 2 fires on
    // half of the 4 connections below, 50 ms between header bytes (slower
    // than the 300 ms head deadline allows for a full request line).
    let plan = FaultPlan::parse("seed=4,stall_header=2@50").unwrap();
    let mut stalled = 0u32;
    for _ in 0..4 {
        match plan.stall_header_delay() {
            Some(delay) => {
                stalled += 1;
                let drip = std::thread::spawn(move || {
                    let mut socket = TcpStream::connect(addr).unwrap();
                    for byte in b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" {
                        if socket.write_all(&[*byte]).is_err() {
                            break; // the server already tore the connection down
                        }
                        std::thread::sleep(delay);
                    }
                    socket
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    let mut tail = String::new();
                    let _ = socket.read_to_string(&mut tail);
                    tail
                });
                // While the dripper stalls, a warm request must be served
                // bit-identically — stalled clients cost a deadline, not
                // determinism.
                let (status, warm) = request(addr, "POST", "/align", &body);
                assert_eq!(status, 200, "{}", warm.render());
                assert_eq!(
                    warm.get("anchors").unwrap(),
                    reference.get("anchors").unwrap(),
                    "warm request concurrent with a stalled client must stay bit-identical"
                );
                let tail = drip.join().unwrap();
                assert!(
                    tail.is_empty() || tail.starts_with("HTTP/1.1 408"),
                    "dripper is torn down with a structured 408 or a hard close: {tail:?}"
                );
            }
            None => {
                let (status, health) = request(addr, "GET", "/healthz", "");
                assert_eq!(status, 200, "{}", health.render());
            }
        }
    }
    assert_eq!(stalled, 2, "stall_header=2 fires on half the exchanges");
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        get_num(&stats, &["runtime", "stall_timeouts_closed"]) >= f64::from(stalled),
        "every dripped head counts as a stall teardown: {}",
        stats.render()
    );
    server.shutdown();
}

/// Mid-body stall: the head arrives intact with a `Content-Length`, the
/// body never follows.  The per-read progress deadline (not the 30 s
/// standalone budget) tears the connection down with a 408, and the server
/// keeps serving fresh clients.
#[test]
fn mid_body_stall_is_torn_down_on_progress_deadline() {
    let server = Server::start(ServerConfig {
        workers: 2,
        stall_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    // The stall site's parsed delay drives the client's pacing, as it does
    // in the `serve_load` generator.
    let plan = FaultPlan::parse("seed=6,stall_body=1@40").unwrap();
    let delay = plan.stall_body_delay().expect("period 1 always fires");

    let mut socket = TcpStream::connect(addr).unwrap();
    socket
        .write_all(b"POST /align HTTP/1.1\r\nHost: t\r\nContent-Length: 1000\r\n\r\n")
        .unwrap();
    std::thread::sleep(delay);
    socket.write_all(b"{\"preset\"").unwrap(); // 9 of 1000 bytes, then silence
    let started = Instant::now();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut tail = String::new();
    let _ = socket.read_to_string(&mut tail);
    let elapsed = started.elapsed();
    assert!(
        tail.is_empty() || tail.starts_with("HTTP/1.1 408"),
        "stalled body is torn down with a structured 408 or a hard close: {tail:?}"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "teardown rides the 300 ms stall deadline, not the standalone budget \
         (took {elapsed:?})"
    );

    // The worker that owned the stalled connection is free again.
    let (status, _) = request(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    let (_, stats) = request(addr, "GET", "/stats", "");
    assert!(
        get_num(&stats, &["runtime", "stall_timeouts_closed"]) >= 1.0,
        "{}",
        stats.render()
    );
    server.shutdown();
}

/// Stalled reader on a chunked response: a client that pipelines align
/// requests and never drains the socket backs the streamed responses up
/// through the kernel buffers until the server's write stalls past the
/// deadline — the connection is torn down (write-progress deadline, counted
/// as a stall teardown) instead of wedging a worker forever, and a warm
/// client served during the stall gets bit-identical anchors.
#[test]
fn stalled_chunked_reader_is_torn_down_by_write_deadline() {
    let pair = generate_pair(&SyntheticPairConfig::tiny(14).with_seed(9));
    let source = network_json(&pair.source);
    let target = network_json(&pair.target);
    let body = align_body(&source, &target);
    let server = Server::start(ServerConfig {
        workers: 2,
        stream_threshold: 1, // every align response streams chunked
        stall_timeout: Duration::from_millis(400),
        keep_alive: Duration::from_secs(30),
        // Locked send buffer: without it the kernel autotunes to megabytes
        // and a stalled reader absorbs the whole burst without the write
        // ever blocking.
        sndbuf: 64 * 1024,
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // Reference exchange: warms the cache (pipelined repeats are cheap
    // fine-tunes) and measures the per-response size for the burst below.
    let mut reference_client = Client::connect(addr).unwrap();
    reference_client.send("POST", "/align", &body).unwrap();
    let reference = reference_client.read().expect("reference align");
    assert_eq!(reference.status, 200, "{:?}", reference.body_str());
    assert_eq!(reference.header("transfer-encoding"), Some("chunked"));
    let reference_anchors = json::parse(reference.body_str())
        .unwrap()
        .get("anchors")
        .unwrap()
        .clone();
    drop(reference_client);

    // Stalled reader: locked-small receive buffer, a pipelined burst sized
    // to several hundred KB of responses, and not a single read.  Write
    // timeouts stand in for a stalled pipe on the send side too: once the
    // server stops draining requests (its writer is blocked), the client
    // just stops pushing.
    let mut socket = TcpStream::connect(addr).unwrap();
    shrink_rcvbuf(&socket);
    socket
        .set_write_timeout(Some(Duration::from_millis(500)))
        .unwrap();
    let one = format!(
        "POST /align HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let repeats = (768 * 1024 / reference.body_str().len().max(256)).clamp(64, 2000);
    for _ in 0..repeats {
        if socket.write_all(one.as_bytes()).is_err() {
            break;
        }
    }

    // While the reader stalls, a warm client is served bit-identically.
    let (status, warm) = request(addr, "POST", "/align", &body);
    assert_eq!(status, 200, "{}", warm.render());
    assert_eq!(
        warm.get("anchors").unwrap(),
        &reference_anchors,
        "warm request concurrent with a stalled reader must stay bit-identical"
    );

    // The write-progress deadline fires and the teardown is counted.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (_, stats) = request(addr, "GET", "/stats", "");
        if get_num(&stats, &["runtime", "stall_timeouts_closed"]) >= 1.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "write stall never tore the reader down: {}",
            stats.render()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The stalled socket really is dead: draining it bottoms out at
    // EOF/reset rather than yielding responses forever.
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
    loop {
        match socket.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
    server.shutdown();
}
