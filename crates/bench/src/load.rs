//! Load generation against `htc-serve` and `htc-fleet`: closed-loop `/align`
//! clients that honour the server's back-pressure contract, an in-process
//! fleet, a parked idle keep-alive population and a `/stats` scraper.
//!
//! `bench_pipeline`'s serving scenarios and the `serve_load` example both
//! drive their load through this module, so the client behaviour they
//! measure is one implementation.
//!
//! Every client honours back-pressure: on 429/502/503/504 it sleeps for the
//! server's retry hint (`ClientResponse::retry_after_ms`, falling back to
//! exponential backoff), multiplied by a seeded jitter factor so runs are
//! deterministic.

use htc_datasets::{generate_pair, SyntheticPairConfig};
use htc_fleet::{Router, RouterConfig, ShardSet};
use htc_serve::http::Client;
use htc_serve::json::{self, network_spec, Json};
use htc_serve::{Server, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Backoff when the server gives no hint (connect refused, socket errors).
const BACKOFF_BASE_MS: u64 = 10;
const BACKOFF_MAX_MS: u64 = 500;
/// Idle-population think time: jittered 8–20 s — the population is *mostly*
/// idle, pinging rarely.  Together with the per-thread socket share below
/// this keeps the worst-case gap between pings on any one socket (think time
/// plus one serial sweep of the thread's other sockets) well under a 60 s
/// keep-alive, so parked pingers are never reaped as dead.
const IDLE_THINK_MIN_MS: u64 = 8000;
const IDLE_THINK_MAX_MS: u64 = 20000;
/// Sockets owned by one idle pinger thread.  Pings within a thread are
/// serial, so this bounds the sweep delay a due ping can suffer behind its
/// neighbours' round trips (500 × a loaded ~15 ms RTT ≈ 7.5 s worst case).
const IDLE_SOCKETS_PER_THREAD: usize = 500;
/// Connect ramp: one chunk per tick keeps the accept backlog comfortable
/// even when asking for tens of thousands of connections.
const IDLE_RAMP_CHUNK: usize = 100;
const IDLE_RAMP_TICK_MS: u64 = 10;

/// An `/align` request body: a seeded tiny synthetic pair of `nodes` nodes
/// under the fast preset.  Distinct seeds give distinct source graphs, hence
/// distinct cache keys and (in a fleet) distinct owning shards.
pub fn align_body(nodes: usize, seed: u64) -> String {
    let pair = generate_pair(&SyntheticPairConfig::tiny(nodes).with_seed(seed));
    format!(
        "{{\"preset\":\"fast\",\"epochs\":4,\"source\":{},\"target\":{}}}",
        network_spec(&pair.source),
        network_spec(&pair.target)
    )
}

/// What one or more clients saw: latencies of successful requests (µs) and
/// counts per back-pressure status class.
#[derive(Debug, Default)]
pub struct ClientStats {
    pub latencies: Vec<u64>,
    pub ok: u64,
    pub rate_limited: u64, // 429
    pub unavailable: u64,  // 503
    pub deadline: u64,     // 504
    pub bad_gateway: u64,  // 502 — router-level retryable, fleet mode only
    pub other_errors: u64, // connect failures, io errors, unexpected statuses
    /// Requests served per shard id (fleet mode; from `X-HTC-Shard`).
    pub shard_requests: Vec<u64>,
    /// Which shard(s) each source index was observed on (fleet mode).
    pub source_shards: Vec<BTreeSet<usize>>,
}

impl ClientStats {
    pub fn merge(&mut self, mut other: ClientStats) {
        self.latencies.append(&mut other.latencies);
        self.ok += other.ok;
        self.rate_limited += other.rate_limited;
        self.unavailable += other.unavailable;
        self.deadline += other.deadline;
        self.bad_gateway += other.bad_gateway;
        self.other_errors += other.other_errors;
        if self.shard_requests.len() < other.shard_requests.len() {
            self.shard_requests.resize(other.shard_requests.len(), 0);
        }
        for (i, n) in other.shard_requests.iter().enumerate() {
            self.shard_requests[i] += n;
        }
        if self.source_shards.len() < other.source_shards.len() {
            self.source_shards
                .resize(other.source_shards.len(), BTreeSet::new());
        }
        for (i, shards) in other.source_shards.iter_mut().enumerate() {
            self.source_shards[i].append(shards);
        }
    }

    /// Every request that did not succeed, whatever its class.
    pub fn errors(&self) -> u64 {
        self.rate_limited + self.unavailable + self.deadline + self.bad_gateway + self.other_errors
    }

    fn record_shard(&mut self, shard: usize, source: usize) {
        if self.shard_requests.len() <= shard {
            self.shard_requests.resize(shard + 1, 0);
        }
        self.shard_requests[shard] += 1;
        if self.source_shards.len() <= source {
            self.source_shards.resize(source + 1, BTreeSet::new());
        }
        self.source_shards[source].insert(shard);
    }
}

/// How one client behaves: connection style, identity header, pacing, and
/// the seed for its (deterministic) body choice and backoff jitter.
pub struct ClientOpts {
    /// Open a fresh connection per request instead of reusing keep-alive.
    pub close_per_request: bool,
    /// Sent as `X-HTC-Client`, the server's per-peer fairness identity.
    pub identity: Option<String>,
    /// Minimum gap between request starts; `None` runs closed-loop flat out.
    pub pace: Option<Duration>,
    pub seed: u64,
}

impl ClientOpts {
    /// An anonymous, unpaced client.
    pub fn plain(close_per_request: bool, seed: u64) -> Self {
        Self {
            close_per_request,
            identity: None,
            pace: None,
            seed,
        }
    }
}

/// Per-client loop: requests until the deadline, honouring server retry
/// hints with seeded, jittered backoff.  With several bodies each request
/// picks one deterministically at random, and the responding shard (from
/// `X-HTC-Shard`) is recorded per body index.
pub fn run_client(
    addr: SocketAddr,
    bodies: Arc<Vec<String>>,
    deadline: Instant,
    opts: ClientOpts,
) -> ClientStats {
    let mut stats = ClientStats::default();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut backoff_ms = BACKOFF_BASE_MS;
    let mut conn: Option<Client> = None;
    let mut next_slot = Instant::now();
    let headers: Vec<(&str, &str)> = opts
        .identity
        .iter()
        .map(|id| ("X-HTC-Client", id.as_str()))
        .collect();

    // Jittered sleep, capped so the client never overshoots its deadline.
    let pause = |ms: u64, rng: &mut StdRng| {
        let jittered = (ms.max(1) as f64 * rng.gen_range(0.5..1.0)).max(1.0);
        let until_deadline = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(Duration::from_millis(jittered as u64).min(until_deadline));
    };

    while Instant::now() < deadline {
        if let Some(pace) = opts.pace {
            let now = Instant::now();
            if now < next_slot {
                std::thread::sleep(next_slot - now);
            }
            next_slot = next_slot.max(now) + pace;
        }
        if conn.is_none() {
            match Client::connect(addr) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    stats.other_errors += 1;
                    pause(backoff_ms, &mut rng);
                    backoff_ms = (backoff_ms * 2).min(BACKOFF_MAX_MS);
                    continue;
                }
            }
        }
        let client = conn.as_mut().expect("just connected");
        let source = if bodies.len() == 1 {
            0
        } else {
            rng.gen_range(0..bodies.len())
        };
        let start = Instant::now();
        let response = client
            .send_with_headers(
                "POST",
                "/align",
                &bodies[source],
                opts.close_per_request,
                &headers,
            )
            .map_err(|e| format!("send: {e}"))
            .and_then(|()| client.read());
        match response {
            Ok(response) if (200..300).contains(&response.status) => {
                stats.ok += 1;
                stats.latencies.push(start.elapsed().as_micros() as u64);
                if let Some(shard) = response.header("x-htc-shard").and_then(|s| s.parse().ok()) {
                    stats.record_shard(shard, source);
                }
                backoff_ms = BACKOFF_BASE_MS;
            }
            Ok(response) if matches!(response.status, 429 | 502 | 503 | 504) => {
                match response.status {
                    429 => stats.rate_limited += 1,
                    // The router answers 502 with Retry-After while a shard
                    // is down and not yet failed over / restarted.
                    502 => stats.bad_gateway += 1,
                    503 => stats.unavailable += 1,
                    _ => stats.deadline += 1,
                }
                // Shed connections are closed server-side; the other
                // retryable statuses keep the socket alive.
                if response.status == 503 {
                    conn = None;
                }
                let hint = response.retry_after_ms().unwrap_or(backoff_ms);
                pause(hint, &mut rng);
                backoff_ms = (backoff_ms * 2).min(BACKOFF_MAX_MS);
            }
            Ok(_) | Err(_) => {
                stats.other_errors += 1;
                conn = None;
                pause(backoff_ms, &mut rng);
                backoff_ms = (backoff_ms * 2).min(BACKOFF_MAX_MS);
            }
        }
        if opts.close_per_request {
            conn = None;
        }
    }
    stats
}

/// Runs one [`run_client`] thread per `opts` entry until `deadline`, joins
/// them and returns their merged stats.
pub fn run_clients(
    addr: SocketAddr,
    bodies: &Arc<Vec<String>>,
    deadline: Instant,
    opts: impl IntoIterator<Item = ClientOpts>,
) -> ClientStats {
    let threads: Vec<_> = opts
        .into_iter()
        .map(|opts| {
            let bodies = Arc::clone(bodies);
            std::thread::spawn(move || run_client(addr, bodies, deadline, opts))
        })
        .collect();
    let mut stats = ClientStats::default();
    for thread in threads {
        stats.merge(thread.join().expect("client thread"));
    }
    stats
}

/// The `p`-quantile (nearest rank) of ascending latencies in µs, in ms; 0
/// for an empty sample.
pub fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64 / 1000.0
}

/// Warms the artifact cache with one `/align` per body, so measurements see
/// steady-state serving, not one training run amortised arbitrarily across
/// clients.
pub fn warmup(addr: SocketAddr, bodies: &[String]) {
    let mut client = Client::connect(addr).expect("warmup connect");
    for body in bodies {
        let response = client
            .request("POST", "/align", body)
            .expect("warmup align");
        assert_eq!(
            response.status,
            200,
            "warmup failed: {}",
            response.body_str()
        );
    }
}

/// One `/stats` scrape, parsed.  Retries a probe that is shed (non-200) or
/// fails: right after a big idle population hangs up, the dispatch queue can
/// briefly fill with hangup wakeups and turn the first probe away.  `None`
/// when every attempt failed.
pub fn scrape_stats(addr: SocketAddr) -> Option<Json> {
    for _ in 0..5 {
        let reply = Client::connect(addr)
            .ok()
            .and_then(|mut client| client.request("GET", "/stats", "").ok());
        if let Some(reply) = reply.filter(|r| r.status == 200) {
            return json::parse(reply.body_str()).ok();
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    None
}

/// An in-process fleet: shard servers sharing one spill directory behind a
/// consistent-hash router (same wiring as the `htc-fleet` binary, minus the
/// child processes — this measures routing, not supervision).
pub struct InProcessFleet {
    router: Router,
    shards: Vec<Server>,
    cache_dir: std::path::PathBuf,
}

impl InProcessFleet {
    /// Starts `shards` shard servers of `workers` workers each (0 = auto)
    /// and the router in front of them.
    pub fn start(shards: usize, workers: usize) -> InProcessFleet {
        let cache_dir =
            std::env::temp_dir().join(format!("htc-load-fleet-{}-{shards}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        std::fs::create_dir_all(&cache_dir).expect("create fleet spill dir");
        let servers: Vec<Server> = (0..shards)
            .map(|i| {
                Server::start(ServerConfig {
                    addr: "127.0.0.1:0".into(),
                    cache_dir: Some(cache_dir.clone()),
                    shard_id: Some(i),
                    workers,
                    ..ServerConfig::default()
                })
                .expect("start shard server")
            })
            .collect();
        let set = Arc::new(ShardSet::new(shards));
        for (i, server) in servers.iter().enumerate() {
            set.incarnate(i, server.addr(), None);
        }
        let router = Router::start(RouterConfig::default(), set).expect("start router");
        InProcessFleet {
            router,
            shards: servers,
            cache_dir,
        }
    }

    /// The router's address — where clients send their requests.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// Stops the router and every shard, and removes the spill directory.
    pub fn teardown(self) {
        self.router.shutdown();
        for shard in self.shards {
            shard.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// What an idle keep-alive population saw.
#[derive(Default)]
pub struct IdleStats {
    pub requested: usize,
    pub connected: usize,
    pub connect_errors: usize,
    pub pings: u64,
    pub ping_errors: u64,
    pub shed: u64,
}

impl IdleStats {
    fn merge(&mut self, other: IdleStats) {
        self.requested += other.requested;
        self.connected += other.connected;
        self.connect_errors += other.connect_errors;
        self.pings += other.pings;
        self.ping_errors += other.ping_errors;
        self.shed += other.shed;
    }
}

/// One pinger thread: owns up to [`IDLE_SOCKETS_PER_THREAD`] keep-alive
/// connections, ramps them up in chunks, then pings each on its own
/// jittered think-time schedule until told to stop.  Between pings the
/// sockets sit parked in the server's reactor — the point of the population
/// is that it costs no workers.
fn run_idle_thread(
    addr: SocketAddr,
    count: usize,
    seed: u64,
    stop: Arc<AtomicBool>,
    settled: Arc<AtomicUsize>,
) -> IdleStats {
    let mut stats = IdleStats {
        requested: count,
        ..IdleStats::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let think = |rng: &mut StdRng| {
        Duration::from_millis(rng.gen_range(IDLE_THINK_MIN_MS..IDLE_THINK_MAX_MS))
    };
    let mut sockets: Vec<(Client, Instant)> = Vec::with_capacity(count);
    let mut opened = 0;
    while opened < count {
        let chunk = (count - opened).min(IDLE_RAMP_CHUNK);
        for _ in 0..chunk {
            match Client::connect(addr) {
                Ok(client) => {
                    stats.connected += 1;
                    let due = Instant::now() + think(&mut rng);
                    sockets.push((client, due));
                }
                Err(_) => stats.connect_errors += 1,
            }
            settled.fetch_add(1, Ordering::Relaxed);
        }
        opened += chunk;
        std::thread::sleep(Duration::from_millis(IDLE_RAMP_TICK_MS));
    }
    while !stop.load(Ordering::Relaxed) {
        let now = Instant::now();
        let mut next_due = now + Duration::from_millis(250);
        let mut i = 0;
        while i < sockets.len() {
            if sockets[i].1 > now {
                next_due = next_due.min(sockets[i].1);
                i += 1;
                continue;
            }
            let client = &mut sockets[i].0;
            let status = client
                .send_with("GET", "/healthz", "", false)
                .map_err(|e| format!("send: {e}"))
                .and_then(|()| client.read())
                .map(|response| response.status);
            match status {
                Ok(200) => {
                    stats.pings += 1;
                    // Reschedule from the fresh clock, not the sweep start:
                    // a long sweep must not compress the next think time.
                    sockets[i].1 = Instant::now() + think(&mut rng);
                    i += 1;
                }
                Ok(503) => {
                    // Shed under load: the server closed the socket.
                    stats.shed += 1;
                    sockets.swap_remove(i);
                }
                Ok(_) | Err(_) => {
                    stats.ping_errors += 1;
                    sockets.swap_remove(i);
                }
            }
        }
        let now = Instant::now();
        if next_due > now {
            // Bounded naps keep the stop latency low without busy-waiting.
            std::thread::sleep((next_due - now).min(Duration::from_millis(250)));
        }
    }
    stats
}

/// A parked idle keep-alive population: pinger threads that each own a
/// share of the connections and ping `/healthz` on a jittered 8–20 s think
/// time, plus the signals to wait for ramp-up and to wind it down.  A
/// socket's first ping is due 8–20 s after it connects.
pub struct IdlePopulation {
    threads: Vec<std::thread::JoinHandle<IdleStats>>,
    stop: Arc<AtomicBool>,
    settled: Arc<AtomicUsize>,
    requested: usize,
}

impl IdlePopulation {
    /// Starts connecting `total` idle clients to `addr`.
    pub fn start(addr: SocketAddr, total: usize) -> IdlePopulation {
        let stop = Arc::new(AtomicBool::new(false));
        let settled = Arc::new(AtomicUsize::new(0));
        let mut threads = Vec::new();
        let mut remaining = total;
        let mut seed = 0x1d7e_0000u64;
        while remaining > 0 {
            let share = remaining.min(IDLE_SOCKETS_PER_THREAD);
            remaining -= share;
            let stop = Arc::clone(&stop);
            let settled = Arc::clone(&settled);
            seed += 1;
            threads.push(std::thread::spawn(move || {
                run_idle_thread(addr, share, seed, stop, settled)
            }));
        }
        IdlePopulation {
            threads,
            stop,
            settled,
            requested: total,
        }
    }

    /// Blocks until every connect attempt has resolved (or the timeout
    /// passes), so a live measurement starts against a fully parked
    /// population rather than mid-ramp.
    pub fn await_ready(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        while self.settled.load(Ordering::Relaxed) < self.requested && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops the pingers, closes every connection and returns what the
    /// population saw.
    pub fn stop_and_join(self) -> IdleStats {
        self.stop.store(true, Ordering::Relaxed);
        let mut stats = IdleStats::default();
        for thread in self.threads {
            stats.merge(thread.join().expect("idle pinger thread"));
        }
        stats
    }
}
