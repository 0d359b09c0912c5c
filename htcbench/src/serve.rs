//! The `serve-zipf` workload: two in-process `htc-serve` shards behind the
//! `htc-fleet` router, sharing one `--cache-dir` spill.
//!
//! Requests draw from a seeded Zipf(1.0) catalog of tiny sources (fast
//! preset) that is larger than the shards' total LRU capacity, so every
//! request either hits the LRU or reloads its source from the spill; no
//! request trains.  Two phases, each from this one process with at most
//! `CLIENTS` client threads and connections:
//!
//! * a closed loop of keep-alive clients (throughput, `serve_rps`);
//! * an open loop at a fixed arrival rate, well under capacity, whose
//!   latency is timed from each request's due time (`latency_p50_ms`,
//!   `latency_p99_ms`).
//!
//! Every 200 body is compared byte for byte (minus its timing and cache
//! fields) with the first body served for the same request, so LRU hits
//! and spill reloads must reproduce the cold answer exactly; the cold
//! answers must in turn equal the library's own `align_shared` result.

use crate::pipeline::{check_and_digest, digest_tag, Floors, Quality};
use crate::report::{json_num, json_str, Report};
use crate::stats::{
    due_time, median, per_second_median, tail_percentile, windowed_tail, Fnv, OpenLoopSample, Zipf,
};
use crate::Options;
use htc_core::{AlignmentSession, HtcConfig};
use htc_datasets::{generate_pair, DatasetPair, SyntheticPairConfig};
use htc_fleet::{Router, RouterConfig, ShardSet};
use htc_serve::http::Client;
use htc_serve::json::{self, Json};
use htc_serve::{Server, ServerConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct sources in the catalog.
const CATALOG: usize = 32;
/// Nodes per catalog graph.
const CATALOG_NODES: usize = 24;
/// Zipf exponent of the request mix.
const ZIPF_S: f64 = 1.0;
const SHARDS: usize = 2;
/// Per-shard LRU capacity: 2 × 6 = 12 cached sources for a 32-source
/// catalog, so the spill layer serves the misses.
const CACHE_CAPACITY: usize = 6;
/// Client threads (and connections) per phase.
const CLIENTS: usize = 2;
/// Open-loop arrival rate (requests per second), frozen well under the
/// closed loop's measured capacity so the open loop measures latency, not
/// saturation.
const OPEN_LOOP_RATE: f64 = 100.0;
/// The open loop's p99 is the median of the tails of this many consecutive
/// slices of it (~330 requests each, so each slice's tail under the
/// ten-beyond rule is about its 97th percentile).  On a shared two-core
/// host one stall moves the tail of the whole loop by tens of percent; it
/// moves one slice here, not the median.
const TAIL_WINDOWS: usize = 5;
/// Times the fleet is started and warmed for `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Sequential requests sent both via the router and direct to the owner
/// shard for `fleet.hop_ms_p50`.
const HOP_SAMPLES: usize = 60;
/// Quality floors over the catalog's cold answers.
const SERVE_FLOORS: Floors = Floors {
    p_at_1: 0.6,
    p_at_10: 0.85,
    mrr: 0.7,
};
/// Overall budget for one response.
const RESPONSE_DEADLINE: Duration = Duration::from_secs(20);

struct Entry {
    body: String,
    pair: DatasetPair,
}

/// The seeded catalog; entry `i`'s graph seed is `seed · 1000 + i`.
fn build_catalog(seed: u64) -> Vec<Entry> {
    (0..CATALOG)
        .map(|i| {
            let config = SyntheticPairConfig::tiny(CATALOG_NODES).with_seed(seed * 1000 + i as u64);
            let pair = generate_pair(&config);
            let body = format!(
                "{{\"preset\":\"fast\",\"source\":{},\"target\":{}}}",
                json::network_spec(&pair.source),
                json::network_spec(&pair.target)
            );
            Entry { body, pair }
        })
        .collect()
}

/// The deterministic part of an align response: anchors with scores,
/// orbit importance, trusted counts and final loss — everything except the
/// cache/batching flags and stage timings.
fn fragment(body: &str) -> Option<&str> {
    let start = body.find("\"anchors\":")?;
    let end = body.find(",\"stages\":")?;
    (start < end).then(|| &body[start..end])
}

struct Fleet {
    servers: Vec<Server>,
    router: Router,
    spill: PathBuf,
}

impl Fleet {
    fn start(spill: PathBuf) -> Fleet {
        let _ = std::fs::remove_dir_all(&spill);
        std::fs::create_dir_all(&spill).expect("create the spill directory");
        let servers: Vec<Server> = (0..SHARDS)
            .map(|i| {
                Server::start(ServerConfig {
                    cache_capacity: CACHE_CAPACITY,
                    cache_dir: Some(spill.clone()),
                    shard_id: Some(i),
                    ..ServerConfig::default()
                })
                .expect("start a shard")
            })
            .collect();
        let set = Arc::new(ShardSet::new(SHARDS));
        for (i, server) in servers.iter().enumerate() {
            set.incarnate(i, server.addr(), None);
        }
        let router = Router::start(RouterConfig::default(), set).expect("start the router");
        Fleet {
            servers,
            router,
            spill,
        }
    }

    fn stop(self) {
        self.router.shutdown();
        for server in self.servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.spill);
        // Only succeeds once empty, so concurrent runs keep their spills.
        let _ = std::fs::remove_dir(RUN_DIR);
    }
}

fn connect(addr: SocketAddr) -> Option<Client> {
    let mut client = Client::connect(addr).ok()?;
    client.set_response_deadline(RESPONSE_DEADLINE);
    Some(client)
}

/// Sends every catalog body once through the router (cold: trains and
/// spills each source) and returns the deterministic fragments.
fn warm_up(fleet: &Fleet, catalog: &[Entry]) -> Result<Vec<String>, String> {
    let mut client = connect(fleet.router.addr()).ok_or("warm-up connect failed")?;
    catalog
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let response = client.request("POST", "/align", &entry.body)?;
            let body = response.body_str();
            match (response.status, fragment(body)) {
                (200, Some(f)) => Ok(f.to_string()),
                (status, _) => Err(format!("warm-up of source {i}: status {status}: {body}")),
            }
        })
        .collect()
}

/// What one client thread saw.
#[derive(Default)]
struct ClientStats {
    ok: u64,
    failed: u64,
    mismatched: u64,
    latency_ms: Vec<f64>,
    /// Closed loop: seconds from the loop's start at which each 2xx landed.
    completed_s: Vec<f64>,
    open: Vec<OpenLoopSample>,
}

impl ClientStats {
    fn merge(mut self, other: ClientStats) -> ClientStats {
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.latency_ms.extend(other.latency_ms);
        self.completed_s.extend(other.completed_s);
        self.open.extend(other.open);
        self
    }

    /// Sends one request on a (re)connected keep-alive client and checks
    /// the answer against the warm fragment; returns whether it was a 200.
    fn exchange(
        &mut self,
        conn: &mut Option<Client>,
        addr: SocketAddr,
        entry: usize,
        shared: &Shared,
    ) -> bool {
        if conn.is_none() {
            *conn = connect(addr);
        }
        let response = match conn.as_mut() {
            Some(client) => client.request("POST", "/align", &shared.bodies[entry]),
            None => Err("connect failed".into()),
        };
        match response {
            Ok(r) if r.status == 200 => {
                self.ok += 1;
                if fragment(r.body_str()) != Some(shared.warm[entry].as_str()) {
                    self.mismatched += 1;
                }
                true
            }
            Ok(r) => {
                self.failed += 1;
                eprintln!("serve-zipf: status {}: {}", r.status, r.body_str());
                false
            }
            Err(e) => {
                self.failed += 1;
                eprintln!("serve-zipf: transport error: {e}");
                *conn = None;
                false
            }
        }
    }
}

/// Read-only state the client threads share.
struct Shared {
    bodies: Vec<String>,
    warm: Vec<String>,
}

/// Closed loop: `CLIENTS` keep-alive clients, each drawing its own Zipf
/// stream, send back to back for `duration`.  Returns what they saw and the
/// throughput: the median of per-second 2xx counts, so one stalled second
/// does not move it.
fn closed_loop(
    addr: SocketAddr,
    shared: &Arc<Shared>,
    seed: u64,
    duration: Duration,
) -> (ClientStats, f64) {
    let start = Instant::now();
    let deadline = start + duration;
    let threads: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                let mut zipf = Zipf::new(CATALOG, ZIPF_S, seed ^ (0x5eed + c as u64));
                let mut stats = ClientStats::default();
                let mut conn = None;
                while Instant::now() < deadline {
                    let entry = zipf.sample();
                    let t = Instant::now();
                    if stats.exchange(&mut conn, addr, entry, &shared) {
                        stats.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        stats.completed_s.push(start.elapsed().as_secs_f64());
                    }
                }
                stats
            })
        })
        .collect();
    let stats = join_all(threads);
    let rps = per_second_median(&stats.completed_s, duration.as_secs_f64());
    (stats, rps)
}

/// Open loop: request `i` is due at `start + i / rate`; `CLIENTS` threads
/// take the next due request, wait for its due time if early, and time the
/// answer from the due time.
fn open_loop(addr: SocketAddr, shared: &Arc<Shared>, seed: u64, duration: Duration) -> ClientStats {
    let total = (OPEN_LOOP_RATE * duration.as_secs_f64()) as usize;
    let mut zipf = Zipf::new(CATALOG, ZIPF_S, seed ^ 0x09e1);
    let sequence: Arc<Vec<usize>> = Arc::new((0..total).map(|_| zipf.sample()).collect());
    let next = Arc::new(AtomicUsize::new(0));
    let start = Instant::now();
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (shared, sequence, next) =
                (Arc::clone(shared), Arc::clone(&sequence), Arc::clone(&next));
            std::thread::spawn(move || {
                let mut stats = ClientStats::default();
                let mut conn = None;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sequence.len() {
                        break;
                    }
                    let due = due_time(start, i, OPEN_LOOP_RATE);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    if stats.exchange(&mut conn, addr, sequence[i], &shared) {
                        stats.open.push(OpenLoopSample {
                            due,
                            sent,
                            done: Instant::now(),
                        });
                    }
                }
                stats
            })
        })
        .collect();
    join_all(threads)
}

fn join_all(threads: Vec<std::thread::JoinHandle<ClientStats>>) -> ClientStats {
    threads
        .into_iter()
        .map(|t| t.join().expect("client thread"))
        .fold(ClientStats::default(), ClientStats::merge)
}

/// `/stats` of the router and of every shard at one instant.
struct Snapshot {
    router: Json,
    shards: Vec<Json>,
}

fn scrape_one(addr: SocketAddr) -> Json {
    let mut client = connect(addr).expect("stats connect");
    let response = client.request("GET", "/stats", "").expect("stats scrape");
    json::parse(response.body_str()).expect("stats parse")
}

fn scrape(fleet: &Fleet) -> Snapshot {
    Snapshot {
        router: scrape_one(fleet.router.addr()),
        shards: fleet.servers.iter().map(|s| scrape_one(s.addr())).collect(),
    }
}

fn field(j: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(j, |j, key| j.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Seconds recorded under `stage` in a shard's per-request stage timers.
fn stage_seconds(j: &Json, stage: &str) -> f64 {
    j.get("request_stages")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .filter(|s| s.get("stage").and_then(Json::as_str) == Some(stage))
        .filter_map(|s| s.get("seconds").and_then(Json::as_f64))
        .sum()
}

impl Snapshot {
    /// Shard-summed growth of `path` since `earlier`.
    fn delta(&self, earlier: &Snapshot, path: &[&str]) -> f64 {
        self.shards.iter().map(|j| field(j, path)).sum::<f64>()
            - earlier.shards.iter().map(|j| field(j, path)).sum::<f64>()
    }

    fn stage_delta(&self, earlier: &Snapshot, stage: &str) -> f64 {
        self.shards
            .iter()
            .map(|j| stage_seconds(j, stage))
            .sum::<f64>()
            - earlier
                .shards
                .iter()
                .map(|j| stage_seconds(j, stage))
                .sum::<f64>()
    }

    fn router_delta(&self, earlier: &Snapshot, key: &str) -> f64 {
        field(&self.router, &["router", key]) - field(&earlier.router, &["router", key])
    }
}

/// All per-request stage timers, summed (server compute of the requests).
fn compute_seconds(later: &Snapshot, earlier: &Snapshot) -> f64 {
    use htc_core::pipeline::stages::*;
    [
        ORBIT_COUNTING,
        LAPLACIAN,
        TRAINING,
        FINE_TUNING,
        INTEGRATION,
    ]
    .iter()
    .map(|s| later.stage_delta(earlier, s))
    .sum()
}

/// Router hop cost: the same body sequence sent through the router and
/// directly to its owner shard, alternating, on two keep-alive clients.
fn hop_ms_p50(fleet: &Fleet, shared: &Shared, seed: u64) -> f64 {
    let mut zipf = Zipf::new(CATALOG, ZIPF_S, seed ^ 0x40b);
    let mut via_router = connect(fleet.router.addr()).expect("router connect");
    let mut direct: Vec<Client> = fleet
        .servers
        .iter()
        .map(|s| connect(s.addr()).expect("shard connect"))
        .collect();
    let (mut routed, mut owned) = (Vec::new(), Vec::new());
    for _ in 0..HOP_SAMPLES {
        let body = &shared.bodies[zipf.sample()];
        let fingerprint =
            htc_serve::routing_fingerprint(body.as_bytes()).expect("catalog bodies route");
        let owner = htc_fleet::owner(fingerprint, SHARDS);
        for (client, times) in [
            (&mut via_router, &mut routed),
            (&mut direct[owner], &mut owned),
        ] {
            let t = Instant::now();
            let ok = client
                .request("POST", "/align", body)
                .is_ok_and(|r| r.status == 200);
            if ok {
                times.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
    }
    median(&routed) - median(&owned)
}

/// Polls the router's `/stats` every 100 ms until `stop` — the tracing
/// load whose cost `bench.trace_overhead_pct` reports.
fn stats_poller(addr: SocketAddr, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut client = connect(addr);
        while !stop.load(Ordering::Relaxed) {
            if let Some(c) = client.as_mut() {
                if c.request("GET", "/stats", "").is_err() {
                    client = connect(addr);
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Spill directories live under `.bench_run/` in the working directory.
const RUN_DIR: &str = ".bench_run";

fn spill_dir(k: usize) -> PathBuf {
    Path::new(RUN_DIR).join(format!("serve-{}-{k}", std::process::id()))
}

pub fn serve_zipf(opts: &Options, report: &mut Report) {
    // Setup: catalog generation, fleet start and cold warm-up, repeated.
    let mut times = Vec::new();
    let mut warm_sets: Vec<Vec<String>> = Vec::new();
    let mut running: Option<(Fleet, Vec<Entry>)> = None;
    for k in 0..SETUP_REPEATS {
        if let Some((fleet, _)) = running.take() {
            fleet.stop();
        }
        let start = Instant::now();
        let catalog = build_catalog(opts.seed);
        let fleet = Fleet::start(spill_dir(k));
        let warm = warm_up(&fleet, &catalog);
        times.push(start.elapsed().as_secs_f64());
        match warm {
            Ok(warm) => warm_sets.push(warm),
            Err(e) => {
                report.check(false, || e);
                fleet.stop();
                return;
            }
        }
        running = Some((fleet, catalog));
    }
    report.set("setup_s", median(&times));
    report.check(warm_sets.iter().all(|w| *w == warm_sets[0]), || {
        "cold answers differ between fleet restarts".into()
    });
    let (fleet, catalog) = running.expect("at least one setup");
    let shared = Arc::new(Shared {
        bodies: catalog.iter().map(|e| e.body.clone()).collect(),
        warm: warm_sets.swap_remove(0),
    });
    let router = fleet.router.addr();
    let window = opts.seconds;

    // Closed loop; the traced run measures it twice, the second time while
    // polling /stats.
    let before = scrape(&fleet);
    let (closed, rps, overhead_pct) = if opts.trace {
        let half = Duration::from_secs_f64(window * 0.2);
        let (plain, rps) = closed_loop(router, &shared, opts.seed, half);
        let stop = Arc::new(AtomicBool::new(false));
        let poller = stats_poller(router, Arc::clone(&stop));
        let (polled, _) = closed_loop(router, &shared, opts.seed ^ 1, half);
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("stats poller");
        let untraced = mean(&plain.latency_ms);
        let overhead = 100.0 * (mean(&polled.latency_ms) - untraced) / untraced;
        (plain.merge(polled), rps, overhead)
    } else {
        let (stats, rps) = closed_loop(
            router,
            &shared,
            opts.seed,
            Duration::from_secs_f64(window * 0.4),
        );
        (stats, rps, 0.0)
    };
    let after_closed = scrape(&fleet);
    let open_window = if opts.trace { 0.45 } else { 0.55 };
    let open = open_loop(
        router,
        &shared,
        opts.seed,
        Duration::from_secs_f64(window * open_window),
    );
    let after = scrape(&fleet);
    let hop = opts.trace.then(|| hop_ms_p50(&fleet, &shared, opts.seed));
    fleet.stop();

    // Output checks.
    let all = ClientStats::default().merge(closed).merge(open);
    report.attempted = all.ok + all.failed;
    report.failed = all.failed;
    report.check(all.failed == 0, || {
        format!("{} requests were not answered 200", all.failed)
    });
    report.check(all.mismatched == 0, || {
        format!(
            "{} responses differ from the first answer to the same request",
            all.mismatched
        )
    });
    let reloads = after.delta(&before, &["cache", "reloads"]);
    let hits = after.delta(&before, &["cache", "hits"]);
    let misses = after.delta(&before, &["cache", "misses"]);
    report.check(reloads > 0.0 && hits > 0.0, || {
        format!("expected both LRU hits and spill reloads, saw {hits} and {reloads}")
    });
    report.check(
        after.delta(&before, &["cache", "reload_errors"]) == 0.0,
        || "a spilled artifact failed to reload".into(),
    );
    report.check(
        after.stage_delta(&before, htc_core::pipeline::stages::TRAINING) == 0.0,
        || "a request trained on the request path".into(),
    );

    // The cold answers must be the library's own answers, bit for bit.
    let mut digest = Fnv::default();
    let mut quality = Vec::new();
    for (entry, warm) in catalog.iter().zip(&shared.warm) {
        digest.bytes(warm.as_bytes());
        let result = AlignmentSession::new(HtcConfig::fast(), &entry.pair.source)
            .and_then(|mut s| s.align_shared(&entry.pair.target))
            .expect("catalog pairs satisfy the input contract");
        let n = entry.pair.source.num_nodes();
        check_and_digest(
            &result,
            n,
            entry.pair.target.num_nodes(),
            &mut Fnv::default(),
            report,
        );
        report.check(served_matches(warm, &result), || {
            "a served alignment differs from AlignmentSession::align_shared".into()
        });
        quality.push(Quality::of_dense(&result, &entry.pair.ground_truth));
    }
    let quality = Quality::mean(&quality);
    quality.check_floors(&SERVE_FLOORS, report);

    let mut open = all.open.clone();
    open.sort_by_key(|s| s.due);
    let latency: Vec<f64> = open
        .iter()
        .map(|s| s.latency().as_secs_f64() * 1e3)
        .collect();
    let lateness: Vec<f64> = open
        .iter()
        .map(|s| s.lateness().as_secs_f64() * 1e3)
        .collect();
    report.set("align_s", median(&all.latency_ms) / 1e3);
    report.set("p_at_1", quality.p_at_1);
    report.set("p_at_10", quality.p_at_10);
    report.set("mrr", quality.mrr);
    report.set("serve_rps", rps);
    report.set("latency_p50_ms", median(&latency));
    report.set(
        "latency_p99_ms",
        windowed_tail(&latency, TAIL_WINDOWS, 0.99),
    );
    report.detail(
        "latency_p99_ms_whole",
        json_num(tail_percentile(&latency, 0.99)),
    );
    report.detail("digest", json_str(&digest_tag(digest.finish())));
    report.detail("open_loop_rate", json_num(OPEN_LOOP_RATE));
    report.detail("open_loop_requests", latency.len().to_string());
    report.detail(
        "generator_lateness_ms_p99",
        json_num(tail_percentile(&lateness, 0.99)),
    );
    report.detail("cache_hits", json_num(hits));
    report.detail("cache_misses", json_num(misses));

    // Per-layer view from the /stats deltas.
    use htc_core::pipeline::stages;
    let served = after_closed
        .delta(&before, &["requests", "align_ok"])
        .max(1.0);
    let compute_ms = compute_seconds(&after_closed, &before) * 1e3 / served;
    report.set(
        "orbits.count_s",
        after.stage_delta(&before, stages::ORBIT_COUNTING),
    );
    report.set(
        "laplacian.build_s",
        after.stage_delta(&before, stages::LAPLACIAN),
    );
    report.set("training.s", after.stage_delta(&before, stages::TRAINING));
    report.set(
        "finetune.s",
        after.stage_delta(&before, stages::FINE_TUNING),
    );
    report.set(
        "integrate.s",
        after.stage_delta(&before, stages::INTEGRATION),
    );
    report.set("serve.compute_ms_per_req", compute_ms);
    report.set(
        "serve.overhead_ms_per_req",
        mean(&all.latency_ms) - compute_ms,
    );
    // Coverage: each server stage's share of the mean closed-loop latency;
    // the residual is transport, parsing, batching wait and the router hop.
    let latency_ms = mean(&all.latency_ms);
    let mut shares = Vec::new();
    let mut covered = 0.0;
    for (name, stage) in [
        ("orbits", stages::ORBIT_COUNTING),
        ("laplacian", stages::LAPLACIAN),
        ("finetune", stages::FINE_TUNING),
        ("integrate", stages::INTEGRATION),
    ] {
        let share = after_closed.stage_delta(&before, stage) * 1e3 / served / latency_ms;
        covered += share;
        shares.push(format!("\"{name}\": {}", json_num(share)));
    }
    shares.push(format!("\"residual\": {}", json_num(1.0 - covered)));
    report.detail("coverage", format!("{{{}}}", shares.join(", ")));
    report.set(
        "serve.mean_batch",
        after.delta(&before, &["batching", "batched_requests"])
            / after.delta(&before, &["batching", "batches"]).max(1.0),
    );
    report.set(
        "serve.queue_high_water",
        after
            .shards
            .iter()
            .map(|j| field(j, &["runtime", "queue_high_water"]))
            .fold(0.0, f64::max),
    );
    let router_requests = after.router_delta(&before, "total_requests").max(1.0);
    report.set(
        "serve.reuse_ratio",
        1.0 - after.router_delta(&before, "total_connections") / router_requests,
    );
    report.set("serve.cache_hit_rate", hits / (hits + misses).max(1.0));
    report.set("serve.spill_reloads", reloads);
    report.set("serve.requests_failed", all.failed as f64);
    report.set("fleet.hop_ms_p50", hop.unwrap_or(0.0));
    report.set("fleet.failovers", after.router_delta(&before, "failovers"));
    let per_shard: Vec<f64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| field(a, &["requests", "total"]) - field(b, &["requests", "total"]))
        .collect();
    report.set(
        "fleet.shard_share_max",
        per_shard.iter().copied().fold(0.0, f64::max) / per_shard.iter().sum::<f64>().max(1.0),
    );
    report.set("bench.trace_overhead_pct", overhead_pct);
}

/// Whether a served fragment's anchors and score bits equal `result`'s.
fn served_matches(fragment: &str, result: &htc_core::HtcResult) -> bool {
    let Ok(parsed) = json::parse(&format!("{{{fragment}}}")) else {
        return false;
    };
    let Some(rows) = parsed.get("anchors").and_then(Json::as_arr) else {
        return false;
    };
    let anchors = result.predicted_anchors();
    rows.len() == anchors.len()
        && rows
            .iter()
            .zip(anchors.iter().enumerate())
            .all(|(row, (s, &t))| {
                let cells = row.as_arr().unwrap_or(&[]);
                let get = |i: usize| cells.get(i).and_then(Json::as_f64);
                get(0) == Some(s as f64)
                    && get(1) == Some(t as f64)
                    && get(2).map(f64::to_bits) == Some(result.score(s, t).to_bits())
            })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_drops_timing_and_cache_fields() {
        let a = "{\"mode\":\"shared\",\"cache_hit\":false,\"batched_with\":1,\"anchors\":[[0,1,0.5]],\"loss_final\":2,\"stages\":[1]}";
        let b = "{\"mode\":\"shared\",\"cache_hit\":true,\"batched_with\":2,\"anchors\":[[0,1,0.5]],\"loss_final\":2,\"stages\":[9]}";
        assert_eq!(
            fragment(a),
            Some("\"anchors\":[[0,1,0.5]],\"loss_final\":2")
        );
        assert_eq!(fragment(a), fragment(b));
        assert_eq!(fragment("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn catalog_is_seeded() {
        let a = build_catalog(3);
        assert_eq!(a.len(), CATALOG);
        assert_eq!(a[5].body, build_catalog(3)[5].body);
        assert_ne!(a[5].body, build_catalog(4)[5].body);
    }
}
