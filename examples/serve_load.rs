//! Load generator for `htc-serve`: N concurrent clients hammer `/align`
//! with a shared source graph for a fixed duration, then print throughput
//! and latency percentiles plus the server's runtime counters.
//!
//! ```text
//! cargo run --release --example serve_load -- [--clients N] [--duration-secs S]
//!     [--nodes N] [--workers N] [--addr HOST:PORT] [--close] [--hot-client]
//!     [--fleet N] [--sources K] [--idle-clients N] [--slow-writer]
//! ```
//!
//! Without `--addr` an in-process server is started (worker pool sized by
//! `--workers`, default auto).  `--close` opens a fresh connection per
//! request instead of reusing keep-alive sockets — the old one-shot
//! behaviour — which is how the before/after numbers in PERFORMANCE.md were
//! measured.  The `reuse_ratio` / `worker_panics` output lines are scraped
//! by the CI concurrency smoke step.
//!
//! The clients, the in-process fleet, the idle population and the `/stats`
//! scraper are `htc_bench::load`, shared with `bench_pipeline`.  Every client
//! honours back-pressure: on 429/503/504 it sleeps for the server's
//! `retry_after_ms` hint (falling back to the `Retry-After` header, then to
//! exponential backoff), multiplied by a seeded jitter factor so runs are
//! deterministic.  Per-status-class counts are printed as a greppable
//! `status_classes:` line.
//!
//! `--hot-client` runs the fairness drill instead: an in-process server with
//! per-peer token buckets, `--clients` paced "victim" clients measured alone
//! (baseline phase) and then alongside one unpaced greedy client (loaded
//! phase).  The `fairness:` line reports the victims' p99 in both phases and
//! how often the hot client was rate-limited — CI asserts the ratio stays
//! bounded while the hot client is actually throttled.
//!
//! `--idle-clients N` parks an idle keep-alive population alongside the
//! live load: N extra connections that ping `/healthz` on a jittered 8–20 s
//! think time and otherwise sit parked in the reactor.  The run reports the
//! population's health (`idle_clients:` line — connected, pings, errors,
//! shed) and a mid-run `parked_vs_active:` sample from `/stats`, so the live
//! `latency_ms:` percentiles can be compared against an idle-free baseline.
//! Raise the fd ulimit before asking for thousands.
//!
//! `--slow-writer` runs the slow-client drill instead: an in-process server
//! with a short stall deadline, `--clients` live clients measured as usual,
//! and a procession of hostile writers that drip partial request heads at
//! the `stall_header` fault-site pace.  Every dripper must be torn down on
//! the deadline (greppable `slow_writer:` line), while live latencies stay
//! level.
//!
//! `--fleet N` runs the scale-out drill: N in-process shard servers sharing
//! one spill directory behind a consistent-hash router, hammered with
//! `--sources K` distinct source graphs so the load spreads across shards.
//! Responses carry `X-HTC-Shard`; the drill prints the per-shard request
//! distribution (`shard_distribution:` line) and *asserts* stickiness —
//! every source graph must be served by exactly the shard its fingerprint
//! hashes to.  502s are retryable in this mode (the router's mid-failover
//! signal) and show up in the `status_classes:` line.

use htc::fleet::owner;
use htc::serve::http::Client;
use htc::serve::json;
use htc::serve::{routing_fingerprint, FaultPlan, Server, ServerConfig};
use htc_bench::load::{
    align_body, percentile, run_client, run_clients, scrape_stats, warmup, ClientOpts, ClientStats,
    IdlePopulation, InProcessFleet,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Victim cadence in the `--hot-client` drill: one request per 40 ms
/// (25 req/s), comfortably under the per-peer bucket below.
const VICTIM_PACE_MS: u64 = 40;
/// Per-peer token bucket for the drill: victims never hit it, the unpaced
/// hot client exhausts the burst and is throttled to the refill rate.
const DRILL_PEER_RPS: f64 = 50.0;
const DRILL_PEER_BURST: f64 = 16.0;
/// Keep-alive the in-process server uses when an idle population is
/// requested: the population's think time (8–20 s) plus its worst-case
/// sweep delay must fit inside it.
const IDLE_KEEP_ALIVE_SECS: u64 = 60;
/// Seed of the first request body; `--sources K` uses this seed and the
/// K − 1 after it.
const FIRST_SOURCE_SEED: u64 = 41;
/// The slow-writer drill's server-side stall deadline.
const SLOW_WRITER_STALL_MS: u64 = 500;

struct LoadArgs {
    clients: usize,
    duration: Duration,
    nodes: usize,
    workers: usize,
    addr: Option<String>,
    close_per_request: bool,
    hot_client: bool,
    fleet: usize,
    sources: usize,
    idle_clients: usize,
    slow_writer: bool,
}

impl Default for LoadArgs {
    fn default() -> Self {
        Self {
            clients: 4,
            duration: Duration::from_secs(5),
            nodes: 12,
            workers: 0,
            addr: None,
            close_per_request: false,
            hot_client: false,
            fleet: 0,
            sources: 1,
            idle_clients: 0,
            slow_writer: false,
        }
    }
}

fn parse_args() -> Result<LoadArgs, String> {
    let mut args = LoadArgs::default();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--clients" => {
                args.clients = value("--clients")?
                    .parse()
                    .map_err(|e| format!("bad --clients: {e}"))?;
            }
            "--duration-secs" => {
                let secs: f64 = value("--duration-secs")?
                    .parse()
                    .map_err(|e| format!("bad --duration-secs: {e}"))?;
                args.duration = Duration::from_secs_f64(secs);
            }
            "--nodes" => {
                args.nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("bad --nodes: {e}"))?;
            }
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--addr" => args.addr = Some(value("--addr")?),
            "--close" => args.close_per_request = true,
            "--hot-client" => args.hot_client = true,
            "--fleet" => {
                args.fleet = value("--fleet")?
                    .parse()
                    .map_err(|e| format!("bad --fleet: {e}"))?;
            }
            "--sources" => {
                args.sources = value("--sources")?
                    .parse()
                    .map_err(|e| format!("bad --sources: {e}"))?;
            }
            "--idle-clients" => {
                args.idle_clients = value("--idle-clients")?
                    .parse()
                    .map_err(|e| format!("bad --idle-clients: {e}"))?;
            }
            "--slow-writer" => args.slow_writer = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.clients == 0 {
        return Err("--clients must be at least 1".into());
    }
    if args.sources == 0 {
        return Err("--sources must be at least 1".into());
    }
    if args.hot_client && args.addr.is_some() {
        return Err("--hot-client runs its own in-process server; drop --addr".into());
    }
    if args.fleet > 0 && (args.addr.is_some() || args.hot_client) {
        return Err("--fleet runs its own in-process fleet; drop --addr/--hot-client".into());
    }
    if args.slow_writer && (args.addr.is_some() || args.hot_client || args.fleet > 0) {
        return Err(
            "--slow-writer runs its own in-process server; drop --addr/--hot-client/--fleet".into(),
        );
    }
    if args.idle_clients > 0 && (args.hot_client || args.fleet > 0 || args.slow_writer) {
        return Err("--idle-clients only combines with the plain load mode".into());
    }
    if args.fleet > 0 && args.sources == 1 {
        // One source pins every request to one shard; spread the keyspace so
        // the scale-out drill actually exercises the hash ring.
        args.sources = 4 * args.fleet;
    }
    Ok(args)
}

fn print_status_classes(stats: &ClientStats) {
    println!(
        "status_classes: 2xx={} 429={} 503={} 504={} 502={} other={}",
        stats.ok,
        stats.rate_limited,
        stats.unavailable,
        stats.deadline,
        stats.bad_gateway,
        stats.other_errors
    );
}

/// Scrape the server's own counters (greppable; CI asserts on these).
fn print_runtime_counters(addr: SocketAddr) {
    let stats = scrape_stats(addr).expect("stats probe kept being shed");
    let num = |v: &json::Json, key: &str| v.get(key).and_then(json::Json::as_f64).unwrap_or(-1.0);
    // A shard reports its connection counters under `runtime`; a fleet
    // router reports its own under `router` (without `parked`).  Print the
    // keys the section has.
    if let Some(runtime) = stats.get("runtime").or_else(|| stats.get("router")) {
        println!("reuse_ratio: {:.2}", num(runtime, "reuse_ratio"));
        for key in [
            "worker_panics",
            "shed_connections",
            "parked",
            "stall_timeouts_closed",
        ] {
            if let Some(value) = runtime.get(key).and_then(json::Json::as_f64) {
                println!("{key}: {}", value as i64);
            }
        }
    } else {
        println!("reuse_ratio: n/a (server reports no runtime section)");
    }
    if let Some(robustness) = stats.get("robustness") {
        println!(
            "server_rate_limited: {}",
            num(robustness, "rate_limited") as i64
        );
        println!(
            "server_deadline_expired: {}",
            num(robustness, "deadline_expired") as i64
        );
    }
}

fn shutdown(server: Server, addr: SocketAddr) {
    let mut client = Client::connect(addr).expect("shutdown connect");
    client
        .send_with("POST", "/shutdown", "", true)
        .expect("shutdown");
    client.read().expect("shutdown");
    server.join();
}

/// Router-side counters (greppable, fleet mode).
fn print_fleet_counters(addr: SocketAddr) {
    let stats = scrape_stats(addr).expect("fleet stats probe kept being shed");
    let num = |v: &json::Json, key: &str| v.get(key).and_then(json::Json::as_f64).unwrap_or(-1.0);
    if let Some(router) = stats.get("router") {
        println!(
            "router_counters: proxied_ok={} failovers={} bad_gateway={} unroutable={}",
            num(router, "proxied_ok") as i64,
            num(router, "failovers") as i64,
            num(router, "bad_gateway") as i64,
            num(router, "unroutable") as i64,
        );
    }
    if let Some(fleet) = stats.get("fleet") {
        println!(
            "fleet_health: shards={} healthy={}",
            num(fleet, "shards") as i64,
            num(fleet, "healthy") as i64,
        );
    }
}

/// Fleet-mode epilogue: per-shard distribution and the stickiness assertion
/// — every source must have been served by exactly the shard its routing
/// fingerprint hashes to.
fn report_fleet(stats: &ClientStats, bodies: &[String], shards: usize) {
    let dist: Vec<String> = stats
        .shard_requests
        .iter()
        .enumerate()
        .map(|(shard, n)| format!("{shard}={n}"))
        .collect();
    println!("shard_distribution: {}", dist.join(" "));
    let mut sampled = 0usize;
    for (source, observed) in stats.source_shards.iter().enumerate() {
        if observed.is_empty() {
            continue; // never sampled inside the measurement window
        }
        sampled += 1;
        let expected = owner(
            routing_fingerprint(bodies[source].as_bytes()).expect("bodies carry a source"),
            shards,
        );
        assert!(
            observed.len() == 1 && observed.contains(&expected),
            "stickiness violated: source {source} expected shard {expected}, saw {observed:?}"
        );
    }
    println!("stickiness: ok ({sampled} sources, each pinned to its rendezvous shard)");
}

/// One drill phase: paced victims (plus optionally the unpaced hot client)
/// run until the deadline.  Returns (merged victim stats, hot stats).
fn drill_phase(
    addr: SocketAddr,
    bodies: &Arc<Vec<String>>,
    duration: Duration,
    victims: usize,
    with_hot: bool,
) -> (ClientStats, ClientStats) {
    let deadline = Instant::now() + duration;
    let hot_thread = with_hot.then(|| {
        let bodies = Arc::clone(bodies);
        let opts = ClientOpts {
            close_per_request: false,
            identity: Some("hot".to_string()),
            pace: None,
            seed: 0x0b5e_55ed,
        };
        std::thread::spawn(move || run_client(addr, bodies, deadline, opts))
    });
    let victim_opts = (0..victims).map(|i| ClientOpts {
        close_per_request: false,
        identity: Some(format!("victim-{i}")),
        pace: Some(Duration::from_millis(VICTIM_PACE_MS)),
        seed: 0x5eed_0000 + i as u64,
    });
    let victim_stats = run_clients(addr, bodies, deadline, victim_opts);
    let hot_stats = hot_thread
        .map(|t| t.join().expect("hot thread"))
        .unwrap_or_default();
    (victim_stats, hot_stats)
}

/// One `/stats` sample of the runtime occupancy gauges (-1 when unread).
fn sample_parked(addr: SocketAddr) -> (i64, i64) {
    let sample = scrape_stats(addr);
    let gauge = |key: &str| {
        sample
            .as_ref()
            .and_then(|s| s.get("runtime"))
            .and_then(|r| r.get(key))
            .and_then(json::Json::as_f64)
            .map_or(-1, |v| v as i64)
    };
    (gauge("parked"), gauge("active_connections"))
}

/// The `--slow-writer` drill: live clients measured as usual while a
/// procession of hostile writers drips partial request heads at the
/// `stall_header` fault-site pace.  Every dripper must be torn down on the
/// server's stall deadline — not after the 30 s standalone budget, and
/// never by wedging a worker.
fn slow_writer_drill(args: &LoadArgs) {
    let server = Server::start(ServerConfig {
        workers: args.workers,
        stall_timeout: Duration::from_millis(SLOW_WRITER_STALL_MS),
        ..ServerConfig::default()
    })
    .expect("start server");
    let addr = server.addr();
    let bodies = Arc::new(vec![align_body(args.nodes, FIRST_SOURCE_SEED)]);
    warmup(addr, &bodies);

    println!(
        "serve_load: slow-writer drill, {} live clients + header drippers, {:.1}s, \
         stall deadline {SLOW_WRITER_STALL_MS}ms",
        args.clients,
        args.duration.as_secs_f64()
    );

    let deadline = Instant::now() + args.duration;
    let opts: Vec<_> = (0..args.clients)
        .map(|i| ClientOpts::plain(false, 0x51de_0000 + i as u64))
        .collect();
    let live = std::thread::spawn(move || run_clients(addr, &bodies, deadline, opts));

    // The drippers run serially on this thread: each connects, feeds header
    // bytes at the fault site's pace (far slower than the deadline allows a
    // head to complete), and measures how long the server lets it live.
    let plan = FaultPlan::parse("seed=11,stall_header=1@100").expect("valid fault plan");
    let mut writers = 0u64;
    let mut torn_down = 0u64;
    let mut max_teardown_ms = 0u64;
    while Instant::now() < deadline {
        let pace = plan
            .stall_header_delay()
            .expect("stall_header=1 always fires");
        let Ok(mut socket) = TcpStream::connect(addr) else {
            break;
        };
        writers += 1;
        let started = Instant::now();
        let mut head_complete = true;
        for byte in b"GET /healthz HTTP/1.1\r\nHost: drip\r\n\r\n" {
            if socket.write_all(&[*byte]).is_err() {
                head_complete = false;
                break;
            }
            std::thread::sleep(pace);
        }
        let _ = socket.set_read_timeout(Some(Duration::from_secs(5)));
        let mut tail = String::new();
        let read = socket.read_to_string(&mut tail);
        let elapsed = started.elapsed();
        let torn =
            !head_complete || read.is_err() || tail.is_empty() || tail.starts_with("HTTP/1.1 408");
        if torn && elapsed < Duration::from_millis(SLOW_WRITER_STALL_MS * 8) {
            torn_down += 1;
            max_teardown_ms = max_teardown_ms.max(elapsed.as_millis() as u64);
        }
    }

    let mut stats = live.join().expect("live clients");
    stats.latencies.sort_unstable();
    println!("requests: {} ok, {} errors", stats.ok, stats.errors());
    println!(
        "latency_ms: p50 {:.2} p95 {:.2} p99 {:.2}",
        percentile(&stats.latencies, 0.50),
        percentile(&stats.latencies, 0.95),
        percentile(&stats.latencies, 0.99),
    );
    println!(
        "slow_writer: writers={writers} torn_down={torn_down} max_teardown_ms={max_teardown_ms}"
    );
    print_status_classes(&stats);
    print_runtime_counters(addr);
    shutdown(server, addr);
}

/// The `--hot-client` fairness drill: baseline victims alone, then victims
/// next to one greedy client against a rate-limiting server.
fn hot_client_drill(args: &LoadArgs) {
    // Every drill client holds a keep-alive connection, and a worker serves
    // one connection at a time — size the pool so nobody starves in the
    // accept queue and the measurement isolates the *rate limiter*.
    let workers = if args.workers == 0 {
        args.clients + 2
    } else {
        args.workers
    };
    let mut config = ServerConfig {
        workers,
        ..ServerConfig::default()
    };
    config.fairness.peer_tokens_per_sec = DRILL_PEER_RPS;
    config.fairness.peer_burst = DRILL_PEER_BURST;
    let server = Server::start(config).expect("start server");
    let addr = server.addr();

    let bodies = Arc::new(vec![align_body(args.nodes, FIRST_SOURCE_SEED)]);
    warmup(addr, &bodies);

    println!(
        "serve_load: hot-client drill, {} victims + 1 hot, {:.1}s per phase, \
         peer bucket {DRILL_PEER_RPS:.0} req/s burst {DRILL_PEER_BURST:.0}",
        args.clients,
        args.duration.as_secs_f64()
    );

    let (baseline, _) = drill_phase(addr, &bodies, args.duration, args.clients, false);
    let (loaded, hot) = drill_phase(addr, &bodies, args.duration, args.clients, true);

    let mut baseline_lat = baseline.latencies.clone();
    baseline_lat.sort_unstable();
    let mut loaded_lat = loaded.latencies.clone();
    loaded_lat.sort_unstable();
    let baseline_p99 = percentile(&baseline_lat, 0.99);
    let victim_p99 = percentile(&loaded_lat, 0.99);
    let ratio = if baseline_p99 > 0.0 {
        victim_p99 / baseline_p99
    } else {
        0.0
    };

    println!(
        "baseline: {} ok, {} errors, p50 {:.2} p99 {:.2}",
        baseline.ok,
        baseline.errors(),
        percentile(&baseline_lat, 0.50),
        baseline_p99
    );
    println!(
        "loaded: victims {} ok, {} errors; hot {} ok, {} rate-limited",
        loaded.ok,
        loaded.errors(),
        hot.ok,
        hot.rate_limited
    );
    println!(
        "fairness: baseline_p99_ms={baseline_p99:.2} victim_p99_ms={victim_p99:.2} \
         ratio={ratio:.2} hot_rate_limited={}",
        hot.rate_limited
    );
    let mut combined = ClientStats::default();
    combined.merge(loaded);
    combined.merge(hot);
    print_status_classes(&combined);
    print_runtime_counters(addr);
    shutdown(server, addr);
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };
    if args.hot_client {
        hot_client_drill(&args);
        return;
    }
    if args.slow_writer {
        slow_writer_drill(&args);
        return;
    }

    // An in-process fleet or server unless an external one was named.
    let fleet = (args.fleet > 0).then(|| InProcessFleet::start(args.fleet, args.workers));
    let server = if args.addr.is_none() && fleet.is_none() {
        let mut config = ServerConfig {
            workers: args.workers,
            ..ServerConfig::default()
        };
        if args.idle_clients > 0 {
            // The idle population's ping gap (think time + sweep delay) must
            // stay inside the keep-alive window, or the server reaps healthy
            // pingers as dead and the drill measures its own cadence bug.
            config.keep_alive = config
                .keep_alive
                .max(Duration::from_secs(IDLE_KEEP_ALIVE_SECS));
        }
        Some(Server::start(config).expect("start server"))
    } else {
        None
    };
    let addr: SocketAddr = match (&args.addr, &fleet, &server) {
        (Some(addr), _, _) => addr.parse().expect("--addr must be HOST:PORT"),
        (None, Some(fleet), _) => fleet.addr(),
        (None, None, Some(server)) => server.addr(),
        (None, None, None) => unreachable!(),
    };

    let bodies: Arc<Vec<String>> = Arc::new(
        (0..args.sources as u64)
            .map(|i| align_body(args.nodes, FIRST_SOURCE_SEED + i))
            .collect(),
    );
    warmup(addr, &bodies);

    // The idle population parks fully before the live clock starts, so the
    // percentiles measure serving *over* N parked connections, not the ramp.
    let idle = (args.idle_clients > 0).then(|| IdlePopulation::start(addr, args.idle_clients));
    if let Some(idle) = &idle {
        idle.await_ready(Duration::from_secs(120));
    }

    let deadline = Instant::now() + args.duration;
    let started = Instant::now();
    // Mid-run occupancy sample: how many connections sat parked in the
    // reactor while the live load ran.
    let sampler = idle.is_some().then(|| {
        let half = args.duration / 2;
        std::thread::spawn(move || {
            std::thread::sleep(half);
            sample_parked(addr)
        })
    });
    let opts = (0..args.clients)
        .map(|i| ClientOpts::plain(args.close_per_request, 0x10ad_0000 + i as u64));
    let mut stats = run_clients(addr, &bodies, deadline, opts);
    let elapsed = started.elapsed().as_secs_f64();
    stats.latencies.sort_unstable();
    let parked_sample = sampler.map(|t| t.join().expect("stats sampler"));
    let idle_stats = idle.map(IdlePopulation::stop_and_join);

    println!(
        "serve_load: {} clients, {:.1}s, {}{}{}",
        args.clients,
        args.duration.as_secs_f64(),
        if args.close_per_request {
            "connection-per-request"
        } else {
            "keep-alive"
        },
        if args.fleet > 0 {
            format!(", fleet of {} shards, {} sources", args.fleet, args.sources)
        } else {
            String::new()
        },
        if args.idle_clients > 0 {
            format!(", {} idle keep-alive clients", args.idle_clients)
        } else {
            String::new()
        }
    );
    println!("requests: {} ok, {} errors", stats.ok, stats.errors());
    println!(
        "throughput: {:.1} req/s",
        stats.ok as f64 / elapsed.max(1e-9)
    );
    println!(
        "latency_ms: p50 {:.2} p95 {:.2} p99 {:.2}",
        percentile(&stats.latencies, 0.50),
        percentile(&stats.latencies, 0.95),
        percentile(&stats.latencies, 0.99),
    );
    if let Some(idle_stats) = &idle_stats {
        println!(
            "idle_clients: requested={} connected={} connect_errors={} pings={} \
             ping_errors={} shed={}",
            idle_stats.requested,
            idle_stats.connected,
            idle_stats.connect_errors,
            idle_stats.pings,
            idle_stats.ping_errors,
            idle_stats.shed
        );
    }
    if let Some((parked, active)) = parked_sample {
        println!("parked_vs_active: parked={parked} active={active}");
    }
    print_status_classes(&stats);
    if fleet.is_some() {
        report_fleet(&stats, &bodies, args.fleet);
        print_fleet_counters(addr);
    } else {
        print_runtime_counters(addr);
    }

    if let Some(fleet) = fleet {
        fleet.teardown();
    } else if let Some(server) = server {
        shutdown(server, addr);
    }
}
