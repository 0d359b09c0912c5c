//! The fleet router: one front-end address over N shard processes.
//!
//! Runs on the same bounded [`ConnectionRuntime`] and the same request loop
//! ([`serve_burst`]) as a shard, so the router inherits the whole serving
//! posture for free — worker pool, queue-full load shedding, keep-alive and
//! pipelining, deterministic drain, and the structured error replies.  Each
//! `POST /align` body is fingerprinted ([`htc_serve::routing_fingerprint`])
//! and sent to the shard rendezvous hashing assigns it, over a pooled
//! keep-alive upstream connection.  Repeat requests for one source therefore
//! always land on the shard that has that source's session cached — the
//! whole point of sharding a fingerprint-keyed cache.
//!
//! **Failover** is safe exactly until the upstream response head has been
//! read: up to that point nothing was written downstream, so the router can
//! retry the next live shard in the preference order (least-loaded first,
//! by the `/healthz` load snapshots).  The shared `--cache-dir` makes this
//! cheap *and* correct: the fallback shard warm-starts the dead owner's
//! sources from its spilled artifacts, bit-identically.  Once a head has
//! been relayed the router is committed; an upstream failure mid-body
//! closes the client connection (a torn response must not look complete).
//!
//! `/stats` aggregates every live shard's stats — `totals` sums every
//! additive figure the shard's own table ([`htc_serve::server::STATS`])
//! marks [`Merge::Sum`], so this module names no shard figure — next to the
//! per-shard raw snapshots and the router's own counters (including its
//! worker panics and stall teardowns); `/fleet/healthz` reports the shard
//! table.  `X-HTC-Deadline-Ms` and `X-HTC-Client` are forwarded
//! upstream; `Retry-After` and chunked/streamed bodies come back through
//! [`relay_response`] untouched.

use crate::hash::preference_order;
use crate::pool::UpstreamPool;
use crate::shard::{ShardSet, ShardState};
use htc_metrics::Counter;
use htc_serve::http::{
    read_response_head, relay_response, Client, ReadLimits, RelayError, Request,
};
use htc_serve::json::{self, Json};
use htc_serve::runtime::{
    default_workers, serve_burst, Conn, ConnHandler, ConnectionRuntime, Disposition, Reply,
    RuntimeConfig, RuntimeMetrics, ShutdownSignal,
};
use htc_serve::server::{group_figures, Figure, Merge, STATS};
use htc_serve::{routing_fingerprint, ServeError};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`Router`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 for ephemeral (tests).
    pub addr: String,
    /// Worker-pool size; `0` means [`default_workers`].
    pub workers: usize,
    /// Queue capacity before connections are shed with `503`.
    pub queue_capacity: usize,
    /// Idle keep-alive timeout for client connections.
    pub keep_alive: Duration,
}

/// TCP connect budget per upstream attempt — how fast "shard is dead" is
/// discovered on the request path.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(250);
/// Budget for one upstream response (head + body relay).
const PROXY_DEADLINE: Duration = Duration::from_secs(60);
/// Idle upstream connections kept per shard.
const MAX_IDLE_PER_SHARD: usize = 8;

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            workers: 0,
            queue_capacity: 128,
            keep_alive: Duration::from_secs(15),
        }
    }
}

/// The router's own counters (everything else on `/stats` comes from the
/// shards or the shared [`RuntimeMetrics`]).
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Requests relayed with an upstream response (any status).
    pub proxied_ok: Counter,
    /// Relayed requests that were served by a non-owner shard.
    pub failovers: Counter,
    /// Requests answered `502` because no shard could take them.
    pub bad_gateway: Counter,
    /// Align bodies with no routable source fingerprint (still forwarded —
    /// the shard owns the 400).
    pub unroutable: Counter,
}

struct RouterShared {
    shards: Arc<ShardSet>,
    pool: UpstreamPool,
    metrics: Arc<RouterMetrics>,
    runtime_metrics: Arc<RuntimeMetrics>,
    shutdown: Arc<ShutdownSignal>,
    started: Instant,
}

/// A running fleet router.
pub struct Router {
    addr: SocketAddr,
    runtime: ConnectionRuntime,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Binds and starts routing over the given shard table (owned by a
    /// [`crate::Supervisor`], or populated by hand in tests).
    pub fn start(mut config: RouterConfig, shards: Arc<ShardSet>) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if config.workers == 0 {
            config.workers = default_workers();
        }
        let shutdown = Arc::new(ShutdownSignal::new());
        let runtime_metrics = Arc::new(RuntimeMetrics::default());
        let runtime_config = RuntimeConfig {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            idle_timeout: config.keep_alive,
            ..RuntimeConfig::default()
        };
        let pool = UpstreamPool::new(shards.len(), MAX_IDLE_PER_SHARD);
        let shared = Arc::new(RouterShared {
            pool,
            shards,
            metrics: Arc::new(RouterMetrics::default()),
            runtime_metrics: Arc::clone(&runtime_metrics),
            shutdown: Arc::clone(&shutdown),
            started: Instant::now(),
        });
        let handler_shared = Arc::clone(&shared);
        let handler: ConnHandler = Arc::new(move |conn| handle_connection(conn, &handler_shared));
        let runtime =
            ConnectionRuntime::start(listener, runtime_config, shutdown, runtime_metrics, handler)?;
        Ok(Router {
            addr,
            runtime,
            shared,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn metrics(&self) -> Arc<RouterMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// External shutdown trigger (signal handlers).
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Stops accepting, drains queued connections, joins every worker.
    pub fn shutdown(mut self) {
        self.shared.shutdown.trigger();
        self.runtime.join();
    }

    /// Blocks until the router stops (`POST /shutdown` or a signal).
    pub fn join(mut self) {
        self.runtime.join();
    }
}

/// The router's route table, run per request by [`serve_burst`] (the same
/// request loop as a shard's, with the standalone read limits): `/align` is
/// relayed to its shard, `/healthz`, `/fleet/healthz` and `/stats` are
/// answered here, and `/shutdown` drains the router.
fn handle_connection(conn: &mut Conn, shared: &Arc<RouterShared>) -> Disposition {
    serve_burst(
        conn,
        &ReadLimits::default(),
        &shared.runtime_metrics,
        &shared.shutdown,
        |request, _anchor, keep_alive, stream| match (
            request.method.as_str(),
            request.path.as_str(),
        ) {
            ("POST", "/align") => proxy_align(stream, request, shared, keep_alive),
            ("GET", "/healthz") => Reply::Json(
                200,
                json::obj(vec![
                    ("status", json::str("ok")),
                    ("role", json::str("router")),
                    (
                        "uptime_seconds",
                        json::num(shared.started.elapsed().as_secs_f64()),
                    ),
                ])
                .render(),
            ),
            ("GET", "/fleet/healthz") => Reply::Json(200, fleet_healthz(shared)),
            ("GET", "/stats") => Reply::Json(200, fleet_stats(shared)),
            ("POST", "/shutdown") => Reply::Shutdown,
            (method, path) => Reply::Error(ServeError::no_route(method, path)),
        },
    )
}

/// One upstream proxy attempt against a specific shard incarnation.
enum Attempt {
    /// Response fully relayed downstream (upstream status irrelevant — the
    /// shard's 4xx/5xx are the client's business).
    Relayed {
        client: Client,
        generation: u64,
        reusable: bool,
    },
    /// Upstream failed before a head was read; nothing was written
    /// downstream, so the request can fail over.
    UpstreamFailed(String),
    /// Upstream died mid-body after the head was relayed: the downstream
    /// response is torn and the connection must close.
    TornMidBody,
    /// The client went away while we were writing to it.
    DownstreamGone(std::io::Error),
}

/// Routes and relays one `POST /align`.  A relayed response is
/// [`Reply::Written`] with whether the downstream connection is still usable
/// for keep-alive; with no shard able to answer, the reply is a `502`.
fn proxy_align(
    stream: &mut TcpStream,
    request: &Request,
    shared: &Arc<RouterShared>,
    keep_alive: bool,
) -> Reply {
    let fingerprint = routing_fingerprint(&request.body);
    if fingerprint.is_none() {
        // Forwarded anyway: the owner of "fingerprint 0" will produce the
        // same structured 400/422 any shard would.
        shared.metrics.unroutable.inc();
    }
    let order = preference_order(fingerprint.unwrap_or(0), shared.shards.len());
    let states = shared.shards.snapshot_all();
    let candidates = candidate_order(&order, &states);
    let mut forward: Vec<(&str, &str)> = Vec::new();
    for name in ["x-htc-deadline-ms", "x-htc-client"] {
        if let Some(value) = request.header(name) {
            forward.push((name, value));
        }
    }
    for &shard in &candidates {
        // Fresh snapshot per attempt: the supervisor may have restarted the
        // shard (new addr + generation) since the pre-sort snapshot.
        let state = shared.shards.snapshot(shard);
        let Some(addr) = state.addr else { continue };
        let deadline = Instant::now() + PROXY_DEADLINE;
        match attempt_proxy(
            shard,
            addr,
            state.generation,
            &request.body,
            &forward,
            stream,
            keep_alive,
            deadline,
            shared,
        ) {
            Attempt::Relayed {
                client,
                generation,
                reusable,
            } => {
                if reusable {
                    let current = shared.shards.snapshot(shard).generation;
                    shared.pool.checkin(shard, client, generation, current);
                }
                shared.metrics.proxied_ok.inc();
                // A failover is any request served off its rendezvous owner
                // — whether the owner failed mid-request (position > 0) or
                // was already marked down and never entered the candidates.
                if shard != order[0] {
                    shared.metrics.failovers.inc();
                }
                return Reply::Written(Ok(true));
            }
            Attempt::UpstreamFailed(why) => {
                // Passive health: stop routing here until the supervisor's
                // probe sees the shard answering again.
                eprintln!(
                    "htc-fleet: shard {shard} failed before responding ({why}); failing over"
                );
                shared.shards.mark_down(shard);
                shared.pool.clear(shard);
                continue;
            }
            Attempt::TornMidBody => return Reply::Written(Ok(false)),
            Attempt::DownstreamGone(e) => return Reply::Written(Err(e)),
        }
    }
    shared.metrics.bad_gateway.inc();
    Reply::Error(ServeError {
        status: 502,
        kind: "bad_gateway",
        message: "no live shard could serve this request".into(),
        retry_after_ms: Some(1000),
    })
}

/// The shards to try, in order: the rendezvous owner first (when live), then
/// the remaining live shards least-loaded first (load snapshots from the
/// supervisor's probes; the stable sort keeps rendezvous order among equals).
/// With *no* live shard, every addressed shard is tried in rendezvous order
/// — one may have just come back up between probes.
fn candidate_order(preference: &[usize], states: &[ShardState]) -> Vec<usize> {
    let live = |s: usize| states[s].healthy && states[s].addr.is_some();
    let owner = preference[0];
    let mut candidates: Vec<usize> = Vec::with_capacity(preference.len());
    if live(owner) {
        candidates.push(owner);
    }
    let mut fallbacks: Vec<usize> = preference[1..]
        .iter()
        .copied()
        .filter(|&s| live(s))
        .collect();
    fallbacks.sort_by_key(|&s| states[s].load_key());
    candidates.extend(fallbacks);
    if candidates.is_empty() {
        candidates.extend(
            preference
                .iter()
                .copied()
                .filter(|&s| states[s].addr.is_some()),
        );
    }
    candidates
}

/// One attempt: checkout/connect, forward the request, read the head, relay
/// the body.  A pooled connection that fails before the head is retried once
/// on a fresh socket — the shard may simply have idle-closed it — before the
/// shard itself is declared failed.
#[allow(clippy::too_many_arguments)]
fn attempt_proxy(
    shard: usize,
    addr: SocketAddr,
    generation: u64,
    body: &[u8],
    forward: &[(&str, &str)],
    stream: &mut TcpStream,
    keep_alive: bool,
    deadline: Instant,
    shared: &Arc<RouterShared>,
) -> Attempt {
    let pooled = shared.pool.checkout(shard, generation);
    let had_pooled = pooled.is_some();
    let sources = if had_pooled { 0..2 } else { 1..2 };
    let mut pooled = pooled;
    let mut last_error = String::new();
    for source in sources {
        let mut client = match pooled.take() {
            Some(client) => client,
            None => match Client::connect_timeout(addr, CONNECT_TIMEOUT) {
                Ok(client) => client,
                Err(e) => return Attempt::UpstreamFailed(format!("connect {addr}: {e}")),
            },
        };
        if let Err(e) = client.send_request_bytes("POST", "/align", body, false, forward) {
            last_error = format!("send: {e}");
            if source == 0 {
                continue;
            }
            return Attempt::UpstreamFailed(last_error);
        }
        let head = match read_response_head(client.reader_mut(), deadline) {
            Ok(head) => head,
            Err(e) => {
                last_error = format!("response head: {e}");
                if source == 0 {
                    continue;
                }
                return Attempt::UpstreamFailed(last_error);
            }
        };
        // Committed: a head exists, so this response — whatever its status
        // — is the one the client gets.
        let shard_tag = [("X-HTC-Shard", shard.to_string())];
        return match relay_response(
            client.reader_mut(),
            &head,
            stream,
            keep_alive,
            &shard_tag,
            deadline,
        ) {
            Ok(()) => {
                let reusable = head
                    .header("connection")
                    .is_none_or(|v| !v.eq_ignore_ascii_case("close"));
                Attempt::Relayed {
                    client,
                    generation,
                    reusable,
                }
            }
            Err(RelayError::Upstream(_)) => Attempt::TornMidBody,
            Err(RelayError::Downstream(e)) => Attempt::DownstreamGone(e),
        };
    }
    Attempt::UpstreamFailed(last_error)
}

/// `GET /fleet/healthz`: the shard table as the router sees it.
fn fleet_healthz(shared: &Arc<RouterShared>) -> String {
    let states = shared.shards.snapshot_all();
    let healthy = states.iter().filter(|s| s.healthy).count();
    let status = if healthy == states.len() {
        "ok"
    } else if healthy > 0 {
        "degraded"
    } else {
        "down"
    };
    let members = states.iter().enumerate().map(|(i, s)| {
        json::obj(vec![
            ("shard", json::num(i as f64)),
            ("healthy", Json::Bool(s.healthy)),
            (
                "addr",
                s.addr.map_or(Json::Null, |a| json::str(a.to_string())),
            ),
            ("generation", json::num(s.generation as f64)),
            ("restarts", json::num(s.restarts as f64)),
            ("pressure_level", json::num(s.pressure_level as f64)),
            ("active", json::num(s.active as f64)),
            ("queued", json::num(s.queued as f64)),
        ])
    });
    json::obj(vec![
        ("status", json::str(status)),
        ("shards", json::num(states.len() as f64)),
        ("healthy", json::num(healthy as f64)),
        ("members", json::arr(members)),
    ])
    .render()
}

/// `GET /stats`: fetches every live shard's `/stats`, sums each
/// [`Merge::Sum`] figure of the shard's own table ([`STATS`]) into `totals`,
/// embeds each shard's raw snapshot, and adds the router's own counters.
fn fleet_stats(shared: &Arc<RouterShared>) -> String {
    let states = shared.shards.snapshot_all();
    let mut sums: Vec<(&Figure, f64)> = STATS
        .iter()
        .filter(|f| f.merge == Merge::Sum)
        .map(|f| (f, 0.0))
        .collect();
    let mut members: Vec<Json> = Vec::with_capacity(states.len());
    for (i, state) in states.iter().enumerate() {
        let mut fields = vec![
            ("shard", json::num(i as f64)),
            ("healthy", Json::Bool(state.healthy)),
            ("generation", json::num(state.generation as f64)),
            ("restarts", json::num(state.restarts as f64)),
        ];
        let fetched = state
            .addr
            .filter(|_| state.healthy)
            .ok_or_else(|| "shard down".to_string())
            .and_then(fetch_shard_stats);
        match fetched {
            Ok(text) => {
                if let Ok(parsed) = json::parse(&text) {
                    for (figure, sum) in &mut sums {
                        *sum += [figure.group, figure.field]
                            .into_iter()
                            .filter(|key| !key.is_empty())
                            .try_fold(&parsed, |json, key| json.get(key))
                            .and_then(Json::as_f64)
                            .unwrap_or(0.0);
                    }
                }
                fields.push(("stats", Json::Raw(text)));
            }
            Err(e) => fields.push(("error", json::str(e))),
        }
        members.push(json::obj(fields));
    }
    let totals = group_figures(sums.into_iter().map(|(f, sum)| (f, json::num(sum))));
    let metrics = &shared.metrics;
    let runtime = &shared.runtime_metrics;
    json::obj(vec![
        ("role", json::str("router")),
        (
            "uptime_seconds",
            json::num(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "fleet",
            json::obj(vec![
                ("shards", json::num(states.len() as f64)),
                (
                    "healthy",
                    json::num(states.iter().filter(|s| s.healthy).count() as f64),
                ),
            ]),
        ),
        (
            "router",
            json::obj(vec![
                ("proxied_ok", json::num(metrics.proxied_ok.get() as f64)),
                ("failovers", json::num(metrics.failovers.get() as f64)),
                ("bad_gateway", json::num(metrics.bad_gateway.get() as f64)),
                ("unroutable", json::num(metrics.unroutable.get() as f64)),
                (
                    "total_connections",
                    json::num(runtime.total_connections.get() as f64),
                ),
                (
                    "total_requests",
                    json::num(runtime.total_requests.get() as f64),
                ),
                (
                    "shed_connections",
                    json::num(runtime.shed_connections.get() as f64),
                ),
                ("queue_depth", json::num(runtime.queue_depth.get() as f64)),
                (
                    "active_connections",
                    json::num(runtime.active_connections.get() as f64),
                ),
                (
                    "worker_panics",
                    json::num(runtime.worker_panics.get() as f64),
                ),
                (
                    "stall_timeouts_closed",
                    json::num(runtime.stall_timeouts_closed.get() as f64),
                ),
            ]),
        ),
        ("totals", json::obj(totals)),
        ("shards", Json::Arr(members)),
    ])
    .render()
}

/// One `GET /stats` against a shard on a throwaway connection (stats are
/// rare; pooled sockets stay reserved for the align path).
fn fetch_shard_stats(addr: SocketAddr) -> Result<String, String> {
    let mut client = Client::connect_timeout(addr, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
    client.set_response_deadline(Duration::from_secs(5));
    client
        .send_with("GET", "/stats", "", true)
        .map_err(|e| format!("send: {e}"))?;
    let response = client.read()?;
    if response.status != 200 {
        return Err(format!("stats answered {}", response.status));
    }
    String::from_utf8(response.body).map_err(|_| "stats body not UTF-8".into())
}
