//! The `htc-serve` daemon: request routing, the artifact cache, and
//! same-source request batching, running on the bounded connection runtime.
//!
//! ## Life of an align request
//!
//! 1. The connection parks in the event-driven reactor between requests
//!    (see [`crate::runtime`] and [`crate::reactor`]); when it becomes
//!    readable, a pool worker runs [`serve_burst`] — the request loop the
//!    fleet router shares — with this module's route, then hands the socket
//!    back.  The JSON body is parsed and the **source** network resolved
//!    (inline payload or persisted files).
//! 2. The source is keyed by [`CacheKey`] — structural graph fingerprint,
//!    attribute fingerprint, configuration tag — and looked up in the LRU
//!    [`ArtifactCache`].  A hit reuses the cached
//!    [`AlignmentSession`] with its counted orbits, propagators and trained
//!    encoder; a miss first probes the durable `--cache-dir` spill layer
//!    (restart warm start), then opens a fresh session (optionally
//!    warm-started from request-named `TopologyViews` / `TrainedEncoder`
//!    artifacts).
//! 3. In the default `"shared"` mode the request joins the entry's **pending
//!    batch**: the first arrival becomes the batch leader, waits one batch
//!    window for concurrent same-source requests, then drives every collected
//!    target through [`AlignmentSession::align_many`] in one fan-out.
//!    Followers block on a channel and receive their own result.  The
//!    `"pairwise"` mode (joint training, bit-identical to `HtcAligner`)
//!    bypasses batching.
//! 4. Large alignment responses stream out as `Transfer-Encoding: chunked`
//!    (anchor count ≥ the configured threshold), so a 100k-anchor result
//!    never materialises as one giant `String`.
//! 5. A handler panic is caught at the request boundary; the cached
//!    session is [`reset`](AlignmentSession::reset), dropped from the cache
//!    and forgotten on disk so the daemon keeps serving.
//!
//! Every response is JSON; `/healthz` and `/stats` expose liveness, the
//! cache / stage-timer counters and the runtime occupancy gauges.  Every
//! `/stats` figure is one row of [`STATS`] — its group, field, fleet merge
//! rule and reader — so the shard renders the table and the fleet router
//! sums its [`Merge::Sum`] rows without knowing the schema.

use crate::cache::{attribute_fingerprint, ArtifactCache, CacheKey, CacheStats, DurableStore};
use crate::fair::{FairnessConfig, PeerLimiter, SourceGate};
use crate::fault::FaultPlan;
use crate::http::{begin_chunked_json, write_json_response, ReadLimits, Request, ServeError};
use crate::json::{self, Json};
use crate::runtime::{
    default_workers, serve_burst, Conn, ConnHandler, ConnectionRuntime, Disposition, Reply,
    RuntimeConfig, RuntimeMetrics, ShutdownSignal,
};
use htc_core::{
    graph_fingerprint, AlignmentSession, DeadlineObserver, HtcConfig, HtcResult, ProgressObserver,
    TopologyViews, TrainedEncoder,
};
use htc_graph::io::read_network;
use htc_graph::{AttributedNetwork, Graph};
use htc_linalg::DenseMatrix;
use htc_metrics::{Counter, StageTimer};
use std::net::{TcpListener, TcpStream};
use std::path::{Component, Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Maximum number of cached source sessions (LRU beyond this).
    pub cache_capacity: usize,
    /// How long a batch leader waits for concurrent same-source requests
    /// before driving the batch.  Zero serves every request individually.
    pub batch_window: Duration,
    /// Preset used when a request does not name one; [`Server::start`]
    /// rejects a name other than `fast`, `small`, `paper` or `large`.
    pub default_preset: String,
    /// When set, every filesystem path in a request (`stem`, `views_path`,
    /// `encoder_path`) must be relative, free of `..`, and resolves under
    /// this root.  Unset means the operator trusts request paths (local
    /// tooling).
    pub artifact_root: Option<PathBuf>,
    /// Worker-pool size; `0` means [`default_workers`] (`min(2×cores, 64)`).
    pub workers: usize,
    /// Accepted connections queued beyond this are shed with
    /// `503 Retry-After`.
    pub queue_capacity: usize,
    /// How long an idle keep-alive connection may sit parked in the reactor
    /// between requests before the server closes it.
    pub keep_alive: Duration,
    /// Per-read progress deadline for slow clients: a request whose header
    /// section does not complete (or whose body makes no read progress)
    /// within this window gets a `408` and a teardown instead of a pinned
    /// worker.  Also the socket write timeout, so a stalled reader of a
    /// chunked response fills the kernel send buffer and is then torn down.
    pub stall_timeout: Duration,
    /// Maximum simultaneous connections per peer IP; over-cap connects are
    /// answered `429` at accept.  `0` disables the cap.
    pub peer_max_conns: usize,
    /// Cap (bytes) on each connection's kernel send buffer (`SO_SNDBUF`,
    /// locked against autotuning).  Bounds how much response a stalled
    /// reader can absorb before the write deadline engages; `0` keeps the
    /// kernel default.
    pub sndbuf: usize,
    /// Durable artifact-cache directory: cached sources spill their views +
    /// encoder here and restarts repopulate the LRU lazily (warm starts).
    /// Unset disables persistence.
    pub cache_dir: Option<PathBuf>,
    /// Alignment responses with at least this many anchor rows stream out
    /// chunked instead of materialising the body.
    pub stream_threshold: usize,
    /// Default per-request time budget, measured from the instant the
    /// connection was accepted (so queue wait counts against it, not just
    /// compute).  An `X-HTC-Deadline-Ms` request header overrides it
    /// per-request; over-budget requests get a structured `504` and the
    /// session stays reusable.  Zero disables the default.
    pub request_deadline: Duration,
    /// Per-client rate limiting and per-source fair-scheduling knobs.
    pub fairness: FairnessConfig,
    /// Deterministic fault-injection schedule for chaos testing; `None` in
    /// normal operation.
    pub fault: Option<Arc<FaultPlan>>,
    /// This process's position in a fleet (`--shard-id`); reported on
    /// `/healthz` so the supervisor can verify it is probing the shard it
    /// thinks it is.  `None` for a standalone daemon.
    pub shard_id: Option<usize>,
    /// Upper bound on the node count of either request network
    /// (`--max-nodes`); larger requests get a structured `413 too_large`
    /// before any pipeline work runs.  The guard exists for the Large tier:
    /// a single oversized inline graph can otherwise occupy a worker for
    /// minutes.  `0` disables the bound.
    pub max_nodes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            cache_capacity: 8,
            batch_window: Duration::from_millis(2),
            default_preset: "fast".into(),
            artifact_root: None,
            workers: 0,
            queue_capacity: 128,
            keep_alive: Duration::from_secs(15),
            stall_timeout: Duration::from_secs(5),
            peer_max_conns: 0,
            sndbuf: 0,
            cache_dir: None,
            stream_threshold: 16 * 1024,
            request_deadline: Duration::ZERO,
            fairness: FairnessConfig::default(),
            fault: None,
            shard_id: None,
            max_nodes: 0,
        }
    }
}

/// One cached source: the session plus the pending batch of the serving mode
/// and the durable-spill bookkeeping.
struct SourceEntry {
    session: Mutex<AlignmentSession>,
    pending: Mutex<Vec<PendingAlign>>,
    /// Which artifacts already live in the durable store (set on spill *and*
    /// on reload, so a reloaded entry is never rewritten).
    views_spilled: AtomicBool,
    encoder_spilled: AtomicBool,
}

impl SourceEntry {
    fn new(session: AlignmentSession) -> Self {
        Self {
            session: Mutex::new(session),
            pending: Mutex::new(Vec::new()),
            views_spilled: AtomicBool::new(false),
            encoder_spilled: AtomicBool::new(false),
        }
    }
}

struct PendingAlign {
    target: AttributedNetwork,
    tx: mpsc::Sender<Result<BatchOutcome, ServeError>>,
}

#[derive(Clone)]
struct BatchOutcome {
    result: Arc<HtcResult>,
    batched_with: usize,
}

/// Aggregate align/batch counters for `/stats` (the total request count
/// lives in [`RuntimeMetrics::total_requests`], incremented at the protocol
/// layer).
#[derive(Debug, Default, Clone, Copy)]
struct RequestStats {
    align_ok: u64,
    align_err: u64,
    batches: u64,
    batched_requests: u64,
    max_batch: u64,
}

struct Shared {
    config: ServerConfig,
    /// The resolved `config.default_preset`, for preset-less requests and the
    /// `/stats` pipeline figures.
    default_config: HtcConfig,
    cache: Mutex<ArtifactCache<SourceEntry>>,
    /// The `--cache-dir` spill layer (None: in-memory only).
    durable: Option<DurableStore>,
    requests: Mutex<RequestStats>,
    /// Per-request stage times (target-side work), accumulated over the
    /// daemon's lifetime.
    request_timer: Mutex<StageTimer>,
    metrics: Arc<RuntimeMetrics>,
    /// Per-client token buckets (no-op unless `fairness.peer_tokens_per_sec`
    /// is set).
    limiter: PeerLimiter,
    /// Per-source in-flight slots for weighted fair scheduling under
    /// pressure.
    gate: Arc<SourceGate>,
    started: Instant,
    shutdown: Arc<ShutdownSignal>,
}

/// A running `htc-serve` instance.
///
/// Binds eagerly in [`Server::start`] (so the caller knows the port), then
/// serves connections on the bounded worker pool until `/shutdown` is posted
/// or [`Server::shutdown`] is called.  Both stop paths drain
/// deterministically: the acceptor stops, queued connections finish, and
/// every worker is joined before [`Server::join`] / [`Server::shutdown`]
/// return.
pub struct Server {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    runtime: ConnectionRuntime,
}

impl Server {
    /// Binds and starts serving; returns once the listener is live.  An
    /// unknown `default_preset` is an
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error.
    pub fn start(mut config: ServerConfig) -> std::io::Result<Server> {
        let default_config = HtcConfig::preset(&config.default_preset)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if config.workers == 0 {
            config.workers = default_workers();
        }
        // Clamp here, not just in the runtime, so `/stats` reports the pool
        // size that actually exists.
        config.workers = config.workers.clamp(1, crate::runtime::MAX_WORKERS);
        let durable = match &config.cache_dir {
            Some(dir) => Some(DurableStore::open(dir)?.with_faults(config.fault.clone())),
            None => None,
        };
        let shutdown = Arc::new(ShutdownSignal::new());
        let metrics = Arc::new(RuntimeMetrics::default());
        let runtime_config = RuntimeConfig {
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            idle_timeout: config.keep_alive,
            stall_timeout: config.stall_timeout,
            peer_max_conns: config.peer_max_conns,
            sndbuf: config.sndbuf,
        };
        let shared = Arc::new(Shared {
            cache: Mutex::new(ArtifactCache::new(config.cache_capacity)),
            durable,
            requests: Mutex::new(RequestStats::default()),
            request_timer: Mutex::new(StageTimer::new()),
            metrics: Arc::clone(&metrics),
            limiter: PeerLimiter::new(&config.fairness),
            gate: Arc::new(SourceGate::new()),
            started: Instant::now(),
            shutdown: Arc::clone(&shutdown),
            default_config,
            config,
        });
        let handler_shared = Arc::clone(&shared);
        let handler: ConnHandler = Arc::new(move |conn| handle_connection(conn, &handler_shared));
        let runtime =
            ConnectionRuntime::start(listener, runtime_config, shutdown, metrics, handler)?;
        Ok(Server {
            addr,
            shared,
            runtime,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Live runtime occupancy counters (shared with `/stats`).
    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        self.runtime.metrics()
    }

    /// The server's shutdown signal — an external trigger (a Unix signal
    /// handler, a supervisor) drains the server exactly like `POST /shutdown`
    /// does.
    pub fn shutdown_signal(&self) -> Arc<ShutdownSignal> {
        Arc::clone(&self.shared.shutdown)
    }

    /// Stops accepting, serves whatever is queued, and joins every worker.
    pub fn shutdown(mut self) {
        self.shared.shutdown.trigger();
        self.runtime.join();
    }

    /// Blocks until the server stops (via `/shutdown`), with every worker
    /// joined.
    pub fn join(mut self) {
        self.runtime.join();
    }
}

/// What the panic-guarded route produces: a finished [`Reply`], or an
/// alignment to write once the guard is left — a renderer panic must never
/// turn into a 500 written over half a body.
enum Routed {
    Reply(Reply),
    Align {
        outcome: BatchOutcome,
        cache_hit: bool,
        pairwise: bool,
    },
}

/// Per-request lifecycle context threaded from the connection loop into the
/// align path.
struct RequestCtx {
    /// Absolute deadline for this request, if one applies.  For the first
    /// request on a connection it is anchored at the *accept* instant, so
    /// time spent waiting in the hand-off queue counts against the budget.
    deadline: Option<Instant>,
}

/// Resolves the deadline for one request: the `X-HTC-Deadline-Ms` header
/// wins, the server-wide default applies otherwise, zero/absent disables.
fn request_deadline(
    request: &Request,
    shared: &Shared,
    anchor: Instant,
) -> Result<Option<Instant>, ServeError> {
    match request.header("x-htc-deadline-ms") {
        Some(raw) => {
            let ms = raw.trim().parse::<u64>().map_err(|_| {
                ServeError::bad_request(format!(
                    "x-htc-deadline-ms value {raw:?} must be a non-negative integer (milliseconds)"
                ))
            })?;
            Ok(Some(anchor + Duration::from_millis(ms)))
        }
        None => Ok((!shared.config.request_deadline.is_zero())
            .then(|| anchor + shared.config.request_deadline)),
    }
}

/// Serves one request burst on a dispatched connection through
/// [`serve_burst`]; this hop adds the peer identity for rate limiting, its
/// read limits, the fault plan's socket delay, [`pre_route`] and the panic
/// boundary around routing.
fn handle_connection(conn: &mut Conn, shared: &Arc<Shared>) -> Disposition {
    let peer_ip = conn
        .stream()
        .peer_addr()
        .map(|a| a.ip().to_string())
        .unwrap_or_else(|_| "unknown".into());
    // Zero disables the configured stall budget and falls back to the
    // standalone (30 s-class) defaults.
    let limits = if shared.config.stall_timeout.is_zero() {
        ReadLimits::default()
    } else {
        ReadLimits::with_stall(shared.config.stall_timeout)
    };
    serve_burst(
        conn,
        &limits,
        &shared.metrics,
        &shared.shutdown,
        |request, anchor, keep_alive, stream| {
            if let Some(fault) = &shared.config.fault {
                // Injected slow socket: the request stalls before being
                // served, which is how the chaos suite exercises client-side
                // response deadlines and server-side queue-inclusive budgets.
                if let Some(delay) = fault.socket_delay() {
                    std::thread::sleep(delay);
                }
            }
            if let Some(reply) = pre_route(request, shared, anchor, &peer_ip) {
                return reply;
            }
            // The route handler runs under catch_unwind: a panic anywhere in
            // the pipeline (e.g. a worker panic propagated by the thread
            // pool) must take down one response, not the daemon or its
            // worker.
            let ctx = RequestCtx {
                deadline: request_deadline(request, shared, anchor)
                    .expect("pre_route rejected invalid deadline headers"),
            };
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(request, shared, &ctx)
            }));
            match routed {
                Ok(Routed::Reply(reply)) => reply,
                Ok(Routed::Align {
                    outcome,
                    cache_hit,
                    pairwise,
                }) => Reply::Written(
                    write_align_response(stream, shared, &outcome, cache_hit, pairwise, keep_alive)
                        .map(|()| true),
                ),
                Err(_) => {
                    shared.metrics.worker_panics.inc();
                    Reply::Error(ServeError::internal(
                        "request handler panicked; session state was reset",
                    ))
                }
            }
        },
    )
}

/// Request-lifecycle checks that run before routing: deadline-header
/// validation and per-client rate limiting (align requests only — health and
/// stats probes must keep answering while a client is throttled).  `Some` is
/// an early reply; `None` proceeds to `route`.
fn pre_route(
    request: &Request,
    shared: &Arc<Shared>,
    anchor: Instant,
    peer_ip: &str,
) -> Option<Reply> {
    if let Err(err) = request_deadline(request, shared, anchor) {
        return Some(Reply::Error(err));
    }
    if request.method == "POST" && request.path == "/align" && shared.limiter.enabled() {
        let identity = request.header("x-htc-client").unwrap_or(peer_ip);
        if let Err(wait) = shared.limiter.admit(identity, Instant::now()) {
            shared.metrics.rate_limited.inc();
            let hint_ms = (wait.as_millis() as u64).max(1);
            return Some(Reply::Error(
                ServeError::new(
                    429,
                    "rate_limited",
                    format!("client {identity:?} exceeded its request budget"),
                )
                .retry_after(hint_ms),
            ));
        }
    }
    None
}

/// Writes an alignment response: chunked streaming once the anchor set
/// reaches the configured threshold, a plain `Content-Length` body below it.
/// Both paths emit byte-identical JSON (same renderer, different sink).
fn write_align_response(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    outcome: &BatchOutcome,
    cache_hit: bool,
    pairwise: bool,
    keep_alive: bool,
) -> std::io::Result<()> {
    let anchors = outcome.result.predicted_anchors().len();
    if anchors >= shared.config.stream_threshold.max(1) {
        let mut writer = begin_chunked_json(stream, 200, keep_alive)?;
        render_align_response_to(&mut writer, outcome, cache_hit, pairwise)
            .map_err(|_| std::io::Error::other("rendering alignment response"))?;
        writer.finish()
    } else {
        let mut body = String::new();
        render_align_response_to(&mut body, outcome, cache_hit, pairwise)
            .expect("writing to a String cannot fail");
        write_json_response(stream, 200, &body, keep_alive)
    }
}

fn route(request: &Request, shared: &Arc<Shared>, ctx: &RequestCtx) -> Routed {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            // Liveness plus the load snapshot a fleet router needs to prefer
            // less-loaded replicas on failover: the pressure rung and the raw
            // occupancy gauges behind it.
            let mut fields = vec![
                ("status", json::str("ok")),
                (
                    "uptime_seconds",
                    json::num(shared.started.elapsed().as_secs_f64()),
                ),
                (
                    "pressure_level",
                    json::num(pressure_level(
                        shared.metrics.queue_depth.get(),
                        shared.config.queue_capacity,
                    ) as f64),
                ),
                (
                    "active",
                    json::num(shared.metrics.active_connections.get() as f64),
                ),
                ("queued", json::num(shared.metrics.queue_depth.get() as f64)),
            ];
            if let Some(shard_id) = shared.config.shard_id {
                fields.push(("shard_id", json::num(shard_id as f64)));
            }
            Routed::Reply(Reply::Json(200, json::obj(fields).render()))
        }
        ("GET", "/stats") => Routed::Reply(Reply::Json(200, stats_json(shared))),
        ("POST", "/align") => match handle_align(request, shared, ctx) {
            Ok(routed) => {
                shared.requests.lock().unwrap().align_ok += 1;
                routed
            }
            Err(err) => {
                shared.requests.lock().unwrap().align_err += 1;
                Routed::Reply(Reply::Error(err))
            }
        },
        ("POST", "/shutdown") => Routed::Reply(Reply::Shutdown),
        (method, path) => Routed::Reply(Reply::Error(ServeError::no_route(method, path))),
    }
}

/// How the fleet router merges one `/stats` figure across its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Merge {
    /// An additive counter: the router's `totals` carries its fleet-wide sum.
    Sum,
    /// A gauge, ratio, setting or timer that means something per shard only;
    /// it is read from that shard's own snapshot.
    PerShard,
}

use Merge::{PerShard, Sum};

/// One `/stats` figure: where it renders — member `field` of the `group`
/// object, or a top-level member when `group` is `""` — how the fleet router
/// merges it, and how it is read off one scrape's snapshot.
pub struct Figure {
    pub group: &'static str,
    pub field: &'static str,
    pub merge: Merge,
    read: fn(&StatsView<'_>) -> Json,
}

const fn figure(
    group: &'static str,
    field: &'static str,
    merge: Merge,
    read: fn(&StatsView<'_>) -> Json,
) -> Figure {
    Figure {
        group,
        field,
        merge,
        read,
    }
}

/// A counter, gauge or size as a JSON number.
fn int(n: u64) -> Json {
    json::num(n as f64)
}

/// Every figure a shard's `/stats` renders, in render order: request and
/// runtime counters, the cache (including the durable spill layer), batching,
/// the robustness ladder, the serving tier, and two stage-timer views — the
/// shared source-side stages of every cached session, and the accumulated
/// per-request (target-side) stages.  The fleet router sums the [`Merge::Sum`]
/// rows into its `totals`, so a new figure is one storage field plus one row
/// here.
pub const STATS: &[Figure] = &[
    figure("", "uptime_seconds", PerShard, |v| {
        json::num(v.shared.started.elapsed().as_secs_f64())
    }),
    figure("requests", "total", Sum, |v| {
        int(v.metrics.total_requests.get())
    }),
    figure("requests", "align_ok", Sum, |v| int(v.requests.align_ok)),
    figure("requests", "align_err", Sum, |v| int(v.requests.align_err)),
    // The kernel ISA the dispatcher selected (or was forced to via
    // HTC_FORCE_ISA) — the decision `linalg::active_isa()` reports.
    figure("runtime", "active_isa", PerShard, |_| {
        json::str(htc_linalg::active_isa().name())
    }),
    figure("runtime", "workers", PerShard, |v| {
        int(v.config.workers as u64)
    }),
    figure("runtime", "active_connections", PerShard, |v| {
        int(v.metrics.active_connections.get())
    }),
    figure("runtime", "queue_depth", PerShard, |v| {
        int(v.metrics.queue_depth.get())
    }),
    figure("runtime", "queue_high_water", PerShard, |v| {
        int(v.metrics.queue_depth.high_water())
    }),
    figure("runtime", "total_connections", Sum, |v| {
        int(v.metrics.total_connections.get())
    }),
    figure("runtime", "total_requests", Sum, |v| {
        int(v.metrics.total_requests.get())
    }),
    figure("runtime", "reuse_ratio", PerShard, |v| {
        json::num(v.metrics.reuse_ratio())
    }),
    figure("runtime", "parked", Sum, |v| int(v.metrics.parked.get())),
    figure("runtime", "reactor_wakeups", Sum, |v| {
        int(v.metrics.reactor_wakeups.get())
    }),
    figure("runtime", "stall_timeouts_closed", Sum, |v| {
        int(v.metrics.stall_timeouts_closed.get())
    }),
    figure("runtime", "peer_cap_rejections", Sum, |v| {
        int(v.metrics.peer_cap_rejections.get())
    }),
    figure("runtime", "shed_connections", Sum, |v| {
        int(v.metrics.shed_connections.get())
    }),
    figure("runtime", "worker_panics", Sum, |v| {
        int(v.metrics.worker_panics.get())
    }),
    figure("cache", "entries", PerShard, |v| int(v.entries as u64)),
    figure("cache", "capacity", PerShard, |v| int(v.capacity as u64)),
    figure("cache", "hits", Sum, |v| int(v.cache.hits)),
    figure("cache", "misses", Sum, |v| int(v.cache.misses)),
    figure("cache", "evictions", Sum, |v| int(v.cache.evictions)),
    figure("cache", "hit_rate", PerShard, |v| {
        json::num(v.cache.hit_rate())
    }),
    figure("cache", "spills", Sum, |v| {
        int(v.durable(|store| &store.spills))
    }),
    figure("cache", "reloads", Sum, |v| {
        int(v.durable(|store| &store.reloads))
    }),
    figure("cache", "reload_errors", Sum, |v| {
        int(v.durable(|store| &store.reload_errors))
    }),
    figure("batching", "batches", Sum, |v| int(v.requests.batches)),
    figure("batching", "batched_requests", Sum, |v| {
        int(v.requests.batched_requests)
    }),
    figure("batching", "max_batch", PerShard, |v| {
        int(v.requests.max_batch)
    }),
    figure("robustness", "pressure_level", PerShard, |v| {
        int(v.pressure as u64)
    }),
    figure("robustness", "deadline_expired", Sum, |v| {
        int(v.metrics.deadline_expired.get())
    }),
    figure("robustness", "rate_limited", Sum, |v| {
        int(v.metrics.rate_limited.get())
    }),
    figure("robustness", "degraded_responses", Sum, |v| {
        int(v.metrics.degraded_responses.get())
    }),
    figure("robustness", "faults_injected", PerShard, |v| {
        int(v.config.fault.as_ref().map_or(0, |p| p.injected.get()))
    }),
    // The tier the default preset runs at — operators use this to confirm a
    // node serves Large-tier (blocked top-k) traffic before pointing a
    // 100k-node workload at it.
    figure("pipeline", "default_preset", PerShard, |v| {
        json::str(&v.config.default_preset)
    }),
    figure("pipeline", "scale", PerShard, |v| {
        json::str(v.shared.default_config.scale.name())
    }),
    figure("pipeline", "top_k", PerShard, |v| {
        int(v.shared.default_config.top_k as u64)
    }),
    figure("pipeline", "max_nodes", PerShard, |v| {
        int(v.config.max_nodes as u64)
    }),
    figure("", "busy_sessions", PerShard, |v| {
        int(v.busy_sessions as u64)
    }),
    // `StageTimer` renders its own JSON; embedded verbatim.
    figure("", "shared_stages", PerShard, |v| {
        Json::Raw(v.shared_stages.stages_json())
    }),
    figure("", "request_stages", PerShard, |v| {
        Json::Raw(v.request_stages.stages_json())
    }),
];

/// Nests figures for rendering: consecutive rows of one group become one
/// object member named after the group, and `""` rows stay top-level
/// members.
pub fn group_figures(
    figures: impl IntoIterator<Item = (&'static Figure, Json)>,
) -> Vec<(&'static str, Json)> {
    let mut members: Vec<(&'static str, Json)> = Vec::new();
    // The group of the object `members` currently ends with ("" for none).
    let mut open = "";
    for (figure, value) in figures {
        match members.last_mut() {
            Some((_, Json::Obj(fields))) if figure.group == open && !open.is_empty() => {
                fields.push((figure.field.to_string(), value))
            }
            _ if figure.group.is_empty() => members.push((figure.field, value)),
            _ => members.push((figure.group, json::obj(vec![(figure.field, value)]))),
        }
        open = figure.group;
    }
    members
}

/// What one `/stats` scrape reads, captured under the cache, request-counter
/// and request-timer locks (in that order); the [`STATS`] readers run on it
/// after every lock is released.  The runtime counters are atomics and are
/// read live.
struct StatsView<'a> {
    shared: &'a Shared,
    config: &'a ServerConfig,
    metrics: &'a RuntimeMetrics,
    cache: CacheStats,
    entries: usize,
    capacity: usize,
    busy_sessions: usize,
    shared_stages: StageTimer,
    requests: RequestStats,
    request_stages: StageTimer,
    pressure: u8,
}

impl<'a> StatsView<'a> {
    fn capture(shared: &'a Shared) -> Self {
        let cache = shared.cache.lock().unwrap();
        let mut shared_stages = StageTimer::new();
        let mut busy_sessions = 0usize;
        for entry in cache.values() {
            // try_lock: a session mid-alignment should not stall /stats.
            match entry.session.try_lock() {
                Ok(session) => shared_stages.merge(session.timer()),
                Err(_) => busy_sessions += 1,
            }
        }
        let (cache_stats, entries, capacity) = (cache.stats(), cache.len(), cache.capacity());
        drop(cache);
        let requests = shared.requests.lock().unwrap();
        StatsView {
            shared,
            config: &shared.config,
            metrics: &shared.metrics,
            cache: cache_stats,
            entries,
            capacity,
            busy_sessions,
            shared_stages,
            requests: *requests,
            request_stages: shared.request_timer.lock().unwrap().clone(),
            pressure: pressure_level(
                shared.metrics.queue_depth.get(),
                shared.config.queue_capacity,
            ),
        }
    }

    /// One durable spill-layer counter (0 without a `--cache-dir`).
    fn durable(&self, counter: fn(&DurableStore) -> &Counter) -> u64 {
        self.shared
            .durable
            .as_ref()
            .map_or(0, |store| counter(store).get())
    }
}

/// Renders `/stats`: one snapshot, every [`STATS`] row read off it.
fn stats_json(shared: &Shared) -> String {
    let view = StatsView::capture(shared);
    json::obj(group_figures(
        STATS.iter().map(|figure| (figure, (figure.read)(&view))),
    ))
    .render()
}

/// The fraction of the worker pool one source fingerprint may occupy while
/// the server is under queue pressure (see [`crate::fair::SourceGate`]).
const SOURCE_SHARE: f64 = 0.75;

/// The parsed, validated body of a `POST /align`.
struct AlignRequest {
    source: AttributedNetwork,
    target: AttributedNetwork,
    views_path: Option<PathBuf>,
    encoder_path: Option<PathBuf>,
    config: HtcConfig,
    config_tag: String,
    pairwise: bool,
}

/// Validates a request-supplied filesystem path against the configured
/// artifact root: with a root, paths must be relative, `..`-free and resolve
/// inside it; without one, they pass through (trusted operator).
fn resolve_path(artifact_root: Option<&Path>, raw: &str) -> Result<PathBuf, ServeError> {
    let path = Path::new(raw);
    match artifact_root {
        None => Ok(path.to_path_buf()),
        Some(root) => {
            let traversal = path.components().any(|c| {
                matches!(
                    c,
                    Component::ParentDir | Component::RootDir | Component::Prefix(_)
                )
            });
            if traversal || path.is_absolute() {
                return Err(ServeError::new(
                    400,
                    "forbidden_path",
                    format!("path {raw:?} must be relative to the artifact root and free of '..'"),
                ));
            }
            Ok(root.join(path))
        }
    }
}

/// Parses a network spec: inline `{"num_nodes", "edges", "attributes"?}` or
/// `{"stem": "<path>"}` referencing `<stem>.edges` / `<stem>.attrs` files.
///
/// `body_len` is the byte length of the request body the spec came from.  An
/// inline graph cannot usefully declare more nodes than that, and the graph
/// is allocated at its declared size before a single edge is read — a failed
/// allocation aborts the process, which no panic boundary contains — so a
/// larger `num_nodes` is a `400` before anything is allocated.
fn parse_network(
    artifact_root: Option<&Path>,
    spec: &Json,
    what: &str,
    body_len: usize,
) -> Result<AttributedNetwork, ServeError> {
    if let Some(stem) = spec.get("stem") {
        let stem = stem
            .as_str()
            .ok_or_else(|| ServeError::bad_request(format!("{what}.stem must be a string")))?;
        let stem = resolve_path(artifact_root, stem)?;
        return read_network(&stem).map_err(|e| {
            ServeError::new(
                422,
                "network_io",
                format!("reading {what} network {stem:?}: {e}"),
            )
        });
    }
    let num_nodes = spec
        .get("num_nodes")
        .and_then(Json::as_usize)
        .ok_or_else(|| {
            ServeError::bad_request(format!("{what}.num_nodes must be a non-negative integer"))
        })?;
    if num_nodes > body_len {
        return Err(ServeError::bad_request(format!(
            "{what}.num_nodes {num_nodes} exceeds the request body's {body_len} bytes"
        )));
    }
    let edges_json = spec
        .get("edges")
        .and_then(Json::as_arr)
        .ok_or_else(|| ServeError::bad_request(format!("{what}.edges must be an array")))?;
    let mut edges = Vec::with_capacity(edges_json.len());
    for (i, edge) in edges_json.iter().enumerate() {
        let pair = edge
            .as_arr()
            .filter(|pair| pair.len() == 2)
            .ok_or_else(|| {
                ServeError::bad_request(format!("{what}.edges[{i}] must be a [u, v] pair"))
            })?;
        let u = pair[0].as_usize().ok_or_else(|| {
            ServeError::bad_request(format!("{what}.edges[{i}][0] must be a node index"))
        })?;
        let v = pair[1].as_usize().ok_or_else(|| {
            ServeError::bad_request(format!("{what}.edges[{i}][1] must be a node index"))
        })?;
        edges.push((u, v));
    }
    let graph = Graph::from_edges(num_nodes, &edges)
        .map_err(|e| ServeError::new(422, "invalid_graph", format!("{what} graph: {e}")))?;
    match spec.get("attributes") {
        None | Some(Json::Null) => Ok(AttributedNetwork::topology_only(graph)),
        Some(attrs) => {
            let rows_json = attrs.as_arr().ok_or_else(|| {
                ServeError::bad_request(format!("{what}.attributes must be an array of rows"))
            })?;
            let mut rows = Vec::with_capacity(rows_json.len());
            for (i, row) in rows_json.iter().enumerate() {
                let row = row.as_arr().ok_or_else(|| {
                    ServeError::bad_request(format!("{what}.attributes[{i}] must be an array"))
                })?;
                let mut values = Vec::with_capacity(row.len());
                for v in row {
                    values.push(v.as_f64().ok_or_else(|| {
                        ServeError::bad_request(format!(
                            "{what}.attributes[{i}] must contain numbers"
                        ))
                    })?);
                }
                rows.push(values);
            }
            let attributes = DenseMatrix::from_rows(&rows).map_err(|e| {
                ServeError::bad_request(format!("{what}.attributes is ragged: {e}"))
            })?;
            AttributedNetwork::new(graph, attributes)
                .map_err(|e| ServeError::new(422, "invalid_graph", format!("{what} network: {e}")))
        }
    }
}

/// The sharding key of an align request body: a stable hash of its **source**
/// network, computed without touching the filesystem or building a session.
///
/// A fleet router calls this to decide which shard owns the request.  The
/// value need not equal the shard's own [`CacheKey`] fingerprint — routing
/// only needs *consistency* (the same source always hashes the same), so a
/// `stem`-referenced source is hashed by its path bytes while an inline
/// source is hashed by its parsed graph structure (whitespace- and
/// key-order-insensitive, matching the shard's `graph_fingerprint`).
///
/// `None` means the body is not a routable align request (malformed JSON, no
/// source, bad graph, a `num_nodes` beyond the body's byte length) — any
/// shard will reject it with the same 400/422, so the router may send it
/// anywhere.
pub fn routing_fingerprint(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let root = json::parse(text).ok()?;
    let source = root.get("source")?;
    if let Some(stem) = source.get("stem") {
        return stem.as_str().map(|s| crate::cache::fnv1a(s.as_bytes()));
    }
    let network = parse_network(None, source, "source", body.len()).ok()?;
    Some(graph_fingerprint(network.graph()))
}

fn parse_align_request(shared: &Shared, body: &[u8]) -> Result<AlignRequest, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not UTF-8"))?;
    let root = json::parse(text)
        .map_err(|e| ServeError::bad_request(format!("invalid JSON body: {e}")))?;
    let (preset_name, mut config) = match root.get("preset") {
        None => (
            shared.config.default_preset.clone(),
            shared.default_config.clone(),
        ),
        Some(p) => {
            let name = p
                .as_str()
                .ok_or_else(|| ServeError::bad_request("preset must be a string"))?;
            let config = HtcConfig::preset(name).map_err(ServeError::bad_request)?;
            (name.to_string(), config)
        }
    };
    let mut config_tag = preset_name.clone();
    if let Some(epochs) = root.get("epochs") {
        let epochs = epochs
            .as_usize()
            .filter(|&e| e >= 1)
            .ok_or_else(|| ServeError::bad_request("epochs must be a positive integer"))?;
        config.epochs = epochs;
        config_tag = format!("{preset_name}#e{epochs}");
    }
    let pairwise = match root.get("mode") {
        None => false,
        Some(mode) => match mode.as_str() {
            Some("shared") => false,
            Some("pairwise") => true,
            _ => {
                return Err(ServeError::bad_request(
                    "mode must be \"shared\" or \"pairwise\"",
                ))
            }
        },
    };
    let source_spec = root
        .get("source")
        .ok_or_else(|| ServeError::bad_request("request needs a source network"))?;
    let target_spec = root
        .get("target")
        .ok_or_else(|| ServeError::bad_request("request needs a target network"))?;
    let artifact_root = shared.config.artifact_root.as_deref();
    let source = parse_network(artifact_root, source_spec, "source", body.len())?;
    let target = parse_network(artifact_root, target_spec, "target", body.len())?;
    let max_nodes = shared.config.max_nodes;
    if max_nodes > 0 {
        let nodes = source.num_nodes().max(target.num_nodes());
        if nodes > max_nodes {
            return Err(ServeError::new(
                413,
                "too_large",
                format!(
                    "request network has {nodes} nodes, above this server's \
                     --max-nodes limit of {max_nodes}"
                ),
            ));
        }
    }
    let path_field = |key: &str| -> Result<Option<PathBuf>, ServeError> {
        match source_spec.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => {
                let raw = v.as_str().ok_or_else(|| {
                    ServeError::bad_request(format!("source.{key} must be a string"))
                })?;
                resolve_path(artifact_root, raw).map(Some)
            }
        }
    };
    Ok(AlignRequest {
        views_path: path_field("views_path")?,
        encoder_path: path_field("encoder_path")?,
        source,
        target,
        config,
        config_tag,
        pairwise,
    })
}

/// Queue-occupancy pressure ladder: 0 below half the queue capacity, 1 from
/// 50%, 2 from 85%.  Drives the degradation responses — batch-window
/// shrinking and cold-start shedding.
fn pressure_level(queue_depth: u64, queue_capacity: usize) -> u8 {
    let cap = queue_capacity.max(1) as u64;
    if queue_depth * 100 >= cap * 85 {
        2
    } else if queue_depth * 100 >= cap * 50 {
        1
    } else {
        0
    }
}

/// The batch window actually waited at a given pressure level: full when
/// calm, halved under moderate pressure, skipped entirely when the queue is
/// nearly full (latency beats batching efficiency once requests are already
/// queueing behind each other).
fn effective_batch_window(base: Duration, pressure: u8) -> Duration {
    match pressure {
        0 => base,
        1 => base / 2,
        _ => Duration::ZERO,
    }
}

fn handle_align(
    request: &Request,
    shared: &Arc<Shared>,
    ctx: &RequestCtx,
) -> Result<Routed, ServeError> {
    if let Some(fault) = &shared.config.fault {
        if fault.should_panic() {
            // Deliberately unwinds through the handler: the chaos suite
            // proves the catch_unwind boundary turns this into one 500, a
            // worker_panics tick, and nothing else.
            panic!("injected fault: scheduled handler panic");
        }
    }
    if let Some(deadline) = ctx.deadline {
        // The budget started at the accept instant; a request that burned it
        // all waiting in the hand-off queue is answered without touching the
        // session at all.
        if Instant::now() >= deadline {
            shared.metrics.deadline_expired.inc();
            return Err(ServeError::deadline_exceeded(
                "request deadline exhausted while queued",
            ));
        }
    }
    let pressure = pressure_level(
        shared.metrics.queue_depth.get(),
        shared.config.queue_capacity,
    );
    let align = parse_align_request(shared, &request.body)?;
    // Warm-start artifact paths are part of the cache identity: persisted
    // views are fingerprint-checked against the source graph, but a persisted
    // *encoder* carries no graph identity — only its dimensions are
    // validated.  Folding the paths into the key means a request that names
    // artifacts can never place a session where plain requests for the same
    // source would silently inherit a foreign encoder.
    let mut config_tag = align.config_tag.clone();
    if let Some(path) = &align.views_path {
        config_tag.push_str(&format!("|views={}", path.display()));
    }
    if let Some(path) = &align.encoder_path {
        config_tag.push_str(&format!("|encoder={}", path.display()));
    }
    let key = CacheKey {
        fingerprint: graph_fingerprint(align.source.graph()),
        attr_fingerprint: attribute_fingerprint(align.source.attributes()),
        preset: config_tag,
    };
    // Weighted fair scheduling: under pressure, one source fingerprint may
    // hold at most `SOURCE_SHARE` of the worker pool; below it the gate only
    // tracks occupancy (an idle server never rejects).  The slot is RAII —
    // held until this request finishes.
    let source_cap = (pressure >= 1)
        .then(|| ((shared.config.workers as f64 * SOURCE_SHARE).floor() as usize).max(1));
    let _slot = shared
        .gate
        .acquire(key.fingerprint, source_cap)
        .ok_or_else(|| {
            shared.metrics.rate_limited.inc();
            ServeError::new(
                429,
                "source_saturated",
                "this source already occupies its fair share of the worker pool",
            )
            .retry_after(100)
        })?;
    // Load persisted artifacts *before* taking the cache lock — decoding a
    // large artifact file must stall this request, not the whole daemon.
    // The loads only run when the key is absent (double-checked below), so
    // repeat warm-started sources do not re-read their files.  Request-named
    // paths win over the durable spill layer; the spill layer turns a
    // restart into a warm start for plain requests.
    let mut warm_views = None;
    let mut warm_encoder = None;
    let mut spilled_views = None;
    let mut spilled_encoder = None;
    let lru_present = shared.cache.lock().unwrap().peek(&key).is_some();
    if !lru_present {
        if let Some(path) = &align.views_path {
            warm_views = Some(TopologyViews::load(path)?);
        } else if let Some(store) = &shared.durable {
            spilled_views = store.load_views(&key);
        }
        if let Some(path) = &align.encoder_path {
            warm_encoder = Some(TrainedEncoder::load(path)?);
        } else if let Some(store) = &shared.durable {
            spilled_encoder = store.load_encoder(&key);
        }
    }
    let disk_warm_start = spilled_views.is_some() || spilled_encoder.is_some();
    // Top rung of the degradation ladder: when the queue is nearly full,
    // warm work (cached or spilled artifacts) is still served but cold
    // encoder training — the most expensive thing a request can ask for — is
    // shed with a structured 503 instead of parking a worker on it.
    if pressure >= 2 && !lru_present && warm_encoder.is_none() && spilled_encoder.is_none() {
        shared.metrics.degraded_responses.inc();
        return Err(ServeError::new(
            503,
            "degraded",
            "server is under queue pressure and this source has no warm artifacts",
        )
        .retry_after(1000));
    }
    let (entry, lru_hit) = {
        let mut cache = shared.cache.lock().unwrap();
        cache.get_or_insert(&key, || -> Result<SourceEntry, ServeError> {
            let mut session = AlignmentSession::new(align.config.clone(), &align.source)?;
            // Views are validated against the session (fingerprint, mode,
            // parameters); the encoder against its dimensions.  A stale or
            // corrupt request-named artifact is a 422, never a wrong answer;
            // a stale *spilled* artifact is silently discarded — the cold
            // path rebuilds it.
            if let Some(views) = warm_views {
                session.set_source_views(views)?;
            } else if let Some(path) = &align.views_path {
                // Another thread inserted and was evicted between the peek
                // and this lock — rare enough to just load inline.
                session.set_source_views(TopologyViews::load(path)?)?;
            }
            if let Some(encoder) = warm_encoder {
                session.set_encoder(encoder)?;
            } else if let Some(path) = &align.encoder_path {
                session.set_encoder(TrainedEncoder::load(path)?)?;
            }
            let entry = SourceEntry::new(session);
            if let Some(views) = spilled_views {
                let mut session = entry.session.lock().unwrap();
                if session.set_source_views(views).is_ok() {
                    entry.views_spilled.store(true, Ordering::Relaxed);
                }
            }
            if let Some(encoder) = spilled_encoder {
                let mut session = entry.session.lock().unwrap();
                if session.set_encoder(encoder).is_ok() {
                    entry.encoder_spilled.store(true, Ordering::Relaxed);
                }
            }
            Ok(entry)
        })?
    };
    // A hit from either layer skips the expensive source-side stages; the
    // response reports both the same way.
    let cache_hit = lru_hit || disk_warm_start;

    let pairwise = align.pairwise;
    let window = effective_batch_window(shared.config.batch_window, pressure);
    let outcome = if pairwise {
        serve_pairwise(shared, &entry, &align, ctx)
    } else {
        serve_batched(shared, &entry, align.target, ctx, window)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            // A panic-derived failure may have interrupted a stage mid-way;
            // drop the entry (and its spilled artifacts) so no future
            // request — in this process or after a restart — sees that
            // session.
            if err.kind == "internal" {
                shared.cache.lock().unwrap().remove_value(&entry);
                if let Some(store) = &shared.durable {
                    store.forget(&key);
                }
            }
            return Err(err);
        }
    };

    spill_entry_artifacts(shared, &key, &entry);
    shared
        .request_timer
        .lock()
        .unwrap()
        .merge(outcome.result.timer());
    Ok(Routed::Align {
        outcome,
        cache_hit,
        pairwise,
    })
}

/// Spills whatever source-side artifacts the entry's session has built and
/// not yet persisted.  Runs after each served request (cheap once both flags
/// are set); `try_lock` so a busy session simply spills after a later
/// request instead of stalling this one.
fn spill_entry_artifacts(shared: &Arc<Shared>, key: &CacheKey, entry: &Arc<SourceEntry>) {
    let Some(store) = &shared.durable else {
        return;
    };
    let views_done = entry.views_spilled.load(Ordering::Relaxed);
    let encoder_done = entry.encoder_spilled.load(Ordering::Relaxed);
    if views_done && encoder_done {
        return;
    }
    let Ok(session) = entry.session.try_lock() else {
        return;
    };
    if !views_done {
        if let Some(views) = session.views_if_built() {
            if store.spill_views(key, &views).is_ok() {
                entry.views_spilled.store(true, Ordering::Relaxed);
            }
        }
    }
    if !encoder_done {
        if let Some(encoder) = session.encoder_if_trained() {
            if store.spill_encoder(key, &encoder).is_ok() {
                entry.encoder_spilled.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Arms the session with a [`DeadlineObserver`] for this request's budget
/// (if any).  The observer vetoes the next progress hook once the deadline
/// passes, which surfaces as [`htc_core::HtcError::Cancelled`]; the latch it
/// sets is what lets [`map_deadline`] distinguish a deadline 504 from an
/// external cancellation 503.
fn arm_deadline(session: &mut AlignmentSession, ctx: &RequestCtx) -> Option<Arc<DeadlineObserver>> {
    let observer = ctx.deadline.map(|d| Arc::new(DeadlineObserver::new(d)));
    if let Some(obs) = &observer {
        session.set_observer(Some(Arc::clone(obs) as Arc<dyn ProgressObserver>));
    }
    observer
}

/// Converts a cancellation that was actually a deadline expiry into the
/// structured 504.  The session itself stays reusable — cooperative
/// cancellation leaves its cached artifacts either complete or absent, never
/// torn — so the entry is kept (504 is not an "internal" failure).
fn map_deadline(
    err: ServeError,
    observer: Option<&Arc<DeadlineObserver>>,
    shared: &Arc<Shared>,
) -> ServeError {
    if err.kind == "cancelled" && observer.is_some_and(|o| o.expired()) {
        shared.metrics.deadline_expired.inc();
        ServeError::deadline_exceeded("request deadline exceeded during alignment")
    } else {
        err
    }
}

/// Pairwise mode: joint training on (source, target), no batching.
fn serve_pairwise(
    shared: &Arc<Shared>,
    entry: &Arc<SourceEntry>,
    align: &AlignRequest,
    ctx: &RequestCtx,
) -> Result<BatchOutcome, ServeError> {
    let mut session = entry.session.lock().unwrap();
    let observer = arm_deadline(&mut session, ctx);
    let result = catch_session_panic(&mut session, |session| session.align(&align.target));
    session.set_observer(None);
    let result = result.map_err(|e| map_deadline(e, observer.as_ref(), shared))?;
    Ok(BatchOutcome {
        result: Arc::new(result),
        batched_with: 1,
    })
}

/// Shared mode: join the entry's pending batch; lead it if first in.
/// Followers inherit the leader's budget: the leader's deadline observer
/// governs the whole `align_many` fan-out, and a deadline expiry is
/// distributed to every batch member as the same 504.
fn serve_batched(
    shared: &Arc<Shared>,
    entry: &Arc<SourceEntry>,
    target: AttributedNetwork,
    ctx: &RequestCtx,
    window: Duration,
) -> Result<BatchOutcome, ServeError> {
    let (tx, rx) = mpsc::channel();
    let is_leader = {
        let mut pending = entry.pending.lock().unwrap();
        pending.push(PendingAlign { target, tx });
        pending.len() == 1
    };
    if is_leader {
        if !window.is_zero() {
            std::thread::sleep(window);
        }
        // Serialise batches per source; concurrent requests for the same
        // source that arrive while we hold the session form the next batch.
        let mut session = entry.session.lock().unwrap();
        let batch: Vec<PendingAlign> = std::mem::take(&mut *entry.pending.lock().unwrap());
        debug_assert!(!batch.is_empty(), "leader's own request is in the batch");
        // Split by value: targets move into align_many's slice, senders stay
        // for result distribution — no per-request network deep copies.
        let (targets, senders): (Vec<AttributedNetwork>, Vec<_>) =
            batch.into_iter().map(|p| (p.target, p.tx)).unzip();
        {
            let mut stats = shared.requests.lock().unwrap();
            stats.batches += 1;
            stats.batched_requests += senders.len() as u64;
            stats.max_batch = stats.max_batch.max(senders.len() as u64);
        }
        let observer = arm_deadline(&mut session, ctx);
        let outcome = catch_session_panic(&mut session, |session| session.align_many(&targets));
        session.set_observer(None);
        drop(session);
        let outcome = outcome.map_err(|e| map_deadline(e, observer.as_ref(), shared));
        match outcome {
            Ok(results) => {
                debug_assert_eq!(results.len(), senders.len());
                let batched_with = senders.len();
                for (result, tx) in results.into_iter().zip(&senders) {
                    let _ = tx.send(Ok(BatchOutcome {
                        result: Arc::new(result),
                        batched_with,
                    }));
                }
            }
            Err(err) => {
                for tx in &senders {
                    let _ = tx.send(Err(err.clone()));
                }
            }
        }
    }
    rx.recv().map_err(|_| {
        ServeError::internal("batch leader dropped this request (leader thread failed)")
    })?
}

/// Runs `body` on the locked session, converting a panic that unwound out of
/// an alignment stage into an internal error — after resetting the session's
/// cached artifacts so it can never serve state influenced by the aborted
/// stage.
fn catch_session_panic<R>(
    session: &mut AlignmentSession,
    body: impl FnOnce(&mut AlignmentSession) -> htc_core::Result<R>,
) -> Result<R, ServeError> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(session))) {
        Ok(result) => result.map_err(ServeError::from),
        Err(payload) => {
            session.reset();
            let detail = panic_message(&payload);
            Err(ServeError::internal(format!(
                "alignment panicked ({detail}); session artifacts were reset"
            )))
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Streams the alignment response into any [`std::fmt::Write`] sink: a
/// `String` for small results, a chunked response body for large ones.  The
/// anchor rows — the part that scales with the graph — are written row by
/// row, never collected; the emitted bytes are identical either way.
fn render_align_response_to<W: std::fmt::Write>(
    out: &mut W,
    outcome: &BatchOutcome,
    cache_hit: bool,
    pairwise: bool,
) -> std::fmt::Result {
    let result = &outcome.result;
    out.write_str("{\"mode\":\"")?;
    out.write_str(if pairwise { "pairwise" } else { "shared" })?;
    out.write_str("\",\"cache_hit\":")?;
    out.write_str(if cache_hit { "true" } else { "false" })?;
    out.write_str(",\"batched_with\":")?;
    json::write_num(out, outcome.batched_with as f64)?;
    out.write_str(",\"anchors\":[")?;
    for (s, &t) in result.predicted_anchors().iter().enumerate() {
        if s > 0 {
            out.write_char(',')?;
        }
        out.write_char('[')?;
        json::write_num(out, s as f64)?;
        out.write_char(',')?;
        json::write_num(out, t as f64)?;
        out.write_char(',')?;
        // `score` reads the dense matrix or the Large tier's top-k rows,
        // whichever artifact this result carries.
        json::write_num(out, result.score(s, t))?;
        out.write_char(']')?;
    }
    out.write_str("],\"orbit_importance\":")?;
    json::arr(result.orbit_importance().iter().map(|&g| json::num(g))).render_to(out)?;
    out.write_str(",\"trusted_counts\":")?;
    json::arr(result.trusted_counts().iter().map(|&c| json::num(c as f64))).render_to(out)?;
    out.write_str(",\"loss_final\":")?;
    match result.loss_history().last() {
        Some(&l) => json::write_num(out, l)?,
        None => out.write_str("null")?,
    }
    out.write_str(",\"stages\":")?;
    out.write_str(&result.timer().stages_json())?;
    out.write_char('}')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_ladder_thresholds() {
        assert_eq!(pressure_level(0, 128), 0);
        assert_eq!(pressure_level(63, 128), 0);
        assert_eq!(pressure_level(64, 128), 1, "50% occupancy is level 1");
        assert_eq!(pressure_level(108, 128), 1);
        assert_eq!(pressure_level(109, 128), 2, "85% occupancy is level 2");
        assert_eq!(pressure_level(5, 0), 2, "zero capacity clamps, not panics");
    }

    #[test]
    fn batch_window_shrinks_under_pressure() {
        let base = Duration::from_millis(8);
        assert_eq!(effective_batch_window(base, 0), base);
        assert_eq!(effective_batch_window(base, 1), base / 2);
        assert_eq!(effective_batch_window(base, 2), Duration::ZERO);
    }

    /// A source declaring more nodes than its body has bytes is not routable:
    /// the router forwards it unhashed and the owning shard answers the 400.
    #[test]
    fn routing_fingerprint_rejects_num_nodes_beyond_the_body() {
        let oversized = b"{\"source\":{\"num_nodes\":1000000000000,\"edges\":[]},\
            \"target\":{\"num_nodes\":2,\"edges\":[[0,1]]}}";
        assert_eq!(routing_fingerprint(oversized), None);
        let routable = b"{\"source\":{\"num_nodes\":2,\"edges\":[[0,1]]}}";
        assert!(routing_fingerprint(routable).is_some());
    }

    #[test]
    fn back_pressure_errors_render_structured_bodies() {
        let err = ServeError::new(429, "rate_limited", "slow down").retry_after(250);
        let body = err.to_json(7);
        assert!(body.contains("\"retry_after_ms\":250"), "{body}");
        assert!(body.contains("\"queue_depth\":7"), "{body}");
        // Non-back-pressure statuses keep the lean error shape.
        let plain = ServeError::bad_request("nope").to_json(7);
        assert!(!plain.contains("retry_after_ms"), "{plain}");
        assert!(!plain.contains("queue_depth"), "{plain}");
    }
}
