//! The `htc-serve` daemon: request routing, the artifact cache, and
//! same-source request batching, running on the bounded connection runtime.
//!
//! ## Life of an align request
//!
//! 1. The connection parks in the event-driven reactor between requests
//!    (see [`crate::runtime`] and [`crate::reactor`]); when it becomes
//!    readable, a pool worker serves one request *burst* and hands the
//!    socket back.  The JSON body is parsed and the **source** network
//!    resolved (inline payload or persisted files).
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
//! cache / stage-timer counters and the runtime occupancy gauges.

use crate::cache::{attribute_fingerprint, ArtifactCache, CacheKey, DurableStore};
use crate::fair::{FairnessConfig, PeerLimiter, SourceGate};
use crate::fault::FaultPlan;
use crate::http::{
    begin_chunked_json, is_stall_error, read_request_limited, write_json_response,
    write_json_response_with, HttpError, ReadLimits, Request,
};
use crate::json::{self, Json};
use crate::runtime::{
    default_workers, Conn, ConnHandler, ConnectionRuntime, Disposition, RuntimeConfig,
    RuntimeMetrics, ShutdownSignal,
};
use htc_core::{
    graph_fingerprint, AlignmentSession, DeadlineObserver, HtcConfig, HtcError, HtcResult,
    ProgressObserver, TopologyViews, TrainedEncoder,
};
use htc_graph::io::read_network;
use htc_graph::{AttributedNetwork, Graph};
use htc_linalg::DenseMatrix;
use htc_metrics::StageTimer;
use std::io::BufRead;
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
    /// Preset used when a request does not name one.
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

/// A request-level failure: HTTP status, machine-readable kind, message, and
/// — for the back-pressure statuses — an optional retry hint that also
/// becomes the `Retry-After` response header.
#[derive(Debug, Clone)]
pub struct ServeError {
    pub status: u16,
    pub kind: &'static str,
    pub message: String,
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad_request", message)
    }

    fn internal(message: impl Into<String>) -> Self {
        Self::new(500, "internal", message)
    }

    fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self::new(504, "deadline_exceeded", message)
    }

    fn retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// Renders the structured error body.  Every back-pressure response
    /// (429/503/504) carries `retry_after_ms` and the live `queue_depth` so
    /// clients can back off proportionally instead of guessing.
    fn to_json(&self, queue_depth: u64) -> String {
        let mut fields = vec![
            ("error", json::str(self.message.clone())),
            ("kind", json::str(self.kind)),
        ];
        if matches!(self.status, 429 | 503 | 504) {
            fields.push((
                "retry_after_ms",
                json::num(self.retry_after_ms.unwrap_or(0) as f64),
            ));
            fields.push(("queue_depth", json::num(queue_depth as f64)));
        }
        json::obj(fields).render()
    }
}

impl From<HtcError> for ServeError {
    fn from(e: HtcError) -> Self {
        let (status, kind) = match &e {
            // Untrusted persisted bytes and incompatible artifacts are the
            // client's problem, reported as unprocessable — never a panic.
            HtcError::Persistence(_) => (422, "invalid_artifact"),
            HtcError::Io(_) => (422, "artifact_io"),
            HtcError::InvalidConfig(_) => (422, "invalid_config"),
            HtcError::AttributeDimensionMismatch { .. } => (422, "dimension_mismatch"),
            HtcError::EmptyNetwork => (422, "empty_network"),
            HtcError::Cancelled => (503, "cancelled"),
            HtcError::Linalg(_) => (500, "internal"),
        };
        Self::new(status, kind, e.to_string())
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
#[derive(Debug, Default)]
struct RequestStats {
    align_ok: u64,
    align_err: u64,
    batches: u64,
    batched_requests: u64,
    max_batch: u64,
}

struct Shared {
    config: ServerConfig,
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
    /// Binds and starts serving; returns once the listener is live.
    pub fn start(mut config: ServerConfig) -> std::io::Result<Server> {
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
            retry_after_secs: 1,
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

/// What a routed request produces: a ready body, a structured error (which
/// may carry a `Retry-After` header), a large alignment to stream, or the
/// shutdown acknowledgement that must flush before the runtime begins
/// draining.
enum Reply {
    Json(u16, String),
    Error(ServeError),
    Align {
        outcome: BatchOutcome,
        cache_hit: bool,
        pairwise: bool,
    },
    Shutdown(String),
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

/// Serves one request *burst* on a dispatched connection: the request that
/// made the socket readable, plus any pipelined requests already buffered.
/// Returns [`Disposition::KeepAlive`] to park the socket back in the reactor
/// between requests, [`Disposition::Close`] to end the connection (peer
/// hangup, parse error, stall teardown, `Connection: close`, or shutdown).
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
    let mut served_in_burst = 0u64;
    loop {
        if !conn.has_buffered() {
            // A dispatch with no buffered bytes is either the first request
            // of the burst or a clean FIN from a parked peer; peek before
            // parsing so a normal hangup is not answered with a 400.
            let reader = conn.reader_mut();
            if reader
                .get_ref()
                .set_read_timeout(Some(limits.stall))
                .is_err()
            {
                return Disposition::Close;
            }
            match reader.fill_buf() {
                Ok([]) => return Disposition::Close,
                Ok(_) => {}
                Err(e) => {
                    if is_stall_error(&e) {
                        shared.metrics.stall_timeouts_closed.inc();
                    }
                    return Disposition::Close;
                }
            }
        }
        // First request of the burst: the budget covers queue wait (anchor =
        // the reactor's dispatch stamp) but not parked idle time, which is
        // the client's own.  Pipelined successors anchor at now.
        let anchor = if served_in_burst == 0 {
            conn.dispatched_at()
        } else {
            Instant::now()
        };
        let request = match read_request_limited(conn.reader_mut(), &limits) {
            Ok(request) => request,
            Err(HttpError { status, message }) => {
                if status == 408 {
                    shared.metrics.stall_timeouts_closed.inc();
                }
                let body = json::obj(vec![
                    ("error", json::str(message)),
                    ("kind", json::str("http")),
                ])
                .render();
                // A connection whose byte stream failed to parse is not worth
                // resynchronising: answer and close.  The worker itself moves
                // on to the next dispatched connection unharmed.
                let _ = write_json_response(conn.stream_mut(), status, &body, false);
                return Disposition::Close;
            }
        };
        shared.metrics.total_requests.inc();
        let keep_alive = request.keep_alive && !shared.shutdown.is_triggered();
        if let Some(fault) = &shared.config.fault {
            // Injected slow socket: the request stalls before being served,
            // which is how the chaos suite exercises client-side response
            // deadlines and server-side queue-inclusive budgets.
            if let Some(delay) = fault.socket_delay() {
                std::thread::sleep(delay);
            }
        }
        let reply = pre_route(&request, shared, anchor, &peer_ip).unwrap_or_else(|| {
            // The route handler runs under catch_unwind: a panic anywhere in
            // the pipeline (e.g. a worker panic propagated by the thread
            // pool) must take down one response, not the daemon or its
            // worker.
            let ctx = RequestCtx {
                deadline: request_deadline(&request, shared, anchor)
                    .expect("pre_route rejected invalid deadline headers"),
            };
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(&request, shared, &ctx)
            }));
            routed.unwrap_or_else(|_| {
                shared.metrics.worker_panics.inc();
                Reply::Error(ServeError::internal(
                    "request handler panicked; session state was reset",
                ))
            })
        });
        let stream = conn.stream_mut();
        let io_outcome = match reply {
            Reply::Json(status, body) => write_json_response(stream, status, &body, keep_alive),
            Reply::Error(err) => {
                let retry_secs = err.retry_after_ms.map(|ms| ms.div_ceil(1000).max(1));
                write_json_response_with(
                    stream,
                    err.status,
                    &err.to_json(shared.metrics.queue_depth.get()),
                    keep_alive,
                    retry_secs,
                )
            }
            Reply::Align {
                outcome,
                cache_hit,
                pairwise,
            } => write_align_response(stream, shared, &outcome, cache_hit, pairwise, keep_alive),
            Reply::Shutdown(body) => {
                // Deterministic shutdown: the acknowledgement is fully
                // written and flushed *before* the drain begins — no helper
                // thread racing the response out of the process.
                let written = write_json_response(stream, 200, &body, false);
                shared.shutdown.trigger();
                let _ = written;
                conn.note_request();
                return Disposition::Close;
            }
        };
        conn.note_request();
        served_in_burst += 1;
        if let Err(e) = io_outcome {
            // A write that timed out (rather than failed outright) is a
            // stalled reader: the kernel send buffer absorbed what it could
            // and the peer stopped draining it.
            if is_stall_error(&e) {
                shared.metrics.stall_timeouts_closed.inc();
            }
            return Disposition::Close;
        }
        if !keep_alive {
            return Disposition::Close;
        }
        if !conn.has_buffered() {
            // Burst over: nothing pipelined behind this request, so hand the
            // socket back to the reactor until it is readable again.
            return Disposition::KeepAlive;
        }
    }
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

fn route(request: &Request, shared: &Arc<Shared>, ctx: &RequestCtx) -> Reply {
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
            Reply::Json(200, json::obj(fields).render())
        }
        ("GET", "/stats") => Reply::Json(200, stats_json(shared)),
        ("POST", "/align") => match handle_align(request, shared, ctx) {
            Ok(reply) => {
                shared.requests.lock().unwrap().align_ok += 1;
                reply
            }
            Err(err) => {
                shared.requests.lock().unwrap().align_err += 1;
                Reply::Error(err)
            }
        },
        ("POST", "/shutdown") => {
            Reply::Shutdown(json::obj(vec![("status", json::str("stopping"))]).render())
        }
        ("POST", _) | ("GET", _) => Reply::Json(
            404,
            json::obj(vec![
                ("error", json::str(format!("no route {}", request.path))),
                ("kind", json::str("not_found")),
            ])
            .render(),
        ),
        (method, _) => Reply::Json(
            405,
            json::obj(vec![
                ("error", json::str(format!("method {method} not allowed"))),
                ("kind", json::str("method_not_allowed")),
            ])
            .render(),
        ),
    }
}

/// Renders `/stats`: request counters, cache counters + hit rate (including
/// the durable spill layer), batching figures, the connection-runtime
/// gauges, and two stage-timer views — the shared source-side stages of
/// every cached session, and the accumulated per-request (target-side)
/// stages.
fn stats_json(shared: &Arc<Shared>) -> String {
    let cache = shared.cache.lock().unwrap();
    let cache_stats = cache.stats();
    let mut shared_stages = StageTimer::new();
    let mut busy_sessions = 0usize;
    for entry in cache.values() {
        // try_lock: a session mid-alignment should not stall /stats.
        match entry.session.try_lock() {
            Ok(session) => shared_stages.merge(session.timer()),
            Err(_) => busy_sessions += 1,
        }
    }
    let entries = cache.len();
    let capacity = cache.capacity();
    drop(cache);
    let (spills, reloads, reload_errors) = match &shared.durable {
        Some(store) => (
            store.spills.get(),
            store.reloads.get(),
            store.reload_errors.get(),
        ),
        None => (0, 0, 0),
    };
    let requests = shared.requests.lock().unwrap();
    let request_timer = shared.request_timer.lock().unwrap();
    let metrics = &shared.metrics;
    json::obj(vec![
        (
            "uptime_seconds",
            json::num(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "requests",
            json::obj(vec![
                ("total", json::num(metrics.total_requests.get() as f64)),
                ("align_ok", json::num(requests.align_ok as f64)),
                ("align_err", json::num(requests.align_err as f64)),
            ]),
        ),
        (
            "runtime",
            json::obj(vec![
                // The kernel ISA the dispatcher selected (or was forced to
                // via HTC_FORCE_ISA) — the /stats view of the same decision
                // `linalg::active_isa()` reports.
                ("active_isa", json::str(htc_linalg::active_isa().name())),
                ("workers", json::num(shared.config.workers as f64)),
                (
                    "active_connections",
                    json::num(metrics.active_connections.get() as f64),
                ),
                ("queue_depth", json::num(metrics.queue_depth.get() as f64)),
                (
                    "queue_high_water",
                    json::num(metrics.queue_depth.high_water() as f64),
                ),
                (
                    "total_connections",
                    json::num(metrics.total_connections.get() as f64),
                ),
                (
                    "total_requests",
                    json::num(metrics.total_requests.get() as f64),
                ),
                ("reuse_ratio", json::num(metrics.reuse_ratio())),
                ("parked", json::num(metrics.parked.get() as f64)),
                (
                    "reactor_wakeups",
                    json::num(metrics.reactor_wakeups.get() as f64),
                ),
                (
                    "stall_timeouts_closed",
                    json::num(metrics.stall_timeouts_closed.get() as f64),
                ),
                (
                    "peer_cap_rejections",
                    json::num(metrics.peer_cap_rejections.get() as f64),
                ),
                (
                    "shed_connections",
                    json::num(metrics.shed_connections.get() as f64),
                ),
                (
                    "worker_panics",
                    json::num(metrics.worker_panics.get() as f64),
                ),
            ]),
        ),
        (
            "cache",
            json::obj(vec![
                ("entries", json::num(entries as f64)),
                ("capacity", json::num(capacity as f64)),
                ("hits", json::num(cache_stats.hits as f64)),
                ("misses", json::num(cache_stats.misses as f64)),
                ("evictions", json::num(cache_stats.evictions as f64)),
                ("hit_rate", json::num(cache_stats.hit_rate())),
                ("spills", json::num(spills as f64)),
                ("reloads", json::num(reloads as f64)),
                ("reload_errors", json::num(reload_errors as f64)),
            ]),
        ),
        (
            "batching",
            json::obj(vec![
                ("batches", json::num(requests.batches as f64)),
                (
                    "batched_requests",
                    json::num(requests.batched_requests as f64),
                ),
                ("max_batch", json::num(requests.max_batch as f64)),
            ]),
        ),
        (
            "robustness",
            json::obj(vec![
                (
                    "pressure_level",
                    json::num(pressure_level(
                        metrics.queue_depth.get(),
                        shared.config.queue_capacity,
                    ) as f64),
                ),
                (
                    "deadline_expired",
                    json::num(metrics.deadline_expired.get() as f64),
                ),
                ("rate_limited", json::num(metrics.rate_limited.get() as f64)),
                (
                    "degraded_responses",
                    json::num(metrics.degraded_responses.get() as f64),
                ),
                (
                    "faults_injected",
                    json::num(
                        shared
                            .config
                            .fault
                            .as_ref()
                            .map_or(0, |plan| plan.injected.get()) as f64,
                    ),
                ),
            ]),
        ),
        ("pipeline", {
            // The tier the default preset runs at — operators use this
            // to confirm a node serves Large-tier (blocked top-k)
            // traffic before pointing a 100k-node workload at it.
            let default_config =
                preset_config(&shared.config.default_preset).unwrap_or_else(|_| HtcConfig::fast());
            json::obj(vec![
                (
                    "default_preset",
                    json::str(shared.config.default_preset.clone()),
                ),
                ("scale", json::str(default_config.scale.name())),
                ("top_k", json::num(default_config.top_k as f64)),
                ("max_nodes", json::num(shared.config.max_nodes as f64)),
            ])
        }),
        ("busy_sessions", json::num(busy_sessions as f64)),
        ("shared_stages", json_raw(shared_stages.stages_json())),
        ("request_stages", json_raw(request_timer.stages_json())),
    ])
    .render()
}

/// Wraps an already-rendered JSON fragment (`StageTimer::stages_json` renders
/// its own JSON) so it can be embedded without re-parsing.
fn json_raw(fragment: String) -> Json {
    Json::Raw(fragment)
}

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

fn preset_config(name: &str) -> Result<HtcConfig, ServeError> {
    match name {
        "fast" => Ok(HtcConfig::fast()),
        "small" => Ok(HtcConfig::small()),
        "paper" => Ok(HtcConfig::paper()),
        "large" => Ok(HtcConfig::large()),
        other => Err(ServeError::bad_request(format!(
            "unknown preset {other:?} (expected fast|small|paper|large)"
        ))),
    }
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
fn parse_network(
    artifact_root: Option<&Path>,
    spec: &Json,
    what: &str,
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
/// source, bad graph) — any shard will reject it with the same 400/422, so
/// the router may send it anywhere.
pub fn routing_fingerprint(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let root = json::parse(text).ok()?;
    let source = root.get("source")?;
    if let Some(stem) = source.get("stem") {
        return stem.as_str().map(|s| crate::cache::fnv1a(s.as_bytes()));
    }
    let network = parse_network(None, source, "source").ok()?;
    Some(graph_fingerprint(network.graph()))
}

fn parse_align_request(shared: &Shared, body: &[u8]) -> Result<AlignRequest, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not UTF-8"))?;
    let root = json::parse(text)
        .map_err(|e| ServeError::bad_request(format!("invalid JSON body: {e}")))?;
    let preset_name = match root.get("preset") {
        None => shared.config.default_preset.clone(),
        Some(p) => p
            .as_str()
            .ok_or_else(|| ServeError::bad_request("preset must be a string"))?
            .to_string(),
    };
    let mut config = preset_config(&preset_name)?;
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
    let source = parse_network(artifact_root, source_spec, "source")?;
    let target = parse_network(artifact_root, target_spec, "target")?;
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
) -> Result<Reply, ServeError> {
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
    // hold at most its share of the worker pool; below it the gate only
    // tracks occupancy (an idle server never rejects).  The slot is RAII —
    // held until this request finishes.
    let source_cap = (pressure >= 1 && shared.config.fairness.source_share > 0.0).then(|| {
        ((shared.config.workers as f64 * shared.config.fairness.source_share).floor() as usize)
            .max(1)
    });
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
    Ok(Reply::Align {
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
/// passes, which surfaces as [`HtcError::Cancelled`]; the latch it sets is
/// what lets [`map_deadline`] distinguish a deadline 504 from an external
/// cancellation 503.
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
