//! The connection runtime: acceptor + reactor + bounded worker pool.
//!
//! The first `htc-serve` iteration spawned one OS thread per connection and
//! spoke one-shot HTTP.  PR 4 replaced that with a bounded worker pool — but
//! one worker still owned one connection for its whole keep-alive lifetime,
//! so a few thousand idle persistent clients exhausted the pool.  This
//! revision makes worker occupancy **per in-flight request**:
//!
//! * the acceptor registers every new connection with the event-driven
//!   [`reactor`](crate::reactor) instead of handing it a worker.  Sockets
//!   between requests park there, watched by epoll/kqueue, costing no
//!   threads;
//! * only when a parked socket becomes **readable** does the reactor push it
//!   onto the bounded hand-off queue.  When the queue is full the connection
//!   is **shed** with `503 Retry-After`, so overload degrades into fast,
//!   explicit retries instead of unbounded memory growth;
//! * a worker serves one request *burst* — the readable request plus any
//!   pipelined requests already buffered — then returns a [`Disposition`]:
//!   `KeepAlive` re-parks the socket in the reactor, `Close` drops it;
//! * idle keep-alive timeouts are enforced by the reactor's timer wheel (no
//!   per-connection poll slices), and per-peer connection caps are enforced
//!   at accept ([`RuntimeConfig::peer_max_conns`]) so one host cannot
//!   monopolise the parked population;
//! * live occupancy metrics ([`RuntimeMetrics`], now including the parked
//!   gauge and reactor counters) are surfaced through `/stats`;
//! * deterministic shutdown: [`ShutdownSignal::trigger`] stops the acceptor,
//!   the reactor reaps every parked socket, the queue drains (dispatched
//!   connections are still served), and every worker **and** the reactor are
//!   joined before [`ConnectionRuntime::join`] returns.
//!
//! The pool itself is protocol-agnostic — a [`ConnHandler`] serves one burst
//! on a [`Conn`] and reports how the connection continues via its
//! [`Disposition`].  The HTTP burst loop both daemons run lives here too, in
//! [`serve_burst`]: the FIN peek, the deadline anchor, request parsing with
//! its stall accounting, keep-alive and pipelining, the `/shutdown` ordering
//! and the one structured error writer.  The shard and the fleet router hand
//! it only a per-request route returning a [`Reply`], so each hop has exactly
//! one place where a request is read, timed and answered.

use crate::http::{
    is_stall_error, read_request_limited, write_error, write_json_response, ReadLimits, Request,
    ServeError,
};
use crate::json;
use crate::reactor::Reactor;
use htc_metrics::{Counter, Gauge};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Hard ceiling on the worker pool, mirroring the compute pool's cap.
pub const MAX_WORKERS: usize = 256;

/// `Retry-After` hint (seconds) on the runtime's own refusals: the shed
/// `503` and the peer-cap `429`.
const RETRY_AFTER_SECS: u64 = 1;

/// Read-buffer size for each connection.  Small on purpose: with ten
/// thousand parked connections the buffers dominate per-connection memory,
/// and request heads fit comfortably while bodies bypass the buffer.
const CONN_BUF_BYTES: usize = 4 * 1024;

/// The default worker count: `min(2 × available cores, 64)`.  Workers block
/// on socket I/O only while a request is in flight (idle connections park in
/// the reactor), so this now bounds *concurrent requests*, not connections.
pub fn default_workers() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (2 * cores).clamp(1, 64)
}

/// Configuration of a [`ConnectionRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Worker-pool size; clamped to `1..=MAX_WORKERS`.
    pub workers: usize,
    /// Readable connections waiting for a worker beyond this count are shed
    /// with `503 Retry-After`.
    pub queue_capacity: usize,
    /// How long a parked connection may sit idle between requests before the
    /// reactor closes it (the HTTP keep-alive timeout).
    pub idle_timeout: Duration,
    /// Write-progress deadline applied to every connection: a peer that
    /// accepts no response bytes for this long (stalled reader) fails the
    /// write and is torn down instead of pinning a worker behind a dead
    /// socket.  The kernel send buffer is the bounded staging area.
    pub stall_timeout: Duration,
    /// Maximum simultaneous connections per peer IP; `0` disables the cap.
    /// Enforced at accept with a `429` teardown, counted in
    /// [`RuntimeMetrics::peer_cap_rejections`].
    pub peer_max_conns: usize,
    /// Cap (bytes) on each accepted connection's kernel send buffer; `0`
    /// keeps the kernel default with autotuning.  Autotuned send buffers
    /// grow to megabytes, so a stalled reader can absorb that much response
    /// before the write-progress deadline ever engages — capping the buffer
    /// bounds per-connection kernel memory and makes the stall teardown
    /// deterministic.
    pub sndbuf: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: default_workers(),
            queue_capacity: 128,
            idle_timeout: Duration::from_secs(15),
            stall_timeout: Duration::from_secs(5),
            peer_max_conns: 0,
            sndbuf: 0,
        }
    }
}

/// Best-effort `SO_SNDBUF` cap on an accepted socket.  Setting the option
/// also locks it (`SOCK_SNDBUF_LOCK`), which is the point: it disables send
/// autotuning so the buffer cannot quietly grow back to megabytes under a
/// stalled reader.  Raw syscall — same no-libc discipline as the reactor.
#[cfg(unix)]
fn set_sndbuf(stream: &TcpStream, bytes: usize) {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    const SO_SNDBUF: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "linux"))]
    const SO_SNDBUF: i32 = 0x1001;
    let value = i32::try_from(bytes).unwrap_or(i32::MAX);
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            &value,
            std::mem::size_of::<i32>() as u32,
        );
    }
}

#[cfg(not(unix))]
fn set_sndbuf(_stream: &TcpStream, _bytes: usize) {}

/// Live occupancy counters, updated lock-free by the acceptor, the reactor
/// and the workers.
///
/// `total_requests / total_connections` is the keep-alive reuse ratio: 1.0
/// means every connection carried exactly one request (no reuse); a serving
/// workload with persistent clients should sit well above it.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    /// Connections currently owned by workers (in-flight request bursts).
    pub active_connections: Gauge,
    /// Readable connections waiting for a worker.
    pub queue_depth: Gauge,
    /// Connections currently parked in the reactor between requests.
    pub parked: Gauge,
    /// Times the reactor loop woke (events, parks, or timer ticks).  An idle
    /// parked population holds this flat — the busy-poll regression guard.
    pub reactor_wakeups: Counter,
    /// Connections torn down because a read or write stopped progressing
    /// within the stall deadline (slow-header, mid-body, stalled-reader).
    pub stall_timeouts_closed: Counter,
    /// Connections refused at accept by the per-peer connection cap.
    pub peer_cap_rejections: Counter,
    /// Connections ever accepted (including shed and refused ones).
    pub total_connections: Counter,
    /// HTTP requests served across all connections (incremented by
    /// [`serve_burst`], one per parsed request).
    pub total_requests: Counter,
    /// Connections answered `503` because the queue was full.
    pub shed_connections: Counter,
    /// Request handlers that panicked (caught at the burst boundary).
    pub worker_panics: Counter,
    /// Requests answered `504` because their deadline (which covers queue
    /// wait, not just compute) expired.
    pub deadline_expired: Counter,
    /// Requests answered `429` by the per-peer token bucket or the per-source
    /// fair-share gate.
    pub rate_limited: Counter,
    /// Requests answered degraded (`503`) by the pressure ladder instead of
    /// paying a cold start.
    pub degraded_responses: Counter,
}

impl RuntimeMetrics {
    /// Requests per connection (0 when nothing connected yet).
    pub fn reuse_ratio(&self) -> f64 {
        let connections = self.total_connections.get();
        if connections == 0 {
            0.0
        } else {
            self.total_requests.get() as f64 / connections as f64
        }
    }
}

/// A shutdown flag shared between the runtime, its workers and the protocol
/// handler.  [`trigger`](Self::trigger) is idempotent and safe to call from
/// a worker thread (the `/shutdown` route) or from outside.
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    flag: AtomicBool,
    /// The listener's bound address; set by the runtime so `trigger` can
    /// wake the blocking accept with a throwaway connection.
    addr: Mutex<Option<std::net::SocketAddr>>,
}

impl ShutdownSignal {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_triggered(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Requests shutdown and wakes the acceptor.  Returns immediately; use
    /// [`ConnectionRuntime::join`] to wait for the drain.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let addr = *self.addr.lock().unwrap();
        if let Some(addr) = addr {
            // Wake the blocking accept; the acceptor re-checks the flag
            // before registering any connection, then drains the reactor.
            let _ = TcpStream::connect(addr);
        }
    }

    fn bind(&self, addr: std::net::SocketAddr) {
        *self.addr.lock().unwrap() = Some(addr);
    }
}

/// Per-peer simultaneous-connection accounting behind
/// [`RuntimeConfig::peer_max_conns`].
#[derive(Default)]
struct PeerTable {
    counts: Mutex<HashMap<IpAddr, usize>>,
}

impl PeerTable {
    /// Claims a slot for `ip`, or `None` when the peer is at its cap.
    fn try_acquire(self: &Arc<Self>, ip: IpAddr, cap: usize) -> Option<PeerSlot> {
        let mut counts = self.counts.lock().unwrap();
        let count = counts.entry(ip).or_insert(0);
        if *count >= cap {
            return None;
        }
        *count += 1;
        Some(PeerSlot {
            table: Arc::clone(self),
            ip,
        })
    }
}

/// RAII release of one peer-cap slot: lives inside the [`Conn`], so however
/// a connection ends — served, shed, idle-reaped, drain sweep — the peer's
/// count comes back down.
struct PeerSlot {
    table: Arc<PeerTable>,
    ip: IpAddr,
}

impl Drop for PeerSlot {
    fn drop(&mut self) {
        let mut counts = self.table.counts.lock().unwrap();
        if let Some(count) = counts.get_mut(&self.ip) {
            *count -= 1;
            if *count == 0 {
                counts.remove(&self.ip);
            }
        }
    }
}

/// One live connection, owned alternately by a worker (request burst in
/// flight) and the reactor (parked between requests).  The buffered reader
/// is created once at accept and travels with the socket, so bytes that
/// arrive between "burst finished" and "reactor registered" are never lost:
/// the burst loop serves everything buffered before returning `KeepAlive`,
/// and level-triggered readiness re-reports anything that raced in after.
pub struct Conn {
    /// Sole owner of the socket fd.  Reads go through the buffer; writes go
    /// through [`BufReader::get_mut`] (writing does not disturb the read
    /// buffer).  One fd per parked connection instead of the two a
    /// `try_clone` split would cost — at 10 000 idle clients that halves the
    /// server's fd footprint.
    reader: BufReader<TcpStream>,
    dispatched_at: Instant,
    /// Held for the connection's lifetime; dropping it releases the peer's
    /// connection-cap slot.
    _peer_slot: Option<PeerSlot>,
}

impl Conn {
    fn new(stream: TcpStream, peer_slot: Option<PeerSlot>) -> Conn {
        Conn {
            reader: BufReader::with_capacity(CONN_BUF_BYTES, stream),
            dispatched_at: Instant::now(),
            _peer_slot: peer_slot,
        }
    }

    pub fn reader_mut(&mut self) -> &mut BufReader<TcpStream> {
        &mut self.reader
    }

    pub fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// The write half.  Writing through the buffered reader's inner stream is
    /// safe — only reads through the buffer itself would desynchronise it.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// When the reactor last handed this connection to the worker pool — the
    /// deadline anchor for the burst's first request.  Queue wait counts
    /// against the request budget; parked idle time (the client's own) does
    /// not, so a connection that idled longer than the request deadline is
    /// not condemned the moment it finally speaks.
    pub fn dispatched_at(&self) -> Instant {
        self.dispatched_at
    }

    /// Stamped by the reactor as it hands the connection to the pool.
    pub(crate) fn note_dispatched(&mut self) {
        self.dispatched_at = Instant::now();
    }

    /// Whether a pipelined request is already buffered — if so the burst
    /// loop must keep serving instead of parking (the reactor would never
    /// see buffered bytes, only socket readiness).
    pub fn has_buffered(&self) -> bool {
        !self.reader.buffer().is_empty()
    }

    pub(crate) fn raw_fd(&self) -> RawFd {
        self.reader.get_ref().as_raw_fd()
    }

    /// Surrenders the socket, discarding any buffered-but-unparsed request
    /// bytes — only used on the shed path, where the connection is about to
    /// be closed with an error response anyway.
    pub(crate) fn into_stream(self) -> TcpStream {
        self.reader.into_inner()
    }
}

/// What a handler decided about the connection after one request burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Park in the reactor and wait for the next request.
    KeepAlive,
    /// Close the connection now.
    Close,
}

/// The protocol handler: serves one request burst on a dispatched
/// connection and reports how the connection should continue.
pub type ConnHandler = Arc<dyn Fn(&mut Conn) -> Disposition + Send + Sync>;

/// What a [`serve_burst`] route produced for one request.
pub enum Reply {
    /// A JSON body to send with this status.
    Json(u16, String),
    /// A structured error, sent through [`write_error`].
    Error(ServeError),
    /// The route wrote its own response.  `Ok(false)` means the connection
    /// cannot be reused (a relay torn mid-body).
    Written(std::io::Result<bool>),
    /// `POST /shutdown`: the acknowledgement is written and flushed, then the
    /// shutdown signal fires and the connection closes.
    Shutdown,
}

/// Serves one request *burst* on a dispatched connection: the request that
/// made the socket readable, plus any pipelined requests already buffered.
/// `route` answers one parsed request, given its deadline anchor, whether
/// the connection stays open after it, and the socket for routes that write
/// their own response.
///
/// The first request's anchor is the reactor's dispatch stamp, so queue wait
/// counts against a request budget but parked idle time (the client's own)
/// does not; pipelined successors anchor at the moment they are read.  A
/// request that fails to parse is answered with a `kind: "http"` error and
/// the connection closes.  Read and write stalls are counted in
/// [`RuntimeMetrics::stall_timeouts_closed`].
///
/// Returns [`Disposition::KeepAlive`] to park the socket back in the reactor
/// between requests, [`Disposition::Close`] to end the connection (peer
/// hangup, parse error, stall teardown, `Connection: close`, or shutdown).
pub fn serve_burst(
    conn: &mut Conn,
    limits: &ReadLimits,
    metrics: &RuntimeMetrics,
    shutdown: &ShutdownSignal,
    mut route: impl FnMut(&Request, Instant, bool, &mut TcpStream) -> Reply,
) -> Disposition {
    let mut anchor = conn.dispatched_at();
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
                        metrics.stall_timeouts_closed.inc();
                    }
                    return Disposition::Close;
                }
            }
        }
        let request = match read_request_limited(conn.reader_mut(), limits) {
            Ok(request) => request,
            Err(err) => {
                if err.status == 408 {
                    metrics.stall_timeouts_closed.inc();
                }
                // A connection whose byte stream failed to parse is not worth
                // resynchronising: answer and close.  The worker itself moves
                // on to the next dispatched connection unharmed.
                let _ = write_error(conn.stream_mut(), &err, metrics.queue_depth.get(), false);
                return Disposition::Close;
            }
        };
        metrics.total_requests.inc();
        let keep_alive = request.keep_alive && !shutdown.is_triggered();
        let stream = conn.stream_mut();
        let written = match route(&request, anchor, keep_alive, stream) {
            Reply::Json(status, body) => {
                write_json_response(stream, status, &body, keep_alive).map(|()| true)
            }
            Reply::Error(err) => {
                write_error(stream, &err, metrics.queue_depth.get(), keep_alive).map(|()| true)
            }
            Reply::Written(outcome) => outcome,
            Reply::Shutdown => {
                // Deterministic shutdown: the acknowledgement is fully
                // written and flushed *before* the drain begins — no helper
                // thread racing the response out of the process.
                let body = json::obj(vec![("status", json::str("stopping"))]).render();
                let _ = write_json_response(stream, 200, &body, false);
                shutdown.trigger();
                return Disposition::Close;
            }
        };
        match written {
            Ok(true) if keep_alive => {}
            Ok(_) => return Disposition::Close,
            Err(e) => {
                // A write that timed out (rather than failed outright) is a
                // stalled reader: the kernel send buffer absorbed what it
                // could and the peer stopped draining it.
                if is_stall_error(&e) {
                    metrics.stall_timeouts_closed.inc();
                }
                return Disposition::Close;
            }
        }
        if !conn.has_buffered() {
            // Burst over: nothing pipelined behind this request, so hand the
            // socket back to the reactor until it is readable again.
            return Disposition::KeepAlive;
        }
        anchor = Instant::now();
    }
}

pub(crate) struct Queue {
    state: Mutex<QueueState>,
    available: Condvar,
}

struct QueueState {
    connections: VecDeque<Conn>,
    closed: bool,
}

impl Queue {
    fn new() -> Self {
        Self {
            state: Mutex::new(QueueState {
                connections: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Enqueues if below `capacity`; the rejected connection comes back for
    /// shedding.  The depth gauge is incremented under the queue lock so it
    /// never counts rejected connections and a worker's decrement (which can
    /// only follow a successful pop, hence this lock) is always ordered
    /// after it.
    pub(crate) fn push(&self, conn: Conn, capacity: usize, depth: &Gauge) -> Result<(), Conn> {
        let mut state = self.state.lock().unwrap();
        if state.closed || state.connections.len() >= capacity {
            return Err(conn);
        }
        state.connections.push_back(conn);
        depth.inc();
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next readable connection; `None` once the queue is
    /// closed **and** drained — the worker's signal to exit.
    fn pop(&self) -> Option<Conn> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(conn) = state.connections.pop_front() {
                return Some(conn);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap();
        }
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.available.notify_all();
    }
}

/// A running acceptor + reactor + worker pool bound to one listener.
pub struct ConnectionRuntime {
    accept_thread: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<RuntimeMetrics>,
    shutdown: Arc<ShutdownSignal>,
}

impl ConnectionRuntime {
    /// Starts the reactor, the pool and the accept loop.  `handler` serves
    /// one request burst per dispatch and runs on a pool worker under a
    /// panic guard: a panic that unwinds out of it drops the connection,
    /// increments `worker_panics`, and the worker lives on — the pool never
    /// shrinks.
    ///
    /// `metrics` is caller-supplied so the protocol layer can hold the same
    /// handle (it increments `total_requests` and the stall counters) and
    /// report everything through one `/stats` snapshot.
    pub fn start(
        listener: TcpListener,
        config: RuntimeConfig,
        shutdown: Arc<ShutdownSignal>,
        metrics: Arc<RuntimeMetrics>,
        handler: ConnHandler,
    ) -> std::io::Result<ConnectionRuntime> {
        let addr = listener.local_addr()?;
        shutdown.bind(addr);
        let workers = config.workers.clamp(1, MAX_WORKERS);
        let queue = Arc::new(Queue::new());
        let mut reactor = Reactor::start(
            config.idle_timeout,
            Arc::clone(&queue),
            Arc::clone(&metrics),
            config.queue_capacity.max(1),
        )?;
        let reactor_handle = reactor.handle();

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let queue = Arc::clone(&queue);
            let metrics = Arc::clone(&metrics);
            let handler = Arc::clone(&handler);
            let reactor_handle = reactor_handle.clone();
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("htc-serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(mut conn) = queue.pop() {
                            metrics.queue_depth.dec();
                            metrics.active_connections.inc();
                            // The protocol handler catches panics per
                            // request; this guard is the backstop for
                            // anything that escapes it (e.g. a response
                            // *writer* panic), so a bug costs one connection
                            // — never a worker, and never a drifting gauge.
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    handler(&mut conn)
                                }));
                            metrics.active_connections.dec();
                            match outcome {
                                Ok(Disposition::KeepAlive) => reactor_handle.park(conn),
                                Ok(Disposition::Close) => drop(conn),
                                Err(_) => {
                                    metrics.worker_panics.inc();
                                    drop(conn);
                                }
                            }
                        }
                    })?,
            );
        }

        let accept_metrics = Arc::clone(&metrics);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("htc-serve-accept".into())
            .spawn(move || {
                accept_loop(
                    listener,
                    &config,
                    &reactor_handle,
                    &accept_metrics,
                    &accept_shutdown,
                );
                // Deterministic drain, in dependency order: no new
                // connections; the reactor reaps every parked socket and is
                // joined; the queue closes so workers finish what was
                // already dispatched; every worker is joined.  Bursts that
                // finish mid-drain and try to re-park find the reactor
                // draining and close instead.
                reactor.drain_and_join();
                queue.close();
                for handle in worker_handles {
                    let _ = handle.join();
                }
            })?;

        Ok(ConnectionRuntime {
            accept_thread: Some(accept_thread),
            metrics,
            shutdown,
        })
    }

    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Waits until the accept loop has exited, the reactor has reaped every
    /// parked connection, and every worker is joined.  Call
    /// [`ShutdownSignal::trigger`] (or POST `/shutdown`) to initiate.
    pub fn join(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ConnectionRuntime {
    fn drop(&mut self) {
        // RAII backstop: a runtime dropped without an explicit shutdown still
        // stops accepting, reaps the parked population and joins every worker
        // instead of hanging or leaking detached threads.
        self.shutdown.trigger();
        self.join();
    }
}

fn accept_loop(
    listener: TcpListener,
    config: &RuntimeConfig,
    reactor: &crate::reactor::ReactorHandle,
    metrics: &RuntimeMetrics,
    shutdown: &ShutdownSignal,
) {
    let peers = Arc::new(PeerTable::default());
    for stream in listener.incoming() {
        if shutdown.is_triggered() {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        // Keep-alive exchanges are small request/response turns; Nagle's
        // algorithm pairing with delayed ACKs would add ~40ms to every turn
        // on a warm connection.
        let _ = stream.set_nodelay(true);
        metrics.total_connections.inc();
        let peer_slot = if config.peer_max_conns > 0 {
            let ip = stream.peer_addr().map(|a| a.ip());
            match ip {
                Ok(ip) => match peers.try_acquire(ip, config.peer_max_conns) {
                    Some(slot) => Some(slot),
                    None => {
                        metrics.peer_cap_rejections.inc();
                        reject_peer_cap(stream, metrics.queue_depth.get());
                        continue;
                    }
                },
                Err(_) => None,
            }
        } else {
            None
        };
        // The write-progress deadline: a stalled reader fails the in-flight
        // write once the kernel send buffer has absorbed what it can.
        if !config.stall_timeout.is_zero() {
            let _ = stream.set_write_timeout(Some(config.stall_timeout));
        }
        if config.sndbuf > 0 {
            set_sndbuf(&stream, config.sndbuf);
        }
        // Every connection starts parked: the reactor dispatches it to the
        // pool the moment the first request bytes arrive, so a client that
        // connects and stalls costs no worker at all.
        reactor.park(Conn::new(stream, peer_slot));
    }
}

/// Refuses one over-cap connection from a greedy peer: a bounded-write `429`
/// with a backoff hint, then close.  Runs on the acceptor thread, so every
/// wait is tightly bounded.
fn reject_peer_cap(mut stream: TcpStream, queue_depth: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let err = ServeError::new(
        429,
        "peer_connection_cap",
        "too many connections from this peer",
    )
    .retry_after(RETRY_AFTER_SECS * 1000);
    let _ = write_error(&mut stream, &err, queue_depth, false);
}

/// Sheds one over-capacity connection: writes the `503 Retry-After`, sends
/// FIN, then briefly drains whatever request bytes the peer already sent.
/// Dropping the socket with unread bytes pending would RST and frequently
/// destroy the in-flight 503 — the client would see "connection reset"
/// instead of the explicit backoff hint.  All waits are tightly bounded
/// because this runs on the reactor thread: a well-behaved peer drains in
/// one non-blocking read; a hostile one costs at most ~160 ms.
pub(crate) fn shed_conn(conn: Conn, queue_depth: u64) {
    let mut rejected = conn.into_stream();
    rejected
        .set_write_timeout(Some(Duration::from_secs(1)))
        .ok();
    let err = ServeError::new(503, "overloaded", "server is at capacity")
        .retry_after(RETRY_AFTER_SECS * 1000);
    if write_error(&mut rejected, &err, queue_depth, false).is_err() {
        return;
    }
    let _ = rejected.shutdown(std::net::Shutdown::Write);
    rejected
        .set_read_timeout(Some(Duration::from_millis(20)))
        .ok();
    let mut sink = [0u8; 4096];
    for _ in 0..8 {
        match rejected.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn test_config(workers: usize, queue_capacity: usize) -> RuntimeConfig {
        RuntimeConfig {
            workers,
            queue_capacity,
            idle_timeout: Duration::from_secs(10),
            ..RuntimeConfig::default()
        }
    }

    /// The runtime's own refusals carry the structured back-pressure body:
    /// `kind`, a one-second `retry_after_ms` and the live `queue_depth`.
    fn assert_structured_refusal(response: &str, kind: &str) {
        let (_, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a body");
        let body = json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
        assert_eq!(body.get("kind").and_then(json::Json::as_str), Some(kind));
        assert_eq!(
            body.get("retry_after_ms").and_then(json::Json::as_f64),
            Some(1000.0)
        );
        assert!(
            body.get("queue_depth")
                .and_then(json::Json::as_f64)
                .is_some(),
            "{}",
            body.render()
        );
    }

    #[test]
    fn default_workers_is_bounded() {
        let n = default_workers();
        assert!((1..=64).contains(&n));
    }

    #[test]
    fn reuse_ratio_divides_requests_by_connections() {
        let m = RuntimeMetrics::default();
        assert_eq!(m.reuse_ratio(), 0.0);
        m.total_connections.inc();
        m.total_connections.inc();
        m.total_requests.add(6);
        assert!((m.reuse_ratio() - 3.0).abs() < 1e-12);
    }

    /// Pool mechanics without HTTP: readable connections are dispatched to
    /// exactly `workers` threads, excess queues, and shutdown drains
    /// deterministically.
    #[test]
    fn pool_serves_queues_and_drains() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(ShutdownSignal::new());
        let handler: ConnHandler = Arc::new(|conn: &mut Conn| {
            let mut byte = [0u8; 1];
            // Echo one byte, then close: the "request" is the byte itself.
            let got = conn.reader_mut().read(&mut byte).map(|n| n == 1);
            if got.unwrap_or(false) {
                let _ = conn.stream_mut().write_all(&byte);
            }
            Disposition::Close
        });
        let mut runtime = ConnectionRuntime::start(
            listener,
            test_config(2, 16),
            Arc::clone(&shutdown),
            Arc::new(RuntimeMetrics::default()),
            handler,
        )
        .unwrap();
        let metrics = runtime.metrics();

        // 6 concurrent connections through 2 workers: all complete.
        let clients: Vec<_> = (0..6u8)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    stream.write_all(&[i]).unwrap();
                    let mut echoed = [0u8; 1];
                    stream.read_exact(&mut echoed).unwrap();
                    echoed[0]
                })
            })
            .collect();
        let mut echoes: Vec<u8> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        echoes.sort_unstable();
        assert_eq!(echoes, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(metrics.total_connections.get(), 6);

        shutdown.trigger();
        runtime.join();
        // After join, the gauges are settled: nothing active, queued or
        // parked.
        assert_eq!(metrics.active_connections.get(), 0);
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(metrics.parked.get(), 0);
        assert!(metrics.active_connections.high_water() <= 2);
    }

    /// A handler panic costs one connection, never a worker: the pool keeps
    /// serving, the gauges settle, and the panic is counted.
    #[test]
    fn handler_panic_does_not_kill_the_worker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(ShutdownSignal::new());
        let handler: ConnHandler = Arc::new(|conn: &mut Conn| {
            let mut byte = [0u8; 1];
            conn.reader_mut().read_exact(&mut byte).unwrap();
            if byte[0] == b'!' {
                panic!("injected handler failure");
            }
            conn.stream_mut().write_all(&byte).unwrap();
            Disposition::Close
        });
        let mut runtime = ConnectionRuntime::start(
            listener,
            test_config(1, 4),
            Arc::clone(&shutdown),
            Arc::new(RuntimeMetrics::default()),
            handler,
        )
        .unwrap();
        let metrics = runtime.metrics();

        // First connection makes the (single) worker panic...
        let mut poison = TcpStream::connect(addr).unwrap();
        poison.write_all(b"!").unwrap();
        let mut end = Vec::new();
        let _ = poison.read_to_end(&mut end); // connection dropped by the guard

        // ...and the same worker still serves the next connection.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"a").unwrap();
        let mut echoed = [0u8; 1];
        stream.read_exact(&mut echoed).unwrap();
        assert_eq!(&echoed, b"a");
        assert_eq!(metrics.worker_panics.get(), 1);

        shutdown.trigger();
        runtime.join();
        assert_eq!(metrics.active_connections.get(), 0);
    }

    /// A full queue sheds with 503 + Retry-After, written by the reactor on
    /// dispatch.  Saturation now requires *in-flight requests* (idle
    /// connections park for free), so every client sends a byte: the first
    /// pins the only worker, the second fills the queue, the third is shed.
    #[test]
    fn full_queue_sheds_with_retry_after() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(ShutdownSignal::new());
        // The handler announces itself, then parks until released — which
        // lets the test sequence "worker busy" and "queue full"
        // deterministically instead of racing the dispatch loop.
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        let handler: ConnHandler = Arc::new(move |_conn: &mut Conn| {
            let _ = started_tx.send(());
            let _ = release_rx.lock().unwrap().recv();
            Disposition::Close
        });
        let mut runtime = ConnectionRuntime::start(
            listener,
            test_config(1, 1),
            Arc::clone(&shutdown),
            Arc::new(RuntimeMetrics::default()),
            handler,
        )
        .unwrap();
        // Rebind after the runtime so an assert failure unwinds in the right
        // order: the sender drops first, releasing any parked handler, and
        // only then does the runtime's Drop join its workers.
        let release_tx = release_tx;
        let metrics = runtime.metrics();

        // First connection sends a byte and occupies the worker...
        let mut held_a = TcpStream::connect(addr).unwrap();
        held_a.write_all(b"a").unwrap();
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("worker picked up the first connection");
        // ...second sends a byte and fills the queue (the worker is parked,
        // so its dispatch stays queued).
        let mut held_b = TcpStream::connect(addr).unwrap();
        held_b.write_all(b"b").unwrap();
        for _ in 0..200 {
            if metrics.queue_depth.get() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.active_connections.get(), 1);
        assert_eq!(metrics.queue_depth.get(), 1);

        // Third connection sends a byte: its dispatch finds the queue full
        // and the reactor sheds it.
        let mut shed = TcpStream::connect(addr).unwrap();
        shed.write_all(b"c").unwrap();
        shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut response = String::new();
        shed.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 503"), "{response}");
        assert!(response.contains("Retry-After: 1\r\n"), "{response}");
        assert_structured_refusal(&response, "overloaded");
        assert_eq!(metrics.shed_connections.get(), 1);

        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        shutdown.trigger();
        runtime.join();
        drop(held_a);
        drop(held_b);
        assert_eq!(metrics.queue_depth.get(), 0);
    }

    /// The per-peer connection cap refuses the over-cap connect with a 429
    /// and releases the slot when an earlier connection closes.
    #[test]
    fn peer_cap_rejects_and_releases() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(ShutdownSignal::new());
        let handler: ConnHandler = Arc::new(|_conn: &mut Conn| Disposition::Close);
        let config = RuntimeConfig {
            workers: 1,
            peer_max_conns: 2,
            ..RuntimeConfig::default()
        };
        let runtime = ConnectionRuntime::start(
            listener,
            config,
            Arc::clone(&shutdown),
            Arc::new(RuntimeMetrics::default()),
            handler,
        )
        .unwrap();
        let metrics = runtime.metrics();

        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        // Both idle connections must be parked (at the cap) before the third
        // connect, or the refusal would race the accepts.
        for _ in 0..200 {
            if metrics.parked.get() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(metrics.parked.get(), 2);

        let mut over = TcpStream::connect(addr).unwrap();
        over.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut response = String::new();
        over.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1\r\n"), "{response}");
        assert_structured_refusal(&response, "peer_connection_cap");
        assert_eq!(metrics.peer_cap_rejections.get(), 1);

        // Closing one in-cap connection frees a slot for a fresh connect.
        drop(a);
        let mut slot_freed = false;
        for _ in 0..200 {
            let c = TcpStream::connect(addr).unwrap();
            c.set_read_timeout(Some(Duration::from_millis(100))).ok();
            let mut probe = c;
            let mut buf = [0u8; 1];
            match probe.read(&mut buf) {
                // Parked and idle: no response bytes, read times out.
                Err(ref e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    slot_freed = true;
                    break;
                }
                // A 429 means the old slot has not drained yet; retry.
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        assert!(slot_freed, "peer slot was not released");
        drop(b);
    }
}
