//! Just enough HTTP/1.1 to serve JSON over a `TcpStream` — now with
//! persistent connections and streamed responses.
//!
//! The daemon hand-rolls its transport for the same reason the workspace
//! hand-rolls its compat crates: the build environment is offline, so no
//! hyper/axum.  The subset implemented here is deliberately small and
//! deliberately defensive: header and body sizes are capped so a malicious
//! peer cannot make the server buffer unbounded bytes, and every parse
//! failure maps to a `4xx` instead of a panic.
//!
//! ## Connection lifecycle
//!
//! A connection serves **many requests per socket**, but a worker only ever
//! holds it for one request *burst*: between requests the socket parks in
//! the runtime's reactor (`crate::reactor`), and when it becomes readable a
//! pool worker runs [`serve_burst`](crate::runtime::serve_burst) — the one
//! request loop both the shard and the fleet router use.  It parses one
//! request with [`read_request_limited`], writes one response, serves any
//! pipelined requests already buffered, and hands the socket back to the
//! reactor while [`Request::keep_alive`] holds.  `HTTP/1.1` defaults to
//! keep-alive, `HTTP/1.0` to close; a `Connection: close`/`keep-alive`
//! header overrides either way.  Any parse error closes the connection after
//! the error response — resynchronising inside a hostile byte stream is not
//! worth the attack surface.
//!
//! Slow-client defenses live in [`ReadLimits`]: the request head must
//! *complete* within a head deadline (a slow-header drip cannot ride
//! per-read timeouts forever), each read must progress within a stall cap
//! (a mid-body stall is torn down promptly), and the whole request is
//! bounded by a total deadline.  All three map to `408`, and the server
//! layer counts them as `stall_timeouts_closed`.
//!
//! ## Responses
//!
//! Small bodies go out in one `Content-Length` write
//! ([`write_json_response`]).  Every structured error — parse failures,
//! missing routes, back-pressure `429`/`503`/`504`, the router's `502` — is
//! a [`ServeError`] written by [`write_error`].  Large bodies (the
//! 100k-anchor alignment case) stream through a [`ChunkedWriter`] as
//! `Transfer-Encoding: chunked`, so the response never materialises as one
//! giant `String`; the writer implements [`std::fmt::Write`], which lets the
//! same rendering code fill either a `String` or the wire.

use crate::json;
use htc_core::HtcError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body, and on a response body the [`Client`]
/// reads.  Inline edge lists and attribute matrices for graphs in this
/// workspace's serving range fit comfortably; anything larger should ship as
/// a persisted artifact path instead.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Default per-read stall cap while actively reading a request; a peer that
/// stalls mid-exchange frees its worker.  (Idle time *between* requests is
/// governed by the reactor's timer wheel instead.)
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);
/// Default hard ceiling on parsing **one whole request**.  Per-read timeouts
/// alone would let a byte-trickling peer (one byte per 25 s) pin a pool
/// worker for hours and stall the shutdown join behind it; the deadline caps
/// any request's parse time — and therefore the worst-case drain — at 30 s.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Default deadline for the request *head* to arrive completely.  Tighter
/// than the whole-request deadline: heads are tiny, so a head that trickles
/// for this long is a slowloris, not a slow network.
const HEAD_DEADLINE: Duration = Duration::from_secs(10);
/// Chunked responses buffer up to this much before writing a chunk.
const CHUNK_BYTES: usize = 64 * 1024;

/// Read-progress deadlines for parsing one request — the slow-client
/// defenses.  The server layer derives these from its configured stall
/// timeout; [`Default`] gives the standalone values.
#[derive(Debug, Clone)]
pub struct ReadLimits {
    /// The whole head (request line + headers) must arrive within this.
    pub head_deadline: Duration,
    /// Every individual read must make progress within this (mid-body
    /// stall cap).
    pub stall: Duration,
    /// The whole request (head + body) must arrive within this.
    pub total: Duration,
}

impl Default for ReadLimits {
    fn default() -> Self {
        Self {
            head_deadline: HEAD_DEADLINE,
            stall: SOCKET_TIMEOUT,
            total: REQUEST_DEADLINE,
        }
    }
}

impl ReadLimits {
    /// Limits derived from one stall budget: the head must complete and any
    /// single read must progress within `stall`; the total request budget
    /// stays at the standalone default (never below the stall budget).
    pub fn with_stall(stall: Duration) -> Self {
        Self {
            head_deadline: stall,
            stall,
            total: REQUEST_DEADLINE.max(stall),
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response, per the
    /// request's HTTP version and `Connection` header.
    pub keep_alive: bool,
    /// All request headers — lower-cased names with trimmed values, in
    /// arrival order.  The server layer reads its extension headers
    /// (`X-HTC-Deadline-Ms`, `X-HTC-Client`) from here.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The first header with this (case-insensitive) name, if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// The one header lookup behind [`Request::header`],
/// [`ResponseHead::header`] and [`ClientResponse::header`]: the first value
/// whose (lower-cased) name matches `name` case-insensitively.
fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    let name = name.to_ascii_lowercase();
    headers
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v.as_str())
}

/// A request-level failure: HTTP status, machine-readable kind, message, and
/// — for the back-pressure statuses — an optional retry hint that also
/// becomes the `Retry-After` response header.  The only structured error on
/// either hop: request parse failures (`kind: "http"`), routing misses, the
/// runtime's shed and peer-cap refusals, the router's `502` and every
/// pipeline failure render as `{"error", "kind"}` (plus `retry_after_ms` and
/// `queue_depth` on `429`/`503`/`504`) and go out through [`write_error`].
#[derive(Debug, Clone)]
pub struct ServeError {
    pub status: u16,
    pub kind: &'static str,
    pub message: String,
    pub retry_after_ms: Option<u64>,
}

impl ServeError {
    pub(crate) fn new(status: u16, kind: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            kind,
            message: message.into(),
            retry_after_ms: None,
        }
    }

    pub(crate) fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, "bad_request", message)
    }

    pub(crate) fn internal(message: impl Into<String>) -> Self {
        Self::new(500, "internal", message)
    }

    pub(crate) fn deadline_exceeded(message: impl Into<String>) -> Self {
        Self::new(504, "deadline_exceeded", message)
    }

    pub(crate) fn retry_after(mut self, ms: u64) -> Self {
        self.retry_after_ms = Some(ms);
        self
    }

    /// A request the byte stream could not be parsed into: the connection
    /// closes after this reply.
    fn http(status: u16, message: impl Into<String>) -> Self {
        Self::new(status, "http", message)
    }

    /// The reply for a request no route matched: `404` for the methods the
    /// daemons serve (`GET`, `POST`), `405` for any other method.
    pub fn no_route(method: &str, path: &str) -> Self {
        match method {
            "GET" | "POST" => Self::new(404, "not_found", format!("no route {path}")),
            _ => Self::new(
                405,
                "method_not_allowed",
                format!("method {method} not allowed"),
            ),
        }
    }

    /// Renders the structured error body.  Every back-pressure response
    /// (429/503/504) carries `retry_after_ms` and the live `queue_depth` so
    /// clients can back off proportionally instead of guessing.
    pub(crate) fn to_json(&self, queue_depth: u64) -> String {
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

/// Arms the socket's read timeout with whatever is shorter: the per-read
/// stall cap or the time left until the phase deadline.  A spent deadline is
/// a `408`.
fn arm_read_timeout(
    reader: &BufReader<TcpStream>,
    deadline: Instant,
    stall: Duration,
) -> Result<(), ServeError> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| ServeError::http(408, "request took too long to arrive"))?;
    reader
        .get_ref()
        .set_read_timeout(Some(remaining.min(stall)))
        .map_err(|e| ServeError::http(400, format!("socket: {e}")))
}

fn read_error(e: std::io::Error, what: &str) -> ServeError {
    if is_stall_error(&e) {
        ServeError::http(408, format!("timed out reading {what}"))
    } else {
        ServeError::http(400, format!("reading {what}: {e}"))
    }
}

/// Reads one `\n`-terminated line, never buffering more than `limit` bytes —
/// `BufRead::read_line` has no cap of its own, so a peer streaming endless
/// bytes with no newline would otherwise grow the line String unboundedly.
fn read_line_limited(
    reader: &mut BufReader<TcpStream>,
    limit: usize,
    deadline: Instant,
    stall: Duration,
    what: &str,
) -> Result<String, ServeError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        arm_read_timeout(reader, deadline, stall)?;
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) => return Err(read_error(e, what)),
        };
        if buf.is_empty() {
            return Err(ServeError::http(
                400,
                format!("connection closed mid-{what}"),
            ));
        }
        let (chunk, found_newline) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (&buf[..=pos], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > limit {
            return Err(ServeError::http(431, "request head too large"));
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if found_newline {
            return String::from_utf8(line)
                .map_err(|_| ServeError::http(400, format!("{what} is not UTF-8")));
        }
    }
}

/// Reads one request from the connection's buffered reader.  The caller has
/// already established that request bytes are (about to be) available — the
/// reactor dispatched this connection as readable, or a pipelined request is
/// buffered.  The head must complete within `limits.head_deadline`, every
/// read must progress within `limits.stall`, and the whole request must
/// arrive within `limits.total`.
pub fn read_request_limited(
    reader: &mut BufReader<TcpStream>,
    limits: &ReadLimits,
) -> Result<Request, ServeError> {
    let start = Instant::now();
    let head_deadline = start + limits.head_deadline.min(limits.total);
    let deadline = start + limits.total;
    let stall = limits.stall;

    let request_line =
        read_line_limited(reader, MAX_HEAD_BYTES, head_deadline, stall, "request line")?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ServeError::http(400, "empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ServeError::http(400, "request line has no path"))?
        .to_string();
    // HTTP/1.1 (and anything newer or unstated) defaults to keep-alive;
    // HTTP/1.0 to close.
    let http_10 = parts.next() == Some("HTTP/1.0");

    // Headers until the blank line; Content-Length and Connection matter to
    // us.  The whole head shares the MAX_HEAD_BYTES budget, checked before
    // buffering.
    let mut head_budget = MAX_HEAD_BYTES.saturating_sub(request_line.len());
    let mut content_length: usize = 0;
    let mut keep_alive = !http_10;
    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line_limited(reader, head_budget, head_deadline, stall, "headers")?;
        head_budget = head_budget.saturating_sub(line.len());
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ServeError::http(400, "bad Content-Length"))?;
            } else if name.eq_ignore_ascii_case("connection") {
                let value = value.trim();
                if value.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if value.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
            // Retained generically (bounded by the head budget above) so the
            // server layer can read its extension headers.
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ServeError::http(
            413,
            format!("request body exceeds {MAX_BODY_BYTES} bytes"),
        ));
    }
    // The body is read in deadline-checked steps rather than one read_exact:
    // a peer drip-feeding a large body must exhaust the request deadline,
    // not hold the worker for content_length × per-read-timeout.
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        arm_read_timeout(reader, deadline, stall)?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => return Err(ServeError::http(400, "connection closed mid-body")),
            Ok(n) => filled += n,
            Err(e) => return Err(read_error(e, "body")),
        }
    }
    Ok(Request {
        method,
        path,
        body,
        keep_alive,
        headers,
    })
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Response",
    }
}

/// Whether an I/O error is a progress stall (a read/write timeout fired
/// because the peer stopped moving bytes) rather than a disconnect.  The
/// server layer counts these as `stall_timeouts_closed`.
pub fn is_stall_error(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

fn connection_header(keep_alive: bool) -> &'static str {
    if keep_alive {
        "keep-alive"
    } else {
        "close"
    }
}

/// Writes a complete `Content-Length` JSON response and flushes.
pub fn write_json_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    write_json(stream, status, body, keep_alive, None)
}

/// Writes a structured error response and flushes — the one writer of
/// [`ServeError`]s.  An error carrying a retry hint also gets a
/// `Retry-After` header of `ceil(ms / 1000)` seconds, at least 1; the
/// back-pressure statuses embed `queue_depth` in the body.
pub fn write_error(
    stream: &mut TcpStream,
    err: &ServeError,
    queue_depth: u64,
    keep_alive: bool,
) -> std::io::Result<()> {
    let retry_after_secs = err.retry_after_ms.map(|ms| ms.div_ceil(1000).max(1));
    write_json(
        stream,
        err.status,
        &err.to_json(queue_depth),
        keep_alive,
        retry_after_secs,
    )
}

fn write_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
    retry_after_secs: Option<u64>,
) -> std::io::Result<()> {
    let retry_after = match retry_after_secs {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry_after}Connection: {}\r\n\r\n{body}",
        status_text(status),
        body.len(),
        connection_header(keep_alive),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// A `Transfer-Encoding: chunked` response body in progress.
///
/// Text accumulates in a fixed-size buffer and leaves as a chunk whenever
/// `CHUNK_BYTES` fill up, so the peak memory of a response is one chunk —
/// not the whole body.  The writer implements [`std::fmt::Write`]; I/O errors
/// are latched and reported by [`finish`](Self::finish) (mid-render there is
/// nothing useful a renderer could do with them).
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
    buf: Vec<u8>,
    error: Option<std::io::Error>,
}

/// Starts a chunked JSON response: writes the head, returns the body writer.
pub fn begin_chunked_json(
    stream: &mut TcpStream,
    status: u16,
    keep_alive: bool,
) -> std::io::Result<ChunkedWriter<'_>> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\nConnection: {}\r\n\r\n",
        status_text(status),
        connection_header(keep_alive),
    );
    stream.write_all(head.as_bytes())?;
    Ok(ChunkedWriter {
        stream,
        buf: Vec::with_capacity(CHUNK_BYTES),
        error: None,
    })
}

impl ChunkedWriter<'_> {
    fn flush_chunk(&mut self) {
        if self.error.is_some() || self.buf.is_empty() {
            self.buf.clear();
            return;
        }
        let header = format!("{:x}\r\n", self.buf.len());
        let outcome = self
            .stream
            .write_all(header.as_bytes())
            .and_then(|()| self.stream.write_all(&self.buf))
            .and_then(|()| self.stream.write_all(b"\r\n"));
        if let Err(e) = outcome {
            self.error = Some(e);
        }
        self.buf.clear();
    }

    /// Flushes the remaining buffer, writes the terminating zero-length
    /// chunk, and surfaces any I/O error latched along the way.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.flush_chunk();
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

impl std::fmt::Write for ChunkedWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.buf.extend_from_slice(s.as_bytes());
        if self.buf.len() >= CHUNK_BYTES {
            self.flush_chunk();
        }
        Ok(())
    }
}

/// A minimal keep-alive HTTP/1.1 client over one socket — the counterpart
/// of this module's server half, shared by the examples, the `serve_load`
/// generator and the integration tests so the request framing (one write
/// per request, `TCP_NODELAY`, chunked-aware reads) lives in exactly one
/// place.
pub struct Client {
    /// Sole owner of the socket: reads go through the buffer, writes through
    /// [`BufReader::get_mut`].  One fd per connection, not two — at 10 000
    /// keep-alive clients the difference is half the process's fd budget.
    reader: BufReader<TcpStream>,
    /// Overall budget for reading one whole response; see
    /// [`set_response_deadline`](Self::set_response_deadline).
    response_deadline: Duration,
}

/// Default overall budget for reading one response (status line through the
/// last body byte).  Matches the old per-read socket timeout, but as a cap on
/// the *whole* response: a server trickling one byte per 59 s can no longer
/// hang a client indefinitely.
const CLIENT_RESPONSE_DEADLINE: Duration = Duration::from_secs(60);

impl Client {
    /// Connects with `TCP_NODELAY` (a second segment on a warm connection
    /// would stall ~40ms behind Nagle + delayed ACK); reads are bounded by
    /// the response deadline (default 60 s per response).
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream)
    }

    /// [`connect`](Self::connect) with a bound on the TCP handshake itself —
    /// the fleet router and the supervisor's health prober must learn "this
    /// shard is unreachable" in milliseconds, not after the kernel's minutes-
    /// long connect timeout.
    pub fn connect_timeout(
        addr: std::net::SocketAddr,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        Client::from_stream(stream)
    }

    /// Wraps an already-connected stream (e.g. one opened before the server
    /// had a free worker, to observe queueing).
    pub fn from_stream(stream: TcpStream) -> std::io::Result<Client> {
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(60))).ok();
        Ok(Client {
            reader: BufReader::new(stream),
            response_deadline: CLIENT_RESPONSE_DEADLINE,
        })
    }

    /// Caps how long [`read`](Self::read) may spend on one whole response.
    /// Every read along the way is bounded by the remaining budget, so a
    /// stalled — or byte-trickling — server fails the exchange within the
    /// deadline instead of hanging the client forever.
    pub fn set_response_deadline(&mut self, deadline: Duration) {
        self.response_deadline = deadline;
    }

    /// Writes one request (single write; keep-alive unless `close`).
    pub fn send_with(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<()> {
        self.send_with_headers(method, path, body, close, &[])
    }

    /// [`send_with`](Self::send_with) plus extra request headers (e.g. the
    /// `X-HTC-Deadline-Ms` budget or the `X-HTC-Client` identity).
    pub fn send_with_headers(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        self.send_request_bytes(method, path, body.as_bytes(), close, headers)
    }

    /// Writes one keep-alive request.
    pub fn send(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<()> {
        self.send_with(method, path, body, false)
    }

    /// Writes one request with a raw byte body — the proxy path, where the
    /// router forwards a request body verbatim without asserting it is UTF-8.
    pub fn send_request_bytes(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        close: bool,
        headers: &[(&str, &str)],
    ) -> std::io::Result<()> {
        let connection = if close { "close" } else { "keep-alive" };
        let mut extra = String::new();
        for (name, value) in headers {
            extra.push_str(&format!("{name}: {value}\r\n"));
        }
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: client\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n{extra}Connection: {connection}\r\n\r\n",
            body.len()
        );
        let mut request = Vec::with_capacity(head.len() + body.len());
        request.extend_from_slice(head.as_bytes());
        request.extend_from_slice(body);
        self.reader.get_mut().write_all(&request)
    }

    /// The buffered read half — the fleet router relays response bytes
    /// straight off it after [`read_response_head`].
    pub fn reader_mut(&mut self) -> &mut BufReader<TcpStream> {
        &mut self.reader
    }

    /// Reads the next response off the persistent connection, bounded by the
    /// response deadline.
    pub fn read(&mut self) -> Result<ClientResponse, String> {
        read_client_response_deadline(&mut self.reader, Instant::now() + self.response_deadline)
    }

    /// One full exchange on the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<ClientResponse, String> {
        self.send(method, path, body)
            .map_err(|e| format!("send: {e}"))?;
        self.read()
    }

    /// Raw access to the socket, for tests that write hostile bytes.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.reader.get_mut()
    }

    /// True once the server has closed the connection — clean FIN (EOF) or
    /// RST (the server dropped the socket with unread bytes pending).
    pub fn closed(&mut self) -> bool {
        let mut byte = [0u8; 1];
        match self.reader.read(&mut byte) {
            Ok(0) => true,
            Ok(_) => false,
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        }
    }
}

/// A client-side response, as read by [`read_client_response_deadline`].
#[derive(Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Lower-cased header names with their trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// The server's retry hint in milliseconds: the structured JSON body's
    /// `retry_after_ms` if present, else the `Retry-After` header (seconds).
    pub fn retry_after_ms(&self) -> Option<u64> {
        if let Some(ms) = crate::json::parse(self.body_str())
            .ok()
            .and_then(|v| v.get("retry_after_ms").and_then(crate::json::Json::as_f64))
        {
            return Some(ms.max(0.0) as u64);
        }
        self.header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|secs| secs.saturating_mul(1000))
    }
}

/// Arms the socket read timeout with the time left until `deadline` (capped
/// at 1 s so each wait re-checks the budget promptly); a spent budget is the
/// deadline error.
fn arm_client_timeout(reader: &BufReader<TcpStream>, deadline: Instant) -> Result<(), String> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or("response deadline exceeded")?;
    reader
        .get_ref()
        .set_read_timeout(Some(remaining.min(Duration::from_secs(1))))
        .map_err(|e| format!("socket: {e}"))
}

fn client_read_error(e: std::io::Error, deadline: Instant) -> String {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) && Instant::now() >= deadline
    {
        "response deadline exceeded".into()
    } else {
        format!("reading response: {e}")
    }
}

/// Fills `buf` completely in deadline-checked steps — the client-side twin of
/// the server's drip-feed defence: a peer trickling body bytes exhausts the
/// response deadline instead of resetting a per-read timeout forever.
fn read_exact_deadline(
    reader: &mut BufReader<TcpStream>,
    buf: &mut [u8],
    deadline: Instant,
) -> Result<(), String> {
    let mut filled = 0;
    while filled < buf.len() {
        arm_client_timeout(reader, deadline)?;
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err("connection closed mid-response".into()),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(client_read_error(e, deadline)),
        }
    }
    Ok(())
}

/// Reads one HTTP response from a persistent connection — status line,
/// headers, then a `Content-Length` or `Transfer-Encoding: chunked` body —
/// within one overall deadline covering the whole response.  This is the
/// client half of the protocol, used by the keep-alive clients in
/// `examples/serve_client.rs`, the `serve_load` generator and the
/// integration tests.
pub fn read_client_response_deadline(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
) -> Result<ClientResponse, String> {
    let head = read_response_head(reader, deadline)?;
    let chunked = head_is_chunked(&head);
    let mut body = Vec::new();
    if chunked {
        loop {
            let size_line = read_line_deadline(reader, deadline)?;
            let size = usize::from_str_radix(size_line.trim(), 16)
                .map_err(|_| format!("bad chunk size {size_line:?}"))?;
            // Bound the declared size before allocating for it.
            let total = body.len().checked_add(size);
            if total.is_none_or(|total| total > MAX_BODY_BYTES) {
                return Err(format!("response body exceeds {MAX_BODY_BYTES} bytes"));
            }
            let mut chunk = vec![0u8; size + 2]; // chunk + trailing CRLF
            read_exact_deadline(reader, &mut chunk, deadline)?;
            if size == 0 {
                break;
            }
            chunk.truncate(size);
            body.extend_from_slice(&chunk);
        }
    } else {
        let length = head_content_length(&head)?;
        if length > MAX_BODY_BYTES {
            return Err(format!("response body exceeds {MAX_BODY_BYTES} bytes"));
        }
        body = vec![0u8; length];
        read_exact_deadline(reader, &mut body, deadline)?;
    }
    Ok(ClientResponse {
        status: head.status,
        headers: head.headers,
        body,
    })
}

/// One `\n`-terminated line off a response stream, collected via
/// fill_buf/consume rather than `read_line`: `read_line` discards the bytes
/// it already appended when a read times out, so a line arriving in trickles
/// would silently lose its prefix between attempts.
fn read_line_deadline(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
) -> Result<String, String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        arm_client_timeout(reader, deadline)?;
        let buf = match reader.fill_buf() {
            Ok([]) => return Err("connection closed".into()),
            Ok(buf) => buf,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(client_read_error(e, deadline)),
        };
        let (chunk, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => (&buf[..=pos], true),
            None => (buf, false),
        };
        if line.len() + chunk.len() > MAX_HEAD_BYTES {
            return Err("response line exceeds the head budget".into());
        }
        line.extend_from_slice(chunk);
        let consumed = chunk.len();
        reader.consume(consumed);
        if done {
            return String::from_utf8(line).map_err(|_| "response is not UTF-8".into());
        }
    }
}

/// The status line and headers of one response, parsed but with the body
/// still unread on the stream.  This is the decision point for a proxy: a
/// head that arrived means the upstream is committed to answering, so the
/// caller can start relaying; a head that failed means the request can still
/// fail over to another upstream with nothing written downstream.
#[derive(Debug)]
pub struct ResponseHead {
    pub status: u16,
    /// Lower-cased names with trimmed values, in arrival order.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

fn head_is_chunked(head: &ResponseHead) -> bool {
    head.header("transfer-encoding")
        .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
}

fn head_content_length(head: &ResponseHead) -> Result<usize, String> {
    head.header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "response has neither Content-Length nor chunked encoding".into())
}

/// Reads one response head (status line + headers) off the stream, leaving
/// the body unread.
pub fn read_response_head(
    reader: &mut BufReader<TcpStream>,
    deadline: Instant,
) -> Result<ResponseHead, String> {
    let status_line = read_line_deadline(reader, deadline)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut headers = Vec::new();
    loop {
        let header = read_line_deadline(reader, deadline)?;
        let trimmed = header.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok(ResponseHead { status, headers })
}

/// Why a [`relay_response`] failed — the two sides matter differently to a
/// proxy: an upstream failure mid-body leaves the downstream response torn
/// (the connection must close), while a downstream failure just means the
/// client went away.
#[derive(Debug)]
pub enum RelayError {
    Upstream(String),
    Downstream(std::io::Error),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::Upstream(e) => write!(f, "upstream: {e}"),
            RelayError::Downstream(e) => write!(f, "downstream: {e}"),
        }
    }
}

/// Relays one already-read [`ResponseHead`] plus its still-unread body from
/// `upstream` to `downstream`, preserving the body framing: a
/// `Content-Length` body is copied in bounded buffers, a chunked body is
/// re-framed chunk by chunk — a streamed upstream response stays streamed
/// through the proxy, with peak memory one copy buffer regardless of body
/// size.
///
/// Every upstream header is forwarded verbatim except `Connection`, which is
/// rewritten for the *downstream* connection's keep-alive state (the two
/// hops' lifetimes are independent), plus any `extra_headers` the proxy wants
/// to inject (e.g. `X-HTC-Shard`).
pub fn relay_response(
    upstream: &mut BufReader<TcpStream>,
    head: &ResponseHead,
    downstream: &mut TcpStream,
    keep_alive: bool,
    extra_headers: &[(&str, String)],
    deadline: Instant,
) -> Result<(), RelayError> {
    let mut out = format!("HTTP/1.1 {} {}\r\n", head.status, status_text(head.status));
    for (name, value) in &head.headers {
        if name == "connection" {
            continue;
        }
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    for (name, value) in extra_headers {
        out.push_str(&format!("{name}: {value}\r\n"));
    }
    out.push_str(&format!(
        "Connection: {}\r\n\r\n",
        connection_header(keep_alive)
    ));
    downstream
        .write_all(out.as_bytes())
        .map_err(RelayError::Downstream)?;

    if head_is_chunked(head) {
        loop {
            let size_line = read_line_deadline(upstream, deadline).map_err(RelayError::Upstream)?;
            let bad_size = || RelayError::Upstream(format!("bad chunk size {size_line:?}"));
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| bad_size())?;
            // The chunk and its trailing CRLF; the zero-length terminator
            // carries just the CRLF.
            let framed = size.checked_add(2).ok_or_else(bad_size)?;
            downstream
                .write_all(format!("{size:x}\r\n").as_bytes())
                .map_err(RelayError::Downstream)?;
            copy_exact(upstream, downstream, framed, deadline)?;
            if size == 0 {
                break;
            }
        }
    } else {
        let length = head_content_length(head).map_err(RelayError::Upstream)?;
        copy_exact(upstream, downstream, length, deadline)?;
    }
    downstream.flush().map_err(RelayError::Downstream)
}

/// Copies exactly `count` body bytes upstream → downstream through one
/// bounded buffer, every read deadline-checked.
fn copy_exact(
    upstream: &mut BufReader<TcpStream>,
    downstream: &mut TcpStream,
    count: usize,
    deadline: Instant,
) -> Result<(), RelayError> {
    let mut remaining = count;
    let mut buf = [0u8; 16 * 1024];
    while remaining > 0 {
        arm_client_timeout(upstream, deadline).map_err(RelayError::Upstream)?;
        let want = remaining.min(buf.len());
        match upstream.read(&mut buf[..want]) {
            Ok(0) => {
                return Err(RelayError::Upstream("connection closed mid-body".into()));
            }
            Ok(n) => {
                downstream
                    .write_all(&buf[..n])
                    .map_err(RelayError::Downstream)?;
                remaining -= n;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => return Err(RelayError::Upstream(client_read_error(e, deadline))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(headers: &[(&str, &str)], body: &str) -> ClientResponse {
        ClientResponse {
            status: 429,
            headers: headers
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn retry_after_ms_prefers_the_body_then_the_header() {
        let both = response(&[("retry-after", "3")], "{\"retry_after_ms\":250}");
        assert_eq!(both.retry_after_ms(), Some(250));
        let header_only = response(&[("retry-after", " 2 ")], "{\"error\":\"busy\"}");
        assert_eq!(header_only.retry_after_ms(), Some(2000));
        let huge = response(&[("retry-after", &u64::MAX.to_string())], "");
        assert_eq!(huge.retry_after_ms(), Some(u64::MAX));
        assert_eq!(response(&[], "not json").retry_after_ms(), None);
    }
}
