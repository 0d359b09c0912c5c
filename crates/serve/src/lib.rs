//! # htc-serve
//!
//! A long-running HTTP/JSON alignment server over the staged
//! [`AlignmentSession`](htc_core::AlignmentSession) API — the "heavy traffic
//! from one catalog source" deployment shape the session API was built for.
//!
//! The daemon is hand-rolled over [`std::net::TcpListener`] (the workspace is
//! offline — no hyper, no serde): [`reactor`] is the event-driven readiness
//! loop (epoll/kqueue via raw syscalls — no libc, no mio) that parks idle
//! keep-alive sockets and enforces idle timeouts on a timer wheel,
//! [`runtime`] the acceptor + reactor + bounded worker-pool executor with
//! `503 Retry-After` load shedding, per-peer connection caps and the
//! request-burst loop the shard and the fleet router share, [`http`] the
//! persistent-connection HTTP/1.1 subset (keep-alive, slow-client read
//! deadlines, chunked response streaming, the one structured error
//! [`ServeError`]), [`json`] the JSON subset,
//! [`cache`] the fingerprint-keyed LRU artifact cache with its durable
//! `--cache-dir` spill layer, and [`server`] the routing, request batching
//! and panic recovery.  Worker occupancy is per in-flight *request burst*,
//! not per connection: ten thousand idle persistent clients cost file
//! descriptors and reactor bookkeeping, never pool threads.
//!
//! ```no_run
//! use htc_serve::{Server, ServerConfig};
//!
//! let server = Server::start(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join();
//! ```
//!
//! ## Endpoints
//!
//! * `POST /align` — align a source/target pair.  Networks are inline
//!   (`{"num_nodes", "edges", "attributes"?}`) or on disk (`{"stem": ...}`);
//!   the source may name persisted `views_path` / `encoder_path` artifacts
//!   for a warm start.  Repeat sources hit the artifact cache; concurrent
//!   same-source requests are batched onto one
//!   [`align_many`](htc_core::AlignmentSession::align_many) fan-out.
//! * `GET /healthz` — liveness.
//! * `GET /stats` — cache hit rates (memory + durable spill layer), request
//!   counters, batching figures, connection-runtime gauges (active
//!   connections, queue depth, parked connections, reactor wakeups, stall
//!   teardowns, peer-cap rejections, keep-alive reuse ratio) and per-stage
//!   [`StageTimer`](htc_metrics::StageTimer) aggregates, rendered from one
//!   table of figures, [`server::STATS`].
//! * `POST /shutdown` — clean stop: the acknowledgement flushes, then the
//!   worker pool drains and joins deterministically.
//!
//! ## Request-lifecycle hardening
//!
//! Every request can carry a time budget (`--request-deadline-secs` default,
//! `X-HTC-Deadline-Ms` header override) that covers queue wait *and*
//! compute; an over-budget request gets a structured `504` through the
//! cooperative-cancellation path and the session stays reusable.  [`fair`]
//! adds per-client token buckets (`429 Retry-After`) and per-source
//! weighted fair scheduling; a pressure ladder over queue occupancy shrinks
//! the batch window and sheds cold starts before the queue overflows.
//! [`fault`] provides seeded deterministic fault injection (`--fault-plan`
//! / `HTC_FAULT`) for the chaos suite.

pub mod cache;
pub mod fair;
pub mod fault;
pub mod http;
pub mod json;
pub mod reactor;
pub mod runtime;
pub mod server;
pub mod signal;

pub use cache::{attribute_fingerprint, ArtifactCache, CacheKey, CacheStats, DurableStore};
pub use fair::{FairnessConfig, PeerLimiter, SourceGate};
pub use fault::{FaultPlan, WriteFault};
pub use http::ServeError;
pub use runtime::{
    default_workers, Conn, ConnHandler, ConnectionRuntime, Disposition, RuntimeConfig,
    RuntimeMetrics,
};
pub use server::{routing_fingerprint, Server, ServerConfig};
pub use signal::install_shutdown_handler;
