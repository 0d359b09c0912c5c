//! `htc-serve` — the long-running HTTP/JSON alignment daemon.
//!
//! Serves align requests over a fingerprint-keyed artifact cache: the first
//! request for a source graph pays orbit counting + training, every repeat
//! source skips straight to per-target fine-tuning, and concurrent
//! same-source requests are batched onto one `align_many` fan-out.
//! Connections are served by a bounded worker pool with HTTP keep-alive;
//! idle keep-alive sockets park in an epoll/kqueue reactor (workers are
//! occupied per in-flight request, not per connection), slow clients are
//! torn down on `--stall-timeout-ms` progress deadlines, `--peer-max-conns`
//! caps simultaneous connections per peer IP, and when the hand-off queue
//! is full readable connections are shed with `503 Retry-After`.  With
//! `--cache-dir`, cached artifacts spill to disk and a restarted daemon
//! warm-starts from them.
//!
//! ```text
//! htc-serve [--addr 127.0.0.1:8700] [--preset fast|small|paper|large]
//!           [--cache-capacity N] [--batch-window-ms N]
//!           [--artifact-root DIR] [--cache-dir DIR] [--threads N]
//!           [--workers N] [--queue-capacity N] [--keep-alive-secs N]
//!           [--stall-timeout-ms N] [--peer-max-conns N] [--sndbuf-bytes N]
//!           [--request-deadline-secs N] [--peer-rps N] [--fault-plan SPEC]
//!           [--shard-id N] [--max-nodes N]
//! ```
//!
//! Request-lifecycle hardening: `--request-deadline-secs` caps each
//! request's total time (queue wait + compute; `X-HTC-Deadline-Ms`
//! overrides per request, 0 disables), `--peer-rps` enables per-client
//! token-bucket rate limiting (identity: `X-HTC-Client` header or peer IP),
//! and `--fault-plan` / the `HTC_FAULT` environment variable (flag wins;
//! invalid env specs warn once and are ignored) inject deterministic faults
//! for chaos drills.
//!
//! The daemon prints `listening on <addr>` to stdout once the socket is
//! bound (scripts scrape this line for the resolved port) and runs until
//! `POST /shutdown` or a `SIGINT`/`SIGTERM` — all three take the same
//! deterministic drain (stop accepting, serve the queue, join workers).
//! `--shard-id` tags the process as one member of an `htc-fleet` (reported
//! on `/healthz`).  `--max-nodes` rejects requests whose networks exceed the
//! given node count with a structured `413 too_large` — the guard for
//! Large-tier (`--preset large`) deployments, where a single oversized
//! inline graph can occupy a worker for minutes.  See README.md for the
//! request format and a curl quickstart.

use htc::core::HtcConfig;
use htc::serve::{runtime::MAX_WORKERS, FaultPlan, Server, ServerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct ServeArgs {
    config: ServerConfig,
    threads: Option<usize>,
}

fn print_usage() {
    eprintln!(
        "usage: htc-serve [--addr HOST:PORT] [--preset fast|small|paper|large] \
         [--cache-capacity N] [--batch-window-ms N] [--artifact-root DIR] \
         [--cache-dir DIR] [--threads N] [--workers N] [--queue-capacity N] \
         [--keep-alive-secs N] [--stall-timeout-ms N] [--peer-max-conns N] \
         [--sndbuf-bytes N] [--request-deadline-secs N] [--peer-rps N] \
         [--fault-plan SPEC] [--shard-id N] [--max-nodes N]"
    );
}

fn parse_cli<I: Iterator<Item = String>>(mut args: I) -> Result<ServeArgs, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8700".into(),
        // The daemon defaults to a 30 s budget per request (queue wait +
        // compute); the embedded-server default stays "no deadline" so
        // library users opt in.  `--request-deadline-secs 0` restores that.
        request_deadline: Duration::from_secs(30),
        ..ServerConfig::default()
    };
    let mut threads = None;
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--preset" => {
                let name = value("--preset")?;
                HtcConfig::preset(&name)?;
                config.default_preset = name;
            }
            "--cache-capacity" => {
                config.cache_capacity = value("--cache-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --cache-capacity value: {e}"))?;
            }
            "--batch-window-ms" => {
                let ms: u64 = value("--batch-window-ms")?
                    .parse()
                    .map_err(|e| format!("bad --batch-window-ms value: {e}"))?;
                config.batch_window = Duration::from_millis(ms);
            }
            "--artifact-root" => {
                config.artifact_root = Some(PathBuf::from(value("--artifact-root")?));
            }
            "--cache-dir" => {
                config.cache_dir = Some(PathBuf::from(value("--cache-dir")?));
            }
            "--workers" => {
                let n: usize = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers value: {e}"))?;
                if n == 0 || n > MAX_WORKERS {
                    return Err(format!("--workers must be between 1 and {MAX_WORKERS}"));
                }
                config.workers = n;
            }
            "--queue-capacity" => {
                let n: usize = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("bad --queue-capacity value: {e}"))?;
                if n == 0 {
                    return Err("--queue-capacity must be at least 1".into());
                }
                config.queue_capacity = n;
            }
            "--keep-alive-secs" => {
                let secs: u64 = value("--keep-alive-secs")?
                    .parse()
                    .map_err(|e| format!("bad --keep-alive-secs value: {e}"))?;
                if secs == 0 {
                    return Err("--keep-alive-secs must be at least 1".into());
                }
                config.keep_alive = Duration::from_secs(secs);
            }
            "--stall-timeout-ms" => {
                let ms: u64 = value("--stall-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --stall-timeout-ms value: {e}"))?;
                // 0 falls back to the standalone (30 s-class) read limits.
                config.stall_timeout = Duration::from_millis(ms);
            }
            "--peer-max-conns" => {
                // 0 keeps the cap disabled.
                config.peer_max_conns = value("--peer-max-conns")?
                    .parse()
                    .map_err(|e| format!("bad --peer-max-conns value: {e}"))?;
            }
            "--sndbuf-bytes" => {
                // 0 keeps the kernel default (autotuned) send buffer.
                config.sndbuf = value("--sndbuf-bytes")?
                    .parse()
                    .map_err(|e| format!("bad --sndbuf-bytes value: {e}"))?;
            }
            "--request-deadline-secs" => {
                let secs: u64 = value("--request-deadline-secs")?
                    .parse()
                    .map_err(|e| format!("bad --request-deadline-secs value: {e}"))?;
                // 0 disables the default budget (header overrides still work).
                config.request_deadline = Duration::from_secs(secs);
            }
            "--peer-rps" => {
                let rps: f64 = value("--peer-rps")?
                    .parse()
                    .map_err(|e| format!("bad --peer-rps value: {e}"))?;
                if !rps.is_finite() || rps < 0.0 {
                    return Err("--peer-rps must be a non-negative number".into());
                }
                config.fairness.peer_tokens_per_sec = rps;
            }
            "--shard-id" => {
                let id: usize = value("--shard-id")?
                    .parse()
                    .map_err(|e| format!("bad --shard-id value: {e}"))?;
                config.shard_id = Some(id);
            }
            "--max-nodes" => {
                // 0 keeps the default "unbounded" behaviour explicit.
                config.max_nodes = value("--max-nodes")?
                    .parse()
                    .map_err(|e| format!("bad --max-nodes value: {e}"))?;
            }
            "--fault-plan" => {
                let spec = value("--fault-plan")?;
                let plan =
                    FaultPlan::parse(&spec).map_err(|e| format!("bad --fault-plan value: {e}"))?;
                config.fault = Some(Arc::new(plan));
            }
            "--threads" => {
                let n: usize = value("--threads")?
                    .parse()
                    .map_err(|e| format!("bad --threads value: {e}"))?;
                if n == 0 || n > htc::linalg::parallel::MAX_THREADS {
                    return Err(format!(
                        "--threads must be between 1 and {}",
                        htc::linalg::parallel::MAX_THREADS
                    ));
                }
                threads = Some(n);
            }
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(ServeArgs { config, threads })
}

fn main() -> ExitCode {
    let args = match parse_cli(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            if msg != "help" {
                eprintln!("error: {msg}");
            }
            print_usage();
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.threads {
        // Must happen before the first parallel kernel runs: the worker pool
        // reads HTC_NUM_THREADS once, lazily, on first use.
        std::env::set_var("HTC_NUM_THREADS", n.to_string());
    }
    let mut args = args;
    if args.config.fault.is_none() {
        // Environment fallback is wired here — not in Server::start — so
        // embedded servers (tests, examples) are immune to a stray HTC_FAULT.
        args.config.fault = FaultPlan::from_env();
    }
    if let Some(plan) = &args.config.fault {
        eprintln!("htc-serve: fault injection ACTIVE (seed {})", plan.seed());
    }
    let preset = args.config.default_preset.clone();
    let capacity = args.config.cache_capacity;
    let cache_dir = args.config.cache_dir.clone();
    let server = match Server::start(args.config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: failed to start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    // SIGINT/SIGTERM drain the server exactly like POST /shutdown — the
    // supervisor's way of stopping a shard without the HTTP side-channel.
    htc::serve::install_shutdown_handler(server.shutdown_signal());
    // Machine-scrapable; CI and scripts wait for this line.
    println!("listening on {}", server.addr());
    eprintln!(
        "htc-serve up: preset {preset}, cache capacity {capacity}{}, {} compute threads \
         (POST /shutdown to stop)",
        match &cache_dir {
            Some(dir) => format!(" (durable at {})", dir.display()),
            None => String::new(),
        },
        htc::linalg::parallel::num_threads()
    );
    server.join();
    eprintln!("htc-serve: shut down cleanly");
    ExitCode::SUCCESS
}
