//! The shard supervisor: spawns N `htc-serve` processes and keeps them
//! alive.
//!
//! One monitor thread per shard owns its [`Child`] end to end: spawn with
//! `--addr 127.0.0.1:0` (the OS picks a port — a crashed shard's old port
//! may linger in TIME_WAIT, so fixed ports would make restarts racy), scrape
//! the `listening on <addr>` line off the child's stdout, publish the
//! address into the shared [`ShardSet`] under a bumped generation, then
//! alternate between crash detection (`try_wait`) and `/healthz` probes.  A
//! crash is restarted with exponential backoff (reset after a stretch of
//! healthy uptime); the supervisor never gives up on a shard.
//!
//! Shutdown is the inverse, deterministic: each monitor sends its child
//! `SIGTERM` (the shard drains exactly like `POST /shutdown` — see
//! `htc_serve::signal`), waits bounded, escalates to `SIGKILL`, and
//! [`Supervisor::shutdown`] joins every monitor — no orphan processes.

use crate::shard::ShardSet;
use htc_serve::http::Client;
use htc_serve::json;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How a [`Supervisor`] runs its shards.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Path to the `htc-serve` binary.
    pub serve_bin: PathBuf,
    /// Number of shard processes.
    pub shards: usize,
    /// The **shared** durable artifact directory every shard spills into and
    /// warm-starts from — the fleet's replication layer: artifacts are
    /// fingerprint-named and bit-identical, so any shard can serve any other
    /// shard's sources warm after a failover or restart.
    pub cache_dir: PathBuf,
    /// Extra arguments appended to every shard's command line
    /// (e.g. `--preset`, `--workers`).
    pub shard_args: Vec<String>,
    /// Pause between crash checks / health probes per shard.
    pub health_interval: Duration,
}

/// Initial restart backoff after a crash; doubles per consecutive crash up to
/// 3 s, resets after 5 s of uptime.
const RESTART_BACKOFF: Duration = Duration::from_millis(100);

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            serve_bin: PathBuf::from("htc-serve"),
            shards: 2,
            cache_dir: std::env::temp_dir().join("htc-fleet-cache"),
            shard_args: Vec::new(),
            health_interval: Duration::from_millis(200),
        }
    }
}

/// A running fleet of supervised shard processes.
pub struct Supervisor {
    shards: Arc<ShardSet>,
    stop: Arc<AtomicBool>,
    monitors: Vec<std::thread::JoinHandle<()>>,
}

impl Supervisor {
    /// Spawns one monitor thread per shard; each brings its process up and
    /// keeps it up.  Use [`wait_all_listening`](Self::wait_all_listening)
    /// before routing traffic.
    pub fn start(config: SupervisorConfig) -> std::io::Result<Supervisor> {
        std::fs::create_dir_all(&config.cache_dir)?;
        let shards = Arc::new(ShardSet::new(config.shards));
        let stop = Arc::new(AtomicBool::new(false));
        let mut monitors = Vec::with_capacity(config.shards);
        for i in 0..config.shards.max(1) {
            let config = config.clone();
            let shards = Arc::clone(&shards);
            let stop = Arc::clone(&stop);
            monitors.push(
                std::thread::Builder::new()
                    .name(format!("htc-fleet-monitor-{i}"))
                    .spawn(move || monitor_shard(i, &config, &shards, &stop))?,
            );
        }
        Ok(Supervisor {
            shards,
            stop,
            monitors,
        })
    }

    /// The shared shard table (hand it to the router).
    pub fn shards(&self) -> Arc<ShardSet> {
        Arc::clone(&self.shards)
    }

    /// Blocks until every shard has published an address and probed healthy,
    /// or the timeout passes.  Returns whether the fleet is fully up.
    pub fn wait_all_listening(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let all_up = self
                .shards
                .snapshot_all()
                .iter()
                .all(|s| s.addr.is_some() && s.healthy);
            if all_up {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Stops every shard (SIGTERM drain, bounded wait, SIGKILL escalation)
    /// and joins every monitor thread.  When this returns, no child process
    /// of the fleet is left running.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        for monitor in self.monitors {
            let _ = monitor.join();
        }
    }
}

/// Sleeps in small slices so a shutdown request interrupts the wait.
/// Returns `true` when stop was requested.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    while Instant::now() < deadline {
        if stop.load(Ordering::SeqCst) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.load(Ordering::SeqCst)
}

fn monitor_shard(shard: usize, config: &SupervisorConfig, shards: &ShardSet, stop: &AtomicBool) {
    let max_backoff = Duration::from_secs(3);
    let mut backoff = RESTART_BACKOFF;
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let (mut child, addr) = match spawn_shard(shard, config) {
            Ok(spawned) => spawned,
            Err(e) => {
                eprintln!("htc-fleet: spawning shard {shard} failed: {e}");
                if sleep_interruptible(stop, backoff) {
                    return;
                }
                backoff = (backoff * 2).min(max_backoff);
                continue;
            }
        };
        let pid = child.id();
        shards.incarnate(shard, addr, Some(pid));
        // Machine-scrapable (CI kills shards by these pids).
        println!("shard {shard} pid {pid} listening on {addr}");
        let up_since = Instant::now();
        let mut probe_failures = 0u32;
        loop {
            if sleep_interruptible(stop, config.health_interval) {
                terminate_child(child, shard);
                shards.mark_down(shard);
                return;
            }
            if let Ok(Some(status)) = child.try_wait() {
                shards.record_exit(shard);
                eprintln!("htc-fleet: shard {shard} (pid {pid}) exited ({status}); restarting");
                break;
            }
            match probe_health(addr) {
                Ok((pressure, active, queued)) => {
                    probe_failures = 0;
                    shards.record_health(shard, pressure, active, queued);
                }
                Err(_) => {
                    probe_failures += 1;
                    // One failed probe can be a full accept queue; two in a
                    // row means stop routing here until it answers again.
                    if probe_failures >= 2 {
                        shards.mark_down(shard);
                    }
                }
            }
        }
        if up_since.elapsed() >= Duration::from_secs(5) {
            backoff = RESTART_BACKOFF;
        }
        if sleep_interruptible(stop, backoff) {
            return;
        }
        backoff = (backoff * 2).min(max_backoff);
    }
}

/// Spawns one shard process and scrapes its bound address off stdout.
fn spawn_shard(shard: usize, config: &SupervisorConfig) -> std::io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(&config.serve_bin)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--shard-id")
        .arg(shard.to_string())
        .arg("--cache-dir")
        .arg(&config.cache_dir)
        .args(&config.shard_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()?;
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| std::io::Error::other("child stdout was not piped"))?;
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(
                "shard exited before printing its address",
            ));
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            match rest.parse::<SocketAddr>() {
                Ok(addr) => break addr,
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(std::io::Error::other(format!(
                        "shard printed unparseable address {rest:?}: {e}"
                    )));
                }
            }
        }
    };
    // Keep draining the pipe for the child's lifetime: dropping the read end
    // would SIGPIPE the shard if it ever printed to stdout again.
    std::thread::Builder::new()
        .name(format!("htc-fleet-stdout-{shard}"))
        .spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {}
                }
            }
        })?;
    Ok((child, addr))
}

/// One `/healthz` probe; returns `(pressure_level, active, queued)`.
fn probe_health(addr: SocketAddr) -> Result<(u8, u64, u64), String> {
    let mut client =
        Client::connect_timeout(addr, Duration::from_millis(250)).map_err(|e| e.to_string())?;
    client.set_response_deadline(Duration::from_secs(2));
    let response = client.request("GET", "/healthz", "")?;
    if response.status != 200 {
        return Err(format!("healthz answered {}", response.status));
    }
    let text = std::str::from_utf8(&response.body).map_err(|_| "healthz body not UTF-8")?;
    let root = json::parse(text).map_err(|e| format!("healthz body: {e}"))?;
    let field = |name: &str| root.get(name).and_then(json::Json::as_f64).unwrap_or(0.0);
    Ok((
        field("pressure_level") as u8,
        field("active") as u64,
        field("queued") as u64,
    ))
}

#[cfg(unix)]
fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        /// POSIX `kill(2)`.
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: `kill` is the libc symbol (linked via std); sending a signal to
    // a pid the supervisor spawned has no memory-safety implications.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Stops one child: graceful `SIGTERM` drain first (the shard finishes
/// in-flight work and joins its pool), `SIGKILL` after a bounded wait.
fn terminate_child(mut child: Child, shard: usize) {
    #[cfg(unix)]
    {
        const SIGTERM: i32 = 15;
        send_signal(child.id(), SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match child.try_wait() {
                Ok(Some(_)) => return,
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => break,
            }
        }
        eprintln!("htc-fleet: shard {shard} ignored SIGTERM; killing");
    }
    #[cfg(not(unix))]
    let _ = shard;
    let _ = child.kill();
    let _ = child.wait();
}
