//! Drives an in-process `htc-serve` daemon end to end over **one persistent
//! connection**: starts the server, POSTs two align requests that share a
//! source graph (the second hits the artifact cache and skips counting +
//! training), reads `/stats` — all on the same keep-alive socket — then
//! shuts the server down cleanly.
//!
//! ```text
//! cargo run --release --example serve_client
//! ```
//!
//! Exchanges go through [`request_with_retry`], which honours the server's
//! back-pressure contract: on 429/503/504 it sleeps for the structured
//! `retry_after_ms` hint (falling back to the `Retry-After` header, then to
//! exponential backoff) with seeded jitter, reconnects if the server closed
//! the socket, and retries.  Against an unloaded server no retry fires, so
//! the keep-alive accounting below still sees exactly three requests on one
//! connection.
//!
//! The same exchanges work against a standalone daemon (`cargo run --release
//! --bin htc-serve`) with `curl` — see README.md for the quickstart.

use htc::datasets::{generate_pair, SyntheticPairConfig};
use htc::serve::http::Client;
use htc::serve::json::network_spec;
use htc::serve::{Server, ServerConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::Duration;

/// Retry budget: enough to ride out a transient overload, small enough that
/// a genuinely saturated server still fails fast.
const MAX_ATTEMPTS: u32 = 4;
const BACKOFF_BASE_MS: u64 = 25;

/// One exchange with back-pressure handling; returns (status, body).
///
/// Retryable statuses (429/503/504) sleep for the server's hint — jittered
/// by a seeded RNG so runs stay deterministic — and go again; 503 also
/// reconnects, since shed connections are closed server-side.
fn request_with_retry(
    client: &mut Client,
    addr: SocketAddr,
    rng: &mut StdRng,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, String) {
    let mut backoff_ms = BACKOFF_BASE_MS;
    for attempt in 1..=MAX_ATTEMPTS {
        let response = client.request(method, path, body).expect("exchange");
        let retryable = matches!(response.status, 429 | 503 | 504);
        let Some(hint) = retryable.then(|| response.retry_after_ms()).flatten() else {
            return (response.status, response.body_str().to_string());
        };
        if attempt == MAX_ATTEMPTS {
            return (response.status, response.body_str().to_string());
        }
        let sleep_ms = (hint.max(backoff_ms).max(1) as f64 * rng.gen_range(0.5..1.0)).max(1.0);
        eprintln!(
            "{method} {path}: HTTP {} (attempt {attempt}), retrying in {sleep_ms:.0} ms",
            response.status
        );
        std::thread::sleep(Duration::from_millis(sleep_ms as u64));
        backoff_ms *= 2;
        if response.status == 503 {
            *client = Client::connect(addr).expect("reconnect after shed");
        }
    }
    unreachable!("loop returns on success or final attempt")
}

fn main() {
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr();
    println!("htc-serve listening on {addr}");

    // One source catalog graph, two perturbed incoming graphs — served over
    // a single keep-alive connection.
    let pair_a = generate_pair(&SyntheticPairConfig::tiny(16).with_seed(7));
    let pair_b = generate_pair(
        &SyntheticPairConfig::tiny(16)
            .with_seed(7)
            .with_edge_removal(0.08),
    );
    let source = network_spec(&pair_a.source);
    let mut client = Client::connect(addr).expect("connect to htc-serve");
    let mut rng = StdRng::seed_from_u64(0xc11e_2177);

    for (label, target) in [("first", &pair_a.target), ("second", &pair_b.target)] {
        let body = format!(
            "{{\"preset\":\"fast\",\"epochs\":10,\"source\":{source},\"target\":{}}}",
            network_spec(target)
        );
        let (status, response) =
            request_with_retry(&mut client, addr, &mut rng, "POST", "/align", &body);
        assert_eq!(status, 200, "align failed: {response}");
        // Pull a couple of headline fields out of the response JSON.
        let hit = response.contains("\"cache_hit\":true");
        println!(
            "{label} request: HTTP {status}, cache_hit = {hit}, {} response bytes",
            response.len()
        );
    }

    let (status, stats) = request_with_retry(&mut client, addr, &mut rng, "GET", "/stats", "");
    assert_eq!(status, 200);
    println!("\n/stats:\n{stats}");
    assert!(
        stats.contains("\"reuse_ratio\":3"),
        "three requests rode one connection: {stats}"
    );

    let (status, _) = request_with_retry(&mut client, addr, &mut rng, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    server.join();
    println!("\nserver shut down cleanly (all workers joined)");
}
