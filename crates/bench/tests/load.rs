//! The shared load generator against real in-process servers: fleet clients
//! stay sticky to each source's owning shard, the idle population parks in
//! the reactor, and the percentile helper's edge cases.

use htc_bench::load::{
    align_body, percentile, run_clients, scrape_stats, warmup, ClientOpts, IdlePopulation,
    InProcessFleet,
};
use htc_fleet::owner;
use htc_serve::json::Json;
use htc_serve::{routing_fingerprint, Server, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn fleet_clients_are_served_by_each_sources_owning_shard() {
    const SHARDS: usize = 2;
    let fleet = InProcessFleet::start(SHARDS, 2);
    let bodies: Arc<Vec<String>> = Arc::new((0..4).map(|i| align_body(10, 41 + i)).collect());
    warmup(fleet.addr(), &bodies);
    let deadline = Instant::now() + Duration::from_secs(1);
    let opts = (0..2).map(|i| ClientOpts::plain(false, 0x7e57_0000 + i));
    let stats = run_clients(fleet.addr(), &bodies, deadline, opts);
    fleet.teardown();

    assert!(stats.ok > 0, "no request succeeded");
    assert_eq!(stats.errors(), 0, "unexpected errors: {stats:?}");
    let mut sampled = 0;
    for (source, observed) in stats.source_shards.iter().enumerate() {
        if observed.is_empty() {
            continue;
        }
        sampled += 1;
        let fingerprint = routing_fingerprint(bodies[source].as_bytes()).expect("body routes");
        let expected = owner(fingerprint, SHARDS);
        assert!(
            observed.len() == 1 && observed.contains(&expected),
            "source {source} should be served only by shard {expected}, saw {observed:?}"
        );
    }
    assert!(sampled > 0, "no response carried a shard id");
}

#[test]
fn idle_population_parks_in_the_reactor() {
    const IDLE: usize = 64;
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.addr();
    let idle = IdlePopulation::start(addr, IDLE);
    idle.await_ready(Duration::from_secs(10));

    let parked = |stats: &Json| {
        stats
            .get("runtime")
            .and_then(|r| r.get("parked"))
            .and_then(Json::as_f64)
            .unwrap_or(-1.0)
    };
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut last = -1.0;
    while Instant::now() < deadline {
        last = scrape_stats(addr).as_ref().map_or(-1.0, parked);
        if last >= IDLE as f64 {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(last >= IDLE as f64, "only {last} connections parked");

    let stats = idle.stop_and_join();
    server.shutdown();
    assert_eq!(stats.requested, IDLE);
    assert_eq!(stats.connected, IDLE);
    assert_eq!(stats.connect_errors, 0);
    assert_eq!(stats.ping_errors, 0);
    assert_eq!(stats.shed, 0);
}

#[test]
fn percentile_handles_empty_single_and_even_samples() {
    assert_eq!(percentile(&[], 0.5), 0.0);
    assert_eq!(percentile(&[2500], 0.0), 2.5);
    assert_eq!(percentile(&[2500], 0.99), 2.5);
    // Nearest rank over four samples: p50 rounds rank 1.5 up to 2.
    let even = [1000, 2000, 3000, 4000];
    assert_eq!(percentile(&even, 0.0), 1.0);
    assert_eq!(percentile(&even, 0.5), 3.0);
    assert_eq!(percentile(&even, 1.0), 4.0);
}
