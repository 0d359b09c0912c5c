//! Per-client rate limiting and per-source fair scheduling.
//!
//! Two complementary guards keep one hot client or one hot catalog from
//! starving everyone else (the PR 3–4 leftovers named in the roadmap):
//!
//! * [`PeerLimiter`] — a token bucket per client identity.  The identity is
//!   the request's `X-HTC-Client` header when present (a cooperative API-key
//!   style label, which is what lets several logical clients behind one NAT
//!   address be told apart) and the peer IP otherwise.  A drained bucket
//!   answers `429 Too Many Requests` with a `Retry-After` hint instead of
//!   queueing the request behind everyone else's.
//! * [`SourceGate`] — weighted fair scheduling on the worker pool keyed by
//!   source fingerprint.  Every in-flight align request holds a slot for its
//!   source; when the server is under queue pressure, a source already
//!   holding its weighted share of the workers gets `429 Retry-After` for
//!   additional requests rather than parking more workers behind one
//!   catalog.  (Below the pressure threshold the gate only tracks, so an
//!   idle server never rejects.)
//!
//! Both guards are deliberately deterministic — token arithmetic on caller
//! supplied `Instant`s, no sampling — so tests can drive them clock-step by
//! clock-step.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fairness/rate-limit configuration, part of `ServerConfig`.
#[derive(Debug, Clone)]
pub struct FairnessConfig {
    /// Token-bucket refill rate per client identity (requests/second).
    /// `0.0` disables per-peer rate limiting entirely (the default: existing
    /// deployments opt in).
    pub peer_tokens_per_sec: f64,
    /// Token-bucket capacity: the burst a quiet client may send at once.
    pub peer_burst: f64,
    /// Distinct client identities tracked before the least-recent bucket is
    /// evicted (a flood of spoofed identities must not grow memory).
    pub max_tracked_peers: usize,
}

impl Default for FairnessConfig {
    fn default() -> Self {
        Self {
            peer_tokens_per_sec: 0.0,
            peer_burst: 8.0,
            max_tracked_peers: 1024,
        }
    }
}

struct Bucket {
    peer: String,
    tokens: f64,
    last_refill: Instant,
    last_used: u64,
}

/// A token bucket per client identity (see the module docs).
pub struct PeerLimiter {
    rate: f64,
    burst: f64,
    max_peers: usize,
    state: Mutex<(Vec<Bucket>, u64)>,
}

impl PeerLimiter {
    pub fn new(config: &FairnessConfig) -> Self {
        Self {
            rate: config.peer_tokens_per_sec.max(0.0),
            burst: config.peer_burst.max(1.0),
            max_peers: config.max_tracked_peers.max(1),
            state: Mutex::new((Vec::new(), 0)),
        }
    }

    pub fn enabled(&self) -> bool {
        self.rate > 0.0
    }

    /// Admits or rejects one request from `peer` at time `now`.  `Err` is
    /// the duration after which one token will be available — the
    /// `Retry-After` hint.
    pub fn admit(&self, peer: &str, now: Instant) -> Result<(), Duration> {
        if !self.enabled() {
            return Ok(());
        }
        let mut guard = self.state.lock().unwrap();
        let (buckets, clock) = &mut *guard;
        *clock += 1;
        let tick = *clock;
        let bucket = match buckets.iter_mut().find(|b| b.peer == peer) {
            Some(bucket) => bucket,
            None => {
                if buckets.len() >= self.max_peers {
                    // Evict the least-recently-used identity; a brand-new
                    // peer starts with a full burst either way.
                    let lru = buckets
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, b)| b.last_used)
                        .map(|(i, _)| i)
                        .expect("non-empty when at capacity");
                    buckets.swap_remove(lru);
                }
                buckets.push(Bucket {
                    peer: peer.to_string(),
                    tokens: self.burst,
                    last_refill: now,
                    last_used: tick,
                });
                buckets.last_mut().expect("just pushed")
            }
        };
        bucket.last_used = tick;
        let elapsed = now.saturating_duration_since(bucket.last_refill);
        bucket.tokens = (bucket.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - bucket.tokens) / self.rate))
        }
    }
}

/// Tracks in-flight align requests per source fingerprint and caps any one
/// source's worker occupancy when asked to enforce (see the module docs).
#[derive(Default)]
pub struct SourceGate {
    inflight: Mutex<Vec<(u64, usize)>>,
}

impl SourceGate {
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims a slot for `fingerprint`.  With `cap = Some(n)` the claim is
    /// refused (returns `None`) once the source already holds `n` slots;
    /// `cap = None` always admits (tracking only).  The returned guard
    /// releases the slot on drop.
    pub fn acquire(self: &Arc<Self>, fingerprint: u64, cap: Option<usize>) -> Option<SourceSlot> {
        let mut inflight = self.inflight.lock().unwrap();
        match inflight.iter_mut().find(|(fp, _)| *fp == fingerprint) {
            Some((_, count)) => {
                if cap.is_some_and(|cap| *count >= cap.max(1)) {
                    return None;
                }
                *count += 1;
            }
            None => inflight.push((fingerprint, 1)),
        }
        Some(SourceSlot {
            gate: Arc::clone(self),
            fingerprint,
        })
    }

    /// The number of requests currently in flight for `fingerprint`.
    pub fn inflight(&self, fingerprint: u64) -> usize {
        self.inflight
            .lock()
            .unwrap()
            .iter()
            .find(|(fp, _)| *fp == fingerprint)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    fn release(&self, fingerprint: u64) {
        let mut inflight = self.inflight.lock().unwrap();
        if let Some(pos) = inflight.iter().position(|(fp, _)| *fp == fingerprint) {
            inflight[pos].1 -= 1;
            if inflight[pos].1 == 0 {
                inflight.swap_remove(pos);
            }
        }
    }
}

/// RAII slot held for the lifetime of one in-flight align request.
pub struct SourceSlot {
    gate: Arc<SourceGate>,
    fingerprint: u64,
}

impl Drop for SourceSlot {
    fn drop(&mut self) {
        self.gate.release(self.fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rate: f64, burst: f64) -> FairnessConfig {
        FairnessConfig {
            peer_tokens_per_sec: rate,
            peer_burst: burst,
            ..FairnessConfig::default()
        }
    }

    #[test]
    fn bucket_drains_refills_and_hints_retry_after() {
        let limiter = PeerLimiter::new(&config(2.0, 2.0));
        let t0 = Instant::now();
        assert!(limiter.admit("a", t0).is_ok());
        assert!(limiter.admit("a", t0).is_ok());
        // Burst spent; the hint says when the next token arrives (2/s → 0.5s).
        let wait = limiter.admit("a", t0).unwrap_err();
        assert!((wait.as_secs_f64() - 0.5).abs() < 1e-9, "{wait:?}");
        // Another identity has its own bucket.
        assert!(limiter.admit("b", t0).is_ok());
        // After the hinted wait, one request passes and the next is refused.
        let t1 = t0 + Duration::from_millis(500);
        assert!(limiter.admit("a", t1).is_ok());
        assert!(limiter.admit("a", t1).is_err());
    }

    #[test]
    fn disabled_limiter_admits_everything() {
        let limiter = PeerLimiter::new(&config(0.0, 1.0));
        let t0 = Instant::now();
        for _ in 0..100 {
            assert!(limiter.admit("a", t0).is_ok());
        }
    }

    #[test]
    fn tracked_peers_are_bounded_by_lru_eviction() {
        let mut cfg = config(1.0, 1.0);
        cfg.max_tracked_peers = 2;
        let limiter = PeerLimiter::new(&cfg);
        let t0 = Instant::now();
        assert!(limiter.admit("a", t0).is_ok());
        assert!(limiter.admit("b", t0).is_ok());
        // "c" evicts the LRU identity ("a"); both get fresh buckets.
        assert!(limiter.admit("c", t0).is_ok());
        assert!(limiter.admit("a", t0).is_ok(), "evicted peer re-registers");
        assert_eq!(limiter.state.lock().unwrap().0.len(), 2);
    }

    #[test]
    fn source_gate_caps_only_when_enforced() {
        let gate = Arc::new(SourceGate::new());
        let a = gate.acquire(1, Some(2)).expect("first slot");
        let b = gate.acquire(1, Some(2)).expect("second slot");
        assert!(gate.acquire(1, Some(2)).is_none(), "cap enforced");
        assert!(gate.acquire(2, Some(2)).is_some(), "other source admitted");
        // Tracking-only mode admits past the cap.
        let c = gate.acquire(1, None).expect("tracking-only admit");
        assert_eq!(gate.inflight(1), 3);
        drop(c);
        drop(b);
        drop(a);
        assert_eq!(gate.inflight(1), 0, "slots release on drop");
    }
}
