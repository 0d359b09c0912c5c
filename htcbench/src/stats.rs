//! Small, dependency-free helpers the workloads share: order statistics,
//! the tail-percentile rule, a seeded Zipf sampler, the output digest and
//! open-loop due-time accounting.  Each is unit-tested below.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Number of samples that must lie strictly beyond a reported tail
/// percentile for it to count as measured rather than a single outlier.
pub const TAIL_SAMPLES: usize = 10;

/// The tail-percentile rule: the value at percentile `p` (0..1) of
/// `values`, lowered to the highest rank that still has at least
/// [`TAIL_SAMPLES`] samples beyond it, and never below the (upper) median.
/// With 1 100 samples `p = 0.99` is honoured exactly; with 200 it reports
/// the 95th percentile; with 15 it reports the median.
pub fn tail_percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let supported = n.saturating_sub(TAIL_SAMPLES + 1);
    sorted[wanted.min(supported).max(n / 2)]
}

/// Median over `windows` consecutive, equal slices of `values` (in time
/// order) of each slice's [`tail_percentile`] — a tail that one transient
/// stall in one slice cannot move.
pub fn windowed_tail(values: &[f64], windows: usize, p: f64) -> f64 {
    let len = values.len() / windows.max(1);
    if len == 0 {
        return tail_percentile(values, p);
    }
    let tails: Vec<f64> = values
        .chunks_exact(len)
        .map(|slice| tail_percentile(slice, p))
        .collect();
    median(&tails)
}

/// Events per second: the median count over the whole one-second buckets
/// of `[0, window)`, given each event's time in seconds from the start.
pub fn per_second_median(times_s: &[f64], window: f64) -> f64 {
    let buckets = (window.floor() as usize).max(1);
    let mut counts = vec![0.0; buckets];
    for &t in times_s {
        if t >= 0.0 && (t as usize) < buckets {
            counts[t as usize] += 1.0;
        }
    }
    median(&counts)
}

/// SplitMix64: the benchmark's own seeded generator, so input streams do
/// not depend on any library RNG's internals.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(`s`) over ranks `0..n`: rank `i` is drawn with probability
/// proportional to `1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix,
}

impl Zipf {
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n.max(1) {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Self {
            cdf,
            rng: SplitMix::new(seed),
        }
    }

    pub fn sample(&mut self) -> usize {
        let u = self.rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// 64-bit FNV-1a, folded incrementally over the bytes of a run's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its response completed.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopSample {
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
}

impl OpenLoopSample {
    /// Latency as the user sees it: from the due time, so a late generator
    /// (or a busy client thread) cannot hide queueing delay.
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.due)
    }

    /// How late the generator sent the request; zero when it was on time.
    pub fn lateness(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// The due time of request `index` in an open loop of `rate` requests per
/// second that started at `start`.
pub fn due_time(start: Instant, index: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(index as f64 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1..=2000: the 99th percentile (rank 1980) has 20 samples beyond.
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.99), 1980.0);
        // 1..=200: p99 would leave 2 beyond; the rule lowers it to 190, the
        // highest value with 10 samples strictly above.
        let mid: Vec<f64> = (1..=200).map(f64::from).collect();
        let v = tail_percentile(&mid, 0.99);
        assert_eq!(v, 190.0);
        assert_eq!(mid.iter().filter(|&&x| x > v).count(), TAIL_SAMPLES);
        // Too few samples for any tail: fall back to the median, never the
        // maximum.
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 0.99), 8.0);
        assert_eq!(tail_percentile(&[5.0], 0.99), 5.0);
        assert_eq!(tail_percentile(&[2.0, 1.0], 0.99), 2.0);
        // Order of the input does not matter.
        let mut rev = big.clone();
        rev.reverse();
        assert_eq!(tail_percentile(&rev, 0.99), 1980.0);
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        let mut values: Vec<f64> = (0..3000).map(|i| f64::from(i % 100)).collect();
        // A burst of slow requests, all inside the first third.
        for v in &mut values[100..140] {
            *v = 1000.0;
        }
        assert_eq!(tail_percentile(&values, 0.99), 1000.0);
        assert_eq!(windowed_tail(&values, 3, 0.99), 98.0);
    }

    #[test]
    fn per_second_median_counts_whole_buckets() {
        // 10 events per second for 4 s, one idle second, and a straggler
        // past the window that must not count.
        let mut times: Vec<f64> = (0..40).map(|i| f64::from(i) / 10.0).collect();
        times.push(5.5);
        assert_eq!(per_second_median(&times, 5.0), 10.0);
        assert_eq!(per_second_median(&[], 3.0), 0.0);
    }

    #[test]
    fn zipf_is_deterministic_for_a_seed_and_skewed() {
        let draw = |seed| {
            let mut z = Zipf::new(32, 1.0, seed);
            (0..5000).map(|_| z.sample()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7), "same seed, same sequence");
        assert_ne!(a, draw(8), "another seed, another sequence");
        assert!(a.iter().all(|&r| r < 32));
        let count = |r| a.iter().filter(|&&x| x == r).count();
        // P(rank 0) / P(rank 1) = 2 under Zipf(1).
        let ratio = count(0) as f64 / count(1) as f64;
        assert!((1.6..2.5).contains(&ratio), "ratio {ratio}");
        assert!(count(0) > count(31) * 10);
    }

    #[test]
    fn fnv_matches_reference_and_is_order_sensitive() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut ab = Fnv::default();
        ab.u64(1);
        ab.u64(2);
        let mut ba = Fnv::default();
        ba.u64(2);
        ba.u64(1);
        assert_ne!(ab.finish(), ba.finish());
    }

    #[test]
    fn open_loop_latency_counts_generator_lateness() {
        let start = Instant::now();
        let due = due_time(start, 50, 100.0);
        assert_eq!(due - start, Duration::from_millis(500));
        // The generator sent 30 ms late and the server answered in 4 ms:
        // the user waited 34 ms from the due time, not 4.
        let sample = OpenLoopSample {
            due,
            sent: due + Duration::from_millis(30),
            done: due + Duration::from_millis(34),
        };
        assert_eq!(sample.latency(), Duration::from_millis(34));
        assert_eq!(sample.lateness(), Duration::from_millis(30));
        // An early send (the generator waited for the due time) is not
        // negative lateness.
        let early = OpenLoopSample {
            due,
            sent: due,
            done: due + Duration::from_millis(3),
        };
        assert_eq!(early.lateness(), Duration::ZERO);
        assert_eq!(early.latency(), Duration::from_millis(3));
    }
}
