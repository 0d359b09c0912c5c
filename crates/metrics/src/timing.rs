//! Stage timing and runtime instrumentation.
//!
//! The efficiency analysis of the paper (Fig. 7 and Fig. 8) breaks the HTC
//! runtime into named stages (orbit counting, Laplacian construction,
//! multi-orbit-aware training, trusted-pair fine-tuning, weighted integration,
//! other).  [`StageTimer`] accumulates wall-clock durations per named stage
//! while preserving insertion order so the harness can print the same
//! decomposition.
//!
//! Long-running serving processes additionally need live occupancy figures —
//! how many connections are active, how deep the worker queue is — that many
//! threads update concurrently.  [`Counter`] (monotonic) and [`Gauge`]
//! (up/down with a high-water mark) are the lock-free primitives for those;
//! the `htc-serve` connection runtime exposes them through `/stats`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonically increasing event counter shared across threads.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one and returns the new value.
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that moves up and down (active connections, queue depth) while
/// remembering the highest point it ever reached.
///
/// Decrements saturate at zero rather than wrapping: a stray extra `dec` is a
/// bookkeeping bug upstream, but it must not turn the gauge into 2^64-1 and
/// poison every later reading.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high_water: AtomicU64,
}

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments and returns the new value, updating the high-water mark.
    pub fn inc(&self) -> u64 {
        let now = self.value.fetch_add(1, Ordering::Relaxed) + 1;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Decrements (saturating at zero) and returns the new value.
    pub fn dec(&self) -> u64 {
        self.value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            })
            .map(|prev| prev.saturating_sub(1))
            .unwrap_or(0)
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The highest value the gauge ever held.
    pub fn high_water(&self) -> u64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// One named stage: accumulated duration plus how many times it was recorded,
/// and the highest process peak-RSS reading observed when the stage finished
/// (0 = never sampled, e.g. on platforms without procfs).
#[derive(Debug, Clone)]
struct StageEntry {
    name: String,
    duration: Duration,
    count: usize,
    peak_rss_bytes: u64,
}

/// Accumulates named stage durations in insertion order.
#[derive(Debug, Clone, Default)]
pub struct StageTimer {
    stages: Vec<StageEntry>,
}

impl StageTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times the execution of `body` and records it under `stage`.
    pub fn time<T>(&mut self, stage: &str, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = body();
        self.record(stage, start.elapsed());
        result
    }

    /// Adds `duration` to the accumulated time of `stage` (creating it if
    /// needed) and increments the stage's occurrence count.
    pub fn record(&mut self, stage: &str, duration: Duration) {
        self.record_with_peak_rss(stage, duration, 0);
    }

    /// [`record`](Self::record) plus a peak-RSS sample (bytes) taken when the
    /// stage finished.  `VmHWM` is monotone, so the entry keeps the maximum of
    /// all samples; pass 0 when no reading is available and the stored value
    /// is left untouched.
    pub fn record_with_peak_rss(&mut self, stage: &str, duration: Duration, peak_rss_bytes: u64) {
        if let Some(entry) = self.stages.iter_mut().find(|e| e.name == stage) {
            entry.duration += duration;
            entry.count += 1;
            entry.peak_rss_bytes = entry.peak_rss_bytes.max(peak_rss_bytes);
        } else {
            self.stages.push(StageEntry {
                name: stage.to_string(),
                duration,
                count: 1,
                peak_rss_bytes,
            });
        }
    }

    /// Accumulated duration of `stage` (zero if never recorded).
    pub fn duration(&self, stage: &str) -> Duration {
        self.stages
            .iter()
            .find(|e| e.name == stage)
            .map(|e| e.duration)
            .unwrap_or_default()
    }

    /// How many times `stage` was recorded (zero if never).
    ///
    /// Reuse-sensitive callers — the session API's "train once, serve many"
    /// guarantee — assert on this: a stage that was served from a cached
    /// artifact is never re-recorded, so its count stays put.
    pub fn count(&self, stage: &str) -> usize {
        self.stages
            .iter()
            .find(|e| e.name == stage)
            .map(|e| e.count)
            .unwrap_or(0)
    }

    /// Highest peak-RSS sample (bytes) recorded for `stage`, or 0 when the
    /// stage was never recorded with a memory reading.
    pub fn peak_rss_bytes(&self, stage: &str) -> u64 {
        self.stages
            .iter()
            .find(|e| e.name == stage)
            .map(|e| e.peak_rss_bytes)
            .unwrap_or(0)
    }

    /// Total accumulated duration across all stages.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|e| e.duration).sum()
    }

    /// Stages in insertion order with their durations.
    pub fn stages(&self) -> impl Iterator<Item = (&str, Duration)> {
        self.stages.iter().map(|e| (e.name.as_str(), e.duration))
    }

    /// Merges another timer into this one (summing shared stages' durations
    /// and occurrence counts).
    pub fn merge(&mut self, other: &StageTimer) {
        for entry in &other.stages {
            if let Some(mine) = self.stages.iter_mut().find(|e| e.name == entry.name) {
                mine.duration += entry.duration;
                mine.count += entry.count;
                mine.peak_rss_bytes = mine.peak_rss_bytes.max(entry.peak_rss_bytes);
            } else {
                self.stages.push(entry.clone());
            }
        }
    }

    /// Renders the stages as a JSON array of
    /// `{"stage", "seconds", "count", "mean_seconds"}` objects, in insertion
    /// order — the one emitter shared by every binary and endpoint that
    /// writes machine-readable stage timings (`htc-align --json`,
    /// `bench_pipeline`, the serving `/stats` and align responses).  The
    /// count shows how often each stage ran, e.g. that a cached artifact
    /// skipped its stage.  Stages recorded with a peak-RSS sample
    /// additionally carry `"peak_rss_bytes"`; stages without one omit the key
    /// so emitters on procfs-less platforms stay byte-identical to the
    /// pre-memory-tracking format.
    pub fn stages_json(&self) -> String {
        let mut out = String::from("[");
        for (i, entry) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let seconds = entry.duration.as_secs_f64();
            out.push_str(&format!(
                "{{\"stage\": \"{}\", \"seconds\": {seconds:.6}, \"count\": {}, \
                 \"mean_seconds\": {:.6}",
                entry.name.replace('\\', "\\\\").replace('"', "\\\""),
                entry.count,
                seconds / entry.count.max(1) as f64
            ));
            if entry.peak_rss_bytes > 0 {
                out.push_str(&format!(", \"peak_rss_bytes\": {}", entry.peak_rss_bytes));
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Renders a simple per-stage breakdown in seconds.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, d) in self.stages() {
            out.push_str(&format!("{name}: {:.3}s\n", d.as_secs_f64()));
        }
        out.push_str(&format!("total: {:.3}s\n", self.total().as_secs_f64()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_across_threads() {
        let c = std::sync::Arc::new(Counter::new());
        assert_eq!(c.inc(), 1);
        c.add(4);
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        c.inc();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(c.get(), 405);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::new();
        assert_eq!(g.inc(), 1);
        assert_eq!(g.inc(), 2);
        assert_eq!(g.dec(), 1);
        assert_eq!(g.inc(), 2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 2);
        g.dec();
        g.dec();
        // Saturates at zero instead of wrapping.
        assert_eq!(g.dec(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(g.high_water(), 2);
    }

    #[test]
    fn records_and_accumulates() {
        let mut t = StageTimer::new();
        t.record("training", Duration::from_millis(100));
        t.record("training", Duration::from_millis(50));
        t.record("fine-tuning", Duration::from_millis(30));
        assert_eq!(t.duration("training"), Duration::from_millis(150));
        assert_eq!(t.duration("missing"), Duration::ZERO);
        assert_eq!(t.total(), Duration::from_millis(180));
        assert_eq!(t.stages().count(), 2);
        assert_eq!(t.count("training"), 2);
        assert_eq!(t.count("fine-tuning"), 1);
        assert_eq!(t.count("missing"), 0);
    }

    #[test]
    fn time_wraps_closures() {
        let mut t = StageTimer::new();
        let out = t.time("compute", || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(t.duration("compute") >= Duration::from_millis(4));
    }

    #[test]
    fn preserves_insertion_order() {
        let mut t = StageTimer::new();
        t.record("b", Duration::from_millis(1));
        t.record("a", Duration::from_millis(1));
        t.record("b", Duration::from_millis(1));
        let names: Vec<&str> = t.stages().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn merge_sums_stages() {
        let mut a = StageTimer::new();
        a.record("x", Duration::from_millis(10));
        let mut b = StageTimer::new();
        b.record("x", Duration::from_millis(5));
        b.record("y", Duration::from_millis(2));
        a.merge(&b);
        assert_eq!(a.duration("x"), Duration::from_millis(15));
        assert_eq!(a.duration("y"), Duration::from_millis(2));
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.count("y"), 1);
    }

    #[test]
    fn render_contains_totals() {
        let mut t = StageTimer::new();
        t.record("stage one", Duration::from_millis(1500));
        let text = t.render();
        assert!(text.contains("stage one: 1.500s"));
        assert!(text.contains("total: 1.500s"));
    }

    #[test]
    fn stages_json_renders_in_order_and_escapes() {
        let mut t = StageTimer::new();
        t.record("b", Duration::from_millis(1500));
        t.record("a \"quoted\"", Duration::from_millis(250));
        assert_eq!(
            t.stages_json(),
            "[{\"stage\": \"b\", \"seconds\": 1.500000, \"count\": 1, \
             \"mean_seconds\": 1.500000}, \
             {\"stage\": \"a \\\"quoted\\\"\", \"seconds\": 0.250000, \"count\": 1, \
             \"mean_seconds\": 0.250000}]"
        );
        assert_eq!(StageTimer::new().stages_json(), "[]");
    }

    #[test]
    fn detailed_json_reports_counts_and_means() {
        let mut t = StageTimer::new();
        t.record("training", Duration::from_millis(100));
        t.record("training", Duration::from_millis(300));
        assert_eq!(
            t.stages_json(),
            "[{\"stage\": \"training\", \"seconds\": 0.400000, \"count\": 2, \
             \"mean_seconds\": 0.200000}]"
        );
        assert_eq!(StageTimer::new().stages_json(), "[]");
    }

    #[test]
    fn record_with_peak_rss_keeps_maximum() {
        let mut t = StageTimer::new();
        t.record_with_peak_rss("training", Duration::from_millis(100), 2048);
        t.record_with_peak_rss("training", Duration::from_millis(100), 1024);
        assert_eq!(t.peak_rss_bytes("training"), 2048);
        assert_eq!(t.count("training"), 2);
        // A zero sample (no reading available) never shrinks the mark.
        t.record("training", Duration::from_millis(10));
        assert_eq!(t.peak_rss_bytes("training"), 2048);
        assert_eq!(t.peak_rss_bytes("missing"), 0);
    }

    #[test]
    fn merge_takes_peak_rss_maximum() {
        let mut a = StageTimer::new();
        a.record_with_peak_rss("x", Duration::from_millis(10), 100);
        let mut b = StageTimer::new();
        b.record_with_peak_rss("x", Duration::from_millis(5), 300);
        b.record_with_peak_rss("y", Duration::from_millis(2), 7);
        a.merge(&b);
        assert_eq!(a.peak_rss_bytes("x"), 300);
        assert_eq!(a.peak_rss_bytes("y"), 7);
    }

    #[test]
    fn stages_json_includes_peak_rss_only_when_sampled() {
        let mut t = StageTimer::new();
        t.record_with_peak_rss("training", Duration::from_millis(200), 4096);
        t.record("matching", Duration::from_millis(100));
        assert_eq!(
            t.stages_json(),
            "[{\"stage\": \"training\", \"seconds\": 0.200000, \"count\": 1, \
             \"mean_seconds\": 0.200000, \"peak_rss_bytes\": 4096}, \
             {\"stage\": \"matching\", \"seconds\": 0.100000, \"count\": 1, \
             \"mean_seconds\": 0.100000}]"
        );
    }
}
