//! The result a workload hands back: named metrics, output checks, the
//! output digest and free-form details, rendered as one JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced runs), each with its unit.  Every workload
/// reports every one of them; see the crate docs for what each means on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("align_s", "s"),
    ("p_at_1", "ratio"),
    ("p_at_10", "ratio"),
    ("mrr", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("serve_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
];

/// Per-layer metrics (traced runs).  A layer a workload does not exercise
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("orbits.count_s", "s"),
    ("laplacian.build_s", "s"),
    ("training.s", "s"),
    ("training.epochs", "count"),
    ("training.epoch_ms_p50", "ms"),
    ("training.epoch_ms_max", "ms"),
    ("training.final_loss", "loss"),
    ("finetune.s", "s"),
    ("finetune.iterations", "count"),
    ("finetune.iteration_ms_p50", "ms"),
    ("finetune.trusted_pairs", "count"),
    ("finetune.sweep_blocks", "count"),
    ("finetune.block_ms_p50", "ms"),
    ("finetune.gflops_computed", "GFLOP"),
    ("integrate.s", "s"),
    ("linalg.gemm_sweep_gflops", "GFLOP/s"),
    ("linalg.gemm_train_gflops", "GFLOP/s"),
    ("linalg.spmm_gbytes_s_computed", "GB/s"),
    ("nn.tanh_ns_per_elem", "ns/elem"),
    ("nn.backprop_ns_per_elem", "ns/elem"),
    ("serve.compute_ms_per_req", "ms"),
    ("serve.overhead_ms_per_req", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.queue_high_water", "count"),
    ("serve.reuse_ratio", "ratio"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.spill_reloads", "count"),
    ("serve.requests_failed", "count"),
    ("fleet.hop_ms_p50", "ms"),
    ("fleet.failovers", "count"),
    ("fleet.shard_share_max", "ratio"),
    ("bench.trace_overhead_pct", "%"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    details: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Attaches a detail shown next to the metrics (`value` is raw JSON).
    pub fn detail(&mut self, key: &str, value: impl Into<String>) {
        self.details.push((key.to_string(), value.into()));
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Renders the detail line and the result line.  `traced` selects the
    /// per-layer metric set; an end-to-end metric a workload forgot to set
    /// is a benchmark bug and fails the run, a per-layer one reads 0.
    pub fn render(&mut self, traced: bool) -> (String, String) {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, &(name, unit)) in set.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => {
                    self.failures
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            if !value.is_finite() {
                self.failures.push(format!("metric {name} is not finite"));
            }
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }
        let mut details = String::from("{");
        for (i, (key, value)) in self.details.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(details, "{sep}\"{key}\": {value}");
        }
        details.push('}');
        let result = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
        );
        (details, result)
    }
}

/// A JSON number with every digit of the measurement (non-finite values,
/// already reported as failures, render as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A JSON string literal (the benchmark only quotes plain ASCII names).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;
    use htc_serve::json::{parse, Json};

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and units this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_every_metric_and_fails_on_a_missing_one() {
        let mut report = Report::default();
        report.set("align_s", 1.5);
        let (_, line) = report.render(false);
        let parsed = parse(&line).unwrap();
        assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(false));
        let metrics = parsed.get("metrics").unwrap();
        for &(name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1.0));

        let mut traced = Report::default();
        traced.set("training.s", 2.0);
        let (_, line) = traced.render(true);
        assert_eq!(
            parse(&line).unwrap().get("correct").and_then(Json::as_bool),
            Some(true)
        );
    }
}
