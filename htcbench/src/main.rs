//! The repository benchmark: one command, three workloads, every metric by
//! name with its unit, output checks, and a traced per-layer run.
//!
//! ```text
//! cargo run --release --quiet --manifest-path htcbench/Cargo.toml -- \
//!     --workload <pair-small|catalog-large|serve-zipf> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seed` feeds only the input generators (default 1, which reproduces
//! the presets' own seeds), so a second seed re-runs the same workload on
//! held-out inputs.  `--seconds` is the measurement window.  The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it carries details (output
//! digest, ISA, threads, coverage).  A failed output check prints
//! `"correct": false` and exits 1.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! * `setup_s` — median of repeated input builds (at least three, for at
//!   least a second); `serve-zipf` repeats catalog generation, fleet start
//!   and cold warm-up of every catalog source five times.
//! * `align_s` — median wall time per alignment job: one `HtcAligner::align`
//!   (`pair-small`), one `align_many` over both targets (`catalog-large`),
//!   one closed-loop `/align` request (`serve-zipf`).
//! * `p_at_1`, `p_at_10`, `mrr` — quality against ground truth, averaged
//!   over targets (`catalog-large`: top-10 retention, MRR@10) or over the
//!   catalog (`serve-zipf`, whose served answers are first checked to equal
//!   the library's bit for bit).
//! * `peak_rss_mb` — peak RSS of the benchmark process.
//! * `serve_rps` — completed jobs per second: closed-loop 2xx responses on
//!   `serve-zipf`, alignment jobs on the pipeline workloads.
//! * `latency_p50_ms`, `latency_p99_ms` — open-loop latency from each
//!   request's due time (`serve-zipf`) or per-job wall (pipelines).  A tail
//!   is the highest percentile up to p99 with at least 10 samples beyond
//!   it, never below the median; on `serve-zipf` it is the median of the
//!   tails of five consecutive slices of the open loop (about p97 each), so
//!   one stall on a shared host moves one slice, not the metric.
//!
//! Failed or refused requests are the result line's `failed` (over
//! `attempted`); any of them fails the run.
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! The traced run times each layer from outside: the staged
//! `PairAlignment` calls, `AlignmentSession::{train, align_many}` with a
//! recording `ProgressObserver`, `/stats` deltas of shards and router, and
//! direct kernel calls at the workload's own shapes.  Layers a workload
//! does not exercise report 0.

mod pipeline;
mod report;
mod serve;
mod stats;

use report::{json_num, json_str, Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// Parsed command line.
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["pair-small", "catalog-large", "serve-zipf"];

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            opts.workload
        ));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    match opts.workload.as_str() {
        "pair-small" => pipeline::pair_small(&opts, &mut report),
        "catalog-large" => pipeline::catalog_large(&opts, &mut report),
        _ => serve::serve_zipf(&opts, &mut report),
    }
    let peak = htc_metrics::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);
    report.set("peak_rss_mb", peak);

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.detail("workload", json_str(&opts.workload));
    report.detail("seed", opts.seed.to_string());
    report.detail("nproc", nproc.to_string());
    report.detail("threads", htc_linalg::parallel::num_threads().to_string());
    report.detail("isa", json_str(htc_linalg::active_isa().name()));
    let (details, result) = report.render(opts.trace);

    let set = if opts.trace { PER_LAYER } else { END_TO_END };
    let parsed = htc_serve::json::parse(&result).expect("the result line is valid JSON");
    for &(name, unit) in set {
        let value = parsed
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(htc_serve::json::Json::as_f64)
            .unwrap_or(0.0);
        println!("{name:<32} {:>16} {unit}", json_num(value));
    }
    for failure in report.failures() {
        eprintln!("check failed: {failure}");
    }
    println!("{details}");
    println!("{result}");
    if report.failures().is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
