//! `htc-align` — command-line network alignment.
//!
//! Aligns two attributed networks stored in the workspace's plain-text format
//! (see `htc::graph::io`) and writes the predicted anchor pairs to stdout (or
//! a file).  This is the "I just want to align my two edge lists" entry point
//! of the library.
//!
//! ```text
//! htc-align --source data/source --target data/target \
//!           [--output anchors.tsv] [--preset fast|small|paper|large] \
//!           [--orbits K] [--one-to-one] [--seed N] [--threads N] [--json]
//! ```
//!
//! `--source`/`--target` are path *stems*: `<stem>.edges` must contain the
//! edge list and `<stem>.attrs` the attribute matrix (one row per node).
//!
//! `--threads N` pins the worker-pool width (equivalent to setting
//! `HTC_NUM_THREADS`).  `--json` replaces the anchor TSV on stdout with a
//! machine-readable summary — stage timings (seconds, count and mean per
//! stage), trusted-pair counts and orbit importance weights — while
//! `--output` still receives the anchor TSV.
//!
//! All flags, including the preset name, are validated at parse time, before
//! any network is read or aligned.

use htc::core::matching::{greedy_matching, greedy_matching_topk};
use htc::core::{HtcAligner, HtcConfig};
use htc::graph::io::read_network;
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone)]
struct CliArgs {
    source: PathBuf,
    target: PathBuf,
    output: Option<PathBuf>,
    /// The `--preset` name and its configuration before the other flags
    /// apply (resolving the name at parse time validates it).
    preset: String,
    preset_config: HtcConfig,
    orbits: Option<usize>,
    one_to_one: bool,
    seed: Option<u64>,
    threads: Option<usize>,
    json: bool,
}

fn print_usage() {
    eprintln!(
        "usage: htc-align --source <stem> --target <stem> [--output <file>] \
         [--preset fast|small|paper|large] [--orbits K] [--one-to-one] [--seed N] \
         [--threads N] [--json]"
    );
}

fn parse_cli<I: Iterator<Item = String>>(mut args: I) -> Result<CliArgs, String> {
    let mut source = None;
    let mut target = None;
    let mut output = None;
    let mut preset = "small".to_string();
    let mut orbits = None;
    let mut one_to_one = false;
    let mut seed = None;
    let mut threads = None;
    let mut json = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--source" => source = args.next().map(PathBuf::from),
            "--target" => target = args.next().map(PathBuf::from),
            "--output" => output = args.next().map(PathBuf::from),
            "--preset" => preset = args.next().ok_or("--preset needs a value")?,
            "--orbits" => {
                orbits = Some(
                    args.next()
                        .ok_or("--orbits needs a value")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --orbits value: {e}"))?,
                )
            }
            "--one-to-one" => one_to_one = true,
            "--seed" => {
                seed = Some(
                    args.next()
                        .ok_or("--seed needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed value: {e}"))?,
                )
            }
            "--threads" => {
                let n = args
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --threads value: {e}"))?;
                if n == 0 || n > htc::linalg::parallel::MAX_THREADS {
                    return Err(format!(
                        "--threads must be between 1 and {}",
                        htc::linalg::parallel::MAX_THREADS
                    ));
                }
                threads = Some(n);
            }
            "--json" => json = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(CliArgs {
        preset_config: HtcConfig::preset(&preset)?,
        source: source.ok_or("--source is required")?,
        target: target.ok_or("--target is required")?,
        output,
        preset,
        orbits,
        one_to_one,
        seed,
        threads,
        json,
    })
}

/// Derives the pipeline configuration from the parsed flags, rejecting
/// out-of-range values (e.g. `--orbits 50`) before any I/O happens.
fn config_from(args: &CliArgs) -> Result<HtcConfig, String> {
    let mut config = args.preset_config.clone();
    if let Some(k) = args.orbits {
        config = config.with_num_orbits(k);
    }
    if let Some(seed) = args.seed {
        config = config.with_seed(seed);
    }
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// Renders the `--json` summary: stage timings, trusted-pair counts and
/// importance weights.
fn json_summary(args: &CliArgs, config: &HtcConfig, result: &htc::core::HtcResult) -> String {
    let stages = result.timer().stages_json();
    let trusted: Vec<String> = result
        .trusted_counts()
        .iter()
        .map(|c| c.to_string())
        .collect();
    let gamma: Vec<String> = result
        .orbit_importance()
        .iter()
        .map(|g| format!("{g:.6}"))
        .collect();
    format!(
        "{{\n  \"preset\": \"{}\",\n  \"num_views\": {},\n  \"threads\": {},\n  \
         \"total_seconds\": {:.6},\n  \"stages\": {},\n  \
         \"trusted_counts\": [{}],\n  \"orbit_importance\": [{}]\n}}",
        args.preset,
        config.num_views(),
        htc::linalg::parallel::num_threads(),
        result.timer().total().as_secs_f64(),
        stages,
        trusted.join(", "),
        gamma.join(", ")
    )
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
    let config = match config_from(&args) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.threads {
        // Must happen before the first parallel kernel runs: the worker pool
        // reads HTC_NUM_THREADS once, lazily, on first use.
        std::env::set_var("HTC_NUM_THREADS", n.to_string());
    }

    let source = match read_network(&args.source) {
        Ok(network) => network,
        Err(e) => {
            eprintln!(
                "error: failed to read source network {:?}: {e}",
                args.source
            );
            return ExitCode::FAILURE;
        }
    };
    let target = match read_network(&args.target) {
        Ok(network) => network,
        Err(e) => {
            eprintln!(
                "error: failed to read target network {:?}: {e}",
                args.target
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "aligning {} nodes / {} edges against {} nodes / {} edges ({} preset, {} orbit views, {} threads)",
        source.num_nodes(),
        source.num_edges(),
        target.num_nodes(),
        target.num_edges(),
        args.preset,
        config.num_views(),
        htc::linalg::parallel::num_threads()
    );

    let result = match HtcAligner::new(config.clone()).align(&source, &target) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: alignment failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // With --json and no --output the anchor TSV has nowhere to go, so don't
    // pay for the matching / formatting at all.
    if args.output.is_some() || !args.json {
        let mut lines = String::from("source\ttarget\tscore\n");
        if args.one_to_one {
            // A Large-tier result carries top-k rows instead of a dense
            // matrix; the greedy matcher has a variant for each artifact.
            let matching = match result.top_k() {
                Some(topk) => greedy_matching_topk(topk),
                None => greedy_matching(result.alignment()),
            };
            for (s, t) in matching.pairs() {
                lines.push_str(&format!("{s}\t{t}\t{:.6}\n", result.score(s, t)));
            }
        } else {
            for (s, &t) in result.predicted_anchors().iter().enumerate() {
                lines.push_str(&format!("{s}\t{t}\t{:.6}\n", result.score(s, t)));
            }
        }
        match &args.output {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &lines) {
                    eprintln!("error: failed to write {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "wrote {} predicted anchors to {path:?}",
                    lines.lines().count() - 1
                );
            }
            None => print!("{lines}"),
        }
    }
    if args.json {
        println!("{}", json_summary(&args, &config, &result));
    } else {
        eprintln!("\nruntime decomposition:\n{}", result.timer().render());
    }
    ExitCode::SUCCESS
}
