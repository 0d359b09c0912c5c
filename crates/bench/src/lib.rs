//! # htc-bench
//!
//! Benchmark harness for the HTC reproduction.  Every table and figure of the
//! paper's evaluation section has a dedicated binary in `src/bin/` (see
//! `DESIGN.md` for the experiment index); this library holds the shared
//! plumbing: CLI parsing, method runners, result rows and table rendering,
//! plus the serving load generator ([`load`]) that `bench_pipeline` and the
//! `serve_load` example share.
//!
//! All binaries accept `--scale small|paper` (default `small`) and print both
//! a human-readable table and machine-readable TSV prefixed with `#TSV`.

pub mod harness;
pub mod load;
pub mod report;

pub use harness::{
    align_with_baseline, align_with_htc, htc_config_for_scale, parse_args, HarnessArgs, MethodRun,
};
pub use report::{print_table, tsv_line, Table};
