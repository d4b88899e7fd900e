//! cellscope benchmark: one named workload per process.
//!
//! ```text
//! cargo run --release --manifest-path cellbench/Cargo.toml -- \
//!     --workload study|sharded|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). Every file a run writes lives under `.cellbench_tmp/`
//! in the working directory and is removed before the process exits.
//! See README.md for the workloads and what each metric means.

use cellbench::{parse_args, replay, study, sys};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: sys::CountingAllocator = sys::CountingAllocator;

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("cellbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match sys::ScratchDir::create(&args.workload) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("cellbench: creating the scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let result = match args.workload.as_str() {
        "study" => study::run(&args, false, start),
        "sharded" => study::run(&args, true, start),
        _ => replay::run(&args, scratch.path(), start),
    };
    drop(scratch);
    match result {
        Ok(outcome) => {
            for (name, value, _) in &outcome.metrics {
                if !value.is_finite() || *value < 0.0 {
                    eprintln!("cellbench: metric {name} = {value} is not a measurement");
                    return ExitCode::from(1);
                }
            }
            println!("{}", outcome.result_line());
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("cellbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
