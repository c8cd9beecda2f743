//! `perfbench --workload <zipf-hot|scatter|churn> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one JSON result line last on standard output and exits 0 when
//! every checked answer was correct, 1 when one was not, 2 on bad usage.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::engine::{self, Config};

const USAGE: &str = "usage: perfbench --workload <zipf-hot|scatter|churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--tiny] [--work-dir <dir>]";

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            cfg.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cfg)
}

/// Fixes glibc's allocator thresholds for the whole run.  By default glibc
/// raises its mmap threshold to the size of the largest mmapped block freed
/// so far, so whether a 10-20 MiB forest buffer came from reused heap memory
/// or from fresh pages, and whether growing it copied it, depended on the
/// order of earlier frees: `first_answer_ms` and `update_ms` split into two
/// modes between runs.  With fixed 4 MiB thresholds every forest-sized
/// buffer is its own mapping (grown by `mremap`, returned on free) and every
/// per-tree buffer comes from the heap, the same way in every run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_allocator_thresholds() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets allocator parameters; it is called before
    // any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 4 << 20);
        mallopt(M_TRIM_THRESHOLD, 4 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_allocator_thresholds() {}

fn main() -> ExitCode {
    fix_allocator_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match engine::run(&cfg) {
        Ok(outcome) => {
            println!("{}", perfbench::result_json(&outcome));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
