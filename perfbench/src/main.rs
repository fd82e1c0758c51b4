//! The repository benchmark: runs one seeded workload end to end through
//! the crates' public API, checks every output, and prints its metrics.
//!
//! ```text
//! perfbench --workload <pb-truncated|sampled-warm|serve-reuse>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, and the benchmark's
//! spans are written to `.bench_run/trace-<workload>-<seed>.jsonl`. See
//! `README.md` beside this crate for the workloads and metrics.

mod batch;
mod report;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where runs write their scratch files (store, trace), relative to the
/// working directory.
pub const RUN_DIR: &str = ".bench_run";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["pb-truncated", "sampled-warm", "serve-reuse"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {val:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {val:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The host facts the results depend on: worker count and the SIMD
/// features that pick the tag-probe kernels.
fn host_line(jobs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    #[cfg(target_arch = "x86_64")]
    let (avx512f, avx2) = (
        std::arch::is_x86_feature_detected!("avx512f"),
        std::arch::is_x86_feature_detected!("avx2"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx512f, avx2) = (false, false);
    format!("host: nproc={nproc} jobs={jobs} cpu=\"{model}\" avx512f={avx512f} avx2={avx2}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Every SIM_* variable switches a fast path or a process-wide setting
    // the metrics depend on; a run under any of them is not comparable.
    let set: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("SIM_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set; unset them");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc.min(2);
    sim_exec::set_jobs(jobs);

    println!("{}", host_line(jobs));
    println!(
        "workload: {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = match args.workload.as_str() {
        "pb-truncated" => batch::run(&args, batch::plan_pb(args.seed)),
        "sampled-warm" => batch::run(&args, batch::plan_sampled(args.seed)),
        _ => serve::run(&args),
    };
    let mut out = match out {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(rec) = out.trace.take() {
        let path =
            PathBuf::from(RUN_DIR).join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        match rec.write(&path) {
            Ok(()) => println!("trace: {} spans in {}", rec.spans().len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    // A run with any failed op prints its result but does not succeed.
    if out.print(args.trace) > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
