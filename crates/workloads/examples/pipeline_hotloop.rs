//! Wall-clock probe of the detailed-pipeline hot loop.
//!
//! A dependency-free way to measure `run_detailed` throughput — the numbers
//! recorded in `BENCH_pipeline.json` come from running it before and after
//! a change:
//!
//! ```text
//! cargo run --release -p workloads --example pipeline_hotloop
//! ```
//!
//! It reports ns/inst and MIPS for a compute-bound trace (gzip) and a
//! memory-bound one (mcf, which exercises the idle-jump/event-queue path),
//! plus the interpreter-only stream cost as a floor.
//!
//! With `--all`, it instead sweeps every benchmark in the ten-workload
//! suite and prints a per-workload `run_detailed` ns/inst table:
//!
//! ```text
//! cargo run --release -p workloads --example pipeline_hotloop -- --all
//! ```

use sim_core::config::SimConfig;
use sim_core::engine::Simulator;
use sim_core::isa::InstStream;
use std::time::Instant;
use workloads::{benchmark, InputSet, Interp, Program};

const REPS: usize = 5;

fn measure<F: FnMut() -> u64>(label: &str, mut f: F) -> f64 {
    // Warm-up rep, then best-of-REPS to shave scheduler noise.
    f();
    let mut best = f64::INFINITY;
    let mut insts = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        insts = f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    let ns_per_inst = best * 1e9 / insts as f64;
    println!(
        "{label:<28} {insts:>9} insts  {:>8.2} ns/inst  {:>7.1} MIPS",
        ns_per_inst,
        insts as f64 / best / 1e6
    );
    ns_per_inst
}

fn load(name: &str, scale: f64) -> Program {
    let program = benchmark(name)
        .expect("benchmark in suite")
        .program_scaled(InputSet::Reference, scale)
        .expect("reference exists");
    println!(
        "{name} @ scale {scale}, ~{} dynamic insts, best of {REPS} reps",
        program.dynamic_len_estimate
    );
    program
}

/// Sweep the full suite: best-of-`REPS` `run_detailed` ns/inst per workload.
fn sweep_all() {
    println!(
        "{:<12} {:>9}  {:>8}  {:>7}   best of {REPS} reps @ scale 0.02",
        "workload", "insts", "ns/inst", "MIPS"
    );
    for b in workloads::suite() {
        let program = b
            .program_scaled(InputSet::Reference, 0.02)
            .expect("reference exists");
        let run = || {
            let mut sim = Simulator::new(SimConfig::table3(2));
            let mut s = Interp::new(&program);
            sim.run_detailed(&mut s, u64::MAX);
            (sim.stats().core.committed, sim.stats().core.cycles)
        };
        run(); // warm-up
        let mut best = f64::INFINITY;
        let mut insts = 0u64;
        for _ in 0..REPS {
            let t0 = Instant::now();
            insts = run().0;
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!(
            "{:<12} {insts:>9}  {:>8.2}  {:>7.1}",
            b.name,
            best * 1e9 / insts as f64,
            insts as f64 / best / 1e6
        );
    }
}

fn main() {
    if std::env::args().any(|a| a == "--all") {
        sweep_all();
        return;
    }
    let gzip = load("gzip", 0.02);

    measure("interp_stream (gzip)", || {
        let mut s = Interp::new(&gzip);
        let mut n = 0u64;
        while s.next_inst().is_some() {
            n += 1;
        }
        n
    });

    measure("run_detailed (gzip)", || {
        let mut sim = Simulator::new(SimConfig::table3(2));
        let mut s = Interp::new(&gzip);
        sim.run_detailed(&mut s, u64::MAX);
        sim.stats().core.committed
    });

    measure("warm_functional (gzip)", || {
        let mut sim = Simulator::new(SimConfig::table3(2));
        let mut s = Interp::new(&gzip);
        sim.warm_functional(&mut s, u64::MAX)
    });

    let mcf = load("mcf", 0.02);

    measure("run_detailed (mcf)", || {
        let mut sim = Simulator::new(SimConfig::table3(2));
        let mut s = Interp::new(&mcf);
        sim.run_detailed(&mut s, u64::MAX);
        sim.stats().core.committed
    });
}
