//! # experiments
//!
//! Harnesses that regenerate every table and figure of the paper:
//!
//! | Binary | Paper item |
//! |---|---|
//! | `table1` | Table 1 — candidate technique permutations |
//! | `table2` | Table 2 — benchmarks and input sets |
//! | `table3` | Table 3 — architectural configurations |
//! | `fig1` | Figure 1 — PB bottleneck distances per technique |
//! | `fig2` | Figure 2 — SimPoint−SMARTS prefix distances |
//! | `fig3` / `fig4` | Figures 3–4 — speed vs accuracy (gcc / mcf) |
//! | `fig5` | Figure 5 — CPI-error histograms (config dependence) |
//! | `fig6` | Figure 6 — enhancement speedup error (NLP / TC) |
//! | `fig7` | Figure 7 — technique-selection decision tree |
//! | `profile_char` | §5.2 — execution-profile (χ²) characterization |
//! | `arch_char` | §4.3/§5.2 — architectural-level characterization |
//! | `simtech` | run any/all of the above |
//!
//! Every binary accepts `--quick` (default: representative subset, scale
//! 0.25, four benchmarks — and prints what was dropped) and `--full` (the
//! complete matrix at full scale), plus `--scale <f>`, `--bench <list>`,
//! `--jobs <n>` (worker threads for the simulation fan-out; output is
//! byte-identical at any job count), `--shards <n>` (intra-run interval
//! shards for sampled techniques; output is byte-identical at any shard
//! count), `--metrics` (alias `--cache-stats`; print the observability
//! registry to stderr, even on an early error exit), and
//! `--trace-out <file>` / `SIM_TRACE_OUT` (append one JSONL run-ledger
//! record per technique run; aggregate with the `simreport` binary).

#![warn(missing_docs)]

pub mod ablations;
pub mod bench;
pub mod charexp;
pub mod coherence;
pub mod common;
pub mod extensions;
pub mod fig1;
pub mod fig2;
pub mod fig34;
pub mod fig5;
pub mod fig6;
pub mod opts;
pub mod report;
pub mod tables;

use opts::Opts;

/// Names of all experiments, in paper order.
pub const EXPERIMENTS: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "profile_char",
    "arch_char",
    "ablations",
    "extensions",
    "coherence",
];

/// Run one experiment by name and return its report.
///
/// Observability epilogue (the `--metrics` report and the run-ledger
/// flush) runs from a drop guard, so it happens even when the experiment
/// panics partway — an early error exit still reports what was counted.
///
/// # Panics
/// Panics on an unknown experiment name.
pub fn run_experiment(name: &str, opts: &Opts) -> String {
    opts.install();
    let _guard = ObsGuard {
        metrics: opts.metrics,
        profile_out: opts.profile_out.clone(),
    };
    run_dispatch(name, opts)
}

/// Prints the metrics report, dumps the stage profile, and flushes the run
/// ledger on drop — on the normal exit path *and* during an experiment
/// panic unwind. It then resets the per-experiment observability state
/// (histograms, profiler accumulation, shard observations) so the next
/// experiment in the same process starts from zero — the PR 4
/// inflated-totals bug class, extended to the new accumulators.
struct ObsGuard {
    metrics: bool,
    profile_out: Option<String>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        if self.metrics {
            common::note(&common::cache_stats_summary());
            common::note(&common::metrics_report());
            for line in sim_obs::profile::snapshot().report_lines() {
                common::note(&line);
            }
        }
        if let Some(path) = &self.profile_out {
            if let Err(e) = dump_folded_profile(path) {
                common::note(&format!("profile-out dump failed: {e}"));
            }
        }
        // Persist write-behind artifacts before the process exits so the
        // next invocation starts warm (also on the panic-unwind path).
        if let Some(store) = sim_store::global() {
            if let Err(e) = store.flush() {
                common::note(&format!("artifact-store flush failed: {e}"));
            }
        }
        if let Err(e) = sim_obs::ledger::flush() {
            common::note(&format!("run-ledger flush failed: {e}"));
        }
        // Drop any observations the last run left behind so a later
        // experiment in the same process starts from zero. The ledger
        // footers above already captured this experiment's state, so
        // per-experiment batches in a shared `--trace-out` file are
        // disjoint and `simreport` may sum them.
        sim_exec::reset_shard_state();
        sim_obs::metrics::reset_histograms();
        sim_obs::profile::reset();
    }
}

/// Append this experiment's folded-stacks profile to `path`, truncating
/// once per process so reruns replace (not accumulate into) a stale file
/// while `simtech all` still collects every experiment. Duplicate stack
/// lines are fine: flamegraph tooling sums them.
fn dump_folded_profile(path: &str) -> std::io::Result<()> {
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};
    static APPEND: AtomicBool = AtomicBool::new(false);
    let append = APPEND.swap(true, Ordering::Relaxed);
    let mut opts = std::fs::OpenOptions::new();
    opts.create(true).write(true);
    if append {
        opts.append(true);
    } else {
        opts.truncate(true);
    }
    let mut f = opts.open(path)?;
    f.write_all(sim_obs::profile::snapshot().folded().as_bytes())
}

fn run_dispatch(name: &str, opts: &Opts) -> String {
    match name {
        "table1" => tables::table1(opts.scale),
        "table2" => tables::table2(),
        "table3" => tables::table3(),
        "fig1" => fig1::run(opts),
        "fig2" => fig2::run(opts),
        "fig3" => fig34::run_fig3(opts),
        "fig4" => fig34::run_fig4(opts),
        "fig5" => fig5::run(opts),
        "fig6" => fig6::run(opts),
        "fig7" => {
            let mut s = characterize::decision::render_tree();
            s.push('\n');
            s.push_str(
                "Example recommendations:\n\
                 - accuracy first                -> SMARTS\n\
                 - speed vs accuracy (deadline)  -> SimPoint\n\
                 - zero simulator changes        -> Reduced input sets\n",
            );
            s
        }
        "profile_char" => charexp::run_profile(opts),
        "arch_char" => charexp::run_arch(opts),
        "ablations" => ablations::run(opts),
        "extensions" => extensions::run(opts),
        "coherence" => coherence::run(opts),
        other => panic!("unknown experiment {other:?}; known: {EXPERIMENTS:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_experiments_render() {
        let opts = Opts::default();
        for name in ["table1", "table2", "table3", "fig7"] {
            let s = run_experiment(name, &opts);
            assert!(!s.is_empty(), "{name} produced no output");
        }
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run_experiment("fig99", &Opts::default());
    }
}
