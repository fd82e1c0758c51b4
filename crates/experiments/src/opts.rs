//! Command-line options shared by every experiment binary.

/// Parsed experiment options.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Run the complete matrix (all benchmarks, all 69 permutations, full
    /// design sizes) instead of the quick representative subset.
    pub full: bool,
    /// Stream/parameter scale. Quick default 0.25, full default 1.0.
    pub scale: f64,
    /// Benchmarks to run. Quick default: gzip, gcc, mcf, art.
    pub benchmarks: Vec<String>,
    /// Enhancement selector for the Figure 6 experiment ("nlp" or "tc").
    pub enhancement: String,
    /// Worker-thread count for the simulation fan-out (`--jobs`). `None`
    /// defers to `SIM_JOBS` or the machine's available parallelism;
    /// `Some(1)` is the exact serial path. Output is byte-identical at any
    /// job count.
    pub jobs: Option<usize>,
    /// Intra-run shard count for sampled techniques (`--shards`). `None`
    /// defers to `SIM_SHARDS` or the automatic default (the worker-thread
    /// count); `Some(1)` is the exact serial path. Output is byte-identical
    /// at any shard count.
    pub shards: Option<usize>,
    /// Print the observability metrics registry (run-cache and
    /// checkpoint-library counters, pool timings, span totals) to stderr
    /// after the experiment — even when it exits early with an error
    /// (`--metrics`, its older alias `--cache-stats`, or
    /// `SIM_CACHE_STATS=1`).
    pub metrics: bool,
    /// Run-ledger sink: one JSONL record per technique run is appended to
    /// this file (`--trace-out <file>`, or `SIM_TRACE_OUT`). Buffered and
    /// flushed (sorted) at harness exit. Report output never changes.
    pub trace_out: Option<String>,
    /// Persistent artifact-store directory (`--store <dir>`, or
    /// `SIM_STORE`). Run results and checkpoint tiers are persisted there
    /// and reused by later *processes*; a warm-store rerun prints
    /// byte-identical reports. `None` keeps all reuse in-memory.
    pub store: Option<String>,
    /// Stage-profiler folded-stacks output file (`--profile-out <file>`,
    /// or `SIM_PROFILE_OUT`). Setting it implies `SIM_PROFILE=1`; the
    /// accumulated per-stage attribution is written in folded-stacks text
    /// (`run_detailed;stage count`) at harness exit, ready for flamegraph
    /// tooling. Report output never changes.
    pub profile_out: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Opts::from_args(std::iter::empty::<String>())
    }
}

impl Opts {
    /// Parse from an argument iterator (without the program name).
    ///
    /// Recognized flags: `--full`, `--quick`, `--scale <f>`,
    /// `--bench <a,b,c>`, `--enhancement <nlp|tc>`, `--jobs <n>`,
    /// `--shards <n>`, `--metrics` (alias `--cache-stats`),
    /// `--trace-out <file>`, `--store <dir>`,
    /// `--profile-out <file>`.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut full = false;
        let mut scale: Option<f64> = None;
        let mut benchmarks: Option<Vec<String>> = None;
        let mut enhancement = "nlp".to_string();
        let mut jobs: Option<usize> = None;
        let mut shards: Option<usize> = None;
        let mut metrics = sim_obs::env_flag("SIM_CACHE_STATS", false);
        let mut trace_out: Option<String> = sim_obs::env_val("SIM_TRACE_OUT");
        let mut store: Option<String> = sim_obs::env_val("SIM_STORE");
        let mut profile_out: Option<String> = sim_obs::env_val("SIM_PROFILE_OUT");

        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_ref() {
                "--full" => full = true,
                "--quick" => full = false,
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    scale = Some(v.as_ref().parse().expect("--scale must be a number"));
                }
                "--bench" | "--benchmarks" => {
                    let v = it.next().expect("--bench needs a comma-separated list");
                    benchmarks = Some(
                        v.as_ref()
                            .split(',')
                            .map(|s| s.trim().to_string())
                            .collect(),
                    );
                }
                "--enhancement" => {
                    let v = it.next().expect("--enhancement needs nlp or tc");
                    enhancement = v.as_ref().to_lowercase();
                }
                "--jobs" => {
                    let v = it.next().expect("--jobs needs a thread count");
                    let n: usize = v.as_ref().parse().expect("--jobs must be an integer");
                    assert!(n >= 1, "--jobs must be at least 1, got {n}");
                    jobs = Some(n);
                }
                "--shards" => {
                    let v = it.next().expect("--shards needs a shard count");
                    let n: usize = v.as_ref().parse().expect("--shards must be an integer");
                    assert!(n >= 1, "--shards must be at least 1, got {n}");
                    shards = Some(n);
                }
                "--metrics" | "--cache-stats" => metrics = true,
                "--trace-out" => {
                    let v = it.next().expect("--trace-out needs a file path");
                    trace_out = Some(v.as_ref().to_string());
                }
                "--store" => {
                    let v = it.next().expect("--store needs a directory path");
                    store = Some(v.as_ref().to_string());
                }
                "--profile-out" => {
                    let v = it.next().expect("--profile-out needs a file path");
                    profile_out = Some(v.as_ref().to_string());
                }
                other => {
                    panic!(
                        "unknown flag {other:?} \
                         (try --full, --scale, --bench, --enhancement, --jobs, \
                         --shards, --metrics, --trace-out, --store, \
                         --profile-out)"
                    )
                }
            }
        }

        let scale = scale.unwrap_or(if full { 1.0 } else { 0.25 });
        assert!(
            scale > 0.0 && scale.is_finite(),
            "--scale must be a positive number, got {scale}"
        );
        let benchmarks = benchmarks.unwrap_or_else(|| {
            if full {
                workloads::suite()
                    .iter()
                    .map(|b| b.name.to_string())
                    .collect()
            } else {
                vec![
                    "gzip".to_string(),
                    "gcc".to_string(),
                    "mcf".to_string(),
                    "art".to_string(),
                ]
            }
        });
        Opts {
            full,
            scale,
            benchmarks,
            enhancement,
            jobs,
            shards,
            metrics,
            trace_out,
            store,
            profile_out,
        }
    }

    /// Install this run's worker-thread count into [`sim_exec`]: the
    /// explicit `--jobs` flag when given, else whatever `SIM_JOBS` / the
    /// machine defaults resolve to. Call once per harness invocation.
    pub fn install_jobs(&self) {
        if let Some(n) = self.jobs {
            sim_exec::set_jobs(n);
        }
    }

    /// Install all process-wide settings this run carries: the worker
    /// count ([`Opts::install_jobs`]), the intra-run shard count
    /// (`--shards`), the persistent artifact store (`--store`), and
    /// the observability switches — span tracing is turned on when either
    /// `--metrics` or `--trace-out` is active, the run-ledger sink is
    /// opened for `--trace-out`, and the stage profiler is forced on when
    /// `--profile-out` asks for a folded-stacks dump. Call once per
    /// harness invocation
    /// (re-installing the same sink path is a no-op, so `simtech all` may
    /// call this per experiment).
    ///
    /// # Panics
    /// Panics if the `--trace-out` sink or the `--store` directory cannot
    /// be opened.
    pub fn install(&self) {
        self.install_jobs();
        if let Some(n) = self.shards {
            sim_exec::set_shards(n);
        }
        if let Some(dir) = &self.store {
            sim_store::install_global(std::path::Path::new(dir))
                .unwrap_or_else(|e| panic!("cannot open --store directory {dir:?}: {e}"));
        }
        if self.metrics || self.trace_out.is_some() {
            sim_obs::trace::set_enabled(true);
        }
        if let Some(path) = &self.trace_out {
            sim_obs::ledger::set_sink(path)
                .unwrap_or_else(|e| panic!("cannot open --trace-out sink {path:?}: {e}"));
        }
        // Both the ledger and the store buffer writes; a ctrl-c mid-sweep
        // would normally drop that tail. Arm the flush guard whenever
        // there is buffered state worth saving, so an interrupted run
        // keeps every record and artifact completed so far.
        if self.trace_out.is_some() || self.store.is_some() {
            sim_serve::signal::install_flush_guard();
        }
        // Asking for a folded-stacks dump implies the profiler itself:
        // `--profile-out` without `SIM_PROFILE=1` would dump nothing.
        if self.profile_out.is_some() {
            sim_obs::profile::set_enabled(Some(true));
        }
    }

    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        Opts::from_args(std::env::args().skip(1))
    }

    /// One-line description of the run mode, printed by every experiment.
    pub fn describe(&self) -> String {
        format!(
            "mode={} scale={} benchmarks=[{}]",
            if self.full { "FULL" } else { "quick" },
            self.scale,
            self.benchmarks.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_quick() {
        let o = Opts::default();
        assert!(!o.full);
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.benchmarks.len(), 4);
        assert_eq!(o.enhancement, "nlp");
    }

    #[test]
    fn full_uses_all_benchmarks_and_unit_scale() {
        let o = Opts::from_args(["--full"]);
        assert!(o.full);
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.benchmarks.len(), 10);
    }

    #[test]
    fn explicit_flags_override() {
        let o = Opts::from_args(["--full", "--scale", "0.5", "--bench", "gcc,mcf"]);
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.benchmarks, vec!["gcc", "mcf"]);
    }

    #[test]
    fn enhancement_flag() {
        let o = Opts::from_args(["--enhancement", "TC"]);
        assert_eq!(o.enhancement, "tc");
    }

    #[test]
    fn jobs_flag_parses() {
        assert_eq!(Opts::default().jobs, None);
        let o = Opts::from_args(["--jobs", "4"]);
        assert_eq!(o.jobs, Some(4));
    }

    #[test]
    #[should_panic(expected = "--jobs must be at least 1")]
    fn zero_jobs_is_rejected() {
        let _ = Opts::from_args(["--jobs", "0"]);
    }

    #[test]
    fn shards_flag_parses() {
        assert_eq!(Opts::default().shards, None);
        let o = Opts::from_args(["--shards", "3"]);
        assert_eq!(o.shards, Some(3));
    }

    #[test]
    #[should_panic(expected = "--shards must be at least 1")]
    fn zero_shards_is_rejected() {
        let _ = Opts::from_args(["--shards", "0"]);
    }

    #[test]
    fn cache_stats_flag_parses() {
        let o = Opts::from_args(["--cache-stats"]);
        assert!(o.metrics, "--cache-stats stays an alias for --metrics");
    }

    #[test]
    fn metrics_and_trace_out_flags_parse() {
        let o = Opts::from_args(["--metrics"]);
        assert!(o.metrics);
        assert!(o.trace_out.is_none() || std::env::var("SIM_TRACE_OUT").is_ok());
        let o = Opts::from_args(["--trace-out", "/tmp/ledger.jsonl"]);
        assert_eq!(o.trace_out.as_deref(), Some("/tmp/ledger.jsonl"));
        assert!(!o.metrics || std::env::var("SIM_CACHE_STATS").is_ok());
    }

    #[test]
    fn store_flag_parses() {
        let o = Opts::from_args(["--store", "/tmp/simstore"]);
        assert_eq!(o.store.as_deref(), Some("/tmp/simstore"));
        let o = Opts::default();
        assert!(o.store.is_none() || std::env::var("SIM_STORE").is_ok());
    }

    #[test]
    fn profile_out_flag_parses() {
        let o = Opts::from_args(["--profile-out", "/tmp/profile.folded"]);
        assert_eq!(o.profile_out.as_deref(), Some("/tmp/profile.folded"));
        let o = Opts::default();
        assert!(o.profile_out.is_none() || std::env::var("SIM_PROFILE_OUT").is_ok());
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flags_panic() {
        let _ = Opts::from_args(["--bogus"]);
    }

    #[test]
    #[should_panic(expected = "positive number")]
    fn zero_scale_is_rejected() {
        let _ = Opts::from_args(["--scale", "0"]);
    }
}
