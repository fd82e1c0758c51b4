//! The observability layer must be invisible in the results: report output
//! (stdout) is byte-identical with tracing off and on, and the run ledger
//! carries the same record multiset at any `--jobs` count (modulo the
//! fields that legitimately measure this machine: wall time, span timings,
//! and reuse provenance, which depend on which worker got there first).

use std::path::PathBuf;

use experiments::opts::Opts;
use experiments::run_experiment;
use sim_obs::json::Json;
use sim_obs::ledger::REQUIRED_KEYS;

/// Both tests touch process-global state (trace enable flag, ledger sink,
/// jobs override, run cache), so they must not run concurrently.
fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("simtech_obs_{}_{name}", std::process::id()))
}

/// Restore the neutral observability state (and jobs override) even when
/// an assertion in the middle of a test would otherwise leave tracing on.
struct Neutral;
impl Drop for Neutral {
    fn drop(&mut self) {
        sim_obs::trace::set_enabled(false);
        let _ = sim_obs::ledger::clear_sink();
        sim_exec::set_jobs(1);
    }
}

fn tiny_args(extra: &[&str]) -> Opts {
    let mut args = vec!["--scale", "0.05", "--bench", "gzip", "--jobs", "2"];
    args.extend_from_slice(extra);
    Opts::from_args(args)
}

/// The deterministic projection of one ledger line: everything except
/// wall time, span timings, and reuse provenance. Floats are compared by
/// their shortest-round-trip serialization, which is exact.
fn projection(line: &str) -> String {
    let j = Json::parse(line).unwrap_or_else(|e| panic!("bad ledger line {line:?}: {e}"));
    let s = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_string();
    let n = |obj: &Json, k: &str| obj.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let cost = j.get("cost").expect("cost object");
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}",
        s("bench"),
        s("technique"),
        s("spec"),
        s("cfg"),
        n(&j, "scale"),
        n(&j, "cpi"),
        n(&j, "measured_insts"),
        n(cost, "detailed"),
        n(cost, "warmed"),
        n(cost, "skipped"),
        n(cost, "profiled"),
        n(cost, "work_units"),
    )
}

/// Read a ledger file into its sorted deterministic projections.
fn projections(path: &PathBuf) -> Vec<String> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read ledger {}: {e}", path.display()));
    let mut out: Vec<String> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !is_footer(l))
        .map(projection)
        .collect();
    out.sort();
    out
}

/// Whether a ledger line is a pipeline-metrics footer (cumulative machine
/// measurements, outside the deterministic record multiset).
fn is_footer(line: &str) -> bool {
    Json::parse(line).is_ok_and(|j| j.get("meta").is_some())
}

/// Turning tracing on (ledger sink + metrics) must not change one byte of
/// the fig2 report, and every emitted ledger line must carry the full
/// versioned schema.
#[test]
fn fig2_report_is_byte_identical_with_tracing_on() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let ledger = tmp("fig2.jsonl");
    let _ = std::fs::remove_file(&ledger);

    sim_obs::trace::set_enabled(false);
    let off = run_experiment("fig2", &tiny_args(&[]));

    techniques::cache::global().clear();
    let ledger_s = ledger.to_string_lossy().into_owned();
    let on = run_experiment("fig2", &tiny_args(&["--metrics", "--trace-out", &ledger_s]));
    assert_eq!(
        off, on,
        "fig2 report must be byte-identical with tracing off and on"
    );

    let text = std::fs::read_to_string(&ledger).expect("ledger was written");
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(!lines.is_empty(), "traced run must emit ledger records");
    let mut footers = 0;
    for line in &lines {
        let j = Json::parse(line).expect("ledger line parses");
        if j.get("meta").is_some() {
            footers += 1;
            let m = j.get("metrics").expect("footer carries a metrics object");
            assert!(
                m.get("pipeline.batch_refills").is_some(),
                "footer surfaces the pipeline hot-loop counters: {line}"
            );
            continue;
        }
        for key in REQUIRED_KEYS {
            assert!(j.get(key).is_some(), "ledger line missing {key:?}: {line}");
        }
    }
    assert!(
        footers >= 1,
        "a detailed-pipeline run must append a metrics footer"
    );
    let _ = std::fs::remove_file(&ledger);
}

/// Restore profiler/shard defaults after a matrix test, even on a failed
/// assertion mid-matrix.
struct MatrixNeutral;
impl Drop for MatrixNeutral {
    fn drop(&mut self) {
        sim_obs::profile::set_enabled(None);
        sim_exec::set_shards(0);
    }
}

/// The stage profiler must be invisible in the results: `SIM_PROFILE`
/// {off,on} x shards {1,3} all print byte-identical
/// fig2 reports (fig5 re-checked on the profile axis). Every run starts
/// from cold reuse tiers so byte-identity is earned by execution, not by
/// the run cache replaying the first result.
#[test]
fn profiling_matrix_is_byte_identical() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let _matrix = MatrixNeutral;

    let mut baseline: Option<String> = None;
    for profile in [false, true] {
        for shards in ["1", "3"] {
            sim_obs::profile::set_enabled(Some(profile));
            techniques::cache::clear_all();
            let report = run_experiment("fig2", &tiny_args(&["--shards", shards]));
            match &baseline {
                None => baseline = Some(report),
                Some(base) => assert_eq!(
                    base, &report,
                    "fig2 report changed at SIM_PROFILE={} shards={shards}",
                    profile as u8
                ),
            }
        }
    }

    let mut fig5_baseline: Option<String> = None;
    for profile in [false, true] {
        sim_obs::profile::set_enabled(Some(profile));
        techniques::cache::clear_all();
        let report = run_experiment("fig5", &tiny_args(&[]));
        match &fig5_baseline {
            None => fig5_baseline = Some(report),
            Some(base) => assert_eq!(base, &report, "fig5 report changed under SIM_PROFILE=1"),
        }
    }
}

/// A profiled, traced run must emit schema-valid `meta:"profile"` and
/// histogram footer records — validated in-process by the same code
/// `simreport --check` runs.
#[test]
fn simreport_validates_profile_and_histogram_footers() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let _matrix = MatrixNeutral;
    let ledger = tmp("profile.jsonl");
    let ledger_s = ledger.to_string_lossy().into_owned();
    let _ = std::fs::remove_file(&ledger);

    sim_obs::profile::set_enabled(Some(true));
    techniques::cache::clear_all();
    let _ = run_experiment("fig2", &tiny_args(&["--trace-out", &ledger_s]));

    let ok = experiments::report::check(std::slice::from_ref(&ledger_s))
        .expect("profiled ledger passes simreport --check");
    assert!(ok.contains("metrics footers"), "{ok}");
    assert!(ok.contains("profile footers"), "{ok}");

    let parsed = experiments::report::load(&[ledger_s]).expect("ledger loads");
    assert!(
        parsed.hists.contains_key("hist.pipeline.refill_insts"),
        "decode-refill histogram reaches the ledger: {:?}",
        parsed.hists.keys().collect::<Vec<_>>()
    );
    assert!(parsed.profile.footers >= 1);
    assert!(parsed.profile.runs > 0, "profiled runs recorded");
    let attributed: u64 = parsed.profile.attributed.values().sum();
    assert!(
        attributed > 0 && attributed <= parsed.profile.wall_ns,
        "attribution is positive and bounded by wall ({attributed} vs {})",
        parsed.profile.wall_ns
    );
    let _ = std::fs::remove_file(&ledger);
}

/// The PR 4 inflated-totals bug class, extended to the new accumulators:
/// two identical in-process sweeps separated by `cache::clear_all` must
/// observe identical metrics — histogram counts must not carry over, and
/// the profiler's iteration counts must restart from zero.
#[test]
fn back_to_back_sweeps_observe_identical_metrics() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let _matrix = MatrixNeutral;
    let opts = tiny_args(&[]);

    // Deterministic projection of the observability state after a sweep:
    // full snapshots for value-deterministic histograms (instruction and
    // cycle counts), record counts for wall-time histograms, and the
    // profiler's deterministic sampling counters.
    fn observe() -> String {
        let mut out = String::new();
        for (name, h) in sim_obs::metrics::histogram_snapshots() {
            let deterministic =
                name.ends_with("refill_insts") || name.ends_with("idle_jump_cycles");
            if deterministic {
                out.push_str(&format!(
                    "{name}: {:?}\n",
                    (h.count, h.sum, h.max, &h.buckets)
                ));
            } else {
                out.push_str(&format!("{name}: count {}\n", h.count));
            }
        }
        let p = sim_obs::profile::snapshot();
        out.push_str(&format!(
            "profile: iters {} sampled {} runs {}\n",
            p.iters, p.sampled, p.runs
        ));
        out
    }

    sim_obs::profile::set_enabled(Some(true));
    techniques::cache::clear_all();
    // Call the harness body directly (not run_experiment): the drop guard
    // there resets this state before we could observe it.
    let report1 = experiments::fig2::run(&opts);
    let sweep1 = observe();

    techniques::cache::clear_all();
    assert_eq!(
        observe(),
        "profile: iters 0 sampled 0 runs 0\n",
        "clear_all must empty every histogram and the profiler"
    );

    let report2 = experiments::fig2::run(&opts);
    let sweep2 = observe();
    techniques::cache::clear_all();

    assert_eq!(report1, report2, "sweeps are byte-identical");
    assert!(
        sweep1.contains("hist.pipeline.refill_insts"),
        "sweep populated the refill histogram: {sweep1}"
    );
    assert!(sweep1.contains("iters") && !sweep1.starts_with("profile: iters 0"));
    assert_eq!(
        sweep1, sweep2,
        "second sweep must observe identical metrics, not inflated carryover"
    );
}

/// The ledger's deterministic fields (run key, cost, CPI) must agree
/// between a serial and a heavily parallel run: same records, any order.
#[test]
fn ledger_is_semantically_equal_across_job_counts() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let (p1, p8) = (tmp("jobs1.jsonl"), tmp("jobs8.jsonl"));
    let (p1_s, p8_s) = (
        p1.to_string_lossy().into_owned(),
        p8.to_string_lossy().into_owned(),
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p8);

    techniques::cache::global().clear();
    let serial = run_experiment(
        "fig2",
        &Opts::from_args([
            "--scale",
            "0.05",
            "--bench",
            "gzip",
            "--jobs",
            "1",
            "--trace-out",
            &p1_s,
        ]),
    );
    techniques::cache::global().clear();
    let parallel = run_experiment(
        "fig2",
        &Opts::from_args([
            "--scale",
            "0.05",
            "--bench",
            "gzip",
            "--jobs",
            "8",
            "--trace-out",
            &p8_s,
        ]),
    );
    assert_eq!(serial, parallel, "fig2 report is jobs-independent");

    let (a, b) = (projections(&p1), projections(&p8));
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "ledger record multisets must agree between --jobs 1 and --jobs 8"
    );
    let _ = std::fs::remove_file(&p1);
    let _ = std::fs::remove_file(&p8);
}
