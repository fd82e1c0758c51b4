//! Golden shard-invariance tests: intra-run interval sharding
//! (`--shards` / `SIM_SHARDS`) is a pure host-side optimization, so no
//! observable output — harness reports, technique metrics and costs,
//! checkpoint state — may depend on the shard count. The segment grid and
//! the in-order merge are fixed by the technique parameters alone; the
//! shard count only controls how many workers walk the grid concurrently.

use experiments::opts::Opts;
use experiments::run_experiment;
use sim_core::SimConfig;
use techniques::spec::SimPointWarmup;
use workloads::InputSet;

/// The shard counts under test: serial, a couple of awkward splits, and
/// more shards than this host has cores.
const SHARDS: [&str; 4] = ["1", "2", "3", "8"];

/// Every test here toggles process-global state (the shard and jobs
/// overrides, the run cache), so they must not run concurrently.
fn global_state_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Restores the process-global overrides on drop, also on assert unwind,
/// so a failure here cannot cascade into later tests in this binary.
struct Neutral;

impl Drop for Neutral {
    fn drop(&mut self) {
        sim_exec::set_shards(0);
        sim_exec::set_jobs(1);
        techniques::cache::clear_all();
    }
}

/// The acceptance criterion: the Figure 2 sweep (SMARTS vs SimPoint)
/// prints a byte-identical report at every shard count, at one and at four
/// worker threads.
#[test]
fn fig2_report_is_byte_identical_across_shard_and_job_counts() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let base = ["--scale", "0.05", "--bench", "gzip"];
    for jobs in ["1", "4"] {
        let args = |shards: &str| {
            Opts::from_args(base.iter().chain(&["--jobs", jobs, "--shards", shards]))
        };
        techniques::cache::clear_all();
        let golden = run_experiment("fig2", &args(SHARDS[0]));
        for shards in &SHARDS[1..] {
            techniques::cache::clear_all();
            let report = run_experiment("fig2", &args(shards));
            assert_eq!(
                golden, report,
                "fig2 (jobs {jobs}) diverged at --shards {shards}"
            );
        }
    }
}

/// The config-dependence histograms (Figure 5) cover the remaining
/// techniques' merge paths; spot-check them at the widest split.
#[test]
fn fig5_report_is_byte_identical_across_shard_counts() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let args = |shards: &str| {
        Opts::from_args([
            "--scale", "0.05", "--bench", "gzip", "--jobs", "4", "--shards", shards,
        ])
    };
    techniques::cache::clear_all();
    let golden = run_experiment("fig5", &args("1"));
    for shards in ["3", "8"] {
        techniques::cache::clear_all();
        let report = run_experiment("fig5", &args(shards));
        assert_eq!(golden, report, "fig5 diverged at --shards {shards}");
    }
}

/// Direct-API equivalence on the main thread, where `shard_map` actually
/// fans out (inside the harness pool the scheduler runs shards serially on
/// the claiming worker): every sampled technique returns bit-identical
/// metrics and cost at every shard count.
#[test]
fn direct_technique_calls_are_bit_identical_across_shard_counts() {
    let _guard = global_state_lock();
    let _neutral = Neutral;
    let program = workloads::benchmark("gzip")
        .unwrap()
        .program_scaled(InputSet::Small, 0.1)
        .unwrap();
    let cfg = SimConfig::table3(2);
    sim_exec::set_jobs(4);

    let run_all = || {
        techniques::cache::clear_all();
        let s = techniques::smarts::run_smarts(&program, &cfg, 500, 1_000);
        let r = techniques::random_sample::run_random_sampling(&program, &cfg, 12, 500, 500, 7);
        let plan = techniques::simpoint::plan(&program, 50_000, 6);
        let p = techniques::simpoint::run_with_plan(
            &plan,
            &program,
            &cfg,
            SimPointWarmup::Functional(100_000),
        );
        (
            (s.metrics, s.cost, s.n_samples, s.runs),
            (r.metrics, r.cost, r.n_samples),
            p,
        )
    };

    sim_exec::set_shards(1);
    let golden = run_all();
    for shards in [2, 3, 8] {
        sim_exec::set_shards(shards);
        let got = run_all();
        assert_eq!(
            golden.0, got.0,
            "SMARTS diverged at {shards} shards (4 jobs)"
        );
        assert_eq!(
            golden.1, got.1,
            "random sampling diverged at {shards} shards (4 jobs)"
        );
        assert_eq!(
            golden.2, got.2,
            "SimPoint diverged at {shards} shards (4 jobs)"
        );
    }
}
