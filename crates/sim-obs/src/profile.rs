//! sim-prof: the opt-in stage profiler for the detailed pipeline.
//!
//! `SIM_PROFILE=1` makes the engine's `run_detailed` loop attribute its
//! host wall time to the five pipeline stages (writeback, commit, issue,
//! dispatch, fetch) plus the cycle-advance arm (idle jumps and loop
//! bookkeeping), and sample ROB/IFQ/LSQ occupancy. The engine samples one
//! loop iteration per *epoch* (every [`EPOCH`] iterations) and only
//! sampled iterations read the clock, so the hot loop pays a countdown
//! decrement per iteration and a handful of timestamp reads per epoch —
//! well under 2% of loop time. The profiler touches host-time accounting
//! only, never simulated state, so every report is byte-identical with
//! profiling on or off.
//!
//! Attribution model: a sampled iteration times each stage individually;
//! per-stage *shares* come from those samples and are scaled to the
//! separately measured total loop wall time (standard sampling-profiler
//! practice — the raw sampled sums also carry the clock-read overhead, so
//! shares, not raw sums, are the trustworthy quantity). The raw sums,
//! iteration and sample counts, and wall total are all kept so consumers
//! can judge the sampling density themselves.
//!
//! Results accumulate process-wide (relaxed atomics) and are exported
//! three ways: a `{"v":1,"meta":"profile",...}` record in the run ledger,
//! a folded-stacks text dump (`--profile-out` / `SIM_PROFILE_OUT`) that
//! flamegraph tooling consumes directly, and human-readable report lines.

use std::sync::atomic::{AtomicI8, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::env::env_flag;

/// Loop iterations per timed sample. At ~100–300 ns per iteration and
/// ~7 clock reads (~20 ns each) per sampled iteration, sampling 1/128
/// keeps profiling overhead around 0.5–1%.
pub const EPOCH: u32 = 128;

/// Number of attributed stages: the five pipeline stages plus the
/// cycle-advance arm.
pub const STAGE_COUNT: usize = 6;

/// Stage names in the order the detailed loop runs them, plus `advance`
/// (the idle-jump / cycle-increment arm that ends each iteration).
pub const STAGE_NAMES: [&str; STAGE_COUNT] = [
    "writeback",
    "commit",
    "issue",
    "dispatch",
    "fetch",
    "advance",
];

/// Number of sampled occupancy gauges (ROB, IFQ, LSQ).
pub const OCC_COUNT: usize = 3;

/// Occupancy gauge names, matching the `occ` array passed to [`add_run`].
pub const OCC_NAMES: [&str; OCC_COUNT] = ["rob", "ifq", "lsq"];

/// -1 = follow `SIM_PROFILE`, 0 = forced off, 1 = forced on.
static OVERRIDE: AtomicI8 = AtomicI8::new(-1);

fn env_default() -> bool {
    static ENV: OnceLock<bool> = OnceLock::new();
    *ENV.get_or_init(|| env_flag("SIM_PROFILE", false))
}

/// Force the profiler on or off (tests, `--profile-out`), or `None` to
/// follow the `SIM_PROFILE` environment variable again.
pub fn set_enabled(on: Option<bool>) {
    OVERRIDE.store(on.map_or(-1, i8::from), Ordering::Relaxed);
}

/// Whether the stage profiler is on. Engines read this once per run (or
/// once per core), not per iteration.
#[inline]
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => false,
        1 => true,
        _ => env_default(),
    }
}

#[allow(clippy::declare_interior_mutable_const)] // used only as array init
const ZERO: AtomicU64 = AtomicU64::new(0);

/// Process-wide accumulation across every profiled `run_detailed` call.
static STAGE_NS: [AtomicU64; STAGE_COUNT] = [ZERO; STAGE_COUNT];
static OCC_SUM: [AtomicU64; OCC_COUNT] = [ZERO; OCC_COUNT];
static WALL_NS: AtomicU64 = ZERO;
static ITERS: AtomicU64 = ZERO;
static SAMPLED: AtomicU64 = ZERO;
static RUNS: AtomicU64 = ZERO;

/// Fold one profiled `run_detailed` call into the process-wide totals.
/// `stage_ns` are the raw per-stage sums over the sampled iterations;
/// `occ` are occupancy sums over the same iterations (divide by `sampled`
/// for means); `wall_ns` is the measured wall time of the whole call.
pub fn add_run(
    wall_ns: u64,
    iters: u64,
    sampled: u64,
    stage_ns: [u64; STAGE_COUNT],
    occ: [u64; OCC_COUNT],
) {
    if iters == 0 {
        return;
    }
    for (acc, v) in STAGE_NS.iter().zip(stage_ns) {
        acc.fetch_add(v, Ordering::Relaxed);
    }
    for (acc, v) in OCC_SUM.iter().zip(occ) {
        acc.fetch_add(v, Ordering::Relaxed);
    }
    WALL_NS.fetch_add(wall_ns, Ordering::Relaxed);
    ITERS.fetch_add(iters, Ordering::Relaxed);
    SAMPLED.fetch_add(sampled, Ordering::Relaxed);
    RUNS.fetch_add(1, Ordering::Relaxed);
}

/// Reset the process-wide profile (sweep boundaries, tests).
pub fn reset() {
    for a in STAGE_NS.iter().chain(OCC_SUM.iter()) {
        a.store(0, Ordering::Relaxed);
    }
    WALL_NS.store(0, Ordering::Relaxed);
    ITERS.store(0, Ordering::Relaxed);
    SAMPLED.store(0, Ordering::Relaxed);
    RUNS.store(0, Ordering::Relaxed);
}

/// A point-in-time copy of the accumulated profile.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Total measured wall nanoseconds across profiled `run_detailed` calls.
    pub wall_ns: u64,
    /// Total loop iterations.
    pub iters: u64,
    /// Iterations that were individually timed.
    pub sampled: u64,
    /// Number of profiled `run_detailed` calls.
    pub runs: u64,
    /// Raw per-stage nanosecond sums over the sampled iterations, in
    /// [`STAGE_NAMES`] order.
    pub stage_ns: [u64; STAGE_COUNT],
    /// Occupancy sums over the sampled iterations, in [`OCC_NAMES`] order.
    pub occ_sum: [u64; OCC_COUNT],
}

impl ProfileSnapshot {
    /// Whether anything was profiled.
    pub fn is_empty(&self) -> bool {
        self.iters == 0
    }

    /// Total raw sampled nanoseconds across all stages.
    pub fn sampled_ns(&self) -> u64 {
        self.stage_ns.iter().sum()
    }

    /// Wall time attributed to each stage: the sampled per-stage shares
    /// scaled to the measured wall total, so the attribution sums to
    /// `wall_ns` (minus integer rounding).
    pub fn attributed_ns(&self) -> [u64; STAGE_COUNT] {
        let total = self.sampled_ns();
        if total == 0 {
            return [0; STAGE_COUNT];
        }
        let mut out = [0u64; STAGE_COUNT];
        for (o, &raw) in out.iter_mut().zip(&self.stage_ns) {
            *o = ((raw as u128 * self.wall_ns as u128) / total as u128) as u64;
        }
        out
    }

    /// Mean sampled occupancy (×1000 for three decimal places), in
    /// [`OCC_NAMES`] order.
    pub fn occ_milli(&self) -> [u64; OCC_COUNT] {
        let mut out = [0u64; OCC_COUNT];
        if self.sampled == 0 {
            return out;
        }
        for (o, &sum) in out.iter_mut().zip(&self.occ_sum) {
            *o = sum * 1000 / self.sampled;
        }
        out
    }

    /// Folded-stacks text (`frame;frame value` per line) rooted at
    /// `run_detailed`, directly consumable by flamegraph tooling. Values
    /// are the attributed nanoseconds.
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (name, ns) in STAGE_NAMES.iter().zip(self.attributed_ns()) {
            if ns > 0 {
                out.push_str(&format!("run_detailed;{name} {ns}\n"));
            }
        }
        out
    }

    /// Human-readable attribution lines for the `--metrics` report.
    pub fn report_lines(&self) -> Vec<String> {
        if self.is_empty() {
            return Vec::new();
        }
        let mut out = vec![format!(
            "profile: {} run_detailed calls, {} iters ({} sampled, 1/{}), wall {:.3}s",
            self.runs,
            self.iters,
            self.sampled,
            EPOCH,
            self.wall_ns as f64 / 1e9,
        )];
        let attr = self.attributed_ns();
        for (name, ns) in STAGE_NAMES.iter().zip(attr) {
            let pct = if self.wall_ns > 0 {
                ns as f64 * 100.0 / self.wall_ns as f64
            } else {
                0.0
            };
            out.push(format!("profile.stage.{name} = {ns} ns ({pct:.1}%)"));
        }
        let occ = self.occ_milli();
        for (name, milli) in OCC_NAMES.iter().zip(occ) {
            out.push(format!(
                "profile.occupancy.{name} = {}.{:03}",
                milli / 1000,
                milli % 1000
            ));
        }
        out
    }
}

/// Snapshot the process-wide profile accumulation.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot {
        wall_ns: WALL_NS.load(Ordering::Relaxed),
        iters: ITERS.load(Ordering::Relaxed),
        sampled: SAMPLED.load(Ordering::Relaxed),
        runs: RUNS.load(Ordering::Relaxed),
        stage_ns: std::array::from_fn(|i| STAGE_NS[i].load(Ordering::Relaxed)),
        occ_sum: std::array::from_fn(|i| OCC_SUM[i].load(Ordering::Relaxed)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests share the process-wide accumulators; serialize them (and any
    /// other test that reads them, e.g. the ledger footer tests).
    use crate::testutil::global_lock as lock;

    #[test]
    fn override_wins_over_env() {
        let _g = lock();
        set_enabled(Some(true));
        assert!(enabled());
        set_enabled(Some(false));
        assert!(!enabled());
        set_enabled(None);
    }

    #[test]
    fn attribution_scales_shares_to_wall() {
        let _g = lock();
        reset();
        add_run(
            1_000_000,
            1280,
            10,
            [300, 100, 400, 100, 80, 20],
            [500, 20, 30],
        );
        let s = snapshot();
        assert_eq!(s.runs, 1);
        assert_eq!(s.iters, 1280);
        assert_eq!(s.sampled_ns(), 1000);
        let attr = s.attributed_ns();
        assert_eq!(attr[0], 300_000, "writeback share of the wall");
        assert_eq!(attr[2], 400_000, "issue share of the wall");
        let sum: u64 = attr.iter().sum();
        assert!(
            sum >= s.wall_ns * 99 / 100,
            "attribution covers the wall (got {sum} of {})",
            s.wall_ns
        );
        assert_eq!(s.occ_milli(), [50_000, 2_000, 3_000]);
        let folded = s.folded();
        assert!(folded.contains("run_detailed;issue 400000\n"));
        reset();
        assert!(snapshot().is_empty());
    }

    #[test]
    fn empty_runs_are_ignored() {
        let _g = lock();
        reset();
        add_run(123, 0, 0, [0; STAGE_COUNT], [0; OCC_COUNT]);
        assert!(snapshot().is_empty());
        reset();
    }
}
