//! SimPoint [Sherwood02]: representative sampling.
//!
//! 1. Profile the execution into fixed-length intervals, collecting a basic
//!    block vector (BBV) per interval.
//! 2. Random-project the BBVs to 15 dimensions and cluster with k-means,
//!    choosing k by BIC (multiple random seeds, as in SimPoint 1.0).
//! 3. Simulate only the interval nearest each cluster centroid and weight
//!    the per-point results by cluster population.

use crate::checkpoint;
use crate::cost::Cost;
use crate::metrics::Metrics;
use crate::profile::profile_intervals;
use crate::spec::SimPointWarmup;
use sim_core::{SimConfig, Simulator};
use sim_obs::{trace as obs, Phase};
use simstats::kmeans::{best_clustering, Clustering};
use simstats::project::RandomProjection;
use workloads::{Interp, Program};

/// Projection dimensionality (SimPoint's standard 15).
pub const PROJECTED_DIMS: usize = 15;

/// Number of random k-means initializations ("7 random seeds").
pub const KMEANS_SEEDS: u64 = 7;

/// k-means iteration budget ("100 iterations").
pub const KMEANS_ITERS: usize = 100;

/// BIC threshold for picking k (SimPoint's 0.9 rule).
pub const BIC_THRESHOLD: f64 = 0.9;

/// One chosen simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Interval index within the execution (point starts at
    /// `index * interval` instructions).
    pub index: u64,
    /// Weight (fraction of intervals in this point's cluster).
    pub weight: f64,
}

/// The offline result of SimPoint analysis for one program: which intervals
/// to simulate and with what weights. Independent of the machine
/// configuration, so it is computed once and reused across configurations —
/// just like downloading the published simulation points.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointPlan {
    /// Interval length in instructions.
    pub interval: u64,
    /// Chosen simulation points, sorted by interval index.
    pub points: Vec<SimPoint>,
    /// Instructions profiled to produce the plan (the plan's cost).
    pub profiled_insts: u64,
    /// The k selected by BIC.
    pub chosen_k: usize,
}

/// How the representative interval of each cluster is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSelection {
    /// The interval nearest the cluster centroid (SimPoint's default).
    Centroid,
    /// The *earliest* interval in each cluster ([Perelman03]'s early
    /// simulation points): slightly less representative, but minimizes
    /// fast-forward/checkpoint cost — the optimization §6.1 cites for
    /// reducing SimPoint's setup cost.
    Early,
}

/// Run the SimPoint analysis phase with centroid representatives.
///
/// # Panics
/// Panics if `interval == 0` or `max_k == 0`.
pub fn plan(program: &Program, interval: u64, max_k: usize) -> SimPointPlan {
    plan_with_selection(program, interval, max_k, PointSelection::Centroid)
}

/// Run the SimPoint analysis phase with the given representative selection.
///
/// Counts each plan in the registered `simpoint.plans` counter and its
/// clustering wall time in `simpoint.kmeans_ns` (no ledger phase covers
/// the clustering).
///
/// # Panics
/// Panics if `interval == 0` or `max_k == 0`.
pub fn plan_with_selection(
    program: &Program,
    interval: u64,
    max_k: usize,
    selection: PointSelection,
) -> SimPointPlan {
    assert!(max_k > 0, "max_k must be nonzero");
    let (projected, profiled_insts) = projected_bbvs(program, interval);
    let t0 = std::time::Instant::now();
    let clustering = best_clustering(&projected, max_k, KMEANS_SEEDS, KMEANS_ITERS, BIC_THRESHOLD);
    let kmeans_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    sim_obs::metrics::counter("simpoint.plans").inc();
    sim_obs::metrics::counter("simpoint.kmeans_ns").add(kmeans_ns);
    plan_from_clustering(interval, &projected, &clustering, selection, profiled_insts)
}

/// Profile `program` into intervals and return each interval's BBV,
/// normalized to frequencies and projected to [`PROJECTED_DIMS`]
/// dimensions — the points SimPoint clusters — together with the number of
/// instructions profiled.
///
/// # Panics
/// Panics if `interval == 0`.
pub fn projected_bbvs(program: &Program, interval: u64) -> (Vec<Vec<f64>>, u64) {
    let prof = {
        let mut span = obs::span(Phase::Profile);
        let prof = profile_intervals(program, interval);
        span.add_insts(prof.total_insts);
        prof
    };

    // Normalize each BBV to frequencies and project ("seedproj = 1").
    let projection = RandomProjection::new(prof.num_blocks.max(1), PROJECTED_DIMS, 1);
    let projected = prof
        .intervals
        .iter()
        .map(|iv| {
            let total: f64 = iv.iter().map(|(_, c)| c).sum();
            let normed: Vec<(usize, f64)> = iv
                .iter()
                .map(|&(b, c)| (b as usize, c / total.max(1.0)))
                .collect();
            projection.apply_sparse(&normed)
        })
        .collect();
    (projected, prof.total_insts)
}

/// Turn a clustering of [`projected_bbvs`]' points into a plan: one point
/// per cluster, chosen by `selection`, weighted by cluster population and
/// sorted by interval index.
pub fn plan_from_clustering(
    interval: u64,
    projected: &[Vec<f64>],
    clustering: &Clustering,
    selection: PointSelection,
    profiled_insts: u64,
) -> SimPointPlan {
    let reps = match selection {
        PointSelection::Centroid => clustering.representatives(projected),
        PointSelection::Early => {
            // Earliest member of each cluster.
            let mut earliest = vec![usize::MAX; clustering.k()];
            for (i, &c) in clustering.assignments.iter().enumerate() {
                if earliest[c] == usize::MAX {
                    earliest[c] = i;
                }
            }
            earliest
        }
    };
    let weights = clustering.weights();
    let mut points: Vec<SimPoint> = reps
        .iter()
        .zip(&weights)
        .filter(|&(&r, _)| r != usize::MAX)
        .map(|(&r, &w)| SimPoint {
            index: r as u64,
            weight: w,
        })
        .collect();
    points.sort_by_key(|p| p.index);

    SimPointPlan {
        interval,
        points,
        profiled_insts,
        chosen_k: clustering.k(),
    }
}

/// Cap on the functional warm-in executed before each point. The
/// "unbounded" registry variant (`Functional(u64::MAX)`) conceptually
/// warms every gap; with absolutely positioned, independent points that
/// would mean re-warming each point's whole prefix, so it is bounded to a
/// recent-history window instead — enough to rebuild cache and predictor
/// state, cheap enough that points stay independent jobs.
pub const WARM_HORIZON: u64 = 400_000;

/// One point's results, merged in plan order.
struct PointOut {
    /// Absolute position the fast-forward reached (the warm-in start for
    /// healthy streams, less when the stream ended early).
    positioned: u64,
    /// Functionally warmed instructions.
    warmed: u64,
    /// Detailed (measured) instructions.
    detailed: u64,
    /// Weighted metrics of the measured interval, if anything committed.
    part: Option<(Metrics, f64)>,
}

/// Simulate one plan point on a fresh cold machine: fast-forward to the
/// point's warm-in start through the checkpoint library, functionally warm
/// up to the point, measure the interval. A pure function of
/// (plan, program, cfg, warmup, point), so points shard freely.
fn point_pass(
    plan: &SimPointPlan,
    program: &Program,
    cfg: &SimConfig,
    warmup: SimPointWarmup,
    p: &SimPoint,
) -> PointOut {
    let start = p.index * plan.interval;
    let warm = match warmup {
        SimPointWarmup::None => 0,
        SimPointWarmup::Functional(w) => w.min(WARM_HORIZON),
    };
    let warm_from = start.saturating_sub(warm);
    let mut stream = Interp::new(program);
    let mut sim = Simulator::new(cfg.clone());
    let positioned = checkpoint::global().advance_interp(&mut stream, warm_from);
    let mut out = PointOut {
        positioned,
        warmed: 0,
        detailed: 0,
        part: None,
    };
    if positioned < warm_from {
        return out; // stream ended before this point (shouldn't happen)
    }
    if start > warm_from {
        out.warmed = sim.warm_functional(&mut stream, start - warm_from);
    }
    sim.reset_stats();
    let mut span = obs::span(Phase::Measure);
    let measured = sim.run_detailed(&mut stream, plan.interval);
    span.add_insts(measured);
    drop(span);
    out.detailed = measured;
    if measured > 0 {
        out.part = Some((Metrics::from_stats(&sim.stats()), p.weight));
    }
    out
}

/// Execute a plan on one machine configuration: fast-forward to each
/// simulation point (cold per point, with the configured warm-up), measure
/// it in detail, and combine the per-point metrics by cluster weight.
///
/// Points are positioned absolutely and independent, so they fan out over
/// [`sim_exec::shard_map`]; the merge walks them in plan order, charging
/// each fast-forward only for the stretch not already covered by earlier
/// points — the same total a serial walk down the stream would charge.
///
/// Returns the combined metrics and the cost of this run (profiling cost
/// included, as the paper's SvAT analysis does).
pub fn run_with_plan(
    plan: &SimPointPlan,
    program: &Program,
    cfg: &SimConfig,
    warmup: SimPointWarmup,
) -> (Metrics, Cost) {
    let mut cost = Cost {
        profiled: plan.profiled_insts,
        ..Cost::default()
    };

    let outs = sim_exec::shard_map(&plan.points, |p| point_pass(plan, program, cfg, warmup, p));

    let mut parts: Vec<(Metrics, f64)> = Vec::with_capacity(plan.points.len());
    let mut covered = 0u64;
    for out in &outs {
        cost.skipped += out.positioned.saturating_sub(covered);
        cost.warmed += out.warmed;
        cost.detailed += out.detailed;
        covered = covered.max(out.positioned + out.warmed + out.detailed);
        if let Some(part) = &out.part {
            parts.push(*part);
        }
    }

    let metrics = Metrics::weighted(&parts);
    (metrics, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::{benchmark, InputSet};

    fn prog() -> Program {
        benchmark("gzip").unwrap().program(InputSet::Small).unwrap()
    }

    #[test]
    fn plan_points_are_sorted_and_weighted() {
        let p = prog();
        let plan = plan(&p, 5_000, 10);
        assert!(!plan.points.is_empty());
        assert!(plan.chosen_k >= 1 && plan.chosen_k <= 10);
        assert!(plan.points.windows(2).all(|w| w[0].index < w[1].index));
        let total: f64 = plan.points.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to 1, got {total}");
        let n_intervals = plan.profiled_insts.div_ceil(5_000);
        assert!(plan.points.iter().all(|p| p.index < n_intervals));
    }

    #[test]
    fn plan_is_deterministic() {
        let p = prog();
        assert_eq!(plan(&p, 5_000, 10), plan(&p, 5_000, 10));
    }

    #[test]
    fn single_point_plan_has_one_point() {
        let p = prog();
        let plan = plan(&p, 20_000, 1);
        assert_eq!(plan.points.len(), 1);
        assert!((plan.points[0].weight - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_phase_program_gets_multiple_clusters() {
        // gzip has 4 phases with distinct code; BIC should find > 1 cluster.
        let p = prog();
        let plan = plan(&p, 5_000, 20);
        assert!(
            plan.chosen_k > 1,
            "phases should produce multiple clusters, got k={}",
            plan.chosen_k
        );
    }

    #[test]
    fn run_with_plan_estimates_cpi_reasonably() {
        // Reference-length stream: cold-start is negligible there, as in
        // the paper's setting.
        let p = workloads::benchmark("gzip").unwrap().reference();
        let cfg = SimConfig::table3(2);
        let mut sim = Simulator::new(cfg.clone());
        let mut s = Interp::new(&p);
        sim.run_detailed(&mut s, u64::MAX);
        let ref_cpi = sim.stats().cpi();

        let plan = plan(&p, 100_000, 10);
        let (m, cost) = run_with_plan(&plan, &p, &cfg, SimPointWarmup::Functional(200_000));
        let err = ((m.cpi - ref_cpi) / ref_cpi).abs();
        assert!(
            err < 0.15,
            "SimPoint CPI {} vs reference {} (err {:.1}%)",
            m.cpi,
            ref_cpi,
            err * 100.0
        );
        // And it must be far cheaper than full simulation in detailed insts.
        assert!(cost.detailed * 2 < plan.profiled_insts);
    }

    #[test]
    fn early_selection_picks_earlier_points_with_same_weights() {
        let p = prog();
        let centroid = plan_with_selection(&p, 5_000, 10, PointSelection::Centroid);
        let early = plan_with_selection(&p, 5_000, 10, PointSelection::Early);
        assert_eq!(centroid.chosen_k, early.chosen_k);
        let sum_c: u64 = centroid.points.iter().map(|x| x.index).sum();
        let sum_e: u64 = early.points.iter().map(|x| x.index).sum();
        assert!(
            sum_e <= sum_c,
            "early points should not sit later than centroids ({sum_e} vs {sum_c})"
        );
        let w: f64 = early.points.iter().map(|x| x.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn early_selection_reduces_position_of_last_point() {
        let p = prog();
        let centroid = plan_with_selection(&p, 5_000, 10, PointSelection::Centroid);
        let early = plan_with_selection(&p, 5_000, 10, PointSelection::Early);
        let last_c = centroid.points.last().unwrap().index;
        let last_e = early.points.last().unwrap().index;
        assert!(last_e <= last_c);
    }

    #[test]
    fn warmup_consumes_warmed_instructions() {
        let p = prog();
        let cfg = SimConfig::table3(1);
        let plan = plan(&p, 10_000, 5);
        let (_, cost_none) = run_with_plan(&plan, &p, &cfg, SimPointWarmup::None);
        let (_, cost_warm) = run_with_plan(&plan, &p, &cfg, SimPointWarmup::Functional(1_000));
        assert_eq!(cost_none.warmed, 0);
        assert!(cost_warm.warmed > 0);
    }
}
