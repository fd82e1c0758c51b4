//! The two closed-loop batch workloads, `pb-truncated` and `sampled-warm`:
//! a seeded list of technique runs fanned out over `sim_exec::par_map`.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sim_core::config::pb as pbcfg;
use sim_core::SimConfig;
use sim_obs::trace::{Phase, RunTrace};
use simstats::pb::PbDesign;
use techniques::{registry, run_technique, PreparedBench, RunResult, TechniqueKind, TechniqueSpec};
use workloads::{InputSet, Interp};

use crate::report::{family, Layers, Outcome};
use crate::spans::{Counters, Recorder};
use crate::stats::{self, median, quantile, ratio, Digest, Rng};
use crate::Args;

/// Benchmark pairs of like behaviour: memory-bound, branchy, large-code.
/// Every run takes both members of each pair, so the seed changes which
/// machines and runs are drawn but never the mix of program kinds (a free
/// draw of one member per pair moves a run's cost by about ±15%).
const GROUPS: [[&str; 2]; 3] = [["mcf", "art"], ["gzip", "bzip2"], ["gcc", "vortex"]];

/// Stream scale of both batch workloads (programs and technique
/// parameters scale together, as in the harnesses' quick modes).
const SCALE: f64 = 0.02;

/// Setup repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 15;

/// How the configurations of a workload are built from their inputs.
enum Configs {
    /// PB design rows (levels per factor, already permuted by the seed).
    Pb(Vec<Vec<bool>>),
    /// Table 3 configuration numbers.
    Table3(Vec<usize>),
}

struct Op {
    bench: usize,
    cfg: usize,
    spec: TechniqueSpec,
}

/// A workload's generated inputs.
pub struct Plan {
    benches: Vec<&'static str>,
    /// Reduced inputs each benchmark's runs need, built during setup.
    inputs: Vec<Vec<InputSet>>,
    configs: Configs,
    ops: Vec<Op>,
    seed: u64,
    /// `--seconds` per repetition (rounded, at least one repetition).
    rep_seconds: f64,
}

impl Plan {
    /// The order repetition `k` issues the ops in: op order first, then a
    /// fresh seeded shuffle per repetition. Which runs end up waiting
    /// behind a SimPoint plan (the plan cache holds its lock while k-means
    /// runs) depends on the order and moved `sampled-warm` wall time by 30%
    /// between orders; medians over several orders average that out.
    fn order(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.ops.len()).collect();
        if k > 0 {
            Rng::new(self.seed, 100 + k as u64).shuffle(&mut idx);
        }
        idx
    }
}

fn all_benches() -> Vec<&'static str> {
    GROUPS.iter().flatten().copied().collect()
}

/// Table 1's first permutation of `kind` among the quick-mode
/// representatives (the one-per-family choice of Figure 1's quick mode).
fn representative(kind: TechniqueKind) -> TechniqueSpec {
    registry::quick_permutations(SCALE)
        .into_iter()
        .find(|s| s.kind() == kind)
        .expect("every detailed-only family has a quick representative")
}

/// `pb-truncated`: reference, one reduced input, Run Z, FF+Run and
/// FF+WU+Run under every row of the 43-factor foldover PB design. The seed
/// assigns the 43 parameters to the design's columns (so each row is a
/// different machine) and orders the runs.
pub fn plan_pb(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 1);
    let benches = all_benches();
    let design = PbDesign::new(pbcfg::NUM_PARAMETERS).with_foldover();
    let mut columns: Vec<usize> = (0..pbcfg::NUM_PARAMETERS).collect();
    rng.shuffle(&mut columns);
    let rows: Vec<Vec<bool>> = (0..design.num_runs())
        .map(|r| {
            let levels = design.run_levels(r);
            columns.iter().map(|&c| levels[c]).collect()
        })
        .collect();
    let mut ops = Vec::new();
    let mut inputs = Vec::new();
    for (b, name) in benches.iter().enumerate() {
        let bench = workloads::benchmark(name).expect("suite benchmark");
        let reduced = registry::reduced_permutations()
            .into_iter()
            .find(|s| matches!(s, TechniqueSpec::Reduced(i) if bench.has_input(*i)))
            .expect("every benchmark has a reduced input");
        if let TechniqueSpec::Reduced(i) = reduced {
            inputs.push(vec![i]);
        }
        let specs = [
            TechniqueSpec::Reference,
            reduced,
            representative(TechniqueKind::RunZ),
            representative(TechniqueKind::FfRun),
            representative(TechniqueKind::FfWuRun),
        ];
        for cfg in 0..rows.len() {
            for spec in &specs {
                ops.push(Op {
                    bench: b,
                    cfg,
                    spec: spec.clone(),
                });
            }
        }
    }
    rng.shuffle(&mut ops);
    Plan {
        benches,
        inputs,
        configs: Configs::Pb(rows),
        ops,
        seed,
        rep_seconds: 19.0,
    }
}

/// `sampled-warm`: every SMARTS and SimPoint permutation of Table 1 plus
/// the reference, for the suite's benchmarks under all four Table 3
/// configurations. The seed orders the runs (drawing a subset of
/// benchmarks or configurations instead moved a run's wall time by ±15%
/// across seeds).
pub fn plan_sampled(seed: u64) -> Plan {
    let mut rng = Rng::new(seed, 2);
    // vpr-route is left out: SMARTS U:100 W:20000 measures no instruction
    // on it at this scale and reports CPI = inf (see README.md).
    let benches: Vec<&'static str> = workloads::suite()
        .iter()
        .map(|b| b.name)
        .filter(|&n| n != "vpr-route")
        .collect();
    let mut specs = vec![TechniqueSpec::Reference];
    specs.extend(registry::smarts_permutations());
    specs.extend(registry::simpoint_permutations(SCALE));
    let table3 = vec![1, 2, 3, 4];
    let mut ops = Vec::new();
    for b in 0..benches.len() {
        for cfg in 0..table3.len() {
            for spec in &specs {
                ops.push(Op {
                    bench: b,
                    cfg,
                    spec: spec.clone(),
                });
            }
        }
    }
    rng.shuffle(&mut ops);
    Plan {
        inputs: vec![Vec::new(); benches.len()],
        benches,
        configs: Configs::Table3(table3),
        ops,
        seed,
        rep_seconds: 16.0,
    }
}

/// What one setup produced: the prepared benchmarks and machines.
struct Setup {
    preps: Vec<PreparedBench>,
    cfgs: Vec<SimConfig>,
    build_ns: u64,
}

/// Program builds and machine configurations: everything between process
/// start and the first run.
fn setup(plan: &Plan) -> Setup {
    let mut build_ns = 0;
    let preps = plan
        .benches
        .iter()
        .zip(&plan.inputs)
        .map(|(name, inputs)| {
            let t = Instant::now();
            let prep = PreparedBench::by_name_scaled(name, SCALE).expect("suite benchmark");
            build_ns += t.elapsed().as_nanos() as u64;
            for &i in inputs {
                prep.program(i).expect("input exists per Table 2");
            }
            prep
        })
        .collect();
    let cfgs = match &plan.configs {
        Configs::Pb(rows) => rows
            .iter()
            .map(|levels| pbcfg::config_for_row(&SimConfig::default(), levels))
            .collect(),
        Configs::Table3(ns) => ns.iter().map(|&n| SimConfig::table3(n)).collect(),
    };
    Setup {
        preps,
        cfgs,
        build_ns,
    }
}

/// One run's outcome as seen from outside the runner.
struct OpOut {
    /// Span around the run call (plus the explicit SimPoint plan call in
    /// a traced repetition), ns since the recorder epoch.
    start: u64,
    end: u64,
    thread: u64,
    plan_ns: u64,
    res: Result<Option<RunResult>, String>,
    /// Phases the run spent, from an enclosing run scope (traced only).
    phases: RunTrace,
}

struct Rep {
    start: u64,
    end: u64,
    outs: Vec<OpOut>,
}

/// One repetition: every op through `par_map`, closed loop.
fn rep(plan: &Plan, order: &[usize], s: &Setup, rec: &Recorder) -> Rep {
    // The first SimPoint op of each (bench, plan key) builds that plan
    // explicitly in a traced repetition, so its time is its own span.
    let mut plan_keys: HashMap<(usize, u64, usize), usize> = HashMap::new();
    let plan_of: Vec<Option<usize>> = plan
        .ops
        .iter()
        .map(|op| match op.spec {
            TechniqueSpec::SimPoint {
                interval, max_k, ..
            } => {
                let n = plan_keys.len();
                Some(*plan_keys.entry((op.bench, interval, max_k)).or_insert(n))
            }
            _ => None,
        })
        .collect();
    let claimed: Vec<AtomicBool> = (0..plan_keys.len())
        .map(|_| AtomicBool::new(false))
        .collect();
    let traced = rec.on();

    let start = rec.now();
    let issued = sim_exec::par_map(order, |&i| {
        let op = &plan.ops[i];
        let prep = &s.preps[op.bench];
        let cfg = &s.cfgs[op.cfg];
        let op_id = rec.open();
        if traced {
            sim_obs::trace::run_begin();
        }
        let t0 = rec.now();
        let mut plan_ns = 0;
        let res = catch_unwind(AssertUnwindSafe(|| {
            if let (
                true,
                Some(k),
                TechniqueSpec::SimPoint {
                    interval, max_k, ..
                },
            ) = (traced, plan_of[i], &op.spec)
            {
                if !claimed[k].swap(true, Ordering::Relaxed) {
                    let p0 = rec.now();
                    prep.simpoint_plan(*interval, *max_k);
                    let p1 = rec.now();
                    rec.record(0, "techniques.simpoint_plan", op_id, op_id, p0, p1);
                    plan_ns = p1 - p0;
                }
            }
            run_technique(&op.spec, prep, cfg)
        }))
        .map_err(|e| panic_message(&*e));
        let t1 = rec.now();
        let phases = if traced {
            sim_obs::trace::run_end()
        } else {
            RunTrace::default()
        };
        rec.record(
            0,
            "techniques.run_technique",
            op_id,
            op_id,
            t0 + plan_ns,
            t1,
        );
        rec.record(op_id, "op", 0, op_id, t0, t1);
        OpOut {
            start: t0,
            end: t1,
            thread: crate::spans::thread_index(),
            plan_ns,
            res,
            phases,
        }
    });
    let end = rec.now();
    rec.record(0, "sim-exec.par_map", 0, 0, start, end);
    // Back to op order, so repetitions compare op by op.
    let mut outs: Vec<Option<OpOut>> = (0..plan.ops.len()).map(|_| None).collect();
    for (&i, o) in order.iter().zip(issued) {
        outs[i] = Some(o);
    }
    let outs = outs
        .into_iter()
        .map(|o| o.expect("every op issued once"))
        .collect();
    Rep { start, end, outs }
}

pub fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// The output checks every run of `spec` must pass. `Err` names the
/// violation.
pub fn check(
    spec: &TechniqueSpec,
    res: &Result<Option<RunResult>, String>,
) -> Result<RunResult, String> {
    let r = match res {
        Err(p) => return Err(format!("panicked: {p}")),
        Ok(None) => return Err("no result for an applicable Table 2 cell".to_string()),
        Ok(Some(r)) => r,
    };
    let (m, c) = (&r.metrics, &r.cost);
    if !(m.cpi.is_finite() && m.cpi > 0.0) {
        return Err(format!("non-finite or non-positive CPI {}", m.cpi));
    }
    if m.measured_insts == 0 || c.detailed < m.measured_insts {
        return Err(format!(
            "measured {} insts with detailed cost {}",
            m.measured_insts, c.detailed
        ));
    }
    let ok = match *spec {
        TechniqueSpec::Reference | TechniqueSpec::Reduced(_) | TechniqueSpec::RunZ { .. } => {
            c.detailed == m.measured_insts && c.skipped == 0 && c.warmed == 0
        }
        TechniqueSpec::FfRun { x, .. } => c.skipped <= x && c.warmed == 0,
        TechniqueSpec::FfWuRun { x, .. } => c.skipped <= x && c.warmed == 0,
        TechniqueSpec::Smarts { .. } => c.warmed > 0,
        TechniqueSpec::SimPoint { .. } => c.profiled > 0,
        TechniqueSpec::RandomSample { .. } => true,
    };
    if !ok {
        return Err(format!("cost {c:?} breaks the {} cost model", spec.label()));
    }
    Ok(r.clone())
}

/// The canonical per-op result words: CPI bits, then every `Cost` field.
fn result_words(r: &RunResult) -> [u64; 7] {
    let c = &r.cost;
    [
        r.metrics.cpi.to_bits(),
        r.metrics.measured_insts,
        c.detailed,
        c.warmed,
        c.skipped,
        c.profiled,
        u64::from(c.extra_runs),
    ]
}

pub fn run(args: &Args, plan: Plan) -> Result<Outcome, String> {
    let reps = ((args.seconds as f64 / plan.rep_seconds).round() as usize).max(1);
    let jobs = sim_exec::jobs();
    let mut out = Outcome::default();

    let n_reps = if args.trace { 2 } else { reps };
    // Each repetition starts from its own setup, so none inherits another's
    // SimPoint plans; extra setups only add samples to `setup_s`.
    let mut setup_ns = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS.max(n_reps) {
        let t = Instant::now();
        let s = setup(&plan);
        setup_ns.push(t.elapsed().as_nanos() as f64);
        setups.push(s);
    }

    // Untraced repetitions give the end-to-end metrics. A traced run makes
    // one untraced repetition (the overhead baseline) and one traced one.
    let untraced = Recorder::new(false);
    let traced = Recorder::new(true);
    let mut walls = Vec::new();
    let mut lat_ms = Vec::new();
    let mut first: Option<Vec<Result<RunResult, String>>> = None;
    let mut traced_rep = None;
    for (k, s) in setups.iter().enumerate().take(n_reps) {
        techniques::cache::clear_all();
        let tracing = args.trace && k == 1;
        sim_obs::trace::set_enabled(tracing);
        let rec = if tracing { &traced } else { &untraced };
        let before = Counters::now();
        // The traced repetition keeps the untraced one's order, so their
        // walls differ by the tracing alone.
        let order = plan.order(if args.trace { 0 } else { k });
        let r = rep(&plan, &order, s, rec);
        let delta = Counters::now().since(&before);
        sim_obs::trace::set_enabled(false);
        let checked: Vec<Result<RunResult, String>> = plan
            .ops
            .iter()
            .zip(&r.outs)
            .map(|(op, o)| check(&op.spec, &o.res))
            .collect();
        match &first {
            None => first = Some(checked),
            Some(f) => {
                // Every repetition must reproduce the first bit for bit.
                for (i, (a, b)) in f.iter().zip(&checked).enumerate() {
                    let same = match (a, b) {
                        (Ok(a), Ok(b)) => result_words(a) == result_words(b),
                        // Already counted when the first repetition failed.
                        (Err(_), Err(_)) => true,
                        _ => false,
                    };
                    if !same {
                        out.fail(format!("op {i}: repetition {k} differs from the first"));
                    }
                }
            }
        }
        if tracing {
            traced_rep = Some((r, delta, k));
        } else {
            walls.push((r.end - r.start) as f64);
            lat_ms.extend(r.outs.iter().map(|o| (o.end - o.start) as f64 / 1e6));
        }
    }
    let results = first.expect("at least one repetition");

    // Correctness and the digest, in op order.
    let mut digest = Digest::default();
    let mut refs: HashMap<(usize, usize), f64> = HashMap::new();
    for (op, r) in plan.ops.iter().zip(&results) {
        if let (TechniqueSpec::Reference, Ok(r)) = (&op.spec, r) {
            refs.insert((op.bench, op.cfg), r.metrics.cpi);
        }
    }
    let mut errs = Vec::new();
    let mut work = 0u64;
    for (i, (op, r)) in plan.ops.iter().zip(&results).enumerate() {
        match r {
            Ok(r) => {
                for w in result_words(r) {
                    digest.word(w);
                }
                work += r.cost.detailed + r.cost.warmed;
                if op.spec != TechniqueSpec::Reference {
                    match refs.get(&(op.bench, op.cfg)) {
                        Some(&cref) => errs.push((r.metrics.cpi - cref).abs() / cref),
                        None => out.fail(format!("op {i}: no reference CPI")),
                    }
                }
            }
            Err(e) => {
                digest.word(u64::MAX);
                out.fail(format!(
                    "op {i} ({} {} cfg {}): {e}",
                    plan.benches[op.bench],
                    op.spec.label(),
                    op.cfg
                ));
            }
        }
    }
    out.attempted = plan.ops.len() as u64;
    out.digest = digest.value();
    out.line(format!(
        "ops: {} per repetition, {} benchmarks, {} configs, scale {SCALE}",
        plan.ops.len(),
        plan.benches.len(),
        setups[0].cfgs.len()
    ));

    if let Some((r, delta, k)) = traced_rep {
        let untraced_wall = walls.first().copied().unwrap_or(0.0);
        out.layers = layers(
            &plan,
            &setups[k],
            &r,
            &delta,
            traced.cost_ns() as f64,
            untraced_wall,
            jobs,
            &mut out.lines,
        );
        out.trace = Some(traced);
        return Ok(out);
    }

    let wall_ns = median(&walls);
    out.line(format!(
        "repetitions: {reps}; op latency samples: {} ({} beyond p95)",
        lat_ms.len(),
        stats::beyond(&lat_ms, 0.95)
    ));
    out.e2e("setup_s", median(&setup_ns) / 1e9, "s");
    out.e2e("wall_s", wall_ns / 1e9, "s");
    out.e2e("op_p50_ms", median(&lat_ms), "ms");
    out.e2e("op_p95_ms", quantile(&lat_ms, 0.95), "ms");
    out.e2e(
        "sim_mips",
        ratio(work as f64, wall_ns / 1e9) / 1e6,
        "Minst/s",
    );
    out.e2e(
        "max_rate_ops_per_s",
        ratio(plan.ops.len() as f64, wall_ns / 1e9),
        "ops/s",
    );
    out.e2e("peak_rss_mb", stats::peak_rss_mb(), "MB");
    // Summed in sorted order, so the seed's run order cannot move the last
    // digits.
    errs.sort_by(f64::total_cmp);
    out.e2e(
        "cpi_err_pct",
        100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        "%",
    );
    Ok(out)
}

/// Per-layer metrics of the traced repetition, and the reconciliation of
/// layer self times against `wall × workers`.
#[allow(clippy::too_many_arguments)]
fn layers(
    plan: &Plan,
    s: &Setup,
    r: &Rep,
    delta: &Counters,
    record_ns: f64,
    untraced_wall_ns: f64,
    jobs: usize,
    lines: &mut Vec<String>,
) -> Layers {
    let mut l = Layers::default();
    let wall = (r.end - r.start) as f64;
    let workers = jobs.min(plan.ops.len()).max(1);
    let budget = wall * workers as f64;

    // Per-op phase sums, overall and for SimPoint ops.
    let sim_core_phases = [
        Phase::FastForward,
        Phase::WarmUp,
        Phase::Measure,
        Phase::FunctionalWarm,
    ];
    let mut phase_ns = [0u64; sim_obs::trace::PHASE_COUNT];
    let (mut op_ns, mut plan_ns) = (0.0, 0.0);
    let (mut sp_ns, mut sp_phase_ns) = (0.0, 0.0);
    let mut by_family: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (op, o) in plan.ops.iter().zip(&r.outs) {
        let span = (o.end - o.start) as f64;
        op_ns += span;
        plan_ns += o.plan_ns as f64;
        let phases: u64 = o.phases.phases.iter().map(|p| p.ns).sum();
        for (acc, p) in phase_ns.iter_mut().zip(&o.phases.phases) {
            *acc += p.ns;
        }
        if op.spec.kind() == TechniqueKind::SimPoint {
            sp_ns += span;
            sp_phase_ns += phases as f64;
        }
        by_family
            .entry(family(op.spec.kind()))
            .or_default()
            .push(span / 1e6);
    }
    let core_ns: f64 = sim_core_phases
        .iter()
        .map(|&p| phase_ns[p as usize] as f64)
        .sum();
    let profile_ns = phase_ns[Phase::Profile as usize] as f64;
    let kmeans_ns = (plan_ns - profile_ns).max(0.0);
    let techniques_ns = op_ns - core_ns - kmeans_ns;

    // Pool time outside ops: the wait before each worker's first claim
    // (sim-exec's own counter) and each worker's idle tail after its last
    // op while a straggler finishes.
    let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
    for o in &r.outs {
        let e = last_end.entry(o.thread).or_insert(0);
        *e = (*e).max(o.end);
    }
    let tail_ns: f64 = last_end.values().map(|&e| (r.end - e) as f64).sum();
    let queue_wait_ns = delta.get("par_map.queue_wait_ns") as f64;
    let exec_ns = queue_wait_ns + tail_ns;
    let attributed = core_ns + techniques_ns + kmeans_ns + exec_ns + record_ns;
    let unattributed = budget - attributed;

    lines.push(format!(
        "reconcile: wall {:.3} s x {workers} workers = {:.3} s",
        wall / 1e9,
        budget / 1e9
    ));
    for (name, ns, what) in [
        (
            "sim-core",
            core_ns,
            "fast_forward+warm_up+measure+functional_warm phases",
        ),
        (
            "techniques",
            techniques_ns,
            "run spans minus sim-core phases and k-means (incl. plan-lock waits)",
        ),
        (
            "simstats",
            kmeans_ns,
            "SimPoint plan spans minus the profile phase",
        ),
        (
            "sim-exec",
            exec_ns,
            "first-claim wait + idle tails behind stragglers",
        ),
        ("bench", record_ns, "span recording"),
        ("unattributed", unattributed, "remainder"),
    ] {
        lines.push(format!(
            "  {name:<13} {:>9.3} s {:>6.2}%  {what}",
            ns / 1e9,
            100.0 * ratio(ns, budget)
        ));
    }
    lines.push(format!(
        "simpoint share: {:.2}% of op time; of it {:.2}% outside every ledger phase \
         (k-means {:.3} s of plan {:.3} s)",
        100.0 * ratio(sp_ns, op_ns),
        100.0 * ratio(sp_ns - sp_phase_ns, sp_ns),
        kmeans_ns / 1e9,
        plan_ns / 1e9
    ));

    l.set("sim-core.self_frac", ratio(core_ns, budget));
    l.set("techniques.self_frac", ratio(techniques_ns, budget));
    l.set("simstats.self_frac", ratio(kmeans_ns, budget));
    l.set("sim-exec.self_frac", ratio(exec_ns, budget));
    l.set("bench.self_frac", ratio(record_ns, budget));
    l.set("bench.unattributed_frac", ratio(unattributed, budget));
    l.set(
        "techniques.simpoint_unphased_frac",
        ratio(sp_ns - sp_phase_ns, sp_ns),
    );
    l.set(
        "bench.trace_overhead_pct",
        100.0 * (ratio(wall, untraced_wall_ns) - 1.0),
    );

    l.set("workloads.build_ms", s.build_ns as f64 / 1e6);
    l.set("workloads.interp_ns_per_inst", interp_ns_per_inst(&s.preps));
    l.set(
        "workloads.tcache_hit_ratio",
        delta.hit_ratio("pipeline.trace_cache.hit", "pipeline.trace_cache.miss"),
    );
    l.sim_core(delta);
    for (fam, v) in &by_family {
        l.set_family(fam, v);
    }
    l.set("techniques.simpoint_plan_ms", plan_ns / 1e6);
    l.techniques(delta);
    l.set("simstats.kmeans_ms", kmeans_ns / 1e6);
    l.set(
        "sim-exec.busy_frac",
        ratio(delta.get("par_map.busy_ns") as f64, budget),
    );
    l.set("sim-exec.queue_wait_ms", queue_wait_ns / 1e6);
    l.set(
        "sim-exec.shard_merge_wait_ms",
        delta.get("shard.merge_wait_ns") as f64 / 1e6,
    );
    l
}

/// A bare interpreter pass over every reference program: the stream cost
/// every simulator layer pays per instruction.
pub fn interp_ns_per_inst(preps: &[PreparedBench]) -> f64 {
    use sim_core::isa::InstStream;
    let t = Instant::now();
    let mut insts = 0u64;
    for p in preps {
        let mut it = Interp::new(p.reference());
        while let Some(i) = it.next_inst() {
            std::hint::black_box(&i);
            insts += 1;
        }
    }
    ratio(t.elapsed().as_nanos() as f64, insts as f64)
}
