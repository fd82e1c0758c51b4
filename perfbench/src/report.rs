//! What a workload run reports: the checked outcome, the end-to-end or
//! per-layer metrics, and the final JSON line.

use std::collections::BTreeMap;

use sim_obs::trace::Phase;
use techniques::TechniqueKind;

use crate::spans::{Counters, Recorder};
use crate::stats::{json_num, quantile, ratio};

/// Every per-layer metric a traced run prints, with its unit, in print
/// order. A workload that bypasses a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("workloads.interp_ns_per_inst", "ns/inst"),
    ("workloads.tcache_hit_ratio", "ratio"),
    ("sim-core.detailed_ns_per_inst", "ns/inst"),
    ("sim-core.warm_ns_per_inst", "ns/inst"),
    ("sim-core.ff_ns_per_inst", "ns/inst"),
    ("sim-core.insts_per_refill", "inst"),
    ("sim-core.idle_jumps", "count"),
    ("techniques.run_ms.reference.p50", "ms"),
    ("techniques.run_ms.reference.p95", "ms"),
    ("techniques.run_ms.reduced.p50", "ms"),
    ("techniques.run_ms.reduced.p95", "ms"),
    ("techniques.run_ms.runz.p50", "ms"),
    ("techniques.run_ms.runz.p95", "ms"),
    ("techniques.run_ms.ffrun.p50", "ms"),
    ("techniques.run_ms.ffrun.p95", "ms"),
    ("techniques.run_ms.ffwurun.p50", "ms"),
    ("techniques.run_ms.ffwurun.p95", "ms"),
    ("techniques.run_ms.smarts.p50", "ms"),
    ("techniques.run_ms.smarts.p95", "ms"),
    ("techniques.run_ms.simpoint.p50", "ms"),
    ("techniques.run_ms.simpoint.p95", "ms"),
    ("techniques.simpoint_plan_ms", "ms"),
    ("techniques.simpoint_unphased_frac", "ratio"),
    ("techniques.ckpt_hit_ratio.arch", "ratio"),
    ("techniques.ckpt_hit_ratio.warm", "ratio"),
    ("techniques.ckpt_hit_ratio.prefix", "ratio"),
    ("techniques.ckpt_bytes", "bytes"),
    ("techniques.run_cache_hit_ratio", "ratio"),
    ("simstats.kmeans_ms", "ms"),
    ("sim-exec.busy_frac", "ratio"),
    ("sim-exec.queue_wait_ms", "ms"),
    ("sim-exec.shard_merge_wait_ms", "ms"),
    ("sim-store.hit_ratio", "ratio"),
    ("sim-store.writes", "count"),
    ("sim-store.bytes", "bytes"),
    ("sim-serve.ack_ms", "ms"),
    ("sim-serve.first_record_ms.p50", "ms"),
    ("sim-serve.first_record_ms.p95", "ms"),
    ("sim-serve.queue_depth_max", "count"),
    ("sim-core.self_frac", "ratio"),
    ("techniques.self_frac", "ratio"),
    ("simstats.self_frac", "ratio"),
    ("sim-exec.self_frac", "ratio"),
    ("sim-serve.self_frac", "ratio"),
    ("bench.self_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
    ("bench.gen_late_ms.p95", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// The metric-name segment of a technique family.
pub fn family(kind: TechniqueKind) -> &'static str {
    match kind {
        TechniqueKind::Reference => "reference",
        TechniqueKind::SimPoint => "simpoint",
        TechniqueKind::Smarts => "smarts",
        TechniqueKind::Reduced => "reduced",
        TechniqueKind::RunZ => "runz",
        TechniqueKind::FfRun => "ffrun",
        TechniqueKind::FfWuRun => "ffwurun",
        TechniqueKind::RandomSample => "random",
    }
}

/// Per-layer metric values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, v: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, v);
    }

    /// `techniques.run_ms.<family>.{p50,p95}` from run spans in ms.
    pub fn set_family(&mut self, fam: &str, ms: &[f64]) {
        for (q, suffix) in [(0.5, "p50"), (0.95, "p95")] {
            let name = format!("techniques.run_ms.{fam}.{suffix}");
            let (n, _) = PER_LAYER
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
            self.0.insert(n, quantile(ms, q));
        }
    }

    /// The sim-core metrics read off phase totals and pipeline counters.
    pub fn sim_core(&mut self, d: &Counters) {
        self.set(
            "sim-core.detailed_ns_per_inst",
            d.ns_per_inst(&[Phase::Measure, Phase::WarmUp]),
        );
        self.set(
            "sim-core.warm_ns_per_inst",
            d.ns_per_inst(&[Phase::FunctionalWarm]),
        );
        self.set(
            "sim-core.ff_ns_per_inst",
            d.ns_per_inst(&[Phase::FastForward]),
        );
        self.set(
            "sim-core.insts_per_refill",
            ratio(
                d.get("pipeline.refill_insts") as f64,
                d.get("pipeline.batch_refills") as f64,
            ),
        );
        self.set("sim-core.idle_jumps", d.get("pipeline.idle_jumps") as f64);
    }

    /// Checkpoint-library and run-cache reuse.
    pub fn techniques(&mut self, d: &Counters) {
        for (name, tier) in [
            ("techniques.ckpt_hit_ratio.arch", "arch"),
            ("techniques.ckpt_hit_ratio.warm", "warm"),
            ("techniques.ckpt_hit_ratio.prefix", "prefix"),
        ] {
            self.set(
                name,
                d.hit_ratio(&format!("ckpt.{tier}.hits"), &format!("ckpt.{tier}.misses")),
            );
        }
        // A gauge: the warm tier's resident bytes when the run ended.
        self.set(
            "techniques.ckpt_bytes",
            sim_obs::metrics::gauge("ckpt.warm.bytes").get() as f64,
        );
        self.set(
            "techniques.run_cache_hit_ratio",
            d.hit_ratio("run_cache.hits", "run_cache.misses"),
        );
    }
}

/// A checked workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: u64,
    e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: Layers,
    /// Human-readable report lines printed before the JSON line.
    pub lines: Vec<String>,
    failures: Vec<String>,
    /// The traced run's spans, written out at exit.
    pub trace: Option<Recorder>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    pub fn e2e(&mut self, name: &'static str, v: f64, unit: &'static str) {
        self.e2e.push((name, v, unit));
    }

    /// The report lines, failures (first 20), and the final JSON line. A
    /// metric that is not a finite number fails the run. Returns the failed
    /// count.
    pub fn print(mut self, traced: bool) -> u64 {
        let mut metrics = Vec::new();
        if traced {
            for (name, unit) in PER_LAYER {
                let v = self.layers.0.get(name).copied().unwrap_or(0.0);
                metrics.push((*name, v, *unit));
            }
        } else {
            metrics.extend(self.e2e.iter().copied());
        }
        for (name, v, _) in &metrics {
            if !v.is_finite() {
                self.fail(format!("metric {name} is {v}"));
            }
        }
        for l in &self.lines {
            println!("{l}");
        }
        for f in self.failures.iter().take(20) {
            println!("FAILED: {f}");
        }
        println!(
            "digest: {:016x} ({} ops, {} failed)",
            self.digest, self.attempted, self.failed
        );
        for (name, v, unit) in &metrics {
            println!("metric {name} = {} {unit}", json_num(*v));
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(*v)))
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        );
        self.failed
    }
}
