//! Exactness oracle for the bound-pruned k-means on SimPoint's own data.
//!
//! `oracle::kmeans` is the plain Lloyd loop `simstats::kmeans::kmeans` ran
//! before it learned to skip provably unchanged assignments (kept verbatim
//! in `crates/simstats/tests/oracle`). The pruned loop must return the same
//! `Clustering` bit for bit — assignments, centroid bits and inertia bits —
//! on the data SimPoint actually clusters, so every SimPoint plan (and every
//! CPI built on one) stays the same.

#[path = "../crates/simstats/tests/oracle/mod.rs"]
mod oracle;

use oracle::assert_same;
use simtech_repro::simstats::kmeans::{bic, kmeans, Clustering};
use simtech_repro::techniques::registry::simpoint_permutations;
use simtech_repro::techniques::simpoint::{
    self, PointSelection, BIC_THRESHOLD, KMEANS_ITERS, KMEANS_SEEDS,
};
use simtech_repro::techniques::TechniqueSpec;
use simtech_repro::workloads::{benchmark, suite, InputSet, Program};

/// `simstats::kmeans::best_clustering`'s model selection over the oracle.
fn oracle_best_clustering(
    data: &[Vec<f64>],
    max_k: usize,
    seeds: u64,
    iters: usize,
    threshold: f64,
) -> Clustering {
    let max_k = max_k.min(data.len()).max(1);
    let mut by_k: Vec<(f64, Clustering)> = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let mut best: Option<Clustering> = None;
        for s in 0..seeds.max(1) {
            let c = oracle::kmeans(data, k, iters, s.wrapping_mul(0x9e37) ^ k as u64);
            if best.as_ref().is_none_or(|b| c.inertia < b.inertia) {
                best = Some(c);
            }
        }
        let c = best.expect("at least one seed");
        by_k.push((bic(data, &c), c));
    }
    let best_bic = by_k
        .iter()
        .map(|(b, _)| *b)
        .fold(f64::NEG_INFINITY, f64::max);
    let worst_bic = by_k.iter().map(|(b, _)| *b).fold(f64::INFINITY, f64::min);
    let cut = worst_bic + threshold * (best_bic - worst_bic);
    for (b, c) in &by_k {
        if *b >= cut {
            return c.clone();
        }
    }
    by_k.pop().expect("nonempty").1
}

const SCALE: f64 = 0.02;

fn reference(name: &str) -> Program {
    benchmark(name)
        .expect("benchmark in suite")
        .program_scaled(InputSet::Reference, SCALE)
        .expect("reference exists")
}

/// The Table 1 SimPoint `(interval, max_k)` pairs at [`SCALE`].
fn simpoint_keys() -> Vec<(u64, usize)> {
    simpoint_permutations(SCALE)
        .into_iter()
        .map(|spec| match spec {
            TechniqueSpec::SimPoint {
                interval, max_k, ..
            } => (interval, max_k),
            other => panic!("not a SimPoint spec: {other:?}"),
        })
        .collect()
}

/// Every (k, seed) run of the largest Table 1 plan — the one that
/// re-seeds empty clusters most — on the benchmarks whose high-k runs
/// re-seed most (art, mcf) and the largest program (gcc).
#[test]
fn every_kmeans_run_of_the_largest_plan_matches_the_oracle() {
    let (interval, max_k) = simpoint_keys()
        .into_iter()
        .max_by_key(|&(_, max_k)| max_k)
        .expect("Table 1 has SimPoint specs");
    for name in ["art", "mcf", "gcc"] {
        let (data, _) = simpoint::projected_bbvs(&reference(name), interval);
        for k in 1..=max_k.min(data.len()) {
            for s in 0..KMEANS_SEEDS {
                let seed = s.wrapping_mul(0x9e37) ^ k as u64;
                assert_same(
                    &kmeans(&data, k, KMEANS_ITERS, seed),
                    &oracle::kmeans(&data, k, KMEANS_ITERS, seed),
                    &format!("{name} interval {interval} k {k} seed {seed}"),
                );
            }
        }
    }
}

/// Every Table 1 SimPoint plan of every suite benchmark equals the plan
/// assembled from the oracle's clustering.
#[test]
fn every_table1_plan_matches_a_plan_built_on_the_oracle() {
    for bench in suite() {
        let program = reference(bench.name);
        for (interval, max_k) in simpoint_keys() {
            let (data, profiled) = simpoint::projected_bbvs(&program, interval);
            let clustering =
                oracle_best_clustering(&data, max_k, KMEANS_SEEDS, KMEANS_ITERS, BIC_THRESHOLD);
            let want = simpoint::plan_from_clustering(
                interval,
                &data,
                &clustering,
                PointSelection::Centroid,
                profiled,
            );
            assert_eq!(
                simpoint::plan(&program, interval, max_k),
                want,
                "{} interval {interval} max_k {max_k}",
                bench.name
            );
        }
    }
}
