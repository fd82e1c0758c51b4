//! Wall-clock probe of the statistics kernels (the simstats counterpart of
//! `workloads/examples/pipeline_hotloop`): a dependency-free way to compare
//! the scalar loops against the lane-parallel kernels — the k-means numbers
//! recorded in `BENCH_pipeline.json` come from:
//!
//! ```text
//! cargo run --release -p simstats --example stats_hotloop
//! ```
//!
//! The scalar baseline is the loop shape the code used before the `kernel`
//! module: one squared distance per centroid, each a serial f64 reduction
//! the compiler cannot vectorize. The kernel computes the same sums in
//! parallel lanes across centroids/factors (bit-identical per lane — the
//! example asserts it).

use simstats::kernel::{argmin, padded_lanes, sq_dist, sq_dists_dim_major, transpose_centroids};
use simstats::pb::PbDesign;
use simstats::rng::SplitMix64;
use std::time::Instant;

const REPS: usize = 7;

fn measure<F: FnMut() -> u64>(label: &str, work: u64, mut f: F) -> f64 {
    f(); // warm-up
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..REPS {
        let t0 = Instant::now();
        sink ^= f();
        let dt = t0.elapsed().as_secs_f64();
        if dt < best {
            best = dt;
        }
    }
    let ns = best * 1e9 / work as f64;
    println!("{label:<34} {ns:>9.3} ns/unit   (sink {sink:x})");
    ns
}

fn main() {
    // SimPoint-shaped data: projected BBVs (15 dims) and raw-ish BBVs
    // (64 dims), k in the range BIC model selection actually explores.
    for &(n, dim, k) in &[(2000usize, 15usize, 30usize), (1000, 64, 16)] {
        let mut rng = SplitMix64::new(0xbeef ^ (n as u64) << 8 ^ dim as u64);
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.unit_f64() * 100.0).collect())
            .collect();
        let centroids: Vec<Vec<f64>> = (0..k)
            .map(|_| (0..dim).map(|_| rng.unit_f64() * 100.0).collect())
            .collect();
        let lanes = padded_lanes(k);
        let cent_t = transpose_centroids(&centroids);
        println!("kmeans assign: n={n} dim={dim} k={k}, best of {REPS} reps, ns/point");

        let d_scalar = measure("  distances scalar (pre-kernel)", n as u64, || {
            let mut acc = 0u64;
            for p in &data {
                for cent in &centroids {
                    acc = acc.wrapping_add(sq_dist(p, cent).to_bits());
                }
            }
            acc
        });
        let mut dists = vec![0.0; lanes];
        let d_kern = measure("  distances dim-major kernel", n as u64, || {
            let mut acc = 0u64;
            for p in &data {
                sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
                for d in &dists[..k] {
                    acc = acc.wrapping_add(d.to_bits());
                }
            }
            acc
        });
        println!("  distance-kernel speedup: {:.2}x", d_scalar / d_kern);

        let scalar = measure("  assign scalar (pre-kernel)", n as u64, || {
            let mut acc = 0u64;
            for p in &data {
                let mut best = (f64::INFINITY, 0usize);
                for (c, cent) in centroids.iter().enumerate() {
                    let d = sq_dist(p, cent);
                    if d < best.0 {
                        best = (d, c);
                    }
                }
                acc = acc.wrapping_add(best.1 as u64);
            }
            acc
        });
        let kern = measure("  assign dim-major kernel", n as u64, || {
            let mut acc = 0u64;
            for p in &data {
                sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
                acc = acc.wrapping_add(argmin(&dists[..k]) as u64);
            }
            acc
        });
        println!("  speedup: {:.2}x", scalar / kern);

        // Bit-identity spot check on this data.
        let p = &data[n / 2];
        sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
        for (c, cent) in centroids.iter().enumerate() {
            assert_eq!(
                dists[c].to_bits(),
                sq_dist(p, cent).to_bits(),
                "lane {c} diverged from scalar bits"
            );
        }
    }

    // PB effects over the paper's 43-factor folded design.
    let design = PbDesign::new(43).with_foldover();
    let mut rng = SplitMix64::new(7);
    let responses: Vec<f64> = (0..design.num_runs())
        .map(|_| rng.unit_f64() * 3.0)
        .collect();
    let iters = 20_000u64;
    println!(
        "pb effects: {} runs x {} factors, ns/effects() call",
        design.num_runs(),
        design.num_factors()
    );
    measure("  effects run-major kernel", iters, || {
        let mut acc = 0u64;
        for _ in 0..iters {
            let eff = design.effects(&responses);
            acc = acc.wrapping_add(eff[0].to_bits());
        }
        acc
    });
}
