//! Adversarial inputs for the bound-pruned k-means: each case must give
//! the reference Lloyd loop's `Clustering` bit for bit. The cases target
//! what the pruning margin exists for — exact ties (first-wins `argmin`),
//! duplicate points and centroids, zero distances, and magnitudes far from
//! 1 — plus the k extremes.

mod oracle;

use oracle::assert_same;
use simstats::kmeans::kmeans;
use simstats::rng::SplitMix64;

/// Compare [`kmeans`] with the oracle for every `k` in `ks`, eight seeds
/// and a short, a medium and the SimPoint iteration budget.
fn check(name: &str, data: &[Vec<f64>], ks: impl IntoIterator<Item = usize>) {
    for k in ks {
        for seed in 0..8u64 {
            for iters in [1, 3, 100] {
                assert_same(
                    &kmeans(data, k, iters, seed),
                    &oracle::kmeans(data, k, iters, seed),
                    &format!("{name}: k {k} seed {seed} iters {iters}"),
                );
            }
        }
    }
}

/// Three 3-D blobs of 40 uniformly spread points, coordinates `offset + scale·x`.
fn blobs(scale: f64, offset: f64) -> Vec<Vec<f64>> {
    let mut rng = SplitMix64::new(17);
    let centers = [[0.0, 0.0, 0.0], [8.0, 8.0, 1.0], [-8.0, 7.0, -3.0]];
    let mut data = Vec::new();
    for c in centers {
        for _ in 0..40 {
            data.push(
                c.iter()
                    .map(|&x| offset + scale * (x + rng.unit_f64() - 0.5))
                    .collect(),
            );
        }
    }
    data
}

#[test]
fn all_identical_points() {
    let data = vec![vec![3.0, -1.5, 0.25]; 50];
    check("identical", &data, 1..=8);
}

#[test]
fn many_duplicates_with_more_clusters_than_distinct_points() {
    let distinct = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]];
    let mut rng = SplitMix64::new(5);
    let data: Vec<Vec<f64>> = (0..60)
        .map(|_| distinct[rng.below(4) as usize].to_vec())
        .collect();
    check("duplicates", &data, [1, 2, 3, 4, 5, 6, 9, 12, 30]);
}

#[test]
fn few_inexact_values_repeated() {
    // Duplicates of two to four values that are not binary fractions:
    // means and distances round, so near-ties are decided by rounding
    // error — the error the pruning margin must cover.
    for case in 0..12u64 {
        let mut rng = SplitMix64::new(case);
        let n = 16 + rng.below(40) as usize;
        let values = 2 + case % 3;
        let data: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![0.1 + 0.3 * rng.below(values) as f64])
            .collect();
        check(&format!("inexact case {case}"), &data, 2..=8);
    }
}

#[test]
fn exact_equidistant_ties() {
    // Integer lattice points: centroids become means with short binary
    // expansions, so many points sit exactly halfway between two of them.
    let grid: Vec<Vec<f64>> = (0..7)
        .flat_map(|x| (0..7).map(move |y| vec![f64::from(x), f64::from(y)]))
        .collect();
    check("grid", &grid, 2..=12);
    // A line of evenly spaced points: every odd k splits pairs evenly.
    let line: Vec<Vec<f64>> = (0..33).map(|i| vec![f64::from(i)]).collect();
    check("line", &line, 2..=12);
    // Symmetric pairs around the origin, repeated.
    let pairs: Vec<Vec<f64>> = (0..24)
        .map(|i| {
            let x = f64::from(i % 4 + 1);
            vec![if i % 2 == 0 { x } else { -x }, 0.0]
        })
        .collect();
    check("pairs", &pairs, 2..=6);
}

#[test]
fn blobs_at_extreme_magnitudes() {
    check("blobs 1e-6", &blobs(1e-6, 0.0), [1, 2, 3, 4, 7, 15]);
    check("blobs 1e6", &blobs(1e6, 0.0), [1, 2, 3, 4, 7, 15]);
    // Small spread on a large offset: distances are tiny against the
    // coordinates, so the margin must scale with the coordinates.
    check("blobs 1 at 1e6", &blobs(1.0, 1e6), [1, 2, 3, 4, 7, 15]);
}

#[test]
fn one_cluster_and_one_cluster_per_point() {
    let data = blobs(1.0, 0.0);
    let n = data.len();
    check("k = 1 and k = n", &data, [1, n, n + 3]);
}

#[test]
fn non_finite_coordinates_take_the_unpruned_path() {
    let mut data = blobs(1.0, 0.0);
    data[7][1] = f64::NAN;
    data[50][0] = f64::INFINITY;
    check("non-finite", &data, [1, 3, 8]);
}
