//! k-means clustering with BIC model selection — the analysis core of
//! SimPoint [Sherwood02]: cluster per-interval basic-block vectors, pick the
//! clustering whose Bayesian Information Criterion score is close to the
//! best, and use the interval nearest each centroid as a simulation point.

use crate::kernel::{
    argmin_and_runner_up, padded_lanes, sq_dist, sq_dists_dim_major, transpose_centroids_into,
};
use crate::rng::SplitMix64;

/// The result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
    /// Cluster centroids.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Points per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.k()];
        for &a in &self.assignments {
            s[a] += 1;
        }
        s
    }

    /// Index of the point nearest each centroid (the simulation points).
    pub fn representatives(&self, data: &[Vec<f64>]) -> Vec<usize> {
        let mut best = vec![(f64::INFINITY, usize::MAX); self.k()];
        for (i, p) in data.iter().enumerate() {
            let c = self.assignments[i];
            let d = sq_dist(p, &self.centroids[c]);
            if d < best[c].0 {
                best[c] = (d, i);
            }
        }
        best.into_iter().map(|(_, i)| i).collect()
    }

    /// Cluster weights: fraction of points in each cluster.
    pub fn weights(&self) -> Vec<f64> {
        let n = self.assignments.len() as f64;
        self.sizes().iter().map(|&s| s as f64 / n).collect()
    }
}

/// Lloyd's algorithm with random initialization.
///
/// Runs at most `iters` iterations or until assignments stabilize. Each
/// iteration assigns every point to its nearest centroid (squared distance,
/// first index winning ties), then moves every centroid to the mean of its
/// points. A cluster left empty is re-seeded, in increasing cluster order,
/// with the point of worst fit, where fit is the squared distance to the
/// point's own centroid *as the update has left it so far*: clusters below
/// the empty one already hold their new means, the rest their old
/// positions. The last index wins ties, and no point is taken out of its
/// cluster, so one point can seed several empty clusters in the same
/// iteration and leave duplicate centroids.
///
/// The assignment step skips points whose nearest centroid is provably
/// unchanged (Hamerly's bounds with the exactness margin of
/// `prune_margin`); every other point takes the full distance scan. The
/// result is bit-identical to scanning every point every iteration.
///
/// # Panics
/// Panics if `data` is empty or `k == 0`.
pub fn kmeans(data: &[Vec<f64>], k: usize, iters: usize, seed: u64) -> Clustering {
    assert!(!data.is_empty(), "kmeans needs data");
    assert!(k > 0, "kmeans needs k > 0");
    let k = k.min(data.len());
    let mut rng = SplitMix64::new(seed);

    // Random distinct starting points.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut chosen = std::collections::HashSet::new();
    while centroids.len() < k {
        let i = rng.below(data.len() as u64) as usize;
        if chosen.insert(i) || chosen.len() >= data.len() {
            centroids.push(data[i].clone());
        }
    }

    lloyd(data, centroids, iters)
}

/// [`kmeans`]' iterations from the given starting centroids.
fn lloyd(data: &[Vec<f64>], mut centroids: Vec<Vec<f64>>, iters: usize) -> Clustering {
    let (n, dim, k) = (data.len(), data[0].len(), centroids.len());
    let iters = iters.max(1);
    let tau = prune_margin(data, iters);
    let lanes = padded_lanes(k);
    let mut dists = vec![0.0; lanes];
    let mut cent_t = Vec::with_capacity(dim * lanes);
    let mut assignments = vec![0usize; n];
    // Hamerly's bounds: `upper[i]` is at least the distance from point `i`
    // to its own centroid, `lower[i]` at most its distance to any other
    // centroid (∞ and 0 until the first scan, so nothing is skipped then).
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![0.0; n];
    // Half the distance from each centroid to its nearest other centroid.
    let mut half_gap = vec![0.0; k];
    // How far each centroid moved in the last update, and the largest and
    // second-largest of those moves.
    let mut drift = vec![0.0; k];
    let (mut drift_max, mut drift_max2, mut drift_arg) = (0.0, 0.0, 0);
    // Squared distance of each point to its own pre-update centroid, from
    // this iteration's scan; negative for a skipped point until a re-seed
    // needs it.
    let mut fit = vec![0.0; n];
    let mut fit_new = Vec::new();
    let mut sums = vec![0.0; k * dim];
    let mut counts = vec![0usize; k];
    let mut old = centroids.clone();
    for _ in 0..iters {
        // Assign: one squared distance per centroid, computed in parallel
        // lanes over the dimension-major centroid matrix (bit-identical to
        // the per-centroid scalar loop; see `kernel`).
        transpose_centroids_into(&centroids, &mut cent_t);
        if tau.is_finite() {
            for (c, cent) in centroids.iter().enumerate() {
                sq_dists_dim_major(cent, &cent_t, lanes, &mut dists);
                dists[c] = f64::INFINITY;
                half_gap[c] = 0.5
                    * dists[..k]
                        .iter()
                        .fold(f64::INFINITY, |m, &d| m.min(d))
                        .sqrt();
            }
        }
        let mut changed = false;
        for (i, p) in data.iter().enumerate() {
            let a = assignments[i];
            upper[i] += drift[a];
            lower[i] -= if a == drift_arg {
                drift_max2
            } else {
                drift_max
            };
            if upper[i] + tau < half_gap[a].max(lower[i]) {
                fit[i] = -1.0;
                continue;
            }
            sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
            let (best, runner_up) = argmin_and_runner_up(&dists[..k]);
            fit[i] = dists[best];
            upper[i] = dists[best].sqrt();
            lower[i] = runner_up.sqrt();
            if a != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        for (o, c) in old.iter_mut().zip(&centroids) {
            o.copy_from_slice(c);
        }
        sums.fill(0.0);
        counts.fill(0);
        for (p, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(p) {
                *s += x;
            }
        }
        for (c, cent) in centroids.iter_mut().enumerate() {
            if counts[c] > 0 {
                for (v, s) in cent.iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                    *v = s / counts[c] as f64;
                }
            }
        }
        if counts.contains(&0) {
            // Re-seed each empty cluster with the worst-fit point. Fit is
            // read against the new mean for points of lower clusters and
            // the old centroid otherwise — exactly what updating and
            // re-seeding clusters one at a time in index order would see.
            fit_new.resize(n, 0.0);
            for (i, p) in data.iter().enumerate() {
                let a = assignments[i];
                if fit[i] < 0.0 {
                    fit[i] = sq_dist(p, &old[a]);
                }
                fit_new[i] = sq_dist(p, &centroids[a]);
            }
            for c in (0..k).filter(|&c| counts[c] == 0) {
                let fit_at = |i: usize| {
                    if assignments[i] < c {
                        fit_new[i]
                    } else {
                        fit[i]
                    }
                };
                // `Iterator::max_by`'s rule: a later point replaces the
                // worst so far unless the worst so far compares greater.
                let (mut worst, mut worst_fit) = (0, fit_at(0));
                for i in 1..n {
                    let f = fit_at(i);
                    if worst_fit.partial_cmp(&f) != Some(std::cmp::Ordering::Greater) {
                        (worst, worst_fit) = (i, f);
                    }
                }
                centroids[c].copy_from_slice(&data[worst]);
            }
        }
        if !changed {
            break;
        }
        (drift_max, drift_max2, drift_arg) = (0.0, 0.0, 0);
        for (c, d) in drift.iter_mut().enumerate() {
            *d = sq_dist(&old[c], &centroids[c]).sqrt();
            if *d > drift_max {
                (drift_max2, drift_max, drift_arg) = (drift_max, *d, c);
            } else if *d > drift_max2 {
                drift_max2 = *d;
            }
        }
    }

    let inertia = data
        .iter()
        .zip(&assignments)
        .map(|(p, &a)| sq_dist(p, &centroids[a]))
        .sum();
    Clustering {
        assignments,
        centroids,
        inertia,
    }
}

/// The margin τ of [`kmeans`]'s pruning test
/// `upper + τ < max(half_gap, lower)`, or `+∞` (no point is ever skipped)
/// when a coordinate is not finite or the data are so large that squared
/// distances could overflow.
///
/// Why the test never skips a point whose full scan would pick another
/// centroid. Let `B` be the largest coordinate magnitude, `d` the
/// dimension, `T = iters`, `ε = 2⁻⁵³` and `α = 1e-150`.
///
/// 1. Every centroid is an input point or a rounded mean of inputs, so
///    its coordinates lie within `B(1 + 2⁻²⁰)`, and every distance (point
///    or centroid to point or centroid, or a centroid's move) is at most
///    `R = 2.001·B·√d ≤ 1e150`.
/// 2. A kernel or [`sq_dist`] sum of `d` rounded squares is within
///    `(d+3)ε·D² + d·2⁻¹⁰⁷⁴` of the true `D²` (relative error of a sum of
///    non-negative terms, plus underflow). Its rounded square root is
///    within `e = R(d+4)ε + α` of `D`.
/// 3. A bound starts as one such root; each iteration adds a computed
///    move (error `e`) with one rounding (error `≤ 2Rε`, the operands
///    being at most `2R` whenever the test can pass). A point takes at
///    most `T` such updates between two scans, so `upper`, `lower` and
///    `half_gap` are each within `E = (T+1)(R(d+6)ε + α)` of a true bound.
/// 4. If the test passes, the true distance to the own centroid `a` is
///    below every other true distance `D_c` by more than
///    `g = τ − 2E − 2Rε ≥ 6(R(d+6)ε + α)`: via `lower` directly, via
///    `half_gap` because `D_c ≥ 2·half_gap − D_a` (triangle inequality).
/// 5. Then the scan's computed values satisfy
///    `ŝ_c − ŝ_a ≥ (D_c + D_a)(g − (d+3)ε·R) − 2d·2⁻¹⁰⁷⁴ > g·α − 2d·2⁻¹⁰⁷⁴ > 0`,
///    so the scan's first-wins `argmin` returns `a`: a strict win, which is
///    why exact ties (`g = 0`) are never skipped.
fn prune_margin(data: &[Vec<f64>], iters: usize) -> f64 {
    let mut b: f64 = 0.0;
    for x in data.iter().flatten() {
        if !x.is_finite() {
            return f64::INFINITY;
        }
        b = b.max(x.abs());
    }
    let d = data[0].len() as f64;
    let r = 2.001 * b * d.sqrt();
    if r > 1e150 {
        return f64::INFINITY;
    }
    4.0 * (iters as f64 + 2.0) * (r * (d + 6.0) * f64::EPSILON / 2.0 + 1e-150)
}

/// Bayesian Information Criterion of a clustering under the spherical
/// Gaussian model (the X-means / SimPoint formulation). Higher is better.
pub fn bic(data: &[Vec<f64>], c: &Clustering) -> f64 {
    let r = data.len() as f64;
    let d = data[0].len() as f64;
    let k = c.k() as f64;
    let sizes = c.sizes();
    // Pooled variance estimate.
    let denom = (r - k).max(1.0);
    let sigma2 = (c.inertia / (denom * d)).max(1e-12);
    let mut loglik = 0.0;
    for &ri in &sizes {
        if ri == 0 {
            continue;
        }
        let ri = ri as f64;
        loglik += ri * (ri / r).ln();
    }
    loglik -= r * d / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln();
    loglik -= (r - k) * d / 2.0;
    let params = k * (d + 1.0);
    loglik - params / 2.0 * r.ln()
}

/// SimPoint-style model selection: for each `k` in `1..=max_k`, run k-means
/// with `seeds` random initializations and `iters` iterations each, keep the
/// best (lowest-inertia) run, then return the clustering with the *smallest
/// k* whose BIC is at least `threshold` (typically 0.9) of the way from the
/// worst to the best BIC observed.
///
/// ```
/// use simstats::kmeans::best_clustering;
///
/// // Two obvious groups of 1-D points.
/// let data: Vec<Vec<f64>> = [0.0, 0.1, 0.2, 10.0, 10.1, 10.2]
///     .iter().map(|&x| vec![x]).collect();
/// let c = best_clustering(&data, 4, 3, 50, 0.9);
/// assert_eq!(c.k(), 2);
/// ```
pub fn best_clustering(
    data: &[Vec<f64>],
    max_k: usize,
    seeds: u64,
    iters: usize,
    threshold: f64,
) -> Clustering {
    assert!(!data.is_empty(), "clustering needs data");
    let max_k = max_k.min(data.len()).max(1);
    let mut by_k: Vec<(f64, Clustering)> = Vec::with_capacity(max_k);
    for k in 1..=max_k {
        let mut best: Option<Clustering> = None;
        for s in 0..seeds.max(1) {
            let c = kmeans(data, k, iters, s.wrapping_mul(0x9e37) ^ k as u64);
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2D.
    fn blobs() -> Vec<Vec<f64>> {
        let mut rng = SplitMix64::new(42);
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut data = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..40 {
                data.push(vec![cx + rng.unit_f64() - 0.5, cy + rng.unit_f64() - 0.5]);
            }
        }
        data
    }

    #[test]
    fn kmeans_recovers_separated_blobs() {
        let data = blobs();
        let c = kmeans(&data, 3, 100, 7);
        assert_eq!(c.k(), 3);
        // Each blob of 40 points should map to a single cluster.
        for blob in 0..3 {
            let first = c.assignments[blob * 40];
            for i in 0..40 {
                assert_eq!(c.assignments[blob * 40 + i], first, "blob {blob} split");
            }
        }
        assert!(c.inertia < 100.0, "inertia {} too high", c.inertia);
    }

    #[test]
    fn kmeans_is_deterministic_per_seed() {
        let data = blobs();
        let a = kmeans(&data, 3, 50, 1);
        let b = kmeans(&data, 3, 50, 1);
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn representatives_are_members_of_their_cluster() {
        let data = blobs();
        let c = kmeans(&data, 3, 100, 3);
        for (cl, &rep) in c.representatives(&data).iter().enumerate() {
            assert_eq!(c.assignments[rep], cl);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let data = blobs();
        let c = kmeans(&data, 3, 100, 3);
        let w: f64 = c.weights().iter().sum();
        assert!((w - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bic_prefers_true_k_over_underfit() {
        let data = blobs();
        let c1 = kmeans(&data, 1, 100, 5);
        let c3 = kmeans(&data, 3, 100, 5);
        assert!(
            bic(&data, &c3) > bic(&data, &c1),
            "BIC must prefer 3 clusters for 3 blobs"
        );
    }

    #[test]
    fn best_clustering_finds_three_blobs() {
        let data = blobs();
        let c = best_clustering(&data, 10, 5, 100, 0.9);
        assert_eq!(c.k(), 3, "BIC selection should settle on 3 clusters");
    }

    #[test]
    fn k_larger_than_data_is_clamped() {
        let data = vec![vec![0.0], vec![1.0]];
        let c = kmeans(&data, 10, 10, 0);
        assert!(c.k() <= 2);
    }

    #[test]
    fn empty_clusters_reseed_by_the_partly_updated_worst_fit() {
        // Five points with four distinct values and five clusters, so some
        // clusters must empty: 100 and 200 and 300 attract nobody.
        let data: Vec<Vec<f64>> = [0.0, 4.0, 10.0, 12.0, 12.0]
            .iter()
            .map(|&x| vec![x])
            .collect();
        let start = [0.0, 100.0, 10.0, 200.0, 300.0]
            .iter()
            .map(|&x| vec![x])
            .collect();
        let c = lloyd(&data, start, 1);
        assert_eq!(c.assignments, vec![0, 0, 2, 2, 2]);
        let centroids: Vec<f64> = c.centroids.iter().map(|v| v[0]).collect();
        // Cluster 1 is re-seeded after cluster 0 moved to its mean 2 but
        // before cluster 2 left 10: fits are 4, 4, 0, 4, 4, and the last of
        // the tied points (12) wins. Against all-old centroids (fits 0, 16,
        // 0, 4, 4) or all-new ones (4, 4, 1.78, 0.44, 0.44) it would be 4.
        // Clusters 3 and 4 see every mean updated; both take the last
        // worst point, 4, and end as duplicate centroids.
        assert_eq!(centroids, vec![2.0, 12.0, 34.0 / 3.0, 4.0, 4.0]);
    }

    #[test]
    fn single_cluster_centroid_is_mean() {
        let data = vec![vec![0.0, 0.0], vec![2.0, 4.0]];
        let c = kmeans(&data, 1, 10, 0);
        assert!((c.centroids[0][0] - 1.0).abs() < 1e-12);
        assert!((c.centroids[0][1] - 2.0).abs() < 1e-12);
    }
}
