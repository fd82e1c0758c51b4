//! The reference k-means: the plain Lloyd loop `simstats::kmeans::kmeans`
//! ran before it learned to skip provably unchanged assignments. Every
//! point is scanned against every centroid every iteration, and each empty
//! cluster is re-seeded with a `max_by` over freshly computed distances.
//! Shared by the simstats adversarial cases and the workspace's SimPoint
//! oracle (`tests/kmeans_oracle.rs`).

use simstats::kernel::{argmin, padded_lanes, sq_dist, sq_dists_dim_major, transpose_centroids};
use simstats::kmeans::Clustering;
use simstats::rng::SplitMix64;

/// The reference Lloyd loop, verbatim.
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

    let mut assignments = vec![0usize; data.len()];
    let lanes = padded_lanes(k);
    let mut dists = vec![0.0; lanes];
    for _ in 0..iters.max(1) {
        // Assign: one squared distance per centroid, computed in parallel
        // lanes over the dimension-major centroid matrix (bit-identical to
        // the per-centroid scalar loop; see `kernel`).
        let cent_t = transpose_centroids(&centroids);
        let mut changed = false;
        for (i, p) in data.iter().enumerate() {
            sq_dists_dim_major(p, &cent_t, lanes, &mut dists);
            let best = argmin(&dists[..k]);
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let dim = data[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the worst-fit point.
                let worst = (0..data.len())
                    .max_by(|&a, &b| {
                        sq_dist(&data[a], &centroids[assignments[a]])
                            .partial_cmp(&sq_dist(&data[b], &centroids[assignments[b]]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("data nonempty");
                centroids[c] = data[worst].clone();
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
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

/// Assert that `got` equals `want` bit for bit: assignments, centroid bits
/// and inertia bits.
pub fn assert_same(got: &Clustering, want: &Clustering, what: &str) {
    assert_eq!(got.assignments, want.assignments, "{what}: assignments");
    assert_eq!(got.centroids.len(), want.centroids.len(), "{what}: k");
    for (c, (g, w)) in got.centroids.iter().zip(&want.centroids).enumerate() {
        let g: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
        let w: Vec<u64> = w.iter().map(|x| x.to_bits()).collect();
        assert_eq!(g, w, "{what}: centroid {c} bits");
    }
    assert_eq!(
        got.inertia.to_bits(),
        want.inertia.to_bits(),
        "{what}: inertia bits"
    );
}
