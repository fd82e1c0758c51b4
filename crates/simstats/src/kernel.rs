//! Shared auto-vectorizable inner loops for the statistics hot paths.
//!
//! Every kernel here preserves the *exact* floating-point accumulation
//! order of the scalar loop it replaces, because experiment reports are
//! compared byte-for-byte across runs and revisions. That rules out
//! reassociating any single reduction (f64 addition is not associative);
//! what it does not rule out is computing many *independent* reductions in
//! parallel lanes — each lane still sees its terms in the original order.
//! The k-means assignment step (one squared distance per centroid) and the
//! Plackett–Burman effect sums (one signed sum per factor) have exactly
//! that shape, so they are laid out dimension-major/run-major here and the
//! compiler vectorizes across the output lanes.
//!
//! The χ² statistic is a *single* serial reduction, so it cannot be
//! chunked without changing the reported bits; [`chi2_stat`] keeps the
//! serial order and exists so every caller shares one definition.

/// Squared Euclidean distance, accumulated left to right (the shared
/// definition behind [`crate::dist::euclidean`] and k-means).
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One register block of `B` centroid lanes: accumulators live in registers
/// across the whole dimension loop (no per-element load/store of `out`),
/// and each lane sees its terms in increasing-`j` order.
#[inline(always)]
fn sq_dists_block<const B: usize>(p: &[f64], cent_t: &[f64], k: usize, base: usize) -> [f64; B] {
    let mut acc = [0.0f64; B];
    for (j, &x) in p.iter().enumerate() {
        let row = &cent_t[j * k + base..j * k + base + B];
        for (a, &c) in acc.iter_mut().zip(row) {
            let d = x - c;
            *a += d * d;
        }
    }
    acc
}

/// The blocked dimension-major distance loop: `L`-lane blocks, then 4-lane
/// blocks, then strided single lanes, so short `k` (SimPoint explores k up
/// to ~30) stays on vector code for all but `k % 4` centroids.
#[inline(always)]
fn sq_dists_body<const L: usize>(p: &[f64], cent_t: &[f64], k: usize, out: &mut [f64]) {
    let mut base = 0;
    while base + L <= k {
        out[base..base + L].copy_from_slice(&sq_dists_block::<L>(p, cent_t, k, base));
        base += L;
    }
    while base + 4 <= k {
        out[base..base + 4].copy_from_slice(&sq_dists_block::<4>(p, cent_t, k, base));
        base += 4;
    }
    for c in base..k {
        let mut a = 0.0;
        for (j, &x) in p.iter().enumerate() {
            let d = x - cent_t[j * k + c];
            a += d * d;
        }
        out[c] = a;
    }
}

/// The same body compiled with AVX2 enabled (4 f64 per vector instead of
/// the SSE2 baseline's 2). Only `avx2` is enabled — not `fma` — so
/// multiplies and adds stay separate IEEE-rounded operations and the lanes
/// remain bit-identical to the scalar order. Same reasoning for the
/// AVX-512 tier below (8 f64 per vector, two registers per 16-lane block).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sq_dists_body_avx2(p: &[f64], cent_t: &[f64], k: usize, out: &mut [f64]) {
    sq_dists_body::<8>(p, cent_t, k, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sq_dists_body_avx512(p: &[f64], cent_t: &[f64], k: usize, out: &mut [f64]) {
    sq_dists_body::<16>(p, cent_t, k, out);
}

/// Squared distances from point `p` to `k` centroids stored
/// dimension-major: `cent_t[j * k + c]` is dimension `j` of centroid `c`.
///
/// `out[c]` accumulates `(p[j] - cent)²` in increasing-`j` order — the same
/// order the per-centroid scalar loop uses — so each lane's result is
/// bit-identical to `sq_dist(p, centroid_c)` on every dispatch path, while
/// the inner loop runs across register-blocked lanes (AVX-512/AVX2 when the
/// host has them, baseline vectors otherwise).
///
/// # Panics
/// Panics if `out.len() != k` or `cent_t.len() != p.len() * k`.
pub fn sq_dists_dim_major(p: &[f64], cent_t: &[f64], k: usize, out: &mut [f64]) {
    assert_eq!(out.len(), k, "one output lane per centroid");
    assert_eq!(cent_t.len(), p.len() * k, "dimension-major centroid matrix");
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: each call is guarded by its runtime feature check.
        if std::arch::is_x86_feature_detected!("avx512f") {
            return unsafe { sq_dists_body_avx512(p, cent_t, k, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return unsafe { sq_dists_body_avx2(p, cent_t, k, out) };
        }
    }
    sq_dists_body::<8>(p, cent_t, k, out);
}

/// Transpose row-major centroids (`centroids[c][j]`) into the
/// dimension-major layout [`sq_dists_dim_major`] consumes, padded to
/// [`padded_lanes`] lanes by replicating the last centroid so every lane
/// runs on the vector path (the duplicate lanes can never win an argmin
/// that a real lane would not also win, and callers take
/// `argmin(&dists[..k])` anyway).
///
/// # Panics
/// Panics if the centroids have unequal dimensions.
pub fn transpose_centroids(centroids: &[Vec<f64>]) -> Vec<f64> {
    let mut cent_t = Vec::new();
    transpose_centroids_into(centroids, &mut cent_t);
    cent_t
}

/// [`transpose_centroids`] into a caller-owned buffer, so a loop that
/// re-transposes every iteration reuses one allocation.
///
/// # Panics
/// Panics if the centroids have unequal dimensions.
pub(crate) fn transpose_centroids_into(centroids: &[Vec<f64>], cent_t: &mut Vec<f64>) {
    let k = centroids.len();
    let lanes = padded_lanes(k);
    let dim = centroids.first().map_or(0, Vec::len);
    cent_t.clear();
    cent_t.resize(dim * lanes, 0.0);
    for c in 0..lanes {
        let cent = &centroids[c.min(k - 1)];
        assert_eq!(cent.len(), dim, "centroid dimensions must agree");
        for (j, &v) in cent.iter().enumerate() {
            cent_t[j * lanes + c] = v;
        }
    }
}

/// Lane count [`transpose_centroids`] pads `k` centroids to (the next
/// multiple of the smallest register block). Size distance buffers with
/// this and read only the first `k` entries.
pub fn padded_lanes(k: usize) -> usize {
    k.next_multiple_of(4)
}

/// Index of the smallest value, first occurrence winning ties — the
/// argmin rule the scalar assignment loop used (`<`, not `<=`).
#[inline]
pub fn argmin(values: &[f64]) -> usize {
    let mut best = (f64::INFINITY, 0usize);
    for (i, &v) in values.iter().enumerate() {
        if v < best.0 {
            best = (v, i);
        }
    }
    best.1
}

/// [`argmin`]'s index (same first-wins rule) together with the smallest
/// value at any *other* index (`+∞` when there is none), in one pass: the
/// nearest and second-nearest distances k-means' bounds need.
#[inline]
pub(crate) fn argmin_and_runner_up(values: &[f64]) -> (usize, f64) {
    let (mut best, mut at, mut runner_up) = (f64::INFINITY, 0usize, f64::INFINITY);
    for (i, &v) in values.iter().enumerate() {
        if v < best {
            runner_up = best;
            (best, at) = (v, i);
        } else if v < runner_up {
            runner_up = v;
        }
    }
    (at, runner_up)
}

/// Per-factor signed sums for a Plackett–Burman design: lane `f`
/// accumulates `sign(rows[r][f]) * responses[r]` in increasing-`r` order.
/// Run-major iteration keeps each factor's terms in the same order as the
/// factor-at-a-time scalar loop (bit-identical lanes) while the inner loop
/// vectorizes across factors.
///
/// # Panics
/// Panics if a row is shorter than `factors`.
pub fn signed_lane_sums(rows: &[Vec<i8>], responses: &[f64], factors: usize) -> Vec<f64> {
    let mut acc = vec![0.0; factors];
    for (row, &y) in rows.iter().zip(responses) {
        let row = &row[..factors];
        for (a, &s) in acc.iter_mut().zip(row) {
            *a += f64::from(s) * y;
        }
    }
    acc
}

/// The χ² statistic accumulation: observed values are rescaled by `scale`,
/// zero-expectation bins use the `E -> 1` regularization, and bins where
/// both sides are zero are skipped. Returns `(statistic, counted_bins)`.
///
/// This is a single serial reduction; its term order is the report
/// contract, so it is deliberately *not* chunked into parallel lanes.
pub fn chi2_stat(observed: &[f64], expected: &[f64], scale: f64) -> (f64, usize) {
    let mut stat = 0.0;
    let mut bins = 0usize;
    for (&o, &e) in observed.iter().zip(expected) {
        let os = o * scale;
        if e > 0.0 {
            let d = os - e;
            stat += d * d / e;
            bins += 1;
        } else if os > 0.0 {
            stat += os * os; // E -> 1 regularization
            bins += 1;
        }
    }
    (stat, bins)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_sq_dists(p: &[f64], centroids: &[Vec<f64>]) -> Vec<f64> {
        centroids.iter().map(|c| sq_dist(p, c)).collect()
    }

    #[test]
    fn dim_major_distances_are_bit_identical_to_scalar() {
        // Awkward magnitudes so any reassociation would change the bits.
        let mut x = 0.123_456_789_f64;
        let mut next = || {
            x = (x * 1.000_000_11 + 0.618_033_98) % 3.0;
            x * 1e3 - 1.5e3
        };
        let dim = 17;
        let k = 7;
        let centroids: Vec<Vec<f64>> = (0..k).map(|_| (0..dim).map(|_| next()).collect()).collect();
        let p: Vec<f64> = (0..dim).map(|_| next()).collect();

        let lanes = padded_lanes(k);
        let cent_t = transpose_centroids(&centroids);
        let mut out = vec![0.0; lanes];
        sq_dists_dim_major(&p, &cent_t, lanes, &mut out);
        let reference = scalar_sq_dists(&p, &centroids);
        for (lane, exact) in out.iter().zip(&reference) {
            assert_eq!(
                lane.to_bits(),
                exact.to_bits(),
                "lane must match scalar bits"
            );
        }
        for pad in &out[k..] {
            assert_eq!(
                pad.to_bits(),
                reference[k - 1].to_bits(),
                "pad lanes replicate"
            );
        }
    }

    #[test]
    fn signed_lane_sums_match_factor_at_a_time_bits() {
        let rows: Vec<Vec<i8>> = vec![
            vec![1, -1, 1, -1],
            vec![1, 1, -1, -1],
            vec![-1, 1, 1, -1],
            vec![-1, -1, -1, 1],
        ];
        let y = [0.1, 0.223, 3.7e-3, 1.9];
        let lanes = signed_lane_sums(&rows, &y, 4);
        for f in 0..4 {
            let scalar: f64 = rows
                .iter()
                .zip(&y)
                .map(|(row, &v)| f64::from(row[f]) * v)
                .sum();
            assert_eq!(lanes[f].to_bits(), scalar.to_bits());
        }
    }

    #[test]
    fn argmin_prefers_first_of_equal_values() {
        assert_eq!(argmin(&[3.0, 1.0, 1.0, 2.0]), 1);
        assert_eq!(argmin(&[f64::INFINITY]), 0);
    }

    #[test]
    fn runner_up_is_the_smallest_other_value() {
        for values in [
            &[3.0, 1.0, 1.0, 2.0][..],
            &[1.0, 3.0, 0.5, 0.5, 0.25][..],
            &[2.0, 2.0][..],
            &[5.0][..],
            &[4.0, f64::NAN, 1.0, f64::NAN, 3.0][..],
        ] {
            let (at, runner_up) = argmin_and_runner_up(values);
            assert_eq!(at, argmin(values), "{values:?}");
            let others = values
                .iter()
                .enumerate()
                .filter(|&(i, v)| i != at && *v < f64::INFINITY)
                .map(|(_, &v)| v)
                .fold(f64::INFINITY, f64::min);
            assert_eq!(runner_up, others, "{values:?}");
        }
    }

    #[test]
    fn chi2_stat_counts_and_regularizes() {
        let (stat, bins) = chi2_stat(&[1.0, 0.0, 2.0], &[1.0, 0.0, 0.0], 1.0);
        assert_eq!(bins, 2, "both-zero bin skipped");
        assert_eq!(stat, 0.0 + 4.0, "zero-expectation bin adds os²");
    }
}
