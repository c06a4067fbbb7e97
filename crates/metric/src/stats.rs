//! Ground-truth helpers: exact extrema, objectives, and distance buckets.
//!
//! Everything in this module reads true distances, so it is used only by
//! (a) evaluation code that scores what the noisy algorithms returned, and
//! (b) the `TDist` baselines, which the paper defines as the same algorithms
//! run with perfect distance knowledge.

use crate::Metric;

/// Index of the exact farthest point from `q` among `candidates`, with its
/// distance. Returns `None` when `candidates` is empty (after removing `q`).
pub fn exact_farthest<M: Metric>(
    metric: &M,
    q: usize,
    candidates: impl IntoIterator<Item = usize>,
) -> Option<(usize, f64)> {
    candidates
        .into_iter()
        .filter(|&c| c != q)
        .map(|c| (c, metric.dist(q, c)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

/// Index of the exact nearest point to `q` among `candidates`, with its
/// distance.
pub fn exact_nearest<M: Metric>(
    metric: &M,
    q: usize,
    candidates: impl IntoIterator<Item = usize>,
) -> Option<(usize, f64)> {
    candidates
        .into_iter()
        .filter(|&c| c != q)
        .map(|c| (c, metric.dist(q, c)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The 1-based rank of `chosen` in the non-increasing order of distances
/// from `q` (rank 1 = true farthest). Ties count in `chosen`'s favour.
pub fn farthest_rank<M: Metric>(metric: &M, q: usize, chosen: usize) -> usize {
    let d = metric.dist(q, chosen);
    let better = (0..metric.len())
        .filter(|&v| v != q && v != chosen)
        .filter(|&v| metric.dist(q, v) > d)
        .count();
    better + 1
}

/// The 1-based rank of `chosen` in the non-decreasing order of distances
/// from `q` (rank 1 = true nearest).
pub fn nearest_rank<M: Metric>(metric: &M, q: usize, chosen: usize) -> usize {
    let d = metric.dist(q, chosen);
    let better = (0..metric.len())
        .filter(|&v| v != q && v != chosen)
        .filter(|&v| metric.dist(q, v) < d)
        .count();
    better + 1
}

/// Maximum pairwise distance over all pairs (the metric's diameter).
pub fn diameter<M: Metric>(metric: &M) -> f64 {
    let n = metric.len();
    let mut best = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            best = best.max(metric.dist(i, j));
        }
    }
    best
}

/// The k-center objective of an assignment: the maximum true distance from
/// any point to the center it was assigned to.
///
/// `assignment[v]` is an index into `centers`.
///
/// # Panics
/// Panics if `assignment.len() != metric.len()` or an assignment is out of
/// range.
pub fn kcenter_objective<M: Metric>(metric: &M, centers: &[usize], assignment: &[usize]) -> f64 {
    assert_eq!(
        assignment.len(),
        metric.len(),
        "assignment covers all points"
    );
    assignment
        .iter()
        .enumerate()
        .map(|(v, &c)| metric.dist(v, centers[c]))
        .fold(0.0f64, f64::max)
}

/// The k-center objective when every point goes to its *closest* center
/// (the best achievable assignment for a fixed center set).
pub fn kcenter_objective_best_assignment<M: Metric>(metric: &M, centers: &[usize]) -> f64 {
    assert!(!centers.is_empty());
    (0..metric.len())
        .map(|v| {
            centers
                .iter()
                .map(|&c| metric.dist(v, c))
                .fold(f64::INFINITY, f64::min)
        })
        .fold(0.0f64, f64::max)
}

/// Equal-width bucket edges over `[0, max]` for distance bucketisation, as
/// used by the Figure 4 user-study harness.
#[derive(Debug, Clone)]
pub struct Buckets {
    edges: Vec<f64>,
}

impl Buckets {
    /// Builds `count` equal-width buckets covering `[0, max]`.
    ///
    /// # Panics
    /// Panics if `count == 0` or `max` is not positive/finite.
    pub fn equal_width(max: f64, count: usize) -> Self {
        assert!(count > 0, "need at least one bucket");
        assert!(max.is_finite() && max > 0.0, "max must be positive");
        let edges = (0..=count).map(|i| max * i as f64 / count as f64).collect();
        Self { edges }
    }

    /// Number of buckets.
    pub fn count(&self) -> usize {
        self.edges.len() - 1
    }

    /// The bucket index of a distance (clamped into range).
    pub fn index_of(&self, d: f64) -> usize {
        let count = self.count();
        if d <= 0.0 {
            return 0;
        }
        let max = self.edges[count];
        if d >= max {
            return count - 1;
        }
        // Equal-width: direct computation, clamped for fp safety.
        ((d / max * count as f64) as usize).min(count - 1)
    }
}

/// A cheap skewness proxy: the ratio of the 99th to the 50th percentile of a
/// sample of pairwise distances. The paper attributes Samp's failure on
/// `cities` to a skewed distance distribution; the generators assert on this.
pub fn distance_skew_sample<M: Metric>(metric: &M, sample_pairs: usize, seed: u64) -> f64 {
    let n = metric.len();
    assert!(n >= 2);
    let mut ds: Vec<f64> = (0..sample_pairs)
        .map(|t| {
            let h = crate::hashing::mix(seed, &[t as u64]);
            let i = (h % n as u64) as usize;
            let j = ((h >> 32) % n as u64) as usize;
            if i == j {
                metric.dist(i, (j + 1) % n)
            } else {
                metric.dist(i, j)
            }
        })
        .collect();
    ds.sort_by(f64::total_cmp);
    let p50 = ds[ds.len() / 2].max(f64::MIN_POSITIVE);
    let p99 = ds[(ds.len() * 99) / 100];
    p99 / p50
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EuclideanMetric;

    fn line_metric() -> EuclideanMetric {
        // Points 0, 1, 2, 10 on a line.
        EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![2.0], vec![10.0]])
    }

    #[test]
    fn farthest_and_nearest_are_exact() {
        let m = line_metric();
        assert_eq!(exact_farthest(&m, 0, 0..4), Some((3, 10.0)));
        assert_eq!(exact_nearest(&m, 0, 0..4), Some((1, 1.0)));
        assert_eq!(exact_nearest(&m, 3, 0..4), Some((2, 8.0)));
        assert_eq!(exact_farthest(&m, 0, std::iter::once(0)), None);
    }

    #[test]
    fn ranks_count_strictly_better_points() {
        let m = line_metric();
        assert_eq!(farthest_rank(&m, 0, 3), 1);
        assert_eq!(farthest_rank(&m, 0, 2), 2);
        assert_eq!(farthest_rank(&m, 0, 1), 3);
        assert_eq!(nearest_rank(&m, 0, 1), 1);
        assert_eq!(nearest_rank(&m, 0, 3), 3);
    }

    #[test]
    fn diameter_is_max_pair() {
        assert_eq!(diameter(&line_metric()), 10.0);
    }

    #[test]
    fn kcenter_objectives() {
        let m = line_metric();
        // Centers at points 0 and 3; natural assignment 0,0,0,1.
        let centers = [0, 3];
        let assignment = [0, 0, 0, 1];
        assert_eq!(kcenter_objective(&m, &centers, &assignment), 2.0);
        assert_eq!(kcenter_objective_best_assignment(&m, &centers), 2.0);
        // A bad assignment is scored as-is.
        let bad = [1, 0, 0, 1];
        assert_eq!(kcenter_objective(&m, &centers, &bad), 10.0);
    }

    #[test]
    fn buckets_partition_the_range() {
        let b = Buckets::equal_width(10.0, 5);
        assert_eq!(b.count(), 5);
        assert_eq!(b.index_of(-1.0), 0);
        assert_eq!(b.index_of(0.5), 0);
        assert_eq!(b.index_of(3.9), 1);
        assert_eq!(b.index_of(9.999), 4);
        assert_eq!(b.index_of(10.0), 4);
        assert_eq!(b.index_of(99.0), 4);
    }

    #[test]
    fn skew_is_larger_for_skewed_data() {
        let tight =
            EuclideanMetric::from_points(&(0..50).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let mut pts: Vec<Vec<f64>> = (0..49).map(|i| vec![(i % 7) as f64 * 0.01]).collect();
        pts.push(vec![1000.0]);
        let skewed = EuclideanMetric::from_points(&pts);
        let s_tight = distance_skew_sample(&tight, 2000, 1);
        let s_skewed = distance_skew_sample(&skewed, 2000, 1);
        assert!(s_skewed > s_tight * 10.0, "{s_skewed} vs {s_tight}");
    }
}
