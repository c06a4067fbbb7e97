//! Dendrogram quality: true linkage distances of every merge — the
//! Figure 7 measure ("we compute the pairs of clusters merged in every
//! iteration and compare the average true distance between these
//! clusters"), evaluated on the hidden metric.

use nco_core::hier::{Dendrogram, Linkage};
use nco_metric::Metric;

/// True linkage distance (min for single, max for complete) between the
/// two clusters of every merge, in merge order.
///
/// Replays the dendrogram maintaining member lists; total work is
/// `O(sum |C_a| * |C_b|) = O(n^2)`.
///
/// # Panics
/// Panics if the dendrogram refers to records outside the metric.
fn merge_linkage_distances<M: Metric>(
    dendrogram: &Dendrogram,
    metric: &M,
    linkage: Linkage,
) -> Vec<f64> {
    assert!(
        dendrogram.n <= metric.len(),
        "dendrogram exceeds the metric"
    );
    let mut members: Vec<Vec<usize>> = (0..dendrogram.n).map(|i| vec![i]).collect();
    let mut out = Vec::with_capacity(dendrogram.merges.len());
    for m in &dendrogram.merges {
        let (a, b) = (&members[m.a], &members[m.b]);
        let mut best = match linkage {
            Linkage::Single => f64::INFINITY,
            Linkage::Complete => f64::NEG_INFINITY,
        };
        for &x in a {
            for &y in b {
                let d = metric.dist(x, y);
                best = match linkage {
                    Linkage::Single => best.min(d),
                    Linkage::Complete => best.max(d),
                };
            }
        }
        out.push(best);
        let mut merged = members[m.a].clone();
        merged.extend_from_slice(&members[m.b]);
        members.push(merged);
    }
    out
}

/// Mean of the per-merge true linkage distances — the scalar plotted in
/// Figure 7 (normalised against the `TDist` baseline by the harness).
pub fn mean_merge_distance<M: Metric>(
    dendrogram: &Dendrogram,
    metric: &M,
    linkage: Linkage,
) -> f64 {
    let ds = merge_linkage_distances(dendrogram, metric, linkage);
    if ds.is_empty() {
        return 0.0;
    }
    ds.iter().sum::<f64>() / ds.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nco_core::hier::hier_exact;
    use nco_metric::EuclideanMetric;

    fn line() -> EuclideanMetric {
        EuclideanMetric::from_points(&[vec![0.0], vec![1.0], vec![3.0], vec![7.0]])
    }

    #[test]
    fn single_linkage_distances_match_gaps() {
        let m = line();
        let d = hier_exact(&m, Linkage::Single);
        let ds = merge_linkage_distances(&d, &m, Linkage::Single);
        assert_eq!(ds, vec![1.0, 2.0, 4.0]);
        assert!((mean_merge_distance(&d, &m, Linkage::Single) - 7.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn complete_linkage_distances_are_maxima() {
        let m = line();
        let d = hier_exact(&m, Linkage::Complete);
        let ds = merge_linkage_distances(&d, &m, Linkage::Complete);
        // Exact CL merges (0,1) at 1, then {0,1}+{3} at CL distance
        // max(3,2) = 3 (cheaper than pair (3,7) at 4), then +{7} at 7.
        assert_eq!(ds, vec![1.0, 3.0, 7.0]);
    }

    #[test]
    fn exact_single_linkage_minimises_mean_merge_distance() {
        // Against a deliberately bad merge order on the same metric.
        use nco_core::hier::Merge;
        let m = line();
        let exact = hier_exact(&m, Linkage::Single);
        let bad = Dendrogram {
            n: 4,
            merges: vec![
                Merge {
                    a: 0,
                    b: 3,
                    merged: 4,
                    rep: (0, 3),
                },
                Merge {
                    a: 1,
                    b: 2,
                    merged: 5,
                    rep: (1, 2),
                },
                Merge {
                    a: 4,
                    b: 5,
                    merged: 6,
                    rep: (0, 1),
                },
            ],
        };
        let e = mean_merge_distance(&exact, &m, Linkage::Single);
        let b = mean_merge_distance(&bad, &m, Linkage::Single);
        assert!(e < b, "exact {e} vs bad {b}");
    }
}
