//! # nco-data — synthetic analogues of the paper's evaluation datasets
//!
//! The VLDB'21 evaluation (Section 6) runs on five real datasets: `cities`
//! (36K US cities), `caltech` (Caltech-256 images, 20 categories), `amazon`
//! (7K products with a catalog hierarchy), `monuments` (100 photos of 10
//! landmarks) and `dblp` (1.8M paper titles with word2vec embeddings). None
//! of those can be redistributed here, and the crowd answers that define
//! their oracles are gone — so each is replaced by a **seeded generator
//! that preserves the property the paper's analysis leans on**:
//!
//! * [`cities`] — a *skewed* 2-D distance distribution with a near-unique
//!   farthest point (why `Samp` fails and `Tour2` does well there);
//! * [`caltech`] — a balanced 20-leaf category tree whose inter/intra
//!   distance ratio clears the crowd-accuracy cliff of Fig. 4(a)
//!   (adversarial noise model fits);
//! * [`amazon`] — an unbalanced catalog tree with heavy jitter and many
//!   near-ties at all ranges (probabilistic noise model fits, Fig. 4(b));
//! * [`monuments`] — 10 tight, well-separated clusters of 10 points;
//! * [`dblp`] — a high-dimensional Gaussian-mixture embedding cloud used for
//!   scaling experiments (Fig. 6(b,d), Table 2), size-configurable.
//!
//! Every generator is deterministic in `(n, seed)` and returns a
//! [`Dataset`]: the hidden metric, ground-truth cluster labels at one or two
//! granularities, and the minimum optimal-cluster size `m` that Algorithm 7
//! takes as a parameter.

pub mod generators;

pub use generators::{amazon, caltech, cities, dblp, monuments};

use nco_metric::{EuclideanMetric, MatrixMetric, Metric, TreeMetric};

/// A concrete metric that can back a dataset (keeps [`Dataset`] clonable
/// without trait objects).
#[derive(Debug, Clone)]
pub enum AnyMetric {
    /// Dense Euclidean points.
    Euclidean(EuclideanMetric),
    /// Category-hierarchy (jittered ultrametric) distances.
    Tree(TreeMetric),
    /// Explicit distance matrix.
    Matrix(MatrixMetric),
}

impl Metric for AnyMetric {
    fn len(&self) -> usize {
        match self {
            Self::Euclidean(m) => m.len(),
            Self::Tree(m) => m.len(),
            Self::Matrix(m) => m.len(),
        }
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        match self {
            Self::Euclidean(m) => m.dist(i, j),
            Self::Tree(m) => m.dist(i, j),
            Self::Matrix(m) => m.dist(i, j),
        }
    }
}

/// A generated dataset: hidden metric plus ground truth for evaluation.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Short dataset name (`"cities"`, ...), used in experiment tables.
    pub name: &'static str,
    /// The hidden metric space. Algorithms access it only through oracles.
    pub metric: AnyMetric,
    /// Fine-grained ground-truth cluster labels (one per record), when the
    /// source defines them.
    pub labels: Option<Vec<usize>>,
    /// Coarser second granularity (e.g. top-level catalog categories),
    /// when the hierarchy defines one.
    pub coarse_labels: Option<Vec<usize>>,
    /// Size of the smallest ground-truth cluster — Algorithm 7's `m`.
    pub min_cluster_size: usize,
}

impl Dataset {
    /// Number of records.
    pub fn n(&self) -> usize {
        self.metric.len()
    }

    /// Number of distinct fine-grained clusters (0 when unlabeled).
    pub fn k_true(&self) -> usize {
        self.labels.as_ref().map(|l| distinct(l)).unwrap_or(0)
    }

    /// Number of distinct coarse clusters (0 when absent).
    pub fn k_coarse(&self) -> usize {
        self.coarse_labels
            .as_ref()
            .map(|l| distinct(l))
            .unwrap_or(0)
    }
}

fn distinct(labels: &[usize]) -> usize {
    let mut seen: Vec<usize> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_accessors() {
        let d = monuments(100, 7);
        assert_eq!(d.n(), 100);
        assert_eq!(d.k_true(), 10);
        assert_eq!(d.min_cluster_size, 10);
        assert_eq!(d.name, "monuments");
        assert_eq!(d.k_coarse(), 0);
    }
}
