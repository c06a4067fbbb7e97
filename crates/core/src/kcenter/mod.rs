//! k-center clustering under noisy comparison oracles — Section 4.
//!
//! All variants adapt Gonzalez's greedy: pick an arbitrary first center,
//! then `k - 1` times find the (approximately) farthest point from the
//! current centers and reassign everything. What changes per noise model is
//! how "farthest" and "assign" are made robust:
//!
//! * [`kcenter_adv`] (Algorithm 6) — Approx-Farthest runs Max-Adv over
//!   (point, assigned-center) distance items; Assign keeps MCount scores
//!   (each point vs. every pair of centers) and places each point with its
//!   highest scorer. `(2 + O(mu))`-approximation, Theorem 4.2.
//! * [`kcenter_prob`] (Algorithm 7) — runs the greedy on a Bernoulli sample
//!   sized so every optimal cluster contributes `Theta(log(n/delta))`
//!   points, maintains a *core* of near-center records per cluster
//!   (Identify-Core, Algorithm 9), compares points through their cores
//!   (ClusterComp, Algorithm 10), and assigns with ACount votes
//!   (Algorithm 8 / Assign-Final). `O(1)`-approximation when the minimum
//!   optimal cluster has `m = Omega(log^3(n/delta)/delta)` points,
//!   Theorem 4.4.
//! * [`gonzalez`] — the exact greedy 2-approximation on true distances;
//!   the paper's `TDist` evaluation reference.
//! * [`baselines`] — `Tour2` and `Samp` k-center plus the `Oq`
//!   same-cluster-query clustering of Table 1.

mod adversarial;
pub mod baselines;
mod gonzalez;
mod probabilistic;

pub use adversarial::{kcenter_adv, kcenter_adv_with_progress, KCenterAdvParams};
pub use gonzalez::gonzalez;
pub use probabilistic::{kcenter_prob, kcenter_prob_with_progress, KCenterProbParams};

/// A k-center clustering: chosen centers and a per-point assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Chosen centers (record indices), in selection order.
    pub centers: Vec<usize>,
    /// `assignment[v]` is an index into [`Clustering::centers`].
    pub assignment: Vec<usize>,
}

impl Clustering {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// The center record a point is assigned to.
    pub fn center_of(&self, v: usize) -> usize {
        self.centers[self.assignment[v]]
    }

    /// Cluster labels (identical to the raw assignment; present for
    /// API symmetry with ground-truth label vectors).
    pub fn labels(&self) -> &[usize] {
        &self.assignment
    }

    /// Members of cluster `c` (index into centers).
    pub fn members(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(v, _)| v)
            .collect()
    }

    /// Internal consistency checks (used by tests and debug assertions):
    /// every center assigned to itself, assignments in range.
    pub fn validate(&self) {
        assert!(!self.centers.is_empty(), "clustering must have centers");
        for (pos, &c) in self.centers.iter().enumerate() {
            assert_eq!(self.assignment[c], pos, "center {c} not assigned to itself");
        }
        assert!(
            self.assignment.iter().all(|&a| a < self.centers.len()),
            "assignment out of range"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_accessors() {
        let c = Clustering {
            centers: vec![2, 0],
            assignment: vec![1, 0, 0, 1],
        };
        c.validate();
        assert_eq!(c.k(), 2);
        assert_eq!(c.n(), 4);
        assert_eq!(c.center_of(3), 0);
        assert_eq!(c.center_of(1), 2);
        assert_eq!(c.members(0), vec![1, 2]);
        assert_eq!(c.members(1), vec![0, 3]);
        assert_eq!(c.labels(), &[1, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not assigned to itself")]
    fn validate_catches_misassigned_center() {
        let c = Clustering {
            centers: vec![0, 1],
            assignment: vec![0, 0],
        };
        c.validate();
    }
}
