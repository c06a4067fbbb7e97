//! Seeded scenario builders: hidden ground truth plus one-line oracle
//! factories for every noise model the paper studies.

use nco_data::Dataset;
use nco_metric::{EuclideanMetric, Metric};
use nco_oracle::adversarial::{
    AdversarialQuadOracle, AdversarialValueOracle, InvertAdversary, PersistentRandomAdversary,
};
use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle};
use nco_oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use nco_oracle::{TrueQuadOracle, TrueValueOracle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A hidden-value instance (the substrate of Problems 2.1/3.x): `n`
/// records with scalar values the algorithms may only compare through an
/// oracle.
#[derive(Debug, Clone)]
pub struct ValueScenario {
    /// The hidden values, indexed by record id.
    pub values: Vec<f64>,
    /// All record ids, `0..n` — the usual `items` argument.
    pub items: Vec<usize>,
}

impl ValueScenario {
    /// Builds a scenario from explicit values.
    pub fn from_values(values: Vec<f64>) -> Self {
        let items = (0..values.len()).collect();
        Self { values, items }
    }

    /// Distinct values `1..=n` assigned to record ids in a seeded random
    /// order (so record id never correlates with rank).
    pub fn shuffled_linear(n: usize, seed: u64) -> Self {
        let mut values: Vec<f64> = (1..=n).map(|i| i as f64).collect();
        values.shuffle(&mut StdRng::seed_from_u64(seed));
        Self::from_values(values)
    }

    /// Geometric values `base^0 .. base^(n-1)` in seeded random record
    /// order — every adjacent pair sits inside a `(1 + mu)` band when
    /// `base <= 1 + mu`, the adversary's favourite terrain.
    pub fn shuffled_geometric(n: usize, base: f64, seed: u64) -> Self {
        assert!(base > 1.0, "geometric base must exceed 1");
        let mut values: Vec<f64> = (0..n).map(|i| base.powi(i as i32)).collect();
        values.shuffle(&mut StdRng::seed_from_u64(seed));
        Self::from_values(values)
    }

    /// Number of records.
    pub fn n(&self) -> usize {
        self.values.len()
    }

    /// The true maximum value.
    pub fn true_max(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Record id of the true maximum.
    pub fn argmax(&self) -> usize {
        (0..self.n())
            .max_by(|&a, &b| self.values[a].total_cmp(&self.values[b]))
            .unwrap()
    }

    /// Rank of `chosen` in the descending value order (1 = true maximum).
    pub fn max_rank(&self, chosen: usize) -> usize {
        1 + self
            .values
            .iter()
            .filter(|&&v| v > self.values[chosen])
            .count()
    }

    /// Noiseless oracle (`mu = 0` / `p = 0`).
    pub fn exact_oracle(&self) -> TrueValueOracle {
        TrueValueOracle::new(self.values.clone())
    }

    /// Adversarial oracle with the worst-case in-band strategy
    /// (`InvertAdversary` flips every in-band answer).
    pub fn adversarial_oracle(&self, mu: f64) -> AdversarialValueOracle<InvertAdversary> {
        AdversarialValueOracle::new(self.values.clone(), mu, InvertAdversary)
    }

    /// Adversarial oracle with a seeded persistent random in-band strategy.
    pub fn adversarial_random_oracle(
        &self,
        mu: f64,
        seed: u64,
    ) -> AdversarialValueOracle<PersistentRandomAdversary> {
        AdversarialValueOracle::new(
            self.values.clone(),
            mu,
            PersistentRandomAdversary::new(seed),
        )
    }

    /// Probabilistic persistent oracle: every distinct query is wrong with
    /// probability `p`, identically on repetition.
    pub fn probabilistic_oracle(&self, p: f64, seed: u64) -> ProbValueOracle {
        ProbValueOracle::new(self.values.clone(), p, seed)
    }
}

/// A hidden-metric instance (the substrate of Problems 2.3/4.x/5.x):
/// points the algorithms may only relate through quadruplet comparisons.
#[derive(Debug, Clone)]
pub struct MetricScenario {
    /// The hidden metric.
    pub metric: EuclideanMetric,
    /// Ground-truth cluster labels, one per point.
    pub labels: Vec<usize>,
    /// Size of the smallest ground-truth cluster (Algorithm 7's `m`).
    pub min_cluster_size: usize,
}

impl MetricScenario {
    /// `k` well-separated blobs of `per` points each on a circle of radius
    /// `spread`, intra-blob scatter `+-2` — separation/scatter ratio is
    /// `O(spread)`, so guarantees are easy to state exactly.
    pub fn separated_blobs(k: usize, per: usize, spread: f64, seed: u64) -> Self {
        assert!(k >= 1 && per >= 1);
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pts = Vec::with_capacity(k * per);
        let mut labels = Vec::with_capacity(k * per);
        for c in 0..k {
            let angle = c as f64 / k as f64 * std::f64::consts::TAU;
            let (cx, cy) = (spread * angle.cos(), spread * angle.sin());
            for _ in 0..per {
                let dx = rng.random_range(-2.0..2.0);
                let dy = rng.random_range(-2.0..2.0);
                pts.push(vec![cx + dx, cy + dy]);
                labels.push(c);
            }
        }
        Self {
            metric: EuclideanMetric::from_points(&pts),
            labels,
            min_cluster_size: per,
        }
    }

    /// Number of points.
    pub fn n(&self) -> usize {
        self.metric.len()
    }

    /// Number of ground-truth clusters.
    pub fn k(&self) -> usize {
        let mut l = self.labels.clone();
        l.sort_unstable();
        l.dedup();
        l.len()
    }

    /// Noiseless quadruplet oracle.
    pub fn exact_oracle(&self) -> TrueQuadOracle<EuclideanMetric> {
        TrueQuadOracle::new(self.metric.clone())
    }

    /// Adversarial quadruplet oracle (worst-case in-band inversion).
    pub fn adversarial_oracle(
        &self,
        mu: f64,
    ) -> AdversarialQuadOracle<EuclideanMetric, InvertAdversary> {
        AdversarialQuadOracle::new(self.metric.clone(), mu, InvertAdversary)
    }

    /// Probabilistic persistent quadruplet oracle.
    pub fn probabilistic_oracle(&self, p: f64, seed: u64) -> ProbQuadOracle<EuclideanMetric> {
        ProbQuadOracle::new(self.metric.clone(), p, seed)
    }

    /// Crowd oracle (3-worker majority, the paper's AMT setup) with the
    /// given accuracy profile.
    pub fn crowd_oracle(
        &self,
        profile: AccuracyProfile,
        seed: u64,
    ) -> CrowdQuadOracle<EuclideanMetric> {
        CrowdQuadOracle::new(self.metric.clone(), profile, 3, seed)
    }

    /// True distance from `q` to its farthest point.
    pub fn true_farthest_dist(&self, q: usize) -> f64 {
        (0..self.n())
            .filter(|&v| v != q)
            .map(|v| self.metric.dist(q, v))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// True distance from `q` to its nearest other point.
    pub fn true_nearest_dist(&self, q: usize) -> f64 {
        (0..self.n())
            .filter(|&v| v != q)
            .map(|v| self.metric.dist(q, v))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Seeded instances of the five paper-dataset analogues, for tests that
/// want realistic (skewed / hierarchical) distance structure. Thin wrapper
/// over `nco_data` with the testkit's fixed-seed convention.
pub fn dataset(name: &str, n: usize, seed: u64) -> Dataset {
    match name {
        "cities" => nco_data::cities(n, seed),
        "caltech" => nco_data::caltech(n, seed),
        "amazon" => nco_data::amazon(n, seed),
        "monuments" => nco_data::monuments(n, seed),
        "dblp" => nco_data::dblp(n, seed),
        other => panic!("unknown dataset analogue {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_linear_covers_ranks() {
        let s = ValueScenario::shuffled_linear(50, 3);
        assert_eq!(s.n(), 50);
        assert_eq!(s.true_max(), 50.0);
        assert_eq!(s.max_rank(s.argmax()), 1);
        let mut sorted = s.values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(sorted, (1..=50).map(|i| i as f64).collect::<Vec<_>>());
        // Seeded: identical rebuild.
        assert_eq!(s.values, ValueScenario::shuffled_linear(50, 3).values);
        assert_ne!(s.values, ValueScenario::shuffled_linear(50, 4).values);
    }

    #[test]
    fn geometric_is_geometric() {
        let s = ValueScenario::shuffled_geometric(10, 1.5, 1);
        let mut sorted = s.values.clone();
        sorted.sort_by(f64::total_cmp);
        for w in sorted.windows(2) {
            assert!((w[1] / w[0] - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn blobs_are_separated_and_labeled() {
        let s = MetricScenario::separated_blobs(4, 25, 60.0, 9);
        assert_eq!(s.n(), 100);
        assert_eq!(s.k(), 4);
        assert_eq!(s.min_cluster_size, 25);
        // Intra-blob diameter is < 8; inter-blob gap is > 20 at spread 60.
        for i in 0..s.n() {
            for j in (i + 1)..s.n() {
                let d = s.metric.dist(i, j);
                if s.labels[i] == s.labels[j] {
                    assert!(d < 8.0, "intra {d}");
                } else {
                    assert!(d > 20.0, "inter {d}");
                }
            }
        }
    }

    #[test]
    fn dataset_analogues_resolve() {
        for name in ["cities", "caltech", "amazon", "monuments", "dblp"] {
            let d = dataset(name, 120, 5);
            assert_eq!(d.name, name);
            assert!(d.n() >= 100, "{name} too small: {}", d.n());
        }
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_dataset_panics() {
        let _ = dataset("imagenet", 100, 1);
    }
}
