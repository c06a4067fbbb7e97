//! # nco-bench — shared harness for the table/figure benches
//!
//! Every target under `benches/` regenerates one table or figure of the
//! paper (the target's file name says which) and prints the same rows/series
//! the paper reports. Absolute numbers differ (our substrate is a
//! simulator at a reduced scale); the *shape* — who wins, by roughly what
//! factor, where crossovers fall — is the reproduction target, and
//! EXPERIMENTS.md records paper-vs-measured for each.
//!
//! Two environment knobs keep the full suite laptop-sized:
//!
//! * `NCO_SCALE` (float, default 1.0) multiplies every dataset size;
//! * `NCO_REPS` (integer) overrides the repetition counts.

use nco_data::Dataset;
use nco_metric::stats::Buckets;
use nco_metric::Metric;
use nco_oracle::crowd::{AccuracyProfile, CrowdQuadOracle};
use nco_oracle::QuadrupletOracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dataset-size multiplier from `NCO_SCALE`.
pub fn scale() -> f64 {
    std::env::var("NCO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a default size by [`scale`], keeping a sane floor.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(100)
}

/// Repetition count: `NCO_REPS` override or the given default.
pub fn reps(default: usize) -> usize {
    std::env::var("NCO_REPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
        .max(1)
}

/// Standard bench instances of the five dataset analogues (seeds fixed so
/// every bench target sees the same data).
pub fn bench_cities(n: usize) -> Dataset {
    nco_data::cities(n, 0xC1)
}
/// `caltech` bench instance.
pub fn bench_caltech(n: usize) -> Dataset {
    nco_data::caltech(n, 0xCA)
}
/// `amazon` bench instance.
pub fn bench_amazon(n: usize) -> Dataset {
    nco_data::amazon(n, 0xA2)
}
/// `monuments` bench instance.
pub fn bench_monuments(n: usize) -> Dataset {
    nco_data::monuments(n, 0x40)
}
/// `dblp` bench instance.
pub fn bench_dblp(n: usize) -> Dataset {
    nco_data::dblp(n, 0xDB)
}

/// The crowd accuracy profile the user study associates with a dataset
/// (Section 6.2.1 / Fig. 4).
pub fn crowd_profile(name: &str) -> AccuracyProfile {
    match name {
        "caltech" => AccuracyProfile::caltech_like(),
        "cities" => AccuracyProfile::cities_like(),
        "monuments" => AccuracyProfile::monuments_like(),
        "amazon" => AccuracyProfile::amazon_like(),
        other => panic!("no crowd profile for dataset {other}"),
    }
}

/// A fresh 3-worker crowd oracle over a dataset, per the user-study setup.
pub fn crowd_oracle(d: &Dataset, seed: u64) -> CrowdQuadOracle<&nco_data::AnyMetric> {
    CrowdQuadOracle::new(&d.metric, crowd_profile(d.name), 3, seed)
}

/// Crowd accuracy over distance-bucket pairs — the Figure 4 measurement.
///
/// Returns `matrix[i][j] = Some(accuracy)` for bucket pairs that received
/// at least `queries_per_cell / 2` queries.
pub fn accuracy_matrix<M: Metric>(
    metric: M,
    profile: AccuracyProfile,
    buckets: usize,
    queries_per_cell: usize,
    seed: u64,
) -> Vec<Vec<Option<f64>>> {
    let n = metric.len();
    // Bucket over the *observed* distance range, not [0, diameter]:
    // hierarchy metrics only occupy the top of the range and would leave
    // most of the heatmap empty otherwise.
    let mut lo = f64::INFINITY;
    let mut hi = 0.0f64;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = metric.dist(i, j);
            lo = lo.min(d);
            hi = hi.max(d);
        }
    }
    let b = Buckets::equal_width((hi - lo).max(1e-9), buckets);
    let mut crowd = CrowdQuadOracle::new(&metric, profile, 3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf19);

    let mut hits = vec![vec![0usize; buckets]; buckets];
    let mut total = vec![vec![0usize; buckets]; buckets];
    for _ in 0..queries_per_cell * buckets * buckets * 8 {
        let (a, b1, c, d) = (
            rng.random_range(0..n),
            rng.random_range(0..n),
            rng.random_range(0..n),
            rng.random_range(0..n),
        );
        if a == b1 || c == d || (a.min(b1), a.max(b1)) == (c.min(d), c.max(d)) {
            continue;
        }
        let d1 = metric.dist(a, b1);
        let d2 = metric.dist(c, d);
        let (i, j) = (b.index_of(d1 - lo), b.index_of(d2 - lo));
        if total[i][j] >= queries_per_cell {
            continue;
        }
        total[i][j] += 1;
        if crowd.le(a, b1, c, d) == (d1 <= d2) {
            hits[i][j] += 1;
        }
    }
    (0..buckets)
        .map(|i| {
            (0..buckets)
                .map(|j| {
                    (total[i][j] >= queries_per_cell / 2)
                        .then(|| hits[i][j] as f64 / total[i][j] as f64)
                })
                .collect()
        })
        .collect()
}

/// Renders an accuracy matrix as the textual heatmap printed by the Fig. 4
/// bench ("--" marks bucket pairs with no mass).
pub fn render_matrix(m: &[Vec<Option<f64>>]) -> String {
    let mut out = String::new();
    for row in m {
        let cells: Vec<String> = row
            .iter()
            .map(|c| {
                c.map(|a| format!("{a:.2}"))
                    .unwrap_or_else(|| "  --".into())
            })
            .collect();
        out.push_str(&cells.join(" "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knobs_have_sane_defaults() {
        assert!(scale() > 0.0);
        assert!(scaled(2000) >= 100);
        assert_eq!(reps(7).max(1), reps(7));
    }

    #[test]
    fn profiles_cover_the_four_study_datasets() {
        for name in ["cities", "caltech", "monuments", "amazon"] {
            let _ = crowd_profile(name);
        }
    }

    #[test]
    #[should_panic(expected = "no crowd profile")]
    fn unknown_dataset_panics() {
        let _ = crowd_profile("dblp");
    }

    #[test]
    fn accuracy_matrix_is_well_formed() {
        let d = bench_monuments(100);
        let m = accuracy_matrix(&d.metric, crowd_profile("monuments"), 4, 30, 3);
        assert_eq!(m.len(), 4);
        for row in &m {
            assert_eq!(row.len(), 4);
            for cell in row.iter().flatten() {
                assert!((0.0..=1.0).contains(cell));
            }
        }
        let rendered = render_matrix(&m);
        assert_eq!(rendered.lines().count(), 4);
    }
}
