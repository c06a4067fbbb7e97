//! Ablations over the design choices where this reproduction departs from
//! the paper or picks a constant the paper leaves open:
//!
//! 1. **PairwiseComp threshold** (0.3 as printed vs. majority 0.5): the
//!    paper's 0.3 makes symmetric decisions degenerate as p -> 0.3; the
//!    majority variant holds for every p < 1/2.
//! 2. **Max-Adv rounds `t`**: quality/queries trade-off behind the
//!    `t = 2 log(2/delta)` choice of Theorem 3.6.
//! 3. **Tournament arity λ**: the approximation/query trade-off of
//!    Lemma 3.3 (`(1+mu)^{2 log_λ n}` vs `O(nλ)` queries).
//! 4. **Algorithm 7's `gamma`** (core size): leak probability of the
//!    ACount committee vote vs. sampling cost.

use nco_bench::{bench_cities, reps, scaled};
use nco_core::comparator::ValueCmp;
use nco_core::kcenter::{kcenter_prob, KCenterProbParams};
use nco_core::maxfind::{max_adv, tournament, AdvParams};
use nco_core::neighbor::PairwiseCmp;
use nco_eval::experiment::{run_reps, RepOutcome};
use nco_eval::{pair_f_score, Table};
use nco_metric::stats::exact_farthest;
use nco_metric::{EuclideanMetric, Metric};
use nco_oracle::adversarial::{AdversarialValueOracle, InvertAdversary};
use nco_oracle::counting::Counting;
use nco_oracle::probabilistic::ProbQuadOracle;
use nco_oracle::TrueQuadOracle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let r = reps(8);
    threshold_ablation(r);
    rounds_ablation(r);
    arity_ablation(r);
    gamma_ablation(reps(4));
}

/// 1. The PairwiseComp threshold cliff at p = 0.3.
fn threshold_ablation(r: usize) {
    let n = scaled(800);
    let d = bench_cities(n);
    let metric = &d.metric;
    let q = 0usize;
    let (_, d_opt) = exact_farthest(metric, q, 0..n).unwrap();
    // A tight core near q (Theorem 3.10's premise).
    let mut core_oracle = TrueQuadOracle::new(metric);
    let mut rng = StdRng::seed_from_u64(1);
    let cands: Vec<usize> = (0..n).filter(|&v| v != q).collect();
    let core =
        nco_core::neighbor::core_set::build_core(&mut core_oracle, q, &cands, 40, 60, &mut rng);

    let mut table = Table::new(
        "Ablation 1 — PairwiseComp threshold vs. p (farthest quality, TDist = 1.0)",
        &["p", "thr=0.3 (paper)", "thr=0.4", "thr=0.5 (majority)"],
    );
    for p in [0.1, 0.2, 0.3, 0.4] {
        let run = |thr: f64, seed0: u64| {
            run_reps(r, seed0, |seed| {
                let mut o = ProbQuadOracle::new(metric, p, seed);
                let mut rng = StdRng::seed_from_u64(seed);
                let items: Vec<usize> = (0..n).filter(|&v| v != q).collect();
                let mut cmp = PairwiseCmp::new(&mut o, &core).with_threshold(thr);
                let got = max_adv(&items, &AdvParams::experimental(), &mut cmp, &mut rng).unwrap();
                RepOutcome {
                    value: metric.dist(q, got) / d_opt,
                    queries: 0,
                }
            })
            .value
            .mean
        };
        table.row(&[
            format!("{p:.1}"),
            format!("{:.3}", run(0.3, 11)),
            format!("{:.3}", run(0.4, 12)),
            format!("{:.3}", run(0.5, 13)),
        ]);
    }
    println!("{table}");
    println!("shape: 0.3 collapses as p -> 0.3; majority holds to p = 0.4.\n");
}

/// 2. Max-Adv rounds t: quality and queries.
fn rounds_ablation(r: usize) {
    let n = scaled(2000);
    let mu = 1.0;
    let values: Vec<f64> = (0..n)
        .map(|i| (1.0 + mu * 0.3f64).powi((i % 40) as i32) * (1.0 + i as f64 * 1e-5))
        .collect();
    let vmax = values.iter().cloned().fold(0.0, f64::max);
    let items: Vec<usize> = (0..n).collect();

    let mut table = Table::new(
        "Ablation 2 — Max-Adv rounds t (mu = 1, worst-case adversary)",
        &["t", "approx ratio", "mean queries", "within (1+mu)^3"],
    );
    for t in [1usize, 2, 4, 8] {
        let params = AdvParams {
            rounds: t,
            partitions: None,
            sample_size: None,
        };
        let mut within = 0usize;
        let stats = run_reps(r, 33, |seed| {
            let mut o = Counting::new(AdversarialValueOracle::new(
                values.clone(),
                mu,
                InvertAdversary,
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = max_adv(&items, &params, &mut ValueCmp::new(&mut o), &mut rng).unwrap();
            let ratio = vmax / values[got];
            if ratio <= (1.0 + mu).powi(3) + 1e-9 {
                within += 1;
            }
            RepOutcome {
                value: ratio,
                queries: o.queries(),
            }
        });
        table.row(&[
            t.to_string(),
            format!("{:.3}", stats.value.mean),
            format!("{:.0}", stats.mean_queries),
            format!("{within}/{r}"),
        ]);
    }
    println!("{table}");
    println!("shape: quality saturates fast; queries grow ~quadratically in t (sample^2).\n");
}

/// 3. Tournament arity λ.
fn arity_ablation(r: usize) {
    let n = scaled(1024);
    let mu = 0.5;
    let values: Vec<f64> = (0..n)
        .map(|i| (1.0 + mu * 0.35f64).powi((i % 48) as i32) * (1.0 + i as f64 * 1e-5))
        .collect();
    let vmax = values.iter().cloned().fold(0.0, f64::max);
    let items: Vec<usize> = (0..n).collect();

    let mut table = Table::new(
        "Ablation 3 — tournament arity λ (mu = 0.5, worst-case adversary)",
        &["λ", "approx ratio", "queries"],
    );
    for lambda in [2usize, 4, 16, 64] {
        let stats = run_reps(r, 55, |seed| {
            let mut o = Counting::new(AdversarialValueOracle::new(
                values.clone(),
                mu,
                InvertAdversary,
            ));
            let mut rng = StdRng::seed_from_u64(seed);
            let got = tournament(&items, lambda, &mut ValueCmp::new(&mut o), &mut rng).unwrap();
            RepOutcome {
                value: vmax / values[got],
                queries: o.queries(),
            }
        });
        table.row(&[
            lambda.to_string(),
            format!("{:.3}", stats.value.mean),
            format!("{:.0}", stats.mean_queries),
        ]);
    }
    println!("{table}");
    println!("shape: Lemma 3.3 — larger λ buys approximation with O(nλ) queries.\n");
}

/// 4. Algorithm 7's gamma (core committee size) vs. clustering quality.
fn gamma_ablation(r: usize) {
    let n = 240usize;
    let mut pts = Vec::new();
    let mut labels = Vec::new();
    for (ci, &(cx, cy)) in [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)]
        .iter()
        .enumerate()
    {
        for p in 0..n / 4 {
            let a = p as f64;
            pts.push(vec![cx + (a * 0.9).sin() * 2.0, cy + (a * 1.7).cos() * 2.0]);
            labels.push(ci);
        }
    }
    let metric = EuclideanMetric::from_points(&pts);
    let p_noise = 0.15;

    let mut table = Table::new(
        format!("Ablation 4 — Algorithm 7 gamma (4 blobs, p = {p_noise})"),
        &["gamma", "core size", "mean F-score"],
    );
    for gamma in [1.0, 2.0, 4.0, 8.0] {
        let params = KCenterProbParams {
            gamma,
            first_center: Some(0),
            ..KCenterProbParams::experimental(4, n / 4)
        };
        // Reach into the same formula the algorithm uses for display.
        let ln_term = (n as f64 / params.delta).ln();
        let core = ((8.0 * (gamma * ln_term).min((n / 4) as f64) / 9.0).ceil()) as usize;
        let stats = run_reps(r, 66, |seed| {
            let mut o = ProbQuadOracle::new(&metric, p_noise, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let c = kcenter_prob(&params, &mut o, &mut rng);
            RepOutcome {
                value: pair_f_score(c.labels(), &labels).f1,
                queries: 0,
            }
        });
        table.row(&[
            format!("{gamma:.0}"),
            core.to_string(),
            format!("{:.3}", stats.value.mean),
        ]);
    }
    println!("{table}");
    println!("shape: bigger committees kill the ACount leak tail (why Thm 4.4 uses gamma = 450).");
}
