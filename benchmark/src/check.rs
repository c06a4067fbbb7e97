//! Answer checks against the generator's ground truth.
//!
//! *Validity* is structural: an item in range, a permutation, a `k` /
//! `n - k` split, `k` distinct self-assigned centers, `n - 1` merges of
//! live clusters. An invalid answer fails the run. *Guarantee* checks
//! compare a valid answer with the bound its theorem states:
//!
//! * adversarial noise `mu` — the multiplicative `(1 + mu)^3` band of
//!   Theorems 3.6 / 3.10 (maximum, top-k, neighbours) and Theorem 5.2
//!   (hierarchy, on the mean true merge distance against the exact
//!   dendrogram);
//! * probabilistic and crowd noise — rank `O(log^2(n / delta))`
//!   (Theorem 3.7), taken as `ceil(log2(n / delta))^2` at the sessions'
//!   default `delta = 0.1`;
//! * sort, select and partition — under adversarial noise no item
//!   beats one ranked above it (or the k-th value) by more than the
//!   `(1 + mu)^3` band; under statistical noise dislocation within
//!   `4 sqrt(n ln n)` (the Gu–Xu-style band the repository's order tests
//!   pin);
//! * k-center — objective within 8x of the Gonzalez reference
//!   (Theorems 4.2 / 4.4 constant factor, as in the repository's tests).

use noisy_oracle::core::hier::{Dendrogram, Linkage};
use noisy_oracle::core::kcenter::{gonzalez, Clustering};
use noisy_oracle::eval::hier_eval::mean_merge_distance;
use noisy_oracle::eval::rank::{max_rank, max_ranks};
use noisy_oracle::metric::stats::{farthest_rank, kcenter_objective, nearest_rank};
use noisy_oracle::metric::Metric;
use noisy_oracle::{Answer, Noise, Task};

/// The sessions' default confidence parameter.
const DELTA: f64 = 0.1;

/// Constant factor of the k-center guarantee against Gonzalez.
const KCENTER_FACTOR: f64 = 8.0;

/// Factor on the exact dendrogram's mean merge distance allowed under
/// statistical noise, where Theorem 5.2 has no multiplicative band.
pub const HIER_STAT_FACTOR: f64 = 1.5;

/// Outcome of checking one answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Valid and within the theorem's bound.
    Met,
    /// Valid, but outside the bound.
    Missed(String),
    /// Structurally invalid: the run fails.
    Invalid(String),
}

/// Rank bound for statistical noise: `ceil(log2(n / delta))^2`.
pub fn stat_rank_bound(n: usize) -> usize {
    let l = (n as f64 / DELTA).log2().ceil() as usize;
    l * l
}

/// Dislocation band for sort / select / partition: `4 sqrt(n ln n)`.
pub fn dislocation_band(n: usize) -> usize {
    let n = n as f64;
    (4.0 * (n * n.ln()).sqrt()) as usize
}

fn band(noise: Noise) -> Option<f64> {
    match noise {
        Noise::Adversarial { mu } => Some((1.0 + mu).powi(3)),
        Noise::Exact => Some(1.0),
        _ => None,
    }
}

fn verdict(ok: bool, why: impl FnOnce() -> String) -> Verdict {
    if ok {
        Verdict::Met
    } else {
        Verdict::Missed(why())
    }
}

fn distinct_in_range(items: &[usize], n: usize) -> bool {
    let mut seen = vec![false; n];
    items
        .iter()
        .all(|&i| i < n && !std::mem::replace(&mut seen[i], true))
}

/// Ground truth of a value corpus: the values and each item's 1-based
/// rank in descending order (values are distinct).
pub struct ValueTruth {
    pub values: Vec<f64>,
    rank: Vec<usize>,
}

impl ValueTruth {
    pub fn new(values: Vec<f64>) -> Self {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&a, &b| values[b].total_cmp(&values[a]));
        let mut rank = vec![0; values.len()];
        for (pos, &i) in order.iter().enumerate() {
            rank[i] = pos + 1;
        }
        Self { values, rank }
    }

    fn n(&self) -> usize {
        self.values.len()
    }

    /// The item of rank `r` (1-based).
    fn index_of(&self, r: usize) -> usize {
        self.rank.iter().position(|&x| x == r).expect("rank exists")
    }

    /// The `r`-th largest value (1-based).
    fn nth_largest(&self, r: usize) -> f64 {
        self.values[self.index_of(r)]
    }

    pub fn check(&self, task: Task, noise: Noise, answer: &Answer) -> Verdict {
        let n = self.n();
        let vals = &self.values;
        let disloc = dislocation_band(n);
        match (task, answer) {
            (Task::Max, Answer::Item(i)) if *i < n => match band(noise) {
                Some(b) => {
                    let vmax = self.nth_largest(1);
                    verdict(vals[*i] * b >= vmax, || {
                        format!("max {} x {b:.3} < {vmax}", vals[*i])
                    })
                }
                None => {
                    let r = max_rank(vals, *i);
                    verdict(r <= stat_rank_bound(n), || format!("max rank {r}"))
                }
            },
            (Task::TopK { k }, Answer::Items(items))
                if items.len() == k && distinct_in_range(items, n) =>
            {
                let ranks = max_ranks(vals, items);
                let ok = ranks.iter().enumerate().all(|(pos, &r)| match band(noise) {
                    Some(b) => vals[items[pos]] * b >= self.nth_largest(pos + 1),
                    None => r <= pos + stat_rank_bound(n),
                });
                verdict(ok, || format!("top-k ranks {ranks:?}"))
            }
            (Task::Sort, Answer::Ranking(order))
                if order.len() == n && distinct_in_range(order, n) =>
            {
                match band(noise) {
                    Some(b) => {
                        // No later item may beat an earlier one by more
                        // than the band.
                        let mut later_max = 0.0f64;
                        let mut worst = 1.0f64;
                        for &i in order.iter().rev() {
                            worst = worst.max(later_max / vals[i]);
                            later_max = later_max.max(vals[i]);
                        }
                        verdict(worst <= b, || {
                            format!("sort inversion ratio {worst:.3} > {b:.3}")
                        })
                    }
                    None => {
                        let worst = order
                            .iter()
                            .enumerate()
                            .map(|(pos, &i)| (self.rank[i] - 1).abs_diff(pos))
                            .max()
                            .unwrap_or(0);
                        verdict(worst <= disloc, || {
                            format!("sort dislocation {worst} > {disloc}")
                        })
                    }
                }
            }
            (Task::Select { k }, Answer::Item(i)) if *i < n => match band(noise) {
                Some(b) => {
                    let (v, vk) = (vals[*i], self.nth_largest(k));
                    verdict(v * b >= vk && v <= vk * b, || format!("select {v} vs {vk}"))
                }
                None => {
                    let r = max_rank(vals, *i);
                    verdict(r.abs_diff(k) <= disloc, || {
                        format!("select rank {r} vs {k}")
                    })
                }
            },
            (Task::Partition { k }, Answer::Partition { top, rest }) => {
                let mut all = top.clone();
                all.extend_from_slice(rest);
                if top.len() != k || all.len() != n || !distinct_in_range(&all, n) {
                    return Verdict::Invalid(format!(
                        "partition sizes {}/{} not a k/n-k split of {n}",
                        top.len(),
                        rest.len()
                    ));
                }
                let worst_top = top.iter().map(|&i| self.rank[i]).max().unwrap_or(0);
                let best_rest = rest.iter().map(|&i| self.rank[i]).min().unwrap_or(n + 1);
                let ok = match band(noise) {
                    // Every top item within the band of every rest item.
                    Some(b) => vals[self.index_of(worst_top)] * b >= vals[self.index_of(best_rest)],
                    None => worst_top <= k + disloc && best_rest + disloc > k,
                };
                verdict(ok, || {
                    format!("partition worst top rank {worst_top}, best rest rank {best_rest}")
                })
            }
            _ => Verdict::Invalid(format!("{task:?}: malformed answer {}", brief(answer))),
        }
    }
}

/// Ground truth of a metric corpus, with lazily built references.
pub struct MetricTruth<M> {
    pub metric: M,
    gonzalez: Vec<(usize, f64)>,
    exact_hier: Vec<(Linkage, f64)>,
}

impl<M: Metric> MetricTruth<M> {
    pub fn new(metric: M) -> Self {
        Self {
            metric,
            gonzalez: Vec::new(),
            exact_hier: Vec::new(),
        }
    }

    /// Gonzalez reference objective for `k` centers (memoised).
    fn gonzalez_objective(&mut self, k: usize) -> f64 {
        if let Some(&(_, obj)) = self.gonzalez.iter().find(|(kk, _)| *kk == k) {
            return obj;
        }
        let g = gonzalez(&self.metric, k, Some(0));
        let obj = kcenter_objective(&self.metric, &g.centers, &g.assignment);
        self.gonzalez.push((k, obj));
        obj
    }

    /// Registers the exact dendrogram's mean merge distance for `linkage`.
    pub fn set_exact_hierarchy(&mut self, linkage: Linkage, exact: &Dendrogram) {
        let mean = mean_merge_distance(exact, &self.metric, linkage);
        self.exact_hier.push((linkage, mean));
    }

    pub fn check(&mut self, task: Task, noise: Noise, answer: &Answer) -> Verdict {
        let n = self.metric.len();
        match (task, answer) {
            (Task::Nearest { q }, Answer::Item(i)) if *i < n && *i != q => {
                let m = &self.metric;
                match band(noise) {
                    Some(b) => {
                        let best = (0..n)
                            .filter(|&v| v != q)
                            .map(|v| m.dist(q, v))
                            .fold(f64::INFINITY, f64::min);
                        let d = m.dist(q, *i);
                        verdict(d <= best * b + 1e-12, || format!("nearest {d} vs {best}"))
                    }
                    None => {
                        let r = nearest_rank(m, q, *i);
                        verdict(r <= stat_rank_bound(n), || format!("nearest rank {r}"))
                    }
                }
            }
            (Task::Farthest { q }, Answer::Item(i)) if *i < n && *i != q => {
                let m = &self.metric;
                match band(noise) {
                    Some(b) => {
                        let best = (0..n).map(|v| m.dist(q, v)).fold(0.0, f64::max);
                        let d = m.dist(q, *i);
                        verdict(d * b + 1e-12 >= best, || format!("farthest {d} vs {best}"))
                    }
                    None => {
                        let r = farthest_rank(m, q, *i);
                        verdict(r <= stat_rank_bound(n), || format!("farthest rank {r}"))
                    }
                }
            }
            (Task::KCenter { k }, Answer::Clustering(c)) if valid_clustering(c, k, n) => {
                let obj = kcenter_objective(&self.metric, &c.centers, &c.assignment);
                let reference = self.gonzalez_objective(k);
                verdict(obj <= KCENTER_FACTOR * reference, || {
                    format!("k-center objective {obj} vs Gonzalez {reference}")
                })
            }
            (Task::Hierarchy { linkage }, Answer::Dendrogram(d)) if valid_dendrogram(d, n) => {
                let Some(&(_, exact)) = self.exact_hier.iter().find(|(l, _)| *l == linkage) else {
                    return Verdict::Invalid(format!("no exact {linkage:?} reference"));
                };
                let factor = band(noise).unwrap_or(HIER_STAT_FACTOR);
                let got = mean_merge_distance(d, &self.metric, linkage);
                verdict(got <= exact * factor + 1e-12, || {
                    format!("{linkage:?} mean merge {got} vs exact {exact} x {factor:.3}")
                })
            }
            _ => Verdict::Invalid(format!("{task:?}: malformed answer {}", brief(answer))),
        }
    }
}

/// `k` distinct centers, each assigned to itself, every record assigned.
pub fn valid_clustering(c: &Clustering, k: usize, n: usize) -> bool {
    c.centers.len() == k
        && c.assignment.len() == n
        && distinct_in_range(&c.centers, n)
        && c.assignment.iter().all(|&a| a < k)
        && c.centers
            .iter()
            .enumerate()
            .all(|(pos, &v)| c.assignment[v] == pos)
}

/// `n - 1` merges with sequential ids, each joining two live clusters.
pub fn valid_dendrogram(d: &Dendrogram, n: usize) -> bool {
    if d.n != n || d.merges.len() + 1 != n {
        return false;
    }
    let mut used = vec![false; 2 * n];
    d.merges.iter().enumerate().all(|(s, m)| {
        m.merged == n + s
            && m.a != m.b
            && [m.a, m.b]
                .iter()
                .all(|&c| c < m.merged && !std::mem::replace(&mut used[c], true))
    })
}

fn brief(answer: &Answer) -> String {
    let s = format!("{answer:?}");
    s.chars().take(80).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_oracle::core::hier::Merge;

    #[test]
    fn value_checks_separate_invalid_from_missed() {
        let truth = ValueTruth::new((1..=100).map(f64::from).collect());
        let adv = Noise::Adversarial { mu: 0.2 };
        assert_eq!(truth.check(Task::Max, adv, &Answer::Item(99)), Verdict::Met);
        assert!(matches!(
            truth.check(Task::Max, adv, &Answer::Item(10)),
            Verdict::Missed(_)
        ));
        assert!(matches!(
            truth.check(Task::Max, adv, &Answer::Item(100)),
            Verdict::Invalid(_)
        ));
        let split = Answer::Partition {
            top: vec![99, 98],
            rest: (0..98).collect(),
        };
        assert_eq!(
            truth.check(Task::Partition { k: 2 }, adv, &split),
            Verdict::Met
        );
        let short = Answer::Partition {
            top: vec![99],
            rest: (0..98).collect(),
        };
        assert!(matches!(
            truth.check(Task::Partition { k: 2 }, adv, &short),
            Verdict::Invalid(_)
        ));
        let dup = Answer::Ranking(vec![0; 100]);
        assert!(matches!(
            truth.check(Task::Sort, adv, &dup),
            Verdict::Invalid(_)
        ));
    }

    #[test]
    fn structural_checks() {
        let c = Clustering {
            centers: vec![2, 0],
            assignment: vec![1, 0, 0],
        };
        assert!(valid_clustering(&c, 2, 3));
        assert!(!valid_clustering(&c, 3, 3));
        let m = |a, b, merged| Merge {
            a,
            b,
            merged,
            rep: (0, 1),
        };
        let d = Dendrogram {
            n: 3,
            merges: vec![m(0, 1, 3), m(3, 2, 4)],
        };
        assert!(valid_dendrogram(&d, 3));
        let twice = Dendrogram {
            n: 3,
            merges: vec![m(0, 1, 3), m(0, 2, 4)],
        };
        assert!(!valid_dendrogram(&twice, 3));
    }

    #[test]
    fn bounds() {
        assert_eq!(stat_rank_bound(4096), 256);
        assert_eq!(dislocation_band(4096), 738);
    }
}
