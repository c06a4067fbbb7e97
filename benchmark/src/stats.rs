//! Sample summaries: medians, supported percentiles and process memory.

/// Fewest samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples, in
/// integer per-mille arithmetic so that e.g. p99 of 1000 is exactly 990.
fn rank(n: usize, p: f64) -> usize {
    let permille = (p * 10.0).round() as usize;
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// `true` when percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest of the usual tail percentiles that `n` samples support,
/// or `None` when not even the median has ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|&p| supported(n, p))
}

/// Half-width of [`smoothed`]'s averaging window, as a share of the
/// sample count.
const WINDOW: f64 = 0.05;

/// Smoothed percentile of an ascending slice: the mean of the samples
/// whose ranks lie within `WINDOW * n` of percentile `p`'s nearest rank.
/// On a mix of task kinds with equal counts the plain median sits exactly
/// on the boundary between two kinds and jumps between them from run to
/// run; averaging a few ranks around it reads the same boundary steadily.
pub fn smoothed(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let r = rank(n, p);
    let h = (WINDOW * n as f64).ceil() as usize;
    mean(&sorted[r.saturating_sub(h).max(1) - 1..(r + h).min(n)])
}

/// A latency-style summary: median, p90 and the highest supported tail,
/// each [`smoothed`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub tail_p: f64,
    pub tail: f64,
    pub mean: f64,
}

impl Summary {
    /// Summarises `samples`; `None` unless p90 is supported, so every
    /// reported p90 rests on at least ten samples beyond it.
    pub fn of(samples: &[f64]) -> Option<Self> {
        if !supported(samples.len(), 90.0) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len()).expect("p90 is supported");
        Some(Self {
            n: sorted.len(),
            p50: smoothed(&sorted, 50.0),
            p90: smoothed(&sorted, 90.0),
            tail_p,
            tail: smoothed(&sorted, tail_p),
            mean: mean(&sorted),
        })
    }

    /// One detail line: `name: p50=.. p90=.. [p<tail>=..] mean=.. n=..`.
    pub fn line(&self, name: &str, unit: &str) -> String {
        let tail = if self.tail_p > 90.0 {
            format!(" p{}={:.3}{unit}", self.tail_p, self.tail)
        } else {
            String::new()
        };
        format!(
            "{name}: p50={:.3}{unit} p90={:.3}{unit}{tail} mean={:.3}{unit} n={}",
            self.p50, self.p90, self.mean, self.n
        )
    }
}

/// Arithmetic mean (`0.0` for no samples).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of a non-empty slice (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// p99 of `samples` when 1000 of them support it, else the highest
/// supported percentile below it (p50 when none is): `(percentile,
/// value)`.
pub fn late_tail(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let p = tail_percentile(sorted.len()).unwrap_or(50.0).min(99.0);
    let value = if sorted.is_empty() {
        0.0
    } else {
        percentile(&sorted, p)
    };
    (p, value)
}

/// Distance-cache hit ratio estimated from the outside: each quadruplet
/// query looks up two distances, and every lookup that added no cache
/// entry was a hit.
pub fn estimated_hit_ratio(queries: u64, added: u64) -> f64 {
    let lookups = 2.0 * queries as f64;
    ratio(lookups - added as f64, lookups)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(Summary::of(&xs).is_none());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!((s.p50, s.p90, s.tail_p, s.n), (50.0, 90.0, 90.0, 100));
        assert_eq!(beyond(100, 90.0), 10);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(late_tail(&[3.0, 1.0]), (50.0, 1.0));
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(late_tail(&many), (99.0, 990.0));
        assert_eq!(estimated_hit_ratio(50, 25), 0.75);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn smoothing_averages_ranks_around_the_percentile() {
        // Two equal groups: the plain median is the lower group's top.
        let mut xs: Vec<f64> = (0..200).map(|i| if i < 100 { 1.0 } else { 3.0 }).collect();
        xs.sort_by(f64::total_cmp);
        assert_eq!(percentile(&xs, 50.0), 1.0);
        // Ranks 90..=110: eleven of the lower group, ten of the upper.
        assert!((smoothed(&xs, 50.0) - 41.0 / 21.0).abs() < 1e-12);
        // The window is clipped at the ends.
        assert_eq!(smoothed(&[4.0], 99.0), 4.0);
    }
}
