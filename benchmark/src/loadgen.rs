//! Seeded input streams, the open-loop Poisson schedule and the rate
//! ladder's stop rule.

/// Offered rates of the serve workload's ladder, in requests per second.
pub const LADDER: [f64; 6] = [8.0, 16.0, 32.0, 64.0, 128.0, 256.0];

/// The serve workload's latency limit on each step's p90. The lowest
/// rung must meet it on the current code, or the highest rate meeting it
/// would read 0 on every run: at 8 req/s the p90 is ~115-150 ms on a
/// 2-core host, so a 100 ms limit fails from the first rung.
pub const LIMIT_MS: f64 = 250.0;

/// SplitMix64: the benchmark's own input stream, independent of the
/// program's random number generators.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// A derived stream, so that adding draws to one input never shifts
    /// another.
    pub fn fork(&mut self, salt: u64) -> Self {
        Self::new(self.next_u64() ^ salt)
    }
}

/// Due times (seconds from the step's start) of `count` Poisson arrivals
/// at `rate` per second: exponential gaps drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, count: usize) -> Vec<f64> {
    let mut rng = SplitMix::new(seed);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            // 1 - unit() lies in (0, 1], so the log is finite.
            t += -(1.0 - rng.unit()).ln() / rate;
            t
        })
        .collect()
}

/// Requests per ladder step so that the whole ladder spans `seconds`,
/// but never fewer than `min` (a p90 needs 100 samples).
pub fn step_requests(seconds: f64, min: usize) -> usize {
    let span: f64 = LADDER.iter().map(|r| 1.0 / r).sum();
    ((seconds / span).round() as usize).max(min)
}

/// `true` when the requests in flight at the end of a step clearly
/// outnumber those at its start: the mean over the last quarter of
/// submissions exceeds twice the first quarter's mean plus two.
pub fn backlog_grows(in_flight: &[usize]) -> bool {
    let q = in_flight.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len() as f64;
    let first = mean(&in_flight[..q]);
    let last = mean(&in_flight[in_flight.len() - q..]);
    last > 2.0 * first + 2.0
}

/// The ladder continues past a step only if its p90 met the limit and
/// its backlog did not grow.
pub fn step_passes(p90_ms: f64, limit_ms: f64, backlog_grew: bool) -> bool {
    p90_ms <= limit_ms && !backlog_grew
}

/// The highest rate meeting the limit, from the ladder's `(rate, p90,
/// passed)` steps in order. Between the last passing step and the first
/// failing one the crossing is interpolated on log(rate) against
/// log(p90), so the figure moves smoothly instead of jumping a whole
/// ladder rung.
/// Returns the last passing rate when the p90s do not bracket the limit
/// (a step failed on backlog alone), and `None` when the first step
/// already failed.
pub fn max_rate(steps: &[(f64, f64, bool)], limit_ms: f64) -> Option<f64> {
    let fail = steps.iter().position(|s| !s.2);
    let last_ok = match fail {
        Some(0) => return None,
        Some(i) => steps[i - 1],
        None => return steps.last().map(|s| s.0),
    };
    let bad = steps[fail.expect("matched above")];
    if bad.1 <= limit_ms || last_ok.1 >= bad.1 {
        return Some(last_ok.0);
    }
    let f = ((limit_ms / last_ok.1).ln() / (bad.1 / last_ok.1).ln()).clamp(0.0, 1.0);
    Some((last_ok.0.ln() + f * (bad.0.ln() - last_ok.0.ln())).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_right_rate() {
        let a = poisson_schedule(42, 8.0, 2000);
        assert_eq!(a, poisson_schedule(42, 8.0, 2000));
        assert_ne!(a, poisson_schedule(43, 8.0, 2000));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 2000 arrivals at 8/s span ~250 s; the mean gap is within 10%.
        let mean_gap = a[a.len() - 1] / a.len() as f64;
        assert!((mean_gap - 0.125).abs() < 0.0125, "{mean_gap}");
    }

    #[test]
    fn ladder_steps_fit_the_run_time() {
        assert_eq!(step_requests(25.0, 100), 102);
        assert_eq!(step_requests(5.0, 100), 100);
    }

    #[test]
    fn ladder_stops_on_latency_or_backlog() {
        assert!(step_passes(99.0, 100.0, false));
        assert!(!step_passes(101.0, 100.0, false));
        assert!(!step_passes(10.0, 100.0, true));
        assert!(!backlog_grows(&[0, 1, 0, 1, 1, 0, 1, 0]));
        assert!(backlog_grows(&[0, 1, 1, 2, 4, 6, 8, 10]));
        assert!(!backlog_grows(&[3]));
    }

    #[test]
    fn max_rate_interpolates_between_pass_and_fail() {
        let steps = [(8.0, 40.0, true), (16.0, 50.0, true), (32.0, 200.0, false)];
        let r = max_rate(&steps, 100.0).unwrap();
        // 100 ms is halfway from 50 to 200 ms in log latency, so the
        // crossing is halfway from 16 to 32 in log rate.
        assert!((r - 16.0 * 2f64.sqrt()).abs() < 1e-9, "{r}");
        assert_eq!(max_rate(&[(8.0, 150.0, false)], 100.0), None);
        assert_eq!(
            max_rate(&[(8.0, 10.0, true), (16.0, 20.0, true)], 100.0),
            Some(16.0)
        );
        // Failed on backlog with a p90 under the limit: no interpolation.
        assert_eq!(
            max_rate(&[(8.0, 10.0, true), (16.0, 20.0, false)], 100.0),
            Some(8.0)
        );
    }
}
