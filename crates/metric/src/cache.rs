//! Distance-level caching — the exact memoisation layer *below* the noise.
//!
//! PR 2's `MemoOracle` caches whole query answers; that is the right layer
//! when each query is a real crowd worker, but for simulated oracles the
//! expensive part of a quadruplet query is the two distance evaluations,
//! and one cached distance `d(i, j)` serves **every** quadruplet that
//! touches the pair `(i, j)` — across query directions, across searches,
//! and across algorithms sharing the metric. [`DistCache`] memoises at
//! that level: a condensed triangular table with one slot per unordered
//! pair, filled lazily with the wrapped metric's own `dist` output.
//!
//! Exactness is structural, not statistical: the cached value is the very
//! `f64` the lazy metric produces (distances are pure functions of the
//! pair), so persistent-noise oracles built over a [`CachedMetric`] answer
//! bit-identically to the same oracles over the raw metric — the property
//! `tests/perf_equivalence.rs` pins end to end.
//!
//! Slots are `AtomicU64` distance bit patterns (sentinel [`u64::MAX`], a
//! NaN no validated metric can produce), so a cache shared through `&self`
//! across threads (concurrent sessions on one engine, the serving plane's
//! workers) needs no locks: racing
//! writers store identical bits, and relaxed ordering suffices because
//! the value is determined by the key alone.
//!
//! An exact fill counter sits next to the slots, so
//! [`DistCache::filled`] is one load rather than a scan of every slot.
//! A miss publishes its distance with `compare_exchange(UNSET, bits)`,
//! and only the writer whose exchange succeeds bumps the counter: when
//! several threads race to fill the same pair, all of them compute the
//! same bits, exactly one moves the slot out of `UNSET`, and the pair
//! counts once.

use crate::Metric;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bit pattern marking a not-yet-computed slot. A real distance is finite
/// and non-negative (every metric in this crate validates that), so its
/// bits can never collide with this all-ones NaN.
const UNSET: u64 = u64::MAX;

/// Largest `n` worth a [`DistCache`]: the table pays its
/// `n (n - 1) / 2 * 8` bytes up front (16 384 points ≈ 1 GiB), so past
/// this point callers keep the metric lazy rather than trade a slowdown
/// for an allocation that may not fit at all.
pub const CACHE_TAKEOVER_MAX_POINTS: usize = 16_384;

/// A lock-free condensed-triangle memo table for pairwise distances.
pub struct DistCache {
    n: usize,
    slots: Vec<AtomicU64>,
    /// `row_off[i] + j` = condensed index of pair `i < j`; one load
    /// replaces the two multiplies of the closed-form triangular index on
    /// the per-query hot path.
    row_off: Vec<usize>,
    /// Slots moved out of `UNSET` so far; bumped only by the writer whose
    /// `compare_exchange` fills the slot, so it equals the set-slot count.
    filled: AtomicU64,
}

impl DistCache {
    /// An empty cache for `n` points (`n (n - 1) / 2` slots, 8 bytes each
    /// — the same footprint as a fully materialised condensed matrix, paid
    /// up front; what stays lazy is the *evaluation*).
    pub fn new(n: usize) -> Self {
        let pairs = n * n.saturating_sub(1) / 2;
        let mut slots = Vec::with_capacity(pairs);
        slots.resize_with(pairs, || AtomicU64::new(UNSET));
        let row_off = (0..n)
            .map(|i| (i * n - i * (i + 1) / 2).wrapping_sub(i + 1))
            .collect();
        Self {
            n,
            slots,
            row_off,
            filled: AtomicU64::new(0),
        }
    }

    /// Number of points the cache covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Condensed index of the unordered pair `i < j`.
    #[inline]
    fn tri(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        self.row_off[i].wrapping_add(j)
    }

    /// The cached distance for `(i, j)`, computing and storing it via
    /// `compute` on first touch. `i != j` required (callers short-circuit
    /// the diagonal to `0.0`).
    ///
    /// # Panics
    /// Panics if `i == j` or either index is out of bounds.
    #[inline]
    pub fn get_or_compute(&self, i: usize, j: usize, compute: impl FnOnce() -> f64) -> f64 {
        assert!(i != j, "diagonal distances are identically zero");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let slot = &self.slots[self.tri(a, b)];
        let bits = slot.load(Ordering::Relaxed);
        if bits != UNSET {
            return f64::from_bits(bits);
        }
        let d = compute();
        debug_assert!(
            d.is_finite() && d >= 0.0,
            "metric produced an uncacheable distance {d}"
        );
        // A racing writer may have filled the slot since the load above;
        // it stored these same bits, and only the winner counts the pair.
        if slot
            .compare_exchange(UNSET, d.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            self.filled.fetch_add(1, Ordering::Relaxed);
        }
        d
    }

    /// How many distinct pairs have been evaluated so far: an exact
    /// counter read in O(1). Each pair counts once, however many threads
    /// raced to fill it. While other threads are still filling, the value
    /// is a snapshot that may trail their latest inserts.
    pub fn filled(&self) -> usize {
        self.filled.load(Ordering::Relaxed) as usize
    }
}

impl Clone for DistCache {
    fn clone(&self) -> Self {
        // Count what was actually copied: slots filled concurrently with
        // the clone may or may not make it in, and the copy's counter
        // must match its own table.
        let mut filled = 0u64;
        let slots = self
            .slots
            .iter()
            .map(|s| {
                let bits = s.load(Ordering::Relaxed);
                filled += u64::from(bits != UNSET);
                AtomicU64::new(bits)
            })
            .collect();
        Self {
            n: self.n,
            slots,
            row_off: self.row_off.clone(),
            filled: AtomicU64::new(filled),
        }
    }
}

impl std::fmt::Debug for DistCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistCache")
            .field("n", &self.n)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// A metric decorated with a [`DistCache`]: every distinct pair is
/// evaluated by the wrapped metric exactly once, then answered from the
/// table — bit-identical by construction.
#[derive(Debug, Clone)]
pub struct CachedMetric<M> {
    inner: M,
    cache: DistCache,
}

impl<M: Metric> CachedMetric<M> {
    /// Wraps `metric` with an empty distance cache.
    pub fn new(metric: M) -> Self {
        let cache = DistCache::new(metric.len());
        Self {
            inner: metric,
            cache,
        }
    }

    /// The wrapped metric.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The cache itself (for fill statistics).
    pub fn cache(&self) -> &DistCache {
        &self.cache
    }

    /// Unwraps the metric, dropping the cache.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Metric> Metric for CachedMetric<M> {
    #[inline]
    fn len(&self) -> usize {
        self.inner.len()
    }

    #[inline]
    fn dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.cache.get_or_compute(i, j, || self.inner.dist(i, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EuclideanMetric;

    fn metric() -> EuclideanMetric {
        EuclideanMetric::from_points(
            &(0..20)
                .map(|i| vec![(i * 13 % 17) as f64 * 0.7, i as f64 * 1.3])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn cached_distances_are_bit_identical_and_fill_once() {
        let raw = metric();
        let cached = CachedMetric::new(raw.clone());
        assert_eq!(cached.len(), raw.len());
        for round in 0..2 {
            for i in 0..raw.len() {
                for j in 0..raw.len() {
                    assert_eq!(
                        cached.dist(i, j).to_bits(),
                        raw.dist(i, j).to_bits(),
                        "round {round} ({i},{j})"
                    );
                }
            }
        }
        assert_eq!(cached.cache().filled(), 20 * 19 / 2);
    }

    #[test]
    fn fill_tracks_touched_pairs_only() {
        let cached = CachedMetric::new(metric());
        assert_eq!(cached.cache().filled(), 0);
        let _ = cached.dist(3, 7);
        let _ = cached.dist(7, 3); // same unordered pair: no new slot
        let _ = cached.dist(0, 0); // diagonal: no slot at all
        assert_eq!(cached.cache().filled(), 1);
    }

    #[test]
    fn concurrent_fill_is_consistent() {
        let raw = metric();
        let cached = CachedMetric::new(raw.clone());
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let cached = &cached;
                let raw = &raw;
                scope.spawn(move || {
                    for k in 0..100 {
                        let i = (t * 5 + k) % 20;
                        let j = (k * 7 + 1) % 20;
                        if i != j {
                            assert_eq!(cached.dist(i, j).to_bits(), raw.dist(i, j).to_bits());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn clone_carries_the_filled_slots() {
        let cached = CachedMetric::new(metric());
        let _ = cached.dist(1, 2);
        let copy = cached.clone();
        assert_eq!(copy.cache().filled(), 1);
        assert_eq!(copy.dist(1, 2).to_bits(), cached.dist(1, 2).to_bits());
    }

    /// Set slots by a full O(n²) scan: the reference the counter must
    /// match.
    fn scanned(cache: &DistCache) -> usize {
        cache
            .slots
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) != UNSET)
            .count()
    }

    #[test]
    fn counter_matches_scan_under_sequential_fills() {
        let cached = CachedMetric::new(metric());
        let cache = cached.cache();
        for (i, j) in [(3, 7), (7, 3), (3, 7), (0, 19), (19, 0), (5, 6), (6, 5)] {
            let _ = cached.dist(i, j);
            assert_eq!(cache.filled(), scanned(cache), "after ({i},{j})");
        }
        assert_eq!(cache.filled(), 3);
        for i in (0..20).rev() {
            for j in 0..20 {
                let _ = cached.dist(i, j);
            }
        }
        assert_eq!(cache.filled(), scanned(cache));
        assert_eq!(cache.filled(), 20 * 19 / 2);
    }

    #[test]
    fn racing_fills_of_the_same_pairs_count_once() {
        const THREADS: usize = 4;
        let raw = metric();
        let cache = DistCache::new(raw.len());
        let pairs: Vec<(usize, usize)> = (0..20)
            .flat_map(|i| (i + 1..20).map(move |j| (i, j)))
            .filter(|&(i, j)| (i * j) % 3 != 0)
            .collect();
        // Every thread walks the same distinct pairs in the same order
        // (half of them flipped), and every miss waits at a barrier
        // before it publishes. No slot is filled until all threads have
        // missed it, so each pair is computed and written by all four.
        let all_missed = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (raw, cache, pairs, all_missed) = (&raw, &cache, &pairs, &all_missed);
                scope.spawn(move || {
                    for &(i, j) in pairs {
                        let (i, j) = if t % 2 == 0 { (i, j) } else { (j, i) };
                        let d = cache.get_or_compute(i, j, || {
                            all_missed.wait();
                            raw.dist(i, j)
                        });
                        assert_eq!(d.to_bits(), raw.dist(i, j).to_bits());
                    }
                });
            }
        });
        assert_eq!(cache.filled(), pairs.len());
        assert_eq!(cache.filled(), scanned(&cache));
    }

    #[test]
    fn clone_carries_an_exact_independent_count() {
        let cached = CachedMetric::new(metric());
        let _ = cached.dist(1, 2);
        let _ = cached.dist(4, 9);
        let copy = cached.clone();
        assert_eq!(copy.cache().filled(), 2);
        assert_eq!(copy.cache().filled(), scanned(copy.cache()));
        let _ = copy.dist(2, 1); // already copied: no new slot
        let _ = copy.dist(0, 5);
        let _ = copy.dist(8, 3);
        assert_eq!(copy.cache().filled(), 4);
        assert_eq!(copy.cache().filled(), scanned(copy.cache()));
        assert_eq!(cached.cache().filled(), 2);
        assert_eq!(cached.cache().filled(), scanned(cached.cache()));
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn cache_rejects_diagonal_lookups() {
        let cache = DistCache::new(4);
        let _ = cache.get_or_compute(2, 2, || 0.0);
    }
}
