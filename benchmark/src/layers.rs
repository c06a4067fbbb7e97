//! Timing adaptors over the public oracle and metric traits, and the
//! direct-engine replay of a session task.
//!
//! The replay wires a task the way `Session::run` does (and the way
//! `tests/session_equivalence.rs` wires it by hand): the session's
//! default oracle chain `ProbeOracle(Retrying(Budgeted(FaultyOracle(raw))))`
//! with no faults, no probes and no budget, driven by the stable
//! nco-core entry points with the session's default parameters and an
//! rng seeded from the session seed. Two [`Timed`] adaptors bracket the
//! chain: the outer one sees every call the engine makes, the inner one
//! every call that reaches the raw noise oracle.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use noisy_oracle::core::comparator::ValueCmp;
use noisy_oracle::core::kcenter::{kcenter_adv, kcenter_prob, KCenterAdvParams, KCenterProbParams};
use noisy_oracle::core::maxfind::{
    max_adv, max_prob, top_k_adv, top_k_prob, AdvParams, ProbParams,
};
use noisy_oracle::core::neighbor::{farthest_adv, farthest_prob, nearest_adv, nearest_prob};
use noisy_oracle::core::order::{
    partition_adv, partition_prob, sort_adv, sort_prob, OrderAdvParams, OrderProbParams,
};
use noisy_oracle::data::AnyMetric;
use noisy_oracle::metric::{DistCache, Metric};
use noisy_oracle::oracle::adversarial::{
    AdversarialQuadOracle, AdversarialValueOracle, InvertAdversary,
};
use noisy_oracle::oracle::crowd::{CrowdQuadOracle, CrowdValueOracle};
use noisy_oracle::oracle::fault::{FaultPlan, FaultyOracle, QueryFault, RetryPolicy, Retrying};
use noisy_oracle::oracle::probabilistic::{ProbQuadOracle, ProbValueOracle};
use noisy_oracle::oracle::{
    Budgeted, ComparisonOracle, PersistentNoise, ProbeOracle, ProbePlan, QuadrupletOracle,
    TrueQuadOracle, TrueValueOracle,
};
use noisy_oracle::{Answer, Noise, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The session's `delta` when no confidence is configured.
const DEFAULT_DELTA: f64 = 0.1;

/// Scalar calls are timed one in this many (and the reading scaled up),
/// so the clock's own cost stays small next to a ~20 ns value query.
/// Batched calls are always timed.
pub const SCALAR_SAMPLE: u64 = 8;

/// Busy time of one layer, accumulated across calls.
#[derive(Debug, Default)]
pub struct Clock {
    on: Cell<bool>,
    scalar_calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Clock {
    pub fn new(on: bool) -> Rc<Self> {
        let c = Self::default();
        c.on.set(on);
        Rc::new(c)
    }

    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    fn time<T>(&self, scalar: bool, f: impl FnOnce() -> T) -> T {
        if !self.on.get() {
            return f();
        }
        let weight = if scalar {
            let c = self.scalar_calls.get();
            self.scalar_calls.set(c + 1);
            if !c.is_multiple_of(SCALAR_SAMPLE) {
                return f();
            }
            SCALAR_SAMPLE
        } else {
            1
        };
        let t = Instant::now();
        let r = f();
        self.ns
            .set(self.ns.get() + t.elapsed().as_nanos() as u64 * weight);
        r
    }
}

/// Forwards every oracle call, timing it on a [`Clock`].
pub struct Timed<O> {
    inner: O,
    clock: Rc<Clock>,
}

impl<O> Timed<O> {
    pub fn new(inner: O, clock: Rc<Clock>) -> Self {
        Self { inner, clock }
    }

    pub fn inner(&self) -> &O {
        &self.inner
    }
}

impl<O: PersistentNoise> PersistentNoise for Timed<O> {}

impl<O: ComparisonOracle> ComparisonOracle for Timed<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn le(&mut self, i: usize, j: usize) -> bool {
        self.clock.time(true, || self.inner.le(i, j))
    }
    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        self.clock.time(false, || self.inner.le_batch(queries, out))
    }
    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        self.clock.time(true, || self.inner.try_le(i, j))
    }
    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        self.clock
            .time(false, || self.inner.try_le_batch(queries, out))
    }
    fn doomed(&self) -> bool {
        self.inner.doomed()
    }
}

impl<O: QuadrupletOracle> QuadrupletOracle for Timed<O> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.clock.time(true, || self.inner.le(a, b, c, d))
    }
    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        self.clock.time(false, || self.inner.le_batch(queries, out))
    }
    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        self.clock.time(true, || self.inner.try_le(a, b, c, d))
    }
    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        self.clock
            .time(false, || self.inner.try_le_batch(queries, out))
    }
    fn doomed(&self) -> bool {
        self.inner.doomed()
    }
}

/// A cached metric that counts lookups and misses and times the metric
/// kernel on every miss. Cached values are the kernel's own output, so
/// oracles over it answer bit-identically to oracles over the engine's
/// `CachedMetric`.
pub struct TimedMetric {
    inner: AnyMetric,
    cache: DistCache,
    clock: Rc<Clock>,
    lookups: Cell<u64>,
    misses: Cell<u64>,
}

impl TimedMetric {
    pub fn new(inner: AnyMetric) -> Self {
        let cache = DistCache::new(inner.len());
        Self {
            inner,
            cache,
            clock: Clock::new(false),
            lookups: Cell::new(0),
            misses: Cell::new(0),
        }
    }

    /// `(lookups, misses, kernel ns)` so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.lookups.get(), self.misses.get(), self.clock.ns())
    }

    pub fn set_timing(&self, on: bool) {
        self.clock.set_on(on);
    }
}

impl Metric for TimedMetric {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn dist(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.lookups.set(self.lookups.get() + 1);
        self.cache.get_or_compute(i, j, || {
            self.misses.set(self.misses.get() + 1);
            self.clock.time(false, || self.inner.dist(i, j))
        })
    }
}

/// What one replay produced and where its time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    pub answer: Answer,
    pub queries: u64,
    pub rounds: u64,
    /// Wall time of the engine call, chain construction included.
    pub wall_ns: u64,
    /// Time inside the outer adaptor: the chain and everything below.
    pub chain_ns: u64,
    /// Time inside the inner adaptor: the raw noise oracle and below.
    pub raw_ns: u64,
}

type Chain<O> = ProbeOracle<Retrying<Budgeted<FaultyOracle<Timed<O>>>>>;

/// The session's default per-run chain around `raw`, bracketed by the
/// two adaptors.
fn chain<O>(raw: O, timed: bool) -> (Timed<Chain<O>>, Rc<Clock>, Rc<Clock>) {
    let (outer, inner) = (Clock::new(timed), Clock::new(timed));
    let budgeted = Budgeted::new(
        FaultyOracle::new(Timed::new(raw, inner.clone()), FaultPlan::none()),
        None,
    );
    let chain = ProbeOracle::new(
        Retrying::new(budgeted, RetryPolicy::default()),
        ProbePlan::none(),
    );
    (Timed::new(chain, outer.clone()), outer, inner)
}

fn finish<O>(
    answer: Answer,
    oracle: &Timed<Chain<O>>,
    start: Instant,
    clocks: (&Clock, &Clock),
) -> Replay {
    let wall_ns = start.elapsed().as_nanos() as u64;
    let budget = oracle.inner().inner().inner();
    Replay {
        answer,
        queries: budget.queries(),
        rounds: budget.rounds(),
        wall_ns,
        chain_ns: clocks.0.ns(),
        raw_ns: clocks.1.ns(),
    }
}

/// Replays a value task over `values` under `noise` with session seed
/// `seed`; `timed` switches the adaptors' clocks on.
pub fn replay_value(task: Task, noise: Noise, values: &[f64], seed: u64, timed: bool) -> Replay {
    let stat = noise.is_statistical();
    match noise {
        Noise::Exact => value(
            task,
            stat,
            TrueValueOracle::new(values.to_vec()),
            seed,
            timed,
        ),
        Noise::Adversarial { mu } => value(
            task,
            stat,
            AdversarialValueOracle::new(values.to_vec(), mu, InvertAdversary),
            seed,
            timed,
        ),
        Noise::Probabilistic { p, seed: ns } => value(
            task,
            stat,
            ProbValueOracle::new(values.to_vec(), p, ns),
            seed,
            timed,
        ),
        Noise::Crowd {
            profile,
            workers,
            seed: ns,
        } => value(
            task,
            stat,
            CrowdValueOracle::new(values.to_vec(), profile, workers, ns),
            seed,
            timed,
        ),
        _ => unreachable!("no other noise model is generated"),
    }
}

fn value<O: ComparisonOracle>(task: Task, stat: bool, raw: O, seed: u64, timed: bool) -> Replay {
    let start = Instant::now();
    let (mut oracle, outer, inner) = chain(raw, timed);
    let items: Vec<usize> = (0..oracle.n()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cmp = ValueCmp::new(&mut oracle);
    let answer = match task {
        Task::Max => Answer::Item(
            if stat {
                max_prob(&items, &ProbParams::default(), &mut cmp, &mut rng)
            } else {
                max_adv(&items, &AdvParams::default(), &mut cmp, &mut rng)
            }
            .expect("non-empty corpus"),
        ),
        Task::TopK { k } => Answer::Items(if stat {
            top_k_prob(&items, k, &ProbParams::default(), &mut cmp, &mut rng)
        } else {
            top_k_adv(&items, k, &AdvParams::default(), &mut cmp, &mut rng)
        }),
        Task::Sort => Answer::Ranking(if stat {
            sort_prob(&items, &OrderProbParams::default(), &mut cmp)
        } else {
            sort_adv(&items, &OrderAdvParams::default(), &mut cmp)
        }),
        Task::Select { k } | Task::Partition { k } => {
            let split = if stat {
                partition_prob(&items, k, &OrderProbParams::default(), &mut cmp, &mut rng)
            } else {
                partition_adv(&items, k, &OrderAdvParams::default(), &mut cmp, &mut rng)
            };
            match task {
                Task::Select { .. } => Answer::Item(split.top[k - 1]),
                _ => Answer::Partition {
                    top: split.top,
                    rest: split.rest,
                },
            }
        }
        _ => unreachable!("value tasks only"),
    };
    finish(answer, &oracle, start, (&outer, &inner))
}

/// Replays a metric task over `metric` — see [`replay_value`].
pub fn replay_metric(
    task: Task,
    noise: Noise,
    metric: &TimedMetric,
    seed: u64,
    timed: bool,
) -> Replay {
    let stat = noise.is_statistical();
    match noise {
        Noise::Exact => quad(task, stat, TrueQuadOracle::new(metric), seed, timed),
        Noise::Adversarial { mu } => quad(
            task,
            stat,
            AdversarialQuadOracle::new(metric, mu, InvertAdversary),
            seed,
            timed,
        ),
        Noise::Probabilistic { p, seed: ns } => {
            quad(task, stat, ProbQuadOracle::new(metric, p, ns), seed, timed)
        }
        Noise::Crowd {
            profile,
            workers,
            seed: ns,
        } => quad(
            task,
            stat,
            CrowdQuadOracle::new(metric, profile, workers, ns),
            seed,
            timed,
        ),
        _ => unreachable!("no other noise model is generated"),
    }
}

fn quad<O: QuadrupletOracle + PersistentNoise>(
    task: Task,
    stat: bool,
    raw: O,
    seed: u64,
    timed: bool,
) -> Replay {
    let start = Instant::now();
    let (mut oracle, outer, inner) = chain(raw, timed);
    let n = oracle.n();
    let mut rng = StdRng::seed_from_u64(seed);
    let params = AdvParams::default();
    let o = &mut oracle;
    let answer = match task {
        Task::Nearest { q } => Answer::Item(
            if stat {
                nearest_prob(o, q, DEFAULT_DELTA, &params, &mut rng)
            } else {
                nearest_adv(o, q, &params, &mut rng)
            }
            .expect("at least two records"),
        ),
        Task::Farthest { q } => Answer::Item(
            if stat {
                farthest_prob(o, q, DEFAULT_DELTA, &params, &mut rng)
            } else {
                farthest_adv(o, q, &params, &mut rng)
            }
            .expect("at least two records"),
        ),
        Task::KCenter { k } => Answer::Clustering(if stat {
            let m = (n / (2 * k)).max(1);
            kcenter_prob(&KCenterProbParams::experimental(k, m), o, &mut rng)
        } else {
            kcenter_adv(&KCenterAdvParams::experimental(k), o, &mut rng)
        }),
        _ => unreachable!("metric tasks other than the hierarchy only"),
    };
    finish(answer, &oracle, start, (&outer, &inner))
}

#[cfg(test)]
mod tests {
    use super::*;
    use noisy_oracle::data::dblp;
    use noisy_oracle::{Engine, Session};

    #[test]
    fn replay_matches_session_run() {
        let values: Vec<f64> = (0..300).map(|i| 1.0 + ((i * 53) % 300) as f64).collect();
        let engine = Engine::from_values(values.clone());
        let noises = [
            Noise::Adversarial { mu: 0.2 },
            Noise::Probabilistic { p: 0.2, seed: 9 },
        ];
        for noise in noises {
            for task in [
                Task::Max,
                Task::TopK { k: 3 },
                Task::Sort,
                Task::Select { k: 40 },
                Task::Partition { k: 40 },
            ] {
                let s = Session::builder()
                    .engine(engine.clone())
                    .noise(noise)
                    .seed(4)
                    .build()
                    .unwrap();
                let out = s.run(task).unwrap();
                for timed in [false, true] {
                    let r = replay_value(task, noise, &values, 4, timed);
                    assert_eq!(
                        (&r.answer, r.queries, r.rounds),
                        (&out.answer, out.report.queries, out.report.rounds),
                        "{task:?} {noise:?}"
                    );
                }
            }
        }
        let d = dblp(200, 3);
        let engine = Engine::from_dataset(&d, true);
        let metric = TimedMetric::new(d.metric.clone());
        for noise in noises {
            for task in [
                Task::Nearest { q: 5 },
                Task::Farthest { q: 7 },
                Task::KCenter { k: 4 },
            ] {
                let s = Session::builder()
                    .engine(engine.clone())
                    .noise(noise)
                    .seed(4)
                    .build()
                    .unwrap();
                let out = s.run(task).unwrap();
                let r = replay_metric(task, noise, &metric, 4, true);
                assert_eq!(
                    (&r.answer, r.queries, r.rounds),
                    (&out.answer, out.report.queries, out.report.rounds),
                    "{task:?} {noise:?}"
                );
            }
        }
        let (lookups, misses, _) = metric.counters();
        assert!(lookups > misses && misses > 0);
    }
}
