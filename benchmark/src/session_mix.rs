//! `session_mix`: a library user's steady state. A closed loop with one
//! client runs a fresh `Session` (build + run) per task over two
//! long-lived engines: n = 4096 distinct values, and a cached n = 4096
//! `dblp` metric warmed until its distance cache stops growing. The mix
//! is equal shares of eight tasks, half under probabilistic noise
//! (p = 0.2 values, 0.1 metric) and half under adversarial noise
//! (mu = 0.2). Metric tasks cycle through a small seeded pool of query
//! records and seeds, which is what lets the warm-up finish.

use std::sync::Arc;
use std::time::Instant;

use noisy_oracle::data::{dblp, Dataset};
use noisy_oracle::{Engine, Noise, Outcome, Session, Task};

use crate::check::{MetricTruth, ValueTruth};
use crate::layers::{replay_metric, replay_value, Replay, TimedMetric};
use crate::loadgen::SplitMix;
use crate::stats::{self, median, ratio, Summary};
use crate::trace::{self, Tracer};
use crate::{Args, Report, Tally, MIN_TASKS};

const N: usize = 4096;
const KINDS: [Task; 8] = [
    Task::Max,
    Task::TopK { k: 8 },
    Task::Select { k: 512 },
    Task::Partition { k: 512 },
    Task::Sort,
    Task::Nearest { q: 0 },
    Task::Farthest { q: 0 },
    Task::KCenter { k: 16 },
];
/// One cycle holds every kind under both noise models.
const CYCLE: usize = 2 * KINDS.len();
/// Seeded (query record, seed) entries per metric kind and noise model.
const POOL: usize = 3;
const SETUPS: usize = 3;

/// One task of the stream.
#[derive(Debug, Clone, Copy)]
struct Job {
    task: Task,
    noise: Noise,
    seed: u64,
}

impl Job {
    fn is_metric(&self) -> bool {
        !self.task.needs_values()
    }

    fn family(&self) -> &'static str {
        match self.task {
            Task::Max | Task::TopK { .. } => "core.maxfind",
            Task::Sort | Task::Select { .. } | Task::Partition { .. } => "core.order",
            Task::Nearest { .. } | Task::Farthest { .. } => "core.neighbor",
            _ => "core.kcenter",
        }
    }
}

struct Inputs {
    values: Vec<f64>,
    dataset: Dataset,
    /// `pool[kind - 5][statistical as usize]` for the three metric kinds.
    pool: Vec<[Vec<Job>; 2]>,
    stream: SplitMix,
}

fn noise(metric: bool, statistical: bool, seed: u64) -> Noise {
    match (statistical, metric) {
        (true, false) => Noise::Probabilistic { p: 0.2, seed },
        (true, true) => Noise::Probabilistic { p: 0.1, seed },
        (false, _) => Noise::Adversarial { mu: 0.2 },
    }
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = SplitMix::new(seed ^ 0x5E55_1011);
    // A seeded shuffle of 1..=N: distinct, positive values.
    let mut values: Vec<f64> = (1..=N).map(|v| v as f64).collect();
    for i in (1..N).rev() {
        values.swap(i, rng.below(i + 1));
    }
    let dataset = dblp(N, rng.next_u64());
    let pool = KINDS[5..]
        .iter()
        .map(|&kind| {
            [false, true].map(|stat| {
                (0..POOL)
                    .map(|_| {
                        let q = rng.below(N);
                        let task = match kind {
                            Task::Nearest { .. } => Task::Nearest { q },
                            Task::Farthest { .. } => Task::Farthest { q },
                            other => other,
                        };
                        Job {
                            task,
                            noise: noise(true, stat, rng.next_u64()),
                            seed: rng.next_u64(),
                        }
                    })
                    .collect()
            })
        })
        .collect();
    Inputs {
        values,
        dataset,
        pool,
        stream: rng.fork(0x57EA),
    }
}

impl Inputs {
    /// The `i`-th task: kind `i % 8`, noise alternating per cycle half;
    /// value tasks draw fresh seeds, metric tasks walk their pool.
    fn job(&mut self, i: usize) -> Job {
        let kind = KINDS[i % KINDS.len()];
        let stat = (i / KINDS.len()).is_multiple_of(2);
        let (noise_seed, seed) = (self.stream.next_u64(), self.stream.next_u64());
        if kind.needs_values() {
            Job {
                task: kind,
                noise: noise(false, stat, noise_seed),
                seed,
            }
        } else {
            let k = KINDS.iter().position(|t| *t == kind).expect("known kind") - 5;
            self.pool[k][stat as usize][(i / CYCLE) % POOL]
        }
    }

    fn pool_jobs(&self) -> impl Iterator<Item = &Job> {
        self.pool.iter().flat_map(|p| p.iter().flatten())
    }
}

fn session(engine: &Arc<Engine>, job: &Job) -> Result<Session, String> {
    Session::builder()
        .engine(engine.clone())
        .noise(job.noise)
        .seed(job.seed)
        .build()
        .map_err(|e| e.to_string())
}

struct Engines {
    values: Arc<Engine>,
    metric: Arc<Engine>,
    metric_build_ms: f64,
    warm_passes: usize,
}

/// Builds both engines and runs the metric pool until a pass adds no
/// distances to the cache.
fn setup(inputs: &Inputs) -> Result<Engines, String> {
    let values = Engine::from_values(inputs.values.clone());
    let t = Instant::now();
    let metric = Engine::from_dataset(&inputs.dataset, true);
    let metric_build_ms = t.elapsed().as_secs_f64() * 1e3;
    let mut warm_passes = 0;
    loop {
        let before = metric.cache_entries();
        for job in inputs.pool_jobs() {
            session(&metric, job)?
                .run(job.task)
                .map_err(|e| e.to_string())?;
        }
        warm_passes += 1;
        if metric.cache_entries() == before || warm_passes == 5 {
            break;
        }
    }
    Ok(Engines {
        values,
        metric,
        metric_build_ms,
        warm_passes,
    })
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut inputs = inputs(args.seed);
    let value_truth = ValueTruth::new(inputs.values.clone());
    let mut metric_truth = MetricTruth::new(inputs.dataset.metric.clone());

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut engines = None;
    for _ in 0..SETUPS {
        // Drop the previous engines first, so peak memory holds one set.
        drop(engines.take());
        let t = Instant::now();
        match setup(&inputs) {
            Ok(e) => {
                setup_s.push(t.elapsed().as_secs_f64());
                build_ms.push(e.metric_build_ms);
                engines = Some(e);
            }
            Err(e) => {
                report.tally.record("setup", Err(e));
                return report;
            }
        }
    }
    let engines = engines.expect("at least one setup");
    report.detail.push(format!(
        "setup: {SETUPS} set-ups, median {:.3}s; warm-up passes {}; cache entries {:?}",
        median(&setup_s),
        engines.warm_passes,
        engines.metric.cache_entries()
    ));

    // The traced run replays tasks over its own cached metric, warmed
    // the same way as the engine's.
    let replay_metric_store = args.trace.then(|| {
        let m = TimedMetric::new(inputs.dataset.metric.clone());
        for job in inputs.pool_jobs() {
            replay_metric(job.task, job.noise, &m, job.seed, false);
        }
        m
    });

    let mut tracer = Tracer::new(args.trace);
    let mut task_ms = Vec::new();
    let mut caller_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut by_class: Vec<Vec<(u64, u64)>> = vec![Vec::new(); CYCLE];
    let mut layer = LayerSums::default();
    let start = Instant::now();
    let mut last_end = None;
    let mut i = 0;
    while i < MIN_TASKS || i % CYCLE != 0 || start.elapsed().as_secs_f64() < args.seconds {
        let job = inputs.job(i);
        let engine = if job.is_metric() {
            &engines.metric
        } else {
            &engines.values
        };
        let t0 = Instant::now();
        let built = session(engine, &job);
        let t1 = Instant::now();
        let out = built.and_then(|s| s.run(job.task).map_err(|e| e.to_string()));
        let t2 = Instant::now();
        if let Some(prev) = last_end {
            gaps_ms.push(t0.duration_since(prev).as_secs_f64() * 1e3);
        }
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        task_ms.push(ms(t1, t2));
        caller_ms.push(ms(t0, t2));
        let what = format!("task {i} {:?} {:?} seed {}", job.task, job.noise, job.seed);
        let verdict = out.as_ref().map_err(Clone::clone).map(|o| {
            if job.is_metric() {
                metric_truth.check(job.task, job.noise, &o.answer)
            } else {
                value_truth.check(job.task, job.noise, &o.answer)
            }
        });
        report.tally.record(&what, verdict);
        if let Ok(o) = &out {
            by_class[i % CYCLE].push((o.report.queries, o.report.rounds));
            if args.trace {
                let store = replay_metric_store
                    .as_ref()
                    .expect("traced run has a store");
                let mut ctx = TaskTrace {
                    tracer: &mut tracer,
                    task: i as u64,
                    job,
                    spans: (t0, t1, t2),
                    origin: start,
                };
                layer.add(
                    &mut ctx,
                    o,
                    &inputs.values,
                    store,
                    &engines.metric,
                    &mut report.tally,
                    &what,
                );
            }
        }
        last_end = Some(Instant::now());
        i += 1;
    }

    let tasks = task_ms.len() as f64;
    let class_mean = |f: fn(&(u64, u64)) -> u64| {
        stats::mean(
            &by_class
                .iter()
                .filter(|c| !c.is_empty())
                .map(|c| c.iter().map(f).sum::<u64>() as f64 / c.len() as f64)
                .collect::<Vec<_>>(),
        )
    };
    let queries = class_mean(|c| c.0);
    let rounds = class_mean(|c| c.1);
    let throughput = tasks / (caller_ms.iter().sum::<f64>() / 1e3);
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("tasks_per_s", throughput);
    m.insert("queries_per_task", queries);
    m.insert("rounds_per_task", rounds);
    m.insert("backend_queries_per_request", queries);
    m.insert("valid_share", report.tally.valid_share());
    m.insert("guarantee_share", report.tally.guarantee_share());
    m.insert("max_rate_rps", throughput);
    match (Summary::of(&task_ms), Summary::of(&caller_ms)) {
        (Some(run), Some(caller)) => {
            m.insert("task_ms_p50", run.p50);
            m.insert("task_ms_p90", run.p90);
            m.insert("serve_ms_p50", caller.p50);
            m.insert("serve_ms_p90", caller.p90);
            report.detail.push(run.line("Session::run", "ms"));
            report.detail.push(caller.line("build+run (caller)", "ms"));
        }
        _ => report
            .tally
            .mismatch(format!("too few tasks ({tasks}) for a p90")),
    }
    report.detail.push(format!(
        "{tasks} tasks in {:.2}s; mix-weighted queries/task {queries:.1}, rounds/task {rounds:.1}; \
         guarantee misses {}",
        start.elapsed().as_secs_f64(),
        report.tally.missed
    ));
    if args.trace {
        layer.finish(&tracer, &mut report, median(&build_ms), &gaps_ms, tasks);
        report.tracer = Some(tracer);
    }
    report
}

/// One traced task's context.
struct TaskTrace<'a> {
    tracer: &'a mut Tracer,
    task: u64,
    job: Job,
    /// Client instants: before build, after build, after run.
    spans: (Instant, Instant, Instant),
    origin: Instant,
}

impl TaskTrace<'_> {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }
}

/// Per-layer sums over the traced tasks.
#[derive(Default)]
struct LayerSums {
    tasks: u64,
    metric_tasks: u64,
    family_tasks: Vec<(&'static str, u64)>,
    replay_queries: u64,
    report_queries: u64,
    report_rounds: u64,
    cache_added: u64,
    lookups: u64,
    misses: u64,
}

impl LayerSums {
    #[allow(clippy::too_many_arguments)]
    fn add(
        &mut self,
        ctx: &mut TaskTrace<'_>,
        out: &Outcome,
        values: &[f64],
        store: &TimedMetric,
        metric_engine: &Engine,
        tally: &mut Tally,
        what: &str,
    ) {
        let job = ctx.job;
        let (t0, t1, t2) = ctx.spans;
        let (s0, s1, s2) = (ctx.ns(t0), ctx.ns(t1), ctx.ns(t2));
        let task = ctx.task;
        let tr = &mut *ctx.tracer;
        let root = tr.record("task", task, None, s0, s2);
        tr.record("session.build", task, root, s0, s1);
        let run = tr.record("session.run", task, root, s1, s2);
        if job.is_metric() {
            // `Session::run` scans the cache twice (start and finish);
            // time the same public scan from outside.
            let t = Instant::now();
            std::hint::black_box(metric_engine.cache_entries());
            let scan = t.elapsed().as_nanos() as u64;
            tr.aggregate("session.cache_scan", task, run, 2 * scan);
            self.metric_tasks += 1;
            self.cache_added += out.report.cache_added.unwrap_or(0);
        }
        let replay = |timed: bool| -> Replay {
            if job.is_metric() {
                replay_metric(job.task, job.noise, store, job.seed, timed)
            } else {
                replay_value(job.task, job.noise, values, job.seed, timed)
            }
        };
        let p0 = tr.now();
        let plain = replay(false);
        let p1 = tr.now();
        tr.record("replay.plain", task, root, p0, p1);
        let (l0, m0, k0) = store.counters();
        store.set_timing(true);
        let c0 = tr.now();
        let timed = replay(true);
        let c1 = tr.now();
        store.set_timing(false);
        let (l1, m1, k1) = store.counters();
        let core = tr.record(job.family(), task, root, c0, c1);
        let chain = tr.aggregate("oracle.chain", task, core, timed.chain_ns);
        let raw = tr.aggregate("oracle.raw", task, chain, timed.raw_ns);
        tr.aggregate("metric.dist", task, raw, k1 - k0);
        if job.is_metric() {
            self.lookups += l1 - l0;
            self.misses += m1 - m0;
        }
        for r in [&plain, &timed] {
            if (&r.answer, r.queries, r.rounds)
                != (&out.answer, out.report.queries, out.report.rounds)
            {
                tally.mismatch(format!(
                    "{what}: replay gave {} queries / {} rounds vs session {} / {}",
                    r.queries, r.rounds, out.report.queries, out.report.rounds
                ));
            }
        }
        self.tasks += 1;
        self.replay_queries += timed.queries;
        self.report_queries += out.report.queries;
        self.report_rounds += out.report.rounds;
        match self
            .family_tasks
            .iter_mut()
            .find(|(f, _)| *f == job.family())
        {
            Some(entry) => entry.1 += 1,
            None => self.family_tasks.push((job.family(), 1)),
        }
    }

    fn finish(
        &self,
        tracer: &Tracer,
        report: &mut Report,
        build_ms: f64,
        gaps_ms: &[f64],
        tasks: f64,
    ) {
        let spans = tracer.spans();
        let selfs = trace::self_times(spans);
        let ms = |ns: u64| ns as f64 / 1e6;
        let m = &mut report.metrics;
        let metric_tasks = self.metric_tasks as f64;
        m.insert(
            "metric.dist_evals_per_task",
            ratio(self.cache_added as f64, metric_tasks),
        );
        m.insert(
            "metric.dist_ms_per_task",
            ratio(ms(trace::busy_ns(spans, "metric.dist")), metric_tasks),
        );
        m.insert(
            "metric.cache_hit_ratio",
            ratio((self.lookups - self.misses) as f64, self.lookups as f64),
        );
        m.insert("metric.engine_build_ms", build_ms);
        let q = self.replay_queries as f64;
        m.insert(
            "oracle.raw_ns_per_query",
            ratio(trace::self_ns(spans, &selfs, "oracle.raw") as f64, q),
        );
        m.insert(
            "oracle.chain_ns_per_query",
            ratio(trace::self_ns(spans, &selfs, "oracle.chain") as f64, q),
        );
        m.insert(
            "oracle.queries_per_round",
            ratio(self.report_queries as f64, self.report_rounds as f64),
        );
        for (family, n) in &self.family_tasks {
            let name = match *family {
                "core.maxfind" => "core.maxfind.self_ms_per_task",
                "core.order" => "core.order.self_ms_per_task",
                "core.neighbor" => "core.neighbor.self_ms_per_task",
                _ => "core.kcenter.self_ms_per_task",
            };
            m.insert(name, ms(trace::self_ns(spans, &selfs, family)) / *n as f64);
        }
        let t = self.tasks as f64;
        let plain = trace::busy_ns(spans, "replay.plain");
        m.insert(
            "session.build_ms",
            ms(trace::busy_ns(spans, "session.build")) / t,
        );
        m.insert(
            "session.overhead_ms_per_task",
            (ms(trace::busy_ns(spans, "session.run")) - ms(plain)) / t,
        );
        m.insert(
            "session.cache_scan_ms",
            ratio(
                ms(trace::busy_ns(spans, "session.cache_scan")),
                metric_tasks,
            ),
        );
        let traced: u64 = self
            .family_tasks
            .iter()
            .map(|(f, _)| trace::busy_ns(spans, f))
            .sum();
        m.insert("trace.overhead_ratio", ratio(traced as f64, plain as f64));
        let (p, late) = stats::late_tail(gaps_ms);
        m.insert("loadgen.late_ms_p99", late);
        report.detail.push(format!(
            "traced {tasks} tasks; client gap between tasks reported at p{p}; replays matched \
             Session::run on {} of {} tasks",
            self.tasks - report.tally.mismatched.min(self.tasks),
            self.tasks
        ));
    }
}
