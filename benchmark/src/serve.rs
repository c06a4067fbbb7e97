//! `serve`: the serving plane — queue, worker pool, coalescer and shared
//! memo. A `Server` with 2 workers runs over a cached n = 512 `dblp`
//! template with probabilistic noise (p = 0.1) and a queue that never
//! sheds. Requests are equal shares of `Nearest`, `Farthest` and
//! `KCenter{8}`; half repeat a (task, seed) pair from a pool that set-up
//! runs through the server, half are fresh.
//!
//! The end-to-end figures come from a closed loop with one client per
//! worker: each client submits its next request when its previous `join`
//! returns, so the plane runs at a fixed concurrency. An open loop at
//! 8 req/s runs this plane at ~80% of its capacity on a 2-core host,
//! where queueing spread its p90 by 0.38 of the median across seeds.
//!
//! The traced run adds the open loop: one generator thread submits at
//! Poisson arrival times on the ladder 8, 16, ... 256 req/s and a
//! collector thread hands each handle to a joiner of its own. The ladder
//! stops at the first step whose p90 exceeds 250 ms or whose backlog
//! grows; latency runs from a request's due time to its `join`'s return.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use noisy_oracle::data::{dblp, Dataset};
use noisy_oracle::{
    Engine, NcoError, Noise, Outcome, Request, ServeStats, Server, Session, Task, TaskHandle,
};

use crate::check::MetricTruth;
use crate::loadgen::{
    self, backlog_grows, max_rate, poisson_schedule, step_passes, SplitMix, LADDER, LIMIT_MS,
};
use crate::stats::{self, median, ratio, Summary};
use crate::trace::{self, Tracer};
use crate::{Args, Report, MIN_TASKS};

const N: usize = 512;
const WORKERS: usize = 2;
const QUEUE: usize = 1 << 16;
/// Repeatable (task, seed) pairs per task type.
const POOL: usize = 4;
const SETUPS: usize = 3;
/// Requests the traced run replays solo and on a 1-worker server.
const SOLO_REQUESTS: usize = 120;
const ONE_WORKER_REQUESTS: usize = 48;
/// Upper bound on requests one closed loop can take from its stream.
const STREAM: usize = 20_000;

fn kind(i: usize, q: usize) -> Task {
    match i % 3 {
        0 => Task::Nearest { q },
        1 => Task::Farthest { q },
        _ => Task::KCenter { k: 8 },
    }
}

struct Inputs {
    dataset: Dataset,
    noise: Noise,
    pool: Vec<Request>,
    rng: SplitMix,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5E4E_0001);
        let dataset = dblp(N, rng.next_u64());
        let noise = Noise::Probabilistic {
            p: 0.1,
            seed: rng.next_u64(),
        };
        let pool = (0..3 * POOL)
            .map(|i| Request {
                task: kind(i, rng.below(N)),
                seed: rng.next_u64(),
            })
            .collect();
        Self {
            dataset,
            noise,
            pool,
            rng,
        }
    }

    /// `count` requests: task types in turn, alternating in groups of
    /// three between pool repeats and fresh pairs.
    fn requests(&mut self, count: usize) -> Vec<Request> {
        (0..count)
            .map(|i| {
                let (q, seed) = (self.rng.below(N), self.rng.next_u64());
                if (i / 3) % 2 == 0 {
                    self.pool[(i % 3) + 3 * ((i / 6) % POOL)]
                } else {
                    Request {
                        task: kind(i, q),
                        seed,
                    }
                }
            })
            .collect()
    }
}

fn start_server(engine: &Arc<Engine>, noise: Noise, workers: usize) -> Result<Server, NcoError> {
    let template = Session::builder()
        .engine(engine.clone())
        .noise(noise)
        .build()?;
    Server::builder(template)
        .workers(workers)
        .queue(QUEUE)
        .build()
}

/// One request as its client saw it.
struct Served {
    request: Request,
    /// Closed loop: submit to `join` return. Open loop: due time to
    /// `join` return.
    latency_ms: f64,
    /// Closed loop: the client's gap since its previous request returned.
    /// Open loop: how late the generator submitted against the schedule.
    late_ms: f64,
    outcome: Result<Outcome, NcoError>,
}

/// The requests of one measured phase and the server's counters around it.
struct Phase {
    served: Vec<Served>,
    wall_s: f64,
    before: ServeStats,
    after: ServeStats,
}

impl Phase {
    /// Latencies, with failed requests counted as missing every limit.
    fn latencies(&self) -> Vec<f64> {
        self.served
            .iter()
            .map(|s| {
                if s.outcome.is_ok() {
                    s.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect()
    }

    fn outcomes(&self) -> impl Iterator<Item = &Outcome> {
        self.served.iter().filter_map(|s| s.outcome.as_ref().ok())
    }

    /// `RunReport.wall` of every successful request, in ms.
    fn run_ms(&self) -> Vec<f64> {
        self.outcomes()
            .map(|o| o.report.wall.as_secs_f64() * 1e3)
            .collect()
    }

    fn delta(&self, f: fn(&ServeStats) -> u64) -> f64 {
        (f(&self.after) - f(&self.before)) as f64
    }
}

/// `clients` closed-loop clients take requests from `requests` in order
/// until `seconds` have passed and at least `min` were taken.
fn closed_loop(
    server: &Server,
    clients: usize,
    requests: &[Request],
    seconds: f64,
    min: usize,
) -> Phase {
    let before = server.stats();
    let next = &AtomicUsize::new(0);
    let start = Instant::now();
    let mut served: Vec<(usize, Served)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut last_end = None;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let done = i >= min && start.elapsed().as_secs_f64() >= seconds;
                        if done || i >= requests.len() {
                            return out;
                        }
                        let t0 = Instant::now();
                        let outcome = server.submit(requests[i]).and_then(TaskHandle::join);
                        let t1 = Instant::now();
                        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
                        out.push((
                            i,
                            Served {
                                request: requests[i],
                                latency_ms: ms(t0, t1),
                                late_ms: last_end.map_or(0.0, |e| ms(e, t0)),
                                outcome,
                            },
                        ));
                        last_end = Some(Instant::now());
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    served.sort_by_key(|(i, _)| *i);
    Phase {
        served: served.into_iter().map(|(_, s)| s).collect(),
        wall_s: start.elapsed().as_secs_f64(),
        before,
        after: server.stats(),
    }
}

/// Offers `requests` at `due` (seconds from the step's start) and
/// returns the phase plus the requests in flight at each submission.
/// The collector hands each handle to a joiner of its own, so a
/// request's completion is observed when it happens, not when every
/// earlier request has been joined.
fn open_step(server: &Server, due: &[f64], requests: &[Request]) -> (Phase, Vec<usize>) {
    let before = server.stats();
    let joined = &AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Result<TaskHandle, NcoError>)>();
    let t0 = Instant::now() + Duration::from_millis(5);
    let (served, in_flight) = std::thread::scope(|s| {
        let collector = s.spawn(move || {
            let joiners: Vec<_> = rx
                .into_iter()
                .map(|(i, due_at, submitted, handle)| {
                    s.spawn(move || {
                        let outcome = handle.and_then(TaskHandle::join);
                        let end = Instant::now();
                        joined.fetch_add(1, Ordering::Relaxed);
                        let ms = |a: Instant, b: Instant| {
                            b.saturating_duration_since(a).as_secs_f64() * 1e3
                        };
                        Served {
                            request: requests[i],
                            latency_ms: ms(due_at, end),
                            late_ms: ms(due_at, submitted),
                            outcome,
                        }
                    })
                })
                .collect();
            joiners
                .into_iter()
                .map(|j| j.join().expect("joiner thread panicked"))
                .collect::<Vec<_>>()
        });
        let generator = s.spawn(move || {
            let mut in_flight = Vec::with_capacity(requests.len());
            for (i, (&d, &request)) in due.iter().zip(requests).enumerate() {
                let due_at = t0 + Duration::from_secs_f64(d);
                let now = Instant::now();
                if due_at > now {
                    std::thread::sleep(due_at - now);
                }
                in_flight.push(i - joined.load(Ordering::Relaxed));
                let submitted = Instant::now();
                let handle = server.submit(request);
                tx.send((i, due_at, submitted, handle))
                    .expect("the collector outlives the generator");
            }
            in_flight
        });
        let in_flight = generator.join().expect("generator thread panicked");
        let served = collector.join().expect("collector thread panicked");
        (served, in_flight)
    });
    let phase = Phase {
        served,
        wall_s: t0.elapsed().as_secs_f64(),
        before,
        after: server.stats(),
    };
    (phase, in_flight)
}

fn check_all(
    report: &mut Report,
    truth: &mut MetricTruth<noisy_oracle::data::AnyMetric>,
    noise: Noise,
    phase: &Phase,
    label: &str,
) {
    for s in &phase.served {
        let what = format!("{label} {:?} seed {}", s.request.task, s.request.seed);
        let verdict = s
            .outcome
            .as_ref()
            .map_err(ToString::to_string)
            .map(|o| truth.check(s.request.task, noise, &o.answer));
        report.tally.record(&what, verdict);
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut inputs = Inputs::new(args.seed);
    let mut truth = MetricTruth::new(inputs.dataset.metric.clone());
    let stream = inputs.requests(STREAM);

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut live: Option<(Server, Arc<Engine>)> = None;
    for _ in 0..SETUPS {
        if let Some((old, _)) = live.take() {
            old.shutdown();
        }
        let t = Instant::now();
        let engine = Engine::from_dataset(&inputs.dataset, true);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let server = match start_server(&engine, inputs.noise, WORKERS) {
            Ok(s) => s,
            Err(e) => {
                report.tally.record("setup", Err(e.to_string()));
                return report;
            }
        };
        let handles: Vec<_> = inputs.pool.iter().map(|&r| server.submit(r)).collect();
        for h in handles {
            if let Err(e) = h.and_then(TaskHandle::join) {
                report.tally.record("setup warm-up", Err(e.to_string()));
                return report;
            }
        }
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((server, engine));
    }
    let (server, engine) = live.expect("at least one setup");

    let phase = closed_loop(&server, WORKERS, &stream, args.seconds, MIN_TASKS);
    check_all(&mut report, &mut truth, inputs.noise, &phase, "closed loop");
    let n = phase.served.len() as f64;
    let throughput = n / phase.wall_s;
    let outcomes: Vec<&Outcome> = phase.outcomes().collect();
    let sum = |f: fn(&Outcome) -> u64| outcomes.iter().map(|o| f(o)).sum::<u64>() as f64;
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("tasks_per_s", throughput);
    m.insert("max_rate_rps", throughput);
    m.insert(
        "queries_per_task",
        ratio(sum(|o| o.report.queries), outcomes.len() as f64),
    );
    m.insert(
        "rounds_per_task",
        ratio(sum(|o| o.report.rounds), outcomes.len() as f64),
    );
    m.insert(
        "backend_queries_per_request",
        ratio(phase.delta(|s| s.backend_queries), n),
    );
    m.insert("valid_share", report.tally.valid_share());
    m.insert("guarantee_share", report.tally.guarantee_share());
    match (
        Summary::of(&phase.latencies()),
        Summary::of(&phase.run_ms()),
    ) {
        (Some(lat), Some(run)) => {
            m.insert("serve_ms_p50", lat.p50);
            m.insert("serve_ms_p90", lat.p90);
            m.insert("task_ms_p50", run.p50);
            m.insert("task_ms_p90", run.p90);
            report
                .detail
                .push(lat.line("latency (submit -> join)", "ms"));
            report.detail.push(run.line("RunReport.wall", "ms"));
        }
        _ => report
            .tally
            .mismatch(format!("too few requests ({n}) for a p90")),
    }
    for (name, pick) in [("Nearest", 0usize), ("Farthest", 1), ("KCenter{8}", 2)] {
        let of = |s: &&Served| match s.request.task {
            Task::Nearest { .. } => pick == 0,
            Task::Farthest { .. } => pick == 1,
            _ => pick == 2,
        };
        let lat: Vec<f64> = phase
            .served
            .iter()
            .filter(of)
            .map(|s| s.latency_ms)
            .collect();
        if !lat.is_empty() {
            report.detail.push(format!(
                "{name}: latency p50 {:.2} ms, n={}",
                median(&lat),
                lat.len()
            ));
        }
    }
    report.detail.push(format!(
        "closed loop: {n} requests in {:.2}s from {WORKERS} clients on {WORKERS} workers, nproc \
         {}; guarantee misses {}",
        phase.wall_s,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        report.tally.missed
    ));

    // Free the closed loop's memo before the traced run builds its own
    // servers.
    server.shutdown();
    drop(server);
    if args.trace {
        traced(
            &mut report,
            &mut inputs,
            &mut truth,
            &phase,
            &engine,
            median(&build_ms),
            args.seconds,
        );
    }
    report
}

/// Per-layer readings of the closed loop (queue wait, worker execution
/// against solo runs and a 1-worker server, memo and coalescer), plus
/// the open-loop ladder for the load generator's own figures.
fn traced(
    report: &mut Report,
    inputs: &mut Inputs,
    truth: &mut MetricTruth<noisy_oracle::data::AnyMetric>,
    phase: &Phase,
    engine: &Arc<Engine>,
    build_ms: f64,
    seconds: f64,
) {
    let noise = inputs.noise;
    let mut tr = Tracer::new(true);
    let mut wait = Vec::new();
    for (i, s) in phase.served.iter().enumerate() {
        let Ok(o) = &s.outcome else { continue };
        let root = tr.aggregate("request", i as u64, None, (s.latency_ms * 1e6) as u64);
        tr.aggregate("serve.run", i as u64, root, o.report.wall.as_nanos() as u64);
        wait.push(s.latency_ms - o.report.wall.as_secs_f64() * 1e3);
    }

    // Solo runs of the same requests on the same engine must match the
    // served answers and bills.
    let mut solo_ms = Vec::new();
    for s in phase.served.iter().take(SOLO_REQUESTS) {
        let Ok(served) = &s.outcome else { continue };
        let t = Instant::now();
        let solo = Session::builder()
            .engine(engine.clone())
            .noise(noise)
            .seed(s.request.seed)
            .build()
            .and_then(|sess| sess.run(s.request.task));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let start = tr.now();
        tr.record(
            "solo.run",
            s.request.seed,
            None,
            start,
            start + (ms * 1e6) as u64,
        );
        solo_ms.push(ms);
        match solo {
            Ok(o)
                if (&o.answer, o.report.queries, o.report.rounds)
                    == (&served.answer, served.report.queries, served.report.rounds) => {}
            _ => report.tally.mismatch(format!(
                "{:?} seed {}: served outcome differs from a solo run",
                s.request.task, s.request.seed
            )),
        }
    }
    let one = start_server(engine, noise, 1).expect("template validated at set-up");
    let requests: Vec<Request> = phase.served.iter().map(|s| s.request).collect();
    let one_phase = closed_loop(&one, 1, &requests, 0.0, ONE_WORKER_REQUESTS);
    one.shutdown();

    // The open loop: Poisson arrivals up the rate ladder, on a server
    // whose memo holds only the warmed pool, as after set-up.
    let server = start_server(engine, noise, WORKERS).expect("template validated at set-up");
    let handles: Vec<_> = inputs.pool.iter().map(|&r| server.submit(r)).collect();
    for h in handles {
        if let Err(e) = h.and_then(TaskHandle::join) {
            report.tally.record("open-loop warm-up", Err(e.to_string()));
        }
    }
    let per_step = loadgen::step_requests(seconds, MIN_TASKS);
    let mut ladder = Vec::new();
    let mut late = Vec::new();
    let mut open_p90_8 = None;
    for &rate in &LADDER {
        let due = poisson_schedule(inputs.rng.next_u64(), rate, per_step);
        let requests = inputs.requests(per_step);
        let (step, in_flight) = open_step(&server, &due, &requests);
        check_all(report, truth, noise, &step, &format!("{rate} req/s"));
        late.extend(step.served.iter().map(|s| s.late_ms));
        let mut lat = step.latencies();
        lat.sort_by(f64::total_cmp);
        let p90 = stats::smoothed(&lat, 90.0);
        open_p90_8.get_or_insert(p90);
        let grew = backlog_grows(&in_flight);
        let passed = step_passes(p90, LIMIT_MS, grew);
        report.detail.push(format!(
            "open loop {rate} req/s: n={} p50={:.2}ms p90={p90:.2}ms backlog_grew={grew} \
             wall={:.2}s -> {}",
            lat.len(),
            stats::smoothed(&lat, 50.0),
            step.wall_s,
            if passed { "pass" } else { "stop" }
        ));
        ladder.push((rate, p90, passed));
        if !passed {
            break;
        }
    }
    server.shutdown();

    let spans = tr.spans();
    let selfs = trace::self_times(spans);
    let run_p50 = median(&phase.run_ms());
    let outcomes: Vec<&Outcome> = phase.outcomes().collect();
    let added: u64 = outcomes
        .iter()
        .map(|o| o.report.cache_added.unwrap_or(0))
        .sum();
    let queries: u64 = outcomes.iter().map(|o| o.report.queries).sum();
    let rounds: u64 = outcomes.iter().map(|o| o.report.rounds).sum();
    let m = &mut report.metrics;
    m.insert("metric.engine_build_ms", build_ms);
    m.insert(
        "metric.dist_evals_per_task",
        ratio(added as f64, outcomes.len() as f64),
    );
    m.insert(
        "metric.cache_hit_ratio",
        stats::estimated_hit_ratio(queries, added),
    );
    m.insert(
        "oracle.queries_per_round",
        ratio(queries as f64, rounds as f64),
    );
    wait.sort_by(f64::total_cmp);
    if !wait.is_empty() {
        m.insert("serve.wait_ms_p50", stats::smoothed(&wait, 50.0));
        m.insert("serve.wait_ms_p90", stats::smoothed(&wait, 90.0));
    }
    m.insert("serve.run_ms_p50", run_p50);
    m.insert("serve.run_ms_p50_1worker", median(&one_phase.run_ms()));
    m.insert("serve.run_over_solo", ratio(run_p50, median(&solo_ms)));
    let hits = phase.delta(|s| s.memo_hits);
    m.insert(
        "serve.memo_hit_ratio",
        ratio(hits, hits + phase.delta(|s| s.backend_queries)),
    );
    m.insert(
        "serve.coalesced_round_share",
        ratio(
            phase.delta(|s| s.coalesced_rounds),
            phase.delta(|s| s.backend_rounds),
        ),
    );
    m.insert(
        "serve.backend_rounds_per_request",
        ratio(phase.delta(|s| s.backend_rounds), phase.served.len() as f64),
    );
    let (p, late) = stats::late_tail(&late);
    m.insert("loadgen.late_ms_p99", late);
    m.insert("loadgen.open_ms_p90_8rps", open_p90_8.unwrap_or(f64::NAN));
    m.insert(
        "loadgen.max_rate_rps",
        max_rate(&ladder, LIMIT_MS).unwrap_or(0.0),
    );
    let wall = trace::busy_ns(spans, "request") as f64;
    m.insert(
        "trace.overhead_ratio",
        1.0 + ratio(tr.own_ns() as f64, wall),
    );
    let queue_ns = trace::self_ns(spans, &selfs, "request");
    report.detail.push(format!(
        "traced: mean wait outside the worker {:.2} ms/request; served run p50 {run_p50:.3} ms \
         vs solo p50 {:.3} ms over {} requests; 1-worker run p50 {:.3} ms over {} requests; \
         open-loop lateness at p{p}; highest rate within {LIMIT_MS} ms: {:?} req/s",
        ratio(queue_ns as f64 / 1e6, outcomes.len() as f64),
        median(&solo_ms),
        solo_ms.len(),
        median(&one_phase.run_ms()),
        one_phase.served.len(),
        max_rate(&ladder, LIMIT_MS),
    ));
    report.tracer = Some(tr);
}
