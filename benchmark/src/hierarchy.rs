//! `hierarchy`: the paper's costliest operation. A closed loop with one
//! client; each task builds a cold cached `Engine` over a pre-generated
//! n = 512 corpus (mostly `dblp`, plus `caltech` and `amazon` tree
//! metrics) and runs `Task::Hierarchy`, alternating single and complete
//! linkage, with noise rotating through probabilistic (p = 0.05),
//! adversarial (mu = 0.1) and a 3-worker `caltech_like` crowd. Every
//! other knob stays at the session defaults.

use std::sync::Arc;
use std::time::Instant;

use noisy_oracle::core::hier::{hier_exact, Linkage};
use noisy_oracle::data::{amazon, caltech, dblp, AnyMetric, Dataset};
use noisy_oracle::oracle::crowd::AccuracyProfile;
use noisy_oracle::{Engine, Noise, Outcome, Session, Task};

use crate::check::MetricTruth;
use crate::loadgen::SplitMix;
use crate::stats::{self, median, ratio, Summary};
use crate::trace::{self, Tracer};
use crate::{Args, Report, MIN_TASKS};

const N: usize = 512;
/// Corpus kinds of the pool; seven is coprime with the two linkages and
/// three noise models, so every combination recurs.
const CORPORA: [&str; 7] = ["dblp", "dblp", "caltech", "dblp", "dblp", "amazon", "dblp"];
const LINKAGES: [Linkage; 2] = [Linkage::Single, Linkage::Complete];
/// Tasks per balanced block of linkage x noise.
const BLOCK: usize = 6;
const SETUPS: usize = 3;

fn noise(i: usize, seed: u64) -> Noise {
    match i % 3 {
        0 => Noise::Probabilistic { p: 0.05, seed },
        1 => Noise::Adversarial { mu: 0.1 },
        _ => Noise::Crowd {
            profile: AccuracyProfile::caltech_like(),
            workers: 3,
            seed,
        },
    }
}

/// One hierarchy task, as the client times it.
struct TaskRun {
    outcome: Result<Outcome, String>,
    build_ms: f64,
    session_ms: f64,
    run_ms: f64,
    engine: Arc<Engine>,
}

fn run_task(data: &Dataset, noise: Noise, seed: u64, linkage: Linkage) -> TaskRun {
    let t0 = Instant::now();
    let engine = Engine::from_dataset(data, true);
    let t1 = Instant::now();
    let session = Session::builder()
        .engine(engine.clone())
        .noise(noise)
        .seed(seed)
        .build();
    let t2 = Instant::now();
    let outcome = session
        .and_then(|s| s.run(Task::Hierarchy { linkage }))
        .map_err(|e| e.to_string());
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
    TaskRun {
        outcome,
        build_ms: ms(t0, t1),
        session_ms: ms(t1, t2),
        run_ms: ms(t2, t3),
        engine,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut rng = SplitMix::new(args.seed ^ 0x41E7_A2C4);
    let corpora: Vec<Dataset> = CORPORA
        .iter()
        .map(|kind| {
            let s = rng.next_u64();
            match *kind {
                "dblp" => dblp(N, s),
                "caltech" => caltech(N, s),
                _ => amazon(N, s),
            }
        })
        .collect();
    let mut truths: Vec<MetricTruth<AnyMetric>> = corpora
        .iter()
        .map(|d| {
            let mut t = MetricTruth::new(d.metric.clone());
            for linkage in LINKAGES {
                t.set_exact_hierarchy(linkage, &hier_exact(&d.metric, linkage));
            }
            t
        })
        .collect();
    let mut stream = rng.fork(0x417E);

    // Set-up: one untimed task, so lazy process state (allocator arenas,
    // page faults, instruction caches) is paid before timing starts.
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let warm = run_task(&corpora[0], noise(0, 1), 1, Linkage::Single);
        setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm.outcome {
            report.tally.record("setup", Err(e));
            return report;
        }
    }

    let mut tracer = Tracer::new(args.trace);
    let mut task_ms = Vec::new();
    let mut caller_ms = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut sums = Sums::default();
    let start = Instant::now();
    let mut last_end = None;
    let mut i = 0;
    while i < MIN_TASKS || i % BLOCK != 0 || start.elapsed().as_secs_f64() < args.seconds {
        let c = i % CORPORA.len();
        let linkage = LINKAGES[i % 2];
        let noise = noise(i, stream.next_u64());
        let seed = stream.next_u64();
        let t0 = Instant::now();
        if let Some(prev) = last_end {
            gaps_ms.push(t0.duration_since(prev).as_secs_f64() * 1e3);
        }
        let timed = run_task(&corpora[c], noise, seed, linkage);
        let t1 = Instant::now();
        task_ms.push(timed.run_ms);
        caller_ms.push(timed.build_ms + timed.session_ms + timed.run_ms);
        let what = format!("task {i} {} {linkage:?} {noise:?} seed {seed}", CORPORA[c]);
        let verdict = timed
            .outcome
            .as_ref()
            .map_err(Clone::clone)
            .map(|o| truths[c].check(Task::Hierarchy { linkage }, noise, &o.answer));
        report.tally.record(&what, verdict);
        if let Ok(o) = &timed.outcome {
            sums.queries += o.report.queries;
            sums.rounds += o.report.rounds;
            sums.tasks += 1;
            if args.trace {
                sums.trace(
                    &mut tracer,
                    i as u64,
                    start,
                    (t0, t1),
                    &timed,
                    o,
                    noise,
                    seed,
                    linkage,
                    &mut report,
                    &what,
                );
            }
        }
        last_end = Some(Instant::now());
        i += 1;
    }

    let tasks = task_ms.len() as f64;
    let per_task = |x: u64| ratio(x as f64, sums.tasks as f64);
    let throughput = tasks / (caller_ms.iter().sum::<f64>() / 1e3);
    let m = &mut report.metrics;
    m.insert("setup_s", median(&setup_s));
    m.insert("tasks_per_s", throughput);
    m.insert("max_rate_rps", throughput);
    m.insert("queries_per_task", per_task(sums.queries));
    m.insert("backend_queries_per_request", per_task(sums.queries));
    m.insert("rounds_per_task", per_task(sums.rounds));
    m.insert("valid_share", report.tally.valid_share());
    m.insert("guarantee_share", report.tally.guarantee_share());
    match (Summary::of(&task_ms), Summary::of(&caller_ms)) {
        (Some(run), Some(caller)) => {
            m.insert("task_ms_p50", run.p50);
            m.insert("task_ms_p90", run.p90);
            m.insert("serve_ms_p50", caller.p50);
            m.insert("serve_ms_p90", caller.p90);
            report.detail.push(run.line("Session::run", "ms"));
            report
                .detail
                .push(caller.line("engine build+session build+run (caller)", "ms"));
        }
        _ => report
            .tally
            .mismatch(format!("too few tasks ({tasks}) for a p90")),
    }
    report.detail.push(format!(
        "{tasks} tasks in {:.2}s over {} corpora; set-up median {:.3}s; guarantee misses {}",
        start.elapsed().as_secs_f64(),
        CORPORA.len(),
        median(&setup_s),
        report.tally.missed
    ));
    if args.trace {
        sums.finish(&tracer, &mut report, &gaps_ms);
        report.tracer = Some(tracer);
    }
    report
}

#[derive(Default)]
struct Sums {
    tasks: u64,
    queries: u64,
    rounds: u64,
    traced: u64,
    cache_added: u64,
    engine_build_ms: f64,
    plane: [u64; 8],
}

impl Sums {
    /// Records one traced task's spans. The cold run's distance work is
    /// measured by re-running the same task on the now-warm engine: the
    /// re-run must match bit for bit, and the wall-time difference is
    /// what computing and caching the distances cost.
    #[allow(clippy::too_many_arguments)]
    fn trace(
        &mut self,
        tr: &mut Tracer,
        task: u64,
        origin: Instant,
        (t0, t1): (Instant, Instant),
        cold: &TaskRun,
        out: &Outcome,
        noise: Noise,
        seed: u64,
        linkage: Linkage,
        report: &mut Report,
        what: &str,
    ) {
        let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
        let ms_ns = |ms: f64| (ms * 1e6) as u64;
        let (s0, s3) = (ns(t0), ns(t1));
        let s1 = s0 + ms_ns(cold.build_ms);
        let s2 = s1 + ms_ns(cold.session_ms);
        let root = tr.record("task", task, None, s0, s3);
        tr.record("metric.engine_build", task, root, s0, s1);
        tr.record("session.build", task, root, s1, s2);
        let run = tr.record("session.run", task, root, s2, s2 + ms_ns(cold.run_ms));
        let scan_t = Instant::now();
        std::hint::black_box(cold.engine.cache_entries());
        let scan = scan_t.elapsed().as_nanos() as u64;
        tr.aggregate("session.cache_scan", task, run, 2 * scan);
        let w0 = Instant::now();
        let warm = Session::builder()
            .engine(cold.engine.clone())
            .noise(noise)
            .seed(seed)
            .build()
            .and_then(|s| s.run(Task::Hierarchy { linkage }));
        let warm_ms = w0.elapsed().as_secs_f64() * 1e3;
        tr.record(
            "session.run.warm",
            task,
            None,
            ns(w0),
            ns(w0) + ms_ns(warm_ms),
        );
        match warm {
            Ok(w)
                if (&w.answer, w.report.queries, w.report.rounds)
                    == (&out.answer, out.report.queries, out.report.rounds) => {}
            _ => report
                .tally
                .mismatch(format!("{what}: warm re-run differs from the cold run")),
        }
        tr.aggregate(
            "metric.dist",
            task,
            run,
            ms_ns((cold.run_ms - warm_ms).max(0.0)),
        );
        self.traced += 1;
        self.cache_added += out.report.cache_added.unwrap_or(0);
        self.engine_build_ms += cold.build_ms;
        if let Some(p) = &out.report.merge_plane {
            let fields = [
                p.full_sweeps,
                p.dirty_candidates,
                p.repaired_pointers,
                p.bucket_duels,
                p.pool_duels,
                p.scaffold_hits,
                p.repair_contests,
                p.repair_fallbacks,
            ];
            for (s, f) in self.plane.iter_mut().zip(fields) {
                *s += f;
            }
        }
    }

    fn finish(&self, tr: &Tracer, report: &mut Report, gaps_ms: &[f64]) {
        let spans = tr.spans();
        let t = self.traced as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let m = &mut report.metrics;
        m.insert(
            "metric.dist_evals_per_task",
            ratio(self.cache_added as f64, t),
        );
        m.insert(
            "metric.dist_ms_per_task",
            ratio(ms(trace::busy_ns(spans, "metric.dist")), t),
        );
        m.insert(
            "metric.cache_hit_ratio",
            stats::estimated_hit_ratio(self.queries, self.cache_added),
        );
        m.insert("metric.engine_build_ms", ratio(self.engine_build_ms, t));
        m.insert(
            "oracle.queries_per_round",
            ratio(self.queries as f64, self.rounds as f64),
        );
        let names = [
            "core.hier.full_sweeps_per_task",
            "core.hier.dirty_candidates_per_task",
            "core.hier.repaired_pointers_per_task",
            "core.hier.bucket_duels_per_task",
            "core.hier.pool_duels_per_task",
            "core.hier.scaffold_hits_per_task",
        ];
        for (name, &sum) in names.iter().zip(&self.plane) {
            m.insert(name, ratio(sum as f64, t));
        }
        let (contests, fallbacks) = (self.plane[6] as f64, self.plane[7] as f64);
        m.insert(
            "core.hier.repair_fallback_share",
            ratio(fallbacks, contests + fallbacks),
        );
        m.insert(
            "session.build_ms",
            ratio(ms(trace::busy_ns(spans, "session.build")), t),
        );
        // No replay may bypass the session on this workload, so its
        // measurable overhead is the two cache scans.
        let scans = ratio(ms(trace::busy_ns(spans, "session.cache_scan")), t);
        m.insert("session.overhead_ms_per_task", scans);
        m.insert("session.cache_scan_ms", scans);
        let wall = ms(trace::busy_ns(spans, "task"));
        m.insert("trace.overhead_ratio", 1.0 + ratio(ms(tr.own_ns()), wall));
        let (p, late) = stats::late_tail(gaps_ms);
        m.insert("loadgen.late_ms_p99", late);
        report.detail.push(format!(
            "traced {t} tasks; warm re-runs matched the cold runs on {} of them; client gap at p{p}",
            self.traced - report.tally.mismatched.min(self.traced)
        ));
    }
}
