//! The concurrent serving plane: one engine, many in-flight requests.
//!
//! A [`Server`] is an async-style front door over an immutable
//! [`crate::Engine`]: callers [`submit`](Server::submit) typed
//! [`Request`]s and get [`TaskHandle`]s back; a small worker pool drains
//! the queue. Two mechanisms make concurrent serving cheaper than
//! running the same requests one by one:
//!
//! * **A shared exact answer memo** — every request's oracle rounds go
//!   straight to one shared backend, a [`MemoOracle`] over the
//!   session's (persistent) noise model, so a query any request has
//!   asked before is answered for free, across requests. Per-request
//!   accounting is unchanged: each request bills the queries and rounds
//!   *it issued*, exactly as a solo [`crate::Session::run`] would
//!   (pinned in `tests/serve_plane.rs`).
//! * **Budget pooling with admission control** — an optional
//!   [`BudgetPool`] caps the total queries the server will issue across
//!   all requests. Admission is all-or-nothing per round: a refused
//!   round spends nothing, and the starved request fails typed with
//!   [`NcoError::BudgetExceeded`] instead of dragging the pool negative.
//!   A full submission queue sheds with [`NcoError::Overloaded`] rather
//!   than queueing unboundedly.
//!
//! The plane is also fault-isolated. The shared backend carries the
//! template's [`FaultPlan`] under a [`Retrying`] recovery layer, so
//! injected oracle faults are masked (and billed) at the backend without
//! per-request involvement; a fault that outlives the policy fails the
//! affected requests typed with [`NcoError::OracleFailed`]. Each worker
//! runs its request under `catch_unwind`: a panicking request returns
//! [`NcoError::Panicked`] to its submitter while the worker rejoins the
//! pool. A backend round runs on the thread of the request that issued
//! it, so a panic inside it unwinds that request only, and every shared
//! lock recovers from poisoning. Per-request deadlines
//! ([`crate::SessionBuilder::deadline`] on the template) kill overdue
//! requests with [`NcoError::DeadlineExceeded`], partial accounting
//! preserved.
//!
//! The plane inherits the session layer's adaptive noise surface: when
//! the template enables [`crate::SessionBuilder::probe_noise`], every
//! request carries its own billed probe plane (seeded per request) and
//! applies the same misspecification guard — and, under
//! [`crate::SessionBuilder::adapt_noise`] with
//! [`crate::AdaptPolicy::Escalate`], the same parameter-escalating
//! re-run — that a solo session would. With
//! [`ServerBuilder::degrade_to_partials`], a request killed by its
//! deadline, its budget, or the pool degrades to a best-effort
//! [`crate::PartialOutcome`] inside its typed error instead of
//! shedding plain.
//!
//! ```
//! use noisy_oracle::{Noise, Request, Server, Session, Task};
//!
//! let template = Session::builder()
//!     .values((1..=64).map(f64::from).collect())
//!     .noise(Noise::Probabilistic { p: 0.1, seed: 5 })
//!     .build()?;
//! let server = Server::builder(template).workers(2).build()?;
//!
//! let handles: Vec<_> = (0..4)
//!     .map(|seed| server.submit(Request { task: Task::Max, seed }).unwrap())
//!     .collect();
//! for h in handles {
//!     let outcome = h.join()?;
//!     assert!(outcome.answer.item().is_some());
//! }
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 4);
//! # Ok::<(), noisy_oracle::NcoError>(())
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use nco_core::hier::MergePlaneStats;
use nco_oracle::budget::{BudgetPool, Budgeted, OVER_BUDGET_ANSWER};
use nco_oracle::fault::{FaultPlan, FaultyOracle, QueryFault, RetryPolicy, Retrying};
use nco_oracle::persistent::PersistentNoise;
use nco_oracle::{ComparisonOracle, Counting, MemoOracle, ProbeOracle, QuadrupletOracle};

use crate::error::NcoError;
use crate::report::Outcome;
use crate::session::{Meters, RunCtx, Session};
use crate::task::{Answer, PartialOutcome, Task};

/// Locks a mutex, recovering from poisoning: a request that panicked
/// while holding a shared lock must not wedge the rest of the plane. The
/// guarded structures keep their invariants on unwind — the memo fills
/// its cache only after the inner oracle returns, and the meters at
/// worst over-count the aborted round (`Counting` bills, and the memo
/// tallies its lookups, before the inner call) — so the data is safe to
/// reuse.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Best-effort human-readable panic payload for [`NcoError::Panicked`].
fn panic_reason(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

// ---------------------------------------------------------------------
// Boxed backend oracles.
//
// The shared backend must be `'static` (it outlives any request), so the
// session's noise oracle is built boxed over an engine handle. The
// manual `PersistentNoise` impls are sound because the boxes only ever
// hold the shipped persistent models (`Session::boxed_*_backend`).
// ---------------------------------------------------------------------

struct BoxedQuad(Box<dyn QuadrupletOracle + Send>);

impl QuadrupletOracle for BoxedQuad {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.0.le(a, b, c, d)
    }

    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        self.0.le_batch(queries, out);
    }

    fn try_le(&mut self, a: usize, b: usize, c: usize, d: usize) -> Result<bool, QueryFault> {
        self.0.try_le(a, b, c, d)
    }

    fn try_le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<Result<bool, QueryFault>>) {
        self.0.try_le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.0.doomed()
    }
}

impl PersistentNoise for BoxedQuad {}

struct BoxedCmp(Box<dyn ComparisonOracle + Send>);

impl ComparisonOracle for BoxedCmp {
    fn n(&self) -> usize {
        self.0.n()
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        self.0.le(i, j)
    }

    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        self.0.le_batch(queries, out);
    }

    fn try_le(&mut self, i: usize, j: usize) -> Result<bool, QueryFault> {
        self.0.try_le(i, j)
    }

    fn try_le_batch(
        &mut self,
        queries: &[(usize, usize)],
        out: &mut Vec<Result<bool, QueryFault>>,
    ) {
        self.0.try_le_batch(queries, out);
    }

    fn doomed(&self) -> bool {
        self.0.doomed()
    }
}

impl PersistentNoise for BoxedCmp {}

// ---------------------------------------------------------------------
// Per-request oracle adapters.
// ---------------------------------------------------------------------

// The shared backend chain, inside out: the template's fault plan wraps
// the raw boxed oracle, the counter bills every ask (retries included),
// the retry layer masks faults the policy can absorb, and the memo
// dedups across requests — so a memo hit never spends a retry and a
// faulted lane is never cached.
type Backend<X> = MemoOracle<Retrying<Counting<FaultyOracle<X>>>>;
type QuadBackend = Backend<BoxedQuad>;
type CmpBackend = Backend<BoxedCmp>;

fn shared_backend<X: PersistentNoise>(
    raw: X,
    plan: FaultPlan,
    policy: RetryPolicy,
) -> Mutex<Backend<X>> {
    let retrying = Retrying::new(Counting::new(FaultyOracle::new(raw, plan)), policy);
    Mutex::new(MemoOracle::new(retrying))
}

/// The shared backend of the engine's one oracle plane: quadruplets for
/// a metric engine, comparisons for a value engine.
enum SharedBackend {
    Quad(Mutex<QuadBackend>),
    Cmp(Mutex<CmpBackend>),
}

/// The oracle view one request has of the shared plane over backend `B`:
/// rounds go pool admission → shared memoised backend. Wrapped in a
/// per-request [`Budgeted`] by the worker, so the request's own meters
/// tick exactly as in a solo run.
struct Served<'a, B> {
    n: usize,
    backend: &'a Mutex<B>,
    pool: &'a BudgetPool,
    /// The server-wide count of admitted non-empty rounds.
    rounds: &'a AtomicU64,
    /// Set once the pool refused this request a reservation; from then
    /// on the request is doomed (reported as `BudgetExceeded`) and its
    /// remaining queries get the constant refusal bit.
    starved: bool,
}

impl<B> Served<'_, B> {
    /// Reserves `queries` from the pool, latching starvation on refusal.
    fn admit(&mut self, queries: u64) -> bool {
        if self.starved || !self.pool.try_reserve(queries) {
            self.starved = true;
        }
        !self.starved
    }

    /// Answers one scalar query on the shared backend.
    fn scalar(&mut self, ask: impl FnOnce(&mut B) -> bool) -> bool {
        if !self.admit(1) {
            return OVER_BUDGET_ANSWER;
        }
        ask(&mut relock(self.backend))
    }

    /// Admits one round through the pool and runs it as `exec` on the
    /// shared backend, which appends its answers to `out`.
    ///
    /// Rounds of different requests are not merged into one backend
    /// call: the backend lock serialises execution either way, so a
    /// merge can only save per-call overhead. A group-commit path that
    /// did merge them (a third fewer backend calls at four workers)
    /// took 27–35% longer end to end on a 24-request stream at three
    /// and four workers on a 2-core host.
    fn round<Q>(
        &mut self,
        queries: &[Q],
        out: &mut Vec<bool>,
        exec: fn(&mut B, &[Q], &mut Vec<bool>),
    ) {
        if queries.is_empty() {
            return;
        }
        if !self.admit(queries.len() as u64) {
            out.extend(std::iter::repeat_n(OVER_BUDGET_ANSWER, queries.len()));
            return;
        }
        exec(&mut relock(self.backend), queries, out);
        self.rounds.fetch_add(1, Ordering::Relaxed);
    }
}

impl QuadrupletOracle for Served<'_, QuadBackend> {
    fn n(&self) -> usize {
        self.n
    }

    fn le(&mut self, a: usize, b: usize, c: usize, d: usize) -> bool {
        self.scalar(|backend| backend.le(a, b, c, d))
    }

    fn le_batch(&mut self, queries: &[[usize; 4]], out: &mut Vec<bool>) {
        self.round(queries, out, |backend, qs, res| backend.le_batch(qs, res));
    }

    fn doomed(&self) -> bool {
        // Pool starvation latches at a query boundary like every other
        // kill vector, so the engines' clean-progress watermarks stop
        // advancing and the eventual partial stays a true prefix.
        self.starved
    }
}

impl ComparisonOracle for Served<'_, CmpBackend> {
    fn n(&self) -> usize {
        self.n
    }

    fn le(&mut self, i: usize, j: usize) -> bool {
        self.scalar(|backend| backend.le(i, j))
    }

    fn le_batch(&mut self, queries: &[(usize, usize)], out: &mut Vec<bool>) {
        self.round(queries, out, |backend, qs, res| backend.le_batch(qs, res));
    }

    fn doomed(&self) -> bool {
        self.starved
    }
}

/// The backend answers are a pure function of the query (exact memo over
/// a persistent model); the pool's refusal bit can diverge, but only on
/// requests already doomed to fail typed — the same doomed-run argument
/// as [`Budgeted`]'s `PersistentNoise` impl. Masked backend faults keep
/// the purity: retries re-read the same persistent belief.
impl<B> PersistentNoise for Served<'_, B> {}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// One unit of work for the serving plane: which [`Task`] to run and the
/// rng seed of the per-request session derived from the server's
/// template (everything else — noise, confidence, per-request budget —
/// comes from the template).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The task to run.
    pub task: Task,
    /// Seed of the request's rng stream ([`crate::SessionBuilder::seed`]).
    pub seed: u64,
}

/// A pending request's receipt: [`join`](TaskHandle::join) blocks until
/// the worker pool has produced the result.
#[derive(Debug)]
pub struct TaskHandle {
    rx: Receiver<Result<Outcome, NcoError>>,
}

impl TaskHandle {
    /// Waits for the request to finish and returns its outcome — exactly
    /// what a solo [`crate::Session::run`] of the same task would return
    /// (same answer, same per-request query and round tallies), or a
    /// typed error.
    pub fn join(self) -> Result<Outcome, NcoError> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(NcoError::overloaded(
                "server shut down before the request completed",
            ))
        })
    }
}

struct Job {
    request: Request,
    reply: Sender<Result<Outcome, NcoError>>,
}

struct ServerQueue {
    jobs: VecDeque<Job>,
    open: bool,
}

struct ServerShared {
    template: Session,
    queue: Mutex<ServerQueue>,
    work_ready: Condvar,
    queue_cap: usize,
    pool: BudgetPool,
    backend: SharedBackend,
    /// Admitted non-empty rounds run on the backend.
    backend_rounds: AtomicU64,
    /// Attach best-effort partial answers to killed requests' typed
    /// errors ([`ServerBuilder::degrade_to_partials`]).
    degrade: bool,
    submitted: AtomicU64,
    completed: AtomicU64,
    shed: AtomicU64,
    deadline_kills: AtomicU64,
    panics: AtomicU64,
    probes: AtomicU64,
    adaptations: AtomicU64,
    misspecifications: AtomicU64,
    partial_completions: AtomicU64,
}

/// A snapshot of the shared backend's counters.
struct BackendMeters {
    queries: u64,
    memo_hits: u64,
    retries: u64,
    faults_masked: u64,
    /// `Some(attempt bound)` once the retry layer was exhausted.
    failed: Option<u32>,
}

impl BackendMeters {
    fn read<X: PersistentNoise>(backend: &Mutex<Backend<X>>) -> Self {
        let memo = relock(backend);
        let retrying = memo.inner();
        Self {
            queries: retrying.inner().queries(),
            memo_hits: memo.hits(),
            retries: retrying.retries(),
            faults_masked: retrying.faults_masked(),
            failed: retrying.failed(),
        }
    }
}

impl ServerShared {
    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = relock(&self.queue);
                loop {
                    if let Some(job) = q.jobs.pop_front() {
                        break job;
                    }
                    if !q.open {
                        return;
                    }
                    q = self
                        .work_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Panic isolation: a request that panics (injected fault or
            // engine bug) is converted to a typed error for its own
            // submitter; this worker thread survives and rejoins the
            // pool, and every other in-flight request is unaffected.
            let result = catch_unwind(AssertUnwindSafe(|| self.execute(&job.request)))
                .unwrap_or_else(|payload| {
                    self.panics.fetch_add(1, Ordering::Relaxed);
                    Err(NcoError::Panicked {
                        reason: panic_reason(payload.as_ref()),
                    })
                });
            self.completed.fetch_add(1, Ordering::Relaxed);
            // The submitter may have dropped its handle; that's fine.
            let _ = job.reply.send(result);
        }
    }

    /// The shared backend's counters, whichever plane the engine has.
    /// Its `failed` latch is sticky and server-wide: once any request
    /// drove the retry layer to exhaustion the backend returns
    /// constants, so every request that finishes after it (racing
    /// finishers included — conservative by design) is failed typed
    /// rather than given poisoned answers.
    fn backend(&self) -> BackendMeters {
        match &self.backend {
            SharedBackend::Quad(b) => BackendMeters::read(b),
            SharedBackend::Cmp(b) => BackendMeters::read(b),
        }
    }

    /// Runs one engine attempt for `task` on the engine's backend plane
    /// (`validate()` already matched the task to the engine).
    fn attempt(
        &self,
        session: &Session,
        task: Task,
        scale: f64,
        budget: Option<u64>,
        ctx: &RunCtx,
    ) -> Result<(Answer, Meters), NcoError> {
        match &self.backend {
            SharedBackend::Cmp(backend) => {
                self.served_attempt(session, backend, budget, ctx, |o, p, pl| {
                    session.value_task(task, o, scale, p, pl)
                })
            }
            SharedBackend::Quad(backend) => {
                self.served_attempt(session, backend, budget, ctx, |o, p, pl| {
                    session.quad_task(task, o, scale, p, pl)
                })
            }
        }
    }

    /// One engine pass over a fresh per-request oracle chain: served
    /// backend view (pool admission → shared memoised backend) →
    /// per-request [`Budgeted`] (budget/deadline/cancel) → outermost
    /// [`ProbeOracle`] injecting the session's per-seed probe
    /// plan into the live stream. Probes are billed like every other
    /// query — through the request's budget, the pool, and the shared
    /// backend alike. The backend's failure latch is read into the
    /// meters here, before the escalation decision and the exit see it.
    fn served_attempt<B, R>(
        &self,
        session: &Session,
        backend: &Mutex<B>,
        budget: Option<u64>,
        ctx: &RunCtx,
        run: R,
    ) -> Result<(Answer, Meters), NcoError>
    where
        R: FnOnce(
            &mut ProbeOracle<Budgeted<Served<'_, B>>>,
            &mut Option<PartialOutcome>,
            &mut Option<MergePlaneStats>,
        ) -> Result<Answer, NcoError>,
    {
        let served = Served {
            n: session.engine().n(),
            backend,
            pool: &self.pool,
            rounds: &self.backend_rounds,
            starved: false,
        };
        let probe = session.probe_plan();
        let mut oracle = ProbeOracle::new(session.budgeted(served, budget, ctx), probe);
        let mut m = Meters::default();
        let answer = run(&mut oracle, &mut m.partial, &mut m.merge_plane)?;
        m.read(&oracle, probe.is_active(), oracle.inner());
        m.starved = oracle.inner().inner().starved.then(|| self.pool.cap());
        m.failed = self.backend().failed;
        Ok((answer, m))
    }

    /// Runs one request exactly as a solo [`Session::run`] would —
    /// same escalation rule, same exit — and tallies the outcome into
    /// the server counters.
    fn execute(&self, request: &Request) -> Result<Outcome, NcoError> {
        let session = self.template.with_seed(request.seed);
        session.validate(request.task)?;
        // Per-request deadline/cancellation, measured from the moment a
        // worker picks the request up (queue wait is not billed against
        // the deadline — admission control already bounds the queue).
        let ctx = RunCtx::begin(session.engine());
        // An escalated re-run goes through the same shared backend,
        // which is persistent and memoised, so it resumes the same
        // noise beliefs a solo escalation would.
        let mut passes = 0;
        let result = session.settle(ctx, |scale, budget| {
            let (answer, mut m) = self.attempt(&session, request.task, scale, budget, &ctx)?;
            passes += 1;
            if let Some(p) = m.probes {
                self.probes.fetch_add(p, Ordering::Relaxed);
            }
            // Killed requests carry their best-effort partials only when
            // the plane opted into graceful degradation; the default
            // sheds plain, keeping error payloads lean under load.
            if !self.degrade {
                m.partial = None;
            }
            Ok((answer, m))
        });
        if passes > 1 {
            self.adaptations.fetch_add(1, Ordering::Relaxed);
        }
        let partial_completion = match &result {
            Err(NcoError::DeadlineExceeded { partial, .. }) => {
                self.deadline_kills.fetch_add(1, Ordering::Relaxed);
                partial.is_some()
            }
            Err(NcoError::BudgetExceeded { partial, .. }) => partial.is_some(),
            Err(NcoError::NoiseMisspecified { .. }) => {
                self.misspecifications.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => false,
        };
        if partial_completion {
            self.partial_completions.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn stats(&self) -> ServeStats {
        let backend = self.backend();
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            backend_queries: backend.queries,
            memo_hits: backend.memo_hits,
            backend_rounds: self.backend_rounds.load(Ordering::Relaxed),
            coalesced_rounds: 0,
            pool_spent: self.pool.spent(),
            pool_cap: self.pool.cap(),
            retries: backend.retries,
            faults_masked: backend.faults_masked,
            deadline_kills: self.deadline_kills.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            adaptations: self.adaptations.load(Ordering::Relaxed),
            misspecifications: self.misspecifications.load(Ordering::Relaxed),
            partial_completions: self.partial_completions.load(Ordering::Relaxed),
        }
    }
}

/// Configures and spawns a [`Server`].
#[derive(Debug)]
#[must_use = "a builder does nothing until build() is called"]
pub struct ServerBuilder {
    template: Session,
    workers: usize,
    queue_cap: usize,
    pool_budget: Option<u64>,
    degrade: bool,
}

impl ServerBuilder {
    /// Worker threads draining the queue (default 4).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Maximum queued (not yet running) requests before
    /// [`Server::submit`] sheds with [`NcoError::Overloaded`]
    /// (default 64).
    pub fn queue(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Pooled cap on the total oracle queries the server may issue
    /// across all requests (default unlimited). A request the pool can
    /// no longer cover fails with [`NcoError::BudgetExceeded`]; admission
    /// is all-or-nothing per round, so a refused round spends nothing.
    pub fn pool_budget(mut self, max_queries: u64) -> Self {
        self.pool_budget = Some(max_queries);
        self
    }

    /// Opt the plane into graceful degradation (default `false`): a
    /// request killed by its deadline, its per-request budget, or the
    /// pooled budget carries its best-effort [`crate::PartialOutcome`]
    /// inside the typed error instead of shedding plain. Budget-kill
    /// partials are deterministic for a given request seed; see
    /// [`crate::PartialOutcome`] for the clean-prefix contract.
    pub fn degrade_to_partials(mut self, degrade: bool) -> Self {
        self.degrade = degrade;
        self
    }

    /// Validates the configuration and spawns the worker pool.
    pub fn build(self) -> Result<Server, NcoError> {
        if self.workers == 0 {
            return Err(NcoError::invalid("a server needs at least one worker"));
        }
        if self.queue_cap == 0 {
            return Err(NcoError::invalid("queue capacity must be positive"));
        }
        let cfg = self.template.cfg();
        let engine = self.template.engine();
        if engine.n() > (1 << 16) {
            return Err(NcoError::invalid(format!(
                "the serving backend memoises answers, capped at n = 65536 records \
                 (n = {})",
                engine.n()
            )));
        }
        let plan = cfg.fault_plan.unwrap_or_else(FaultPlan::none);
        let policy = cfg.retry.unwrap_or_default();
        let backend = if engine.has_metric() {
            SharedBackend::Quad(shared_backend(
                BoxedQuad(self.template.boxed_quad_backend()),
                plan,
                policy,
            ))
        } else {
            SharedBackend::Cmp(shared_backend(
                BoxedCmp(self.template.boxed_cmp_backend()),
                plan,
                policy,
            ))
        };
        let shared = Arc::new(ServerShared {
            template: self.template,
            queue: Mutex::new(ServerQueue {
                jobs: VecDeque::new(),
                open: true,
            }),
            work_ready: Condvar::new(),
            queue_cap: self.queue_cap,
            pool: BudgetPool::new(self.pool_budget),
            backend,
            backend_rounds: AtomicU64::new(0),
            degrade: self.degrade,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_kills: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            adaptations: AtomicU64::new(0),
            misspecifications: AtomicU64::new(0),
            partial_completions: AtomicU64::new(0),
        });
        let workers = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || shared.worker_loop())
            })
            .collect();
        Ok(Server {
            shared,
            workers: Mutex::new(workers),
        })
    }
}

/// Aggregate serving-plane counters (see [`Server::stats`]). Per-request
/// accounting lives in each request's [`crate::RunReport`]; these are the
/// server-level totals behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests a worker finished (successfully or with a typed error).
    pub completed: u64,
    /// Submissions refused with [`NcoError::Overloaded`] (queue full or
    /// server shutting down).
    pub shed: u64,
    /// Queries that reached the real noise oracle — after the shared
    /// memo deduplicated repeats across requests. The cross-request
    /// amortisation win is `sum of per-request queries - backend_queries`.
    /// Deterministic for a given request set: under persistent noise the
    /// memo admits each distinct query exactly once, whichever request
    /// asks it first, so the total is interleaving-independent.
    pub backend_queries: u64,
    /// Cross-request memo hits at the shared backend (total lookups
    /// minus first occurrences — interleaving-independent, like
    /// [`Self::backend_queries`]).
    pub memo_hits: u64,
    /// Backend `le_batch` rounds: one per admitted non-empty round of
    /// any request. Deterministic for a given request set when the pool
    /// refuses nothing and no deadline cuts a request short: each
    /// request's rounds are then those of its solo run, at any worker
    /// count. (Servers that group-committed concurrent rounds counted
    /// one per merged batch here, so at three or more workers the
    /// figure was lower and varied run to run.)
    pub backend_rounds: u64,
    /// Always `0`: the serving plane runs each request's rounds on the
    /// backend as they come and never merges rounds across requests.
    /// Kept so existing readers of the field still compile.
    pub coalesced_rounds: u64,
    /// Queries reserved from the pooled budget.
    pub pool_spent: u64,
    /// The pooled budget cap (`u64::MAX` = unlimited).
    pub pool_cap: u64,
    /// Backend queries that were retries of a faulted ask (billed into
    /// [`Self::backend_queries`] too — retries are real asks).
    pub retries: u64,
    /// Injected faults the retry layer absorbed: queries that faulted at
    /// least once but returned a usable (persistent, bit-identical)
    /// answer within the policy's attempt bound.
    pub faults_masked: u64,
    /// Requests killed by their per-request deadline or cancel token
    /// ([`NcoError::DeadlineExceeded`]).
    pub deadline_kills: u64,
    /// Requests that panicked inside a worker and were converted to
    /// [`NcoError::Panicked`] — each one was contained: the worker
    /// rejoined the pool and no other in-flight request was lost.
    pub panics: u64,
    /// Billed noise-probe queries injected across all requests (already
    /// counted into each request's own `queries` tally; `0` unless the
    /// template enables [`crate::SessionBuilder::probe_noise`]).
    pub probes: u64,
    /// Requests that re-derived their repetition parameters and re-ran
    /// after their probe plane flagged the template's noise rate as
    /// misspecified ([`crate::SessionBuilder::adapt_noise`] with
    /// [`crate::AdaptPolicy::Escalate`]).
    pub adaptations: u64,
    /// Requests failed typed with [`NcoError::NoiseMisspecified`]: the
    /// probe plane's confidence interval excluded the assumed rate and
    /// the template was not adapting.
    pub misspecifications: u64,
    /// Killed requests whose typed error carried a best-effort partial
    /// answer — only possible with
    /// [`ServerBuilder::degrade_to_partials`] enabled.
    pub partial_completions: u64,
}

/// The concurrent serving plane over one engine: a worker pool behind
/// [`Server::submit`], a shared memoised backend, and optional pooled
/// admission control — built from a template [`crate::Session`] via
/// [`Server::builder`].
pub struct Server {
    shared: Arc<ServerShared>,
    /// The worker pool, behind a mutex so shutdown can be called from
    /// `&self` (idempotently, from any number of threads).
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &relock(&self.workers).len())
            .field("queue_cap", &self.shared.queue_cap)
            .field("stats", &self.shared.stats())
            .finish()
    }
}

impl Server {
    /// Starts a [`ServerBuilder`] from a template session: every request
    /// runs with the template's engine, noise model, confidence and
    /// per-request budget, re-seeded per request.
    pub fn builder(template: Session) -> ServerBuilder {
        ServerBuilder {
            template,
            workers: 4,
            queue_cap: 64,
            pool_budget: None,
            degrade: false,
        }
    }

    /// Enqueues a request. Fails fast with [`NcoError::Overloaded`] —
    /// without consuming any budget — when the queue is at capacity or
    /// the server is shutting down.
    pub fn submit(&self, request: Request) -> Result<TaskHandle, NcoError> {
        let (tx, rx) = mpsc::channel();
        let mut q = relock(&self.shared.queue);
        if !q.open {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(NcoError::overloaded("server is shutting down"));
        }
        if q.jobs.len() >= self.shared.queue_cap {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(NcoError::overloaded(format!(
                "submission queue full ({} pending)",
                q.jobs.len()
            )));
        }
        q.jobs.push_back(Job { request, reply: tx });
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.shared.work_ready.notify_one();
        Ok(TaskHandle { rx })
    }

    /// A snapshot of the aggregate serving counters.
    pub fn stats(&self) -> ServeStats {
        self.shared.stats()
    }

    /// Graceful shutdown: refuses new submissions, lets the workers
    /// drain every already-queued request, joins them, and returns the
    /// final counters. Dropping a `Server` does the same minus the
    /// stats.
    ///
    /// Idempotent and race-free: call it any number of times, from any
    /// number of threads. Every call — concurrent or repeated — returns
    /// only after the worker pool has fully drained and exited (later
    /// calls find nothing left to join and just re-read the counters),
    /// and submissions racing a shutdown either complete normally or
    /// shed with [`NcoError::Overloaded`], never hang.
    pub fn shutdown(&self) -> ServeStats {
        self.close_and_join();
        self.shared.stats()
    }

    fn close_and_join(&self) {
        {
            let mut q = relock(&self.shared.queue);
            q.open = false;
        }
        self.shared.work_ready.notify_all();
        // The handles are drained and joined while the pool lock is
        // held, so a concurrent shutdown blocks here until the first
        // caller has fully joined the pool — both calls return with the
        // workers gone. (Workers never touch this lock: no deadlock.)
        let mut workers = relock(&self.workers);
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}
