//! The unified error type of the `Session` front door.
//!
//! Every way a [`crate::Session`] run can fail — a blown query budget, a
//! parameter the paper's algorithms cannot accept, an input too small to
//! ask anything about, an oracle fault that outlived the retry policy, a
//! missed deadline, a panicking backend — surfaces as one [`NcoError`]
//! variant instead of the bare `Option`s and panics of the low-level
//! APIs.

use crate::report::RunReport;
use crate::task::PartialOutcome;
use std::fmt;

/// Unified error type for the [`crate::Session`] engine API.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NcoError {
    /// The run needed more oracle queries than the configured hard budget.
    ///
    /// Enforcement is deterministic: queries are billed in algorithm
    /// order, the first query past the cap trips the flag, and no query
    /// beyond the cap ever reaches the underlying oracle (no distance is
    /// evaluated, no noise coin drawn).
    BudgetExceeded {
        /// The configured budget that was exhausted.
        budget: u64,
        /// Accounting up to the kill point — the spend is preserved
        /// even though the answer is gone.
        report: Box<RunReport>,
        /// Best-effort partial answer committed on real oracle answers
        /// before the budget latch tripped. Deterministic: the latch
        /// trips at an exact query count, so the same session replays
        /// to the same partial. `None` for tasks with no meaningful
        /// intermediate commitment (nearest/farthest).
        partial: Option<PartialOutcome>,
    },
    /// A configuration or task parameter is outside its valid range, or
    /// the task does not fit the session's data source (e.g. `Task::Max`
    /// on a metric-only session).
    InvalidParams {
        /// Human-readable explanation of the rejected parameter.
        reason: String,
    },
    /// The data source has too few records for the requested task (e.g.
    /// a maximum over zero values, a hierarchy over one record).
    EmptyInput {
        /// Human-readable explanation of what was missing.
        reason: String,
    },
    /// The serving plane shed this request instead of queueing it
    /// unboundedly: the submission queue was full, or the server was
    /// shutting down. Unlike [`Self::BudgetExceeded`] the request
    /// consumed no oracle queries — resubmitting later is safe and
    /// deterministic.
    Overloaded {
        /// Human-readable explanation of what was saturated.
        reason: String,
    },
    /// An oracle fault outlived the retry policy: some query was re-asked
    /// up to the policy's attempt bound and never got a usable answer.
    /// The run's spend up to that point is preserved for billing — every
    /// attempt, including the failed ones, was metered — but the partial
    /// answer is discarded, exactly like a blown budget.
    OracleFailed {
        /// Oracle queries spent (retries included) before the run failed.
        queries_spent: u64,
        /// The retry policy's attempt bound that the fault exhausted.
        attempts: u32,
    },
    /// The run was killed by its deadline or cancel token at a query or
    /// round boundary. The partial cost accounting is preserved: the
    /// answer is gone, the bill is not.
    DeadlineExceeded {
        /// Accounting up to the kill point (the `queries`/`rounds` spent
        /// before the deadline hit; the answer-bearing fields of a
        /// successful report are absent by construction).
        report: Box<RunReport>,
        /// Best-effort partial answer committed on real oracle answers
        /// before the kill. Unlike a budget kill the cut point depends
        /// on wall-clock timing, so the partial's length varies run to
        /// run; its shape (a clean prefix) does not.
        partial: Option<PartialOutcome>,
    },
    /// The configured noise rate is misspecified: online probing
    /// measured a flip rate whose confidence-interval *lower* bound
    /// exceeds the rate the session's repetition counts were derived
    /// for, so the theorem-backed success guarantees no longer hold.
    ///
    /// Only raised when probing is enabled
    /// ([`crate::SessionBuilder::probe_noise`]) and the session is not
    /// adapting ([`crate::SessionBuilder::adapt_noise`] with
    /// [`crate::AdaptPolicy::Escalate`] re-derives parameters instead
    /// of failing). The guard is conservative — it fires on the CI
    /// lower bound, not the point estimate — and the run's spend is
    /// preserved in `report`.
    NoiseMisspecified {
        /// The flip rate the session's parameters assumed.
        assumed: f64,
        /// The probe point estimate of the actual flip rate.
        observed: f64,
        /// Billed probe queries behind the estimate.
        probes: u64,
        /// Accounting for the completed-but-unreliable run.
        report: Box<RunReport>,
    },
    /// The request panicked inside a serving worker. The panic was
    /// contained by the worker's `catch_unwind` isolation: the worker
    /// rejoined the pool and other in-flight requests were unaffected.
    Panicked {
        /// The panic payload, when it carried a message.
        reason: String,
    },
}

impl NcoError {
    pub(crate) fn invalid(reason: impl Into<String>) -> Self {
        Self::InvalidParams {
            reason: reason.into(),
        }
    }

    pub(crate) fn empty(reason: impl Into<String>) -> Self {
        Self::EmptyInput {
            reason: reason.into(),
        }
    }

    pub(crate) fn overloaded(reason: impl Into<String>) -> Self {
        Self::Overloaded {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for NcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExceeded { budget, .. } => {
                write!(f, "query budget of {budget} oracle queries exceeded")
            }
            Self::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            Self::EmptyInput { reason } => write!(f, "empty input: {reason}"),
            Self::Overloaded { reason } => write!(f, "overloaded: {reason}"),
            Self::OracleFailed {
                queries_spent,
                attempts,
            } => write!(
                f,
                "oracle failed: a query faulted through all {attempts} retry attempts \
                 ({queries_spent} queries spent)"
            ),
            Self::DeadlineExceeded { report, .. } => write!(
                f,
                "deadline exceeded after {} queries in {} rounds",
                report.queries, report.rounds
            ),
            Self::NoiseMisspecified {
                assumed,
                observed,
                probes,
                ..
            } => write!(
                f,
                "noise misspecified: session assumed flip rate {assumed}, \
                 {probes} probes observed {observed}"
            ),
            Self::Panicked { reason } => write!(f, "request panicked: {reason}"),
        }
    }
}

impl std::error::Error for NcoError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> RunReport {
        use std::time::Duration;
        RunReport {
            queries: 0,
            rounds: 0,
            cache_entries: None,
            cache_added: None,
            wall: Duration::ZERO,
            budget: None,
            merge_plane: None,
            observed_flip_rate: None,
            probes: None,
            adaptations: 0,
        }
    }

    #[test]
    fn display_is_informative() {
        let e = NcoError::BudgetExceeded {
            budget: 42,
            report: Box::new(empty_report()),
            partial: None,
        };
        assert!(e.to_string().contains("42"));
        let e = NcoError::invalid("k = 0");
        assert!(e.to_string().contains("k = 0"));
        let e = NcoError::empty("no records");
        assert!(e.to_string().contains("no records"));
        let e = NcoError::OracleFailed {
            queries_spent: 17,
            attempts: 4,
        };
        assert!(e.to_string().contains("17") && e.to_string().contains('4'));
        let e = NcoError::Panicked {
            reason: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("index out of bounds"));
        let e = NcoError::NoiseMisspecified {
            assumed: 0.15,
            observed: 0.31,
            probes: 200,
            report: Box::new(empty_report()),
        };
        let s = e.to_string();
        assert!(s.contains("0.15") && s.contains("0.31") && s.contains("200"));
    }

    #[test]
    fn deadline_error_preserves_partial_accounting() {
        use std::time::Duration;
        let mut report = empty_report();
        report.queries = 9;
        report.rounds = 3;
        report.wall = Duration::from_millis(2);
        report.budget = Some(100);
        let e = NcoError::DeadlineExceeded {
            report: Box::new(report),
            partial: Some(PartialOutcome::Leader { candidate: Some(4) }),
        };
        let NcoError::DeadlineExceeded { report, partial } = &e else {
            panic!("wrong variant");
        };
        assert_eq!(report.queries, 9);
        assert_eq!(
            partial,
            &Some(PartialOutcome::Leader { candidate: Some(4) })
        );
        assert!(e.to_string().contains("9 queries"));
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(NcoError::BudgetExceeded {
            budget: 1,
            report: Box::new(empty_report()),
            partial: None,
        });
        assert!(e.source().is_none());
    }
}
