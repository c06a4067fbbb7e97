//! # nco-testkit — deterministic guarantee-checking harness
//!
//! The paper's value proposition is *provable* robustness: the max
//! algorithm returns an item within a `(1 + mu)^3` factor of the true
//! maximum under adversarial noise (Theorem 3.6), Count-Max-Prob returns a
//! polylog rank under persistent probabilistic noise (Theorem 3.7), the
//! k-center algorithms are O(1)-approximations (Theorems 4.2, 4.4), and so
//! on. Those statements hold *with high probability over the algorithm's
//! own coins* — which makes them exactly the kind of guarantee that decays
//! silently when a refactor nudges a threshold.
//!
//! This crate pins them down reproducibly:
//!
//! * [`scenario`] — seeded builders for value instances ([`ValueScenario`])
//!   and metric instances ([`MetricScenario`]) with one-line constructors
//!   for every noise model (exact / adversarial / probabilistic / crowd);
//! * [`Counting`] — `nco_oracle`'s query meter, re-exported so tests can
//!   budget query complexity;
//! * [`check`] — `assert_guarantee`-style helpers that panic with the
//!   measured quantity, the bound and the scenario seed, plus
//!   [`success_rate`] for "holds in >= 1 - delta of seeded trials" checks
//!   and [`assert_deterministic`] for bit-reproducibility.
//!
//! Everything is deterministic in the seeds the caller passes; no helper
//! draws entropy from the environment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod scenario;

pub use check::{
    assert_deterministic, assert_kcenter_constant_factor, assert_max_within_factor,
    assert_rank_at_most, success_rate,
};
pub use nco_oracle::Counting;
pub use scenario::{MetricScenario, ValueScenario};
