//! The persistence marker.
//!
//! Section 2.2's noise models are **persistent**: the answer to a query is
//! a pure function of the (canonicalised) query, so repeating it returns
//! the same bit. [`crate::memo::MemoOracle`] caches answers, and
//! `nco-core`'s incremental hierarchy planes reuse cached contest
//! outcomes; both are exact only when the oracle would have answered the
//! repeat identically, so they require that property in the type system:
//! [`PersistentNoise`].

/// Marker: the oracle's answers are a pure function of the canonical
/// query (the persistent-noise property of Section 2.2).
///
/// Implementing this for an oracle whose answers depend on query history
/// or other mutable state is a logic error: memoisation would silently
/// change its behaviour.
pub trait PersistentNoise {}

impl<O: PersistentNoise + ?Sized> PersistentNoise for &mut O {}
