//! # lr-obs
//!
//! Unified observability layer for the logical-recovery engine: a
//! low-overhead structured **trace journal** ([`trace`]), a **metrics
//! registry** unifying every stats struct behind one snapshot type
//! ([`metrics`]) and a dependency-free **JSON** value/parser ([`json`]).
//!
//! The paper's evaluation is measurement-driven (redo time, DPT size,
//! stall behaviour — §5.3, Appendices B–C); this crate is the engine's
//! single measurement channel. Design constraints:
//!
//! - **Cheap when off.** A disabled [`TraceSink`] is a `None` check per
//!   emit — no allocation, no locks, no syscalls.
//! - **Never blocks when on.** Events go into bounded lock-free rings;
//!   overflow increments [`TraceSink::dropped_events`] instead of
//!   stalling the emitting thread.
//! - **Reconstructable.** Every event carries a globally unique,
//!   monotonically assigned sequence number, a thread id and a
//!   microsecond timestamp, so a drained journal merges into one
//!   time-ordered timeline (e.g. the recovery per-worker span view).

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod trace;

pub use json::Json;
pub use metrics::{MetricValue, MetricsSnapshot};
pub use trace::{EventKind, RecoveryPhase, TraceEvent, TraceSink};
