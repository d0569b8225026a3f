//! # lr-workload
//!
//! Everything needed to reproduce §5.2's experimental conditions:
//!
//! * [`gen`] — deterministic transaction generators (the paper's
//!   update-only, 10-updates-per-transaction, uniform-key workload, plus
//!   the skewed/read-mix variants Appendix B discusses qualitatively);
//! * [`zipf`] — an in-repo Zipfian sampler (no external dependency);
//! * [`scenario`] — the controlled-crash driver: warm the cache to steady
//!   state, checkpoint every `ci` updates, crash after the 10th checkpoint
//!   with a ~100-update log tail;
//! * [`presets`] — the scale presets of DESIGN.md §8 (`smoke`,
//!   `paper_tenth`, `paper_full`);
//! * [`report`] — plain-text table/CSV formatting for the figure harnesses;
//! * [`concurrent`] — the K-session driver: per-thread generators with
//!   no-wait conflict retry, feeding `tests/recovery_equivalence.rs` and
//!   the `precovery` bin.

pub mod concurrent;
pub mod gen;
pub mod presets;
pub mod report;
pub mod scenario;
pub mod zipf;

pub use concurrent::{run_concurrent, ConcurrentReport, ConcurrentScenario, ThreadReport};
pub use gen::{KeyDist, Op, OpMix, TxnGenerator, WorkloadSpec};
pub use presets::{cache_sweep, spill_concurrent, Preset};
pub use scenario::{run_to_crash, CrashScenario, ScenarioOutcome};
pub use zipf::Zipf;
