//! # lr-core — performance-competitive logical recovery
//!
//! The top of the workspace: a Deuteronomy-style storage engine
//! ([`Engine`]) that separates the transactional component (TC, `lr-tc`)
//! from the data component (DC, `lr-dc`), plus the paper's full recovery
//! spectrum, replayable **side-by-side against one common log**:
//!
//! | Method | DPT source | Redo | Data prefetch | Index preload |
//! |---|---|---|---|---|
//! | [`RecoveryMethod::Log0`] | none | logical (Alg. 2) | none | no |
//! | [`RecoveryMethod::Log1`] | Δ-log records (Alg. 4) | logical + DPT (Alg. 5) | none | no |
//! | [`RecoveryMethod::Log2`] | Δ-log records | logical + DPT | PF-list | yes |
//! | [`RecoveryMethod::Sql1`] | analysis pass (Alg. 3) | physiological (Alg. 1) | none | no |
//! | [`RecoveryMethod::Sql2`] | analysis pass | physiological | log-driven | no |
//! | [`RecoveryMethod::AriesCkpt`] | checkpointed DPT (§3.1) | physiological | none | no |
//! | [`RecoveryMethod::LogPerfect`] | Δ + DirtyLSNs (App. D.1) | logical + DPT | none | no |
//! | [`RecoveryMethod::LogReduced`] | Δ without FW-LSN (App. D.2) | logical + DPT | none | no |
//! | [`RecoveryMethod::Log2DptPrefetch`] | Δ-log records | logical + DPT | DPT in rLSN order (App. A.2) | yes |
//!
//! These four columns are all a method is: `RecoveryMethod`'s method table
//! maps each name to them, and one pipeline runs every row. The engine
//! owns restart, analysis and undo; the redo and prefetch columns run
//! inside the data component ([`lr_dc::redo`]), which gets the window and
//! an [`lr_dc::RedoPlan`] through one [`DcApi::redo`] call — in process,
//! or as one message to a `remote:*` / `tcp:*` DC.
//!
//! ## Quickstart (single-threaded)
//!
//! ```
//! use lr_core::{Engine, EngineConfig, RecoveryMethod, DEFAULT_TABLE};
//!
//! let mut cfg = EngineConfig::default();
//! cfg.initial_rows = 2_000;
//! cfg.pool_pages = 64;
//! let engine = Engine::build(cfg).unwrap();
//!
//! let txn = engine.begin().unwrap();
//! engine.update(txn, 42, b"new-value".to_vec()).unwrap();
//! engine.commit(txn).unwrap();
//!
//! engine.checkpoint().unwrap();
//! let snap = engine.crash();
//! let report = engine.recover(RecoveryMethod::Log2).unwrap();
//! assert_eq!(
//!     engine.read(DEFAULT_TABLE, 42).unwrap().unwrap(),
//!     b"new-value".to_vec()
//! );
//! println!("redo took {:.1} simulated ms ({} dirty pages at crash)",
//!          report.breakdown.redo_ms(), snap.dirty_pages);
//! ```
//!
//! ## Concurrent sessions
//!
//! The engine is `Sync`: move it into an `Arc` and open one [`Session`]
//! per client thread. Conflicting writers get no-wait lock conflicts and
//! retry via [`Session::run_txn`]; commits share log forces through group
//! commit.
//!
//! ```
//! use lr_core::{Engine, EngineConfig, DEFAULT_TABLE};
//!
//! let mut cfg = EngineConfig::default();
//! cfg.initial_rows = 1_000;
//! cfg.io_model = lr_common::IoModel::zero();
//! let engine = Engine::build(cfg).unwrap().into_shared();
//!
//! std::thread::scope(|s| {
//!     for t in 0..4u64 {
//!         let mut session = Engine::session(&engine);
//!         s.spawn(move || {
//!             session
//!                 .run_txn(100, |s| {
//!                     s.update(t, format!("worker-{t}").into_bytes())?;
//!                     s.update(t + 500, b"and this".to_vec())
//!                 })
//!                 .unwrap();
//!         });
//!     }
//! });
//! assert_eq!(engine.read(DEFAULT_TABLE, 2).unwrap().unwrap(), b"worker-2");
//! ```

pub mod config;
pub mod costmodel;
pub mod engine;
pub mod maintenance;
pub mod precovery;
pub mod recovery;
pub mod replica;
pub mod session;
pub mod verify;

pub use config::{EngineConfig, DEFAULT_TABLE};
pub use costmodel::{predicted_page_fetches, CostInputs};
pub use engine::{CrashSnapshot, Engine, EngineStats};
pub use lr_dc::{backend_names, backends, Backend, DcApi, DcIntrospect, TableSummary};
pub use lr_obs::{EventKind, MetricValue, MetricsSnapshot, RecoveryPhase, TraceEvent, TraceSink};
pub use precovery::RecoveryOptions;
pub use recovery::{RecoveryMethod, RecoveryReport};
pub use session::Session;
pub use verify::ShadowDb;
