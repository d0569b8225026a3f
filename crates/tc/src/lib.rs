//! # lr-tc
//!
//! The **transactional component (TC)** of the Deuteronomy split: it owns
//! transactions, locks and the *logical* log. Everything here is written
//! against the paper's information-hiding boundary — the TC deals in
//! `(table, key)` and LSNs, never in pages. The PID that rides on each data
//! record is an opaque piggyback the DC supplied at prepare time (§5.1):
//! logical recovery ignores it; the SQL-Server-style baselines read it.
//!
//! Modules:
//! * [`txn`] — transaction table and lifecycle;
//! * [`locks`] — exclusive key locks (the paper's companion work covers
//!   range locking; single-key exclusivity suffices for the evaluated
//!   workloads);
//! * [`tc`] — the component: begin/commit/abort, logical logging, EOSL
//!   bookkeeping, checkpoint brackets;
//! * [`analysis`] — loser detection over the recovery window;
//! * [`undo`] — the logical undo pass shared by *every* recovery method
//!   (§2.1: "all variants also perform logical undo as the last pass").

pub mod analysis;
pub mod locks;
pub mod tc;
pub mod txn;
pub mod undo;

pub use analysis::{analyze_txns, TxnAnalysis};
pub use locks::LockManager;
pub use tc::{TcStats, TransactionComponent};
pub use txn::{TxnState, TxnTable};
pub use undo::{rollback_to_savepoint, rollback_txn, undo_losers, UndoStats};
