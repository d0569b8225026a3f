//! # lr-wal
//!
//! The **common log** of the paper's prototype (§5.1): one integrated log
//! carrying
//!
//! * the TC's transactional records — logical `(table, key, before, after)`
//!   content with the PID **piggybacked** exactly as the paper's prototype
//!   keeps SQL Server's PIDs on the log ("we do not remove PIDs from the SQL
//!   Server log records, but ignore them during logical recovery"),
//! * the DC's records — SMO system transactions, **Δ-log records** (§4.1)
//!   and **BW-log records** (§3.3),
//! * checkpoint brackets (`bCkpt`/`eCkpt`), the DC's durable RSSP note, and
//!   the ARIES-style checkpoint snapshot used by the §3.1 ablation.
//!
//! Because every recovery method replays the *same serialized bytes*, the
//! side-by-side comparison is honest: physiological methods read the PIDs,
//! logical methods ignore them, and both pay for the same log volume.

pub mod log;
pub mod record;
pub mod shared;
pub mod stats;

pub use log::{RecordCursor, RestartScan, Wal, LOG_ORIGIN};
pub use record::{ClrAction, DeltaRecord, LogPayload, LogRecord, SmoRecord};
pub use shared::{GroupCommitStats, SharedWal, WalGuard};
pub use stats::LogStats;
