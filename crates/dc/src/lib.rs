//! # lr-dc
//!
//! The **data component (DC)** of the Deuteronomy split: it owns data
//! placement (the B-trees), the database cache (buffer pool), and — the
//! paper's contribution — the recovery bookkeeping that makes *logical*
//! recovery performance-competitive:
//!
//! * [`trackers::DeltaTracker`] accumulates `(DirtySet, WrittenSet, FW-LSN,
//!   FirstDirty, TC-LSN)` and emits **Δ-log records** (§4.1);
//! * [`trackers::BwTracker`] accumulates `(WrittenSet, FW-LSN)` and emits
//!   SQL-Server-style **BW-log records** (§3.3) — both are written to the
//!   common log so the side-by-side comparison uses one log;
//! * [`builders`] hosts every DPT-construction algorithm: SQL Server's
//!   analysis pass (Alg. 3), the logical Δ-based pass (Alg. 4), ARIES
//!   checkpoint-seeded construction (§3.1), and the Appendix-D alternatives
//!   (perfect DPT, reduced logging);
//! * [`recovery`] holds the SMO page-image install kernels: the plain
//!   pLSN-guarded one SMO redo uses (making B-trees well-formed *before*
//!   the TC resubmits operations, §1.2) and the screened one of
//!   physiological redo;
//! * [`redo`] is **DC recovery** itself, run next to the pages: the TC
//!   ships the scan window and its method row plus analysis as a
//!   [`RedoPlan`] through [`DcApi::redo`] — one crossing, however remote
//!   the DC — and every backend runs the same SMO redo, index preload,
//!   screen loop, prefetchers, sinks, partitioned workers and post-redo
//!   index rebuild against its own pool;
//! * [`DataComponent`] wires it together and services the TC's data
//!   operations plus the EOSL / RSSP control operations (§4.1).

pub mod api;
pub mod backend;
pub mod builders;
pub mod catalog;
pub mod dc;
pub mod dpt;
pub mod hash;
pub mod logdc;
pub mod recovery;
pub mod redo;
pub mod remote;
pub mod server;
pub mod tcp;
pub mod telemetry;
pub mod trackers;
pub mod wire;

pub use api::{DcApi, DcIntrospect, OpGuard, PreparedOp, TableSummary};
pub use backend::{
    backend, backend_names, backends, Backend, BTREE_BACKEND, HASH_BACKEND, LOG_BACKEND,
    REMOTE_BTREE_BACKEND, REMOTE_HASH_BACKEND, REMOTE_LOG_BACKEND, TCP_BTREE_BACKEND,
    TCP_HASH_BACKEND, TCP_LOG_BACKEND,
};
pub use builders::{
    build_dpt_aries, build_dpt_logical, build_dpt_sqlserver, AnalysisCounts, DeltaDptMode,
    LogicalAnalysis,
};
pub use catalog::Catalog;
pub use dc::{DataComponent, DcConfig, PrepareInfo, WriteIntent};
pub use dpt::{Dpt, DptEntry, DptScreen};
pub use hash::HashDc;
pub use logdc::LogDc;
pub use redo::{Family, Prefetch, RedoPlan};
pub use remote::{remote_loopback, LoopbackTransport, RemoteDc, Transport};
pub use server::DcServer;
pub use tcp::{tcp_deploy, TcpDcServer, TcpTransport};
pub use telemetry::{WireOpStats, WireTelemetry, WireTelemetrySnapshot};
pub use trackers::{BwTracker, DeltaTracker};
pub use wire::{op_name, DcReply, DcRequest, WireError};
