//! The TC ↔ DC contract, as a trait.
//!
//! The paper's architecture (§2, Figure 1) splits the kernel into a
//! transaction component (TC) and a data component (DC) that interact
//! **only** through a narrow logical-operation interface: data operations
//! addressed by `(table, key)`, the prepare → log → apply write protocol,
//! and a handful of control operations (EOSL, RSSP, crash, recovery
//! hooks). [`DcApi`] *is* that interface — the engine, the recovery
//! drivers, undo and maintenance all hold `Arc<dyn DcApi>` and never name
//! a concrete data component. Undo is no exception: a compensation is the
//! logical inverse of an operation, staged, logged as a CLR and applied
//! through the same write protocol (§2.2, §4).
//!
//! Three backends implement it:
//!
//! * [`crate::DataComponent`] — the default B-tree DC (clustered index,
//!   logical redo re-traverses by key);
//! * [`crate::HashDc`] — an in-memory hash-index DC over bucket-chain
//!   pages (no B-tree; redo is page-logical: it replays at the logged
//!   PID and rebuilds the volatile key index from the chains);
//! * [`crate::LogDc`] — the log-structured DC (the WAL *is* the store:
//!   one durable append per write, a volatile key → log-offset index,
//!   recovery as pure re-indexing, background compaction of cold
//!   segments).
//!
//! Backends register by name in [`crate::backend`]; the engine selects
//! one through `EngineConfig::backend`.
//!
//! ## Contract rules (what every implementation must uphold)
//!
//! * **Write protocol**: the TC calls [`DcApi::prepare_op`] (placement +
//!   before-image, latches held by the returned guard), logs the record,
//!   then hands the [`PreparedOp`] back to [`DcApi::apply`], which applies
//!   under the guard and releases it before returning — on success and on
//!   error. A prepare abandoned before apply (logging failed) releases by
//!   drop. Per-page apply order must equal log order, and every apply
//!   stamps the page LSN, so the pLSN redo test stays sound. Structure
//!   modifications are logged as redo-only SMO system transactions before
//!   the data record that depends on them.
//! * **Control-op ordering**: `eosl` publishes the TC's end-of-stable-log
//!   (the write-ahead gate the cache enforces before flushing);
//!   [`DcApi::rssp`] must flush every page dirtied before the announced
//!   LSN, emit pending recovery bookkeeping, and durably record the RSSP
//!   *before* returning — the checkpoint bracket (bCkpt → RSSP → eCkpt)
//!   depends on it. [`DcApi::drain_in_flight_ops`] barriers in-flight
//!   writers between the bCkpt append and the flush-generation flip.
//! * **Crash/recovery**: [`DcApi::crash`] discards every volatile
//!   structure while stable pages survive, and [`DcApi::redo`] is the
//!   whole of DC recovery, run DC-side in one call: the TC ships the
//!   window and its method row plus analysis as a [`RedoPlan`]; the DC
//!   runs SMO redo first so the index is well-formed before any logical
//!   redo (§1.2), preloads the index if asked, resolves each record's page
//!   — by key traversal for the B-tree, by logged PID for a page-logical
//!   backend — screens, prefetches and applies, then rebuilds any
//!   volatile index from the final pages.

use crate::dc::{DcConfig, DcStats, PrepareInfo, WriteIntent};
use crate::redo::RedoPlan;
use crate::telemetry::WireTelemetrySnapshot;
use lr_buffer::BufferPool;
use lr_common::{Key, Lsn, PageId, RecoveryBreakdown, Result, TableId, Value};
use lr_storage::Disk;
use lr_wal::{LogRecord, SharedWal};
use std::sync::Arc;

/// What pins a [`PreparedOp`]'s placement. In process that is whatever
/// latch guards the backend's discipline needs ([`PreparedOp::new`] takes
/// anything droppable); a proxy's guard instead stands for a guard parked
/// on the far side and implements this to name it.
pub trait OpGuard {
    /// The server-held token this guard stands for; 0 — never a live
    /// token — for in-process latches.
    fn token(&self) -> u64 {
        0
    }

    /// The far side has consumed the op and released the parked guard:
    /// dropping this one must send no release.
    fn disarm(&mut self) {}
}

/// In-process latch guards behind [`OpGuard`]: no token, release by drop.
struct Latches<G>(#[allow(dead_code)] G);
impl<G> OpGuard for Latches<G> {}

/// A staged write, backend-agnostic: the placement PID, the before-image
/// for undo, and an opaque guard that keeps the placement valid until
/// [`DcApi::apply`] consumes the op (or, for a prepare abandoned before
/// apply, until it is dropped).
///
/// The guard box is `Send`: a message-passing deployment parks prepared
/// ops server-side in a token map and applies or releases them from
/// whichever thread serves the request, so guards cannot be thread-affine
/// (the backends use [`lr_common::latch::Latch`] for exactly this reason).
pub struct PreparedOp<'a> {
    /// Page the operation will land on (piggybacked onto the TC's log
    /// record for the physiological baselines).
    pub pid: PageId,
    /// Before-image for undo (`None` for inserts).
    pub before: Option<Value>,
    guard: Box<dyn OpGuard + Send + 'a>,
}

impl<'a> PreparedOp<'a> {
    /// Package a staged write with the latch guards that pin its placement.
    pub fn new(pid: PageId, before: Option<Value>, guard: impl Send + 'a) -> PreparedOp<'a> {
        PreparedOp::proxied(pid, before, Latches(guard))
    }

    /// Package a staged write whose guard is parked on the far side of a
    /// message boundary.
    pub fn proxied(
        pid: PageId,
        before: Option<Value>,
        guard: impl OpGuard + Send + 'a,
    ) -> PreparedOp<'a> {
        PreparedOp { pid, before, guard: Box::new(guard) }
    }

    /// [`OpGuard::token`] of the guard behind this op.
    pub fn token(&self) -> u64 {
        self.guard.token()
    }

    /// [`OpGuard::disarm`] the guard behind this op.
    pub fn disarm(&mut self) {
        self.guard.disarm()
    }

    /// The placement + before-image without the guard (single-threaded
    /// callers).
    pub fn info(&self) -> PrepareInfo {
        PrepareInfo { pid: self.pid, before: self.before.clone() }
    }
}

/// Backend-generic structural summary of one table (the shape
/// verification walks report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TableSummary {
    /// Total records across all data pages.
    pub records: u64,
    /// Data (leaf / bucket) page count.
    pub leaf_pages: u64,
    /// Index-structure page count (internal nodes; bucket directories).
    pub internal_pages: u64,
    /// B-tree height, or the longest bucket chain for a hash backend.
    pub height: u32,
}

/// Narrow observability facet of a data component: stats, tuning and the
/// shared infrastructure handles. Tests, benches and the engine's stats
/// snapshot go through this instead of poking backend internals.
pub trait DcIntrospect: Send + Sync {
    /// The backend's registered name (`"btree"`, `"hash"`).
    fn backend_name(&self) -> &'static str;

    /// The buffer pool (capacity/occupancy counters, runtime DPT,
    /// flush-all for tests). All backends cache through one pool type so
    /// the recovery bookkeeping (Δ/BW event stream, EOSL gate) is shared.
    fn pool(&self) -> &BufferPool;

    /// Normal-execution overhead counters (Figure 2(c) numerators).
    fn stats(&self) -> DcStats;

    /// The tuning this DC was opened with.
    fn config(&self) -> &DcConfig;

    /// The shared log handle (TC and DC write one common log, §4.1).
    fn wal(&self) -> SharedWal;

    /// Client-side per-request wire accumulators, for a deployment that
    /// reaches its DC through messages; `None` in process.
    fn wire_telemetry(&self) -> Option<WireTelemetrySnapshot> {
        None
    }

    /// How many frames the cache can actually fill: its capacity bounded
    /// by the database size (the paper's 2048 MB case).
    fn cache_fill_target(&self) -> usize {
        self.pool().capacity().min(self.pool().disk().num_pages() as usize)
    }
}

/// The TC ↔ DC contract (see the module docs for the protocol rules each
/// implementation must uphold). Object-safe: the engine holds
/// `Arc<dyn DcApi>`.
pub trait DcApi: DcIntrospect {
    // ------------------------------------------------------------------
    // logical reads
    // ------------------------------------------------------------------

    /// Point read of `(table, key)`. No locks are taken on behalf of the
    /// caller (single-version storage; the TC owns transactional locking).
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>>;

    /// Range read: all rows with keys in `[from, to]`, in key order.
    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>>;

    /// Every row of `table` in key order (verification walks).
    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>>;

    // ------------------------------------------------------------------
    // the prepare → log → apply write protocol
    // ------------------------------------------------------------------

    /// Stage a write with the backend's full concurrency discipline:
    /// perform any needed structure modifications (logged as redo-only
    /// SMO system transactions) and return the placement PID and
    /// before-image, with latches held by the guard so the placement
    /// stays valid until [`DcApi::apply`] consumes the op. Undo stages a
    /// compensation here too, with the inverse operation's intent.
    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>>;

    /// Apply a logged data operation or CLR to the page named by the
    /// record under the guard of the `op` that staged it; stamps the page
    /// with `rec.lsn` and pumps the cache events it raised. The guard is
    /// released when this returns, whether the apply succeeded or not.
    fn apply(&self, op: PreparedOp<'_>, rec: &LogRecord) -> Result<()>;

    // ------------------------------------------------------------------
    // control operations (§4.1)
    // ------------------------------------------------------------------

    /// EOSL: the TC advertises its end-of-stable-log — the write-ahead
    /// gate the cache enforces before flushing a page whose pLSN exceeds
    /// the last advertised value.
    fn eosl(&self, elsn: Lsn);

    /// RSSP: the TC announces its intended redo-scan-start-point (its
    /// bCkpt LSN). The DC flushes every page dirtied before it
    /// (penultimate scheme), emits pending Δ/BW state, and durably logs
    /// the RSSP. When this returns, no operation with `LSN <= rssp_lsn`
    /// needs redo.
    fn rssp(&self, rssp_lsn: Lsn) -> Result<()>;

    /// Barrier for in-flight data operations: when this returns, every
    /// operation *logged* before the call has also been *applied*. The
    /// checkpoint uses it between the bCkpt append and the
    /// flush-generation flip.
    fn drain_in_flight_ops(&self);

    /// Crash the DC: cache, volatile index state, open Δ/BW intervals and
    /// the in-memory catalog all vanish; stable pages survive.
    fn crash(&self);

    // ------------------------------------------------------------------
    // checkpoint / cleaner hooks
    // ------------------------------------------------------------------

    /// Drain cache events into the recovery trackers and emit Δ/BW
    /// records when batching thresholds trip; runs the inline cleaner
    /// unless a background service owns that duty.
    fn pump_events(&self);

    /// Force both trackers to emit (checkpoint boundary).
    fn force_emit(&self);

    /// One lazywriter activation (background maintenance entry point):
    /// flush up to a batch of cold dirty pages if over the watermark.
    /// Returns pages flushed.
    fn cleaner_pass(&self) -> Result<usize>;

    /// One compactor activation (background maintenance entry point):
    /// migrate live versions out of cold log segments if the garbage
    /// ratio is over the watermark. Returns log segments retired. A
    /// no-op for backends whose store is not the log.
    fn compact_pass(&self) -> Result<usize> {
        Ok(0)
    }

    // ------------------------------------------------------------------
    // catalog operations
    // ------------------------------------------------------------------

    /// Create a fresh empty table.
    fn create_table(&self, table: TableId) -> Result<()>;

    /// Register a table whose structure was built externally (bulk load);
    /// `root` is the backend's placement anchor (B-tree root / bucket
    /// directory page).
    fn register_table(&self, table: TableId, root: PageId) -> Result<()>;

    /// The placement anchor of `table`.
    fn table_root(&self, table: TableId) -> Result<PageId>;

    /// Walk `table`'s whole structure, checking the backend's invariants
    /// (ordering, linkage, placement function) and summarizing its shape.
    fn verify_table(&self, table: TableId) -> Result<TableSummary>;

    // ------------------------------------------------------------------
    // recovery
    // ------------------------------------------------------------------

    /// DC recovery (§4.2) and redo (Algorithms 1, 2 and 5) in one pass:
    /// run `plan` — the method's row and what the TC's analysis decided —
    /// over the scan `window` against this DC's own pages. SMO redo
    /// (logical family) or the catalog reload (physiological), the index
    /// preload when `plan.preload`, the window re-read, then screen, read
    /// ahead, replay SMOs (physiological family) and apply, inline or on
    /// `plan.workers` partitioned workers, and finally rebuild any
    /// volatile per-key index from the final pages ([`crate::redo`]). Each
    /// phase journals its own span. Returns the pass's breakdown shard
    /// ([`RecoveryBreakdown::redo_shard_mut`]).
    fn redo(&self, window: &[LogRecord], plan: &RedoPlan) -> Result<RecoveryBreakdown>;

    // ------------------------------------------------------------------
    // lifecycle / observability
    // ------------------------------------------------------------------

    /// Attach the engine's trace journal. Backends forward the sink to
    /// their buffer pool and internal hot paths (OLC fallbacks, wire
    /// dispatch); the default is a no-op so minimal backends stay
    /// untraced rather than broken.
    fn set_trace(&self, _sink: lr_obs::TraceSink) {}

    /// Open a new DC of the **same backend** over `disk`/`wal` (the
    /// engine's crash-fork path). The new component starts cold, exactly
    /// like [`crate::backend`]'s `open`.
    fn reopen(&self, disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<Arc<dyn DcApi>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `DcApi` must stay object-safe: the engine stores `Arc<dyn DcApi>`.
    /// (A non-object-safe change fails to compile right here.)
    #[test]
    fn dc_api_is_object_safe() {
        fn assert_obj(_dc: &dyn DcApi) {}
        fn assert_introspect(dc: &dyn DcApi) -> &dyn DcIntrospect {
            dc
        }
        // Only the signatures matter; never called.
        let _: fn(&dyn DcApi) = assert_obj;
        let _: fn(&dyn DcApi) -> &dyn DcIntrospect = assert_introspect;
    }

    #[test]
    fn prepared_op_carries_arbitrary_guards() {
        let lock = lr_common::Latch::new();
        let guard = lock.read();
        let op = PreparedOp::new(PageId(7), Some(vec![1, 2]), guard);
        assert_eq!(op.pid, PageId(7));
        assert_eq!(op.info().before.unwrap(), vec![1, 2]);
        assert_eq!(op.token(), 0, "in-process latches name no server-held token");
        drop(op); // releases the latch
        assert!(lock.try_write().is_some());
    }

    /// The server-held-token deployment depends on prepared ops being
    /// movable across threads.
    #[test]
    fn prepared_op_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<PreparedOp<'static>>();
    }
}
