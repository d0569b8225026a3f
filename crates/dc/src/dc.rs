//! The data component.
//!
//! Owns the buffer pool, the catalog, the B-tree handles and the Δ/BW
//! trackers. The TC talks to it through exactly the interface the paper's
//! architecture prescribes: data operations by `(table, key)`, plus the two
//! control operations **EOSL** (end of stable log → write-ahead gate) and
//! **RSSP** (redo scan start point → checkpoint flushing), §4.1.
//!
//! ## Concurrency discipline
//!
//! All methods take `&self`; sessions on different threads share one DC.
//! Three latch tiers keep prepare → log → apply safe (engine lock order:
//! key lock → table latch → page-op latch → log latch → frame latch):
//!
//! * a **table latch** (one `RwLock` per table-hash slot): shared for
//!   operations that cannot change tree structure, exclusive for SMO-
//!   capable paths (splits, merges, root moves). Shared holders can trust
//!   leaf placement end-to-end;
//! * a **page-op latch** (sharded by PID): serializes the log+apply pair
//!   per page so per-page LSN order equals apply order — without it a page
//!   could be flushed between two out-of-order applies and the pLSN redo
//!   test would skip a record the stable image does not contain;
//! * the pool's **frame latches** make each physical page access atomic.
//!
//! [`DataComponent::prepare_op`] packages the discipline: it returns a
//! guard that pins the placement until the caller has logged and applied.
//!
//! **Optimistic read path** (`DcConfig::optimistic_reads`): point reads
//! and range scans first attempt an OLC descent that takes **none** of the
//! latches above — each page hop is seqlock-validated against the pool's
//! per-frame version counters (see the version-counter discipline in
//! `lr_buffer::pool`), and any validation failure, cold page or racing SMO
//! falls back to the latched path, which stays authoritative. Writers
//! (undo's compensations among them) and SMO flows are unchanged: they
//! still hold the table latch, and their frame-latch acquisitions are
//! what bump the versions optimistic readers validate against.
//!
//! **Optimistic write path** (`DcConfig::optimistic_writes`): prepare_op
//! first attempts an OLC descent under the *shared* table latch — the
//! descent itself takes no frame latches, validating each hop against the
//! frame versions, and only the final leaf is upgraded to a write latch
//! (with version re-validation, so a racing data writer forces a restart).
//! Restarts are bounded (`OPT_WRITE_ATTEMPTS`, with `olc_backoff` between
//! attempts); anything that needs an SMO, a fetch, or keeps losing the
//! validation race falls back to the fully-latched path, which stays
//! authoritative. Both optimistic readers and optimistic writers pin a
//! reclamation epoch (`BufferPool::pin_epoch`) for the duration of the
//! descent so evicted frame cells they may still dereference are parked on
//! the limbo list instead of being recycled under them.

use crate::api::{DcApi, DcIntrospect, PreparedOp, TableSummary};
use crate::catalog::{Catalog, META_PAGE};
use crate::dpt::Dpt;
use crate::recovery::SmoBarrierOutcome;
use crate::redo::{Located, RedoBackend, RedoPlan};
use crate::trackers::TrackerPair;
use lr_btree::BTree;
use lr_buffer::BufferPool;
use lr_common::latch::{Latch, LatchReadGuard};
use lr_common::{Error, Histogram, Key, Lsn, PageId, RecoveryBreakdown, Result, TableId, Value};
use lr_obs::{EventKind, TraceSink};
use lr_storage::{Disk, SLOT_SIZE};
use lr_wal::{ClrAction, LogPayload, LogRecord, SharedWal, SmoRecord};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Table-latch slots (tables hash onto these; collisions only cost
/// unnecessary sharing, never correctness).
const TABLE_LATCHES: usize = 16;
/// Page-op latch shards.
const PAGE_LATCHES: usize = 64;
/// OLC descents attempted per read before the latched fallback. Each
/// attempt re-snapshots the root, so transient failures (a racing writer
/// on one page, an SMO mid-flight) usually succeed on retry; persistent
/// failures (cold pages) go straight to the fetching path.
const OPT_READ_ATTEMPTS: usize = 3;
/// OLC write-prepare attempts before falling back to the latched prepare.
/// Each restart re-snapshots the root and pays a bounded backoff
/// (`lr_buffer::olc_backoff`), so short validation races usually succeed
/// on the second try while sustained conflicts hand off to the latched
/// path quickly.
const OPT_WRITE_ATTEMPTS: usize = 3;

/// DC tuning knobs.
#[derive(Clone, Debug)]
pub struct DcConfig {
    /// Buffer pool capacity in frames (the paper's "cache size").
    pub pool_pages: usize,
    /// Emit a Δ-log record once DirtySet reaches this many entries.
    pub dirty_batch_cap: usize,
    /// Emit Δ+BW once WrittenSet reaches this many entries (§3.3's
    /// "periodically").
    pub flush_batch_cap: usize,
    /// Capture per-dirtying LSNs in Δ records (Appendix D.1 mode).
    pub perfect_delta_lsns: bool,
    /// Background-writer watermark: once more than this fraction of the
    /// cache is dirty, the cleaner flushes cold dirty pages (SQL Server's
    /// lazywriter behaviour — the force that keeps Figure 2(b)'s dirty
    /// fraction near 30% at small caches).
    pub dirty_watermark: f64,
    /// Pages the cleaner flushes per activation.
    pub cleaner_batch: usize,
    /// Run the cleaner inline on the foreground write path (the historical
    /// behaviour). With a background maintenance service attached the hook
    /// becomes advisory: set this false and drive [`DataComponent::
    /// cleaner_pass`] from the service instead, so no session ever pays a
    /// flush sweep inside its own operation.
    pub inline_cleaner: bool,
    /// Leaf-merge threshold for delete rebalancing (fraction of usable
    /// bytes; 0.0 disables merging — the default, matching the paper's
    /// update-only evaluation where trees never shrink).
    pub merge_min_fill: f64,
    /// Serve point reads and range scans through the latch-free optimistic
    /// (OLC) descent first, falling back to the latched path on validation
    /// failure. On by default; turn off to force every read through the
    /// table-latch + frame-latch path.
    pub optimistic_reads: bool,
    /// Stage eligible writes through the OLC prepare path: optimistic
    /// descent under the shared table latch, version-validated write
    /// upgrade of the leaf frame only. On by default; turn off to force
    /// every prepare through the latched descent.
    pub optimistic_writes: bool,
    /// Log-structured backend: compaction trigger — compact once the cold
    /// log region's garbage fraction (1 − live/region) exceeds this.
    pub garbage_watermark: f64,
    /// Log-structured backend: the segment granule for liveness
    /// accounting and compaction (compaction only seals whole segments;
    /// the log's current segment is never compacted).
    pub log_segment_bytes: u64,
}

impl Default for DcConfig {
    fn default() -> Self {
        DcConfig {
            pool_pages: 256,
            dirty_batch_cap: 64,
            flush_batch_cap: 64,
            perfect_delta_lsns: false,
            dirty_watermark: 0.30,
            cleaner_batch: 16,
            inline_cleaner: true,
            merge_min_fill: 0.0,
            optimistic_reads: true,
            optimistic_writes: true,
            garbage_watermark: 0.5,
            log_segment_bytes: 64 << 10,
        }
    }
}

/// What kind of write the TC wants to stage.
#[derive(Clone, Copy, Debug)]
pub enum WriteIntent {
    Insert { value_len: usize },
    Update { value_len: usize },
    Delete,
}

/// Placement information returned by [`DataComponent::prepare_write`]: the
/// page the operation will land on (piggybacked onto the TC's log record for
/// the physiological baselines) and the before-image for undo.
#[derive(Clone, Debug)]
pub struct PrepareInfo {
    pub pid: PageId,
    pub before: Option<Value>,
}

lr_common::counter_struct! {
    /// Normal-execution overhead counters (the Figure 2(c) numerators), plus
    /// the optimistic-read-path outcome counters. Defined through
    /// [`lr_common::counter_struct!`], which also generates
    /// `delta_since`/`merge_from` and the field enumeration the metrics
    /// registry exports.
    pub struct DcStats {
        counters {
            pub delta_records_written: u64,
            pub bw_records_written: u64,
            pub smo_records_written: u64,
            pub delta_bytes_logged: u64,
            pub bw_bytes_logged: u64,
            /// Point reads served fully latch-free (validated OLC descent).
            pub optimistic_point_reads: u64,
            /// Range scans served fully latch-free.
            pub optimistic_range_scans: u64,
            /// Point reads that exhausted their OLC attempts and fell back to the
            /// latched path (cold pages, contention, racing SMOs).
            pub read_fallbacks: u64,
            /// Range scans that fell back to the latched path.
            pub scan_fallbacks: u64,
            /// Writes staged through the OLC prepare path (optimistic descent +
            /// version-validated leaf upgrade).
            pub optimistic_writes: u64,
            /// Writes that exhausted their OLC prepare attempts (or needed an SMO
            /// / a fetch) and fell back to the latched prepare path.
            pub write_fallbacks: u64,
            /// Log-structured backend: whole log segments retired by
            /// compaction (their live versions migrated to sealed pages).
            pub segments_compacted: u64,
            /// Log-structured backend: bytes of live versions compaction
            /// migrated out of cold segments / old sealed generations.
            pub live_bytes_migrated: u64,
            /// Log-structured backend: cold log bytes reclaimed as garbage
            /// (region sealed minus live bytes migrated from it).
            pub dead_bytes_reclaimed: u64,
            /// Log-structured backend: point reads served by the offset →
            /// value read cache.
            pub log_read_cache_hits: u64,
            /// Log-structured backend: point reads that fetched from the
            /// log (then populated the cache).
            pub log_read_cache_misses: u64,
        }
        histograms {
            /// Per-operation OLC **read** restart distribution: how many wasted
            /// descents each optimistic read/scan performed before resolving
            /// (0 = validated first try; operations that fell back record every
            /// descent they burned). The data the `olc_backoff` constants and
            /// `OPT_READ_ATTEMPTS` are tuned from.
            pub read_restart_hist: Histogram,
            /// Same distribution for OLC **write** prepares.
            pub write_restart_hist: Histogram,
        }
    }
}

/// Lock-free per-restart-count tallies for one OLC path. Restart counts
/// are tiny (bounded by the attempt budgets), so a fixed atomic array on
/// the hot path beats a mutex-guarded histogram; [`AttemptCounters::
/// histogram`] folds the tallies into a [`Histogram`] at snapshot time.
#[derive(Default)]
pub(crate) struct AttemptCounters([AtomicU64; 8]);

impl AttemptCounters {
    /// Count one operation that performed `restarts` wasted descents.
    pub(crate) fn record(&self, restarts: usize) {
        self.0[restarts.min(self.0.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for (restarts, c) in self.0.iter().enumerate() {
            h.record_n(restarts as u64, c.load(Ordering::Relaxed));
        }
        h
    }
}

/// Shared overhead counters (one set per backend instance; all atomics).
#[derive(Default)]
pub(crate) struct DcCounters {
    delta_records_written: AtomicU64,
    bw_records_written: AtomicU64,
    pub(crate) smo_records_written: AtomicU64,
    delta_bytes_logged: AtomicU64,
    bw_bytes_logged: AtomicU64,
    pub(crate) optimistic_point_reads: AtomicU64,
    pub(crate) optimistic_range_scans: AtomicU64,
    pub(crate) read_fallbacks: AtomicU64,
    pub(crate) scan_fallbacks: AtomicU64,
    pub(crate) optimistic_writes: AtomicU64,
    pub(crate) write_fallbacks: AtomicU64,
    pub(crate) segments_compacted: AtomicU64,
    pub(crate) live_bytes_migrated: AtomicU64,
    pub(crate) dead_bytes_reclaimed: AtomicU64,
    pub(crate) log_read_cache_hits: AtomicU64,
    pub(crate) log_read_cache_misses: AtomicU64,
    pub(crate) read_restarts: AttemptCounters,
    pub(crate) write_restarts: AttemptCounters,
}

impl DcCounters {
    pub(crate) fn add_delta_record(&self, bytes: u64) {
        self.delta_bytes_logged.fetch_add(bytes, Ordering::Relaxed);
        self.delta_records_written.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn add_bw_record(&self, bytes: u64) {
        self.bw_bytes_logged.fetch_add(bytes, Ordering::Relaxed);
        self.bw_records_written.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> DcStats {
        DcStats {
            delta_records_written: self.delta_records_written.load(Ordering::Relaxed),
            bw_records_written: self.bw_records_written.load(Ordering::Relaxed),
            smo_records_written: self.smo_records_written.load(Ordering::Relaxed),
            delta_bytes_logged: self.delta_bytes_logged.load(Ordering::Relaxed),
            bw_bytes_logged: self.bw_bytes_logged.load(Ordering::Relaxed),
            optimistic_point_reads: self.optimistic_point_reads.load(Ordering::Relaxed),
            optimistic_range_scans: self.optimistic_range_scans.load(Ordering::Relaxed),
            read_fallbacks: self.read_fallbacks.load(Ordering::Relaxed),
            scan_fallbacks: self.scan_fallbacks.load(Ordering::Relaxed),
            optimistic_writes: self.optimistic_writes.load(Ordering::Relaxed),
            write_fallbacks: self.write_fallbacks.load(Ordering::Relaxed),
            segments_compacted: self.segments_compacted.load(Ordering::Relaxed),
            live_bytes_migrated: self.live_bytes_migrated.load(Ordering::Relaxed),
            dead_bytes_reclaimed: self.dead_bytes_reclaimed.load(Ordering::Relaxed),
            log_read_cache_hits: self.log_read_cache_hits.load(Ordering::Relaxed),
            log_read_cache_misses: self.log_read_cache_misses.load(Ordering::Relaxed),
            read_restart_hist: self.read_restarts.histogram(),
            write_restart_hist: self.write_restarts.histogram(),
        }
    }
}

/// The Deuteronomy data component (the default **B-tree** backend of
/// [`crate::DcApi`]).
pub struct DataComponent {
    pool: BufferPool,
    catalog: Mutex<Catalog>,
    trees: RwLock<HashMap<TableId, BTree>>,
    trackers: TrackerPair,
    wal: SharedWal,
    cfg: DcConfig,
    stats: DcCounters,
    // Latch tiers use `lr_common::latch::Latch` (not the lock-crate
    // types): its guards are `Send`, which the message-passing boundary
    // requires — a DcServer parks a prepare's guards in a token map and
    // releases them from whatever thread serves the release request.
    table_latches: Box<[Latch]>,
    page_latches: Box<[Latch]>,
    trace: std::sync::OnceLock<TraceSink>,
}

impl DataComponent {
    /// Format a fresh disk: installs an empty catalog on the meta page.
    /// Call before the first [`DataComponent::open`].
    pub fn format_disk(disk: &mut dyn Disk) -> Result<()> {
        if disk.num_pages() == 0 {
            disk.allocate();
        }
        let meta = Catalog::new().format_meta_page(disk.page_size());
        disk.write(META_PAGE, &meta)
    }

    /// Open a formatted disk: builds the pool (wiring the on-demand EOSL
    /// path to the shared log) and loads the catalog.
    pub fn open(disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<DataComponent> {
        let eosl_wal = wal.clone();
        let provider = Box::new(move |lsn: Lsn| {
            let mut w = eosl_wal.lock();
            w.make_stable(lsn);
            w.stable_lsn()
        });
        let pool = BufferPool::new(disk, cfg.pool_pages, provider);
        let catalog = Catalog::load(&pool)?;
        // The catalog read is setup noise, not workload.
        pool.take_events();
        let dc = DataComponent {
            pool,
            catalog: Mutex::new(catalog),
            trees: RwLock::new(HashMap::new()),
            trackers: TrackerPair::new(cfg.perfect_delta_lsns),
            wal,
            cfg,
            stats: DcCounters::default(),
            table_latches: (0..TABLE_LATCHES).map(|_| Latch::new()).collect::<Vec<_>>().into(),
            page_latches: (0..PAGE_LATCHES).map(|_| Latch::new()).collect::<Vec<_>>().into(),
            trace: std::sync::OnceLock::new(),
        };
        dc.attach_placement()?;
        Ok(dc)
    }

    /// Attach the trace journal (set once, at engine build): forwarded to
    /// the buffer pool, and used here for OLC fallback events.
    pub fn set_trace_sink(&self, sink: TraceSink) {
        self.pool.set_trace(sink.clone());
        let _ = self.trace.set(sink);
    }

    #[inline]
    fn emit(&self, kind: EventKind) {
        if let Some(t) = self.trace.get() {
            t.emit(kind);
        }
    }

    #[inline]
    fn table_latch(&self, table: TableId) -> &Latch {
        &self.table_latches[table.0 as usize % TABLE_LATCHES]
    }

    #[inline]
    fn page_latch(&self, pid: PageId) -> &Latch {
        &self.page_latches[lr_common::shard_index(pid.0, PAGE_LATCHES)]
    }

    /// Shared table latch for callers composing their own read sequences.
    pub fn lock_table_shared(&self, table: TableId) -> LatchReadGuard<'_> {
        self.table_latch(table).read()
    }

    /// Barrier for in-flight data operations: acquire and release every
    /// table latch exclusively, one at a time. Writers hold their table
    /// latch across the whole prepare → log → apply window, so when this
    /// returns, every operation *logged* before the call has also been
    /// *applied*. The checkpoint uses it between the bCkpt append and the
    /// generation flip — otherwise an operation logged just before bCkpt
    /// but applied just after the flip would be neither flushed by the
    /// checkpoint nor covered by the redo scan window.
    pub fn drain_in_flight_ops(&self) {
        for latch in self.table_latches.iter() {
            drop(latch.write());
        }
    }

    // ------------------------------------------------------------------
    // catalog / table management
    // ------------------------------------------------------------------

    /// Register a table whose tree was built externally (bulk load).
    pub fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        {
            let mut catalog = self.catalog.lock();
            catalog.set_root(table, root);
            catalog.save(&self.pool, Lsn::NULL)?;
        }
        self.pool.flush_page(META_PAGE)?;
        // Observe — never discard — the drained events: create_table runs
        // on the live data plane, so this batch can hold *other* sessions'
        // Dirtied/Flushed events, and dropping those would underestimate
        // the recovery DPT. The catalog flush's own events ride along as
        // tracker noise in the safe (overestimating) direction.
        self.trackers.observe_drain(&self.pool);
        self.trees.write().insert(table, BTree::attach(table, root));
        Ok(())
    }

    /// Create a fresh empty table.
    pub fn create_table(&self, table: TableId) -> Result<()> {
        let tree = BTree::create(&self.pool, table)?;
        let root = tree.root;
        self.register_table(table, root)
    }

    /// Root PID of `table`'s tree.
    pub fn table_root(&self, table: TableId) -> Result<PageId> {
        self.catalog.lock().root_of(table)
    }

    /// Update a table's root (physiological redo's SMO replay).
    pub fn set_root(&self, table: TableId, root: PageId) {
        self.catalog.lock().set_root(table, root);
        self.trees.write().insert(table, BTree::attach(table, root));
    }

    /// Snapshot of the tree handle for `table` (cheap: table id + root PID).
    pub fn tree(&self, table: TableId) -> Result<BTree> {
        self.trees.read().get(&table).cloned().ok_or(Error::UnknownTable(table))
    }

    /// The buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// How many frames the cache can actually fill: its capacity, bounded
    /// by the number of pages on the disk (a cache larger than the database
    /// never fills — the paper's 2048 MB case).
    pub fn cache_fill_target(&self) -> usize {
        self.pool.capacity().min(self.pool.disk().num_pages() as usize)
    }

    /// The shared log handle.
    pub fn wal(&self) -> SharedWal {
        self.wal.clone()
    }

    pub fn stats(&self) -> DcStats {
        self.stats.snapshot()
    }

    pub fn config(&self) -> &DcConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // data operations
    // ------------------------------------------------------------------

    /// Point read. With `optimistic_reads` the OLC descent runs first —
    /// no table latch, no frame latches — and the latched path only serves
    /// validation failures (cold pages, write contention, racing SMOs).
    pub fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        if self.cfg.optimistic_reads {
            // Pin a reclamation epoch for the whole optimistic phase: any
            // frame cell this descent may still dereference after a racing
            // eviction sits on the limbo list until the pin drops.
            let _epoch = self.pool.pin_epoch();
            let mut wasted = 0;
            for attempt in 1..=OPT_READ_ATTEMPTS {
                // Fresh root snapshot per attempt: a failed attempt may
                // mean the root moved, and the trees map has the new one.
                let tree = self.tree(table)?;
                match tree.get_optimistic(&self.pool, key) {
                    Ok(v) => {
                        self.stats.optimistic_point_reads.fetch_add(1, Ordering::Relaxed);
                        self.stats.read_restarts.record(attempt - 1);
                        return Ok(v);
                    }
                    // A non-resident page needs a fetch (only the latched
                    // path fetches) and a blown hop budget is a property
                    // of the operation shape: both fail deterministically,
                    // so further optimistic attempts are wasted work.
                    Err(
                        lr_buffer::OptReadFail::NotResident
                        | lr_buffer::OptReadFail::BudgetExhausted,
                    ) => {
                        wasted = attempt;
                        break;
                    }
                    // Give the conflicting writer a chance to finish before
                    // re-descending — immediate retries under sustained
                    // contention are doomed to revalidate the same race.
                    Err(lr_buffer::OptReadFail::Contended) => {
                        wasted = attempt;
                        lr_buffer::olc_backoff(attempt)
                    }
                }
            }
            self.stats.read_restarts.record(wasted);
            self.stats.read_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.emit(EventKind::OlcFallback { write: false });
        }
        let _t = self.lock_table_shared(table);
        let tree = self.tree(table)?;
        tree.get(&self.pool, key)
    }

    /// Range read: all rows with keys in `[from, to]`, in key order. The
    /// optimistic scan validates each leaf as one atomic snapshot; any
    /// failed hop falls back to the latched scan under the table latch.
    pub fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        if self.cfg.optimistic_reads {
            let _epoch = self.pool.pin_epoch();
            let mut wasted = 0;
            for attempt in 1..=OPT_READ_ATTEMPTS {
                let tree = self.tree(table)?;
                match tree.scan_range_optimistic(&self.pool, from, to) {
                    Ok(rows) => {
                        self.stats.optimistic_range_scans.fetch_add(1, Ordering::Relaxed);
                        self.stats.read_restarts.record(attempt - 1);
                        return Ok(rows);
                    }
                    // See `read`: cold pages and over-wide ranges fail
                    // deterministically — end the optimistic phase.
                    Err(
                        lr_buffer::OptReadFail::NotResident
                        | lr_buffer::OptReadFail::BudgetExhausted,
                    ) => {
                        wasted = attempt;
                        break;
                    }
                    Err(lr_buffer::OptReadFail::Contended) => {
                        wasted = attempt;
                        lr_buffer::olc_backoff(attempt)
                    }
                }
            }
            self.stats.read_restarts.record(wasted);
            self.stats.scan_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.emit(EventKind::OlcFallback { write: false });
        }
        let _t = self.lock_table_shared(table);
        let tree = self.tree(table)?;
        tree.scan_range(&self.pool, from, to)
    }

    /// Every row of `table` (verification walks).
    pub fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        let _t = self.lock_table_shared(table);
        let tree = self.tree(table)?;
        tree.scan_all(&self.pool)
    }

    /// OLC write prepare: optimistic root-to-leaf descent under the
    /// *shared* table latch (no frame latches on the way down), then a
    /// version-validated write upgrade of the leaf frame only. Returns
    /// `Ok(None)` when the operation must fall back to the latched
    /// prepare — cold pages, a blown hop budget, sustained validation
    /// races, or an operation that needs an SMO.
    ///
    /// Correctness: the shared table latch freezes tree structure, so the
    /// optimistic descent lands on exactly the leaf the latched descent
    /// would pick. The page-op latch is taken *before* the upgrade and the
    /// eligibility state is re-read under the leaf's write latch, so —
    /// just like the latched shared attempt — the validation describes
    /// exactly what apply will see. `KeyNotFound` / `DuplicateKey` raised
    /// here are authoritative for the same reason.
    fn try_prepare_optimistic(
        &self,
        table: TableId,
        key: Key,
        intent: WriteIntent,
    ) -> Result<Option<PreparedOp<'_>>> {
        // Pin a reclamation epoch across the descent: an evicted frame
        // cell this thread may still validate waits on the limbo list.
        let _epoch = self.pool.pin_epoch();
        for attempt in 1..=OPT_WRITE_ATTEMPTS {
            let t = self.table_latch(table).read();
            let tree = self.tree(table)?;
            let (leaf, version) = match tree.find_leaf_optimistic(&self.pool, key) {
                Ok(hit) => hit,
                Err(lr_buffer::OptReadFail::Contended) => {
                    // A data writer raced one of our hops. Back off with
                    // the table latch released, then re-descend.
                    drop(t);
                    self.pool.record_write_restart();
                    lr_buffer::olc_backoff(attempt);
                    continue;
                }
                // Cold page or blown hop budget: deterministic failures —
                // only the latched path fetches.
                Err(_) => {
                    self.stats.write_restarts.record(attempt);
                    return Ok(None);
                }
            };
            // Page-op latch before the upgrade, mirroring the latched
            // shared attempt: holding it through log+apply keeps per-page
            // LSN order equal to apply order.
            let page = self.page_latch(leaf).write();
            let upgraded = self.pool.try_write_upgrade(leaf, version, |p| {
                (lr_btree::node_search_value(p, key), p.free_space())
            });
            let (found, free) = match upgraded {
                Ok(state) => state,
                Err(lr_buffer::OptReadFail::Contended) => {
                    drop(page);
                    drop(t);
                    self.pool.record_write_restart();
                    lr_buffer::olc_backoff(attempt);
                    continue;
                }
                Err(_) => {
                    self.stats.write_restarts.record(attempt);
                    return Ok(None);
                }
            };
            // Eligibility mirrors the latched shared attempt exactly: an
            // operation that may change tree structure falls back.
            let before = match intent {
                WriteIntent::Update { value_len } => {
                    let old = found.ok_or(Error::KeyNotFound { table, key })?;
                    let grow = value_len.saturating_sub(old.len());
                    if grow != 0 && free < grow {
                        self.stats.write_restarts.record(attempt - 1);
                        return Ok(None);
                    }
                    Some(old)
                }
                WriteIntent::Delete => {
                    let old = found.ok_or(Error::KeyNotFound { table, key })?;
                    if self.cfg.merge_min_fill != 0.0 {
                        // The apply may rebalance — exclusive path.
                        self.stats.write_restarts.record(attempt - 1);
                        return Ok(None);
                    }
                    Some(old)
                }
                WriteIntent::Insert { value_len } => {
                    if found.is_some() {
                        return Err(Error::DuplicateKey { table, key });
                    }
                    if free < 8 + value_len + SLOT_SIZE {
                        self.stats.write_restarts.record(attempt - 1);
                        return Ok(None);
                    }
                    None
                }
            };
            self.stats.optimistic_writes.fetch_add(1, Ordering::Relaxed);
            self.stats.write_restarts.record(attempt - 1);
            return Ok(Some(PreparedOp::new(leaf, before, (t, page))));
        }
        self.stats.write_restarts.record(OPT_WRITE_ATTEMPTS);
        Ok(None)
    }

    /// Stage a write with the full concurrency discipline: returns a
    /// [`PreparedOp`] whose latches keep the placement valid until the
    /// caller has logged the operation and [`DcApi::apply`] has consumed
    /// it.
    ///
    /// Fast path: with `optimistic_writes` the OLC prepare
    /// ([`DataComponent::try_prepare_optimistic`]) runs first — latch-free
    /// descent, write upgrade of the leaf only. Operations that cannot
    /// change tree structure (same-size updates, deletes without merging,
    /// inserts with leaf room) otherwise run under the *shared* table
    /// latch plus the target page's op latch. Anything needing an SMO
    /// retries under the exclusive latch via
    /// [`DataComponent::prepare_write`].
    pub fn prepare_op(
        &self,
        table: TableId,
        key: Key,
        intent: WriteIntent,
    ) -> Result<PreparedOp<'_>> {
        if self.cfg.optimistic_writes {
            if let Some(op) = self.try_prepare_optimistic(table, key, intent)? {
                return Ok(op);
            }
            self.stats.write_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.emit(EventKind::OlcFallback { write: true });
        }
        // ---- shared attempt ----
        {
            let t = self.table_latch(table).read();
            let tree = self.tree(table)?;
            let leaf = tree.find_leaf(&self.pool, key)?.leaf;
            // Latch the page *before* validating: the validation below must
            // describe exactly what apply will see.
            let page = self.page_latch(leaf).write();
            let (found, free) = self
                .pool
                .with_page(leaf, |p| (lr_btree::node_search_value(p, key), p.free_space()))?;
            match intent {
                WriteIntent::Update { value_len } => {
                    let old = found.ok_or(Error::KeyNotFound { table, key })?;
                    let grow = value_len.saturating_sub(old.len());
                    if grow == 0 || free >= grow {
                        // Shared table latch + page-op latch ride inside
                        // the guard; drop order within the box is fine
                        // (both are independent latches).
                        return Ok(PreparedOp::new(leaf, Some(old), (t, page)));
                    }
                }
                WriteIntent::Delete => {
                    let old = found.ok_or(Error::KeyNotFound { table, key })?;
                    if self.cfg.merge_min_fill == 0.0 {
                        return Ok(PreparedOp::new(leaf, Some(old), (t, page)));
                    }
                    // Merging enabled: the apply may rebalance — exclusive.
                }
                WriteIntent::Insert { value_len } => {
                    if found.is_some() {
                        return Err(Error::DuplicateKey { table, key });
                    }
                    if free >= 8 + value_len + SLOT_SIZE {
                        return Ok(PreparedOp::new(leaf, None, (t, page)));
                    }
                }
            }
            // Fall through: needs structure modification.
        }
        // ---- exclusive path (SMO-capable) ----
        let t = self.table_latch(table).write();
        let info = self.prepare_write(table, key, intent)?;
        Ok(PreparedOp::new(info.pid, info.before, t))
    }

    /// Stage a write: perform any needed SMOs (logged as system
    /// transactions), locate the target page, and read the before-image.
    ///
    /// The returned PID is piggybacked on the TC's log record; `before`
    /// feeds the record's undo information. Latch-free: concurrent callers
    /// must either hold the table latch exclusively (see
    /// [`DataComponent::prepare_op`]) or be running single-threaded.
    pub fn prepare_write(
        &self,
        table: TableId,
        key: Key,
        intent: WriteIntent,
    ) -> Result<PrepareInfo> {
        let mut tree = self.tree(table)?;
        let old_root = tree.root;

        // Pre-read for update/delete (also validates existence) and compute
        // the leaf space the operation needs.
        let need = match intent {
            WriteIntent::Insert { value_len } => 8 + value_len + SLOT_SIZE,
            WriteIntent::Update { value_len } => {
                let t = tree.find_leaf(&self.pool, key)?;
                let old = self.leaf_value(t.leaf, key)?.ok_or(Error::KeyNotFound { table, key })?;
                let grow = value_len.saturating_sub(old.len());
                if grow == 0 {
                    return Ok(PrepareInfo { pid: t.leaf, before: Some(old) });
                }
                grow
            }
            WriteIntent::Delete => {
                let t = tree.find_leaf(&self.pool, key)?;
                let old = self.leaf_value(t.leaf, key)?.ok_or(Error::KeyNotFound { table, key })?;
                return Ok(PrepareInfo { pid: t.leaf, before: Some(old) });
            }
        };

        // SMO-capable traversal. The closure appends system-transaction
        // records to the common log and tallies overhead stats.
        let wal = self.wal.clone();
        let mut smo_count = 0u64;
        let mut last_smo_lsn = Lsn::NULL;
        let pid = {
            let mut smo = |rec: SmoRecord| {
                smo_count += 1;
                let lsn = wal.append(&LogPayload::Smo(rec));
                last_smo_lsn = lsn;
                lsn
            };
            tree.ensure_room(&self.pool, key, need, &mut smo)?
        };
        self.stats.smo_records_written.fetch_add(smo_count, Ordering::Relaxed);

        if tree.root != old_root {
            let mut catalog = self.catalog.lock();
            catalog.set_root(table, tree.root);
            catalog.save(&self.pool, last_smo_lsn)?;
        }
        self.trees.write().insert(table, tree);

        let before = match intent {
            WriteIntent::Insert { .. } => {
                // Uniqueness check on the final leaf.
                if self.leaf_value(pid, key)?.is_some() {
                    return Err(Error::DuplicateKey { table, key });
                }
                None
            }
            WriteIntent::Update { .. } => {
                Some(self.leaf_value(pid, key)?.ok_or(Error::KeyNotFound { table, key })?)
            }
            WriteIntent::Delete => unreachable!("delete returned above"),
        };
        Ok(PrepareInfo { pid, before })
    }

    fn leaf_value(&self, leaf: PageId, key: Key) -> Result<Option<Value>> {
        self.pool.with_page(leaf, |p| lr_btree::node_search_value(p, key))
    }

    /// Apply a logged data operation to the page named by the record (the
    /// normal-execution path; recovery has its own redo-test-guarded paths).
    /// Concurrent callers go through [`DcApi::apply`], which holds the
    /// staging [`PreparedOp`]'s guard across this.
    pub fn apply(&self, rec: &LogRecord) -> Result<()> {
        self.apply_at(
            rec.payload.data_pid().ok_or_else(|| {
                Error::RecoveryInvariant("apply of a non-data record".to_string())
            })?,
            rec,
        )?;
        // Normal-execution deletes — undo removing an inserted key is one —
        // may leave a leaf underfull; rebalance with a merge SMO. Never
        // triggered from redo (it replays logged SMOs; generating new ones
        // mid-redo would stamp pages with LSNs ahead of unreplayed
        // records).
        if self.cfg.merge_min_fill > 0.0 {
            if let LogPayload::Delete { table, key, .. }
            | LogPayload::Clr { table, key, action: ClrAction::RemoveKey, .. } = &rec.payload
            {
                self.maybe_merge(*table, *key)?;
            }
        }
        self.pump_events();
        Ok(())
    }

    /// Run the B-tree's delete-rebalancing check around `key`, logging any
    /// merge / root collapse as SMO system transactions. Callers must hold
    /// the table latch exclusively (or be single-threaded).
    pub fn maybe_merge(&self, table: TableId, key: Key) -> Result<bool> {
        let mut tree = self.tree(table)?;
        let old_root = tree.root;
        let wal = self.wal.clone();
        let mut smo_count = 0u64;
        let mut last_lsn = Lsn::NULL;
        let merged = {
            let mut smo = |rec: SmoRecord| {
                smo_count += 1;
                let lsn = wal.append(&LogPayload::Smo(rec));
                last_lsn = lsn;
                lsn
            };
            tree.maybe_merge(&self.pool, key, self.cfg.merge_min_fill, &mut smo)?
        };
        self.stats.smo_records_written.fetch_add(smo_count, Ordering::Relaxed);
        if tree.root != old_root {
            let mut catalog = self.catalog.lock();
            catalog.set_root(table, tree.root);
            catalog.save(&self.pool, last_lsn)?;
        }
        self.trees.write().insert(table, tree);
        Ok(merged)
    }

    /// Apply `rec`'s operation to `pid` under `rec.lsn`, with no redo test
    /// (callers do their own). Shared by normal execution and every
    /// recovery method.
    pub fn apply_at(&self, pid: PageId, rec: &LogRecord) -> Result<()> {
        match &rec.payload {
            LogPayload::Update { table, key, after, .. } => {
                let tree = self.tree(*table)?;
                tree.apply_update(&self.pool, pid, *key, after, rec.lsn)?;
            }
            LogPayload::Insert { table, key, value, .. } => {
                let tree = self.tree(*table)?;
                tree.apply_insert(&self.pool, pid, *key, value, rec.lsn)?;
            }
            LogPayload::Delete { table, key, .. } => {
                let tree = self.tree(*table)?;
                tree.apply_delete(&self.pool, pid, *key, rec.lsn)?;
            }
            LogPayload::Clr { table, key, action, .. } => {
                let tree = self.tree(*table)?;
                match action {
                    ClrAction::RestoreValue(v) => {
                        tree.apply_update(&self.pool, pid, *key, v, rec.lsn)?;
                    }
                    ClrAction::RemoveKey => {
                        tree.apply_delete(&self.pool, pid, *key, rec.lsn)?;
                    }
                    ClrAction::InsertValue(v) => {
                        tree.apply_insert(&self.pool, pid, *key, v, rec.lsn)?;
                    }
                }
            }
            other => {
                return Err(Error::RecoveryInvariant(format!(
                    "apply_at of non-data payload {other:?}"
                )))
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // recovery-preparation bookkeeping (Δ / BW emission)
    // ------------------------------------------------------------------

    /// Dirty-frame count above which the cleaner activates.
    fn cleaner_watermark(&self) -> usize {
        (self.cfg.dirty_watermark * self.pool.capacity() as f64) as usize
    }

    /// Is the cache dirtier than the lazywriter watermark right now?
    fn over_dirty_watermark(&self) -> bool {
        self.pool.dirty_count() > self.cleaner_watermark()
    }

    /// One lazywriter activation: if the dirty fraction exceeds the
    /// watermark, flush up to `cleaner_batch` of the coldest dirty pages
    /// and drain the resulting events into the trackers. This is the
    /// entry point a background maintenance service drives; with
    /// `inline_cleaner` the foreground path calls it from
    /// [`DataComponent::pump_events`]. Returns pages flushed.
    pub fn cleaner_pass(&self) -> Result<usize> {
        if !self.over_dirty_watermark() {
            return Ok(0);
        }
        // Cleaner flushes emit Flushed events picked up by the drain.
        let flushed = self.pool.clean_coldest(self.cfg.cleaner_batch)?;
        self.pump_trackers();
        Ok(flushed)
    }

    /// Drain cache events into the trackers and emit Δ/BW records when the
    /// batching thresholds trip. Called after every operation. Also runs
    /// the cleaner inline when the dirty fraction exceeds the watermark —
    /// unless a background service owns that duty (`inline_cleaner` off).
    pub fn pump_events(&self) {
        if self.cfg.inline_cleaner && self.over_dirty_watermark() {
            let _ = self.pool.clean_coldest(self.cfg.cleaner_batch);
        }
        self.pump_trackers();
    }

    /// The tracker half of [`DataComponent::pump_events`]: drain pending
    /// cache events and emit Δ/BW records when the thresholds trip (the
    /// lock-order discipline lives in [`TrackerPair`]).
    fn pump_trackers(&self) {
        self.trackers.pump(
            &self.pool,
            &self.wal,
            self.cfg.dirty_batch_cap,
            self.cfg.flush_batch_cap,
            &self.stats,
        );
    }

    /// Force both trackers to emit (checkpoint boundary).
    pub fn force_emit(&self) {
        self.trackers.force_emit(&self.pool, &self.wal, &self.stats);
    }

    // ------------------------------------------------------------------
    // control operations
    // ------------------------------------------------------------------

    /// EOSL: the TC advertises its end-of-stable-log.
    pub fn eosl(&self, elsn: Lsn) {
        self.pool.set_elsn(elsn);
    }

    /// RSSP: the TC announces its intended redo-scan-start-point (its bCkpt
    /// LSN). The DC flushes every page dirtied before the checkpoint
    /// (penultimate scheme), emits the pending Δ/BW state, and durably
    /// records the RSSP on the log. When this returns, no operation with
    /// `LSN <= rssp_lsn` needs redo.
    pub fn rssp(&self, rssp_lsn: Lsn) -> Result<()> {
        self.pool.begin_checkpoint();
        self.pool.checkpoint_flush()?;
        self.force_emit();
        self.wal.append(&LogPayload::Rssp { rssp_lsn });
        Ok(())
    }

    // ------------------------------------------------------------------
    // crash
    // ------------------------------------------------------------------

    /// Crash the DC: the cache, the open Δ/BW intervals and the in-memory
    /// catalog all vanish. Stable pages survive on the disk.
    pub fn crash(&self) {
        self.pool.crash();
        self.trackers.crash();
        *self.catalog.lock() = Catalog::new();
        self.trees.write().clear();
    }

    // ------------------------------------------------------------------
    // resolution / verification (the DcApi recovery hooks)
    // ------------------------------------------------------------------

    /// Structural verification: key ordering, separator bracketing,
    /// uniform leaf depth and sibling-chain consistency.
    pub fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        let _t = self.lock_table_shared(table);
        let tree = self.tree(table)?;
        let s = lr_btree::verify_tree(&tree, &self.pool)?;
        Ok(TableSummary {
            records: s.records,
            leaf_pages: s.leaf_pages,
            internal_pages: s.internal_pages,
            height: s.height,
        })
    }
}

impl DcIntrospect for DataComponent {
    fn backend_name(&self) -> &'static str {
        crate::backend::BTREE_BACKEND
    }

    fn pool(&self) -> &BufferPool {
        DataComponent::pool(self)
    }

    fn stats(&self) -> DcStats {
        DataComponent::stats(self)
    }

    fn config(&self) -> &DcConfig {
        DataComponent::config(self)
    }

    fn wal(&self) -> SharedWal {
        DataComponent::wal(self)
    }
}

impl DcApi for DataComponent {
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        DataComponent::read(self, table, key)
    }

    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        DataComponent::read_range(self, table, from, to)
    }

    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        DataComponent::scan_all(self, table)
    }

    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>> {
        DataComponent::prepare_op(self, table, key, intent)
    }

    fn apply(&self, _op: PreparedOp<'_>, rec: &LogRecord) -> Result<()> {
        // `_op`'s latches drop on return — after the apply they protect.
        DataComponent::apply(self, rec)
    }

    fn eosl(&self, elsn: Lsn) {
        DataComponent::eosl(self, elsn)
    }

    fn rssp(&self, rssp_lsn: Lsn) -> Result<()> {
        DataComponent::rssp(self, rssp_lsn)
    }

    fn drain_in_flight_ops(&self) {
        DataComponent::drain_in_flight_ops(self)
    }

    fn crash(&self) {
        DataComponent::crash(self)
    }

    fn pump_events(&self) {
        DataComponent::pump_events(self)
    }

    fn force_emit(&self) {
        DataComponent::force_emit(self)
    }

    fn cleaner_pass(&self) -> Result<usize> {
        DataComponent::cleaner_pass(self)
    }

    fn create_table(&self, table: TableId) -> Result<()> {
        DataComponent::create_table(self, table)
    }

    fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        DataComponent::register_table(self, table, root)
    }

    fn table_root(&self, table: TableId) -> Result<PageId> {
        DataComponent::table_root(self, table)
    }

    fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        DataComponent::verify_table(self, table)
    }

    fn redo(&self, window: &[LogRecord], plan: &RedoPlan) -> Result<RecoveryBreakdown> {
        crate::redo::run(self, window, plan)
    }

    fn set_trace(&self, sink: TraceSink) {
        DataComponent::set_trace_sink(self, sink);
    }

    fn reopen(&self, disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<Arc<dyn DcApi>> {
        Ok(Arc::new(DataComponent::open(disk, wal, cfg)?))
    }
}

impl RedoBackend for DataComponent {
    fn catalog(&self) -> &Mutex<Catalog> {
        &self.catalog
    }

    fn attach_placement(&self) -> Result<()> {
        let catalog = self.catalog.lock();
        *self.trees.write() =
            catalog.tables().map(|(t, root)| (t, BTree::attach(t, root))).collect();
        Ok(())
    }

    /// Logical redo resolution: traverse internal pages to the leaf that
    /// holds (or would hold) `key` — Algorithm 5 line 4. The logged PID is
    /// advisory for this backend; the tree, made well-formed by SMO redo,
    /// is authoritative.
    fn resolve_redo_pid(&self, table: TableId, key: Key, _logged_pid: PageId) -> Result<Located> {
        let tree = self.tree(table)?;
        let (pid, levels, stall_us) = tree.find_leaf_pid_timed(&self.pool, key)?;
        Ok(Located { pid, levels, stall_us })
    }

    fn apply_at(&self, pid: PageId, rec: &LogRecord) -> Result<()> {
        DataComponent::apply_at(self, pid, rec)
    }

    fn replay_smo_screened(
        &self,
        lsn: Lsn,
        smo: &SmoRecord,
        dpt: &Dpt,
        out: &mut SmoBarrierOutcome,
    ) -> Result<Option<Lsn>> {
        crate::recovery::replay_smo_screened(self, lsn, smo, dpt, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    #[test]
    fn preload_index_touches_every_internal_page() {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::default());
        DataComponent::format_disk(&mut disk).unwrap();
        let rows = (0..3_000u64).map(|k| (k, vec![k as u8; 32]));
        let root = lr_btree::bulk_load(&mut disk, TableId(1), rows, 0.9).unwrap();
        let cfg = DcConfig { pool_pages: 1024, ..DcConfig::default() };
        let dc = DataComponent::open(Box::new(disk), Wal::new_shared(4096), cfg).unwrap();
        dc.register_table(TableId(1), root).unwrap();
        let loaded = RedoBackend::preload_index(&dc).unwrap();
        let internals = dc.tree(TableId(1)).unwrap().clone().internal_pids(dc.pool()).unwrap();
        assert_eq!(loaded.pages_loaded, internals.len() as u64);
        for pid in internals {
            assert!(dc.pool().contains(pid), "internal page {pid} not cached");
        }
    }
}
