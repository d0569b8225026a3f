//! The Deuteronomy engine: TC ↔ DC wiring, normal execution, checkpoints
//! and the crash lifecycle.
//!
//! The engine is the sequencer the paper's Figure 1(A) sketches: every data
//! operation flows **prepare (DC) → log (TC) → apply (DC)**, EOSL rides on
//! commits, and checkpoints run the bCkpt → RSSP → eCkpt handshake.
//!
//! Every method takes `&self`: wrap the engine in an [`std::sync::Arc`]
//! (see [`Engine::into_shared`]) and open one [`crate::Session`] per
//! client thread. Single-threaded callers keep the exact same call shapes
//! they had against the old `&mut Engine` API. Lock order on the write
//! path: key lock (TC) → table latch (DC) → page-op latch (DC) → log
//! latch → frame latch; the no-wait key locks at the top keep the whole
//! stack deadlock-free.

use crate::config::{default_table_op, EngineConfig, DEFAULT_TABLE};
use crate::maintenance::{MaintCounters, MaintenanceHandle};
use lr_common::{Error, Histogram, Key, Lsn, PageId, Result, SimClock, TableId, TxnId, Value};
use lr_dc::{DcApi, DcConfig, TableSummary, WriteIntent};
use lr_obs::{EventKind, MetricsSnapshot, TraceEvent, TraceSink};
use lr_storage::SimDisk;
use lr_tc::{undo::rollback_txn, TransactionComponent, UndoStats};
use lr_wal::{GroupCommitStats, SharedWal, Wal};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Ground truth captured at the instant of a crash — the oracle for DPT
/// safety tests and the Figure 2(b) numbers.
#[derive(Clone, Debug)]
pub struct CrashSnapshot {
    /// `(pid, first-dirty LSN)` for every genuinely dirty page.
    pub dirty_truth: Vec<(PageId, Lsn)>,
    /// Dirty frame count at crash.
    pub dirty_pages: usize,
    /// Cached frame count at crash.
    pub cached_pages: usize,
    /// Pool capacity (frames).
    pub pool_capacity: usize,
    /// Log size at crash (records / bytes).
    pub wal_records: usize,
    pub wal_bytes: u64,
}

impl CrashSnapshot {
    /// Dirty fraction of the cache, in percent — Figure 2(b)'s y-axis.
    pub fn dirty_percent_of_cache(&self) -> f64 {
        if self.pool_capacity == 0 {
            return 0.0;
        }
        100.0 * self.dirty_pages as f64 / self.pool_capacity as f64
    }
}

/// The engine.
pub struct Engine {
    pub(crate) tc: TransactionComponent,
    pub(crate) dc: std::sync::Arc<dyn DcApi>,
    pub(crate) wal: SharedWal,
    pub(crate) clock: SimClock,
    pub(crate) cfg: EngineConfig,
    pub(crate) crashed: AtomicBool,
    pub(crate) checkpoints_taken: AtomicU64,
    pub(crate) last_bckpt: AtomicU64,
    /// Serializes the control-plane transitions (checkpoint, crash,
    /// recover) against each other; the data plane never takes it.
    pub(crate) lifecycle: Mutex<()>,
    /// Shared-mode latch held by every data operation for its duration;
    /// [`Engine::crash`] takes it exclusively. Log-appending operations
    /// also check the crashed flag under it — that is what makes
    /// post-crash appends *impossible* rather than discouraged: a session
    /// either finishes its appends before the log is truncated, or
    /// observes the flag and errors out. Read-only operations take the
    /// shared latch without the flag check (reading a crashed engine
    /// stays legal), so crash's pool teardown can never interleave with a
    /// half-installed frame or flush a page after the snapshot instant.
    pub(crate) data_plane: RwLock<()>,
    /// Snapshot captured by the most recent crash (None before any crash).
    pub(crate) last_crash: Mutex<Option<CrashSnapshot>>,
    /// Running background maintenance service, if any (see
    /// [`Engine::start_maintenance`]).
    pub(crate) maintenance: Mutex<Option<MaintenanceHandle>>,
    /// Maintenance-service counters (surfaced via [`Engine::stats`]).
    pub(crate) maint: MaintCounters,
    /// Log length when the last checkpoint completed — the background
    /// checkpointer's log-bytes policy input.
    pub(crate) bytes_at_last_ckpt: AtomicU64,
    /// The trace journal (disabled no-op sink unless `cfg.trace`); the
    /// same sink is plumbed into the DC, pool and WAL at build time.
    pub(crate) trace: TraceSink,
    /// In-memory metrics time series appended by the maintenance
    /// service when `cfg.metrics_sample_ms > 0` (bounded; oldest
    /// samples are evicted).
    pub(crate) metrics_history: Mutex<Vec<MetricsSnapshot>>,
    /// Log bytes validated by this engine's restart passes (see
    /// `RecoveryBreakdown::restart_scan_bytes`), summed over recoveries.
    pub(crate) restart_scan_bytes: AtomicU64,
}

/// Aggregate engine observability: lifecycle counters, maintenance-service
/// activity, cache occupancy and group-commit effectiveness, in one
/// snapshot (cheap; every source is an atomic or a short lock).
#[derive(Clone, Debug)]
pub struct EngineStats {
    /// Checkpoints completed since build (foreground + background).
    pub checkpoints_taken: u64,
    /// Checkpoints initiated by the background service.
    pub background_checkpoints: u64,
    /// Lazywriter sweeps that flushed at least one page.
    pub cleaner_sweeps: u64,
    /// Pages flushed by lazywriter sweeps.
    pub cleaner_pages_flushed: u64,
    /// Compactor sweeps that reclaimed at least one log segment
    /// (log-structured backend only).
    pub compactor_sweeps: u64,
    /// Cold log segments reclaimed by compactor sweeps.
    pub compactor_segments: u64,
    /// Maintenance policy-loop iterations (both threads).
    pub maintenance_ticks: u64,
    /// Ticks spent quiesced because the engine was crashed.
    pub quiesced_ticks: u64,
    /// Is the service currently attached?
    pub maintenance_running: bool,
    /// Dirty frames right now.
    pub dirty_pages: usize,
    /// Cached frames right now.
    pub cached_pages: usize,
    /// Pool capacity in frames.
    pub pool_capacity: usize,
    /// Current log length in bytes.
    pub log_bytes: u64,
    /// Log bytes appended since the last completed checkpoint.
    pub log_bytes_since_checkpoint: u64,
    /// Group-commit force/piggyback counters.
    pub group_commit: GroupCommitStats,
    /// Point reads served fully latch-free (validated OLC descent).
    pub optimistic_point_reads: u64,
    /// Range scans served fully latch-free.
    pub optimistic_range_scans: u64,
    /// Reads + scans that exhausted their OLC attempts and fell back to
    /// the latched path.
    pub read_fallbacks: u64,
    /// Pool-level seqlock rejections (odd version or a version change
    /// under the read) — the raw contention signal behind the fallbacks.
    pub optimistic_validation_failures: u64,
    /// Writes staged through the OLC prepare path (optimistic descent +
    /// version-validated leaf upgrade).
    pub optimistic_writes: u64,
    /// Writes that fell back to the latched prepare path.
    pub write_fallbacks: u64,
    /// OLC write-prepare restarts (descent or upgrade lost a validation
    /// race and re-descended after backoff).
    pub write_restarts: u64,
    /// Leaf write-upgrades rejected (version moved, frame latched or
    /// evicted between descent and upgrade).
    pub leaf_upgrades_failed: u64,
    /// Reclamation epochs advanced (all pins idle or current).
    pub epochs_advanced: u64,
    /// Epoch advances forced by the limbo high-water mark (the retired
    /// backlog crossed 3/4 of pool capacity before the cap bit).
    pub forced_epoch_advances: u64,
    /// Evicted frame cells parked on the reclamation limbo list.
    pub frames_retired: u64,
    /// Limbo cells whose page buffer was recycled into a new frame.
    pub frames_recycled: u64,
    /// Per-operation OLC read-descent restart distribution: bucket *n*
    /// counts point reads / range scans that needed *n* restarts before
    /// validating (the tail is the contention story a mean hides).
    pub read_restart_hist: Histogram,
    /// Per-operation OLC write-prepare restart distribution, same shape.
    pub write_restart_hist: Histogram,
}

impl EngineStats {
    /// Dirty fraction of the cache (the lazywriter's control variable).
    pub fn dirty_fraction(&self) -> f64 {
        if self.pool_capacity == 0 {
            return 0.0;
        }
        self.dirty_pages as f64 / self.pool_capacity as f64
    }
}

/// The DC tuning derived from an engine config — one mapping shared by
/// build, reopen, and fork, so every engine over the same config gets the
/// same knobs (the side-by-side recovery comparisons depend on it).
fn dc_config(cfg: &EngineConfig) -> DcConfig {
    DcConfig {
        pool_pages: cfg.pool_pages,
        dirty_batch_cap: cfg.dirty_batch_cap,
        flush_batch_cap: cfg.flush_batch_cap,
        perfect_delta_lsns: cfg.perfect_delta_lsns,
        dirty_watermark: cfg.dirty_watermark,
        cleaner_batch: cfg.cleaner_batch,
        // With a background service the cleaner hook turns advisory: the
        // lazywriter thread sweeps, the session fast path never does.
        inline_cleaner: !cfg.background_maintenance,
        merge_min_fill: cfg.merge_min_fill,
        optimistic_reads: cfg.optimistic_reads,
        optimistic_writes: cfg.optimistic_writes,
        garbage_watermark: cfg.garbage_watermark,
        log_segment_bytes: cfg.log_segment_bytes,
    }
}

/// Approximate journal capacity, in events, of an engine's trace sink.
const TRACE_CAPACITY: usize = 1 << 16;

/// Build the trace sink an engine config asks for and plumb it into the
/// subsystems that emit on their own (DC → pool, WAL). Disabled configs
/// get the no-op sink and the subsystems are left untouched (their
/// `OnceLock` slots stay free for a later explicit hookup).
fn plumb_trace(cfg: &EngineConfig, dc: &dyn DcApi, wal: &SharedWal) -> TraceSink {
    if !cfg.trace {
        return TraceSink::disabled();
    }
    let sink = TraceSink::enabled(TRACE_CAPACITY);
    dc.set_trace(sink.clone());
    wal.set_trace(sink.clone());
    sink
}

impl Engine {
    /// Build an engine on a fresh simulated disk: format it, bulk-load
    /// [`DEFAULT_TABLE`] with `cfg.initial_rows` rows, open the DC and TC
    /// on a shared log.
    pub fn build(cfg: EngineConfig) -> Result<Engine> {
        let clock = SimClock::new();
        let disk = SimDisk::new(cfg.page_size, 0, clock.clone(), cfg.io_model.clone());
        // The engine must share the disk's timeline: recovery resets this
        // clock and reads phase boundaries from it.
        Engine::build_with_clock(Box::new(disk), cfg, clock)
    }

    /// Build an engine on a caller-provided empty disk (e.g. a
    /// [`lr_storage::FileDisk`] for a persistent database). Formats the
    /// disk and bulk-loads the default table like [`Engine::build`].
    /// Untimed disks get a fresh (never-advancing) clock.
    pub fn build_on_disk(disk: Box<dyn lr_storage::Disk>, cfg: EngineConfig) -> Result<Engine> {
        let clock = SimClock::new();
        Engine::build_with_clock(disk, cfg, clock)
    }

    fn build_with_clock(
        mut disk: Box<dyn lr_storage::Disk>,
        cfg: EngineConfig,
        clock: SimClock,
    ) -> Result<Engine> {
        // The backend registry supplies format / bulk-load / open for the
        // configured DC (`EngineConfig::backend`); everything after this
        // point sees only the `DcApi` contract.
        let be = lr_dc::backend(&cfg.backend)?;
        (be.format)(&mut *disk)?;
        let mut rows = (0..cfg.initial_rows).map(|k| (k, cfg.initial_value(k)));
        let root = (be.bulk_load)(&mut *disk, DEFAULT_TABLE, &mut rows, cfg.fill_factor)?;

        let wal = Wal::new_shared(cfg.log_page_size);
        wal.set_force_latency_us(cfg.commit_force_us);
        let dcfg = dc_config(&cfg);
        let dc = (be.open)(disk, wal.clone(), dcfg)?;
        dc.register_table(DEFAULT_TABLE, root)?;
        let tc = TransactionComponent::new(wal.clone());
        let trace = plumb_trace(&cfg, dc.as_ref(), &wal);
        Ok(Engine {
            tc,
            dc,
            wal,
            clock,
            cfg,
            crashed: AtomicBool::new(false),
            checkpoints_taken: AtomicU64::new(0),
            last_bckpt: AtomicU64::new(Lsn::NULL.0),
            lifecycle: Mutex::new(()),
            data_plane: RwLock::new(()),
            last_crash: Mutex::new(None),
            maintenance: Mutex::new(None),
            maint: MaintCounters::default(),
            bytes_at_last_ckpt: AtomicU64::new(0),
            trace,
            metrics_history: Mutex::new(Vec::new()),
            restart_scan_bytes: AtomicU64::new(0),
        })
    }

    /// Re-open an engine from existing stable state (a disk image plus the
    /// log that survived a process exit). The engine starts **crashed**;
    /// call [`Engine::recover`] before using it — exactly a restart.
    pub fn open_existing(
        disk: Box<dyn lr_storage::Disk>,
        wal: lr_wal::Wal,
        cfg: EngineConfig,
    ) -> Result<Engine> {
        let clock = SimClock::new();
        let wal: SharedWal = SharedWal::new(wal);
        wal.set_force_latency_us(cfg.commit_force_us);
        let dcfg = dc_config(&cfg);
        let dc = (lr_dc::backend(&cfg.backend)?.open)(disk, wal.clone(), dcfg)?;
        let tc = TransactionComponent::new(wal.clone());
        let trace = plumb_trace(&cfg, dc.as_ref(), &wal);
        Ok(Engine {
            tc,
            dc,
            wal,
            clock,
            cfg,
            crashed: AtomicBool::new(true),
            checkpoints_taken: AtomicU64::new(0),
            last_bckpt: AtomicU64::new(Lsn::NULL.0),
            lifecycle: Mutex::new(()),
            data_plane: RwLock::new(()),
            last_crash: Mutex::new(None),
            maintenance: Mutex::new(None),
            maint: MaintCounters::default(),
            bytes_at_last_ckpt: AtomicU64::new(0),
            trace,
            metrics_history: Mutex::new(Vec::new()),
            restart_scan_bytes: AtomicU64::new(0),
        })
    }

    /// Move the engine behind an `Arc` so sessions on multiple threads can
    /// share it (see [`crate::Session`]). Starts the background
    /// maintenance service when the config asks for it.
    pub fn into_shared(self) -> Arc<Engine> {
        let engine = Arc::new(self);
        if engine.cfg.background_maintenance {
            engine.start_maintenance();
        }
        engine
    }

    /// Persist the log to `path` (pairs with [`Engine::open_existing`] for
    /// process restarts; the simulated-crash experiments don't need it).
    pub fn persist_log(&self, path: &std::path::Path) -> Result<()> {
        self.wal.lock().save(path)
    }

    fn check_up(&self) -> Result<()> {
        if self.is_crashed() {
            Err(Error::RecoveryInvariant("engine is crashed; recover first".into()))
        } else {
            Ok(())
        }
    }

    /// Enter the data plane: take the shared lifecycle latch, then check
    /// the crashed flag *under it*. While the returned guard is alive no
    /// crash can truncate the log, so every record this operation appends
    /// lands before the post-crash log is fixed.
    fn enter_data_plane(&self) -> Result<RwLockReadGuard<'_, ()>> {
        let guard = self.data_plane.read();
        self.check_up()?;
        Ok(guard)
    }

    // ------------------------------------------------------------------
    // transactions
    // ------------------------------------------------------------------

    /// Begin a transaction. Fails if the engine is crashed (checked under
    /// the data-plane latch, so a begin racing [`Engine::crash`] can never
    /// append `TxnBegin` to the post-crash log).
    pub fn begin(&self) -> Result<TxnId> {
        let _dp = self.enter_data_plane()?;
        let txn = self.tc.begin();
        self.trace.emit(EventKind::TxnBegin { txn: txn.0 });
        Ok(txn)
    }

    /// Acquire `txn`'s lock, journaling the conflict when it loses under
    /// the no-wait policy (every locking entry point funnels through
    /// here so the journal sees the whole contention story).
    fn lock_traced(&self, txn: TxnId, table: TableId, key: Key) -> Result<()> {
        let out = self.tc.lock(txn, table, key);
        if let Err(Error::LockConflict { .. }) = &out {
            self.trace.emit(EventKind::LockConflict { txn: txn.0, table: table.0 as u64, key });
        }
        out
    }

    /// Update `key` in `table` to `value`.
    pub fn update_in(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> Result<()> {
        let _dp = self.enter_data_plane()?;
        self.lock_traced(txn, table, key)?;
        let mut prep =
            self.dc.prepare_op(table, key, WriteIntent::Update { value_len: value.len() })?;
        let before = prep.before.take().expect("update prepare returns a before-image");
        let rec = self.tc.log_update(txn, table, key, prep.pid, before, value)?;
        // `apply` consumes `prep`: its latches are released inside, after
        // the apply they protect (a failed log append drops them above).
        self.dc.apply(prep, &rec)
    }

    default_table_op! {
        /// Update in the default table.
        pub fn update(&self, txn: TxnId; key: Key, value: Value) -> Result<()> => update_in
    }

    /// Insert `key -> value` into `table`.
    pub fn insert_in(&self, txn: TxnId, table: TableId, key: Key, value: Value) -> Result<()> {
        let _dp = self.enter_data_plane()?;
        self.lock_traced(txn, table, key)?;
        let prep =
            self.dc.prepare_op(table, key, WriteIntent::Insert { value_len: value.len() })?;
        let rec = self.tc.log_insert(txn, table, key, prep.pid, value)?;
        self.dc.apply(prep, &rec)
    }

    default_table_op! {
        /// Insert into the default table.
        pub fn insert(&self, txn: TxnId; key: Key, value: Value) -> Result<()> => insert_in
    }

    /// Delete `key` from `table`.
    pub fn delete_in(&self, txn: TxnId, table: TableId, key: Key) -> Result<()> {
        let _dp = self.enter_data_plane()?;
        self.lock_traced(txn, table, key)?;
        let mut prep = self.dc.prepare_op(table, key, WriteIntent::Delete)?;
        let before = prep.before.take().expect("delete prepare returns a before-image");
        let rec = self.tc.log_delete(txn, table, key, prep.pid, before)?;
        self.dc.apply(prep, &rec)
    }

    default_table_op! {
        /// Delete from the default table.
        pub fn delete(&self, txn: TxnId; key: Key) -> Result<()> => delete_in
    }

    /// Read a key (no transaction needed — single-version storage).
    /// Reads work on a crashed engine (the oracle checks depend on it),
    /// so only the shared latch is taken, not the crashed check. With
    /// `EngineConfig::optimistic_reads` (the default) the DC serves this
    /// through the latch-free OLC descent first — the engine-level
    /// data-plane latch here is the only lock a validated optimistic read
    /// ever takes.
    pub fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        let _dp = self.data_plane.read();
        self.dc.read(table, key)
    }

    /// Locking read: acquire `txn`'s exclusive lock on `(table, key)`
    /// first, then read — the read-modify-write entry point (e.g. a bank
    /// transfer reads both balances under locks before updating them).
    /// No-wait: conflicts surface as [`Error::LockConflict`].
    ///
    /// With `EngineConfig::optimistic_reads` the read half runs through
    /// the validated OLC descent: the TC's key lock is the only per-key
    /// synchronization, and no table or frame latch is taken until the
    /// subsequent write's prepare — which itself validates instead of
    /// locking until the final leaf when `optimistic_writes` is on.
    pub fn read_for_update(&self, txn: TxnId, table: TableId, key: Key) -> Result<Option<Value>> {
        let _dp = self.enter_data_plane()?;
        self.lock_traced(txn, table, key)?;
        self.dc.read(table, key)
    }

    /// Range read: rows with keys in `[from, to]`, in key order.
    ///
    /// Reads are unlocked (single-version storage; readers see committed or
    /// in-flight values of concurrent writers, never torn pages — the
    /// frame latches make each page access atomic); the Deuteronomy
    /// companion work on key-range locking is out of scope here.
    pub fn scan_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        let _dp = self.data_plane.read();
        self.dc.read_range(table, from, to)
    }

    /// Commit: forces the log (group commit) and delivers EOSL to the DC.
    pub fn commit(&self, txn: TxnId) -> Result<()> {
        let _dp = self.enter_data_plane()?;
        let stable = self.tc.commit(txn)?;
        self.trace.emit(EventKind::TxnCommit { txn: txn.0 });
        self.dc.eosl(stable);
        Ok(())
    }

    /// Abort: logical rollback via CLRs, then `TxnAbort`.
    pub fn abort(&self, txn: TxnId) -> Result<UndoStats> {
        let _dp = self.enter_data_plane()?;
        let head = self.tc.last_lsn_of(txn)?;
        let mut stats = UndoStats::default();
        rollback_txn(&self.tc, self.dc.as_ref(), txn, head, &mut stats)?;
        self.trace.emit(EventKind::TxnAbort { txn: txn.0 });
        Ok(stats)
    }

    /// Establish a savepoint inside `txn`.
    pub fn savepoint(&self, txn: TxnId) -> Result<Lsn> {
        let _dp = self.enter_data_plane()?;
        self.tc.savepoint(txn)
    }

    /// Partial rollback: undo `txn`'s operations newer than `sp` (from
    /// [`Engine::savepoint`]); the transaction stays active.
    pub fn rollback_to(&self, txn: TxnId, sp: Lsn) -> Result<UndoStats> {
        let _dp = self.enter_data_plane()?;
        let mut stats = UndoStats::default();
        lr_tc::rollback_to_savepoint(&self.tc, self.dc.as_ref(), txn, sp, &mut stats)?;
        Ok(stats)
    }

    /// Create an additional (empty) table.
    pub fn create_table(&self, table: TableId) -> Result<()> {
        let _dp = self.enter_data_plane()?;
        self.dc.create_table(table)
    }

    // ------------------------------------------------------------------
    // checkpointing
    // ------------------------------------------------------------------

    /// Take a checkpoint: bCkpt → (EOSL) → RSSP at the DC → eCkpt. Runs
    /// against live sessions — writers keep committing while the DC
    /// flushes; the penultimate-generation scheme keeps the bracket sound.
    pub fn checkpoint(&self) -> Result<Lsn> {
        let _lc = self.lifecycle.lock();
        // Checked under the lifecycle lock: a checkpoint racing crash()
        // must not append bCkpt/RSSP/eCkpt to the post-crash log.
        self.check_up()?;
        let aries_dpt = self.cfg.aries_ckpt_capture.then(|| self.dc.pool().runtime_dpt());
        let bckpt = self.tc.begin_checkpoint(aries_dpt);
        self.trace.emit(EventKind::CheckpointBegin { lsn: bckpt.0 });
        // Every operation logged before bCkpt must be applied before the
        // generation flip inside rssp(), or it escapes both the checkpoint
        // flush and the redo scan window.
        self.dc.drain_in_flight_ops();
        self.dc.eosl(self.tc.stable_lsn());
        self.dc.rssp(bckpt)?;
        self.tc.end_checkpoint(bckpt);
        self.dc.eosl(self.tc.stable_lsn());
        self.checkpoints_taken.fetch_add(1, Ordering::AcqRel);
        self.last_bckpt.store(bckpt.0, Ordering::Release);
        self.bytes_at_last_ckpt.store(self.wal.lock().byte_len(), Ordering::Release);
        self.trace.emit(EventKind::CheckpointEnd { lsn: bckpt.0 });
        Ok(bckpt)
    }

    pub fn checkpoints_taken(&self) -> u64 {
        self.checkpoints_taken.load(Ordering::Acquire)
    }

    /// Log bytes appended since the last completed checkpoint (saturates
    /// to zero across a crash truncation).
    pub fn log_bytes_since_checkpoint(&self) -> u64 {
        let cur = self.wal.lock().byte_len();
        cur.saturating_sub(self.bytes_at_last_ckpt.load(Ordering::Acquire))
    }

    /// One lazywriter activation on behalf of the maintenance service:
    /// enters the data plane (so it can never flush into, or append Δ/BW
    /// records onto, a post-crash log) and runs the DC's cleaner pass.
    /// Returns pages flushed.
    pub(crate) fn cleaner_sweep(&self) -> Result<usize> {
        let _dp = self.enter_data_plane()?;
        self.dc.cleaner_pass()
    }

    /// One compactor activation on behalf of the maintenance service:
    /// enters the data plane (same crash discipline as the lazywriter)
    /// and runs the DC's compaction pass. Returns segments reclaimed —
    /// always 0 on backends without log-structured storage.
    pub(crate) fn compact_sweep(&self) -> Result<usize> {
        let _dp = self.enter_data_plane()?;
        self.dc.compact_pass()
    }

    /// Aggregate observability snapshot (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        let pool = self.dc.pool();
        let pool_stats = pool.stats();
        let dc_stats = self.dc.stats();
        let log_bytes = self.wal.lock().byte_len();
        EngineStats {
            checkpoints_taken: self.checkpoints_taken(),
            background_checkpoints: self.maint.bg_checkpoints.load(Ordering::Relaxed),
            cleaner_sweeps: self.maint.cleaner_sweeps.load(Ordering::Relaxed),
            cleaner_pages_flushed: self.maint.cleaner_pages.load(Ordering::Relaxed),
            compactor_sweeps: self.maint.compactor_sweeps.load(Ordering::Relaxed),
            compactor_segments: self.maint.compactor_segments.load(Ordering::Relaxed),
            maintenance_ticks: self.maint.ticks.load(Ordering::Relaxed),
            quiesced_ticks: self.maint.quiesced_ticks.load(Ordering::Relaxed),
            maintenance_running: self.maintenance_running(),
            dirty_pages: pool.dirty_count(),
            cached_pages: pool.len(),
            pool_capacity: pool.capacity(),
            log_bytes,
            log_bytes_since_checkpoint: log_bytes
                .saturating_sub(self.bytes_at_last_ckpt.load(Ordering::Acquire)),
            group_commit: self.wal.group_commit_stats(),
            optimistic_point_reads: dc_stats.optimistic_point_reads,
            optimistic_range_scans: dc_stats.optimistic_range_scans,
            read_fallbacks: dc_stats.read_fallbacks + dc_stats.scan_fallbacks,
            optimistic_validation_failures: pool_stats.optimistic_validation_failures,
            optimistic_writes: dc_stats.optimistic_writes,
            write_fallbacks: dc_stats.write_fallbacks,
            write_restarts: pool_stats.write_restarts,
            leaf_upgrades_failed: pool_stats.leaf_upgrades_failed,
            epochs_advanced: pool_stats.epochs_advanced,
            forced_epoch_advances: pool_stats.forced_epoch_advances,
            frames_retired: pool_stats.frames_retired,
            frames_recycled: pool_stats.frames_recycled,
            read_restart_hist: dc_stats.read_restart_hist,
            write_restart_hist: dc_stats.write_restart_hist,
        }
    }

    /// The whole measurement surface as one [`MetricsSnapshot`]: every
    /// [`EngineStats`] field under the `engine_` prefix, plus the pool /
    /// DC / I/O counter structs (via their `counter_struct!`-generated
    /// enumerations, so the export cannot drift from the definitions),
    /// the TC's transaction counters, and the journal's drop counter.
    /// Export with [`MetricsSnapshot::to_prometheus`] /
    /// [`MetricsSnapshot::to_json_lines`]; window with
    /// [`MetricsSnapshot::delta_since`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let s = self.stats();
        let pool = self.dc.pool();
        let pool_stats = pool.stats();
        let dc_stats = self.dc.stats();
        let io = pool.disk().stats();
        let tc = self.tc.stats();
        let mut m = MetricsSnapshot { at_us: self.clock.now_us(), ..MetricsSnapshot::new() };
        m.push_counter("engine_checkpoints_taken", s.checkpoints_taken);
        m.push_counter("engine_background_checkpoints", s.background_checkpoints);
        m.push_counter("engine_cleaner_sweeps", s.cleaner_sweeps);
        m.push_counter("engine_cleaner_pages_flushed", s.cleaner_pages_flushed);
        m.push_counter("engine_compactor_sweeps", s.compactor_sweeps);
        m.push_counter("engine_compactor_segments", s.compactor_segments);
        m.push_counter("engine_maintenance_ticks", s.maintenance_ticks);
        m.push_counter("engine_quiesced_ticks", s.quiesced_ticks);
        m.push_gauge("engine_maintenance_running", u64::from(s.maintenance_running) as f64);
        m.push_gauge("engine_dirty_pages", s.dirty_pages as f64);
        m.push_gauge("engine_cached_pages", s.cached_pages as f64);
        m.push_gauge("engine_pool_capacity", s.pool_capacity as f64);
        m.push_gauge("engine_log_bytes", s.log_bytes as f64);
        m.push_gauge("engine_log_bytes_since_checkpoint", s.log_bytes_since_checkpoint as f64);
        m.push_counter("engine_group_commit_forces", s.group_commit.forces);
        m.push_counter("engine_group_commit_piggybacked", s.group_commit.piggybacked);
        m.push_counter("engine_optimistic_point_reads", s.optimistic_point_reads);
        m.push_counter("engine_optimistic_range_scans", s.optimistic_range_scans);
        m.push_counter("engine_read_fallbacks", s.read_fallbacks);
        m.push_counter("engine_optimistic_validation_failures", s.optimistic_validation_failures);
        m.push_counter("engine_optimistic_writes", s.optimistic_writes);
        m.push_counter("engine_write_fallbacks", s.write_fallbacks);
        m.push_counter("engine_write_restarts", s.write_restarts);
        m.push_counter("engine_leaf_upgrades_failed", s.leaf_upgrades_failed);
        m.push_counter("engine_epochs_advanced", s.epochs_advanced);
        m.push_counter("engine_forced_epoch_advances", s.forced_epoch_advances);
        m.push_counter("engine_frames_retired", s.frames_retired);
        m.push_counter("engine_frames_recycled", s.frames_recycled);
        m.push_counter(
            "engine_restart_scan_bytes",
            self.restart_scan_bytes.load(Ordering::Relaxed),
        );
        m.push_hist("engine_read_restart_hist", s.read_restart_hist);
        m.push_hist("engine_write_restart_hist", s.write_restart_hist);
        m.push_counters("pool", &pool_stats.counters());
        m.push_histograms("pool", &pool_stats.histograms());
        m.push_counters("dc", &dc_stats.counters());
        m.push_histograms("dc", &dc_stats.histograms());
        m.push_counters("io", &io.counters());
        if let Some(wire) = self.dc.wire_telemetry() {
            m.push_counter("dc_wire_requests", wire.total_count());
            for op in &wire.ops {
                m.push_counter(&format!("dc_wire_requests_{}", op.name()), op.count);
            }
        }
        m.push_counter("tc_begins", tc.begins);
        m.push_counter("tc_commits", tc.commits);
        m.push_counter("tc_aborts", tc.aborts);
        m.push_counter("tc_data_ops_logged", tc.data_ops_logged);
        m.push_counter("tc_clrs_logged", tc.clrs_logged);
        m.push_counter("tc_checkpoints_completed", tc.checkpoints_completed);
        m.push_counter("tc_eosl_sent", tc.eosl_sent);
        m.push_counter("trace_dropped_events", self.trace.dropped_events());
        m
    }

    /// The trace journal handle (a disabled no-op sink unless
    /// [`EngineConfig::trace`] is set).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Drain the journal: every buffered event, globally ordered by
    /// sequence number. Emitters may keep running; events emitted during
    /// the drain land in the next one.
    pub fn drain_trace(&self) -> Vec<TraceEvent> {
        self.trace.drain()
    }

    /// [`Engine::drain_trace`] rendered as JSON lines.
    pub fn drain_trace_json(&self) -> String {
        self.trace.drain_json()
    }

    /// The sampled metrics time series (empty unless
    /// [`EngineConfig::metrics_sample_ms`] is set and the maintenance
    /// service is running).
    pub fn metrics_history(&self) -> Vec<MetricsSnapshot> {
        self.metrics_history.lock().clone()
    }

    /// Append one sample to the bounded in-memory time series (the
    /// maintenance sampler's storage hook).
    pub(crate) fn push_metrics_sample(&self, snap: MetricsSnapshot) {
        const METRICS_HISTORY_CAP: usize = 1024;
        let mut history = self.metrics_history.lock();
        if history.len() >= METRICS_HISTORY_CAP {
            history.remove(0);
        }
        history.push(snap);
    }

    // ------------------------------------------------------------------
    // crash
    // ------------------------------------------------------------------

    /// Crash the engine. The paper's controlled-crash setting (§5.2): the
    /// log content is fixed (forced stable) while every volatile structure
    /// — cache, lock table, transaction table, open Δ/BW intervals — is
    /// lost. Returns the ground-truth snapshot for oracles and Figure 2(b).
    ///
    /// Sessions racing this call block until their in-flight operation
    /// finishes (the exclusive data-plane latch below), then fail their
    /// next operation on the crashed flag — no session can append to the
    /// log after it is truncated here.
    pub fn crash(&self) -> CrashSnapshot {
        let _lc = self.lifecycle.lock();
        // Drain the data plane: in-flight operations complete their
        // appends before the snapshot + truncation; new ones are held out
        // until the crashed flag is visible.
        let _dp = self.data_plane.write();
        // Pool first, log second — never hold the log latch while walking
        // frames: a concurrent flush holds a frame latch and locks the log
        // through the EOSL provider, so the reverse order would deadlock.
        let (dirty_truth, dirty_pages, cached_pages, pool_capacity) = {
            let pool = self.dc.pool();
            (pool.runtime_dpt(), pool.dirty_count(), pool.len(), pool.capacity())
        };
        let (wal_records, wal_bytes) = {
            let wal = self.wal.lock();
            (wal.record_count(), wal.byte_len())
        };
        let snap = CrashSnapshot {
            dirty_truth,
            dirty_pages,
            cached_pages,
            pool_capacity,
            wal_records,
            wal_bytes,
        };
        {
            let mut wal = self.wal.lock();
            wal.make_all_stable();
            wal.truncate_to_stable();
            // Re-anchor the checkpointer's log-bytes policy to the
            // truncated log (recover()'s trailing checkpoint re-stamps it
            // again; this keeps the mark sane for custom recovery paths).
            self.bytes_at_last_ckpt.store(wal.byte_len(), Ordering::Release);
        }
        self.tc.crash();
        self.dc.crash();
        self.crashed.store(true, Ordering::Release);
        *self.last_crash.lock() = Some(snap.clone());
        snap
    }

    /// Crash with a *torn log tail*: the last `torn_bytes` of the log are
    /// physically lost (a crash mid-sector-write). Recovery re-derives the
    /// usable end of the log in its restart pass (`Wal::restart`, a CRC
    /// scan from the checkpoint anchor); transactions whose commit record
    /// fell in the torn region become losers.
    pub fn crash_torn(&self, torn_bytes: u64) -> CrashSnapshot {
        let snap = self.crash();
        self.wal.lock().tear(torn_bytes);
        snap
    }

    /// Is the engine down (crashed and not yet recovered)?
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Fork a crashed engine: an independent engine over a *copy* of the
    /// stable disk image and the stable log, itself in the crashed state.
    ///
    /// This is the experiment harness's side-by-side tool (§5.1): run the
    /// workload once, then recover the same crash with every method. Only
    /// supported on forkable (simulated) disks.
    pub fn fork_crashed(&self) -> Result<Engine> {
        if !self.is_crashed() {
            return Err(Error::RecoveryInvariant("fork_crashed of a live engine".into()));
        }
        let clock = SimClock::new();
        let disk = self
            .dc
            .pool()
            .disk()
            .fork(clock.clone())
            .ok_or_else(|| Error::RecoveryInvariant("disk does not support forking".into()))?;
        let wal: SharedWal = SharedWal::new(self.wal.lock().fork_data());
        wal.set_force_latency_us(self.cfg.commit_force_us);
        // A fork never inherits a running maintenance service, so it must
        // not inherit the advisory-cleaner assumption either: without this
        // the fork would have neither a lazywriter nor an inline cleaner,
        // and nothing would bound its dirty fraction. Callers can still
        // opt back in (set the flag and start_maintenance explicitly).
        let cfg = EngineConfig { background_maintenance: false, ..self.cfg.clone() };
        let dcfg = dc_config(&cfg);
        // Same backend as the parent: the fork re-opens through the DC's
        // own `reopen`, never naming a concrete component type.
        let dc = self.dc.reopen(disk, wal.clone(), dcfg)?;
        let tc = TransactionComponent::new(wal.clone());
        // The fork gets its own journal (when tracing): the reopened DC
        // and the fresh WAL have empty trace slots to plumb.
        let trace = plumb_trace(&cfg, dc.as_ref(), &wal);
        Ok(Engine {
            tc,
            dc,
            wal,
            clock,
            cfg,
            crashed: AtomicBool::new(true),
            checkpoints_taken: AtomicU64::new(self.checkpoints_taken()),
            last_bckpt: AtomicU64::new(self.last_bckpt.load(Ordering::Acquire)),
            lifecycle: Mutex::new(()),
            data_plane: RwLock::new(()),
            last_crash: Mutex::new(self.last_crash.lock().clone()),
            maintenance: Mutex::new(None),
            maint: MaintCounters::default(),
            bytes_at_last_ckpt: AtomicU64::new(self.bytes_at_last_ckpt.load(Ordering::Acquire)),
            trace,
            metrics_history: Mutex::new(Vec::new()),
            restart_scan_bytes: AtomicU64::new(0),
        })
    }

    /// The last crash's ground truth.
    pub fn last_crash_snapshot(&self) -> Option<CrashSnapshot> {
        self.last_crash.lock().clone()
    }

    // ------------------------------------------------------------------
    // inspection
    // ------------------------------------------------------------------

    /// Full contents of a table (testing / verification).
    pub fn scan_table(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        let _dp = self.data_plane.read();
        self.dc.scan_all(table)
    }

    /// Verify a table's structure through the backend's own walker (key
    /// ordering + linkage for the B-tree; chain/placement invariants and
    /// index consistency for the hash DC).
    pub fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        let _dp = self.data_plane.read();
        self.dc.verify_table(table)
    }

    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The data component, through the TC↔DC contract. Nothing outside
    /// `lr_dc` sees a concrete backend type.
    pub fn dc(&self) -> &dyn DcApi {
        self.dc.as_ref()
    }

    pub fn tc(&self) -> &TransactionComponent {
        &self.tc
    }

    pub fn wal(&self) -> SharedWal {
        self.wal.clone()
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_engine() -> Engine {
        let cfg = EngineConfig {
            initial_rows: 1_000,
            pool_pages: 64,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        };
        Engine::build(cfg).unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn build_loads_initial_rows() {
        let e = small_engine();
        assert_eq!(e.read(DEFAULT_TABLE, 0).unwrap().unwrap(), e.cfg.initial_value(0));
        assert_eq!(e.read(DEFAULT_TABLE, 999).unwrap().unwrap(), e.cfg.initial_value(999));
        assert_eq!(e.read(DEFAULT_TABLE, 1000).unwrap(), None);
        let s = e.verify_table(DEFAULT_TABLE).unwrap();
        assert_eq!(s.records, 1_000);
    }

    #[test]
    fn txn_update_commit_read() {
        let e = small_engine();
        let t = e.begin().unwrap();
        e.update(t, 7, b"hello".to_vec()).unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.read(DEFAULT_TABLE, 7).unwrap().unwrap(), b"hello");
    }

    #[test]
    fn abort_rolls_back() {
        let e = small_engine();
        let orig = e.read(DEFAULT_TABLE, 5).unwrap().unwrap();
        let t = e.begin().unwrap();
        e.update(t, 5, b"garbage".to_vec()).unwrap();
        e.insert(t, 5_000, b"new".to_vec()).unwrap();
        let stats = e.abort(t).unwrap();
        assert_eq!(stats.ops_undone, 2);
        assert_eq!(e.read(DEFAULT_TABLE, 5).unwrap().unwrap(), orig);
        assert_eq!(e.read(DEFAULT_TABLE, 5_000).unwrap(), None);
    }

    #[test]
    fn lock_conflicts_between_txns() {
        let e = small_engine();
        let t1 = e.begin().unwrap();
        let t2 = e.begin().unwrap();
        e.update(t1, 3, b"a".to_vec()).unwrap();
        assert!(matches!(e.update(t2, 3, b"b".to_vec()), Err(Error::LockConflict { .. })));
        e.commit(t1).unwrap();
        e.update(t2, 3, b"b".to_vec()).unwrap();
        e.commit(t2).unwrap();
        assert_eq!(e.read(DEFAULT_TABLE, 3).unwrap().unwrap(), b"b");
    }

    #[test]
    fn crash_blocks_operations() {
        let e = small_engine();
        let snap = e.crash();
        assert!(e.is_crashed());
        assert_eq!(snap.pool_capacity, 64, "snapshot captured");
        let t = lr_common::TxnId(999);
        assert!(e.update(t, 1, vec![]).is_err());
        assert!(e.checkpoint().is_err());
    }

    #[test]
    fn checkpoint_flushes_old_dirt() {
        let e = small_engine();
        let t = e.begin().unwrap();
        for k in 0..50 {
            e.update(t, k, b"x".repeat(100)).unwrap();
        }
        e.commit(t).unwrap();
        let dirty_before = e.dc.pool().dirty_count();
        assert!(dirty_before > 0);
        e.checkpoint().unwrap();
        assert_eq!(e.dc.pool().dirty_count(), 0, "penultimate flush cleans pre-bCkpt dirt");
    }

    #[test]
    fn concurrent_updates_different_keys_commit() {
        let e = Arc::new(small_engine());
        std::thread::scope(|s| {
            for th in 0..4u64 {
                let e = e.clone();
                s.spawn(move || {
                    for i in 0..25u64 {
                        let t = e.begin().unwrap();
                        let key = th * 250 + i;
                        e.update(t, key, format!("t{th}-{i}").into_bytes()).unwrap();
                        e.commit(t).unwrap();
                    }
                });
            }
        });
        for th in 0..4u64 {
            let v = e.read(DEFAULT_TABLE, th * 250 + 24).unwrap().unwrap();
            assert_eq!(v, format!("t{th}-24").into_bytes());
        }
        e.tc.locks().assert_no_leaks();
    }
}
