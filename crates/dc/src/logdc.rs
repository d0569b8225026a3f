//! The log-structured data component — the third [`DcApi`] backend: the
//! WAL *is* the store (LogBase-style log-as-data).
//!
//! Where the B-tree and hash backends apply every logical write to a
//! durable data page (paying page-write amplification on top of the log
//! append), this backend stores the row **in the log record itself**:
//!
//! * a committed write costs exactly **one durable append** — the
//!   existing prepare → log → apply protocol runs unchanged, but `apply`
//!   only updates a volatile `key → log offset` index (no data page
//!   write, no dirty page, near-zero checkpoint cost);
//! * reads resolve through the index to a log-offset fetch, front-ended
//!   by an offset-granular read cache (log records are immutable, so a
//!   cached offset never goes stale);
//! * a **background compactor** migrates live versions out of cold log
//!   segments into sealed, key-sorted leaf pages (logged as one
//!   redo-only SMO system transaction, like a B-tree split), advancing a
//!   per-table **horizon** LSN past which the log is all garbage. Pacing
//!   comes from a garbage-ratio watermark over per-segment liveness
//!   accounting.
//!
//! ## Durable anatomy of a table
//!
//! One **manifest page** (the table's catalog "root") holds a single
//! record `{horizon, sealed_head, stub PIDs}`; the manifest is rewritten
//! in place by each compaction SMO, so the catalog anchor never moves.
//! `sealed_head` chains the current sealed generation through
//! `right_sibling` (standard key-sorted leaf pages). The **stub pages**
//! are real, durable, never-dirtied leaf pages that give data log
//! records a fetchable PID: `prepare` names `stubs[shard_index(key)]` as
//! the record's page, so parallel redo routes every version of a key to
//! the same partition in LSN order. Stub pLSNs stay NULL forever — the
//! pLSN redo screen passes trivially, and methods whose DPT screens skip
//! these never-dirty pages are still correct because DC recovery's
//! post-redo index rebuild (`RedoBackend::finish_redo`, the last phase of
//! [`DcApi::redo`]) rebuilds the index **authoritatively**:
//! manifest + sealed chain first, then one scan of the log suffix from
//! the oldest horizon (recovery is pure re-indexing).
//!
//! ## Concurrency
//!
//! Writes take the table latch exclusively for prepare → log → apply
//! (matching the hash backend). Point reads are naturally latch-free:
//! the index read is an atomic map lookup, the log record at an offset
//! is immutable, and a sealed page is never modified after its SMO
//! installs it — compaction replaces whole generations, it never edits
//! pages in place. The compactor takes the exclusive table latch for
//! each table's pass, so it can never race a writer into a lost update.

use crate::api::{DcApi, DcIntrospect, PreparedOp, TableSummary};
use crate::catalog::{Catalog, META_PAGE};
use crate::dc::{DcConfig, DcCounters, DcStats, PrepareInfo, WriteIntent};
use crate::dpt::Dpt;
use crate::recovery::SmoBarrierOutcome;
use crate::redo::{Located, RedoBackend, RedoPlan};
use crate::trackers::TrackerPair;
use lr_btree::node::{leaf_record, parse_leaf_record};
use lr_buffer::BufferPool;
use lr_common::latch::Latch;
use lr_common::{shard_index, Error, Key, Lsn, PageId, RecoveryBreakdown, Result, TableId, Value};
use lr_storage::{Disk, Page, PageType, PAGE_HEADER_SIZE, SLOT_SIZE};
use lr_wal::{ClrAction, LogPayload, LogRecord, SharedWal, SmoRecord};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Table-latch slots (same hashing scheme as the other backends).
const TABLE_LATCHES: usize = 16;
/// Read-cache shards (offset-keyed, so any small power of two spreads).
const CACHE_SHARDS: usize = 8;
/// Read-cache capacity, in entries, across all shards.
const READ_CACHE_ENTRIES: usize = 1024;
/// Fill budget for sealed pages built by compaction / bulk load.
const SEALED_FILL: f64 = 0.9;
/// Fixed per-record estimate (frame header + payload fields besides the
/// values) used for per-segment liveness accounting. Liveness drives
/// pacing, not correctness, so an estimate is fine.
const RECORD_OVERHEAD: u64 = 56;

/// Stub pages per table: enough redo partitions to keep parallel
/// recovery busy, bounded so table creation stays cheap.
fn stub_count(page_size: usize) -> usize {
    let usable = page_size.saturating_sub(PAGE_HEADER_SIZE);
    (usable / 16).clamp(4, 64)
}

/// Where the current version of a key lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// In the log: the self-describing record at this offset holds the
    /// value. `bytes` is the record's liveness weight (see
    /// [`record_weight`]).
    Wal { lsn: Lsn, bytes: u64 },
    /// In a sealed page of the current compaction generation.
    Page(PageId),
}

/// Volatile placement state of one table. The durable anchor is the
/// manifest page; everything else here is rebuilt by recovery.
struct TableState {
    /// The manifest page (catalog root) — constant for the table's life.
    anchor: PageId,
    /// Redo-routing stub PIDs, shard order. Immutable after creation.
    stubs: Vec<PageId>,
    /// Head of the sealed generation's page chain (INVALID when empty).
    sealed_head: PageId,
    /// Log offsets below this are dead for this table: every live
    /// version at an older offset was migrated into the sealed chain.
    horizon: Lsn,
    /// The latest compaction SMO `(lsn, weight)`: counted live in the
    /// segment accounting until the next compaction supersedes it, so a
    /// freshly written SMO can never re-trip the garbage watermark.
    last_smo: Option<(Lsn, u64)>,
    /// The in-memory index: key → current location.
    index: HashMap<Key, Loc>,
}

/// The net index effect of a data log record.
#[derive(Clone, Copy)]
enum IndexOp {
    Put,
    Remove,
}

/// Classify a payload for index maintenance. `None` for non-data records.
fn index_op(payload: &LogPayload) -> Option<(TableId, Key, IndexOp)> {
    match payload {
        LogPayload::Insert { table, key, .. } | LogPayload::Update { table, key, .. } => {
            Some((*table, *key, IndexOp::Put))
        }
        LogPayload::Delete { table, key, .. } => Some((*table, *key, IndexOp::Remove)),
        LogPayload::Clr { table, key, action, .. } => match action {
            ClrAction::RestoreValue(_) | ClrAction::InsertValue(_) => {
                Some((*table, *key, IndexOp::Put))
            }
            ClrAction::RemoveKey => Some((*table, *key, IndexOp::Remove)),
        },
        _ => None,
    }
}

/// Liveness weight of a data record: a frame-size estimate, so summed
/// weights approximate the log bytes a segment still pins.
fn record_weight(payload: &LogPayload) -> u64 {
    let values = match payload {
        LogPayload::Insert { value, .. } => value.len(),
        LogPayload::Update { before, after, .. } => before.len() + after.len(),
        LogPayload::Delete { before, .. } => before.len(),
        LogPayload::Clr { action, .. } => match action {
            ClrAction::RestoreValue(v) | ClrAction::InsertValue(v) => v.len(),
            ClrAction::RemoveKey => 0,
        },
        _ => 0,
    };
    RECORD_OVERHEAD + values as u64
}

/// Extract the value a data record carries for `key` (the record is
/// self-describing: table, key and value all travel in the payload).
fn record_value(rec: &LogRecord, table: TableId, key: Key) -> Result<Value> {
    let mismatch = |t: TableId, k: Key| t != table || k != key;
    match &rec.payload {
        LogPayload::Insert { table: t, key: k, value, .. } if !mismatch(*t, *k) => {
            Ok(value.clone())
        }
        LogPayload::Update { table: t, key: k, after, .. } if !mismatch(*t, *k) => {
            Ok(after.clone())
        }
        LogPayload::Clr { table: t, key: k, action, .. } if !mismatch(*t, *k) => match action {
            ClrAction::RestoreValue(v) | ClrAction::InsertValue(v) => Ok(v.clone()),
            ClrAction::RemoveKey => Err(Error::RecoveryInvariant(format!(
                "log index points key {key} at a key-removing CLR ({})",
                rec.lsn
            ))),
        },
        other => Err(Error::RecoveryInvariant(format!(
            "log index points key {key} of table {table:?} at unrelated record {other:?}"
        ))),
    }
}

/// Sharded offset → value cache. Log records are immutable, so entries
/// never go stale; eviction is FIFO per shard. Cleared on crash (log
/// truncation can reuse offsets across a crash boundary).
struct ReadCache {
    shards: Vec<Mutex<CacheShard>>,
}

#[derive(Default)]
struct CacheShard {
    map: HashMap<u64, Value>,
    fifo: std::collections::VecDeque<u64>,
}

impl ReadCache {
    fn new() -> ReadCache {
        ReadCache { shards: (0..CACHE_SHARDS).map(|_| Mutex::new(CacheShard::default())).collect() }
    }

    #[inline]
    fn shard(&self, lsn: Lsn) -> &Mutex<CacheShard> {
        &self.shards[(lsn.0 as usize / 8) % CACHE_SHARDS]
    }

    fn get(&self, lsn: Lsn) -> Option<Value> {
        self.shard(lsn).lock().map.get(&lsn.0).cloned()
    }

    fn put(&self, lsn: Lsn, value: Value) {
        let mut s = self.shard(lsn).lock();
        if s.map.insert(lsn.0, value).is_none() {
            s.fifo.push_back(lsn.0);
            if s.fifo.len() > READ_CACHE_ENTRIES / CACHE_SHARDS {
                if let Some(old) = s.fifo.pop_front() {
                    s.map.remove(&old);
                }
            }
        }
    }

    fn clear(&self) {
        for s in &self.shards {
            let mut s = s.lock();
            s.map.clear();
            s.fifo.clear();
        }
    }
}

/// The log-structured data component.
pub struct LogDc {
    pool: BufferPool,
    catalog: Mutex<Catalog>,
    tables: RwLock<HashMap<TableId, TableState>>,
    /// Reverse placement map: manifest/stub/sealed page → owning table.
    page_table: RwLock<HashMap<PageId, TableId>>,
    trackers: TrackerPair,
    wal: SharedWal,
    cfg: DcConfig,
    stats: DcCounters,
    table_latches: Box<[Latch]>,
    /// Per-segment live-byte estimates: `segment index → Σ weight` of
    /// index entries whose record lives in that segment.
    seg_live: Mutex<HashMap<u64, u64>>,
    read_cache: ReadCache,
}

/// Encode a manifest record: `horizon | sealed_head | n | stub PIDs`.
fn encode_manifest(horizon: Lsn, sealed_head: PageId, stubs: &[PageId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + stubs.len() * 8);
    out.extend_from_slice(&horizon.0.to_le_bytes());
    out.extend_from_slice(&sealed_head.0.to_le_bytes());
    out.extend_from_slice(&(stubs.len() as u64).to_le_bytes());
    for s in stubs {
        out.extend_from_slice(&s.0.to_le_bytes());
    }
    out
}

fn decode_manifest(rec: &[u8]) -> Result<(Lsn, PageId, Vec<PageId>)> {
    let word = |i: usize| -> Result<u64> {
        rec.get(i * 8..i * 8 + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
            .ok_or_else(|| Error::RecoveryInvariant("truncated log manifest record".to_string()))
    };
    let horizon = Lsn(word(0)?);
    let sealed_head = PageId(word(1)?);
    let n = word(2)? as usize;
    let mut stubs = Vec::with_capacity(n);
    for i in 0..n {
        stubs.push(PageId(word(3 + i)?));
    }
    Ok((horizon, sealed_head, stubs))
}

/// Build a manifest page image.
fn manifest_page(
    page_size: usize,
    pid: PageId,
    horizon: Lsn,
    head: PageId,
    stubs: &[PageId],
) -> Result<Page> {
    let mut page = Page::new(page_size, pid, PageType::Internal);
    page.set_level(1);
    page.insert_record(0, &encode_manifest(horizon, head, stubs))?;
    Ok(page)
}

/// Build a sealed key-sorted page chain from `rows` using PIDs from
/// `alloc`. Returns the page images in chain order (empty when there
/// are no rows).
fn build_sealed_chain(
    page_size: usize,
    alloc: &mut dyn FnMut() -> PageId,
    rows: &[(Key, Value)],
    fill: f64,
) -> Result<Vec<(PageId, Page)>> {
    let budget = ((page_size - PAGE_HEADER_SIZE) as f64 * fill) as usize;
    let mut pages: Vec<(PageId, Page)> = Vec::new();
    let mut used = 0usize;
    for (key, value) in rows {
        let rec = leaf_record(*key, value);
        let need = rec.len() + SLOT_SIZE;
        let start_new = match pages.last() {
            None => true,
            Some(_) => used + need > budget,
        };
        if start_new {
            let pid = alloc();
            if let Some((_, prev)) = pages.last_mut() {
                prev.set_right_sibling(pid);
            }
            pages.push((pid, Page::new(page_size, pid, PageType::Leaf)));
            used = 0;
        }
        let (_, page) = pages.last_mut().expect("page just ensured");
        let slot = page.slot_count();
        page.insert_record(slot, &rec)?;
        used += need;
    }
    Ok(pages)
}

/// Offline bulk load: build the sealed chain + stubs + manifest directly
/// on the disk (bypassing pool and log, like the other loaders). Returns
/// the manifest PID — the table's catalog anchor.
pub fn log_bulk_load(
    disk: &mut dyn Disk,
    _table: TableId,
    rows: &mut dyn Iterator<Item = (Key, Value)>,
    fill: f64,
) -> Result<PageId> {
    assert!(fill > 0.05 && fill <= 1.0, "fill factor {fill} out of range");
    let page_size = disk.page_size();
    let anchor = disk.allocate();
    let mut stubs = Vec::with_capacity(stub_count(page_size));
    for _ in 0..stub_count(page_size) {
        let pid = disk.allocate();
        stubs.push(pid);
        disk.write(pid, &Page::new(page_size, pid, PageType::Leaf))?;
    }
    let rows: Vec<(Key, Value)> = rows.collect();
    let chain = build_sealed_chain(page_size, &mut || disk.allocate(), &rows, fill)?;
    let head = chain.first().map(|(pid, _)| *pid).unwrap_or(PageId::INVALID);
    for (pid, page) in &chain {
        disk.write(*pid, page)?;
    }
    disk.write(anchor, &manifest_page(page_size, anchor, Lsn::NULL, head, &stubs)?)?;
    Ok(anchor)
}

impl LogDc {
    /// Is the cache dirtier than the lazywriter watermark right now?
    fn over_dirty_watermark(&self) -> bool {
        let watermark = (self.cfg.dirty_watermark * self.pool.capacity() as f64) as usize;
        self.pool.dirty_count() > watermark
    }

    /// Is the cold log region's garbage ratio over the compaction
    /// watermark right now?
    fn over_garbage_watermark(&self) -> bool {
        let cold_end = self.cold_end();
        let horizon = self.min_horizon();
        if cold_end <= horizon {
            return false;
        }
        let region = cold_end.0 - horizon.0;
        let cold_seg = self.seg_of(cold_end);
        let live: u64 =
            self.seg_live.lock().iter().filter(|(s, _)| **s < cold_seg).map(|(_, v)| *v).sum();
        let garbage = region.saturating_sub(live.min(region));
        garbage as f64 / region as f64 > self.cfg.garbage_watermark
    }

    /// Open a log-structured DC over a formatted disk. Cold by design,
    /// like the other backends: the key index is built by
    /// `register_table` (bulk-load registration) or recovery's
    /// `finish_redo` — never by `open` itself.
    pub fn open(disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<LogDc> {
        let eosl_wal = wal.clone();
        let provider = Box::new(move |lsn: Lsn| {
            let mut w = eosl_wal.lock();
            w.make_stable(lsn);
            w.stable_lsn()
        });
        let pool = BufferPool::new(disk, cfg.pool_pages, provider);
        let catalog = Catalog::load(&pool)?;
        let dc = LogDc {
            pool,
            catalog: Mutex::new(catalog),
            tables: RwLock::new(HashMap::new()),
            page_table: RwLock::new(HashMap::new()),
            trackers: TrackerPair::new(cfg.perfect_delta_lsns),
            wal,
            cfg,
            stats: DcCounters::default(),
            table_latches: (0..TABLE_LATCHES).map(|_| Latch::new()).collect::<Vec<_>>().into(),
            seg_live: Mutex::new(HashMap::new()),
            read_cache: ReadCache::new(),
        };
        dc.load_all_skeletons()?;
        dc.pool.take_events();
        Ok(dc)
    }

    #[inline]
    fn table_latch(&self, table: TableId) -> &Latch {
        &self.table_latches[table.0 as usize % TABLE_LATCHES]
    }

    #[inline]
    fn seg_bytes(&self) -> u64 {
        self.cfg.log_segment_bytes.max(1)
    }

    #[inline]
    fn seg_of(&self, lsn: Lsn) -> u64 {
        lsn.0 / self.seg_bytes()
    }

    fn live_add(&self, lsn: Lsn, bytes: u64) {
        *self.seg_live.lock().entry(self.seg_of(lsn)).or_insert(0) += bytes;
    }

    fn live_sub(&self, lsn: Lsn, bytes: u64) {
        let seg = self.seg_of(lsn);
        let mut map = self.seg_live.lock();
        if let Some(v) = map.get_mut(&seg) {
            *v = v.saturating_sub(bytes);
            if *v == 0 {
                map.remove(&seg);
            }
        }
    }

    /// Read the manifest of `anchor`: `(horizon, sealed_head, stubs)`.
    fn read_manifest(&self, anchor: PageId) -> Result<(Lsn, PageId, Vec<PageId>)> {
        let rec = self.pool.with_page(anchor, |p| {
            if p.slot_count() == 0 {
                Err(Error::RecoveryInvariant(format!("log manifest page {anchor} is empty")))
            } else {
                Ok(p.record(0).to_vec())
            }
        })??;
        decode_manifest(&rec)
    }

    /// The sealed chain from `head`, walked through `right_sibling`.
    fn chain(&self, head: PageId) -> Result<Vec<PageId>> {
        let mut pids = Vec::new();
        let mut pid = head;
        while pid.is_valid() {
            pids.push(pid);
            pid = self.pool.with_page(pid, |p| p.right_sibling())?;
        }
        Ok(pids)
    }

    /// Cheap placement skeleton: manifest only, **empty** key index.
    /// Recovery uses this between catalog reload and the post-redo
    /// rebuild.
    fn load_table_skeleton(&self, table: TableId, anchor: PageId) -> Result<TableState> {
        let (horizon, sealed_head, stubs) = self.read_manifest(anchor)?;
        let mut pt = self.page_table.write();
        pt.insert(anchor, table);
        for s in &stubs {
            pt.insert(*s, table);
        }
        Ok(TableState {
            anchor,
            stubs,
            sealed_head,
            horizon,
            last_smo: None,
            index: HashMap::new(),
        })
    }

    fn load_all_skeletons(&self) -> Result<()> {
        let roots: Vec<(TableId, PageId)> = self.catalog.lock().tables().collect();
        self.page_table.write().clear();
        let mut maps = HashMap::new();
        for (table, anchor) in roots {
            maps.insert(table, self.load_table_skeleton(table, anchor)?);
        }
        *self.tables.write() = maps;
        Ok(())
    }

    /// Durable half of a table's map: manifest + sealed-chain walk (no
    /// log scan). Registers the pages in `page_table`.
    fn load_sealed_state(&self, table: TableId, anchor: PageId) -> Result<TableState> {
        let mut ts = self.load_table_skeleton(table, anchor)?;
        let chain = self.chain(ts.sealed_head)?;
        {
            let mut pt = self.page_table.write();
            for pid in &chain {
                pt.insert(*pid, table);
            }
        }
        for pid in chain {
            let keys: Vec<Key> = self.pool.with_page(pid, |p| {
                (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect()
            })?;
            for k in keys {
                ts.index.insert(k, Loc::Page(pid));
            }
        }
        Ok(ts)
    }

    /// Rebuild every table's volatile state authoritatively: sealed
    /// generation first, then one pass over the log suffix from the
    /// oldest horizon (last-writer-wins re-indexing). This is recovery's
    /// `finish_redo` — it is correct regardless of which data records the
    /// redo screens chose to apply, because it consults only durable
    /// state (manifest, sealed chain, the log itself).
    fn rebuild_all_maps(&self) -> Result<()> {
        let roots: Vec<(TableId, PageId)> = self.catalog.lock().tables().collect();
        self.page_table.write().clear();
        let mut maps: HashMap<TableId, TableState> = HashMap::new();
        for (table, anchor) in roots {
            maps.insert(table, self.load_sealed_state(table, anchor)?);
        }
        let start = maps.values().map(|t| t.horizon).min().unwrap_or(Lsn::NULL);
        let mut seg: HashMap<u64, u64> = HashMap::new();
        {
            // All pool reads happened above: the WAL guard is never held
            // across a pool operation (eviction flushes re-enter the WAL
            // through the EOSL provider).
            let wal = self.wal.lock();
            for rec in wal.records_from(start.max(Lsn::NULL)) {
                let rec = rec?;
                let Some((table, key, op)) = index_op(&rec.payload) else { continue };
                let Some(ts) = maps.get_mut(&table) else { continue };
                if rec.lsn < ts.horizon {
                    continue;
                }
                let weight = record_weight(&rec.payload);
                let old = match op {
                    IndexOp::Put => ts.index.insert(key, Loc::Wal { lsn: rec.lsn, bytes: weight }),
                    IndexOp::Remove => ts.index.remove(&key),
                };
                if let Some(Loc::Wal { lsn, bytes }) = old {
                    let s = lsn.0 / self.seg_bytes();
                    if let Some(v) = seg.get_mut(&s) {
                        *v = v.saturating_sub(bytes);
                    }
                }
                if matches!(op, IndexOp::Put) {
                    *seg.entry(rec.lsn.0 / self.seg_bytes()).or_insert(0) += weight;
                }
            }
        }
        self.read_cache.clear();
        *self.seg_live.lock() = seg;
        *self.tables.write() = maps;
        Ok(())
    }

    fn index_loc(&self, table: TableId, key: Key) -> Result<Option<Loc>> {
        let tables = self.tables.read();
        let ts = tables.get(&table).ok_or(Error::UnknownTable(table))?;
        Ok(ts.index.get(&key).copied())
    }

    /// Resolve a location to its value: sealed page search, or log fetch
    /// through the offset cache.
    fn value_at(&self, table: TableId, key: Key, loc: Loc) -> Result<Option<Value>> {
        match loc {
            Loc::Page(pid) => self.pool.with_page(pid, |p| lr_btree::node_search_value(p, key)),
            Loc::Wal { lsn, .. } => {
                if let Some(v) = self.read_cache.get(lsn) {
                    self.stats.log_read_cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(v));
                }
                self.stats.log_read_cache_misses.fetch_add(1, Ordering::Relaxed);
                let rec = self.wal.lock().read_at(lsn)?;
                let v = record_value(&rec, table, key)?;
                self.read_cache.put(lsn, v.clone());
                Ok(Some(v))
            }
        }
    }

    /// The latched prepare body (callers hold the exclusive table
    /// latch). Never allocates, never logs an SMO: the record's PID is
    /// the key's redo-routing stub, and the write itself is the one
    /// durable append the TC is about to make.
    fn prepare_locked(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PrepareInfo> {
        let (stub, cur) = {
            let tables = self.tables.read();
            let ts = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            (ts.stubs[shard_index(key, ts.stubs.len())], ts.index.get(&key).copied())
        };
        match intent {
            WriteIntent::Update { .. } | WriteIntent::Delete => {
                let loc = cur.ok_or(Error::KeyNotFound { table, key })?;
                let old =
                    self.value_at(table, key, loc)?.ok_or(Error::KeyNotFound { table, key })?;
                Ok(PrepareInfo { pid: stub, before: Some(old) })
            }
            WriteIntent::Insert { .. } => {
                if cur.is_some() {
                    return Err(Error::DuplicateKey { table, key });
                }
                Ok(PrepareInfo { pid: stub, before: None })
            }
        }
    }

    /// Index-only application of one data record. Deliberately lenient
    /// (upsert / remove-if-present): the real write invariants are
    /// enforced by `prepare` under the table latch before the record is
    /// ever logged, and redo replays records against an index that
    /// starts empty (bulk-loaded keys live in the sealed chain, so a
    /// strict "update requires presence" check would misfire there).
    fn apply_index(
        &self,
        table: TableId,
        key: Key,
        lsn: Lsn,
        op: IndexOp,
        weight: u64,
    ) -> Result<()> {
        let old = {
            let mut tables = self.tables.write();
            let ts = tables.get_mut(&table).ok_or(Error::UnknownTable(table))?;
            match op {
                IndexOp::Put => ts.index.insert(key, Loc::Wal { lsn, bytes: weight }),
                IndexOp::Remove => ts.index.remove(&key),
            }
        };
        if let Some(Loc::Wal { lsn: old_lsn, bytes }) = old {
            self.live_sub(old_lsn, bytes);
        }
        if matches!(op, IndexOp::Put) {
            self.live_add(lsn, weight);
        }
        Ok(())
    }

    /// Log one compaction SMO (after-images of the new sealed chain +
    /// the rewritten manifest) and install the images.
    fn log_smo(&self, images: Vec<(PageId, Page)>) -> Result<Lsn> {
        let pages: Vec<(PageId, Vec<u8>)> =
            images.iter().map(|(pid, p)| (*pid, p.as_bytes().to_vec())).collect();
        let lsn = self.wal.append(&LogPayload::Smo(SmoRecord { pages, new_root: None }));
        self.stats.smo_records_written.fetch_add(1, Ordering::Relaxed);
        for (pid, page) in images {
            self.pool.install_page(pid, page, lsn)?;
        }
        Ok(lsn)
    }

    /// End of the cold region: the start of the log's current (still
    /// filling) segment. Compaction only ever seals **whole** segments.
    fn cold_end(&self) -> Lsn {
        let end = self.wal.lock().end_lsn().0;
        Lsn((end / self.seg_bytes()) * self.seg_bytes())
    }

    /// Oldest horizon across tables (the global cold boundary).
    fn min_horizon(&self) -> Lsn {
        self.tables.read().values().map(|t| t.horizon).min().unwrap_or(Lsn::NULL)
    }

    /// Compact one table up to `cold_end`: migrate every live version
    /// located below it (in cold log segments or the previous sealed
    /// generation) into a fresh sealed chain, logged as one redo-only
    /// SMO together with the rewritten manifest. Holds the exclusive
    /// table latch, so concurrent writers cannot lose updates. Returns
    /// the log segments this advanced the table's horizon across.
    fn compact_table(&self, table: TableId, cold_end: Lsn) -> Result<u64> {
        let _t = self.table_latch(table).write();
        let (anchor, stubs, old_horizon, entries) = {
            let tables = self.tables.read();
            let ts = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            if ts.horizon >= cold_end {
                return Ok(0);
            }
            (
                ts.anchor,
                ts.stubs.clone(),
                ts.horizon,
                ts.index.iter().map(|(k, l)| (*k, *l)).collect::<Vec<_>>(),
            )
        };

        // Gather the rows to seal and the entries that stay in the log.
        let mut rows: Vec<(Key, Value)> = Vec::new();
        let mut migrated_log_bytes = 0u64;
        let mut sealed_from: Vec<(Key, Loc)> = Vec::new();
        for (key, loc) in entries {
            let migrate = match loc {
                Loc::Page(_) => true,
                Loc::Wal { lsn, .. } => lsn < cold_end,
            };
            if !migrate {
                continue;
            }
            let v = self.value_at(table, key, loc)?.ok_or_else(|| {
                Error::RecoveryInvariant(format!("log index names key {key} but no value resolves"))
            })?;
            if let Loc::Wal { lsn, bytes } = loc {
                migrated_log_bytes += bytes;
                self.live_sub(lsn, bytes);
            }
            rows.push((key, v));
            sealed_from.push((key, loc));
        }
        rows.sort_unstable_by_key(|(k, _)| *k);

        let page_size = self.pool.disk().page_size();
        let chain = build_sealed_chain(
            page_size,
            &mut || self.pool.disk_mut().allocate(),
            &rows,
            SEALED_FILL,
        )?;
        let head = chain.first().map(|(pid, _)| *pid).unwrap_or(PageId::INVALID);
        let mut images = chain;
        images.push((anchor, manifest_page(page_size, anchor, cold_end, head, &stubs)?));
        let smo_weight: u64 =
            images.iter().map(|(_, p)| p.as_bytes().len() as u64).sum::<u64>() + RECORD_OVERHEAD;
        let smo_lsn = self.log_smo(images)?;
        // The SMO record is the durable form of the new generation:
        // count it live until the next compaction supersedes it (else a
        // big SMO would read as instant garbage and re-trip the
        // watermark forever).
        self.live_add(smo_lsn, smo_weight);

        // Point the index at the new generation and retire the old one.
        let mut key_page: HashMap<Key, PageId> = HashMap::new();
        for pid in self.chain(head)? {
            let keys: Vec<Key> = self.pool.with_page(pid, |p| {
                (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect()
            })?;
            self.page_table.write().insert(pid, table);
            for k in keys {
                key_page.insert(k, pid);
            }
        }
        let prev_smo = {
            let mut tables = self.tables.write();
            let ts = tables.get_mut(&table).ok_or(Error::UnknownTable(table))?;
            ts.horizon = cold_end;
            ts.sealed_head = head;
            for (key, _) in &sealed_from {
                let pid = *key_page.get(key).expect("sealed row landed in the new chain");
                ts.index.insert(*key, Loc::Page(pid));
            }
            ts.last_smo.replace((smo_lsn, smo_weight))
        };
        if let Some((lsn, bytes)) = prev_smo {
            self.live_sub(lsn, bytes);
        }

        let migrated_total: u64 = rows.iter().map(|(_, v)| v.len() as u64 + RECORD_OVERHEAD).sum();
        let region = cold_end.0.saturating_sub(old_horizon.0);
        self.stats.live_bytes_migrated.fetch_add(migrated_total, Ordering::Relaxed);
        self.stats
            .dead_bytes_reclaimed
            .fetch_add(region.saturating_sub(migrated_log_bytes), Ordering::Relaxed);
        Ok(self.seg_of(cold_end) - self.seg_of(old_horizon))
    }
}

impl DcIntrospect for LogDc {
    fn backend_name(&self) -> &'static str {
        crate::backend::LOG_BACKEND
    }

    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn stats(&self) -> DcStats {
        self.stats.snapshot()
    }

    fn config(&self) -> &DcConfig {
        &self.cfg
    }

    fn wal(&self) -> SharedWal {
        self.wal.clone()
    }
}

impl DcApi for LogDc {
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        if self.cfg.optimistic_reads {
            // Latch-free by construction: the index lookup is an atomic
            // map read, log records are immutable, and sealed pages are
            // never edited in place (compaction replaces generations).
            self.stats.optimistic_point_reads.fetch_add(1, Ordering::Relaxed);
            self.stats.read_restarts.record(0);
            return match self.index_loc(table, key)? {
                Some(loc) => self.value_at(table, key, loc),
                None => Ok(None),
            };
        }
        let _t = self.table_latch(table).read();
        match self.index_loc(table, key)? {
            Some(loc) => self.value_at(table, key, loc),
            None => Ok(None),
        }
    }

    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        let _t = self.table_latch(table).read();
        let mut hits: Vec<(Key, Loc)> = {
            let tables = self.tables.read();
            let ts = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            ts.index
                .iter()
                .filter(|(k, _)| (from..=to).contains(*k))
                .map(|(k, l)| (*k, *l))
                .collect()
        };
        hits.sort_unstable_by_key(|(k, _)| *k);
        let mut rows = Vec::with_capacity(hits.len());
        for (k, loc) in hits {
            let v = self.value_at(table, k, loc)?.ok_or(Error::RecoveryInvariant(format!(
                "log index names key {k} but no value resolves"
            )))?;
            rows.push((k, v));
        }
        Ok(rows)
    }

    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        self.read_range(table, Key::MIN, Key::MAX)
    }

    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>> {
        let t = self.table_latch(table).write();
        let info = self.prepare_locked(table, key, intent)?;
        Ok(PreparedOp::new(info.pid, info.before, t))
    }

    fn apply(&self, _op: PreparedOp<'_>, rec: &LogRecord) -> Result<()> {
        // `_op`'s table latch drops on return — after the apply.
        let pid = rec
            .payload
            .data_pid()
            .ok_or_else(|| Error::RecoveryInvariant("apply of a non-data record".to_string()))?;
        self.apply_at(pid, rec)?;
        self.pump_events();
        Ok(())
    }

    fn eosl(&self, elsn: Lsn) {
        self.pool.set_elsn(elsn);
    }

    fn rssp(&self, rssp_lsn: Lsn) -> Result<()> {
        self.pool.begin_checkpoint();
        self.pool.checkpoint_flush()?;
        self.force_emit();
        self.wal.append(&LogPayload::Rssp { rssp_lsn });
        Ok(())
    }

    fn drain_in_flight_ops(&self) {
        for latch in self.table_latches.iter() {
            drop(latch.write());
        }
    }

    fn crash(&self) {
        self.pool.crash();
        self.trackers.crash();
        *self.catalog.lock() = Catalog::new();
        self.tables.write().clear();
        self.page_table.write().clear();
        self.seg_live.lock().clear();
        // Offsets can be reused across a crash (torn-tail truncation), so
        // the offset-keyed cache must not survive one.
        self.read_cache.clear();
    }

    fn pump_events(&self) {
        if self.cfg.inline_cleaner && self.over_dirty_watermark() {
            let _ = self.pool.clean_coldest(self.cfg.cleaner_batch);
        }
        self.trackers.pump(
            &self.pool,
            &self.wal,
            self.cfg.dirty_batch_cap,
            self.cfg.flush_batch_cap,
            &self.stats,
        );
    }

    fn force_emit(&self) {
        self.trackers.force_emit(&self.pool, &self.wal, &self.stats);
    }

    fn cleaner_pass(&self) -> Result<usize> {
        if !self.over_dirty_watermark() {
            return Ok(0);
        }
        let flushed = self.pool.clean_coldest(self.cfg.cleaner_batch)?;
        self.trackers.pump(
            &self.pool,
            &self.wal,
            self.cfg.dirty_batch_cap,
            self.cfg.flush_batch_cap,
            &self.stats,
        );
        Ok(flushed)
    }

    fn compact_pass(&self) -> Result<usize> {
        if !self.over_garbage_watermark() {
            return Ok(0);
        }
        let cold_end = self.cold_end();
        let tables: Vec<TableId> = self.catalog.lock().tables().map(|(t, _)| t).collect();
        let mut segments = 0u64;
        for table in tables {
            segments += self.compact_table(table, cold_end)?;
        }
        if segments > 0 {
            self.stats.segments_compacted.fetch_add(segments, Ordering::Relaxed);
        }
        self.pump_events();
        Ok(segments as usize)
    }

    fn create_table(&self, table: TableId) -> Result<()> {
        let page_size = self.pool.disk().page_size();
        let anchor = self.pool.disk_mut().allocate();
        let mut stubs = Vec::with_capacity(stub_count(page_size));
        for _ in 0..stub_count(page_size) {
            let pid = self.pool.disk_mut().allocate();
            stubs.push(pid);
            self.pool.install_page(pid, Page::new(page_size, pid, PageType::Leaf), Lsn::NULL)?;
        }
        let manifest = manifest_page(page_size, anchor, Lsn::NULL, PageId::INVALID, &stubs)?;
        self.pool.install_page(anchor, manifest, Lsn::NULL)?;
        // Created un-logged (like a bulk load): make it stable before the
        // table goes live.
        self.pool.flush_page(anchor)?;
        for pid in &stubs {
            self.pool.flush_page(*pid)?;
        }
        self.register_table(table, anchor)
    }

    fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        {
            let mut catalog = self.catalog.lock();
            catalog.set_root(table, root);
            catalog.save(&self.pool, Lsn::NULL)?;
        }
        self.pool.flush_page(META_PAGE)?;
        self.trackers.observe_drain(&self.pool);
        // Registration happens against a fresh log, so the sealed state
        // (bulk load output) is the whole table.
        let ts = self.load_sealed_state(table, root)?;
        self.tables.write().insert(table, ts);
        Ok(())
    }

    fn table_root(&self, table: TableId) -> Result<PageId> {
        self.catalog.lock().root_of(table)
    }

    fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        let _t = self.table_latch(table).read();
        let (sealed_head, index) = {
            let tables = self.tables.read();
            let ts = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            (ts.sealed_head, ts.index.iter().map(|(k, l)| (*k, *l)).collect::<Vec<_>>())
        };
        let mut summary = TableSummary { internal_pages: 1, height: 1, ..TableSummary::default() };
        // The sealed generation: leaf-typed, key-sorted, no duplicates.
        let mut sealed: HashMap<Key, PageId> = HashMap::new();
        for pid in self.chain(sealed_head)? {
            summary.leaf_pages += 1;
            let (ty, keys) = self.pool.with_page(pid, |p| {
                let keys: Vec<Key> =
                    (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect();
                (p.page_type(), keys)
            })?;
            if ty != PageType::Leaf {
                return Err(Error::RecoveryInvariant(format!("sealed page {pid} has type {ty:?}")));
            }
            let mut last: Option<Key> = None;
            for k in keys {
                if let Some(prev) = last {
                    if k <= prev {
                        return Err(Error::RecoveryInvariant(format!(
                            "keys out of order on sealed page {pid}: {prev} then {k}"
                        )));
                    }
                }
                last = Some(k);
                if sealed.insert(k, pid).is_some() {
                    return Err(Error::RecoveryInvariant(format!(
                        "duplicate key {k} in sealed generation"
                    )));
                }
            }
        }
        // Every index entry must resolve: sealed entries to their page,
        // log entries to a live (non-deleting) record carrying the key.
        for (k, loc) in index {
            match loc {
                Loc::Page(pid) => {
                    if sealed.get(&k) != Some(&pid) {
                        return Err(Error::RecoveryInvariant(format!(
                            "index names sealed page {pid} for key {k} but the generation disagrees"
                        )));
                    }
                }
                Loc::Wal { .. } => {
                    self.value_at(table, k, loc)?.ok_or(Error::RecoveryInvariant(format!(
                        "index names a log offset for key {k} but no value resolves"
                    )))?;
                }
            }
            summary.records += 1;
        }
        Ok(summary)
    }

    fn redo(&self, window: &[LogRecord], plan: &RedoPlan) -> Result<RecoveryBreakdown> {
        crate::redo::run(self, window, plan)
    }

    fn set_trace(&self, sink: lr_obs::TraceSink) {
        self.pool.set_trace(sink);
    }

    fn reopen(&self, disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<Arc<dyn DcApi>> {
        Ok(Arc::new(LogDc::open(disk, wal, cfg)?))
    }
}

impl RedoBackend for LogDc {
    fn catalog(&self) -> &Mutex<Catalog> {
        &self.catalog
    }

    fn attach_placement(&self) -> Result<()> {
        self.load_all_skeletons()
    }

    fn resolve_redo_pid(&self, _table: TableId, _key: Key, logged_pid: PageId) -> Result<Located> {
        // Routing-logical redo: the logged PID is the key's stub, so
        // replaying "there" partitions by key shard with no traversal.
        Ok(Located { pid: logged_pid, levels: 0, stall_us: 0 })
    }

    fn apply_at(&self, _pid: PageId, rec: &LogRecord) -> Result<()> {
        // The PID is routing metadata (the key's stub); the store itself
        // is the log record, so application is pure index maintenance.
        let (table, key, op) = index_op(&rec.payload).ok_or_else(|| {
            Error::RecoveryInvariant(format!("apply_at of non-data payload {:?}", rec.payload))
        })?;
        self.apply_index(table, key, rec.lsn, op, record_weight(&rec.payload))
    }

    fn replay_smo_screened(
        &self,
        lsn: Lsn,
        smo: &SmoRecord,
        dpt: &Dpt,
        out: &mut SmoBarrierOutcome,
    ) -> Result<Option<Lsn>> {
        let installed =
            crate::recovery::screened_smo_install(&self.pool, lsn, &smo.pages, dpt, out)?;
        // A compaction SMO rewrites a table's manifest in place: if one
        // was installed, refresh that table's skeleton (horizon, sealed
        // head) so the post-redo rebuild reads current placement.
        if !installed.is_empty() {
            let roots: Vec<(TableId, PageId)> = self.catalog.lock().tables().collect();
            for (table, anchor) in roots {
                if installed.contains(&anchor) {
                    let ts = self.load_table_skeleton(table, anchor)?;
                    self.tables.write().insert(table, ts);
                }
            }
        }
        // Compaction never moves a catalog anchor.
        debug_assert!(smo.new_root.is_none());
        Ok(None)
    }

    fn finish_redo(&self) -> Result<()> {
        self.rebuild_all_maps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock, TxnId};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    const T: TableId = TableId(1);

    fn setup_with(mut cfg: DcConfig) -> LogDc {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        crate::DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        cfg.log_segment_bytes = 4 << 10; // small segments: compaction fires in tests
        let dc = LogDc::open(Box::new(disk), wal, cfg).unwrap();
        dc.create_table(T).unwrap();
        dc
    }

    fn setup() -> LogDc {
        setup_with(DcConfig::default())
    }

    /// One engine-style op: prepare → log (for real, so recovery sees
    /// it) → apply.
    fn write(dc: &LogDc, key: Key, value: Vec<u8>, update: bool) {
        let intent = if update {
            WriteIntent::Update { value_len: value.len() }
        } else {
            WriteIntent::Insert { value_len: value.len() }
        };
        let op = dc.prepare_op(T, key, intent).unwrap();
        let payload = if update {
            LogPayload::Update {
                txn: TxnId(1),
                table: T,
                key,
                pid: op.pid,
                prev_lsn: Lsn::NULL,
                before: op.before.clone().unwrap(),
                after: value,
            }
        } else {
            LogPayload::Insert {
                txn: TxnId(1),
                table: T,
                key,
                pid: op.pid,
                prev_lsn: Lsn::NULL,
                value,
            }
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
    }

    fn delete(dc: &LogDc, key: Key) {
        let op = dc.prepare_op(T, key, WriteIntent::Delete).unwrap();
        let payload = LogPayload::Delete {
            txn: TxnId(1),
            table: T,
            key,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            before: op.before.clone().unwrap(),
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
    }

    #[test]
    fn insert_read_update_delete_roundtrip() {
        let dc = setup();
        for k in 0..200u64 {
            write(&dc, k, vec![k as u8; 24], false);
        }
        assert_eq!(DcApi::read(&dc, T, 7).unwrap().unwrap(), vec![7u8; 24]);
        assert_eq!(DcApi::read(&dc, T, 999).unwrap(), None);
        write(&dc, 7, vec![42u8; 30], true);
        assert_eq!(DcApi::read(&dc, T, 7).unwrap().unwrap(), vec![42u8; 30]);
        delete(&dc, 9);
        assert_eq!(DcApi::read(&dc, T, 9).unwrap(), None);
        let rows = dc.scan_all(T).unwrap();
        assert_eq!(rows.len(), 199);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan is key-ordered");
        let s = dc.verify_table(T).unwrap();
        assert_eq!(s.records, 199);
    }

    #[test]
    fn writes_never_dirty_data_pages() {
        let dc = setup();
        let base = dc.pool().dirty_count();
        for k in 0..100u64 {
            write(&dc, k, vec![k as u8; 24], false);
        }
        // The write path is append-only: no page becomes dirty.
        assert_eq!(dc.pool().dirty_count(), base, "log writes must not dirty pages");
    }

    #[test]
    fn read_cache_serves_repeat_reads() {
        let dc = setup();
        write(&dc, 1, vec![5u8; 16], false);
        for _ in 0..10 {
            assert_eq!(DcApi::read(&dc, T, 1).unwrap().unwrap(), vec![5u8; 16]);
        }
        let s = dc.stats();
        assert!(s.log_read_cache_hits >= 9, "repeat reads hit the cache: {s:?}");
        assert_eq!(s.log_read_cache_misses, 1);
    }

    #[test]
    fn compaction_seals_cold_segments_and_preserves_state() {
        let dc = setup();
        // Churn: insert then overwrite, creating garbage versions.
        for k in 0..150u64 {
            write(&dc, k, vec![k as u8; 40], false);
        }
        for round in 0..4u8 {
            for k in 0..150u64 {
                write(&dc, k, vec![round; 40], true);
            }
        }
        for k in 0..20u64 {
            delete(&dc, k);
        }
        let before = dc.scan_all(T).unwrap();
        assert!(dc.over_garbage_watermark(), "churn must push the garbage ratio over");
        let segments = dc.compact_pass().unwrap();
        assert!(segments > 0, "cold segments must be sealed");
        let s = dc.stats();
        assert!(s.segments_compacted > 0);
        assert!(s.live_bytes_migrated > 0);
        assert!(s.dead_bytes_reclaimed > 0);
        assert_eq!(dc.scan_all(T).unwrap(), before, "compaction must not change state");
        dc.verify_table(T).unwrap();
        // The freshly written compaction SMO counts as live bytes, so the
        // pass cannot re-trip its own watermark.
        assert!(!dc.over_garbage_watermark(), "compaction must not retrigger itself");
        // Post-compaction writes still work and win over sealed versions.
        write(&dc, 30, vec![99u8; 12], true);
        assert_eq!(DcApi::read(&dc, T, 30).unwrap().unwrap(), vec![99u8; 12]);
    }

    #[test]
    fn recovery_rebuilds_index_from_log_and_sealed_chain() {
        let dc = setup();
        for k in 0..120u64 {
            write(&dc, k, vec![k as u8; 32], false);
        }
        for k in 0..120u64 {
            write(&dc, k, vec![7u8; 32], true);
        }
        // Seal the cold prefix, then keep writing past the horizon.
        dc.compact_pass().unwrap();
        for k in 0..40u64 {
            write(&dc, k, vec![8u8; 32], true);
        }
        for k in 100..110u64 {
            delete(&dc, k);
        }
        let before = dc.scan_all(T).unwrap();
        let records = dc.wal().lock().scan_from(Lsn::NULL).unwrap();

        // Crash: the volatile index is gone. SMO redo restores manifests
        // and sealed pages; finish_redo re-indexes from durable state.
        DcApi::crash(&dc);
        dc.smo_redo(&records).unwrap();
        for rec in &records {
            if !rec.payload.is_data_op() {
                continue;
            }
            let pid = rec.payload.data_pid().unwrap();
            dc.apply_at(pid, rec).unwrap();
        }
        dc.finish_redo().unwrap();
        assert_eq!(dc.scan_all(T).unwrap(), before);
        dc.verify_table(T).unwrap();
    }

    #[test]
    fn finish_redo_alone_is_authoritative() {
        // Even if *no* data record is replayed (the DPT screens of some
        // methods skip never-dirty stub pages), finish_redo alone must
        // reconstruct the exact committed state.
        let dc = setup();
        for k in 0..80u64 {
            write(&dc, k, vec![k as u8; 24], false);
        }
        dc.compact_pass().unwrap();
        for k in 0..30u64 {
            write(&dc, k, vec![3u8; 24], true);
        }
        delete(&dc, 77);
        let before = dc.scan_all(T).unwrap();
        let records = dc.wal().lock().scan_from(Lsn::NULL).unwrap();
        DcApi::crash(&dc);
        dc.smo_redo(&records).unwrap();
        dc.finish_redo().unwrap();
        assert_eq!(dc.scan_all(T).unwrap(), before);
        dc.verify_table(T).unwrap();
    }

    #[test]
    fn compactor_vs_writer_no_lost_updates() {
        use std::sync::atomic::{AtomicBool, Ordering as AOrd};
        let dc = Arc::new(setup());
        for k in 0..64u64 {
            write(&dc, k, vec![0u8; 32], false);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let compactor = {
            let dc = Arc::clone(&dc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut passes = 0usize;
                while !stop.load(AOrd::Relaxed) {
                    passes += dc.compact_pass().unwrap();
                    std::thread::yield_now();
                }
                passes
            })
        };
        // Writer churns every key many times while the compactor runs,
        // holding the prepare guard across log + apply like the engine.
        for round in 1..=40u64 {
            for k in 0..64u64 {
                let value = round.to_le_bytes().to_vec();
                let op =
                    dc.prepare_op(T, k, WriteIntent::Update { value_len: value.len() }).unwrap();
                let info = op.info();
                let payload = LogPayload::Update {
                    txn: TxnId(1),
                    table: T,
                    key: k,
                    pid: info.pid,
                    prev_lsn: Lsn::NULL,
                    before: info.before.unwrap(),
                    after: value,
                };
                let lsn = dc.wal().append(&payload);
                dc.apply(op, &LogRecord { lsn, payload }).unwrap();
            }
        }
        stop.store(true, AOrd::Relaxed);
        compactor.join().unwrap();
        // Final state: every key at round 40 — no lost updates.
        for k in 0..64u64 {
            assert_eq!(
                DcApi::read(dc.as_ref(), T, k).unwrap().unwrap(),
                40u64.to_le_bytes().to_vec(),
                "key {k} lost an update to the compactor"
            );
        }
        dc.verify_table(T).unwrap();
    }
}
