//! The in-memory hash-index data component — the second [`DcApi`] backend.
//!
//! Where [`crate::DataComponent`] places rows through a clustered B-tree,
//! this backend places them through a **volatile hash index** over
//! durable bucket-chain pages:
//!
//! * each table owns a fixed array of buckets, anchored by one durable
//!   **directory page** (the table's catalog "root") listing the bucket
//!   head PIDs;
//! * a bucket is a chain of slotted data pages (key-sorted within a page,
//!   linked through `right_sibling`); a full chain grows by a tail
//!   extension logged as a redo-only SMO system transaction, exactly like
//!   a B-tree split;
//! * the `(table, key) → PID` index is a plain in-memory hash map. It is
//!   **not** logged and **not** checkpointed: a crash loses it, and
//!   recovery rebuilds it from the stable chains plus replayed SMOs.
//!
//! ## Redo is page-logical
//!
//! The paper's logical methods re-traverse the B-tree to resolve each
//! record's page. This backend has no durable index to traverse, so its
//! redo resolution (`RedoBackend::resolve_redo_pid`) returns the **logged
//! PID** — redo replays exactly where history put the record
//! (page-oriented logical redo), and
//! the DPT/rLSN/pLSN screens apply unchanged. Every recovery method of
//! the spectrum therefore works against this backend, and must produce
//! committed state identical to the B-tree backend's (the
//! `backend_equivalence` suite asserts it).
//!
//! ## Concurrency
//!
//! Writes take the table latch exclusively for the whole prepare → log →
//! apply window (no shared fast path, no page-op latches): correctness
//! first, and chain placement depends on chain state in a way leaf
//! placement does not. Reads take the table latch shared.
//!
//! Point reads additionally honour `DcConfig::optimistic_reads`: the
//! volatile index names the key's page, and the probe seqlock-validates
//! that page latch-free (the bucket chain is a right-sibling walk, so a
//! relocated key is chased with the same B-link chase the B-tree read
//! path uses). A validated **miss** is never trusted as absence —
//! relocations scan chains from the head and may move a key *left* of
//! the probed page — so any probe that does not find the key falls back
//! to the latched path, which stays authoritative. Probes pin a
//! reclamation epoch so evicted frame cells they may still validate wait
//! on the pool's limbo list.

use crate::api::{DcApi, DcIntrospect, PreparedOp, TableSummary};
use crate::catalog::{Catalog, META_PAGE};
use crate::dc::{DcConfig, DcCounters, DcStats, PrepareInfo, WriteIntent};
use crate::dpt::Dpt;
use crate::recovery::SmoBarrierOutcome;
use crate::redo::{Located, RedoBackend, RedoPlan};
use crate::trackers::TrackerPair;
use lr_btree::node::{leaf_record, parse_leaf_record, search};
use lr_btree::{internal_entry, parse_internal_entry};
use lr_buffer::BufferPool;
use lr_common::latch::Latch;
use lr_common::{shard_index, Error, Key, Lsn, PageId, RecoveryBreakdown, Result, TableId, Value};
use lr_storage::{Disk, Page, PageType, PAGE_HEADER_SIZE, SLOT_SIZE};
use lr_wal::{ClrAction, LogPayload, LogRecord, SharedWal, SmoRecord};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Table-latch slots (same hashing scheme as the B-tree DC).
const TABLE_LATCHES: usize = 16;
/// Optimistic probes attempted per point read before the latched
/// fallback (mirrors the B-tree DC's retry budget).
const OPT_READ_ATTEMPTS: usize = 3;
/// Chain hops one optimistic probe will follow before giving up. Bucket
/// chains are shallow; anything deeper is a torn link or a pathological
/// chain better served latched.
const OPT_CHAIN_HOPS: usize = 24;

/// Buckets per table: as many directory entries as fit the directory
/// page, clamped to a sane range.
fn bucket_count(page_size: usize) -> usize {
    let usable = page_size.saturating_sub(PAGE_HEADER_SIZE);
    let per_entry = 16 + SLOT_SIZE; // 8-byte bucket id + 8-byte head PID
    (usable / per_entry).clamp(4, 64)
}

#[inline]
fn bucket_of(key: Key, buckets: usize) -> usize {
    shard_index(key, buckets)
}

/// Volatile placement state of one table (the durable anchor — the
/// directory page — lives in the catalog).
struct TableMap {
    /// Bucket head PIDs, directory order. Immutable after creation —
    /// chains grow at the tail.
    heads: Vec<PageId>,
    /// The in-memory hash index: key → resident page.
    index: HashMap<Key, PageId>,
}

/// The hash-index data component.
pub struct HashDc {
    pool: BufferPool,
    catalog: Mutex<Catalog>,
    tables: RwLock<HashMap<TableId, TableMap>>,
    /// Reverse placement map: data/directory page → owning table. Lets
    /// SMO replay refresh the index of exactly the table it touched.
    page_table: RwLock<HashMap<PageId, TableId>>,
    trackers: TrackerPair,
    wal: SharedWal,
    cfg: DcConfig,
    stats: DcCounters,
    table_latches: Box<[Latch]>,
}

/// Offline bulk load: build the directory + bucket chains directly on the
/// disk (bypassing pool and log, like the B-tree loader). Returns the
/// directory PID — the table's catalog anchor.
pub fn hash_bulk_load(
    disk: &mut dyn Disk,
    _table: TableId,
    rows: &mut dyn Iterator<Item = (Key, Value)>,
    fill: f64,
) -> Result<PageId> {
    assert!(fill > 0.05 && fill <= 1.0, "fill factor {fill} out of range");
    let page_size = disk.page_size();
    let buckets = bucket_count(page_size);
    let budget = ((page_size - PAGE_HEADER_SIZE) as f64 * fill) as usize;

    // Distribute rows (arriving in key order, so each bucket's list stays
    // sorted — the within-page ordering invariant).
    let mut per_bucket: Vec<Vec<(Key, Value)>> = (0..buckets).map(|_| Vec::new()).collect();
    for (key, value) in rows {
        per_bucket[bucket_of(key, buckets)].push((key, value));
    }

    let dir_pid = disk.allocate();
    let mut heads = Vec::with_capacity(buckets);
    for rows in per_bucket {
        let head = disk.allocate();
        heads.push(head);
        let mut pid = head;
        let mut page = Page::new(page_size, pid, PageType::Leaf);
        let mut used = 0usize;
        for (key, value) in rows {
            let rec = leaf_record(key, &value);
            let need = rec.len() + SLOT_SIZE;
            if used + need > budget && page.slot_count() > 0 {
                let next = disk.allocate();
                page.set_right_sibling(next);
                disk.write(pid, &page)?;
                pid = next;
                page = Page::new(page_size, pid, PageType::Leaf);
                used = 0;
            }
            let slot = page.slot_count();
            page.insert_record(slot, &rec)?;
            used += need;
        }
        disk.write(pid, &page)?;
    }

    let mut dir = Page::new(page_size, dir_pid, PageType::Internal);
    dir.set_level(1);
    for (i, head) in heads.iter().enumerate() {
        dir.insert_record(i, &internal_entry(i as u64, *head))?;
    }
    disk.write(dir_pid, &dir)?;
    Ok(dir_pid)
}

impl HashDc {
    /// Is the cache dirtier than the lazywriter watermark right now?
    fn over_dirty_watermark(&self) -> bool {
        let watermark = (self.cfg.dirty_watermark * self.pool.capacity() as f64) as usize;
        self.pool.dirty_count() > watermark
    }

    /// Open a hash DC over a formatted disk: builds the pool (wiring the
    /// on-demand EOSL path to the shared log), loads the catalog, and
    /// loads each registered table's placement **skeleton** (bucket heads
    /// only). Opens are cold by design: the crash-fork and
    /// process-restart paths both recover immediately afterwards, and a
    /// full chain walk here would pre-warm the fresh pool inside the
    /// measured recovery window (and be discarded by `finish_redo`
    /// anyway). The volatile key index is built by `register_table`
    /// (bulk-load registration) or recovery's `finish_redo`.
    pub fn open(disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<HashDc> {
        let eosl_wal = wal.clone();
        let provider = Box::new(move |lsn: Lsn| {
            let mut w = eosl_wal.lock();
            w.make_stable(lsn);
            w.stable_lsn()
        });
        let pool = BufferPool::new(disk, cfg.pool_pages, provider);
        let catalog = Catalog::load(&pool)?;
        let dc = HashDc {
            pool,
            catalog: Mutex::new(catalog),
            tables: RwLock::new(HashMap::new()),
            page_table: RwLock::new(HashMap::new()),
            trackers: TrackerPair::new(cfg.perfect_delta_lsns),
            wal,
            cfg,
            stats: DcCounters::default(),
            table_latches: (0..TABLE_LATCHES).map(|_| Latch::new()).collect::<Vec<_>>().into(),
        };
        dc.load_all_skeletons()?;
        // Catalog + directory reads are setup noise, not workload.
        dc.pool.take_events();
        Ok(dc)
    }

    #[inline]
    fn table_latch(&self, table: TableId) -> &Latch {
        &self.table_latches[table.0 as usize % TABLE_LATCHES]
    }

    /// Walk one table's directory + chains and rebuild its volatile map.
    fn load_table_map(&self, table: TableId, dir: PageId) -> Result<TableMap> {
        let heads: Vec<PageId> = self.pool.with_page(dir, |p| {
            (0..p.slot_count()).map(|s| parse_internal_entry(p.record(s)).1).collect()
        })?;
        let mut index = HashMap::new();
        let mut pages = vec![dir];
        for head in &heads {
            let mut pid = *head;
            while pid.is_valid() {
                pages.push(pid);
                let (keys, next) = self.pool.with_page(pid, |p| {
                    let keys: Vec<Key> =
                        (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect();
                    (keys, p.right_sibling())
                })?;
                for k in keys {
                    index.insert(k, pid);
                }
                pid = next;
            }
        }
        let mut pt = self.page_table.write();
        for p in pages {
            pt.insert(p, table);
        }
        Ok(TableMap { heads, index })
    }

    /// Cheap placement skeleton: directory page → bucket heads, with an
    /// **empty** key index. Recovery uses this between catalog reload and
    /// the post-redo rebuild — walking whole chains before SMO replay
    /// would index a not-yet-well-formed structure (and pre-warm the
    /// cache inside the measured window) only to throw the result away.
    fn load_table_skeleton(&self, table: TableId, dir: PageId) -> Result<TableMap> {
        let heads: Vec<PageId> = self.pool.with_page(dir, |p| {
            (0..p.slot_count()).map(|s| parse_internal_entry(p.record(s)).1).collect()
        })?;
        let mut pt = self.page_table.write();
        pt.insert(dir, table);
        for head in &heads {
            pt.insert(*head, table);
        }
        Ok(TableMap { heads, index: HashMap::new() })
    }

    /// Load every registered table's placement skeleton (no key index).
    fn load_all_skeletons(&self) -> Result<()> {
        let roots: Vec<(TableId, PageId)> = self.catalog.lock().tables().collect();
        self.page_table.write().clear();
        let mut maps = HashMap::new();
        for (table, dir) in roots {
            maps.insert(table, self.load_table_skeleton(table, dir)?);
        }
        *self.tables.write() = maps;
        Ok(())
    }

    /// Rebuild every registered table's map from stable state.
    fn rebuild_all_maps(&self) -> Result<()> {
        let roots: Vec<(TableId, PageId)> = self.catalog.lock().tables().collect();
        self.page_table.write().clear();
        let mut maps = HashMap::new();
        for (table, dir) in roots {
            maps.insert(table, self.load_table_map(table, dir)?);
        }
        *self.tables.write() = maps;
        Ok(())
    }

    fn read_at(&self, pid: PageId, key: Key) -> Result<Option<Value>> {
        self.pool.with_page(pid, |p| lr_btree::node_search_value(p, key))
    }

    /// One latch-free probe for `key` starting at the page the volatile
    /// index names, chasing `right_sibling` on a validated miss (a racing
    /// relocation or chain extension may have moved the key down-chain).
    /// Only a validated **hit** is returned: relocation targets are picked
    /// by scanning the chain from its head, so a key can also move *left*
    /// of the probed page — a miss anywhere, including the chain end, is
    /// reported as [`OptReadFail::Contended`] and resolved latched.
    fn read_at_optimistic(
        &self,
        start: PageId,
        key: Key,
    ) -> std::result::Result<Option<Value>, lr_buffer::OptReadFail> {
        let mut pid = start;
        for _ in 0..OPT_CHAIN_HOPS {
            enum Probe {
                Hit(Option<Value>),
                Next(PageId),
                Fail,
            }
            let probe = self.pool.try_read_optimistic(pid, |v| {
                if v.page_type() != Some(PageType::Leaf) {
                    return Probe::Fail;
                }
                match v.search(key) {
                    Ok(slot) => Probe::Hit(v.value_at(slot)),
                    Err(_) => {
                        let next = v.right_sibling();
                        if next.is_valid() {
                            Probe::Next(next)
                        } else {
                            Probe::Fail
                        }
                    }
                }
            })?;
            match probe {
                Probe::Hit(v) => return Ok(v),
                Probe::Next(next) => pid = next,
                Probe::Fail => return Err(lr_buffer::OptReadFail::Contended),
            }
        }
        Err(lr_buffer::OptReadFail::BudgetExhausted)
    }

    fn index_pid(&self, table: TableId, key: Key) -> Result<Option<PageId>> {
        let tables = self.tables.read();
        let tm = tables.get(&table).ok_or(Error::UnknownTable(table))?;
        Ok(tm.index.get(&key).copied())
    }

    /// The chain of bucket `b`, walked live through `right_sibling`.
    fn chain(&self, head: PageId) -> Result<Vec<PageId>> {
        let mut pids = Vec::new();
        let mut pid = head;
        while pid.is_valid() {
            pids.push(pid);
            pid = self.pool.with_page(pid, |p| p.right_sibling())?;
        }
        Ok(pids)
    }

    /// Clone a page's current image out of the pool.
    fn page_image(&self, pid: PageId) -> Result<Page> {
        let bytes = self.pool.with_page(pid, |p| p.as_bytes().to_vec())?;
        Page::from_bytes(bytes.into_boxed_slice())
    }

    /// First chain page with room for `need` bytes (record + slot).
    fn place_in_chain(&self, head: PageId, need: usize, exclude: PageId) -> Result<Option<PageId>> {
        for pid in self.chain(head)? {
            if pid == exclude {
                continue;
            }
            let free = self.pool.with_page(pid, |p| p.free_space())?;
            if free >= need {
                return Ok(Some(pid));
            }
        }
        Ok(None)
    }

    /// Log one hash SMO system transaction (after-images of every page it
    /// rewrote) and install the images. Returns the SMO's LSN.
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

    /// Extend `head`'s chain with a fresh page, as one logged SMO system
    /// transaction (tail image with the new link + the new page, seeded
    /// with `seed` records so the whole extension is one atomic system
    /// transaction). Returns the new page's PID.
    fn extend_chain(
        &self,
        table: TableId,
        head: PageId,
        seed: Option<(Key, &[u8])>,
        tail_override: Option<(PageId, Page)>,
    ) -> Result<PageId> {
        let tail = *self.chain(head)?.last().expect("chain has at least its head");
        let new_pid = self.pool.disk_mut().allocate();
        let mut new_page = Page::new(self.pool.disk().page_size(), new_pid, PageType::Leaf);
        if let Some((key, value)) = seed {
            new_page.insert_record(0, &leaf_record(key, value))?;
        }
        // The source page of a relocation may itself be the chain tail:
        // fold the link update into its (already modified) image instead
        // of carrying two conflicting images of one page.
        let mut images: Vec<(PageId, Page)> = Vec::new();
        match tail_override {
            Some((src_pid, mut src)) if src_pid == tail => {
                src.set_right_sibling(new_pid);
                images.push((src_pid, src));
            }
            other => {
                let mut tail_img = self.page_image(tail)?;
                tail_img.set_right_sibling(new_pid);
                images.push((tail, tail_img));
                if let Some((src_pid, src)) = other {
                    images.push((src_pid, src));
                }
            }
        }
        images.push((new_pid, new_page));
        self.log_smo(images)?;
        self.page_table.write().insert(new_pid, table);
        Ok(new_pid)
    }

    /// Refresh the volatile index for freshly installed pages: drop every
    /// entry pointing at them, then re-add what the new images hold.
    fn refresh_index_for(&self, pids: &[PageId]) -> Result<()> {
        if pids.is_empty() {
            return Ok(());
        }
        // Resolve the owning table through the reverse map; pages from
        // one SMO always share a table (chains never cross tables).
        let table = {
            let pt = self.page_table.read();
            pids.iter().find_map(|p| pt.get(p).copied())
        };
        let Some(table) = table else {
            // No page known yet (table not registered) — nothing volatile
            // to refresh.
            return Ok(());
        };
        {
            let mut pt = self.page_table.write();
            for p in pids {
                pt.insert(*p, table);
            }
        }
        let mut tables = self.tables.write();
        let Some(tm) = tables.get_mut(&table) else { return Ok(()) };
        tm.index.retain(|_, p| !pids.contains(p));
        for pid in pids {
            let keys: Vec<Key> = self.pool.with_page(*pid, |p| {
                (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect()
            })?;
            for k in keys {
                tm.index.insert(k, *pid);
            }
        }
        Ok(())
    }

    /// The latched prepare body (callers hold the exclusive table latch).
    fn prepare_locked(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PrepareInfo> {
        let (head, cur) = {
            let tables = self.tables.read();
            let tm = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            (tm.heads[bucket_of(key, tm.heads.len())], tm.index.get(&key).copied())
        };
        match intent {
            WriteIntent::Update { value_len } => {
                let pid = cur.ok_or(Error::KeyNotFound { table, key })?;
                let old = self.read_at(pid, key)?.ok_or(Error::KeyNotFound { table, key })?;
                let grow = value_len.saturating_sub(old.len());
                let free = self.pool.with_page(pid, |p| p.free_space())?;
                if grow == 0 || free >= grow {
                    return Ok(PrepareInfo { pid, before: Some(old) });
                }
                // Relocation: move the record to a page with room for the
                // grown value, as one SMO (source image without the key +
                // target image holding it at the old value); the logged
                // update then applies at the target.
                let need = 8 + value_len + SLOT_SIZE;
                let mut src = self.page_image(pid)?;
                match search(&src, key) {
                    Ok(slot) => src.remove_record(slot),
                    Err(_) => return Err(Error::KeyNotFound { table, key }),
                }
                let target = match self.place_in_chain(head, need, pid)? {
                    Some(t) => {
                        let mut timg = self.page_image(t)?;
                        let slot = match search(&timg, key) {
                            Err(slot) => slot,
                            Ok(_) => {
                                return Err(Error::RecoveryInvariant(format!(
                                    "relocation target {t} already holds key {key}"
                                )))
                            }
                        };
                        timg.insert_record(slot, &leaf_record(key, &old))?;
                        self.log_smo(vec![(pid, src), (t, timg)])?;
                        t
                    }
                    // No room anywhere: extend the chain with a new tail
                    // seeded with the record — one atomic SMO, so a crash
                    // between the SMO and the update leaves exactly one
                    // copy at the old value.
                    None => self.extend_chain(table, head, Some((key, &old)), Some((pid, src)))?,
                };
                self.tables.write().get_mut(&table).expect("checked").index.insert(key, target);
                Ok(PrepareInfo { pid: target, before: Some(old) })
            }
            WriteIntent::Delete => {
                let pid = cur.ok_or(Error::KeyNotFound { table, key })?;
                let old = self.read_at(pid, key)?.ok_or(Error::KeyNotFound { table, key })?;
                Ok(PrepareInfo { pid, before: Some(old) })
            }
            WriteIntent::Insert { value_len } => {
                if cur.is_some() {
                    return Err(Error::DuplicateKey { table, key });
                }
                let need = 8 + value_len + SLOT_SIZE;
                let pid = match self.place_in_chain(head, need, PageId::INVALID)? {
                    Some(p) => p,
                    None => self.extend_chain(table, head, None, None)?,
                };
                Ok(PrepareInfo { pid, before: None })
            }
        }
    }

    /// Apply one logical operation at `pid` and keep the volatile index
    /// in step.
    fn apply_data(
        &self,
        table: TableId,
        key: Key,
        pid: PageId,
        lsn: Lsn,
        op: DataOp,
    ) -> Result<()> {
        self.pool.with_page_mut(pid, lsn, |p| match (op, search(p, key)) {
            (DataOp::Insert(v), Err(slot)) => p.insert_record(slot, &leaf_record(key, v)),
            (DataOp::Insert(_), Ok(_)) => Err(Error::DuplicateKey { table, key }),
            (DataOp::Update(v), Ok(slot)) => p.update_record(slot, &leaf_record(key, v)),
            (DataOp::Update(_), Err(_)) => Err(Error::KeyNotFound { table, key }),
            (DataOp::Delete, Ok(slot)) => {
                p.remove_record(slot);
                Ok(())
            }
            (DataOp::Delete, Err(_)) => Err(Error::KeyNotFound { table, key }),
        })??;
        if let Some(tm) = self.tables.write().get_mut(&table) {
            match op {
                DataOp::Delete => {
                    tm.index.remove(&key);
                }
                DataOp::Insert(_) | DataOp::Update(_) => {
                    tm.index.insert(key, pid);
                }
            }
        }
        Ok(())
    }
}

/// The three page-level effects a data record can have.
#[derive(Clone, Copy)]
enum DataOp<'a> {
    Insert(&'a [u8]),
    Update(&'a [u8]),
    Delete,
}

impl DcIntrospect for HashDc {
    fn backend_name(&self) -> &'static str {
        crate::backend::HASH_BACKEND
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

impl DcApi for HashDc {
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        if self.cfg.optimistic_reads {
            // Epoch pin: retired frame cells this probe may still validate
            // wait on the pool's limbo list until the pin drops.
            let _epoch = self.pool.pin_epoch();
            let mut wasted = 0;
            for attempt in 1..=OPT_READ_ATTEMPTS {
                // Index snapshot instead of the table latch: the map read
                // is atomic, and an absent entry means a latched read at
                // the same instant would have returned None too.
                let Some(start) = self.index_pid(table, key)? else {
                    self.stats.read_restarts.record(attempt - 1);
                    self.stats.optimistic_point_reads.fetch_add(1, Ordering::Relaxed);
                    return Ok(None);
                };
                match self.read_at_optimistic(start, key) {
                    Ok(v) => {
                        self.stats.read_restarts.record(attempt - 1);
                        self.stats.optimistic_point_reads.fetch_add(1, Ordering::Relaxed);
                        return Ok(v);
                    }
                    // Cold pages and blown hop budgets fail
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
                        lr_buffer::olc_backoff(attempt);
                    }
                }
            }
            self.stats.read_restarts.record(wasted);
            self.stats.read_fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        let _t = self.table_latch(table).read();
        match self.index_pid(table, key)? {
            Some(pid) => self.read_at(pid, key),
            None => Ok(None),
        }
    }

    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        let _t = self.table_latch(table).read();
        let mut hits: Vec<(Key, PageId)> = {
            let tables = self.tables.read();
            let tm = tables.get(&table).ok_or(Error::UnknownTable(table))?;
            tm.index
                .iter()
                .filter(|(k, _)| (from..=to).contains(*k))
                .map(|(k, p)| (*k, *p))
                .collect()
        };
        hits.sort_unstable_by_key(|(k, _)| *k);
        let mut rows = Vec::with_capacity(hits.len());
        for (k, pid) in hits {
            let v = self.read_at(pid, k)?.ok_or(Error::RecoveryInvariant(format!(
                "hash index points key {k} at page {pid} but the page lacks it"
            )))?;
            rows.push((k, v));
        }
        Ok(rows)
    }

    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        self.read_range(table, Key::MIN, Key::MAX)
    }

    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>> {
        // Exclusive for every write: chain placement depends on chain
        // state, so there is no structure-stable shared fast path here.
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

    fn create_table(&self, table: TableId) -> Result<()> {
        let page_size = self.pool.disk().page_size();
        let buckets = bucket_count(page_size);
        let dir_pid = self.pool.disk_mut().allocate();
        let mut dir = Page::new(page_size, dir_pid, PageType::Internal);
        dir.set_level(1);
        let mut heads = Vec::with_capacity(buckets);
        for i in 0..buckets {
            let head = self.pool.disk_mut().allocate();
            heads.push(head);
            let page = Page::new(page_size, head, PageType::Leaf);
            self.pool.install_page(head, page, Lsn::NULL)?;
            dir.insert_record(i, &internal_entry(i as u64, head))?;
        }
        self.pool.install_page(dir_pid, dir, Lsn::NULL)?;
        // The structure is created un-logged (like a bulk load), so make
        // it stable before the table goes live.
        self.pool.flush_page(dir_pid)?;
        for head in &heads {
            self.pool.flush_page(*head)?;
        }
        self.register_table(table, dir_pid)
    }

    fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        {
            let mut catalog = self.catalog.lock();
            catalog.set_root(table, root);
            catalog.save(&self.pool, Lsn::NULL)?;
        }
        self.pool.flush_page(META_PAGE)?;
        // Observe — never discard — the drained events (see the B-tree
        // DC's register_table for the rationale).
        self.trackers.observe_drain(&self.pool);
        let map = self.load_table_map(table, root)?;
        self.tables.write().insert(table, map);
        Ok(())
    }

    fn table_root(&self, table: TableId) -> Result<PageId> {
        self.catalog.lock().root_of(table)
    }

    fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        let _t = self.table_latch(table).read();
        let tables = self.tables.read();
        let tm = tables.get(&table).ok_or(Error::UnknownTable(table))?;
        let mut summary = TableSummary { internal_pages: 1, ..TableSummary::default() };
        let mut seen = std::collections::HashSet::new();
        for (b, head) in tm.heads.iter().enumerate() {
            let chain = self.chain(*head)?;
            summary.height = summary.height.max(chain.len() as u32);
            for pid in chain {
                summary.leaf_pages += 1;
                let (ty, keys) = self.pool.with_page(pid, |p| {
                    let keys: Vec<Key> =
                        (0..p.slot_count()).map(|s| parse_leaf_record(p.record(s)).0).collect();
                    (p.page_type(), keys)
                })?;
                if ty != PageType::Leaf {
                    return Err(Error::RecoveryInvariant(format!(
                        "bucket page {pid} has type {ty:?}"
                    )));
                }
                let mut last: Option<Key> = None;
                for k in keys {
                    if bucket_of(k, tm.heads.len()) != b {
                        return Err(Error::RecoveryInvariant(format!(
                            "key {k} stored in bucket {b} but hashes elsewhere"
                        )));
                    }
                    if let Some(prev) = last {
                        if k <= prev {
                            return Err(Error::RecoveryInvariant(format!(
                                "keys out of order on page {pid}: {prev} then {k}"
                            )));
                        }
                    }
                    last = Some(k);
                    if !seen.insert(k) {
                        return Err(Error::RecoveryInvariant(format!("duplicate key {k}")));
                    }
                    if tm.index.get(&k) != Some(&pid) {
                        return Err(Error::RecoveryInvariant(format!(
                            "index out of sync for key {k}"
                        )));
                    }
                    summary.records += 1;
                }
            }
        }
        if tm.index.len() as u64 != summary.records {
            return Err(Error::RecoveryInvariant(format!(
                "index holds {} keys, chains hold {}",
                tm.index.len(),
                summary.records
            )));
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
        Ok(Arc::new(HashDc::open(disk, wal, cfg)?))
    }
}

impl RedoBackend for HashDc {
    fn catalog(&self) -> &Mutex<Catalog> {
        &self.catalog
    }

    fn attach_placement(&self) -> Result<()> {
        self.load_all_skeletons()
    }

    fn resolve_redo_pid(&self, _table: TableId, _key: Key, logged_pid: PageId) -> Result<Located> {
        // Page-logical redo: replay exactly where history applied the
        // operation. No traversal, no index dependency — the volatile
        // index is rebuilt from chains, not consulted, during redo.
        Ok(Located { pid: logged_pid, levels: 0, stall_us: 0 })
    }

    fn apply_at(&self, pid: PageId, rec: &LogRecord) -> Result<()> {
        match &rec.payload {
            LogPayload::Update { table, key, after, .. } => {
                self.apply_data(*table, *key, pid, rec.lsn, DataOp::Update(after))
            }
            LogPayload::Insert { table, key, value, .. } => {
                self.apply_data(*table, *key, pid, rec.lsn, DataOp::Insert(value))
            }
            LogPayload::Delete { table, key, .. } => {
                self.apply_data(*table, *key, pid, rec.lsn, DataOp::Delete)
            }
            LogPayload::Clr { table, key, action, .. } => match action {
                ClrAction::RestoreValue(v) => {
                    self.apply_data(*table, *key, pid, rec.lsn, DataOp::Update(v))
                }
                ClrAction::RemoveKey => self.apply_data(*table, *key, pid, rec.lsn, DataOp::Delete),
                ClrAction::InsertValue(v) => {
                    self.apply_data(*table, *key, pid, rec.lsn, DataOp::Insert(v))
                }
            },
            other => {
                Err(Error::RecoveryInvariant(format!("apply_at of non-data payload {other:?}")))
            }
        }
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
        self.refresh_index_for(&installed)?;
        // Hash SMOs never move a catalog anchor.
        debug_assert!(smo.new_root.is_none());
        Ok(None)
    }

    fn finish_redo(&self) -> Result<()> {
        // Parallel data redo partitions by PID: a key that moved pages in
        // history has its delete and its re-insert applied by *different*
        // workers in no defined relative order, so the incremental index
        // maintenance in `apply_data` can finish with a stale or missing
        // entry even though the pages themselves (pLSN-guarded,
        // partition-exclusive) are exact. Rebuild the volatile index from
        // the now-final chains.
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

    fn setup() -> HashDc {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        crate::DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = HashDc::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        dc.create_table(T).unwrap();
        dc
    }

    /// One engine-style op: prepare → log (for real, so recovery sees
    /// it) → apply.
    fn insert(dc: &HashDc, key: Key, value: Vec<u8>) {
        let op = dc.prepare_op(T, key, WriteIntent::Insert { value_len: value.len() }).unwrap();
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value,
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
    }

    #[test]
    fn insert_read_update_delete_roundtrip() {
        let dc = setup();
        for k in 0..200u64 {
            insert(&dc, k, vec![k as u8; 24]);
        }
        assert_eq!(DcApi::read(&dc, T, 7).unwrap().unwrap(), vec![7u8; 24]);
        assert_eq!(DcApi::read(&dc, T, 999).unwrap(), None);
        let rows = dc.scan_all(T).unwrap();
        assert_eq!(rows.len(), 200);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "scan is key-ordered");
        let s = dc.verify_table(T).unwrap();
        assert_eq!(s.records, 200);
        assert!(s.height >= 1);
    }

    #[test]
    fn chains_grow_and_survive_crash_via_smo_replay() {
        let dc = setup();
        // Small pages force chain extensions (logged as SMOs).
        for k in 0..300u64 {
            insert(&dc, k, vec![k as u8; 32]);
        }
        assert!(dc.stats().smo_records_written > 0, "chain growth must log SMOs");
        let before = dc.scan_all(T).unwrap();
        let records = dc.wal().lock().scan_from(Lsn::NULL).unwrap();

        // Crash: the volatile index is gone; nothing was flushed except
        // creation-time pages. SMO redo + page-logical data redo rebuild.
        DcApi::crash(&dc);
        dc.smo_redo(&records).unwrap();
        for rec in &records {
            if !rec.payload.is_data_op() {
                continue;
            }
            let pid = rec.payload.data_pid().unwrap();
            let plsn = dc.pool().with_page(pid, |p| p.plsn()).unwrap();
            if rec.lsn > plsn {
                dc.apply_at(pid, rec).unwrap();
            }
        }
        dc.rebuild_all_maps().unwrap();
        assert_eq!(dc.scan_all(T).unwrap(), before);
        dc.verify_table(T).unwrap();
    }

    #[test]
    fn grown_update_relocates_and_keeps_one_copy() {
        let dc = setup();
        // Fill a bucket page so a grown update cannot stay in place.
        for k in 0..120u64 {
            insert(&dc, k, vec![1u8; 40]);
        }
        // Grow key 5 far beyond its page's free space.
        let op = dc.prepare_op(T, 5, WriteIntent::Update { value_len: 200 }).unwrap();
        assert_eq!(op.before.as_deref(), Some(&[1u8; 40][..]));
        let payload = LogPayload::Update {
            txn: TxnId(2),
            table: T,
            key: 5,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            before: op.before.clone().unwrap(),
            after: vec![9u8; 200],
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
        assert_eq!(DcApi::read(&dc, T, 5).unwrap().unwrap(), vec![9u8; 200]);
        dc.verify_table(T).unwrap(); // exactly one copy, index in sync
    }
}
