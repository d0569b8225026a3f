//! DC recovery, run where the pages are: SMO redo (or the catalog
//! reload), index preload, one screen loop feeding one of two sinks, the
//! prefetchers, the partitioned worker pipeline, and the post-redo index
//! rebuild.
//!
//! [`crate::DcApi::redo`] is every recovery method's whole DC-side pass,
//! executed by the backend against its own pool. The TC ships the scan
//! window and a [`RedoPlan`] — its method row plus what its analysis pass
//! decided — and gets back the pass's breakdown shard
//! ([`RecoveryBreakdown::redo_shard_mut`]): every phase's µs, the
//! page-fetch and stall counters, the SMO and preload counts. The phases
//! journal their own `SmoRedo` / `IndexPreload` / `Redo` / `IndexRebuild`
//! spans through the pool's trace sink. Over a message boundary that is
//! one `Redo` crossing per recovery: [`crate::RemoteDc`] sends the frame,
//! [`crate::DcServer`] runs this module next to the pages.
//!
//! `Screen::run` is the loop. Per record it charges the per-record CPU,
//! pumps the method's read-ahead, resolves the record's page, runs the
//! redo test short of the pLSN comparison ([`Dpt::screen`] or the
//! tail-of-log rule) and hands survivors to a `RedoSink`. Without a DPT
//! that is Algorithm 2 (Log0), with a Δ-built one Algorithm 5 (Log1/Log2,
//! the Appendix-D ablations), resolving by logged PID and replaying SMOs
//! in LSN order Algorithm 1 (SQL1/SQL2/ARIES-ckpt). On one worker the sink
//! is the inline one — the §5 measured path, one SimClock charged in
//! program order — otherwise `partitioned`'s router; both end in
//! `apply_one`.
#![deny(clippy::too_many_lines)]

mod partitioned;
mod prefetch;

use crate::api::DcApi;
use crate::catalog::Catalog;
use crate::dpt::{Dpt, DptScreen};
use crate::recovery::{plsn_smo_install, SmoBarrierOutcome};
use lr_buffer::BufferPool;
use lr_common::{IoModel, Key, Lsn, PageId, RecoveryBreakdown, Result, TableId};
use lr_obs::{EventKind, RecoveryPhase, TraceSink};
use lr_wal::{LogPayload, LogRecord, SmoRecord};
use parking_lot::Mutex;
use prefetch::{ListPrefetcher, LogDrivenPrefetcher};

/// Records to look ahead in log-driven prefetch (SQL2).
const LOG_DRIVEN_LOOKAHEAD_RECORDS: usize = 128;
/// Records past the redo cursor whose LSN paces list-driven prefetch
/// (Log2, Log2-dptpf): a list entry is issued once its rLSN is at or below
/// that record's LSN, a tail page once that record reaches it.
const LIST_HORIZON_RECORDS: usize = 512;

/// How redo finds the page a data record applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// Algorithms 2 and 5: by key through the index (the logged PID is
    /// advisory); SMO redo runs first, so the index is well-formed.
    Logical,
    /// Algorithm 1: the logged PID; redo itself replays SMO records.
    Physiological,
}

/// The data-page read-ahead a method runs during redo (Appendix A.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prefetch {
    None,
    /// The PF-list analysis assembles from Δ DirtySets (the paper's scheme).
    PfList,
    /// DPT pages in rLSN order (the described alternative).
    DptOrder,
    /// DPT-screened look-ahead over the log itself (SQL Server's scheme).
    LogDriven,
}

/// What the TC hands DC recovery: the method's family, read-ahead and
/// preload choice, and what its analysis pass decided — the DPT, the tail
/// boundary, the PF-list — plus the window's log pages and the worker
/// count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoPlan {
    pub family: Family,
    pub prefetch: Prefetch,
    /// Load every index page before redo (Appendix A.1).
    pub preload: bool,
    /// `None` for Log0: every data record reaches its page's pLSN test.
    pub dpt: Option<Dpt>,
    /// Records at or past this LSN are the tail of the log (§4.3): the
    /// DPT does not cover them, so redo decides by pLSN alone. `Lsn::MAX`
    /// when the DPT covers the whole window.
    pub tail_from: Lsn,
    /// The PF-list (Appendix A.2), for Δ-built DPTs.
    pub pf_list: Vec<PageId>,
    /// Log pages the window spans: redo re-reads them sequentially.
    pub log_pages: u64,
    /// 1 runs the inline sink; more, the SMO barrier and that many
    /// partitioned workers.
    pub workers: usize,
}

/// Where a `(table, key)` pair resolves for redo, with the simulated cost
/// of finding out.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Located {
    /// The page the operation should be tested/applied at.
    pub pid: PageId,
    /// Index levels touched by the resolution (0 for an O(1) lookup) —
    /// charged at `IoModel::cpu_btree_level_us` per level by callers.
    pub levels: u32,
    /// Device stall µs the resolution itself incurred (cold index pages)
    /// — already charged to the shared device, returned so per-worker
    /// busy shards can attribute it.
    pub stall_us: u64,
}

/// What an index-preload pass did (Appendix A.1).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PreloadStats {
    /// Index pages now resident.
    pub pages_loaded: u64,
    /// Prefetch I/Os issued while loading.
    pub prefetch_ios: u64,
    /// Pages those I/Os covered.
    pub prefetch_pages: u64,
}

/// What DC recovery needs from a local backend beyond the contract. Only
/// this module calls these, so they never cross a message boundary.
pub(crate) trait RedoBackend: DcApi {
    /// The in-memory catalog: table → placement anchor.
    fn catalog(&self) -> &Mutex<Catalog>;

    /// Rebuild the placement structure redo resolves through from the
    /// catalog: the B-tree handles, or a page-logical backend's skeletons
    /// (bucket heads, stubs — no key index; [`RedoBackend::finish_redo`]
    /// rebuilds that).
    fn attach_placement(&self) -> Result<()>;

    /// Resolve a data record to the page redo must test: by key traversal
    /// for a logical backend (the logged PID is advisory), by the logged
    /// PID for a page-logical backend.
    fn resolve_redo_pid(&self, table: TableId, key: Key, logged_pid: PageId) -> Result<Located>;

    /// Apply `rec`'s data operation or CLR to `pid` under `rec.lsn`, with
    /// **no redo test** — the screens above (DPT, rLSN, pLSN) decided it.
    /// Normal execution reaches the same code through [`DcApi::apply`].
    fn apply_at(&self, pid: PageId, rec: &LogRecord) -> Result<()>;

    /// Replay one SMO record with the physiological redo screen (DPT +
    /// rLSN + pLSN), installing surviving page images wholesale. Returns
    /// the record's LSN when it moved a placement anchor — the catalog is
    /// saved once, after the last move. Serial inline replay and the
    /// parallel barrier both run this one implementation.
    fn replay_smo_screened(
        &self,
        lsn: Lsn,
        smo: &SmoRecord,
        dpt: &Dpt,
        out: &mut SmoBarrierOutcome,
    ) -> Result<Option<Lsn>>;

    /// Called once after **every** data-redo pass, before undo. Redo is
    /// exact at the page level, but volatile per-*key* state cannot be
    /// maintained soundly during it: pLSN-skipped records never run their
    /// index maintenance, and partitioned workers apply a moved key's
    /// delete and re-insert in no defined relative order. A backend
    /// keeping such state restores it from the (final, pLSN-guarded) pages
    /// here. Default: no-op — the B-tree derives placement from the pages
    /// themselves.
    fn finish_redo(&self) -> Result<()> {
        Ok(())
    }

    /// Reload the catalog from stable pages and attach placement to it —
    /// a physiological method's whole structure recovery (its redo
    /// replays the SMOs itself).
    fn reload_catalog(&self) -> Result<()> {
        *self.catalog().lock() = Catalog::load(self.pool())?;
        self.attach_placement()
    }

    /// Persist the catalog under `lsn`.
    fn save_catalog(&self, lsn: Lsn) -> Result<()> {
        self.catalog().lock().save(self.pool(), lsn)
    }

    /// SMO redo (§1.2, §4.2): reload the catalog from the stable meta page,
    /// install every SMO page image in `window` under the plain pLSN guard
    /// (no DPT exists at this point), persist any root moves, then attach
    /// placement to the now well-formed structure. Returns `(pages
    /// applied, pages skipped)`. Even unoptimized logical recovery (Log0)
    /// runs this: the index must be well-formed before any record is
    /// located by key.
    fn smo_redo(&self, window: &[LogRecord]) -> Result<(u64, u64)> {
        let pool = self.pool();
        let mut catalog = Catalog::load(pool)?;
        let (mut applied, mut skipped, mut root_moved) = (0, 0, None);
        for rec in window {
            let LogPayload::Smo(smo) = &rec.payload else { continue };
            let (a, s) = plsn_smo_install(pool, rec.lsn, &smo.pages)?;
            applied += a;
            skipped += s;
            if let Some((table, root)) = smo.new_root {
                catalog.set_root(table, root);
                root_moved = Some(rec.lsn);
            }
        }
        if let Some(lsn) = root_moved {
            catalog.save(pool, lsn)?;
        }
        *self.catalog().lock() = catalog;
        self.attach_placement()?;
        // Recovery-time dirtying is not workload monitoring: the engine
        // takes a checkpoint at the end of recovery, which flushes these
        // pages, so the next crash's Δ/BW stream starts from a clean slate.
        pool.take_events();
        Ok((applied, skipped))
    }

    /// Appendix A.1's index preload: load every table's index pages into
    /// the cache level by level from its anchor, prefetching each level
    /// as a batch so reads overlap. A hash directory or log manifest is a
    /// one-level index: its anchor alone.
    fn preload_index(&self) -> Result<PreloadStats> {
        let pool = self.pool();
        let roots: Vec<PageId> = self.catalog().lock().tables().map(|(_, root)| root).collect();
        let mut out = PreloadStats::default();
        for root in roots {
            let mut frontier = vec![root];
            loop {
                let mut children: Vec<PageId> = Vec::new();
                for pid in &frontier {
                    pool.fetch(*pid)?;
                    let (is_internal, level, kids) = pool.with_page(*pid, |p| {
                        if p.page_type() == lr_storage::PageType::Internal {
                            let kids: Vec<PageId> = (0..p.slot_count())
                                .map(|s| lr_btree::parse_internal_entry(p.record(s)).1)
                                .collect();
                            (true, p.level(), kids)
                        } else {
                            (false, 0, Vec::new())
                        }
                    })?;
                    if is_internal {
                        out.pages_loaded += 1;
                        if level >= 2 {
                            children.extend(kids);
                        }
                    }
                }
                if children.is_empty() {
                    break;
                }
                let (ios, pages) = pool.prefetch(&children);
                out.prefetch_ios += ios as u64;
                out.prefetch_pages += pages as u64;
                frontier = children;
            }
        }
        Ok(out)
    }
}

/// Run DC recovery's whole pass — structure recovery, preload, redo over
/// `window` per `plan`, the index rebuild — against `dc`'s own pool and
/// return its breakdown shard. On one worker the screen feeds the inline
/// sink; on more the SMO barrier (physiological family) runs first, then
/// the partitioned pipeline.
pub(crate) fn run(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    plan: &RedoPlan,
) -> Result<RecoveryBreakdown> {
    let pool = dc.pool();
    let mut bk = RecoveryBreakdown::default();
    match plan.family {
        Family::Logical => {
            let ((applied, skipped), us) =
                span(pool, RecoveryPhase::SmoRedo, || dc.smo_redo(window))?;
            (bk.smo_pages_applied, bk.smo_pages_skipped, bk.smo_redo_us) = (applied, skipped, us);
        }
        // The catalog is all a physiological redo needs first (it replays
        // SMOs itself); reading it counts as analysis time.
        Family::Physiological => {
            let t0 = pool.disk().now_us();
            dc.reload_catalog()?;
            bk.analysis_us = pool.disk().now_us() - t0;
        }
    }
    if plan.preload {
        let (pl, us) = span(pool, RecoveryPhase::IndexPreload, || dc.preload_index())?;
        bk.index_pages_loaded = pl.pages_loaded;
        bk.prefetch_ios += pl.prefetch_ios;
        bk.prefetch_pages += pl.prefetch_pages;
        bk.index_preload_us = us;
    }
    bk.log_pages_read = plan.log_pages;
    if plan.workers <= 1 {
        let (_, us) = span(pool, RecoveryPhase::Redo, || redo(dc, window, plan, &mut bk))?;
        bk.redo_us = us;
    } else {
        redo(dc, window, plan, &mut bk)?;
    }
    // Redo is exact at the page level; a backend's volatile per-key state
    // is restored from the now-final pages before undo re-locates by key.
    bk.index_rebuild_us = span(pool, RecoveryPhase::IndexRebuild, || dc.finish_redo())?.1;
    Ok(bk)
}

/// The redo pass proper: re-read the window's log pages, then screen and
/// apply it, counting the pages it fetched and the stalls it met.
fn redo(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    plan: &RedoPlan,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let pool = dc.pool();
    let model = {
        let mut disk = pool.disk_mut();
        for _ in 0..plan.log_pages {
            disk.charge_log_page_read();
        }
        disk.io_model()
    };
    let before = pool.stats();
    let screen = Screen::new(plan);
    if plan.workers <= 1 {
        redo_inline(dc, window, screen, bk)?;
    } else {
        if let (Family::Physiological, Some(dpt)) = (plan.family, &plan.dpt) {
            bk.smo_redo_us = smo_barrier(dc, window, dpt, bk)?;
        }
        partitioned::run(dc, window, screen, plan.workers, bk)?;
        // The dispatcher's log re-scan rides the sequential-read model,
        // like the serial pass's window re-read.
        bk.partition_us += plan.log_pages * model.log_page_read_us;
    }
    let after = pool.stats();
    bk.data_pages_fetched = after.data_page_misses - before.data_page_misses;
    bk.index_pages_fetched = after.index_page_misses - before.index_page_misses;
    bk.data_stall_events = after.data_stall_events - before.data_stall_events;
    bk.data_stall_us = after.data_stall_us - before.data_stall_us;
    bk.index_stall_events = after.index_stall_events - before.index_stall_events;
    bk.index_stall_us = after.index_stall_us - before.index_stall_us;
    Ok(())
}

/// The pool's journal, or the no-op sink.
fn trace_of(pool: &BufferPool) -> TraceSink {
    pool.trace().cloned().unwrap_or_else(TraceSink::disabled)
}

/// Run one DC recovery phase between its journal span events (worker 0).
/// Returns `run`'s result and the phase's elapsed SimClock µs.
fn span<R>(
    pool: &BufferPool,
    phase: RecoveryPhase,
    run: impl FnOnce() -> Result<R>,
) -> Result<(R, u64)> {
    let trace = trace_of(pool);
    let t0 = pool.disk().now_us();
    trace.emit(EventKind::RecoveryPhaseStart { phase, worker: 0 });
    let out = run()?;
    let busy_us = pool.disk().now_us() - t0;
    trace.emit(EventKind::RecoveryPhaseEnd { phase, worker: 0, busy_us });
    Ok((out, busy_us))
}

/// Where redo's simulated cost lands.
enum Meter {
    /// The shared SimClock, in program order (the inline path). Device
    /// stalls are already on it; only CPU is charged here.
    Clock,
    /// A private busy total (the dispatcher, or one worker): CPU plus the
    /// device stalls this thread met.
    Busy(u64),
}

impl Meter {
    fn charge(&mut self, pool: &BufferPool, cpu_us: u64, stall_us: u64) {
        match self {
            Meter::Clock if cpu_us > 0 => pool.disk_mut().charge_cpu(cpu_us),
            Meter::Clock => {}
            Meter::Busy(us) => *us += cpu_us + stall_us,
        }
    }

    /// The busy total (zero on the inline path, whose time is the clock's).
    fn busy_us(&self) -> u64 {
        match self {
            Meter::Clock => 0,
            Meter::Busy(us) => *us,
        }
    }
}

/// The redo kernel every sink and worker runs: fetch `pid`, test its pLSN,
/// apply `rec` when the page is older, and count which it was.
fn apply_one(
    dc: &dyn RedoBackend,
    pid: PageId,
    rec: &LogRecord,
    cpu_apply_us: u64,
    meter: &mut Meter,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let pool = dc.pool();
    let fetched = pool.fetch(pid)?;
    // Stall-aware read: a concurrent eviction between the fetch and this
    // latch means a refetch whose device stall counts too.
    let (plsn, latched) = pool.with_page_info(pid, |p| p.plsn())?;
    let stall_us = fetched.stall_us + latched.stall_us;
    if rec.lsn <= plsn {
        meter.charge(pool, 0, stall_us);
        bk.skipped_plsn += 1;
        return Ok(());
    }
    meter.charge(pool, cpu_apply_us, stall_us);
    dc.apply_at(pid, rec)?;
    bk.ops_reapplied += 1;
    Ok(())
}

/// Where [`Screen::run`] sends its work.
trait RedoSink {
    /// Where the loop's CPU and traversal stalls are charged.
    fn meter(&mut self) -> &mut Meter;
    /// Window record `idx` passed the screen: redo it at `pid`.
    fn redo(&mut self, idx: usize, pid: PageId, bk: &mut RecoveryBreakdown) -> Result<()>;
    /// A physiological SMO record, met in LSN order. By default already
    /// replayed ([`smo_barrier`]).
    fn smo(&mut self, _rec: &LogRecord, _dpt: &Dpt, _bk: &mut RecoveryBreakdown) -> Result<()> {
        Ok(())
    }
}

/// Running read-ahead state.
enum ReadAhead {
    None,
    List(ListPrefetcher),
    Log(LogDrivenPrefetcher),
}

/// One method's redo screen over one window, built once per recovery.
struct Screen<'a> {
    family: Family,
    dpt: Option<&'a Dpt>,
    tail_from: Lsn,
    read_ahead: ReadAhead,
}

impl<'a> Screen<'a> {
    fn new(plan: &'a RedoPlan) -> Screen<'a> {
        let dpt = plan.dpt.as_ref();
        let read_ahead = match (plan.prefetch, dpt) {
            (Prefetch::PfList, Some(dpt)) => ReadAhead::List(ListPrefetcher::new(
                &plan.pf_list,
                dpt,
                plan.tail_from,
                LIST_HORIZON_RECORDS,
            )),
            (Prefetch::DptOrder, Some(dpt)) => ReadAhead::List(ListPrefetcher::in_rlsn_order(
                dpt,
                plan.tail_from,
                LIST_HORIZON_RECORDS,
            )),
            (Prefetch::LogDriven, Some(_)) => {
                ReadAhead::Log(LogDrivenPrefetcher::new(LOG_DRIVEN_LOOKAHEAD_RECORDS))
            }
            _ => ReadAhead::None,
        };
        Screen { family: plan.family, dpt, tail_from: plan.tail_from, read_ahead }
    }

    /// The one redo loop: screen every record of `window`, handing SMOs
    /// (physiological family) and surviving data records to `sink`.
    /// Screen counters go straight into `bk`.
    fn run(
        mut self,
        dc: &dyn RedoBackend,
        window: &[LogRecord],
        sink: &mut impl RedoSink,
        bk: &mut RecoveryBreakdown,
    ) -> Result<()> {
        let pool = dc.pool();
        let model = pool.disk().io_model();
        let family = self.family;
        for (i, rec) in window.iter().enumerate() {
            sink.meter().charge(pool, model.cpu_log_record_us, 0);
            match (&mut self.read_ahead, self.dpt) {
                (ReadAhead::Log(pf), Some(dpt)) => pf.pump(pool, window, i, dpt, bk),
                (ReadAhead::List(pf), _) => {
                    let resolve = |r: &LogRecord| resolve(family, dc, r, &model, sink.meter());
                    pf.pump(pool, window, i, resolve, bk)?;
                }
                _ => {}
            }
            if let (LogPayload::Smo(_), Family::Physiological) = (&rec.payload, self.family) {
                sink.smo(rec, self.dpt.expect("physiological methods build a DPT"), bk)?;
            }
            if !rec.payload.is_data_op() {
                continue; // control records never redo
            }
            bk.redo_records_seen += 1;
            let pid = resolve(family, dc, rec, &model, sink.meter())?;
            if self.passes(pid, rec.lsn, bk) {
                sink.redo(i, pid, bk)?;
            }
        }
        Ok(())
    }

    /// The redo test short of the pLSN comparison (which needs the page):
    /// the DPT and rLSN checks (Alg. 1; Alg. 5 lines 5–8), or the tail
    /// rule.
    fn passes(&self, pid: PageId, lsn: Lsn, bk: &mut RecoveryBreakdown) -> bool {
        let Some(dpt) = self.dpt else { return true };
        if lsn >= self.tail_from {
            bk.tail_records += 1;
            return true;
        }
        match dpt.screen(pid, lsn) {
            DptScreen::SkipNoEntry => bk.skipped_no_dpt_entry += 1,
            DptScreen::SkipRlsn => bk.skipped_rlsn += 1,
            DptScreen::Fetch => return true,
        }
        false
    }
}

/// The page a data record applies to: the logged PID, or (logical
/// family, Alg. 5 line 4) whatever the backend resolves by key — a
/// traversal of internal pages for the B-tree (the leaf is not
/// fetched), the logged PID for a page-logical backend.
fn resolve(
    family: Family,
    dc: &dyn RedoBackend,
    rec: &LogRecord,
    model: &IoModel,
    meter: &mut Meter,
) -> Result<PageId> {
    let logged = rec.payload.data_pid().expect("data op carries a PID");
    if family == Family::Physiological {
        return Ok(logged);
    }
    let (table, key) = match &rec.payload {
        LogPayload::Update { table, key, .. }
        | LogPayload::Insert { table, key, .. }
        | LogPayload::Delete { table, key, .. }
        | LogPayload::Clr { table, key, .. } => (*table, *key),
        _ => unreachable!("is_data_op checked"),
    };
    let loc = dc.resolve_redo_pid(table, key, logged)?;
    meter.charge(dc.pool(), model.cpu_btree_level_us * loc.levels as u64, loc.stall_us);
    Ok(loc.pid)
}

/// The inline sink: survivors applied on the caller's thread, SMO records
/// replayed in LSN order (§2.1: ARIES redo performs SMO recovery within
/// the redo pass) — each page image DPT-screened, pLSN-guarded and
/// installed whole.
struct InlineSink<'w> {
    dc: &'w dyn RedoBackend,
    window: &'w [LogRecord],
    cpu_apply_us: u64,
    meter: Meter,
    /// LSN of the last SMO that moved a root: the catalog is saved once.
    root_moved: Option<Lsn>,
}

impl<'w> InlineSink<'w> {
    fn new(dc: &'w dyn RedoBackend, window: &'w [LogRecord]) -> InlineSink<'w> {
        let cpu_apply_us = dc.pool().disk().io_model().cpu_apply_us;
        InlineSink { dc, window, cpu_apply_us, meter: Meter::Clock, root_moved: None }
    }

    fn finish(self) -> Result<()> {
        self.root_moved.map_or(Ok(()), |lsn| self.dc.save_catalog(lsn))
    }
}

impl RedoSink for InlineSink<'_> {
    fn meter(&mut self) -> &mut Meter {
        &mut self.meter
    }

    fn redo(&mut self, idx: usize, pid: PageId, bk: &mut RecoveryBreakdown) -> Result<()> {
        apply_one(self.dc, pid, &self.window[idx], self.cpu_apply_us, &mut self.meter, bk)
    }

    fn smo(&mut self, rec: &LogRecord, dpt: &Dpt, bk: &mut RecoveryBreakdown) -> Result<()> {
        let LogPayload::Smo(smo) = &rec.payload else { return Ok(()) };
        let mut out = SmoBarrierOutcome::default();
        let moved = self.dc.replay_smo_screened(rec.lsn, smo, dpt, &mut out)?;
        self.root_moved = moved.or(self.root_moved);
        // An SMO page image is redone or skipped exactly like a data record.
        bk.ops_reapplied += out.pages_applied;
        bk.skipped_no_dpt_entry += out.skipped_no_dpt_entry;
        bk.skipped_rlsn += out.skipped_rlsn;
        bk.skipped_plsn += out.skipped_plsn;
        Ok(())
    }
}

/// Serial redo: `screen` over `window` into the inline sink.
fn redo_inline(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    screen: Screen<'_>,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let mut sink = InlineSink::new(dc, window);
    screen.run(dc, window, &mut sink, bk)?;
    sink.finish()
}

/// The partitioned pipeline's SMO barrier, journaled as an `SmoRedo` span:
/// the inline sink's SMO replay over the whole window, before any data
/// record is routed. Workers cannot replay SMOs inline — an image install
/// on a page a worker already redid past would roll its pLSN (and
/// contents) backward — and hoisting them is state-equivalent: a data
/// record ordered before an SMO image of the same page is subsumed by the
/// image (it executed before the image was captured), and one ordered
/// after it survives the pLSN test. Returns the span's SimClock µs.
fn smo_barrier(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    dpt: &Dpt,
    bk: &mut RecoveryBreakdown,
) -> Result<u64> {
    let replay = || {
        let mut sink = InlineSink::new(dc, window);
        for rec in window {
            sink.smo(rec, dpt, bk)?;
        }
        sink.finish()
    };
    Ok(span(dc.pool(), RecoveryPhase::SmoRedo, replay)?.1)
}
