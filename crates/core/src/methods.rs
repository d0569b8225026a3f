//! Redo — one screen loop feeding one of two sinks — and the prefetchers.
//!
//! [`Screen::run`] is every method's redo pass. Per record it charges the
//! per-record CPU, pumps the method's read-ahead, resolves the record's
//! page, runs the redo test short of the pLSN comparison ([`Dpt::screen`]
//! or the tail-of-log rule) and hands survivors to a [`RedoSink`]. Without
//! a DPT that is Algorithm 2 (Log0), with a Δ-built one Algorithm 5
//! (Log1/Log2, the Appendix-D ablations), resolving by logged PID and
//! replaying SMOs in LSN order Algorithm 1 (SQL1/SQL2/ARIES-ckpt). The
//! sink is [`redo_inline`]'s on one worker — the §5 measured path, one
//! SimClock charged in program order — or [`crate::precovery`]'s
//! partitioned one; both end in [`apply_one`].
#![deny(clippy::too_many_lines)]

use lr_common::{IoModel, Lsn, PageId, RecoveryBreakdown, Result};
use lr_dc::{DcApi, Dpt, DptScreen, SmoBarrierOutcome};
use lr_wal::{LogPayload, LogRecord};

/// Records to look ahead in log-driven prefetch (SQL2).
const LOG_DRIVEN_LOOKAHEAD_RECORDS: usize = 128;
/// Pages to keep in flight in list-driven prefetch (Log2, Log2-dptpf).
const LIST_AHEAD_PAGES: u64 = 64;

/// How redo finds the page a data record applies to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Family {
    /// Algorithms 2 and 5: by key through the index (the logged PID is
    /// advisory); DC recovery replayed the SMOs beforehand.
    Logical,
    /// Algorithm 1: the logged PID; redo itself replays SMO records.
    Physiological,
}

/// The data-page read-ahead a method runs during redo (Appendix A.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Prefetch {
    None,
    /// The PF-list analysis assembles from Δ DirtySets (the paper's scheme).
    PfList,
    /// DPT pages in rLSN order (the described alternative).
    DptOrder,
    /// DPT-screened look-ahead over the log itself (SQL Server's scheme).
    LogDriven,
}

/// Where redo's simulated cost lands.
pub(crate) enum Meter {
    /// The shared SimClock, in program order (the inline path). Device
    /// stalls are already on it; only CPU is charged here.
    Clock,
    /// A private busy total (the dispatcher, or one worker): CPU plus the
    /// device stalls this thread met.
    Busy(u64),
}

impl Meter {
    pub(crate) fn charge(&mut self, dc: &dyn DcApi, cpu_us: u64, stall_us: u64) {
        match self {
            Meter::Clock if cpu_us > 0 => dc.pool().disk_mut().charge_cpu(cpu_us),
            Meter::Clock => {}
            Meter::Busy(us) => *us += cpu_us + stall_us,
        }
    }

    /// The busy total (zero on the inline path, whose time is the clock's).
    pub(crate) fn busy_us(&self) -> u64 {
        match self {
            Meter::Clock => 0,
            Meter::Busy(us) => *us,
        }
    }
}

/// The redo kernel every sink and worker runs: fetch `pid`, test its pLSN,
/// apply `rec` when the page is older, and count which it was.
pub(crate) fn apply_one(
    dc: &dyn DcApi,
    pid: PageId,
    rec: &LogRecord,
    cpu_apply_us: u64,
    meter: &mut Meter,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let fetched = dc.pool().fetch(pid)?;
    // Stall-aware read: a concurrent eviction between the fetch and this
    // latch means a refetch whose device stall counts too.
    let (plsn, latched) = dc.pool().with_page_info(pid, |p| p.plsn())?;
    let stall_us = fetched.stall_us + latched.stall_us;
    if rec.lsn <= plsn {
        meter.charge(dc, 0, stall_us);
        bk.skipped_plsn += 1;
        return Ok(());
    }
    meter.charge(dc, cpu_apply_us, stall_us);
    dc.apply_at(pid, rec)?;
    bk.ops_reapplied += 1;
    Ok(())
}

/// Where [`Screen::run`] sends its work.
pub(crate) trait RedoSink {
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
    List(PfListPrefetcher),
    Log(LogDrivenPrefetcher),
}

/// One method's redo screen over one window, built once per recovery.
pub(crate) struct Screen<'a> {
    family: Family,
    /// `None` for Log0: every data record reaches its page's pLSN test.
    dpt: Option<&'a Dpt>,
    /// Records at or past this LSN are the tail of the log (§4.3): the
    /// DPT does not cover them, so redo decides by pLSN alone. `Lsn::MAX`
    /// when the DPT covers the whole window.
    tail_from: Lsn,
    read_ahead: ReadAhead,
}

impl<'a> Screen<'a> {
    pub(crate) fn new(
        family: Family,
        prefetch: Prefetch,
        dpt: Option<&'a Dpt>,
        tail_from: Lsn,
        pf_list: Vec<PageId>,
    ) -> Screen<'a> {
        let read_ahead = match (prefetch, dpt) {
            (Prefetch::PfList, Some(_)) => {
                ReadAhead::List(PfListPrefetcher::new(pf_list, LIST_AHEAD_PAGES))
            }
            (Prefetch::DptOrder, Some(dpt)) => {
                ReadAhead::List(PfListPrefetcher::in_rlsn_order(dpt, LIST_AHEAD_PAGES))
            }
            (Prefetch::LogDriven, Some(_)) => {
                ReadAhead::Log(LogDrivenPrefetcher::new(LOG_DRIVEN_LOOKAHEAD_RECORDS))
            }
            _ => ReadAhead::None,
        };
        Screen { family, dpt, tail_from, read_ahead }
    }

    /// The one redo loop: screen every record of `window`, handing SMOs
    /// (physiological family) and surviving data records to `sink`.
    /// Screen counters go straight into `bk`.
    pub(crate) fn run(
        mut self,
        dc: &dyn DcApi,
        window: &[LogRecord],
        sink: &mut impl RedoSink,
        bk: &mut RecoveryBreakdown,
    ) -> Result<()> {
        let model = dc.pool().disk().io_model();
        for (i, rec) in window.iter().enumerate() {
            sink.meter().charge(dc, model.cpu_log_record_us, 0);
            if let (ReadAhead::Log(pf), Some(dpt)) = (&mut self.read_ahead, self.dpt) {
                pf.pump(dc, window, i, dpt, bk);
            }
            if let (LogPayload::Smo(_), Family::Physiological) = (&rec.payload, self.family) {
                sink.smo(rec, self.dpt.expect("physiological methods build a DPT"), bk)?;
            }
            if !rec.payload.is_data_op() {
                continue; // control records never redo
            }
            bk.redo_records_seen += 1;
            if let (ReadAhead::List(pf), Some(dpt)) = (&mut self.read_ahead, self.dpt) {
                let consumed = dc.pool().stats().data_page_misses;
                pf.pump(dc, dpt, consumed, bk);
            }
            let pid = self.resolve(dc, rec, &model, sink.meter())?;
            if self.passes(pid, rec.lsn, bk) {
                sink.redo(i, pid, bk)?;
            }
        }
        Ok(())
    }

    /// The page a data record applies to: the logged PID, or (logical
    /// family, Alg. 5 line 4) whatever the backend resolves by key — a
    /// traversal of internal pages for the B-tree (the leaf is not
    /// fetched), the logged PID for a page-logical backend.
    fn resolve(
        &self,
        dc: &dyn DcApi,
        rec: &LogRecord,
        model: &IoModel,
        meter: &mut Meter,
    ) -> Result<PageId> {
        let logged = rec.payload.data_pid().expect("data op carries a PID");
        if self.family == Family::Physiological {
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
        meter.charge(dc, model.cpu_btree_level_us * loc.levels as u64, loc.stall_us);
        Ok(loc.pid)
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

/// The inline sink: survivors applied on the caller's thread, SMO records
/// replayed in LSN order (§2.1: ARIES redo performs SMO recovery within
/// the redo pass) — each page image DPT-screened, pLSN-guarded and
/// installed whole.
struct InlineSink<'w> {
    dc: &'w dyn DcApi,
    window: &'w [LogRecord],
    cpu_apply_us: u64,
    meter: Meter,
    /// LSN of the last SMO that moved a root: the catalog is saved once.
    root_moved: Option<Lsn>,
}

impl<'w> InlineSink<'w> {
    fn new(dc: &'w dyn DcApi, window: &'w [LogRecord]) -> InlineSink<'w> {
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
pub(crate) fn redo_inline(
    dc: &dyn DcApi,
    window: &[LogRecord],
    screen: Screen<'_>,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let mut sink = InlineSink::new(dc, window);
    screen.run(dc, window, &mut sink, bk)?;
    sink.finish()
}

/// The partitioned pipeline's SMO barrier: the inline sink's SMO replay
/// over the whole window, before any data record is routed. Workers cannot
/// replay SMOs inline — an image install on a page a worker already redid
/// past would roll its pLSN (and contents) backward — and hoisting them is
/// state-equivalent: a data record ordered before an SMO image of the same
/// page is subsumed by the image (it executed before the image was
/// captured), and one ordered after it survives the pLSN test.
pub(crate) fn smo_barrier(
    dc: &dyn DcApi,
    window: &[LogRecord],
    dpt: &Dpt,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    let mut sink = InlineSink::new(dc, window);
    for rec in window {
        sink.smo(rec, dpt, bk)?;
    }
    sink.finish()
}

/// Log-driven read-ahead state (SQL2).
pub struct LogDrivenPrefetcher {
    /// Next window index the look-ahead has examined.
    next_idx: usize,
    /// How many records to stay ahead of the redo cursor.
    lookahead: usize,
}

impl LogDrivenPrefetcher {
    pub fn new(lookahead: usize) -> LogDrivenPrefetcher {
        LogDrivenPrefetcher { next_idx: 0, lookahead }
    }

    /// Examine records up to `cur + lookahead`, issuing async reads for
    /// pages that will pass the DPT/rLSN screen (App. A.2's rule: "if a PID
    /// is in the DPT, and the rLSN of the DPT entry is less than the LSN of
    /// the log record ... a prefetch for the corresponding page is issued").
    pub(crate) fn pump(
        &mut self,
        dc: &dyn DcApi,
        window: &[LogRecord],
        cur: usize,
        dpt: &Dpt,
        bk: &mut RecoveryBreakdown,
    ) {
        let target = (cur + self.lookahead).min(window.len());
        if self.next_idx >= target {
            return;
        }
        let mut batch: Vec<PageId> = Vec::new();
        while self.next_idx < target {
            let rec = &window[self.next_idx];
            self.next_idx += 1;
            let mut consider = |pid: PageId, lsn: Lsn| {
                if dpt.screen(pid, lsn) == DptScreen::Fetch {
                    batch.push(pid);
                }
            };
            match &rec.payload {
                p if p.is_data_op() => consider(p.data_pid().expect("data op"), rec.lsn),
                LogPayload::Smo(smo) => {
                    for (pid, _) in &smo.pages {
                        consider(*pid, rec.lsn);
                    }
                }
                _ => {}
            }
        }
        let (ios, pages) = dc.pool().prefetch(&batch);
        bk.prefetch_ios += ios as u64;
        bk.prefetch_pages += pages as u64;
    }
}

/// List-driven read-ahead state. Log2's list is the PF-list (Appendix
/// A.2: "roughly the concatenation of the DirtySets of Δ-log records");
/// Log2-dptpf's the DPT in rLSN order, the alternative the paper
/// describes along with its hazard — "if prefetching proceeds too quickly,
/// pages may get flushed before the redo scan requests them; if it
/// proceeds too slowly, redo may need to wait".
pub struct PfListPrefetcher {
    list: Vec<PageId>,
    next: usize,
    issued: u64,
    /// Target number of pages to keep issued beyond consumption.
    ahead: u64,
}

impl PfListPrefetcher {
    pub fn new(list: Vec<PageId>, ahead: u64) -> PfListPrefetcher {
        PfListPrefetcher { list, next: 0, issued: 0, ahead }
    }

    /// The DPT's pages, lowest rLSN first.
    pub fn in_rlsn_order(dpt: &Dpt, ahead: u64) -> PfListPrefetcher {
        let list = dpt.entries_by_rlsn().into_iter().map(|(pid, _)| pid).collect();
        PfListPrefetcher::new(list, ahead)
    }

    /// Keep `ahead` pages in flight beyond what redo has consumed
    /// (`consumed` = data pages fetched so far).
    ///
    /// `issued` counts pages the pool actually accepted — the PF-list can
    /// contain duplicates (a page pruned and re-dirtied appears once per
    /// incarnation), and counting filtered duplicates against the budget
    /// would silently starve the read-ahead.
    pub(crate) fn pump(
        &mut self,
        dc: &dyn DcApi,
        dpt: &Dpt,
        consumed: u64,
        bk: &mut RecoveryBreakdown,
    ) {
        while self.next < self.list.len() && self.issued < consumed + self.ahead {
            let want = (consumed + self.ahead - self.issued) as usize;
            let mut batch: Vec<PageId> = Vec::with_capacity(want);
            while self.next < self.list.len() && batch.len() < want {
                let pid = self.list[self.next];
                self.next += 1;
                // Entries pruned from the DPT since PF-list construction
                // are clean — skip them rather than waste an I/O.
                if dpt.contains(pid) {
                    batch.push(pid);
                }
            }
            if batch.is_empty() {
                break;
            }
            let (ios, pages) = dc.pool().prefetch(&batch);
            bk.prefetch_ios += ios as u64;
            bk.prefetch_pages += pages as u64;
            self.issued += pages as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock, TableId, TxnId};
    use lr_dc::{DataComponent, DcConfig};
    use lr_storage::{Disk, SimDisk};
    use lr_wal::Wal;

    fn dc_with_rows(rows: u64, pool_pages: usize, timed: bool) -> DataComponent {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::default());
        DataComponent::format_disk(&mut disk).unwrap();
        let root = lr_btree::bulk_load(
            &mut disk,
            TableId(1),
            (0..rows).map(|k| (k, vec![k as u8; 32])),
            0.9,
        )
        .unwrap();
        disk.set_timed(timed);
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(
            Box::new(disk),
            wal,
            DcConfig { pool_pages, ..DcConfig::default() },
        )
        .unwrap();
        dc.register_table(TableId(1), root).unwrap();
        dc
    }

    fn update_rec(lsn: u64, key: u64, pid: lr_common::PageId) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            payload: LogPayload::Update {
                txn: TxnId(1),
                table: TableId(1),
                key,
                pid,
                prev_lsn: Lsn::NULL,
                before: vec![key as u8; 32],
                after: vec![(key + 1) as u8; 32],
            },
        }
    }

    #[test]
    fn preload_index_touches_every_internal_page() {
        let dc = dc_with_rows(3_000, 1024, false);
        let loaded = lr_dc::DcApi::preload_index(&dc).unwrap();
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let internals = tree.internal_pids(dc.pool()).unwrap();
        assert_eq!(loaded.pages_loaded, internals.len() as u64);
        for pid in internals {
            assert!(dc.pool().contains(pid), "internal page {pid} not cached");
        }
    }

    #[test]
    fn log_driven_prefetcher_respects_dpt_screen() {
        let dc = dc_with_rows(2_000, 1024, true);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid_a, _) = tree.find_leaf_pid(dc.pool(), 10).unwrap();
        let (pid_b, _) = tree.find_leaf_pid(dc.pool(), 1_500).unwrap();
        assert_ne!(pid_a, pid_b);
        let mut dpt = Dpt::new();
        dpt.add(pid_a, Lsn(100)); // only A is in the DPT
        let window = vec![update_rec(150, 10, pid_a), update_rec(160, 1_500, pid_b)];
        let mut pf = LogDrivenPrefetcher::new(16);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(&dc, &window, 0, &dpt, &mut bk);
        assert!(dc.pool().disk().is_inflight(pid_a), "DPT page prefetched");
        assert!(!dc.pool().disk().is_inflight(pid_b), "non-DPT page screened out");
        assert_eq!(bk.prefetch_pages, 1);
    }

    #[test]
    fn log_driven_prefetcher_skips_records_below_rlsn() {
        let dc = dc_with_rows(2_000, 1024, true);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid, _) = tree.find_leaf_pid(dc.pool(), 10).unwrap();
        let mut dpt = Dpt::new();
        dpt.add(pid, Lsn(500)); // rLSN 500
        let window = vec![update_rec(100, 10, pid)]; // record below rLSN
        let mut pf = LogDrivenPrefetcher::new(16);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(&dc, &window, 0, &dpt, &mut bk);
        assert_eq!(bk.prefetch_pages, 0, "record below rLSN needs no prefetch");
    }

    #[test]
    fn pf_list_prefetcher_respects_budget_and_dpt() {
        let dc = dc_with_rows(4_000, 4096, true);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        // Collect distinct leaf pids.
        let mut pids = Vec::new();
        for k in (0..4_000).step_by(40) {
            let (pid, _) = tree.find_leaf_pid(dc.pool(), k).unwrap();
            if pids.last() != Some(&pid) {
                pids.push(pid);
            }
        }
        assert!(pids.len() > 10);
        let mut dpt = Dpt::new();
        for p in &pids {
            dpt.add(*p, Lsn(10));
        }
        let mut pf = PfListPrefetcher::new(pids.clone(), 4);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(&dc, &dpt, 0, &mut bk);
        assert_eq!(bk.prefetch_pages, 4, "ahead budget caps the burst");
        // With consumption acknowledged, the window slides.
        pf.pump(&dc, &dpt, 3, &mut bk);
        assert_eq!(bk.prefetch_pages, 7);
        // Pruned (non-DPT) entries are skipped entirely.
        let empty_dpt = Dpt::new();
        let mut pf2 = PfListPrefetcher::new(pids, 4);
        let mut bk2 = RecoveryBreakdown::default();
        pf2.pump(&dc, &empty_dpt, 0, &mut bk2);
        assert_eq!(bk2.prefetch_pages, 0, "everything pruned -> nothing issued");
    }

    #[test]
    fn dpt_driven_prefetcher_issues_in_rlsn_order() {
        let dc = dc_with_rows(4_000, 4096, true);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid_late, _) = tree.find_leaf_pid(dc.pool(), 100).unwrap();
        let (pid_early, _) = tree.find_leaf_pid(dc.pool(), 3_000).unwrap();
        let mut dpt = Dpt::new();
        dpt.add(pid_late, Lsn(900));
        dpt.add(pid_early, Lsn(100));
        let mut pf = PfListPrefetcher::in_rlsn_order(&dpt, 1);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(&dc, &dpt, 0, &mut bk);
        assert!(dc.pool().disk().is_inflight(pid_early), "lowest rLSN first");
        assert!(!dc.pool().disk().is_inflight(pid_late), "budget of 1 holds the rest");
    }
}
