//! The data-page read-ahead redo runs (Appendix A.2): log-driven (SQL2)
//! and list-driven (Log2's PF-list, Log2-dptpf's DPT in rLSN order).
//!
//! A list is not the log, so list-driven read-ahead needs a pace; App. A.2
//! names the hazard: "if prefetching proceeds too quickly, pages may get
//! flushed before the redo scan requests them; if it proceeds too slowly,
//! redo may need to wait". Here the log sets the pace too. Every list entry
//! carries its page's DPT rLSN, and redo cannot need the page before its
//! cursor reaches that LSN (the rLSN screen skips every earlier record). So
//! an entry is issued once its rLSN is at or below the LSN of the record a
//! fixed horizon ahead of the cursor. Not sooner: a page read long before
//! redo needs it takes device time that nearer pages wait for, and a real
//! cache may evict it again before use. Not later: the read overlaps redo's
//! work on the records in between. The PF-list holds each DPT page once, at
//! the Δ that last set its rLSN, so the list runs in near rLSN order and no
//! stale early copy blocks it. The tail of the log (§4.3), which no
//! DirtySet covers, is read ahead inside the same horizon: each tail data
//! record's page is resolved as redo will resolve it and issued.

use crate::dpt::{Dpt, DptScreen};
use lr_buffer::BufferPool;
use lr_common::{Lsn, PageId, RecoveryBreakdown, Result};
use lr_wal::{LogPayload, LogRecord};

/// Log-driven read-ahead state (SQL2).
pub(super) struct LogDrivenPrefetcher {
    /// Next window index the look-ahead has examined.
    next_idx: usize,
    /// How many records to stay ahead of the redo cursor.
    lookahead: usize,
}

impl LogDrivenPrefetcher {
    pub(super) fn new(lookahead: usize) -> LogDrivenPrefetcher {
        LogDrivenPrefetcher { next_idx: 0, lookahead }
    }

    /// Examine records up to `cur + lookahead`, issuing async reads for
    /// pages that will pass the DPT/rLSN screen (App. A.2's rule: "if a PID
    /// is in the DPT, and the rLSN of the DPT entry is less than the LSN of
    /// the log record ... a prefetch for the corresponding page is issued").
    pub(super) fn pump(
        &mut self,
        pool: &BufferPool,
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
        let (ios, pages) = pool.prefetch(&batch);
        bk.prefetch_ios += ios as u64;
        bk.prefetch_pages += pages as u64;
    }
}

/// List-driven read-ahead state: Log2's PF-list or Log2-dptpf's rLSN-ordered
/// DPT, each entry stamped with its DPT rLSN, plus the tail of the log.
pub(super) struct ListPrefetcher {
    /// DPT pages and their rLSNs, in issue order.
    list: Vec<(PageId, Lsn)>,
    next: usize,
    /// Window records past the redo cursor the read-ahead may run.
    horizon: usize,
    /// Where the tail of the log starts (§4.3): the DPT says nothing there.
    tail_from: Lsn,
    /// Next window index the tail read-ahead examines.
    tail_next: usize,
}

impl ListPrefetcher {
    /// Read `list` ahead in order; entries with no DPT entry (pruned since
    /// the list was made) are dropped, never issued.
    pub(super) fn new(list: &[PageId], dpt: &Dpt, tail_from: Lsn, horizon: usize) -> Self {
        let list = list.iter().filter_map(|pid| Some((*pid, dpt.find(*pid)?.rlsn))).collect();
        ListPrefetcher { list, next: 0, horizon, tail_from, tail_next: 0 }
    }

    /// The DPT's pages, lowest rLSN first.
    pub(super) fn in_rlsn_order(dpt: &Dpt, tail_from: Lsn, horizon: usize) -> Self {
        let list = dpt.entries_by_rlsn().into_iter().map(|(pid, e)| (pid, e.rlsn)).collect();
        ListPrefetcher { list, next: 0, horizon, tail_from, tail_next: 0 }
    }

    /// Advance the read-ahead to redo cursor `cur`: issue list entries, in
    /// order, while the entry's rLSN is at or below the LSN of the window
    /// record `horizon` records ahead — redo cannot need a page before it
    /// reaches the page's rLSN — and every tail data record up to that
    /// record, its page found by `resolve`.
    pub(super) fn pump(
        &mut self,
        pool: &BufferPool,
        window: &[LogRecord],
        cur: usize,
        mut resolve: impl FnMut(&LogRecord) -> Result<PageId>,
        bk: &mut RecoveryBreakdown,
    ) -> Result<()> {
        let Some(last) = window.len().checked_sub(1) else { return Ok(()) };
        let ahead = (cur + self.horizon).min(last);
        let horizon_lsn = window[ahead].lsn;
        let mut batch: Vec<PageId> = Vec::new();
        while let Some(&(pid, rlsn)) = self.list.get(self.next) {
            if rlsn > horizon_lsn {
                break;
            }
            batch.push(pid);
            self.next += 1;
        }
        while self.tail_next <= ahead {
            let rec = &window[self.tail_next];
            self.tail_next += 1;
            if rec.lsn >= self.tail_from && rec.payload.is_data_op() {
                batch.push(resolve(rec)?);
            }
        }
        if !batch.is_empty() {
            let (ios, pages) = pool.prefetch(&batch);
            bk.prefetch_ios += ios as u64;
            bk.prefetch_pages += pages as u64;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::{redo, Family, Prefetch, RedoBackend, RedoPlan};
    use super::*;
    use crate::{build_dpt_logical, DataComponent, DcConfig, DeltaDptMode};
    use lr_common::{IoModel, SimClock, TableId, TxnId};
    use lr_storage::{Disk, SimDisk};
    use lr_wal::Wal;

    fn dc_with_rows(rows: u64, pool_pages: usize) -> DataComponent {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::default());
        DataComponent::format_disk(&mut disk).unwrap();
        let root = lr_btree::bulk_load(
            &mut disk,
            TableId(1),
            (0..rows).map(|k| (k, vec![k as u8; 32])),
            0.9,
        )
        .unwrap();
        disk.set_timed(true);
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

    fn update_rec(lsn: u64, key: u64, pid: PageId) -> LogRecord {
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
    fn log_driven_prefetcher_respects_dpt_screen() {
        let dc = dc_with_rows(2_000, 1024);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid_a, _) = tree.find_leaf_pid(dc.pool(), 10).unwrap();
        let (pid_b, _) = tree.find_leaf_pid(dc.pool(), 1_500).unwrap();
        assert_ne!(pid_a, pid_b);
        let mut dpt = Dpt::new();
        dpt.add(pid_a, Lsn(100)); // only A is in the DPT
        let window = vec![update_rec(150, 10, pid_a), update_rec(160, 1_500, pid_b)];
        let mut pf = LogDrivenPrefetcher::new(16);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(dc.pool(), &window, 0, &dpt, &mut bk);
        assert!(dc.pool().disk().is_inflight(pid_a), "DPT page prefetched");
        assert!(!dc.pool().disk().is_inflight(pid_b), "non-DPT page screened out");
        assert_eq!(bk.prefetch_pages, 1);
    }

    #[test]
    fn log_driven_prefetcher_skips_records_below_rlsn() {
        let dc = dc_with_rows(2_000, 1024);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid, _) = tree.find_leaf_pid(dc.pool(), 10).unwrap();
        let mut dpt = Dpt::new();
        dpt.add(pid, Lsn(500)); // rLSN 500
        let window = vec![update_rec(100, 10, pid)]; // record below rLSN
        let mut pf = LogDrivenPrefetcher::new(16);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(dc.pool(), &window, 0, &dpt, &mut bk);
        assert_eq!(bk.prefetch_pages, 0, "record below rLSN needs no prefetch");
    }

    /// `n` leaves of `dc`'s table, each with a key it holds.
    fn leaves(dc: &DataComponent, n: usize) -> Vec<(u64, PageId)> {
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let mut out: Vec<(u64, PageId)> = Vec::new();
        for k in (0..4_000).step_by(40) {
            let (pid, _) = tree.find_leaf_pid(dc.pool(), k).unwrap();
            if out.last().map(|(_, p)| *p) != Some(pid) {
                out.push((k, pid));
            }
        }
        assert!(out.len() >= n, "only {} leaves", out.len());
        out.truncate(n);
        out
    }

    fn by_logged_pid(rec: &LogRecord) -> Result<PageId> {
        Ok(rec.payload.data_pid().expect("data op"))
    }

    #[test]
    fn pf_list_prefetcher_paces_entries_by_the_horizon() {
        let dc = dc_with_rows(4_000, 4096);
        let pids: Vec<PageId> = leaves(&dc, 2).into_iter().map(|(_, p)| p).collect();
        let (near, far) = (pids[0], pids[1]);
        let mut dpt = Dpt::new();
        dpt.add(near, Lsn(100));
        dpt.add(far, Lsn(500));
        // LSNs 100, 200, ..., 1000; the read-ahead runs two records ahead.
        let window: Vec<LogRecord> = (1..=10).map(|i| update_rec(i * 100, i, near)).collect();
        let mut pf = ListPrefetcher::new(&pids, &dpt, Lsn::MAX, 2);
        let mut bk = RecoveryBreakdown::default();
        let inflight = |pid| dc.pool().disk().is_inflight(pid);
        for cur in 0..2 {
            pf.pump(dc.pool(), &window, cur, by_logged_pid, &mut bk).unwrap();
            assert!(inflight(near), "rLSN 100 is inside the horizon at cursor {cur}");
            assert!(!inflight(far), "rLSN 500 is past the horizon at cursor {cur}");
        }
        pf.pump(dc.pool(), &window, 2, by_logged_pid, &mut bk).unwrap();
        assert!(inflight(far), "the horizon (record 4, LSN 500) reached the rLSN");
        assert_eq!(bk.prefetch_pages, 2);
    }

    #[test]
    fn pf_list_prefetcher_skips_non_dpt_entries() {
        let dc = dc_with_rows(4_000, 4096);
        let pids: Vec<PageId> = leaves(&dc, 3).into_iter().map(|(_, p)| p).collect();
        let mut dpt = Dpt::new();
        dpt.add(pids[0], Lsn(10));
        dpt.add(pids[2], Lsn(10)); // pids[1] was pruned after listing
        let window = vec![update_rec(100, 0, pids[0])];
        let mut pf = ListPrefetcher::new(&pids, &dpt, Lsn::MAX, 512);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(dc.pool(), &window, 0, by_logged_pid, &mut bk).unwrap();
        assert!(!dc.pool().disk().is_inflight(pids[1]), "a clean page is never read ahead");
        assert!(dc.pool().disk().is_inflight(pids[2]), "nor does it block the list");
        assert_eq!(bk.prefetch_pages, 2);
    }

    #[test]
    fn dpt_driven_prefetcher_issues_in_rlsn_order() {
        let dc = dc_with_rows(4_000, 4096);
        let tree = dc.tree(TableId(1)).unwrap().clone();
        let (pid_late, _) = tree.find_leaf_pid(dc.pool(), 100).unwrap();
        let (pid_early, _) = tree.find_leaf_pid(dc.pool(), 3_000).unwrap();
        let mut dpt = Dpt::new();
        dpt.add(pid_late, Lsn(900));
        dpt.add(pid_early, Lsn(100));
        let window = vec![update_rec(100, 3_000, pid_early), update_rec(900, 100, pid_late)];
        let mut pf = ListPrefetcher::in_rlsn_order(&dpt, Lsn::MAX, 0);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(dc.pool(), &window, 0, by_logged_pid, &mut bk).unwrap();
        assert!(dc.pool().disk().is_inflight(pid_early), "lowest rLSN first");
        assert!(!dc.pool().disk().is_inflight(pid_late), "the cursor has not reached rLSN 900");
        pf.pump(dc.pool(), &window, 1, by_logged_pid, &mut bk).unwrap();
        assert!(dc.pool().disk().is_inflight(pid_late));
    }

    /// A crash whose window ends in a tail: six leaves updated and listed
    /// in one Δ record, then six more updated past its TC-LSN. Log2's redo
    /// reads every page it fetches ahead — the tail ones included — so it
    /// makes no synchronous read.
    #[test]
    fn pf_list_read_ahead_covers_the_tail() {
        let dc = dc_with_rows(4_000, 4096);
        let leaves = leaves(&dc, 12);
        let (covered, tail) = leaves.split_at(6);
        let mut window: Vec<LogRecord> = Vec::new();
        for (i, (key, pid)) in covered.iter().enumerate() {
            window.push(update_rec(100 + i as u64, *key, *pid));
        }
        window.push(LogRecord {
            lsn: Lsn(200),
            payload: LogPayload::Delta(lr_wal::DeltaRecord {
                dirty_set: covered.iter().map(|(_, pid)| *pid).collect(),
                dirty_lsns: vec![],
                written_set: vec![],
                fw_lsn: Lsn::NULL,
                first_dirty: covered.len() as u32,
                tc_lsn: Lsn(150),
            }),
        });
        for (i, (key, pid)) in tail.iter().enumerate() {
            window.push(update_rec(300 + i as u64, *key, *pid));
        }
        let analysis = build_dpt_logical(&window, Lsn::NULL, DeltaDptMode::Standard);
        let plan = RedoPlan {
            family: Family::Logical,
            prefetch: Prefetch::PfList,
            preload: true,
            dpt: Some(analysis.dpt),
            tail_from: analysis.last_delta_tc_lsn,
            pf_list: analysis.pf_list,
            log_pages: 0,
            workers: 1,
        };
        dc.preload_index().unwrap();
        let before = dc.pool().disk().stats().sync_page_reads;
        let mut bk = RecoveryBreakdown::default();
        redo(&dc, &window, &plan, &mut bk).unwrap();
        assert_eq!((bk.tail_records, bk.ops_reapplied), (6, 12));
        assert_eq!(bk.data_pages_fetched, 12);
        let sync_reads = dc.pool().disk().stats().sync_page_reads - before;
        assert_eq!(sync_reads, 0, "redo read {sync_reads} pages synchronously");
    }
}
