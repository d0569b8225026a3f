//! The data-page read-ahead redo runs (Appendix A.2): log-driven (SQL2)
//! and list-driven (Log2's PF-list, Log2-dptpf's DPT in rLSN order).

use crate::dpt::{Dpt, DptScreen};
use lr_buffer::BufferPool;
use lr_common::{Lsn, PageId, RecoveryBreakdown};
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

/// List-driven read-ahead state. Log2's list is the PF-list (Appendix
/// A.2: "roughly the concatenation of the DirtySets of Δ-log records");
/// Log2-dptpf's the DPT in rLSN order, the alternative the paper
/// describes along with its hazard — "if prefetching proceeds too quickly,
/// pages may get flushed before the redo scan requests them; if it
/// proceeds too slowly, redo may need to wait".
pub(super) struct PfListPrefetcher {
    list: Vec<PageId>,
    next: usize,
    issued: u64,
    /// Target number of pages to keep issued beyond consumption.
    ahead: u64,
}

impl PfListPrefetcher {
    pub(super) fn new(list: Vec<PageId>, ahead: u64) -> PfListPrefetcher {
        PfListPrefetcher { list, next: 0, issued: 0, ahead }
    }

    /// The DPT's pages, lowest rLSN first.
    pub(super) fn in_rlsn_order(dpt: &Dpt, ahead: u64) -> PfListPrefetcher {
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
    pub(super) fn pump(
        &mut self,
        pool: &BufferPool,
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
            let (ios, pages) = pool.prefetch(&batch);
            bk.prefetch_ios += ios as u64;
            bk.prefetch_pages += pages as u64;
            self.issued += pages as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataComponent, DcConfig};
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

    #[test]
    fn pf_list_prefetcher_respects_budget_and_dpt() {
        let dc = dc_with_rows(4_000, 4096);
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
        pf.pump(dc.pool(), &dpt, 0, &mut bk);
        assert_eq!(bk.prefetch_pages, 4, "ahead budget caps the burst");
        // With consumption acknowledged, the window slides.
        pf.pump(dc.pool(), &dpt, 3, &mut bk);
        assert_eq!(bk.prefetch_pages, 7);
        // Pruned (non-DPT) entries are skipped entirely.
        let empty_dpt = Dpt::new();
        let mut pf2 = PfListPrefetcher::new(pids, 4);
        let mut bk2 = RecoveryBreakdown::default();
        pf2.pump(dc.pool(), &empty_dpt, 0, &mut bk2);
        assert_eq!(bk2.prefetch_pages, 0, "everything pruned -> nothing issued");
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
        let mut pf = PfListPrefetcher::in_rlsn_order(&dpt, 1);
        let mut bk = RecoveryBreakdown::default();
        pf.pump(dc.pool(), &dpt, 0, &mut bk);
        assert!(dc.pool().disk().is_inflight(pid_early), "lowest rLSN first");
        assert!(!dc.pool().disk().is_inflight(pid_late), "budget of 1 holds the rest");
    }
}
