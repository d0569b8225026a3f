//! DPT construction algorithms — one per recovery strategy.
//!
//! All builders consume the same decoded scan window (the common log from
//! the redo scan start point), which is what makes the paper's side-by-side
//! comparison honest: the physiological builder reads the PIDs piggybacked
//! on update records, the logical builders read only Δ-log records.

use crate::dpt::Dpt;
use lr_common::{Lsn, PageId};
use lr_wal::{LogPayload, LogRecord};
use std::collections::HashMap;

/// Which Δ-record interpretation to use (§4.2 and Appendix D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaDptMode {
    /// The paper's chosen point (§4.2, Algorithm 4): rLSN from the previous
    /// Δ's TC-LSN or this Δ's FW-LSN, selected by FirstDirty.
    Standard,
    /// Appendix D.1: exact per-dirtying LSNs (`DirtyLSNs`) — a DPT as
    /// accurate as SQL Server's, at higher logging cost.
    Perfect,
    /// Appendix D.2: ignore FW-LSN/FirstDirty; every entry gets the previous
    /// Δ's TC-LSN; pruning only removes entries from *prior* intervals.
    Reduced,
}

/// Record-mix counts observed during an analysis pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisCounts {
    pub delta_records: u64,
    pub bw_records: u64,
    pub update_records: u64,
    pub smo_records: u64,
}

/// Output of a logical (Δ-driven) analysis pass.
#[derive(Clone, Debug)]
pub struct LogicalAnalysis {
    pub dpt: Dpt,
    /// TC-LSN of the last Δ-log record seen — operations at or beyond this
    /// LSN are the "tail of the log" and use the basic fallback (§4.3).
    pub last_delta_tc_lsn: Lsn,
    /// Prefetch list (Appendix A.2): every DPT page exactly once, placed at
    /// the Δ that last set its rLSN — where it entered the DPT or where a
    /// WrittenSet prune raised its rLSN.
    pub pf_list: Vec<PageId>,
    pub counts: AnalysisCounts,
}

/// Algorithm 3 — SQL Server's analysis pass over a window starting at the
/// (completed) `bCkpt` record: update-record PIDs populate the DPT, BW-log
/// records prune it.
///
/// SMO pages participate exactly like update pages: SQL Server logs SMOs
/// physiologically, so their page references enter the DPT the same way.
pub fn build_dpt_sqlserver(window: &[LogRecord]) -> (Dpt, AnalysisCounts) {
    let mut dpt = Dpt::new();
    let mut counts = AnalysisCounts::default();
    for rec in window {
        match &rec.payload {
            p if p.is_data_op() => {
                counts.update_records += 1;
                dpt.add(p.data_pid().expect("data op has PID"), rec.lsn);
            }
            LogPayload::Smo(smo) => {
                counts.smo_records += 1;
                for (pid, _) in &smo.pages {
                    dpt.add(*pid, rec.lsn);
                }
            }
            LogPayload::Bw { written_set, fw_lsn } => {
                counts.bw_records += 1;
                dpt.prune_with_written_set(written_set, *fw_lsn);
            }
            _ => {}
        }
    }
    (dpt, counts)
}

/// Algorithm 4 (and its Appendix-D variants) — the DC's analysis pass over
/// Δ-log records only. `rssp_lsn` is the last RSSP the DC recorded; Δ-log
/// records whose TC-LSN does not exceed it describe pre-checkpoint activity
/// and are skipped.
pub fn build_dpt_logical(
    window: &[LogRecord],
    rssp_lsn: Lsn,
    mode: DeltaDptMode,
) -> LogicalAnalysis {
    let mut dpt = Dpt::new();
    let mut pf_list = PfList::default();
    let mut counts = AnalysisCounts::default();
    let mut prev_delta_lsn = rssp_lsn;

    for rec in window {
        match &rec.payload {
            LogPayload::Delta(d) => {
                if d.tc_lsn <= rssp_lsn {
                    continue;
                }
                counts.delta_records += 1;
                // DirtySet → DPT adds.
                for (i, pid) in d.dirty_set.iter().enumerate() {
                    let rlsn = match mode {
                        DeltaDptMode::Standard => {
                            if (i as u32) < d.first_dirty {
                                prev_delta_lsn
                            } else {
                                d.fw_lsn
                            }
                        }
                        DeltaDptMode::Perfect => {
                            // Fall back to Standard if this log was written
                            // without DirtyLSNs capture.
                            d.dirty_lsns.get(i).copied().unwrap_or(if (i as u32) < d.first_dirty {
                                prev_delta_lsn
                            } else {
                                d.fw_lsn
                            })
                        }
                        DeltaDptMode::Reduced => prev_delta_lsn,
                    };
                    if !dpt.contains(*pid) {
                        pf_list.push(*pid);
                    }
                    dpt.add(*pid, rlsn);
                }
                // WrittenSet → pruning.
                match mode {
                    DeltaDptMode::Standard | DeltaDptMode::Perfect => {
                        let rlsns: Vec<_> = d
                            .written_set
                            .iter()
                            .filter_map(|pid| Some((*pid, dpt.find(*pid)?.rlsn)))
                            .collect();
                        dpt.prune_with_written_set(&d.written_set, d.fw_lsn);
                        // A raised rLSN moves the page's read-ahead to this Δ.
                        for (pid, rlsn) in rlsns {
                            if dpt.find(pid).is_some_and(|e| e.rlsn > rlsn) {
                                pf_list.push(pid);
                            }
                        }
                    }
                    DeltaDptMode::Reduced => {
                        // Without FW-LSN we may only prune entries whose
                        // last mention predates this interval (strictly
                        // below the previous Δ's TC-LSN bound).
                        for pid in &d.written_set {
                            let stale = dpt
                                .find(*pid)
                                .map(|e| e.last_lsn < prev_delta_lsn)
                                .unwrap_or(false);
                            if stale {
                                dpt.remove(*pid);
                            }
                        }
                    }
                }
                prev_delta_lsn = d.tc_lsn;
            }
            p if p.is_data_op() => counts.update_records += 1,
            LogPayload::Smo(_) => counts.smo_records += 1,
            LogPayload::Bw { .. } => counts.bw_records += 1,
            _ => {}
        }
    }

    let pf_list = pf_list.finish(&dpt);
    LogicalAnalysis { dpt, last_delta_tc_lsn: prev_delta_lsn, pf_list, counts }
}

/// The PF-list under construction: a page pushed again leaves a hole where
/// its earlier incarnation was, so each page is listed once, at its last
/// push.
#[derive(Default)]
struct PfList {
    slots: Vec<Option<PageId>>,
    at: HashMap<PageId, usize>,
}

impl PfList {
    fn push(&mut self, pid: PageId) {
        if let Some(old) = self.at.insert(pid, self.slots.len()) {
            self.slots[old] = None;
        }
        self.slots.push(Some(pid));
    }

    /// The list over `dpt`'s final pages: pruned-away pages drop out.
    fn finish(self, dpt: &Dpt) -> Vec<PageId> {
        self.slots.into_iter().flatten().filter(|pid| dpt.contains(*pid)).collect()
    }
}

/// §3.1 — ARIES-style construction: seed from the checkpoint-captured DPT,
/// then add every page referenced by a logged operation after the
/// checkpoint (first mention sets the rLSN). No flush-driven pruning.
pub fn build_dpt_aries(ckpt_dpt: &[(PageId, Lsn)], window: &[LogRecord]) -> (Dpt, AnalysisCounts) {
    let mut dpt = Dpt::new();
    for (pid, rlsn) in ckpt_dpt {
        dpt.add(*pid, *rlsn);
    }
    let mut counts = AnalysisCounts::default();
    for rec in window {
        match &rec.payload {
            p if p.is_data_op() => {
                counts.update_records += 1;
                dpt.add(p.data_pid().expect("data op has PID"), rec.lsn);
            }
            LogPayload::Smo(smo) => {
                counts.smo_records += 1;
                for (pid, _) in &smo.pages {
                    dpt.add(*pid, rec.lsn);
                }
            }
            LogPayload::Bw { .. } => counts.bw_records += 1,
            LogPayload::Delta(_) => counts.delta_records += 1,
            _ => {}
        }
    }
    (dpt, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{TableId, TxnId};
    use lr_wal::DeltaRecord;

    fn update(lsn: u64, pid: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            payload: LogPayload::Update {
                txn: TxnId(1),
                table: TableId(1),
                key: pid,
                pid: PageId(pid),
                prev_lsn: Lsn::NULL,
                before: vec![],
                after: vec![],
            },
        }
    }

    fn bw(lsn: u64, written: &[u64], fw: u64) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            payload: LogPayload::Bw {
                written_set: written.iter().map(|p| PageId(*p)).collect(),
                fw_lsn: Lsn(fw),
            },
        }
    }

    fn delta(
        lsn: u64,
        dirty: &[u64],
        written: &[u64],
        fw: u64,
        first_dirty: u32,
        tc: u64,
    ) -> LogRecord {
        LogRecord {
            lsn: Lsn(lsn),
            payload: LogPayload::Delta(DeltaRecord {
                dirty_set: dirty.iter().map(|p| PageId(*p)).collect(),
                dirty_lsns: vec![],
                written_set: written.iter().map(|p| PageId(*p)).collect(),
                fw_lsn: Lsn(fw),
                first_dirty,
                tc_lsn: Lsn(tc),
            }),
        }
    }

    #[test]
    fn sqlserver_adds_then_prunes() {
        let window = vec![
            update(100, 1),
            update(110, 2),
            update(120, 1),
            // Pages 1,2 flushed; FW-LSN 130 covers both last updates.
            bw(140, &[1, 2], 130),
            update(150, 3),
        ];
        let (dpt, counts) = build_dpt_sqlserver(&window);
        assert!(!dpt.contains(PageId(1)));
        assert!(!dpt.contains(PageId(2)));
        assert_eq!(dpt.find(PageId(3)).unwrap().rlsn, Lsn(150));
        assert_eq!(counts.update_records, 4);
        assert_eq!(counts.bw_records, 1);
    }

    #[test]
    fn sqlserver_keeps_pages_updated_after_fw() {
        let window = vec![
            update(100, 1),
            update(200, 1), // after FW-LSN below
            bw(210, &[1], 150),
        ];
        let (dpt, _) = build_dpt_sqlserver(&window);
        let e = dpt.find(PageId(1)).unwrap();
        assert_eq!(e.rlsn, Lsn(150), "rLSN raised to FW-LSN");
    }

    #[test]
    fn logical_standard_assigns_rlsns_by_first_dirty() {
        // Interval: pages 1,2 dirtied before first write; 3 after.
        let window = vec![delta(500, &[1, 2, 3], &[], 450, 2, 490)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Standard);
        assert_eq!(out.dpt.find(PageId(1)).unwrap().rlsn, Lsn(400), "prev Δ TC-LSN (= rssp)");
        assert_eq!(out.dpt.find(PageId(2)).unwrap().rlsn, Lsn(400));
        assert_eq!(out.dpt.find(PageId(3)).unwrap().rlsn, Lsn(450), "FW-LSN");
        assert_eq!(out.last_delta_tc_lsn, Lsn(490));
        assert_eq!(out.pf_list, vec![PageId(1), PageId(2), PageId(3)]);
    }

    #[test]
    fn logical_chained_intervals_use_prev_tc_lsn() {
        let window = vec![delta(500, &[1], &[], 0, 1, 490), delta(600, &[2], &[], 0, 1, 590)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Standard);
        assert_eq!(out.dpt.find(PageId(1)).unwrap().rlsn, Lsn(400));
        assert_eq!(out.dpt.find(PageId(2)).unwrap().rlsn, Lsn(490), "previous Δ's TC-LSN");
    }

    #[test]
    fn logical_prunes_flushed_pages() {
        let window = vec![
            delta(500, &[1, 2], &[], 0, 2, 490),
            // Next interval: page 1 flushed (it was last "updated" with
            // lastLSN 400 <= FW 520), page 2 survives because it's
            // re-dirtied after the first write.
            delta(600, &[2], &[1, 2], 520, 0, 590),
        ];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Standard);
        assert!(!out.dpt.contains(PageId(1)), "flushed stale page pruned");
        assert!(out.dpt.contains(PageId(2)), "re-dirtied page survives");
    }

    #[test]
    fn logical_skips_deltas_at_or_before_rssp() {
        let window = vec![delta(300, &[9], &[], 0, 1, 250), delta(500, &[1], &[], 0, 1, 490)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Standard);
        assert!(!out.dpt.contains(PageId(9)), "pre-RSSP Δ ignored");
        assert!(out.dpt.contains(PageId(1)));
        assert_eq!(out.counts.delta_records, 1);
    }

    #[test]
    fn perfect_mode_uses_exact_lsns() {
        let mut rec = delta(500, &[1, 2], &[], 450, 2, 490);
        if let LogPayload::Delta(d) = &mut rec.payload {
            d.dirty_lsns = vec![Lsn(410), Lsn(455)];
        }
        let out = build_dpt_logical(&[rec], Lsn(400), DeltaDptMode::Perfect);
        assert_eq!(out.dpt.find(PageId(1)).unwrap().rlsn, Lsn(410));
        assert_eq!(out.dpt.find(PageId(2)).unwrap().rlsn, Lsn(455));
    }

    #[test]
    fn reduced_mode_is_more_conservative() {
        let window = vec![delta(500, &[1, 2, 3], &[], 450, 2, 490)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Reduced);
        // Everything pinned to the interval start, even post-FW pages.
        for pid in [1u64, 2, 3] {
            assert_eq!(out.dpt.find(PageId(pid)).unwrap().rlsn, Lsn(400));
        }
        // Same-interval flushes must NOT prune in reduced mode.
        let window = vec![delta(500, &[1], &[1], 450, 0, 490)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Reduced);
        assert!(out.dpt.contains(PageId(1)), "reduced cannot prune current interval");
        // But prior-interval entries can be pruned.
        let window = vec![delta(500, &[1], &[], 0, 1, 490), delta(600, &[], &[1], 520, 0, 590)];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Reduced);
        assert!(!out.dpt.contains(PageId(1)), "prior-interval entry pruned");
    }

    #[test]
    fn aries_seeds_from_checkpoint() {
        let ckpt = vec![(PageId(7), Lsn(70))];
        let window = vec![update(100, 1), update(110, 7)];
        let (dpt, _) = build_dpt_aries(&ckpt, &window);
        assert_eq!(dpt.find(PageId(7)).unwrap().rlsn, Lsn(70), "checkpoint rLSN sticks");
        assert_eq!(dpt.find(PageId(1)).unwrap().rlsn, Lsn(100));
    }

    #[test]
    fn pf_list_dedups_by_first_mention() {
        let window = vec![
            delta(500, &[1, 2], &[], 0, 2, 490),
            delta(600, &[1, 3], &[], 0, 2, 590), // 1 re-dirtied: not re-listed
        ];
        let out = build_dpt_logical(&window, Lsn(400), DeltaDptMode::Standard);
        assert_eq!(out.pf_list, vec![PageId(1), PageId(2), PageId(3)]);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use lr_wal::DeltaRecord;
    use proptest::prelude::*;

    /// One generated Δ interval: DirtySet, WrittenSet, FW-LSN choice,
    /// FirstDirty, the TC-LSN step and per-page dirty-LSN offsets.
    type Interval = (Vec<u64>, Vec<u64>, u64, u32, u64, Vec<u64>);

    fn distinct(pids: &[u64]) -> Vec<PageId> {
        let mut out: Vec<PageId> = Vec::new();
        for pid in pids {
            if !out.contains(&PageId(*pid)) {
                out.push(PageId(*pid));
            }
        }
        out
    }

    /// A Δ stream over twelve pages, LSNs rising: each interval's FW-LSN
    /// (when it has one) and dirty LSNs lie inside it.
    fn stream(intervals: &[Interval]) -> Vec<LogRecord> {
        let mut prev_tc = 100;
        let mut out = Vec::new();
        for (dirty, written, fw, first_dirty, step, offsets) in intervals {
            let tc = prev_tc + step;
            let dirty_set = distinct(dirty);
            let inside = |off: u64| Lsn(prev_tc + 1 + off % step);
            let dirty_lsns = offsets.iter().take(dirty_set.len()).map(|o| inside(*o)).collect();
            out.push(LogRecord {
                lsn: Lsn(tc + 1),
                payload: LogPayload::Delta(DeltaRecord {
                    first_dirty: (*first_dirty).min(dirty_set.len() as u32),
                    dirty_set,
                    dirty_lsns,
                    written_set: distinct(written),
                    fw_lsn: if *fw == 0 { Lsn::NULL } else { inside(*fw) },
                    tc_lsn: Lsn(tc),
                }),
            });
            prev_tc = tc + 1;
        }
        out
    }

    proptest! {
        /// The PF-list is a permutation of the DPT's pages, and each page
        /// sits in the group of the Δ that last set its rLSN: where it
        /// entered the DPT, or where a prune raised its rLSN. That Δ is
        /// read off the DPTs of the stream's prefixes, so the list must
        /// run in non-decreasing order of it.
        #[test]
        fn pf_list_is_the_dpt_ordered_by_the_delta_that_set_each_rlsn(
            intervals in prop::collection::vec(
                (
                    prop::collection::vec(0u64..12, 0..6),
                    prop::collection::vec(0u64..12, 0..6),
                    0u64..40,
                    0u32..7,
                    1u64..40,
                    prop::collection::vec(0u64..40, 6..7),
                ),
                1..12,
            ),
            rssp in 0u64..200,
        ) {
            let window = stream(&intervals);
            let rssp = Lsn(rssp);
            for mode in [DeltaDptMode::Standard, DeltaDptMode::Perfect, DeltaDptMode::Reduced] {
                let out = build_dpt_logical(&window, rssp, mode);
                let mut listed = out.pf_list.clone();
                listed.sort_unstable();
                let in_dpt: Vec<PageId> = out.dpt.sorted_entries().iter().map(|(p, _)| *p).collect();
                prop_assert_eq!(listed, in_dpt, "{mode:?}: not a permutation of the DPT");

                let mut set_at: HashMap<PageId, usize> = HashMap::new();
                let mut before = Dpt::new();
                for k in 0..window.len() {
                    let after = build_dpt_logical(&window[..=k], rssp, mode).dpt;
                    for (pid, e) in after.sorted_entries() {
                        if before.find(pid).is_none_or(|b| e.rlsn > b.rlsn) {
                            set_at.insert(pid, k);
                        }
                    }
                    before = after;
                }
                let stamps: Vec<usize> = out.pf_list.iter().map(|p| set_at[p]).collect();
                prop_assert!(
                    stamps.windows(2).all(|w| w[0] <= w[1]),
                    "{mode:?}: list {:?} out of Δ order {stamps:?}",
                    out.pf_list
                );
            }
        }
    }
}
