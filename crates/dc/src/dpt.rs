//! The dirty page table (DPT).
//!
//! A conservative approximation of the dirty part of the database cache at
//! crash time (§3): entries are `(PID, rLSN, lastLSN)`. **Safety** means (a)
//! every page actually dirty at the crash has an entry, and (b) each entry's
//! rLSN is not greater than the LSN of the operation that first dirtied the
//! page. An unsafe DPT silently skips redo work — the one unforgivable
//! recovery bug — so safety is property-tested end-to-end in `tests/`.

use lr_common::{Lsn, PageId};
use std::collections::HashMap;

/// One DPT entry. `last_lsn` only steers construction-time pruning; redo
/// reads `rlsn` (§3: "lastLSN is used to help construct the DPT but does
/// not, itself, play a direct role in redo recovery").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DptEntry {
    pub rlsn: Lsn,
    pub last_lsn: Lsn,
}

/// Verdict of the optimized redo screen (Alg. 1 lines 5-8 / Alg. 5 lines
/// 5-8): the two pre-fetch skip cases, or "fetch the page and let the
/// pLSN test decide".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DptScreen {
    /// No DPT entry: the page was never dirty in the window — skip.
    SkipNoEntry,
    /// Record predates the entry's rLSN: its effect is on disk — skip.
    SkipRlsn,
    /// The record may need redo; fetch and run the pLSN test.
    Fetch,
}

/// The dirty page table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dpt {
    entries: HashMap<PageId, DptEntry>,
}

impl Dpt {
    pub fn new() -> Dpt {
        Dpt::default()
    }

    /// `ADDENTRY(pid, lsn)`: first mention sets both rLSN and lastLSN;
    /// later mentions only advance lastLSN (the rLSN — the *first* dirtying
    /// — is sticky, matching Alg. 3 lines 7-10 and Alg. 4's re-add rule).
    pub fn add(&mut self, pid: PageId, lsn: Lsn) {
        self.entries
            .entry(pid)
            .and_modify(|e| e.last_lsn = e.last_lsn.max(lsn))
            .or_insert(DptEntry { rlsn: lsn, last_lsn: lsn });
    }

    /// `FINDENTRY(pid)`.
    pub fn find(&self, pid: PageId) -> Option<&DptEntry> {
        self.entries.get(&pid)
    }

    /// The optimized redo screen for a record at `lsn` targeting `pid`.
    /// Every redo executor — serial physiological/logical, the parallel
    /// dispatcher, and SMO replay — must route through this one
    /// implementation: a divergent screen in any executor silently breaks
    /// the workers=N ≡ workers=1 state equivalence.
    pub fn screen(&self, pid: PageId, lsn: Lsn) -> DptScreen {
        match self.find(pid) {
            None => DptScreen::SkipNoEntry,
            Some(e) if lsn < e.rlsn => DptScreen::SkipRlsn,
            Some(_) => DptScreen::Fetch,
        }
    }

    pub fn contains(&self, pid: PageId) -> bool {
        self.entries.contains_key(&pid)
    }

    /// `REMOVEENTRY(pid)`.
    pub fn remove(&mut self, pid: PageId) -> Option<DptEntry> {
        self.entries.remove(&pid)
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Apply a `WrittenSet` + FW-LSN to the table under construction —
    /// the shared pruning step of Alg. 3 (lines 11-18) and Alg. 4 (lines
    /// 16-22): a page flushed after its last logged update leaves the
    /// table; a surviving entry's rLSN rises to FW-LSN (its pre-FW-LSN
    /// updates are known flushed).
    pub fn prune_with_written_set(&mut self, written_set: &[PageId], fw_lsn: Lsn) {
        if fw_lsn.is_null() {
            return;
        }
        for pid in written_set {
            if let Some(e) = self.entries.get_mut(pid) {
                // Strict comparison (Alg. 4 line 19): an entry whose lastLSN
                // equals FW-LSN was (re-)dirtied at the first-write boundary
                // and must stay — removal would skip its redo.
                if e.last_lsn < fw_lsn {
                    self.entries.remove(pid);
                } else if e.rlsn < fw_lsn {
                    e.rlsn = fw_lsn;
                }
            }
        }
    }

    /// Entries sorted by PID (deterministic iteration for reports/tests).
    pub fn sorted_entries(&self) -> Vec<(PageId, DptEntry)> {
        let mut v: Vec<(PageId, DptEntry)> = self.entries.iter().map(|(p, e)| (*p, *e)).collect();
        v.sort_unstable_by_key(|(p, _)| *p);
        v
    }

    /// Entries sorted by rLSN (the DPT-driven prefetch order, App. A.2).
    pub fn entries_by_rlsn(&self) -> Vec<(PageId, DptEntry)> {
        let mut v: Vec<(PageId, DptEntry)> = self.entries.iter().map(|(p, e)| (*p, *e)).collect();
        v.sort_unstable_by_key(|(p, e)| (e.rlsn, *p));
        v
    }

    /// Is this DPT a safe superset of the true dirty set?
    ///
    /// `truth` is `(pid, first_dirty_lsn)` for every genuinely dirty page
    /// (the pool's ground truth at crash). Returns the first violation, or
    /// `None` if safe. Pages dirtied in the log tail (at or after
    /// `tail_from`, exclusive coverage boundary) are exempt — the paper's
    /// methods handle them with the basic fallback.
    pub fn safety_violation(
        &self,
        truth: &[(PageId, Lsn)],
        tail_from: Lsn,
    ) -> Option<(PageId, String)> {
        for (pid, first_dirty) in truth {
            if *first_dirty >= tail_from {
                continue; // covered by the tail fallback, not the DPT
            }
            match self.find(*pid) {
                None => {
                    return Some((
                        *pid,
                        format!(
                            "dirty page {pid} (first dirtied at {first_dirty}) missing from DPT"
                        ),
                    ))
                }
                Some(e) if e.rlsn > *first_dirty => {
                    return Some((
                        *pid,
                        format!(
                            "DPT rLSN {} exceeds first-dirty LSN {first_dirty} for page {pid}",
                            e.rlsn
                        ),
                    ))
                }
                _ => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_first_mention_sticky() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(100));
        dpt.add(PageId(1), Lsn(200));
        let e = dpt.find(PageId(1)).unwrap();
        assert_eq!(e.rlsn, Lsn(100), "rLSN keeps the first mention");
        assert_eq!(e.last_lsn, Lsn(200), "lastLSN follows the latest");
        assert_eq!(dpt.len(), 1);
    }

    #[test]
    fn prune_removes_fully_flushed_pages() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(100)); // last update 100
        dpt.add(PageId(2), Lsn(150));
        dpt.add(PageId(2), Lsn(300)); // updated again after FW-LSN
        dpt.prune_with_written_set(&[PageId(1), PageId(2)], Lsn(200));
        assert!(!dpt.contains(PageId(1)), "flushed after last update: gone");
        let e = dpt.find(PageId(2)).unwrap();
        assert_eq!(e.rlsn, Lsn(200), "survivor's rLSN raised to FW-LSN");
    }

    #[test]
    fn prune_with_null_fw_lsn_is_noop() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(10));
        dpt.prune_with_written_set(&[PageId(1)], Lsn::NULL);
        assert!(dpt.contains(PageId(1)));
    }

    #[test]
    fn prune_ignores_absent_pids() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(5), Lsn(50));
        dpt.prune_with_written_set(&[PageId(99)], Lsn(100));
        assert_eq!(dpt.len(), 1);
    }

    #[test]
    fn safety_check_detects_missing_page() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(10));
        let truth = vec![(PageId(1), Lsn(10)), (PageId(2), Lsn(20))];
        let v = dpt.safety_violation(&truth, Lsn::MAX);
        assert!(v.is_some());
        assert_eq!(v.unwrap().0, PageId(2));
    }

    #[test]
    fn safety_check_detects_rlsn_overshoot() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(50)); // claims first dirtied at 50...
        let truth = vec![(PageId(1), Lsn(10))]; // ...but really at 10
        assert!(dpt.safety_violation(&truth, Lsn::MAX).is_some());
    }

    #[test]
    fn safety_check_exempts_tail() {
        let dpt = Dpt::new();
        let truth = vec![(PageId(1), Lsn(500))];
        assert!(dpt.safety_violation(&truth, Lsn(400)).is_none(), "tail page exempt");
        assert!(dpt.safety_violation(&truth, Lsn(600)).is_some(), "pre-tail page not");
    }

    #[test]
    fn orderings() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(3), Lsn(30));
        dpt.add(PageId(1), Lsn(99));
        dpt.add(PageId(2), Lsn(10));
        let by_pid: Vec<PageId> = dpt.sorted_entries().iter().map(|(p, _)| *p).collect();
        assert_eq!(by_pid, vec![PageId(1), PageId(2), PageId(3)]);
        let by_rlsn: Vec<PageId> = dpt.entries_by_rlsn().iter().map(|(p, _)| *p).collect();
        assert_eq!(by_rlsn, vec![PageId(2), PageId(3), PageId(1)]);
    }
}
