//! The transactional component.
//!
//! Logs logically, locks logically, and coordinates recovery preparation
//! with the DC through EOSL and RSSP (§4.1). The engine (lr-core) sequences
//! the two components; this type owns everything TC-side.
//!
//! Every method takes `&self`: sessions on different threads share one
//! `TransactionComponent`. Internally the lock table is sharded, the
//! transaction table allocates ids atomically, and commit rides the log's
//! group-commit protocol — concurrent commits share a single force.

use crate::locks::LockManager;
use crate::txn::{TxnState, TxnTable};
use lr_common::{Key, Lsn, PageId, Result, TableId, TxnId, Value};
use lr_wal::{ClrAction, LogPayload, LogRecord, SharedWal};
use std::sync::atomic::{AtomicU64, Ordering};

/// TC-side normal-execution counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TcStats {
    pub begins: u64,
    pub commits: u64,
    pub aborts: u64,
    pub data_ops_logged: u64,
    pub clrs_logged: u64,
    pub checkpoints_completed: u64,
    pub eosl_sent: u64,
}

#[derive(Default)]
struct TcCounters {
    begins: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    data_ops_logged: AtomicU64,
    clrs_logged: AtomicU64,
    checkpoints_completed: AtomicU64,
    eosl_sent: AtomicU64,
}

/// The Deuteronomy transactional component.
pub struct TransactionComponent {
    wal: SharedWal,
    txns: TxnTable,
    locks: LockManager,
    stats: TcCounters,
}

impl TransactionComponent {
    pub fn new(wal: SharedWal) -> TransactionComponent {
        TransactionComponent {
            wal,
            txns: TxnTable::new(),
            locks: LockManager::new(),
            stats: TcCounters::default(),
        }
    }

    pub fn stats(&self) -> TcStats {
        let s = &self.stats;
        TcStats {
            begins: s.begins.load(Ordering::Relaxed),
            commits: s.commits.load(Ordering::Relaxed),
            aborts: s.aborts.load(Ordering::Relaxed),
            data_ops_logged: s.data_ops_logged.load(Ordering::Relaxed),
            clrs_logged: s.clrs_logged.load(Ordering::Relaxed),
            checkpoints_completed: s.checkpoints_completed.load(Ordering::Relaxed),
            eosl_sent: s.eosl_sent.load(Ordering::Relaxed),
        }
    }

    pub fn txns(&self) -> &TxnTable {
        &self.txns
    }

    pub fn locks(&self) -> &LockManager {
        &self.locks
    }

    /// Current end of stable log (what EOSL advertises).
    pub fn stable_lsn(&self) -> Lsn {
        self.wal.lock().stable_lsn()
    }

    // ------------------------------------------------------------------
    // transaction lifecycle
    // ------------------------------------------------------------------

    /// Begin a transaction (logs `TxnBegin`).
    pub fn begin(&self) -> TxnId {
        let mut wal = self.wal.lock();
        // Reserve the id under the log latch so the Begin record's LSN is
        // exactly the registered begin LSN.
        let lsn_placeholder = wal.end_lsn();
        let txn = self.txns.begin(lsn_placeholder);
        let lsn = wal.append(&LogPayload::TxnBegin { txn });
        debug_assert_eq!(lsn, lsn_placeholder);
        self.stats.begins.fetch_add(1, Ordering::Relaxed);
        txn
    }

    /// Acquire the exclusive lock `txn` needs for `(table, key)`.
    pub fn lock(&self, txn: TxnId, table: TableId, key: Key) -> Result<()> {
        self.locks.acquire(txn, table, key)
    }

    /// Log a data update. `pid` is the DC-piggybacked placement; `before`
    /// and `after` are the logical images. Returns the full record so the
    /// engine can hand it straight to the DC for application.
    pub fn log_update(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        pid: PageId,
        before: Value,
        after: Value,
    ) -> Result<LogRecord> {
        let mut wal = self.wal.lock();
        let prev_lsn = self.txns.note_op(txn, wal.end_lsn())?;
        let payload = LogPayload::Update { txn, table, key, pid, prev_lsn, before, after };
        let lsn = wal.append(&payload);
        self.stats.data_ops_logged.fetch_add(1, Ordering::Relaxed);
        Ok(LogRecord { lsn, payload })
    }

    /// Log a data insert.
    pub fn log_insert(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        pid: PageId,
        value: Value,
    ) -> Result<LogRecord> {
        let mut wal = self.wal.lock();
        let prev_lsn = self.txns.note_op(txn, wal.end_lsn())?;
        let payload = LogPayload::Insert { txn, table, key, pid, prev_lsn, value };
        let lsn = wal.append(&payload);
        self.stats.data_ops_logged.fetch_add(1, Ordering::Relaxed);
        Ok(LogRecord { lsn, payload })
    }

    /// Log a data delete.
    pub fn log_delete(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        pid: PageId,
        before: Value,
    ) -> Result<LogRecord> {
        let mut wal = self.wal.lock();
        let prev_lsn = self.txns.note_op(txn, wal.end_lsn())?;
        let payload = LogPayload::Delete { txn, table, key, pid, prev_lsn, before };
        let lsn = wal.append(&payload);
        self.stats.data_ops_logged.fetch_add(1, Ordering::Relaxed);
        Ok(LogRecord { lsn, payload })
    }

    /// Log a compensation record during rollback/undo. Does **not** touch
    /// the transaction table's op chain — CLRs are redo-only and carry
    /// their own `undo_next` pointer.
    pub fn log_clr(
        &self,
        txn: TxnId,
        table: TableId,
        key: Key,
        pid: PageId,
        undo_next: Lsn,
        action: ClrAction,
    ) -> LogRecord {
        let payload = LogPayload::Clr { txn, table, key, pid, undo_next, action };
        // No chain pointer to reserve: the buffered (encode-outside-latch)
        // append path applies.
        let lsn = self.wal.append(&payload);
        self.stats.clrs_logged.fetch_add(1, Ordering::Relaxed);
        LogRecord { lsn, payload }
    }

    /// Commit: log `TxnCommit`, force the log via **group commit** (one
    /// force covers every commit record appended concurrently), release
    /// locks. Returns the new stable LSN for EOSL delivery.
    pub fn commit(&self, txn: TxnId) -> Result<Lsn> {
        if !self.txns.is_active(txn) {
            return Err(lr_common::Error::TxnNotActive(txn));
        }
        let commit_lsn = self.wal.append(&LogPayload::TxnCommit { txn });
        let stable = self.wal.force_covering(commit_lsn);
        self.txns.set_state(txn, TxnState::Committed)?;
        self.locks.release_all(txn);
        self.stats.commits.fetch_add(1, Ordering::Relaxed);
        self.stats.eosl_sent.fetch_add(1, Ordering::Relaxed);
        Ok(stable)
    }

    /// Finish an abort *after* the engine ran rollback: logs `TxnAbort`
    /// and releases locks.
    pub fn finish_abort(&self, txn: TxnId) -> Result<()> {
        self.wal.append(&LogPayload::TxnAbort { txn });
        self.txns.set_state(txn, TxnState::Aborted)?;
        self.locks.release_all(txn);
        self.stats.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Head of `txn`'s undo chain (rollback entry point).
    pub fn last_lsn_of(&self, txn: TxnId) -> Result<Lsn> {
        Ok(self.txns.get(txn)?.last_lsn)
    }

    /// Establish a savepoint: the current undo-chain position. Rolling back
    /// to it undoes exactly the operations logged after this call.
    pub fn savepoint(&self, txn: TxnId) -> Result<Lsn> {
        if !self.txns.is_active(txn) {
            return Err(lr_common::Error::TxnNotActive(txn));
        }
        self.last_lsn_of(txn)
    }

    /// Rewind the undo chain to `savepoint` after a partial rollback; the
    /// transaction stays active and its next operation chains to the
    /// savepoint record, bypassing the undone suffix.
    pub fn reset_chain(&self, txn: TxnId, savepoint: Lsn) -> Result<()> {
        self.txns.reset_chain(txn, savepoint)
    }

    // ------------------------------------------------------------------
    // checkpointing (the TC side of RSSP)
    // ------------------------------------------------------------------

    /// Write the `bCkpt` record (and, for the ARIES ablation, the runtime
    /// DPT snapshot the §3.1 scheme captures). Returns the bCkpt LSN — the
    /// value RSSP carries to the DC.
    pub fn begin_checkpoint(&self, aries_dpt: Option<Vec<(PageId, Lsn)>>) -> Lsn {
        let mut wal = self.wal.lock();
        let bckpt = wal.append(&LogPayload::BeginCheckpoint);
        if let Some(dpt) = aries_dpt {
            wal.append(&LogPayload::AriesCheckpoint { dpt });
        }
        wal.make_all_stable();
        bckpt
    }

    /// Write the `eCkpt` record after the DC confirmed RSSP. Snapshots the
    /// active-transaction table so analysis can seed loser detection. Once
    /// the record is forced, the checkpoint is complete and `bckpt_lsn` is
    /// published as the log's checkpoint anchor — where the next restart
    /// starts reading — under the same log latch.
    pub fn end_checkpoint(&self, bckpt_lsn: Lsn) -> Lsn {
        let active_txns = self.txns.active_snapshot();
        let lsn = {
            let mut wal = self.wal.lock();
            let lsn = wal.append(&LogPayload::EndCheckpoint { bckpt_lsn, active_txns });
            wal.make_all_stable();
            wal.set_checkpoint_anchor(bckpt_lsn);
            lsn
        };
        self.stats.checkpoints_completed.fetch_add(1, Ordering::Relaxed);
        // Completed transactions are no longer needed in memory.
        self.txns.gc();
        lsn
    }

    // ------------------------------------------------------------------
    // crash
    // ------------------------------------------------------------------

    /// Crash the TC: transaction table and lock table are volatile.
    pub fn crash(&self) {
        self.txns.crash();
        self.locks.crash();
    }

    /// Re-register a loser transaction during recovery so undo can log
    /// CLRs against it.
    pub fn adopt_loser(&self, txn: TxnId, last_lsn: Lsn) {
        self.txns.adopt(txn, last_lsn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_wal::Wal;

    fn tc() -> TransactionComponent {
        TransactionComponent::new(Wal::new_shared(4096))
    }

    #[test]
    fn begin_log_commit_flow() {
        let tc = tc();
        let t = tc.begin();
        tc.lock(t, TableId(1), 5).unwrap();
        let rec =
            tc.log_update(t, TableId(1), 5, PageId(9), b"old".to_vec(), b"new".to_vec()).unwrap();
        match &rec.payload {
            LogPayload::Update { prev_lsn, pid, .. } => {
                assert_eq!(*pid, PageId(9));
                assert!(!prev_lsn.is_null(), "chains to the Begin record");
            }
            other => panic!("unexpected payload {other:?}"),
        }
        let stable = tc.commit(t).unwrap();
        assert_eq!(stable, tc.wal.lock().end_lsn(), "commit forces the log");
        assert_eq!(tc.locks().lock_count(), 0, "locks released");
        assert!(matches!(tc.commit(t), Err(lr_common::Error::TxnNotActive(_))));
    }

    #[test]
    fn undo_chain_links_ops() {
        let tc = tc();
        let t = tc.begin();
        let r1 = tc.log_update(t, TableId(1), 1, PageId(1), vec![], vec![]).unwrap();
        let r2 = tc.log_update(t, TableId(1), 2, PageId(2), vec![], vec![]).unwrap();
        let LogPayload::Update { prev_lsn, .. } = r2.payload else { panic!() };
        assert_eq!(prev_lsn, r1.lsn);
        assert_eq!(tc.last_lsn_of(t).unwrap(), r2.lsn);
    }

    #[test]
    fn checkpoint_brackets_capture_active_txns() {
        let tc = tc();
        let t1 = tc.begin();
        let t2 = tc.begin();
        tc.log_update(t1, TableId(1), 1, PageId(1), vec![], vec![]).unwrap();
        tc.commit(t2).unwrap();
        let b = tc.begin_checkpoint(None);
        let e = tc.end_checkpoint(b);
        let wal = tc.wal.lock();
        let rec = wal.read_at(e).unwrap();
        let LogPayload::EndCheckpoint { bckpt_lsn, active_txns } = rec.payload else { panic!() };
        assert_eq!(bckpt_lsn, b);
        assert_eq!(active_txns.len(), 1, "only the uncommitted txn");
        assert_eq!(active_txns[0].0, t1);
        assert_eq!(wal.checkpoint_anchor(), b, "completed checkpoint published");
    }

    #[test]
    fn aries_checkpoint_snapshot_logged_when_requested() {
        let tc = tc();
        let b = tc.begin_checkpoint(Some(vec![(PageId(3), Lsn(30))]));
        let wal = tc.wal.lock();
        let recs = wal.scan_from(b).unwrap();
        assert!(matches!(
            &recs[1].payload,
            LogPayload::AriesCheckpoint { dpt } if dpt == &vec![(PageId(3), Lsn(30))]
        ));
    }

    #[test]
    fn clr_logging_counts_separately() {
        let tc = tc();
        let t = tc.begin();
        tc.log_clr(t, TableId(1), 5, PageId(2), Lsn(10), ClrAction::RemoveKey);
        assert_eq!(tc.stats().clrs_logged, 1);
        assert_eq!(tc.stats().data_ops_logged, 0);
    }

    #[test]
    fn concurrent_txns_commit_without_interference() {
        let tc = std::sync::Arc::new(tc());
        std::thread::scope(|s| {
            for th in 0..4u64 {
                let tc = tc.clone();
                s.spawn(move || {
                    for i in 0..50u64 {
                        let t = tc.begin();
                        let key = th * 1_000 + i;
                        tc.lock(t, TableId(1), key).unwrap();
                        tc.log_update(t, TableId(1), key, PageId(1), vec![], vec![]).unwrap();
                        tc.commit(t).unwrap();
                    }
                });
            }
        });
        let stats = tc.stats();
        assert_eq!(stats.begins, 200);
        assert_eq!(stats.commits, 200);
        assert_eq!(tc.locks().lock_count(), 0);
        tc.locks().assert_no_leaks();
        // Chain integrity: every commit record present on the log.
        let commits = tc
            .wal
            .lock()
            .scan_from(Lsn::NULL)
            .unwrap()
            .into_iter()
            .filter(|r| matches!(r.payload, LogPayload::TxnCommit { .. }))
            .count();
        assert_eq!(commits, 200);
    }
}
