//! Logical undo — the rollback machinery shared by abort and recovery.
//!
//! Undo is *logical* in every recovery scheme the paper discusses (ARIES
//! included): the record to compensate may have moved pages since it was
//! logged, so the TC sends the DC the operation's logical inverse under a
//! redo-only CLR, through the same write protocol as any other operation
//! (§2.2, §4): [`DcApi::prepare_op`] re-locates the key and stages the
//! write (structure modifications included), the CLR is logged at the
//! prepared page, and [`DcApi::apply`] installs it.
#![deny(clippy::too_many_lines)]

use crate::tc::TransactionComponent;
use lr_common::{Lsn, Result, TxnId};
use lr_dc::{DcApi, WriteIntent};
use lr_wal::{ClrAction, LogPayload};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work done by an undo pass.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UndoStats {
    /// Transactions rolled back.
    pub losers_undone: u64,
    /// Compensations applied (CLRs written).
    pub ops_undone: u64,
    /// Log records visited (random-access reads into the log).
    pub log_records_visited: u64,
    /// Simulated busy µs of this pass, accumulated per worker: one random
    /// log read per record visited and the apply CPU charge per
    /// compensation. The compensations' page fetches happen DC-side and
    /// land on the shared device clock, not here. For a merged parallel
    /// result this is the **sum** across workers (device view).
    pub busy_us: u64,
    /// Busiest single worker's `busy_us` — the max-of-workers wall-clock
    /// of a parallel undo pass. Equals `busy_us` after a serial pass.
    pub busy_max_us: u64,
}

/// Roll back one transaction from `from_lsn` (its chain head) to its Begin
/// record. Used by both online abort and recovery undo.
pub fn rollback_txn(
    tc: &TransactionComponent,
    dc: &dyn DcApi,
    txn: TxnId,
    from_lsn: Lsn,
    stats: &mut UndoStats,
) -> Result<()> {
    undo_chain(tc, dc, txn, from_lsn, Lsn::NULL, stats)?;
    tc.finish_abort(txn)?;
    Ok(())
}

/// Partial rollback (ARIES savepoints): undo `txn`'s operations newer than
/// `savepoint` (a value from `TransactionComponent::savepoint`), leaving
/// the transaction active with its chain rewound to the savepoint.
pub fn rollback_to_savepoint(
    tc: &TransactionComponent,
    dc: &dyn DcApi,
    txn: TxnId,
    savepoint: Lsn,
    stats: &mut UndoStats,
) -> Result<()> {
    let head = tc.last_lsn_of(txn)?;
    undo_chain(tc, dc, txn, head, savepoint, stats)?;
    tc.reset_chain(txn, savepoint)?;
    Ok(())
}

/// The write that installs a CLR's action, as the DC stages it.
fn inverse_intent(action: &ClrAction) -> WriteIntent {
    match action {
        ClrAction::RestoreValue(v) => WriteIntent::Update { value_len: v.len() },
        ClrAction::InsertValue(v) => WriteIntent::Insert { value_len: v.len() },
        ClrAction::RemoveKey => WriteIntent::Delete,
    }
}

/// Walk `txn`'s undo chain from `from_lsn`, compensating each operation,
/// until reaching `stop_at` (exclusive) or the Begin record.
fn undo_chain(
    tc: &TransactionComponent,
    dc: &dyn DcApi,
    txn: TxnId,
    from_lsn: Lsn,
    stop_at: Lsn,
    stats: &mut UndoStats,
) -> Result<()> {
    let wal = dc.wal();
    // Per-worker busy accounting, mirroring the redo workers: this chain's
    // random log reads and apply CPU land in `stats.busy_us` so a parallel
    // pass can report max-of-workers wall-clock instead of the
    // shared-clock sum-of-workers bound.
    let model = dc.pool().disk().io_model();
    let mut cur = from_lsn;
    while !cur.is_null() && cur != stop_at {
        let rec = { wal.lock().read_at(cur)? };
        stats.log_records_visited += 1;
        stats.busy_us += model.log_page_read_us + model.cpu_log_record_us;
        let (t, table, key, prev_lsn, action) = match rec.payload {
            LogPayload::Update { txn, table, key, prev_lsn, before, .. } => {
                (txn, table, key, prev_lsn, ClrAction::RestoreValue(before))
            }
            LogPayload::Insert { txn, table, key, prev_lsn, .. } => {
                (txn, table, key, prev_lsn, ClrAction::RemoveKey)
            }
            LogPayload::Delete { txn, table, key, prev_lsn, before, .. } => {
                (txn, table, key, prev_lsn, ClrAction::InsertValue(before))
            }
            LogPayload::Clr { undo_next, .. } => {
                // Already-compensated work: skip straight past it.
                cur = undo_next;
                continue;
            }
            LogPayload::TxnBegin { .. } => break,
            other => {
                return Err(lr_common::Error::RecoveryInvariant(format!(
                    "undo chain of {txn} reached unexpected record {other:?}"
                )))
            }
        };
        debug_assert_eq!(t, txn);
        // Prepare re-locates the key (it may have moved since it was
        // logged) and stages any room a re-grown value needs.
        let op = dc.prepare_op(table, key, inverse_intent(&action))?;
        let clr = tc.log_clr(txn, table, key, op.pid, prev_lsn, action);
        dc.apply(op, &clr)?;
        stats.busy_us += model.cpu_apply_us;
        stats.ops_undone += 1;
        cur = prev_lsn;
    }
    stats.busy_max_us = stats.busy_max_us.max(stats.busy_us);
    Ok(())
}

/// The recovery undo pass: roll back every loser, highest chain head
/// first (ARIES' single-pass backward processing order), with up to
/// `workers` threads claiming losers off one shared queue.
///
/// Each loser's undo chain is independent — runtime key locks were
/// exclusive, so no two in-flight transactions updated the same key — and
/// CLRs append through the shared log's normal (group-commit-capable)
/// path, so interleaving across losers only changes CLR placement on the
/// log, never the compensated state. One worker drains the queue on the
/// caller's thread, in exactly the serial order; more start from the same
/// highest-chain-head loser and merely overlap the tail.
pub fn undo_losers(
    tc: &TransactionComponent,
    dc: &dyn DcApi,
    losers: &BTreeMap<TxnId, Lsn>,
    workers: usize,
) -> Result<UndoStats> {
    let workers = workers.clamp(1, losers.len().max(1));
    // Adopted into the (post-crash, empty) transaction table so CLR
    // logging and abort completion work normally.
    let mut order: Vec<(TxnId, Lsn)> = losers.iter().map(|(t, l)| (*t, *l)).collect();
    order.sort_unstable_by_key(|(_, lsn)| std::cmp::Reverse(*lsn));
    for (txn, last) in &order {
        tc.adopt_loser(*txn, *last);
    }
    let next = AtomicUsize::new(0);
    let drain = || {
        let mut stats = UndoStats::default();
        while let Some(&(txn, last)) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            rollback_txn(tc, dc, txn, last, &mut stats)?;
            stats.losers_undone += 1;
        }
        Ok(stats)
    };
    let shards: Vec<Result<UndoStats>> = if workers == 1 {
        vec![drain()]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(drain)).collect();
            handles.into_iter().map(|h| h.join().expect("undo worker panicked")).collect()
        })
    };
    let mut merged = UndoStats::default();
    for shard in shards {
        let shard = shard?;
        merged.losers_undone += shard.losers_undone;
        merged.ops_undone += shard.ops_undone;
        merged.log_records_visited += shard.log_records_visited;
        // Sum is the device-charge view; max is the parallel wall-clock.
        merged.busy_us += shard.busy_us;
        merged.busy_max_us = merged.busy_max_us.max(shard.busy_max_us);
    }
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::{IoModel, SimClock, TableId};
    use lr_dc::{DataComponent, DcConfig, WriteIntent};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    const T: TableId = TableId(1);

    fn setup() -> (TransactionComponent, DataComponent) {
        let mut disk: SimDisk = SimDisk::new(512, 1, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal.clone(), DcConfig::default()).unwrap();
        dc.create_table(T).unwrap();
        (TransactionComponent::new(wal), dc)
    }

    /// Run one full engine-style op: prepare → log → apply.
    fn do_insert(tc: &TransactionComponent, dc: &dyn DcApi, txn: TxnId, key: u64) {
        let op = dc.prepare_op(T, key, WriteIntent::Insert { value_len: 8 }).unwrap();
        let rec = tc.log_insert(txn, T, key, op.pid, key.to_le_bytes().to_vec()).unwrap();
        dc.apply(op, &rec).unwrap();
    }

    fn do_update(tc: &TransactionComponent, dc: &dyn DcApi, txn: TxnId, key: u64, val: u64) {
        let mut op = dc.prepare_op(T, key, WriteIntent::Update { value_len: 8 }).unwrap();
        let before = op.before.take().unwrap();
        let rec = tc.log_update(txn, T, key, op.pid, before, val.to_le_bytes().to_vec()).unwrap();
        dc.apply(op, &rec).unwrap();
    }

    fn do_delete(tc: &TransactionComponent, dc: &dyn DcApi, txn: TxnId, key: u64) {
        let mut op = dc.prepare_op(T, key, WriteIntent::Delete).unwrap();
        let before = op.before.take().unwrap();
        let rec = tc.log_delete(txn, T, key, op.pid, before).unwrap();
        dc.apply(op, &rec).unwrap();
    }

    #[test]
    fn rollback_restores_all_three_op_kinds() {
        let (tc, dc) = setup();
        // Committed base state.
        let t0 = tc.begin();
        for k in 0..10 {
            do_insert(&tc, &dc, t0, k);
        }
        tc.commit(t0).unwrap();

        // A transaction that touches everything, then aborts.
        let t1 = tc.begin();
        do_update(&tc, &dc, t1, 3, 999);
        do_insert(&tc, &dc, t1, 100);
        do_delete(&tc, &dc, t1, 7);
        let head = tc.last_lsn_of(t1).unwrap();
        let mut stats = UndoStats::default();
        rollback_txn(&tc, &dc, t1, head, &mut stats).unwrap();
        assert_eq!(stats.ops_undone, 3);

        assert_eq!(dc.read(T, 3).unwrap().unwrap(), 3u64.to_le_bytes().to_vec());
        assert_eq!(dc.read(T, 100).unwrap(), None, "insert undone");
        assert_eq!(dc.read(T, 7).unwrap().unwrap(), 7u64.to_le_bytes().to_vec(), "delete undone");
        assert_eq!(tc.locks().lock_count(), 0);
    }

    #[test]
    fn undo_losers_processes_multiple_txns() {
        let (tc, dc) = setup();
        let t0 = tc.begin();
        for k in 0..5 {
            do_insert(&tc, &dc, t0, k);
        }
        tc.commit(t0).unwrap();

        let t1 = tc.begin();
        do_update(&tc, &dc, t1, 0, 111);
        let t2 = tc.begin();
        do_update(&tc, &dc, t2, 1, 222);
        let mut losers = BTreeMap::new();
        losers.insert(t1, tc.last_lsn_of(t1).unwrap());
        losers.insert(t2, tc.last_lsn_of(t2).unwrap());

        let stats = undo_losers(&tc, &dc, &losers, 1).unwrap();
        assert_eq!(stats.losers_undone, 2);
        assert_eq!(dc.read(T, 0).unwrap().unwrap(), 0u64.to_le_bytes().to_vec());
        assert_eq!(dc.read(T, 1).unwrap().unwrap(), 1u64.to_le_bytes().to_vec());
    }

    #[test]
    fn parallel_undo_matches_serial() {
        let (tc, dc) = setup();
        let t0 = tc.begin();
        for k in 0..32 {
            do_insert(&tc, &dc, t0, k);
        }
        tc.commit(t0).unwrap();

        // Eight in-flight losers, disjoint keys (runtime locks guarantee
        // disjointness; mirrored here).
        let mut losers = BTreeMap::new();
        for i in 0..8u64 {
            let t = tc.begin();
            do_update(&tc, &dc, t, i * 4, 900 + i);
            do_update(&tc, &dc, t, i * 4 + 1, 950 + i);
            do_delete(&tc, &dc, t, i * 4 + 2);
            losers.insert(t, tc.last_lsn_of(t).unwrap());
        }

        let stats = undo_losers(&tc, &dc, &losers, 4).unwrap();
        assert_eq!(stats.losers_undone, 8);
        assert_eq!(stats.ops_undone, 24);
        for k in 0..32u64 {
            assert_eq!(
                dc.read(T, k).unwrap().unwrap(),
                k.to_le_bytes().to_vec(),
                "key {k} not restored"
            );
        }
        assert_eq!(tc.locks().lock_count(), 0);
    }

    #[test]
    fn parallel_undo_with_one_worker_degenerates_to_serial() {
        let (tc, dc) = setup();
        let t0 = tc.begin();
        do_insert(&tc, &dc, t0, 1);
        tc.commit(t0).unwrap();
        let t1 = tc.begin();
        do_update(&tc, &dc, t1, 1, 77);
        let mut losers = BTreeMap::new();
        losers.insert(t1, tc.last_lsn_of(t1).unwrap());
        let stats = undo_losers(&tc, &dc, &losers, 1).unwrap();
        assert_eq!(stats.losers_undone, 1);
        assert_eq!(dc.read(T, 1).unwrap().unwrap(), 1u64.to_le_bytes().to_vec());
    }

    #[test]
    fn undo_busy_shards_report_max_and_total() {
        // A costed model (not zero()) makes the per-worker busy charges
        // visible even on an untimed disk: log reads and CPU charges come
        // straight from the model, not the shared clock.
        let build = || {
            let mut disk: SimDisk = SimDisk::new(512, 1, SimClock::new(), IoModel::default());
            DataComponent::format_disk(&mut disk).unwrap();
            let wal = Wal::new_shared(4096);
            let dc = DataComponent::open(Box::new(disk), wal.clone(), DcConfig::default()).unwrap();
            dc.create_table(T).unwrap();
            let tc = TransactionComponent::new(wal);
            let t0 = tc.begin();
            for k in 0..32 {
                do_insert(&tc, &dc, t0, k);
            }
            tc.commit(t0).unwrap();
            let mut losers = BTreeMap::new();
            for i in 0..8u64 {
                let t = tc.begin();
                do_update(&tc, &dc, t, i * 4, 900 + i);
                do_update(&tc, &dc, t, i * 4 + 1, 950 + i);
                losers.insert(t, tc.last_lsn_of(t).unwrap());
            }
            (tc, dc, losers)
        };

        let (tc_s, dc_s, losers_s) = build();
        let serial = undo_losers(&tc_s, &dc_s, &losers_s, 1).unwrap();
        assert!(serial.busy_us > 0, "costed model must charge busy time");
        assert_eq!(serial.busy_max_us, serial.busy_us, "one worker did everything: max == total");

        let (tc_p, dc_p, losers_p) = build();
        let parallel = undo_losers(&tc_p, &dc_p, &losers_p, 4).unwrap();
        assert_eq!(
            parallel.busy_us, serial.busy_us,
            "identical work ⇒ identical total busy charge regardless of workers"
        );
        assert!(parallel.busy_max_us > 0);
        assert!(parallel.busy_max_us <= parallel.busy_us, "max-of-workers never exceeds the sum");
    }

    #[test]
    fn crash_during_rollback_resumes_via_clr_chain() {
        let (tc, dc) = setup();
        let t0 = tc.begin();
        for k in 0..4 {
            do_insert(&tc, &dc, t0, k);
        }
        tc.commit(t0).unwrap();

        let t1 = tc.begin();
        do_update(&tc, &dc, t1, 0, 50);
        do_update(&tc, &dc, t1, 1, 51);
        do_update(&tc, &dc, t1, 2, 52);

        // Partially roll back by hand: undo the last op only, writing its CLR.
        let head = tc.last_lsn_of(t1).unwrap();
        let wal = dc.wal();
        let rec = { wal.lock().read_at(head).unwrap() };
        let LogPayload::Update { table, key, prev_lsn, before, .. } = rec.payload else { panic!() };
        let tree = dc.tree(table).unwrap().clone();
        let leaf = tree.find_leaf(dc.pool(), key).unwrap().leaf;
        let clr = tc.log_clr(t1, table, key, leaf, prev_lsn, ClrAction::RestoreValue(before));
        dc.apply_at(leaf, &clr).unwrap();

        // "Crash": resume undo from the CLR (what analysis would find).
        let mut losers = BTreeMap::new();
        losers.insert(t1, clr.lsn);
        let stats = undo_losers(&tc, &dc, &losers, 1).unwrap();
        // Only the two not-yet-compensated updates are undone.
        assert_eq!(stats.ops_undone, 2);
        for k in 0..3u64 {
            assert_eq!(dc.read(T, k).unwrap().unwrap(), k.to_le_bytes().to_vec());
        }
    }
}
