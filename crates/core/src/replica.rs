//! Logical log shipping to a physically non-isomorphic replica.
//!
//! §1.1: "logical recovery can be useful to maintain replicas at sites
//! without a physically isomorphic environment. That is, the data can be
//! replicated in a database using a different kind of stable storage, e.g.
//! a disk with different page size ... Because the log records shipped to
//! the replica are logical, they can be applied to disparate physical
//! system configurations."
//!
//! This module is that claim, executable. The replica is an ordinary
//! [`Engine`] started from the primary's bulk-loaded snapshot
//! ([`Engine::build`] / [`Engine::build_on_disk`] with the same rows) on
//! any page size, disk or backend. The shipper reads the primary's common
//! log and keeps only its *logical* content — table, key, images; the
//! piggybacked PIDs are meaningless on the replica and are ignored. At
//! each `TxnCommit` it replays that transaction's net effect on each key,
//! CLRs included (a savepoint rollback inside a committed transaction
//! leaves compensations behind), as one replica transaction through the
//! replica's own write path.

use crate::engine::Engine;
use lr_common::{Key, Result, TableId, TxnId, Value};
use lr_wal::{ClrAction, LogPayload, LogRecord};
use std::collections::{BTreeMap, HashMap};

/// One transaction's net effect: the last image it left on each key
/// (`None` when the key ended deleted).
type NetEffect = BTreeMap<(TableId, Key), Option<Value>>;

/// Replay every committed transaction in `records` on `replica`, in commit
/// order, one replica transaction each. Returns the number of writes the
/// replica made; a key whose net effect the replica already holds costs
/// none. Aborted and in-flight transactions never reach the replica.
///
/// The replica locates every write through **its own** placement
/// structure, so any page size / fill factor / tree shape works.
pub fn apply_committed_ops(replica: &Engine, records: &[LogRecord]) -> Result<u64> {
    let mut open: HashMap<TxnId, NetEffect> = HashMap::new();
    let mut applied = 0u64;
    for rec in records {
        let (txn, table, key, image) = match &rec.payload {
            LogPayload::Update { txn, table, key, after, .. } => {
                (txn, table, key, Some(after.clone()))
            }
            LogPayload::Insert { txn, table, key, value, .. } => {
                (txn, table, key, Some(value.clone()))
            }
            LogPayload::Delete { txn, table, key, .. } => (txn, table, key, None),
            LogPayload::Clr { txn, table, key, action, .. } => match action {
                ClrAction::RestoreValue(v) | ClrAction::InsertValue(v) => {
                    (txn, table, key, Some(v.clone()))
                }
                ClrAction::RemoveKey => (txn, table, key, None),
            },
            LogPayload::TxnCommit { txn } => {
                if let Some(net) = open.remove(txn) {
                    applied += replay(replica, net)?;
                }
                continue;
            }
            LogPayload::TxnAbort { txn } => {
                open.remove(txn);
                continue;
            }
            // DC bookkeeping records are primary-local physical detail.
            _ => continue,
        };
        open.entry(*txn).or_default().insert((*table, *key), image);
    }
    Ok(applied)
}

/// Install one committed transaction's net effect on `replica` as one
/// transaction, aborting it if any write fails.
fn replay(replica: &Engine, net: NetEffect) -> Result<u64> {
    let txn = replica.begin()?;
    let write = |(table, key): (TableId, Key), image: Option<Value>| -> Result<u64> {
        match (replica.read(table, key)?, image) {
            (Some(cur), Some(v)) if cur == v => Ok(0),
            (Some(_), Some(v)) => replica.update_in(txn, table, key, v).map(|_| 1),
            (None, Some(v)) => replica.insert_in(txn, table, key, v).map(|_| 1),
            (Some(_), None) => replica.delete_in(txn, table, key).map(|_| 1),
            (None, None) => Ok(0),
        }
    };
    match net.into_iter().try_fold(0, |n, (at, image)| Ok(n + write(at, image)?)) {
        Ok(n) => replica.commit(txn).map(|_| n),
        Err(e) => {
            let _ = replica.abort(txn);
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DEFAULT_TABLE;
    use crate::EngineConfig;
    use lr_common::{IoModel, Lsn};

    fn engine(page_size: usize) -> Engine {
        Engine::build(EngineConfig {
            initial_rows: 500,
            page_size,
            pool_pages: 64,
            io_model: IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap()
    }

    fn ship(primary: &Engine, replica: &Engine) -> u64 {
        let records = primary.wal().lock().scan_from(Lsn::NULL).unwrap();
        apply_committed_ops(replica, &records).unwrap()
    }

    #[test]
    fn replica_with_different_page_size_converges() {
        // Primary: 4 KiB pages.
        let primary = engine(4096);
        let t1 = primary.begin().unwrap();
        for k in 0..50 {
            primary.update(t1, k, format!("v{k}").into_bytes()).unwrap();
        }
        primary.commit(t1).unwrap();
        let t2 = primary.begin().unwrap();
        primary.insert(t2, 10_000, b"replicated-insert".to_vec()).unwrap();
        primary.delete(t2, 5).unwrap();
        primary.commit(t2).unwrap();
        // An aborted transaction must NOT reach the replica.
        let t3 = primary.begin().unwrap();
        primary.update(t3, 7, b"must-not-appear".to_vec()).unwrap();
        primary.abort(t3).unwrap();

        // Replica: 1 KiB pages, bulk-loaded with the primary's rows (a
        // replica starts from a snapshot).
        let replica = engine(1024);
        let applied = ship(&primary, &replica);
        assert!(applied >= 52, "50 updates + insert + delete, got {applied}");

        // Logical contents agree, physical shapes differ.
        let primary_rows = primary.scan_table(DEFAULT_TABLE).unwrap();
        assert_eq!(primary_rows, replica.scan_table(DEFAULT_TABLE).unwrap());
        replica.verify_table(DEFAULT_TABLE).unwrap();
        assert_ne!(
            primary.verify_table(DEFAULT_TABLE).unwrap().leaf_pages,
            replica.verify_table(DEFAULT_TABLE).unwrap().leaf_pages
        );
        // Key 7: committed as "v7" by t1; t3's aborted overwrite invisible.
        assert_eq!(replica.read(DEFAULT_TABLE, 7).unwrap().unwrap(), b"v7");
        assert_eq!(replica.read(DEFAULT_TABLE, 5).unwrap(), None, "delete replicated");
        replica.tc().locks().assert_no_leaks();
    }

    /// A savepoint rollback inside a committed transaction leaves CLRs in
    /// it: the replica must see the rolled-back write undone.
    #[test]
    fn replica_ships_a_savepoint_rollback_inside_a_committed_transaction() {
        let primary = engine(4096);
        let t = primary.begin().unwrap();
        primary.update(t, 1, b"kept".to_vec()).unwrap();
        let sp = primary.savepoint(t).unwrap();
        primary.update(t, 2, b"rolled-back".to_vec()).unwrap();
        primary.rollback_to(t, sp).unwrap();
        primary.commit(t).unwrap();

        let replica = engine(1024);
        assert_eq!(ship(&primary, &replica), 1, "only key 1 changed");
        assert_eq!(replica.read(DEFAULT_TABLE, 1).unwrap().unwrap(), b"kept");
        assert_eq!(
            replica.read(DEFAULT_TABLE, 2).unwrap(),
            primary.read(DEFAULT_TABLE, 2).unwrap(),
            "the rolled-back update reached the replica"
        );
        assert_eq!(
            primary.scan_table(DEFAULT_TABLE).unwrap(),
            replica.scan_table(DEFAULT_TABLE).unwrap()
        );
    }
}
