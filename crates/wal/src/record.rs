//! Log record taxonomy and binary framing.
//!
//! A record's body is `[u8 kind][fields]`; on the log it sits in a frame
//! `[u32 body-len][u32 crc32(body)][body]`. The record's LSN is its frame's
//! byte offset in the log, so LSNs are dense, ordered, and directly
//! convertible to log-page counts for the I/O cost accounting.

use lr_common::codec::{CodecError, Decoder, Encoder, FRAME_HEADER};
use lr_common::{Key, Lsn, PageId, TableId, TxnId, Value};

/// A decoded record paired with its LSN.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    pub lsn: Lsn,
    pub payload: LogPayload,
}

/// The action a compensation log record (CLR) re-applies.
///
/// CLRs are redo-only: undo of an update restores the before-image, undo of
/// an insert removes the key, undo of a delete re-inserts the old record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClrAction {
    /// Restore this value (compensates an update).
    RestoreValue(Value),
    /// Remove the key (compensates an insert).
    RemoveKey,
    /// Re-insert this value (compensates a delete).
    InsertValue(Value),
}

/// A structure-modification operation logged by the DC as a redo-only
/// system transaction (§2.1: "SQL Server increases concurrency for B-tree
/// SMOs by using system transactions").
///
/// We log full after-images of the pages the SMO rewrote. SMOs are rare
/// relative to updates (§2.1), so the extra volume is negligible, and image
/// logging makes SMO redo trivially idempotent via the pLSN test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmoRecord {
    /// After-images of every page the SMO rewrote: `(pid, image)`.
    pub pages: Vec<(PageId, Vec<u8>)>,
    /// If the SMO grew the tree, the table whose root moved and the new root.
    pub new_root: Option<(TableId, PageId)>,
}

/// The DC's Δ-log record (§4.1):
/// `(DirtySet, WrittenSet, FW-LSN, FirstDirty, TC-LSN)`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DeltaRecord {
    /// PIDs of pages made dirty since the previous Δ-log record, in
    /// dirtying order. Correctness requires *every* dirtied page appear
    /// (unlike BW records, which may miss flushes).
    pub dirty_set: Vec<PageId>,
    /// Per-dirtying LSNs, parallel to `dirty_set`. Only populated when the
    /// engine runs the Appendix-D.1 "perfect DPT" variant; empty otherwise.
    pub dirty_lsns: Vec<Lsn>,
    /// PIDs whose flush I/O completed during the interval.
    pub written_set: Vec<PageId>,
    /// TC end-of-stable-log captured when the interval's first flush
    /// completed; [`Lsn::NULL`] if no flush occurred.
    pub fw_lsn: Lsn,
    /// Index into `dirty_set` of the first page dirtied after the first
    /// flush; `dirty_set.len()` if none (all entries "before").
    pub first_dirty: u32,
    /// TC end-of-stable-log (eLSN from the latest EOSL) when this record was
    /// written.
    pub tc_lsn: Lsn,
}

/// Everything the common log can carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogPayload {
    /// Transaction start.
    TxnBegin { txn: TxnId },
    /// Transaction commit (durable once on the stable log).
    TxnCommit { txn: TxnId },
    /// Transaction abort (rollback completed).
    TxnAbort { txn: TxnId },
    /// A data update. Logical content (`table`, `key`, images) plus the
    /// piggybacked `pid` that only physiological recovery reads.
    Update {
        txn: TxnId,
        table: TableId,
        key: Key,
        /// Physiological piggyback: the page the update landed on.
        pid: PageId,
        /// Previous log record of the same transaction (undo chain).
        prev_lsn: Lsn,
        before: Value,
        after: Value,
    },
    /// A data insert (same piggyback convention).
    Insert { txn: TxnId, table: TableId, key: Key, pid: PageId, prev_lsn: Lsn, value: Value },
    /// A data delete.
    Delete { txn: TxnId, table: TableId, key: Key, pid: PageId, prev_lsn: Lsn, before: Value },
    /// Compensation record written during rollback/undo; redo-only.
    Clr {
        txn: TxnId,
        table: TableId,
        key: Key,
        pid: PageId,
        /// Next record to undo for this transaction (skips compensated work).
        undo_next: Lsn,
        action: ClrAction,
    },
    /// DC structure-modification system transaction (redo-only).
    Smo(SmoRecord),
    /// DC Δ-log record (§4.1) — feeds logical DPT construction.
    Delta(DeltaRecord),
    /// SQL-Server-style Buffer-Write record (§3.3) — `(WrittenSet, FW-LSN)`.
    Bw { written_set: Vec<PageId>, fw_lsn: Lsn },
    /// Checkpoint start marker.
    BeginCheckpoint,
    /// Checkpoint completion: points at its `bCkpt` and snapshots the
    /// transactions active at completion (with their latest LSN) so analysis
    /// can seed the transaction table.
    EndCheckpoint { bckpt_lsn: Lsn, active_txns: Vec<(TxnId, Lsn)> },
    /// ARIES-style checkpoint payload (§3.1 ablation): the runtime-captured
    /// DPT `(pid, rLSN)` pairs.
    AriesCheckpoint { dpt: Vec<(PageId, Lsn)> },
    /// DC's durable note of the redo-scan-start-point it confirmed (RSSP).
    Rssp { rssp_lsn: Lsn },
}

const TAG_TXN_BEGIN: u8 = 1;
const TAG_TXN_COMMIT: u8 = 2;
const TAG_TXN_ABORT: u8 = 3;
const TAG_UPDATE: u8 = 4;
const TAG_INSERT: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_CLR: u8 = 7;
const TAG_SMO: u8 = 8;
const TAG_DELTA: u8 = 9;
const TAG_BW: u8 = 10;
const TAG_BEGIN_CKPT: u8 = 11;
const TAG_END_CKPT: u8 = 12;
const TAG_ARIES_CKPT: u8 = 13;
const TAG_RSSP: u8 = 14;

impl LogPayload {
    /// Is this a TC data operation (the records logical redo re-submits)?
    pub fn is_data_op(&self) -> bool {
        matches!(
            self,
            LogPayload::Update { .. }
                | LogPayload::Insert { .. }
                | LogPayload::Delete { .. }
                | LogPayload::Clr { .. }
        )
    }

    /// The piggybacked PID of a data operation (what physiological recovery
    /// reads and logical recovery ignores).
    pub fn data_pid(&self) -> Option<PageId> {
        match self {
            LogPayload::Update { pid, .. }
            | LogPayload::Insert { pid, .. }
            | LogPayload::Delete { pid, .. }
            | LogPayload::Clr { pid, .. } => Some(*pid),
            _ => None,
        }
    }

    /// The transaction a record belongs to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            LogPayload::TxnBegin { txn }
            | LogPayload::TxnCommit { txn }
            | LogPayload::TxnAbort { txn }
            | LogPayload::Update { txn, .. }
            | LogPayload::Insert { txn, .. }
            | LogPayload::Delete { txn, .. }
            | LogPayload::Clr { txn, .. } => Some(*txn),
            _ => None,
        }
    }

    /// Serialize the payload body (kind tag + fields, no length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        self.encode_into(&mut e);
        e.finish()
    }

    /// Serialize the payload as one complete log frame,
    /// `[body-len u32][crc32(body) u32][body]` — what
    /// [`crate::Wal::append_frame`] copies onto the log. Encoding and
    /// checksum both happen here, on the caller's side of the log latch.
    pub fn encode_frame(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(FRAME_HEADER + 64);
        e.put_u64(0); // header, patched below once the body exists
        self.encode_into(&mut e);
        let mut frame = e.finish();
        let body = &frame[FRAME_HEADER..];
        let (len, crc) = (body.len() as u32, lr_common::crc32(body));
        frame[..4].copy_from_slice(&len.to_le_bytes());
        frame[4..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    fn encode_into(&self, e: &mut Encoder) {
        match self {
            LogPayload::TxnBegin { txn } => {
                e.put_u8(TAG_TXN_BEGIN);
                e.put_txn(*txn);
            }
            LogPayload::TxnCommit { txn } => {
                e.put_u8(TAG_TXN_COMMIT);
                e.put_txn(*txn);
            }
            LogPayload::TxnAbort { txn } => {
                e.put_u8(TAG_TXN_ABORT);
                e.put_txn(*txn);
            }
            LogPayload::Update { txn, table, key, pid, prev_lsn, before, after } => {
                e.put_u8(TAG_UPDATE);
                e.put_txn(*txn);
                e.put_table(*table);
                e.put_key(*key);
                e.put_pid(*pid);
                e.put_lsn(*prev_lsn);
                e.put_bytes(before);
                e.put_bytes(after);
            }
            LogPayload::Insert { txn, table, key, pid, prev_lsn, value } => {
                e.put_u8(TAG_INSERT);
                e.put_txn(*txn);
                e.put_table(*table);
                e.put_key(*key);
                e.put_pid(*pid);
                e.put_lsn(*prev_lsn);
                e.put_bytes(value);
            }
            LogPayload::Delete { txn, table, key, pid, prev_lsn, before } => {
                e.put_u8(TAG_DELETE);
                e.put_txn(*txn);
                e.put_table(*table);
                e.put_key(*key);
                e.put_pid(*pid);
                e.put_lsn(*prev_lsn);
                e.put_bytes(before);
            }
            LogPayload::Clr { txn, table, key, pid, undo_next, action } => {
                e.put_u8(TAG_CLR);
                e.put_txn(*txn);
                e.put_table(*table);
                e.put_key(*key);
                e.put_pid(*pid);
                e.put_lsn(*undo_next);
                match action {
                    ClrAction::RestoreValue(v) => {
                        e.put_u8(0);
                        e.put_bytes(v);
                    }
                    ClrAction::RemoveKey => e.put_u8(1),
                    ClrAction::InsertValue(v) => {
                        e.put_u8(2);
                        e.put_bytes(v);
                    }
                }
            }
            LogPayload::Smo(smo) => {
                e.put_u8(TAG_SMO);
                e.put_u32(smo.pages.len() as u32);
                for (pid, image) in &smo.pages {
                    e.put_pid(*pid);
                    e.put_bytes(image);
                }
                match &smo.new_root {
                    Some((table, root)) => {
                        e.put_u8(1);
                        e.put_table(*table);
                        e.put_pid(*root);
                    }
                    None => e.put_u8(0),
                }
            }
            LogPayload::Delta(d) => {
                e.put_u8(TAG_DELTA);
                e.put_pid_vec(&d.dirty_set);
                e.put_lsn_vec(&d.dirty_lsns);
                e.put_pid_vec(&d.written_set);
                e.put_lsn(d.fw_lsn);
                e.put_u32(d.first_dirty);
                e.put_lsn(d.tc_lsn);
            }
            LogPayload::Bw { written_set, fw_lsn } => {
                e.put_u8(TAG_BW);
                e.put_pid_vec(written_set);
                e.put_lsn(*fw_lsn);
            }
            LogPayload::BeginCheckpoint => e.put_u8(TAG_BEGIN_CKPT),
            LogPayload::EndCheckpoint { bckpt_lsn, active_txns } => {
                e.put_u8(TAG_END_CKPT);
                e.put_lsn(*bckpt_lsn);
                e.put_u32(active_txns.len() as u32);
                for (txn, lsn) in active_txns {
                    e.put_txn(*txn);
                    e.put_lsn(*lsn);
                }
            }
            LogPayload::AriesCheckpoint { dpt } => {
                e.put_u8(TAG_ARIES_CKPT);
                e.put_u32(dpt.len() as u32);
                for (pid, rlsn) in dpt {
                    e.put_pid(*pid);
                    e.put_lsn(*rlsn);
                }
            }
            LogPayload::Rssp { rssp_lsn } => {
                e.put_u8(TAG_RSSP);
                e.put_lsn(*rssp_lsn);
            }
        }
    }

    /// Decode a payload body produced by [`LogPayload::encode`].
    pub fn decode(bytes: &[u8]) -> Result<LogPayload, CodecError> {
        let mut d = Decoder::new(bytes);
        let tag = d.get_u8()?;
        let payload = match tag {
            TAG_TXN_BEGIN => LogPayload::TxnBegin { txn: d.get_txn()? },
            TAG_TXN_COMMIT => LogPayload::TxnCommit { txn: d.get_txn()? },
            TAG_TXN_ABORT => LogPayload::TxnAbort { txn: d.get_txn()? },
            TAG_UPDATE => LogPayload::Update {
                txn: d.get_txn()?,
                table: d.get_table()?,
                key: d.get_key()?,
                pid: d.get_pid()?,
                prev_lsn: d.get_lsn()?,
                before: d.get_bytes()?,
                after: d.get_bytes()?,
            },
            TAG_INSERT => LogPayload::Insert {
                txn: d.get_txn()?,
                table: d.get_table()?,
                key: d.get_key()?,
                pid: d.get_pid()?,
                prev_lsn: d.get_lsn()?,
                value: d.get_bytes()?,
            },
            TAG_DELETE => LogPayload::Delete {
                txn: d.get_txn()?,
                table: d.get_table()?,
                key: d.get_key()?,
                pid: d.get_pid()?,
                prev_lsn: d.get_lsn()?,
                before: d.get_bytes()?,
            },
            TAG_CLR => {
                let txn = d.get_txn()?;
                let table = d.get_table()?;
                let key = d.get_key()?;
                let pid = d.get_pid()?;
                let undo_next = d.get_lsn()?;
                let action = match d.get_u8()? {
                    0 => ClrAction::RestoreValue(d.get_bytes()?),
                    1 => ClrAction::RemoveKey,
                    2 => ClrAction::InsertValue(d.get_bytes()?),
                    t => return Err(CodecError::BadTag { context: "ClrAction", tag: t }),
                };
                LogPayload::Clr { txn, table, key, pid, undo_next, action }
            }
            TAG_SMO => {
                let n = d.get_u32()? as usize;
                let mut pages = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let pid = d.get_pid()?;
                    let image = d.get_bytes()?;
                    pages.push((pid, image));
                }
                let new_root = match d.get_u8()? {
                    0 => None,
                    1 => Some((d.get_table()?, d.get_pid()?)),
                    t => return Err(CodecError::BadTag { context: "SmoRecord.new_root", tag: t }),
                };
                LogPayload::Smo(SmoRecord { pages, new_root })
            }
            TAG_DELTA => LogPayload::Delta(DeltaRecord {
                dirty_set: d.get_pid_vec()?,
                dirty_lsns: d.get_lsn_vec()?,
                written_set: d.get_pid_vec()?,
                fw_lsn: d.get_lsn()?,
                first_dirty: d.get_u32()?,
                tc_lsn: d.get_lsn()?,
            }),
            TAG_BW => LogPayload::Bw { written_set: d.get_pid_vec()?, fw_lsn: d.get_lsn()? },
            TAG_BEGIN_CKPT => LogPayload::BeginCheckpoint,
            TAG_END_CKPT => {
                let bckpt_lsn = d.get_lsn()?;
                let n = d.get_u32()? as usize;
                let mut active_txns = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    active_txns.push((d.get_txn()?, d.get_lsn()?));
                }
                LogPayload::EndCheckpoint { bckpt_lsn, active_txns }
            }
            TAG_ARIES_CKPT => {
                let n = d.get_u32()? as usize;
                let mut dpt = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    dpt.push((d.get_pid()?, d.get_lsn()?));
                }
                LogPayload::AriesCheckpoint { dpt }
            }
            TAG_RSSP => LogPayload::Rssp { rssp_lsn: d.get_lsn()? },
            t => return Err(CodecError::BadTag { context: "LogPayload", tag: t }),
        };
        d.expect_done()?;
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: LogPayload) {
        let bytes = p.encode();
        let back = LogPayload::decode(&bytes).expect("decode");
        assert_eq!(back, p);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(LogPayload::TxnBegin { txn: TxnId(1) });
        roundtrip(LogPayload::TxnCommit { txn: TxnId(2) });
        roundtrip(LogPayload::TxnAbort { txn: TxnId(3) });
        roundtrip(LogPayload::Update {
            txn: TxnId(4),
            table: TableId(1),
            key: 42,
            pid: PageId(7),
            prev_lsn: Lsn(100),
            before: b"old".to_vec(),
            after: b"new".to_vec(),
        });
        roundtrip(LogPayload::Insert {
            txn: TxnId(5),
            table: TableId(1),
            key: 43,
            pid: PageId(8),
            prev_lsn: Lsn::NULL,
            value: b"v".to_vec(),
        });
        roundtrip(LogPayload::Delete {
            txn: TxnId(6),
            table: TableId(2),
            key: 44,
            pid: PageId(9),
            prev_lsn: Lsn(50),
            before: b"gone".to_vec(),
        });
        for action in [
            ClrAction::RestoreValue(b"x".to_vec()),
            ClrAction::RemoveKey,
            ClrAction::InsertValue(b"y".to_vec()),
        ] {
            roundtrip(LogPayload::Clr {
                txn: TxnId(7),
                table: TableId(1),
                key: 45,
                pid: PageId(10),
                undo_next: Lsn(33),
                action,
            });
        }
        roundtrip(LogPayload::Smo(SmoRecord {
            pages: vec![(PageId(1), vec![1, 2, 3]), (PageId(2), vec![4, 5])],
            new_root: Some((TableId(1), PageId(3))),
        }));
        roundtrip(LogPayload::Smo(SmoRecord { pages: vec![], new_root: None }));
        roundtrip(LogPayload::Delta(DeltaRecord {
            dirty_set: vec![PageId(1), PageId(2), PageId(1)],
            dirty_lsns: vec![Lsn(10), Lsn(20), Lsn(30)],
            written_set: vec![PageId(2)],
            fw_lsn: Lsn(15),
            first_dirty: 2,
            tc_lsn: Lsn(25),
        }));
        roundtrip(LogPayload::Bw { written_set: vec![PageId(3)], fw_lsn: Lsn(5) });
        roundtrip(LogPayload::BeginCheckpoint);
        roundtrip(LogPayload::EndCheckpoint {
            bckpt_lsn: Lsn(77),
            active_txns: vec![(TxnId(1), Lsn(80)), (TxnId(2), Lsn(82))],
        });
        roundtrip(LogPayload::AriesCheckpoint { dpt: vec![(PageId(4), Lsn(60))] });
        roundtrip(LogPayload::Rssp { rssp_lsn: Lsn(99) });
    }

    #[test]
    fn data_op_classification() {
        let upd = LogPayload::Update {
            txn: TxnId(1),
            table: TableId(1),
            key: 1,
            pid: PageId(5),
            prev_lsn: Lsn::NULL,
            before: vec![],
            after: vec![],
        };
        assert!(upd.is_data_op());
        assert_eq!(upd.data_pid(), Some(PageId(5)));
        assert_eq!(upd.txn(), Some(TxnId(1)));
        assert!(!LogPayload::BeginCheckpoint.is_data_op());
        assert_eq!(LogPayload::BeginCheckpoint.data_pid(), None);
        assert_eq!(LogPayload::Rssp { rssp_lsn: Lsn(1) }.txn(), None);
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(LogPayload::decode(&[200]), Err(CodecError::BadTag { .. })));
        assert!(LogPayload::decode(&[]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = LogPayload::BeginCheckpoint.encode();
        bytes.push(0xFF);
        assert!(LogPayload::decode(&bytes).is_err());
    }
}
