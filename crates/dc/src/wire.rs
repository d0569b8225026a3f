//! The TC↔DC wire protocol: every [`crate::DcApi`] operation as a
//! serializable request/reply pair.
//!
//! The paper's architecture (§2, Figure 1) allows the TC and DC to live in
//! separate processes or on separate machines — the contract is a *message*
//! protocol, not a shared-memory API. This module pins that down: a
//! [`DcRequest`] names one logical operation and its arguments, a
//! [`DcReply`] carries the result (or a [`WireError`] mirroring
//! [`lr_common::Error`]), and both encode through the workspace codec into
//! the length-prefixed CRC-checked frame format of
//! [`lr_common::codec::frame`].
//!
//! One trait method needs reshaping for message passing, because its local
//! signature hands out a borrow-carrying guard:
//! [`crate::DcApi::prepare_op`] returns a [`crate::PreparedOp`] whose guard
//! pins latches until apply. Over the wire the *server* parks that guard
//! in a token map and replies [`DcReply::Prepared`]`{token, pid, before}`;
//! [`DcRequest::Apply`]`{token, rec}` applies under the parked guard and
//! releases it in the same exchange. Only a prepare abandoned before apply
//! sends [`DcRequest::ReleaseOp`]`{token}`, from the proxy guard's drop.
//! Undo's compensations take the same two crossings as any write.
//!
//! The release is idempotent (releasing an unknown token is a no-op), so a
//! client retrying over a flaky transport can never wedge the server.

use crate::api::TableSummary;
use crate::dc::{DcStats, WriteIntent};
use crate::dpt::Dpt;
use crate::redo::{Family, Prefetch, RedoPlan};
use crate::telemetry::WireTelemetrySnapshot;
use lr_common::codec::{CodecError, Decoder, Encoder};
use lr_common::{Error, Histogram, Key, Lsn, PageId, RecoveryBreakdown, TableId, Value};
use lr_wal::{LogPayload, LogRecord};

// ----------------------------------------------------------------------
// requests
// ----------------------------------------------------------------------

/// One logical operation crossing the TC→DC boundary. Variants map 1:1
/// onto [`crate::DcApi`] methods except for the token-based reshape
/// described in the module docs ([`DcRequest::ReleaseOp`]) and
/// [`DcRequest::Stats`], which carries
/// the [`crate::DcIntrospect::stats`] snapshot for deployments where the
/// DC's counters live on the far side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcRequest {
    Read {
        table: TableId,
        key: Key,
    },
    ReadRange {
        table: TableId,
        from: Key,
        to: Key,
    },
    ScanAll {
        table: TableId,
    },
    PrepareOp {
        table: TableId,
        key: Key,
        intent: WireIntent,
    },
    /// Drop the server-held guard of a parked [`DcReply::Prepared`] that
    /// will not be applied.
    ReleaseOp {
        token: u64,
    },
    /// Apply `rec` under the guard parked as `token`, then release it.
    Apply {
        token: u64,
        rec: LogRecord,
    },
    Eosl {
        elsn: Lsn,
    },
    Rssp {
        rssp_lsn: Lsn,
    },
    DrainInFlightOps,
    Crash,
    PumpEvents,
    ForceEmit,
    CleanerPass,
    CompactPass,
    CreateTable {
        table: TableId,
    },
    RegisterTable {
        table: TableId,
        root: PageId,
    },
    TableRoot {
        table: TableId,
    },
    VerifyTable {
        table: TableId,
    },
    /// The whole redo pass: the scan window and the analysis's plan.
    Redo {
        window: Vec<LogRecord>,
        plan: RedoPlan,
    },
    Stats,
    /// Pull the server's [`WireTelemetrySnapshot`] — its per-op view of
    /// this conversation — across the boundary.
    Introspect,
}

/// [`WriteIntent`] with a fixed-width length (the in-memory type uses
/// `usize`, which has no portable wire width).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireIntent {
    Insert { value_len: u64 },
    Update { value_len: u64 },
    Delete,
}

impl From<WriteIntent> for WireIntent {
    fn from(i: WriteIntent) -> WireIntent {
        match i {
            WriteIntent::Insert { value_len } => WireIntent::Insert { value_len: value_len as u64 },
            WriteIntent::Update { value_len } => WireIntent::Update { value_len: value_len as u64 },
            WriteIntent::Delete => WireIntent::Delete,
        }
    }
}

impl From<WireIntent> for WriteIntent {
    fn from(i: WireIntent) -> WriteIntent {
        match i {
            WireIntent::Insert { value_len } => {
                WriteIntent::Insert { value_len: value_len as usize }
            }
            WireIntent::Update { value_len } => {
                WriteIntent::Update { value_len: value_len as usize }
            }
            WireIntent::Delete => WriteIntent::Delete,
        }
    }
}

// ----------------------------------------------------------------------
// replies
// ----------------------------------------------------------------------

/// The result of one [`DcRequest`]. Exactly one reply variant is valid per
/// request variant; a proxy receiving any other shape treats the exchange
/// as a protocol violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DcReply {
    Unit,
    Value(Option<Value>),
    Rows(Vec<(Key, Value)>),
    /// A prepared write parked server-side: once logged, consume it with
    /// [`DcRequest::Apply`]`{token, rec}` (or abandon it with
    /// [`DcRequest::ReleaseOp`]`{token}`).
    Prepared {
        token: u64,
        pid: PageId,
        before: Option<Value>,
    },
    Count(u64),
    Pid(PageId),
    Summary(TableSummary),
    /// The redo shard of one [`DcRequest::Redo`] (boxed like `Stats`).
    Redone(Box<RecoveryBreakdown>),
    // Boxed: a DcStats snapshot (two inline histograms) dwarfs every
    // other reply shape, and stats crossings are cold-path.
    Stats(Box<DcStats>),
    /// The server's per-op wire accumulators ([`DcRequest::Introspect`]).
    WireTelemetry(WireTelemetrySnapshot),
    Err(WireError),
}

// ----------------------------------------------------------------------
// errors in transit
// ----------------------------------------------------------------------

/// [`lr_common::Error`] flattened for the wire — variant-for-variant, with
/// the one lossy edge that `Io` carries only the error's message (a raw
/// `std::io::Error` is not serializable).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    PageOutOfRange { pid: PageId, pages: u64 },
    PageFull { pid: PageId, needed: u64, free: u64 },
    KeyNotFound { table: TableId, key: Key },
    DuplicateKey { table: TableId, key: Key },
    UnknownTable(TableId),
    UnknownTxn(lr_common::TxnId),
    TxnNotActive(lr_common::TxnId),
    LockConflict { txn: lr_common::TxnId, table: TableId, key: Key },
    PoolExhausted { capacity: u64 },
    LogCorrupt { lsn: Lsn, reason: String },
    WalViolation { pid: PageId, plsn: Lsn, elsn: Lsn },
    TreeCorrupt(String),
    RecoveryInvariant(String),
    ServerBusy { active: u64, cap: u64 },
    Io(String),
}

impl From<&Error> for WireError {
    fn from(e: &Error) -> WireError {
        match e {
            Error::PageOutOfRange { pid, pages } => {
                WireError::PageOutOfRange { pid: *pid, pages: *pages }
            }
            Error::PageFull { pid, needed, free } => {
                WireError::PageFull { pid: *pid, needed: *needed as u64, free: *free as u64 }
            }
            Error::KeyNotFound { table, key } => {
                WireError::KeyNotFound { table: *table, key: *key }
            }
            Error::DuplicateKey { table, key } => {
                WireError::DuplicateKey { table: *table, key: *key }
            }
            Error::UnknownTable(t) => WireError::UnknownTable(*t),
            Error::UnknownTxn(t) => WireError::UnknownTxn(*t),
            Error::TxnNotActive(t) => WireError::TxnNotActive(*t),
            Error::LockConflict { txn, table, key } => {
                WireError::LockConflict { txn: *txn, table: *table, key: *key }
            }
            Error::PoolExhausted { capacity } => {
                WireError::PoolExhausted { capacity: *capacity as u64 }
            }
            Error::LogCorrupt { lsn, reason } => {
                WireError::LogCorrupt { lsn: *lsn, reason: reason.clone() }
            }
            Error::WalViolation { pid, plsn, elsn } => {
                WireError::WalViolation { pid: *pid, plsn: *plsn, elsn: *elsn }
            }
            Error::TreeCorrupt(m) => WireError::TreeCorrupt(m.clone()),
            Error::RecoveryInvariant(m) => WireError::RecoveryInvariant(m.clone()),
            Error::ServerBusy { active, cap } => {
                WireError::ServerBusy { active: *active, cap: *cap }
            }
            Error::Io(e) => WireError::Io(e.to_string()),
        }
    }
}

impl From<WireError> for Error {
    fn from(w: WireError) -> Error {
        match w {
            WireError::PageOutOfRange { pid, pages } => Error::PageOutOfRange { pid, pages },
            WireError::PageFull { pid, needed, free } => {
                Error::PageFull { pid, needed: needed as usize, free: free as usize }
            }
            WireError::KeyNotFound { table, key } => Error::KeyNotFound { table, key },
            WireError::DuplicateKey { table, key } => Error::DuplicateKey { table, key },
            WireError::UnknownTable(t) => Error::UnknownTable(t),
            WireError::UnknownTxn(t) => Error::UnknownTxn(t),
            WireError::TxnNotActive(t) => Error::TxnNotActive(t),
            WireError::LockConflict { txn, table, key } => Error::LockConflict { txn, table, key },
            WireError::PoolExhausted { capacity } => {
                Error::PoolExhausted { capacity: capacity as usize }
            }
            WireError::LogCorrupt { lsn, reason } => Error::LogCorrupt { lsn, reason },
            WireError::WalViolation { pid, plsn, elsn } => Error::WalViolation { pid, plsn, elsn },
            WireError::TreeCorrupt(m) => Error::TreeCorrupt(m),
            WireError::RecoveryInvariant(m) => Error::RecoveryInvariant(m),
            WireError::ServerBusy { active, cap } => Error::ServerBusy { active, cap },
            WireError::Io(m) => Error::Io(std::io::Error::other(m)),
        }
    }
}

// ----------------------------------------------------------------------
// field codecs
// ----------------------------------------------------------------------

fn put_opt_value(e: &mut Encoder, v: &Option<Value>) {
    match v {
        Some(v) => {
            e.put_u8(1);
            e.put_bytes(v);
        }
        None => e.put_u8(0),
    }
}

fn get_opt_value(d: &mut Decoder<'_>) -> Result<Option<Value>, CodecError> {
    match d.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(d.get_bytes()?)),
        t => Err(CodecError::BadTag { context: "optional value", tag: t }),
    }
}

fn put_string(e: &mut Encoder, s: &str) {
    e.put_bytes(s.as_bytes());
}

fn get_string(d: &mut Decoder<'_>) -> Result<String, CodecError> {
    Ok(String::from_utf8_lossy(&d.get_bytes()?).into_owned())
}

fn put_intent(e: &mut Encoder, i: WireIntent) {
    match i {
        WireIntent::Insert { value_len } => {
            e.put_u8(0);
            e.put_u64(value_len);
        }
        WireIntent::Update { value_len } => {
            e.put_u8(1);
            e.put_u64(value_len);
        }
        WireIntent::Delete => e.put_u8(2),
    }
}

fn get_intent(d: &mut Decoder<'_>) -> Result<WireIntent, CodecError> {
    match d.get_u8()? {
        0 => Ok(WireIntent::Insert { value_len: d.get_u64()? }),
        1 => Ok(WireIntent::Update { value_len: d.get_u64()? }),
        2 => Ok(WireIntent::Delete),
        t => Err(CodecError::BadTag { context: "write intent", tag: t }),
    }
}

/// A [`LogRecord`] rides the wire as `lsn` + its existing WAL body
/// encoding — the one record format the whole workspace shares.
fn put_record(e: &mut Encoder, rec: &LogRecord) {
    e.put_lsn(rec.lsn);
    e.put_bytes(&rec.payload.encode());
}

fn get_record(d: &mut Decoder<'_>) -> Result<LogRecord, CodecError> {
    let lsn = d.get_lsn()?;
    let body = d.get_bytes()?;
    Ok(LogRecord { lsn, payload: LogPayload::decode(&body)? })
}

fn put_records(e: &mut Encoder, recs: &[LogRecord]) {
    e.put_u32(recs.len() as u32);
    for r in recs {
        put_record(e, r);
    }
}

fn get_records(d: &mut Decoder<'_>) -> Result<Vec<LogRecord>, CodecError> {
    let n = d.get_u32()? as usize;
    (0..n).map(|_| get_record(d)).collect()
}

/// A [`Dpt`] rides as `(pid, rLSN, lastLSN)` triples in PID order.
/// Rebuilding exploits [`Dpt::add`]'s sticky-rLSN rule — the first add
/// pins rLSN, the second only advances lastLSN.
fn put_dpt(e: &mut Encoder, dpt: &Dpt) {
    let entries = dpt.sorted_entries();
    e.put_u32(entries.len() as u32);
    for (pid, entry) in entries {
        e.put_pid(pid);
        e.put_lsn(entry.rlsn);
        e.put_lsn(entry.last_lsn);
    }
}

fn get_dpt(d: &mut Decoder<'_>) -> Result<Dpt, CodecError> {
    let mut dpt = Dpt::new();
    for _ in 0..d.get_u32()? {
        let (pid, rlsn, last_lsn) = (d.get_pid()?, d.get_lsn()?, d.get_lsn()?);
        dpt.add(pid, rlsn);
        dpt.add(pid, last_lsn);
    }
    Ok(dpt)
}

/// The most redo workers a `Redo` frame may ask for. The partitioned
/// pipeline allocates a queue and a thread per worker before it reads a
/// record, so a count off the wire is bounded before it is trusted.
pub const MAX_WIRE_REDO_WORKERS: u64 = 1024;

/// A [`RedoPlan`]: family and prefetch tags, the preload flag, the
/// optional DPT, the tail boundary, the PF-list, the window's log pages
/// and the worker count.
fn put_plan(e: &mut Encoder, plan: &RedoPlan) {
    e.put_u8(match plan.family {
        Family::Logical => 0,
        Family::Physiological => 1,
    });
    e.put_u8(match plan.prefetch {
        Prefetch::None => 0,
        Prefetch::PfList => 1,
        Prefetch::DptOrder => 2,
        Prefetch::LogDriven => 3,
    });
    e.put_u8(plan.preload as u8);
    match &plan.dpt {
        Some(dpt) => {
            e.put_u8(1);
            put_dpt(e, dpt);
        }
        None => e.put_u8(0),
    }
    e.put_lsn(plan.tail_from);
    e.put_u32(plan.pf_list.len() as u32);
    for pid in &plan.pf_list {
        e.put_pid(*pid);
    }
    e.put_u64(plan.log_pages);
    e.put_u64(plan.workers as u64);
}

fn get_plan(d: &mut Decoder<'_>) -> Result<RedoPlan, CodecError> {
    let family = match d.get_u8()? {
        0 => Family::Logical,
        1 => Family::Physiological,
        t => return Err(CodecError::BadTag { context: "redo family", tag: t }),
    };
    let prefetch = match d.get_u8()? {
        0 => Prefetch::None,
        1 => Prefetch::PfList,
        2 => Prefetch::DptOrder,
        3 => Prefetch::LogDriven,
        t => return Err(CodecError::BadTag { context: "redo prefetch", tag: t }),
    };
    let preload = match d.get_u8()? {
        0 => false,
        1 => true,
        t => return Err(CodecError::BadTag { context: "redo preload", tag: t }),
    };
    let dpt = match d.get_u8()? {
        0 => None,
        1 => Some(get_dpt(d)?),
        t => return Err(CodecError::BadTag { context: "optional dpt", tag: t }),
    };
    let tail_from = d.get_lsn()?;
    let n = d.get_u32()? as usize;
    let mut pf_list = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        pf_list.push(d.get_pid()?);
    }
    let log_pages = d.get_u64()?;
    let workers = match d.get_u64()? {
        n if n <= MAX_WIRE_REDO_WORKERS => n as usize,
        value => {
            let max = MAX_WIRE_REDO_WORKERS;
            return Err(CodecError::OutOfRange { context: "redo workers", value, max });
        }
    };
    Ok(RedoPlan { family, prefetch, preload, dpt, tail_from, pf_list, log_pages, workers })
}

/// The redo shard rides as its [`RecoveryBreakdown::redo_shard_mut`]
/// fields, in that order.
fn put_shard(e: &mut Encoder, shard: &RecoveryBreakdown) {
    for field in shard.clone().redo_shard_mut() {
        e.put_u64(*field);
    }
}

fn get_shard(d: &mut Decoder<'_>) -> Result<RecoveryBreakdown, CodecError> {
    let mut shard = RecoveryBreakdown::default();
    for field in shard.redo_shard_mut() {
        *field = d.get_u64()?;
    }
    Ok(shard)
}

fn put_rows(e: &mut Encoder, rows: &[(Key, Value)]) {
    e.put_u32(rows.len() as u32);
    for (k, v) in rows {
        e.put_key(*k);
        e.put_bytes(v);
    }
}

fn get_rows(d: &mut Decoder<'_>) -> Result<Vec<(Key, Value)>, CodecError> {
    let n = d.get_u32()? as usize;
    let mut rows = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        rows.push((d.get_key()?, d.get_bytes()?));
    }
    Ok(rows)
}

fn put_stats(e: &mut Encoder, s: &DcStats) {
    e.put_u64(s.delta_records_written);
    e.put_u64(s.bw_records_written);
    e.put_u64(s.smo_records_written);
    e.put_u64(s.delta_bytes_logged);
    e.put_u64(s.bw_bytes_logged);
    e.put_u64(s.optimistic_point_reads);
    e.put_u64(s.optimistic_range_scans);
    e.put_u64(s.read_fallbacks);
    e.put_u64(s.scan_fallbacks);
    e.put_u64(s.optimistic_writes);
    e.put_u64(s.write_fallbacks);
    e.put_u64(s.segments_compacted);
    e.put_u64(s.live_bytes_migrated);
    e.put_u64(s.dead_bytes_reclaimed);
    e.put_u64(s.log_read_cache_hits);
    e.put_u64(s.log_read_cache_misses);
    s.read_restart_hist.encode_into(e);
    s.write_restart_hist.encode_into(e);
}

fn get_stats(d: &mut Decoder<'_>) -> Result<DcStats, CodecError> {
    Ok(DcStats {
        delta_records_written: d.get_u64()?,
        bw_records_written: d.get_u64()?,
        smo_records_written: d.get_u64()?,
        delta_bytes_logged: d.get_u64()?,
        bw_bytes_logged: d.get_u64()?,
        optimistic_point_reads: d.get_u64()?,
        optimistic_range_scans: d.get_u64()?,
        read_fallbacks: d.get_u64()?,
        scan_fallbacks: d.get_u64()?,
        optimistic_writes: d.get_u64()?,
        write_fallbacks: d.get_u64()?,
        segments_compacted: d.get_u64()?,
        live_bytes_migrated: d.get_u64()?,
        dead_bytes_reclaimed: d.get_u64()?,
        log_read_cache_hits: d.get_u64()?,
        log_read_cache_misses: d.get_u64()?,
        read_restart_hist: Histogram::decode_from(d)?,
        write_restart_hist: Histogram::decode_from(d)?,
    })
}

/// Encode a [`WireError`] into an encoder — shared by the DC reply codec
/// and the client-protocol crate, so both wires carry one error format.
pub fn put_error(e: &mut Encoder, w: &WireError) {
    match w {
        WireError::PageOutOfRange { pid, pages } => {
            e.put_u8(1);
            e.put_pid(*pid);
            e.put_u64(*pages);
        }
        WireError::PageFull { pid, needed, free } => {
            e.put_u8(2);
            e.put_pid(*pid);
            e.put_u64(*needed);
            e.put_u64(*free);
        }
        WireError::KeyNotFound { table, key } => {
            e.put_u8(3);
            e.put_table(*table);
            e.put_key(*key);
        }
        WireError::DuplicateKey { table, key } => {
            e.put_u8(4);
            e.put_table(*table);
            e.put_key(*key);
        }
        WireError::UnknownTable(t) => {
            e.put_u8(5);
            e.put_table(*t);
        }
        WireError::UnknownTxn(t) => {
            e.put_u8(6);
            e.put_txn(*t);
        }
        WireError::TxnNotActive(t) => {
            e.put_u8(7);
            e.put_txn(*t);
        }
        WireError::LockConflict { txn, table, key } => {
            e.put_u8(8);
            e.put_txn(*txn);
            e.put_table(*table);
            e.put_key(*key);
        }
        WireError::PoolExhausted { capacity } => {
            e.put_u8(9);
            e.put_u64(*capacity);
        }
        WireError::LogCorrupt { lsn, reason } => {
            e.put_u8(10);
            e.put_lsn(*lsn);
            put_string(e, reason);
        }
        WireError::WalViolation { pid, plsn, elsn } => {
            e.put_u8(11);
            e.put_pid(*pid);
            e.put_lsn(*plsn);
            e.put_lsn(*elsn);
        }
        WireError::TreeCorrupt(m) => {
            e.put_u8(12);
            put_string(e, m);
        }
        WireError::RecoveryInvariant(m) => {
            e.put_u8(13);
            put_string(e, m);
        }
        WireError::Io(m) => {
            e.put_u8(14);
            put_string(e, m);
        }
        WireError::ServerBusy { active, cap } => {
            e.put_u8(15);
            e.put_u64(*active);
            e.put_u64(*cap);
        }
    }
}

/// Decode a [`WireError`] (inverse of [`put_error`]).
pub fn get_error(d: &mut Decoder<'_>) -> Result<WireError, CodecError> {
    Ok(match d.get_u8()? {
        1 => WireError::PageOutOfRange { pid: d.get_pid()?, pages: d.get_u64()? },
        2 => WireError::PageFull { pid: d.get_pid()?, needed: d.get_u64()?, free: d.get_u64()? },
        3 => WireError::KeyNotFound { table: d.get_table()?, key: d.get_key()? },
        4 => WireError::DuplicateKey { table: d.get_table()?, key: d.get_key()? },
        5 => WireError::UnknownTable(d.get_table()?),
        6 => WireError::UnknownTxn(d.get_txn()?),
        7 => WireError::TxnNotActive(d.get_txn()?),
        8 => {
            WireError::LockConflict { txn: d.get_txn()?, table: d.get_table()?, key: d.get_key()? }
        }
        9 => WireError::PoolExhausted { capacity: d.get_u64()? },
        10 => WireError::LogCorrupt { lsn: d.get_lsn()?, reason: get_string(d)? },
        11 => WireError::WalViolation { pid: d.get_pid()?, plsn: d.get_lsn()?, elsn: d.get_lsn()? },
        12 => WireError::TreeCorrupt(get_string(d)?),
        13 => WireError::RecoveryInvariant(get_string(d)?),
        14 => WireError::Io(get_string(d)?),
        15 => WireError::ServerBusy { active: d.get_u64()?, cap: d.get_u64()? },
        t => return Err(CodecError::BadTag { context: "wire error", tag: t }),
    })
}

// ----------------------------------------------------------------------
// message codecs
// ----------------------------------------------------------------------

const REQ_READ: u8 = 1;
const REQ_READ_RANGE: u8 = 2;
const REQ_SCAN_ALL: u8 = 3;
const REQ_PREPARE_OP: u8 = 4;
const REQ_RELEASE_OP: u8 = 5;
const REQ_APPLY: u8 = 6;
const REQ_EOSL: u8 = 7;
const REQ_RSSP: u8 = 8;
const REQ_DRAIN: u8 = 9;
const REQ_CRASH: u8 = 10;
const REQ_PUMP_EVENTS: u8 = 11;
const REQ_FORCE_EMIT: u8 = 12;
const REQ_CLEANER_PASS: u8 = 13;
const REQ_COMPACT_PASS: u8 = 14;
const REQ_CREATE_TABLE: u8 = 15;
const REQ_REGISTER_TABLE: u8 = 16;
const REQ_TABLE_ROOT: u8 = 17;
const REQ_VERIFY_TABLE: u8 = 18;
const REQ_REDO: u8 = 19;
const REQ_STATS: u8 = 20;
const REQ_INTROSPECT: u8 = 21;

/// The highest assigned request tag — sizes per-op telemetry tables.
pub const MAX_REQ_TAG: u8 = REQ_INTROSPECT;

/// Human-readable name of a request tag, for telemetry rows and trace
/// events. Unknown tags render as `"unknown"`.
pub fn op_name(tag: u8) -> &'static str {
    match tag {
        REQ_READ => "read",
        REQ_READ_RANGE => "read_range",
        REQ_SCAN_ALL => "scan_all",
        REQ_PREPARE_OP => "prepare_op",
        REQ_RELEASE_OP => "release_op",
        REQ_APPLY => "apply",
        REQ_EOSL => "eosl",
        REQ_RSSP => "rssp",
        REQ_DRAIN => "drain_in_flight_ops",
        REQ_CRASH => "crash",
        REQ_PUMP_EVENTS => "pump_events",
        REQ_FORCE_EMIT => "force_emit",
        REQ_CLEANER_PASS => "cleaner_pass",
        REQ_COMPACT_PASS => "compact_pass",
        REQ_CREATE_TABLE => "create_table",
        REQ_REGISTER_TABLE => "register_table",
        REQ_TABLE_ROOT => "table_root",
        REQ_VERIFY_TABLE => "verify_table",
        REQ_REDO => "redo",
        REQ_STATS => "stats",
        REQ_INTROSPECT => "introspect",
        _ => "unknown",
    }
}

/// The body of [`DcRequest::Apply`], encoded from a borrowed record (the
/// write path's hot request: no owned [`DcRequest`], no image copies).
pub fn encode_apply(token: u64, rec: &LogRecord) -> Vec<u8> {
    let mut e = Encoder::with_capacity(64);
    e.put_u8(REQ_APPLY);
    e.put_u64(token);
    put_record(&mut e, rec);
    e.finish()
}

/// The body of [`DcRequest::Redo`], encoded from the borrowed window (a
/// recovery's largest message: no owned copy of it is made).
pub fn encode_redo(window: &[LogRecord], plan: &RedoPlan) -> Vec<u8> {
    let mut e = Encoder::with_capacity(64 * window.len() + 64);
    e.put_u8(REQ_REDO);
    put_records(&mut e, window);
    put_plan(&mut e, plan);
    e.finish()
}

impl DcRequest {
    /// Serialize (tag + fields, no frame — callers wrap with
    /// [`lr_common::codec::frame`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            DcRequest::Read { table, key } => {
                e.put_u8(REQ_READ);
                e.put_table(*table);
                e.put_key(*key);
            }
            DcRequest::ReadRange { table, from, to } => {
                e.put_u8(REQ_READ_RANGE);
                e.put_table(*table);
                e.put_key(*from);
                e.put_key(*to);
            }
            DcRequest::ScanAll { table } => {
                e.put_u8(REQ_SCAN_ALL);
                e.put_table(*table);
            }
            DcRequest::PrepareOp { table, key, intent } => {
                e.put_u8(REQ_PREPARE_OP);
                e.put_table(*table);
                e.put_key(*key);
                put_intent(&mut e, *intent);
            }
            DcRequest::ReleaseOp { token } => {
                e.put_u8(REQ_RELEASE_OP);
                e.put_u64(*token);
            }
            DcRequest::Apply { token, rec } => return encode_apply(*token, rec),
            DcRequest::Eosl { elsn } => {
                e.put_u8(REQ_EOSL);
                e.put_lsn(*elsn);
            }
            DcRequest::Rssp { rssp_lsn } => {
                e.put_u8(REQ_RSSP);
                e.put_lsn(*rssp_lsn);
            }
            DcRequest::DrainInFlightOps => e.put_u8(REQ_DRAIN),
            DcRequest::Crash => e.put_u8(REQ_CRASH),
            DcRequest::PumpEvents => e.put_u8(REQ_PUMP_EVENTS),
            DcRequest::ForceEmit => e.put_u8(REQ_FORCE_EMIT),
            DcRequest::CleanerPass => e.put_u8(REQ_CLEANER_PASS),
            DcRequest::CompactPass => e.put_u8(REQ_COMPACT_PASS),
            DcRequest::CreateTable { table } => {
                e.put_u8(REQ_CREATE_TABLE);
                e.put_table(*table);
            }
            DcRequest::RegisterTable { table, root } => {
                e.put_u8(REQ_REGISTER_TABLE);
                e.put_table(*table);
                e.put_pid(*root);
            }
            DcRequest::TableRoot { table } => {
                e.put_u8(REQ_TABLE_ROOT);
                e.put_table(*table);
            }
            DcRequest::VerifyTable { table } => {
                e.put_u8(REQ_VERIFY_TABLE);
                e.put_table(*table);
            }
            DcRequest::Redo { window, plan } => return encode_redo(window, plan),
            DcRequest::Stats => e.put_u8(REQ_STATS),
            DcRequest::Introspect => e.put_u8(REQ_INTROSPECT),
        }
        e.finish()
    }

    /// The wire tag this request encodes with — the telemetry op index.
    pub fn tag(&self) -> u8 {
        match self {
            DcRequest::Read { .. } => REQ_READ,
            DcRequest::ReadRange { .. } => REQ_READ_RANGE,
            DcRequest::ScanAll { .. } => REQ_SCAN_ALL,
            DcRequest::PrepareOp { .. } => REQ_PREPARE_OP,
            DcRequest::ReleaseOp { .. } => REQ_RELEASE_OP,
            DcRequest::Apply { .. } => REQ_APPLY,
            DcRequest::Eosl { .. } => REQ_EOSL,
            DcRequest::Rssp { .. } => REQ_RSSP,
            DcRequest::DrainInFlightOps => REQ_DRAIN,
            DcRequest::Crash => REQ_CRASH,
            DcRequest::PumpEvents => REQ_PUMP_EVENTS,
            DcRequest::ForceEmit => REQ_FORCE_EMIT,
            DcRequest::CleanerPass => REQ_CLEANER_PASS,
            DcRequest::CompactPass => REQ_COMPACT_PASS,
            DcRequest::CreateTable { .. } => REQ_CREATE_TABLE,
            DcRequest::RegisterTable { .. } => REQ_REGISTER_TABLE,
            DcRequest::TableRoot { .. } => REQ_TABLE_ROOT,
            DcRequest::VerifyTable { .. } => REQ_VERIFY_TABLE,
            DcRequest::Redo { .. } => REQ_REDO,
            DcRequest::Stats => REQ_STATS,
            DcRequest::Introspect => REQ_INTROSPECT,
        }
    }

    pub fn decode(bytes: &[u8]) -> Result<DcRequest, CodecError> {
        let mut d = Decoder::new(bytes);
        let req = match d.get_u8()? {
            REQ_READ => DcRequest::Read { table: d.get_table()?, key: d.get_key()? },
            REQ_READ_RANGE => {
                DcRequest::ReadRange { table: d.get_table()?, from: d.get_key()?, to: d.get_key()? }
            }
            REQ_SCAN_ALL => DcRequest::ScanAll { table: d.get_table()? },
            REQ_PREPARE_OP => DcRequest::PrepareOp {
                table: d.get_table()?,
                key: d.get_key()?,
                intent: get_intent(&mut d)?,
            },
            REQ_RELEASE_OP => DcRequest::ReleaseOp { token: d.get_u64()? },
            REQ_APPLY => DcRequest::Apply { token: d.get_u64()?, rec: get_record(&mut d)? },
            REQ_EOSL => DcRequest::Eosl { elsn: d.get_lsn()? },
            REQ_RSSP => DcRequest::Rssp { rssp_lsn: d.get_lsn()? },
            REQ_DRAIN => DcRequest::DrainInFlightOps,
            REQ_CRASH => DcRequest::Crash,
            REQ_PUMP_EVENTS => DcRequest::PumpEvents,
            REQ_FORCE_EMIT => DcRequest::ForceEmit,
            REQ_CLEANER_PASS => DcRequest::CleanerPass,
            REQ_COMPACT_PASS => DcRequest::CompactPass,
            REQ_CREATE_TABLE => DcRequest::CreateTable { table: d.get_table()? },
            REQ_REGISTER_TABLE => {
                DcRequest::RegisterTable { table: d.get_table()?, root: d.get_pid()? }
            }
            REQ_TABLE_ROOT => DcRequest::TableRoot { table: d.get_table()? },
            REQ_VERIFY_TABLE => DcRequest::VerifyTable { table: d.get_table()? },
            REQ_REDO => DcRequest::Redo { window: get_records(&mut d)?, plan: get_plan(&mut d)? },
            REQ_STATS => DcRequest::Stats,
            REQ_INTROSPECT => DcRequest::Introspect,
            t => return Err(CodecError::BadTag { context: "dc request", tag: t }),
        };
        d.expect_done()?;
        Ok(req)
    }
}

const REP_UNIT: u8 = 1;
const REP_VALUE: u8 = 2;
const REP_ROWS: u8 = 3;
const REP_PREPARED: u8 = 4;
const REP_COUNT: u8 = 5;
const REP_PID: u8 = 6;
const REP_SUMMARY: u8 = 7;
const REP_REDONE: u8 = 8;
const REP_STATS: u8 = 9;
const REP_ERR: u8 = 10;
const REP_WIRE_TELEMETRY: u8 = 11;

impl DcReply {
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        match self {
            DcReply::Unit => e.put_u8(REP_UNIT),
            DcReply::Value(v) => {
                e.put_u8(REP_VALUE);
                put_opt_value(&mut e, v);
            }
            DcReply::Rows(rows) => {
                e.put_u8(REP_ROWS);
                put_rows(&mut e, rows);
            }
            DcReply::Prepared { token, pid, before } => {
                e.put_u8(REP_PREPARED);
                e.put_u64(*token);
                e.put_pid(*pid);
                put_opt_value(&mut e, before);
            }
            DcReply::Count(c) => {
                e.put_u8(REP_COUNT);
                e.put_u64(*c);
            }
            DcReply::Pid(p) => {
                e.put_u8(REP_PID);
                e.put_pid(*p);
            }
            DcReply::Summary(s) => {
                e.put_u8(REP_SUMMARY);
                e.put_u64(s.records);
                e.put_u64(s.leaf_pages);
                e.put_u64(s.internal_pages);
                e.put_u32(s.height);
            }
            DcReply::Redone(shard) => {
                e.put_u8(REP_REDONE);
                put_shard(&mut e, shard);
            }
            DcReply::Stats(s) => {
                e.put_u8(REP_STATS);
                put_stats(&mut e, s);
            }
            DcReply::WireTelemetry(snap) => {
                e.put_u8(REP_WIRE_TELEMETRY);
                snap.encode_into(&mut e);
            }
            DcReply::Err(w) => {
                e.put_u8(REP_ERR);
                put_error(&mut e, w);
            }
        }
        e.finish()
    }

    pub fn decode(bytes: &[u8]) -> Result<DcReply, CodecError> {
        let mut d = Decoder::new(bytes);
        let rep = match d.get_u8()? {
            REP_UNIT => DcReply::Unit,
            REP_VALUE => DcReply::Value(get_opt_value(&mut d)?),
            REP_ROWS => DcReply::Rows(get_rows(&mut d)?),
            REP_PREPARED => DcReply::Prepared {
                token: d.get_u64()?,
                pid: d.get_pid()?,
                before: get_opt_value(&mut d)?,
            },
            REP_COUNT => DcReply::Count(d.get_u64()?),
            REP_PID => DcReply::Pid(d.get_pid()?),
            REP_SUMMARY => DcReply::Summary(TableSummary {
                records: d.get_u64()?,
                leaf_pages: d.get_u64()?,
                internal_pages: d.get_u64()?,
                height: d.get_u32()?,
            }),
            REP_REDONE => DcReply::Redone(Box::new(get_shard(&mut d)?)),
            REP_STATS => DcReply::Stats(Box::new(get_stats(&mut d)?)),
            REP_WIRE_TELEMETRY => {
                DcReply::WireTelemetry(WireTelemetrySnapshot::decode_from(&mut d)?)
            }
            REP_ERR => DcReply::Err(get_error(&mut d)?),
            t => return Err(CodecError::BadTag { context: "dc reply", tag: t }),
        };
        d.expect_done()?;
        Ok(rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lr_common::TxnId;

    fn roundtrip_req(req: DcRequest) {
        let bytes = req.encode();
        assert_eq!(DcRequest::decode(&bytes).unwrap(), req);
    }

    fn roundtrip_rep(rep: DcReply) {
        let bytes = rep.encode();
        assert_eq!(DcReply::decode(&bytes).unwrap(), rep);
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let rec = LogRecord {
            lsn: Lsn(99),
            payload: LogPayload::Insert {
                txn: TxnId(3),
                table: TableId(1),
                key: 42,
                pid: PageId(7),
                prev_lsn: Lsn::NULL,
                value: vec![1, 2, 3],
            },
        };
        let mut dpt = Dpt::new();
        dpt.add(PageId(9), Lsn(100));
        dpt.add(PageId(9), Lsn(200));
        let plan = RedoPlan {
            family: Family::Physiological,
            prefetch: Prefetch::LogDriven,
            preload: true,
            dpt: Some(dpt),
            tail_from: Lsn::MAX,
            pf_list: vec![PageId(9), PageId(4)],
            log_pages: 17,
            workers: 2,
        };
        for req in [
            DcRequest::Read { table: TableId(1), key: 5 },
            DcRequest::ReadRange { table: TableId(1), from: 0, to: 100 },
            DcRequest::ScanAll { table: TableId(2) },
            DcRequest::PrepareOp {
                table: TableId(1),
                key: 5,
                intent: WireIntent::Insert { value_len: 16 },
            },
            DcRequest::ReleaseOp { token: 77 },
            DcRequest::Apply { token: 78, rec: rec.clone() },
            DcRequest::Eosl { elsn: Lsn(500) },
            DcRequest::Rssp { rssp_lsn: Lsn(400) },
            DcRequest::DrainInFlightOps,
            DcRequest::Crash,
            DcRequest::PumpEvents,
            DcRequest::ForceEmit,
            DcRequest::CleanerPass,
            DcRequest::CompactPass,
            DcRequest::CreateTable { table: TableId(3) },
            DcRequest::RegisterTable { table: TableId(3), root: PageId(11) },
            DcRequest::TableRoot { table: TableId(3) },
            DcRequest::VerifyTable { table: TableId(1) },
            DcRequest::Redo { window: vec![rec.clone(), rec.clone()], plan: plan.clone() },
            DcRequest::Redo {
                window: Vec::new(),
                plan: RedoPlan {
                    family: Family::Logical,
                    prefetch: Prefetch::None,
                    dpt: None,
                    ..plan
                },
            },
            DcRequest::Stats,
            DcRequest::Introspect,
        ] {
            roundtrip_req(req);
        }
    }

    #[test]
    fn apply_carries_its_token_and_a_cut_frame_is_a_typed_error() {
        let rec = LogRecord {
            lsn: Lsn(99),
            payload: LogPayload::Delete {
                txn: TxnId(3),
                table: TableId(1),
                key: 42,
                pid: PageId(7),
                prev_lsn: Lsn(5),
                before: vec![9; 24],
            },
        };
        // Layout: tag, token (u64 LE), record — encoded from the borrow.
        let bytes = encode_apply(0xA1B2_C3D4_E5F6_0708, &rec);
        assert_eq!(bytes[0], REQ_APPLY);
        assert_eq!(bytes[1..9], 0xA1B2_C3D4_E5F6_0708u64.to_le_bytes());
        let expect = DcRequest::Apply { token: 0xA1B2_C3D4_E5F6_0708, rec: rec.clone() };
        assert_eq!(DcRequest::decode(&bytes).unwrap(), expect);
        // Cut anywhere — mid-token, mid-record — decoding reports it.
        for cut in 1..bytes.len() {
            assert!(DcRequest::decode(&bytes[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn every_request_tag_has_a_name() {
        for tag in 1..=MAX_REQ_TAG {
            assert_ne!(op_name(tag), "unknown", "tag {tag} has no op name");
        }
        assert_eq!(op_name(0), "unknown");
        assert_eq!(op_name(MAX_REQ_TAG + 1), "unknown");
    }

    #[test]
    fn tag_matches_encoded_first_byte() {
        for req in [DcRequest::Read { table: TableId(1), key: 5 }, DcRequest::Introspect] {
            assert_eq!(req.encode()[0], req.tag());
        }
    }

    #[test]
    fn every_reply_variant_roundtrips() {
        let mut stats = DcStats { optimistic_point_reads: 9, ..DcStats::default() };
        stats.read_restart_hist.record_n(2, 5);
        for rep in [
            DcReply::Unit,
            DcReply::Value(Some(vec![1, 2, 3])),
            DcReply::Value(None),
            DcReply::Rows(vec![(1, vec![4]), (2, vec![5, 6])]),
            DcReply::Prepared { token: 1, pid: PageId(7), before: Some(vec![9]) },
            DcReply::Count(17),
            DcReply::Pid(PageId(5)),
            DcReply::Summary(TableSummary {
                records: 100,
                leaf_pages: 10,
                internal_pages: 2,
                height: 3,
            }),
            DcReply::Redone(Box::new({
                let mut shard = RecoveryBreakdown::default();
                for (i, field) in shard.redo_shard_mut().into_iter().enumerate() {
                    *field = 1_000 + i as u64;
                }
                shard
            })),
            DcReply::Stats(Box::new(stats)),
            DcReply::WireTelemetry({
                let t = crate::telemetry::WireTelemetry::new();
                t.record(REQ_READ, 10, 20, 5, true);
                t.snapshot()
            }),
            DcReply::Err(WireError::KeyNotFound { table: TableId(1), key: 42 }),
        ] {
            roundtrip_rep(rep);
        }
    }

    #[test]
    fn every_error_variant_survives_the_wire() {
        let errors = vec![
            Error::PageOutOfRange { pid: PageId(9), pages: 100 },
            Error::PageFull { pid: PageId(1), needed: 64, free: 10 },
            Error::KeyNotFound { table: TableId(1), key: 5 },
            Error::DuplicateKey { table: TableId(1), key: 5 },
            Error::UnknownTable(TableId(7)),
            Error::UnknownTxn(TxnId(3)),
            Error::TxnNotActive(TxnId(3)),
            Error::LockConflict { txn: TxnId(3), table: TableId(1), key: 5 },
            Error::PoolExhausted { capacity: 256 },
            Error::LogCorrupt { lsn: Lsn(10), reason: "torn tail".into() },
            Error::WalViolation { pid: PageId(1), plsn: Lsn(100), elsn: Lsn(50) },
            Error::TreeCorrupt("bad link".into()),
            Error::RecoveryInvariant("oops".into()),
            Error::ServerBusy { active: 8, cap: 8 },
            Error::Io(std::io::Error::other("disk gone")),
        ];
        for err in errors {
            let display = err.to_string();
            let wire = WireError::from(&err);
            let bytes = DcReply::Err(wire.clone()).encode();
            let back = match DcReply::decode(&bytes).unwrap() {
                DcReply::Err(w) => w,
                other => panic!("expected Err reply, got {other:?}"),
            };
            assert_eq!(back, wire);
            let rebuilt: Error = back.into();
            // Io is string-lossy; everything else reconstructs the exact
            // variant, so Display output matches end to end.
            if matches!(err, Error::Io(_)) {
                assert!(rebuilt.to_string().contains("disk gone"));
            } else {
                assert_eq!(rebuilt.to_string(), display);
            }
        }
    }

    #[test]
    fn dpt_survives_the_flatten_rebuild_cycle() {
        let mut dpt = Dpt::new();
        dpt.add(PageId(1), Lsn(100));
        dpt.add(PageId(1), Lsn(300)); // lastLSN advances, rLSN sticky
        dpt.add(PageId(2), Lsn(150));
        let mut e = Encoder::with_capacity(64);
        put_dpt(&mut e, &dpt);
        let bytes = e.finish();
        let back = get_dpt(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(back.sorted_entries(), dpt.sorted_entries());
    }

    #[test]
    fn a_redo_frame_asking_for_too_many_workers_is_refused() {
        let plan = |workers| RedoPlan {
            family: Family::Logical,
            prefetch: Prefetch::None,
            preload: false,
            dpt: None,
            tail_from: Lsn::MAX,
            pf_list: Vec::new(),
            log_pages: 0,
            workers,
        };
        let max = MAX_WIRE_REDO_WORKERS as usize;
        assert!(DcRequest::decode(&encode_redo(&[], &plan(max))).is_ok());
        assert!(matches!(
            DcRequest::decode(&encode_redo(&[], &plan(max + 1))),
            Err(CodecError::OutOfRange { context: "redo workers", .. })
        ));
    }

    #[test]
    fn corrupt_tag_is_rejected() {
        assert!(matches!(DcRequest::decode(&[0xFF]), Err(CodecError::BadTag { .. })));
        assert!(matches!(DcReply::decode(&[0xFF]), Err(CodecError::BadTag { .. })));
        // Trailing garbage after a well-formed message is rejected too.
        let mut bytes = DcRequest::Stats.encode();
        bytes.push(0);
        assert!(matches!(DcRequest::decode(&bytes), Err(CodecError::Truncated { .. })));
    }
}
