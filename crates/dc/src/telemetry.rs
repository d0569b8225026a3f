//! Wire-level per-op telemetry shared by [`crate::RemoteDc`] (client
//! side) and [`crate::DcServer`] (server side).
//!
//! Every framed exchange is attributed to its request tag: a count, an
//! error count, request/reply byte totals, and a latency histogram. The
//! client measures round-trip time through the transport; the server
//! measures dispatch time only — comparing the two surfaces transport
//! overhead. Snapshots cross the boundary through
//! [`crate::wire::DcRequest::Introspect`], so a TC can inspect a remote
//! DC's view of the conversation without shared memory.

use crate::wire::{op_name, MAX_REQ_TAG};
use lr_common::codec::{CodecError, Decoder, Encoder};
use lr_common::Histogram;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// One request tag's accumulators. Counters are relaxed atomics; the
/// latency histogram sits behind a mutex because recordings are
/// per-message (cold relative to the work each message does).
#[derive(Default)]
struct OpCell {
    count: AtomicU64,
    errors: AtomicU64,
    req_bytes: AtomicU64,
    rep_bytes: AtomicU64,
    lat_us: Mutex<Histogram>,
}

/// Per-op wire accumulators, indexed by request tag. One instance lives
/// on each side of the boundary.
pub struct WireTelemetry {
    ops: Vec<OpCell>,
}

impl Default for WireTelemetry {
    fn default() -> WireTelemetry {
        WireTelemetry::new()
    }
}

impl WireTelemetry {
    /// Fresh zeroed accumulators covering every request tag.
    pub fn new() -> WireTelemetry {
        WireTelemetry { ops: (0..=MAX_REQ_TAG).map(|_| OpCell::default()).collect() }
    }

    /// Record one exchange: the request's tag, payload sizes in bytes
    /// (unframed), observed latency, and whether the reply was an error.
    pub fn record(&self, tag: u8, req_bytes: usize, rep_bytes: usize, lat_us: u64, ok: bool) {
        let Some(cell) = self.ops.get(tag as usize) else { return };
        cell.count.fetch_add(1, Ordering::Relaxed);
        if !ok {
            cell.errors.fetch_add(1, Ordering::Relaxed);
        }
        cell.req_bytes.fetch_add(req_bytes as u64, Ordering::Relaxed);
        cell.rep_bytes.fetch_add(rep_bytes as u64, Ordering::Relaxed);
        cell.lat_us.lock().record(lat_us);
    }

    /// Snapshot the non-zero ops, ordered by tag.
    pub fn snapshot(&self) -> WireTelemetrySnapshot {
        let mut ops = Vec::new();
        for (tag, cell) in self.ops.iter().enumerate() {
            let count = cell.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            ops.push(WireOpStats {
                op: tag as u8,
                count,
                errors: cell.errors.load(Ordering::Relaxed),
                req_bytes: cell.req_bytes.load(Ordering::Relaxed),
                rep_bytes: cell.rep_bytes.load(Ordering::Relaxed),
                lat_us: cell.lat_us.lock().clone(),
            });
        }
        WireTelemetrySnapshot { ops }
    }
}

/// One op's snapshot row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireOpStats {
    /// The request tag this row accumulates (see [`crate::wire`]).
    pub op: u8,
    /// Exchanges recorded.
    pub count: u64,
    /// Exchanges whose reply was [`crate::DcReply::Err`].
    pub errors: u64,
    /// Total unframed request payload bytes.
    pub req_bytes: u64,
    /// Total unframed reply payload bytes.
    pub rep_bytes: u64,
    /// Latency distribution in microseconds (round-trip on the client,
    /// dispatch-only on the server).
    pub lat_us: Histogram,
}

impl WireOpStats {
    /// Human-readable op name for this row's tag.
    pub fn name(&self) -> &'static str {
        op_name(self.op)
    }
}

/// An ordered set of non-zero [`WireOpStats`] rows — the unit that
/// crosses the wire in [`crate::DcReply::WireTelemetry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireTelemetrySnapshot {
    pub ops: Vec<WireOpStats>,
}

impl WireTelemetrySnapshot {
    /// Row for one tag, if any exchange of that op was recorded.
    pub fn op(&self, tag: u8) -> Option<&WireOpStats> {
        self.ops.iter().find(|o| o.op == tag)
    }

    /// Total exchanges across all ops.
    pub fn total_count(&self) -> u64 {
        self.ops.iter().map(|o| o.count).sum()
    }

    pub fn encode_into(&self, e: &mut Encoder) {
        e.put_u32(self.ops.len() as u32);
        for op in &self.ops {
            e.put_u8(op.op);
            e.put_u64(op.count);
            e.put_u64(op.errors);
            e.put_u64(op.req_bytes);
            e.put_u64(op.rep_bytes);
            op.lat_us.encode_into(e);
        }
    }

    pub fn decode_from(d: &mut Decoder<'_>) -> Result<WireTelemetrySnapshot, CodecError> {
        let n = d.get_u32()? as usize;
        let mut ops = Vec::with_capacity(n.min(256));
        for _ in 0..n {
            ops.push(WireOpStats {
                op: d.get_u8()?,
                count: d.get_u64()?,
                errors: d.get_u64()?,
                req_bytes: d.get_u64()?,
                rep_bytes: d.get_u64()?,
                lat_us: Histogram::decode_from(d)?,
            });
        }
        Ok(WireTelemetrySnapshot { ops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_skips_untouched_ops() {
        let t = WireTelemetry::new();
        t.record(1, 10, 20, 5, true);
        t.record(1, 12, 22, 7, false);
        t.record(crate::wire::MAX_REQ_TAG, 1, 300, 50, true);
        let snap = t.snapshot();
        assert_eq!(snap.ops.len(), 2);
        let read = snap.op(1).unwrap();
        assert_eq!((read.count, read.errors, read.req_bytes, read.rep_bytes), (2, 1, 22, 42));
        assert_eq!(read.lat_us.count(), 2);
        assert_eq!(snap.op(2), None);
        assert_eq!(snap.total_count(), 3);
    }

    #[test]
    fn snapshot_roundtrips_through_codec() {
        let t = WireTelemetry::new();
        t.record(5, 100, 2, 3, true);
        t.record(crate::wire::MAX_REQ_TAG, 1, 400, 9, true);
        let snap = t.snapshot();
        let mut e = Encoder::with_capacity(64);
        snap.encode_into(&mut e);
        let bytes = e.finish();
        let mut d = Decoder::new(&bytes);
        let back = WireTelemetrySnapshot::decode_from(&mut d).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn out_of_range_tag_is_ignored() {
        let t = WireTelemetry::new();
        t.record(200, 1, 1, 1, true);
        assert_eq!(t.snapshot().ops.len(), 0);
    }
}
