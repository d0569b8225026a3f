//! The DC-side message dispatcher.
//!
//! A [`DcServer`] owns a registered local backend (any [`DcApi`]) and
//! serves framed [`DcRequest`]s against it: unframe → decode → dispatch →
//! encode → frame. It is the process-boundary half of the Deuteronomy
//! split — a TC connecting over any byte transport talks to this and never
//! to the backend directly.
//!
//! ## Server-held guards
//!
//! [`DcApi::prepare_op`], the one contract operation that hands out a
//! guard, returns a borrow-carrying guard that cannot cross a message
//! boundary. The server parks it: each prepare gets a token, and the guard
//! lives in a token map (keeping its latches held, exactly as if the
//! caller's stack held it) until the client, having logged the operation,
//! sends `Apply { token, rec }`. That dispatch takes the guard out of the
//! map, applies under it and drops it before replying — whether or not
//! the apply succeeded — so the release costs no exchange of its own. An
//! `Apply` naming a token that is not parked (never issued, already
//! applied or released, swept by a disconnect) is refused before any page
//! is touched. `ReleaseOp { token }` is for a prepare the client abandons
//! before apply; releases are idempotent, and a transport that drops its
//! connection calls [`DcServer::release_all`] so a vanished client can
//! never wedge the DC (the same duty a TCP accept loop performs on
//! connection teardown).

use crate::api::{DcApi, PreparedOp};
use crate::telemetry::{WireTelemetry, WireTelemetrySnapshot};
use crate::wire::{DcReply, DcRequest, WireError};
use lr_common::codec::{frame, unframe};
use lr_common::{Error, Result};
use lr_obs::{EventKind, TraceSink};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A parked [`PreparedOp`] with the `Arc` that keeps its borrowed backend
/// alive. Field order is drop order: the guard must die before the owner
/// it borrows from.
struct HeldOp {
    guard: PreparedOp<'static>,
    _owner: Arc<dyn DcApi>,
}

/// Serves the wire protocol against one registered backend.
pub struct DcServer {
    inner: Arc<dyn DcApi>,
    held_ops: Mutex<HashMap<u64, HeldOp>>,
    /// Token source; starts at 1 so 0 never names a live guard.
    next_token: AtomicU64,
    /// Per-op dispatch accumulators — the server's half of the wire
    /// telemetry, pullable by a client through [`DcRequest::Introspect`].
    telemetry: WireTelemetry,
    trace: std::sync::OnceLock<TraceSink>,
}

impl DcServer {
    pub fn new(inner: Arc<dyn DcApi>) -> DcServer {
        DcServer {
            inner,
            held_ops: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(1),
            telemetry: WireTelemetry::new(),
            trace: std::sync::OnceLock::new(),
        }
    }

    /// Attach a trace journal; wire request/reply/disconnect events are
    /// emitted into it. First sink wins (matching the engine's one-shot
    /// wiring); later calls are ignored.
    pub fn set_trace(&self, sink: TraceSink) {
        let _ = self.trace.set(sink);
    }

    #[inline]
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }

    /// The server's per-op wire accumulators (dispatch-side latencies).
    pub fn telemetry(&self) -> WireTelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The backend this server fronts.
    pub fn backend(&self) -> &Arc<dyn DcApi> {
        &self.inner
    }

    /// Prepared ops currently parked. Zero in a quiesced server; a nonzero
    /// count after a client disconnect means a cleanup path was missed.
    pub fn held_guards(&self) -> usize {
        self.held_ops.lock().len()
    }

    /// Drop every parked guard — the connection-teardown duty. A transport
    /// that loses its client calls this so half-finished prepares release
    /// their latches instead of wedging every later writer. Returns the
    /// number of guards released; each release is traced.
    pub fn release_all(&self) -> u64 {
        let tokens: Vec<u64> = {
            let mut held = self.held_ops.lock();
            let tokens = held.keys().copied().collect();
            held.clear();
            tokens
        };
        if let Some(t) = self.trace() {
            for &token in &tokens {
                t.emit(EventKind::TokenRelease { token });
            }
        }
        tokens.len() as u64
    }

    /// Connection-teardown entry point: release every parked guard and
    /// trace the disconnect with the count of guards it orphaned.
    pub fn disconnect(&self) {
        let tokens_released = self.release_all();
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireDisconnect { tokens_released });
        }
    }

    /// Serve one framed request, returning the framed reply. Transport
    /// layers call only this. Codec failures (bad frame, bad tag) come
    /// back as framed `Err` replies, not panics — a corrupt message must
    /// not take the DC down.
    ///
    /// Inside the frame both directions carry the request-id envelope
    /// ([`envelope`]): 8 little-endian bytes of client-chosen request id,
    /// echoed verbatim on the reply so the client can pair responses and
    /// detect protocol desync. Every exchange lands in the server's
    /// [`WireTelemetry`] under its request tag (tag 0 collects frames too
    /// corrupt to attribute).
    pub fn serve_frame(&self, request: &[u8]) -> Vec<u8> {
        let start = Instant::now();
        let mut req_id = 0u64;
        let mut tag = 0u8;
        let mut req_len = 0usize;
        let parsed = unframe(request)
            .map_err(|e| format!("wire: {e}"))
            .and_then(|payload| open_envelope(payload).map_err(|e| format!("wire: {e}")))
            .and_then(|(id, body)| {
                req_id = id;
                req_len = body.len();
                DcRequest::decode(body).map_err(|e| format!("wire: {e}"))
            });
        let reply = match parsed {
            Ok(req) => {
                tag = req.tag();
                if let Some(t) = self.trace() {
                    t.emit(EventKind::WireRequest {
                        req_id,
                        op: tag as u64,
                        bytes: req_len as u64,
                    });
                }
                self.serve(req)
            }
            Err(msg) => DcReply::Err(WireError::RecoveryInvariant(msg)),
        };
        let rep_body = reply.encode();
        let ok = !matches!(reply, DcReply::Err(_));
        let lat_us = start.elapsed().as_micros() as u64;
        self.telemetry.record(tag, req_len, rep_body.len(), lat_us, ok);
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireReply {
                req_id,
                op: tag as u64,
                bytes: rep_body.len() as u64,
                lat_us,
                ok,
            });
        }
        frame(&envelope(req_id, &rep_body))
    }

    /// Dispatch one decoded request.
    pub fn serve(&self, req: DcRequest) -> DcReply {
        match self.dispatch(req) {
            Ok(reply) => reply,
            Err(e) => DcReply::Err(WireError::from(&e)),
        }
    }

    fn park_op(&self, op: PreparedOp<'_>) -> (u64, lr_common::PageId, Option<lr_common::Value>) {
        let pid = op.pid;
        let before = op.before.clone();
        // SAFETY: the guard borrows from `self.inner`'s referent, which the
        // HeldOp's `_owner` Arc keeps alive for at least as long as the
        // guard. A HeldOp dropped whole (release, disconnect sweep) drops
        // the guard first by field order; the `Apply` dispatch takes the
        // HeldOp out of the map and moves the guard into `inner.apply`,
        // where it dies while `_owner` is still on the dispatch's stack.
        let guard: PreparedOp<'static> = unsafe { std::mem::transmute(op) };
        let token = self.next_token.fetch_add(1, Ordering::Relaxed);
        self.held_ops.lock().insert(token, HeldOp { guard, _owner: self.inner.clone() });
        (token, pid, before)
    }

    fn dispatch(&self, req: DcRequest) -> Result<DcReply> {
        let dc = &self.inner;
        Ok(match req {
            DcRequest::Read { table, key } => DcReply::Value(dc.read(table, key)?),
            DcRequest::ReadRange { table, from, to } => {
                DcReply::Rows(dc.read_range(table, from, to)?)
            }
            DcRequest::ScanAll { table } => DcReply::Rows(dc.scan_all(table)?),
            DcRequest::PrepareOp { table, key, intent } => {
                let op = dc.prepare_op(table, key, intent.into())?;
                let (token, pid, before) = self.park_op(op);
                DcReply::Prepared { token, pid, before }
            }
            DcRequest::ReleaseOp { token } => {
                // Idempotent: a release raced by a disconnect cleanup finds
                // nothing and that is fine.
                if self.held_ops.lock().remove(&token).is_some() {
                    if let Some(t) = self.trace() {
                        t.emit(EventKind::TokenRelease { token });
                    }
                }
                DcReply::Unit
            }
            DcRequest::Apply { token, rec } => {
                let HeldOp { guard, _owner } =
                    self.held_ops.lock().remove(&token).ok_or_else(|| {
                        Error::RecoveryInvariant(format!(
                            "apply names op token {token}, which is not parked \
                             (unknown, already applied or released)"
                        ))
                    })?;
                let applied = dc.apply(guard, &rec);
                if let Some(t) = self.trace() {
                    t.emit(EventKind::TokenRelease { token });
                }
                applied?;
                DcReply::Unit
            }
            DcRequest::Eosl { elsn } => {
                dc.eosl(elsn);
                DcReply::Unit
            }
            DcRequest::Rssp { rssp_lsn } => {
                dc.rssp(rssp_lsn)?;
                DcReply::Unit
            }
            DcRequest::DrainInFlightOps => {
                dc.drain_in_flight_ops();
                DcReply::Unit
            }
            DcRequest::Crash => {
                // A crash obliterates in-flight state first: parked guards
                // belong to sessions that just died with the TC.
                self.release_all();
                dc.crash();
                DcReply::Unit
            }
            DcRequest::PumpEvents => {
                dc.pump_events();
                DcReply::Unit
            }
            DcRequest::ForceEmit => {
                dc.force_emit();
                DcReply::Unit
            }
            DcRequest::CleanerPass => DcReply::Count(dc.cleaner_pass()? as u64),
            DcRequest::CompactPass => DcReply::Count(dc.compact_pass()? as u64),
            DcRequest::CreateTable { table } => {
                dc.create_table(table)?;
                DcReply::Unit
            }
            DcRequest::RegisterTable { table, root } => {
                dc.register_table(table, root)?;
                DcReply::Unit
            }
            DcRequest::TableRoot { table } => DcReply::Pid(dc.table_root(table)?),
            DcRequest::VerifyTable { table } => DcReply::Summary(dc.verify_table(table)?),
            DcRequest::Redo { window, plan } => DcReply::Redone(Box::new(dc.redo(&window, &plan)?)),
            DcRequest::Stats => DcReply::Stats(Box::new(dc.stats())),
            DcRequest::Introspect => DcReply::WireTelemetry(self.telemetry.snapshot()),
        })
    }
}

/// Prefix `body` with the 8-byte little-endian request id — the payload
/// shape both directions of the wire carry inside the frame.
pub fn envelope(req_id: u64, body: &[u8]) -> Vec<u8> {
    let mut p = Vec::with_capacity(8 + body.len());
    p.extend_from_slice(&req_id.to_le_bytes());
    p.extend_from_slice(body);
    p
}

/// Split an unframed payload into its request id and message body.
pub fn open_envelope(payload: &[u8]) -> std::result::Result<(u64, &[u8]), String> {
    if payload.len() < 8 {
        return Err("payload missing request id".to_string());
    }
    let (id, body) = payload.split_at(8);
    Ok((u64::from_le_bytes(id.try_into().expect("8-byte split")), body))
}

/// Map a client-side codec failure (corrupt reply frame) into the
/// workspace error type. Mirrors the server's handling of corrupt
/// requests.
pub fn wire_error(e: lr_common::codec::CodecError) -> Error {
    Error::RecoveryInvariant(format!("wire: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{DataComponent, DcConfig};
    use crate::wire::WireIntent;
    use lr_common::{IoModel, Lsn, SimClock, TableId, TxnId};
    use lr_storage::SimDisk;
    use lr_wal::{LogPayload, LogRecord, Wal};

    const T: TableId = TableId(1);

    fn server() -> DcServer {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        let srv = DcServer::new(Arc::new(dc));
        srv.serve(DcRequest::CreateTable { table: T });
        srv
    }

    /// One framed exchange with request id 7, asserting the id echoes.
    fn call_frame(srv: &DcServer, req: &DcRequest) -> DcReply {
        let framed = srv.serve_frame(&frame(&envelope(7, &req.encode())));
        let (id, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        assert_eq!(id, 7);
        DcReply::decode(body).unwrap()
    }

    /// Park a prepare for an insert of `key` through a frame.
    fn prepare_insert(srv: &DcServer, key: u64) -> (u64, lr_common::PageId) {
        let req =
            DcRequest::PrepareOp { table: T, key, intent: WireIntent::Insert { value_len: 3 } };
        match call_frame(srv, &req) {
            DcReply::Prepared { token, pid, before } => {
                assert!(before.is_none());
                (token, pid)
            }
            other => panic!("expected Prepared, got {other:?}"),
        }
    }

    /// A logged insert of `key -> [1, 2, 3]` into `table`, placed at `pid`.
    fn logged_insert(
        srv: &DcServer,
        table: TableId,
        key: u64,
        pid: lr_common::PageId,
    ) -> LogRecord {
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table,
            key,
            pid,
            prev_lsn: Lsn::NULL,
            value: vec![1, 2, 3],
        };
        LogRecord { lsn: srv.backend().wal().append(&payload), payload }
    }

    #[test]
    fn framed_write_protocol_end_to_end() {
        let srv = server();
        // prepare → log → apply, all through frames; the apply releases.
        let (token, pid) = prepare_insert(&srv, 7);
        assert_eq!(srv.held_guards(), 1);
        let apply = DcRequest::Apply { token, rec: logged_insert(&srv, T, 7, pid) };
        assert_eq!(call_frame(&srv, &apply), DcReply::Unit);
        assert_eq!(srv.held_guards(), 0);
        // Releasing after the fused apply finds nothing: a no-op.
        assert_eq!(srv.serve(DcRequest::ReleaseOp { token }), DcReply::Unit);

        match srv.serve(DcRequest::Read { table: T, key: 7 }) {
            DcReply::Value(Some(v)) => assert_eq!(v, vec![1, 2, 3]),
            other => panic!("expected the inserted value, got {other:?}"),
        }
    }

    #[test]
    fn apply_that_fails_dc_side_still_releases_its_token() {
        let srv = server();
        let (token, pid) = prepare_insert(&srv, 7);
        // The record names a table the DC has never heard of.
        let apply = DcRequest::Apply { token, rec: logged_insert(&srv, TableId(99), 7, pid) };
        match call_frame(&srv, &apply) {
            DcReply::Err(WireError::UnknownTable(t)) => assert_eq!(t, TableId(99)),
            other => panic!("expected UnknownTable, got {other:?}"),
        }
        assert_eq!(srv.held_guards(), 0, "a failed apply must not keep its guard");
        // Key 7 is not wedged behind the dead token.
        let (token, pid) = prepare_insert(&srv, 7);
        let apply = DcRequest::Apply { token, rec: logged_insert(&srv, T, 7, pid) };
        assert_eq!(call_frame(&srv, &apply), DcReply::Unit);
    }

    #[test]
    fn apply_naming_no_parked_guard_is_refused_and_touches_no_page() {
        let srv = server();
        let (token, pid) = prepare_insert(&srv, 7);
        let rec = logged_insert(&srv, T, 7, pid);
        assert_eq!(srv.serve(DcRequest::Apply { token, rec }), DcReply::Unit);
        let page =
            || srv.backend().pool().with_page(pid, |p| (p.plsn(), p.as_bytes().to_vec())).unwrap();
        let settled = page();

        // Zero (never issued), unknown, and already-applied tokens: each a
        // typed refusal, with the page exactly as the one real apply left it.
        let stray = logged_insert(&srv, T, 8, pid);
        for bad in [0, token + 1000, token] {
            match srv.serve(DcRequest::Apply { token: bad, rec: stray.clone() }) {
                DcReply::Err(WireError::RecoveryInvariant(m)) => {
                    assert!(m.contains("not parked"), "{m}")
                }
                other => panic!("token {bad}: expected a refusal, got {other:?}"),
            }
            assert_eq!(page(), settled, "token {bad}: the refused apply reached the page");
        }
        assert_eq!(srv.serve(DcRequest::Read { table: T, key: 8 }), DcReply::Value(None));
        // A token released unapplied is as dead as an applied one.
        let (released, pid9) = prepare_insert(&srv, 9);
        srv.serve(DcRequest::ReleaseOp { token: released });
        let rec9 = logged_insert(&srv, T, 9, pid9);
        assert!(matches!(
            srv.serve(DcRequest::Apply { token: released, rec: rec9 }),
            DcReply::Err(WireError::RecoveryInvariant(_))
        ));
        assert_eq!(srv.serve(DcRequest::Read { table: T, key: 9 }), DcReply::Value(None));
    }

    #[test]
    fn errors_cross_as_err_replies() {
        let srv = server();
        match srv.serve(DcRequest::Read { table: TableId(99), key: 1 }) {
            DcReply::Err(WireError::UnknownTable(t)) => assert_eq!(t, TableId(99)),
            other => panic!("expected UnknownTable, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_frames_are_rejected_not_fatal() {
        let srv = server();
        let mut corrupt = frame(&envelope(7, &DcRequest::Stats.encode()));
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let framed = srv.serve_frame(&corrupt);
        let (_, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        match DcReply::decode(body).unwrap() {
            DcReply::Err(WireError::RecoveryInvariant(m)) => {
                assert!(m.contains("wire"), "{m}");
            }
            other => panic!("expected a wire error, got {other:?}"),
        }
        // A payload too short for the request-id envelope is rejected the
        // same way (reply echoes id 0).
        let framed = srv.serve_frame(&frame(&[1, 2, 3]));
        let (id, body) = open_envelope(unframe(&framed).unwrap()).unwrap();
        assert_eq!(id, 0);
        assert!(matches!(
            DcReply::decode(body).unwrap(),
            DcReply::Err(WireError::RecoveryInvariant(_))
        ));
        // The server still works afterwards.
        assert!(matches!(srv.serve(DcRequest::Stats), DcReply::Stats(_)));
    }

    #[test]
    fn server_telemetry_attributes_ops_and_introspect_serves_it() {
        let srv = server();
        call_frame(&srv, &DcRequest::Stats);
        call_frame(&srv, &DcRequest::Stats);
        call_frame(&srv, &DcRequest::Read { table: TableId(99), key: 1 }); // error
        let snap = srv.telemetry();
        let stats = snap.op(DcRequest::Stats.tag()).unwrap();
        assert_eq!((stats.count, stats.errors), (2, 0));
        assert_eq!(stats.lat_us.count(), 2);
        let read = snap.op(DcRequest::Read { table: T, key: 0 }.tag()).unwrap();
        assert_eq!((read.count, read.errors), (1, 1));
        // Introspect serves the accumulators over the wire; by the time
        // the reply is sized the introspect op itself is being recorded,
        // so compare against the pre-call snapshot.
        match call_frame(&srv, &DcRequest::Introspect) {
            DcReply::WireTelemetry(wired) => {
                assert_eq!(wired, snap);
            }
            other => panic!("expected WireTelemetry, got {other:?}"),
        }
    }

    #[test]
    fn release_is_idempotent_and_release_all_unwedges() {
        let srv = server();
        srv.serve(DcRequest::ReleaseOp { token: 12345 }); // unknown: no-op
        let rep = srv.serve(DcRequest::PrepareOp {
            table: T,
            key: 1,
            intent: WireIntent::Insert { value_len: 2 },
        });
        let token = match rep {
            DcReply::Prepared { token, .. } => token,
            other => panic!("expected Prepared, got {other:?}"),
        };
        assert_eq!(srv.held_guards(), 1);
        srv.release_all();
        assert_eq!(srv.held_guards(), 0);
        // A fresh prepare on the same table proves no latch stayed wedged.
        assert!(matches!(
            srv.serve(DcRequest::PrepareOp {
                table: T,
                key: 2,
                intent: WireIntent::Insert { value_len: 2 },
            }),
            DcReply::Prepared { .. }
        ));
        srv.release_all();
        // Double release of the dead token: still a no-op.
        srv.serve(DcRequest::ReleaseOp { token });
        let _ = srv.serve(DcRequest::Read { table: T, key: 1 });
    }
}
