//! The TC-side proxy: [`DcApi`] over a message transport.
//!
//! [`RemoteDc`] implements the full DC contract by serializing every call
//! into a framed [`DcRequest`], pushing it through a pluggable
//! [`Transport`], and decoding the framed [`DcReply`]. The engine,
//! recovery drivers, undo and maintenance run against it unmodified —
//! proving the [`DcApi`] contract really is a message protocol, not a
//! shared-memory API with trait syntax.
//!
//! The transport shipped here is [`LoopbackTransport`]: it hands each
//! frame to an in-process [`DcServer`] on the caller's thread. The frames
//! it moves are exactly the bytes a TCP transport would write to a socket,
//! so swapping in a real network is a transport-only change — including
//! teardown: [`LoopbackTransport::disconnect`] models a dropped
//! connection, failing subsequent calls with a broken-pipe error and
//! performing the server-side guard cleanup a TCP accept loop runs when a
//! client vanishes.
//!
//! ## Guard proxies
//!
//! `prepare_op` hands out a guard backed by a server-held token (see
//! [`crate::server`]). The token rides on the op's `Apply`: the server
//! applies under the parked guard and releases it in that one exchange,
//! and the proxy disarms its guard once the server has answered — so a
//! proxied write is two crossings, `PrepareOp` and `Apply`, and so is each
//! of undo's compensations. Only a guard still armed at drop (a prepare
//! abandoned before apply, an `Apply` the transport lost) sends its
//! release request. A release over a dead transport is swallowed — the
//! disconnect cleanup has already freed the server-side guard, so there
//! is nothing left to release.

use crate::api::{DcApi, DcIntrospect, OpGuard, PreparedOp, TableSummary};
use crate::dc::{DcConfig, DcStats, WriteIntent};
use crate::redo::RedoPlan;
use crate::server::{envelope, open_envelope, wire_error, DcServer};
use crate::telemetry::{WireTelemetry, WireTelemetrySnapshot};
use crate::wire::{encode_apply, encode_redo, DcReply, DcRequest};
use lr_buffer::BufferPool;
use lr_common::codec::{frame, unframe};
use lr_common::{Error, Key, Lsn, PageId, RecoveryBreakdown, Result, TableId, Value};
use lr_obs::{EventKind, TraceSink};
use lr_storage::Disk;
use lr_wal::{LogRecord, SharedWal};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A synchronous request/reply byte transport: one framed request in, one
/// framed reply out. Implementations move opaque frames — the protocol
/// lives entirely in [`crate::wire`].
pub trait Transport: Send + Sync {
    /// Deliver one framed request and return the framed reply.
    fn call(&self, request: &[u8]) -> Result<Vec<u8>>;

    /// Attach a trace journal to the far side, if the transport can reach
    /// it (the loopback hands it to its in-process server; a network
    /// transport would negotiate tracing out of band). Default: no-op.
    fn set_trace(&self, _sink: TraceSink) {}
}

/// In-process transport: frames go straight to a [`DcServer`], executing
/// on the caller's thread (so concurrent TC sessions dispatch concurrently
/// exactly as a thread-per-connection server would).
pub struct LoopbackTransport {
    server: RwLock<Option<Arc<DcServer>>>,
}

impl LoopbackTransport {
    pub fn new(server: Arc<DcServer>) -> LoopbackTransport {
        LoopbackTransport { server: RwLock::new(Some(server)) }
    }

    /// Drop the connection: subsequent calls fail with a broken-pipe
    /// error, and the server's parked guards are released — the cleanup a
    /// network server performs when a client's connection dies. The
    /// server traces the teardown as a `wire_disconnect` event carrying
    /// the orphaned-guard count.
    pub fn disconnect(&self) {
        if let Some(server) = self.server.write().take() {
            server.disconnect();
        }
    }

    /// The attached server, if connected (tests use it to compare both
    /// sides' telemetry).
    pub fn server(&self) -> Option<Arc<DcServer>> {
        self.server.read().clone()
    }

    /// Re-attach to a server (a client re-establishing its connection).
    pub fn reconnect(&self, server: Arc<DcServer>) {
        *self.server.write() = Some(server);
    }

    pub fn is_connected(&self) -> bool {
        self.server.read().is_some()
    }
}

impl Transport for LoopbackTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        let server = self.server.read().clone();
        match server {
            Some(server) => Ok(server.serve_frame(request)),
            None => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "DC transport disconnected",
            ))),
        }
    }

    fn set_trace(&self, sink: TraceSink) {
        if let Some(server) = self.server.read().as_ref() {
            server.set_trace(sink);
        }
    }
}

/// The client half of the wire: request-id stamping, round-trip timing,
/// and per-op telemetry around a [`Transport`]. Shared (via `Arc`) by the
/// proxy and its guard drops so *every* exchange — releases included —
/// lands in one set of accumulators.
struct WireClient {
    transport: Arc<dyn Transport>,
    /// Request-id source; starts at 1 so 0 only ever means "the server
    /// could not read an id off the frame".
    next_req_id: AtomicU64,
    telemetry: WireTelemetry,
    trace: std::sync::OnceLock<TraceSink>,
}

impl WireClient {
    fn new(transport: Arc<dyn Transport>) -> WireClient {
        WireClient {
            transport,
            next_req_id: AtomicU64::new(1),
            telemetry: WireTelemetry::new(),
            trace: std::sync::OnceLock::new(),
        }
    }

    #[inline]
    fn trace(&self) -> Option<&TraceSink> {
        self.trace.get().filter(|s| s.is_enabled())
    }

    fn call(&self, req: &DcRequest) -> Result<DcReply> {
        self.call_encoded(&req.encode())
    }

    /// One round trip, with the server's `Err` reply as this call's error.
    fn call_encoded(&self, body: &[u8]) -> Result<DcReply> {
        match self.exchange(body)? {
            DcReply::Err(w) => Err(w.into()),
            other => Ok(other),
        }
    }

    /// One framed round trip of an encoded request (`body[0]` is its
    /// tag): stamp a fresh request id, time the transport, check the
    /// echoed id, and record the exchange. `Ok` means the server answered
    /// *this* request — possibly with [`DcReply::Err`]; `Err` means the
    /// exchange itself failed and the request may not have been served.
    fn exchange(&self, body: &[u8]) -> Result<DcReply> {
        let tag = body[0];
        let req_id = self.next_req_id.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireRequest { req_id, op: tag as u64, bytes: body.len() as u64 });
        }
        let start = Instant::now();
        let reply = self.transport.call(&frame(&envelope(req_id, body)))?;
        let lat_us = start.elapsed().as_micros() as u64;
        let payload = unframe(&reply).map_err(wire_error)?;
        let (echo, rep_body) =
            open_envelope(payload).map_err(|e| Error::RecoveryInvariant(format!("wire: {e}")))?;
        if echo != req_id {
            return Err(Error::RecoveryInvariant(format!(
                "wire: reply id {echo} does not match request id {req_id}"
            )));
        }
        let rep = DcReply::decode(rep_body).map_err(wire_error)?;
        let ok = !matches!(rep, DcReply::Err(_));
        self.telemetry.record(tag, body.len(), rep_body.len(), lat_us, ok);
        if let Some(t) = self.trace() {
            t.emit(EventKind::WireReply {
                req_id,
                op: tag as u64,
                bytes: rep_body.len() as u64,
                lat_us,
                ok,
            });
        }
        Ok(rep)
    }
}

/// Proxy guard for a server-parked [`PreparedOp`]. [`RemoteDc::apply`]
/// disarms it once the server has consumed the token; dropped while still
/// armed it releases the token (best-effort — a dead transport means the
/// disconnect cleanup already did it).
struct RemoteOpGuard {
    client: Arc<WireClient>,
    /// 0 once disarmed (the server never issues token 0).
    token: u64,
}

impl OpGuard for RemoteOpGuard {
    fn token(&self) -> u64 {
        self.token
    }

    fn disarm(&mut self) {
        self.token = 0;
    }
}

impl Drop for RemoteOpGuard {
    fn drop(&mut self) {
        if self.token != 0 {
            let _ = self.client.call(&DcRequest::ReleaseOp { token: self.token });
        }
    }
}

/// [`DcApi`] over a [`Transport`].
///
/// The introspection facet ([`DcIntrospect`]'s `pool`/`config`/`wal`) is
/// served from a deployment-local handle to the backend — those hand out
/// references into shared engine infrastructure (the pool and the common
/// log live DC-side in this co-located deployment), while **every data,
/// control and recovery operation** goes through the wire. `stats()`
/// crosses the wire too: counter snapshots are plain data, and shipping
/// them exercises the histogram codec a remote-node deployment needs.
pub struct RemoteDc {
    client: Arc<WireClient>,
    /// Deployment-local introspection handle (NOT used for operations).
    local: Arc<dyn DcApi>,
    name: &'static str,
    /// How [`DcApi::reopen`] stands a fresh deployment up around the
    /// reopened backend: loopback by default, a fresh socket dial for the
    /// TCP deployments.
    redeploy: RedeployFn,
}

/// Deployment constructor a crash fork uses to rebuild the server +
/// transport pair around a reopened backend.
pub type RedeployFn = fn(Arc<dyn DcApi>, &'static str) -> Result<Arc<dyn DcApi>>;

fn loopback_redeploy(inner: Arc<dyn DcApi>, name: &'static str) -> Result<Arc<dyn DcApi>> {
    Ok(remote_loopback(inner, name).0)
}

impl RemoteDc {
    pub fn new(
        transport: Arc<dyn Transport>,
        local: Arc<dyn DcApi>,
        name: &'static str,
    ) -> RemoteDc {
        RemoteDc::with_redeploy(transport, local, name, loopback_redeploy)
    }

    /// As [`RemoteDc::new`], with an explicit reopen strategy (the TCP
    /// deployment re-dials instead of falling back to loopback).
    pub fn with_redeploy(
        transport: Arc<dyn Transport>,
        local: Arc<dyn DcApi>,
        name: &'static str,
        redeploy: RedeployFn,
    ) -> RemoteDc {
        RemoteDc { client: Arc::new(WireClient::new(transport)), local, name, redeploy }
    }

    fn call(&self, req: DcRequest) -> Result<DcReply> {
        self.client.call(&req)
    }

    /// A reply variant the request contract does not allow.
    fn protocol(ctx: &'static str, got: DcReply) -> Error {
        Error::RecoveryInvariant(format!("wire: unexpected reply for {ctx}: {got:?}"))
    }

    /// Fire-and-forget call for `()`-returning trait methods: transport
    /// failures surface on the next fallible operation instead.
    fn call_unit(&self, req: DcRequest) {
        let _ = self.call(req);
    }

    /// Pull the *server's* per-op accumulators across the boundary via
    /// [`DcRequest::Introspect`] — dispatch-side latencies, so the gap to
    /// [`DcIntrospect::wire_telemetry`] is pure transport overhead.
    pub fn server_telemetry(&self) -> Result<WireTelemetrySnapshot> {
        match self.call(DcRequest::Introspect)? {
            DcReply::WireTelemetry(snap) => Ok(snap),
            other => Err(Self::protocol("introspect", other)),
        }
    }
}

/// Wrap a backend in a loopback message deployment: server + transport +
/// proxy. Returns the proxy (what the engine holds) and the transport
/// (tests use it to sever and re-establish the connection).
pub fn remote_loopback(
    inner: Arc<dyn DcApi>,
    name: &'static str,
) -> (Arc<RemoteDc>, Arc<LoopbackTransport>) {
    let server = Arc::new(DcServer::new(inner.clone()));
    let transport = Arc::new(LoopbackTransport::new(server));
    (Arc::new(RemoteDc::new(transport.clone(), inner, name)), transport)
}

impl DcIntrospect for RemoteDc {
    fn backend_name(&self) -> &'static str {
        self.name
    }

    fn pool(&self) -> &BufferPool {
        self.local.pool()
    }

    fn stats(&self) -> DcStats {
        match self.call(DcRequest::Stats) {
            Ok(DcReply::Stats(s)) => *s,
            _ => DcStats::default(),
        }
    }

    fn config(&self) -> &DcConfig {
        self.local.config()
    }

    fn wal(&self) -> SharedWal {
        self.local.wal()
    }

    /// Round-trip counts, bytes and latencies as this proxy observed them
    /// through the transport.
    fn wire_telemetry(&self) -> Option<WireTelemetrySnapshot> {
        Some(self.client.telemetry.snapshot())
    }
}

impl DcApi for RemoteDc {
    fn read(&self, table: TableId, key: Key) -> Result<Option<Value>> {
        match self.call(DcRequest::Read { table, key })? {
            DcReply::Value(v) => Ok(v),
            other => Err(Self::protocol("read", other)),
        }
    }

    fn read_range(&self, table: TableId, from: Key, to: Key) -> Result<Vec<(Key, Value)>> {
        match self.call(DcRequest::ReadRange { table, from, to })? {
            DcReply::Rows(rows) => Ok(rows),
            other => Err(Self::protocol("read_range", other)),
        }
    }

    fn scan_all(&self, table: TableId) -> Result<Vec<(Key, Value)>> {
        match self.call(DcRequest::ScanAll { table })? {
            DcReply::Rows(rows) => Ok(rows),
            other => Err(Self::protocol("scan_all", other)),
        }
    }

    fn prepare_op(&self, table: TableId, key: Key, intent: WriteIntent) -> Result<PreparedOp<'_>> {
        match self.call(DcRequest::PrepareOp { table, key, intent: intent.into() })? {
            DcReply::Prepared { token, pid, before } => {
                let guard = RemoteOpGuard { client: self.client.clone(), token };
                Ok(PreparedOp::proxied(pid, before, guard))
            }
            other => Err(Self::protocol("prepare_op", other)),
        }
    }

    fn apply(&self, mut op: PreparedOp<'_>, rec: &LogRecord) -> Result<()> {
        // A failed exchange returns here with `op` still armed: the server
        // may never have seen the request, so the drop sends `ReleaseOp`.
        let rep = self.client.exchange(&encode_apply(op.token(), rec))?;
        // The server answered: applied or refused, the token went with its
        // parked guard in that same dispatch — nothing left to release.
        op.disarm();
        match rep {
            DcReply::Unit => Ok(()),
            DcReply::Err(w) => Err(w.into()),
            other => Err(Self::protocol("apply", other)),
        }
    }

    fn eosl(&self, elsn: Lsn) {
        self.call_unit(DcRequest::Eosl { elsn });
    }

    fn rssp(&self, rssp_lsn: Lsn) -> Result<()> {
        match self.call(DcRequest::Rssp { rssp_lsn })? {
            DcReply::Unit => Ok(()),
            other => Err(Self::protocol("rssp", other)),
        }
    }

    fn drain_in_flight_ops(&self) {
        self.call_unit(DcRequest::DrainInFlightOps);
    }

    fn crash(&self) {
        self.call_unit(DcRequest::Crash);
    }

    fn pump_events(&self) {
        self.call_unit(DcRequest::PumpEvents);
    }

    fn force_emit(&self) {
        self.call_unit(DcRequest::ForceEmit);
    }

    fn cleaner_pass(&self) -> Result<usize> {
        match self.call(DcRequest::CleanerPass)? {
            DcReply::Count(c) => Ok(c as usize),
            other => Err(Self::protocol("cleaner_pass", other)),
        }
    }

    fn compact_pass(&self) -> Result<usize> {
        match self.call(DcRequest::CompactPass)? {
            DcReply::Count(c) => Ok(c as usize),
            other => Err(Self::protocol("compact_pass", other)),
        }
    }

    fn create_table(&self, table: TableId) -> Result<()> {
        match self.call(DcRequest::CreateTable { table })? {
            DcReply::Unit => Ok(()),
            other => Err(Self::protocol("create_table", other)),
        }
    }

    fn register_table(&self, table: TableId, root: PageId) -> Result<()> {
        match self.call(DcRequest::RegisterTable { table, root })? {
            DcReply::Unit => Ok(()),
            other => Err(Self::protocol("register_table", other)),
        }
    }

    fn table_root(&self, table: TableId) -> Result<PageId> {
        match self.call(DcRequest::TableRoot { table })? {
            DcReply::Pid(pid) => Ok(pid),
            other => Err(Self::protocol("table_root", other)),
        }
    }

    fn verify_table(&self, table: TableId) -> Result<TableSummary> {
        match self.call(DcRequest::VerifyTable { table })? {
            DcReply::Summary(s) => Ok(s),
            other => Err(Self::protocol("verify_table", other)),
        }
    }

    fn redo(&self, window: &[LogRecord], plan: &RedoPlan) -> Result<RecoveryBreakdown> {
        // The whole pass runs server-side, next to the pages: one frame
        // carries the window and the plan, one reply the redo shard.
        match self.client.call_encoded(&encode_redo(window, plan))? {
            DcReply::Redone(shard) => Ok(*shard),
            other => Err(Self::protocol("redo", other)),
        }
    }

    fn set_trace(&self, sink: TraceSink) {
        // Three parties see the sink: the client (round-trip events), the
        // far side through the transport (dispatch events), and the local
        // backend handle (pool/OLC events in this co-located deployment).
        let _ = self.client.trace.set(sink.clone());
        self.client.transport.set_trace(sink.clone());
        self.local.set_trace(sink);
    }

    fn reopen(&self, disk: Box<dyn Disk>, wal: SharedWal, cfg: DcConfig) -> Result<Arc<dyn DcApi>> {
        // Reopen the backend, then stand up a fresh server + connection
        // around it — a crash fork gets its own deployment, exactly as a
        // restarted TC process would re-dial the DC.
        let inner = self.local.reopen(disk, wal, cfg)?;
        (self.redeploy)(inner, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DataComponent;
    use lr_common::{IoModel, SimClock, TxnId};
    use lr_storage::SimDisk;
    use lr_wal::{LogPayload, Wal};

    const T: TableId = TableId(1);

    fn deployment() -> (Arc<RemoteDc>, Arc<LoopbackTransport>) {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        let (remote, transport) = remote_loopback(Arc::new(dc), "remote:btree");
        remote.create_table(T).unwrap();
        (remote, transport)
    }

    fn insert(dc: &dyn DcApi, key: Key, value: Vec<u8>) {
        let op = dc.prepare_op(T, key, WriteIntent::Insert { value_len: value.len() }).unwrap();
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value,
        };
        let lsn = dc.wal().append(&payload);
        dc.apply(op, &LogRecord { lsn, payload }).unwrap();
    }

    /// How many exchanges of `req`'s kind the proxy has completed.
    fn sent(remote: &RemoteDc, req: DcRequest) -> u64 {
        remote.wire_telemetry().unwrap().op(req.tag()).map_or(0, |o| o.count)
    }

    #[test]
    fn full_write_read_cycle_through_the_proxy() {
        let (remote, _transport) = deployment();
        for k in 0..50u64 {
            insert(remote.as_ref(), k, vec![k as u8; 16]);
        }
        assert_eq!(remote.read(T, 7).unwrap().unwrap(), vec![7u8; 16]);
        assert_eq!(remote.read(T, 999).unwrap(), None);
        let rows = remote.scan_all(T).unwrap();
        assert_eq!(rows.len(), 50);
        let summary = remote.verify_table(T).unwrap();
        assert_eq!(summary.records, 50);
        assert_eq!(remote.backend_name(), "remote:btree");
        // Typed errors survive the boundary.
        assert!(matches!(remote.read(TableId(99), 1), Err(Error::UnknownTable(TableId(99)))));
        assert!(matches!(
            remote.prepare_op(T, 7, WriteIntent::Insert { value_len: 1 }),
            Err(Error::DuplicateKey { key: 7, .. })
        ));
    }

    #[test]
    fn disconnect_fails_cleanly_and_releases_parked_guards() {
        let (remote, transport) = deployment();
        insert(remote.as_ref(), 1, vec![1; 8]);

        // Park a prepare server-side, then drop the connection under it.
        let op = remote.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        let pid = op.pid;
        transport.disconnect();
        assert!(!transport.is_connected());

        // Calls now fail with a clean transport error, not a wedge/panic —
        // the apply that consumes the parked op included. It leaves the
        // op's guard armed; the release its drop then attempts over the
        // dead transport is swallowed (the disconnect cleanup already
        // released the server-side token).
        match remote.read(T, 1) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected a broken-pipe error, got {other:?}"),
        }
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: T,
            key: 2,
            pid,
            prev_lsn: Lsn::NULL,
            value: vec![2; 8],
        };
        match remote.apply(op, &LogRecord { lsn: Lsn(900), payload }) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected a broken-pipe error, got {other:?}"),
        }

        // Reconnect: the key is writable again (no wedged latch).
        let server = Arc::new(DcServer::new(remote.local.clone()));
        transport.reconnect(server);
        insert(remote.as_ref(), 2, vec![2; 8]);
        assert_eq!(remote.read(T, 1).unwrap().unwrap(), vec![1; 8]);
        assert_eq!(remote.read(T, 2).unwrap().unwrap(), vec![2; 8]);
    }

    #[test]
    fn a_write_is_two_crossings_and_only_an_abandoned_prepare_releases() {
        let (remote, transport) = deployment();
        let server = transport.server().unwrap();
        let release = || sent(&remote, DcRequest::ReleaseOp { token: 0 });
        for k in 0..5u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        // create_table + 5 × (PrepareOp, Apply): the fused apply released
        // each token server-side and disarmed the proxy guard's drop.
        assert_eq!(remote.wire_telemetry().unwrap().total_count(), 1 + 5 * 2);
        assert_eq!(release(), 0);
        assert_eq!(server.held_guards(), 0);

        // Abandoned before apply: the drop sends exactly one ReleaseOp.
        let op = remote.prepare_op(T, 9, WriteIntent::Insert { value_len: 8 }).unwrap();
        assert_eq!(server.held_guards(), 1);
        drop(op);
        assert_eq!(release(), 1);
        assert_eq!(server.held_guards(), 0);
    }

    #[test]
    fn apply_that_fails_dc_side_returns_the_typed_error_and_releases_its_token() {
        let (remote, transport) = deployment();
        let server = transport.server().unwrap();
        let op = remote.prepare_op(T, 1, WriteIntent::Insert { value_len: 8 }).unwrap();
        // The record names a table the DC has never heard of.
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table: TableId(99),
            key: 1,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value: vec![1; 8],
        };
        let out = remote.apply(op, &LogRecord { lsn: Lsn(900), payload });
        assert!(matches!(out, Err(Error::UnknownTable(TableId(99)))), "{out:?}");
        assert_eq!(server.held_guards(), 0, "a failed apply must not keep its guard");
        // The server answered, so the consumed op's drop sent nothing more.
        assert_eq!(sent(&remote, DcRequest::ReleaseOp { token: 0 }), 0);
        insert(remote.as_ref(), 1, vec![1; 8]); // key 1 is not wedged
    }

    #[test]
    fn client_and_server_telemetry_agree_on_loopback() {
        let (remote, transport) = deployment();
        for k in 0..10u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        for k in 0..10u64 {
            remote.read(T, k).unwrap();
        }
        let _ = remote.read(TableId(99), 1); // one error exchange
        let client = remote.wire_telemetry().unwrap();
        let server = transport.server().unwrap().telemetry();
        // Same ops, same counts, same byte totals on both sides; only the
        // latencies differ (round-trip vs dispatch-only), so compare the
        // histograms by recorded-sample count.
        assert!(!client.ops.is_empty());
        assert_eq!(client.ops.len(), server.ops.len());
        for (c, s) in client.ops.iter().zip(&server.ops) {
            assert_eq!(c.op, s.op, "op order diverged");
            assert_eq!(c.count, s.count, "count for {}", c.name());
            assert_eq!(c.errors, s.errors, "errors for {}", c.name());
            assert_eq!(c.req_bytes, s.req_bytes, "req bytes for {}", c.name());
            assert_eq!(c.rep_bytes, s.rep_bytes, "rep bytes for {}", c.name());
            assert_eq!(c.lat_us.count(), s.lat_us.count(), "lat samples for {}", c.name());
        }
        let read = client.op(DcRequest::Read { table: T, key: 0 }.tag()).unwrap();
        assert_eq!((read.count, read.errors), (11, 1));
    }

    #[test]
    fn server_telemetry_crosses_the_wire_intact() {
        let (remote, transport) = deployment();
        for k in 0..5u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        // The introspect exchange is recorded only after its reply has
        // been sized, so the shipped snapshot equals the server's local
        // snapshot taken just before the call.
        let local = transport.server().unwrap().telemetry();
        let wired = remote.server_telemetry().unwrap();
        assert_eq!(wired, local);
        assert!(wired.total_count() > 0);
    }

    /// A transport that echoes the wrong request id on every reply.
    struct WrongIdTransport;

    impl Transport for WrongIdTransport {
        fn call(&self, _request: &[u8]) -> Result<Vec<u8>> {
            Ok(frame(&envelope(u64::MAX, &DcReply::Unit.encode())))
        }
    }

    #[test]
    fn mismatched_reply_id_is_a_protocol_error() {
        let (remote, _transport) = deployment();
        let broken = RemoteDc::new(Arc::new(WrongIdTransport), remote.local.clone(), "remote:bad");
        match broken.read(T, 1) {
            Err(Error::RecoveryInvariant(m)) => assert!(m.contains("does not match"), "{m}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn stats_snapshot_crosses_the_wire_with_histograms() {
        let (remote, _transport) = deployment();
        for k in 0..20u64 {
            insert(remote.as_ref(), k, vec![0; 8]);
        }
        for k in 0..20u64 {
            remote.read(T, k).unwrap();
        }
        let stats = remote.stats();
        assert!(stats.optimistic_point_reads > 0);
        // The restart histogram made the trip intact: every optimistic
        // read recorded its restart count.
        assert_eq!(stats.read_restart_hist.count(), stats.optimistic_point_reads);
    }
}
