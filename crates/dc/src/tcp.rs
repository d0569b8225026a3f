//! Real-socket deployment of the TC↔DC wire: a [`DcServer`] behind a
//! loopback [`std::net::TcpListener`] with thread-per-connection dispatch,
//! and a [`TcpTransport`] implementing [`Transport`] over a pool of
//! `TcpStream`s.
//!
//! ## Why a connection *pool* and not one shared stream
//!
//! A naive transport — one `TcpStream` behind a mutex — deadlocks: caller
//! A's dispatch can block server-side (e.g. waiting on a latch a parked
//! guard holds) while caller B, queued on the transport mutex behind A's
//! in-flight exchange, is the very caller whose `Apply` (which releases
//! that guard) would unblock A. Each exchange therefore checks a stream
//! out of the pool (dialing a fresh one when the pool is empty), so
//! blocked exchanges never gate other exchanges, and the server's
//! thread-per-connection accept loop dispatches them concurrently —
//! exactly the shape a production front end has.
//!
//! ## Client-death semantics
//!
//! Parked guard tokens live in the [`DcServer`], not in any one
//! connection, so a single connection closing must NOT release them (its
//! stream may simply have been retired from the pool). The server instead
//! treats "last live connection gone" as "the client process is gone" and
//! runs the [`DcServer::disconnect`] cleanup — the transport dials its
//! first stream eagerly at construction and keeps it pooled for the
//! transport's lifetime, so the live count stays positive while the
//! client is alive.

use crate::api::DcApi;
use crate::remote::{RemoteDc, Transport};
use crate::server::DcServer;
use lr_common::codec::{check_frame_body, read_raw_frame_from, FRAME_HEADER};
use lr_common::{Error, Result};
use lr_obs::TraceSink;
use parking_lot::Mutex;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Idle streams kept for reuse; beyond this, returned streams are closed.
/// Deep enough that a fleet of concurrent sessions plus their guard-drop
/// traffic reuses connections instead of re-dialing per call.
const POOL_CAP: usize = 16;

/// A [`DcServer`] listening on an OS-assigned loopback port. Each
/// accepted connection gets its own thread running the read-frame →
/// `serve_frame` → write-frame loop; corrupt *streams* (torn header,
/// oversized length prefix) drop the connection, while corrupt *frames*
/// (bad CRC, garbage payload) arrive intact and come back as typed error
/// replies from [`DcServer::serve_frame`].
pub struct TcpDcServer {
    server: Arc<DcServer>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpDcServer {
    /// Bind `127.0.0.1:0` and start accepting.
    pub fn spawn(server: Arc<DcServer>) -> Result<TcpDcServer> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicU64::new(0));
        let accept_thread = {
            let server = server.clone();
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("lr-dc-tcp-accept".into())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let server = server.clone();
                        let conn_live = live.clone();
                        live.fetch_add(1, Ordering::AcqRel);
                        let spawned = std::thread::Builder::new()
                            .name("lr-dc-tcp-conn".into())
                            .spawn(move || {
                                serve_conn(&server, stream);
                                // Last live connection gone ⇒ the client
                                // (which pins one stream for its whole
                                // lifetime) is gone: orphaned guards must
                                // not outlive it.
                                if conn_live.fetch_sub(1, Ordering::AcqRel) == 1 {
                                    server.disconnect();
                                }
                            });
                        if spawned.is_err() {
                            live.fetch_sub(1, Ordering::AcqRel);
                        }
                    }
                })
                .map_err(|e| Error::Io(std::io::Error::other(e)))?
        };
        Ok(TcpDcServer { server, addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound loopback address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wrapped frame server (tests compare both sides' telemetry).
    pub fn server(&self) -> &Arc<DcServer> {
        &self.server
    }
}

impl Drop for TcpDcServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // `TcpListener::accept` has no portable interrupt: wake the loop
        // with a throwaway self-connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// One connection's serve loop: frames in, replies out, until the peer
/// closes or the stream turns unreadable.
fn serve_conn(server: &DcServer, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    loop {
        let frame = match read_raw_frame_from(&mut stream) {
            Ok(Some(f)) => f,
            // Clean close, torn frame, or oversized length prefix: this
            // connection is done. Guard cleanup is the accept loop's
            // last-connection accounting, not ours.
            Ok(None) | Err(_) => return,
        };
        let reply = server.serve_frame(&frame);
        if stream.write_all(&reply).is_err() {
            return;
        }
    }
}

/// [`Transport`] over loopback TCP: a pool of streams to a
/// [`TcpDcServer`], one checked out per in-flight exchange.
pub struct TcpTransport {
    addr: SocketAddr,
    pool: Mutex<Vec<TcpStream>>,
    connected: AtomicBool,
    /// Keeps a co-located server deployment alive for the transport's
    /// lifetime (and reachable for `set_trace`); `None` when dialing an
    /// address some other process owns.
    deployment: Option<Arc<TcpDcServer>>,
}

impl TcpTransport {
    /// Dial a server by address. The first stream is established eagerly —
    /// both to fail fast and to pin the server's live-connection count
    /// above zero for this transport's lifetime.
    pub fn connect(addr: SocketAddr) -> Result<TcpTransport> {
        Self::build(addr, None)
    }

    /// Dial a co-located [`TcpDcServer`], tying its lifetime to the
    /// transport's.
    pub fn connect_deployment(deployment: Arc<TcpDcServer>) -> Result<TcpTransport> {
        Self::build(deployment.addr(), Some(deployment))
    }

    fn build(addr: SocketAddr, deployment: Option<Arc<TcpDcServer>>) -> Result<TcpTransport> {
        let first = Self::dial(addr)?;
        Ok(TcpTransport {
            addr,
            pool: Mutex::new(vec![first]),
            connected: AtomicBool::new(true),
            deployment,
        })
    }

    fn dial(addr: SocketAddr) -> Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(stream)
    }

    /// Sever the connection: close every pooled stream and fail all
    /// subsequent calls with a broken-pipe error. Once in-flight
    /// exchanges drain, the server's last-connection accounting runs its
    /// orphaned-guard cleanup — the same semantics as
    /// [`crate::remote::LoopbackTransport::disconnect`].
    pub fn disconnect(&self) {
        self.connected.store(false, Ordering::Release);
        self.pool.lock().clear();
    }

    pub fn is_connected(&self) -> bool {
        self.connected.load(Ordering::Acquire)
    }

    /// The co-located server deployment, when this transport owns one
    /// (tests watch its guard table across disconnects).
    pub fn deployment(&self) -> Option<&Arc<TcpDcServer>> {
        self.deployment.as_ref()
    }

    fn checkout(&self) -> Result<TcpStream> {
        if !self.is_connected() {
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "DC transport disconnected",
            )));
        }
        if let Some(stream) = self.pool.lock().pop() {
            return Ok(stream);
        }
        Self::dial(self.addr)
    }

    fn checkin(&self, stream: TcpStream) {
        if !self.is_connected() {
            return;
        }
        let mut pool = self.pool.lock();
        if pool.len() < POOL_CAP {
            pool.push(stream);
        }
    }
}

impl Transport for TcpTransport {
    fn call(&self, request: &[u8]) -> Result<Vec<u8>> {
        // An over-cap frame would make the server drop the connection:
        // refuse it here, before a stream is touched.
        check_frame_body(request.len().saturating_sub(FRAME_HEADER))?;
        let mut stream = self.checkout()?;
        stream.write_all(request)?;
        let reply = read_raw_frame_from(&mut stream)?.ok_or_else(|| {
            Error::Io(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "DC server closed the connection",
            ))
        })?;
        // Errored streams are dropped (their server thread sees EOF);
        // only a stream that completed its exchange goes back in the
        // pool.
        self.checkin(stream);
        Ok(reply)
    }

    fn set_trace(&self, sink: TraceSink) {
        if let Some(dep) = &self.deployment {
            dep.server().set_trace(sink);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.disconnect();
    }
}

/// Wrap a backend in a full TCP message deployment: frame server in its
/// own accept/connection threads, socket transport, proxy. The engine
/// talks to the returned [`RemoteDc`] exactly as it talks to a loopback
/// deployment — every operation now crosses a real socket. Crash forks
/// redeploy by re-dialing a fresh server around the reopened backend.
pub fn tcp_deploy(
    inner: Arc<dyn DcApi>,
    name: &'static str,
) -> Result<(Arc<RemoteDc>, Arc<TcpTransport>)> {
    let server = Arc::new(DcServer::new(inner.clone()));
    let deployment = Arc::new(TcpDcServer::spawn(server)?);
    let transport = Arc::new(TcpTransport::connect_deployment(deployment)?);
    Ok((Arc::new(RemoteDc::with_redeploy(transport.clone(), inner, name, tcp_redeploy)), transport))
}

fn tcp_redeploy(inner: Arc<dyn DcApi>, name: &'static str) -> Result<Arc<dyn DcApi>> {
    Ok(tcp_deploy(inner, name)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{DataComponent, DcConfig};
    use crate::wire::{DcReply, DcRequest, WireError, WireIntent};
    use lr_common::codec::{frame, unframe};
    use lr_common::{IoModel, SimClock, TableId};
    use lr_storage::SimDisk;
    use lr_wal::Wal;

    const T: TableId = TableId(1);

    fn test_backend() -> Arc<dyn DcApi> {
        let mut disk = SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(Box::new(disk), wal, DcConfig::default()).unwrap();
        dc.create_table(T).unwrap();
        Arc::new(dc)
    }

    fn roundtrip(transport: &TcpTransport, req_id: u64, req: &DcRequest) -> DcReply {
        let framed = frame(&crate::server::envelope(req_id, &req.encode()));
        let reply = transport.call(&framed).unwrap();
        let payload = unframe(&reply).unwrap();
        let (echo, body) = crate::server::open_envelope(payload).unwrap();
        assert_eq!(echo, req_id);
        DcReply::decode(body).unwrap()
    }

    /// Guard cleanup after a disconnect is asynchronous: the connection
    /// threads observe EOF, and the last one out runs the orphaned-guard
    /// release.
    fn await_guard_sweep(server: &DcServer) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while server.held_guards() != 0 {
            assert!(std::time::Instant::now() < deadline, "parked guard leaked past disconnect");
            std::thread::yield_now();
        }
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        match roundtrip(&transport, 7, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("expected Stats reply, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_streams() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        let transport = Arc::new(transport);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let t = transport.clone();
                std::thread::spawn(move || {
                    for j in 0..20 {
                        let id = 1 + i * 100 + j;
                        match roundtrip(&t, id, &DcRequest::Stats) {
                            DcReply::Stats(_) => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn corrupt_frame_gets_typed_reply_not_a_dropped_connection() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        let mut framed = frame(&crate::server::envelope(3, &DcRequest::Stats.encode()));
        let last = framed.len() - 1;
        framed[last] ^= 0x40; // body bit-flip: CRC check fails server-side
        let reply = transport.call(&framed).unwrap();
        let payload = unframe(&reply).unwrap();
        let (echo, body) = crate::server::open_envelope(payload).unwrap();
        assert_eq!(echo, 0, "server cannot trust a corrupt frame's request id");
        match DcReply::decode(body).unwrap() {
            DcReply::Err(WireError::RecoveryInvariant(msg)) => {
                assert!(msg.contains("wire"), "got: {msg}")
            }
            other => panic!("expected wire error, got {other:?}"),
        }
        // The same connection still serves well-formed frames.
        match roundtrip(&transport, 4, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("expected Stats reply, got {other:?}"),
        }
    }

    /// A request over the frame cap is refused client-side with a typed
    /// error before any byte is written, and the transport stays usable.
    #[test]
    fn over_cap_request_is_a_typed_error_and_the_transport_stays_usable() {
        use lr_common::codec::MAX_FRAME_BODY;
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        // A frame whose header announces one byte over the cap; the zeroed
        // body is never read.
        let mut over = vec![0u8; FRAME_HEADER + MAX_FRAME_BODY + 1];
        over[..4].copy_from_slice(&(MAX_FRAME_BODY as u32 + 1).to_le_bytes());
        match transport.call(&over) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            other => panic!("expected an InvalidInput error, got {other:?}"),
        }
        match roundtrip(&transport, 9, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("expected Stats reply, got {other:?}"),
        }
    }

    #[test]
    fn disconnect_fails_calls_and_releases_parked_guards() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        let req =
            DcRequest::PrepareOp { table: T, key: 10, intent: WireIntent::Insert { value_len: 3 } };
        match roundtrip(&transport, 1, &req) {
            DcReply::Prepared { .. } => {}
            other => panic!("expected Prepared, got {other:?}"),
        }
        let server = transport.deployment().unwrap().server().clone();
        assert_eq!(server.held_guards(), 1);
        transport.disconnect();
        let framed = frame(&crate::server::envelope(2, &DcRequest::Stats.encode()));
        assert!(transport.call(&framed).is_err(), "calls must fail after disconnect");
        await_guard_sweep(&server);
    }

    /// The token discipline of the fused apply, over a real socket: a
    /// write is two exchanges and leaves no guard parked; an apply that
    /// fails DC-side still releases; a token that is not parked is
    /// refused; a disconnect between prepare and apply is a broken-pipe
    /// error from `apply`, the consumed op drops quietly, and the swept
    /// key is writable through a fresh deployment.
    #[test]
    fn fused_apply_token_discipline_over_a_socket() {
        use crate::dc::WriteIntent;
        use crate::DcIntrospect;
        use lr_common::{Lsn, TxnId};
        use lr_wal::{LogPayload, LogRecord};

        let backend = test_backend();
        let (dc, transport) = tcp_deploy(backend.clone(), "tcp-test").unwrap();
        let server = transport.deployment().unwrap().server().clone();
        let insert_rec = |table: TableId, key: u64, pid| {
            let payload = LogPayload::Insert {
                txn: TxnId(1),
                table,
                key,
                pid,
                prev_lsn: Lsn::NULL,
                value: vec![key as u8; 8],
            };
            LogRecord { lsn: dc.wal().append(&payload), payload }
        };
        let release_tag = DcRequest::ReleaseOp { token: 0 }.tag();

        let op = dc.prepare_op(T, 1, WriteIntent::Insert { value_len: 8 }).unwrap();
        assert_eq!(server.held_guards(), 1);
        let rec = insert_rec(T, 1, op.pid);
        dc.apply(op, &rec).unwrap();
        assert_eq!(server.held_guards(), 0);
        let sent = dc.wire_telemetry().unwrap();
        assert_eq!(sent.total_count(), 2, "PrepareOp + Apply");
        assert!(sent.op(release_tag).is_none());

        // DC-side failure: typed error back, token gone, nothing re-sent.
        let op = dc.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        let rec = insert_rec(TableId(99), 2, op.pid);
        assert!(matches!(dc.apply(op, &rec), Err(Error::UnknownTable(TableId(99)))));
        assert_eq!(server.held_guards(), 0);
        assert!(dc.wire_telemetry().unwrap().op(release_tag).is_none());

        // A token that is not parked: refused, key 3 never appears.
        let stray =
            DcRequest::Apply { token: 0, rec: insert_rec(T, 3, rec.payload.data_pid().unwrap()) };
        assert!(matches!(
            roundtrip(&transport, 1 << 40, &stray),
            DcReply::Err(WireError::RecoveryInvariant(_))
        ));
        assert_eq!(dc.read(T, 3).unwrap(), None);

        // Disconnect between prepare and apply.
        let op = dc.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        let rec = insert_rec(T, 2, op.pid);
        transport.disconnect();
        match dc.apply(op, &rec) {
            Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
            other => panic!("expected a broken-pipe error, got {other:?}"),
        }
        await_guard_sweep(&server);
        let (dc, _transport) = tcp_deploy(backend, "tcp-test").unwrap();
        let op = dc.prepare_op(T, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
        let rec = insert_rec(T, 2, op.pid);
        dc.apply(op, &rec).unwrap();
        assert_eq!(dc.read(T, 2).unwrap().unwrap(), vec![2u8; 8]);
    }

    #[test]
    fn server_drop_is_clean_while_client_streams_exist() {
        let (_dc, transport) = tcp_deploy(test_backend(), "tcp-test").unwrap();
        match roundtrip(&transport, 1, &DcRequest::Stats) {
            DcReply::Stats(_) => {}
            other => panic!("unexpected reply {other:?}"),
        }
        // Dropping the proxy + transport tears the deployment down: the
        // accept thread joins, connection threads exit on EOF.
        drop(transport);
        drop(_dc);
    }
}
