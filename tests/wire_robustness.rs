//! Frame-corruption robustness: every malformed byte sequence a client
//! can send — truncations, bit-flips, bad CRCs, oversized length
//! prefixes — must produce either a **typed error reply** (when the
//! stream framing is intact enough to answer on) or a **clean
//! disconnect** (when it is not), never a panic, a wedge, or a poisoned
//! server. Both network fronts are swept: the DC's wire server
//! ([`lr_dc::DcServer`] over [`lr_dc::TcpDcServer`]) — on a small
//! `Stats` frame and on a recovery-sized `Redo` frame carrying a whole
//! window — and the client-facing session server ([`lr_server::Server`]).

use lr_common::codec::{frame, read_raw_frame_from, unframe, MAX_FRAME_BODY};
use lr_common::{IoModel, Lsn, PageId, SimClock, TableId, TxnId};
use lr_core::{Engine, EngineConfig};
use lr_dc::server::{envelope, open_envelope};
use lr_dc::wire::encode_redo;
use lr_dc::{
    DcConfig, DcReply, DcRequest, DcServer, Dpt, Family, Prefetch, RedoPlan, TcpDcServer, WireError,
};
use lr_server::protocol::{ClientReply, ClientRequest};
use lr_server::{Server, ServerConfig};
use lr_wal::{LogPayload, LogRecord, Wal};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

// ---------------------------------------------------------------------
// corruption battery
// ---------------------------------------------------------------------

/// A corruption applied to a valid frame, and what the server owes us
/// back: a typed error reply on the same connection, or a clean close.
enum Expect {
    /// The frame arrives whole but cannot be trusted or understood:
    /// a typed error reply, echoed under request id 0 (the server
    /// could not trust the id inside the frame).
    TypedErrorEchoZero,
    /// The stream itself is broken: the server hangs up cleanly.
    CleanClose,
}

fn battery(valid: &[u8]) -> Vec<(&'static str, Vec<u8>, Expect)> {
    let mut flipped_body = valid.to_vec();
    *flipped_body.last_mut().unwrap() ^= 0x40; // body bit-flip → CRC mismatch
    let mut bad_crc = valid.to_vec();
    bad_crc[4] ^= 0xFF; // CRC field itself corrupted
    let garbage = frame(&[0xDE, 0xAD]); // valid CRC over an un-openable envelope
    let truncated = valid[..valid.len() - 3].to_vec(); // frame cut at its tail
    let halved = valid[..valid.len() / 2].to_vec(); // cut mid-body (mid-record for Redo)
    let runt = valid[..3].to_vec(); // cut mid-header
    let mut oversized = Vec::new(); // length prefix past the cap
    oversized.extend_from_slice(&((MAX_FRAME_BODY as u32) + 1).to_le_bytes());
    oversized.extend_from_slice(&0u32.to_le_bytes());
    vec![
        ("bit-flip in body", flipped_body, Expect::TypedErrorEchoZero),
        ("corrupted crc field", bad_crc, Expect::TypedErrorEchoZero),
        ("well-framed garbage payload", garbage, Expect::TypedErrorEchoZero),
        ("truncated frame", truncated, Expect::CleanClose),
        ("frame cut in half", halved, Expect::CleanClose),
        ("runt header", runt, Expect::CleanClose),
        ("oversized length prefix", oversized, Expect::CleanClose),
    ]
}

/// Send `bytes` raw, then close our write half so a server waiting for
/// the rest of a torn frame sees EOF instead of blocking forever.
/// Returns the server's reply frame, or `None` on a clean close.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
    read_raw_frame_from(&mut stream).ok().flatten()
}

fn is_wire_error(w: &WireError) -> bool {
    matches!(w, WireError::RecoveryInvariant(msg) if msg.contains("wire"))
}

// ---------------------------------------------------------------------
// the DC wire server
// ---------------------------------------------------------------------

/// A valid `Redo` request: a window of `n` update records and a
/// physiological plan whose empty DPT screens every one of them out, so
/// serving it — as often as the battery likes — touches no page.
fn redo_request(n: u64) -> Vec<u8> {
    let window: Vec<LogRecord> = (0..n)
        .map(|k| LogRecord {
            lsn: Lsn(1_000 + k),
            payload: LogPayload::Update {
                txn: TxnId(1),
                table: TableId(1),
                key: k,
                pid: PageId(3),
                prev_lsn: Lsn::NULL,
                before: vec![1; 64],
                after: vec![2; 64],
            },
        })
        .collect();
    let plan = RedoPlan {
        family: Family::Physiological,
        prefetch: Prefetch::None,
        preload: false,
        dpt: Some(Dpt::new()),
        tail_from: Lsn::MAX,
        pf_list: Vec::new(),
        log_pages: 0,
        workers: 1,
    };
    encode_redo(&window, &plan)
}

#[test]
fn dc_server_answers_corruption_typed_or_hangs_up_clean() {
    let reg = lr_dc::backend("btree").unwrap();
    let mut disk = lr_storage::SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
    (reg.format)(&mut disk).unwrap();
    let inner = (reg.open)(Box::new(disk), Wal::new_shared(4096), DcConfig::default()).unwrap();
    inner.create_table(TableId(1)).unwrap();
    let tcp = TcpDcServer::spawn(Arc::new(DcServer::new(inner))).unwrap();
    let addr = tcp.addr();

    // The honest answer to each request: real stats, and every one of the
    // window's 200 records screened out.
    let answered = |op: &str, rep: &DcReply| match (op, rep) {
        ("stats", DcReply::Stats(_)) => true,
        ("redo", DcReply::Redone(s)) => s.skipped_no_dpt_entry == 200 && s.ops_reapplied == 0,
        _ => false,
    };
    for (op, body) in [("stats", DcRequest::Stats.encode()), ("redo", redo_request(200))] {
        let valid = frame(&envelope(1, &body));
        for (name, bytes, expect) in battery(&valid) {
            match (send_raw(addr, &bytes), expect) {
                (Some(raw), Expect::TypedErrorEchoZero) => {
                    let (echo, body) = open_envelope(unframe(&raw).unwrap()).unwrap();
                    assert_eq!(echo, 0, "{op}/{name}: corrupt frames answer under id 0");
                    match DcReply::decode(body).unwrap() {
                        DcReply::Err(w) => assert!(is_wire_error(&w), "{op}/{name}: got {w:?}"),
                        other => panic!("{op}/{name}: expected a typed error, got {other:?}"),
                    }
                }
                (None, Expect::CleanClose) => {}
                (got, _) => {
                    panic!("{op}/{name}: wrong outcome (reply present: {})", got.is_some())
                }
            }
            // The server survives every case: a fresh, honest request on a
            // fresh connection still gets its real answer back.
            let raw = send_raw(addr, &valid).expect("server still serving after corruption");
            let (echo, body) = open_envelope(unframe(&raw).unwrap()).unwrap();
            assert_eq!(echo, 1);
            let reply = DcReply::decode(body).unwrap();
            assert!(answered(op, &reply), "{op}/{name}: aftermath {reply:?}");
        }
    }
}

// ---------------------------------------------------------------------
// the client-facing session server
// ---------------------------------------------------------------------

#[test]
fn client_server_answers_corruption_typed_or_hangs_up_clean() {
    let engine = Engine::build(EngineConfig {
        initial_rows: 8,
        pool_pages: 32,
        io_model: IoModel::zero(),
        ..EngineConfig::default()
    })
    .unwrap()
    .into_shared();
    let (server, addr) = Server::start_tcp(engine, ServerConfig::default()).unwrap();

    let valid = frame(&envelope(1, &ClientRequest::Ping.encode()));
    for (name, bytes, expect) in battery(&valid) {
        match (send_raw(addr, &bytes), expect) {
            (Some(raw), Expect::TypedErrorEchoZero) => {
                let (echo, body) = open_envelope(unframe(&raw).unwrap()).unwrap();
                assert_eq!(echo, 0, "{name}: corrupt frames answer under id 0");
                match ClientReply::decode(body).unwrap() {
                    ClientReply::Err(w) => assert!(is_wire_error(&w), "{name}: got {w:?}"),
                    other => panic!("{name}: expected a typed error, got {other:?}"),
                }
            }
            (None, Expect::CleanClose) => {}
            (got, _) => panic!("{name}: wrong outcome (reply present: {})", got.is_some()),
        }
        let raw = send_raw(addr, &valid).expect("server still serving after corruption");
        let (echo, body) = open_envelope(unframe(&raw).unwrap()).unwrap();
        assert_eq!(echo, 1);
        assert!(
            matches!(ClientReply::decode(body).unwrap(), ClientReply::Pong),
            "{name}: aftermath"
        );
    }

    // A decodable envelope around an unknown request tag is the client's
    // bug, not the stream's: the error comes back under the *real*
    // request id, so a pipelining client can attribute it.
    let unknown_tag = frame(&envelope(42, &[0xEE]));
    let raw = send_raw(addr, &unknown_tag).unwrap();
    let (echo, body) = open_envelope(unframe(&raw).unwrap()).unwrap();
    assert_eq!(echo, 42, "decodable envelope keeps its request id");
    assert!(matches!(ClientReply::decode(body).unwrap(), ClientReply::Err(w) if is_wire_error(&w)));

    // Every corrupt frame that got a typed reply was counted.
    assert!(server.stats().request_errors >= 4, "corruption replies are counted as errors");
}
