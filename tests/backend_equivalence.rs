//! The `DcApi` contract, proven across backends: the B-tree DC, the
//! hash-index DC, the log-structured DC (the WAL is the store), and
//! their `remote:*` proxies (the same components behind the message
//! boundary — every call crossing the wire codec through a `DcServer`
//! over a loopback transport) must expose **identical committed state**
//! after any crash, for every recovery method — the Deuteronomy claim
//! that the TC neither knows nor cares how, or *where*, the DC places
//! data.
//!
//! The suites riding the same harness:
//!
//! * the recovery-equivalence matrix — one seeded workload per backend,
//!   one crash, all nine methods recovered on independent forks; every
//!   method must agree within a backend, and all backends must agree
//!   with each other (and with the committed-state oracle);
//! * the remote worker matrix — the proxied backends recover all nine
//!   methods at 1/2/4 redo workers, all agreeing;
//! * the bank invariant — concurrent sessions transferring money, crash
//!   with a transfer in flight, recover: conservation holds on every
//!   backend, including through the proxy;
//! * the durable-byte bill — the same §5.2 update stream costs the log
//!   backend strictly fewer log + page-write bytes than the B-tree;
//! * the crossing counts — a committed 10-update transaction through a
//!   proxy is exactly 10 `PrepareOp` + 10 `Apply` + 1 `Eosl` and no
//!   `ReleaseOp`, recovery's `smo_redo` ships SMO records, not the redo
//!   window, and a recovery's crossings per op are pinned per method
//!   (redo is one `redo` call, run server-side);
//! * the transport-drop probe — a prepare parked server-side when the
//!   connection dies must surface a clean error (from the apply that
//!   consumes it, too) and release its token, never a wedged latch.

use lr_common::IoModel;
use lr_core::config::deterministic_value;
use lr_core::{
    Engine, EngineConfig, RecoveryMethod, RecoveryOptions, Session, ShadowDb, DEFAULT_TABLE,
};
use lr_workload::{Op, TxnGenerator, WorkloadSpec};
use std::sync::Arc;

const BACKENDS: [&str; 6] = ["btree", "hash", "log", "remote:btree", "remote:hash", "remote:log"];
const REMOTE_BACKENDS: [&str; 3] = ["remote:btree", "remote:hash", "remote:log"];

fn config_for(backend: &str) -> EngineConfig {
    EngineConfig {
        initial_rows: 1_500,
        pool_pages: 48,
        io_model: IoModel::zero(),
        dirty_batch_cap: 24,
        flush_batch_cap: 24,
        // Capture everything any method could need on one log.
        aries_ckpt_capture: true,
        perfect_delta_lsns: true,
        backend: backend.to_string(),
        ..EngineConfig::default()
    }
}

/// A deterministic single-stream workload touching every operation kind:
/// updates over the loaded rows, fresh inserts, deletes of both loaded
/// and inserted keys, checkpoints between phases, and one in-flight loser
/// left open at the crash.
fn run_workload(engine: &Engine, shadow: &mut ShadowDb) {
    let rows = engine.config().initial_rows;
    let vsize = engine.config().row_value_size;
    for phase in 0..3u64 {
        for i in 0..120u64 {
            let t = engine.begin().unwrap();
            let k1 = (i * 13 + phase * 7) % rows;
            let v1 = deterministic_value(k1, phase + 1, vsize);
            // A prior phase may have deleted this key: re-insert then.
            if engine.read(DEFAULT_TABLE, k1).unwrap().is_some() {
                engine.update(t, k1, v1.clone()).unwrap();
            } else {
                engine.insert(t, k1, v1.clone()).unwrap();
            }
            shadow.stage_put(t, DEFAULT_TABLE, k1, v1);
            if i % 5 == 0 {
                let nk = rows + phase * 200 + i;
                let nv = deterministic_value(nk, 0, vsize);
                engine.insert(t, nk, nv.clone()).unwrap();
                shadow.stage_put(t, DEFAULT_TABLE, nk, nv);
            }
            if i % 11 == 0 {
                let dk = (i * 3 + phase * 101) % rows;
                // Only delete keys still present (an earlier phase may
                // have deleted it already).
                if engine.read(DEFAULT_TABLE, dk).unwrap().is_some() {
                    engine.delete(t, dk).unwrap();
                    shadow.stage_delete(t, DEFAULT_TABLE, dk);
                }
            }
            engine.commit(t).unwrap();
            shadow.commit(t);
        }
        engine.checkpoint().unwrap();
    }
    // One loser in flight: recovery undo must erase it on every backend.
    let loser = engine.begin().unwrap();
    engine.update(loser, 1, b"loser-update".to_vec()).unwrap();
    engine.insert(loser, 999_999, b"loser-insert".to_vec()).unwrap();
    // no commit — the crash orphans it
}

#[test]
fn all_methods_agree_within_and_across_backends() {
    let mut per_backend: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
    for backend in BACKENDS {
        let cfg = config_for(backend);
        let mut shadow = ShadowDb::with_initial_rows(&cfg);
        let engine = Engine::build(cfg).unwrap();
        run_workload(&engine, &mut shadow);
        engine.crash();
        shadow.crash();

        let mut reference: Option<Vec<(u64, Vec<u8>)>> = None;
        for method in RecoveryMethod::all() {
            let fork = engine.fork_crashed().unwrap();
            let report = fork
                .recover(method)
                .unwrap_or_else(|e| panic!("{backend}/{method}: recovery failed: {e}"));
            assert_eq!(report.breakdown.losers_undone, 1, "{backend}/{method}: loser count");
            shadow.verify_against(&fork).unwrap_or_else(|e| {
                panic!("{backend}/{method}: diverged from committed oracle: {e}")
            });
            fork.verify_table(DEFAULT_TABLE)
                .unwrap_or_else(|e| panic!("{backend}/{method}: structure check failed: {e}"));
            let state = fork.scan_table(DEFAULT_TABLE).unwrap();
            match &reference {
                None => reference = Some(state),
                Some(r) => assert_eq!(
                    &state, r,
                    "{backend}/{method}: state diverged from this backend's reference"
                ),
            }
        }
        per_backend.push(reference.unwrap());
    }
    for (backend, state) in BACKENDS.iter().zip(&per_backend).skip(1) {
        assert_eq!(
            state, &per_backend[0],
            "{backend} recovered different committed state than {}",
            BACKENDS[0]
        );
    }
}

#[test]
fn remote_backends_recover_every_method_at_every_worker_count() {
    // The proxied components must not just match in-process recovery at
    // the default settings: all nine methods × 1/2/4 redo workers run
    // against forks of one crash image per remote backend, and every
    // combination must land on the same committed state (and the oracle).
    for backend in REMOTE_BACKENDS {
        let cfg = config_for(backend);
        let mut shadow = ShadowDb::with_initial_rows(&cfg);
        let engine = Engine::build(cfg).unwrap();
        run_workload(&engine, &mut shadow);
        engine.crash();
        shadow.crash();

        let mut reference: Option<Vec<(u64, Vec<u8>)>> = None;
        for method in RecoveryMethod::all() {
            for workers in [1, 2, 4] {
                let fork = engine.fork_crashed().unwrap();
                fork.recover_with(method, RecoveryOptions::with_workers(workers))
                    .unwrap_or_else(|e| panic!("{backend}/{method}/w{workers}: {e}"));
                shadow.verify_against(&fork).unwrap_or_else(|e| {
                    panic!("{backend}/{method}/w{workers}: diverged from oracle: {e}")
                });
                let state = fork.scan_table(DEFAULT_TABLE).unwrap();
                match &reference {
                    None => reference = Some(state),
                    Some(r) => assert_eq!(
                        &state, r,
                        "{backend}/{method}/w{workers}: state diverged from reference"
                    ),
                }
            }
        }
    }
}

#[test]
fn tcp_backend_recovers_every_method_and_matches_in_process() {
    // The `tcp:*` backends run the same DcServer behind a real loopback
    // socket instead of the in-process loopback transport. The same
    // workload, crash, and all nine recovery methods on one and two redo
    // workers must land on the same committed state the in-process B-tree
    // lands on — every recovery call crossing the kernel's TCP stack, and
    // redo, inline or partitioned, running server-side for every inner
    // backend.
    let backends = ["btree", "tcp:btree", "tcp:hash", "tcp:log"];
    let mut states: Vec<Vec<(u64, Vec<u8>)>> = Vec::new();
    for backend in backends {
        let cfg = config_for(backend);
        let mut shadow = ShadowDb::with_initial_rows(&cfg);
        let engine = Engine::build(cfg).unwrap();
        run_workload(&engine, &mut shadow);
        engine.crash();
        shadow.crash();

        let mut reference: Option<Vec<(u64, Vec<u8>)>> = None;
        for method in RecoveryMethod::all() {
            for workers in [1, 2] {
                let fork = engine.fork_crashed().unwrap();
                fork.recover_with(method, RecoveryOptions::with_workers(workers))
                    .unwrap_or_else(|e| panic!("{backend}/{method}/w{workers}: {e}"));
                shadow.verify_against(&fork).unwrap_or_else(|e| {
                    panic!("{backend}/{method}/w{workers}: diverged from oracle: {e}")
                });
                fork.verify_table(DEFAULT_TABLE)
                    .unwrap_or_else(|e| panic!("{backend}/{method}/w{workers}: structure: {e}"));
                let state = fork.scan_table(DEFAULT_TABLE).unwrap();
                match &reference {
                    None => reference = Some(state),
                    Some(r) => assert_eq!(
                        &state, r,
                        "{backend}/{method}/w{workers}: diverged from reference"
                    ),
                }
            }
        }
        states.push(reference.unwrap());
    }
    for (backend, state) in backends.iter().zip(&states).skip(1) {
        assert_eq!(state, &states[0], "{backend} recovered different state than btree");
    }
}

#[test]
fn tcp_registry_names_resolve_for_every_inner_backend() {
    for backend in ["tcp:btree", "tcp:hash", "tcp:log"] {
        let cfg = EngineConfig {
            initial_rows: 10,
            pool_pages: 16,
            io_model: IoModel::zero(),
            backend: backend.to_string(),
            ..EngineConfig::default()
        };
        let engine = Engine::build(cfg).unwrap();
        assert_eq!(engine.dc().backend_name(), backend);
        // A write round-trips through the socket-backed component.
        let t = engine.begin().unwrap();
        engine.update(t, 3, b"over-tcp".to_vec()).unwrap();
        engine.commit(t).unwrap();
        assert_eq!(engine.read(DEFAULT_TABLE, 3).unwrap().unwrap(), b"over-tcp");
    }
}

#[test]
fn parallel_recovery_matches_serial_on_the_hash_backend() {
    // The partitioned redo pipeline routes by resolved PID; the hash
    // backend resolves page-logically (logged PID), which must partition
    // just as soundly as the B-tree's traversal-resolved PIDs.
    let cfg = config_for("hash");
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let engine = Engine::build(cfg).unwrap();
    run_workload(&engine, &mut shadow);
    engine.crash();
    shadow.crash();

    for method in [RecoveryMethod::Log1, RecoveryMethod::Sql2] {
        let serial = engine.fork_crashed().unwrap();
        let parallel = engine.fork_crashed().unwrap();
        serial.recover_with(method, RecoveryOptions::with_workers(1)).unwrap();
        parallel.recover_with(method, RecoveryOptions::with_workers(4)).unwrap();
        shadow.verify_against(&serial).unwrap();
        assert_eq!(
            serial.scan_table(DEFAULT_TABLE).unwrap(),
            parallel.scan_table(DEFAULT_TABLE).unwrap(),
            "hash/{method}: workers=4 diverged from serial"
        );
        parallel.verify_table(DEFAULT_TABLE).unwrap();
    }
}

// ---------------------------------------------------------------------
// bank invariant, both backends
// ---------------------------------------------------------------------

const ACCOUNTS: u64 = 300;
const INITIAL_BALANCE: u64 = 1_000;

fn read_balance(e: &Engine, k: u64) -> u64 {
    let v = e.read(DEFAULT_TABLE, k).unwrap().expect("account exists");
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn total_balance(e: &Engine) -> u64 {
    (0..ACCOUNTS).map(|k| read_balance(e, k)).sum()
}

#[test]
fn concurrent_bank_conserves_money_on_both_backends() {
    for backend in BACKENDS {
        let cfg = EngineConfig {
            initial_rows: 0, // accounts loaded below
            pool_pages: 32,
            row_value_size: 8,
            io_model: IoModel::zero(),
            aries_ckpt_capture: true,
            perfect_delta_lsns: true,
            backend: backend.to_string(),
            ..EngineConfig::default()
        };
        let engine = Engine::build(cfg).unwrap().into_shared();
        {
            let t = engine.begin().unwrap();
            for k in 0..ACCOUNTS {
                engine.insert(t, k, INITIAL_BALANCE.to_le_bytes().to_vec()).unwrap();
            }
            engine.commit(t).unwrap();
            engine.checkpoint().unwrap();
        }

        // 4 sessions × 50 transfers under no-wait retry.
        std::thread::scope(|s| {
            for th in 0..4u64 {
                let mut session: Session = Engine::session(&engine);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let from = (th * 37 + i * 13) % ACCOUNTS;
                        let to = (from + 1 + (i * 7) % (ACCOUNTS - 1)) % ACCOUNTS;
                        session
                            .run_txn(1_000, |s| {
                                let fv = s.read_for_update(DEFAULT_TABLE, from)?.unwrap();
                                let tv = s.read_for_update(DEFAULT_TABLE, to)?.unwrap();
                                let fb = u64::from_le_bytes(fv[..8].try_into().unwrap());
                                let tb = u64::from_le_bytes(tv[..8].try_into().unwrap());
                                let amt = (i % 50).min(fb);
                                s.update_in(
                                    DEFAULT_TABLE,
                                    from,
                                    (fb - amt).to_le_bytes().to_vec(),
                                )?;
                                s.update_in(DEFAULT_TABLE, to, (tb + amt).to_le_bytes().to_vec())
                            })
                            .unwrap();
                    }
                });
            }
        });
        engine.tc().locks().assert_no_leaks();
        assert_eq!(total_balance(&engine), ACCOUNTS * INITIAL_BALANCE, "{backend}: pre-crash");

        // Crash mid-transfer (debit applied, credit not, no commit).
        let t = engine.begin().unwrap();
        let bal = read_balance(&engine, 17);
        engine.update(t, 17, (bal.saturating_sub(100)).to_le_bytes().to_vec()).unwrap();
        engine.crash();

        // Every method conserves, on forks of the same crash image.
        for method in [RecoveryMethod::Log0, RecoveryMethod::Log2, RecoveryMethod::Sql2] {
            let fork: Arc<Engine> = Arc::new(engine.fork_crashed().unwrap());
            fork.recover(method).unwrap_or_else(|e| panic!("{backend}/{method}: {e}"));
            assert_eq!(
                total_balance(&fork),
                ACCOUNTS * INITIAL_BALANCE,
                "{backend}/{method}: money created or destroyed"
            );
            fork.verify_table(DEFAULT_TABLE).unwrap();
        }
    }
}

// ---------------------------------------------------------------------
// background compaction racing live writers (log backend)
// ---------------------------------------------------------------------

#[test]
fn compactor_races_writers_without_losing_updates_on_the_log_backend() {
    const ROUNDS: u64 = 30;
    let cfg = EngineConfig {
        initial_rows: 200,
        pool_pages: 48,
        row_value_size: 64,
        io_model: IoModel::zero(),
        backend: "log".to_string(),
        background_maintenance: true,
        maint_tick_ms: 1,
        // Small segments + a low watermark so update churn trips the
        // compactor repeatedly while the writers are still running.
        log_segment_bytes: 8 << 10,
        garbage_watermark: 0.3,
        ..EngineConfig::default()
    };
    let rows = cfg.initial_rows;
    let vsize = cfg.row_value_size;
    let engine = Engine::build(cfg).unwrap().into_shared();
    assert!(engine.maintenance_running());

    // 4 writers over disjoint key ranges: every key's final version is
    // ROUNDS, so a single stale read-back proves a lost update.
    std::thread::scope(|s| {
        for th in 0..4u64 {
            let mut session: Session = Engine::session(&engine);
            s.spawn(move || {
                for round in 1..=ROUNDS {
                    for i in 0..50u64 {
                        let k = (th * 50 + i) % rows;
                        let v = deterministic_value(k, round, vsize);
                        session
                            .run_txn(1_000, |s| s.update_in(DEFAULT_TABLE, k, v.clone()))
                            .unwrap();
                    }
                }
            });
        }
    });

    // The churn left far more dead than live bytes in the cold log; give
    // the background compactor a moment to notice if it has not already.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while engine.dc().stats().segments_compacted == 0 {
        assert!(std::time::Instant::now() < deadline, "compactor never reclaimed a segment");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let dc_stats = engine.dc().stats();
    assert!(dc_stats.segments_compacted > 0, "segments_compacted must be nonzero under churn");
    assert!(dc_stats.live_bytes_migrated > 0, "live_bytes_migrated must be nonzero under churn");
    assert!(dc_stats.dead_bytes_reclaimed > 0, "dead_bytes_reclaimed must be nonzero under churn");

    // No lost updates: every key reads back its final round's value.
    for k in 0..rows {
        let got = engine.read(DEFAULT_TABLE, k).unwrap().expect("key survived the churn");
        assert_eq!(got, deterministic_value(k, ROUNDS, vsize), "key {k}: lost update");
    }
    engine.verify_table(DEFAULT_TABLE).unwrap();
}

// ---------------------------------------------------------------------
// append amplification: the log is the store (log backend vs B-tree)
// ---------------------------------------------------------------------

/// `(log bytes, page-write bytes)` the §5.2 update stream costs on
/// `backend` after the load. One session, fixed seed, no background
/// maintenance, a checkpoint every 50 transactions: the bill is a count
/// that repeats exactly. 800 × 10 uniform updates over 2,000 keys is 4
/// versions per key, so the B-tree re-dirties its leaves between
/// checkpoints.
fn durable_bill(backend: &str) -> (u64, u64) {
    let cfg = EngineConfig {
        initial_rows: 2_000,
        pool_pages: 1_024,
        io_model: IoModel::zero(),
        backend: backend.to_string(),
        ..EngineConfig::default()
    };
    let spec = WorkloadSpec::paper_default(cfg.initial_rows, cfg.row_value_size, 7);
    let page_size = cfg.page_size as u64;
    let engine = Engine::build(cfg).unwrap();
    let bill = |e: &Engine| (e.wal().lock().byte_len(), e.dc().pool().disk().stats().page_writes);
    let (log0, writes0) = bill(&engine);
    let mut gen = TxnGenerator::new(spec);
    for n in 1..=800 {
        let t = engine.begin().unwrap();
        for op in gen.next_txn() {
            let Op::Update { key, value } = op else { panic!("§5.2 is update-only: {op:?}") };
            engine.update(t, key, value).unwrap();
        }
        engine.commit(t).unwrap();
        if n % 50 == 0 {
            engine.checkpoint().unwrap();
        }
    }
    let (log1, writes1) = bill(&engine);
    (log1 - log0, (writes1 - writes0) * page_size)
}

/// LogBase's trade: a write costs its log record and no page write, where
/// the B-tree also pays every data page its checkpoints and cleaner
/// sweeps flush. A `LogDc` that dirtied a data page per write fails here.
#[test]
fn log_backend_writes_fewer_durable_bytes_per_update_than_btree() {
    let (btree_log, btree_pages) = durable_bill("btree");
    let (log_log, log_pages) = durable_bill("log");
    assert!(btree_pages > 0, "the B-tree flushed no page: the comparison is vacuous");
    assert!(
        log_log + log_pages < btree_log + btree_pages,
        "log {log_log} + {log_pages} page bytes not below btree {btree_log} + {btree_pages}"
    );
    assert!(log_pages * 10 < log_log + log_pages, "log backend page bytes {log_pages} ≥ 10%");
}

#[test]
fn engine_reports_its_backend() {
    for backend in BACKENDS {
        let cfg = EngineConfig {
            initial_rows: 10,
            pool_pages: 16,
            io_model: IoModel::zero(),
            backend: backend.to_string(),
            ..EngineConfig::default()
        };
        let engine = Engine::build(cfg).unwrap();
        assert_eq!(engine.dc().backend_name(), backend);
    }
    assert!(
        Engine::build(EngineConfig { backend: "lsm".into(), ..EngineConfig::default() }).is_err(),
        "unknown backend names must be rejected at build time"
    );
}

// ---------------------------------------------------------------------
// what crosses the message boundary, as counts
// ---------------------------------------------------------------------

/// Requests of each kind the engine's proxy has completed, by op name.
fn wire_counts(engine: &Engine) -> std::collections::BTreeMap<&'static str, u64> {
    let snap = engine.dc().wire_telemetry().expect("a remote:* engine reaches its DC by messages");
    snap.ops.iter().map(|o| (o.name(), o.count)).collect()
}

/// The seed-exact cost of a §5.2 transaction through the proxy: each
/// update is PrepareOp + Apply (the guard release rides on the apply), the
/// commit is one EOSL. A pipelining change must beat 21.
fn assert_ten_update_transaction_is_21_crossings(backend: &str) {
    let engine = Engine::build(config_for(backend)).unwrap().into_shared();
    let vsize = engine.config().row_value_size;
    let mut session = engine.session();
    let before = wire_counts(&engine);
    session.begin().unwrap();
    for k in 0..10u64 {
        session.update(k * 7, deterministic_value(k * 7, 1, vsize)).unwrap();
    }
    session.commit().unwrap();
    let after = wire_counts(&engine);
    let delta: Vec<(&str, u64)> = after
        .iter()
        .map(|(op, n)| (*op, n - before.get(op).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect();
    assert_eq!(delta, [("apply", 10), ("eosl", 1), ("prepare_op", 10)], "{backend}");
    assert!(!after.contains_key("release_op"), "{backend}: no write was abandoned");
}

#[test]
fn remote_committed_transaction_is_two_crossings_per_write_plus_the_eosl() {
    for backend in REMOTE_BACKENDS {
        assert_ten_update_transaction_is_21_crossings(backend);
    }
}

#[test]
fn tcp_committed_transaction_is_two_crossings_per_write_plus_the_eosl() {
    assert_ten_update_transaction_is_21_crossings("tcp:btree");
}

#[test]
fn remote_recovery_ships_smo_records_not_the_redo_window() {
    // `smo_redo` reads SMO records only, so only they may cross it: the
    // window itself crosses once per recovery, in the `redo` call. An
    // update-only window (no structure modification since the
    // checkpoint) must send none.
    let engine = Engine::build(config_for("remote:btree")).unwrap();
    engine.checkpoint().unwrap();
    let vsize = engine.config().row_value_size;
    let t = engine.begin().unwrap();
    for k in 0..400u64 {
        engine.update(t, k, deterministic_value(k, 1, vsize)).unwrap();
    }
    engine.commit(t).unwrap();
    engine.crash();

    let fork = engine.fork_crashed().unwrap();
    let report = fork.recover(RecoveryMethod::Log1).unwrap();
    assert!(report.window_records >= 400, "the window holds every update");
    let snap = fork.dc().wire_telemetry().unwrap();
    let smo_redo = snap.ops.iter().find(|o| o.name() == "smo_redo").expect("Log1 runs SMO redo");
    // Tag byte + a zero record count, per call.
    assert_eq!(smo_redo.req_bytes, 5 * smo_redo.count, "data records crossed in smo_redo");
    assert_eq!(fork.read(DEFAULT_TABLE, 399).unwrap().unwrap(), deterministic_value(399, 1, vsize));
}

/// The pinned breakdown fields, in `REMOTE_MODELED` column order.
fn modeled_fields(b: &lr_common::RecoveryBreakdown) -> [u64; 13] {
    [
        b.redo_us,
        b.analysis_us,
        b.smo_redo_us,
        b.undo_us,
        b.data_pages_fetched,
        b.index_pages_fetched,
        b.data_stall_us,
        b.prefetch_pages,
        b.prefetch_ios,
        b.skipped_no_dpt_entry,
        b.skipped_rlsn,
        b.skipped_plsn,
        b.ops_reapplied,
    ]
}

/// Serial recovery's modeled breakdown for the `remote:btree` crash below,
/// per method. Columns: redo, analysis, SMO-redo, undo (µs); data / index
/// pages fetched, data stall µs, prefetch pages / I/Os; skipped no-entry /
/// rLSN / pLSN, ops re-applied.
const REMOTE_MODELED: [(&str, [u64; 13]); 5] = [
    ("Log0", [340730, 4588, 32000, 1500, 42, 0, 336000, 0, 0, 0, 0, 102, 20]),
    ("Log1", [148730, 4588, 32000, 9500, 18, 0, 144000, 0, 0, 71, 0, 31, 20]),
    ("SQL1", [276608, 4588, 0, 9500, 33, 1, 264000, 0, 0, 32, 5, 71, 20]),
    ("Log2", [148730, 4588, 32000, 9500, 18, 0, 144000, 0, 0, 71, 0, 31, 20]),
    ("SQL2", [36083, 4588, 0, 9500, 33, 1, 31473, 34, 29, 32, 5, 71, 20]),
];

/// The crossings one recovery makes, per op, for a fixed `remote:btree`
/// crash: each of the paper's five methods serially, and Log1 on two redo
/// workers — and, under the default (costed) I/O model, each serial
/// method's modeled breakdown, which redo running DC-side left unchanged.
#[test]
fn remote_recovery_crossings_are_pinned_per_method() {
    let cfg = EngineConfig { io_model: IoModel::default(), ..config_for("remote:btree") };
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let engine = Engine::build(cfg).unwrap();
    run_workload(&engine, &mut shadow);
    // Committed work past the last checkpoint, appends splitting leaves,
    // so the redo window holds data records and SMOs for every method.
    let vsize = engine.config().row_value_size;
    for i in 0..80u64 {
        let t = engine.begin().unwrap();
        let key = i * 17 % 1_500;
        let value = deterministic_value(key, 9, vsize);
        if engine.read(DEFAULT_TABLE, key).unwrap().is_some() {
            engine.update(t, key, value).unwrap();
        } else {
            engine.insert(t, key, value).unwrap();
        }
        if i % 2 == 0 {
            engine.insert(t, 2_500 + i, deterministic_value(2_500 + i, 0, vsize)).unwrap();
        }
        engine.commit(t).unwrap();
    }
    engine.crash();

    let recover = |method: RecoveryMethod, workers: usize| {
        let fork = engine.fork_crashed().unwrap();
        let before = wire_counts(&fork);
        let report = fork.recover_with(method, RecoveryOptions::with_workers(workers)).unwrap();
        let delta: Vec<(&str, u64)> = wire_counts(&fork)
            .iter()
            .map(|(op, n)| (*op, n - before.get(op).copied().unwrap_or(0)))
            .filter(|(_, n)| *n > 0)
            .collect();
        // The engine's metrics export names the new op too.
        assert_eq!(fork.metrics().counter("dc_wire_requests_redo"), Some(1), "{method}");
        (delta, report.breakdown)
    };
    let mut got = Vec::new();
    let mut modeled = Vec::new();
    for method in RecoveryMethod::paper_five() {
        let (delta, breakdown) = recover(method, 1);
        got.push((method.name(), 1, delta));
        modeled.push((method.name(), modeled_fields(&breakdown)));
    }
    got.push(("Log1", 2, recover(RecoveryMethod::Log1, 2).0));
    assert_eq!(modeled, REMOTE_MODELED, "one row per method, in paper order");

    // Every method: one redo call — the whole pass, SMO replay and
    // partitioned workers included, runs DC-side — then the two
    // compensations' locate / latch / apply / pump, the post-redo rebuild
    // hook, the closing checkpoint.
    let with = |extra: &[(&'static str, u64)]| {
        let mut ops = vec![
            ("apply_at", 2),
            ("drain_in_flight_ops", 1),
            ("eosl", 2),
            ("finish_redo", 1),
            ("locate_key", 2),
            ("lock_table_exclusive", 2),
            ("pump_events", 2),
            ("redo", 1),
            ("release_table", 2),
            ("rssp", 1),
        ];
        ops.extend_from_slice(extra);
        ops.sort_unstable();
        ops
    };
    // Logical methods run DC recovery's SMO redo first; physiological ones
    // reload the catalog and replay SMOs inside the redo call.
    let logical = [("smo_redo", 1)];
    let physiological = [("reload_catalog", 1)];
    let want = vec![
        ("Log0", 1, with(&logical)),
        ("Log1", 1, with(&logical)),
        ("SQL1", 1, with(&physiological)),
        ("Log2", 1, with(&[logical[0], ("preload_index", 1)])),
        ("SQL2", 1, with(&physiological)),
        ("Log1", 2, with(&logical)),
    ];
    assert_eq!(got, want);
}

// ---------------------------------------------------------------------
// transport failure at the message boundary
// ---------------------------------------------------------------------

#[test]
fn remote_transport_drop_mid_prepare_is_a_clean_error_not_a_wedged_token() {
    use lr_common::{Error, Lsn, SimClock, TableId, TxnId};
    use lr_dc::{
        remote_loopback, DcApi, DcConfig, DcIntrospect, DcServer, WriteIntent, REMOTE_BTREE_BACKEND,
    };
    use lr_wal::{LogPayload, LogRecord, Wal};

    let table = TableId(1);
    // Build the inner component through the registry (backend-agnostic),
    // keeping our own handle so we can stand up a fresh server later.
    let reg = lr_dc::backend("btree").unwrap();
    let mut disk = lr_storage::SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
    (reg.format)(&mut disk).unwrap();
    let wal = Wal::new_shared(4096);
    let inner = (reg.open)(Box::new(disk), wal, DcConfig::default()).unwrap();
    let (remote, transport) = remote_loopback(inner.clone(), REMOTE_BTREE_BACKEND);
    remote.create_table(table).unwrap();

    let insert = |key: u64| {
        let op = remote.prepare_op(table, key, WriteIntent::Insert { value_len: 8 })?;
        let payload = LogPayload::Insert {
            txn: TxnId(1),
            table,
            key,
            pid: op.pid,
            prev_lsn: Lsn::NULL,
            value: vec![key as u8; 8],
        };
        let lsn = remote.wal().append(&payload);
        remote.apply(op, &LogRecord { lsn, payload })
    };
    insert(1).unwrap();

    // Park a prepare server-side (the proxy holds its token), then drop
    // the connection underneath it.
    let parked = remote.prepare_op(table, 2, WriteIntent::Insert { value_len: 8 }).unwrap();
    let parked_pid = parked.pid;
    transport.disconnect();
    assert!(!transport.is_connected());

    // In-flight traffic fails with a clean, typed transport error — no
    // panic, no hang — and so does the apply that consumes the parked op.
    // Its guard stays armed, so the consumed op still attempts a release
    // on the way out; over the dead transport that is harmless: the
    // disconnect already released every server-side token.
    let broken_pipe = |out: Result<(), Error>| match out {
        Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
        other => panic!("expected a broken-pipe error, got {other:?}"),
    };
    broken_pipe(remote.read(table, 1).map(drop));
    let payload = LogPayload::Insert {
        txn: TxnId(1),
        table,
        key: 2,
        pid: parked_pid,
        prev_lsn: Lsn::NULL,
        value: vec![2u8; 8],
    };
    broken_pipe(remote.apply(parked, &LogRecord { lsn: Lsn(u64::MAX >> 1), payload }));

    // Reconnect against a fresh server over the same component. If the
    // parked token had wedged its page latch, this prepare would hang or
    // conflict; instead the key is freely writable.
    transport.reconnect(Arc::new(DcServer::new(inner)));
    insert(2).unwrap();
    assert_eq!(remote.read(table, 1).unwrap().unwrap(), vec![1u8; 8]);
    assert_eq!(remote.read(table, 2).unwrap().unwrap(), vec![2u8; 8]);
}
