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
//!   `ReleaseOp`, an aborted one 20 `PrepareOp` + 20 `Apply` (each
//!   compensation is an ordinary write), and a recovery's crossings per
//!   op are pinned per method (all of DC recovery is one `redo` call, run
//!   server-side);
//! * the modeled pins — serial recovery's modeled breakdown per method
//!   for one fixed crash, on `remote:btree`, `hash` and `log`;
//! * the undo re-grow probe — a value a loser shrank, whose freed space a
//!   committed neighbour took, is restored on abort and in recovery;
//! * the transport-drop probes — a prepare parked server-side when the
//!   connection dies must surface a clean error (from the apply that
//!   consumes it, too) and release its token, never a wedged latch; and
//!   an abort over a dropped connection returns a typed error, never a
//!   panic.

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

/// T1 shrinks a value and stays open; a committed neighbour on the same
/// page then takes the freed space. Undoing T1 must re-grow the value —
/// staging the restore through the DC (an SMO where the page has no room)
/// before its CLR is logged — both on an online abort and in recovery's
/// undo under every method. Returns the engine with T1 still open, its
/// oracle, T1, the shrunk key and its committed value.
fn shrink_then_neighbour_fills(
    backend: &str,
) -> (Engine, ShadowDb, lr_common::TxnId, u64, Vec<u8>) {
    let cfg = config_for(backend);
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let engine = Engine::build(cfg).unwrap();
    engine.checkpoint().unwrap();
    let key = 700;
    let original = engine.read(DEFAULT_TABLE, key).unwrap().unwrap();
    // The page a key's write would land on; the staged op is abandoned.
    let page_of =
        |k| engine.dc().prepare_op(DEFAULT_TABLE, k, lr_dc::WriteIntent::Delete).unwrap().pid;
    let neighbour = (key + 1..).find(|k| page_of(*k) == page_of(key)).unwrap();

    let t1 = engine.begin().unwrap();
    engine.update(t1, key, vec![1]).unwrap();
    shadow.stage_put(t1, DEFAULT_TABLE, key, vec![1]);
    let freed = original.len() - 1;
    let free = engine.dc().pool().with_page(page_of(key), |p| p.free_space()).unwrap();
    // All the page's free space but half of what the shrink freed, so the
    // restore no longer fits in place. The log backend keeps values in
    // the log, not on the stub page its records name: any growth does.
    let grow = if backend == "log" { 64 } else { free - freed / 2 };
    let old = engine.read(DEFAULT_TABLE, neighbour).unwrap().unwrap();
    let grown = vec![9u8; old.len() + grow];
    let t2 = engine.begin().unwrap();
    engine.update(t2, neighbour, grown.clone()).unwrap();
    shadow.stage_put(t2, DEFAULT_TABLE, neighbour, grown);
    engine.commit(t2).unwrap();
    shadow.commit(t2);
    (engine, shadow, t1, key, original)
}

#[test]
fn undo_regrows_a_value_after_a_neighbour_used_the_space() {
    for backend in ["btree", "hash", "log"] {
        let check = |engine: &Engine, shadow: &ShadowDb, key: u64, original: &[u8], case: &str| {
            assert_eq!(engine.read(DEFAULT_TABLE, key).unwrap().unwrap(), original, "{case}");
            engine.verify_table(DEFAULT_TABLE).unwrap_or_else(|e| panic!("{case}: {e}"));
            shadow.verify_against(engine).unwrap_or_else(|e| panic!("{case}: {e}"));
        };

        let (engine, mut shadow, t1, key, original) = shrink_then_neighbour_fills(backend);
        engine.abort(t1).unwrap_or_else(|e| panic!("{backend}: online abort: {e}"));
        shadow.abort(t1);
        check(&engine, &shadow, key, &original, &format!("{backend}: online abort"));

        let (engine, mut shadow, _, key, original) = shrink_then_neighbour_fills(backend);
        engine.crash();
        shadow.crash();
        for method in RecoveryMethod::all() {
            let fork = engine.fork_crashed().unwrap();
            let report = fork.recover(method).unwrap_or_else(|e| panic!("{backend}/{method}: {e}"));
            assert_eq!(report.breakdown.losers_undone, 1, "{backend}/{method}");
            check(&fork, &shadow, key, &original, &format!("{backend}/{method}"));
        }
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

/// The crossings one 10-update Session transaction makes through
/// `backend`'s proxy, ending in a commit or (with `abort`) an abort, as
/// per-op deltas; asserts no write was abandoned (no `release_op`).
fn ten_update_transaction_crossings(backend: &str, abort: bool) -> Vec<(&'static str, u64)> {
    let engine = Engine::build(config_for(backend)).unwrap().into_shared();
    let vsize = engine.config().row_value_size;
    let mut session = engine.session();
    let before = wire_counts(&engine);
    session.begin().unwrap();
    for k in 0..10u64 {
        session.update(k * 7, deterministic_value(k * 7, 1, vsize)).unwrap();
    }
    if abort {
        session.abort().unwrap();
    } else {
        session.commit().unwrap();
    }
    let after = wire_counts(&engine);
    assert!(!after.contains_key("release_op"), "{backend}: no write was abandoned");
    after
        .iter()
        .map(|(op, n)| (*op, n - before.get(op).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// The seed-exact cost of a §5.2 transaction through the proxy: each
/// update is PrepareOp + Apply (the guard release rides on the apply), the
/// commit is one EOSL. A pipelining change must beat 21.
fn assert_ten_update_transaction_is_21_crossings(backend: &str) {
    let delta = ten_update_transaction_crossings(backend, false);
    assert_eq!(delta, [("apply", 10), ("eosl", 1), ("prepare_op", 10)], "{backend}");
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

/// Undo is an ordinary write: aborting the same 10-update transaction
/// compensates each update with one more PrepareOp + Apply, and nothing
/// else crosses — no table latch, no relocation, no separate pump.
#[test]
fn remote_aborted_transaction_is_two_crossings_per_compensation() {
    for backend in REMOTE_BACKENDS.into_iter().chain(["tcp:btree"]) {
        let delta = ten_update_transaction_crossings(backend, true);
        assert_eq!(delta, [("apply", 20), ("prepare_op", 20)], "{backend}");
    }
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
    ("Log2", [14363, 4588, 32000, 9500, 18, 0, 9582, 18, 3, 71, 0, 31, 20]),
    ("SQL2", [36083, 4588, 0, 9500, 33, 1, 31473, 34, 29, 32, 5, 71, 20]),
];

/// The crash the modeled-breakdown pins recover from, on `backend`, under
/// the default (costed) I/O model: `run_workload`, then committed work
/// past the last checkpoint with appends splitting leaves, so the redo
/// window holds data records and SMOs for every method.
fn pinned_crash(backend: &str) -> Engine {
    let cfg = EngineConfig { io_model: IoModel::default(), ..config_for(backend) };
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let engine = Engine::build(cfg).unwrap();
    run_workload(&engine, &mut shadow);
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
    engine
}

/// The crossings one recovery makes, per op, for a fixed `remote:btree`
/// crash: every method on one and two redo workers — and, under the
/// default (costed) I/O model, the paper's five methods' serial modeled
/// breakdown, which DC recovery running DC-side left unchanged.
#[test]
fn remote_recovery_crossings_are_pinned_per_method() {
    let engine = pinned_crash("remote:btree");

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
        // The last committed write before the crash (`pinned_crash`'s
        // i = 79 writes key 79 * 17) reads back.
        let key = 79 * 17;
        let value = deterministic_value(key, 9, fork.config().row_value_size);
        assert_eq!(fork.read(DEFAULT_TABLE, key).unwrap().unwrap(), value, "{method}");
        (delta, report.breakdown)
    };
    let mut modeled = Vec::new();
    for method in RecoveryMethod::paper_five() {
        modeled.push((method.name(), modeled_fields(&recover(method, 1).1)));
    }
    assert_eq!(modeled, REMOTE_MODELED, "one row per method, in paper order");

    // Every method at either worker count: DC recovery is one redo call —
    // SMO redo or the catalog reload, the preload, redo with its SMO
    // replay and partitioned workers, the index rebuild all run DC-side —
    // then the two compensations, each an ordinary write (prepare_op +
    // apply), and the closing checkpoint.
    let ops = vec![
        ("apply", 2),
        ("drain_in_flight_ops", 1),
        ("eosl", 2),
        ("prepare_op", 2),
        ("redo", 1),
        ("rssp", 1),
    ];
    for method in RecoveryMethod::all() {
        for workers in [1, 2] {
            assert_eq!(recover(method, workers).0, ops, "{method} on {workers} workers");
        }
    }
}

/// The pinned breakdown fields, in `PAGE_LOGICAL_MODELED` column order.
fn page_logical_fields(b: &lr_common::RecoveryBreakdown) -> [u64; 14] {
    [
        b.redo_us,
        b.analysis_us,
        b.smo_redo_us,
        b.index_preload_us,
        b.index_rebuild_us,
        b.undo_us,
        b.data_pages_fetched,
        b.index_pages_fetched,
        b.prefetch_pages,
        b.prefetch_ios,
        b.skipped_no_dpt_entry,
        b.skipped_rlsn,
        b.skipped_plsn,
        b.ops_reapplied,
    ]
}

/// Serial recovery's modeled breakdown for `pinned_crash` on the two
/// page-logical backends, per method. Columns: redo, analysis, SMO-redo,
/// preload, index-rebuild, undo (µs); data / index pages fetched,
/// prefetch pages / I/Os; skipped no-entry / rLSN / pLSN, ops re-applied.
const PAGE_LOGICAL_MODELED: [(&str, &str, [u64; 14]); 10] = [
    ("hash", "Log0", [363110, 3098, 0, 0, 288000, 9500, 45, 0, 0, 0, 0, 0, 110, 12]),
    ("hash", "Log1", [99110, 3098, 0, 0, 416000, 9500, 12, 0, 0, 0, 70, 40, 0, 12]),
    ("hash", "SQL1", [267110, 3098, 0, 0, 256000, 9500, 33, 0, 0, 0, 12, 56, 42, 12]),
    ("hash", "Log2", [18524, 3098, 0, 0, 416000, 9500, 12, 0, 12, 12, 70, 40, 0, 12]),
    ("hash", "SQL2", [42512, 3098, 0, 0, 256000, 9500, 33, 0, 33, 33, 12, 56, 42, 12]),
    ("log", "Log0", [363196, 3074, 0, 0, 384000, 1500, 45, 0, 0, 0, 0, 0, 0, 122]),
    ("log", "Log1", [363196, 3074, 0, 0, 384000, 1500, 45, 0, 0, 0, 0, 0, 0, 122]),
    ("log", "SQL1", [363196, 3074, 0, 0, 384000, 1500, 45, 0, 0, 0, 0, 0, 0, 122]),
    ("log", "Log2", [50597, 3074, 0, 0, 384000, 1500, 45, 0, 45, 45, 0, 0, 0, 122]),
    ("log", "SQL2", [50597, 3074, 0, 0, 384000, 1500, 45, 0, 45, 45, 0, 0, 0, 122]),
];

#[test]
fn hash_and_log_serial_breakdowns_are_pinned_per_method() {
    let mut got = Vec::new();
    for backend in ["hash", "log"] {
        let engine = pinned_crash(backend);
        for method in RecoveryMethod::paper_five() {
            let report = engine.fork_crashed().unwrap().recover(method).unwrap();
            got.push((backend, method.name(), page_logical_fields(&report.breakdown)));
        }
    }
    assert_eq!(got, PAGE_LOGICAL_MODELED, "one row per backend and method, in paper order");
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

#[test]
fn remote_transport_drop_before_abort_is_a_typed_error_not_a_panic() {
    use lr_common::{Error, SimClock, TableId};
    use lr_dc::{remote_loopback, DcApi, DcConfig, WriteIntent, REMOTE_BTREE_BACKEND};
    use lr_tc::{rollback_txn, TransactionComponent, UndoStats};
    use lr_wal::Wal;

    let table = TableId(1);
    let reg = lr_dc::backend("btree").unwrap();
    let mut disk = lr_storage::SimDisk::new(512, 0, SimClock::new(), IoModel::zero());
    (reg.format)(&mut disk).unwrap();
    let wal = Wal::new_shared(4096);
    let inner = (reg.open)(Box::new(disk), wal.clone(), DcConfig::default()).unwrap();
    let (remote, transport) = remote_loopback(inner, REMOTE_BTREE_BACKEND);
    remote.create_table(table).unwrap();
    let tc = TransactionComponent::new(wal);

    let t0 = tc.begin();
    let op = remote.prepare_op(table, 1, WriteIntent::Insert { value_len: 8 }).unwrap();
    let rec = tc.log_insert(t0, table, 1, op.pid, vec![1; 8]).unwrap();
    remote.apply(op, &rec).unwrap();
    tc.commit(t0).unwrap();
    // An update left open, then the connection dies under it.
    let t1 = tc.begin();
    let mut op = remote.prepare_op(table, 1, WriteIntent::Update { value_len: 8 }).unwrap();
    let before = op.before.take().unwrap();
    let rec = tc.log_update(t1, table, 1, op.pid, before, vec![2; 8]).unwrap();
    remote.apply(op, &rec).unwrap();
    transport.disconnect();

    // The first compensation's prepare is the first crossing the abort
    // makes: a typed transport error, not a panic on the caller's thread.
    let head = tc.last_lsn_of(t1).unwrap();
    match rollback_txn(&tc, remote.as_ref(), t1, head, &mut UndoStats::default()) {
        Err(Error::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe),
        other => panic!("expected a broken-pipe error, got {other:?}"),
    }
}
