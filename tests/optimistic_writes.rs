//! Optimistic-write correctness under churn.
//!
//! The OLC prepare path stages writes after a latch-free descent, taking
//! a write latch (with seqlock version validation) on the final leaf
//! only. The suite drives it against everything that can invalidate the
//! validation at once — concurrent updaters on neighbouring keys, B-tree
//! splits and merges from insert/delete churn, and cache-miss evictions
//! in a deliberately small pool with epoch-based frame reclamation
//! recycling frames the whole time, plus aborted transfers whose
//! compensations run through the same write path — and asserts
//! bank-transfer money conservation, exact per-key balances (no lost
//! updates), and that recycled frames are never validated by a stale
//! reader (every observed value decodes cleanly against the writer
//! protocol).

use lr_core::{Engine, EngineConfig, Session, DEFAULT_TABLE};
use lr_workload::{run_concurrent, ConcurrentScenario};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Fixed-width value encoding `[key: 8][balance: 8][padding]` — updates
/// never change the length, so they stay eligible for the OLC prepare,
/// and any observer can verify a value against the writer protocol.
fn encoded(key: u64, balance: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&key.to_le_bytes());
    v.extend_from_slice(&balance.to_le_bytes());
    v.resize(32, 0xA5);
    v
}

fn decode(key: u64, value: &[u8]) -> u64 {
    assert_eq!(value.len(), 32, "torn value length for key {key}");
    assert_eq!(
        u64::from_le_bytes(value[..8].try_into().unwrap()),
        key,
        "value for key {key} carries another key's bytes — torn or recycled read"
    );
    assert!(value[16..].iter().all(|b| *b == 0xA5), "torn padding for key {key}");
    u64::from_le_bytes(value[8..16].try_into().unwrap())
}

/// Bank workload: each updater owns a disjoint key stripe and moves money
/// between its own keys (read-for-update both, write both), while an
/// insert/delete churn thread forces splits and merges and a tiny pool
/// keeps the clock evictor retiring and recycling frames. A share of the
/// transfers roll back after both writes: undo compensates each under the
/// shared table latch (OLC first), exactly as a write, racing the same
/// churn. On completion every balance must match the updater's local
/// ledger of committed transfers exactly (a lost update — an OLC prepare
/// validating against a stale leaf, or a compensation restoring the wrong
/// image — would break it), total money is conserved, the tree verifies
/// and no lock is left behind.
#[test]
fn optimistic_writes_under_churn_lose_no_updates() {
    const STRIPES: u64 = 4;
    const KEYS: u64 = 512;
    const TRANSFERS: u64 = 400;
    const INIT: u64 = 1_000;

    let engine = Engine::build(EngineConfig {
        initial_rows: 0,
        // Small pages + small pool: a few hundred leaves over 64 frames,
        // so evictions retire frames onto the limbo list and recycling
        // races the optimistic descents continuously.
        page_size: 256,
        pool_pages: 64,
        merge_min_fill: 0.3,
        io_model: lr_common::IoModel::zero(),
        ..EngineConfig::default()
    })
    .unwrap()
    .into_shared();

    {
        let mut s = Engine::session(&engine);
        for key in 0..KEYS {
            s.run_txn(10, |s| s.insert_in(DEFAULT_TABLE, key, encoded(key, INIT))).unwrap();
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let outcomes: Vec<(Vec<u64>, u64)> = std::thread::scope(|scope| {
        let mut updaters = Vec::new();
        for stripe in 0..STRIPES {
            let engine = engine.clone();
            updaters.push(scope.spawn(move || {
                let mut s = Engine::session(&engine);
                let keys: Vec<u64> = (stripe..KEYS).step_by(STRIPES as usize).collect();
                let mut ledger = vec![INIT; keys.len()];
                let mut aborted = 0u64;
                let mut x = 0x9E37_79B9u64.wrapping_add(stripe);
                for _ in 0..TRANSFERS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x as usize) % keys.len();
                    let j = (x >> 32) as usize % keys.len();
                    if i == j {
                        continue;
                    }
                    let (a, b) = (keys[i], keys[j]);
                    // Balances are re-read inside the transaction body so
                    // a retry never double-applies; the moved amount is
                    // returned for the local ledger.
                    let transfer = |s: &mut Session| -> lr_common::Result<u64> {
                        let va = s.read_for_update(DEFAULT_TABLE, a)?.expect("key a exists");
                        let vb = s.read_for_update(DEFAULT_TABLE, b)?.expect("key b exists");
                        let (ba, bb) = (decode(a, &va), decode(b, &vb));
                        let amt = ba.min(1 + x % 10);
                        s.update_in(DEFAULT_TABLE, a, encoded(a, ba - amt))?;
                        s.update_in(DEFAULT_TABLE, b, encoded(b, bb + amt))?;
                        Ok(amt)
                    };
                    // One transfer in four rolls back after both writes
                    // (stripes are disjoint, so it meets no lock conflict).
                    if (x >> 20) % 4 == 0 {
                        s.begin().unwrap();
                        transfer(&mut s).unwrap();
                        s.abort().unwrap();
                        aborted += 1;
                        continue;
                    }
                    let mut moved = 0u64;
                    s.run_txn(100, |s| {
                        moved = transfer(s)?;
                        Ok(())
                    })
                    .unwrap();
                    ledger[i] -= moved;
                    ledger[j] += moved;
                }
                (ledger, aborted)
            }));
        }
        // Churn: fresh high keys force splits while prepares descend;
        // deletes (merging enabled) shrink leaves back with merge SMOs.
        {
            let engine = engine.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut s = Engine::session(&engine);
                let mut next = 1_000_000u64;
                while !stop.load(Ordering::Relaxed) {
                    for _ in 0..64 {
                        let k = next;
                        next += 1;
                        s.run_txn(100, |s| s.insert_in(DEFAULT_TABLE, k, encoded(k, 0))).unwrap();
                    }
                    for k in (next - 64)..next {
                        s.run_txn(100, |s| s.delete_in(DEFAULT_TABLE, k)).unwrap();
                    }
                }
            });
        }
        // A stale-reader canary: latch-free reads racing the recycler must
        // only ever validate well-formed values (decode asserts both).
        {
            let engine = engine.clone();
            let stop = stop.clone();
            scope.spawn(move || {
                let mut x = 0xDEAD_BEEFu64;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEYS;
                    if let Some(v) = engine.read(DEFAULT_TABLE, key).unwrap() {
                        decode(key, &v);
                    }
                }
            });
        }
        let outcomes: Vec<(Vec<u64>, u64)> =
            updaters.into_iter().map(|h| h.join().expect("updater panicked")).collect();
        stop.store(true, Ordering::Relaxed);
        outcomes
    });

    engine.tc().locks().assert_no_leaks();
    engine.verify_table(DEFAULT_TABLE).unwrap();
    let aborted: u64 = outcomes.iter().map(|(_, n)| n).sum();
    assert!(aborted > 0, "no transfer rolled back: the compensation path went untested");

    // No lost updates: every balance equals its owner's ledger exactly,
    // and money is conserved across the whole bank.
    let mut total = 0u64;
    for (stripe, (ledger, _)) in outcomes.iter().enumerate() {
        let keys: Vec<u64> = (stripe as u64..KEYS).step_by(STRIPES as usize).collect();
        for (i, key) in keys.iter().enumerate() {
            let v = engine.read(DEFAULT_TABLE, *key).unwrap().expect("key survives churn");
            let balance = decode(*key, &v);
            assert_eq!(
                balance, ledger[i],
                "key {key}: engine holds {balance}, ledger says {} — lost update",
                ledger[i]
            );
            total += balance;
        }
    }
    assert_eq!(total, KEYS * INIT, "money not conserved");

    // The machinery must have carried real traffic in this deliberately
    // cache-thrashing setup: prepares validated optimistically, SMO-bound
    // operations fell back, and the evict → retire → recycle pipeline
    // actually cycled frames (not just parked them forever).
    let stats = engine.stats();
    assert!(stats.optimistic_writes > 0, "no write was ever prepared latch-free");
    assert!(stats.write_fallbacks > 0, "splits/merges never forced a latched prepare");
    assert!(stats.frames_retired > 0, "evictions never retired a frame — pool too big?");
    assert!(stats.epochs_advanced > 0, "reclamation epoch never advanced");
    assert!(stats.frames_recycled > 0, "no retired frame was ever recycled");
}

/// A/B switch: with `optimistic_writes` off the engine must never touch
/// the optimistic prepare machinery (the latched path is the fallback and
/// this suite's reference).
#[test]
fn disabled_optimistic_writes_never_engage() {
    let engine = Engine::build(EngineConfig {
        initial_rows: 500,
        pool_pages: 256,
        optimistic_writes: false,
        io_model: lr_common::IoModel::zero(),
        ..EngineConfig::default()
    })
    .unwrap()
    .into_shared();
    let mut s = Engine::session(&engine);
    for key in [0u64, 100, 499] {
        s.run_txn(10, |s| s.update_in(DEFAULT_TABLE, key, vec![7u8; 100])).unwrap();
    }
    s.run_txn(10, |s| s.insert_in(DEFAULT_TABLE, 10_000, vec![1u8; 16])).unwrap();
    s.run_txn(10, |s| s.delete_in(DEFAULT_TABLE, 10_000)).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.optimistic_writes, 0);
    assert_eq!(stats.write_fallbacks, 0, "nothing to fall back from");
    assert_eq!(stats.write_restarts, 0);
    assert_eq!(stats.leaf_upgrades_failed, 0);
}

/// Recovery equivalence guard for the write path: an OLC-prepared
/// operation logs and applies exactly what its latched twin would, so
/// after crash + recovery — under **every** method of the spectrum — the
/// surviving state must be identical between an optimistic-writes engine
/// and a latched one over the same single-stream history.
#[test]
fn optimistic_writes_agree_with_latched_after_recovery() {
    for method in lr_core::RecoveryMethod::all() {
        let run = |optimistic: bool| {
            let engine = Engine::build(EngineConfig {
                initial_rows: 1_000,
                pool_pages: 128,
                optimistic_writes: optimistic,
                io_model: lr_common::IoModel::zero(),
                // Capture everything any method of the spectrum could
                // need on one log (the paper's common-log trick).
                aries_ckpt_capture: true,
                perfect_delta_lsns: true,
                ..EngineConfig::default()
            })
            .unwrap()
            .into_shared();
            // One stream: concurrent streams would make the final value
            // of a contended key depend on commit interleaving, which
            // would compare scheduling, not the prepare path.
            let scenario = ConcurrentScenario::paper_default(1, 150, 1_000);
            run_concurrent(&engine, &scenario).unwrap();
            // A checkpoint mid-history (the ARIES variant reads its DPT
            // from it) plus an unflushed tail so redo has real work.
            engine.checkpoint().unwrap();
            {
                let mut s = Engine::session(&engine);
                for key in 0..50u64 {
                    s.run_txn(10, |s| s.update_in(DEFAULT_TABLE, key, vec![0xC3; 100])).unwrap();
                }
            }
            engine.crash();
            engine.recover(method).unwrap();
            engine.scan_table(DEFAULT_TABLE).unwrap()
        };
        assert_eq!(run(true), run(false), "write path leaked into {method:?} recovered state");
    }
}
