//! The central correctness claim, tested end-to-end: **every recovery
//! method produces exactly the same database state** — equal to the
//! committed-state oracle — from the same crash.
//!
//! Methodology mirrors §5.1: the workload generator is seeded, so each
//! method replays a byte-identical log against a byte-identical stable
//! image.

use lr_common::IoModel;
use lr_core::{Engine, EngineConfig, RecoveryMethod, RecoveryOptions, ShadowDb, DEFAULT_TABLE};
use lr_workload::{
    run_concurrent, run_to_crash, spill_concurrent, CrashScenario, TxnGenerator, WorkloadSpec,
};

fn base_config() -> EngineConfig {
    EngineConfig {
        initial_rows: 3_000,
        pool_pages: 48,
        io_model: IoModel::zero(),
        dirty_batch_cap: 24,
        flush_batch_cap: 24,
        // Capture everything every method could need, so one log serves
        // the whole spectrum — exactly the paper's common-log trick.
        aries_ckpt_capture: true,
        perfect_delta_lsns: true,
        ..EngineConfig::default()
    }
}

fn scenario() -> CrashScenario {
    CrashScenario {
        updates_per_checkpoint: 300,
        checkpoints_before_crash: 3,
        tail_updates: 30,
        warm_cache: true,
    }
}

/// Post-recovery observables: full table contents plus the loser set the
/// undo pass rolled back as `(losers undone, undo ops)`.
type RecoveredState = (Vec<(u64, Vec<u8>)>, (u64, u64));

/// Run the seeded workload to the crash point and recover with `method`
/// under `workers`.
fn crash_and_recover_with(method: RecoveryMethod, seed: u64, workers: usize) -> RecoveredState {
    let cfg = base_config();
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let mut gen = TxnGenerator::new(WorkloadSpec::paper_default(cfg.initial_rows, 100, seed));
    let mut engine = Engine::build(cfg).unwrap();
    run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario()).unwrap();
    let report = engine.recover_with(method, RecoveryOptions::with_workers(workers)).unwrap();
    assert_eq!(report.method, method);
    assert_eq!(report.breakdown.workers, workers as u64);
    // Restart reads the redo window, not the log: the bytes it validated
    // fit in the window's log pages (plus one for the page the window
    // starts inside). A count, exact for a seed — a segmented file log
    // must keep honouring it.
    let scanned = report.breakdown.restart_scan_bytes;
    let log_page = engine.config().log_page_size as u64;
    assert!(
        scanned > 0 && scanned <= (report.log_pages_in_window + 1) * log_page,
        "{method}: restart validated {scanned} bytes for a {}-page window",
        report.log_pages_in_window
    );
    assert!(scanned < engine.last_crash_snapshot().unwrap().wal_bytes, "{method}: whole-log scan");
    assert_eq!(report.breakdown.restart_scan_records, report.window_records);
    shadow.verify_against(&engine).unwrap_or_else(|e| {
        panic!("{method} (workers={workers}) diverged from the committed oracle: {e}")
    });
    engine.verify_table(DEFAULT_TABLE).expect("B-tree well-formed after recovery");
    let losers = (report.breakdown.losers_undone, report.breakdown.undo_ops);
    (engine.scan_table(DEFAULT_TABLE).unwrap(), losers)
}

/// Serial-pipeline convenience used by the original method-equivalence
/// tests.
fn crash_and_recover(method: RecoveryMethod, seed: u64) -> Vec<(u64, Vec<u8>)> {
    crash_and_recover_with(method, seed, 1).0
}

#[test]
fn all_methods_recover_identical_state() {
    let seed = 20260613;
    let reference = crash_and_recover(RecoveryMethod::Log0, seed);
    assert!(!reference.is_empty());
    for method in [
        RecoveryMethod::Log1,
        RecoveryMethod::Log2,
        RecoveryMethod::Sql1,
        RecoveryMethod::Sql2,
        RecoveryMethod::AriesCkpt,
        RecoveryMethod::LogPerfect,
        RecoveryMethod::LogReduced,
        RecoveryMethod::Log2DptPrefetch,
    ] {
        let state = crash_and_recover(method, seed);
        assert_eq!(state.len(), reference.len(), "{method}: row count diverged from Log0");
        assert_eq!(state, reference, "{method}: contents diverged from Log0");
    }
}

#[test]
fn parallel_recovery_matches_serial_for_every_method() {
    // The partitioned pipeline's core claim: for every method, workers ∈
    // {2, 4} reproduce exactly the workers=1 state (table contents) and
    // the same loser set. One seeded crash per (method, workers) cell —
    // the deterministic workload replays a byte-identical log each time.
    let seed = 20260729;
    for method in RecoveryMethod::all() {
        let (reference, ref_losers) = crash_and_recover_with(method, seed, 1);
        assert!(!reference.is_empty());
        for workers in [2usize, 4] {
            let (state, losers) = crash_and_recover_with(method, seed, workers);
            assert_eq!(
                losers, ref_losers,
                "{method} workers={workers}: loser set diverged from serial"
            );
            assert_eq!(
                state, reference,
                "{method} workers={workers}: contents diverged from serial"
            );
        }
    }
}

#[test]
fn crash_during_spill_recovers_identically_serial_and_parallel() {
    // Larger-than-cache concurrent workload (the PR-2 spill preset), with
    // in-flight losers at the crash. The same crash image is forked and
    // recovered serially and with 4 workers; both must produce identical
    // state — this exercises parallel redo under real eviction pressure
    // (workers' pages get flushed and refetched mid-pass).
    let (cfg, scenario) = spill_concurrent(4, 60);
    let engine = Engine::build(cfg).unwrap().into_shared();
    run_concurrent(&engine, &scenario).unwrap();
    // Leave two transactions in flight so undo has real work.
    let l1 = engine.begin().unwrap();
    engine.update(l1, 1, b"spill-loser-1".to_vec()).unwrap();
    engine.update(l1, 2, b"spill-loser-1b".to_vec()).unwrap();
    let l2 = engine.begin().unwrap();
    engine.update(l2, 3, b"spill-loser-2".to_vec()).unwrap();
    engine.crash();

    let serial = engine.fork_crashed().unwrap();
    let parallel = engine.fork_crashed().unwrap();
    let rs = serial.recover_with(RecoveryMethod::Log1, RecoveryOptions::with_workers(1)).unwrap();
    let rp = parallel.recover_with(RecoveryMethod::Log1, RecoveryOptions::with_workers(4)).unwrap();
    assert_eq!(rs.breakdown.losers_undone, 2);
    assert_eq!(rp.breakdown.losers_undone, 2);
    assert_eq!(rs.breakdown.undo_ops, rp.breakdown.undo_ops);
    serial.verify_table(DEFAULT_TABLE).unwrap();
    parallel.verify_table(DEFAULT_TABLE).unwrap();
    assert_eq!(
        serial.scan_table(DEFAULT_TABLE).unwrap(),
        parallel.scan_table(DEFAULT_TABLE).unwrap(),
        "spill crash: parallel state diverged from serial"
    );
}

#[test]
fn equivalence_holds_across_seeds() {
    for seed in [1u64, 99, 4242] {
        let a = crash_and_recover(RecoveryMethod::Log2, seed);
        let b = crash_and_recover(RecoveryMethod::Sql2, seed);
        assert_eq!(a, b, "seed {seed}: Log2 vs SQL2 diverged");
    }
}

#[test]
fn double_recovery_is_idempotent() {
    // Crash again immediately after recovery (redo window nearly empty —
    // the post-recovery checkpoint ran) and recover with a different
    // method; state must be unchanged.
    let cfg = base_config();
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let mut gen = TxnGenerator::new(WorkloadSpec::paper_default(cfg.initial_rows, 100, 7));
    let mut engine = Engine::build(cfg).unwrap();
    run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario()).unwrap();

    engine.recover(RecoveryMethod::Log1).unwrap();
    let after_first = engine.scan_table(DEFAULT_TABLE).unwrap();
    engine.crash();
    engine.recover(RecoveryMethod::Sql1).unwrap();
    let after_second = engine.scan_table(DEFAULT_TABLE).unwrap();
    assert_eq!(after_first, after_second);
    shadow.verify_against(&engine).unwrap();
}

#[test]
fn recovery_with_in_flight_losers_rolls_them_back() {
    // Crash with an uncommitted transaction mid-flight; every method's
    // undo pass must erase it.
    let cfg = base_config();
    let engine = Engine::build(cfg.clone()).unwrap();
    let committed = engine.begin().unwrap();
    engine.update(committed, 10, b"committed-win".to_vec()).unwrap();
    engine.commit(committed).unwrap();
    engine.checkpoint().unwrap();

    let loser = engine.begin().unwrap();
    engine.update(loser, 10, b"loser-overwrite".to_vec()).unwrap();
    engine.update(loser, 11, b"loser-touch".to_vec()).unwrap();
    engine.insert(loser, 99_999, b"loser-insert".to_vec()).unwrap();
    // No commit: crash now.
    engine.crash();

    let report = engine.recover(RecoveryMethod::Log1).unwrap();
    assert_eq!(report.breakdown.losers_undone, 1);
    assert_eq!(report.breakdown.undo_ops, 3);
    assert_eq!(engine.read(DEFAULT_TABLE, 10).unwrap().unwrap(), b"committed-win".to_vec());
    assert_eq!(engine.read(DEFAULT_TABLE, 11).unwrap().unwrap(), cfg.initial_value(11));
    assert_eq!(engine.read(DEFAULT_TABLE, 99_999).unwrap(), None);
}
