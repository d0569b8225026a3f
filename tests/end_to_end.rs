//! End-to-end behavioural tests: the qualitative performance claims of
//! §5.3 must hold in the simulated-time domain, and the machinery
//! underneath them (tail handling, prefetch accounting, WAL discipline)
//! must be visible in the reports.

use lr_common::IoModel;
use lr_core::{Engine, EngineConfig, RecoveryMethod, RecoveryReport, ShadowDb, DEFAULT_TABLE};
use lr_workload::{run_to_crash, CrashScenario, KeyDist, TxnGenerator, WorkloadSpec};

/// A mid-sized rig: enough pages for the DPT to matter.
fn rig(seed: u64, pool_pages: usize) -> (EngineConfig, CrashScenario, u64) {
    let cfg = EngineConfig {
        initial_rows: 8_000, // ~250 data pages
        pool_pages,
        io_model: IoModel::default(), // timed!
        dirty_batch_cap: 32,
        flush_batch_cap: 32,
        ..EngineConfig::default()
    };
    let scenario = CrashScenario {
        updates_per_checkpoint: 600,
        checkpoints_before_crash: 3,
        // Tail kept proportionally small (paper: 100 of 40,000) — tail
        // pages are inherently synchronous for logical methods.
        tail_updates: 10,
        warm_cache: true,
    };
    (cfg, scenario, seed)
}

fn crash_and_recover(
    method: RecoveryMethod,
    seed: u64,
    pool_pages: usize,
) -> (RecoveryReport, Engine, ShadowDb) {
    let (cfg, scenario, seed) = rig(seed, pool_pages);
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let mut gen = TxnGenerator::new(WorkloadSpec::paper_default(cfg.initial_rows, 100, seed));
    let mut engine = Engine::build(cfg).unwrap();
    run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario).unwrap();
    let report = engine.recover(method).unwrap();
    shadow.verify_against(&engine).unwrap();
    (report, engine, shadow)
}

#[test]
fn dpt_cuts_logical_redo_time_and_fetches() {
    // §5.3: "The DPT dropped the logical redo time by 65% (from Log0 to
    // Log1)" at 512 MB. We assert the direction and a substantial factor,
    // not the exact percentage.
    let (log0, ..) = crash_and_recover(RecoveryMethod::Log0, 11, 64);
    let (log1, ..) = crash_and_recover(RecoveryMethod::Log1, 11, 64);
    assert!(
        log1.breakdown.data_pages_fetched < log0.breakdown.data_pages_fetched,
        "DPT must reduce data-page fetches: Log1 {} vs Log0 {}",
        log1.breakdown.data_pages_fetched,
        log0.breakdown.data_pages_fetched
    );
    assert!(
        log1.redo_ms() < log0.redo_ms() * 0.8,
        "DPT must cut redo time materially: Log1 {:.1}ms vs Log0 {:.1}ms",
        log1.redo_ms(),
        log0.redo_ms()
    );
    // And the skip counters explain why.
    assert!(log1.breakdown.skipped_no_dpt_entry + log1.breakdown.skipped_rlsn > 0);
}

#[test]
fn logical_with_dpt_tracks_physiological() {
    // §5.3: "Log1 redo time is practically the same as the SQL1 redo time"
    // — modulo the index-page burden, which is the only structural
    // difference (Appendix B). Allow a generous envelope.
    let (log1, ..) = crash_and_recover(RecoveryMethod::Log1, 13, 64);
    let (sql1, ..) = crash_and_recover(RecoveryMethod::Sql1, 13, 64);
    // §5.3: "Log1 issues exactly the same data page requests as SQL1."
    // In their engine the two DPTs coincided; with our background cleaner
    // the Δ-built table prunes flushed pages the analysis-built table
    // keeps conservatively, so logical may fetch *fewer* data pages —
    // never meaningfully more (that would break the competitiveness
    // argument).
    let (a, b) = (log1.breakdown.data_pages_fetched, sql1.breakdown.data_pages_fetched);
    assert!(
        (a as f64) <= (b as f64 * 1.05).max(b as f64 + 8.0),
        "Log1 ({a}) must not fetch more data pages than SQL1 ({b})"
    );
    assert!(
        log1.redo_ms() <= sql1.redo_ms() * 2.0,
        "Log1 {:.1}ms vs SQL1 {:.1}ms — difference should be the index burden only",
        log1.redo_ms(),
        sql1.redo_ms()
    );
    assert!(log1.breakdown.index_pages_fetched > 0, "logical redo must have paid for index pages");
}

#[test]
fn prefetch_reduces_stalls_by_orders_of_magnitude() {
    // §5.3: "Prefetching reduces stalls for both logical and SQL Server
    // recovery by two orders of magnitude. Running time reduction is
    // smaller..."
    let (log1, ..) = crash_and_recover(RecoveryMethod::Log1, 17, 64);
    let (log2, ..) = crash_and_recover(RecoveryMethod::Log2, 17, 64);
    assert!(log2.breakdown.prefetch_pages > 0, "Log2 must actually prefetch");
    assert!(
        log2.breakdown.data_stall_events * 2 < log1.breakdown.data_stall_events.max(1),
        "prefetch must slash stall events: Log2 {} vs Log1 {}",
        log2.breakdown.data_stall_events,
        log1.breakdown.data_stall_events
    );
    assert!(
        log2.breakdown.data_stall_us < log1.breakdown.data_stall_us,
        "total stall time must drop: Log2 {}us vs Log1 {}us",
        log2.breakdown.data_stall_us,
        log1.breakdown.data_stall_us
    );
    assert!(log2.redo_ms() < log1.redo_ms(), "and redo time should drop too");

    let (sql1, ..) = crash_and_recover(RecoveryMethod::Sql1, 17, 64);
    let (sql2, ..) = crash_and_recover(RecoveryMethod::Sql2, 17, 64);
    assert!(sql2.breakdown.prefetch_pages > 0);
    assert!(sql2.redo_ms() < sql1.redo_ms());
}

#[test]
fn tail_of_log_falls_back_to_basic_redo() {
    let (log1, ..) = crash_and_recover(RecoveryMethod::Log1, 19, 64);
    assert!(
        log1.breakdown.tail_records > 0,
        "the crash scenario leaves a tail; Log1 must process it basically"
    );
    // Tail records are bounded by the scenario's tail length plus the few
    // records of the final in-flight transaction.
    assert!(
        log1.breakdown.tail_records <= 10 + 10,
        "tail unexpectedly large: {}",
        log1.breakdown.tail_records
    );
}

#[test]
fn index_preload_loads_the_whole_index() {
    let (log2, engine, _) = crash_and_recover(RecoveryMethod::Log2, 23, 64);
    let summary = engine.verify_table(DEFAULT_TABLE).unwrap();
    assert_eq!(
        log2.breakdown.index_pages_loaded, summary.internal_pages,
        "preload must touch every internal page exactly once"
    );
    assert!(log2.breakdown.index_preload_us > 0);
}

#[test]
fn skew_shrinks_the_dpt() {
    // Appendix B: "The better the page locality of the workload, the fewer
    // unique pages appear in update log records, and hence the smaller the
    // DPT size."
    let run = |dist: KeyDist| {
        // Cache larger than the whole table and the background cleaner
        // disabled, so the dirty set is bounded by workload locality alone.
        let cfg = EngineConfig {
            initial_rows: 8_000,
            pool_pages: 400,
            io_model: IoModel::zero(),
            dirty_batch_cap: 32,
            flush_batch_cap: 32,
            dirty_watermark: 1.0,
            ..EngineConfig::default()
        };
        let mut shadow = ShadowDb::with_initial_rows(&cfg);
        let spec = WorkloadSpec { dist, ..WorkloadSpec::paper_default(cfg.initial_rows, 100, 29) };
        let mut gen = TxnGenerator::new(spec);
        let mut engine = Engine::build(cfg).unwrap();
        let scenario = CrashScenario {
            updates_per_checkpoint: 600,
            checkpoints_before_crash: 2,
            tail_updates: 40,
            warm_cache: false,
        };
        run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario).unwrap();
        let report = engine.recover(RecoveryMethod::Log1).unwrap();
        report.breakdown.dpt_size
    };
    let uniform = run(KeyDist::Uniform);
    let skewed = run(KeyDist::Zipf(0.99));
    assert!(skewed < uniform, "Zipf DPT ({skewed}) should be smaller than uniform DPT ({uniform})");
}

#[test]
fn wal_rule_never_violated_under_pressure() {
    // A tiny cache (cleaner disabled) forces constant dirty evictions;
    // every flush must pass the eLSN gate (on-demand EOSL), never error.
    let cfg = EngineConfig {
        initial_rows: 4_000,
        pool_pages: 16,
        io_model: IoModel::zero(),
        dirty_watermark: 1.0,
        ..EngineConfig::default()
    };
    let engine = Engine::build(cfg).unwrap();
    for round in 0..30u64 {
        let t = engine.begin().unwrap();
        for i in 0..10u64 {
            let key = (round * 131 + i * 17) % 4_000;
            engine.update(t, key, vec![round as u8; 100]).unwrap();
        }
        engine.commit(t).unwrap();
    }
    let stats = engine.dc().pool().stats();
    assert!(stats.dirty_evictions > 0, "pressure test must actually evict dirt");
}

#[test]
fn report_accounting_is_internally_consistent() {
    let (r, ..) = crash_and_recover(RecoveryMethod::Log1, 31, 64);
    let b = &r.breakdown;
    // Every examined record was either skipped at some stage, re-applied,
    // or fell into the tail and then hit the pLSN test / was applied.
    assert_eq!(
        b.redo_records_seen,
        b.skipped_no_dpt_entry + b.skipped_rlsn + b.skipped_plsn + b.ops_reapplied,
        "redo-test accounting must add up: {b:?}"
    );
    assert!(b.total_us() >= b.redo_us);
    assert_eq!(r.window_data_ops, b.redo_records_seen);
    assert!(r.breakdown.dpt_size > 0);
}

#[test]
fn range_scans_survive_recovery() {
    let cfg = EngineConfig {
        initial_rows: 5_000,
        pool_pages: 48,
        io_model: IoModel::zero(),
        ..EngineConfig::default()
    };
    let e = Engine::build(cfg).unwrap();
    let t = e.begin().unwrap();
    for k in 100..200u64 {
        e.update(t, k, format!("range-{k}").into_bytes()).unwrap();
    }
    e.commit(t).unwrap();
    e.crash();
    e.recover(RecoveryMethod::Log2).unwrap();
    let rows = e.scan_range(DEFAULT_TABLE, 150, 159).unwrap();
    assert_eq!(rows.len(), 10);
    for (i, (k, v)) in rows.iter().enumerate() {
        assert_eq!(*k, 150 + i as u64);
        assert_eq!(v, format!("range-{k}").as_bytes());
    }
    // Empty and boundary ranges behave.
    assert!(e.scan_range(DEFAULT_TABLE, 10_000, 20_000).unwrap().is_empty());
    assert_eq!(e.scan_range(DEFAULT_TABLE, 4_999, 4_999).unwrap().len(), 1);
}

#[test]
fn delta_log_volume_is_modest() {
    // §5.1: "This auxiliary information is a very small part of the log."
    let cfg = EngineConfig {
        initial_rows: 8_000,
        pool_pages: 64,
        io_model: IoModel::zero(),
        dirty_batch_cap: 32,
        flush_batch_cap: 32,
        ..EngineConfig::default()
    };
    let mut shadow = lr_core::ShadowDb::with_initial_rows(&cfg);
    let mut gen = lr_workload::TxnGenerator::new(lr_workload::WorkloadSpec::paper_default(
        cfg.initial_rows,
        100,
        77,
    ));
    let mut engine = Engine::build(cfg).unwrap();
    let scenario = lr_workload::CrashScenario {
        updates_per_checkpoint: 600,
        checkpoints_before_crash: 3,
        tail_updates: 10,
        warm_cache: true,
    };
    lr_workload::run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario).unwrap();
    let records = engine.wal().lock().scan_from(lr_common::Lsn::NULL).unwrap();
    let stats = lr_wal::LogStats::from_records(&records);
    assert!(stats.delta_records > 0);
    assert!(stats.bw_records > 0);
    assert!(
        stats.delta_byte_fraction() < 0.10,
        "Δ overhead {:.1}% of log bytes — should be 'a very small part'",
        100.0 * stats.delta_byte_fraction()
    );
    // SMO volume is also small relative to data (update-only => no SMOs at
    // all after load; the assertion documents it).
    assert!(stats.smo_bytes <= stats.data_op_bytes / 10);
}
