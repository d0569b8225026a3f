//! Log2 against SQL2 at the paper's preset: the 1/10 geometry, the 512 MB
//! cache cell, Δ/BW batch cap 128 and eight seeds, one crash per seed
//! forked for both methods. Appendix A's claim — logical redo with index
//! preload and PF-list prefetch competes with SQL Server's log-driven
//! prefetch — has to hold on every seed, not on one.
//!
//! A few seconds per seed in release, so it is ignored by default:
//! `cargo test --release --test paper_preset -- --ignored`.

use lr_core::{Engine, RecoveryMethod, ShadowDb};
use lr_workload::{run_to_crash, Preset, TxnGenerator};

/// How far Log2's modeled redo may sit above SQL2's.
const LOG2_OVER_SQL2_MAX: f64 = 1.15;

#[test]
#[ignore = "paper-preset geometry, seconds per seed: run in release with --ignored"]
fn log2_redo_is_within_15_percent_of_sql2_on_every_seed_at_cap_128() {
    let preset = Preset::PaperTenth;
    let (_, pool_pages) =
        preset.cache_sweep().into_iter().find(|(label, _)| *label == "512MB").unwrap();
    let mut rows = Vec::new();
    for seed in [20110829, 1, 2, 3, 4, 5, 6, 7] {
        let cfg = preset.engine_config(pool_pages);
        assert_eq!((cfg.dirty_batch_cap, cfg.flush_batch_cap), (128, 128), "the paper's cap");
        let mut shadow = ShadowDb::with_initial_rows(&cfg);
        let mut engine = Engine::build(cfg).unwrap();
        let mut gen = TxnGenerator::new(preset.workload(seed));
        run_to_crash(&mut engine, &mut shadow, &mut gen, &preset.scenario()).unwrap();
        let redo_ms = |method| {
            let fork = engine.fork_crashed().unwrap();
            let report = fork.recover(method).unwrap();
            shadow.verify_against(&fork).unwrap();
            report.redo_ms()
        };
        let (log2, sql2) = (redo_ms(RecoveryMethod::Log2), redo_ms(RecoveryMethod::Sql2));
        eprintln!("seed {seed}: Log2 {log2:.1} ms, SQL2 {sql2:.1} ms, ratio {:.3}", log2 / sql2);
        rows.push((seed, log2, sql2));
    }
    let over: Vec<_> =
        rows.iter().filter(|(_, log2, sql2)| *log2 > LOG2_OVER_SQL2_MAX * sql2).collect();
    assert!(over.is_empty(), "Log2 > {LOG2_OVER_SQL2_MAX} × SQL2 at {over:?}");
}
