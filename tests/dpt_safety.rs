//! Property tests of the **DPT safety invariant** (§3): for any workload
//! and crash point, every constructed DPT must
//!
//! 1. contain every page that was genuinely dirty at the crash (except
//!    pages whose dirtying falls in the tail of the log, which the methods
//!    handle with the basic fallback), and
//! 2. assign each such page an rLSN no greater than the LSN of the
//!    operation that first dirtied it.
//!
//! Violating either silently skips redo work — the catastrophic failure
//! mode of a recovery system. The oracle is the buffer pool's runtime
//! dirty-frame table captured at the instant of the crash.

use lr_common::{IoModel, Lsn};
use lr_core::{Engine, EngineConfig, ShadowDb};
use lr_dc::{build_dpt_logical, build_dpt_sqlserver, DeltaDptMode};
use lr_workload::{run_to_crash, CrashScenario, KeyDist, OpMix, TxnGenerator, WorkloadSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Params {
    seed: u64,
    pool_pages: usize,
    updates_per_ckpt: u64,
    checkpoints: u64,
    tail: u64,
    dirty_cap: usize,
    flush_cap: usize,
    zipf: bool,
}

fn params() -> impl Strategy<Value = Params> {
    (
        any::<u64>(),
        16usize..96,
        50u64..400,
        1u64..4,
        5u64..40,
        8usize..64,
        8usize..64,
        any::<bool>(),
    )
        .prop_map(
            |(
                seed,
                pool_pages,
                updates_per_ckpt,
                checkpoints,
                tail,
                dirty_cap,
                flush_cap,
                zipf,
            )| {
                Params {
                    seed,
                    pool_pages,
                    updates_per_ckpt,
                    checkpoints,
                    tail,
                    dirty_cap,
                    flush_cap,
                    zipf,
                }
            },
        )
}

fn run_case(p: &Params) {
    let cfg = EngineConfig {
        initial_rows: 2_000,
        pool_pages: p.pool_pages,
        io_model: IoModel::zero(),
        dirty_batch_cap: p.dirty_cap,
        flush_batch_cap: p.flush_cap,
        perfect_delta_lsns: true, // so the Perfect builder has real LSNs
        ..EngineConfig::default()
    };
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let spec = WorkloadSpec {
        dist: if p.zipf { KeyDist::Zipf(0.9) } else { KeyDist::Uniform },
        mix: OpMix { update_pct: 85, read_pct: 5, insert_pct: 7, delete_pct: 3 },
        ..WorkloadSpec::paper_default(cfg.initial_rows, 64, p.seed)
    };
    let mut gen = TxnGenerator::new(spec);
    let mut engine = Engine::build(cfg).unwrap();
    let scenario = CrashScenario {
        updates_per_checkpoint: p.updates_per_ckpt,
        checkpoints_before_crash: p.checkpoints,
        tail_updates: p.tail,
        warm_cache: false, // keep cases fast; dirt accumulates regardless
    };
    let out = run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario).unwrap();
    let truth = out.snapshot.dirty_truth.clone();

    let lr_wal::RestartScan { rssp_lsn: rssp, window, .. } = engine.wal().lock().restart().unwrap();

    // SQL Server DPT: the update records carry every dirtying, so no tail
    // exemption applies — the DPT must cover all dirty pages.
    let (sql_dpt, _) = build_dpt_sqlserver(&window);
    if let Some((pid, why)) = sql_dpt.safety_violation(&truth, Lsn::MAX) {
        panic!("SQL DPT unsafe for page {pid}: {why} (params {p:?})");
    }

    // Logical DPTs: pages first dirtied after the last Δ record's TC-LSN
    // are the tail's responsibility.
    for mode in [DeltaDptMode::Standard, DeltaDptMode::Perfect, DeltaDptMode::Reduced] {
        let analysis = build_dpt_logical(&window, rssp, mode);
        if let Some((pid, why)) = analysis.dpt.safety_violation(&truth, analysis.last_delta_tc_lsn)
        {
            panic!("logical DPT ({mode:?}) unsafe for page {pid}: {why} (params {p:?})");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn dpt_is_always_a_safe_superset(p in params()) {
        run_case(&p);
    }
}

#[test]
fn dpt_safety_on_the_paper_scenario() {
    // One deterministic, larger case shaped like §5.2.
    run_case(&Params {
        seed: 4242,
        pool_pages: 64,
        updates_per_ckpt: 400,
        checkpoints: 3,
        tail: 40,
        dirty_cap: 32,
        flush_cap: 32,
        zipf: false,
    });
}

#[test]
fn delta_dpt_spectrum_orders_as_appendix_d_argues() {
    // Appendix D.1: exact rLSNs can only tighten the table.
    let cfg = EngineConfig {
        initial_rows: 2_000,
        pool_pages: 48,
        io_model: IoModel::zero(),
        perfect_delta_lsns: true,
        dirty_batch_cap: 16,
        flush_batch_cap: 16,
        ..EngineConfig::default()
    };
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let mut gen = TxnGenerator::new(WorkloadSpec::paper_default(cfg.initial_rows, 64, 5));
    let mut engine = Engine::build(cfg).unwrap();
    let scenario = CrashScenario {
        updates_per_checkpoint: 300,
        checkpoints_before_crash: 2,
        tail_updates: 20,
        warm_cache: false,
    };
    run_to_crash(&mut engine, &mut shadow, &mut gen, &scenario).unwrap();
    let lr_wal::RestartScan { rssp_lsn: rssp, window, .. } = engine.wal().lock().restart().unwrap();
    let std = build_dpt_logical(&window, rssp, DeltaDptMode::Standard);
    let perfect = build_dpt_logical(&window, rssp, DeltaDptMode::Perfect);
    let reduced = build_dpt_logical(&window, rssp, DeltaDptMode::Reduced);
    // D.2 logs least and prunes least: never smaller than the chosen point.
    assert!(std.dpt.len() <= reduced.dpt.len());
    // D.1's claim: with exact LSNs "the DC has enough information to
    // construct exactly the same DPT as SQL Server" — *excluding the log
    // tail*, which the logical methods handle with the basic fallback while
    // SQL's DPT covers it (§4.3). Compare over the pre-tail window.
    let pre_tail: Vec<_> =
        window.iter().filter(|r| r.lsn < perfect.last_delta_tc_lsn).cloned().collect();
    let (sql_pre_tail, _) = build_dpt_sqlserver(&pre_tail);
    // Exact per-dirtying LSNs can only tighten relative to SQL's
    // update-record approximation (SQL keeps flushed-but-recently-updated
    // pages conservatively; transitions prove them clean), so perfect is
    // bounded above by SQL's table — and below by the true dirty set,
    // which the safety property test already enforces.
    assert!(
        perfect.dpt.len() <= sql_pre_tail.len(),
        "perfect DPT ({}) must be no larger than SQL's pre-tail DPT ({})",
        perfect.dpt.len(),
        sql_pre_tail.len()
    );
    // (Per-page rLSN comparisons between the two schemes are *not* a
    // theorem once prune/raise histories interleave — each table's safety
    // is enforced independently by the property test above.)
}
