//! **Parallel recovery smoke** — serial vs partitioned redo wall-clock,
//! side-by-side on the same crash image (§5.1 methodology), plus the
//! spill_concurrent crash from the maintenance work.
//!
//! ```sh
//! cargo run --release -p lr-bench --bin precovery
//! LR_SCALE=smoke LR_RECOVERY_WORKERS=4 \
//!     cargo run --release -p lr-bench --bin precovery
//! ```
//!
//! Serial redo time is the clock delta of the single-threaded pass;
//! parallel redo time is the busiest worker's simulated busy time
//! (max-of-workers wall-clock; the dispatcher's scan is reported as the
//! separate `partition` phase). Because the screen/traversal cost moves
//! from serial `redo` into the parallel `partition` phase, the gate
//! compares the *whole* parallel redo pipeline — partition + redo +
//! merge — against the serial redo wall-clock: the bin exits non-zero if
//! any cell's parallel pipeline exceeds its serial redo. One JSON line
//! per cell feeds the perf trajectory.

use lr_bench::prelude::*;
use lr_core::{Engine, RecoveryOptions};
use lr_workload::{run_concurrent, spill_concurrent};

/// `LR_RECOVERY_WORKERS`, at least 2 (absent or unparsable means 2).
fn env_workers() -> usize {
    std::env::var("LR_RECOVERY_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(2)
        .max(2)
}

struct JsonRow {
    preset: String,
    method: &'static str,
    redo_ms_serial: f64,
    redo_ms_parallel: f64,
    partition_ms: f64,
    total_ms_serial: f64,
    total_ms_parallel: f64,
    workers: usize,
    skew: f64,
    queue_stall_ms: f64,
}

impl JsonRow {
    fn emit(&self) {
        println!(
            "JSON {{\"preset\":\"{}\",\"method\":\"{}\",\"workers\":{},\
             \"redo_ms_serial\":{:.3},\"redo_ms_parallel\":{:.3},\"partition_ms\":{:.3},\
             \"total_ms_serial\":{:.3},\"total_ms_parallel\":{:.3},\"skew\":{:.3},\
             \"queue_stall_ms\":{:.3}}}",
            self.preset,
            self.method,
            self.workers,
            self.redo_ms_serial,
            self.redo_ms_parallel,
            self.partition_ms,
            self.total_ms_serial,
            self.total_ms_parallel,
            self.skew,
            self.queue_stall_ms,
        );
    }
}

fn main() {
    let preset = preset_from_env();
    let workers = env_workers();
    let methods = RecoveryMethod::paper_five();
    // One representative cache (the 512MB-equivalent sweep entry, as fig3).
    let (label, pool_pages) = preset.cache_sweep()[3];
    println!(
        "Parallel recovery smoke: preset {preset:?}, cache {label}, {workers} workers \
         (LR_RECOVERY_WORKERS)\n"
    );

    let mut table = Table::new(&[
        "method",
        "serial redo_ms",
        "parallel redo_ms",
        "pipeline_ms",
        "speedup",
        "skew",
        "reapplied s/p",
    ]);
    let mut failures = 0usize;
    // Parallel redo pipeline wall-clock: dispatcher scan + busiest worker
    // + shard merge — the apples-to-apples counterpart of serial redo_ms.
    let pipeline_ms =
        |b: &lr_common::RecoveryBreakdown| (b.partition_us + b.redo_us + b.merge_us) as f64 / 1e3;

    let cell = Cell::new(preset, label, pool_pages, EXPERIMENT_SEED);
    let run = CellRun::prepare(&cell);
    for method in methods {
        let serial = run.recover_with(method);
        let parallel = run.recover_with_workers(method, workers);
        let (s, p) = (serial.report.redo_ms(), parallel.report.redo_ms());
        let b = &parallel.report.breakdown;
        let pipe = pipeline_ms(b);
        if pipe > s {
            failures += 1;
        }
        table.row(vec![
            method.name().to_string(),
            format!("{s:.1}"),
            format!("{p:.1}"),
            format!("{pipe:.1}"),
            format!("{:.2}x", if pipe > 0.0 { s / pipe } else { f64::INFINITY }),
            format!("{:.2}", b.partition_skew()),
            format!(
                "{}/{}",
                serial.report.breakdown.ops_reapplied, parallel.report.breakdown.ops_reapplied
            ),
        ]);
        JsonRow {
            preset: format!("{preset:?}"),
            method: method.name(),
            redo_ms_serial: s,
            redo_ms_parallel: p,
            partition_ms: b.partition_us as f64 / 1e3,
            total_ms_serial: serial.report.total_ms(),
            total_ms_parallel: parallel.report.total_ms(),
            workers,
            skew: b.partition_skew(),
            queue_stall_ms: b.queue_stall_us as f64 / 1e3,
        }
        .emit();
        eprintln!("  finished {method}: serial {s:.1} ms, parallel {p:.1} ms");
    }
    println!("{}", table.render());

    // ---- spill preset: crash under eviction pressure, Log1 s/p ----
    let (mut cfg, scenario) = spill_concurrent(4, 60);
    // The spill preset runs untimed; give recovery the real device model
    // so the serial/parallel comparison measures actual simulated I/O.
    cfg.io_model = lr_common::IoModel::default();
    let engine = Engine::build(cfg).expect("spill engine").into_shared();
    run_concurrent(&engine, &scenario).expect("spill run");
    engine.crash();
    let serial_fork = engine.fork_crashed().expect("fork");
    let parallel_fork = engine.fork_crashed().expect("fork");
    let rs = serial_fork.recover(RecoveryMethod::Log1).expect("serial spill recovery");
    let rp = parallel_fork
        .recover_with(RecoveryMethod::Log1, RecoveryOptions::with_workers(workers))
        .expect("parallel spill recovery");
    assert_eq!(
        serial_fork.scan_table(lr_core::DEFAULT_TABLE).unwrap(),
        parallel_fork.scan_table(lr_core::DEFAULT_TABLE).unwrap(),
        "spill: parallel state diverged from serial"
    );
    let (s, p) = (rs.redo_ms(), rp.redo_ms());
    if pipeline_ms(&rp.breakdown) > s {
        failures += 1;
    }
    println!(
        "spill_concurrent Log1: serial redo {s:.1} ms, parallel redo {p:.1} ms, \
         pipeline {:.1} ms (skew {:.2})",
        pipeline_ms(&rp.breakdown),
        rp.breakdown.partition_skew()
    );
    JsonRow {
        preset: "spill_concurrent".to_string(),
        method: RecoveryMethod::Log1.name(),
        redo_ms_serial: s,
        redo_ms_parallel: p,
        partition_ms: rp.breakdown.partition_us as f64 / 1e3,
        total_ms_serial: rs.total_ms(),
        total_ms_parallel: rp.total_ms(),
        workers,
        skew: rp.breakdown.partition_skew(),
        queue_stall_ms: rp.breakdown.queue_stall_us as f64 / 1e3,
    }
    .emit();

    if failures > 0 {
        println!(
            "FAIL: {failures} cell(s) with parallel redo pipeline (partition+redo+merge) \
             above serial redo"
        );
        std::process::exit(1);
    }
    println!("PASS: parallel redo pipeline (partition+redo+merge) <= serial redo in every cell");
}
