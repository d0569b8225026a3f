//! Logical log shipping to a physically different replica (§1.1).
//!
//! ```sh
//! cargo run --release -p lr-core --example replica_log_shipping
//! ```
//!
//! The primary runs 4 KiB pages on a simulated disk; the replica runs
//! **1 KiB pages on a real file**. Because the shipped records are logical
//! (`table`, `key`, images — the piggybacked PIDs are ignored), the replica
//! — an ordinary engine started from the same bulk-loaded snapshot —
//! replays each committed transaction through its own B-tree and converges
//! to the same logical contents in a completely different physical layout.

use lr_common::Lsn;
use lr_core::replica::apply_committed_ops;
use lr_core::{Engine, EngineConfig, DEFAULT_TABLE};
use lr_storage::FileDisk;

fn main() -> lr_common::Result<()> {
    // ---- primary: 4 KiB pages, in-memory simulated disk ----
    let cfg = EngineConfig {
        initial_rows: 5_000,
        page_size: 4096,
        pool_pages: 64,
        ..EngineConfig::default()
    };
    let initial_rows = cfg.initial_rows;
    let primary = Engine::build(cfg.clone())?;

    let t = primary.begin()?;
    for k in (0..5_000).step_by(7) {
        primary.update(t, k, format!("replicated-{k}").into_bytes())?;
    }
    primary.insert(t, 99_999, b"new-on-both".to_vec())?;
    primary.commit(t)?;

    // An aborted transaction — must never reach the replica.
    let loser = primary.begin()?;
    primary.update(loser, 0, b"aborted-garbage".to_vec())?;
    primary.abort(loser)?;
    println!("primary: committed 1 txn ({} updates + 1 insert), aborted 1", 5_000 / 7 + 1);

    // ---- replica: 1 KiB pages on a real file ----
    // Bootstrapped from the primary's initial snapshot: a real deployment
    // ships a base backup; here the bulk-loaded rows are derivable.
    let path = std::env::temp_dir().join(format!("lr-replica-{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let disk = FileDisk::create(&path, 1024, 0)?;
    let replica = Engine::build_on_disk(Box::new(disk), EngineConfig { page_size: 1024, ..cfg })?;
    println!(
        "replica: bootstrapped {} rows on 1 KiB pages (file: {})",
        initial_rows,
        path.display()
    );

    // ---- ship the log ----
    let records = primary.wal().lock().scan_from(Lsn::NULL)?;
    let applied = apply_committed_ops(&replica, &records)?;
    replica.checkpoint()?;
    println!("shipped {} log records; applied {applied} committed logical ops", records.len());

    // ---- verify convergence ----
    let primary_rows = primary.scan_table(DEFAULT_TABLE)?;
    let replica_rows = replica.scan_table(DEFAULT_TABLE)?;
    assert_eq!(primary_rows, replica_rows, "replica diverged!");

    let p_summary = primary.verify_table(DEFAULT_TABLE)?;
    let r_summary = replica.verify_table(DEFAULT_TABLE)?;
    println!("converged: {} identical rows", primary_rows.len());
    println!(
        "  primary : {} leaf pages, {} internal, height {} (4 KiB pages)",
        p_summary.leaf_pages, p_summary.internal_pages, p_summary.height
    );
    println!(
        "  replica : {} leaf pages, {} internal, height {} (1 KiB pages)",
        r_summary.leaf_pages, r_summary.internal_pages, r_summary.height
    );
    println!("same logical database, different physical shape — the point of logical logging.");
    std::fs::remove_file(&path).ok();
    Ok(())
}
