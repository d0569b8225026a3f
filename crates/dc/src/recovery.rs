//! The SMO page-image install kernels of DC recovery.
//!
//! DC recovery ([`crate::redo`], behind [`crate::DcApi::redo`]) runs
//! **before** the TC resubmits anything (§4.2, Figure 1 part B): SMO redo
//! replays structure-modification system transactions so every B-tree is
//! well-formed — without this, logical redo could not even locate its
//! target pages (§1.2) — and physiological redo replays the same records
//! inside its own pass under the full redo screen. Both install whole page
//! images through the two kernels here, so a screen fix can never apply
//! to one backend and miss another.

use crate::dc::DataComponent;
use crate::dpt::Dpt;
use lr_common::{Lsn, PageId, Result};
use lr_storage::Page;

/// Install SMO page images under the plain pLSN guard (no DPT screen —
/// the SMO-redo setting, where no DPT exists yet). Returns `(pages
/// applied, pages skipped)`.
pub(crate) fn plsn_smo_install(
    pool: &lr_buffer::BufferPool,
    lsn: Lsn,
    pages: &[(PageId, Vec<u8>)],
) -> Result<(u64, u64)> {
    let mut applied = 0u64;
    let mut skipped = 0u64;
    for (pid, image) in pages {
        let plsn = pool.with_page(*pid, |p| p.plsn())?;
        if plsn < lsn {
            let page = Page::from_bytes(image.clone().into_boxed_slice())?;
            pool.install_page(*pid, page, lsn)?;
            applied += 1;
        } else {
            skipped += 1;
        }
    }
    Ok((applied, skipped))
}

/// Install SMO page images under the full physiological redo screen
/// (DPT + rLSN + pLSN). The one screened kernel every backend's
/// `RedoBackend::replay_smo_screened` delegates to, so a screen fix can
/// never apply to one backend and miss another. Returns the PIDs
/// actually installed (backends with volatile indexes refresh those).
pub(crate) fn screened_smo_install(
    pool: &lr_buffer::BufferPool,
    lsn: Lsn,
    pages: &[(PageId, Vec<u8>)],
    dpt: &Dpt,
    out: &mut SmoBarrierOutcome,
) -> Result<Vec<PageId>> {
    let mut installed = Vec::new();
    for (pid, image) in pages {
        match dpt.screen(*pid, lsn) {
            crate::dpt::DptScreen::SkipNoEntry => {
                out.skipped_no_dpt_entry += 1;
                continue;
            }
            crate::dpt::DptScreen::SkipRlsn => {
                out.skipped_rlsn += 1;
                continue;
            }
            crate::dpt::DptScreen::Fetch => {}
        }
        pool.fetch(*pid)?;
        let plsn = pool.with_page(*pid, |p| p.plsn())?;
        if lsn <= plsn {
            out.skipped_plsn += 1;
            continue;
        }
        let page = Page::from_bytes(image.clone().into_boxed_slice())?;
        pool.install_page(*pid, page, lsn)?;
        out.pages_applied += 1;
        installed.push(*pid);
    }
    Ok(installed)
}

/// Work counters of screened SMO replay (physiological redo). Field names
/// mirror the `RecoveryBreakdown` counters the caller folds them into.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SmoBarrierOutcome {
    pub pages_applied: u64,
    pub skipped_no_dpt_entry: u64,
    pub skipped_rlsn: u64,
    pub skipped_plsn: u64,
}

/// Replay one SMO system-transaction record with the physiological redo
/// screen: each page image is DPT-screened ([`Dpt::screen`]),
/// pLSN-guarded, and installed wholesale; a root move updates the
/// in-memory catalog. Returns the record's LSN when it moved a root —
/// callers persist the catalog once, after the last root move.
///
/// The B-tree backend's `RedoBackend::replay_smo_screened`.
pub(crate) fn replay_smo_screened(
    dc: &DataComponent,
    lsn: Lsn,
    smo: &lr_wal::SmoRecord,
    dpt: &Dpt,
    out: &mut SmoBarrierOutcome,
) -> Result<Option<Lsn>> {
    screened_smo_install(dc.pool(), lsn, &smo.pages, dpt, out)?;
    if let Some((table, root)) = smo.new_root {
        dc.set_root(table, root);
        return Ok(Some(lsn));
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::DcConfig;
    use crate::redo::RedoBackend;
    use lr_common::{IoModel, SimClock, TableId};
    use lr_storage::SimDisk;
    use lr_wal::{LogPayload, LogRecord, Wal};

    /// Build a DC with one empty table and a shared log.
    fn setup() -> DataComponent {
        let mut disk = SimDisk::new(512, 1, SimClock::new(), IoModel::zero());
        DataComponent::format_disk(&mut disk).unwrap();
        let wal = Wal::new_shared(4096);
        let dc = DataComponent::open(
            Box::new(disk),
            wal,
            DcConfig { pool_pages: 64, ..DcConfig::default() },
        )
        .unwrap();
        dc.create_table(TableId(1)).unwrap();
        dc
    }

    #[test]
    fn smo_redo_applies_images_idempotently() {
        let dc = setup();
        let wal = dc.wal();
        // Grow the tree enough to force SMOs.
        let mut lsn_seed = 1000u64;
        for k in 0..120u64 {
            let info = dc
                .prepare_write(TableId(1), k, crate::dc::WriteIntent::Insert { value_len: 16 })
                .unwrap();
            lsn_seed += 10;
            let rec = LogRecord {
                lsn: Lsn(lsn_seed),
                payload: LogPayload::Insert {
                    txn: lr_common::TxnId(1),
                    table: TableId(1),
                    key: k,
                    pid: info.pid,
                    prev_lsn: Lsn::NULL,
                    value: vec![7u8; 16],
                },
            };
            dc.apply(&rec).unwrap();
        }
        let root_before = dc.table_root(TableId(1)).unwrap();
        let records = wal.lock().scan_from(Lsn::NULL).unwrap();
        let smo_count = records.iter().filter(|r| matches!(r.payload, LogPayload::Smo(_))).count();
        assert!(smo_count > 0, "tree growth must have logged SMOs");

        // Crash: cache gone, stable pages pre-date some SMOs (nothing was
        // ever flushed except the meta page at registration).
        dc.crash();
        let (applied, _) = dc.smo_redo(&records).unwrap();
        assert!(applied > 0);
        assert_eq!(dc.table_root(TableId(1)).unwrap(), root_before, "root recovered");
        let tree = dc.tree(TableId(1)).unwrap().clone();
        lr_btree::verify_tree(&tree, dc.pool()).unwrap();

        // Flush recovered state (the engine's end-of-recovery checkpoint),
        // crash again: the second recovery must skip every image — the pLSN
        // test sees the installed state on stable storage.
        dc.pool().flush_all().unwrap();
        dc.crash();
        let (applied2, skipped2) = dc.smo_redo(&records).unwrap();
        assert_eq!(applied2, 0, "idempotent: images already installed");
        assert!(skipped2 >= applied);
    }

    // Window discovery is the log's restart pass; these pin what DC
    // recovery relies on from it (scan start and the RSSP note).

    #[test]
    fn window_discovery_empty_log() {
        let scan = Wal::new(4096).restart().unwrap();
        assert_eq!(scan.scan_start, lr_wal::LOG_ORIGIN);
        assert!(scan.rssp_lsn.is_null());
        assert!(scan.window.is_empty());
    }

    #[test]
    fn window_discovery_uses_last_completed_checkpoint() {
        let mut wal = Wal::new(4096);
        let b1 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::Rssp { rssp_lsn: b1 });
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b1, active_txns: vec![] });
        let b2 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::Rssp { rssp_lsn: b2 });
        wal.append(&LogPayload::EndCheckpoint { bckpt_lsn: b2, active_txns: vec![] });
        // An incomplete third checkpoint must be ignored.
        let b3 = wal.append(&LogPayload::BeginCheckpoint);
        wal.append(&LogPayload::Rssp { rssp_lsn: b3 });
        let scan = wal.restart().unwrap();
        assert_eq!(scan.scan_start, b2);
        // The RSSP note *after* b2's is on the log tail — taking the max is
        // correct: the DC had already flushed for b3's RSSP when it was
        // written, so redo from b2 is conservative, and Δ records are
        // filtered by TC-LSN anyway.
        assert_eq!(scan.rssp_lsn, b3);
        assert_eq!(scan.window.len(), 5);
    }
}
