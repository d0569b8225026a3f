//! Recovery orchestration: crash → analysis → DC recovery → undo.
//!
//! This is the measured pipeline of §5: the clock starts at zero, every
//! pass charges the simulated device, and the report carries the same
//! numbers the paper's figures plot — redo time, DPT size, Δ/BW counts,
//! page-fetch and stall breakdowns.
//!
//! Every method runs the same phases — restart, analysis, one
//! [`lr_dc::DcApi::redo`] call (SMO redo, preload, redo and the index
//! rebuild, all run DC-side and journaled there), undo — and differs only
//! in the four choices of its row in [`RecoveryMethod`]'s method table.
#![deny(clippy::too_many_lines)]

use crate::engine::Engine;
use crate::precovery::RecoveryOptions;
use lr_buffer::PoolStats;
use lr_common::{Error, IoStats, Lsn, PageId, RecoveryBreakdown, Result};
use lr_dc::{
    build_dpt_aries, build_dpt_logical, build_dpt_sqlserver, DeltaDptMode, Dpt, Family, Prefetch,
    RedoPlan,
};
use lr_obs::{EventKind, RecoveryPhase};
use lr_tc::{analyze_txns, undo_losers, UndoStats};
use lr_wal::{LogPayload, RestartScan};
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::Ordering;

/// The recovery spectrum (§5.2 methods + ablations).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RecoveryMethod {
    /// Basic logical redo (Algorithm 2): no DPT, every page fetched.
    Log0,
    /// Logical redo with the Δ-built DPT (Algorithms 4+5), no prefetch.
    Log1,
    /// Log1 plus index preload and PF-list data prefetch (Appendix A).
    Log2,
    /// SQL Server physiological redo with the analysis-built DPT (Alg. 1+3).
    Sql1,
    /// Sql1 plus log-driven prefetch.
    Sql2,
    /// Physiological redo with the §3.1 checkpoint-captured DPT (ablation;
    /// requires `aries_ckpt_capture` during the run).
    AriesCkpt,
    /// Appendix D.1: logical redo with the exact-LSN "perfect" DPT
    /// (best with `perfect_delta_lsns` during the run; degrades gracefully).
    LogPerfect,
    /// Appendix D.2: logical redo with the reduced-logging DPT.
    LogReduced,
    /// Appendix A.2's *alternative* data prefetch: DPT pages read ahead in
    /// rLSN order instead of PF-list order (with index preload, like Log2).
    Log2DptPrefetch,
}

/// Where a method's dirty page table comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DptSource {
    /// No DPT: every data record reaches its page's pLSN test.
    None,
    /// Δ-log records, read during DC recovery (Alg. 4 or an App. D variant).
    Delta(DeltaDptMode),
    /// SQL Server's analysis pass over BW-log records (Alg. 3).
    SqlAnalysis,
    /// The checkpoint-captured DPT, rolled forward over the window (§3.1).
    AriesCkpt,
}

/// One row of the method table: a name and four independent choices.
#[derive(Clone, Copy, Debug)]
struct MethodSpec {
    name: &'static str,
    dpt: DptSource,
    family: Family,
    prefetch: Prefetch,
    /// Load every index page before redo (Appendix A.1).
    preload: bool,
}

impl MethodSpec {
    /// This row's redo plan around what analysis built.
    fn plan(
        self,
        dpt: Option<Dpt>,
        tail_from: Lsn,
        pf_list: Vec<PageId>,
        log_pages: u64,
        workers: usize,
    ) -> RedoPlan {
        let (family, prefetch, preload) = (self.family, self.prefetch, self.preload);
        RedoPlan { family, prefetch, preload, dpt, tail_from, pf_list, log_pages, workers }
    }
}

const fn spec(
    name: &'static str,
    dpt: DptSource,
    family: Family,
    prefetch: Prefetch,
    preload: bool,
) -> MethodSpec {
    MethodSpec { name, dpt, family, prefetch, preload }
}

impl RecoveryMethod {
    /// The method table: the one place a method maps to behaviour.
    const TABLE: [(RecoveryMethod, MethodSpec); 9] = {
        use DeltaDptMode::{Perfect, Reduced, Standard};
        use DptSource::{AriesCkpt, Delta, None as NoDpt, SqlAnalysis};
        use Family::{Logical, Physiological};
        use Prefetch::{DptOrder, LogDriven, None as NoPf, PfList};
        use RecoveryMethod as M;
        [
            (M::Log0, spec("Log0", NoDpt, Logical, NoPf, false)),
            (M::Log1, spec("Log1", Delta(Standard), Logical, NoPf, false)),
            (M::Log2, spec("Log2", Delta(Standard), Logical, PfList, true)),
            (M::Sql1, spec("SQL1", SqlAnalysis, Physiological, NoPf, false)),
            (M::Sql2, spec("SQL2", SqlAnalysis, Physiological, LogDriven, false)),
            (M::AriesCkpt, spec("ARIES-ckpt", AriesCkpt, Physiological, NoPf, false)),
            (M::LogPerfect, spec("Log-perfect", Delta(Perfect), Logical, NoPf, false)),
            (M::LogReduced, spec("Log-reduced", Delta(Reduced), Logical, NoPf, false)),
            (M::Log2DptPrefetch, spec("Log2-dptpf", Delta(Standard), Logical, DptOrder, true)),
        ]
    };

    fn spec(self) -> MethodSpec {
        Self::TABLE.into_iter().find(|(m, _)| *m == self).expect("every method has a row").1
    }

    /// The five methods of the paper's §5.2 comparison, in figure order.
    pub fn paper_five() -> [RecoveryMethod; 5] {
        [Self::Log0, Self::Log1, Self::Sql1, Self::Log2, Self::Sql2]
    }

    /// All implemented methods.
    pub fn all() -> [RecoveryMethod; 9] {
        Self::TABLE.map(|(method, _)| method)
    }

    /// Does redo locate pages by key (logical) rather than by logged PID?
    pub fn is_logical(self) -> bool {
        self.spec().family == Family::Logical
    }

    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl fmt::Display for RecoveryMethod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for RecoveryMethod {
    type Err = String;

    /// Case-insensitive; accepts every name [`RecoveryMethod::name`]
    /// prints (`"ARIES-ckpt"`, `"Log-perfect"`, `"Log2-dptpf"`, ...) plus
    /// the short aliases. The error lists every valid spelling.
    fn from_str(s: &str) -> std::result::Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "log0" => Ok(RecoveryMethod::Log0),
            "log1" => Ok(RecoveryMethod::Log1),
            "log2" => Ok(RecoveryMethod::Log2),
            "sql1" => Ok(RecoveryMethod::Sql1),
            "sql2" => Ok(RecoveryMethod::Sql2),
            "aries" | "aries-ckpt" => Ok(RecoveryMethod::AriesCkpt),
            "perfect" | "log-perfect" => Ok(RecoveryMethod::LogPerfect),
            "reduced" | "log-reduced" => Ok(RecoveryMethod::LogReduced),
            "log2-dpt" | "log2-dptpf" => Ok(RecoveryMethod::Log2DptPrefetch),
            other => {
                let valid: Vec<&str> = RecoveryMethod::all().iter().map(|m| m.name()).collect();
                Err(format!("unknown recovery method '{other}' (valid: {})", valid.join(", ")))
            }
        }
    }
}

/// Everything one recovery run measured.
#[derive(Clone, Debug)]
pub struct RecoveryReport {
    pub method: RecoveryMethod,
    pub breakdown: RecoveryBreakdown,
    /// Records in the scan window (from the redo scan start point).
    pub window_records: u64,
    /// Data operations among them (Eq. 1's "No. of log records").
    pub window_data_ops: u64,
    /// Log pages spanned by the window (one scan's worth).
    pub log_pages_in_window: u64,
    pub undo: UndoStats,
    /// Pool counters across the whole recovery.
    pub pool: PoolStats,
    /// Device counters across the whole recovery.
    pub io: IoStats,
}

impl RecoveryReport {
    /// Redo time in simulated milliseconds (Figure 2(a) / Figure 3 y-axis).
    pub fn redo_ms(&self) -> f64 {
        self.breakdown.redo_ms()
    }

    /// Total recovery time in simulated milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.breakdown.total_ms()
    }

    /// Data pages fetched during redo (the Appendix-B cost driver).
    pub fn data_pages_fetched(&self) -> u64 {
        self.breakdown.data_pages_fetched
    }
}

impl fmt::Display for RecoveryReport {
    /// Multi-line human-readable breakdown (examples and ad-hoc debugging).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = &self.breakdown;
        writeln!(f, "recovery with {}: {:.1} ms total (simulated)", self.method, self.total_ms())?;
        writeln!(
            f,
            "  analysis {:.1} ms | smo-redo {:.1} ms | preload {:.1} ms | redo {:.1} ms | undo {:.1} ms",
            b.analysis_us as f64 / 1e3,
            b.smo_redo_us as f64 / 1e3,
            b.index_preload_us as f64 / 1e3,
            b.redo_us as f64 / 1e3,
            b.undo_us as f64 / 1e3
        )?;
        if b.workers > 1 {
            writeln!(
                f,
                "  parallel: {} workers | partition {:.1} ms | merge {:.1} ms | worker busy \
                 max {:.1} / total {:.1} ms (skew {:.2}) | queue-stall {:.1} ms (real)",
                b.workers,
                b.partition_us as f64 / 1e3,
                b.merge_us as f64 / 1e3,
                b.worker_busy_max_us as f64 / 1e3,
                b.worker_busy_total_us as f64 / 1e3,
                b.partition_skew(),
                b.queue_stall_us as f64 / 1e3
            )?;
        }
        writeln!(
            f,
            "  window: {} records ({} data ops, {} log pages); DPT {} entries",
            self.window_records, self.window_data_ops, self.log_pages_in_window, b.dpt_size
        )?;
        writeln!(
            f,
            "  restart scan: {} bytes in {} frames validated (real, not simulated)",
            b.restart_scan_bytes, b.restart_scan_records
        )?;
        writeln!(
            f,
            "  redo test: {} skipped (no DPT entry) + {} (rLSN) + {} (pLSN); {} re-applied; {} tail",
            b.skipped_no_dpt_entry, b.skipped_rlsn, b.skipped_plsn, b.ops_reapplied, b.tail_records
        )?;
        writeln!(
            f,
            "  pages: {} data + {} index fetched; {} prefetched in {} I/Os",
            b.data_pages_fetched, b.index_pages_fetched, b.prefetch_pages, b.prefetch_ios
        )?;
        write!(
            f,
            "  stalls: {} events, {:.1} ms on data pages; undo: {} losers, {} CLRs",
            b.data_stall_events,
            b.data_stall_us as f64 / 1e3,
            b.losers_undone,
            b.undo_ops
        )
    }
}

/// A phase's span busy time when it is the phase's SimClock delta.
fn elapsed<R>(_: &R, us: u64) -> u64 {
    us
}

impl Engine {
    /// Recover the crashed engine with `method` and the serial §5
    /// pipeline. On success the engine is usable again (a post-recovery
    /// checkpoint is taken, untimed, so normal-execution monitoring
    /// restarts soundly).
    pub fn recover(&self, method: RecoveryMethod) -> Result<RecoveryReport> {
        self.recover_with(method, RecoveryOptions::default())
    }

    /// Recover the crashed engine with `method` under `opts`. With
    /// `workers == 1` this is exactly [`Engine::recover`]; with more, the
    /// redo pass feeds a DPT-partitioned worker pipeline and undo
    /// parallelizes per loser transaction (see [`crate::precovery`]) —
    /// producing state identical to the serial pipeline, with per-worker
    /// timing shards in the report.
    pub fn recover_with(
        &self,
        method: RecoveryMethod,
        opts: RecoveryOptions,
    ) -> Result<RecoveryReport> {
        let spec = method.spec();
        let workers = opts.workers.max(1);
        let _lc = self.lifecycle.lock();
        // The state check lives inside the lifecycle critical section: two
        // racing recover() calls must not both pass it — the loser would
        // re-run redo/undo against an already-live engine.
        if !self.is_crashed() {
            return Err(Error::RecoveryInvariant("recover() called while engine is up".into()));
        }
        // Exclusive data-plane latch for the whole redo/undo body, exactly
        // like crash(): reads are legal on a crashed engine and take the
        // latch in shared mode, so without this they could observe a
        // half-recovered tree (mid-SMO-redo, or between dc.crash() and the
        // catalog reload). Released before the post-recovery checkpoint,
        // which runs against live sessions by design.
        let dp = self.data_plane.write();
        let mut bk = RecoveryBreakdown { workers: workers as u64, ..Default::default() };
        let (scan, log_pages) = self.restart(&mut bk)?;
        let window = &scan.window;

        let analyze = || self.analyze(spec, &scan, log_pages, workers, &mut bk);
        let (plan, analysis_us) = self.phase(RecoveryPhase::Analysis, analyze, elapsed)?;
        bk.analysis_us = analysis_us;
        // DC recovery (§4.2) runs inside the DC, next to its pages: SMO
        // redo — the index well-formed before any record is located by
        // key — or the catalog reload, the preload, redo, and the rebuild
        // of any volatile index from the final pages before undo
        // re-locates by key.
        bk.add_redo_shard(self.dc.redo(window, &plan)?);
        let undo = self.undo(&scan, workers, &mut bk)?;

        // ---- finish: back to normal execution ----
        let (pool, io) = {
            let pool = self.dc.pool();
            let stats = (pool.stats(), pool.disk().stats());
            pool.disk_mut().set_timed(false);
            stats
        };
        self.crashed.store(false, Ordering::Release);
        // Post-recovery checkpoint: flushes redone state so the Δ/BW stream
        // restarts from a clean slate (untimed; recovery proper has ended).
        drop(dp);
        drop(_lc);
        self.checkpoint()?;

        Ok(RecoveryReport {
            method,
            breakdown: bk,
            window_records: window.len() as u64,
            window_data_ops: window.iter().filter(|r| r.payload.is_data_op()).count() as u64,
            log_pages_in_window: log_pages,
            undo,
            pool,
            io,
        })
    }

    /// Run one recovery phase on the caller's thread between its journal
    /// span events. Returns `run`'s result and the span's busy µs,
    /// `busy(result, the phase's elapsed SimClock µs)`.
    fn phase<R>(
        &self,
        phase: RecoveryPhase,
        run: impl FnOnce() -> Result<R>,
        busy: impl FnOnce(&R, u64) -> u64,
    ) -> Result<(R, u64)> {
        let t0 = self.clock.now_us();
        self.trace.emit(EventKind::RecoveryPhaseStart { phase, worker: 0 });
        let out = run()?;
        let busy_us = busy(&out, self.clock.now_us() - t0);
        self.trace.emit(EventKind::RecoveryPhaseEnd { phase, worker: 0, busy_us });
        Ok((out, busy_us))
    }

    /// Charge `n` log-page reads to the device.
    fn charge_log_reads(&self, n: u64) {
        let mut disk = self.dc.pool().disk_mut();
        for _ in 0..n {
            disk.charge_log_page_read();
        }
    }

    /// Start the measurement window, then find the end of the log and the
    /// redo window: one pass from the checkpoint anchor, every frame's
    /// length and CRC checked and decoded once, the log cut at the first
    /// torn one (crash mid-write). What it costs is a function of the
    /// window, not of the log. Returns the scan and the window's log pages.
    fn restart(&self, bk: &mut RecoveryBreakdown) -> Result<(RestartScan, u64)> {
        self.clock.reset();
        {
            let pool = self.dc.pool();
            pool.reset_stats();
            let mut disk = pool.disk_mut();
            disk.reset_device();
            disk.set_timed(true);
        }
        let mut wal = self.wal.lock();
        let scan = wal.restart()?;
        let log_pages = wal.log_pages_between(scan.scan_start, wal.end_lsn());
        bk.restart_scan_bytes = scan.scanned_bytes;
        bk.restart_scan_records = scan.scanned_records;
        self.restart_scan_bytes.fetch_add(scan.scanned_bytes, Ordering::Relaxed);
        Ok((scan, log_pages))
    }

    /// Analysis: one sequential scan of the window (log-page I/O plus
    /// per-record CPU), then the method's DPT construction. Returns what
    /// the DC runs: the method's row plus the DPT, tail, PF-list and the
    /// window's log pages.
    fn analyze(
        &self,
        spec: MethodSpec,
        scan: &RestartScan,
        log_pages: u64,
        workers: usize,
        bk: &mut RecoveryBreakdown,
    ) -> Result<RedoPlan> {
        let window = &scan.window;
        self.charge_log_reads(log_pages);
        bk.log_pages_read += log_pages;
        {
            let mut disk = self.dc.pool().disk_mut();
            let cpu_us = disk.io_model().cpu_log_record_us * window.len() as u64;
            disk.charge_cpu(cpu_us);
        }
        let (dpt, counts, tail_from, pf_list) = match spec.dpt {
            DptSource::None => {
                return Ok(spec.plan(None, Lsn::MAX, Vec::new(), log_pages, workers))
            }
            DptSource::Delta(mode) => {
                let a = build_dpt_logical(window, scan.rssp_lsn, mode);
                (a.dpt, a.counts, a.last_delta_tc_lsn, a.pf_list)
            }
            DptSource::SqlAnalysis => {
                let (dpt, counts) = build_dpt_sqlserver(window);
                (dpt, counts, Lsn::MAX, Vec::new())
            }
            DptSource::AriesCkpt => {
                let seed = window.iter().find_map(|r| match &r.payload {
                    LogPayload::AriesCheckpoint { dpt } => Some(dpt),
                    _ => None,
                });
                let seed = seed.ok_or_else(|| {
                    Error::RecoveryInvariant(
                        "no ARIES checkpoint DPT on the log — run the workload with \
                         aries_ckpt_capture enabled"
                            .into(),
                    )
                })?;
                let (dpt, counts) = build_dpt_aries(seed, window);
                (dpt, counts, Lsn::MAX, Vec::new())
            }
        };
        bk.bw_records_seen = counts.bw_records;
        bk.delta_records_seen = counts.delta_records;
        bk.dpt_size = dpt.len() as u64;
        Ok(spec.plan(Some(dpt), tail_from, pf_list, log_pages, workers))
    }

    /// Transactional undo, common to all methods. Serial undo reports the
    /// shared-clock delta (the measured §5 pipeline); parallel undo the
    /// busiest worker's shard — max-of-workers, like redo — since parallel
    /// workers inflate the shared clock to a sum-of-workers bound.
    fn undo(
        &self,
        scan: &RestartScan,
        workers: usize,
        bk: &mut RecoveryBreakdown,
    ) -> Result<UndoStats> {
        let run = || {
            let losers = analyze_txns(&scan.window, &scan.ckpt_active).losers;
            let undo = undo_losers(&self.tc, self.dc.as_ref(), &losers, workers)?;
            // Undo's random-access log reads (device/IoStats view; the
            // per-worker shards already charged them to their busy time).
            self.charge_log_reads(undo.log_records_visited);
            Ok(undo)
        };
        let busy = |undo: &UndoStats, us| if workers <= 1 { us } else { undo.busy_max_us };
        let (undo, undo_us) = self.phase(RecoveryPhase::Undo, run, busy)?;
        bk.undo_us = undo_us;
        bk.undo_worker_busy_max_us = undo.busy_max_us;
        bk.undo_worker_busy_total_us = undo.busy_us;
        bk.losers_undone = undo.losers_undone;
        bk.undo_ops = undo.ops_undone;
        Ok(undo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig};

    #[test]
    fn method_parsing_and_names_roundtrip() {
        for m in RecoveryMethod::all() {
            let parsed: RecoveryMethod = m.name().to_lowercase().parse().unwrap();
            assert_eq!(parsed, m, "{} failed to roundtrip", m.name());
            // The exact display spelling parses too ("ARIES-ckpt",
            // "Log-perfect", "Log2-dptpf", ...), no caller lowercasing.
            let display: RecoveryMethod = m.name().parse().unwrap();
            assert_eq!(display, m, "display name '{}' failed to parse", m.name());
            let via_to_string: RecoveryMethod = m.to_string().parse().unwrap();
            assert_eq!(via_to_string, m);
        }
        assert!("nonsense".parse::<RecoveryMethod>().is_err());
        assert_eq!("aries".parse::<RecoveryMethod>().unwrap(), RecoveryMethod::AriesCkpt);
    }

    #[test]
    fn parse_error_lists_valid_names() {
        let err = "bogus".parse::<RecoveryMethod>().unwrap_err();
        assert!(err.contains("unknown recovery method 'bogus'"), "{err}");
        for m in RecoveryMethod::all() {
            assert!(err.contains(m.name()), "error message missing '{}': {err}", m.name());
        }
    }

    #[test]
    fn paper_five_are_the_figure_methods() {
        let five = RecoveryMethod::paper_five();
        assert_eq!(five.len(), 5);
        assert!(five.iter().filter(|m| m.is_logical()).count() == 3);
    }

    #[test]
    fn recover_on_live_engine_is_rejected() {
        let e = Engine::build(EngineConfig {
            initial_rows: 100,
            pool_pages: 16,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap();
        assert!(e.recover(RecoveryMethod::Log1).is_err());
    }

    #[test]
    fn report_display_is_complete() {
        let e = Engine::build(EngineConfig {
            initial_rows: 500,
            pool_pages: 16,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap();
        let t = e.begin().unwrap();
        e.update(t, 1, b"x".to_vec()).unwrap();
        e.commit(t).unwrap();
        e.crash();
        let report = e.recover(RecoveryMethod::Log1).unwrap();
        let rendered = report.to_string();
        for needle in
            ["recovery with Log1", "analysis", "restart scan", "redo test", "stalls", "DPT"]
        {
            assert!(rendered.contains(needle), "missing '{needle}' in:\n{rendered}");
        }
    }

    #[test]
    fn parallel_recovery_reports_worker_shards() {
        let e = Engine::build(EngineConfig {
            initial_rows: 2_000,
            pool_pages: 64,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap();
        for k in 0..200u64 {
            let t = e.begin().unwrap();
            e.update(t, k * 7 % 2_000, format!("v{k}").into_bytes()).unwrap();
            e.commit(t).unwrap();
        }
        // A loser for the undo pass.
        let loser = e.begin().unwrap();
        e.update(loser, 3, b"loser".to_vec()).unwrap();
        e.crash();
        let report = e
            .recover_with(RecoveryMethod::Log1, crate::precovery::RecoveryOptions::with_workers(4))
            .unwrap();
        let b = &report.breakdown;
        assert_eq!(b.workers, 4);
        assert!(b.ops_reapplied > 0, "parallel redo applied work");
        assert_eq!(b.losers_undone, 1);
        assert!(b.worker_busy_max_us <= b.worker_busy_total_us, "max worker cannot exceed the sum");
        assert_eq!(b.redo_us, b.worker_busy_max_us, "redo wall-clock is max-of-workers");
        let rendered = report.to_string();
        assert!(rendered.contains("parallel: 4 workers"), "{rendered}");
        // No committed txn touched key 3 (7k ≡ 3 mod 2000 has no solution
        // below 200), so undoing the loser restores the bulk-loaded value.
        assert_eq!(
            e.read(crate::DEFAULT_TABLE, 3).unwrap().unwrap(),
            crate::config::deterministic_value(3, 0, 100)
        );
    }

    /// A fixed crash under the default (costed) I/O model: a checkpoint,
    /// a few hundred updates plus appends that split leaves, one loser.
    /// Single-threaded with no background maintenance, so every modeled
    /// charge is a function of the seed.
    fn pinned_crash() -> Engine {
        let e = Engine::build(EngineConfig {
            initial_rows: 20_000,
            pool_pages: 256,
            dirty_batch_cap: 16,
            flush_batch_cap: 16,
            aries_ckpt_capture: true,
            perfect_delta_lsns: true,
            io_model: lr_common::IoModel::default(),
            ..EngineConfig::default()
        })
        .unwrap();
        e.checkpoint().unwrap();
        let vsize = e.config().row_value_size;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..400u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 20_000;
            let t = e.begin().unwrap();
            e.update(t, key, crate::config::deterministic_value(key, i + 1, vsize)).unwrap();
            if i % 2 == 0 {
                let nk = 20_000 + i;
                e.insert(t, nk, crate::config::deterministic_value(nk, 0, vsize)).unwrap();
            }
            e.commit(t).unwrap();
        }
        let loser = e.begin().unwrap();
        for key in [5, 1_234, 19_999] {
            e.update(loser, key, crate::config::deterministic_value(key, 999, vsize)).unwrap();
        }
        e.crash();
        e
    }

    /// The breakdown fields the pin covers, in `PINNED` column order.
    fn pinned_fields(b: &RecoveryBreakdown) -> [u64; 16] {
        [
            b.redo_us,
            b.analysis_us,
            b.smo_redo_us,
            b.index_preload_us,
            b.undo_us,
            b.dpt_size,
            b.data_pages_fetched,
            b.index_pages_fetched,
            b.data_stall_us,
            b.prefetch_pages,
            b.prefetch_ios,
            b.skipped_no_dpt_entry,
            b.skipped_rlsn,
            b.skipped_plsn,
            b.tail_records,
            b.ops_reapplied,
        ]
    }

    /// Serial recovery's modeled numbers, per method, for `pinned_crash`.
    /// Columns: redo, analysis, smo-redo, preload, undo (µs), DPT size,
    /// data / index pages fetched, data stall µs, prefetch pages / I/Os,
    /// skipped no-entry / rLSN / pLSN, tail records, ops re-applied.
    const PINNED: [(RecoveryMethod, [u64; 16]); 9] = [
        (
            RecoveryMethod::Log0,
            [2414225, 20930, 104000, 0, 2000, 0, 295, 4, 2360000, 0, 0, 0, 0, 514, 0, 89],
        ),
        (
            RecoveryMethod::Log1,
            [558225, 20930, 104000, 0, 2000, 62, 63, 4, 504000, 0, 0, 439, 59, 16, 12, 89],
        ),
        (
            RecoveryMethod::Log2,
            [83940, 20930, 104000, 18000, 2000, 62, 63, 0, 61691, 66, 64, 439, 59, 16, 12, 89],
        ),
        (
            RecoveryMethod::Sql1,
            [565055, 20930, 0, 0, 18000, 68, 67, 1, 536000, 0, 0, 451, 44, 0, 0, 141],
        ),
        (
            RecoveryMethod::Sql2,
            [107846, 20930, 0, 0, 18000, 68, 67, 1, 78863, 68, 68, 451, 44, 0, 0, 141],
        ),
        (
            RecoveryMethod::AriesCkpt,
            [2477055, 20930, 0, 0, 18000, 305, 306, 1, 2448000, 0, 0, 0, 0, 495, 0, 141],
        ),
        (
            RecoveryMethod::LogPerfect,
            [558225, 20930, 104000, 0, 2000, 62, 63, 4, 504000, 0, 0, 439, 75, 0, 12, 89],
        ),
        (
            RecoveryMethod::LogReduced,
            [558225, 20930, 104000, 0, 2000, 62, 63, 4, 504000, 0, 0, 439, 59, 16, 12, 89],
        ),
        (
            RecoveryMethod::Log2DptPrefetch,
            [83917, 20930, 104000, 18000, 2000, 62, 63, 0, 61668, 66, 62, 439, 59, 16, 12, 89],
        ),
    ];

    #[test]
    fn serial_breakdown_is_pinned_for_every_method() {
        let e = pinned_crash();
        let mut serial = std::collections::HashMap::new();
        let mut got = Vec::new();
        for (method, _) in PINNED {
            let report = e.fork_crashed().unwrap().recover(method).unwrap();
            got.push((method, pinned_fields(&report.breakdown)));
            serial.insert(method, report.breakdown);
        }
        assert_eq!(got, PINNED, "one row per method, in PINNED order");
        // The partitioned sink screens exactly what the inline one does.
        let screen = |b: &RecoveryBreakdown| {
            [
                b.redo_records_seen,
                b.skipped_no_dpt_entry,
                b.skipped_rlsn,
                b.tail_records,
                b.skipped_plsn + b.ops_reapplied,
            ]
        };
        for method in [RecoveryMethod::Log1, RecoveryMethod::Sql1] {
            let fork = e.fork_crashed().unwrap();
            let report = fork
                .recover_with(method, crate::precovery::RecoveryOptions::with_workers(2))
                .unwrap();
            assert_eq!(screen(&report.breakdown), screen(&serial[&method]), "{method}");
        }
    }

    /// The `(phase, worker)` recovery spans a traced recovery journals:
    /// analysis; SMO redo for a logical method, or the partitioned SMO
    /// barrier for a physiological one; preload where the method's row asks
    /// for it; one redo span (one per worker when partitioned); the index
    /// rebuild; undo.
    fn expected_spans(method: RecoveryMethod, workers: u64) -> Vec<(&'static str, u64)> {
        let spec = method.spec();
        let mut spans = vec![("analysis", 0), ("index_rebuild", 0), ("undo", 0)];
        if spec.family == Family::Logical || workers > 1 {
            spans.push(("smo_redo", 0));
        }
        if spec.preload {
            spans.push(("index_preload", 0));
        }
        spans.extend((0..workers).map(|w| ("redo", w)));
        spans.sort_unstable();
        spans
    }

    #[test]
    fn traced_recovery_spans_are_pinned_per_method_and_worker_count() {
        for backend in ["btree", "hash", "remote:btree"] {
            let e = Engine::build(EngineConfig {
                initial_rows: 2_000,
                pool_pages: 64,
                io_model: lr_common::IoModel::zero(),
                aries_ckpt_capture: true,
                trace: true,
                backend: backend.to_string(),
                ..EngineConfig::default()
            })
            .unwrap();
            e.checkpoint().unwrap();
            for k in 0..300u64 {
                let t = e.begin().unwrap();
                e.update(t, k * 7 % 2_000, format!("v{k}").into_bytes()).unwrap();
                e.commit(t).unwrap();
            }
            let loser = e.begin().unwrap();
            e.update(loser, 3, b"loser".to_vec()).unwrap();
            e.crash();
            for method in RecoveryMethod::all() {
                for workers in [1, 2] {
                    let fork = e.fork_crashed().unwrap();
                    let opts = crate::precovery::RecoveryOptions::with_workers(workers);
                    fork.recover_with(method, opts).unwrap();
                    let (mut starts, mut ends) = (Vec::new(), Vec::new());
                    for ev in fork.drain_trace() {
                        match ev.kind {
                            EventKind::RecoveryPhaseStart { phase, worker } => {
                                starts.push((phase.name(), worker))
                            }
                            EventKind::RecoveryPhaseEnd { phase, worker, .. } => {
                                ends.push((phase.name(), worker))
                            }
                            _ => {}
                        }
                    }
                    starts.sort_unstable();
                    ends.sort_unstable();
                    let want = expected_spans(method, workers as u64);
                    assert_eq!(starts, want, "{backend}/{method}/w{workers}: span starts");
                    assert_eq!(ends, want, "{backend}/{method}/w{workers}: span ends");
                }
            }
        }
    }

    #[test]
    fn crash_before_anchor_publication_still_starts_at_newest_checkpoint() {
        // The eCkpt record is forced, the crash comes before its bCkpt is
        // published as the checkpoint anchor: the anchor names the
        // previous checkpoint, and restart must find the newer completed
        // one in its pass from there.
        let e = Engine::build(EngineConfig {
            initial_rows: 500,
            pool_pages: 32,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap();
        let commit = |key: u64, value: &[u8]| {
            let t = e.begin().unwrap();
            e.update(t, key, value.to_vec()).unwrap();
            e.commit(t).unwrap();
        };
        commit(1, b"before-b1");
        let b1 = e.checkpoint().unwrap();
        commit(2, b"between");
        // Engine::checkpoint by hand, minus the publication that
        // TransactionComponent::end_checkpoint does under the log latch.
        let b2 = e.tc().begin_checkpoint(None);
        e.dc().drain_in_flight_ops();
        e.dc().eosl(e.tc().stable_lsn());
        e.dc().rssp(b2).unwrap();
        {
            let active_txns = e.tc().txns().active_snapshot();
            let wal = e.wal();
            let mut wal = wal.lock();
            wal.append(&lr_wal::LogPayload::EndCheckpoint { bckpt_lsn: b2, active_txns });
            wal.make_all_stable();
            assert_eq!(wal.checkpoint_anchor(), b1, "not published");
        }
        commit(3, b"tail");
        e.crash();
        let (from_b1, from_b2) = {
            let wal = e.wal();
            let wal = wal.lock();
            (wal.records_from(b1).remaining() as u64, wal.records_from(b2).remaining() as u64)
        };
        assert!(from_b2 < from_b1);

        let report = e.recover(RecoveryMethod::Log1).unwrap();
        assert_eq!(report.window_records, from_b2, "redo window starts at the newest bCkpt");
        assert_eq!(report.breakdown.restart_scan_records, from_b1, "read from the lagging anchor");
        assert_eq!(
            e.metrics().counter("engine_restart_scan_bytes"),
            Some(report.breakdown.restart_scan_bytes),
            "the count is exported"
        );
        assert!(e.wal().lock().checkpoint_anchor() > b2, "post-recovery checkpoint published");
        for (key, value) in [(1, &b"before-b1"[..]), (2, b"between"), (3, b"tail")] {
            assert_eq!(e.read(crate::DEFAULT_TABLE, key).unwrap().unwrap(), value);
        }
    }

    #[test]
    fn fork_crashed_requires_crash_and_preserves_log() {
        let e = Engine::build(EngineConfig {
            initial_rows: 300,
            pool_pages: 16,
            io_model: lr_common::IoModel::zero(),
            ..EngineConfig::default()
        })
        .unwrap();
        assert!(e.fork_crashed().is_err(), "live engine cannot fork");
        let t = e.begin().unwrap();
        e.update(t, 5, b"forked".to_vec()).unwrap();
        e.commit(t).unwrap();
        e.crash();
        let bytes = e.wal().lock().byte_len();
        // Two independent forks recover independently.
        let f1 = e.fork_crashed().unwrap();
        let f2 = e.fork_crashed().unwrap();
        assert_eq!(f1.wal().lock().byte_len(), bytes);
        f1.recover(RecoveryMethod::Log1).unwrap();
        f2.recover(RecoveryMethod::Sql2).unwrap();
        assert_eq!(
            f1.read(crate::DEFAULT_TABLE, 5).unwrap(),
            f2.read(crate::DEFAULT_TABLE, 5).unwrap()
        );
        // The master is still crashed and recoverable itself.
        e.recover(RecoveryMethod::Log0).unwrap();
        assert_eq!(e.read(crate::DEFAULT_TABLE, 5).unwrap().unwrap(), b"forked");
    }
}
