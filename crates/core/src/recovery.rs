//! Recovery orchestration: crash → (analysis / DC recovery) → redo → undo.
//!
//! This is the measured pipeline of §5: the clock starts at zero, every
//! pass charges the simulated device, and the report carries the same
//! numbers the paper's figures plot — redo time, DPT size, Δ/BW counts,
//! page-fetch and stall breakdowns.

use crate::engine::Engine;
use crate::methods::{
    logical_redo, physiological_redo, DptDrivenPrefetcher, LogDrivenPrefetcher, LogicalCtx,
    LogicalPrefetch, PfListPrefetcher,
};
use crate::precovery::{parallel_redo, RecoveryOptions, RedoFamily};
use lr_buffer::PoolStats;
use lr_common::{Error, IoStats, Lsn, RecoveryBreakdown, Result};
use lr_dc::{
    build_dpt_aries, build_dpt_logical, build_dpt_sqlserver, smo_barrier_physiological,
    DeltaDptMode, Dpt,
};
use lr_obs::{EventKind, RecoveryPhase};
use lr_tc::{analyze_txns, undo_losers, undo_losers_parallel, UndoStats};
use lr_wal::LogPayload;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::Ordering;

/// Records to look ahead in log-driven prefetch (SQL2).
const LOG_DRIVEN_LOOKAHEAD_RECORDS: usize = 128;
/// Pages to keep in flight in PF-list prefetch (Log2).
const PF_LIST_AHEAD_PAGES: u64 = 64;

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

impl RecoveryMethod {
    /// The five methods of the paper's §5.2 comparison, in figure order.
    pub fn paper_five() -> [RecoveryMethod; 5] {
        [
            RecoveryMethod::Log0,
            RecoveryMethod::Log1,
            RecoveryMethod::Sql1,
            RecoveryMethod::Log2,
            RecoveryMethod::Sql2,
        ]
    }

    /// All implemented methods.
    pub fn all() -> [RecoveryMethod; 9] {
        [
            RecoveryMethod::Log0,
            RecoveryMethod::Log1,
            RecoveryMethod::Log2,
            RecoveryMethod::Sql1,
            RecoveryMethod::Sql2,
            RecoveryMethod::AriesCkpt,
            RecoveryMethod::LogPerfect,
            RecoveryMethod::LogReduced,
            RecoveryMethod::Log2DptPrefetch,
        ]
    }

    /// Does redo locate pages by key (logical) rather than by logged PID?
    pub fn is_logical(self) -> bool {
        matches!(
            self,
            RecoveryMethod::Log0
                | RecoveryMethod::Log1
                | RecoveryMethod::Log2
                | RecoveryMethod::LogPerfect
                | RecoveryMethod::LogReduced
                | RecoveryMethod::Log2DptPrefetch
        )
    }

    pub fn name(self) -> &'static str {
        match self {
            RecoveryMethod::Log0 => "Log0",
            RecoveryMethod::Log1 => "Log1",
            RecoveryMethod::Log2 => "Log2",
            RecoveryMethod::Sql1 => "SQL1",
            RecoveryMethod::Sql2 => "SQL2",
            RecoveryMethod::AriesCkpt => "ARIES-ckpt",
            RecoveryMethod::LogPerfect => "Log-perfect",
            RecoveryMethod::LogReduced => "Log-reduced",
            RecoveryMethod::Log2DptPrefetch => "Log2-dptpf",
        }
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
    /// Index pages loaded by preload (Log2 only).
    pub index_pages_loaded: u64,
    pub smo_pages_applied: u64,
    pub smo_pages_skipped: u64,
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

/// The method's redo screen + prefetch configuration, built once per
/// recovery and consumed by whichever executor (serial pass or
/// partitioned dispatcher) runs it.
fn redo_family<'a>(
    method: RecoveryMethod,
    dpt: Option<&'a Dpt>,
    last_delta_tc_lsn: Lsn,
    pf_list: &mut Vec<lr_common::PageId>,
) -> RedoFamily<'a> {
    let ctx = |dpt: Option<&'a Dpt>| LogicalCtx {
        dpt: dpt.expect("DPT-assisted methods build a DPT"),
        last_delta_tc_lsn,
    };
    match method {
        RecoveryMethod::Sql1 | RecoveryMethod::AriesCkpt => RedoFamily::Physiological {
            dpt: dpt.expect("physiological methods build a DPT"),
            prefetch: None,
        },
        RecoveryMethod::Sql2 => RedoFamily::Physiological {
            dpt: dpt.expect("SQL2 builds a DPT"),
            prefetch: Some(LogDrivenPrefetcher::new(LOG_DRIVEN_LOOKAHEAD_RECORDS)),
        },
        RecoveryMethod::Log0 => RedoFamily::Logical { ctx: None, prefetch: LogicalPrefetch::None },
        RecoveryMethod::Log1 | RecoveryMethod::LogPerfect | RecoveryMethod::LogReduced => {
            RedoFamily::Logical { ctx: Some(ctx(dpt)), prefetch: LogicalPrefetch::None }
        }
        RecoveryMethod::Log2 => RedoFamily::Logical {
            ctx: Some(ctx(dpt)),
            prefetch: LogicalPrefetch::PfList(PfListPrefetcher::new(
                std::mem::take(pf_list),
                PF_LIST_AHEAD_PAGES,
            )),
        },
        RecoveryMethod::Log2DptPrefetch => RedoFamily::Logical {
            ctx: Some(ctx(dpt)),
            prefetch: LogicalPrefetch::DptDriven(DptDrivenPrefetcher::new(
                dpt.expect("DPT built above"),
                PF_LIST_AHEAD_PAGES,
            )),
        },
    }
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
    /// redo pass runs as a DPT-partitioned dispatcher + worker pipeline
    /// and undo parallelizes per loser transaction (see
    /// [`crate::precovery`]) — producing state identical to the serial
    /// pipeline, with per-worker timing shards in the report.
    pub fn recover_with(
        &self,
        method: RecoveryMethod,
        opts: RecoveryOptions,
    ) -> Result<RecoveryReport> {
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
        // ---- measurement window ----
        self.clock.reset();
        {
            let pool = self.dc.pool();
            pool.reset_stats();
            let mut disk = pool.disk_mut();
            disk.reset_device();
            disk.set_timed(true);
        }
        let mut bk = RecoveryBreakdown::default();
        let model = self.dc.pool().disk().io_model();

        // ---- restart: the end of the log and the redo window ----
        // One pass from the checkpoint anchor: every frame's length and
        // CRC checked and decoded once, the log cut at the first torn one
        // (crash mid-write), and the window, its RSSP note and the
        // checkpoint's active transactions handed back. What it costs is a
        // function of the window, not of the log.
        let (scan, log_pages) = {
            let mut wal = self.wal.lock();
            let scan = wal.restart()?;
            let log_pages = wal.log_pages_between(scan.scan_start, wal.end_lsn());
            (scan, log_pages)
        };
        let lr_wal::RestartScan {
            rssp_lsn,
            window,
            ckpt_active,
            scanned_bytes,
            scanned_records,
            ..
        } = scan;
        bk.restart_scan_bytes = scanned_bytes;
        bk.restart_scan_records = scanned_records;
        self.restart_scan_bytes.fetch_add(scanned_bytes, Ordering::Relaxed);
        let window_data_ops = window.iter().filter(|r| r.payload.is_data_op()).count() as u64;
        bk.log_pages_read += log_pages;

        // ---- phase 1: analysis / DC recovery ----
        //
        // One sequential scan of the window (log-page I/O + per-record CPU),
        // then the method-specific DPT construction; logical methods also
        // run SMO redo here (§4.2: DC recovery precedes TC redo).
        let t0 = self.clock.now_us();
        self.trace
            .emit(EventKind::RecoveryPhaseStart { phase: RecoveryPhase::Analysis, worker: 0 });
        for _ in 0..log_pages {
            self.dc.pool().disk_mut().charge_log_page_read();
        }
        self.dc.pool().disk_mut().charge_cpu(model.cpu_log_record_us * window.len() as u64);

        let mut dpt: Option<Dpt> = None;
        let mut last_delta_tc_lsn = Lsn::NULL;
        let mut pf_list: Vec<lr_common::PageId> = Vec::new();
        let mut smo_pages_applied = 0;
        let mut smo_pages_skipped = 0;
        let mut smo_us = 0;

        match method {
            RecoveryMethod::Sql1 | RecoveryMethod::Sql2 => {
                // Physiological: the catalog only matters for undo, but the
                // tree handles must exist before apply_at.
                self.dc.reload_catalog()?;
                let (d, counts) = build_dpt_sqlserver(&window);
                bk.bw_records_seen = counts.bw_records;
                bk.delta_records_seen = counts.delta_records;
                dpt = Some(d);
            }
            RecoveryMethod::AriesCkpt => {
                self.dc.reload_catalog()?;
                let seed = window
                    .iter()
                    .find_map(|r| match &r.payload {
                        LogPayload::AriesCheckpoint { dpt } => Some(dpt.clone()),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        Error::RecoveryInvariant(
                            "no ARIES checkpoint DPT on the log — run the workload with \
                             aries_ckpt_capture enabled"
                                .into(),
                        )
                    })?;
                let (d, counts) = build_dpt_aries(&seed, &window);
                bk.bw_records_seen = counts.bw_records;
                bk.delta_records_seen = counts.delta_records;
                dpt = Some(d);
            }
            RecoveryMethod::Log0 => {
                let s0 = self.clock.now_us();
                self.trace.emit(EventKind::RecoveryPhaseStart {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                });
                let (a, s) = self.dc.smo_redo(&window)?;
                smo_pages_applied = a;
                smo_pages_skipped = s;
                smo_us = self.clock.now_us() - s0;
                self.trace.emit(EventKind::RecoveryPhaseEnd {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                    busy_us: smo_us,
                });
            }
            RecoveryMethod::Log1
            | RecoveryMethod::Log2
            | RecoveryMethod::LogPerfect
            | RecoveryMethod::LogReduced
            | RecoveryMethod::Log2DptPrefetch => {
                let s0 = self.clock.now_us();
                self.trace.emit(EventKind::RecoveryPhaseStart {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                });
                let (a, s) = self.dc.smo_redo(&window)?;
                smo_pages_applied = a;
                smo_pages_skipped = s;
                smo_us = self.clock.now_us() - s0;
                self.trace.emit(EventKind::RecoveryPhaseEnd {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                    busy_us: smo_us,
                });
                let mode = match method {
                    RecoveryMethod::LogPerfect => DeltaDptMode::Perfect,
                    RecoveryMethod::LogReduced => DeltaDptMode::Reduced,
                    _ => DeltaDptMode::Standard,
                };
                let analysis = build_dpt_logical(&window, rssp_lsn, mode);
                bk.delta_records_seen = analysis.counts.delta_records;
                bk.bw_records_seen = analysis.counts.bw_records;
                last_delta_tc_lsn = analysis.last_delta_tc_lsn;
                pf_list = analysis.pf_list;
                dpt = Some(analysis.dpt);
            }
        }
        bk.smo_redo_us = smo_us;
        bk.analysis_us = (self.clock.now_us() - t0).saturating_sub(smo_us);
        bk.dpt_size = dpt.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.trace.emit(EventKind::RecoveryPhaseEnd {
            phase: RecoveryPhase::Analysis,
            worker: 0,
            busy_us: bk.analysis_us,
        });

        // ---- phase 1.5: index preload (Log2, Appendix A.1) ----
        let mut index_pages_loaded = 0;
        if matches!(method, RecoveryMethod::Log2 | RecoveryMethod::Log2DptPrefetch) {
            let t = self.clock.now_us();
            self.trace.emit(EventKind::RecoveryPhaseStart {
                phase: RecoveryPhase::IndexPreload,
                worker: 0,
            });
            let pl = self.dc.preload_index()?;
            index_pages_loaded = pl.pages_loaded;
            bk.prefetch_ios += pl.prefetch_ios;
            bk.prefetch_pages += pl.prefetch_pages;
            bk.index_preload_us = self.clock.now_us() - t;
            self.trace.emit(EventKind::RecoveryPhaseEnd {
                phase: RecoveryPhase::IndexPreload,
                worker: 0,
                busy_us: bk.index_preload_us,
            });
        }

        // ---- phase 2: redo ----
        let t_redo = self.clock.now_us();
        let ps_before = self.dc.pool().stats();
        // The redo pass re-reads the window sequentially.
        for _ in 0..log_pages {
            self.dc.pool().disk_mut().charge_log_page_read();
        }
        bk.log_pages_read += log_pages;

        // One screen/prefetch configuration serves both executors, so the
        // serial and partitioned pipelines can never drift apart per
        // method.
        let family = redo_family(method, dpt.as_ref(), last_delta_tc_lsn, &mut pf_list);
        if workers <= 1 {
            self.trace
                .emit(EventKind::RecoveryPhaseStart { phase: RecoveryPhase::Redo, worker: 0 });
            match family {
                RedoFamily::Physiological { dpt, prefetch } => {
                    physiological_redo(self.dc.as_ref(), &window, dpt, prefetch, &mut bk)?;
                }
                RedoFamily::Logical { ctx, prefetch } => {
                    logical_redo(self.dc.as_ref(), &window, ctx.as_ref(), prefetch, &mut bk)?;
                }
            }
            bk.redo_us = self.clock.now_us() - t_redo;
            self.trace.emit(EventKind::RecoveryPhaseEnd {
                phase: RecoveryPhase::Redo,
                worker: 0,
                busy_us: bk.redo_us,
            });
        } else {
            // ---- partitioned redo (see crate::precovery) ----
            //
            // Physiological methods replay SMOs inline during serial redo;
            // the partitioned stream cannot, so they run as a serialized,
            // DPT-screened barrier phase first (logical methods already
            // replayed SMOs during DC recovery above). The barrier's work
            // lands in the same counters the serial inline replay uses
            // (`ops_reapplied` and the skip counters), keeping serial and
            // parallel reports field-compatible.
            if !method.is_logical() {
                let t_smo = self.clock.now_us();
                self.trace.emit(EventKind::RecoveryPhaseStart {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                });
                let out = smo_barrier_physiological(
                    self.dc.as_ref(),
                    &window,
                    dpt.as_ref().expect("physiological methods build a DPT"),
                )?;
                bk.ops_reapplied += out.pages_applied;
                bk.skipped_no_dpt_entry += out.skipped_no_dpt_entry;
                bk.skipped_rlsn += out.skipped_rlsn;
                bk.skipped_plsn += out.skipped_plsn;
                bk.smo_redo_us += self.clock.now_us() - t_smo;
                self.trace.emit(EventKind::RecoveryPhaseEnd {
                    phase: RecoveryPhase::SmoRedo,
                    worker: 0,
                    busy_us: self.clock.now_us() - t_smo,
                });
            }
            parallel_redo(self.dc.as_ref(), &window, family, workers, &self.trace, &mut bk)?;
            // The dispatcher's log re-scan rides the sequential-read model,
            // like the serial pass's window re-read.
            bk.partition_us += log_pages * model.log_page_read_us;
        }
        let ps_after = self.dc.pool().stats();
        bk.data_pages_fetched = ps_after.data_page_misses - ps_before.data_page_misses;
        bk.index_pages_fetched = ps_after.index_page_misses - ps_before.index_page_misses;
        bk.data_stall_events = ps_after.data_stall_events - ps_before.data_stall_events;
        bk.data_stall_us = ps_after.data_stall_us - ps_before.data_stall_us;
        bk.index_stall_events = ps_after.index_stall_events - ps_before.index_stall_events;
        bk.index_stall_us = ps_after.index_stall_us - ps_before.index_stall_us;

        // ---- phase 2.5: volatile-structure rebuild ----
        //
        // Redo is exact at the page level (pLSN-guarded, and for the
        // parallel pipeline partition-exclusive), but a backend keeping
        // volatile per-key state cannot maintain it soundly during redo:
        // pLSN-skipped records never run their index maintenance, and
        // partitioned workers apply a moved key's delete and re-insert in
        // no defined relative order. The backend restores that state from
        // the now-final pages here, before undo re-locates by key; the
        // cost is reported as its own phase (a no-op for the B-tree).
        let t_rebuild = self.clock.now_us();
        self.trace
            .emit(EventKind::RecoveryPhaseStart { phase: RecoveryPhase::IndexRebuild, worker: 0 });
        self.dc.finish_redo()?;
        bk.index_rebuild_us = self.clock.now_us() - t_rebuild;
        self.trace.emit(EventKind::RecoveryPhaseEnd {
            phase: RecoveryPhase::IndexRebuild,
            worker: 0,
            busy_us: bk.index_rebuild_us,
        });

        // ---- phase 3: transactional undo (common to all methods) ----
        let t_undo = self.clock.now_us();
        self.trace.emit(EventKind::RecoveryPhaseStart { phase: RecoveryPhase::Undo, worker: 0 });
        let txn_analysis = analyze_txns(&window, &ckpt_active);
        let undo = if workers <= 1 {
            undo_losers(&self.tc, self.dc.as_ref(), &txn_analysis.losers)?
        } else {
            // Per-loser units on a shared queue; chains are independent
            // (runtime key locks were exclusive) and CLRs ride the shared
            // log's normal append path.
            undo_losers_parallel(&self.tc, self.dc.as_ref(), &txn_analysis.losers, workers)?
        };
        // Undo's random-access log reads (device/IoStats view; the
        // per-worker shards already charged them to their own clocks).
        for _ in 0..undo.log_records_visited {
            self.dc.pool().disk_mut().charge_log_page_read();
        }
        // Serial undo reports the shared-clock delta (the measured §5
        // pipeline); parallel undo reports the busiest worker's shard —
        // max-of-workers wall-clock, exactly like redo — instead of the
        // shared clock, which parallel workers inflate to a sum-of-workers
        // upper bound.
        bk.undo_worker_busy_max_us = undo.busy_max_us;
        bk.undo_worker_busy_total_us = undo.busy_us;
        bk.undo_us = if workers <= 1 { self.clock.now_us() - t_undo } else { undo.busy_max_us };
        bk.losers_undone = undo.losers_undone;
        bk.undo_ops = undo.ops_undone;
        bk.workers = workers as u64;
        self.trace.emit(EventKind::RecoveryPhaseEnd {
            phase: RecoveryPhase::Undo,
            worker: 0,
            busy_us: bk.undo_us,
        });

        // ---- finish: back to normal execution ----
        let pool = self.dc.pool().stats();
        let io = self.dc.pool().disk().stats();
        self.dc.pool().disk_mut().set_timed(false);
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
            window_data_ops,
            log_pages_in_window: log_pages,
            index_pages_loaded,
            smo_pages_applied,
            smo_pages_skipped,
            undo,
            pool,
            io,
        })
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
