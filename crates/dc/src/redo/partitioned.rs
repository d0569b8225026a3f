//! The partitioned redo sink: one dispatcher, N queue-fed workers.
//!
//! The dispatcher is the method's ordinary [`Screen`] loop; its sink
//! routes each survivor by the PID it will be applied to — logged PID for
//! physiological methods, traversal-resolved leaf PID for logical methods
//! — through `shard_index(pid, workers)`. Every page therefore has
//! exactly one owning worker, queues are FIFO, and per-page apply order
//! equals log order. The tree shape is frozen across data redo (SMO replay
//! is a completed barrier phase), so a logical record's resolved PID
//! cannot drift between dispatch and apply.
//!
//! Workers cannot share the one SimClock — it would serialize them by
//! construction — so each keeps a private busy total: its CPU charges
//! plus the stall of every device read it performed. `redo_us` is the
//! busiest worker (wall-clock), `worker_busy_total_us` the sum (the
//! device-charge view), `partition_us` the dispatcher's own scan and
//! `merge_us` the shard merge. Queue backpressure is reported apart
//! (`queue_stall_us`, real µs): waiting on a bounded queue is harness
//! scheduling, not simulated device time.

use super::{apply_one, trace_of, Meter, RedoBackend, RedoSink, Screen};
use lr_common::{Error, PageId, RecoveryBreakdown, Result};
use lr_obs::{EventKind, RecoveryPhase, TraceSink};
use lr_wal::LogRecord;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::time::Instant;

/// Bounded per-partition queue depth. Deep enough to ride out bursts onto
/// one hot partition, shallow enough that the dispatcher feels
/// backpressure (and reports it) instead of buffering the whole window.
const QUEUE_CAP: usize = 256;

/// One routed unit of redo work: the window index of the record and the
/// page it must be applied to.
struct RedoItem {
    idx: usize,
    pid: PageId,
}

/// The dispatcher's sink: route survivors to their partition's queue
/// (SMO records were replayed by the barrier phase).
struct Router {
    txs: Vec<SyncSender<RedoItem>>,
    /// Simulated busy µs: per-record CPU, logical traversals and their
    /// device stalls.
    meter: Meter,
}

impl RedoSink for Router {
    fn meter(&mut self) -> &mut Meter {
        &mut self.meter
    }

    /// The fast path is an untimed `try_send`; only a full queue falls back
    /// to a blocking send with the wait accounted — so `queue_stall_us`
    /// measures genuine backpressure, not per-record timestamping noise.
    fn redo(&mut self, idx: usize, pid: PageId, bk: &mut RecoveryBreakdown) -> Result<()> {
        let tx = &self.txs[lr_common::shard_index(pid.0, self.txs.len())];
        let dead =
            || Error::RecoveryInvariant("redo worker exited before the dispatch finished".into());
        match tx.try_send(RedoItem { idx, pid }) {
            Ok(()) => Ok(()),
            Err(TrySendError::Disconnected(_)) => Err(dead()),
            Err(TrySendError::Full(item)) => {
                let t0 = Instant::now();
                let sent = tx.send(item).map_err(|_| dead());
                bk.queue_stall_us += t0.elapsed().as_micros() as u64;
                sent
            }
        }
    }
}

/// Run partitioned redo over `window` with `workers` threads. On success
/// `bk` carries the merged per-worker shards: `redo_us` is the busiest
/// worker (wall-clock), `worker_busy_total_us` the sum, and
/// `partition_us` the dispatcher's own scan.
pub(super) fn run(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    screen: Screen<'_>,
    workers: usize,
    bk: &mut RecoveryBreakdown,
) -> Result<()> {
    debug_assert!(workers >= 2, "the inline sink handles workers <= 1");
    let model = dc.pool().disk().io_model();
    let trace = trace_of(dc.pool());
    let (txs, rxs): (Vec<_>, Vec<_>) =
        (0..workers).map(|_| std::sync::mpsc::sync_channel(QUEUE_CAP)).unzip();

    let mut router = Router { txs, meter: Meter::Busy(0) };
    let (dispatched, worker_results) = std::thread::scope(|s| {
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(w, rx)| {
                let (trace, cpu_apply_us) = (&trace, model.cpu_apply_us);
                s.spawn(move || worker_loop(dc, window, rx, cpu_apply_us, trace, w as u64))
            })
            .collect();
        let dispatched = screen.run(dc, window, &mut router, bk);
        // Closing the channels is what terminates the workers' recv loops.
        router.txs.clear();
        let results: Vec<Result<RecoveryBreakdown>> =
            handles.into_iter().map(|h| h.join().expect("redo worker panicked")).collect();
        (dispatched, results)
    });

    // A worker error is the root cause; the dispatcher's send failure (a
    // closed queue) is only its echo — surface the worker's error first.
    let shards = worker_results.into_iter().collect::<Result<Vec<_>>>()?;
    dispatched?;

    bk.partition_us += router.meter.busy_us();
    for sh in &shards {
        bk.ops_reapplied += sh.ops_reapplied;
        bk.skipped_plsn += sh.skipped_plsn;
        bk.queue_stall_us += sh.queue_stall_us;
        bk.worker_busy_total_us += sh.worker_busy_max_us;
        bk.worker_busy_max_us = bk.worker_busy_max_us.max(sh.worker_busy_max_us);
    }
    bk.redo_us = bk.worker_busy_max_us;
    // Merging one shard is record-examination-sized work; a simulated
    // per-shard CPU charge keeps total_us deterministic (real elapsed time
    // here would make the otherwise bit-identical totals jitter with host
    // load — real-time effects are reported via queue_stall_us only).
    bk.merge_us += model.cpu_log_record_us * workers as u64;
    Ok(())
}

/// One redo worker: drain the partition queue in FIFO (= LSN) order and
/// run [`apply_one`] on each item. Returns this worker's breakdown shard:
/// its counters, its real queue-idle µs, and its simulated busy µs (own
/// device stalls and apply CPU) as `worker_busy_max_us`, so the report can
/// take the max across workers as the parallel redo wall-clock.
fn worker_loop(
    dc: &dyn RedoBackend,
    window: &[LogRecord],
    rx: Receiver<RedoItem>,
    cpu_apply_us: u64,
    trace: &TraceSink,
    worker: u64,
) -> Result<RecoveryBreakdown> {
    let mut sh = RecoveryBreakdown::default();
    let mut meter = Meter::Busy(0);
    trace.emit(EventKind::RecoveryPhaseStart { phase: RecoveryPhase::Redo, worker });
    loop {
        // Untimed try_recv fast path; only an empty queue pays for the
        // timestamps, so queue_stall_us is idle time, not bookkeeping.
        let item = match rx.try_recv() {
            Ok(item) => item,
            Err(TryRecvError::Disconnected) => break,
            Err(TryRecvError::Empty) => {
                let t0 = Instant::now();
                let got = rx.recv();
                sh.queue_stall_us += t0.elapsed().as_micros() as u64;
                let Ok(item) = got else { break };
                item
            }
        };
        apply_one(dc, item.pid, &window[item.idx], cpu_apply_us, &mut meter, &mut sh)?;
    }
    sh.worker_busy_max_us = meter.busy_us();
    let busy_us = sh.worker_busy_max_us;
    trace.emit(EventKind::RecoveryPhaseEnd { phase: RecoveryPhase::Redo, worker, busy_us });
    Ok(sh)
}
