//! Parallel recovery — the concurrent counterpart of the §5 pipeline.
//!
//! The serial pipeline in [`crate::recovery`] drives analysis → redo →
//! undo on one thread. This subsystem parallelizes the two passes that
//! dominate restart time:
//!
//! * **Redo** becomes a dispatcher + N workers. The dispatcher makes one
//!   pass over the scan window, runs the method's redo *screen* (DPT /
//!   rLSN tests; for logical methods also the B-tree traversal that
//!   resolves each record's PID), and routes surviving records into
//!   per-partition bounded queues keyed by `hash(PID)`. Workers drain
//!   their queue in FIFO — i.e. strictly ascending LSN — order, run the
//!   pLSN test, and apply. Because a page belongs to exactly one
//!   partition, per-page apply order equals log order, and pLSN
//!   idempotence makes cross-partition interleaving irrelevant to the
//!   final state: workers=N is byte-equivalent to workers=1 (the
//!   `recovery_equivalence` suite asserts it for every method).
//! * **SMO replay stays serialized** as a barrier phase *before* data
//!   redo ([`lr_dc::smo_barrier_physiological`] for the physiological
//!   family; logical methods already replay SMOs during DC recovery).
//!   Whole-page SMO installs on a partitioned stream would otherwise
//!   race data applies on the same page.
//! * **Undo** parallelizes per loser transaction
//!   ([`lr_tc::undo_losers_parallel`]): each loser's undo chain is
//!   independent, and CLRs append through the shared log's normal path.
//!
//! ## Simulated-time accounting
//!
//! The paper's measured pipeline charges one [`lr_common::SimClock`].
//! Parallel workers cannot share that timeline — it would serialize them
//! by construction — so each worker keeps a private busy-time
//! accumulator: its CPU charges (from the shared [`lr_common::IoModel`])
//! plus the stall of every device read it performed. The report then
//! takes **max-of-workers as the redo wall-clock** (`redo_us`) and
//! **sum-of-workers as the device-charge view**
//! (`worker_busy_total_us`), alongside the dispatcher's own scan time
//! (`partition_us`) and the shard-merge cost (`merge_us`), all folded
//! into `RecoveryBreakdown::total_us`. Queue backpressure is reported
//! separately (`queue_stall_us`, real microseconds) because waiting on a
//! bounded queue is harness scheduling, not simulated device time.
//!
//! Undo's accounting is deliberately more conservative: parallel undo
//! overlaps losers in real time, but its page fetches charge the shared
//! clock inside the apply paths it shares with online abort, so the
//! reported `undo_us` stays a shared-clock delta — effectively
//! sum-of-workers, an upper bound on the parallel undo wall-clock.
//! Per-worker undo time shards are a recorded follow-on (ROADMAP).

mod redo;

pub(crate) use redo::{parallel_redo, RedoFamily};

/// Knobs for one recovery run ([`crate::Engine::recover_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Redo/undo worker threads. 1 selects the serial §5 pipeline
    /// (exactly the code path `Engine::recover` always ran); ≥2 selects
    /// the partitioned pipeline above.
    pub workers: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions { workers: 1 }
    }
}

impl RecoveryOptions {
    /// Options with `workers` redo/undo threads (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> RecoveryOptions {
        RecoveryOptions { workers: workers.max(1) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_to_serial_and_clamp() {
        assert_eq!(RecoveryOptions::default().workers, 1);
        assert_eq!(RecoveryOptions::with_workers(0).workers, 1);
        assert_eq!(RecoveryOptions::with_workers(8).workers, 8);
    }
}
