//! Parallel recovery — the `workers ≥ 2` side of the §5 pipeline.
//!
//! * **Redo** runs inside the data component ([`lr_dc::redo`]), inline
//!   or partitioned: the method's one screen loop is the dispatcher, its
//!   sink routes survivors into bounded per-partition queues keyed by
//!   `hash(PID)`, and each worker drains its queue in FIFO — strictly
//!   ascending LSN — order through the same fetch / pLSN test / apply
//!   kernel the inline sink runs. A page belongs to exactly one
//!   partition, so per-page apply order equals log order and pLSN
//!   idempotence makes cross-partition interleaving irrelevant:
//!   workers=N is byte-equivalent to workers=1 (`recovery_equivalence`
//!   asserts it for every method). SMO replay stays serialized, as a
//!   barrier before data redo for the physiological family (logical
//!   methods replayed SMOs during DC recovery).
//! * **Undo** runs the one per-loser driver ([`lr_tc::undo_losers`]) on
//!   that many threads: loser chains are independent, and CLRs append
//!   through the shared log's normal path.
//!
//! Serial recovery is not "partitioned with one worker": the §5 measured
//! path charges one SimClock in program order, and a dispatcher pumping
//! read-ahead while a worker fetches would interleave those charges
//! nondeterministically.
//!
//! ## Simulated-time accounting
//!
//! Parallel workers cannot share the one [`lr_common::SimClock`] — it
//! would serialize them by construction — so each keeps a private busy
//! total: its CPU charges (from the shared [`lr_common::IoModel`]) plus
//! the stall of every device read it performed. The report takes
//! **max-of-workers as wall-clock** (`redo_us`, and `undo_us` from
//! `undo_worker_busy_max_us`) and **sum-of-workers as the device-charge
//! view** (`worker_busy_total_us`, `undo_worker_busy_total_us`), beside
//! the dispatcher's own scan (`partition_us`) and the shard merge
//! (`merge_us`). Queue backpressure is reported apart (`queue_stall_us`,
//! real µs): waiting on a bounded queue is harness scheduling, not
//! simulated device time.
#![deny(clippy::too_many_lines)]

/// Knobs for one recovery run ([`crate::Engine::recover_with`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Redo/undo worker threads. 1 runs redo's screen loop into the inline
    /// sink — fetch, pLSN test and apply on the one thread serving the
    /// DC's redo call, charging the shared SimClock in program order (the
    /// §5 measured path) — and undo on the caller's thread. ≥2 feeds the
    /// DC's partitioned sink instead
    /// (a dispatcher routing to that many redo workers, see above) and
    /// undoes losers on that many threads.
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
