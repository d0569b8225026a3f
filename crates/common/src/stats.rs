//! Counters collected during normal execution and recovery.
//!
//! The paper reports redo time, DPT size, Δ/BW record counts, stall
//! behaviour and page-fetch counts (§5.3, Appendix B, Appendix C). These
//! structs are the measurement channel: the substrates fill them in, the
//! figure harnesses in `lr-bench` print them.

/// Define a stats struct whose `delta_since`, `merge_from` and field
/// enumeration are generated from the field list itself, so a newly
/// added counter can never be silently omitted from deltas or exports.
///
/// Fields are declared in two groups: `counters { .. }` (plain `u64`
/// tallies — subtracted by `delta_since`, added by `merge_from`) and an
/// optional `histograms { .. }` group of [`Histogram`] fields (windowed
/// via [`Histogram::delta_since`], combined via [`Histogram::merge`]).
///
/// Generated API, identical for every invocation:
/// - `COUNTER_NAMES: &[&str]` / `HISTOGRAM_NAMES: &[&str]`
/// - `fn delta_since(&self, earlier: &Self) -> Self`
/// - `fn merge_from(&mut self, other: &Self)`
/// - `fn counters(&self) -> Vec<(&'static str, u64)>`
/// - `fn histograms(&self) -> Vec<(&'static str, &Histogram)>`
#[macro_export]
macro_rules! counter_struct {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident {
            counters {
                $( $(#[$cmeta:meta])* pub $cf:ident: u64, )*
            }
            $( histograms {
                $( $(#[$hmeta:meta])* pub $hf:ident: Histogram, )*
            } )?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$cmeta])* pub $cf: u64, )*
            $( $( $(#[$hmeta])* pub $hf: $crate::Histogram, )* )?
        }

        impl $name {
            /// Every `u64` counter field name, in declaration order.
            pub const COUNTER_NAMES: &'static [&'static str] = &[ $( stringify!($cf), )* ];

            /// Every histogram field name, in declaration order.
            pub const HISTOGRAM_NAMES: &'static [&'static str] =
                &[ $( $( stringify!($hf), )* )? ];

            /// Difference `self - earlier`, for windowed measurement.
            pub fn delta_since(&self, earlier: &$name) -> $name {
                $name {
                    $( $cf: self.$cf.wrapping_sub(earlier.$cf), )*
                    $( $( $hf: self.$hf.delta_since(&earlier.$hf), )* )?
                }
            }

            /// Accumulate `other` into `self` (counters add, histograms
            /// merge).
            pub fn merge_from(&mut self, other: &$name) {
                $( self.$cf = self.$cf.wrapping_add(other.$cf); )*
                $( $( self.$hf.merge(&other.$hf); )* )?
            }

            /// Every counter as `(name, value)`, in declaration order.
            /// Exporters enumerate stats structs through this, so they
            /// cannot drift from the struct definition.
            pub fn counters(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![ $( (stringify!($cf), self.$cf), )* ]
            }

            /// Every histogram as `(name, &Histogram)`, in declaration
            /// order.
            pub fn histograms(&self) -> ::std::vec::Vec<(&'static str, &$crate::Histogram)> {
                #[allow(unused_mut)]
                let mut v: ::std::vec::Vec<(&'static str, &$crate::Histogram)> =
                    ::std::vec::Vec::new();
                $( $( v.push((stringify!($hf), &self.$hf)); )* )?
                v
            }
        }
    };
}

crate::counter_struct! {
    /// Device-level I/O counters, owned by the disk implementation.
    pub struct IoStats {
        counters {
            /// Synchronous page reads (each stalls the caller).
            pub sync_page_reads: u64,
            /// Asynchronous (prefetch) device operations issued.
            pub async_ios: u64,
            /// Pages covered by asynchronous operations.
            pub async_pages: u64,
            /// Sequential log-page reads.
            pub log_page_reads: u64,
            /// Page writes (flushes).
            pub page_writes: u64,
            /// Number of times a caller stalled waiting for a page.
            pub stall_events: u64,
            /// Total stall time in simulated microseconds.
            pub stall_us: u64,
        }
    }
}

impl IoStats {
    /// Total pages read from the device by any mechanism.
    pub fn pages_read(&self) -> u64 {
        self.sync_page_reads + self.async_pages
    }
}

/// Per-phase timing and work counters for one recovery run.
///
/// `*_us` fields are simulated microseconds from the [`crate::SimClock`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryBreakdown {
    /// Analysis pass (DPT construction; "DC redo" pass for logical methods).
    pub analysis_us: u64,
    /// Structure-modification (SMO) redo: logical methods always; for
    /// physiological methods it is populated by the parallel pipeline's
    /// serialized SMO barrier phase (serial physiological redo keeps SMO
    /// replay inline inside `redo_us`).
    pub smo_redo_us: u64,
    /// Index-page preload (Log2 only).
    pub index_preload_us: u64,
    /// The redo pass proper. For parallel recovery this is the wall-clock
    /// of the slowest redo worker (max-of-workers), not the sum.
    pub redo_us: u64,
    /// Post-redo volatile-structure rebuild, the last phase of
    /// `DcApi::redo`: zero for the B-tree backend, the in-memory key-index
    /// rebuild for the hash and log backends.
    pub index_rebuild_us: u64,
    /// Partition/dispatch phase of parallel redo: the dispatcher's one log
    /// scan — per-record CPU, DPT screening, and (for logical methods) the
    /// index traversals that resolve each record's PID. Zero for serial
    /// recovery.
    pub partition_us: u64,
    /// Merging per-worker breakdown shards into the final report: a
    /// deterministic simulated per-shard CPU charge (parallel recovery
    /// only; zero for serial).
    pub merge_us: u64,
    /// The transactional undo pass. Serial recovery reports the shared-
    /// clock delta; parallel recovery reports the busiest undo worker's
    /// busy time (max-of-workers wall-clock, like `redo_us`) from the
    /// per-loser-worker shards below.
    pub undo_us: u64,

    /// Redo/undo worker count this recovery ran with (1 = serial pipeline).
    pub workers: u64,
    /// Busiest redo worker's simulated µs (equals `redo_us` when parallel).
    pub worker_busy_max_us: u64,
    /// Sum of all redo workers' simulated µs — the device-charge view of
    /// the same work (`max` is wall-clock, `sum` is total busy time).
    pub worker_busy_total_us: u64,
    /// Busiest undo worker's simulated µs (per-loser-worker busy shards:
    /// traversal CPU, own device stalls, random log reads). Equals
    /// `undo_us` when parallel.
    pub undo_worker_busy_max_us: u64,
    /// Sum of all undo workers' simulated µs — the device-charge view of
    /// the undo pass.
    pub undo_worker_busy_total_us: u64,
    /// Real (not simulated) µs spent blocked on the bounded partition
    /// queues: workers waiting for records plus the dispatcher waiting for
    /// queue space. A backpressure / skew diagnostic, deliberately kept out
    /// of the simulated totals.
    pub queue_stall_us: u64,

    /// Data pages fetched into the cache during redo.
    pub data_pages_fetched: u64,
    /// Index pages fetched (logical methods traverse the B-tree).
    pub index_pages_fetched: u64,
    /// Log pages read across all passes.
    pub log_pages_read: u64,
    /// Log bytes the restart pass actually length- and CRC-validated to
    /// find the usable end of the log and materialize the window: a real
    /// count, seed-exact, and bounded by the window's span when the
    /// checkpoint anchor is current (the `log_pages_read` charges above
    /// are the modeled device cost of the same window).
    pub restart_scan_bytes: u64,
    /// Frames that pass validated and decoded.
    pub restart_scan_records: u64,
    /// Redo log records examined.
    pub redo_records_seen: u64,
    /// Records skipped because the page had no DPT entry.
    pub skipped_no_dpt_entry: u64,
    /// Records skipped by the rLSN test (before any page fetch).
    pub skipped_rlsn: u64,
    /// Records skipped by the pLSN test (after the page was fetched).
    pub skipped_plsn: u64,
    /// Operations actually re-applied.
    pub ops_reapplied: u64,
    /// Records handled by the basic fallback (tail of the log), Log1/Log2.
    pub tail_records: u64,
    /// DPT entry count when redo started.
    pub dpt_size: u64,
    /// Δ-log records consumed by the analysis pass.
    pub delta_records_seen: u64,
    /// BW-log records consumed by the analysis pass.
    pub bw_records_seen: u64,
    /// Stalls waiting for data pages during redo.
    pub data_stall_events: u64,
    /// Simulated µs stalled on data pages during redo.
    pub data_stall_us: u64,
    /// Stalls waiting for index pages during redo.
    pub index_stall_events: u64,
    /// Simulated µs stalled on index pages during redo.
    pub index_stall_us: u64,
    /// SMO page images SMO redo installed (logical methods).
    pub smo_pages_applied: u64,
    /// SMO page images SMO redo found already installed (pLSN test).
    pub smo_pages_skipped: u64,
    /// Index pages index preload left resident (Log2-family methods).
    pub index_pages_loaded: u64,
    /// Prefetch device operations issued.
    pub prefetch_ios: u64,
    /// Pages covered by prefetch operations.
    pub prefetch_pages: u64,
    /// Loser transactions rolled back by undo.
    pub losers_undone: u64,
    /// Undo operations executed (CLRs written).
    pub undo_ops: u64,
}

impl RecoveryBreakdown {
    /// Total recovery time (all passes) in simulated microseconds. The
    /// parallel pipeline's extra phases (partition/dispatch and shard
    /// merge) are part of the total: the dispatcher's scan and the merge
    /// both happen on the recovery critical path.
    pub fn total_us(&self) -> u64 {
        self.analysis_us
            + self.smo_redo_us
            + self.index_preload_us
            + self.partition_us
            + self.redo_us
            + self.index_rebuild_us
            + self.merge_us
            + self.undo_us
    }

    /// How unevenly redo work spread across workers: busiest worker's time
    /// over the perfectly-balanced share (1.0 = no skew; 0.0 when unknown,
    /// i.e. serial recovery or an all-idle redo pass).
    pub fn partition_skew(&self) -> f64 {
        if self.workers <= 1 || self.worker_busy_total_us == 0 {
            return 0.0;
        }
        let mean = self.worker_busy_total_us as f64 / self.workers as f64;
        self.worker_busy_max_us as f64 / mean
    }

    /// Redo time in simulated milliseconds — the paper's headline metric
    /// (Figures 2(a) and 3 report "redo time (msecs)").
    pub fn redo_ms(&self) -> f64 {
        self.redo_us as f64 / 1_000.0
    }

    /// Total recovery time in simulated milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_us() as f64 / 1_000.0
    }

    /// Pages fetched during redo (data + index), the Appendix-B cost driver.
    pub fn pages_fetched(&self) -> u64 {
        self.data_pages_fetched + self.index_pages_fetched
    }

    /// The redo shard: the fields the data component's recovery pass
    /// (`DcApi::redo`) fills, in a fixed order — the order they cross a
    /// message boundary in.
    pub fn redo_shard_mut(&mut self) -> [&mut u64; 28] {
        [
            &mut self.analysis_us,
            &mut self.smo_redo_us,
            &mut self.index_preload_us,
            &mut self.redo_us,
            &mut self.index_rebuild_us,
            &mut self.partition_us,
            &mut self.merge_us,
            &mut self.worker_busy_max_us,
            &mut self.worker_busy_total_us,
            &mut self.queue_stall_us,
            &mut self.data_pages_fetched,
            &mut self.index_pages_fetched,
            &mut self.log_pages_read,
            &mut self.redo_records_seen,
            &mut self.skipped_no_dpt_entry,
            &mut self.skipped_rlsn,
            &mut self.skipped_plsn,
            &mut self.ops_reapplied,
            &mut self.tail_records,
            &mut self.data_stall_events,
            &mut self.data_stall_us,
            &mut self.index_stall_events,
            &mut self.index_stall_us,
            &mut self.smo_pages_applied,
            &mut self.smo_pages_skipped,
            &mut self.index_pages_loaded,
            &mut self.prefetch_ios,
            &mut self.prefetch_pages,
        ]
    }

    /// Fold the data component's shard into this report. Additive: the
    /// TC's own analysis pass has already filled `analysis_us` and
    /// `log_pages_read`, to which the DC's catalog reload and window
    /// re-read add.
    pub fn add_redo_shard(&mut self, mut shard: RecoveryBreakdown) {
        for (into, from) in self.redo_shard_mut().into_iter().zip(shard.redo_shard_mut()) {
            *into += *from;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iostats_delta() {
        let a = IoStats { sync_page_reads: 10, stall_us: 100, ..Default::default() };
        let b = IoStats { sync_page_reads: 25, stall_us: 400, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.sync_page_reads, 15);
        assert_eq!(d.stall_us, 300);
    }

    #[test]
    fn counter_struct_enumeration_matches_fields() {
        let s = IoStats { sync_page_reads: 3, stall_us: 7, ..Default::default() };
        assert_eq!(IoStats::COUNTER_NAMES.len(), 7);
        let counters = s.counters();
        assert_eq!(counters.len(), IoStats::COUNTER_NAMES.len());
        assert!(counters.contains(&("sync_page_reads", 3)));
        assert!(counters.contains(&("stall_us", 7)));
        assert!(s.histograms().is_empty());
    }

    #[test]
    fn counter_struct_merge_from_adds() {
        let mut a = IoStats { page_writes: 2, ..Default::default() };
        let b = IoStats { page_writes: 5, stall_events: 1, ..Default::default() };
        a.merge_from(&b);
        assert_eq!(a.page_writes, 7);
        assert_eq!(a.stall_events, 1);
    }

    #[test]
    fn pages_read_sums_sync_and_async() {
        let s = IoStats { sync_page_reads: 3, async_pages: 16, ..Default::default() };
        assert_eq!(s.pages_read(), 19);
    }

    #[test]
    fn breakdown_totals() {
        let b = RecoveryBreakdown {
            analysis_us: 1_000,
            smo_redo_us: 500,
            index_preload_us: 250,
            redo_us: 10_000,
            undo_us: 250,
            data_pages_fetched: 7,
            index_pages_fetched: 3,
            ..Default::default()
        };
        assert_eq!(b.total_us(), 12_000);
        assert!((b.redo_ms() - 10.0).abs() < f64::EPSILON);
        assert_eq!(b.pages_fetched(), 10);
    }

    #[test]
    fn totals_include_partition_and_merge_phases() {
        let b = RecoveryBreakdown {
            analysis_us: 1_000,
            smo_redo_us: 500,
            index_preload_us: 250,
            partition_us: 2_000,
            redo_us: 10_000,
            merge_us: 50,
            undo_us: 200,
            ..Default::default()
        };
        assert_eq!(b.total_us(), 14_000, "partition + merge are on the critical path");
        assert!((b.total_ms() - 14.0).abs() < f64::EPSILON);
        // redo_ms stays the redo pass alone (the paper's headline metric).
        assert!((b.redo_ms() - 10.0).abs() < f64::EPSILON);
    }

    #[test]
    fn redo_shard_adds_into_the_report() {
        let mut report =
            RecoveryBreakdown { undo_us: 9, dpt_size: 4, prefetch_pages: 3, ..Default::default() };
        let shard = RecoveryBreakdown { prefetch_pages: 5, ops_reapplied: 2, ..Default::default() };
        report.add_redo_shard(shard);
        assert_eq!((report.prefetch_pages, report.ops_reapplied), (8, 2));
        assert_eq!((report.undo_us, report.dpt_size), (9, 4), "not shard fields");
    }

    #[test]
    fn partition_skew_is_max_over_mean() {
        let b = RecoveryBreakdown {
            workers: 4,
            worker_busy_max_us: 4_000,
            worker_busy_total_us: 8_000,
            ..Default::default()
        };
        // mean = 2000, max = 4000 → skew 2.0.
        assert!((b.partition_skew() - 2.0).abs() < f64::EPSILON);
        let serial = RecoveryBreakdown { workers: 1, ..Default::default() };
        assert_eq!(serial.partition_skew(), 0.0, "serial runs report no skew");
        let idle = RecoveryBreakdown { workers: 4, ..Default::default() };
        assert_eq!(idle.partition_skew(), 0.0, "all-idle redo reports no skew");
    }
}
