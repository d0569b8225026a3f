//! Exact latency recording and the few statistics the benchmark reports.
//!
//! Every latency is kept as a raw nanosecond sample and percentiles are
//! read off the sorted samples. `lr_common::Histogram` (log2 buckets,
//! p50 = 1023 / p99 = 2047) is deliberately not used anywhere in the
//! benchmark: a bucket ceiling cannot show a 5% change.

/// Raw nanosecond samples of one kind of event. `u32` holds 4.29 s; longer
/// events saturate (none of the timed operations comes near that).
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    samples: Vec<u32>,
}

impl Recorder {
    pub fn with_capacity(cap: usize) -> Recorder {
        Recorder { samples: Vec::with_capacity(cap) }
    }

    pub fn record_ns(&mut self, ns: u64) {
        self.samples.push(u32::try_from(ns).unwrap_or(u32::MAX));
    }

    pub fn merge(&mut self, other: &Recorder) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Sort once, then read any number of percentiles.
    pub fn sorted(mut self) -> Sorted {
        self.samples.sort_unstable();
        Sorted { samples: self.samples }
    }
}

/// Sorted samples of a [`Recorder`].
#[derive(Clone, Debug, Default)]
pub struct Sorted {
    samples: Vec<u32>,
}

impl Sorted {
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Nearest-rank percentile in nanoseconds, `q` in (0, 1]. 0 when there
    /// are no samples (a layer that did no work on this workload).
    pub fn percentile_ns(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        f64::from(self.samples[rank.clamp(1, self.samples.len()) - 1])
    }

    pub fn percentile_us(&self, q: f64) -> f64 {
        self.percentile_ns(q) / 1e3
    }

    /// Samples strictly beyond the `q` percentile's rank: a percentile is
    /// only worth reporting with at least ten of them.
    pub fn samples_beyond(&self, q: f64) -> usize {
        let rank = (q * self.samples.len() as f64).ceil() as usize;
        self.samples.len().saturating_sub(rank)
    }
}

/// Median of a list (mean of the middle two when even). 0 for an empty list.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest and the lowest of repeated measurements of one quantity.
/// Interference on a shared host only ever takes time away, so of several
/// windows on the same work the least disturbed one is the best estimate
/// of what the program does: the highest rate, the lowest latency.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Committed transactions per second as the median over equal time slices
/// of the measured window, so one stalled slice (a log-buffer regrowth, a
/// checkpoint burst) does not move the figure the way a mean would.
pub fn slice_median_rate(slice_counts: &[u64], slice_secs: f64) -> f64 {
    let rates: Vec<f64> = slice_counts.iter().map(|&c| c as f64 / slice_secs).collect();
    median(&rates)
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default, exclusive method) gives
/// them — the acceptance rule for this benchmark is written in those terms.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// acceptance rule compares with each metric's bound.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// One recorded span: a call the driver made into a layer's public API,
/// or the transaction that caused it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the span-name table of the trace module.
    pub name: u8,
    /// Index (in the same list) of the span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one transaction.
    pub txn: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(ns: &[u64]) -> Sorted {
        let mut r = Recorder::default();
        for &v in ns {
            r.record_ns(v);
        }
        r.sorted()
    }

    #[test]
    fn percentiles_are_exact_sample_values() {
        let s = recorder(&(1..=1000).rev().collect::<Vec<u64>>());
        assert_eq!(s.percentile_ns(0.5), 500.0);
        assert_eq!(s.percentile_ns(0.99), 990.0);
        assert_eq!(s.percentile_ns(1.0), 1000.0);
        assert_eq!(s.percentile_ns(0.0001), 1.0);
        assert_eq!(s.samples_beyond(0.99), 10);
        assert_eq!(s.percentile_us(0.5), 0.5);
    }

    #[test]
    fn a_five_percent_shift_is_visible() {
        // The log2 histogram this replaces reports 1023 for both.
        let before = recorder(&[600; 100]);
        let after = recorder(&[630; 100]);
        assert_eq!(before.percentile_ns(0.5), 600.0);
        assert_eq!(after.percentile_ns(0.5), 630.0);
    }

    #[test]
    fn empty_recorder_reads_zero_and_long_events_saturate() {
        assert_eq!(recorder(&[]).percentile_ns(0.99), 0.0);
        assert_eq!(recorder(&[u64::MAX]).percentile_ns(0.5), f64::from(u32::MAX));
    }

    #[test]
    fn merge_pools_samples() {
        let mut a = Recorder::default();
        a.record_ns(1);
        let mut b = Recorder::default();
        b.record_ns(3);
        b.record_ns(2);
        a.merge(&b);
        let s = a.sorted();
        assert_eq!((s.len(), s.percentile_ns(0.5)), (3, 2.0));
    }

    #[test]
    fn median_of_odd_and_even_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!((highest(&[3.0, 1.0, 2.0]), lowest(&[3.0, 1.0, 2.0])), (3.0, 1.0));
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        // Five steady 2-second slices and one that stalled.
        let rate = slice_median_rate(&[2000, 2000, 100, 2000, 2000, 2000], 2.0);
        assert_eq!(rate, 1000.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(iqr_share(&v), 1.0);
    }

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: 0, parent, txn: 1, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(None, 0, 100),     // txn
            span(Some(0), 10, 30),  // child
            span(Some(0), 25, 50),  // overlaps the first child
            span(Some(0), 90, 120), // runs past the parent: clipped
            span(Some(1), 12, 20),  // grandchild
        ];
        // Children cover [10,50) and [90,100): 50 of the parent's 100.
        assert_eq!(self_times(&spans), vec![50, 12, 25, 30, 8]);
    }
}
