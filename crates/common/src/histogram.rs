//! Power-of-two latency histogram.
//!
//! Recovery stalls are bimodal (cache-speed vs device-speed) and the
//! paper's prefetching discussion is really about moving mass between the
//! modes ("prefetching reduces stalls ... by two orders of magnitude",
//! §5.3). A log₂ histogram captures that shape without recording every
//! sample.
//!
//! What the type is: exact `count` / `sum` / `max` plus the log₂ bucket
//! shape, for export through the metrics registry and the DC wire. It is
//! *not* a percentile source — a bucket ceiling (1023, 2047, …) is not a
//! measurement. Percentiles come from `lrbench`'s sorted samples.

/// Histogram over `u64` values with power-of-two buckets:
/// bucket *i* holds values in `[2^i, 2^(i+1))` (bucket 0 holds 0 and 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Record `n` occurrences of `value` at once — the snapshot path for
    /// atomic per-bucket counters (e.g. the DC's OLC restart tallies),
    /// which would otherwise loop `record` per count.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = (64 - value.max(1).leading_zeros() as usize).saturating_sub(1);
        self.buckets[idx] += n;
        self.count += n;
        self.sum += value.saturating_mul(n);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Difference `self - earlier`, for windowed measurement. Buckets,
    /// `count` and `sum` only grow under recording, so per-bucket
    /// subtraction is exact; the windowed `max` is not recoverable from
    /// two snapshots, so the delta keeps the lifetime maximum.
    pub fn delta_since(&self, earlier: &Histogram) -> Histogram {
        let mut h = Histogram::new();
        for (i, b) in h.buckets.iter_mut().enumerate() {
            *b = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        h.count = self.count.saturating_sub(earlier.count);
        h.sum = self.sum.saturating_sub(earlier.sum);
        h.max = self.max;
        h
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, count)`.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (if i == 0 { 0 } else { 1u64 << i }, *c))
            .collect()
    }

    /// Wire encoding: sparse `(bucket-index, count)` pairs plus the exact
    /// `count`/`sum`/`max` moments, so decode reproduces a histogram that
    /// compares `Eq` to the original (stats snapshots cross the TC↔DC
    /// message boundary).
    pub fn encode_into(&self, e: &mut crate::codec::Encoder) {
        let nonzero: Vec<(u8, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u8, *c))
            .collect();
        e.put_u8(nonzero.len() as u8);
        for (i, c) in nonzero {
            e.put_u8(i);
            e.put_u64(c);
        }
        e.put_u64(self.count);
        e.put_u64(self.sum);
        e.put_u64(self.max);
    }

    /// Inverse of [`Histogram::encode_into`].
    pub fn decode_from(
        d: &mut crate::codec::Decoder<'_>,
    ) -> Result<Histogram, crate::codec::CodecError> {
        let mut h = Histogram::new();
        let n = d.get_u8()?;
        for _ in 0..n {
            let idx = d.get_u8()?;
            if idx >= 64 {
                return Err(crate::codec::CodecError::BadTag {
                    context: "histogram bucket index",
                    tag: idx,
                });
            }
            h.buckets[idx as usize] = d.get_u64()?;
        }
        h.count = d.get_u64()?;
        h.sum = d.get_u64()?;
        h.max = d.get_u64()?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_means() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 8_000, 8_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 16_010);
        assert_eq!(h.max(), 8_000);
        assert!((h.mean() - 16_010.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn buckets_are_log2() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let nz = h.nonzero_buckets();
        assert_eq!(nz, vec![(0, 2), (2, 2), (1024, 1)]);
    }

    #[test]
    fn record_n_matches_looped_record() {
        let mut looped = Histogram::new();
        for _ in 0..37 {
            looped.record(12);
        }
        looped.record(0);
        let mut batched = Histogram::new();
        batched.record_n(12, 37);
        batched.record_n(0, 1);
        batched.record_n(999, 0); // no-op
        assert_eq!(looped, batched);
    }

    #[test]
    fn wire_roundtrip_is_exact() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 3, 3, 900, 1 << 40] {
            h.record(v);
        }
        let mut e = crate::codec::Encoder::new();
        h.encode_into(&mut e);
        let bytes = e.finish();
        let mut d = crate::codec::Decoder::new(&bytes);
        let back = Histogram::decode_from(&mut d).unwrap();
        d.expect_done().unwrap();
        assert_eq!(h, back);

        // Empty histogram too.
        let mut e = crate::codec::Encoder::new();
        Histogram::new().encode_into(&mut e);
        let bytes = e.finish();
        let back = Histogram::decode_from(&mut crate::codec::Decoder::new(&bytes)).unwrap();
        assert_eq!(back, Histogram::new());
    }

    #[test]
    fn delta_since_subtracts_buckets_and_moments() {
        let mut earlier = Histogram::new();
        earlier.record(4);
        earlier.record(100);
        let mut later = earlier.clone();
        later.record(4);
        later.record(9_000);
        let d = later.delta_since(&earlier);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 9_004);
        assert_eq!(d.nonzero_buckets(), vec![(4, 1), (8192, 1)]);
        assert_eq!(d.max(), 9_000, "delta keeps the lifetime max");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
    }
}
