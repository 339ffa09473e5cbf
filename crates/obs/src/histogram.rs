//! Log-bucketed latency histograms.
//!
//! A [`Histogram`] spreads `u64` samples (typically nanoseconds) over 65
//! power-of-two buckets: bucket 0 holds exactly the value `0`, and bucket
//! `i ≥ 1` holds `[2^(i-1), 2^i - 1]` — so the whole `u64` range is
//! covered, recording is one relaxed `fetch_add` plus min/max updates, and
//! a snapshot is a few hundred bytes however many samples were taken.
//! Quantiles come from bucket interpolation and are therefore upper
//! bounds accurate to a factor of two, which is plenty for "is p99 a
//! microsecond or a millisecond" serving questions.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: one for zero plus one per power of two of `u64`.
pub(crate) const NUM_BUCKETS: usize = 65;

/// The bucket a value lands in: 0 for the value `0`, otherwise
/// `floor(log2(value)) + 1`, so bucket `i ≥ 1` spans `[2^(i-1), 2^i - 1]`.
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `index` (the last bucket's is
/// `u64::MAX`).
///
/// # Panics
/// If `index >= NUM_BUCKETS`.
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A concurrent histogram of `u64` samples over log2 buckets.
///
/// All updates are relaxed atomics; `record` never allocates and never
/// locks, so it is safe on serving hot paths.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    /// Saturating sum of all samples (`u64::MAX` once saturated).
    sum: AtomicU64,
    /// `u64::MAX` while empty.
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        // Saturating sum: a wrap would silently corrupt the mean, and
        // u64::MAX outliers (clamped durations) must not poison it.
        let mut seen = self.sum.load(Ordering::Relaxed);
        loop {
            let next = seen.saturating_add(value);
            match self
                .sum
                .compare_exchange_weak(seen, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(now) => seen = now,
            }
        }
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// True when nothing was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// A point-in-time copy of the whole histogram.
    ///
    /// The snapshot is not atomic with respect to concurrent `record`
    /// calls (a racing sample may appear in the count but not yet in its
    /// bucket); for latency reporting that skew is irrelevant.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_upper_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], detached from the atomics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Occupied buckets as `(inclusive upper bound, samples)`, ascending.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound on the `q`-quantile (`q` in `[0, 1]`): the inclusive
    /// upper bound of the bucket holding the rank-`⌈q·count⌉` sample,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        // Every power of two opens a new bucket; its predecessor closes one.
        for k in 1..64 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_are_consistent_with_indexing() {
        for i in 0..NUM_BUCKETS {
            let upper = bucket_upper_bound(i);
            assert_eq!(bucket_index(upper), i, "upper bound of bucket {i}");
            if upper < u64::MAX {
                assert_eq!(bucket_index(upper + 1), i + 1);
            }
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_bucket_panics() {
        bucket_upper_bound(NUM_BUCKETS);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile(0.5), 0);
        assert!(snap.buckets.is_empty());
    }

    #[test]
    fn zero_sample_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.buckets, vec![(0, 1)]);
        assert_eq!(snap.quantile(1.0), 0);
    }

    #[test]
    fn u64_max_sample_is_representable_and_sum_saturates() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.min, u64::MAX);
        assert_eq!(snap.sum, u64::MAX, "sum must saturate, not wrap");
        assert_eq!(snap.buckets, vec![(u64::MAX, 2)]);
        assert_eq!(snap.quantile(0.5), u64::MAX);
    }

    #[test]
    fn boundary_values_split_between_buckets() {
        let h = Histogram::new();
        // 1023 is the last value of the [512, 1023] bucket; 1024 opens the
        // [1024, 2047] bucket.
        h.record(1023);
        h.record(1024);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![(1023, 1), (2047, 1)]);
    }

    #[test]
    fn quantiles_are_bucket_upper_bounds_clamped_to_max() {
        let h = Histogram::new();
        for v in [10u64, 20, 30, 40, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        // Ranks 1-4 live in the [8,15]/[16,31]/[32,63] buckets.
        assert_eq!(snap.quantile(0.0), 15); // rank clamps to 1
        assert_eq!(snap.quantile(0.2), 15);
        assert_eq!(snap.quantile(0.5), 31);
        assert_eq!(snap.quantile(0.8), 63);
        // The top sample's bucket is [512,1023] but max=1000 clamps it.
        assert_eq!(snap.quantile(1.0), 1000);
        assert!((snap.mean() - 220.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_records_are_all_counted() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 8000);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 8000);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 7999);
    }
}
