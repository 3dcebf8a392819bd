//! The three metric primitives: monotone counters, last-write gauges,
//! and log-bucketed histograms with mergeable snapshots.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter (relaxed atomics — observability
/// only, never synchronization).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins instantaneous value (queue depth, lag, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v`.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `n` — for gauges that *are* a live count (queue depth,
    /// sessions), so nothing is mirrored into them.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`; every call must pair with an earlier
    /// [`Gauge::add`] of at least `n`.
    #[inline]
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Values below this are their own exact bucket.
const EXACT: u64 = 16;
/// Linear sub-buckets per power-of-two octave above [`EXACT`].
const SUBS: usize = 8;
/// First octave covered by sub-buckets (`log2(EXACT)`).
const FIRST_OCTAVE: usize = 4;

/// Total bucket count: 16 exact + 8 sub-buckets for each of the 60
/// octaves `2^4 ..= 2^63`. Index 495's range ends exactly at
/// `u64::MAX`.
pub const NUM_BUCKETS: usize = EXACT as usize + (64 - FIRST_OCTAVE) * SUBS;

/// Worst-case relative error of a bucket-reported quantile: a bucket
/// spans `lo .. lo + lo/8`, and [`HistogramSnapshot::quantile`] reports
/// the bucket's upper bound, so the report exceeds the true rank value
/// by at most 1/8. Values below 16 are exact.
pub const MAX_QUANTILE_ERROR: f64 = 0.125;

/// Bucket index for a recorded value. Values `< 16` map to themselves;
/// above, each power-of-two octave splits into 8 linear sub-buckets, so
/// a bucket's width is 1/8 of its lower bound.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let o = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (o - 3)) & 7) as usize;
        EXACT as usize + (o - FIRST_OCTAVE) * SUBS + sub
    }
}

/// Inclusive `(low, high)` value range of bucket `i`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < NUM_BUCKETS, "bucket index {i} out of range");
    if (i as u64) < EXACT {
        return (i as u64, i as u64);
    }
    let k = i - EXACT as usize;
    let o = FIRST_OCTAVE + k / SUBS;
    let sub = (k % SUBS) as u64;
    let width = 1u64 << (o - 3);
    let lo = (1u64 << o) + sub * width;
    (lo, lo + (width - 1))
}

/// A lock-free log-bucketed histogram. Recording is a handful of
/// relaxed `fetch_add`s; snapshots are consistent enough for
/// observability (bucket-by-bucket relaxed loads) and merge with
/// saturating arithmetic.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (allocates its ~4 KiB bucket array once).
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value: four relaxed atomic RMWs, no locks, no
    /// allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Recorded value count.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time histogram copy: totals plus the sparse non-empty
/// `(bucket index, count)` pairs, ascending by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets as `(index, count)`, index ascending.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper bound of the
    /// bucket holding the rank-`⌈q·count⌉` value, so the report is an
    /// upper estimate within [`MAX_QUANTILE_ERROR`] relative error
    /// (exact below 16). Returns 0 on an empty snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_bounds(i as usize).1;
            }
        }
        // Tolerate a racy snapshot whose bucket sum trails `count`.
        self.max
    }

    /// Folds another snapshot in, saturating instead of wrapping on
    /// every addition (a wrapped counter reads as a time-travel bug;
    /// a saturated one reads as "a lot").
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, ca)), Some(&&(ib, cb))) => {
                    if ia < ib {
                        merged.push((ia, ca));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, cb));
                        b.next();
                    } else {
                        merged.push((ia, ca.saturating_add(cb)));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounds_are_consistent() {
        let mut prev = 0usize;
        let mut v = 0u64;
        loop {
            let i = bucket_index(v);
            assert!(i >= prev, "index must not decrease at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
            if v > u64::MAX / 2 {
                break;
            }
            v = v.saturating_mul(2).saturating_add(1);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
    }

    #[test]
    fn exact_below_sixteen() {
        for v in 0..16u64 {
            assert_eq!(bucket_bounds(bucket_index(v)), (v, v));
        }
    }

    #[test]
    fn bucket_width_is_one_eighth_of_its_octave() {
        for i in 16..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let octave = 1u64 << (63 - lo.leading_zeros());
            assert_eq!(hi - lo + 1, octave / 8, "bucket {i}");
        }
    }

    /// The reported quantile never exceeds the true value by more than
    /// the documented relative error bound — pinned here because
    /// `net-load` reports its p50/p95/p99 through this path.
    #[test]
    fn quantile_error_is_bounded() {
        let h = Histogram::new();
        // A skewed latency-like distribution over five decades.
        let mut values: Vec<u64> = Vec::new();
        let mut x = 1u64;
        while x < 10_000_000 {
            for k in 0..7 {
                values.push(x + k * (x / 3 + 1));
            }
            x = x.saturating_mul(3) / 2 + 1;
        }
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        let snap = h.snapshot();
        for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let truth = values[rank - 1];
            let est = snap.quantile(q);
            assert!(est >= truth, "estimate {est} below truth {truth} at q={q}");
            let err = (est - truth) as f64 / truth as f64;
            assert!(
                err <= MAX_QUANTILE_ERROR + 1e-9,
                "q={q}: estimate {est} vs truth {truth} (err {err:.4})"
            );
        }
    }

    #[test]
    fn merge_saturates_instead_of_wrapping() {
        let mut a = HistogramSnapshot {
            count: u64::MAX - 1,
            sum: u64::MAX - 1,
            max: 5,
            buckets: vec![(3, u64::MAX - 1)],
        };
        let b = HistogramSnapshot {
            count: 10,
            sum: 10,
            max: 9,
            buckets: vec![(3, 10), (7, 1)],
        };
        a.merge(&b);
        assert_eq!(a.count, u64::MAX);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.max, 9);
        assert_eq!(a.buckets, vec![(3, u64::MAX), (7, 1)]);
    }

    #[test]
    fn snapshot_totals_match_recordings() {
        let h = Histogram::new();
        for v in [0, 1, 15, 16, 17, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1_001_049);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 7);
        assert_eq!(s.quantile(0.0), 0);
    }
}
