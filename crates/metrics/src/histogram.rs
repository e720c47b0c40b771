//! Fixed-bucket histograms with interpolated quantiles.
//!
//! Buckets use Prometheus-style **inclusive upper bounds** (`le`): a value
//! `v` lands in the first bucket whose bound is `>= v`; anything above the
//! last bound lands in the implicit `+inf` overflow bucket. Quantiles
//! interpolate linearly inside the containing bucket and clamp to the
//! observed `[min, max]`, so a histogram whose bounds enumerate every
//! possible value (e.g. [`Histogram::occupancy`]) reports quantiles
//! exactly.

use crate::counter::saturating_fetch_add;
use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-bucket histogram of `u64` samples.
///
/// Recording takes `&self` (relaxed atomics) so lookup paths can record
/// probe lengths without threading `&mut` through the table API, and so
/// tables that embed histograms stay `Sync` for lock-free concurrent
/// readers. The atomics are statistics, not synchronization — every
/// access is `Relaxed`, and a snapshot read while writers are recording
/// may be mid-sample (quantiles remain within the observed range).
#[derive(Debug)]
pub struct Histogram {
    /// Strictly increasing inclusive upper bounds.
    uppers: Vec<u64>,
    /// One count per bound plus the trailing `+inf` overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        Histogram {
            uppers: self.uppers.clone(),
            counts: self
                .counts
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            count: AtomicU64::new(self.count.load(Ordering::Relaxed)),
            sum: AtomicU64::new(self.sum.load(Ordering::Relaxed)),
            min: AtomicU64::new(self.min.load(Ordering::Relaxed)),
            max: AtomicU64::new(self.max.load(Ordering::Relaxed)),
        }
    }
}

impl Histogram {
    /// A histogram with the given inclusive upper bounds.
    ///
    /// # Panics
    /// If `uppers` is empty or not strictly increasing.
    pub fn new(uppers: Vec<u64>) -> Histogram {
        assert!(!uppers.is_empty(), "histogram needs at least one bucket");
        assert!(
            uppers.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing: {uppers:?}"
        );
        let n = uppers.len() + 1; // + overflow
        Histogram {
            uppers,
            counts: (0..n).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// `n` buckets of equal `width` starting at `start` (first bound is
    /// `start`, i.e. `linear(0, 1, 9)` enumerates bounds 0..=8).
    pub fn linear(start: u64, width: u64, n: usize) -> Histogram {
        assert!(width > 0, "bucket width must be positive");
        Histogram::new((0..n as u64).map(|i| start + i * width).collect())
    }

    /// `n` geometric buckets: `start, start*factor, start*factor^2, …`.
    pub fn exponential(start: u64, factor: u64, n: usize) -> Histogram {
        assert!(start > 0 && factor > 1, "need start > 0 and factor > 1");
        let mut uppers = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            uppers.push(b);
            b = b.saturating_mul(factor);
        }
        uppers.dedup(); // saturation can repeat u64::MAX
        Histogram::new(uppers)
    }

    /// Preset for probe lengths (cells or buckets examined per
    /// operation): exact buckets 1..=16, then a coarse tail. Shared by
    /// group hashing and all baselines so distributions compare directly.
    pub fn probe_lengths() -> Histogram {
        let mut uppers: Vec<u64> = (1..=16).collect();
        uppers.extend([24, 32, 48, 64, 128]);
        Histogram::new(uppers)
    }

    /// Preset for group/bucket occupancy observed at insert: one exact
    /// bucket per possible occupancy `0..=group_size`.
    pub fn occupancy(group_size: usize) -> Histogram {
        Histogram::linear(0, 1, group_size + 1)
    }

    /// Preset for per-op simulated-time latency in nanoseconds: powers of
    /// two from 32 ns to ~2 s.
    pub fn latency_ns() -> Histogram {
        Histogram::exponential(32, 2, 27)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self.uppers.partition_point(|&u| u < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.sum, v);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, if any were recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest sample, if any were recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count() > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count() == 0 {
            0.0
        } else {
            self.sum() as f64 / self.count() as f64
        }
    }

    /// The bucket bounds (without the implicit `+inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.uppers
    }

    /// Count in bucket `i` (index `bounds().len()` is the overflow
    /// bucket).
    pub fn bucket_count(&self, i: usize) -> u64 {
        self.counts[i].load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`q` in `[0, 1]`), linearly interpolated inside
    /// the containing bucket and clamped to the observed range. Returns
    /// 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * total as f64;
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            let n = c.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            let before = cum;
            cum += n;
            if (cum as f64) >= rank {
                let lo = if i == 0 {
                    0.0
                } else {
                    self.uppers[i - 1] as f64
                };
                let hi = if i < self.uppers.len() {
                    self.uppers[i] as f64
                } else {
                    // Overflow bucket tops out at the observed max.
                    self.max.load(Ordering::Relaxed) as f64
                };
                let frac = ((rank - before as f64) / n as f64).clamp(0.0, 1.0);
                let v = lo + frac * (hi - lo);
                return v.clamp(
                    self.min.load(Ordering::Relaxed) as f64,
                    self.max.load(Ordering::Relaxed) as f64,
                );
            }
        }
        self.max.load(Ordering::Relaxed) as f64
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Clears all samples, keeping the bucket layout.
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Folds `other` into `self` (shard aggregation).
    ///
    /// # Panics
    /// If the bucket layouts differ.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.uppers, other.uppers,
            "cannot merge histograms with different bucket layouts"
        );
        for (a, b) in self.counts.iter().zip(&other.counts) {
            a.fetch_add(b.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        saturating_fetch_add(&self.sum, other.sum.load(Ordering::Relaxed));
        if other.count() > 0 {
            self.min
                .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max
                .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Serializes to the registry's stable histogram schema:
    /// `{count, sum, mean, min, max, p50, p95, p99, buckets: [{le, count}]}`
    /// where the final bucket's `le` is the string `"+inf"`. Empty buckets
    /// are included so the schema is identical across schemes.
    pub fn to_json(&self) -> Json {
        let mut j = Json::obj();
        j.insert("count", self.count());
        j.insert("sum", self.sum());
        j.insert("mean", self.mean());
        match (self.min(), self.max()) {
            (Some(mn), Some(mx)) => {
                j.insert("min", mn);
                j.insert("max", mx);
            }
            _ => {
                j.insert("min", Json::Null);
                j.insert("max", Json::Null);
            }
        }
        j.insert("p50", self.p50());
        j.insert("p95", self.p95());
        j.insert("p99", self.p99());
        let mut buckets = Vec::with_capacity(self.counts.len());
        for (i, c) in self.counts.iter().enumerate() {
            let mut b = Json::obj();
            match self.uppers.get(i) {
                Some(&le) => b.insert("le", le),
                None => b.insert("le", "+inf"),
            };
            b.insert("count", c.load(Ordering::Relaxed));
            buckets.push(b);
        }
        j.insert("buckets", buckets);
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(vec![1, 2, 4]);
        h.record(0); // le=1
        h.record(1); // le=1 (exactly on the edge stays in its bucket)
        h.record(2); // le=2
        h.record(3); // le=4
        h.record(4); // le=4
        h.record(5); // +inf overflow
        assert_eq!(h.bucket_count(0), 2);
        assert_eq!(h.bucket_count(1), 1);
        assert_eq!(h.bucket_count(2), 2);
        assert_eq!(h.bucket_count(3), 1); // overflow
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 15);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(5));
    }

    #[test]
    fn quantiles_exact_with_unit_buckets() {
        // Bounds enumerate every value, so quantiles come out exact.
        let h = Histogram::linear(0, 1, 101);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), 50.0);
        assert_eq!(h.p95(), 95.0);
        assert_eq!(h.p99(), 99.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let h = Histogram::new(vec![10, 100]);
        for _ in 0..8 {
            h.record(42); // all mass in the (10, 100] bucket
        }
        // Interpolation alone would say 10 + q*90; clamping pins every
        // quantile of a single-valued distribution to that value.
        assert_eq!(h.p50(), 42.0);
        assert_eq!(h.p99(), 42.0);
        assert_eq!(h.quantile(0.0), 42.0);
    }

    #[test]
    fn overflow_bucket_quantile_uses_observed_max() {
        let h = Histogram::new(vec![4]);
        h.record(1_000);
        h.record(2_000);
        assert_eq!(h.quantile(1.0), 2_000.0);
        assert!(h.p50() >= 4.0 && h.p50() <= 2_000.0);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::probe_lengths();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        let j = h.to_json();
        assert_eq!(j.get("min"), Some(&Json::Null));
    }

    #[test]
    fn merge_requires_same_layout_and_sums() {
        let a = Histogram::occupancy(4);
        let b = Histogram::occupancy(4);
        a.record(1);
        b.record(3);
        b.record(4);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(4));
        assert_eq!(a.sum(), 8);
    }

    #[test]
    #[should_panic(expected = "different bucket layouts")]
    fn merge_rejects_mismatched_layouts() {
        let a = Histogram::new(vec![1, 2]);
        let b = Histogram::new(vec![1, 3]);
        a.merge(&b);
    }

    #[test]
    fn reset_clears_but_keeps_layout() {
        let h = Histogram::new(vec![8]);
        h.record(3);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.bounds(), &[8]);
        h.record(9);
        assert_eq!(h.bucket_count(1), 1);
    }

    #[test]
    fn exponential_bounds_dedup_on_saturation() {
        let h = Histogram::exponential(1 << 62, 2, 4);
        // 2^62, 2^63, then u64::MAX once (saturated duplicates removed).
        assert_eq!(h.bounds().len(), 3);
        assert_eq!(h.bounds()[2], u64::MAX);
    }

    #[test]
    fn json_schema_has_all_keys() {
        let h = Histogram::new(vec![2, 4]);
        h.record(1);
        h.record(9);
        let j = h.to_json();
        for key in [
            "count", "sum", "mean", "min", "max", "p50", "p95", "p99", "buckets",
        ] {
            assert!(j.get(key).is_some(), "missing key {key}");
        }
        match j.get("buckets") {
            Some(Json::Arr(b)) => {
                assert_eq!(b.len(), 3);
                assert_eq!(b[2].get("le"), Some(&Json::Str("+inf".into())));
                assert_eq!(b[2].get("count"), Some(&Json::U64(1)));
            }
            other => panic!("buckets not an array: {other:?}"),
        }
    }
}
