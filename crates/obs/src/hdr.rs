//! Log-linear (HDR-style) histograms with quantile estimation.
//!
//! A histogram with one bucket per power of two answers "roughly what
//! order of magnitude" — useless for a p99: a single bucket spanning
//! `[512, 1024)` µs cannot distinguish a 520 µs tail from a 1 ms tail.
//! [`HdrHistogram`] subdivides every power-of-two range into
//! [`SUB_BUCKETS`] linear sub-buckets, which bounds the *relative*
//! width of any bucket and therefore the error of any quantile read
//! from it.
//!
//! # Error bound
//!
//! Values below [`SUB_BUCKETS`] are recorded exactly (one bucket per
//! integer). A value `v ≥ SUB_BUCKETS` lands in a sub-bucket of width
//! `2^(e-SUB_BITS)` where `2^e ≤ v < 2^(e+1)`; since the sub-bucket's
//! lower bound is at least `SUB_BUCKETS · 2^(e-SUB_BITS)`, the width
//! never exceeds `1/SUB_BUCKETS` of the value. [`HdrSnapshot::quantile`]
//! returns the lower bound of the bucket containing the rank-`q`
//! observation, so
//!
//! > `quantile(q) ≤ true_value < quantile(q) + width(bucket)`, with
//! > `width(bucket) ≤ max(1, true_value / SUB_BUCKETS)` — a relative
//! > error of at most `1/SUB_BUCKETS` ≈ 3.1 %, and exact below
//! > [`SUB_BUCKETS`].
//!
//! The property test in `crates/obs/tests/hdr_proptest.rs` checks this
//! bound against an exact sorted-vector quantile over arbitrary inputs.
//!
//! # Concurrency
//!
//! Recording is a handful of relaxed atomic adds — lock-free and
//! wait-free, safe to call from every
//! [`ParallelEngine`](https://docs.rs/cap-cnn) worker concurrently.
//! Bucketing depends only on the value, so merging per-worker
//! [`HdrSnapshot`]s is bucket-wise addition: associative, commutative,
//! order-independent (also property-tested).

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of [`SUB_BUCKETS`]: each power-of-two range is split into
/// `2^SUB_BITS` linear sub-buckets.
pub const SUB_BITS: usize = 5;

/// Sub-buckets per power-of-two range (32): the reciprocal of the
/// documented worst-case relative quantile error.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Total bucket count covering the full `u64` range: `SUB_BUCKETS`
/// exact unit buckets, then `SUB_BUCKETS` sub-buckets per exponent
/// `SUB_BITS..64`.
pub const HDR_BUCKETS: usize = (64 - SUB_BITS) * SUB_BUCKETS + SUB_BUCKETS;

/// The standard latency percentiles every exporter reports, as
/// `(text/JSON label, Prometheus quantile label, q)`.
pub const QUANTILES: [(&str, &str, f64); 4] = [
    ("p50", "0.5", 0.50),
    ("p90", "0.9", 0.90),
    ("p95", "0.95", 0.95),
    ("p99", "0.99", 0.99),
];

/// Bucket index for a value.
///
/// Values `< SUB_BUCKETS` map to themselves (exact). Otherwise, with
/// `e = floor(log2 v)`, the index is `(e - SUB_BITS) · SUB_BUCKETS +
/// (v >> (e - SUB_BITS))` — the `SUB_BITS + 1` leading significant bits
/// of `v` select the sub-bucket.
#[inline]
pub fn hdr_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let e = 63 - v.leading_zeros() as usize;
        (e - SUB_BITS) * SUB_BUCKETS + (v >> (e - SUB_BITS)) as usize
    }
}

/// `[lo, hi)` value bounds of bucket `i` (inverse of [`hdr_index`]).
///
/// The final bucket's exclusive upper bound is 2^64, which does not fit
/// in a `u64`; it saturates to `u64::MAX` instead.
pub fn hdr_bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB_BUCKETS {
        (i as u64, i as u64 + 1)
    } else {
        let shift = i / SUB_BUCKETS - 1;
        let sub = (i % SUB_BUCKETS) as u64;
        let lo = (SUB_BUCKETS as u64 + sub) << shift;
        (lo, lo.saturating_add(1u64 << shift))
    }
}

/// A lock-free log-linear histogram: relative bucket width bounded by
/// `1/`[`SUB_BUCKETS`], so quantiles read from it carry a documented
/// ≤ 3.1 % relative error (see the module docs for the exact bound).
///
/// ```
/// use cap_obs::HdrHistogram;
///
/// let h = HdrHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let snap = h.snapshot();
/// let p50 = snap.quantile(0.50).unwrap();
/// // True median is 500; the estimate is the containing bucket's lower
/// // bound, within 1/32 relative error.
/// assert!(p50 <= 500 && 500 < p50 + p50 / 16 + 1);
/// ```
#[derive(Debug)]
pub struct HdrHistogram {
    buckets: [AtomicU64; HDR_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HdrHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl HdrHistogram {
    /// An empty histogram (const: usable in statics).
    pub const fn new() -> Self {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [ZERO; HDR_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one observation. Three relaxed atomic adds; lock-free,
    /// wait-free, allocation-free.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[hdr_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Point-in-time copy of the histogram state. (Not atomic across
    /// buckets under concurrent recording; take snapshots at quiescent
    /// points when exact totals matter.)
    pub fn snapshot(&self) -> HdrSnapshot {
        let mut buckets = vec![0u64; HDR_BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HdrSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Reset every bucket and the totals to zero.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// Owned, mergeable copy of an [`HdrHistogram`]'s state, with quantile
/// estimation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HdrSnapshot {
    /// Per-bucket observation counts, length [`HDR_BUCKETS`]
    /// (see [`hdr_bucket_bounds`]).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HdrSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HdrSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; HDR_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Fold another snapshot into this one. Pure bucket-wise addition:
    /// associative, commutative, order-independent — merging per-worker
    /// histograms yields bit-identical results regardless of join order
    /// (property-tested in `crates/obs/tests/hdr_proptest.rs`).
    pub fn merge(&mut self, other: &HdrSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of recorded values, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), or `None` when empty.
    ///
    /// Returns the lower bound of the bucket containing the observation
    /// of rank `⌈q · count⌉` (clamped to `[1, count]`), so the true
    /// value `t` satisfies `quantile(q) ≤ t < quantile(q) + w` with
    /// bucket width `w ≤ max(1, t / `[`SUB_BUCKETS`]`)` — the bound
    /// documented in the [module docs](crate::hdr).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(hdr_bucket_bounds(i).0);
            }
        }
        // Unreachable when count equals the bucket total; under a torn
        // concurrent snapshot fall back to the highest non-empty bucket.
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|i| hdr_bucket_bounds(i).0)
    }

    /// The [`QUANTILES`] `(p50, p90, p95, p99)`, or `None` when empty.
    pub fn percentiles(&self) -> Option<(u64, u64, u64, u64)> {
        let [p50, p90, p95, p99] = QUANTILES.map(|(_, _, q)| self.quantile(q));
        Some((p50?, p90?, p95?, p99?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_bounds_are_inverse() {
        assert_eq!(hdr_index(0), 0);
        assert_eq!(hdr_index(31), 31);
        assert_eq!(hdr_index(32), 32);
        assert_eq!(hdr_index(u64::MAX), HDR_BUCKETS - 1);
        for i in 0..HDR_BUCKETS {
            let (lo, hi) = hdr_bucket_bounds(i);
            assert_eq!(hdr_index(lo), i, "lo of bucket {i}");
            assert_eq!(hdr_index(hi - 1), i, "hi-1 of bucket {i}");
            if i + 1 < HDR_BUCKETS {
                assert_eq!(hdr_bucket_bounds(i + 1).0, hi, "buckets are contiguous");
            }
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = HdrHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        let s = h.snapshot();
        for v in 0..SUB_BUCKETS as u64 {
            // Quantile that lands exactly on rank v+1.
            let q = (v + 1) as f64 / SUB_BUCKETS as f64;
            assert_eq!(s.quantile(q), Some(v));
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let h = HdrHistogram::new();
        let values: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        for &v in &values {
            h.record(v);
        }
        let s = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = s.quantile(q).unwrap();
            let (lo, hi) = hdr_bucket_bounds(hdr_index(truth));
            assert_eq!(est, lo, "estimate is the true value's bucket floor");
            assert!(est <= truth && truth < hi);
            let width = hi - lo;
            assert!(
                width as f64 <= (truth as f64 / SUB_BUCKETS as f64).max(1.0),
                "width {width} too wide for value {truth}"
            );
        }
    }

    #[test]
    fn empty_quantile_is_none() {
        let s = HdrSnapshot::empty();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.percentiles(), None);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_matches_concurrent_shared_recording() {
        let values: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 123_457).collect();
        let shared = HdrHistogram::new();
        std::thread::scope(|s| {
            for chunk in values.chunks(500) {
                let shared = &shared;
                s.spawn(move || {
                    for &v in chunk {
                        shared.record(v);
                    }
                });
            }
        });
        let privates: Vec<HdrHistogram> = (0..4).map(|_| HdrHistogram::new()).collect();
        for (h, chunk) in privates.iter().zip(values.chunks(500)) {
            for &v in chunk {
                h.record(v);
            }
        }
        let mut fwd = HdrSnapshot::empty();
        for h in &privates {
            fwd.merge(&h.snapshot());
        }
        let mut rev = HdrSnapshot::empty();
        for h in privates.iter().rev() {
            rev.merge(&h.snapshot());
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, shared.snapshot());
        assert_eq!(fwd.count, 2000);
    }

    #[test]
    fn reset_clears() {
        let h = HdrHistogram::new();
        h.record(12345);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), None);
    }
}
