//! The fixed-size base-2 histogram shared by every telemetry surface.
//!
//! It lives here so the metrics registry, the serving stats and the
//! repro harness all speak one estimator. It also tracks the exact
//! maximum sample: the base-2 buckets resolve quantiles only to within
//! a factor of two, which made distinct sweep points indistinguishable
//! whenever p50 and p99 landed in one bucket — exact `mean()` and
//! [`max`](Histogram::max) disambiguate them.

/// A fixed-size base-2 histogram over `u64` samples.
///
/// Bucket `i` in `1..63` holds samples whose bit length is `i` (i.e.
/// values in `[2^(i-1), 2^i)`); bucket 0 holds zeros; bucket 63 is the
/// *saturating* top bucket and holds everything in `[2^62, u64::MAX]`
/// (both 63- and 64-bit samples), with upper bound reported as
/// `u64::MAX`. Quantiles are therefore resolved to within a factor of
/// two — the right fidelity for latency tails and batch-size
/// distributions at O(1) space — while the exact mean and maximum are
/// carried alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

/// Upper bound reported for bucket `i`: 0 for the zero bucket,
/// `2^i - 1` for the interior buckets, `u64::MAX` for the saturating
/// top bucket.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        63 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; 64], count: 0, sum: 0, max: 0 }
    }
}

impl Histogram {
    /// Record one sample. Public so harnesses comparing against the
    /// service (e.g. the `repro` experiments) can measure their own
    /// baselines with the same estimator the service telemetry uses.
    pub fn record(&mut self, v: u64) {
        let idx = (u64::BITS - v.leading_zeros()) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` clamped to `[0, 1]`).
    ///
    /// The bound is exclusive-rounded-down: a return of `2^i - 1` means
    /// the quantile sample was in `[2^(i-1), 2^i)`; a return of
    /// `u64::MAX` means it landed in the saturating top bucket
    /// `[2^62, u64::MAX]`.
    ///
    /// Edge cases are pinned, not unspecified: an **empty** histogram
    /// returns 0 for every `q` (there is no sample to bound, and 0 is
    /// the identity the dashboards expect), and a **single-sample**
    /// histogram returns that sample's bucket bound for every `q` —
    /// p50 and p99 of one observation are the observation.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }

    /// Fold another histogram into this one (used by the sharded
    /// front-end to combine per-shard telemetry).
    pub fn absorb(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_mean_and_max() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean(), 21.0);
        assert_eq!(h.max(), 100);
        // 0 → bucket 0; 1,1 → [1,2); 3 → [2,4); 100 → [64,128).
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (3, 1), (127, 1)]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::default();
        for _ in 0..99 {
            h.record(10); // [8,16) → upper bound 15
        }
        h.record(1000); // [512,1024) → upper bound 1023
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(0.98), 15);
        assert_eq!(h.quantile(1.0), 1023);
        assert_eq!(h.max(), 1000, "the exact maximum survives bucketing");
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    /// Pin the empty-histogram contract: every quantile of zero samples
    /// is 0 (previously unspecified).
    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0);
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    /// Pin the single-sample contract: every quantile is the sample's
    /// bucket bound (p50 and p99 of one observation are the observation).
    #[test]
    fn single_sample_quantiles_are_the_sample() {
        let mut h = Histogram::default();
        h.record(10); // [8,16) → upper bound 15
        for q in [0.0, 0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 15);
        }
        let mut z = Histogram::default();
        z.record(0);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(z.quantile(q), 0);
        }
    }

    /// Pin the saturating top bucket: 63- and 64-bit samples share
    /// bucket 63, whose reported upper bound is u64::MAX (previously it
    /// claimed 2^63 - 1, *below* some of its samples).
    #[test]
    fn top_bucket_saturates_with_honest_upper_bound() {
        let mut h = Histogram::default();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        h.record((1u64 << 62) + 1);
        assert_eq!(h.nonzero_buckets(), vec![(u64::MAX, 3)]);
        assert_eq!(h.quantile(0.5), u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert_eq!(h.max(), u64::MAX);
        // The largest non-saturating bucket still reports 2^62 - 1.
        let mut g = Histogram::default();
        g.record((1u64 << 62) - 1);
        assert_eq!(g.nonzero_buckets(), vec![((1u64 << 62) - 1, 1)]);
        // Sum saturates instead of wrapping.
        assert_eq!(h.mean(), u64::MAX as f64 / 3.0);
    }

    #[test]
    fn absorb_merges_buckets_counts_sums_and_max() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [0, 1, 100] {
            a.record(v);
        }
        for v in [1, 3, u64::MAX] {
            b.record(v);
        }
        a.absorb(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.nonzero_buckets(), vec![(0, 1), (1, 2), (3, 1), (127, 1), (u64::MAX, 1)]);
        assert_eq!(a.quantile(1.0), u64::MAX);
        assert_eq!(a.max(), u64::MAX);
    }
}
