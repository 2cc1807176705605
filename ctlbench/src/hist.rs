//! An allocation-free, fixed-bucket log-linear histogram of nanosecond
//! durations, so recording a tick's wall time costs an index computation
//! and one increment and never touches the allocator on the clock.
//!
//! Values below 128 ns get one bucket each; above that, every power of
//! two is split into 128 equal sub-buckets, so a bucket is at most
//! 1/128 (0.8%) of its lower bound wide. Quantiles report the midpoint
//! of the bucket holding the nearest-rank sample, which is therefore
//! within half a bucket of the exact sorted quantile.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Groups 0 (exact values 0..128) through 57 (values with bit 63 set).
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Log-linear histogram over `u64` nanoseconds (see the module docs).
#[derive(Debug, Clone)]
pub struct LogHist {
    counts: Box<[u64]>,
    n: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// An empty histogram; the only allocation it ever makes.
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// The bucket holding `v`.
    pub fn index(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let group = (msb - SUB_BITS + 1) as usize;
        let sub = (v >> (msb - SUB_BITS)) as usize - SUB;
        group * SUB + sub
    }

    /// Inclusive lower bound and width of bucket `i`.
    pub fn bucket(i: usize) -> (u64, u64) {
        let (group, sub) = (i / SUB, (i % SUB) as u64);
        if group == 0 {
            return (sub, 1);
        }
        let shift = group as u32 - 1;
        ((SUB as u64 + sub) << shift, 1 << shift)
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Exact mean, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.sum_ns as f64 / self.n as f64
    }

    /// Largest sample, ns.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The nearest-rank `q` quantile (`0 < q ≤ 1`), reported as the
    /// midpoint of its bucket, ns (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = Self::bucket(i);
                return lo as f64 + (width as f64 - 1.0) / 2.0;
            }
        }
        self.max_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn buckets_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            let (lo, w) = LogHist::bucket(i);
            let (next, _) = LogHist::bucket(i + 1);
            assert_eq!(lo + w, next, "bucket {i}");
            assert_eq!(LogHist::index(lo), i);
            assert_eq!(LogHist::index(lo + w - 1), i);
        }
        assert_eq!(LogHist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_the_exact_sorted_quantile() {
        // Tick-like samples: a body around 45 µs with a heavy tail, from a
        // fixed-seed generator so the test is reproducible.
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut samples = Vec::new();
        for _ in 0..50_000 {
            x = flowtune_topo::clos::splitmix64(x);
            let u = (x >> 11) as f64 / (1u64 << 53) as f64;
            let v = if u < 0.98 {
                30_000.0 + 30_000.0 * u
            } else {
                1e6 * (u - 0.97) * 100.0
            };
            samples.push(v as u64);
        }
        let mut h = LogHist::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let want = exact(&samples, q);
            let (_, width) = LogHist::bucket(LogHist::index(want));
            let got = h.quantile_ns(q);
            assert!(
                (got - want as f64).abs() <= width as f64,
                "q{q}: histogram {got} vs exact {want} (bucket width {width})"
            );
        }
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        assert!((h.mean_ns() - mean).abs() < 1e-6 * mean);
        assert_eq!(h.max_ns(), *samples.last().unwrap());
        assert_eq!(h.count(), samples.len() as u64);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHist::new();
        for v in [3, 3, 7, 9] {
            h.record(v);
        }
        assert_eq!(h.quantile_ns(0.5), 3.0);
        assert_eq!(h.quantile_ns(1.0), 9.0);
        assert_eq!(LogHist::new().quantile_ns(0.5), 0.0);
    }
}
