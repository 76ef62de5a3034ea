//! Fixed-size latency histograms and the host's steal-time counter.

/// Sub-buckets per power of two: bucket widths are under 1/64 (1.6%) of
/// their values.
const SUB: usize = 64;
/// Octaves covered: values up to 2^40 ns (about 18 minutes).
const OCTAVES: usize = 40;

/// A log-linear histogram of nanosecond latencies. Its memory is fixed,
/// so the benchmark's own footprint does not grow with throughput and
/// `peak_rss_mb` measures the engine.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u32>,
    total: u64,
    sum: u64,
}

impl LogHist {
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; SUB * (OCTAVES + 1)],
            total: 0,
            sum: 0,
        }
    }

    /// Bucket of `v`: values below `SUB` get a bucket each; above, each
    /// octave `[2^k, 2^(k+1))` splits into `SUB` equal buckets.
    fn bucket(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let k = 63 - v.leading_zeros() as usize; // 2^k <= v
        let shift = k - SUB.trailing_zeros() as usize;
        let sub = ((v >> shift) as usize) - SUB;
        ((k + 1 - SUB.trailing_zeros() as usize) * SUB + sub).min(SUB * (OCTAVES + 1) - 1)
    }

    /// Lowest value of bucket `b` and its width.
    fn bounds(b: usize) -> (f64, f64) {
        if b < SUB {
            return (b as f64, 1.0);
        }
        let octave = b / SUB - 1 + SUB.trailing_zeros() as usize; // k
        let width = (1u64 << (octave - SUB.trailing_zeros() as usize)) as f64;
        let lo = (1u64 << octave) as f64 + (b % SUB) as f64 * width;
        (lo, width)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.total += 1;
        self.sum += v;
    }

    pub fn merge(&mut self, other: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact sum of the samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The nearest-rank `q` quantile, placed inside its bucket by linear
    /// interpolation over the bucket's samples; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((self.total as f64 * q).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if c > 0 && seen + c >= rank {
                let (lo, width) = Self::bounds(b);
                return lo + width * (rank - seen) as f64 / c as f64;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Jiffies the hypervisor ran something else while this machine's CPUs
/// wanted to run (the `steal` column of `/proc/stat`); `None` where the
/// counter is not available.
pub fn steal_jiffies() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 63, 64, 65, 127, 128, 1000, 123_456, 9_876_543_210] {
            let (lo, w) = LogHist::bounds(LogHist::bucket(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + w,
                "{v}: [{lo}, {})",
                lo + w
            );
            assert!(w <= 1.0_f64.max(v as f64 / SUB as f64), "{v}: width {w}");
        }
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = LogHist::new();
        for v in 1..=10_000u64 {
            h.record(v * 100);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.02, "{p50}");
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.02, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
