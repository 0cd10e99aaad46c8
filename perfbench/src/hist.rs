//! Log-linear histogram for latencies and other non-negative samples.
//!
//! 128 sub-buckets per power of two (under 1% relative bucket width), a
//! fixed 7424-slot table, so recording is one index computation and one
//! increment however long a run lasts. Quantiles interpolate linearly
//! inside the bucket that holds the target rank, which keeps reported
//! percentiles continuous rather than snapped to bucket edges.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist { counts: vec![0; BUCKETS], n: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let m = (v >> (e - SUB_BITS)) - SUB;
    ((e - SUB_BITS + 1) as u64 * SUB + m) as usize
}

/// `(lower bound, width)` of bucket `idx`.
fn bounds(idx: usize) -> (f64, f64) {
    let idx = idx as u64;
    if idx < SUB {
        return (idx as f64, 1.0);
    }
    let g = idx / SUB;
    let m = idx % SUB + SUB;
    let shift = g - 1;
    ((m << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Interpolated `phi`-quantile; 0 for an empty histogram.
    pub fn quantile(&self, phi: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = phi.clamp(0.0, 1.0) * self.n as f64;
        let mut seen = 0.0;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let c = c as f64;
            if seen + c >= target {
                let (lo, width) = bounds(idx);
                return lo + width * ((target - seen) / c).clamp(0.0, 1.0);
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).expect("n > 0");
        let (lo, width) = bounds(last);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut prev = 0;
        for v in (0..100_000u64).chain([u64::MAX / 3, u64::MAX]) {
            let i = index(v);
            assert!(i >= prev && i < BUCKETS);
            let (lo, w) = bounds(i);
            assert!(lo <= v as f64 && v as f64 <= lo + w, "v={v} lo={lo} w={w}");
            prev = i;
        }
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert!((h.quantile(0.5) - 5000.0).abs() < 60.0);
        assert!((h.quantile(0.99) - 9900.0).abs() < 100.0);
        assert_eq!(h.count(), 10_000);
    }
}
