//! Order statistics, spread, checksums and the seeded generator — the
//! arithmetic every other module relies on, kept free of engine symbols so
//! it can be unit-tested on its own.

/// Samples needed beyond a percentile before it is reported (the
/// choosing-metrics rule: "the highest percentile that has at least ten
/// samples beyond it").
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles the end-to-end latency metrics report. Each workload's
/// schedule weights are chosen so that every one of them falls inside one
/// statement class, away from a class boundary (see README.md).
pub const REPORTED_PERCENTILES: [u32; 4] = [10, 50, 75, 95];

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[u64], p: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p <= 100);
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Highest of `candidates` (ascending) that still has [`TAIL_SAMPLES`]
/// samples strictly beyond its rank among `n` samples, if any.
pub fn highest_supported_percentile(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&p| {
            let rank = (n * p as usize).div_ceil(100).max(1);
            n >= rank + TAIL_SAMPLES
        })
        .max()
}

/// Median of an unsorted f64 sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method) — the same arithmetic the driver uses
/// to judge this benchmark's steadiness.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q[2] - q[0]) / m.abs()
    }
}

/// FNV-1a over 32-bit words: the row checksum of every timed operation.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    #[inline]
    pub fn word64(&mut self, w: u64) {
        self.word(w as u32);
        self.word((w >> 32) as u32);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: a tiny seeded generator, so schedules and probe inputs are
/// a pure function of `--seed` with no dependency on the program's own
/// random-number shim.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Zipf(1.0) sampler over ranks `0..n`: rank `k` has weight `1/(k+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        assert!(n > 0);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / (k + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf
            .partition_point(|&c| c <= x)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[7], 95), 7);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond() {
        let c = [50, 75, 90, 95, 99];
        // 200 samples: p95 has rank 190 and exactly 10 beyond; p99 has 2.
        assert_eq!(highest_supported_percentile(200, &c), Some(95));
        assert_eq!(highest_supported_percentile(199, &c), Some(90));
        assert_eq!(highest_supported_percentile(1000, &c), Some(99));
        assert_eq!(highest_supported_percentile(20, &c), Some(50));
        assert_eq!(highest_supported_percentile(19, &c), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn generator_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(42);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(43);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(48);
        let mut r = Rng::new(5);
        let mut hits = [0usize; 48];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[1] && hits[1] > hits[5] && hits[5] > hits[40]);
        assert!(hits.iter().all(|&h| h > 0));
    }

    #[test]
    fn fnv_distinguishes_order() {
        let mut a = Fnv::new();
        a.word(1);
        a.word(2);
        let mut b = Fnv::new();
        b.word(2);
        b.word(1);
        assert_ne!(a.finish(), b.finish());
    }
}
