//! Small numeric helpers: quantiles, medians, digests, resident memory.

/// The `q`-quantile (0..=1) of `xs` by nearest rank; 0 for an empty set.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Median of `xs`; 0 for an empty set.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    quantile(&mut v, 0.5)
}

/// Mean of the values between the first and third quartile.
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (lo, hi) = (v.len() / 4, v.len() - v.len() / 4);
    mean(&v[lo..hi.max(lo + 1).min(v.len())])
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// 64-bit FNV-1a digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Peak resident set size of this process in MiB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    crate::sys::max_rss_kib() as f64 / 1024.0
}

/// Buckets per power of two in [`Histogram`].
const SUB: u64 = 64;

/// A log-linear histogram of nanosecond values: 64 buckets per power of
/// two (1.6% wide) up to 137 s, so a closed loop can keep millions of
/// latencies in 8 KiB per window.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u32>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (SUB + 31 * SUB) as usize],
            total: 0,
        }
    }
}

impl Histogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let e = 63 - u64::from(ns.leading_zeros());
        let shift = e - 6;
        (SUB + shift * SUB + ((ns >> shift) - SUB)) as usize
    }

    /// Lower bound and width of bucket `i`.
    fn bucket(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, 1.0);
        }
        let shift = (i - SUB) / SUB;
        let sub = (i - SUB) % SUB;
        (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
    }

    /// Count one value; values past the last bucket (137 s) count in it.
    pub fn record(&mut self, ns: u64) {
        let last = self.counts.len() - 1;
        self.counts[Self::index(ns).min(last)] += 1;
        self.total += 1;
    }

    /// Add every count of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Values counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ns, interpolated within its bucket.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (q * self.total as f64).ceil().max(1.0);
        let mut below = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = f64::from(c);
            if c > 0.0 && below + c >= rank {
                let (lo, width) = Self::bucket(i);
                return lo + width * ((rank - below - 0.5) / c).clamp(0.0, 1.0);
            }
            below += c;
        }
        0.0
    }
}
