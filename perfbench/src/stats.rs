//! Summary statistics and output fingerprints.

/// Median of `values` (mean of the two middle values for an even count).
/// `None` when empty or when any value is NaN.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| v.is_nan()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN excluded above"));
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let fraction = position - lower as f64;
    Some(sorted[lower] + (sorted[upper] - sorted[lower]) * fraction)
}

/// Percentiles the benchmark reports for a latency, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of
/// `count` samples beyond it, so that a reported tail rests on more than a
/// handful of observations. `None` below 20 samples (not even the median
/// has ten beyond it).
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| samples_beyond(count, p) >= 10)
}

/// Samples strictly beyond the nearest-rank `percentile` of `count`
/// samples: `count − ceil(percentile/100 · count)`.
pub fn samples_beyond(count: usize, percentile: f64) -> usize {
    // Percentiles are given to two decimals; work in hundredths of a
    // percent so 99.99 % of 10 000 is exactly 9 999, not 9 998.99….
    let basis_points = (percentile * 100.0).round() as u128;
    let rank = (basis_points * count as u128).div_ceil(10_000) as usize;
    count - rank.min(count)
}

/// Failed operations over attempted operations; 0 when nothing was
/// attempted.
pub fn failed_share(failed: usize, attempted: usize) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Order-sensitive FNV-1a digest, fed field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feed raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    /// Feed an integer.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Feed a float bit-exactly.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}
