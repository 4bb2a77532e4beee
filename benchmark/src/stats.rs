//! Summary statistics for repeated timings: median, quartiles, and the
//! choosing-metrics percentile rule.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile_sorted(&sorted(samples), 0.5)
}

/// The fastest reading. Contention on a shared host only ever adds
/// time, so of several readings of the same work the smallest is the
/// one least disturbed.
pub fn floor(samples: impl IntoIterator<Item = f64>) -> f64 {
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

/// A timing reported the way every ledger metric is: median, the
/// quartiles around it, and how many samples they summarise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises the samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            n: s.len(),
        }
    }
}

/// The highest whole percentile that still has at least ten samples
/// beyond it (`None` below 20 samples, where not even the median has):
/// a tail estimated from fewer than ten samples is noise, not a
/// percentile.
pub fn highest_percentile(n: usize) -> Option<u32> {
    // p qualifies when n * (100 - p) / 100 >= 10.
    let p = 100usize.checked_sub(1000usize.div_ceil(n.max(1)))?;
    (p >= 50).then_some(p as u32)
}

/// The `p`-th percentile (nearest-rank) of the samples, refused when
/// the percentile rule does not allow it at this sample count.
pub fn percentile(samples: &[f64], p: u32) -> Option<f64> {
    let allowed = highest_percentile(samples.len())?;
    if p > allowed {
        return None;
    }
    let s = sorted(samples);
    let rank = (p as usize * s.len()).div_ceil(100).max(1);
    Some(s[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.0, 3.0, 4.0, 5));
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_percentile(3), None);
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(99), Some(89));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
    }

    #[test]
    fn p90_is_refused_below_a_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(percentile(&few, 90), None);
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&enough, 90), Some(180.0));
        assert_eq!(percentile(&enough, 50), Some(100.0));
        // p99 would leave only two samples beyond it at n = 200.
        assert_eq!(percentile(&enough, 99), None);
    }
}
