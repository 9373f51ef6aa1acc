//! Order statistics used by every reported timing.

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail figure never rests on one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-th percentile (0 < q < 100) of `samples`: the smallest
/// sample with at least `q`% of all samples at or below it. `None` when
/// fewer than [`MIN_BEYOND`] samples lie above that rank.
pub fn percentile(samples: &[f64], q: u32) -> Option<f64> {
    if !(1..100).contains(&q) {
        return None;
    }
    let n = samples.len();
    let rank = (q as usize * n).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The fewest samples for which [`percentile`] reports the `q`-th
/// percentile (200 for the 95th).
pub fn min_samples(q: u32) -> usize {
    (1..)
        .find(|&n| n >= (q as usize * n).div_ceil(100).max(1) + MIN_BEYOND)
        .unwrap_or(usize::MAX)
}

/// Median of a small set (the mean of the two middle values when the count
/// is even); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}
