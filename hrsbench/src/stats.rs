//! Order statistics over timing samples.

/// Samples a tail percentile must leave above its rank before it is
/// reported: fewer than this many and the percentile is a single outlier.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle samples for an even count).
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    })
}

/// Nearest-rank `q`-quantile (`q` in `(0, 1)`): the sample at rank
/// `ceil(q × n)`.  `None` unless at least [`MIN_BEYOND`] samples lie beyond
/// that rank, so a reported tail always rests on ten or more samples.
pub fn tail_percentile(samples: &[f64], q: f64) -> Option<f64> {
    let (value, beyond) = nearest_rank(samples, q)?;
    (beyond >= MIN_BEYOND).then_some(value)
}

/// Nearest-rank `q`-quantile and the number of samples beyond its rank,
/// with no minimum; `None` for no samples.
pub fn nearest_rank(samples: &[f64], q: f64) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let n = s.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((s[rank - 1], n - rank))
}

/// Arithmetic mean; `None` for no samples.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n so the routines must sort.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let s = ramp(100);
        assert_eq!(nearest_rank(&s, 0.9), Some((90.0, 10)));
        assert_eq!(nearest_rank(&s, 0.5), Some((50.0, 50)));
        assert_eq!(nearest_rank(&s, 0.99), Some((99.0, 1)));
        // ceil(0.9 × 101) = 91.
        assert_eq!(nearest_rank(&ramp(101), 0.9), Some((91.0, 10)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 beyond: reported.
        assert_eq!(tail_percentile(&ramp(100), 0.9), Some(90.0));
        // p90 of 99 samples leaves 9 beyond: withheld.
        assert_eq!(tail_percentile(&ramp(99), 0.9), None);
        // p99 needs 1000 samples.
        assert_eq!(tail_percentile(&ramp(999), 0.99), None);
        assert_eq!(tail_percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
