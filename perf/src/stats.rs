//! Medians, percentiles and the rule for which tail percentile a sample
//! count supports.

/// Linear-interpolated percentile (`p` in 0..=100) of an unsorted sample.
/// Empty samples give 0 so that a metric stays printable; callers report
/// the sample count next to it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentiles a tail may be reported at, highest first.
const TAIL_LADDER: [u32; 4] = [99, 95, 90, 75];

/// The highest percentile of the ladder that leaves at least ten samples
/// beyond it: p90 needs 100 samples, p99 needs 1 000.  `None` below 40
/// samples — a tail read off fewer is one outlier, not a percentile.
pub fn tail_percentile(sample_count: usize) -> Option<u32> {
    TAIL_LADDER
        .into_iter()
        .find(|p| sample_count * (100 - *p as usize) >= 10 * 100)
}

/// The tail of a sample as `(percentile, value)`; `(0, 0)` when the sample
/// is too small to have one.
pub fn tail(samples: &[f64]) -> (u32, f64) {
    match tail_percentile(samples.len()) {
        Some(p) => (p, percentile(samples, p as f64)),
        None => (0, 0.0),
    }
}

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns (the
/// exclusive method) — the spread the benchmark contract is judged by.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let m = samples.len();
    if m < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75), "p90 is refused below 100");
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(999), Some(95));
        assert_eq!(tail_percentile(1_000), Some(99));
        assert_eq!(tail(&[1.0; 12]), (0, 0.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let samples: Vec<f64> = (1..=5).map(f64::from).rev().collect();
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&samples, 62.5), 3.5);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&samples), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some([1.0, 2.0, 4.0]));
        assert_eq!(iqr_share(&samples), 1.0);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
