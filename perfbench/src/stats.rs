//! Order statistics used by every report.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the default
//! "exclusive" method), so a spread computed here matches the one a script
//! computes from the same numbers.

/// `(q1, median, q3)` of `xs`. Empty input has no quartiles.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => None,
        1 => Some((d[0], d[0], d[0])),
        len => {
            let at = |i: usize| {
                let m = len + 1;
                let j = (i * m / 4).clamp(1, len - 1);
                // Negative when `j` was clamped up: Python extrapolates too.
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            };
            Some((at(1), at(2), at(3)))
        }
    }
}

pub fn median(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|(_, m, _)| m)
}

/// Interquartile range as a share of the median: how far apart repeated
/// measurements of one quantity land.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, m, q3) = quartiles(xs)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    if d.is_empty() {
        return None;
    }
    let rank = p / 100.0 * (d.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(d[lo] + (d[hi] - d[lo]) * (rank - lo as f64))
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, so a tail figure never rests on one or two outliers.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), Some((1.25, 2.5, 3.75)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 15.0, 22.5)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn median_takes_the_mean_of_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(spread(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(1.0));
        assert_eq!(spread(&[0.0, 0.0]), None);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(6.0));
        assert_eq!(percentile(&xs, 90.0), Some(10.0));
        assert_eq!(percentile(&xs, 95.0), Some(10.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
