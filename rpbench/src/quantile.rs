//! Order statistics shared by the run and compare commands.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of quantile `q` among `n` samples:
/// `ceil(q · n)`, clamped to `[1, n]`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> T {
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank
/// percentile `q`.
pub fn beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Fewest samples for which percentile `q` has [`MIN_BEYOND`] samples
/// beyond it.
#[cfg(test)]
pub fn min_samples_for(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some sample count suffices")
}

/// Median of an unsorted slice (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// First and third quartile by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 0.99), 7);
        // ceil(0.99 * 101) = 100: the 100th of 101 values.
        let w: Vec<u32> = (1..=101).collect();
        assert_eq!(percentile(&w, 0.99), 100);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(min_samples_for(0.99), 1000);
        assert_eq!(min_samples_for(0.5), 20);
        assert!(beyond(min_samples_for(0.999), 0.999) >= MIN_BEYOND);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
