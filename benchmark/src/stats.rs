//! Order statistics for repeated timings.

/// Median of `values` (sorts them). Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quartiles(values)[1]
}

/// `[q1, median, q3]` by the rule Python's `statistics.quantiles(v, n=4)`
/// uses (exclusive method), so a spread computed here matches one computed
/// from the printed samples. A single sample is its own quartiles.
pub fn quartiles(values: &mut [f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 1 {
        return [values[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May fall outside [0, 4] at the clamped ends: the exclusive
        // method extrapolates there, as Python's does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median.
pub fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let mut v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) -> [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&mut [4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&mut [3.0, 1.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&mut [7.0]), [7.0; 3]);
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
    }
}
