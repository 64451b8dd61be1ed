//! Sample summaries: medians and percentiles over timed repetitions.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `v`; `NaN` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of `v`; `NaN` when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// `max / mean` of `v` (1.0 is perfectly balanced).
pub fn imbalance(v: &[f64]) -> f64 {
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    v.iter().copied().fold(f64::MIN, f64::max) / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        assert_eq!(imbalance(&[1.0, 1.0]), 1.0);
        assert_eq!(imbalance(&[3.0, 1.0]), 1.5);
    }
}
