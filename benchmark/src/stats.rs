//! Order statistics. Timings are reported as medians and nearest-rank
//! percentiles; a percentile is only trusted when at least
//! [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    v
}

/// Median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest-rank of percentile `p` (0 < p < 1) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile; `None` — refused — when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || n - rank(n, p) < MIN_BEYOND {
        return None;
    }
    Some(sorted(values)[rank(n, p) - 1])
}

/// Quantile `q` (0..=1) with linear interpolation between the two
/// nearest order statistics (the "inclusive" method); 0 for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_refuses_without_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // p95 of 200: rank 190, exactly 10 beyond.
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        assert_eq!(percentile(&v[..199], 0.95), None, "9 beyond is refused");
        assert_eq!(percentile(&v, 0.99), None);
        let k: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&k, 0.99), Some(990.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [40.0, 10.0, 20.0, 30.0];
        assert_eq!(quantile(&v, 0.0), 10.0);
        assert_eq!(quantile(&v, 0.5), 25.0);
        assert_eq!(quantile(&v, 0.95), 38.5);
        assert_eq!(quantile(&v, 1.0), 40.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
