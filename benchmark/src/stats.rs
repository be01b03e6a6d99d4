//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between order statistics. Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The tail percentiles this benchmark may report, highest first, in
/// per mille (integers, so the sample-count rule has no rounding edge).
const TAILS_PER_MILLE: [usize; 4] = [999, 990, 900, 750];

/// The highest of p99.9 / p99 / p90 / p75 that still has at least ten
/// samples beyond it, or `None` when even p75 has fewer (then only the
/// median is reported).
pub fn highest_reportable_tail(n: usize) -> Option<f64> {
    TAILS_PER_MILLE
        .into_iter()
        .find(|&pm| n * (1000 - pm) / 1000 >= 10)
        .map(|pm| pm as f64 / 1000.0)
}

/// Whether `n` samples carry a p99 (at least ten samples lie beyond it).
pub fn p99_reportable(n: usize) -> bool {
    highest_reportable_tail(n).is_some_and(|p| p >= 0.99)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_reportable_tail(16), None);
        assert_eq!(highest_reportable_tail(39), None);
        assert_eq!(highest_reportable_tail(40), Some(0.75));
        assert_eq!(highest_reportable_tail(100), Some(0.9));
        assert_eq!(highest_reportable_tail(999), Some(0.9));
        assert_eq!(highest_reportable_tail(1000), Some(0.99));
        assert_eq!(highest_reportable_tail(10_000), Some(0.999));
        assert!(!p99_reportable(999));
        assert!(p99_reportable(1000));
    }
}
