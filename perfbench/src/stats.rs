//! Exact order statistics over the benchmark's own samples.
//!
//! Latencies are kept as raw values (no histogram buckets), so a
//! percentile is one of the measured samples. A request that was
//! rejected or never answered is stored as `f64::INFINITY`: it sorts
//! above every real latency and therefore counts as over every limit.

/// Nearest-rank percentile of `values` for `q` in `(0, 1]`: the
/// `ceil(q · n)`-th smallest sample. `None` for an empty slice.
pub fn nearest_rank(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> Option<f64> {
    nearest_rank(values, 0.5)
}

/// The tail latency of `values`: the highest nearest-rank percentile, up
/// to p99, that leaves at least ten samples beyond it — p99 from 1,000
/// samples on, p80 at 50. With fewer than 11 samples no percentile
/// leaves ten beyond, and the slowest sample is reported.
pub fn tail(values: &[f64]) -> Option<f64> {
    let n = values.len();
    if n < 11 {
        return values.iter().copied().max_by(f64::total_cmp);
    }
    nearest_rank(values, (1.0 - 10.0 / n as f64).min(0.99))
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_percentile() {
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&[], 0.99), None);
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn one_sample_is_every_percentile() {
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(nearest_rank(&[3.5], q), Some(3.5));
        }
    }

    #[test]
    fn all_equal_samples() {
        let v = vec![2.25; 1000];
        assert_eq!(median(&v), Some(2.25));
        assert_eq!(nearest_rank(&v, 0.99), Some(2.25));
    }

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&v), Some(50.0));
        assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 0.5), Some(1.0));
    }

    #[test]
    fn rejected_counts_as_infinite() {
        // 985 answered, 15 rejected: p99 lands on a rejected request, the
        // median on an answered one.
        let mut v: Vec<f64> = (0..985).map(|i| 1.0 + i as f64 * 1e-3).collect();
        v.extend(std::iter::repeat_n(f64::INFINITY, 15));
        assert_eq!(nearest_rank(&v, 0.99), Some(f64::INFINITY));
        assert!(median(&v).unwrap().is_finite());
        // A single rejection still sorts above every real latency.
        let w = [f64::INFINITY, 5.0, 7.0];
        assert_eq!(nearest_rank(&w, 1.0), Some(f64::INFINITY));
        assert_eq!(median(&w), Some(7.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[]), None);
        assert_eq!(tail(&[4.0]), Some(4.0));
        assert_eq!(tail(&[1.0, 9.0, 3.0]), Some(9.0));
        let fifty: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&fifty), Some(40.0));
        let many: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&many), nearest_rank(&many, 0.99));
        let mut rejected = vec![1.0; 990];
        rejected.extend([f64::INFINITY; 10]);
        assert_eq!(tail(&rejected), Some(1.0));
        rejected.push(f64::INFINITY);
        assert_eq!(tail(&rejected), Some(f64::INFINITY));
    }
}
