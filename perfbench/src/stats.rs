//! Percentiles that carry their sample counts.
//!
//! Every timing the benchmark prints is a percentile of a sample, and a
//! percentile is only as good as the number of samples beyond it. So a
//! [`Pct`] keeps both: the value and how many samples it rests on.

/// One percentile of a sample, with the sample size and the number of
/// samples strictly above the percentile's rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The percentile's value (nearest-rank on the sorted sample).
    pub value: f64,
    /// Samples in the whole set.
    pub n: usize,
    /// Samples ranked above this percentile.
    pub beyond: usize,
}

impl Pct {
    /// `value (n=…, beyond=…)`, the form every report line uses.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "{:.6} {unit} (n={}, beyond={})",
            self.value, self.n, self.beyond
        )
    }
}

/// Nearest-rank percentile `q` (0 < q ≤ 100) of `xs`. Non-finite
/// samples (failed operations counted as missing every limit) sort
/// last. `None` for an empty sample.
pub fn percentile(xs: &[f64], q: f64) -> Option<Pct> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Nearest rank: the smallest value with at least q% of the sample
    // at or below it.
    let rank = ((q / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    Some(Pct {
        value: v[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `xs` (nearest-rank p50); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    percentile(xs, 50.0).map(|p| p.value)
}

/// The report line for the set-up repetitions behind `setup_s`.
pub fn describe_setup(times: &[f64]) -> String {
    let lo = times.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = times.iter().copied().fold(0.0, f64::max);
    format!(
        "setup_s = median of {} set-up(s), min {lo:.6} s, max {hi:.6} s",
        times.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_its_sample_count_and_tail() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = percentile(&xs, 50.0).expect("non-empty");
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.n, 100);
        assert_eq!(p50.beyond, 50);
        let p90 = percentile(&xs, 90.0).expect("non-empty");
        assert_eq!(p90.value, 90.0);
        assert_eq!(p90.beyond, 10);
        let p99 = percentile(&xs, 99.0).expect("non-empty");
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert!(p99.describe("ms").contains("n=100, beyond=1"));
    }

    #[test]
    fn percentile_of_small_samples_is_an_observed_value() {
        let xs = [3.0, 1.0, 2.0];
        assert_eq!(percentile(&xs, 50.0).map(|p| p.value), Some(2.0));
        assert_eq!(
            percentile(&xs, 99.0).map(|p| (p.value, p.beyond)),
            Some((3.0, 0))
        );
        assert_eq!(percentile(&[7.5], 90.0).map(|p| p.value), Some(7.5));
        assert!(percentile(&[], 50.0).is_none());
        assert_eq!(median(&[4.0, 1.0]), Some(1.0));
    }

    #[test]
    fn failures_sort_past_every_latency() {
        let mut xs: Vec<f64> = (1..=99).map(f64::from).collect();
        xs.push(f64::INFINITY);
        let p99 = percentile(&xs, 99.0).expect("non-empty");
        assert_eq!(p99.value, 99.0);
        let p100 = percentile(&xs, 100.0).expect("non-empty");
        assert!(p100.value.is_infinite());
    }
}
