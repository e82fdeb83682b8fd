//! Percentiles, failure accounting and medians.
//!
//! A request that fails or is refused never delivers an allocation, so it
//! counts as missing every latency limit: it ranks above every measured
//! sample, and a percentile that lands on it reads as infinitely late.

/// Latency samples of one measurement (milliseconds) plus the requests
/// that failed or were refused.
#[derive(Debug, Clone, Default)]
pub struct Latencies {
    samples: Vec<f64>,
    misses: u64,
    sorted: bool,
}

impl Latencies {
    /// Records one request that delivered its allocation `ms` after it
    /// started.
    pub fn record(&mut self, ms: f64) {
        self.samples.push(ms);
        self.sorted = false;
    }

    /// Records one request that failed or was refused.
    pub fn miss(&mut self) {
        self.misses += 1;
    }

    /// Requests accounted for: samples and misses.
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.misses
    }

    /// Requests that failed or were refused.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Nearest-rank `p`-th percentile (0 < p ≤ 100) over every attempted
    /// request.  Misses rank last, so a percentile that reaches them is
    /// `f64::INFINITY`; `None` when nothing was attempted.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        let n = self.attempted();
        if n == 0 {
            return None;
        }
        if !self.sorted {
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = nearest_rank(p, n);
        Some(match self.samples.get(rank as usize - 1) {
            Some(&value) => value,
            None => f64::INFINITY,
        })
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` values.
fn nearest_rank(p: f64, n: u64) -> u64 {
    ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Minimum, median and maximum of `values`; `None` when empty.
pub fn min_median_max(values: &[f64]) -> Option<(f64, f64, f64)> {
    let lo = values.iter().copied().min_by(f64::total_cmp)?;
    let hi = values.iter().copied().max_by(f64::total_cmp)?;
    Some((lo, median(values)?, hi))
}

/// Arithmetic mean; `None` when empty.
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

    fn filled(n: u64) -> Latencies {
        let mut l = Latencies::default();
        for i in 1..=n {
            l.record(i as f64);
        }
        l
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut l = filled(100);
        assert_eq!(l.percentile(50.0), Some(50.0));
        assert_eq!(l.percentile(99.0), Some(99.0));
        assert_eq!(l.percentile(100.0), Some(100.0));
        assert_eq!(l.percentile(0.1), Some(1.0));
        // A thousand samples leave ten beyond the 99th percentile.
        let mut thousand = filled(1000);
        assert_eq!(thousand.percentile(99.0), Some(990.0));
    }

    #[test]
    fn samples_need_not_arrive_sorted() {
        let mut l = Latencies::default();
        for v in [5.0, 1.0, 4.0, 2.0, 3.0] {
            l.record(v);
        }
        assert_eq!(l.percentile(50.0), Some(3.0));
        l.record(0.5);
        assert_eq!(l.percentile(1.0), Some(0.5), "a late sample re-sorts");
    }

    #[test]
    fn failures_count_as_misses_in_the_tail() {
        let mut l = filled(98);
        l.miss();
        l.miss();
        assert_eq!(l.attempted(), 100);
        assert_eq!(l.misses(), 2);
        assert_eq!(l.percentile(98.0), Some(98.0));
        assert_eq!(l.percentile(99.0), Some(f64::INFINITY));
        // Misses shift the median too: they are attempted requests.
        let mut half = filled(2);
        half.miss();
        half.miss();
        assert_eq!(half.percentile(50.0), Some(2.0));
        assert_eq!(half.percentile(75.0), Some(f64::INFINITY));
    }

    #[test]
    fn empty_sets_have_no_percentile() {
        let mut l = Latencies::default();
        assert_eq!(l.percentile(50.0), None);
        let mut only_misses = Latencies::default();
        only_misses.miss();
        assert_eq!(only_misses.percentile(50.0), Some(f64::INFINITY));
    }

    #[test]
    fn medians_and_spreads() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(min_median_max(&[5.0, 1.0, 3.0]), Some((1.0, 3.0, 5.0)));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
