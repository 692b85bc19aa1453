//! Order statistics for the reported timings.
//!
//! Every timing is reported as a median plus the highest percentile
//! that still has at least [`MIN_BEYOND`] samples beyond it, with the
//! sample count stated next to it.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Index of the nearest-rank `p`-th percentile in a sorted slice of
/// `n` samples (`n > 0`).
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `0.999 * 10000` from rounding up past 9990.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending slice; `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p)]
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, or `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// The fewest samples that leave [`MIN_BEYOND`] beyond percentile `p`.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some n qualifies")
}

/// Median plus rule-conforming tail of one set of timings.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile level, when the rule allows one.
    pub tail_level: Option<f64>,
    /// The value at `tail_level` (the maximum when no level qualifies).
    pub tail: f64,
}

/// Summarizes `samples` (any order) with the highest tail the rule
/// allows.
pub fn summarize(samples: &[f64]) -> Summary {
    summarize_at(samples, tail_level(samples.len()))
}

/// Summarizes `samples` (any order) with the tail at `level`; `None`
/// reports the maximum.
pub fn summarize_at(samples: &[f64], level: Option<f64>) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_level: level,
        tail: percentile(&sorted, level.unwrap_or(100.0)),
    }
}

/// Geometric mean of positive rates.
pub fn geomean(rates: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = rates
        .into_iter()
        .fold((0.0, 0usize), |(s, n), r| (s + r.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Median of `samples` (any order); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(tail_level(1000), Some(99.0));
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(tail_level(999), Some(95.0));
        assert_eq!(tail_level(10_000), Some(99.9));
    }

    #[test]
    fn every_chosen_level_leaves_ten_beyond() {
        for n in 0..3000 {
            match tail_level(n) {
                Some(p) => {
                    assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
                    // No higher ladder level also qualifies.
                    for q in LADDER.into_iter().filter(|&q| q > p) {
                        assert!(beyond(n, q) < MIN_BEYOND, "n={n} q={q}");
                    }
                }
                None => assert!(beyond(n, 50.0) < MIN_BEYOND, "n={n}"),
            }
        }
    }

    #[test]
    fn small_sets_fall_down_the_ladder() {
        assert_eq!(tail_level(40), Some(75.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
    }

    #[test]
    fn min_samples_is_the_first_count_with_ten_beyond() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(50.0), 20);
        for p in LADDER {
            let n = min_samples(p);
            assert!(beyond(n, p) >= MIN_BEYOND && beyond(n - 1, p) < MIN_BEYOND);
        }
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(geomean(std::iter::empty()).is_nan());
    }

    #[test]
    fn summary_reports_nearest_rank_values() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_level, Some(99.0));
        assert_eq!(s.tail, 990.0);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_level, few.tail), (2.0, None, 3.0));
    }
}
