//! The benchmark's own arithmetic: medians, the tail percentile, the
//! failure ratio and span coverage. Kept free of I/O so the tests below
//! pin every rule the reported numbers depend on.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest rank
/// with at least a share `q` of the samples at or below it.
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank quantile `q` (0 < q ≤ 1) of `values`; `NaN` when empty.
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank quantile
/// `q`.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, q)
    }
}

/// The tail latency to report for quantile `q`: the quantile itself when
/// at least [`MIN_TAIL_SAMPLES`] samples lie beyond it, else the median —
/// too few samples support no percentile above it.
pub fn reported_tail(values: &[f64], q: f64) -> f64 {
    if samples_beyond(values.len(), q) >= MIN_TAIL_SAMPLES {
        percentile(values, q)
    } else {
        median(values)
    }
}

#[cfg(test)]
/// Fewest samples for which quantile `q` has [`MIN_TAIL_SAMPLES`] beyond
/// it — the run length a tail percentile needs before it is reported as
/// that percentile.
pub fn samples_needed(q: f64) -> usize {
    (1..).find(|&n| samples_beyond(n, q) >= MIN_TAIL_SAMPLES).expect("q < 1 always has a bound")
}

/// Failed or refused operations as a share of those attempted. A refused
/// operation is attempted and failed alike, so the base is every
/// attempt, never only the ones that ran. Nothing attempted is total
/// failure.
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Total length of the union of half-open intervals `(start, end)`.
fn union_len(intervals: &[(f64, f64)]) -> f64 {
    let mut sorted: Vec<(f64, f64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in sorted {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Share of `root` covered by at least one of `parts`, each clipped to
/// the root: overlapping parts (parallel workers) count once, so the
/// ratio is at most 1 and the gap to 1 is time no part accounts for.
pub fn coverage(root: (f64, f64), parts: &[(f64, f64)]) -> f64 {
    let span = root.1 - root.0;
    if span <= 0.0 {
        return 0.0;
    }
    let clipped: Vec<(f64, f64)> =
        parts.iter().map(|&(s, e)| (s.max(root.0), e.min(root.1))).collect();
    union_len(&clipped) / span
}

/// A span's self time: its duration minus the part its children cover.
pub fn self_time(span: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (span.1 - span.0) - coverage(span, children) * (span.1 - span.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_needs_one_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_needed(0.9), 100);
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1, 0.9), 0);
        assert_eq!(samples_needed(0.5), 20);
        assert_eq!(samples_needed(0.99), 1000);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.5), 50.0);
        // A short run's p90 is its maximum: nothing lies beyond it.
        assert_eq!(percentile(&[5.0, 1.0], 0.9), 5.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn tail_falls_back_to_the_median_without_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(reported_tail(&hundred, 0.9), 90.0);
        assert_eq!(reported_tail(&hundred[..99], 0.9), 50.0);
        assert_eq!(reported_tail(&[4.0, 1.0], 0.9), 2.5);
    }

    #[test]
    fn failed_ratio_counts_refusals_in_the_base() {
        // Four scorecards attempted, one refused: the base stays four.
        assert_eq!(failed_ratio(1, 4), 0.25);
        assert_eq!(failed_ratio(0, 120), 0.0);
        assert_eq!(failed_ratio(0, 0), 1.0);
    }

    #[test]
    fn coverage_counts_overlap_once_and_clips_to_the_root() {
        let root = (0.0, 10.0);
        assert_eq!(coverage(root, &[(0.0, 4.0), (6.0, 10.0)]), 0.8);
        // Two workers busy over the same interval cover it once.
        assert_eq!(coverage(root, &[(0.0, 10.0), (0.0, 10.0)]), 1.0);
        assert_eq!(coverage(root, &[(2.0, 6.0), (4.0, 8.0)]), 0.6);
        assert_eq!(coverage(root, &[(-5.0, 2.0), (9.0, 20.0)]), 0.3);
        assert_eq!(coverage(root, &[]), 0.0);
        assert_eq!(coverage((1.0, 1.0), &[(0.0, 2.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (2.0, 5.0)]), 6.0);
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
    }
}
