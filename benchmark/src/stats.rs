//! Order statistics for timing samples.

/// Median of `xs` (mean of the two middle values for an even count, as
/// Python's `statistics.median`); 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank 1-based position of percentile `p` among `n` samples,
/// in integer per-mille arithmetic so that e.g. p99.9 of 10 000 samples is
/// exactly the 9 990th.
fn rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile `p` (in `0..=100`) of `xs`; 0 for an empty
/// slice. `n - rank` samples lie beyond the returned one.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    s[rank(p, s.len()) - 1]
}

/// The percentiles a report may quote, highest first.
const LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// The highest percentile of [`LADDER`] with at least [`BEYOND`] of `n`
/// samples beyond it, or `None` when even the median lacks them.
pub fn reportable_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank(p, n) >= BEYOND)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_the_statistics_module() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn reportable_percentile_keeps_ten_samples_beyond() {
        // p90 of 100 samples is the 90th; ten lie beyond it.
        assert_eq!(reportable_percentile(100), Some(90.0));
        assert_eq!(reportable_percentile(99), Some(50.0));
        assert_eq!(reportable_percentile(20), Some(50.0));
        assert_eq!(reportable_percentile(19), None);
        assert_eq!(reportable_percentile(0), None);
        assert_eq!(reportable_percentile(999), Some(90.0));
        assert_eq!(reportable_percentile(1_000), Some(99.0));
        assert_eq!(reportable_percentile(10_000), Some(99.9));
        for n in 1..3_000 {
            if let Some(p) = reportable_percentile(n) {
                assert!(n - rank(p, n) >= BEYOND, "n={n} p={p}");
            }
        }
    }
}
