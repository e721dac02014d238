//! Order statistics over timing samples.
//!
//! A failed or refused request enters a latency sample set as
//! `f64::INFINITY`, so it misses every latency limit and pushes the
//! tail up instead of silently shrinking the sample.

/// Percentiles the tail helper may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// Samples that must lie beyond a reported percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank position (0-based) of percentile `p` among `n` sorted
/// samples.
fn rank(p: f64, n: usize) -> usize {
    let r = (p * n as f64 / 100.0).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(p, n)
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100); `None` on no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len())])
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(p, samples.len()) >= TAIL_MIN_BEYOND)?;
    percentile(samples, p).map(|v| (p, v))
}

/// Samples a run needs before percentile `p` has enough beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(p, n) >= TAIL_MIN_BEYOND)
        .expect("some sample count supports every percentile below 100")
}

/// Median (nearest rank); 0 on no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99.9 leaves 1 beyond, p99 leaves exactly 10.
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9990.0)));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.0), Some(95.0));
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&v), None, "no ladder percentile has 10 beyond");
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        let mut v: Vec<f64> = (1..=1000).map(f64::from).collect();
        for x in v.iter_mut().take(11) {
            *x = f64::INFINITY;
        }
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
        assert!(tail(&v).unwrap().1.is_infinite());
        assert_eq!(median(&v), 511.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert_eq!(percentile(&v, 1.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
