//! Order statistics over exact samples.

/// Fewest samples a reported percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (a fraction, e.g. `0.999`) of `sorted`,
/// which must be in ascending order. `None` when `sorted` is empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    let rank = nearest_rank(sorted.len(), q)?;
    Some(sorted[rank - 1])
}

/// Mean of the samples at or beyond the nearest-rank percentile `q` of
/// `sorted` (ascending): the average op among the slowest `1 - q`. Unlike
/// a single order statistic it moves with every tail sample, so it is not
/// pinned to one of the few values a deterministic cost model produces.
/// 0 when `sorted` is empty.
pub fn tail_mean(sorted: &[u64], q: f64) -> f64 {
    match nearest_rank(sorted.len(), q) {
        Some(rank) => {
            let tail = &sorted[rank - 1..];
            tail.iter().map(|&x| x as f64).sum::<f64>() / tail.len() as f64
        }
        None => 0.0,
    }
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    nearest_rank(n, q).map_or(0, |rank| n - rank)
}

fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Round first: q * n carries float error (0.999 * 10_000 is not
    // exactly 9_990), and the rank is a whole number.
    let exact = (q * n as f64 * 1e6).round() / 1e6;
    Some((exact.ceil() as usize).clamp(1, n))
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    assert!(m > 0, "median of no values");
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// First and third quartiles, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method). A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let n = 4;
    let at = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p999_needs_ten_thousand_samples() {
        assert_eq!(samples_beyond(10_000, 0.999), 10);
        assert_eq!(samples_beyond(9_999, 0.999), 9);
        assert_eq!(samples_beyond(1_000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&s, 0.5), Some(500));
        assert_eq!(percentile(&s, 0.999), Some(999));
        assert_eq!(percentile(&s, 1.0), Some(1000));
        assert_eq!(percentile(&[7], 0.999), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
        // Ranks 999 and 1000 of 1..=1000.
        assert_eq!(tail_mean(&s, 0.999), 999.5);
        assert_eq!(tail_mean(&[], 0.999), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
