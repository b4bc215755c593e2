//! Order statistics the benchmark reports: medians, quartiles and the tail
//! percentile rule.

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), the
/// rule the steadiness record uses across runs. Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // `delta` may exceed 4 when `j` was clamped, exactly as in Python.
        let delta = i as f64 * m as f64 - j as f64 * 4.0;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Percentiles the tail rule considers, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail must leave beyond it.
const TAIL_MIN_BEYOND: usize = 10;

/// A tail summary: the percentile chosen, its value, and how many samples
/// lie beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked above the percentile.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest percentile with at least ten samples beyond it, by nearest
/// rank (rank `ceil(n * p / 100)`). With fewer than 20 samples no
/// percentile qualifies and the median is returned with its (short)
/// count beyond, so the printed line shows the tail is thin.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let at = |p: f64| {
        // Integer rank in tenths of a percent avoids float rounding at
        // exact boundaries (e.g. 1000 * 0.99).
        let permille = (p * 10.0).round() as usize;
        let rank = (n * permille).div_ceil(1000).max(1);
        Tail {
            percentile: p,
            value: s[rank - 1],
            beyond: n - rank,
            count: n,
        }
    };
    Some(
        TAIL_PERCENTILES
            .iter()
            .map(|&p| at(p))
            .find(|t| t.beyond >= TAIL_MIN_BEYOND)
            .unwrap_or_else(|| at(50.0)),
    )
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
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]:
        // clamped ranks extrapolate, as in Python.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_picks_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1_067).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 99.0);
        assert_eq!((t.beyond, t.count), (10, 1_067));
        assert_eq!(t.value, 1_057.0);

        // 180 samples: p95 leaves only 9 beyond, so p90 it is.
        let xs: Vec<f64> = (1..=180).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 18);
        assert_eq!(t.value, 162.0);

        // 10 000 samples reach p99.9 exactly.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().percentile, 99.9);
    }

    #[test]
    fn thin_tail_falls_back_to_median_with_its_count() {
        let t = tail(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!(t.percentile, 50.0);
        assert_eq!((t.value, t.beyond, t.count), (3.0, 1, 3));
        assert_eq!(tail(&[]), None);
    }
}
