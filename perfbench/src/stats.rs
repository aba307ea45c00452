//! Order statistics over timing samples.

/// Median and quartiles of a sample, with its size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Summarize `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is empty.
    pub fn of(xs: &[f64]) -> Summary {
        assert!(!xs.is_empty(), "cannot summarize an empty sample");
        let sorted = sorted(xs);
        let [q1, _, q3] = quartiles_sorted(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median: median_sorted(&sorted),
            q3,
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_sorted(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median of `xs` (`NaN` for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    median_sorted(&sorted(xs))
}

/// The three cut points Python's `statistics.quantiles(xs, n=4)` returns
/// (its default "exclusive" method); a one-element sample has all three at
/// that element.
fn quartiles_sorted(s: &[f64]) -> [f64; 3] {
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, cut) in out.iter_mut().enumerate() {
        let k = (i + 1) * m;
        let j = (k / 4).clamp(1, n - 1);
        // As in Python, the weight is taken against the clamped index, so
        // it may fall outside 0..=4 and extrapolate at the ends.
        let delta = k as f64 - 4.0 * j as f64;
        *cut = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// The nearest-rank `p`-quantile of `xs`, or `None` unless at least ten
/// samples lie beyond it — a tail percentile resting on fewer samples is
/// noise, so it is refused rather than reported.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&p), "percentile must be in [0, 1)");
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n - rank < 10 {
        return None;
    }
    Some(sorted(xs)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3.0, 1.0], n=4) == [0.5, 2.0, 3.5]
        let s = Summary::of(&[3.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.5, 2.0, 3.5));
    }

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_samples_beyond() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(tail_percentile(&xs, 0.99), None);
        // p90 has exactly ten beyond it.
        assert_eq!(tail_percentile(&xs, 0.90), Some(89.0));
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 0.99), Some(1979.0));
        assert_eq!(tail_percentile(&[], 0.5), None);
    }
}
