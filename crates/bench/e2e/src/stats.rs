//! Order statistics used for reporting and for `compare`.

/// Median (mean of the two middle values for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Means of consecutive runs of `values`, each run closed as soon as its
/// sum reaches `batch`. A trailing run short of `batch` is dropped, unless
/// it is the only one.
pub fn batch_means(values: &[f64], batch: f64) -> Vec<f64> {
    let mut means = Vec::new();
    let (mut sum, mut n) = (0.0, 0);
    for &v in values {
        sum += v;
        n += 1;
        if sum >= batch {
            means.push(sum / f64::from(n));
            (sum, n) = (0.0, 0);
        }
    }
    if means.is_empty() && n > 0 {
        means.push(sum / f64::from(n));
    }
    means
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads reported here match the ones an outside script computes. With a
/// single value all three are that value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        ld => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn batch_means_close_at_the_batch_sum() {
        let v = [0.25, 0.75, 0.5, 0.5, 2.0, 0.25];
        assert_eq!(batch_means(&v, 1.0), [0.5, 0.5, 2.0]);
        assert_eq!(batch_means(&[0.25, 0.5], 1.0), [0.375]);
        assert!(batch_means(&[], 1.0).is_empty());
    }
}
