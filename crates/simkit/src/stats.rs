//! Streaming statistics, percentiles, and tail-index estimation.

use std::cmp::Reverse;

/// Streaming mean/variance/min/max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Add every value of an iterator.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, it: I) {
        for x in it {
            self.push(x);
        }
    }

    /// Build from an iterator.
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = f64>>(it: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(it);
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev / mean); 0 when mean is 0.
    ///
    /// This is the "performance envelope" metric of §V-A: the SOW required
    /// RAID-group bandwidth to vary no more than 5% of the average.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Minimum observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Relative spread `(max - min) / mean`; the intra-SSU "slowest within 5%
    /// of the fastest" criterion uses `(max - min) / max`.
    pub fn relative_spread(&self) -> f64 {
        let m = self.mean();
        if self.n == 0 || m == 0.0 {
            0.0
        } else {
            (self.max - self.min) / m
        }
    }

    /// `(max - min) / max`: how far the slowest member falls below the
    /// fastest, as used by the SSU acceptance criterion in §V-A.
    pub fn below_fastest(&self) -> f64 {
        if self.n == 0 || self.max <= 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.max
        }
    }

    /// Sample (Bessel-corrected, `n - 1`) variance; 0 for fewer than 2
    /// observations. The population [`variance`](Self::variance) describes
    /// the data at hand; this one estimates the distribution the data were
    /// drawn from, which is what confidence intervals need.
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard error of the mean, `sqrt(sample_variance / n)`; 0 when empty.
    pub fn sem(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sample_variance() / self.n as f64).sqrt()
        }
    }

    /// Half-width of the normal-approximation 95% confidence interval on the
    /// mean (`z = 1.96 * sem`). Monte Carlo replication counts are large
    /// enough that the normal approximation is the right default; for rare
    /// binary outcomes use [`wilson_interval`] instead.
    pub fn ci95_half_width(&self) -> f64 {
        const Z_95: f64 = 1.959_963_984_540_054;
        Z_95 * self.sem()
    }

    /// Merge another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Wilson score interval for a binomial proportion: `(lo, hi)` bounds on the
/// success probability after observing `successes` of `trials`, at normal
/// quantile `z` (1.96 for 95%).
///
/// Unlike the Wald interval, Wilson stays inside `[0, 1]` and remains
/// informative when `successes` is 0 or equals `trials` — exactly the regime
/// rare-event reliability estimates live in (e.g. "0 data-loss replications
/// out of 10,000" still yields a nonzero upper bound).
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(successes <= trials, "more successes than trials");
    assert!(z >= 0.0, "z must be non-negative");
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = p + z2 / (2.0 * n);
    let spread = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((center - spread) / denom).max(0.0),
        ((center + spread) / denom).min(1.0),
    )
}

/// [`wilson_interval`] at 95% confidence.
pub fn wilson95(successes: u64, trials: u64) -> (f64, f64) {
    wilson_interval(successes, trials, 1.959_963_984_540_054)
}

/// Percentile (`q` in `[0, 1]`) of a sample by linear interpolation.
/// Sorts a copy; panics on an empty slice or NaN values.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of empty sample");
    assert!((0.0..=1.0).contains(&q), "q must be in [0,1]");
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Hill estimator for the tail index `alpha` of a heavy-tailed sample, using
/// the largest `k` order statistics.
///
/// `spider-workload::characterize` fits the observed inter-arrival and idle
/// times with this estimator to verify the paper's Pareto claim (§II): a
/// genuinely Pareto(alpha) sample yields an estimate near `alpha`, while a
/// light-tailed (e.g. exponential) sample yields a large, drifting estimate.
///
/// The estimator takes the samples by value and works in place: it drops
/// the values that are not positive (NaN among them), then orders only the
/// top `k + 1`. A selection puts the (k+1)-th largest at `v[k]` and the `k`
/// larger ones before it, which are then sorted descending. Positive floats
/// order as their bit patterns do, and equal values have equal bits, so the
/// sum runs over the same values in the same order as after a full sort and
/// the estimate is the same bit for bit.
pub fn hill_tail_index(mut samples: Vec<f64>, k: usize) -> f64 {
    assert!(k >= 1 && k < samples.len(), "need 1 <= k < n");
    samples.retain(|x| *x > 0.0);
    assert!(samples.len() > k, "not enough positive samples");
    let desc = |x: &f64| Reverse(x.to_bits());
    let (top, &mut x_k, _) = samples.select_nth_unstable_by_key(k, desc); // (k+1)-th largest
    top.sort_unstable_by_key(desc);
    let sum: f64 = top.iter().map(|x| (x / x_k).ln()).sum();
    k as f64 / sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_iter(xs);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert!((s.cv() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_benign() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.cv(), 0.0);
        assert_eq!(s.relative_spread(), 0.0);
        assert_eq!(s.below_fastest(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let whole = OnlineStats::from_iter(xs.iter().copied());
        let mut a = OnlineStats::from_iter(xs[..37].iter().copied());
        let b = OnlineStats::from_iter(xs[37..].iter().copied());
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s = OnlineStats::from_iter(xs);
        let before = (s.mean(), s.variance(), s.count());
        s.merge(&OnlineStats::new());
        assert_eq!((s.mean(), s.variance(), s.count()), before);

        let mut e = OnlineStats::new();
        e.merge(&OnlineStats::from_iter(xs));
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_and_ci() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_iter(xs);
        // Population variance 4.0 over n=8 -> sample variance 32/7.
        assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
        let sem = (32.0 / 7.0 / 8.0_f64).sqrt();
        assert!((s.sem() - sem).abs() < 1e-12);
        assert!((s.ci95_half_width() - 1.959_963_984_540_054 * sem).abs() < 1e-12);
        // Degenerate accumulators stay benign.
        assert_eq!(OnlineStats::new().sem(), 0.0);
        assert_eq!(OnlineStats::from_iter([1.0]).ci95_half_width(), 0.0);
    }

    #[test]
    fn ci_covers_the_true_mean_at_roughly_the_nominal_rate() {
        let mut rng = SimRng::seed_from_u64(123);
        let mut covered = 0;
        let trials = 400;
        for _ in 0..trials {
            let s = OnlineStats::from_iter((0..64).map(|_| rng.exp(5.0)));
            if (s.mean() - 5.0).abs() <= s.ci95_half_width() {
                covered += 1;
            }
        }
        // Normal-approx CI on skewed exponential data at n=64: allow a
        // generous band around the nominal 95%.
        let rate = f64::from(covered) / f64::from(trials);
        assert!((0.88..=0.99).contains(&rate), "coverage {rate}");
    }

    #[test]
    fn wilson_bounds_behave() {
        // Symmetric case contains the point estimate.
        let (lo, hi) = wilson95(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25);
        // Zero successes still exclude nothing at the low end but bound the
        // high end away from 1.
        let (lo0, hi0) = wilson95(0, 10_000);
        assert_eq!(lo0, 0.0);
        assert!(hi0 > 0.0 && hi0 < 1e-3, "{hi0}");
        // All successes mirror that.
        let (lo1, hi1) = wilson95(10_000, 10_000);
        assert_eq!(hi1, 1.0);
        assert!(lo1 > 0.999);
        // Degenerate inputs.
        assert_eq!(wilson95(0, 0), (0.0, 1.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 1.0), 40.0);
        assert!((percentile(&xs, 0.5) - 25.0).abs() < 1e-12);
        // Single element: every percentile is that element.
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn below_fastest_matches_acceptance_criterion() {
        // Slowest group at 95 of fastest 100 -> exactly 5%.
        let s = OnlineStats::from_iter([95.0, 98.0, 100.0]);
        assert!((s.below_fastest() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn hill_recovers_pareto_alpha() {
        let mut rng = SimRng::seed_from_u64(99);
        let alpha = 1.5;
        let xs: Vec<f64> = (0..50_000).map(|_| rng.pareto(1.0, alpha)).collect();
        let est = hill_tail_index(xs, 2_000);
        assert!((est - alpha).abs() < 0.15, "estimate {est}");
    }

    /// The Hill estimate over a fully sorted copy, as computed before the
    /// selection.
    fn hill_by_full_sort(samples: &[f64], k: usize) -> f64 {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| *x > 0.0).collect();
        v.sort_by(|a, b| b.total_cmp(a));
        let sum: f64 = v[..k].iter().map(|x| (x / v[k]).ln()).sum();
        k as f64 / sum
    }

    /// Most draws come from a few levels (zero, a negative and NaN among
    /// them, which the estimator drops, and +inf, which it keeps), so order
    /// statistics tie often, and the rest are distinct, so a change in
    /// summation order shows.
    const LEVELS: [f64; 7] = [0.0, -1.0, 0.5, 1.0, 2.0, f64::INFINITY, f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn hill_selection_matches_full_sort_bitwise(
            draws in proptest::collection::vec((0usize..10, 0.25f64..64.0), 2..400),
        ) {
            let xs: Vec<f64> = draws
                .iter()
                .map(|&(level, x)| LEVELS.get(level).copied().unwrap_or(x))
                .collect();
            let m = xs.iter().filter(|x| **x > 0.0).count();
            proptest::prop_assume!(m >= 2);
            for k in [1, m / 2, m - 1] {
                let got = hill_tail_index(xs.clone(), k);
                let want = hill_by_full_sort(&xs, k);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "k = {}", k);
            }
        }
    }

    #[test]
    fn hill_distinguishes_light_tails() {
        let mut rng = SimRng::seed_from_u64(100);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.exp(1.0)).collect();
        let est = hill_tail_index(xs, 2_000);
        // Exponential has "infinite" tail index; estimate should be well
        // above any plausible Pareto fit.
        assert!(est > 3.0, "estimate {est}");
    }
}
