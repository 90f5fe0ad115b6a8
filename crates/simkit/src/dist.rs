//! Config-driven distribution descriptions.
//!
//! Workload specifications (`spider-workload`) embed [`Dist`] values so that a
//! whole workload — request sizes, inter-arrival times, burst volumes — is a
//! plain data structure that can be constructed, inspected, and sampled.
//!
//! The two families whose draws need more than their parameters,
//! [`BoundedPareto`] and [`Discrete`], are checked and precomputed once at
//! construction, so a draw does only the work that changes from one draw to
//! the next: one `powf` per bounded-Pareto draw, one pass over the weights
//! per discrete draw.

use crate::SimRng;

/// A one-dimensional distribution over non-negative reals.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean of the distribution.
        mean: f64,
    },
    /// Normal truncated at zero.
    Normal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        sd: f64,
    },
    /// Lognormal with underlying `mu`, `sigma`.
    LogNormal {
        /// Mean of the underlying normal (log scale).
        mu: f64,
        /// Standard deviation of the underlying normal (log scale).
        sigma: f64,
    },
    /// Bounded Pareto: scale `x_min`, tail index `alpha`, truncation `cap`.
    Pareto(BoundedPareto),
    /// Two-point mixture: with probability `p_first` sample `first`, else
    /// `second`. Captures the paper's bimodal request sizes (§II: "a majority
    /// of I/O requests are either small (under 16 KB) or large (multiples of
    /// 1 MB)").
    Bimodal {
        /// Probability of sampling `first`.
        p_first: f64,
        /// First mode.
        first: Box<Dist>,
        /// Second mode.
        second: Box<Dist>,
    },
    /// Discrete choice over `(value, weight)` pairs.
    Discrete(Discrete),
}

/// A Pareto distribution truncated to `[x_min, cap]`, sampled by inverting
/// its CDF.
///
/// The inverse needs `x_min^alpha` and `cap^alpha`, which are fixed for the
/// distribution, so [`new`](Self::new) computes them once and a draw costs
/// one uniform and one `powf`. [`SimRng::bounded_pareto`] delegates here, so
/// the formula exists once.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedPareto {
    /// `cap^alpha`.
    h: f64,
    /// `x_min^alpha`.
    l: f64,
    /// `h * l`, the inverse CDF's denominator.
    hl: f64,
    /// `-1 / alpha`, the inverse CDF's exponent.
    exponent: f64,
}

impl BoundedPareto {
    /// Scale `x_min`, tail index `alpha` (smaller is heavier-tailed) and
    /// truncation `cap`. Panics unless `x_min` and `alpha` are finite and
    /// positive and `cap` is finite and above `x_min`.
    pub fn new(x_min: f64, alpha: f64, cap: f64) -> Self {
        assert!(
            x_min.is_finite() && x_min > 0.0,
            "Pareto x_min must be finite and positive, got {x_min}"
        );
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "Pareto alpha must be finite and positive, got {alpha}"
        );
        assert!(
            cap.is_finite() && cap > x_min,
            "Pareto cap must be finite and exceed x_min {x_min}, got {cap}"
        );
        let l = x_min.powf(alpha);
        let h = cap.powf(alpha);
        BoundedPareto {
            h,
            l,
            hl: h * l,
            exponent: -1.0 / alpha,
        }
    }

    /// Draw one value in `[x_min, cap]` from one uniform.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.f64();
        let (h, l) = (self.h, self.l);
        (-(u * h - u * l - h) / self.hl).powf(self.exponent)
    }
}

/// A discrete choice over `(value, weight)` pairs: each value is drawn with
/// probability proportional to its weight.
///
/// [`new`](Self::new) checks the weights and sums them once. A draw takes one
/// uniform `x` in `[0, total)`, subtracts every weight from it in order and
/// returns the item at the count of remainders still above zero (the last
/// item if all are). Weights are non-negative and IEEE subtraction is
/// monotone, so the remainders never increase and that count is the index of
/// the first item that takes `x` to zero or below: the draw of an early-exit
/// walk, without its hard-to-predict branch.
#[derive(Debug, Clone, PartialEq)]
pub struct Discrete {
    items: Vec<(f64, f64)>,
    total: f64,
}

impl Discrete {
    /// Panics on an empty list, on a weight that is negative or not finite,
    /// and on weights whose sum is not finite.
    pub fn new(items: Vec<(f64, f64)>) -> Self {
        assert!(!items.is_empty(), "empty discrete distribution");
        for &(_, w) in &items {
            assert!(
                w.is_finite() && w >= 0.0,
                "discrete weight must be finite and non-negative, got {w}"
            );
        }
        let total: f64 = items.iter().map(|(_, w)| w).sum();
        assert!(total.is_finite(), "discrete weights sum to {total}");
        Discrete { items, total }
    }

    /// Draw one value from one uniform.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.value_at(rng.f64())
    }

    /// The value that uniform `u` in `[0, 1)` draws.
    fn value_at(&self, u: f64) -> f64 {
        let mut x = u * self.total;
        let mut above = 0;
        for (_, w) in &self.items {
            x -= w;
            above += usize::from(x > 0.0);
        }
        self.items[above.min(self.items.len() - 1)].0
    }

    /// The weighted mean of the values.
    fn mean(&self) -> f64 {
        self.items.iter().map(|(v, w)| v * w).sum::<f64>() / self.total
    }
}

impl Dist {
    /// A bimodal small/large request-size distribution in bytes, matching the
    /// paper's characterization: `p_small` of requests uniform in
    /// `(0, 16 KiB]`, the rest a whole multiple (1..=`max_mult`) of 1 MiB.
    pub fn paper_request_sizes(p_small: f64, max_mult: u32) -> Dist {
        let small = Dist::Uniform {
            lo: 512.0,
            hi: 16.0 * 1024.0,
        };
        let large = Dist::Discrete(Discrete::new(
            (1..=max_mult)
                .map(|m| (m as f64 * 1024.0 * 1024.0, 1.0 / m as f64))
                .collect(),
        ));
        Dist::Bimodal {
            p_first: p_small,
            first: Box::new(small),
            second: Box::new(large),
        }
    }

    /// Sample one value; never negative.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => rng.range_f64(*lo, *hi),
            Dist::Exponential { mean } => rng.exp(*mean),
            Dist::Normal { mean, sd } => rng.normal(*mean, *sd).max(0.0),
            Dist::LogNormal { mu, sigma } => rng.lognormal(*mu, *sigma),
            Dist::Pareto(p) => p.sample(rng),
            Dist::Bimodal {
                p_first,
                first,
                second,
            } => {
                if rng.chance(*p_first) {
                    first.sample(rng)
                } else {
                    second.sample(rng)
                }
            }
            Dist::Discrete(d) => d.sample(rng),
        }
    }

    /// The distribution's analytic mean where closed-form, otherwise an
    /// estimate from 10k samples with a fixed internal seed.
    pub fn mean(&self) -> f64 {
        match self {
            Dist::Constant(v) => *v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exponential { mean } => *mean,
            Dist::Normal { mean, .. } => *mean, // ignores the zero-truncation bias
            Dist::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Dist::Discrete(d) => d.mean(),
            Dist::Bimodal {
                p_first,
                first,
                second,
            } => p_first * first.mean() + (1.0 - p_first) * second.mean(),
            Dist::Pareto(_) => {
                let mut rng = SimRng::seed_from_u64(0xD157);
                let n = 10_000;
                (0..n).map(|_| self.sample(&mut rng)).sum::<f64>() / n as f64
            }
        }
    }

    /// Sample and round to a whole number of bytes (at least 1).
    pub fn sample_bytes(&self, rng: &mut SimRng) -> u64 {
        (self.sample(rng).round() as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mean(d: &Dist, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn constant_is_constant() {
        let d = Dist::Constant(5.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 5.0);
        }
        assert_eq!(d.mean(), 5.0);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Dist::Uniform { lo: 2.0, hi: 4.0 };
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = d.sample(&mut rng);
            assert!((2.0..4.0).contains(&x));
        }
        assert!((sample_mean(&d, 20_000, 3) - 3.0).abs() < 0.02);
        assert_eq!(d.mean(), 3.0);
    }

    #[test]
    fn discrete_respects_weights() {
        let d = Dist::Discrete(Discrete::new(vec![(1.0, 3.0), (10.0, 1.0)]));
        let mut rng = SimRng::seed_from_u64(4);
        let mut ones = 0;
        for _ in 0..10_000 {
            if d.sample(&mut rng) == 1.0 {
                ones += 1;
            }
        }
        assert!((ones as f64 / 10_000.0 - 0.75).abs() < 0.02, "{ones}");
        assert!((d.mean() - (3.0 + 10.0) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn bimodal_request_sizes_match_paper_shape() {
        let d = Dist::paper_request_sizes(0.55, 8);
        let mut rng = SimRng::seed_from_u64(5);
        let mut small = 0usize;
        let mut large_aligned = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let b = d.sample_bytes(&mut rng);
            if b <= 16 * 1024 {
                small += 1;
            } else if b.is_multiple_of(1024 * 1024) {
                large_aligned += 1;
            }
        }
        assert!((small as f64 / n as f64 - 0.55).abs() < 0.02);
        assert_eq!(
            small + large_aligned,
            n,
            "every large sample is MiB-aligned"
        );
    }

    #[test]
    fn lognormal_mean_closed_form() {
        let d = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.25,
        };
        let analytic = d.mean();
        let empirical = sample_mean(&d, 40_000, 6);
        assert!((analytic - empirical).abs() / analytic < 0.02);
    }

    #[test]
    fn normal_truncation_keeps_samples_non_negative() {
        let d = Dist::Normal { mean: 0.5, sd: 2.0 };
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..5_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn pareto_mean_is_estimated() {
        let d = Dist::Pareto(BoundedPareto::new(1.0, 2.0, 1e6));
        // True (unbounded) mean is 2.0; the bounded estimate should be close.
        assert!((d.mean() - 2.0).abs() < 0.2, "{}", d.mean());
    }

    /// A bounded-Pareto draw as computed before the powers were
    /// precomputed: both powers and the exponent on every draw.
    fn bounded_pareto_per_draw(rng: &mut SimRng, x_min: f64, alpha: f64, cap: f64) -> f64 {
        let l = x_min.powf(alpha);
        let h = cap.powf(alpha);
        let u = rng.f64();
        (-(u * h - u * l - h) / (h * l)).powf(-1.0 / alpha)
    }

    /// A discrete draw from uniform `u` as computed before the total was
    /// precomputed: the early-exit walk, falling through to the last item.
    fn discrete_early_exit(u: f64, items: &[(f64, f64)]) -> f64 {
        let total: f64 = items.iter().map(|(_, w)| w).sum();
        let mut x = u * total;
        for (v, w) in items {
            x -= w;
            if x <= 0.0 {
                return *v;
            }
        }
        items[items.len() - 1].0
    }

    /// The largest uniform below 1, where rounding can leave the walk's
    /// last remainder above zero.
    const LARGEST_UNIFORM: f64 = 1.0 - f64::EPSILON / 2.0;

    /// Weights come from a few repeated values, zero among them, so equal
    /// partial sums, zero-weight runs and remainders that land exactly on
    /// zero all occur.
    const WEIGHTS: [f64; 5] = [0.0, 1.0, 0.5, 3.0, 1.0 / 3.0];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        #[test]
        fn bounded_pareto_matches_the_per_draw_formula_bitwise(
            seed in proptest::prelude::any::<u64>(),
            x_min in 1e-6f64..100.0,
            alpha in 0.05f64..6.0,
            ratio in 1.0001f64..1e4,
        ) {
            let cap = x_min * ratio;
            let p = BoundedPareto::new(x_min, alpha, cap);
            let mut got = SimRng::seed_from_u64(seed);
            let mut want = SimRng::seed_from_u64(seed);
            for _ in 0..64 {
                proptest::prop_assert_eq!(
                    p.sample(&mut got).to_bits(),
                    bounded_pareto_per_draw(&mut want, x_min, alpha, cap).to_bits()
                );
                proptest::prop_assert_eq!(
                    got.bounded_pareto(x_min, alpha, cap).to_bits(),
                    bounded_pareto_per_draw(&mut want, x_min, alpha, cap).to_bits()
                );
            }
            proptest::prop_assert_eq!(got.f64().to_bits(), want.f64().to_bits());
        }

        #[test]
        fn discrete_matches_the_early_exit_walk_bitwise(
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec((0usize..WEIGHTS.len(), -8.0f64..8.0), 1..17),
        ) {
            let items: Vec<(f64, f64)> = picks.iter().map(|&(w, v)| (v, WEIGHTS[w])).collect();
            let d = Discrete::new(items.clone());
            // A draw is the value at one uniform.
            let mut got = SimRng::seed_from_u64(seed);
            let mut want = SimRng::seed_from_u64(seed);
            let mut us = Vec::new();
            for _ in 0..64 {
                let u = want.f64();
                proptest::prop_assert_eq!(d.sample(&mut got).to_bits(), d.value_at(u).to_bits());
                us.push(u);
            }
            proptest::prop_assert_eq!(got.f64().to_bits(), want.f64().to_bits());
            // Those uniforms, the ones that put `x` on a partial sum (a zero
            // remainder) and the ends of the range.
            let mut partial = 0.0;
            for (_, w) in &items {
                partial += w;
                us.push(partial / d.total);
            }
            us.extend([0.0, LARGEST_UNIFORM]);
            for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
                proptest::prop_assert_eq!(
                    d.value_at(u).to_bits(),
                    discrete_early_exit(u, &items).to_bits(),
                    "u = {}", u
                );
            }
        }
    }

    #[test]
    fn all_zero_discrete_weights_draw_the_first_item_as_before() {
        for n in 1u32..=16 {
            let items: Vec<(f64, f64)> = (0..n).map(|i| (f64::from(i), 0.0)).collect();
            let d = Discrete::new(items.clone());
            let mut rng = SimRng::seed_from_u64(n.into());
            for u in [0.0, rng.f64(), LARGEST_UNIFORM] {
                assert_eq!(
                    d.value_at(u).to_bits(),
                    discrete_early_exit(u, &items).to_bits()
                );
                assert_eq!(d.value_at(u), 0.0);
            }
        }
    }

    #[test]
    fn a_walk_that_falls_through_draws_the_last_item_as_before() {
        // The sum of these weights rounds up and their subtractions round
        // down, so at the largest uniform no remainder reaches zero.
        let items = vec![
            (1.0, 1.0),
            (2.0, 1.0),
            (3.0, 1.0 / 3.0),
            (4.0, 1.0 / 3.0),
            (5.0, 1.0 / 3.0),
        ];
        let d = Discrete::new(items.clone());
        let last = items
            .iter()
            .fold(LARGEST_UNIFORM * d.total, |x, (_, w)| x - w);
        assert!(last > 0.0, "the walk falls through");
        assert_eq!(discrete_early_exit(LARGEST_UNIFORM, &items), 5.0);
        assert_eq!(d.value_at(LARGEST_UNIFORM), 5.0);
    }

    #[test]
    #[should_panic(expected = "x_min must be finite and positive")]
    fn pareto_rejects_a_zero_scale() {
        BoundedPareto::new(0.0, 1.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "x_min must be finite and positive")]
    fn pareto_rejects_a_nan_scale() {
        BoundedPareto::new(f64::NAN, 1.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "x_min must be finite and positive")]
    fn pareto_rejects_an_infinite_scale() {
        BoundedPareto::new(f64::INFINITY, 1.5, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and positive")]
    fn pareto_rejects_a_negative_tail_index() {
        BoundedPareto::new(1.0, -1.5, 10.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and positive")]
    fn pareto_rejects_a_nan_tail_index() {
        BoundedPareto::new(1.0, f64::NAN, 10.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be finite and positive")]
    fn pareto_rejects_an_infinite_tail_index() {
        BoundedPareto::new(1.0, f64::INFINITY, 10.0);
    }

    #[test]
    #[should_panic(expected = "cap must be finite and exceed x_min")]
    fn pareto_rejects_a_cap_at_the_scale() {
        BoundedPareto::new(1.0, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "cap must be finite and exceed x_min")]
    fn pareto_rejects_an_infinite_cap() {
        BoundedPareto::new(1.0, 1.5, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "cap must be finite and exceed x_min")]
    fn pareto_rejects_a_nan_cap() {
        BoundedPareto::new(1.0, 1.5, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "cap must be finite and exceed x_min")]
    fn rng_bounded_pareto_rejects_a_cap_below_the_scale() {
        SimRng::seed_from_u64(1).bounded_pareto(2.0, 1.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty discrete distribution")]
    fn discrete_rejects_an_empty_list() {
        Discrete::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative, got -1")]
    fn discrete_rejects_a_negative_weight() {
        Discrete::new(vec![(1.0, 2.0), (2.0, -1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative, got NaN")]
    fn discrete_rejects_a_nan_weight() {
        Discrete::new(vec![(1.0, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative, got inf")]
    fn discrete_rejects_an_infinite_weight() {
        Discrete::new(vec![(1.0, 1.0), (2.0, f64::INFINITY)]);
    }

    #[test]
    #[should_panic(expected = "discrete weights sum to inf")]
    fn discrete_rejects_weights_that_overflow_their_sum() {
        Discrete::new(vec![(1.0, f64::MAX), (2.0, f64::MAX)]);
    }

    #[test]
    fn sample_bytes_is_at_least_one() {
        let d = Dist::Constant(0.0);
        let mut rng = SimRng::seed_from_u64(8);
        assert_eq!(d.sample_bytes(&mut rng), 1);
    }
}
