//! Seeded, reproducible random number generation.
//!
//! Every stochastic component in the simulator owns a [`SimRng`] derived from
//! a master seed, so that a whole-center simulation replays bit-identically.
//! The samplers implement the distribution families the paper's workload
//! characterization identified: Pareto-tailed inter-arrival and idle times
//! (modeled as "long-tail ... Pareto" in §II), lognormal component-to-
//! component variation (slow disks), exponential service perturbations, and
//! Zipf-like file popularity.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dist::BoundedPareto;
use crate::SimDuration;

/// Deterministic RNG with domain-specific samplers.
///
/// `Clone` duplicates the generator *state*: both copies produce the same
/// stream from that point on. That is deliberate — common-random-number
/// pairing (the variance-reduction technique the Monte Carlo harness uses to
/// compare scenarios) needs two scenarios to consume identical draws. Do not
/// clone to "save" a generator across unrelated components; derive
/// independent children with [`SimRng::fork`] or [`SimRng::stream`] instead.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Counter-based stream derivation: the RNG for replication `index` of a
    /// study seeded with `seed`.
    ///
    /// The stream key is a pure function of `(seed, index)` — no generator
    /// state is consumed — so replication `i` draws the same sequence no
    /// matter which thread runs it, in what order, or how many replications
    /// surround it. This is what makes the Monte Carlo engine's output
    /// bit-identical across rayon thread counts. The key mixes the pair
    /// through a SplitMix64-style finalizer (full 64-bit avalanche), and
    /// [`StdRng`] then expands it into its own state, so streams for distinct
    /// indices are decorrelated in practice (see the non-overlap property
    /// test in `tests/properties.rs`).
    pub fn stream(seed: u64, index: u64) -> SimRng {
        let mut z = seed ^ 0xA076_1D64_78BD_642F;
        z = z.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Derive an independent child RNG. The `salt` distinguishes children
    /// created from the same parent state (e.g. one per disk).
    pub fn fork(&mut self, salt: u64) -> SimRng {
        let base: u64 = self.inner.random();
        SimRng::seed_from_u64(base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.random()
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.random_range(lo..hi)
    }

    /// Uniform usize in `[0, n)`. Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.inner.random_range(0..n)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "inverted range [{lo}, {hi})");
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.f64() < p
    }

    /// Exponential with the given mean (inverse-CDF method).
    pub fn exp(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // 1 - U is in (0, 1], avoiding ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Standard normal via Box–Muller.
    pub fn std_normal(&mut self) -> f64 {
        // Draw u1 from (0, 1] so the log is finite.
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        mean + sd * self.std_normal()
    }

    /// Lognormal parameterized by the *underlying* normal's `mu`/`sigma`.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto (Type I) with scale `x_min > 0` and tail index `alpha > 0`.
    ///
    /// Heavier tails for smaller `alpha`; the paper's inter-arrival and idle
    /// time distributions are long-tailed and "can be modeled as a Pareto
    /// distribution" (§II).
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0, "invalid Pareto parameters");
        let u = 1.0 - self.f64(); // (0, 1]
        x_min / u.powf(1.0 / alpha)
    }

    /// Pareto truncated at `cap` by resampling the CDF (inverse-CDF on the
    /// conditional distribution), keeping the heavy tail but bounding extreme
    /// idle periods so simulations terminate.
    ///
    /// One draw of [`BoundedPareto::new`]`(x_min, alpha, cap)`, which checks
    /// the parameters; a caller drawing many values from one distribution
    /// builds the [`BoundedPareto`] once instead.
    pub fn bounded_pareto(&mut self, x_min: f64, alpha: f64, cap: f64) -> f64 {
        BoundedPareto::new(x_min, alpha, cap).sample(self)
    }

    /// Zipf-distributed rank in `[0, n)` with exponent `s` via rejection
    /// sampling (Devroye). Used for file/project popularity skew.
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0 && s > 0.0, "invalid Zipf parameters");
        if n == 1 {
            return 0;
        }
        let nf = n as f64;
        loop {
            let u = self.f64();
            let v = self.f64();
            let x = if (s - 1.0).abs() < 1e-12 {
                nf.powf(u)
            } else {
                let t = 1.0 - s;
                ((nf.powf(t) - 1.0) * u + 1.0).powf(1.0 / t)
            };
            let k = x.floor().max(1.0).min(nf);
            // Acceptance ratio bounds the discrete pmf by the continuous envelope.
            let ratio = (k / x).powf(s);
            if v * ratio <= 1.0 {
                return k as usize - 1;
            }
        }
    }

    /// Exponentially distributed duration with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(self.exp(mean.as_secs_f64()))
    }

    /// Pareto-distributed duration (bounded at `cap`).
    pub fn pareto_duration(
        &mut self,
        x_min: SimDuration,
        alpha: f64,
        cap: SimDuration,
    ) -> SimDuration {
        SimDuration::from_secs_f64(self.bounded_pareto(
            x_min.as_secs_f64().max(1e-9),
            alpha,
            cap.as_secs_f64(),
        ))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Uniformly choose one element. Panics on an empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.index(items.len())]
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn determinism_same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        let mut a = SimRng::stream(7, 3);
        let mut b = SimRng::stream(7, 3);
        for _ in 0..32 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
        let mut a2 = SimRng::stream(7, 3);
        let mut c = SimRng::stream(7, 4);
        let s_a: Vec<u64> = (0..8).map(|_| a2.range_u64(0, u64::MAX)).collect();
        let s_c: Vec<u64> = (0..8).map(|_| c.range_u64(0, u64::MAX)).collect();
        assert_ne!(s_a, s_c, "adjacent indices must give distinct streams");
    }

    #[test]
    fn clones_replay_the_same_stream() {
        let mut a = SimRng::seed_from_u64(12);
        let _ = a.f64(); // advance so the clone is mid-stream
        let mut b = a.clone();
        for _ in 0..32 {
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let s1: Vec<u64> = (0..8).map(|_| c1.range_u64(0, u64::MAX)).collect();
        let s2: Vec<u64> = (0..8).map(|_| c2.range_u64(0, u64::MAX)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = SimRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..40_000).map(|_| rng.exp(3.0)).collect();
        let m = mean_of(&xs);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = SimRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..40_000).map(|_| rng.normal(10.0, 2.0)).collect();
        let m = mean_of(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!((m - 10.0).abs() < 0.1, "mean {m}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let mut rng = SimRng::seed_from_u64(3);
        let alpha = 2.5;
        let x_min = 1.0;
        let xs: Vec<f64> = (0..40_000).map(|_| rng.pareto(x_min, alpha)).collect();
        assert!(xs.iter().all(|&x| x >= x_min));
        // E[X] = alpha * x_min / (alpha - 1) for alpha > 1.
        let expected = alpha * x_min / (alpha - 1.0);
        let m = mean_of(&xs);
        assert!((m - expected).abs() < 0.1, "mean {m} vs {expected}");
    }

    #[test]
    fn bounded_pareto_stays_in_range() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let x = rng.bounded_pareto(0.5, 1.2, 100.0);
            assert!((0.5..=100.0).contains(&x), "{x} out of range");
        }
    }

    #[test]
    fn lognormal_median_matches_mu() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut xs: Vec<f64> = (0..20_001).map(|_| rng.lognormal(0.0, 0.5)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        // Median of lognormal is exp(mu) = 1.
        assert!((median - 1.0).abs() < 0.05, "median {median}");
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut rng = SimRng::seed_from_u64(6);
        let mut counts = [0usize; 10];
        for _ in 0..20_000 {
            counts[rng.zipf(10, 1.2)] += 1;
        }
        assert!(counts[0] > counts[4], "rank 0 should dominate: {counts:?}");
        assert!(
            counts[4] > counts[9] / 2,
            "roughly monotone tail: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 20_000);
    }

    #[test]
    fn chance_edges() {
        let mut rng = SimRng::seed_from_u64(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "almost surely shuffled");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::seed_from_u64(10);
        let picks = rng.sample_indices(50, 12);
        assert_eq!(picks.len(), 12);
        let mut dedup = picks.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 12, "indices must be distinct");
        assert!(picks.iter().all(|&i| i < 50));
    }

    #[test]
    fn durations_sample_positive() {
        let mut rng = SimRng::seed_from_u64(11);
        let mean = SimDuration::from_millis(10);
        let d = rng.exp_duration(mean);
        assert!(d.as_secs_f64() >= 0.0);
        let p = rng.pareto_duration(
            SimDuration::from_micros(100),
            1.3,
            SimDuration::from_secs(60),
        );
        assert!(p >= SimDuration::from_micros(99));
        assert!(p <= SimDuration::from_secs(61));
    }
}
