//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so the workspace ships
//! this minimal implementation of the exact API surface it uses:
//! [`rngs::StdRng`], [`SeedableRng::seed_from_u64`], and [`RngExt`] with
//! `random()` / `random_range()`. The generator is xoshiro256++ seeded via
//! SplitMix64 — fast, and statistically strong enough for every simulation
//! and test in this repository. It is deterministic across platforms, which
//! is all the simulator requires (bit-identical replay from a seed).

use std::ops::Range;

/// Types constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build a generator whose stream is fully determined by `seed`.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Core entropy source: a stream of uniform `u64`s.
pub trait RngCore {
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
}

/// High-level sampling helpers, blanket-implemented for every [`RngCore`].
pub trait RngExt: RngCore {
    /// A uniform value of `T` (full range for integers, `[0, 1)` for floats).
    fn random<T: FromRng>(&mut self) -> T
    where
        Self: Sized,
    {
        T::from_rng(self)
    }

    /// A uniform value in `range`. Panics on an empty range.
    fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output
    where
        Self: Sized,
    {
        range.sample(self)
    }
}

impl<T: RngCore> RngExt for T {}

/// Sampling a uniform value of a type from raw bits.
pub trait FromRng {
    /// Draw one value from `rng`.
    fn from_rng<R: RngCore>(rng: &mut R) -> Self;
}

macro_rules! impl_from_rng_int {
    ($($t:ty),*) => {$(
        impl FromRng for $t {
            fn from_rng<R: RngCore>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_from_rng_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl FromRng for bool {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl FromRng for f64 {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl FromRng for f32 {
    fn from_rng<R: RngCore>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Ranges that can be sampled uniformly.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one value from the range. Panics if the range is empty.
    fn sample<R: RngCore>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased uniform integer in `[0, span)` via Lemire's widening-multiply
/// rejection method.
fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(span as u128);
        let low = m as u64;
        if low >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample<R: RngCore>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = f64::from_rng(rng);
        self.start + (self.end - self.start) * u
    }
}

impl SampleRange for Range<f32> {
    type Output = f32;
    fn sample<R: RngCore>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f32 = f32::from_rng(rng);
        self.start + (self.end - self.start) * u
    }
}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 state expansion, as `rand` does for small seeds.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn floats_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = rng.random_range(5u64..17);
            assert!((5..17).contains(&x));
            let y = rng.random_range(-3i64..4);
            assert!((-3..4).contains(&y));
        }
    }

    #[test]
    fn mean_of_unit_uniforms_converges() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.random::<f64>()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 5e-3, "{mean}");
    }
}
