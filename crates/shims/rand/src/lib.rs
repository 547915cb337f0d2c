#![warn(missing_docs)]
//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the exact API subset it uses: [`rngs::StdRng`], [`SeedableRng`],
//! and the [`Rng`] extension trait with `gen`, `gen_bool` and `gen_range`.
//!
//! The generator is xoshiro256\*\* (Blackman & Vigna) seeded through
//! SplitMix64 — statistically strong enough for the Monte Carlo estimators
//! and property tests in this repository. It is **not** a cryptographic RNG
//! and its stream differs from upstream `rand`'s ChaCha-based `StdRng`;
//! everything in this workspace treats seeds as opaque reproducibility
//! handles, so only self-consistency matters.

/// A source of random 64-bit words. Object-safe core of the RNG stack.
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 uniformly random bits (high word of [`RngCore::next_u64`]).
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Construction of a reproducible RNG from a seed.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed. Equal seeds give equal
    /// streams.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be drawn uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits -> uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl Standard for bool {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl Standard for u64 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}

impl Standard for usize {
    #[inline]
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}

/// A half-open or inclusive range that [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced.
    type Output;
    /// Draws one value uniformly from the range. Panics when empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased integer draw from `[0, bound)` via Lemire's multiply-shift
/// with rejection, in its nearly-divisionless form: a draw is rejected
/// iff the product's low word is below `(2^64) mod bound`, and since
/// that threshold is below `bound`, the 64-bit division that computes it
/// runs only when the low word is below `bound` (probability
/// `bound / 2^64`). Accept/reject decisions, and so the stream, are the
/// same as computing the threshold up front.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, bound: u64) -> u64 {
    debug_assert!(bound > 0);
    let mut m = (rng.next_u64() as u128) * (bound as u128);
    if (m as u64) < bound {
        let threshold = bound.wrapping_neg() % bound;
        while (m as u64) < threshold {
            m = (rng.next_u64() as u128) * (bound as u128);
        }
    }
    (m >> 64) as u64
}

macro_rules! int_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as u64).wrapping_sub(start as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain.
                    return rng.next_u64() as $t;
                }
                start.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

int_sample_range!(u8, u16, u32, u64, usize, i32, i64, isize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = f64::draw(rng);
        self.start + (self.end - self.start) * unit
    }
}

impl SampleRange for core::ops::Range<f32> {
    type Output = f32;
    #[inline]
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let unit = f32::draw(rng);
        self.start + (self.end - self.start) * unit
    }
}

/// Convenience extension methods over any [`RngCore`], mirroring `rand`'s
/// `Rng` trait.
pub trait Rng: RngCore {
    /// Draws a uniformly random value of type `T`.
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Draws uniformly from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        f64::draw(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard RNG: xoshiro256\*\* seeded via SplitMix64.
    ///
    /// Small (32 bytes), fast, and passes BigCrush; the stream is fully
    /// determined by the seed.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl StdRng {
        #[inline]
        fn rotl(x: u64, k: u32) -> u64 {
            x.rotate_left(k)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, the reference seeding for xoshiro.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let mut s = [next(), next(), next(), next()];
            if s == [0, 0, 0, 0] {
                // The all-zero state is the one fixed point; SplitMix64
                // cannot produce it from any seed, but keep the guard.
                s = [1, 2, 3, 4];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = Self::rotl(s[1].wrapping_mul(5), 7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = Self::rotl(s[3], 45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_floats_are_in_range_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn gen_range_is_in_bounds_and_unbiased() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 7];
        for _ in 0..70_000 {
            let x = rng.gen_range(0..7usize);
            counts[x] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 10_000.0).abs() < 500.0,
                "bucket {i} count {c} deviates"
            );
        }
        for _ in 0..1000 {
            let x = rng.gen_range(3..=5u32);
            assert!((3..=5).contains(&x));
            let y = rng.gen_range(-4i64..4);
            assert!((-4..4).contains(&y));
            let f = rng.gen_range(2.0f64..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    /// The eager form: the rejection threshold computed on every draw.
    fn uniform_below_eager(rng: &mut StdRng, bound: u64) -> u64 {
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let m = (rng.gen::<u64>() as u128) * (bound as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    #[test]
    fn lazy_threshold_matches_the_eager_reference() {
        let near_2_63 = [
            (1u64 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            (1 << 63) + (1 << 62),
        ];
        for bound in (1..=64).chain(near_2_63) {
            let mut lazy = StdRng::seed_from_u64(bound);
            let mut eager = StdRng::seed_from_u64(bound);
            for draw in 0..100_000 {
                assert_eq!(
                    super::uniform_below(&mut lazy, bound),
                    uniform_below_eager(&mut eager, bound),
                    "bound {bound}, draw {draw}"
                );
            }
            // Both consumed the same words: the streams stay in lockstep.
            assert_eq!(lazy, eager, "bound {bound}");
        }
    }

    #[test]
    fn gen_bool_matches_probability() {
        let mut rng = StdRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn works_through_mut_references() {
        fn draw<R: super::Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen::<f64>()
        }
        let mut rng = StdRng::seed_from_u64(1);
        let via_ref = draw(&mut rng);
        assert!((0.0..1.0).contains(&via_ref));
    }
}
