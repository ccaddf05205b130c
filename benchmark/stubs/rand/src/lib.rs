//! Offline stand-in for the subset of `rand` 0.8 this repository uses.
//!
//! The container the benchmark builds in has no crate registry, so the
//! benchmark package patches `rand` to this crate. It provides
//! `rngs::SmallRng` (xoshiro256++, seeded through SplitMix64 like the
//! published crate on 64-bit targets), `SeedableRng::seed_from_u64`,
//! `Rng::gen` for the primitive types and `Rng::gen_range` over integer
//! and float ranges. Streams are deterministic per seed; they are not
//! promised to be bit-identical to the published crate's.

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed.
    fn seed_from_u64(state: u64) -> Self;
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draw one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        // 53 random mantissa bits, uniform in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

macro_rules! standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$via() as $t
            }
        }
    )*};
}
standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
              i64 => next_u64, isize => next_u64);

/// Types `Rng::gen_range` can draw uniformly.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)` (`inclusive == false`) or `[low, high]`.
    fn sample_between<R: RngCore + ?Sized>(
        low: Self,
        high: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty as $u:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                low: $t,
                high: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(
                    if inclusive { low <= high } else { low < high },
                    "gen_range: empty range"
                );
                // Width of the range as an unsigned 64-bit count; 0 means
                // the full 2^64 span.
                let span = (high as $u).wrapping_sub(low as $u) as u64;
                let range = if inclusive { span.wrapping_add(1) } else { span };
                if range == 0 {
                    return rng.next_u64() as $t;
                }
                // Widening multiply with a rejection zone (unbiased).
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let wide = (rng.next_u64() as u128) * (range as u128);
                    if (wide as u64) <= zone {
                        return (low as $u).wrapping_add((wide >> 64) as $u) as $t;
                    }
                }
            }
        }
    )*};
}
uniform_int!(u8 as u8, u16 as u16, u32 as u32, u64 as u64, usize as usize,
             i8 as u8, i16 as u16, i32 as u32, i64 as u64, isize as usize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                low: $t,
                high: $t,
                inclusive: bool,
                rng: &mut R,
            ) -> $t {
                assert!(
                    if inclusive { low <= high } else { low < high },
                    "gen_range: empty range"
                );
                let u: $t = Standard::sample(rng);
                let v = low + (high - low) * u;
                // Rounding can land exactly on an excluded upper bound.
                if !inclusive && v >= high { low } else { v }
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range types `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(low, high, true, rng)
    }
}

/// User-facing generator methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A random value of a primitive type (`f64` is uniform in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Generator types.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// A small, fast, non-cryptographic generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            // SplitMix64 expands the seed into the four state words.
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0]
                .wrapping_add(s[3])
                .rotate_left(23)
                .wrapping_add(s[0]);
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

    /// The standard generator; here the same algorithm as [`SmallRng`].
    pub type StdRng = SmallRng;
}
