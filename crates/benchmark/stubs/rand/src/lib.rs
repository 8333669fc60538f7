//! Offline stand-in for `rand` 0.8 (see Cargo.toml).
//!
//! Same names and signatures as the subset of the real crate the workspace
//! calls — `Rng::{gen, gen_range, gen_bool, gen_ratio, fill, sample}`,
//! `SeedableRng::{from_seed, seed_from_u64}`, `rngs::{StdRng, SmallRng}`,
//! `seq::SliceRandom`, `distributions::{Distribution, Standard, Uniform}` —
//! over xoshiro256++ seeded through SplitMix64. There is deliberately no
//! `thread_rng`/`random`: every stream in this repository is seeded.

pub mod distributions;
pub mod rngs;
pub mod seq;

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-level sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the [`Standard`] distribution.
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform over `range` (`a..b` or `a..=b`); panics when empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        T: SampleUniform,
        S: SampleRange<T>,
    {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    /// `true` with probability `p`; panics unless `0 <= p <= 1`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "p={p} is outside range [0.0, 1.0]"
        );
        // 53 uniform bits against p: exact for p = 0 and p = 1
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator, "invalid ratio");
        self.gen_range(0..denominator) < numerator
    }

    /// Fills a slice with [`Standard`] values.
    fn fill<T>(&mut self, dest: &mut [T])
    where
        Standard: Distribution<T>,
    {
        for slot in dest {
            *slot = self.gen();
        }
    }

    /// A value from `distr`.
    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Builds the generator from a `u64`, expanded through SplitMix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// The common imports.
pub mod prelude {
    pub use crate::distributions::Distribution;
    pub use crate::rngs::{SmallRng, StdRng};
    pub use crate::seq::SliceRandom;
    pub use crate::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.gen()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        for _ in 0..10_000 {
            let i = a.gen_range(3usize..11);
            assert!((3..11).contains(&i));
            let j = a.gen_range(-5i32..=5);
            assert!((-5..=5).contains(&j));
            let f = a.gen_range(-1.0f32..1.0);
            assert!((-1.0..1.0).contains(&f));
            let g = a.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&g));
            let u: f64 = a.gen();
            assert!((0.0..1.0).contains(&u));
        }
        assert!(!a.gen_bool(0.0));
        assert!(a.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_a_permutation_and_uniform_ints_cover_the_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        let mut seen = [0usize; 7];
        for _ in 0..7_000 {
            seen[rng.gen_range(0..7usize)] += 1;
        }
        assert!(seen.iter().all(|&c| (800..1200).contains(&c)), "{seen:?}");
        assert!(v.choose(&mut rng).is_some());
        assert!(Vec::<u32>::new().choose(&mut rng).is_none());
    }
}
