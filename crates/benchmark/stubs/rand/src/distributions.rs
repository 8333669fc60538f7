//! `Standard` and `Uniform`, and the range plumbing behind `gen_range`.

use crate::Rng;

/// A distribution over `T`.
pub trait Distribution<T> {
    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
}

impl<T, D: Distribution<T> + ?Sized> Distribution<T> for &D {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        (**self).sample(rng)
    }
}

/// Full-range integers, `[0, 1)` floats, fair booleans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Standard;

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl Distribution<$t> for Standard {
            fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Distribution<u128> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }
}

impl Distribution<bool> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl Distribution<f64> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Distribution<f32> for Standard {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Uniform over a fixed range, built once and sampled many times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform<T> {
    low: T,
    high: T,
    inclusive: bool,
}

impl<T: uniform::SampleUniform> Uniform<T> {
    /// Uniform over `[low, high)`; panics when empty.
    pub fn new(low: T, high: T) -> Uniform<T> {
        assert!(low < high, "Uniform::new called with `low >= high`");
        Uniform {
            low,
            high,
            inclusive: false,
        }
    }

    /// Uniform over `[low, high]`; panics when empty.
    pub fn new_inclusive(low: T, high: T) -> Uniform<T> {
        assert!(
            low <= high,
            "Uniform::new_inclusive called with `low > high`"
        );
        Uniform {
            low,
            high,
            inclusive: true,
        }
    }
}

impl<T: uniform::SampleUniform> Distribution<T> for Uniform<T> {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
        T::sample_between(self.low, self.high, self.inclusive, rng)
    }
}

pub mod uniform {
    //! The traits `Rng::gen_range` is generic over.

    use crate::Rng;
    use std::ops::{Range, RangeInclusive};

    /// A type `gen_range` can produce.
    pub trait SampleUniform: Copy + PartialOrd {
        /// Uniform over `[low, high)`, or `[low, high]` when `inclusive`.
        /// The caller has checked the range is not empty.
        fn sample_between<R: Rng + ?Sized>(
            low: Self,
            high: Self,
            inclusive: bool,
            rng: &mut R,
        ) -> Self;
    }

    /// A range `gen_range` accepts.
    pub trait SampleRange<T> {
        /// Draws one value from the range.
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        /// Whether the range holds no value.
        fn is_empty(&self) -> bool;
    }

    impl<T: SampleUniform> SampleRange<T> for Range<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::sample_between(self.start, self.end, false, rng)
        }
        // `!(a < b)` rather than `a >= b`: a NaN bound makes the range empty
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn is_empty(&self) -> bool {
            !(self.start < self.end)
        }
    }

    impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
        fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
            T::sample_between(*self.start(), *self.end(), true, rng)
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        fn is_empty(&self) -> bool {
            !(self.start() <= self.end())
        }
    }

    /// Unbiased integer in `[0, span)` by widening multiply with rejection
    /// (Lemire); `span == 0` stands for the full 2^64 range.
    fn below<R: Rng + ?Sized>(span: u64, rng: &mut R) -> u64 {
        if span == 0 {
            return rng.next_u64();
        }
        let threshold = span.wrapping_neg() % span;
        loop {
            let wide = u128::from(rng.next_u64()) * u128::from(span);
            if (wide as u64) >= threshold {
                return (wide >> 64) as u64;
            }
        }
    }

    macro_rules! uniform_int {
        ($($t:ty => $u:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: Rng + ?Sized>(
                    low: $t,
                    high: $t,
                    inclusive: bool,
                    rng: &mut R,
                ) -> $t {
                    // two's-complement distance; wraps to 0 only for the
                    // inclusive full range, which `below` treats as 2^64
                    let span = (high.wrapping_sub(low) as $u as u64)
                        .wrapping_add(u64::from(inclusive));
                    low.wrapping_add(below(span, rng) as $t)
                }
            }
        )*};
    }
    uniform_int!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
                 i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

    macro_rules! uniform_float {
        ($($t:ty),*) => {$(
            impl SampleUniform for $t {
                fn sample_between<R: Rng + ?Sized>(
                    low: $t,
                    high: $t,
                    inclusive: bool,
                    rng: &mut R,
                ) -> $t {
                    loop {
                        let unit: $t = rng.gen();
                        let value = low + (high - low) * unit;
                        // rounding can land exactly on an excluded bound
                        if value >= low && (value < high || inclusive) {
                            return value;
                        }
                    }
                }
            }
        )*};
    }
    uniform_float!(f32, f64);
}
