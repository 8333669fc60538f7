//! Slice helpers.

use crate::Rng;

/// Random operations on slices.
pub trait SliceRandom {
    /// The element type.
    type Item;

    /// Fisher–Yates shuffle in place.
    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

    /// One uniformly chosen element, `None` when empty.
    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

    /// Mutable form of [`SliceRandom::choose`].
    fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut Self::Item>;
}

impl<T> SliceRandom for [T] {
    type Item = T;

    fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for i in (1..self.len()).rev() {
            self.swap(i, rng.gen_range(0..=i));
        }
    }

    fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
        if self.is_empty() {
            None
        } else {
            Some(&self[rng.gen_range(0..self.len())])
        }
    }

    fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut T> {
        if self.is_empty() {
            None
        } else {
            let i = rng.gen_range(0..self.len());
            Some(&mut self[i])
        }
    }
}
