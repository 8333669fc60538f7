//! The canonical candidate order of the retrieval engine, in one place.
//!
//! Every surface that emits or merges ranked hits — the blocked exact
//! kernel, each backend's result drain, the sharded k-way merge, and the
//! re-ranking chain's re-sorts — must agree on a single total order, or
//! the workspace's bitwise differential suites cannot compare them.
//! That order is:
//!
//! * **score descending**, compared with [`f32::total_cmp`] so every bit
//!   pattern (NaN, ±inf, ±0.0) has a deterministic place — a NaN that
//!   slips out of a backend sorts *above* `+inf` instead of comparing
//!   "equal to everything" and destabilizing the sort;
//! * **lowest id first** on score ties.
//!
//! [`canonical`] is the comparator (best candidate orders `Less`, so an
//! ascending sort yields best-first) and [`sort_canonical`] the sort
//! built on it.

use crate::index::Hit;
use std::cmp::Ordering;

/// Compares two hits under the canonical `(score desc, id asc)` order.
///
/// Returns [`Ordering::Less`] when `a` is the *better* candidate (higher
/// score, or equal score with the lower id), so sorting ascending by
/// this comparator produces a best-first list. This is a total order:
/// `Equal` only for bit-identical scores on the same id.
#[inline]
pub fn canonical(a: &Hit, b: &Hit) -> Ordering {
    b.score.total_cmp(&a.score).then(a.id.cmp(&b.id))
}

/// Sorts hits best-first under [`canonical`].
#[inline]
pub fn sort_canonical(hits: &mut [Hit]) {
    hits.sort_by(canonical);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Inputs per property: case `n` is drawn from its own
    /// `StdRng::seed_from_u64(n)`, and a failure names it.
    const CASES: u64 = 256;

    fn arbitrary_hit(rng: &mut StdRng) -> Hit {
        // drive the score through raw bit patterns so NaNs (both signs),
        // infinities, zeros and subnormals all appear in the corpus
        Hit { id: rng.gen::<u32>() % 64, score: f32::from_bits(rng.gen()) }
    }

    #[test]
    fn comparator_is_a_total_order() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let (a, b, c) =
                (arbitrary_hit(&mut rng), arbitrary_hit(&mut rng), arbitrary_hit(&mut rng));
            // antisymmetry
            assert_eq!(canonical(&a, &b), canonical(&b, &a).reverse(), "case {case}");
            // Equal only for identical (bit-level) hits
            if canonical(&a, &b) == Ordering::Equal {
                assert_eq!(a.id, b.id, "case {case}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "case {case}");
            }
            // transitivity of `<=`
            if canonical(&a, &b) != Ordering::Greater && canonical(&b, &c) != Ordering::Greater {
                assert_ne!(canonical(&a, &c), Ordering::Greater, "case {case}");
            }
        }
    }

    #[test]
    fn sort_is_deterministic_and_permutation_preserving() {
        for case in 0..CASES {
            let mut rng = StdRng::seed_from_u64(case);
            let mut hits: Vec<Hit> =
                (0..rng.gen_range(0usize..48)).map(|_| arbitrary_hit(&mut rng)).collect();
            let mut shuffled: Vec<Hit> = hits.iter().rev().copied().collect();
            sort_canonical(&mut hits);
            sort_canonical(&mut shuffled);
            // same multiset in, same bytes out, independent of input order
            assert_eq!(hits.len(), shuffled.len(), "case {case}");
            for (h, s) in hits.iter().zip(&shuffled) {
                assert_eq!(h.id, s.id, "case {case}");
                assert_eq!(h.score.to_bits(), s.score.to_bits(), "case {case}");
            }
            // pairwise order holds: never a strictly-better hit after a worse one
            for w in hits.windows(2) {
                assert_ne!(canonical(&w[0], &w[1]), Ordering::Greater, "case {case}");
            }
        }
    }

    #[test]
    fn ties_break_by_lowest_id() {
        // a draw with `x == y` is redrawn from the next case, not counted
        let checked = (0u64..)
            .map(|case| {
                let mut rng = StdRng::seed_from_u64(case);
                (case, rng.gen::<u32>(), rng.gen_range(0u32..1000), rng.gen_range(0u32..1000))
            })
            .filter(|&(_, _, x, y)| x != y)
            .take(CASES as usize);
        for (case, score, x, y) in checked {
            let score = f32::from_bits(score);
            let (lo, hi) = (x.min(y), x.max(y));
            let mut hits = vec![Hit { id: hi, score }, Hit { id: lo, score }];
            sort_canonical(&mut hits);
            assert_eq!(hits[0].id, lo, "case {case}");
            assert_eq!(hits[1].id, hi, "case {case}");
        }
    }

    #[test]
    fn nan_orders_above_infinity() {
        // total_cmp: positive NaN > +inf > finite > -inf > negative NaN
        let mut hits = vec![
            Hit { id: 0, score: f32::INFINITY },
            Hit { id: 1, score: f32::NAN },
            Hit { id: 2, score: 1.0 },
            Hit { id: 3, score: f32::NEG_INFINITY },
            Hit { id: 4, score: -f32::NAN },
        ];
        sort_canonical(&mut hits);
        let ids: Vec<u32> = hits.iter().map(|h| h.id).collect();
        assert_eq!(ids, vec![1, 0, 2, 3, 4]);
    }
}
