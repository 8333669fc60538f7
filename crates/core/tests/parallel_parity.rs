//! The blocked offline top-k must not depend on the thread configuration:
//! `Parallelism { threads: 1 }` and a forced 4-worker fan-out must produce
//! identical recommendation lists (ids and bitwise scores).
//!
//! Single `#[test]`: the parallel configuration is process-global and
//! cargo runs a binary's test functions concurrently.

use rand::{Rng, SeedableRng};
use unimatch_ann::{top_k_exact, Hit};
use unimatch_core::Parallelism;

#[test]
fn blocked_top_k_is_thread_count_invariant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x70b5);
    let d = 8;
    let users: Vec<f32> = (0..700 * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let items: Vec<f32> = (0..450 * d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    // the nightly job's three passes: a long per-user list, then both
    // directions of the short materialized lists
    let passes = || {
        [
            top_k_exact(&users, &items, d, 10),
            top_k_exact(&users, &items, d, 5),
            top_k_exact(&items, &users, d, 5),
        ]
    };

    Parallelism::sequential().install_global();
    let seq = passes();
    Parallelism::threads(4).with_min_work(1).install_global();
    let par = passes();
    Parallelism::auto().install_global();

    let bits = |h: &Hit| (h.id, h.score.to_bits());
    for (pass, (seq_lists, par_lists)) in seq.iter().zip(&par).enumerate() {
        assert_eq!(seq_lists.len(), par_lists.len(), "pass {pass}");
        for (q, (s, p)) in seq_lists.iter().zip(par_lists).enumerate() {
            assert_eq!(s.len(), p.len(), "pass {pass} query {q}: list length");
            for (sh, ph) in s.iter().zip(p) {
                assert_eq!(bits(sh), bits(ph), "pass {pass} query {q}");
            }
        }
    }
}
