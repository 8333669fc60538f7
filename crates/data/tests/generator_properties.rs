//! Property tests for the synthetic generator under arbitrary (valid)
//! configurations: universe bounds, temporal bounds, volume sanity,
//! determinism, and the repurchase invariant.
//!
//! Each property loops over `CASES` inputs, case `n` drawn from its own
//! `StdRng::seed_from_u64(n)`; a failure names its case, and looping
//! over that one number replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_data::calendar::month_of;
use unimatch_data::synthetic::{generate, SyntheticConfig};

const CASES: u64 = 24;

/// A valid configuration and the seed to generate it with.
fn arbitrary_config(rng: &mut StdRng) -> (SyntheticConfig, u64) {
    let num_clusters = rng.gen_range(2usize..6);
    let cfg = SyntheticConfig {
        name: "prop".into(),
        num_users: rng.gen_range(20usize..200),
        num_items: rng.gen_range(8usize..60).max(num_clusters),
        target_interactions: rng.gen_range(200usize..2000),
        months: rng.gen_range(4u32..10),
        num_clusters,
        zipf_exponent: rng.gen_range(0.3f64..1.2),
        activity_sigma: rng.gen_range(0.0f64..1.2),
        preference_focus: rng.gen_range(0.0f64..0.95),
        sequence_coherence: rng.gen_range(0.0f64..0.8),
        trend_strength: rng.gen_range(0.0f64..1.0),
        max_user_events: 50,
        repeat_purchases: rng.gen(),
    };
    (cfg, rng.gen())
}

#[test]
fn generated_logs_respect_bounds() {
    for case in 0..CASES {
        let (cfg, seed) = arbitrary_config(&mut StdRng::seed_from_u64(case));
        let log = generate(&cfg, seed);
        assert!(!log.is_empty(), "case {case}");
        assert!((log.num_users() as usize) <= cfg.num_users, "case {case}");
        assert!((log.num_items() as usize) <= cfg.num_items, "case {case}");
        for r in log.records() {
            assert!(month_of(r.day) < cfg.months, "case {case}");
        }
        // every user has at least 1 and at most max_user_events records
        for (_, timeline) in log.timelines() {
            assert!(!timeline.is_empty(), "case {case}");
            assert!(timeline.len() <= cfg.max_user_events, "case {case}");
        }
    }
}

#[test]
fn generation_is_deterministic() {
    for case in 0..CASES {
        let (cfg, seed) = arbitrary_config(&mut StdRng::seed_from_u64(case));
        let a = generate(&cfg, seed);
        let b = generate(&cfg, seed);
        assert_eq!(a.records(), b.records(), "case {case}");
    }
}

#[test]
fn volume_lands_near_target() {
    for case in 0..CASES {
        let (cfg, seed) = arbitrary_config(&mut StdRng::seed_from_u64(case));
        let log = generate(&cfg, seed);
        let got = log.len() as f64;
        let want = cfg.target_interactions as f64;
        // lognormal clamping skews volume; stay within a loose band
        assert!(got > want * 0.2 && got < want * 4.0, "case {case}: {got} vs {want}");
    }
}

#[test]
fn repurchase_free_mode_rarely_repeats() {
    // the one input this property ever failed on, kept as case `CASES`
    let regression = (
        SyntheticConfig {
            name: "prop".into(),
            num_users: 20,
            num_items: 8,
            target_interactions: 278,
            months: 4,
            num_clusters: 4,
            zipf_exponent: 0.3,
            activity_sigma: 0.9156583324025425,
            preference_focus: 0.0,
            sequence_coherence: 0.0,
            trend_strength: 0.31568301354802825,
            max_user_events: 50,
            repeat_purchases: false,
        },
        150233718606574043,
    );
    let drawn = (0..CASES).map(|case| (case, arbitrary_config(&mut StdRng::seed_from_u64(case))));
    for (case, (mut cfg, seed)) in drawn.chain([(CASES, regression)]) {
        cfg.repeat_purchases = false;
        // make collisions avoidable: enough items per cluster, and keep
        // timelines far below catalog size (else repeats are pigeonholed)
        cfg.num_items = cfg.num_items.max(cfg.num_clusters * 10);
        cfg.max_user_events = (cfg.num_items / cfg.num_clusters / 2).max(2);
        let log = generate(&cfg, seed);
        let mut repeats = 0usize;
        let mut total = 0usize;
        for (_, timeline) in log.timelines() {
            let mut seen = std::collections::HashSet::new();
            for r in timeline {
                total += 1;
                if !seen.insert(r.item) {
                    repeats += 1;
                }
            }
        }
        // bounded resampling can still collide on tiny popular clusters;
        // demand repeats be rare rather than impossible
        assert!(
            (repeats as f64) < 0.05 * total as f64 + 2.0,
            "case {case}: {repeats} repeats of {total}"
        );
    }
}
