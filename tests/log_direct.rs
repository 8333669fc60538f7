//! Serving reads the user pool and the training marginals straight off the
//! log's timelines (`UserPool::from_log`, `Marginals::from_log`); training
//! and evaluation window the log, split it by month and build both from
//! the samples. These loops pin the two routes to the same bits, on
//! generator logs and on small hand-built logs full of the edge cases the
//! direct route reasons about: users whose purchases all fall on one day,
//! ties on the last day, and exactly one earlier day.
//!
//! Each case `n` draws from its own `StdRng::seed_from_u64(n)`, and every
//! message starts with `case {n}`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch::core::PreparedData;
use unimatch::data::{DatasetProfile, Interaction, InteractionLog, Marginals};
use unimatch::eval::UserPool;

const CASES: u64 = 24;

/// History lengths: shorter than most timelines, the profiles' own, and
/// longer than any generated timeline.
const LENS: [usize; 4] = [1, 5, 20, 36];

/// A generator log: one of three profiles at a small scale.
fn generator_log(rng: &mut StdRng) -> InteractionLog {
    let profiles = [DatasetProfile::EComp, DatasetProfile::Books, DatasetProfile::WComp];
    let profile = profiles[rng.gen_range(0..profiles.len())];
    profile.generate(rng.gen_range(0.03..0.08), rng.gen()).filter_min_interactions(3)
}

/// A small log made of the edge cases, plus an anchor user that stretches
/// the span to at least three months so the log can be split.
fn edge_log(rng: &mut StdRng) -> InteractionLog {
    let mut records = Vec::new();
    let mut push = |user, day, rng: &mut StdRng| {
        records.push(Interaction { user, item: rng.gen_range(0..25), day });
    };
    push(0, 0, rng);
    push(0, 100, rng);
    for user in 1..rng.gen_range(4u32..30) {
        let days: Vec<u32> = match rng.gen_range(0..4) {
            // every purchase on one day: no sample, no pool row
            0 => vec![rng.gen_range(0..120); rng.gen_range(1..4)],
            // ties on the last day
            1 => {
                let last = rng.gen_range(31..120);
                let mut days: Vec<u32> =
                    (0..rng.gen_range(1..6)).map(|_| rng.gen_range(0..last)).collect();
                days.extend(vec![last; rng.gen_range(2..4)]);
                days
            }
            // exactly one earlier day, possibly itself a run of ties
            2 => {
                let (early, last) = (rng.gen_range(0..60), rng.gen_range(60..120));
                let mut days = vec![early; rng.gen_range(1..3)];
                days.extend(vec![last; rng.gen_range(1..3)]);
                days
            }
            // anything, long enough to be truncated
            _ => (0..rng.gen_range(1..50)).map(|_| rng.gen_range(0..120)).collect(),
        };
        for day in days {
            push(user, day, rng);
        }
    }
    InteractionLog::new(records)
}

fn bits(table: &[f32]) -> Vec<u32> {
    table.iter().map(|x| x.to_bits()).collect()
}

fn assert_log_direct_equals_split_built(case: u64, log: &InteractionLog) {
    for max_seq_len in LENS {
        let prepared = PreparedData::from_log(log.clone(), max_seq_len);
        let want = UserPool::build(&prepared.split, max_seq_len);
        let got = UserPool::from_log(log, max_seq_len);
        assert_eq!(got.users(), want.users(), "case {case} L={max_seq_len}: users");
        assert_eq!(got.histories(), want.histories(), "case {case} L={max_seq_len}: histories");
        for user in 0..=log.num_users() {
            assert_eq!(got.index_of(user), want.index_of(user), "case {case}: index_of({user})");
        }

        let want = Marginals::from_samples(&prepared.split.train, log.num_users(), log.num_items());
        let got = Marginals::from_log(log);
        assert_eq!(bits(got.log_pu_all()), bits(want.log_pu_all()), "case {case}: log p(u)");
        assert_eq!(bits(got.log_pi_all()), bits(want.log_pi_all()), "case {case}: log p(i)");
        assert_eq!(got.floor_u().to_bits(), want.floor_u().to_bits(), "case {case}: floor_u");
        assert_eq!(got.floor_i().to_bits(), want.floor_i().to_bits(), "case {case}: floor_i");
    }
}

#[test]
fn log_direct_pool_and_marginals_equal_split_built() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let log = if case % 2 == 0 { generator_log(&mut rng) } else { edge_log(&mut rng) };
        assert!(log.span_months() >= 3, "case {case}: the log must span a split");
        assert_log_direct_equals_split_built(case, &log);
    }
}
