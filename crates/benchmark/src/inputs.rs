//! Everything the program is fed, generated from the seed and nothing
//! else: the interaction log, the rules sidecar, the request mix and the
//! arrival schedule. The same seed gives the same bytes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_data::calendar::month_start;
use unimatch_data::{DatasetProfile, InteractionLog};

use crate::spec::Traffic;

/// Hot pool users a workload's `hot_share` draws from.
pub const HOT_USERS: usize = 512;

/// The month's data, as the production loop sees it.
pub struct Corpus {
    /// The full log: what the monthly update and every deployment see.
    pub log: InteractionLog,
    /// The log up to the second-to-last month: what `fit` sees.
    pub prior: InteractionLog,
    /// The last month `fit` on `prior` trains on (its own last month is
    /// its held-out month), i.e. the `trained_through` of the update.
    pub trained_through: u32,
}

/// Generates the `Large` profile at `scale` from `seed`, filtered as the
/// CLI does, and cuts the prior log one month short.
pub fn corpus(seed: u64, scale: f64) -> Corpus {
    let log = DatasetProfile::Large
        .generate(scale, seed)
        .filter_min_interactions(3);
    let months = log.span_months();
    assert!(
        months >= 5,
        "the production loop needs at least 5 months, got {months}"
    );
    let cut = month_start(months - 1);
    let prior = log.filtered(|r| r.day < cut);
    Corpus {
        log,
        prior,
        trained_through: months - 3,
    }
}

/// The rules sidecar of the production chain: every item categorised
/// (id mod 17), every 97th denied.
pub fn rules_json(num_items: u32) -> String {
    let categories: Vec<String> = (0..num_items)
        .map(|id| format!("[{id},{}]", id % 17))
        .collect();
    let deny: Vec<String> = (0..num_items)
        .step_by(97)
        .map(|id| id.to_string())
        .collect();
    format!(
        "{{\"deny\":[{}],\"categories\":[{}]}}",
        deny.join(","),
        categories.join(",")
    )
}

/// What a request asks.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// `/recommend` for this history.
    Recommend(Vec<u32>),
    /// `/target` for this item.
    Target(u32),
}

/// One pre-encoded request.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// The query, for the in-process checks.
    pub query: Query,
    /// Requested list length.
    pub k: usize,
    /// The complete HTTP/1.1 request as sent.
    pub wire: Vec<u8>,
}

impl Request {
    fn new(query: Query, k: usize) -> Request {
        let (path, body) = match &query {
            Query::Recommend(history) => {
                let ids: Vec<String> = history.iter().map(u32::to_string).collect();
                (
                    "/recommend",
                    format!("{{\"history\":[{}],\"k\":{k}}}", ids.join(",")),
                )
            }
            Query::Target(item) => ("/target", format!("{{\"item\":{item},\"k\":{k}}}")),
        };
        let wire = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes();
        Request { query, k, wire }
    }

    /// Whether this is a `/recommend`.
    pub fn is_recommend(&self) -> bool {
        matches!(self.query, Query::Recommend(_))
    }

    /// The JSON body inside [`Request::wire`].
    #[cfg(test)]
    pub fn body(&self) -> &[u8] {
        let at = self
            .wire
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("head/body split");
        &self.wire[at + 4..]
    }
}

/// `n` requests, half `/recommend` and half `/target` in seeded order.
/// A `/recommend` history is, with probability `hot_share`, a Zipf(1)
/// draw from [`HOT_USERS`] pool histories, otherwise fresh random items
/// (unique with overwhelming probability, so it misses the cache). The
/// hot set depends on `seed` alone; `stream` selects one of the seed's
/// request streams (one per offered interval), so every interval of a run
/// sends different requests to the same hot users.
pub fn requests(
    seed: u64,
    stream: u64,
    n: usize,
    traffic: &Traffic,
    pool_histories: &[Vec<u32>],
    num_items: u32,
    max_seq_len: usize,
) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x686f_7420_7573_6572); // "hot user"
    let hot: Vec<&Vec<u32>> = {
        let mut picks: Vec<usize> = (0..pool_histories.len()).collect();
        let take = HOT_USERS.min(picks.len());
        for i in 0..take {
            let j = rng.gen_range(i..picks.len());
            picks.swap(i, j);
        }
        picks[..take].iter().map(|&p| &pool_histories[p]).collect()
    };
    // Zipf(1) over the hot set by inverse CDF
    let weights: Vec<f64> = (0..hot.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream) ^ 0x7265_7175_6573_7473); // "requests"
    (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                let history = if !hot.is_empty() && rng.gen_bool(traffic.hot_share) {
                    let u: f64 = rng.gen();
                    hot[cdf.partition_point(|&c| c < u).min(hot.len() - 1)].clone()
                } else {
                    let len = match traffic.unique_len {
                        Some(len) => len.min(max_seq_len),
                        None => rng.gen_range(3..=max_seq_len.max(3)),
                    };
                    (0..len).map(|_| rng.gen_range(0..num_items)).collect()
                };
                Request::new(Query::Recommend(history), traffic.k)
            } else {
                Request::new(Query::Target(rng.gen_range(0..num_items)), traffic.k)
            }
        })
        .collect()
}

/// The seed of one of a run's streams.
fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Due times (seconds from the start of the interval) of a Poisson
/// process at `rate_rps`, up to `duration_s`.
pub fn poisson_schedule(seed: u64, stream: u64, rate_rps: f64, duration_s: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, stream) ^ 0x7363_6865_6475_6c65); // "schedule"
    let mut due = Vec::with_capacity((rate_rps * duration_s) as usize + 16);
    let mut t = 0.0;
    loop {
        t += -rng.gen_range(f64::EPSILON..1.0).ln() / rate_rps;
        if t >= duration_s {
            return due;
        }
        due.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    fn pool() -> Vec<Vec<u32>> {
        (0..900u32)
            .map(|u| vec![u % 50, (u * 7) % 50, (u * 3) % 50])
            .collect()
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let traffic = WORKLOADS[0].traffic;
        let a = requests(5, 0, 400, &traffic, &pool(), 50, 20);
        let b = requests(5, 0, 400, &traffic, &pool(), 50, 20);
        let c = requests(6, 0, 400, &traffic, &pool(), 50, 20);
        let d = requests(5, 1, 400, &traffic, &pool(), 50, 20);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(
            poisson_schedule(5, 0, 240.0, 3.0),
            poisson_schedule(5, 0, 240.0, 3.0)
        );
        assert_ne!(
            poisson_schedule(5, 0, 240.0, 3.0),
            poisson_schedule(6, 0, 240.0, 3.0)
        );
        assert_ne!(
            poisson_schedule(5, 0, 240.0, 3.0),
            poisson_schedule(5, 1, 240.0, 3.0)
        );
        assert_eq!(rules_json(200), rules_json(200));
    }

    #[test]
    fn mix_and_schedule_have_the_stated_shape() {
        let traffic = WORKLOADS[0].traffic;
        let reqs = requests(1, 0, 4_000, &traffic, &pool(), 50, 20);
        let recommends: Vec<&Request> = reqs.iter().filter(|r| r.is_recommend()).collect();
        assert!(
            (1_800..2_200).contains(&recommends.len()),
            "{}",
            recommends.len()
        );
        let distinct: std::collections::HashSet<&[u8]> =
            recommends.iter().map(|r| r.body()).collect();
        // 80% hot draws from at most 512 histories, 20% unique
        let unique_share = distinct.len() as f64 / recommends.len() as f64;
        assert!((0.2..0.5).contains(&unique_share), "{unique_share}");
        assert!(reqs
            .iter()
            .all(|r| r.body().starts_with(b"{\"") && r.body().ends_with(b"}")));

        let heavy = requests(1, 0, 500, &WORKLOADS[1].traffic, &pool(), 50, 20);
        assert!(heavy.iter().all(|r| match &r.query {
            Query::Recommend(h) => h.len() == 20 && r.k == 50,
            Query::Target(i) => *i < 50,
        }));

        let due = poisson_schedule(3, 0, 240.0, 10.0);
        assert!((2_200..2_600).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] < w[1]) && *due.last().expect("non-empty") < 10.0);
    }
}
