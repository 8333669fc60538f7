//! The catalogue: the four workloads and every metric the benchmark
//! reports. `BENCHMARK.json` at the repository root is the one place where
//! names, units, directions, bounds and the one-line *why* of a workload
//! are written; it is compiled into the binary and parsed by
//! [`catalogue`]. This module adds what that file has no key for: the
//! conditions of each workload and which metrics it owns.
//!
//! Every run is one deployment cycle of the paper's system (Sec. III-B3):
//! train the month, write the checkpoint, load it, answer online requests
//! for both tasks, run the offline audience job. The driver asks for every
//! end-to-end metric on every run, so all of them exist on every workload;
//! a workload fixes the *conditions* of the cycle (deployment and traffic
//! shape) and where the measured seconds go.

use std::sync::OnceLock;

use unimatch_core::RetrieverKind;
use unimatch_data::json::Json;

/// The production re-ranking chain (`docs/OPERATIONS.md`), every stage on.
pub const PRODUCTION_CHAIN: &str = "debias@0.5,mmr@0.3,filter,cap:category=3,explore@0.1";

/// What is deployed from the month's checkpoint for the online phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Deploy {
    /// Retrieval backend of both towers.
    pub retriever: RetrieverKind,
    /// Row-range shards per tower.
    pub shards: usize,
    /// Re-ranking chain spec; a non-empty chain also loads the rules
    /// sidecar (item id mod 17 categories, every 97th item denied).
    pub chain: &'static str,
}

/// How the client offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Offer {
    /// Open loop: Poisson arrivals at this rate from a seeded schedule,
    /// each request timed from its due time.
    Paced {
        /// Mean arrivals per second.
        rate_rps: f64,
    },
    /// Closed loop: every client thread sends its next request as soon as
    /// the previous answer is read, no think time.
    Closed,
}

/// The online traffic of a workload: 50/50 `/recommend` and `/target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Traffic {
    /// Open or closed loop.
    pub offer: Offer,
    /// Requested list length.
    pub k: usize,
    /// Share of `/recommend` histories drawn (Zipf) from 512 hot pool
    /// users; the rest are unique, so this is the embedding-cache hit
    /// ratio the workload aims at.
    pub hot_share: f64,
    /// Unique histories are this long (`None`: 3 to `max_seq_len`).
    pub unique_len: Option<usize>,
    /// A `200` counts toward goodput only when it arrives within this.
    pub limit_us: f64,
}

/// One workload: a cycle under stated conditions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Online deployment.
    pub deploy: Deploy,
    /// Online traffic.
    pub traffic: Traffic,
    /// Shares of `--seconds` given to the train, online and offline
    /// phases; they sum to 1.
    pub shares: [f64; 3],
    /// The end-to-end metrics this workload's conditions and seconds are
    /// chosen for, beside `setup_s` and `peak_rss_mb`, which every
    /// workload owns. The others exist on it because the driver asks for
    /// every metric on every run; `compare` does not judge them.
    pub owns: &'static [&'static str],
}

/// Owned by every workload.
pub const OWNED_BY_ALL: [&str; 2] = ["setup_s", "peak_rss_mb"];

impl Workload {
    /// Whether `compare` judges `metric` on this workload.
    pub fn owns(&self, metric: &str) -> bool {
        OWNED_BY_ALL.contains(&metric) || self.owns.contains(&metric)
    }
}

/// The default configuration with the exact backend: one shard, identity
/// chain. Also the deployment the offline job runs on.
pub const DEFAULT_EXACT: Deploy = Deploy {
    retriever: RetrieverKind::Exact,
    shards: 1,
    chain: "",
};

const SATURATED_HOT: Traffic = Traffic {
    offer: Offer::Closed,
    k: 10,
    hot_share: 0.8,
    unique_len: None,
    limit_us: 10_000.0,
};

/// The four workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-paced",
        deploy: Deploy {
            retriever: RetrieverKind::Hnsw,
            shards: 1,
            chain: "",
        },
        traffic: Traffic {
            offer: Offer::Paced { rate_rps: 240.0 },
            k: 10,
            hot_share: 0.8,
            unique_len: None,
            limit_us: 10_000.0,
        },
        shares: [0.30, 0.44, 0.26],
        owns: &[
            "recommend_p50_us",
            "target_p50_us",
            "goodput_rps",
            "recall_at_10",
        ],
    },
    Workload {
        name: "serve-heavy",
        deploy: Deploy {
            retriever: RetrieverKind::Exact,
            shards: 2,
            chain: PRODUCTION_CHAIN,
        },
        traffic: Traffic {
            offer: Offer::Closed,
            k: 50,
            hot_share: 0.0,
            unique_len: Some(usize::MAX),
            limit_us: 25_000.0,
        },
        shares: [0.30, 0.44, 0.26],
        owns: &["recommend_p50_us", "target_p50_us", "goodput_rps"],
    },
    Workload {
        name: "offline-audience",
        deploy: DEFAULT_EXACT,
        traffic: SATURATED_HOT,
        shares: [0.30, 0.15, 0.55],
        owns: &["recall_at_10"],
    },
    Workload {
        name: "train-month",
        deploy: DEFAULT_EXACT,
        traffic: SATURATED_HOT,
        shares: [0.59, 0.15, 0.26],
        owns: &["ndcg_avg"],
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric as `BENCHMARK.json` defines it. End-to-end metrics carry the
/// bound — the share of the parent's median by which they may worsen;
/// per-layer metrics none.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`, parsed.
#[derive(Debug)]
pub struct Catalogue {
    /// Seconds one driver run measures (`run_seconds`).
    pub run_seconds: u64,
    /// Workload names and their one-line *why*, in file order.
    pub workloads: Vec<(String, String)>,
    /// The end-to-end metrics, measured with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// The per-layer metrics, from the traced pass only. Layers are crate
    /// names; `client` is the load generator itself.
    pub per_layer: Vec<MetricDef>,
}

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

fn text(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("BENCHMARK.json: an entry lacks {key:?}"))
        .to_string()
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: no {key:?} array"))
}

fn metric(entry: &Json) -> MetricDef {
    MetricDef {
        name: text(entry, "name"),
        unit: text(entry, "unit"),
        better: match text(entry, "better").as_str() {
            "lower" => Better::Lower,
            "higher" => Better::Higher,
            other => panic!("BENCHMARK.json: better is {other:?}"),
        },
        bound: entry.get("bound").and_then(Json::as_f64),
    }
}

/// The compiled-in `BENCHMARK.json`. Panics if the file is malformed: it
/// is part of the source, and `cargo test` checks it.
pub fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON.as_bytes()).expect("BENCHMARK.json is JSON");
        Catalogue {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: entries(&doc, "workloads")
                .iter()
                .map(|w| (text(w, "name"), text(w, "why")))
                .collect(),
            end_to_end: entries(&doc, "end_to_end").iter().map(metric).collect(),
            per_layer: entries(&doc, "per_layer").iter().map(metric).collect(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn benchmark_json_meets_the_contract_and_names_these_workloads() {
        let cat = catalogue();
        let doc = Json::parse(BENCHMARK_JSON.as_bytes()).expect("JSON");
        assert!(BENCHMARK_JSON.len() < 64 * 1024);
        assert_eq!(
            doc.get("paths").and_then(Json::as_array),
            Some(&[Json::str("crates/benchmark")][..])
        );
        assert!((1..=60).contains(&cat.run_seconds));

        let mut names = std::collections::BTreeSet::new();
        for (name, why) in &cat.workloads {
            assert!(well_formed(name, 64, "_.-") && names.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        let here: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let there: Vec<&str> = cat.workloads.iter().map(|w| w.0.as_str()).collect();
        assert_eq!(
            here, there,
            "spec.rs and BENCHMARK.json name other workloads"
        );

        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            assert!(
                well_formed(&m.name, 64, "_.-") && names.insert(&m.name),
                "{}",
                m.name
            );
            assert!(
                well_formed(&m.unit, 16, "_/%.-"),
                "{} unit {}",
                m.name,
                m.unit
            );
        }
        assert!((1..=16).contains(&cat.end_to_end.len()));
        assert!((1..=128).contains(&cat.per_layer.len()));
        assert!(cat
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(cat.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = cat
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
    }

    #[test]
    fn shares_sum_to_one_and_owned_metrics_exist() {
        let cat = catalogue();
        for w in &WORKLOADS {
            assert!(
                (w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
                "{}",
                w.name
            );
            for owned in OWNED_BY_ALL.iter().chain(w.owns) {
                assert!(
                    cat.end_to_end.iter().any(|m| m.name == *owned),
                    "{} owns {owned}, which BENCHMARK.json does not define",
                    w.name
                );
            }
        }
        // every end-to-end metric is judged somewhere
        for m in &cat.end_to_end {
            assert!(
                WORKLOADS.iter().any(|w| w.owns(&m.name)),
                "{} has no owner",
                m.name
            );
        }
    }
}
