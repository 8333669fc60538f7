//! Synthetic interaction-log generator.
//!
//! Substitutes for the paper's two Amazon and two QuickAudience datasets
//! (Tab. III), which are respectively too large to train here and
//! proprietary. The generator is a latent-cluster temporal model producing
//! the four statistical properties the paper's experiments depend on:
//!
//! 1. **Skewed item popularity** (Zipf) — so `p̂(i)` bias correction and
//!    the Tab. XI popularity audit are meaningful;
//! 2. **Skewed user activity** (lognormal) — so `p̂(u)` correction matters
//!    on dense datasets and not on sparse ones;
//! 3. **Learnable structure** — users hold cluster preferences and items
//!    belong to clusters, and consecutive purchases follow a cluster
//!    transition cycle, giving sequence encoders signal;
//! 4. **Temporal drift** — item popularity follows per-item lifecycle
//!    bumps whose strength is a profile knob, reproducing why incremental
//!    training helps a lot on Books / e_comp and little on Electronics /
//!    w_comp (Fig. 3).

use crate::alias::AliasTable;
use crate::calendar::DAYS_PER_MONTH;
use crate::log::{Interaction, InteractionLog};
use rand::Rng;
use rand::SeedableRng;

/// Knobs of the generative model.
#[derive(Clone, Debug)]
pub struct SyntheticConfig {
    /// Profile name (for reports).
    pub name: String,
    /// Number of users.
    pub num_users: usize,
    /// Number of items.
    pub num_items: usize,
    /// Approximate total number of interactions to generate.
    pub target_interactions: usize,
    /// Months the log spans.
    pub months: u32,
    /// Latent clusters shared by users and items.
    pub num_clusters: usize,
    /// Zipf exponent of the item base-popularity distribution.
    pub zipf_exponent: f64,
    /// Lognormal σ of per-user activity (0 ⇒ everyone equally active).
    pub activity_sigma: f64,
    /// Weight of a user's primary cluster in their preference mixture
    /// (the remainder spreads uniformly; higher ⇒ more predictable users).
    pub preference_focus: f64,
    /// Probability that a purchase follows the cluster-transition cycle of
    /// the previous purchase instead of the static preference.
    pub sequence_coherence: f64,
    /// 0 ⇒ stationary popularity; 1 ⇒ popularity dominated by per-item
    /// monthly lifecycle bumps.
    pub trend_strength: f64,
    /// Maximum events for a single user (keeps timelines bounded).
    pub max_user_events: usize,
    /// Whether a user may purchase the same item twice. Amazon-style
    /// catalogs (books, electronics) are effectively repurchase-free,
    /// which is what makes their UT task genuinely different from IR;
    /// consumable catalogs (e_comp, w_comp) repurchase heavily.
    pub repeat_purchases: bool,
}

/// The four dataset profiles of Tab. III, scaled to laptop size (~1/100 of
/// the paper's row counts, 12 months instead of 24–47).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DatasetProfile {
    /// Amazon Books: moderate density, strongly trending items.
    Books,
    /// Amazon Electronics: very sparse users (~1.8 actions), stable items.
    Electronics,
    /// QuickAudience e_comp: small catalog, dense, trending.
    EComp,
    /// QuickAudience w_comp: tiny catalog, extremely popular items, stable.
    WComp,
    /// Serving-scale preset: e_comp's statistical shape scaled an order of
    /// magnitude toward its full Tab. III size. Not a paper column (it is
    /// excluded from [`DatasetProfile::ALL`]); exists to size the retrieval
    /// indexes for load testing and shard capacity planning
    /// (`docs/OPERATIONS.md`).
    Large,
}

impl DatasetProfile {
    /// All profiles in the paper's column order. [`DatasetProfile::Large`]
    /// is deliberately absent: the experiment tables iterate this list and
    /// the load-testing preset is not a paper dataset.
    pub const ALL: [DatasetProfile; 4] = [
        DatasetProfile::Books,
        DatasetProfile::Electronics,
        DatasetProfile::EComp,
        DatasetProfile::WComp,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            DatasetProfile::Books => "Books",
            DatasetProfile::Electronics => "Electronics",
            DatasetProfile::EComp => "QA e_comp",
            DatasetProfile::WComp => "QA w_comp",
            DatasetProfile::Large => "Large (serving)",
        }
    }

    /// The paper's Tab. III row for this dataset:
    /// `(users, items, interactions, months, actions/user, actions/item)`.
    pub fn paper_stats(self) -> (u64, u64, u64, u32, f64, f64) {
        match self {
            DatasetProfile::Books => (536_409, 338_739, 6_132_506, 31, 11.4, 18.1),
            DatasetProfile::Electronics => (3_142_438, 382_246, 5_566_859, 31, 1.8, 14.6),
            DatasetProfile::EComp => (237_052, 15_168, 1_350_566, 47, 5.7, 89.0),
            DatasetProfile::WComp => (867_107, 507, 2_762_870, 24, 3.2, 5449.4),
            // Large models e_comp at full size, so it shares that row.
            DatasetProfile::Large => (237_052, 15_168, 1_350_566, 47, 5.7, 89.0),
        }
    }

    /// The paper's per-dataset history truncation length (Sec. IV-A1).
    pub fn max_seq_len(self) -> usize {
        match self {
            DatasetProfile::Books => 20,
            DatasetProfile::Electronics => 36,
            DatasetProfile::EComp | DatasetProfile::Large => 29,
            DatasetProfile::WComp => 18,
        }
    }

    /// Evaluation cutoff `N` of Recall@N / NDCG@N (5 for w_comp, else 10).
    pub fn top_n(self) -> usize {
        match self {
            DatasetProfile::WComp => 5,
            _ => 10,
        }
    }

    /// Number of sampled negatives per test case (49 for w_comp, else 99).
    pub fn num_eval_negatives(self) -> usize {
        match self {
            DatasetProfile::WComp => 49,
            _ => 99,
        }
    }

    /// A generator config scaled by `scale` (1.0 ≈ 1/100 of the paper).
    pub fn config(self, scale: f64) -> SyntheticConfig {
        let s = |x: usize| ((x as f64 * scale).round() as usize).max(8);
        match self {
            DatasetProfile::Books => SyntheticConfig {
                name: self.name().to_string(),
                num_users: s(5400),
                num_items: s(3400),
                target_interactions: s(61_000),
                months: 12,
                num_clusters: 16,
                zipf_exponent: 0.9,
                activity_sigma: 0.9,
                preference_focus: 0.65,
                sequence_coherence: 0.35,
                trend_strength: 0.8,
                max_user_events: 200,
                repeat_purchases: false,
            },
            DatasetProfile::Electronics => SyntheticConfig {
                name: self.name().to_string(),
                num_users: s(18_000),
                num_items: s(3800),
                target_interactions: s(43_000),
                months: 12,
                num_clusters: 16,
                zipf_exponent: 1.05,
                activity_sigma: 0.5,
                preference_focus: 0.6,
                sequence_coherence: 0.25,
                trend_strength: 0.15,
                max_user_events: 60,
                repeat_purchases: false,
            },
            DatasetProfile::EComp => SyntheticConfig {
                name: self.name().to_string(),
                num_users: s(2400),
                num_items: s(160),
                target_interactions: s(13_600),
                months: 12,
                num_clusters: 8,
                zipf_exponent: 0.8,
                activity_sigma: 0.8,
                preference_focus: 0.7,
                sequence_coherence: 0.35,
                trend_strength: 0.75,
                max_user_events: 150,
                repeat_purchases: true,
            },
            DatasetProfile::WComp => SyntheticConfig {
                name: self.name().to_string(),
                num_users: s(8700),
                num_items: 56.max((507.0 * scale / 9.0).round() as usize),
                target_interactions: s(27_600),
                months: 12,
                num_clusters: 6,
                zipf_exponent: 0.7,
                activity_sigma: 0.6,
                preference_focus: 0.7,
                sequence_coherence: 0.3,
                trend_strength: 0.15,
                max_user_events: 80,
                repeat_purchases: true,
            },
            // e_comp's knobs, an order of magnitude more users/items: the
            // retrieval indexes this produces are what `--shards` is sized
            // against.
            DatasetProfile::Large => SyntheticConfig {
                name: self.name().to_string(),
                num_users: s(24_000),
                num_items: s(1_600),
                target_interactions: s(136_000),
                months: 12,
                num_clusters: 16,
                zipf_exponent: 0.8,
                activity_sigma: 0.8,
                preference_focus: 0.7,
                sequence_coherence: 0.35,
                trend_strength: 0.4,
                max_user_events: 150,
                repeat_purchases: true,
            },
        }
    }

    /// Generates the scaled synthetic log for this profile.
    pub fn generate(self, scale: f64, seed: u64) -> InteractionLog {
        generate(&self.config(scale), seed)
    }
}

/// Generates an interaction log from a config, deterministically per seed.
pub fn generate(cfg: &SyntheticConfig, seed: u64) -> InteractionLog {
    assert!(cfg.num_clusters >= 2, "need at least 2 clusters");
    assert!(cfg.num_items >= cfg.num_clusters, "need items >= clusters");
    assert!(cfg.months >= 4, "need >= 4 months for the temporal split");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x556e_694d_6174_6368); // "UniMatch"

    // ---- items: cluster, base popularity (zipf over a random rank), trend
    let item_cluster: Vec<usize> = (0..cfg.num_items).map(|i| i % cfg.num_clusters).collect();
    let mut ranks: Vec<usize> = (0..cfg.num_items).collect();
    for i in (1..ranks.len()).rev() {
        ranks.swap(i, rng.gen_range(0..=i));
    }
    let base_pop: Vec<f64> = ranks
        .iter()
        .map(|&r| 1.0 / ((r + 1) as f64).powf(cfg.zipf_exponent))
        .collect();
    // lifecycle bump per item
    let peak_month: Vec<f64> = (0..cfg.num_items)
        .map(|_| rng.gen_range(-2.0..cfg.months as f64 + 2.0))
        .collect();
    let peak_width: Vec<f64> = (0..cfg.num_items).map(|_| rng.gen_range(1.5..4.0)).collect();

    let pop_at = |i: usize, month: u32| -> f64 {
        let z = (month as f64 - peak_month[i]) / peak_width[i];
        let bump = (-0.5 * z * z).exp();
        base_pop[i] * ((1.0 - cfg.trend_strength) + cfg.trend_strength * (0.02 + bump))
    };

    // per (cluster, month) alias tables + item lists
    let mut cluster_items: Vec<Vec<u32>> = vec![Vec::new(); cfg.num_clusters];
    for (i, &c) in item_cluster.iter().enumerate() {
        cluster_items[c].push(i as u32);
    }
    let mut samplers: Vec<Vec<AliasTable>> = Vec::with_capacity(cfg.num_clusters);
    for (c, items) in cluster_items.iter().enumerate() {
        assert!(!items.is_empty(), "cluster {c} has no items");
        let mut per_month = Vec::with_capacity(cfg.months as usize);
        for m in 0..cfg.months {
            let w: Vec<f64> = items.iter().map(|&i| pop_at(i as usize, m)).collect();
            per_month.push(AliasTable::new(&w));
        }
        samplers.push(per_month);
    }

    // ---- users: activity, join month, primary cluster
    let mu = (cfg.target_interactions as f64 / cfg.num_users as f64).max(1.0);
    let lognormal = |rng: &mut rand::rngs::StdRng| -> f64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (cfg.activity_sigma * z).exp()
    };

    let mut records = Vec::with_capacity(cfg.target_interactions + cfg.num_users);
    for u in 0..cfg.num_users {
        // activity count, lognormal around the mean with median correction
        let correction = (-0.5 * cfg.activity_sigma * cfg.activity_sigma).exp();
        let n = (mu * correction * lognormal(&mut rng)).round() as usize;
        let n = n.clamp(1, cfg.max_user_events);
        let join = rng.gen_range(0..cfg.months);
        let primary = rng.gen_range(0..cfg.num_clusters);

        // event days within the active window, sorted
        let mut days: Vec<u32> = (0..n)
            .map(|_| {
                let m = rng.gen_range(join..cfg.months);
                m * DAYS_PER_MONTH + rng.gen_range(0..DAYS_PER_MONTH)
            })
            .collect();
        days.sort_unstable();

        let mut prev_cluster: Option<usize> = None;
        let mut purchased: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for day in days {
            let month = day / DAYS_PER_MONTH;
            let cluster = match prev_cluster {
                Some(pc) if rng.gen::<f64>() < cfg.sequence_coherence => {
                    (pc + 1) % cfg.num_clusters // deterministic transition cycle
                }
                _ => {
                    if rng.gen::<f64>() < cfg.preference_focus {
                        primary
                    } else {
                        rng.gen_range(0..cfg.num_clusters)
                    }
                }
            };
            let mut item = {
                let within = samplers[cluster][month as usize].sample(&mut rng);
                cluster_items[cluster][within as usize]
            };
            if !cfg.repeat_purchases {
                // resample a bounded number of times to avoid repurchases
                for _ in 0..12 {
                    if !purchased.contains(&item) {
                        break;
                    }
                    let within = samplers[cluster][month as usize].sample(&mut rng);
                    item = cluster_items[cluster][within as usize];
                }
                purchased.insert(item);
            }
            records.push(Interaction { user: u as u32, item, day });
            prev_cluster = Some(cluster);
        }
    }
    InteractionLog::new(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::month_of;

    #[test]
    fn deterministic_per_seed() {
        let cfg = DatasetProfile::EComp.config(0.2);
        let a = generate(&cfg, 7);
        let b = generate(&cfg, 7);
        assert_eq!(a.records(), b.records());
        let c = generate(&cfg, 8);
        assert_ne!(a.records(), c.records());
    }

    #[test]
    fn respects_universe_and_span() {
        let cfg = DatasetProfile::EComp.config(0.2);
        let log = generate(&cfg, 1);
        assert!(log.num_items() as usize <= cfg.num_items);
        assert!(log.num_users() as usize <= cfg.num_users);
        assert_eq!(log.span_months(), cfg.months);
        assert!(log.records().iter().all(|r| month_of(r.day) < cfg.months));
    }

    #[test]
    fn interaction_volume_near_target() {
        let cfg = DatasetProfile::EComp.config(0.5);
        let log = generate(&cfg, 2);
        let got = log.len() as f64;
        let want = cfg.target_interactions as f64;
        assert!(got > want * 0.5 && got < want * 2.0, "{got} vs target {want}");
    }

    #[test]
    fn item_popularity_is_skewed() {
        let log = DatasetProfile::Books.generate(0.2, 3);
        let mut counts = log.item_counts();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = counts[..counts.len() / 10].iter().sum();
        let total: u64 = counts.iter().sum();
        // top 10% of items should own well over 10% of the interactions
        assert!(top_decile as f64 > 0.35 * total as f64, "top decile {top_decile}/{total}");
    }

    #[test]
    fn trendy_profile_shifts_monthly_popularity() {
        let cfg = DatasetProfile::Books.config(0.3);
        let log = generate(&cfg, 4);
        let early = log.item_counts_in(0, 3 * DAYS_PER_MONTH);
        let late = log.item_counts_in(9 * DAYS_PER_MONTH, 12 * DAYS_PER_MONTH);
        // rank correlation between early and late popularity should be far
        // from perfect for a trendy profile: compare top-item overlap
        let top = |v: &[u64]| -> std::collections::HashSet<usize> {
            let mut ix: Vec<usize> = (0..v.len()).collect();
            ix.sort_unstable_by(|&a, &b| v[b].cmp(&v[a]));
            ix[..v.len() / 20].iter().copied().collect()
        };
        let overlap = top(&early).intersection(&top(&late)).count() as f64
            / (early.len() as f64 / 20.0);
        assert!(overlap < 0.8, "trendy top-items overlap {overlap}");
    }

    #[test]
    fn stable_profile_keeps_monthly_popularity() {
        let cfg = DatasetProfile::WComp.config(0.3);
        let log = generate(&cfg, 4);
        let early = log.item_counts_in(0, 3 * DAYS_PER_MONTH);
        let late = log.item_counts_in(9 * DAYS_PER_MONTH, 12 * DAYS_PER_MONTH);
        let top = |v: &[u64]| -> std::collections::HashSet<usize> {
            let mut ix: Vec<usize> = (0..v.len()).collect();
            ix.sort_unstable_by(|&a, &b| v[b].cmp(&v[a]));
            ix[..(v.len() / 5).max(1)].iter().copied().collect()
        };
        let denom = (early.len() as f64 / 5.0).max(1.0);
        let overlap = top(&early).intersection(&top(&late)).count() as f64 / denom;
        assert!(overlap > 0.5, "stable top-items overlap {overlap}");
    }

    #[test]
    fn timelines_are_chronological() {
        let log = DatasetProfile::EComp.generate(0.2, 5);
        for (_, t) in log.timelines() {
            assert!(t.windows(2).all(|w| w[0].day <= w[1].day));
        }
    }
}
