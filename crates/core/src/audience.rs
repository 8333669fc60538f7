//! Campaign audience construction — the merchant workflow the paper's
//! introduction motivates: practitioners "create multiple targeting lists
//! according to different promotion subjects, e.g., popular products or
//! bundles of items", then message each list. This module turns the
//! fitted model's UT capability into concrete, de-duplicated lists with
//! the business rules a real campaign needs (recent-buyer exclusion,
//! frequency capping).

use crate::framework::FittedUniMatch;
use std::collections::{HashMap, HashSet};
use unimatch_data::InteractionLog;

/// What a campaign promotes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignSubject {
    /// One item.
    Item(u32),
    /// A bundle: the query is the normalized mean of the items' embeddings
    /// (the paper's "bundles of items" promotion subject).
    Bundle(Vec<u32>),
}

/// A targeting-list request.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name (report key).
    pub name: String,
    /// Promotion subject.
    pub subject: CampaignSubject,
    /// Desired list size.
    pub list_size: usize,
    /// Exclude users who already bought any subject item within this many
    /// trailing days (None ⇒ no exclusion).
    pub exclude_buyers_within_days: Option<u32>,
    /// Explicitly excluded user ids (opt-outs, blocklists).
    pub exclude_users: HashSet<u32>,
}

impl CampaignSpec {
    /// A plain single-item campaign with no exclusions.
    pub fn item(name: impl Into<String>, item: u32, list_size: usize) -> Self {
        CampaignSpec {
            name: name.into(),
            subject: CampaignSubject::Item(item),
            list_size,
            exclude_buyers_within_days: None,
            exclude_users: HashSet::new(),
        }
    }

    fn subject_items(&self) -> Vec<u32> {
        match &self.subject {
            CampaignSubject::Item(i) => vec![*i],
            CampaignSubject::Bundle(items) => items.clone(),
        }
    }
}

/// One built list: `(user, affinity)` pairs, best first.
#[derive(Clone, Debug)]
pub struct TargetingList {
    /// The campaign's name.
    pub name: String,
    /// Ranked targeted users.
    pub users: Vec<(u32, f32)>,
}

/// Builds one targeting list.
pub fn build_targeting_list(
    fitted: &FittedUniMatch,
    log: &InteractionLog,
    spec: &CampaignSpec,
) -> TargetingList {
    let items = spec.subject_items();
    assert!(!items.is_empty(), "campaign needs at least one subject item");
    let query = subject_query(fitted, &items);

    // recent-buyer exclusion set
    let mut excluded = spec.exclude_users.clone();
    if let Some(days) = spec.exclude_buyers_within_days {
        let last_day = log.records().iter().map(|r| r.day).max().unwrap_or(0);
        let cutoff = last_day.saturating_sub(days);
        let subject: HashSet<u32> = items.iter().copied().collect();
        for r in log.records() {
            if r.day >= cutoff && subject.contains(&r.item) {
                excluded.insert(r.user);
            }
        }
    }

    // over-fetch to survive exclusions, then filter
    let fetch = (spec.list_size + excluded.len()).max(spec.list_size * 2);
    let pipeline = fitted.user_pipeline();
    let users = pipeline
        .translate(pipeline.run_one(&query, fetch))
        .into_iter()
        .filter(|(u, _)| !excluded.contains(u))
        .take(spec.list_size)
        .collect();
    TargetingList { name: spec.name.clone(), users }
}

/// Builds several campaign lists with a per-user contact cap: a user
/// appears in at most `max_contacts_per_user` lists (campaigns earlier in
/// the slice have priority), the merchant-side frequency-capping rule.
pub fn plan_campaigns(
    fitted: &FittedUniMatch,
    log: &InteractionLog,
    specs: &[CampaignSpec],
    max_contacts_per_user: usize,
) -> Vec<TargetingList> {
    assert!(max_contacts_per_user >= 1, "contact cap must be >= 1");
    let mut contacts: HashMap<u32, usize> = HashMap::new();
    let mut lists = Vec::with_capacity(specs.len());
    for spec in specs {
        let raw = build_targeting_list(fitted, log, spec);
        let mut capped = Vec::with_capacity(spec.list_size);
        for (user, score) in raw.users {
            let c = contacts.entry(user).or_insert(0);
            if *c < max_contacts_per_user {
                *c += 1;
                capped.push((user, score));
            }
        }
        lists.push(TargetingList { name: spec.name.clone(), users: capped });
    }
    lists
}

/// The (normalized) query embedding for a promotion subject, blended
/// from the fitted model's item store rows (same bits as re-running item
/// inference, without the forward pass).
fn subject_query(fitted: &FittedUniMatch, items: &[u32]) -> Vec<f32> {
    let store = fitted.item_store();
    let d = store.dim();
    let mut query = vec![0.0f32; d];
    for &i in items {
        let row = store.decode_row(i as usize);
        for (q, &x) in query.iter_mut().zip(row.iter()) {
            *q += x;
        }
    }
    let norm = query.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
    for q in query.iter_mut() {
        *q /= norm;
    }
    query
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::{UniMatch, UniMatchConfig};
    use unimatch_data::DatasetProfile;

    fn fitted_and_log() -> (FittedUniMatch, InteractionLog) {
        let log = DatasetProfile::WComp.generate(0.15, 51).filter_min_interactions(3);
        let fitted =
            UniMatch::new(UniMatchConfig { epochs_per_month: 1, ..Default::default() }).fit(log.clone());
        (fitted, log)
    }

    #[test]
    fn list_has_requested_size_and_order() {
        let (fitted, log) = fitted_and_log();
        let spec = CampaignSpec::item("promo", 0, 25);
        let list = build_targeting_list(&fitted, &log, &spec);
        assert_eq!(list.users.len(), 25);
        assert!(list.users.windows(2).all(|w| w[0].1 >= w[1].1));
        let distinct: HashSet<u32> = list.users.iter().map(|&(u, _)| u).collect();
        assert_eq!(distinct.len(), 25, "no duplicate users");
    }

    #[test]
    fn explicit_exclusions_are_respected() {
        let (fitted, log) = fitted_and_log();
        let base = build_targeting_list(&fitted, &log, &CampaignSpec::item("a", 0, 10));
        let banned: HashSet<u32> = base.users.iter().take(3).map(|&(u, _)| u).collect();
        let spec = CampaignSpec {
            exclude_users: banned.clone(),
            ..CampaignSpec::item("b", 0, 10)
        };
        let list = build_targeting_list(&fitted, &log, &spec);
        assert!(list.users.iter().all(|(u, _)| !banned.contains(u)));
        assert_eq!(list.users.len(), 10);
    }

    #[test]
    fn recent_buyers_are_excluded() {
        let (fitted, log) = fitted_and_log();
        let item = 0u32;
        let last_day = log.records().iter().map(|r| r.day).max().expect("records");
        let recent: HashSet<u32> = log
            .records()
            .iter()
            .filter(|r| r.item == item && r.day >= last_day.saturating_sub(60))
            .map(|r| r.user)
            .collect();
        let spec = CampaignSpec {
            exclude_buyers_within_days: Some(60),
            ..CampaignSpec::item("no-recents", item, 20)
        };
        let list = build_targeting_list(&fitted, &log, &spec);
        assert!(
            list.users.iter().all(|(u, _)| !recent.contains(u)),
            "a recent buyer slipped into the list"
        );
    }

    #[test]
    fn bundle_query_is_unit_norm_blend() {
        let (fitted, log) = fitted_and_log();
        let spec = CampaignSpec {
            subject: CampaignSubject::Bundle(vec![0, 1, 2]),
            ..CampaignSpec::item("bundle", 0, 15)
        };
        let list = build_targeting_list(&fitted, &log, &spec);
        assert_eq!(list.users.len(), 15);
    }

    #[test]
    fn frequency_cap_limits_cross_campaign_contacts() {
        let (fitted, log) = fitted_and_log();
        let specs: Vec<CampaignSpec> =
            (0..4).map(|i| CampaignSpec::item(format!("c{i}"), i, 30)).collect();
        let lists = plan_campaigns(&fitted, &log, &specs, 2);
        let mut contact_count: HashMap<u32, usize> = HashMap::new();
        for l in &lists {
            for &(u, _) in &l.users {
                *contact_count.entry(u).or_insert(0) += 1;
            }
        }
        assert!(contact_count.values().all(|&c| c <= 2), "contact cap violated");
        // priority: the first campaign keeps its full list
        assert_eq!(lists[0].users.len(), 30);
    }
}
