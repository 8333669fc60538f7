//! The chain: an ordered stage sequence built from a string spec.

use crate::spec::{parse_spec, SpecError, StageSpec};
use crate::stage::{CandidateList, RerankContext, RerankStage};
use crate::stages::{CapStage, DebiasStage, ExploreStage, FilterStage, MmrStage};
use std::fmt;
use unimatch_ann::Hit;
use unimatch_obs::span_us;

/// How far beyond the requested `k` a chain over-fetches so downstream
/// stages (filters, caps, exploration) have material to work with.
const OVERFETCH_FACTOR: usize = 4;
const OVERFETCH_MIN_EXTRA: usize = 16;

/// The brownout over-fetch: still more than `k` (filters and caps need
/// *some* slack to return a full page), but half the normal headroom.
const REDUCED_OVERFETCH_FACTOR: usize = 2;
const REDUCED_OVERFETCH_MIN_EXTRA: usize = 8;

/// Which *optional* stages a degraded `apply` should skip — the serving
/// layer's brownout hook. Only the quality-enhancing stages (exploration,
/// MMR diversity) are skippable; correctness-bearing stages (business
/// rule filters, category caps, debias weighting) always run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSkip {
    /// Skip `explore` stages (seeded ε-exploration).
    pub explore: bool,
    /// Skip `mmr` stages (diversity re-scoring).
    pub mmr: bool,
}

impl StageSkip {
    /// Skip nothing — [`RerankChain::apply_degraded`] with this set is
    /// exactly [`RerankChain::apply`].
    pub const NONE: StageSkip = StageSkip { explore: false, mmr: false };

    /// Whether the stage named `name` is skipped under this set.
    pub fn skips(&self, name: &str) -> bool {
        (self.explore && name == "explore") || (self.mmr && name == "mmr")
    }

    /// True when nothing is skipped.
    pub fn is_none(&self) -> bool {
        !self.explore && !self.mmr
    }
}

/// An ordered sequence of [`RerankStage`]s applied after retrieval.
///
/// Built from a spec string (grammar: `stage[@weight][:key=value]…`,
/// comma-separated — see [`RerankChain::parse`]); the
/// empty spec is the **identity chain**, which is guaranteed bitwise
/// invisible: [`RerankChain::fetch_k`] returns `k` and
/// [`RerankChain::apply`] returns its input untouched.
pub struct RerankChain {
    stages: Vec<Box<dyn RerankStage>>,
    spec: String,
}

impl fmt::Debug for RerankChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RerankChain").field("spec", &self.spec).finish()
    }
}

impl Default for RerankChain {
    fn default() -> RerankChain {
        RerankChain::identity()
    }
}

/// The finite label set for the per-stage latency spans — `span_us`
/// interns labels as `&'static str`, so each shipped stage gets its own
/// literal.
fn stage_label(name: &'static str) -> &'static str {
    match name {
        "debias" => "stage=\"debias\"",
        "mmr" => "stage=\"mmr\"",
        "filter" => "stage=\"filter\"",
        "cap" => "stage=\"cap\"",
        "explore" => "stage=\"explore\"",
        _ => "stage=\"other\"",
    }
}

/// Weight handling declared per stage: range-checked default, or
/// rejected outright.
fn weight_in(
    s: &StageSpec,
    default: f32,
    min: f32,
    max: f32,
) -> Result<f32, SpecError> {
    match s.weight {
        None => Ok(default),
        Some(w) if w >= min && w <= max => Ok(w),
        Some(w) => Err(SpecError::WeightOutOfRange {
            stage: s.name.clone(),
            weight: w,
            min,
            max,
        }),
    }
}

fn no_weight(s: &StageSpec) -> Result<(), SpecError> {
    match s.weight {
        None => Ok(()),
        Some(_) => Err(SpecError::WeightNotAccepted(s.name.clone())),
    }
}

fn no_options(s: &StageSpec) -> Result<(), SpecError> {
    match s.options.first() {
        None => Ok(()),
        Some((key, _)) => {
            Err(SpecError::UnknownOption { stage: s.name.clone(), key: key.clone() })
        }
    }
}

/// The stage registry: maps a parsed clause to a typed stage, enforcing
/// each stage's weight range and option schema.
fn build_stage(s: &StageSpec) -> Result<Box<dyn RerankStage>, SpecError> {
    match s.name.as_str() {
        "debias" => {
            no_options(s)?;
            Ok(Box::new(DebiasStage { weight: weight_in(s, 1.0, 0.0, 100.0)? }))
        }
        "mmr" => {
            no_options(s)?;
            Ok(Box::new(MmrStage { lambda: weight_in(s, 0.5, 0.0, 1.0)? }))
        }
        "filter" => {
            no_weight(s)?;
            no_options(s)?;
            Ok(Box::new(FilterStage))
        }
        "cap" => {
            no_weight(s)?;
            let mut max = None;
            for (key, value) in &s.options {
                if key != "category" {
                    return Err(SpecError::UnknownOption {
                        stage: s.name.clone(),
                        key: key.clone(),
                    });
                }
                let parsed: usize = value.parse().map_err(|_| SpecError::BadOptionValue {
                    stage: s.name.clone(),
                    key: key.clone(),
                    raw: value.clone(),
                })?;
                if parsed == 0 {
                    return Err(SpecError::BadOptionValue {
                        stage: s.name.clone(),
                        key: key.clone(),
                        raw: value.clone(),
                    });
                }
                max = Some(parsed);
            }
            let max = max.ok_or_else(|| SpecError::MissingOption {
                stage: s.name.clone(),
                key: "category".to_string(),
            })?;
            Ok(Box::new(CapStage { max }))
        }
        "explore" => {
            no_options(s)?;
            Ok(Box::new(ExploreStage { epsilon: weight_in(s, 0.1, 0.0, 1.0)? }))
        }
        other => Err(SpecError::UnknownStage(other.to_string())),
    }
}

impl RerankChain {
    /// The empty chain — guaranteed bitwise invisible at every call
    /// site.
    pub fn identity() -> RerankChain {
        RerankChain { stages: Vec::new(), spec: String::new() }
    }

    /// Parses a chain spec (e.g.
    /// `debias@0.5,mmr@0.3,cap:category=3,explore@0.1`). The empty /
    /// all-whitespace spec yields the identity chain. Every malformed
    /// input maps to a typed [`SpecError`].
    pub fn parse(spec: &str) -> Result<RerankChain, SpecError> {
        let stages = parse_spec(spec)?
            .iter()
            .map(build_stage)
            .collect::<Result<Vec<_>, SpecError>>()?;
        let spec = stages.iter().map(|s| s.spec()).collect::<Vec<_>>().join(",");
        Ok(RerankChain { stages, spec })
    }

    /// Whether this is the identity chain (no stages).
    pub fn is_identity(&self) -> bool {
        self.stages.is_empty()
    }

    /// The canonical spec string: defaults resolved, whitespace
    /// normalized. Parsing the canonical spec reproduces this chain
    /// exactly (`parse(c.spec()).spec() == c.spec()`).
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Stage names in application order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// How many candidates retrieval should fetch so the chain can
    /// still return `k` after filtering and have a tail to explore
    /// into. The identity chain fetches exactly `k` — over-fetching
    /// would already be observable (extra work, different HNSW beam),
    /// so identity must not do it.
    pub fn fetch_k(&self, k: usize) -> usize {
        if self.is_identity() {
            k
        } else {
            k.saturating_mul(OVERFETCH_FACTOR).max(k.saturating_add(OVERFETCH_MIN_EXTRA))
        }
    }

    /// The brownout over-fetch: half the headroom of
    /// [`RerankChain::fetch_k`], for serving under pressure. The identity
    /// chain still fetches exactly `k`.
    pub fn fetch_k_reduced(&self, k: usize) -> usize {
        if self.is_identity() {
            k
        } else {
            k.saturating_mul(REDUCED_OVERFETCH_FACTOR)
                .max(k.saturating_add(REDUCED_OVERFETCH_MIN_EXTRA))
        }
    }

    /// Whether `skip` would actually drop a stage this chain runs —
    /// i.e. whether a degraded `apply` can differ from the full one.
    pub fn skip_affects(&self, skip: StageSkip) -> bool {
        self.stages.iter().any(|s| skip.skips(s.name()))
    }

    /// Runs every stage in order and truncates to `ctx.k`. The identity
    /// chain returns `hits` untouched (same allocation, same bytes).
    /// Per-stage latency is recorded as
    /// `unimatch_rerank_stage_us{stage=}` spans when observability is
    /// enabled.
    pub fn apply(&self, ctx: &RerankContext, hits: Vec<Hit>) -> Vec<Hit> {
        self.apply_degraded(ctx, hits, StageSkip::NONE)
    }

    /// [`RerankChain::apply`] minus the stages in `skip`. With
    /// [`StageSkip::NONE`] this is exactly `apply` (same bytes); under a
    /// brownout it sheds the optional quality stages while the
    /// correctness-bearing ones (filter, cap, debias) still run.
    pub fn apply_degraded(&self, ctx: &RerankContext, hits: Vec<Hit>, skip: StageSkip) -> Vec<Hit> {
        if self.is_identity() {
            return hits;
        }
        let mut candidates = CandidateList::from_hits(hits);
        for stage in &self.stages {
            if skip.skips(stage.name()) {
                continue;
            }
            let _span = span_us("unimatch_rerank_stage_us", stage_label(stage.name()));
            stage.apply(ctx, &mut candidates);
        }
        candidates.truncate(ctx.k);
        candidates.into_hits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unimatch_ann::EmbeddingStore;

    fn ctx<'a>(k: usize) -> RerankContext<'a> {
        RerankContext {
            store: None,
            log_marginals: None,
            external_ids: None,
            rules: None,
            seed: 42,
            query_tag: 9,
            k,
        }
    }

    fn hits(n: u32) -> Vec<Hit> {
        (0..n).map(|i| Hit { id: i, score: 1.0 - i as f32 * 0.01 }).collect()
    }

    #[test]
    fn identity_chain_is_invisible() {
        let chain = RerankChain::parse("").unwrap();
        assert!(chain.is_identity());
        assert_eq!(chain.fetch_k(7), 7);
        let input = hits(5);
        let out = chain.apply(&ctx(3), input.clone());
        assert_eq!(out, input, "identity must not even truncate");
        assert_eq!(chain.spec(), "");
    }

    #[test]
    fn full_chain_parses_and_canonicalizes() {
        let chain = RerankChain::parse(" debias@0.5, mmr@0.3 ,cap:category=3,explore@0.1")
            .unwrap();
        assert_eq!(chain.spec(), "debias@0.5,mmr@0.3,cap:category=3,explore@0.1");
        assert_eq!(chain.stage_names(), vec!["debias", "mmr", "cap", "explore"]);
        assert!(!chain.is_identity());
        assert!(chain.fetch_k(10) >= 40);
    }

    #[test]
    fn defaults_are_resolved_into_the_canonical_spec() {
        let chain = RerankChain::parse("debias,mmr,explore").unwrap();
        assert_eq!(chain.spec(), "debias@1,mmr@0.5,explore@0.1");
        // canonical spec round-trips to itself
        let again = RerankChain::parse(chain.spec()).unwrap();
        assert_eq!(again.spec(), chain.spec());
    }

    #[test]
    fn registry_rejections_are_typed() {
        assert_eq!(
            RerankChain::parse("boost@2").unwrap_err(),
            SpecError::UnknownStage("boost".to_string())
        );
        assert!(matches!(
            RerankChain::parse("mmr@1.5").unwrap_err(),
            SpecError::WeightOutOfRange { .. }
        ));
        assert_eq!(
            RerankChain::parse("filter@0.5").unwrap_err(),
            SpecError::WeightNotAccepted("filter".to_string())
        );
        assert_eq!(
            RerankChain::parse("cap").unwrap_err(),
            SpecError::MissingOption { stage: "cap".to_string(), key: "category".to_string() }
        );
        assert!(matches!(
            RerankChain::parse("cap:category=0").unwrap_err(),
            SpecError::BadOptionValue { .. }
        ));
        assert!(matches!(
            RerankChain::parse("cap:shelf=3").unwrap_err(),
            SpecError::UnknownOption { .. }
        ));
        assert!(matches!(
            RerankChain::parse("debias:category=3").unwrap_err(),
            SpecError::UnknownOption { .. }
        ));
    }

    #[test]
    fn chain_truncates_to_k_and_is_deterministic() {
        let store = EmbeddingStore::from_rows(
            &(0..40).map(|i| (i as f32).sin()).collect::<Vec<f32>>(),
            2,
        );
        let log_p: Vec<f32> = (0..20).map(|i| -((i + 2) as f32).ln()).collect();
        let chain = RerankChain::parse("debias@0.5,mmr@0.3,explore@0.2").unwrap();
        let c = RerankContext {
            store: Some(&store),
            log_marginals: Some(&log_p),
            ..ctx(5)
        };
        let a = chain.apply(&c, hits(20));
        let b = chain.apply(&c, hits(20));
        assert_eq!(a.len(), 5);
        assert_eq!(a, b, "chains are deterministic under a fixed context");
    }

    #[test]
    fn stage_skip_none_matches_apply_bytewise() {
        let log_p: Vec<f32> = (0..20).map(|i| -((i + 2) as f32).ln()).collect();
        let chain = RerankChain::parse("debias@0.5,explore@0.2").unwrap();
        let c = RerankContext { log_marginals: Some(&log_p), ..ctx(5) };
        let full = chain.apply(&c, hits(20));
        let none = chain.apply_degraded(&c, hits(20), StageSkip::NONE);
        assert_eq!(full, none);
    }

    #[test]
    fn skipping_explore_matches_the_chain_without_it() {
        let log_p: Vec<f32> = (0..20).map(|i| -((i + 2) as f32).ln()).collect();
        let with = RerankChain::parse("debias@0.5,explore@0.9").unwrap();
        let without = RerankChain::parse("debias@0.5").unwrap();
        let c = RerankContext { log_marginals: Some(&log_p), ..ctx(5) };
        let skip = StageSkip { explore: true, mmr: false };
        assert!(with.skip_affects(skip));
        assert!(!without.skip_affects(skip));
        let degraded = with.apply_degraded(&c, hits(20), skip);
        let reference = without.apply(&c, hits(20));
        assert_eq!(degraded, reference, "skipped stage must be a clean no-op");
    }

    #[test]
    fn reduced_overfetch_sits_between_k_and_the_full_overfetch() {
        let chain = RerankChain::parse("debias,explore").unwrap();
        for k in [1, 5, 10, 100] {
            let reduced = chain.fetch_k_reduced(k);
            assert!(reduced > k, "filters still need slack (k={k})");
            assert!(reduced < chain.fetch_k(k), "must shed work (k={k})");
        }
        let identity = RerankChain::identity();
        assert_eq!(identity.fetch_k_reduced(7), 7);
        // k arrives from request bodies: a huge one saturates, never wraps
        assert_eq!(chain.fetch_k(usize::MAX / 2), usize::MAX);
        assert_eq!(chain.fetch_k_reduced(usize::MAX - 1), usize::MAX);
    }

    #[test]
    fn obs_on_off_is_byte_identical() {
        let chain = RerankChain::parse("debias@0.5,explore@0.3").unwrap();
        let log_p: Vec<f32> = (0..20).map(|i| -((i + 2) as f32).ln()).collect();
        let c = RerankContext { log_marginals: Some(&log_p), ..ctx(5) };
        let off = chain.apply(&c, hits(20));
        unimatch_obs::set_enabled(true);
        let on = chain.apply(&c, hits(20));
        unimatch_obs::set_enabled(false);
        assert_eq!(off, on);
        let rendered = unimatch_obs::registry::render();
        assert!(
            rendered.contains("unimatch_rerank_stage_us"),
            "per-stage span must register: {rendered}"
        );
    }
}
