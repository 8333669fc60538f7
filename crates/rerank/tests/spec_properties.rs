//! Property tests for the chain-spec grammar: canonical round-trips,
//! and typed rejection of malformed inputs.
//!
//! Each property loops over `CASES` inputs, case `n` drawn from its own
//! `StdRng::seed_from_u64(n)`; a failure names its case, and looping
//! over that one number replays it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_rerank::{RerankChain, SpecError};

const CASES: u64 = 128;

/// One random valid stage clause, tagged with its stage name so chains
/// can avoid duplicates. `kind` selects the stage, the numbers feed its
/// weight/option.
fn clause(kind: usize, w: u32, n: usize) -> (String, String) {
    match kind % 8 {
        0 => ("debias".to_string(), format!("debias@{}", w as f32 / 10.0)),
        1 => ("mmr".to_string(), format!("mmr@{}", (w % 101) as f32 / 100.0)),
        2 => ("filter".to_string(), "filter".to_string()),
        3 => ("cap".to_string(), format!("cap:category={n}")),
        4 => ("explore".to_string(), format!("explore@{}", (w % 101) as f32 / 100.0)),
        // default-weight forms
        5 => ("debias".to_string(), "debias".to_string()),
        6 => ("mmr".to_string(), "mmr".to_string()),
        _ => ("explore".to_string(), "explore".to_string()),
    }
}

fn arbitrary_clause(rng: &mut StdRng) -> (String, String) {
    clause(rng.gen_range(0usize..8), rng.gen_range(0u32..=1000), rng.gen_range(1usize..=50))
}

/// A random valid chain: up to 5 clauses with distinct stage names.
fn arbitrary_chain(rng: &mut StdRng) -> String {
    let mut seen = Vec::new();
    let mut parts = Vec::new();
    for _ in 0..rng.gen_range(0usize..5) {
        let (name, text) = arbitrary_clause(rng);
        if !seen.contains(&name) {
            seen.push(name);
            parts.push(text);
        }
    }
    parts.join(",")
}

/// A random lowercase identifier.
fn lowercase_word(rng: &mut StdRng) -> String {
    (0..rng.gen_range(1usize..12)).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()
}

/// Every valid spec parses, and its canonical form is a fixed point:
/// parse(canonical).spec() == canonical.
#[test]
fn canonical_spec_round_trips() {
    for case in 0..CASES {
        let spec = arbitrary_chain(&mut StdRng::seed_from_u64(case));
        let chain = RerankChain::parse(&spec).expect("generated specs are valid");
        let canonical = chain.spec().to_string();
        let reparsed = RerankChain::parse(&canonical).expect("canonical specs are valid");
        assert_eq!(reparsed.spec(), canonical.as_str(), "case {case}");
        assert_eq!(reparsed.stage_names(), chain.stage_names(), "case {case}");
        assert_eq!(reparsed.is_identity(), chain.is_identity(), "case {case}");
    }
}

/// Whitespace around separators never changes the parse.
#[test]
fn whitespace_is_insignificant() {
    for case in 0..CASES {
        let spec = arbitrary_chain(&mut StdRng::seed_from_u64(case));
        let spaced = spec.replace(',', " , ");
        let a = RerankChain::parse(&spec).expect("valid");
        let b = RerankChain::parse(&spaced).expect("spaced variant stays valid");
        assert_eq!(a.spec(), b.spec(), "case {case}");
    }
}

/// Unknown stage names are rejected with the typed error carrying
/// the offending name.
#[test]
fn unknown_stages_rejected() {
    // a word that names a stage is redrawn from the next case, not counted
    let checked = (0u64..)
        .map(|case| (case, lowercase_word(&mut StdRng::seed_from_u64(case))))
        .filter(|(_, name)| {
            !matches!(name.as_str(), "debias" | "mmr" | "filter" | "cap" | "explore")
        })
        .take(CASES as usize);
    for (case, name) in checked {
        match RerankChain::parse(&name) {
            Err(SpecError::UnknownStage(got)) => assert_eq!(got, name, "case {case}"),
            other => panic!("case {case}: expected UnknownStage, got {other:?}"),
        }
    }
}

/// Non-numeric weights are rejected as BadWeight with the raw text.
#[test]
fn non_numeric_weights_rejected() {
    // a word that parses as a float ("inf", "nan") is redrawn, not counted
    let checked = (0u64..)
        .map(|case| (case, lowercase_word(&mut StdRng::seed_from_u64(case))))
        .filter(|(_, raw)| raw.parse::<f32>().is_err())
        .take(CASES as usize);
    for (case, raw) in checked {
        match RerankChain::parse(&format!("debias@{raw}")) {
            Err(SpecError::BadWeight { stage, raw: got }) => {
                assert_eq!(stage, "debias", "case {case}");
                assert_eq!(got, raw, "case {case}");
            }
            other => panic!("case {case}: expected BadWeight, got {other:?}"),
        }
    }
}

/// Out-of-range weights for bounded stages are rejected as such.
#[test]
fn out_of_range_weights_rejected() {
    for case in 0..CASES {
        let w = StdRng::seed_from_u64(case).gen_range(1.0001f32..1000.0);
        for stage in ["mmr", "explore"] {
            match RerankChain::parse(&format!("{stage}@{w}")) {
                Err(SpecError::WeightOutOfRange { weight, min, max, .. }) => {
                    assert_eq!(weight, w, "case {case}");
                    assert_eq!(min, 0.0, "case {case}");
                    assert_eq!(max, 1.0, "case {case}");
                }
                other => panic!("case {case}: expected WeightOutOfRange, got {other:?}"),
            }
        }
    }
}

/// Repeating any stage in a chain is rejected as DuplicateStage.
#[test]
fn duplicate_stages_rejected() {
    for case in 0..CASES {
        let (_, text) = arbitrary_clause(&mut StdRng::seed_from_u64(case));
        let doubled = format!("{text},{text}");
        assert!(
            matches!(RerankChain::parse(&doubled), Err(SpecError::DuplicateStage(_))),
            "case {case}: {doubled}"
        );
    }
}

/// Repeated option keys within one clause are rejected.
#[test]
fn duplicate_option_keys_rejected() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (a, b) = (rng.gen_range(1usize..50), rng.gen_range(1usize..50));
        let spec = format!("cap:category={a}:category={b}");
        assert_eq!(
            RerankChain::parse(&spec).unwrap_err(),
            SpecError::DuplicateOption { stage: "cap".to_string(), key: "category".to_string() },
            "case {case}"
        );
    }
}
