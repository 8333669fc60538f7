//! Property tests for the hand-rolled `unimatch_data::json` codec, which
//! backs model persistence and the HTTP API.
//!
//! The properties are driven by a seeded RNG (the workspace builds
//! offline with no external test frameworks): thousands of arbitrary
//! nested documents are generated, encoded, reparsed, and compared
//! structurally. Numeric values are generated as `Json::Num`
//! only — the `F32` variant is a writer-side optimization that reparses
//! as `Num` by design, so it round-trips *numerically* but not
//! *structurally* (covered separately below).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_data::json::Json;

/// An arbitrary string exercising every escape class the writer knows:
/// plain ASCII, quotes/backslashes, named escapes, raw control chars,
/// multi-byte unicode, and astral-plane codepoints (surrogate pairs in
/// `\u` form).
fn arbitrary_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    let mut s = String::new();
    for _ in 0..len {
        match rng.gen_range(0..8u32) {
            0 => s.push(rng.gen_range(b'a'..=b'z') as char),
            1 => s.push('"'),
            2 => s.push('\\'),
            3 => s.push(['\n', '\r', '\t'][rng.gen_range(0..3usize)]),
            4 => s.push(char::from_u32(rng.gen_range(1..0x20u32)).unwrap()),
            5 => s.push(['é', 'ß', '中', 'Ω'][rng.gen_range(0..4usize)]),
            6 => s.push(['😀', '🦀', '𝕏'][rng.gen_range(0..3usize)]),
            _ => s.push(rng.gen_range(b' '..=b'~') as char),
        }
    }
    s
}

/// An arbitrary finite `f64`. Rust's shortest-round-trip `Display` means
/// *any* finite double survives write → parse exactly.
fn arbitrary_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen_range(-1.0f64..1.0),
        2 => rng.gen_range(-1.0f64..1.0) * 1e300,
        _ => rng.gen_range(-1.0f64..1.0) * 1e-300,
    }
}

/// An arbitrary document with bounded depth and size.
fn arbitrary_json(rng: &mut StdRng, depth: usize) -> Json {
    let variants: u32 = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..variants) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Num(arbitrary_number(rng)),
        3 => Json::Str(arbitrary_string(rng)),
        4 => {
            let n = rng.gen_range(0..5usize);
            Json::Arr((0..n).map(|_| arbitrary_json(rng, depth - 1)).collect())
        }
        _ => {
            let n = rng.gen_range(0..5usize);
            Json::Obj(
                (0..n).map(|i| (format!("{}_{i}", arbitrary_string(rng)), arbitrary_json(rng, depth - 1))).collect(),
            )
        }
    }
}

#[test]
fn arbitrary_documents_round_trip_structurally() {
    let mut rng = StdRng::seed_from_u64(0xC0DEC);
    for case in 0..2_000 {
        let doc = arbitrary_json(&mut rng, 6);
        let text = doc.to_string();
        let back = Json::parse(text.as_bytes())
            .unwrap_or_else(|e| panic!("case {case}: reparse failed: {e}\ndoc: {text}"));
        assert_eq!(back, doc, "case {case}: round trip changed the document\ntext: {text}");
        // and the canonical form is a fixed point
        assert_eq!(back.to_string(), text, "case {case}: second encode differs");
    }
}

#[test]
fn f32_variant_round_trips_numerically_as_num() {
    // The writer-side F32 variant reparses as Num with the same value —
    // the documented contract for checkpoint floats.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..2_000 {
        let x: f32 = rng.gen_range(-1.0e30f32..1.0e30);
        let text = Json::F32(x).to_string();
        let back = Json::parse(text.as_bytes()).expect("f32 text parses");
        assert_eq!(back.as_f32(), Some(x), "f32 {x} changed through {text}");
        assert!(matches!(back, Json::Num(_)), "parser must not invent F32");
    }
}

#[test]
fn non_finite_numbers_are_written_as_null_and_rejected_as_input() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::Num(x).to_string(), "null", "non-finite f64 must serialize as null");
    }
    for x in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        assert_eq!(Json::F32(x).to_string(), "null", "non-finite f32 must serialize as null");
    }
    // The grammar has no NaN/Infinity tokens; such inputs must be errors,
    // not silently coerced.
    for text in ["NaN", "Infinity", "-Infinity", "[1,NaN]", "{\"x\":Infinity}", "1e999x"] {
        assert!(Json::parse(text.as_bytes()).is_err(), "{text:?} must be rejected");
    }
}

#[test]
fn escape_classes_round_trip() {
    let cases = [
        "".to_string(),
        "\"\\\u{8}\u{c}\n\r\t".to_string(),
        (0x01u32..0x20).map(|c| char::from_u32(c).unwrap()).collect::<String>(),
        "mixed \"quotes\" and \\ backslashes\nand 中文 and 😀🦀".to_string(),
        "\u{7f}\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}".to_string(),
    ];
    for s in cases {
        let doc = Json::Str(s.clone());
        let back = Json::parse(doc.to_string().as_bytes()).expect("escaped string parses");
        assert_eq!(back, doc, "string {s:?} did not survive");
    }
    // surrogate pairs in \u form decode to the astral codepoint…
    let parsed = Json::parse(b"\"\\ud83d\\ude00\"").expect("surrogate pair parses");
    assert_eq!(parsed, Json::Str("😀".to_string()));
    // …but unpaired or malformed surrogates are rejected
    for bad in [&b"\"\\ud83d\""[..], b"\"\\ud83dx\"", b"\"\\ud83d\\u0041\"", b"\"\\ude00\""] {
        assert!(Json::parse(bad).is_err(), "{:?} must be rejected", String::from_utf8_lossy(bad));
    }
}

#[test]
fn deep_nesting_is_bounded_not_crashing() {
    // Well inside the limit: parses and round-trips.
    let deep = |n: usize| format!("{}1{}", "[".repeat(n), "]".repeat(n));
    let ok = deep(60);
    let doc = Json::parse(ok.as_bytes()).expect("60-deep array parses");
    assert_eq!(doc.to_string(), ok);

    // Beyond the limit: a clean error (offset + message), not a stack
    // overflow — the parser's defense against adversarial HTTP bodies.
    let err = Json::parse(deep(200).as_bytes()).expect_err("200-deep array must be rejected");
    assert_eq!(err.message, "nesting too deep");

    // Same bound applies through objects.
    let nested_obj =
        format!("{}1{}", "{\"k\":".repeat(200), "}".repeat(200));
    assert!(Json::parse(nested_obj.as_bytes()).is_err(), "deep objects must be rejected too");
}

#[test]
fn parser_rejects_structural_garbage() {
    let cases: [&[u8]; 12] = [
        b"",
        b"  ",
        b"[1,]",
        b"{\"a\":}",
        b"{\"a\" 1}",
        b"{a:1}",
        b"[1 2]",
        b"tru",
        b"nul",
        b"1 2",
        b"\"unterminated",
        b"[1]extra",
    ];
    for bytes in cases {
        assert!(
            Json::parse(bytes).is_err(),
            "{:?} must be rejected",
            String::from_utf8_lossy(bytes)
        );
    }
}
