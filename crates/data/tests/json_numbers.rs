//! Number reading in `unimatch_data::json`, pinned against the text-only
//! scanner it replaced.
//!
//! [`reference_parse`] is that scanner, kept verbatim: it checks a
//! number's grammar, then hands the text to `str::parse::<f64>`. The
//! parser now builds the mantissa and exponent during its one scan and
//! converts them itself where that is exact. For every text a case draws,
//! both must accept with the same `f64` bits or reject with the same
//! offset and message. Case `n` draws from `StdRng::seed_from_u64(n)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_data::json::{Json, JsonError};

/// What `Json::parse` did before the one-pass conversion, for a document
/// that starts with a number: the old number scan, then the old trailing
/// check.
fn reference_parse(bytes: &[u8]) -> Result<f64, JsonError> {
    let err = |offset, message| JsonError { offset, message };
    let peek = |pos: usize| bytes.get(pos).copied();
    let mut pos = 0;
    assert!(
        matches!(peek(0), Some(b'-' | b'0'..=b'9')),
        "a case draws number texts only: {:?}",
        String::from_utf8_lossy(bytes)
    );
    let start = pos;
    if peek(pos) == Some(b'-') {
        pos += 1;
    }
    let digits_start = pos;
    while matches!(peek(pos), Some(b'0'..=b'9')) {
        pos += 1;
    }
    if pos == digits_start {
        return Err(err(pos, "expected digits"));
    }
    if peek(pos) == Some(b'.') {
        pos += 1;
        let frac_start = pos;
        while matches!(peek(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
        if pos == frac_start {
            return Err(err(pos, "expected digits after decimal point"));
        }
    }
    if matches!(peek(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(peek(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        let exp_start = pos;
        while matches!(peek(pos), Some(b'0'..=b'9')) {
            pos += 1;
        }
        if pos == exp_start {
            return Err(err(pos, "expected digits in exponent"));
        }
    }
    let text = std::str::from_utf8(&bytes[start..pos]).expect("number bytes are ASCII");
    let x: f64 = text.parse().map_err(|_| err(start, "number out of range"))?;
    while matches!(peek(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        pos += 1;
    }
    if pos != bytes.len() {
        return Err(err(pos, "trailing characters after document"));
    }
    Ok(x)
}

/// The `Display`, `{:e}` or `{:E}` text of `x`, picked by `rng`.
fn float_text<F>(rng: &mut StdRng, x: F) -> String
where
    F: std::fmt::Display + std::fmt::LowerExp + std::fmt::UpperExp,
{
    match rng.gen_range(0..4u32) {
        0 => format!("{x:e}"),
        1 => format!("{x:E}"),
        _ => format!("{x}"),
    }
}

/// `n` random decimal digits, the first of them nonzero.
fn significant_digits(rng: &mut StdRng, n: usize) -> String {
    (0..n)
        .map(|i| {
            let low = if i == 0 { b'1' } else { b'0' };
            rng.gen_range(low..=b'9') as char
        })
        .collect()
}

/// `0`s, as many as `rng` draws from `range`.
fn zeros(rng: &mut StdRng, range: std::ops::Range<usize>) -> String {
    "0".repeat(rng.gen_range(range))
}

/// A sign, then 1–30 significant digits split around an optional decimal
/// point, with leading zeros before them and fractional zeros after.
fn digit_string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(1..=30usize);
    let sig = significant_digits(rng, len);
    let mut s = String::new();
    if rng.gen_bool(0.3) {
        s.push('-');
    }
    let split = rng.gen_range(0..=sig.len());
    if split == 0 {
        s.push('0');
        if rng.gen_bool(0.5) {
            s.push('.');
            s.push_str(&zeros(rng, 0..25));
            s.push_str(&sig);
        } else {
            // only zeros: `0`, `000`, `-0.000`
            s.push_str(&zeros(rng, 0..4));
            if rng.gen_bool(0.5) {
                s.push('.');
                s.push_str(&zeros(rng, 1..6));
            }
        }
    } else {
        s.push_str(&zeros(rng, 0..3));
        s.push_str(&sig[..split]);
        if split < sig.len() || rng.gen_bool(0.5) {
            s.push('.');
            s.push_str(&sig[split..]);
            s.push_str(&zeros(rng, 0..12));
            if split == sig.len() {
                s.push('0');
            }
        }
    }
    s
}

/// An exponent suffix: `e`/`E`, an optional sign, and digits from the
/// fast path's ±22 out past any `f64`'s range.
fn exponent(rng: &mut StdRng) -> String {
    let e = if rng.gen_bool(0.2) { 'E' } else { 'e' };
    let sign = ["", "+", "-"][rng.gen_range(0..3usize)];
    let zeros = zeros(rng, 0..3);
    let magnitude: u64 = match rng.gen_range(0..4u32) {
        0 => rng.gen_range(0..=25),
        1 => rng.gen_range(0..=400),
        2 => rng.gen_range(0..=u32::MAX as u64),
        _ => rng.gen(),
    };
    format!("{e}{sign}{zeros}{magnitude}")
}

/// A number-shaped string that is often malformed: a random walk over the
/// number alphabet, optionally followed by whitespace or junk.
fn scrambled(rng: &mut StdRng) -> String {
    const ALPHABET: &[u8] = b"0123456789-+.eE";
    let mut s = String::from(["-", "0", "7"][rng.gen_range(0..3usize)]);
    for _ in 0..rng.gen_range(0..10usize) {
        s.push(ALPHABET[rng.gen_range(0..ALPHABET.len())] as char);
    }
    s.push_str(["", "", " ", "\n\t", "]", "x", " 1", ","][rng.gen_range(0..8usize)]);
    s
}

/// The text one case parses.
fn case_text(rng: &mut StdRng) -> String {
    match rng.gen_range(0..8u32) {
        0 => {
            let x = f32::from_bits(rng.gen());
            let x = if x.is_finite() { x } else { f32::MAX };
            float_text(rng, x)
        }
        1 => {
            let x = f64::from_bits(rng.gen());
            let x = if x.is_finite() { x } else { f64::MIN };
            float_text(rng, x)
        }
        2 => {
            // the corners: ±0, extremes, the smallest normal, subnormals
            let specials = [
                0.0f64,
                -0.0,
                f64::MIN,
                f64::MAX,
                f64::MIN_POSITIVE,
                f64::from_bits(1),
                -f64::from_bits(0x000f_ffff_ffff_ffff),
                f32::MIN as f64,
                f32::MAX as f64,
                f32::MIN_POSITIVE as f64,
                f32::from_bits(1) as f64,
                f32::from_bits(0x007f_ffff) as f64,
                (1u64 << 53) as f64,
                ((1u64 << 53) - 1) as f64,
                1e22,
                1e23,
                1e-22,
                1e-23,
            ];
            let x = specials[rng.gen_range(0..specials.len())];
            if rng.gen_bool(0.5) && (x as f32).is_finite() {
                float_text(rng, x as f32)
            } else {
                float_text(rng, x)
            }
        }
        3 => match rng.gen_range(0..3u32) {
            0 => rng.gen::<u64>().to_string(),
            1 => rng.gen_range(i64::MIN..0).to_string(),
            _ => rng.gen_range(0..100_000u32).to_string(),
        },
        4 => digit_string(rng),
        5 => format!("{}{}", digit_string(rng), exponent(rng)),
        6 => format!("{}{}", rng.gen_range(0..1_000u32), exponent(rng)),
        _ => scrambled(rng),
    }
}

fn run_cases(cases: u64) {
    let mut accepted = 0u64;
    for n in 0..cases {
        let mut rng = StdRng::seed_from_u64(n);
        let text = case_text(&mut rng);
        let want = reference_parse(text.as_bytes());
        match (Json::parse(text.as_bytes()), want) {
            (Ok(Json::Num(got)), Ok(want)) => {
                let msg = format!("case {n}: {text:?} read as {got:e}, not {want:e}");
                assert_eq!(got.to_bits(), want.to_bits(), "{msg}");
                accepted += 1;
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "case {n}: {text:?}"),
            (got, want) => {
                panic!("case {n}: {text:?} parsed as {got:?}, the text scanner gave {want:?}")
            }
        }
    }
    // the generators must feed the value comparison, not only the errors
    assert!(accepted * 2 > cases, "only {accepted} of {cases} cases accepted");
}

#[test]
fn numbers_read_as_the_text_scanner_reads_them() {
    run_cases(20_000);
}

/// The long run: `cargo test --release -p unimatch-data --test
/// json_numbers -- --ignored` (a few seconds in release).
#[test]
#[ignore = "1 M cases: run in release"]
fn numbers_read_as_the_text_scanner_reads_them_1m() {
    run_cases(1_000_000);
}

#[test]
fn malformed_documents_fail_where_they_always_did() {
    // (text, offset, message) as the text scanner reported them
    let golden: [(&[u8], usize, &str); 12] = [
        (b"{", 1, "expected string"),
        (b"[1,]", 3, "unexpected character"),
        (b"{\"a\":}", 5, "unexpected character"),
        (b"nul", 0, "invalid literal"),
        (b"1 2", 2, "trailing characters after document"),
        (b"\"unterminated", 13, "unterminated string"),
        (b"{\"a\" 1}", 5, "expected : after object key"),
        (b"[1 2]", 3, "expected , or ] in array"),
        (b"--1", 1, "expected digits"),
        (b"1.", 2, "expected digits after decimal point"),
        (b"1e", 2, "expected digits in exponent"),
        (b"\x01", 0, "unexpected character"),
    ];
    for (text, offset, message) in golden {
        let got = Json::parse(text).expect_err("malformed");
        assert_eq!(got, JsonError { offset, message }, "{:?}", String::from_utf8_lossy(text));
        if matches!(text[0], b'-' | b'0'..=b'9') {
            assert_eq!(Err(got), reference_parse(text));
        }
    }
}
