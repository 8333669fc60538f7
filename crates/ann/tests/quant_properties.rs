//! Property suite for the quantized row codec: encode→decode error
//! bounds for the per-row-affine i8 encoding, scale/zero-point edge
//! cases, and a dequant-dot-vs-f32-dot tolerance oracle under seeded
//! random rows. These are the *analytic* guarantees the differential
//! suite's recall gate rests on.

mod common;

use common::{exact_dot, unit_cloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unimatch_ann::{i8_decode, i8_encode, i8_row_params, EmbeddingStore, RowFormat};

const DIM: usize = 16;

// ---------------------------------------------------------------------------
// i8
// ---------------------------------------------------------------------------

#[test]
fn i8_round_trip_error_is_half_step_bounded() {
    let mut rng = StdRng::seed_from_u64(0x18);
    for _ in 0..500 {
        let row: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-3.0f32..3.0)).collect();
        let params = i8_row_params(&row);
        let [scale, zero] = params;
        assert!(scale >= 0.0 && scale.is_finite());
        assert!(zero.is_finite());
        for &x in &row {
            let back = i8_decode(i8_encode(x, params), params);
            // nearest-code rounding: at most half a quantization step,
            // with a little slack for the decode's own fp rounding
            let bound = scale * 0.5 + scale * 1e-5 + 1e-12;
            assert!((back - x).abs() <= bound, "{x} -> {back} (scale {scale})");
        }
        // the row extremes pin the code range: min sits exactly at code 0
        let min = row.iter().copied().fold(f32::INFINITY, f32::min);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(i8_encode(min, params), 0);
        assert_eq!(i8_decode(0, params), min, "zero-point must decode exactly");
        assert_eq!(i8_encode(max, params), 255);
    }
}

#[test]
fn i8_edge_case_rows() {
    // all-zero row: scale collapses, every value decodes to exactly 0
    let zeroes = [0.0f32; DIM];
    let p = i8_row_params(&zeroes);
    assert_eq!(p, [0.0, 0.0]);
    assert_eq!(i8_decode(i8_encode(0.0, p), p), 0.0);

    // constant row: exact round trip through the zero-point
    let constant = [0.37f32; DIM];
    let p = i8_row_params(&constant);
    assert_eq!(p[0], 0.0, "constant row has zero scale");
    assert_eq!(p[1], 0.37);
    for &x in &constant {
        assert_eq!(i8_decode(i8_encode(x, p), p), x);
    }

    // single-value difference: the two poles land exactly on codes 0/255
    let mut two = [1.5f32; DIM];
    two[3] = -2.5;
    let p = i8_row_params(&two);
    assert_eq!(i8_encode(-2.5, p), 0);
    assert_eq!(i8_encode(1.5, p), 255);
    assert_eq!(i8_decode(0, p), -2.5);

    // ±extreme magnitudes: the overflow-safe `max/255 - min/255` form
    // keeps the *params* finite even when `max - min` itself overflows
    // (the naive scale would be inf and poison every decode)
    let extremes = [f32::MAX, f32::MIN, 0.0, 1.0]
        .into_iter()
        .cycle()
        .take(DIM)
        .collect::<Vec<_>>();
    let p = i8_row_params(&extremes);
    assert!(p[0].is_finite() && p[0] > 0.0);
    assert_eq!(p[1], f32::MIN);
    assert_eq!(i8_encode(f32::MIN, p), 0);
    assert_eq!(i8_encode(f32::MAX, p), 255);
    assert_eq!(i8_decode(0, p), f32::MIN, "the zero-point decode stays exact");

    // large-but-representable spread: every decode stays finite and the
    // poles land exactly on the code range ends
    let wide = [1e30f32, -1e30, 0.0, 1.0]
        .into_iter()
        .cycle()
        .take(DIM)
        .collect::<Vec<_>>();
    let p = i8_row_params(&wide);
    for &x in &wide {
        assert!(i8_decode(i8_encode(x, p), p).is_finite());
    }
    assert_eq!(i8_encode(-1e30, p), 0);
    assert_eq!(i8_encode(1e30, p), 255);
}

#[test]
#[should_panic(expected = "non-finite")]
fn i8_rejects_nan_rows() {
    let mut row = [0.5f32; DIM];
    row[7] = f32::NAN;
    let _ = i8_row_params(&row);
}

#[test]
#[should_panic(expected = "non-finite")]
fn i8_rejects_infinite_rows() {
    let mut row = [0.5f32; DIM];
    row[0] = f32::INFINITY;
    let _ = i8_row_params(&row);
}

#[test]
#[should_panic(expected = "non-finite")]
fn quantize_rejects_non_finite_stores() {
    let mut data = vec![0.25f32; 4 * DIM];
    data[9] = f32::NEG_INFINITY;
    let store = EmbeddingStore::from_vec(data, DIM);
    let _ = store.quantize(RowFormat::I8);
}

// ---------------------------------------------------------------------------
// store-level decode + fused dequant-dot
// ---------------------------------------------------------------------------

#[test]
fn store_decode_matches_the_scalar_codecs() {
    let data = unit_cloud(60, DIM, 0xdec0);
    let store = EmbeddingStore::from_vec(data.clone(), DIM);

    let i8s = store.quantize(RowFormat::I8);
    for r in 0..60 {
        let row = &data[r * DIM..(r + 1) * DIM];
        let params = i8_row_params(row);
        assert_eq!(i8s.row_params(r), params, "row {r} params drift");
        for (i, (&want_src, got)) in row.iter().zip(i8s.decode_row(r).iter()).enumerate() {
            assert_eq!(
                got.to_bits(),
                i8_decode(i8_encode(want_src, params), params).to_bits(),
                "i8 row {r} col {i}"
            );
        }
    }
}

#[test]
fn dequant_dot_tracks_the_f32_oracle() {
    let rows = 200;
    let data = unit_cloud(rows, DIM, 0x5c03e);
    let queries = unit_cloud(32, DIM, 0x9e4);
    let store = EmbeddingStore::from_vec(data, DIM);

    // analytic worst case over unit rows/queries (dim 16): per-value
    // error <= scale/2 <= (2/255)/2, summed through |q|_1 <= sqrt(16) = 4
    // -> ~1.6e-2; gate at 5e-2
    let tol = 5e-2f32;
    let q = store.quantize(RowFormat::I8);
    for query in queries.chunks(DIM) {
        for r in 0..rows {
            let exact = store.score_row(query, r);
            let approx = q.score_row(query, r);
            assert!((exact - approx).abs() <= tol, "row {r}: |{exact} - {approx}| > {tol}");
            // the fused kernel must agree with scoring the decoded row
            // through the f32 path; it fuses the affine decode into the
            // multiply-add, so equality is numerical, not bitwise
            let reference = exact_dot(query, &q.decode_row(r));
            assert!(
                (approx - reference).abs() <= 1e-5,
                "row {r}: fused {approx} vs decoded {reference}"
            );
        }
    }
}

#[test]
fn quantized_scores_are_deterministic_across_runs() {
    let data = unit_cloud(100, DIM, 0xd8);
    let queries = unit_cloud(8, DIM, 0xd9);
    let store = EmbeddingStore::from_vec(data, DIM);
    let a = store.quantize(RowFormat::I8);
    let b = store.quantize(RowFormat::I8);
    for query in queries.chunks(DIM) {
        for r in 0..100 {
            assert_eq!(
                a.score_row(query, r).to_bits(),
                b.score_row(query, r).to_bits(),
                "row {r}: independent quantizations must score bit-identically"
            );
        }
    }
}
