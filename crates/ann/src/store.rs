//! The shared embedding arena every retrieval path scores against.
//!
//! [`EmbeddingStore`] owns a row-major matrix in a 32-byte-aligned
//! allocation (one cache-line-friendly, SIMD-ready block) plus an
//! optional id↔row mapping for corpora whose external ids are not dense
//! row indices (e.g. the user pool's user ids). Indexes hold the store
//! behind an `Arc`, so brute force and HNSW built over the same
//! embeddings share one arena instead of two private copies.
//!
//! **[`RowFormat`]** extends the original f32 arena: rows are stored as
//! `f32` or per-row affine-quantized 8-bit codes (`i8`). Quantized
//! stores never hand out borrowed `&[f32]` rows; scoring goes through the
//! fused [`EmbeddingStore::score_row`] (dequantize inside the
//! multiply-add loop, no row materialized) and cold paths through
//! [`EmbeddingStore::decode_row`]. A quantized store is always derived
//! in memory from an f32 one ([`EmbeddingStore::quantize`]).
//!
//! Determinism contract: for a fixed format, [`EmbeddingStore::score_row`]
//! is one sequential multiply-add reduction in row order — the same
//! association order as [`crate::dot`] — so scores are bit-identical
//! across runs and thread counts.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ptr::NonNull;
use std::sync::Arc;

/// Alignment (bytes) of every [`EmbeddingStore`] allocation.
pub const STORE_ALIGN: usize = 32;

/// How a store's rows are encoded in the arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RowFormat {
    /// Full-precision `f32` rows (the training/checkpoint format).
    F32,
    /// Per-row affine 8-bit codes: 1 byte per value plus a `[scale,
    /// zero]` pair per row; `value = zero + scale * code`.
    I8,
}

impl RowFormat {
    /// Bytes one value occupies in this format.
    pub fn bytes_per_value(self) -> usize {
        match self {
            RowFormat::F32 => 4,
            RowFormat::I8 => 1,
        }
    }

    /// The CLI / schema name (`f32`, `i8`).
    pub fn name(self) -> &'static str {
        match self {
            RowFormat::F32 => "f32",
            RowFormat::I8 => "i8",
        }
    }

    /// Parses a CLI / schema name.
    pub fn parse(s: &str) -> Option<RowFormat> {
        match s {
            "f32" => Some(RowFormat::F32),
            "i8" => Some(RowFormat::I8),
            _ => None,
        }
    }

    /// Every format, in declaration order (bench/eval sweeps).
    pub const ALL: [RowFormat; 2] = [RowFormat::F32, RowFormat::I8];
}

// ---------------------------------------------------------------------------
// i8 codec: per-row affine quantization
// ---------------------------------------------------------------------------

/// Per-row `[scale, zero]` for a row's `i8` codes: `value = zero +
/// scale * code`, codes in `0..=255`. The overflow-safe `max/255 -
/// min/255` form keeps the scale finite even for ±`f32::MAX` rows.
pub fn i8_row_params(row: &[f32]) -> [f32; 2] {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &x in row {
        assert!(x.is_finite(), "non-finite value {x} cannot be quantized");
        min = min.min(x);
        max = max.max(x);
    }
    let scale = max / 255.0 - min / 255.0;
    [scale, min]
}

/// Encodes one value against a row's `[scale, zero]` params.
pub fn i8_encode(x: f32, params: [f32; 2]) -> u8 {
    let [scale, zero] = params;
    if scale <= 0.0 {
        return 0; // constant row: every value decodes to `zero` exactly
    }
    ((x - zero) / scale).round().clamp(0.0, 255.0) as u8
}

/// Decodes one `i8` code against a row's `[scale, zero]` params.
pub fn i8_decode(code: u8, params: [f32; 2]) -> f32 {
    params[1] + params[0] * code as f32
}

// ---------------------------------------------------------------------------
// Arena
// ---------------------------------------------------------------------------

/// A fixed-size, 32-byte-aligned byte buffer — the arena behind every
/// store.
///
/// `Vec<u8>` only guarantees 1-byte alignment; this buffer allocates
/// through [`std::alloc`] with an explicit [`STORE_ALIGN`]-byte layout so
/// the arena's base address is stable for aligned `f32` loads.
struct AlignedBuf {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the buffer is an owned allocation of plain bytes; sharing or
// sending it across threads is exactly as safe as for a Vec<u8>.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Layout of a `len`-byte allocation. Panics if the size overflows.
    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, STORE_ALIGN).expect("store layout")
    }

    /// An aligned, zero-initialized buffer of `len` bytes.
    fn zeroed(len: usize) -> AlignedBuf {
        if len == 0 {
            // Dangle at STORE_ALIGN so empty windows still cast to &[f32].
            let ptr = NonNull::new(STORE_ALIGN as *mut u8).expect("non-zero align");
            return AlignedBuf { ptr, len: 0 };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: ptr covers exactly len initialized bytes (zeroed at
        // allocation, only ever written through as_bytes_mut).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: as as_bytes, plus &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: allocated in zeroed() with this exact layout.
            unsafe { dealloc(self.ptr.as_ptr(), Self::layout(self.len)) };
        }
    }
}

/// Row ↔ external-id mapping for stores whose rows are not identified by
/// their own index (kept out of the hot path: searches speak row ids,
/// translation happens once per returned hit).
#[derive(Clone, Debug, Default)]
struct IdMap {
    row_to_id: Vec<u32>,
    id_to_row: HashMap<u32, u32>,
}

/// An aligned, row-major embedding matrix with id↔row mapping — either a
/// whole arena or a zero-copy row-range *view* into one, in any
/// [`RowFormat`].
///
/// Built either by copying rows in ([`EmbeddingStore::from_vec`],
/// [`EmbeddingStore::with_ids`]), zero-fill-then-write
/// ([`EmbeddingStore::zeroed`] + [`EmbeddingStore::data_mut`] — the
/// checkpoint-direct load path), or re-encoding an f32 store
/// ([`EmbeddingStore::quantize`]).
///
/// The arena itself sits behind an `Arc`, so
/// [`EmbeddingStore::view_rows`] can cut a contiguous row range into its
/// own `EmbeddingStore` without copying a value — the mechanism the
/// sharded retriever uses to hand each shard a window of one shared
/// arena. Views are read-only: the mutating accessors
/// ([`EmbeddingStore::data_mut`], [`EmbeddingStore::row_mut`]) require an
/// uniquely-owned f32 arena, which is exactly the fill-then-share
/// lifecycle every construction path follows.
pub struct EmbeddingStore {
    arena: Arc<AlignedBuf>,
    format: RowFormat,
    /// First row of this store's window, absolute within the arena.
    row_offset: usize,
    /// Rows in this store's window.
    rows: usize,
    dim: usize,
    /// Per-row `[scale, zero]` dequant params for the whole arena,
    /// indexed by absolute row (`I8` only; empty otherwise). Shared by
    /// views, like the arena itself.
    params: Arc<Vec<[f32; 2]>>,
    ids: Option<IdMap>,
}

impl EmbeddingStore {
    /// A zero-initialized f32 `rows × dim` store (fill via
    /// [`EmbeddingStore::data_mut`] / [`EmbeddingStore::row_mut`]).
    pub fn zeroed(rows: usize, dim: usize) -> EmbeddingStore {
        assert!(dim > 0, "dim must be positive");
        let bytes = rows.checked_mul(dim).and_then(|n| n.checked_mul(4)).expect("store size");
        EmbeddingStore {
            arena: Arc::new(AlignedBuf::zeroed(bytes)),
            format: RowFormat::F32,
            row_offset: 0,
            rows,
            dim,
            params: Arc::new(Vec::new()),
            ids: None,
        }
    }

    /// Copies a row-major `n × dim` f32 buffer into a fresh aligned arena.
    pub fn from_rows(data: &[f32], dim: usize) -> EmbeddingStore {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "buffer not a multiple of dim");
        let mut store = EmbeddingStore::zeroed(data.len() / dim, dim);
        store.data_mut().copy_from_slice(data);
        store
    }

    /// [`EmbeddingStore::from_rows`] taking ownership (the common call
    /// shape at index-build sites).
    pub fn from_vec(data: Vec<f32>, dim: usize) -> EmbeddingStore {
        EmbeddingStore::from_rows(&data, dim)
    }

    /// A store whose rows carry external ids (`ids[r]` is row `r`'s id).
    pub fn with_ids(data: &[f32], dim: usize, ids: Vec<u32>) -> EmbeddingStore {
        let mut store = EmbeddingStore::from_rows(data, dim);
        store.set_ids(ids);
        store
    }

    /// Attaches (or replaces) the external-id mapping. Ids must be unique
    /// and one per row.
    pub fn set_ids(&mut self, ids: Vec<u32>) {
        assert_eq!(ids.len(), self.rows(), "one id per row");
        let mut id_to_row = HashMap::with_capacity(ids.len());
        for (r, &id) in ids.iter().enumerate() {
            let prev = id_to_row.insert(id, r as u32);
            assert!(prev.is_none(), "duplicate store id {id}");
        }
        self.ids = Some(IdMap { row_to_id: ids, id_to_row });
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Alias for [`EmbeddingStore::rows`], matching the index trait.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True when no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// How rows are encoded.
    pub fn format(&self) -> RowFormat {
        self.format
    }

    /// Bytes one row occupies.
    fn stride(&self) -> usize {
        self.dim * self.format.bytes_per_value()
    }

    /// This store's window of the arena, raw row-major bytes.
    fn window_bytes(&self) -> &[u8] {
        let start = self.row_offset * self.stride();
        &self.arena.as_bytes()[start..start + self.rows * self.stride()]
    }

    /// Row `r`'s raw encoded bytes.
    fn row_bytes(&self, r: usize) -> &[u8] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        let stride = self.stride();
        &self.window_bytes()[r * stride..(r + 1) * stride]
    }

    /// Per-row `[scale, zero]` dequant params (`I8` stores only).
    pub fn row_params(&self, r: usize) -> [f32; 2] {
        assert_eq!(self.format, RowFormat::I8, "row params only exist for i8 stores");
        self.params[self.row_offset + r]
    }

    /// Row `r` as an `f32` slice.
    ///
    /// # Panics
    /// Panics on quantized stores, which cannot lend borrowed `f32`
    /// rows — score through [`EmbeddingStore::score_row`] or decode via
    /// [`EmbeddingStore::decode_row`].
    pub fn row(&self, r: usize) -> &[f32] {
        &self.as_slice()[r * self.dim..(r + 1) * self.dim]
    }

    /// Mutable row `r` (checkpoint-load fill path).
    ///
    /// # Panics
    /// Panics if the arena is already shared (a view exists or the store
    /// sits behind a cloned `Arc`) or quantized — stores follow a strict
    /// fill-then-share lifecycle.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let d = self.dim;
        &mut self.data_mut()[r * d..(r + 1) * d]
    }

    /// This store's window of the arena, row-major `f32`.
    ///
    /// # Panics
    /// Panics on quantized stores — see [`EmbeddingStore::row`].
    pub fn as_slice(&self) -> &[f32] {
        assert_eq!(
            self.format,
            RowFormat::F32,
            "f32 slice access on a {} store — use score_row/decode_row",
            self.format.name()
        );
        let bytes = self.window_bytes();
        debug_assert_eq!(bytes.as_ptr() as usize % 4, 0, "f32 window misaligned");
        // SAFETY: an F32 store's window is rows*dim*4 bytes of initialized
        // f32 data starting a whole number of 4-byte values into a
        // 32-byte-aligned arena, so the pointer is f32-aligned. Any bit
        // pattern is a valid f32.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), bytes.len() / 4) }
    }

    /// The whole arena, mutable (checkpoint-load fill path).
    ///
    /// # Panics
    /// Panics if the arena is already shared or quantized — see
    /// [`EmbeddingStore::row_mut`].
    pub fn data_mut(&mut self) -> &mut [f32] {
        assert_eq!(
            self.format,
            RowFormat::F32,
            "mutating a {} store — quantized stores are write-once",
            self.format.name()
        );
        let start = self.row_offset * self.stride();
        let len = self.rows * self.stride();
        let buf = Arc::get_mut(&mut self.arena)
            .expect("mutating an embedding arena that is already shared");
        let bytes = &mut buf.as_bytes_mut()[start..start + len];
        // SAFETY: as as_slice, plus Arc::get_mut guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(bytes.as_mut_ptr().cast::<f32>(), len / 4) }
    }

    /// Re-encodes this f32 store into `format`, preserving the id
    /// mapping. `quantize(RowFormat::F32)` is a deep copy.
    ///
    /// # Panics
    /// Panics if `self` is not `f32`, or contains non-finite values.
    pub fn quantize(&self, format: RowFormat) -> EmbeddingStore {
        assert_eq!(self.format, RowFormat::F32, "quantize re-encodes an f32 store");
        match format {
            RowFormat::F32 => return self.clone(),
            RowFormat::I8 => {}
        }
        let src = self.as_slice();
        let mut buf = AlignedBuf::zeroed(self.rows * self.dim);
        let mut params = Vec::with_capacity(self.rows);
        for (out, row) in
            buf.as_bytes_mut().chunks_exact_mut(self.dim).zip(src.chunks_exact(self.dim))
        {
            let p = i8_row_params(row);
            for (o, &x) in out.iter_mut().zip(row) {
                *o = i8_encode(x, p);
            }
            params.push(p);
        }
        EmbeddingStore {
            arena: Arc::new(buf),
            format,
            row_offset: 0,
            rows: self.rows,
            dim: self.dim,
            params: Arc::new(params),
            ids: self.ids.clone(),
        }
    }

    /// Row `r` as `f32` values: borrowed for f32 stores, decoded into an
    /// owned buffer for quantized ones (cold paths — index construction,
    /// query gathering; hot scoring goes through
    /// [`EmbeddingStore::score_row`]).
    pub fn decode_row(&self, r: usize) -> Cow<'_, [f32]> {
        match self.format {
            RowFormat::F32 => Cow::Borrowed(self.row(r)),
            _ => {
                let mut out = vec![0.0; self.dim];
                self.decode_row_into(r, &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// Decodes row `r` into `out` (`out.len() == dim`).
    pub fn decode_row_into(&self, r: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer must hold one row");
        match self.format {
            RowFormat::F32 => out.copy_from_slice(self.row(r)),
            RowFormat::I8 => {
                let p = self.row_params(r);
                for (o, &c) in out.iter_mut().zip(self.row_bytes(r)) {
                    *o = i8_decode(c, p);
                }
            }
        }
    }

    /// Fused dequantize-dot of `query` against row `r` — the one scoring
    /// primitive every retrieval path uses. Quantized rows are decoded
    /// inside the multiply-add loop (no `f32` row is materialized), and
    /// the accumulation is a fixed sequential reduction in value order —
    /// the same association order as [`crate::dot`] — so scores are
    /// bit-reproducible across runs. The scalar loops carry no
    /// cross-iteration control flow, so the compiler can vectorize the
    /// byte→f32 conversions.
    pub fn score_row(&self, query: &[f32], r: usize) -> f32 {
        debug_assert_eq!(query.len(), self.dim, "query/dim mismatch");
        match self.format {
            RowFormat::F32 => crate::kernel::dot(query, self.row(r)),
            RowFormat::I8 => {
                let [scale, zero] = self.row_params(r);
                let mut acc = 0.0f32;
                for (q, &c) in query.iter().zip(self.row_bytes(r)) {
                    acc += q * (zero + scale * c as f32);
                }
                acc
            }
        }
    }

    /// A zero-copy view of rows `start..end` sharing this store's arena:
    /// row `r` of the view is row `start + r` of `self`. The view carries
    /// no id mapping — callers translate through the parent store (the
    /// sharded retriever's offset arithmetic does exactly that). Works
    /// identically for every row format.
    pub fn view_rows(&self, start: usize, end: usize) -> EmbeddingStore {
        assert!(start <= end && end <= self.rows(), "view {start}..{end} out of bounds");
        EmbeddingStore {
            arena: self.arena.clone(),
            format: self.format,
            row_offset: self.row_offset + start,
            rows: end - start,
            dim: self.dim,
            params: self.params.clone(),
            ids: None,
        }
    }

    /// True when `self` and `other` are windows over the same allocation
    /// (i.e. a view relationship, not a copy).
    pub fn shares_arena(&self, other: &EmbeddingStore) -> bool {
        Arc::ptr_eq(&self.arena, &other.arena)
    }

    /// The external id of row `row` (the row index itself when no mapping
    /// is attached).
    pub fn id_of_row(&self, row: usize) -> u32 {
        match &self.ids {
            Some(map) => map.row_to_id[row],
            None => row as u32,
        }
    }

    /// The row holding external id `id`, if present.
    pub fn row_of_id(&self, id: u32) -> Option<usize> {
        match &self.ids {
            Some(map) => map.id_to_row.get(&id).map(|&r| r as usize),
            None => ((id as usize) < self.rows()).then_some(id as usize),
        }
    }
}

impl Clone for EmbeddingStore {
    /// Deep copy of this store's window into a fresh owned arena (views
    /// stay zero-copy only through [`EmbeddingStore::view_rows`]; `clone`
    /// is always an independent allocation).
    fn clone(&self) -> EmbeddingStore {
        let src = self.window_bytes();
        let mut buf = AlignedBuf::zeroed(src.len());
        buf.as_bytes_mut().copy_from_slice(src);
        let params = match self.format {
            RowFormat::I8 => self.params[self.row_offset..self.row_offset + self.rows].to_vec(),
            RowFormat::F32 => Vec::new(),
        };
        EmbeddingStore {
            arena: Arc::new(buf),
            format: self.format,
            row_offset: 0,
            rows: self.rows,
            dim: self.dim,
            params: Arc::new(params),
            ids: self.ids.clone(),
        }
    }
}

impl std::fmt::Debug for EmbeddingStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EmbeddingStore")
            .field("rows", &self.rows())
            .field("dim", &self.dim)
            .field("format", &self.format.name())
            .field("mapped", &self.ids.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_is_32_byte_aligned() {
        for rows in [1, 3, 17, 257] {
            let store = EmbeddingStore::zeroed(rows, 16);
            assert_eq!(store.as_slice().as_ptr() as usize % STORE_ALIGN, 0, "rows={rows}");
        }
    }

    #[test]
    fn rows_round_trip() {
        let data = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let store = EmbeddingStore::from_rows(&data, 2);
        assert_eq!(store.rows(), 3);
        assert_eq!(store.row(1), &[3.0, 4.0]);
        assert_eq!(store.as_slice(), data.as_slice());
        assert_eq!(store.format(), RowFormat::F32);
    }

    #[test]
    fn identity_mapping_by_default() {
        let store = EmbeddingStore::from_rows(&[0.0; 8], 2);
        assert_eq!(store.id_of_row(3), 3);
        assert_eq!(store.row_of_id(2), Some(2));
        assert_eq!(store.row_of_id(4), None);
    }

    #[test]
    fn explicit_id_mapping() {
        let store = EmbeddingStore::with_ids(&[0.0; 6], 2, vec![100, 7, 42]);
        assert_eq!(store.id_of_row(0), 100);
        assert_eq!(store.row_of_id(42), Some(2));
        assert_eq!(store.row_of_id(5), None);
    }

    #[test]
    #[should_panic(expected = "duplicate store id")]
    fn duplicate_ids_rejected() {
        EmbeddingStore::with_ids(&[0.0; 6], 2, vec![1, 2, 1]);
    }

    #[test]
    fn empty_store_is_valid() {
        let store = EmbeddingStore::zeroed(0, 4);
        assert!(store.is_empty());
        assert_eq!(store.rows(), 0);
        assert!(store.as_slice().is_empty());
    }

    #[test]
    fn views_are_zero_copy_windows() {
        let data: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let store = EmbeddingStore::from_rows(&data, 2);
        let view = store.view_rows(2, 5);
        assert!(view.shares_arena(&store));
        assert_eq!(view.rows(), 3);
        assert_eq!(view.dim(), 2);
        assert_eq!(view.row(0), store.row(2));
        assert_eq!(view.as_slice(), &data[4..10]);
        // same allocation, not a copy
        assert_eq!(view.row(0).as_ptr(), store.row(2).as_ptr());
        // views drop the id mapping: rows are local indices again
        assert_eq!(view.id_of_row(1), 1);
        // view of a view composes offsets
        let inner = view.view_rows(1, 3);
        assert_eq!(inner.as_slice(), &data[6..10]);
        assert!(inner.shares_arena(&store));
        // empty and full views are valid
        assert_eq!(store.view_rows(6, 6).rows(), 0);
        assert_eq!(store.view_rows(0, 6).as_slice(), store.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn view_bounds_checked() {
        EmbeddingStore::zeroed(4, 2).view_rows(2, 5);
    }

    #[test]
    #[should_panic(expected = "already shared")]
    fn mutating_a_shared_arena_panics() {
        let mut store = EmbeddingStore::zeroed(4, 2);
        let _view = store.view_rows(0, 2);
        store.row_mut(0)[0] = 1.0;
    }

    #[test]
    fn clone_copies_the_arena() {
        let a = EmbeddingStore::with_ids(&[1.0, 2.0], 2, vec![9]);
        let b = a.clone();
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(b.id_of_row(0), 9);
        assert_eq!(b.as_slice().as_ptr() as usize % STORE_ALIGN, 0);
        assert_ne!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
    }

    // ---- quantized formats -------------------------------------------------

    fn ramp_store(rows: usize, dim: usize) -> EmbeddingStore {
        let data: Vec<f32> = (0..rows * dim).map(|i| (i as f32).sin()).collect();
        EmbeddingStore::from_rows(&data, dim)
    }

    #[test]
    fn quantize_preserves_shape_ids_and_approximate_values() {
        let mut base = ramp_store(5, 8);
        base.set_ids(vec![10, 20, 30, 40, 50]);
        let q = base.quantize(RowFormat::I8);
        assert_eq!(q.rows(), 5);
        assert_eq!(q.dim(), 8);
        assert_eq!(q.format(), RowFormat::I8);
        assert_eq!(q.id_of_row(2), 30);
        for r in 0..5 {
            let orig = base.row(r);
            let decoded = q.decode_row(r);
            for (a, b) in orig.iter().zip(decoded.iter()) {
                assert!((a - b).abs() < 0.01, "row {r}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn i8_constant_rows_decode_exactly() {
        let store = EmbeddingStore::from_rows(&[0.25; 6], 3).quantize(RowFormat::I8);
        assert_eq!(store.decode_row(1).as_ref(), &[0.25, 0.25, 0.25]);
        let zeros = EmbeddingStore::zeroed(2, 3).quantize(RowFormat::I8);
        assert_eq!(zeros.decode_row(0).as_ref(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn quantize_rejects_non_finite() {
        EmbeddingStore::from_rows(&[1.0, f32::NAN], 2).quantize(RowFormat::I8);
    }

    #[test]
    #[should_panic(expected = "f32 slice access")]
    fn quantized_stores_refuse_borrowed_rows() {
        let q = ramp_store(2, 4).quantize(RowFormat::I8);
        let _ = q.row(0);
    }

    #[test]
    fn score_row_matches_dot_exactly_for_f32() {
        let store = ramp_store(7, 5);
        let query: Vec<f32> = (0..5).map(|i| (i as f32).cos()).collect();
        for r in 0..7 {
            assert_eq!(
                store.score_row(&query, r).to_bits(),
                crate::kernel::dot(&query, store.row(r)).to_bits()
            );
        }
    }

    #[test]
    fn score_row_equals_dot_over_decoded_row_for_quantized() {
        // The fused kernel must equal a dot over the decoded row bit for
        // bit: same per-element dequant expression, same accumulation
        // order, no row materialized on the fused side.
        let q = ramp_store(6, 9).quantize(RowFormat::I8);
        let query: Vec<f32> = (0..9).map(|i| 0.3 * i as f32 - 1.0).collect();
        for r in 0..6 {
            let fused = q.score_row(&query, r);
            let decoded = crate::kernel::dot(&query, &q.decode_row(r));
            assert_eq!(fused.to_bits(), decoded.to_bits(), "row {r}");
        }
    }

    #[test]
    fn quantized_views_share_arena_and_score_identically() {
        let q = ramp_store(10, 4).quantize(RowFormat::I8);
        let view = q.view_rows(3, 8);
        assert!(view.shares_arena(&q));
        let query = [0.5, -0.5, 1.0, 0.25];
        for r in 0..view.rows() {
            assert_eq!(
                view.score_row(&query, r).to_bits(),
                q.score_row(&query, r + 3).to_bits()
            );
        }
        // clone of a quantized view re-bases params and bytes
        let copy = view.clone();
        assert!(!copy.shares_arena(&q));
        for r in 0..view.rows() {
            assert_eq!(copy.score_row(&query, r).to_bits(), view.score_row(&query, r).to_bits());
        }
    }
}
