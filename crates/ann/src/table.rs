//! Binary table sidecar files: the zero-copy, mmap-able serialization of
//! an [`EmbeddingStore`].
//!
//! The JSON checkpoint stays the durable source of truth for model
//! parameters, but JSON cannot be mapped into memory — so a fitted item
//! table (in any [`RowFormat`]) can additionally be written as a compact
//! binary *sidecar* next to the checkpoint. Opening a sidecar with
//! `mmap = true` serves straight out of the page cache: the table is
//! paged in lazily, shared across processes, and never copied onto the
//! heap ([`StoreBacking::Mmap`](crate::StoreBacking)).
//!
//! ## File layout (all integers little-endian)
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 8     | magic `"UMTABLE1"` |
//! | 8      | 4     | row format code (0 = f32, 2 = i8; 1 is retired and rejected) |
//! | 12     | 4     | reserved (zero) |
//! | 16     | 8     | rows |
//! | 24     | 8     | dim |
//! | 32     | 8     | `source_checksum` — the `embedding_checksum` of the checkpoint this table was derived from |
//! | 40     | 8     | `table_checksum` — FNV-1a over every other byte of the file |
//! | 48     | 8     | params length in bytes (`rows × 8` for i8, else 0) |
//! | 56     | 8     | data length in bytes (`rows × dim × bytes_per_value`) |
//! | 64     | …     | per-row `[scale, zero]` f32 pairs (i8 only) |
//! | pad to 64-byte boundary | | |
//! | `data_off` | … | row-major encoded rows |
//!
//! The data section starts on a 64-byte boundary, so a page-aligned map
//! hands the store an f32-aligned (and `STORE_ALIGN`-compatible)
//! base pointer.
//!
//! ## Integrity
//!
//! `table_checksum` covers the whole file except its own field, so any
//! single-bit flip — header, params, or data — is detected. [`open_table`]
//! validates eagerly: it streams the file once, checks magic, sizes
//! (truncation), and the checksum, and only then maps or copies it. The
//! validation read warms the page cache, so the eager pass costs one
//! sequential scan, not a second steady-state copy. `source_checksum`
//! binds the sidecar to the checkpoint that produced it: loaders compare
//! it against the checkpoint's own `embedding_checksum` and reject stale
//! or foreign sidecars.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::ptr::NonNull;
use std::sync::Arc;

use crate::store::{Arena, EmbeddingStore, RowFormat};

/// Leading magic of every table sidecar file.
pub const TABLE_MAGIC: &[u8; 8] = b"UMTABLE1";

/// Fixed header size; also the alignment of the data section.
const HEADER_LEN: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn round_up(n: usize, align: usize) -> usize {
    n.div_ceil(align) * align
}

// ---------------------------------------------------------------------------
// Memory mapping (no libc crate in the workspace: std already links libc
// on unix, so the two syscall wrappers are declared directly)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    extern "C" {
        pub fn mmap(
            addr: *mut u8,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut u8;
        pub fn munmap(addr: *mut u8, len: usize) -> i32;
    }
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
}

/// A read-only, page-aligned private map of a whole file. Unmapped on
/// drop.
pub(crate) struct MmapRegion {
    ptr: NonNull<u8>,
    len: usize,
}

// SAFETY: the region is a read-only private mapping; aliasing it across
// threads is as safe as sharing a &[u8]. (The map is validated at open;
// later external modification of the file does not alter a MAP_PRIVATE
// view's already-resident pages.)
unsafe impl Send for MmapRegion {}
unsafe impl Sync for MmapRegion {}

impl MmapRegion {
    /// Maps `len` bytes of `file` read-only.
    #[cfg(unix)]
    fn map(file: &fs::File, len: usize) -> io::Result<MmapRegion> {
        use std::os::unix::io::AsRawFd;
        assert!(len > 0, "cannot map an empty file");
        // SAFETY: fd is a valid open file descriptor for `file`, len > 0,
        // and a NULL addr lets the kernel pick the placement.
        let raw = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if raw as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        let ptr = NonNull::new(raw)
            .ok_or_else(|| io::Error::other("mmap returned a null mapping"))?;
        Ok(MmapRegion { ptr, len })
    }

    #[cfg(not(unix))]
    fn map(_file: &fs::File, _len: usize) -> io::Result<MmapRegion> {
        Err(io::Error::other("mmap-backed stores require a unix platform"))
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        // SAFETY: the mapping covers exactly len readable bytes for the
        // region's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for MmapRegion {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len describe the mapping created in map().
        unsafe {
            sys::munmap(self.ptr.as_ptr(), self.len);
        }
    }
}

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// The parsed fixed header of a table sidecar file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableHeader {
    /// Row encoding of the stored table.
    pub format: RowFormat,
    /// Number of rows.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// The `embedding_checksum` of the checkpoint the table was derived
    /// from — loaders reject sidecars whose source doesn't match.
    pub source_checksum: u64,
    /// FNV-1a over every file byte except this field.
    pub table_checksum: u64,
}

impl TableHeader {
    /// An upper bound on [`TableHeader::file_len`], or `None` when the
    /// shape overflows `usize`. `decode` rejects the `None` case, so the
    /// plain arithmetic below never wraps on a decoded header.
    fn checked_len_bound(&self) -> Option<usize> {
        let params = match self.format {
            RowFormat::I8 => self.rows.checked_mul(8)?,
            RowFormat::F32 => 0,
        };
        let data = self.rows.checked_mul(self.dim)?.checked_mul(self.format.bytes_per_value())?;
        // header + params + padding to the next 64-byte boundary + data
        params.checked_add(2 * HEADER_LEN)?.checked_add(data)
    }

    fn params_len(&self) -> usize {
        match self.format {
            RowFormat::I8 => self.rows * 8,
            RowFormat::F32 => 0,
        }
    }

    fn data_len(&self) -> usize {
        self.rows * self.dim * self.format.bytes_per_value()
    }

    fn data_off(&self) -> usize {
        round_up(HEADER_LEN + self.params_len(), HEADER_LEN)
    }

    fn file_len(&self) -> usize {
        self.data_off() + self.data_len()
    }

    fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..8].copy_from_slice(TABLE_MAGIC);
        h[8..12].copy_from_slice(&self.format.code().to_le_bytes());
        h[16..24].copy_from_slice(&(self.rows as u64).to_le_bytes());
        h[24..32].copy_from_slice(&(self.dim as u64).to_le_bytes());
        h[32..40].copy_from_slice(&self.source_checksum.to_le_bytes());
        h[40..48].copy_from_slice(&self.table_checksum.to_le_bytes());
        h[48..56].copy_from_slice(&(self.params_len() as u64).to_le_bytes());
        h[56..64].copy_from_slice(&(self.data_len() as u64).to_le_bytes());
        h
    }

    fn decode(bytes: &[u8]) -> io::Result<TableHeader> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if bytes.len() < HEADER_LEN {
            return Err(bad(format!("table file truncated: {} byte header", bytes.len())));
        }
        if &bytes[0..8] != TABLE_MAGIC {
            return Err(bad("table file magic mismatch".to_string()));
        }
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let format = RowFormat::from_code(u32_at(8))
            .ok_or_else(|| bad(format!("unknown table row format code {}", u32_at(8))))?;
        let overflows = || bad("table shape overflows".to_string());
        let shape_at = |o: usize| usize::try_from(u64_at(o)).map_err(|_| overflows());
        let header = TableHeader {
            format,
            rows: shape_at(16)?,
            dim: shape_at(24)?,
            source_checksum: u64_at(32),
            table_checksum: u64_at(40),
        };
        if header.dim == 0 {
            return Err(bad("table dim must be positive".to_string()));
        }
        header.checked_len_bound().ok_or_else(overflows)?;
        if u64_at(48) != header.params_len() as u64 || u64_at(56) != header.data_len() as u64 {
            return Err(bad("table section lengths disagree with shape".to_string()));
        }
        Ok(header)
    }
}

/// FNV-1a over every byte of a serialized table file except the
/// `table_checksum` field itself (bytes 40..48).
fn checksum_file_bytes(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    fnv1a(&mut hash, &bytes[..40]);
    fnv1a(&mut hash, &bytes[48..]);
    hash
}

// ---------------------------------------------------------------------------
// Write / open
// ---------------------------------------------------------------------------

/// Serializes `store`'s window as a table sidecar at `path`
/// (atomically: temp file + rename). `source_checksum` is the
/// `embedding_checksum` of the checkpoint the table derives from.
///
/// The byte image is deterministic for a given store, so repeated saves
/// are bit-identical. Multi-byte values are little-endian on disk; the
/// in-memory arena uses the same layout on the little-endian targets
/// this workspace supports.
pub fn write_table(
    store: &EmbeddingStore,
    source_checksum: u64,
    path: &Path,
) -> io::Result<TableHeader> {
    let mut header = TableHeader {
        format: store.format(),
        rows: store.rows(),
        dim: store.dim(),
        source_checksum,
        table_checksum: 0,
    };
    let mut image = vec![0u8; header.file_len()];
    if header.format == RowFormat::I8 {
        for (out, p) in
            image[HEADER_LEN..HEADER_LEN + header.params_len()].chunks_exact_mut(8).zip(
                store.window_params(),
            )
        {
            out[0..4].copy_from_slice(&p[0].to_le_bytes());
            out[4..8].copy_from_slice(&p[1].to_le_bytes());
        }
    }
    let data_off = header.data_off();
    image[data_off..].copy_from_slice(store.window_bytes());
    image[..HEADER_LEN].copy_from_slice(&header.encode());
    header.table_checksum = checksum_file_bytes(&image);
    image[40..48].copy_from_slice(&header.table_checksum.to_le_bytes());

    write_atomic(path, &image)?;
    Ok(header)
}

/// Replaces the file at `path` with `bytes`, atomically and durably —
/// the one tmp-and-rename in the workspace (table sidecars here, model
/// checkpoints and the durable-training manifest in `unimatch-core`).
///
/// The bytes go to a `.tmp` sibling, are `sync_all`ed, and only then
/// `rename`d over `path`, so a reader — or a restart after power loss —
/// finds either the previous complete file or the new complete one,
/// never a torn or empty one under the final name. The parent directory
/// is synced afterwards so the rename itself survives (best effort: not
/// every filesystem lets a directory be opened for that). On any
/// failure the `.tmp` sibling is removed and `path` is left as it was.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = Path::new(&tmp);
    let written = fs::File::create(tmp)
        .and_then(|mut f| {
            f.write_all(bytes)?;
            f.sync_all()
        })
        .and_then(|()| fs::rename(tmp, path));
    if let Err(e) = written {
        fs::remove_file(tmp).ok();
        return Err(e);
    }
    // a bare file name has the empty path as its parent: the current directory
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if let Ok(dir) = fs::File::open(dir) {
        dir.sync_all().ok();
    }
    Ok(())
}

/// Reads and validates only the fixed header of a table sidecar (cheap
/// staleness probe before deciding to rewrite or open).
pub fn read_table_header(path: &Path) -> io::Result<TableHeader> {
    use std::io::Read;
    let mut bytes = vec![0u8; HEADER_LEN];
    fs::File::open(path)?.read_exact(&mut bytes).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "table file truncated: short header")
    })?;
    TableHeader::decode(&bytes)
}

/// [`open_table_with`] without a tamper hook.
pub fn open_table(path: &Path, mmap: bool) -> io::Result<(EmbeddingStore, TableHeader)> {
    open_table_with(path, mmap, |_| {})
}

/// Opens a table sidecar as an [`EmbeddingStore`].
///
/// The whole file is read once and validated — magic, shape-consistent
/// section lengths (catching truncation), and the full-file checksum —
/// before any arena is built. With `mmap = false` the data section is
/// copied into an owned aligned arena; with `mmap = true` the file is
/// mapped read-only and the store serves from the page cache with zero
/// heap copy (the validation read already warmed those pages).
///
/// `tamper` runs over the raw file bytes before validation — the fault
/// seam the persistence layer's `persist.load_corrupt` injection uses to
/// prove single-bit corruption is always rejected, identically for both
/// backings.
pub fn open_table_with(
    path: &Path,
    mmap: bool,
    tamper: impl FnOnce(&mut Vec<u8>),
) -> io::Result<(EmbeddingStore, TableHeader)> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut bytes = fs::read(path)?;
    tamper(&mut bytes);
    let header = TableHeader::decode(&bytes)?;
    if bytes.len() != header.file_len() {
        return Err(bad(format!(
            "table file length {} does not match header ({} expected)",
            bytes.len(),
            header.file_len()
        )));
    }
    let got = checksum_file_bytes(&bytes);
    if got != header.table_checksum {
        return Err(bad(format!(
            "table checksum mismatch: stored {:016x}, computed {got:016x}",
            header.table_checksum
        )));
    }
    let params: Vec<[f32; 2]> = bytes[HEADER_LEN..HEADER_LEN + header.params_len()]
        .chunks_exact(8)
        .map(|p| {
            [
                f32::from_le_bytes(p[0..4].try_into().expect("4 bytes")),
                f32::from_le_bytes(p[4..8].try_into().expect("4 bytes")),
            ]
        })
        .collect();
    let data_off = header.data_off();
    let (arena, base) = if mmap {
        let file = fs::File::open(path)?;
        let region = MmapRegion::map(&file, header.file_len())?;
        // The validated read and the map are two reads of the same path;
        // a write racing between them is caught by the next reload, not
        // this open — same contract as the JSON checkpoint loader.
        (Arc::new(Arena::mmap(region)), data_off)
    } else {
        (Arc::new(Arena::owned_copy(&bytes[data_off..])), 0)
    };
    let store = EmbeddingStore::from_table_parts(
        arena,
        base,
        header.format,
        header.rows,
        header.dim,
        params,
    );
    Ok((store, header))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store(format: RowFormat) -> EmbeddingStore {
        let data: Vec<f32> = (0..60).map(|i| (i as f32 * 0.7).sin()).collect();
        EmbeddingStore::from_rows(&data, 6).quantize(format)
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("unimatch_table_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn failed_rename_leaves_the_previous_file_and_no_tmp() {
        let dir = tmp_dir("atomic");
        // a non-empty directory under the final name: the rename must fail
        let target = dir.join("model.json");
        std::fs::create_dir_all(&target).expect("dir target");
        std::fs::write(target.join("previous"), b"old").expect("previous content");
        write_atomic(&target, b"new").expect_err("cannot rename a file over a directory");
        assert_eq!(std::fs::read(target.join("previous")).expect("still there"), b"old");
        assert!(!dir.join("model.json.tmp").exists(), "tmp sibling must be cleaned up");
        write_table(&sample_store(RowFormat::I8), 1, &target).expect_err("same for a table");
        assert!(!dir.join("model.json.tmp").exists(), "tmp sibling must be cleaned up");

        // and the ordinary case replaces the file whole
        let file = dir.join("plain.json");
        write_atomic(&file, b"one").expect("first write");
        write_atomic(&file, b"two").expect("overwrite");
        assert_eq!(std::fs::read(&file).expect("read"), b"two");
        assert!(!dir.join("plain.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn round_trips_every_format_and_backing() {
        let dir = tmp_dir("roundtrip");
        for format in RowFormat::ALL {
            let store = sample_store(format);
            let path = dir.join(format!("t_{}.table", format.name()));
            let written = write_table(&store, 0xfeed, &path).expect("write");
            assert_eq!(written.source_checksum, 0xfeed);
            for mmap in [false, true] {
                let (loaded, header) = open_table(&path, mmap).expect("open");
                assert_eq!(header, written);
                assert_eq!(loaded.format(), format);
                assert_eq!(
                    loaded.backing().name(),
                    if mmap { "mmap" } else { "owned" }
                );
                assert_eq!(loaded.rows(), store.rows());
                assert_eq!(loaded.dim(), store.dim());
                assert_eq!(loaded.window_bytes(), store.window_bytes(), "{format:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_writes_are_bit_identical() {
        let dir = tmp_dir("determinism");
        let store = sample_store(RowFormat::I8);
        let (a, b) = (dir.join("a.table"), dir.join("b.table"));
        write_table(&store, 7, &a).expect("write a");
        write_table(&store, 7, &b).expect("write b");
        assert_eq!(std::fs::read(&a).expect("a"), std::fs::read(&b).expect("b"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_and_any_bit_flip_are_rejected() {
        let dir = tmp_dir("corrupt");
        let store = sample_store(RowFormat::I8);
        let path = dir.join("t.table");
        write_table(&store, 1, &path).expect("write");
        let image = std::fs::read(&path).expect("read");
        // truncation at every section boundary and a few interior points
        for cut in [0, 8, HEADER_LEN - 1, HEADER_LEN, image.len() / 2, image.len() - 1] {
            for mmap in [false, true] {
                let err = open_table_with(&path, mmap, |b| b.truncate(cut))
                    .expect_err("truncated file must be rejected");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut={cut}");
            }
        }
        // flip one bit per byte across the whole image (both backings
        // share the same validation path; alternate to keep this fast)
        for byte in 0..image.len() {
            let err = open_table_with(&path, byte % 2 == 0, |b| b[byte] ^= 1)
                .expect_err("bit flip must be rejected");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "byte={byte}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_probe_reads_shape_without_payload() {
        let dir = tmp_dir("probe");
        let store = sample_store(RowFormat::I8);
        let path = dir.join("t.table");
        let written = write_table(&store, 42, &path).expect("write");
        let probed = read_table_header(&path).expect("probe");
        assert_eq!(probed, written);
        assert_eq!(probed.rows, 10);
        assert_eq!(probed.dim, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 64-byte, payload-free file whose header claims `rows × dim` of
    /// `code`-format data, zero section lengths, and a matching checksum.
    fn hostile_header(code: u32, rows: u64, dim: u64) -> Vec<u8> {
        let mut h = vec![0u8; HEADER_LEN];
        h[0..8].copy_from_slice(TABLE_MAGIC);
        h[8..12].copy_from_slice(&code.to_le_bytes());
        h[16..24].copy_from_slice(&rows.to_le_bytes());
        h[24..32].copy_from_slice(&dim.to_le_bytes());
        let sum = checksum_file_bytes(&h);
        h[40..48].copy_from_slice(&sum.to_le_bytes());
        h
    }

    #[test]
    fn overflowing_shapes_are_a_typed_error_not_a_panic() {
        // each shape's section lengths wrap to 0 in 64-bit arithmetic, so
        // the length fields, the file length and the checksum all "agree"
        let dir = tmp_dir("overflow");
        let cases = [
            (RowFormat::F32.code(), 1u64 << 62, 4u64), // rows × dim × 4 = 2^66
            (RowFormat::I8.code(), 1 << 61, 8),        // rows × 8 = rows × dim = 2^64
        ];
        for (code, rows, dim) in cases {
            let path = dir.join(format!("hostile_{code}.table"));
            std::fs::write(&path, hostile_header(code, rows, dim)).expect("write");
            for mmap in [false, true] {
                let err = open_table(&path, mmap).expect_err("overflowing shape must be rejected");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("table shape overflows"), "{err}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_retired_format_code_is_unknown() {
        let err = TableHeader::decode(&hostile_header(1, 10, 6)).expect_err("code 1 is retired");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "unknown table row format code 1");
    }

    #[test]
    fn an_i8_table_written_before_the_retirement_still_opens() {
        // `sample_store(I8)` with source checksum 0xfeed, written by the
        // commit that still had three formats
        let fixture: &[u8] = include_bytes!("../tests/fixtures/sample_i8.table");
        let dir = tmp_dir("fixture");
        let path = dir.join("old.table");
        std::fs::write(&path, fixture).expect("write");
        let store = sample_store(RowFormat::I8);
        for mmap in [false, true] {
            let (loaded, header) = open_table(&path, mmap).expect("open");
            assert_eq!((header.format, header.rows, header.dim), (RowFormat::I8, 10, 6));
            assert_eq!(header.source_checksum, 0xfeed);
            assert_eq!(loaded.window_bytes(), store.window_bytes());
            assert_eq!(loaded.window_params(), store.window_params());
        }
        // and today's writer still produces that file, byte for byte
        let again = dir.join("new.table");
        write_table(&store, 0xfeed, &again).expect("write");
        assert_eq!(std::fs::read(&again).expect("read"), fixture);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
