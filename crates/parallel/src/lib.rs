//! # unimatch-parallel
//!
//! The data-parallel execution layer shared by the UniMatch compute crates
//! (`unimatch-tensor` kernels, `unimatch-ann` batched search and blocked
//! exact top-k, `unimatch-core` history embedding).
//!
//! Design constraints, in priority order:
//!
//! 1. **Determinism** — a parallel run must produce the same floating-point
//!    results as the sequential run. Every helper here therefore only
//!    splits work along boundaries where the sequential kernel performs no
//!    cross-boundary accumulation (rows, batch entries, queries), and
//!    reassembles results in input order. [`Parallelism::sequential`]
//!    (`threads: 1`) short-circuits to the exact single-threaded code path.
//! 2. **No regression on tiny workloads** — UniMatch's production model is
//!    small (d = 16), and spawning threads for a `[64, 16]` softmax costs
//!    more than the op itself. Work below a tunable threshold
//!    ([`Parallelism::min_work`]) always runs inline.
//! 3. **No dependencies** — built on [`std::thread::scope`] so the
//!    workspace stays free of external crates.
//!
//! The thread count is process-global, like a rayon pool: configure it once
//! via [`Parallelism::install_global`] (the framework and the CLIs do this
//! from their `--threads` flag), or the `UNIMATCH_THREADS` environment
//! variable, and every hot loop in the workspace picks it up. Nested
//! parallel regions run their inner loops inline, so thread counts never
//! multiply.
//!
//! ```
//! use unimatch_parallel::{par_map_indexed, Parallelism};
//!
//! // square 0..8 on however many threads are configured; order is stable
//! let squares = par_map_indexed(8, usize::MAX, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // threads: 1 == the plain sequential loop, bit for bit
//! Parallelism::sequential().install_global();
//! assert_eq!(par_map_indexed(3, usize::MAX, |i| i + 1), vec![1, 2, 3]);
//! # Parallelism::auto().install_global();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Sentinel meaning "not configured": fall back to `UNIMATCH_THREADS`, then
/// to the machine's available parallelism.
const UNSET: usize = usize::MAX;

/// Default minimum number of scalar operations before a kernel goes
/// parallel. Below this, thread spawn/join overhead (~10–50 µs) dominates:
/// a d = 16 in-batch softmax over a 64-row batch is ~1 k flops and must
/// stay inline, while a 4096 × 512 × 16 scoring block (~34 M flops) should
/// fan out.
pub const DEFAULT_MIN_WORK: usize = 1 << 16;

static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(UNSET);
static GLOBAL_MIN_WORK: AtomicUsize = AtomicUsize::new(DEFAULT_MIN_WORK);

thread_local! {
    /// True while the current thread is executing inside a parallel region;
    /// used to run nested regions inline instead of spawning threads².
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Process-wide parallelism configuration.
///
/// `threads == 0` means "auto": use `UNIMATCH_THREADS` if set, otherwise
/// [`std::thread::available_parallelism`]. `threads == 1` disables all
/// data parallelism and reproduces the sequential code paths exactly —
/// the setting tests and determinism-sensitive experiments should use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker thread count (0 = auto-detect).
    pub threads: usize,
    /// Minimum estimated scalar-op count for a kernel to go parallel;
    /// smaller workloads always run inline. See [`DEFAULT_MIN_WORK`].
    pub min_work: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::auto()
    }
}

impl Parallelism {
    /// Auto-detected thread count with the default work threshold.
    pub fn auto() -> Self {
        Parallelism { threads: 0, min_work: DEFAULT_MIN_WORK }
    }

    /// Single-threaded: every kernel takes its exact sequential path.
    pub fn sequential() -> Self {
        Parallelism { threads: 1, min_work: DEFAULT_MIN_WORK }
    }

    /// A fixed thread count with the default work threshold.
    pub fn threads(n: usize) -> Self {
        Parallelism { threads: n, min_work: DEFAULT_MIN_WORK }
    }

    /// Returns `self` with a different parallelism work threshold.
    pub fn with_min_work(mut self, min_work: usize) -> Self {
        self.min_work = min_work;
        self
    }

    /// Installs this configuration process-wide. All parallel helpers (and
    /// therefore every parallelized kernel in the workspace) observe it
    /// from the next call on.
    pub fn install_global(self) {
        GLOBAL_THREADS.store(if self.threads == 0 { UNSET } else { self.threads }, Ordering::Relaxed);
        GLOBAL_MIN_WORK.store(self.min_work.max(1), Ordering::Relaxed);
    }

    /// The thread count this configuration resolves to on this machine.
    pub fn resolved_threads(self) -> usize {
        if self.threads != 0 {
            return self.threads;
        }
        auto_threads()
    }
}

/// What "auto" resolves to: `UNIMATCH_THREADS` if set, otherwise the
/// machine's available parallelism. Resolved once per process — every
/// parallel region asks, and `available_parallelism` re-reads cgroup
/// files on each call.
fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        std::env::var("UNIMATCH_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The globally configured worker thread count, resolved for this machine.
pub fn current_threads() -> usize {
    let configured = GLOBAL_THREADS.load(Ordering::Relaxed);
    let threads = if configured == UNSET { 0 } else { configured };
    Parallelism { threads, min_work: 1 }.resolved_threads()
}

/// The globally configured minimum work threshold.
pub fn current_min_work() -> usize {
    GLOBAL_MIN_WORK.load(Ordering::Relaxed)
}

/// Decides the effective worker count for a workload of `units`
/// independent units totalling ~`work` scalar ops: 1 (inline) when
/// parallelism is disabled, the region is nested, or the workload is under
/// the threshold; otherwise `min(threads, units)`.
fn effective_workers(units: usize, work: usize) -> usize {
    if units < 2 || work < current_min_work() || IN_PARALLEL_REGION.with(|f| f.get()) {
        return 1;
    }
    current_threads().min(units)
}

/// True when a workload of `units` independent units totalling ~`work`
/// scalar ops would be split across threads by the helpers below. Kernels
/// whose parallel formulation has extra fixed cost (e.g. per-unit partial
/// buffers that must be reduced) use this to keep their plain sequential
/// loop whenever the work would stay inline anyway.
pub fn is_parallel(units: usize, work: usize) -> bool {
    effective_workers(units, work) > 1
}

/// Runs `f(start_row, chunk)` over `out` interpreted as `rows` contiguous
/// rows of `out.len() / rows` elements, splitting the rows across worker
/// threads. `work` is the caller's estimate of total scalar operations —
/// below the configured threshold everything runs inline as a single
/// `f(0, out)` call.
///
/// Each row chunk is disjoint, so as long as `f` writes row `r` of `out`
/// purely from row `r`'s inputs (true for every kernel in this workspace),
/// the parallel result is bitwise identical to the sequential one.
///
/// # Panics
/// Panics if `rows` does not evenly divide `out.len()`. Panics in `f`
/// propagate to the caller.
pub fn par_chunk_rows<F>(out: &mut [f32], rows: usize, work: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    if rows == 0 {
        return;
    }
    assert_eq!(out.len() % rows, 0, "buffer length {} not a multiple of rows {rows}", out.len());
    let row_len = out.len() / rows;
    let workers = effective_workers(rows, work);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let rows_per_worker = rows.div_ceil(workers);
    std::thread::scope(|s| {
        let mut rest = out;
        let mut start_row = 0;
        while !rest.is_empty() {
            let take = rows_per_worker.min(rest.len() / row_len);
            let (chunk, tail) = rest.split_at_mut(take * row_len);
            rest = tail;
            let f = &f;
            let row = start_row;
            s.spawn(move || {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                f(row, chunk);
            });
            start_row += take;
        }
    });
}

/// Maps `f` over `0..n` on the configured worker threads and collects the
/// results in index order. `work` is the caller's estimate of total scalar
/// operations — below the configured threshold this is a plain sequential
/// `map`. Use `usize::MAX` to mean "always worth parallelizing".
///
/// Work is distributed through a chunked dynamic queue (an atomic cursor
/// over fixed-size index chunks), so uneven per-item costs — e.g. ANN
/// queries whose beam sizes differ — still balance across threads. Result
/// order is always `0..n` regardless of which thread computed what.
///
/// # Panics
/// Panics in `f` propagate to the caller.
pub fn par_map_indexed<R, F>(n: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = effective_workers(n, work);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Small chunks (4 × workers) keep the queue balanced without paying an
    // atomic RMW per item.
    let chunk_size = n.div_ceil(workers * 4).max(1);
    let n_chunks = n.div_ceil(chunk_size);
    let slots: Vec<std::sync::Mutex<Option<Vec<R>>>> =
        (0..n_chunks).map(|_| std::sync::Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            let slots = &slots;
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || {
                IN_PARALLEL_REGION.with(|flag| flag.set(true));
                loop {
                    let c = cursor.fetch_add(1, Ordering::Relaxed);
                    if c >= n_chunks {
                        break;
                    }
                    let start = c * chunk_size;
                    let end = (start + chunk_size).min(n);
                    let results: Vec<R> = (start..end).map(f).collect();
                    *slots[c].lock().expect("result slot poisoned") = Some(results);
                }
            });
        }
    });
    let mut out = Vec::with_capacity(n);
    for slot in slots {
        out.extend(slot.into_inner().expect("result slot poisoned").expect("all chunks computed"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_sequentially() {
        // auto config on a small n stays inline; order is trivially stable
        let out = par_map_indexed(10, 1, |i| i * 2);
        assert_eq!(out, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_chunk_rows_zero_rows_is_noop() {
        let mut buf: [f32; 0] = [];
        par_chunk_rows(&mut buf, 0, usize::MAX, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn par_chunk_rows_rejects_ragged() {
        let mut buf = [0.0f32; 7];
        par_chunk_rows(&mut buf, 2, 1, |_, _| {});
    }

    /// All assertions that mutate the global config live in one test so
    /// concurrently running tests never observe a transient setting.
    #[test]
    fn forced_parallel_matches_sequential() {
        Parallelism::threads(4).with_min_work(1).install_global();

        // par_map: order and values survive the dynamic queue
        let par = par_map_indexed(1000, usize::MAX, |i| (i as u64) * 37 + 1);
        assert_eq!(current_threads(), 4, "an installed count overrides the resolved default");
        Parallelism::sequential().install_global();
        assert_eq!(current_threads(), 1);
        let seq = par_map_indexed(1000, usize::MAX, |i| (i as u64) * 37 + 1);
        assert_eq!(par, seq);

        // par_chunk_rows: disjoint row writes reassemble exactly
        Parallelism::threads(3).with_min_work(1).install_global();
        let rows = 17;
        let d = 5;
        let mut par_buf = vec![0.0f32; rows * d];
        par_chunk_rows(&mut par_buf, rows, usize::MAX, |start, chunk| {
            for (r, row) in chunk.chunks_mut(d).enumerate() {
                for (j, x) in row.iter_mut().enumerate() {
                    *x = ((start + r) * d + j) as f32 * 0.5;
                }
            }
        });
        let seq_buf: Vec<f32> = (0..rows * d).map(|i| i as f32 * 0.5).collect();
        assert_eq!(par_buf, seq_buf);

        // nested regions stay inline rather than spawning threads²
        Parallelism::threads(4).with_min_work(1).install_global();
        let nested = par_map_indexed(8, usize::MAX, |i| {
            par_map_indexed(8, usize::MAX, move |j| i * 8 + j).iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| (0..8).map(|j| i * 8 + j).sum()).collect();
        assert_eq!(nested, expect);

        Parallelism::auto().install_global();
    }

    #[test]
    fn resolved_threads_honors_fixed_count() {
        assert_eq!(Parallelism::threads(7).resolved_threads(), 7);
        assert_eq!(Parallelism::sequential().resolved_threads(), 1);
        let auto = Parallelism::auto().resolved_threads();
        assert!(auto >= 1);
        assert_eq!(Parallelism::auto().resolved_threads(), auto, "auto resolves once per process");
    }
}
