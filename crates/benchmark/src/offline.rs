//! The offline phase: the campaign job, in process and batched. User
//! targeting for every catalogue item on an f32 and on an i8 deployment
//! of the month's checkpoint, item recommendation for every pool history
//! on the f32 one — all through `core::pipeline` in chunks of 256, the way
//! `build_targeting_list` and the batch evaluators call it.

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use unimatch_ann::{sort_canonical, Hit, RowFormat};
use unimatch_core::serving::ServingState;
use unimatch_core::{FittedUniMatch, ModelHandle, Parallelism};

use crate::cycle::{deploy_framework, Budget, Options, Outcome};
use crate::inputs::Corpus;
use crate::spec::DEFAULT_EXACT;
use crate::stats::{fast_decile, median, ratio, spread_note};
use crate::trace::Recorder;

/// Queries per pipeline call.
const CHUNK: usize = 256;
/// Audience size per item, and list length per user.
const K_UT: usize = 100;
const K_IR: usize = 10;
/// Queries the blocked exact kernel scores against one pass over the
/// store (`QUERY_BLOCK` in `unimatch_ann::kernel`): the computed bytes
/// moved are rows × row bytes × blocks of this many queries.
const KERNEL_QUERY_BLOCK: usize = 128;
/// f32 UT answers compared with a naive flat scan.
const NAIVE_CHECKS: usize = 32;

/// Request ids of the chunk spans start here.
const CHUNK_REQUESTS: u64 = 4_000_000_000;

/// The exact, unsharded, identity-chain deployment of the offline job.
fn deployment(
    opts: &Options,
    corpus: &Corpus,
    ckpt: &Path,
    store: RowFormat,
) -> io::Result<Arc<ServingState>> {
    let fw = deploy_framework(&DEFAULT_EXACT, store, opts.seed, corpus.log.num_items());
    Ok(ModelHandle::from_checkpoint(fw, ckpt, corpus.log.clone())?.current())
}

type Audience = Vec<(u32, f32)>;

/// UT for every item: gather → run(k) → translate, chunk by chunk.
fn ut_pass(fitted: &FittedUniMatch, items: &[u32], k: usize) -> Vec<Audience> {
    let pipeline = fitted.user_pipeline();
    let mut audiences = Vec::with_capacity(items.len());
    for chunk in items.chunks(CHUNK) {
        let queries = pipeline.gather(chunk);
        audiences.extend(
            pipeline
                .run(&queries, k)
                .into_iter()
                .map(|hits| pipeline.translate(hits)),
        );
    }
    audiences
}

/// IR for every history: embed → run(k), chunk by chunk.
fn ir_pass(fitted: &FittedUniMatch, histories: &[&[u32]], k: usize) -> Vec<Vec<Hit>> {
    let pipeline = fitted.item_pipeline();
    let mut lists = Vec::with_capacity(histories.len());
    for chunk in histories.chunks(CHUNK) {
        let queries = pipeline.embed(chunk);
        lists.extend(pipeline.run(&queries, k));
    }
    lists
}

/// One part of the job: its share of the seconds, the seconds of every
/// whole pass so far, and the first output ever produced.
struct Part<T> {
    budget: Budget,
    pass_s: Vec<f64>,
    first: Option<T>,
}

impl<T> Part<T> {
    fn new(budget_s: f64) -> Part<T> {
        Part {
            budget: Budget::new(budget_s),
            pass_s: Vec::new(),
            first: None,
        }
    }

    /// Repeats `pass` until `share` of the part's budget is spent, at
    /// least once in the first round.
    fn slice(&mut self, share: f64, mut pass: impl FnMut() -> T) {
        while self.budget.wants(share, 1) {
            let t = Instant::now();
            let output = black_box(pass());
            let seconds = t.elapsed().as_secs_f64();
            self.pass_s.push(seconds);
            self.budget.record(seconds);
            self.first.get_or_insert(output);
        }
    }
}

/// Top-`k` users for `item` by a sequential dot over every f32 row, in
/// the engine's canonical order — the textbook answer.
fn naive_audience(fitted: &FittedUniMatch, item: u32, k: usize) -> Audience {
    let query = fitted.item_store().decode_row(item as usize);
    let users = fitted.user_store();
    let mut scored: Vec<Hit> = (0..users.rows())
        .map(|r| Hit {
            id: r as u32,
            score: query.iter().zip(users.row(r)).map(|(x, y)| x * y).sum(),
        })
        .collect();
    sort_canonical(&mut scored);
    scored.truncate(k);
    scored
        .into_iter()
        .map(|h| (users.id_of_row(h.id as usize), h.score))
        .collect()
}

/// Equal scores position by position, and equal users wherever the score
/// is not the list's last: users tied with the k-th score may legitimately
/// differ, because which of them makes the cut is the engine's tie-break
/// (its top-k heap evicts the lowest id among boundary ties).
fn same_audience(got: &Audience, naive: &Audience) -> bool {
    let boundary = naive.last().map(|u| u.1.to_bits());
    got.len() == naive.len()
        && got.iter().zip(naive).all(|(g, n)| {
            g.1.to_bits() == n.1.to_bits() && (g.0 == n.0 || Some(n.1.to_bits()) == boundary)
        })
}

fn top_ids(audience: &Audience) -> Vec<u32> {
    audience.iter().take(10).map(|u| u.0).collect()
}

struct Job {
    f32_state: Arc<ServingState>,
    i8_state: Arc<ServingState>,
    items: Vec<u32>,
    k_ut: usize,
}

impl Job {
    fn new(opts: &Options, corpus: &Corpus, ckpt: &Path) -> io::Result<Job> {
        let f32_state = deployment(opts, corpus, ckpt, RowFormat::F32)?;
        let i8_state = deployment(opts, corpus, ckpt, RowFormat::I8)?;
        let items: Vec<u32> = (0..f32_state.fitted.num_items() as u32).collect();
        let k_ut = K_UT.min(f32_state.fitted.num_pool_users());
        Ok(Job {
            f32_state,
            i8_state,
            items,
            k_ut,
        })
    }

    fn histories(&self) -> Vec<&[u32]> {
        self.f32_state
            .fitted
            .user_pool
            .histories()
            .iter()
            .map(|h| h.as_slice())
            .collect()
    }
}

/// Checks the first pass of each UT phase: f32 against the naive scan on
/// sampled items, i8 against f32 by recall@10. Returns the i8 recall.
fn check_audiences(job: &Job, f32_out: &[Audience], i8_out: &[Audience], out: &mut Outcome) -> f64 {
    let step = (job.items.len() / NAIVE_CHECKS).max(1);
    for &item in job.items.iter().step_by(step).take(NAIVE_CHECKS) {
        let naive = naive_audience(&job.f32_state.fitted, item, job.k_ut);
        out.check(same_audience(&f32_out[item as usize], &naive), || {
            format!("f32 audience of item {item} differs from the naive flat scan")
        });
    }
    let (mut found, mut wanted) = (0usize, 0usize);
    for (exact, quantized) in f32_out.iter().zip(i8_out) {
        let (oracle, got) = (top_ids(exact), top_ids(quantized));
        found += oracle.iter().filter(|id| got.contains(id)).count();
        wanted += oracle.len();
    }
    let recall = ratio(found as f64, wanted as f64);
    out.check(recall >= 0.95, || {
        format!("i8 recall_at_10 {recall:.4} below 0.95")
    });
    recall
}

/// The repeated offline phase, run a slice at a time so the passes of
/// each of its three parts spread over the whole pass of the benchmark.
pub struct OfflinePhase {
    job: Job,
    ut_f32: Part<Vec<Audience>>,
    ut_i8: Part<Vec<Audience>>,
    ir: Part<Vec<Vec<Hit>>>,
}

impl OfflinePhase {
    /// Builds the f32 and the i8 deployment of the checkpoint; a third of
    /// `budget_s` each for UT on f32, UT on i8 and IR on f32.
    pub fn new(
        opts: &Options,
        corpus: &Corpus,
        ckpt: &Path,
        budget_s: f64,
    ) -> io::Result<OfflinePhase> {
        Ok(OfflinePhase {
            job: Job::new(opts, corpus, ckpt)?,
            ut_f32: Part::new(budget_s / 3.0),
            ut_i8: Part::new(budget_s / 3.0),
            ir: Part::new(budget_s / 3.0),
        })
    }

    /// Whole passes of each part until `share` of its budget is spent, at
    /// least one of each in the first round.
    pub fn slice(&mut self, share: f64, out: &mut Outcome) {
        let job = &self.job;
        let histories = job.histories();
        let passes =
            |p: &OfflinePhase| p.ut_f32.pass_s.len() + p.ut_i8.pass_s.len() + p.ir.pass_s.len();
        let before = passes(self);
        self.ut_f32.slice(share, || {
            ut_pass(&job.f32_state.fitted, &job.items, job.k_ut)
        });
        self.ut_i8.slice(share, || {
            ut_pass(&job.i8_state.fitted, &job.items, job.k_ut)
        });
        self.ir
            .slice(share, || ir_pass(&job.f32_state.fitted, &histories, K_IR));
        out.attempted += (passes(self) - before) as u64;
    }

    /// Queries answered per second — over the median pass, as the job's
    /// user would count, and over the fast decile of the passes, which
    /// interference moves least — and the checks on the first pass of
    /// each part.
    pub fn finish(self, opts: &Options, out: &mut Outcome) {
        let job = &self.job;
        let pool = job.f32_state.fitted.num_pool_users();
        for (qps, fast_qps, part, queries, pass_s) in [
            (
                "offline.ut_f32_qps",
                "offline.ut_f32_fast_qps",
                "ut_f32",
                job.items.len(),
                &self.ut_f32.pass_s,
            ),
            (
                "offline.ut_i8_qps",
                "offline.ut_i8_fast_qps",
                "ut_i8",
                job.items.len(),
                &self.ut_i8.pass_s,
            ),
            (
                "offline.ir_qps",
                "offline.ir_fast_qps",
                "ir",
                pool,
                &self.ir.pass_s,
            ),
        ] {
            out.set(qps, queries as f64 / median(pass_s));
            out.set(fast_qps, queries as f64 / fast_decile(pass_s));
            let ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
            out.note(
                format!("offline.{part}_pass_ms"),
                format!("{} passes: {}", ms.len(), spread_note(&ms)),
            );
        }
        let (f32_out, i8_out, ir_out) = (
            self.ut_f32.first.as_ref().expect("a UT f32 pass ran"),
            self.ut_i8.first.as_ref().expect("a UT i8 pass ran"),
            self.ir.first.as_ref().expect("an IR pass ran"),
        );
        let recall = check_audiences(job, f32_out, i8_out, out);
        out.check(
            ir_out.len() == pool && ir_out.iter().all(|l| !l.is_empty()),
            || "an IR list is missing or empty".to_string(),
        );
        if opts.workload.name == "offline-audience" {
            out.set("recall_at_10", recall);
        }
        out.note("offline.i8_recall_at_10", format!("{recall:.4}"));
    }
}

/// Seconds spent in each stage of one traced pass.
#[derive(Default)]
struct StageSeconds {
    source: f64,
    retrieve: f64,
    translate: f64,
    /// Σ over chunks of ⌈queries / KERNEL_QUERY_BLOCK⌉.
    query_blocks: usize,
}

impl StageSeconds {
    fn total(&self) -> f64 {
        self.source + self.retrieve + self.translate
    }
}

/// One UT pass with a span per chunk and stage.
fn ut_traced(
    fitted: &FittedUniMatch,
    items: &[u32],
    k: usize,
    scan: &'static str,
    base: u64,
    rec: &Recorder,
) -> StageSeconds {
    let pipeline = fitted.user_pipeline();
    let mut s = StageSeconds::default();
    for (c, chunk) in items.chunks(CHUNK).enumerate() {
        let id = base + c as u64;
        let root = rec.open_root("offline.ut_chunk", id, Instant::now());
        let (queries, us) = rec.timed("core.gather_batch", id, Some(root), || {
            pipeline.gather(chunk)
        });
        s.source += us / 1e6;
        let (hits, us) = rec.timed(scan, id, Some(root), || {
            pipeline.retrieve(&queries, pipeline.fetch_k(k))
        });
        s.retrieve += us / 1e6;
        let (_, us) = rec.timed("core.translate_batch", id, Some(root), || {
            black_box(
                hits.into_iter()
                    .map(|h| pipeline.translate(h))
                    .collect::<Vec<_>>(),
            )
        });
        s.translate += us / 1e6;
        s.query_blocks += chunk.len().div_ceil(KERNEL_QUERY_BLOCK);
        rec.finish_root(root, Instant::now());
    }
    s
}

/// One IR pass with a span per chunk and stage.
fn ir_traced(
    fitted: &FittedUniMatch,
    histories: &[&[u32]],
    base: u64,
    rec: &Recorder,
) -> StageSeconds {
    let pipeline = fitted.item_pipeline();
    let mut s = StageSeconds::default();
    for (c, chunk) in histories.chunks(CHUNK).enumerate() {
        let id = base + c as u64;
        let root = rec.open_root("offline.ir_chunk", id, Instant::now());
        let (queries, us) = rec.timed("core.embed_batch", id, Some(root), || pipeline.embed(chunk));
        s.source += us / 1e6;
        let (_, us) = rec.timed("ann.scan_items", id, Some(root), || {
            black_box(pipeline.retrieve(&queries, pipeline.fetch_k(K_IR)))
        });
        s.retrieve += us / 1e6;
        rec.finish_root(root, Instant::now());
    }
    s
}

/// The traced offline phase: one pass per phase with a span per chunk
/// and stage, one more UT and IR pass under `Parallelism::sequential()`,
/// and the quantization itself timed.
pub fn traced(
    opts: &Options,
    corpus: &Corpus,
    ckpt: &Path,
    rec: &Recorder,
    out: &mut Outcome,
) -> io::Result<()> {
    let job = Job::new(opts, corpus, ckpt)?;
    let histories = job.histories();
    let (f32_fitted, i8_fitted) = (&job.f32_state.fitted, &job.i8_state.fitted);
    let (rows, dim) = (
        f32_fitted.user_store().rows(),
        f32_fitted.user_store().dim(),
    );
    let queries = job.items.len();

    let ut_f32 = ut_traced(
        f32_fitted,
        &job.items,
        job.k_ut,
        "ann.scan_f32",
        CHUNK_REQUESTS,
        rec,
    );
    let ut_i8 = ut_traced(
        i8_fitted,
        &job.items,
        job.k_ut,
        "ann.scan_i8",
        CHUNK_REQUESTS + 100_000,
        rec,
    );
    let ir = ir_traced(f32_fitted, &histories, CHUNK_REQUESTS + 200_000, rec);
    out.attempted += 3;

    out.set(
        "core.gather_us_per_query",
        ut_f32.source * 1e6 / queries as f64,
    );
    out.set(
        "core.translate_us_per_query",
        ut_f32.translate * 1e6 / queries as f64,
    );
    out.set(
        "core.embed_batch_us_per_query",
        ir.source * 1e6 / histories.len().max(1) as f64,
    );
    let per_row = |s: &StageSeconds| s.retrieve * 1e9 / (queries * rows) as f64;
    out.set("ann.scan_f32_ns_per_row", per_row(&ut_f32));
    out.set("ann.scan_i8_ns_per_row", per_row(&ut_i8));
    // bytes are computed, not counted: rows × row bytes, streamed once per
    // block of KERNEL_QUERY_BLOCK queries (i8 rows carry a [scale, zero] pair)
    let f32_bytes = rows * dim * 4;
    let i8_bytes = rows * (dim + 2 * std::mem::size_of::<f32>());
    let gb_per_s =
        |bytes: usize, s: &StageSeconds| (bytes * s.query_blocks) as f64 / s.retrieve / 1e9;
    out.set("ann.scan_f32_gb_per_s", gb_per_s(f32_bytes, &ut_f32));
    out.set("ann.scan_i8_gb_per_s", gb_per_s(i8_bytes, &ut_i8));
    out.set("ann.store_bytes_f32", f32_bytes as f64);
    out.set("ann.store_bytes_i8", i8_bytes as f64);

    let ((), quantize_us) = rec.timed("ann.quantize", 0, None, || {
        black_box(f32_fitted.user_store().quantize(RowFormat::I8));
        black_box(f32_fitted.item_store().quantize(RowFormat::I8));
    });
    out.set("ann.quantize_ms", quantize_us / 1e3);

    out.set(
        "parallel.threads",
        unimatch_parallel::current_threads() as f64,
    );
    Parallelism::sequential().install_global();
    let ((), ut_seq_us) = rec.timed("offline.ut_sequential", 0, None, || {
        black_box(ut_pass(f32_fitted, &job.items, job.k_ut));
    });
    let ((), ir_seq_us) = rec.timed("offline.ir_sequential", 0, None, || {
        black_box(ir_pass(f32_fitted, &histories, K_IR));
    });
    Parallelism::auto().install_global();
    out.attempted += 2;
    out.set(
        "parallel.ut_speedup",
        ratio(ut_seq_us / 1e6, ut_f32.total()),
    );
    out.set("parallel.ir_speedup", ratio(ir_seq_us / 1e6, ir.total()));
    Ok(())
}
