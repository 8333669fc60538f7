//! Model checkpoint persistence.
//!
//! The incremental-training story of Sec. III-B3 only works in production
//! if last month's parameters survive to this month: a bundle of
//! `(ModelConfig, ParamSet)` is serialized as JSON (human-inspectable,
//! diff-able; the models are small enough — tens of thousands of floats —
//! that a binary format buys nothing).
//!
//! Serialization is hand-rolled over [`unimatch_data::json`], the
//! workspace's only JSON codec. The emitted document has the shape
//! serde would produce for the same structs — the format's first
//! checkpoints were written that way, and they keep loading.
//!
//! Writes are crash-safe: [`save_model`] writes a `.tmp` sibling, syncs
//! it to disk and then `rename`s it into place (`write_atomic`), so
//! neither a crash mid-write nor a power loss after the rename can leave
//! a torn or empty checkpoint behind for a later load (or a serving
//! `/reload`) to trip over — the destination either holds the old
//! complete checkpoint or the new complete one.
//!
//! Loads are validated end to end. Format v2 documents carry a magic
//! string and an FNV-1a checksum over the *values* (config fields,
//! parameter names, shapes, and f32 bit patterns), so a flipped bit that
//! still parses as valid JSON is caught before the parameters reach a
//! model; truncation is caught by the JSON parser; a parameter that
//! decodes to a non-finite float is rejected by name. Legacy v1
//! documents (no magic/checksum) still load, with everything but the
//! checksum validated. The serving layer wraps [`load_checkpoint`] in
//! bounded retry-with-backoff for *transient* I/O errors, so a
//! checkpoint on flaky storage does not fail a `/reload` that a second
//! read would have satisfied.
//!
//! The checkpoint is the only file a serving store comes from: the item
//! store is derived from the validated embedding section, in f32, and
//! any other row format is a deterministic re-encoding of it done in
//! memory. A document written before the sidecar tables were retired
//! may still carry a `quant_tables` section; it is ignored.
//!
//! Fault seams for the chaos suites: `persist.save` and `persist.load`
//! can surface injected transient I/O errors, and `persist.load.corrupt`
//! flips a bit in the bytes read from disk (exercising the checksum).

use crate::framework::item_store_of;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use unimatch_ann::{EmbeddingStore, RowFormat};
use unimatch_data::json::Json;
use unimatch_data::Marginals;
use unimatch_faults::FaultPoint;
use unimatch_models::{Aggregator, ContextExtractor, ModelConfig, TwoTower};
use unimatch_tensor::Tensor;

const FORMAT_VERSION: u64 = 2;
/// Identifies a checkpoint file as ours before any schema is assumed.
const MAGIC: &str = "unimatch-model";

/// The item table is always the first registered parameter, under this
/// name — the embedding *section* of a checkpoint, covered by its own
/// checksum.
const EMBEDDING_PARAM: &str = "item_embedding";

const SAVE_FAULT: FaultPoint = FaultPoint::new("persist.save");
const LOAD_FAULT: FaultPoint = FaultPoint::new("persist.load");
const LOAD_CORRUPT_FAULT: FaultPoint = FaultPoint::new("persist.load.corrupt");

pub(crate) fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ---------------------------------------------------------------------------
// value checksum
// ---------------------------------------------------------------------------

/// FNV-1a 64 running over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, x: u64) {
        self.update(&x.to_le_bytes());
    }
}

/// Checksums the model's *values* — config fields, parameter names,
/// shapes, and exact f32 bit patterns — independent of JSON formatting.
/// Computed from the in-memory model on both the save and load side, so
/// any corruption that survives parsing and architecture validation
/// still has to reproduce this hash to go unnoticed.
fn checksum_model(model: &TwoTower) -> u64 {
    let cfg = model.config();
    let mut h = Fnv::new();
    h.u64(cfg.num_items as u64);
    h.u64(cfg.embed_dim as u64);
    h.u64(cfg.max_seq_len as u64);
    match cfg.extractor {
        ContextExtractor::YoutubeDnn => h.u64(1),
        ContextExtractor::Cnn { kernel } => {
            h.u64(2);
            h.u64(kernel as u64);
        }
        ContextExtractor::Gru => h.u64(3),
        ContextExtractor::Lstm => h.u64(4),
        ContextExtractor::Transformer => h.u64(5),
    }
    h.u64(match cfg.aggregator {
        Aggregator::Mean => 1,
        Aggregator::Last => 2,
        Aggregator::Max => 3,
        Aggregator::Attention => 4,
    });
    h.u64(cfg.temperature.to_bits() as u64);
    h.u64(cfg.normalize as u64);
    for (_, p) in model.params.iter() {
        h.update(p.name.as_bytes());
        h.update(&[0xff]);
        for &d in p.value.shape().dims() {
            h.u64(d as u64);
        }
        for &x in p.value.data() {
            h.update(&x.to_bits().to_le_bytes());
        }
    }
    h.0
}

/// Checksums the optional marginals section — floors, lengths, and the
/// exact f32 bit patterns of both tables — so a corrupted section is
/// caught before a debias stage reads it.
fn checksum_marginals(m: &Marginals) -> u64 {
    let mut h = Fnv::new();
    h.update(b"marginals");
    h.update(&[0xff]);
    h.u64(m.floor_u().to_bits() as u64);
    h.u64(m.floor_i().to_bits() as u64);
    h.u64(m.log_pu_all().len() as u64);
    for &x in m.log_pu_all() {
        h.update(&x.to_bits().to_le_bytes());
    }
    h.u64(m.log_pi_all().len() as u64);
    for &x in m.log_pi_all() {
        h.update(&x.to_bits().to_le_bytes());
    }
    h.0
}

// ---------------------------------------------------------------------------
// serialization
// ---------------------------------------------------------------------------

fn extractor_to_json(e: ContextExtractor) -> Json {
    match e {
        ContextExtractor::YoutubeDnn => Json::str("YoutubeDnn"),
        ContextExtractor::Cnn { kernel } => {
            Json::obj(vec![("Cnn", Json::obj(vec![("kernel", Json::int(kernel))]))])
        }
        ContextExtractor::Gru => Json::str("Gru"),
        ContextExtractor::Lstm => Json::str("Lstm"),
        ContextExtractor::Transformer => Json::str("Transformer"),
    }
}

fn aggregator_to_json(a: Aggregator) -> Json {
    Json::str(match a {
        Aggregator::Mean => "Mean",
        Aggregator::Last => "Last",
        Aggregator::Max => "Max",
        Aggregator::Attention => "Attention",
    })
}

pub(crate) fn tensor_to_json(t: &Tensor) -> Json {
    Json::obj(vec![
        ("shape", Json::Arr(t.shape().dims().iter().map(|&d| Json::int(d)).collect())),
        ("data", Json::Arr(t.data().iter().map(|&x| Json::F32(x)).collect())),
    ])
}

/// Serializes a model to a format-v2 JSON document (magic + value
/// checksum). Exposed at the `Json` level so the durable-training runner
/// can embed a model document inside its per-month checkpoint files.
pub(crate) fn model_to_json_value(model: &TwoTower) -> Json {
    let cfg = model.config();
    let config = Json::obj(vec![
        ("num_items", Json::int(cfg.num_items)),
        ("embed_dim", Json::int(cfg.embed_dim)),
        ("max_seq_len", Json::int(cfg.max_seq_len)),
        ("extractor", extractor_to_json(cfg.extractor)),
        ("aggregator", aggregator_to_json(cfg.aggregator)),
        ("temperature", Json::F32(cfg.temperature)),
        ("normalize", Json::Bool(cfg.normalize)),
    ]);
    let params = Json::Arr(
        model
            .params
            .iter()
            .map(|(_, p)| {
                Json::obj(vec![
                    ("name", Json::str(p.name.clone())),
                    ("value", tensor_to_json(&p.value)),
                ])
            })
            .collect(),
    );
    let embedding_checksum = embedding_checksum_of(model);
    Json::obj(vec![
        ("magic", Json::str(MAGIC)),
        ("format_version", Json::int(FORMAT_VERSION as usize)),
        ("config", config),
        ("params", Json::obj(vec![("params", params)])),
        ("embedding_checksum", Json::str(format!("{embedding_checksum:016x}"))),
        ("checksum", Json::str(format!("{:016x}", checksum_model(model)))),
    ])
}

/// Serializes a model to JSON bytes.
pub fn model_to_json(model: &TwoTower) -> Vec<u8> {
    model_to_json_value(model).to_bytes()
}

/// The embedding-section checksum of an in-memory model — name, shape
/// and raw f32 bit patterns of the item table alone. It is the value a
/// v2 save writes as `embedding_checksum` and the one a load verifies.
fn embedding_checksum_of(model: &TwoTower) -> u64 {
    let table = model.params.get(model.item_table());
    let mut h = Fnv::new();
    h.update(EMBEDDING_PARAM.as_bytes());
    h.update(&[0xff]);
    for &d in table.shape().dims() {
        h.u64(d as u64);
    }
    for &x in table.data() {
        h.update(&x.to_bits().to_le_bytes());
    }
    h.0
}

fn f32_array(xs: &[f32]) -> Json {
    Json::Arr(xs.iter().map(|&x| Json::F32(x)).collect())
}

/// Serializes the `p̂(u)`/`p̂(i)` marginals as the checkpoint's optional
/// `marginals` section (with its own FNV-1a checksum over the exact
/// bits), so the serving-time debias stage works without the training
/// set on disk.
fn marginals_to_json_value(m: &Marginals) -> Json {
    Json::obj(vec![
        ("log_pu", f32_array(m.log_pu_all())),
        ("log_pi", f32_array(m.log_pi_all())),
        ("floor_u", Json::F32(m.floor_u())),
        ("floor_i", Json::F32(m.floor_i())),
        ("checksum", Json::str(format!("{:016x}", checksum_marginals(m)))),
    ])
}

fn f32_array_field(v: &Json, key: &str) -> io::Result<Vec<f32>> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| bad(format!("marginals field {key} is not an array")))?
        .iter()
        .map(|x| {
            x.as_f32()
                .filter(|v| v.is_finite())
                .ok_or_else(|| bad(format!("marginals field {key} holds a non-finite value")))
        })
        .collect()
}

/// Decodes a checkpoint document's optional `marginals` section.
/// Returns `Ok(None)` when the section is absent (older checkpoints);
/// a present-but-corrupt section is an error, not a silent `None` — a
/// configured debias stage should fail loudly rather than serve
/// unpenalized scores.
fn marginals_from_json_value(doc: &Json) -> io::Result<Option<Marginals>> {
    let Some(section) = doc.get("marginals") else { return Ok(None) };
    let log_pu = f32_array_field(section, "log_pu")?;
    let log_pi = f32_array_field(section, "log_pi")?;
    let floor_u = field(section, "floor_u")?
        .as_f32()
        .filter(|v| v.is_finite())
        .ok_or_else(|| bad("marginals floor_u is not a finite number"))?;
    let floor_i = field(section, "floor_i")?
        .as_f32()
        .filter(|v| v.is_finite())
        .ok_or_else(|| bad("marginals floor_i is not a finite number"))?;
    let m = Marginals::from_parts(log_pu, log_pi, floor_u, floor_i);
    let stored_sum = field(section, "checksum")?
        .as_str()
        .ok_or_else(|| bad("marginals checksum is not a string"))?;
    let computed = format!("{:016x}", checksum_marginals(&m));
    if stored_sum != computed {
        return Err(bad(format!(
            "marginals section checksum mismatch: stored {stored_sum}, computed {computed}"
        )));
    }
    Ok(Some(m))
}

// ---------------------------------------------------------------------------
// deserialization
// ---------------------------------------------------------------------------

pub(crate) fn field<'a>(v: &'a Json, key: &str) -> io::Result<&'a Json> {
    v.get(key).ok_or_else(|| bad(format!("checkpoint missing field {key}")))
}

pub(crate) fn usize_field(v: &Json, key: &str) -> io::Result<usize> {
    field(v, key)?
        .as_u64()
        .map(|x| x as usize)
        .ok_or_else(|| bad(format!("checkpoint field {key} is not an integer")))
}

fn extractor_from_json(v: &Json) -> io::Result<ContextExtractor> {
    if let Some(s) = v.as_str() {
        return match s {
            "YoutubeDnn" => Ok(ContextExtractor::YoutubeDnn),
            "Gru" => Ok(ContextExtractor::Gru),
            "Lstm" => Ok(ContextExtractor::Lstm),
            "Transformer" => Ok(ContextExtractor::Transformer),
            other => Err(bad(format!("unknown extractor {other}"))),
        };
    }
    if let Some(inner) = v.get("Cnn") {
        return Ok(ContextExtractor::Cnn { kernel: usize_field(inner, "kernel")? });
    }
    Err(bad("unrecognized extractor encoding"))
}

fn aggregator_from_json(v: &Json) -> io::Result<Aggregator> {
    match v.as_str() {
        Some("Mean") => Ok(Aggregator::Mean),
        Some("Last") => Ok(Aggregator::Last),
        Some("Max") => Ok(Aggregator::Max),
        Some("Attention") => Ok(Aggregator::Attention),
        _ => Err(bad("unrecognized aggregator encoding")),
    }
}

pub(crate) fn tensor_from_json(v: &Json) -> io::Result<Tensor> {
    let shape: Vec<usize> = field(v, "shape")?
        .as_array()
        .ok_or_else(|| bad("tensor shape is not an array"))?
        .iter()
        .map(|d| d.as_u64().map(|x| x as usize).ok_or_else(|| bad("bad tensor dimension")))
        .collect::<io::Result<_>>()?;
    let data: Vec<f32> = field(v, "data")?
        .as_array()
        .ok_or_else(|| bad("tensor data is not an array"))?
        .iter()
        .map(|x| match x {
            Json::Null => Ok(f32::NAN), // serde_json writes non-finite floats as null
            _ => x.as_f32().ok_or_else(|| bad("bad tensor element")),
        })
        .collect::<io::Result<_>>()?;
    let numel: usize = shape.iter().product();
    if shape.is_empty() || shape.contains(&0) || numel != data.len() {
        return Err(bad(format!(
            "tensor shape {shape:?} does not match {} data elements",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(shape.as_slice(), data))
}

/// Reconstructs a model from a parsed checkpoint document: rebuilds the
/// architecture from the stored config (parameter registration order is
/// deterministic), then verifies every stored parameter matches the
/// rebuilt structure by name and shape — and is finite — before swapping
/// it in. Format-v2 documents additionally have their magic string and
/// value checksum verified; v1 documents load without a checksum.
pub(crate) fn model_from_json_value(doc: &Json) -> io::Result<TwoTower> {
    let version = field(doc, "format_version")?
        .as_u64()
        .ok_or_else(|| bad("format_version is not an integer"))?;
    let checked = match version {
        1 => false, // legacy: no magic, no checksum
        2 => {
            let magic = field(doc, "magic")?
                .as_str()
                .ok_or_else(|| bad("magic is not a string"))?;
            if magic != MAGIC {
                return Err(bad(format!("not a unimatch checkpoint (magic `{magic}`)")));
            }
            true
        }
        other => return Err(bad(format!("unsupported checkpoint version {other}"))),
    };
    let cfg = field(doc, "config")?;
    let config = ModelConfig {
        num_items: usize_field(cfg, "num_items")?,
        embed_dim: usize_field(cfg, "embed_dim")?,
        max_seq_len: usize_field(cfg, "max_seq_len")?,
        extractor: extractor_from_json(field(cfg, "extractor")?)?,
        aggregator: aggregator_from_json(field(cfg, "aggregator")?)?,
        temperature: field(cfg, "temperature")?
            .as_f32()
            .ok_or_else(|| bad("temperature is not a number"))?,
        normalize: field(cfg, "normalize")?
            .as_bool()
            .ok_or_else(|| bad("normalize is not a boolean"))?,
    };
    if !config.temperature.is_finite() || config.temperature <= 0.0 {
        return Err(bad(format!(
            "checkpoint temperature {} is not a positive finite number",
            config.temperature
        )));
    }
    if config.num_items == 0 || config.embed_dim < 2 {
        return Err(bad(format!(
            "degenerate embedding table {}×{}",
            config.num_items, config.embed_dim
        )));
    }
    let stored = field(field(doc, "params")?, "params")?
        .as_array()
        .ok_or_else(|| bad("params is not an array"))?;

    // the RNG only initializes weights we immediately overwrite
    let mut rng = StdRng::seed_from_u64(0);
    let mut model = TwoTower::new(config, &mut rng);
    if model.params.len() != stored.len() {
        return Err(bad(format!(
            "checkpoint has {} parameters, architecture expects {}",
            stored.len(),
            model.params.len()
        )));
    }
    for (fresh, entry) in model.params.ids().zip(stored.iter()) {
        let name = field(entry, "name")?
            .as_str()
            .ok_or_else(|| bad("parameter name is not a string"))?;
        let value = tensor_from_json(field(entry, "value")?)?;
        let expected_name = model.params.name(fresh);
        let expected_shape = model.params.shape(fresh).clone();
        if expected_name != name || &expected_shape != value.shape() {
            return Err(bad(format!(
                "checkpoint parameter {name} {} does not match architecture {expected_name} {expected_shape}",
                value.shape(),
            )));
        }
        if let Some(x) = value.data().iter().find(|x| !x.is_finite()) {
            return Err(bad(format!(
                "checkpoint parameter {name} contains non-finite value {x}"
            )));
        }
        *model.params.get_mut(fresh) = value;
    }
    if checked {
        let stored_sum = field(doc, "checksum")?
            .as_str()
            .ok_or_else(|| bad("checksum is not a string"))?;
        let computed = format!("{:016x}", checksum_model(&model));
        if stored_sum != computed {
            return Err(bad(format!(
                "checkpoint checksum mismatch: stored {stored_sum}, computed {computed} — file is corrupted"
            )));
        }
    }
    // The embedding-section checksum is required in v2 documents (every
    // v2 save writes it) and verified when a legacy v1 document happens
    // to carry one; v1 documents without it still load — their values
    // are covered by the whole-model checksum on the v2 path.
    let embedding_sum = if checked {
        Some(field(doc, "embedding_checksum")?)
    } else {
        doc.get("embedding_checksum")
    };
    if let Some(stored) = embedding_sum {
        let stored_sum =
            stored.as_str().ok_or_else(|| bad("embedding_checksum is not a string"))?;
        let computed = format!("{:016x}", embedding_checksum_of(&model));
        if stored_sum != computed {
            return Err(bad(format!(
                "embedding section checksum mismatch: stored {stored_sum}, computed {computed}"
            )));
        }
    }
    Ok(model)
}

/// Reconstructs a model from JSON bytes: the architecture is rebuilt
/// from the stored config, every parameter is checked by name, shape and
/// finiteness, and a v2 document's magic and checksums are verified.
pub fn model_from_json(bytes: &[u8]) -> io::Result<TwoTower> {
    let doc = Json::parse(bytes).map_err(|e| bad(e.to_string()))?;
    model_from_json_value(&doc)
}

// ---------------------------------------------------------------------------
// files
// ---------------------------------------------------------------------------

/// Replaces the file at `path` with `bytes`, atomically and durably —
/// the one tmp-and-rename in the workspace (model checkpoints here, the
/// durable-training files in [`crate::durable`]).
///
/// The bytes go to a `.tmp` sibling, are `sync_all`ed, and only then
/// `rename`d over `path`, so a reader — or a restart after power loss —
/// finds either the previous complete file or the new complete one,
/// never a torn or empty one under the final name. The parent directory
/// is synced afterwards so the rename itself survives (best effort: not
/// every filesystem lets a directory be opened for that). On any
/// failure the `.tmp` sibling is removed and `path` is left as it was.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
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

/// Saves a model checkpoint to a file, atomically.
///
/// The bytes are written to a `.tmp` sibling in the same directory,
/// synced, and `rename`d into place, so concurrent readers (and a serving `/reload`
/// racing a trainer) always observe either the previous complete
/// checkpoint or the new complete one — never a torn prefix.
pub fn save_model(model: &TwoTower, path: impl AsRef<Path>) -> io::Result<()> {
    save_model_with_marginals(model, None, path)
}

/// [`save_model`], optionally embedding the training marginals as the
/// checkpoint's `marginals` section (its own checksum over the exact
/// bits). `None` writes exactly the document [`save_model`] always
/// wrote, so old readers are unaffected.
pub fn save_model_with_marginals(
    model: &TwoTower,
    marginals: Option<&Marginals>,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    if let Some(e) = SAVE_FAULT.io_error() {
        return Err(e);
    }
    let Json::Obj(mut entries) = model_to_json_value(model) else {
        unreachable!("model doc is an object")
    };
    if let Some(m) = marginals {
        entries.push(("marginals".to_string(), marginals_to_json_value(m)));
    }
    write_atomic(path.as_ref(), &Json::Obj(entries).to_bytes())
}

/// The prelude every file loader shares: the `persist.load` fault seam,
/// one read, the `persist.load.corrupt` bit-flip seam, one parse.
fn read_document(path: &Path) -> io::Result<Json> {
    if let Some(e) = LOAD_FAULT.io_error() {
        return Err(e);
    }
    let mut bytes = fs::read(path)?;
    LOAD_CORRUPT_FAULT.corrupt(&mut bytes);
    Json::parse(&bytes).map_err(|e| bad(e.to_string()))
}

/// Loads a model checkpoint from a file.
pub fn load_model(path: impl AsRef<Path>) -> io::Result<TwoTower> {
    model_from_json_value(&read_document(path.as_ref())?)
}

/// Loads a checkpoint's model, its f32 item store, and the optional
/// marginals section from one read, one parse and one decode — the full
/// serving reload: model for user-tower inference, store for the
/// retrieval indexes (the validated model's own
/// [`TwoTower::infer_items`], copied into an aligned arena), marginals
/// for the serve-time debias stage (when the checkpoint carries them).
/// Every other section — a parent-era `quant_tables` among them — is
/// ignored.
pub fn load_checkpoint(
    path: impl AsRef<Path>,
) -> io::Result<(TwoTower, Arc<EmbeddingStore>, Option<Marginals>)> {
    let doc = read_document(path.as_ref())?;
    let model = model_from_json_value(&doc)?;
    let marginals = marginals_from_json_value(&doc)?;
    let store = item_store_of(&model);
    Ok((model, Arc::new(store), marginals))
}

/// [`load_checkpoint`] with bounded retry-with-backoff for transient
/// errors, its item store re-encoded into `format`. Non-transient errors
/// (corruption, missing file) return immediately.
///
/// Kept only as a forward for the frozen benchmark: the `mmap`
/// parameter exists because `crates/benchmark/src/online.rs` passes
/// `false`. Memory-mapped stores are gone, so `true` is an
/// [`io::ErrorKind::Unsupported`] error.
pub fn load_checkpoint_with_format_and_retry(
    path: impl AsRef<Path>,
    format: RowFormat,
    mmap: bool,
    policy: &RetryPolicy,
) -> io::Result<(TwoTower, Arc<EmbeddingStore>, Option<Marginals>)> {
    if mmap {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "memory-mapped stores were removed; serving stores come from the checkpoint",
        ));
    }
    let (model, store, marginals) = retry_load(policy, || load_checkpoint(path.as_ref()))?;
    let store = if format == RowFormat::F32 { store } else { Arc::new(store.quantize(format)) };
    Ok((model, store, marginals))
}

// ---------------------------------------------------------------------------
// retry
// ---------------------------------------------------------------------------

/// Bounded retry-with-backoff for transient I/O.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1); the first try counts.
    pub attempts: u32,
    /// Sleep before the second attempt; doubles each retry.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3, backoff: Duration::from_millis(10) }
    }
}

/// Whether an I/O error is worth retrying: interruptions and timeouts
/// are; corrupt data, missing files, and permission problems are not —
/// retrying those only delays the real error.
fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Runs `load`, retrying transient failures per `policy` with doubling
/// backoff; the first non-transient error, or the last attempt's, is
/// returned.
pub(crate) fn retry_load<T>(
    policy: &RetryPolicy,
    mut load: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut backoff = policy.backoff;
    let mut attempt = 0;
    loop {
        attempt += 1;
        match load() {
            Ok(loaded) => return Ok(loaded),
            Err(e) if attempt < policy.attempts.max(1) && is_transient(e.kind()) => {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};
    use unimatch_data::SeqBatch;
    use unimatch_faults::{FaultKind, FaultPlan, FaultRule};

    fn model(extractor: ContextExtractor) -> TwoTower {
        let mut rng = StdRng::seed_from_u64(77);
        TwoTower::new(
            ModelConfig {
                num_items: 20,
                embed_dim: 8,
                max_seq_len: 6,
                extractor,
                aggregator: Aggregator::Attention,
                temperature: 0.2,
                normalize: true,
            },
            &mut rng,
        )
    }

    /// A per-test, per-process temp path: parallel test runs (and repeated
    /// runs of the same binary) never collide on a fixed file name.
    fn unique_tmp(name: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "unimatch_persist_{}_{}_{}",
            name,
            std::process::id(),
            n
        ));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn round_trip_preserves_inference() {
        for extractor in ContextExtractor::ALL {
            let m = model(extractor);
            let restored = model_from_json(&model_to_json(&m)).expect("round trip");
            let h = vec![1u32, 5, 9];
            let batch = SeqBatch::from_histories(&[&h], 6);
            assert_eq!(
                m.infer_users(&batch).data(),
                restored.infer_users(&batch).data(),
                "{}",
                extractor.label()
            );
            assert_eq!(m.infer_items().data(), restored.infer_items().data());
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let m = model(ContextExtractor::Transformer);
        let restored = model_from_json(&model_to_json(&m)).expect("round trip");
        for (id, p) in m.params.iter() {
            assert_eq!(p.value.data(), restored.params.get(id).data(), "{}", p.name);
        }
    }

    #[test]
    fn corrupted_checkpoint_rejected() {
        assert!(model_from_json(b"not json").is_err());
        // valid JSON, wrong schema
        assert!(model_from_json(b"{\"format_version\":1}").is_err());
        assert!(model_from_json(b"{\"format_version\":2}").is_err());
        // truncated document — what a torn write would have produced
        let whole = model_to_json(&model(ContextExtractor::YoutubeDnn));
        assert!(model_from_json(&whole[..whole.len() / 2]).is_err());
    }

    #[test]
    fn v2_document_carries_magic_and_checksum() {
        let bytes = model_to_json(&model(ContextExtractor::YoutubeDnn));
        let doc = Json::parse(&bytes).expect("parse");
        assert_eq!(doc.get("magic").and_then(|m| m.as_str()), Some(MAGIC));
        assert_eq!(doc.get("format_version").and_then(|v| v.as_u64()), Some(2));
        let sum = doc.get("checksum").and_then(|c| c.as_str()).expect("checksum field");
        assert_eq!(sum.len(), 16, "u64 hex: {sum}");
        assert!(model_from_json(b"{\"magic\":\"other\",\"format_version\":2}").is_err());
    }

    #[test]
    fn legacy_v1_document_still_loads() {
        let m = model(ContextExtractor::Gru);
        // strip the v2-only fields and downgrade the version marker —
        // exactly what a pre-existing on-disk checkpoint looks like
        let doc = Json::parse(&model_to_json(&m)).expect("parse");
        let Json::Obj(entries) = doc else { panic!("document is an object") };
        let v1 = Json::Obj(
            entries
                .into_iter()
                .filter(|(k, _)| k != "magic" && k != "checksum")
                .map(|(k, v)| if k == "format_version" { (k, Json::int(1)) } else { (k, v) })
                .collect(),
        );
        let restored = model_from_json_value(&v1).expect("v1 loads");
        for (id, p) in m.params.iter() {
            assert_eq!(p.value.data(), restored.params.get(id).data(), "{}", p.name);
        }
    }

    #[test]
    fn mismatched_architecture_rejected() {
        // serialize a GRU model, then tamper with the config to claim LSTM:
        // the parameter names will not match and loading must fail
        let m = model(ContextExtractor::Gru);
        let json = String::from_utf8(model_to_json(&m)).expect("utf8");
        let tampered = json.replace("\"Gru\"", "\"Lstm\"");
        assert!(model_from_json(tampered.as_bytes()).is_err());
    }

    #[test]
    fn non_finite_params_rejected_by_name() {
        let mut m = model(ContextExtractor::YoutubeDnn);
        let first = m.params.ids().next().expect("model has parameters");
        let poisoned_name = m.params.name(first).to_string();
        m.params.get_mut(first).data_mut()[0] = f32::NAN;
        let e = model_from_json(&model_to_json(&m)).expect_err("NaN must be rejected");
        let msg = e.to_string();
        assert!(msg.contains("non-finite"), "{msg}");
        assert!(msg.contains(&poisoned_name), "{msg}");
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        // the regression the checksum exists for: corrupt a real saved
        // file one bit at a time and require that the load either fails
        // with a descriptive error or (if the flip landed somewhere
        // semantically dead) yields a value-identical model
        let m = model(ContextExtractor::YoutubeDnn);
        let whole = model_to_json(&m);
        let mut undetected = 0usize;
        for pos in 0..whole.len() {
            let mut bytes = whole.clone();
            bytes[pos] ^= 1 << (pos % 8);
            match model_from_json(&bytes) {
                Err(e) => assert!(!e.to_string().is_empty()),
                Ok(restored) => {
                    undetected += 1;
                    for (id, p) in m.params.iter() {
                        assert_eq!(
                            p.value.data(),
                            restored.params.get(id).data(),
                            "flip at byte {pos} silently changed parameter {}",
                            p.name
                        );
                    }
                }
            }
        }
        // almost every flip must be *detected*; the odd harmless one
        // (e.g. in a digit of the already-validated format_version
        // field) is tolerated above only if the values are untouched
        assert!(undetected < whole.len() / 100, "{undetected} undetected flips");
    }

    #[test]
    fn truncations_are_rejected() {
        let whole = model_to_json(&model(ContextExtractor::YoutubeDnn));
        for len in (0..whole.len()).step_by(211).chain(whole.len() - 3..whole.len()) {
            assert!(model_from_json(&whole[..len]).is_err(), "truncation at {len} accepted");
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = unique_tmp("file_round_trip");
        let path = dir.join("model.json");
        let m = model(ContextExtractor::YoutubeDnn);
        save_model(&m, &path).expect("save");
        let restored = load_model(&path).expect("load");
        assert_eq!(m.params.num_scalars(), restored.params.num_scalars());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_leaves_no_tmp_sibling() {
        let dir = unique_tmp("no_tmp");
        let path = dir.join("model.json");
        let m = model(ContextExtractor::YoutubeDnn);
        save_model(&m, &path).expect("save");
        assert!(path.exists());
        assert!(!dir.join("model.json.tmp").exists());
        // overwriting an existing checkpoint is also atomic
        save_model(&m, &path).expect("re-save");
        assert!(!dir.join("model.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retry_recovers_from_transient_faults() {
        let _guard = crate::fault_test_lock();
        let dir = unique_tmp("retry");
        let path = dir.join("model.json");
        save_model(&model(ContextExtractor::YoutubeDnn), &path).expect("save");

        // two injected transient failures, then the real read succeeds
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new("persist.load", FaultKind::IoError).with_max_fires(2)],
        });
        let policy = RetryPolicy { attempts: 3, backoff: Duration::from_millis(1) };
        let loaded = load_checkpoint_with_format_and_retry(&path, RowFormat::F32, false, &policy);
        assert!(loaded.is_ok());

        // with the budget refreshed but only 2 attempts, the error surfaces
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 1,
            rules: vec![FaultRule::new("persist.load", FaultKind::IoError).with_max_fires(2)],
        });
        let tight = RetryPolicy { attempts: 2, backoff: Duration::from_millis(1) };
        let e = load_checkpoint_with_format_and_retry(&path, RowFormat::F32, false, &tight)
            .map(|_| ())
            .expect_err("budget exhausted");
        assert_eq!(e.kind(), io::ErrorKind::Interrupted);
        unimatch_faults::clear();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_bit_flip_on_read_is_caught() {
        let _guard = crate::fault_test_lock();
        let dir = unique_tmp("bitflip");
        let path = dir.join("model.json");
        save_model(&model(ContextExtractor::YoutubeDnn), &path).expect("save");
        unimatch_faults::set_plan_for_this_thread(FaultPlan {
            seed: 2,
            rules: vec![
                FaultRule::new("persist.load.corrupt", FaultKind::BitFlip).with_max_fires(1),
            ],
        });
        // a single flipped bit somewhere in the document must not load
        // as a silently different model (checksum or parse catches it)
        match load_model(&path) {
            Err(_) => {}
            Ok(restored) => {
                let original = load_model(&path).expect("clean load after budget spent");
                for (id, p) in original.params.iter() {
                    assert_eq!(p.value.data(), restored.params.get(id).data(), "{}", p.name);
                }
            }
        }
        unimatch_faults::clear();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The f32 store a saved-and-reloaded checkpoint of `m` serves.
    fn loaded_store(m: &TwoTower) -> Arc<EmbeddingStore> {
        let dir = unique_tmp("loaded_store");
        let path = dir.join("model.json");
        save_model(m, &path).expect("save");
        let (_, store, _) = load_checkpoint(&path).expect("checkpoint load");
        std::fs::remove_dir_all(&dir).ok();
        store
    }

    #[test]
    fn item_store_matches_infer_items_bit_for_bit() {
        for extractor in ContextExtractor::ALL {
            let m = model(extractor);
            let store = loaded_store(&m);
            let expected = m.infer_items();
            assert_eq!(store.rows(), 20);
            assert_eq!(store.dim(), 8);
            assert_eq!(store.as_slice().as_ptr() as usize % unimatch_ann::STORE_ALIGN, 0);
            for (got, want) in store.as_slice().iter().zip(expected.data()) {
                assert_eq!(got.to_bits(), want.to_bits(), "{}", extractor.label());
            }
        }
    }

    #[test]
    fn unnormalized_store_is_the_raw_table() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = TwoTower::new(
            ModelConfig {
                num_items: 12,
                embed_dim: 4,
                max_seq_len: 5,
                extractor: ContextExtractor::YoutubeDnn,
                aggregator: Aggregator::Mean,
                temperature: 0.2,
                normalize: false,
            },
            &mut rng,
        );
        let store = loaded_store(&m);
        let expected = m.infer_items();
        assert_eq!(store.as_slice().len(), expected.data().len());
        for (got, want) in store.as_slice().iter().zip(expected.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn load_checkpoint_store_matches_the_saved_and_the_restored_model() {
        for extractor in [ContextExtractor::YoutubeDnn, ContextExtractor::Gru] {
            let dir = unique_tmp("pair");
            let path = dir.join("model.json");
            let m = model(extractor);
            save_model(&m, &path).expect("save");
            let (restored, store, _) = load_checkpoint(&path).expect("checkpoint load");
            for expected in [m.infer_items(), restored.infer_items()] {
                assert_eq!(store.as_slice().len(), expected.data().len());
                for (got, want) in store.as_slice().iter().zip(expected.data()) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn tampered_embedding_checksum_is_rejected() {
        let m = model(ContextExtractor::YoutubeDnn);
        let doc = Json::parse(&model_to_json(&m)).expect("parse");
        let stored = doc
            .get("embedding_checksum")
            .and_then(|c| c.as_str())
            .expect("v2 documents carry an embedding checksum")
            .to_string();
        let flipped_digit = if stored.starts_with('0') { "1" } else { "0" };
        let tampered_sum = format!("{flipped_digit}{}", &stored[1..]);
        let json = String::from_utf8(model_to_json(&m)).expect("utf8");
        let tampered = json.replace(&stored, &tampered_sum);
        assert_ne!(json, tampered);
        assert!(model_from_json(tampered.as_bytes()).is_err());
        // and no store format is served from the tampered file
        let dir = unique_tmp("tampered_embedding");
        let path = dir.join("model.json");
        std::fs::write(&path, &tampered).expect("write tampered");
        assert!(load_checkpoint(&path).is_err());
        let policy = RetryPolicy::default();
        assert!(load_checkpoint_with_format_and_retry(&path, RowFormat::I8, false, &policy).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn degenerate_shape_is_an_error_not_a_panic() {
        let json = String::from_utf8(model_to_json(&model(ContextExtractor::YoutubeDnn)))
            .expect("utf8");
        for (from, to) in [("\"num_items\":20", "\"num_items\":0"), ("\"embed_dim\":8", "\"embed_dim\":1")] {
            let tampered = json.replace(from, to);
            assert_ne!(json, tampered);
            let e = model_from_json(tampered.as_bytes()).expect_err("degenerate shape");
            assert!(e.to_string().contains("degenerate"), "{e}");
        }
    }

    fn sample_marginals() -> Marginals {
        use unimatch_data::windowing::Sample;
        let samples: Vec<Sample> = (0..40)
            .map(|i| Sample { user: i % 7, history: vec![].into(), target: i % 11, day: i })
            .collect();
        Marginals::from_samples(&samples, 7, 11)
    }

    #[test]
    fn marginals_section_round_trips_bit_for_bit() {
        let dir = unique_tmp("marginals");
        let path = dir.join("model.json");
        let m = model(ContextExtractor::YoutubeDnn);
        let marg = sample_marginals();
        save_model_with_marginals(&m, Some(&marg), &path).expect("save");

        let (restored_model, _, loaded) = load_checkpoint(&path).expect("load");
        let loaded = loaded.expect("section present");
        for (a, b) in marg.log_pi_all().iter().zip(loaded.log_pi_all()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in marg.log_pu_all().iter().zip(loaded.log_pu_all()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(marg.floor_i().to_bits(), loaded.floor_i().to_bits());
        // the model itself is untouched by the extra section
        assert_eq!(m.params.num_scalars(), restored_model.params.num_scalars());
        // and the plain loader still accepts the document
        assert!(load_model(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_marginals_loads_as_none() {
        let dir = unique_tmp("no_marginals");
        let path = dir.join("model.json");
        save_model(&model(ContextExtractor::YoutubeDnn), &path).expect("save");
        let (_, _, loaded) = load_checkpoint(&path).expect("load");
        assert!(loaded.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_marginals_section_is_rejected() {
        let m = model(ContextExtractor::YoutubeDnn);
        let marg = sample_marginals();
        let mut doc = model_to_json_value(&m);
        let Json::Obj(entries) = &mut doc else { panic!("doc is an object") };
        entries.push(("marginals".to_string(), marginals_to_json_value(&marg)));
        let clean = doc.to_string();
        assert!(
            marginals_from_json_value(&Json::parse(clean.as_bytes()).unwrap())
                .expect("clean section loads")
                .is_some()
        );
        // flip one stored checksum digit
        let sum = format!("{:016x}", checksum_marginals(&marg));
        let flipped = if let Some(rest) = sum.strip_prefix('0') {
            format!("1{rest}")
        } else {
            format!("0{}", &sum[1..])
        };
        let tampered = clean.replace(&sum, &flipped);
        assert_ne!(clean, tampered);
        let doc = Json::parse(tampered.as_bytes()).expect("parse");
        let e = marginals_from_json_value(&doc).expect_err("tampered section rejected");
        assert!(e.to_string().contains("checksum"), "{e}");
        // non-finite values are rejected even with a matching shape
        let poisoned = clean.replace("\"floor_u\":", "\"floor_u\":null,\"floor_u_\":");
        if let Ok(doc) = Json::parse(poisoned.as_bytes()) {
            assert!(marginals_from_json_value(&doc).is_err());
        }
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        let missing = std::env::temp_dir().join("unimatch_persist_definitely_missing.json");
        let policy = RetryPolicy { attempts: 5, backoff: Duration::from_secs(60) };
        // would sleep for minutes if NotFound were (wrongly) retried
        let start = std::time::Instant::now();
        let loaded = load_checkpoint_with_format_and_retry(&missing, RowFormat::F32, false, &policy);
        assert!(loaded.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn failed_rename_leaves_the_previous_file_and_no_tmp() {
        let dir = unique_tmp("atomic");
        // a non-empty directory under the final name: the rename must fail
        let target = dir.join("model.json");
        std::fs::create_dir_all(&target).expect("dir target");
        std::fs::write(target.join("previous"), b"old").expect("previous content");
        write_atomic(&target, b"new").expect_err("cannot rename a file over a directory");
        assert_eq!(std::fs::read(target.join("previous")).expect("still there"), b"old");
        assert!(!dir.join("model.json.tmp").exists(), "tmp sibling must be cleaned up");

        // and the ordinary case replaces the file whole
        let file = dir.join("plain.json");
        write_atomic(&file, b"one").expect("first write");
        write_atomic(&file, b"two").expect("overwrite");
        assert_eq!(std::fs::read(&file).expect("read"), b"two");
        assert!(!dir.join("plain.json.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    // ---- row formats and parent-era documents ------------------------------

    /// Bitwise equality of two stores through their public decode surface:
    /// same format + params + decoded bits ⇒ same code bytes.
    fn assert_store_bits_equal(a: &EmbeddingStore, b: &EmbeddingStore) {
        assert_eq!(a.format(), b.format());
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.dim(), b.dim());
        for r in 0..a.rows() {
            if a.format() == RowFormat::I8 {
                assert_eq!(a.row_params(r), b.row_params(r), "row {r} params");
            }
            let (ra, rb) = (a.decode_row(r), b.decode_row(r));
            for (x, y) in ra.iter().zip(rb.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn the_frozen_forward_quantizes_and_refuses_mmap() {
        let m = model(ContextExtractor::Gru);
        let dir = unique_tmp("forward");
        let path = dir.join("model.json");
        save_model(&m, &path).expect("save");
        let policy = RetryPolicy::default();
        for format in RowFormat::ALL {
            let (_, store, _) = load_checkpoint_with_format_and_retry(&path, format, false, &policy)
                .expect("load");
            assert_store_bits_equal(&store, &item_store_of(&m).quantize(format));
        }
        let e = load_checkpoint_with_format_and_retry(&path, RowFormat::I8, true, &policy)
            .map(|_| ())
            .expect_err("mmap-backed stores are gone");
        assert_eq!(e.kind(), io::ErrorKind::Unsupported);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parent_era_checkpoint_with_a_sidecar_entry_still_serves() {
        // what `fit --store i8` wrote before the sidecar tables went: the
        // v2 document plus a `quant_tables` entry naming a sidecar file
        let m = model(ContextExtractor::YoutubeDnn);
        let Json::Obj(mut entries) = model_to_json_value(&m) else { panic!("doc is an object") };
        let entry = Json::obj(vec![
            ("file", Json::str("model.json.i8.table")),
            ("checksum", Json::str("0123456789abcdef")),
        ]);
        entries.push(("quant_tables".to_string(), Json::obj(vec![("i8", entry)])));
        let dir = unique_tmp("parent_era");
        let path = dir.join("model.json");
        std::fs::write(&path, Json::Obj(entries).to_bytes()).expect("write checkpoint");
        let expected = item_store_of(&m).quantize(RowFormat::I8);
        // the named sidecar is missing, then present but corrupt: either
        // way the store comes from the checksummed embedding section
        for sidecar in [None, Some(&b"torn sidecar bytes"[..])] {
            if let Some(bytes) = sidecar {
                std::fs::write(dir.join("model.json.i8.table"), bytes).expect("write sidecar");
            }
            let (restored, store, _) = load_checkpoint_with_format_and_retry(
                &path,
                RowFormat::I8,
                false,
                &RetryPolicy::default(),
            )
            .expect("the quant_tables section is ignored");
            assert_eq!(embedding_checksum_of(&restored), embedding_checksum_of(&m));
            assert_store_bits_equal(&store, &expected);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
