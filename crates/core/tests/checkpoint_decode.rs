//! Checkpoint decode builds the model around the stored tensors.
//!
//! A load draws nothing at random and sizes nothing from the config alone:
//! every architecture reloads bit for bit, a fresh model still draws its
//! parameters in the order the random-init decode relied on, and a
//! checkpoint whose config was edited to a hostile size is a typed
//! `InvalidData` error, never an allocation, a panic or an abort. Case `n`
//! draws from `StdRng::seed_from_u64(n)`; every message starts `case {n}`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use unimatch_core::{load_checkpoint, model_from_json, model_to_json, save_model_with_marginals};
use unimatch_data::json::Json;
use unimatch_data::SeqBatch;
use unimatch_models::{Aggregator, ContextExtractor, ModelConfig, TwoTower};
use unimatch_tensor::{init, Tensor};

/// A fresh directory for one test's files.
fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unimatch_decode_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Every extractor (the CNN at each odd kernel the cases draw) × every
/// aggregator × `normalize`.
fn architectures() -> Vec<(ContextExtractor, Aggregator, bool)> {
    let mut out = Vec::new();
    for extractor in ContextExtractor::ALL {
        for aggregator in Aggregator::ALL {
            for normalize in [true, false] {
                out.push((extractor, aggregator, normalize));
            }
        }
    }
    out
}

/// A small config of this architecture, its sizes drawn from `rng`.
fn config(rng: &mut StdRng, arch: (ContextExtractor, Aggregator, bool)) -> ModelConfig {
    let (extractor, aggregator, normalize) = arch;
    let extractor = match extractor {
        ContextExtractor::Cnn { .. } => {
            ContextExtractor::Cnn { kernel: [3, 5, 7][rng.gen_range(0..3usize)] }
        }
        other => other,
    };
    ModelConfig {
        num_items: rng.gen_range(2..40),
        embed_dim: rng.gen_range(2..12),
        max_seq_len: rng.gen_range(3..8),
        extractor,
        aggregator,
        temperature: rng.gen_range(0.05f32..1.0),
        normalize,
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn every_architecture_reloads_bit_for_bit() {
    let dir = test_dir("reload");
    for (n, arch) in architectures().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = config(&mut rng, arch);
        let saved = TwoTower::new(cfg.clone(), &mut rng);
        let path = dir.join(format!("case{n}.json"));
        save_model_with_marginals(&saved, None, &path).expect("save");
        let (restored, store, _) =
            load_checkpoint(&path).unwrap_or_else(|e| panic!("case {n}: {e}"));

        assert_eq!(saved.params.len(), restored.params.len(), "case {n}: {cfg:?}");
        for ((_, a), (_, b)) in saved.params.iter().zip(restored.params.iter()) {
            assert_eq!(a.name, b.name, "case {n}");
            assert_eq!(a.value.shape(), b.value.shape(), "case {n}: {}", a.name);
            assert_eq!(bits(&a.value), bits(&b.value), "case {n}: {}", a.name);
        }
        let histories: Vec<Vec<u32>> = (0..rng.gen_range(1..5))
            .map(|_| {
                let len = rng.gen_range(1..2 * cfg.max_seq_len);
                (0..len).map(|_| rng.gen_range(0..cfg.num_items as u32)).collect()
            })
            .collect();
        let refs: Vec<&[u32]> = histories.iter().map(Vec::as_slice).collect();
        let batch = SeqBatch::from_histories(&refs, cfg.max_seq_len);
        let users = saved.infer_users(&batch);
        assert_eq!(bits(&users), bits(&restored.infer_users(&batch)), "case {n}: users");
        let items = saved.infer_items();
        assert_eq!(bits(&items), bits(&restored.infer_items()), "case {n}: items");
        let served: Vec<u32> = store.as_slice().iter().map(|x| x.to_bits()).collect();
        assert_eq!(served, bits(&items), "case {n}: store");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The parameters `TwoTower::new` drew before registration went through
/// one path for drawn and stored values: the original registration,
/// verbatim, as a list.
fn reference_params(cfg: &ModelConfig, rng: &mut StdRng) -> Vec<(&'static str, Tensor)> {
    let d = cfg.embed_dim;
    let mut out = vec![("item_embedding", init::embedding_normal(cfg.num_items, d, rng))];
    match cfg.extractor {
        ContextExtractor::YoutubeDnn => {}
        ContextExtractor::Cnn { kernel } => {
            out.push(("cnn.weight", init::xavier_uniform_shaped([kernel, d, d], rng)));
            out.push(("cnn.bias", Tensor::zeros([d])));
        }
        ContextExtractor::Gru => {
            for name in ["gru.w_xz", "gru.w_hz", "gru.w_xr", "gru.w_hr", "gru.w_xh", "gru.w_hh"] {
                out.push((name, init::recurrent_normal(d, d, rng)));
            }
            for name in ["gru.b_z", "gru.b_r", "gru.b_h"] {
                out.push((name, Tensor::zeros([d])));
            }
        }
        ContextExtractor::Lstm => {
            for name in [
                "lstm.w_xi", "lstm.w_hi", "lstm.w_xf", "lstm.w_hf", "lstm.w_xo", "lstm.w_ho",
                "lstm.w_xg", "lstm.w_hg",
            ] {
                out.push((name, init::recurrent_normal(d, d, rng)));
            }
            out.push(("lstm.b_i", Tensor::zeros([d])));
            out.push(("lstm.b_f", Tensor::ones([d])));
            out.push(("lstm.b_o", Tensor::zeros([d])));
            out.push(("lstm.b_g", Tensor::zeros([d])));
        }
        ContextExtractor::Transformer => {
            out.push(("tfm.pos", Tensor::rand_normal([cfg.max_seq_len, d], 0.0, 0.02, rng)));
            for name in ["tfm.w_q", "tfm.w_k", "tfm.w_v", "tfm.w_o"] {
                out.push((name, init::xavier_uniform(d, d, rng)));
            }
            out.push(("tfm.w_ff1", init::xavier_uniform(d, 4 * d, rng)));
            out.push(("tfm.b_ff1", Tensor::zeros([4 * d])));
            out.push(("tfm.w_ff2", init::xavier_uniform(4 * d, d, rng)));
            out.push(("tfm.b_ff2", Tensor::zeros([d])));
        }
    }
    if cfg.aggregator == Aggregator::Attention {
        out.push(("agg.attn_query", Tensor::rand_normal([d], 0.0, 1.0 / (d as f32).sqrt(), rng)));
    }
    out
}

#[test]
fn fresh_models_draw_in_the_original_order() {
    // training and checkpoints stay byte-identical only if `new` draws
    // exactly what it always drew, in the same order
    for (n, arch) in architectures().into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let cfg = config(&mut rng, arch);
        let model_seed = rng.gen::<u64>();
        let model = TwoTower::new(cfg.clone(), &mut StdRng::seed_from_u64(model_seed));
        let reference = reference_params(&cfg, &mut StdRng::seed_from_u64(model_seed));
        assert_eq!(model.params.len(), reference.len(), "case {n}: {cfg:?}");
        for ((_, p), (name, value)) in model.params.iter().zip(&reference) {
            assert_eq!(p.name, *name, "case {n}");
            assert_eq!(p.value.shape(), value.shape(), "case {n}: {name}");
            assert_eq!(bits(&p.value), bits(value), "case {n}: {name}");
        }
    }
}

/// The sizes a hostile config is edited to: degenerate, one, and far past
/// any memory (2^53 is the largest integer a checkpoint field holds).
const HOSTILE: [f64; 5] = [0.0, 1.0, (1u64 << 31) as f64, (1u64 << 40) as f64, (1u64 << 53) as f64];

/// `doc` with `config.<path>` set to `value`.
fn with_config(doc: &Json, path: &[&str], value: f64) -> Json {
    fn set(v: &mut Json, path: &[&str], value: f64) {
        let Json::Obj(fields) = v else { panic!("{path:?} leads through a non-object") };
        let (_, slot) = fields.iter_mut().find(|(k, _)| k == path[0]).expect("field present");
        if path.len() == 1 {
            *slot = Json::Num(value);
        } else {
            set(slot, &path[1..], value);
        }
    }
    let mut doc = doc.clone();
    let mut full = vec!["config"];
    full.extend_from_slice(path);
    set(&mut doc, &full, value);
    doc
}

/// The result of decoding `bytes` both ways a checkpoint is read.
fn decode(bytes: &[u8], path: &Path) -> [io::Result<()>; 2] {
    std::fs::write(path, bytes).expect("write checkpoint");
    [model_from_json(bytes).map(drop), load_checkpoint(path).map(drop)]
}

#[test]
fn hostile_config_sizes_are_typed_errors() {
    let dir = test_dir("hostile");
    let path = dir.join("model.json");
    let mut n = 0u64;
    for arch in architectures() {
        let mut fields: Vec<&[&str]> = vec![&["num_items"], &["embed_dim"], &["max_seq_len"]];
        if let ContextExtractor::Cnn { .. } = arch.0 {
            fields.push(&["extractor", "Cnn", "kernel"]);
        }
        for field in fields {
            for value in HOSTILE {
                let mut rng = StdRng::seed_from_u64(n);
                let cfg = config(&mut rng, arch);
                let model = TwoTower::new(cfg, &mut rng);
                let doc = Json::parse(&model_to_json(&model)).expect("parse");
                let hostile = with_config(&doc, field, value).to_bytes();
                for result in decode(&hostile, &path) {
                    match result {
                        Ok(()) => panic!("case {n}: {field:?} = {value} loaded"),
                        Err(e) => assert_eq!(
                            e.kind(),
                            io::ErrorKind::InvalidData,
                            "case {n}: {field:?} = {value}: {e}"
                        ),
                    }
                }
                n += 1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_stored_shape_whose_size_wraps_is_a_typed_error() {
    // [2^32, 2^32] multiplies to 0 in 64 bits: with empty data and a config
    // claiming the same sizes, a wrapping size check would take it
    let dir = test_dir("wrap");
    let path = dir.join("model.json");
    let mut rng = StdRng::seed_from_u64(0);
    let cfg = config(&mut rng, (ContextExtractor::YoutubeDnn, Aggregator::Mean, true));
    let doc = Json::parse(&model_to_json(&TwoTower::new(cfg, &mut rng))).expect("parse");
    let huge = (1u64 << 32) as f64;
    let mut doc = with_config(&with_config(&doc, &["num_items"], huge), &["embed_dim"], huge);
    let Json::Obj(fields) = &mut doc else { panic!("document is an object") };
    let (_, params) = fields.iter_mut().find(|(k, _)| k == "params").expect("params");
    let Json::Obj(inner) = params else { panic!("params is an object") };
    let Json::Arr(list) = &mut inner[0].1 else { panic!("params.params is an array") };
    list[0] = Json::obj(vec![
        ("name", Json::str("item_embedding")),
        (
            "value",
            Json::obj(vec![
                ("shape", Json::Arr(vec![Json::Num(huge); 2])),
                ("data", Json::Arr(vec![])),
            ]),
        ),
    ]);
    for result in decode(&doc.to_bytes(), &path) {
        let e = result.expect_err("a wrapped size loaded");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
