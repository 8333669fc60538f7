//! `unimatch-cli` — the framework as a command-line tool.
//!
//! ```text
//! unimatch-cli generate  --profile ecomp --scale 0.5 --seed 7 --out log.csv
//! unimatch-cli fit       --log log.csv --out model.json
//! unimatch-cli recommend --model model.json --log log.csv --user <id> --k 10
//! unimatch-cli target    --model model.json --log log.csv --item <id> --k 10
//! unimatch-cli evaluate  --model model.json --log log.csv
//! unimatch-cli serve     --checkpoint model.json --log log.csv --addr 127.0.0.1:7878
//! ```
//!
//! Logs are CSV with a `user,item,day` header; user and item ids may be
//! arbitrary strings — they are interned to dense ids and the vocabularies
//! are persisted next to the model (`<model>.users.json`,
//! `<model>.items.json`) so results translate back. The HTTP API exposed
//! by `serve` speaks the dense ids directly.

use std::collections::HashMap;
use std::process::exit;
use std::sync::Arc;
use std::time::Duration;
use unimatch_core::{
    evaluate, evaluate_deployment, save_model_with_marginals, FittedUniMatch, ModelHandle,
    RerankConfig, RetrieverKind, RowFormat, ServingState, ShardPolicy, UniMatch, UniMatchConfig,
};
use unimatch_data::json::Json;
use unimatch_data::vocab::Vocab;
use unimatch_data::{DatasetProfile, InteractionLog};
use unimatch_eval::ProtocolConfig;
use unimatch_rerank::{BusinessRules, RerankChain};
use unimatch_serve::{BrownoutSpec, ServeConfig, Server, ShadowSpec};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        usage("missing command");
    };
    let flags = parse_flags(command, &argv[1..]);
    // every command funnels through the same compute kernels, so the thread
    // configuration is installed once, up front (0 = auto-detect)
    unimatch_parallel::Parallelism::threads(flag_or(&flags, "threads", 0)).install_global();
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "fit" => cmd_fit(&flags),
        "recommend" => cmd_recommend(&flags),
        "target" => cmd_target(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "serve" => cmd_serve(&flags),
        other => unreachable!("{other} is in COMMAND_FLAGS and has no handler"),
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: unimatch-cli <generate|fit|recommend|target|evaluate|serve> [--flag value]...\n\
         \n\
         generate  --profile <books|electronics|ecomp|wcomp|large> [--scale F] [--seed N] --out FILE\n\
         fit       --log FILE --out FILE [--epochs N] [--temperature F] [--batch N] [--seed N]\n\
         \u{20}         [--run-dir DIR] [--retriever KIND] [--shards N]   (crash-safe resume)\n\
         \u{20}         [--rerank SPEC] [--rerank-rules FILE] [--store f32|i8]\n\
         recommend --model FILE --log FILE --user ID [--k N] [--retriever KIND] [--shards N]\n\
         \u{20}         [--rerank SPEC] [--rerank-rules FILE] [--store f32|i8]\n\
         target    --model FILE --log FILE --item ID [--k N] [--retriever KIND] [--shards N]\n\
         \u{20}         [--rerank SPEC] [--rerank-rules FILE] [--store f32|i8]\n\
         evaluate  --model FILE --log FILE [--top-n N] [--negatives N] [--seed N]\n\
         \u{20}         [--retriever KIND] [--shards N] [--store f32|i8]\n\
         \u{20}         [--rerank SPEC] [--rerank-rules FILE]   (gates a deployment before\n\
         \u{20}          rollout: the one the flags describe and the exact-f32 reference\n\
         \u{20}          answer the same full-catalog IR and UT cases; prints both rows\n\
         \u{20}          and the delta in recall/NDCG/coverage/gini + popularity lift)\n\
         serve     --checkpoint FILE --log FILE [--addr HOST:PORT] [--batch-window-ms F]\n\
         \u{20}         [--batch-max N] [--max-conns N] [--deadline-ms F]\n\
         \u{20}         [--queue-bound N] [--faults SPEC] [--fault-seed N] [--retriever KIND]\n\
         \u{20}         [--shards N] [--min-shards N] [--obs true]\n\
         \u{20}         [--rerank SPEC] [--rerank-rules FILE] [--brownout LADDER]\n\
         \u{20}         [--store f32|i8] [--shadow-sample-rate F]\n\
         \u{20}         [--shadow-ckpt FILE] [--shadow-spec 'key=value;…']\n\
         \u{20}         (KIND: exact|hnsw — the serving index backend; default exact)\n\
         \u{20}         (--store: row format of the serving embedding arenas — i8 is a\n\
         \u{20}          smaller table scored by the fused dequant-dot kernel,\n\
         \u{20}          re-encoded from the checkpoint at load)\n\
         \u{20}         (--shards N: split each tower's index into N row-range shards,\n\
         \u{20}          searched in parallel and merged exactly; default 1)\n\
         \u{20}         (--min-shards N: quorum — answer degraded while ≥N shards are\n\
         \u{20}          healthy; the default is strict: every shard must answer)\n\
         \u{20}         (--brownout LADDER: graceful degradation under load, e.g.\n\
         \u{20}          'drop-explore,shrink-overfetch,shed;high=64;low=4' —\n\
         \u{20}          see docs/OPERATIONS.md for the grammar and tuning)\n\
         \u{20}         (SPEC: point=kind[@prob][xMAX][+SKIP];… — e.g. ann.search=latency:2000@0.5)\n\
         \u{20}         (--rerank SPEC: post-retrieval chain, stage[@w][:k=v],… —\n\
         \u{20}          e.g. 'debias@0.5,mmr@0.3,cap:category=3,explore@0.1';\n\
         \u{20}          --rerank-rules: JSON sidecar with allow/deny/categories)\n\
         \u{20}         (--shadow-sample-rate F: mirror that fraction of answered\n\
         \u{20}          queries to a second pipeline off the critical path;\n\
         \u{20}          --shadow-ckpt defaults to the primary checkpoint (an A/A);\n\
         \u{20}          --shadow-spec overrides knobs vs the primary, `;`-separated:\n\
         \u{20}          retriever|shards|min-shards|store|rerank|rerank-rules —\n\
         \u{20}          paired overlap@k / score-delta / lag\n\
         \u{20}          series land on /metrics as unimatch_shadow_*)\n\
         \n\
         every command also accepts --threads N (worker threads for the\n\
         compute kernels; 0 = auto-detect, 1 = exact sequential execution)"
    );
    exit(2);
}

/// The deployment flags [`deployment_config`] reads, shared by every
/// command that opens a model.
const DEPLOYMENT_FLAGS: &[&str] =
    &["retriever", "shards", "min-shards", "rerank", "rerank-rules", "store"];

/// The `--name value` flags each command accepts beside the global
/// `--threads`: whether it takes [`DEPLOYMENT_FLAGS`], then its own.
const COMMAND_FLAGS: &[(&str, bool, &[&str])] = &[
    ("generate", false, &["profile", "scale", "seed", "out"]),
    ("fit", true, &["log", "out", "epochs", "temperature", "batch", "seed", "run-dir"]),
    ("recommend", true, &["model", "log", "user", "k"]),
    ("target", true, &["model", "log", "item", "k"]),
    ("evaluate", true, &["model", "log", "top-n", "negatives", "seed"]),
    (
        "serve",
        true,
        &[
            "checkpoint", "log", "addr", "batch-window-ms", "batch-max", "max-conns",
            "deadline-ms", "queue-bound", "faults", "fault-seed", "obs", "brownout",
            "shadow-sample-rate", "shadow-ckpt", "shadow-spec",
        ],
    ),
];

/// Parses `--name value` pairs, rejecting any name `command` does not
/// accept — a typo or another command's flag is a usage error, never a
/// silent default.
fn parse_flags(command: &str, args: &[String]) -> HashMap<String, String> {
    let Some(&(_, deployment, own)) = COMMAND_FLAGS.iter().find(|(name, ..)| *name == command)
    else {
        usage(&format!("unknown command {command}"));
    };
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i].strip_prefix("--").unwrap_or_else(|| usage(&format!("expected flag, got {}", args[i])));
        let accepted = key == "threads"
            || own.contains(&key)
            || (deployment && DEPLOYMENT_FLAGS.contains(&key));
        if !accepted {
            usage(&format!("unknown flag --{key} for {command}"));
        }
        let Some(value) = args.get(i + 1) else {
            usage(&format!("flag --{key} needs a value"));
        };
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    out
}

fn flag<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).unwrap_or_else(|| usage(&format!("missing required --{key}"))).as_str()
}

fn flag_or<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| usage(&format!("invalid value for --{key}: {v}"))),
    }
}

/// The serving index backend (`--retriever exact|hnsw`), defaulting to
/// the framework's configured kind.
fn retriever_flag(flags: &HashMap<String, String>) -> RetrieverKind {
    match flags.get("retriever") {
        None => RetrieverKind::default(),
        Some(v) => RetrieverKind::parse(v)
            .unwrap_or_else(|| usage(&format!("unknown retriever {v} (exact|hnsw)"))),
    }
}

/// Shard fan-out for the serving indexes (`--shards N`, default 1).
fn shards_flag(flags: &HashMap<String, String>) -> usize {
    let shards: usize = flag_or(flags, "shards", 1);
    if shards == 0 {
        usage("--shards must be at least 1");
    }
    shards
}

/// Shard failure-isolation policy (`--min-shards N` quorum). The default
/// (no flag) is strict: every shard must answer — the historical
/// behavior.
fn shard_policy_flag(flags: &HashMap<String, String>) -> ShardPolicy {
    let min_shards = match flag_or(flags, "min-shards", 0usize) {
        0 => None,
        n => Some(n),
    };
    ShardPolicy { min_shards }
}

/// Serving-store row format (`--store f32|i8`, default f32).
fn store_flag(flags: &HashMap<String, String>) -> RowFormat {
    match flags.get("store") {
        None => RowFormat::F32,
        Some(v) => RowFormat::parse(v)
            .unwrap_or_else(|| usage(&format!("unknown store format {v} (f32|i8)"))),
    }
}

/// The post-retrieval re-ranking pipeline (`--rerank SPEC` +
/// `--rerank-rules FILE`). The spec is validated here so a typo fails
/// with the grammar's typed error before any training or index build;
/// the rules sidecar is loaded once, up front.
fn rerank_flag(flags: &HashMap<String, String>) -> RerankConfig {
    let spec = flags.get("rerank").cloned().unwrap_or_default();
    if let Err(e) = RerankChain::parse(&spec) {
        usage(&format!("invalid --rerank spec: {e}"));
    }
    let rules = flags.get("rerank-rules").map(|path| {
        Arc::new(
            BusinessRules::load(path)
                .unwrap_or_else(|e| usage(&format!("cannot load --rerank-rules {path}: {e}"))),
        )
    });
    RerankConfig { spec, rules }
}

/// The deployment half of the configuration — compute threads, index
/// backend, shard fan-out and policy, rerank chain and store format —
/// read from the flags every command shares.
fn deployment_config(flags: &HashMap<String, String>) -> UniMatchConfig {
    UniMatchConfig {
        parallelism: unimatch_parallel::Parallelism::threads(flag_or(flags, "threads", 0)),
        retriever: retriever_flag(flags),
        shards: shards_flag(flags),
        shard_policy: shard_policy_flag(flags),
        rerank: rerank_flag(flags),
        store: store_flag(flags),
        ..Default::default()
    }
}

fn cmd_generate(flags: &HashMap<String, String>) {
    let profile = match flag(flags, "profile").to_ascii_lowercase().as_str() {
        "books" => DatasetProfile::Books,
        "electronics" => DatasetProfile::Electronics,
        "ecomp" | "e_comp" => DatasetProfile::EComp,
        "wcomp" | "w_comp" => DatasetProfile::WComp,
        "large" => DatasetProfile::Large,
        other => usage(&format!("unknown profile {other}")),
    };
    let scale: f64 = flag_or(flags, "scale", 0.5);
    let seed: u64 = flag_or(flags, "seed", 42);
    let out = flag(flags, "out");
    let log = profile.generate(scale, seed);
    let csv = unimatch_data::csv::log_to_csv(&log, None, None);
    std::fs::write(out, csv).unwrap_or_else(|e| usage(&format!("cannot write {out}: {e}")));
    println!(
        "wrote {} interactions ({} users, {} items, {} months) to {out}",
        log.len(),
        log.distinct_users(),
        log.distinct_items(),
        log.span_months()
    );
}

fn read_log(path: &str) -> (InteractionLog, Vocab, Vocab) {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    unimatch_data::csv::log_from_csv(&text).unwrap_or_else(|e| usage(&e.to_string()))
}

fn vocab_paths(model_path: &str) -> (String, String) {
    (format!("{model_path}.users.json"), format!("{model_path}.items.json"))
}

/// Serializes a vocabulary in the shape serde would emit for it
/// (`{"forward": {...}, "reverse": [...]}`), via the workspace's own JSON
/// writer so the CLI works where the external crates are unavailable.
fn vocab_to_json(vocab: &Vocab) -> Vec<u8> {
    let reverse: Vec<&str> = (0..vocab.len() as u32)
        .map(|ix| vocab.external(ix).expect("dense vocab"))
        .collect();
    Json::obj(vec![
        (
            "forward",
            Json::Obj(reverse.iter().enumerate().map(|(i, s)| (s.to_string(), Json::int(i))).collect()),
        ),
        ("reverse", Json::Arr(reverse.iter().map(|s| Json::str(*s)).collect())),
    ])
    .to_bytes()
}

/// Rebuilds a vocabulary from its JSON form: `reverse` alone determines
/// the bijection, so files written by serde or by [`vocab_to_json`] both
/// load.
fn vocab_from_json(bytes: &[u8]) -> Result<Vocab, String> {
    let doc = Json::parse(bytes).map_err(|e| e.to_string())?;
    let reverse = doc
        .get("reverse")
        .and_then(Json::as_array)
        .ok_or_else(|| "vocab file has no reverse list".to_string())?;
    let mut vocab = Vocab::new();
    for entry in reverse {
        let s = entry.as_str().ok_or_else(|| "vocab entries must be strings".to_string())?;
        vocab.intern(s);
    }
    Ok(vocab)
}

fn read_vocab(path: &str) -> Vocab {
    let bytes =
        std::fs::read(path).unwrap_or_else(|e| usage(&format!("cannot read {path}: {e}")));
    vocab_from_json(&bytes).unwrap_or_else(|e| usage(&format!("bad vocab {path}: {e}")))
}

fn cmd_fit(flags: &HashMap<String, String>) {
    let (log, users, items) = read_log(flag(flags, "log"));
    let out = flag(flags, "out");
    let config = UniMatchConfig {
        epochs_per_month: flag_or(flags, "epochs", 2),
        temperature: flag_or(flags, "temperature", 0.15),
        batch_size: flag_or(flags, "batch", 64),
        seed: flag_or(flags, "seed", 42),
        ..deployment_config(flags)
    };
    let filtered = log.filter_min_interactions(3);
    println!(
        "fitting on {} interactions ({} after min-count filtering)…",
        log.len(),
        filtered.len()
    );
    // --run-dir switches to the crash-safe trainer: each month commits one
    // atomic checkpoint (month_NNNN.json, loadable like --out's file), so
    // re-running the same command after a crash resumes from the newest.
    let fitted = match flags.get("run-dir") {
        Some(run_dir) => UniMatch::new(config)
            .fit_durable(filtered, run_dir)
            .unwrap_or_else(|e| usage(&format!("durable fit failed: {e}"))),
        None => UniMatch::new(config).fit(filtered),
    };
    // the training marginals ride along in the checkpoint's optional
    // section, so a serving process can debias with the exact p̂ tables;
    // the store format is a serving knob and writes nothing of its own
    save_model_with_marginals(&fitted.model, Some(fitted.marginals()), out)
        .unwrap_or_else(|e| usage(&format!("cannot write {out}: {e}")));
    let (up, ip) = vocab_paths(out);
    std::fs::write(&up, vocab_to_json(&users))
        .unwrap_or_else(|e| usage(&format!("cannot write {up}: {e}")));
    std::fs::write(&ip, vocab_to_json(&items))
        .unwrap_or_else(|e| usage(&format!("cannot write {ip}: {e}")));
    println!(
        "model ({} parameters) saved to {out}; vocabularies alongside",
        fitted.model.num_parameters()
    );
}

/// Opens a checkpoint as the deployment the flags describe. Every
/// command that answers queries — `serve`, its shadow, the one-shot
/// `recommend`/`target`, both deployments `evaluate` scores — comes
/// through here, so [`ModelHandle`] validates the log and the rerank
/// rules against the checkpoint for all of them alike.
fn open_handle(
    flags: &HashMap<String, String>,
    checkpoint: &str,
    log: &InteractionLog,
) -> ModelHandle {
    ModelHandle::from_checkpoint(
        UniMatch::new(deployment_config(flags)),
        checkpoint,
        log.filter_min_interactions(3),
    )
    .unwrap_or_else(|e| usage(&format!("cannot serve {checkpoint}: {e}")))
}

/// The one snapshot a one-shot command needs, plus the vocabularies that
/// translate its answers.
fn load_serving(flags: &HashMap<String, String>) -> (Arc<ServingState>, Vocab, Vocab) {
    let model_path = flag(flags, "model");
    let (log, _, _) = read_log(flag(flags, "log"));
    let (up, ip) = vocab_paths(model_path);
    (open_handle(flags, model_path, &log).current(), read_vocab(&up), read_vocab(&ip))
}

fn cmd_recommend(flags: &HashMap<String, String>) {
    let (state, users, items) = load_serving(flags);
    let fitted = &state.fitted;
    let user_ext = flag(flags, "user");
    let k: usize = flag_or(flags, "k", 10);
    let Some(user) = users.get(user_ext) else {
        usage(&format!("unknown user id {user_ext}"));
    };
    let Some(ix) = fitted.user_pool.index_of(user) else {
        usage(&format!("user {user_ext} has no usable history"));
    };
    let history = fitted.user_pool.history(ix).to_vec();
    println!("top {k} items for user {user_ext} (history of {} purchases):", history.len());
    for hit in fitted.recommend_items(&history, k) {
        let name = items.external(hit.id).unwrap_or("?");
        println!("  {name:<12} score {:+.4}", hit.score);
    }
}

fn cmd_target(flags: &HashMap<String, String>) {
    let (state, users, items) = load_serving(flags);
    let fitted = &state.fitted;
    let item_ext = flag(flags, "item");
    let k: usize = flag_or(flags, "k", 10);
    let Some(item) = items.get(item_ext) else {
        usage(&format!("unknown item id {item_ext}"));
    };
    println!("top {k} users to target for item {item_ext}:");
    for (user, score) in fitted.target_users(item, k) {
        let name = users.external(user).unwrap_or("?");
        println!("  {name:<12} score {score:+.4}");
    }
}

fn cmd_evaluate(flags: &HashMap<String, String>) {
    let protocol = ProtocolConfig {
        top_n: flag_or(flags, "top-n", 10),
        negatives: flag_or(flags, "negatives", 99),
    };
    if protocol.top_n == 0 {
        usage("--top-n must be at least 1");
    }
    let seed: u64 = flag_or(flags, "seed", 7);
    let model_path = flag(flags, "model");
    let (log, _, _) = read_log(flag(flags, "log"));
    // Two deployments of one checkpoint, both opened the way `serve`
    // opens them: the one the flags describe, and the reference — no
    // deployment flag, so exact, one shard, f32 and the identity chain.
    let deployment = open_handle(flags, model_path, &log).current();
    let mut reference_flags = flags.clone();
    reference_flags.retain(|key, _| !DEPLOYMENT_FLAGS.contains(&key.as_str()));
    let reference = open_handle(&reference_flags, model_path, &log).current();

    let filtered = log.filter_min_interactions(3);
    let counts = (filtered.item_counts(), filtered.user_counts());
    let max_seq_len = reference.fitted.max_seq_len();
    let split = unimatch_core::PreparedData::from_log(filtered, max_seq_len).split;
    let out = evaluate(&reference.fitted.model, &split, &protocol, max_seq_len, seed);
    println!(
        "IR : Recall@{} {:.2}%  NDCG@{} {:.2}%  ({} cases)",
        protocol.top_n,
        100.0 * out.ir.recall,
        protocol.top_n,
        100.0 * out.ir.ndcg,
        out.ir_cases
    );
    println!(
        "UT : Recall@{} {:.2}%  NDCG@{} {:.2}%  ({} cases)",
        protocol.top_n,
        100.0 * out.ut.recall,
        protocol.top_n,
        100.0 * out.ut.ndcg,
        out.ut_cases
    );
    println!("AVG NDCG {:.2}%", 100.0 * out.avg_ndcg());

    // The full-catalog report: both deployments answer the same seeded
    // IR and UT cases through the pipelines the batcher serves, and
    // every column is printed for each plus the deployment's delta.
    let score = |fitted| {
        evaluate_deployment(fitted, &split, &protocol, seed, (&counts.0, &counts.1))
    };
    let (ours, base) = (score(&deployment.fitted), score(&reference.fitted));
    println!(
        "full catalog, top-{}: deployment {} vs reference {}",
        protocol.top_n,
        describe(&deployment.fitted),
        describe(&reference.fitted)
    );
    for (tower, ours, base, popularity) in
        [("IR", &ours.ir, &base.ir, "popularity"), ("UT", &ours.ut, &base.ut, "activeness")]
    {
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>12}",
            format!("{tower} ({} cases)", base.cases),
            "Recall",
            "NDCG",
            "coverage",
            "gini",
            popularity
        );
        for (name, row) in [("reference", base), ("deployment", ours)] {
            println!(
                "{name:<14} {:>9.2}% {:>9.2}% {:>9.2}% {:>10.4} {:>12.1}",
                100.0 * row.metrics.recall,
                100.0 * row.metrics.ndcg,
                100.0 * row.coverage,
                row.gini,
                row.popularity.mean
            );
        }
        println!(
            "delta          {:>+9.2}% {:>+9.2}% {:>+9.2}% {:>+10.4}  lift {:>+6.2}%",
            100.0 * (ours.metrics.recall - base.metrics.recall),
            100.0 * (ours.metrics.ndcg - base.metrics.ndcg),
            100.0 * (ours.coverage - base.coverage),
            ours.gini - base.gini,
            100.0 * ours.popularity_lift(base)
        );
    }
}

/// One line naming what a deployment serves: backend, shard fan-out,
/// store format and re-ranking chain.
fn describe(fitted: &FittedUniMatch) -> String {
    let chain = match fitted.rerank_spec() {
        "" => "identity".to_string(),
        spec => format!("{spec:?}"),
    };
    let shards = fitted.retriever_shards();
    let plural = if shards == 1 { "" } else { "s" };
    format!(
        "[{}, {shards} shard{plural}, {}, {chain}]",
        fitted.retriever_backend(),
        fitted.store_format().name()
    )
}

fn cmd_serve(flags: &HashMap<String, String>) {
    // a flag that only modifies another is refused without it, not
    // silently dropped
    let shadow_rate: f64 = flag_or(flags, "shadow-sample-rate", 0.0);
    if !(0.0..=1.0).contains(&shadow_rate) {
        usage("--shadow-sample-rate must be between 0 and 1");
    }
    for dependent in ["shadow-spec", "shadow-ckpt"] {
        if shadow_rate == 0.0 && flags.contains_key(dependent) {
            usage(&format!("--{dependent} needs --shadow-sample-rate above 0"));
        }
    }
    if flags.contains_key("fault-seed") && !flags.contains_key("faults") {
        usage("--fault-seed needs --faults");
    }
    // The shadow's flags start as a copy of the primary's; --shadow-spec
    // overrides individual knobs (`;`-separated so a rerank chain may
    // contain commas). Parsed before any file is read, like the checks
    // above, so an unknown knob is named before anything runs.
    let mut shadow_flags = flags.clone();
    let pairs = flags.get("shadow-spec").into_iter().flat_map(|s| s.split(';'));
    for pair in pairs.filter(|p| !p.is_empty()) {
        let Some((key, value)) = pair.split_once('=') else {
            usage(&format!("--shadow-spec entries must be key=value, got {pair}"));
        };
        match key {
            "retriever" | "shards" | "min-shards" | "store" | "rerank" | "rerank-rules" => {
                shadow_flags.insert(key.to_string(), value.to_string());
            }
            other => usage(&format!(
                "unknown --shadow-spec knob {other} \
                 (retriever|shards|min-shards|store|rerank|rerank-rules)"
            )),
        }
    }
    let checkpoint = flag(flags, "checkpoint");
    let (log, _, _) = read_log(flag(flags, "log"));
    let addr = flags.get("addr").cloned().unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let window_ms: f64 = flag_or(flags, "batch-window-ms", 2.0);
    if !(0.0..=10_000.0).contains(&window_ms) {
        usage("--batch-window-ms must be between 0 and 10000");
    }
    let deadline_ms: f64 = flag_or(flags, "deadline-ms", 2_000.0);
    if !(1.0..=600_000.0).contains(&deadline_ms) {
        usage("--deadline-ms must be between 1 and 600000");
    }
    // --obs true turns on the process-global span collection so the
    // per-shard and retrieval histograms populate on /metrics (off by
    // default per the observability no-op contract)
    if flag_or(flags, "obs", false) {
        unimatch_obs::set_enabled(true);
    }
    // chaos drills: arm a deterministic fault plan for this process before
    // the server starts, so the degradation paths can be exercised live
    if let Some(spec) = flags.get("faults") {
        let seed: u64 = flag_or(flags, "fault-seed", 42);
        let plan = unimatch_faults::FaultPlan::parse(spec, seed)
            .unwrap_or_else(|e| usage(&e.to_string()));
        eprintln!("warning: fault injection armed ({} rule(s), seed {seed})", plan.rules.len());
        unimatch_faults::set_plan(plan);
    }
    let brownout = flags.get("brownout").map(|spec| {
        BrownoutSpec::parse(spec).unwrap_or_else(|e| usage(&format!("--brownout: {e}")))
    });
    let serve_cfg = ServeConfig {
        batch_window: Duration::from_micros((window_ms * 1000.0) as u64),
        max_batch: flag_or(flags, "batch-max", 64),
        max_connections: flag_or(flags, "max-conns", 256),
        queue_bound: flag_or(flags, "queue-bound", 1024),
        request_deadline: Duration::from_micros((deadline_ms * 1000.0) as u64),
        brownout,
        ..ServeConfig::default()
    };
    let handle = open_handle(flags, checkpoint, &log);
    // --shadow-sample-rate > 0 arms a shadow deployment: a second full
    // pipeline (checkpoint + retriever + store + rerank chain) that a
    // deterministic sample of answered query traffic is mirrored to, off
    // the critical path, built from the flags --shadow-spec overrode;
    // --shadow-ckpt points it at a different checkpoint (defaulting to
    // the primary's — an A/A test).
    let shadow = (shadow_rate > 0.0).then(|| {
        let shadow_ckpt = flags.get("shadow-ckpt").map(String::as_str).unwrap_or(checkpoint);
        ShadowSpec::new(Arc::new(open_handle(&shadow_flags, shadow_ckpt, &log)), shadow_rate)
    });
    let server = Server::start_with_shadow(addr.as_str(), Arc::new(handle), serve_cfg, shadow)
        .unwrap_or_else(|e| usage(&format!("cannot bind {addr}: {e}")));
    println!(
        "unimatch-serve listening on http://{} (model version {}, {} items, {} pool users)",
        server.addr(),
        server.model().version(),
        server.model().current().fitted.num_items(),
        server.model().current().fitted.num_pool_users(),
    );
    let chain = server.model().current().fitted.rerank_spec().to_string();
    println!(
        "rerank chain: {}",
        if chain.is_empty() { "identity (raw top-k)" } else { chain.as_str() }
    );
    if shadow_rate > 0.0 {
        println!(
            "shadow: mirroring {:.1}% of answered queries off the critical path \
             (paired deltas on /metrics as unimatch_shadow_*)",
            100.0 * shadow_rate
        );
    }
    println!("routes: POST /recommend /target /reload — GET /healthz /metrics");
    // serve until the process is killed
    loop {
        std::thread::park();
    }
}
