//! Drives the built binary the way the driver does, on the `--smoke`
//! corpus: every workload emits every metric `BENCHMARK.json` names, and
//! no other, with a finite value, and the trace file is a well-formed
//! forest.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;

use unimatch_benchmark::compare;
use unimatch_benchmark::spec::{catalogue, WORKLOADS};
use unimatch_data::json::Json;

/// Held while a benchmark process runs: the workloads time themselves, so
/// two tests never run one at the same moment.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const BIN: &str = env!("CARGO_BIN_EXE_unimatch-benchmark");

fn out_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("unimatch_benchmark_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Runs one workload and returns (exit ok, stdout).
fn run(workload: &str, out: &Path, extra: &[&str]) -> (bool, String) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let output = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--smoke",
            "--seconds",
            "2",
            "--out",
        ])
        .arg(out)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    (
        output.status.success(),
        String::from_utf8(output.stdout).expect("utf-8 stdout"),
    )
}

/// The metrics of the result line: name → (value, unit).
fn result_metrics(stdout: &str) -> (Json, BTreeMap<String, (f64, String)>) {
    let line = stdout.lines().last().expect("a result line");
    let doc = Json::parse(line.as_bytes()).expect("the last line is JSON");
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        panic!("no metrics object: {line}")
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            (name.clone(), (value, unit))
        })
        .collect();
    (doc, metrics)
}

fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file");
    // id → (parent, request, start, end)
    let mut spans: BTreeMap<u64, (Option<u64>, u64, u64, u64)> = BTreeMap::new();
    for line in text.lines() {
        let s = Json::parse(line.as_bytes()).expect("every trace line is JSON");
        let int = |key: &str| {
            s.get(key)
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{key} in {line}"))
        };
        let parent = match s.get("parent") {
            Some(Json::Null) => None,
            _ => Some(int("parent")),
        };
        let name = s.get("name").and_then(Json::as_str).expect("name");
        assert!(
            name.contains('.') || name == "replay",
            "span name {name} is not layer.stage"
        );
        assert!(int("start_ns") <= int("end_ns"), "{line}");
        spans.insert(
            int("id"),
            (parent, int("request"), int("start_ns"), int("end_ns")),
        );
    }
    assert!(spans.len() > 100, "only {} spans", spans.len());
    let mut children = 0;
    for (id, (parent, request, start, end)) in &spans {
        let Some(parent) = parent else { continue };
        children += 1;
        let (_, p_request, p_start, p_end) = spans
            .get(parent)
            .unwrap_or_else(|| panic!("span {id}: no parent {parent}"));
        assert_eq!(
            request, p_request,
            "span {id} and its parent belong to different requests"
        );
        assert!(
            p_start <= start && end <= p_end,
            "span {id} lies outside its parent {parent}"
        );
    }
    assert!(children > 50, "only {children} child spans");
}

#[test]
fn every_workload_emits_every_catalogued_metric() {
    let out = out_dir("smoke");
    let cat = catalogue();
    let wanted: BTreeMap<&str, &str> = cat
        .end_to_end
        .iter()
        .chain(&cat.per_layer)
        .map(|m| (m.name.as_str(), m.unit.as_str()))
        .collect();
    for w in &WORKLOADS {
        let started = std::time::Instant::now();
        let (ok, stdout) = run(w.name, &out, &[]);
        assert!(ok, "{} failed:\n{stdout}", w.name);
        assert!(
            started.elapsed().as_secs() < 30,
            "{} smoke took {:?}",
            w.name,
            started.elapsed()
        );
        let (doc, metrics) = result_metrics(&stdout);
        assert_eq!(
            doc.get("correct"),
            Some(&Json::Bool(true)),
            "{}:\n{stdout}",
            w.name
        );
        assert!(doc
            .get("attempted")
            .and_then(Json::as_u64)
            .is_some_and(|n| n >= 1));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
        let catalogued: BTreeSet<&str> = wanted.keys().copied().collect();
        assert_eq!(
            emitted, catalogued,
            "{}: emitted and catalogued names differ",
            w.name
        );
        for (name, (value, unit)) in &metrics {
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
            assert_eq!(unit, wanted[name.as_str()], "{}: unit of {name}", w.name);
            // every metric also printed as `name value unit`
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(unit.as_str())),
                "{}: {name} not printed by name",
                w.name
            );
        }
        for m in &cat.end_to_end {
            assert!(
                metrics[&m.name].0 != 0.0,
                "{}: end-to-end metric {} is 0",
                w.name,
                m.name
            );
        }
        check_trace(&out.join(format!("{}.trace.jsonl", w.name)));
        let result = std::fs::read(out.join(format!("{}.json", w.name))).expect("result file");
        let result = Json::parse(&result).expect("result file is JSON");
        let env = result.get("environment").expect("environment block");
        for key in ["nproc", "cpu", "rustc", "git_sha", "profile", "seed"] {
            assert!(env.get(key).is_some(), "environment lacks {key}");
        }
    }
    // a result set agrees with itself, so `compare` resolves every row:
    // one per workload and metric it owns, the quality metrics (same
    // seed on both sides) judged by their absolute bound
    let rows = compare::compare(&out, &out).expect("compare");
    let owned = |w: &unimatch_benchmark::spec::Workload| {
        cat.end_to_end.iter().filter(|m| w.owns(&m.name)).count()
    };
    assert_eq!(rows.len(), WORKLOADS.iter().map(owned).sum::<usize>());
    assert!(rows.iter().all(|r| !r.unresolved() && r.worse_by == 0.0));
    assert!(rows
        .iter()
        .all(|r| r.absolute == ["recall_at_10", "ndcg_avg"].contains(&r.metric)));
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn trace_flag_selects_the_metric_set_and_bad_arguments_are_refused() {
    let out = out_dir("flags");
    let (ok, stdout) = run("train-month", &out, &["--trace", "0"]);
    assert!(ok, "{stdout}");
    let names: BTreeSet<String> = result_metrics(&stdout).1.into_keys().collect();
    assert_eq!(
        names,
        catalogue()
            .end_to_end
            .iter()
            .map(|m| m.name.clone())
            .collect()
    );
    let (ok, stdout) = run("train-month", &out, &["--trace", "1"]);
    assert!(ok, "{stdout}");
    let names: BTreeSet<String> = result_metrics(&stdout).1.into_keys().collect();
    assert_eq!(
        names,
        catalogue()
            .per_layer
            .iter()
            .map(|m| m.name.clone())
            .collect()
    );

    for bad in [
        &["--workload", "no-such", "--seed", "1"][..],
        &["--workload", "train-month"],
        &["compare", "only-one"],
    ] {
        let output = Command::new(BIN).args(bad).output().expect("runs");
        assert!(!output.status.success(), "{bad:?} was accepted");
        assert!(output.stdout.is_empty(), "{bad:?} printed a result");
    }
    std::fs::remove_dir_all(&out).ok();
}
