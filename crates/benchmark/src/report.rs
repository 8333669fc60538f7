//! What a run prints and writes: every metric as `name value unit`, the
//! notes beside them, `<out>/<workload>.json` with an environment block,
//! and — last on standard output — the one-line JSON result.

use std::io;
use std::path::Path;
use std::process::Command;

use unimatch_data::json::Json;

use crate::cycle::{Options, Outcome};
use crate::spec::{catalogue, MetricDef};
use crate::trace::{self_time_us, Span};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how this result was measured.
fn environment(opts: &Options) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        (
            "nproc",
            Json::int(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("cpu", Json::str(cpu)),
        ("rustc", Json::str(command_line("rustc", &["-V"]))),
        (
            "git_sha",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("seed", Json::Num(opts.seed as f64)),
        ("client_threads", Json::int(crate::client::client_threads())),
        // which `rand` the workspace was built against: run.sh sets this
        // to `crates.io` or `stand-ins` when it builds
        (
            "deps",
            Json::str(option_env!("UNIMATCH_BENCHMARK_DEPS").unwrap_or("unknown")),
        ),
    ])
}

/// `name: {"value": v, "unit": u}` for every metric of `defs` the pass
/// reported, in catalogue order.
fn metric_fields(defs: &[MetricDef], outcome: &Outcome) -> Vec<(String, Json)> {
    defs.iter()
        .filter_map(|d| {
            let value = *outcome.metrics.get(d.name.as_str())?;
            let entry = Json::obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::str(d.unit.clone())),
            ]);
            Some((d.name.clone(), entry))
        })
        .collect()
}

/// Verifies that the pass reported every metric `BENCHMARK.json` says it
/// owes, all finite, and none the file does not name; anything else is a
/// failed check.
pub fn verify_metrics(outcome: &mut Outcome, owed: &[&[MetricDef]]) {
    for def in owed.iter().flat_map(|defs| defs.iter()) {
        let value = outcome.metrics.get(def.name.as_str()).copied();
        outcome.check(value.is_some_and(f64::is_finite), || {
            format!("metric {} is missing or not finite: {value:?}", def.name)
        });
    }
    // a pass may measure more than it owes (the untraced pass also times
    // the batch phases), but nothing `BENCHMARK.json` does not name
    let cat = catalogue();
    let reported: Vec<&'static str> = outcome.metrics.keys().copied().collect();
    for name in reported {
        let known = cat
            .end_to_end
            .iter()
            .chain(&cat.per_layer)
            .any(|d| d.name == name);
        outcome.check(known, || {
            format!("metric {name} is reported but not in BENCHMARK.json")
        });
    }
}

/// Prints the human-readable report.
pub fn print(opts: &Options, outcome: &Outcome, spans: &[Span]) {
    println!(
        "# workload {} seed {} seconds {}{}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        if opts.smoke { " (smoke)" } else { "" }
    );
    let cat = catalogue();
    for def in cat.end_to_end.iter().chain(&cat.per_layer) {
        if let Some(value) = outcome.metrics.get(def.name.as_str()) {
            println!("{} {} {}", def.name, value, def.unit);
        }
    }
    for (key, value) in &outcome.notes {
        println!("# {key}: {value}");
    }
    if !spans.is_empty() {
        println!(
            "# self time by span name (us, span minus its children), {} spans",
            spans.len()
        );
        for (name, us) in self_time_us(spans) {
            println!("# self {name} {us:.1}");
        }
    }
    for w in &outcome.warnings {
        println!("warning: {w}");
    }
    for f in &outcome.failures {
        println!("FAILED: {f}");
    }
}

/// Writes `<out>/<workload>.json`.
pub fn write(opts: &Options, outcome: &Outcome) -> io::Result<()> {
    let strings =
        |items: &[String]| Json::Arr(items.iter().map(|s| Json::str(s.clone())).collect());
    let doc = Json::obj(vec![
        ("workload", Json::str(opts.workload.name)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("environment", environment(opts)),
        (
            "end_to_end",
            Json::Obj(metric_fields(&catalogue().end_to_end, outcome)),
        ),
        (
            "per_layer",
            Json::Obj(metric_fields(&catalogue().per_layer, outcome)),
        ),
        (
            "notes",
            Json::Obj(
                outcome
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                    .collect(),
            ),
        ),
        ("warnings", strings(&outcome.warnings)),
        ("failures", strings(&outcome.failures)),
    ]);
    let mut text = doc.to_string();
    text.push('\n');
    std::fs::write(result_path(&opts.out, opts.workload.name), text)
}

/// The result file of a workload under `dir`.
pub fn result_path(dir: &Path, workload: &str) -> std::path::PathBuf {
    dir.join(format!("{workload}.json"))
}

/// The last line of standard output: the result the driver reads.
pub fn result_line(outcome: &Outcome, owed: &[&[MetricDef]]) -> String {
    let metrics = owed
        .iter()
        .flat_map(|defs| metric_fields(defs, outcome))
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string()
}
