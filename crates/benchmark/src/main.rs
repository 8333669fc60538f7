//! `unimatch-benchmark`: the one benchmark for UniMatch. See `README.md`
//! beside this crate's `Cargo.toml` for the workloads, the metrics and
//! how they are expected to move together.
//!
//! ```text
//! unimatch-benchmark --workload <name> --seed <u64> [--seconds <n>]
//!                    [--trace 0|1] [--out <dir>] [--smoke]
//! unimatch-benchmark compare <dirA> <dirB>
//! ```
//!
//! `--trace 0` runs the untraced pass and reports the end-to-end metrics,
//! `--trace 1` the traced pass and the per-layer metrics; without the
//! flag both run, untraced first. The last line of standard output is the
//! JSON result; the exit code is 0 only when every output check passed.

use std::path::PathBuf;
use std::process::ExitCode;

use unimatch_benchmark::cycle::{self, Options, Outcome};
use unimatch_benchmark::spec::{self, catalogue, MetricDef};
use unimatch_benchmark::trace::Recorder;
use unimatch_benchmark::{compare, report};

const USAGE: &str = "usage: unimatch-benchmark --workload <name> --seed <u64> [--seconds <n>] \
[--trace 0|1] [--out <dir>] [--smoke]\n       unimatch-benchmark compare <dirA> <dirB>";

/// Which passes to run.
#[derive(Clone, Copy, PartialEq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

fn parse(args: &[String]) -> Result<(Options, Passes), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut passes = Passes::Both;
    let mut out = PathBuf::from(".bench_out");
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(spec::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; one of {}", known.join(", "))
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                passes = match value()?.as_str() {
                    "0" => Passes::Untraced,
                    "1" => Passes::Traced,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--out" => out = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let opts = Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(if smoke {
            3.0
        } else {
            catalogue().run_seconds as f64
        }),
        smoke,
        out,
    };
    Ok((opts, passes))
}

fn run(opts: &Options, passes: Passes) -> std::io::Result<ExitCode> {
    std::fs::create_dir_all(&opts.out)?;
    let mut total = Outcome::default();
    let mut owed: Vec<&[MetricDef]> = Vec::new();
    let (rec, no_spans) = (
        Recorder::new(passes != Passes::Untraced),
        Recorder::new(false),
    );
    for traced in [false, true] {
        let skipped = if traced {
            Passes::Untraced
        } else {
            Passes::Traced
        };
        if passes == skipped {
            continue;
        }
        let pass = cycle::run_pass(opts, traced, if traced { &rec } else { &no_spans })?;
        owed.push(if traced {
            &catalogue().per_layer
        } else {
            &catalogue().end_to_end
        });
        total.metrics.extend(pass.metrics);
        total.attempted += pass.attempted;
        total.failed += pass.failed;
        total.failures.extend(pass.failures);
        total.warnings.extend(pass.warnings);
        total.notes.extend(pass.notes);
    }
    report::verify_metrics(&mut total, &owed);
    let spans = rec.spans();
    if rec.on() {
        rec.write_jsonl(&opts.out.join(format!("{}.trace.jsonl", opts.workload.name)))?;
    }
    report::print(opts, &total, &spans);
    report::write(opts, &total)?;
    println!("{}", report::result_line(&total, &owed));
    Ok(if total.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            match compare::compare(a.as_ref(), b.as_ref()) {
                Ok(rows) if compare::print(&rows) == 0 => ExitCode::SUCCESS,
                Ok(_) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => match parse(&args) {
            Ok((opts, passes)) => run(&opts, passes).unwrap_or_else(|e| {
                eprintln!("unimatch-benchmark: {e}");
                ExitCode::FAILURE
            }),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}
