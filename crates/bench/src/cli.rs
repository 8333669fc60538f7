//! Minimal CLI argument handling for the `experiments` binary.

use unimatch_parallel::Parallelism;

/// Common experiment arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which experiment to run: a table/figure name, or `all`.
    pub experiment: String,
    /// Dataset down-scaling factor (1.0 ≈ 1/100 of the paper's sizes).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Run a cheaper variant (fewer steps/epochs) for smoke testing.
    pub quick: bool,
    /// Worker threads for the compute kernels (0 = auto-detect cores,
    /// 1 = exact sequential execution).
    pub threads: usize,
}

impl Default for Args {
    fn default() -> Self {
        Args { experiment: "all".to_string(), scale: 1.0, seed: 42, quick: false, threads: 0 }
    }
}

impl Args {
    /// Parses `<experiment> [--scale <f64>] [--seed <u64>] [--threads
    /// <usize>] [--quick]` from the process arguments and installs the
    /// requested [`Parallelism`] globally; anything else aborts with a
    /// usage message.
    pub fn parse() -> Self {
        let mut out = Args::default();
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match argv.first() {
            Some(name) if !name.starts_with("--") => out.experiment = name.clone(),
            _ => usage("missing experiment name"),
        }
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    i += 1;
                    out.scale = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a float"));
                }
                "--seed" => {
                    i += 1;
                    out.seed = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--threads" => {
                    i += 1;
                    out.threads = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--threads needs an integer (0 = auto)"));
                }
                "--quick" => out.quick = true,
                other => usage(&format!("unknown argument {other}")),
            }
            i += 1;
        }
        Parallelism::threads(out.threads).install_global();
        out
    }
}

/// Prints `msg` and the usage line, then exits with status 2.
pub fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <table01|…|table12|figure03|cost_saving|ablations|all> \
         [--scale <f64>] [--seed <u64>] [--threads <usize>] [--quick]"
    );
    std::process::exit(2);
}
