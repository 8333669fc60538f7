//! End-to-end test of the `unimatch-cli` binary: generate → fit →
//! recommend → target → evaluate over a temp directory, and `serve`
//! children driven over loopback HTTP, one request at a time, with their
//! `/metrics` checked against what was sent.

use std::io::{BufRead, BufReader, Lines, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use unimatch::data::json::Json;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_unimatch-cli"))
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("unimatch_cli_test_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = tmp_dir("workflow");
    let log = dir.join("log.csv");
    let model = dir.join("model.json");

    let out = cli()
        .args(["generate", "--profile", "ecomp", "--scale", "0.2", "--seed", "9"])
        .args(["--out", log.to_str().expect("utf8 path")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let csv = std::fs::read_to_string(&log).expect("log written");
    assert!(csv.starts_with("user,item,day\n"));
    assert!(csv.lines().count() > 100);

    let out = cli()
        .args(["fit", "--log", log.to_str().expect("utf8")])
        .args(["--out", model.to_str().expect("utf8"), "--epochs", "1"])
        .output()
        .expect("run fit");
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());
    assert!(dir.join("model.json.users.json").exists());
    assert!(dir.join("model.json.items.json").exists());

    // pick a user that survives filtering: take one with many rows
    let mut counts = std::collections::HashMap::new();
    for line in csv.lines().skip(1) {
        let user = line.split(',').next().expect("user column");
        *counts.entry(user.to_string()).or_insert(0u32) += 1;
    }
    let busy_user = counts
        .iter()
        .max_by_key(|&(_, c)| c)
        .map(|(u, _)| u.clone())
        .expect("non-empty log");

    let out = cli()
        .args(["recommend", "--model", model.to_str().expect("utf8")])
        .args(["--log", log.to_str().expect("utf8"), "--user", &busy_user, "--k", "3"])
        .output()
        .expect("run recommend");
    assert!(out.status.success(), "recommend failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("top 3 items"), "{text}");
    assert!(text.matches("score").count() == 3, "{text}");

    // a rules sidecar naming an item the checkpoint cannot serve is the
    // same typed error for the one-shot commands as for `serve`
    let rules = dir.join("oov_rules.json");
    std::fs::write(&rules, r#"{"deny":[999999]}"#).expect("write rules");
    let rejection = |command: &str, model_flag: &str, own: &[&str]| {
        let out = cli()
            .args([command, model_flag, model.to_str().expect("utf8")])
            .args(["--log", log.to_str().expect("utf8")])
            .args(own)
            .args(["--rerank", "filter", "--rerank-rules", rules.to_str().expect("utf8")])
            .output()
            .expect("run with out-of-vocabulary rules");
        assert!(!out.status.success(), "{command} must reject out-of-vocabulary rules");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let reason = stderr.find("checkpoint ").map(|at| stderr[at..].lines().next().unwrap_or(""));
        reason.unwrap_or_else(|| panic!("{command}: {stderr}")).to_string()
    };
    let reason = rejection("recommend", "--model", &["--user", &busy_user]);
    assert!(reason.ends_with("the rerank rules reference item 999999"), "{reason}");
    assert_eq!(reason, rejection("serve", "--checkpoint", &[]));
    // `evaluate` opens the deployment `serve` would, so it refuses the
    // same chain instead of silently evaluating it unfiltered
    assert_eq!(reason, rejection("evaluate", "--model", &[]));

    let out = cli()
        .args(["target", "--model", model.to_str().expect("utf8")])
        .args(["--log", log.to_str().expect("utf8"), "--item", "i0", "--k", "3"])
        .output()
        .expect("run target");
    assert!(out.status.success(), "target failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("users to target"));

    let out = cli()
        .args(["evaluate", "--model", model.to_str().expect("utf8")])
        .args(["--log", log.to_str().expect("utf8"), "--negatives", "20"])
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "evaluate failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("IR :") && text.contains("UT :"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fit_run_dir_resumes_to_the_same_checkpoint() {
    let dir = tmp_dir("run_dir");
    let log = dir.join("log.csv");
    let run = dir.join("run");
    let out = cli()
        .args(["generate", "--profile", "ecomp", "--scale", "0.1", "--seed", "4"])
        .args(["--out", log.to_str().expect("utf8 path")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));

    // the second fit finds every month committed: a no-op resume
    let fit = |model: &Path, run_dir: Option<&Path>| {
        let mut cmd = cli();
        cmd.args(["fit", "--log", log.to_str().expect("utf8"), "--epochs", "1"]);
        if let Some(run) = run_dir {
            cmd.args(["--run-dir", run.to_str().expect("utf8")]);
        }
        let out = cmd.args(["--out", model.to_str().expect("utf8")]).output().expect("run fit");
        assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
        std::fs::read(model).expect("checkpoint written")
    };
    let first = fit(&dir.join("first.json"), Some(&run));
    let second = fit(&dir.join("second.json"), Some(&run));
    assert!(first == second, "a resumed fit must write the same checkpoint bytes");
    // both entry points step the months through one reseeded month step
    let plain = fit(&dir.join("plain.json"), None);
    assert!(plain == first, "a plain fit must write the --run-dir fit's checkpoint bytes");

    let mut months: Vec<String> = std::fs::read_dir(&run)
        .expect("run dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    months.sort();
    assert!(!months.is_empty());
    for name in &months {
        let digits = name.strip_prefix("month_").and_then(|n| n.strip_suffix(".json"));
        assert!(
            digits.is_some_and(|d| d.len() == 4 && d.bytes().all(|b| b.is_ascii_digit())),
            "only month_NNNN.json files belong in the run dir: {months:?}"
        );
    }
    let newest = run.join(months.last().expect("a month"));
    let (from_month, _, _) = unimatch::core::load_checkpoint(&newest).expect("month loads");
    let (from_out, _, _) = unimatch::core::load_checkpoint(dir.join("first.json")).expect("out");
    assert!(
        unimatch::core::model_to_json(&from_month) == unimatch::core::model_to_json(&from_out),
        "the newest month holds the model --out wrote"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The model every serving case starts from: one `generate` and one
/// durable `fit`, made once per test process. `fit --out` and the newest
/// month file hold the same model, so one fit feeds the plain, the i8
/// (re-encoded at serve time) and the month-file deployments alike.
struct ServeFixture {
    log: PathBuf,
    model: PathBuf,
    newest_month: PathBuf,
}

fn serve_fixture() -> &'static ServeFixture {
    static FIXTURE: OnceLock<ServeFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_serve_fixture");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let log = dir.join("log.csv");
        let model = dir.join("model.json");
        let run = dir.join("run");
        let out = cli()
            .args(["generate", "--profile", "ecomp", "--scale", "0.1", "--seed", "7"])
            .args(["--out", log.to_str().expect("utf8")])
            .output()
            .expect("run generate");
        assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
        let out = cli()
            .args(["fit", "--log", log.to_str().expect("utf8"), "--epochs", "1"])
            .args(["--out", model.to_str().expect("utf8"), "--run-dir", run.to_str().expect("utf8")])
            .output()
            .expect("run fit");
        assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
        let mut months: Vec<PathBuf> =
            std::fs::read_dir(&run).expect("run dir").map(|e| e.expect("entry").path()).collect();
        months.sort();
        let newest_month = months.pop().expect("a month file");
        ServeFixture { log, model, newest_month }
    })
}

/// How long one request may take before the test fails instead of hanging.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A live `unimatch-cli serve` child. Dropping it kills and reaps the
/// process, so a failed assertion leaves no server listening behind.
struct ServeChild {
    child: Child,
    addr: String,
    /// The server prints after its address line; the read end stays open
    /// so those writes never fail.
    stdout: Lines<BufReader<ChildStdout>>,
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// Starts `serve` on the fixture's checkpoint with `flags` on port 0: the
/// kernel picks a free port and the CLI prints the real one.
fn spawn_serve(flags: &[&str]) -> ServeChild {
    let fixture = serve_fixture();
    let mut child = cli()
        .args(["serve", "--checkpoint", fixture.model.to_str().expect("utf8")])
        .args(["--log", fixture.log.to_str().expect("utf8"), "--addr", "127.0.0.1:0"])
        .args(flags)
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut server = ServeChild { child, addr: String::new(), stdout: BufReader::new(stdout).lines() };
    server.addr = loop {
        let line = server.stdout.next().expect("serve exited before listening").expect("read stdout");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().expect("addr token").to_string();
        }
    };
    server
}

/// Sends one HTTP/1.1 request over a fresh connection and returns the raw
/// response (the server always closes the connection after answering).
fn http_request(addr: &str, method: &str, path: &str, body: &str) -> String {
    let socket = addr.parse().expect("socket address");
    let mut stream = TcpStream::connect_timeout(&socket, IO_TIMEOUT).expect("connect");
    stream.set_read_timeout(Some(IO_TIMEOUT)).expect("read timeout");
    stream.set_write_timeout(Some(IO_TIMEOUT)).expect("write timeout");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

/// Posts one query, asserts a 200 and returns the parsed body.
fn post_query(addr: &str, path: &str, body: &str) -> Json {
    let response = http_request(addr, "POST", path, body);
    assert!(response.starts_with("HTTP/1.1 200"), "{path} {body}: {response}");
    let (_, json) = response.split_once("\r\n\r\n").expect("end of headers");
    Json::parse(json.as_bytes()).unwrap_or_else(|e| panic!("{path} {body}: {e}: {json}"))
}

/// Query `i` of a fixed sequence: even ones `/recommend` a 3–5-id history
/// staggered per request, odd ones `/target` an item; `k` alternates 10
/// and 20. Returns the route, the answer's list key and the body.
fn query(i: u32, num_items: u32) -> (&'static str, &'static str, String) {
    let k = if (i / 2).is_multiple_of(2) { 10 } else { 20 };
    if i.is_multiple_of(2) {
        let history: Vec<String> =
            (0..3 + i % 3).map(|j| ((i * 7 + j * 3 + i % 11) % num_items).to_string()).collect();
        ("/recommend", "items", format!(r#"{{"history":[{}],"k":{k}}}"#, history.join(",")))
    } else {
        ("/target", "users", format!(r#"{{"item":{},"k":{k}}}"#, (i * 5) % num_items))
    }
}

/// The item count `/healthz` reports.
fn num_items(addr: &str) -> u32 {
    let health = http_request(addr, "GET", "/healthz", "");
    let (_, body) = health.split_once("\r\n\r\n").expect("end of headers");
    let health = Json::parse(body.as_bytes()).expect("healthz json");
    health.get("items").and_then(Json::as_u64).expect("items") as u32
}

/// The number that ends a scrape line.
fn value(line: &str) -> f64 {
    let number = line.rsplit_once(' ').and_then(|(_, v)| v.parse().ok());
    number.unwrap_or_else(|| panic!("not a sample line: {line}"))
}

/// The sample of the series named exactly `name` (labels included).
fn sample(scrape: &str, name: &str) -> Option<f64> {
    let mut lines = scrape.lines();
    lines.find(|line| line.rsplit_once(' ').is_some_and(|(series, _)| series == name)).map(value)
}

#[test]
fn serve_subcommand_answers_requests() {
    let server = spawn_serve(&[]);

    let health = http_request(&server.addr, "GET", "/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let rec = http_request(&server.addr, "POST", "/recommend", r#"{"history":[0,1,2],"k":3}"#);
    assert!(rec.starts_with("HTTP/1.1 200"), "{rec}");
    assert!(rec.contains("\"items\":["), "{rec}");

    let metrics = http_request(&server.addr, "GET", "/metrics", "");
    assert!(metrics.contains("unimatch_requests_total"), "{metrics}");
}

/// A rerank chain over a two-shard i8 store answers every query of both
/// routes, and the server counts exactly what was sent.
#[test]
fn serve_reranks_over_a_sharded_i8_store() {
    let server = spawn_serve(&[
        "--shards", "2", "--store", "i8", "--rerank", "debias@0.5,mmr@0.3,explore@0.1",
    ]);
    let num_items = num_items(&server.addr);
    for i in 0..60 {
        let (path, list, body) = query(i, num_items);
        let answer = post_query(&server.addr, path, &body);
        let hits = answer.get(list).and_then(Json::as_array).unwrap_or_default();
        assert!(!hits.is_empty(), "{path} {body}: empty answer");
    }
    let scrape = http_request(&server.addr, "GET", "/metrics", "");
    for route in ["recommend", "target"] {
        let name = format!("unimatch_requests_total{{route=\"{route}\"}}");
        assert_eq!(sample(&scrape, &name), Some(30.0), "{name}\n{scrape}");
    }
}

/// Shard 0 fails every search and `--min-shards 1` keeps answering from
/// shard 1: no client retries, every answer a degraded 200, and every
/// request counted once as a shard error and once as a degraded answer.
#[test]
fn serve_quorum_answers_around_a_wedged_shard() {
    const N: u32 = 100;
    let server = spawn_serve(&[
        "--shards", "2", "--min-shards", "1", "--faults", "ann.shard.search.0=io",
    ]);
    let num_items = num_items(&server.addr);
    for i in 0..N {
        let (path, _, body) = query(i, num_items);
        let answer = post_query(&server.addr, path, &body);
        assert_eq!(answer.get("degraded").and_then(Json::as_bool), Some(true), "{path} {body}");
    }
    let scrape = http_request(&server.addr, "GET", "/metrics", "");
    for name in [
        r#"unimatch_shard_errors_total{shard="0"}"#,
        r#"unimatch_degraded_responses_total{reason="shard"}"#,
    ] {
        assert_eq!(sample(&scrape, name), Some(f64::from(N)), "{name}\n{scrape}");
    }
}

/// An exact primary mirrors a sample of its answers to an HNSW shadow
/// serving the newest month file: the mirror pairs answers, and both
/// towers' graph builds are timed into a finite bucket.
#[test]
fn serve_shadows_a_month_file_through_hnsw() {
    let newest_month = serve_fixture().newest_month.to_str().expect("utf8");
    let server = spawn_serve(&[
        "--obs", "true", "--shadow-sample-rate", "0.1", "--shadow-ckpt", newest_month,
        "--shadow-spec", "retriever=hnsw",
    ]);
    let num_items = num_items(&server.addr);
    for i in 0..100 {
        let (path, _, body) = query(i, num_items);
        post_query(&server.addr, path, &body);
    }
    // the mirror pairs off the critical path: wait for its first pairs
    let pairs = |scrape: &str| -> f64 {
        scrape.lines().filter(|l| l.starts_with("unimatch_shadow_pairs_total")).map(value).sum()
    };
    let deadline = Instant::now() + IO_TIMEOUT;
    let scrape = loop {
        let scrape = http_request(&server.addr, "GET", "/metrics", "");
        if pairs(&scrape) > 0.0 || Instant::now() > deadline {
            break scrape;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(pairs(&scrape) > 0.0, "the mirror produced no pairs\n{scrape}");
    let builds = r#"unimatch_ann_build_us_count{index="hnsw"}"#;
    assert_eq!(sample(&scrape, builds), Some(2.0), "{scrape}");
    // buckets are cumulative and ascending, so the last finite one counts
    // every build that was not filed under +Inf
    let finite = scrape
        .lines()
        .filter(|l| l.starts_with(r#"unimatch_ann_build_us_bucket{index="hnsw",le=""#))
        .rfind(|l| !l.contains("+Inf"))
        .map(value);
    assert_eq!(finite, Some(2.0), "both builds under a finite le bound\n{scrape}");
}

/// Runs `evaluate` on the serve fixture with `flags` and returns stdout.
fn evaluate_fixture(flags: &[&str]) -> String {
    let fixture = serve_fixture();
    let out = cli()
        .args(["evaluate", "--model", fixture.model.to_str().expect("utf8")])
        .args(["--log", fixture.log.to_str().expect("utf8"), "--negatives", "20"])
        .args(flags)
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "evaluate {flags:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The cells of every `delta` row of an `evaluate` report (IR first,
/// then UT), the popularity lift last.
fn delta_rows(report: &str) -> Vec<Vec<f64>> {
    let rows: Vec<Vec<f64>> = report
        .lines()
        .filter_map(|line| line.strip_prefix("delta "))
        .map(|cells| {
            let cells = cells.split_whitespace().filter(|c| *c != "lift");
            cells.map(|c| c.trim_end_matches('%').parse().expect("numeric cell")).collect()
        })
        .collect();
    assert_eq!(rows.len(), 2, "one delta row per tower\n{report}");
    rows
}

#[test]
fn evaluate_reports_the_flagged_deployment_against_the_reference() {
    // no deployment flag: the deployment is the reference, so every
    // delta cell is exactly zero; exact retrieval is shard-invariant, so
    // two shards change nothing either
    for flags in [&[][..], &["--shards", "2"]] {
        let report = evaluate_fixture(flags);
        assert!(report.contains("IR :") && report.contains("UT :"), "{report}");
        for row in delta_rows(&report) {
            assert_eq!(row.len(), 5, "{report}");
            assert!(row.iter().all(|&cell| cell == 0.0), "{flags:?}\n{report}");
        }
    }
    // every deployment flag combines, and the header names what was built
    let flags = ["--retriever", "hnsw", "--store", "i8", "--rerank", "debias@2"];
    let report = evaluate_fixture(&flags);
    let header = report.lines().find(|l| l.starts_with("full catalog")).expect("header");
    let deployment = header.split(" vs reference").next().expect("split yields one");
    for part in ["hnsw", "i8", "debias@2"] {
        assert!(deployment.contains(part), "{part} missing from {header}");
    }
    // the chain, not the i8 grid (about −0.1 % alone), moves popularity
    let ir_lift = delta_rows(&report)[0][4];
    assert!(ir_lift < -10.0, "debias@2 lowers IR popularity: lift {ir_lift}%\n{report}");
}

/// Every `unimatch-cli <command> --flag …` line in `ci.sh`, the README,
/// the operations guide and the verification skill names only flags the
/// command accepts, and none invokes a retired command. Flags are checked
/// in order before anything runs, so each documented line is replayed
/// with a sentinel appended: the sentinel must be the flag the refusal
/// names. An invocation ends at its first backtick, so an inline mention
/// replays only its code span. Values are replaced by a loopback address,
/// so a replay that got past the check could reach nothing else.
#[test]
fn documented_command_lines_name_only_accepted_flags() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let commands = ["generate", "fit", "recommend", "target", "evaluate", "serve"];
    let retired = ["bench", "loadgen"];
    let mut replayed = 0;
    for file in ["ci.sh", "README.md", "docs/OPERATIONS.md", ".claude/skills/verify/SKILL.md"] {
        let text = std::fs::read_to_string(root.join(file)).expect("read doc");
        for line in text.replace("\\\n", " ").lines() {
            let Some((_, invocation)) = line.split_once("unimatch-cli ") else { continue };
            let invocation = invocation.split(" #").next().expect("split yields one");
            let invocation = invocation.split('`').next().expect("split yields one");
            let mut tokens = invocation.split_whitespace();
            let word = tokens.next().unwrap_or_default().trim_end_matches([')', ',', '.']);
            assert!(!retired.contains(&word), "{file} invokes retired command {word}: {line}");
            let Some(command) = commands.iter().find(|c| **c == word) else { continue };
            let mut args = vec![*command];
            for flag in tokens.filter(|t| t.starts_with("--")) {
                args.push(flag.trim_end_matches([')', ',', '.']));
                args.push("127.0.0.1:1");
            }
            let out = cli().args(&args).args(["--zz", "127.0.0.1:1"]).output().expect("run");
            assert_eq!(out.status.code(), Some(2), "{file}: {line}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let refused = format!("unknown flag --zz for {command}");
            assert!(stderr.contains(&refused), "{file}: {line}\n{stderr}");
            replayed += 1;
        }
    }
    assert!(replayed >= 30, "only {replayed} command lines found: the extraction broke");
}

#[test]
fn cli_rejects_bad_input() {
    let out = cli().args(["bogus"]).output().expect("run");
    assert!(!out.status.success());
    // the legacy perf tooling and the second load client are retired,
    // not hidden
    for command in ["bench", "loadgen"] {
        let out = cli().args([command, "--addr", "127.0.0.1:1"]).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{command}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown command {command}")), "{stderr}");
    }

    // a flag the command does not accept is named and refused before
    // anything runs: a typo, another command's flag
    // (`--mmap`, `--shard-deadline-ms`, `--store-deltas` and
    // `--backend-deltas` are retired, not hidden)
    for (command, flag) in [
        ("serve", "--shard"),
        ("serve", "--cache"),
        ("serve", "--mmap"),
        ("serve", "--shard-deadline-ms"),
        ("evaluate", "--store-deltas"),
        ("evaluate", "--backend-deltas"),
        ("generate", "--log"),
    ] {
        let out = cli().args([command, flag, "5"]).output().expect("run");
        assert_eq!(out.status.code(), Some(2), "{command} {flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag} for {command}")), "{stderr}");
    }

    // a flag that only modifies another is refused without it — checked
    // before any file is read, so these name no checkpoint
    let rejected = |out: std::process::Output, message: &str| {
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{stderr}");
    };
    for (flag, value, message) in [
        ("--shadow-spec", "retriever=hnsw", "--shadow-spec needs --shadow-sample-rate"),
        ("--shadow-ckpt", "other.json", "--shadow-ckpt needs --shadow-sample-rate"),
        ("--fault-seed", "7", "--fault-seed needs --faults"),
    ] {
        rejected(cli().args(["serve", flag, value]).output().expect("run"), message);
    }
    // so is a retired --shadow-spec knob, named before any file is read
    let out = cli()
        .args(["serve", "--shadow-sample-rate", "0.1", "--shadow-spec", "mmap=true"])
        .output()
        .expect("run");
    rejected(out, "unknown --shadow-spec knob mmap");
    // and a zero cutoff, which the metrics would panic on
    let out = cli().args(["evaluate", "--top-n", "0"]).output().expect("run");
    rejected(out, "--top-n must be at least 1");

    let dir = tmp_dir("badinput");
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "wrong,header\n1,2\n").expect("write");
    let out = cli()
        .args(["fit", "--log", bad.to_str().expect("utf8"), "--out", "/dev/null"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected header"));

    // retired backend / format names are a usage error that lists what
    // is left, wherever they are spelled
    let log = dir.join("log.csv");
    let model = dir.join("model.json");
    let out = cli()
        .args(["generate", "--profile", "ecomp", "--scale", "0.1", "--seed", "5"])
        .args(["--out", log.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let fit = |extra: &[&str]| {
        cli()
            .args(["fit", "--log", log.to_str().expect("utf8")])
            .args(["--out", model.to_str().expect("utf8"), "--epochs", "1"])
            .args(extra)
            .output()
            .expect("run fit")
    };
    rejected(fit(&["--retriever", "ivf"]), "unknown retriever ivf (exact|hnsw)");
    rejected(fit(&["--store", "f16"]), "unknown store format f16 (f32|i8)");
    assert!(!model.exists(), "a rejected fit writes nothing");
    let out = fit(&[]);
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["serve", "--checkpoint", model.to_str().expect("utf8")])
        .args(["--log", log.to_str().expect("utf8"), "--addr", "127.0.0.1:0"])
        .args(["--shadow-sample-rate", "1", "--shadow-spec", "retriever=ivf"])
        .output()
        .expect("run serve");
    rejected(out, "unknown retriever ivf (exact|hnsw)");
    std::fs::remove_dir_all(&dir).ok();
}
