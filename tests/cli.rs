//! End-to-end test of the `unimatch-cli` binary: generate → fit →
//! recommend → target → evaluate over a temp directory.

use std::path::PathBuf;
use std::process::Command;

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
    // the offline gate builds the deployment `serve` would, so it refuses
    // the same chain instead of silently evaluating it unfiltered
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
    let fit = |model: &std::path::Path, run_dir: Option<&std::path::Path>| {
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

/// Sends one HTTP/1.1 request over a fresh connection and returns the raw
/// response (the server always closes the connection after answering).
fn http_request(addr: &str, method: &str, path: &str, body: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
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

#[test]
fn serve_subcommand_answers_requests() {
    use std::io::BufRead;

    let dir = tmp_dir("serve");
    let log = dir.join("log.csv");
    let model = dir.join("model.json");

    let out = cli()
        .args(["generate", "--profile", "ecomp", "--scale", "0.15", "--seed", "21"])
        .args(["--out", log.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli()
        .args(["fit", "--log", log.to_str().expect("utf8")])
        .args(["--out", model.to_str().expect("utf8"), "--epochs", "1"])
        .output()
        .expect("run fit");
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));

    // Port 0: the kernel picks a free port, the CLI prints the real one.
    let mut child = cli()
        .args(["serve", "--checkpoint", model.to_str().expect("utf8")])
        .args(["--log", log.to_str().expect("utf8"), "--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let stdout = child.stdout.take().expect("child stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines.next().expect("serve exited before listening").expect("read stdout");
        if let Some(rest) = line.split("http://").nth(1) {
            break rest.split_whitespace().next().expect("addr token").to_string();
        }
    };

    let health = http_request(&addr, "GET", "/healthz", "");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    let rec = http_request(&addr, "POST", "/recommend", r#"{"history":[0,1,2],"k":3}"#);
    assert!(rec.starts_with("HTTP/1.1 200"), "{rec}");
    assert!(rec.contains("\"items\":["), "{rec}");

    let metrics = http_request(&addr, "GET", "/metrics", "");
    assert!(metrics.contains("unimatch_requests_total"), "{metrics}");

    child.kill().expect("kill serve");
    child.wait().expect("reap serve");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every `unimatch-cli <command> --flag …` line in `ci.sh`, the README and
/// the operations guide names only flags the command accepts. Flags are
/// checked in order before anything runs, so each documented line is
/// replayed with a sentinel appended: the sentinel must be the flag the
/// refusal names. Values are replaced by a loopback address, so a replay
/// that got past the check could reach nothing else.
#[test]
fn documented_command_lines_name_only_accepted_flags() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let commands = ["generate", "fit", "recommend", "target", "evaluate", "serve", "loadgen"];
    let mut replayed = 0;
    for file in ["ci.sh", "README.md", "docs/OPERATIONS.md"] {
        let text = std::fs::read_to_string(root.join(file)).expect("read doc");
        for line in text.replace("\\\n", " ").lines() {
            let Some((_, invocation)) = line.split_once("unimatch-cli ") else { continue };
            let invocation = invocation.split(" #").next().expect("split yields one");
            let mut tokens = invocation.split_whitespace();
            let Some(command) = tokens.next().filter(|c| commands.contains(c)) else { continue };
            let mut args = vec![command];
            for flag in tokens.filter(|t| t.starts_with("--")) {
                let flag = flag.trim_end_matches(['`', ')', ',', '.']);
                args.push(flag);
                if !["--smoke", "--rerank-mix"].contains(&flag) {
                    args.push("127.0.0.1:1");
                }
            }
            let out = cli().args(&args).args(["--zz", "127.0.0.1:1"]).output().expect("run");
            assert_eq!(out.status.code(), Some(2), "{file}: {line}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let refused = format!("unknown flag --zz for {command}");
            assert!(stderr.contains(&refused), "{file}: {line}\n{stderr}");
            replayed += 1;
        }
    }
    assert!(replayed >= 20, "only {replayed} command lines found: the extraction broke");
}

#[test]
fn cli_rejects_bad_input() {
    let out = cli().args(["bogus"]).output().expect("run");
    assert!(!out.status.success());
    // the legacy perf tooling is gone, not hidden
    let out = cli().args(["bench", "snapshot"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let out = cli().args(["bench"]).output().expect("run");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command bench"));

    // a flag the command does not accept is named and refused before
    // anything runs: a typo, another command's flag
    // (`--mmap` and `--shard-deadline-ms` are retired, not hidden)
    for (command, flag) in [
        ("serve", "--shard"),
        ("serve", "--cache"),
        ("serve", "--mmap"),
        ("serve", "--shard-deadline-ms"),
        ("generate", "--log"),
        ("loadgen", "--batch-max"),
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
