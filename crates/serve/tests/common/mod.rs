//! Support shared by the serving integration suites: the raw HTTP/1.1
//! client, the `/metrics` readers, pid-scoped temp dirs, and the lock
//! that serializes tests arming the process-wide fault plan.

#![allow(dead_code)] // each suite uses its own subset

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// A fresh `unimatch_serve_<name>_<pid>` directory under the system
/// temp dir; the pid keeps concurrent runs of one suite apart.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unimatch_serve_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Serializes the tests of one binary: an armed fault plan is process
/// state, and a plan one test arms must not bleed into another's server.
pub fn fault_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One HTTP/1.1 request over a fresh connection; `(status, head, body)`.
/// The server closes every connection after one response, so reading to
/// EOF is the framing.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> (u16, String, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send head");
    stream.write_all(body).expect("send body");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    parse_response(&response)
}

/// Splits a raw response into `(status, head, body)`.
pub fn parse_response(response: &[u8]) -> (u16, String, Vec<u8>) {
    let head_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body separator");
    let head = std::str::from_utf8(&response[..head_end]).expect("utf8 head").to_string();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code in status line");
    (status, head, response[head_end + 4..].to_vec())
}

/// The `/metrics` body of a `200` scrape.
pub fn scrape(addr: &str) -> String {
    let (status, _, body) = request(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    String::from_utf8(body).expect("utf8 metrics")
}

/// Reads the value of a single-sample metric line (`name value` or
/// `name{labels} value`).
pub fn metric_value(metrics: &str, prefix: &str) -> f64 {
    metrics
        .lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {prefix} missing from:\n{metrics}"))
}
