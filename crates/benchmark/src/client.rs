//! The load generator: `C = min(2, nproc)` threads in this process, one
//! connection per request (the server closes after every response), so
//! never more than `C` connections are open.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::inputs::Request;
use crate::spec::Offer;
use crate::trace::Recorder;

/// Client threads (and therefore open connections) for this machine.
pub fn client_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// One answered (or failed) HTTP exchange.
pub struct Reply {
    /// Status code; 0 for a transport error.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Time spent in `connect`.
    pub connect_us: f64,
}

/// Sends `wire` over a fresh connection and reads to EOF.
pub fn call(addr: &str, wire: &[u8]) -> Reply {
    let failed = |connect_us| Reply {
        status: 0,
        body: Vec::new(),
        connect_us,
    };
    let t0 = Instant::now();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return failed(0.0);
    };
    let connect_us = t0.elapsed().as_secs_f64() * 1e6;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut response = Vec::with_capacity(1024);
    if stream.write_all(wire).is_err() || stream.read_to_end(&mut response).is_err() {
        return failed(connect_us);
    }
    let Some(split) = response.windows(4).position(|w| w == b"\r\n\r\n") else {
        return failed(connect_us);
    };
    let status = std::str::from_utf8(&response[..split])
        .ok()
        .and_then(|head| head.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    Reply {
        status,
        body: response.split_off(split + 4),
        connect_us,
    }
}

/// A bodiless `GET`.
pub fn get(addr: &str, path: &str) -> Reply {
    call(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes(),
    )
}

/// One request as the client saw it.
pub struct Sample {
    /// Index into the request list.
    pub request: usize,
    /// When it was due (paced) or sent (closed), seconds into the phase.
    pub at_s: f64,
    /// Latency: from the due time when paced, from the send otherwise.
    pub latency_us: f64,
    /// How long after its due time the request was sent (0 when closed).
    pub lateness_us: f64,
    /// Time spent connecting.
    pub connect_us: f64,
    /// Status code; 0 for a transport error.
    pub status: u16,
    /// The body, kept for every `keep_every`-th request.
    pub body: Option<Vec<u8>>,
}

/// Offers `requests` (cycled) to `addr` for `duration_s` and returns every
/// sample in send order per thread. With `rec` on, each request is a root
/// span on the client clock.
pub fn drive(
    addr: &str,
    requests: &[Request],
    offer: Offer,
    schedule: &[f64],
    duration_s: f64,
    keep_every: usize,
    rec: &Recorder,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..client_threads())
            .map(|_| {
                scope.spawn(|| {
                    let mut samples = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match offer {
                            Offer::Paced { .. } => match schedule.get(i) {
                                Some(&due_s) => {
                                    let due = started + Duration::from_secs_f64(due_s);
                                    let now = Instant::now();
                                    if due > now {
                                        std::thread::sleep(due - now);
                                    }
                                    Some(due)
                                }
                                None => break,
                            },
                            Offer::Closed => {
                                if started.elapsed().as_secs_f64() >= duration_s {
                                    break;
                                }
                                None
                            }
                        };
                        let request = i % requests.len();
                        let sent = Instant::now();
                        let reply = call(addr, &requests[request].wire);
                        let done = Instant::now();
                        let from = due.unwrap_or(sent);
                        let name = if requests[request].is_recommend() {
                            "http.recommend"
                        } else {
                            "http.target"
                        };
                        rec.record(name, i as u64, None, from, done);
                        samples.push(Sample {
                            request,
                            at_s: from.duration_since(started).as_secs_f64(),
                            latency_us: done.duration_since(from).as_secs_f64() * 1e6,
                            lateness_us: sent.duration_since(from).as_secs_f64() * 1e6,
                            connect_us: reply.connect_us,
                            status: reply.status,
                            body: i.is_multiple_of(keep_every).then_some(reply.body),
                        });
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}
