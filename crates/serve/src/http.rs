//! A minimal HTTP/1.1 server-side implementation over `std` sockets.
//!
//! Supports exactly what the serving API needs: one request per
//! connection (`Connection: close`), request line + headers +
//! `Content-Length`-delimited body, and a plain response writer. Bounded
//! everywhere — header block and body sizes are capped, and the caller
//! reads through a [`DeadlineReader`] that bounds the whole request, not
//! each read — so a slow or malicious client can never pin a connection
//! thread.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Maximum accepted size of the request line plus all headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Request path, e.g. `/recommend` (query strings are not split off).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid request → respond 400.
    Malformed(&'static str),
    /// Declared body over [`MAX_BODY_BYTES`] → respond 413.
    TooLarge,
    /// Socket timeout or disconnect → no response possible / worthwhile.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// A socket read side that gives up at `deadline` however the bytes are
/// paced: each read is armed with the time still left, so a client that
/// dribbles one byte per almost-timeout is cut off with the rest.
pub struct DeadlineReader<'a> {
    /// The socket read from.
    pub stream: &'a TcpStream,
    /// From here on every read fails `TimedOut`.
    pub deadline: Instant,
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads one request from the stream. A socket should come wrapped in a
/// [`DeadlineReader`]; timeouts surface as [`HttpError::Io`].
pub fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let request_line = read_line(&mut reader, MAX_HEAD_BYTES)?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty()
        || path.is_empty()
        || parts.next().is_some()
        || !version.starts_with("HTTP/1.")
    {
        return Err(HttpError::Malformed("bad request line"));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::Malformed("bad method"));
    }

    let mut content_length: usize = 0;
    let mut head_budget = MAX_HEAD_BYTES.saturating_sub(request_line.len());
    loop {
        let line = read_line(&mut reader, head_budget)?;
        head_budget = head_budget.saturating_sub(line.len() + 2);
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("bad header"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length"))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one CRLF-terminated line (without the terminator), rejecting
/// anything longer than `limit`.
fn read_line(reader: &mut impl BufRead, limit: usize) -> Result<String, HttpError> {
    let mut raw = Vec::with_capacity(128);
    loop {
        if raw.len() > limit {
            return Err(HttpError::Malformed("line too long"));
        }
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Err(HttpError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            )));
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                raw.extend_from_slice(&buf[..nl]);
                reader.consume(nl + 1);
                break;
            }
            None => {
                let len = buf.len();
                raw.extend_from_slice(buf);
                reader.consume(len);
            }
        }
    }
    if raw.last() == Some(&b'\r') {
        raw.pop();
    }
    if raw.len() > limit {
        return Err(HttpError::Malformed("line too long"));
    }
    String::from_utf8(raw).map_err(|_| HttpError::Malformed("non-UTF-8 header"))
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. Every response closes the
/// connection: one request per connection gives the read deadline and
/// the shutdown drain exactly one thing each to wait for.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write_response_with(stream, status, content_type, &[], body)
}

/// [`write_response`] with extra headers — the server uses this to attach
/// `Retry-After` to load-shedding responses. Header names and values must
/// already be valid HTTP token/field text; this writer does no escaping.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (name, value) in extra_headers {
        write!(head, "{name}: {value}\r\n").expect("write to String");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_post_with_body() {
        let r = parse(b"POST /recommend HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n{\"k\": 3}")
            .expect("parse");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/recommend");
        assert_eq!(r.body, b"{\"k\": 3}");
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse(b"GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let r = parse(b"POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\n\r\nok").expect("parse");
        assert_eq!(r.body, b"ok");
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            &b"NOT-HTTP\r\n\r\n"[..],
            b"GET /x SPDY/9\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            b"POST /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(HttpError::Malformed(_))),
                "{:?}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let req = format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(req.as_bytes()), Err(HttpError::TooLarge)));
    }

    #[test]
    fn truncated_body_is_io_error() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn response_with_extra_headers() {
        let mut out = Vec::new();
        write_response_with(
            &mut out,
            429,
            "application/json",
            &[("Retry-After", "1")],
            b"{}",
        )
        .expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn response_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}").expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }
}
