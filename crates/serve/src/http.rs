//! A deliberately tiny HTTP/1.1 surface: enough to parse `GET` request
//! lines and write close-delimited plain-text responses. The daemon
//! streams job progress, so responses carry `Connection: close` and no
//! `Content-Length` — the body ends when the socket does.
//!
//! Responses go through a [`BufWriter`], so each one leaves in as few
//! `write(2)` calls as its flushes: a complete response in one, a
//! streamed body at the flush points its writer chooses.

use std::io::{self, BufWriter, Read, Write};

/// The longest request head the daemon reads before it gives up on the
/// blank line that ends it.
const MAX_HEAD: usize = 8 << 10;

/// A parsed request line: method is always `GET` (anything else is
/// rejected at read time), `path` is the part before `?`, `query` after.
pub(crate) struct Request {
    pub(crate) path: String,
    pub(crate) query: String,
}

impl Request {
    /// Reads and parses the request head, up to the blank line that ends
    /// it (bounded by the caller's read timeout). Fails closed on a head
    /// the client cut off before its blank line and on one that runs past
    /// [`MAX_HEAD`] without it: either would otherwise be served from a
    /// request line the client may never have finished.
    pub(crate) fn read(stream: &mut impl Read) -> io::Result<Request> {
        let mut buf = Vec::with_capacity(512);
        let mut chunk = [0u8; 512];
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
            if buf.len() > MAX_HEAD {
                return Err(io::Error::other("request head over 8 KiB"));
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::other("request head ended before its blank line"));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
        let head = String::from_utf8_lossy(&buf);
        let line = head
            .lines()
            .next()
            .ok_or_else(|| io::Error::other("empty request"))?;
        let mut parts = line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let target = parts
            .next()
            .ok_or_else(|| io::Error::other("no request target"))?;
        if method != "GET" {
            return Err(io::Error::other(format!("unsupported method {method}")));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        Ok(Request {
            path: path.to_owned(),
            query: query.to_owned(),
        })
    }
}

/// Parsed `k=v&k2=v2` query parameters (no percent-decoding; the job
/// vocabulary is plain identifiers).
pub(crate) struct Query {
    pairs: Vec<(String, String)>,
}

impl Query {
    pub(crate) fn parse(query: &str) -> Query {
        Query {
            pairs: query
                .split('&')
                .filter(|kv| !kv.is_empty())
                .map(|kv| match kv.split_once('=') {
                    Some((k, v)) => (k.to_owned(), v.to_owned()),
                    None => (kv.to_owned(), String::new()),
                })
                .collect(),
        }
    }

    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Buffers a response head; nothing reaches the socket until a flush.
fn head(stream: &mut BufWriter<impl Write>, status: &str, extra: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain\r\nConnection: close\r\n{extra}\r\n"
    );
}

/// Writes a `200 OK` head in one write, so the client learns at once
/// that its job was admitted; the caller streams the body.
pub(crate) fn head_200(stream: &mut BufWriter<impl Write>) {
    head(stream, "200 OK", "");
    let _ = stream.flush();
}

/// Writes a whole response, head and body, in one write (every body the
/// daemon answers with fits the writer's 8 KiB buffer).
fn respond(stream: &mut BufWriter<impl Write>, status: &str, extra: &str, body: &str) {
    head(stream, status, extra);
    let _ = stream.write_all(body.as_bytes());
    let _ = stream.flush();
}

pub(crate) fn respond_200(stream: &mut BufWriter<impl Write>, body: &str) {
    respond(stream, "200 OK", "", body);
}

pub(crate) fn respond_400(stream: &mut BufWriter<impl Write>, body: &str) {
    respond(stream, "400 Bad Request", "", body);
}

pub(crate) fn respond_404(stream: &mut BufWriter<impl Write>, body: &str) {
    respond(stream, "404 Not Found", "", body);
}

/// `503` with an optional `Retry-After` — the admission-control and
/// draining answer.
pub(crate) fn respond_503(
    stream: &mut BufWriter<impl Write>,
    body: &str,
    retry_after: Option<u64>,
) {
    let extra = match retry_after {
        Some(secs) => format!("Retry-After: {secs}\r\n"),
        None => String::new(),
    };
    respond(stream, "503 Service Unavailable", &extra, body);
}
