//! A deliberately minimal HTTP/1.1 subset — just enough for `curl`, load
//! generators, and health probes to talk to the daemon without pulling a
//! web framework into a std-only workspace.
//!
//! Supported: persistent connections with request pipelining (HTTP/1.1
//! keep-alive semantics), `Connection: close` / `keep-alive` headers,
//! HTTP/1.0 requests (which default to close), `Content-Length` bodies,
//! CRLF or bare-LF line endings. Not supported (and not needed): any
//! transfer coding (chunked included), TLS.
//!
//! # Framing (RFC 9112 §6.1, §6.3)
//!
//! A body is framed by `Content-Length` alone. A request that carries
//! `Transfer-Encoding` is refused before its body is read, because
//! reading it by any other rule would desynchronize the connection: with
//! `Content-Length` too it is [`HttpError::Malformed`] (a `400`, the
//! request-smuggling shape), without it [`HttpError::NotImplemented`] (a
//! `501`). Either way the connection closes. The head is capped at 64 KiB
//! by the offset of its terminating blank line, so where the socket
//! happens to split the bytes never changes the outcome.
//!
//! # Keep-alive and pipelining contract
//!
//! [`RequestReader`] owns the connection's read buffer across requests:
//! bytes read past one request's `Content-Length` are retained as the
//! next request's prefix, so a client may pipeline — write several
//! requests back-to-back before reading any response — and receives the
//! responses in request order. The connection stays open until the client
//! sends `Connection: close` (or an HTTP/1.0 request without
//! `Connection: keep-alive`), closes its write side at a request
//! boundary, or goes idle past the server's read timeout. A parse error
//! always closes the connection: after a malformed request the framing is
//! untrustworthy, so the server answers 4xx with `Connection: close` and
//! drops any pipelined bytes.

use std::io::{self, Read, Write};

/// Largest accepted request body (64 MiB) — a million-tuple batch fits
/// comfortably; anything bigger should be split by the client.
pub const MAX_BODY_BYTES: u64 = 64 * 1024 * 1024;

/// Largest accepted header block (64 KiB).
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request path (`/impute`), query string included if any.
    pub path: String,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to `true`, HTTP/1.0 to `false`, and a
    /// `Connection: close` / `keep-alive` header overrides either way.
    pub keep_alive: bool,
}

/// Why a request could not be parsed; maps to a 4xx or 501 response.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line or headers.
    Malformed(&'static str),
    /// Well-formed framing this server does not implement (a transfer
    /// coding); maps to `501`.
    NotImplemented(&'static str),
    /// Body larger than [`MAX_BODY_BYTES`].
    TooLarge,
    /// Socket-level failure.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::NotImplemented(what) => write!(f, "not implemented: {what}"),
            HttpError::TooLarge => write!(f, "request body too large"),
            HttpError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

/// Offset just past the first blank line (CRLF or bare LF), if present,
/// given that `buf[..scanned]` holds none: only the tail a terminator
/// could still end in is scanned, so a head trickled in a byte at a time
/// costs linear, not quadratic, work.
fn head_end(buf: &[u8], scanned: usize) -> Option<usize> {
    let crlf = scanned.saturating_sub(3);
    let lf = scanned.saturating_sub(1);
    buf[crlf..]
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| crlf + p + 4)
        .into_iter()
        .chain(
            buf[lf..]
                .windows(2)
                .position(|w| w == b"\n\n")
                .map(|p| lf + p + 2),
        )
        .min()
}

/// A timeout-ish read error: the peer is still connected but sent nothing
/// within the socket's read timeout (both kinds occur depending on
/// platform).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reads a stream of requests off one connection, carrying over-read
/// bytes from one request to the next (see the module docs for the
/// keep-alive / pipelining contract).
#[derive(Default)]
pub struct RequestReader {
    /// Bytes already read off the socket but not yet consumed by a
    /// request — the head-in-progress plus, after a pipelined request,
    /// the next request's prefix.
    buf: Vec<u8>,
}

impl RequestReader {
    /// A reader with an empty carry-over buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the next request. `Ok(None)` means the client finished
    /// cleanly: EOF (or an idle read timeout) at a request boundary.
    /// EOF mid-request is `Malformed`.
    pub fn read_request<S: Read>(&mut self, stream: &mut S) -> Result<Option<Request>, HttpError> {
        // Chunked reads into one buffer (not a syscall per byte — this is
        // the per-request hot path). Bytes past the blank line already
        // read here are the body's prefix; bytes past the body are the
        // next pipelined request's prefix and are kept for the next call.
        let mut chunk = [0u8; 4096];
        let mut scanned = 0;
        let head_len = loop {
            if let Some(end) = head_end(&self.buf, scanned) {
                break end;
            }
            scanned = self.buf.len();
            // No terminator yet, so the head ends past the buffer.
            if self.buf.len() >= MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("header block too large"));
            }
            match stream.read(&mut chunk) {
                Ok(0) if self.buf.is_empty() => return Ok(None),
                Ok(0) => return Err(HttpError::Malformed("connection closed mid-request")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) && self.buf.is_empty() => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        };
        if head_len > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("header block too large"));
        }
        let head = std::str::from_utf8(&self.buf[..head_len])
            .map_err(|_| HttpError::Malformed("non-UTF-8 head"))?;
        let mut lines = head.lines();
        let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
        let mut parts = request_line.split_whitespace();
        let method = parts
            .next()
            .ok_or(HttpError::Malformed("missing method"))?
            .to_string();
        let path = parts
            .next()
            .ok_or(HttpError::Malformed("missing path"))?
            .to_string();
        // HTTP/1.1 defaults to keep-alive, HTTP/1.0 (and anything older)
        // to close; a Connection header below overrides the default.
        let mut keep_alive = !parts
            .next()
            .is_some_and(|v| v.eq_ignore_ascii_case("HTTP/1.0"));

        let mut content_length: Option<u64> = None;
        let mut transfer_encoding = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    let parsed = value
                        .trim()
                        .parse()
                        .map_err(|_| HttpError::Malformed("bad content-length"))?;
                    // Repeated Content-Length headers are a
                    // request-smuggling staple (RFC 9112 §6.3): reject the
                    // request outright rather than silently picking one —
                    // even when the copies agree.
                    if content_length.is_some() {
                        return Err(HttpError::Malformed("duplicate content-length"));
                    }
                    content_length = Some(parsed);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    transfer_encoding = true;
                } else if name.eq_ignore_ascii_case("connection") {
                    for token in value.split(',') {
                        let token = token.trim();
                        if token.eq_ignore_ascii_case("close") {
                            keep_alive = false;
                        } else if token.eq_ignore_ascii_case("keep-alive") {
                            keep_alive = true;
                        }
                    }
                }
            }
        }
        if transfer_encoding {
            return Err(if content_length.is_some() {
                HttpError::Malformed("transfer-encoding with content-length")
            } else {
                HttpError::NotImplemented("transfer-encoding")
            });
        }
        let content_length = content_length.unwrap_or(0);
        if content_length > MAX_BODY_BYTES {
            return Err(HttpError::TooLarge);
        }
        let content_length = content_length as usize;
        // Body prefix already read alongside the head, then exactly the
        // rest; anything past the body stays buffered for the next call.
        let mut body = self.buf.split_off(head_len);
        self.buf.clear();
        if body.len() > content_length {
            self.buf = body.split_off(content_length);
        } else {
            let already = body.len();
            body.resize(content_length, 0);
            stream.read_exact(&mut body[already..])?;
        }
        Ok(Some(Request {
            method,
            path,
            body,
            keep_alive,
        }))
    }
}

/// Reads exactly one request from `stream` (tests and one-shot tools; the
/// daemon uses [`RequestReader`] to keep connections alive).
pub fn read_request<S: Read>(stream: &mut S) -> Result<Request, HttpError> {
    RequestReader::new()
        .read_request(stream)?
        .ok_or(HttpError::Malformed("connection closed before request"))
}

/// Appends a complete response (status line, minimal headers, body) to
/// `out` without any I/O — the daemon assembles each response in a
/// reusable buffer and ships it with one `write_all`, keeping the
/// keep-alive hot path at one syscall per response.
pub fn write_response(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    keep_alive: bool,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let _ = write!(
        out,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /impute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/impute");
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn parses_bare_lf_get() {
        let raw = b"GET /healthz HTTP/1.1\nHost: x\n\n";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_header_overrides_the_version_default() {
        let close = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n";
        assert!(!read_request(&mut &close[..]).unwrap().keep_alive);
        let ka10 = b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n";
        assert!(read_request(&mut &ka10[..]).unwrap().keep_alive);
        let plain10 = b"GET / HTTP/1.0\r\nHost: x\r\n\r\n";
        assert!(
            !read_request(&mut &plain10[..]).unwrap().keep_alive,
            "HTTP/1.0 defaults to close"
        );
        // Token list form, mixed case.
        let listed = b"GET / HTTP/1.1\r\nConnection: TE, Close\r\n\r\n";
        assert!(!read_request(&mut &listed[..]).unwrap().keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_in_order_from_one_buffer() {
        // Two requests written back-to-back: the reader must hand the
        // over-read bytes of the first to the second, then report a clean
        // end-of-stream.
        let raw =
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut stream = &raw[..];
        let mut reader = RequestReader::new();
        let first = reader.read_request(&mut stream).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(first.body, b"abc");
        let second = reader.read_request(&mut stream).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert!(second.body.is_empty());
        assert!(reader.read_request(&mut stream).unwrap().is_none());
    }

    #[test]
    fn clean_eof_at_boundary_is_none_but_mid_request_is_malformed() {
        let mut empty: &[u8] = b"";
        assert!(RequestReader::new()
            .read_request(&mut empty)
            .unwrap()
            .is_none());
        let mut partial: &[u8] = b"GET / HT";
        assert!(matches!(
            RequestReader::new().read_request(&mut partial),
            Err(HttpError::Malformed("connection closed mid-request"))
        ));
    }

    #[test]
    fn large_body_spans_multiple_read_chunks() {
        // Head + body prefix arrive in the first 4 KiB chunk; the rest of
        // the body comes from the length-delimited read_exact tail.
        let body: String = "x".repeat(10_000);
        let raw = format!(
            "POST /impute HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let req = read_request(&mut raw.as_bytes()).unwrap();
        assert_eq!(req.body.len(), body.len());
        assert_eq!(req.body, body.as_bytes());
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        // Two disagreeing lengths: the classic smuggling shape. Before the
        // fix the last header silently won; now the request is malformed.
        let raw = b"POST /impute HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello";
        assert!(matches!(
            read_request(&mut &raw[..]),
            Err(HttpError::Malformed("duplicate content-length"))
        ));
    }

    #[test]
    fn rejects_duplicate_content_lengths_even_when_equal() {
        let raw = b"POST /impute HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello";
        assert!(matches!(
            read_request(&mut &raw[..]),
            Err(HttpError::Malformed("duplicate content-length"))
        ));
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let raw = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            read_request(&mut raw.as_bytes()),
            Err(HttpError::TooLarge)
        ));
    }

    #[test]
    fn transfer_encoding_is_refused_before_any_body_is_read() {
        // Chunked alone: a coding this server does not implement (501).
        let chunked =
            b"POST /impute HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(
            read_request(&mut &chunked[..]),
            Err(HttpError::NotImplemented("transfer-encoding"))
        ));
        // With Content-Length too, in either order: the smuggling shape.
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\nhello"[..],
            &b"POST / HTTP/1.1\r\ntransfer-encoding: identity\r\ncontent-length: 5\r\n\r\nhello"[..],
        ] {
            assert!(matches!(
                read_request(&mut &raw[..]),
                Err(HttpError::Malformed(
                    "transfer-encoding with content-length"
                ))
            ));
        }
    }

    /// A reader that hands out at most `step` bytes per `read` call.
    struct Trickle<'a> {
        data: &'a [u8],
        steps: &'a [usize],
        calls: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let step = self.steps[self.calls % self.steps.len()];
            self.calls += 1;
            let n = step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// Every request (or the error) a fresh reader parses off `stream`.
    fn outcomes<S: Read>(mut stream: S) -> Vec<String> {
        let mut reader = RequestReader::new();
        let mut out = Vec::new();
        loop {
            match reader.read_request(&mut stream) {
                Ok(Some(r)) => out.push(format!(
                    "{} {} {:?} {}",
                    r.method, r.path, r.body, r.keep_alive
                )),
                Ok(None) => return out,
                Err(e) => {
                    out.push(format!("error: {e}"));
                    return out;
                }
            }
        }
    }

    /// `GET /` whose head is exactly `len` bytes long.
    fn head_of_len(len: usize) -> Vec<u8> {
        let mut raw = b"GET / HTTP/1.1\r\nX: ".to_vec();
        assert!(len >= raw.len() + 4);
        raw.resize(len - 4, b'a');
        raw.extend_from_slice(b"\r\n\r\n");
        raw
    }

    #[test]
    fn the_head_cap_holds_at_any_read_size() {
        for len in [MAX_HEAD_BYTES, MAX_HEAD_BYTES + 1, 65_583] {
            let raw = head_of_len(len);
            let expected = if len <= MAX_HEAD_BYTES {
                "GET / [] true"
            } else {
                "error: malformed request: header block too large"
            };
            for step in [1, 4000, 4096, 70_000] {
                let got = outcomes(Trickle {
                    data: &raw,
                    steps: &[step],
                    calls: 0,
                });
                assert_eq!(got, [expected], "head of {len} bytes, {step}-byte reads");
            }
        }
    }

    /// One generated piece of a request stream.
    fn piece(kind: u8, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let body_len = (next() % 40) as usize;
        let body: String = (0..body_len)
            .map(|i| (b'a' + (i % 26) as u8) as char)
            .collect();
        match kind {
            0 => b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
            1 => format!("POST /impute HTTP/1.1\r\nContent-Length: {body_len}\r\n\r\n{body}")
                .into_bytes(),
            2 => format!(
                "POST /impute HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n{body_len:x}\r\n{body}\r\n0\r\n\r\n"
            )
            .into_bytes(),
            3 => format!(
                "POST /learn HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: {body_len}\r\n\r\n{body}"
            )
            .into_bytes(),
            4 => head_of_len(MAX_HEAD_BYTES - 2 + (next() % 5) as usize),
            5 => b"GET / HTTP/1.0\nConnection: keep-alive\n\n".to_vec(),
            _ => {
                // Random bytes from an alphabet rich in framing tokens.
                let alphabet = b"GET /\r\n:Content-Length: 0123456789Transfer-Encoding\xff";
                (0..next() % 120)
                    .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                    .collect()
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Framing must not depend on where the socket splits the bytes:
        /// any read sizes parse to the requests and error of reading the
        /// stream in one piece, and nothing panics.
        #[test]
        fn framing_is_independent_of_read_sizes(
            pieces in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 1..6),
            steps in proptest::collection::vec(1usize..6000, 1..8),
        ) {
            let stream: Vec<u8> = pieces.iter().flat_map(|&(k, s)| piece(k, s)).collect();
            let whole = outcomes(&stream[..]);
            let split = outcomes(Trickle { data: &stream, steps: &steps, calls: 0 });
            proptest::prop_assert_eq!(&split, &whole, "read sizes {:?}", steps);
        }
    }

    #[test]
    fn response_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "text/plain", false, &[], b"ok\n");
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "text/plain", true, &[], b"ok\n");
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }
}
