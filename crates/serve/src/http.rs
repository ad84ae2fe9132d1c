//! A minimal first-party HTTP/1.1 layer.
//!
//! Just enough protocol for the serving API: request-line + headers +
//! `Content-Length` bodies, keep-alive by default, `Connection: close`
//! honoured. No chunked encoding, no pipelining (a client must await each
//! response before sending the next request on the connection), no TLS.
//!
//! Reading goes through the caller's `BufReader` so bytes past the current
//! request head stay buffered for the body read and the next keep-alive
//! request. The client half ([`write_request`] / [`read_response`]) frames
//! responses the same way, which is what lets the router carry many shard
//! exchanges over one pooled keep-alive connection. Socket read timeouts
//! surface as typed errors: quiet *between* requests is a clean
//! [`ServeError::IdleClose`], quiet *mid-request* (the slow-loris shape) is
//! [`ServeError::RequestTimeout`].

use crate::error::ServeError;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Head/body size ceilings enforced while parsing.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Largest request head (request line + headers + blank line) in bytes.
    pub max_head_bytes: usize,
    /// Largest request body in bytes.
    pub max_body_bytes: usize,
}

/// A parsed HTTP/1.1 request.
#[derive(Debug)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target, without the query string.
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Headers as `(lowercased_name, trimmed_value)`, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// First value of query parameter `name` (exact match, no decoding).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == name).then_some(v)
        })
    }

    /// `true` when the client asked for `Connection: close`.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Classifies a transport error by *when* it happened: quiet before any
/// byte of the request is an idle keep-alive close; quiet after is the
/// slow-loris timeout.
fn classify_io(e: io::Error, started: bool) -> ServeError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
            if started {
                ServeError::RequestTimeout
            } else {
                ServeError::IdleClose
            }
        }
        _ => ServeError::Io(e),
    }
}

/// Reads one request from `r`, enforcing `limits`.
///
/// # Errors
/// * [`ServeError::IdleClose`] — EOF or timeout before the first byte,
/// * [`ServeError::RequestTimeout`] — timeout after at least one byte,
/// * [`ServeError::HeadersTooLarge`] / [`ServeError::PayloadTooLarge`] —
///   a ceiling was hit,
/// * [`ServeError::BadRequest`] — malformed request line or headers,
/// * [`ServeError::Io`] — the peer vanished mid-request or the transport
///   failed.
pub fn read_request<R: Read>(
    r: &mut BufReader<R>,
    limits: &Limits,
) -> Result<Request, ServeError> {
    let head = read_head(r, limits)?;
    let (method, path, query, headers) = parse_head(&head)?;

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ServeError::BadRequest(format!("bad Content-Length {v:?}")))?,
        None => 0,
    };
    if content_length > limits.max_body_bytes {
        return Err(ServeError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        r.read_exact(&mut body).map_err(|e| classify_io(e, true))?;
    }
    Ok(Request { method, path, query, headers, body })
}

/// Accumulates bytes up to and including the `\r\n\r\n` head terminator,
/// leaving everything after it buffered in `r`.
fn read_head<R: Read>(r: &mut BufReader<R>, limits: &Limits) -> Result<Vec<u8>, ServeError> {
    let mut head: Vec<u8> = Vec::new();
    loop {
        let buf = match r.fill_buf() {
            Ok(b) => b,
            Err(e) => return Err(classify_io(e, !head.is_empty())),
        };
        if buf.is_empty() {
            // EOF: clean between requests, a vanished peer mid-head.
            return if head.is_empty() {
                Err(ServeError::IdleClose)
            } else {
                Err(ServeError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-request",
                )))
            };
        }
        let mut used = 0;
        let mut done = false;
        for &b in buf {
            head.push(b);
            used += 1;
            if head.ends_with(b"\r\n\r\n") {
                done = true;
                break;
            }
            if head.len() > limits.max_head_bytes {
                return Err(ServeError::HeadersTooLarge);
            }
        }
        r.consume(used);
        if done {
            return Ok(head);
        }
    }
}

type Head = (String, String, String, Vec<(String, String)>);

/// Splits a raw head into `(method, path, query, headers)`.
fn parse_head(head: &[u8]) -> Result<Head, ServeError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| ServeError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ServeError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ServeError::BadRequest(format!("unsupported version {version:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the blank line terminating the head
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), path, query, headers))
}

/// Writes a complete response: status line, `Content-Type`,
/// `Content-Length`, `Connection`, body.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // Head and body go out in ONE write: a small trailing segment after the
    // head would otherwise stall on Nagle + delayed-ACK (~40ms) per response.
    let mut wire = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// Writes the mapped error response for `err`, when it has one; a
/// closing-only error ([`ServeError::status`] = `None`) writes nothing.
/// Returns whether the connection may stay open afterwards (it never may).
pub fn write_error(w: &mut impl Write, err: &ServeError) -> io::Result<()> {
    if let Some((status, reason)) = err.status() {
        let body = format!("{err}\n");
        write_response(w, status, reason, "text/plain", body.as_bytes(), false)?;
    }
    Ok(())
}

/// A parsed HTTP/1.1 response, the client half of the protocol (used by
/// the router's shard attempts, the fault proxy, the load generator, the
/// serving benchmark and the integration tests).
#[derive(Debug)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Headers as `(lowercased_name, trimmed_value)`, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Response body (`Content-Length` bytes).
    pub body: Vec<u8>,
}

impl Response {
    /// First header value for `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// Writes one keep-alive client request with a `Content-Length` body (the
/// router sends every shard attempt this way, over pooled connections).
pub fn write_request(
    w: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<()> {
    // Single write for the same Nagle/delayed-ACK reason as `write_response`.
    let mut wire =
        format!("{method} {target} HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len())
            .into_bytes();
    wire.extend_from_slice(body);
    w.write_all(&wire)?;
    w.flush()
}

/// Reads one response from `r` (same head-size limits as requests, via
/// `limits`).
///
/// # Errors
/// The same taxonomy as [`read_request`]; a malformed status line is a
/// [`ServeError::BadRequest`].
pub fn read_response<R: Read>(
    r: &mut BufReader<R>,
    limits: &Limits,
) -> Result<Response, ServeError> {
    let head = read_head(r, limits)?;
    let text = std::str::from_utf8(&head)
        .map_err(|_| ServeError::BadRequest("response head is not UTF-8".into()))?;
    let mut lines = text.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ServeError::BadRequest(format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::BadRequest(format!("malformed header {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ServeError::PayloadTooLarge);
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        r.read_exact(&mut body).map_err(|e| classify_io(e, true))?;
    }
    Ok(Response { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const LIMITS: Limits = Limits { max_head_bytes: 1024, max_body_bytes: 64 };

    fn parse(bytes: &[u8]) -> Result<Request, ServeError> {
        read_request(&mut BufReader::new(Cursor::new(bytes.to_vec())), &LIMITS)
    }

    #[test]
    fn parses_post_with_body_query_and_headers() {
        let req = parse(
            b"POST /v1/search/im2rec?k=5 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/search/im2rec");
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"abcd");
        assert!(!req.wants_close());
    }

    #[test]
    fn keep_alive_reads_two_requests_from_one_stream() {
        let mut r = BufReader::new(Cursor::new(
            b"GET /healthz HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_vec(),
        ));
        let first = read_request(&mut r, &LIMITS).unwrap();
        assert!(!first.wants_close());
        let second = read_request(&mut r, &LIMITS).unwrap();
        assert!(second.wants_close());
        assert!(matches!(read_request(&mut r, &LIMITS), Err(ServeError::IdleClose)));
    }

    #[test]
    fn eof_before_any_byte_is_idle_close() {
        assert!(matches!(parse(b""), Err(ServeError::IdleClose)));
    }

    #[test]
    fn eof_mid_head_and_mid_body_are_transport_errors() {
        assert!(matches!(parse(b"POST /x HTTP/1.1\r\nConte"), Err(ServeError::Io(_))));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(ServeError::Io(_))
        ));
    }

    #[test]
    fn oversized_head_and_body_hit_their_ceilings() {
        let mut big_head = b"GET /x HTTP/1.1\r\nPad: ".to_vec();
        big_head.extend(std::iter::repeat_n(b'a', 2000));
        big_head.extend_from_slice(b"\r\n\r\n");
        assert!(matches!(parse(&big_head), Err(ServeError::HeadersTooLarge)));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 100000\r\n\r\n"),
            Err(ServeError::PayloadTooLarge)
        ));
    }

    #[test]
    fn malformed_request_lines_and_headers_are_bad_requests() {
        for bytes in [
            &b"NOT-HTTP\r\n\r\n"[..],
            &b"GET /x HTTP/9.9\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: tiny\r\n\r\n"[..],
        ] {
            assert!(
                matches!(parse(bytes), Err(ServeError::BadRequest(_))),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    /// A reader whose timeouts surface as `WouldBlock`, like a `TcpStream`
    /// with a read timeout.
    struct TimeoutAfter {
        data: Vec<u8>,
        pos: usize,
    }

    impl Read for TimeoutAfter {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos >= self.data.len() {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timed out"));
            }
            let n = buf.len().min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn timeout_before_any_byte_is_idle_after_some_bytes_is_request_timeout() {
        let mut idle = BufReader::new(TimeoutAfter { data: Vec::new(), pos: 0 });
        assert!(matches!(read_request(&mut idle, &LIMITS), Err(ServeError::IdleClose)));

        let mut loris =
            BufReader::new(TimeoutAfter { data: b"POST /x HT".to_vec(), pos: 0 });
        assert!(matches!(read_request(&mut loris, &LIMITS), Err(ServeError::RequestTimeout)));
    }

    #[test]
    fn client_request_and_response_roundtrip_through_the_server_format() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/v1/search/im2rec?k=2", b"\x00\x00\x80?").unwrap();
        let req = parse(&wire).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"\x00\x00\x80?");

        let mut wire = Vec::new();
        write_response(&mut wire, 404, "Not Found", "text/plain", b"nope\n", false).unwrap();
        let resp =
            read_response(&mut BufReader::new(Cursor::new(wire)), &LIMITS).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(resp.body, b"nope\n");
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "application/json", b"{}", true).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
        );
    }

    #[test]
    fn error_responses_carry_the_mapped_status() {
        let mut out = Vec::new();
        write_error(&mut out, &ServeError::PayloadTooLarge).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{text}");
        assert!(text.contains("Connection: close"), "{text}");

        let mut silent = Vec::new();
        write_error(&mut silent, &ServeError::IdleClose).unwrap();
        assert!(silent.is_empty(), "closing errors write nothing");
    }
}
