//! Minimal HTTP/1.1 message handling: request parsing with hard limits,
//! and response serialization.
//!
//! The parser is deliberately strict — this server fronts exactly one
//! binary API, so anything outside the expected envelope fails closed
//! with a typed [`ParseError`] that the connection loop maps to the
//! right status code (`400`, `408`, `411`, `413`, `431`, `505`). Every
//! size is bounded before any allocation happens, and `Content-Length`
//! goes through `u64::from_str` + `usize::try_from` — no lossy casts on
//! an attacker-controlled path.

use std::io::{BufRead, Write};

/// Hard limits the parser enforces while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Total header-block bytes (request line included) before `431`.
    pub max_header_bytes: usize,
    /// Header count before `431`.
    pub max_headers: usize,
    /// Body bytes before `413`.
    pub max_body_bytes: usize,
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// Request target, verbatim (`/v1/infer`).
    pub target: String,
    /// Header `(name, value)` pairs; names lower-cased for lookup.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == lower).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange (`Connection: close`).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. The connection loop maps each
/// variant to a status code (or a quiet close).
#[derive(Debug)]
pub enum ParseError {
    /// The peer closed (or an idle keep-alive read timed out) before
    /// sending a single byte — close quietly, nothing to answer.
    Idle,
    /// The read deadline expired mid-request: `408`.
    Timeout,
    /// The message violates HTTP/1.1 framing: `400`.
    BadRequest(String),
    /// Header block over the byte or count limit: `431`.
    HeadersTooLarge,
    /// Declared body larger than the limit: `413`.
    BodyTooLarge,
    /// A body-carrying method without `Content-Length`: `411`.
    LengthRequired,
    /// A well-formed version this server does not speak: `505`.
    VersionUnsupported(String),
    /// `Transfer-Encoding` and friends: `501`.
    NotImplemented(String),
    /// The socket failed mid-read — close, nothing sensible to answer.
    Io(std::io::Error),
}

/// True when an I/O error is a read/write deadline expiring (`WouldBlock`
/// on unix, `TimedOut` elsewhere).
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounding total header
/// bytes via `budget`.
fn read_line<R: BufRead>(
    reader: &mut R,
    budget: &mut usize,
    any_bytes: &mut bool,
) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() && !*any_bytes {
                    return Err(ParseError::Idle);
                }
                return Err(ParseError::BadRequest("connection closed mid-line".into()));
            }
            Ok(_) => {
                *any_bytes = true;
                if *budget == 0 {
                    return Err(ParseError::HeadersTooLarge);
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map_err(|_| ParseError::BadRequest("non-UTF-8 header bytes".into()));
                }
                line.push(byte[0]);
            }
            Err(e) if is_timeout(&e) => {
                return if line.is_empty() && !*any_bytes {
                    Err(ParseError::Idle)
                } else {
                    Err(ParseError::Timeout)
                };
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ParseError::Io(e)),
        }
    }
}

/// Reads and validates one full request (line, headers, body) under the
/// given limits.
///
/// # Errors
///
/// See [`ParseError`]; every failure mode is typed so the connection
/// loop can answer with the precise status code.
pub fn read_request<R: BufRead>(reader: &mut R, limits: &Limits) -> Result<Request, ParseError> {
    let mut budget = limits.max_header_bytes;
    let mut any_bytes = false;
    let request_line = read_line(reader, &mut budget, &mut any_bytes)?;

    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
    {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => {
            (m.to_string(), t.to_string(), v.to_string())
        }
        _ => {
            return Err(ParseError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/") {
        return Err(ParseError::BadRequest(format!("malformed version `{version}`")));
    }
    if version != "HTTP/1.1" {
        return Err(ParseError::VersionUnsupported(version));
    }

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(reader, &mut budget, &mut any_bytes).map_err(|e| match e {
            // Headers after the request line: a stall here is a timeout,
            // never an idle close.
            ParseError::Idle => ParseError::Timeout,
            other => other,
        })?;
        if line.is_empty() {
            break;
        }
        if headers.len() == limits.max_headers {
            return Err(ParseError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::BadRequest(format!("header without colon: `{line}`")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(ParseError::BadRequest(format!("malformed header name `{name}`")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(ParseError::NotImplemented("transfer-encoding".into()));
    }

    // RFC 9112 §6.3: a second length would frame the rest of this body
    // as the next request on a keep-alive connection, so refuse it.
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => None,
        (Some(_), Some(_)) => {
            return Err(ParseError::BadRequest("more than one content-length header".into()));
        }
        (Some((_, v)), None) => {
            let n: u64 = v
                .parse()
                .map_err(|_| ParseError::BadRequest(format!("bad content-length `{v}`")))?;
            Some(usize::try_from(n).map_err(|_| ParseError::BodyTooLarge)?)
        }
    };

    let body = match content_length {
        None => {
            if method == "POST" || method == "PUT" {
                return Err(ParseError::LengthRequired);
            }
            Vec::new()
        }
        Some(len) => {
            if len > limits.max_body_bytes {
                return Err(ParseError::BodyTooLarge);
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).map_err(|e| {
                if is_timeout(&e) {
                    ParseError::Timeout
                } else if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    ParseError::BadRequest("body shorter than content-length".into())
                } else {
                    ParseError::Io(e)
                }
            })?;
            body
        }
    };

    Ok(Request { method, target, headers, body })
}

/// The reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// One response, serialized by [`Response::write_to`].
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Content-Type`/`Connection`.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
    /// `Content-Type` of the body.
    pub content_type: &'static str,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        let mut body = body.into();
        if !body.ends_with('\n') {
            body.push('\n');
        }
        Response { status, headers: Vec::new(), body: body.into_bytes(), content_type: "text/plain" }
    }

    /// A binary (`application/octet-stream`) response.
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Response { status, headers: Vec::new(), body, content_type: "application/octet-stream" }
    }

    /// A JSON response (the body is trusted to already be valid JSON).
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
            content_type: "application/json",
        }
    }

    /// Appends a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Serializes the response; `close` controls the `Connection` header.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures (including write-deadline expiry).
    pub fn write_to<W: Write>(&self, w: &mut W, close: bool) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            self.content_type,
            if close { "close" } else { "keep-alive" },
        );
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        w.write_all(head.as_bytes())?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn limits() -> Limits {
        Limits { max_header_bytes: 512, max_headers: 8, max_body_bytes: 64 }
    }

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw), &limits())
    }

    #[test]
    fn parses_a_get_with_headers() {
        let req = parse(b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /v1/infer HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello")
            .expect("parses");
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let req = parse(b"GET / HTTP/1.1\nhost: y\n\n").expect("parses");
        assert_eq!(req.header("host"), Some("y"));
    }

    #[test]
    fn malformed_request_lines_are_bad_requests() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b" / HTTP/1.1\r\n\r\n",
            b"GET / FTP/1.1\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(ParseError::BadRequest(_))),
                "raw = {raw:?}"
            );
        }
    }

    #[test]
    fn other_http_versions_are_rejected_as_unsupported() {
        assert!(matches!(
            parse(b"GET / HTTP/1.0\r\n\r\n"),
            Err(ParseError::VersionUnsupported(v)) if v == "HTTP/1.0"
        ));
    }

    #[test]
    fn header_limits_fail_closed() {
        // Byte budget.
        let long = format!("GET / HTTP/1.1\r\nx: {}\r\n\r\n", "y".repeat(600));
        assert!(matches!(parse(long.as_bytes()), Err(ParseError::HeadersTooLarge)));
        // Count budget.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..9 {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert!(matches!(parse(many.as_bytes()), Err(ParseError::HeadersTooLarge)));
    }

    #[test]
    fn body_framing_failures_are_typed() {
        assert!(matches!(
            parse(b"POST /v1/infer HTTP/1.1\r\n\r\n"),
            Err(ParseError::LengthRequired)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\nxx"),
            Err(ParseError::BodyTooLarge)
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: ten\r\n\r\n"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort"),
            Err(ParseError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(ParseError::NotImplemented(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 2\r\ncontent-length: 5\r\n\r\nhello"),
            Err(ParseError::BadRequest(_))
        ));
    }

    #[test]
    fn empty_stream_is_idle_not_an_error_response() {
        assert!(matches!(parse(b""), Err(ParseError::Idle)));
        // A half-sent request line is a framing error, not idle.
        assert!(matches!(parse(b"GET /"), Err(ParseError::BadRequest(_))));
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let mut out = Vec::new();
        Response::text(503, "shed")
            .with_header("retry-after", "1")
            .write_to(&mut out, true)
            .expect("writes");
        let s = String::from_utf8(out).expect("utf8");
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(s.contains("content-length: 5\r\n"));
        assert!(s.contains("retry-after: 1\r\n"));
        assert!(s.contains("connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nshed\n"));

        let mut out = Vec::new();
        Response::binary(200, vec![1, 2, 3]).write_to(&mut out, false).expect("writes");
        let s = String::from_utf8_lossy(&out);
        assert!(s.contains("connection: keep-alive\r\n"));
        assert!(s.contains("content-type: application/octet-stream\r\n"));
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        for code in [200u16, 400, 404, 405, 408, 411, 413, 431, 500, 501, 503, 505] {
            assert_ne!(reason(code), "Unknown", "code {code}");
        }
        assert_eq!(reason(599), "Unknown");
    }
}
