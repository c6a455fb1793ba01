//! Minimal HTTP/1.1 message framing over blocking streams.
//!
//! Enough of RFC 9112 for a JSON API: request-line + headers +
//! `Content-Length` bodies (no chunked transfer, no multipart), responses
//! with explicit lengths, and keep-alive by default (HTTP/1.1 semantics:
//! a connection closes when either side says `Connection: close`).
//! Hard limits on header and body size protect the worker pool from
//! hostile or broken clients.

use std::io::{self, BufRead, Write};

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body, in bytes (CSV ingest is the large case).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Request method (uppercased by the client as sent: `GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query string, undecoded).
    pub path: String,
    /// Protocol version from the request line (`HTTP/1.0` or `HTTP/1.1`).
    pub version: String,
    /// Header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First header value under `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should close after this exchange: an
    /// explicit `Connection: close`, or HTTP/1.0 semantics (default
    /// close; 1.0 clients typically read the body to EOF) without an
    /// explicit keep-alive.
    pub fn wants_close(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("close"),
            None => self.version == "HTTP/1.0",
        }
    }
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed before sending anything (normal keep-alive end).
    Eof,
    /// Transport failure.
    Io(io::Error),
    /// The bytes did not form an acceptable request; the payload is a
    /// `(status, message)` to answer with before closing.
    Malformed(u16, String),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request from `stream`.
pub fn read_request(stream: &mut impl BufRead) -> Result<HttpRequest, ReadError> {
    let request_line = read_head_line(stream, true)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(ReadError::Malformed(400, "malformed request line".into()));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(
            505,
            format!("unsupported version {version}"),
        ));
    }

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(stream, false)?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err(ReadError::Malformed(431, "headers too large".into()));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::Malformed(400, "malformed header".into()));
        };
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let mut request = HttpRequest {
        method: method.to_string(),
        path: path.to_string(),
        version: version.to_string(),
        headers,
        body: Vec::new(),
    };
    // Reject Transfer-Encoding outright — even alongside Content-Length.
    // Framing by Content-Length while chunked framing bytes sit in the
    // stream would desync keep-alive parsing (request-smuggling class).
    if request.header("transfer-encoding").is_some() {
        return Err(ReadError::Malformed(
            501,
            "transfer encodings not supported".into(),
        ));
    }
    // Every Content-Length field must be `1*DIGIT` (`usize::parse` alone
    // would take `+5`), and repeated fields must agree: framing by the
    // first of two conflicting values is the same smuggling class as
    // CL + TE (RFC 9112 §6.3 requires a 400).
    let mut content_length: Option<usize> = None;
    for (name, value) in &request.headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let len = Some(value)
            .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            .and_then(|v| v.parse::<usize>().ok())
            .ok_or_else(|| ReadError::Malformed(400, "bad Content-Length".into()))?;
        if content_length.is_some_and(|prev| prev != len) {
            return Err(ReadError::Malformed(
                400,
                "conflicting Content-Length values".into(),
            ));
        }
        content_length = Some(len);
    }
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(ReadError::Malformed(413, "body too large".into()));
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        request.body = body;
    }
    Ok(request)
}

/// Read one CRLF- (or LF-) terminated header line. `at_start` maps clean
/// EOF to [`ReadError::Eof`] (the keep-alive loop's exit).
fn read_head_line(stream: &mut impl BufRead, at_start: bool) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte)? {
            0 => {
                if at_start && line.is_empty() {
                    return Err(ReadError::Eof);
                }
                return Err(ReadError::Malformed(400, "truncated request".into()));
            }
            // lint:allow(no-panic-in-request-path: byte is [0u8; 1] and read returned nonzero, so index 0 is filled)
            _ => match byte[0] {
                b'\n' => break,
                b'\r' => {}
                b => {
                    if line.len() >= MAX_HEAD_BYTES {
                        return Err(ReadError::Malformed(431, "header line too long".into()));
                    }
                    line.push(b);
                }
            },
        }
    }
    String::from_utf8(line).map_err(|_| ReadError::Malformed(400, "non-UTF-8 header".into()))
}

/// The canonical reason phrase for the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write one `application/json` response — head and body in a single
/// `write_all`, so no partial segment can sit in Nagle's buffer waiting
/// for a delayed ACK while a keep-alive client blocks on the rest.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        status_reason(status),
        body.len(),
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(text: &str) -> Result<HttpRequest, ReadError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_request_with_body() {
        let request = parse(
            "POST /v1/datasets/county/query HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/datasets/county/query");
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.header("HOST"), Some("x"));
        assert_eq!(request.body, b"body");
        assert!(!request.wants_close());
    }

    #[test]
    fn lf_only_lines_and_connection_close() {
        let request = parse("GET /healthz HTTP/1.1\nConnection: close\n\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.wants_close());
        assert!(request.body.is_empty());
    }

    #[test]
    fn http_10_defaults_to_close() {
        let request = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(request.version, "HTTP/1.0");
        assert!(request.wants_close(), "1.0 default is close");
        let request = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(!request.wants_close(), "explicit keep-alive is honored");
        let request = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(!request.wants_close(), "1.1 default is keep-alive");
    }

    #[test]
    fn eof_at_start_is_clean_end() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
    }

    #[test]
    fn malformed_requests_get_statuses() {
        let cases: [(&str, u16); 5] = [
            ("garbage\r\n\r\n", 400),
            ("GET / HTTP/2.0\r\n\r\n", 505),
            ("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            ("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
            // TE + CL together must be rejected too, not framed by CL.
            (
                "POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
                501,
            ),
        ];
        for (text, expected) in cases {
            match parse(text) {
                Err(ReadError::Malformed(status, _)) => assert_eq!(status, expected, "{text:?}"),
                other => panic!("{text:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn conflicting_content_lengths_rejected() {
        let text = "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello, world";
        assert!(
            matches!(parse(text), Err(ReadError::Malformed(400, _))),
            "framing by the first of two values desyncs keep-alive parsing"
        );
        // Repeats of one value frame the same body either way.
        let text = "POST / HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse(text).unwrap().body, b"hello");
    }

    #[test]
    fn content_length_must_be_digits_only() {
        for value in ["+5", "-0", " ", "5 5", "5,5", "0x5", "\u{0665}"] {
            let text = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            assert!(
                matches!(parse(&text), Err(ReadError::Malformed(400, _))),
                "{value:?}"
            );
        }
        let text = "POST / HTTP/1.1\r\nContent-Length: 005\r\n\r\nhello";
        assert_eq!(parse(text).unwrap().body, b"hello");
    }

    #[test]
    fn oversized_body_rejected() {
        let text = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        assert!(matches!(parse(&text), Err(ReadError::Malformed(413, _))));
    }

    #[test]
    fn response_writer_frames_correctly() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive"), "{text}");
        assert!(text.ends_with("{\"ok\":true}"), "{text}");
    }
}
