//! A tiny blocking HTTP client over raw [`TcpStream`]s — enough to drive
//! the server from examples, benchmarks, and smoke tests without any
//! dependency.
//!
//! Two modes: [`http_request`] opens one connection per request
//! (`Connection: close` — the cold-path baseline), while [`HttpClient`]
//! holds a **keep-alive** connection and frames responses by
//! `Content-Length`, so sequential requests ride one TCP stream — the
//! mode `bench_serve` uses to measure engine cost without per-request
//! connection setup.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A parsed HTTP response: status code plus body text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code from the status line.
    pub status: u16,
    /// The response body, decoded as UTF-8.
    pub body: String,
}

impl HttpResponse {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Issue one request and read the full response.
///
/// `body = Some(json)` sends a `Content-Length` body; `None` sends a bare
/// request. The connection is closed after the exchange.
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    let payload = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: charles\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
        payload.len(),
    )?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// A blocking keep-alive HTTP client: one connection, many requests.
///
/// Responses are framed by `Content-Length` (which this server always
/// sends), so the stream stays aligned between requests.
///
/// ## Stale-connection recovery
///
/// A keep-alive connection can die *between* requests: the server's
/// idle-timeout reaper closes it, the process restarts, a NAT forgets the
/// mapping. The next `request` then fails in one of two benign ways — the
/// write errors out, or the write "succeeds" into a dead socket and the
/// read sees EOF/reset before a single response byte. Both mean no
/// response was consumed, so the client transparently reconnects to the
/// same address and retries the request **once**. Long-lived channels
/// (a benchmark or UI holding one connection across idle gaps) rely on
/// this. A failure *after* response bytes
/// arrived is never retried — the stream is ambiguous at that point and
/// the error surfaces to the caller.
pub struct HttpClient {
    addr: std::net::SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    closed: bool,
    /// Whether the current `read_response` has consumed any bytes (the
    /// retry-safety test: EOF *before* any byte means a stale close).
    response_started: bool,
    read_timeout: Option<std::time::Duration>,
    reconnects: usize,
}

impl HttpClient {
    /// Connect to the server. Nagle's algorithm is disabled: a keep-alive
    /// exchange is strictly request→response, so batching small writes
    /// only buys 40 ms delayed-ACK stalls, not throughput.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let writer = stream.try_clone()?;
        Ok(HttpClient {
            addr,
            reader: BufReader::new(stream),
            writer,
            closed: false,
            response_started: false,
            read_timeout: None,
            reconnects: 0,
        })
    }

    /// Bound how long a read may block (e.g. while probing whether the
    /// server closed an idle connection). Survives reconnects.
    pub fn set_read_timeout(&mut self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.read_timeout = timeout;
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Whether the server has signalled (or performed) a close that a
    /// reconnect has not yet replaced.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// How many times this client has transparently replaced a stale
    /// connection.
    pub fn reconnects(&self) -> usize {
        self.reconnects
    }

    /// Replace the dead connection with a fresh one to the same address.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.writer = stream.try_clone()?;
        self.reader = BufReader::new(stream);
        self.closed = false;
        self.reconnects += 1;
        Ok(())
    }

    /// Whether a failed exchange is safe to retry on a fresh connection:
    /// nothing of a response was consumed, so the request observably
    /// never reached a live server.
    fn retryable(&self, error: &io::Error) -> bool {
        if self.response_started {
            return false;
        }
        matches!(
            error.kind(),
            io::ErrorKind::UnexpectedEof
                | io::ErrorKind::ConnectionReset
                | io::ErrorKind::ConnectionAborted
                | io::ErrorKind::BrokenPipe
                | io::ErrorKind::NotConnected
        )
    }

    /// Issue one request on the shared connection and read one framed
    /// response, transparently reconnecting once if the connection turns
    /// out to have gone stale since the previous exchange.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        if self.closed {
            // The previous response said `Connection: close` (or the
            // stream already died): start fresh rather than failing fast.
            self.reconnect()?;
        }
        match self.exchange(method, path, body) {
            Ok(response) => Ok(response),
            Err(e) if self.retryable(&e) => {
                self.reconnect()?;
                self.exchange(method, path, body)
            }
            Err(e) => Err(e),
        }
    }

    /// One write + one framed read on the current connection.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let payload = body.unwrap_or("");
        // One buffer, one write: head + body must not straddle TCP
        // segments that Nagle could hold back mid-request.
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: charles\r\nConnection: keep-alive\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{payload}",
            payload.len(),
        );
        self.response_started = false;
        self.writer.write_all(request.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Read one response head + `Content-Length` body from the stream.
    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                self.closed = true;
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    if self.response_started {
                        "connection closed mid-response"
                    } else {
                        "connection closed before the response (stale keep-alive)"
                    },
                ));
            }
            self.response_started = true;
            if line.trim_end_matches(['\r', '\n']).is_empty() {
                break;
            }
            head.push_str(&line);
        }
        let status = head
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
        let header = |name: &str| -> Option<&str> {
            head.lines().find_map(|l| {
                l.split_once(':')
                    .filter(|(k, _)| k.eq_ignore_ascii_case(name))
                    .map(|(_, v)| v.trim())
            })
        };
        if header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.closed = true;
        }
        let len: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response without Content-Length",
                )
            })?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response body"))?;
        Ok(HttpResponse { status, body })
    }
}

/// Split a raw HTTP/1.x response into status + body (honoring
/// `Content-Length` when present, else everything after the head).
pub fn parse_response(raw: &[u8]) -> io::Result<HttpResponse> {
    let text = std::str::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 response"))?;
    let head_end = text
        .find("\r\n\r\n")
        .map(|i| (i, i + 4))
        .or_else(|| text.find("\n\n").map(|i| (i, i + 2)))
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing header terminator"))?;
    // lint:allow(no-panic-in-request-path: both offsets come from find on text, so they are in-bounds char boundaries)
    let (head, body) = (&text[..head_end.0], &text[head_end.1..]);
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed status line"))?;
    let body = match head
        .lines()
        .find_map(|l| {
            l.split_once(':')
                .filter(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        })
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
    {
        // `get` (not slicing) so a Content-Length landing inside a
        // multi-byte UTF-8 character degrades to the whole tail instead
        // of panicking on a non-boundary index.
        Some(len) => body.get(..len).unwrap_or(body),
        _ => body,
    };
    Ok(HttpResponse {
        status,
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_response_with_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}extra";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"ok\":true}");
        assert!(response.is_success());
    }

    #[test]
    fn parses_response_without_content_length() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\n\r\nbusy";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.body, "busy");
        assert!(!response.is_success());
    }

    #[test]
    fn content_length_inside_utf8_char_does_not_panic() {
        // "日本" is 6 bytes; a bogus Content-Length of 4 lands mid-char.
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n日本".as_bytes();
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "日本");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }
}
