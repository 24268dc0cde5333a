//! A deliberately small HTTP/1.1 implementation over `std::net` —
//! just the subset the experiment server speaks: one request per
//! connection (`Connection: close`), `Content-Length` bodies, chunked
//! transfer encoding for streamed responses, and a matching client
//! used by the load generator and the protocol tests. No third-party
//! dependencies, by design (see ROADMAP: the offline build is a
//! feature).
//!
//! Parsing is defensive and failures are *typed*: a malformed request
//! maps to a status code plus an actionable one-line message, never a
//! panic or a hang. Bodies and header blocks are size-capped while
//! they are read, so a misbehaving client cannot balloon server
//! memory, and the whole request has one deadline, so a slow one
//! cannot hold a worker.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on a request body; larger bodies are refused with 413.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Upper bound on the request line + headers together.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// The read timeout the server sets on every accepted socket: a read
/// of the request that waits longer is answered 408, so a silent
/// client cannot hold a worker.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// The whole request (line, headers and body) must arrive within this
/// long of the first read, however the bytes trickle in; a request
/// still incomplete then is answered 408.
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
/// How long a refused connection is drained before it is closed
/// ([`linger`]).
pub const LINGER: Duration = Duration::from_secs(1);

/// A parsed inbound request. Header names are lowercased at parse
/// time; values keep their bytes.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A request we refuse: HTTP status plus a one-line human message.
#[derive(Debug)]
pub struct Refusal {
    pub status: u16,
    pub message: String,
}

impl Refusal {
    fn new(status: u16, message: impl Into<String>) -> Refusal {
        Refusal {
            status,
            message: message.into(),
        }
    }
}

/// Read one request off the connection. The outer `io::Result` is
/// transport failure (peer vanished — just drop the connection); the
/// inner result is a protocol refusal to answer with a 4xx, including
/// a 408 when a read outlasts [`READ_TIMEOUT`] or the request outlasts
/// [`REQUEST_DEADLINE`].
pub fn read_request(stream: &mut TcpStream) -> io::Result<Result<Request, Refusal>> {
    let stream = Deadlined {
        stream,
        until: Instant::now() + REQUEST_DEADLINE,
    };
    match read_request_inner(stream) {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            Ok(Err(Refusal::new(408, "timed out waiting for the request")))
        }
        r => r,
    }
}

/// Close the sending side of a refused connection, then read and drop
/// what the client still sends until it closes, for at most
/// [`LINGER`]. A socket closed with unread input is reset, and the
/// reset can destroy a refusal the client has not read yet.
pub fn linger(stream: &TcpStream) {
    if stream.shutdown(Shutdown::Write).is_err() {
        return;
    }
    let mut rest = Deadlined {
        stream,
        until: Instant::now() + LINGER,
    };
    let mut sink = [0u8; 4096];
    while matches!(rest.read(&mut sink), Ok(n) if n > 0) {}
}

/// A socket whose reads each wait at most [`READ_TIMEOUT`], and never
/// past `until`.
struct Deadlined<'s> {
    stream: &'s TcpStream,
    until: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left.min(READ_TIMEOUT)))?;
        self.stream.read(buf)
    }
}

/// Read one head line of at most `budget` bytes, line end included.
/// The budget is checked before the bytes are decoded, so a line cut
/// inside a multi-byte character is refused 431 like any other.
fn head_line(reader: &mut impl BufRead, budget: usize) -> io::Result<Result<String, Refusal>> {
    let mut line = Vec::new();
    reader
        .take(budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if line.len() > budget {
        return Ok(Err(too_large()));
    }
    Ok(String::from_utf8(line).map_err(|_| Refusal::new(400, "head line is not valid UTF-8")))
}

fn too_large() -> Refusal {
    Refusal::new(431, format!("header block exceeds {MAX_HEAD_BYTES} bytes"))
}

fn read_request_inner(stream: Deadlined<'_>) -> io::Result<Result<Request, Refusal>> {
    let mut reader = BufReader::new(stream);
    let line = match head_line(&mut reader, MAX_HEAD_BYTES)? {
        Ok(line) => line,
        Err(refusal) => return Ok(Err(refusal)),
    };
    let mut head_bytes = line.len();
    let request_line = line.trim_end_matches(['\r', '\n']).to_string();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
            (m.to_string(), p.to_string(), v)
        }
        _ => {
            return Ok(Err(Refusal::new(
                400,
                format!("malformed request line: `{request_line}`"),
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Ok(Err(Refusal::new(
            505,
            format!("unsupported protocol version `{version}`"),
        )));
    }
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let line = match head_line(&mut reader, MAX_HEAD_BYTES - head_bytes)? {
            Ok(line) if line.is_empty() => {
                return Ok(Err(Refusal::new(400, "connection closed mid-headers")))
            }
            Ok(line) => line,
            Err(refusal) => return Ok(Err(refusal)),
        };
        head_bytes += line.len();
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Ok(Err(Refusal::new(
                400,
                format!("malformed header line: `{trimmed}`"),
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            match value.parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => {
                    return Ok(Err(Refusal::new(
                        400,
                        format!("unparseable Content-Length: `{value}`"),
                    )))
                }
            }
        }
        headers.push((name, value));
    }
    if content_length > MAX_BODY_BYTES {
        return Ok(Err(Refusal::new(
            413,
            format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        )));
    }
    let mut body_bytes = vec![0u8; content_length];
    reader.read_exact(&mut body_bytes)?;
    let body = match String::from_utf8(body_bytes) {
        Ok(b) => b,
        Err(_) => return Ok(Err(Refusal::new(400, "request body is not valid UTF-8"))),
    };
    Ok(Ok(Request {
        method,
        path,
        headers,
        body,
    }))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Response",
    }
}

/// Write a complete (non-chunked) response and flush it.
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &str,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// One-line JSON error body (always newline-terminated).
pub fn error_body(message: &str) -> String {
    format!(
        "{{\"error\":\"{}\"}}\n",
        paccport_trace::json::escape(message)
    )
}

/// Answer a [`Refusal`] (or any error) as a one-line JSON 4xx/5xx.
pub fn respond_error(stream: &mut impl Write, status: u16, message: &str) -> io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        &[],
        &error_body(message),
    )
}

/// Open a chunked response; follow with [`write_chunk`] calls and a
/// final [`finish_chunked`].
pub fn start_chunked(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n",
        reason(status)
    );
    for (k, v) in extra_headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())
}

/// Emit one chunk (one progress event, in the server's usage) and
/// flush so the peer sees it immediately.
pub fn write_chunk(stream: &mut impl Write, data: &str) -> io::Result<()> {
    if data.is_empty() {
        return Ok(()); // an empty chunk would terminate the stream
    }
    stream.write_all(format!("{:x}\r\n", data.len()).as_bytes())?;
    stream.write_all(data.as_bytes())?;
    stream.write_all(b"\r\n")?;
    stream.flush()
}

/// Terminate a chunked response.
pub fn finish_chunked(stream: &mut impl Write) -> io::Result<()> {
    stream.write_all(b"0\r\n\r\n")?;
    stream.flush()
}

/// A client-side response. For chunked responses, `chunks` preserves
/// the wire framing (one element per chunk) and `body` is their
/// concatenation.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
    pub chunks: Option<Vec<String>>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Issue one request on a fresh connection and read the full
/// response (decoding chunked framing when the server streams).
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (k, v) in headers {
        head.push_str(&format!("{k}: {v}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    read_response(&mut stream)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Parse a response off `stream` (client side).
pub fn read_response(stream: &mut TcpStream) -> io::Result<Response> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status_line = line.trim_end_matches(['\r', '\n']);
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(&format!("malformed status line: `{status_line}`")))?;
    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    let mut chunked = false;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| bad(&format!("malformed header: `{trimmed}`")))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value.parse().ok();
        }
        if name == "transfer-encoding" && value.eq_ignore_ascii_case("chunked") {
            chunked = true;
        }
        headers.push((name, value));
    }
    if chunked {
        let mut chunks = Vec::new();
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let size = usize::from_str_radix(line.trim_end_matches(['\r', '\n']), 16)
                .map_err(|_| bad(&format!("malformed chunk size: `{}`", line.trim_end())))?;
            if size == 0 {
                // Trailing CRLF after the last-chunk marker.
                line.clear();
                let _ = reader.read_line(&mut line);
                break;
            }
            let mut data = vec![0u8; size];
            reader.read_exact(&mut data)?;
            let mut crlf = [0u8; 2];
            reader.read_exact(&mut crlf)?;
            chunks.push(String::from_utf8(data).map_err(|_| bad("chunk is not UTF-8"))?);
        }
        let body = chunks.concat();
        return Ok(Response {
            status,
            headers,
            body,
            chunks: Some(chunks),
        });
    }
    let body = match content_length {
        Some(n) => {
            let mut bytes = vec![0u8; n];
            reader.read_exact(&mut bytes)?;
            String::from_utf8(bytes).map_err(|_| bad("body is not UTF-8"))?
        }
        None => {
            let mut s = String::new();
            reader.read_to_string(&mut s)?;
            s
        }
    };
    Ok(Response {
        status,
        headers,
        body,
        chunks: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serve exactly one connection with `f` on a background thread;
    /// returns the address to hit.
    fn one_shot(
        f: impl FnOnce(&mut TcpStream) + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let h = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            f(&mut stream);
        });
        (addr, h)
    }

    #[test]
    fn round_trips_a_simple_request() {
        let (addr, h) = one_shot(|stream| {
            let req = read_request(stream).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/run");
            assert_eq!(req.header("x-tenant"), Some("alice"));
            assert_eq!(req.body, "{\"k\":1}");
            respond(stream, 200, "application/json", &[], "{\"ok\":true}\n").unwrap();
        });
        let resp = request(&addr, "POST", "/run", &[("X-Tenant", "alice")], "{\"k\":1}").unwrap();
        h.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"ok\":true}\n");
        assert!(resp.chunks.is_none());
    }

    #[test]
    fn chunked_responses_preserve_framing() {
        let (addr, h) = one_shot(|stream| {
            let _ = read_request(stream).unwrap().unwrap();
            start_chunked(stream, 200, "application/x-ndjson", &[]).unwrap();
            write_chunk(stream, "{\"event\":\"start\"}\n").unwrap();
            write_chunk(stream, "{\"event\":\"cell\"}\n").unwrap();
            write_chunk(stream, "{\"event\":\"done\"}\n").unwrap();
            finish_chunked(stream).unwrap();
        });
        let resp = request(&addr, "POST", "/stream", &[], "{}").unwrap();
        h.join().unwrap();
        assert_eq!(resp.status, 200);
        let chunks = resp.chunks.expect("chunked framing visible to client");
        assert_eq!(chunks.len(), 3, "one chunk per event");
        assert!(chunks.iter().all(|c| c.ends_with('\n')));
        assert_eq!(resp.body, chunks.concat());
    }

    #[test]
    fn refusals_are_typed_not_fatal() {
        let (addr, h) = one_shot(|stream| {
            let refusal = read_request(stream).unwrap().unwrap_err();
            assert_eq!(refusal.status, 400);
            respond_error(stream, refusal.status, &refusal.message).unwrap();
        });
        // Hand-written garbage request line.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let resp = read_response(&mut stream).unwrap();
        h.join().unwrap();
        assert_eq!(resp.status, 400);
        assert!(resp.body.starts_with("{\"error\":\"malformed request line"));
        assert!(resp.body.ends_with("\n"));
    }

    #[test]
    fn oversized_bodies_are_refused() {
        let (addr, h) = one_shot(|stream| {
            let refusal = read_request(stream).unwrap().unwrap_err();
            assert_eq!(refusal.status, 413);
            respond_error(stream, refusal.status, &refusal.message).unwrap();
        });
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .write_all(
                format!(
                    "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .as_bytes(),
            )
            .unwrap();
        let resp = read_response(&mut stream).unwrap();
        h.join().unwrap();
        assert_eq!(resp.status, 413);
        assert!(resp.body.contains("exceeds"));
    }

    #[test]
    fn an_oversized_line_of_multibyte_characters_is_refused_431() {
        // Three-byte characters after pads of 0, 1 and 2 bytes: the
        // head budget ends inside a character for at least one.
        for pad in 0..3 {
            let (addr, h) = one_shot(|stream| {
                let refusal = read_request(stream).unwrap().unwrap_err();
                assert_eq!(refusal.status, 431, "{}", refusal.message);
            });
            let line = format!(
                "GET /{}{} HTTP/1.1\r\n\r\n",
                "a".repeat(pad),
                "\u{20ac}".repeat(MAX_HEAD_BYTES / 3 + 1)
            );
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream.write_all(line.as_bytes()).unwrap();
            h.join().unwrap();
        }
    }
}
