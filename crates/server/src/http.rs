//! Hand-rolled HTTP/1.1, the way `reshuffle-obs` hand-rolls JSON: the
//! workspace takes no external dependencies, so no hyper — a blocking
//! request reader and response writer over [`std::net::TcpStream`] is
//! all the service needs. Bodies are sized by `Content-Length` and
//! bounded by the server's limit.
//!
//! A [`Conn`] wraps one accepted socket for its whole keep-alive
//! lifetime: the read buffer persists across requests (so pipelined
//! bytes are never dropped), and every read syscall is bounded by an
//! *absolute* deadline — an idle deadline while waiting for the next
//! request to start, then a per-request deadline across the head and
//! body. A client trickling one byte per almost-timeout can therefore
//! never hold a worker past the request budget: the deadline does not
//! reset per read.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Upper bound on the request line plus headers, defending the reader
/// against unbounded header streams; the client caps response heads at
/// the same size.
pub(crate) const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// The request target (path only; queries are not used).
    pub path: String,
    /// The body, `Content-Length` bytes of it.
    pub body: Vec<u8>,
    /// Whether the client asked for the connection to end after this
    /// request (`Connection: close`, or HTTP/1.0 without an explicit
    /// `keep-alive`).
    pub close: bool,
    /// The `X-Trace-Id` request header, verbatim, when the client sent
    /// one — callers decide whether it parses as a trace id worth
    /// propagating.
    pub trace_id: Option<String>,
}

/// Why a request could not be served a 200.
#[derive(Debug)]
pub enum HttpError {
    /// The bytes were not a well-formed HTTP/1.1 request → 400.
    Malformed(String),
    /// The declared body exceeds the server's limit → 413.
    BodyTooLarge,
    /// The absolute per-request deadline lapsed mid-request → 408.
    Timeout,
    /// The connection ended cleanly between requests: the peer closed
    /// it, or the idle deadline lapsed before any byte of a new
    /// request arrived. Nothing to respond to.
    Closed,
    /// The socket failed mid-read (peer vanished) — nothing to
    /// respond to.
    Io,
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        if e.kind() == io::ErrorKind::TimedOut {
            HttpError::Timeout
        } else {
            HttpError::Io
        }
    }
}

fn malformed(msg: impl Into<String>) -> HttpError {
    HttpError::Malformed(msg.into())
}

/// One head line as text. A line the allowance cut short (no `\n`
/// with nothing `left`) means the head is too large.
fn head_text(line: &[u8], left: usize) -> Result<&str, HttpError> {
    if left == 0 && !line.ends_with(b"\n") {
        return Err(malformed("header section too large"));
    }
    std::str::from_utf8(line).map_err(|_| malformed("head line is not UTF-8"))
}

/// A [`TcpStream`] whose every read is bounded by an absolute
/// deadline: before each syscall the socket read timeout is set to the
/// time *remaining*, so a sequence of trickled bytes cannot stretch
/// the total wait. Timeout-ish errors (`WouldBlock`/`TimedOut`) are
/// normalized to [`io::ErrorKind::TimedOut`].
#[derive(Debug)]
struct DeadlineStream {
    stream: TcpStream,
    deadline: Option<Instant>,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let left = deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "deadline lapsed"))?;
            self.stream.set_read_timeout(Some(left))?;
        } else {
            self.stream.set_read_timeout(None)?;
        }
        match self.stream.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(io::Error::new(io::ErrorKind::TimedOut, "deadline lapsed"))
            }
            other => other,
        }
    }
}

/// One accepted connection, held for its keep-alive lifetime.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<DeadlineStream>,
}

impl Conn {
    /// Wraps an accepted stream.
    pub fn new(stream: TcpStream) -> Conn {
        Conn {
            reader: BufReader::new(DeadlineStream {
                stream,
                deadline: None,
            }),
        }
    }

    /// The connection's local address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.reader.get_ref().stream.local_addr()
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.reader.get_mut().deadline = deadline;
    }

    /// Reads one head line, through its `\n`, into `line`, reading at
    /// most `*left` bytes and charging them to `left`: an endless line
    /// is cut off at the head allowance instead of being buffered.
    fn read_head_line(&mut self, line: &mut Vec<u8>, left: &mut usize) -> io::Result<usize> {
        line.clear();
        let n = (&mut self.reader)
            .take(*left as u64)
            .read_until(b'\n', line)?;
        *left -= n;
        Ok(n)
    }

    /// Reads the next request off the connection, rejecting bodies
    /// larger than `max_body` bytes.
    ///
    /// The wait for the request's *first line* is bounded by `idle`
    /// (keep-alive connections do not park a worker forever); once it
    /// arrives, the rest of the head plus the whole body must land
    /// within `budget` — an absolute deadline shared by every
    /// subsequent read.
    ///
    /// # Errors
    ///
    /// [`HttpError::Closed`] when the connection ended between
    /// requests (peer EOF, or idle expiry with no bytes read),
    /// [`HttpError::Timeout`] when a deadline lapsed mid-request,
    /// [`HttpError::Malformed`] on protocol violations (including a
    /// head past [`MAX_HEAD_BYTES`], as soon as the cap is reached, and
    /// a head line that is not UTF-8),
    /// [`HttpError::BodyTooLarge`] past the body limit, and
    /// [`HttpError::Io`] when the socket dies.
    pub fn read_request(
        &mut self,
        max_body: usize,
        idle: Duration,
        budget: Duration,
    ) -> Result<Request, HttpError> {
        let mut left = MAX_HEAD_BYTES;
        let mut line = Vec::new();
        self.set_deadline(Some(Instant::now() + idle));
        match self.read_head_line(&mut line, &mut left) {
            Ok(0) => return Err(HttpError::Closed),
            Ok(_) => {}
            // An idle expiry (or peer reset) before any byte of a new
            // request is a clean end of the connection; the same error
            // with a partial line down is a mid-request failure.
            Err(e) if line.is_empty() => {
                return Err(match e.kind() {
                    io::ErrorKind::TimedOut | io::ErrorKind::ConnectionReset => HttpError::Closed,
                    _ => HttpError::Io,
                })
            }
            Err(e) => return Err(e.into()),
        }
        // The request has begun: everything else — rest of the head,
        // whole body — shares one absolute deadline.
        self.set_deadline(Some(Instant::now() + budget));

        let request_line = head_text(&line, left)?;
        let mut parts = request_line.trim_end().split(' ');
        let method = parts.next().unwrap_or_default().to_string();
        let path = parts
            .next()
            .ok_or_else(|| malformed("missing request target"))?
            .to_string();
        let version = parts.next().ok_or_else(|| malformed("missing version"))?;
        if !version.starts_with("HTTP/1.") || parts.next().is_some() {
            return Err(malformed("not an HTTP/1.x request line"));
        }
        if method.is_empty() || !path.starts_with('/') {
            return Err(malformed("bad method or target"));
        }
        // HTTP/1.0 defaults to one request per connection.
        let mut close = version == "HTTP/1.0";

        let mut content_length = 0usize;
        let mut trace_id = None;
        loop {
            if self.read_head_line(&mut line, &mut left)? == 0 && left > 0 {
                return Err(malformed("connection closed inside headers"));
            }
            let trimmed = head_text(&line, left)?.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            let (name, value) = trimmed
                .split_once(':')
                .ok_or_else(|| malformed("header without a colon"))?;
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .parse()
                    .map_err(|_| malformed("unparseable Content-Length"))?;
            } else if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(malformed("chunked bodies are not supported"));
            } else if name.eq_ignore_ascii_case("connection") {
                for token in value.split(',') {
                    let token = token.trim();
                    if token.eq_ignore_ascii_case("close") {
                        close = true;
                    } else if token.eq_ignore_ascii_case("keep-alive") {
                        close = false;
                    }
                }
            } else if name.eq_ignore_ascii_case("x-trace-id") {
                trace_id = Some(value.to_string());
            }
        }
        if content_length > max_body {
            return Err(HttpError::BodyTooLarge);
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        self.set_deadline(None);
        Ok(Request {
            method,
            path,
            body,
            close,
            trace_id,
        })
    }

    /// The socket, for writing the response.
    pub fn stream(&self) -> &TcpStream {
        &self.reader.get_ref().stream
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response — the status line, the standard headers plus
/// `extra` (`(name, value)` pairs, e.g. `X-Trace-Id`), then the body —
/// advertising `Connection: keep-alive` unless `close` is set.
///
/// # Errors
///
/// Propagates write failures (including a vanished peer — `EPIPE`
/// surfaces as an error because Rust ignores `SIGPIPE`).
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
    close: bool,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: {}\r\n",
        reason(status),
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    for (name, value) in extra {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const LONG: Duration = Duration::from_secs(10);

    fn roundtrip(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let req = Conn::new(conn).read_request(max_body, LONG, LONG);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = roundtrip(
            b"POST /synthesize HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
            64,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/synthesize");
        assert_eq!(req.body, b"hello");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let req = roundtrip(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(req.close);
        let req = roundtrip(b"GET / HTTP/1.0\r\n\r\n", 64).unwrap();
        assert!(req.close, "HTTP/1.0 defaults to close");
        let req = roundtrip(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", 64).unwrap();
        assert!(!req.close);
    }

    #[test]
    fn captures_x_trace_id_and_writes_extra_headers() {
        let req = roundtrip(b"GET / HTTP/1.1\r\nX-Trace-Id: abc123\r\n\r\n", 64).unwrap();
        assert_eq!(req.trace_id.as_deref(), Some("abc123"));
        let req = roundtrip(b"GET / HTTP/1.1\r\n\r\n", 64).unwrap();
        assert!(req.trace_id.is_none());

        let mut out = Vec::new();
        write_response_with(
            &mut out,
            200,
            "text/plain",
            &[("X-Trace-Id", "deadbeef")],
            b"ok",
            true,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\r\nX-Trace-Id: deadbeef\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nok"), "{text}");
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(matches!(
            roundtrip(b"not http at all\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 64),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip(b"POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10),
            Err(HttpError::BodyTooLarge)
        ));
    }

    #[test]
    fn reads_pipelined_requests_off_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Both requests land in one burst; the persistent buffer
            // must not drop the second one.
            s.write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream);
        let first = conn.read_request(64, LONG, LONG).unwrap();
        assert_eq!((first.path.as_str(), first.close), ("/a", false));
        let second = conn.read_request(64, LONG, LONG).unwrap();
        assert_eq!((second.path.as_str(), second.close), ("/b", true));
        writer.join().unwrap();
        assert!(matches!(
            conn.read_request(64, Duration::from_millis(50), LONG),
            Err(HttpError::Closed),
        ));
    }

    #[test]
    fn idle_expiry_is_a_clean_close_but_a_trickle_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let holder = TcpStream::connect(addr).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let mut conn = Conn::new(stream);
        // No bytes at all within the idle window: clean close.
        assert!(matches!(
            conn.read_request(64, Duration::from_millis(50), LONG),
            Err(HttpError::Closed),
        ));

        // A request line followed by a stalled head: the per-request
        // budget lapses mid-request — a 408-worthy Timeout, and it
        // must lapse on the *absolute* deadline even though bytes keep
        // arriving more often than the budget.
        let (stream2, handle) = {
            let mut sender = TcpStream::connect(addr).unwrap();
            let (stream2, _) = listener.accept().unwrap();
            let handle = std::thread::spawn(move || {
                sender.write_all(b"GET / HTTP/1.1\r\n").unwrap();
                for _ in 0..20 {
                    std::thread::sleep(Duration::from_millis(20));
                    if sender.write_all(b"X-Trickle: a\r").is_err() {
                        return;
                    }
                }
            });
            (stream2, handle)
        };
        let mut conn2 = Conn::new(stream2);
        let t0 = Instant::now();
        let got = conn2.read_request(64, LONG, Duration::from_millis(120));
        assert!(matches!(got, Err(HttpError::Timeout)), "{got:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "deadline was not absolute: {:?}",
            t0.elapsed()
        );
        drop(conn2);
        handle.join().unwrap();
        drop(holder);
    }
}
