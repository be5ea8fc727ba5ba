//! Shared HTTP/1.1 client framing: the one implementation of
//! `Content-Length`-framed request/response exchange over a keep-alive
//! [`TcpStream`], used by the `loadgen` driver, the integration tests,
//! and the router tier's pooled backend connections.
//!
//! A [`ClientConn`] owns one connection and reads responses without
//! waiting for EOF, so the socket can carry the next request.
//! [`exchange_with_retry`] wraps the reconnect-once idiom every caller
//! needs: a server is allowed to close a keep-alive connection at any
//! time (idle deadline, per-connection request cap), and the benign
//! race where it does so as the client writes is healed by one fresh
//! dial — while connect failures surface immediately.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::http::MAX_HEAD_BYTES;

/// One parsed response: status, headers, `Content-Length` body, and
/// whether the server announced `Connection: close`.
#[derive(Debug)]
pub struct ClientResponse {
    /// The status code from the response line.
    pub status: u16,
    /// Every response header, `(name, value)`, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body, `Content-Length` bytes of it.
    pub body: Vec<u8>,
    /// Whether the server will close the connection after this
    /// response.
    pub close: bool,
}

impl ClientResponse {
    /// The first header with this name (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as text (lossy UTF-8).
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One client end of a keep-alive connection.
#[derive(Debug)]
pub struct ClientConn {
    reader: BufReader<TcpStream>,
}

impl ClientConn {
    /// Connects with the platform's default timeouts (reads block
    /// until the server answers).
    ///
    /// # Errors
    ///
    /// Connect failures.
    pub fn connect(addr: &str) -> io::Result<ClientConn> {
        Ok(ClientConn {
            reader: BufReader::new(TcpStream::connect(addr)?),
        })
    }

    /// Connects with a bounded dial and a per-read timeout — the
    /// router's flavor, where a dead backend must fail fast instead of
    /// holding a worker.
    ///
    /// # Errors
    ///
    /// Address resolution and connect failures (including a lapsed
    /// `connect` deadline).
    pub fn connect_timeout(
        addr: &str,
        connect: Duration,
        read: Duration,
    ) -> io::Result<ClientConn> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, connect)?;
        stream.set_read_timeout(Some(read))?;
        Ok(ClientConn {
            reader: BufReader::new(stream),
        })
    }

    /// One request/response exchange: writes `request` verbatim, reads
    /// one `Content-Length`-framed response. The response head is
    /// capped at the server's own request-head limit (16 KiB), and the
    /// body is read as it arrives, never preallocated from the peer's
    /// declared length.
    ///
    /// # Errors
    ///
    /// Socket failures, EOF before or inside the response, and read
    /// timeouts (when armed via [`ClientConn::connect_timeout`]);
    /// [`io::ErrorKind::InvalidData`] for an oversized head or an
    /// unparsable `Content-Length`.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<ClientResponse> {
        let mut stream = self.reader.get_ref();
        stream.write_all(request)?;

        let mut head = (&mut self.reader).take(MAX_HEAD_BYTES as u64);
        let mut line = String::new();
        if head.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the response",
            ));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        let mut close = false;
        loop {
            line.clear();
            if head.read_line(&mut line)? == 0 {
                return Err(if head.limit() == 0 {
                    invalid("response head too large")
                } else {
                    io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed inside response headers",
                    )
                });
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| invalid("unparsable Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    close = true;
                }
                headers.push((name.to_string(), value.to_string()));
            }
        }
        let mut body = Vec::new();
        (&mut self.reader)
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed inside the response body",
            ));
        }
        Ok(ClientResponse {
            status,
            headers,
            body,
            close,
        })
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// One exchange over a fresh short-lived connection. The request
/// should carry `Connection: close` so keep-alive servers release the
/// socket.
///
/// # Errors
///
/// Connect and exchange failures.
pub fn exchange_once(addr: &str, request: &[u8]) -> io::Result<ClientResponse> {
    ClientConn::connect(addr)?.exchange(request)
}

/// Exchanges `request` over the pooled connection in `slot`, dialing
/// with `dial` when the slot is empty. An exchange failure clears the
/// slot and retries (with a fresh dial) up to `attempts` total tries —
/// healing the benign keep-alive close race — while a *dial* failure
/// surfaces immediately: the peer is down, not mid-close. A response
/// announcing `Connection: close` empties the slot.
///
/// Returns the response plus how many dials were performed (the
/// caller's reconnect accounting).
///
/// # Errors
///
/// The first dial failure, or the last exchange failure once
/// `attempts` is exhausted.
pub fn exchange_with_retry(
    slot: &mut Option<ClientConn>,
    mut dial: impl FnMut() -> io::Result<ClientConn>,
    request: &[u8],
    attempts: usize,
) -> io::Result<(ClientResponse, usize)> {
    let mut dialed = 0usize;
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        let conn = match slot.as_mut() {
            Some(conn) => conn,
            None => {
                dialed += 1;
                slot.insert(dial()?)
            }
        };
        match conn.exchange(request) {
            Ok(response) => {
                if response.close {
                    *slot = None;
                }
                return Ok((response, dialed));
            }
            Err(e) => {
                *slot = None;
                if attempt >= attempts.max(1) {
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::write_response_with;
    use std::net::TcpListener;

    /// A one-shot server: accepts one connection, answers `n`
    /// responses, closes.
    fn serve_n(listener: TcpListener, n: usize, close_last: bool) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0u8; 4096];
            for i in 0..n {
                let _ = stream.read(&mut buf).unwrap();
                let close = close_last && i + 1 == n;
                write_response_with(
                    &mut &stream,
                    200,
                    "text/plain",
                    &[("X-Req", &format!("{i}"))],
                    format!("body{i}").as_bytes(),
                    close,
                )
                .unwrap();
            }
        })
    }

    #[test]
    fn exchanges_keep_alive_responses_with_headers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = serve_n(listener, 2, true);
        let mut conn = ClientConn::connect(&addr).unwrap();
        let first = conn.exchange(b"GET /a HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, b"body0");
        assert_eq!(first.header("x-req"), Some("0"), "case-insensitive");
        assert!(!first.close);
        let second = conn.exchange(b"GET /b HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(second.body_str(), "body1");
        assert!(second.close);
        server.join().unwrap();
    }

    #[test]
    fn retry_heals_a_server_close_but_reports_dial_failures() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // First connection answers once and closes; a retry must dial
        // fresh and land on the second accept.
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf).unwrap();
                write_response_with(&mut &stream, 200, "text/plain", &[], b"ok", true).unwrap();
            }
        });
        let mut slot = None;
        let dial = || ClientConn::connect(&addr);
        let (resp, dialed) =
            exchange_with_retry(&mut slot, dial, b"GET / HTTP/1.1\r\n\r\n", 2).unwrap();
        assert_eq!((resp.status, dialed), (200, 1));
        assert!(slot.is_none(), "close empties the slot");
        // Slot is empty: the next exchange dials again.
        let (resp, dialed) =
            exchange_with_retry(&mut slot, dial, b"GET / HTTP/1.1\r\n\r\n", 2).unwrap();
        assert_eq!((resp.status, dialed), (200, 1));
        server.join().unwrap();

        // A dead listener: the dial failure surfaces on the first try.
        let dead = TcpListener::bind("127.0.0.1:0").unwrap();
        let gone = dead.local_addr().unwrap().to_string();
        drop(dead);
        let mut slot = None;
        assert!(exchange_with_retry(
            &mut slot,
            || ClientConn::connect_timeout(
                &gone,
                Duration::from_millis(200),
                Duration::from_millis(200)
            ),
            b"GET / HTTP/1.1\r\n\r\n",
            3,
        )
        .is_err());
    }
}
