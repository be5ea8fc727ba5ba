//! The shared HTTP client against misbehaving peers: a response that
//! declares a huge body, one whose head never ends, and one with an
//! unparsable `Content-Length` each fail the exchange with an error
//! instead of aborting the process or desynchronizing the connection.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

use reshuffle_server::ClientConn;

/// A one-shot peer: accepts one connection, reads the request, and
/// hands the socket to `respond`. Returns the peer's address.
fn peer(respond: impl FnOnce(TcpStream) + Send + 'static) -> (String, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf).unwrap();
        respond(stream);
    });
    (addr, handle)
}

/// One exchange with the peer, failing fast rather than hanging.
fn exchange_err(addr: &str) -> std::io::Error {
    let mut conn =
        ClientConn::connect_timeout(addr, Duration::from_secs(5), Duration::from_secs(5)).unwrap();
    conn.exchange(b"GET / HTTP/1.1\r\n\r\n").unwrap_err()
}

#[test]
fn a_huge_content_length_is_read_as_it_arrives() {
    let (addr, peer) = peer(|mut s| {
        s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nshort")
            .unwrap();
    });
    let e = exchange_err(&addr);
    assert_eq!(e.kind(), ErrorKind::UnexpectedEof, "{e}");
    peer.join().unwrap();
}

#[test]
fn an_endless_response_head_is_capped() {
    let (addr, peer) = peer(|mut s| {
        let _ = s.write_all(b"HTTP/1.1 200 OK\r\n");
        // Far past the cap, then hold the connection open until the
        // client gives up on it.
        for _ in 0..4096 {
            if s.write_all(b"X-Pad: 0123456789abcdef\r\n").is_err() {
                return;
            }
        }
        let _ = s.read(&mut [0u8; 1]);
    });
    let e = exchange_err(&addr);
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
    peer.join().unwrap();
}

#[test]
fn an_unparsable_content_length_is_invalid_data() {
    let (addr, peer) = peer(|mut s| {
        s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n0123456789")
            .unwrap();
    });
    let e = exchange_err(&addr);
    assert_eq!(e.kind(), ErrorKind::InvalidData, "{e}");
    peer.join().unwrap();
}
