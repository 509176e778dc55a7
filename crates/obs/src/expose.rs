//! Minimal HTTP/1.1 endpoint serving the Prometheus text exposition of
//! the global registry, for `linrec serve --metrics ADDR`.
//!
//! One accept loop on a background thread, one request per connection
//! (`Connection: close`). `GET /metrics` (or `/`) returns the
//! exposition; anything else is 404. Deliberately not a web server —
//! just enough HTTP for a scraper.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::metrics::registry;

fn respond(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head; we only need the request line.
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 256];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&byte[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8192 {
            break;
        }
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let (status, body) = if method == "GET" && (path == "/metrics" || path == "/") {
        ("200 OK", registry().render_prometheus())
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let reply = format!(
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(reply.as_bytes())
}

/// Bind `addr` (e.g. `127.0.0.1:9464`; port 0 picks a free port) and
/// serve the metrics exposition from a background thread. Returns the
/// bound address. The thread runs for the life of the process.
pub fn serve_metrics(addr: &str) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    std::thread::Builder::new()
        .name("linrec-metrics".into())
        .spawn(move || {
            for mut stream in listener.incoming().flatten() {
                let _ = respond(&mut stream);
            }
        })?;
    Ok(bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_roundtrip() {
        crate::counter!("expose_test_total").inc_by(5);
        let addr = serve_metrics("127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"));
        assert!(reply.contains("text/plain; version=0.0.4"));
        assert!(reply.contains("expose_test_total 5"));

        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 404"));
    }
}
