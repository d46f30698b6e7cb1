//! Minimal std-only `/metrics` HTTP responder.
//!
//! One accept-loop thread on a `TcpListener`, speaking just enough
//! HTTP/1.0 for a scraper: `GET /metrics` returns the Prometheus text
//! exposition, `GET /metrics.json` the JSON snapshot, anything else
//! 404. Every response closes its connection, so there is no keep-alive
//! state to manage and the responder can never hold more than one
//! socket per scrape. This is deliberately not a web server — it is the
//! smallest observable surface that lets `curl`/Prometheus watch a run,
//! and the first stepping stone toward the ROADMAP wire-protocol item.
//!
//! Shutdown uses the standard self-connect trick: `accept` has no
//! portable timeout, so [`MetricsServer::drop`] sets a stop flag and
//! dials its own listener to unblock the loop. The `AtomicBool` lives
//! outside `crates/sync` and is carried by the lint allowlist — it is
//! control-plane-only (one store at shutdown, one load per accept) and
//! publishes nothing.

use crate::registry::MetricsRegistry;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Per-connection I/O timeout: a stuck scraper must not wedge the
/// accept loop.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running `/metrics` responder. Dropping it stops the listener.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9464`, port 0 for an ephemeral
    /// port — read it back with [`addr`](Self::addr)) and start serving
    /// snapshots of `registry`.
    pub fn start(registry: Arc<MetricsRegistry>, addr: &str) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let loop_stop = Arc::clone(&stop);
        let handle = thread::Builder::new().name("obfs-metrics-http".into()).spawn(move || {
            for conn in listener.incoming() {
                if loop_stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Ok(stream) = conn {
                    let _ = serve_one(&registry, stream);
                }
            }
        })?;
        Ok(MetricsServer { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock accept(); an error just means the listener died first.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn serve_one(registry: &MetricsRegistry, mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    // Read the request head (we only need the request line; HTTP GET
    // has no body). Bounded so a hostile peer cannot grow the buffer.
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 4096 {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => head.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
        // A bare request line + one newline is enough to route.
        if head.windows(2).any(|w| w == b"\r\n") && head.starts_with(b"GET ") {
            break;
        }
    }
    let line = String::from_utf8_lossy(&head);
    let path = line.strip_prefix("GET ").and_then(|r| r.split_whitespace().next());
    let (status, ctype, body) = match path {
        Some("/metrics") => ("200 OK", "text/plain; version=0.0.4", registry.render_text()),
        Some("/metrics.json") => ("200 OK", "application/json", registry.to_json().render()),
        _ => ("404 Not Found", "text/plain; version=0.0.4", "not found\n".to_string()),
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

/// Curl-equivalent std scraper: `GET path` from `addr`, returning the
/// response body on a 200 and an error otherwise. Used by
/// `bombard --metrics-addr`, CI, and the tests — validating a live
/// endpoint needs no external tooling.
pub fn scrape(addr: impl ToSocketAddrs, path: &str) -> io::Result<String> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: obfs\r\n\r\n").as_bytes())?;
    let mut resp = String::new();
    stream.read_to_string(&mut resp)?;
    let (headers, body) = resp
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed HTTP response"))?;
    let status_line = headers.lines().next().unwrap_or("");
    if !status_line.contains(" 200 ") {
        return Err(io::Error::other(format!("scrape {path}: {status_line}")));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use obfs_sync::Clock;

    #[test]
    fn serves_text_and_json_and_404s() {
        let (clock, _hand) = Clock::manual();
        let reg = MetricsRegistry::new(clock);
        reg.counter("t_total", "test").add(3);
        let srv = MetricsServer::start(Arc::clone(&reg), "127.0.0.1:0").unwrap();
        let addr = srv.addr();

        let text = scrape(addr, "/metrics").unwrap();
        let parsed = crate::parse_exposition(&text).unwrap();
        assert_eq!(crate::sample(&parsed, "t_total"), Some(3.0));

        let json = scrape(addr, "/metrics.json").unwrap();
        let j = obfs_util::Json::parse(&json).unwrap();
        let arr = j.get("metrics").and_then(obfs_util::Json::as_arr).unwrap();
        assert_eq!(arr[0].get("value").and_then(obfs_util::Json::as_u64), Some(3));

        assert!(scrape(addr, "/nope").is_err());

        // Scrapes observe live updates.
        reg.counter("t_total", "test").add(2);
        let text = scrape(addr, "/metrics").unwrap();
        let parsed = crate::parse_exposition(&text).unwrap();
        assert_eq!(crate::sample(&parsed, "t_total"), Some(5.0));
        drop(srv); // clean shutdown joins the accept thread
    }
}
