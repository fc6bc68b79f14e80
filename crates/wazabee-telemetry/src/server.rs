//! Live snapshot server: a tiny std-only endpoint serving the current
//! telemetry state as JSON while a run is in flight.
//!
//! Opt-in: set `WAZABEE_TELEMETRY_ADDR` to a TCP address (`127.0.0.1:9090`)
//! or — if the value contains a `/` — a unix-socket path, and call
//! [`serve_from_env`] (the bench binaries and `examples/support.rs` session
//! guard do). A detached daemon thread then answers every connection;
//! HTTP/1.1 clients are kept alive and can issue many sequential requests
//! over one connection (a dashboard polling a long-running serve process),
//! while HTTP/1.0 requests get the original one-shot close-after-answer
//! response. Three routes:
//!
//! * `/` — [`crate::snapshot_json`]: counters and labeled cells, gauges,
//!   histograms, alerts, stage profile and wall-clock series at that instant;
//! * `/healthz` — one watchdog tick over the armed [`crate::HealthRule`]s;
//!   `200 OK` while no alert has latched, `503 Service Unavailable` once one
//!   has, body [`crate::health_json`] either way — a CI gate or service
//!   supervisor needs only the status line;
//! * `/trace` — the causal trace ring as Chrome Trace Event JSON
//!   ([`crate::trace_chrome_json`]), loadable in Perfetto. Setting
//!   `WAZABEE_TELEMETRY_ADDR` attaches the trace consumer, so the ring
//!   records; a program calling [`serve`] itself attaches with
//!   [`crate::set_trace_attached`].
//!
//! Anything else is a `404` with a JSON error body.
//!
//! ```text
//! WAZABEE_TELEMETRY_ADDR=127.0.0.1:9090 netsim_scale --smoke &
//! curl -s http://127.0.0.1:9090/healthz | python3 -m json.tool
//! ```
//!
//! The protocol is deliberately minimal — any HTTP client works, but so does
//! `nc`: each request is read only up to its blank line, only the request
//! line's path is examined (a bare `nc` paste with no parsable request line
//! gets the `/` snapshot and a close), and only an `HTTP/1.1` request line
//! without `Connection: close` keeps the connection open. With
//! `WAZABEE_TELEMETRY_ADDR` unset the endpoint does not exist:
//! [`serve_from_env`] returns `Ok(None)` without binding anything.

use std::io;

use std::io::{Read, Write};

/// Environment variable naming the snapshot listen address (see
/// [`serve_from_env`]).
pub const ENV_ADDR: &str = "WAZABEE_TELEMETRY_ADDR";

/// If `WAZABEE_TELEMETRY_ADDR` is set, binds
/// the snapshot server there and returns `Ok(Some(bound_addr))`; otherwise
/// returns `Ok(None)`.
pub fn serve_from_env() -> io::Result<Option<String>> {
    match std::env::var(ENV_ADDR) {
        Ok(addr) if !addr.is_empty() => serve(&addr).map(Some),
        _ => Ok(None),
    }
}

/// Binds the snapshot server on `addr` and returns the bound address.
///
/// An `addr` containing `/` is treated as a unix-socket path (any stale
/// socket file is replaced); anything else as a TCP address, where port `0`
/// picks a free port — the returned string carries the real one.
pub fn serve(addr: &str) -> io::Result<String> {
    if addr.contains('/') {
        serve_unix(addr)
    } else {
        serve_tcp(addr)
    }
}

fn serve_tcp(addr: &str) -> io::Result<String> {
    let listener = std::net::TcpListener::bind(addr)?;
    let bound = listener.local_addr()?.to_string();
    std::thread::Builder::new()
        .name("wazabee-telemetry-server".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { continue };
                // Bound the wait for the request's blank line so one silent
                // client cannot wedge the accept loop.
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
                let _ = answer(&mut stream);
            }
        })?;
    Ok(bound)
}

fn serve_unix(path: &str) -> io::Result<String> {
    use std::os::unix::net::UnixListener;
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let bound = path.to_string();
    std::thread::Builder::new()
        .name("wazabee-telemetry-server".into())
        .spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut stream) = conn else { continue };
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
                let _ = answer(&mut stream);
            }
        })?;
    Ok(bound)
}

/// Upper bound on requests answered over one kept-alive connection, so a
/// misbehaving poller cannot pin the accept loop's handler forever.
const MAX_KEEPALIVE_REQUESTS: usize = 1024;

/// Longest request head read before answering anyway.
const MAX_HEAD: usize = 1024;

/// Serves a connection: reads requests up to their blank line, routes on the
/// request-line path and writes one JSON response per request.
///
/// HTTP/1.1 requests are kept alive — the handler loops and answers every
/// sequential request on the connection until the client closes it, sends
/// `Connection: close`, or the per-connection request cap is reached — so a
/// live dashboard can poll a long-running serve process over one connection.
/// Bytes read past one request's blank line are the start of the next
/// (pipelined) request and are kept for it. HTTP/1.0 requests (and bare
/// non-HTTP pokes) keep the original one-shot close-after-answer behaviour.
fn answer<S: Read + Write>(stream: &mut S) -> io::Result<()> {
    let mut pending: Vec<u8> = Vec::with_capacity(MAX_HEAD);
    let mut chunk = [0u8; MAX_HEAD];
    for _ in 0..MAX_KEEPALIVE_REQUESTS {
        let mut end = head_end(&pending);
        while end.is_none() && pending.len() < MAX_HEAD {
            let n = stream.read(&mut chunk[..MAX_HEAD - pending.len()])?;
            if n == 0 {
                break;
            }
            pending.extend_from_slice(&chunk[..n]);
            end = head_end(&pending);
        }
        if pending.is_empty() {
            return Ok(()); // client closed between requests
        }
        // No blank line within MAX_HEAD bytes (or before EOF): answer anyway.
        let req: Vec<u8> = pending.drain(..end.unwrap_or(pending.len())).collect();
        let head = String::from_utf8_lossy(&req).to_string();
        let http11 = is_http11(&head);
        let keep_alive = wants_keep_alive(&head);
        let path = request_path(&req);
        let (status, body) = match path.as_str() {
            "/" => ("200 OK", crate::snapshot_json()),
            "/healthz" => {
                let body = crate::health_json();
                let status = if body.starts_with("{\"status\":\"ok\"") {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                };
                (status, body)
            }
            "/trace" => ("200 OK", crate::trace_chrome_json()),
            other => {
                let mut body = String::new();
                crate::json::Writer::new(&mut body)
                    .begin_object()
                    .field("error", "no such route")
                    .field("path", other)
                    .key("routes")
                    .begin_array()
                    .value("/")
                    .value("/healthz")
                    .value("/trace")
                    .end_array()
                    .end_object();
                ("404 Not Found", body)
            }
        };
        // The response version mirrors the request's; the Connection header
        // carries the disposition (an HTTP/1.1 `Connection: close` request
        // still gets an HTTP/1.1 response — just a closing one).
        let version = if http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let header = format!(
            "{version} {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            body.len()
        );
        stream.write_all(header.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        if !keep_alive {
            return Ok(());
        }
    }
    Ok(())
}

/// Length of the first request head in `buf`, through its blank line
/// (`\r\n\r\n` or a bare `\n\n`), if one is complete.
fn head_end(buf: &[u8]) -> Option<usize> {
    let crlf = buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|p| p + 2);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Whether the request line declares `HTTP/1.1` — drives the version echoed
/// on the response's status line. Non-HTTP pokes count as 1.0.
fn is_http11(head: &str) -> bool {
    head.lines()
        .next()
        .is_some_and(|l| l.trim_end().ends_with("HTTP/1.1"))
}

/// Whether the request asks to keep the connection open: an `HTTP/1.1`
/// request line (where keep-alive is the default) without a
/// `Connection: close` header. HTTP/1.0 requests and non-HTTP pokes close.
fn wants_keep_alive(head: &str) -> bool {
    if !is_http11(head) {
        return false;
    }
    !head.lines().skip(1).any(|l| {
        let lower = l.to_ascii_lowercase();
        lower.starts_with("connection:") && lower.contains("close")
    })
}

/// Extracts the path from an HTTP request line (`GET /x HTTP/1.1`). Query
/// strings are stripped; anything that does not look like a request line —
/// e.g. a bare `nc` connection that just sent a newline — maps to `/` so the
/// pre-routing snapshot behaviour survives.
fn request_path(req: &[u8]) -> String {
    let text = String::from_utf8_lossy(req);
    let first_line = text.lines().next().unwrap_or("");
    let mut tokens = first_line.split_whitespace();
    match (tokens.next(), tokens.next()) {
        (Some(_method), Some(path)) if path.starts_with('/') => {
            path.split(['?', '#']).next().unwrap_or("/").to_string()
        }
        _ => "/".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_server_answers_with_snapshot_json() {
        let _lock = crate::test_lock();
        crate::counter!("server.test.alive").inc();
        let addr = serve("127.0.0.1:0").unwrap();
        let response = http_get_path(&addr, "/");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(
            response.contains("Content-Type: application/json"),
            "{response}"
        );
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
        assert!(body.contains("\"server.test.alive\""), "{body}");
        // Advertised length matches the body we actually got.
        let len: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
    }

    #[test]
    fn server_survives_multiple_requests() {
        let _lock = crate::test_lock();
        let addr = serve("127.0.0.1:0").unwrap();
        for _ in 0..3 {
            let response = http_get_path(&addr, "/");
            assert!(response.starts_with("HTTP/1.0 200 OK"));
        }
    }

    #[test]
    fn unix_socket_path_is_detected_by_slash() {
        let _lock = crate::test_lock();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("wzb-telemetry-test-{}.sock", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let bound = serve(&path_str).unwrap();
        assert_eq!(bound, path_str);
        let mut stream = std::os::unix::net::UnixStream::connect(&path).unwrap();
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serve_from_env_is_noop_when_unset() {
        if std::env::var_os(ENV_ADDR).is_none() {
            assert!(serve_from_env().unwrap().is_none());
        }
    }

    fn http_get_path(addr: &str, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn trace_route_serves_chrome_trace_json() {
        let _lock = crate::test_lock();
        let addr = serve("127.0.0.1:0").unwrap();
        let response = http_get_path(&addr, "/trace");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.starts_with("{\"traceEvents\":["), "{body}");
    }

    #[test]
    fn healthz_route_reports_status_line() {
        let _lock = crate::test_lock();
        crate::reset();
        let addr = serve("127.0.0.1:0").unwrap();
        // No rule has latched after reset: healthy.
        let response = http_get_path(&addr, "/healthz");
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("\"status\":\"ok\""), "{response}");
        // Arm a rule and trip it: the same endpoint flips to 503.
        crate::health_rule!(
            "server.test.tripwire",
            crate::Signal::counter("server.test.bad_things"),
            > 0.0
        );
        crate::counter!("server.test.bad_things").inc();
        let response = http_get_path(&addr, "/healthz");
        assert!(
            response.starts_with("HTTP/1.0 503 Service Unavailable"),
            "{response}"
        );
        assert!(response.contains("\"status\":\"alert\""), "{response}");
        crate::reset();
    }

    #[test]
    fn unknown_route_is_404_and_bare_nc_gets_snapshot() {
        let _lock = crate::test_lock();
        let addr = serve("127.0.0.1:0").unwrap();
        let response = http_get_path(&addr, "/nope");
        assert!(response.starts_with("HTTP/1.0 404 Not Found"), "{response}");
        assert!(response.contains("\"error\""), "{response}");
        // A non-HTTP client that just pokes the socket still gets the
        // snapshot (the nc-friendly fallback).
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(b"\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
        assert!(out.contains("wazabee.telemetry.snapshot/1"), "{out}");
    }

    /// Reads exactly one HTTP response (headers + Content-Length body) off a
    /// kept-alive stream, leaving the connection open for the next request.
    fn read_one_response<S: Read>(stream: &mut S) -> String {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        // Headers, byte at a time, until the blank line.
        while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
            assert_eq!(
                stream.read(&mut byte).unwrap(),
                1,
                "connection closed early"
            );
            buf.push(byte[0]);
        }
        let head = String::from_utf8_lossy(&buf).to_string();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        let mut got = 0usize;
        while got < len {
            let n = stream.read(&mut body[got..]).unwrap();
            assert!(n > 0, "connection closed mid-body");
            got += n;
        }
        head + &String::from_utf8_lossy(&body)
    }

    #[test]
    fn http11_connection_serves_sequential_requests() {
        let _lock = crate::test_lock();
        crate::counter!("server.test.keepalive").inc();
        let addr = serve("127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        // Three sequential requests over ONE connection — a polling
        // dashboard's access pattern against a long-running serve process.
        for path in ["/", "/trace", "/"] {
            stream
                .write_all(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
                .unwrap();
            let response = read_one_response(&mut stream);
            assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
            assert!(response.contains("Connection: keep-alive"), "{response}");
        }
        // `Connection: close` ends the keep-alive loop server-side.
        stream
            .write_all(b"GET / HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut rest = String::new();
        stream.read_to_string(&mut rest).unwrap();
        assert!(rest.starts_with("HTTP/1.1 200 OK"), "{rest}");
        assert!(rest.contains("Connection: close"), "{rest}");
    }

    #[test]
    fn pipelined_requests_in_one_write_get_two_responses() {
        let _lock = crate::test_lock();
        let addr = serve("127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        // Both requests arrive in one segment: the bytes after the first
        // blank line are the second request and must not be discarded.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let first = read_one_response(&mut stream);
        assert!(first.contains("Connection: keep-alive"), "{first}");
        assert!(first.contains("\"status\":"), "{first}");
        let second = read_one_response(&mut stream);
        assert!(second.starts_with("HTTP/1.1 200 OK"), "{second}");
        assert!(second.contains("Connection: close"), "{second}");
        assert!(second.contains("wazabee.telemetry.snapshot/1"), "{second}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "unexpected trailing bytes");
    }

    #[test]
    fn head_end_finds_the_first_blank_line() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nGET"), Some(18));
        assert_eq!(head_end(b"GET /\n\nrest"), Some(7));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
        assert_eq!(head_end(b""), None);
    }

    #[test]
    fn http10_stays_one_shot() {
        let _lock = crate::test_lock();
        let addr = serve("127.0.0.1:0").unwrap();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"GET / HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        // read_to_string only returns when the server closes the socket —
        // the legacy one-shot contract.
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.0 200 OK"), "{out}");
        assert!(out.contains("Connection: close"), "{out}");
    }

    #[test]
    fn wants_keep_alive_parses_versions_and_headers() {
        assert!(wants_keep_alive("GET / HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(!wants_keep_alive("GET / HTTP/1.0\r\nHost: x\r\n\r\n"));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        ));
        assert!(!wants_keep_alive(
            "GET / HTTP/1.1\r\nCONNECTION: Close\r\n\r\n"
        ));
        assert!(!wants_keep_alive("\r\n"));
        assert!(!wants_keep_alive(""));
    }

    #[test]
    fn request_path_parses_and_strips_queries() {
        assert_eq!(request_path(b"GET / HTTP/1.1\r\n\r\n"), "/");
        assert_eq!(request_path(b"GET /healthz HTTP/1.0\r\n\r\n"), "/healthz");
        assert_eq!(request_path(b"GET /trace?x=1 HTTP/1.1\r\n\r\n"), "/trace");
        assert_eq!(request_path(b"\r\n"), "/");
        assert_eq!(request_path(b""), "/");
        assert_eq!(request_path(b"hello there"), "/");
    }
}
