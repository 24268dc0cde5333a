//! Protocol and snapshot tests for the experiment server (ISSUE 9):
//! typed 4xx refusals, deterministic bodies across `--jobs` levels,
//! chunk framing on the streaming route, 429 backpressure with
//! `Retry-After`, and graceful drain. Response-body snapshots are
//! blessed files — re-bless with
//! `UPDATE_SNAPSHOTS=1 cargo test -p paccport-server`.

use paccport_core::coalesce::Gate;
use paccport_server::{http, Server, ServerConfig};

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start("127.0.0.1:0", cfg).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

fn snapshot(name: &str, got: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).expect("re-bless snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read blessed snapshot {}: {e}", path.display()));
    assert_eq!(
        got, want,
        "response for `{name}` drifted from the blessed snapshot; if \
         intentional, re-bless with UPDATE_SNAPSHOTS=1 cargo test -p paccport-server"
    );
}

#[test]
fn health_and_routing() {
    let (server, addr) = start(ServerConfig::default());
    let r = http::request(&addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(r.status, 200);
    let v = paccport_trace::json::parse(&r.body).expect("healthz is JSON");
    assert_eq!(v.get("ok").and_then(|b| b.as_bool()), Some(true));
    assert_eq!(v.get("queue_depth").and_then(|n| n.as_f64()), Some(0.0));
    // This very request is the one in flight.
    assert_eq!(v.get("in_flight").and_then(|n| n.as_f64()), Some(1.0));
    let rec = v.get("recorder").expect("recorder block");
    assert_eq!(rec.get("occupancy").and_then(|n| n.as_f64()), Some(0.0));
    assert_eq!(rec.get("cap").and_then(|n| n.as_f64()), Some(64.0));
    // `requests_served` counts completed requests; this one hasn't
    // finished yet, and a second probe sees it counted.
    assert_eq!(v.get("requests_served").and_then(|n| n.as_f64()), Some(0.0));
    let r2 = http::request(&addr, "GET", "/healthz", &[], "").unwrap();
    let v2 = paccport_trace::json::parse(&r2.body).unwrap();
    assert_eq!(
        v2.get("requests_served").and_then(|n| n.as_f64()),
        Some(1.0)
    );

    let r = http::request(&addr, "GET", "/nope", &[], "").unwrap();
    assert_eq!(r.status, 404);
    assert!(r.body.contains("no route `GET /nope`"));
    assert!(r.body.contains("POST /run"), "404 lists the routes");

    let r = http::request(&addr, "GET", "/run", &[], "").unwrap();
    assert_eq!(r.status, 405, "wrong method on a real route");
    stop(server);
}

#[test]
fn protocol_refusals_are_one_line_4xx() {
    let (server, addr) = start(ServerConfig::default());
    for (body, tenant, status, want) in [
        ("{not json", None, 400, "malformed JSON"),
        ("[1,2]", None, 400, "must be a JSON object"),
        ("", None, 400, "empty body"),
        (
            "{\"benchmark\":\"FFT\"}",
            None,
            400,
            "unknown benchmark `FFT`; known: BFS, BP, GE, Hydro, LUD",
        ),
        (
            "{\"benchmark\":\"LUD\",\"variant\":\"Fused\"}",
            None,
            400,
            "unknown variant `Fused`; known:",
        ),
        (
            "{\"benchmark\":\"LUD\",\"target\":\"A100\"}",
            None,
            400,
            "unknown target `A100`; known:",
        ),
        (
            "{\"scale\":\"galactic\"}",
            None,
            400,
            "unknown scale `galactic`; known: smoke, quick, paper",
        ),
        (
            "{\"benchmark\":\"Hydro\",\"target\":\"PGI-K40\"}",
            None,
            400,
            "no cell matches",
        ),
        ("{}", Some("bad tenant!"), 400, "invalid X-Tenant"),
    ] {
        let headers: Vec<(&str, &str)> = tenant.map(|t| ("X-Tenant", t)).into_iter().collect();
        // `/run` and `/stream` share one request prelude.
        for path in ["/run", "/stream"] {
            let r = http::request(&addr, "POST", path, &headers, body).unwrap();
            assert_eq!(r.status, status, "{path} {body:?}: {}", r.body);
            assert!(r.body.contains(want), "{path} {body:?} => {}", r.body);
            assert_eq!(r.body.matches('\n').count(), 1, "one-line error");
            paccport_trace::json::parse(&r.body).expect("error bodies are JSON");
        }
    }

    // Oversized body: refused before any parsing.
    let big = format!("{{\"pad\":\"{}\"}}", "x".repeat(http::MAX_BODY_BYTES));
    let r = http::request(&addr, "POST", "/run", &[], &big).unwrap();
    assert_eq!(r.status, 413);
    assert!(r.body.contains("exceeds"));
    stop(server);
}

#[test]
fn run_bodies_are_deterministic_across_jobs_and_snapshot() {
    let single = "{\"benchmark\":\"LUD\",\"variant\":\"Base\",\
                  \"target\":\"CAPS-CUDA-K40\",\"scale\":\"smoke\",\"seed\":7}";
    let multi = "{\"benchmark\":\"GE\",\"variant\":\"Base\",\
                 \"target\":\"*\",\"scale\":\"smoke\",\"seed\":7}";
    let mut bodies: Vec<(String, String)> = Vec::new();
    for jobs in [1usize, 4] {
        let (server, addr) = start(ServerConfig {
            jobs,
            ..Default::default()
        });
        let a = http::request(&addr, "POST", "/run", &[], single).unwrap();
        assert_eq!(a.status, 200, "{}", a.body);
        let b = http::request(&addr, "POST", "/run", &[], multi).unwrap();
        assert_eq!(b.status, 200, "{}", b.body);
        // Repeats are byte-stable within one server life.
        let a2 = http::request(&addr, "POST", "/run", &[], single).unwrap();
        assert_eq!(a.body, a2.body);
        bodies.push((a.body, b.body));
        stop(server);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "response bodies are byte-identical at --jobs 1 and --jobs 4"
    );
    let (single_body, multi_body) = &bodies[0];
    assert!(
        multi_body.contains("\"ok\":3"),
        "GE Base matches 3 OpenACC targets"
    );
    // Every body is parseable JSON with the documented shape.
    let v = paccport_trace::json::parse(single_body).unwrap();
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
    assert_eq!(
        v.get("cells").and_then(|c| c.as_arr()).map(|c| c.len()),
        Some(1)
    );
    snapshot("run_lud_base_caps_seed7.json", single_body);
    snapshot("run_ge_base_all_seed7.json", multi_body);
}

#[test]
fn streaming_frames_one_event_per_chunk() {
    let body = "{\"benchmark\":\"GE\",\"variant\":\"Base\",\"target\":\"*\",\
                \"scale\":\"smoke\",\"seed\":3}";
    let mut streams: Vec<Vec<String>> = Vec::new();
    for jobs in [1usize, 4] {
        let (server, addr) = start(ServerConfig {
            jobs,
            ..Default::default()
        });
        let r = http::request(&addr, "POST", "/stream", &[], body).unwrap();
        assert_eq!(r.status, 200);
        let chunks = r.chunks.expect("streaming route is chunked");
        streams.push(chunks);
        stop(server);
    }
    assert_eq!(streams[0], streams[1], "event stream is jobs-invariant");
    let chunks = &streams[0];
    assert_eq!(chunks.len(), 3 + 2, "start + one per cell + done");
    assert!(chunks[0].contains("\"event\":\"start\""));
    assert!(chunks[0].contains("\"cells\":3"));
    for (i, c) in chunks[1..4].iter().enumerate() {
        assert!(c.contains("\"event\":\"cell\""));
        assert!(c.contains(&format!("\"index\":{i}")), "events in order");
        paccport_trace::json::parse(c).expect("each chunk is one JSON line");
    }
    assert!(chunks[4].contains("\"event\":\"done\""));
    assert!(chunks[4].contains("\"ok\":3"));
    snapshot("stream_ge_base_all_seed3.ndjson", &chunks.concat());
}

#[test]
fn backpressure_answers_429_with_retry_after() {
    // One worker parked on the request gate + a queue of one: the
    // third concurrent request must be refused, deterministically.
    let request_gate = Gate::new();
    let (server, addr) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        request_gate: Some(request_gate.clone()),
        ..Default::default()
    });
    let addr1 = addr.clone();
    let addr2 = addr.clone();
    let h1 = std::thread::spawn(move || http::request(&addr1, "GET", "/healthz", &[], "").unwrap());
    // The single worker picks up request 1 and parks at the gate.
    request_gate.wait_parked(1);
    let h2 = std::thread::spawn(move || http::request(&addr2, "GET", "/healthz", &[], "").unwrap());
    // Request 2 lands in the admission queue (cap 1: now full).
    while server.queued() < 1 {
        std::thread::yield_now();
    }
    // Request 3 must bounce with Retry-After.
    let r = http::request(&addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(r.status, 429);
    assert_eq!(r.header("retry-after"), Some("1"));
    assert!(r.body.contains("admission queue full (cap 1)"));
    // Release the worker: both queued requests complete normally.
    request_gate.open();
    assert_eq!(h1.join().unwrap().status, 200);
    assert_eq!(h2.join().unwrap().status, 200);
    stop(server);
}

#[test]
fn a_silent_client_times_out_without_stalling_the_server() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    // One worker, parked at the gate until it holds the silent socket.
    let request_gate = Gate::new();
    let (server, addr) = start(ServerConfig {
        workers: 1,
        request_gate: Some(request_gate.clone()),
        ..Default::default()
    });
    let mut silent = TcpStream::connect(&addr).unwrap();
    request_gate.wait_parked(1);
    request_gate.open();
    let start = Instant::now();
    let mut probe = TcpStream::connect(&addr).unwrap();
    probe
        .write_all(format!("GET /healthz HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let health = http::read_response(&mut probe).expect("/healthz answers within 5 s");
    assert_eq!(health.status, 200);
    assert!(start.elapsed() < Duration::from_secs(5));
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let refused = http::read_response(&mut silent).expect("the silent socket is answered");
    assert_eq!(refused.status, 408, "{}", refused.body);
    assert!(
        refused.body.contains("timed out waiting"),
        "{}",
        refused.body
    );
    stop(server);
}

#[test]
fn an_endless_head_line_is_refused_431_as_it_arrives() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::Duration;
    let (server, addr) = start(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    // 1 MiB with no newline: the server must stop reading at its head
    // budget instead of buffering the line until the read times out.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let flood = std::thread::spawn(move || {
        // The server stops reading: this write may be cut short.
        let _ = writer.write_all(&vec![b'a'; 1 << 20]);
    });
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let refused = http::read_response(&mut conn).expect("the flood is answered");
    assert_eq!(refused.status, 431, "{}", refused.body);
    assert!(refused.body.contains("exceeds"), "{}", refused.body);
    drop(conn);
    flood.join().unwrap();
    let health = http::request(&addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(health.status, 200);
    stop(server);
}

#[test]
fn a_trickling_client_is_answered_408_at_the_request_deadline() {
    use std::io::Write;
    use std::net::TcpStream;
    use std::time::{Duration, Instant};
    let (server, addr) = start(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    // One byte a second keeps every read under READ_TIMEOUT; only the
    // deadline for the whole request ends it.
    let mut conn = TcpStream::connect(&addr).unwrap();
    let start = Instant::now();
    let mut writer = conn.try_clone().unwrap();
    let trickle = std::thread::spawn(move || {
        for &byte in b"GET /healthz HTTP/1.1\r\nX-Slow: zzzz" {
            if writer.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });
    let limit = http::REQUEST_DEADLINE + Duration::from_secs(1);
    conn.set_read_timeout(Some(limit)).unwrap();
    let refused = http::read_response(&mut conn).expect("answered at the deadline");
    assert_eq!(refused.status, 408, "{}", refused.body);
    assert!(start.elapsed() < limit, "{:?}", start.elapsed());
    // The worker is free again.
    let health = http::request(&addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(health.status, 200);
    drop(conn);
    trickle.join().unwrap();
    stop(server);
}

#[test]
fn shutdown_drains_gracefully() {
    let (server, addr) = start(ServerConfig::default());
    let warm = "{\"benchmark\":\"LUD\",\"variant\":\"Base\",\
                \"target\":\"CAPS-CUDA-K40\",\"scale\":\"smoke\",\"seed\":1}";
    assert_eq!(
        http::request(&addr, "POST", "/run", &[], warm)
            .unwrap()
            .status,
        200
    );
    let r = http::request(&addr, "POST", "/shutdown", &[], "").unwrap();
    assert_eq!((r.status, r.body.as_str()), (200, "{\"draining\":true}\n"));
    // New work is refused while draining…
    // (tolerating the race where the listener has already exited: an
    // error means the drain completed first and the socket is closed).
    if let Ok(refused) = http::request(&addr, "GET", "/healthz", &[], "") {
        assert_eq!(refused.status, 503);
        assert!(refused.body.contains("draining"));
    }
    // …and join() returns: every thread exits once in-flight work is
    // done (a hang here fails the test by timeout).
    server.join();
    assert!(
        http::request(&addr, "GET", "/healthz", &[], "").is_err(),
        "socket is closed after drain"
    );
}
