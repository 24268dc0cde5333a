//! # paccport-server — the experiment matrix as a persistent service
//!
//! `reproduce serve` turns the one-shot batch CLI into a resident
//! experiment server (ROADMAP open item 3): a hand-rolled HTTP/1.1 +
//! JSON service over `std::net::TcpListener` that accepts requests
//! naming a slice of the paper's benchmark matrix —
//! `(benchmark × variant × target × scale × seed)` — and executes
//! them on the shared work-stealing [`Engine`] against its one
//! [`ArtifactCache`].
//!
//! The serving layer adds what a batch run never needed:
//!
//! * **admission control** — a bounded queue; when it is full the
//!   server answers `429 Too Many Requests` with `Retry-After`
//!   instead of queueing unboundedly;
//! * **request coalescing** — N identical concurrent requests run
//!   once ([`Singleflight`]) and share one byte-identical body, on
//!   top of the cache's compile-level singleflight;
//! * **capacity policy** — the artifact cache gains an LRU byte cap
//!   and per-tenant quotas keyed by the `X-Tenant` header;
//! * **streaming** — `/stream` emits one chunked progress event per
//!   cell as it completes;
//! * **graceful drain** — SIGTERM or `POST /shutdown` stops
//!   admission, finishes everything in flight, then exits;
//! * **live metrics** — `GET /metrics` renders the PR-5 registry in
//!   Prometheus text format, including the fault-injection ledger;
//! * **request-scoped tracing** — every request carries a trace id
//!   (a pure function of `(request fingerprint, seed)`, or the
//!   client's `traceparent`/`X-Request-Id` when supplied), runs its
//!   engine work under a [`paccport_trace::request_scope`], and
//!   leaves a normalized span tree in the [`recorder::FlightRecorder`]
//!   — queryable via `GET /trace/<id>` and indexed by `GET /traces`.
//!   Coalesced followers share the leader's trace id, so a duplicate
//!   request's response names the trace that actually executed.
//!
//! Every response body is a pure function of `(request, seed)`:
//! byte-identical across `--jobs` levels, across repeated requests,
//! and across server restarts — and so is every recorded trace body.
//! [`loadgen`] leans on that to produce deterministic latency/SLO
//! reports from a virtual-clock model.

pub mod http;
pub mod loadgen;
pub mod protocol;
pub mod recorder;

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use paccport_compilers::ArtifactCache;
use paccport_core::coalesce::{Gate, Singleflight};
use paccport_core::serve::{self, CellOutcome};
use paccport_core::{CheckCell, Engine};
use paccport_trace::context;
use paccport_trace::export::TraceFormat;
use paccport_trace::metrics::{counter_add, observe, observe_exemplar};

use protocol::{CellReport, RunRequest};
use recorder::{FlightRecorder, RequestTrace};

/// Tuning and test hooks for [`Server::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Engine parallelism inside one request (cells fan out over
    /// this many workers; results keep submission order).
    pub jobs: usize,
    /// Concurrent request handlers.
    pub workers: usize,
    /// Admission queue bound; one more request than this answers 429.
    pub queue_cap: usize,
    /// LRU cap for the artifact cache, in the cache's size units
    /// (`None` = unbounded; see `ArtifactCache::set_byte_cap`).
    pub cache_bytes: Option<u64>,
    /// Per-tenant cache quota, in the same units (`None` = unbounded).
    pub tenant_quota: Option<u64>,
    /// Test hook: every request handler passes this gate before
    /// reading the request, so tests can park workers and fill the
    /// admission queue deterministically.
    pub request_gate: Option<Arc<Gate>>,
    /// Test hook: the coalescing leader passes this gate inside its
    /// flight, so tests can pile followers onto it deterministically.
    pub run_gate: Option<Arc<Gate>>,
    /// How many completed request traces the flight recorder retains
    /// (ring buffer; clamped to >= 1).
    pub recorder_cap: usize,
    /// Structured JSONL access log: one line per handled request
    /// (route, tenant, trace id, queue depth at admission, coalesced
    /// or led, modeled service seconds, status).
    pub access_log: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            jobs: 1,
            workers: 4,
            queue_cap: 64,
            cache_bytes: None,
            tenant_quota: None,
            request_gate: None,
            run_gate: None,
            recorder_cap: 64,
            access_log: None,
        }
    }
}

/// The shared outcome of one coalesced `/run` execution: what every
/// rider on the flight answers with, plus the trace identity of the
/// execution that produced it.
pub struct Flight {
    pub status: u16,
    pub body: String,
    pub trace_id: String,
    /// Modeled service seconds (sum over response cells) — what the
    /// latency histograms observe and loadgen's queue model consumes.
    pub service_s: f64,
}

struct Inner {
    cfg: ServerConfig,
    /// Runs every cell; its artifact cache is the server's one cache.
    engine: Engine,
    flights: Singleflight<Flight>,
    /// Admitted connections, each with the queue depth it saw at
    /// admission (surfaced in the access log).
    queue: Mutex<VecDeque<(TcpStream, usize)>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// The listener's address, for [`begin_drain`]'s wake-up connect.
    addr: SocketAddr,
    /// The local address of that wake-up connection, once made: the
    /// accept loop drops it unanswered and uncounted.
    waker: Mutex<Option<SocketAddr>>,
    in_flight: AtomicUsize,
    recorder: FlightRecorder,
    access: Option<Mutex<std::fs::File>>,
    served: AtomicU64,
    /// Request-context ordinals for [`paccport_trace::request_scope`];
    /// 0 is reserved for "outside any request".
    next_ctx: AtomicU64,
}

/// A running experiment server; dropping the handle does not stop it
/// — call [`Server::shutdown`] (or hit `/shutdown`, or send SIGTERM to
/// a process waiting in [`Server::drain_on_sigterm`]) and
/// then [`Server::join`] for a graceful drain.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Route SIGTERM to a graceful drain of the [`Server`] whose owner
/// waits in [`Server::drain_on_sigterm`]. Installed by `reproduce
/// serve`; a no-op off Unix.
pub fn install_sigterm_drain() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM_NO: i32 = 15;
        unsafe {
            signal(SIGTERM_NO, on_sigterm as extern "C" fn(i32) as usize);
        }
    }
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port, then read
    /// [`Server::addr`]) and start accepting.
    pub fn start(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let access = match &cfg.access_log {
            Some(path) => Some(Mutex::new(std::fs::File::create(path)?)),
            None => None,
        };
        // The flight recorder drains span events per request context,
        // and `/metrics` renders the registry — both collectors must
        // be on for those routes to have anything to say.
        paccport_trace::set_events_enabled(true);
        paccport_trace::metrics::set_metrics_enabled(true);
        let inner = Arc::new(Inner {
            engine: Engine::new(cfg.jobs),
            flights: Singleflight::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            addr: local,
            waker: Mutex::new(None),
            in_flight: AtomicUsize::new(0),
            recorder: FlightRecorder::new(cfg.recorder_cap),
            access,
            served: AtomicU64::new(0),
            next_ctx: AtomicU64::new(1),
            cfg,
        });
        let cache = inner.engine.cache();
        cache.set_byte_cap(inner.cfg.cache_bytes);
        cache.set_tenant_quota(inner.cfg.tenant_quota);
        let workers = (0..inner.cfg.workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || accept_loop(&inner, listener))
        };
        Ok(Server {
            inner,
            addr: local,
            accept: Some(accept),
            workers,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop admitting requests; everything already admitted finishes.
    pub fn shutdown(&self) {
        begin_drain(&self.inner);
    }

    /// Block until a drain starts, turning a SIGTERM (see
    /// [`install_sigterm_drain`]) into [`Server::shutdown`]. The flag
    /// is polled every 50 ms on the caller's thread, so the signal
    /// handler itself only sets it.
    pub fn drain_on_sigterm(&self) {
        while !self.draining() {
            if SIGTERM.swap(false, Ordering::SeqCst) {
                self.shutdown();
            } else {
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    /// Whether a drain has been requested (by [`Server::shutdown`],
    /// `/shutdown`, or SIGTERM).
    pub fn draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// Block until the server has drained and every thread exited.
    /// Returns the number of requests still served during the drain.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// The shared artifact cache (test observability).
    pub fn cache(&self) -> &ArtifactCache {
        self.inner.engine.cache()
    }

    /// The request-coalescing layer (test observability).
    pub fn flights(&self) -> &Singleflight<Flight> {
        &self.inner.flights
    }

    /// The flight recorder (test observability).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.inner.recorder
    }

    /// Connections currently parked in the admission queue (test
    /// observability — lets tests fill the queue deterministically).
    pub fn queued(&self) -> usize {
        self.inner.queue.lock().unwrap().len()
    }
}

/// Start a drain: stop admitting requests and wake the accept loop,
/// which blocks in `accept` until then, with one connection of our
/// own. The lock is held until that connection's address is recorded,
/// so the accept loop can tell it from a late client.
fn begin_drain(inner: &Inner) {
    let mut waker = inner.waker.lock().unwrap();
    if inner.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.queue_cv.notify_all();
    let mut addr = inner.addr;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    if let Ok(wake) = TcpStream::connect(addr) {
        *waker = wake.local_addr().ok();
    }
}

fn accept_loop(inner: &Inner, listener: TcpListener) {
    // Blocking until a drain starts; then polling, so the loop can
    // notice that the queue has emptied and nothing is in flight.
    let mut polling = false;
    loop {
        if !polling && inner.draining.load(Ordering::SeqCst) {
            let _ = listener.set_nonblocking(true);
            polling = true;
        }
        match listener.accept() {
            Ok((mut stream, peer)) => {
                if inner.draining.load(Ordering::SeqCst) {
                    if *inner.waker.lock().unwrap() == Some(peer) {
                        continue;
                    }
                    counter_add("serve_rejected_total", &[("reason", "draining")], 1);
                    let _ = http::respond_error(&mut stream, 503, "server is draining");
                    continue;
                }
                let mut queue = inner.queue.lock().unwrap();
                if queue.len() >= inner.cfg.queue_cap {
                    drop(queue);
                    counter_add("serve_429_total", &[], 1);
                    let _ = http::respond(
                        &mut stream,
                        429,
                        "application/json",
                        &[("Retry-After", "1".to_string())],
                        &http::error_body(&format!(
                            "admission queue full (cap {}); retry after 1s",
                            inner.cfg.queue_cap
                        )),
                    );
                    continue;
                }
                let depth = queue.len();
                queue.push_back((stream, depth));
                drop(queue);
                inner.queue_cv.notify_one();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let idle = inner.queue.lock().unwrap().is_empty()
                    && inner.in_flight.load(Ordering::SeqCst) == 0;
                if idle {
                    // Drained: wake any parked workers so they exit.
                    inner.queue_cv.notify_all();
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (stream, depth) = {
            let mut queue = inner.queue.lock().unwrap();
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner.queue_cv.wait(queue).unwrap();
            }
        };
        inner.in_flight.fetch_add(1, Ordering::SeqCst);
        handle_connection(inner, stream, depth);
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What one handled request contributes to the access log and the
/// latency histograms once its response is on the wire.
struct Handled {
    status: u16,
    tenant: Option<String>,
    trace_id: Option<String>,
    /// `led`/`coalesced` on the coalescing route, absent elsewhere.
    role: Option<&'static str>,
    service_s: f64,
}

impl Handled {
    fn plain(status: u16) -> Handled {
        Handled {
            status,
            tenant: None,
            trace_id: None,
            role: None,
            service_s: 0.0,
        }
    }
}

/// JSON rendering of an optional string field.
fn json_opt(v: &Option<impl AsRef<str>>) -> String {
    match v {
        Some(s) => format!("\"{}\"", paccport_trace::json::escape(s.as_ref())),
        None => "null".to_string(),
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream, depth: usize) {
    if let Some(gate) = &inner.cfg.request_gate {
        gate.pass();
    }
    if stream.set_read_timeout(Some(http::READ_TIMEOUT)).is_err() {
        return;
    }
    // Every reply but `/stream`'s is held back until the request is
    // accounted for, so a client that has read it finds it in
    // `/metrics`, `/healthz` and the access log.
    let mut reply: Vec<u8> = Vec::new();
    let (route, handled) = match http::read_request(&mut stream) {
        Ok(Ok(req)) => {
            let route: &str = match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/healthz") => "healthz",
                ("GET", "/metrics") => "metrics",
                ("GET", "/traces") => "traces",
                ("GET", p) if p.starts_with("/trace/") => "trace",
                ("POST", "/run") => "run",
                ("POST", "/stream") => "stream",
                ("POST", "/shutdown") => "shutdown",
                _ => "unknown",
            };
            counter_add("serve_requests_total", &[("route", route)], 1);
            let handled = match route {
                "healthz" => {
                    let body = format!(
                        "{{\"ok\":true,\"queue_depth\":{},\"in_flight\":{},\
                         \"recorder\":{{\"occupancy\":{},\"cap\":{}}},\"requests_served\":{}}}\n",
                        inner.queue.lock().unwrap().len(),
                        inner.in_flight.load(Ordering::SeqCst),
                        inner.recorder.occupancy(),
                        inner.recorder.cap(),
                        inner.served.load(Ordering::SeqCst),
                    );
                    let _ = http::respond(&mut reply, 200, "application/json", &[], &body);
                    Handled::plain(200)
                }
                "metrics" => {
                    let _ = http::respond(
                        &mut reply,
                        200,
                        "text/plain; version=0.0.4",
                        &[],
                        &paccport_trace::metrics::render_prometheus(),
                    );
                    Handled::plain(200)
                }
                "traces" => {
                    let _ = http::respond(
                        &mut reply,
                        200,
                        "application/json",
                        &[],
                        &inner.recorder.render_index(),
                    );
                    Handled::plain(200)
                }
                "trace" => handle_trace(inner, &mut reply, &req.path),
                "shutdown" => {
                    begin_drain(inner);
                    let _ = http::respond(
                        &mut reply,
                        200,
                        "application/json",
                        &[],
                        "{\"draining\":true}\n",
                    );
                    Handled::plain(200)
                }
                "run" => handle_run(inner, &mut reply, &req),
                "stream" => handle_stream(inner, &mut stream, &req),
                _ => {
                    let msg = format!(
                        "no route `{} {}`; try GET /healthz, GET /metrics, GET /traces, \
                         GET /trace/<id>, POST /run, POST /stream, POST /shutdown",
                        req.method, req.path
                    );
                    let status = if req.path == "/run" || req.path == "/stream" {
                        405
                    } else {
                        404
                    };
                    let _ = http::respond_error(&mut reply, status, &msg);
                    Handled::plain(status)
                }
            };
            (route, handled)
        }
        Ok(Err(refusal)) => {
            counter_add("serve_requests_total", &[("route", "malformed")], 1);
            let _ = http::respond_error(&mut reply, refusal.status, &refusal.message);
            ("malformed", Handled::plain(refusal.status))
        }
        Err(_) => return, // peer vanished mid-request
    };
    inner.served.fetch_add(1, Ordering::SeqCst);
    let status_label = handled.status.to_string();
    let labels: [(&str, &str); 2] = [("route", route), ("status", status_label.as_str())];
    match &handled.trace_id {
        Some(id) => observe_exemplar(
            "serve_request_seconds",
            &labels,
            handled.service_s,
            &[("trace_id", id.as_str())],
        ),
        None => observe("serve_request_seconds", &labels, handled.service_s),
    }
    if let Some(access) = &inner.access {
        let line = format!(
            "{{\"ts\":{},\"route\":\"{route}\",\"status\":{},\"tenant\":{},\"trace_id\":{},\
             \"queue_depth\":{depth},\"role\":{},\"service_s\":{}}}\n",
            paccport_trace::now_ns(),
            handled.status,
            json_opt(&handled.tenant),
            json_opt(&handled.trace_id),
            json_opt(&handled.role),
            handled.service_s,
        );
        // One write per line, flushed, so the log is complete even if
        // the process is killed rather than drained.
        let mut f = access.lock().unwrap();
        let _ = f.write_all(line.as_bytes());
        let _ = f.flush();
    }
    if !reply.is_empty() {
        let _ = stream.write_all(&reply).and_then(|()| stream.flush());
    }
    if route == "malformed" {
        http::linger(&stream);
    }
}

/// Resolve the trace id a request runs under: a valid client
/// `traceparent` wins, then a well-formed `X-Request-Id`, otherwise
/// the id is *derived* — a pure function of the request fingerprint
/// and seed, so repeats, restarts and any `--jobs` level agree on it.
fn request_trace_id(
    req: &http::Request,
    route: &str,
    tenant: &Option<String>,
    rr: &RunRequest,
) -> String {
    if let Some(id) = req
        .header("traceparent")
        .and_then(context::parse_traceparent)
    {
        return id;
    }
    if let Some(id) = req.header("x-request-id") {
        let id = id.to_ascii_lowercase();
        if context::valid_trace_id(&id) {
            return id;
        }
    }
    let fingerprint = format!("{route}|{}|{}", tenant.as_deref().unwrap_or(""), rr.key());
    context::derive_trace_id(&fingerprint, rr.seed)
}

/// The response headers that propagate a request's trace identity.
fn trace_headers(trace_id: &str) -> [(&'static str, String); 2] {
    [
        ("X-Request-Id", trace_id.to_string()),
        ("traceparent", context::render_traceparent(trace_id)),
    ]
}

/// Modeled service seconds of a response: the sum of its cells'
/// modeled seconds, with a fixed 1 ms charge per failed cell — the
/// *same* accumulation (order and all) loadgen's `parse_service`
/// performs on the rendered body, so client- and server-side latency
/// histograms agree bucket for bucket.
fn modeled_service_seconds(reports: &[CellReport]) -> f64 {
    let mut s = 0.0f64;
    for r in reports {
        match r {
            CellReport::Ok(o) => s += o.seconds,
            CellReport::Failed { .. } => s += 0.001,
        }
    }
    s
}

/// `GET /trace/<id>[?format=chrome|jsonl|folded]` — serve one
/// recorded trace: the nested span-tree JSON by default, or any of
/// the standard exporter formats rendered from the same normalized
/// events.
fn handle_trace(inner: &Inner, stream: &mut impl Write, path: &str) -> Handled {
    let rest = &path["/trace/".len()..];
    let (id, query) = match rest.split_once('?') {
        Some((id, q)) => (id, Some(q)),
        None => (rest, None),
    };
    let mut format = None;
    for pair in query.unwrap_or("").split('&').filter(|p| !p.is_empty()) {
        let Some(v) = pair.strip_prefix("format=") else {
            let _ = http::respond_error(
                stream,
                400,
                &format!("unknown query parameter `{pair}`; supported: format=chrome|jsonl|folded"),
            );
            return Handled::plain(400);
        };
        match TraceFormat::parse(v) {
            Ok(f) => format = Some(f),
            Err(e) => {
                let _ = http::respond_error(stream, 400, &e);
                return Handled::plain(400);
            }
        }
    }
    let Some(trace) = inner.recorder.get(id) else {
        let _ = http::respond_error(
            stream,
            404,
            &format!(
                "no recorded trace `{id}`; the flight recorder keeps the last {} completed \
                 requests (see GET /traces)",
                inner.recorder.cap()
            ),
        );
        return Handled::plain(404);
    };
    let (content_type, body) = match format {
        None => ("application/json", trace.render_json()),
        Some(TraceFormat::Chrome) => ("application/json", trace.render_export(TraceFormat::Chrome)),
        Some(TraceFormat::Jsonl) => (
            "application/x-ndjson",
            trace.render_export(TraceFormat::Jsonl),
        ),
        Some(TraceFormat::Folded) => ("text/plain", trace.render_export(TraceFormat::Folded)),
    };
    let _ = http::respond(stream, 200, content_type, &[], &body);
    Handled::plain(200)
}

/// Validate an `X-Tenant` value: short, filesystem/metrics-safe.
fn parse_tenant(req: &http::Request) -> Result<Option<String>, String> {
    match req.header("x-tenant") {
        None => Ok(None),
        Some(t) => {
            if t.is_empty()
                || t.len() > 64
                || !t
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_".contains(c))
            {
                return Err(format!(
                    "invalid X-Tenant `{t}`: expected 1-64 chars of [A-Za-z0-9_-]"
                ));
            }
            Ok(Some(t.to_string()))
        }
    }
}

/// Resolve a request to its matched cells, or a one-line 400 naming
/// the offending coordinate with the known vocabulary.
fn resolve(rr: &RunRequest) -> Result<Vec<CheckCell>, String> {
    let scale = serve::scale_by_name(&rr.scale)
        .ok_or_else(|| format!("unknown scale `{}`; known: smoke, quick, paper", rr.scale))?;
    let cells = serve::expand(&scale, &rr.benchmark, &rr.variant, &rr.target);
    if !cells.is_empty() {
        return Ok(cells);
    }
    // Name the coordinate that matched nothing, with its vocabulary.
    type Pick = fn(&CheckCell) -> &String;
    let checks: [(&str, &str, Pick); 3] = [
        ("benchmark", &rr.benchmark, |c| &c.benchmark),
        ("variant", &rr.variant, |c| &c.variant),
        ("target", &rr.target, |c| &c.series),
    ];
    for (what, asked, pick) in checks {
        let known = serve::coordinate_values(&scale, pick);
        let wildcard = asked == "*" || asked.is_empty();
        if !wildcard && !known.iter().any(|k| k.eq_ignore_ascii_case(asked)) {
            return Err(format!(
                "unknown {what} `{asked}`; known: {}",
                known.join(", ")
            ));
        }
    }
    Err("no cell matches that (benchmark, variant, target) combination".to_string())
}

/// Execute `cells` on the engine (resilient path: retries, watchdog,
/// quarantine) and pair every result back with its cell identity.
fn run_cells(
    inner: &Inner,
    cells: &[CheckCell],
    seed: u64,
    tenant: &Option<String>,
) -> Vec<CellReport> {
    let jobs: Vec<(String, _)> = cells
        .iter()
        .map(|cell| {
            let cell = cell.clone();
            let tenant = tenant.clone();
            let cache = inner.engine.cache();
            (
                format!("serve/{}", cell.label()),
                move || -> Result<CellOutcome, String> {
                    let _t = paccport_compilers::tenant_scope(tenant.clone());
                    serve::run_cell(cache, &cell, seed)
                },
            )
        })
        .collect();
    let results = inner.engine.run_resilient(jobs);
    cells
        .iter()
        .zip(results)
        .map(|(cell, r)| match r {
            Ok(outcome) => {
                counter_add("serve_cells_total", &[("status", "ok")], 1);
                CellReport::Ok(outcome)
            }
            Err(f) => {
                counter_add("serve_cells_total", &[("status", "failed")], 1);
                CellReport::Failed {
                    benchmark: cell.benchmark.clone(),
                    variant: cell.variant.clone(),
                    target: cell.series.clone(),
                    reason: f.reason,
                    attempts: f.attempts,
                    injected: f.injected,
                }
            }
        })
        .collect()
}

/// The prelude `/run` and `/stream` share: the tenant, the body and
/// the cells it names. A refusal has already been answered with a
/// one-line 400; its access-log record carries the tenant only once
/// the tenant is known to be valid (the resolve refusal).
fn run_prelude(
    stream: &mut impl Write,
    req: &http::Request,
) -> Result<(Option<String>, RunRequest, Vec<CheckCell>), Handled> {
    let mut refuse = |e: String| {
        let _ = http::respond_error(stream, 400, &e);
        Handled::plain(400)
    };
    let tenant = parse_tenant(req).map_err(&mut refuse)?;
    let rr = RunRequest::parse(&req.body).map_err(&mut refuse)?;
    match resolve(&rr) {
        Ok(cells) => Ok((tenant, rr, cells)),
        Err(e) => Err(Handled {
            tenant,
            ..refuse(e)
        }),
    }
}

fn handle_run(inner: &Inner, stream: &mut impl Write, req: &http::Request) -> Handled {
    let (tenant, rr, cells) = match run_prelude(stream, req) {
        Ok(p) => p,
        Err(refused) => return refused,
    };
    let trace_id = request_trace_id(req, "run", &tenant, &rr);
    // Coalesce identical concurrent requests into one execution. The
    // tenant is part of the key so quota attribution stays honest.
    // The trace id deliberately is NOT: followers answer with the
    // leader's trace, because that is the execution their bytes came
    // from.
    let flight_key = format!("{}|{}", tenant.as_deref().unwrap_or(""), rr.key());
    let (result, led) = inner.flights.run(&flight_key, || {
        if let Some(gate) = &inner.cfg.run_gate {
            gate.pass();
        }
        counter_add("serve_runs_total", &[], 1);
        // Everything this request's engine work records — including
        // on the engine's worker threads — carries this context, so
        // the shared event stream partitions cleanly per request.
        let ctx = inner.next_ctx.fetch_add(1, Ordering::Relaxed);
        let reports = {
            let _request = paccport_trace::request_scope(ctx);
            // A fresh (lane 0, task 0) scope per request: resets the
            // handler thread's span sequence so the inline (jobs=1)
            // event layout is identical no matter how many requests
            // this thread served before.
            let _scope = paccport_trace::task_scope(0, 0);
            run_cells(inner, &cells, rr.seed, &tenant)
        };
        let (status, body) = protocol::render_response(&rr, &reports);
        let service_s = modeled_service_seconds(&reports);
        let events = paccport_trace::take_request_events(ctx);
        inner.recorder.record(RequestTrace::build(
            trace_id.clone(),
            "run",
            &rr,
            &tenant,
            status,
            &reports,
            service_s,
            events,
        ));
        Flight {
            status,
            body,
            trace_id: trace_id.clone(),
            service_s,
        }
    });
    let flight = &*result;
    let _ = http::respond(
        stream,
        flight.status,
        "application/json",
        &trace_headers(&flight.trace_id),
        &flight.body,
    );
    Handled {
        status: flight.status,
        tenant,
        trace_id: Some(flight.trace_id.clone()),
        role: Some(if led { "led" } else { "coalesced" }),
        service_s: flight.service_s,
    }
}

fn handle_stream(inner: &Inner, stream: &mut TcpStream, req: &http::Request) -> Handled {
    let (tenant, rr, cells) = match run_prelude(stream, req) {
        Ok(p) => p,
        Err(refused) => return refused,
    };
    let trace_id = request_trace_id(req, "stream", &tenant, &rr);
    let ctx = inner.next_ctx.fetch_add(1, Ordering::Relaxed);
    // Streaming runs cells one at a time in matrix order so each
    // progress event is emitted the moment its cell settles; the
    // event sequence stays deterministic because the order is the
    // submission order, not completion order. Wire failures stop the
    // writes but never the drain below — a vanished client must not
    // leave this request's events stranded in the buffers.
    let mut reports: Vec<CellReport> = Vec::with_capacity(cells.len());
    let io_result = {
        let _request = paccport_trace::request_scope(ctx);
        let _scope = paccport_trace::task_scope(0, 0);
        let mut emit = || -> io::Result<()> {
            http::start_chunked(
                stream,
                200,
                "application/x-ndjson",
                &trace_headers(&trace_id),
            )?;
            http::write_chunk(stream, &protocol::event_start(&rr, cells.len()))?;
            for (i, cell) in cells.iter().enumerate() {
                let cell_reports = run_cells(inner, std::slice::from_ref(cell), rr.seed, &tenant);
                let report = cell_reports
                    .into_iter()
                    .next()
                    .expect("one report per cell");
                http::write_chunk(stream, &protocol::event_cell(i, &report))?;
                reports.push(report);
            }
            let ok = reports.iter().filter(|r| r.is_ok()).count();
            http::write_chunk(stream, &protocol::event_done(ok, reports.len() - ok))?;
            http::finish_chunked(stream)
        };
        emit()
    };
    let _ = io_result;
    let service_s = modeled_service_seconds(&reports);
    let events = paccport_trace::take_request_events(ctx);
    inner.recorder.record(RequestTrace::build(
        trace_id.clone(),
        "stream",
        &rr,
        &tenant,
        200,
        &reports,
        service_s,
        events,
    ));
    Handled {
        status: 200,
        tenant,
        trace_id: Some(trace_id),
        role: None,
        service_s,
    }
}
