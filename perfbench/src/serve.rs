//! The `serve` workload: `reproduce serve --workers 2 --jobs 1` answering
//! single-cell `/run` requests. Each of several server lives is warmed up
//! and then driven by one client in a closed loop: the bounded figures are
//! the seconds and server CPU one request costs. The last life then takes
//! two clients back to back (saturation, where admission and coalescing
//! work) and an open-loop schedule, reported as diagnostics: latencies in
//! real wall-clock time counted from when each request was due, so a stall
//! charges every request queued behind it.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paccport_compilers::ArtifactCache;
use paccport_conformance::rng::Rng;
use paccport_core::serve as matrix;
use paccport_server::http;
use paccport_server::protocol::{render_response, CellReport, RunRequest};

use crate::proc;
use crate::report::{Metric, WorkloadReport};
use crate::span::Tracer;
use crate::stats;
use crate::workloads::Ctx;

/// Requests per second the open loop offers: about a third of what two
/// workers sustain on two cores.
const RATE_RPS: f64 = 60.0;
/// Requests in flight at once at saturation and in the open loop, one
/// connection each; also the generator's thread count.
pub const CONNECTIONS: usize = 2;
const TENANTS: [&str; 2] = ["t0", "t1"];

pub struct Request {
    pub body: String,
    pub tenant: &'static str,
    /// Requests sharing a slot are due at the same instant.
    pub slot: usize,
}

/// A seeded permutation of `0..n`.
fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

pub fn request_body(cell: &paccport_core::CheckCell, scale: &str, seed: u64) -> String {
    format!(
        "{{\"benchmark\":\"{}\",\"variant\":\"{}\",\"target\":\"{}\",\"scale\":\"{scale}\",\"seed\":{seed}}}",
        cell.benchmark, cell.variant, cell.series
    )
}

/// One block of requests. A block sends every matrix cell four times:
/// three rounds, each a seeded shuffle of the matrix, and in round `k` the
/// cells of a seeded third are sent twice at the same instant, a repeat the
/// server may coalesce. A quarter of the requests repeat the one before, and
/// every seed sends the same mix of cells, so the seed moves the order, not
/// the amount of work.
pub fn schedule(seed: u64, scale: &str) -> Vec<Request> {
    let cells = matrix::matrix(&matrix::scale_by_name(scale).expect("known scale"));
    let bodies: Vec<String> = cells.iter().map(|c| request_body(c, scale, seed)).collect();
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut slot = 0;
    let mut third = vec![0; cells.len()];
    for (pos, c) in shuffled(&mut rng, cells.len()).into_iter().enumerate() {
        third[c] = pos % 3;
    }
    for round in 0..3 {
        for c in shuffled(&mut rng, cells.len()) {
            let tenant = TENANTS[slot % TENANTS.len()];
            let copies = if third[c] == round { 2 } else { 1 };
            for _ in 0..copies {
                out.push(Request {
                    body: bodies[c].clone(),
                    tenant,
                    slot,
                });
            }
            slot += 1;
        }
    }
    out
}

/// The block a run sends for `seed`; in a `--smoke` run, its first quarter.
pub fn block(ctx: &Ctx, seed: u64) -> Vec<Request> {
    let mut reqs = schedule(seed, ctx.scale("quick"));
    if ctx.smoke {
        reqs.truncate(reqs.len() / 4);
    }
    reqs
}

/// When each request is due, in seconds from the start, for an average of
/// `rate` requests per second (slots carry 4/3 requests on average).
pub fn due_times(reqs: &[Request], rate: f64) -> Vec<f64> {
    reqs.iter()
        .map(|r| r.slot as f64 * 4.0 / (3.0 * rate))
        .collect()
}

/// Per request: how late the generator sent it and its latency, both from
/// its due time.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub late_s: f64,
    pub latency_s: f64,
}

/// Send request `i` at `due[i]` seconds from now over at most
/// `connections` concurrent senders, in schedule order. A sender that
/// falls behind sends immediately; the delay counts as lateness and as
/// latency. With every `due` at zero this is a closed loop.
pub fn open_loop<R: Send>(
    due: &[f64],
    connections: usize,
    send: impl Fn(usize) -> R + Sync,
) -> (Vec<(Timing, R)>, f64) {
    let start = Instant::now();
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(due.len()));
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= due.len() {
                    break;
                }
                let due_at = start + Duration::from_secs_f64(due[i]);
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = start.elapsed().as_secs_f64();
                let r = send(i);
                let end = start.elapsed().as_secs_f64();
                let t = Timing {
                    late_s: sent - due[i],
                    latency_s: end - due[i],
                };
                done.lock().expect("no sender panics").push((i, t, r));
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut done = done.into_inner().expect("no sender panics");
    done.sort_by_key(|(i, _, _)| *i);
    (done.into_iter().map(|(_, t, r)| (t, r)).collect(), elapsed)
}

/// The response body the server must produce for `body`, computed
/// in-process: parse, expand, run each cell, render. The stages run in
/// spans of `t`, which is how the traced replay attributes them.
pub fn in_process(
    t: &mut Tracer,
    cache: &ArtifactCache,
    body: &str,
) -> Result<(u16, String), String> {
    let rr = t.span("server.parse", |_| RunRequest::parse(body))?;
    let scale = matrix::scale_by_name(&rr.scale).ok_or("unknown scale")?;
    let cells = t.span("core.expand", |_| {
        matrix::expand(&scale, &rr.benchmark, &rr.variant, &rr.target)
    });
    let reports: Vec<CellReport> = t.span("core.run_cell", |_| {
        cells
            .iter()
            .map(|c| match matrix::run_cell(cache, c, rr.seed) {
                Ok(o) => CellReport::Ok(o),
                Err(reason) => CellReport::Failed {
                    benchmark: c.benchmark.clone(),
                    variant: c.variant.clone(),
                    target: c.series.clone(),
                    reason,
                    attempts: 1,
                    injected: false,
                },
            })
            .collect()
    });
    Ok(t.span("server.render", |_| render_response(&rr, &reports)))
}

/// A running `reproduce serve`; dropping it kills and reaps the process.
pub struct Server {
    child: Option<Child>,
    pub addr: String,
}

impl Server {
    pub fn start(ctx: &Ctx, dir: &Path, access_log: bool) -> Result<Server, String> {
        let port_file = dir.join("serve.port");
        let _ = std::fs::remove_file(&port_file);
        let stderr = std::fs::File::create(dir.join("serve.stderr"))
            .map_err(|e| format!("cannot create server log: {e}"))?;
        let mut cmd = Command::new(&ctx.bin);
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--jobs",
            "1",
        ])
        .arg("--port-file")
        .arg(&port_file)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr);
        if access_log {
            cmd.args(["--access-log", "access.jsonl"]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot start server: {e}"))?;
        let mut server = Server {
            child: Some(child),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        while server.addr.is_empty() {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if s.trim().parse::<SocketAddr>().is_ok() {
                    server.addr = s.trim().to_string();
                    break;
                }
            }
            let child = server.child.as_mut().expect("not yet stopped");
            if let Ok(Some(status)) = child.try_wait() {
                server.child = None;
                return Err(format!("server exited during start-up ({status})"));
            }
            if Instant::now() > deadline {
                return Err("server wrote no port file within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        loop {
            match http::request(&server.addr, "GET", "/healthz", &[], "") {
                Ok(r) if r.status == 200 => return Ok(server),
                _ if Instant::now() > deadline => {
                    return Err("server never answered /healthz".into())
                }
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("not yet stopped").id()
    }

    pub fn send(&self, r: &Request) -> Sent {
        http::request(
            &self.addr,
            "POST",
            "/run",
            &[("X-Tenant", r.tenant)],
            &r.body,
        )
        .map(|resp| (resp.status, resp.body))
        .map_err(|e| e.to_string())
    }

    /// Ask the server to drain and wait for it: exit code and peak RSS.
    pub fn stop(mut self) -> Result<(Option<i32>, u64), String> {
        let _ = http::request(&self.addr, "POST", "/shutdown", &[], "");
        let mut child = self.child.take().expect("stopped once");
        proc::finish(&mut child, Duration::from_secs(60)).map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One request per matrix cell: after these, the artifact cache holds
/// everything the schedule asks for, the steady state a resident server
/// reaches.
pub fn warm_up_bodies(ctx: &Ctx) -> Vec<String> {
    let scale = ctx.scale("quick");
    matrix::matrix(&matrix::scale_by_name(scale).expect("known scale"))
        .iter()
        .map(|cell| request_body(cell, scale, ctx.seed))
        .collect()
}

/// Start a server and warm it up. Returns the server and the seconds from
/// spawn to the last warm-up response.
pub fn set_up(
    ctx: &Ctx,
    dir: &Path,
    access_log: bool,
    r: &mut WorkloadReport,
) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let server = Server::start(ctx, dir, access_log)?;
    for body in warm_up_bodies(ctx) {
        let req = Request {
            body,
            tenant: TENANTS[0],
            slot: 0,
        };
        let status = server.send(&req).map(|(s, _)| s);
        r.check(status == Ok(200), || {
            format!("warm-up {}: {status:?}", req.body)
        });
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

pub fn rate(ctx: &Ctx) -> f64 {
    if ctx.smoke {
        2.0 * RATE_RPS
    } else {
        RATE_RPS
    }
}

/// Server lives per run. A life is its set-up and one block from one
/// client, about three seconds; with the last life's saturation and open
/// loop, the lives fill the run's seconds.
pub fn lives(ctx: &Ctx) -> usize {
    if ctx.smoke {
        2
    } else {
        ((ctx.seconds.as_secs_f64() / 5.0).round() as usize).max(2)
    }
}

type Sent = Result<(u16, String), String>;
/// Each request's timing and response, in schedule order.
type Outcomes = Vec<(Timing, Sent)>;

/// Send `reqs` back to back on `connections` connections. Returns each
/// request's outcome, the seconds they took and the server CPU seconds
/// they used.
fn closed_loop(
    server: &Server,
    reqs: &[Request],
    connections: usize,
) -> Result<(Outcomes, f64, f64), String> {
    let cpu = || proc::cpu_so_far(server.pid()).map_err(|e| format!("server CPU time: {e}"));
    let before = cpu()?;
    let (out, secs) = open_loop(&vec![0.0; reqs.len()], connections, |i| {
        server.send(&reqs[i])
    });
    Ok((out, secs, cpu()? - before))
}

pub fn run(ctx: &Ctx, dir: &Path) -> Result<WorkloadReport, String> {
    let mut r = WorkloadReport::new("serve", false);
    let lives = lives(ctx);
    let (mut setups, mut wall, mut cpu, mut rss) = (vec![], vec![], vec![], vec![]);
    let mut sent: Vec<(Request, Sent)> = Vec::new();
    let mut open: Vec<(Request, Timing, Sent)> = Vec::new();
    let mut sat_rps = f64::NAN;
    // Several server lives, so one process's luck (thread placement,
    // memory layout) does not decide the run.
    for life in 0..lives {
        let last = life + 1 == lives;
        let (server, secs) = set_up(ctx, dir, last, &mut r)?;
        setups.push(secs);
        // One client: every life sends the same mix of cells back to back,
        // so life figures are repetitions of one measurement, the seconds
        // and server CPU a request costs when nothing competes with it.
        let reqs = block(ctx, ctx.seed.wrapping_add(life as u64 + 1));
        let (out, secs, cpu_s) = closed_loop(&server, &reqs, 1)?;
        wall.push(secs / reqs.len() as f64);
        cpu.push(cpu_s / reqs.len() as f64);
        sent.extend(reqs.into_iter().zip(out.into_iter().map(|(_, s)| s)));
        if last {
            // Saturation: two clients back to back, so requests queue for
            // admission and identical ones in flight together coalesce.
            let reqs = block(ctx, ctx.seed.wrapping_add(lives as u64 + 1));
            let (out, secs, _) = closed_loop(&server, &reqs, CONNECTIONS)?;
            sat_rps = reqs.len() as f64 / secs;
            sent.extend(reqs.into_iter().zip(out.into_iter().map(|(_, s)| s)));
            // Open loop on the warm server: latency as independent users
            // see it.
            let reqs = block(ctx, ctx.seed);
            let due = due_times(&reqs, rate(ctx));
            let (out, _) = open_loop(&due, CONNECTIONS, |i| server.send(&reqs[i]));
            open.extend(reqs.into_iter().zip(out).map(|(q, (t, s))| (q, t, s)));
        }
        let (code, maxrss_kb) = server.stop()?;
        r.check(code == Some(0), || format!("server exited with {code:?}"));
        rss.push(maxrss_kb as f64 / 1024.0);
    }

    // Every body must equal what the in-process path renders.
    let cache = ArtifactCache::new();
    let mut want: HashMap<String, (u16, String)> = HashMap::new();
    let mut verify = |r: &mut WorkloadReport, req: &Request, got: &Sent| -> Result<bool, String> {
        if !want.contains_key(&req.body) {
            let expected = in_process(&mut Tracer::default(), &cache, &req.body)?;
            want.insert(req.body.clone(), expected);
        }
        let ok = got.as_ref().ok() == Some(&want[&req.body]);
        r.check(ok, || match got {
            Ok((status, _)) => format!("{}: status {status} or body differs", req.body),
            Err(e) => format!("{}: {e}", req.body),
        });
        Ok(ok)
    };
    for (req, got) in &sent {
        verify(&mut r, req, got)?;
    }
    let (mut latencies, mut late) = (Vec::new(), Vec::new());
    for (req, t, got) in &open {
        if verify(&mut r, req, got)? {
            latencies.push(t.latency_s);
            late.push(t.late_s);
        }
    }
    let n = latencies.len();
    if n == 0 {
        return Err("serve: no open-loop request succeeded".into());
    }
    let log = std::fs::read_to_string(dir.join("access.jsonl")).unwrap_or_default();
    let runs = log.matches("\"route\":\"run\"").count();
    let coalesced = log.matches("\"role\":\"coalesced\"").count();
    let pct = |xs: &[f64], p: f64| stats::percentile(xs, p).expect("non-empty") * 1e3;
    r.put("wall_s", Metric::min_of("s", wall));
    r.put("cpu_s", Metric::min_of("s", cpu));
    r.put("peak_rss_mb", Metric::median_of("MB", rss));
    r.put("setup_s", Metric::median_of("s", setups));
    r.put_extra("sat_rps", Metric::single("1/s", sat_rps));
    r.put_extra("open_requests", Metric::single("count", n as f64));
    r.put_extra("lat_p50_ms", Metric::single("ms", pct(&latencies, 50.0)));
    r.put_extra("lat_p90_ms", Metric::single("ms", pct(&latencies, 90.0)));
    if let Some(p) = stats::tail_percentile(n) {
        r.put_extra("lat_tail_pct", Metric::single("pct", p));
        r.put_extra("lat_tail_ms", Metric::single("ms", pct(&latencies, p)));
        r.put_extra("gen_late_tail_ms", Metric::single("ms", pct(&late, p)));
    }
    r.put_extra("gen_late_max_ms", Metric::single("ms", pct(&late, 100.0)));
    r.put_extra(
        "coalesced_frac",
        Metric::single("ratio", coalesced as f64 / runs.max(1) as f64),
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 40 requests 10 ms apart on one connection; each takes 1 ms except
        // request 5, which stalls for 200 ms.
        let due: Vec<f64> = (0..40).map(|i| i as f64 * 0.010).collect();
        let (out, _) = open_loop(&due, 1, |i| {
            std::thread::sleep(Duration::from_millis(if i == 5 { 200 } else { 1 }));
        });
        let t: Vec<Timing> = out.iter().map(|(t, _)| *t).collect();
        assert!(t[5].latency_s >= 0.19, "the stalled request itself");
        assert!(t[5].late_s < 0.1, "it was sent on time");
        // Request 6 was due at 60 ms but could only leave at ~250 ms.
        assert!(t[6].late_s >= 0.15, "late by {}", t[6].late_s);
        assert!(t[6].latency_s >= t[6].late_s);
        let worst = t.iter().map(|t| t.late_s).fold(0.0, f64::max);
        assert!(worst >= 0.15, "generator lateness reports the stall");
        // The backlog drains; the last request (due at 390 ms) is on time.
        assert!(t[39].late_s < 0.05, "late by {}", t[39].late_s);
    }

    #[test]
    fn every_seed_sends_the_same_mix_in_another_order() {
        let count = |seed| {
            let mut m: HashMap<String, usize> = HashMap::new();
            let reqs = schedule(seed, "smoke");
            for r in &reqs {
                *m.entry(r.body.replace(&format!("\"seed\":{seed}"), ""))
                    .or_default() += 1;
            }
            (m, reqs)
        };
        let (a, ra) = count(1);
        let (b, rb) = count(2);
        assert_eq!(a, b, "same multiset of cells");
        assert!(a.values().all(|&n| n == 4), "each cell 4 times per block");
        let order = |rs: &[Request]| rs.iter().map(|r| r.body.clone()).collect::<Vec<_>>();
        assert_ne!(order(&ra), order(&rb));
        // A quarter of the requests share a slot with the one before.
        let repeats = ra.windows(2).filter(|w| w[0].slot == w[1].slot).count();
        assert_eq!(repeats * 4, ra.len());
        assert!(ra
            .windows(2)
            .filter(|w| w[0].slot == w[1].slot)
            .all(|w| w[0].body == w[1].body && w[0].tenant == w[1].tenant));
    }
}
