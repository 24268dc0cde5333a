//! `reproduce loadgen` — a seeded, deterministic load generator and
//! SLO reporter for the experiment server.
//!
//! Two sources of nondeterminism normally make load-test reports
//! unreproducible: wall-clock scheduling on the client and wall-clock
//! service times on the server. This generator removes both.
//!
//! * The **schedule** is a pure function of `--seed`: which cell each
//!   request names, which requests are duplicates (exercising the
//!   server's coalescing), and which tenant issues them are all drawn
//!   from a splitmix64 stream.
//! * The **latency model** runs on a virtual clock: request *i* of
//!   step *s* arrives at `s·1e9 + slot·(1e9/rps)` virtual
//!   nanoseconds, and its service time is the *modeled* seconds the
//!   server reports in the response body (the simulator's analytic
//!   timings — themselves deterministic). Latencies come from
//!   replaying that arrival/service schedule through a fixed-width
//!   FCFS queue, not from measuring the wire.
//!
//! The report therefore depends only on `(seed, rps, steps,
//! dup-ratio, scale, server determinism)` — two runs against fresh
//! servers are byte-identical, which is exactly what the CI serve
//! gate `cmp`s. Per-request FNV body checksums are included, so the
//! report also *proves* duplicate responses were byte-identical.

use paccport_trace::hash::{fnv1a64, FNV_BASIS};
use paccport_trace::json::{escape, Json};
use paccport_trace::metrics::{bucket_bound, Histogram};
use paccport_trace::rng::Rng;

use crate::http;

/// Knobs for one load run. `rps` is requests per virtual step (the
/// schedule is virtual-clock driven; the wire runs as fast as it
/// can).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    pub addr: String,
    pub rps: u32,
    pub steps: u32,
    pub seed: u64,
    /// Probability a request repeats the previous one (coalescing
    /// exercise); the schedule still comes out deterministic.
    pub dup_ratio: f64,
    pub scale: String,
    /// Rotate `X-Tenant: t0..t{n-1}` over requests; 0 sends none.
    pub tenants: u32,
    /// Virtual-latency SLO threshold, in virtual milliseconds.
    pub slo_ms: f64,
    /// Fixed width of the virtual FCFS service model.
    pub model_servers: u32,
    /// POST /shutdown after the run (graceful drain).
    pub shutdown_after: bool,
    /// Scrape /metrics after the run and embed deterministic
    /// counters (compile_total, serve_requests_total) in the report.
    pub scrape_metrics: bool,
    /// Fetch `GET /trace/<id>` for the first N distinct trace ids
    /// (in schedule order) and embed their body checksums.
    pub sample_traces: u32,
    /// Where to write sampled trace bodies as `<id>.json`; without a
    /// directory the bodies are fetched and checksummed only.
    pub trace_dir: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: String::new(),
            rps: 4,
            steps: 3,
            seed: 42,
            dup_ratio: 0.25,
            scale: "smoke".into(),
            tenants: 0,
            slo_ms: 400.0,
            model_servers: 2,
            shutdown_after: false,
            scrape_metrics: false,
            sample_traces: 0,
            trace_dir: None,
        }
    }
}

/// One scheduled request: coordinates plus schedule metadata.
struct Planned {
    step: u32,
    slot: u32,
    body: String,
    benchmark: String,
    variant: String,
    target: String,
    tenant: Option<String>,
    dup: bool,
}

/// One served request: the plan plus what came back.
struct Served {
    plan: Planned,
    status: u16,
    body_fnv: u64,
    /// Modeled service seconds summed over the response's cells.
    service_s: f64,
    failed_cells: u64,
    /// The `X-Request-Id` the server answered with: names the flight
    /// recorder entry this response came from (coalesced duplicates
    /// share the leader's id).
    trace_id: String,
}

/// Build the deterministic request schedule for `cfg`.
fn plan(cfg: &LoadgenConfig) -> Result<Vec<Planned>, String> {
    let scale = paccport_core::serve::scale_by_name(&cfg.scale)
        .ok_or_else(|| format!("unknown scale `{}`; known: smoke, quick, paper", cfg.scale))?;
    let pool = paccport_core::serve::matrix(&scale);
    if pool.is_empty() {
        return Err("empty experiment matrix".to_string());
    }
    let mut rng = Rng::new(cfg.seed | 1);
    let mut out = Vec::new();
    let mut prev: Option<(String, String, String)> = None;
    let mut counter = 0u32;
    for step in 0..cfg.steps {
        for slot in 0..cfg.rps {
            let coords = match &prev {
                Some(p) if rng.unit() < cfg.dup_ratio => p.clone(),
                _ => {
                    let cell = &pool[(rng.next_u64() as usize) % pool.len()];
                    (
                        cell.benchmark.clone(),
                        cell.variant.clone(),
                        cell.series.clone(),
                    )
                }
            };
            let dup = prev.as_ref() == Some(&coords);
            prev = Some(coords.clone());
            let tenant = if cfg.tenants > 0 {
                let t = format!("t{}", counter % cfg.tenants);
                counter += 1;
                Some(t)
            } else {
                None
            };
            let body = format!(
                "{{\"benchmark\":\"{}\",\"variant\":\"{}\",\"target\":\"{}\",\"scale\":\"{}\",\"seed\":{}}}",
                coords.0, coords.1, coords.2, cfg.scale, cfg.seed
            );
            out.push(Planned {
                step,
                slot,
                body,
                benchmark: coords.0,
                variant: coords.1,
                target: coords.2,
                tenant,
                dup,
            });
        }
    }
    Ok(out)
}

/// Issue one planned request, retrying 429 backpressure (the retry
/// count deliberately stays out of the report — backpressure timing
/// is scheduling-dependent; the final response is not).
fn issue(addr: &str, p: &Planned) -> Result<(u16, String, String), String> {
    for _ in 0..200 {
        let headers: Vec<(&str, &str)> = match &p.tenant {
            Some(t) => vec![("X-Tenant", t.as_str())],
            None => vec![],
        };
        let resp = http::request(addr, "POST", "/run", &headers, &p.body)
            .map_err(|e| format!("request to {addr} failed: {e}"))?;
        if resp.status == 429 {
            std::thread::sleep(std::time::Duration::from_millis(5));
            continue;
        }
        let trace_id = resp.header("x-request-id").unwrap_or("").to_string();
        return Ok((resp.status, resp.body, trace_id));
    }
    Err("server kept answering 429 for 200 attempts".to_string())
}

/// Sum of modeled per-cell seconds in a response body, plus how many
/// cells failed. Failed cells model as a fixed 1ms of service.
fn parse_service(body: &str) -> (f64, u64) {
    let Ok(v) = paccport_trace::json::parse(body) else {
        return (0.001, 0);
    };
    let mut service = 0.0f64;
    let mut failed = 0u64;
    if let Some(cells) = v.get("cells").and_then(Json::as_arr) {
        for c in cells {
            match c.get("seconds").and_then(Json::as_f64) {
                Some(s) => service += s,
                None => {
                    failed += 1;
                    service += 0.001;
                }
            }
        }
    }
    (service, failed)
}

/// Replay the virtual schedule through a fixed-width FCFS queue and
/// return per-request latencies in virtual nanoseconds.
fn model_latencies(cfg: &LoadgenConfig, served: &[Served]) -> Vec<u64> {
    let gap = 1_000_000_000u64 / cfg.rps.max(1) as u64;
    let width = cfg.model_servers.max(1) as usize;
    let mut free_at = vec![0u64; width];
    let mut latencies = Vec::with_capacity(served.len());
    for s in served {
        let arrival = s.plan.step as u64 * 1_000_000_000 + s.plan.slot as u64 * gap;
        let service_ns = (s.service_s * 1e9).ceil() as u64;
        // FCFS: take the earliest-free virtual server.
        let (idx, &free) = free_at
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one model server");
        let start = arrival.max(free);
        free_at[idx] = start + service_ns;
        latencies.push(start + service_ns - arrival);
    }
    latencies
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Deterministic counters worth embedding in the report: compile and
/// request totals are pure functions of the schedule against a fresh
/// server (coalescing counters, which depend on timing, are not).
fn scrape(addr: &str) -> Result<String, String> {
    let resp = http::request(addr, "GET", "/metrics", &[], "")
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    let mut compile_total = 0u64;
    let mut requests_run = 0u64;
    for line in resp.body.lines() {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let v: u64 = value.parse().unwrap_or(0);
        if name.starts_with("compile_total") {
            compile_total += v;
        }
        if name.starts_with("serve_requests_total") && name.contains("route=\"run\"") {
            requests_run += v;
        }
    }
    Ok(format!(
        "{{\"compile_total\":{compile_total},\"serve_requests_total_run\":{requests_run}}}"
    ))
}

/// Per-status service-time histograms over the run's requests, built
/// with the *same* log₂ buckets the server feeds `/metrics`. The
/// server observes the identical modeled seconds per request, so
/// against a fresh server the cumulative bucket counts here match a
/// `serve_request_seconds_bucket{route="run",…}` scrape line for
/// line — the trace integration tests cross-check exactly that.
fn service_hist_json(served: &[Served]) -> String {
    let mut by_status: std::collections::BTreeMap<u16, Histogram> = Default::default();
    for s in served {
        by_status.entry(s.status).or_default().observe(s.service_s);
    }
    let statuses: Vec<String> = by_status
        .iter()
        .map(|(status, h)| {
            // Cumulative counts at each occupied bucket bound, keyed
            // by the same `le` strings the Prometheus renderer emits.
            let mut cum = 0u64;
            let mut buckets: Vec<String> = Vec::new();
            for (i, n) in h.buckets.iter().enumerate() {
                cum += n;
                if *n == 0 {
                    continue;
                }
                let le = match bucket_bound(i) {
                    Some(b) => format!("{b}"),
                    None => "+Inf".to_string(),
                };
                buckets.push(format!("{{\"le\":\"{le}\",\"cum\":{cum}}}"));
            }
            format!(
                "\"{status}\":{{\"count\":{},\"p50_s\":{},\"p90_s\":{},\"p99_s\":{},\
                 \"buckets\":[{}]}}",
                h.count,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                buckets.join(",")
            )
        })
        .collect();
    format!(
        "{{\"route\":\"run\",\"by_status\":{{{}}}}}",
        statuses.join(",")
    )
}

/// Fetch the first `n` distinct trace ids (schedule order) from the
/// server's flight recorder; bodies are checksummed into the report
/// and optionally written to `dir` as `<id>.json`.
fn sample_traces(
    addr: &str,
    served: &[Served],
    n: u32,
    dir: &Option<String>,
) -> Result<String, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut entries: Vec<String> = Vec::new();
    for s in served {
        if (entries.len() as u32) >= n {
            break;
        }
        if s.trace_id.is_empty() || !seen.insert(s.trace_id.as_str()) {
            continue;
        }
        let resp = http::request(addr, "GET", &format!("/trace/{}", s.trace_id), &[], "")
            .map_err(|e| format!("trace fetch failed: {e}"))?;
        if resp.status != 200 {
            return Err(format!(
                "trace `{}` not in the flight recorder (HTTP {}); \
                 raise --recorder-cap or sample fewer traces",
                s.trace_id, resp.status
            ));
        }
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
            let path = std::path::Path::new(dir).join(format!("{}.json", s.trace_id));
            std::fs::write(&path, &resp.body)
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        entries.push(format!(
            "{{\"trace_id\":\"{}\",\"body_fnv\":\"{:016x}\"}}",
            s.trace_id,
            fnv1a64(resp.body.as_bytes(), FNV_BASIS)
        ));
    }
    Ok(format!("[{}]", entries.join(",")))
}

/// Run the load, model the latencies, and render the SLO report —
/// a single deterministic JSON document.
pub fn run(cfg: &LoadgenConfig) -> Result<String, String> {
    let planned = plan(cfg)?;
    let mut served: Vec<Served> = Vec::with_capacity(planned.len());
    // Requests within a step go out concurrently (that is what makes
    // duplicates coalesce server-side); steps are sequential. Results
    // are keyed back to (step, slot), so report order is schedule
    // order no matter how the wire interleaves.
    let mut by_step: std::collections::BTreeMap<u32, Vec<Planned>> = Default::default();
    for p in planned {
        by_step.entry(p.step).or_default().push(p);
    }
    for (_, batch) in by_step {
        let outcomes: Vec<Result<(u16, String, String), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = batch
                .iter()
                .map(|p| s.spawn(|| issue(&cfg.addr, p)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (p, outcome) in batch.into_iter().zip(outcomes) {
            let (status, body, trace_id) = outcome?;
            let (service_s, failed_cells) = parse_service(&body);
            served.push(Served {
                plan: p,
                status,
                body_fnv: fnv1a64(body.as_bytes(), FNV_BASIS),
                service_s,
                failed_cells,
                trace_id,
            });
        }
    }
    let latencies = model_latencies(cfg, &served);
    let mut sorted = latencies.clone();
    sorted.sort_unstable();
    let violations = sorted
        .iter()
        .filter(|&&l| l as f64 > cfg.slo_ms * 1e6)
        .count();
    let makespan_ns = served
        .iter()
        .zip(&latencies)
        .map(|(s, &l)| {
            s.plan.step as u64 * 1_000_000_000
                + s.plan.slot as u64 * (1_000_000_000 / cfg.rps.max(1) as u64)
                + l
        })
        .max()
        .unwrap_or(1);
    let throughput = served.len() as f64 / (makespan_ns as f64 / 1e9);
    let dup_sent = served.iter().filter(|s| s.plan.dup).count();
    let unique: std::collections::BTreeSet<&str> =
        served.iter().map(|s| s.plan.body.as_str()).collect();
    let ok = served.iter().filter(|s| s.status == 200).count();
    let failed_cells: u64 = served.iter().map(|s| s.failed_cells).sum();
    let requests: Vec<String> = served
        .iter()
        .map(|s| {
            format!(
                "{{\"step\":{},\"slot\":{},\"benchmark\":\"{}\",\"variant\":\"{}\",\
                 \"target\":\"{}\",{}\"dup\":{},\"status\":{},\"body_fnv\":\"{:016x}\",\
                 \"trace_id\":\"{}\"}}",
                s.plan.step,
                s.plan.slot,
                escape(&s.plan.benchmark),
                escape(&s.plan.variant),
                escape(&s.plan.target),
                match &s.plan.tenant {
                    Some(t) => format!("\"tenant\":\"{}\",", escape(t)),
                    None => String::new(),
                },
                s.plan.dup,
                s.status,
                s.body_fnv,
                escape(&s.trace_id)
            )
        })
        .collect();
    let metrics = if cfg.scrape_metrics {
        format!(",\"metrics\":{}", scrape(&cfg.addr)?)
    } else {
        String::new()
    };
    let sampled = if cfg.sample_traces > 0 {
        format!(
            ",\"sampled_traces\":{}",
            sample_traces(&cfg.addr, &served, cfg.sample_traces, &cfg.trace_dir)?
        )
    } else {
        String::new()
    };
    if cfg.shutdown_after {
        http::request(&cfg.addr, "POST", "/shutdown", &[], "")
            .map_err(|e| format!("shutdown request failed: {e}"))?;
    }
    Ok(format!(
        "{{\"seed\":{},\"rps\":{},\"steps\":{},\"scale\":\"{}\",\"dup_ratio\":{},\
         \"requests\":{},\"dup_sent\":{dup_sent},\"unique_bodies\":{},\
         \"http_ok\":{ok},\"http_error\":{},\"failed_cells\":{failed_cells},\
         \"latency_ns\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},\
         \"throughput_rps\":{throughput},\
         \"slo\":{{\"threshold_ms\":{},\"violations\":{violations},\"met\":{}}},\
         \"service_hist\":{}{metrics}{sampled},\
         \"per_request\":[{}]}}\n",
        cfg.seed,
        cfg.rps,
        cfg.steps,
        escape(&cfg.scale),
        cfg.dup_ratio,
        served.len(),
        unique.len(),
        served.len() - ok,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.90),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or(0),
        cfg.slo_ms,
        violations == 0,
        service_hist_json(&served),
        requests.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> LoadgenConfig {
        LoadgenConfig {
            rps: 4,
            steps: 3,
            seed,
            dup_ratio: 0.5,
            ..Default::default()
        }
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let a = plan(&cfg(7)).unwrap();
        let b = plan(&cfg(7)).unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.body, y.body);
            assert_eq!(x.dup, y.dup);
        }
        let c = plan(&cfg(8)).unwrap();
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.body != y.body),
            "different seeds draw different schedules"
        );
    }

    #[test]
    fn dup_ratio_produces_duplicates() {
        let p = plan(&LoadgenConfig {
            rps: 8,
            steps: 4,
            seed: 3,
            dup_ratio: 0.6,
            ..Default::default()
        })
        .unwrap();
        let dups = p.iter().filter(|r| r.dup).count();
        assert!(dups >= 4, "expected >=4 duplicates, got {dups}");
        let p0 = plan(&LoadgenConfig {
            rps: 8,
            steps: 4,
            seed: 3,
            dup_ratio: 0.0,
            ..Default::default()
        })
        .unwrap();
        // With dup_ratio 0 consecutive repeats can still happen by
        // chance draw, but forced duplication is off.
        assert!(p0.iter().filter(|r| r.dup).count() <= dups);
    }

    #[test]
    fn latency_model_is_fcfs_on_the_virtual_clock() {
        let cfg = LoadgenConfig {
            rps: 2,
            steps: 1,
            model_servers: 1,
            ..Default::default()
        };
        let mk = |step, slot, service_s| Served {
            plan: Planned {
                step,
                slot,
                body: String::new(),
                benchmark: String::new(),
                variant: String::new(),
                target: String::new(),
                tenant: None,
                dup: false,
            },
            status: 200,
            body_fnv: 0,
            service_s,
            failed_cells: 0,
            trace_id: String::new(),
        };
        // Slot 0 occupies the single server for 0.75 vs; slot 1
        // arrives at 0.5 vs and must queue for 0.25 vs.
        let served = vec![mk(0, 0, 0.75), mk(0, 1, 0.25)];
        let lat = model_latencies(&cfg, &served);
        assert_eq!(lat[0], 750_000_000);
        assert_eq!(lat[1], 500_000_000, "0.25s queueing + 0.25s service");
    }

    #[test]
    fn service_hist_uses_metrics_buckets_and_quantiles() {
        let mk = |status, service_s| Served {
            plan: Planned {
                step: 0,
                slot: 0,
                body: String::new(),
                benchmark: String::new(),
                variant: String::new(),
                target: String::new(),
                tenant: None,
                dup: false,
            },
            status,
            body_fnv: 0,
            service_s,
            failed_cells: 0,
            trace_id: String::new(),
        };
        // 0.3 and 0.4 land in the [0.25, 0.5) bucket, 0.7 in
        // [0.5, 1); the 400 goes to its own status series.
        let served = vec![mk(200, 0.3), mk(200, 0.7), mk(200, 0.4), mk(400, 0.001)];
        let text = service_hist_json(&served);
        let v = paccport_trace::json::parse(&text).expect("section is JSON");
        assert_eq!(v.get("route").and_then(Json::as_str), Some("run"));
        let s200 = v.get("by_status").and_then(|s| s.get("200")).unwrap();
        assert_eq!(s200.get("count").and_then(Json::as_f64), Some(3.0));
        assert_eq!(s200.get("p50_s").and_then(Json::as_f64), Some(0.5));
        assert_eq!(s200.get("p99_s").and_then(Json::as_f64), Some(1.0));
        let buckets = s200.get("buckets").and_then(Json::as_arr).unwrap();
        let pairs: Vec<(&str, f64)> = buckets
            .iter()
            .map(|b| {
                (
                    b.get("le").and_then(Json::as_str).unwrap(),
                    b.get("cum").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        assert_eq!(pairs, vec![("0.5", 2.0), ("1", 3.0)], "cumulative counts");
        let s400 = v.get("by_status").and_then(|s| s.get("400")).unwrap();
        assert_eq!(s400.get("count").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 0.50), 50);
        assert_eq!(percentile(&xs, 0.90), 90);
        assert_eq!(percentile(&xs, 0.99), 99);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
