//! Layer probes: inner public functions timed one layer at a time on fixed
//! inputs, the same for every workload, so each layer metric means one thing
//! wherever it is reported. Counts repeat exactly from run to run.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use paccport_compilers::cache::artifact_checksum;
use paccport_compilers::passes::Pipeline;
use paccport_compilers::{
    compile, decode_artifact, encode_artifact, ArtifactCache, CacheKey, CompileOptions,
    CompiledProgram, CompilerId,
};
use paccport_core::durable::DurableResult;
use paccport_core::{CellJournal, CheckCell, Measured, Scale};
use paccport_devsim::{self as devsim, ExecTier, RunConfig, RunResult};
use paccport_kernels::{lud, VariantCfg};
use paccport_persist::wire::Writer;
use paccport_persist::BlobStore;
use paccport_server::http;

use crate::report::{Metric, WorkloadReport};
use crate::span::Tracer;
use crate::workloads::{Ctx, CONFORM_SEED};
use crate::{serve, stats};

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx, dir: &Path, r: &mut WorkloadReport) -> Result<(), String> {
    let (mut cells, build_s) =
        timed(|| paccport_core::experiments::soundness_cells(&Scale::smoke()));
    if ctx.smoke {
        cells.truncate(12);
    }
    r.put(
        "kernels.cells_build_ms",
        Metric::single("ms", build_s * 1e3),
    );
    let artifacts = compilers(&cells, dir, r)?;
    execution(&cells, &artifacts, dir, r)?;
    timing(ctx, r)?;
    conformance(ctx, r);
    server(ctx, r)
}

/// A functional cell's compiled artifact, by cache key.
type Artifacts = HashMap<CacheKey, CompiledProgram>;

/// Cold compiles of every distinct (compiler, options, program) among the
/// cells, then the durable encoding, PTX counts and blob store round trip
/// of each artifact.
fn compilers(cells: &[CheckCell], dir: &Path, r: &mut WorkloadReport) -> Result<Artifacts, String> {
    let mut artifacts = Artifacts::new();
    let mut order = Vec::new();
    let mut compile_s = 0.0;
    for c in cells {
        let key = CacheKey::new(c.compiler, &c.program, &c.options);
        if artifacts.contains_key(&key) {
            continue;
        }
        let (out, s) = timed(|| compile(c.compiler, &c.program, &c.options));
        compile_s += s;
        match out {
            Ok(a) => {
                order.push(key.clone());
                artifacts.insert(key, a);
            }
            Err(e) => r.check(false, || format!("compile {}: {e}", c.label())),
        }
    }
    let n = order.len() as f64;
    let blobs =
        BlobStore::open(&dir.join("probe-blobs")).map_err(|e| format!("blob store: {e}"))?;
    let (mut encode_s, mut decode_s, mut count_s, mut put_s, mut get_s) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for key in &order {
        let a = &artifacts[key];
        let (enc, s) = timed(|| encode_artifact(a));
        encode_s += s;
        let (dec, s) = timed(|| decode_artifact(&enc));
        decode_s += s;
        r.check(
            dec.is_ok_and(|d| artifact_checksum(&d) == artifact_checksum(a)),
            || format!("artifact {} does not round-trip", key.storage_name()),
        );
        count_s += timed(|| black_box(a.module.counts())).1;
        let name = key.storage_name();
        let (put, s) = timed(|| blobs.put(&name, &enc));
        put_s += s;
        let (got, s) = timed(|| blobs.get(&name));
        get_s += s;
        r.check(put.is_ok() && got.as_deref() == Some(enc.as_str()), || {
            format!("blob {name} does not round-trip")
        });
    }
    let compile_ms = compile_s * 1e3 / n;
    let decode_us = decode_s * 1e6 / n;
    r.put("compilers.compiles", Metric::single("count", n));
    r.put(
        "compilers.compile_ms_per_artifact",
        Metric::single("ms", compile_ms),
    );
    r.put(
        "compilers.encode_us",
        Metric::single("us", encode_s * 1e6 / n),
    );
    r.put("compilers.decode_us", Metric::single("us", decode_us));
    r.put(
        "compilers.decode_vs_compile",
        Metric::single("ratio", decode_us / (compile_ms * 1e3)),
    );
    r.put("ptx.count_us", Metric::single("us", count_s * 1e6 / n));
    r.put("persist.blob_put_us", Metric::single("us", put_s * 1e6 / n));
    r.put("persist.blob_get_us", Metric::single("us", get_s * 1e6 / n));
    Ok(artifacts)
}

/// What `study::measure` would record for the cell: a realistic journal
/// payload.
fn measured(c: &CheckCell, a: &CompiledProgram, run: &RunResult) -> Measured {
    let dominant = run
        .kernel_stats
        .iter()
        .max_by(|x, y| x.device_time.total_cmp(&y.device_time));
    Measured {
        series: c.series.clone(),
        variant: c.variant.clone(),
        seconds: run.elapsed,
        kernel_seconds: run.kernel_time,
        transfer_seconds: run.transfer_time_s,
        config: dominant.map(|d| d.config_label.clone()).unwrap_or_default(),
        counts: a.module.counts(),
        h2d: run.transfers.h2d_count,
        d2h: run.transfers.d2h_count,
        launches: run.kernel_stats.iter().map(|s| s.launches).sum(),
        on_device: run.kernel_stats.iter().all(|s| s.ran_on_device),
        while_iterations: run.while_iterations,
        transfers_per_while_iter: run.transfers_per_while_iter,
        transfers_outside_while: run.transfers_outside_while,
    }
}

/// Functional execution of every cell three ways: the default tier with
/// the race detector off, the bytecode tier, and the race detector on.
/// Each result is then journaled the way a `--state-dir` run records it.
fn execution(
    cells: &[CheckCell],
    artifacts: &Artifacts,
    dir: &Path,
    r: &mut WorkloadReport,
) -> Result<(), String> {
    let (mut exec_s, mut bytecode_s, mut race_on_s, mut accesses) = (0.0, 0.0, 0.0, 0u64);
    let mut results = Vec::new();
    for c in cells {
        let Some(a) = artifacts.get(&CacheKey::new(c.compiler, &c.program, &c.options)) else {
            continue;
        };
        let cfg = c.cfg.clone().with_race_check(false);
        let (plain, s) = timed(|| devsim::run(a, &cfg));
        exec_s += s;
        let (bytecode, s) = timed(|| devsim::run(a, &cfg.clone().with_tier(ExecTier::Bytecode)));
        bytecode_s += s;
        let (raced, s) = timed(|| devsim::run(a, &cfg.clone().with_race_check(true)));
        race_on_s += s;
        match (plain, bytecode, raced) {
            (Ok(plain), Ok(_), Ok(raced)) => {
                accesses += raced.race_accesses;
                results.push(measured(c, a, &plain));
            }
            (p, b, x) => r.check(false, || {
                format!("{}: {:?}", c.label(), [p.err(), b.err(), x.err()])
            }),
        }
    }
    let race_s = race_on_s - exec_s;
    r.put("devsim.runs", Metric::single("count", results.len() as f64));
    r.put("devsim.exec_s", Metric::single("s", exec_s));
    r.put("devsim.exec_bytecode_s", Metric::single("s", bytecode_s));
    r.put("devsim.race_s", Metric::single("s", race_s));
    r.put(
        "devsim.race_accesses",
        Metric::single("count", accesses as f64),
    );
    r.put(
        "devsim.race_ns_per_access",
        Metric::single("ns", race_s * 1e9 / accesses.max(1) as f64),
    );

    let state = dir.join("probe-journal");
    let journal = CellJournal::open(&state, false).map_err(|e| format!("journal: {e}"))?;
    let mut append_s = 0.0;
    for (i, m) in results.iter().enumerate() {
        let mut w = Writer::new();
        m.encode(&mut w);
        let tokens = w.finish();
        let key = format!("probe/c{i}");
        append_s += timed(|| journal.record_ok(&key, i as u128, &tokens)).1;
    }
    drop(journal);
    let (reopened, open_s) = timed(|| CellJournal::open(&state, true));
    let replayable = reopened.map(|j| j.replayable()).unwrap_or(0);
    r.check(replayable == results.len(), || {
        format!("journal replays {replayable} of {} records", results.len())
    });
    r.put(
        "persist.journal_records",
        Metric::single("count", results.len() as f64),
    );
    r.put(
        "persist.journal_append_us",
        Metric::single("us", append_s * 1e6 / results.len().max(1) as f64),
    );
    r.put(
        "persist.journal_open_ms",
        Metric::single("ms", open_s * 1e3),
    );
    Ok(())
}

/// The analytic timing model alone: LUD Base at paper size (4096, 8,192
/// launches per run) on three targets, median of five runs each.
fn timing(ctx: &Ctx, r: &mut WorkloadReport) -> Result<(), String> {
    let n = if ctx.smoke { 512 } else { 4096 };
    let program = lud::program(&VariantCfg::baseline());
    let cfg = RunConfig::timing(vec![("n".into(), n as f64)], 1);
    let (mut secs, mut launches) = (0.0, 0u64);
    for (id, opts) in [
        (CompilerId::Caps, CompileOptions::gpu()),
        (CompilerId::Pgi, CompileOptions::gpu()),
        (CompilerId::Caps, CompileOptions::mic()),
    ] {
        let a = compile(id, &program, &opts).map_err(|e| e.to_string())?;
        let mut times = Vec::new();
        for rep in 0..5 {
            let (out, s) = timed(|| devsim::run(&a, &cfg));
            let out = out?;
            if rep == 0 {
                launches += out.kernel_stats.iter().map(|k| k.launches).sum::<u64>();
            }
            times.push(s);
        }
        secs += stats::median(&times).expect("five runs");
    }
    r.check(launches > 0, || "the timing probe launched nothing".into());
    r.put(
        "devsim.timing_launches",
        Metric::single("count", launches as f64),
    );
    r.put(
        "devsim.timing_ns_per_launch",
        Metric::single("ns", secs * 1e9 / launches.max(1) as f64),
    );
    Ok(())
}

/// Generated conformance cases: generation, the reference oracle, the
/// default pass pipeline, and the full differential check.
fn conformance(ctx: &Ctx, r: &mut WorkloadReport) {
    let cases = if ctx.smoke { 4 } else { 16 };
    let pipeline = Pipeline::default_pipeline();
    let (mut gen_s, mut oracle_s, mut passes_s, mut check_s) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..cases {
        let (case, s) = timed(|| paccport_conformance::generate(CONFORM_SEED, i));
        gen_s += s;
        let (oracle, s) =
            timed(|| paccport_conformance::run_oracle(&case.program, &case.params, &case.inputs));
        oracle_s += s;
        let mut program = case.program.clone();
        passes_s += timed(|| pipeline.run(&mut program)).1;
        let (legs, s) = timed(|| paccport_conformance::check_case(&case));
        check_s += s;
        let mismatch = legs
            .iter()
            .any(|l| matches!(l.outcome, paccport_conformance::Outcome::Mismatch { .. }));
        r.check(oracle.is_ok() && !mismatch, || {
            format!("conformance case {i} failed")
        });
    }
    let per = |s: f64, scale: f64| s * scale / cases as f64;
    r.put(
        "conformance.generate_us",
        Metric::single("us", per(gen_s, 1e6)),
    );
    r.put(
        "conformance.oracle_us",
        Metric::single("us", per(oracle_s, 1e6)),
    );
    r.put(
        "conformance.check_case_ms",
        Metric::single("ms", per(check_s, 1e3)),
    );
    r.put(
        "compilers.passes_us",
        Metric::single("us", per(passes_s, 1e6)),
    );
}

/// The request path of the server without its queue: reading a request off
/// a loopback socket, parsing, running the cell, rendering the body.
fn server(ctx: &Ctx, r: &mut WorkloadReport) -> Result<(), String> {
    let take = if ctx.smoke { 30 } else { 120 };
    let reqs = serve::block(ctx, ctx.seed);
    let cache = ArtifactCache::new();
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (mut read_s, mut parse_ns, mut render_ns) = (0.0, 0u64, 0u64);
    let mut run_cell_ms = Vec::new();
    for req in reqs.iter().take(take) {
        let raw = format!(
            "POST /run HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nX-Tenant: {}\r\n\r\n{}",
            req.body.len(),
            req.tenant,
            req.body
        );
        let mut client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        client
            .write_all(raw.as_bytes())
            .map_err(|e| e.to_string())?;
        let (mut conn, _) = listener.accept().map_err(|e| e.to_string())?;
        let (got, s) = timed(|| http::read_request(&mut conn));
        read_s += s;
        let read_ok = matches!(&got, Ok(Ok(q)) if q.body == req.body);
        let mut t = Tracer::default();
        let out = serve::in_process(&mut t, &cache, &req.body);
        r.check(read_ok && matches!(out, Ok((200, _))), || {
            format!("request path failed for {}", req.body)
        });
        let totals = t.totals();
        let ns = |name: &str| totals.get(name).map_or(0, |v| v.total_ns);
        parse_ns += ns("server.parse");
        render_ns += ns("server.render");
        run_cell_ms.push(ns("core.run_cell") as f64 * 1e-6);
    }
    let n = take.min(reqs.len()) as f64;
    r.put(
        "server.http_read_us",
        Metric::single("us", read_s * 1e6 / n),
    );
    r.put(
        "server.parse_us",
        Metric::single("us", parse_ns as f64 * 1e-3 / n),
    );
    r.put(
        "server.render_us",
        Metric::single("us", render_ns as f64 * 1e-3 / n),
    );
    let pct = |p| stats::percentile(&run_cell_ms, p).unwrap_or(f64::NAN);
    r.put("core.run_cell_ms_p50", Metric::single("ms", pct(50.0)));
    r.put("core.run_cell_ms_p90", Metric::single("ms", pct(90.0)));
    Ok(())
}
