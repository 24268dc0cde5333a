//! End-to-end chaos checks on `reproduce serve` (ISSUE 9): the server
//! under `--inject chaos --fault-seed N` plus a seeded loadgen must
//! produce byte-identical SLO reports across two runs against fresh
//! servers; quarantined cells surface as typed error responses, never
//! hangs; the fault ledger lands in `GET /metrics`; and SIGTERM drains
//! the process to a clean exit 0.
//!
//! The committed loadgen baseline `BENCH_serve.json` (repo root) is
//! checked here too — re-bless with
//! `UPDATE_SNAPSHOTS=1 cargo test -p paccport-bench --test cli_serve_chaos`.

use std::process::{Child, Command, Output};

use paccport_server::http;

/// Spawn `reproduce serve` with `args` and wait for it to report its
/// bound address through `--port-file`. The caller owns the child.
fn spawn_serve(tag: &str, args: &[&str]) -> (Child, String) {
    let port_file =
        std::env::temp_dir().join(format!("paccport-serve-{}-{tag}.port", std::process::id()));
    let _ = std::fs::remove_file(&port_file);
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("serve")
        .args(["--addr", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(args)
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn reproduce serve");
    for _ in 0..200 {
        if let Ok(addr) = std::fs::read_to_string(&port_file) {
            if !addr.is_empty() {
                let _ = std::fs::remove_file(&port_file);
                return (child, addr);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let _ = child.kill();
    let _ = child.wait();
    panic!("server never wrote {}", port_file.display());
}

fn loadgen(addr: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args([
            "loadgen",
            "--addr",
            addr,
            "--rps",
            "4",
            "--duration-steps",
            "3",
            "--seed",
            "42",
            "--dup-ratio",
            "0.25",
        ])
        .args(extra)
        .output()
        .expect("run reproduce loadgen")
}

/// A drained server exits 0 and narrates both lifecycle milestones.
fn assert_clean_exit(mut child: Child) {
    let status = child.wait().expect("wait for serve");
    assert!(status.success(), "serve must exit 0 after drain: {status}");
    let mut out = String::new();
    use std::io::Read;
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut out)
        .unwrap();
    assert!(out.contains("serving on"), "{out}");
    assert!(out.contains("drained"), "{out}");
}

#[test]
fn chaos_slo_reports_are_byte_identical_across_fresh_servers() {
    let mut reports: Vec<Vec<u8>> = Vec::new();
    for round in 0..2 {
        let (child, addr) = spawn_serve(
            &format!("chaos-det-{round}"),
            &["--inject", "chaos", "--fault-seed", "7"],
        );
        let out = loadgen(addr.trim(), &["--shutdown"]);
        assert!(
            out.status.success(),
            "loadgen failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        reports.push(out.stdout);
        assert_clean_exit(child);
    }
    assert_eq!(
        String::from_utf8_lossy(&reports[0]),
        String::from_utf8_lossy(&reports[1]),
        "same (--inject, --fault-seed, loadgen seed) against a fresh \
         server must reproduce the SLO report byte-for-byte"
    );
}

#[test]
fn quarantined_cells_are_typed_error_responses_with_a_metrics_ledger() {
    // Rate-1.0 device faults: every attempt fails, every cell
    // quarantines — the strongest "no hangs" probe there is.
    let (child, addr) = spawn_serve(
        "quarantine",
        &["--inject", "device:1.0", "--fault-seed", "9"],
    );
    let addr = addr.trim();
    let body = "{\"benchmark\":\"LUD\",\"variant\":\"Base\",\
                \"target\":\"CAPS-CUDA-K40\",\"scale\":\"smoke\",\"seed\":7}";
    let r = http::request(addr, "POST", "/run", &[], body).unwrap();
    assert_eq!(
        r.status, 500,
        "all-quarantined requests are 500: {}",
        r.body
    );
    let v = paccport_trace::json::parse(&r.body).expect("typed error body is JSON");
    assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("failed"));
    assert!(r.body.contains("\"injected\":true"), "{}", r.body);
    assert!(r.body.contains("[injected]"), "{}", r.body);
    assert!(r.body.contains("\"attempts\":"), "{}", r.body);

    // The same request repeats byte-identically — quarantine decisions
    // are a pure function of (cell, seed), not of scheduling.
    let again = http::request(addr, "POST", "/run", &[], body).unwrap();
    assert_eq!(again.body, r.body);

    // The fault ledger is visible in the Prometheus exposition.
    let m = http::request(addr, "GET", "/metrics", &[], "").unwrap();
    assert_eq!(m.status, 200);
    assert!(
        m.body.contains("faults_injected_total"),
        "fault ledger missing from /metrics:\n{}",
        m.body
    );
    assert!(m.body.contains("serve_requests_total"), "{}", m.body);

    let s = http::request(addr, "POST", "/shutdown", &[], "").unwrap();
    assert_eq!(s.status, 200);
    assert_clean_exit(child);
}

#[test]
fn sigterm_drains_the_server_to_a_clean_exit() {
    let (child, addr) = spawn_serve("sigterm", &[]);
    let addr = addr.trim();
    let r = http::request(addr, "GET", "/healthz", &[], "").unwrap();
    assert_eq!(r.status, 200);
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
    assert_clean_exit(child);
}

#[test]
fn committed_loadgen_baseline_is_reproducible() {
    let baseline = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_serve.json");
    let (child, addr) = spawn_serve("baseline", &[]);
    let out = loadgen(addr.trim(), &["--scrape-metrics", "--shutdown"]);
    assert!(
        out.status.success(),
        "loadgen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_clean_exit(child);
    let got = String::from_utf8(out.stdout).unwrap();
    paccport_trace::json::parse(&got).expect("SLO report is valid JSON");
    assert!(got.contains("\"slo\":"), "{got}");
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&baseline, &got).expect("re-bless BENCH_serve.json");
        return;
    }
    let want = std::fs::read_to_string(&baseline)
        .unwrap_or_else(|e| panic!("read {}: {e}", baseline.display()));
    assert_eq!(
        got, want,
        "loadgen SLO report drifted from the committed BENCH_serve.json \
         baseline; if intentional, re-bless with UPDATE_SNAPSHOTS=1"
    );
}
