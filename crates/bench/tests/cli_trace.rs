//! End-to-end checks of the telemetry CLI surface: the Chrome export
//! must parse as trace-event JSON with one lane per engine worker,
//! same-flag runs must produce structurally identical exports (only
//! the wall-clock fields may differ), soundness-check spans must name
//! their cell, and `reproduce profile` must be byte-identical at any
//! job count.

use std::path::PathBuf;
use std::process::{Command, Output};

use paccport_trace::json;

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("paccport_cli_trace_{}_{name}", std::process::id()))
}

fn read(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("export file {} missing: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    text
}

/// Blank the wall-clock fields of a Chrome export, keeping everything
/// structural (event order, names, lanes, args).
fn strip_timestamps(trace: &str) -> String {
    let mut out = String::with_capacity(trace.len());
    let mut rest = trace;
    while let Some(pos) = rest
        .find("\"ts\":")
        .map(|a| (a, 5))
        .into_iter()
        .chain(rest.find("\"dur\":").map(|a| (a, 6)))
        .min_by_key(|(a, _)| *a)
    {
        let (at, klen) = pos;
        out.push_str(&rest[..at + klen]);
        rest = &rest[at + klen..];
        let num_end = rest
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(rest.len());
        rest = &rest[num_end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn chrome_export_parses_with_multiple_worker_lanes() {
    let trace_file = tmp("chrome.json");
    let metrics_file = tmp("metrics.txt");
    let out = reproduce(&[
        "--check",
        "--scale",
        "smoke",
        "--jobs",
        "4",
        "--trace-out",
        trace_file.to_str().unwrap(),
        "--metrics-out",
        metrics_file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let trace = read(&trace_file);
    let doc = json::parse(&trace).expect("Chrome export must be valid JSON");
    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(events.len() > 50, "a --check run records real work");
    let mut worker_lanes: Vec<i64> = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
        .map(|e| e.get("tid").unwrap().as_f64().unwrap() as i64)
        .filter(|tid| *tid > 0)
        .collect();
    worker_lanes.sort_unstable();
    worker_lanes.dedup();
    assert!(
        worker_lanes.len() >= 2,
        "a --jobs 4 run must populate at least two worker lanes, got {worker_lanes:?}"
    );

    let metrics = read(&metrics_file);
    assert!(
        metrics.contains("# TYPE devsim_kernel_launches_total counter"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE devsim_kernel_seconds histogram"),
        "{metrics}"
    );
    assert!(
        metrics.contains("# TYPE compile_total counter"),
        "{metrics}"
    );
    assert!(metrics.contains("cache_miss"), "{metrics}");
}

#[test]
fn same_flag_runs_export_identical_structure() {
    let run = |tag: &str| {
        let trace_file = tmp(&format!("det_{tag}.json"));
        let metrics_file = tmp(&format!("det_{tag}.txt"));
        let out = reproduce(&[
            "--check",
            "--scale",
            "smoke",
            "--jobs",
            "4",
            "--trace-out",
            trace_file.to_str().unwrap(),
            "--metrics-out",
            metrics_file.to_str().unwrap(),
        ]);
        assert!(out.status.success());
        (read(&trace_file), read(&metrics_file))
    };
    let (trace_a, metrics_a) = run("a");
    let (trace_b, metrics_b) = run("b");

    assert_eq!(
        strip_timestamps(&trace_a),
        strip_timestamps(&trace_b),
        "same-flag traces must be identical modulo ts/dur"
    );
    // Metrics are byte-deterministic except the span-duration
    // histogram, whose observations are wall-clock readings.
    let strip = |m: &str| -> String {
        m.lines()
            .filter(|l| !l.contains("trace_span_seconds"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&metrics_a), strip(&metrics_b));
}

#[test]
fn jsonl_and_folded_formats_are_well_formed() {
    let trace_file = tmp("events.jsonl");
    let out = reproduce(&[
        "--scale",
        "smoke",
        "--trace-out",
        trace_file.to_str().unwrap(),
        "--trace-format",
        "jsonl",
    ]);
    assert!(out.status.success());
    let text = read(&trace_file);
    assert!(text.lines().count() > 10);
    for line in text.lines() {
        let obj = json::parse(line).expect("every JSONL line parses");
        assert!(obj.get("type").is_some(), "{line}");
    }

    let folded_file = tmp("stacks.folded");
    let out = reproduce(&[
        "--scale",
        "smoke",
        "--trace-out",
        folded_file.to_str().unwrap(),
        "--trace-format",
        "folded",
    ]);
    assert!(out.status.success());
    let text = read(&folded_file);
    for line in text.lines() {
        let (path, value) = line.rsplit_once(' ').expect("`stack;path NS` format");
        assert!(!path.is_empty());
        value
            .parse::<u64>()
            .unwrap_or_else(|_| panic!("bad self-time: {line}"));
    }
    assert!(
        text.lines().any(|l| l.contains(';')),
        "folded output must contain at least one nested stack:\n{text}"
    );
}

#[test]
fn jsonl_check_spans_name_their_cell() {
    let trace_file = tmp("check.jsonl");
    let out = reproduce(&[
        "--check",
        "--scale",
        "smoke",
        "--jobs",
        "2",
        "--trace-out",
        trace_file.to_str().unwrap(),
        "--trace-format",
        "jsonl",
    ]);
    assert!(out.status.success());
    let text = read(&trace_file);
    let mut cells = Vec::new();
    for line in text.lines() {
        let obj = json::parse(line).expect("every JSONL line parses");
        if obj.get("name").and_then(|n| n.as_str()) != Some("soundness.check_cell") {
            continue;
        }
        let attr = |k: &str| {
            obj.get("attrs")
                .and_then(|a| a.get(k))
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| panic!("check span without `{k}`: {line}"))
                .to_string()
        };
        cells.push((attr("benchmark"), attr("variant"), attr("target")));
    }
    assert_eq!(cells.len(), 59, "one check span per soundness cell");
    assert!(cells.contains(&("LUD".into(), "Base".into(), "CAPS-CUDA-K40".into())));
    assert!(cells.contains(&("BP".into(), "Reduction".into(), "CAPS-OCL-5110P".into())));
    cells.sort();
    cells.dedup();
    assert_eq!(cells.len(), 59, "every span names a distinct cell");
}

#[test]
fn profile_subcommand_is_deterministic_across_job_counts() {
    let serial = reproduce(&["profile", "--scale", "smoke"]);
    assert!(
        serial.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&serial.stderr)
    );
    let text = String::from_utf8(serial.stdout.clone()).unwrap();
    assert!(text.contains("per-kernel profiles:"), "{text}");
    assert!(
        text.contains("HOST (never launched)"),
        "the PGI BFS host-fallback must be visible in the sweep"
    );
    let parallel = reproduce(&["profile", "--scale", "smoke", "--jobs", "4"]);
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "profile output must not depend on worker count"
    );
}

#[test]
fn conform_subcommand_populates_leg_outcome_metrics() {
    let metrics_file = tmp("conform.txt");
    let out = reproduce(&[
        "conform",
        "--programs",
        "5",
        "--seed",
        "7",
        "--metrics-out",
        metrics_file.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = read(&metrics_file);
    assert!(
        metrics.contains("conformance_legs_total{outcome="),
        "{metrics}"
    );
}

#[test]
fn telemetry_flag_misuse_is_a_usage_error() {
    let out = reproduce(&["--trace-format", "chrome"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--trace-format requires --trace-out"), "{err}");

    let out = reproduce(&["--trace-out", "/tmp/x.json", "--trace-format", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown trace format"), "{err}");

    let out = reproduce(&["profile", "--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}
