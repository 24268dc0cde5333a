//! End-to-end checks on the `reproduce` binary: the parallel engine
//! and the tracing flag must never change what lands on stdout.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

#[test]
fn parallel_stdout_is_byte_identical_to_serial() {
    let serial = reproduce(&["--quick", "--jobs", "1"]);
    let parallel = reproduce(&["--quick", "--jobs", "8"]);
    assert!(serial.status.success());
    assert!(parallel.status.success());
    assert_eq!(
        serial.stdout, parallel.stdout,
        "--jobs 8 must reproduce the serial report byte-for-byte"
    );
}

#[test]
fn trace_goes_to_stderr_only() {
    let plain = reproduce(&["--quick"]);
    let traced = reproduce(&["--quick", "--jobs", "4", "--trace"]);
    assert!(traced.status.success());
    assert_eq!(
        plain.stdout, traced.stdout,
        "--trace must leave stdout untouched"
    );
    let err = String::from_utf8_lossy(&traced.stderr);
    assert!(err.contains("unique artifacts compiled"), "stderr: {err}");
    assert!(err.contains("== trace summary =="), "stderr: {err}");
    assert!(err.contains("cache.hit"), "stderr: {err}");
    assert!(plain.stderr.is_empty(), "no trace flag, no stderr chatter");
}

#[test]
fn bad_jobs_value_is_a_usage_error() {
    for args in [
        &["--quick", "--jobs", "0"][..],
        &["--quick", "--jobs", "many"][..],
        &["--quick", "--jobs"][..],
        &["--quick", "--jbos", "4"][..],
        &["--quick", "--exp"][..],
        &["--quick", "fig6"][..],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "usage errors must not emit a report");
    }
}

#[test]
fn last_scale_flag_wins() {
    for (args, want) in [
        (&["--scale", "paper", "--quick"][..], "scale: quick ("),
        (
            &["--quick", "--scale", "paper"][..],
            "scale: paper (Table IV)",
        ),
    ] {
        let out = reproduce(&[args, &["--exp", "tab1"]].concat());
        assert!(out.status.success(), "args: {args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains(want), "args: {args:?}\n{stdout}");
    }
}
