//! The `reproduce conform` subcommand and the blessed `--check`
//! snapshot.
//!
//! The conformance gate in CI diffs two runs byte-for-byte, so the
//! subcommand's determinism is itself a tested contract here, not an
//! aspiration. The `--check --scale smoke` report is additionally
//! pinned against a golden snapshot: any change to the soundness
//! table's wording, ordering or verdicts must be a conscious re-bless
//! (`UPDATE_SNAPSHOTS=1 cargo test -p paccport-bench`), never drift.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

#[test]
fn conform_smoke_passes_and_reports_expected_divergence() {
    let out = reproduce(&["conform", "--programs", "10", "--seed", "42"]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "conform smoke must exit 0; stdout:\n{text}"
    );
    assert!(text.contains("differential conformance: 10 programs, seed 42"));
    assert!(text.contains("mismatches         : 0"), "stdout:\n{text}");
    // The quirk model must fire — a run where the CAPS MIC reduction
    // bug never diverges means the harness lost its teeth.
    assert!(
        !text.contains("expected divergence: 0 "),
        "no modeled miscompilation fired over 10 programs:\n{text}"
    );
}

#[test]
fn conform_output_is_byte_identical_across_runs() {
    let a = reproduce(&["conform", "--programs", "25", "--seed", "42"]);
    let b = reproduce(&["conform", "--programs", "25", "--seed", "42"]);
    assert!(a.status.success() && b.status.success());
    assert_eq!(
        a.stdout, b.stdout,
        "conform must be deterministic for a fixed (--programs, --seed)"
    );
    // And a different seed must actually change the run (same program
    // count, different draws).
    let c = reproduce(&["conform", "--programs", "25", "--seed", "7"]);
    assert!(c.status.success());
    assert!(
        String::from_utf8_lossy(&c.stdout).contains("25 programs, seed 7"),
        "seed must be echoed in the report header"
    );
}

#[test]
fn conform_rejects_bad_arguments() {
    for args in [
        &["conform", "--programs"][..],
        &["conform", "--programs", "many"][..],
        &["conform", "--seed"][..],
        &["conform", "--frobnicate"][..],
        &["profile", "--scale"][..],
        &["bench-devsim", "--samples"][..],
        &["serve", "--workers"][..],
        &["loadgen", "--frobnicate"][..],
        &["fsck", "--frobnicate"][..],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "usage errors must not emit a report");
    }
}

#[test]
fn check_smoke_stdout_matches_blessed_snapshot() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/snapshots/check_smoke.txt"
    );
    let out = reproduce(&["--check", "--scale", "smoke"]);
    assert!(out.status.success(), "--check --scale smoke must pass");
    let got = String::from_utf8_lossy(&out.stdout).into_owned();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(path, &got).expect("re-bless snapshot");
        return;
    }
    let want = std::fs::read_to_string(path).expect("read blessed snapshot");
    assert_eq!(
        got, want,
        "`reproduce --check --scale smoke` drifted from the blessed \
         snapshot; if the change is intentional, re-bless with \
         UPDATE_SNAPSHOTS=1 cargo test -p paccport-bench"
    );
}
