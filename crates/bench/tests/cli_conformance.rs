//! The `reproduce conform` subcommand and the blessed snapshots.
//!
//! The conformance gate in CI diffs two runs byte-for-byte, so the
//! subcommand's determinism is itself a tested contract here, not an
//! aspiration. The `--check --scale smoke` report and a 40-program
//! `conform` report are additionally pinned against golden snapshots:
//! any change to their wording, ordering, verdicts or tallies must be
//! a conscious re-bless (`UPDATE_SNAPSHOTS=1 cargo test -p
//! paccport-bench`), never drift.

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
        &["--scale", "smoke", "--exp", "fig99"][..],
        &["serve", "--workers"][..],
        &["loadgen", "--frobnicate"][..],
        &["fsck", "--frobnicate"][..],
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "usage errors must not emit a report");
    }
}

/// Entry points that were removed stay removed: each is an unknown
/// argument, not silently ignored. The interpreter is not a user-facing
/// choice (every functional run uses the bytecode VM), `reproduce
/// profile` is the one per-kernel profile sweep, and perfbench is the
/// one timing harness.
#[test]
fn removed_entry_points_are_rejected_as_unknown() {
    // Spelled in pieces so a search for them finds no live use.
    let tier = concat!("--", "tier");
    let profile = concat!("--", "profile");
    let bench = concat!("bench", "-devsim");
    for (args, sub, arg) in [
        (&["--quick", tier, "tree"][..], "", tier),
        (&["conform", tier, "both"][..], "conform: ", tier),
        (&["--quick", profile][..], "", profile),
        (&[bench, "--samples", "7"][..], "", bench),
    ] {
        let out = reproduce(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(out.stdout.is_empty(), "usage errors must not emit a report");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("reproduce: {sub}unknown argument `{arg}`")),
            "args: {args:?}, stderr: {err}"
        );
    }
}

/// Compare the stdout of `reproduce args` with the blessed snapshot
/// `name`, or re-bless it when `UPDATE_SNAPSHOTS` is set.
fn assert_matches_snapshot(name: &str, args: &[&str]) {
    let path = format!("{}/tests/snapshots/{name}", env!("CARGO_MANIFEST_DIR"));
    let command = format!("reproduce {}", args.join(" "));
    let out = reproduce(args);
    assert!(out.status.success(), "`{command}` must pass");
    let got = String::from_utf8_lossy(&out.stdout).into_owned();
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::write(&path, &got).expect("re-bless snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read blessed snapshot");
    assert_eq!(
        got, want,
        "`{command}` drifted from the blessed snapshot {name}; if the \
         change is intentional, re-bless with \
         UPDATE_SNAPSHOTS=1 cargo test -p paccport-bench"
    );
}

#[test]
fn check_smoke_stdout_matches_blessed_snapshot() {
    assert_matches_snapshot("check_smoke.txt", &["--check", "--scale", "smoke"]);
}

/// Every leg's classification over 40 programs, pinned: a change to
/// how legs execute (the per-case memo, the tier leg, a transform matcher)
/// must leave the tallies alone or re-bless them deliberately.
#[test]
fn conform_40_seed42_stdout_matches_blessed_snapshot() {
    assert_matches_snapshot(
        "conform_40_seed42.txt",
        &["conform", "--programs", "40", "--seed", "42"],
    );
}
