//! End-to-end soundness of the static dependence analysis against the
//! device simulator's dynamic race detector: every benchmark variant ×
//! target of the evaluation runs functionally under shadow access
//! logging, and the detector's findings must agree with
//! `analyze_loop`'s verdicts (what `reproduce --check` automates).

use paccport::core::engine::Engine;
use paccport::core::experiments::{check_soundness_on, soundness_cells};
use paccport::core::report::render_soundness;
use paccport::core::study::Scale;

#[test]
fn benchmark_matrix_upholds_the_soundness_invariant() {
    let rep = check_soundness_on(&Engine::serial(), &Scale::smoke());

    // Every cell compiled and ran.
    assert!(rep.failures.is_empty(), "{:?}", rep.failures);
    assert_eq!(rep.cells, soundness_cells(&Scale::smoke()).len());
    assert!(
        rep.accesses > 100_000,
        "the detector must actually have watched the runs ({} accesses)",
        rep.accesses
    );

    // Static-independent => race-free, on every benchmark input.
    assert_eq!(
        rep.races_on_proven_independent(),
        0,
        "{:?}",
        rep.violations()
    );

    // Detector race => static must not have proven independence.
    for row in &rep.rows {
        if row.races > 0 && !row.lost_update_demo {
            assert!(
                !row.proven_independent,
                "race on a proven-independent loop: {row:?}"
            );
        }
    }
    assert!(rep.all_consistent(), "{:?}", rep.violations());

    // The matrix must include loops on both sides of the invariant:
    // proven-independent race-free ones, and refused ones where the
    // detector confirms a real conflict (BFS's stop flag).
    assert!(rep
        .rows
        .iter()
        .any(|r| r.proven_independent && r.races == 0));
    assert!(rep
        .rows
        .iter()
        .any(|r| !r.proven_independent && r.races > 0 && !r.lost_update_demo));

    // The BFS stop-flag store — the lone loop-invariant write the
    // detector exposed — must be refused statically AND flagged
    // dynamically, in agreement.
    let k2 = rep
        .rows
        .iter()
        .find(|r| r.kernel == "bfs_kernel2" && r.races > 0)
        .expect("bfs_kernel2 must show its stop-flag conflict");
    assert!(!k2.proven_independent);
    assert!(k2.verdict.contains("carried dependence"), "{}", k2.verdict);
    assert!(
        k2.race_note.contains("race on `stop`[0]"),
        "{}",
        k2.race_note
    );
}

#[test]
fn caps_lost_update_on_mic_is_caught_as_a_write_write_race() {
    let rep = check_soundness_on(&Engine::serial(), &Scale::smoke());
    assert!(rep.lost_update_caught());

    let demos: Vec<_> = rep.rows.iter().filter(|r| r.lost_update_demo).collect();
    // Both CAPS-on-MIC reduction plans (Reduction, and Unroll on top
    // of it) are known-wrong and must be demonstrated.
    assert!(demos.len() >= 2, "{demos:?}");
    for d in &demos {
        assert!(d.miscompiled);
        assert!(d.consistent);
        assert_eq!(d.series, "CAPS-OCL-5110P");
        // The diagnostic names the reduction array and two distinct
        // iterations.
        assert!(d.race_note.contains("write-write race"), "{}", d.race_note);
        assert!(d.race_note.contains("`hidden`[0]"), "{}", d.race_note);
        assert!(
            d.race_note.contains("iteration (0)") && d.race_note.contains("iteration (1)"),
            "{}",
            d.race_note
        );
    }
    // No GPU plan is wrong: every demo row is a MIC cell.
    assert!(rep
        .rows
        .iter()
        .filter(|r| r.miscompiled)
        .all(|r| r.series == "CAPS-OCL-5110P"));

    // The rendered table reports the verdict the exit code is based on.
    let table = render_soundness(&rep);
    assert!(table.contains("soundness invariant holds"), "{table}");
    assert!(table.contains("write-write race on `hidden`[0]"), "{table}");
    assert!(!table.contains("VIOLATION"), "{table}");
}
