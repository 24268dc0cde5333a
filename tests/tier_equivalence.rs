//! Workspace-level gate: the bytecode VM, which every functional run
//! in the product uses, is bitwise interchangeable with the
//! tree-walking reference interpreter, which only tests run.
//!
//! Two angles of attack:
//!
//! 1. The full soundness matrix (every compiler personality × device
//!    × program cell that `reproduce --check` sweeps) is run under
//!    both tiers and the complete observable run state — host buffer
//!    bit patterns, race sets, shadow-log access counts, transfer
//!    ledgers, while-loop iteration counts, kernel launch stats and
//!    modeled timings ([`RunResult::diff`]) — must agree exactly. At
//!    smoke scale this runs with the race tracker on and off; at quick
//!    scale, where the batched Hydro, GE and BP launches replay their
//!    access tapes into the tracker, with it on.
//! 2. The pinned conformance corpus — the regression cases fished out
//!    by the differential fuzzer — is replayed through the driver's
//!    `tier/bytecode` leg, which cross-checks the tiers including
//!    panic messages.

use paccport::compilers::ArtifactCache;
use paccport::conformance::corpus::corpus;
use paccport::conformance::{check_case, Outcome};
use paccport::core::experiments::soundness_cells;
use paccport::core::study::Scale;
use paccport::devsim::{run, ExecTier, RunResult};

/// Run every soundness cell at `scale` under both tiers and return the
/// number of cells and a `label: difference` line per cell on which
/// the tiers disagree.
fn tier_mismatches(scale: &Scale, race_check: bool) -> (usize, Vec<String>) {
    let cache = ArtifactCache::new();
    let cells = soundness_cells(scale);
    let mut mismatches = Vec::new();
    for cell in &cells {
        let mismatch = match cache.compile(cell.compiler, &cell.program, &cell.options) {
            Err(e) => Some(format!("compile failed: {e}")),
            Ok(cp) => {
                let run_tier = |tier: ExecTier| -> Result<RunResult, String> {
                    run(
                        &cp,
                        &cell.cfg.clone().with_race_check(race_check).with_tier(tier),
                    )
                };
                match (run_tier(ExecTier::Tree), run_tier(ExecTier::Bytecode)) {
                    (Err(et), Err(eb)) if et == eb => None,
                    (Err(et), Err(eb)) => {
                        Some(format!("tiers erred differently: `{et}` vs `{eb}`"))
                    }
                    (Err(e), Ok(_)) => Some(format!("tree erred (`{e}`), bytecode succeeded")),
                    (Ok(_), Err(e)) => Some(format!("bytecode erred (`{e}`), tree succeeded")),
                    (Ok(rt), Ok(rb)) => rt.diff(&rb),
                }
            }
        };
        if let Some(d) = mismatch {
            mismatches.push(format!("{}: {d}", cell.label()));
        }
    }
    (cells.len(), mismatches)
}

#[test]
fn soundness_matrix_is_tier_equivalent() {
    let (cells, mismatches) = tier_mismatches(&Scale::smoke(), true);
    assert_eq!(
        cells, 59,
        "smoke soundness matrix changed size; update this pin deliberately"
    );
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn soundness_matrix_is_tier_equivalent_without_race_tracking() {
    // With shadow-logging off the bytecode VM batches without taping
    // accesses; the tree-walker is unaffected, so any batching bug
    // shows up here as a bitwise mismatch.
    let (cells, mismatches) = tier_mismatches(&Scale::smoke(), false);
    assert_eq!(cells, 59);
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn quick_soundness_matrix_is_tier_equivalent_under_race_tracking() {
    // At quick scale the batched Hydro, GE and BP launches run under
    // the race detector, so the replayed access tapes must reproduce
    // the tree-walker's race sets and shadow-log counts exactly.
    let (cells, mismatches) = tier_mismatches(&Scale::quick(), true);
    assert_eq!(cells, 59);
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn pinned_corpus_replays_on_bytecode_tier() {
    let mut tier_legs = 0;
    for (name, case) in corpus() {
        for leg in check_case(&case) {
            if leg.label != "tier/bytecode" {
                continue;
            }
            tier_legs += 1;
            if let Outcome::Mismatch { kind, detail } = &leg.outcome {
                panic!("corpus case `{name}` diverged across tiers: {kind:?}: {detail}");
            }
        }
    }
    assert!(tier_legs > 0, "corpus produced no tier/bytecode legs");
}
