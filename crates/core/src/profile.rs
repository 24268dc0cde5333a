//! The `reproduce profile` sweep: the nvprof-style per-kernel view
//! (`paccport_devsim::render_profile`) across the whole benchmark ×
//! variant × target matrix.
//!
//! The paper's authors found PGI's BFS kernels silently running on the
//! host by profiling (`PGI_ACC_TIME=1` + nvprof, Section V-C1); this
//! sweep makes the equivalent view available for every cell of the
//! reproduction in one command. Cells are the same functional
//! configurations the soundness check uses
//! ([`crate::experiments::soundness_cells`]), run through the engine's
//! one cell runner ([`Engine::run_matrix`]), with output in submission
//! order so the report is byte-identical at any `--jobs` level.

use crate::engine::Engine;
use crate::study::{CheckCell, Scale};
use paccport_devsim::{render_profile, run};

/// One profiled cell: its matrix label and the rendered profile table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProfile {
    pub label: String,
    pub profile: String,
}

/// The aggregated `reproduce profile` result.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    pub cells: Vec<CellProfile>,
    /// Cells that failed to compile or run, as `label: reason` lines.
    pub failures: Vec<String>,
}

impl ProfileReport {
    /// Failures that were *not* injected faults — genuine breakage.
    pub fn uninjected_failures(&self) -> Vec<&String> {
        self.failures
            .iter()
            .filter(|f| !paccport_faults::is_injected(f))
            .collect()
    }

    /// Deterministic text rendering: one profile block per cell in
    /// submission order, then any failures.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "per-kernel profiles: {} cells ({} failed)\n\n",
            self.cells.len() + self.failures.len(),
            self.failures.len()
        ));
        for c in &self.cells {
            out.push_str(&format!("== {} ==\n{}\n", c.label, c.profile));
        }
        for f in &self.failures {
            out.push_str(&format!("FAILED {f}\n"));
        }
        out
    }
}

/// Profile every benchmark variant × target cell through the engine.
pub fn profile_matrix_on(eng: &Engine, scale: &Scale) -> ProfileReport {
    let _g = paccport_trace::span("profile.matrix");
    let cells = crate::experiments::soundness_cells(scale);
    let profiles = eng.run_matrix(cells, CheckCell::label, |cell, c| {
        Ok(CellProfile {
            label: cell.label(),
            profile: render_profile(&run(c, &cell.cfg)?),
        })
    });
    let mut report = ProfileReport::default();
    for res in profiles {
        match res {
            Ok(cp) => report.cells.push(cp),
            Err(f) => report.failures.push(format!(
                "{}: {} [{} attempts]",
                f.label, f.reason, f.attempts
            )),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_sweep_covers_matrix_and_is_deterministic() {
        let scale = Scale::smoke();
        let a = profile_matrix_on(&Engine::serial(), &scale);
        assert!(a.failures.is_empty(), "{:?}", a.failures);
        assert!(a.cells.len() > 40, "expected the full matrix");
        let text = a.render();
        assert!(text.contains("LUD"), "{text}");
        assert!(text.contains("HOST (never launched)"), "PGI BFS finding");
        let b = profile_matrix_on(&Engine::new(4), &scale);
        assert_eq!(text, b.render(), "parallel sweep renders identically");
    }
}
