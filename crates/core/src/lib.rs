//! # paccport-core — the paper's contribution, reproduced
//!
//! This crate ties the reproduction together:
//!
//! * [`method`] — the four-step systematic hand-written optimization
//!   method (add `independent`, tune thread distribution, unroll,
//!   tile), with the dependence-analysis refusals the paper leans on;
//! * [`ppr`] — the Performance Portability Ratio (Eq. 1);
//! * [`study`] — scales, the experiment cell, measurement plumbing,
//!   figure containers;
//! * [`ptxcmp`] — the static PTX-comparison analysis that exposed the
//!   fake unroll success and the silent tiling no-op;
//! * [`experiments`] — one generator per table and figure of the
//!   evaluation section;
//! * [`report`] — ASCII renderers used by the `reproduce` binary;
//! * [`step5`] and [`autotune`] — the paper's two stated future-work
//!   directions, implemented: automatic data-region insertion and
//!   OpenARC-style distribution auto-tuning.
//!
//! ```
//! use paccport_core::{apply_method, MethodOptions};
//! use paccport_kernels::{lud, VariantCfg};
//!
//! // Step 1 refuses LUD (the paper's Section V-A1 finding)…
//! let baseline = lud::program(&VariantCfg::baseline());
//! let out = apply_method(&baseline, &MethodOptions::default());
//! assert!(!out.any_independent_added());
//! // …so step 2 carries the optimization through explicit clauses.
//! let opts = MethodOptions { distribution: Some((256, 16)), ..Default::default() };
//! let out = apply_method(&baseline, &opts);
//! let k = out.program.kernel("lud_row").unwrap();
//! assert_eq!(k.loops[0].clauses.gang, Some(256));
//! ```

pub mod autotune;
pub mod coalesce;
pub mod durable;
pub mod engine;
pub mod experiments;
pub mod method;
pub mod ppr;
pub mod profile;
pub mod ptxcmp;
pub mod report;
pub mod serve;
pub mod soundness;
pub mod step5;
pub mod study;

pub use autotune::{autotune_distribution, default_candidates, Candidate, TuneOutcome};
pub use coalesce::{Gate, Singleflight};
pub use durable::{CellJournal, DiskArtifactStore, DurableResult};
pub use engine::Engine;
pub use method::{
    apply_method, dep_reason, select_portable_distribution, MethodOptions, OptimizationOutcome,
    StepAction,
};
pub use ppr::{PprComparison, PprEntry};
pub use profile::{profile_matrix_on, CellProfile, ProfileReport};
pub use ptxcmp::{compare_steps, PtxBar, PtxFigure, StepVerdict};
pub use soundness::{check_cell, CellCheck, SoundnessReport, SoundnessRow};
pub use step5::{insert_data_regions, strip_data_regions};
pub use study::{CheckCell, ElapsedFigure, Measured, Scale};
