//! Execution-tier selection: tree-walker vs bytecode VM.
//!
//! The bytecode VM in [`crate::bytecode`] is the default tier: it runs
//! every functional execution unless `--tier tree` asks otherwise,
//! batching innermost parallel loops with or without the race
//! detector and the watchdog. The tree-walking interpreter in
//! [`crate::interp`] stays as the semantic reference the VM must match
//! **bitwise** on every program (enforced by the conformance driver's
//! tier leg and the `tier_equivalence` suite). The tier is a
//! [`RunConfig`] field (`RunConfig::with_tier`), defaulting to a
//! process-wide knob the CLI sets once from `--tier` so the engine,
//! the conformance legs, and every internal `RunConfig::functional`
//! construction site inherit it without plumbing.
//!
//! [`RunConfig`]: crate::runner::RunConfig

use std::sync::atomic::{AtomicU8, Ordering};

/// Which interpreter executes kernels during functional runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTier {
    /// The tree-walking reference interpreter ([`crate::interp`]).
    Tree,
    /// The compile-once bytecode VM ([`crate::bytecode`]).
    Bytecode,
}

impl ExecTier {
    /// Stable label, used in CLI flags and reports.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Tree => "tree",
            ExecTier::Bytecode => "bytecode",
        }
    }

    /// Parse a `--tier` value (`both` is handled by callers — it is a
    /// run-mode, not a tier).
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "tree" => Some(ExecTier::Tree),
            "bytecode" => Some(ExecTier::Bytecode),
            _ => None,
        }
    }
}

/// 0 = Tree, 1 = Bytecode (the default). Relaxed is enough: the CLI
/// writes this once before any run starts; workers only read.
static DEFAULT_TIER: AtomicU8 = AtomicU8::new(1);

/// Set the process-wide default tier new `RunConfig`s pick up.
pub fn set_default_tier(t: ExecTier) {
    DEFAULT_TIER.store(
        match t {
            ExecTier::Tree => 0,
            ExecTier::Bytecode => 1,
        },
        Ordering::Relaxed,
    );
}

/// The process-wide default tier (Bytecode unless overridden).
pub fn default_tier() -> ExecTier {
    match DEFAULT_TIER.load(Ordering::Relaxed) {
        0 => ExecTier::Tree,
        _ => ExecTier::Bytecode,
    }
}
