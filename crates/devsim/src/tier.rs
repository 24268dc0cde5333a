//! Execution tiers: the bytecode VM and its tree-walking reference.
//!
//! Functional runs use the bytecode VM in [`crate::bytecode`], which
//! batches innermost parallel loops with or without the race detector
//! and the watchdog. The tree-walking interpreter in [`crate::interp`]
//! is kept as the reference the VM must match **bitwise** on every
//! program: output buffers, race logs, panic messages and watchdog
//! step counts. Only the conformance driver's `tier/bytecode` leg and
//! tests run it, each by asking for it explicitly
//! ([`RunConfig::with_tier`] or [`crate::interp`] directly). No flag
//! or global selects a tier. The VM's speed is measured by the
//! repository benchmark (`perfbench/`): its `devsim.exec_bytecode_s`
//! layer and its `check` workload.
//!
//! [`RunConfig::with_tier`]: crate::runner::RunConfig::with_tier

/// Which interpreter executes kernels during functional runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecTier {
    /// The tree-walking reference interpreter ([`crate::interp`]).
    Tree,
    /// The compile-once bytecode VM ([`crate::bytecode`]).
    Bytecode,
}
