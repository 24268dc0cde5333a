//! Compile-once bytecode execution tier: the interpreter every
//! functional run in the product uses.
//!
//! The tree-walking interpreter in [`crate::interp`] re-traverses the
//! statement/expression tree for every simulated thread; this module
//! compiles each kernel once into a flat instruction stream
//! ([`compile`]) and dispatches it in a tight loop ([`vm`]), replacing
//! the `Vec<Option<V>>` scope with flat-indexed register slots and
//! hoisting constant/parameter resolution out of the thread loop.
//!
//! The contract, enforced by the conformance driver's `tier/bytecode`
//! leg and the `tier_equivalence` suite, is **bitwise equality** with
//! the tree-walker, which is kept as the reference (see
//! [`crate::tier`]): identical output buffers (f64 bit patterns),
//! identical race-tracker logs, identical panics (message and
//! evaluation step), identical watchdog charge counts. Shared
//! arithmetic helpers and a side-effect-preserving lowering make this
//! hold by construction rather than by tolerance.

pub mod batch;
pub mod compile;
pub mod vm;

pub use compile::{compile_kernel, BodyCode, Instr, KernelCode};
pub use vm::exec_kernel_bc;

use crate::interp::{exec_kernel_traced, KernelFidelity, V};
use crate::memory::Buffer;
use crate::race::RaceTracker;
use crate::tier::ExecTier;
use paccport_ir::{Kernel, Program};

/// Execute one kernel under an explicit tier. The bytecode path
/// compiles on the fly — callers that execute a kernel repeatedly
/// (the runner's while-loops, the bench harness) should compile once
/// with [`compile_kernel`] and call [`exec_kernel_bc`] directly.
#[allow(clippy::too_many_arguments)]
pub fn exec_kernel_tiered(
    p: &Program,
    params: &[V],
    k: &Kernel,
    vars: &mut [Option<V>],
    bufs: &mut [Buffer],
    fidelity: KernelFidelity,
    tracker: Option<&RaceTracker>,
    tier: ExecTier,
) {
    match tier {
        ExecTier::Tree => exec_kernel_traced(p, params, k, vars, bufs, fidelity, tracker),
        ExecTier::Bytecode => {
            let code = compile_kernel(p, k);
            exec_kernel_bc(&code, params, k, vars, bufs, fidelity, tracker);
        }
    }
}
