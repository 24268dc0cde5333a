//! # paccport-devsim — simulated K40-class GPU and Xeon-Phi-class MIC
//!
//! The paper measures on hardware that has long since left the
//! building (π's K40 GPU node and 5110P MIC node). This crate stands
//! in for that test bed with two cooperating layers:
//!
//! 1. a **functional interpreter** ([`bytecode`], checked bitwise
//!    against the tree-walking reference [`interp`]) that actually
//!    executes every compiled kernel against typed buffers, so each
//!    benchmark variant's *results* are validated against a native Rust
//!    reference — including the deliberately wrong results of the
//!    CAPS-reduction-on-MIC bug;
//! 2. an **analytic timing model** ([`device`], [`timing`],
//!    [`dyncost`]) — a roofline with parallelism ramps, warp
//!    utilization and mild bandwidth contention — fed by dynamic
//!    instruction mixes derived from the same lowering pass that
//!    produced the static PTX counts.
//!
//! The [`runner`] walks a compiled program's host control flow,
//! accounting for every host↔device transfer (Table VII), every
//! kernel launch (and whether it *actually* ran on the device — the
//! paper's nvprof/`PGI_ACC_TIME` discovery on BFS), and the modeled
//! elapsed time that the figures plot. [`heatmap`] sweeps thread
//! distributions for Figure 4, timing each group of configurations that
//! differ only in their distributions with one walk ([`group`]).
//!
//! ```
//! use paccport_compilers::{compile, CompileOptions, CompilerId};
//! use paccport_devsim::{run, Buffer, RunConfig};
//! use paccport_ir::*;
//!
//! let mut b = ProgramBuilder::new("double");
//! let n = b.iparam("n");
//! let a = b.array("a", Scalar::F32, n, Intent::InOut);
//! let i = b.var("i");
//! let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
//! lp.clauses.independent = true;
//! let k = Kernel::simple("double", vec![lp],
//!     Block::new(vec![st(a, i, ld(a, i) * 2.0)]));
//! let program = b.finish(vec![HostStmt::Launch(k)]);
//!
//! let compiled = compile(CompilerId::Caps, &program, &CompileOptions::gpu()).unwrap();
//! let cfg = RunConfig::functional(vec![("n".into(), 8.0)])
//!     .with_input("a", Buffer::F32(vec![1.0; 8]));
//! let result = run(&compiled, &cfg).unwrap();
//! assert!(result.buffer(&compiled, "a").unwrap().as_f32().iter().all(|v| *v == 2.0));
//! assert!(result.elapsed > 0.0);
//! ```

pub mod bytecode;
pub mod device;
pub mod dyncost;
pub mod group;
pub mod heatmap;
pub mod interp;
pub mod memory;
pub mod profile;
pub mod race;
pub mod runner;
pub mod tier;
pub mod timing;

pub use bytecode::{compile_kernel, exec_kernel_bc, exec_kernel_tiered, KernelCode};
pub use device::{amd_firepro, host_cpu, k40, phi5110p, spec_for, DeviceSpec, ParallelUnit};
pub use dyncost::{CostHints, DynCost};
pub use group::compile_and_run_each;
pub use heatmap::{sweep, HeatMap};
pub use interp::{exec_kernel_traced, fresh_vars, KernelFidelity, V};
pub use memory::{Buffer, MemLoc, TransferLedger};
pub use profile::render_profile;
pub use race::{Race, RaceKind, RaceTracker, Tape, TapeEntry, TapeIndex, TapeThreads, ThreadId};
pub use runner::{run, Fidelity, KernelStat, RunConfig, RunResult};
pub use tier::ExecTier;
pub use timing::{
    bw_fraction, compute_rate, kernel_launch_time, transfer_time, warp_efficiency, LaunchShape,
    PlanTerms,
};
