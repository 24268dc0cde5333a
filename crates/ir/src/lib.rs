//! # paccport-ir — an OpenACC-like directive / loop-nest IR
//!
//! This crate is the "source language" of the reproduction: every
//! benchmark in the study (the Rodinia kernels and the Hydro mini-app)
//! is written as a [`Program`] in this IR, exactly mirroring the
//! structure of its original C + `#pragma acc` source.
//!
//! The IR captures precisely the information OpenACC directives carry:
//!
//! * **host control flow** — data regions, host loops (e.g. the `k`
//!   loop of Gaussian elimination that launches kernels per iteration),
//!   flag-driven `while` loops (BFS), explicit `update` transfers;
//! * **parallel loop nests** — rectangular or triangular, with the
//!   OpenACC clauses `independent`, `gang(n)`, `worker(n)`,
//!   `vector(n)`, `collapse`, `tile(n)` and `reduction(op: var)`;
//! * **kernel bodies** — a small expression/statement language rich
//!   enough for dense linear algebra, graph traversal, neural-network
//!   training and Godunov hydrodynamics, including sequential inner
//!   loops and work-group ("staged") bodies with local memory and
//!   barriers for the hand-written OpenCL comparison versions.
//!
//! What a kernel touches is answered here, once: ask the IR, don't
//! re-walk it. [`Kernel::blocks`] / [`Kernel::blocks_mut`] give the
//! body's blocks (the simple body, or every phase);
//! [`Kernel::walk_exprs`] visits every expression, bounds first and the
//! region-reduction value last; [`Kernel::global_reads_writes`] (and its
//! union [`Kernel::global_arrays`]) name the global arrays read and
//! written, in ascending id order; [`Block::assigned_vars`],
//! [`Block::let_vars`] and [`Block::for_vars`] name the variables a
//! block binds; [`Expr::reads_memory`] and [`Expr::reads_only_params`]
//! classify an expression. Only code that needs the phase structure
//! itself (execution, lowering's barriers, printing, validation and
//! transforms) matches on [`KernelBody`].
//!
//! Downstream crates lower this IR to a PTX-like ISA
//! (`paccport-compilers`), execute it functionally and model its
//! timing (`paccport-devsim`), and transform it according to the
//! paper's four-step systematic optimization method (`paccport-core`).
//!
//! ```
//! use paccport_ir::*;
//!
//! // float a[n]; #pragma acc loop independent
//! // for (i = 0; i < n; i++) a[i] = 2*a[i] + 1;
//! let mut b = ProgramBuilder::new("axpb");
//! let n = b.iparam("n");
//! let a = b.array("a", Scalar::F32, n, Intent::InOut);
//! let i = b.var("i");
//! let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
//! lp.clauses.independent = true;
//! let k = Kernel::simple("axpb", vec![lp],
//!     Block::new(vec![st(a, i, E::from(2.0) * ld(a, i) + 1.0)]));
//! let program = b.finish(vec![HostStmt::Launch(k)]);
//!
//! validate(&program).unwrap();
//! let rep = analyze_loop(program.kernel("axpb").unwrap(), 0);
//! assert!(rep.is_independent());
//! assert!(program_to_string(&program).contains("#pragma acc loop independent"));
//! ```

pub mod builder;
pub mod deps;
pub mod display;
pub mod expr;
pub mod kernel;
pub mod program;
pub mod simplify;
pub mod stmt;
pub mod types;
pub mod validate;
pub mod visit;

pub use builder::{
    assign, for_, if_, if_else, ld, ld_local, let_, st, st_local, ProgramBuilder, E,
};
pub use deps::{analyze_block, analyze_loop, DepKind, DepReport};
pub use display::{expr_to_string, kernel_to_string, program_to_string};
pub use expr::{BinOp, CmpOp, Expr, SpecialVar, UnOp};
pub use kernel::{
    AccDeviceType, DeviceTypeClause, GroupedBody, Kernel, KernelBody, LaunchHint, LoopClauses,
    ParallelLoop, ReduceOp, Reduction, RegionReduction,
};
pub use program::{Dir, HostStmt, Program};
pub use simplify::{
    narrowed_float, scalar_kind, simplify, simplify_block, simplify_block_in, simplify_in,
    simplify_kernel, simplify_kernel_in, value_kind, KindEnv, ValueKind,
};
pub use stmt::{Block, Stmt};
pub use types::{
    ArrayDecl, ArrayId, Intent, LocalArrayDecl, MemSpace, ParamDecl, ParamId, Scalar, VarId,
};
pub use validate::{validate, ValidationError};
