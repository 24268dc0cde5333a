//! Analysis helpers and plan assembly shared by the three compiler
//! personalities.

use crate::artifact::{
    CompiledProgram, Correctness, Diagnostic, DistSpec, ExecStrategy, KernelPlan, TransferPolicy,
};
use crate::lower::{lower_kernel, lower_stub, LoweringStyle};
use crate::options::{CompileOptions, CompilerId};
use paccport_ir::expr::{to_affine, Expr};
use paccport_ir::kernel::{Kernel, KernelBody};
use paccport_ir::stmt::Stmt;
use paccport_ir::types::MemSpace;
use paccport_ir::Program;
use paccport_ptx::PtxModule;

/// Does the kernel body contain an indirect (data-dependent) global
/// access — a load/store whose index is itself non-affine because it
/// reads another array (`cost[edges[i]]`)? This is the structural
/// property that makes PGI refuse to offload BFS.
pub fn has_indirect_access(k: &Kernel) -> bool {
    // Taint pass: locals initialized (directly or transitively) from
    // memory are data-dependent indices (`int id = edges[e]; …
    // cost[id] = …` in Rodinia's BFS).
    let mut tainted: std::collections::BTreeSet<paccport_ir::VarId> = Default::default();
    let collect_taint =
        |b: &paccport_ir::Block, tainted: &mut std::collections::BTreeSet<paccport_ir::VarId>| {
            // Iterate to a fixed point (bodies are tiny).
            loop {
                let before = tainted.len();
                b.walk(&mut |s| {
                    if let Stmt::Let { var, init, .. } | Stmt::Assign { var, value: init } = s {
                        let mut dep = init.reads_global();
                        init.walk(&mut |e| {
                            if let Expr::Var(v) = e {
                                if tainted.contains(v) {
                                    dep = true;
                                }
                            }
                        });
                        if dep {
                            tainted.insert(*var);
                        }
                    }
                });
                if tainted.len() == before {
                    break;
                }
            }
        };
    let index_is_indirect =
        |idx: &Expr, tainted: &std::collections::BTreeSet<paccport_ir::VarId>| {
            if to_affine(idx).is_some() {
                // Affine in program variables — but a tainted variable is
                // itself data-dependent.
                let mut hit = false;
                idx.walk(&mut |e| {
                    if let Expr::Var(v) = e {
                        if tainted.contains(v) {
                            hit = true;
                        }
                    }
                });
                hit
            } else {
                idx.reads_global()
            }
        };
    let mut found = false;
    let mut scan = |b: &paccport_ir::Block| {
        collect_taint(b, &mut tainted);
        b.walk(&mut |s| {
            if let Stmt::Store { index, .. } = s {
                if index_is_indirect(index, &tainted) {
                    found = true;
                }
            }
            s.for_each_expr(&mut |e| {
                e.walk(&mut |e| {
                    if let Expr::Load { index, .. } = e {
                        if index_is_indirect(index, &tainted) {
                            found = true;
                        }
                    }
                })
            });
        });
    };
    for b in k.blocks() {
        scan(b);
    }
    found
}

/// Does the body store to a location that does not move with *any* of
/// the parallel loop variables (e.g. BFS kernel 2's `stop[0] = 1`)?
/// A conservative compiler treats this as a reason not to offload.
pub fn has_invariant_store(k: &Kernel) -> bool {
    let KernelBody::Simple(b) = &k.body else {
        return false;
    };
    let mut stores = Vec::new();
    b.collect_stores(&mut stores);
    let par_vars: Vec<_> = k.loops.iter().map(|l| l.var).collect();
    stores.iter().any(|(space, _, idx)| {
        *space == MemSpace::Global && par_vars.iter().all(|v| !idx.uses_var(*v))
    })
}

/// Are all parallel-loop bounds expressions over parameters and
/// constants only (a rectangular, launch-invariant nest)?
pub fn rectangular_bounds(k: &Kernel) -> bool {
    k.loops
        .iter()
        .all(|l| l.lo.reads_only_params() && l.hi.reads_only_params())
}

/// How many loops of the nest a distribution spreads across threads.
pub fn dist_rank_of(dist: &DistSpec, rank: usize) -> usize {
    match dist {
        DistSpec::Sequential => 0,
        DistSpec::GangWorker { .. } => rank.min(2),
        DistSpec::Gridify1D { .. } => 1,
        DistSpec::Gridify2D { .. } => rank.min(2),
        DistSpec::PgiAuto { .. } => 1,
        DistSpec::NdRange { two_d, .. } => {
            if *two_d {
                rank.min(2)
            } else {
                1
            }
        }
        DistSpec::Grouped { .. } | DistSpec::GroupedPerIter { .. } => 1,
    }
}

/// Figure-caption thread-configuration label for a distribution.
pub fn config_label(dist: &DistSpec) -> String {
    match dist {
        DistSpec::Sequential => "1x1".into(),
        DistSpec::GangWorker { gang, worker } => format!("{gang}x{worker}"),
        DistSpec::Gridify1D { bx, by } | DistSpec::Gridify2D { bx, by } => format!("{bx}x{by}"),
        DistSpec::PgiAuto { vector } => format!("{vector}x1"),
        DistSpec::NdRange { lx, ly, .. } => format!("{lx}x{ly}"),
        DistSpec::Grouped { group_size } | DistSpec::GroupedPerIter { group_size } => {
            format!("{group_size}x1")
        }
    }
}

/// Per-kernel compilation decision handed back by a personality.
pub struct KernelDecision {
    pub dist: DistSpec,
    pub exec: ExecStrategy,
    pub correctness: Correctness,
    pub perf_penalty: f64,
    pub diagnostics: Vec<String>,
}

/// Assemble a [`CompiledProgram`] by lowering every kernel of the
/// (already transformed) program according to its decision.
pub fn assemble(
    compiler: CompilerId,
    options: &CompileOptions,
    program: Program,
    style: &LoweringStyle,
    decide: impl Fn(&Kernel) -> KernelDecision,
    transfers: TransferPolicy,
) -> CompiledProgram {
    let mut module = PtxModule {
        producer: format!(
            "{} ({:?} -> {})",
            compiler.label(),
            options.backend,
            options.target.label()
        ),
        kernels: Vec::new(),
    };
    let mut plans = Vec::new();
    let mut diagnostics = Vec::new();
    for k in program.kernels() {
        let d = decide(k);
        for msg in d.diagnostics {
            diagnostics.push(Diagnostic {
                kernel: k.name.clone(),
                message: msg,
            });
        }
        let (ptx, prologue, cost) = match d.exec {
            ExecStrategy::HostSequential => {
                // The module carries a stub (the paper's "few PTX
                // instructions" on PGI's BFS), but the host-execution
                // time model still needs the real per-nest cost, so
                // lower the whole nest serialized (rank 0).
                let lk = lower_kernel(&program, k, 0, style);
                (lower_stub(&program, k), Default::default(), lk.cost)
            }
            ExecStrategy::DeviceSequential => {
                // The generated codelet is the same as the parallel
                // one — only the launch configuration differs (the
                // paper: "the optimized thread distribution version
                // does not change PTX"). The cost tree, however, must
                // cover the whole serialized nest.
                let shaped = lower_kernel(&program, k, k.rank().min(2), style);
                let serial = lower_kernel(&program, k, 0, style);
                (shaped.ptx, serial.prologue, serial.cost)
            }
            ExecStrategy::DeviceParallel => {
                let rank = dist_rank_of(&d.dist, k.rank());
                let lk = lower_kernel(&program, k, rank, style);
                (lk.ptx, lk.prologue, lk.cost)
            }
        };
        module.kernels.push(ptx);
        plans.push(KernelPlan {
            kernel: k.name.clone(),
            exec: d.exec,
            dist: d.dist,
            prologue,
            cost,
            correctness: d.correctness,
            config_label: config_label(&d.dist),
            perf_penalty: d.perf_penalty,
        });
    }
    CompiledProgram {
        compiler,
        options: options.clone(),
        program,
        module,
        plans,
        diagnostics,
        transfers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{ld, st, Intent, ParallelLoop, ProgramBuilder, Scalar, E};

    #[test]
    fn indirect_access_detection() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let edges = b.array("edges", Scalar::I32, n, Intent::In);
        let cost = b.array("cost", Scalar::I32, n, Intent::InOut);
        let i = b.var("i");
        // cost[edges[i]] = 1 — indirect.
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(cost, ld(edges, i), 1i64)]),
        );
        assert!(has_indirect_access(&k));
        // cost[i] = edges[i] — affine.
        let k2 = Kernel::simple(
            "k2",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(cost, i, ld(edges, i))]),
        );
        assert!(!has_indirect_access(&k2));
    }

    #[test]
    fn invariant_store_detection() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let stop = b.array("stop", Scalar::I32, 1i64, Intent::InOut);
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(stop, 0i64, 1i64)]),
        );
        assert!(has_invariant_store(&k));
        let k2 = Kernel::simple(
            "k2",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(a, i, 0.0)]),
        );
        assert!(!has_invariant_store(&k2));
    }

    #[test]
    fn rectangularity() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let t = b.var("t");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(a, i, 0.0)]),
        );
        assert!(rectangular_bounds(&k));
        let k2 = Kernel::simple(
            "k2",
            vec![ParallelLoop::new(
                i,
                (E::from(t) + 1i64).expr(),
                Expr::param(n),
            )],
            paccport_ir::Block::new(vec![st(a, i, 0.0)]),
        );
        assert!(!rectangular_bounds(&k2));
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(config_label(&DistSpec::Sequential), "1x1");
        assert_eq!(config_label(&DistSpec::Gridify1D { bx: 32, by: 4 }), "32x4");
        assert_eq!(config_label(&DistSpec::PgiAuto { vector: 128 }), "128x1");
        assert_eq!(
            config_label(&DistSpec::GangWorker {
                gang: 256,
                worker: 16
            }),
            "256x16"
        );
    }
}
