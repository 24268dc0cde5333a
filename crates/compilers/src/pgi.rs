//! The PGI 14.9 personality.
//!
//! PGI compiles OpenACC straight to CUDA for NVIDIA GPUs only (no MIC
//! target — one of the portability gaps the paper works around).
//! Reconstructed behaviours:
//!
//! * **automatic parallelization** — kernels with affine rank-1 nests
//!   or rectangular rank-2 nests are auto-distributed `[128,1]` even
//!   without `independent`; triangular rank-2 nests are kept
//!   sequential until `independent` is added (the GE baseline's `1x1`);
//! * **conservatism** — kernels with indirect accesses or
//!   loop-invariant stores are *never offloaded*, even with
//!   `independent` (the BFS discovery via `PGI_ACC_TIME`);
//! * **locked distribution** — once `independent` is present, explicit
//!   gang/worker clauses are ignored;
//! * **`-Munroll`** — unrolls serialized loops without scalar
//!   accumulation by 2 (GE's arithmetic nearly doubles; LUD unchanged);
//! * **no tiling**, and **pointer-aliasing sensitivity** that rejects
//!   Hydro outright.

use crate::artifact::{
    CompileError, CompiledProgram, Correctness, DistSpec, ExecStrategy, TransferPolicy,
};
use crate::common::{
    assemble, has_indirect_access, has_invariant_store, rectangular_bounds, KernelDecision,
};
use crate::lower::LoweringStyle;
use crate::options::{CompileOptions, CompilerId, DeviceKind};
use crate::transforms::{
    reduction_to_grouped, serialize_inner_loops, unroll_inner_loops_filtered, VarAlloc,
};
use paccport_ir::kernel::KernelBody;
use paccport_ir::Program;
use std::collections::BTreeMap;

const PGI_VECTOR: u32 = 128;

/// Compile a program with the PGI personality.
pub fn compile(
    program: &Program,
    options: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let site = format!("{}:{}", CompilerId::Pgi.label(), program.name);
    if paccport_faults::inject(paccport_faults::FaultKind::CompileFail, &site) {
        return Err(CompileError {
            compiler: CompilerId::Pgi,
            message: format!(
                "{} simulated toolchain crash compiling `{}`",
                paccport_faults::INJECTED,
                program.name
            ),
        });
    }
    paccport_faults::maybe_slow_compile(&site);
    if options.target == DeviceKind::Mic5110P {
        return Err(CompileError {
            compiler: CompilerId::Pgi,
            message: "PGI 14.9 cannot target Intel MIC (it \"likely plans to support MIC in the future\")".into(),
        });
    }
    if options.quirks.pgi_pointer_alias_sensitivity
        && program.tags.iter().any(|t| t == "pointer-heavy-headers")
    {
        return Err(CompileError {
            compiler: CompilerId::Pgi,
            message:
                "cannot compile: PGI is sensitive to the pointer allocations and conversions in this source"
                    .into(),
        });
    }

    let q = options.quirks.clone();
    let mut prog = program.clone();

    // ---------------- Pass A: decisions on the original kernels -----
    let mut decisions: BTreeMap<String, KernelDecision> = BTreeMap::new();
    for k in prog.kernels() {
        let mut diags = Vec::new();
        let d = if k.reduction.is_some() {
            diags.push("reduction generated using shared memory".into());
            KernelDecision {
                dist: DistSpec::GroupedPerIter { group_size: 128 },
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else if (has_indirect_access(k) || has_invariant_store(k))
            && q.pgi_conservative_indirection
        {
            if k.any_independent() {
                diags.push(
                    "loop carried dependence of indirect accesses prevents parallelization \
                     (independent clause ignored)"
                        .into(),
                );
            } else {
                diags.push("complex loop carried dependence prevents parallelization".into());
            }
            diags.push("accelerator kernel NOT generated; running on host".into());
            KernelDecision {
                dist: DistSpec::Sequential,
                exec: ExecStrategy::HostSequential,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else if k.any_independent() {
            let explicit = k
                .loops
                .iter()
                .find(|l| l.clauses.has_explicit_distribution());
            if let Some(lp) = explicit {
                if q.pgi_locks_distribution {
                    diags.push(
                        "gang/worker clauses ignored: schedule is fixed once independent is given"
                            .into(),
                    );
                } else {
                    // A lock-free (hypothetical) PGI honours the
                    // request — the ablation case.
                    let gang = lp.clauses.gang.unwrap_or(PGI_VECTOR);
                    let worker = lp.clauses.worker.or(lp.clauses.vector).unwrap_or(1);
                    diags.push(format!("loop gang({gang}), vector({worker})"));
                    decisions.insert(
                        k.name.clone(),
                        KernelDecision {
                            dist: DistSpec::GangWorker { gang, worker },
                            exec: ExecStrategy::DeviceParallel,
                            correctness: Correctness::Correct,
                            perf_penalty: 1.0,
                            diagnostics: diags,
                        },
                    );
                    continue;
                }
            }
            diags.push(format!(
                "loop gang, vector({PGI_VECTOR}) /* blockIdx.x threadIdx.x */"
            ));
            KernelDecision {
                dist: DistSpec::PgiAuto { vector: PGI_VECTOR },
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else if let Some(lp) = k
            .loops
            .iter()
            .find(|l| l.clauses.has_explicit_distribution())
        {
            // Without `independent`, PGI honours the explicit request.
            let gang = lp.clauses.gang.unwrap_or(PGI_VECTOR);
            let worker = lp.clauses.worker.or(lp.clauses.vector).unwrap_or(1);
            diags.push(format!("loop gang({gang}), vector({worker})"));
            KernelDecision {
                dist: DistSpec::GangWorker { gang, worker },
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else if k.rank() == 1 || rectangular_bounds(k) {
            diags.push(format!(
                "loop auto-parallelized: gang, vector({PGI_VECTOR})"
            ));
            KernelDecision {
                dist: DistSpec::PgiAuto { vector: PGI_VECTOR },
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else {
            diags.push(
                "loop not auto-parallelized: triangular bounds in a multi-dimensional nest".into(),
            );
            KernelDecision {
                dist: DistSpec::Sequential,
                exec: ExecStrategy::DeviceSequential,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        };
        decisions.insert(k.name.clone(), d);
    }

    // ---------------- Pass B: transforms matching the decisions -----
    let munroll = options.munroll();
    let kinds = paccport_ir::KindEnv::for_program(&prog);
    let mut names = std::mem::take(&mut prog.var_names);
    {
        let mut va = VarAlloc::new(&mut names);
        prog.map_kernels(|k| {
            let decision = &decisions[&k.name];
            if k.reduction.is_some() {
                reduction_to_grouped(k, 128, &mut va);
                return;
            }
            // Make PGI's one-dimensional serialization explicit.
            if matches!(decision.dist, DistSpec::PgiAuto { .. }) && k.rank() > 1 {
                serialize_inner_loops(k, 1);
            }
            if munroll && matches!(k.body, KernelBody::Simple(_)) {
                unroll_inner_loops_filtered(k, 2, true, &kinds);
            }
        });
    }
    prog.var_names = names;

    let style = LoweringStyle {
        fastmath: options.has_flag(&crate::options::Flag::Fast),
        ..LoweringStyle::pgi()
    };
    let decide = move |k: &paccport_ir::Kernel| -> KernelDecision {
        let d = &decisions[&k.name];
        KernelDecision {
            dist: d.dist,
            exec: d.exec,
            correctness: d.correctness.clone(),
            perf_penalty: d.perf_penalty,
            diagnostics: d.diagnostics.clone(),
        }
    };

    Ok(assemble(
        CompilerId::Pgi,
        options,
        prog,
        &style,
        decide,
        TransferPolicy::Resident,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{
        ld, st, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E,
    };

    #[test]
    fn mic_target_is_rejected() {
        let b = ProgramBuilder::new("p");
        let p = b.finish(vec![]);
        let err = compile(&p, &CompileOptions::mic()).unwrap_err();
        assert!(err.message.contains("MIC"));
    }

    #[test]
    fn pointer_heavy_sources_are_rejected() {
        let mut b = ProgramBuilder::new("hydro");
        b.tag("pointer-heavy-headers");
        let p = b.finish(vec![]);
        let err = compile(&p, &CompileOptions::gpu()).unwrap_err();
        assert!(err.message.contains("pointer"));
    }

    fn rank2_triangular() -> Program {
        // GE Fan2-like: for i in t+1..n, for j in t+1..n.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let t = b.iparam("t"); // stand-in for the host var
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let i = b.var("i");
        let j = b.var("j");
        // Make it *triangular* through a var-dependent bound: lo uses i.
        let k = Kernel::simple(
            "fan2",
            vec![
                ParallelLoop::new(i, (E::from(t) + 1i64).expr(), Expr::param(n)),
                ParallelLoop::new(
                    j,
                    Expr::bin(paccport_ir::BinOp::Mul, Expr::var(i), Expr::iconst(0)),
                    Expr::param(n),
                ),
            ],
            paccport_ir::Block::new(vec![st(
                a,
                E::from(i) * n + j,
                ld(a, E::from(i) * n + j) + 1.0,
            )]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn triangular_rank2_is_sequential_until_independent() {
        let p = rank2_triangular();
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        assert_eq!(c.plan("fan2").unwrap().exec, ExecStrategy::DeviceSequential);
        assert_eq!(c.plan("fan2").unwrap().config_label, "1x1");

        let mut p2 = p.clone();
        p2.map_kernel("fan2", |k| k.loops[0].clauses.independent = true);
        let c2 = compile(&p2, &CompileOptions::gpu()).unwrap();
        let plan = c2.plan("fan2").unwrap();
        assert_eq!(plan.exec, ExecStrategy::DeviceParallel);
        assert_eq!(plan.config_label, "128x1");
        // The inner loop was serialized into the body.
        assert_eq!(c2.program.kernel("fan2").unwrap().rank(), 1);
    }

    #[test]
    fn locked_distribution_once_independent() {
        let mut p = rank2_triangular();
        p.map_kernel("fan2", |k| {
            k.loops[0].clauses.independent = true;
            k.loops[0].clauses.gang = Some(999);
            k.loops[0].clauses.worker = Some(7);
        });
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        // Still 128x1, and a diagnostic explains why.
        assert_eq!(c.plan("fan2").unwrap().config_label, "128x1");
        assert!(c.diagnostics.iter().any(|d| d.message.contains("ignored")));
    }

    #[test]
    fn indirect_kernels_never_reach_the_gpu() {
        let mut b = ProgramBuilder::new("bfs");
        let n = b.iparam("n");
        let edges = b.array("edges", Scalar::I32, n, Intent::In);
        let cost = b.array("cost", Scalar::I32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "k1",
            vec![lp],
            paccport_ir::Block::new(vec![st(cost, ld(edges, i), 1i64)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("k1").unwrap();
        assert_eq!(plan.exec, ExecStrategy::HostSequential);
        // The PTX stub is tiny — the paper's "few PTX instructions".
        assert!(c.module.kernel("k1_kernel").unwrap().len() <= 6);
        assert!(c
            .diagnostics
            .iter()
            .any(|d| d.message.contains("running on host")));
    }

    #[test]
    fn munroll_doubles_flat_serialized_loops_only() {
        use paccport_ir::{assign, for_, let_};
        // Kernel A: inner loop without accumulation (unrollable).
        // Kernel B: inner loop with accumulation (skipped).
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let i = b.var("i");
        let jv = b.var("j");
        let kv = b.var("k2");
        let s = b.var("s");
        let ka = Kernel::simple(
            "flat",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![for_(
                jv,
                0i64,
                E::from(n),
                vec![st(a, E::from(i) * n + jv, 1.0)],
            )]),
        );
        let kb = Kernel::simple(
            "accum",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(a, E::from(i) * n + kv))],
                ),
                st(a, i, E::from(s)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(ka), HostStmt::Launch(kb)]);

        let base = compile(&p, &CompileOptions::gpu()).unwrap();
        let unrolled = compile(
            &p,
            &CompileOptions::gpu().with_flag(crate::options::Flag::Munroll),
        )
        .unwrap();
        let count = |c: &CompiledProgram, k: &str| c.module.kernel(k).unwrap().len();
        assert!(count(&unrolled, "flat_kernel") > count(&base, "flat_kernel"));
        assert_eq!(
            count(&unrolled, "accum_kernel"),
            count(&base, "accum_kernel")
        );
    }
}
