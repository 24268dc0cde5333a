//! The CAPS 3.4.1 personality.
//!
//! CAPS is a source-to-source compiler producing CUDA or OpenCL, the
//! only one of the three that targets both the GPU and the MIC. Its
//! reconstructed behaviours (Sections II-C, III, V of the paper):
//!
//! * **gang mode** — explicit `gang(n)/worker(n)` clauses are honoured;
//!   without them the default is `gangs(192)/workers(256)` *according
//!   to the log*, but the generated codelet actually runs
//!   `gang(1), worker(1)` (the paper calls this "maybe a bug of the
//!   CAPS compiler"; we keep both the lying log line and the bug);
//! * **gridify mode** — available only once `independent` is given:
//!   1-D grid for single loops, 2-D for nests, 32×4 blocks by default
//!   or per the `-Xhmppcg -grid-block-size` flag;
//! * **unroll-and-jam** — real on plain inner loops; a fake success
//!   message on kernels with nothing to unroll; and (CUDA back end
//!   only) a failure on grouped reduction bodies that the OpenCL back
//!   end handles;
//! * **tile** — strip-mines flat rank-1 kernels (never using shared
//!   memory); silently skipped on kernels with inner loops;
//! * **reduction** — lowered to the Fig.-13 shared-memory tree, but
//!   with no speed-up on the GPU and wrong results on the MIC.

use crate::artifact::{
    CompileError, CompiledProgram, Correctness, DistSpec, ExecStrategy, TransferPolicy,
};
use crate::common::{assemble, KernelDecision};
use crate::lower::LoweringStyle;
use crate::options::{Backend, CompileOptions, CompilerId, DeviceKind};
use crate::transforms::{
    reduction_to_grouped, strip_mine, unroll_grouped_phases, unroll_inner_loops, VarAlloc,
};
use paccport_ir::kernel::KernelBody;
use paccport_ir::{HostStmt, Program};

/// Compile a program with the CAPS personality.
pub fn compile(
    program: &Program,
    options: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let site = format!("{}:{}", CompilerId::Caps.label(), program.name);
    if paccport_faults::inject(paccport_faults::FaultKind::CompileFail, &site) {
        return Err(CompileError {
            compiler: CompilerId::Caps,
            message: format!(
                "{} simulated toolchain crash compiling `{}`",
                paccport_faults::INJECTED,
                program.name
            ),
        });
    }
    paccport_faults::maybe_slow_compile(&site);
    let mut prog = program.clone();
    let q = options.quirks.clone();
    let (bx, by) = options.grid_block_size();

    // ---------------- IR transformations ----------------
    // Outcome log lines, appended to the diagnostics after assembly
    // (the "fake successful message" of Section V-B3 lives here).
    let mut transform_diags: Vec<crate::artifact::Diagnostic> = Vec::new();
    let kinds = paccport_ir::KindEnv::for_program(&prog);
    let mut names = std::mem::take(&mut prog.var_names);
    {
        let mut va = VarAlloc::new(&mut names);
        prog.map_kernels(|k| {
            if k.reduction.is_some() {
                reduction_to_grouped(k, 128, &mut va);
            }
            if let Some(t) = k.loops.iter().find_map(|l| l.clauses.tile) {
                let nested = k.simple_body().is_none_or(|b| !b.for_vars().is_empty());
                let applied = if q.caps_tile_silent_on_nested && nested {
                    false
                } else {
                    strip_mine(k, t, &mut va, &kinds)
                };
                // Either way the compiler reports success; the PTX
                // comparison is how the paper catches the no-op.
                let _ = applied;
                transform_diags.push(crate::artifact::Diagnostic {
                    kernel: k.name.clone(),
                    message: format!("tile({t}) applied"),
                });
            }
            if let Some(f) = k.loops.iter().find_map(|l| l.clauses.unroll_jam) {
                let applied = match &k.body {
                    KernelBody::Grouped(_) => {
                        let allowed = options.backend == Backend::OpenCl
                            || !q.caps_cuda_unroll_fails_on_accum;
                        allowed && unroll_grouped_phases(k, f, &kinds)
                    }
                    KernelBody::Simple(_) => unroll_inner_loops(k, f, &kinds),
                };
                let message = if applied || q.caps_fake_unroll_success {
                    // Lying on failure is the quirk.
                    format!("loop unrolled by {f} and jammed")
                } else {
                    format!("unroll({f}), jam not applicable: no plain inner loop")
                };
                transform_diags.push(crate::artifact::Diagnostic {
                    kernel: k.name.clone(),
                    message,
                });
            }
        });
    }
    prog.var_names = names;

    // ---------------- Distribution decisions ----------------
    let quirks = q.clone();
    let transfers = if quirks.caps_retransfer_in_dynamic_loops && has_dynamic_loop(&prog) {
        TransferPolicy::PerIteration
    } else {
        TransferPolicy::Resident
    };
    let target = options.target;
    let style = LoweringStyle {
        fastmath: options.has_flag(&crate::options::Flag::FastMath),
        ..LoweringStyle::caps()
    };
    let decide = move |k: &paccport_ir::Kernel| -> KernelDecision {
        let mut diags = Vec::new();
        // Grouped bodies in the CAPS path only arise from `reduction`.
        if let KernelBody::Grouped(g) = &k.body {
            diags.push(format!(
                "reduction lowered to a {}-thread shared-memory tree",
                g.group_size
            ));
            let correctness =
                if quirks.caps_reduction_wrong_on_mic && target == DeviceKind::Mic5110P {
                    Correctness::Wrong {
                        reason: "CAPS reduction miscomputes on MIC (Section V-D2)".into(),
                    }
                } else {
                    Correctness::Correct
                };
            let perf_penalty = if quirks.caps_reduction_perf_bug && target == DeviceKind::GpuK40 {
                g.group_size as f64
            } else {
                1.0
            };
            return KernelDecision {
                dist: DistSpec::GroupedPerIter {
                    group_size: g.group_size,
                },
                exec: ExecStrategy::DeviceParallel,
                correctness,
                perf_penalty,
                diagnostics: diags,
            };
        }
        if k.any_independent() {
            let dist = if k.rank() == 1 {
                DistSpec::Gridify1D { bx, by }
            } else {
                DistSpec::Gridify2D { bx, by }
            };
            diags.push(format!(
                "gridify mode: {}-D grid, block {}x{}",
                k.rank().min(2),
                bx,
                by
            ));
            return KernelDecision {
                dist,
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            };
        }
        // Resolve OpenACC 2.0 `device_type` overrides for this target.
        let acc_dev = target.acc_device_type();
        let effective = |l: &paccport_ir::ParallelLoop| match acc_dev {
            Some(d) => l.clauses.for_device(d),
            None => l.clauses.clone(),
        };
        let explicit = k
            .loops
            .iter()
            .map(&effective)
            .find(|c| c.has_explicit_distribution());
        if let Some(c) = explicit {
            let gang = c.gang.unwrap_or(192);
            let worker = c.worker.or(c.vector).unwrap_or(256);
            diags.push(format!(
                "gang mode: loop shared among gangs({gang}) and workers({worker})"
            ));
            let dist = DistSpec::GangWorker { gang, worker };
            let exec = if dist.is_parallel() {
                ExecStrategy::DeviceParallel
            } else {
                ExecStrategy::DeviceSequential
            };
            return KernelDecision {
                dist,
                exec,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            };
        }
        // Default distribution: the famous lying log line.
        diags.push("Loop was shared among gangs(192) and workers(256)".into());
        if quirks.caps_default_gang1 {
            KernelDecision {
                dist: DistSpec::Sequential,
                exec: ExecStrategy::DeviceSequential,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        } else {
            KernelDecision {
                dist: DistSpec::GangWorker {
                    gang: 192,
                    worker: 256,
                },
                exec: ExecStrategy::DeviceParallel,
                correctness: Correctness::Correct,
                perf_penalty: 1.0,
                diagnostics: diags,
            }
        }
    };

    let mut out = assemble(CompilerId::Caps, options, prog, &style, decide, transfers);
    out.diagnostics.extend(transform_diags);
    Ok(out)
}

/// Does the program contain a dynamically-bounded host loop (BFS's
/// frontier `while`)?
fn has_dynamic_loop(p: &Program) -> bool {
    let mut found = false;
    for s in &p.body {
        s.walk(&mut |s| {
            if matches!(s, HostStmt::WhileFlag { .. }) {
                found = true;
            }
        });
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::QuirkSet;
    use paccport_ir::{ld, st, Expr, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E};

    fn simple_program(independent: bool, gang: Option<u32>) -> Program {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = independent;
        lp.clauses.gang = gang;
        if gang.is_some() {
            lp.clauses.worker = Some(16);
        }
        let k = Kernel::simple(
            "k",
            vec![lp],
            paccport_ir::Block::new(vec![st(a, i, ld(a, i) + 1.0)]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn baseline_hits_gang1_bug_but_log_lies() {
        let p = simple_program(false, None);
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("k").unwrap();
        assert_eq!(plan.exec, ExecStrategy::DeviceSequential);
        assert_eq!(plan.config_label, "1x1");
        // …while the log still claims 192x256.
        assert!(c.diagnostics[0].message.contains("gangs(192)"));
    }

    #[test]
    fn quirk_off_restores_default_parallelism() {
        let p = simple_program(false, None);
        let mut o = CompileOptions::gpu();
        o.quirks = QuirkSet::none();
        let c = compile(&p, &o).unwrap();
        let plan = c.plan("k").unwrap();
        assert_eq!(plan.exec, ExecStrategy::DeviceParallel);
        assert_eq!(plan.config_label, "192x256");
    }

    #[test]
    fn independent_enables_gridify() {
        let p = simple_program(true, None);
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("k").unwrap();
        assert_eq!(plan.dist, DistSpec::Gridify1D { bx: 32, by: 4 });
        assert_eq!(plan.config_label, "32x4");
    }

    #[test]
    fn grid_block_size_flag_overrides_gridify_shape() {
        let p = simple_program(true, None);
        let o = CompileOptions::gpu().with_flag(crate::options::Flag::GridBlockSize(64, 2));
        let c = compile(&p, &o).unwrap();
        assert_eq!(
            c.plan("k").unwrap().dist,
            DistSpec::Gridify1D { bx: 64, by: 2 }
        );
    }

    #[test]
    fn explicit_gang_mode_is_honoured() {
        let p = simple_program(false, Some(256));
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("k").unwrap();
        assert_eq!(
            plan.dist,
            DistSpec::GangWorker {
                gang: 256,
                worker: 16
            }
        );
        assert_eq!(plan.exec, ExecStrategy::DeviceParallel);
        assert_eq!(plan.config_label, "256x16");
    }

    #[test]
    fn tile_on_flat_kernel_strip_mines() {
        let mut p = simple_program(true, None);
        p.map_kernel("k", |k| k.loops[0].clauses.tile = Some(16));
        let c = compile(&p, &CompileOptions::gpu()).unwrap();
        // Rank went 1 → 2, so gridify is now 2-D.
        assert_eq!(
            c.plan("k").unwrap().dist,
            DistSpec::Gridify2D { bx: 32, by: 4 }
        );
        assert_eq!(c.program.kernel("k").unwrap().rank(), 2);
        // Still no shared memory: the paper's key tiling observation.
        let counts = c.module.kernel("k_kernel").unwrap().counts();
        assert_eq!(
            counts.get(paccport_ptx::Category::SharedMemory),
            0,
            "OpenACC tiling must not touch shared memory"
        );
    }

    #[test]
    fn reduction_is_wrong_on_mic_and_slow_on_gpu() {
        use paccport_ir::{assign, for_, let_, ReduceOp, Reduction};
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let input = b.array("in", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let j = b.var("j");
        let kv = b.var("k");
        let sum = b.var("sum");
        let mut k = Kernel::simple(
            "fwd",
            vec![ParallelLoop::new(j, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![
                let_(sum, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(sum, E::from(sum) + ld(input, kv))],
                ),
                st(out, j, E::from(sum)),
            ]),
        );
        k.reduction = Some(Reduction {
            op: ReduceOp::Add,
            acc: sum,
        });
        let p = b.finish(vec![HostStmt::Launch(k)]);

        let gpu = compile(&p, &CompileOptions::gpu()).unwrap();
        let gp = gpu.plan("fwd").unwrap();
        assert!(gp.perf_penalty > 1.0, "GPU reduction perf bug");
        assert_eq!(gp.correctness, Correctness::Correct);
        // Shared-memory instructions now present (Fig. 14).
        assert!(
            gpu.module
                .kernel("fwd_kernel")
                .unwrap()
                .counts()
                .get(paccport_ptx::Category::SharedMemory)
                > 0
        );

        let mic = compile(&p, &CompileOptions::mic()).unwrap();
        assert!(matches!(
            mic.plan("fwd").unwrap().correctness,
            Correctness::Wrong { .. }
        ));
    }
}
