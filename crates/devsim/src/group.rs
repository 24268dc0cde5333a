//! Timing a search over thread distributions with one walk of the host
//! program per group of configurations — the Fig. 4 heat maps and the
//! auto-tuner's candidate loops.
//!
//! Every configuration is still compiled. Two artifacts share a walk
//! only when everything the timing path reads of them agrees except
//! their plans' distribution values and labels (see `shares_walk`); the
//! walk then does the distribution-independent work of each launch once
//! (extents, dynamic cost, data bookkeeping, transfers, host compute)
//! and only the roofline once per configuration. Each configuration
//! keeps its own clocks and adds to them in the order its own run
//! would, so its result is the same, bit for bit, and it charges the
//! trace counters and the metrics registry as that run would.

use crate::runner::{run, walk, Distribution, Fidelity, RunConfig, RunResult};
use paccport_compilers::common::dist_rank_of;
use paccport_compilers::{compile, CompileOptions, CompiledProgram, CompilerId, KernelPlan};
use paccport_ir::{LoopClauses, Program};

/// Compile each of `programs` with `compiler` and `options` and run it
/// with `cfg`: in order, what [`compile`] then [`run`] give each, bit
/// for bit (a compile error as its message).
///
/// Timing-only configurations whose artifacts differ only in their
/// distributions share one walk of the host program. Of each artifact
/// that joins another's walk only its distributions are kept. Under
/// fault injection, and for a functional `cfg`, each program compiles
/// and runs on its own, in turn.
pub fn compile_and_run_each(
    programs: impl IntoIterator<Item = Program>,
    compiler: CompilerId,
    options: &CompileOptions,
    cfg: &RunConfig,
) -> Vec<Result<RunResult, String>> {
    let compile_one = |p: &Program| compile(compiler, p, options).map_err(|e| e.to_string());
    let programs = programs.into_iter();
    if paccport_faults::active() || cfg.fidelity == Fidelity::Functional {
        return programs
            .map(|p| compile_one(&p).and_then(|c| run(&c, cfg)))
            .collect();
    }
    // Each group: a lead artifact, kept whole, its program with every
    // loop's clauses cleared, and the distributions of the others.
    let mut groups: Vec<(CompiledProgram, Program, Vec<Distribution>)> = Vec::new();
    // Each program's group, or its compile error. A group's members
    // join in program order, so its runs come back in that order too.
    let slots: Vec<Result<usize, String>> = programs
        .map(|p| {
            let c = compile_one(&p)?;
            let bare_c = bare(&c.program);
            Ok(
                match groups
                    .iter()
                    .position(|(lead, bare, _)| shares_walk(lead, bare, &c, &bare_c))
                {
                    Some(g) => {
                        groups[g].2.push(Distribution::of(&c));
                        g
                    }
                    None => {
                        groups.push((c, bare_c, Vec::new()));
                        groups.len() - 1
                    }
                },
            )
        })
        .collect();
    let mut runs: Vec<_> = groups
        .iter()
        .map(|(lead, _, others)| walk(lead, others, cfg).map(Vec::into_iter))
        .collect();
    slots
        .into_iter()
        .map(|slot| match &mut runs[slot?] {
            Ok(group) => Ok(group.next().expect("one run per member")),
            Err(e) => Err(e.clone()),
        })
        .collect()
}

/// Whether `lead`'s walk times `c` exactly (`bare` and `bare_c` are
/// their programs with every loop's clauses cleared). Every program of
/// one search compiles with the same compiler and options, so what
/// remains to check is that
/// - their transfer policies agree;
/// - their plans are equal field by field, in order, except their
///   distribution values and labels, with the same [`DistSpec`]
///   variant and the same [`dist_rank_of`] for every kernel;
/// - their programs are equal once every loop's clauses are set aside.
///
/// [`DistSpec`]: paccport_compilers::DistSpec
fn shares_walk(
    lead: &CompiledProgram,
    bare: &Program,
    c: &CompiledProgram,
    bare_c: &Program,
) -> bool {
    lead.transfers == c.transfers
        && lead.plans.len() == c.plans.len()
        && lead
            .plans
            .iter()
            .zip(&c.plans)
            .all(|(a, b)| same_but_distribution(a, b))
        && lead.program.kernels().iter().all(|k| {
            let rank =
                |x: &CompiledProgram| x.plan(&k.name).map(|p| dist_rank_of(&p.dist, k.rank()));
            rank(lead) == rank(c)
        })
        && bare_c == bare
}

/// Whether `a` and `b` agree on everything but their distribution's
/// values and their label.
fn same_but_distribution(a: &KernelPlan, b: &KernelPlan) -> bool {
    let KernelPlan {
        kernel,
        exec,
        dist,
        prologue,
        cost,
        correctness,
        config_label: _,
        perf_penalty,
    } = a;
    *kernel == b.kernel
        && *exec == b.exec
        && std::mem::discriminant(dist) == std::mem::discriminant(&b.dist)
        && *prologue == b.prologue
        && *cost == b.cost
        && *correctness == b.correctness
        && perf_penalty.to_bits() == b.perf_penalty.to_bits()
}

/// `p` with every loop's clauses cleared.
fn bare(p: &Program) -> Program {
    let mut p = p.clone();
    p.map_kernels(|k| {
        for lp in &mut k.loops {
            lp.clauses = LoopClauses::default();
        }
    });
    p
}
