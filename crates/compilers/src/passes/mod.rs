//! An ordered middle-end pass pipeline over the kernel IR.
//!
//! Historically every rewrite in this crate lived in
//! [`crate::transforms`] as a free function that the conformance
//! driver invoked ad hoc. This module gives them a spine: a [`Pass`]
//! is a named `fn(&mut Program) -> bool` rewrite, a [`Pipeline`] is
//! an ordered list of passes run to a bounded fixpoint, and every run
//! is observable — each pass that reports a change bumps a
//! `passes.<name>` counter in the `paccport-trace` metrics registry,
//! and the conformance driver checks each pass (and each prefix of
//! the default pipeline) for bitwise-exact observable equivalence
//! against the reference oracle.
//!
//! The default optimization pipeline is
//! `mem2reg → constfold → licm → cse → dse`: promotion first (it
//! unlocks the kind analysis everything else gates on), folding
//! before motion (smaller expressions hoist and match more readily),
//! DSE last (the earlier passes strand dead bindings it sweeps up).
//!
//! Structural transforms (unrolling, strip-mining, …) are registered
//! too so `reproduce --passes` can name them, but they are marked
//! non-`fixpoint`: re-running unroll until quiescence would double
//! the program every sweep.

pub mod constfold;
pub mod cse;
pub mod dse;
pub mod licm;
pub mod mem2reg;
pub mod util;

use crate::transforms::TransformVariant;
use paccport_ir::Program;
use std::sync::RwLock;

/// A named kernel-IR rewrite. `run` must preserve bitwise-exact
/// observable behavior (the conformance suite enforces this) and
/// report whether it changed the program.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub name: &'static str,
    /// Metrics counter bumped once per program on which the pass
    /// reported a change (`passes.<name>`).
    pub counter: &'static str,
    /// Whether the pass manager may re-run this pass when a later
    /// sweep changes the program again. Analysis-style rewrites
    /// converge; structural transforms (unrolling) would grow the
    /// program every sweep and run once only.
    pub fixpoint: bool,
    pub run: fn(&mut Program) -> bool,
}

/// The optimization passes of the default pipeline, in order.
pub const DEFAULT_PASSES: [&str; 5] = ["mem2reg", "constfold", "licm", "cse", "dse"];

/// Name of the pseudo-pass that enables the post-lowering PTX
/// peephole (it runs on the lowered module, not the IR, so it is a
/// [`Pipeline`] flag rather than a [`Pass`]).
pub const PTX_PEEPHOLE: &str = "ptx-peephole";

/// Every registered pass. Optimization passes first (pipeline
/// order), then the structural transforms ported from
/// [`crate::transforms`].
pub fn registry() -> Vec<Pass> {
    fn p(name: &'static str, counter: &'static str, run: fn(&mut Program) -> bool) -> Pass {
        Pass {
            name,
            counter,
            fixpoint: true,
            run,
        }
    }
    fn t(name: &'static str, counter: &'static str, run: fn(&mut Program) -> bool) -> Pass {
        Pass {
            name,
            counter,
            fixpoint: false,
            run,
        }
    }
    vec![
        p("mem2reg", "passes.mem2reg", mem2reg::run),
        p("constfold", "passes.constfold", constfold::run),
        p("licm", "passes.licm", licm::run),
        p("cse", "passes.cse", cse::run),
        p("dse", "passes.dse", dse::run),
        p("simplify", "passes.simplify", |p| {
            TransformVariant::Simplify.apply(p)
        }),
        t("unroll2", "passes.unroll2", |p| {
            TransformVariant::Unroll(2).apply(p)
        }),
        t("unroll3", "passes.unroll3", |p| {
            TransformVariant::Unroll(3).apply(p)
        }),
        t("unroll-grouped2", "passes.unroll-grouped2", |p| {
            TransformVariant::UnrollGrouped(2).apply(p)
        }),
        t("strip-mine4", "passes.strip-mine4", |p| {
            TransformVariant::StripMine(4).apply(p)
        }),
        t("serialize-inner", "passes.serialize-inner", |p| {
            TransformVariant::SerializeInner.apply(p)
        }),
        t(
            "reduction-to-grouped8",
            "passes.reduction-to-grouped8",
            |p| TransformVariant::ReductionToGrouped(8).apply(p),
        ),
    ]
}

/// Outcome of a [`Pipeline::run`]: which passes reported a change
/// (in application order, with per-pass change counts) and how many
/// fixpoint sweeps were needed.
#[derive(Debug, Clone, Default)]
pub struct PassStats {
    pub applied: Vec<(&'static str, u32)>,
    pub sweeps: u32,
}

impl PassStats {
    pub fn changed(&self) -> bool {
        !self.applied.is_empty()
    }
}

/// Fixpoint safety valve. Well-behaved passes converge in two or
/// three sweeps; NaN-bearing programs defeat `PartialEq`-based
/// change detection and would otherwise spin forever.
const MAX_SWEEPS: u32 = 8;

/// An ordered list of passes, run to a bounded fixpoint.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    pub passes: Vec<Pass>,
    /// Run the PTX peephole on the lowered module afterwards (see
    /// `paccport_ptx::peephole`; applied by [`crate::compile`]).
    pub peephole: bool,
}

impl Pipeline {
    /// Parse a `--passes` specification: comma-separated pass names,
    /// where `default` expands to the default optimization pipeline
    /// and `ptx-peephole` enables the post-lowering peephole.
    pub fn parse(spec: &str) -> Result<Pipeline, String> {
        let registry = registry();
        let mut pl = Pipeline::default();
        for name in spec.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            if name == "default" {
                for d in DEFAULT_PASSES {
                    pl.passes
                        .push(*registry.iter().find(|p| p.name == d).unwrap());
                }
            } else if name == PTX_PEEPHOLE {
                pl.peephole = true;
            } else if let Some(p) = registry.iter().find(|p| p.name == name) {
                pl.passes.push(*p);
            } else {
                let known: Vec<&str> = registry
                    .iter()
                    .map(|p| p.name)
                    .chain(["default", PTX_PEEPHOLE])
                    .collect();
                return Err(format!(
                    "unknown pass '{name}' (known: {})",
                    known.join(", ")
                ));
            }
        }
        Ok(pl)
    }

    /// The default optimization pipeline (no peephole).
    pub fn default_pipeline() -> Pipeline {
        Pipeline::parse("default").unwrap()
    }

    /// Stable human-readable label, e.g. for conformance legs.
    pub fn label(&self) -> String {
        let mut parts: Vec<&str> = self.passes.iter().map(|p| p.name).collect();
        if self.peephole {
            parts.push(PTX_PEEPHOLE);
        }
        parts.join(",")
    }

    /// Run the pipeline on `p`. Each full sweep applies the passes in
    /// order; sweeps repeat while any `fixpoint` pass still reports
    /// progress, up to `MAX_SWEEPS`. Non-fixpoint (structural)
    /// passes run during the first sweep only.
    pub fn run(&self, p: &mut Program) -> PassStats {
        let mut stats = PassStats::default();
        for sweep in 0..MAX_SWEEPS {
            stats.sweeps = sweep + 1;
            let mut sweep_changed = false;
            for pass in &self.passes {
                if sweep > 0 && !pass.fixpoint {
                    continue;
                }
                if (pass.run)(p) {
                    paccport_trace::add(pass.counter, 1);
                    match stats.applied.iter_mut().find(|(n, _)| *n == pass.name) {
                        Some((_, n)) => *n += 1,
                        None => stats.applied.push((pass.name, 1)),
                    }
                    // Any change (structural included) earns one more
                    // sweep so earlier fixpoint passes see it; only
                    // fixpoint passes run in that sweep, so this still
                    // terminates.
                    sweep_changed = true;
                }
            }
            if !sweep_changed {
                break;
            }
        }
        stats
    }
}

/// Session-global pipeline applied by [`crate::compile`] before
/// dispatching to a compiler personality (and, when `peephole` is
/// set, to the lowered PTX module afterwards). `None` — the default
/// — leaves compilation byte-for-byte as it always was.
static GLOBAL: RwLock<Option<Pipeline>> = RwLock::new(None);

pub fn set_global_pipeline(pl: Option<Pipeline>) {
    *GLOBAL.write().unwrap() = pl;
}

pub fn global_pipeline() -> Option<Pipeline> {
    GLOBAL.read().unwrap().clone()
}
