//! Dynamic cost estimation: evaluating a compiled kernel's
//! [`CostTree`] against concrete loop bounds.
//!
//! The tree was built by the same emission pass that produced the
//! static PTX, so "dynamic instructions per parallel iteration" is the
//! static per-category mix weighted by trip counts — the quantity the
//! paper's static analysis cannot measure ("the analysis only
//! considers a static count … and cannot actually count the number of
//! actually executed instructions") but that the timing model needs.
//!
//! Loop bounds may reference program parameters, host loop variables
//! and outer *parallel* variables (triangular nests); parallel
//! variables are sampled at `{lo, mid, hi-1}` and averaged. Bounds
//! that cannot be evaluated at all (BFS's data-dependent edge ranges)
//! fall back to a per-kernel trip hint.

use paccport_compilers::{CostNode, CostTree, KernelPlan};
use paccport_ir::expr::{BinOp, CmpOp, Expr, UnOp};
use paccport_ir::{Kernel, ParallelLoop};
use paccport_ptx::{Category, CATEGORIES};
use std::collections::BTreeMap;

use crate::interp::V;

/// Averaged dynamic instruction mix (per parallel iteration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DynCost {
    pub cats: [f64; CATEGORIES.len()],
    /// Global-memory transactions (4 bytes each).
    pub ldst: f64,
}

impl DynCost {
    pub fn from_counts(c: &paccport_ptx::CategoryCounts, ldst: u64) -> Self {
        DynCost {
            cats: c.as_f64(),
            ldst: ldst as f64,
        }
    }

    pub fn add_scaled(&mut self, other: &DynCost, w: f64) {
        for (a, b) in self.cats.iter_mut().zip(other.cats.iter()) {
            *a += b * w;
        }
        self.ldst += other.ldst * w;
    }

    /// Total issue slots (all categories; sync barely matters).
    pub fn issue_slots(&self) -> f64 {
        self.cats.iter().sum()
    }

    /// Bytes of global-memory traffic (4-byte transactions).
    pub fn mem_bytes(&self) -> f64 {
        self.ldst * 4.0
    }

    pub fn get(&self, c: Category) -> f64 {
        self.cats[c.index()]
    }
}

/// Workload-supplied estimation hints.
#[derive(Debug, Clone, Default)]
pub struct CostHints {
    /// Probability of taking the `then` arm, per `(kernel, branch
    /// DFS index)`. Default 0.5.
    pub branch_weights: BTreeMap<(String, usize), f64>,
    /// Fallback trip count for loops whose bounds are data-dependent,
    /// per kernel (BFS's average out-degree). Default 8.
    pub trip_fallbacks: BTreeMap<String, f64>,
}

impl CostHints {
    pub fn branch_weight(&self, kernel: &str, idx: usize) -> f64 {
        // A scan rather than a keyed lookup: the key would need an
        // owned `String`, and hint tables hold a handful of entries.
        self.branch_weights
            .iter()
            .find(|((k, i), _)| k == kernel && *i == idx)
            .map_or(0.5, |(_, w)| *w)
    }

    pub fn trip_fallback(&self, kernel: &str) -> f64 {
        self.trip_fallbacks.get(kernel).copied().unwrap_or(8.0)
    }

    pub fn with_branch(mut self, kernel: &str, idx: usize, w: f64) -> Self {
        self.branch_weights.insert((kernel.into(), idx), w);
        self
    }

    pub fn with_trips(mut self, kernel: &str, t: f64) -> Self {
        self.trip_fallbacks.insert(kernel.into(), t);
        self
    }
}

/// Best-effort scalar evaluation of a bound expression: `None` when it
/// touches memory or an unbound variable. `env` holds one slot per
/// program variable (`program.var_names.len()`), `None` when unbound.
pub(crate) fn try_eval(e: &Expr, params: &[V], env: &[Option<f64>]) -> Option<f64> {
    try_eval_mode(e, params, env, false)
}

/// Lenient evaluation: unbound variables and work-group builtins read
/// as 0 (a lower-corner estimate — correct for strided reduction
/// loops whose start is `lo + tid`), but memory loads still fail.
fn try_eval_lenient(e: &Expr, params: &[V], env: &[Option<f64>]) -> Option<f64> {
    try_eval_mode(e, params, env, true)
}

fn try_eval_mode(e: &Expr, params: &[V], vars: &[Option<f64>], lenient: bool) -> Option<f64> {
    match e {
        Expr::FConst(v) => Some(*v),
        Expr::IConst(v) => Some(*v as f64),
        Expr::BConst(v) => Some(*v as i64 as f64),
        Expr::Param(id) => Some(params[id.0 as usize].as_f()),
        Expr::Var(id) => {
            vars.get(id.0 as usize)
                .copied()
                .flatten()
                .or(if lenient { Some(0.0) } else { None })
        }
        Expr::Special(_) => {
            if lenient {
                Some(0.0)
            } else {
                None
            }
        }
        Expr::Load { .. } => None,
        Expr::Un(op, a) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            Some(match op {
                UnOp::Neg => -a,
                UnOp::Abs => a.abs(),
                UnOp::Rcp => 1.0 / a,
                UnOp::Sqrt => a.sqrt(),
                UnOp::Not => (a == 0.0) as i64 as f64,
                UnOp::Exp => a.exp(),
            })
        }
        Expr::Bin(op, a, b) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            let b = try_eval_mode(b, params, vars, lenient)?;
            Some(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => {
                    if (a.fract() == 0.0) && (b.fract() == 0.0) && b != 0.0 {
                        ((a as i64) / (b as i64)) as f64
                    } else {
                        a / b
                    }
                }
                BinOp::Rem => {
                    if b == 0.0 {
                        return None;
                    }
                    ((a as i64) % (b as i64)) as f64
                }
                BinOp::Min => a.min(b),
                BinOp::Max => a.max(b),
                BinOp::And => ((a != 0.0) && (b != 0.0)) as i64 as f64,
                BinOp::Or => ((a != 0.0) || (b != 0.0)) as i64 as f64,
                BinOp::Shl => ((a as i64) << (b as i64)) as f64,
                BinOp::Shr => ((a as i64) >> (b as i64)) as f64,
            })
        }
        Expr::Cmp(op, a, b) => {
            let a = try_eval_mode(a, params, vars, lenient)?;
            let b = try_eval_mode(b, params, vars, lenient)?;
            let r = match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            };
            Some(r as i64 as f64)
        }
        Expr::Fma(a, b, c) => Some(
            try_eval_mode(a, params, vars, lenient)? * try_eval_mode(b, params, vars, lenient)?
                + try_eval_mode(c, params, vars, lenient)?,
        ),
        Expr::Select(c, a, b) => {
            if try_eval_mode(c, params, vars, lenient)? != 0.0 {
                try_eval_mode(a, params, vars, lenient)
            } else {
                try_eval_mode(b, params, vars, lenient)
            }
        }
        Expr::Cast(_, a) => try_eval_mode(a, params, vars, lenient),
    }
}

struct TreeEval<'a> {
    kernel: &'a str,
    params: &'a [V],
    hints: &'a CostHints,
    branch_idx: usize,
}

impl TreeEval<'_> {
    fn eval(&mut self, t: &CostTree, env: &mut [Option<f64>]) -> DynCost {
        let mut out = DynCost::from_counts(&t.flat, t.flat_ldst);
        for kid in &t.kids {
            match kid {
                CostNode::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    overhead,
                    body,
                } => {
                    let lo_v = try_eval(lo, self.params, env)
                        .or_else(|| try_eval_lenient(lo, self.params, env));
                    let hi_v = try_eval(hi, self.params, env)
                        .or_else(|| try_eval_lenient(hi, self.params, env));
                    let trips = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => ((h - l) / *step as f64).ceil().max(0.0),
                        _ => self.hints.trip_fallback(self.kernel),
                    };
                    // Bind the loop var to its midpoint for the body.
                    let mid = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => (l + h) / 2.0,
                        _ => self.hints.trip_fallback(self.kernel) / 2.0,
                    };
                    let slot = var.0 as usize;
                    let saved = env[slot].replace(mid);
                    let body_cost = self.eval(body, env);
                    env[slot] = saved;
                    let mut per_iter = body_cost;
                    per_iter.add_scaled(&DynCost::from_counts(overhead, 0), 1.0);
                    out.add_scaled(&per_iter, trips);
                }
                CostNode::Branch { then, els } => {
                    let w = self.hints.branch_weight(self.kernel, self.branch_idx);
                    self.branch_idx += 1;
                    let t_cost = self.eval(then, env);
                    let e_cost = self.eval(els, env);
                    out.add_scaled(&t_cost, w);
                    out.add_scaled(&e_cost, 1.0 - w);
                }
            }
        }
        out
    }
}

/// Most sample points one launch averages over.
const MAX_SAMPLES: usize = 9;

/// How a kernel's launches are sampled: fixed by the kernel and its
/// plan, so a run works it out once, at the kernel's first launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sampling {
    /// How many outermost parallel loops are distributed (their
    /// variables are sampled).
    pub(crate) dist_rank: usize,
    /// Whether a loop bound anywhere in the cost tree (through both
    /// branch arms) reads a sampled variable. When none does, every
    /// sample point costs the same.
    bounds_vary: bool,
}

impl Sampling {
    /// `dist_rank` is clamped to the kernel's loop count.
    pub fn new(kernel: &Kernel, plan: &KernelPlan, dist_rank: usize) -> Sampling {
        let dist_rank = dist_rank.min(kernel.loops.len());
        Sampling {
            dist_rank,
            bounds_vary: bounds_read_any(&plan.cost, &kernel.loops[..dist_rank]),
        }
    }
}

fn bounds_read_any(t: &CostTree, loops: &[ParallelLoop]) -> bool {
    t.kids.iter().any(|kid| match kid {
        CostNode::Loop { lo, hi, body, .. } => {
            loops
                .iter()
                .any(|lp| lo.uses_var(lp.var) || hi.uses_var(lp.var))
                || bounds_read_any(body, loops)
        }
        CostNode::Branch { then, els } => {
            bounds_read_any(then, loops) || bounds_read_any(els, loops)
        }
    })
}

/// Average per-parallel-iteration dynamic cost of a kernel launch.
///
/// `env` binds the host variables currently in scope, one slot per
/// program variable; the distributed loop variables are bound in it
/// while sampling and restored before returning.
pub fn kernel_dyn_cost(
    kernel: &Kernel,
    plan: &KernelPlan,
    sampling: Sampling,
    params: &[V],
    env: &mut [Option<f64>],
    hints: &CostHints,
) -> DynCost {
    let mut s = Sampler {
        loops: &kernel.loops[..sampling.dist_rank],
        bounds_vary: sampling.bounds_vary,
        plan,
        params,
        hints,
        costs: [DynCost::default(); MAX_SAMPLES],
        n: 0,
    };
    s.sample(0, env);
    let mut acc = DynCost::default();
    let n = s.n.max(1) as f64;
    for c in &s.costs[..s.n] {
        acc.add_scaled(c, 1.0 / n);
    }
    acc
}

/// Depth-first walk over the sample points of the distributed loops:
/// each loop variable takes `{lo, mid, hi-1}` (consecutive duplicates
/// dropped) under the bindings of the loops outside it, and the cost
/// tree is evaluated once per full binding, in lexicographic order,
/// for the first [`MAX_SAMPLES`] of them. When no bound in the tree
/// reads a sampled variable, the first evaluation is copied into the
/// later slots: the walk, the count and the averaging stay the same.
struct Sampler<'a> {
    loops: &'a [ParallelLoop],
    bounds_vary: bool,
    plan: &'a KernelPlan,
    params: &'a [V],
    hints: &'a CostHints,
    costs: [DynCost; MAX_SAMPLES],
    n: usize,
}

impl Sampler<'_> {
    fn sample(&mut self, level: usize, env: &mut [Option<f64>]) {
        let Some(lp) = self.loops.get(level) else {
            self.costs[self.n] = if self.n > 0 && !self.bounds_vary {
                self.costs[0]
            } else {
                let mut ev = TreeEval {
                    kernel: &self.plan.kernel,
                    params: self.params,
                    hints: self.hints,
                    branch_idx: 0,
                };
                ev.eval(&self.plan.cost, env)
            };
            self.n += 1;
            return;
        };
        let lo = try_eval(&lp.lo, self.params, env).unwrap_or(0.0);
        let hi = try_eval(&lp.hi, self.params, env).unwrap_or(lo + 1.0);
        let slot = lp.var.0 as usize;
        let mut last = None;
        for pt in [lo, (lo + hi) / 2.0, (hi - 1.0).max(lo)] {
            if last == Some(pt) {
                continue;
            }
            last = Some(pt);
            if self.n == MAX_SAMPLES {
                return;
            }
            let saved = env[slot].replace(pt);
            self.sample(level + 1, env);
            env[slot] = saved;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::common::dist_rank_of;
    use paccport_compilers::{compile, CompileOptions, CompilerId, Flag};
    use paccport_ir::{
        assign, for_, ld, let_, st, HostStmt, Intent, Kernel, ParallelLoop, Program,
        ProgramBuilder, Scalar, VarId, E,
    };
    use paccport_kernels::{backprop, bfs, gaussian, lud, VariantCfg};
    use std::collections::BTreeMap;

    fn unbound(p: &Program) -> Vec<Option<f64>> {
        vec![None; p.var_names.len()]
    }

    /// The map-based sampler `kernel_dyn_cost` replaced, kept as its
    /// oracle: every sample point is a cloned environment, built level
    /// by level and cut to nine after each level. Also returns how many
    /// points it averaged over.
    fn reference_dyn_cost(
        kernel: &Kernel,
        plan: &KernelPlan,
        dist_rank: usize,
        params: &[V],
        host_vars: &BTreeMap<VarId, f64>,
        hints: &CostHints,
        n_vars: usize,
    ) -> (DynCost, usize) {
        let dense = |m: &BTreeMap<VarId, f64>| {
            let mut env = vec![None; n_vars];
            for (v, x) in m {
                env[v.0 as usize] = Some(*x);
            }
            env
        };
        let mut samples: Vec<BTreeMap<VarId, f64>> = vec![host_vars.clone()];
        for lp in kernel.loops.iter().take(dist_rank) {
            let mut next = Vec::new();
            for s in &samples {
                let lo = try_eval(&lp.lo, params, &dense(s)).unwrap_or(0.0);
                let hi = try_eval(&lp.hi, params, &dense(s)).unwrap_or(lo + 1.0);
                let mut points = vec![lo, (lo + hi) / 2.0, (hi - 1.0).max(lo)];
                points.dedup_by(|a, b| a == b);
                for pt in points {
                    let mut m = s.clone();
                    m.insert(lp.var, pt);
                    next.push(m);
                }
            }
            next.truncate(9);
            samples = next;
        }
        let mut acc = DynCost::default();
        let n = samples.len().max(1) as f64;
        for s in &samples {
            let mut ev = TreeEval {
                kernel: &plan.kernel,
                params,
                hints,
                branch_idx: 0,
            };
            acc.add_scaled(&ev.eval(&plan.cost, &mut dense(s)), 1.0 / n);
        }
        (acc, samples.len())
    }

    fn bits(c: &DynCost) -> Vec<u64> {
        c.cats
            .iter()
            .chain([&c.ldst])
            .map(|v| v.to_bits())
            .collect()
    }

    /// Runs both samplers on one kernel and requires bit-identical
    /// costs and an environment restored to its bindings on entry.
    /// Returns the reference's sample count.
    fn assert_matches_reference(
        p: &Program,
        kernel: &Kernel,
        plan: &KernelPlan,
        dist_rank: usize,
        params: &[V],
        host_vars: &BTreeMap<VarId, f64>,
        hints: &CostHints,
    ) -> usize {
        let n_vars = p.var_names.len();
        let (want, n) =
            reference_dyn_cost(kernel, plan, dist_rank, params, host_vars, hints, n_vars);
        let mut env = unbound(p);
        for (v, x) in host_vars {
            env[v.0 as usize] = Some(*x);
        }
        let before = env.clone();
        let sampling = Sampling::new(kernel, plan, dist_rank);
        let got = kernel_dyn_cost(kernel, plan, sampling, params, &mut env, hints);
        assert_eq!(
            bits(&got),
            bits(&want),
            "{}/{} rank {dist_rank} host {host_vars:?}: {got:?} vs {want:?}",
            p.name,
            kernel.name
        );
        assert_eq!(
            env, before,
            "{}/{}: bindings not restored",
            p.name, kernel.name
        );
        n
    }

    /// Build `out[i] = sum_{k<n} x[k]` and check the dynamic cost
    /// scales linearly with n.
    #[test]
    fn dynamic_cost_scales_with_trip_count() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let i = b.var("i");
        let kv = b.var("k");
        let s = b.var("s");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "sum",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(x, kv))],
                ),
                st(out, i, E::from(s)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("sum").unwrap();
        let kernel = c.program.kernel("sum").unwrap();

        let cost_at = |nv: i64| {
            kernel_dyn_cost(
                kernel,
                plan,
                Sampling::new(kernel, plan, 1),
                &[V::I(nv)],
                &mut unbound(&c.program),
                &CostHints::default(),
            )
        };
        let c64 = cost_at(64);
        let c128 = cost_at(128);
        let ratio = c128.issue_slots() / c64.issue_slots();
        assert!(
            (ratio - 2.0).abs() < 0.2,
            "expected ~2x scaling, got {ratio}"
        );
        // One global load per inner iteration + one store.
        assert!((c64.ldst - 65.0).abs() < 2.0, "ldst {}", c64.ldst);
    }

    #[test]
    fn branch_weight_hint_changes_cost() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "guarded",
            vec![lp],
            paccport_ir::Block::new(vec![paccport_ir::if_(
                ld(x, i).gt(0.0),
                vec![st(x, i, ld(x, i) * 2.0), st(x, i, ld(x, i) * 3.0)],
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("guarded").unwrap();
        let kernel = c.program.kernel("guarded").unwrap();
        let cost_with = |h: CostHints| {
            kernel_dyn_cost(
                kernel,
                plan,
                Sampling::new(kernel, plan, 1),
                &[V::I(64)],
                &mut unbound(&c.program),
                &h,
            )
        };
        let dflt = cost_with(CostHints::default());
        let rare = cost_with(CostHints::default().with_branch("guarded", 0, 0.01));
        assert!(dflt.issue_slots() > rare.issue_slots());
    }

    #[test]
    fn data_dependent_bounds_use_trip_fallback() {
        // for e in nodes[i]..nodes[i]+deg — unanalyzable bounds.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let nodes = b.array("nodes", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let i = b.var("i");
        let e = b.var("e");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "edges",
            vec![lp],
            paccport_ir::Block::new(vec![for_(
                e,
                ld(nodes, i),
                ld(nodes, i) + 4i64,
                vec![st(out, i, 1.0)],
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("edges").unwrap();
        let kernel = c.program.kernel("edges").unwrap();
        let cost_with = |t: f64| {
            kernel_dyn_cost(
                kernel,
                plan,
                Sampling::new(kernel, plan, 1),
                &[V::I(64)],
                &mut unbound(&c.program),
                &CostHints::default().with_trips("edges", t),
            )
            .issue_slots()
        };
        assert!(cost_with(100.0) > cost_with(2.0) * 3.0);
    }

    /// Every program of the LUD, GE, BFS, BP and Hydro variant ladders,
    /// with the OpenCL versions.
    fn ladder_programs() -> Vec<Program> {
        let dist = VariantCfg::thread_dist(256, 16);
        let indep = VariantCfg::independent();
        let mut reorg = indep;
        reorg.reorganized = true;
        let mut red = indep;
        red.reduction = true;
        let mut out = Vec::new();
        for base in [VariantCfg::baseline(), dist, reorg, red] {
            let mut unroll = base;
            unroll.unroll = Some(8);
            let mut tile = base;
            tile.tile = Some(32);
            for vc in [base, unroll, tile] {
                out.push(lud::program(&vc));
                out.push(gaussian::program(&vc));
                out.push(bfs::program(&vc));
                out.push(backprop::program(&vc));
            }
        }
        out.push(lud::program(&indep));
        out.push(gaussian::program(&indep));
        out.push(bfs::program(&indep));
        out.push(backprop::program(&indep));
        out.push(gaussian::opencl_program(false));
        out.push(gaussian::opencl_program(true));
        out.push(bfs::opencl_program());
        out.push(backprop::opencl_program(16));
        for hv in [
            paccport_hydro::HydroVariant::Baseline,
            paccport_hydro::HydroVariant::Optimized,
            paccport_hydro::HydroVariant::OpenCl,
        ] {
            out.push(paccport_hydro::program(hv));
        }
        out
    }

    fn host_loop_vars(p: &Program) -> Vec<VarId> {
        let mut vars = Vec::new();
        for s in &p.body {
            s.walk(&mut |s| {
                if let HostStmt::HostLoop { var, .. } = s {
                    vars.push(*var);
                }
            });
        }
        vars
    }

    #[test]
    fn in_place_sampler_matches_the_map_based_reference_on_every_ladder_kernel() {
        let bfs_hints = CostHints::default()
            .with_branch("bfs_kernel1", 0, 0.05)
            .with_branch("bfs_kernel2", 0, 0.05)
            .with_trips("bfs_kernel1", 4.0);
        let compilers = [
            CompilerId::Caps,
            CompilerId::Pgi,
            CompilerId::OpenClHand,
            CompilerId::OpenArc,
        ];
        let mut checked = [0usize; 4];
        for p in ladder_programs() {
            let host_vars = host_loop_vars(&p);
            for (ci, &id) in compilers.iter().enumerate() {
                for opts in [
                    CompileOptions::gpu(),
                    CompileOptions::mic(),
                    CompileOptions::gpu().with_flag(Flag::Munroll),
                ] {
                    // Not every personality accepts every program or
                    // target (PGI has no MIC back end, Hydro defeats
                    // PGI); the rest must agree bit for bit.
                    let Ok(c) = compile(id, &p, &opts) else {
                        continue;
                    };
                    for k in c.program.kernels() {
                        let Some(plan) = c.plan(&k.name) else {
                            continue;
                        };
                        checked[ci] += 1;
                        for (size, at) in [(64.0, 0.0), (1000.0, 3.0), (4096.0, 2047.0)] {
                            let params: Vec<V> = c
                                .program
                                .params
                                .iter()
                                .map(|d| match d.ty {
                                    Scalar::F32 | Scalar::F64 => V::F(size),
                                    _ => V::I(size as i64),
                                })
                                .collect();
                            let bound: BTreeMap<VarId, f64> =
                                host_vars.iter().map(|v| (*v, at)).collect();
                            for host in [BTreeMap::new(), bound] {
                                for hints in [CostHints::default(), bfs_hints.clone()] {
                                    for rank in [dist_rank_of(&plan.dist, k.rank()), 3] {
                                        assert_matches_reference(
                                            &c.program, k, plan, rank, &params, &host, &hints,
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(checked.iter().all(|n| *n > 0), "{compilers:?}: {checked:?}");
    }

    /// The triangular nest of [`rank3_triangular_nest_hits_the_sample_cap`];
    /// `independent` lets CAPS distribute it instead of serializing it.
    fn tri3_program(independent: bool) -> Program {
        let mut b = ProgramBuilder::new("tri3");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::InOut);
        let (i, j, k, m, s) = (b.var("i"), b.var("j"), b.var("k"), b.var("m"), b.var("s"));
        let mut loops = vec![
            ParallelLoop::new(i, Expr::iconst(0), Expr::param(n)),
            ParallelLoop::new(j, (E::from(i) + 1i64).0, Expr::param(n)),
            ParallelLoop::new(k, Expr::var(j), Expr::param(n)),
        ];
        for lp in &mut loops {
            lp.clauses.independent = independent;
        }
        let kern = Kernel::simple(
            "tri3",
            loops,
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    m,
                    E::from(k),
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(x, m))],
                ),
                st(out, k, E::from(s)),
            ]),
        );
        b.finish(vec![HostStmt::Launch(kern)])
    }

    /// `out[i][j][k] += sum_{m in k..n} x[m]` over the triangular nest
    /// `i in 0..n, j in i+1..n, k in j..n`: each inner bound names an
    /// outer variable, a rank-3 sweep has more than nine
    /// candidate points, and the empty `j` range at `i = n-1` collapses
    /// to one point.
    #[test]
    fn rank3_triangular_nest_hits_the_sample_cap() {
        let p = tri3_program(false);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("tri3").unwrap();
        let kernel = c.program.kernel("tri3").unwrap();
        let none = BTreeMap::new();
        let hints = CostHints::default();
        let sampled = |rank: usize, nv: i64| {
            assert_matches_reference(&c.program, kernel, plan, rank, &[V::I(nv)], &none, &hints)
        };
        assert_eq!(sampled(3, 64), 9, "the rank-3 candidates are cut to nine");
        // i takes {0, 32, 63}; j's range 64..64 at i = 63 is empty and
        // collapses to one point: 3 + 3 + 1.
        assert_eq!(sampled(2, 64), 7);
        assert_eq!(sampled(1, 64), 3);
        assert_eq!(sampled(0, 64), 1);
        // Degenerate sizes: half-integer mid points, inverted ranges.
        for nv in [1, 2, 3] {
            sampled(3, nv);
        }
    }

    /// LUD's inner `k` loops are bounded by the host variable `i`, never
    /// by the distributed `j`, and GE's kernels have no inner loops
    /// outside the serialized ones bounded by the host `t`: every sample
    /// point costs the same.
    #[test]
    fn lud_and_ge_bounds_do_not_read_the_sampled_variables() {
        let mut reorg = VariantCfg::independent();
        reorg.reorganized = true;
        let programs = [
            lud::program(&VariantCfg::baseline()),
            lud::program(&VariantCfg::thread_dist(256, 16)),
            gaussian::program(&VariantCfg::baseline()),
            gaussian::program(&VariantCfg::independent()),
            gaussian::program(&reorg),
        ];
        let mut checked = BTreeMap::new();
        for p in &programs {
            for id in [CompilerId::Caps, CompilerId::Pgi, CompilerId::OpenArc] {
                for opts in [CompileOptions::gpu(), CompileOptions::mic()] {
                    let Ok(c) = compile(id, p, &opts) else {
                        continue; // PGI has no MIC back end
                    };
                    for k in c.program.kernels() {
                        let plan = c.plan(&k.name).unwrap();
                        let s = Sampling::new(k, plan, dist_rank_of(&plan.dist, k.rank()));
                        assert!(!s.bounds_vary, "{id:?} {}: {s:?}", k.name);
                        *checked.entry(k.name.clone()).or_insert(0) += 1;
                    }
                }
            }
        }
        let names: Vec<_> = checked.keys().map(String::as_str).collect();
        assert_eq!(
            names,
            ["fan1", "fan2", "fan2a", "fan2b", "lud_col", "lud_row"]
        );
    }

    /// Checks that `sampling` says the bounds vary, that the sampler
    /// matches the reference over `samples` points, and that copying the
    /// first point's cost instead would change the result.
    fn assert_samples_differ(
        p: &Program,
        kernel: &Kernel,
        plan: &KernelPlan,
        sampling: Sampling,
        samples: usize,
    ) {
        assert!(sampling.bounds_vary, "{}: {sampling:?}", kernel.name);
        let rank = sampling.dist_rank;
        let params = [V::I(64)];
        let none = BTreeMap::new();
        let hints = CostHints::default();
        let n = assert_matches_reference(p, kernel, plan, rank, &params, &none, &hints);
        assert_eq!(n, samples);
        let (want, _) = reference_dyn_cost(
            kernel,
            plan,
            rank,
            &params,
            &none,
            &hints,
            p.var_names.len(),
        );
        let copied = kernel_dyn_cost(
            kernel,
            plan,
            Sampling {
                bounds_vary: false,
                ..sampling
            },
            &params,
            &mut unbound(p),
            &hints,
        );
        assert_ne!(bits(&copied), bits(&want), "{}", kernel.name);
    }

    /// `tri3`'s inner bounds read `j` and `k`. Serialized, its cost tree
    /// rebinds them (the check is conservative); distributed, the
    /// sampled values reach the `k` and `m` loops.
    #[test]
    fn triangular_bounds_read_the_sampled_variables() {
        let c = compile(
            CompilerId::Caps,
            &tri3_program(false),
            &CompileOptions::gpu(),
        )
        .unwrap();
        let plan = c.plan("tri3").unwrap();
        let kernel = c.program.kernel("tri3").unwrap();
        for rank in [2, 3] {
            assert!(Sampling::new(kernel, plan, rank).bounds_vary, "rank {rank}");
        }
        let none = Sampling::new(kernel, plan, 0);
        assert_eq!(
            none,
            Sampling {
                dist_rank: 0,
                bounds_vary: false
            }
        );
        assert_eq!(Sampling::new(kernel, plan, 7).dist_rank, 3, "clamped");

        let c = compile(
            CompilerId::Caps,
            &tri3_program(true),
            &CompileOptions::gpu(),
        )
        .unwrap();
        let plan = c.plan("tri3").unwrap();
        let kernel = c.program.kernel("tri3").unwrap();
        assert_eq!(plan.exec, paccport_compilers::ExecStrategy::DeviceParallel);
        let rank = dist_rank_of(&plan.dist, kernel.rank());
        assert_eq!(rank, 2);
        // i takes {0, 32, 63}, j three points unless its range is empty.
        assert_samples_differ(
            &c.program,
            kernel,
            plan,
            Sampling::new(kernel, plan, rank),
            7,
        );
    }

    /// `if x[i] > 0 { for m in i..n { s += x[m] } }`: the distributed
    /// `i` appears only in the bound of a loop inside a branch arm. The
    /// check must see through the branch, and copying the first sample
    /// instead would give a different cost.
    #[test]
    fn a_bound_inside_a_branch_arm_reads_the_sampled_variable() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let (i, m, s) = (b.var("i"), b.var("m"), b.var("s"));
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "tail",
            vec![lp],
            paccport_ir::Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                paccport_ir::if_(
                    ld(x, i).gt(0.0),
                    vec![for_(
                        m,
                        E::from(i),
                        E::from(n),
                        vec![assign(s, E::from(s) + ld(x, m))],
                    )],
                ),
                st(out, i, E::from(s)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let plan = c.plan("tail").unwrap();
        let kernel = c.program.kernel("tail").unwrap();
        assert!(
            plan.cost.kids.iter().all(|kid| matches!(
                kid,
                CostNode::Branch { then, .. }
                    if matches!(then.kids.as_slice(), [CostNode::Loop { .. }])
            )) && !plan.cost.kids.is_empty(),
            "the loop sits inside a branch arm: {:?}",
            plan.cost
        );
        assert_samples_differ(&c.program, kernel, plan, Sampling::new(kernel, plan, 1), 3);
    }

    /// A distributed loop whose bounds read memory (BFS-style edge
    /// ranges) falls back to `{0, 0.5}`, and a serialized one to the
    /// kernel's trip hint; both must agree with the reference.
    #[test]
    fn data_dependent_bounds_match_the_reference() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let nodes = b.array("nodes", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let (i, j, e) = (b.var("i"), b.var("j"), b.var("e"));
        let loops = vec![
            ParallelLoop::new(i, Expr::iconst(0), Expr::param(n)),
            ParallelLoop::new(j, ld(nodes, i).0, (ld(nodes, i) + 2i64).0),
        ];
        let k = Kernel::simple(
            "edges2",
            loops,
            paccport_ir::Block::new(vec![for_(
                e,
                ld(nodes, j),
                ld(nodes, j) + 4i64,
                vec![st(out, i, 1.0)],
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        for id in [CompilerId::Caps, CompilerId::Pgi] {
            let c = compile(id, &p, &CompileOptions::gpu()).unwrap();
            let plan = c.plan("edges2").unwrap();
            let kernel = c.program.kernel("edges2").unwrap();
            for hints in [
                CostHints::default(),
                CostHints::default().with_trips("edges2", 37.0),
            ] {
                for rank in 0..=2 {
                    assert_matches_reference(
                        &c.program,
                        kernel,
                        plan,
                        rank,
                        &[V::I(64)],
                        &BTreeMap::new(),
                        &hints,
                    );
                }
            }
        }
    }
}
