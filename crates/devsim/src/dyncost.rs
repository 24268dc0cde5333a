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
//!
//! Within one run the kernel, its plan, the parameters and the
//! [`CostHints`] never change, so a run compiles each kernel's timing
//! path once, at its first launch, into a `CostPlan`:
//!
//! - every bound (cost-tree loops, sampled parallel loops, launch
//!   extents) is lowered with the parameters folded in: a constant, a
//!   variable, a variable plus a constant, or the expression itself;
//! - the tree is flattened into one depth-first program whose rows are
//!   the node counts already converted to `f64`, with each branch's
//!   weight and the kernel's trip fallback resolved from the hints;
//! - a loop whose body has no loop and no branch becomes one step: its
//!   row (body plus per-iteration overhead) is summed at plan time, and
//!   a launch only evaluates its trip count, without binding its
//!   variable, which no bound reads;
//! - it notes whether any cost-tree bound reads a sampled variable.
//!
//! A launch then reads only the host variables in scope. When no bound
//! reads a sampled variable it counts the sample points (in one step
//! for up to one sampled loop) and runs the program once; otherwise it
//! walks the points and runs the program at each. Either way it
//! performs the same floating-point operations in the same order as
//! the recursive, map-based evaluation the unit tests keep as their
//! oracle, so every modeled bit is the same.

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

/// Value of `e` when it reads no variable and no work-group builtin
/// (the same at every launch of a run), `None` when it reads either.
fn fold(e: &Expr, params: &[V]) -> Option<Option<f64>> {
    let mut reads_env = false;
    e.walk(&mut |x| reads_env |= matches!(x, Expr::Var(_) | Expr::Special(_)));
    (!reads_env).then(|| try_eval(e, params, &[]))
}

fn read(env: &[Option<f64>], slot: usize) -> Option<f64> {
    env.get(slot).copied().flatten()
}

/// A bound expression lowered once per run, with the run's parameters
/// folded in. Each evaluation gives exactly what [`try_eval_mode`]
/// gives on the expression it was lowered from.
#[derive(Debug, Clone, Copy)]
enum Bound<'a> {
    /// Reads no variable and no builtin: one value, or one failure,
    /// for the whole run.
    Const(Option<f64>),
    /// One variable.
    Slot(usize),
    /// One variable plus a constant, in either order.
    SlotPlus(usize, f64),
    /// Anything else, evaluated in full.
    General(&'a Expr),
}

impl<'a> Bound<'a> {
    fn lower(e: &'a Expr, params: &[V]) -> Bound<'a> {
        if let Some(v) = fold(e, params) {
            return Bound::Const(v);
        }
        let var = |x: &Expr| match x {
            Expr::Var(v) => Some(v.0 as usize),
            _ => None,
        };
        let konst = |x: &Expr| fold(x, params).flatten();
        let lowered = match e {
            Expr::Var(v) => Some(Bound::Slot(v.0 as usize)),
            Expr::Bin(BinOp::Add, a, b) => var(a)
                .zip(konst(b))
                .or_else(|| var(b).zip(konst(a)))
                .map(|(s, c)| Bound::SlotPlus(s, c)),
            _ => None,
        };
        lowered.unwrap_or(Bound::General(e))
    }

    /// [`try_eval`] of the expression.
    fn eval(self, params: &[V], env: &[Option<f64>]) -> Option<f64> {
        match self {
            Bound::Const(v) => v,
            Bound::Slot(s) => read(env, s),
            Bound::SlotPlus(s, c) => read(env, s).map(|x| x + c),
            Bound::General(e) => try_eval(e, params, env),
        }
    }

    /// [`try_eval`] of the expression, else its lenient evaluation,
    /// where unbound variables and builtins read as 0 (a lower-corner
    /// estimate, right for strided reduction loops whose start is
    /// `lo + tid`) but memory loads still fail.
    fn eval_or_lenient(self, params: &[V], env: &[Option<f64>]) -> Option<f64> {
        match self {
            Bound::Const(v) => v,
            Bound::Slot(s) => Some(read(env, s).unwrap_or(0.0)),
            Bound::SlotPlus(s, c) => Some(read(env, s).unwrap_or(0.0) + c),
            Bound::General(e) => {
                try_eval(e, params, env).or_else(|| try_eval_mode(e, params, env, true))
            }
        }
    }
}

/// One step of a flattened [`CostTree`]. The program runs in
/// depth-first order with one running cost, the node being summed;
/// entering a loop body or a branch arm suspends it in a [`Frame`].
#[derive(Debug, Clone)]
enum Op<'a> {
    /// A loop whose body has no loop and no branch: add trips × `row`,
    /// the body's counts plus the per-iteration overhead. No bound reads
    /// its variable, so it is never bound.
    Repeat {
        lo: Bound<'a>,
        hi: Bound<'a>,
        step: f64,
        row: DynCost,
    },
    /// Enter a loop: bind its variable to the midpoint of its bounds,
    /// note its trip count, and start summing its body from `body`,
    /// the body node's own counts.
    Enter {
        slot: usize,
        lo: Bound<'a>,
        hi: Bound<'a>,
        step: f64,
        body: DynCost,
    },
    /// Leave a loop: add the per-iteration overhead to the body's
    /// cost, restore the variable, and add trips × that to the node
    /// around the loop.
    Leave { slot: usize, overhead: DynCost },
    /// Start summing a branch arm (`then`, then `els`) from its own
    /// counts.
    Arm(DynCost),
    /// Add both arms to the node around the branch: `then` weighted
    /// `w`, `els` weighted `not_w = 1 - w`.
    Join { w: f64, not_w: f64 },
}

/// A suspended running cost, with the trip count and the shadowed
/// binding of the loop entered (unused for a branch arm).
#[derive(Debug, Clone, Copy)]
struct Frame {
    cost: DynCost,
    trips: f64,
    saved: Option<f64>,
}

/// A [`CostTree`] flattened for one run: counts converted to `f64`,
/// bounds lowered, branch weights and the trip fallback resolved from
/// the [`CostHints`].
#[derive(Debug)]
struct FlatTree<'a> {
    /// The root node's own counts.
    root: DynCost,
    ops: Vec<Op<'a>>,
    /// Trip count and midpoint of a loop whose bounds cannot be
    /// evaluated: the kernel's trip hint, and half of it.
    fallback: (f64, f64),
    /// Scratch for the suspended costs.
    frames: Vec<Frame>,
}

impl<'a> FlatTree<'a> {
    fn new(plan: &'a KernelPlan, params: &[V], hints: &CostHints) -> FlatTree<'a> {
        let trips = hints.trip_fallback(&plan.kernel);
        let mut tree = FlatTree {
            root: DynCost::from_counts(&plan.cost.flat, plan.cost.flat_ldst),
            ops: Vec::new(),
            fallback: (trips, trips / 2.0),
            frames: Vec::new(),
        };
        let weight = |idx| hints.branch_weight(&plan.kernel, idx);
        tree.flatten(&plan.cost, params, &weight, &mut 0);
        tree
    }

    /// Appends the program of `t`'s children. Branches are numbered in
    /// the order a depth-first walk meets them, `then` arm before `els`.
    fn flatten(
        &mut self,
        t: &'a CostTree,
        params: &[V],
        weight: &impl Fn(usize) -> f64,
        branches: &mut usize,
    ) {
        let own = |t: &CostTree| DynCost::from_counts(&t.flat, t.flat_ldst);
        for kid in &t.kids {
            match kid {
                CostNode::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    overhead,
                    body,
                } if body.kids.is_empty() => {
                    let mut row = own(body);
                    row.add_scaled(&DynCost::from_counts(overhead, 0), 1.0);
                    self.ops.push(Op::Repeat {
                        lo: Bound::lower(lo, params),
                        hi: Bound::lower(hi, params),
                        step: *step as f64,
                        row,
                    });
                }
                CostNode::Loop {
                    var,
                    lo,
                    hi,
                    step,
                    overhead,
                    body,
                } => {
                    let slot = var.0 as usize;
                    self.ops.push(Op::Enter {
                        slot,
                        lo: Bound::lower(lo, params),
                        hi: Bound::lower(hi, params),
                        step: *step as f64,
                        body: own(body),
                    });
                    self.flatten(body, params, weight, branches);
                    self.ops.push(Op::Leave {
                        slot,
                        overhead: DynCost::from_counts(overhead, 0),
                    });
                }
                CostNode::Branch { then, els } => {
                    let w = weight(*branches);
                    *branches += 1;
                    for arm in [then, els] {
                        self.ops.push(Op::Arm(own(arm)));
                        self.flatten(arm, params, weight, branches);
                    }
                    self.ops.push(Op::Join { w, not_w: 1.0 - w });
                }
            }
        }
    }

    /// The tree's cost under the bindings in `env`, which loops rebind
    /// while they run and restore.
    fn eval(&mut self, params: &[V], env: &mut [Option<f64>]) -> DynCost {
        let FlatTree {
            root,
            ops,
            fallback,
            frames,
        } = self;
        let mut cost = *root;
        let bounds = |lo: Bound, hi: Bound, env: &[Option<f64>]| {
            lo.eval_or_lenient(params, env)
                .zip(hi.eval_or_lenient(params, env))
        };
        for op in ops.iter() {
            match *op {
                Op::Repeat { lo, hi, step, row } => {
                    let trips = match bounds(lo, hi, env) {
                        Some((l, h)) => ((h - l) / step).ceil().max(0.0),
                        None => fallback.0,
                    };
                    cost.add_scaled(&row, trips);
                }
                Op::Enter {
                    slot,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    let (trips, mid) = match bounds(lo, hi, env) {
                        Some((l, h)) => (((h - l) / step).ceil().max(0.0), (l + h) / 2.0),
                        None => *fallback,
                    };
                    let saved = env[slot].replace(mid);
                    frames.push(Frame { cost, trips, saved });
                    cost = body;
                }
                Op::Leave { slot, overhead } => {
                    let mut per_iter = cost;
                    per_iter.add_scaled(&overhead, 1.0);
                    let f = frames.pop().expect("an open loop");
                    env[slot] = f.saved;
                    cost = f.cost;
                    cost.add_scaled(&per_iter, f.trips);
                }
                Op::Arm(own) => {
                    frames.push(Frame {
                        cost,
                        trips: 0.0,
                        saved: None,
                    });
                    cost = own;
                }
                Op::Join { w, not_w } => {
                    let then = frames.pop().expect("a then arm").cost;
                    let els = cost;
                    cost = frames.pop().expect("a branch's node").cost;
                    cost.add_scaled(&then, w);
                    cost.add_scaled(&els, not_w);
                }
            }
        }
        cost
    }
}

/// Most sample points one launch averages over.
const MAX_SAMPLES: usize = 9;

/// `1/n` for each count `n` of sample points (`n >= 1`).
const INV_SAMPLES: [f64; MAX_SAMPLES + 1] = {
    let mut t = [1.0; MAX_SAMPLES + 1];
    let mut n = 2;
    while n <= MAX_SAMPLES {
        t[n] = 1.0 / n as f64;
        n += 1;
    }
    t
};

/// A parallel loop's variable and lowered bounds.
#[derive(Debug, Clone, Copy)]
struct LoopBounds<'a> {
    slot: usize,
    lo: Bound<'a>,
    hi: Bound<'a>,
}

impl LoopBounds<'_> {
    /// The candidate sample points `{lo, mid, hi-1}` under the bindings
    /// in `env`: a bound that cannot be evaluated reads as 0 for `lo`
    /// and as `lo + 1` for `hi`, and `hi-1` never falls below `lo`.
    fn points(&self, params: &[V], env: &[Option<f64>]) -> [f64; 3] {
        let lo = self.lo.eval(params, env).unwrap_or(0.0);
        let hi = self.hi.eval(params, env).unwrap_or(lo + 1.0);
        [lo, (lo + hi) / 2.0, (hi - 1.0).max(lo)]
    }
}

/// One kernel's timing path, compiled at its first launch in a run:
/// the kernel, its plan, the run's parameters and its [`CostHints`]
/// are fixed for the whole run, so each launch only reads the host
/// variables in scope.
#[derive(Debug)]
pub(crate) struct CostPlan<'a> {
    /// Every parallel loop, outermost first: the extents of a
    /// timing-only launch, and the first `dist_rank` are sampled.
    loops: Vec<LoopBounds<'a>>,
    /// How many outermost parallel loops are distributed (their
    /// variables are sampled).
    dist_rank: usize,
    /// Whether a loop bound anywhere in the cost tree (through both
    /// branch arms) reads a sampled variable. When none does, every
    /// sample point costs the same.
    bounds_vary: bool,
    tree: FlatTree<'a>,
    /// Scratch for each sample point's cost when the bounds vary.
    costs: Vec<DynCost>,
}

impl<'a> CostPlan<'a> {
    /// `dist_rank` is clamped to the kernel's loop count; `params` and
    /// `hints` are the run's.
    pub(crate) fn new(
        kernel: &'a Kernel,
        plan: &'a KernelPlan,
        dist_rank: usize,
        params: &[V],
        hints: &CostHints,
    ) -> CostPlan<'a> {
        let dist_rank = dist_rank.min(kernel.loops.len());
        let loops = kernel
            .loops
            .iter()
            .map(|lp| LoopBounds {
                slot: lp.var.0 as usize,
                lo: Bound::lower(&lp.lo, params),
                hi: Bound::lower(&lp.hi, params),
            })
            .collect();
        CostPlan {
            loops,
            dist_rank,
            bounds_vary: bounds_read_any(&plan.cost, &kernel.loops[..dist_rank]),
            tree: FlatTree::new(plan, params, hints),
            costs: Vec::new(),
        }
    }

    pub(crate) fn dist_rank(&self) -> usize {
        self.dist_rank
    }

    /// Each parallel loop's trip extent at a timing-only launch: a
    /// bound that cannot be evaluated reads as 0 for `lo` and as `lo`
    /// for `hi`.
    pub(crate) fn extents(&self, params: &[V], env: &[Option<f64>], out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.loops.iter().map(|lp| {
            let lo = lp.lo.eval(params, env).unwrap_or(0.0);
            let hi = lp.hi.eval(params, env).unwrap_or(lo);
            (hi - lo).max(0.0) as u64
        }));
    }

    /// Average per-parallel-iteration dynamic cost of one launch.
    ///
    /// `env` binds the host variables currently in scope, one slot per
    /// program variable; the sampled loop variables are bound in it
    /// while sampling and restored before returning. The tree is
    /// evaluated once per sample point, or once in all when no bound
    /// reads a sampled variable; either way every point's cost is
    /// added to the average, in order, weighted `1/n`.
    pub(crate) fn dyn_cost(&mut self, params: &[V], env: &mut [Option<f64>]) -> DynCost {
        let sampled = &self.loops[..self.dist_rank];
        let mut acc = DynCost::default();
        if self.bounds_vary {
            let CostPlan { tree, costs, .. } = self;
            costs.clear();
            sample(sampled, params, env, &mut 0, &mut |env| {
                costs.push(tree.eval(params, env))
            });
            let w = INV_SAMPLES[costs.len()];
            for c in costs.iter() {
                acc.add_scaled(c, w);
            }
        } else {
            let n = match sampled {
                [] => 1,
                [lp] => {
                    let [lo, mid, last] = lp.points(params, env);
                    1 + (mid != lo) as usize + (last != mid) as usize
                }
                _ => {
                    let mut n = 0;
                    sample(sampled, params, env, &mut n, &mut |_| {});
                    n
                }
            };
            let c = self.tree.eval(params, env);
            let w = INV_SAMPLES[n];
            for _ in 0..n {
                acc.add_scaled(&c, w);
            }
        }
        acc
    }
}

/// Depth-first walk over the sample points of the distributed loops:
/// each loop variable takes `{lo, mid, hi-1}` (consecutive duplicates
/// dropped) under the bindings of the loops outside it, and `leaf`
/// sees each full binding, in lexicographic order, for the first
/// [`MAX_SAMPLES`] of them. `n` counts the bindings seen.
fn sample(
    loops: &[LoopBounds],
    params: &[V],
    env: &mut [Option<f64>],
    n: &mut usize,
    leaf: &mut impl FnMut(&mut [Option<f64>]),
) {
    let Some((lp, inner)) = loops.split_first() else {
        leaf(env);
        *n += 1;
        return;
    };
    let mut last = None;
    for pt in lp.points(params, env) {
        if last == Some(pt) {
            continue;
        }
        last = Some(pt);
        if *n == MAX_SAMPLES {
            return;
        }
        let saved = env[lp.slot].replace(pt);
        // The innermost loop visits its points itself: one more call
        // per point would cost about as much as the rest of the point.
        if inner.is_empty() {
            leaf(env);
            *n += 1;
        } else {
            sample(inner, params, env, n, leaf);
        }
        env[lp.slot] = saved;
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

    /// The recursive tree walk [`FlatTree`] replaced, kept as its
    /// oracle: bounds evaluated from their expressions, counts converted
    /// at every node, hints looked up by name at every branch and loop.
    fn reference_tree_cost(
        t: &CostTree,
        kernel: &str,
        params: &[V],
        hints: &CostHints,
        branch_idx: &mut usize,
        env: &mut [Option<f64>],
    ) -> DynCost {
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
                    let eval = |e: &Expr, env: &[Option<f64>]| {
                        try_eval(e, params, env).or_else(|| try_eval_mode(e, params, env, true))
                    };
                    let (lo_v, hi_v) = (eval(lo, env), eval(hi, env));
                    let trips = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => ((h - l) / *step as f64).ceil().max(0.0),
                        _ => hints.trip_fallback(kernel),
                    };
                    // Bind the loop var to its midpoint for the body.
                    let mid = match (lo_v, hi_v) {
                        (Some(l), Some(h)) => (l + h) / 2.0,
                        _ => hints.trip_fallback(kernel) / 2.0,
                    };
                    let slot = var.0 as usize;
                    let saved = env[slot].replace(mid);
                    let body_cost =
                        reference_tree_cost(body, kernel, params, hints, branch_idx, env);
                    env[slot] = saved;
                    let mut per_iter = body_cost;
                    per_iter.add_scaled(&DynCost::from_counts(overhead, 0), 1.0);
                    out.add_scaled(&per_iter, trips);
                }
                CostNode::Branch { then, els } => {
                    let w = hints.branch_weight(kernel, *branch_idx);
                    *branch_idx += 1;
                    let t_cost = reference_tree_cost(then, kernel, params, hints, branch_idx, env);
                    let e_cost = reference_tree_cost(els, kernel, params, hints, branch_idx, env);
                    out.add_scaled(&t_cost, w);
                    out.add_scaled(&e_cost, 1.0 - w);
                }
            }
        }
        out
    }

    /// The map-based sampler [`CostPlan`] replaced, kept as its oracle:
    /// every sample point is a cloned environment, built level by level
    /// and cut to nine after each level, and the tree is walked at each
    /// one. Also returns how many points it averaged over.
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
            let mut env = dense(s);
            let c = reference_tree_cost(&plan.cost, &plan.kernel, params, hints, &mut 0, &mut env);
            acc.add_scaled(&c, 1.0 / n);
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

    /// Runs the plan and the reference on one kernel and requires
    /// bit-identical costs, an environment restored to its bindings on
    /// entry, and the extents the runner computed before plans: each
    /// bound through [`try_eval`]. Returns the reference's sample count.
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
        let mut cost = CostPlan::new(kernel, plan, dist_rank, params, hints);
        let got = cost.dyn_cost(params, &mut env);
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
        let want: Vec<u64> = kernel
            .loops
            .iter()
            .map(|lp| {
                let lo = try_eval(&lp.lo, params, &env).unwrap_or(0.0);
                let hi = try_eval(&lp.hi, params, &env).unwrap_or(lo);
                (hi - lo).max(0.0) as u64
            })
            .collect();
        let mut got = Vec::new();
        cost.extents(params, &env, &mut got);
        assert_eq!(got, want, "{}/{} extents", p.name, kernel.name);
        n
    }

    /// One launch's cost through a plan built for it alone.
    fn dyn_cost(
        kernel: &Kernel,
        plan: &KernelPlan,
        dist_rank: usize,
        params: &[V],
        env: &mut [Option<f64>],
        hints: &CostHints,
    ) -> DynCost {
        CostPlan::new(kernel, plan, dist_rank, params, hints).dyn_cost(params, env)
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
            dyn_cost(
                kernel,
                plan,
                1,
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
        let cost_with =
            |h: CostHints| dyn_cost(kernel, plan, 1, &[V::I(64)], &mut unbound(&c.program), &h);
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
            dyn_cost(
                kernel,
                plan,
                1,
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

    /// Parameter values for `p`: every parameter set to `size`.
    fn params_of(p: &Program, size: f64) -> Vec<V> {
        p.params
            .iter()
            .map(|d| match d.ty {
                Scalar::F32 | Scalar::F64 => V::F(size),
                _ => V::I(size as i64),
            })
            .collect()
    }

    fn branch_count(t: &CostTree) -> usize {
        t.kids
            .iter()
            .map(|kid| match kid {
                CostNode::Loop { body, .. } => branch_count(body),
                CostNode::Branch { then, els } => 1 + branch_count(then) + branch_count(els),
            })
            .sum()
    }

    /// Every ladder kernel on every personality and target, at three
    /// sizes, with the host loop variables unbound or at 0, 1 and
    /// `n - 1` (zero-trip inner loops, single-point samples), under the
    /// default hints, BFS's, and a 0.3 weight on every branch with a
    /// trip fallback of 5, at the planned rank and at rank 3.
    #[test]
    fn the_plan_matches_the_map_based_reference_on_every_ladder_kernel() {
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
                        let skewed = (0..branch_count(&plan.cost))
                            .fold(CostHints::default().with_trips(&k.name, 5.0), |h, idx| {
                                h.with_branch(&k.name, idx, 0.3)
                            });
                        for size in [64.0, 1000.0, 4096.0] {
                            let params = params_of(&c.program, size);
                            let mut hosts = vec![BTreeMap::new()];
                            for at in [0.0, 1.0, size - 1.0] {
                                hosts.push(host_vars.iter().map(|v| (*v, at)).collect());
                            }
                            for host in &hosts {
                                for hints in [&CostHints::default(), &bfs_hints, &skewed] {
                                    for rank in [dist_rank_of(&plan.dist, k.rank()), 3] {
                                        assert_matches_reference(
                                            &c.program, k, plan, rank, &params, host, hints,
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
                        let rank = dist_rank_of(&plan.dist, k.rank());
                        let params = params_of(&c.program, 64.0);
                        let s = CostPlan::new(k, plan, rank, &params, &CostHints::default());
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

    /// Checks that the plan at `rank` says the bounds vary, that it
    /// matches the reference over `samples` points, and that evaluating
    /// the tree once instead would change the result.
    fn assert_samples_differ(
        p: &Program,
        kernel: &Kernel,
        plan: &KernelPlan,
        rank: usize,
        samples: usize,
    ) {
        let params = [V::I(64)];
        let none = BTreeMap::new();
        let hints = CostHints::default();
        let mut cost = CostPlan::new(kernel, plan, rank, &params, &hints);
        assert!(cost.bounds_vary, "{}: {cost:?}", kernel.name);
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
        cost.bounds_vary = false;
        let once = cost.dyn_cost(&params, &mut unbound(p));
        assert_ne!(bits(&once), bits(&want), "{}", kernel.name);
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
        let hints = CostHints::default();
        let at = |rank| CostPlan::new(kernel, plan, rank, &[V::I(64)], &hints);
        for rank in [2, 3] {
            assert!(at(rank).bounds_vary, "rank {rank}");
        }
        let none = at(0);
        assert_eq!((none.dist_rank, none.bounds_vary), (0, false));
        assert_eq!(at(7).dist_rank(), 3, "clamped");

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
        assert_samples_differ(&c.program, kernel, plan, rank, 7);
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
        assert_samples_differ(&c.program, kernel, plan, 1, 3);
    }

    /// A distributed loop whose bounds read memory (BFS-style edge
    /// ranges) falls back to `{0, 0.5}`, and a serialized one to the
    /// kernel's trip hint, its variable bound to half the hint for the
    /// inner loop that reads it; all must agree with the reference.
    #[test]
    fn data_dependent_bounds_match_the_reference() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let nodes = b.array("nodes", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let (i, j, e, f) = (b.var("i"), b.var("j"), b.var("e"), b.var("f"));
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
                vec![for_(f, 0i64, E::from(e), vec![st(out, i, 1.0)])],
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

    /// Random cost trees, bounds and hints for
    /// [`random_plans_match_the_reference`]: every choice is drawn from
    /// one seeded stream.
    struct Gen {
        rng: paccport_trace::rng::Rng,
        /// The host variable, the three parallel variables, then one
        /// variable per cost-tree depth.
        vars: Vec<VarId>,
        params: [paccport_ir::ParamId; 2],
        mem: paccport_ir::ArrayId,
        branches: usize,
    }

    impl Gen {
        fn counts(&mut self) -> paccport_ptx::CategoryCounts {
            let mut c = paccport_ptx::CategoryCounts::default();
            for cat in CATEGORIES {
                if self.rng.chance(1, 2) {
                    c.add_n(cat, self.rng.below(20));
                }
            }
            c
        }

        /// A bound over the variables in `vars[..in_scope]`: constants
        /// near zero (empty, one- and two-point ranges), parameters,
        /// variables alone or plus a constant, general expressions,
        /// memory reads and work-group builtins.
        fn bound(&mut self, in_scope: usize) -> Expr {
            let var = |g: &mut Gen| Expr::var(g.vars[g.rng.below(in_scope as u64) as usize]);
            let konst = |g: &mut Gen| Expr::iconst(g.rng.range(-2, 10));
            match self.rng.below(9) {
                0 | 1 => konst(self),
                2 => Expr::param(*self.rng.pick(&self.params)),
                3 => var(self),
                4 => Expr::Bin(BinOp::Add, Box::new(var(self)), Box::new(konst(self))),
                5 => Expr::Bin(BinOp::Add, Box::new(konst(self)), Box::new(var(self))),
                6 => (E::from(var(self)) * 2i64 + Expr::param(self.params[0])).0,
                7 => ld(self.mem, var(self)).0,
                _ => Expr::Special(paccport_ir::expr::SpecialVar::LocalId(0)),
            }
        }

        /// A subtree at `depth`: about half of all loop bodies and
        /// branch arms have no children.
        fn tree(&mut self, depth: usize) -> CostTree {
            let mut t = CostTree {
                flat: self.counts(),
                flat_ldst: self.rng.below(4),
                kids: Vec::new(),
            };
            let kids = if depth >= 4 || self.rng.chance(1, 2) {
                0
            } else {
                1 + self.rng.below(2)
            };
            for _ in 0..kids {
                let node = if self.rng.chance(2, 3) {
                    // Loop variables of the depths above, the parallel
                    // ones and the host one are all in scope.
                    let in_scope = 4 + depth;
                    CostNode::Loop {
                        var: self.vars[4 + depth],
                        lo: self.bound(in_scope),
                        hi: self.bound(in_scope),
                        step: self.rng.range(1, 4),
                        overhead: self.counts(),
                        body: self.tree(depth + 1),
                    }
                } else {
                    self.branches += 1;
                    CostNode::Branch {
                        then: self.tree(depth + 1),
                        els: self.tree(depth + 1),
                    }
                };
                t.kids.push(node);
            }
            t
        }
    }

    /// Random cost trees against the recursive, map-based oracle, bit
    /// for bit: loop-free bodies at every depth and inside branch arms,
    /// empty and one- or two-point ranges, bounds that read memory or
    /// builtins, non-finite parameters, and 0 to 3 sampled loops (up to
    /// 27 candidate points, cut to nine).
    #[test]
    fn random_plans_match_the_reference() {
        let mut b = ProgramBuilder::new("random");
        let params = [b.iparam("n"), b.iparam("f")];
        let mem = b.array("x", Scalar::F32, 16i64, Intent::In);
        let vars: Vec<VarId> = ["h", "i", "j", "k", "m0", "m1", "m2", "m3", "m4"]
            .iter()
            .map(|v| b.var(v))
            .collect();
        let p = b.finish(Vec::new());
        let values = [
            V::I(0),
            V::I(1),
            V::I(2),
            V::I(7),
            V::I(64),
            V::F(2.5),
            V::F(f64::INFINITY),
            V::F(f64::NEG_INFINITY),
            V::F(f64::NAN),
        ];
        // Cases that folded a loop, kept one open, and hit the cap.
        let (mut folded, mut open, mut capped) = (0, 0, 0);
        for case in 0..3000 {
            let mut g = Gen {
                rng: paccport_trace::rng::Rng::for_index(0x5eed, case),
                vars: vars.clone(),
                params,
                mem,
                branches: 0,
            };
            // Parallel loop `d` may read the host variable and the
            // parallel variables outside it.
            let loops: Vec<ParallelLoop> = (0..3)
                .map(|d| ParallelLoop::new(vars[1 + d], g.bound(1 + d), g.bound(1 + d)))
                .collect();
            let kernel = Kernel::simple("k", loops, paccport_ir::Block::new(Vec::new()));
            let cost = g.tree(0);
            let mut hints = CostHints::default();
            if g.rng.chance(1, 2) {
                hints = hints.with_trips("k", *g.rng.pick(&[0.0, 1.0, 5.0, 8.5]));
            }
            for idx in 0..g.branches {
                if g.rng.chance(1, 2) {
                    hints = hints.with_branch("k", idx, g.rng.unit());
                }
            }
            let plan = KernelPlan {
                kernel: "k".into(),
                exec: paccport_compilers::ExecStrategy::DeviceParallel,
                dist: paccport_compilers::DistSpec::Sequential,
                prologue: Default::default(),
                cost,
                correctness: paccport_compilers::Correctness::Correct,
                config_label: String::new(),
                perf_penalty: 1.0,
            };
            let run_params = [*g.rng.pick(&values), *g.rng.pick(&values)];
            let mut host = BTreeMap::new();
            if g.rng.chance(2, 3) {
                host.insert(vars[0], g.rng.range(-1, 9) as f64);
            }
            let rank = g.rng.below(4) as usize;
            let n = assert_matches_reference(&p, &kernel, &plan, rank, &run_params, &host, &hints);
            assert!(n <= MAX_SAMPLES, "case {case}: {n} points");
            capped += (n == MAX_SAMPLES) as usize;
            let ops = CostPlan::new(&kernel, &plan, rank, &run_params, &hints)
                .tree
                .ops;
            folded += ops.iter().any(|op| matches!(op, Op::Repeat { .. })) as usize;
            open += ops.iter().any(|op| matches!(op, Op::Enter { .. })) as usize;
        }
        assert!(
            folded > 500 && open > 500 && capped > 50,
            "{folded} {open} {capped}"
        );
    }
}
