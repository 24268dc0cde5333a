//! Tree-walking functional interpreter for the directive IR.
//!
//! Functional runs execute kernels on the bytecode VM
//! ([`crate::bytecode`]). This tree-walker is the semantic reference
//! the VM must match bitwise: only the conformance driver's
//! `tier/bytecode` leg and tests run it. It also holds the arithmetic
//! helpers both interpreters share.
//!
//! This is what makes the reproduction *checkable*: every benchmark
//! variant — baseline, gridified, unrolled, tiled, reduction-lowered —
//! is executed for real on the simulated device memory and compared
//! element-wise against a native Rust reference implementation. The
//! timing model (see [`crate::timing`]) never has to be trusted about
//! semantics.
//!
//! Execution is sequential and deterministic. Parallel *scheduling*
//! never changes results for the kernels in this study (data-parallel
//! loops, tree reductions with fixed shape), with one deliberate
//! exception: the CAPS-reduction-on-MIC miscompilation, reproduced by
//! dropping the tree-combine phases (a lost-update race), which is
//! exactly the class of bug the paper reports.

use crate::memory::{Buffer, MemLoc};
use crate::race::RaceTracker;
use paccport_ir::expr::{BinOp, CmpOp, Expr, SpecialVar, UnOp};
use paccport_ir::kernel::{Kernel, KernelBody};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{MemSpace, Scalar};
use paccport_ir::Program;

/// A runtime scalar value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum V {
    I(i64),
    F(f64),
    B(bool),
}

impl V {
    pub fn as_f(self) -> f64 {
        match self {
            V::I(v) => v as f64,
            V::F(v) => v,
            V::B(v) => v as i64 as f64,
        }
    }

    pub fn as_i(self) -> i64 {
        match self {
            V::I(v) => v,
            V::F(v) => v as i64,
            V::B(v) => v as i64,
        }
    }

    pub fn as_b(self) -> bool {
        match self {
            V::I(v) => v != 0,
            V::F(v) => v != 0.0,
            V::B(v) => v,
        }
    }

    pub(crate) fn is_float(self) -> bool {
        matches!(self, V::F(_))
    }
}

/// Values of the work-group builtins for one simulated thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCtx {
    pub local_id: i64,
    pub group_id: i64,
    pub local_size: i64,
    pub num_groups: i64,
}

/// Everything an expression evaluation can touch.
pub struct Scope<'a> {
    /// Scalar variables, indexed by `VarId`. A flat slice — one
    /// bounds-checked index per access, no `Vec` header indirection.
    pub vars: &'a mut [Option<V>],
    /// Global (device or host, depending on caller) arrays.
    pub bufs: &'a mut [Buffer],
    /// Work-group local arrays (grouped kernels only).
    pub locals: Option<&'a mut Vec<Buffer>>,
    pub group: GroupCtx,
    /// Shadow access log for dynamic race detection (`None` = off).
    pub tracker: Option<&'a RaceTracker<'a>>,
}

impl<'a> Scope<'a> {
    /// The location a `(space, array)` access resolves to for the race
    /// detector: local arrays are per-group instances.
    fn mem_loc(&self, space: MemSpace, array: u32, index: i64) -> MemLoc {
        match space {
            MemSpace::Global => MemLoc::global(array, index),
            MemSpace::Local => MemLoc::local(array, self.group.group_id, index),
        }
    }
}

impl Scope<'_> {
    fn get_var(&self, id: paccport_ir::VarId) -> V {
        self.vars[id.0 as usize].unwrap_or_else(|| panic!("read of undefined variable v{}", id.0))
    }

    fn set_var(&mut self, id: paccport_ir::VarId, v: V) {
        let slot = &mut self.vars[id.0 as usize];
        *slot = Some(v);
    }
}

/// Evaluate an expression. (`p` is threaded for future array-typed
/// features and API symmetry with [`exec_block`].)
#[allow(clippy::only_used_in_recursion)]
pub fn eval(p: &Program, params: &[V], e: &Expr, s: &Scope<'_>) -> V {
    match e {
        Expr::FConst(v) => V::F(*v),
        Expr::IConst(v) => V::I(*v),
        Expr::BConst(v) => V::B(*v),
        Expr::Param(id) => params[id.0 as usize],
        Expr::Var(id) => s.get_var(*id),
        Expr::Special(sv) => V::I(match sv {
            SpecialVar::LocalId(_) => s.group.local_id,
            SpecialVar::GroupId(_) => s.group.group_id,
            SpecialVar::LocalSize(_) => s.group.local_size,
            SpecialVar::NumGroups(_) => s.group.num_groups,
        }),
        Expr::Load {
            space,
            array,
            index,
        } => {
            let i = eval(p, params, index, s).as_i();
            if let Some(t) = s.tracker {
                t.log_read(s.mem_loc(*space, array.0, i));
            }
            let buf = match space {
                MemSpace::Global => &s.bufs[array.0 as usize],
                MemSpace::Local => {
                    &s.locals.as_ref().expect("local access outside group")[array.0 as usize]
                }
            };
            assert!(
                (i as usize) < buf.len(),
                "index {i} out of bounds for array of length {} ({:?})",
                buf.len(),
                space
            );
            match buf.elem() {
                Scalar::F32 | Scalar::F64 => V::F(buf.get(i as usize)),
                Scalar::Bool => V::B(buf.get(i as usize) != 0.0),
                _ => V::I(buf.get(i as usize) as i64),
            }
        }
        Expr::Un(op, a) => {
            let va = eval(p, params, a, s);
            match op {
                UnOp::Neg => match va {
                    V::I(v) => V::I(-v),
                    other => V::F(-other.as_f()),
                },
                UnOp::Abs => match va {
                    V::I(v) => V::I(v.abs()),
                    other => V::F(other.as_f().abs()),
                },
                UnOp::Rcp => V::F(1.0 / va.as_f()),
                UnOp::Sqrt => V::F(va.as_f().sqrt()),
                UnOp::Not => V::B(!va.as_b()),
                UnOp::Exp => V::F(va.as_f().exp()),
            }
        }
        Expr::Bin(op, a, b) => {
            let va = eval(p, params, a, s);
            let vb = eval(p, params, b, s);
            bin(*op, va, vb)
        }
        Expr::Cmp(op, a, b) => {
            let va = eval(p, params, a, s);
            let vb = eval(p, params, b, s);
            V::B(cmp(*op, va, vb))
        }
        Expr::Fma(a, b, c) => {
            let va = eval(p, params, a, s).as_f();
            let vb = eval(p, params, b, s).as_f();
            let vc = eval(p, params, c, s).as_f();
            // f32 semantics, like the devices' fma.f32.
            V::F(((va as f32).mul_add(vb as f32, vc as f32)) as f64)
        }
        Expr::Select(c, a, b) => {
            if eval(p, params, c, s).as_b() {
                eval(p, params, a, s)
            } else {
                eval(p, params, b, s)
            }
        }
        Expr::Cast(ty, a) => {
            let v = eval(p, params, a, s);
            match ty {
                Scalar::F32 => V::F(v.as_f() as f32 as f64),
                Scalar::F64 => V::F(v.as_f()),
                Scalar::I32 => V::I(v.as_i() as i32 as i64),
                Scalar::U32 => V::I(v.as_i() as u32 as i64),
                Scalar::Bool => V::B(v.as_b()),
            }
        }
    }
}

/// Shared by the tree-walker and the bytecode VM (`crate::bytecode`):
/// both tiers funnel every binary operation through this one function,
/// so their f32-narrowed arithmetic is bit-identical by construction.
pub(crate) fn bin(op: BinOp, a: V, b: V) -> V {
    use BinOp::*;
    let float = a.is_float() || b.is_float();
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if float {
                // f32 arithmetic, matching the devices.
                let x = a.as_f() as f32;
                let y = b.as_f() as f32;
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Rem => x % y,
                    Min => x.min(y),
                    Max => x.max(y),
                    _ => unreachable!(),
                };
                V::F(r as f64)
            } else {
                let x = a.as_i();
                let y = b.as_i();
                let r = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        assert!(y != 0, "integer division by zero");
                        x / y
                    }
                    Rem => {
                        assert!(y != 0, "integer remainder by zero");
                        x % y
                    }
                    Min => x.min(y),
                    Max => x.max(y),
                    _ => unreachable!(),
                };
                V::I(r)
            }
        }
        And => V::B(a.as_b() && b.as_b()),
        Or => V::B(a.as_b() || b.as_b()),
        Shl => V::I(a.as_i() << b.as_i()),
        Shr => V::I(a.as_i() >> b.as_i()),
    }
}

pub(crate) fn cmp(op: CmpOp, a: V, b: V) -> bool {
    let float = a.is_float() || b.is_float();
    if float {
        let x = a.as_f();
        let y = b.as_f();
        match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    } else {
        let x = a.as_i();
        let y = b.as_i();
        match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    }
}

/// Execute a statement block.
pub fn exec_block(p: &Program, params: &[V], b: &Block, s: &mut Scope<'_>) {
    for stmt in &b.0 {
        exec_stmt(p, params, stmt, s);
    }
}

fn exec_stmt(p: &Program, params: &[V], stmt: &Stmt, s: &mut Scope<'_>) {
    // One watchdog step per interpreted statement: a runaway loop
    // exhausts the armed budget and unwinds as a typed timeout
    // (caught in `runner::run`) instead of hanging the worker.
    paccport_faults::charge(1);
    match stmt {
        Stmt::Let { var, ty, init } => {
            let v = eval(p, params, init, s);
            let v = coerce(v, *ty);
            s.set_var(*var, v);
        }
        Stmt::Assign { var, value } => {
            let v = eval(p, params, value, s);
            s.set_var(*var, v);
        }
        Stmt::Store {
            space,
            array,
            index,
            value,
        } => {
            let i = eval(p, params, index, s).as_i();
            let v = eval(p, params, value, s).as_f();
            if let Some(t) = s.tracker {
                t.log_write(s.mem_loc(*space, array.0, i), false);
            }
            let buf = match space {
                MemSpace::Global => &mut s.bufs[array.0 as usize],
                MemSpace::Local => {
                    &mut s.locals.as_mut().expect("local store outside group")[array.0 as usize]
                }
            };
            assert!(
                (i as usize) < buf.len(),
                "store index {i} out of bounds for array of length {}",
                buf.len()
            );
            buf.set(i as usize, v);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            if eval(p, params, cond, s).as_b() {
                exec_block(p, params, then_blk, s);
            } else {
                exec_block(p, params, else_blk, s);
            }
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let lo = eval(p, params, lo, s).as_i();
            let hi = eval(p, params, hi, s).as_i();
            let mut i = lo;
            while i < hi {
                s.set_var(*var, V::I(i));
                exec_block(p, params, body, s);
                i += step;
            }
        }
        Stmt::Barrier => {
            // Barriers are implicit between grouped phases; a Barrier
            // statement inside a phase is a no-op under sequential
            // per-thread execution in phase order.
        }
        Stmt::Atomic {
            op,
            array,
            index,
            value,
        } => {
            // Sequential interpretation makes the read-modify-write
            // trivially atomic.
            let i = eval(p, params, index, s).as_i() as usize;
            let v = eval(p, params, value, s).as_f();
            if let Some(t) = s.tracker {
                t.log_write(s.mem_loc(MemSpace::Global, array.0, i as i64), true);
            }
            let buf = &mut s.bufs[array.0 as usize];
            let old = buf.get(i);
            buf.set(i, op.combine(old, v));
        }
    }
}

pub(crate) fn coerce(v: V, ty: Scalar) -> V {
    match ty {
        Scalar::F32 => V::F(v.as_f() as f32 as f64),
        Scalar::F64 => V::F(v.as_f()),
        Scalar::I32 | Scalar::U32 => V::I(v.as_i()),
        Scalar::Bool => V::B(v.as_b()),
    }
}

/// How faithfully to execute a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelFidelity {
    /// Execute exactly as written.
    Exact,
    /// Reproduce the CAPS-reduction-on-MIC bug: grouped kernels skip
    /// the tree-combine phases, losing every lane's partial except
    /// lane 0's.
    DropTreePhases,
}

/// Execute one kernel over its full iteration space against `bufs`.
///
/// `vars` is the reusable scalar environment (length =
/// `program.var_names.len()`); host-loop variables already bound in it
/// are visible to the kernel (triangular bounds).
pub fn exec_kernel(
    p: &Program,
    params: &[V],
    k: &Kernel,
    vars: &mut [Option<V>],
    bufs: &mut [Buffer],
    fidelity: KernelFidelity,
) {
    exec_kernel_traced(p, params, k, vars, bufs, fidelity, None)
}

/// [`exec_kernel`] with an optional shadow access log: every global
/// and local memory access inside the parallel region is recorded
/// against the logical thread performing it (iteration vector or
/// group/lane), so the tracker can flag cross-thread conflicts.
pub fn exec_kernel_traced(
    p: &Program,
    params: &[V],
    k: &Kernel,
    vars: &mut [Option<V>],
    bufs: &mut [Buffer],
    fidelity: KernelFidelity,
    tracker: Option<&RaceTracker>,
) {
    match &k.body {
        KernelBody::Simple(_) => {
            let mut acc = k.region_reduction.as_ref().map(|rr| rr.op.identity());
            let mut iter = Vec::with_capacity(k.loops.len());
            exec_nest(p, params, k, 0, vars, bufs, &mut acc, tracker, &mut iter);
            if let Some(t) = tracker {
                // The combined reduction store is a synchronization
                // point, not a per-iteration access.
                t.clear_thread();
            }
            if let (Some(rr), Some(total)) = (&k.region_reduction, acc) {
                bufs[rr.dest.0 as usize].set(0, total);
            }
        }
        KernelBody::Grouped(g) => {
            // Grouped kernels have one parallel loop; each group of
            // `group_size` threads cooperates on one iteration of it.
            assert_eq!(k.loops.len(), 1, "grouped kernels are rank-1");
            let lp = &k.loops[0];
            let scope_ro = Scope {
                vars: &mut *vars,
                bufs,
                locals: None,
                group: GroupCtx::default(),
                tracker: None,
            };
            let lo = eval(p, params, &lp.lo, &scope_ro).as_i();
            let hi = eval(p, params, &lp.hi, &scope_ro).as_i();
            let n_groups = (hi - lo).max(0);
            let gsz = g.group_size as i64;
            // One lane-state arena per launch: lane `t` owns
            // `thread_vars[t * n..][..n]` across a group's phases, and
            // every group starts from the launch-time environment and
            // zeroed locals.
            let n = vars.len();
            let mut thread_vars = vars.repeat(g.group_size as usize);
            let mut locals: Vec<Buffer> = g
                .locals
                .iter()
                .map(|l| Buffer::zeroed(l.elem, l.len))
                .collect();
            for grp in 0..n_groups {
                if grp > 0 {
                    for lane in thread_vars.chunks_exact_mut(n) {
                        lane.copy_from_slice(vars);
                    }
                    locals.iter_mut().for_each(Buffer::zero);
                }
                for (pi, phase) in g.phases.iter().enumerate() {
                    let skip = fidelity == KernelFidelity::DropTreePhases
                        && pi > 0
                        && pi + 1 < g.phases.len();
                    if skip {
                        continue;
                    }
                    if let Some(tr) = tracker {
                        // Phases are separated by implicit barriers;
                        // the phase index is the tracker's epoch.
                        tr.set_epoch(pi as u32);
                    }
                    for (t, tv) in (0..gsz).zip(thread_vars.chunks_exact_mut(n)) {
                        tv[lp.var.0 as usize] = Some(V::I(lo + grp));
                        if let Some(tr) = tracker {
                            tr.set_lane(grp, t);
                        }
                        let mut s = Scope {
                            vars: tv,
                            bufs,
                            locals: Some(&mut locals),
                            group: GroupCtx {
                                local_id: t,
                                group_id: grp,
                                local_size: gsz,
                                num_groups: n_groups,
                            },
                            tracker,
                        };
                        exec_block(p, params, phase, &mut s);
                    }
                }
            }
            if let Some(tr) = tracker {
                tr.clear_thread();
            }
        }
    }
}

/// Recursively iterate the parallel loop nest of a simple kernel.
#[allow(clippy::too_many_arguments)]
fn exec_nest(
    p: &Program,
    params: &[V],
    k: &Kernel,
    depth: usize,
    vars: &mut [Option<V>],
    bufs: &mut [Buffer],
    acc: &mut Option<f64>,
    tracker: Option<&RaceTracker>,
    iter: &mut Vec<i64>,
) {
    if depth == k.loops.len() {
        if let Some(t) = tracker {
            t.set_iteration(iter);
        }
        let body = k.simple_body().expect("simple kernel");
        let mut s = Scope {
            vars: &mut *vars,
            bufs,
            locals: None,
            group: GroupCtx::default(),
            tracker,
        };
        exec_block(p, params, body, &mut s);
        if let (Some(rr), Some(total)) = (&k.region_reduction, acc.as_mut()) {
            let v = eval(p, params, &rr.value, &s).as_f();
            *total = rr.op.combine(*total, v);
        }
        return;
    }
    let lp = &k.loops[depth];
    let (lo, hi) = {
        let s = Scope {
            vars: &mut *vars,
            bufs,
            locals: None,
            group: GroupCtx::default(),
            // Loop bounds are evaluated once, before the parallel
            // region: not per-iteration accesses.
            tracker: None,
        };
        (
            eval(p, params, &lp.lo, &s).as_i(),
            eval(p, params, &lp.hi, &s).as_i(),
        )
    };
    for i in lo..hi {
        vars[lp.var.0 as usize] = Some(V::I(i));
        iter.push(i);
        exec_nest(p, params, k, depth + 1, vars, bufs, acc, tracker, iter);
        iter.pop();
    }
}

/// Fresh, empty variable environment for a program.
pub fn fresh_vars(p: &Program) -> Vec<Option<V>> {
    vec![None; p.var_names.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{
        assign, for_, ld, let_, st, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, E,
    };

    fn run_simple(k: &Kernel, p: &Program, bufs: &mut [Buffer]) {
        let mut vars = fresh_vars(p);
        exec_kernel(p, &[V::I(8)], k, &mut vars, bufs, KernelFidelity::Exact);
    }

    #[test]
    fn saxpy_computes() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "saxpy",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut bufs = vec![
            Buffer::F32((0..8).map(|v| v as f32).collect()),
            Buffer::F32(vec![1.0; 8]),
        ];
        run_simple(&k, &p, &mut bufs);
        let y = bufs[1].as_f32();
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
    }

    #[test]
    fn triangular_nest_respects_outer_var() {
        // for i in 0..n, for j in i..n: a[i*n+j] += 1 — only the upper
        // triangle is touched.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let i = b.var("i");
        let j = b.var("j");
        let k = Kernel::simple(
            "ut",
            vec![
                ParallelLoop::new(i, Expr::iconst(0), Expr::param(n)),
                ParallelLoop::new(j, Expr::var(i), Expr::param(n)),
            ],
            Block::new(vec![st(
                a,
                E::from(i) * n + j,
                ld(a, E::from(i) * n + j) + 1.0,
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut bufs = vec![Buffer::zeroed(Scalar::F32, 64)];
        run_simple(&k, &p, &mut bufs);
        let a = bufs[0].as_f32();
        for r in 0..8 {
            for c in 0..8 {
                let expect = if c >= r { 1.0 } else { 0.0 };
                assert_eq!(a[r * 8 + c], expect, "({r},{c})");
            }
        }
    }

    #[test]
    fn sequential_inner_loop_and_locals() {
        // sum of x[0..n] via an inner loop per element.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let i = b.var("i");
        let kv = b.var("k");
        let s = b.var("s");
        let k = Kernel::simple(
            "sum",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
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
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut bufs = vec![
            Buffer::F32((0..8).map(|v| v as f32).collect()),
            Buffer::zeroed(Scalar::F32, 8),
        ];
        run_simple(&k, &p, &mut bufs);
        assert_eq!(bufs[1].as_f32()[3], 28.0); // 0+1+…+7
    }

    #[test]
    fn region_reduction_max() {
        use paccport_ir::{ReduceOp, RegionReduction};
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, 1i64, Intent::Out);
        let i = b.var("i");
        let mut k = Kernel::simple(
            "maxred",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::default(),
        );
        k.region_reduction = Some(RegionReduction {
            op: ReduceOp::Max,
            value: ld(x, i).expr(),
            dest: out,
        });
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut bufs = vec![
            Buffer::F32(vec![3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 0.0, 5.0]),
            Buffer::zeroed(Scalar::F32, 1),
        ];
        run_simple(&k, &p, &mut bufs);
        assert_eq!(bufs[1].as_f32()[0], 9.0);
    }

    #[test]
    fn grouped_tree_reduction_is_exact_and_buggy_mode_is_not() {
        use paccport_compilers::transforms::{reduction_to_grouped, VarAlloc};
        // out[j] = sum_k x[k]
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let j = b.var("j");
        let kv = b.var("k");
        let s = b.var("s");
        let mut k = Kernel::simple(
            "fwd",
            vec![ParallelLoop::new(j, Expr::iconst(0), Expr::iconst(2))],
            Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(x, kv))],
                ),
                st(out, j, E::from(s)),
            ]),
        );
        let mut p = b.finish(vec![]);
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(reduction_to_grouped(&mut k, 8, &mut va));

        let params = vec![V::I(32)];
        let data: Vec<f32> = (0..32).map(|v| v as f32).collect();
        let expect: f32 = data.iter().sum();

        let mut bufs = vec![Buffer::F32(data.clone()), Buffer::zeroed(Scalar::F32, 32)];
        let mut vars = fresh_vars(&p);
        exec_kernel(&p, &params, &k, &mut vars, &mut bufs, KernelFidelity::Exact);
        assert_eq!(bufs[1].as_f32()[0], expect);
        assert_eq!(bufs[1].as_f32()[1], expect);

        // Buggy mode loses partials: result differs.
        let mut bufs2 = vec![Buffer::F32(data), Buffer::zeroed(Scalar::F32, 32)];
        let mut vars2 = fresh_vars(&p);
        exec_kernel(
            &p,
            &params,
            &k,
            &mut vars2,
            &mut bufs2,
            KernelFidelity::DropTreePhases,
        );
        assert_ne!(bufs2.last().unwrap().as_f32()[0], expect);
    }

    #[test]
    fn grouped_tree_reduction_is_race_free_under_tracker() {
        use paccport_compilers::transforms::{reduction_to_grouped, VarAlloc};
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::Out);
        let j = b.var("j");
        let kv = b.var("k");
        let s = b.var("s");
        let mut k = Kernel::simple(
            "fwd",
            vec![ParallelLoop::new(j, Expr::iconst(0), Expr::iconst(2))],
            Block::new(vec![
                let_(s, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(s, E::from(s) + ld(x, kv))],
                ),
                st(out, j, E::from(s)),
            ]),
        );
        let mut p = b.finish(vec![]);
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(reduction_to_grouped(&mut k, 8, &mut va));

        // Under exact execution the staged tree is barrier-ordered:
        // the cross-lane reads of `sdata` all land one phase after
        // the writes they consume, so the detector must stay silent.
        let tracker = crate::race::RaceTracker::new(
            "fwd",
            vec![("x", 32), ("out", 32)],
            vec![("sdata", 8)],
            false,
        );
        let mut bufs = vec![
            Buffer::F32((0..32).map(|v| v as f32).collect()),
            Buffer::zeroed(Scalar::F32, 32),
        ];
        let mut vars = fresh_vars(&p);
        exec_kernel_traced(
            &p,
            &[V::I(32)],
            &k,
            &mut vars,
            &mut bufs,
            KernelFidelity::Exact,
            Some(&tracker),
        );
        assert!(tracker.races().is_empty(), "{:?}", tracker.races());
        assert!(tracker.accesses() > 0);
    }

    #[test]
    fn f32_rounding_matches_device_semantics() {
        // 16777216 + 1 == 16777216 in f32.
        let v = bin(BinOp::Add, V::F(16777216.0), V::F(1.0));
        assert_eq!(v.as_f(), 16777216.0);
    }

    use paccport_ir::Block;
}
