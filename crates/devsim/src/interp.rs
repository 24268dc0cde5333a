//! Tree-walking functional interpreter for the directive IR.
//!
//! Functional runs execute kernels on the bytecode VM
//! ([`crate::bytecode`]). This tree-walker is the semantic reference
//! the VM must match bitwise: only the conformance driver's
//! `tier/bytecode` leg and tests run it.
//!
//! It also holds the one definition of every device operation, which
//! the tree-walker, the bytecode VM ([`crate::bytecode`]'s `vm`) and
//! its batch VM (`batch`) all call: [`Machine`] performs loads, stores
//! and atomics (tracker log, bounds check, panic) and reads the
//! work-group builtins; the element functions after [`eval`] compute
//! arithmetic, compares, unary ops, `fma`, casts and element decoding,
//! on a [`V`] or on one f64 lane.
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
use paccport_ir::kernel::{Kernel, KernelBody, ReduceOp};
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

impl GroupCtx {
    /// The value of work-group builtin `sv` (its dimension is ignored).
    #[inline(always)]
    pub(crate) fn get(self, sv: SpecialVar) -> i64 {
        match sv {
            SpecialVar::LocalId(_) => self.local_id,
            SpecialVar::GroupId(_) => self.group_id,
            SpecialVar::LocalSize(_) => self.local_size,
            SpecialVar::NumGroups(_) => self.num_groups,
        }
    }
}

/// The memory and work-group builtins one simulated thread sees, in
/// the tree-walker ([`Scope`]) and the bytecode VM alike. Each memory
/// effect logs to the race tracker, checks bounds and panics in one
/// fixed order, so every tier fails at the same access with the same
/// message.
pub struct Machine<'a> {
    /// Global (device or host, depending on caller) arrays.
    pub bufs: &'a mut [Buffer],
    /// Work-group local arrays (grouped kernels only).
    pub locals: Option<&'a mut Vec<Buffer>>,
    pub group: GroupCtx,
    /// Shadow access log for dynamic race detection (`None` = off).
    pub tracker: Option<&'a RaceTracker<'a>>,
}

impl<'a> Machine<'a> {
    /// Global arrays only: no work-group, no local arrays.
    pub fn global(bufs: &'a mut [Buffer], tracker: Option<&'a RaceTracker<'a>>) -> Machine<'a> {
        Machine {
            bufs,
            locals: None,
            group: GroupCtx::default(),
            tracker,
        }
    }

    /// The location a `(space, array)` access resolves to for the race
    /// detector: local arrays are per-group instances.
    fn mem_loc(&self, space: MemSpace, array: u32, index: i64) -> MemLoc {
        match space {
            MemSpace::Global => MemLoc::global(array, index),
            MemSpace::Local => MemLoc::local(array, self.group.group_id, index),
        }
    }

    /// Read element `i` of an array.
    #[inline(always)]
    pub(crate) fn load(&self, space: MemSpace, array: u32, i: i64) -> V {
        if let Some(t) = self.tracker {
            t.log_read(self.mem_loc(space, array, i));
        }
        let buf = match space {
            MemSpace::Global => &self.bufs[array as usize],
            MemSpace::Local => {
                &self.locals.as_ref().expect("local access outside group")[array as usize]
            }
        };
        assert!(
            (i as usize) < buf.len(),
            "index {i} out of bounds for array of length {} ({:?})",
            buf.len(),
            space
        );
        decode(buf, i as usize)
    }

    /// Write `v` to element `i` of an array, narrowed to its type.
    #[inline(always)]
    pub(crate) fn store(&mut self, space: MemSpace, array: u32, i: i64, v: f64) {
        if let Some(t) = self.tracker {
            t.log_write(self.mem_loc(space, array, i), false);
        }
        let buf = match space {
            MemSpace::Global => &mut self.bufs[array as usize],
            MemSpace::Local => {
                &mut self.locals.as_mut().expect("local store outside group")[array as usize]
            }
        };
        assert!(
            (i as usize) < buf.len(),
            "store index {i} out of bounds for array of length {}",
            buf.len()
        );
        buf.set(i as usize, v);
    }

    /// Combine `v` into element `i` of a global array. Sequential
    /// interpretation makes the read-modify-write trivially atomic.
    #[inline(always)]
    pub(crate) fn atomic(&mut self, op: ReduceOp, array: u32, i: i64, v: f64) {
        let i = i as usize;
        if let Some(t) = self.tracker {
            t.log_write(self.mem_loc(MemSpace::Global, array, i as i64), true);
        }
        let buf = &mut self.bufs[array as usize];
        let old = buf.get(i);
        buf.set(i, op.combine(old, v));
    }
}

/// Everything an expression evaluation can touch.
pub struct Scope<'a> {
    /// Scalar variables, indexed by `VarId`. A flat slice — one
    /// bounds-checked index per access, no `Vec` header indirection.
    pub vars: &'a mut [Option<V>],
    pub m: Machine<'a>,
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
        Expr::Special(sv) => V::I(s.m.group.get(*sv)),
        Expr::Load {
            space,
            array,
            index,
        } => {
            let i = eval(p, params, index, s).as_i();
            s.m.load(*space, array.0, i)
        }
        Expr::Un(op, a) => un(*op, eval(p, params, a, s)),
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
            V::F(fma(va, vb, vc))
        }
        Expr::Select(c, a, b) => {
            if eval(p, params, c, s).as_b() {
                eval(p, params, a, s)
            } else {
                eval(p, params, b, s)
            }
        }
        Expr::Cast(ty, a) => cast(*ty, eval(p, params, a, s)),
    }
}

// ---------------------------------------------------------------
// Element semantics. The one definition of every device operation:
// the tree-walker, the bytecode VM and the batch VM's scalar and lane
// ops all call these, so their results are bit-identical by
// construction. Each is `#[inline(always)]`, so a lane loop calling
// one with a constant operator compiles to a tight loop.
// ---------------------------------------------------------------

/// f32 arithmetic, like the devices' `.f32` ops: both operands narrow
/// to f32, the result widens back. `op` is arithmetic.
#[inline(always)]
pub(crate) fn f32_arith(op: BinOp, x: f64, y: f64) -> f64 {
    let (x, y) = (x as f32, y as f32);
    (match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => x / y,
        BinOp::Rem => x % y,
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        _ => unreachable!("f32_arith is arithmetic-only"),
    }) as f64
}

/// Integer arithmetic; `op` is arithmetic. Division and remainder by
/// zero panic.
#[inline(always)]
pub(crate) fn int_arith(op: BinOp, x: i64, y: i64) -> i64 {
    match op {
        BinOp::Add => x + y,
        BinOp::Sub => x - y,
        BinOp::Mul => x * y,
        BinOp::Div => {
            assert!(y != 0, "integer division by zero");
            x / y
        }
        BinOp::Rem => {
            assert!(y != 0, "integer remainder by zero");
            x % y
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        _ => unreachable!("int_arith is arithmetic-only"),
    }
}

/// A float (full f64) or integer comparison.
#[inline(always)]
pub(crate) fn compare<T: PartialOrd>(op: CmpOp, x: T, y: T) -> bool {
    match op {
        CmpOp::Eq => x == y,
        CmpOp::Ne => x != y,
        CmpOp::Lt => x < y,
        CmpOp::Le => x <= y,
        CmpOp::Gt => x > y,
        CmpOp::Ge => x >= y,
    }
}

/// A unary op: `Neg` and `Abs` keep an integer an integer, `Not` gives
/// a bool, and everything else takes the float path ([`un_f`]).
#[inline(always)]
pub(crate) fn un(op: UnOp, v: V) -> V {
    match (op, v) {
        (UnOp::Neg, V::I(x)) => V::I(-x),
        (UnOp::Abs, V::I(x)) => V::I(x.abs()),
        (UnOp::Not, v) => V::B(!v.as_b()),
        (op, v) => V::F(un_f(op, v.as_f())),
    }
}

/// The float path of [`un`], one f64 lane.
#[inline(always)]
pub(crate) fn un_f(op: UnOp, x: f64) -> f64 {
    match op {
        UnOp::Neg => -x,
        UnOp::Abs => x.abs(),
        UnOp::Rcp => 1.0 / x,
        UnOp::Sqrt => x.sqrt(),
        UnOp::Exp => x.exp(),
        UnOp::Not => unreachable!("Not is a bool op"),
    }
}

/// Fused multiply-add with f32 semantics, like the devices' `fma.f32`.
#[inline(always)]
pub(crate) fn fma(a: f64, b: f64, c: f64) -> f64 {
    ((a as f32).mul_add(b as f32, c as f32)) as f64
}

/// `Cast`: integer casts wrap through 32 bits (unlike [`coerce`]).
#[inline(always)]
pub(crate) fn cast(ty: Scalar, v: V) -> V {
    match ty {
        Scalar::F32 => V::F(v.as_f() as f32 as f64),
        Scalar::F64 => V::F(v.as_f()),
        Scalar::I32 => V::I(v.as_i() as i32 as i64),
        Scalar::U32 => V::I(v.as_i() as u32 as i64),
        Scalar::Bool => V::B(v.as_b()),
    }
}

/// Element `i` of `buf` as a value of its element type.
#[inline(always)]
pub(crate) fn decode(buf: &Buffer, i: usize) -> V {
    match buf.elem() {
        Scalar::F32 | Scalar::F64 => V::F(buf.get(i)),
        Scalar::Bool => V::B(buf.get(i) != 0.0),
        _ => V::I(buf.get(i) as i64),
    }
}

/// A binary op, dispatched on the operands' runtime tags: arithmetic
/// takes the f32 path if either is a float, the integer path if not.
pub(crate) fn bin(op: BinOp, a: V, b: V) -> V {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if a.is_float() || b.is_float() {
                V::F(f32_arith(op, a.as_f(), b.as_f()))
            } else {
                V::I(int_arith(op, a.as_i(), b.as_i()))
            }
        }
        And => V::B(a.as_b() && b.as_b()),
        Or => V::B(a.as_b() || b.as_b()),
        Shl => V::I(a.as_i() << b.as_i()),
        Shr => V::I(a.as_i() >> b.as_i()),
    }
}

/// A comparison: full f64 if either operand is a float, integer if not.
pub(crate) fn cmp(op: CmpOp, a: V, b: V) -> bool {
    if a.is_float() || b.is_float() {
        compare(op, a.as_f(), b.as_f())
    } else {
        compare(op, a.as_i(), b.as_i())
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
            s.m.store(*space, array.0, i, v);
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
            let i = eval(p, params, index, s).as_i();
            let v = eval(p, params, value, s).as_f();
            s.m.atomic(*op, array.0, i, v);
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
///
/// With a `tracker`, every global and local memory access inside the
/// parallel region is recorded against the logical thread performing
/// it (iteration vector or group/lane), so the tracker can flag
/// cross-thread conflicts.
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
                m: Machine::global(bufs, None),
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
                            m: Machine {
                                bufs,
                                locals: Some(&mut locals),
                                group: GroupCtx {
                                    local_id: t,
                                    group_id: grp,
                                    local_size: gsz,
                                    num_groups: n_groups,
                                },
                                tracker,
                            },
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
            m: Machine::global(bufs, tracker),
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
        // Loop bounds are evaluated once, before the parallel region:
        // not per-iteration accesses.
        let s = Scope {
            vars: &mut *vars,
            m: Machine::global(bufs, None),
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
        exec_kernel_traced(
            p,
            &[V::I(8)],
            k,
            &mut vars,
            bufs,
            KernelFidelity::Exact,
            None,
        );
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
        exec_kernel_traced(
            &p,
            &params,
            &k,
            &mut vars,
            &mut bufs,
            KernelFidelity::Exact,
            None,
        );
        assert_eq!(bufs[1].as_f32()[0], expect);
        assert_eq!(bufs[1].as_f32()[1], expect);

        // Buggy mode loses partials: result differs.
        let mut bufs2 = vec![Buffer::F32(data), Buffer::zeroed(Scalar::F32, 32)];
        let mut vars2 = fresh_vars(&p);
        exec_kernel_traced(
            &p,
            &params,
            &k,
            &mut vars2,
            &mut bufs2,
            KernelFidelity::DropTreePhases,
            None,
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

    /// Known answers for the element functions every interpreter
    /// calls. Tests that compare one tier with another cannot see a
    /// change made here; this table can.
    #[test]
    fn element_functions_give_known_answers() {
        use BinOp::*;
        use CmpOp::*;
        use UnOp::*;
        let (f, i, b) = (V::F, V::I, V::B);
        // A quiet NaN with its sign bit set, and the same NaN positive.
        let neg_nan = f64::from_bits(0xfff8_0000_0000_0000);
        let pos_nan = f64::from_bits(0x7ff8_0000_0000_0000);
        let inf = f64::INFINITY;
        let tenth = 0.1f32 as f64;
        // 1 + 2^-12 squared is 1 + 2^-11 + 2^-24: the multiply rounds
        // the 2^-24 away, the fused multiply-add keeps it.
        let a = 1.0 + 2f64.powi(-12);
        let c = -(1.0 + 2f64.powi(-11));
        let two32 = 1i64 << 32;
        let rows: [(&str, V, V); 40] = [
            ("-0.0 + -0.0", bin(Add, f(-0.0), f(-0.0)), f(-0.0)),
            ("-0.0 + 0.0", bin(Add, f(-0.0), f(0.0)), f(0.0)),
            (
                "0.1 + 0.2 in f32",
                bin(Add, f(0.1), f(0.2)),
                f(0.30000001192092896),
            ),
            ("0.1 narrows", bin(Mul, f(0.1), i(1)), f(tenth)),
            ("0.1 narrowed is", f(tenth), f(0.10000000149011612)),
            ("1e39 overflows f32", bin(Add, f(1e39), f(0.0)), f(inf)),
            ("inf - 1", bin(Sub, f(inf), f(1.0)), f(inf)),
            ("1 / -0.0", bin(Div, f(1.0), f(-0.0)), f(-inf)),
            ("min skips NaN", bin(Min, f(neg_nan), f(1.0)), f(1.0)),
            ("max skips NaN", bin(Max, f(2.0), f(neg_nan)), f(2.0)),
            ("int + float is float", bin(Add, i(1), f(0.5)), f(1.5)),
            ("-7 / 2", bin(Div, i(-7), i(2)), i(-3)),
            ("-7 % 2", bin(Rem, i(-7), i(2)), i(-1)),
            ("int min", bin(Min, i(-3), b(true)), i(-3)),
            ("-0.0 == 0.0", b(cmp(Eq, f(-0.0), f(0.0))), b(true)),
            ("-0.0 < 0.0", b(cmp(Lt, f(-0.0), f(0.0))), b(false)),
            ("NaN != NaN", b(cmp(Ne, f(neg_nan), f(neg_nan))), b(true)),
            ("NaN >= -inf", b(cmp(Ge, f(neg_nan), f(-inf))), b(false)),
            ("inf > f64::MAX", b(cmp(Gt, f(inf), f(f64::MAX))), b(true)),
            ("int compare", b(cmp(Le, i(-1), i(0))), b(true)),
            ("neg -0.0", un(Neg, f(-0.0)), f(0.0)),
            ("abs -0.0", un(Abs, f(-0.0)), f(0.0)),
            ("neg NaN flips its sign", un(Neg, f(neg_nan)), f(pos_nan)),
            ("abs NaN clears its sign", un(Abs, f(neg_nan)), f(pos_nan)),
            ("rcp +0", un(Rcp, f(0.0)), f(inf)),
            ("rcp -0", un(Rcp, f(-0.0)), f(-inf)),
            ("sqrt -0.0", un(Sqrt, f(-0.0)), f(-0.0)),
            ("exp -inf", un(Exp, f(-inf)), f(0.0)),
            ("neg int", un(Neg, i(5)), i(-5)),
            ("not -0.0", un(Not, f(-0.0)), b(true)),
            ("fma keeps the low bits", f(fma(a, a, c)), f(2f64.powi(-24))),
            (
                "mul then add drops them",
                bin(Add, bin(Mul, f(a), f(a)), f(c)),
                f(0.0),
            ),
            ("i32 of -1", cast(Scalar::I32, i(-1)), i(-1)),
            ("u32 of -1", cast(Scalar::U32, i(-1)), i(u32::MAX as i64)),
            ("i32 of 2^32 + 5", cast(Scalar::I32, i(two32 + 5)), i(5)),
            ("u32 of 2^32 + 5", cast(Scalar::U32, i(two32 + 5)), i(5)),
            (
                "i32 of 2^31",
                cast(Scalar::I32, i(two32 / 2)),
                i(i32::MIN as i64),
            ),
            (
                "u32 of -3.7",
                cast(Scalar::U32, f(-3.7)),
                i(u32::MAX as i64 - 2),
            ),
            ("f32 of 0.1", cast(Scalar::F32, f(0.1)), f(tenth)),
            (
                "f64 keeps a NaN's sign",
                cast(Scalar::F64, f(neg_nan)),
                f(neg_nan),
            ),
        ];
        let bits = |v: V| match v {
            V::F(x) => (0, x.to_bits()),
            V::I(x) => (1, x as u64),
            V::B(x) => (2, x as u64),
        };
        for (name, got, want) in rows {
            assert_eq!(bits(got), bits(want), "{name}: {got:?} vs {want:?}");
        }
        let decoded = [
            (Buffer::F64(vec![neg_nan]), f(neg_nan)),
            (Buffer::F32(vec![-0.0]), f(-0.0)),
            (Buffer::I32(vec![-5]), i(-5)),
            (Buffer::U32(vec![u32::MAX]), i(u32::MAX as i64)),
            (Buffer::Bool(vec![1]), b(true)),
        ];
        for (buf, want) in decoded {
            assert_eq!(bits(decode(&buf, 0)), bits(want), "{buf:?}");
        }
    }

    #[test]
    fn f32_rounding_matches_device_semantics() {
        // 16777216 + 1 == 16777216 in f32.
        let v = bin(BinOp::Add, V::F(16777216.0), V::F(1.0));
        assert_eq!(v.as_f(), 16777216.0);
    }

    use paccport_ir::Block;
}
