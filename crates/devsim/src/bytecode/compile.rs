//! Lowering `Program`/`Kernel`/`Block` to flat instruction streams.
//!
//! One [`KernelCode`] per kernel, compiled once per run and reused for
//! every launch. The lowering linearizes expression trees in exactly
//! the tree-walker's evaluation order (operand before operator, index
//! before load, `Select` arms lazily), so side effects — race-tracker
//! log entries, bounds-check panics, watchdog charges — happen in the
//! same order under either tier. Program variables map 1:1 onto the
//! low registers (`VarId(v)` ↔ register `v`), replacing the
//! `Vec<Option<V>>` scope with flat-indexed slots; constants and
//! parameter reads are collected in a pre-scan and hoisted into a
//! prelude executed once per kernel launch, outside the thread loop.
//!
//! Register space is `[variables][const/param pool][temps]`. The pool
//! is sized by the pre-scan before any code is emitted, so the
//! watermark temp allocator can never collide with a pooled value.
//!
//! Instructions name operations; they do not define them. Every one
//! the VM executes — arithmetic, compares, unary ops, `fma`, casts,
//! loads, stores, atomics and work-group builtins — is the
//! tree-walker's own definition in [`crate::interp`], so lowering can
//! change how operands are fetched but never what is computed.
//!
//! A conservative forward type analysis (`F`/`I`/`B`/`Unk` lattice)
//! picks type-specialized opcodes (`BinFF`/`BinII`) where both operand
//! types are statically known. They call the same element function
//! the generic `Bin` reaches (`interp::f32_arith`/`interp::int_arith`)
//! without dispatching on the runtime tags, and take the generic path
//! when the tags disagree, so a wrong inference can cost speed but
//! never correctness. A parallel definite-assignment analysis inserts
//! [`Instr::CheckDef`] exactly where a variable read is not statically
//! proven initialized, so the tree-walker's "read of undefined
//! variable" panic reproduces at the same evaluation step.

use paccport_ir::expr::{BinOp, CmpOp, Expr, SpecialVar, UnOp};
use paccport_ir::kernel::{Kernel, KernelBody, ReduceOp};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{MemSpace, Scalar, VarId};
use paccport_ir::Program;
use std::collections::BTreeSet;

/// Register index. Registers `0..n_vars` are the program's variables;
/// then the hoisted const/param pool; then expression temps.
pub type Reg = u16;

/// One VM instruction. Each arm reads all operand registers before
/// writing its destination, so a destination may alias an operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// `dst = F(f64::from_bits(bits))` (bits, so NaNs round-trip).
    ConstF {
        dst: Reg,
        bits: u64,
    },
    ConstI {
        dst: Reg,
        v: i64,
    },
    ConstB {
        dst: Reg,
        v: bool,
    },
    /// `dst = params[p]`.
    Param {
        dst: Reg,
        p: u16,
    },
    Copy {
        dst: Reg,
        src: Reg,
    },
    /// Work-group builtin.
    Special {
        dst: Reg,
        sv: SpecialVar,
    },
    /// Panic like the tree-walker's `get_var` if `var` has not been
    /// assigned yet in this execution.
    CheckDef {
        var: Reg,
    },
    Un {
        op: UnOp,
        dst: Reg,
        a: Reg,
    },
    /// Generic binary op — exactly [`crate::interp`]'s `bin`.
    Bin {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Both operands statically float: fast f32-narrowed path, falling
    /// back to the generic op if the runtime tags disagree.
    BinFF {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Both operands statically int.
    BinII {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Cmp {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Fma {
        dst: Reg,
        a: Reg,
        b: Reg,
        c: Reg,
    },
    Cast {
        ty: Scalar,
        dst: Reg,
        a: Reg,
    },
    /// `Let`-store: `regs[var] = coerce(regs[src], ty)`, marks the
    /// variable defined.
    LetVar {
        ty: Scalar,
        var: Reg,
        src: Reg,
    },
    /// `Assign`-store (no coercion), marks the variable defined.
    SetVar {
        var: Reg,
        src: Reg,
    },
    /// `dst = I(regs[src].as_i())` — loop-bound normalization.
    ToInt {
        dst: Reg,
        src: Reg,
    },
    Load {
        space: MemSpace,
        array: u16,
        idx: Reg,
        dst: Reg,
    },
    Store {
        space: MemSpace,
        array: u16,
        idx: Reg,
        val: Reg,
    },
    Atomic {
        op: ReduceOp,
        array: u16,
        idx: Reg,
        val: Reg,
    },
    Jump {
        to: u32,
    },
    JumpIfFalse {
        cond: Reg,
        to: u32,
    },
    /// `if regs[cnt] >= regs[hi] jump exit` (both always `V::I`).
    ForHead {
        cnt: Reg,
        hi: Reg,
        exit: u32,
    },
    /// `regs[cnt] += step; jump back`.
    ForStep {
        cnt: Reg,
        step: i64,
        back: u32,
    },
    /// One watchdog step (`paccport_faults::charge(1)`) — emitted at
    /// each statement boundary, mirroring the tree-walker's
    /// per-statement charge.
    Charge,
}

/// An expression fragment: run `block`, result is in `out`.
///
/// Fragments share the temp register space, so a fragment's output
/// must be consumed before the next fragment (or the body) runs.
#[derive(Debug, Clone)]
pub struct ExprFrag {
    pub block: Vec<Instr>,
    pub out: Reg,
}

/// Compiled bounds of one parallel-loop level. Evaluated at nest-entry
/// of that level, like the tree-walker: run `lo`, read it, then run
/// `hi` (the fragments share temp registers).
#[derive(Debug, Clone)]
pub struct LoopBounds {
    pub lo: ExprFrag,
    pub hi: ExprFrag,
}

/// Compiled kernel body.
#[derive(Debug, Clone)]
pub enum BodyCode {
    Simple {
        block: Vec<Instr>,
        /// Region-reduction value, evaluated after each iteration's
        /// body in the same (tracked) scope.
        reduce: Option<ExprFrag>,
    },
    Grouped {
        phases: Vec<Vec<Instr>>,
        /// Batched form of each phase over a work-group's lanes (see
        /// [`super::batch`]), where the phase compiles to one.
        batch: Vec<Option<super::batch::BatchPlan>>,
        /// The variables some phase assigns. No phase writes any other
        /// register it later reads (pool registers are set once per
        /// launch, temps before each use), so these are all a lane
        /// must reset to start a new group from the launch state.
        written: Vec<Reg>,
    },
}

/// Everything the VM needs to execute one kernel. Shape metadata
/// (loop vars, group size, locals, reduction op/dest, fidelity skips)
/// stays on the [`Kernel`] itself — this is code only.
#[derive(Debug, Clone)]
pub struct KernelCode {
    pub kernel: String,
    pub n_regs: u16,
    /// Registers `0..n_vars` are the program variable slots.
    pub n_vars: u16,
    /// Hoisted constants and parameter reads, run once per launch.
    pub prelude: Vec<Instr>,
    pub bounds: Vec<LoopBounds>,
    pub body: BodyCode,
    /// Optional batched form of a simple kernel's innermost parallel
    /// loop (see [`super::batch`]), derived from the same kernel.
    pub batch: Option<super::batch::BatchPlan>,
}

impl KernelCode {
    /// Register slot of a program variable (identity mapping — kept as
    /// an accessor so the invariant is a checkable API).
    pub fn var_slot(&self, v: VarId) -> Reg {
        v.0 as Reg
    }
}

/// Static type lattice for specialization. `Unk` is ⊤.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    F,
    I,
    B,
    Unk,
}

fn merge_ty(a: Ty, b: Ty) -> Ty {
    if a == b {
        a
    } else {
        Ty::Unk
    }
}

fn ty_of_scalar(s: Scalar) -> Ty {
    match s {
        Scalar::F32 | Scalar::F64 => Ty::F,
        Scalar::I32 | Scalar::U32 => Ty::I,
        Scalar::Bool => Ty::B,
    }
}

struct Compiler<'a> {
    p: &'a Program,
    /// Element types of the kernel's local arrays (grouped bodies).
    locals_elem: Vec<Scalar>,
    n_vars: u16,
    /// Next free temp register (watermark allocator). Starts above the
    /// const/param pool once the pre-scan fixes the pool size.
    next: u16,
    max: u16,
    /// Const pool: (tag, bits) → prelude register. Tag 0 = F, 1 = I,
    /// 2 = B.
    consts: Vec<(u8, u64, Reg)>,
    param_regs: Vec<Option<Reg>>,
    prelude: Vec<Instr>,
    /// Static types of the program variables, updated in program order.
    vtypes: Vec<Ty>,
    /// Definitely-assigned variables, updated in program order.
    def: Vec<bool>,
}

impl<'a> Compiler<'a> {
    fn new(p: &'a Program, k: &Kernel) -> Compiler<'a> {
        let n_vars = u16::try_from(p.var_names.len()).expect("≤65536 variables");
        let locals_elem = match &k.body {
            KernelBody::Grouped(g) => g.locals.iter().map(|l| l.elem).collect(),
            KernelBody::Simple(_) => Vec::new(),
        };
        let mut c = Compiler {
            p,
            locals_elem,
            n_vars,
            next: n_vars,
            max: n_vars,
            consts: Vec::new(),
            param_regs: vec![None; p.params.len()],
            prelude: Vec::new(),
            vtypes: vec![Ty::Unk; p.var_names.len()],
            def: vec![false; p.var_names.len()],
        };
        // Pre-scan: pool every constant and parameter the kernel can
        // evaluate, so the pool/temp boundary is fixed before any code
        // is emitted and temps can never clobber a pooled value.
        k.walk_exprs(&mut |e| match e {
            Expr::FConst(v) => {
                c.const_reg(0, v.to_bits());
            }
            Expr::IConst(v) => {
                c.const_reg(1, *v as u64);
            }
            Expr::BConst(v) => {
                c.const_reg(2, *v as u64);
            }
            Expr::Param(id) => {
                c.param_reg(id.0 as u16);
            }
            _ => {}
        });
        c
    }

    fn alloc(&mut self) -> Reg {
        let r = self.next;
        self.next = self.next.checked_add(1).expect("≤65536 registers");
        self.max = self.max.max(self.next);
        r
    }

    /// Free all temps above `mark` and allocate the result register
    /// there (operands may alias the destination; instruction arms
    /// read before writing).
    fn retire(&mut self, mark: u16) -> Reg {
        self.next = mark;
        self.alloc()
    }

    fn const_reg(&mut self, tag: u8, bits: u64) -> Reg {
        if let Some((_, _, r)) = self.consts.iter().find(|(t, b, _)| *t == tag && *b == bits) {
            return *r;
        }
        let r = self.alloc();
        self.prelude.push(match tag {
            0 => Instr::ConstF { dst: r, bits },
            1 => Instr::ConstI {
                dst: r,
                v: bits as i64,
            },
            _ => Instr::ConstB {
                dst: r,
                v: bits != 0,
            },
        });
        self.consts.push((tag, bits, r));
        r
    }

    fn param_reg(&mut self, p: u16) -> Reg {
        if let Some(r) = self.param_regs[p as usize] {
            return r;
        }
        let r = self.alloc();
        self.prelude.push(Instr::Param { dst: r, p });
        self.param_regs[p as usize] = Some(r);
        r
    }

    /// Compile `e`, returning the register holding its value and its
    /// static type. Stable registers (vars, consts, params) are
    /// returned directly — the "hoisted operand resolution": inside a
    /// loop they are read in place, never re-materialized. Anything
    /// else lands in a temp at or above the caller's mark.
    fn expr(&mut self, e: &Expr, code: &mut Vec<Instr>) -> (Reg, Ty) {
        match e {
            Expr::FConst(v) => (self.const_reg(0, v.to_bits()), Ty::F),
            Expr::IConst(v) => (self.const_reg(1, *v as u64), Ty::I),
            Expr::BConst(v) => (self.const_reg(2, *v as u64), Ty::B),
            Expr::Param(id) => (
                self.param_reg(id.0 as u16),
                ty_of_scalar(self.p.params[id.0 as usize].ty),
            ),
            Expr::Var(id) => {
                if !self.def[id.0 as usize] {
                    // Not statically proven assigned: check at runtime,
                    // at the same evaluation step the tree-walker's
                    // `get_var` would panic.
                    code.push(Instr::CheckDef { var: id.0 as Reg });
                }
                (id.0 as Reg, self.vtypes[id.0 as usize])
            }
            Expr::Special(sv) => {
                let dst = self.alloc();
                code.push(Instr::Special { dst, sv: *sv });
                (dst, Ty::I)
            }
            Expr::Load {
                space,
                array,
                index,
            } => {
                let mark = self.next;
                let (idx, _) = self.expr(index, code);
                let dst = self.retire(mark);
                code.push(Instr::Load {
                    space: *space,
                    array: array.0 as u16,
                    idx,
                    dst,
                });
                let elem = match space {
                    MemSpace::Global => self.p.arrays[array.0 as usize].elem,
                    MemSpace::Local => self.locals_elem[array.0 as usize],
                };
                let ty = match elem {
                    Scalar::F32 | Scalar::F64 => Ty::F,
                    Scalar::Bool => Ty::B,
                    _ => Ty::I,
                };
                (dst, ty)
            }
            Expr::Un(op, a) => {
                let mark = self.next;
                let (ra, ta) = self.expr(a, code);
                let dst = self.retire(mark);
                code.push(Instr::Un {
                    op: *op,
                    dst,
                    a: ra,
                });
                let ty = match op {
                    UnOp::Neg | UnOp::Abs => match ta {
                        Ty::I => Ty::I,
                        Ty::F | Ty::B => Ty::F,
                        Ty::Unk => Ty::Unk,
                    },
                    UnOp::Rcp | UnOp::Sqrt | UnOp::Exp => Ty::F,
                    UnOp::Not => Ty::B,
                };
                (dst, ty)
            }
            Expr::Bin(op, a, b) => {
                let mark = self.next;
                let (ra, ta) = self.expr(a, code);
                let (rb, tb) = self.expr(b, code);
                let dst = self.retire(mark);
                let arith = matches!(
                    op,
                    BinOp::Add
                        | BinOp::Sub
                        | BinOp::Mul
                        | BinOp::Div
                        | BinOp::Rem
                        | BinOp::Min
                        | BinOp::Max
                );
                let ins = if arith && ta == Ty::F && tb == Ty::F {
                    Instr::BinFF {
                        op: *op,
                        dst,
                        a: ra,
                        b: rb,
                    }
                } else if arith && ta == Ty::I && tb == Ty::I {
                    Instr::BinII {
                        op: *op,
                        dst,
                        a: ra,
                        b: rb,
                    }
                } else {
                    Instr::Bin {
                        op: *op,
                        dst,
                        a: ra,
                        b: rb,
                    }
                };
                code.push(ins);
                let ty = match op {
                    BinOp::And | BinOp::Or => Ty::B,
                    BinOp::Shl | BinOp::Shr => Ty::I,
                    _ => {
                        if ta == Ty::F || tb == Ty::F {
                            Ty::F
                        } else if matches!(ta, Ty::I | Ty::B) && matches!(tb, Ty::I | Ty::B) {
                            Ty::I
                        } else {
                            Ty::Unk
                        }
                    }
                };
                (dst, ty)
            }
            Expr::Cmp(op, a, b) => {
                let mark = self.next;
                let (ra, _) = self.expr(a, code);
                let (rb, _) = self.expr(b, code);
                let dst = self.retire(mark);
                code.push(Instr::Cmp {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                (dst, Ty::B)
            }
            Expr::Fma(a, b, c) => {
                let mark = self.next;
                let (ra, _) = self.expr(a, code);
                let (rb, _) = self.expr(b, code);
                let (rc, _) = self.expr(c, code);
                let dst = self.retire(mark);
                code.push(Instr::Fma {
                    dst,
                    a: ra,
                    b: rb,
                    c: rc,
                });
                (dst, Ty::F)
            }
            Expr::Select(c, a, b) => {
                // Lazy arms, like the tree-walker: only the taken arm's
                // side effects (loads, panics) happen.
                let mark = self.next;
                let (rc, _) = self.expr(c, code);
                // `rc` is consumed by the branch before either arm
                // executes, so the result slot may alias it.
                let dst = self.retire(mark);
                let jf = code.len();
                code.push(Instr::JumpIfFalse { cond: rc, to: 0 });
                let arm_mark = self.next;
                let ta = self.expr_into(a, dst, code);
                self.next = arm_mark;
                let je = code.len();
                code.push(Instr::Jump { to: 0 });
                let else_pc = code.len() as u32;
                let tb = self.expr_into(b, dst, code);
                self.next = arm_mark;
                let end_pc = code.len() as u32;
                code[jf] = Instr::JumpIfFalse {
                    cond: rc,
                    to: else_pc,
                };
                code[je] = Instr::Jump { to: end_pc };
                (dst, merge_ty(ta, tb))
            }
            Expr::Cast(ty, a) => {
                let mark = self.next;
                let (ra, _) = self.expr(a, code);
                let dst = self.retire(mark);
                code.push(Instr::Cast {
                    ty: *ty,
                    dst,
                    a: ra,
                });
                (dst, ty_of_scalar(*ty))
            }
        }
    }

    /// Compile `e` so the result lands in `dst` (a stable register the
    /// caller owns).
    fn expr_into(&mut self, e: &Expr, dst: Reg, code: &mut Vec<Instr>) -> Ty {
        let (r, ty) = self.expr(e, code);
        if r != dst {
            code.push(Instr::Copy { dst, src: r });
        }
        ty
    }

    fn block(&mut self, b: &Block, code: &mut Vec<Instr>) {
        for s in &b.0 {
            self.stmt(s, code);
        }
    }

    fn stmt(&mut self, s: &Stmt, code: &mut Vec<Instr>) {
        // One watchdog step per statement, at the same boundary the
        // tree-walker charges (before the statement executes; a For
        // charges once at entry, its body statements per iteration).
        code.push(Instr::Charge);
        match s {
            Stmt::Let { var, ty, init } => {
                let mark = self.next;
                let (r, _) = self.expr(init, code);
                code.push(Instr::LetVar {
                    ty: *ty,
                    var: var.0 as Reg,
                    src: r,
                });
                self.next = mark;
                self.vtypes[var.0 as usize] = ty_of_scalar(*ty);
                self.def[var.0 as usize] = true;
            }
            Stmt::Assign { var, value } => {
                let mark = self.next;
                let (r, ty) = self.expr(value, code);
                code.push(Instr::SetVar {
                    var: var.0 as Reg,
                    src: r,
                });
                self.next = mark;
                self.vtypes[var.0 as usize] = ty;
                self.def[var.0 as usize] = true;
            }
            Stmt::Store {
                space,
                array,
                index,
                value,
            } => {
                let mark = self.next;
                let (ri, _) = self.expr(index, code);
                let (rv, _) = self.expr(value, code);
                code.push(Instr::Store {
                    space: *space,
                    array: array.0 as u16,
                    idx: ri,
                    val: rv,
                });
                self.next = mark;
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let mark = self.next;
                let (rc, _) = self.expr(cond, code);
                let jf = code.len();
                code.push(Instr::JumpIfFalse { cond: rc, to: 0 });
                // The branch consumes `rc` before either arm runs.
                self.next = mark;
                let entry_ty = self.vtypes.clone();
                let entry_def = self.def.clone();
                self.block(then_blk, code);
                let then_ty = std::mem::replace(&mut self.vtypes, entry_ty);
                let then_def = std::mem::replace(&mut self.def, entry_def);
                let je = code.len();
                code.push(Instr::Jump { to: 0 });
                let else_pc = code.len() as u32;
                self.block(else_blk, code);
                let end_pc = code.len() as u32;
                code[jf] = Instr::JumpIfFalse {
                    cond: rc,
                    to: else_pc,
                };
                code[je] = Instr::Jump { to: end_pc };
                for (t, te) in self.vtypes.iter_mut().zip(&then_ty) {
                    *t = merge_ty(*t, *te);
                }
                // Defined after the If = defined on both paths.
                for (d, de) in self.def.iter_mut().zip(&then_def) {
                    *d = *d && *de;
                }
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => {
                let mark = self.next;
                let (rlo, _) = self.expr(lo, code);
                let (rhi, _) = self.expr(hi, code);
                // The loop counter and normalized bound live across
                // the whole body: allocated above the bound temps and
                // only released at loop exit.
                let cnt = self.alloc();
                let hii = self.alloc();
                code.push(Instr::ToInt { dst: cnt, src: rlo });
                code.push(Instr::ToInt { dst: hii, src: rhi });
                let head = code.len() as u32;
                let fh = code.len();
                code.push(Instr::ForHead {
                    cnt,
                    hi: hii,
                    exit: 0,
                });
                code.push(Instr::SetVar {
                    var: var.0 as Reg,
                    src: cnt,
                });
                // Conservative typing: anything the body may assign is
                // unknown at its entry (later iterations feed back);
                // the loop variable itself is re-set to I every trip.
                // Definedness is monotone, so the entry def-state is
                // sound for every iteration without a fixpoint.
                let entry_ty = self.vtypes.clone();
                let entry_def = self.def.clone();
                for v in [body.assigned_vars(), body.let_vars(), body.for_vars()]
                    .into_iter()
                    .flatten()
                {
                    self.vtypes[v.0 as usize] = Ty::Unk;
                }
                self.vtypes[var.0 as usize] = Ty::I;
                self.def[var.0 as usize] = true;
                self.block(body, code);
                code.push(Instr::ForStep {
                    cnt,
                    step: *step,
                    back: head,
                });
                let exit_pc = code.len() as u32;
                code[fh] = Instr::ForHead {
                    cnt,
                    hi: hii,
                    exit: exit_pc,
                };
                // Zero-trip loops leave the entry state intact, so
                // nothing the body assigned is proven after the loop.
                for (t, te) in self.vtypes.iter_mut().zip(&entry_ty) {
                    *t = merge_ty(*t, *te);
                }
                self.def = entry_def;
                self.next = mark;
            }
            Stmt::Barrier => {
                // Implicit between phases; a no-op within one (the
                // Charge above is the whole lowering).
            }
            Stmt::Atomic {
                op,
                array,
                index,
                value,
            } => {
                let mark = self.next;
                let (ri, _) = self.expr(index, code);
                let (rv, _) = self.expr(value, code);
                code.push(Instr::Atomic {
                    op: *op,
                    array: array.0 as u16,
                    idx: ri,
                    val: rv,
                });
                self.next = mark;
            }
        }
    }

    /// Compile a bounds/reduction expression as a standalone fragment.
    /// Fragments share the temp space above the pools.
    fn frag(&mut self, e: &Expr) -> ExprFrag {
        let mark = self.next;
        let mut code = Vec::new();
        let (out, _) = self.expr(e, &mut code);
        self.next = mark;
        ExprFrag { block: code, out }
    }
}

/// Compile one kernel of `p` to bytecode.
pub fn compile_kernel(p: &Program, k: &Kernel) -> KernelCode {
    let mut c = Compiler::new(p, k);

    // Bounds fragments, in nest order. A level's bounds may read outer
    // loop variables (triangular nests), which the nest driver has set
    // by then — so each level's variable becomes "definitely assigned"
    // only after its own bounds are compiled.
    let mut bounds = Vec::with_capacity(k.loops.len());
    for lp in &k.loops {
        let lo = c.frag(&lp.lo);
        let hi = c.frag(&lp.hi);
        bounds.push(LoopBounds { lo, hi });
        c.vtypes[lp.var.0 as usize] = Ty::I;
        c.def[lp.var.0 as usize] = true;
    }

    let body = match &k.body {
        KernelBody::Simple(blk) => {
            let mut code = Vec::new();
            c.block(blk, &mut code);
            // The region reduction is evaluated in the body's exit
            // scope each iteration.
            let reduce = k.region_reduction.as_ref().map(|rr| c.frag(&rr.value));
            BodyCode::Simple {
                block: code,
                reduce,
            }
        }
        KernelBody::Grouped(g) => {
            let mut phases = Vec::with_capacity(g.phases.len());
            for phase in &g.phases {
                // Each phase is compiled against an empty static
                // environment (only the group's loop variable is
                // proven): fidelity modes may skip earlier phases, so
                // nothing they assigned can be assumed. The runtime
                // per-thread defined bits carry the truth across
                // phases.
                let mut fresh_ty = vec![Ty::Unk; c.vtypes.len()];
                let mut fresh_def = vec![false; c.def.len()];
                fresh_ty[k.loops[0].var.0 as usize] = Ty::I;
                fresh_def[k.loops[0].var.0 as usize] = true;
                let saved_ty = std::mem::replace(&mut c.vtypes, fresh_ty);
                let saved_def = std::mem::replace(&mut c.def, fresh_def);
                let mut code = Vec::new();
                c.block(phase, &mut code);
                c.vtypes = saved_ty;
                c.def = saved_def;
                phases.push(code);
            }
            let written: BTreeSet<Reg> = g
                .phases
                .iter()
                .flat_map(|ph| [ph.assigned_vars(), ph.let_vars(), ph.for_vars()])
                .flatten()
                .map(|v| v.0 as Reg)
                .collect();
            BodyCode::Grouped {
                phases,
                batch: super::batch::build_phases(p, k),
                written: written.into_iter().collect(),
            }
        }
    };

    KernelCode {
        kernel: k.name.clone(),
        n_regs: c.max,
        n_vars: c.n_vars,
        prelude: c.prelude,
        bounds,
        body,
        batch: super::batch::build(p, k),
    }
}
