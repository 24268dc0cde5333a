//! Shared analyses for the middle-end passes.
//!
//! Every helper here errs on the side of *refusing*: the passes must
//! preserve bit-exact observable behavior under the differential
//! conformance oracle, including trap behavior (integer overflow
//! debug-panics, division by zero, out-of-range shifts), so any
//! question a pass cannot answer precisely is answered "no".

use paccport_ir::{value_kind, Expr, Kernel, KindEnv, Scalar, Stmt, UnOp, ValueKind, VarId};
use std::collections::BTreeSet;

/// Every variable the expression mentions.
pub fn expr_vars(e: &Expr) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    e.walk(&mut |e| {
        if let Expr::Var(v) = e {
            out.insert(*v);
        }
    });
    out
}

/// A kind environment valid at *every* point of the kernel: program
/// parameters, `Let`-declared locals that are never reassigned (their
/// declared type then fixes their runtime kind for good, because `Let`
/// coerces), and loop variables (always integers). Reassigned locals
/// are left unknown — `Assign` does not coerce, so their declared type
/// says nothing about their runtime kind.
pub fn kind_env_for_kernel(program_env: &KindEnv, k: &Kernel) -> KindEnv {
    let mut env = program_env.clone();
    let mut assigned = BTreeSet::new();
    let mut seen: std::collections::BTreeMap<VarId, Scalar> = Default::default();
    for b in k.blocks() {
        assigned.extend(b.assigned_vars());
    }
    for b in k.blocks() {
        b.walk(&mut |s| {
            if let Stmt::Let { var, ty, .. } = s {
                match seen.get(var) {
                    // Two Lets with conflicting types (possible after
                    // unrolling rewrites): trust neither.
                    Some(prev) if prev != ty => {
                        env.remove_var(*var);
                        assigned.insert(*var);
                    }
                    _ => {
                        seen.insert(*var, *ty);
                        if !assigned.contains(var) {
                            env.set_var_scalar(*var, *ty);
                        }
                    }
                }
            }
        });
    }
    for v in &assigned {
        env.remove_var(*v);
    }
    for lp in &k.loops {
        env.set_var(lp.var, ValueKind::Int);
    }
    for b in k.blocks() {
        for v in b.for_vars() {
            env.set_var(v, ValueKind::Int);
        }
    }
    env
}

/// Can evaluating `e` ever trap or panic, in any build profile, for
/// any operand values consistent with `env`? Integer `add`/`sub`/
/// `mul`/`neg`/`abs` debug-panic on overflow, integer `div`/`rem` trap
/// on zero and `i64::MIN / -1`, and shifts trap outside `0..64`, so
/// an integer-kind arithmetic node is only safe when the kind analysis
/// proves the float path is taken. Loads are rejected outright (they
/// depend on memory, and the caller is about to move the evaluation).
pub fn never_traps(e: &Expr, env: &KindEnv) -> bool {
    match e {
        Expr::FConst(_)
        | Expr::IConst(_)
        | Expr::BConst(_)
        | Expr::Param(_)
        | Expr::Var(_)
        | Expr::Special(_) => true,
        Expr::Load { .. } => false,
        Expr::Un(op, a) => {
            never_traps(a, env)
                && match op {
                    UnOp::Not | UnOp::Rcp | UnOp::Sqrt | UnOp::Exp => true,
                    // `neg`/`abs` follow the operand's kind; only the
                    // float (and bool-as-float) paths are total.
                    UnOp::Neg | UnOp::Abs => matches!(
                        value_kind(a, env),
                        Some(ValueKind::Float) | Some(ValueKind::Bool)
                    ),
                }
        }
        Expr::Bin(op, a, b) => {
            never_traps(a, env)
                && never_traps(b, env)
                && match op {
                    paccport_ir::BinOp::And
                    | paccport_ir::BinOp::Or
                    | paccport_ir::BinOp::Min
                    | paccport_ir::BinOp::Max => true,
                    paccport_ir::BinOp::Add
                    | paccport_ir::BinOp::Sub
                    | paccport_ir::BinOp::Mul
                    | paccport_ir::BinOp::Div
                    | paccport_ir::BinOp::Rem => value_kind(e, env) == Some(ValueKind::Float),
                    paccport_ir::BinOp::Shl | paccport_ir::BinOp::Shr => false,
                }
        }
        Expr::Cmp(_, a, b) => never_traps(a, env) && never_traps(b, env),
        Expr::Fma(a, b, c) | Expr::Select(a, b, c) => {
            never_traps(a, env) && never_traps(b, env) && never_traps(c, env)
        }
        Expr::Cast(_, a) => never_traps(a, env),
    }
}

/// The `Scalar` type whose `Let` coercion is the identity on values of
/// `kind` — so binding a value of that kind with this declared type
/// reproduces it bit for bit (`I32` does not mask integers, `F64` does
/// not narrow floats).
pub fn identity_scalar(kind: ValueKind) -> Scalar {
    match kind {
        ValueKind::Int => Scalar::I32,
        ValueKind::Float => Scalar::F64,
        ValueKind::Bool => Scalar::Bool,
    }
}

/// Structural replacement of every occurrence of `target` (compared
/// with derived `PartialEq`, so NaN-containing trees never match —
/// a sound refusal) by `with`.
pub fn replace_expr(e: &Expr, target: &Expr, with: &Expr) -> Expr {
    if e == target {
        return with.clone();
    }
    match e {
        Expr::FConst(_)
        | Expr::IConst(_)
        | Expr::BConst(_)
        | Expr::Param(_)
        | Expr::Var(_)
        | Expr::Special(_) => e.clone(),
        Expr::Load {
            space,
            array,
            index,
        } => Expr::Load {
            space: *space,
            array: *array,
            index: Box::new(replace_expr(index, target, with)),
        },
        Expr::Un(op, a) => Expr::un(*op, replace_expr(a, target, with)),
        Expr::Cast(t, a) => Expr::cast(*t, replace_expr(a, target, with)),
        Expr::Bin(op, a, b) => Expr::bin(
            *op,
            replace_expr(a, target, with),
            replace_expr(b, target, with),
        ),
        Expr::Cmp(op, a, b) => Expr::cmp(
            *op,
            replace_expr(a, target, with),
            replace_expr(b, target, with),
        ),
        Expr::Fma(a, b, c) => Expr::fma(
            replace_expr(a, target, with),
            replace_expr(b, target, with),
            replace_expr(c, target, with),
        ),
        Expr::Select(a, b, c) => Expr::select(
            replace_expr(a, target, with),
            replace_expr(b, target, with),
            replace_expr(c, target, with),
        ),
    }
}

/// Variables (re)defined by this statement, *including* nested ones:
/// `Assign` targets, `Let` bindings and `For` loop variables. Used by
/// CSE to invalidate availability after a statement executes.
pub fn defs_of(s: &Stmt) -> BTreeSet<VarId> {
    let mut out = BTreeSet::new();
    s.walk(&mut |s| match s {
        Stmt::Assign { var, .. } | Stmt::Let { var, .. } | Stmt::For { var, .. } => {
            out.insert(*var);
        }
        _ => {}
    });
    out
}
