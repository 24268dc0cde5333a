//! Expression simplification: constant folding and algebraic
//! identities.
//!
//! The loop transformations (unroll, strip-mine, tiling) synthesize
//! expressions like `i + 0`, `(n - 0 + 0) / 1 * 1` or `0 * t + j`;
//! real source-to-source compilers fold these before code generation,
//! and so do we — otherwise the static PTX counts would charge the
//! transforms for arithmetic no hardware ever executes.
//!
//! The pass is semantics-preserving over the interpreter's evaluation
//! rules: integer folding uses the engines' wrapping i64 arithmetic
//! (shifts outside `0..64` are left unfolded — the oracle rejects
//! them), and floating-point expressions are *not* reassociated (only
//! bitwise-exact identities like `x - 0.0` and `x * 1.0` apply; the
//! additive forms are inexact for `-0.0` and are deliberately absent).
//! Identities that are exact for one value class but not another
//! (`i + 0` is an integer-path identity; `x * 1.0` a float-path one)
//! are gated on a static [`ValueKind`] analysis seeded from `Let`
//! types and loop variables, because a fold that moves an operand
//! between the f32-narrowed float path and the wrapping integer path
//! changes bits even when the algebra is right. Float identities
//! additionally require the operand to be a *narrowed* float (an
//! exact f32 widening, see [`narrowed_float`]): `0.1 * 1.0` is not
//! `0.1` under f32 arithmetic, it is `0.1f32 as f64`.

use crate::expr::{BinOp, Expr, UnOp};
use crate::kernel::Kernel;
use crate::stmt::{Block, Stmt};
use crate::types::{Scalar, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The runtime value class an expression evaluates to — the engines'
/// `V::I`/`V::F`/`V::B` split. Folds that would change an
/// expression's class (e.g. `3 * 1.0 → 3`, float-path to int-path)
/// are inexact: the class decides whether enclosing arithmetic runs
/// the f32-narrowed float path or the wrapping integer path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    Int,
    Float,
    Bool,
}

/// Statically known kinds for names in scope: variables (from `Let`
/// types, loop variables, and kernel local declarations) and program
/// parameters (from their declarations).
#[derive(Debug, Clone, Default)]
pub struct KindEnv {
    vars: BTreeMap<VarId, ValueKind>,
    /// Float-kinded variables whose value is additionally known to be
    /// a widened f32 (`(v as f32) as f64 == v`): `Let` with a declared
    /// `F32` type coerces through f32, so the binding is narrowed.
    /// `F64` bindings and plain `Assign`s (which do not coerce) are
    /// not.
    narrowed: BTreeSet<VarId>,
    params: BTreeMap<crate::types::ParamId, ValueKind>,
}

impl KindEnv {
    pub fn new() -> Self {
        Self::default()
    }

    /// Seed parameter kinds from a program's declarations. Both
    /// engines bind `F32`/`F64` parameters as floats and *everything
    /// else* — booleans included — as truncated integers, so the
    /// param kind is never `Bool`.
    pub fn for_program(p: &crate::program::Program) -> Self {
        let mut env = Self::default();
        for (i, d) in p.params.iter().enumerate() {
            let kind = match d.ty {
                Scalar::F32 | Scalar::F64 => ValueKind::Float,
                _ => ValueKind::Int,
            };
            env.params.insert(crate::types::ParamId(i as u32), kind);
        }
        env
    }

    pub fn set_var(&mut self, v: VarId, k: ValueKind) {
        self.vars.insert(v, k);
        self.narrowed.remove(&v);
    }

    /// Bind a variable from a declared scalar type, as `Let` does:
    /// `F32` bindings are narrowed (the interpreter's `coerce` routes
    /// them through f32), everything else only has a kind.
    pub fn set_var_scalar(&mut self, v: VarId, ty: Scalar) {
        self.set_var(v, scalar_kind(ty));
        if ty == Scalar::F32 {
            self.narrowed.insert(v);
        }
    }

    /// Forget everything about a variable (an `Assign` of unknown
    /// kind, or a variable mutated inside a loop body).
    pub fn remove_var(&mut self, v: VarId) {
        self.vars.remove(&v);
        self.narrowed.remove(&v);
    }

    pub fn var_kind(&self, v: VarId) -> Option<ValueKind> {
        self.vars.get(&v).copied()
    }

    pub fn var_narrowed(&self, v: VarId) -> bool {
        self.narrowed.contains(&v)
    }

    pub fn param_kind(&self, id: crate::types::ParamId) -> Option<ValueKind> {
        self.params.get(&id).copied()
    }
}

/// The kind a declared scalar type coerces to: the interpreter's
/// `coerce` maps `F32`/`F64` to `V::F`, `I32`/`U32` to `V::I`.
pub fn scalar_kind(s: Scalar) -> ValueKind {
    match s {
        Scalar::F32 | Scalar::F64 => ValueKind::Float,
        Scalar::I32 | Scalar::U32 => ValueKind::Int,
        Scalar::Bool => ValueKind::Bool,
    }
}

/// Static value-kind of an expression, mirroring the interpreter's
/// dispatch. `None` means unknown (free variables, parameters, loads
/// — anything whose kind needs context we don't have).
pub fn value_kind(e: &Expr, env: &KindEnv) -> Option<ValueKind> {
    use ValueKind::*;
    match e {
        Expr::IConst(_) | Expr::Special(_) => Some(Int),
        Expr::FConst(_) => Some(Float),
        Expr::BConst(_) => Some(Bool),
        Expr::Var(v) => env.var_kind(*v),
        Expr::Param(id) => env.param_kind(*id),
        Expr::Load { .. } => None,
        Expr::Un(op, a) => match op {
            // Neg/Abs keep the integer path only for `V::I`; anything
            // else (including Bool) goes through `as_f()`.
            UnOp::Neg | UnOp::Abs => match value_kind(a, env) {
                Some(Int) => Some(Int),
                Some(Float) | Some(Bool) => Some(Float),
                None => None,
            },
            UnOp::Rcp | UnOp::Sqrt | UnOp::Exp => Some(Float),
            UnOp::Not => Some(Bool),
        },
        Expr::Bin(op, a, b) => match op {
            BinOp::And | BinOp::Or => Some(Bool),
            BinOp::Shl | BinOp::Shr => Some(Int),
            _ => {
                // Float if either side is float, integer if neither
                // can be (Bool coerces through `as_i` on that path).
                let (ka, kb) = (value_kind(a, env), value_kind(b, env));
                match (ka, kb) {
                    (Some(Float), _) | (_, Some(Float)) => Some(Float),
                    (Some(Int) | Some(Bool), Some(Int) | Some(Bool)) => Some(Int),
                    _ => None,
                }
            }
        },
        Expr::Cmp(..) => Some(Bool),
        Expr::Fma(..) => Some(Float),
        Expr::Select(_, a, b) => {
            let (ka, kb) = (value_kind(a, env), value_kind(b, env));
            if ka.is_some() && ka == kb {
                ka
            } else {
                None
            }
        }
        Expr::Cast(t, _) => Some(scalar_kind(*t)),
    }
}

/// Is the expression guaranteed to produce a float value that is an
/// exact f32 widening (`(v as f32) as f64 == v`)?
///
/// Both engines compute float arithmetic by narrowing each operand to
/// f32, operating, and widening back, so `x * 1.0 → x` is only
/// bitwise-exact when `x`'s value is already in that narrowed set —
/// for `x = 0.1` (an f64 literal no f32 represents), the unfolded
/// multiply rounds to `0.1f32 as f64` while the folded form keeps
/// `0.1`. Float arithmetic results, `Fma`, casts to `F32`, and `F32`
/// `Let` bindings are narrowed; `F64` values, `Rcp`/`Sqrt`/`Exp`
/// (computed in f64), parameters, and loads are not assumed to be.
pub fn narrowed_float(e: &Expr, env: &KindEnv) -> bool {
    use ValueKind::*;
    match e {
        Expr::FConst(v) => v.to_bits() == ((*v as f32) as f64).to_bits(),
        Expr::Var(v) => env.var_narrowed(*v),
        Expr::Bin(
            BinOp::Add
            | BinOp::Sub
            | BinOp::Mul
            | BinOp::Div
            | BinOp::Rem
            | BinOp::Min
            | BinOp::Max,
            ..,
        ) => value_kind(e, env) == Some(Float),
        Expr::Fma(..) => true,
        Expr::Cast(Scalar::F32, _) => true,
        // Negating or taking |·| of a narrowed value stays narrowed
        // (sign flips never leave the f32 set); a boolean operand is
        // coerced to ±0.0/±1.0, f32-exact by construction.
        Expr::Un(UnOp::Neg | UnOp::Abs, a) => match value_kind(a, env) {
            Some(Bool) => true,
            Some(Float) => narrowed_float(a, env),
            _ => false,
        },
        Expr::Select(_, a, b) => narrowed_float(a, env) && narrowed_float(b, env),
        _ => false,
    }
}

/// Simplify an expression tree bottom-up, with no variable-kind
/// context (only folds that are exact for *any* operand kind apply to
/// free variables; see [`simplify_in`]).
pub fn simplify(e: &Expr) -> Expr {
    simplify_in(e, &KindEnv::new())
}

/// Simplify with statically known variable kinds. Kind information
/// widens the applicable identity set: `i + 0 → i` is only exact when
/// `i` is integer-valued (the float path turns `-0.0 + 0` into
/// `+0.0`), and `x * 1.0 → x` only when `x` is float-valued (folding
/// would flip an integer operand off the f32-narrowed float path).
pub fn simplify_in(e: &Expr, env: &KindEnv) -> Expr {
    match e {
        Expr::Un(op, a) => {
            let a = simplify_in(a, env);
            match (op, &a) {
                (UnOp::Neg, Expr::IConst(v)) => Expr::IConst(v.wrapping_neg()),
                (UnOp::Neg, Expr::FConst(v)) => Expr::FConst(-v),
                (UnOp::Abs, Expr::IConst(v)) => Expr::IConst(v.wrapping_abs()),
                (UnOp::Abs, Expr::FConst(v)) => Expr::FConst(v.abs()),
                (UnOp::Not, Expr::BConst(v)) => Expr::BConst(!v),
                // --x = x, for known-numeric x (a boolean would have
                // been coerced to float by the inner negation).
                (UnOp::Neg, Expr::Un(UnOp::Neg, inner))
                    if matches!(
                        value_kind(inner, env),
                        Some(ValueKind::Int) | Some(ValueKind::Float)
                    ) =>
                {
                    (**inner).clone()
                }
                _ => Expr::un(*op, a),
            }
        }
        Expr::Bin(op, a, b) => {
            let a = simplify_in(a, env);
            let b = simplify_in(b, env);
            simplify_bin(*op, a, b, env)
        }
        Expr::Cmp(op, a, b) => Expr::cmp(*op, simplify_in(a, env), simplify_in(b, env)),
        Expr::Fma(a, b, c) => Expr::fma(
            simplify_in(a, env),
            simplify_in(b, env),
            simplify_in(c, env),
        ),
        Expr::Select(c, a, b) => {
            let c = simplify_in(c, env);
            match c {
                Expr::BConst(true) => simplify_in(a, env),
                Expr::BConst(false) => simplify_in(b, env),
                c => Expr::select(c, simplify_in(a, env), simplify_in(b, env)),
            }
        }
        Expr::Cast(t, a) => {
            let a = simplify_in(a, env);
            match (&a, t) {
                // Route through f64 first: the interpreter coerces via
                // `as_f()`, so a direct i64→f32 cast would double-round
                // differently for |v| ≥ 2^53.
                (Expr::IConst(v), crate::types::Scalar::F32) => {
                    Expr::FConst((*v as f64) as f32 as f64)
                }
                (Expr::IConst(v), crate::types::Scalar::I32) => Expr::IConst(*v as i32 as i64),
                _ => Expr::cast(*t, a),
            }
        }
        Expr::Load {
            space,
            array,
            index,
        } => Expr::Load {
            space: *space,
            array: *array,
            index: Box::new(simplify_in(index, env)),
        },
        leaf => leaf.clone(),
    }
}

fn simplify_bin(op: BinOp, a: Expr, b: Expr, env: &KindEnv) -> Expr {
    use BinOp::*;
    // Integer constant folding (wrapping i64, matching the engines'
    // arithmetic; a plain `+` here would panic in debug builds on
    // overflow the interpreter happily wraps through). Division leaves
    // `i64::MIN / -1` unfolded — the interpreter traps on it, so
    // folding would hide the trap. Shifts outside `0..64` stay
    // unfolded too: the oracle rejects them, and folding the masked
    // value would mask that rejection.
    if let (Expr::IConst(x), Expr::IConst(y)) = (&a, &b) {
        let v = match op {
            Add => Some(x.wrapping_add(*y)),
            Sub => Some(x.wrapping_sub(*y)),
            Mul => Some(x.wrapping_mul(*y)),
            Div if *y != 0 && !(*x == i64::MIN && *y == -1) => Some(x.wrapping_div(*y)),
            Rem if *y != 0 && !(*x == i64::MIN && *y == -1) => Some(x.wrapping_rem(*y)),
            Min => Some(*x.min(y)),
            Max => Some(*x.max(y)),
            Shl if (0..64).contains(y) => Some(x << y),
            Shr if (0..64).contains(y) => Some(x >> y),
            _ => None,
        };
        if let Some(v) = v {
            return Expr::IConst(v);
        }
    }
    let is_int = |x: &Expr| value_kind(x, env) == Some(ValueKind::Int);
    // Float operands must additionally be *narrowed* (exact f32
    // widenings): the engines run every float op through f32, so
    // dropping an op keeps precision an f64-valued x (`0.1`, a `Rcp`,
    // an `F64` binding) would otherwise lose.
    let is_narrowed = |x: &Expr| narrowed_float(x, env);
    match (op, &a, &b) {
        // x + 0, 0 + x: exact only when x is integer-valued — on the
        // float path `-0.0 + 0` produces `+0.0`, so the fold would
        // keep a `-0.0` the engines wash away.
        (Add, x, Expr::IConst(0)) if is_int(x) => x.clone(),
        (Add, Expr::IConst(0), x) if is_int(x) => x.clone(),
        // x - 0 is exact on both numeric paths: integer subtraction of
        // zero is the identity, and float `x - (+0.0)` is
        // bitwise-exact for narrowed x. A *boolean* x must not fold
        // (the op coerces it to `V::I(1)`, which the bare x would
        // skip), and unknown kinds could be boolean loads, so only
        // known numerics fold.
        (Sub, x, Expr::IConst(0)) if is_int(x) || is_narrowed(x) => x.clone(),
        // x - (+0.0) is the only bitwise-exact float-*typed*-zero
        // identity: `x + 0.0` and `0.0 + x` rewrite `x = -0.0` to
        // `+0.0`, and `x - (-0.0)` does the same, so those forms must
        // not fold. `to_bits() == 0` admits +0.0 only (`-0.0 == 0.0`
        // is true!). Gated on a narrowed float x: folding away the op
        // would move an integer x off the float path, and would skip
        // the f32 rounding a wider x still owes.
        (Sub, x, Expr::FConst(z)) if z.to_bits() == 0 && is_narrowed(x) => x.clone(),
        // x * 1, 1 * x, x / 1 hold on both numeric paths (booleans,
        // unknowns, and un-narrowed floats excluded as above).
        (Mul, x, Expr::IConst(1)) | (Div, x, Expr::IConst(1)) if is_int(x) || is_narrowed(x) => {
            x.clone()
        }
        (Mul, Expr::IConst(1), x) if is_int(x) || is_narrowed(x) => x.clone(),
        // Float-typed one: gated like the float-typed zero above.
        (Mul, x, Expr::FConst(o)) | (Div, x, Expr::FConst(o)) if *o == 1.0 && is_narrowed(x) => {
            x.clone()
        }
        (Mul, Expr::FConst(o), x) if *o == 1.0 && is_narrowed(x) => x.clone(),
        // x * 0, 0 * x — integer-valued x only: on the float path
        // `0 * NaN` stays NaN and `0 * -5.0` is `-0.0`, not `0`.
        (Mul, x, Expr::IConst(0)) if is_int(x) => Expr::IConst(0),
        (Mul, Expr::IConst(0), x) if is_int(x) => Expr::IConst(0),
        // (a + c1) + c2 → a + (c1+c2). Integer-valued a only: float
        // addition does not reassociate. Wrapping constants keep the
        // rewrite exact even when a fold overflows (associativity
        // holds mod 2^64).
        (Add, Expr::Bin(BinOp::Add, x, c1), Expr::IConst(c2)) if is_int(x) => {
            if let Expr::IConst(c1) = **c1 {
                return simplify_bin(Add, (**x).clone(), Expr::IConst(c1.wrapping_add(*c2)), env);
            }
            Expr::bin(op, a.clone(), b.clone())
        }
        // (a - c1) + c2 / (a + c1) - c2
        (Add, Expr::Bin(BinOp::Sub, x, c1), Expr::IConst(c2)) if is_int(x) => {
            if let Expr::IConst(c1) = **c1 {
                return simplify_bin(Sub, (**x).clone(), Expr::IConst(c1.wrapping_sub(*c2)), env);
            }
            Expr::bin(op, a.clone(), b.clone())
        }
        (Sub, Expr::Bin(BinOp::Add, x, c1), Expr::IConst(c2)) if is_int(x) => {
            if let Expr::IConst(c1) = **c1 {
                return simplify_bin(Add, (**x).clone(), Expr::IConst(c1.wrapping_sub(*c2)), env);
            }
            Expr::bin(op, a.clone(), b.clone())
        }
        _ => Expr::bin(op, a, b),
    }
}

/// Simplify every expression in a block, learning variable kinds from
/// the `Let` and `For` statements it passes.
pub fn simplify_block(b: &Block) -> Block {
    simplify_block_in(b, &mut KindEnv::new())
}

/// [`simplify_block`] with a pre-seeded kind environment. The
/// environment accumulates across the block: `VarId`s are unique per
/// program, so a binding never needs to be retracted.
pub fn simplify_block_in(b: &Block, env: &mut KindEnv) -> Block {
    Block(b.0.iter().map(|s| simplify_stmt(s, env)).collect())
}

fn simplify_stmt(s: &Stmt, env: &mut KindEnv) -> Stmt {
    match s {
        Stmt::Let { var, ty, init } => {
            // The init sees the outer environment; the binding's kind
            // comes from the declared type (`Let` coerces, so an `F32`
            // binding is also narrowed).
            let init = simplify_in(init, env);
            env.set_var_scalar(*var, *ty);
            Stmt::Let {
                var: *var,
                ty: *ty,
                init,
            }
        }
        Stmt::Assign { var, value } => {
            // `Assign` does *not* coerce to the `Let`'s declared type,
            // so the binding takes the right-hand side's kind (and
            // narrowedness) from here on.
            let value = simplify_in(value, env);
            match value_kind(&value, env) {
                Some(k) => {
                    let narrow = k == ValueKind::Float && narrowed_float(&value, env);
                    env.set_var(*var, k);
                    if narrow {
                        env.narrowed.insert(*var);
                    }
                }
                None => env.remove_var(*var),
            }
            Stmt::Assign { var: *var, value }
        }
        Stmt::Store {
            space,
            array,
            index,
            value,
        } => Stmt::Store {
            space: *space,
            array: *array,
            index: simplify_in(index, env),
            value: simplify_in(value, env),
        },
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            // Each branch runs (or not) on its own, so `Assign`s made
            // inside one must not leak kinds into the other or into
            // the statements after the `If`. A shadowing `Let` inside
            // a branch writes the same underlying slot, so it counts
            // as a write too — a read after the `If` (scoped to an
            // outer `Let`) observes the branch's value when the
            // branch ran. Simplify each branch under its own clone,
            // then meet: a written var's kind survives only where the
            // not-taken path (the pre-`If` env) and both branch exits
            // all agree.
            let cond = simplify_in(cond, env);
            let mut then_env = env.clone();
            let mut else_env = env.clone();
            let then_blk = simplify_block_in(then_blk, &mut then_env);
            let else_blk = simplify_block_in(else_blk, &mut else_env);
            let mut written: BTreeSet<VarId> = BTreeSet::new();
            written.extend(then_blk.assigned_vars());
            written.extend(else_blk.assigned_vars());
            written.extend(then_blk.let_vars());
            written.extend(else_blk.let_vars());
            for v in written {
                let k = env.var_kind(v);
                if k.is_none() || then_env.var_kind(v) != k || else_env.var_kind(v) != k {
                    env.remove_var(v);
                }
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            }
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            let lo = simplify_in(lo, env);
            let hi = simplify_in(hi, env);
            env.set_var(*var, ValueKind::Int);
            // A variable assigned (or re-`Let`) anywhere in the body
            // changes kind for iterations after the first, so
            // statements *before* that write cannot rely on its
            // pre-loop binding.
            for v in body.assigned_vars().union(&body.let_vars()) {
                env.remove_var(*v);
            }
            let body = simplify_block_in(body, env);
            // After the loop the env must not claim post-iteration
            // kinds either: with a zero-trip count (bounds are
            // runtime values) none of the body's writes happened, so
            // a read after the loop may still see the pre-loop
            // binding. Retract everything the body wrote — unless
            // both bounds are constants proving at least one trip,
            // in which case the body-exit kinds (computed above
            // under the retracted entry env, so valid for any
            // iteration) are exactly what a post-loop read sees.
            let guaranteed_trip = matches!((&lo, &hi), (Expr::IConst(a), Expr::IConst(b)) if b > a);
            if !guaranteed_trip {
                for v in body.assigned_vars().union(&body.let_vars()) {
                    env.remove_var(*v);
                }
            }
            Stmt::For {
                var: *var,
                lo,
                hi,
                step: *step,
                body,
            }
        }
        Stmt::Barrier => Stmt::Barrier,
        Stmt::Atomic {
            op,
            array,
            index,
            value,
        } => Stmt::Atomic {
            op: *op,
            array: *array,
            index: simplify_in(index, env),
            value: simplify_in(value, env),
        },
    }
}

/// Simplify every expression of a kernel (bounds and body). Parallel
/// loop variables, declared locals, and `Let`/`For` bindings all feed
/// the kind environment, so loop-index debris like `i + 0` folds.
pub fn simplify_kernel(k: &mut Kernel) {
    simplify_kernel_in(k, &KindEnv::new())
}

/// [`simplify_kernel`] with an ambient environment — typically
/// [`KindEnv::for_program`], so `Param` kinds are known and identities
/// like `n * 1` fold.
pub fn simplify_kernel_in(k: &mut Kernel, base: &KindEnv) {
    let mut env = base.clone();
    for (var, ty) in &k.locals {
        env.set_var(*var, scalar_kind(*ty));
    }
    for lp in &mut k.loops {
        lp.lo = simplify_in(&lp.lo, &env);
        lp.hi = simplify_in(&lp.hi, &env);
        env.set_var(lp.var, ValueKind::Int);
    }
    // Phases share one scope: a phase-1 `Let` (e.g. the thread id) is
    // read by every later phase.
    for b in k.blocks_mut() {
        *b = simplify_block_in(b, &mut env);
    }
    if let Some(rr) = &mut k.region_reduction {
        rr.value = simplify_in(&rr.value, &env);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::E;
    use crate::types::VarId;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Environment declaring `v(0)` as an integer variable.
    fn int_env() -> KindEnv {
        let mut e = KindEnv::new();
        e.set_var(v(0), ValueKind::Int);
        e
    }

    /// Environment declaring `v(0)` as an `F32` (narrowed-float)
    /// variable, as a `Let` with that type would.
    fn float_env() -> KindEnv {
        let mut e = KindEnv::new();
        e.set_var_scalar(v(0), Scalar::F32);
        e
    }

    #[test]
    fn folds_integer_arithmetic() {
        let e = (E::from(3i64) * 4i64 + 5i64).expr();
        assert_eq!(simplify(&e), Expr::IConst(17));
    }

    /// A shadowing `Let` inside an `If` branch writes the same
    /// underlying slot, so after the `If` the variable's runtime kind
    /// is no longer the outer declaration's: `x + 0` must not fold
    /// (at runtime `x` holds the branch's f64, and the float path of
    /// `+ 0` narrows through f32 — dropping it would change bits).
    #[test]
    fn branch_shadow_let_retracts_kind() {
        let x = v(0);
        let b = Block::new(vec![
            Stmt::Let {
                var: x,
                ty: Scalar::I32,
                init: Expr::iconst(1),
            },
            Stmt::If {
                cond: Expr::BConst(true),
                then_blk: Block::new(vec![Stmt::Let {
                    var: x,
                    ty: Scalar::F64,
                    init: Expr::FConst(0.1),
                }]),
                else_blk: Block::new(vec![]),
            },
            Stmt::Let {
                var: v(1),
                ty: Scalar::F64,
                init: Expr::bin(BinOp::Add, Expr::var(x), Expr::iconst(0)),
            },
        ]);
        let out = simplify_block_in(&b, &mut KindEnv::new());
        let Stmt::Let { init, .. } = &out.0[2] else {
            panic!("shape preserved");
        };
        assert!(
            matches!(init, Expr::Bin(BinOp::Add, _, _)),
            "x + 0 folded despite branch-shadowed kind: {init:?}"
        );
    }

    /// A `For` body's writes may never happen (zero-trip count), so
    /// after the loop the env must not claim the post-iteration kind:
    /// `x` may still hold its pre-loop f64, and folding `x + 0` as an
    /// integer identity would skip the narrowing float path.
    #[test]
    fn zero_trip_for_assign_retracts_kind() {
        let x = v(0);
        let b = Block::new(vec![
            Stmt::Let {
                var: x,
                ty: Scalar::F64,
                init: Expr::FConst(0.1),
            },
            Stmt::For {
                var: v(1),
                lo: Expr::iconst(0),
                hi: Expr::var(v(2)),
                step: 1,
                body: Block::new(vec![Stmt::Assign {
                    var: x,
                    value: Expr::iconst(1),
                }]),
            },
            Stmt::Let {
                var: v(3),
                ty: Scalar::F64,
                init: Expr::bin(BinOp::Add, Expr::var(x), Expr::iconst(0)),
            },
        ]);
        let mut env = KindEnv::new();
        env.set_var(v(2), ValueKind::Int);
        let out = simplify_block_in(&b, &mut env);
        let Stmt::Let { init, .. } = &out.0[2] else {
            panic!("shape preserved");
        };
        assert!(
            matches!(init, Expr::Bin(BinOp::Add, _, _)),
            "x + 0 folded despite zero-trip loop hazard: {init:?}"
        );
    }

    #[test]
    fn removes_additive_and_multiplicative_identities() {
        let env = int_env();
        let x = Expr::var(v(0));
        assert_eq!(
            simplify_in(&Expr::bin(BinOp::Add, x.clone(), Expr::iconst(0)), &env),
            x
        );
        assert_eq!(
            simplify_in(&Expr::bin(BinOp::Mul, Expr::iconst(1), x.clone()), &env),
            x
        );
        assert_eq!(
            simplify_in(&Expr::bin(BinOp::Div, x.clone(), Expr::iconst(1)), &env),
            x
        );
        assert_eq!(
            simplify_in(&Expr::bin(BinOp::Mul, x.clone(), Expr::iconst(0)), &env),
            Expr::IConst(0)
        );
    }

    #[test]
    fn unknown_kind_blocks_kind_changing_identities() {
        // With no kind information a variable could be float-valued
        // (so `x + 0` is inexact for -0.0) or boolean (so `x * 1`
        // would change the value class). Only `x * 0`-free, kind-safe
        // folds may touch it — which is none of the identities.
        let x = Expr::var(v(0));
        for e in [
            Expr::bin(BinOp::Add, x.clone(), Expr::iconst(0)),
            Expr::bin(BinOp::Sub, x.clone(), Expr::iconst(0)),
            Expr::bin(BinOp::Mul, x.clone(), Expr::iconst(1)),
            Expr::bin(BinOp::Mul, x.clone(), Expr::iconst(0)),
            Expr::bin(BinOp::Div, x.clone(), Expr::iconst(1)),
        ] {
            assert_eq!(simplify(&e), e, "kind-unknown {e:?} must not fold");
        }
    }

    #[test]
    fn reassociates_constant_chains() {
        // (i + 2) + 3 → i + 5; (i - 1) + 1 → i — integer i only.
        let env = int_env();
        let i = Expr::var(v(0));
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, i.clone(), Expr::iconst(2)),
            Expr::iconst(3),
        );
        assert_eq!(
            simplify_in(&e, &env),
            Expr::bin(BinOp::Add, i.clone(), Expr::iconst(5))
        );
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Sub, i.clone(), Expr::iconst(1)),
            Expr::iconst(1),
        );
        assert_eq!(simplify_in(&e, &env), i);
        // A float-kinded accumulator must not reassociate: f32
        // addition is not associative.
        let fe = float_env();
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, i.clone(), Expr::iconst(1 << 24)),
            Expr::iconst(-(1 << 24)),
        );
        assert_eq!(simplify_in(&e, &fe), e);
    }

    #[test]
    fn float_identities_are_conservative() {
        let env = float_env();
        let x = Expr::var(v(0));
        // x - (+0.0) is bitwise-exact and folds…
        assert_eq!(
            simplify_in(&Expr::bin(BinOp::Sub, x.clone(), Expr::fconst(0.0)), &env),
            x
        );
        // …but x * 0.0 must NOT fold to 0.0 (NaN/Inf semantics).
        let e = Expr::bin(BinOp::Mul, x.clone(), Expr::fconst(0.0));
        assert_eq!(simplify_in(&e, &env), e);
        // And no float reassociation happens.
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, x, Expr::fconst(2.0)),
            Expr::fconst(3.0),
        );
        assert_eq!(simplify_in(&e, &env), e);
    }

    #[test]
    fn float_zero_identities_preserve_negative_zero() {
        // Regression: `x + 0.0 → x` matched via `*z == 0.0`, which is
        // true for -0.0 too. IEEE-754 says `-0.0 + 0.0 == +0.0`, so
        // the fold rewrote a +0.0 result back to -0.0 — a bitwise
        // divergence the conformance harness flags. Only `x - (+0.0)`
        // is exact.
        let env = float_env();
        let x = Expr::var(v(0));
        // Additive forms stay put…
        let e = Expr::bin(BinOp::Add, x.clone(), Expr::fconst(0.0));
        assert_eq!(simplify_in(&e, &env), e);
        let e = Expr::bin(BinOp::Add, x.clone(), Expr::fconst(-0.0));
        assert_eq!(simplify_in(&e, &env), e);
        // …as does subtraction of -0.0 (`-0.0 - (-0.0) == +0.0`)…
        let e = Expr::bin(BinOp::Sub, x.clone(), Expr::fconst(-0.0));
        assert_eq!(simplify_in(&e, &env), e);
        // …while subtraction of +0.0 folds.
        let e = Expr::bin(BinOp::Sub, x.clone(), Expr::fconst(0.0));
        assert_eq!(simplify_in(&e, &env), x);
    }

    #[test]
    fn integer_folds_wrap_like_the_engines() {
        // Regression: plain `+`/`*`/`<<` here panicked in debug builds
        // on overflow while both execution engines wrap.
        let add = Expr::bin(BinOp::Add, Expr::iconst(i64::MAX), Expr::iconst(1));
        assert_eq!(simplify(&add), Expr::IConst(i64::MIN));
        let mul = Expr::bin(BinOp::Mul, Expr::iconst(i64::MAX), Expr::iconst(2));
        assert_eq!(simplify(&mul), Expr::IConst(-2));
        let sub = Expr::bin(BinOp::Sub, Expr::iconst(i64::MIN), Expr::iconst(1));
        assert_eq!(simplify(&sub), Expr::IConst(i64::MAX));
        // Unary folds wrap too (i64::MIN has no positive counterpart).
        let neg = Expr::un(UnOp::Neg, Expr::iconst(i64::MIN));
        assert_eq!(simplify(&neg), Expr::IConst(i64::MIN));
        let abs = Expr::un(UnOp::Abs, Expr::iconst(i64::MIN));
        assert_eq!(simplify(&abs), Expr::IConst(i64::MIN));
        // Reassociated constants wrap as well.
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Add, Expr::var(v(0)), Expr::iconst(i64::MAX)),
            Expr::iconst(1),
        );
        assert_eq!(
            simplify_in(&e, &int_env()),
            Expr::bin(BinOp::Add, Expr::var(v(0)), Expr::iconst(i64::MIN))
        );
    }

    #[test]
    fn out_of_range_shifts_do_not_fold() {
        // The oracle rejects shifts outside 0..64; folding the masked
        // value would turn that rejection into a silent number.
        for op in [BinOp::Shl, BinOp::Shr] {
            for sh in [64i64, 127, -1] {
                let e = Expr::bin(op, Expr::iconst(1), Expr::iconst(sh));
                assert_eq!(simplify(&e), e, "{op:?} by {sh} must stay unfolded");
            }
            let e = Expr::bin(op, Expr::iconst(8), Expr::iconst(2));
            assert!(matches!(simplify(&e), Expr::IConst(_)));
        }
        // Division overflow stays unfolded for the same reason: the
        // interpreter traps on i64::MIN / -1.
        let e = Expr::bin(BinOp::Div, Expr::iconst(i64::MIN), Expr::iconst(-1));
        assert_eq!(simplify(&e), e);
    }

    #[test]
    fn int_to_f32_cast_folds_through_f64_like_the_interpreter() {
        // 2^61 + 2^37 + 1: i64→f32 directly rounds up to 2^61 + 2^38,
        // but the interpreter widens to f64 first (2^61 + 2^37, which
        // then ties to even at f32: 2^61). The fold must match the
        // interpreter, not the one-step cast.
        let v = (1i64 << 61) + (1i64 << 37) + 1;
        let direct = v as f32 as f64;
        let via_f64 = (v as f64) as f32 as f64;
        assert_ne!(direct.to_bits(), via_f64.to_bits());
        let e = Expr::cast(crate::types::Scalar::F32, Expr::iconst(v));
        assert_eq!(simplify(&e), Expr::FConst(via_f64));
    }

    #[test]
    fn selects_with_constant_conditions_collapse() {
        let e = Expr::select(Expr::BConst(true), Expr::iconst(1), Expr::iconst(2));
        assert_eq!(simplify(&e), Expr::IConst(1));
        let e = Expr::select(
            Expr::cmp(crate::expr::CmpOp::Lt, Expr::iconst(5), Expr::iconst(3)),
            Expr::iconst(1),
            Expr::iconst(2),
        );
        // 5 < 3 is not folded (Cmp folding is out of scope), so the
        // select survives — conservative is fine.
        assert!(matches!(simplify(&e), Expr::Select(..)));
    }

    #[test]
    fn double_negation_cancels() {
        let x = Expr::var(v(0));
        let e = Expr::un(UnOp::Neg, Expr::un(UnOp::Neg, x.clone()));
        assert_eq!(simplify_in(&e, &int_env()), x);
        assert_eq!(simplify_in(&e, &float_env()), x);
        // Unknown kind: a boolean inner value would be coerced to
        // float by the inner negation, so the fold must not fire.
        assert_eq!(simplify(&e), e);
    }

    #[test]
    fn un_narrowed_floats_block_identity_folds() {
        // An F64 binding is not coerced through f32, so dropping a
        // `* 1.0` would skip the rounding the engines apply.
        let mut f64_env = KindEnv::new();
        f64_env.set_var_scalar(v(0), Scalar::F64);
        let x = Expr::var(v(0));
        let e = Expr::bin(BinOp::Mul, x.clone(), Expr::FConst(1.0));
        assert_eq!(simplify_in(&e, &f64_env), e);
        let e = Expr::bin(BinOp::Sub, x.clone(), Expr::FConst(0.0));
        assert_eq!(simplify_in(&e, &f64_env), e);

        // 0.1 is not f32-representable: 0.1 * 1.0 evaluates to
        // `0.1f32 as f64`, not 0.1, so the literal must not fold...
        let e = Expr::bin(BinOp::Mul, Expr::FConst(0.1), Expr::FConst(1.0));
        assert_eq!(simplify_in(&e, &KindEnv::new()), e);
        // ...while an f32-exact literal does.
        let e = Expr::bin(BinOp::Mul, Expr::FConst(1.5), Expr::FConst(1.0));
        assert_eq!(simplify_in(&e, &KindEnv::new()), Expr::FConst(1.5));

        // Rcp is computed in f64 by the engines, so its result is not
        // narrowed even when its operand is an F32 variable.
        let e = Expr::bin(
            BinOp::Mul,
            Expr::un(UnOp::Rcp, x.clone()),
            Expr::FConst(1.0),
        );
        assert_eq!(simplify_in(&e, &float_env()), e);

        // Float *arithmetic* narrows its result, so identity folds
        // apply one op up regardless of the leaves.
        let sum = Expr::bin(BinOp::Add, x.clone(), Expr::FConst(0.5));
        let e = Expr::bin(BinOp::Sub, sum.clone(), Expr::FConst(0.0));
        assert_eq!(simplify_in(&e, &f64_env), sum);
    }

    #[test]
    fn assign_retracts_stale_kinds() {
        use crate::builder::assign;
        // let x: I32 = 0; x = 1.5; y = x + 0 — after the float
        // assignment, `x + 0` runs the float path where `+ 0` is not
        // an identity, so the fold must not fire.
        let b = Block::new(vec![
            Stmt::Let {
                var: v(0),
                ty: Scalar::I32,
                init: Expr::IConst(0),
            },
            assign(v(0), E::from(1.5)),
            assign(v(1), E::from(Expr::var(v(0))) + 0i64),
        ]);
        let out = simplify_block(&b);
        let Stmt::Assign { value, .. } = &out.0[2] else {
            panic!("expected assign");
        };
        assert_eq!(
            *value,
            Expr::bin(BinOp::Add, Expr::var(v(0)), Expr::IConst(0))
        );

        // Same retraction for a variable mutated inside a loop body:
        // iteration 2 sees the float value, so even the use *before*
        // the assignment must stay conservative.
        let b = Block::new(vec![
            Stmt::Let {
                var: v(0),
                ty: Scalar::I32,
                init: Expr::IConst(0),
            },
            Stmt::For {
                var: v(2),
                lo: Expr::IConst(0),
                hi: Expr::IConst(4),
                step: 1,
                body: Block::new(vec![
                    assign(v(1), E::from(Expr::var(v(0))) + 0i64),
                    assign(v(0), E::from(1.5)),
                ]),
            },
        ]);
        let out = simplify_block(&b);
        let Stmt::For { body, .. } = &out.0[1] else {
            panic!("expected for");
        };
        let Stmt::Assign { value, .. } = &body.0[0] else {
            panic!("expected assign");
        };
        assert_eq!(
            *value,
            Expr::bin(BinOp::Add, Expr::var(v(0)), Expr::IConst(0))
        );
    }

    #[test]
    fn simplify_kernel_touches_bounds_and_body() {
        use crate::builder::{st, ProgramBuilder};
        use crate::kernel::ParallelLoop;
        use crate::types::{Intent, Scalar};
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut k = crate::kernel::Kernel::simple(
            "k",
            vec![ParallelLoop::new(
                i,
                (E::from(0i64) + 0i64).expr(),
                (E::from(n) * 1i64).expr(),
            )],
            Block::new(vec![st(a, E::from(i) + 0i64, E::from(1.0) * 2.0)]),
        );
        let p = b.finish(vec![]);
        simplify_kernel_in(&mut k, &KindEnv::for_program(&p));
        assert_eq!(k.loops[0].lo, Expr::IConst(0));
        assert_eq!(k.loops[0].hi, Expr::param(n));
        if let Stmt::Store { index, .. } = &k.simple_body().unwrap().0[0] {
            assert_eq!(*index, Expr::var(i));
        } else {
            panic!("expected store");
        }
    }
}
