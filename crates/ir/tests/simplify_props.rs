//! Property tests for `simplify`: for random well-typed expression
//! trees, the simplified tree evaluates **bitwise-equal** to the
//! original under the engines' evaluation rules — including `-0.0`,
//! NaN payloads, infinities, i64 overflow, and the f32-narrowed float
//! path — and simplification is a fixpoint (running it twice changes
//! nothing).
//!
//! The reference evaluator below mirrors `paccport-devsim`'s
//! interpreter (`interp::bin`/`coerce`) with the conformance oracle's
//! trap discipline for the cases where the interpreter would panic:
//! division by zero, `i64::MIN / -1`, and shifts outside `0..64` are
//! `Err` (both engines reject or trap on them), and integer overflow
//! wraps (the engines' release-mode semantics, which the oracle makes
//! explicit with `wrapping_*`). Expressions that trap are skipped —
//! the exactness contract is conditional on the original evaluating.

use paccport_ir::{
    simplify_in, value_kind, BinOp, CmpOp, Expr, KindEnv, Scalar, UnOp, ValueKind, VarId,
};
use paccport_trace::rng::Rng;
use proptest::prelude::*;

// ---------------------------------------------------------------
// Reference evaluator (engine semantics, trap-as-Err)
// ---------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum V {
    I(i64),
    F(f64),
    B(bool),
}

fn as_f(v: V) -> f64 {
    match v {
        V::I(v) => v as f64,
        V::F(v) => v,
        V::B(v) => v as i64 as f64,
    }
}

fn as_i(v: V) -> i64 {
    match v {
        V::I(v) => v,
        V::F(v) => v as i64,
        V::B(v) => v as i64,
    }
}

fn as_b(v: V) -> bool {
    match v {
        V::I(v) => v != 0,
        V::F(v) => v != 0.0,
        V::B(v) => v,
    }
}

/// Bitwise value equality: floats compare by `to_bits`, so `-0.0`
/// differs from `+0.0` and NaN payloads must match exactly.
fn v_eq(a: V, b: V) -> bool {
    match (a, b) {
        (V::I(x), V::I(y)) => x == y,
        (V::B(x), V::B(y)) => x == y,
        (V::F(x), V::F(y)) => x.to_bits() == y.to_bits(),
        _ => false,
    }
}

fn ebin(op: BinOp, a: V, b: V) -> Result<V, ()> {
    use BinOp::*;
    let float = matches!(a, V::F(_)) || matches!(b, V::F(_));
    match op {
        Add | Sub | Mul | Div | Rem | Min | Max => {
            if float {
                let x = as_f(a) as f32;
                let y = as_f(b) as f32;
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
                Ok(V::F(r as f64))
            } else {
                let x = as_i(a);
                let y = as_i(b);
                Ok(V::I(match op {
                    Add => x.wrapping_add(y),
                    Sub => x.wrapping_sub(y),
                    Mul => x.wrapping_mul(y),
                    Div | Rem => {
                        if y == 0 || (x == i64::MIN && y == -1) {
                            return Err(());
                        }
                        if matches!(op, Div) {
                            x / y
                        } else {
                            x % y
                        }
                    }
                    Min => x.min(y),
                    Max => x.max(y),
                    _ => unreachable!(),
                }))
            }
        }
        And => Ok(V::B(as_b(a) && as_b(b))),
        Or => Ok(V::B(as_b(a) || as_b(b))),
        Shl | Shr => {
            let y = as_i(b);
            if !(0..64).contains(&y) {
                return Err(());
            }
            let x = as_i(a);
            Ok(V::I(if matches!(op, Shl) { x << y } else { x >> y }))
        }
    }
}

fn ecmp(op: CmpOp, a: V, b: V) -> bool {
    let float = matches!(a, V::F(_)) || matches!(b, V::F(_));
    if float {
        let (x, y) = (as_f(a), as_f(b));
        match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        }
    } else {
        let (x, y) = (as_i(a), as_i(b));
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

fn eval(e: &Expr, vars: &[V]) -> Result<V, ()> {
    match e {
        Expr::IConst(v) => Ok(V::I(*v)),
        Expr::FConst(v) => Ok(V::F(*v)),
        Expr::BConst(v) => Ok(V::B(*v)),
        Expr::Var(id) => Ok(vars[id.0 as usize]),
        Expr::Un(op, a) => {
            let va = eval(a, vars)?;
            Ok(match op {
                UnOp::Neg => match va {
                    V::I(v) => V::I(v.wrapping_neg()),
                    other => V::F(-as_f(other)),
                },
                UnOp::Abs => match va {
                    V::I(v) => V::I(v.wrapping_abs()),
                    other => V::F(as_f(other).abs()),
                },
                UnOp::Rcp => V::F(1.0 / as_f(va)),
                UnOp::Sqrt => V::F(as_f(va).sqrt()),
                UnOp::Exp => V::F(as_f(va).exp()),
                UnOp::Not => V::B(!as_b(va)),
            })
        }
        Expr::Bin(op, a, b) => ebin(*op, eval(a, vars)?, eval(b, vars)?),
        Expr::Cmp(op, a, b) => Ok(V::B(ecmp(*op, eval(a, vars)?, eval(b, vars)?))),
        Expr::Fma(a, b, c) => {
            let x = as_f(eval(a, vars)?) as f32;
            let y = as_f(eval(b, vars)?) as f32;
            let z = as_f(eval(c, vars)?) as f32;
            Ok(V::F(x.mul_add(y, z) as f64))
        }
        // Lazy, like the interpreter: only the taken branch runs (and
        // only its traps count).
        Expr::Select(c, a, b) => {
            if as_b(eval(c, vars)?) {
                eval(a, vars)
            } else {
                eval(b, vars)
            }
        }
        Expr::Cast(ty, a) => {
            let v = eval(a, vars)?;
            Ok(match ty {
                Scalar::F32 => V::F(as_f(v) as f32 as f64),
                Scalar::F64 => V::F(as_f(v)),
                Scalar::I32 => V::I(as_i(v) as i32 as i64),
                Scalar::U32 => V::I(as_i(v) as u32 as i64),
                Scalar::Bool => V::B(as_b(v)),
            })
        }
        other => unreachable!("generator never emits {other:?}"),
    }
}

// ---------------------------------------------------------------
// Well-typed tree generator (splitmix64-driven)
// ---------------------------------------------------------------

/// Interesting i64 values: identities, overflow edges, shift edges.
const INTS: &[i64] = &[
    0,
    1,
    -1,
    2,
    3,
    7,
    -8,
    63,
    64,
    i64::MAX,
    i64::MIN,
    i64::MIN + 1,
    1 << 31,
    (1 << 62) + 3,
    -12345,
];

/// f32-representable floats, stored widened to f64 (the narrowed set
/// the engines produce): signed zeros, infinities, a qNaN with a
/// nonzero payload, a subnormal.
fn f32_values() -> Vec<f64> {
    [
        0.0f32,
        -0.0,
        1.0,
        -1.0,
        1.5,
        -2.25,
        0.5,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
        f32::MIN_POSITIVE,
        f32::from_bits(0x0000_0007),
        3.0e38,
    ]
    .iter()
    .map(|&v| v as f64)
    .collect()
}

/// f64 values with no exact f32 representation (plus a few that have
/// one) — what an `F64` binding or a literal like `0.1` can hold.
fn f64_values() -> Vec<f64> {
    vec![
        0.1,
        -0.1,
        1e300,
        -1e300,
        1.0 + f64::EPSILON,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::from_bits(0x7ff8_0000_00ab_cdef),
        2.5,
    ]
}

const V_INT0: VarId = VarId(0);
const V_INT1: VarId = VarId(1);
const V_F32: VarId = VarId(2);
const V_F64: VarId = VarId(3);
const V_BOOL0: VarId = VarId(4);
const V_BOOL1: VarId = VarId(5);

fn gen_leaf(kind: ValueKind, g: &mut Rng) -> Expr {
    match kind {
        ValueKind::Int => match g.below(3) {
            0 => Expr::var(V_INT0),
            1 => Expr::var(V_INT1),
            _ => Expr::iconst(INTS[g.below(INTS.len() as u64) as usize]),
        },
        ValueKind::Float => match g.below(4) {
            0 => Expr::var(V_F32),
            1 => Expr::var(V_F64),
            2 => {
                let t = f32_values();
                Expr::fconst(t[g.below(t.len() as u64) as usize])
            }
            _ => {
                let t = f64_values();
                Expr::fconst(t[g.below(t.len() as u64) as usize])
            }
        },
        ValueKind::Bool => match g.below(3) {
            0 => Expr::var(V_BOOL0),
            1 => Expr::var(V_BOOL1),
            _ => Expr::BConst(g.below(2) == 0),
        },
    }
}

fn any_kind(g: &mut Rng) -> ValueKind {
    match g.below(3) {
        0 => ValueKind::Int,
        1 => ValueKind::Float,
        _ => ValueKind::Bool,
    }
}

fn gen_expr(kind: ValueKind, depth: u32, g: &mut Rng) -> Expr {
    if depth == 0 || g.below(5) == 0 {
        return gen_leaf(kind, g);
    }
    let d = depth - 1;
    match kind {
        ValueKind::Int => match g.below(10) {
            0..=4 => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Min,
                    BinOp::Max,
                ][g.below(7) as usize];
                Expr::bin(op, gen_expr(kind, d, g), gen_expr(kind, d, g))
            }
            5 => {
                let op = if g.below(2) == 0 {
                    BinOp::Shl
                } else {
                    BinOp::Shr
                };
                // Mostly in-range shift amounts so folds get exercised;
                // out-of-range ones trap and prune the case.
                let rhs = if g.below(3) == 0 {
                    gen_expr(kind, d, g)
                } else {
                    Expr::iconst(g.below(70) as i64 - 3)
                };
                Expr::bin(op, gen_expr(kind, d, g), rhs)
            }
            6 => {
                let op = if g.below(2) == 0 {
                    UnOp::Neg
                } else {
                    UnOp::Abs
                };
                Expr::un(op, gen_expr(kind, d, g))
            }
            7 => Expr::select(
                gen_expr(ValueKind::Bool, d, g),
                gen_expr(kind, d, g),
                gen_expr(kind, d, g),
            ),
            8 => {
                let ty = if g.below(2) == 0 {
                    Scalar::I32
                } else {
                    Scalar::U32
                };
                Expr::cast(ty, gen_expr(any_kind(g), d, g))
            }
            _ => gen_leaf(kind, g),
        },
        ValueKind::Float => match g.below(10) {
            0..=3 => {
                let op = [
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::Mul,
                    BinOp::Div,
                    BinOp::Rem,
                    BinOp::Min,
                    BinOp::Max,
                ][g.below(7) as usize];
                // At least one float operand keeps the result on the
                // float path whatever the other side is.
                let (ka, kb) = match g.below(3) {
                    0 => (ValueKind::Float, ValueKind::Float),
                    1 => (ValueKind::Float, ValueKind::Int),
                    _ => (ValueKind::Int, ValueKind::Float),
                };
                Expr::bin(op, gen_expr(ka, d, g), gen_expr(kb, d, g))
            }
            4 => {
                let op = if g.below(2) == 0 {
                    UnOp::Neg
                } else {
                    UnOp::Abs
                };
                let operand = if g.below(5) == 0 {
                    // Neg/Abs of a boolean coerces to float.
                    gen_expr(ValueKind::Bool, d, g)
                } else {
                    gen_expr(ValueKind::Float, d, g)
                };
                Expr::un(op, operand)
            }
            5 => {
                let op = [UnOp::Rcp, UnOp::Sqrt, UnOp::Exp][g.below(3) as usize];
                Expr::un(op, gen_expr(any_kind(g), d, g))
            }
            6 => Expr::fma(
                gen_expr(any_kind(g), d, g),
                gen_expr(any_kind(g), d, g),
                gen_expr(any_kind(g), d, g),
            ),
            7 => Expr::select(
                gen_expr(ValueKind::Bool, d, g),
                gen_expr(kind, d, g),
                gen_expr(kind, d, g),
            ),
            8 => {
                let ty = if g.below(2) == 0 {
                    Scalar::F32
                } else {
                    Scalar::F64
                };
                Expr::cast(ty, gen_expr(any_kind(g), d, g))
            }
            _ => gen_leaf(kind, g),
        },
        ValueKind::Bool => match g.below(8) {
            0..=2 => {
                let op = [
                    CmpOp::Eq,
                    CmpOp::Ne,
                    CmpOp::Lt,
                    CmpOp::Le,
                    CmpOp::Gt,
                    CmpOp::Ge,
                ][g.below(6) as usize];
                let (ka, kb) = match g.below(4) {
                    0 => (ValueKind::Int, ValueKind::Int),
                    1 => (ValueKind::Float, ValueKind::Float),
                    2 => (ValueKind::Int, ValueKind::Float),
                    _ => (ValueKind::Bool, ValueKind::Bool),
                };
                Expr::cmp(op, gen_expr(ka, d, g), gen_expr(kb, d, g))
            }
            3 => {
                let op = if g.below(2) == 0 {
                    BinOp::And
                } else {
                    BinOp::Or
                };
                // And/Or coerce any operand kind through `as_b`.
                Expr::bin(op, gen_expr(any_kind(g), d, g), gen_expr(any_kind(g), d, g))
            }
            4 => Expr::un(UnOp::Not, gen_expr(any_kind(g), d, g)),
            5 => Expr::select(
                gen_expr(kind, d, g),
                gen_expr(kind, d, g),
                gen_expr(kind, d, g),
            ),
            6 => Expr::cast(Scalar::Bool, gen_expr(any_kind(g), d, g)),
            _ => gen_leaf(kind, g),
        },
    }
}

/// The kind environment matching the generator's variable conventions:
/// two `I32` ints, one narrowed `F32` float, one wide `F64` float, two
/// bools — modelling `Let` bindings with those declared types.
fn test_env() -> KindEnv {
    let mut env = KindEnv::new();
    env.set_var_scalar(V_INT0, Scalar::I32);
    env.set_var_scalar(V_INT1, Scalar::I32);
    env.set_var_scalar(V_F32, Scalar::F32);
    env.set_var_scalar(V_F64, Scalar::F64);
    env.set_var_scalar(V_BOOL0, Scalar::Bool);
    env.set_var_scalar(V_BOOL1, Scalar::Bool);
    env
}

/// Variable values consistent with `test_env`: the `F32` variable only
/// ever holds widened-f32 values (a `Let` with type `F32` coerces
/// through f32), the `F64` one anything.
fn test_vars(g: &mut Rng) -> Vec<V> {
    let f32s = f32_values();
    let f64s = f64_values();
    vec![
        V::I(INTS[g.below(INTS.len() as u64) as usize]),
        V::I(INTS[g.below(INTS.len() as u64) as usize]),
        V::F(f32s[g.below(f32s.len() as u64) as usize]),
        V::F(f64s[g.below(f64s.len() as u64) as usize]),
        V::B(g.below(2) == 0),
        V::B(g.below(2) == 0),
    ]
}

/// Structural equality with floats compared by bits: the derived
/// `PartialEq` on `Expr` says `FConst(NaN) != FConst(NaN)`, which
/// would fail the fixpoint check on trees simplify never touched.
fn expr_eq_bits(a: &Expr, b: &Expr) -> bool {
    match (a, b) {
        (Expr::FConst(x), Expr::FConst(y)) => x.to_bits() == y.to_bits(),
        (Expr::IConst(x), Expr::IConst(y)) => x == y,
        (Expr::BConst(x), Expr::BConst(y)) => x == y,
        (Expr::Var(x), Expr::Var(y)) => x == y,
        (Expr::Un(o1, a1), Expr::Un(o2, a2)) => o1 == o2 && expr_eq_bits(a1, a2),
        (Expr::Bin(o1, a1, b1), Expr::Bin(o2, a2, b2)) => {
            o1 == o2 && expr_eq_bits(a1, a2) && expr_eq_bits(b1, b2)
        }
        (Expr::Cmp(o1, a1, b1), Expr::Cmp(o2, a2, b2)) => {
            o1 == o2 && expr_eq_bits(a1, a2) && expr_eq_bits(b1, b2)
        }
        (Expr::Fma(a1, b1, c1), Expr::Fma(a2, b2, c2)) => {
            expr_eq_bits(a1, a2) && expr_eq_bits(b1, b2) && expr_eq_bits(c1, c2)
        }
        (Expr::Select(c1, a1, b1), Expr::Select(c2, a2, b2)) => {
            expr_eq_bits(c1, c2) && expr_eq_bits(a1, a2) && expr_eq_bits(b1, b2)
        }
        (Expr::Cast(t1, a1), Expr::Cast(t2, a2)) => t1 == t2 && expr_eq_bits(a1, a2),
        _ => false,
    }
}

fn runtime_kind(v: V) -> ValueKind {
    match v {
        V::I(_) => ValueKind::Int,
        V::F(_) => ValueKind::Float,
        V::B(_) => ValueKind::Bool,
    }
}

// ---------------------------------------------------------------
// Properties
// ---------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3000))]

    /// `simplify_in(e)` evaluates bitwise-equal to `e` whenever `e`
    /// evaluates at all, and the static kind analysis agrees with the
    /// runtime value class.
    #[test]
    fn simplify_is_bitwise_exact(seed in 0u64..u64::MAX) {
        let mut g = Rng::new(seed);
        let kind = any_kind(&mut g);
        let depth = 1 + g.below(4) as u32;
        let e = gen_expr(kind, depth, &mut g);
        let vars = test_vars(&mut g);
        let env = test_env();

        if let Ok(v0) = eval(&e, &vars) {
            if let Some(k) = value_kind(&e, &env) {
                prop_assert_eq!(k, runtime_kind(v0),
                    "static kind disagrees with runtime for {:?}", &e);
            }
            let s = simplify_in(&e, &env);
            let v1 = eval(&s, &vars);
            prop_assert!(v1.is_ok(),
                "simplification introduced a trap: {:?} -> {:?}", &e, &s);
            prop_assert!(v_eq(v0, v1.unwrap()),
                "{:?} = {:?} but simplified {:?} = {:?}", &e, v0, &s, v1);
        }
    }

    /// Simplification reaches a fixpoint in one application: running
    /// it a second time changes nothing. (The pass pipeline relies on
    /// this to terminate.)
    #[test]
    fn simplify_is_idempotent(seed in 0u64..u64::MAX) {
        let mut g = Rng::new(seed);
        let kind = any_kind(&mut g);
        let depth = 1 + g.below(4) as u32;
        let e = gen_expr(kind, depth, &mut g);
        let env = test_env();

        let once = simplify_in(&e, &env);
        let twice = simplify_in(&once, &env);
        prop_assert!(expr_eq_bits(&twice, &once),
            "not a fixpoint: {:?} -> {:?} -> {:?}", &e, &once, &twice);
    }

    /// With no kind information at all, only universally-exact folds
    /// may fire — exactness must hold for *any* runtime class the
    /// free variables take (ints here, floats and bools by kind-gate).
    #[test]
    fn untyped_simplify_is_exact_for_integer_vars(seed in 0u64..u64::MAX) {
        let mut g = Rng::new(seed);
        let e = gen_expr(ValueKind::Int, 1 + g.below(4) as u32, &mut g);
        let vars = test_vars(&mut g);

        if let Ok(v0) = eval(&e, &vars) {
            let s = simplify_in(&e, &KindEnv::new());
            let v1 = eval(&s, &vars);
            prop_assert!(v1.is_ok(),
                "simplification introduced a trap: {:?} -> {:?}", &e, &s);
            prop_assert!(v_eq(v0, v1.unwrap()),
                "{:?} = {:?} but simplified {:?} = {:?}", &e, v0, &s, v1);
        }
    }
}

/// The first draws of seed 11, pinned so the generated trees never
/// shift under the shared generator.
#[test]
fn tree_stream_known_answer() {
    let mut g = Rng::new(11);
    assert_eq!([g.below(4), g.below(1000), g.below(70)], [1, 545, 49]);
}
