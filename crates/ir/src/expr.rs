//! The expression language of kernel bodies and loop bounds.

use crate::types::{ArrayId, MemSpace, ParamId, Scalar, VarId};

/// Unary operators. `Rcp`, `Abs`, `Neg` appear by name in the paper's
/// Table V PTX category listing; `Sqrt` is required by Hydro's
/// equation of state and Riemann solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Neg,
    Abs,
    /// Reciprocal `1/x` (PTX `rcp`).
    Rcp,
    Sqrt,
    /// Logical not (PTX `not`).
    Not,
    /// Exponential — used by Back Propagation's sigmoid `squash()`.
    Exp,
}

/// Binary operators (PTX `add/sub/mul/div/max/min`, logical
/// `and/or`, shifts `shl/shr`, integer `rem` for index arithmetic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    And,
    Or,
    Shl,
    Shr,
}

/// Comparison operators (lowered to PTX `setp.<cmp>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Built-in index variables available inside work-group ("staged")
/// kernel bodies — the OpenCL `get_local_id` / `get_group_id` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpecialVar {
    /// `get_local_id(dim)`
    LocalId(u8),
    /// `get_group_id(dim)`
    GroupId(u8),
    /// `get_local_size(dim)`
    LocalSize(u8),
    /// `get_num_groups(dim)`
    NumGroups(u8),
}

/// An expression tree.
///
/// Expressions are deliberately side-effect free; all stores go
/// through [`crate::stmt::Stmt`]. Index expressions into arrays are
/// plain integer-valued `Expr`s (arrays are 1-D; multi-dimensional
/// accesses are written linearized, `a[i*n + j]`, exactly as the
/// Rodinia OpenACC sources do).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Floating constant (stored as f64; narrowed at evaluation).
    FConst(f64),
    /// Integer constant.
    IConst(i64),
    /// Boolean constant.
    BConst(bool),
    /// Scalar program parameter.
    Param(ParamId),
    /// Loop induction variable or kernel-local scalar.
    Var(VarId),
    /// Work-group built-in (staged bodies only).
    Special(SpecialVar),
    Load {
        space: MemSpace,
        array: ArrayId,
        index: Box<Expr>,
    },
    Un(UnOp, Box<Expr>),
    Bin(BinOp, Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Fused multiply-add `a*b + c` (PTX `fma`/`mad`).
    Fma(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `cond ? a : b` (PTX `selp`).
    Select(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Explicit conversion (PTX `cvt`).
    Cast(Scalar, Box<Expr>),
}

impl Expr {
    /// Convenience constructors used heavily by the benchmark builders.
    pub fn param(p: ParamId) -> Self {
        Expr::Param(p)
    }
    pub fn var(v: VarId) -> Self {
        Expr::Var(v)
    }
    pub fn iconst(v: i64) -> Self {
        Expr::IConst(v)
    }
    pub fn fconst(v: f64) -> Self {
        Expr::FConst(v)
    }

    pub fn load(array: ArrayId, index: Expr) -> Self {
        Expr::Load {
            space: MemSpace::Global,
            array,
            index: Box::new(index),
        }
    }

    pub fn load_local(array: ArrayId, index: Expr) -> Self {
        Expr::Load {
            space: MemSpace::Local,
            array,
            index: Box::new(index),
        }
    }

    pub fn un(op: UnOp, a: Expr) -> Self {
        Expr::Un(op, Box::new(a))
    }
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Self {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Self {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }
    pub fn fma(a: Expr, b: Expr, c: Expr) -> Self {
        Expr::Fma(Box::new(a), Box::new(b), Box::new(c))
    }
    pub fn select(c: Expr, a: Expr, b: Expr) -> Self {
        Expr::Select(Box::new(c), Box::new(a), Box::new(b))
    }
    pub fn cast(to: Scalar, a: Expr) -> Self {
        Expr::Cast(to, Box::new(a))
    }

    /// Number of nodes in the expression tree (used by cost sanity
    /// checks and property tests).
    pub fn node_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |_| n += 1);
        n
    }

    /// Pre-order walk over all sub-expressions, including `self`.
    pub fn walk(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::FConst(_)
            | Expr::IConst(_)
            | Expr::BConst(_)
            | Expr::Param(_)
            | Expr::Var(_)
            | Expr::Special(_) => {}
            Expr::Load { index, .. } => index.walk(f),
            Expr::Un(_, a) | Expr::Cast(_, a) => a.walk(f),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Fma(a, b, c) | Expr::Select(a, b, c) => {
                a.walk(f);
                b.walk(f);
                c.walk(f);
            }
        }
    }

    /// Substitute every occurrence of variable `v` with `with`.
    /// Used by the unroll and tile loop transformations.
    pub fn subst_var(&self, v: VarId, with: &Expr) -> Expr {
        match self {
            Expr::Var(x) if *x == v => with.clone(),
            Expr::FConst(_)
            | Expr::IConst(_)
            | Expr::BConst(_)
            | Expr::Param(_)
            | Expr::Var(_)
            | Expr::Special(_) => self.clone(),
            Expr::Load {
                space,
                array,
                index,
            } => Expr::Load {
                space: *space,
                array: *array,
                index: Box::new(index.subst_var(v, with)),
            },
            Expr::Un(op, a) => Expr::Un(*op, Box::new(a.subst_var(v, with))),
            Expr::Cast(t, a) => Expr::Cast(*t, Box::new(a.subst_var(v, with))),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.subst_var(v, with)),
                Box::new(b.subst_var(v, with)),
            ),
            Expr::Cmp(op, a, b) => Expr::Cmp(
                *op,
                Box::new(a.subst_var(v, with)),
                Box::new(b.subst_var(v, with)),
            ),
            Expr::Fma(a, b, c) => Expr::Fma(
                Box::new(a.subst_var(v, with)),
                Box::new(b.subst_var(v, with)),
                Box::new(c.subst_var(v, with)),
            ),
            Expr::Select(a, b, c) => Expr::Select(
                Box::new(a.subst_var(v, with)),
                Box::new(b.subst_var(v, with)),
                Box::new(c.subst_var(v, with)),
            ),
        }
    }

    /// True if the expression mentions variable `v`.
    pub fn uses_var(&self, v: VarId) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Var(x) if *x == v) {
                found = true;
            }
        });
        found
    }

    /// True if the expression loads from memory, in any space.
    pub fn reads_memory(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| found |= matches!(e, Expr::Load { .. }));
        found
    }

    /// True if the expression mentions nothing but constants and
    /// program parameters: no variable, load or work-group built-in.
    pub fn reads_only_params(&self) -> bool {
        let mut only = true;
        self.walk(&mut |e| {
            only &= !matches!(e, Expr::Var(_) | Expr::Load { .. } | Expr::Special(_));
        });
        only
    }

    /// True if the expression reads any array in `Global` memory.
    pub fn reads_global(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                Expr::Load {
                    space: MemSpace::Global,
                    ..
                }
            ) {
                found = true;
            }
        });
        found
    }

    /// Collect `(array, index-expr)` pairs for every load, into `out`.
    pub fn collect_loads<'a>(&'a self, out: &mut Vec<(MemSpace, ArrayId, &'a Expr)>) {
        match self {
            Expr::Load {
                space,
                array,
                index,
            } => {
                out.push((*space, *array, index));
                index.collect_loads(out);
            }
            Expr::FConst(_)
            | Expr::IConst(_)
            | Expr::BConst(_)
            | Expr::Param(_)
            | Expr::Var(_)
            | Expr::Special(_) => {}
            Expr::Un(_, a) | Expr::Cast(_, a) => a.collect_loads(out),
            Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => {
                a.collect_loads(out);
                b.collect_loads(out);
            }
            Expr::Fma(a, b, c) | Expr::Select(a, b, c) => {
                a.collect_loads(out);
                b.collect_loads(out);
                c.collect_loads(out);
            }
        }
    }
}

// -------------------------------------------------------------------
// Affine analysis — shared by the dependence analysis (Table II) and
// by the compilers' coalescing heuristics.
// -------------------------------------------------------------------

/// A coefficient in an affine form: `k` or `k * param`.
///
/// This is exactly enough to express the linearized 2-D indices of the
/// benchmarks (`i*n + j` has coefficient `1*n` for `i` and `1` for
/// `j`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AffCoeff {
    pub k: i64,
    pub param: Option<ParamId>,
}

impl AffCoeff {
    pub fn constant(k: i64) -> Self {
        AffCoeff { k, param: None }
    }
    pub fn is_zero(&self) -> bool {
        self.k == 0
    }
}

/// An affine form `sum_i coeff_i * var_i + sum_j coeff_j * param_j + c`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AffineForm {
    /// Per-variable coefficients (absent ⇒ zero).
    pub vars: std::collections::BTreeMap<VarId, AffCoeff>,
    /// Per-parameter linear terms with integer coefficients.
    pub params: std::collections::BTreeMap<ParamId, i64>,
    /// Constant term.
    pub konst: i64,
}

impl AffineForm {
    fn constant(c: i64) -> Self {
        AffineForm {
            konst: c,
            ..Default::default()
        }
    }

    fn add(mut self, other: AffineForm) -> Self {
        for (v, c) in other.vars {
            match self.vars.entry(v) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let cur = *e.get();
                    if cur.param == c.param {
                        e.insert(AffCoeff {
                            k: cur.k + c.k,
                            param: cur.param,
                        });
                    } else {
                        // Mixed n*i + i terms: out of scope, but keep
                        // soundness by refusing (handled by caller).
                        e.insert(AffCoeff {
                            k: i64::MAX,
                            param: None,
                        });
                    }
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(c);
                }
            }
        }
        for (p, c) in other.params {
            *self.params.entry(p).or_insert(0) += c;
        }
        self.konst += other.konst;
        self
    }

    fn negate(mut self) -> Self {
        for c in self.vars.values_mut() {
            c.k = -c.k;
        }
        for c in self.params.values_mut() {
            *c = -*c;
        }
        self.konst = -self.konst;
        self
    }

    /// Coefficient of variable `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> AffCoeff {
        self.vars.get(&v).copied().unwrap_or(AffCoeff::constant(0))
    }

    /// The two forms are identical except possibly in their constant
    /// term; returns `Some(delta)` where `delta = self.konst - other.konst`.
    pub fn const_delta(&self, other: &AffineForm) -> Option<i64> {
        if self.vars == other.vars && self.params == other.params {
            Some(self.konst - other.konst)
        } else {
            None
        }
    }
}

/// Try to view an integer expression as an affine form over loop
/// variables and parameters. Returns `None` for anything non-affine
/// (indirect loads, products of two variables, selects, …), which the
/// dependence analysis treats conservatively.
pub fn to_affine(e: &Expr) -> Option<AffineForm> {
    match e {
        Expr::IConst(c) => Some(AffineForm::constant(*c)),
        Expr::Var(v) => {
            let mut f = AffineForm::default();
            f.vars.insert(*v, AffCoeff::constant(1));
            Some(f)
        }
        Expr::Param(p) => {
            let mut f = AffineForm::default();
            f.params.insert(*p, 1);
            Some(f)
        }
        Expr::Cast(_, a) => to_affine(a),
        Expr::Bin(BinOp::Add, a, b) => Some(to_affine(a)?.add(to_affine(b)?)),
        Expr::Bin(BinOp::Sub, a, b) => Some(to_affine(a)?.add(to_affine(b)?.negate())),
        Expr::Bin(BinOp::Mul, a, b) => mul_affine(a, b),
        _ => None,
    }
}

fn mul_affine(a: &Expr, b: &Expr) -> Option<AffineForm> {
    // Supported shapes: var * param, param * var, var * const,
    // const * var, param * const, const * const, const * param.
    let scale_by_const = |f: AffineForm, k: i64| -> AffineForm {
        let mut g = f;
        for c in g.vars.values_mut() {
            c.k *= k;
        }
        for c in g.params.values_mut() {
            *c *= k;
        }
        g.konst *= k;
        g
    };
    match (a, b) {
        (Expr::IConst(k), other) | (other, Expr::IConst(k)) => {
            Some(scale_by_const(to_affine(other)?, *k))
        }
        (Expr::Var(v), Expr::Param(p)) | (Expr::Param(p), Expr::Var(v)) => {
            let mut f = AffineForm::default();
            f.vars.insert(
                *v,
                AffCoeff {
                    k: 1,
                    param: Some(*p),
                },
            );
            Some(f)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }
    fn p(i: u32) -> ParamId {
        ParamId(i)
    }

    #[test]
    fn affine_linearized_2d_index() {
        // i*n + j
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var(v(0)), Expr::param(p(0))),
            Expr::var(v(1)),
        );
        let f = to_affine(&e).expect("affine");
        assert_eq!(
            f.coeff(v(0)),
            AffCoeff {
                k: 1,
                param: Some(p(0))
            }
        );
        assert_eq!(f.coeff(v(1)), AffCoeff::constant(1));
        assert_eq!(f.konst, 0);
    }

    #[test]
    fn affine_const_delta_detects_shift() {
        // A[i] vs A[i-1] — the Table II dependent loop.
        let a = to_affine(&Expr::var(v(0))).unwrap();
        let b = to_affine(&Expr::bin(BinOp::Sub, Expr::var(v(0)), Expr::iconst(1))).unwrap();
        assert_eq!(a.const_delta(&b), Some(1));
        assert_eq!(b.const_delta(&a), Some(-1));
    }

    #[test]
    fn affine_rejects_indirection() {
        // A[B[i]] — BFS-style indirect access must be non-affine.
        let e = Expr::load(ArrayId(1), Expr::var(v(0)));
        assert!(to_affine(&e).is_none());
    }

    #[test]
    fn affine_rejects_var_product() {
        let e = Expr::bin(BinOp::Mul, Expr::var(v(0)), Expr::var(v(1)));
        assert!(to_affine(&e).is_none());
    }

    #[test]
    fn subst_replaces_in_nested_loads() {
        let e = Expr::load(
            ArrayId(0),
            Expr::bin(BinOp::Add, Expr::var(v(3)), Expr::iconst(2)),
        );
        let s = e.subst_var(v(3), &Expr::iconst(7));
        assert!(!s.uses_var(v(3)));
        assert_eq!(s.node_count(), e.node_count());
    }

    #[test]
    fn collect_loads_finds_nested() {
        let e = Expr::load(ArrayId(0), Expr::load(ArrayId(1), Expr::var(v(0))));
        let mut loads = Vec::new();
        e.collect_loads(&mut loads);
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[0].1, ArrayId(0));
        assert_eq!(loads[1].1, ArrayId(1));
    }

    #[test]
    fn walk_counts_nodes() {
        let e = Expr::fma(Expr::var(v(0)), Expr::fconst(2.0), Expr::iconst(1));
        assert_eq!(e.node_count(), 4);
    }

    #[test]
    fn scaled_affine_mul() {
        // 4*i + 2*n + 3
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::iconst(4), Expr::var(v(0))),
                Expr::bin(BinOp::Mul, Expr::param(p(0)), Expr::iconst(2)),
            ),
            Expr::iconst(3),
        );
        let f = to_affine(&e).unwrap();
        assert_eq!(f.coeff(v(0)), AffCoeff::constant(4));
        assert_eq!(f.params[&p(0)], 2);
        assert_eq!(f.konst, 3);
    }
}
