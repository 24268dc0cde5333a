//! Statements and blocks: the body language of kernels.

use crate::expr::Expr;
use crate::types::{ArrayId, MemSpace, Scalar, VarId};
use std::collections::BTreeSet;

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block(pub Vec<Stmt>);

impl Block {
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block(stmts)
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Pre-order walk over every statement (including nested ones).
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        for s in &self.0 {
            s.walk(f);
        }
    }

    /// Walk every expression appearing anywhere in the block.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.walk(&mut |s| s.for_each_expr(&mut |e| e.walk(f)));
    }

    /// Every variable a `Stmt::Assign` anywhere in the block (nested
    /// `If`/`For` bodies included) writes.
    pub fn assigned_vars(&self) -> BTreeSet<VarId> {
        self.vars_where(|s| match s {
            Stmt::Assign { var, .. } => Some(*var),
            _ => None,
        })
    }

    /// Every variable a `Stmt::Let` anywhere in the block rebinds. `Let`
    /// writes the variable's slot even though the name is block-scoped,
    /// so a `Let` inside a branch or loop body changes what a later
    /// read outside it observes.
    pub fn let_vars(&self) -> BTreeSet<VarId> {
        self.vars_where(|s| match s {
            Stmt::Let { var, .. } => Some(*var),
            _ => None,
        })
    }

    /// Every variable a sequential `For` anywhere in the block binds.
    pub fn for_vars(&self) -> BTreeSet<VarId> {
        self.vars_where(|s| match s {
            Stmt::For { var, .. } => Some(*var),
            _ => None,
        })
    }

    fn vars_where(&self, pick: impl Fn(&Stmt) -> Option<VarId>) -> BTreeSet<VarId> {
        let mut out = BTreeSet::new();
        self.walk(&mut |s| out.extend(pick(s)));
        out
    }

    /// Substitute variable `v` with `with` throughout the block.
    pub fn subst_var(&self, v: VarId, with: &Expr) -> Block {
        Block(self.0.iter().map(|s| s.subst_var(v, with)).collect())
    }

    /// Collect all `(space, array, index)` store targets in the block.
    pub fn collect_stores<'a>(&'a self, out: &mut Vec<(MemSpace, ArrayId, &'a Expr)>) {
        for s in &self.0 {
            match s {
                Stmt::Store {
                    space,
                    array,
                    index,
                    ..
                } => out.push((*space, *array, index)),
                Stmt::If {
                    then_blk, else_blk, ..
                } => {
                    then_blk.collect_stores(out);
                    else_blk.collect_stores(out);
                }
                Stmt::For { body, .. } => body.collect_stores(out),
                _ => {}
            }
        }
    }
}

/// Kernel-body statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare-and-initialize a kernel-local scalar.
    Let { var: VarId, ty: Scalar, init: Expr },
    /// Re-assign a previously declared local scalar.
    Assign { var: VarId, value: Expr },
    /// `array[index] = value`.
    Store {
        space: MemSpace,
        array: ArrayId,
        index: Expr,
        value: Expr,
    },
    /// Two-armed conditional.
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Block,
    },
    /// A *sequential* inner loop `for (var = lo; var < hi; var += step)`.
    ///
    /// Parallel loops live in [`crate::kernel::ParallelLoop`]; this is
    /// the loop the unroll (step 3) and tile (step 4) transformations
    /// operate on.
    For {
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: i64,
        body: Block,
    },
    /// Work-group barrier. Only meaningful inside staged (work-group)
    /// kernel bodies; lowered to PTX `bar.sync`.
    Barrier,
    /// OpenACC 2.0 atomics directive (Section II-B, feature 3):
    /// `#pragma acc atomic` around `array[index] ⊕= value`. Atomic
    /// updates synchronize, so the dependence analysis does not treat
    /// them as parallelization hazards.
    Atomic {
        op: crate::kernel::ReduceOp,
        array: ArrayId,
        index: Expr,
        value: Expr,
    },
}

impl Stmt {
    pub fn walk(&self, f: &mut impl FnMut(&Stmt)) {
        f(self);
        match self {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                then_blk.walk(f);
                else_blk.walk(f);
            }
            Stmt::For { body, .. } => body.walk(f),
            _ => {}
        }
    }

    /// Visit each *directly owned* expression of this statement (not
    /// of nested statements — combine with [`Stmt::walk`] for that).
    pub fn for_each_expr(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            Stmt::Let { init, .. } => f(init),
            Stmt::Assign { value, .. } => f(value),
            Stmt::Store { index, value, .. } => {
                f(index);
                f(value);
            }
            Stmt::If { cond, .. } => f(cond),
            Stmt::For { lo, hi, .. } => {
                f(lo);
                f(hi);
            }
            Stmt::Barrier => {}
            Stmt::Atomic { index, value, .. } => {
                f(index);
                f(value);
            }
        }
    }

    pub fn subst_var(&self, v: VarId, with: &Expr) -> Stmt {
        match self {
            Stmt::Let { var, ty, init } => Stmt::Let {
                var: *var,
                ty: *ty,
                init: init.subst_var(v, with),
            },
            Stmt::Assign { var, value } => Stmt::Assign {
                var: *var,
                value: value.subst_var(v, with),
            },
            Stmt::Store {
                space,
                array,
                index,
                value,
            } => Stmt::Store {
                space: *space,
                array: *array,
                index: index.subst_var(v, with),
                value: value.subst_var(v, with),
            },
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => Stmt::If {
                cond: cond.subst_var(v, with),
                then_blk: then_blk.subst_var(v, with),
                else_blk: else_blk.subst_var(v, with),
            },
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => Stmt::For {
                var: *var,
                lo: lo.subst_var(v, with),
                hi: hi.subst_var(v, with),
                step: *step,
                // Shadowing: an inner loop over the same name stops
                // substitution (builders never shadow, but stay sound).
                body: if *var == v {
                    body.clone()
                } else {
                    body.subst_var(v, with)
                },
            },
            Stmt::Barrier => Stmt::Barrier,
            Stmt::Atomic {
                op,
                array,
                index,
                value,
            } => Stmt::Atomic {
                op: *op,
                array: *array,
                index: index.subst_var(v, with),
                value: value.subst_var(v, with),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn walk_visits_nested_statements() {
        let blk = Block::new(vec![Stmt::If {
            cond: Expr::BConst(true),
            then_blk: Block::new(vec![Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(0),
                index: Expr::var(v(0)),
                value: Expr::fconst(1.0),
            }]),
            else_blk: Block::default(),
        }]);
        let mut n = 0;
        blk.walk(&mut |_| n += 1);
        assert_eq!(n, 2); // If + Store
    }

    #[test]
    fn collect_stores_sees_through_loops() {
        let blk = Block::new(vec![Stmt::For {
            var: v(1),
            lo: Expr::iconst(0),
            hi: Expr::iconst(4),
            step: 1,
            body: Block::new(vec![Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(7),
                index: Expr::var(v(1)),
                value: Expr::fconst(0.0),
            }]),
        }]);
        let mut stores = Vec::new();
        blk.collect_stores(&mut stores);
        assert_eq!(stores.len(), 1);
        assert_eq!(stores[0].1, ArrayId(7));
    }

    #[test]
    fn subst_respects_shadowing() {
        let inner_store = Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: Expr::var(v(0)),
            value: Expr::fconst(0.0),
        };
        let loop_over_v0 = Stmt::For {
            var: v(0),
            lo: Expr::iconst(0),
            hi: Expr::var(v(0)), // bound uses the *outer* v0
            step: 1,
            body: Block::new(vec![inner_store]),
        };
        let s = loop_over_v0.subst_var(v(0), &Expr::iconst(9));
        if let Stmt::For { hi, body, .. } = s {
            assert_eq!(hi, Expr::iconst(9)); // bound substituted
                                             // body untouched because var is shadowed by the loop
            if let Stmt::Store { index, .. } = &body.0[0] {
                assert_eq!(*index, Expr::var(v(0)));
            } else {
                panic!("expected store");
            }
        } else {
            panic!("expected for");
        }
    }

    #[test]
    fn walk_exprs_reaches_loop_bounds() {
        let blk = Block::new(vec![Stmt::For {
            var: v(1),
            lo: Expr::iconst(0),
            hi: Expr::bin(BinOp::Add, Expr::var(v(2)), Expr::iconst(1)),
            step: 1,
            body: Block::default(),
        }]);
        let mut saw_v2 = false;
        blk.walk_exprs(&mut |e| {
            if matches!(e, Expr::Var(x) if *x == v(2)) {
                saw_v2 = true;
            }
        });
        assert!(saw_v2);
    }
}
