//! Constant propagation + folding.
//!
//! Propagates `Let`-bound constants into the expressions that read
//! them, then reruns the bitwise-exact folder from
//! `paccport_ir::simplify` to collapse the newly constant subtrees.
//!
//! Propagation is only performed for variables whose runtime value is
//! *fully determined* by a single textual `Let`: variables that are
//! ever `Assign`ed, or that have more than one `Let` anywhere in the
//! kernel (shadowing re-declarations write the same underlying slot,
//! so a later read may observe either binding depending on control
//! flow), are never propagated. The propagated constant is the
//! *coerced* value — `Let` coerces its initializer through the
//! declared type, so `let x: f32 = 0.1` propagates the f64 value
//! `(0.1f32) as f64`, not `0.1`.

use paccport_ir::{simplify_kernel_in, Expr, KindEnv, Program, Scalar, Stmt, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// The value a `Let { ty, init }` binds when `init` is a literal, as
/// a literal — mirrors `coerce` in the reference interpreter. `None`
/// when the coercion is not representable as an IR literal of
/// identical runtime behavior.
fn coerced_const(init: &Expr, ty: Scalar) -> Option<Expr> {
    match (init, ty) {
        (Expr::IConst(v), Scalar::I32 | Scalar::U32) => Some(Expr::IConst(*v)),
        (Expr::IConst(v), Scalar::F32) => Some(Expr::FConst(((*v as f64) as f32) as f64)),
        (Expr::IConst(v), Scalar::F64) => Some(Expr::FConst(*v as f64)),
        (Expr::FConst(v), Scalar::F32) => Some(Expr::FConst((*v as f32) as f64)),
        (Expr::FConst(v), Scalar::F64) => Some(Expr::FConst(*v)),
        (Expr::BConst(v), Scalar::Bool) => Some(Expr::BConst(*v)),
        _ => None,
    }
}

fn fold_stmts(stmts: &mut [Stmt], consts: &BTreeMap<VarId, Expr>, distrusted: &BTreeSet<VarId>) {
    let mut map = consts.clone();
    for s in stmts.iter_mut() {
        for (v, c) in &map {
            *s = s.subst_var(*v, c);
        }
        match s {
            Stmt::Let { var, ty, init } => {
                if distrusted.contains(var) {
                    map.remove(var);
                } else {
                    match coerced_const(init, *ty) {
                        Some(c) => {
                            map.insert(*var, c);
                        }
                        None => {
                            map.remove(var);
                        }
                    }
                }
            }
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                fold_stmts(&mut then_blk.0, &map, distrusted);
                fold_stmts(&mut else_blk.0, &map, distrusted);
            }
            Stmt::For { body, .. } => {
                // The loop variable is never in the map (it has no
                // `Let`), and body-local bindings cannot leak out:
                // a single-`Let` variable scoped to the body is
                // unreadable after the loop, and multi-`Let`
                // variables are distrusted.
                fold_stmts(&mut body.0, &map, distrusted);
            }
            _ => {}
        }
    }
}

pub fn run(p: &mut Program) -> bool {
    let program_env = KindEnv::for_program(p);
    let mut changed = false;
    p.map_kernels(|k| {
        // Debug strings are a NaN-proof, deterministic change
        // detector (`PartialEq` on NaN would report a change
        // forever and spin the pipeline to its sweep cap).
        let before = format!("{k:?}");
        let mut distrusted: BTreeSet<VarId> = BTreeSet::new();
        let mut let_count: BTreeMap<VarId, usize> = BTreeMap::new();
        for b in k.blocks() {
            distrusted.extend(b.assigned_vars());
            b.walk(&mut |s| {
                if let Stmt::Let { var, .. } = s {
                    *let_count.entry(*var).or_insert(0) += 1;
                }
            });
        }
        for (v, n) in &let_count {
            if *n > 1 {
                distrusted.insert(*v);
            }
        }
        if let Some(r) = &k.reduction {
            // The accumulator is rebound by the engine per iteration.
            distrusted.insert(r.acc);
        }
        for b in k.blocks_mut() {
            fold_stmts(&mut b.0, &BTreeMap::new(), &distrusted);
        }
        simplify_kernel_in(k, &program_env);
        if format!("{k:?}") != before {
            changed = true;
        }
    });
    changed
}
