//! Common-subexpression elimination over pure expression trees.
//!
//! Within one block (per nesting level), repeated occurrences of a
//! structurally identical, `Load`-free, trap-free expression are
//! replaced by a fresh `Let`-bound temporary inserted before the
//! first occurrence:
//!
//! ```text
//! store b[i] = (x*y + 1) * (x*y + 1);      let cse7 = x*y + 1;
//! store c[i] = x*y + 1;              =>    store b[i] = cse7 * cse7;
//!                                          store c[i] = cse7;
//! ```
//!
//! The temporary's declared type is the *identity* scalar for the
//! expression's proven kind, so the `Let` coercion reproduces the
//! value bit for bit. Availability is purely syntactic: an occurrence
//! at a later statement only joins the candidate if no statement in
//! between (re)defines any variable the expression mentions —
//! `Assign` targets, `Let` bindings and `For` variables all count,
//! nested ones included ([`super::util::defs_of`]). Occurrences
//! inside nested blocks are never rewritten (an `If` branch may not
//! execute, so evaluating its expression early could change trap
//! *and* value behavior; `never_traps` covers traps but memory reads
//! are already excluded and partial-execution value semantics are
//! simply not worth modeling here).

use super::util::{
    defs_of, expr_vars, identity_scalar, kind_env_for_kernel, never_traps, replace_expr,
};
use crate::transforms::VarAlloc;
use paccport_ir::{value_kind, Block, Expr, KindEnv, Program, Scalar, Stmt, VarId};

struct Cand {
    expr: Expr,
    first: usize,
    last: usize,
    count: usize,
    live: bool,
}

fn for_each_expr_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Expr)) {
    match s {
        Stmt::Let { init, .. } => f(init),
        Stmt::Assign { value, .. } => f(value),
        Stmt::Store { index, value, .. } | Stmt::Atomic { index, value, .. } => {
            f(index);
            f(value);
        }
        Stmt::If { cond, .. } => f(cond),
        Stmt::For { lo, hi, .. } => {
            f(lo);
            f(hi);
        }
        Stmt::Barrier => {}
    }
}

/// Find the most profitable candidate in `b` (this level only) and
/// rewrite it. Returns `false` when nothing is worth doing.
fn apply_one(
    b: &mut Block,
    env: &KindEnv,
    va: &mut VarAlloc<'_>,
    new_locals: &mut Vec<(VarId, Scalar)>,
) -> bool {
    let mut cands: Vec<Cand> = Vec::new();
    for (j, s) in b.0.iter().enumerate() {
        s.for_each_expr(&mut |top| {
            top.walk(&mut |e| {
                if e.node_count() < 3 || e.reads_memory() {
                    return;
                }
                let hit = cands.iter().position(|c| c.live && c.expr == *e);
                if let Some(i) = hit {
                    cands[i].count += 1;
                    cands[i].last = j;
                } else if never_traps(e, env) && value_kind(e, env).is_some() {
                    cands.push(Cand {
                        expr: e.clone(),
                        first: j,
                        last: j,
                        count: 1,
                        live: true,
                    });
                }
            });
        });
        let defs = defs_of(s);
        if !defs.is_empty() {
            for c in &mut cands {
                if c.live && !expr_vars(&c.expr).is_disjoint(&defs) {
                    c.live = false;
                }
            }
        }
    }
    // Savings: each repeated occurrence collapses `node_count` nodes
    // into one `Var` read. Deterministic tie-break on scan position.
    let best = cands.iter().filter(|c| c.count >= 2).max_by_key(|c| {
        (
            (c.count - 1) * (c.expr.node_count() - 1),
            std::cmp::Reverse(c.first),
        )
    });
    let Some(best) = best else {
        return false;
    };
    let kind = value_kind(&best.expr, env).expect("candidates are typable");
    let ty = identity_scalar(kind);
    let t = va.fresh("cse");
    new_locals.push((t, ty));
    let tvar = Expr::Var(t);
    for j in best.first..=best.last {
        for_each_expr_mut(&mut b.0[j], &mut |e| {
            *e = replace_expr(e, &best.expr, &tvar);
        });
    }
    let init = best.expr.clone();
    b.0.insert(best.first, Stmt::Let { var: t, ty, init });
    true
}

fn cse_block(
    b: &mut Block,
    env: &KindEnv,
    va: &mut VarAlloc<'_>,
    new_locals: &mut Vec<(VarId, Scalar)>,
) -> bool {
    let mut changed = false;
    for s in &mut b.0 {
        match s {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                changed |= cse_block(then_blk, env, va, new_locals);
                changed |= cse_block(else_blk, env, va, new_locals);
            }
            Stmt::For { body, .. } => {
                changed |= cse_block(body, env, va, new_locals);
            }
            _ => {}
        }
    }
    for _ in 0..8 {
        if !apply_one(b, env, va, new_locals) {
            break;
        }
        changed = true;
    }
    changed
}

pub fn run(p: &mut Program) -> bool {
    let program_env = KindEnv::for_program(p);
    let mut names = std::mem::take(&mut p.var_names);
    let mut changed = false;
    {
        let mut va = VarAlloc::new(&mut names);
        p.map_kernels(|k| {
            let env = kind_env_for_kernel(&program_env, k);
            let mut new_locals: Vec<(VarId, Scalar)> = Vec::new();
            for b in k.blocks_mut() {
                changed |= cse_block(b, &env, &mut va, &mut new_locals);
            }
            k.locals.extend(new_locals);
        });
    }
    p.var_names = names;
    changed
}
