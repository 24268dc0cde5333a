//! Loop-invariant code motion out of innermost sequential `For`
//! bodies.
//!
//! Hoists a top-level `Let` of a `For` body in front of the loop when
//! the binding is provably the same value on every iteration and
//! evaluating it early (and exactly once, even for zero-trip loops)
//! is indistinguishable from the original schedule:
//!
//! * the initializer mentions no variable that the loop body assigns
//!   or (re)binds, and not the loop variable;
//! * the initializer reads no memory (`Load`) — stores in the loop
//!   could change what it sees;
//! * the initializer can never trap ([`super::util::never_traps`]) —
//!   a zero-trip loop must not start panicking because we evaluate
//!   the expression once, and a panicking iteration must not panic
//!   *earlier* than it used to;
//! * the hoisted variable is bound by exactly one `Let` in the whole
//!   kernel and never assigned, so widening its scope cannot collide
//!   with another binding of the same slot.
//!
//! Only innermost loops (no nested `For` in the body) are processed
//! directly; the pass-manager fixpoint hoists invariants outward one
//! level per sweep.

use super::util::{expr_vars, kind_env_for_kernel, never_traps};
use paccport_ir::{Block, KindEnv, Program, Stmt, VarId};
use std::collections::{BTreeMap, BTreeSet};

fn hoist_in_block(
    b: &mut Block,
    env: &KindEnv,
    let_count: &BTreeMap<VarId, usize>,
    assigned: &BTreeSet<VarId>,
    loop_bound: &BTreeSet<VarId>,
) -> bool {
    let mut changed = false;
    for s in &mut b.0 {
        match s {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                changed |= hoist_in_block(then_blk, env, let_count, assigned, loop_bound);
                changed |= hoist_in_block(else_blk, env, let_count, assigned, loop_bound);
            }
            Stmt::For { body, .. } => {
                changed |= hoist_in_block(body, env, let_count, assigned, loop_bound);
            }
            _ => {}
        }
    }
    let mut i = 0;
    while i < b.0.len() {
        let mut hoisted: Vec<Stmt> = Vec::new();
        if let Stmt::For { var, body, .. } = &mut b.0[i] {
            if body.for_vars().is_empty() {
                let loop_var = *var;
                let mut pinned = body.assigned_vars();
                pinned.extend(body.let_vars());
                pinned.insert(loop_var);
                body.0.retain(|s| {
                    if let Stmt::Let { var: v, init, .. } = s {
                        let ok = let_count.get(v) == Some(&1)
                            && !assigned.contains(v)
                            && !loop_bound.contains(v)
                            && !init.reads_memory()
                            && never_traps(init, env)
                            && expr_vars(init).is_disjoint(&pinned);
                        if ok {
                            hoisted.push(s.clone());
                            return false;
                        }
                    }
                    true
                });
            }
        }
        if hoisted.is_empty() {
            i += 1;
        } else {
            changed = true;
            let n = hoisted.len();
            b.0.splice(i..i, hoisted);
            i += n + 1;
        }
    }
    changed
}

pub fn run(p: &mut Program) -> bool {
    let program_env = KindEnv::for_program(p);
    let mut changed = false;
    p.map_kernels(|k| {
        let env = kind_env_for_kernel(&program_env, k);
        let mut let_count: BTreeMap<VarId, usize> = BTreeMap::new();
        let mut assigned: BTreeSet<VarId> = BTreeSet::new();
        let mut loop_bound: BTreeSet<VarId> = k.loops.iter().map(|lp| lp.var).collect();
        for b in k.blocks() {
            assigned.extend(b.assigned_vars());
            loop_bound.extend(b.for_vars());
            b.walk(&mut |s| {
                if let Stmt::Let { var, .. } = s {
                    *let_count.entry(*var).or_insert(0) += 1;
                }
            });
        }
        for b in k.blocks_mut() {
            changed |= hoist_in_block(b, &env, &let_count, &assigned, &loop_bound);
        }
    });
    changed
}
