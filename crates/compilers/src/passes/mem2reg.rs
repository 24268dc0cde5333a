//! Scalar promotion ("mem2reg" for this IR): rewrite mutable locals
//! into SSA-style chains of immutable `Let` bindings.
//!
//! The IR's `Assign` statement stores a value into an existing slot
//! *without* coercing it through the declared type (only `Let`
//! coerces). That makes reassigned locals opaque to the kind analysis
//! in `paccport_ir::simplify` — after one `Assign`, nothing can be
//! said about the runtime kind of the variable, and every downstream
//! fold on it is blocked. This pass removes the `Assign`s:
//!
//! ```text
//! let x: f32 = a;      let x: f32 = a;
//! y = x + 1.0;         let x_ssa1: f64 = x + 1.0;   // identity ty
//! store b[i] = y;  =>  store b[i] = x_ssa1;
//! ```
//!
//! Each rewritten `Assign { var, value }` becomes a fresh
//! `Let { nv, ty, value }` where `ty` is the *identity* scalar for the
//! value's proven runtime kind (`I32` for integers, `F64` for floats,
//! `Bool` for booleans), so the new binding reproduces the assigned
//! value bit for bit. Subsequent reads are renamed to the freshest
//! binding. If the kind of an assigned value cannot be proven, that
//! particular site is *kept* as an `Assign` (writing the renamed value
//! back into the original slot), which is always sound — later reads
//! simply fall back to the original variable.
//!
//! Conservatism (all enforced, any failure skips the variable or the
//! whole kernel):
//!
//! * only kernels with a `Simple` body and no (region) reduction —
//!   grouped phases share slots across phases and per-thread
//!   environments, and reduction accumulators are read by the engine
//!   after the body runs;
//! * only variables with exactly one `Let`, at the top level of the
//!   body, and whose `Assign`s are all at the top level too (writes
//!   inside `If`/`For` merge control-flow-dependent values, which this
//!   pass does not model with phis);
//! * never loop variables.

use super::util::identity_scalar;
use crate::transforms::VarAlloc;
use paccport_ir::{value_kind, Expr, KernelBody, KindEnv, Program, Stmt, ValueKind, VarId};
use std::collections::{BTreeMap, BTreeSet};

pub fn run(p: &mut Program) -> bool {
    let program_env = KindEnv::for_program(p);
    let hints: Vec<String> = p.var_names.clone();
    let mut names = std::mem::take(&mut p.var_names);
    let mut changed = false;
    {
        let mut va = VarAlloc::new(&mut names);
        p.map_kernels(|k| {
            if k.reduction.is_some() || k.region_reduction.is_some() {
                return;
            }
            let mut env = program_env.clone();
            for lp in &k.loops {
                env.set_var(lp.var, ValueKind::Int);
            }
            let KernelBody::Simple(body) = &mut k.body else {
                return;
            };

            // Candidacy over the whole body.
            let mut let_count: BTreeMap<VarId, usize> = BTreeMap::new();
            let mut top_lets: BTreeSet<VarId> = BTreeSet::new();
            let mut top_assigned: BTreeSet<VarId> = BTreeSet::new();
            let mut nested_assigned: BTreeSet<VarId> = BTreeSet::new();
            let mut loop_bound: BTreeSet<VarId> = k.loops.iter().map(|lp| lp.var).collect();
            for s in &body.0 {
                match s {
                    Stmt::Let { var, .. } => {
                        top_lets.insert(*var);
                    }
                    Stmt::Assign { var, .. } => {
                        top_assigned.insert(*var);
                    }
                    _ => {}
                }
                s.walk(&mut |n| match n {
                    Stmt::Let { var, .. } => {
                        *let_count.entry(*var).or_insert(0) += 1;
                    }
                    Stmt::For { var, body, .. } => {
                        loop_bound.insert(*var);
                        nested_assigned.extend(body.assigned_vars());
                    }
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => {
                        nested_assigned.extend(then_blk.assigned_vars());
                        nested_assigned.extend(else_blk.assigned_vars());
                    }
                    _ => {}
                });
            }
            let candidates: BTreeSet<VarId> = top_assigned
                .iter()
                .copied()
                .filter(|v| {
                    top_lets.contains(v)
                        && let_count.get(v) == Some(&1)
                        && !nested_assigned.contains(v)
                        && !loop_bound.contains(v)
                })
                .collect();
            if candidates.is_empty() {
                return;
            }

            // Rewrite the top level, tracking the freshest name of
            // each candidate and a kind environment that mirrors the
            // retraction rules of `simplify_stmt`.
            let mut cur: BTreeMap<VarId, VarId> = BTreeMap::new();
            let mut new_locals: Vec<(VarId, paccport_ir::Scalar)> = Vec::new();
            let stmts = std::mem::take(&mut body.0);
            let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
            for s in stmts {
                // Rename candidate reads to their freshest binding.
                let mut s = s;
                for (v, nv) in &cur {
                    if nv != v {
                        s = s.subst_var(*v, &Expr::Var(*nv));
                    }
                }
                match &s {
                    Stmt::Let { var, ty, .. } => {
                        env.set_var_scalar(*var, *ty);
                        if candidates.contains(var) {
                            cur.insert(*var, *var);
                        }
                        out.push(s);
                    }
                    Stmt::Assign { var, value } => {
                        let kind = value_kind(value, &env);
                        if let (true, true, Some(kd)) =
                            (candidates.contains(var), cur.contains_key(var), kind)
                        {
                            let ty = identity_scalar(kd);
                            let hint = hints
                                .get(var.0 as usize)
                                .map(|n| format!("{n}_ssa"))
                                .unwrap_or_else(|| "ssa".into());
                            let nv = va.fresh(&hint);
                            env.set_var_scalar(nv, ty);
                            cur.insert(*var, nv);
                            new_locals.push((nv, ty));
                            out.push(Stmt::Let {
                                var: nv,
                                ty,
                                init: value.clone(),
                            });
                            changed = true;
                        } else {
                            match kind {
                                Some(kd) => env.set_var(*var, kd),
                                None => env.remove_var(*var),
                            }
                            // A kept Assign re-synchronizes the
                            // original slot; later reads may use it.
                            if candidates.contains(var) {
                                cur.insert(*var, *var);
                            }
                            out.push(s);
                        }
                    }
                    Stmt::If {
                        then_blk, else_blk, ..
                    } => {
                        for v in then_blk.assigned_vars().union(&else_blk.assigned_vars()) {
                            env.remove_var(*v);
                        }
                        for v in then_blk.let_vars().union(&else_blk.let_vars()) {
                            env.remove_var(*v);
                        }
                        out.push(s);
                    }
                    Stmt::For { var, body: fb, .. } => {
                        env.set_var(*var, ValueKind::Int);
                        for v in fb.assigned_vars().union(&fb.let_vars()) {
                            env.remove_var(*v);
                        }
                        out.push(s);
                    }
                    _ => out.push(s),
                }
            }
            body.0 = out;
            k.locals.extend(new_locals);
        });
    }
    p.var_names = names;
    changed
}
