//! Dead-store elimination against array intents, plus dead-`Let`
//! sweeping.
//!
//! Three rewrites, each gated on trap preservation (a removed
//! statement's expressions stop being evaluated, so they must be
//! provably total — [`super::util::never_traps`]):
//!
//! 1. **Overwritten stores**: `store a[e] = v₁ … store a[e] = v₂` at
//!    the same block level, with no intervening read of `a`, atomic
//!    on `a`, barrier, or redefinition of a variable in `e` — the
//!    first store can never be observed. The execution engines run
//!    parallel iterations (and grouped-phase threads) sequentially,
//!    so "no intervening statement observes it" within the block is
//!    sufficient.
//! 2. **Stores to unobservable arrays**: a global array whose intent
//!    does not copy out (`In`/`Scratch`) and that is never read by
//!    any load, atomic, host statement, `WhileFlag` test or region
//!    reduction is write-only debris; its stores go away.
//! 3. **Dead `Let`s**: a binding whose variable is bound exactly once
//!    in the whole program, read nowhere (kernel bodies, loop bounds,
//!    reduction values, host expressions), never assigned and not a
//!    reduction accumulator. These are typically left behind by
//!    scalar promotion and constant propagation.

use super::util::{defs_of, expr_vars, kind_env_for_kernel, never_traps};
use paccport_ir::{ArrayId, Block, Expr, HostStmt, KindEnv, MemSpace, Program, Stmt, VarId};
use std::collections::{BTreeMap, BTreeSet};

/// Every expression of the program: kernel bodies (including nested
/// statements), parallel-loop bounds, region-reduction values, and
/// host statements.
fn walk_program_exprs(p: &Program, f: &mut impl FnMut(&Expr)) {
    fn host(stmts: &[HostStmt], f: &mut impl FnMut(&Expr)) {
        for s in stmts {
            match s {
                HostStmt::DataRegion { body, .. }
                | HostStmt::HostLoop { body, .. }
                | HostStmt::WhileFlag { body, .. } => host(body, f),
                HostStmt::Launch(k) => k.walk_exprs(f),
                HostStmt::HostAssign { value, .. } => value.walk(f),
                HostStmt::HostStore { index, value, .. } => {
                    index.walk(f);
                    value.walk(f);
                }
                HostStmt::HostCompute { instr, .. } => instr.walk(f),
                HostStmt::Update { .. }
                | HostStmt::EnterData { .. }
                | HostStmt::ExitData { .. } => {}
            }
            if let HostStmt::HostLoop { lo, hi, .. } = s {
                lo.walk(f);
                hi.walk(f);
            }
        }
    }
    host(&p.body, f);
}

/// Does `s` (or anything nested in it) read global array `a` — via a
/// load or an atomic (atomics read-modify-write)?
fn reads_array(s: &Stmt, space: MemSpace, array: ArrayId) -> bool {
    let mut found = false;
    s.walk(&mut |n| {
        if let Stmt::Atomic { array: a2, .. } = n {
            if space == MemSpace::Global && *a2 == array {
                found = true;
            }
        }
        n.for_each_expr(&mut |top| {
            top.walk(&mut |e| {
                if let Expr::Load {
                    space: sp,
                    array: a2,
                    ..
                } = e
                {
                    if *sp == space && *a2 == array {
                        found = true;
                    }
                }
            });
        });
    });
    found
}

fn has_barrier(s: &Stmt) -> bool {
    let mut found = false;
    s.walk(&mut |n| {
        if matches!(n, Stmt::Barrier) {
            found = true;
        }
    });
    found
}

fn dse_block(
    b: &mut Block,
    env: &KindEnv,
    dead_arrays: &BTreeSet<ArrayId>,
    dead_lets: &BTreeSet<VarId>,
) -> bool {
    let mut changed = false;
    for s in &mut b.0 {
        match s {
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                changed |= dse_block(then_blk, env, dead_arrays, dead_lets);
                changed |= dse_block(else_blk, env, dead_arrays, dead_lets);
            }
            Stmt::For { body, .. } => {
                changed |= dse_block(body, env, dead_arrays, dead_lets);
            }
            _ => {}
        }
    }

    // Rules 2 and 3: stores to unobservable arrays, dead Lets.
    let n0 = b.0.len();
    b.0.retain(|s| match s {
        Stmt::Store {
            space: MemSpace::Global,
            array,
            index,
            value,
        } if dead_arrays.contains(array) => !(never_traps(index, env) && never_traps(value, env)),
        Stmt::Let { var, init, .. } if dead_lets.contains(var) => !never_traps(init, env),
        _ => true,
    });
    changed |= b.0.len() != n0;

    // Rule 1: overwritten stores.
    let mut kill = vec![false; b.0.len()];
    for (i, si) in b.0.iter().enumerate() {
        let Stmt::Store {
            space,
            array,
            index,
            value,
        } = si
        else {
            continue;
        };
        if !never_traps(index, env) || !never_traps(value, env) {
            continue;
        }
        let ivars = expr_vars(index);
        for sj in &b.0[i + 1..] {
            if let Stmt::Store {
                space: s2,
                array: a2,
                index: i2,
                ..
            } = sj
            {
                // The overwrite's own index/value evaluate *before*
                // it writes — it only kills the earlier store if it
                // does not itself read the array (e.g.
                // `a[i] = f(a[i])` observes the killed value).
                if s2 == space && a2 == array && i2 == index && !reads_array(sj, *space, *array) {
                    kill[i] = true;
                    break;
                }
            }
            if reads_array(sj, *space, *array)
                || has_barrier(sj)
                || !defs_of(sj).is_disjoint(&ivars)
            {
                break;
            }
        }
    }
    if kill.iter().any(|&k| k) {
        let mut i = 0;
        b.0.retain(|_| {
            let dead = kill[i];
            i += 1;
            !dead
        });
        changed = true;
    }
    changed
}

pub fn run(p: &mut Program) -> bool {
    let program_env = KindEnv::for_program(p);

    // Program-wide read sets.
    let mut read_arrays: BTreeSet<ArrayId> = BTreeSet::new();
    let mut read_vars: BTreeSet<VarId> = BTreeSet::new();
    walk_program_exprs(p, &mut |e| match e {
        // All spaces, conservatively: a local array id that happens to
        // collide with a global id only suppresses a removal.
        Expr::Load { array, .. } => {
            read_arrays.insert(*array);
        }
        Expr::Var(v) => {
            read_vars.insert(*v);
        }
        _ => {}
    });
    let mut let_count: BTreeMap<VarId, usize> = BTreeMap::new();
    let mut assigned_or_pinned: BTreeSet<VarId> = BTreeSet::new();
    for hs in &p.body {
        hs.walk(&mut |h| match h {
            HostStmt::Launch(k) => {
                if let Some(r) = &k.reduction {
                    assigned_or_pinned.insert(r.acc);
                }
                for lp in &k.loops {
                    assigned_or_pinned.insert(lp.var);
                }
                for b in k.blocks() {
                    b.walk(&mut |s| match s {
                        Stmt::Let { var, .. } => {
                            *let_count.entry(*var).or_insert(0) += 1;
                        }
                        Stmt::Assign { var, .. } => {
                            assigned_or_pinned.insert(*var);
                        }
                        _ => {}
                    });
                }
            }
            HostStmt::WhileFlag { flag, .. } => {
                read_arrays.insert(*flag);
            }
            HostStmt::HostAssign { var, .. } | HostStmt::HostLoop { var, .. } => {
                assigned_or_pinned.insert(*var);
            }
            _ => {}
        });
    }
    for hs in &p.body {
        hs.walk(&mut |h| {
            if let HostStmt::Launch(k) = h {
                if let Some(rr) = &k.region_reduction {
                    // Engines may read-modify the destination slot.
                    read_arrays.insert(rr.dest);
                }
            }
        });
    }

    let dead_arrays: BTreeSet<ArrayId> = p
        .arrays
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.intent.copies_out() && !read_arrays.contains(&ArrayId(*i as u32)))
        .map(|(i, _)| ArrayId(i as u32))
        .collect();
    let dead_lets: BTreeSet<VarId> = let_count
        .iter()
        .filter(|(v, n)| **n == 1 && !read_vars.contains(v) && !assigned_or_pinned.contains(v))
        .map(|(v, _)| *v)
        .collect();

    let mut changed = false;
    p.map_kernels(|k| {
        let env = kind_env_for_kernel(&program_env, k);
        for b in k.blocks_mut() {
            changed |= dse_block(b, &env, &dead_arrays, &dead_lets);
        }
    });
    changed
}
