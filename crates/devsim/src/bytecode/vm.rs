//! The bytecode VM: executes [`KernelCode`] bit-identically to the
//! tree-walker.
//!
//! Values live in a flat register arena (`Vec<V>`), with the program's
//! variables occupying the low registers — one bounds-checked index
//! per access instead of the tree-walker's `Vec<Option<V>>` scope
//! lookups. The VM defines no device operation of its own: every
//! instruction calls the tree-walker's definition in [`interp`] —
//! [`interp::Machine`]'s `load`, `store` and `atomic` and its
//! work-group builtins, and the element functions (`bin`, `cmp`,
//! `f32_arith`, `int_arith`, `un`, `fma`, `cast`, `coerce`). `BinFF`
//! and `BinII` call `f32_arith` and `int_arith` directly when the
//! runtime tags match their static types. So the tiers cannot drift:
//! the VM only changes how operands are fetched, never what is
//! computed.
//!
//! Each kernel compiles to one instruction stream, with an
//! [`Instr::Charge`] at every statement boundary, run whether or not a
//! watchdog is armed. With a budget armed on this thread it charges
//! exactly where the tree-walker does, so timeout budgets trip at the
//! same statement. With none armed in the process,
//! `paccport_faults::charge` returns after one relaxed load of the
//! watcher count (with one armed only on another thread, after a look
//! at this thread's budget cell), so an unwatched run pays a
//! well-predicted branch per statement rather than needing a second,
//! charge-free copy of every stream.
//!
//! A simple kernel's innermost parallel loop first tries the batch
//! path ([`batch`]), with or without a race tracker or watchdog; the
//! scalar dispatch loops below are its fallback.
//!
//! A grouped kernel runs its work-groups one after another, and each
//! group its phases in order, separated by implicit barriers. Every
//! lane owns a register file and defined set in a per-launch arena. A
//! phase with a batch plan first runs across all the group's lanes at
//! once ([`batch::run_group_phase`]), gathering from and writing back
//! to that arena; when its hazard checks fail, or it has no plan, the
//! phase runs lane by lane on the scalar VM against the same arena,
//! exactly like the tree-walker.
//!
//! The trace counters `bytecode.batched_lanes`,
//! `bytecode.batched_group_lanes` and `bytecode.group_fallbacks` are
//! added once per launch, when it ends: a launch that panics or trips
//! the watchdog still counts the work it did before.
//!
//! [`interp`]: crate::interp
//! [`interp::Machine`]: crate::interp::Machine

use super::batch;
use super::compile::{BodyCode, Instr, KernelCode};
use crate::interp::{self, GroupCtx, KernelFidelity, Machine, V};
use crate::memory::Buffer;
use crate::race::RaceTracker;
use paccport_ir::kernel::{Kernel, KernelBody};

/// Everything an instruction can touch — the VM's analogue of
/// [`interp::Scope`], which keeps variables where this keeps the
/// parameters.
///
/// [`interp::Scope`]: crate::interp::Scope
struct Ctx<'a> {
    params: &'a [V],
    m: Machine<'a>,
}

/// One launch's batching counters, added to the trace when the launch
/// ends: on return, and while unwinding from a panic or a watchdog
/// trip, so the work done before it still counts.
struct Tally {
    grouped: bool,
    /// Batch scratch state; a simple kernel's `lanes` count lives here.
    bstate: Option<Box<batch::BatchState>>,
    /// Lanes × phases of a grouped kernel that ran batched.
    group_lanes: u64,
    /// Phases of a grouped kernel that ran lane by lane.
    fallbacks: u64,
}

impl Tally {
    fn new(grouped: bool) -> Tally {
        Tally {
            grouped,
            bstate: None,
            group_lanes: 0,
            fallbacks: 0,
        }
    }
}

impl Drop for Tally {
    fn drop(&mut self) {
        if self.grouped {
            paccport_trace::add("bytecode.batched_group_lanes", self.group_lanes);
            paccport_trace::add("bytecode.group_fallbacks", self.fallbacks);
        } else if let Some(st) = &self.bstate {
            paccport_trace::add("bytecode.batched_lanes", st.lanes);
        }
    }
}

/// Execute one instruction stream to completion.
fn run_code(code: &[Instr], regs: &mut [V], defined: &mut [bool], ctx: &mut Ctx<'_>) {
    let mut pc = 0usize;
    while let Some(&ins) = code.get(pc) {
        pc += 1;
        match ins {
            Instr::ConstF { dst, bits } => regs[dst as usize] = V::F(f64::from_bits(bits)),
            Instr::ConstI { dst, v } => regs[dst as usize] = V::I(v),
            Instr::ConstB { dst, v } => regs[dst as usize] = V::B(v),
            Instr::Param { dst, p } => regs[dst as usize] = ctx.params[p as usize],
            Instr::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
            Instr::Special { dst, sv } => regs[dst as usize] = V::I(ctx.m.group.get(sv)),
            Instr::CheckDef { var } => {
                if !defined[var as usize] {
                    panic!("read of undefined variable v{var}");
                }
            }
            Instr::Un { op, dst, a } => regs[dst as usize] = interp::un(op, regs[a as usize]),
            Instr::Bin { op, dst, a, b } => {
                regs[dst as usize] = interp::bin(op, regs[a as usize], regs[b as usize]);
            }
            Instr::BinFF { op, dst, a, b } => {
                let (va, vb) = (regs[a as usize], regs[b as usize]);
                regs[dst as usize] = if let (V::F(x), V::F(y)) = (va, vb) {
                    V::F(interp::f32_arith(op, x, y))
                } else {
                    interp::bin(op, va, vb)
                };
            }
            Instr::BinII { op, dst, a, b } => {
                let (va, vb) = (regs[a as usize], regs[b as usize]);
                regs[dst as usize] = if let (V::I(x), V::I(y)) = (va, vb) {
                    V::I(interp::int_arith(op, x, y))
                } else {
                    interp::bin(op, va, vb)
                };
            }
            Instr::Cmp { op, dst, a, b } => {
                regs[dst as usize] = V::B(interp::cmp(op, regs[a as usize], regs[b as usize]));
            }
            Instr::Fma { dst, a, b, c } => {
                let (va, vb, vc) = (regs[a as usize], regs[b as usize], regs[c as usize]);
                regs[dst as usize] = V::F(interp::fma(va.as_f(), vb.as_f(), vc.as_f()));
            }
            Instr::Cast { ty, dst, a } => regs[dst as usize] = interp::cast(ty, regs[a as usize]),
            Instr::LetVar { ty, var, src } => {
                regs[var as usize] = interp::coerce(regs[src as usize], ty);
                defined[var as usize] = true;
            }
            Instr::SetVar { var, src } => {
                regs[var as usize] = regs[src as usize];
                defined[var as usize] = true;
            }
            Instr::ToInt { dst, src } => {
                regs[dst as usize] = V::I(regs[src as usize].as_i());
            }
            Instr::Load {
                space,
                array,
                idx,
                dst,
            } => regs[dst as usize] = ctx.m.load(space, array as u32, regs[idx as usize].as_i()),
            Instr::Store {
                space,
                array,
                idx,
                val,
            } => {
                let (i, v) = (regs[idx as usize].as_i(), regs[val as usize].as_f());
                ctx.m.store(space, array as u32, i, v);
            }
            Instr::Atomic {
                op,
                array,
                idx,
                val,
            } => {
                let (i, v) = (regs[idx as usize].as_i(), regs[val as usize].as_f());
                ctx.m.atomic(op, array as u32, i, v);
            }
            Instr::Jump { to } => pc = to as usize,
            Instr::JumpIfFalse { cond, to } => {
                if !regs[cond as usize].as_b() {
                    pc = to as usize;
                }
            }
            Instr::ForHead { cnt, hi, exit } => {
                if regs[cnt as usize].as_i() >= regs[hi as usize].as_i() {
                    pc = exit as usize;
                }
            }
            Instr::ForStep { cnt, step, back } => {
                regs[cnt as usize] = V::I(regs[cnt as usize].as_i() + step);
                pc = back as usize;
            }
            Instr::Charge => paccport_faults::charge(1),
        }
    }
}

/// Execute one kernel over its full iteration space against `bufs`,
/// exactly like [`interp::exec_kernel_traced`] but from compiled code.
///
/// `vars` is the runner's scalar environment; for simple kernels the
/// defined-set and values are written back on exit (the tree-walker
/// mutates the environment in place), for grouped kernels the outer
/// environment is left untouched, also like the tree-walker.
///
/// [`interp::exec_kernel_traced`]: crate::interp::exec_kernel_traced
pub fn exec_kernel_bc(
    code: &KernelCode,
    params: &[V],
    k: &Kernel,
    vars: &mut [Option<V>],
    bufs: &mut [Buffer],
    fidelity: KernelFidelity,
    tracker: Option<&RaceTracker>,
) {
    let mut regs = vec![V::I(0); code.n_regs as usize];
    let mut defined = vec![false; code.n_vars as usize];
    for (i, v) in vars.iter().enumerate() {
        if let Some(v) = *v {
            regs[i] = v;
            defined[i] = true;
        }
    }
    {
        let mut ctx = Ctx {
            params,
            m: Machine::global(&mut *bufs, None),
        };
        run_code(&code.prelude, &mut regs, &mut defined, &mut ctx);
    }

    match &k.body {
        KernelBody::Simple(_) => {
            let mut acc = k.region_reduction.as_ref().map(|rr| rr.op.identity());
            let mut iter = Vec::with_capacity(k.loops.len());
            let mut tally = Tally::new(false);
            nest(
                code,
                k,
                0,
                &mut regs,
                &mut defined,
                params,
                bufs,
                &mut acc,
                tracker,
                &mut iter,
                &mut tally.bstate,
            );
            if let Some(t) = tracker {
                // The combined reduction store is a synchronization
                // point, not a per-iteration access.
                t.clear_thread();
            }
            if let (Some(rr), Some(total)) = (&k.region_reduction, acc) {
                bufs[rr.dest.0 as usize].set(0, total);
            }
            // Write the environment back: values for everything
            // defined, None for everything still unset — the exact
            // state the tree-walker leaves `vars` in.
            for (i, d) in defined.iter().enumerate() {
                vars[i] = if *d { Some(regs[i]) } else { None };
            }
        }
        KernelBody::Grouped(g) => {
            let (phases, plans, written) = match &code.body {
                BodyCode::Grouped {
                    phases,
                    batch,
                    written,
                } => (phases, batch, written),
                BodyCode::Simple { .. } => unreachable!("kernel/code shape mismatch"),
            };
            // Grouped kernels have one parallel loop; each group of
            // `group_size` threads cooperates on one iteration of it.
            assert_eq!(k.loops.len(), 1, "grouped kernels are rank-1");
            let lp = &k.loops[0];
            let b = &code.bounds[0];
            let (lo, hi) = {
                // Loop bounds are evaluated once, before the parallel
                // region: not per-iteration accesses.
                let mut ctx = Ctx {
                    params,
                    m: Machine::global(&mut *bufs, None),
                };
                run_code(&b.lo.block, &mut regs, &mut defined, &mut ctx);
                let lo = regs[b.lo.out as usize].as_i();
                run_code(&b.hi.block, &mut regs, &mut defined, &mut ctx);
                (lo, regs[b.hi.out as usize].as_i())
            };
            let n_groups = (hi - lo).max(0);
            let gsz = g.group_size as i64;
            // One lane-state arena per launch: lane `t` owns register
            // file `thread_regs[t * n_regs..][..n_regs]` and defined
            // set `thread_def[t * n_vars..][..n_vars]` across a group's
            // phases, and every group starts from the launch-time state
            // and zeroed locals.
            let (n_regs, n_vars) = (regs.len(), defined.len());
            let mut thread_regs = regs.repeat(g.group_size as usize);
            let mut thread_def = defined.repeat(g.group_size as usize);
            let mut locals: Vec<Buffer> = g
                .locals
                .iter()
                .map(|l| Buffer::zeroed(l.elem, l.len))
                .collect();
            let var = lp.var.0 as usize;
            let mut tally = Tally::new(true);
            for grp in 0..n_groups {
                if grp > 0 {
                    let lanes = thread_regs
                        .chunks_exact_mut(n_regs)
                        .zip(thread_def.chunks_exact_mut(n_vars));
                    for (lane_regs, lane_def) in lanes {
                        for &v in written {
                            lane_regs[v as usize] = regs[v as usize];
                            lane_def[v as usize] = defined[v as usize];
                        }
                    }
                    locals.iter_mut().for_each(Buffer::zero);
                }
                for (pi, phase) in phases.iter().enumerate() {
                    let skip = fidelity == KernelFidelity::DropTreePhases
                        && pi > 0
                        && pi + 1 < phases.len();
                    if skip {
                        continue;
                    }
                    if let Some(tr) = tracker {
                        // Phases are separated by implicit barriers;
                        // the phase index is the tracker's epoch.
                        tr.set_epoch(pi as u32);
                    }
                    // Every lane enters the phase on the group's
                    // iteration of the parallel loop. A batched phase
                    // reads it from lane 0 only and never writes it
                    // back, so the other lanes get it only when the
                    // phase runs lane by lane.
                    thread_regs[var] = V::I(lo + grp);
                    thread_def[var] = true;
                    let group = GroupCtx {
                        local_id: 0,
                        group_id: grp,
                        local_size: gsz,
                        num_groups: n_groups,
                    };
                    // The whole phase across the group's lanes at once
                    // when its plan's hazard checks pass; lane by lane
                    // otherwise.
                    if let Some(plan) = &plans[pi] {
                        let lanes = batch::Lanes {
                            regs: &mut thread_regs,
                            defined: &mut thread_def,
                            n_regs,
                            n_vars,
                        };
                        if batch::run_group_phase(
                            plan,
                            &mut tally.bstate,
                            lanes,
                            params,
                            bufs,
                            &mut locals,
                            group,
                            tracker,
                        ) {
                            tally.group_lanes += gsz as u64;
                            continue;
                        }
                    }
                    tally.fallbacks += 1;
                    for lane in thread_regs.chunks_exact_mut(n_regs) {
                        lane[var] = V::I(lo + grp);
                    }
                    for lane in thread_def.chunks_exact_mut(n_vars) {
                        lane[var] = true;
                    }
                    let lanes = thread_regs
                        .chunks_exact_mut(n_regs)
                        .zip(thread_def.chunks_exact_mut(n_vars));
                    for (t, (tr_regs, tdef)) in (0..gsz).zip(lanes) {
                        if let Some(trk) = tracker {
                            trk.set_lane(grp, t);
                        }
                        let mut ctx = Ctx {
                            params,
                            m: Machine {
                                bufs: &mut *bufs,
                                locals: Some(&mut locals),
                                group: GroupCtx {
                                    local_id: t,
                                    ..group
                                },
                                tracker,
                            },
                        };
                        run_code(phase, tr_regs, tdef, &mut ctx);
                    }
                }
            }
            if let Some(tr) = tracker {
                tr.clear_thread();
            }
        }
    }
}

/// Recursively iterate the parallel loop nest of a simple kernel,
/// mirroring the tree-walker's `exec_nest` (per-depth bounds
/// re-evaluation handles triangular nests).
#[allow(clippy::too_many_arguments)]
fn nest(
    code: &KernelCode,
    k: &Kernel,
    depth: usize,
    regs: &mut [V],
    defined: &mut [bool],
    params: &[V],
    bufs: &mut [Buffer],
    acc: &mut Option<f64>,
    tracker: Option<&RaceTracker>,
    iter: &mut Vec<i64>,
    bstate: &mut Option<Box<batch::BatchState>>,
) {
    let (block, reduce) = match &code.body {
        BodyCode::Simple { block, reduce } => (block, reduce.as_ref()),
        BodyCode::Grouped { .. } => unreachable!("kernel/code shape mismatch"),
    };
    if depth == k.loops.len() {
        if let Some(t) = tracker {
            t.set_iteration(iter);
        }
        let mut ctx = Ctx {
            params,
            m: Machine::global(bufs, tracker),
        };
        run_code(block, regs, defined, &mut ctx);
        if let (Some(rr), Some(frag)) = (&k.region_reduction, reduce) {
            run_code(&frag.block, regs, defined, &mut ctx);
            let v = regs[frag.out as usize].as_f();
            if let Some(total) = acc.as_mut() {
                *total = rr.op.combine(*total, v);
            }
        }
        return;
    }
    let b = &code.bounds[depth];
    let (lo, hi) = {
        // Loop bounds are evaluated before the parallel region at this
        // depth: not per-iteration accesses.
        let mut ctx = Ctx {
            params,
            m: Machine::global(&mut *bufs, None),
        };
        // The two fragments share temp registers: read `lo` before
        // running `hi`.
        run_code(&b.lo.block, regs, defined, &mut ctx);
        let lo = regs[b.lo.out as usize].as_i();
        run_code(&b.hi.block, regs, defined, &mut ctx);
        (lo, regs[b.hi.out as usize].as_i())
    };
    let var = k.loops[depth].var.0 as usize;
    if depth + 1 == k.loops.len() {
        // Batched innermost loop: one pass over the whole lane range
        // with loop-invariant operands resolved once. Under the race
        // detector the batch tapes its accesses and the tracker logs
        // the tape in scalar order; an armed watchdog is charged the
        // batch's steps at once. `run_batch` returns `false` (having
        // touched nothing) on any hazard, or when the watchdog would
        // trip mid-batch, falling through to the scalar paths below.
        if let Some(plan) = &code.batch {
            let taping = tracker.map(|tracker| batch::Taping {
                tracker,
                outer: iter,
            });
            if batch::run_batch(
                plan, bstate, lo, hi, regs, defined, params, bufs, acc, taping,
            ) {
                return;
            }
        }
    }
    if tracker.is_none() && depth + 1 == k.loops.len() && k.region_reduction.is_none() {
        // Innermost fast path: no thread-id bookkeeping, no reduction
        // accumulation — a flat dispatch loop over the body stream.
        let mut ctx = Ctx {
            params,
            m: Machine::global(bufs, None),
        };
        for i in lo..hi {
            regs[var] = V::I(i);
            defined[var] = true;
            run_code(block, regs, defined, &mut ctx);
        }
        return;
    }
    for i in lo..hi {
        regs[var] = V::I(i);
        defined[var] = true;
        iter.push(i);
        nest(
            code,
            k,
            depth + 1,
            regs,
            defined,
            params,
            bufs,
            acc,
            tracker,
            iter,
            bstate,
        );
        iter.pop();
    }
}
