//! Batched lane execution: a simple kernel's innermost parallel loop,
//! or one phase of a work-group kernel across the group's lanes.
//!
//! The scalar VM still dispatches one instruction per value per lane;
//! for the hot kernels that cost is the whole runtime. This module
//! compiles a *second* form of a kernel body — a straight batch program
//! over all its lanes — executed once instead of once per lane: once
//! per innermost loop of a simple kernel (`build`, [`run_batch`]),
//! once per phase and work-group of a grouped one (`build_phases`,
//! [`run_group_phase`]).
//!
//! Values are classified at compile time:
//!
//! * **S** — lane-invariant scalars (one [`V`] slot, computed once);
//! * **A** — affine lane integers `base + stride·lane` (one `(i64,
//!   i64)` pair — never materialized per lane);
//! * **LF/LB/LI** — genuinely lane-varying floats / bools / integers
//!   (`affine % scalar` and whatever integer arithmetic follows), held
//!   in flat vectors and processed by tight per-op loops.
//!
//! The "hoisting of loop-invariant operand resolution" happens in this
//! classification: a scalar operand of a float lane op is `as_f()`'d
//! (and, for arithmetic, f32-narrowed) exactly once per batch, not per
//! lane; a fully scalar load index becomes a single [`BOp::SLoad`]
//! per sequential-loop trip instead of one per lane per trip.
//!
//! **Bitwise equivalence is non-negotiable.** No op defines what it
//! computes: scalar ops call the tree-walker's own functions in
//! [`interp`] (`bin`, `cmp`, `un`, `fma`, `cast`, `coerce`, `decode`
//! and the work-group builtins of [`GroupCtx`]), and lane ops call
//! their element forms once per lane (`f32_arith` for [`BOp::FBin`],
//! `compare` for [`BOp::FCmp`] and [`BOp::ICmp`], `int_arith` for
//! [`BOp::IBin`], `as_f`/`as_b` for [`BOp::Cvt`], `un_f` and `fma`).
//! The compiler only picks a lane op where the tree-walker's runtime
//! dispatch provably takes that path (the float path only where an
//! operand is *guaranteed* tag-`F`, etc.).
//!
//! One op per mechanism: every change of class is a [`BOp::Cvt`]
//! (made by `lane_f`, `lane_b`, `lane_int` and `coerce_lane` only),
//! every copy between slots of a class a [`BOp::Copy`], every store a
//! [`BOp::Scatter`] of a scalar or float lanes. An op names its
//! operands as [`Loc`]s (or slots), in the expression's order, and the
//! executor resolves their classes **once per op, outside the lane
//! loop**: the integer compares, arithmetic and masked-loop heads
//! share one loop over lane pairs (`int_pairs`), specialized per pair
//! of operand classes. A lane op writes its class's spare vector,
//! which then swaps places with the destination slot, so a
//! destination the pin redirect points at an operand needs no case of
//! its own.
//!
//! Reordering effects across lanes is handled by construction:
//!
//! * a scatter to a global array the batch also accesses otherwise
//!   carries a [`Guard`], checked at runtime per batch: against every
//!   other access to the array it must hit the *same* affine index
//!   with a nonzero stride (every lane then owns a disjoint slice), a
//!   disjoint element range (a scalar-indexed load is the range of
//!   one element), or be performed by the same single lane, so
//!   lane-major and op-major orders touch each element in the same
//!   sequence;
//! * a scatter to a work-group's local array gets the exact per-element
//!   [`Owner`] check instead: no element one lane writes may be touched
//!   by another lane (a tree-reduction step's interleaved reads and
//!   writes pass it; their ranges overlap);
//! * every panic the tree-walker could raise mid-batch (bounds,
//!   integer division by zero, undefined variable reads, parameter
//!   and host-variable type confusion) is detected by a **validation
//!   walk** that runs the scalar/affine/control half of the program
//!   first, touching no buffer; on any hazard the batch is abandoned
//!   *before any side effect* and the caller falls back to the scalar
//!   VM, which reproduces the tree-walker's partial effects and panic
//!   exactly;
//! * the validation walk also counts the watchdog steps the lanes take
//!   (one per statement and lane, like the tree-walker's charge: a
//!   [`BOp::Step`], or a [`BOp::StepIf`] for the lanes taking an `If`
//!   arm or a masked loop's trip); the whole batch is charged at once,
//!   and a budget that would run out mid-batch falls back so the
//!   scalar VM trips at the exact statement.
//!
//! Under the race detector the execution walk records every memory
//! access once per batch on a small **tape** ([`TapeEntry`]: array,
//! affine `(base, stride)` or int-lane indices, read or write, lane
//! mask). The whole tape then goes to the tracker's batch entry point
//! ([`RaceTracker::log_batch`]), lane `b` being iteration
//! `outer ++ [lo + b]`, or lane `b` of the group in a grouped phase
//! whose epoch the VM has set. It logs the lanes in ascending order,
//! each lane's accesses in program order, scalar loads included, so
//! the tracker sees the thread order and access count of the scalar
//! path and reports identical races. `Select` arms run eagerly here
//! but lazily in the tree-walker, and `If` arms run masked, so an arm
//! that touches memory is bracketed by
//! [`BOp::MaskPush`]/[`BOp::MaskPop`] and its accesses are logged only
//! on the lanes that take it.
//!
//! Constants and parameter reads are pooled into a prologue that runs
//! before the body, so a pooled slot is set even when its first use
//! sits in a sequential loop that runs zero times.
//!
//! An `If` outside sequential loops whose arms only store (or nest
//! such `If`s) compiles to masked stores, gathers and scatters when its
//! condition is built from scalars, integer compares of affine or int
//! lanes and bool logic: the validation walk computes those lanes too
//! ([`BatchPlan::early`]), so steps, bounds and guards see exactly the
//! lanes that take each arm — a lane that does not take it may index
//! out of bounds. A condition that could read an element the batch
//! stores to would be stale in the validation walk, so it rejects.
//!
//! A grouped phase goes further. `LocalId` is the affine lane, the
//! other work-group builtins are scalars, and local arrays are
//! addressed after the global ones. `If` arms may assign variables,
//! which then reach only the lanes taking the arm; a variable assigned
//! in two arms of one phase (an `else`, a later or a nested `If`)
//! rejects the plan, since one writeback per arm cannot order them. A
//! sequential loop whose bounds vary per lane (the strided partial sum
//! `k = lo + tid .. hi step group_size`, or its unrolled main and
//! remainder loops, bounded by int lanes) runs as a masked loop: each
//! trip covers the lanes still below their bound, and a counter that
//! starts from int lanes indexes memory per lane ([`BOp::GatherFI`],
//! reading only arrays the phase does not store to). The work-group's
//! per-lane registers stay the source of truth between phases: a phase
//! gathers the variables an earlier phase left in them ([`Gather`],
//! verified per lane) and writes back the ones a later phase reads, so
//! any phase can fall back to the scalar VM with no state to convert.
//!
//! Anything else the classifier cannot prove — other `If` statements,
//! atomics, local memory outside a grouped phase, other lane-varying
//! integers, stores inside sequential loops, ambiguous types — simply
//! fails to compile (`None`), and the kernel or phase keeps the scalar
//! VM path.
//!
//! [`interp`]: crate::interp

use crate::interp::{self, GroupCtx, V};
use crate::memory::{narrow_f32, Buffer};
use crate::race::{RaceTracker, Tape, TapeEntry, TapeIndex, TapeThreads};
use paccport_ir::expr::{BinOp, CmpOp, Expr, SpecialVar, UnOp};
use paccport_ir::kernel::{Kernel, KernelBody, ReduceOp};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{ArrayId, MemSpace, ParamId, Scalar, VarId};
use paccport_ir::Program;

/// Where a value lives during batch execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// Scalar slot (`BatchState::sv`). Slots `0..n_vars` mirror the
    /// VM's variable registers.
    S(u16),
    /// Affine lane integer: `av[i] = (base, stride)`, lane `b` holds
    /// `base + stride·b`.
    A(u16),
    /// f64 lane vector.
    LF(u16),
    /// bool lane vector.
    LB(u16),
    /// i64 lane vector: a lane integer that is not affine
    /// (`affine % scalar`, or any integer arithmetic on such lanes).
    LI(u16),
}

/// One batch operation. Scalar/affine/control ops run in both the
/// validation and execution walks; lane ops (`LF`/`LB` producers,
/// gathers, scatters) run only in the execution walk.
#[derive(Debug, Clone, PartialEq)]
pub enum BOp {
    // ---- scalar (lane-invariant) ----
    SConst {
        dst: u16,
        v: V,
    },
    /// Parameter read; `tag` is the declared type's runtime tag
    /// (0 = F, 1 = I, 2 = B), checked by the validation walk wherever
    /// the compiler leaned on the declaration for typing.
    SParam {
        dst: u16,
        p: u16,
        tag: u8,
    },
    SUn {
        op: UnOp,
        dst: u16,
        a: u16,
    },
    /// Generic binary op (`interp::bin`); the validation walk
    /// pre-checks integer division by zero so execution cannot panic.
    SBin {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    SCmp {
        op: CmpOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    SFma {
        dst: u16,
        a: u16,
        b: u16,
        c: u16,
    },
    SCast {
        ty: Scalar,
        dst: u16,
        a: u16,
    },
    /// Eager scalar select (arms are pure in batchable bodies).
    SSelect {
        dst: u16,
        c: u16,
        a: u16,
        b: u16,
    },
    SToInt {
        dst: u16,
        a: u16,
    },
    /// `Let`: coerce into the variable slot, mark defined.
    SLet {
        ty: Scalar,
        var: u16,
        src: u16,
    },
    /// `Assign`: raw store into the variable slot, mark defined.
    SSet {
        var: u16,
        src: u16,
    },
    /// Scalar-indexed load (both walks; hazard: bounds).
    SLoad {
        array: u16,
        idx: u16,
        dst: u16,
    },
    /// Validation-only: fall back unless the variable is defined.
    VDefCheck {
        var: u16,
    },
    /// Mark a lane-assigned variable runtime-defined.
    DefMark {
        var: u16,
    },
    /// Validation-only: fall back unless the slot holds an integer.
    VIsInt {
        s: u16,
    },
    /// Work-group builtin of a grouped phase other than the local id:
    /// lane-invariant.
    SGroup {
        dst: u16,
        sv: SpecialVar,
    },

    // ---- class changes and copies: scalars, affines and int lanes in
    // both walks, float and bool lanes in the execution walk (and the
    // validation walk's `early` bool slots) ----
    /// `a`'s value in `dst`'s class: a scalar into an affine (`(as_i(),
    /// 0)`), or a scalar, an affine or the other lane class into float
    /// or bool lanes (`as_f()` / `as_b()` per lane).
    Cvt {
        dst: Loc,
        a: Loc,
    },
    /// `a` into `dst`, a slot of the same class: a value an `If` arm
    /// assigned kept for the masked writeback, a pinned variable's
    /// entry value, a pinned value another variable captures, lanes
    /// moved into a pin, or a masked loop's mutable counter.
    Copy {
        dst: Loc,
        a: Loc,
    },

    // ---- affine and int lanes (both walks) ----
    /// `Add`/`Sub` of affines and scalars, or `Mul` of an affine by a
    /// scalar, into an affine; a scalar operand reads as `(y, 0)`.
    ABin {
        op: BinOp,
        dst: u16,
        a: Loc,
        b: Loc,
    },
    ANeg {
        dst: u16,
        a: u16,
    },
    /// Integer arithmetic that is not affine, into int lanes: each
    /// operand a scalar, an affine or int lanes. The validation walk
    /// rejects a divisor of 0 or -1 on any lane, on which the
    /// tree-walker would panic.
    IBin {
        op: BinOp,
        dst: u16,
        a: Loc,
        b: Loc,
    },

    // ---- float lane ops (`interp::f32_arith`, as `interp::bin`) ----
    /// Each operand f64 lanes or a scalar, resolved (`as_f()`) once.
    FBin {
        op: BinOp,
        dst: u16,
        a: Loc,
        b: Loc,
    },
    FFma {
        dst: u16,
        a: u16,
        b: u16,
        c: u16,
    },
    UnF {
        op: UnOp,
        dst: u16,
        a: u16,
    },
    /// `v as f32 as f64` per lane (the F32 `Let` coercion / cast).
    CvtFtoF32 {
        dst: u16,
        a: u16,
    },
    /// Full-f64 comparison, `interp::cmp`'s float path: each operand
    /// f64 lanes or a scalar, as for [`BOp::FBin`].
    FCmp {
        op: CmpOp,
        dst: u16,
        a: Loc,
        b: Loc,
    },
    /// Integer comparison of two affines, of an affine and a scalar, or
    /// of int lanes and a scalar, into bool lanes (`compare` over the
    /// lane pairs [`BOp::IBin`] and [`BOp::MForHead`] walk too).
    ICmp {
        op: CmpOp,
        dst: u16,
        a: Loc,
        b: Loc,
    },

    // ---- bool lane ops ----
    BAnd {
        dst: u16,
        a: u16,
        b: u16,
    },
    BOr {
        dst: u16,
        a: u16,
        b: u16,
    },
    BNot {
        dst: u16,
        a: u16,
    },
    /// `cond ? a : b` per lane (eager; taken-arm laziness is restored
    /// by the purity restrictions on batchable bodies).
    SelF {
        dst: u16,
        c: u16,
        a: u16,
        b: u16,
    },

    // ---- memory ----
    /// Affine gather from an F32/F64 array. Hazard: bounds (checked at
    /// the affine endpoints of the performing lanes by the validation
    /// walk). `when` masks a gather inside an `If` arm or a masked
    /// loop to the lanes that perform it.
    GatherF {
        array: u16,
        aff: u16,
        dst: u16,
        f32src: bool,
        when: Option<Arm>,
    },
    /// Gather from an F32/F64 array at int-lane indices; `when` as for
    /// [`BOp::GatherF`]. Its array must not be stored to.
    GatherFI {
        array: u16,
        idx: u16,
        dst: u16,
        when: Option<Arm>,
    },
    /// Affine scatter of f64 lanes or of one scalar, `as_f()`'d once.
    /// Scatters to an array the batch also accesses otherwise are
    /// checked by a [`Guard`]. `when` masks a scatter inside an `If`
    /// arm to the lanes that take it.
    Scatter {
        array: u16,
        aff: u16,
        src: Loc,
        when: Option<Arm>,
    },

    // ---- access-tape masks (execution walk, only while taping) ----
    /// Enter a `Select` arm that reads memory, or an `If` arm: the
    /// arm's accesses belong only to lanes whose condition (`Loc::S`
    /// or `Loc::LB`) equals `pol`, within the enclosing arm's lanes.
    MaskPush {
        c: Loc,
        pol: bool,
    },
    /// Leave the arm entered by the matching [`BOp::MaskPush`].
    MaskPop,

    // ---- control (both walks) ----
    /// `if sv[cnt] >= sv[hi] jump exit` (both always `V::I`).
    ForHead {
        cnt: u16,
        hi: u16,
        exit: u32,
    },
    ForStep {
        cnt: u16,
        step: i64,
        back: u32,
    },
    /// Head of a sequential loop whose bounds vary per lane (both
    /// walks): lane `b` takes this trip iff its counter `cnt` (affine
    /// or int lanes) is below its bound `hi` (likewise), recorded in
    /// bool lane slot `mask`; exit once no lane does.
    MForHead {
        cnt: Loc,
        hi: Loc,
        mask: u16,
        exit: u32,
    },
    /// `cnt += step` on every lane, then jump back.
    MForStep {
        cnt: Loc,
        step: i64,
        back: u32,
    },
    /// A masked loop's assignment to a pinned variable: `fl[dst][b] =
    /// fl[src][b]` on the lanes set in `mask`.
    LMergeF {
        dst: u16,
        src: u16,
        mask: u16,
    },
    /// One watchdog step per lane, where the tree-walker charges one
    /// per statement; the validation walk counts them.
    Step,
    /// One watchdog step per lane that takes the `If` arm.
    StepIf {
        arm: Arm,
    },
    /// List the lanes set in bool slot `m`, an arm's mask (both
    /// walks): masked ops then visit just those lanes.
    Active {
        m: u16,
    },
}

/// The lanes that take an `If` arm: those set in bool lane slot `.0`,
/// the conjunction of the conditions of every enclosing arm.
/// The validation walk computes it too ([`BatchPlan::early`]), so
/// steps and guards count exactly the lanes that take the arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arm(pub u16);

impl Arm {
    /// The lanes taking the arm, ascending (its [`BOp::Active`] list).
    fn lanes(self, act: &[Vec<u32>]) -> &[u32] {
        &act[self.0 as usize]
    }
}

/// A compiled batch program: a simple kernel's innermost parallel
/// loop, or one phase of a grouped kernel over its work-group's lanes.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    pub ops: Vec<BOp>,
    /// Scalar slots `0..n_vars` mirror the VM variable registers.
    pub n_vars: u16,
    /// Memory arrays `0..n_glob` are the program's global arrays; a
    /// grouped kernel's local arrays follow.
    pub n_glob: u16,
    /// The innermost parallel loop variable of a simple kernel: the
    /// tree-walker marks it defined on every lane, so a non-empty batch
    /// does too. (A grouped phase's loop variable is set on every lane
    /// by the VM before the phase runs.)
    pub lane_var: Option<u16>,
    pub n_s: u16,
    pub n_a: u16,
    pub n_f: u16,
    pub n_b: u16,
    pub n_i: u16,
    /// Lane-valued variables written back as the last lane's value
    /// (the state the tree-walker leaves after its final iteration).
    pub outs: Vec<(u16, Loc)>,
    /// Region-reduction value location and operator, folded
    /// lane-ascending.
    pub reduce: Option<(Loc, ReduceOp)>,
    /// One guard per scatter to an array the batch also accesses
    /// otherwise, checked after the validation walk.
    pub guards: Vec<Guard>,
    /// Per-element owner checks for the local arrays a grouped phase
    /// scatters to and also accesses otherwise.
    pub owners: Vec<Owner>,
    /// Bool lane slots the validation walk computes too: `If`
    /// conditions and the integer compares they are built from.
    pub early: Vec<bool>,
    /// Ops whose result the execution walk reuses from the validation
    /// walk: lane conditions outside sequential loops, computed by
    /// both walks from the same state.
    pub settled: Vec<bool>,
    /// Grouped phase: variables an earlier phase assigned, gathered
    /// from the work-group's per-lane registers before the phase runs
    /// (see [`Gather`]).
    pub ins: Vec<(u16, Gather)>,
    /// Grouped phase: variables written back to every lane's registers
    /// after the phase (only those a later phase reads), in order;
    /// an `If` arm's assignment goes only to the lanes taking the arm.
    pub wb: Vec<(u16, Loc, Option<Arm>)>,
}

/// How a grouped phase expects a variable an earlier phase assigned
/// to sit across the lanes. Each is verified when gathered; a lane
/// that disagrees makes the phase fall back before any effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gather {
    /// The same value (bit for bit) and definedness on every lane:
    /// read from lane 0 into the variable's scalar slot.
    Uniform,
    /// Defined integers `base + stride·lane` on every lane, into
    /// affine slot `.0`.
    Affine(u16),
    /// Defined floats on every lane, into f64 lane slot `.0`.
    Float(u16),
}

/// Runtime check that lets a scatter reorder against the other
/// accesses to its array. Against each of them, one of:
///
/// * their element ranges, over the lanes that perform them, are
///   disjoint;
/// * both hit the same per-lane element (equal affine values, nonzero
///   stride — every lane owns a disjoint slice);
/// * both are performed by the same single lane.
///
/// Each element is then touched in the same sequence lane-major and
/// op-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Guard {
    pub scatter: Touch,
    /// Every access to the array, the scatter's own included.
    pub others: Vec<Touch>,
}

/// Exact per-element check for a local array (at most a work-group's
/// worth of elements): over the lanes that perform them, no element
/// one lane writes is touched by another lane. A tree-reduction step
/// writes `{0, 2s, 4s, …}` and reads `{s, 3s, …}`: disjoint element
/// by element, though a [`Guard`]'s ranges overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct Owner {
    pub array: u16,
    /// Every access to the array, its scatters included.
    pub touches: Vec<Touch>,
    pub scatters: Vec<Touch>,
}

/// One access to an array, as a guard sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Touch {
    /// `Loc::A` for an affine index; `Loc::S` for a scalar load's
    /// index (one element, whichever lane).
    pub at: Loc,
    /// The `If` arm the access sits in, if any.
    pub when: Option<Arm>,
}

/// Reusable batch scratch state (allocated once per kernel exec).
#[derive(Debug, Default)]
pub struct BatchState {
    sv: Vec<V>,
    vdef: Vec<bool>,
    av: Vec<(i64, i64)>,
    fl: Vec<Vec<f64>>,
    bl: Vec<Vec<bool>>,
    il: Vec<Vec<i64>>,
    /// Each class's spare lane vector: a lane op writes it, then it
    /// swaps places with the op's destination slot.
    spare_f: Vec<f64>,
    spare_b: Vec<bool>,
    /// Per bool slot used as an arm: the lanes it has set.
    act: Vec<Vec<u32>>,
    /// Snapshot buffers for restoring between the walks.
    sv_snap: Vec<V>,
    vdef_snap: Vec<bool>,
    av_snap: Vec<(i64, i64)>,
    /// Watchdog steps all lanes take (counted by the validation walk).
    steps: u64,
    /// Record `tape` (and its masks) in the execution walk: set when
    /// a race tracker has to see the batch's accesses.
    taping: bool,
    /// The batch's memory accesses in scalar program order; memory
    /// array numbers double as the tracker's (globals, then locals).
    tape: Vec<TapeEntry>,
    /// `bn` flags per mask, back to back ([`Tape::masks`]).
    masks: Vec<bool>,
    /// `bn` indices per int-lane-indexed access, back to back.
    lane_idx: Vec<i64>,
    /// Masks of the enclosing `Select` and `If` arms, innermost last.
    mask_stack: Vec<u32>,
    /// The work-group builtins of the grouped phase being run.
    group: GroupCtx,
    /// Owner-check scratch: per element, the lane touching it.
    owner: Vec<u32>,
    /// Lanes executed batched by this state's kernel exec.
    pub(crate) lanes: u64,
}

/// Largest batch the lane vectors will materialize.
const MAX_BATCH: i64 = 1 << 22;

/// Shadow logging for a batch: the launch's race tracker and the
/// outer parallel-loop indices of the current innermost loop.
pub struct Taping<'t, 'a> {
    pub tracker: &'t RaceTracker<'a>,
    pub outer: &'t [i64],
}

/// The memory a batch addresses: global arrays, then local ones.
struct Mem<'m> {
    bufs: &'m mut [Buffer],
    locals: &'m mut [Buffer],
    n_glob: usize,
}

impl Mem<'_> {
    fn get(&self, a: u16) -> &Buffer {
        match (a as usize).checked_sub(self.n_glob) {
            None => &self.bufs[a as usize],
            Some(l) => &self.locals[l],
        }
    }

    fn get_mut(&mut self, a: u16) -> &mut Buffer {
        match (a as usize).checked_sub(self.n_glob) {
            None => &mut self.bufs[a as usize],
            Some(l) => &mut self.locals[l],
        }
    }
}

impl BatchState {
    /// Size every slot class for `plan` over `bn` lanes. The scalar
    /// slots `0..n_vars` must already hold the variables.
    fn prepare(&mut self, plan: &BatchPlan, bn: usize) {
        self.sv.resize(plan.n_s as usize, V::I(0));
        self.av.resize(plan.n_a as usize, (0, 0));
        self.av[0] = (0, 1);
        // Lane vectors only grow: the phases of a grouped kernel take
        // turns with different slot counts.
        fn size<T: Clone + Default>(v: &mut Vec<Vec<T>>, n: u16, bn: usize) {
            if v.len() < n as usize {
                v.resize(n as usize, Vec::new());
            }
            v.iter_mut().for_each(|l| l.resize(bn, T::default()));
        }
        size(&mut self.fl, plan.n_f, bn);
        size(&mut self.bl, plan.n_b, bn);
        size(&mut self.il, plan.n_i, bn);
        if plan.n_f > 0 {
            self.spare_f.resize(bn, 0.0);
        }
        if plan.n_b > 0 {
            self.spare_b.resize(bn, false);
        }
        if self.act.len() < plan.n_b as usize {
            self.act.resize(plan.n_b as usize, Vec::new());
        }
    }

    /// The execution walk's access tape over `bn` lanes, as `threads`.
    fn tape<'t>(&'t self, bn: usize, threads: TapeThreads<'t>) -> Tape<'t> {
        Tape {
            threads,
            lanes: bn,
            entries: &self.tape,
            masks: &self.masks,
            lane_idx: &self.lane_idx,
        }
    }
}

/// Execute `plan` over lanes `lo..hi`. Returns `false` (having touched
/// nothing) if the batch must fall back to the scalar VM.
///
/// With `taping`, the batch's access tape then goes to the race tracker
/// ([`RaceTracker::log_batch`]), lane `b` as iteration
/// `outer ++ [lo + b]`, which logs it in the scalar path's order.
#[allow(clippy::too_many_arguments)]
pub fn run_batch(
    plan: &BatchPlan,
    state: &mut Option<Box<BatchState>>,
    lo: i64,
    hi: i64,
    regs: &mut [V],
    defined: &mut [bool],
    params: &[V],
    bufs: &mut [Buffer],
    acc: &mut Option<f64>,
    taping: Option<Taping<'_, '_>>,
) -> bool {
    if hi <= lo {
        // Zero-trip inner loop: the tree-walker does nothing.
        return true;
    }
    if hi - lo > MAX_BATCH {
        return false;
    }
    let bn = (hi - lo) as usize;
    let st = state.get_or_insert_with(Default::default);
    let nv = plan.n_vars as usize;

    // Prepare scalar/affine state and size the lane vectors.
    st.sv.clear();
    st.sv.extend_from_slice(&regs[..nv]);
    st.vdef.clear();
    st.vdef.extend_from_slice(&defined[..nv]);
    if let Some(lane) = plan.lane_var {
        st.vdef[lane as usize] = true;
    }
    st.prepare(plan, bn);
    st.av[0] = (lo, 1);
    let mut mem = Mem {
        bufs,
        locals: &mut [],
        n_glob: plan.n_glob as usize,
    };
    if !execute(plan, st, bn, params, &mut mem, taping.is_some()) {
        return false;
    }
    if let Some(t) = taping {
        let threads = TapeThreads::Iterations { outer: t.outer, lo };
        t.tracker.log_batch(&st.tape(bn, threads));
    }

    // Fold the region reduction, lane-ascending like the tree-walker.
    if let (Some((loc, op)), Some(total)) = (plan.reduce, acc.as_mut()) {
        each_lane(st, loc, 0..bn, |_, v| *total = op.combine(*total, v.as_f()));
    }

    // Write the environment back: scalar slots wholesale, lane-valued
    // variables as their final lane's value.
    regs[..nv].copy_from_slice(&st.sv[..nv]);
    defined[..nv].copy_from_slice(&st.vdef[..nv]);
    for &(var, loc) in &plan.outs {
        regs[var as usize] = lane_value(st, loc, bn - 1);
        // Definedness is NOT forced here: the wholesale `vdef` copy
        // above already carries the exact runtime answer (`DefMark`
        // runs iff the assignment executed, so a lane temp assigned
        // only inside a zero-trip sequential loop stays undefined,
        // exactly like the tree-walker). An undefined variable's
        // written-back value is never observed.
    }
    true
}

/// A work-group's per-lane state: lane `t` owns register file
/// `regs[t * n_regs..][..n_regs]` and defined set
/// `defined[t * n_vars..][..n_vars]`. It is the source of truth
/// between phases, batched or not.
pub struct Lanes<'l> {
    pub regs: &'l mut [V],
    pub defined: &'l mut [bool],
    pub n_regs: usize,
    pub n_vars: usize,
}

/// Execute grouped phase `plan` across all `group.local_size` lanes
/// of work-group `group.group_id` at once. Returns `false` (having
/// touched nothing) if the phase must run on the scalar VM lane by
/// lane instead.
///
/// The phase gathers the variables it reads from `lanes`, runs
/// op-major, and writes back the ones a later phase reads. With a
/// tracker, the access tape goes to [`RaceTracker::log_batch`] as the
/// group's lanes; the caller has set the phase's epoch.
#[allow(clippy::too_many_arguments)]
pub fn run_group_phase(
    plan: &BatchPlan,
    state: &mut Option<Box<BatchState>>,
    lanes: Lanes<'_>,
    params: &[V],
    bufs: &mut [Buffer],
    locals: &mut [Buffer],
    group: GroupCtx,
    tracker: Option<&RaceTracker<'_>>,
) -> bool {
    let bn = group.local_size as usize;
    if bn == 0 || group.local_size > MAX_BATCH {
        return false;
    }
    let st = state.get_or_insert_with(Default::default);
    let nv = plan.n_vars as usize;
    let Lanes {
        regs,
        defined,
        n_regs,
        n_vars,
    } = lanes;
    // Variables no earlier phase assigned hold the launch-time state,
    // the same on every lane: lane 0 speaks for all of them.
    st.sv.clear();
    st.sv.extend_from_slice(&regs[..nv]);
    st.vdef.clear();
    st.vdef.extend_from_slice(&defined[..nv]);
    st.prepare(plan, bn);
    st.group = group;
    for &(var, how) in &plan.ins {
        let v = var as usize;
        // Lane `b`'s (value, defined) of the variable, lane-ascending.
        let mut lanes = regs
            .chunks_exact(n_regs)
            .zip(defined.chunks_exact(n_vars))
            .take(bn)
            .map(|(r, d)| (r[v], d[v]));
        let ok = match how {
            Gather::Uniform => {
                let (x, d) = (regs[v], defined[v]);
                lanes.all(|(y, e)| e == d && same_bits(y, x))
            }
            Gather::Affine(r) => match (regs[v], regs[(bn.min(2) - 1) * n_regs + v]) {
                (V::I(base), V::I(next)) => {
                    let stride = next - base;
                    st.av[r as usize] = (base, stride);
                    let mut want = base;
                    lanes.all(|lane| {
                        let ok = lane == (V::I(want), true);
                        want += stride;
                        ok
                    })
                }
                _ => false,
            },
            Gather::Float(r) => {
                let dst = &mut st.fl[r as usize];
                lanes.zip(dst.iter_mut()).all(|(lane, x)| match lane {
                    (V::F(y), true) => {
                        *x = y;
                        true
                    }
                    _ => false,
                })
            }
        };
        if !ok {
            return false;
        }
        if how != Gather::Uniform {
            st.vdef[v] = true;
        }
    }
    let mut mem = Mem {
        bufs,
        locals,
        n_glob: plan.n_glob as usize,
    };
    if !execute(plan, st, bn, params, &mut mem, tracker.is_some()) {
        return false;
    }
    if let Some(t) = tracker {
        t.log_batch(&st.tape(bn, TapeThreads::Group(group.group_id)));
    }
    for &(var, loc, when) in &plan.wb {
        let v = var as usize;
        let def = st.vdef[v];
        let st = &**st;
        let put = |b: usize, x: V| {
            regs[b * n_regs + v] = x;
            defined[b * n_vars + v] = def;
        };
        match when {
            Some(arm) => each_lane(st, loc, arm.lanes(&st.act).iter().map(|&b| b as usize), put),
            None => each_lane(st, loc, 0..bn, put),
        }
    }
    true
}

/// Bitwise equality of two values, tag included (`-0.0` is not `0.0`,
/// a NaN equals its own bits).
fn same_bits(a: V, b: V) -> bool {
    match (a, b) {
        (V::I(x), V::I(y)) => x == y,
        (V::F(x), V::F(y)) => x.to_bits() == y.to_bits(),
        (V::B(x), V::B(y)) => x == y,
        _ => false,
    }
}

/// Call `f(b, value)` for each lane `b` of `lanes`, resolving `loc`
/// once rather than per lane.
fn each_lane(
    st: &BatchState,
    loc: Loc,
    lanes: impl Iterator<Item = usize>,
    mut f: impl FnMut(usize, V),
) {
    match loc {
        Loc::S(r) => {
            let x = st.sv[r as usize];
            lanes.for_each(|b| f(b, x));
        }
        Loc::A(r) => {
            let (base, stride) = st.av[r as usize];
            lanes.for_each(|b| f(b, V::I(base + stride * b as i64)));
        }
        Loc::LF(r) => lanes.for_each(|b| f(b, V::F(st.fl[r as usize][b]))),
        Loc::LB(r) => lanes.for_each(|b| f(b, V::B(st.bl[r as usize][b]))),
        Loc::LI(r) => lanes.for_each(|b| f(b, V::I(st.il[r as usize][b]))),
    }
}

/// Lane `b`'s value of a location.
fn lane_value(st: &BatchState, loc: Loc, b: usize) -> V {
    match loc {
        Loc::S(r) => st.sv[r as usize],
        Loc::A(r) => {
            let (base, stride) = st.av[r as usize];
            V::I(base + stride * b as i64)
        }
        Loc::LF(r) => V::F(st.fl[r as usize][b]),
        Loc::LB(r) => V::B(st.bl[r as usize][b]),
        Loc::LI(r) => V::I(st.il[r as usize][b]),
    }
}

/// Validate, charge and execute `plan` over `bn` prepared lanes.
/// Returns `false` (having touched nothing) on any hazard.
fn execute(
    plan: &BatchPlan,
    st: &mut BatchState,
    bn: usize,
    params: &[V],
    mem: &mut Mem<'_>,
    taping: bool,
) -> bool {
    // Validation walk: scalar/affine/control only, hazard checks, no
    // buffer writes. Fall back on any hazard; the scatter guards are
    // checked once every affine value is known.
    st.sv_snap.clone_from(&st.sv);
    st.vdef_snap.clone_from(&st.vdef);
    st.av_snap.clone_from(&st.av);
    st.steps = 0;
    if !walk::<true>(plan, st, bn, params, mem)
        || !plan
            .guards
            .iter()
            .all(|g| guard_holds(g, &st.av, &st.sv, &st.act, bn))
        || !plan.owners.iter().all(|o| {
            let len = mem.get(o.array).len();
            owner_holds(o, st, bn, len)
        })
        // The whole batch's watchdog steps, charged at once; a budget
        // that would trip mid-batch leaves the exact trip point to the
        // scalar VM.
        || !paccport_faults::try_charge(st.steps)
    {
        return false;
    }
    // Restore and run for real.
    st.sv.clone_from(&st.sv_snap);
    st.vdef.clone_from(&st.vdef_snap);
    st.av.clone_from(&st.av_snap);
    st.taping = taping;
    st.tape.clear();
    st.masks.clear();
    st.lane_idx.clear();
    st.mask_stack.clear();
    let ok = walk::<false>(plan, st, bn, params, mem);
    debug_assert!(ok, "execution walk failed after validation passed");
    st.lanes += bn as u64;
    true
}

/// Inclusive element range an affine index covers over `bn` lanes.
fn lane_span((base, stride): (i64, i64), bn: usize) -> (i64, i64) {
    let last = base + stride * (bn as i64 - 1);
    (base.min(last), base.max(last))
}

/// Inclusive element range an affine index covers over the lanes that
/// perform it, and the performing lane when there is exactly one;
/// `None` when no lane does. Affine ⇒ the extremes sit at the first
/// and last performing lanes.
fn active_span(
    aff: (i64, i64),
    when: Option<Arm>,
    act: &[Vec<u32>],
    bn: usize,
) -> Option<((i64, i64), Option<usize>)> {
    let Some(arm) = when else {
        return Some((lane_span(aff, bn), (bn == 1).then_some(0)));
    };
    let taken = arm.lanes(act);
    let (first, last) = (*taken.first()? as usize, *taken.last()? as usize);
    let at = |b: usize| aff.0 + aff.1 * b as i64;
    let (a, z) = (at(first), at(last));
    Some(((a.min(z), a.max(z)), (first == last).then_some(first)))
}

/// What a [`Touch`] covers in one batch.
struct Footprint {
    aff: (i64, i64),
    /// Inclusive element range over the performing lanes.
    span: (i64, i64),
    /// The performing lane, when exactly one lane performs it.
    sole: Option<usize>,
}

/// `None` when no lane performs the access.
fn footprint(
    t: &Touch,
    av: &[(i64, i64)],
    sv: &[V],
    act: &[Vec<u32>],
    bn: usize,
) -> Option<Footprint> {
    let aff = affine(av, sv, t.at);
    let (span, sole) = active_span(aff, t.when, act, bn)?;
    Some(Footprint { aff, span, sole })
}

fn guard_holds(g: &Guard, av: &[(i64, i64)], sv: &[V], act: &[Vec<u32>], bn: usize) -> bool {
    let Some(me) = footprint(&g.scatter, av, sv, act, bn) else {
        return true;
    };
    g.others.iter().all(|t| {
        let Some(other) = footprint(t, av, sv, act, bn) else {
            return true;
        };
        other.span.1 < me.span.0
            || me.span.1 < other.span.0
            || (other.aff == me.aff && me.aff.1 != 0)
            || (me.sole.is_some() && other.sole == me.sole)
    })
}

/// [`Owner`]'s check over a `len`-element array.
fn owner_holds(o: &Owner, st: &mut BatchState, bn: usize, len: usize) -> bool {
    const FREE: u32 = u32::MAX;
    const SHARED: u32 = u32::MAX - 1;
    let own = &mut st.owner;
    own.clear();
    own.resize(len, FREE);
    // Each access's (lane, element) pairs; every access was
    // bounds-checked over its lanes already.
    let visit = |t: &Touch, f: &mut dyn FnMut(u32, usize) -> bool| {
        let (base, stride) = affine(&st.av, &st.sv, t.at);
        let at = |b: u32| (base + stride * b as i64) as usize;
        match t.when {
            Some(arm) => arm.lanes(&st.act).iter().all(|&b| f(b, at(b))),
            None => (0..bn as u32).all(|b| f(b, at(b))),
        }
    };
    for t in &o.touches {
        visit(t, &mut |b, e| {
            let cell = &mut own[e];
            if *cell == FREE {
                *cell = b;
            } else if *cell != b {
                *cell = SHARED;
            }
            true
        });
    }
    o.scatters
        .iter()
        .all(|t| visit(t, &mut |_, e| own[e] != SHARED))
}

// ---------------------------------------------------------------
// Execution
// ---------------------------------------------------------------

/// Lane op `dst = f(…)` over one slot class: `f` fills the class's
/// spare vector from the slots, and the spare then swaps places with
/// slot `dst`. The destination may so be any operand as well (the
/// pin-redirect peephole points an op's destination at one of its
/// operands), which still reads its old lanes: there is no aliasing
/// case to resolve, per op or per lane.
fn lanes<T>(v: &mut [Vec<T>], spare: &mut Vec<T>, dst: u16, f: impl FnOnce(&mut [T], &[Vec<T>])) {
    f(spare, v);
    std::mem::swap(&mut v[dst as usize], spare);
}

/// Lane binary op over one slot class.
fn lbin<T: Copy>(
    v: &mut [Vec<T>],
    spare: &mut Vec<T>,
    dst: u16,
    a: u16,
    b: u16,
    f: impl Fn(T, T) -> T,
) {
    lanes(v, spare, dst, |out, v| {
        let args = v[a as usize].iter().zip(&v[b as usize]);
        out.iter_mut()
            .zip(args)
            .for_each(|(x, (&y, &z))| *x = f(y, z));
    });
}

/// Lane unary op over one slot class.
fn lmap<T: Copy>(v: &mut [Vec<T>], spare: &mut Vec<T>, dst: u16, a: u16, f: impl Fn(T) -> T) {
    lanes(v, spare, dst, |out, v| {
        let args = v[a as usize].iter();
        out.iter_mut().zip(args).for_each(|(x, &y)| *x = f(y));
    });
}

/// Copy lane slot `a` into slot `dst` of the same class.
fn copy_lanes<T: Copy>(v: &mut [Vec<T>], dst: u16, a: u16) {
    if dst != a {
        let mut out = std::mem::take(&mut v[dst as usize]);
        out.copy_from_slice(&v[a as usize]);
        v[dst as usize] = out;
    }
}

/// Float lane arithmetic `dst = a op b`, each operand f64 lanes or a
/// scalar (`as_f()` once per batch). The operator and the operand
/// classes are resolved here, once per op, outside the lane loop.
fn fbin(fl: &mut [Vec<f64>], spare: &mut Vec<f64>, sv: &[V], op: BinOp, dst: u16, a: Loc, b: Loc) {
    fn go(
        fl: &mut [Vec<f64>],
        spare: &mut Vec<f64>,
        sv: &[V],
        dst: u16,
        a: Loc,
        b: Loc,
        f: impl Fn(f64, f64) -> f64,
    ) {
        match (a, b) {
            (Loc::LF(a), Loc::LF(b)) => lbin(fl, spare, dst, a, b, f),
            (Loc::LF(a), Loc::S(s)) => {
                let y = sv[s as usize].as_f();
                lmap(fl, spare, dst, a, |x| f(x, y))
            }
            (Loc::S(s), Loc::LF(b)) => {
                let x = sv[s as usize].as_f();
                lmap(fl, spare, dst, b, |y| f(x, y))
            }
            _ => unreachable!("float lane ops have a lane operand"),
        }
    }
    use interp::f32_arith;
    // One closure per operator, so each loop gets it constant.
    match op {
        BinOp::Add => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Add, x, y)),
        BinOp::Sub => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Sub, x, y)),
        BinOp::Mul => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Mul, x, y)),
        BinOp::Div => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Div, x, y)),
        BinOp::Rem => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Rem, x, y)),
        BinOp::Min => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Min, x, y)),
        BinOp::Max => go(fl, spare, sv, dst, a, b, |x, y| f32_arith(BinOp::Max, x, y)),
        _ => unreachable!("float lane ops are arithmetic-only"),
    }
}

/// [`BOp::Cvt`] into lanes: `as_f()` or `as_b()`, the tree's own
/// conversions, of each lane's value of a scalar, an affine or the
/// other lane class, the class pair resolved once per op.
fn cvt(fl: &mut [Vec<f64>], bl: &mut [Vec<bool>], sv: &[V], av: &[(i64, i64)], dst: Loc, a: Loc) {
    let aff = |r: u16| {
        let (base, stride) = av[r as usize];
        (0..).map(move |b: i64| V::I(base + stride * b))
    };
    match (dst, a) {
        (Loc::LF(d), Loc::S(s)) => fl[d as usize].fill(sv[s as usize].as_f()),
        (Loc::LB(d), Loc::S(s)) => bl[d as usize].fill(sv[s as usize].as_b()),
        (Loc::LF(d), Loc::A(r)) => {
            let out = fl[d as usize].iter_mut();
            out.zip(aff(r)).for_each(|(x, v)| *x = v.as_f());
        }
        (Loc::LB(d), Loc::A(r)) => {
            let out = bl[d as usize].iter_mut();
            out.zip(aff(r)).for_each(|(x, v)| *x = v.as_b());
        }
        (Loc::LF(d), Loc::LB(r)) => {
            let out = fl[d as usize].iter_mut();
            out.zip(&bl[r as usize])
                .for_each(|(x, &y)| *x = V::B(y).as_f());
        }
        (Loc::LB(d), Loc::LF(r)) => {
            let out = bl[d as usize].iter_mut();
            out.zip(&fl[r as usize])
                .for_each(|(x, &y)| *x = V::F(y).as_b());
        }
        _ => unreachable!("lane conversions go from S, A or the other class to LF or LB"),
    }
}

/// `out[b] = f(p, q)` for each lane `b` and its pair of integer
/// operand values: `a` and `b` each a scalar, an affine or int lanes,
/// resolved once per op, outside the lane loop. `false` at the first
/// lane `f` refuses (`None`), leaving the later lanes as they were.
fn int_pairs<T>(
    out: &mut [T],
    sv: &[V],
    av: &[(i64, i64)],
    il: &[Vec<i64>],
    a: Loc,
    b: Loc,
    f: impl FnMut(i64, i64) -> Option<T>,
) -> bool {
    fn go<T>(
        out: &mut [T],
        pairs: impl Iterator<Item = (i64, i64)>,
        mut f: impl FnMut(i64, i64) -> Option<T>,
    ) -> bool {
        out.iter_mut()
            .zip(pairs)
            .all(|(x, (p, q))| f(p, q).map(|v| *x = v).is_some())
    }
    let aff = |l: Loc| {
        let (base, stride) = affine(av, sv, l);
        (0..).map(move |b: i64| base + stride * b)
    };
    let ints = |r: u16| il[r as usize].iter().copied();
    match (a, b) {
        (Loc::LI(x), Loc::LI(y)) => go(out, ints(x).zip(ints(y)), f),
        (Loc::LI(x), q) => go(out, ints(x).zip(aff(q)), f),
        (p, Loc::LI(y)) => go(out, aff(p).zip(ints(y)), f),
        (p, q) => go(out, aff(p).zip(aff(q)), f),
    }
}

/// An integer location's lanes as `(base, stride)`: an affine, or a
/// scalar, which reads as `(y, 0)`.
fn affine(av: &[(i64, i64)], sv: &[V], l: Loc) -> (i64, i64) {
    match l {
        Loc::A(r) => av[r as usize],
        Loc::S(s) => (sv[s as usize].as_i(), 0),
        _ => unreachable!("affine operands are A or S"),
    }
}

/// Affine bounds hazard: every index of a performing lane must be a
/// valid `usize` element index.
fn affine_in_bounds(
    aff: (i64, i64),
    when: Option<Arm>,
    act: &[Vec<u32>],
    bn: usize,
    len: usize,
) -> bool {
    active_span(aff, when, act, bn).is_none_or(|((min, max), _)| min >= 0 && (max as usize) < len)
}

/// Store `val(b)` at element `base + stride·b` for each lane `b` of
/// `0..bn`, or of `taken`, narrowed per the element type exactly like
/// [`Buffer::set`], which is resolved once rather than per lane.
fn store_lanes(
    buf: &mut Buffer,
    taken: Option<&[u32]>,
    bn: usize,
    aff: (i64, i64),
    val: impl Fn(usize) -> f64,
) {
    fn go(
        buf: &mut Buffer,
        lanes: impl Iterator<Item = usize>,
        (base, stride): (i64, i64),
        val: impl Fn(usize) -> f64,
    ) {
        let at = |b: usize| (base + stride * b as i64) as usize;
        match buf {
            Buffer::F32(v) => lanes.for_each(|b| v[at(b)] = narrow_f32(val(b))),
            Buffer::F64(v) => lanes.for_each(|b| v[at(b)] = val(b)),
            Buffer::I32(v) => lanes.for_each(|b| v[at(b)] = val(b) as i32),
            Buffer::U32(v) => lanes.for_each(|b| v[at(b)] = val(b) as u32),
            Buffer::Bool(v) => lanes.for_each(|b| v[at(b)] = (val(b) != 0.0) as u8),
        }
    }
    match taken {
        Some(t) => go(buf, t.iter().map(|&b| b as usize), aff, val),
        None => go(buf, 0..bn, aff, val),
    }
}

/// Are `a / y` and `a % y` over `bn` lanes a shift and a mask? So
/// when the affine lanes are non-negative and `y` a power of two.
fn pow2_lanes(a: (i64, i64), y: V, bn: usize) -> bool {
    let y = y.as_i();
    y > 0 && y & (y - 1) == 0 && lane_span(a, bn).0 >= 0
}

/// Append one access to the tape, under the innermost arm's mask.
fn record(
    tape: &mut Vec<TapeEntry>,
    mask_stack: &[u32],
    array: u16,
    index: TapeIndex,
    write: bool,
) {
    tape.push(TapeEntry {
        array: array as u32,
        index,
        write,
        mask: mask_stack.last().copied(),
    });
}

/// One walk over the op stream. `VALIDATE = true` runs only the
/// scalar/affine/control half plus hazard checks (no buffer writes, no
/// lane compute but the `early` bool slots) and returns `false` on any
/// hazard; `VALIDATE = false` executes everything and always returns
/// `true`.
fn walk<const VALIDATE: bool>(
    plan: &BatchPlan,
    st: &mut BatchState,
    bn: usize,
    params: &[V],
    mem: &mut Mem<'_>,
) -> bool {
    let sv = &mut st.sv;
    let vdef = &mut st.vdef;
    let av = &mut st.av;
    let fl = &mut st.fl;
    let bl = &mut st.bl;
    let il = &mut st.il;
    let spare_f = &mut st.spare_f;
    let spare_b = &mut st.spare_b;
    let act = &mut st.act;
    let lane_idx = &mut st.lane_idx;
    let group = st.group;
    let steps = &mut st.steps;
    let taping = !VALIDATE && st.taping;
    let tape = &mut st.tape;
    let masks = &mut st.masks;
    let mask_stack = &mut st.mask_stack;
    let mut pc = 0usize;
    while let Some(op) = plan.ops.get(pc) {
        pc += 1;
        if !VALIDATE && plan.settled[pc - 1] {
            continue;
        }
        match *op {
            // ---- scalar ----
            BOp::SConst { dst, v } => sv[dst as usize] = v,
            BOp::SParam { dst, p, tag } => {
                let v = params[p as usize];
                if VALIDATE {
                    let ok = matches!(
                        (v, tag),
                        (V::F(_), 0) | (V::I(_), 1) | (V::B(_), 2) | (_, 3)
                    );
                    if !ok {
                        return false;
                    }
                }
                sv[dst as usize] = v;
            }
            BOp::SUn { op, dst, a } => sv[dst as usize] = interp::un(op, sv[a as usize]),
            BOp::SBin { op, dst, a, b } => {
                let (va, vb) = (sv[a as usize], sv[b as usize]);
                if VALIDATE
                    && matches!(op, BinOp::Div | BinOp::Rem)
                    && !va.is_float()
                    && !vb.is_float()
                    && vb.as_i() == 0
                {
                    return false;
                }
                sv[dst as usize] = interp::bin(op, va, vb);
            }
            BOp::SCmp { op, dst, a, b } => {
                sv[dst as usize] = V::B(interp::cmp(op, sv[a as usize], sv[b as usize]));
            }
            BOp::SFma { dst, a, b, c } => {
                let (x, y, z) = (sv[a as usize], sv[b as usize], sv[c as usize]);
                sv[dst as usize] = V::F(interp::fma(x.as_f(), y.as_f(), z.as_f()));
            }
            BOp::SCast { ty, dst, a } => sv[dst as usize] = interp::cast(ty, sv[a as usize]),
            BOp::SSelect { dst, c, a, b } => {
                sv[dst as usize] = if sv[c as usize].as_b() {
                    sv[a as usize]
                } else {
                    sv[b as usize]
                };
            }
            BOp::SToInt { dst, a } => sv[dst as usize] = V::I(sv[a as usize].as_i()),
            BOp::SLet { ty, var, src } => {
                sv[var as usize] = interp::coerce(sv[src as usize], ty);
                vdef[var as usize] = true;
            }
            BOp::SSet { var, src } => {
                sv[var as usize] = sv[src as usize];
                vdef[var as usize] = true;
            }
            BOp::SLoad { array, idx, dst } => {
                let i = sv[idx as usize].as_i();
                let buf = mem.get(array);
                if VALIDATE && !(i >= 0 && (i as usize) < buf.len()) {
                    return false;
                }
                if taping {
                    // Executed once per batch, but every lane's scalar
                    // run performs (and logs) it.
                    let index = TapeIndex::Affine { base: i, stride: 0 };
                    record(tape, mask_stack, array, index, false);
                }
                sv[dst as usize] = interp::decode(buf, i as usize);
            }
            BOp::VDefCheck { var } => {
                if VALIDATE && !vdef[var as usize] {
                    return false;
                }
            }
            BOp::DefMark { var } => vdef[var as usize] = true,
            BOp::VIsInt { s } => {
                if VALIDATE && !matches!(sv[s as usize], V::I(_)) {
                    return false;
                }
            }
            BOp::SGroup { dst, sv: var } => sv[dst as usize] = V::I(group.get(var)),

            // ---- class changes and copies of scalars, affines and int
            // lanes ----
            BOp::Cvt { dst: Loc::A(d), a } => av[d as usize] = affine(av, sv, a),
            BOp::Copy { dst, a } => match (dst, a) {
                (Loc::S(d), Loc::S(a)) => sv[d as usize] = sv[a as usize],
                (Loc::A(d), Loc::A(a)) => av[d as usize] = av[a as usize],
                (Loc::LI(d), Loc::LI(a)) => copy_lanes(il, d, a),
                // Float lanes hold execution-walk values only.
                (Loc::LF(_), _) if VALIDATE => {}
                (Loc::LF(d), Loc::LF(a)) => copy_lanes(fl, d, a),
                _ => unreachable!("a copy keeps its class"),
            },

            // ---- affine and int lanes ----
            BOp::ABin { op, dst, a, b } => {
                let ((b0, s0), (b1, s1)) = (affine(av, sv, a), affine(av, sv, b));
                av[dst as usize] = match op {
                    BinOp::Add => (b0 + b1, s0 + s1),
                    BinOp::Sub => (b0 - b1, s0 - s1),
                    // One factor is a scalar: its stride is 0.
                    BinOp::Mul => (b0 * b1, s0 * b1 + s1 * b0),
                    _ => unreachable!("affine ops are Add, Sub and Mul"),
                };
            }
            BOp::ANeg { dst, a } => {
                let (b0, s0) = av[a as usize];
                av[dst as usize] = (-b0, -s0);
            }
            BOp::IBin {
                op: op @ (BinOp::Div | BinOp::Rem),
                dst,
                a: Loc::A(a),
                b: Loc::S(s),
            } if pow2_lanes(av[a as usize], sv[s as usize], bn) => {
                // `tid % 2s`: a power-of-two divisor of non-negative
                // affine lanes is a mask or a shift, exactly.
                let (base, stride) = av[a as usize];
                let y = sv[s as usize].as_i();
                let lanes = il[dst as usize].iter_mut().enumerate();
                let at = |b: usize| base + stride * b as i64;
                match op {
                    BinOp::Rem => lanes.for_each(|(b, x)| *x = at(b) & (y - 1)),
                    _ => lanes.for_each(|(b, x)| *x = at(b) >> y.trailing_zeros()),
                }
            }
            BOp::IBin { op, dst, a, b } => {
                let mut out = std::mem::take(&mut il[dst as usize]);
                let div = matches!(op, BinOp::Div | BinOp::Rem);
                let ok = int_pairs(&mut out, sv, av, il, a, b, |p, q| {
                    // The tree panics on 0 (and on `i64::MIN / -1`):
                    // leave the lane to it.
                    let panics = div && (q == 0 || q == -1);
                    (!panics).then(|| interp::int_arith(op, p, q))
                });
                il[dst as usize] = out;
                if !ok {
                    debug_assert!(VALIDATE, "execution walk hit a divisor validation passed");
                    return false;
                }
            }

            // ---- control ----
            BOp::ForHead { cnt, hi, exit } => {
                if sv[cnt as usize].as_i() >= sv[hi as usize].as_i() {
                    pc = exit as usize;
                }
            }
            BOp::ForStep { cnt, step, back } => {
                sv[cnt as usize] = V::I(sv[cnt as usize].as_i() + step);
                pc = back as usize;
            }
            BOp::MForHead {
                cnt,
                hi,
                mask,
                exit,
            } => {
                let mut any = false;
                int_pairs(&mut bl[mask as usize], sv, av, il, cnt, hi, |p, q| {
                    any |= p < q;
                    Some(p < q)
                });
                if !any {
                    pc = exit as usize;
                }
            }
            BOp::MForStep { cnt, step, back } => {
                match cnt {
                    Loc::A(r) => av[r as usize].0 += step,
                    Loc::LI(r) => il[r as usize].iter_mut().for_each(|x| *x += step),
                    _ => unreachable!("masked loop counters are affine or int lanes"),
                }
                pc = back as usize;
            }
            BOp::Step => {
                if VALIDATE {
                    *steps += bn as u64;
                }
            }
            BOp::StepIf { arm } => {
                if VALIDATE {
                    *steps += arm.lanes(act).len() as u64;
                }
            }
            BOp::Active { m } => {
                let list = &mut act[m as usize];
                list.clear();
                let taken = bl[m as usize].iter().enumerate();
                list.extend(taken.filter(|&(_, &on)| on).map(|(b, _)| b as u32));
            }

            // ---- memory: hazard checks in validate, accesses in exec ----
            BOp::Scatter {
                array,
                aff,
                src,
                when,
            } => {
                let (base, stride) = av[aff as usize];
                if VALIDATE {
                    if !affine_in_bounds((base, stride), when, act, bn, mem.get(array).len()) {
                        return false;
                    }
                    continue;
                }
                if taping {
                    record(
                        tape,
                        mask_stack,
                        array,
                        TapeIndex::Affine { base, stride },
                        true,
                    );
                }
                let taken = when.map(|arm| arm.lanes(act));
                let buf = mem.get_mut(array);
                match src {
                    Loc::S(s) => {
                        let x = sv[s as usize].as_f();
                        store_lanes(buf, taken, bn, (base, stride), |_| x)
                    }
                    Loc::LF(r) => {
                        let lanes = &fl[r as usize];
                        store_lanes(buf, taken, bn, (base, stride), |b| lanes[b])
                    }
                    _ => unreachable!("scatters store a scalar or float lanes"),
                }
            }
            BOp::GatherFI {
                array,
                idx,
                dst,
                when,
            } => {
                let ix = &il[idx as usize][..bn];
                let all = 0..bn as u32;
                let lanes: &mut dyn Iterator<Item = u32> = match when {
                    Some(arm) => &mut arm.lanes(act).iter().copied(),
                    None => &mut all.clone(),
                };
                if VALIDATE {
                    let len = mem.get(array).len() as i64;
                    for b in lanes {
                        if !(0..len).contains(&ix[b as usize]) {
                            return false;
                        }
                    }
                    continue;
                }
                if taping {
                    let at = u32::try_from(lane_idx.len()).expect("tape index pool fits u32");
                    lane_idx.extend_from_slice(ix);
                    record(tape, mask_stack, array, TapeIndex::Lanes(at), false);
                }
                let dv = &mut fl[dst as usize][..bn];
                match mem.get(array) {
                    Buffer::F32(src) => {
                        for b in lanes {
                            dv[b as usize] = src[ix[b as usize] as usize] as f64;
                        }
                    }
                    Buffer::F64(src) => {
                        for b in lanes {
                            dv[b as usize] = src[ix[b as usize] as usize];
                        }
                    }
                    _ => unreachable!("GatherFI source type pinned at compile"),
                }
            }
            BOp::GatherF {
                array,
                aff,
                dst,
                f32src,
                when,
            } => {
                let (base, stride) = av[aff as usize];
                if VALIDATE {
                    if !affine_in_bounds((base, stride), when, act, bn, mem.get(array).len()) {
                        return false;
                    }
                    continue;
                }
                if taping {
                    record(
                        tape,
                        mask_stack,
                        array,
                        TapeIndex::Affine { base, stride },
                        false,
                    );
                }
                let dv = &mut fl[dst as usize][..bn];
                if let Some(arm) = when {
                    // Only the performing lanes may index: another
                    // lane's element can be out of bounds.
                    let at = |b: u32| (base + stride * b as i64) as usize;
                    match mem.get(array) {
                        Buffer::F32(src) => {
                            for &b in arm.lanes(act) {
                                dv[b as usize] = src[at(b)] as f64;
                            }
                        }
                        Buffer::F64(src) => {
                            for &b in arm.lanes(act) {
                                dv[b as usize] = src[at(b)];
                            }
                        }
                        _ => unreachable!("GatherF source type pinned at compile"),
                    }
                } else if f32src {
                    let src = match mem.get(array) {
                        Buffer::F32(v) => v,
                        _ => unreachable!("GatherF/f32 source type pinned at compile"),
                    };
                    if stride == 1 {
                        let s = &src[base as usize..base as usize + bn];
                        for (x, &y) in dv.iter_mut().zip(s) {
                            *x = y as f64;
                        }
                    } else {
                        for (b, x) in dv.iter_mut().enumerate() {
                            *x = src[(base + stride * b as i64) as usize] as f64;
                        }
                    }
                } else {
                    let src = match mem.get(array) {
                        Buffer::F64(v) => v,
                        _ => unreachable!("GatherF/f64 source type pinned at compile"),
                    };
                    if stride == 1 {
                        dv.copy_from_slice(&src[base as usize..base as usize + bn]);
                    } else {
                        for (b, x) in dv.iter_mut().enumerate() {
                            *x = src[(base + stride * b as i64) as usize];
                        }
                    }
                }
            }

            // ---- lane compute: execution walk only, but for the bool
            // lanes `If` conditions are built from, which the validation
            // walk computes where it needs them ----
            _ if VALIDATE && !early_dst(op).is_some_and(|d| plan.early[d as usize]) => {}
            BOp::Cvt { dst, a } => cvt(fl, bl, sv, av, dst, a),
            BOp::ICmp { op, dst, a, b } => {
                int_pairs(&mut bl[dst as usize], sv, av, il, a, b, |p, q| {
                    Some(interp::compare(op, p, q))
                });
            }
            BOp::BAnd { dst, a, b } => lbin(bl, spare_b, dst, a, b, |x, y| x && y),
            BOp::BOr { dst, a, b } => lbin(bl, spare_b, dst, a, b, |x, y| x || y),
            BOp::BNot { dst, a } => lmap(bl, spare_b, dst, a, |x| !x),
            BOp::LMergeF { dst, src, mask } => {
                let mut dv = std::mem::take(&mut fl[dst as usize]);
                for &b in Arm(mask).lanes(act) {
                    dv[b as usize] = fl[src as usize][b as usize];
                }
                fl[dst as usize] = dv;
            }
            BOp::MaskPush { c, pol } => {
                if taping {
                    let parent = mask_stack.last().copied();
                    let base = masks.len();
                    mask_stack.push((base / bn) as u32);
                    // The arm's mask starts as its parent's, then the
                    // condition's class is resolved once: one bool for
                    // every lane, or one lane vector.
                    match parent {
                        None => masks.resize(base + bn, true),
                        Some(p) => {
                            let p = p as usize * bn;
                            masks.extend_from_within(p..p + bn);
                        }
                    }
                    let arm = &mut masks[base..];
                    match c {
                        Loc::S(s) => {
                            if sv[s as usize].as_b() != pol {
                                arm.fill(false);
                            }
                        }
                        Loc::LB(r) => {
                            let on = &bl[r as usize][..bn];
                            arm.iter_mut().zip(on).for_each(|(m, &x)| *m &= x == pol);
                        }
                        _ => unreachable!("mask conditions are S or LB"),
                    }
                }
            }
            BOp::MaskPop => {
                if taping {
                    mask_stack.pop();
                }
            }
            BOp::CvtFtoF32 { dst, a } => lmap(fl, spare_f, dst, a, |x| x as f32 as f64),
            BOp::FBin { op, dst, a, b } => fbin(fl, spare_f, sv, op, dst, a, b),
            BOp::FFma { dst, a, b, c } => lanes(fl, spare_f, dst, |out, fl| {
                let args = fl[a as usize]
                    .iter()
                    .zip(&fl[b as usize])
                    .zip(&fl[c as usize]);
                let fma = |((&x, &y), &z)| interp::fma(x, y, z);
                out.iter_mut().zip(args).for_each(|(o, xyz)| *o = fma(xyz));
            }),
            // One closure per operator, so each loop gets it constant.
            BOp::UnF { op, dst, a } => match op {
                UnOp::Neg => lmap(fl, spare_f, dst, a, |x| interp::un_f(UnOp::Neg, x)),
                UnOp::Abs => lmap(fl, spare_f, dst, a, |x| interp::un_f(UnOp::Abs, x)),
                UnOp::Rcp => lmap(fl, spare_f, dst, a, |x| interp::un_f(UnOp::Rcp, x)),
                UnOp::Sqrt => lmap(fl, spare_f, dst, a, |x| interp::un_f(UnOp::Sqrt, x)),
                UnOp::Exp => lmap(fl, spare_f, dst, a, |x| interp::un_f(UnOp::Exp, x)),
                UnOp::Not => unreachable!("Not lowers to Cvt + BNot"),
            },
            BOp::FCmp { op, dst, a, b } => {
                let out = bl[dst as usize].iter_mut();
                let cmp = |x: f64, y: f64| interp::compare(op, x, y);
                match (a, b) {
                    (Loc::LF(a), Loc::LF(b)) => {
                        let lanes = out.zip(&fl[a as usize]).zip(&fl[b as usize]);
                        lanes.for_each(|((x, &p), &q)| *x = cmp(p, q));
                    }
                    (Loc::LF(a), Loc::S(s)) => {
                        let q = sv[s as usize].as_f();
                        out.zip(&fl[a as usize]).for_each(|(x, &p)| *x = cmp(p, q));
                    }
                    (Loc::S(s), Loc::LF(b)) => {
                        let p = sv[s as usize].as_f();
                        out.zip(&fl[b as usize]).for_each(|(x, &q)| *x = cmp(p, q));
                    }
                    _ => unreachable!("float lane compares have a lane operand"),
                }
            }
            BOp::SelF { dst, c, a, b } => {
                let on = &bl[c as usize];
                lanes(fl, spare_f, dst, |out, fl| {
                    let args = on.iter().zip(&fl[a as usize]).zip(&fl[b as usize]);
                    let pick = |((&on, &x), &y)| if on { x } else { y };
                    out.iter_mut().zip(args).for_each(|(o, cxy)| *o = pick(cxy));
                })
            }
        }
    }
    true
}

// ---------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------

/// Statically known runtime tag of a scalar slot. `Unk` is only used
/// where the compiler does not *need* the tag — generic scalar ops
/// re-dispatch on the runtime tag exactly like the tree-walker; lane
/// classification decisions demand a certain tag or reject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum STy {
    F,
    I,
    B,
    Unk,
}

/// A compiled value: where it lives plus what the compiler can prove.
/// `f32v` means "guaranteed f32-representable f64", which lets the
/// F32 `Let` coercion skip a redundant narrowing pass.
#[derive(Debug, Clone, Copy)]
struct Val {
    loc: Loc,
    sty: STy,
    f32v: bool,
}

/// Per-array access record, the input to scatter-guard construction.
#[derive(Debug, Clone, Default)]
struct ArrAcc {
    /// Every access to the array.
    touches: Vec<Touch>,
    /// The array's scatters.
    scatters: Vec<Touch>,
    /// Any access from inside a sequential loop (affine registers are
    /// then recomputed per trip, so guard values would be stale).
    in_for: bool,
}

/// Rollback point for the sequential-loop pin fixpoint.
#[derive(Clone)]
struct BcSnap {
    ops_len: usize,
    pre_len: usize,
    env: Vec<Val>,
    pinned: Vec<bool>,
    pin_len: usize,
    sdef: Vec<bool>,
    n_s: u16,
    n_a: u16,
    n_f: u16,
    n_b: u16,
    n_i: u16,
    acc: Vec<ArrAcc>,
    pslots: Vec<Option<u16>>,
    consts: Vec<(u8, u64, u16)>,
    specials: Vec<(SpecialVar, u16)>,
    poison: Vec<bool>,
    uncond: Vec<bool>,
    masked_wb: Vec<(u16, Loc, Arm)>,
}

struct Bc<'a> {
    p: &'a Program,
    ops: Vec<BOp>,
    /// Prologue: pooled constants and parameter reads, run before
    /// `ops` so that a slot first filled inside a sequential loop is
    /// still set when a later loop (or a zero-trip one) reuses it.
    pre: Vec<BOp>,
    env: Vec<Val>,
    /// Variables currently pinned to a mutable `LF` slot by an
    /// enclosing sequential loop (loop-carried lane values).
    pinned: Vec<bool>,
    /// Every pin slot ever allocated: a lane value living in one may
    /// mutate later, so capturing it in another variable must copy.
    pin_slots: Vec<u16>,
    /// Static definite-assignment (false ⇒ reads emit `VDefCheck`).
    sdef: Vec<bool>,
    n_s: u16,
    n_a: u16,
    n_f: u16,
    n_b: u16,
    n_i: u16,
    acc: Vec<ArrAcc>,
    /// Parameter → scalar-slot cache.
    pslots: Vec<Option<u16>>,
    /// Constant pool keyed by (tag, bit pattern) — bit-keyed so that
    /// `-0.0` and `0.0` stay distinct.
    consts: Vec<(u8, u64, u16)>,
    /// Sequential-loop nesting depth.
    depth: u32,
    /// The `If` arm (or masked loop trip) being compiled, if any.
    arm: Option<Arm>,
    /// Bool lane slots the validation walk must compute (see
    /// [`BatchPlan::early`]).
    early: Vec<bool>,
    /// A grouped phase: `LocalId` is the lane, local arrays are
    /// addressable, sequential loops may have per-lane bounds and `If`
    /// arms may assign variables.
    grouped: bool,
    /// Element types of the kernel's local arrays, addressed after the
    /// program's global arrays.
    locals_elem: Vec<Scalar>,
    /// Pooled work-group builtin slots.
    specials: Vec<(SpecialVar, u16)>,
    /// Compiling the body of a masked loop (per-lane bounds): `arm` is
    /// its trip mask.
    masked_loop: bool,
    /// Variables whose lanes the plan cannot name after an `If` arm or
    /// a masked loop assigned them on some lanes only: reading one
    /// rejects the plan.
    poison: Vec<bool>,
    /// Variables assigned outside `If` arms so far; an arm assigning
    /// one afterwards would need that value written back first, so it
    /// rejects.
    uncond: Vec<bool>,
    /// Variables assigned inside `If` arms so far, in order; those of
    /// the arm being compiled (and the arms nested in it) start at
    /// `arm_from`.
    arm_vars: Vec<u16>,
    arm_from: usize,
    /// `If`-arm assignments, written back at the end of a grouped phase
    /// to the lanes taking the arm.
    masked_wb: Vec<(u16, Loc, Arm)>,
}

/// Compile the innermost parallel loop of `k` into a batch plan, or
/// `None` if anything falls outside the provably-bitwise subset.
pub(crate) fn build(p: &Program, k: &Kernel) -> Option<BatchPlan> {
    let body = match &k.body {
        KernelBody::Simple(b) => b,
        KernelBody::Grouped(_) => return None,
    };
    let lane = k.loops.last()?.var;
    let mut c = Bc::new(p, false, Vec::new())?;
    // Outer parallel loop variables are defined integer scalars; the
    // innermost one is the lane itself.
    for lp in &k.loops[..k.loops.len() - 1] {
        let i = lp.var.0 as usize;
        c.env[i].sty = STy::I;
        c.sdef[i] = true;
    }
    c.env[lane.0 as usize] = Val {
        loc: Loc::A(0),
        sty: STy::I,
        f32v: false,
    };
    c.sdef[lane.0 as usize] = true;

    c.block(body)?;

    // The region-reduction value is evaluated after the body, in the
    // same environment (it may reference body locals).
    let reduce = match &k.region_reduction {
        Some(rr) => {
            let v = c.expr(&rr.value)?;
            Some((v.loc, rr.op))
        }
        None => None,
    };

    // Lane-valued variables need an explicit last-lane writeback.
    let mut outs = Vec::new();
    for (i, v) in c.env.iter().enumerate() {
        match v.loc {
            Loc::S(_) => {}
            loc => outs.push((i as u16, loc)),
        }
    }
    let mut plan = c.finish()?;
    plan.lane_var = Some(u16::try_from(lane.0).ok()?);
    plan.outs = outs;
    plan.reduce = reduce;
    Some(plan)
}

/// How the lanes of a variable stand after the phase that last
/// assigned it, as the next phase reading it gathers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Held {
    Uniform,
    Affine,
    Float,
}

/// Work-groups smaller than this run every phase lane by lane: a
/// batched phase's fixed cost outweighs the per-lane dispatch it
/// saves. Measured on `reduction_to_grouped` launches: 4-lane groups
/// ran ~2× slower batched, 8-lane ones broke even, 16-, 32- and
/// 128-lane ones ran 1.2×, 2× and 3.4× faster.
const MIN_GROUP_LANES: u32 = 8;

/// Compile every phase of grouped kernel `k` into a batch plan over
/// its work-group's lanes, `None` where a phase falls outside the
/// provably-bitwise subset (it then runs lane by lane).
pub(crate) fn build_phases(p: &Program, k: &Kernel) -> Vec<Option<BatchPlan>> {
    let KernelBody::Grouped(g) = &k.body else {
        return Vec::new();
    };
    if g.group_size < MIN_GROUP_LANES {
        return vec![None; g.phases.len()];
    }
    let nv = p.var_names.len();
    let gvar = match k.loops.as_slice() {
        [lp] => lp.var.0 as usize,
        _ => return vec![None; g.phases.len()],
    };
    // Per phase: the variables it may read before assigning them, and
    // the ones it assigns.
    let sets: Vec<(Vec<bool>, Vec<bool>)> = g
        .phases
        .iter()
        .map(|ph| {
            let mut reads = vec![false; nv];
            exposed_reads(ph, &mut vec![false; nv], &mut reads);
            let mut assigns = vec![false; nv];
            for v in [ph.assigned_vars(), ph.let_vars(), ph.for_vars()]
                .into_iter()
                .flatten()
            {
                assigns[v.0 as usize] = true;
            }
            (reads, assigns)
        })
        .collect();
    let locals_elem: Vec<Scalar> = g.locals.iter().map(|l| l.elem).collect();
    let mut held: Vec<Option<Held>> = vec![None; nv];
    let mut earlier = vec![false; nv];
    let mut plans = Vec::with_capacity(g.phases.len());
    for (pi, phase) in g.phases.iter().enumerate() {
        // What a later phase (batched or not) may read of this one.
        let mut live = vec![false; nv];
        for (reads, _) in &sets[pi + 1..] {
            live.iter_mut().zip(reads).for_each(|(l, r)| *l |= r);
        }
        let (reads, assigns) = &sets[pi];
        let plan = build_phase(
            p,
            phase,
            locals_elem.clone(),
            gvar,
            &held,
            &earlier,
            reads,
            assigns,
            &live,
        );
        for v in (0..nv).filter(|&v| assigns[v]) {
            let wb = plan
                .as_ref()
                .and_then(|pl| pl.wb.iter().find(|w| w.0 as usize == v));
            held[v] = match wb {
                Some((_, Loc::S(_), None)) => Some(Held::Uniform),
                Some((_, Loc::A(_), None)) => Some(Held::Affine),
                // The lanes an `If` arm did not reach keep an earlier
                // value: floats on every lane is what the gather can
                // still check for.
                Some((_, Loc::LF(_) | Loc::S(_), _)) => Some(Held::Float),
                _ => None,
            };
            earlier[v] = true;
        }
        plans.push(plan);
    }
    plans
}

/// Mark in `reads` every variable `b` may read before assigning it,
/// given the variables `def` definitely assigned on entry; leaves in
/// `def` those definitely assigned on exit.
fn exposed_reads(b: &Block, def: &mut Vec<bool>, reads: &mut [bool]) {
    fn expr(e: &Expr, def: &[bool], reads: &mut [bool]) {
        e.walk(&mut |x| {
            if let Expr::Var(v) = x {
                reads[v.0 as usize] |= !def[v.0 as usize];
            }
        });
    }
    for s in &b.0 {
        s.for_each_expr(&mut |e| expr(e, def, reads));
        match s {
            Stmt::Let { var, .. } | Stmt::Assign { var, .. } => def[var.0 as usize] = true,
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                let mut then_def = def.clone();
                exposed_reads(then_blk, &mut then_def, reads);
                exposed_reads(else_blk, def, reads);
                def.iter_mut().zip(then_def).for_each(|(d, t)| *d &= t);
            }
            Stmt::For { var, body, .. } => {
                // A zero-trip loop assigns nothing.
                let mut inner = def.clone();
                inner[var.0 as usize] = true;
                exposed_reads(body, &mut inner, reads);
            }
            Stmt::Store { .. } | Stmt::Atomic { .. } | Stmt::Barrier => {}
        }
    }
}

/// One phase of [`build_phases`]. `earlier` marks the variables an
/// earlier phase assigns and `held` how their lanes stand; `reads` the
/// ones this phase may read before assigning them; `live` the ones a
/// later phase may.
#[allow(clippy::too_many_arguments)]
fn build_phase(
    p: &Program,
    phase: &Block,
    locals_elem: Vec<Scalar>,
    gvar: usize,
    held: &[Option<Held>],
    earlier: &[bool],
    reads: &[bool],
    assigns: &[bool],
    live: &[bool],
) -> Option<BatchPlan> {
    let mut c = Bc::new(p, true, locals_elem)?;
    // The VM sets the group's loop variable on every lane.
    c.env[gvar].sty = STy::I;
    c.sdef[gvar] = true;
    // Everything an earlier phase assigned is gathered from the lanes
    // when this phase reads it, or assigns it for a later one (a
    // zero-trip loop leaves the gathered value).
    let mut ins = Vec::new();
    for v in 0..earlier.len() {
        if v == gvar || !earlier[v] || !(reads[v] || assigns[v] && live[v]) {
            continue;
        }
        let (how, loc, sty) = match held[v]? {
            Held::Uniform => (Gather::Uniform, Loc::S(v as u16), STy::Unk),
            Held::Affine => {
                let r = c.a_slot()?;
                (Gather::Affine(r), Loc::A(r), STy::I)
            }
            Held::Float => {
                let r = c.f_slot()?;
                (Gather::Float(r), Loc::LF(r), STy::F)
            }
        };
        c.env[v] = Val {
            loc,
            sty,
            f32v: false,
        };
        c.sdef[v] = how != Gather::Uniform;
        ins.push((v as u16, how));
    }

    c.block(phase)?;

    let mut wb = Vec::new();
    for v in 0..earlier.len() {
        if v == gvar || !assigns[v] || !live[v] {
            continue;
        }
        if c.poison[v] {
            let masked = c.masked_wb.iter().filter(|m| m.0 as usize == v);
            let before = wb.len();
            wb.extend(masked.map(|&(var, loc, arm)| (var, loc, Some(arm))));
            if wb.len() == before {
                return None;
            }
        } else if c.sdef[v] || !earlier[v] || ins.iter().any(|&(i, _)| i as usize == v) {
            // Known on every lane: assigned for sure, or starting from
            // a value the phase holds.
            wb.push((v as u16, c.env[v].loc, None));
        } else {
            return None;
        }
    }
    let mut plan = c.finish()?;
    plan.ins = ins;
    plan.wb = wb;
    Some(plan)
}

impl<'a> Bc<'a> {
    /// A compiler with every variable an undefined-until-checked
    /// scalar in its own slot, for a simple kernel or a grouped phase
    /// with local arrays of element types `locals_elem`.
    fn new(p: &'a Program, grouped: bool, locals_elem: Vec<Scalar>) -> Option<Bc<'a>> {
        let nv = p.var_names.len();
        let n_vars = u16::try_from(nv).ok()?;
        Some(Bc {
            p,
            ops: Vec::new(),
            pre: Vec::new(),
            env: (0..nv)
                .map(|i| Val {
                    loc: Loc::S(i as u16),
                    sty: STy::Unk,
                    f32v: false,
                })
                .collect(),
            pinned: vec![false; nv],
            pin_slots: Vec::new(),
            sdef: vec![false; nv],
            n_s: n_vars,
            n_a: 1, // av[0] is the lane affine
            n_f: 0,
            n_b: 0,
            n_i: 0,
            acc: vec![ArrAcc::default(); p.arrays.len() + locals_elem.len()],
            pslots: vec![None; p.params.len()],
            consts: Vec::new(),
            depth: 0,
            arm: None,
            early: Vec::new(),
            grouped,
            locals_elem,
            specials: Vec::new(),
            masked_loop: false,
            poison: vec![false; nv],
            uncond: vec![false; nv],
            arm_vars: Vec::new(),
            arm_from: 0,
            masked_wb: Vec::new(),
        })
    }

    /// The plan for the compiled body: guards, early slots, and the
    /// prologue in front.
    fn finish(self) -> Option<BatchPlan> {
        let n_glob = self.p.arrays.len();
        // Scatter guards. An array that is scattered *and* otherwise
        // accessed is only batchable when, per batch, each scatter
        // either hits the same per-lane index as every other access or
        // a disjoint lane range (see [`Guard`]); a local array gets
        // the exact [`Owner`] check instead. A sole scatter with no
        // other access needs neither: ascending-lane writes make the
        // last lane win, exactly like the tree's lane-major order.
        let mut guards = Vec::new();
        let mut owners = Vec::new();
        for (i, a) in self.acc.iter().enumerate() {
            if a.scatters.is_empty() {
                continue;
            }
            if a.in_for || a.touches.iter().any(|t| matches!(t.at, Loc::LI(_))) {
                return None;
            }
            if a.touches.len() == 1 {
                continue;
            }
            if i >= n_glob {
                owners.push(Owner {
                    array: u16::try_from(i).ok()?,
                    touches: a.touches.clone(),
                    scatters: a.scatters.clone(),
                });
                continue;
            }
            guards.extend(a.scatters.iter().map(|&scatter| Guard {
                scatter,
                others: a.touches.clone(),
            }));
        }
        let mut early = self.early;
        early.resize(self.n_b as usize, false);
        // The validation walk runs before any store lands: a scalar
        // load after a store to its array (the guards let one lane do
        // both) would read the old element there, and every hazard
        // check, `If` lane set and reused condition built on it would
        // be wrong.
        let mut stored = vec![false; self.acc.len()];
        for op in &self.ops {
            match *op {
                BOp::Scatter { array, .. } => stored[array as usize] = true,
                BOp::SLoad { array, .. } if stored[array as usize] => return None,
                _ => {}
            }
        }
        // Lane conditions outside sequential loops: both walks compute
        // them once, from the same state.
        let mut in_loop = vec![false; self.ops.len()];
        for (h, op) in self.ops.iter().enumerate() {
            if let BOp::ForHead { exit, .. } | BOp::MForHead { exit, .. } = *op {
                in_loop[h..exit as usize].iter_mut().for_each(|x| *x = true);
            }
        }
        let mut settled = vec![false; self.pre.len()];
        settled.extend(self.ops.iter().zip(&in_loop).map(|(op, &looped)| {
            !looped
                && match *op {
                    BOp::IBin { .. } | BOp::Active { .. } => true,
                    _ => early_dst(op).is_some_and(|d| early[d as usize]),
                }
        }));

        // The prologue runs first; shift the body's jump targets past it.
        let shift = u32::try_from(self.pre.len()).ok()?;
        let mut ops = self.pre;
        for op in self.ops {
            ops.push(match op {
                BOp::ForHead { cnt, hi, exit } => BOp::ForHead {
                    cnt,
                    hi,
                    exit: exit.checked_add(shift)?,
                },
                BOp::ForStep { cnt, step, back } => BOp::ForStep {
                    cnt,
                    step,
                    back: back.checked_add(shift)?,
                },
                BOp::MForHead {
                    cnt,
                    hi,
                    mask,
                    exit,
                } => BOp::MForHead {
                    cnt,
                    hi,
                    mask,
                    exit: exit.checked_add(shift)?,
                },
                BOp::MForStep { cnt, step, back } => BOp::MForStep {
                    cnt,
                    step,
                    back: back.checked_add(shift)?,
                },
                op => op,
            });
        }

        Some(BatchPlan {
            ops,
            n_vars: u16::try_from(self.p.var_names.len()).ok()?,
            n_glob: u16::try_from(n_glob).ok()?,
            lane_var: None,
            n_s: self.n_s,
            n_a: self.n_a,
            n_f: self.n_f,
            n_b: self.n_b,
            n_i: self.n_i,
            outs: Vec::new(),
            reduce: None,
            guards,
            owners,
            early,
            settled,
            ins: Vec::new(),
            wb: Vec::new(),
        })
    }

    fn snap(&self) -> BcSnap {
        BcSnap {
            ops_len: self.ops.len(),
            pre_len: self.pre.len(),
            env: self.env.clone(),
            pinned: self.pinned.clone(),
            pin_len: self.pin_slots.len(),
            sdef: self.sdef.clone(),
            n_s: self.n_s,
            n_a: self.n_a,
            n_f: self.n_f,
            n_b: self.n_b,
            n_i: self.n_i,
            acc: self.acc.clone(),
            pslots: self.pslots.clone(),
            consts: self.consts.clone(),
            specials: self.specials.clone(),
            poison: self.poison.clone(),
            uncond: self.uncond.clone(),
            masked_wb: self.masked_wb.clone(),
        }
    }

    fn restore(&mut self, s: &BcSnap) {
        self.ops.truncate(s.ops_len);
        self.pre.truncate(s.pre_len);
        self.env.clone_from(&s.env);
        self.pinned.clone_from(&s.pinned);
        self.pin_slots.truncate(s.pin_len);
        self.sdef.clone_from(&s.sdef);
        self.n_s = s.n_s;
        self.n_a = s.n_a;
        self.n_f = s.n_f;
        self.n_b = s.n_b;
        self.n_i = s.n_i;
        self.acc.clone_from(&s.acc);
        self.pslots.clone_from(&s.pslots);
        self.consts.clone_from(&s.consts);
        self.specials.clone_from(&s.specials);
        self.poison.clone_from(&s.poison);
        self.uncond.clone_from(&s.uncond);
        self.masked_wb.clone_from(&s.masked_wb);
    }

    fn s_slot(&mut self) -> Option<u16> {
        let r = self.n_s;
        self.n_s = self.n_s.checked_add(1)?;
        Some(r)
    }
    fn a_slot(&mut self) -> Option<u16> {
        let r = self.n_a;
        self.n_a = self.n_a.checked_add(1)?;
        Some(r)
    }
    fn f_slot(&mut self) -> Option<u16> {
        let r = self.n_f;
        self.n_f = self.n_f.checked_add(1)?;
        Some(r)
    }
    fn b_slot(&mut self) -> Option<u16> {
        let r = self.n_b;
        self.n_b = self.n_b.checked_add(1)?;
        Some(r)
    }
    fn i_slot(&mut self) -> Option<u16> {
        let r = self.n_i;
        self.n_i = self.n_i.checked_add(1)?;
        Some(r)
    }

    fn konst(&mut self, tag: u8, bits: u64, v: V) -> Option<u16> {
        if let Some(&(_, _, s)) = self.consts.iter().find(|&&(t, b, _)| t == tag && b == bits) {
            return Some(s);
        }
        let dst = self.s_slot()?;
        self.pre.push(BOp::SConst { dst, v });
        self.consts.push((tag, bits, dst));
        Some(dst)
    }

    fn param(&mut self, p: ParamId) -> Option<Val> {
        let i = p.0 as usize;
        let decl_ty = self.p.params[i].ty;
        let (tag, sty) = match decl_ty {
            Scalar::F32 | Scalar::F64 => (0, STy::F),
            Scalar::I32 | Scalar::U32 => (1, STy::I),
            Scalar::Bool => (2, STy::B),
        };
        let dst = match self.pslots[i] {
            Some(s) => s,
            None => {
                let dst = self.s_slot()?;
                self.pre.push(BOp::SParam {
                    dst,
                    p: u16::try_from(p.0).ok()?,
                    tag,
                });
                self.pslots[i] = Some(dst);
                dst
            }
        };
        Some(Val {
            loc: Loc::S(dst),
            sty,
            f32v: false,
        })
    }

    /// `as_f()` of any value class but int lanes into an f64 lane
    /// vector: the lanes themselves, or one [`BOp::Cvt`].
    fn lane_f(&mut self, v: &Val) -> Option<u16> {
        match v.loc {
            Loc::LF(r) => Some(r),
            Loc::LI(_) => None,
            a => {
                let dst = self.f_slot()?;
                self.ops.push(BOp::Cvt {
                    dst: Loc::LF(dst),
                    a,
                });
                Some(dst)
            }
        }
    }

    /// `as_b()` of any value class but int lanes into a bool lane
    /// vector: the lanes themselves, or one [`BOp::Cvt`].
    fn lane_b(&mut self, v: &Val) -> Option<u16> {
        match v.loc {
            Loc::LB(r) => Some(r),
            Loc::LI(_) => None,
            a => {
                let dst = self.b_slot()?;
                self.ops.push(BOp::Cvt {
                    dst: Loc::LB(dst),
                    a,
                });
                Some(dst)
            }
        }
    }

    /// An integer operand the tree reads through `as_i()`, as lanes: an
    /// affine or int lanes as they are, a scalar as the affine
    /// `(as_i(), 0)`.
    fn lane_int(&mut self, v: &Val) -> Option<Loc> {
        match v.loc {
            Loc::A(_) | Loc::LI(_) => Some(v.loc),
            Loc::S(_) => {
                let dst = Loc::A(self.a_slot()?);
                self.ops.push(BOp::Cvt { dst, a: v.loc });
                Some(dst)
            }
            Loc::LF(_) | Loc::LB(_) => None,
        }
    }

    /// A fresh slot of `a`'s class holding a copy of it. (No bool
    /// lanes are ever kept apart.)
    fn copy(&mut self, a: Loc) -> Option<Loc> {
        let dst = match a {
            Loc::S(_) => Loc::S(self.s_slot()?),
            Loc::A(_) => Loc::A(self.a_slot()?),
            Loc::LF(_) => Loc::LF(self.f_slot()?),
            Loc::LI(_) => Loc::LI(self.i_slot()?),
            Loc::LB(_) => return None,
        };
        self.ops.push(BOp::Copy { dst, a });
        Some(dst)
    }

    /// Can scalar operand `v` take the tree's integer path against an
    /// affine? Statically integer, or of unknown type (a host loop
    /// variable, say) with a validation-time tag check: a non-integer
    /// at run time makes the batch fall back.
    fn int_scalar(&mut self, v: &Val) -> bool {
        match (v.sty, v.loc) {
            (STy::I | STy::B, _) => true,
            (STy::Unk, Loc::S(s)) => {
                self.ops.push(BOp::VIsInt { s });
                true
            }
            _ => false,
        }
    }

    /// Guaranteed runtime-`F` operand? (The condition for committing
    /// to `interp::bin`/`cmp`'s float path at compile time.)
    fn float_certain(v: &Val) -> bool {
        match v.loc {
            Loc::LF(_) => true,
            Loc::S(_) => v.sty == STy::F,
            Loc::A(_) | Loc::LB(_) | Loc::LI(_) => false,
        }
    }

    fn block(&mut self, b: &Block) -> Option<()> {
        for s in &b.0 {
            self.stmt(s)?;
        }
        Some(())
    }

    fn stmt(&mut self, s: &Stmt) -> Option<()> {
        self.ops.push(match self.arm {
            None => BOp::Step,
            Some(arm) => BOp::StepIf { arm },
        });
        match s {
            Stmt::Let { var, ty, init } => {
                let v = self.expr(init)?;
                self.assign(*var, Some(*ty), v)
            }
            Stmt::Assign { var, value } => {
                let v = self.expr(value)?;
                self.assign(*var, None, v)
            }
            Stmt::Store {
                space,
                array,
                index,
                value,
            } => self.store(*space, *array, index, value),
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => self.for_loop(*var, lo, hi, *step, body),
            // No-op under sequential per-thread execution, same as the
            // tree-walker.
            Stmt::Barrier => Some(()),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => self.if_stmt(cond, then_blk, else_blk),
            // Synchronizing constructs keep the scalar VM path.
            Stmt::Atomic { .. } => None,
        }
    }

    /// An `If` outside sequential loops whose arms only store (or nest
    /// such `If`s) runs as masked stores; in a grouped phase the arms
    /// may also assign variables, which the phase then writes back to
    /// the lanes taking the arm. The condition must be built from
    /// scalars, integer compares of affine or int lanes and bool
    /// logic, which the validation walk computes too, so it can count
    /// steps and check bounds and guards for exactly the lanes that
    /// take each arm.
    fn if_stmt(&mut self, cond: &Expr, then_blk: &Block, else_blk: &Block) -> Option<()> {
        fn arm_ok(b: &Block, grouped: bool) -> bool {
            b.0.iter().all(|s| match s {
                Stmt::Store { space, .. } => grouped || *space == MemSpace::Global,
                Stmt::Let { .. } | Stmt::Assign { .. } => grouped,
                Stmt::If {
                    then_blk, else_blk, ..
                } => arm_ok(then_blk, grouped) && arm_ok(else_blk, grouped),
                _ => false,
            })
        }
        if self.depth > 0 || !arm_ok(then_blk, self.grouped) || !arm_ok(else_blk, self.grouped) {
            return None;
        }
        let vc = self.expr(cond)?;
        let c = match vc.loc {
            Loc::S(_) | Loc::LB(_) => self.lane_b(&vc)?,
            _ => return None,
        };
        let outer = self.arm;
        for (blk, pol) in [(then_blk, true), (else_blk, false)] {
            if blk.0.is_empty() {
                continue;
            }
            let mut m = c;
            if !pol {
                let dst = self.b_slot()?;
                self.ops.push(BOp::BNot { dst, a: m });
                m = dst;
            }
            if let Some(Arm(o)) = outer {
                let dst = self.b_slot()?;
                self.ops.push(BOp::BAnd { dst, a: o, b: m });
                m = dst;
            }
            self.mark_early(m)?;
            self.ops.push(BOp::Active { m });
            let sdef = self.sdef.clone();
            let outer_from = std::mem::replace(&mut self.arm_from, self.arm_vars.len());
            self.arm = Some(Arm(m));
            self.ops.push(BOp::MaskPush {
                c: Loc::LB(m),
                pol: true,
            });
            let arm = self.block(blk);
            self.ops.push(BOp::MaskPop);
            self.arm = outer;
            arm?;
            let vars = self.arm_vars.split_off(self.arm_from);
            self.arm_from = outer_from;
            self.close_arm(&vars, Arm(m))?;
            self.arm_vars.extend(vars);
            self.sdef = sdef;
        }
        Some(())
    }

    /// Leave an `If` arm that assigned `vars`: each one's value is
    /// recorded for the lanes taking the arm, and the variable is
    /// poisoned for the rest of the phase (its lanes now disagree).
    fn close_arm(&mut self, vars: &[u16], arm: Arm) -> Option<()> {
        for &v in vars {
            let i = v as usize;
            if self.poison[i] {
                // Only an arm nested in this one can have poisoned it
                // (`assign`), and that arm recorded it.
                continue;
            }
            let loc = match self.env[i].loc {
                // The variable's own slot may be reassigned later in
                // the phase: keep this value apart.
                s @ Loc::S(_) => self.copy(s)?,
                loc => loc,
            };
            self.masked_wb.push((v, loc, arm));
            self.poison[i] = true;
        }
        Some(())
    }

    /// Mark bool lane slot `b` and the slots it is computed from as
    /// validation-walk values; `None` unless all come from integer
    /// compares and bool logic.
    fn mark_early(&mut self, b: u16) -> Option<()> {
        let op = self
            .ops
            .iter()
            .rev()
            .find(|op| early_dst(op) == Some(b))?
            .clone();
        if self.early.len() <= b as usize {
            self.early.resize(b as usize + 1, false);
        }
        self.early[b as usize] = true;
        match op {
            BOp::BAnd { a, b, .. } | BOp::BOr { a, b, .. } => {
                self.mark_early(a)?;
                self.mark_early(b)
            }
            BOp::BNot { a, .. } => self.mark_early(a),
            _ => Some(()),
        }
    }

    fn expr(&mut self, e: &Expr) -> Option<Val> {
        match e {
            Expr::FConst(v) => {
                let s = self.konst(0, v.to_bits(), V::F(*v))?;
                Some(Val {
                    loc: Loc::S(s),
                    sty: STy::F,
                    f32v: (*v as f32 as f64) == *v,
                })
            }
            Expr::IConst(v) => {
                let s = self.konst(1, *v as u64, V::I(*v))?;
                Some(Val {
                    loc: Loc::S(s),
                    sty: STy::I,
                    f32v: false,
                })
            }
            Expr::BConst(v) => {
                let s = self.konst(2, *v as u64, V::B(*v))?;
                Some(Val {
                    loc: Loc::S(s),
                    sty: STy::B,
                    f32v: false,
                })
            }
            Expr::Param(p) => self.param(*p),
            Expr::Var(v) => {
                let i = v.0 as usize;
                if self.poison[i] {
                    return None;
                }
                if !self.sdef[i] {
                    self.ops.push(BOp::VDefCheck {
                        var: u16::try_from(v.0).ok()?,
                    });
                }
                Some(self.env[i])
            }
            Expr::Special(sv) => self.special(*sv),
            Expr::Load {
                space,
                array,
                index,
            } => self.load(*space, *array, index),
            Expr::Un(op, a) => {
                let va = self.expr(a)?;
                self.unop(*op, va)
            }
            Expr::Bin(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                self.binop(*op, va, vb)
            }
            Expr::Cmp(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                self.cmpop(*op, va, vb)
            }
            Expr::Fma(a, b, c) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                let vc = self.expr(c)?;
                self.fma(va, vb, vc)
            }
            Expr::Select(c, a, b) => {
                let mut vc = self.expr(c)?;
                if !matches!(vc.loc, Loc::S(_)) && (a.reads_memory() || b.reads_memory()) {
                    // Masked arms need the condition as bool lanes.
                    vc = Val {
                        loc: Loc::LB(self.lane_b(&vc)?),
                        sty: STy::B,
                        f32v: false,
                    };
                }
                let va = self.arm(vc.loc, true, a)?;
                let vb = self.arm(vc.loc, false, b)?;
                self.select(vc, va, vb)
            }
            Expr::Cast(ty, a) => {
                let va = self.expr(a)?;
                self.cast(*ty, va)
            }
        }
    }

    /// One `Select` arm. Arms run eagerly here, but the tree-walker
    /// evaluates only the taken one: an arm that reads memory is
    /// bracketed by a tape mask, so a race tracker sees its accesses
    /// only on the lanes that take it.
    fn arm(&mut self, c: Loc, pol: bool, e: &Expr) -> Option<Val> {
        if !e.reads_memory() {
            return self.expr(e);
        }
        self.ops.push(BOp::MaskPush { c, pol });
        let v = self.expr(e)?;
        self.ops.push(BOp::MaskPop);
        Some(v)
    }

    /// A work-group builtin of a grouped phase: `LocalId` is the lane,
    /// the others are lane-invariant scalars.
    fn special(&mut self, sv: SpecialVar) -> Option<Val> {
        if !self.grouped {
            return None;
        }
        if let SpecialVar::LocalId(_) = sv {
            return Some(Val {
                loc: Loc::A(0),
                sty: STy::I,
                f32v: false,
            });
        }
        let dst = match self.specials.iter().find(|&&(v, _)| v == sv) {
            Some(&(_, s)) => s,
            None => {
                let dst = self.s_slot()?;
                self.pre.push(BOp::SGroup { dst, sv });
                self.specials.push((sv, dst));
                dst
            }
        };
        Some(Val {
            loc: Loc::S(dst),
            sty: STy::I,
            f32v: false,
        })
    }

    /// The memory index and element type of an array: global arrays
    /// first, then a grouped phase's local ones.
    fn array(&self, space: MemSpace, array: ArrayId) -> Option<(usize, Scalar)> {
        let a = array.0 as usize;
        match space {
            MemSpace::Global => Some((a, self.p.arrays[a].elem)),
            MemSpace::Local if self.grouped => {
                Some((self.p.arrays.len() + a, *self.locals_elem.get(a)?))
            }
            MemSpace::Local => None,
        }
    }

    fn load(&mut self, space: MemSpace, array: ArrayId, index: &Expr) -> Option<Val> {
        let (ai, elem) = self.array(space, array)?;
        let idx = self.expr(index)?;
        let arr = u16::try_from(ai).ok()?;
        match idx.loc {
            Loc::S(si) => {
                // Guards read the index after the walk: pin a variable
                // slot's current value, since the variable may change.
                let gi = if (si as usize) < self.env.len() {
                    let t = self.s_slot()?;
                    self.ops.push(BOp::SToInt { dst: t, a: si });
                    t
                } else {
                    si
                };
                let rec = &mut self.acc[ai];
                rec.touches.push(Touch {
                    at: Loc::S(gi),
                    when: self.arm,
                });
                rec.in_for |= self.depth > 0;
                let dst = self.s_slot()?;
                self.ops.push(BOp::SLoad {
                    array: arr,
                    idx: si,
                    dst,
                });
                let (sty, f32v) = match elem {
                    Scalar::F32 => (STy::F, true),
                    Scalar::F64 => (STy::F, false),
                    Scalar::Bool => (STy::B, false),
                    Scalar::I32 | Scalar::U32 => (STy::I, false),
                };
                Some(Val {
                    loc: Loc::S(dst),
                    sty,
                    f32v,
                })
            }
            Loc::A(aff) => {
                if !elem.is_float() {
                    // Int/bool lane loads would need a general lane-int
                    // class; keep the scalar VM for those kernels.
                    return None;
                }
                let rec = &mut self.acc[ai];
                rec.touches.push(Touch {
                    at: Loc::A(aff),
                    when: self.arm,
                });
                rec.in_for |= self.depth > 0;
                let dst = self.f_slot()?;
                self.ops.push(BOp::GatherF {
                    array: arr,
                    aff,
                    dst,
                    f32src: elem == Scalar::F32,
                    when: self.arm,
                });
                Some(Val {
                    loc: Loc::LF(dst),
                    sty: STy::F,
                    f32v: elem == Scalar::F32,
                })
            }
            Loc::LI(idx) if elem.is_float() => {
                // No guard can order these against a store: `finish`
                // rejects a stored-to array read this way.
                let rec = &mut self.acc[ai];
                rec.touches.push(Touch {
                    at: Loc::LI(idx),
                    when: self.arm,
                });
                rec.in_for |= self.depth > 0;
                let dst = self.f_slot()?;
                self.ops.push(BOp::GatherFI {
                    array: arr,
                    idx,
                    dst,
                    when: self.arm,
                });
                Some(Val {
                    loc: Loc::LF(dst),
                    sty: STy::F,
                    f32v: elem == Scalar::F32,
                })
            }
            Loc::LF(_) | Loc::LB(_) | Loc::LI(_) => None,
        }
    }

    fn unop(&mut self, op: UnOp, a: Val) -> Option<Val> {
        let (loc, sty) = match (op, a.loc) {
            (_, Loc::S(s)) => {
                let dst = self.s_slot()?;
                self.ops.push(BOp::SUn { op, dst, a: s });
                let sty = match op {
                    UnOp::Not => STy::B,
                    UnOp::Rcp | UnOp::Sqrt | UnOp::Exp => STy::F,
                    // Neg/Abs dispatch on the runtime tag: int stays
                    // int, everything else takes the float path.
                    UnOp::Neg | UnOp::Abs => match a.sty {
                        STy::I => STy::I,
                        STy::F | STy::B => STy::F,
                        STy::Unk => STy::Unk,
                    },
                };
                (Loc::S(dst), sty)
            }
            (UnOp::Neg, Loc::A(r)) => {
                let dst = self.a_slot()?;
                self.ops.push(BOp::ANeg { dst, a: r });
                (Loc::A(dst), STy::I)
            }
            // |base + s·b| is not affine.
            (UnOp::Abs, Loc::A(_)) => return None,
            (UnOp::Not, _) => {
                let b = self.lane_b(&a)?;
                let dst = self.b_slot()?;
                self.ops.push(BOp::BNot { dst, a: b });
                (Loc::LB(dst), STy::B)
            }
            // The runtime tag of other lanes is not I: the tree's float
            // path over `as_f()`.
            _ => {
                let f = self.lane_f(&a)?;
                let dst = self.f_slot()?;
                self.ops.push(BOp::UnF { op, dst, a: f });
                (Loc::LF(dst), STy::F)
            }
        };
        Some(Val {
            loc,
            sty,
            f32v: matches!(op, UnOp::Neg | UnOp::Abs) && a.f32v,
        })
    }

    fn binop(&mut self, op: BinOp, a: Val, b: Val) -> Option<Val> {
        use BinOp::*;
        if let (Loc::S(sa), Loc::S(sb)) = (a.loc, b.loc) {
            // Scalar × scalar: one generic op, runtime-dispatched
            // exactly like the tree.
            let dst = self.s_slot()?;
            self.ops.push(BOp::SBin {
                op,
                dst,
                a: sa,
                b: sb,
            });
            let sty = match op {
                And | Or => STy::B,
                Shl | Shr => STy::I,
                _ => {
                    if a.sty == STy::F || b.sty == STy::F {
                        STy::F
                    } else if matches!(a.sty, STy::I | STy::B) && matches!(b.sty, STy::I | STy::B) {
                        STy::I
                    } else {
                        STy::Unk
                    }
                }
            };
            return Some(Val {
                loc: Loc::S(dst),
                sty,
                // The float arith path narrows to f32.
                f32v: sty == STy::F && !matches!(op, And | Or | Shl | Shr),
            });
        }
        match op {
            And | Or => {
                let ba = self.lane_b(&a)?;
                let bb = self.lane_b(&b)?;
                let dst = self.b_slot()?;
                self.ops.push(if op == And {
                    BOp::BAnd { dst, a: ba, b: bb }
                } else {
                    BOp::BOr { dst, a: ba, b: bb }
                });
                Some(Val {
                    loc: Loc::LB(dst),
                    sty: STy::B,
                    f32v: false,
                })
            }
            Shl | Shr => None,
            _ => {
                if Self::float_certain(&a) || Self::float_certain(&b) {
                    self.fbin(op, a, b)
                } else {
                    self.abin(op, a, b)
                }
            }
        }
    }

    /// Float-path lane arithmetic; the caller guarantees at least one
    /// operand is runtime-`F`, which is what commits the tree to this
    /// path. Scalar operands stay scalar (resolved once per batch).
    fn fbin(&mut self, op: BinOp, a: Val, b: Val) -> Option<Val> {
        // Operands first: the destination is then the last slot taken,
        // which `redirect_or_copy` gives back when it retargets the op.
        let (a, b) = (self.float_operand(&a)?, self.float_operand(&b)?);
        let dst = self.f_slot()?;
        self.ops.push(BOp::FBin { op, dst, a, b });
        Some(Val {
            loc: Loc::LF(dst),
            sty: STy::F,
            f32v: true,
        })
    }

    /// An operand of a float lane op: a scalar stays one, anything
    /// else becomes f64 lanes.
    fn float_operand(&mut self, v: &Val) -> Option<Loc> {
        match v.loc {
            Loc::S(_) => Some(v.loc),
            _ => Some(Loc::LF(self.lane_f(v)?)),
        }
    }

    /// Integer-path lane arithmetic: closed affine forms only. Both
    /// operands must be provably runtime-integers.
    fn abin(&mut self, op: BinOp, a: Val, b: Val) -> Option<Val> {
        use BinOp::*;
        let affine = match (a.loc, b.loc) {
            (Loc::A(_), Loc::A(_)) => matches!(op, Add | Sub),
            (Loc::A(_), Loc::S(_)) | (Loc::S(_), Loc::A(_)) => matches!(op, Add | Sub | Mul),
            _ => false,
        };
        if !affine {
            // Exact per lane, though not affine: int lanes.
            let int = |v: &Val| matches!(v.loc, Loc::A(_) | Loc::LI(_)) || v.sty != STy::F;
            let arith = matches!(op, Add | Sub | Mul | Div | Rem | Min | Max);
            if !arith || !int(&a) || !int(&b) {
                return None;
            }
            for v in [&a, &b] {
                if let Loc::S(_) = v.loc {
                    if !self.int_scalar(v) {
                        return None;
                    }
                } else if !matches!(v.loc, Loc::A(_) | Loc::LI(_)) {
                    return None;
                }
            }
            let dst = self.i_slot()?;
            self.ops.push(BOp::IBin {
                op,
                dst,
                a: a.loc,
                b: b.loc,
            });
            return Some(Val {
                loc: Loc::LI(dst),
                sty: STy::I,
                f32v: false,
            });
        }
        let dst = self.a_slot()?;
        let int = match (a.loc, b.loc) {
            (Loc::A(_), Loc::S(_)) => self.int_scalar(&b),
            (Loc::S(_), Loc::A(_)) => self.int_scalar(&a),
            _ => true,
        };
        if !int {
            return None;
        }
        self.ops.push(BOp::ABin {
            op,
            dst,
            a: a.loc,
            b: b.loc,
        });
        Some(Val {
            loc: Loc::A(dst),
            sty: STy::I,
            f32v: false,
        })
    }

    fn cmpop(&mut self, op: CmpOp, a: Val, b: Val) -> Option<Val> {
        if let (Loc::S(sa), Loc::S(sb)) = (a.loc, b.loc) {
            let dst = self.s_slot()?;
            self.ops.push(BOp::SCmp {
                op,
                dst,
                a: sa,
                b: sb,
            });
            return Some(Val {
                loc: Loc::S(dst),
                sty: STy::B,
                f32v: false,
            });
        }
        let dst = self.b_slot()?;
        if Self::float_certain(&a) || Self::float_certain(&b) {
            // Full-f64 float compare — exact for every operand class.
            let (a, b) = (self.float_operand(&a)?, self.float_operand(&b)?);
            self.ops.push(BOp::FCmp { op, dst, a, b });
        } else {
            let int = match (a.loc, b.loc) {
                (Loc::A(_), Loc::A(_)) => true,
                (Loc::A(_) | Loc::LI(_), Loc::S(_)) => self.int_scalar(&b),
                (Loc::S(_), Loc::A(_) | Loc::LI(_)) => self.int_scalar(&a),
                _ => false,
            };
            if !int {
                return None;
            }
            self.ops.push(BOp::ICmp {
                op,
                dst,
                a: a.loc,
                b: b.loc,
            });
        }
        Some(Val {
            loc: Loc::LB(dst),
            sty: STy::B,
            f32v: false,
        })
    }

    fn fma(&mut self, a: Val, b: Val, c: Val) -> Option<Val> {
        // The tree's Fma takes as_f() of all three operands
        // unconditionally, so any class mix is exact here.
        if let (Loc::S(sa), Loc::S(sb), Loc::S(sc)) = (a.loc, b.loc, c.loc) {
            let dst = self.s_slot()?;
            self.ops.push(BOp::SFma {
                dst,
                a: sa,
                b: sb,
                c: sc,
            });
            return Some(Val {
                loc: Loc::S(dst),
                sty: STy::F,
                f32v: true,
            });
        }
        let la = self.lane_f(&a)?;
        let lb = self.lane_f(&b)?;
        let lc = self.lane_f(&c)?;
        let dst = self.f_slot()?;
        self.ops.push(BOp::FFma {
            dst,
            a: la,
            b: lb,
            c: lc,
        });
        Some(Val {
            loc: Loc::LF(dst),
            sty: STy::F,
            f32v: true,
        })
    }

    fn select(&mut self, c: Val, a: Val, b: Val) -> Option<Val> {
        if let (Loc::S(sc), Loc::S(sa), Loc::S(sb)) = (c.loc, a.loc, b.loc) {
            let dst = self.s_slot()?;
            self.ops.push(BOp::SSelect {
                dst,
                c: sc,
                a: sa,
                b: sb,
            });
            let sty = if a.sty == b.sty { a.sty } else { STy::Unk };
            return Some(Val {
                loc: Loc::S(dst),
                sty,
                f32v: a.f32v && b.f32v,
            });
        }
        // Lane select: both arms must be guaranteed-F so that the
        // merged lanes carry the tag the tree would produce on either
        // path. (Select is lazy in the tree but all batchable
        // sub-expressions are pure, so eager evaluation is sound; a
        // hazard in the untaken arm merely forces a fallback.)
        if !Self::float_certain(&a) || !Self::float_certain(&b) {
            return None;
        }
        let lc = self.lane_b(&c)?;
        let la = self.lane_f(&a)?;
        let lb = self.lane_f(&b)?;
        let dst = self.f_slot()?;
        self.ops.push(BOp::SelF {
            dst,
            c: lc,
            a: la,
            b: lb,
        });
        Some(Val {
            loc: Loc::LF(dst),
            sty: STy::F,
            f32v: a.f32v && b.f32v,
        })
    }

    fn cast(&mut self, ty: Scalar, a: Val) -> Option<Val> {
        match a.loc {
            Loc::S(s) => {
                let dst = self.s_slot()?;
                self.ops.push(BOp::SCast { ty, dst, a: s });
                let (sty, f32v) = match ty {
                    Scalar::F32 => (STy::F, true),
                    Scalar::F64 => (STy::F, a.f32v),
                    Scalar::I32 | Scalar::U32 => (STy::I, false),
                    Scalar::Bool => (STy::B, false),
                };
                Some(Val {
                    loc: Loc::S(dst),
                    sty,
                    f32v,
                })
            }
            // I32/U32 casts wrap through 32 bits: not affine, nor
            // exact on float lanes. The others coerce.
            _ if matches!(ty, Scalar::I32 | Scalar::U32) => None,
            _ => self.coerce_lane(ty, a),
        }
    }

    fn store(&mut self, space: MemSpace, array: ArrayId, index: &Expr, value: &Expr) -> Option<()> {
        // Stores inside sequential loops would interleave with other
        // lanes' loop trips in the tree; keep those on the scalar VM.
        let (ai, _) = self.array(space, array)?;
        if self.depth > 0 {
            return None;
        }
        let idx = self.expr(index)?;
        let val = self.expr(value)?;
        let arr = u16::try_from(ai).ok()?;
        let Loc::A(aff) = self.lane_int(&idx)? else {
            return None;
        };
        // The tree stores eval(value).as_f() and lets Buffer::set
        // narrow per element type; every class but int lanes converts
        // exactly.
        let src = self.float_operand(&val)?;
        self.ops.push(BOp::Scatter {
            array: arr,
            aff,
            src,
            when: self.arm,
        });
        let touch = Touch {
            at: Loc::A(aff),
            when: self.arm,
        };
        let rec = &mut self.acc[ai];
        rec.touches.push(touch);
        rec.scatters.push(touch);
        Some(())
    }
}

impl<'a> Bc<'a> {
    fn assign(&mut self, var: VarId, let_ty: Option<Scalar>, v: Val) -> Option<()> {
        let vi = var.0 as usize;
        let vu = u16::try_from(var.0).ok()?;
        if self.arm.is_some() && !self.masked_loop {
            // Inside an `If` arm (grouped phases only): this value
            // reaches just the lanes taking the arm (`close_arm`). One
            // writeback per variable and arm cannot order two arms'
            // values on the lanes taking both, so a variable another
            // arm assigned (a sibling, an earlier or nested `If`, or
            // one still open around this arm) rejects.
            if self.uncond[vi] || self.poison[vi] || self.arm_vars[..self.arm_from].contains(&vu) {
                return None;
            }
            self.arm_vars.push(vu);
        } else {
            self.uncond[vi] = true;
            self.poison[vi] = false;
            self.masked_wb.retain(|m| m.0 != vu);
        }
        if self.pinned[vi] {
            return self.assign_pinned(vu, let_ty, v);
        }
        if self.masked_loop {
            // Every variable a masked loop assigns is pinned.
            return None;
        }
        match v.loc {
            Loc::S(src) => {
                match let_ty {
                    Some(ty) => {
                        self.ops.push(BOp::SLet { ty, var: vu, src });
                        let (sty, f32v) = match ty {
                            Scalar::F32 => (STy::F, true),
                            Scalar::F64 => (STy::F, v.f32v),
                            Scalar::I32 | Scalar::U32 => (STy::I, false),
                            Scalar::Bool => (STy::B, false),
                        };
                        self.env[vi] = Val {
                            loc: Loc::S(vu),
                            sty,
                            f32v,
                        };
                    }
                    None => {
                        self.ops.push(BOp::SSet { var: vu, src });
                        self.env[vi] = Val {
                            loc: Loc::S(vu),
                            sty: v.sty,
                            f32v: v.f32v,
                        };
                    }
                }
                self.sdef[vi] = true;
                Some(())
            }
            _ => {
                // Lane-valued: the variable's environment entry simply
                // points at the lanes; runtime definedness is recorded
                // by DefMark (it matters for zero-trip loop bodies).
                let nv = match let_ty {
                    None => v,
                    Some(ty) => self.coerce_lane(ty, v)?,
                };
                let nv = self.unalias_pin(nv)?;
                self.env[vi] = nv;
                self.sdef[vi] = true;
                self.ops.push(BOp::DefMark { var: vu });
                Some(())
            }
        }
    }

    /// `interp::coerce` applied to a lane value, or to a scalar
    /// broadcast to lanes.
    fn coerce_lane(&mut self, ty: Scalar, v: Val) -> Option<Val> {
        match ty {
            // V::I(as_i()) of an int is the identity; as_i() of float
            // or bool lanes is not affine.
            Scalar::I32 | Scalar::U32 => matches!(v.loc, Loc::A(_) | Loc::LI(_)).then_some(v),
            Scalar::Bool => Some(Val {
                loc: Loc::LB(self.lane_b(&v)?),
                sty: STy::B,
                f32v: false,
            }),
            Scalar::F32 | Scalar::F64 => {
                let f = self.lane_f(&v)?;
                // Bool lanes convert to 0.0 or 1.0, exact in f32.
                let f32v = match v.loc {
                    Loc::LF(_) => v.f32v,
                    Loc::LB(_) => true,
                    _ => false,
                };
                if ty == Scalar::F64 || f32v {
                    return Some(Val {
                        loc: Loc::LF(f),
                        sty: STy::F,
                        f32v,
                    });
                }
                let dst = self.f_slot()?;
                self.ops.push(BOp::CvtFtoF32 { dst, a: f });
                Some(Val {
                    loc: Loc::LF(dst),
                    sty: STy::F,
                    f32v: true,
                })
            }
        }
    }

    /// A value living in a pin slot may be overwritten by a later loop
    /// trip; capturing it in another variable must copy the lanes.
    fn unalias_pin(&mut self, v: Val) -> Option<Val> {
        match v.loc {
            Loc::LF(f) if self.pin_slots.contains(&f) => Some(Val {
                loc: self.copy(v.loc)?,
                ..v
            }),
            _ => Some(v),
        }
    }

    /// Assignment to a variable pinned to a mutable LF slot by an
    /// enclosing sequential loop. The pin invariant: the slot holds a
    /// runtime-`F` value at every program point, so only assignments
    /// that provably produce `F` compile. In a masked loop the new
    /// lanes land in a temp merged into the pin on the lanes taking
    /// the trip; the others keep their value.
    fn assign_pinned(&mut self, vu: u16, let_ty: Option<Scalar>, v: Val) -> Option<()> {
        let vi = vu as usize;
        let pin = match self.env[vi].loc {
            Loc::LF(r) => r,
            _ => return None,
        };
        let masked = if self.masked_loop { self.arm } else { None };
        let dst = match masked {
            Some(_) => self.f_slot()?,
            None => pin,
        };
        let v = match (let_ty, v.loc) {
            // coerce F32 = as_f as f32 as f64: narrow a scalar once,
            // then broadcast it.
            (Some(Scalar::F32), Loc::S(_)) => self.cast(Scalar::F32, v)?,
            (Some(ty @ (Scalar::F32 | Scalar::F64)), _) => self.coerce_lane(ty, v)?,
            // Raw Assign stores the value verbatim: it must be
            // guaranteed runtime-F already.
            (None, _) if Self::float_certain(&v) => v,
            // An I32/U32/Bool Let would give the variable a non-F tag.
            _ => return None,
        };
        let f = self.lane_f(&v)?;
        self.redirect_or_copy(f, dst);
        let f32v = match masked {
            Some(Arm(mask)) => {
                self.ops.push(BOp::LMergeF {
                    dst: pin,
                    src: dst,
                    mask,
                });
                v.f32v && self.env[vi].f32v
            }
            None => v.f32v,
        };
        self.env[vi] = Val {
            loc: Loc::LF(pin),
            sty: STy::F,
            f32v,
        };
        self.sdef[vi] = true;
        // No DefMark: a pin requires the variable to be defined at
        // loop entry, so runtime definedness is already recorded.
        Some(())
    }

    /// Move freshly produced lanes into a pin slot — by retargeting
    /// the producing op when the source is a throwaway temp (which is
    /// then free again if it was the last slot taken), else by an
    /// explicit copy.
    fn redirect_or_copy(&mut self, src: u16, pin: u16) {
        if src == pin {
            return; // e.g. `x = cast(F64, x)` — already in place
        }
        let fresh =
            !self.pin_slots.contains(&src) && !self.env.iter().any(|v| v.loc == Loc::LF(src));
        if fresh {
            if let Some(d) = self.ops.last_mut().and_then(lane_f_dst_mut) {
                if *d == src {
                    *d = pin;
                    if src + 1 == self.n_f {
                        self.n_f = src;
                    }
                    return;
                }
            }
        }
        self.ops.push(BOp::Copy {
            dst: Loc::LF(pin),
            a: Loc::LF(src),
        });
    }

    /// Pin variable `i` to a fresh mutable f64 lane slot holding its
    /// value, the home of its lanes across a sequential loop's trips.
    /// The value must be guaranteed runtime-F or the pin invariant
    /// cannot hold (and, for a zero-trip loop, the broadcast entry
    /// value must already be what the tree would leave behind).
    fn pin(&mut self, i: usize) -> Option<()> {
        let v = self.env[i];
        if !Self::float_certain(&v) {
            return None;
        }
        let loc = match v.loc {
            Loc::LF(_) => self.copy(v.loc)?,
            _ => Loc::LF(self.lane_f(&v)?),
        };
        if let Loc::LF(r) = loc {
            self.pin_slots.push(r);
        }
        self.env[i] = Val {
            loc,
            sty: STy::F,
            f32v: false,
        };
        self.pinned[i] = true;
        Some(())
    }

    fn for_loop(
        &mut self,
        var: VarId,
        lo: &Expr,
        hi: &Expr,
        step: i64,
        body: &Block,
    ) -> Option<()> {
        if self.masked_loop {
            // Its trips would run on the enclosing trip's lanes only.
            return None;
        }
        let vlo = self.expr(lo)?;
        let vhi = self.expr(hi)?;
        let mut w = body.assigned_vars();
        w.extend(body.let_vars());
        w.extend(body.for_vars());
        let w: Vec<VarId> = w.into_iter().collect();
        // An `If` arm or a masked loop left these variables' lanes
        // unnamed. (A masked loop sets its variable on every lane it
        // runs and poisons it again.)
        if w.iter().any(|v| self.poison[v.0 as usize]) {
            return None;
        }
        let (slo, shi) = match (vlo.loc, vhi.loc) {
            (Loc::S(a), Loc::S(b)) => (a, b),
            _ => return self.masked_for(var, vlo, vhi, step, body, &w),
        };
        if self.poison[var.0 as usize] {
            return None;
        }
        // A `for` shadowing a lane-valued variable would need a
        // per-lane zero-trip story; reject that degenerate shape.
        if !matches!(self.env[var.0 as usize].loc, Loc::S(_)) {
            return None;
        }
        let vu = u16::try_from(var.0).ok()?;
        self.uncond[var.0 as usize] = true;
        self.masked_wb.retain(|m| m.0 != vu);
        let cnt = self.s_slot()?;
        let hii = self.s_slot()?;
        self.ops.push(BOp::SToInt { dst: cnt, a: slo });
        self.ops.push(BOp::SToInt { dst: hii, a: shi });

        self.depth += 1;
        let outer = self.snap();
        // Pin fixpoint: find the variables that must live in a mutable
        // lane slot across trips (a pin can force another variable
        // lane-ward, hence the loop; |w| bounds the rounds, 4 is
        // plenty for real kernels and property-sized programs).
        let mut pins: Vec<u32> = Vec::new();
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > 4 {
                self.restore(&outer);
                self.depth -= 1;
                return None;
            }
            // Promote the pinned variables.
            if !pins.iter().all(|&pv| self.pin(pv as usize).is_some()) {
                self.restore(&outer);
                self.depth -= 1;
                return None;
            }
            // Scalar variables assigned in the body have no reliable
            // static type at the (second and later) trip entry.
            for &wv in &w {
                let i = wv.0 as usize;
                if !self.pinned[i] {
                    if let Loc::S(_) = self.env[i].loc {
                        self.env[i].sty = STy::Unk;
                        self.env[i].f32v = false;
                    }
                }
            }
            let pre_sdef = self.sdef.clone();
            let entry_env = self.env.clone();
            self.env[var.0 as usize] = Val {
                loc: Loc::S(vu),
                sty: STy::I,
                f32v: false,
            };
            self.sdef[var.0 as usize] = true;

            let head = u32::try_from(self.ops.len()).ok()?;
            self.ops.push(BOp::ForHead {
                cnt,
                hi: hii,
                exit: 0,
            });
            let fh = self.ops.len() - 1;
            self.ops.push(BOp::SSet { var: vu, src: cnt });
            if self.block(body).is_none() {
                self.restore(&outer);
                self.depth -= 1;
                return None;
            }
            self.ops.push(BOp::ForStep {
                cnt,
                step,
                back: head,
            });
            let exit = u32::try_from(self.ops.len()).ok()?;
            if let BOp::ForHead { exit: e, .. } = &mut self.ops[fh] {
                *e = exit;
            }

            // Classify: any body-assigned variable that ended up (or
            // started) lane-float without a pin becomes one; other
            // loop-carried lane classes are unsupported.
            let mut grew = false;
            let mut reject = false;
            for &wv in &w {
                let i = wv.0 as usize;
                if self.pinned[i] {
                    continue;
                }
                match (entry_env[i].loc, self.env[i].loc) {
                    (Loc::S(_), Loc::S(_)) => {}
                    (Loc::LF(_), _) | (_, Loc::LF(_)) => {
                        if !pins.contains(&wv.0) {
                            pins.push(wv.0);
                            grew = true;
                        }
                    }
                    _ => {
                        reject = true;
                        break;
                    }
                }
            }
            if reject {
                self.restore(&outer);
                self.depth -= 1;
                return None;
            }
            if grew {
                pins.sort_unstable();
                self.restore(&outer);
                continue;
            }

            // Stable: the compiled loop stands. Post-loop state is the
            // conservative meet of entry and exit (trip count is a
            // runtime quantity; zero trips leave the entry state).
            for (cur, entry) in self.env.iter_mut().zip(&entry_env) {
                if entry.loc == cur.loc {
                    if entry.sty != cur.sty {
                        cur.sty = STy::Unk;
                    }
                    cur.f32v &= entry.f32v;
                }
            }
            self.sdef.clone_from(&pre_sdef);
            // This level's pins stay materialized (their slots hold
            // the correct value on every path, including zero-trip),
            // but stop routing new assignments through them.
            for &pv in &pins {
                self.pinned[pv as usize] = false;
            }
            self.depth -= 1;
            return Some(());
        }
    }

    /// A sequential loop whose bounds vary per lane (grouped phases,
    /// outside other loops and `If` arms): every lane steps its own
    /// counter, and each trip runs on the lanes still below their
    /// bound, its trip mask. Every variable the body assigns (`w`) is
    /// pinned and updated under the mask, so a lane whose loop ended
    /// keeps its value. Afterwards the loop variable holds each lane's
    /// last trip, which no plan names: it is poisoned.
    fn masked_for(
        &mut self,
        var: VarId,
        lo: Val,
        hi: Val,
        step: i64,
        body: &Block,
        w: &[VarId],
    ) -> Option<()> {
        if !self.grouped || self.depth > 0 || self.arm.is_some() || step <= 0 || w.contains(&var) {
            return None;
        }
        let (lo, hi) = (self.lane_int(&lo)?, self.lane_int(&hi)?);
        for v in w {
            self.pin(v.0 as usize)?;
        }
        // The counter stays affine when the lower bound is.
        let cnt = self.copy(lo)?;
        let mask = self.b_slot()?;
        let head = u32::try_from(self.ops.len()).ok()?;
        self.ops.push(BOp::MForHead {
            cnt,
            hi,
            mask,
            exit: 0,
        });
        self.ops.push(BOp::Active { m: mask });
        self.ops.push(BOp::MaskPush {
            c: Loc::LB(mask),
            pol: true,
        });
        let pre_sdef = self.sdef.clone();
        let vi = var.0 as usize;
        self.env[vi] = Val {
            loc: cnt,
            sty: STy::I,
            f32v: false,
        };
        self.sdef[vi] = true;
        // Every trip sets it on the lanes it runs.
        self.poison[vi] = false;
        self.depth += 1;
        self.arm = Some(Arm(mask));
        self.masked_loop = true;
        let done = self.block(body);
        self.depth -= 1;
        self.arm = None;
        self.masked_loop = false;
        done?;
        self.ops.push(BOp::MaskPop);
        self.ops.push(BOp::MForStep {
            cnt,
            step,
            back: head,
        });
        let exit = u32::try_from(self.ops.len()).ok()?;
        if let Some(BOp::MForHead { exit: e, .. }) = self.ops.get_mut(head as usize) {
            *e = exit;
        }
        self.sdef = pre_sdef;
        for v in w {
            self.pinned[v.0 as usize] = false;
        }
        let vu = u16::try_from(var.0).ok()?;
        self.uncond[vi] = true;
        self.masked_wb.retain(|m| m.0 != vu);
        self.poison[vi] = true;
        Some(())
    }
}

/// The bool lane slot an op the validation walk may need writes: a
/// scalar's broadcast, an integer compare or bool logic. (Bool lanes
/// converted from affine or float lanes are execution-walk values.)
fn early_dst(op: &BOp) -> Option<u16> {
    match *op {
        BOp::Cvt {
            dst: Loc::LB(dst),
            a: Loc::S(_),
        }
        | BOp::ICmp { dst, .. }
        | BOp::BAnd { dst, .. }
        | BOp::BOr { dst, .. }
        | BOp::BNot { dst, .. } => Some(dst),
        _ => None,
    }
}

/// The f64 lane slot an op writes all of, which the pin redirect may
/// retarget.
fn lane_f_dst_mut(op: &mut BOp) -> Option<&mut u16> {
    match op {
        BOp::Cvt {
            dst: Loc::LF(dst), ..
        }
        | BOp::Copy {
            dst: Loc::LF(dst), ..
        }
        | BOp::CvtFtoF32 { dst, .. }
        | BOp::FBin { dst, .. }
        | BOp::FFma { dst, .. }
        | BOp::UnF { dst, .. }
        | BOp::SelF { dst, .. }
        | BOp::GatherF { dst, .. } => Some(dst),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{exec_kernel_traced, fresh_vars, KernelFidelity};
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::{assign, for_, if_, ld, let_, st, HostStmt, Intent, ParallelLoop, E};

    /// `c[i*n + j] = Σ_k a[i*n+k]·b[k*n+j]` — the matmul shape: a
    /// pinned For accumulator, a scalar-indexed load, and a strided
    /// gather.
    fn matmul_like() -> (Program, Vec<V>, Vec<Buffer>) {
        let n: i64 = 5;
        let mut b = ProgramBuilder::new("batch_matmul");
        let np = b.iparam("n");
        let aa = b.array("a", Scalar::F32, E::from(np) * E::from(np), Intent::In);
        let ba = b.array("b", Scalar::F32, E::from(np) * E::from(np), Intent::In);
        let ca = b.array("c", Scalar::F32, E::from(np) * E::from(np), Intent::Out);
        let iv = b.var("i");
        let jv = b.var("j");
        let kv = b.var("k");
        let acc = b.var("acc");
        let body = vec![
            let_(acc, Scalar::F32, 0.0f64),
            for_(
                kv,
                0i64,
                np,
                vec![assign(
                    acc,
                    E::from(Expr::var(acc))
                        + ld(
                            aa,
                            E::from(Expr::var(iv)) * E::from(np) + E::from(Expr::var(kv)),
                        ) * ld(
                            ba,
                            E::from(Expr::var(kv)) * E::from(np) + E::from(Expr::var(jv)),
                        ),
                )],
            ),
            st(
                ca,
                E::from(Expr::var(iv)) * E::from(np) + E::from(Expr::var(jv)),
                E::from(Expr::var(acc)),
            ),
        ];
        let k = Kernel::simple(
            "mm",
            vec![
                ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np)),
                ParallelLoop::new(jv, Expr::iconst(0), Expr::param(np)),
            ],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let len = (n * n) as usize;
        let af: Vec<f32> = (0..len).map(|i| (i as f32) * 0.25 - 2.0).collect();
        let bf: Vec<f32> = (0..len).map(|i| 1.5 - (i as f32) * 0.125).collect();
        let bufs = vec![
            Buffer::F32(af),
            Buffer::F32(bf),
            Buffer::zeroed(Scalar::F32, len),
        ];
        (p, vec![V::I(n)], bufs)
    }

    /// `rho[i] = rho[i] + f·rho[i]` — gather and scatter of the same
    /// array at the same affine index, the guarded shape.
    fn rmw_like() -> (Program, Vec<V>, Vec<Buffer>) {
        let n: i64 = 17;
        let mut b = ProgramBuilder::new("batch_rmw");
        let np = b.iparam("n");
        let rho = b.array("rho", Scalar::F64, E::from(np), Intent::InOut);
        let iv = b.var("i");
        let body = vec![st(
            rho,
            E::from(Expr::var(iv)),
            ld(rho, E::from(Expr::var(iv))) + ld(rho, E::from(Expr::var(iv))) * 0.5f64,
        )];
        let k = Kernel::simple(
            "rmw",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let rf: Vec<f64> = (0..n).map(|i| (i as f64) * 0.5 - 3.0).collect();
        (p, vec![V::I(n)], vec![Buffer::F64(rf)])
    }

    fn run_both(p: &Program, params: &[V], bufs: &[Buffer]) -> (Vec<Buffer>, Vec<Buffer>) {
        let k = &p.kernels()[0];
        let mut tree_bufs = bufs.to_vec();
        let mut vars = fresh_vars(p);
        exec_kernel_traced(
            p,
            params,
            k,
            &mut vars,
            &mut tree_bufs,
            KernelFidelity::Exact,
            None,
        );
        let code = super::super::compile::compile_kernel(p, k);
        assert!(code.batch.is_some(), "kernel failed to batch-compile");
        let mut bc_bufs = bufs.to_vec();
        let mut vars = fresh_vars(p);
        super::super::vm::exec_kernel_bc(
            &code,
            params,
            k,
            &mut vars,
            &mut bc_bufs,
            KernelFidelity::Exact,
            None,
        );
        (tree_bufs, bc_bufs)
    }

    #[test]
    fn matmul_shape_batches_and_matches_tree() {
        let (p, params, bufs) = matmul_like();
        let k = &p.kernels()[0];
        let plan = build(&p, k).expect("matmul shape must batch-compile");
        // The For accumulator forces a pin: a loop back-edge and at
        // least one lane-float op inside the loop.
        assert!(plan.ops.iter().any(|o| matches!(o, BOp::ForHead { .. })));
        assert!(plan.guards.is_empty(), "sole scatter needs no guard");
        let (t, b) = run_both(&p, &params, &bufs);
        assert_eq!(t, b, "matmul tiers diverged");
    }

    #[test]
    fn plans_take_no_more_ops_than_before() {
        // A pin redirect that fails, or a class change spelled with an
        // extra op, changes no output, only these op counts: they may
        // not grow.
        let size = |p: &Program| build(p, p.kernels()[0]).expect("plan").ops.len();
        assert!(size(&matmul_like().0) <= 25);
        assert!(size(&rmw_like().0) <= 7);
        // Per shape of `grouped_shapes`: the first and last phase; the
        // tree phases between them take 15 ops each.
        let ends = [(23, 13), (25, 13), (29, 18), (55, 13), (61, 13), (72, 18)];
        for gsz in [8, 128] {
            for (shape, (p, k)) in grouped_shapes(gsz).iter().enumerate() {
                let sizes: Vec<usize> = build_phases(p, k)
                    .iter()
                    .map(|pl| pl.as_ref().expect("every phase batches").ops.len())
                    .collect();
                let mut want = vec![15; sizes.len()];
                (want[0], want[sizes.len() - 1]) = ends[shape];
                let fits = sizes.iter().zip(&want).all(|(s, w)| s <= w);
                assert!(fits, "gsz {gsz}, shape {shape}: {sizes:?} vs {want:?}");
            }
        }
    }

    /// `acc = acc * 0.5 + i` in a sequential loop: the `FBin` of the
    /// `+` reads the lane index converted to floats and is retargeted
    /// into `acc`'s pin. The destination it abandons is the last float
    /// slot taken, so it is given back and no batch sizes a lane vector
    /// for it.
    #[test]
    fn a_retargeted_fbin_gives_its_destination_back() {
        let mut b = ProgramBuilder::new("batch_fbin_pin");
        let np = b.iparam("n");
        let o = b.array("o", Scalar::F32, E::from(np), Intent::Out);
        let (iv, kv, acc) = (b.var("i"), b.var("k"), b.var("acc"));
        let body = vec![
            let_(acc, Scalar::F32, 0.0f64),
            for_(
                kv,
                0i64,
                np,
                vec![assign(
                    acc,
                    E::from(Expr::var(acc)) * 0.5f64 + E::from(Expr::var(iv)),
                )],
            ),
            st(o, E::from(Expr::var(iv)), E::from(Expr::var(acc))),
        ];
        let k = Kernel::simple(
            "fbin_pin",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let plan = build(&p, p.kernels()[0]).expect("plan");
        // The pin, `acc * 0.5` and the lane index converted to floats.
        assert_eq!(plan.n_f, 3, "{:?}", plan.ops);
        let (t, b) = run_both(&p, &[V::I(9)], &[Buffer::zeroed(Scalar::F32, 9)]);
        assert_eq!(t, b);
    }

    #[test]
    fn read_modify_write_is_guarded_and_matches_tree() {
        let (p, params, bufs) = rmw_like();
        let k = &p.kernels()[0];
        let plan = build(&p, k).expect("rmw shape must batch-compile");
        assert_eq!(
            plan.guards.len(),
            1,
            "gather+scatter of one array needs a guard"
        );
        assert!(
            plan.guards[0].others.len() >= 3,
            "all three accesses join the guard"
        );
        let (t, b) = run_both(&p, &params, &bufs);
        assert_eq!(t, b, "rmw tiers diverged");
    }

    #[test]
    fn pooled_values_first_used_in_a_zero_trip_loop_are_still_loaded() {
        // The constant `1` and parameter `n` are first read inside a
        // loop that runs zero times; the next loop reads them again.
        let mut b = ProgramBuilder::new("batch_pool");
        let np = b.iparam("n");
        let o = b.array("o", Scalar::F32, E::from(np), Intent::Out);
        let q = b.array("q", Scalar::F32, E::from(np), Intent::Out);
        let iv = b.var("i");
        let kv = b.var("k");
        let acc = b.var("acc");
        let par = b.var("par");
        let body = vec![
            let_(acc, Scalar::F32, 0.0f64),
            let_(par, Scalar::F32, 0.0f64),
            for_(kv, 0i64, 0i64, vec![assign(acc, 1i64), assign(par, np)]),
            for_(kv, 0i64, np, vec![assign(acc, 1i64), assign(par, np)]),
            st(o, E::from(Expr::var(iv)), E::from(Expr::var(acc))),
            st(q, E::from(Expr::var(iv)), E::from(Expr::var(par))),
        ];
        let k = Kernel::simple(
            "pool",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let n = 3usize;
        let bufs = vec![
            Buffer::zeroed(Scalar::F32, n),
            Buffer::zeroed(Scalar::F32, n),
        ];
        let (t, b) = run_both(&p, &[V::I(n as i64)], &bufs);
        assert_eq!(t[0], Buffer::F32(vec![1.0; n]));
        assert_eq!(t[1], Buffer::F32(vec![n as f32; n]));
        assert_eq!(t, b, "pooled values diverged");
    }

    #[test]
    fn masked_if_stores_batch_and_match_tree() {
        // `o[i] = i < 2 ? 1 : x[i]` written as an `If`/else of stores.
        let mut b = ProgramBuilder::new("batch_if");
        let np = b.iparam("n");
        let x = b.array("x", Scalar::F32, E::from(np), Intent::In);
        let o = b.array("o", Scalar::F32, E::from(np), Intent::Out);
        let iv = b.var("i");
        let body = vec![paccport_ir::if_else(
            E::from(Expr::var(iv)).lt(E::from(2i64)),
            vec![st(o, E::from(Expr::var(iv)), 1.0f64)],
            vec![st(o, E::from(Expr::var(iv)), ld(x, E::from(Expr::var(iv))))],
        )];
        let k = Kernel::simple(
            "ifk",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let plan = build(&p, p.kernels()[0]).expect("store-only If must batch-compile");
        assert!(
            plan.early.iter().any(|&e| e),
            "the condition is a validation value"
        );
        let n = 6usize;
        let bufs = vec![
            Buffer::F32((0..n).map(|i| i as f32 + 0.5).collect()),
            Buffer::zeroed(Scalar::F32, n),
        ];
        let (t, b) = run_both(&p, &[V::I(n as i64)], &bufs);
        assert_eq!(t[1], Buffer::F32(vec![1.0, 1.0, 2.5, 3.5, 4.5, 5.5]));
        assert_eq!(t, b, "masked If tiers diverged");
    }

    #[test]
    fn ifs_that_assign_test_loaded_values_or_loop_reject() {
        for shape in 0..3 {
            let mut b = ProgramBuilder::new("batch_if_reject");
            let np = b.iparam("n");
            let x = b.array("x", Scalar::F32, E::from(np), Intent::In);
            let o = b.array("o", Scalar::F32, E::from(np), Intent::Out);
            let iv = b.var("i");
            let kv = b.var("k");
            let tv = b.var("t");
            let i = || E::from(Expr::var(iv));
            let store = || st(o, i(), 1.0f64);
            let body = match shape {
                // An arm that assigns a variable.
                0 => vec![if_(
                    i().lt(2i64),
                    vec![let_(tv, Scalar::F32, 1.0f64), store()],
                )],
                // A condition on a loaded value: not a validation value.
                1 => vec![if_(ld(x, i()).lt(0.0f64), vec![store()])],
                // An `If` inside a sequential loop.
                _ => vec![for_(kv, 0i64, 2i64, vec![if_(i().lt(2i64), vec![store()])])],
            };
            let k = Kernel::simple(
                "ifk",
                vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
                Block::new(body),
            );
            let p = b.finish(vec![HostStmt::Launch(k)]);
            assert!(build(&p, p.kernels()[0]).is_none(), "shape {shape}");
        }
    }

    #[test]
    fn region_reduction_compiles_to_fold() {
        let mut b = ProgramBuilder::new("batch_rr");
        let np = b.iparam("n");
        let a = b.array("a", Scalar::F64, E::from(np), Intent::In);
        let red = b.array("red", Scalar::F64, 1i64, Intent::Out);
        let iv = b.var("i");
        let vv = b.var("v");
        let body = vec![let_(
            vv,
            Scalar::F64,
            ld(a, E::from(Expr::var(iv))) * 2.0f64,
        )];
        let mut k = Kernel::simple(
            "rr",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        k.region_reduction = Some(paccport_ir::RegionReduction {
            op: ReduceOp::Max,
            value: Expr::var(vv),
            dest: red,
        });
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let plan = build(&p, p.kernels()[0]).expect("reduction shape must batch-compile");
        assert!(matches!(plan.reduce, Some((Loc::LF(_), ReduceOp::Max))));
        let n = 9i64;
        let af: Vec<f64> = (0..n).map(|i| ((i * 7 % 5) as f64) - 1.5).collect();
        let bufs = vec![Buffer::F64(af), Buffer::zeroed(Scalar::F64, 1)];
        let (t, b) = run_both(&p, &[V::I(n)], &bufs);
        assert_eq!(t, b, "reduction tiers diverged");
    }

    #[test]
    fn a_load_after_a_store_to_its_array_rejects() {
        // The validation walk would compute `y[3] < 1` before lane 0's
        // `y[3] = y[i]` lands: the plan must not exist.
        let mut b = ProgramBuilder::new("batch_stale_if");
        let np = b.iparam("n");
        let y = b.array("y", Scalar::F32, E::from(np), Intent::InOut);
        let iv = b.var("i");
        let jv = b.var("j");
        let i = || E::from(Expr::var(iv));
        let body = vec![
            st(y, 3i64, ld(y, i())),
            paccport_ir::if_else(ld(y, 3i64).lt(1.0f64), vec![], vec![st(y, i(), 2.0f64)]),
        ];
        let k = Kernel::simple(
            "stale",
            vec![
                ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np)),
                ParallelLoop::new(jv, Expr::iconst(0), Expr::iconst(1)),
            ],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let k = &p.kernels()[0];
        assert!(build(&p, k).is_none());
        let n = 6usize;
        let bufs = vec![Buffer::F32(vec![0.5, 3.0, 0.25, 0.5, 4.0, 0.0])];
        let params = [V::I(n as i64)];
        let mut tree = bufs.clone();
        exec_kernel_traced(
            &p,
            &params,
            k,
            &mut fresh_vars(&p),
            &mut tree,
            KernelFidelity::Exact,
            None,
        );
        let code = super::super::compile::compile_kernel(&p, k);
        let mut byte = bufs;
        super::super::vm::exec_kernel_bc(
            &code,
            &params,
            k,
            &mut fresh_vars(&p),
            &mut byte,
            KernelFidelity::Exact,
            None,
        );
        assert_eq!(tree, byte);
    }

    /// `reduction_to_grouped(k, gsz)` of three accumulation shapes:
    /// a flat sum over `src[k]`, a row sum over `a[i*n + k]`, and
    /// backprop's `layer_forward` (`sum += w[k*(h+1) + j] · in[k]`
    /// over `j in 1..h+1`, then a sigmoid); each also unrolled by 2 as
    /// CAPS does.
    fn grouped_shapes(gsz: u32) -> Vec<(Program, Kernel)> {
        use paccport_compilers::transforms::{
            reduction_to_grouped, unroll_grouped_phases, VarAlloc,
        };
        (0..6)
            .map(|case| {
                let shape = case % 3;
                let mut b = ProgramBuilder::new("shapes");
                let np = b.iparam("n");
                let src = b.array("src", Scalar::F32, E::from(np) * np, Intent::In);
                let w = b.array("w", Scalar::F32, E::from(np) * np, Intent::In);
                let out = b.array("out", Scalar::F32, E::from(np) + 1i64, Intent::Out);
                let jv = b.var("j");
                let kv = b.var("k");
                let sum = b.var("sum");
                let (j, k) = (|| E::from(Expr::var(jv)), || E::from(Expr::var(kv)));
                let (lo, hi, term, result) = match shape {
                    0 => (0i64, E::from(np), ld(src, k()), E::from(Expr::var(sum))),
                    1 => (
                        0,
                        E::from(np),
                        ld(src, j() * np + k()),
                        E::from(Expr::var(sum)),
                    ),
                    _ => (
                        1,
                        E::from(np) + 1i64,
                        ld(w, k() * (E::from(np) + 1i64) + j()) * ld(src, k()),
                        E::from(1.0) / (E::from(1.0) + (-E::from(Expr::var(sum))).exp()),
                    ),
                };
                let mut kern = Kernel::simple(
                    "acc",
                    vec![ParallelLoop::new(jv, Expr::iconst(lo), hi.expr())],
                    Block::new(vec![
                        let_(sum, Scalar::F32, 0.0f64),
                        for_(
                            kv,
                            0i64,
                            E::from(np),
                            vec![assign(sum, E::from(Expr::var(sum)) + term)],
                        ),
                        st(out, j(), result),
                    ]),
                );
                let mut p = b.finish(vec![]);
                let mut va = VarAlloc::new(&mut p.var_names);
                assert!(
                    reduction_to_grouped(&mut kern, gsz, &mut va),
                    "shape {shape}"
                );
                if case >= 3 {
                    let kinds = paccport_ir::KindEnv::for_program(&p);
                    assert!(unroll_grouped_phases(&mut kern, 2, &kinds), "shape {shape}");
                }
                (p, kern)
            })
            .collect()
    }

    #[test]
    fn every_phase_of_a_grouped_reduction_batch_compiles() {
        for gsz in [8, 128] {
            for (shape, (p, k)) in grouped_shapes(gsz).iter().enumerate() {
                let code = super::super::compile::compile_kernel(p, k);
                let super::super::compile::BodyCode::Grouped { batch, .. } = &code.body else {
                    unreachable!("reduction_to_grouped makes a grouped body");
                };
                let missing: Vec<usize> =
                    (0..batch.len()).filter(|&i| batch[i].is_none()).collect();
                assert!(
                    missing.is_empty(),
                    "gsz {gsz}, shape {shape}: phases {missing:?}"
                );
                // The tree phases' owner checks are exact, not ranges.
                assert!(batch[1].as_ref().is_some_and(|pl| pl.owners.len() == 1));
            }
        }
    }

    #[test]
    fn zero_trip_inner_loop_preserves_undefinedness() {
        // A variable first assigned inside a zero-trip sequential loop
        // must stay undefined after the batch, exactly like the tree.
        let mut b = ProgramBuilder::new("batch_zerotrip");
        let np = b.iparam("n");
        let o = b.array("o", Scalar::F64, E::from(np), Intent::Out);
        let iv = b.var("i");
        let jv = b.var("j");
        let tv = b.var("t");
        let body = vec![
            for_(jv, 0i64, 0i64, vec![let_(tv, Scalar::F64, 1.25f64)]),
            st(o, E::from(Expr::var(iv)), E::from(3.5f64)),
        ];
        let k = Kernel::simple(
            "zt",
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Block::new(body),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let k = &p.kernels()[0];
        assert!(build(&p, k).is_some());
        let n = 4i64;
        let bufs = vec![Buffer::zeroed(Scalar::F64, n as usize)];
        let params = [V::I(n)];
        let mut tree_bufs = bufs.clone();
        let mut tree_vars = fresh_vars(&p);
        exec_kernel_traced(
            &p,
            &params,
            k,
            &mut tree_vars,
            &mut tree_bufs,
            KernelFidelity::Exact,
            None,
        );
        let code = super::super::compile::compile_kernel(&p, k);
        let mut bc_bufs = bufs;
        let mut bc_vars = fresh_vars(&p);
        super::super::vm::exec_kernel_bc(
            &code,
            &params,
            k,
            &mut bc_vars,
            &mut bc_bufs,
            KernelFidelity::Exact,
            None,
        );
        assert_eq!(tree_bufs, bc_bufs);
        assert_eq!(tree_vars, bc_vars, "variable environments diverged");
        assert_eq!(tree_vars[tv.0 as usize], None, "t must stay undefined");
    }
}
