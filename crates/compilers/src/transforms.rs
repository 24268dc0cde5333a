//! IR-to-IR transformations backing Steps 3 (unroll) and 4 (tile) of
//! the systematic method, plus the `reduction` directive's
//! shared-memory tree lowering (Fig. 13 of the paper).
//!
//! All transforms are semantics-preserving rewrites of the kernel IR,
//! so the functional interpreter executes exactly the code whose PTX
//! the analysis counts.

use paccport_ir::expr::{BinOp, CmpOp, Expr};
use paccport_ir::kernel::{GroupedBody, Kernel, KernelBody, ParallelLoop};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{ArrayId, LocalArrayDecl, Scalar, VarId};
use paccport_ir::{simplify_kernel_in, KindEnv, SpecialVar};

/// Fresh-variable allocator backed by the program's name table.
pub struct VarAlloc<'a> {
    names: &'a mut Vec<String>,
}

impl<'a> VarAlloc<'a> {
    pub fn new(names: &'a mut Vec<String>) -> Self {
        VarAlloc { names }
    }

    pub fn fresh(&mut self, hint: &str) -> VarId {
        self.names.push(format!("{hint}{}", self.names.len()));
        VarId(self.names.len() as u32 - 1)
    }
}

/// One semantics-preserving whole-program rewrite, as enumerated by
/// the differential conformance harness: every variant must leave the
/// observable output of a program bitwise unchanged (that is the
/// invariant the fuzzer checks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformVariant {
    /// [`unroll_inner_loops`] with the given factor on every kernel.
    Unroll(u32),
    /// [`unroll_grouped_phases`] (unroll-and-jam of staged bodies).
    UnrollGrouped(u32),
    /// [`strip_mine`] (the `tile` clause's effect) with the given tile.
    StripMine(u32),
    /// [`serialize_inner_loops`] keeping one parallel level.
    SerializeInner,
    /// [`reduction_to_grouped`] with the given group size (must be a
    /// power of two).
    ReductionToGrouped(u32),
    /// [`paccport_ir::simplify_kernel`] over every kernel.
    Simplify,
}

impl TransformVariant {
    /// The canonical list the conformance driver iterates.
    pub fn all() -> Vec<TransformVariant> {
        vec![
            TransformVariant::Unroll(2),
            TransformVariant::Unroll(3),
            TransformVariant::UnrollGrouped(2),
            TransformVariant::StripMine(4),
            TransformVariant::SerializeInner,
            TransformVariant::ReductionToGrouped(8),
            TransformVariant::Simplify,
        ]
    }

    /// Stable label used in conformance reports.
    pub fn label(&self) -> String {
        match self {
            TransformVariant::Unroll(f) => format!("unroll(x{f})"),
            TransformVariant::UnrollGrouped(f) => format!("unroll-grouped(x{f})"),
            TransformVariant::StripMine(t) => format!("strip-mine({t})"),
            TransformVariant::SerializeInner => "serialize-inner".to_string(),
            TransformVariant::ReductionToGrouped(g) => format!("reduction-to-grouped({g})"),
            TransformVariant::Simplify => "simplify".to_string(),
        }
    }

    /// Apply the rewrite to every kernel of `p`. Returns whether any
    /// kernel changed. Transforms that do not match a kernel's shape
    /// (e.g. strip-mining a rank-2 nest) skip it, exactly as the
    /// simulated compilers do.
    pub fn apply(&self, p: &mut paccport_ir::Program) -> bool {
        let env = KindEnv::for_program(p);
        let mut names = std::mem::take(&mut p.var_names);
        let mut changed = false;
        {
            let mut va = VarAlloc::new(&mut names);
            p.map_kernels(|k| {
                changed |= match self {
                    TransformVariant::Unroll(f) => unroll_inner_loops(k, *f, &env),
                    TransformVariant::UnrollGrouped(f) => unroll_grouped_phases(k, *f, &env),
                    TransformVariant::StripMine(t) => strip_mine(k, *t, &mut va, &env),
                    TransformVariant::SerializeInner => serialize_inner_loops(k, 1),
                    TransformVariant::ReductionToGrouped(g) => reduction_to_grouped(k, *g, &mut va),
                    TransformVariant::Simplify => {
                        let before = k.clone();
                        simplify_kernel_in(k, &env);
                        *k != before
                    }
                };
            });
        }
        p.var_names = names;
        changed
    }
}

/// Does the block accumulate into a scalar (`acc = acc ⊕ e`) inside a
/// loop? This is the pattern CAPS's CUDA back end fails to unroll in
/// Back Propagation.
pub fn has_scalar_accumulation(b: &Block) -> bool {
    let mut found = false;
    b.walk(&mut |s| {
        if let Stmt::For { body, .. } = s {
            for inner in &body.0 {
                if let Stmt::Assign { var, value } = inner {
                    if value.uses_var(*var) {
                        found = true;
                    }
                }
            }
        }
    });
    found
}

/// Unroll every innermost sequential loop of a simple kernel body by
/// `factor`, with an epilogue loop for the remainder. Returns whether
/// any loop was transformed.
pub fn unroll_inner_loops(k: &mut Kernel, factor: u32, env: &KindEnv) -> bool {
    unroll_inner_loops_filtered(k, factor, false, env)
}

/// Like [`unroll_inner_loops`], but with `skip_accum = true` loops
/// that accumulate into a scalar (`acc = acc + e`) are left alone —
/// PGI's `-Munroll` behaviour, which explains why LUD's PTX did not
/// change under PGI while Gaussian elimination's nearly doubled.
pub fn unroll_inner_loops_filtered(
    k: &mut Kernel,
    factor: u32,
    skip_accum: bool,
    env: &KindEnv,
) -> bool {
    assert!(factor >= 2);
    let KernelBody::Simple(body) = &mut k.body else {
        return false;
    };
    let mut changed = false;
    *body = unroll_block_filtered(body, factor, &mut changed, skip_accum);
    if changed {
        // Fold the `i + 0` / `(n / F) * F` debris a real
        // source-to-source compiler would never emit.
        simplify_kernel_in(k, env);
        paccport_trace::add("transforms.unroll_inner_loops", 1);
    }
    changed
}

fn body_accumulates(b: &Block) -> bool {
    b.0.iter().any(|s| match s {
        Stmt::Assign { var, value } => value.uses_var(*var),
        _ => false,
    })
}

fn unroll_block(b: &Block, factor: u32, changed: &mut bool) -> Block {
    unroll_block_filtered(b, factor, changed, false)
}

fn unroll_block_filtered(b: &Block, factor: u32, changed: &mut bool, skip_accum: bool) -> Block {
    let mut out = Vec::with_capacity(b.0.len());
    for s in &b.0 {
        match s {
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } if *step >= 1
                && body.for_vars().is_empty()
                && !(skip_accum && body_accumulates(body)) =>
            {
                *changed = true;
                let f = factor as i64;
                let s = *step;
                // iters = (hi - lo + s - 1) / s; main covers
                // (iters / F) * F iterations, i.e. advances by s each.
                let span = Expr::bin(BinOp::Sub, hi.clone(), lo.clone());
                let iters = Expr::bin(
                    BinOp::Div,
                    Expr::bin(BinOp::Add, span, Expr::iconst(s - 1)),
                    Expr::iconst(s),
                );
                let main_iters = Expr::bin(
                    BinOp::Mul,
                    Expr::bin(BinOp::Div, iters, Expr::iconst(f)),
                    Expr::iconst(f),
                );
                // main_hi = lo + main_iters * s
                let main_hi = Expr::bin(
                    BinOp::Add,
                    lo.clone(),
                    Expr::bin(BinOp::Mul, main_iters, Expr::iconst(s)),
                );
                let mut unrolled = Vec::new();
                for u in 0..factor {
                    let shifted = if u == 0 {
                        body.clone()
                    } else {
                        body.subst_var(
                            *var,
                            &Expr::bin(BinOp::Add, Expr::var(*var), Expr::iconst(u as i64 * s)),
                        )
                    };
                    unrolled.extend(shifted.0);
                }
                out.push(Stmt::For {
                    var: *var,
                    lo: lo.clone(),
                    hi: main_hi.clone(),
                    step: s * f,
                    body: Block::new(unrolled),
                });
                // Remainder.
                out.push(Stmt::For {
                    var: *var,
                    lo: main_hi,
                    hi: hi.clone(),
                    step: s,
                    body: body.clone(),
                });
            }
            Stmt::For {
                var,
                lo,
                hi,
                step,
                body,
            } => out.push(Stmt::For {
                var: *var,
                lo: lo.clone(),
                hi: hi.clone(),
                step: *step,
                body: unroll_block_filtered(body, factor, changed, skip_accum),
            }),
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => out.push(Stmt::If {
                cond: cond.clone(),
                then_blk: unroll_block_filtered(then_blk, factor, changed, skip_accum),
                else_blk: unroll_block_filtered(else_blk, factor, changed, skip_accum),
            }),
            other => out.push(other.clone()),
        }
    }
    Block::new(out)
}

/// Move the parallel loops below `keep` into the kernel body as
/// sequential `For` statements — how PGI serializes the inner loops of
/// a nest it distributes one-dimensionally ("\[128,1\] … to execute the
/// outer loop in parallel and the inner loop sequentially").
///
/// Making the serialization explicit in the IR lets `-Munroll` operate
/// on exactly the loop PGI unrolls in the paper's Gaussian-elimination
/// experiment.
pub fn serialize_inner_loops(k: &mut Kernel, keep: usize) -> bool {
    if k.loops.len() <= keep || keep == 0 {
        return false;
    }
    // A region reduction samples its value once per *parallel*
    // iteration; folding parallel loops into the body would change
    // which iterations contribute. Leave such kernels alone (the
    // lowering serializes the extra loops itself, correctly).
    if k.region_reduction.is_some() {
        return false;
    }
    let KernelBody::Simple(body) = &k.body else {
        return false;
    };
    let mut inner = body.clone();
    for lp in k.loops[keep..].iter().rev() {
        inner = Block::new(vec![Stmt::For {
            var: lp.var,
            lo: lp.lo.clone(),
            hi: lp.hi.clone(),
            step: 1,
            body: inner,
        }]);
    }
    k.loops.truncate(keep);
    k.body = KernelBody::Simple(inner);
    paccport_trace::add("transforms.serialize_inner_loops", 1);
    true
}

/// Unroll the strided accumulation loops inside a grouped (reduction)
/// body — what CAPS's OpenCL back end managed on Back Propagation
/// while its CUDA back end did not (Section V-D1).
pub fn unroll_grouped_phases(k: &mut Kernel, factor: u32, env: &KindEnv) -> bool {
    let KernelBody::Grouped(g) = &mut k.body else {
        return false;
    };
    let mut changed = false;
    for phase in &mut g.phases {
        *phase = unroll_block(phase, factor, &mut changed);
    }
    if changed {
        simplify_kernel_in(k, env);
        paccport_trace::add("transforms.unroll_grouped_phases", 1);
    }
    changed
}

/// Strip-mine a rank-1, flat-body kernel into a 2-D nest of tiles —
/// CAPS's `tile` implementation: the loop is reshaped so 2-D gridify
/// applies, but **no shared-memory staging is generated** (the paper:
/// "tiling in CAPS did not use shared memory in GPU because no
/// ld.shared or st.shared instructions have been found").
///
/// Returns whether the kernel was transformed.
pub fn strip_mine(k: &mut Kernel, tile: u32, va: &mut VarAlloc<'_>, env: &KindEnv) -> bool {
    if k.loops.len() != 1 {
        return false;
    }
    // A region reduction combines its value once per parallel
    // iteration — including the guard-padded iterations strip-mining
    // introduces when the range does not divide by the tile size,
    // which would corrupt the reduced result (and can read the guard
    // variable out of bounds). Refuse, as serialize_inner_loops does.
    if k.region_reduction.is_some() {
        return false;
    }
    let KernelBody::Simple(body) = &k.body else {
        return false;
    };
    let body = body.clone();
    let old = k.loops[0].clone();
    let t = tile as i64;
    let span = Expr::bin(BinOp::Sub, old.hi.clone(), old.lo.clone());
    let n_tiles = Expr::bin(
        BinOp::Div,
        Expr::bin(BinOp::Add, span, Expr::iconst(t - 1)),
        Expr::iconst(t),
    );
    let ii = va.fresh("tile_i");
    let tt = va.fresh("tile_t");
    let reconstructed = Expr::bin(
        BinOp::Add,
        old.lo.clone(),
        Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::var(ii), Expr::iconst(t)),
            Expr::var(tt),
        ),
    );
    let guarded = Block::new(vec![
        Stmt::Let {
            var: old.var,
            ty: Scalar::I32,
            init: reconstructed,
        },
        Stmt::If {
            cond: Expr::cmp(CmpOp::Lt, Expr::var(old.var), old.hi.clone()),
            then_blk: body,
            else_blk: Block::default(),
        },
    ]);
    let mut outer = ParallelLoop::new(ii, Expr::iconst(0), n_tiles);
    outer.clauses = old.clauses.clone();
    outer.clauses.tile = None;
    let mut inner = ParallelLoop::new(tt, Expr::iconst(0), Expr::iconst(t));
    inner.clauses.independent = old.clauses.independent;
    k.loops = vec![outer, inner];
    k.body = KernelBody::Simple(guarded);
    simplify_kernel_in(k, env);
    paccport_trace::add("transforms.strip_mine", 1);
    true
}

fn is_zero_literal(e: &Expr) -> bool {
    matches!(e, Expr::FConst(z) if *z == 0.0) || *e == Expr::IConst(0)
}

/// Recognize `let acc = 0; for k in lo..hi { acc = acc + e }; rest`,
/// with `e` free of `acc`, and rewrite it as a work-group tree
/// reduction with shared memory and barriers (the paper's Fig. 13
/// pattern; emitted by both CAPS and PGI for the `reduction`
/// directive, producing the observed `st.shared`/`ld.shared`
/// instructions).
///
/// Returns whether the kernel was transformed.
pub fn reduction_to_grouped(k: &mut Kernel, group_size: u32, va: &mut VarAlloc<'_>) -> bool {
    assert!(group_size.is_power_of_two(), "group size must be 2^k");
    let KernelBody::Simple(body) = &k.body else {
        return false;
    };
    if k.loops.len() != 1 || body.0.len() < 2 {
        return false;
    }
    // Match the accumulation prefix.
    let (acc, acc_ty, init) = match &body.0[0] {
        Stmt::Let { var, ty, init } => (*var, *ty, init.clone()),
        _ => return false,
    };
    let (kvar, lo, hi, term) = match &body.0[1] {
        Stmt::For {
            var,
            lo,
            hi,
            step: 1,
            body: fb,
        } if fb.0.len() == 1 => match &fb.0[0] {
            Stmt::Assign { var: a, value } if *a == acc => {
                let term = match value {
                    Expr::Bin(BinOp::Add, l, r) => {
                        if **l == Expr::var(acc) {
                            (**r).clone()
                        } else if **r == Expr::var(acc) {
                            (**l).clone()
                        } else {
                            return false;
                        }
                    }
                    Expr::Fma(a1, b1, c1) if **c1 == Expr::var(acc) => {
                        Expr::bin(BinOp::Mul, (**a1).clone(), (**b1).clone())
                    }
                    _ => return false,
                };
                // Each lane starts from `init` and the tree adds every
                // lane's partial, so `init` must be zero; a `term` that
                // reads `acc` is a recurrence, not a sum.
                if term.uses_var(acc) || !is_zero_literal(&init) {
                    return false;
                }
                (*var, lo.clone(), hi.clone(), term)
            }
            _ => return false,
        },
        _ => return false,
    };
    let rest: Vec<Stmt> = body.0[2..].to_vec();

    let sdata = ArrayId(0); // local table slot 0
    let tid = va.fresh("tid");
    let g = group_size as i64;

    // Phase 1: strided partial accumulation + store to shared.
    let phase1 = Block::new(vec![
        Stmt::Let {
            var: tid,
            ty: Scalar::I32,
            init: Expr::Special(SpecialVar::LocalId(0)),
        },
        Stmt::Let {
            var: acc,
            ty: acc_ty,
            init,
        },
        Stmt::For {
            var: kvar,
            lo: Expr::bin(BinOp::Add, lo, Expr::var(tid)),
            hi,
            step: g,
            body: Block::new(vec![Stmt::Assign {
                var: acc,
                value: Expr::bin(BinOp::Add, Expr::var(acc), term),
            }]),
        },
        Stmt::Store {
            space: paccport_ir::MemSpace::Local,
            array: sdata,
            index: Expr::var(tid),
            value: Expr::var(acc),
        },
    ]);

    // Tree phases: s = 1, 2, 4, … (Fig. 13's loop, one phase per step
    // so a barrier separates them).
    let mut phases = vec![phase1];
    let mut s = 1i64;
    while s < g {
        let cond = Expr::cmp(
            CmpOp::Eq,
            Expr::bin(BinOp::Rem, Expr::var(tid), Expr::iconst(2 * s)),
            Expr::iconst(0),
        );
        phases.push(Block::new(vec![Stmt::If {
            cond,
            then_blk: Block::new(vec![Stmt::Store {
                space: paccport_ir::MemSpace::Local,
                array: sdata,
                index: Expr::var(tid),
                value: Expr::bin(
                    BinOp::Add,
                    Expr::load_local(sdata, Expr::var(tid)),
                    Expr::load_local(
                        sdata,
                        Expr::bin(BinOp::Add, Expr::var(tid), Expr::iconst(s)),
                    ),
                ),
            }]),
            else_blk: Block::default(),
        }]));
        s *= 2;
    }

    // Final phase: thread 0 re-reads the total and runs the epilogue.
    let mut fin = vec![Stmt::Assign {
        var: acc,
        value: Expr::load_local(sdata, Expr::iconst(0)),
    }];
    fin.extend(rest);
    phases.push(Block::new(vec![Stmt::If {
        cond: Expr::cmp(CmpOp::Eq, Expr::var(tid), Expr::iconst(0)),
        then_blk: Block::new(fin),
        else_blk: Block::default(),
    }]));

    k.body = KernelBody::Grouped(GroupedBody {
        group_size,
        locals: vec![LocalArrayDecl {
            name: "sdata".into(),
            // The shared buffer must carry the accumulator's type: an
            // F32 buffer under an I32 (or F64) accumulator silently
            // coerces every partial sum.
            elem: acc_ty,
            len: group_size as usize,
        }],
        phases,
    });
    paccport_trace::add("transforms.reduction_to_grouped", 1);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{assign, for_, ld, let_, st, ProgramBuilder, E};
    use paccport_ir::{HostStmt, Intent, ParamId};

    fn accum_kernel() -> (paccport_ir::Program, Kernel) {
        // out[j] = sum_k in[k] * w[k*n + j]
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let m = b.iparam("m");
        let input = b.array("in", Scalar::F32, n, Intent::In);
        let w = b.array("w", Scalar::F32, E::from(n) * m, Intent::In);
        let out = b.array("out", Scalar::F32, m, Intent::Out);
        let j = b.var("j");
        let kv = b.var("k");
        let sum = b.var("sum");
        let k = Kernel::simple(
            "forward",
            vec![ParallelLoop::new(j, Expr::iconst(0), Expr::param(m))],
            Block::new(vec![
                let_(sum, Scalar::F32, 0.0),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(
                        sum,
                        E::from(sum) + ld(input, kv) * ld(w, E::from(kv) * m + j),
                    )],
                ),
                st(out, j, E::from(sum)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        (p, k)
    }

    #[test]
    fn unroll_duplicates_innermost_body() {
        let (_p, mut k) = accum_kernel();
        assert!(unroll_inner_loops(&mut k, 4, &KindEnv::new()));
        let body = k.simple_body().unwrap();
        // Two loops now: main (step 4) and remainder (step 1).
        let fors: Vec<_> = body
            .0
            .iter()
            .filter_map(|s| match s {
                Stmt::For { step, body, .. } => Some((*step, body.0.len())),
                _ => None,
            })
            .collect();
        assert_eq!(fors.len(), 2);
        assert_eq!(fors[0], (4, 4)); // 4 copies of the 1-stmt body
        assert_eq!(fors[1], (1, 1));
    }

    #[test]
    fn unroll_skips_kernels_without_inner_loops() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut k = Kernel::simple(
            "flat",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, ld(a, i) + 1.0)]),
        );
        assert!(!unroll_inner_loops(&mut k, 8, &KindEnv::new()));
    }

    #[test]
    fn strip_mine_creates_guarded_2d_nest() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut k = Kernel::simple(
            "flat",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, ld(a, i) + 1.0)]),
        );
        let mut p = b.finish(vec![]);
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(strip_mine(&mut k, 32, &mut va, &KindEnv::new()));
        assert_eq!(k.loops.len(), 2);
        // Guard present.
        let body = k.simple_body().unwrap();
        assert!(matches!(body.0[1], Stmt::If { .. }));
    }

    #[test]
    fn strip_mine_declines_nested_kernels() {
        let (mut p, mut k) = accum_kernel();
        let mut va = VarAlloc::new(&mut p.var_names);
        // Rank-1 but let's check the rank-2 refusal too.
        let j2 = va.fresh("j2");
        k.loops.push(ParallelLoop::new(
            j2,
            Expr::iconst(0),
            Expr::param(ParamId(0)),
        ));
        assert!(!strip_mine(&mut k, 32, &mut va, &KindEnv::new()));
    }

    #[test]
    fn reduction_transform_builds_tree_phases() {
        let (mut p, mut k) = accum_kernel();
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(reduction_to_grouped(&mut k, 128, &mut va));
        match &k.body {
            KernelBody::Grouped(g) => {
                assert_eq!(g.group_size, 128);
                // 1 accumulate + log2(128)=7 tree + 1 final.
                assert_eq!(g.phases.len(), 1 + 7 + 1);
                assert_eq!(g.locals.len(), 1);
                assert_eq!(g.locals[0].len, 128);
            }
            _ => panic!("expected grouped body"),
        }
    }

    #[test]
    fn reduction_transform_keeps_accumulator_type_for_sdata() {
        // Regression: the shared buffer was hardcoded to F32, so an
        // I32 accumulator had its partial sums coerced through float
        // on every round trip to local memory.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let m = b.iparam("m");
        let input = b.array("in", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::I32, m, Intent::Out);
        let j = b.var("j");
        let kv = b.var("k");
        let sum = b.var("sum");
        let mut k = Kernel::simple(
            "count",
            vec![ParallelLoop::new(j, Expr::iconst(0), Expr::param(m))],
            Block::new(vec![
                let_(sum, Scalar::I32, 0i64),
                for_(
                    kv,
                    0i64,
                    E::from(n),
                    vec![assign(sum, E::from(sum) + ld(input, kv))],
                ),
                st(out, j, E::from(sum)),
            ]),
        );
        let mut p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(reduction_to_grouped(&mut k, 8, &mut va));
        match &k.body {
            KernelBody::Grouped(g) => {
                assert_eq!(g.locals[0].elem, Scalar::I32, "sdata must carry acc_ty");
            }
            _ => panic!("expected grouped body"),
        }
    }

    #[test]
    fn reduction_transform_rejects_non_matching_bodies() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut k = Kernel::simple(
            "flat",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, ld(a, i) + 1.0)]),
        );
        let mut p = b.finish(vec![]);
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(!reduction_to_grouped(&mut k, 128, &mut va));
    }

    /// Regression: a lane-replicated non-zero `init` and a term that
    /// reads the accumulator were both accepted, and the grouped
    /// rewrite then computed a different value.
    #[test]
    fn reduction_transform_rejects_nonzero_init_and_recurrences() {
        let (mut p, k) = accum_kernel();
        let KernelBody::Simple(body) = &k.body else {
            unreachable!("accum_kernel is simple")
        };
        let Stmt::Let { var: sum, .. } = body.0[0] else {
            unreachable!("accum_kernel starts with the accumulator")
        };
        let mut nonzero_init = k.clone();
        if let KernelBody::Simple(b) = &mut nonzero_init.body {
            b.0[0] = let_(sum, Scalar::F32, 2.0);
        }
        let mut recurrence = k.clone();
        if let KernelBody::Simple(b) = &mut recurrence.body {
            let Stmt::For { body: fb, .. } = &mut b.0[1] else {
                unreachable!("accum_kernel's second statement is the loop")
            };
            fb.0[0] = assign(sum, E::from(sum) + (ld(ArrayId(0), 0i64) + E::from(sum)));
        }
        let mut va = VarAlloc::new(&mut p.var_names);
        assert!(!reduction_to_grouped(&mut nonzero_init, 8, &mut va));
        assert!(!reduction_to_grouped(&mut recurrence, 8, &mut va));
    }

    #[test]
    fn accumulation_detection() {
        let (_p, k) = accum_kernel();
        assert!(has_scalar_accumulation(k.simple_body().unwrap()));
        assert!(!k.simple_body().unwrap().for_vars().is_empty());
    }
}
