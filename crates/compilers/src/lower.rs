//! Lowering from the directive IR to the PTX-like ISA.
//!
//! One lowering pass serves all three compiler personalities; they
//! differ through [`LoweringStyle`]:
//!
//! * **address style** — CAPS performs common-subexpression
//!   elimination on address arithmetic within a statement and
//!   converts each array base to a global pointer once per kernel;
//!   PGI recomputes addresses naively per access (including the
//!   `cvta.to.global`), which is why the paper measures more PTX
//!   instructions for PGI on LUD and BP, and more global-memory
//!   instructions on BFS.
//! * **fast math** — `div` becomes `rcp`+`mul` (the `-fastmath` /
//!   `-prec-div=false` flags of Table I).
//!
//! The pass simultaneously builds a [`CostTree`] using emitter marks,
//! so the dynamic-cost model used by the device simulator is derived
//! from the *same* instruction stream as the static counts the paper
//! plots — they cannot drift apart.

use crate::artifact::{CostNode, CostTree};
use paccport_ir::expr::{BinOp, Expr, SpecialVar, UnOp};
use paccport_ir::kernel::{Kernel, KernelBody};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{ArrayId, MemSpace, ParamId, Scalar, VarId};
use paccport_ir::Program;
use paccport_ptx::{CategoryCounts, Emitter, Opcode, Operand, PtxKernel, PtxType, Reg, SpecialReg};
use std::collections::BTreeMap;

/// How addresses and repeated subexpressions are lowered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrStyle {
    /// Value-number repeated subexpressions within a statement; one
    /// `cvta.to.global` per array (CAPS).
    Cse,
    /// Recompute everything per access (PGI).
    Naive,
}

/// Per-compiler lowering knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoweringStyle {
    pub addr: AddrStyle,
    /// Lower `div` as `rcp`+`mul`.
    pub fastmath: bool,
    /// Extra per-scalar-parameter register traffic (PGI reloads and
    /// converts parameters more eagerly; inflates `mov`/`cvt`).
    pub extra_param_movs: u32,
}

impl LoweringStyle {
    pub fn caps() -> Self {
        LoweringStyle {
            addr: AddrStyle::Cse,
            fastmath: false,
            extra_param_movs: 0,
        }
    }

    pub fn pgi() -> Self {
        LoweringStyle {
            addr: AddrStyle::Naive,
            fastmath: false,
            extra_param_movs: 2,
        }
    }

    pub fn opencl() -> Self {
        LoweringStyle {
            addr: AddrStyle::Naive,
            fastmath: false,
            extra_param_movs: 0,
        }
    }
}

/// Result of lowering one kernel.
#[derive(Debug, Clone)]
pub struct LoweredKernel {
    pub ptx: PtxKernel,
    /// Per-thread setup cost (parameters, addresses, global index,
    /// bounds guard).
    pub prologue: CategoryCounts,
    /// Per-parallel-iteration body cost (includes serialized parallel
    /// loops as loop nodes).
    pub cost: CostTree,
}

/// Lower a kernel, distributing the outermost `dist_rank` parallel
/// loops across threads and serializing the rest inside each thread.
pub fn lower_kernel(
    p: &Program,
    k: &Kernel,
    dist_rank: usize,
    style: &LoweringStyle,
) -> LoweredKernel {
    let _span = paccport_trace::span("compilers.lower_kernel");
    paccport_faults::maybe_slow_compile(&format!("lower:{}", k.name));
    let mut lw = Lowerer::new(p, style, format!("{}_kernel", k.name));
    lw.prologue(k, dist_rank);
    let prologue_counts = lw.emitter.counts_since(0);

    let mut cost = CostTree::default();
    let dist_rank = dist_rank.min(k.loops.len());

    // Serialize the non-distributed parallel loops.
    let mut m = lw.emitter.mark();
    let serial: Vec<_> = k.loops[dist_rank..].to_vec();
    lw.lower_serialized_loops(&serial, k, &mut cost, &mut m);

    let ptx = lw.emitter.finish();
    LoweredKernel {
        ptx,
        prologue: prologue_counts,
        cost,
    }
}

/// Lower a host-fallback stub (kernels PGI never launches): a handful
/// of parameter loads and a `ret`, matching the paper's "few PTX
/// instructions" observation on PGI's BFS.
pub fn lower_stub(p: &Program, k: &Kernel) -> PtxKernel {
    let mut e = Emitter::new(format!("{}_kernel", k.name));
    for a in k.global_arrays().iter().take(3) {
        e.add_param(p.array(*a).name.clone());
        e.emit(
            Opcode::LdParam,
            PtxType::U64,
            vec![Operand::Sym(p.array(*a).name.clone())],
        );
    }
    e.emit_void(Opcode::Mov, PtxType::U32, vec![Operand::ImmI(0)]);
    e.finish()
}

/// Scalar parameters referenced anywhere in a kernel.
pub fn used_params(k: &Kernel) -> Vec<ParamId> {
    let mut set = std::collections::BTreeSet::new();
    k.walk_exprs(&mut |e| {
        if let Expr::Param(id) = e {
            set.insert(*id);
        }
    });
    set.into_iter().collect()
}

struct Lowerer<'a> {
    p: &'a Program,
    style: &'a LoweringStyle,
    emitter: Emitter,
    /// Array base pointer registers (CSE style only).
    bases: BTreeMap<ArrayId, Reg>,
    /// Scalar parameter registers.
    params: BTreeMap<ParamId, Reg>,
    /// Kernel-local scalar registers and their types.
    vars: BTreeMap<VarId, (Reg, PtxType)>,
    /// Within-statement value numbering (CSE style only).
    cse: Vec<(Expr, Reg, PtxType)>,
    /// Registers for work-group builtins.
    specials: BTreeMap<SpecialVar, Reg>,
}

impl<'a> Lowerer<'a> {
    fn new(p: &'a Program, style: &'a LoweringStyle, name: String) -> Self {
        Lowerer {
            p,
            style,
            emitter: Emitter::new(name),
            bases: BTreeMap::new(),
            params: BTreeMap::new(),
            vars: BTreeMap::new(),
            cse: Vec::new(),
            specials: BTreeMap::new(),
        }
    }

    // ---------------------------------------------------------------
    // Prologue
    // ---------------------------------------------------------------

    fn prologue(&mut self, k: &Kernel, dist_rank: usize) {
        // Scalar parameters.
        for pid in used_params(k) {
            let name = self.p.param(pid).name.clone();
            self.emitter.add_param(name.clone());
            let r = self
                .emitter
                .emit(Opcode::LdParam, PtxType::S32, vec![Operand::Sym(name)]);
            for _ in 0..self.style.extra_param_movs {
                self.emitter.un(Opcode::Mov, PtxType::S32, r);
            }
            self.params.insert(pid, r);
        }
        // Array bases.
        for aid in k.global_arrays() {
            let name = self.p.array(aid).name.clone();
            self.emitter.add_param(name.clone());
            let raw = self
                .emitter
                .emit(Opcode::LdParam, PtxType::U64, vec![Operand::Sym(name)]);
            if self.style.addr == AddrStyle::Cse {
                let base = self.emitter.un(Opcode::CvtaToGlobal, PtxType::U64, raw);
                self.bases.insert(aid, base);
            } else {
                // Naive style re-converts per access; remember the raw
                // parameter register instead.
                self.bases.insert(aid, raw);
            }
        }
        // Global indices for the distributed loops.
        let dist_rank = dist_rank.min(k.loops.len());
        for (d, lp) in k.loops.iter().take(dist_rank).enumerate() {
            let (tid, ctaid, ntid) = match dist_rank - 1 - d {
                // Innermost distributed loop maps to x.
                0 => (SpecialReg::TidX, SpecialReg::CtaIdX, SpecialReg::NTidX),
                _ => (SpecialReg::TidY, SpecialReg::CtaIdY, SpecialReg::NTidY),
            };
            let rt = self
                .emitter
                .emit(Opcode::Mov, PtxType::U32, vec![Operand::Sreg(tid)]);
            let rc = self
                .emitter
                .emit(Opcode::Mov, PtxType::U32, vec![Operand::Sreg(ctaid)]);
            let rn = self
                .emitter
                .emit(Opcode::Mov, PtxType::U32, vec![Operand::Sreg(ntid)]);
            // gid = ctaid * ntid + tid
            let gid = self.emitter.emit(
                Opcode::Mad,
                PtxType::S32,
                vec![rc.into(), rn.into(), rt.into()],
            );
            // idx = lo + gid
            let (lo, _) = self.expr(&lp.lo);
            let idx = self.emitter.bin(Opcode::Add, PtxType::S32, lo, gid);
            self.vars.insert(lp.var, (idx, PtxType::S32));
            // Guard: if idx >= hi, exit.
            let (hi, _) = self.expr(&lp.hi);
            let pred = self.emitter.bin(Opcode::Setp, PtxType::S32, idx, hi);
            let end = self.emitter.label();
            self.emitter.branch_if(pred, end);
            // The exit label is conceptually at the end; for counting
            // purposes placement is irrelevant, so place it directly.
            self.emitter.place(end);
        }
        self.cse.clear();
    }

    // ---------------------------------------------------------------
    // Loops and bodies
    // ---------------------------------------------------------------

    fn lower_serialized_loops(
        &mut self,
        serial: &[paccport_ir::ParallelLoop],
        k: &Kernel,
        tree: &mut CostTree,
        mark: &mut usize,
    ) {
        if let Some((first, rest)) = serial.split_first() {
            // Lower as an ordinary sequential loop containing the rest.
            let lo = first.lo.clone();
            let hi = first.hi.clone();
            self.begin_loop(first.var, &lo, tree, mark);
            let mut body_tree = CostTree::default();
            let mut body_mark = self.emitter.mark();
            self.lower_serialized_loops(rest, k, &mut body_tree, &mut body_mark);
            self.flush(&mut body_tree, &mut body_mark);
            let overhead = self.loop_overhead();
            tree.kids.push(CostNode::Loop {
                var: first.var,
                lo,
                hi,
                step: 1,
                overhead,
                body: body_tree,
            });
            *mark = self.emitter.mark();
        } else {
            self.lower_body(k, tree, mark);
        }
    }

    fn lower_body(&mut self, k: &Kernel, tree: &mut CostTree, mark: &mut usize) {
        match &k.body {
            KernelBody::Simple(b) => self.block(b, tree, mark),
            KernelBody::Grouped(g) => {
                for (i, phase) in g.phases.iter().enumerate() {
                    if i > 0 {
                        self.emitter.emit_void(
                            Opcode::BarSync,
                            PtxType::U32,
                            vec![Operand::ImmI(0)],
                        );
                    }
                    self.block(phase, tree, mark);
                }
            }
        }
        if let Some(rr) = &k.region_reduction {
            // Per-iteration accumulate of the reduced value.
            let (v, ty) = self.expr(&rr.value);
            let op = match rr.op {
                paccport_ir::ReduceOp::Add => Opcode::Add,
                paccport_ir::ReduceOp::Max => Opcode::Max,
                paccport_ir::ReduceOp::Min => Opcode::Min,
            };
            let acc = self.emitter.mov_imm_f(0.0);
            self.emitter.bin(op, ty, acc, v);
            // One representative global store for the result.
            self.store_addr_and(rr.dest, &Expr::iconst(0), acc, Opcode::StGlobal, ty);
        }
        self.flush(tree, mark);
    }

    /// Move counts emitted since `mark` into `tree.flat`.
    fn flush(&mut self, tree: &mut CostTree, mark: &mut usize) {
        let c = self.emitter.counts_since(*mark);
        tree.flat += c;
        tree.flat_ldst += self.emitter.ldst_since(*mark);
        *mark = self.emitter.mark();
    }

    fn loop_overhead(&self) -> CategoryCounts {
        // setp + predicated bra + add (increment) + bra (backedge).
        let mut c = CategoryCounts::default();
        c.add_n(paccport_ptx::Category::FlowControl, 3);
        c.add_n(paccport_ptx::Category::Arithmetic, 1);
        c
    }

    /// Emit loop header: init + bound + top label + test. The caller
    /// is responsible for the cost-tree bookkeeping.
    fn begin_loop(&mut self, var: VarId, lo: &Expr, tree: &mut CostTree, mark: &mut usize) {
        let (rlo, _) = self.expr(lo);
        let ri = self.emitter.un(Opcode::Mov, PtxType::S32, rlo);
        self.vars.insert(var, (ri, PtxType::S32));
        self.flush(tree, mark);
        let top = self.emitter.label();
        self.emitter.place(top);
        self.cse.clear();
    }

    fn block(&mut self, b: &Block, tree: &mut CostTree, mark: &mut usize) {
        for s in &b.0 {
            match s {
                Stmt::Let { var, ty, init } => {
                    let (r, _rty) = self.expr(init);
                    let pty = scalar_ty(*ty);
                    let dst = self.emitter.un(Opcode::Mov, pty, r);
                    self.vars.insert(*var, (dst, pty));
                    self.cse.clear();
                }
                Stmt::Assign { var, value } => {
                    let (r, _) = self.expr(value);
                    let (_, pty) = *self.vars.get(var).unwrap_or(&(Reg(0), PtxType::F32));
                    let dst = self.emitter.un(Opcode::Mov, pty, r);
                    self.vars.insert(*var, (dst, pty));
                    self.cse.clear();
                }
                Stmt::Store {
                    space,
                    array,
                    index,
                    value,
                } => {
                    let (rv, vty) = self.expr(value);
                    let op = match space {
                        MemSpace::Global => Opcode::StGlobal,
                        MemSpace::Local => Opcode::StShared,
                    };
                    self.store_addr_and(*array, index, rv, op, vty);
                    self.cse.clear();
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let pred = self.pred(cond);
                    let l_else = self.emitter.label();
                    self.emitter.branch_if(pred, l_else);
                    self.flush(tree, mark);

                    let mut then_tree = CostTree::default();
                    let mut m2 = self.emitter.mark();
                    self.cse.clear();
                    self.block(then_blk, &mut then_tree, &mut m2);
                    self.flush(&mut then_tree, &mut m2);

                    let l_end = self.emitter.label();
                    let mut els_tree = CostTree::default();
                    if !else_blk.is_empty() {
                        self.emitter.branch(l_end);
                        // The unconditional jump out of `then` belongs
                        // to the then-arm's cost.
                        then_tree.flat += self.emitter.counts_since(m2);
                    }
                    self.emitter.place(l_else);
                    if !else_blk.is_empty() {
                        let mut m3 = self.emitter.mark();
                        self.cse.clear();
                        self.block(else_blk, &mut els_tree, &mut m3);
                        self.flush(&mut els_tree, &mut m3);
                        self.emitter.place(l_end);
                    }
                    tree.kids.push(CostNode::Branch {
                        then: then_tree,
                        els: els_tree,
                    });
                    *mark = self.emitter.mark();
                    self.cse.clear();
                }
                Stmt::For {
                    var,
                    lo,
                    hi,
                    step,
                    body,
                } => {
                    // Hoisted bound.
                    let (rhi, _) = self.expr(hi);
                    self.begin_loop(*var, lo, tree, mark);
                    let (ri, _) = self.vars[var];
                    let pred = self.emitter.bin(Opcode::Setp, PtxType::S32, ri, rhi);
                    let l_end = self.emitter.label();
                    self.emitter.branch_if(pred, l_end);
                    // Test instructions counted via `overhead` below,
                    // so rewind the mark over them.
                    let test_counts = self.emitter.counts_since(*mark);

                    let mut body_tree = CostTree::default();
                    let mut m2 = self.emitter.mark();
                    self.block(body, &mut body_tree, &mut m2);
                    self.flush(&mut body_tree, &mut m2);

                    // Increment + backedge.
                    let step_reg = self.emitter.mov_imm_i(PtxType::S32, *step);
                    self.emitter.bin(Opcode::Add, PtxType::S32, ri, step_reg);
                    let top2 = self.emitter.label();
                    self.emitter.branch(top2);
                    self.emitter.place(l_end);

                    let mut overhead = self.loop_overhead();
                    // Absorb the literal test/increment emission into
                    // the declared per-iteration overhead.
                    let _ = test_counts;
                    overhead.add_n(paccport_ptx::Category::DataMovement, 1);
                    tree.kids.push(CostNode::Loop {
                        var: *var,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        step: *step,
                        overhead,
                        body: body_tree,
                    });
                    *mark = self.emitter.mark();
                    self.cse.clear();
                }
                Stmt::Barrier => {
                    self.emitter
                        .emit_void(Opcode::BarSync, PtxType::U32, vec![Operand::ImmI(0)]);
                }
                Stmt::Atomic {
                    op,
                    array,
                    index,
                    value,
                } => {
                    let (rv, vty) = self.expr(value);
                    let opc = match op {
                        paccport_ir::ReduceOp::Add => Opcode::AtomAdd,
                        paccport_ir::ReduceOp::Max => Opcode::AtomMax,
                        paccport_ir::ReduceOp::Min => Opcode::AtomMin,
                    };
                    self.store_addr_and(*array, index, rv, opc, vty);
                    self.cse.clear();
                }
            }
        }
    }

    // ---------------------------------------------------------------
    // Addresses
    // ---------------------------------------------------------------

    fn store_addr_and(
        &mut self,
        array: ArrayId,
        index: &Expr,
        value: Reg,
        op: Opcode,
        vty: PtxType,
    ) {
        let addr = self.address(array, index, op == Opcode::StShared);
        self.emitter
            .emit_void(op, vty, vec![addr.into(), value.into()]);
    }

    /// Compute the byte address of `array[index]`.
    fn address(&mut self, array: ArrayId, index: &Expr, local: bool) -> Reg {
        let (idx, _) = self.expr(index);
        // offset = idx << log2(elem)  (all benchmark elements are 4- or
        // 8-byte; use shl as compilers do)
        let sh = self.emitter.mov_imm_i(PtxType::U32, 2);
        let off = self.emitter.bin(Opcode::Shl, PtxType::U64, idx, sh);
        if local {
            // Shared memory is addressed off an implicit base.
            return off;
        }
        let base = match self.bases.get(&array) {
            Some(b) => *b,
            None => {
                // Array appears only via this access (possible after
                // transforms); load its parameter on demand.
                let name = self.p.array(array).name.clone();
                let raw =
                    self.emitter
                        .emit(Opcode::LdParam, PtxType::U64, vec![Operand::Sym(name)]);
                self.bases.insert(array, raw);
                raw
            }
        };
        let base = if self.style.addr == AddrStyle::Naive {
            // Convert the generic pointer on every access.
            self.emitter.un(Opcode::CvtaToGlobal, PtxType::U64, base)
        } else {
            base
        };
        self.emitter.bin(Opcode::Add, PtxType::U64, base, off)
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    fn cse_lookup(&self, e: &Expr) -> Option<(Reg, PtxType)> {
        if self.style.addr != AddrStyle::Cse {
            return None;
        }
        self.cse
            .iter()
            .find(|(k, _, _)| k == e)
            .map(|(_, r, t)| (*r, *t))
    }

    fn cse_insert(&mut self, e: &Expr, r: Reg, t: PtxType) {
        if self.style.addr == AddrStyle::Cse && e.node_count() > 1 {
            self.cse.push((e.clone(), r, t));
        }
    }

    fn pred(&mut self, cond: &Expr) -> Reg {
        match cond {
            Expr::Cmp(_, _, _) => self.expr(cond).0,
            _ => {
                // Compare against zero.
                let (r, ty) = self.expr(cond);
                let zero = self.emitter.mov_imm_i(PtxType::S32, 0);
                let _ = ty;
                self.emitter.bin(Opcode::Setp, PtxType::S32, r, zero)
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> (Reg, PtxType) {
        if let Some(hit) = self.cse_lookup(e) {
            return hit;
        }
        let out = match e {
            Expr::FConst(v) => (self.emitter.mov_imm_f(*v), PtxType::F32),
            Expr::IConst(v) => (self.emitter.mov_imm_i(PtxType::S32, *v), PtxType::S32),
            Expr::BConst(v) => (
                self.emitter.mov_imm_i(PtxType::S32, *v as i64),
                PtxType::S32,
            ),
            Expr::Param(id) => {
                let r = match self.params.get(id) {
                    Some(r) => *r,
                    None => {
                        let name = self.p.param(*id).name.clone();
                        let r = self.emitter.emit(
                            Opcode::LdParam,
                            PtxType::S32,
                            vec![Operand::Sym(name)],
                        );
                        self.params.insert(*id, r);
                        r
                    }
                };
                (r, PtxType::S32)
            }
            Expr::Var(id) => *self.vars.get(id).unwrap_or(&(Reg(0), PtxType::S32)),
            Expr::Special(sv) => {
                if let Some(r) = self.specials.get(sv) {
                    (*r, PtxType::S32)
                } else {
                    let sreg = match sv {
                        SpecialVar::LocalId(0) => SpecialReg::TidX,
                        SpecialVar::LocalId(_) => SpecialReg::TidY,
                        SpecialVar::GroupId(0) => SpecialReg::CtaIdX,
                        SpecialVar::GroupId(_) => SpecialReg::CtaIdY,
                        SpecialVar::LocalSize(0) => SpecialReg::NTidX,
                        SpecialVar::LocalSize(_) => SpecialReg::NTidY,
                        SpecialVar::NumGroups(0) => SpecialReg::NCtaIdX,
                        SpecialVar::NumGroups(_) => SpecialReg::NCtaIdY,
                    };
                    let r = self
                        .emitter
                        .emit(Opcode::Mov, PtxType::U32, vec![Operand::Sreg(sreg)]);
                    self.specials.insert(*sv, r);
                    (r, PtxType::S32)
                }
            }
            Expr::Load {
                space,
                array,
                index,
            } => {
                let addr = self.address(*array, index, *space == MemSpace::Local);
                let (op, ty) = match space {
                    MemSpace::Global => (Opcode::LdGlobal, scalar_ty(self.p.array(*array).elem)),
                    MemSpace::Local => (Opcode::LdShared, PtxType::F32),
                };
                (self.emitter.emit(op, ty, vec![addr.into()]), ty)
            }
            Expr::Un(op, a) => {
                let (ra, ty) = self.expr(a);
                let (opc, oty) = match op {
                    UnOp::Neg => (Opcode::Neg, ty),
                    UnOp::Abs => (Opcode::Abs, ty),
                    UnOp::Rcp => (Opcode::Rcp, PtxType::F32),
                    UnOp::Sqrt => (Opcode::Sqrt, PtxType::F32),
                    UnOp::Not => (Opcode::Not, PtxType::Pred),
                    UnOp::Exp => (Opcode::Ex2, PtxType::F32),
                };
                (self.emitter.un(opc, oty, ra), oty)
            }
            Expr::Bin(op, a, b) => {
                let (ra, ta) = self.expr(a);
                let (rb, tb) = self.expr(b);
                let ty = join_ty(ta, tb);
                match op {
                    BinOp::Div if self.style.fastmath && ty == PtxType::F32 => {
                        let r = self.emitter.un(Opcode::Rcp, PtxType::F32, rb);
                        (self.emitter.bin(Opcode::Mul, ty, ra, r), ty)
                    }
                    _ => {
                        let opc = match op {
                            BinOp::Add => Opcode::Add,
                            BinOp::Sub => Opcode::Sub,
                            BinOp::Mul => Opcode::Mul,
                            BinOp::Div => Opcode::Div,
                            BinOp::Rem => Opcode::Rem,
                            BinOp::Min => Opcode::Min,
                            BinOp::Max => Opcode::Max,
                            BinOp::And => Opcode::And,
                            BinOp::Or => Opcode::Or,
                            BinOp::Shl => Opcode::Shl,
                            BinOp::Shr => Opcode::Shr,
                        };
                        (self.emitter.bin(opc, ty, ra, rb), ty)
                    }
                }
            }
            Expr::Cmp(_, a, b) => {
                let (ra, ta) = self.expr(a);
                let (rb, tb) = self.expr(b);
                let ty = join_ty(ta, tb);
                (self.emitter.bin(Opcode::Setp, ty, ra, rb), PtxType::Pred)
            }
            Expr::Fma(a, b, c) => {
                let (ra, _) = self.expr(a);
                let (rb, _) = self.expr(b);
                let (rc, _) = self.expr(c);
                (
                    self.emitter.emit(
                        Opcode::Fma,
                        PtxType::F32,
                        vec![ra.into(), rb.into(), rc.into()],
                    ),
                    PtxType::F32,
                )
            }
            Expr::Select(c, a, b) => {
                let rp = self.pred(c);
                let (ra, ta) = self.expr(a);
                let (rb, tb) = self.expr(b);
                let ty = join_ty(ta, tb);
                (
                    self.emitter
                        .emit(Opcode::Selp, ty, vec![ra.into(), rb.into(), rp.into()]),
                    ty,
                )
            }
            Expr::Cast(to, a) => {
                let (ra, _) = self.expr(a);
                let ty = scalar_ty(*to);
                (self.emitter.un(Opcode::Cvt, ty, ra), ty)
            }
        };
        self.cse_insert(e, out.0, out.1);
        out
    }
}

fn scalar_ty(s: Scalar) -> PtxType {
    match s {
        Scalar::F32 => PtxType::F32,
        Scalar::F64 => PtxType::F64,
        Scalar::I32 => PtxType::S32,
        Scalar::U32 | Scalar::Bool => PtxType::U32,
    }
}

fn join_ty(a: PtxType, b: PtxType) -> PtxType {
    use PtxType::*;
    match (a, b) {
        (F64, _) | (_, F64) => F64,
        (F32, _) | (_, F32) => F32,
        (U64, _) | (_, U64) => U64,
        (S32, _) | (_, S32) => S32,
        _ => a,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{ld, st, ParallelLoop, ProgramBuilder, E};
    use paccport_ir::{HostStmt, Intent};
    use paccport_ptx::Category;

    /// saxpy-like: y[i] = 2*x[i] + y[i].
    fn saxpy() -> (Program, Kernel) {
        let mut b = ProgramBuilder::new("saxpy");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "saxpy",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        (p, k)
    }

    #[test]
    fn lowering_emits_global_memory_ops() {
        let (p, k) = saxpy();
        let lk = lower_kernel(&p, &k, 1, &LoweringStyle::caps());
        let c = lk.ptx.counts();
        // Two loads + one store + one cvta per array (2 arrays).
        assert_eq!(c.get(Category::GlobalMemory), 2 + 1 + 2);
        assert!(c.get(Category::Arithmetic) >= 2);
    }

    #[test]
    fn naive_style_emits_more_instructions() {
        let (p, k) = saxpy();
        let caps = lower_kernel(&p, &k, 1, &LoweringStyle::caps());
        let pgi = lower_kernel(&p, &k, 1, &LoweringStyle::pgi());
        assert!(
            pgi.ptx.len() > caps.ptx.len(),
            "pgi {} <= caps {}",
            pgi.ptx.len(),
            caps.ptx.len()
        );
        // PGI re-does cvta per access: 3 accesses vs 2 arrays once.
        assert!(
            pgi.ptx.counts().get(Category::GlobalMemory)
                > caps.ptx.counts().get(Category::GlobalMemory)
        );
    }

    #[test]
    fn cse_reuses_repeated_index_arithmetic() {
        // a[i*n+j] = a[i*n+j] + a[i*n+j]: the i*n+j computation should
        // be emitted once under CSE and three times naively.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(n) * n, Intent::InOut);
        let i = b.var("i");
        let j = b.var("j");
        let idx = E::from(i) * n + j;
        let k = Kernel::simple(
            "k",
            vec![
                ParallelLoop::new(i, Expr::iconst(0), Expr::param(n)),
                ParallelLoop::new(j, Expr::iconst(0), Expr::param(n)),
            ],
            Block::new(vec![st(
                a,
                idx.clone(),
                ld(a, idx.clone()) + ld(a, idx.clone()),
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let caps = lower_kernel(&p, &k, 2, &LoweringStyle::caps());
        let pgi = lower_kernel(&p, &k, 2, &LoweringStyle::pgi());
        let d = |lk: &LoweredKernel| lk.ptx.counts().get(Category::Arithmetic);
        assert!(d(&pgi) > d(&caps));
    }

    #[test]
    fn cost_tree_matches_ptx_for_flat_bodies() {
        let (p, k) = saxpy();
        let lk = lower_kernel(&p, &k, 1, &LoweringStyle::caps());
        // prologue + body(static) + ret == full kernel counts.
        let mut total = lk.prologue;
        total += lk.cost.static_counts();
        let full = lk.ptx.counts();
        assert_eq!(
            total.get(Category::GlobalMemory),
            full.get(Category::GlobalMemory)
        );
        assert_eq!(
            total.get(Category::Arithmetic),
            full.get(Category::Arithmetic)
        );
    }

    #[test]
    fn serialized_inner_loop_appears_as_cost_node() {
        let (p, mut k) = saxpy();
        // Distribute rank 0 of 1 → whole loop serialized per thread.
        k.name = "serial".into();
        let lk = lower_kernel(&p, &k, 0, &LoweringStyle::pgi());
        assert_eq!(lk.cost.kids.len(), 1);
        assert!(matches!(lk.cost.kids[0], CostNode::Loop { .. }));
    }

    #[test]
    fn fastmath_replaces_div() {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, ld(a, i) / 3.0)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let mut style = LoweringStyle::caps();
        let before = lower_kernel(&p, &k, 1, &style);
        style.fastmath = true;
        let after = lower_kernel(&p, &k, 1, &style);
        let has_div = |lk: &LoweredKernel| {
            lk.ptx
                .body
                .iter()
                .filter_map(|i| i.as_inst())
                .any(|i| i.op == Opcode::Div)
        };
        assert!(has_div(&before));
        assert!(!has_div(&after));
    }

    #[test]
    fn stub_is_tiny() {
        let (p, k) = saxpy();
        let s = lower_stub(&p, &k);
        assert!(s.len() <= 6, "stub should be a few instructions");
    }

    #[test]
    fn grouped_body_emits_shared_and_barrier() {
        use paccport_ir::{st_local, GroupedBody, LocalArrayDecl};
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let body = GroupedBody {
            group_size: 64,
            locals: vec![LocalArrayDecl {
                name: "sdata".into(),
                elem: Scalar::F32,
                len: 64,
            }],
            phases: vec![
                Block::new(vec![st_local(
                    ArrayId(0),
                    E(Expr::Special(SpecialVar::LocalId(0))),
                    ld(a, i),
                )]),
                Block::new(vec![st(
                    a,
                    i,
                    paccport_ir::ld_local(ArrayId(0), E(Expr::Special(SpecialVar::LocalId(0)))),
                )]),
            ],
        };
        let k = Kernel {
            name: "g".into(),
            loops: vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            body: KernelBody::Grouped(body),
            locals: vec![],
            region_reduction: None,
            reduction: None,
            launch_hint: None,
        };
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let lk = lower_kernel(&p, &k, 1, &LoweringStyle::opencl());
        let c = lk.ptx.counts();
        assert!(c.get(Category::SharedMemory) >= 2);
        assert!(c.get(Category::Sync) >= 1);
    }
}
