//! On-disk wire format for compiled artifacts.
//!
//! Serializes a full [`CompiledProgram`] — IR program, PTX module,
//! kernel plans with their nested cost trees, diagnostics, options —
//! as one [`paccport_persist::wire`] token record, suitable for a
//! `BlobStore` entry. The workspace has no serialization framework,
//! so every type is encoded by hand.
//!
//! Two properties the cache layer depends on:
//!
//! * **Bit-exactness.** Floats travel as `to_bits()` hex, never
//!   through float formatting. (The PTX pretty-printer is lossy —
//!   `ImmF` immediates print at `f32` precision — so a format/parse
//!   round trip would *not* reproduce the artifact; this structural
//!   codec does.)
//! * **Self-verification.** The record embeds
//!   [`artifact_checksum`] computed
//!   at encode time, and [`decode_artifact`] recomputes it over the
//!   *decoded* value. Any codec defect, version skew, or corruption
//!   the store's CRC missed therefore surfaces as a decode error —
//!   which the cache treats as a miss and recompiles — never as a
//!   silently wrong artifact.
//!
//! The leading `paccport-artifact <version>` tokens version the
//! format; bump [`VERSION`] on any grammar change and old entries
//! read as absent (a cache miss), which is exactly the right failure
//! mode for a cache.

use paccport_ir::{
    expr::{BinOp, CmpOp, Expr, SpecialVar, UnOp},
    kernel::{
        AccDeviceType, DeviceTypeClause, GroupedBody, Kernel, KernelBody, LaunchHint, LoopClauses,
        ParallelLoop, ReduceOp, Reduction, RegionReduction,
    },
    program::{Dir, HostStmt, Program},
    stmt::{Block, Stmt},
    types::{
        ArrayDecl, ArrayId, Intent, LocalArrayDecl, MemSpace, ParamDecl, ParamId, Scalar, VarId,
    },
};
use paccport_persist::wire::{Reader, Writer};
use paccport_ptx::{
    instr::{Instruction, Item, LabelId, Operand, Reg, SpecialReg},
    isa::{Opcode, PtxType},
    kernel::{PtxKernel, PtxModule},
    CategoryCounts, CATEGORIES,
};

use crate::artifact::{
    CompiledProgram, Correctness, CostNode, CostTree, Diagnostic, DistSpec, ExecStrategy,
    KernelPlan, TransferPolicy,
};
use crate::cache::artifact_checksum;
use crate::options::{
    Backend, CompileOptions, CompilerId, DeviceKind, Flag, HostCompiler, QuirkSet,
};

/// Format name token leading every record.
pub const MAGIC: &str = "paccport-artifact";
/// Format version; bump on any grammar change.
pub const VERSION: u64 = 1;

type R<'a, 'b> = &'a mut Reader<'b>;

// ---------------------------------------------------------------------------
// Generic shapes
// ---------------------------------------------------------------------------

fn enc_vec<T>(w: &mut Writer, items: &[T], mut f: impl FnMut(&mut Writer, &T)) {
    w.u64(items.len() as u64);
    for it in items {
        f(w, it);
    }
}

fn dec_vec<T>(r: R, mut f: impl FnMut(R) -> Result<T, String>) -> Result<Vec<T>, String> {
    let n = r.usize()?;
    // Guard against a corrupt length token allocating gigabytes; real
    // artifacts have at most a few thousand elements per collection.
    if n > 1_000_000 {
        return Err(format!("implausible collection length {n}"));
    }
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(f(r)?);
    }
    Ok(out)
}

fn enc_opt<T>(w: &mut Writer, v: &Option<T>, f: impl FnOnce(&mut Writer, &T)) {
    match v {
        Some(x) => {
            w.word("s");
            f(w, x);
        }
        None => {
            w.word("n");
        }
    }
}

fn dec_opt<T>(r: R, f: impl FnOnce(R) -> Result<T, String>) -> Result<Option<T>, String> {
    match r.word()? {
        "s" => Ok(Some(f(r)?)),
        "n" => Ok(None),
        other => Err(format!("bad option tag `{other}`")),
    }
}

fn dec_u8(r: R) -> Result<u8, String> {
    let v = r.u64()?;
    u8::try_from(v).map_err(|_| format!("bad u8 `{v}`"))
}

// ---------------------------------------------------------------------------
// IR scalars and small enums
// ---------------------------------------------------------------------------

fn enc_scalar(w: &mut Writer, s: Scalar) {
    w.word(match s {
        Scalar::F32 => "f32",
        Scalar::F64 => "f64",
        Scalar::I32 => "i32",
        Scalar::U32 => "u32",
        Scalar::Bool => "bool",
    });
}

fn dec_scalar(r: R) -> Result<Scalar, String> {
    Ok(match r.word()? {
        "f32" => Scalar::F32,
        "f64" => Scalar::F64,
        "i32" => Scalar::I32,
        "u32" => Scalar::U32,
        "bool" => Scalar::Bool,
        other => return Err(format!("bad scalar `{other}`")),
    })
}

fn enc_space(w: &mut Writer, s: MemSpace) {
    w.word(match s {
        MemSpace::Global => "glob",
        MemSpace::Local => "loc",
    });
}

fn dec_space(r: R) -> Result<MemSpace, String> {
    Ok(match r.word()? {
        "glob" => MemSpace::Global,
        "loc" => MemSpace::Local,
        other => return Err(format!("bad memspace `{other}`")),
    })
}

fn enc_intent(w: &mut Writer, i: Intent) {
    w.word(match i {
        Intent::In => "in",
        Intent::Out => "out",
        Intent::InOut => "inout",
        Intent::Scratch => "scratch",
    });
}

fn dec_intent(r: R) -> Result<Intent, String> {
    Ok(match r.word()? {
        "in" => Intent::In,
        "out" => Intent::Out,
        "inout" => Intent::InOut,
        "scratch" => Intent::Scratch,
        other => return Err(format!("bad intent `{other}`")),
    })
}

fn enc_reduce_op(w: &mut Writer, op: ReduceOp) {
    w.word(match op {
        ReduceOp::Add => "add",
        ReduceOp::Max => "max",
        ReduceOp::Min => "min",
    });
}

fn dec_reduce_op(r: R) -> Result<ReduceOp, String> {
    Ok(match r.word()? {
        "add" => ReduceOp::Add,
        "max" => ReduceOp::Max,
        "min" => ReduceOp::Min,
        other => return Err(format!("bad reduce op `{other}`")),
    })
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

fn un_op_tag(op: UnOp) -> &'static str {
    match op {
        UnOp::Neg => "neg",
        UnOp::Abs => "abs",
        UnOp::Rcp => "rcp",
        UnOp::Sqrt => "sqrt",
        UnOp::Not => "not",
        UnOp::Exp => "exp",
    }
}

fn dec_un_op(r: R) -> Result<UnOp, String> {
    Ok(match r.word()? {
        "neg" => UnOp::Neg,
        "abs" => UnOp::Abs,
        "rcp" => UnOp::Rcp,
        "sqrt" => UnOp::Sqrt,
        "not" => UnOp::Not,
        "exp" => UnOp::Exp,
        other => return Err(format!("bad unary op `{other}`")),
    })
}

fn bin_op_tag(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
    }
}

fn dec_bin_op(r: R) -> Result<BinOp, String> {
    Ok(match r.word()? {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "rem" => BinOp::Rem,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "shl" => BinOp::Shl,
        "shr" => BinOp::Shr,
        other => return Err(format!("bad binary op `{other}`")),
    })
}

fn cmp_op_tag(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Eq => "eq",
        CmpOp::Ne => "ne",
        CmpOp::Lt => "lt",
        CmpOp::Le => "le",
        CmpOp::Gt => "gt",
        CmpOp::Ge => "ge",
    }
}

fn dec_cmp_op(r: R) -> Result<CmpOp, String> {
    Ok(match r.word()? {
        "eq" => CmpOp::Eq,
        "ne" => CmpOp::Ne,
        "lt" => CmpOp::Lt,
        "le" => CmpOp::Le,
        "gt" => CmpOp::Gt,
        "ge" => CmpOp::Ge,
        other => return Err(format!("bad compare op `{other}`")),
    })
}

fn enc_special(w: &mut Writer, s: SpecialVar) {
    match s {
        SpecialVar::LocalId(d) => w.word("lid").u64(d as u64),
        SpecialVar::GroupId(d) => w.word("gid").u64(d as u64),
        SpecialVar::LocalSize(d) => w.word("lsz").u64(d as u64),
        SpecialVar::NumGroups(d) => w.word("ngr").u64(d as u64),
    };
}

fn dec_special(r: R) -> Result<SpecialVar, String> {
    let tag = r.word()?.to_string();
    let d = dec_u8(r)?;
    Ok(match tag.as_str() {
        "lid" => SpecialVar::LocalId(d),
        "gid" => SpecialVar::GroupId(d),
        "lsz" => SpecialVar::LocalSize(d),
        "ngr" => SpecialVar::NumGroups(d),
        other => return Err(format!("bad special var `{other}`")),
    })
}

fn enc_expr(w: &mut Writer, e: &Expr) {
    match e {
        Expr::FConst(v) => {
            w.word("fc").f64(*v);
        }
        Expr::IConst(v) => {
            w.word("ic").i64(*v);
        }
        Expr::BConst(v) => {
            w.word("bc").bool(*v);
        }
        Expr::Param(ParamId(p)) => {
            w.word("par").u64(*p as u64);
        }
        Expr::Var(VarId(v)) => {
            w.word("var").u64(*v as u64);
        }
        Expr::Special(s) => {
            w.word("spec");
            enc_special(w, *s);
        }
        Expr::Load {
            space,
            array,
            index,
        } => {
            w.word("load");
            enc_space(w, *space);
            w.u64(array.0 as u64);
            enc_expr(w, index);
        }
        Expr::Un(op, a) => {
            w.word("un").word(un_op_tag(*op));
            enc_expr(w, a);
        }
        Expr::Bin(op, a, b) => {
            w.word("bin").word(bin_op_tag(*op));
            enc_expr(w, a);
            enc_expr(w, b);
        }
        Expr::Cmp(op, a, b) => {
            w.word("cmp").word(cmp_op_tag(*op));
            enc_expr(w, a);
            enc_expr(w, b);
        }
        Expr::Fma(a, b, c) => {
            w.word("fma");
            enc_expr(w, a);
            enc_expr(w, b);
            enc_expr(w, c);
        }
        Expr::Select(c, a, b) => {
            w.word("sel");
            enc_expr(w, c);
            enc_expr(w, a);
            enc_expr(w, b);
        }
        Expr::Cast(ty, a) => {
            w.word("cast");
            enc_scalar(w, *ty);
            enc_expr(w, a);
        }
    }
}

fn dec_expr(r: R) -> Result<Expr, String> {
    Ok(match r.word()? {
        "fc" => Expr::FConst(r.f64()?),
        "ic" => Expr::IConst(r.i64()?),
        "bc" => Expr::BConst(r.bool()?),
        "par" => Expr::Param(ParamId(r.u32()?)),
        "var" => Expr::Var(VarId(r.u32()?)),
        "spec" => Expr::Special(dec_special(r)?),
        "load" => Expr::Load {
            space: dec_space(r)?,
            array: ArrayId(r.u32()?),
            index: Box::new(dec_expr(r)?),
        },
        "un" => Expr::Un(dec_un_op(r)?, Box::new(dec_expr(r)?)),
        "bin" => Expr::Bin(
            dec_bin_op(r)?,
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
        ),
        "cmp" => Expr::Cmp(
            dec_cmp_op(r)?,
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
        ),
        "fma" => Expr::Fma(
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
        ),
        "sel" => Expr::Select(
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
            Box::new(dec_expr(r)?),
        ),
        "cast" => Expr::Cast(dec_scalar(r)?, Box::new(dec_expr(r)?)),
        other => return Err(format!("bad expr tag `{other}`")),
    })
}

// ---------------------------------------------------------------------------
// Statements and blocks
// ---------------------------------------------------------------------------

fn enc_stmt(w: &mut Writer, s: &Stmt) {
    match s {
        Stmt::Let { var, ty, init } => {
            w.word("let").u64(var.0 as u64);
            enc_scalar(w, *ty);
            enc_expr(w, init);
        }
        Stmt::Assign { var, value } => {
            w.word("asg").u64(var.0 as u64);
            enc_expr(w, value);
        }
        Stmt::Store {
            space,
            array,
            index,
            value,
        } => {
            w.word("st");
            enc_space(w, *space);
            w.u64(array.0 as u64);
            enc_expr(w, index);
            enc_expr(w, value);
        }
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => {
            w.word("if");
            enc_expr(w, cond);
            enc_block(w, then_blk);
            enc_block(w, else_blk);
        }
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => {
            w.word("for").u64(var.0 as u64);
            enc_expr(w, lo);
            enc_expr(w, hi);
            w.i64(*step);
            enc_block(w, body);
        }
        Stmt::Barrier => {
            w.word("bar");
        }
        Stmt::Atomic {
            op,
            array,
            index,
            value,
        } => {
            w.word("atom");
            enc_reduce_op(w, *op);
            w.u64(array.0 as u64);
            enc_expr(w, index);
            enc_expr(w, value);
        }
    }
}

fn dec_stmt(r: R) -> Result<Stmt, String> {
    Ok(match r.word()? {
        "let" => Stmt::Let {
            var: VarId(r.u32()?),
            ty: dec_scalar(r)?,
            init: dec_expr(r)?,
        },
        "asg" => Stmt::Assign {
            var: VarId(r.u32()?),
            value: dec_expr(r)?,
        },
        "st" => Stmt::Store {
            space: dec_space(r)?,
            array: ArrayId(r.u32()?),
            index: dec_expr(r)?,
            value: dec_expr(r)?,
        },
        "if" => Stmt::If {
            cond: dec_expr(r)?,
            then_blk: dec_block(r)?,
            else_blk: dec_block(r)?,
        },
        "for" => Stmt::For {
            var: VarId(r.u32()?),
            lo: dec_expr(r)?,
            hi: dec_expr(r)?,
            step: r.i64()?,
            body: dec_block(r)?,
        },
        "bar" => Stmt::Barrier,
        "atom" => Stmt::Atomic {
            op: dec_reduce_op(r)?,
            array: ArrayId(r.u32()?),
            index: dec_expr(r)?,
            value: dec_expr(r)?,
        },
        other => return Err(format!("bad stmt tag `{other}`")),
    })
}

fn enc_block(w: &mut Writer, b: &Block) {
    enc_vec(w, &b.0, enc_stmt);
}

fn dec_block(r: R) -> Result<Block, String> {
    Ok(Block(dec_vec(r, dec_stmt)?))
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

fn enc_device_type(w: &mut Writer, d: AccDeviceType) {
    w.word(match d {
        AccDeviceType::Nvidia => "nvidia",
        AccDeviceType::Radeon => "radeon",
        AccDeviceType::XeonPhi => "xeonphi",
    });
}

fn dec_device_type(r: R) -> Result<AccDeviceType, String> {
    Ok(match r.word()? {
        "nvidia" => AccDeviceType::Nvidia,
        "radeon" => AccDeviceType::Radeon,
        "xeonphi" => AccDeviceType::XeonPhi,
        other => return Err(format!("bad device type `{other}`")),
    })
}

fn enc_opt_u32(w: &mut Writer, v: &Option<u32>) {
    enc_opt(w, v, |w, x| {
        w.u64(*x as u64);
    });
}

fn dec_opt_u32(r: R) -> Result<Option<u32>, String> {
    dec_opt(r, |r| r.u32())
}

fn enc_clauses(w: &mut Writer, c: &LoopClauses) {
    w.bool(c.independent);
    enc_opt_u32(w, &c.gang);
    enc_opt_u32(w, &c.worker);
    enc_opt_u32(w, &c.vector);
    enc_opt_u32(w, &c.tile);
    enc_opt_u32(w, &c.unroll_jam);
    enc_vec(w, &c.device_overrides, |w, o| {
        enc_device_type(w, o.device);
        enc_opt_u32(w, &o.gang);
        enc_opt_u32(w, &o.worker);
        enc_opt_u32(w, &o.vector);
    });
}

fn dec_clauses(r: R) -> Result<LoopClauses, String> {
    Ok(LoopClauses {
        independent: r.bool()?,
        gang: dec_opt_u32(r)?,
        worker: dec_opt_u32(r)?,
        vector: dec_opt_u32(r)?,
        tile: dec_opt_u32(r)?,
        unroll_jam: dec_opt_u32(r)?,
        device_overrides: dec_vec(r, |r| {
            Ok(DeviceTypeClause {
                device: dec_device_type(r)?,
                gang: dec_opt_u32(r)?,
                worker: dec_opt_u32(r)?,
                vector: dec_opt_u32(r)?,
            })
        })?,
    })
}

fn enc_local_array(w: &mut Writer, d: &LocalArrayDecl) {
    w.str(&d.name);
    enc_scalar(w, d.elem);
    w.u64(d.len as u64);
}

fn dec_local_array(r: R) -> Result<LocalArrayDecl, String> {
    Ok(LocalArrayDecl {
        name: r.str()?,
        elem: dec_scalar(r)?,
        len: r.usize()?,
    })
}

fn enc_kernel(w: &mut Writer, k: &Kernel) {
    w.str(&k.name);
    enc_vec(w, &k.loops, |w, pl| {
        w.u64(pl.var.0 as u64);
        enc_expr(w, &pl.lo);
        enc_expr(w, &pl.hi);
        enc_clauses(w, &pl.clauses);
    });
    match &k.body {
        KernelBody::Simple(b) => {
            w.word("simple");
            enc_block(w, b);
        }
        KernelBody::Grouped(g) => {
            w.word("grouped").u64(g.group_size as u64);
            enc_vec(w, &g.locals, enc_local_array);
            enc_vec(w, &g.phases, enc_block);
        }
    }
    enc_vec(w, &k.locals, |w, (v, ty)| {
        w.u64(v.0 as u64);
        enc_scalar(w, *ty);
    });
    enc_opt(w, &k.region_reduction, |w, rr| {
        enc_reduce_op(w, rr.op);
        enc_expr(w, &rr.value);
        w.u64(rr.dest.0 as u64);
    });
    enc_opt(w, &k.reduction, |w, red| {
        enc_reduce_op(w, red.op);
        w.u64(red.acc.0 as u64);
    });
    enc_opt(w, &k.launch_hint, |w, h| {
        w.u64(h.local.0 as u64)
            .u64(h.local.1 as u64)
            .bool(h.two_d)
            .bool(h.group_per_iter);
    });
}

fn dec_kernel(r: R) -> Result<Kernel, String> {
    let name = r.str()?;
    let loops = dec_vec(r, |r| {
        Ok(ParallelLoop {
            var: VarId(r.u32()?),
            lo: dec_expr(r)?,
            hi: dec_expr(r)?,
            clauses: dec_clauses(r)?,
        })
    })?;
    let body = match r.word()? {
        "simple" => KernelBody::Simple(dec_block(r)?),
        "grouped" => KernelBody::Grouped(GroupedBody {
            group_size: r.u32()?,
            locals: dec_vec(r, dec_local_array)?,
            phases: dec_vec(r, dec_block)?,
        }),
        other => return Err(format!("bad kernel body tag `{other}`")),
    };
    let locals = dec_vec(r, |r| Ok((VarId(r.u32()?), dec_scalar(r)?)))?;
    let region_reduction = dec_opt(r, |r| {
        Ok(RegionReduction {
            op: dec_reduce_op(r)?,
            value: dec_expr(r)?,
            dest: ArrayId(r.u32()?),
        })
    })?;
    let reduction = dec_opt(r, |r| {
        Ok(Reduction {
            op: dec_reduce_op(r)?,
            acc: VarId(r.u32()?),
        })
    })?;
    let launch_hint = dec_opt(r, |r| {
        Ok(LaunchHint {
            local: (r.u32()?, r.u32()?),
            two_d: r.bool()?,
            group_per_iter: r.bool()?,
        })
    })?;
    Ok(Kernel {
        name,
        loops,
        body,
        locals,
        region_reduction,
        reduction,
        launch_hint,
    })
}

// ---------------------------------------------------------------------------
// Host statements and programs
// ---------------------------------------------------------------------------

fn enc_host_stmt(w: &mut Writer, s: &HostStmt) {
    match s {
        HostStmt::DataRegion { arrays, body } => {
            w.word("data");
            enc_vec(w, arrays, |w, a| {
                w.u64(a.0 as u64);
            });
            enc_vec(w, body, enc_host_stmt);
        }
        HostStmt::Launch(k) => {
            w.word("launch");
            enc_kernel(w, k);
        }
        HostStmt::HostLoop { var, lo, hi, body } => {
            w.word("hloop").u64(var.0 as u64);
            enc_expr(w, lo);
            enc_expr(w, hi);
            enc_vec(w, body, enc_host_stmt);
        }
        HostStmt::WhileFlag {
            flag,
            max_iters,
            body,
        } => {
            w.word("while").u64(flag.0 as u64).u64(*max_iters as u64);
            enc_vec(w, body, enc_host_stmt);
        }
        HostStmt::HostAssign { var, ty, value } => {
            w.word("hasg").u64(var.0 as u64);
            enc_scalar(w, *ty);
            enc_expr(w, value);
        }
        HostStmt::HostStore {
            array,
            index,
            value,
        } => {
            w.word("hst").u64(array.0 as u64);
            enc_expr(w, index);
            enc_expr(w, value);
        }
        HostStmt::Update { array, dir } => {
            w.word("upd").u64(array.0 as u64);
            w.word(match dir {
                Dir::ToDevice => "todev",
                Dir::ToHost => "tohost",
            });
        }
        HostStmt::EnterData { arrays } => {
            w.word("enter");
            enc_vec(w, arrays, |w, a| {
                w.u64(a.0 as u64);
            });
        }
        HostStmt::ExitData { arrays } => {
            w.word("exit");
            enc_vec(w, arrays, |w, a| {
                w.u64(a.0 as u64);
            });
        }
        HostStmt::HostCompute { label, instr } => {
            w.word("hcomp").str(label);
            enc_expr(w, instr);
        }
    }
}

fn dec_host_stmt(r: R) -> Result<HostStmt, String> {
    Ok(match r.word()? {
        "data" => HostStmt::DataRegion {
            arrays: dec_vec(r, |r| Ok(ArrayId(r.u32()?)))?,
            body: dec_vec(r, dec_host_stmt)?,
        },
        "launch" => HostStmt::Launch(dec_kernel(r)?),
        "hloop" => HostStmt::HostLoop {
            var: VarId(r.u32()?),
            lo: dec_expr(r)?,
            hi: dec_expr(r)?,
            body: dec_vec(r, dec_host_stmt)?,
        },
        "while" => HostStmt::WhileFlag {
            flag: ArrayId(r.u32()?),
            max_iters: r.u32()?,
            body: dec_vec(r, dec_host_stmt)?,
        },
        "hasg" => HostStmt::HostAssign {
            var: VarId(r.u32()?),
            ty: dec_scalar(r)?,
            value: dec_expr(r)?,
        },
        "hst" => HostStmt::HostStore {
            array: ArrayId(r.u32()?),
            index: dec_expr(r)?,
            value: dec_expr(r)?,
        },
        "upd" => HostStmt::Update {
            array: ArrayId(r.u32()?),
            dir: match r.word()? {
                "todev" => Dir::ToDevice,
                "tohost" => Dir::ToHost,
                other => return Err(format!("bad update dir `{other}`")),
            },
        },
        "enter" => HostStmt::EnterData {
            arrays: dec_vec(r, |r| Ok(ArrayId(r.u32()?)))?,
        },
        "exit" => HostStmt::ExitData {
            arrays: dec_vec(r, |r| Ok(ArrayId(r.u32()?)))?,
        },
        "hcomp" => HostStmt::HostCompute {
            label: r.str()?,
            instr: dec_expr(r)?,
        },
        other => return Err(format!("bad host stmt tag `{other}`")),
    })
}

fn enc_program(w: &mut Writer, p: &Program) {
    w.str(&p.name);
    enc_vec(w, &p.params, |w, d| {
        w.str(&d.name);
        enc_scalar(w, d.ty);
    });
    enc_vec(w, &p.arrays, |w, d| {
        w.str(&d.name);
        enc_scalar(w, d.elem);
        enc_expr(w, &d.len);
        enc_intent(w, d.intent);
    });
    enc_vec(w, &p.body, enc_host_stmt);
    enc_vec(w, &p.var_names, |w, s| {
        w.str(s);
    });
    enc_vec(w, &p.tags, |w, s| {
        w.str(s);
    });
}

fn dec_program(r: R) -> Result<Program, String> {
    Ok(Program {
        name: r.str()?,
        params: dec_vec(r, |r| {
            Ok(ParamDecl {
                name: r.str()?,
                ty: dec_scalar(r)?,
            })
        })?,
        arrays: dec_vec(r, |r| {
            Ok(ArrayDecl {
                name: r.str()?,
                elem: dec_scalar(r)?,
                len: dec_expr(r)?,
                intent: dec_intent(r)?,
            })
        })?,
        body: dec_vec(r, dec_host_stmt)?,
        var_names: dec_vec(r, |r| r.str())?,
        tags: dec_vec(r, |r| r.str())?,
    })
}

// ---------------------------------------------------------------------------
// PTX
// ---------------------------------------------------------------------------

fn enc_ptx_type(w: &mut Writer, t: PtxType) {
    w.word(t.suffix());
}

fn dec_ptx_type(r: R) -> Result<PtxType, String> {
    Ok(match r.word()? {
        "f32" => PtxType::F32,
        "f64" => PtxType::F64,
        "s32" => PtxType::S32,
        "u32" => PtxType::U32,
        "u64" => PtxType::U64,
        "pred" => PtxType::Pred,
        other => return Err(format!("bad ptx type `{other}`")),
    })
}

const OPCODES: [Opcode; 35] = [
    Opcode::Add,
    Opcode::Sub,
    Opcode::Mul,
    Opcode::Div,
    Opcode::Max,
    Opcode::Min,
    Opcode::Fma,
    Opcode::Mad,
    Opcode::Rcp,
    Opcode::Abs,
    Opcode::Neg,
    Opcode::Rem,
    Opcode::Sqrt,
    Opcode::Ex2,
    Opcode::Setp,
    Opcode::Selp,
    Opcode::Bra,
    Opcode::And,
    Opcode::Or,
    Opcode::Not,
    Opcode::Shl,
    Opcode::Shr,
    Opcode::Cvt,
    Opcode::Mov,
    Opcode::LdParam,
    Opcode::CvtaToGlobal,
    Opcode::LdGlobal,
    Opcode::StGlobal,
    Opcode::AtomAdd,
    Opcode::AtomMax,
    Opcode::AtomMin,
    Opcode::LdShared,
    Opcode::StShared,
    Opcode::BarSync,
    Opcode::Ret,
];

fn dec_opcode(r: R) -> Result<Opcode, String> {
    let tok = r.word()?;
    OPCODES
        .iter()
        .copied()
        .find(|op| op.mnemonic() == tok)
        .ok_or_else(|| format!("bad opcode `{tok}`"))
}

const SREGS: [SpecialReg; 8] = [
    SpecialReg::TidX,
    SpecialReg::TidY,
    SpecialReg::CtaIdX,
    SpecialReg::CtaIdY,
    SpecialReg::NTidX,
    SpecialReg::NTidY,
    SpecialReg::NCtaIdX,
    SpecialReg::NCtaIdY,
];

fn dec_sreg(r: R) -> Result<SpecialReg, String> {
    let tok = r.word()?;
    SREGS
        .iter()
        .copied()
        .find(|s| s.name() == tok)
        .ok_or_else(|| format!("bad special register `{tok}`"))
}

fn enc_operand(w: &mut Writer, o: &Operand) {
    match o {
        Operand::Reg(Reg(n)) => {
            w.word("r").u64(*n as u64);
        }
        Operand::ImmF(v) => {
            w.word("if").f64(*v);
        }
        Operand::ImmI(v) => {
            w.word("ii").i64(*v);
        }
        Operand::Sym(s) => {
            w.word("sym").str(s);
        }
        Operand::Label(LabelId(n)) => {
            w.word("lab").u64(*n as u64);
        }
        Operand::Sreg(s) => {
            w.word("sreg").word(s.name());
        }
    }
}

fn dec_operand(r: R) -> Result<Operand, String> {
    Ok(match r.word()? {
        "r" => Operand::Reg(Reg(r.u32()?)),
        "if" => Operand::ImmF(r.f64()?),
        "ii" => Operand::ImmI(r.i64()?),
        "sym" => Operand::Sym(r.str()?),
        "lab" => Operand::Label(LabelId(r.u32()?)),
        "sreg" => Operand::Sreg(dec_sreg(r)?),
        other => return Err(format!("bad operand tag `{other}`")),
    })
}

fn enc_item(w: &mut Writer, it: &Item) {
    match it {
        Item::Label(LabelId(n)) => {
            w.word("l").u64(*n as u64);
        }
        Item::Inst(i) => {
            w.word("i").word(i.op.mnemonic());
            enc_ptx_type(w, i.ty);
            enc_opt(w, &i.dst, |w, Reg(n)| {
                w.u64(*n as u64);
            });
            enc_vec(w, &i.srcs, enc_operand);
            enc_opt(w, &i.pred, |w, Reg(n)| {
                w.u64(*n as u64);
            });
        }
    }
}

fn dec_item(r: R) -> Result<Item, String> {
    Ok(match r.word()? {
        "l" => Item::Label(LabelId(r.u32()?)),
        "i" => Item::Inst(Instruction {
            op: dec_opcode(r)?,
            ty: dec_ptx_type(r)?,
            dst: dec_opt(r, |r| Ok(Reg(r.u32()?)))?,
            srcs: dec_vec(r, dec_operand)?,
            pred: dec_opt(r, |r| Ok(Reg(r.u32()?)))?,
        }),
        other => return Err(format!("bad item tag `{other}`")),
    })
}

fn enc_module(w: &mut Writer, m: &PtxModule) {
    w.str(&m.producer);
    enc_vec(w, &m.kernels, |w, k| {
        w.str(&k.name);
        enc_vec(w, &k.params, |w, s| {
            w.str(s);
        });
        enc_vec(w, &k.body, enc_item);
    });
}

fn dec_module(r: R) -> Result<PtxModule, String> {
    Ok(PtxModule {
        producer: r.str()?,
        kernels: dec_vec(r, |r| {
            Ok(PtxKernel {
                name: r.str()?,
                params: dec_vec(r, |r| r.str())?,
                body: dec_vec(r, dec_item)?,
            })
        })?,
    })
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

pub(crate) fn compiler_tag(c: CompilerId) -> &'static str {
    match c {
        CompilerId::Caps => "caps",
        CompilerId::Pgi => "pgi",
        CompilerId::OpenClHand => "ocl-hand",
        CompilerId::OpenArc => "openarc",
    }
}

fn dec_compiler(r: R) -> Result<CompilerId, String> {
    Ok(match r.word()? {
        "caps" => CompilerId::Caps,
        "pgi" => CompilerId::Pgi,
        "ocl-hand" => CompilerId::OpenClHand,
        "openarc" => CompilerId::OpenArc,
        other => return Err(format!("bad compiler `{other}`")),
    })
}

fn enc_flag(w: &mut Writer, f: &Flag) {
    match f {
        Flag::O4 => {
            w.word("o4");
        }
        Flag::Fast => {
            w.word("fast");
        }
        Flag::Mvect => {
            w.word("mvect");
        }
        Flag::Munroll => {
            w.word("munroll");
        }
        Flag::Msafeptr => {
            w.word("msafeptr");
        }
        Flag::FastMath => {
            w.word("fastmath");
        }
        Flag::PrecDivFalse => {
            w.word("precdiv");
        }
        Flag::CodeSm35 => {
            w.word("sm35");
        }
        Flag::ArchCompute35 => {
            w.word("arch35");
        }
        Flag::GridBlockSize(bx, by) => {
            w.word("gbs").u64(*bx as u64).u64(*by as u64);
        }
    }
}

fn dec_flag(r: R) -> Result<Flag, String> {
    Ok(match r.word()? {
        "o4" => Flag::O4,
        "fast" => Flag::Fast,
        "mvect" => Flag::Mvect,
        "munroll" => Flag::Munroll,
        "msafeptr" => Flag::Msafeptr,
        "fastmath" => Flag::FastMath,
        "precdiv" => Flag::PrecDivFalse,
        "sm35" => Flag::CodeSm35,
        "arch35" => Flag::ArchCompute35,
        "gbs" => Flag::GridBlockSize(r.u32()?, r.u32()?),
        other => return Err(format!("bad flag `{other}`")),
    })
}

fn enc_options(w: &mut Writer, o: &CompileOptions) {
    w.word(match o.backend {
        Backend::Cuda => "cuda",
        Backend::OpenCl => "opencl",
    });
    w.word(match o.target {
        DeviceKind::GpuK40 => "k40",
        DeviceKind::AmdGpu => "amd",
        DeviceKind::Mic5110P => "mic",
        DeviceKind::HostCpu => "host",
    });
    w.word(match o.host_compiler {
        HostCompiler::Gcc => "gcc",
        HostCompiler::Intel => "intel",
    });
    enc_vec(w, &o.flags, enc_flag);
    let q = &o.quirks;
    for b in [
        q.caps_default_gang1,
        q.caps_fake_unroll_success,
        q.caps_cuda_unroll_fails_on_accum,
        q.caps_tile_silent_on_nested,
        q.caps_reduction_perf_bug,
        q.caps_reduction_wrong_on_mic,
        q.caps_retransfer_in_dynamic_loops,
        q.pgi_conservative_indirection,
        q.pgi_locks_distribution,
        q.pgi_unroll_no_speedup,
        q.pgi_pointer_alias_sensitivity,
    ] {
        w.bool(b);
    }
}

fn dec_options(r: R) -> Result<CompileOptions, String> {
    let backend = match r.word()? {
        "cuda" => Backend::Cuda,
        "opencl" => Backend::OpenCl,
        other => return Err(format!("bad backend `{other}`")),
    };
    let target = match r.word()? {
        "k40" => DeviceKind::GpuK40,
        "amd" => DeviceKind::AmdGpu,
        "mic" => DeviceKind::Mic5110P,
        "host" => DeviceKind::HostCpu,
        other => return Err(format!("bad target `{other}`")),
    };
    let host_compiler = match r.word()? {
        "gcc" => HostCompiler::Gcc,
        "intel" => HostCompiler::Intel,
        other => return Err(format!("bad host compiler `{other}`")),
    };
    let flags = dec_vec(r, dec_flag)?;
    let quirks = QuirkSet {
        caps_default_gang1: r.bool()?,
        caps_fake_unroll_success: r.bool()?,
        caps_cuda_unroll_fails_on_accum: r.bool()?,
        caps_tile_silent_on_nested: r.bool()?,
        caps_reduction_perf_bug: r.bool()?,
        caps_reduction_wrong_on_mic: r.bool()?,
        caps_retransfer_in_dynamic_loops: r.bool()?,
        pgi_conservative_indirection: r.bool()?,
        pgi_locks_distribution: r.bool()?,
        pgi_unroll_no_speedup: r.bool()?,
        pgi_pointer_alias_sensitivity: r.bool()?,
    };
    Ok(CompileOptions {
        backend,
        target,
        host_compiler,
        flags,
        quirks,
    })
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

fn enc_counts(w: &mut Writer, c: &CategoryCounts) {
    for (_, v) in c.iter() {
        w.u64(v);
    }
}

fn dec_counts(r: R) -> Result<CategoryCounts, String> {
    let mut c = CategoryCounts::default();
    for cat in CATEGORIES {
        c.set(cat, r.u64()?);
    }
    Ok(c)
}

fn enc_cost_tree(w: &mut Writer, t: &CostTree) {
    enc_counts(w, &t.flat);
    w.u64(t.flat_ldst);
    enc_vec(w, &t.kids, |w, k| match k {
        CostNode::Loop {
            var,
            lo,
            hi,
            step,
            overhead,
            body,
        } => {
            w.word("loop").u64(var.0 as u64);
            enc_expr(w, lo);
            enc_expr(w, hi);
            w.i64(*step);
            enc_counts(w, overhead);
            enc_cost_tree(w, body);
        }
        CostNode::Branch { then, els } => {
            w.word("br");
            enc_cost_tree(w, then);
            enc_cost_tree(w, els);
        }
    });
}

fn dec_cost_tree(r: R) -> Result<CostTree, String> {
    Ok(CostTree {
        flat: dec_counts(r)?,
        flat_ldst: r.u64()?,
        kids: dec_vec(r, |r| {
            Ok(match r.word()? {
                "loop" => CostNode::Loop {
                    var: VarId(r.u32()?),
                    lo: dec_expr(r)?,
                    hi: dec_expr(r)?,
                    step: r.i64()?,
                    overhead: dec_counts(r)?,
                    body: dec_cost_tree(r)?,
                },
                "br" => CostNode::Branch {
                    then: dec_cost_tree(r)?,
                    els: dec_cost_tree(r)?,
                },
                other => return Err(format!("bad cost node tag `{other}`")),
            })
        })?,
    })
}

fn enc_dist(w: &mut Writer, d: &DistSpec) {
    match d {
        DistSpec::Sequential => {
            w.word("seq");
        }
        DistSpec::GangWorker { gang, worker } => {
            w.word("gw").u64(*gang as u64).u64(*worker as u64);
        }
        DistSpec::Gridify1D { bx, by } => {
            w.word("g1").u64(*bx as u64).u64(*by as u64);
        }
        DistSpec::Gridify2D { bx, by } => {
            w.word("g2").u64(*bx as u64).u64(*by as u64);
        }
        DistSpec::PgiAuto { vector } => {
            w.word("pgi").u64(*vector as u64);
        }
        DistSpec::NdRange { lx, ly, two_d } => {
            w.word("ndr").u64(*lx as u64).u64(*ly as u64).bool(*two_d);
        }
        DistSpec::Grouped { group_size } => {
            w.word("grp").u64(*group_size as u64);
        }
        DistSpec::GroupedPerIter { group_size } => {
            w.word("grpiter").u64(*group_size as u64);
        }
    }
}

fn dec_dist(r: R) -> Result<DistSpec, String> {
    Ok(match r.word()? {
        "seq" => DistSpec::Sequential,
        "gw" => DistSpec::GangWorker {
            gang: r.u32()?,
            worker: r.u32()?,
        },
        "g1" => DistSpec::Gridify1D {
            bx: r.u32()?,
            by: r.u32()?,
        },
        "g2" => DistSpec::Gridify2D {
            bx: r.u32()?,
            by: r.u32()?,
        },
        "pgi" => DistSpec::PgiAuto { vector: r.u32()? },
        "ndr" => DistSpec::NdRange {
            lx: r.u32()?,
            ly: r.u32()?,
            two_d: r.bool()?,
        },
        "grp" => DistSpec::Grouped {
            group_size: r.u32()?,
        },
        "grpiter" => DistSpec::GroupedPerIter {
            group_size: r.u32()?,
        },
        other => return Err(format!("bad dist tag `{other}`")),
    })
}

fn enc_plan(w: &mut Writer, p: &KernelPlan) {
    w.str(&p.kernel);
    w.word(match p.exec {
        ExecStrategy::DeviceParallel => "dp",
        ExecStrategy::DeviceSequential => "ds",
        ExecStrategy::HostSequential => "hs",
    });
    enc_dist(w, &p.dist);
    enc_counts(w, &p.prologue);
    enc_cost_tree(w, &p.cost);
    match &p.correctness {
        Correctness::Correct => {
            w.word("ok");
        }
        Correctness::Wrong { reason } => {
            w.word("wrong").str(reason);
        }
    }
    w.str(&p.config_label);
    w.f64(p.perf_penalty);
}

fn dec_plan(r: R) -> Result<KernelPlan, String> {
    Ok(KernelPlan {
        kernel: r.str()?,
        exec: match r.word()? {
            "dp" => ExecStrategy::DeviceParallel,
            "ds" => ExecStrategy::DeviceSequential,
            "hs" => ExecStrategy::HostSequential,
            other => return Err(format!("bad exec strategy `{other}`")),
        },
        dist: dec_dist(r)?,
        prologue: dec_counts(r)?,
        cost: dec_cost_tree(r)?,
        correctness: match r.word()? {
            "ok" => Correctness::Correct,
            "wrong" => Correctness::Wrong { reason: r.str()? },
            other => return Err(format!("bad correctness tag `{other}`")),
        },
        config_label: r.str()?,
        perf_penalty: r.f64()?,
    })
}

// ---------------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------------

/// Serialize a compiled artifact as one self-verifying token record.
pub fn encode_artifact(c: &CompiledProgram) -> String {
    let mut w = Writer::new();
    w.word(MAGIC).u64(VERSION);
    w.word(&format!("{:016x}", artifact_checksum(c)));
    w.word(compiler_tag(c.compiler));
    enc_options(&mut w, &c.options);
    enc_program(&mut w, &c.program);
    enc_module(&mut w, &c.module);
    enc_vec(&mut w, &c.plans, enc_plan);
    enc_vec(&mut w, &c.diagnostics, |w, d| {
        w.str(&d.kernel);
        w.str(&d.message);
    });
    w.word(match c.transfers {
        TransferPolicy::Resident => "resident",
        TransferPolicy::PerIteration => "periter",
    });
    w.finish()
}

/// Parse a record produced by [`encode_artifact`] and verify its
/// embedded checksum against the decoded value. Every failure mode —
/// truncation, garbling, version skew, or a codec defect — returns
/// `Err`, which callers treat as a cache miss.
pub fn decode_artifact(record: &str) -> Result<CompiledProgram, String> {
    let mut r = Reader::new(record);
    r.tag(MAGIC)?;
    let version = r.u64()?;
    if version != VERSION {
        return Err(format!("artifact format v{version}, expected v{VERSION}"));
    }
    let sum_tok = r.word()?;
    if sum_tok.len() != 16 {
        return Err(format!("bad checksum token `{sum_tok}`"));
    }
    let expected =
        u64::from_str_radix(sum_tok, 16).map_err(|_| format!("bad checksum token `{sum_tok}`"))?;

    let compiler = dec_compiler(&mut r)?;
    let options = dec_options(&mut r)?;
    let program = dec_program(&mut r)?;
    let module = dec_module(&mut r)?;
    let plans = dec_vec(&mut r, dec_plan)?;
    let diagnostics = dec_vec(&mut r, |r| {
        Ok(Diagnostic {
            kernel: r.str()?,
            message: r.str()?,
        })
    })?;
    let transfers = match r.word()? {
        "resident" => TransferPolicy::Resident,
        "periter" => TransferPolicy::PerIteration,
        other => return Err(format!("bad transfer policy `{other}`")),
    };
    r.end()?;

    let decoded = CompiledProgram {
        compiler,
        options,
        program,
        module,
        plans,
        diagnostics,
        transfers,
    };
    let actual = artifact_checksum(&decoded);
    if actual != expected {
        return Err(format!(
            "artifact checksum mismatch: stored {expected:016x}, decoded {actual:016x}"
        ));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{
        ld, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E,
    };

    fn saxpy(name: &str) -> Program {
        let mut b = ProgramBuilder::new(name);
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let k = Kernel::simple(
            "saxpy",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    fn assert_round_trips(c: &CompiledProgram, what: &str) {
        let rec = encode_artifact(c);
        assert!(!rec.contains('\n'), "{what}: record must be one line");
        let back = decode_artifact(&rec).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(&back, c, "{what}: decoded artifact differs");
        // Determinism: re-encoding the decoded value is byte-identical.
        assert_eq!(encode_artifact(&back), rec, "{what}: re-encode differs");
    }

    #[test]
    fn artifacts_round_trip_across_the_compiler_matrix() {
        let p = saxpy("saxpy");
        for (id, opts, what) in [
            (CompilerId::Caps, CompileOptions::gpu(), "caps/gpu"),
            (CompilerId::Caps, CompileOptions::amd(), "caps/amd"),
            (CompilerId::Caps, CompileOptions::mic(), "caps/mic"),
            (CompilerId::Pgi, CompileOptions::gpu(), "pgi/gpu"),
            (CompilerId::OpenClHand, CompileOptions::gpu(), "ocl/gpu"),
            (CompilerId::OpenArc, CompileOptions::gpu(), "openarc/gpu"),
        ] {
            let c = crate::compile(id, &p, &opts).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert_round_trips(&c, what);
        }
    }

    #[test]
    fn flags_and_grid_block_size_round_trip() {
        let p = saxpy("saxpy");
        let opts = CompileOptions::gpu()
            .with_flag(Flag::Munroll)
            .with_flag(Flag::GridBlockSize(32, 4))
            .with_host_compiler(HostCompiler::Intel);
        let c = crate::compile(CompilerId::Caps, &p, &opts).unwrap();
        assert_round_trips(&c, "caps with flags");
    }

    #[test]
    fn every_corruption_of_a_record_is_rejected_or_identical() {
        let c = crate::compile(CompilerId::Caps, &saxpy("saxpy"), &CompileOptions::gpu()).unwrap();
        let rec = encode_artifact(&c);
        // Truncations never decode.
        for cut in [0, 1, rec.len() / 2, rec.len() - 1] {
            assert!(decode_artifact(&rec[..cut]).is_err(), "cut at {cut}");
        }
        // Garbling any single byte either fails to decode or (for the
        // rare benign mutation, e.g. inside an escaped string that maps
        // back to the same value — which cannot happen with this
        // grammar, but the checksum is the backstop) decodes equal.
        let bytes = rec.as_bytes();
        for pos in (0..bytes.len()).step_by(7) {
            let mut m = bytes.to_vec();
            m[pos] ^= 0x01;
            let Ok(s) = String::from_utf8(m) else {
                continue;
            };
            match decode_artifact(&s) {
                Err(_) => {}
                Ok(back) => assert_eq!(back, c, "garble at {pos} decoded to a different artifact"),
            }
        }
    }

    #[test]
    fn checksum_distinguishes_artifacts() {
        let opts = CompileOptions::gpu();
        let a = crate::compile(CompilerId::Caps, &saxpy("a"), &opts).unwrap();
        let b = crate::compile(CompilerId::Caps, &saxpy("b"), &opts).unwrap();
        assert_eq!(artifact_checksum(&a), artifact_checksum(&a));
        assert_ne!(artifact_checksum(&a), artifact_checksum(&b));
    }

    #[test]
    fn version_skew_reads_as_a_miss() {
        let c = crate::compile(CompilerId::Caps, &saxpy("saxpy"), &CompileOptions::gpu()).unwrap();
        let rec = encode_artifact(&c);
        let skewed = rec.replacen(
            &format!("{MAGIC} {VERSION}"),
            &format!("{MAGIC} {}", VERSION + 1),
            1,
        );
        let err = decode_artifact(&skewed).unwrap_err();
        assert!(err.contains("format"), "{err}");
    }

    #[test]
    fn trailing_tokens_are_rejected() {
        let c = crate::compile(CompilerId::Pgi, &saxpy("saxpy"), &CompileOptions::gpu()).unwrap();
        let rec = format!("{} extra", encode_artifact(&c));
        assert!(decode_artifact(&rec).is_err());
    }
}
