//! Render a [`Case`] as a paste-ready `#[test]` function.
//!
//! When the driver shrinks a mismatch, the counterexample is only
//! useful if it survives the fuzzing session — so it is printed as
//! Rust source that rebuilds the exact program through
//! `ProgramBuilder` and re-asserts conformance. Promoting a fuzzer
//! find to a permanent regression test is a copy-paste.
//!
//! The printer favours explicit IR constructors (`Expr::Bin(...)`,
//! `Stmt::Store { ... }`) over the operator sugar: less pretty, but
//! total — every shape the generator and shrinker can produce prints
//! to code that compiles.

use crate::generate::Case;
use paccport_devsim::Buffer;
use paccport_ir::expr::Expr;
use paccport_ir::kernel::{Kernel, KernelBody, LoopClauses};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{Intent, MemSpace, Scalar};
use paccport_ir::HostStmt;

/// Render `case` as a self-contained `#[test]` fn that checks it.
pub fn case_to_test(case: &Case) -> String {
    let p = &case.program;
    let mut s = String::new();
    s.push_str("#[test]\n#[allow(unused_imports, unused_variables)]\n");
    s.push_str(&format!(
        "fn conformance_regression_s{}_i{}() {{\n",
        case.seed, case.index
    ));
    s.push_str("    use paccport_conformance::{assert_conforms, Case};\n");
    s.push_str("    use paccport_devsim::Buffer;\n");
    s.push_str("    use paccport_ir::builder::ProgramBuilder;\n");
    s.push_str("    use paccport_ir::expr::*;\n");
    s.push_str("    use paccport_ir::kernel::*;\n");
    s.push_str("    use paccport_ir::stmt::*;\n");
    s.push_str("    use paccport_ir::types::*;\n");
    s.push_str("    use paccport_ir::{Dir, HostStmt};\n\n");
    s.push_str(&format!(
        "    let mut b = ProgramBuilder::new({:?});\n",
        p.name
    ));
    for (i, pd) in p.params.iter().enumerate() {
        if pd.ty == Scalar::I32 {
            s.push_str(&format!("    let p{i} = b.iparam({:?});\n", pd.name));
        } else {
            s.push_str(&format!(
                "    let p{i} = b.param({:?}, {});\n",
                pd.name,
                scalar_src(pd.ty)
            ));
        }
    }
    for (i, ad) in p.arrays.iter().enumerate() {
        s.push_str(&format!(
            "    let a{i} = b.array({:?}, {}, {}, {});\n",
            ad.name,
            scalar_src(ad.elem),
            expr_src(&ad.len),
            intent_src(ad.intent)
        ));
    }
    for (i, name) in p.var_names.iter().enumerate() {
        s.push_str(&format!("    let v{i} = b.var({name:?});\n"));
    }
    s.push_str("\n    let program = b.finish(vec![\n");
    for h in &p.body {
        s.push_str(&host_src(h, 2));
        s.push_str(",\n");
    }
    s.push_str("    ]);\n");
    s.push_str("    let case = Case {\n");
    s.push_str(&format!("        seed: {},\n", case.seed));
    s.push_str(&format!("        index: {},\n", case.index));
    s.push_str("        program,\n");
    s.push_str("        params: vec![\n");
    for (name, v) in &case.params {
        s.push_str(&format!("            ({name:?}.to_string(), {v:?}),\n"));
    }
    s.push_str("        ],\n");
    s.push_str("        inputs: vec![\n");
    for (name, buf) in &case.inputs {
        s.push_str(&format!(
            "            ({name:?}.to_string(), {}),\n",
            buffer_src(buf)
        ));
    }
    s.push_str("        ],\n");
    s.push_str("    };\n");
    s.push_str("    assert_conforms(&case);\n");
    s.push_str("}\n");
    s
}

fn scalar_src(t: Scalar) -> &'static str {
    match t {
        Scalar::F32 => "Scalar::F32",
        Scalar::F64 => "Scalar::F64",
        Scalar::I32 => "Scalar::I32",
        Scalar::U32 => "Scalar::U32",
        Scalar::Bool => "Scalar::Bool",
    }
}

fn intent_src(i: Intent) -> &'static str {
    match i {
        Intent::In => "Intent::In",
        Intent::Out => "Intent::Out",
        Intent::InOut => "Intent::InOut",
        Intent::Scratch => "Intent::Scratch",
    }
}

fn space_src(sp: MemSpace) -> &'static str {
    match sp {
        MemSpace::Global => "MemSpace::Global",
        MemSpace::Local => "MemSpace::Local",
    }
}

fn expr_src(e: &Expr) -> String {
    match e {
        Expr::FConst(v) => format!("Expr::fconst({v:?})"),
        Expr::IConst(v) => format!("Expr::iconst({v})"),
        Expr::BConst(v) => format!("Expr::BConst({v})"),
        Expr::Param(p) => format!("Expr::param(p{})", p.0),
        Expr::Var(v) => format!("Expr::var(v{})", v.0),
        Expr::Special(sv) => format!("Expr::Special(SpecialVar::{sv:?})"),
        Expr::Load {
            space,
            array,
            index,
        } => format!(
            "Expr::Load {{ space: {}, array: a{}, index: Box::new({}) }}",
            space_src(*space),
            array.0,
            expr_src(index)
        ),
        Expr::Un(op, a) => format!("Expr::un(UnOp::{op:?}, {})", expr_src(a)),
        Expr::Bin(op, a, b) => {
            format!("Expr::bin(BinOp::{op:?}, {}, {})", expr_src(a), expr_src(b))
        }
        Expr::Cmp(op, a, b) => {
            format!("Expr::cmp(CmpOp::{op:?}, {}, {})", expr_src(a), expr_src(b))
        }
        Expr::Fma(a, b, c) => format!(
            "Expr::Fma(Box::new({}), Box::new({}), Box::new({}))",
            expr_src(a),
            expr_src(b),
            expr_src(c)
        ),
        Expr::Select(c, t, f) => format!(
            "Expr::Select(Box::new({}), Box::new({}), Box::new({}))",
            expr_src(c),
            expr_src(t),
            expr_src(f)
        ),
        Expr::Cast(t, a) => format!("Expr::Cast({}, Box::new({}))", scalar_src(*t), expr_src(a)),
    }
}

fn ind(depth: usize) -> String {
    "    ".repeat(depth)
}

fn stmt_src(s: &Stmt, d: usize) -> String {
    let i0 = ind(d);
    match s {
        Stmt::Let { var, ty, init } => format!(
            "{i0}Stmt::Let {{ var: v{}, ty: {}, init: {} }}",
            var.0,
            scalar_src(*ty),
            expr_src(init)
        ),
        Stmt::Assign { var, value } => format!(
            "{i0}Stmt::Assign {{ var: v{}, value: {} }}",
            var.0,
            expr_src(value)
        ),
        Stmt::Store {
            space,
            array,
            index,
            value,
        } => format!(
            "{i0}Stmt::Store {{ space: {}, array: a{}, index: {}, value: {} }}",
            space_src(*space),
            array.0,
            expr_src(index),
            expr_src(value)
        ),
        Stmt::If {
            cond,
            then_blk,
            else_blk,
        } => format!(
            "{i0}Stmt::If {{ cond: {}, then_blk: {}, else_blk: {} }}",
            expr_src(cond),
            block_src(then_blk, d + 1),
            block_src(else_blk, d + 1)
        ),
        Stmt::For {
            var,
            lo,
            hi,
            step,
            body,
        } => format!(
            "{i0}Stmt::For {{ var: v{}, lo: {}, hi: {}, step: {step}, body: {} }}",
            var.0,
            expr_src(lo),
            expr_src(hi),
            block_src(body, d + 1)
        ),
        Stmt::Barrier => format!("{i0}Stmt::Barrier"),
        Stmt::Atomic {
            op,
            array,
            index,
            value,
        } => format!(
            "{i0}Stmt::Atomic {{ op: ReduceOp::{op:?}, array: a{}, index: {}, value: {} }}",
            array.0,
            expr_src(index),
            expr_src(value)
        ),
    }
}

fn block_src(b: &Block, d: usize) -> String {
    if b.0.is_empty() {
        return "Block(vec![])".to_string();
    }
    let mut s = String::from("Block(vec![\n");
    for st in &b.0 {
        s.push_str(&stmt_src(st, d + 1));
        s.push_str(",\n");
    }
    s.push_str(&format!("{}])", ind(d)));
    s
}

fn clauses_src(c: &LoopClauses) -> String {
    if *c == LoopClauses::default() {
        return "LoopClauses::default()".to_string();
    }
    let overrides = c
        .device_overrides
        .iter()
        .map(|o| {
            format!(
                "DeviceTypeClause {{ device: AccDeviceType::{:?}, gang: {:?}, worker: {:?}, vector: {:?} }}",
                o.device, o.gang, o.worker, o.vector
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "LoopClauses {{ independent: {}, gang: {:?}, worker: {:?}, vector: {:?}, tile: {:?}, unroll_jam: {:?}, device_overrides: vec![{overrides}] }}",
        c.independent, c.gang, c.worker, c.vector, c.tile, c.unroll_jam
    )
}

fn kernel_src(k: &Kernel, d: usize) -> String {
    let i0 = ind(d);
    let i1 = ind(d + 1);
    let mut s = format!("Kernel {{\n{i1}name: {:?}.to_string(),\n", k.name);
    s.push_str(&format!("{i1}loops: vec![\n"));
    for lp in &k.loops {
        s.push_str(&format!(
            "{}ParallelLoop {{ var: v{}, lo: {}, hi: {}, clauses: {} }},\n",
            ind(d + 2),
            lp.var.0,
            expr_src(&lp.lo),
            expr_src(&lp.hi),
            clauses_src(&lp.clauses)
        ));
    }
    s.push_str(&format!("{i1}],\n"));
    match &k.body {
        KernelBody::Simple(b) => {
            s.push_str(&format!(
                "{i1}body: KernelBody::Simple({}),\n",
                block_src(b, d + 1)
            ));
        }
        KernelBody::Grouped(g) => {
            s.push_str(&format!("{i1}body: KernelBody::Grouped(GroupedBody {{\n"));
            s.push_str(&format!("{}group_size: {},\n", ind(d + 2), g.group_size));
            s.push_str(&format!("{}locals: vec![\n", ind(d + 2)));
            for l in &g.locals {
                s.push_str(&format!(
                    "{}LocalArrayDecl {{ name: {:?}.to_string(), elem: {}, len: {} }},\n",
                    ind(d + 3),
                    l.name,
                    scalar_src(l.elem),
                    l.len
                ));
            }
            s.push_str(&format!("{}],\n", ind(d + 2)));
            s.push_str(&format!("{}phases: vec![\n", ind(d + 2)));
            for ph in &g.phases {
                s.push_str(&format!("{}{},\n", ind(d + 3), block_src(ph, d + 3)));
            }
            s.push_str(&format!("{}],\n", ind(d + 2)));
            s.push_str(&format!("{i1}}}),\n"));
        }
    }
    s.push_str(&format!(
        "{i1}locals: vec![{}],\n",
        k.locals
            .iter()
            .map(|(v, t)| format!("(v{}, {})", v.0, scalar_src(*t)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    match &k.region_reduction {
        Some(rr) => s.push_str(&format!(
            "{i1}region_reduction: Some(RegionReduction {{ op: ReduceOp::{:?}, value: {}, dest: a{} }}),\n",
            rr.op,
            expr_src(&rr.value),
            rr.dest.0
        )),
        None => s.push_str(&format!("{i1}region_reduction: None,\n")),
    }
    match &k.reduction {
        Some(r) => s.push_str(&format!(
            "{i1}reduction: Some(Reduction {{ op: ReduceOp::{:?}, acc: v{} }}),\n",
            r.op, r.acc.0
        )),
        None => s.push_str(&format!("{i1}reduction: None,\n")),
    }
    s.push_str(&format!("{i1}launch_hint: None,\n"));
    s.push_str(&format!("{i0}}}"));
    s
}

fn host_src(h: &HostStmt, d: usize) -> String {
    let i0 = ind(d);
    match h {
        HostStmt::Launch(k) => format!("{i0}HostStmt::Launch({})", kernel_src(k, d)),
        HostStmt::DataRegion { arrays, body } => {
            let mut s = format!(
                "{i0}HostStmt::DataRegion {{ arrays: vec![{}], body: vec![\n",
                arrays
                    .iter()
                    .map(|a| format!("a{}", a.0))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            for b in body {
                s.push_str(&host_src(b, d + 1));
                s.push_str(",\n");
            }
            s.push_str(&format!("{i0}] }}"));
            s
        }
        HostStmt::HostLoop { var, lo, hi, body } => {
            let mut s = format!(
                "{i0}HostStmt::HostLoop {{ var: v{}, lo: {}, hi: {}, body: vec![\n",
                var.0,
                expr_src(lo),
                expr_src(hi)
            );
            for b in body {
                s.push_str(&host_src(b, d + 1));
                s.push_str(",\n");
            }
            s.push_str(&format!("{i0}] }}"));
            s
        }
        HostStmt::WhileFlag {
            flag,
            max_iters,
            body,
        } => {
            let mut s = format!(
                "{i0}HostStmt::WhileFlag {{ flag: a{}, max_iters: {max_iters}, body: vec![\n",
                flag.0
            );
            for b in body {
                s.push_str(&host_src(b, d + 1));
                s.push_str(",\n");
            }
            s.push_str(&format!("{i0}] }}"));
            s
        }
        HostStmt::HostAssign { var, ty, value } => format!(
            "{i0}HostStmt::HostAssign {{ var: v{}, ty: {}, value: {} }}",
            var.0,
            scalar_src(*ty),
            expr_src(value)
        ),
        HostStmt::HostStore {
            array,
            index,
            value,
        } => format!(
            "{i0}HostStmt::HostStore {{ array: a{}, index: {}, value: {} }}",
            array.0,
            expr_src(index),
            expr_src(value)
        ),
        HostStmt::Update { array, dir } => format!(
            "{i0}HostStmt::Update {{ array: a{}, dir: Dir::{dir:?} }}",
            array.0
        ),
        HostStmt::EnterData { arrays } => format!(
            "{i0}HostStmt::EnterData {{ arrays: vec![{}] }}",
            arrays
                .iter()
                .map(|a| format!("a{}", a.0))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        HostStmt::ExitData { arrays } => format!(
            "{i0}HostStmt::ExitData {{ arrays: vec![{}] }}",
            arrays
                .iter()
                .map(|a| format!("a{}", a.0))
                .collect::<Vec<_>>()
                .join(", ")
        ),
        HostStmt::HostCompute { label, instr } => format!(
            "{i0}HostStmt::HostCompute {{ label: {label:?}.to_string(), instr: {} }}",
            expr_src(instr)
        ),
    }
}

fn buffer_src(b: &Buffer) -> String {
    match b {
        Buffer::F32(v) => format!("Buffer::F32(vec!{v:?})"),
        Buffer::F64(v) => format!("Buffer::F64(vec!{v:?})"),
        Buffer::I32(v) => format!("Buffer::I32(vec!{v:?})"),
        Buffer::U32(v) => format!("Buffer::U32(vec!{v:?})"),
        Buffer::Bool(v) => format!("Buffer::Bool(vec!{v:?})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;

    #[test]
    fn printed_test_mentions_every_array_and_param() {
        let case = generate(42, 0);
        let src = case_to_test(&case);
        assert!(src.contains("assert_conforms(&case);"));
        assert!(src.contains("ProgramBuilder::new"));
        for pd in &case.program.params {
            assert!(
                src.contains(&format!("{:?}", pd.name)),
                "missing {}",
                pd.name
            );
        }
        for ad in &case.program.arrays {
            assert!(
                src.contains(&format!("{:?}", ad.name)),
                "missing {}",
                ad.name
            );
        }
    }

    #[test]
    fn printer_is_deterministic() {
        let case = generate(42, 3);
        assert_eq!(case_to_test(&case), case_to_test(&case));
    }
}
