//! The kernel and block queries every crate asks instead of walking the
//! IR itself: which blocks a kernel has, which expressions it holds and
//! in what order, which global arrays it reads and writes, and which
//! variables a block binds.

use std::collections::BTreeSet;

use paccport_ir::{
    assign, for_, if_else, ld, ld_local, let_, st, st_local, ArrayId, Block, Expr, GroupedBody,
    Intent, Kernel, KernelBody, LocalArrayDecl, ParallelLoop, ProgramBuilder, ReduceOp,
    RegionReduction, Scalar, SpecialVar, Stmt, VarId, E,
};

fn ids(v: &[u32]) -> BTreeSet<ArrayId> {
    v.iter().map(|&i| ArrayId(i)).collect()
}

fn vars(v: &[VarId]) -> BTreeSet<VarId> {
    v.iter().copied().collect()
}

#[test]
fn grouped_kernel_counts_global_traffic_only() {
    let mut b = ProgramBuilder::new("grouped");
    let n = b.iparam("n");
    // Array 0 shares its id with the kernel's local tile, and the
    // kernel never touches it.
    let _spare = b.array("spare", Scalar::F32, n, Intent::In);
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::Out);
    let h = b.array("h", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let tile = ArrayId(0);
    let lid = || E::from(Expr::Special(SpecialVar::LocalId(0)));
    let phases = vec![
        Block::new(vec![st_local(tile, lid(), ld(x, i))]),
        Block::new(vec![
            st(y, i, ld_local(tile, lid())),
            Stmt::Atomic {
                op: ReduceOp::Add,
                array: h,
                index: Expr::iconst(0),
                value: Expr::fconst(1.0),
            },
        ]),
    ];
    let mut k = Kernel {
        body: KernelBody::Grouped(GroupedBody {
            group_size: 4,
            locals: vec![LocalArrayDecl {
                name: "tile".into(),
                elem: Scalar::F32,
                len: 4,
            }],
            phases,
        }),
        ..Kernel::simple(
            "grouped",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::default(),
        )
    };

    assert_eq!(k.blocks().len(), 2);
    let (reads, writes) = k.global_reads_writes();
    assert_eq!(reads, ids(&[1]));
    assert_eq!(writes, ids(&[2, 3]));
    assert_eq!(k.global_arrays(), ids(&[1, 2, 3]));

    // `blocks_mut` reaches the phases themselves.
    k.blocks_mut()[1].0.push(st(ArrayId(0), i, 0.0));
    assert_eq!(k.global_reads_writes().1, ids(&[0, 2, 3]));
}

#[test]
fn simple_kernel_reads_its_bounds_and_reduction_value() {
    let mut b = ProgramBuilder::new("simple");
    let n = b.iparam("n");
    let bound = b.array("bound", Scalar::I32, n, Intent::In);
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::Out);
    let z = b.array("z", Scalar::F32, n, Intent::In);
    let sum = b.array("sum", Scalar::F32, n, Intent::Out);
    let i = b.var("i");
    let mut k = Kernel::simple(
        "simple",
        vec![ParallelLoop::new(i, Expr::iconst(0), ld(bound, 0).expr())],
        Block::new(vec![st(y, i, ld(x, i))]),
    );
    k.region_reduction = Some(RegionReduction {
        op: ReduceOp::Add,
        value: ld(z, i).expr(),
        dest: sum,
    });

    assert_eq!(k.blocks().len(), 1);
    let (reads, writes) = k.global_reads_writes();
    assert_eq!(reads, ids(&[0, 1, 3]));
    assert_eq!(writes, ids(&[2, 4]));
    assert_eq!(k.global_arrays(), ids(&[0, 1, 2, 3, 4]));
}

#[test]
fn block_variable_queries_see_nested_if_and_for() {
    let mut b = ProgramBuilder::new("vars");
    let [a, j, c, d, t, k] = ["a", "j", "c", "d", "t", "k"].map(|s| b.var(s));
    // let a = 0
    // for j in 0..4 {
    //   a = a + j
    //   if j < 2 { let t = 1; for k in 0..j { c = k } } else { d = 2 }
    // }
    let blk = Block::new(vec![
        let_(a, Scalar::I32, 0),
        for_(
            j,
            0,
            4,
            vec![
                assign(a, E::from(a) + j),
                if_else(
                    E::from(j).lt(2),
                    vec![let_(t, Scalar::I32, 1), for_(k, 0, j, vec![assign(c, k)])],
                    vec![assign(d, 2)],
                ),
            ],
        ),
    ]);
    assert_eq!(blk.assigned_vars(), vars(&[a, c, d]));
    assert_eq!(blk.let_vars(), vars(&[a, t]));
    assert_eq!(blk.for_vars(), vars(&[j, k]));
}

#[test]
fn expression_queries() {
    let p = paccport_ir::ParamId(0);
    let lid = Expr::Special(SpecialVar::LocalId(0));
    assert!(!Expr::param(p).reads_memory());
    assert!(ld_local(ArrayId(0), 0).expr().reads_memory());
    assert!((E::from(p) * 2 + 1).expr().reads_only_params());
    for e in [Expr::var(VarId(0)), ld(ArrayId(0), 0).expr(), lid] {
        assert!(!Expr::un(paccport_ir::UnOp::Neg, e).reads_only_params());
    }
}

/// `walk_exprs` visits the loop bounds (each level's `lo`, then `hi`),
/// then the blocks' statements in pre-order, then the region-reduction
/// value, each expression in pre-order. The bytecode compiler pools
/// constants in this order, so it is pinned.
#[test]
fn walk_exprs_visits_bounds_then_blocks_then_reduction() {
    let mut b = ProgramBuilder::new("order");
    let n = b.iparam("n");
    let m = b.iparam("m");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::Out);
    let sum = b.array("sum", Scalar::F32, n, Intent::Out);
    let [i, j, t] = ["i", "j", "t"].map(|s| b.var(s));
    let mut k = Kernel::simple(
        "order",
        vec![
            ParallelLoop::new(i, Expr::iconst(0), Expr::param(n)),
            ParallelLoop::new(j, Expr::iconst(1), Expr::var(i)),
        ],
        Block::new(vec![
            let_(t, Scalar::F32, ld(x, j)),
            st(y, i, E::from(t) + 2.5),
        ]),
    );
    k.region_reduction = Some(RegionReduction {
        op: ReduceOp::Max,
        value: Expr::param(m),
        dest: sum,
    });
    let mut seen = Vec::new();
    k.walk_exprs(&mut |e| {
        seen.push(match e {
            Expr::IConst(v) => v.to_string(),
            Expr::FConst(v) => format!("{v:?}"),
            Expr::Param(p) => format!("p{}", p.0),
            Expr::Var(v) => format!("v{}", v.0),
            Expr::Load { array, .. } => format!("ld{}", array.0),
            Expr::Bin(op, ..) => format!("{op:?}"),
            other => panic!("unexpected node {other:?}"),
        })
    });
    let want = [
        "0", "p0", "1", "v0", // bounds of i, then of j
        "ld0", "v1", // let t = x[j]
        "v0", "Add", "v2", "2.5", // y[i] = t + 2.5
        "p1",  // reduction value
    ];
    assert_eq!(seen, want);
}
