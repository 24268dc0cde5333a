//! Shrunk reproducers of past miscompiles, pinned as conformance
//! regressions exactly as `reproduce conform` printed them.
//!
//! `reduction_to_grouped` once accepted loops that are not sums: a
//! non-zero `init`, which every lane of the work-group adds once, and
//! a term that reads the accumulator (seed 5, program 214 has both).
//! The transform leg then diverged from the oracle on seeds 5, 6, 8
//! and 13 of `reproduce conform --programs 300`.
//!
//! The bytecode VM's batch compiler once pooled a constant at its
//! first use, so a constant first used inside a sequential loop that
//! ran zero times was never loaded: a later loop assigning the same
//! constant stored a zero instead. The unroll transform's main and
//! remainder loops make that shape, and `transform/unroll(x3)` diverged
//! on seeds 42, 5 and 7; three tests pin one shrunk case per seed.
//!
//! Seed 22, program 270 overflows to NaN and stores it into an f32
//! array. The oracle and the tree-walker stored `0xffc00000` there and
//! the bytecode VM `0x7fc00000`, because the sign of a NaN is left to
//! code generation; every f32 store now writes one canonical NaN. The
//! last test pins the shrunk case.

#[test]
#[allow(unused_variables)]
fn conformance_regression_s5_i214() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::HostStmt;

    let mut b = ProgramBuilder::new("gen_214");
    let p0 = b.iparam("n");
    let p1 = b.param("alpha", Scalar::F32);
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array(
        "z",
        Scalar::F32,
        Expr::bin(BinOp::Mul, Expr::param(p0), Expr::param(p0)),
        Intent::In,
    );
    let a3 = b.array("w", Scalar::F32, Expr::param(p0), Intent::Out);
    let a4 = b.array("m", Scalar::I32, Expr::param(p0), Intent::InOut);
    let a5 = b.array("idx", Scalar::I32, Expr::param(p0), Intent::In);
    let a6 = b.array("flag", Scalar::I32, Expr::iconst(1), Intent::InOut);
    let v0 = b.var("i_k1");
    let v1 = b.var("j_k1");
    let v2 = b.var("c_cd2");
    let v3 = b.var("i_k3");
    let v4 = b.var("t0_k3");
    let v5 = b.var("kv0_k3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "k3".to_string(),
        loops: vec![ParallelLoop {
            var: v3,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses::default(),
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v4,
                ty: Scalar::F32,
                init: Expr::fconst(2.0),
            },
            Stmt::For {
                var: v5,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v4,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::var(v4),
                        Expr::bin(
                            BinOp::Add,
                            Expr::Load {
                                space: MemSpace::Global,
                                array: a2,
                                index: Box::new(Expr::bin(
                                    BinOp::Add,
                                    Expr::bin(BinOp::Mul, Expr::var(v3), Expr::param(p0)),
                                    Expr::var(v5),
                                )),
                            },
                            Expr::var(v4),
                        ),
                    ),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a1,
                index: Expr::iconst(0),
                value: Expr::var(v4),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 5,
        index: 214,
        program,
        params: vec![("n".to_string(), 4.0), ("alpha".to_string(), 2.5)],
        inputs: vec![
            ("x".to_string(), Buffer::F32(vec![4.0, 8.0, 4.0, 1.0])),
            ("y".to_string(), Buffer::F32(vec![2.0, 1.0, 2.0, 2.0])),
            (
                "z".to_string(),
                Buffer::F32(vec![
                    4.0, 3.0, 1.0, 2.0, 7.0, 4.0, 1.0, 7.0, 8.0, 4.0, 7.0, 6.0, 1.0, 6.0, 5.0, 7.0,
                ]),
            ),
            ("m".to_string(), Buffer::I32(vec![6, 1, 6, 5])),
            ("idx".to_string(), Buffer::I32(vec![3, 2, 2, 1])),
            ("flag".to_string(), Buffer::I32(vec![2])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_variables)]
fn conformance_regression_s6_i286() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::HostStmt;

    let mut b = ProgramBuilder::new("gen_286");
    let p0 = b.iparam("n");
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array(
        "z",
        Scalar::F32,
        Expr::bin(BinOp::Mul, Expr::param(p0), Expr::param(p0)),
        Intent::InOut,
    );
    let a3 = b.array("m", Scalar::I32, Expr::param(p0), Intent::InOut);
    let a4 = b.array("r", Scalar::F32, Expr::iconst(1), Intent::Out);
    let v0 = b.var("t");
    let v1 = b.var("i_k1");
    let v2 = b.var("t0_k1");
    let v3 = b.var("i_k2");
    let v4 = b.var("t0_k2");
    let v5 = b.var("t1_k2");
    let v6 = b.var("i_k3");
    let v7 = b.var("t0_k3");
    let v8 = b.var("kv0_k3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "k3".to_string(),
        loops: vec![ParallelLoop {
            var: v6,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses::default(),
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v7,
                ty: Scalar::F32,
                init: Expr::fconst(2.0),
            },
            Stmt::For {
                var: v8,
                lo: Expr::iconst(0),
                hi: Expr::iconst(4),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v7,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::var(v7),
                        Expr::bin(
                            BinOp::Div,
                            Expr::Load {
                                space: MemSpace::Global,
                                array: a2,
                                index: Box::new(Expr::bin(
                                    BinOp::Add,
                                    Expr::bin(BinOp::Mul, Expr::var(v6), Expr::param(p0)),
                                    Expr::var(v8),
                                )),
                            },
                            Expr::fconst(4.0),
                        ),
                    ),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a4,
                index: Expr::iconst(0),
                value: Expr::bin(
                    BinOp::Add,
                    Expr::un(
                        UnOp::Abs,
                        Expr::Load {
                            space: MemSpace::Global,
                            array: a1,
                            index: Box::new(Expr::var(v6)),
                        },
                    ),
                    Expr::var(v7),
                ),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 6,
        index: 286,
        program,
        params: vec![("n".to_string(), 8.0)],
        inputs: vec![
            (
                "x".to_string(),
                Buffer::F32(vec![8.0, 6.0, 1.0, 4.0, 2.0, 4.0, 4.0, 6.0]),
            ),
            (
                "y".to_string(),
                Buffer::F32(vec![7.0, 5.0, 3.0, 7.0, 1.0, 7.0, 7.0, 5.0]),
            ),
            (
                "z".to_string(),
                Buffer::F32(vec![
                    2.0, 6.0, 8.0, 8.0, 6.0, 5.0, 7.0, 6.0, 4.0, 6.0, 3.0, 5.0, 8.0, 3.0, 1.0, 1.0,
                    7.0, 3.0, 1.0, 6.0, 5.0, 8.0, 6.0, 3.0, 5.0, 3.0, 3.0, 5.0, 7.0, 2.0, 3.0, 6.0,
                    4.0, 3.0, 3.0, 5.0, 4.0, 8.0, 6.0, 1.0, 3.0, 3.0, 8.0, 8.0, 4.0, 1.0, 3.0, 4.0,
                    4.0, 4.0, 4.0, 5.0, 7.0, 7.0, 2.0, 8.0, 6.0, 4.0, 5.0, 1.0, 3.0, 8.0, 6.0, 6.0,
                ]),
            ),
            ("m".to_string(), Buffer::I32(vec![4, 3, 3, 7, 5, 1, 7, 5])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_variables)]
fn conformance_regression_s8_i288() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::HostStmt;

    let mut b = ProgramBuilder::new("gen_288");
    let p0 = b.iparam("n");
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array("w", Scalar::F32, Expr::param(p0), Intent::Out);
    let a3 = b.array("flag", Scalar::I32, Expr::iconst(1), Intent::InOut);
    let v0 = b.var("i_ax1");
    let v1 = b.var("i_k2");
    let v2 = b.var("t0_k2");
    let v3 = b.var("kv0_k2");
    let v4 = b.var("kv1_k2");
    let v5 = b.var("i_k3");
    let v6 = b.var("t0_k3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "k2".to_string(),
        loops: vec![ParallelLoop {
            var: v1,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses::default(),
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v2,
                ty: Scalar::F32,
                init: Expr::fconst(-2.5),
            },
            Stmt::For {
                var: v3,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v2,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::var(v2),
                        Expr::Load {
                            space: MemSpace::Global,
                            array: a0,
                            index: Box::new(Expr::var(v1)),
                        },
                    ),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a1,
                index: Expr::iconst(0),
                value: Expr::var(v2),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 8,
        index: 288,
        program,
        params: vec![("n".to_string(), 4.0)],
        inputs: vec![
            ("x".to_string(), Buffer::F32(vec![8.0, 2.0, 7.0, 2.0])),
            ("y".to_string(), Buffer::F32(vec![8.0, 6.0, 5.0, 8.0])),
            ("flag".to_string(), Buffer::I32(vec![1])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_variables)]
fn conformance_regression_s13_i184() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::HostStmt;

    let mut b = ProgramBuilder::new("gen_184");
    let p0 = b.iparam("n");
    let p1 = b.param("alpha", Scalar::F32);
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array(
        "z",
        Scalar::F32,
        Expr::bin(BinOp::Mul, Expr::param(p0), Expr::param(p0)),
        Intent::InOut,
    );
    let a3 = b.array("m", Scalar::I32, Expr::param(p0), Intent::InOut);
    let a4 = b.array("idx", Scalar::I32, Expr::param(p0), Intent::In);
    let v0 = b.var("i_k1");
    let v1 = b.var("t0_k1");
    let v2 = b.var("t1_k1");
    let v3 = b.var("i_k2");
    let v4 = b.var("t0_k2");
    let v5 = b.var("kv0_k2");
    let v6 = b.var("t");
    let v7 = b.var("i_k3");
    let v8 = b.var("t0_k3");
    let v9 = b.var("t1_k3");
    let v10 = b.var("kv0_k3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "k2".to_string(),
        loops: vec![ParallelLoop {
            var: v3,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses::default(),
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v4,
                ty: Scalar::F32,
                init: Expr::fconst(2.0),
            },
            Stmt::For {
                var: v5,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v4,
                    value: Expr::bin(
                        BinOp::Add,
                        Expr::var(v4),
                        Expr::bin(
                            BinOp::Add,
                            Expr::Load {
                                space: MemSpace::Global,
                                array: a0,
                                index: Box::new(Expr::var(v3)),
                            },
                            Expr::Load {
                                space: MemSpace::Global,
                                array: a2,
                                index: Box::new(Expr::bin(
                                    BinOp::Add,
                                    Expr::bin(BinOp::Mul, Expr::var(v3), Expr::param(p0)),
                                    Expr::var(v5),
                                )),
                            },
                        ),
                    ),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a2,
                index: Expr::iconst(0),
                value: Expr::Fma(
                    Box::new(Expr::param(p1)),
                    Box::new(Expr::bin(
                        BinOp::Div,
                        Expr::Load {
                            space: MemSpace::Global,
                            array: a1,
                            index: Box::new(Expr::bin(
                                BinOp::Rem,
                                Expr::bin(BinOp::Add, Expr::var(v3), Expr::iconst(1)),
                                Expr::param(p0),
                            )),
                        },
                        Expr::fconst(-2.0),
                    )),
                    Box::new(Expr::Fma(
                        Box::new(Expr::var(v4)),
                        Box::new(Expr::fconst(-1.5)),
                        Box::new(Expr::Load {
                            space: MemSpace::Global,
                            array: a1,
                            index: Box::new(Expr::iconst(1)),
                        }),
                    )),
                ),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 13,
        index: 184,
        program,
        params: vec![("n".to_string(), 6.0), ("alpha".to_string(), 2.0)],
        inputs: vec![
            (
                "x".to_string(),
                Buffer::F32(vec![5.0, 4.0, 8.0, 2.0, 1.0, 5.0]),
            ),
            (
                "y".to_string(),
                Buffer::F32(vec![7.0, 6.0, 3.0, 2.0, 2.0, 8.0]),
            ),
            (
                "z".to_string(),
                Buffer::F32(vec![
                    4.0, 8.0, 5.0, 3.0, 6.0, 3.0, 2.0, 4.0, 1.0, 7.0, 5.0, 1.0, 4.0, 1.0, 6.0, 3.0,
                    4.0, 4.0, 7.0, 8.0, 8.0, 5.0, 7.0, 6.0, 4.0, 6.0, 2.0, 5.0, 6.0, 4.0, 8.0, 4.0,
                    7.0, 2.0, 8.0, 8.0,
                ]),
            ),
            ("m".to_string(), Buffer::I32(vec![7, 6, 7, 4, 8, 1])),
            ("idx".to_string(), Buffer::I32(vec![5, 1, 0, 1, 3, 4])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_imports, unused_variables)]
fn conformance_regression_s42_i130() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::{Dir, HostStmt};

    let mut b = ProgramBuilder::new("gen_130");
    let p0 = b.iparam("n");
    let p1 = b.param("alpha", Scalar::F32);
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array("flag", Scalar::I32, Expr::iconst(1), Intent::InOut);
    let v0 = b.var("i_red1");
    let v1 = b.var("acc_red1");
    let v2 = b.var("k_red1");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "red1".to_string(),
        loops: vec![ParallelLoop {
            var: v0,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses {
                independent: false,
                gang: None,
                worker: None,
                vector: Some(64),
                tile: None,
                unroll_jam: Some(2),
                device_overrides: vec![],
            },
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v1,
                ty: Scalar::F32,
                init: Expr::fconst(0.0),
            },
            Stmt::For {
                var: v2,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v1,
                    value: Expr::iconst(1),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a1,
                index: Expr::iconst(0),
                value: Expr::var(v1),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 42,
        index: 130,
        program,
        params: vec![("n".to_string(), 5.0), ("alpha".to_string(), 2.0)],
        inputs: vec![
            ("x".to_string(), Buffer::F32(vec![2.0, 1.0, 4.0, 6.0, 3.0])),
            ("y".to_string(), Buffer::F32(vec![2.0, 5.0, 6.0, 7.0, 4.0])),
            ("flag".to_string(), Buffer::I32(vec![3])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_imports, unused_variables)]
fn conformance_regression_s5_i40() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::{Dir, HostStmt};

    let mut b = ProgramBuilder::new("gen_40");
    let p0 = b.iparam("n");
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array("r", Scalar::F32, Expr::iconst(1), Intent::Out);
    let v0 = b.var("i_red1");
    let v1 = b.var("acc_red1");
    let v2 = b.var("k_red1");
    let v3 = b.var("i_red2");
    let v4 = b.var("acc_red2");
    let v5 = b.var("k_red2");
    let v6 = b.var("i_rr3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "red1".to_string(),
        loops: vec![ParallelLoop {
            var: v0,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses {
                independent: false,
                gang: None,
                worker: None,
                vector: None,
                tile: None,
                unroll_jam: Some(2),
                device_overrides: vec![],
            },
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v1,
                ty: Scalar::F32,
                init: Expr::fconst(0.0),
            },
            Stmt::For {
                var: v2,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v1,
                    value: Expr::iconst(1),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a1,
                index: Expr::iconst(0),
                value: Expr::var(v1),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 5,
        index: 40,
        program,
        params: vec![("n".to_string(), 4.0)],
        inputs: vec![
            ("x".to_string(), Buffer::F32(vec![6.0, 1.0, 4.0, 7.0])),
            ("y".to_string(), Buffer::F32(vec![7.0, 8.0, 5.0, 8.0])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_imports, unused_variables)]
fn conformance_regression_s7_i8() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::{Dir, HostStmt};

    let mut b = ProgramBuilder::new("gen_8");
    let p0 = b.iparam("n");
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array(
        "z",
        Scalar::F32,
        Expr::bin(BinOp::Mul, Expr::param(p0), Expr::param(p0)),
        Intent::In,
    );
    let a3 = b.array("w", Scalar::F32, Expr::param(p0), Intent::Out);
    let a4 = b.array("m", Scalar::I32, Expr::param(p0), Intent::InOut);
    let v0 = b.var("i_red1");
    let v1 = b.var("acc_red1");
    let v2 = b.var("k_red1");
    let v3 = b.var("i_k2");
    let v4 = b.var("j_k2");
    let v5 = b.var("t0_k2");
    let v6 = b.var("kv0_k2");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "red1".to_string(),
        loops: vec![ParallelLoop {
            var: v0,
            lo: Expr::iconst(0),
            hi: Expr::iconst(1),
            clauses: LoopClauses {
                independent: false,
                gang: Some(64),
                worker: Some(4),
                vector: None,
                tile: None,
                unroll_jam: Some(2),
                device_overrides: vec![],
            },
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v1,
                ty: Scalar::F32,
                init: Expr::fconst(0.0),
            },
            Stmt::For {
                var: v2,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Assign {
                    var: v1,
                    value: Expr::iconst(1),
                }]),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a3,
                index: Expr::iconst(0),
                value: Expr::var(v1),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 7,
        index: 8,
        program,
        params: vec![("n".to_string(), 4.0)],
        inputs: vec![
            ("x".to_string(), Buffer::F32(vec![6.0, 5.0, 2.0, 3.0])),
            ("y".to_string(), Buffer::F32(vec![1.0, 5.0, 4.0, 4.0])),
            (
                "z".to_string(),
                Buffer::F32(vec![
                    7.0, 8.0, 7.0, 7.0, 8.0, 7.0, 6.0, 7.0, 6.0, 1.0, 2.0, 2.0, 3.0, 4.0, 7.0, 5.0,
                ]),
            ),
            ("m".to_string(), Buffer::I32(vec![3, 1, 2, 4])),
        ],
    };
    assert_conforms(&case);
}

#[test]
#[allow(unused_imports, unused_variables)]
fn conformance_regression_s22_i270() {
    use paccport_conformance::{assert_conforms, Case};
    use paccport_devsim::Buffer;
    use paccport_ir::builder::ProgramBuilder;
    use paccport_ir::expr::*;
    use paccport_ir::kernel::*;
    use paccport_ir::stmt::*;
    use paccport_ir::types::*;
    use paccport_ir::{Dir, HostStmt};

    let mut b = ProgramBuilder::new("gen_270");
    let p0 = b.iparam("n");
    let a0 = b.array("x", Scalar::F32, Expr::param(p0), Intent::In);
    let a1 = b.array("y", Scalar::F32, Expr::param(p0), Intent::InOut);
    let a2 = b.array("r", Scalar::F32, Expr::iconst(1), Intent::Out);
    let v0 = b.var("i_k1");
    let v1 = b.var("t0_k1");
    let v2 = b.var("kv0_k1");
    let v3 = b.var("i_rr2");
    let v4 = b.var("i_k3");
    let v5 = b.var("t0_k3");
    let v6 = b.var("kv1_k3");

    let program = b.finish(vec![HostStmt::Launch(Kernel {
        name: "k3".to_string(),
        loops: vec![ParallelLoop {
            var: v4,
            lo: Expr::iconst(0),
            hi: Expr::param(p0),
            clauses: LoopClauses::default(),
        }],
        body: KernelBody::Simple(Block(vec![
            Stmt::Let {
                var: v5,
                ty: Scalar::I32,
                init: Expr::iconst(1),
            },
            Stmt::Store {
                space: MemSpace::Global,
                array: a1,
                index: Expr::iconst(0),
                value: Expr::un(
                    UnOp::Neg,
                    Expr::Select(
                        Box::new(Expr::un(
                            UnOp::Not,
                            Expr::cmp(
                                CmpOp::Le,
                                Expr::Select(
                                    Box::new(Expr::cmp(
                                        CmpOp::Lt,
                                        Expr::bin(
                                            BinOp::Sub,
                                            Expr::Load {
                                                space: MemSpace::Global,
                                                array: a1,
                                                index: Box::new(Expr::var(v4)),
                                            },
                                            Expr::fconst(-2.5),
                                        ),
                                        Expr::bin(
                                            BinOp::Sub,
                                            Expr::Load {
                                                space: MemSpace::Global,
                                                array: a1,
                                                index: Box::new(Expr::var(v4)),
                                            },
                                            Expr::Load {
                                                space: MemSpace::Global,
                                                array: a0,
                                                index: Box::new(Expr::var(v4)),
                                            },
                                        ),
                                    )),
                                    Box::new(Expr::param(p0)),
                                    Box::new(Expr::param(p0)),
                                ),
                                Expr::var(v5),
                            ),
                        )),
                        Box::new(Expr::Load {
                            space: MemSpace::Global,
                            array: a1,
                            index: Box::new(Expr::var(v4)),
                        }),
                        Box::new(Expr::Load {
                            space: MemSpace::Global,
                            array: a1,
                            index: Box::new(Expr::var(v4)),
                        }),
                    ),
                ),
            },
            Stmt::For {
                var: v6,
                lo: Expr::iconst(0),
                hi: Expr::param(p0),
                step: 1,
                body: Block(vec![Stmt::Store {
                    space: MemSpace::Global,
                    array: a1,
                    index: Expr::var(v6),
                    value: Expr::bin(
                        BinOp::Mul,
                        Expr::Select(
                            Box::new(Expr::cmp(
                                CmpOp::Lt,
                                Expr::bin(BinOp::Div, Expr::param(p0), Expr::iconst(2)),
                                Expr::bin(BinOp::Min, Expr::iconst(4), Expr::param(p0)),
                            )),
                            Box::new(Expr::Load {
                                space: MemSpace::Global,
                                array: a1,
                                index: Box::new(Expr::bin(
                                    BinOp::Rem,
                                    Expr::bin(BinOp::Add, Expr::var(v6), Expr::iconst(2)),
                                    Expr::param(p0),
                                )),
                            }),
                            Box::new(Expr::Load {
                                space: MemSpace::Global,
                                array: a1,
                                index: Box::new(Expr::var(v4)),
                            }),
                        ),
                        Expr::Fma(
                            Box::new(Expr::Load {
                                space: MemSpace::Global,
                                array: a1,
                                index: Box::new(Expr::var(v6)),
                            }),
                            Box::new(Expr::fconst(-1.5)),
                            Box::new(Expr::Load {
                                space: MemSpace::Global,
                                array: a1,
                                index: Box::new(Expr::iconst(1)),
                            }),
                        ),
                    ),
                }]),
            },
        ])),
        locals: vec![],
        region_reduction: None,
        reduction: None,
        launch_hint: None,
    })]);
    let case = Case {
        seed: 22,
        index: 270,
        program,
        params: vec![("n".to_string(), 8.0)],
        inputs: vec![
            (
                "x".to_string(),
                Buffer::F32(vec![4.0, 8.0, 2.0, 2.0, 1.0, 2.0, 6.0, 7.0]),
            ),
            (
                "y".to_string(),
                Buffer::F32(vec![2.0, 5.0, 1.0, 6.0, 7.0, 5.0, 7.0, 1.0]),
            ),
        ],
    };
    assert_conforms(&case);
}
