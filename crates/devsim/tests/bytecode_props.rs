//! Property tests for the bytecode execution tier.
//!
//! Two families, each driven by a seeded structural generator that
//! builds small but gnarly kernels (nested sequential loops, branches,
//! selects, mixed f32/f64/int arithmetic, region reductions):
//!
//! 1. **Slot allocation** — variable register slots are injective per
//!    kernel, stay below `n_regs`, and `n_vars` matches the program
//!    environment, so the flat register file can never alias two
//!    distinct IR variables.
//! 2. **Tier bit-equality** — executing the same kernel under the
//!    tree-walker and the bytecode VM produces bitwise-identical
//!    output buffers (f64 bit patterns) and identical final variable
//!    environments.

use paccport_devsim::bytecode::compile_kernel;
use paccport_devsim::interp::KernelFidelity;
use paccport_devsim::{exec_kernel_tiered, exec_kernel_traced, fresh_vars, Buffer, ExecTier, V};
use paccport_ir::{
    assign, for_, if_, ld, let_, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, Program,
    ProgramBuilder, ReduceOp, RegionReduction, Scalar, Stmt, VarId, E,
};
use paccport_trace::rng::Rng;
use proptest::prelude::*;

/// The generator stream of case `seed`.
fn case_rng(seed: u64) -> Rng {
    Rng::new(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
}

/// Small float with an exact binary representation, occasionally
/// zero or negative, so division/rcp/sqrt hit their edge cases.
fn small_f(rng: &mut Rng) -> f64 {
    (rng.below(65) as f64 - 32.0) * 0.25
}

/// The first draws of case 7, pinned so the generated corpus never
/// shifts under the shared generator.
#[test]
fn case_stream_known_answer() {
    let mut rng = case_rng(7);
    assert_eq!(
        [rng.below(1000), rng.below(1000), rng.below(3)],
        [804, 346, 0]
    );
    assert_eq!(small_f(&mut rng), 4.25);
}

/// A generated test case: program + its single kernel + inputs.
struct Case {
    p: Program,
    params: Vec<V>,
    bufs: Vec<Buffer>,
}

/// Context threaded through expression generation.
struct Gen {
    rng: Rng,
    /// Float-typed variables currently in scope.
    fvars: Vec<VarId>,
    /// Int-typed variables currently in scope (loop counters).
    ivars: Vec<VarId>,
    /// Data arrays safe to `ld` at the flat index.
    arrays: Vec<paccport_ir::ArrayId>,
    /// Expression that indexes within bounds at any program point.
    idx: Expr,
}

impl Gen {
    fn iexpr(&mut self, depth: u32) -> E {
        if depth == 0 || self.rng.below(3) == 0 {
            return match self.rng.below(3) {
                0 => E::from(Expr::iconst(self.rng.below(7) as i64 - 3)),
                1 => E::from(self.idx.clone()),
                _ => {
                    if self.ivars.is_empty() {
                        E::from(Expr::iconst(self.rng.below(5) as i64))
                    } else {
                        let v = self.ivars[self.rng.below(self.ivars.len() as u64) as usize];
                        E::from(Expr::var(v))
                    }
                }
            };
        }
        let a = self.iexpr(depth - 1);
        match self.rng.below(7) {
            0 => a + self.iexpr(depth - 1),
            1 => a - self.iexpr(depth - 1),
            2 => a * E::from(self.rng.below(5) as i64 - 2),
            // Non-zero constant divisors only: both tiers panic on a
            // zero divisor, which the bit-equality harness does not
            // model (the conformance driver's tier leg covers panics).
            3 => a / E::from(self.rng.below(4) as i64 + 1),
            4 => a % E::from(self.rng.below(4) as i64 + 2),
            5 => a.min(self.iexpr(depth - 1)),
            _ => a.max(self.iexpr(depth - 1)),
        }
    }

    fn cond(&mut self, depth: u32) -> E {
        let d = depth.saturating_sub(1);
        match self.rng.below(4) {
            0 => self.fexpr(d).lt(self.fexpr(d)),
            1 => self.fexpr(d).ge(self.fexpr(d)),
            2 => self.iexpr(d).eq_(self.iexpr(d)),
            _ => self.iexpr(d).le(self.iexpr(d)),
        }
    }

    fn fexpr(&mut self, depth: u32) -> E {
        if depth == 0 || self.rng.below(4) == 0 {
            return match self.rng.below(4) {
                0 => E::from(small_f(&mut self.rng)),
                1 => {
                    let a = self.arrays[self.rng.below(self.arrays.len() as u64) as usize];
                    ld(a, E::from(self.idx.clone()))
                }
                2 => {
                    if self.fvars.is_empty() {
                        E::from(small_f(&mut self.rng))
                    } else {
                        let v = self.fvars[self.rng.below(self.fvars.len() as u64) as usize];
                        E::from(Expr::var(v))
                    }
                }
                _ => self.iexpr(1).cast(Scalar::F64),
            };
        }
        let d = depth - 1;
        let a = self.fexpr(d);
        match self.rng.below(11) {
            0 => a + self.fexpr(d),
            1 => a - self.fexpr(d),
            2 => a * self.fexpr(d),
            3 => a / self.fexpr(d),
            4 => a.min(self.fexpr(d)),
            5 => a.max(self.fexpr(d)),
            6 => -a,
            7 => a.abs().sqrt(),
            8 => a.fma(self.fexpr(d), self.fexpr(d)),
            9 => {
                let c = self.cond(d);
                c.select(a, self.fexpr(d))
            }
            _ => a.cast(if self.rng.below(2) == 0 {
                Scalar::F32
            } else {
                Scalar::F64
            }),
        }
    }

    /// Straight-line or lightly structured statement list writing into
    /// already-declared float variables.
    fn stmts(&mut self, b: &mut ProgramBuilder, depth: u32) -> Vec<Stmt> {
        let mut out = Vec::new();
        let n = 1 + self.rng.below(3);
        for s in 0..n {
            match self.rng.below(if depth > 0 { 5 } else { 3 }) {
                0 | 1 => {
                    let ty = if self.rng.below(2) == 0 {
                        Scalar::F32
                    } else {
                        Scalar::F64
                    };
                    let v = b.var(&format!("t{}_{}", depth, s));
                    let init = self.fexpr(2);
                    out.push(let_(v, ty, init));
                    self.fvars.push(v);
                }
                2 => {
                    if let Some(&v) = self.fvars.last() {
                        let e = self.fexpr(2);
                        out.push(assign(v, e));
                    }
                }
                3 => {
                    // Variables declared inside the branch may never
                    // be defined at runtime; scope them to the block.
                    let c = self.cond(1);
                    let mark = self.fvars.len();
                    let then = self.stmts(b, depth - 1);
                    self.fvars.truncate(mark);
                    if !then.is_empty() {
                        out.push(if_(c, then));
                    }
                }
                _ => {
                    // Sequential inner loop with its own counter; the
                    // counter (and any body-local lets — the loop may
                    // be zero-trip) is only referenced inside the body.
                    let j = b.var(&format!("j{}_{}", depth, s));
                    self.ivars.push(j);
                    let mark = self.fvars.len();
                    let body = self.stmts(b, depth - 1);
                    self.fvars.truncate(mark);
                    self.ivars.pop();
                    let hi = self.rng.below(4) as i64; // 0 => zero-trip
                    if !body.is_empty() {
                        out.push(for_(j, 0i64, hi, body));
                    }
                }
            }
        }
        out
    }
}

/// Build one random program: a 1-D or 2-D simple kernel over two input
/// arrays and one output array, sometimes carrying a region reduction.
fn gen_case(seed: u64) -> Case {
    let mut rng = case_rng(seed);
    let n: i64 = 4 + rng.below(3) as i64; // 4..=6
    let two_d = rng.below(2) == 0;
    let len = (n * n) as usize;

    let mut b = ProgramBuilder::new(format!("prop_{seed}"));
    let np = b.iparam("n");
    let a = b.array("a", Scalar::F32, E::from(np) * E::from(np), Intent::In);
    let c = b.array("c", Scalar::F64, E::from(np) * E::from(np), Intent::In);
    let out_elem = if rng.below(2) == 0 {
        Scalar::F32
    } else {
        Scalar::F64
    };
    let o = b.array("o", out_elem, E::from(np) * E::from(np), Intent::Out);
    let red = b.array("red", Scalar::F64, 1i64, Intent::Out);

    let iv = b.var("i");
    let jv = b.var("j");
    let (loops, idx) = if two_d {
        (
            vec![
                ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np)),
                ParallelLoop::new(jv, Expr::iconst(0), Expr::param(np)),
            ],
            (E::from(Expr::var(iv)) * E::from(np) + E::from(Expr::var(jv))).expr(),
        )
    } else {
        (
            vec![ParallelLoop::new(iv, Expr::iconst(0), Expr::param(np))],
            Expr::var(iv),
        )
    };

    let mut g = Gen {
        rng,
        fvars: Vec::new(),
        ivars: Vec::new(),
        arrays: vec![a, c],
        idx: idx.clone(),
    };
    let mut body = g.stmts(&mut b, 2);
    let val = g.fexpr(3);
    body.push(st(o, E::from(idx.clone()), val));

    let mut k = Kernel::simple(format!("k{seed}"), loops, Block::new(body));
    if g.rng.below(3) == 0 {
        let op = match g.rng.below(3) {
            0 => ReduceOp::Add,
            1 => ReduceOp::Max,
            _ => ReduceOp::Min,
        };
        let value = g.fexpr(2).expr();
        k.region_reduction = Some(RegionReduction {
            op,
            value,
            dest: red,
        });
    }

    let mut rng = g.rng;
    let af: Vec<f32> = (0..len).map(|_| small_f(&mut rng) as f32).collect();
    let cf: Vec<f64> = (0..len).map(|_| small_f(&mut rng)).collect();
    let p = b.finish(vec![HostStmt::Launch(k)]);
    let bufs = vec![
        Buffer::F32(af),
        Buffer::F64(cf),
        Buffer::zeroed(out_elem, len),
        Buffer::zeroed(Scalar::F64, 1),
    ];
    Case {
        p,
        params: vec![V::I(n)],
        bufs,
    }
}

fn bits(v: Option<V>) -> Option<(u8, u64)> {
    v.map(|v| match v {
        V::I(i) => (0u8, i as u64),
        V::F(f) => (1u8, f.to_bits()),
        V::B(b) => (2u8, b as u64),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Variable slots are injective and in range; the register file is
    /// large enough for every program variable.
    #[test]
    fn slot_allocation_injective(seed in 0u64..600) {
        let case = gen_case(seed);
        for k in case.p.kernels() {
            let code = compile_kernel(&case.p, k);
            prop_assert_eq!(code.n_vars as usize, case.p.var_names.len());
            let mut seen = std::collections::BTreeSet::new();
            for v in 0..case.p.var_names.len() {
                let slot = code.var_slot(VarId(v as u32));
                prop_assert!(slot < code.n_regs, "slot {} out of range", slot);
                prop_assert!(seen.insert(slot), "slot {} assigned twice", slot);
            }
        }
    }

    /// Tree-walker and bytecode VM agree bit-for-bit on every output
    /// buffer and on the final variable environment.
    #[test]
    fn tiers_bitwise_equal(seed in 0u64..600) {
        let case = gen_case(seed);
        let k = case.p.kernels()[0];

        let mut tree_bufs = case.bufs.clone();
        let mut tree_vars = fresh_vars(&case.p);
        exec_kernel_traced(&case.p, &case.params, k, &mut tree_vars, &mut tree_bufs,
                    KernelFidelity::Exact, None);

        let mut bc_bufs = case.bufs.clone();
        let mut bc_vars = fresh_vars(&case.p);
        exec_kernel_tiered(&case.p, &case.params, k, &mut bc_vars, &mut bc_bufs,
                           KernelFidelity::Exact, None, ExecTier::Bytecode);

        for (bi, (tb, bb)) in tree_bufs.iter().zip(bc_bufs.iter()).enumerate() {
            prop_assert_eq!(tb.len(), bb.len());
            for i in 0..tb.len() {
                prop_assert_eq!(
                    tb.get(i).to_bits(), bb.get(i).to_bits(),
                    "seed {} buffer {} element {}: tree {} vs bytecode {}",
                    seed, bi, i, tb.get(i), bb.get(i)
                );
            }
        }
        for (vi, (tv, bv)) in tree_vars.iter().zip(bc_vars.iter()).enumerate() {
            prop_assert_eq!(
                bits(*tv), bits(*bv),
                "seed {} variable {} ({}) diverged", seed, vi, case.p.var_names[vi]
            );
        }
    }
}
