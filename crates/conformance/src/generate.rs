//! Seeded random generator of well-typed IR programs.
//!
//! Programs are drawn from a grammar that covers the paper's host and
//! kernel shapes — data regions, update sandwiches, BFS-style
//! `WhileFlag` countdowns, triangular nests, CAPS-shaped `reduction`
//! kernels, hand-written grouped (OpenCL-style) bodies, region
//! reductions, atomics — while staying inside the envelope where the
//! reference oracle and every compiler lowering are *bitwise*
//! comparable:
//!
//! * **Type-directed expressions.** Float expressions never have
//!   integer-constant operands and never use the literals `0.0`/`1.0`
//!   in value positions, so `simplify`'s identity and reassociation
//!   folds (`x+0→x`, `(a+c1)+c2→a+c`) only ever fire on integer
//!   subtrees, where they are value-exact. Integers reach float
//!   context only through an explicit `Cast(F32, ·)`, which folds
//!   exactly.
//! * **Integer-valued reduction inputs.** Arrays feeding `reduction`
//!   kernels and grouped tree sums hold small positive integers, so
//!   f32 sums stay below 2^24 and any re-association (tree lowering,
//!   per-lane partials) is bitwise-exact — and the CAPS
//!   dropped-phases bug still produces a *nonzero* observable error.
//! * **Provably in-bounds indices.** Index expressions come from a
//!   per-length grammar (`i`, `i*n+j`, `(i+c)%n`, `min(i+c,n-1)`,
//!   small constants, loads from an index array valued `0..n-1`).
//! * **Flat-equivalent data movement.** Kernels never write `copyin`
//!   arrays, data regions only list `In`/`InOut` arrays, host stores
//!   happen outside regions, and `update` sandwiches only wrap
//!   plain-affine kernels no compiler personality can demote to a
//!   host fallback — so the simulator's transfer machinery is
//!   exercised without ever changing observable values.
//!
//! Every emitted program is gated by `paccport_ir::validate`; the
//! generator retries (deterministically) on the rare invalid draw.

use paccport_devsim::Buffer;
use paccport_ir::builder::ProgramBuilder;
use paccport_ir::expr::{Expr, SpecialVar};
use paccport_ir::kernel::{
    AccDeviceType, DeviceTypeClause, GroupedBody, Kernel, KernelBody, LoopClauses, ParallelLoop,
    ReduceOp, Reduction, RegionReduction,
};
use paccport_ir::stmt::{Block, Stmt};
use paccport_ir::types::{ArrayId, Intent, LocalArrayDecl, MemSpace, ParamId, Scalar, VarId};
use paccport_ir::{
    assign, for_, if_, if_else, ld, ld_local, let_, st, st_local, Dir, HostStmt, Program, E,
};
use paccport_trace::rng::Rng;

/// One generated conformance test case: a program plus the concrete
/// parameter values and input buffers it runs with.
#[derive(Debug, Clone)]
pub struct Case {
    pub seed: u64,
    pub index: u64,
    pub program: Program,
    pub params: Vec<(String, f64)>,
    pub inputs: Vec<(String, Buffer)>,
}

/// Generate case `index` of the stream for `seed`. Deterministic: the
/// same `(seed, index)` always yields the same case, independent of
/// any other case.
pub fn generate(seed: u64, index: u64) -> Case {
    for attempt in 0u64..100 {
        let rng = Rng::for_index(seed ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03), index);
        let case = Gen::new(rng, seed, index).build();
        if paccport_ir::validate(&case.program).is_ok() {
            return case;
        }
    }
    panic!("generator failed to produce a valid program for seed={seed}, index={index}");
}

#[derive(Clone, Copy, PartialEq)]
enum LenKind {
    /// Length `n`.
    N,
    /// Length `n*n`.
    NN,
    /// Length 1.
    One,
}

#[derive(Clone)]
struct ArrInfo {
    id: ArrayId,
    name: &'static str,
    elem: Scalar,
    kind: LenKind,
    intent: Intent,
}

impl ArrInfo {
    fn writable(&self) -> bool {
        self.intent != Intent::In
    }
}

/// Loop/local variables visible to expression generation at one point
/// of a kernel body.
#[derive(Clone, Default)]
struct Env {
    /// Integer vars provably in `0..n` — usable as array indices.
    idx_vars: Vec<VarId>,
    /// Integer-valued vars of any small magnitude.
    int_vars: Vec<VarId>,
    /// Float-valued locals (`Let` at body top level).
    float_vars: Vec<VarId>,
}

struct Gen {
    rng: Rng,
    seed: u64,
    index: u64,
    b: ProgramBuilder,
    n: ParamId,
    n_val: i64,
    alpha: Option<ParamId>,
    alpha_val: f64,
    arrays: Vec<ArrInfo>,
    /// F32 `In` array of length n: safe source for exact reductions.
    x: ArrayId,
    /// The always-present observable F32 InOut array of length n.
    y: ArrayId,
    /// F32 `In` array of length n*n, if present (grouped kernels).
    nn_in: Option<ArrayId>,
    /// I32 `In` array valued 0..n-1, if present (indirect accesses).
    idx_arr: Option<ArrayId>,
    flag: Option<ArrayId>,
    rr_dest: Option<ArrayId>,
    kernels: usize,
    wrote_observable: bool,
}

impl Gen {
    fn new(mut rng: Rng, seed: u64, index: u64) -> Gen {
        let mut b = ProgramBuilder::new(format!("gen_{index}"));
        let n = b.iparam("n");
        let n_val = rng.range(4, 8);
        let (alpha, alpha_val) = if rng.chance(1, 2) {
            (
                Some(b.param("alpha", Scalar::F32)),
                *rng.pick(&[1.5, 2.0, 2.5, 3.0]),
            )
        } else {
            (None, 0.0)
        };

        let mut arrays = Vec::new();
        let x = b.array("x", Scalar::F32, n, Intent::In);
        arrays.push(ArrInfo {
            id: x,
            name: "x",
            elem: Scalar::F32,
            kind: LenKind::N,
            intent: Intent::In,
        });
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        arrays.push(ArrInfo {
            id: y,
            name: "y",
            elem: Scalar::F32,
            kind: LenKind::N,
            intent: Intent::InOut,
        });

        let mut nn_in = None;
        if rng.chance(1, 2) {
            let intent = if rng.chance(1, 2) {
                Intent::In
            } else {
                Intent::InOut
            };
            let z = b.array("z", Scalar::F32, E::from(n) * E::from(n), intent);
            arrays.push(ArrInfo {
                id: z,
                name: "z",
                elem: Scalar::F32,
                kind: LenKind::NN,
                intent,
            });
            if intent == Intent::In {
                nn_in = Some(z);
            }
        }
        if rng.chance(1, 2) {
            let intent = if rng.chance(1, 2) {
                Intent::Out
            } else {
                Intent::Scratch
            };
            let w = b.array("w", Scalar::F32, n, intent);
            arrays.push(ArrInfo {
                id: w,
                name: "w",
                elem: Scalar::F32,
                kind: LenKind::N,
                intent,
            });
        }
        if rng.chance(1, 3) {
            let m = b.array("m", Scalar::I32, n, Intent::InOut);
            arrays.push(ArrInfo {
                id: m,
                name: "m",
                elem: Scalar::I32,
                kind: LenKind::N,
                intent: Intent::InOut,
            });
        }
        let mut idx_arr = None;
        if rng.chance(1, 3) {
            let ia = b.array("idx", Scalar::I32, n, Intent::In);
            arrays.push(ArrInfo {
                id: ia,
                name: "idx",
                elem: Scalar::I32,
                kind: LenKind::N,
                intent: Intent::In,
            });
            idx_arr = Some(ia);
        }
        let mut rr_dest = None;
        if rng.chance(1, 3) {
            let r = b.array("r", Scalar::F32, 1i64, Intent::Out);
            arrays.push(ArrInfo {
                id: r,
                name: "r",
                elem: Scalar::F32,
                kind: LenKind::One,
                intent: Intent::Out,
            });
            rr_dest = Some(r);
        }
        let mut flag = None;
        if rng.chance(1, 3) {
            let f = b.array("flag", Scalar::I32, 1i64, Intent::InOut);
            arrays.push(ArrInfo {
                id: f,
                name: "flag",
                elem: Scalar::I32,
                kind: LenKind::One,
                intent: Intent::InOut,
            });
            flag = Some(f);
        }

        Gen {
            rng,
            seed,
            index,
            b,
            n,
            n_val,
            alpha,
            alpha_val,
            arrays,
            x,
            y,
            nn_in,
            idx_arr,
            flag,
            rr_dest,
            kernels: 0,
            wrote_observable: false,
        }
    }

    fn build(mut self) -> Case {
        let mut body: Vec<HostStmt> = Vec::new();
        let n_features = 1 + self.rng.below(3);
        for _ in 0..n_features {
            let stmts = self.gen_feature();
            body.extend(stmts);
            if self.rng.chance(1, 8) {
                body.push(HostStmt::HostCompute {
                    label: "bookkeeping".into(),
                    instr: Expr::param(self.n),
                });
            }
        }
        if !self.wrote_observable {
            // Guarantee the program has an observable effect.
            let k = self.gen_affine_kernel(self.y);
            body.push(HostStmt::Launch(k));
        }

        let mut params = vec![("n".to_string(), self.n_val as f64)];
        if self.alpha.is_some() {
            params.push(("alpha".to_string(), self.alpha_val));
        }
        let inputs = self.make_inputs();
        let program = self.b.finish(body);
        Case {
            seed: self.seed,
            index: self.index,
            program,
            params,
            inputs,
        }
    }

    fn make_inputs(&mut self) -> Vec<(String, Buffer)> {
        let n = self.n_val;
        let mut out = Vec::new();
        for info in self.arrays.clone() {
            if !info.intent.copies_in() {
                continue;
            }
            let len = match info.kind {
                LenKind::N => n,
                LenKind::NN => n * n,
                LenKind::One => 1,
            } as usize;
            let buf = if Some(info.id) == self.idx_arr {
                Buffer::I32((0..len).map(|_| self.rng.range(0, n - 1) as i32).collect())
            } else if Some(info.id) == self.flag {
                Buffer::I32(vec![self.rng.range(1, 3) as i32])
            } else {
                match info.elem {
                    Scalar::F32 => {
                        Buffer::F32((0..len).map(|_| self.rng.range(1, 8) as f32).collect())
                    }
                    Scalar::I32 => {
                        Buffer::I32((0..len).map(|_| self.rng.range(1, 8) as i32).collect())
                    }
                    _ => Buffer::zeroed(info.elem, len),
                }
            };
            out.push((info.name.to_string(), buf));
        }
        out
    }

    // ---------------------------------------------------------------
    // Host-level features
    // ---------------------------------------------------------------

    fn gen_feature(&mut self) -> Vec<HostStmt> {
        match self.rng.below(12) {
            0..=2 => vec![HostStmt::Launch(self.gen_map_kernel(None, None))],
            3 | 4 => self.gen_data_region(),
            5 => {
                let t = self.b.var("t");
                let k = self.gen_map_kernel(Some(t), None);
                vec![HostStmt::HostLoop {
                    var: t,
                    lo: Expr::iconst(0),
                    hi: Expr::iconst(2),
                    body: vec![HostStmt::Launch(k)],
                }]
            }
            6 => match self.flag {
                Some(f) => {
                    let work = self.gen_map_kernel(None, None);
                    let countdown = self.gen_countdown(f);
                    vec![HostStmt::WhileFlag {
                        flag: f,
                        max_iters: 4,
                        body: vec![HostStmt::Launch(work), HostStmt::Launch(countdown)],
                    }]
                }
                None => vec![HostStmt::Launch(self.gen_map_kernel(None, None))],
            },
            7 | 8 => vec![HostStmt::Launch(self.gen_reduction_kernel())],
            9 => match self.rr_dest {
                Some(r) => vec![HostStmt::Launch(self.gen_rr_kernel(r))],
                None => vec![HostStmt::Launch(self.gen_map_kernel(None, None))],
            },
            10 => match self.nn_in {
                Some(src) => vec![HostStmt::Launch(self.gen_grouped_kernel(src))],
                None => vec![HostStmt::Launch(self.gen_reduction_kernel())],
            },
            _ => {
                // Host-side scalar work feeding a launch.
                if self.rng.chance(1, 2) {
                    let idx = self.rng.range(0, 3);
                    let fc = self.fconst();
                    vec![
                        HostStmt::HostStore {
                            array: self.y,
                            index: Expr::iconst(idx),
                            value: Expr::fconst(fc),
                        },
                        HostStmt::Launch(self.gen_map_kernel(None, None)),
                    ]
                } else {
                    let v = self.b.var("hv");
                    let k = self.gen_map_kernel(None, Some(v));
                    vec![
                        HostStmt::HostAssign {
                            var: v,
                            ty: Scalar::I32,
                            value: Expr::bin(
                                paccport_ir::expr::BinOp::Sub,
                                Expr::param(self.n),
                                Expr::iconst(1),
                            ),
                        },
                        HostStmt::Launch(k),
                    ]
                }
            }
        }
    }

    /// A structured data region (or an equivalent unstructured
    /// `EnterData`/`ExitData` pair) covering `In`/`InOut` arrays, with
    /// one or two launches and an optional `update` sandwich.
    fn gen_data_region(&mut self) -> Vec<HostStmt> {
        let mut cov: Vec<ArrayId> = self
            .arrays
            .iter()
            .filter(|a| a.intent.copies_in())
            .filter(|_| true)
            .map(|a| a.id)
            .collect();
        // Keep a random nonempty subset, always including y.
        cov.retain(|a| *a == self.y || self.rng.chance(2, 3));
        let sandwich = self.rng.chance(1, 2);
        let mut inner = Vec::new();
        if sandwich {
            // Launch(writes y) → update host(y) [→ update device(y)]:
            // the kernel is plain-affine, so no personality can demote
            // it to a host fallback and make the forced device→host
            // copy publish stale data.
            let k = self.gen_affine_kernel(self.y);
            inner.push(HostStmt::Launch(k));
            inner.push(HostStmt::Update {
                array: self.y,
                dir: Dir::ToHost,
            });
            if self.rng.chance(1, 2) {
                inner.push(HostStmt::Update {
                    array: self.y,
                    dir: Dir::ToDevice,
                });
            }
            if self.rng.chance(1, 2) {
                inner.push(HostStmt::Launch(self.gen_map_kernel(None, None)));
            }
        } else {
            inner.push(HostStmt::Launch(self.gen_map_kernel(None, None)));
            if self.rng.chance(1, 2) {
                inner.push(HostStmt::Launch(self.gen_map_kernel(None, None)));
            }
        }
        if self.rng.chance(1, 4) {
            // OpenACC 2.0 unstructured form of the same lifetime.
            let mut out = vec![HostStmt::EnterData {
                arrays: cov.clone(),
            }];
            out.extend(inner);
            out.push(HostStmt::ExitData { arrays: cov });
            out
        } else {
            vec![HostStmt::DataRegion {
                arrays: cov,
                body: inner,
            }]
        }
    }

    // ---------------------------------------------------------------
    // Kernels
    // ---------------------------------------------------------------

    fn next_kernel_name(&mut self, prefix: &str) -> String {
        self.kernels += 1;
        format!("{prefix}{}", self.kernels)
    }

    /// A general map kernel: rank 1 or 2 (optionally triangular),
    /// straight-line body with lets, stores, conditionals, sequential
    /// inner loops and the odd atomic.
    fn gen_map_kernel(&mut self, lo_var: Option<VarId>, hi_var: Option<VarId>) -> Kernel {
        let name = self.next_kernel_name("k");
        let rank = if self.rng.chance(1, 3) { 2 } else { 1 };
        let mut env = Env::default();
        if let Some(v) = lo_var {
            // Host loop variable: bound 0..2, valid as an index.
            env.idx_vars.push(v);
            env.int_vars.push(v);
        }
        let hi: Expr = match hi_var {
            Some(v) => Expr::var(v),
            None => Expr::param(self.n),
        };
        let mut loops = Vec::new();
        let i = self.b.var(&format!("i_{name}"));
        let lo: Expr = match lo_var {
            Some(v) => Expr::var(v),
            None => Expr::iconst(0),
        };
        loops.push(ParallelLoop {
            var: i,
            lo,
            hi: hi.clone(),
            clauses: self.gen_clauses(),
        });
        env.idx_vars.push(i);
        env.int_vars.push(i);
        if rank == 2 {
            let j = self.b.var(&format!("j_{name}"));
            let jlo = if self.rng.chance(1, 3) {
                Expr::var(i) // triangular, as in Gaussian elimination
            } else {
                Expr::iconst(0)
            };
            loops.push(ParallelLoop {
                var: j,
                lo: jlo,
                hi: Expr::param(self.n),
                clauses: self.gen_clauses(),
            });
            env.idx_vars.push(j);
            env.int_vars.push(j);
        }

        let mut stmts = Vec::new();
        for l in 0..self.rng.below(3) {
            let v = self.b.var(&format!("t{l}_{name}"));
            if self.rng.chance(1, 4) {
                let e = self.gen_iexpr(&env, 2);
                stmts.push(let_(v, Scalar::I32, e));
                env.int_vars.push(v);
            } else {
                let e = self.gen_fexpr(&env, 2);
                stmts.push(let_(v, Scalar::F32, e));
                env.float_vars.push(v);
            }
        }
        let n_eff = 1 + self.rng.below(3);
        for e in 0..n_eff {
            let s = self.gen_effect(&name, e, &env);
            stmts.push(s);
        }
        Kernel::simple(name, loops, Block::new(stmts))
    }

    fn gen_effect(&mut self, kname: &str, eid: u64, env: &Env) -> Stmt {
        match self.rng.below(8) {
            0..=3 => self.gen_store(env),
            4 => {
                let c = self.gen_cond(env);
                let s = self.gen_store(env);
                if_(c, vec![s])
            }
            5 => {
                let c = self.gen_cond(env);
                let a = self.gen_store(env);
                let b = self.gen_store(env);
                if_else(c, vec![a], vec![b])
            }
            6 => {
                let kv = self.b.var(&format!("kv{eid}_{kname}"));
                let hi: E = if self.rng.chance(1, 2) {
                    E::from(self.n)
                } else {
                    E::from(self.rng.range(2, 4))
                };
                let mut inner_env = env.clone();
                inner_env.idx_vars.push(kv);
                inner_env.int_vars.push(kv);
                let inner = if !env.float_vars.is_empty() && self.rng.chance(1, 2) {
                    // Scalar accumulation — the loop shape PGI's
                    // -Munroll skips.
                    let fv = *self.rng.pick(&env.float_vars);
                    let term = self.gen_fexpr(&inner_env, 1);
                    vec![assign(fv, E::from(fv) + term)]
                } else {
                    vec![self.gen_store(&inner_env)]
                };
                for_(kv, 0i64, hi, inner)
            }
            _ => {
                // Atomic accumulation into a float array.
                let target = self.pick_writable(Scalar::F32);
                let index = self.gen_index(env, target.kind);
                let value = self.gen_fexpr(env, 1);
                if target.intent.copies_out() {
                    self.wrote_observable = true;
                }
                Stmt::Atomic {
                    op: ReduceOp::Add,
                    array: target.id,
                    index: index.expr(),
                    value: value.expr(),
                }
            }
        }
    }

    fn pick_writable(&mut self, prefer: Scalar) -> ArrInfo {
        let pool: Vec<ArrInfo> = self
            .arrays
            .iter()
            .filter(|a| a.writable() && a.elem == prefer)
            .cloned()
            .collect();
        if pool.is_empty() {
            // y is always writable F32.
            self.arrays.iter().find(|a| a.id == self.y).unwrap().clone()
        } else {
            pool[self.rng.below(pool.len() as u64) as usize].clone()
        }
    }

    fn gen_store(&mut self, env: &Env) -> Stmt {
        let pool: Vec<ArrInfo> = self
            .arrays
            .iter()
            .filter(|a| a.writable())
            .cloned()
            .collect();
        let target = pool[self.rng.below(pool.len() as u64) as usize].clone();
        let index = self.gen_index(env, target.kind);
        let value = match target.elem {
            Scalar::I32 => self.gen_iexpr(env, 2),
            _ => self.gen_fexpr(env, 2),
        };
        if target.intent.copies_out() {
            self.wrote_observable = true;
        }
        Stmt::Store {
            space: MemSpace::Global,
            array: target.id,
            index: index.expr(),
            value: value.expr(),
        }
    }

    /// The plain-affine saxpy shape used inside `update` sandwiches:
    /// one store at `[i]`, loads only at `[i]` — nothing any compiler
    /// personality demotes to a host fallback.
    fn gen_affine_kernel(&mut self, target: ArrayId) -> Kernel {
        let name = self.next_kernel_name("ax");
        let i = self.b.var(&format!("i_{name}"));
        let coef: E = match self.alpha {
            Some(a) if self.rng.chance(1, 2) => E::from(a),
            _ => E::from(*self.rng.pick(&[2.0, 0.5, 3.0, -1.5])),
        };
        let value = match self.rng.below(3) {
            0 => coef * ld(self.x, i) + ld(target, i),
            1 => ld(self.x, i).fma(coef, ld(target, i)),
            _ => ld(target, i) + coef,
        };
        let mut clauses = LoopClauses::independent();
        if self.rng.chance(1, 3) {
            clauses.vector = Some(128);
        }
        self.wrote_observable = true;
        Kernel::simple(
            name,
            vec![ParallelLoop {
                var: i,
                lo: Expr::iconst(0),
                hi: Expr::param(self.n),
                clauses,
            }],
            Block::new(vec![st(target, i, value)]),
        )
    }

    /// The exact `let acc = 0; for k { acc += term }; dest[i] = acc`
    /// prefix CAPS and PGI recognize for the `reduction` directive.
    /// All term inputs are integer-valued, so the 128-lane tree
    /// lowering is bitwise-exact — and the MIC dropped-phase bug is
    /// guaranteed to lose nonzero partials.
    fn gen_reduction_kernel(&mut self) -> Kernel {
        let name = self.next_kernel_name("red");
        let i = self.b.var(&format!("i_{name}"));
        let acc = self.b.var(&format!("acc_{name}"));
        let kv = self.b.var(&format!("k_{name}"));
        let x = self.x;
        let update = match self.rng.below(4) {
            0 => assign(acc, E::from(acc) + ld(x, kv)),
            1 => assign(acc, ld(x, kv) * ld(x, kv) + E::from(acc)),
            2 => assign(
                acc,
                E::from(acc) + ld(x, kv) * E::from(*self.rng.pick(&[2.0, 3.0, 4.0])),
            ),
            _ => assign(acc, ld(x, kv).fma(E::from(2.0), acc)),
        };
        let dest = self.pick_writable(Scalar::F32);
        if dest.intent.copies_out() {
            self.wrote_observable = true;
        }
        let dest_index: E = match dest.kind {
            LenKind::N => E::from(i),
            LenKind::NN => E::from(i) * E::from(self.n),
            LenKind::One => E::from(0i64),
        };
        let mut k = Kernel::simple(
            name,
            vec![ParallelLoop {
                var: i,
                lo: Expr::iconst(0),
                hi: Expr::param(self.n),
                clauses: self.gen_clauses(),
            }],
            Block::new(vec![
                let_(acc, Scalar::F32, 0.0f64),
                for_(kv, 0i64, E::from(self.n), vec![update]),
                st(dest.id, dest_index, acc),
            ]),
        );
        k.reduction = Some(Reduction {
            op: ReduceOp::Add,
            acc,
        });
        k
    }

    /// A kernel whose result is a whole-iteration-space reduction into
    /// `dest[0]` (Hydro's Courant number shape).
    fn gen_rr_kernel(&mut self, dest: ArrayId) -> Kernel {
        let name = self.next_kernel_name("rr");
        let i = self.b.var(&format!("i_{name}"));
        let mut env = Env::default();
        env.idx_vars.push(i);
        env.int_vars.push(i);
        let mut stmts = Vec::new();
        if self.rng.chance(1, 2) {
            let v = self.b.var(&format!("t_{name}"));
            let e = self.gen_fexpr(&env, 1);
            stmts.push(let_(v, Scalar::F32, e));
            env.float_vars.push(v);
        }
        if self.rng.chance(1, 3) {
            let s = self.gen_store(&env);
            stmts.push(s);
        }
        let value = self.gen_fexpr(&env, 2);
        let op = *self
            .rng
            .pick(&[ReduceOp::Add, ReduceOp::Max, ReduceOp::Min]);
        self.wrote_observable = true; // dest is copyout
        let mut k = Kernel::simple(
            name,
            vec![ParallelLoop {
                var: i,
                lo: Expr::iconst(0),
                hi: Expr::param(self.n),
                clauses: self.gen_clauses(),
            }],
            Block::new(stmts),
        );
        k.region_reduction = Some(RegionReduction {
            op,
            value: value.expr(),
            dest,
        });
        k
    }

    /// Hand-written OpenCL-style grouped kernel: 4 lanes stage
    /// `src[g*4+lid]` into local memory, tree-combine, lane 0 stores
    /// the group sum. The 4-phase form diverges observably under the
    /// CAPS dropped-phases bug; the 2-phase form (no interior phases)
    /// is *benignly* miscompiled — flagged wrong, yet value-correct.
    fn gen_grouped_kernel(&mut self, src: ArrayId) -> Kernel {
        let name = self.next_kernel_name("grp");
        let g = self.b.var(&format!("g_{name}"));
        let sdata = ArrayId(0); // index into the kernel's local table
        let lid = || E(Expr::Special(SpecialVar::LocalId(0)));
        let tall = self.rng.chance(2, 3);
        let p0 = Block::new(vec![st_local(
            sdata,
            lid(),
            ld(src, E::from(g) * 4i64 + lid()),
        )]);
        let phases = if tall {
            let p1 = Block::new(vec![if_(
                lid().lt(2i64),
                vec![st_local(
                    sdata,
                    lid(),
                    ld_local(sdata, lid()) + ld_local(sdata, lid() + 2i64),
                )],
            )]);
            let p2 = Block::new(vec![if_(
                lid().lt(1i64),
                vec![st_local(
                    sdata,
                    lid(),
                    ld_local(sdata, lid()) + ld_local(sdata, lid() + 1i64),
                )],
            )]);
            let p3 = Block::new(vec![if_(
                lid().eq_(0i64),
                vec![st(self.y, g, ld_local(sdata, 0i64))],
            )]);
            vec![p0, p1, p2, p3]
        } else {
            let p1 = Block::new(vec![if_(
                lid().eq_(0i64),
                vec![st(
                    self.y,
                    g,
                    ld_local(sdata, 0i64)
                        + ld_local(sdata, 1i64)
                        + ld_local(sdata, 2i64)
                        + ld_local(sdata, 3i64),
                )],
            )]);
            vec![p0, p1]
        };
        self.wrote_observable = true;
        Kernel {
            name,
            loops: vec![ParallelLoop::new(g, Expr::iconst(0), Expr::param(self.n))],
            body: KernelBody::Grouped(GroupedBody {
                group_size: 4,
                locals: vec![LocalArrayDecl {
                    name: "sdata".into(),
                    elem: Scalar::F32,
                    len: 4,
                }],
                phases,
            }),
            locals: Vec::new(),
            region_reduction: None,
            reduction: None,
            launch_hint: None,
        }
    }

    /// `flag[0] = max(flag[0]-1, 0)` — drives WhileFlag to terminate
    /// after exactly the flag's initial value of iterations.
    fn gen_countdown(&mut self, flag: ArrayId) -> Kernel {
        let name = self.next_kernel_name("cd");
        let c = self.b.var(&format!("c_{name}"));
        Kernel::simple(
            name,
            vec![ParallelLoop::new(c, Expr::iconst(0), Expr::iconst(1))],
            Block::new(vec![st(flag, 0i64, (ld(flag, 0i64) - 1i64).max(0i64))]),
        )
    }

    // ---------------------------------------------------------------
    // Clauses
    // ---------------------------------------------------------------

    fn gen_clauses(&mut self) -> LoopClauses {
        let mut c = LoopClauses {
            independent: self.rng.chance(1, 2),
            ..Default::default()
        };
        if self.rng.chance(1, 4) {
            c.gang = Some(*self.rng.pick(&[64u32, 128, 256]));
        }
        if self.rng.chance(1, 6) {
            c.worker = Some(*self.rng.pick(&[2u32, 4]));
        }
        if self.rng.chance(1, 4) {
            c.vector = Some(*self.rng.pick(&[64u32, 128]));
        }
        if self.rng.chance(1, 6) {
            c.tile = Some(*self.rng.pick(&[2u32, 4]));
        }
        if self.rng.chance(1, 8) {
            c.unroll_jam = Some(2);
        }
        if self.rng.chance(1, 8) {
            c.device_overrides = vec![DeviceTypeClause {
                device: *self.rng.pick(&[
                    AccDeviceType::Nvidia,
                    AccDeviceType::Radeon,
                    AccDeviceType::XeonPhi,
                ]),
                gang: Some(128),
                worker: None,
                vector: Some(64),
            }];
        }
        c
    }

    // ---------------------------------------------------------------
    // Expressions
    // ---------------------------------------------------------------

    /// Float constants that are exact in f32 and never hit a simplify
    /// identity (no 0.0, no ±1.0).
    fn fconst(&mut self) -> f64 {
        *self.rng.pick(&[2.0, 0.5, -1.5, 3.0, 4.0, -2.5, 1.25])
    }

    /// Provably in-bounds index expression for an array of `kind`.
    fn gen_index(&mut self, env: &Env, kind: LenKind) -> E {
        match kind {
            LenKind::One => E::from(0i64),
            LenKind::N => {
                if env.idx_vars.is_empty() {
                    return E::from(self.rng.range(0, 3));
                }
                let v = *self.rng.pick(&env.idx_vars);
                match self.rng.below(10) {
                    0..=4 => E::from(v),
                    5 => (E::from(v) + self.rng.range(1, 3)) % E::from(self.n),
                    6 => (E::from(v) + self.rng.range(1, 3)).min(E::from(self.n) - 1i64),
                    7 => E::from(self.rng.range(0, 3)),
                    8 => match self.idx_arr {
                        Some(ia) => ld(ia, E::from(v)), // values 0..n-1
                        None => E::from(v),
                    },
                    _ => E::from(v),
                }
            }
            LenKind::NN => {
                if env.idx_vars.len() >= 2 && self.rng.chance(3, 4) {
                    let a = env.idx_vars[env.idx_vars.len() - 2];
                    let b = env.idx_vars[env.idx_vars.len() - 1];
                    E::from(a) * E::from(self.n) + E::from(b)
                } else if !env.idx_vars.is_empty() {
                    let v = *self.rng.pick(&env.idx_vars);
                    match self.rng.below(3) {
                        0 => E::from(v) * E::from(self.n) + self.rng.range(0, 3),
                        1 => E::from(v),
                        _ => (E::from(v) * 3i64 + 1i64) % (E::from(self.n) * E::from(self.n)),
                    }
                } else {
                    E::from(self.rng.range(0, 15))
                }
            }
        }
    }

    /// Float-typed value expression. Integer subexpressions only enter
    /// through an explicit f32 cast.
    fn gen_fexpr(&mut self, env: &Env, depth: u32) -> E {
        if depth == 0 || self.rng.chance(2, 5) {
            return match self.rng.below(6) {
                0 => E::from(self.fconst()),
                1 => match self.alpha {
                    Some(a) => E::from(a),
                    None => E::from(self.fconst()),
                },
                2 if !env.float_vars.is_empty() => E::from(*self.rng.pick(&env.float_vars)),
                _ => {
                    let pool: Vec<ArrInfo> = self
                        .arrays
                        .iter()
                        .filter(|a| a.elem == Scalar::F32 && a.kind != LenKind::One)
                        .cloned()
                        .collect();
                    let a = pool[self.rng.below(pool.len() as u64) as usize].clone();
                    let idx = self.gen_index(env, a.kind);
                    ld(a.id, idx)
                }
            };
        }
        let d = depth - 1;
        match self.rng.below(10) {
            0 => self.gen_fexpr(env, d) + self.gen_fexpr(env, d),
            1 => self.gen_fexpr(env, d) - self.gen_fexpr(env, d),
            2 => self.gen_fexpr(env, d) * self.gen_fexpr(env, d),
            3 => self.gen_fexpr(env, d).min(self.gen_fexpr(env, d)),
            4 => self.gen_fexpr(env, d).max(self.gen_fexpr(env, d)),
            5 => self.gen_fexpr(env, d) / E::from(*self.rng.pick(&[2.0, 4.0, -2.0, 8.0])),
            6 => {
                let a = self.gen_fexpr(env, d);
                let b = self.gen_fexpr(env, d);
                let c = self.gen_fexpr(env, d);
                a.fma(b, c)
            }
            7 => {
                let a = self.gen_fexpr(env, d);
                if self.rng.chance(1, 2) {
                    -a
                } else {
                    a.abs()
                }
            }
            8 => self.gen_iexpr(env, d).cast(Scalar::F32),
            _ => {
                let c = self.gen_cond(env);
                let a = self.gen_fexpr(env, d);
                let b = self.gen_fexpr(env, d);
                c.select(a, b)
            }
        }
    }

    /// Integer-typed value expression, magnitude-bounded.
    fn gen_iexpr(&mut self, env: &Env, depth: u32) -> E {
        if depth == 0 || self.rng.chance(2, 5) {
            return match self.rng.below(5) {
                0 => E::from(self.rng.range(0, 4)),
                1 => E::from(self.rng.range(-2, 4)),
                2 if !env.int_vars.is_empty() => E::from(*self.rng.pick(&env.int_vars)),
                3 => E::from(self.n),
                _ => {
                    let pool: Vec<ArrInfo> = self
                        .arrays
                        .iter()
                        .filter(|a| a.elem == Scalar::I32 && a.kind == LenKind::N)
                        .cloned()
                        .collect();
                    if pool.is_empty() {
                        E::from(self.n)
                    } else {
                        let a = pool[self.rng.below(pool.len() as u64) as usize].clone();
                        let idx = self.gen_index(env, a.kind);
                        ld(a.id, idx)
                    }
                }
            };
        }
        let d = depth - 1;
        match self.rng.below(9) {
            0 => self.gen_iexpr(env, d) + self.gen_iexpr(env, d),
            1 => self.gen_iexpr(env, d) - self.gen_iexpr(env, d),
            2 => self.gen_iexpr(env, d) * self.gen_iexpr(env, d),
            3 => self.gen_iexpr(env, d).min(self.gen_iexpr(env, d)),
            4 => self.gen_iexpr(env, d).max(self.gen_iexpr(env, d)),
            5 => self.gen_iexpr(env, d) / E::from(self.rng.range(2, 4)),
            6 => self.gen_iexpr(env, d) % E::from(self.rng.range(2, 4)),
            7 => {
                let sh = self.rng.range(1, 3);
                let a = self.gen_iexpr(env, d);
                let op = if self.rng.chance(1, 2) {
                    paccport_ir::expr::BinOp::Shl
                } else {
                    paccport_ir::expr::BinOp::Shr
                };
                E(Expr::bin(op, a.expr(), Expr::iconst(sh)))
            }
            _ => {
                let c = self.gen_cond(env);
                let a = self.gen_iexpr(env, d);
                let b = self.gen_iexpr(env, d);
                c.select(a, b)
            }
        }
    }

    fn gen_cond(&mut self, env: &Env) -> E {
        let cmp_i = |g: &mut Gen, env: &Env| {
            let a = g.gen_iexpr(env, 1);
            let b = g.gen_iexpr(env, 1);
            match g.rng.below(6) {
                0 => a.lt(b),
                1 => a.le(b),
                2 => a.gt(b),
                3 => a.ge(b),
                4 => a.eq_(b),
                _ => a.ne_(b),
            }
        };
        match self.rng.below(6) {
            0..=2 => cmp_i(self, env),
            3 => {
                let a = self.gen_fexpr(env, 1);
                let b = self.gen_fexpr(env, 1);
                if self.rng.chance(1, 2) {
                    a.lt(b)
                } else {
                    a.ge(b)
                }
            }
            4 => {
                let a = cmp_i(self, env);
                let b = cmp_i(self, env);
                a.and(b)
            }
            _ => !cmp_i(self, env),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::program_to_string;

    #[test]
    fn generation_is_deterministic_per_seed_and_index() {
        for idx in 0..10 {
            let a = generate(42, idx);
            let b = generate(42, idx);
            assert_eq!(program_to_string(&a.program), program_to_string(&b.program));
            assert_eq!(a.params, b.params);
            assert_eq!(a.inputs, b.inputs);
        }
    }

    #[test]
    fn generated_programs_validate() {
        for idx in 0..50 {
            let c = generate(7, idx);
            paccport_ir::validate(&c.program).expect("generated program must validate");
        }
    }

    #[test]
    fn different_indices_differ() {
        let a = generate(42, 0);
        let b = generate(42, 1);
        assert_ne!(program_to_string(&a.program), program_to_string(&b.program));
    }

    #[test]
    fn every_program_has_an_observable_array() {
        for idx in 0..30 {
            let c = generate(3, idx);
            assert!(
                c.program.arrays.iter().any(|a| a.intent.copies_out()),
                "program {idx} has no observable array"
            );
        }
    }
}
