//! The bytecode VM runs each phase of a work-group kernel across all
//! the group's lanes at once. Every test here runs one grouped kernel
//! on the tree-walker and on the VM and requires the same buffers,
//! races, access and conflict counts, panic message and watchdog
//! outcome. The `bytecode.batched_group_lanes` and
//! `bytecode.group_fallbacks` trace counters say which path each phase
//! took: a phase whose lanes could interfere, or that could panic,
//! must run lane by lane and still match.

use paccport_compilers::transforms::{reduction_to_grouped, unroll_grouped_phases, VarAlloc};
use paccport_devsim::interp::KernelFidelity;
use paccport_devsim::{exec_kernel_tiered, fresh_vars, Buffer, ExecTier, Race, RaceTracker, V};
use paccport_ir::{
    assign, for_, if_, if_else, ld, ld_local, let_, st, st_local, Block, CmpOp, Expr, GroupedBody,
    Intent, Kernel, KernelBody, LocalArrayDecl, ParallelLoop, Program, ProgramBuilder, Scalar,
    SpecialVar, Stmt, E,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The trace counters and the watchdog are process-wide and
/// thread-local respectively: one test at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Everything a launch can be observed by.
#[derive(Debug, PartialEq)]
struct Observed {
    bufs: Vec<Vec<u64>>,
    races: Vec<Race>,
    accesses: u64,
    conflicts: u64,
    panic: Option<String>,
    /// With a watchdog budget: whether it tripped, and whether a step
    /// was left over afterwards.
    budget: Option<(bool, bool)>,
}

/// How to launch a kernel.
#[derive(Clone, Copy)]
struct Run {
    fidelity: KernelFidelity,
    tracked: bool,
    budget: Option<u64>,
}

const PLAIN: Run = Run {
    fidelity: KernelFidelity::Exact,
    tracked: false,
    budget: None,
};

struct Case {
    p: Program,
    k: Kernel,
    params: Vec<V>,
    bufs: Vec<Buffer>,
}

impl Case {
    fn launch(&self, tier: ExecTier, run: Run) -> Observed {
        let globals = self
            .p
            .arrays
            .iter()
            .zip(&self.bufs)
            .map(|(a, b)| (&*a.name, b.len()))
            .collect();
        let locals = match &self.k.body {
            KernelBody::Grouped(g) => g.locals.iter().map(|l| (&*l.name, l.len)).collect(),
            KernelBody::Simple(_) => Vec::new(),
        };
        let tracker = RaceTracker::new(&self.k.name, globals, locals, false);
        let mut bufs = self.bufs.clone();
        if let Some(b) = run.budget {
            paccport_faults::arm_watchdog(b);
        }
        let hit = catch_unwind(AssertUnwindSafe(|| {
            let mut vars = fresh_vars(&self.p);
            exec_kernel_tiered(
                &self.p,
                &self.params,
                &self.k,
                &mut vars,
                &mut bufs,
                run.fidelity,
                run.tracked.then_some(&tracker),
                tier,
            );
        }))
        .err();
        let budget = run.budget.map(|_| {
            let tripped = hit
                .as_ref()
                .is_some_and(|e| paccport_faults::timeout_of(e.as_ref()).is_some());
            // Exhausting the budget exactly leaves it armed; spend one
            // more step to tell "0 left" from "some left".
            let left = !tripped && paccport_faults::try_charge(1);
            paccport_faults::disarm_watchdog();
            (tripped, left)
        });
        let panic = hit
            .filter(|e| paccport_faults::timeout_of(e.as_ref()).is_none())
            .map(|e| {
                e.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            });
        Observed {
            bufs: bufs.iter().map(Buffer::bits).collect(),
            races: tracker.races(),
            accesses: tracker.accesses(),
            conflicts: tracker.conflicts(),
            panic,
            budget,
        }
    }

    /// Launch on both tiers, require bitwise-equal observations, and
    /// return them with the VM's (batched lane-phases, fallen-back
    /// phases).
    fn both(&self, run: Run) -> (Observed, (u64, u64)) {
        let counters = || {
            let s = paccport_trace::summary();
            (
                s.counter("bytecode.batched_group_lanes"),
                s.counter("bytecode.group_fallbacks"),
            )
        };
        let tree = self.launch(ExecTier::Tree, run);
        let before = counters();
        let byte = self.launch(ExecTier::Bytecode, run);
        let after = counters();
        assert_eq!(tree, byte, "tiers diverged");
        (byte, (after.0 - before.0, after.1 - before.1))
    }
}

fn serial() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    paccport_trace::set_enabled(true);
    guard
}

/// `out[g] = Σ_k x[k]` for `groups` rows through
/// `reduction_to_grouped` at group size `gsz`: a strided partial, a
/// `tid % 2s == 0` tree, a lane-0 epilogue. `unroll` unrolls the
/// partial by 2 like CAPS does, which bounds its loops by per-lane
/// integers that are not affine.
fn tree_sum(gsz: u32, n: i64, groups: i64, unroll: bool) -> Case {
    let mut b = ProgramBuilder::new("tree");
    let np = b.iparam("n");
    let x = b.array("x", Scalar::F32, np, Intent::In);
    let out = b.array("out", Scalar::F32, groups, Intent::Out);
    let j = b.var("j");
    let kv = b.var("k");
    let s = b.var("s");
    let mut k = Kernel::simple(
        "tree",
        vec![ParallelLoop::new(j, Expr::iconst(0), Expr::iconst(groups))],
        Block::new(vec![
            let_(s, Scalar::F32, 0.0),
            for_(kv, 0i64, np, vec![assign(s, E::from(s) + ld(x, kv))]),
            st(out, j, E::from(s)),
        ]),
    );
    let mut p = b.finish(vec![]);
    let mut va = VarAlloc::new(&mut p.var_names);
    assert!(reduction_to_grouped(&mut k, gsz, &mut va));
    if unroll {
        let kinds = paccport_ir::KindEnv::for_program(&p);
        assert!(unroll_grouped_phases(&mut k, 2, &kinds));
    }
    Case {
        p,
        k,
        params: vec![V::I(n)],
        bufs: vec![
            Buffer::F32((0..n).map(|v| (v % 13) as f32 + 0.5).collect()),
            Buffer::zeroed(Scalar::F32, groups as usize),
        ],
    }
}

/// A hand-written grouped kernel over `groups` groups of `gsz` lanes
/// with one `gsz`-element local array `sdata`, a global input `x` and
/// a global output `out` (one slot per lane of every group).
fn grouped(gsz: usize, groups: i64, phases: impl Fn(Ids) -> Vec<Vec<Stmt>>) -> Case {
    let mut b = ProgramBuilder::new("grp");
    let len = gsz as i64 * groups;
    let x = b.array("x", Scalar::F32, len, Intent::In);
    let out = b.array("out", Scalar::F32, len, Intent::InOut);
    let g = b.var("g");
    let tid = b.var("tid");
    let v = b.var("v");
    let k = b.var("k");
    let ids = Ids {
        x,
        out,
        g,
        tid,
        v,
        k,
        sdata: paccport_ir::ArrayId(0),
        gsz: gsz as i64,
    };
    let mut k = Kernel::simple(
        "grp",
        vec![ParallelLoop::new(g, Expr::iconst(0), Expr::iconst(groups))],
        Block::default(),
    );
    k.body = KernelBody::Grouped(GroupedBody {
        group_size: gsz as u32,
        locals: vec![LocalArrayDecl {
            name: "sdata".into(),
            elem: Scalar::F32,
            len: gsz,
        }],
        phases: phases(ids).into_iter().map(Block::new).collect(),
    });
    let p = b.finish(vec![]);
    Case {
        p,
        k,
        params: Vec::new(),
        bufs: vec![
            Buffer::F32((0..len).map(|v| (v % 7) as f32 - 1.5).collect()),
            Buffer::zeroed(Scalar::F32, len as usize),
        ],
    }
}

#[derive(Clone, Copy)]
struct Ids {
    x: paccport_ir::ArrayId,
    out: paccport_ir::ArrayId,
    g: paccport_ir::VarId,
    tid: paccport_ir::VarId,
    /// A spare float variable.
    v: paccport_ir::VarId,
    /// A spare loop variable.
    k: paccport_ir::VarId,
    sdata: paccport_ir::ArrayId,
    gsz: i64,
}

impl Ids {
    fn lid(&self) -> E {
        E(Expr::Special(SpecialVar::LocalId(0)))
    }
    /// This lane's slot of `x`/`out`: `g·gsz + tid`.
    fn slot(&self) -> E {
        E::from(self.g) * self.gsz + self.tid
    }
    /// Phase 0: `tid = lid; sdata[tid] = x[slot]`.
    fn stage(&self) -> Vec<Stmt> {
        vec![
            let_(self.tid, Scalar::I32, self.lid()),
            st_local(self.sdata, self.tid, ld(self.x, self.slot())),
        ]
    }
    /// `tid % m == 0`.
    fn every(&self, m: i64) -> E {
        E(Expr::cmp(
            CmpOp::Eq,
            (E::from(self.tid) % m).expr(),
            Expr::iconst(0),
        ))
    }
}

#[test]
fn tree_reductions_batch_every_phase_and_match() {
    let _one = serial();
    for (gsz, n, groups, unroll) in [
        (8u32, 21i64, 3i64, false),
        (128, 300, 2, false),
        (8, 21, 3, true),
        (128, 700, 2, true),
    ] {
        let case = tree_sum(gsz, n, groups, unroll);
        let phases = match &case.k.body {
            KernelBody::Grouped(g) => g.phases.len() as u64,
            KernelBody::Simple(_) => unreachable!(),
        };
        for tracked in [false, true] {
            let run = Run { tracked, ..PLAIN };
            let (seen, (lanes, fallbacks)) = case.both(run);
            assert_eq!(
                fallbacks, 0,
                "gsz {gsz}, unroll {unroll}, tracked {tracked}"
            );
            assert_eq!(lanes, groups as u64 * phases * gsz as u64);
            let want: f32 = (0..n).map(|v| (v % 13) as f32 + 0.5).sum();
            assert_eq!(seen.bufs[1], vec![want.to_bits() as u64; groups as usize]);
            if tracked {
                assert!(seen.races.is_empty(), "{:?}", seen.races);
                assert!(seen.accesses > 0);
            }
        }
    }
}

#[test]
fn dropped_tree_phases_match_with_and_without_the_tracker() {
    let _one = serial();
    let case = tree_sum(8, 29, 2, false);
    for tracked in [false, true] {
        let run = Run {
            fidelity: KernelFidelity::DropTreePhases,
            tracked,
            budget: None,
        };
        let (seen, (lanes, fallbacks)) = case.both(run);
        assert_eq!(fallbacks, 0);
        // Phase 0 and the epilogue run; the three tree phases do not.
        assert_eq!(lanes, 2 * 2 * 8);
        let exact = case.both(PLAIN).0;
        assert_ne!(seen.bufs, exact.bufs, "dropping the tree loses partials");
    }
}

#[test]
fn cross_group_races_replay_per_phase_and_lane() {
    // Every group's lane 0 publishes its sum to `out[0]`, and every
    // lane of every group reads `out[0]` back in a later phase: races
    // between groups, attributed to the exact (group, lane, phase).
    // The counters are charged once per launch.
    let _one = serial();
    let case = grouped(8, 3, |ids| {
        let tree = |s: i64| {
            vec![if_(
                ids.every(2 * s),
                vec![st_local(
                    ids.sdata,
                    ids.tid,
                    ld_local(ids.sdata, ids.tid) + ld_local(ids.sdata, E::from(ids.tid) + s),
                )],
            )]
        };
        vec![
            ids.stage(),
            tree(1),
            tree(2),
            tree(4),
            vec![if_(
                E::from(ids.tid).eq_(0i64),
                vec![st(ids.out, 0i64, ld_local(ids.sdata, 0i64))],
            )],
            vec![st_local(ids.sdata, ids.tid, ld(ids.out, 0i64))],
        ]
    });
    let (seen, (lanes, fallbacks)) = case.both(Run {
        tracked: true,
        ..PLAIN
    });
    assert_eq!((lanes, fallbacks), (3 * 6 * 8, 0));
    assert!(!seen.races.is_empty(), "groups race on out[0]");
    assert!(seen.conflicts > 0);
}

#[test]
fn watchdog_budgets_trip_at_the_same_step_batched() {
    let _one = serial();
    let case = tree_sum(8, 19, 2, false);
    // The whole launch's steps, from the tree-walker.
    let total = (0..100_000u64)
        .find(|&b| {
            let run = Run {
                budget: Some(b),
                ..PLAIN
            };
            case.launch(ExecTier::Tree, run).budget == Some((false, false))
        })
        .expect("the launch finishes in 100k steps");
    // Every budget from none to past the end: each phase boundary is
    // covered exactly, over-covered and under-covered by one step.
    // (A tripped launch still charges the phases it batched before
    // the trip.)
    for b in 0..=total + 2 {
        let run = Run {
            budget: Some(b),
            ..PLAIN
        };
        let (seen, (lanes, _)) = case.both(run);
        assert_eq!(seen.budget.unwrap().0, b < total, "budget {b}");
        if b >= total {
            assert_eq!(lanes, 2 * 5 * 8, "budget {b}: every phase batches");
        }
    }
}

#[test]
fn an_inactive_lanes_out_of_bounds_read_still_batches() {
    // `sdata[tid + 1]` is out of range for tid = gsz - 1, which never
    // takes the arm.
    let _one = serial();
    let case = grouped(8, 2, |ids| {
        vec![
            ids.stage(),
            vec![if_(
                ids.every(2),
                vec![st_local(
                    ids.sdata,
                    ids.tid,
                    ld_local(ids.sdata, ids.tid) + ld_local(ids.sdata, E::from(ids.tid) + 1i64),
                )],
            )],
            vec![st(ids.out, ids.slot(), ld_local(ids.sdata, ids.tid))],
        ]
    });
    for tracked in [false, true] {
        let run = Run { tracked, ..PLAIN };
        let (seen, counts) = case.both(run);
        assert_eq!(counts, (2 * 3 * 8, 0), "tracked {tracked}");
        assert_eq!(seen.panic, None);
    }
}

#[test]
fn an_active_lanes_out_of_bounds_read_falls_back_and_panics_alike() {
    // Lane 6 takes the arm and reads `sdata[8]`: the tree panics
    // there, after lanes 0, 2 and 4 stored and group 0 published. The
    // panicking launch still charges what it did: group 0's three
    // phases and group 1's first two batched, then group 1's last
    // phase fell back.
    let _one = serial();
    let case = grouped(8, 2, |ids| {
        vec![
            ids.stage(),
            vec![if_(
                E::from(ids.tid).lt(5i64),
                vec![st(ids.out, ids.slot(), ld_local(ids.sdata, ids.tid))],
            )],
            vec![if_(
                E::from(ids.g).eq_(1i64),
                vec![if_(
                    ids.every(2),
                    vec![st(
                        ids.out,
                        ids.slot(),
                        ld_local(ids.sdata, E::from(ids.tid) + 2i64),
                    )],
                )],
            )],
        ]
    });
    for tracked in [false, true] {
        let run = Run { tracked, ..PLAIN };
        let (seen, counts) = case.both(run);
        let msg = seen.panic.expect("the tree panics");
        assert!(msg.contains("out of bounds"), "{msg}");
        assert_eq!(counts, ((3 + 2) * 8, 1), "tracked {tracked}");
    }
}

#[test]
fn lanes_sharing_a_local_element_fall_back() {
    // Every lane adds itself into `sdata[0]`: lane-major order sums
    // them, op-major would not.
    let _one = serial();
    let case = grouped(8, 2, |ids| {
        vec![
            ids.stage(),
            vec![st_local(
                ids.sdata,
                0i64,
                ld_local(ids.sdata, 0i64) + ld(ids.x, ids.slot()),
            )],
            vec![st(ids.out, ids.slot(), ld_local(ids.sdata, 0i64))],
        ]
    });
    for tracked in [false, true] {
        let run = Run { tracked, ..PLAIN };
        let (_, (lanes, fallbacks)) = case.both(run);
        assert_eq!(fallbacks, 2, "the shared phase runs lane by lane");
        assert_eq!(lanes, 2 * 2 * 8);
    }
}

#[test]
fn a_zero_divisor_falls_back_and_panics_alike() {
    let _one = serial();
    let case = grouped(8, 2, |ids| {
        vec![
            ids.stage(),
            vec![if_(
                E::from(ids.tid).eq_(0i64),
                vec![st(ids.out, ids.slot(), 1.0)],
            )],
            vec![if_(
                E(Expr::cmp(
                    CmpOp::Eq,
                    (E::from(ids.tid) % (E::from(ids.g) - 1i64)).expr(),
                    Expr::iconst(0),
                )),
                vec![st(ids.out, ids.slot(), 2.0)],
            )],
        ]
    });
    let (seen, _) = case.both(PLAIN);
    let msg = seen.panic.expect("tid % 0 panics in group 1");
    assert!(msg.contains("remainder by zero"), "{msg}");
}

#[test]
fn a_variable_assigned_in_two_arms_matches() {
    // Phase 0 sets `v` on every lane, phase 1 reassigns it in `If`
    // arms, phase 2 stores it. Phase 1 batches only where one arm
    // assigns `v`; the lanes of one arm must not keep the value of
    // another, nor their old one. After that masked writeback phase 2
    // gathers `v` as floats, checked on every lane, and batches too;
    // after the rejected phases it runs lane by lane.
    let _one = serial();
    type Arms = fn(Ids) -> Vec<Stmt>;
    let shapes: [(bool, Arms); 5] = [
        (true, |ids| {
            vec![if_(ids.every(2), vec![assign(ids.v, 1.0)])]
        }),
        (false, |ids| {
            vec![if_else(
                E::from(ids.tid).lt(4i64),
                vec![assign(ids.v, 1.0)],
                vec![assign(ids.v, 2.0)],
            )]
        }),
        (false, |ids| {
            vec![
                if_(E::from(ids.tid).lt(4i64), vec![assign(ids.v, 1.0)]),
                if_(ids.every(2), vec![assign(ids.v, 2.0)]),
            ]
        }),
        (false, |ids| {
            vec![if_(
                E::from(ids.tid).lt(6i64),
                vec![
                    if_(ids.every(2), vec![assign(ids.v, 1.0)]),
                    assign(ids.v, 2.0),
                ],
            )]
        }),
        (false, |ids| {
            vec![if_(
                E::from(ids.tid).lt(6i64),
                vec![
                    assign(ids.v, 2.0),
                    if_(ids.every(2), vec![assign(ids.v, 1.0)]),
                ],
            )]
        }),
    ];
    for (i, (batches, arms)) in shapes.into_iter().enumerate() {
        let case = grouped(8, 2, |ids| {
            let mut stage = ids.stage();
            stage.push(let_(ids.v, Scalar::F32, 0.5));
            vec![stage, arms(ids), vec![st(ids.out, ids.slot(), ids.v)]]
        });
        for tracked in [false, true] {
            let run = Run { tracked, ..PLAIN };
            let (seen, (lanes, fallbacks)) = case.both(run);
            assert_eq!(seen.panic, None, "shape {i}");
            let fell = if batches { 0 } else { 4 };
            assert_eq!(fallbacks, fell, "shape {i}, tracked {tracked}");
            assert_eq!(lanes, (3 * 2 - fell) * 8, "shape {i}");
        }
    }
}

#[test]
fn every_operand_order_of_the_batch_ops_matches() {
    // One row per operand-class pair the batch VM's float, compare and
    // affine ops take: a lane operand and a scalar `s` in either order,
    // two lane operands, and int lanes (`tid % 3`). Then one row per
    // class change the compiler makes (scalar to affine, float or bool
    // lanes; affine to float or bool lanes; bool to float lanes and
    // back), per class it copies (a scalar an `If` arm assigns, a
    // masked loop's affine or int-lane counter, a pinned variable's
    // float lanes), and a scatter of a scalar and of lanes. Every row
    // batches and must match the tree-walker bit for bit, which a
    // swapped operand pair breaks on every row whose operation does
    // not commute.
    let _one = serial();
    type Row = (&'static str, fn(Ids) -> Vec<Stmt>);
    fn x(ids: Ids) -> E {
        ld(ids.x, ids.slot())
    }
    fn tid(ids: Ids) -> E {
        E::from(ids.tid)
    }
    fn put(ids: Ids, v: E) -> Vec<Stmt> {
        vec![st(ids.out, ids.slot(), v)]
    }
    fn mark(ids: Ids, c: E) -> Vec<Stmt> {
        vec![if_(c, vec![st(ids.out, ids.slot(), 1.0)])]
    }
    /// `v = 0; for k in lo..gsz { v += x[g·gsz + k] }; out[i] = v`: a
    /// masked loop when `lo` varies per lane.
    fn sum_from(ids: Ids, lo: E) -> Vec<Stmt> {
        let at = E::from(ids.g) * ids.gsz + ids.k;
        let step = assign(ids.v, E::from(ids.v) + ld(ids.x, at));
        vec![
            let_(ids.v, Scalar::F32, 0.0),
            for_(ids.k, lo, ids.gsz, vec![step]),
            st(ids.out, ids.slot(), ids.v),
        ]
    }
    let rows: [Row; 34] = [
        ("s - x[i]", |ids| put(ids, E::from(1.25) - x(ids))),
        ("x[i] - s", |ids| put(ids, x(ids) - 1.25)),
        ("s / x[i]", |ids| put(ids, E::from(1.25) / x(ids))),
        ("x[i] / s", |ids| put(ids, x(ids) / 1.25)),
        ("x[i] / (x[i] + s)", |ids| {
            put(ids, x(ids) / (x(ids) + 1.25))
        }),
        ("s < x[i]", |ids| {
            put(ids, E::from(1.25).lt(x(ids)).select(1.0, 2.0))
        }),
        ("x[i] < s", |ids| put(ids, x(ids).lt(1.25).select(1.0, 2.0))),
        ("x[i] < x[i] * s", |ids| {
            put(ids, x(ids).lt(x(ids) * 1.25).select(1.0, 2.0))
        }),
        ("tid < s", |ids| mark(ids, tid(ids).lt(3i64))),
        ("s < tid", |ids| mark(ids, E::from(3i64).lt(tid(ids)))),
        ("tid == tid + c", |ids| {
            mark(ids, tid(ids).eq_(tid(ids) + 0i64))
        }),
        ("2 tid < tid + c", |ids| {
            mark(ids, (tid(ids) * 2i64).lt(tid(ids) + 3i64))
        }),
        ("tid % 3 < s", |ids| mark(ids, (tid(ids) % 3i64).lt(1i64))),
        ("s < tid % 3", |ids| {
            mark(ids, E::from(1i64).lt(tid(ids) % 3i64))
        }),
        ("tid + s", |ids| put(ids, tid(ids) + 3i64)),
        ("tid - s", |ids| put(ids, tid(ids) - 3i64)),
        ("s - tid", |ids| put(ids, E::from(3i64) - tid(ids))),
        ("tid + tid", |ids| put(ids, tid(ids) + tid(ids))),
        ("tid - 2 tid", |ids| put(ids, tid(ids) - tid(ids) * 2i64)),
        ("tid * s", |ids| put(ids, tid(ids) * 3i64)),
        ("s * tid", |ids| put(ids, E::from(3i64) * tid(ids))),
        ("Cvt S to A: out[g gsz] = x[i]", |ids| {
            vec![st(ids.out, E::from(ids.g) * ids.gsz, x(ids))]
        }),
        ("Cvt S to LF: x[i] < s ? s : x[i]", |ids| {
            put(ids, x(ids).lt(1.25).select(1.25, x(ids)))
        }),
        ("Cvt S to LB: if g == 1", |ids| {
            mark(ids, E::from(ids.g).eq_(1i64))
        }),
        ("Cvt A to LF: out[i] = tid", |ids| put(ids, tid(ids))),
        ("Cvt A to LB: !tid", |ids| {
            put(ids, (!tid(ids)).select(1.0, 2.0))
        }),
        ("Cvt LB to LF: out[i] = tid < s", |ids| {
            put(ids, tid(ids).lt(3i64))
        }),
        ("Cvt LF to LB: !(x[i] - s)", |ids| {
            put(ids, (!(x(ids) - 0.5)).select(1.0, 2.0))
        }),
        ("Copy S: v = s in an arm", |ids| {
            vec![if_(ids.every(2), vec![assign(ids.v, 1.0)])]
        }),
        ("Copy A: k from tid", |ids| sum_from(ids, tid(ids))),
        ("Copy LI: k from tid % 3", |ids| {
            sum_from(ids, tid(ids) % 3i64)
        }),
        ("Copy LF: pin v = x[i]", |ids| {
            vec![
                let_(ids.v, Scalar::F32, x(ids)),
                for_(
                    ids.k,
                    0i64,
                    2i64,
                    vec![assign(ids.v, E::from(ids.v) * 1.25)],
                ),
                st(ids.out, ids.slot(), ids.v),
            ]
        }),
        ("Scatter S: out[i] = s", |ids| put(ids, E::from(1.25))),
        ("Scatter LF: out[i] = x[i]", |ids| put(ids, x(ids))),
    ];
    for (name, row) in rows {
        let case = grouped(8, 2, |ids| {
            let mut phase = ids.stage();
            phase.extend(row(ids));
            vec![phase]
        });
        for tracked in [false, true] {
            let run = Run { tracked, ..PLAIN };
            let (seen, counts) = case.both(run);
            assert_eq!(seen.panic, None, "{name}");
            assert_eq!(counts, (2 * 8, 0), "{name}, tracked {tracked}");
        }
    }
}
