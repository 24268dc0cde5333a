//! The bytecode VM batches innermost parallel loops under the race
//! detector and the watchdog too. A batch tapes its memory accesses
//! and replays them into the tracker lane by lane, so every test here
//! runs one kernel on both tiers with the tracker on and requires the
//! same buffers, variables, races, access count and conflict count.
//! The `bytecode.batched_lanes` trace counter says whether the batch
//! path ran; a batch whose lanes could interfere must fall back to the
//! scalar VM and still report the race.

use paccport_devsim::interp::KernelFidelity;
use paccport_devsim::{
    exec_kernel_tiered, fresh_vars, Buffer, ExecTier, Race, RaceKind, RaceTracker, ThreadId, V,
};
use paccport_ir::{
    assign, for_, if_, ld, let_, st, Block, Intent, Kernel, ParallelLoop, Program, ProgramBuilder,
    Scalar, Stmt, VarId, E,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// The trace counter is process-wide: one test at a time reads it.
static COUNTER: Mutex<()> = Mutex::new(());

/// Everything a launch can be observed by.
#[derive(Debug, PartialEq)]
struct Observed {
    bufs: Vec<Vec<u64>>,
    vars: Vec<Option<V>>,
    races: Vec<Race>,
    accesses: u64,
    conflicts: u64,
}

fn launch(
    p: &Program,
    vars: &[Option<V>],
    params: &[V],
    bufs: &[Buffer],
    tier: ExecTier,
) -> Observed {
    let k = &p.kernels()[0];
    let globals = p
        .arrays
        .iter()
        .zip(bufs)
        .map(|(a, b)| (&*a.name, b.len()))
        .collect();
    let tracker = RaceTracker::new(&k.name, globals, Vec::new(), false);
    let mut bufs = bufs.to_vec();
    let mut vars = vars.to_vec();
    exec_kernel_tiered(
        p,
        params,
        k,
        &mut vars,
        &mut bufs,
        KernelFidelity::Exact,
        Some(&tracker),
        tier,
    );
    Observed {
        bufs: bufs.iter().map(Buffer::bits).collect(),
        vars,
        races: tracker.races(),
        accesses: tracker.accesses(),
        conflicts: tracker.conflicts(),
    }
}

/// Run the program's kernel on both tiers with the tracker on, require
/// bitwise-equal observations, and return them with the number of
/// lanes the bytecode tier ran batched.
fn both_tiers(p: &Program, vars: &[Option<V>], params: &[V], bufs: &[Buffer]) -> (Observed, u64) {
    let _one = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    paccport_trace::set_enabled(true);
    let tree = launch(p, vars, params, bufs, ExecTier::Tree);
    let before = paccport_trace::summary().counter("bytecode.batched_lanes");
    let byte = launch(p, vars, params, bufs, ExecTier::Bytecode);
    let lanes = paccport_trace::summary().counter("bytecode.batched_lanes") - before;
    assert_eq!(tree, byte, "tiers diverged under the race detector");
    (byte, lanes)
}

fn f32s(n: usize, f: impl Fn(usize) -> f32) -> Buffer {
    Buffer::F32((0..n).map(f).collect())
}

fn simple(name: &str, loops: Vec<ParallelLoop>, body: Vec<Stmt>) -> Kernel {
    Kernel::simple(name, loops, Block::new(body))
}

fn par(v: VarId, lo: impl Into<E>, hi: impl Into<E>) -> ParallelLoop {
    ParallelLoop::new(v, lo.into().expr(), hi.into().expr())
}

#[test]
fn outer_iterations_writing_one_row_batch_and_race_at_level_0() {
    const ROWS: i64 = 4;
    const COLS: i64 = 8;
    let mut b = ProgramBuilder::new("row");
    let x = b.array("x", Scalar::F32, ROWS * COLS, Intent::In);
    let row = b.array("row", Scalar::F32, COLS, Intent::Out);
    let i = b.var("i");
    let j = b.var("j");
    let k = simple(
        "row",
        vec![par(i, 0i64, ROWS), par(j, 0i64, COLS)],
        vec![st(row, j, ld(x, E::from(i) * COLS + j) * 2.0)],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [
        f32s((ROWS * COLS) as usize, |e| e as f32 * 0.5),
        f32s(COLS as usize, |_| 0.0),
    ];
    let (seen, lanes) = both_tiers(&p, &fresh_vars(&p), &[], &bufs);
    assert_eq!(lanes, (ROWS * COLS) as u64, "every row must batch");
    assert_eq!(seen.accesses, 2 * (ROWS * COLS) as u64);
    let ww: Vec<_> = seen
        .races
        .iter()
        .filter(|r| r.kind == RaceKind::WriteWrite)
        .collect();
    assert_eq!(ww.len(), 1, "{:?}", seen.races);
    assert_eq!(ww[0].level, Some(0));
    assert_eq!(ww[0].array, "row");
}

#[test]
fn conflicting_inner_lanes_fall_back_and_still_race() {
    // Every lane reads and writes `acc[0]`: a lost update the batch
    // could not reproduce lane-major, so it must not run.
    const N: i64 = 16;
    let mut b = ProgramBuilder::new("lost");
    let x = b.array("x", Scalar::F32, N, Intent::In);
    let acc = b.array("acc", Scalar::F32, 1i64, Intent::InOut);
    let j = b.var("j");
    let k = simple(
        "lost",
        vec![par(j, 0i64, N)],
        vec![st(acc, 0i64, ld(acc, 0i64) + ld(x, j))],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [f32s(N as usize, |e| e as f32 + 1.0), f32s(1, |_| 0.5)];
    let (seen, lanes) = both_tiers(&p, &fresh_vars(&p), &[], &bufs);
    assert_eq!(lanes, 0, "conflicting lanes must not batch");
    let kinds: Vec<_> = seen.races.iter().map(|r| (r.kind, r.level)).collect();
    assert!(
        kinds.contains(&(RaceKind::WriteWrite, Some(0))),
        "{kinds:?}"
    );
    assert!(kinds.contains(&(RaceKind::ReadWrite, Some(0))), "{kinds:?}");
}

#[test]
fn fan2a_shaped_disjoint_read_and_write_batch() {
    // Gaussian elimination's row update: row `i2` is rewritten from
    // itself and pivot row `t`, which no lane writes (`i2 > t`). `t` is
    // a host-loop variable of unknown static type.
    const N: i64 = 9;
    const T: i64 = 3;
    let mut b = ProgramBuilder::new("fan2a");
    let n = b.iparam("n");
    let a = b.array("a", Scalar::F32, N * N, Intent::InOut);
    let m = b.array("m", Scalar::F32, N * N, Intent::In);
    let t = b.var("t");
    let i2 = b.var("i2");
    let j = b.var("j");
    let k = simple(
        "fan2a",
        vec![par(i2, E::from(t) + 1i64, n), par(j, t, n)],
        vec![st(
            a,
            E::from(i2) * n + j,
            ld(a, E::from(i2) * n + j) - ld(m, E::from(i2) * n + t) * ld(a, E::from(t) * n + j),
        )],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let mut vars = fresh_vars(&p);
    vars[t.0 as usize] = Some(V::I(T));
    let bufs = [
        f32s((N * N) as usize, |e| (e % 7) as f32 - 2.5),
        f32s((N * N) as usize, |e| (e % 5) as f32 * 0.25),
    ];
    let (seen, lanes) = both_tiers(&p, &vars, &[V::I(N)], &bufs);
    assert!(seen.races.is_empty(), "{:?}", seen.races);
    assert_eq!(
        lanes,
        ((N - T - 1) * (N - T)) as u64,
        "every row must batch"
    );
    assert_eq!(seen.accesses, 4 * lanes);
}

#[test]
fn overlapping_read_and_write_ranges_fall_back() {
    // Lane `j` reads `a[j + 1]`, which lane `j + 1` writes: the ranges
    // overlap, so only the scalar order gives the right values.
    const N: i64 = 12;
    let mut b = ProgramBuilder::new("shift");
    let a = b.array("a", Scalar::F32, N + 1, Intent::InOut);
    let j = b.var("j");
    let k = simple(
        "shift",
        vec![par(j, 0i64, N)],
        vec![st(a, j, ld(a, E::from(j) + 1i64) + 1.0)],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [f32s((N + 1) as usize, |e| e as f32 * 3.0)];
    let (seen, lanes) = both_tiers(&p, &fresh_vars(&p), &[], &bufs);
    assert_eq!(lanes, 0, "overlapping ranges must not batch");
    assert_eq!(seen.races.len(), 1, "{:?}", seen.races);
    assert_eq!(seen.races[0].kind, RaceKind::ReadWrite);
    assert_eq!(seen.races[0].level, Some(0));
}

#[test]
fn lazy_select_arms_log_only_the_taken_side() {
    // Minmod-style select whose arms load: the batch evaluates both
    // arms, but each lane must log only the arm it takes.
    const N: i64 = 20;
    let mut b = ProgramBuilder::new("minmod");
    let x = b.array("x", Scalar::F32, N + 1, Intent::In);
    let y = b.array("y", Scalar::F32, N + 1, Intent::In);
    let o = b.array("o", Scalar::F32, N, Intent::Out);
    let j = b.var("j");
    let d = b.var("d");
    let pick = ld(x, j).gt(0.0).select(
        ld(x, j)
            .lt(ld(y, j))
            .select(ld(x, j), ld(y, E::from(j) + 1i64)),
        0.0,
    );
    let k = simple(
        "minmod",
        vec![par(j, 0i64, N)],
        vec![let_(d, Scalar::F32, pick), st(o, j, E::from(d) * 2.0)],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [
        f32s((N + 1) as usize, |e| ((e * 7) % 11) as f32 - 4.0),
        f32s((N + 1) as usize, |e| ((e * 5) % 9) as f32 - 2.0),
        f32s(N as usize, |_| 0.0),
    ];
    let (seen, lanes) = both_tiers(&p, &fresh_vars(&p), &[], &bufs);
    assert_eq!(lanes, N as u64);
    assert!(seen.races.is_empty(), "{:?}", seen.races);
    // The outer condition loads once; taken inner arms load twice more
    // plus one arm; every lane stores once.
    assert!(seen.accesses > 2 * N as u64 && seen.accesses < 5 * N as u64);

    // A lane-invariant condition (a host variable) takes the same arm
    // on every lane: the other arm's loads are never logged. The arms
    // load twice and once, so logging the wrong one changes the count.
    let mut b = ProgramBuilder::new("pick");
    let x = b.array("x", Scalar::F32, N + 1, Intent::In);
    let y = b.array("y", Scalar::F32, N, Intent::In);
    let o = b.array("o", Scalar::F32, N, Intent::Out);
    let (j, s) = (b.var("j"), b.var("s"));
    let pick = E::from(s)
        .gt(0i64)
        .select(ld(x, j) + ld(x, E::from(j) + 1i64), ld(y, j));
    let k = simple("pick", vec![par(j, 0i64, N)], vec![st(o, j, pick)]);
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [
        f32s((N + 1) as usize, |e| e as f32),
        f32s(N as usize, |e| -(e as f32)),
        f32s(N as usize, |_| 0.0),
    ];
    for (on, per_lane) in [(0, 2), (1, 3)] {
        let mut vars = fresh_vars(&p);
        vars[s.0 as usize] = Some(V::I(on));
        let (seen, lanes) = both_tiers(&p, &vars, &[], &bufs);
        assert_eq!(lanes, N as u64);
        assert_eq!(seen.accesses, per_lane * N as u64, "s = {on}");
    }
}

#[test]
fn masked_if_stores_batch_and_replay_only_the_taking_lanes() {
    // Gaussian elimination's reorganized `fan2`: the `j == t` lane also
    // updates the right-hand side. Only that lane touches `b`, so the
    // scatter to `b[i2]` and the loads of `b[i2]` and `b[t]` meet in
    // one lane and the batch may run.
    const N: i64 = 8;
    const T: i64 = 2;
    let mut b = ProgramBuilder::new("fan2");
    let n = b.iparam("n");
    let a = b.array("a", Scalar::F32, N * N, Intent::InOut);
    let rhs = b.array("b", Scalar::F32, N, Intent::InOut);
    let m = b.array("m", Scalar::F32, N * N, Intent::In);
    let t = b.var("t");
    let i2 = b.var("i2");
    let j = b.var("j");
    let update_a = st(
        a,
        E::from(i2) * n + j,
        ld(a, E::from(i2) * n + j) - ld(m, E::from(i2) * n + t) * ld(a, E::from(t) * n + j),
    );
    let update_b = st(
        rhs,
        i2,
        ld(rhs, i2) - ld(m, E::from(i2) * n + t) * ld(rhs, t),
    );
    let reorganized = vec![
        update_a.clone(),
        if_(E::from(j).eq_(t), vec![update_b.clone()]),
    ];
    // The hand-written OpenCL form: full ranges, nested guards.
    let guarded = vec![if_(
        E::from(i2).gt(t).and(E::from(j).ge(t)),
        vec![update_a, if_(E::from(j).eq_(t), vec![update_b])],
    )];
    let shapes = [
        (
            reorganized,
            E::from(t) + 1i64,
            E::from(t),
            (N - T - 1) * (N - T),
        ),
        (guarded, E::from(0i64), E::from(0i64), N * N),
    ];
    let p = b.finish(vec![]);
    for (body, lo_i, lo_j, lanes_want) in shapes {
        let mut p = p.clone();
        p.body = vec![paccport_ir::HostStmt::Launch(simple(
            "fan2",
            vec![par(i2, lo_i, n), par(j, lo_j, n)],
            body,
        ))];
        let mut vars = fresh_vars(&p);
        vars[t.0 as usize] = Some(V::I(T));
        let bufs = [
            f32s((N * N) as usize, |e| (e % 7) as f32 - 2.5),
            f32s(N as usize, |e| e as f32 * 0.75),
            f32s((N * N) as usize, |e| (e % 5) as f32 * 0.25),
        ];
        let (seen, lanes) = both_tiers(&p, &vars, &[V::I(N)], &bufs);
        assert!(seen.races.is_empty(), "{:?}", seen.races);
        assert_eq!(lanes, lanes_want as u64, "every row must batch");
        let rows = (N - T - 1) as u64;
        assert_eq!(seen.accesses, 4 * rows * (N - T) as u64 + 4 * rows);
    }
}

#[test]
fn masked_lanes_race_among_themselves_only() {
    // Lanes `j >= 3` all write `o[0]`: a write-write race first seen
    // between lanes 3 and 4, which the batch must replay as such.
    const N: i64 = 8;
    let mut b = ProgramBuilder::new("masked_race");
    let x = b.array("x", Scalar::F32, N, Intent::In);
    let o = b.array("o", Scalar::F32, 1i64, Intent::Out);
    let j = b.var("j");
    let k = simple(
        "masked_race",
        vec![par(j, 0i64, N)],
        vec![if_(E::from(j).ge(3i64), vec![st(o, 0i64, ld(x, j))])],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [f32s(N as usize, |e| e as f32 * 1.5), f32s(1, |_| 0.0)];
    let (seen, lanes) = both_tiers(&p, &fresh_vars(&p), &[], &bufs);
    assert_eq!(lanes, N as u64);
    assert_eq!(seen.accesses, 2 * (N - 3) as u64);
    assert_eq!(seen.races.len(), 1, "{:?}", seen.races);
    assert_eq!(seen.races[0].first, ThreadId::Iter(vec![3]));
    assert_eq!(seen.races[0].second, ThreadId::Iter(vec![4]));
}

#[test]
fn watchdog_trips_at_the_same_statement_with_batching() {
    // A sequential loop and a masked `If` inside the lane body: lane `j`
    // takes 4 + TRIPS steps, plus one when it takes the arm (`j < 2`).
    // Budgets that cover whole batches let them run batched; a budget
    // that runs out mid-batch trips where the tree trips.
    const N: i64 = 6;
    const TRIPS: i64 = 3;
    let mut b = ProgramBuilder::new("steps");
    let x = b.array("x", Scalar::F32, N, Intent::In);
    let o = b.array("o", Scalar::F32, N, Intent::Out);
    let i = b.var("i");
    let j = b.var("j");
    let s = b.var("s");
    let kv = b.var("k");
    let k = simple(
        "steps",
        vec![par(i, 0i64, 2i64), par(j, 0i64, N)],
        vec![
            let_(s, Scalar::F32, ld(x, j)),
            for_(
                kv,
                0i64,
                TRIPS,
                vec![assign(s, E::from(s) * 0.5 + E::from(i))],
            ),
            if_(E::from(j).lt(2i64), vec![st(o, j, E::from(s) + 1.0)]),
            st(o, j, ld(o, j) + E::from(s)),
        ],
    );
    let p = b.finish(vec![paccport_ir::HostStmt::Launch(k)]);
    let bufs = [f32s(N as usize, |e| e as f32), f32s(N as usize, |_| -1.0)];
    let row = N as u64 * (4 + TRIPS) as u64 + 2;
    let total = 2 * row;
    let _one = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    paccport_trace::set_enabled(true);
    for budget in [total + 5, total, total - 1, row + 2] {
        let run = |tier| {
            paccport_faults::arm_watchdog(budget);
            let vars = fresh_vars(&p);
            let mut out = bufs.to_vec();
            let hit = catch_unwind(AssertUnwindSafe(|| {
                let mut vars = vars;
                exec_kernel_tiered(
                    &p,
                    &[],
                    p.kernels()[0],
                    &mut vars,
                    &mut out,
                    KernelFidelity::Exact,
                    None,
                    tier,
                );
            }))
            .err()
            .map(|e| paccport_faults::timeout_of(e.as_ref()).cloned().is_some());
            // Exhausting the budget exactly leaves it armed; spend one
            // more step to tell "0 left" from "some left".
            let left_over = paccport_faults::try_charge(1);
            paccport_faults::disarm_watchdog();
            (
                out.iter().map(Buffer::bits).collect::<Vec<_>>(),
                hit,
                left_over,
            )
        };
        let before = paccport_trace::summary().counter("bytecode.batched_lanes");
        let byte = run(ExecTier::Bytecode);
        let lanes = paccport_trace::summary().counter("bytecode.batched_lanes") - before;
        assert_eq!(run(ExecTier::Tree), byte, "budget {budget}");
        let fits = budget >= total;
        assert_eq!(byte.1, (!fits).then_some(true), "budget {budget}");
        if fits {
            assert_eq!(lanes, 2 * N as u64, "budget {budget}: both rows batch");
        }
    }
}
