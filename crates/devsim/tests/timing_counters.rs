//! The timing model's trace counters (`timing.kernel_launches`,
//! `timing.transfers`, `timing.transfer_bytes`) count what a run did,
//! whether it returns its result, an error, or unwinds from a panic.
//!
//! The counters are process-wide, so this file holds one test: no other
//! run in the process adds to them while it reads them.

use paccport_compilers::{compile, CompileOptions, CompilerId};
use paccport_devsim::{run, Buffer, RunConfig, RunResult};
use paccport_ir::{ld, st, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar};
use std::panic::{catch_unwind, AssertUnwindSafe};

const COUNTERS: [&str; 3] = [
    "timing.kernel_launches",
    "timing.transfers",
    "timing.transfer_bytes",
];

/// How much each counter grows while `f` runs.
fn charged(f: impl FnOnce()) -> [u64; 3] {
    let read = || COUNTERS.map(|c| paccport_trace::summary().counter(c));
    let before = read();
    f();
    let after = read();
    [0, 1, 2].map(|i| after[i] - before[i])
}

/// What one run returned or the panic it unwound with, and how much it
/// added to each counter.
struct Outcome {
    counted: [u64; 3],
    out: std::thread::Result<Result<RunResult, String>>,
}

/// Runs `body` around the `Launch` of `y[store_at] = x[i]` over
/// `i in 0..8` with no data region, so each launch copies in what it
/// reads and copies `y` back.
fn run_copy(store_at: Option<i64>, body: impl Fn(HostStmt) -> Vec<HostStmt>) -> Outcome {
    let mut b = ProgramBuilder::new("copy");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
    lp.clauses.independent = true;
    let store = match store_at {
        Some(at) => st(y, at, ld(x, i)),
        None => st(y, i, ld(x, i)),
    };
    let k = Kernel::simple("copy", vec![lp], paccport_ir::Block::new(vec![store]));
    let p = b.finish(body(HostStmt::Launch(k)));
    let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).expect("compiles");
    let cfg = RunConfig::functional(vec![("n".into(), 8.0)])
        .with_input("x", Buffer::F32(vec![1.0; 8]))
        .with_input("y", Buffer::F32(vec![0.0; 8]));
    let mut out = None;
    let counted = charged(|| out = Some(catch_unwind(AssertUnwindSafe(|| run(&c, &cfg)))));
    Outcome {
        counted,
        out: out.expect("ran"),
    }
}

/// The counters a run that returned `r` charged.
fn expected(r: &RunResult) -> [u64; 3] {
    [
        r.kernel_stats.iter().map(|k| k.launches).sum(),
        r.transfers.total_count(),
        r.transfers.total_bytes(),
    ]
}

#[test]
fn counters_charge_what_ran_on_success_error_and_panic() {
    paccport_trace::set_enabled(true);

    // Runs that return their result: the counters match it.
    let three = run_copy(None, |launch| vec![launch.clone(), launch.clone(), launch]);
    let r = three.out.expect("no panic").expect("runs");
    assert_eq!(r.kernel_stats[0].launches, 3);
    assert_eq!(three.counted, expected(&r));
    let once = run_copy(None, |launch| vec![launch]);
    let once = expected(&once.out.expect("no panic").expect("runs"));
    assert_eq!(once, [1, 3, 3 * 8 * 4], "x and y in, y out");

    // A launch, then an error: the launch and its transfers still count.
    let err = run_copy(None, |launch| {
        vec![
            launch,
            HostStmt::ExitData {
                arrays: vec![paccport_ir::ArrayId(0)],
            },
        ]
    });
    let msg = err.out.expect("no panic").expect_err("unmatched exit data");
    assert!(msg.contains("without a matching enter data"), "{msg}");
    assert_eq!(err.counted, once);

    // A launch whose execution panics (a store past the end): it was
    // timed and its inputs copied in before it ran, so they count.
    let panicked = run_copy(Some(8), |launch| vec![launch]);
    assert!(panicked.out.is_err(), "an out-of-bounds store panics");
    assert_eq!(panicked.counted, [1, 2, 2 * 8 * 4], "x and y in");
}
