//! Property-based tests over the core invariants of the stack:
//! transform semantics preservation, dependence-analysis soundness,
//! launch-shape coverage, and evaluator consistency.

use paccport::compilers::transforms::{
    reduction_to_grouped, serialize_inner_loops, strip_mine, unroll_inner_loops, VarAlloc,
};
use paccport::compilers::DistSpec;
use paccport::devsim::{exec_kernel_traced, fresh_vars, Buffer, KernelFidelity, V};
use paccport::ir::{
    analyze_block, assign, for_, ld, let_, st, Block, Expr, HostStmt, Intent, Kernel, KindEnv,
    ParallelLoop, Program, ProgramBuilder, Scalar, E,
};
use proptest::prelude::*;

// -------------------------------------------------------------------
// Helpers
// -------------------------------------------------------------------

/// An accumulation kernel `out[j] = Σ_{k<m} in[k] * (j+1)` over
/// `j < n` — the shape all four loop transforms operate on.
fn accum_program() -> (Program, Kernel) {
    let mut b = ProgramBuilder::new("p");
    let n = b.iparam("n");
    let m = b.iparam("m");
    let input = b.array("in", Scalar::F32, m, Intent::In);
    let out = b.array("out", Scalar::F32, n, Intent::Out);
    let j = b.var("j");
    let kv = b.var("k");
    let s = b.var("s");
    let k = Kernel::simple(
        "acc",
        vec![ParallelLoop::new(j, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![
            let_(s, Scalar::F32, 0.0),
            for_(
                kv,
                0i64,
                E::from(m),
                vec![assign(
                    s,
                    E::from(s) + ld(input, kv) * (E::from(j).cast(Scalar::F32) + 1.0),
                )],
            ),
            st(out, j, E::from(s)),
        ]),
    );
    let p = b.finish(vec![HostStmt::Launch(k.clone())]);
    (p, k)
}

/// Flat kernel `a[i] = a[i] * 2 + i` over `i < n`.
fn flat_program() -> (Program, Kernel) {
    let mut b = ProgramBuilder::new("p");
    let n = b.iparam("n");
    let a = b.array("a", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let k = Kernel::simple(
        "flat",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(vec![st(
            a,
            i,
            ld(a, i) * 2.0 + E::from(i).cast(Scalar::F32),
        )]),
    );
    let p = b.finish(vec![HostStmt::Launch(k.clone())]);
    (p, k)
}

fn run_kernel(p: &Program, k: &Kernel, params: &[V], bufs: &mut [Buffer]) {
    let mut vars = fresh_vars(p);
    exec_kernel_traced(p, params, k, &mut vars, bufs, KernelFidelity::Exact, None);
}

// -------------------------------------------------------------------
// Transform semantics preservation
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Unrolling an inner loop by any factor preserves results exactly
    /// (same f32 operation order per accumulator chain).
    #[test]
    fn unroll_preserves_semantics(
        n in 1usize..24,
        m in 0usize..40,
        factor in 2u32..9,
        seed in 0u64..1000,
    ) {
        let (p, k) = accum_program();
        let input = paccport::kernels::random_vec(m, seed);
        let params = [V::I(n as i64), V::I(m as i64)];

        let mut bufs_a = vec![Buffer::F32(input.clone()), Buffer::zeroed(Scalar::F32, n)];
        run_kernel(&p, &k, &params, &mut bufs_a);

        let mut k2 = k.clone();
        prop_assert!(unroll_inner_loops(&mut k2, factor, &KindEnv::for_program(&p)));
        let mut bufs_b = vec![Buffer::F32(input), Buffer::zeroed(Scalar::F32, n)];
        run_kernel(&p, &k2, &params, &mut bufs_b);

        // Unrolling re-associates nothing (single accumulator chain in
        // program order), so results are close to bitwise.
        for (x, y) in bufs_a[1].as_f32().iter().zip(bufs_b[1].as_f32()) {
            prop_assert!((x - y).abs() <= 1e-5 * (1.0 + x.abs()), "{x} vs {y}");
        }
    }

    /// Strip-mining (CAPS tiling) preserves results for every tile
    /// size, including non-dividing ones (the guard must be right).
    #[test]
    fn strip_mine_preserves_semantics(
        n in 1usize..100,
        tile in 1u32..40,
        seed in 0u64..1000,
    ) {
        let (mut p, k) = flat_program();
        let input = paccport::kernels::random_vec(n, seed);
        let params = [V::I(n as i64)];

        let mut bufs_a = vec![Buffer::F32(input.clone())];
        run_kernel(&p, &k, &params, &mut bufs_a);

        let mut k2 = k.clone();
        let kinds = KindEnv::for_program(&p);
        let mut names = std::mem::take(&mut p.var_names);
        {
            let mut va = VarAlloc::new(&mut names);
            prop_assert!(strip_mine(&mut k2, tile, &mut va, &kinds));
        }
        p.var_names = names;
        let mut bufs_b = vec![Buffer::F32(input)];
        run_kernel(&p, &k2, &params, &mut bufs_b);

        prop_assert_eq!(bufs_a[0].as_f32(), bufs_b[0].as_f32());
    }

    /// The shared-memory tree reduction computes the same sums as the
    /// sequential loop (up to f32 reassociation) for every
    /// power-of-two group size.
    #[test]
    fn reduction_tree_preserves_sums(
        n in 1usize..8,
        m in 0usize..200,
        log_g in 1u32..8,
        seed in 0u64..1000,
    ) {
        let g = 1u32 << log_g;
        let (mut p, k) = accum_program();
        let input = paccport::kernels::random_vec(m, seed);
        let params = [V::I(n as i64), V::I(m as i64)];

        let mut bufs_a = vec![Buffer::F32(input.clone()), Buffer::zeroed(Scalar::F32, n)];
        run_kernel(&p, &k, &params, &mut bufs_a);

        let mut k2 = k.clone();
        let mut names = std::mem::take(&mut p.var_names);
        {
            let mut va = VarAlloc::new(&mut names);
            prop_assert!(reduction_to_grouped(&mut k2, g, &mut va));
        }
        p.var_names = names;
        let mut bufs_b = vec![Buffer::F32(input), Buffer::zeroed(Scalar::F32, n)];
        run_kernel(&p, &k2, &params, &mut bufs_b);

        // Tree reassociates the f32 sum: allow a relative tolerance.
        for (x, y) in bufs_a[1].as_f32().iter().zip(bufs_b[1].as_f32()) {
            prop_assert!(
                (x - y).abs() <= 1e-3 * (1.0 + x.abs()),
                "sequential {x} vs tree {y} (g = {g})"
            );
        }
    }

    /// PGI-style serialization of inner parallel loops is a pure
    /// scheduling change: results are identical.
    #[test]
    fn serialize_preserves_semantics(
        n in 1usize..16,
        m in 1usize..16,
        seed in 0u64..1000,
    ) {
        let mut b = ProgramBuilder::new("p");
        let np = b.iparam("n");
        let mp = b.iparam("m");
        let a = b.array("a", Scalar::F32, E::from(np) * mp, Intent::InOut);
        let i = b.var("i");
        let j = b.var("j");
        let k = Kernel::simple(
            "k2d",
            vec![
                ParallelLoop::new(i, Expr::iconst(0), Expr::param(np)),
                ParallelLoop::new(j, Expr::iconst(0), Expr::param(mp)),
            ],
            Block::new(vec![st(
                a,
                E::from(i) * mp + j,
                ld(a, E::from(i) * mp + j) + 1.0,
            )]),
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);
        let input = paccport::kernels::random_vec(n * m, seed);
        let params = [V::I(n as i64), V::I(m as i64)];

        let mut bufs_a = vec![Buffer::F32(input.clone())];
        run_kernel(&p, &k, &params, &mut bufs_a);

        let mut k2 = k.clone();
        prop_assert!(serialize_inner_loops(&mut k2, 1));
        prop_assert_eq!(k2.rank(), 1);
        let mut bufs_b = vec![Buffer::F32(input)];
        run_kernel(&p, &k2, &params, &mut bufs_b);
        prop_assert_eq!(bufs_a[0].as_f32(), bufs_b[0].as_f32());
    }
}

// -------------------------------------------------------------------
// Dependence-analysis soundness
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// If the analysis declares a loop independent, executing its
    /// iterations in reverse order must produce the same result.
    /// (Soundness of Step 1: a wrong `independent` would let the
    /// simulated compilers parallelize a dependent loop.)
    #[test]
    fn independent_verdicts_are_sound(
        n in 4usize..32,
        store_off in -2i64..3,
        load_off in -2i64..3,
        seed in 0u64..1000,
    ) {
        // Body: a[i + store_off] = a[i + load_off] + 1, guarded
        // in-range. (Offsets make it dependent or not.)
        let mut b = ProgramBuilder::new("p");
        let np = b.iparam("n");
        let a = b.array("a", Scalar::F32, E::from(np) + 8i64, Intent::InOut);
        let i = b.var("i");
        let body = Block::new(vec![st(
            a,
            E::from(i) + (store_off + 4),
            ld(a, E::from(i) + (load_off + 4)) + 1.0,
        )]);
        let rep = analyze_block(i, &body);
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(np))],
            body,
        );
        let p = b.finish(vec![HostStmt::Launch(k.clone())]);

        if rep.is_independent() {
            let input = paccport::kernels::random_vec(n + 8, seed);
            // Forward execution.
            let params = [V::I(n as i64)];
            let mut fwd = vec![Buffer::F32(input.clone())];
            run_kernel(&p, &k, &params, &mut fwd);
            // Reverse execution, by hand.
            let mut rev = vec![Buffer::F32(input)];
            let mut vars = fresh_vars(&p);
            for it in (0..n as i64).rev() {
                vars[i.0 as usize] = Some(V::I(it));
                let mut scope = paccport::devsim::interp::Scope {
                    vars: &mut vars,
                    m: paccport::devsim::interp::Machine::global(&mut rev, None),
                };
                paccport::devsim::interp::exec_block(
                    &p,
                    &params,
                    k.simple_body().unwrap(),
                    &mut scope,
                );
            }
            prop_assert_eq!(
                fwd[0].as_f32(),
                rev[0].as_f32(),
                "analysis said independent (store_off {}, load_off {}) but order matters",
                store_off,
                load_off
            );
        }
    }
}

// -------------------------------------------------------------------
// Launch-shape coverage
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every parallel distribution must supply at least as many global
    /// threads (or strided slots) as needed to cover the iteration
    /// space.
    #[test]
    fn launch_dims_cover_the_extent(
        e0 in 0u64..100_000,
        e1 in 1u64..1000,
        bx in 1u32..64,
        by in 1u32..16,
    ) {
        for dist in [
            DistSpec::Gridify1D { bx, by },
            DistSpec::PgiAuto { vector: bx * by },
            DistSpec::Grouped { group_size: bx * by },
        ] {
            let dims = dist.launch_dims(&[e0, e1]);
            prop_assert!(
                dims.total_threads() >= e0,
                "{dist:?} covers only {} of {e0}",
                dims.total_threads()
            );
            // …but never by more than one block's worth.
            let tpb = dims.threads_per_block() as u64;
            prop_assert!(dims.total_threads() < e0 + tpb.max(1) * 2);
        }
        // Gridify 2D covers both dimensions.
        let d = DistSpec::Gridify2D { bx, by };
        let dims = d.launch_dims(&[e0.min(4096), e1]);
        let cover_x = dims.grid[0] as u64 * dims.block[0] as u64;
        let cover_y = dims.grid[1] as u64 * dims.block[1] as u64;
        prop_assert!(cover_x >= e1 && cover_y >= e0.min(4096));
    }

    /// Buffer round trip: set-then-get returns the stored value for
    /// every element type (with the type's own rounding).
    #[test]
    fn buffer_round_trip(v in -1e6f64..1e6, idx in 0usize..64) {
        for elem in [Scalar::F32, Scalar::F64, Scalar::I32, Scalar::U32] {
            let mut b = Buffer::zeroed(elem, 64);
            b.set(idx, v);
            let got = b.get(idx);
            match elem {
                Scalar::F64 => prop_assert_eq!(got, v),
                Scalar::F32 => prop_assert_eq!(got, v as f32 as f64),
                Scalar::I32 => prop_assert_eq!(got, v as i32 as f64),
                Scalar::U32 => prop_assert_eq!(got, v as u32 as f64),
                Scalar::Bool => unreachable!(),
            }
        }
    }
}

// -------------------------------------------------------------------
// Static counts and cost-tree invariants
// -------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any flat kernel and any compiler style, the cost tree's
    /// static total plus the prologue equals the full kernel's static
    /// PTX count minus the trailing `ret` — the "single source of
    /// truth" guarantee between the static and dynamic analyses.
    #[test]
    fn cost_tree_matches_static_ptx(scale in 1i64..50) {
        let (p, mut k) = flat_program();
        // Perturb the body a little so trees differ across cases.
        if scale % 2 == 0 {
            if let paccport::ir::KernelBody::Simple(b) = &mut k.body {
                let a = p.array_id("a").unwrap();
                let i = k.loops[0].var;
                b.0.push(st(a, i, ld(a, i) + E::from(scale as f64)));
            }
        }
        for style in [
            paccport::compilers::LoweringStyle::caps(),
            paccport::compilers::LoweringStyle::pgi(),
        ] {
            let lk = paccport::compilers::lower_kernel(&p, &k, 1, &style);
            let mut total = lk.prologue;
            total += lk.cost.static_counts();
            let mut full = lk.ptx.counts();
            // Remove the trailing ret (Sync category).
            full.set(paccport::ptx::Category::Sync, full.get(paccport::ptx::Category::Sync) - 1);
            prop_assert_eq!(total, full);
        }
    }
}
