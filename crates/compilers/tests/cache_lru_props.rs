//! Property tests for the [`ArtifactCache`] capacity layer: under any
//! interleaving of compiles, caps and quotas, (1) the resident total
//! never exceeds the byte cap, (2) no named tenant ever exceeds its
//! quota, and (3) eviction is invisible to correctness — an evicted
//! key recompiles to a bitwise-identical artifact.

use proptest::prelude::*;

use paccport_compilers::{tenant_scope, ArtifactCache, CompileOptions, CompilerId};
use paccport_ir::{
    ld, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E,
};

/// A saxpy-family program whose artifact size varies with `width`
/// (number of store statements) — so the generated workloads exercise
/// entries of genuinely different byte sizes.
fn program(tag: u8, width: u8) -> paccport_ir::Program {
    let mut b = ProgramBuilder::new(format!("prog{tag}"));
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let y = b.array("y", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    let body: Vec<_> = (0..=width)
        .map(|w| st(y, i, E::from(w as f64 + 2.0) * ld(x, i) + ld(y, i)))
        .collect();
    let k = Kernel::simple(
        "saxpy",
        vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
        Block::new(body),
    );
    b.finish(vec![HostStmt::Launch(k)])
}

fn compiler(sel: u8) -> CompilerId {
    match sel % 3 {
        0 => CompilerId::Caps,
        1 => CompilerId::Pgi,
        _ => CompilerId::OpenClHand,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// However compiles and cap changes interleave, `total_bytes`
    /// never rests above the cap — including when a single entry is
    /// larger than the whole budget (it is served but not retained).
    #[test]
    fn resident_bytes_never_exceed_the_byte_cap(
        cap in 1u64..12_000,
        ops in proptest::collection::vec((0u8..6, 0u8..4, 0u8..3), 1..24),
    ) {
        let cache = ArtifactCache::new();
        cache.set_byte_cap(Some(cap));
        for (tag, width, sel) in &ops {
            let p = program(*tag, *width);
            cache.compile(compiler(*sel), &p, &CompileOptions::gpu()).unwrap();
            prop_assert!(
                cache.total_bytes() <= cap,
                "resident {} > cap {cap}", cache.total_bytes()
            );
        }
        // Tightening the cap re-enforces eagerly.
        let tighter = cap / 2;
        cache.set_byte_cap(Some(tighter));
        prop_assert!(cache.total_bytes() <= tighter);
        // Lifting it never loses entries that were within budget.
        let resident = cache.total_bytes();
        cache.set_byte_cap(None);
        prop_assert_eq!(cache.total_bytes(), resident);
    }

    /// Eviction is invisible to correctness: any key that was evicted
    /// under pressure recompiles to an artifact bitwise-equal to an
    /// uncached compile of the same (compiler, program, options).
    #[test]
    fn evicted_keys_recompile_bitwise_identical(
        cap in 500u64..4_000,
        ops in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 2..12),
    ) {
        let cache = ArtifactCache::new();
        cache.set_byte_cap(Some(cap));
        for (tag, width, sel) in &ops {
            let p = program(*tag, *width);
            cache.compile(compiler(*sel), &p, &CompileOptions::gpu()).unwrap();
        }
        // Re-request every key from the pressured cache; hits and
        // evict→recompile misses alike must match the oracle.
        for (tag, width, sel) in &ops {
            let p = program(*tag, *width);
            let cached = cache.compile(compiler(*sel), &p, &CompileOptions::gpu()).unwrap();
            let oracle = paccport_compilers::compile(compiler(*sel), &p, &CompileOptions::gpu()).unwrap();
            prop_assert_eq!(&*cached, &oracle);
        }
        prop_assert!(cache.total_bytes() <= cap);
    }

    /// No named tenant ever rests above its quota, and one tenant
    /// blowing its budget never evicts another tenant's entries.
    #[test]
    fn tenant_quotas_bound_and_isolate(
        quota in 500u64..6_000,
        ops in proptest::collection::vec((0u8..2, 0u8..5, 0u8..4), 1..20),
    ) {
        let cache = ArtifactCache::new();
        cache.set_tenant_quota(Some(quota));
        let name = |t: u8| format!("tenant{t}");
        for (tenant, tag, width) in &ops {
            let _t = tenant_scope(Some(name(*tenant)));
            let p = program(*tag, *width);
            cache.compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
            for t in 0u8..2 {
                prop_assert!(
                    cache.tenant_bytes(&name(t)) <= quota,
                    "{} holds {} > quota {quota}", name(t), cache.tenant_bytes(&name(t))
                );
            }
        }
        // The ledger balances: tenants' shares sum to the total.
        let sum: u64 = (0u8..2).map(|t| cache.tenant_bytes(&name(t))).sum();
        prop_assert_eq!(sum, cache.total_bytes());
    }
}
