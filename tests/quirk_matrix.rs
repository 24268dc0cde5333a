//! One test per modeled compiler quirk: toggling the quirk off must
//! make its specific paper observation disappear (and nothing else —
//! the full suite still passes with every quirk on). This is the
//! "quirks as data" design decision of DESIGN.md §4, verified.

use paccport::compilers::{
    compile, Backend, CompileOptions, CompilerId, Correctness, DistSpec, ExecStrategy, QuirkSet,
};
use paccport::devsim::{run, RunConfig};
use paccport::hydro::{self, HydroVariant};
use paccport::kernels::{backprop, bfs, gaussian, lud, VariantCfg};
use paccport::ptx::Category;

fn gpu_with(f: impl FnOnce(&mut QuirkSet)) -> CompileOptions {
    let mut o = CompileOptions::gpu();
    f(&mut o.quirks);
    o
}

fn mic_with(f: impl FnOnce(&mut QuirkSet)) -> CompileOptions {
    let mut o = CompileOptions::mic();
    f(&mut o.quirks);
    o
}

/// `caps_default_gang1`: off ⇒ the LUD baseline runs parallel at the
/// advertised 192×256 and the Fig.-3 gap evaporates.
#[test]
fn quirk_caps_default_gang1() {
    let p = lud::program(&VariantCfg::baseline());
    let on = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
    assert_eq!(
        on.plan("lud_row").unwrap().exec,
        ExecStrategy::DeviceSequential
    );
    let off = compile(
        CompilerId::Caps,
        &p,
        &gpu_with(|q| q.caps_default_gang1 = false),
    )
    .unwrap();
    let plan = off.plan("lud_row").unwrap();
    assert_eq!(plan.exec, ExecStrategy::DeviceParallel);
    assert_eq!(
        plan.dist,
        DistSpec::GangWorker {
            gang: 192,
            worker: 256
        }
    );
    // The quirk alone produces the Fig. 3 baseline gap: ~774x at
    // n=1024, the same as switching every quirk off.
    let rc = RunConfig::timing(vec![("n".into(), 1024.0)], 1);
    let t_bug = run(&on, &rc).unwrap().elapsed;
    let t_fixed = run(&off, &rc).unwrap().elapsed;
    assert!(t_bug / t_fixed > 10.0, "{t_bug} s vs {t_fixed} s");
}

/// `caps_fake_unroll_success`: off ⇒ the log admits the unroll did not
/// apply on GE's flat kernels, instead of lying.
#[test]
fn quirk_caps_fake_unroll_success() {
    let mut vc = VariantCfg::independent();
    vc.reorganized = true;
    vc.unroll = Some(8);
    let p = gaussian::program(&vc);
    let lying = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
    assert!(lying
        .diagnostics
        .iter()
        .any(|d| d.message.contains("unrolled by 8 and jammed")));
    let honest = compile(
        CompilerId::Caps,
        &p,
        &gpu_with(|q| q.caps_fake_unroll_success = false),
    )
    .unwrap();
    assert!(honest
        .diagnostics
        .iter()
        .any(|d| d.message.contains("not applicable")));
    // Either way the PTX is the same (nothing was unrollable).
    assert_eq!(lying.module.counts(), honest.module.counts());
}

/// `caps_cuda_unroll_fails_on_accum`: off ⇒ the CUDA back end unrolls
/// the reduction body like the OpenCL back end did, growing the PTX.
#[test]
fn quirk_caps_cuda_unroll_on_reduction() {
    let mut vc = VariantCfg::independent();
    vc.reduction = true;
    vc.unroll = Some(4);
    let p = backprop::program(&vc);
    let on = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
    let off = compile(
        CompilerId::Caps,
        &p,
        &gpu_with(|q| q.caps_cuda_unroll_fails_on_accum = false),
    )
    .unwrap();
    assert!(
        off.module.kernel("layer_forward_kernel").unwrap().len()
            > on.module.kernel("layer_forward_kernel").unwrap().len(),
        "unrolled grouped body must be larger"
    );
    // The OpenCL back end already unrolls with the quirk on.
    let mut ocl = CompileOptions::gpu();
    ocl.backend = Backend::OpenCl;
    let via_ocl = compile(CompilerId::Caps, &p, &ocl).unwrap();
    assert_eq!(
        via_ocl.module.kernel("layer_forward_kernel").unwrap().len(),
        off.module.kernel("layer_forward_kernel").unwrap().len()
    );
}

/// `caps_tile_silent_on_nested`: off ⇒ LUD's tile(32) really
/// strip-mines (rank 1 → 2, PTX changes) instead of silently no-oping.
#[test]
fn quirk_caps_tile_silent() {
    let mut vc = VariantCfg::thread_dist(256, 16);
    vc.tile = Some(32);
    let p = lud::program(&vc);
    let on = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
    assert_eq!(on.program.kernel("lud_row").unwrap().rank(), 1);
    let off = compile(
        CompilerId::Caps,
        &p,
        &gpu_with(|q| q.caps_tile_silent_on_nested = false),
    )
    .unwrap();
    assert_eq!(off.program.kernel("lud_row").unwrap().rank(), 2);
    assert_ne!(off.module.counts(), on.module.counts());
    // Still no shared memory — that is inherent to OpenACC tiling,
    // not a quirk (Fig. 1).
    assert_eq!(off.module.counts().get(Category::SharedMemory), 0);
}

/// `caps_reduction_perf_bug`: off ⇒ the GPU reduction actually helps.
#[test]
fn quirk_caps_reduction_perf() {
    let mut vc = VariantCfg::independent();
    vc.reduction = true;
    let p = backprop::program(&vc);
    let rc = RunConfig::timing(
        vec![("n_in".into(), 2_000_000.0), ("n_hid".into(), 16.0)],
        1,
    );
    let t = |o: &CompileOptions| {
        run(&compile(CompilerId::Caps, &p, o).unwrap(), &rc)
            .unwrap()
            .kernel_time
    };
    let buggy = t(&CompileOptions::gpu());
    let fixed = t(&gpu_with(|q| q.caps_reduction_perf_bug = false));
    assert!(
        fixed < buggy / 10.0,
        "without the bug the tree reduction flies: {fixed} vs {buggy}"
    );
}

/// `caps_reduction_wrong_on_mic`: off ⇒ the MIC reduction validates.
#[test]
fn quirk_caps_reduction_mic_correctness() {
    let mut vc = VariantCfg::independent();
    vc.reduction = true;
    let p = backprop::program(&vc);
    let on = compile(CompilerId::Caps, &p, &CompileOptions::mic()).unwrap();
    assert!(matches!(
        on.plan("layer_forward").unwrap().correctness,
        Correctness::Wrong { .. }
    ));
    let off = compile(
        CompilerId::Caps,
        &p,
        &mic_with(|q| q.caps_reduction_wrong_on_mic = false),
    )
    .unwrap();
    assert_eq!(
        off.plan("layer_forward").unwrap().correctness,
        Correctness::Correct
    );
}

/// `caps_retransfer_in_dynamic_loops`: off ⇒ BFS drops to the two
/// explicit stop-flag updates per frontier iteration.
#[test]
fn quirk_caps_retransfer() {
    let g = bfs::Graph::random(100, 3, 13);
    let p = bfs::program(&VariantCfg::independent());
    let mut mask = vec![0i32; g.n];
    mask[0] = 1;
    let mk_cfg = || {
        RunConfig::functional(vec![
            ("n".into(), g.n as f64),
            ("nedges".into(), g.edges.len() as f64),
            ("source".into(), 0.0),
        ])
        .with_input("nodes", paccport::devsim::Buffer::I32(g.nodes.clone()))
        .with_input("edges", paccport::devsim::Buffer::I32(g.edges.clone()))
        .with_input("mask", paccport::devsim::Buffer::I32(mask.clone()))
    };
    let on = run(
        &compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap(),
        &mk_cfg(),
    )
    .unwrap();
    assert!((on.transfers_per_while_iter - 3.0).abs() < 0.5);
    let off = run(
        &compile(
            CompilerId::Caps,
            &p,
            &gpu_with(|q| q.caps_retransfer_in_dynamic_loops = false),
        )
        .unwrap(),
        &mk_cfg(),
    )
    .unwrap();
    assert!((off.transfers_per_while_iter - 2.0).abs() < 0.5);
}

/// `pgi_conservative_indirection`: off ⇒ PGI offloads BFS after all.
#[test]
fn quirk_pgi_conservative_indirection() {
    let p = bfs::program(&VariantCfg::independent());
    let on = compile(CompilerId::Pgi, &p, &CompileOptions::gpu()).unwrap();
    assert_eq!(
        on.plan("bfs_kernel1").unwrap().exec,
        ExecStrategy::HostSequential
    );
    let off = compile(
        CompilerId::Pgi,
        &p,
        &gpu_with(|q| q.pgi_conservative_indirection = false),
    )
    .unwrap();
    assert_eq!(
        off.plan("bfs_kernel1").unwrap().exec,
        ExecStrategy::DeviceParallel
    );
}

/// `pgi_locks_distribution`: off ⇒ explicit clauses are honoured even
/// with `independent` present.
#[test]
fn quirk_pgi_locks_distribution() {
    // LUD's loops would refuse independent; use GE's fan1 shape via a
    // direct program: reuse gaussian with forced clauses.
    let mut p = gaussian::program(&VariantCfg::independent());
    p.map_kernel("fan1", |k| {
        k.loops[0].clauses.gang = Some(300);
        k.loops[0].clauses.worker = Some(8);
    });
    let on = compile(CompilerId::Pgi, &p, &CompileOptions::gpu()).unwrap();
    assert_eq!(on.plan("fan1").unwrap().config_label, "128x1");
    let off = compile(
        CompilerId::Pgi,
        &p,
        &gpu_with(|q| q.pgi_locks_distribution = false),
    )
    .unwrap();
    assert_eq!(off.plan("fan1").unwrap().config_label, "300x8");
}

/// `pgi_pointer_alias_sensitivity`: off ⇒ Hydro compiles under PGI
/// (and runs on the GPU — it has no MIC target either way).
#[test]
fn quirk_pgi_pointer_alias() {
    let p = hydro::program(HydroVariant::Optimized);
    assert!(compile(CompilerId::Pgi, &p, &CompileOptions::gpu()).is_err());
    let c = compile(
        CompilerId::Pgi,
        &p,
        &gpu_with(|q| q.pgi_pointer_alias_sensitivity = false),
    )
    .unwrap();
    let r = run(&c, &hydro::sod_run_config(32, 8, 5)).unwrap();
    let v = hydro::validate_against_reference(&r, &c, 32, 8, 5, 1e-4);
    assert!(v.passed, "a fixed PGI runs Hydro correctly: {}", v.detail);
}
