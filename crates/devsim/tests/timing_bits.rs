//! Golden-bits regression test for the analytic timing model.
//!
//! Every `f64` the model produces for a fixed set of paper cells at
//! quick scale is pinned by its IEEE-754 bit pattern: the Fig. 3 LUD
//! ladder, the corner cells of the three Fig. 4 heat maps (1×1,
//! 256×16, 1024×64), the Fig. 7 GE ladder and the OpenARC LUD cells of
//! the auto-tuning extension (hand `thread_dist(256, 16)` and the
//! baseline it tunes, on both devices) and the extension-2 LUD cells
//! (no data region, so every launch re-synchronizes the arrays it
//! touches, and the region Step 5 reinserts), all at `n = 512`; the Fig. 10
//! BFS cells (branch-weight and trip-fallback hints, bounds that read
//! memory) at 500,000 nodes; and the Fig. 15 Hydro cells (many
//! kernels, bounds that are general expressions of several
//! parameters) on a 128×128 grid. Each line also pins the transfer
//! ledger, the while-loop iterations, the transfers outside the loop
//! and the per-iteration transfer average. Any change to the launch path —
//! plan lookup, bound lowering, sampling order, summation order — that
//! moves a single bit of a modeled time fails here, even where the
//! rendered figures (three decimals) would not show it.

use paccport_compilers::{compile, CompileOptions, CompilerId, Flag, HostCompiler};
use paccport_devsim::{run, RunConfig};
use paccport_ir::{HostStmt, Program};
use paccport_kernels::{bfs, gaussian, lud, VariantCfg};
use std::collections::BTreeSet;

const N: f64 = 512.0;

fn series() -> [(&'static str, CompilerId, CompileOptions); 3] {
    [
        ("CAPS-CUDA-K40", CompilerId::Caps, CompileOptions::gpu()),
        ("CAPS-OCL-5110P", CompilerId::Caps, CompileOptions::mic()),
        ("PGI-K40", CompilerId::Pgi, CompileOptions::gpu()),
    ]
}

/// One line per cell: the four run totals, the transfer ledger (count
/// and bytes each way), the while-loop counts and every kernel's launch
/// count and device time, each `f64` as a hex bit pattern.
fn render(label: &str, compiler: CompilerId, opts: &CompileOptions, p: &Program) -> String {
    render_with(
        label,
        compiler,
        opts,
        p,
        &RunConfig::timing(vec![("n".into(), N)], 1),
    )
}

fn render_with(
    label: &str,
    compiler: CompilerId,
    opts: &CompileOptions,
    p: &Program,
    cfg: &RunConfig,
) -> String {
    let c = compile(compiler, p, opts).expect("paper cells compile");
    let r = run(&c, cfg).expect("timing run");
    let t = &r.transfers;
    let mut line = format!(
        "{label} elapsed={:016x} kernel={:016x} transfer={:016x} host={:016x} \
         h2d={}/{} d2h={}/{} while={} outside={} per_iter={:016x}",
        r.elapsed.to_bits(),
        r.kernel_time.to_bits(),
        r.transfer_time_s.to_bits(),
        r.host_time.to_bits(),
        t.h2d_count,
        t.h2d_bytes,
        t.d2h_count,
        t.d2h_bytes,
        r.while_iterations,
        r.transfers_outside_while,
        r.transfers_per_while_iter.to_bits()
    );
    for k in &r.kernel_stats {
        line += &format!(
            " {}:{}:{:016x}",
            k.name,
            k.launches,
            k.device_time.to_bits()
        );
    }
    line
}

fn lud_ladder() -> Vec<(&'static str, VariantCfg)> {
    let dist = VariantCfg::thread_dist(256, 16);
    let mut unroll = dist;
    unroll.unroll = Some(8);
    let mut tile = dist;
    tile.tile = Some(32);
    vec![
        ("Base", VariantCfg::baseline()),
        ("ThreadDist", dist),
        ("Unroll", unroll),
        ("Tile", tile),
    ]
}

fn ge_ladder() -> Vec<(&'static str, VariantCfg)> {
    let indep = VariantCfg::independent();
    let mut reorg = indep;
    reorg.reorganized = true;
    let mut unroll = reorg;
    unroll.unroll = Some(8);
    let mut tile = reorg;
    tile.tile = Some(32);
    vec![
        ("Base", VariantCfg::baseline()),
        ("Indep", indep),
        ("Reorg", reorg),
        ("Unroll", unroll),
        ("Tile", tile),
    ]
}

fn fig3() -> Vec<String> {
    let mut out = Vec::new();
    for (variant, vc) in lud_ladder() {
        let p = lud::program(&vc);
        for (s, id, opts) in series() {
            out.push(render(&format!("fig3 {s}/{variant}"), id, &opts, &p));
        }
    }
    out
}

fn fig4_corners() -> Vec<String> {
    let base = lud::program(&VariantCfg::baseline());
    let mut out = Vec::new();
    for (s, id, opts) in [
        ("CAPS-K40", CompilerId::Caps, CompileOptions::gpu()),
        ("PGI-K40", CompilerId::Pgi, CompileOptions::gpu()),
        ("CAPS-MIC", CompilerId::Caps, CompileOptions::mic()),
    ] {
        for (g, w) in [(1, 1), (256, 16), (1024, 64)] {
            let mut p = base.clone();
            p.map_kernels(|k| {
                for lp in &mut k.loops {
                    lp.clauses.gang = Some(g);
                    lp.clauses.worker = Some(w);
                }
            });
            out.push(render(&format!("fig4 {s}/{g}x{w}"), id, &opts, &p));
        }
    }
    out
}

fn fig7() -> Vec<String> {
    let mut out = Vec::new();
    for (variant, vc) in ge_ladder() {
        for (s, id, opts) in series() {
            // PGI's unroll is -Munroll on the reorganized version.
            let (p, opts) = if id == CompilerId::Pgi && variant == "Unroll" {
                let mut reorg = VariantCfg::independent();
                reorg.reorganized = true;
                (gaussian::program(&reorg), opts.with_flag(Flag::Munroll))
            } else {
                (gaussian::program(&vc), opts)
            };
            out.push(render(&format!("fig7 {s}/{variant}"), id, &opts, &p));
        }
    }
    for (variant, adv) in [("OCL-Base", false), ("OCL-Advanced", true)] {
        let p = gaussian::opencl_program(adv);
        for (s, opts) in [
            ("OCL-K40", CompileOptions::gpu()),
            ("OCL-5110P", CompileOptions::mic()),
        ] {
            out.push(render(
                &format!("fig7 {s}/{variant}"),
                CompilerId::OpenClHand,
                &opts,
                &p,
            ));
        }
    }
    out
}

/// Extension 1 compiles LUD only with OpenARC: the hand-distributed
/// cell and the baseline the auto-tuner starts from, on both devices.
fn ext1() -> Vec<String> {
    let mut out = Vec::new();
    for (variant, vc) in [
        ("Hand", VariantCfg::thread_dist(256, 16)),
        ("Base", VariantCfg::baseline()),
    ] {
        let p = lud::program(&vc);
        for (s, opts) in [
            ("OpenARC-K40", CompileOptions::gpu()),
            ("OpenARC-5110P", CompileOptions::mic()),
        ] {
            out.push(render(
                &format!("ext1 {s}/{variant}"),
                CompilerId::OpenArc,
                &opts,
                &p,
            ));
        }
    }
    out
}

/// Extension 2: LUD with its data region stripped, so every launch
/// re-synchronizes the arrays it touches, and with one region
/// reinserted around the whole body, as Step 5 does.
fn ext2() -> Vec<String> {
    let naive = strip_data_regions(lud::program(&VariantCfg::thread_dist(256, 16)));
    let mut restored = naive.clone();
    let mut covered = BTreeSet::new();
    for k in restored.kernels() {
        covered.extend(k.global_arrays());
    }
    restored.body = vec![HostStmt::DataRegion {
        arrays: covered.into_iter().collect(),
        body: std::mem::take(&mut restored.body),
    }];
    let mut out = Vec::new();
    for (variant, p) in [("Naive", &naive), ("Step5", &restored)] {
        for (s, id, opts) in series() {
            out.push(render(&format!("ext2 {s}/{variant}"), id, &opts, p));
        }
    }
    out
}

/// `p` with every data region replaced by its body.
fn strip_data_regions(mut p: Program) -> Program {
    fn strip(body: Vec<HostStmt>) -> Vec<HostStmt> {
        let mut out = Vec::with_capacity(body.len());
        for s in body {
            match s {
                HostStmt::DataRegion { body, .. } => out.extend(strip(body)),
                HostStmt::HostLoop { var, lo, hi, body } => out.push(HostStmt::HostLoop {
                    var,
                    lo,
                    hi,
                    body: strip(body),
                }),
                HostStmt::WhileFlag {
                    flag,
                    max_iters,
                    body,
                } => out.push(HostStmt::WhileFlag {
                    flag,
                    max_iters,
                    body: strip(body),
                }),
                other => out.push(other),
            }
        }
        out
    }
    p.body = strip(std::mem::take(&mut p.body));
    assert!(!p.has_data_region());
    p
}

/// Fig. 10 at quick scale: 500,000 nodes of average degree 4, ten
/// frontier levels, and the hints the figure runs with (a 0.1 branch
/// weight on both kernels, a trip fallback of 5 for the data-dependent
/// edge loop of `bfs_kernel1`).
fn fig10() -> Vec<String> {
    let (n, degree, levels) = (500_000.0, 4.0, 10);
    let cfg = RunConfig::timing(
        vec![
            ("n".into(), n),
            ("nedges".into(), n * (degree + 1.0)),
            ("source".into(), 0.0),
        ],
        levels,
    )
    .with_hints(bfs::hints(degree + 1.0, 1.0 / levels as f64));
    let mut out = Vec::new();
    for (variant, vc) in [
        ("Base", VariantCfg::baseline()),
        ("Indep", VariantCfg::independent()),
    ] {
        let p = bfs::program(&vc);
        for (s, id, opts) in series() {
            out.push(render_with(
                &format!("fig10 {s}/{variant}"),
                id,
                &opts,
                &p,
                &cfg,
            ));
        }
    }
    let p = bfs::opencl_program();
    for (s, opts) in [
        ("OCL-K40", CompileOptions::gpu()),
        ("OCL-5110P", CompileOptions::mic()),
    ] {
        out.push(render_with(
            &format!("fig10 {s}/OCL"),
            CompilerId::OpenClHand,
            &opts,
            &p,
            &cfg,
        ));
    }
    out
}

/// Fig. 15 at quick scale: a 128×128 grid, two steps, CAPS on both
/// devices with either host compiler, and the hand-written OpenCL.
fn fig15() -> Vec<String> {
    use paccport_hydro::{program, timing_run_config, HydroVariant};
    let cfg = timing_run_config(128, 128, 2);
    let mut out = Vec::new();
    for (variant, hv) in [
        ("Base", HydroVariant::Baseline),
        ("Indep+Dist", HydroVariant::Optimized),
    ] {
        let p = program(hv);
        for (s, opts) in [
            ("ACC-K40-GCC", CompileOptions::gpu()),
            (
                "ACC-K40-ICC",
                CompileOptions::gpu().with_host_compiler(HostCompiler::Intel),
            ),
            ("ACC-5110P-GCC", CompileOptions::mic()),
            (
                "ACC-5110P-ICC",
                CompileOptions::mic().with_host_compiler(HostCompiler::Intel),
            ),
        ] {
            out.push(render_with(
                &format!("fig15 {s}/{variant}"),
                CompilerId::Caps,
                &opts,
                &p,
                &cfg,
            ));
        }
    }
    let p = program(HydroVariant::OpenCl);
    for (s, opts) in [
        ("OCL-K40", CompileOptions::gpu()),
        ("OCL-5110P", CompileOptions::mic()),
    ] {
        out.push(render_with(
            &format!("fig15 {s}/OCL"),
            CompilerId::OpenClHand,
            &opts,
            &p,
            &cfg,
        ));
    }
    out
}

/// The model's outputs for every cell, as bit patterns. A change to the
/// launch path must leave each one intact; only a deliberate change to
/// the model itself may rewrite this table.
const GOLDEN: &[&str] = &[
    "fig3 CAPS-CUDA-K40/Base elapsed=400cce81272c3912 kernel=400ccdbd51737eeb transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3ffcdbbe0157eed6 lud_col:512:3ffcbfbca18f0f15",
    "fig3 CAPS-OCL-5110P/Base elapsed=3ff236e5d8271715 kernel=3ff2350418be67d2 transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3fe23dc486ad2dd1 lud_col:512:3fe22c43aacfa1eb",
    "fig3 PGI-K40/Base elapsed=3fa467ac78b521ab kernel=3fa436b70a8697fd transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f943b51eb98caa9 lud_col:512:3f94321c29746549",
    "fig3 CAPS-CUDA-K40/ThreadDist elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig3 CAPS-OCL-5110P/ThreadDist elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig3 PGI-K40/ThreadDist elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig3 CAPS-CUDA-K40/Unroll elapsed=3f854c82ca6b8ddf kernel=3f8488ad11b16727 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74898d63dabe54 lud_col:512:3f7487ccbf880fe8",
    "fig3 CAPS-OCL-5110P/Unroll elapsed=3f94a874b83fa041 kernel=3f943004de13cf96 transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f842c2ec06b22f1 lud_col:512:3f8433dafbbc7c4d",
    "fig3 PGI-K40/Unroll elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig3 CAPS-CUDA-K40/Tile elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig3 CAPS-OCL-5110P/Tile elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig3 PGI-K40/Tile elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig4 CAPS-K40/1x1 elapsed=400cce81272c3912 kernel=400ccdbd51737eeb transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3ffcdbbe0157eed6 lud_col:512:3ffcbfbca18f0f15",
    "fig4 CAPS-K40/256x16 elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig4 CAPS-K40/1024x64 elapsed=3f862edbb219c893 kernel=3f856b05f95fa1db transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f756ba1ca0e8145 lud_col:512:3f756a6a28b0c274",
    "fig4 PGI-K40/1x1 elapsed=405f95352305ccd3 kernel=405f952f04580702 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:404fa43fe5c91d1d lud_col:512:404f861e22e6f0f3",
    "fig4 PGI-K40/256x16 elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig4 PGI-K40/1024x64 elapsed=3f86301be3c99eea kernel=3f856c462b0f7832 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f756cbf3a6e9936 lud_col:512:3f756bcd1bb0572d",
    "fig4 CAPS-MIC/1x1 elapsed=3ff236e5d8271715 kernel=3ff2350418be67d2 transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3fe23dc486ad2dd1 lud_col:512:3fe22c43aacfa1eb",
    "fig4 CAPS-MIC/256x16 elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig4 CAPS-MIC/1024x64 elapsed=3f98eb937f387bfe kernel=3f987323a50cab53 transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f8819d87c91af53 lud_col:512:3f88cc6ecd87a747",
    "fig7 CAPS-CUDA-K40/Base elapsed=40137b9745567656 kernel=40137b2ee20d1d3e transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f8ee90635c682d6 fan2a:511:40135aaa58e221f8 fan2b:511:3f911006101803b5",
    "fig7 CAPS-OCL-5110P/Base elapsed=3ff8aa847db81893 kernel=3ff8a877f0fd58bb transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f86bdb5ada16367 fan2a:511:3ff84b7eb6945139 fan2b:511:3f87bee786e25cd7",
    "fig7 PGI-K40/Base elapsed=40186674ed236a32 kernel=4018660c89da111a transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712dc36f9b6aef fan2a:511:40185d6c913c97a1 fan2b:511:3f71521f064a76b6",
    "fig7 CAPS-CUDA-K40/Indep elapsed=3f91fadf3001bd9f kernel=3f91927be6a8a5a2 transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712da83fc7ca58 fan2a:511:3f81e51998498b0c fan2b:511:3f7152142a47b632",
    "fig7 CAPS-OCL-5110P/Indep elapsed=3fa40d5b4fe1c540 kernel=3fa3cbc9b889ca38 transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2a:511:3f934112a293b0c0 fan2b:511:3f848627db1ead7a",
    "fig7 PGI-K40/Indep elapsed=3fab6a9134814a2e kernel=3fab365f8fd4be30 transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712dc36f9b6aef fan2a:511:3fa6e66341180200 fan2b:511:3f71521f064a76b6",
    "fig7 CAPS-CUDA-K40/Reorg elapsed=3f9007bb3796be63 kernel=3f8f3eafdc7b4ccc transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Reorg elapsed=3fa0b246fad0f564 kernel=3fa070b56378fa5c transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Reorg elapsed=3fb1d3c91a3a1a8d kernel=3fb1b9b047e3d48e transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf",
    "fig7 CAPS-CUDA-K40/Unroll elapsed=3f9007bb3796be63 kernel=3f8f3eafdc7b4ccc transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Unroll elapsed=3fa0b246fad0f564 kernel=3fa070b56378fa5c transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Unroll elapsed=3fb1d3c942a0628c kernel=3fb1b9b0704a1c8d transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d4395065de",
    "fig7 CAPS-CUDA-K40/Tile elapsed=3f90030adba14e68 kernel=3f8f354f24906cd7 transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f711ae6cff20a06 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Tile elapsed=3fa162d89a3cd28e kernel=3fa1214702e4d786 transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f86e9203f908ea5 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Tile elapsed=3fb1d3c91a3a1a8d kernel=3fb1b9b047e3d48e transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf",
    "fig7 OCL-K40/OCL-Base elapsed=3f938bf8960d4563 kernel=3f9323954cb42d66 transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f710b7ad78ad528 fan2:511:3f8dc16d2da2f06d",
    "fig7 OCL-5110P/OCL-Base elapsed=3fab42bf9d584d60 kernel=3fab012e06005258 transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f87bc39ac9f0513 fan2:511:3fa5121f9ad89168",
    "fig7 OCL-K40/OCL-Advanced elapsed=3f88cd9ea2b17bce kernel=3f87fcd80fff4bd4 transfer=3f3a18d25645ff35 host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f70f210d1a195a2 fan2:511:3f7f079f4e5d01fd",
    "fig7 OCL-5110P/OCL-Advanced elapsed=3f9ff99347050396 kernel=3f9f767018550d87 transfer=3f406465d5fec1eb host=0000000000000000 h2d=2/1050624 d2h=2/1050624 while=0 outside=4 per_iter=0000000000000000 fan1:511:3f8670d555318abd fan2:511:3f943e056dbc4831",
    "ext1 OpenARC-K40/Hand elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "ext1 OpenARC-5110P/Hand elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "ext1 OpenARC-K40/Base elapsed=3f8680f8f5e9e38c kernel=3f85bd233d2fbcd4 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f75be67a4ceb479 lud_col:512:3f75bbded590c534",
    "ext1 OpenARC-5110P/Base elapsed=3f99dec384863b1d kernel=3f996653aa5a6a72 transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f891357cb98f022 lud_col:512:3f89b94f891be4ac",
    "ext2 CAPS-CUDA-K40/Naive elapsed=3fd91f39341591c5 kernel=3f8490439a173ddf transfer=3fd87ab71744d7d6 host=0000000000000000 h2d=1024/1073741824 d2h=1024/1073741824 while=0 outside=2048 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "ext2 CAPS-OCL-5110P/Naive elapsed=3fdf681a7c56eeec kernel=3f94c23f162c532d transfer=3fde1bf68af429b9 host=0000000000000000 h2d=1024/1073741824 d2h=1024/1073741824 while=0 outside=2048 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "ext2 PGI-K40/Naive elapsed=3fd9221fb46fd40c kernel=3f84ed13a55f86b2 transfer=3fd87ab71744d7d6 host=0000000000000000 h2d=1024/1073741824 d2h=1024/1073741824 while=0 outside=2048 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "ext2 CAPS-CUDA-K40/Step5 elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "ext2 CAPS-OCL-5110P/Step5 elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "ext2 PGI-K40/Step5 elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 h2d=1/1048576 d2h=1/1048576 while=0 outside=2 per_iter=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig10 CAPS-CUDA-K40/Base elapsed=3fe8b37d965e816f kernel=3fe87c43f56fa5a0 transfer=3f7b9cd0776de758 host=0000000000000000 h2d=13/16000040 d2h=21/22000040 while=10 outside=4 per_iter=4008000000000000 bfs_init:1:3ee0f4107ff75380 bfs_kernel1:10:3fe0193c7c8810db bfs_kernel2:10:3fd0c5ed09ae299d",
    "fig10 CAPS-OCL-5110P/Base elapsed=3fcfb340c437ca41 kernel=3fcea3eef540b453 transfer=3f80f51cef715ee3 host=0000000000000000 h2d=13/16000040 d2h=21/22000040 while=10 outside=4 per_iter=4008000000000000 bfs_init:1:3eef832813198d45 bfs_kernel1:10:3fc423a42f1ed17c bfs_kernel2:10:3fb4ff9973032cdb",
    "fig10 PGI-K40/Base elapsed=3fc2fe292a09ad97 kernel=0000000000000000 transfer=3f68f81e8a2ec28c host=3fc29a48afe0f28d h2d=3/16000000 d2h=1/2000000 while=10 outside=4 per_iter=0000000000000000 bfs_init:1:3e49c511dc3a41df bfs_kernel1:10:3fb8d4fe2cfa6d52 bfs_kernel2:10:3fa8bf25fe7aa821",
    "fig10 CAPS-CUDA-K40/Indep elapsed=3f7eab33f64fc076 kernel=3f48731bf70ec8f0 transfer=3f7b9cd0776de758 host=0000000000000000 h2d=13/16000040 d2h=21/22000040 while=10 outside=4 per_iter=4008000000000000 bfs_init:1:3ee0e53328a9f5e6 bfs_kernel1:10:3f3f359a12db2fdb bfs_kernel2:10:3f31297441fd1254",
    "fig10 CAPS-OCL-5110P/Indep elapsed=3f853f6262ee034e kernel=3f612915cdf291ad transfer=3f80f51cef715ee3 host=0000000000000000 h2d=13/16000040 d2h=21/22000040 while=10 outside=4 per_iter=4008000000000000 bfs_init:1:3ef2172ec5bb35a1 bfs_kernel1:10:3f54717d70c40d61 bfs_kernel2:10:3f4b30a2e0145247",
    "fig10 PGI-K40/Indep elapsed=3fc2fe292a09ad97 kernel=0000000000000000 transfer=3f68f81e8a2ec28c host=3fc29a48afe0f28d h2d=3/16000000 d2h=1/2000000 while=10 outside=4 per_iter=0000000000000000 bfs_init:1:3e49c511dc3a41df bfs_kernel1:10:3fb8d4fe2cfa6d52 bfs_kernel2:10:3fa8bf25fe7aa821",
    "fig10 OCL-K40/OCL elapsed=3f70a997347a34a4 kernel=3f498edec5ad7b5e transfer=3f6aef76b7890a70 host=0000000000000000 h2d=13/16000040 d2h=11/2000040 while=10 outside=4 per_iter=4000000000000000 bfs_init:1:3ee0e0d677a40409 bfs_kernel1:10:3f4080d41a358ca1 bfs_kernel2:10:3f31950ea332bd5c",
    "fig10 OCL-5110P/OCL elapsed=3f78cd98db0e3988 kernel=3f602ec7ccec0fc1 transfer=3f70b634f49831a7 host=0000000000000000 h2d=13/16000040 d2h=11/2000040 while=10 outside=4 per_iter=4000000000000000 bfs_init:1:3ef3c559bbde121a bfs_kernel1:10:3f5391de729fe8f7 bfs_kernel2:10:3f48f93780917c85",
    "fig15 ACC-K40-GCC/Base elapsed=3fd166f91326ce4b kernel=3fd160fb178de632 transfer=3f2d7b65fcdf0e44 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f83e8e8eac3357d boundary_x:2:3f358a337db971da constoprim_x:2:3f865027cf6ba75d eos_x:2:3f7a5b06472818df slope_x:2:3f9563f0d1750e5b trace_x:2:3f95f3ec3a3f2fda qleftright_x:2:3f8f4af83aa88c40 riemann_x:2:3f82bcf77de1936a cmpflx_x:2:3f9ff793ed29b0f5 update_x:2:3f8d0965af5c4e8b boundary_y:2:3f37c12306a67383 constoprim_y:2:3f865027cf6ba75d eos_y:2:3f7a5b06472818df slope_y:2:3f9683d674fd6933 trace_y:2:3f95f3ec3a3f2fda qleftright_y:2:3f9034537753fd0a riemann_y:2:3f82bcf77de1936a cmpflx_y:2:3f9ff793ed29b0f5 update_y:2:3f8e1c466ddebbf4",
    "fig15 ACC-K40-ICC/Base elapsed=3fd1661b9d9551b6 kernel=3fd160fb178de632 transfer=3f2d7b65fcdf0e44 host=3f1711947cfa26a2 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f83e8e8eac3357d boundary_x:2:3f358a337db971da constoprim_x:2:3f865027cf6ba75d eos_x:2:3f7a5b06472818df slope_x:2:3f9563f0d1750e5b trace_x:2:3f95f3ec3a3f2fda qleftright_x:2:3f8f4af83aa88c40 riemann_x:2:3f82bcf77de1936a cmpflx_x:2:3f9ff793ed29b0f5 update_x:2:3f8d0965af5c4e8b boundary_y:2:3f37c12306a67383 constoprim_y:2:3f865027cf6ba75d eos_y:2:3f7a5b06472818df slope_y:2:3f9683d674fd6933 trace_y:2:3f95f3ec3a3f2fda qleftright_y:2:3f9034537753fd0a riemann_y:2:3f82bcf77de1936a cmpflx_y:2:3f9ff793ed29b0f5 update_y:2:3f8e1c466ddebbf4",
    "fig15 ACC-5110P-GCC/Base elapsed=3fb5f74f30ae8d61 kernel=3fb5d85b0ae8914f transfer=3f35b9ea60cb35b7 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f691790eb4a3b63 boundary_x:2:3f20bd3c8bf76f8e constoprim_x:2:3f6c189f891cc9ba eos_x:2:3f60ad51b24f4812 slope_x:2:3f7ad723e8bd6e35 trace_x:2:3f7b8b1e2bba1814 qleftright_x:2:3f73a912079473ea riemann_x:2:3f67a0a3233030ca cmpflx_x:2:3f8407d7e5af9cbc update_x:2:3f7240167084cd59 boundary_y:2:3f221f92418b9098 constoprim_y:2:3f6c189f891cc9ba eos_y:2:3f60ad51b24f4812 slope_y:2:3f7c3f02f527dfc3 trace_y:2:3f7b8b1e2bba1814 qleftright_y:2:3f745b9f38141890 riemann_y:2:3f67a0a3233030ca cmpflx_y:2:3f8407d7e5af9cbc update_y:2:3f72ebe2e79651bb",
    "fig15 ACC-5110P-ICC/Base elapsed=3fb5f3d95a689b0f kernel=3fb5d85b0ae8914f transfer=3f35b9ea60cb35b7 host=3f1711947cfa26a2 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f691790eb4a3b63 boundary_x:2:3f20bd3c8bf76f8e constoprim_x:2:3f6c189f891cc9ba eos_x:2:3f60ad51b24f4812 slope_x:2:3f7ad723e8bd6e35 trace_x:2:3f7b8b1e2bba1814 qleftright_x:2:3f73a912079473ea riemann_x:2:3f67a0a3233030ca cmpflx_x:2:3f8407d7e5af9cbc update_x:2:3f7240167084cd59 boundary_y:2:3f221f92418b9098 constoprim_y:2:3f6c189f891cc9ba eos_y:2:3f60ad51b24f4812 slope_y:2:3f7c3f02f527dfc3 trace_y:2:3f7b8b1e2bba1814 qleftright_y:2:3f745b9f38141890 riemann_y:2:3f67a0a3233030ca cmpflx_y:2:3f8407d7e5af9cbc update_y:2:3f72ebe2e79651bb",
    "fig15 ACC-K40-GCC/Indep+Dist elapsed=3f4c31fd22f84630 kernel=3f403605f128147f transfer=3f2d7b65fcdf0e44 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3ef50c7428edc6ac boundary_x:2:3ef3f9aa0a0a1473 constoprim_x:2:3ef82cf834581869 eos_x:2:3ef566b7fcfb4856 slope_x:2:3eff5993ea4aae94 trace_x:2:3f035171078a878b qleftright_x:2:3eff3ce17b72e43c riemann_x:2:3ef71a8df0689979 cmpflx_x:2:3efc86c5a26f75fa update_x:2:3efe721fbb023df2 boundary_y:2:3ef3f9aa0a0a1473 constoprim_y:2:3ef82cf834581869 eos_y:2:3ef566b7fcfb4856 slope_y:2:3eff5993ea4aae94 trace_y:2:3f035171078a878b qleftright_y:2:3eff3ce17b72e43c riemann_y:2:3ef71a8df0689979 cmpflx_y:2:3efc86c5a26f75fa update_y:2:3efe721fbb023df2",
    "fig15 ACC-K40-ICC/Indep+Dist elapsed=3f4a7711ffff1ce4 kernel=3f403605f128147f transfer=3f2d7b65fcdf0e44 host=3f1711947cfa26a2 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3ef50c7428edc6ac boundary_x:2:3ef3f9aa0a0a1473 constoprim_x:2:3ef82cf834581869 eos_x:2:3ef566b7fcfb4856 slope_x:2:3eff5993ea4aae94 trace_x:2:3f035171078a878b qleftright_x:2:3eff3ce17b72e43c riemann_x:2:3ef71a8df0689979 cmpflx_x:2:3efc86c5a26f75fa update_x:2:3efe721fbb023df2 boundary_y:2:3ef3f9aa0a0a1473 constoprim_y:2:3ef82cf834581869 eos_y:2:3ef566b7fcfb4856 slope_y:2:3eff5993ea4aae94 trace_y:2:3f035171078a878b qleftright_y:2:3eff3ce17b72e43c riemann_y:2:3ef71a8df0689979 cmpflx_y:2:3efc86c5a26f75fa update_y:2:3efe721fbb023df2",
    "fig15 ACC-5110P-GCC/Indep+Dist elapsed=3f5f2f521f7eedbf kernel=3f577248adffe941 transfer=3f35b9ea60cb35b7 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f106bb301749f39 boundary_x:2:3f162c1155e8bfc8 constoprim_x:2:3f102c59358c9002 eos_x:2:3f0a933a6b1c13ee slope_x:2:3f154e9bc46c2b21 trace_x:2:3f16ebffc2ee51ad qleftright_x:2:3f13ddc734cc2953 riemann_x:2:3f0ea031c1cc9c2e cmpflx_x:2:3f1b46ad637af99b update_x:2:3f13c6b154cc3522 boundary_y:2:3f178e670b7ce0d1 constoprim_y:2:3f102c59358c9002 eos_y:2:3f0a933a6b1c13ee slope_y:2:3f15da31e52a66b1 trace_y:2:3f16ebffc2ee51ad qleftright_y:2:3f142308d4cc05e4 riemann_y:2:3f0ea031c1cc9c2e cmpflx_y:2:3f1b46ad637af99b update_y:2:3f141c979054f753",
    "fig15 ACC-5110P-ICC/Indep+Dist elapsed=3f5e51dc8e025919 kernel=3f577248adffe941 transfer=3f35b9ea60cb35b7 host=3f1711947cfa26a2 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f106bb301749f39 boundary_x:2:3f162c1155e8bfc8 constoprim_x:2:3f102c59358c9002 eos_x:2:3f0a933a6b1c13ee slope_x:2:3f154e9bc46c2b21 trace_x:2:3f16ebffc2ee51ad qleftright_x:2:3f13ddc734cc2953 riemann_x:2:3f0ea031c1cc9c2e cmpflx_x:2:3f1b46ad637af99b update_x:2:3f13c6b154cc3522 boundary_y:2:3f178e670b7ce0d1 constoprim_y:2:3f102c59358c9002 eos_y:2:3f0a933a6b1c13ee slope_y:2:3f15da31e52a66b1 trace_y:2:3f16ebffc2ee51ad qleftright_y:2:3f142308d4cc05e4 riemann_y:2:3f0ea031c1cc9c2e cmpflx_y:2:3f1b46ad637af99b update_y:2:3f141c979054f753",
    "fig15 OCL-K40/OCL elapsed=3f4e871b707db718 kernel=3f428b243ead8566 transfer=3f2d7b65fcdf0e44 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3ef53303f594e9ba boundary_x:2:3ef41689168ab3eb constoprim_x:2:3ef86d3e96d26fa3 eos_x:2:3ef58ee3fa87beda slope_x:2:3f106fba2380ec8a trace_x:2:3f03b064a4a7fcc3 qleftright_x:2:3effba8253337772 riemann_x:2:3ef751844eccd9e0 cmpflx_x:2:3efcecd851bbed96 update_x:2:3efeed857d191486 boundary_y:2:3ef41689168ab3eb constoprim_y:2:3ef86d3e96d26fa3 eos_y:2:3ef58ee3fa87beda slope_y:2:3f106fba2380ec8a trace_y:2:3f03b064a4a7fcc3 qleftright_y:2:3effba8253337772 riemann_y:2:3ef751844eccd9e0 cmpflx_y:2:3efcecd851bbed96 update_y:2:3efeed857d191486",
    "fig15 OCL-5110P/OCL elapsed=3f6c5b31d8b5a066 kernel=3f687cad1ff61e27 transfer=3f35b9ea60cb35b7 host=3f227476ca61b882 h2d=4/278784 d2h=7/278796 while=0 outside=11 per_iter=0000000000000000 courant:2:3f18fa21ef93f718 boundary_x:2:3f26bfb50c3bcd8b constoprim_x:2:3f1905776cc43b62 eos_x:2:3f13fae373a3c077 slope_x:2:3f374d154e378d27 trace_x:2:3f27f2c47e618e60 qleftright_x:2:3f21c21a84194ff5 riemann_x:2:3f18e9e096fa87ae cmpflx_x:2:3f276e43cbe17d7f update_x:2:3f2434c051136df1 boundary_y:2:3f26bfb50c3bcd8b constoprim_y:2:3f1905776cc43b62 eos_y:2:3f13fae373a3c077 slope_y:2:3f374d154e378d27 trace_y:2:3f27f2c47e618e60 qleftright_y:2:3f21c21a84194ff5 riemann_y:2:3f18e9e096fa87ae cmpflx_y:2:3f276e43cbe17d7f update_y:2:3f2434c051136df1",
];

#[test]
fn modeled_times_are_bit_identical_to_the_golden_cells() {
    let got: Vec<String> = fig3()
        .into_iter()
        .chain(fig4_corners())
        .chain(fig7())
        .chain(ext1())
        .chain(ext2())
        .chain(fig10())
        .chain(fig15())
        .collect();
    assert_eq!(got.len(), GOLDEN.len());
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}
