//! Golden-bits regression test for the analytic timing model.
//!
//! Every `f64` the model produces for a fixed set of paper cells at
//! quick scale (`n = 512`) is pinned by its IEEE-754 bit pattern: the
//! Fig. 3 LUD ladder, the corner cells of the three Fig. 4 heat maps
//! (1×1, 256×16, 1024×64), the Fig. 7 GE ladder and the OpenARC LUD
//! cells of the auto-tuning extension (hand `thread_dist(256, 16)` and
//! the baseline it tunes, on both devices). Any change to the
//! launch path — plan lookup, sampling order, summation order — that
//! moves a single bit of a modeled time fails here, even where the
//! rendered figures (three decimals) would not show it.

use paccport_compilers::{compile, CompileOptions, CompilerId, Flag};
use paccport_devsim::{run, RunConfig};
use paccport_ir::Program;
use paccport_kernels::{gaussian, lud, VariantCfg};

const N: f64 = 512.0;

fn series() -> [(&'static str, CompilerId, CompileOptions); 3] {
    [
        ("CAPS-CUDA-K40", CompilerId::Caps, CompileOptions::gpu()),
        ("CAPS-OCL-5110P", CompilerId::Caps, CompileOptions::mic()),
        ("PGI-K40", CompilerId::Pgi, CompileOptions::gpu()),
    ]
}

/// One line per cell: the four run totals and every kernel's launch
/// count and device time, all as hex bit patterns.
fn render(label: &str, compiler: CompilerId, opts: &CompileOptions, p: &Program) -> String {
    let c = compile(compiler, p, opts).expect("paper cells compile");
    let r = run(&c, &RunConfig::timing(vec![("n".into(), N)], 1)).expect("timing run");
    let mut line = format!(
        "{label} elapsed={:016x} kernel={:016x} transfer={:016x} host={:016x}",
        r.elapsed.to_bits(),
        r.kernel_time.to_bits(),
        r.transfer_time_s.to_bits(),
        r.host_time.to_bits()
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

/// The model's outputs for every cell, as bit patterns. A change to the
/// launch path must leave each one intact; only a deliberate change to
/// the model itself may rewrite this table.
const GOLDEN: &[&str] = &[
    "fig3 CAPS-CUDA-K40/Base elapsed=400cce81272c3912 kernel=400ccdbd51737eeb transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3ffcdbbe0157eed6 lud_col:512:3ffcbfbca18f0f15",
    "fig3 CAPS-OCL-5110P/Base elapsed=3ff236e5d8271715 kernel=3ff2350418be67d2 transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3fe23dc486ad2dd1 lud_col:512:3fe22c43aacfa1eb",
    "fig3 PGI-K40/Base elapsed=3fa467ac78b521ab kernel=3fa436b70a8697fd transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f943b51eb98caa9 lud_col:512:3f94321c29746549",
    "fig3 CAPS-CUDA-K40/ThreadDist elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig3 CAPS-OCL-5110P/ThreadDist elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig3 PGI-K40/ThreadDist elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig3 CAPS-CUDA-K40/Unroll elapsed=3f854c82ca6b8ddf kernel=3f8488ad11b16727 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f74898d63dabe54 lud_col:512:3f7487ccbf880fe8",
    "fig3 CAPS-OCL-5110P/Unroll elapsed=3f94a874b83fa041 kernel=3f943004de13cf96 transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f842c2ec06b22f1 lud_col:512:3f8433dafbbc7c4d",
    "fig3 PGI-K40/Unroll elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig3 CAPS-CUDA-K40/Tile elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig3 CAPS-OCL-5110P/Tile elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig3 PGI-K40/Tile elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig4 CAPS-K40/1x1 elapsed=400cce81272c3912 kernel=400ccdbd51737eeb transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3ffcdbbe0157eed6 lud_col:512:3ffcbfbca18f0f15",
    "fig4 CAPS-K40/256x16 elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "fig4 CAPS-K40/1024x64 elapsed=3f862edbb219c893 kernel=3f856b05f95fa1db transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f756ba1ca0e8145 lud_col:512:3f756a6a28b0c274",
    "fig4 PGI-K40/1x1 elapsed=405f95352305ccd3 kernel=405f952f04580702 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:404fa43fe5c91d1d lud_col:512:404f861e22e6f0f3",
    "fig4 PGI-K40/256x16 elapsed=3f85b0e95e19ad6a kernel=3f84ed13a55f86b2 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f74eaaa834bcf63 lud_col:512:3f74ef7cc7733e0a",
    "fig4 PGI-K40/1024x64 elapsed=3f86301be3c99eea kernel=3f856c462b0f7832 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f756cbf3a6e9936 lud_col:512:3f756bcd1bb0572d",
    "fig4 CAPS-MIC/1x1 elapsed=3ff236e5d8271715 kernel=3ff2350418be67d2 transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3fe23dc486ad2dd1 lud_col:512:3fe22c43aacfa1eb",
    "fig4 CAPS-MIC/256x16 elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "fig4 CAPS-MIC/1024x64 elapsed=3f98eb937f387bfe kernel=3f987323a50cab53 transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f8819d87c91af53 lud_col:512:3f88cc6ecd87a747",
    "fig7 CAPS-CUDA-K40/Base elapsed=40137b9745567656 kernel=40137b2ee20d1d3e transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f8ee90635c682d6 fan2a:511:40135aaa58e221f8 fan2b:511:3f911006101803b5",
    "fig7 CAPS-OCL-5110P/Base elapsed=3ff8aa847db81893 kernel=3ff8a877f0fd58bb transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f86bdb5ada16367 fan2a:511:3ff84b7eb6945139 fan2b:511:3f87bee786e25cd7",
    "fig7 PGI-K40/Base elapsed=40186674ed236a32 kernel=4018660c89da111a transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712dc36f9b6aef fan2a:511:40185d6c913c97a1 fan2b:511:3f71521f064a76b6",
    "fig7 CAPS-CUDA-K40/Indep elapsed=3f91fadf3001bd9f kernel=3f91927be6a8a5a2 transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712da83fc7ca58 fan2a:511:3f81e51998498b0c fan2b:511:3f7152142a47b632",
    "fig7 CAPS-OCL-5110P/Indep elapsed=3fa40d5b4fe1c540 kernel=3fa3cbc9b889ca38 transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2a:511:3f934112a293b0c0 fan2b:511:3f848627db1ead7a",
    "fig7 PGI-K40/Indep elapsed=3fab6a9134814a2e kernel=3fab365f8fd4be30 transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712dc36f9b6aef fan2a:511:3fa6e66341180200 fan2b:511:3f71521f064a76b6",
    "fig7 CAPS-CUDA-K40/Reorg elapsed=3f9007bb3796be63 kernel=3f8f3eafdc7b4ccc transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Reorg elapsed=3fa0b246fad0f564 kernel=3fa070b56378fa5c transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Reorg elapsed=3fb1d3c91a3a1a8d kernel=3fb1b9b047e3d48e transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf",
    "fig7 CAPS-CUDA-K40/Unroll elapsed=3f9007bb3796be63 kernel=3f8f3eafdc7b4ccc transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712da83fc7ca58 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Unroll elapsed=3fa0b246fad0f564 kernel=3fa070b56378fa5c transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f8426d9c1e119c4 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Unroll elapsed=3fb1d3c942a0628c kernel=3fb1b9b0704a1c8d transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d4395065de",
    "fig7 CAPS-CUDA-K40/Tile elapsed=3f90030adba14e68 kernel=3f8f354f24906cd7 transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f711ae6cff20a06 fan2:511:3f86a7dbbc97679b",
    "fig7 CAPS-OCL-5110P/Tile elapsed=3fa162d89a3cd28e kernel=3fa1214702e4d786 transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f86e9203f908ea5 fan2:511:3f96cdfde60167d7",
    "fig7 PGI-K40/Tile elapsed=3fb1d3c91a3a1a8d kernel=3fb1b9b047e3d48e transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f712dc36f9b6aef fan2:511:3fb0a6d410ea1ddf",
    "fig7 OCL-K40/OCL-Base elapsed=3f938bf8960d4563 kernel=3f9323954cb42d66 transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f710b7ad78ad528 fan2:511:3f8dc16d2da2f06d",
    "fig7 OCL-5110P/OCL-Base elapsed=3fab42bf9d584d60 kernel=3fab012e06005258 transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f87bc39ac9f0513 fan2:511:3fa5121f9ad89168",
    "fig7 OCL-K40/OCL-Advanced elapsed=3f88cd9ea2b17bce kernel=3f87fcd80fff4bd4 transfer=3f3a18d25645ff35 host=0000000000000000 fan1:511:3f70f210d1a195a2 fan2:511:3f7f079f4e5d01fd",
    "fig7 OCL-5110P/OCL-Advanced elapsed=3f9ff99347050396 kernel=3f9f767018550d87 transfer=3f406465d5fec1eb host=0000000000000000 fan1:511:3f8670d555318abd fan2:511:3f943e056dbc4831",
    "ext1 OpenARC-K40/Hand elapsed=3f85541952d16497 kernel=3f8490439a173ddf transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f748f77ff9cc5c5 lud_col:512:3f74910f3491b5ea",
    "ext1 OpenARC-5110P/Hand elapsed=3f953aaef05823d8 kernel=3f94c23f162c532d transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f84beda293a196e lud_col:512:3f84c5a4031e8cf8",
    "ext1 OpenARC-K40/Base elapsed=3f8680f8f5e9e38c kernel=3f85bd233d2fbcd4 transfer=3f387ab71744d70b host=0000000000000000 lud_row:512:3f75be67a4ceb479 lud_col:512:3f75bbded590c534",
    "ext1 OpenARC-5110P/Base elapsed=3f99dec384863b1d kernel=3f996653aa5a6a72 transfer=3f3e1bf68af42ad9 host=0000000000000000 lud_row:512:3f891357cb98f022 lud_col:512:3f89b94f891be4ac",
];

#[test]
fn modeled_times_are_bit_identical_to_the_golden_cells() {
    let got: Vec<String> = fig3()
        .into_iter()
        .chain(fig4_corners())
        .chain(fig7())
        .chain(ext1())
        .collect();
    assert_eq!(got.len(), GOLDEN.len());
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want);
    }
}
