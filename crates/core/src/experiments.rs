//! Generators for every table and figure of the paper's evaluation.
//!
//! Each `figN_*` / `tabN_*` function reruns the corresponding
//! experiment on the simulated test bed and returns structured data;
//! `crate::report` renders them, the `reproduce` binary prints them,
//! and the integration tests assert their shapes against the paper's
//! findings.
//!
//! Every generator that compiles takes an [`Engine`]: `figN_on(&eng,
//! scale)` builds its matrix of [`CheckCell`]s and runs them through
//! the engine's one cell runner ([`Engine::run_matrix`]), which fans
//! them out over the worker pool and the shared compile cache — as the
//! soundness check ([`check_soundness_on`]) and the profile sweep do
//! with theirs. Cell order, and therefore report output, is the same
//! for every worker count; `Engine::serial()` is the one-worker
//! reference.

use crate::engine::{Engine, JobFailure};
use crate::ppr::{PprComparison, PprEntry};
use crate::ptxcmp::{PtxBar, PtxFigure};
use crate::soundness::{check_compiled, SoundnessReport};
use crate::study::{measure, CheckCell, ElapsedFigure, Measured, Scale};
use paccport_compilers::{CompileOptions, CompilerId, Flag, HostCompiler};
use paccport_devsim::{sweep, CostHints, HeatMap, RunConfig};
use paccport_hydro as hydro;
use paccport_kernels::{backprop, bfs, gaussian, lud, VariantCfg};

fn gpu() -> CompileOptions {
    CompileOptions::gpu()
}

fn mic() -> CompileOptions {
    CompileOptions::mic()
}

fn bar_from(m: &Measured) -> PtxBar {
    PtxBar {
        label: format!("{} / {}", m.series, m.variant),
        config: m.config.clone(),
        counts: m.counts,
        memcpy_h2d: m.h2d,
        memcpy_d2h: m.d2h,
        launches: m.launches,
    }
}

/// Measure every cell of a figure's matrix through the engine's cell
/// runner; each job is named `series/variant`.
fn measure_cells(eng: &Engine, cells: Vec<CheckCell>) -> Vec<Result<Measured, JobFailure>> {
    eng.run_matrix(
        cells,
        |cell| format!("{}/{}", cell.series, cell.variant),
        |cell, c| measure(&cell.series, &cell.variant, c, &cell.cfg),
    )
}

/// Run an experiment matrix and build an [`ElapsedFigure`] that
/// completes with partial results: quarantined cells render as
/// explicit `FAILED(reason, attempts)` entries instead of aborting the
/// figure.
fn elapsed_figure(eng: &Engine, id: &str, title: &str, cells: Vec<CheckCell>) -> ElapsedFigure {
    let names: Vec<(String, String)> = cells
        .iter()
        .map(|c| (c.series.clone(), c.variant.clone()))
        .collect();
    ElapsedFigure {
        id: id.into(),
        title: title.into(),
        cells: names.into_iter().zip(measure_cells(eng, cells)).collect(),
    }
}

// ===================================================================
// LUD (Figures 3, 4, 6)
// ===================================================================

/// The Fig.-3 variant ladder for LUD.
pub fn lud_variants() -> Vec<(String, VariantCfg)> {
    let dist = VariantCfg::thread_dist(256, 16);
    let mut unroll = dist;
    unroll.unroll = Some(8);
    let mut tile = dist;
    tile.tile = Some(32);
    vec![
        ("Base".into(), VariantCfg::baseline()),
        ("ThreadDist".into(), dist),
        ("Unroll".into(), unroll),
        ("Tile".into(), tile),
    ]
}

/// Figure 3: elapsed time of LUD on GPU and MIC per optimization step.
pub fn fig3_lud_on(eng: &Engine, scale: &Scale) -> ElapsedFigure {
    let cfg = RunConfig::timing(vec![("n".into(), scale.lud_n as f64)], 1);
    let mut cells = Vec::new();
    for (variant, vc) in lud_variants() {
        let p = lud::program(&vc);
        for (series, compiler, opts) in [
            ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
            ("CAPS-OCL-5110P", CompilerId::Caps, mic()),
            ("PGI-K40", CompilerId::Pgi, gpu()),
        ] {
            cells.push(CheckCell::new(
                "LUD",
                series,
                &variant,
                compiler,
                opts,
                p.clone(),
                cfg.clone(),
            ));
        }
    }
    elapsed_figure(
        eng,
        "fig3",
        "Elapsed time of LUD OpenACC on GPU and MIC",
        cells,
    )
}

/// Figure 4: the three thread-distribution heat maps for LUD.
///
/// Batches the three sweeps on the engine (each sweep additionally
/// parallelizes its own rows internally).
pub fn fig4_heatmaps_on(eng: &Engine, scale: &Scale) -> Vec<HeatMap> {
    let gangs: Vec<u32> = vec![1, 32, 64, 128, 240, 256, 512, 1024];
    let workers: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64];
    let p = lud::program(&VariantCfg::baseline());
    let cfg = RunConfig::timing(vec![("n".into(), scale.lud_n as f64)], 1);
    let configure = |p: &mut paccport_ir::Program, g: u32, w: u32| {
        p.map_kernels(|k| {
            for lp in &mut k.loops {
                lp.clauses.gang = Some(g);
                lp.clauses.worker = Some(w);
            }
        });
    };
    let sweeps = [
        ("CAPS-K40", CompilerId::Caps, gpu()),
        ("PGI-K40", CompilerId::Pgi, gpu()),
        ("CAPS-MIC (5110P)", CompilerId::Caps, mic()),
    ];
    let tasks: Vec<_> = sweeps
        .iter()
        .map(|(title, compiler, opts)| {
            let (p, cfg, gangs, workers) = (&p, &cfg, &gangs, &workers);
            move || sweep(title, p, *compiler, opts, cfg, gangs, workers, configure)
        })
        .collect();
    eng.run_batch(tasks).into_iter().flatten().collect()
}

/// Figure 6: PTX instruction composition of LUD per step, CAPS vs PGI.
///
/// The CAPS GPU cells reuse the artifacts fig. 3 compiled when both run
/// on one engine.
pub fn fig6_lud_ptx_on(eng: &Engine, scale: &Scale) -> PtxFigure {
    let cfg = RunConfig::timing(vec![("n".into(), scale.lud_n.min(512) as f64)], 1);
    let mut cells = Vec::new();
    for (series, compiler, opts) in [
        ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
        ("PGI-K40", CompilerId::Pgi, gpu()),
    ] {
        for (variant, vc) in lud_variants() {
            // PGI's unroll knob is the -Munroll flag, not a directive.
            let (p, opts) = if compiler == CompilerId::Pgi && variant == "Unroll" {
                let mut base = lud_variants()[1].1;
                base.unroll = None;
                (lud::program(&base), opts.clone().with_flag(Flag::Munroll))
            } else if compiler == CompilerId::Pgi && variant == "Tile" {
                // PGI does not support tiling (Section V-A1) — skip.
                continue;
            } else {
                (lud::program(&vc), opts.clone())
            };
            cells.push(CheckCell::new(
                "LUD",
                series,
                &variant,
                compiler,
                opts,
                p,
                cfg.clone(),
            ));
        }
    }
    PtxFigure {
        id: "fig6".into(),
        title: "PTX instructions of LUD for CAPS and PGI".into(),
        bars: measure_cells(eng, cells)
            .into_iter()
            .flatten()
            .map(|m| bar_from(&m))
            .collect(),
    }
}

// ===================================================================
// Gaussian Elimination (Figures 7, 8, 9)
// ===================================================================

/// The Fig.-7 variant ladder for GE.
pub fn ge_variants() -> Vec<(String, VariantCfg)> {
    let indep = VariantCfg::independent();
    let mut reorg = indep;
    reorg.reorganized = true;
    let mut unroll = reorg;
    unroll.unroll = Some(8);
    let mut tile = reorg;
    tile.tile = Some(32);
    vec![
        ("Base".into(), VariantCfg::baseline()),
        ("Indep".into(), indep),
        ("Reorg".into(), reorg),
        ("Unroll".into(), unroll),
        ("Tile".into(), tile),
    ]
}

/// Figure 7: elapsed time of GE, including the OpenCL versions.
pub fn fig7_ge_on(eng: &Engine, scale: &Scale) -> ElapsedFigure {
    let cfg = RunConfig::timing(vec![("n".into(), scale.ge_n as f64)], 1);
    let mut cells = Vec::new();
    for (variant, vc) in ge_variants() {
        let p = gaussian::program(&vc);
        for (series, compiler, opts) in [
            ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
            ("CAPS-OCL-5110P", CompilerId::Caps, mic()),
            ("PGI-K40", CompilerId::Pgi, gpu()),
        ] {
            // PGI unroll = -Munroll on the reorganized version.
            let (p2, opts) = if compiler == CompilerId::Pgi && variant == "Unroll" {
                let mut reorg = VariantCfg::independent();
                reorg.reorganized = true;
                (
                    gaussian::program(&reorg),
                    opts.clone().with_flag(Flag::Munroll),
                )
            } else {
                (p.clone(), opts.clone())
            };
            cells.push(CheckCell::new(
                "GE",
                series,
                &variant,
                compiler,
                opts,
                p2,
                cfg.clone(),
            ));
        }
    }
    // The hand-written OpenCL versions (baseline + Fig. 8 advanced).
    for (variant, adv) in [("OCL-Base", false), ("OCL-Advanced", true)] {
        let p = gaussian::opencl_program(adv);
        for (series, opts) in [("OCL-K40", gpu()), ("OCL-5110P", mic())] {
            cells.push(CheckCell::new(
                "GE",
                series,
                variant,
                CompilerId::OpenClHand,
                opts,
                p.clone(),
                cfg.clone(),
            ));
        }
    }
    elapsed_figure(
        eng,
        "fig7",
        "Elapsed time of GE OpenACC on GPU and MIC",
        cells,
    )
}

/// Figure 8: the advanced thread-distribution configuration lifted
/// from CAPS's generated HMPP codelets, rendered as the paper shows.
pub fn fig8_advanced_config() -> String {
    [
        "// i is the loop iteration of outer loop.",
        "hmppcg_call.setSizeX((Size - i - 1) / 32 + 1);  // global work group size, X",
        "hmppcg_call.setSizeY((Size - 1 - i - 1) / 4 + 1); // global work group size, Y",
        "hmppcg_call.setBlockSizeX(32);                  // local work group size",
        "hmppcg_call.setBlockSizeY(4);                   // local work group size",
        "hmppcg_call.setWorkDim(2);",
    ]
    .join("\n")
}

/// Figure 9: GE PTX composition with memcpy and kernel-launch rows.
pub fn fig9_ge_ptx_on(eng: &Engine, scale: &Scale) -> PtxFigure {
    let n = scale.ge_n.min(512) as f64;
    let cfg = RunConfig::timing(vec![("n".into(), n)], 1);
    let mut cells = Vec::new();
    // OpenCL first (the paper's left bars).
    cells.push(CheckCell::new(
        "GE",
        "OCL-K40",
        "Base",
        CompilerId::OpenClHand,
        gpu(),
        gaussian::opencl_program(false),
        cfg.clone(),
    ));
    for (series, compiler) in [
        ("CAPS-CUDA-K40", CompilerId::Caps),
        ("PGI-K40", CompilerId::Pgi),
    ] {
        for (variant, vc) in ge_variants() {
            let (p, opts) = if compiler == CompilerId::Pgi && variant == "Unroll" {
                let mut reorg = VariantCfg::independent();
                reorg.reorganized = true;
                (gaussian::program(&reorg), gpu().with_flag(Flag::Munroll))
            } else if compiler == CompilerId::Pgi && variant == "Tile" {
                continue;
            } else {
                (gaussian::program(&vc), gpu())
            };
            cells.push(CheckCell::new(
                "GE",
                series,
                &variant,
                compiler,
                opts,
                p,
                cfg.clone(),
            ));
        }
    }
    PtxFigure {
        id: "fig9".into(),
        title: "PTX instructions of GE for CAPS and PGI".into(),
        bars: measure_cells(eng, cells)
            .into_iter()
            .flatten()
            .map(|m| bar_from(&m))
            .collect(),
    }
}

// ===================================================================
// BFS (Figures 10, 11; Table VII)
// ===================================================================

fn bfs_cfg(scale: &Scale) -> RunConfig {
    RunConfig::timing(
        vec![
            ("n".into(), scale.bfs_n as f64),
            (
                "nedges".into(),
                (scale.bfs_n * (scale.bfs_avg_degree + 1)) as f64,
            ),
            ("source".into(), 0.0),
        ],
        scale.bfs_levels,
    )
    .with_hints(bfs_hints(scale))
}

fn bfs_hints(scale: &Scale) -> CostHints {
    bfs::hints(
        scale.bfs_avg_degree as f64 + 1.0,
        1.0 / scale.bfs_levels as f64,
    )
}

/// Figure 10: elapsed time of BFS.
pub fn fig10_bfs_on(eng: &Engine, scale: &Scale) -> ElapsedFigure {
    let cfg = bfs_cfg(scale);
    let mut cells = Vec::new();
    for (variant, vc) in [
        ("Base", VariantCfg::baseline()),
        ("Indep", VariantCfg::independent()),
    ] {
        let p = bfs::program(&vc);
        for (series, compiler, opts) in [
            ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
            ("CAPS-OCL-5110P", CompilerId::Caps, mic()),
            ("PGI-K40", CompilerId::Pgi, gpu()),
        ] {
            cells.push(CheckCell::new(
                "BFS",
                series,
                variant,
                compiler,
                opts,
                p.clone(),
                cfg.clone(),
            ));
        }
    }
    let p = bfs::opencl_program();
    for (series, opts) in [("OCL-K40", gpu()), ("OCL-5110P", mic())] {
        cells.push(CheckCell::new(
            "BFS",
            series,
            "OCL",
            CompilerId::OpenClHand,
            opts,
            p.clone(),
            cfg.clone(),
        ));
    }
    elapsed_figure(eng, "fig10", "Elapsed time of BFS on GPU and MIC", cells)
}

/// Figure 11: BFS PTX composition (incl. the PGI stub discovery).
pub fn fig11_bfs_ptx_on(eng: &Engine, scale: &Scale) -> PtxFigure {
    let cfg = bfs_cfg(scale);
    let mut cells = vec![CheckCell::new(
        "BFS",
        "OCL-K40",
        "OCL",
        CompilerId::OpenClHand,
        gpu(),
        bfs::opencl_program(),
        cfg.clone(),
    )];
    for (series, compiler) in [
        ("CAPS-CUDA-K40", CompilerId::Caps),
        ("PGI-K40", CompilerId::Pgi),
    ] {
        for (variant, vc) in [
            ("Base", VariantCfg::baseline()),
            ("Indep", VariantCfg::independent()),
        ] {
            cells.push(CheckCell::new(
                "BFS",
                series,
                variant,
                compiler,
                gpu(),
                bfs::program(&vc),
                cfg.clone(),
            ));
        }
    }
    PtxFigure {
        id: "fig11".into(),
        title: "PTX instructions of BFS for CAPS and PGI".into(),
        bars: measure_cells(eng, cells)
            .into_iter()
            .flatten()
            .map(|m| bar_from(&m))
            .collect(),
    }
}

/// One row of Table VII.
#[derive(Debug, Clone, PartialEq)]
pub struct Table7Row {
    pub compiler: String,
    pub default_mode: String,
    pub with_independent_mode: String,
    pub data_transfers: String,
}

/// Table VII: BFS execution modes and data transfers.
///
/// Its four cells are the same BFS GPU artifacts as fig. 10/11, so on a
/// shared engine they are pure cache hits.
pub fn tab7_bfs_on(eng: &Engine, scale: &Scale) -> Vec<Table7Row> {
    let cfg = bfs_cfg(scale);
    let mut cells = Vec::new();
    for (name, compiler) in [("CAPS", CompilerId::Caps), ("PGI", CompilerId::Pgi)] {
        cells.push(CheckCell::new(
            "BFS",
            name,
            "Base",
            compiler,
            gpu(),
            bfs::program(&VariantCfg::baseline()),
            cfg.clone(),
        ));
        cells.push(CheckCell::new(
            "BFS",
            name,
            "Indep",
            compiler,
            gpu(),
            bfs::program(&VariantCfg::independent()),
            cfg.clone(),
        ));
    }
    let mut measured = measure_cells(eng, cells).into_iter();
    let mut rows = Vec::new();
    for (name, _) in [("CAPS", CompilerId::Caps), ("PGI", CompilerId::Pgi)] {
        // A quarantined cell drops its row (it is already in the
        // engine's quarantine ledger) instead of aborting the table.
        let (Ok(base), Ok(indep)) = (
            measured.next().expect("matrix preserves arity"),
            measured.next().expect("matrix preserves arity"),
        ) else {
            continue;
        };
        let transfers = if indep.transfers_per_while_iter >= 1.0 {
            format!(
                "{:.0} times in each iteration",
                indep.transfers_per_while_iter
            )
        } else {
            format!("{} times in total", indep.h2d + indep.d2h)
        };
        rows.push(Table7Row {
            compiler: name.into(),
            default_mode: base.exec_mode().into(),
            with_independent_mode: indep.exec_mode().into(),
            data_transfers: transfers,
        });
    }
    rows
}

// ===================================================================
// Back Propagation (Figures 12, 13, 14)
// ===================================================================

fn bp_cfg(scale: &Scale) -> RunConfig {
    RunConfig::timing(
        vec![
            ("n_in".into(), scale.bp_in as f64),
            ("n_hid".into(), scale.bp_hid as f64),
        ],
        1,
    )
}

/// The Fig.-12/14 variant ladder for BP.
pub fn bp_variants() -> Vec<(String, VariantCfg)> {
    let indep = VariantCfg::independent();
    let mut red = indep;
    red.reduction = true;
    let mut unroll = red;
    unroll.unroll = Some(8);
    vec![
        ("Base".into(), VariantCfg::baseline()),
        ("Indep".into(), indep),
        ("Reduction".into(), red),
        ("Unroll".into(), unroll),
    ]
}

/// Figure 12: elapsed time of BP.
pub fn fig12_bp_on(eng: &Engine, scale: &Scale) -> ElapsedFigure {
    let cfg = bp_cfg(scale);
    let mut cells = Vec::new();
    for (variant, vc) in bp_variants() {
        let p = backprop::program(&vc);
        for (series, compiler, opts) in [
            ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
            ("CAPS-OCL-5110P", CompilerId::Caps, mic()),
            ("PGI-K40", CompilerId::Pgi, gpu()),
        ] {
            cells.push(CheckCell::new(
                "BP",
                series,
                &variant,
                compiler,
                opts,
                p.clone(),
                cfg.clone(),
            ));
        }
    }
    let p = backprop::opencl_program(128);
    for (series, opts) in [("OCL-K40", gpu()), ("OCL-5110P", mic())] {
        cells.push(CheckCell::new(
            "BP",
            series,
            "OCL",
            CompilerId::OpenClHand,
            opts,
            p.clone(),
            cfg.clone(),
        ));
    }
    elapsed_figure(eng, "fig12", "Elapsed time of BP on GPU and MIC", cells)
}

/// Figure 13: the shared-memory tree reduction, as lowered by the
/// compilers for the `reduction` directive (rendered IR).
///
/// Compiles through the engine's cache: the same artifact fig. 12's
/// Reduction cell uses.
pub fn fig13_reduction_listing_on(eng: &Engine) -> String {
    let mut vc = VariantCfg::independent();
    vc.reduction = true;
    let p = backprop::program(&vc);
    let c = eng
        .compile_resilient(CompilerId::Caps, &p, &gpu())
        .expect("compile");
    let k = c.program.kernel("layer_forward").expect("forward kernel");
    paccport_ir::kernel_to_string(&c.program, k)
}

/// Figure 14: BP PTX composition.
pub fn fig14_bp_ptx_on(eng: &Engine, scale: &Scale) -> PtxFigure {
    let cfg = bp_cfg(scale);
    let mut cells = vec![CheckCell::new(
        "BP",
        "OCL-K40",
        "OCL",
        CompilerId::OpenClHand,
        gpu(),
        backprop::opencl_program(128),
        cfg.clone(),
    )];
    for (series, compiler) in [
        ("CAPS-CUDA-K40", CompilerId::Caps),
        ("PGI-K40", CompilerId::Pgi),
    ] {
        for (variant, vc) in bp_variants() {
            cells.push(CheckCell::new(
                "BP",
                series,
                &variant,
                compiler,
                gpu(),
                backprop::program(&vc),
                cfg.clone(),
            ));
        }
    }
    PtxFigure {
        id: "fig14".into(),
        title: "PTX instructions of BP for CAPS and PGI".into(),
        bars: measure_cells(eng, cells)
            .into_iter()
            .flatten()
            .map(|m| bar_from(&m))
            .collect(),
    }
}

// ===================================================================
// Hydro (Figure 15)
// ===================================================================

/// Figure 15: Hydro elapsed times — OpenCL vs CAPS OpenACC, GPU vs
/// MIC, GCC vs Intel host compiler.
pub fn fig15_hydro_on(eng: &Engine, scale: &Scale) -> ElapsedFigure {
    let cfg = hydro::timing_run_config(scale.hydro_n, scale.hydro_n, scale.hydro_steps);
    let mut cells = Vec::new();
    let variants = [
        ("Base", hydro::HydroVariant::Baseline),
        ("Indep+Dist", hydro::HydroVariant::Optimized),
    ];
    for (variant, hv) in variants {
        let p = hydro::program(hv);
        for (series, opts) in [
            ("ACC-K40 (GCC)", gpu()),
            (
                "ACC-K40 (ICC)",
                gpu().with_host_compiler(HostCompiler::Intel),
            ),
            ("ACC-5110P (GCC)", mic()),
            (
                "ACC-5110P (ICC)",
                mic().with_host_compiler(HostCompiler::Intel),
            ),
        ] {
            cells.push(CheckCell::new(
                "Hydro",
                series,
                variant,
                CompilerId::Caps,
                opts,
                p.clone(),
                cfg.clone(),
            ));
        }
    }
    let p = hydro::program(hydro::HydroVariant::OpenCl);
    for (series, opts) in [("OCL-K40", gpu()), ("OCL-5110P", mic())] {
        cells.push(CheckCell::new(
            "Hydro",
            series,
            "OCL",
            CompilerId::OpenClHand,
            opts,
            p.clone(),
            cfg.clone(),
        ));
    }
    elapsed_figure(
        eng,
        "fig15",
        "Elapsed time of Hydro: OpenCL vs CAPS OpenACC",
        cells,
    )
}

// ===================================================================
// PPR (Figure 16)
// ===================================================================

/// Figure 16: PPR of the optimized CAPS OpenACC versions vs the
/// OpenCL versions across GPU and MIC, for GE, BFS, BP and Hydro
/// (LUD is excluded, as in the paper: its OpenCL version uses a
/// different algorithm).
///
/// Runs 4 benchmarks × 4 timings (OpenACC/OpenCL × GPU/MIC) as one
/// 16-cell batch.
pub fn fig16_ppr_on(eng: &Engine, scale: &Scale) -> Vec<PprComparison> {
    // GE: optimized (reorganized + independent) vs OpenCL baseline.
    // BP: optimized = independent (the reduction is wrong on MIC, so
    // the paper's portable version stops at independent).
    let mut ge_vc = VariantCfg::independent();
    ge_vc.reorganized = true;
    let benches: Vec<(&str, paccport_ir::Program, paccport_ir::Program, RunConfig)> = vec![
        (
            "GE",
            gaussian::program(&ge_vc),
            gaussian::opencl_program(false),
            RunConfig::timing(vec![("n".into(), scale.ge_n as f64)], 1),
        ),
        (
            "BFS",
            bfs::program(&VariantCfg::independent()),
            bfs::opencl_program(),
            bfs_cfg(scale),
        ),
        (
            "BP",
            backprop::program(&VariantCfg::independent()),
            backprop::opencl_program(128),
            bp_cfg(scale),
        ),
        (
            "Hydro",
            hydro::program(hydro::HydroVariant::Optimized),
            hydro::program(hydro::HydroVariant::OpenCl),
            hydro::timing_run_config(scale.hydro_n, scale.hydro_n, scale.hydro_steps),
        ),
    ];

    let mut cells = Vec::new();
    for (bench, acc_prog, ocl_prog, cfg) in &benches {
        for (prog, id, model) in [
            (acc_prog, CompilerId::Caps, "ACC"),
            (ocl_prog, CompilerId::OpenClHand, "OCL"),
        ] {
            for (opts, dev) in [(gpu(), "GPU"), (mic(), "MIC")] {
                cells.push(CheckCell::new(
                    *bench,
                    *bench,
                    format!("{model}-{dev}"),
                    id,
                    opts,
                    prog.clone(),
                    cfg.clone(),
                ));
            }
        }
    }
    let times: Vec<Option<f64>> = measure_cells(eng, cells)
        .into_iter()
        .map(|r| r.ok().map(|m| m.seconds))
        .collect();

    let mut out = Vec::new();
    for (b, (bench, ..)) in benches.iter().enumerate() {
        // Cell layout per bench: [acc-gpu, acc-mic, ocl-gpu, ocl-mic].
        let t = |i: usize| times[b * 4 + i];
        let comparison = (|| {
            Some(PprComparison {
                openacc: PprEntry {
                    benchmark: (*bench).into(),
                    version: "OpenACC (CAPS)".into(),
                    gpu_seconds: t(0)?,
                    mic_seconds: t(1)?,
                },
                opencl: PprEntry {
                    benchmark: (*bench).into(),
                    version: "OpenCL".into(),
                    gpu_seconds: t(2)?,
                    mic_seconds: t(3)?,
                },
            })
        })();
        if let Some(c) = comparison {
            out.push(c);
        }
    }
    out
}

// ===================================================================
// Extensions: the paper's future work, implemented
// ===================================================================

/// Extension 1 (Section VII: adopting OpenARC + auto-tuning): compare
/// the hand-written method's LUD distribution against an
/// OpenARC-style per-kernel auto-tune, on both devices.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtAutotuneRow {
    pub device: String,
    pub hand_seconds: f64,
    pub tuned_seconds: f64,
    pub tuned_configs: Vec<(String, u32, u32)>,
    pub tuning_runs: usize,
}

/// Run extension 1 on LUD.
///
/// Batches the two device rows on the engine (each row's auto-tune
/// search stays internal to its task).
pub fn ext1_autotune_vs_hand_on(eng: &Engine, scale: &Scale) -> Vec<ExtAutotuneRow> {
    use crate::autotune::{autotune_distribution, default_candidates};
    let cfg = RunConfig::timing(vec![("n".into(), scale.lud_n as f64)], 1);
    let hand = lud::program(&VariantCfg::thread_dist(256, 16));
    let base = lud::program(&VariantCfg::baseline());
    let (cfg, hand, base) = (&cfg, &hand, &base);
    let jobs: Vec<_> = [("K40", gpu()), ("5110P", mic())]
        .into_iter()
        .map(|(device, opts)| {
            let cache = eng.cache();
            let seconds = move |p: &paccport_ir::Program, opts: &CompileOptions| {
                let c = cache
                    .compile(CompilerId::OpenArc, p, opts)
                    .map_err(|e| e.to_string())?;
                measure("x", "ext1", &c, cfg).map(|m| m.seconds)
            };
            let task = move || -> Result<ExtAutotuneRow, String> {
                let t_hand = seconds(hand, &opts)?;
                let tuned = autotune_distribution(
                    base,
                    CompilerId::OpenArc,
                    &opts,
                    cfg,
                    &default_candidates(),
                )
                .map_err(|e| e.to_string())?;
                let t_tuned = seconds(&tuned.program, &opts)?;
                Ok(ExtAutotuneRow {
                    device: device.into(),
                    hand_seconds: t_hand,
                    tuned_seconds: t_tuned,
                    tuned_configs: tuned
                        .per_kernel
                        .iter()
                        .map(|t| (t.kernel.clone(), t.chosen.gang, t.chosen.worker))
                        .collect(),
                    tuning_runs: tuned.total_runs,
                })
            };
            (format!("ext1/{device}"), task)
        })
        .collect();
    eng.run_resilient(jobs).into_iter().flatten().collect()
}

/// Extension 2 (Section VII: "inserting the data region directives"):
/// transfers and elapsed time for LUD without any data region, and
/// after Step 5 inserts one.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtDataRegionRow {
    pub label: String,
    pub transfers: u64,
    pub seconds: f64,
}

/// Run extension 2 on LUD.
pub fn ext2_data_regions_on(eng: &Engine, scale: &Scale) -> Vec<ExtDataRegionRow> {
    let n = scale.lud_n.min(1024);
    let cfg = RunConfig::timing(vec![("n".into(), n as f64)], 1);
    let optimized = lud::program(&VariantCfg::thread_dist(256, 16));
    let naive = crate::step5::strip_data_regions(&optimized);
    let mut restored = naive.clone();
    crate::step5::insert_data_regions(&mut restored);
    let labels = [
        "no data region (naive port)",
        "after Step 5 (region inserted)",
    ];
    let cells = [naive, restored]
        .into_iter()
        .zip(labels)
        .map(|(p, label)| {
            CheckCell::new("LUD", "x", label, CompilerId::Caps, gpu(), p, cfg.clone())
        })
        .collect();
    measure_cells(eng, cells)
        .into_iter()
        .zip(labels)
        .filter_map(|(r, label)| {
            r.ok().map(|m| ExtDataRegionRow {
                label: label.into(),
                transfers: m.h2d + m.d2h,
                seconds: m.seconds,
            })
        })
        .collect()
}

// ===================================================================
// Soundness check: static dependence analysis vs dynamic races
// ===================================================================

/// The full benchmark matrix as functional soundness cells: every
/// variant × target of the evaluation, at sizes small enough to
/// interpret instruction-by-instruction under the race detector but
/// large enough to execute every kernel. See [`crate::soundness`].
pub fn soundness_cells(scale: &Scale) -> Vec<CheckCell> {
    use paccport_devsim::Buffer;
    use paccport_kernels::{diag_dominant_matrix, random_vec};

    let mut cells = Vec::new();
    let acc_targets = [
        ("CAPS-CUDA-K40", CompilerId::Caps, gpu()),
        ("CAPS-OCL-5110P", CompilerId::Caps, mic()),
        ("PGI-K40", CompilerId::Pgi, gpu()),
    ];
    let ocl_targets = [("OCL-K40", gpu()), ("OCL-5110P", mic())];

    // LUD: all four optimization steps.
    {
        let n = scale.lud_n.min(48);
        let cfg = RunConfig::functional(vec![("n".into(), n as f64)])
            .with_input("a", Buffer::F32(diag_dominant_matrix(n, 21)));
        for (variant, vc) in lud_variants() {
            let p = lud::program(&vc);
            for (series, compiler, opts) in &acc_targets {
                cells.push(CheckCell::new(
                    "LUD",
                    *series,
                    &variant,
                    *compiler,
                    opts.clone(),
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
    }

    // GE: the OpenACC ladder plus both hand-written OpenCL versions.
    {
        let n = scale.ge_n.min(48);
        let cfg = RunConfig::functional(vec![("n".into(), n as f64)])
            .with_input("a", Buffer::F32(diag_dominant_matrix(n, 5)))
            .with_input("b", Buffer::F32(random_vec(n, 6)));
        for (variant, vc) in ge_variants() {
            let p = gaussian::program(&vc);
            for (series, compiler, opts) in &acc_targets {
                cells.push(CheckCell::new(
                    "GE",
                    *series,
                    &variant,
                    *compiler,
                    opts.clone(),
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
        for (variant, adv) in [("OCL-Base", false), ("OCL-Advanced", true)] {
            let p = gaussian::opencl_program(adv);
            for (series, opts) in &ocl_targets {
                cells.push(CheckCell::new(
                    "GE",
                    *series,
                    variant,
                    CompilerId::OpenClHand,
                    opts.clone(),
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
    }

    // BFS: indirect addressing — the analysis refuses, the detector
    // confirms the refusal was conservative but not wrong.
    {
        let n = scale.bfs_n.min(512);
        let g = bfs::Graph::random(n, scale.bfs_avg_degree.max(1), 17);
        let mut mask = vec![0i32; g.n];
        mask[0] = 1;
        let cfg = RunConfig::functional(vec![
            ("n".into(), g.n as f64),
            ("nedges".into(), g.edges.len() as f64),
            ("source".into(), 0.0),
        ])
        .with_input("nodes", Buffer::I32(g.nodes.clone()))
        .with_input("edges", Buffer::I32(g.edges.clone()))
        .with_input("mask", Buffer::I32(mask));
        for (variant, vc) in [
            ("Base", VariantCfg::baseline()),
            ("Indep", VariantCfg::independent()),
        ] {
            let p = bfs::program(&vc);
            for (series, compiler, opts) in &acc_targets {
                cells.push(CheckCell::new(
                    "BFS",
                    *series,
                    variant,
                    *compiler,
                    opts.clone(),
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
        let p = bfs::opencl_program();
        for (series, opts) in &ocl_targets {
            cells.push(CheckCell::new(
                "BFS",
                *series,
                "OCL",
                CompilerId::OpenClHand,
                opts.clone(),
                p.clone(),
                cfg.clone(),
            ));
        }
    }

    // BP: includes the Reduction (and Unroll-on-top-of-Reduction)
    // variants whose CAPS-on-MIC plans are known-wrong — the cells the
    // lost-update demonstration must catch.
    {
        let n_in = scale.bp_in.min(256);
        let n_hid = scale.bp_hid.min(16);
        let w_len = (n_in + 1) * (n_hid + 1);
        let cfg = RunConfig::functional(vec![
            ("n_in".into(), n_in as f64),
            ("n_hid".into(), n_hid as f64),
        ])
        .with_input("input", Buffer::F32(random_vec(n_in + 1, 1)))
        .with_input("w", Buffer::F32(random_vec(w_len, 2)))
        .with_input("delta", Buffer::F32(random_vec(n_hid + 1, 3)))
        .with_input("oldw", Buffer::F32(random_vec(w_len, 4)));
        for (variant, vc) in bp_variants() {
            let p = backprop::program(&vc);
            for (series, compiler, opts) in &acc_targets {
                cells.push(CheckCell::new(
                    "BP",
                    *series,
                    &variant,
                    *compiler,
                    opts.clone(),
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
        let p = backprop::opencl_program(128);
        for (series, opts) in &ocl_targets {
            cells.push(CheckCell::new(
                "BP",
                *series,
                "OCL",
                CompilerId::OpenClHand,
                opts.clone(),
                p.clone(),
                cfg.clone(),
            ));
        }
    }

    // Hydro: the full real application (PGI cannot compile it, as in
    // the paper, so only CAPS and the hand-written OpenCL run).
    {
        let n = scale.hydro_n.min(24);
        let steps = scale.hydro_steps.clamp(1, 2);
        let cfg = hydro::sod_run_config(n, n, steps);
        for (variant, hv) in [
            ("Base", hydro::HydroVariant::Baseline),
            ("Indep+Dist", hydro::HydroVariant::Optimized),
        ] {
            let p = hydro::program(hv);
            for (series, opts) in [("ACC-K40", gpu()), ("ACC-5110P", mic())] {
                cells.push(CheckCell::new(
                    "Hydro",
                    series,
                    variant,
                    CompilerId::Caps,
                    opts,
                    p.clone(),
                    cfg.clone(),
                ));
            }
        }
        let p = hydro::program(hydro::HydroVariant::OpenCl);
        for (series, opts) in &ocl_targets {
            cells.push(CheckCell::new(
                "Hydro",
                *series,
                "OCL",
                CompilerId::OpenClHand,
                opts.clone(),
                p.clone(),
                cfg.clone(),
            ));
        }
    }

    cells
}

/// Run the soundness check over the whole benchmark matrix.
///
/// Row order is the same for every worker count (the engine preserves
/// submission order).
pub fn check_soundness_on(eng: &Engine, scale: &Scale) -> SoundnessReport {
    let _g = paccport_trace::span("soundness.matrix");
    let cells = soundness_cells(scale);
    let mut report = SoundnessReport {
        cells: cells.len(),
        ..Default::default()
    };
    let cache = eng.cache();
    let checks = eng.run_matrix(cells, CheckCell::label, |cell, c| {
        check_compiled(cache, cell, c)
    });
    for res in checks {
        match res {
            Ok(cc) => {
                report.rows.extend(cc.rows);
                report.accesses += cc.accesses;
            }
            Err(f) => report.failures.push(format!(
                "{}: {} [{} attempts]",
                f.label, f.reason, f.attempts
            )),
        }
    }
    report
}

// ===================================================================
// Figure 1 & Table II demos
// ===================================================================

/// Figure 1: shared-memory tiling (CUDA/OpenCL style) vs OpenACC
/// tiling — returns `(shared_memory_ops_cuda_style, shared_memory_ops_openacc_tile)`.
/// The paper's point: the OpenACC pair is always 0.
///
/// Compiles through the engine's cache.
pub fn fig1_tiling_shared_ops_on(eng: &Engine) -> (u64, u64) {
    // CUDA-style: BP's hand-written OpenCL forward kernel stages
    // through __local memory.
    let ocl = backprop::opencl_program(128);
    let c_ocl = eng
        .compile_resilient(CompilerId::OpenClHand, &ocl, &gpu())
        .expect("ocl compile");
    let cuda_style = c_ocl
        .module
        .counts()
        .get(paccport_ptx::Category::SharedMemory);
    // OpenACC tile: GE's fan1 with tile(32) under CAPS.
    let mut vc = VariantCfg::independent();
    vc.tile = Some(32);
    let acc = gaussian::program(&vc);
    let c_acc = eng
        .compile_resilient(CompilerId::Caps, &acc, &gpu())
        .expect("acc compile");
    let acc_tile = c_acc
        .module
        .counts()
        .get(paccport_ptx::Category::SharedMemory);
    (cuda_style, acc_tile)
}

/// Table II: the dependent/independent loop pair, as judged by the
/// dependence analysis. Returns `(dependent_loop_refused,
/// independent_loop_accepted)`.
pub fn tab2_dependence_demo() -> (bool, bool) {
    use paccport_ir::{analyze_block, Block, Expr, Stmt};
    let a = paccport_ir::ArrayId(0);
    let i = paccport_ir::VarId(0);
    // A[i] = A[i-1] + 1
    let dependent = Block::new(vec![Stmt::Store {
        space: paccport_ir::MemSpace::Global,
        array: a,
        index: Expr::var(i),
        value: Expr::bin(
            paccport_ir::BinOp::Add,
            Expr::load(
                a,
                Expr::bin(paccport_ir::BinOp::Sub, Expr::var(i), Expr::iconst(1)),
            ),
            Expr::fconst(1.0),
        ),
    }]);
    // A[i] = A[i] + 1
    let independent = Block::new(vec![Stmt::Store {
        space: paccport_ir::MemSpace::Global,
        array: a,
        index: Expr::var(i),
        value: Expr::bin(
            paccport_ir::BinOp::Add,
            Expr::load(a, Expr::var(i)),
            Expr::fconst(1.0),
        ),
    }]);
    (
        !analyze_block(i, &dependent).is_independent(),
        analyze_block(i, &independent).is_independent(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s() -> Scale {
        Scale::quick()
    }

    #[test]
    fn fig3_shape() {
        let f = fig3_lud_on(&Engine::serial(), &s());
        // 4 variants × 3 series, all measured.
        assert_eq!(f.cells.len(), 12);
        assert!(f.cells.iter().all(|(_, r)| r.is_ok()));
        let base = f.get("CAPS-CUDA-K40", "Base").unwrap();
        let dist = f.get("CAPS-CUDA-K40", "ThreadDist").unwrap();
        let pgi = f.get("PGI-K40", "Base").unwrap();
        assert!(base.seconds / pgi.seconds > 50.0, "the ~1000x gap");
        assert!(dist.seconds < base.seconds / 50.0, "dist closes it");
        // Unroll and tile do not help further (Fig. 3).
        let unroll = f.get("CAPS-CUDA-K40", "Unroll").unwrap();
        assert!(unroll.seconds > dist.seconds * 0.7);
    }

    #[test]
    fn fig6_shape() {
        let f = fig6_lud_ptx_on(&Engine::serial(), &s());
        // PGI emits more PTX than CAPS for the same source (V-A3).
        let caps = f
            .bars
            .iter()
            .find(|b| b.label == "CAPS-CUDA-K40 / Base")
            .unwrap();
        let pgi = f.bars.iter().find(|b| b.label == "PGI-K40 / Base").unwrap();
        assert!(pgi.counts.total() > caps.counts.total());
        // ThreadDist does not change the PTX; Tile is silent (each
        // step is applied on top of ThreadDist, so Tile is compared
        // against ThreadDist, not against Unroll).
        let v = f.verdicts("CAPS-CUDA-K40");
        use crate::ptxcmp::{compare_steps, StepVerdict};
        assert_eq!(v[0].1, StepVerdict::Unchanged, "Base -> ThreadDist");
        assert!(matches!(v[1].1, StepVerdict::Changed(_)), "unroll grows");
        let dist = f
            .bars
            .iter()
            .find(|b| b.label == "CAPS-CUDA-K40 / ThreadDist")
            .unwrap();
        let tile = f
            .bars
            .iter()
            .find(|b| b.label == "CAPS-CUDA-K40 / Tile")
            .unwrap();
        assert_eq!(
            compare_steps(&dist.counts, &tile.counts),
            StepVerdict::Unchanged,
            "ThreadDist -> Tile silent"
        );
        assert!(!f.any_shared_memory("CAPS"), "no shared memory ever");
    }

    #[test]
    fn tab2_and_fig1() {
        assert_eq!(tab2_dependence_demo(), (true, true));
        let (cuda, acc) = fig1_tiling_shared_ops_on(&Engine::serial());
        assert!(cuda > 0);
        assert_eq!(acc, 0);
    }

    #[test]
    fn fig16_shape() {
        let ppr = fig16_ppr_on(&Engine::serial(), &s());
        assert_eq!(ppr.len(), 4);
        for c in &ppr {
            assert!(
                c.both_favor_gpu(),
                "{}: PPRs {} / {}",
                c.openacc.benchmark,
                c.openacc.ppr(),
                c.opencl.ppr()
            );
        }
        // At least one benchmark where OpenACC is more portable.
        assert!(
            ppr.iter().any(|c| c.openacc_is_more_portable()),
            "paper: better PPR 'in some cases'"
        );
    }
}
