//! End-to-end assertions of the paper's headline claims, regenerated
//! through the full pipeline (IR → compile → simulate) at quick scale.
//!
//! Each test names the claim and the section/figure it comes from, so
//! a failure pinpoints which part of the reproduction drifted.

use paccport::core::engine::Engine;
use paccport::core::experiments as exp;
use paccport::core::study::Scale;

fn scale() -> Scale {
    Scale::quick()
}

/// Section V-A1 / Fig. 3: "the baseline version compiled by CAPS …
/// is about 1000 times slower than the same version compiled by PGI
/// on GPU", and thread distribution bridges the gap.
#[test]
fn claim_lud_baseline_gap_and_fix() {
    let f = exp::fig3_lud_on(&Engine::serial(), &scale());
    let caps_base = f.get("CAPS-CUDA-K40", "Base").unwrap().seconds;
    let pgi_base = f.get("PGI-K40", "Base").unwrap().seconds;
    let ratio = caps_base / pgi_base;
    assert!(
        (50.0..50000.0).contains(&ratio),
        "orders-of-magnitude gap expected, got {ratio:.0}x"
    );
    let caps_dist = f.get("CAPS-CUDA-K40", "ThreadDist").unwrap().seconds;
    assert!(
        caps_dist < pgi_base * 3.0,
        "gang mode must bridge the gap ({caps_dist} vs {pgi_base})"
    );
}

/// Fig. 3: "Neither the unrolling loops for both CAPS and PGI nor the
/// tiling for CAPS improves the performance."
#[test]
fn claim_lud_unroll_and_tile_do_not_help() {
    let f = exp::fig3_lud_on(&Engine::serial(), &scale());
    let dist = f.get("CAPS-CUDA-K40", "ThreadDist").unwrap().seconds;
    for v in ["Unroll", "Tile"] {
        let t = f.get("CAPS-CUDA-K40", v).unwrap().seconds;
        assert!(
            t > dist * 0.7,
            "{v} must not improve on ThreadDist ({t} vs {dist})"
        );
    }
}

/// Section V-A2 / Fig. 4: the best GPU distribution has worker 16 and
/// gang ≥ 128; the best MIC distribution is (240, 1); the portable
/// pick is worker 16 with a large gang.
#[test]
fn claim_fig4_optima() {
    // A paper-sized matrix is needed for the memory-bound valley.
    let mut s = scale();
    s.lud_n = 2048;
    let maps = exp::fig4_heatmaps_on(&Engine::serial(), &s);
    assert_eq!(maps.len(), 3);
    let (gg, gw, _) = maps[0].best(); // CAPS-K40
    assert!(gw <= 32, "GPU worker optimum small, got {gw}");
    assert!(gg >= 64, "GPU gang optimum large, got {gg}");
    let (mg, mw, _) = maps[2].best(); // CAPS-MIC
    assert_eq!((mg, mw), (240, 1), "MIC optimum is (240, 1)");
    let (pg, pw) = paccport::core::select_portable_distribution(&maps[0], &maps[2]);
    assert!(
        pg >= 128 && (8..=32).contains(&pw),
        "portable pick ({pg},{pw})"
    );
}

/// Section V-A3 / Fig. 6: PGI generates more PTX than CAPS; thread
/// distribution changes no PTX.
#[test]
fn claim_fig6_ptx_composition() {
    let f = exp::fig6_lud_ptx_on(&Engine::serial(), &scale());
    let caps = |v: &str| {
        f.bars
            .iter()
            .find(|b| b.label == format!("CAPS-CUDA-K40 / {v}"))
            .unwrap()
    };
    let pgi = |v: &str| {
        f.bars
            .iter()
            .find(|b| b.label == format!("PGI-K40 / {v}"))
            .unwrap()
    };
    assert!(pgi("Base").counts.total() > caps("Base").counts.total());
    assert_eq!(caps("Base").counts, caps("ThreadDist").counts);
    assert_eq!(pgi("Base").counts, pgi("ThreadDist").counts);
    // CAPS unroll really grows the PTX; CAPS tile silently does not.
    assert!(caps("Unroll").counts.total() > caps("ThreadDist").counts.total());
    assert_eq!(caps("Tile").counts, caps("ThreadDist").counts);
    // PGI -Munroll leaves LUD unchanged (accumulation loop).
    assert_eq!(pgi("Unroll").counts, pgi("Base").counts);
}

/// Section V-B / Fig. 7: independent transforms GE on both devices;
/// the CAPS OpenACC version with exact ranges beats the constant-range
/// OpenCL baseline; the Fig.-8 advanced NDRange is the fastest.
#[test]
fn claim_ge_fig7() {
    let f = exp::fig7_ge_on(&Engine::serial(), &scale());
    let caps_base = f.get("CAPS-CUDA-K40", "Base").unwrap().seconds;
    let caps_indep = f.get("CAPS-CUDA-K40", "Indep").unwrap().seconds;
    assert!(caps_indep < caps_base / 20.0);
    let ocl_base = f.get("OCL-K40", "OCL-Base").unwrap().seconds;
    let ocl_adv = f.get("OCL-K40", "OCL-Advanced").unwrap().seconds;
    assert!(
        caps_indep < ocl_base,
        "optimized OpenACC ({caps_indep}) must beat constant-range OpenCL ({ocl_base})"
    );
    assert!(ocl_adv < ocl_base, "Fig. 8 advanced config wins");
    // Baseline "has the similar performance on GPU and MIC".
    let mic_base = f.get("CAPS-OCL-5110P", "Base").unwrap().seconds;
    let r = caps_base / mic_base;
    assert!((0.2..20.0).contains(&r), "similar order, got {r}");
}

/// Fig. 9: baseline launches 3 kernels per outer iteration (3N), the
/// reorganized/OpenCL structure launches 2 (2N); PGI's baseline
/// thread row is 1x1, becoming 128x1 with independent.
#[test]
fn claim_ge_fig9_launches_and_threads() {
    let f = exp::fig9_ge_ptx_on(&Engine::serial(), &scale());
    let bar = |label: &str| f.bars.iter().find(|b| b.label == label).unwrap();
    let n = scale().ge_n as u64 - 1;
    assert_eq!(bar("CAPS-CUDA-K40 / Base").launches, 3 * n);
    assert_eq!(bar("CAPS-CUDA-K40 / Reorg").launches, 2 * n);
    assert_eq!(bar("OCL-K40 / Base").launches, 2 * n);
    assert_eq!(bar("PGI-K40 / Base").config, "1x1");
    assert_eq!(bar("PGI-K40 / Indep").config, "128x1");
    assert_eq!(bar("CAPS-CUDA-K40 / Indep").config, "32x4");
    // PGI -Munroll nearly doubles arithmetic (Section V-B3).
    let a_base = bar("PGI-K40 / Reorg")
        .counts
        .get(paccport::ptx::Category::Arithmetic);
    let a_unroll = bar("PGI-K40 / Unroll")
        .counts
        .get(paccport::ptx::Category::Arithmetic);
    assert!(a_unroll as f64 / a_base as f64 > 1.5);
    // CAPS unroll is a fake success.
    assert_eq!(
        bar("CAPS-CUDA-K40 / Reorg").counts,
        bar("CAPS-CUDA-K40 / Unroll").counts
    );
}

/// Section V-C / Fig. 10: the CAPS baseline runs faster on MIC than
/// GPU; independent gives large speedups on both.
#[test]
fn claim_bfs_fig10() {
    let f = exp::fig10_bfs_on(&Engine::serial(), &scale());
    let caps_gpu_base = f.get("CAPS-CUDA-K40", "Base").unwrap();
    let caps_mic_base = f.get("CAPS-OCL-5110P", "Base").unwrap();
    assert!(
        caps_mic_base.seconds < caps_gpu_base.seconds,
        "sequential BFS faster on MIC"
    );
    let caps_gpu_indep = f.get("CAPS-CUDA-K40", "Indep").unwrap();
    let caps_mic_indep = f.get("CAPS-OCL-5110P", "Indep").unwrap();
    let sp_gpu = caps_gpu_base.kernel_seconds / caps_gpu_indep.kernel_seconds;
    let sp_mic = caps_mic_base.kernel_seconds / caps_mic_indep.kernel_seconds;
    assert!(sp_gpu > 50.0, "GPU speedup {sp_gpu}");
    assert!(sp_mic > 5.0, "MIC speedup {sp_mic}");
    assert!(
        sp_gpu > sp_mic,
        "GPU gains more ({sp_gpu:.0}x vs {sp_mic:.0}x), as in the paper's 400x vs 30x"
    );
}

/// Section V-C1 / Fig. 11 / Table VII: PGI never offloads BFS (tiny
/// PTX stubs, host execution) and transfers 4 times in total; CAPS
/// transfers 3 times per frontier iteration.
#[test]
fn claim_bfs_pgi_discovery_and_tab7() {
    let f = exp::fig11_bfs_ptx_on(&Engine::serial(), &scale());
    let pgi = f
        .bars
        .iter()
        .find(|b| b.label == "PGI-K40 / Indep")
        .unwrap();
    let caps = f
        .bars
        .iter()
        .find(|b| b.label == "CAPS-CUDA-K40 / Indep")
        .unwrap();
    assert!(
        pgi.counts.total() < caps.counts.total() / 4,
        "PGI's stub PTX is tiny ({} vs {})",
        pgi.counts.total(),
        caps.counts.total()
    );
    // CAPS generates fewer global-memory instructions than OpenCL.
    let ocl = f.bars.iter().find(|b| b.label == "OCL-K40 / OCL").unwrap();
    assert!(
        caps.counts.get(paccport::ptx::Category::GlobalMemory)
            < ocl.counts.get(paccport::ptx::Category::GlobalMemory),
        "CAPS CSE reduces global instructions"
    );

    let rows = exp::tab7_bfs_on(&Engine::serial(), &scale());
    assert_eq!(rows[0].compiler, "CAPS");
    assert!(rows[0].data_transfers.contains("3 times in each iteration"));
    assert_eq!(rows[0].with_independent_mode, "Parallel mode");
    assert_eq!(rows[1].compiler, "PGI");
    assert!(rows[1].data_transfers.contains("4 times in total"));
    assert_eq!(rows[1].with_independent_mode, "Host (sequential)");
}

/// Section V-D / Figs. 12-14: BP's reduction emits shared memory for
/// both compilers; CAPS gains nothing; unroll after reduction changes
/// no PTX; the OpenCL version is fastest on the GPU.
#[test]
fn claim_bp_reduction_story() {
    let f = exp::fig14_bp_ptx_on(&Engine::serial(), &scale());
    let bar = |label: &str| f.bars.iter().find(|b| b.label == label).unwrap();
    use paccport::ptx::Category;
    for series in ["CAPS-CUDA-K40", "PGI-K40"] {
        assert_eq!(
            bar(&format!("{series} / Indep"))
                .counts
                .get(Category::SharedMemory),
            0
        );
        assert!(
            bar(&format!("{series} / Reduction"))
                .counts
                .get(Category::SharedMemory)
                > 0,
            "{series} reduction must emit st.shared/ld.shared"
        );
        assert_eq!(
            bar(&format!("{series} / Reduction")).counts,
            bar(&format!("{series} / Unroll")).counts,
            "{series}: unroll after reduction changes nothing"
        );
    }
    // PGI ignores independent (Base and Indep bars identical).
    assert_eq!(bar("PGI-K40 / Base").counts, bar("PGI-K40 / Indep").counts);

    let e = exp::fig12_bp_on(&Engine::serial(), &scale());
    let ocl = e.get("OCL-K40", "OCL").unwrap().seconds;
    let acc = e.get("CAPS-CUDA-K40", "Indep").unwrap().seconds;
    assert!(
        ocl < acc,
        "OpenCL (shared memory) beats OpenACC: {ocl} vs {acc}"
    );
    let caps_red = e.get("CAPS-CUDA-K40", "Reduction").unwrap().kernel_seconds;
    let caps_ind = e.get("CAPS-CUDA-K40", "Indep").unwrap().kernel_seconds;
    assert!(caps_red > caps_ind * 0.8, "CAPS reduction gives no speedup");
}

/// Section V-E / Fig. 15: optimization transforms Hydro on both
/// devices; ICC beats GCC; optimized GPU beats optimized MIC.
#[test]
fn claim_hydro_fig15() {
    let f = exp::fig15_hydro_on(&Engine::serial(), &scale());
    let bg = f.get("ACC-K40 (GCC)", "Base").unwrap().seconds;
    let og = f.get("ACC-K40 (GCC)", "Indep+Dist").unwrap().seconds;
    let om = f.get("ACC-5110P (GCC)", "Indep+Dist").unwrap().seconds;
    assert!(og < bg / 10.0);
    assert!(og < om, "optimized GPU beats optimized MIC");
    let og_icc = f.get("ACC-K40 (ICC)", "Indep+Dist").unwrap().seconds;
    assert!(og_icc < og, "Intel host compiler helps");
    let ocl = f.get("OCL-K40", "OCL").unwrap().seconds;
    assert!(ocl < bg, "OpenCL beats the unoptimized OpenACC");
}

/// Section V-F / Fig. 16: every PPR is > 1 (the K40 always wins), and
/// the optimized OpenACC versions achieve a better PPR than OpenCL in
/// some cases.
#[test]
fn claim_fig16_ppr() {
    let rows = exp::fig16_ppr_on(&Engine::serial(), &scale());
    assert_eq!(rows.len(), 4);
    for c in &rows {
        assert!(
            c.both_favor_gpu(),
            "{}: OpenACC {:.2}, OpenCL {:.2}",
            c.openacc.benchmark,
            c.openacc.ppr(),
            c.opencl.ppr()
        );
    }
    let better = rows.iter().filter(|c| c.openacc_is_more_portable()).count();
    assert!(
        better >= 2,
        "OpenACC more portable in some cases ({better}/4)"
    );
}

/// Table II and Fig. 1, as data.
#[test]
fn claim_tab2_fig1() {
    assert_eq!(exp::tab2_dependence_demo(), (true, true));
    let (cuda_shared, acc_shared) = exp::fig1_tiling_shared_ops_on(&Engine::serial());
    assert!(cuda_shared > 0);
    assert_eq!(acc_shared, 0, "OpenACC tiling never touches shared memory");
}
