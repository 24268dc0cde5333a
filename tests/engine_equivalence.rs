//! Serial-vs-parallel equivalence: every figure generated through a
//! multi-worker [`Engine`] must render byte-identically to the serial
//! reference path. The engine only reorders *execution*; results come
//! back in submission order, and the timing model is analytic, so any
//! divergence here is a scheduling bug leaking into results.

use paccport::core::engine::Engine;
use paccport::core::{experiments as exp, report, Scale};

fn scale() -> Scale {
    Scale::quick()
}

const JOBS: usize = 8;

#[test]
fn elapsed_figures_render_identically() {
    let s = scale();
    let serial = Engine::serial();
    let parallel = Engine::new(JOBS);
    for (name, f) in [
        ("fig3", exp::fig3_lud_on as fn(&Engine, &Scale) -> _),
        ("fig7", exp::fig7_ge_on),
        ("fig10", exp::fig10_bfs_on),
        ("fig12", exp::fig12_bp_on),
        ("fig15", exp::fig15_hydro_on),
    ] {
        let a = report::render_elapsed(&f(&serial, &s));
        let b = report::render_elapsed(&f(&parallel, &s));
        assert_eq!(a, b, "{name}: parallel output diverged from serial");
    }
}

#[test]
fn ptx_figures_render_identically() {
    let s = scale();
    let serial = Engine::serial();
    let parallel = Engine::new(JOBS);
    for (name, f) in [
        ("fig6", exp::fig6_lud_ptx_on as fn(&Engine, &Scale) -> _),
        ("fig9", exp::fig9_ge_ptx_on),
        ("fig11", exp::fig11_bfs_ptx_on),
        ("fig14", exp::fig14_bp_ptx_on),
    ] {
        let a = report::render_ptx(&f(&serial, &s));
        let b = report::render_ptx(&f(&parallel, &s));
        assert_eq!(a, b, "{name}: parallel output diverged from serial");
    }
}

#[test]
fn tables_pprs_and_extensions_agree() {
    let s = scale();
    let serial = Engine::serial();
    let parallel = Engine::new(JOBS);

    assert_eq!(
        report::render_tab7(&exp::tab7_bfs_on(&serial, &s)),
        report::render_tab7(&exp::tab7_bfs_on(&parallel, &s)),
        "tab7"
    );
    assert_eq!(
        report::render_ppr(&exp::fig16_ppr_on(&serial, &s)),
        report::render_ppr(&exp::fig16_ppr_on(&parallel, &s)),
        "fig16"
    );
    assert_eq!(
        exp::ext1_autotune_vs_hand_on(&serial, &s),
        exp::ext1_autotune_vs_hand_on(&parallel, &s),
        "ext1"
    );
    assert_eq!(
        exp::ext2_data_regions_on(&serial, &s),
        exp::ext2_data_regions_on(&parallel, &s),
        "ext2"
    );
}

#[test]
fn heatmap_sweeps_agree() {
    let s = scale();
    let a = exp::fig4_heatmaps_on(&Engine::serial(), &s);
    let b = exp::fig4_heatmaps_on(&Engine::new(JOBS), &s);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.render(), y.render());
    }
}

#[test]
fn cached_listing_matches_direct_compile() {
    assert_eq!(
        exp::fig13_reduction_listing_on(&Engine::new(JOBS)),
        exp::fig13_reduction_listing_on(&Engine::serial()),
    );
    assert_eq!(
        exp::fig1_tiling_shared_ops_on(&Engine::new(JOBS)),
        exp::fig1_tiling_shared_ops_on(&Engine::serial()),
    );
}
