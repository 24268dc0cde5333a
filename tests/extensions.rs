//! Tests for the paper's future-work directions, implemented as
//! extensions: OpenARC-style auto-tuning (Section VII) and Step 5's
//! automatic data-region insertion.

use paccport::compilers::{compile, CompileOptions, CompilerId};
use paccport::core::engine::Engine;
use paccport::core::experiments::{ext1_autotune_vs_hand_on, ext2_data_regions_on};
use paccport::core::study::Scale;
use paccport::core::{insert_data_regions, strip_data_regions};
use paccport::devsim::{run, Buffer, RunConfig};
use paccport::kernels::{compare_f32, lud, VariantCfg};

/// The auto-tuner must independently rediscover the paper's manual
/// conclusions: worker 16 on the GPU, (240, 1) on the MIC.
#[test]
fn autotune_rediscovers_the_papers_configurations() {
    let mut s = Scale::quick();
    s.lud_n = 1024;
    let rows = ext1_autotune_vs_hand_on(&Engine::serial(), &s);
    assert_eq!(rows.len(), 2);
    let gpu = &rows[0];
    assert_eq!(gpu.device, "K40");
    assert!(
        gpu.tuned_seconds <= gpu.hand_seconds * 1.05,
        "tuning must match or beat the hand pick"
    );
    for (_, gang, worker) in &gpu.tuned_configs {
        assert!(
            *gang >= 128 && *worker >= 8 && *worker <= 64,
            "({gang},{worker})"
        );
    }
    let mic = &rows[1];
    assert_eq!(mic.device, "5110P");
    for (_, gang, worker) in &mic.tuned_configs {
        assert_eq!((*gang, *worker), (240, 1), "the MIC optimum");
    }
}

/// Step 5 collapses per-launch synchronization to two transfers and
/// preserves results.
#[test]
fn step5_data_region_insertion() {
    let rows = ext2_data_regions_on(&Engine::serial(), &Scale::quick());
    assert_eq!(rows.len(), 2);
    assert!(
        rows[0].transfers > 100,
        "naive port re-transfers per launch"
    );
    assert_eq!(rows[1].transfers, 2, "one copy-in + one copy-out");
    assert!(rows[1].seconds < rows[0].seconds / 5.0);
}

/// The OpenARC personality compiles every benchmark for both devices
/// and computes correct results (it is the quirk-free baseline the
/// ablations compare against).
#[test]
fn openarc_runs_lud_correctly_everywhere() {
    let n = 32usize;
    let a0 = paccport::kernels::diag_dominant_matrix(n, 77);
    let mut want = a0.clone();
    lud::reference(&mut want, n);
    let p = lud::program(&VariantCfg::baseline());
    for opts in [CompileOptions::gpu(), CompileOptions::mic()] {
        let c = compile(CompilerId::OpenArc, &p, &opts).unwrap();
        // No gang(1) bug: the baseline is parallel.
        assert!(c
            .plans
            .iter()
            .all(|pl| pl.exec == paccport::compilers::ExecStrategy::DeviceParallel));
        let rc = RunConfig::functional(vec![("n".into(), n as f64)])
            .with_input("a", Buffer::F32(a0.clone()));
        let r = run(&c, &rc).unwrap();
        let v = compare_f32(r.buffer(&c, "a").unwrap().as_f32(), &want, 1e-3);
        assert!(v.passed, "{:?}: {}", opts.target, v.detail);
    }
}

/// Round-trip property of strip/insert at the program level, on a
/// second benchmark (GE) for coverage.
#[test]
fn strip_insert_round_trip_on_ge() {
    use paccport::kernels::gaussian;
    let p = gaussian::program(&VariantCfg::independent());
    let stripped = strip_data_regions(&p);
    assert!(!stripped.has_data_region());
    let mut restored = stripped.clone();
    let covered = insert_data_regions(&mut restored);
    // a, b, m all covered.
    assert_eq!(covered.len(), 3);
    paccport::ir::validate(&restored).expect("restored program is well-formed");
}
