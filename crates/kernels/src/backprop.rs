//! Back Propagation (Rodinia `backprop`) — Section V-D.
//!
//! One training step of a two-layer perceptron: `bpnn_layer_forward`
//! (input → hidden, a dot product per hidden unit squashed by a
//! sigmoid) and `bpnn_adjust_weights` (momentum update of the
//! input→hidden weights). The paper ported exactly these two
//! functions from the OpenMP version.
//!
//! Paper findings reproduced here:
//! * the CAPS baseline runs sequentially (gang(1) bug) and is faster
//!   on MIC than GPU; `independent` brings ~9× on GPU and ~2× on MIC
//!   (the forward kernel's outer loop has only `hidden` iterations, so
//!   gridify alone cannot fill the device — Fig. 12);
//! * the `reduction` directive makes both compilers emit
//!   `st.shared`/`ld.shared` (Fig. 13/14); PGI's version is much
//!   faster, CAPS's fails to speed up on the GPU and produces wrong
//!   results on MIC (Section V-D2);
//! * unrolling after the reduction changes nothing for either compiler
//!   (the accumulation loop is gone — Fig. 14);
//! * the hand-written OpenCL is faster than OpenACC because its
//!   forward kernel stages partial products in local memory.

use crate::common::VariantCfg;
use paccport_ir::{
    assign, for_, ld, let_, st, Block, Expr, HostStmt, Intent, Kernel, LaunchHint, ParallelLoop,
    ProgramBuilder, ReduceOp, Reduction, Scalar, E,
};

/// Sigmoid, as in Rodinia's `squash()`.
pub fn squash(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Reference forward pass: `hidden[j] = squash(Σ_k input[k]·w[k][j])`
/// for `j in 1..=hid`; index 0 is the bias unit (weights row 0).
pub fn reference_forward(input: &[f32], w: &[f32], n_in: usize, n_hid: usize) -> Vec<f32> {
    let stride = n_hid + 1;
    let mut hidden = vec![0.0f32; n_hid + 1];
    hidden[0] = 1.0;
    for j in 1..=n_hid {
        let mut sum = 0.0f32;
        for k in 0..=n_in {
            sum += w[k * stride + j] * input[k];
        }
        hidden[j] = squash(sum);
    }
    hidden
}

/// Reference weight adjustment (Rodinia's momentum update):
/// `dw = η·δ[j]·x[k] + α·oldw[k][j]; w += dw; oldw = dw`.
pub fn reference_adjust(
    w: &mut [f32],
    oldw: &mut [f32],
    delta: &[f32],
    input: &[f32],
    n_in: usize,
    n_hid: usize,
) {
    const ETA: f32 = 0.3;
    const MOMENTUM: f32 = 0.3;
    let stride = n_hid + 1;
    for j in 1..=n_hid {
        for k in 0..=n_in {
            let dw = ETA * delta[j] * input[k] + MOMENTUM * oldw[k * stride + j];
            w[k * stride + j] += dw;
            oldw[k * stride + j] = dw;
        }
    }
}

/// Build the OpenACC Back-Propagation program (one forward + one
/// adjust step, as timed in the paper).
pub fn program(cfg: &VariantCfg) -> paccport_ir::Program {
    let mut b = ProgramBuilder::new("backprop");
    let n_in = b.iparam("n_in"); // input units (excluding bias)
    let n_hid = b.iparam("n_hid"); // hidden units (excluding bias)
    let input = b.array("input", Scalar::F32, E::from(n_in) + 1i64, Intent::In);
    let w = b.array(
        "w",
        Scalar::F32,
        (E::from(n_in) + 1i64) * (E::from(n_hid) + 1i64),
        Intent::InOut,
    );
    let hidden = b.array("hidden", Scalar::F32, E::from(n_hid) + 1i64, Intent::Out);
    let delta = b.array("delta", Scalar::F32, E::from(n_hid) + 1i64, Intent::In);
    let oldw = b.array(
        "oldw",
        Scalar::F32,
        (E::from(n_in) + 1i64) * (E::from(n_hid) + 1i64),
        Intent::InOut,
    );

    let j = b.var("j");
    let kv = b.var("k");
    let sum = b.var("sum");
    let j2 = b.var("j2");
    let k2 = b.var("k2");
    let dw = b.var("dw");

    let clause = |lp: &mut ParallelLoop| {
        lp.clauses.independent = cfg.independent;
        if let Some((g, w)) = cfg.gang_worker {
            lp.clauses.gang = Some(g);
            lp.clauses.worker = Some(w);
        }
        lp.clauses.unroll_jam = cfg.unroll;
    };

    let stride = E::from(n_hid) + 1i64;

    // bpnn_layer_forward.
    let mut fwd_loop = ParallelLoop::new(j, Expr::iconst(1), (E::from(n_hid) + 1i64).expr());
    clause(&mut fwd_loop);
    let mut forward = Kernel::simple(
        "layer_forward",
        vec![fwd_loop],
        Block::new(vec![
            let_(sum, Scalar::F32, 0.0),
            for_(
                kv,
                0i64,
                E::from(n_in) + 1i64,
                vec![assign(
                    sum,
                    E::from(sum) + ld(w, E::from(kv) * stride.clone() + j) * ld(input, kv),
                )],
            ),
            st(
                hidden,
                E::from(j),
                E::from(1.0) / (E::from(1.0) + (-E::from(sum)).exp()),
            ),
        ]),
    );
    if cfg.reduction {
        forward.reduction = Some(Reduction {
            op: ReduceOp::Add,
            acc: sum,
        });
    }

    // bpnn_adjust_weights.
    let mut adj_outer = ParallelLoop::new(j2, Expr::iconst(1), (E::from(n_hid) + 1i64).expr());
    let mut adj_inner = ParallelLoop::new(k2, Expr::iconst(0), (E::from(n_in) + 1i64).expr());
    clause(&mut adj_outer);
    adj_inner.clauses.independent = cfg.independent;
    let widx = E::from(k2) * stride.clone() + j2;
    let adjust = Kernel::simple(
        "adjust_weights",
        vec![adj_outer, adj_inner],
        Block::new(vec![
            let_(
                dw,
                Scalar::F32,
                E::from(0.3) * ld(delta, j2) * ld(input, k2)
                    + E::from(0.3) * ld(oldw, widx.clone()),
            ),
            st(w, widx.clone(), ld(w, widx.clone()) + E::from(dw)),
            st(oldw, widx, E::from(dw)),
        ]),
    );

    b.finish(vec![HostStmt::DataRegion {
        arrays: vec![input, w, hidden, delta, oldw],
        body: vec![HostStmt::Launch(forward), HostStmt::Launch(adjust)],
    }])
}

/// Build the hand-written OpenCL version: the forward kernel stages
/// the reduction through `__local` memory (one work-group per hidden
/// unit, Fig. 13's tree), which is exactly why the paper found it
/// faster than the OpenACC version.
pub fn opencl_program(group_size: u32) -> paccport_ir::Program {
    assert!(group_size.is_power_of_two());
    // Build the plain program, then apply the same tree construction
    // the reduction directive would — this *is* the hand-written
    // kernel shape, so reusing the transform keeps one source of
    // truth for the Fig. 13 pattern.
    let mut p = program(&VariantCfg::independent());
    p.name = "backprop_ocl".into();
    let mut names = std::mem::take(&mut p.var_names);
    {
        let mut va = paccport_compilers::transforms::VarAlloc::new(&mut names);
        p.map_kernel("layer_forward", |k| {
            let ok = paccport_compilers::transforms::reduction_to_grouped(k, group_size, &mut va);
            assert!(ok, "forward kernel must match the reduction pattern");
            k.launch_hint = Some(LaunchHint {
                local: (group_size, 1),
                two_d: false,
                group_per_iter: true,
            });
        });
    }
    p.var_names = names;
    p.map_kernel("adjust_weights", |k| {
        k.launch_hint = Some(LaunchHint {
            local: (16, 16),
            two_d: true,
            group_per_iter: false,
        });
    });
    p
}

/// The paper's input scale (Table IV: "20M layers" — a 2²⁰-unit-class
/// input layer in our reconstruction; Rodinia's default hidden size).
pub const PAPER_N_IN: usize = 1 << 20;
pub const PAPER_N_HID: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{compare_f32, random_vec};
    use paccport_compilers::{compile, CompileOptions, CompilerId, Correctness};
    use paccport_devsim::{run, Buffer, RunConfig, RunResult};
    use paccport_ir::validate;
    use paccport_ptx::Category;

    #[test]
    fn opencl_forward_kernel_batches_every_phase() {
        use paccport_devsim::bytecode::{compile_kernel, BodyCode};
        for gsz in [8, 16, 128] {
            let p = opencl_program(gsz);
            let k = p.kernels().into_iter().find(|k| k.name == "layer_forward");
            let code = compile_kernel(&p, k.expect("layer_forward"));
            let BodyCode::Grouped { batch, .. } = &code.body else {
                panic!("layer_forward is a work-group kernel");
            };
            assert!(batch.iter().all(Option::is_some), "group size {gsz}");
        }
    }

    const N_IN: usize = 255;
    const N_HID: usize = 16;

    struct Setup {
        input: Vec<f32>,
        w: Vec<f32>,
        delta: Vec<f32>,
        oldw: Vec<f32>,
    }

    fn setup() -> Setup {
        Setup {
            input: random_vec(N_IN + 1, 31),
            w: random_vec((N_IN + 1) * (N_HID + 1), 32),
            delta: random_vec(N_HID + 1, 33),
            oldw: random_vec((N_IN + 1) * (N_HID + 1), 34),
        }
    }

    fn run_bp(
        compiler: CompilerId,
        options: &CompileOptions,
        p: &paccport_ir::Program,
        s: &Setup,
    ) -> (RunResult, paccport_compilers::CompiledProgram) {
        let c = compile(compiler, p, options).unwrap();
        let rc = RunConfig::functional(vec![
            ("n_in".into(), N_IN as f64),
            ("n_hid".into(), N_HID as f64),
        ])
        .with_input("input", Buffer::F32(s.input.clone()))
        .with_input("w", Buffer::F32(s.w.clone()))
        .with_input("delta", Buffer::F32(s.delta.clone()))
        .with_input("oldw", Buffer::F32(s.oldw.clone()));
        let r = run(&c, &rc).unwrap();
        (r, c)
    }

    fn check(r: &RunResult, c: &paccport_compilers::CompiledProgram, s: &Setup) {
        let want_h = reference_forward(&s.input, &s.w, N_IN, N_HID);
        let got_h = r.buffer(c, "hidden").unwrap().as_f32();
        // hidden[0] (bias) is not written by the kernels.
        let v = compare_f32(&got_h[1..], &want_h[1..], 1e-4);
        assert!(v.passed, "forward: {}", v.detail);

        let mut want_w = s.w.clone();
        let mut want_oldw = s.oldw.clone();
        reference_adjust(&mut want_w, &mut want_oldw, &s.delta, &s.input, N_IN, N_HID);
        // Compare only the updated region (j >= 1).
        let got_w = r.buffer(c, "w").unwrap().as_f32();
        let v = compare_f32(got_w, &want_w_masked(&want_w, &s.w), 1e-4);
        assert!(v.passed, "adjust: {}", v.detail);
    }

    /// Reference `w` with column 0 (bias unit 0) taken from the
    /// original — the kernels never touch `j == 0`.
    fn want_w_masked(want: &[f32], orig: &[f32]) -> Vec<f32> {
        let stride = N_HID + 1;
        let mut out = want.to_vec();
        for k in 0..=N_IN {
            out[k * stride] = orig[k * stride];
        }
        out
    }

    #[test]
    fn reference_sigmoid_bounds() {
        assert!(squash(0.0) == 0.5);
        assert!(squash(10.0) > 0.99);
        assert!(squash(-10.0) < 0.01);
    }

    #[test]
    fn variants_are_well_formed() {
        for cfg in [VariantCfg::baseline(), VariantCfg::independent(), {
            let mut c = VariantCfg::independent();
            c.reduction = true;
            c
        }] {
            validate(&program(&cfg)).expect("valid IR");
        }
        validate(&opencl_program(128)).expect("valid OCL IR");
    }

    #[test]
    fn caps_baseline_and_independent_compute_correctly() {
        let s = setup();
        for cfg in [VariantCfg::baseline(), VariantCfg::independent()] {
            let (r, c) = run_bp(CompilerId::Caps, &CompileOptions::gpu(), &program(&cfg), &s);
            check(&r, &c, &s);
        }
    }

    #[test]
    fn pgi_reduction_is_correct_and_emits_shared_memory() {
        let s = setup();
        let mut cfg = VariantCfg::independent();
        cfg.reduction = true;
        let (r, c) = run_bp(CompilerId::Pgi, &CompileOptions::gpu(), &program(&cfg), &s);
        check(&r, &c, &s);
        let counts = c.module.kernel("layer_forward_kernel").unwrap().counts();
        assert!(counts.get(Category::SharedMemory) > 0, "Fig. 14 shared ops");
    }

    #[test]
    fn caps_reduction_is_wrong_on_mic() {
        // Section V-D2: "cannot get the correct results on MIC".
        let s = setup();
        let mut cfg = VariantCfg::independent();
        cfg.reduction = true;
        let (r, c) = run_bp(CompilerId::Caps, &CompileOptions::mic(), &program(&cfg), &s);
        assert!(r.any_known_wrong);
        let want_h = reference_forward(&s.input, &s.w, N_IN, N_HID);
        let got_h = r.buffer(&c, "hidden").unwrap().as_f32();
        let v = compare_f32(&got_h[1..], &want_h[1..], 1e-4);
        assert!(!v.passed, "MIC reduction must produce wrong results");
        // The known-wrong plan is reported by the compiler too.
        assert!(matches!(
            c.plan("layer_forward").unwrap().correctness,
            Correctness::Wrong { .. }
        ));
    }

    #[test]
    fn caps_reduction_on_gpu_is_correct_but_not_faster() {
        let s = setup();
        let indep = program(&VariantCfg::independent());
        let mut cfg = VariantCfg::independent();
        cfg.reduction = true;
        let red = program(&cfg);
        let o = CompileOptions::gpu();

        let (r, c) = run_bp(CompilerId::Caps, &o, &red, &s);
        check(&r, &c, &s); // correct on GPU…

        // …but no speedup (perf bug), while PGI gains a lot.
        let rc = RunConfig::timing(
            vec![
                ("n_in".into(), PAPER_N_IN as f64),
                ("n_hid".into(), PAPER_N_HID as f64),
            ],
            1,
        );
        let t = |id, p: &paccport_ir::Program| {
            run(&compile(id, p, &o).unwrap(), &rc).unwrap().kernel_time
        };
        let forward_t = |id, p: &paccport_ir::Program| {
            run(&compile(id, p, &o).unwrap(), &rc)
                .unwrap()
                .kernel_stats
                .iter()
                .find(|s| s.name == "layer_forward")
                .unwrap()
                .device_time
        };
        let caps_i = t(CompilerId::Caps, &indep);
        let caps_r = t(CompilerId::Caps, &red);
        assert!(
            caps_r > caps_i * 0.8,
            "CAPS reduction must not help: {caps_r} vs {caps_i}"
        );
        // PGI's reduction helps it…
        let pgi_i = t(CompilerId::Pgi, &indep);
        let pgi_r = t(CompilerId::Pgi, &red);
        assert!(
            pgi_r < pgi_i,
            "PGI reduction should improve PGI: {pgi_r} vs {pgi_i}"
        );
        // …and Section V-D2's headline: "The PGI version runs much
        // faster than the CAPS version" (forward kernel, where the
        // reduction lives).
        let caps_fwd = forward_t(CompilerId::Caps, &red);
        let pgi_fwd = forward_t(CompilerId::Pgi, &red);
        assert!(
            pgi_fwd < caps_fwd / 5.0,
            "PGI reduction forward {pgi_fwd} must be much faster than CAPS {caps_fwd}"
        );
    }

    #[test]
    fn opencl_forward_with_local_memory_is_correct_and_fast() {
        let s = setup();
        let (r, c) = run_bp(
            CompilerId::OpenClHand,
            &CompileOptions::gpu(),
            &opencl_program(128),
            &s,
        );
        check(&r, &c, &s);
        // Fig. 12/14: the OpenCL version beats the plain OpenACC one.
        let o = CompileOptions::gpu();
        let rc = RunConfig::timing(
            vec![
                ("n_in".into(), PAPER_N_IN as f64),
                ("n_hid".into(), PAPER_N_HID as f64),
            ],
            1,
        );
        let t_acc = run(
            &compile(CompilerId::Caps, &program(&VariantCfg::independent()), &o).unwrap(),
            &rc,
        )
        .unwrap()
        .kernel_time;
        let t_ocl = run(
            &compile(CompilerId::OpenClHand, &opencl_program(128), &o).unwrap(),
            &rc,
        )
        .unwrap()
        .kernel_time;
        assert!(t_ocl < t_acc, "OpenCL {t_ocl} must beat OpenACC {t_acc}");
    }

    #[test]
    fn unroll_after_reduction_changes_nothing() {
        // Fig. 14: "the generated PTX instructions remain the same".
        let o = CompileOptions::gpu();
        let mut red = VariantCfg::independent();
        red.reduction = true;
        let mut red_unroll = red;
        red_unroll.unroll = Some(8);
        let a = compile(CompilerId::Caps, &program(&red), &o).unwrap();
        let b = compile(CompilerId::Caps, &program(&red_unroll), &o).unwrap();
        assert!(a.module.counts().unchanged_from(&b.module.counts()));
    }

    #[test]
    fn baseline_faster_on_mic_and_independent_helps_more_on_gpu() {
        // Fig. 12 shape at paper scale.
        let base = program(&VariantCfg::baseline());
        let indep = program(&VariantCfg::independent());
        let rc = RunConfig::timing(
            vec![
                ("n_in".into(), PAPER_N_IN as f64),
                ("n_hid".into(), PAPER_N_HID as f64),
            ],
            1,
        );
        let t = |p: &paccport_ir::Program, o: &CompileOptions| {
            run(&compile(CompilerId::Caps, p, o).unwrap(), &rc)
                .unwrap()
                .kernel_time
        };
        let g = CompileOptions::gpu();
        let m = CompileOptions::mic();
        let (bg, bm) = (t(&base, &g), t(&base, &m));
        assert!(
            bm < bg,
            "sequential BP must be faster on MIC ({bm} vs {bg})"
        );
        let (ig, im) = (t(&indep, &g), t(&indep, &m));
        let (sp_g, sp_m) = (bg / ig, bm / im);
        assert!(sp_g > 2.0, "GPU speedup {sp_g}");
        assert!(sp_m > 1.2, "MIC speedup {sp_m}");
        assert!(
            sp_g > sp_m,
            "GPU gains more from parallelism ({sp_g} vs {sp_m})"
        );
    }
}
