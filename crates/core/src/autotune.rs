//! Compiler-driven auto-tuning of thread distributions — the
//! alternative the paper positions its hand-written method *against*
//! (Dolbeau et al.'s "One OpenCL to Rule Them All?" and the
//! CAPS/OpenARC auto-tuning technology of Section I, "not ready for
//! production codes yet").
//!
//! The tuner searches per-kernel launch configurations by compiling
//! and timing candidate clause assignments through the device model,
//! then emits a program with the winning clauses baked in — what an
//! auto-tuning compiler would persist in its codelet cache. Every
//! candidate is compiled; the candidates of one kernel whose artifacts
//! differ only in their distributions are timed by one walk of the host
//! program ([`compile_and_run_each`]), each with the result its own run
//! would give.

use paccport_compilers::{CompileOptions, CompilerId};
use paccport_devsim::{compile_and_run_each, RunConfig};
use paccport_ir::Program;

/// One candidate distribution for the search space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    pub gang: u32,
    pub worker: u32,
}

/// The default search space: the cross of gang counts and worker
/// widths a 2014 auto-tuner would scan (Sabne et al. sweep comparable
/// grids).
pub fn default_candidates() -> Vec<Candidate> {
    let mut out = Vec::new();
    for gang in [64u32, 128, 240, 256, 512, 1024] {
        for worker in [1u32, 8, 16, 32, 64, 128] {
            out.push(Candidate { gang, worker });
        }
    }
    out
}

/// Result of tuning one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedKernel {
    pub kernel: String,
    pub chosen: Candidate,
    pub seconds: f64,
    pub candidates_tried: usize,
}

/// Outcome of an auto-tuning pass.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    pub program: Program,
    pub per_kernel: Vec<TunedKernel>,
    pub total_runs: usize,
}

/// Auto-tune the thread distribution of every kernel, greedily and
/// per-kernel: each kernel's candidates are evaluated with all other
/// kernels held at their current best (one pass, as production
/// auto-tuners do to bound the search).
pub fn autotune_distribution(
    program: &Program,
    compiler: CompilerId,
    options: &CompileOptions,
    cfg: &RunConfig,
    candidates: &[Candidate],
) -> Result<TuneOutcome, String> {
    let kernel_names: Vec<String> = program.kernels().iter().map(|k| k.name.clone()).collect();
    let mut best = program.clone();
    let mut per_kernel = Vec::new();
    let mut total_runs = 0usize;

    for name in &kernel_names {
        let trials = candidates.iter().map(|cand| {
            let mut trial = best.clone();
            trial.map_kernel(name, |k| {
                for lp in &mut k.loops {
                    lp.clauses.gang = Some(cand.gang);
                    lp.clauses.worker = Some(cand.worker);
                }
            });
            trial
        });
        let runs = compile_and_run_each(trials, compiler, options, cfg);
        let mut chosen: Option<(Candidate, f64)> = None;
        for (cand, r) in candidates.iter().zip(runs) {
            let Ok(r) = r else {
                continue;
            };
            total_runs += 1;
            if chosen.is_none_or(|(_, t)| r.elapsed < t) {
                chosen = Some((*cand, r.elapsed));
            }
        }
        let (cand, seconds) =
            chosen.ok_or_else(|| format!("no candidate compiled for kernel `{name}`"))?;
        best.map_kernel(name, |k| {
            for lp in &mut k.loops {
                lp.clauses.gang = Some(cand.gang);
                lp.clauses.worker = Some(cand.worker);
            }
        });
        per_kernel.push(TunedKernel {
            kernel: name.clone(),
            chosen: cand,
            seconds,
            candidates_tried: candidates.len(),
        });
    }
    Ok(TuneOutcome {
        program: best,
        per_kernel,
        total_runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::compile;
    use paccport_devsim::run;
    use paccport_kernels::{lud, VariantCfg};

    #[test]
    fn autotune_finds_a_fast_lud_distribution() {
        let p = lud::program(&VariantCfg::baseline());
        let cfg = RunConfig::timing(vec![("n".into(), 1024.0)], 1);
        let o = CompileOptions::gpu();
        let out = autotune_distribution(&p, CompilerId::OpenArc, &o, &cfg, &default_candidates())
            .unwrap();
        assert_eq!(out.per_kernel.len(), 2);
        assert!(out.total_runs >= 2 * default_candidates().len());

        // The tuned program must be at least as fast as the hand
        // method's (256,16) pick under the same compiler…
        let hand = lud::program(&VariantCfg::thread_dist(256, 16));
        let t_hand = run(&compile(CompilerId::OpenArc, &hand, &o).unwrap(), &cfg)
            .unwrap()
            .elapsed;
        let t_tuned = run(
            &compile(CompilerId::OpenArc, &out.program, &o).unwrap(),
            &cfg,
        )
        .unwrap()
        .elapsed;
        assert!(
            t_tuned <= t_hand * 1.05,
            "auto-tuned {t_tuned} vs hand {t_hand}"
        );
        // …and the chosen workers are sane (the paper's valley).
        for tk in &out.per_kernel {
            assert!(tk.chosen.gang >= 64, "{tk:?}");
        }
    }

    #[test]
    fn search_space_shape() {
        let c = default_candidates();
        assert_eq!(c.len(), 36);
        assert!(c.contains(&Candidate {
            gang: 256,
            worker: 16
        }));
    }
}
