//! The paper's primary contribution: the four-step systematic
//! hand-written optimization method (Section III).
//!
//! 1. **Add `independent` directives** — only where a conservative
//!    dependence analysis agrees (exactly why LUD never receives them
//!    in the paper, Section V-A1);
//! 2. **Thread distribution** — explicit gang/worker clauses (CAPS
//!    gang mode / PGI without `independent`), or the gridify defaults
//!    once `independent` is present; [`select_portable_distribution`]
//!    searches the Fig.-4 heat maps for the best cross-device config;
//! 3. **Unrolling loops** — the HMPP `unroll(n), jam` directive
//!    (CAPS) / `-Munroll` (PGI, applied at compile time);
//! 4. **Tiling** — the OpenACC 2.0 `tile(n)` clause (CAPS only).
//!
//! Every step records what it did *and why*, because half the paper's
//! insight is in the refusals.

use paccport_ir::{analyze_loop, DepKind, Program};

/// What one step did to one loop/kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum StepAction {
    AddedIndependent {
        kernel: String,
        level: usize,
    },
    RefusedIndependent {
        kernel: String,
        level: usize,
        reason: String,
    },
    SetDistribution {
        kernel: String,
        gang: u32,
        worker: u32,
    },
    RequestedUnroll {
        kernel: String,
        factor: u32,
    },
    RequestedTile {
        kernel: String,
        size: u32,
    },
}

/// Requested manual knobs for steps 2–4 (step 1 is automatic, plus
/// the programmer's overriding judgment).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MethodOptions {
    /// Kernels whose loops the programmer asserts independent even
    /// when the conservative analysis cannot prove it — the paper's
    /// actual workflow for GE and BFS (humans reviewed the refusals
    /// and vouched from domain knowledge). Loops with *proven* carried
    /// dependences are still refused.
    pub programmer_asserts: Vec<String>,
    /// Step 2: explicit `(gang, worker)` clauses.
    pub distribution: Option<(u32, u32)>,
    /// Step 3: `unroll(n), jam`.
    pub unroll: Option<u32>,
    /// Step 4: `tile(n)`.
    pub tile: Option<u32>,
}

/// The optimized program plus the audit trail.
#[derive(Debug, Clone)]
pub struct OptimizationOutcome {
    pub program: Program,
    pub actions: Vec<StepAction>,
}

impl OptimizationOutcome {
    /// Did step 1 add `independent` anywhere?
    pub fn any_independent_added(&self) -> bool {
        self.actions
            .iter()
            .any(|a| matches!(a, StepAction::AddedIndependent { .. }))
    }

    /// All refusals, for the report.
    pub fn refusals(&self) -> Vec<&StepAction> {
        self.actions
            .iter()
            .filter(|a| matches!(a, StepAction::RefusedIndependent { .. }))
            .collect()
    }
}

/// The human-readable refusal reason for one dependence, shared by
/// step 1's audit trail and the `reproduce --check` soundness table
/// (so both report the same wording for the same hazard).
pub fn dep_reason(d: &DepKind) -> String {
    match d {
        DepKind::Carried { array, distance } => {
            format!(
                "carried dependence on array {} (distance {distance})",
                array.0
            )
        }
        DepKind::Unknown { array, reason } => {
            format!("unanalyzable access to array {} ({reason})", array.0)
        }
    }
}

/// Apply the systematic method to a program.
pub fn apply_method(program: &Program, opts: &MethodOptions) -> OptimizationOutcome {
    let mut p = program.clone();
    let mut actions = Vec::new();

    // ---------------- Step 1: independent ----------------
    // Analyze on the original program, then set clauses.
    let mut independents: Vec<(String, usize)> = Vec::new();
    for k in program.kernels() {
        for level in 0..k.loops.len() {
            let rep = analyze_loop(k, level);
            let vouched = opts.programmer_asserts.contains(&k.name);
            if rep.is_independent() || (vouched && rep.only_unknown()) {
                independents.push((k.name.clone(), level));
                actions.push(StepAction::AddedIndependent {
                    kernel: k.name.clone(),
                    level,
                });
            } else {
                let reason = rep
                    .deps
                    .iter()
                    .map(dep_reason)
                    .collect::<Vec<_>>()
                    .join("; ");
                actions.push(StepAction::RefusedIndependent {
                    kernel: k.name.clone(),
                    level,
                    reason,
                });
            }
        }
    }
    p.map_kernels(|k| {
        for (level, lp) in k.loops.iter_mut().enumerate() {
            if independents
                .iter()
                .any(|(n, l)| *n == k.name && *l == level)
            {
                lp.clauses.independent = true;
            }
        }
    });

    // ---------------- Step 2: thread distribution ----------------
    if let Some((gang, worker)) = opts.distribution {
        let mut names = Vec::new();
        p.map_kernels(|k| {
            // Explicit clauses only help kernels that gridify cannot
            // reach (no `independent`); setting them elsewhere would
            // be ignored by PGI anyway (Section III-A).
            if !k.any_independent() {
                for lp in &mut k.loops {
                    lp.clauses.gang = Some(gang);
                    lp.clauses.worker = Some(worker);
                }
                names.push(k.name.clone());
            }
        });
        for kernel in names {
            actions.push(StepAction::SetDistribution {
                kernel,
                gang,
                worker,
            });
        }
    }

    // ---------------- Step 3: unroll ----------------
    if let Some(f) = opts.unroll {
        let mut names = Vec::new();
        p.map_kernels(|k| {
            if let Some(lp) = k.loops.first_mut() {
                lp.clauses.unroll_jam = Some(f);
            }
            names.push(k.name.clone());
        });
        for kernel in names {
            actions.push(StepAction::RequestedUnroll { kernel, factor: f });
        }
    }

    // ---------------- Step 4: tile ----------------
    if let Some(t) = opts.tile {
        let mut names = Vec::new();
        p.map_kernels(|k| {
            if let Some(lp) = k.loops.first_mut() {
                lp.clauses.tile = Some(t);
            }
            names.push(k.name.clone());
        });
        for kernel in names {
            actions.push(StepAction::RequestedTile { kernel, size: t });
        }
    }

    OptimizationOutcome {
        program: p,
        actions,
    }
}

/// Search the gang × worker space on GPU *and* MIC and pick the
/// configuration with the best worst-case (normalized) time across
/// both — the paper's "(> 256, 16)" portability conclusion for LUD.
pub fn select_portable_distribution(
    gpu: &paccport_devsim::HeatMap,
    mic: &paccport_devsim::HeatMap,
) -> (u32, u32) {
    let (_, _, gpu_best) = gpu.best();
    let (_, _, mic_best) = mic.best();
    let mut best = (gpu.gangs[0], gpu.workers[0], f64::INFINITY);
    for g in &gpu.gangs {
        for w in &gpu.workers {
            let (Some(tg), Some(tm)) = (gpu.at(*g, *w), mic.at(*g, *w)) else {
                continue;
            };
            if !tg.is_finite() || !tm.is_finite() {
                continue;
            }
            // Worst-case slowdown relative to each device's optimum.
            let score = (tg / gpu_best).max(tm / mic_best);
            if score < best.2 {
                best = (*g, *w, score);
            }
        }
    }
    (best.0, best.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_kernels::{gaussian, lud, VariantCfg};

    #[test]
    fn step1_refuses_lud_but_accepts_ge_fan1() {
        let out = apply_method(
            &lud::program(&VariantCfg::baseline()),
            &MethodOptions::default(),
        );
        assert!(!out.any_independent_added(), "LUD must be refused");
        assert_eq!(out.refusals().len(), 2, "both LUD kernels refused");

        let out = apply_method(
            &gaussian::program(&VariantCfg::baseline()),
            &MethodOptions::default(),
        );
        // Fan1 writes m[] and reads a[] — independent w.r.t. i.
        assert!(out
            .actions
            .iter()
            .any(|a| matches!(a, StepAction::AddedIndependent { kernel, .. } if kernel == "fan1")));
    }

    #[test]
    fn step2_sets_clauses_only_without_independent() {
        let opts = MethodOptions {
            distribution: Some((256, 16)),
            ..Default::default()
        };
        let out = apply_method(&lud::program(&VariantCfg::baseline()), &opts);
        let k = out.program.kernel("lud_row").unwrap();
        assert_eq!(k.loops[0].clauses.gang, Some(256));
        assert_eq!(k.loops[0].clauses.worker, Some(16));

        // GE's fan1 got `independent`, so no explicit clauses.
        let out = apply_method(&gaussian::program(&VariantCfg::baseline()), &opts);
        let k = out.program.kernel("fan1").unwrap();
        assert!(k.loops[0].clauses.independent);
        assert_eq!(k.loops[0].clauses.gang, None);
    }

    #[test]
    fn steps_3_and_4_request_clauses() {
        let opts = MethodOptions {
            unroll: Some(8),
            tile: Some(32),
            ..Default::default()
        };
        let out = apply_method(&lud::program(&VariantCfg::baseline()), &opts);
        let k = out.program.kernel("lud_row").unwrap();
        assert_eq!(k.loops[0].clauses.unroll_jam, Some(8));
        assert_eq!(k.loops[0].clauses.tile, Some(32));
        assert!(out
            .actions
            .iter()
            .any(|a| matches!(a, StepAction::RequestedUnroll { factor: 8, .. })));
    }

    #[test]
    fn portable_distribution_balances_devices() {
        use paccport_devsim::HeatMap;
        // GPU prefers (256,16); MIC prefers (240,1); worker 16 is an
        // acceptable compromise per the paper.
        let gangs = vec![64, 240, 256];
        let workers = vec![1, 16, 32];
        let gpu = HeatMap {
            title: "gpu".into(),
            gangs: gangs.clone(),
            workers: workers.clone(),
            cells: vec![
                vec![8.0, 3.0, 3.5],
                vec![5.0, 1.2, 1.5],
                vec![4.0, 1.0, 1.3],
            ],
        };
        let mic = HeatMap {
            title: "mic".into(),
            gangs,
            workers,
            cells: vec![
                vec![4.0, 3.0, 3.2],
                vec![1.0, 1.3, 1.6],
                vec![1.1, 1.25, 1.8],
            ],
        };
        let (g, w) = select_portable_distribution(&gpu, &mic);
        assert!(g >= 240, "gang {g}");
        assert_eq!(w, 16);
    }
}
