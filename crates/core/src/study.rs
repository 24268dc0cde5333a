//! Study orchestration: scales, the experiment cell, measurement
//! points and the helpers every figure generator shares.

use paccport_compilers::{CompileOptions, CompiledProgram, CompilerId};
use paccport_devsim::{run, RunConfig};
use paccport_ptx::CategoryCounts;

use crate::engine::JobFailure;

/// Input sizes for the whole study.
///
/// `paper()` uses Table IV's sizes (evaluated through the timing
/// model); `quick()` is small enough for functional validation and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub lud_n: usize,
    pub ge_n: usize,
    pub bfs_n: usize,
    pub bfs_avg_degree: usize,
    pub bfs_levels: u32,
    pub bp_in: usize,
    pub bp_hid: usize,
    pub hydro_n: usize,
    pub hydro_steps: usize,
}

impl Scale {
    /// Table IV: 4K matrix, 8K matrix, 32M nodes, 20M-unit layer.
    pub fn paper() -> Self {
        Scale {
            lud_n: 4096,
            ge_n: 8192,
            bfs_n: 32_000_000,
            bfs_avg_degree: 4,
            bfs_levels: 14,
            bp_in: 20_000_000,
            bp_hid: 16,
            hydro_n: 1024,
            hydro_steps: 4,
        }
    }

    /// Smallest sizes that still exercise every kernel: what the
    /// functional soundness check (`reproduce --check`) interprets
    /// instruction-by-instruction under the race detector.
    pub fn smoke() -> Self {
        Scale {
            lud_n: 32,
            ge_n: 32,
            bfs_n: 120,
            bfs_avg_degree: 3,
            bfs_levels: 10,
            bp_in: 96,
            bp_hid: 16,
            hydro_n: 16,
            hydro_steps: 1,
        }
    }

    /// CI-friendly sizes with the same qualitative behaviour.
    pub fn quick() -> Self {
        Scale {
            lud_n: 512,
            ge_n: 512,
            bfs_n: 500_000,
            bfs_avg_degree: 4,
            bfs_levels: 10,
            bp_in: 200_000,
            bp_hid: 16,
            hydro_n: 128,
            hydro_steps: 2,
        }
    }
}

/// One measured configuration of one benchmark version.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// e.g. "CAPS-CUDA-K40", "OCL-5110P".
    pub series: String,
    /// e.g. "Base", "Indep", "Dist(256,16)".
    pub variant: String,
    pub seconds: f64,
    pub kernel_seconds: f64,
    pub transfer_seconds: f64,
    /// Thread-configuration label of the dominant kernel.
    pub config: String,
    /// Static PTX counts summed over the module.
    pub counts: CategoryCounts,
    pub h2d: u64,
    pub d2h: u64,
    pub launches: u64,
    /// Whether every kernel actually ran on the accelerator.
    pub on_device: bool,
    /// Frontier-loop iterations (BFS; 0 elsewhere).
    pub while_iterations: u64,
    /// Average transfers per frontier iteration (Table VII).
    pub transfers_per_while_iter: f64,
    /// Transfers outside the frontier loop (Table VII's "in total").
    pub transfers_outside_while: u64,
}

impl Measured {
    /// Table VII-style execution-mode label.
    pub fn exec_mode(&self) -> &'static str {
        if !self.on_device {
            "Host (sequential)"
        } else if self.config == "1x1" {
            "Sequential mode"
        } else {
            "Parallel mode"
        }
    }
}

/// One cell of an experiment matrix — a figure's, `--check`'s,
/// `profile`'s or the server's: one (program, compiler, device, input)
/// configuration, owned so cells can move across worker threads. Built
/// by the generators in `experiments`, executed by
/// [`crate::engine::Engine::run_matrix`].
#[derive(Debug, Clone)]
pub struct CheckCell {
    pub benchmark: String,
    /// Target label, e.g. "CAPS-CUDA-K40".
    pub series: String,
    pub variant: String,
    pub compiler: CompilerId,
    pub options: CompileOptions,
    pub program: paccport_ir::Program,
    /// Timing or functional configuration; the soundness check forces
    /// the race detector on.
    pub cfg: RunConfig,
}

impl CheckCell {
    pub fn new(
        benchmark: impl Into<String>,
        series: impl Into<String>,
        variant: impl Into<String>,
        compiler: CompilerId,
        options: CompileOptions,
        program: paccport_ir::Program,
        cfg: RunConfig,
    ) -> Self {
        CheckCell {
            benchmark: benchmark.into(),
            series: series.into(),
            variant: variant.into(),
            compiler,
            options,
            program,
            cfg,
        }
    }

    /// The cell's name in `--check` and `profile` reports, e.g.
    /// "LUD Base / CAPS-CUDA-K40".
    pub fn label(&self) -> String {
        format!("{} {} / {}", self.benchmark, self.variant, self.series)
    }
}

/// Run a compiled program, collecting a [`Measured`] point.
pub fn measure(
    series: &str,
    variant: &str,
    c: &CompiledProgram,
    cfg: &RunConfig,
) -> Result<Measured, String> {
    let r = run(c, cfg)?;
    // Dominant kernel: the one with the most device time.
    let dominant = r
        .kernel_stats
        .iter()
        .max_by(|a, b| a.device_time.total_cmp(&b.device_time));
    Ok(Measured {
        series: series.into(),
        variant: variant.into(),
        seconds: r.elapsed,
        kernel_seconds: r.kernel_time,
        transfer_seconds: r.transfer_time_s,
        config: dominant.map(|d| d.config_label.clone()).unwrap_or_default(),
        counts: c.module.counts(),
        h2d: r.transfers.h2d_count,
        d2h: r.transfers.d2h_count,
        launches: r.kernel_stats.iter().map(|s| s.launches).sum(),
        on_device: r.kernel_stats.iter().all(|s| s.ran_on_device),
        while_iterations: r.while_iterations,
        transfers_per_while_iter: r.transfers_per_while_iter,
        transfers_outside_while: r.transfers_outside_while,
    })
}

/// A figure of elapsed-time bars: series × variants. A figure with
/// quarantined cells still renders everything that succeeded, and
/// spells out each failure as `FAILED(reason, attempts)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ElapsedFigure {
    pub id: String,
    pub title: String,
    /// Every cell's (series, variant) in matrix submission order, with
    /// its point or the failure that quarantined it, so grid layout is
    /// stable no matter which cells failed.
    pub cells: Vec<((String, String), Result<Measured, JobFailure>)>,
}

impl ElapsedFigure {
    fn cell(&self, series: &str, variant: &str) -> Option<&Result<Measured, JobFailure>> {
        self.cells
            .iter()
            .find(|((s, v), _)| s == series && v == variant)
            .map(|(_, r)| r)
    }

    pub fn get(&self, series: &str, variant: &str) -> Option<&Measured> {
        self.cell(series, variant)?.as_ref().ok()
    }

    /// The failure record for a quarantined cell, if any.
    pub fn failure(&self, series: &str, variant: &str) -> Option<&JobFailure> {
        self.cell(series, variant)?.as_ref().err()
    }

    /// All distinct series labels in matrix order (failed cells
    /// included, so a quarantined series still appears in the grid).
    pub fn series(&self) -> Vec<String> {
        distinct(self.cells.iter().map(|((s, _), _)| s))
    }

    /// All distinct variant labels in matrix order (failed cells
    /// included).
    pub fn variants(&self) -> Vec<String> {
        distinct(self.cells.iter().map(|((_, v), _)| v))
    }
}

fn distinct<'a>(labels: impl Iterator<Item = &'a String>) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for l in labels {
        if !out.contains(l) {
            out.push(l.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_kernels::{lud, VariantCfg};

    #[test]
    fn measure_produces_complete_points() {
        let p = lud::program(&VariantCfg::thread_dist(256, 16));
        let cfg = RunConfig::timing(vec![("n".into(), 256.0)], 1);
        let c = paccport_compilers::ArtifactCache::new()
            .compile(CompilerId::Caps, &p, &CompileOptions::gpu())
            .unwrap();
        let m = measure("CAPS-CUDA-K40", "Dist(256,16)", &c, &cfg).unwrap();
        assert!(m.seconds > 0.0);
        assert_eq!(m.config, "256x16");
        assert!(m.counts.total() > 0);
        assert_eq!(m.launches, 2 * 256);
        assert!(m.on_device);
    }

    #[test]
    fn figure_lookup() {
        let mk = |s: &str, v: &str| Measured {
            series: s.into(),
            variant: v.into(),
            seconds: 1.0,
            kernel_seconds: 1.0,
            transfer_seconds: 0.0,
            config: "1x1".into(),
            counts: CategoryCounts::default(),
            h2d: 0,
            d2h: 0,
            launches: 0,
            on_device: true,
            while_iterations: 0,
            transfers_per_while_iter: 0.0,
            transfers_outside_while: 0,
        };
        let lost = JobFailure {
            label: "B/Opt".into(),
            reason: "injected".into(),
            attempts: 3,
            injected: true,
        };
        let f = ElapsedFigure {
            id: "fig3".into(),
            title: "t".into(),
            cells: vec![
                (("A".into(), "Base".into()), Ok(mk("A", "Base"))),
                (("B".into(), "Opt".into()), Err(lost.clone())),
                (("A".into(), "Opt".into()), Ok(mk("A", "Opt"))),
                (("B".into(), "Base".into()), Ok(mk("B", "Base"))),
            ],
        };
        assert!(f.get("A", "Opt").is_some());
        assert!(f.get("B", "Opt").is_none());
        assert_eq!(f.failure("B", "Opt"), Some(&lost));
        // A quarantined cell still places its series and variant.
        assert_eq!(f.series(), vec!["A", "B"]);
        assert_eq!(f.variants(), vec!["Base", "Opt"]);
    }

    #[test]
    fn scales_are_ordered() {
        let p = Scale::paper();
        let q = Scale::quick();
        assert!(p.lud_n > q.lud_n);
        assert_eq!(p.lud_n, 4096);
        assert_eq!(p.ge_n, 8192);
        assert_eq!(p.bfs_n, 32_000_000);
    }
}
