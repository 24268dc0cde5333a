//! Study orchestration: scales, measurement points and the helpers
//! every figure generator shares.

use paccport_compilers::{ArtifactCache, CompileOptions, CompiledProgram, CompilerId};
use paccport_devsim::{run, RunConfig};
use paccport_ptx::CategoryCounts;

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

/// One cell of an experiment matrix: everything needed to produce a
/// [`Measured`] point, owned so cells can move across worker threads.
/// Built by the figure generators in `experiments`, executed by
/// [`crate::engine::Engine::measure_matrix`].
#[derive(Debug, Clone)]
pub struct CellSpec {
    pub series: String,
    pub variant: String,
    pub compiler: CompilerId,
    pub options: CompileOptions,
    pub program: paccport_ir::Program,
    pub cfg: RunConfig,
}

impl CellSpec {
    pub fn new(
        series: impl Into<String>,
        variant: impl Into<String>,
        compiler: CompilerId,
        options: CompileOptions,
        program: paccport_ir::Program,
        cfg: RunConfig,
    ) -> Self {
        CellSpec {
            series: series.into(),
            variant: variant.into(),
            compiler,
            options,
            program,
            cfg,
        }
    }
}

/// Compile one program through a shared [`ArtifactCache`] and run it,
/// collecting a [`Measured`] point. The cache builds identical
/// (program, options, device) artifacts once across the whole
/// experiment matrix.
pub fn measure_cached(
    cache: &ArtifactCache,
    series: &str,
    variant: &str,
    compiler: CompilerId,
    options: &CompileOptions,
    program: &paccport_ir::Program,
    cfg: &RunConfig,
) -> Result<Measured, String> {
    let c = cache
        .compile(compiler, program, options)
        .map_err(|e| e.to_string())?;
    measure(series, variant, &c, cfg)
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

/// A cell that exhausted its retries and was quarantined: the figure
/// completes with partial results and renders this as an explicit
/// `FAILED(reason, attempts)` entry instead of dying.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFailure {
    pub series: String,
    pub variant: String,
    /// Final error (or panic message). Injected faults carry the
    /// `paccport_faults::INJECTED` marker.
    pub reason: String,
    pub attempts: u32,
    pub injected: bool,
}

impl std::fmt::Display for CellFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FAILED({}, {} attempts)", self.reason, self.attempts)
    }
}

/// A figure of elapsed-time bars: series × variants, plus the cells
/// that failed out of the matrix (graceful degradation: a figure with
/// quarantined cells still renders everything that succeeded).
#[derive(Debug, Clone, PartialEq)]
pub struct ElapsedFigure {
    pub id: String,
    pub title: String,
    pub points: Vec<Measured>,
    pub failures: Vec<CellFailure>,
    /// Every (series, variant) pair in matrix submission order —
    /// successes and failures alike — so grid layout is stable no
    /// matter which cells were quarantined.
    pub order: Vec<(String, String)>,
}

impl ElapsedFigure {
    pub fn get(&self, series: &str, variant: &str) -> Option<&Measured> {
        self.points
            .iter()
            .find(|m| m.series == series && m.variant == variant)
    }

    /// The failure record for a quarantined cell, if any.
    pub fn failure(&self, series: &str, variant: &str) -> Option<&CellFailure> {
        self.failures
            .iter()
            .find(|f| f.series == series && f.variant == variant)
    }

    /// All distinct series labels in matrix order (failed cells
    /// included, so a quarantined series still appears in the grid).
    pub fn series(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in self.label_stream(|o| &o.0, |m| &m.series, |f| &f.series) {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    }

    /// All distinct variant labels in matrix order (failed cells
    /// included).
    pub fn variants(&self) -> Vec<String> {
        let mut out = Vec::new();
        for v in self.label_stream(|o| &o.1, |m| &m.variant, |f| &f.variant) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Labels in `order` when recorded, otherwise points then
    /// failures (hand-built figures without an explicit order).
    fn label_stream<'a>(
        &'a self,
        from_order: impl Fn(&'a (String, String)) -> &'a String + 'a,
        from_point: impl Fn(&'a Measured) -> &'a String + 'a,
        from_failure: impl Fn(&'a CellFailure) -> &'a String + 'a,
    ) -> Box<dyn Iterator<Item = String> + 'a> {
        if self.order.is_empty() {
            Box::new(
                self.points
                    .iter()
                    .map(from_point)
                    .chain(self.failures.iter().map(from_failure))
                    .cloned(),
            )
        } else {
            Box::new(self.order.iter().map(from_order).cloned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_kernels::{lud, VariantCfg};

    #[test]
    fn measure_produces_complete_points() {
        let p = lud::program(&VariantCfg::thread_dist(256, 16));
        let cfg = RunConfig::timing(vec![("n".into(), 256.0)], 1);
        let m = measure_cached(
            &ArtifactCache::new(),
            "CAPS-CUDA-K40",
            "Dist(256,16)",
            CompilerId::Caps,
            &CompileOptions::gpu(),
            &p,
            &cfg,
        )
        .unwrap();
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
        let f = ElapsedFigure {
            id: "fig3".into(),
            title: "t".into(),
            points: vec![mk("A", "Base"), mk("A", "Opt"), mk("B", "Base")],
            failures: Vec::new(),
            order: Vec::new(),
        };
        assert!(f.get("A", "Opt").is_some());
        assert!(f.get("B", "Opt").is_none());
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
