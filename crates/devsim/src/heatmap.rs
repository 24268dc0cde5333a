//! The Figure-4 machinery: sweep gang × worker (or the equivalent)
//! thread-distribution configurations, recording modeled elapsed time
//! for each cell. Every cell is compiled; the cells whose artifacts
//! differ only in their distributions are then timed by one walk of the
//! host program ([`compile_and_run_each`]). Under fault injection each
//! cell compiles and runs on its own, and a cell an injected fault
//! failed is retried, up to two more attempts.

use crate::group::compile_and_run_each;
use crate::runner::{run, RunConfig};
use paccport_compilers::{compile, CompileError, CompileOptions, CompilerId};
use paccport_ir::Program;

/// One heat map: rows = gang counts, columns = worker counts.
#[derive(Debug, Clone)]
pub struct HeatMap {
    pub title: String,
    pub gangs: Vec<u32>,
    pub workers: Vec<u32>,
    /// `cells[gi][wi]` = elapsed seconds (NaN for failed cells).
    pub cells: Vec<Vec<f64>>,
}

impl HeatMap {
    /// Coordinates and value of the fastest cell.
    pub fn best(&self) -> (u32, u32, f64) {
        let mut best = (self.gangs[0], self.workers[0], f64::INFINITY);
        for (gi, g) in self.gangs.iter().enumerate() {
            for (wi, w) in self.workers.iter().enumerate() {
                let v = self.cells[gi][wi];
                if v.is_finite() && v < best.2 {
                    best = (*g, *w, v);
                }
            }
        }
        best
    }

    /// Elapsed time at a specific configuration.
    pub fn at(&self, gang: u32, worker: u32) -> Option<f64> {
        let gi = self.gangs.iter().position(|g| *g == gang)?;
        let wi = self.workers.iter().position(|w| *w == worker)?;
        Some(self.cells[gi][wi])
    }

    /// ASCII rendering, brightest (fastest) to darkest, like Fig. 4.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{}  (elapsed seconds; * = best)", self.title);
        let (bg, bw, _) = self.best();
        let _ = write!(out, "{:>8}", "gang\\wkr");
        for w in &self.workers {
            let _ = write!(out, "{w:>10}");
        }
        out.push('\n');
        for (gi, g) in self.gangs.iter().enumerate() {
            let _ = write!(out, "{g:>8}");
            for (wi, w) in self.workers.iter().enumerate() {
                let v = self.cells[gi][wi];
                let marker = if *g == bg && *w == bw { "*" } else { "" };
                let _ = write!(out, "{:>10}", format!("{v:.3}{marker}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Sweep a program over gang × worker configurations.
///
/// `configure` receives a fresh clone of the program plus the (gang,
/// worker) pair and must set the appropriate clauses; each configured
/// program is compiled with `compiler`/`options` and run with `cfg`.
#[allow(clippy::too_many_arguments)]
pub fn sweep(
    title: &str,
    program: &Program,
    compiler: CompilerId,
    options: &CompileOptions,
    cfg: &RunConfig,
    gangs: &[u32],
    workers: &[u32],
    configure: impl Fn(&mut Program, u32, u32) + Sync,
) -> Result<HeatMap, CompileError> {
    let configured = |i: usize| {
        let mut p = program.clone();
        configure(&mut p, gangs[i / workers.len()], workers[i % workers.len()]);
        p
    };
    let cell_count = gangs.len() * workers.len();
    // Transient injected faults clear on a later attempt (the decision
    // hash includes the attempt counter, and only it, as run state), so
    // a short retry loop keeps chaos runs lossless; genuine errors fail
    // identically every time and fall through to NaN as before.
    let outer_attempt = paccport_faults::current_attempt();
    paccport_faults::set_attempt(0);
    let mut runs = compile_and_run_each((0..cell_count).map(configured), compiler, options, cfg);
    for attempt in 1..3 {
        paccport_faults::set_attempt(attempt);
        for (i, r) in runs.iter_mut().enumerate() {
            if matches!(r, Err(e) if paccport_faults::is_injected(e)) {
                *r = compile(compiler, &configured(i), options)
                    .map_err(|e| e.to_string())
                    .and_then(|c| run(&c, cfg));
            }
        }
    }
    paccport_faults::set_attempt(outer_attempt);
    let mut elapsed = runs.into_iter().map(|r| r.map_or(f64::NAN, |r| r.elapsed));
    let cells = gangs
        .iter()
        .map(|_| elapsed.by_ref().take(workers.len()).collect())
        .collect();
    Ok(HeatMap {
        title: title.into(),
        gangs: gangs.to_vec(),
        workers: workers.to_vec(),
        cells,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ir::{
        ld, st, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar,
    };

    fn memory_bound_program() -> Program {
        let mut b = ProgramBuilder::new("memtouch");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let i = b.var("i");
        let k = Kernel::simple(
            "touch",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            paccport_ir::Block::new(vec![st(a, i, ld(a, i) + ld(x, i))]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn sweep_produces_full_grid_and_sane_best() {
        let p = memory_bound_program();
        let cfg = RunConfig::timing(vec![("n".into(), 4096.0 * 4096.0)], 1);
        let gangs = [1u32, 64, 256, 1024];
        let workers = [1u32, 8, 16, 32, 64];
        let hm = sweep(
            "CAPS-K40",
            &p,
            CompilerId::Caps,
            &CompileOptions::gpu(),
            &cfg,
            &gangs,
            &workers,
            |p, g, w| {
                p.map_kernels(|k| {
                    k.loops[0].clauses.gang = Some(g);
                    k.loops[0].clauses.worker = Some(w);
                });
            },
        )
        .unwrap();
        assert_eq!(hm.cells.len(), 4);
        assert_eq!(hm.cells[0].len(), 5);
        let (bg, bw, bt) = hm.best();
        assert!(bt.is_finite());
        // 1x1 must be the worst corner by a wide margin.
        let worst = hm.at(1, 1).unwrap();
        // Host↔device copy time is constant across cells and
        // compresses the ratio for this tiny kernel.
        assert!(worst / bt > 20.0, "1x1 {worst} vs best {bt}");
        // The best cell should be a saturating configuration.
        assert!(bg as u64 * bw as u64 >= 2048, "best ({bg},{bw})");
        // Render does not panic and marks the best.
        assert!(hm.render().contains('*'));
    }
}
