//! Cross-validation of the static dependence analysis against the
//! device simulator's dynamic race detector (`reproduce --check`).
//!
//! The method's step 1 (`crate::method`) only adds `independent` where
//! `paccport_ir::analyze_loop` proves the loop free of carried
//! dependences. The device simulator independently logs every global-
//! and local-memory access per parallel iteration and flags
//! cross-iteration read-write / write-write conflicts
//! (`paccport_devsim::RaceTracker`). Running both over the same
//! benchmark matrix yields a machine-checkable soundness invariant:
//!
//! * **static ⇒ dynamic**: a loop the analysis proved independent must
//!   show *zero* races on every benchmark input;
//! * **dynamic ⇒ static**: a detected race must land on a loop the
//!   analysis did *not* prove independent (Carried or Unknown);
//! * **known miscompilations are caught**: a kernel plan marked
//!   [`Correctness::Wrong`] (the CAPS `reduction` on MIC,
//!   Section V-D2) must be flagged — its effective lowering, the
//!   lost-update rewrite of the reduction, is executed under the
//!   detector and must produce a write-write race naming the
//!   reduction array and the two conflicting iterations.
//!
//! [`check_cell`] verifies one (program, compiler, device, input)
//! cell; `crate::experiments::check_soundness_on` sweeps the full
//! benchmark matrix through the engine's one cell runner and
//! `crate::report::render_soundness` prints the per-kernel table.

use paccport_compilers::{ArtifactCache, CompiledProgram, Correctness};
use paccport_devsim::{run, Buffer, RaceKind, RunConfig};
use paccport_ir::{
    analyze_loop, ld, st, ArrayId, Block, Expr, HostStmt, Intent, Kernel, MemSpace, ParallelLoop,
    Program, ProgramBuilder, Scalar, Stmt,
};

use crate::method::dep_reason;
use crate::study::CheckCell;

/// The soundness verdict for one kernel at one parallel-loop level of
/// one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct SoundnessRow {
    pub benchmark: String,
    pub series: String,
    pub variant: String,
    pub kernel: String,
    /// Parallel-loop nest level the verdict talks about.
    pub level: usize,
    /// Did `analyze_loop` prove this level independent?
    pub proven_independent: bool,
    /// "independent", or the same refusal wording step 1 records.
    pub verdict: String,
    /// Dynamic races the detector attributed to this level.
    pub races: usize,
    /// `Race::describe()` of the first race, if any.
    pub race_note: String,
    /// The compiler plan for this kernel is known-wrong on this target.
    pub miscompiled: bool,
    /// This row ran the lost-update effective lowering of a
    /// known-wrong reduction (where a race is *required*).
    pub lost_update_demo: bool,
    /// Does this row satisfy the invariant?
    pub consistent: bool,
}

/// What [`check_cell`] returns for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellCheck {
    pub rows: Vec<SoundnessRow>,
    /// Shadow-logged memory accesses during the cell's run.
    pub accesses: u64,
}

/// The aggregated result over a whole benchmark matrix.
#[derive(Debug, Clone, Default)]
pub struct SoundnessReport {
    pub rows: Vec<SoundnessRow>,
    /// Cells attempted (compile + functional run).
    pub cells: usize,
    /// Total shadow-logged accesses across all cells.
    pub accesses: u64,
    /// Cells that failed to compile or run, with the error.
    pub failures: Vec<String>,
}

impl SoundnessReport {
    /// Rows that violate the invariant.
    pub fn violations(&self) -> Vec<&SoundnessRow> {
        self.rows.iter().filter(|r| !r.consistent).collect()
    }

    /// The check passes: every row consistent and every cell ran.
    ///
    /// Cells quarantined by an *injected* fault (chaos testing) do not
    /// fail the check — they are chaos we asked for, reported in the
    /// fault ledger instead. Genuine failures still fail it.
    pub fn all_consistent(&self) -> bool {
        self.uninjected_failures().is_empty()
            && !self.rows.is_empty()
            && self.rows.iter().all(|r| r.consistent)
    }

    /// Failures that were *not* injected faults — genuine breakage.
    pub fn uninjected_failures(&self) -> Vec<&String> {
        self.failures
            .iter()
            .filter(|f| !paccport_faults::is_injected(f))
            .collect()
    }

    /// Races on loops the static analysis proved independent (the
    /// invariant requires this to be zero).
    pub fn races_on_proven_independent(&self) -> usize {
        self.rows
            .iter()
            .filter(|r| r.proven_independent && !r.lost_update_demo)
            .map(|r| r.races)
            .sum()
    }

    /// Every known-wrong reduction plan was demonstrated as a
    /// write-write race (and at least one such plan was present).
    pub fn lost_update_caught(&self) -> bool {
        let demos: Vec<_> = self.rows.iter().filter(|r| r.lost_update_demo).collect();
        !demos.is_empty()
            && demos
                .iter()
                .all(|r| r.races > 0 && r.race_note.contains("write-write"))
    }
}

/// Compile one cell through the shared cache, run it functionally
/// under the race detector, and compare the detector's findings
/// against `analyze_loop`'s verdict for every kernel and loop level.
pub fn check_cell(cache: &ArtifactCache, cell: &CheckCell) -> Result<CellCheck, String> {
    let c = cache
        .compile(cell.compiler, &cell.program, &cell.options)
        .map_err(|e| e.to_string())?;
    check_compiled(cache, cell, &c)
}

/// [`check_cell`] for a cell already compiled to `c`. The cache
/// compiles the lost-update demonstration of a known-wrong plan.
pub(crate) fn check_compiled(
    cache: &ArtifactCache,
    cell: &CheckCell,
    c: &CompiledProgram,
) -> Result<CellCheck, String> {
    let _g = paccport_trace::span_attrs(
        "soundness.check_cell",
        vec![
            ("benchmark".into(), cell.benchmark.clone()),
            ("variant".into(), cell.variant.clone()),
            ("target".into(), cell.series.clone()),
        ],
    );
    let r = run(c, &cell.cfg.clone().with_race_check(true))?;

    let mut rows = Vec::new();
    for k in cell.program.kernels() {
        let miscompiled = matches!(
            c.plan(&k.name).map(|p| &p.correctness),
            Some(Correctness::Wrong { .. })
        );
        let nlev = k.loops.len();
        for level in 0..nlev {
            let rep = analyze_loop(k, level);
            let proven = rep.is_independent();
            let verdict = if proven {
                "independent".to_string()
            } else {
                rep.deps
                    .iter()
                    .map(dep_reason)
                    .collect::<Vec<_>>()
                    .join("; ")
            };
            // Races below every parallel level (same-group lanes,
            // `level == None`) and races the transformed program
            // attributes deeper than the source nest both belong to
            // the innermost source level.
            let races: Vec<_> = r
                .races
                .iter()
                .filter(|x| {
                    x.kernel == k.name
                        && match x.level {
                            Some(l) => l == level || (l >= nlev && level == nlev - 1),
                            None => level == nlev - 1,
                        }
                })
                .collect();
            rows.push(SoundnessRow {
                benchmark: cell.benchmark.clone(),
                series: cell.series.clone(),
                variant: cell.variant.clone(),
                kernel: k.name.clone(),
                level,
                proven_independent: proven,
                verdict,
                races: races.len(),
                race_note: races.first().map(|x| x.describe()).unwrap_or_default(),
                miscompiled,
                lost_update_demo: false,
                consistent: !proven || races.is_empty(),
            });
        }
        if miscompiled {
            rows.push(lost_update_row(cache, cell, k)?);
        }
    }
    Ok(CellCheck {
        rows,
        accesses: r.race_accesses,
    })
}

/// The array a known-wrong reduction kernel accumulates into: the
/// first global store (or atomic) target of its source body.
pub fn reduction_array_name(p: &Program, k: &Kernel) -> Option<String> {
    let body = k.simple_body()?;
    let id = first_store_array(body)?;
    p.arrays.get(id.0 as usize).map(|a| a.name.clone())
}

fn first_store_array(b: &Block) -> Option<ArrayId> {
    for s in &b.0 {
        match s {
            Stmt::Store {
                space: MemSpace::Global,
                array,
                ..
            }
            | Stmt::Atomic { array, .. } => return Some(*array),
            Stmt::If {
                then_blk, else_blk, ..
            } => {
                if let Some(a) = first_store_array(then_blk).or_else(|| first_store_array(else_blk))
                {
                    return Some(a);
                }
            }
            Stmt::For { body, .. } => {
                if let Some(a) = first_store_array(body) {
                    return Some(a);
                }
            }
            _ => {}
        }
    }
    None
}

/// The effective schedule of the CAPS lost-update miscompilation: the
/// reduction collapses to `acc[0] = acc[0] + x[i]` executed by every
/// parallel iteration with no synchronization. Statically this is a
/// textbook carried dependence (distance 0 on the accumulator);
/// dynamically the detector must flag a write-write race between two
/// concrete iterations.
pub fn lost_update_program(kernel: &str, array: &str) -> (Program, RunConfig) {
    let mut b = ProgramBuilder::new("lost_update_demo");
    let n = b.iparam("n");
    let x = b.array("x", Scalar::F32, n, Intent::In);
    let out = b.array(array, Scalar::F32, 1i64, Intent::InOut);
    let i = b.var("i");
    let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
    // The miscompiled schedule *claims* the iterations are safe.
    lp.clauses.independent = true;
    let k = Kernel::simple(
        kernel,
        vec![lp],
        Block::new(vec![st(out, 0i64, ld(out, 0i64) + ld(x, i))]),
    );
    let p = b.finish(vec![HostStmt::Launch(k)]);
    let cfg =
        RunConfig::functional(vec![("n".into(), 8.0)]).with_input("x", Buffer::F32(vec![1.0; 8]));
    (p, cfg)
}

/// Run the effective lowering of a known-wrong reduction kernel under
/// the detector. The row is only `consistent` if the detector caught
/// the lost update as a write-write race.
fn lost_update_row(
    cache: &ArtifactCache,
    cell: &CheckCell,
    k: &Kernel,
) -> Result<SoundnessRow, String> {
    let array = reduction_array_name(&cell.program, k).unwrap_or_else(|| "acc".into());
    let (p, cfg) = lost_update_program(&k.name, &array);
    let demo_kernel = p.kernels()[0].clone();
    let c = cache
        .compile(cell.compiler, &p, &cell.options)
        .map_err(|e| e.to_string())?;
    let r = run(&c, &cfg.with_race_check(true))?;
    let ww: Vec<_> = r
        .races
        .iter()
        .filter(|x| x.kind == RaceKind::WriteWrite && x.array == array)
        .collect();
    let rep = analyze_loop(&demo_kernel, 0);
    Ok(SoundnessRow {
        benchmark: cell.benchmark.clone(),
        series: cell.series.clone(),
        variant: format!("{} (effective lowering)", cell.variant),
        kernel: k.name.clone(),
        level: 0,
        proven_independent: rep.is_independent(),
        verdict: rep
            .deps
            .iter()
            .map(dep_reason)
            .collect::<Vec<_>>()
            .join("; "),
        races: ww.len(),
        race_note: ww.first().map(|x| x.describe()).unwrap_or_default(),
        miscompiled: true,
        lost_update_demo: true,
        consistent: !ww.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::{CompileOptions, CompilerId};
    use paccport_kernels::{backprop, diag_dominant_matrix, lud, random_vec, VariantCfg};

    #[test]
    fn lud_base_cell_is_sound() {
        let n = 24usize;
        let cache = ArtifactCache::new();
        let cell = CheckCell::new(
            "LUD",
            "CAPS-CUDA-K40",
            "Base",
            CompilerId::Caps,
            CompileOptions::gpu(),
            lud::program(&VariantCfg::baseline()),
            RunConfig::functional(vec![("n".into(), n as f64)])
                .with_input("a", Buffer::F32(diag_dominant_matrix(n, 21))),
        );
        let cc = check_cell(&cache, &cell).unwrap();
        assert!(!cc.rows.is_empty());
        assert!(cc.accesses > 0, "the detector must have observed the run");
        for row in &cc.rows {
            assert!(row.consistent, "{row:?}");
            // LUD is the paper's refused benchmark: nothing proven
            // independent, and nothing racing either (the carried
            // dependence is across *sequential* launches).
            assert!(!row.proven_independent, "{row:?}");
            assert_eq!(row.races, 0, "{row:?}");
        }
    }

    #[test]
    fn wrong_reduction_plan_gets_a_lost_update_demo_row() {
        let mut vc = VariantCfg::independent();
        vc.reduction = true;
        let n_in = 64usize;
        let n_hid = 16usize;
        let w_len = (n_in + 1) * (n_hid + 1);
        let cache = ArtifactCache::new();
        let cell = CheckCell::new(
            "BP",
            "CAPS-OCL-5110P",
            "Reduction",
            CompilerId::Caps,
            CompileOptions::mic(),
            backprop::program(&vc),
            RunConfig::functional(vec![
                ("n_in".into(), n_in as f64),
                ("n_hid".into(), n_hid as f64),
            ])
            .with_input("input", Buffer::F32(random_vec(n_in + 1, 1)))
            .with_input("w", Buffer::F32(random_vec(w_len, 2)))
            .with_input("delta", Buffer::F32(random_vec(n_hid + 1, 3)))
            .with_input("oldw", Buffer::F32(random_vec(w_len, 4))),
        );
        let cc = check_cell(&cache, &cell).unwrap();
        let demo = cc
            .rows
            .iter()
            .find(|r| r.lost_update_demo)
            .expect("the wrong plan must be demonstrated");
        assert!(demo.consistent, "{demo:?}");
        assert!(demo.races > 0);
        assert!(demo.miscompiled);
        // The diagnostic names the real reduction array and two
        // distinct iterations of the forward kernel.
        assert!(demo.race_note.contains("write-write"), "{}", demo.race_note);
        assert!(demo.race_note.contains("`hidden`[0]"), "{}", demo.race_note);
        assert!(
            demo.race_note.contains("iteration (0)") && demo.race_note.contains("iteration (1)"),
            "{}",
            demo.race_note
        );
        assert!(
            demo.verdict.contains("carried dependence"),
            "{}",
            demo.verdict
        );
        // All non-demo rows stay consistent: the skipped tree phases
        // never race, so only the effective lowering shows the bug.
        assert!(cc.rows.iter().all(|r| r.consistent));
    }

    #[test]
    fn reduction_array_is_found_from_the_source_body() {
        let mut vc = VariantCfg::independent();
        vc.reduction = true;
        let p = backprop::program(&vc);
        let k = p.kernel("layer_forward").unwrap();
        assert_eq!(reduction_array_name(&p, k).as_deref(), Some("hidden"));
    }
}
