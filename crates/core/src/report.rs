//! ASCII renderers for the experiment data structures — what the
//! `reproduce` binary prints and `EXPERIMENTS.md` records.

use crate::experiments::Table7Row;
use crate::ppr::PprComparison;
use crate::ptxcmp::{composition_line, PtxFigure};
use crate::study::ElapsedFigure;
use std::fmt::Write;

fn hline(out: &mut String, width: usize) {
    for _ in 0..width {
        out.push('-');
    }
    out.push('\n');
}

/// Human-readable seconds.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0} s")
    } else if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// Render an elapsed-time figure as a series × variant matrix.
pub fn render_elapsed(f: &ElapsedFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", f.title, f.id);
    let variants = f.variants();
    let _ = write!(out, "{:<22}", "series \\ variant");
    for v in &variants {
        let _ = write!(out, "{v:>16}");
    }
    out.push('\n');
    hline(&mut out, 22 + 16 * variants.len());
    for s in f.series() {
        let _ = write!(out, "{s:<22}");
        for v in &variants {
            match f.get(&s, v) {
                Some(m) => {
                    let _ = write!(out, "{:>16}", fmt_secs(m.seconds));
                }
                None if f.failure(&s, v).is_some() => {
                    let _ = write!(out, "{:>16}", "FAILED");
                }
                None => {
                    let _ = write!(out, "{:>16}", "-");
                }
            }
        }
        out.push('\n');
        // Thread-configuration row, as under the paper's bars.
        let _ = write!(out, "{:<22}", "  (threads)");
        for v in &variants {
            match f.get(&s, v) {
                Some(m) => {
                    let _ = write!(out, "{:>16}", m.config);
                }
                None => {
                    let _ = write!(out, "{:>16}", "");
                }
            }
        }
        out.push('\n');
    }
    // Quarantined cells, spelled out. Absent entirely on clean runs,
    // so fault-free reports are byte-identical to the pre-chaos path.
    for ((s, v), r) in &f.cells {
        if let Err(fail) = r {
            let _ = writeln!(
                out,
                "  {s}/{v} FAILED({}, {} attempts)",
                fail.reason, fail.attempts
            );
        }
    }
    out
}

/// Render the fault ledger: the chaos configuration, every injected
/// fault event, and every quarantined job. Both sets are pure
/// functions of (spec, seed) — see `paccport-faults` — so this renders
/// byte-identically across runs and job counts.
pub fn render_fault_ledger(quarantined: &[crate::engine::JobFailure]) -> String {
    let mut out = String::new();
    let Some((spec, seed)) = paccport_faults::config_summary() else {
        return out;
    };
    let _ = writeln!(
        out,
        "== Fault ledger: --inject {spec} --fault-seed {seed} [faults] =="
    );
    let events = paccport_faults::ledger();
    let _ = writeln!(out, "{} fault(s) injected:", events.len());
    for e in &events {
        let _ = writeln!(
            out,
            "  {:<14}{} (attempt {})",
            e.kind.tag(),
            e.key,
            e.attempt
        );
    }
    if quarantined.is_empty() {
        let _ = writeln!(out, "0 job(s) quarantined: every fault was retried away");
    } else {
        let _ = writeln!(out, "{} job(s) quarantined:", quarantined.len());
        for q in quarantined {
            let _ = writeln!(
                out,
                "  {}: {} [{} attempts{}]",
                q.label,
                q.reason,
                q.attempts,
                if q.injected { "" } else { ", NOT injected" }
            );
        }
    }
    out
}

/// Render a PTX-composition figure.
pub fn render_ptx(f: &PtxFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {} [{}] ==", f.title, f.id);
    let _ = writeln!(
        out,
        "{:<34}{:>8}{:>8}  composition (A=arith FC=flow LS=logic DM=datamov GM=global SM=shared S=sync)",
        "version", "total", "threads"
    );
    hline(&mut out, 110);
    for b in &f.bars {
        let _ = writeln!(
            out,
            "{:<34}{:>8}{:>8}  {}",
            b.label,
            b.counts.total_plotted(),
            b.config,
            composition_line(&b.counts)
        );
        let _ = writeln!(
            out,
            "{:<34}        memcpy H-D {}  D-H {}  kernel launches {}",
            "", b.memcpy_h2d, b.memcpy_d2h, b.launches
        );
    }
    out
}

/// Render the Fig.-16 PPR bars.
pub fn render_ppr(rows: &[PprComparison]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== PPR across GPU and MIC (Eq. 1; lower is better) [fig16] =="
    );
    let _ = writeln!(
        out,
        "{:<10}{:>22}{:>22}{:>26}",
        "benchmark", "OpenACC (CAPS) PPR", "OpenCL PPR", "OpenACC more portable?"
    );
    hline(&mut out, 80);
    for c in rows {
        let _ = writeln!(
            out,
            "{:<10}{:>22.2}{:>22.2}{:>26}",
            c.openacc.benchmark,
            c.openacc.ppr(),
            c.opencl.ppr(),
            if c.openacc_is_more_portable() {
                "yes"
            } else {
                "no"
            }
        );
    }
    out
}

/// Render Table VII.
pub fn render_tab7(rows: &[Table7Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table VII: BFS execution modes and data transfers =="
    );
    let _ = writeln!(
        out,
        "{:<8}{:<20}{:<20}{:<30}",
        "", "Default modes", "With independent", "Data transfers"
    );
    hline(&mut out, 78);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<8}{:<20}{:<20}{:<30}",
            r.compiler, r.default_mode, r.with_independent_mode, r.data_transfers
        );
    }
    out
}

/// Render the `--check` soundness table: one line per (benchmark,
/// variant, kernel, loop level), aggregated across the targets that
/// ran it, followed by the lost-update demonstrations and a verdict.
pub fn render_soundness(rep: &crate::soundness::SoundnessReport) -> String {
    use std::collections::BTreeMap;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Soundness: static dependence analysis vs dynamic race detector [check] =="
    );
    let _ = writeln!(
        out,
        "{:<10}{:<30}{:<18}{:>2} {:>6}{:>7}  static verdict / status",
        "benchmark", "variant", "kernel", "L", "cells", "races"
    );
    hline(&mut out, 118);

    // (benchmark, variant, kernel, level) -> (cells, races, verdict,
    // proven, all-consistent). The static verdict only depends on the
    // source program, so it is identical across a group's targets.
    #[allow(clippy::type_complexity)]
    let mut groups: BTreeMap<
        (String, String, String, usize),
        (usize, usize, String, bool, bool),
    > = BTreeMap::new();
    for r in rep.rows.iter().filter(|r| !r.lost_update_demo) {
        let g = groups
            .entry((
                r.benchmark.clone(),
                r.variant.clone(),
                r.kernel.clone(),
                r.level,
            ))
            .or_insert((0, 0, r.verdict.clone(), r.proven_independent, true));
        g.0 += 1;
        g.1 += r.races;
        g.4 &= r.consistent;
    }
    for ((bench, variant, kernel, level), (cells, races, verdict, proven, ok)) in &groups {
        let status = if !ok {
            "VIOLATION"
        } else if *proven {
            "independent, race-free"
        } else {
            "not asserted"
        };
        let _ = writeln!(
            out,
            "{bench:<10}{variant:<30}{kernel:<18}{level:>2} {cells:>6}{races:>7}  {status}: {verdict}"
        );
    }

    let demos: Vec<_> = rep.rows.iter().filter(|r| r.lost_update_demo).collect();
    if !demos.is_empty() {
        let _ = writeln!(
            out,
            "\nknown-wrong plans, demonstrated via their effective lowering:"
        );
        let mut seen = Vec::new();
        for d in demos {
            let key = (&d.benchmark, &d.variant, &d.kernel, &d.series);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let _ = writeln!(
                out,
                "  {} {} / {} -> {}",
                d.benchmark,
                d.variant,
                d.series,
                if d.races > 0 {
                    d.race_note.as_str()
                } else {
                    "NOT CAUGHT"
                }
            );
        }
    }

    let _ = writeln!(
        out,
        "\n{} cells checked, {} shadow-logged accesses, {} loop levels",
        rep.cells,
        rep.accesses,
        groups.len()
    );
    for f in &rep.failures {
        let _ = writeln!(out, "cell FAILED: {f}");
    }
    if rep.all_consistent() {
        let _ = writeln!(
            out,
            "soundness invariant holds: every statically-independent loop ran race-free{}",
            if rep.lost_update_caught() {
                ", and every known-wrong reduction plan was caught as a write-write race"
            } else {
                ""
            }
        );
        if !rep.failures.is_empty() {
            let _ = writeln!(
                out,
                "({} cell(s) quarantined by injected faults; see the fault ledger)",
                rep.failures.len()
            );
        }
    } else {
        let _ = writeln!(
            out,
            "SOUNDNESS VIOLATIONS: {} row(s), {} genuinely failed cell(s)",
            rep.violations().len(),
            rep.uninjected_failures().len()
        );
    }
    out
}

/// Render Table I.
pub fn render_tab1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table I: Compiler flags used in the method ==");
    let _ = writeln!(out, "{:<36}{:<10}Usage", "Flags", "Compilers");
    hline(&mut out, 86);
    for row in paccport_compilers::flags::table1() {
        let _ = writeln!(out, "{:<36}{:<10}{}", row.flag, row.compiler, row.usage);
    }
    out
}

/// Render Table III.
pub fn render_tab3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table III: Parallelism across programming models =="
    );
    let _ = writeln!(
        out,
        "{:<10}{:<10}{:<10}{:<16}{:<12}",
        "OpenACC", "CAPS", "PGI", "CUDA", "OpenCL"
    );
    hline(&mut out, 58);
    for r in paccport_compilers::mapping::table3() {
        let _ = writeln!(
            out,
            "{:<10}{:<10}{:<10}{:<16}{:<12}",
            r.openacc, r.caps, r.pgi, r.cuda, r.opencl
        );
    }
    out
}

/// Render Table IV.
pub fn render_tab4() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table IV: The four kernel benchmarks ==");
    let _ = writeln!(
        out,
        "{:<22}{:<24}{:<22}{:<12}",
        "Kernels", "Dwarves", "Domains", "Input Size"
    );
    hline(&mut out, 80);
    for r in paccport_kernels::table4() {
        let _ = writeln!(
            out,
            "{:<22}{:<24}{:<22}{:<12}",
            r.kernel, r.dwarf, r.domain, r.input_size
        );
    }
    out
}

/// Render Table V.
pub fn render_tab5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== Table V: PTX instruction categories ==");
    use paccport_ptx::{Opcode, CATEGORIES};
    let all = [
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Div,
        Opcode::Max,
        Opcode::Min,
        Opcode::Fma,
        Opcode::Mad,
        Opcode::Rcp,
        Opcode::Abs,
        Opcode::Neg,
        Opcode::Setp,
        Opcode::Selp,
        Opcode::Bra,
        Opcode::Or,
        Opcode::Not,
        Opcode::Shl,
        Opcode::Shr,
        Opcode::Cvt,
        Opcode::Mov,
        Opcode::LdParam,
        Opcode::CvtaToGlobal,
        Opcode::LdGlobal,
        Opcode::StGlobal,
        Opcode::LdShared,
        Opcode::StShared,
    ];
    for cat in CATEGORIES {
        let ops: Vec<&str> = all
            .iter()
            .filter(|o| o.category() == cat)
            .map(|o| o.mnemonic())
            .collect();
        if !ops.is_empty() {
            let _ = writeln!(out, "{:<16}{}", cat.label(), ops.join(", "));
        }
    }
    out
}

/// Render Table VI.
pub fn render_tab6(input_size: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Table VI: Default thread distributions (input size {input_size}) =="
    );
    let _ = writeln!(
        out,
        "{:<10}{:<14}{:<28}{:<14}",
        "Compilers", "Modes", "Grid Size", "Block Size"
    );
    hline(&mut out, 66);
    for r in paccport_compilers::mapping::table6(input_size) {
        let _ = writeln!(
            out,
            "{:<10}{:<14}{:<28}{:<14}",
            r.compiler, r.mode, r.grid, r.block
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(123.4), "123 s");
        assert_eq!(fmt_secs(1.5), "1.50 s");
        assert_eq!(fmt_secs(0.0025), "2.50 ms");
        assert_eq!(fmt_secs(12e-6), "12.0 us");
    }

    #[test]
    fn static_tables_render() {
        assert!(render_tab1().contains("-Munroll"));
        assert!(render_tab3().contains("Thread block"));
        assert!(render_tab4().contains("Graph Traversal"));
        assert!(render_tab5().contains("cvta.to.global"));
        assert!(render_tab6(4096).contains("[32,4,1]"));
    }
}
