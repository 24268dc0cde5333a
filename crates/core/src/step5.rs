//! Step 5 — automatic data-region insertion.
//!
//! The paper's stated future work: *"We will improve the systematic
//! optimization method, such as inserting the data region directives
//! for data-intensive kernels."* Without an enclosing
//! `#pragma acc data`, a 2014-era compiler synchronizes every array a
//! kernel touches around *every* launch; for codes that launch kernels
//! from a host loop (LUD launches 2N, GE 3N) the PCIe traffic dwarfs
//! the compute. This step hoists one data region around the outermost
//! kernel-launching construct, covering every array any kernel uses.

use paccport_ir::{ArrayId, HostStmt, Program};
use std::collections::BTreeSet;

/// Remove every data region, splicing its body in place — the shape
/// of a naive port (and the "before" side of the Step-5 experiment).
pub fn strip_data_regions(program: &Program) -> Program {
    let mut p = program.clone();
    p.body = strip(std::mem::take(&mut p.body));
    p
}

fn strip(body: Vec<HostStmt>) -> Vec<HostStmt> {
    let mut out = Vec::with_capacity(body.len());
    for s in body {
        match s {
            HostStmt::DataRegion { body, .. } => out.extend(strip(body)),
            HostStmt::HostLoop { var, lo, hi, body } => out.push(HostStmt::HostLoop {
                var,
                lo,
                hi,
                body: strip(body),
            }),
            HostStmt::WhileFlag {
                flag,
                max_iters,
                body,
            } => out.push(HostStmt::WhileFlag {
                flag,
                max_iters,
                body: strip(body),
            }),
            other => out.push(other),
        }
    }
    out
}

/// Insert one data region around the whole program body, covering
/// every array any kernel references. Returns the covered arrays
/// (empty ⇒ the program was left unchanged because a region already
/// exists or no kernel launches were found).
pub fn insert_data_regions(program: &mut Program) -> Vec<ArrayId> {
    if program.has_data_region() {
        return Vec::new();
    }
    let mut covered: BTreeSet<ArrayId> = BTreeSet::new();
    for k in program.kernels() {
        covered.extend(k.global_arrays());
    }
    if covered.is_empty() {
        return Vec::new();
    }
    let arrays: Vec<ArrayId> = covered.into_iter().collect();
    let body = std::mem::take(&mut program.body);
    program.body = vec![HostStmt::DataRegion {
        arrays: arrays.clone(),
        body,
    }];
    arrays
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::{compile, CompileOptions, CompilerId};
    use paccport_devsim::{run, RunConfig};
    use paccport_kernels::{lud, VariantCfg};

    #[test]
    fn strip_then_insert_round_trips_coverage() {
        let p = lud::program(&VariantCfg::thread_dist(256, 16));
        assert!(p.has_data_region());
        let stripped = strip_data_regions(&p);
        assert!(!stripped.has_data_region());
        assert_eq!(stripped.kernel_count(), p.kernel_count());
        let mut restored = stripped.clone();
        let covered = insert_data_regions(&mut restored);
        assert!(!covered.is_empty());
        assert!(restored.has_data_region());
        // Inserting into a program that already has a region is a
        // no-op.
        let mut again = restored.clone();
        assert!(insert_data_regions(&mut again).is_empty());
    }

    /// The step's raison d'être: without the region, LUD re-transfers
    /// the matrix around every one of its 2N launches.
    #[test]
    fn region_insertion_slashes_transfers() {
        let n = 256usize;
        let base = lud::program(&VariantCfg::thread_dist(256, 16));
        let stripped = strip_data_regions(&base);
        let mut restored = stripped.clone();
        insert_data_regions(&mut restored);

        let rc = RunConfig::timing(vec![("n".into(), n as f64)], 1);
        let o = CompileOptions::gpu();
        let measure = |p: &Program| {
            let c = compile(CompilerId::Caps, p, &o).unwrap();
            let r = run(&c, &rc).unwrap();
            (r.transfers.total_count(), r.elapsed)
        };
        let (t_stripped, e_stripped) = measure(&stripped);
        let (t_restored, e_restored) = measure(&restored);
        // 2N launches × ≥2 transfers each vs 2 region transfers.
        assert!(
            t_stripped >= 4 * (n as u64) && t_restored <= 4,
            "{t_stripped} vs {t_restored} transfers"
        );
        assert!(
            e_restored < e_stripped / 10.0,
            "region insertion must dominate: {e_stripped} -> {e_restored}"
        );
        // Functional results stay identical.
        let a0 = paccport_kernels::diag_dominant_matrix(32, 3);
        let frc = RunConfig::functional(vec![("n".into(), 32.0)])
            .with_input("a", paccport_devsim::Buffer::F32(a0.clone()));
        let rs = run(&compile(CompilerId::Caps, &stripped, &o).unwrap(), &frc).unwrap();
        let rr = run(&compile(CompilerId::Caps, &restored, &o).unwrap(), &frc).unwrap();
        assert_eq!(rs.host, rr.host);
    }

    use paccport_ir::Program;
}
