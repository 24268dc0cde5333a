//! The experiment-server request model: naming, expansion and
//! execution of matrix cells on behalf of `reproduce serve`.
//!
//! An experiment request is the tuple
//! `(benchmark × variant × target × scale × seed)`. The first three
//! coordinates name cells of the same functional benchmark matrix the
//! soundness check sweeps ([`crate::experiments::soundness_cells`]),
//! so the server's surface is exactly the study's surface — every
//! cell the paper measures is addressable over HTTP, and nothing
//! else. `benchmark`, `variant` and `target` each accept `*` as a
//! wildcard, expanding to every matching cell in matrix submission
//! order (which is what keeps multi-cell responses byte-identical at
//! any engine `--jobs` level).
//!
//! Execution is deterministic per `(request, seed)`: the seed is
//! folded into the cell's fault-injection scope, so under `--inject`
//! the same request with the same seed makes exactly the same fault
//! decisions every time — and without injection the modeled results
//! are pure functions of the cell to begin with.

use paccport_compilers::ArtifactCache;
use paccport_devsim::{run, Buffer};
use paccport_trace::hash::{fnv1a64, FNV_BASIS};
use std::sync::{Arc, Mutex, PoisonError};

use crate::study::{CheckCell, Scale};

/// Parse a scale name the way the `reproduce` CLI does.
pub fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "smoke" => Some(Scale::smoke()),
        "quick" => Some(Scale::quick()),
        "paper" => Some(Scale::paper()),
        _ => None,
    }
}

/// Every cell of the functional matrix at `scale`, in submission
/// order. This is the server's entire address space.
pub fn matrix(scale: &Scale) -> Vec<CheckCell> {
    built_matrix(scale).to_vec()
}

/// The matrix at `scale`, built once per process.
fn built_matrix(scale: &Scale) -> Arc<Vec<CheckCell>> {
    type Built = (Scale, Arc<Vec<CheckCell>>);
    static BUILT: Mutex<Vec<Built>> = Mutex::new(Vec::new());
    let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some((_, cells)) = built.iter().find(|(k, _)| k == scale) {
        return Arc::clone(cells);
    }
    let cells = Arc::new(crate::experiments::soundness_cells(scale));
    built.push((*scale, Arc::clone(&cells)));
    cells
}

/// Case-insensitive coordinate match, with `*` (or empty) as a
/// wildcard.
fn coord_matches(pattern: &str, value: &str) -> bool {
    pattern.is_empty() || pattern == "*" || pattern.eq_ignore_ascii_case(value)
}

/// Expand `(benchmark, variant, target)` against the matrix at
/// `scale`. Returns matching cells in matrix submission order; an
/// empty result means at least one coordinate named nothing.
pub fn expand(scale: &Scale, benchmark: &str, variant: &str, target: &str) -> Vec<CheckCell> {
    built_matrix(scale)
        .iter()
        .filter(|c| {
            coord_matches(benchmark, &c.benchmark)
                && coord_matches(variant, &c.variant)
                && coord_matches(target, &c.series)
        })
        .cloned()
        .collect()
}

/// Sorted, deduplicated values of one matrix coordinate — the
/// vocabulary quoted back in "unknown benchmark/variant/target" error
/// messages so they are actionable.
pub fn coordinate_values(scale: &Scale, pick: impl Fn(&CheckCell) -> &String) -> Vec<String> {
    let mut vals: Vec<String> = built_matrix(scale)
        .iter()
        .map(|c| pick(c).clone())
        .collect();
    vals.sort();
    vals.dedup();
    vals
}

/// The deterministic result of running one cell for a request.
///
/// Everything here is a pure function of `(cell, seed)`: modeled
/// timings come from the analytic device model, counts from the
/// simulator's ledgers, and `checksum` fingerprints the final host
/// buffers bit-for-bit — the field loadgen uses to prove responses
/// byte-identical across runs and job counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    pub benchmark: String,
    pub variant: String,
    pub target: String,
    /// Total modeled wall time (seconds).
    pub seconds: f64,
    pub kernel_seconds: f64,
    pub transfer_seconds: f64,
    pub launches: u64,
    pub h2d: u64,
    pub d2h: u64,
    pub on_device: bool,
    pub while_iterations: u64,
    /// FNV-1a over the bit patterns of every final host buffer.
    pub checksum: u64,
}

/// FNV-1a-64 over the exact bit patterns of the final host buffers —
/// element type, length and every element's bits all contribute, so
/// two runs collide only if they produced identical memory.
pub fn buffers_checksum(buffers: &[Buffer]) -> u64 {
    let mut h = FNV_BASIS;
    let mut eat = |b: u64| h = fnv1a64(&b.to_le_bytes(), h);
    for buf in buffers {
        match buf {
            Buffer::F32(v) => {
                eat(0x1000_0000 | v.len() as u64);
                v.iter().for_each(|x| eat(x.to_bits() as u64));
            }
            Buffer::F64(v) => {
                eat(0x2000_0000 | v.len() as u64);
                v.iter().for_each(|x| eat(x.to_bits()));
            }
            Buffer::I32(v) => {
                eat(0x3000_0000 | v.len() as u64);
                v.iter().for_each(|x| eat(*x as u32 as u64));
            }
            Buffer::U32(v) => {
                eat(0x4000_0000 | v.len() as u64);
                v.iter().for_each(|x| eat(*x as u64));
            }
            Buffer::Bool(v) => {
                eat(0x5000_0000 | v.len() as u64);
                v.iter().for_each(|x| eat(*x as u64));
            }
        }
    }
    h
}

/// The fault-injection scope for one `(cell, seed)` execution: folds
/// the request seed in so chaos decisions are per-seed deterministic
/// and distinct seeds explore distinct fault schedules.
pub fn cell_fault_scope(cell: &CheckCell, seed: u64) -> String {
    format!(
        "serve/{}/{}/{}/s{seed}",
        cell.benchmark, cell.variant, cell.series
    )
}

/// Compile (through the shared cache) and functionally run one cell,
/// producing its deterministic [`CellOutcome`].
pub fn run_cell(cache: &ArtifactCache, cell: &CheckCell, seed: u64) -> Result<CellOutcome, String> {
    let _g = paccport_trace::span("serve.run_cell");
    let c = cache
        .compile(cell.compiler, &cell.program, &cell.options)
        .map_err(|e| e.to_string())?;
    let mut cfg = cell.cfg.clone();
    cfg.fault_scope = Some(cell_fault_scope(cell, seed));
    let r = run(&c, &cfg)?;
    Ok(CellOutcome {
        benchmark: cell.benchmark.clone(),
        variant: cell.variant.clone(),
        target: cell.series.clone(),
        seconds: r.elapsed,
        kernel_seconds: r.kernel_time,
        transfer_seconds: r.transfer_time_s,
        launches: r.kernel_stats.iter().map(|s| s.launches).sum(),
        h2d: r.transfers.h2d_count,
        d2h: r.transfers.d2h_count,
        on_device: r.kernel_stats.iter().all(|s| s.ran_on_device),
        while_iterations: r.while_iterations,
        checksum: buffers_checksum(&r.host),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_coordinates_select_one_cell() {
        let scale = Scale::smoke();
        let cells = expand(&scale, "LUD", "Base", "CAPS-CUDA-K40");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].benchmark, "LUD");
        // Case-insensitive.
        let cells = expand(&scale, "lud", "base", "caps-cuda-k40");
        assert_eq!(cells.len(), 1);
    }

    #[test]
    fn wildcards_expand_in_matrix_order() {
        let scale = Scale::smoke();
        let all = expand(&scale, "*", "*", "*");
        let full = matrix(&scale);
        assert_eq!(all.len(), full.len());
        assert!(all.len() > 40, "the full matrix is addressable");
        let labels: Vec<String> = all.iter().map(|c| c.label()).collect();
        let want: Vec<String> = full.iter().map(|c| c.label()).collect();
        assert_eq!(labels, want, "expansion preserves submission order");
        let luds = expand(&scale, "LUD", "*", "*");
        assert!(luds.iter().all(|c| c.benchmark == "LUD"));
        assert!(luds.len() >= 12, "4 variants x 3 targets");
    }

    #[test]
    fn unknown_coordinates_expand_to_nothing() {
        let scale = Scale::smoke();
        assert!(expand(&scale, "NOPE", "*", "*").is_empty());
        assert!(expand(&scale, "LUD", "NOPE", "*").is_empty());
        assert!(expand(&scale, "LUD", "Base", "NOPE").is_empty());
        let benches = coordinate_values(&scale, |c| &c.benchmark);
        assert!(benches.contains(&"LUD".to_string()));
        assert!(benches.contains(&"Hydro".to_string()));
    }

    #[test]
    fn run_cell_is_deterministic_and_checksummed() {
        let scale = Scale::smoke();
        let cell = &expand(&scale, "GE", "Indep", "CAPS-CUDA-K40")[0];
        let cache = ArtifactCache::new();
        let a = run_cell(&cache, cell, 7).unwrap();
        let b = run_cell(&cache, cell, 7).unwrap();
        assert_eq!(a, b, "same (cell, seed) => identical outcome");
        assert!(a.seconds > 0.0);
        assert!(a.launches > 0);
        assert_ne!(a.checksum, 0);
        // A different cell produces different memory.
        let other = &expand(&scale, "GE", "Base", "CAPS-CUDA-K40")[0];
        let c = run_cell(&cache, other, 7).unwrap();
        assert_eq!(
            a.checksum, c.checksum,
            "GE Base and Indep compute the same answer (variants are semantics-preserving)"
        );
    }

    #[test]
    fn buffer_checksums_see_every_bit() {
        let a = buffers_checksum(&[Buffer::F32(vec![1.0, 2.0])]);
        let b = buffers_checksum(&[Buffer::F32(vec![1.0, 2.0000002])]);
        let c = buffers_checksum(&[Buffer::F64(vec![1.0, 2.0])]);
        let d = buffers_checksum(&[Buffer::F32(vec![2.0, 1.0])]);
        assert_ne!(a, b);
        assert_ne!(a, c, "element type is part of the fingerprint");
        assert_ne!(a, d, "order is part of the fingerprint");
        assert_eq!(a, buffers_checksum(&[Buffer::F32(vec![1.0, 2.0])]));
    }
}
