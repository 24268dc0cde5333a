//! Loop-carried dependence analysis (the basis of Step 1 of the
//! systematic optimization method, and of Table II of the paper).
//!
//! The analysis is deliberately conservative — exactly like the
//! analysis an application developer (or a 2014-era compiler) performs
//! before daring to write `#pragma acc loop independent`:
//!
//! * affine accesses (`a*i + b`, with coefficients that may carry one
//!   parameter factor, covering linearized `i*n + j`) are tested
//!   pairwise with a distance test;
//! * anything non-affine — indirect indexing (`cost[edges[i]]`, as in
//!   BFS), products of two loop variables, data-dependent indices —
//!   is reported as [`DepKind::Unknown`] and treated as a dependence.
//!
//! This conservatism is *load-bearing for the reproduction*: the paper
//! reports that `independent` could not be added to LUD "due to the
//! dependencies found in the loops", and that PGI refused to
//! parallelize BFS's irregular loop even with `independent` present.

use crate::expr::{to_affine, Expr};
use crate::kernel::{Kernel, KernelBody, ParallelLoop};
use crate::stmt::Block;
use crate::types::{ArrayId, MemSpace, VarId};

/// Classification of a potential loop-carried dependence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DepKind {
    /// Proven carried dependence with the given distance in iterations
    /// of the analyzed loop (e.g. `A[i] = A[i-1] + 1` has distance 1).
    Carried { array: ArrayId, distance: i64 },
    /// A pair of accesses the analysis cannot reason about
    /// (non-affine index, indirect addressing, …).
    Unknown { array: ArrayId, reason: String },
}

/// Result of analyzing one parallel loop level.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DepReport {
    pub deps: Vec<DepKind>,
}

impl DepReport {
    /// `true` iff the loop is safely parallel: no proven carried
    /// dependences and no unanalyzable accesses.
    pub fn is_independent(&self) -> bool {
        self.deps.is_empty()
    }

    /// `true` iff only `Unknown` entries are present — the loop *may*
    /// be parallel, but a conservative tool will not assert it.
    pub fn only_unknown(&self) -> bool {
        !self.deps.is_empty()
            && self
                .deps
                .iter()
                .all(|d| matches!(d, DepKind::Unknown { .. }))
    }
}

struct Access<'a> {
    array: ArrayId,
    index: &'a Expr,
    is_write: bool,
}

fn collect_accesses<'a>(block: &'a Block, out: &mut Vec<Access<'a>>) {
    // Writes.
    let mut stores = Vec::new();
    block.collect_stores(&mut stores);
    for (space, array, index) in stores {
        if space == MemSpace::Global {
            out.push(Access {
                array,
                index,
                is_write: true,
            });
        }
    }
    // Reads: walk every expression, collecting loads.
    collect_reads(block, out);
}

fn collect_reads<'a>(block: &'a Block, out: &mut Vec<Access<'a>>) {
    use crate::stmt::Stmt;
    fn from_expr<'a>(e: &'a Expr, out: &mut Vec<Access<'a>>) {
        let mut loads = Vec::new();
        e.collect_loads(&mut loads);
        for (space, array, index) in loads {
            if space == MemSpace::Global {
                out.push(Access {
                    array,
                    index,
                    is_write: false,
                });
            }
        }
    }
    for s in &block.0 {
        match s {
            Stmt::Let { init, .. } => from_expr(init, out),
            Stmt::Assign { value, .. } => from_expr(value, out),
            Stmt::Store { index, value, .. } => {
                from_expr(index, out);
                from_expr(value, out);
            }
            Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                from_expr(cond, out);
                collect_reads(then_blk, out);
                collect_reads(else_blk, out);
            }
            Stmt::For { lo, hi, body, .. } => {
                from_expr(lo, out);
                from_expr(hi, out);
                collect_reads(body, out);
            }
            Stmt::Barrier => {}
            // Atomic updates synchronize — the update itself is not a
            // parallelization hazard — but the expressions still read.
            Stmt::Atomic { index, value, .. } => {
                from_expr(index, out);
                from_expr(value, out);
            }
        }
    }
}

/// Analyze whether iterations of the loop over `loop_var` may be
/// executed in parallel, given the kernel body `block`.
///
/// `inner_parallel_vars` lists loop variables *inside* this level
/// (including sequential inner loops); accesses whose affine forms
/// differ only in those variables are still compared — a pair like
/// `store A[i*n+j]` / `load A[k*n+j]` with distinct variable sets is
/// conservatively `Unknown`.
pub fn analyze_block(loop_var: VarId, block: &Block) -> DepReport {
    let mut accesses = Vec::new();
    collect_accesses(block, &mut accesses);

    let mut report = DepReport::default();
    let mut seen_unknown: std::collections::BTreeSet<ArrayId> = Default::default();
    let mut seen_carried: std::collections::BTreeSet<(ArrayId, i64)> = Default::default();

    for (ai, a) in accesses.iter().enumerate() {
        for b in accesses.iter().skip(ai) {
            if a.array != b.array || (!a.is_write && !b.is_write) {
                continue; // different arrays or read-read: no dependence
            }
            let array = a.array;
            let (fa, fb) = match (to_affine(a.index), to_affine(b.index)) {
                (Some(fa), Some(fb)) => (fa, fb),
                _ => {
                    if seen_unknown.insert(array) {
                        report.deps.push(DepKind::Unknown {
                            array,
                            reason: "non-affine index expression".into(),
                        });
                    }
                    continue;
                }
            };
            let ca = fa.coeff(loop_var);
            let cb = fb.coeff(loop_var);
            if ca != cb {
                // Accesses move at different rates w.r.t. the loop —
                // cannot be disproven with the distance test.
                if seen_unknown.insert(array) {
                    report.deps.push(DepKind::Unknown {
                        array,
                        reason: "loop coefficient mismatch".into(),
                    });
                }
                continue;
            }
            if ca.is_zero() {
                // Neither access moves with the loop, so every
                // iteration touches the same location. Any pair with a
                // write is a carried dependence — including a single
                // store statement paired with itself, because two
                // *different iterations* both execute it (the
                // `bfs_kernel2` stop-flag store: a lone loop-invariant
                // write the detector observes as a write-write race).
                // Read-read pairs were already filtered above.
                if fa == fb && seen_carried.insert((array, 0)) {
                    report.deps.push(DepKind::Carried { array, distance: 0 });
                }
                continue;
            }
            match fa.const_delta(&fb) {
                Some(0) => {
                    // Same location in the same iteration: fine.
                }
                Some(delta) if delta % ca.k == 0 && ca.param.is_none() => {
                    let distance = delta / ca.k;
                    if seen_carried.insert((array, distance)) {
                        report.deps.push(DepKind::Carried { array, distance });
                    }
                }
                Some(_) => {
                    // Delta not a multiple of the stride: accesses hit
                    // disjoint residue classes — independent.
                }
                None => {
                    // Forms differ in other variables/parameters:
                    // conservatively unknown.
                    if seen_unknown.insert(array) {
                        report.deps.push(DepKind::Unknown {
                            array,
                            reason: "index forms differ in other variables".into(),
                        });
                    }
                }
            }
        }
    }
    report
}

/// Analyze one parallel-loop level of a kernel.
pub fn analyze_loop(kernel: &Kernel, level: usize) -> DepReport {
    let lp: &ParallelLoop = &kernel.loops[level];
    match &kernel.body {
        KernelBody::Simple(b) => analyze_block(lp.var, b),
        KernelBody::Grouped(_) => {
            // Hand-written work-group kernels synchronize explicitly;
            // treat the global loop as independent by construction.
            DepReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::stmt::Stmt;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    /// Table II, left column: `for i: A[i] = A[i-1] + 1` — dependent.
    #[test]
    fn table2_dependent_loop() {
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: Expr::var(v(0)),
            value: Expr::bin(
                BinOp::Add,
                Expr::load(
                    ArrayId(0),
                    Expr::bin(BinOp::Sub, Expr::var(v(0)), Expr::iconst(1)),
                ),
                Expr::fconst(1.0),
            ),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(!r.is_independent());
        assert!(r
            .deps
            .iter()
            .any(|d| matches!(d, DepKind::Carried { distance, .. } if distance.abs() == 1)));
    }

    /// Table II, right column: `for i: A[i] = A[i] + 1` — independent.
    #[test]
    fn table2_independent_loop() {
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: Expr::var(v(0)),
            value: Expr::bin(
                BinOp::Add,
                Expr::load(ArrayId(0), Expr::var(v(0))),
                Expr::fconst(1.0),
            ),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(r.is_independent(), "got {:?}", r);
    }

    /// BFS-style indirect store: `cost[edges[i]] = ...` — unknown.
    #[test]
    fn indirect_access_is_unknown() {
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: Expr::load(ArrayId(1), Expr::var(v(0))),
            value: Expr::fconst(0.0),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(!r.is_independent());
        assert!(r.only_unknown());
    }

    /// LUD-style mixed-variable pair: store `A[i*n+j]`, load `A[k*n+j]`
    /// (k a free variable) — conservatively unknown w.r.t. loop `i`.
    #[test]
    fn lud_style_pair_is_conservatively_dependent() {
        use crate::types::ParamId;
        let n = ParamId(0);
        let i = v(0);
        let j = v(1);
        let k = v(2);
        let idx = |row: VarId| {
            Expr::bin(
                BinOp::Add,
                Expr::bin(BinOp::Mul, Expr::var(row), Expr::param(n)),
                Expr::var(j),
            )
        };
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: idx(i),
            value: Expr::load(ArrayId(0), idx(k)),
        }]);
        let r = analyze_block(i, &body);
        assert!(!r.is_independent());
        assert!(r.only_unknown());
    }

    /// Reduction into a loop-invariant location is a carried
    /// dependence (distance 0 classification).
    #[test]
    fn scalar_accumulation_is_carried() {
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: Expr::iconst(0),
            value: Expr::bin(
                BinOp::Add,
                Expr::load(ArrayId(0), Expr::iconst(0)),
                Expr::var(v(0)),
            ),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(!r.is_independent());
        assert!(r
            .deps
            .iter()
            .any(|d| matches!(d, DepKind::Carried { distance: 0, .. })));
    }

    /// Writes to `A[2i]` with reads of `A[2i+1]`: disjoint residue
    /// classes — independent.
    #[test]
    fn strided_disjoint_accesses_are_independent() {
        let two_i = Expr::bin(BinOp::Mul, Expr::iconst(2), Expr::var(v(0)));
        let body = Block::new(vec![Stmt::Store {
            space: MemSpace::Global,
            array: ArrayId(0),
            index: two_i.clone(),
            value: Expr::load(ArrayId(0), Expr::bin(BinOp::Add, two_i, Expr::iconst(1))),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(r.is_independent(), "got {:?}", r);
    }

    /// A store buried in a sequential inner `For` body is still a
    /// hazard of the enclosing parallel loop: `for i: for k:
    /// A[i+1] = A[i]` carries distance 1.
    #[test]
    fn store_inside_sequential_inner_loop_is_analyzed() {
        let i = v(0);
        let k = v(1);
        let body = Block::new(vec![Stmt::For {
            var: k,
            lo: Expr::iconst(0),
            hi: Expr::iconst(4),
            step: 1,
            body: Block::new(vec![Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(0),
                index: Expr::bin(BinOp::Add, Expr::var(i), Expr::iconst(1)),
                value: Expr::load(ArrayId(0), Expr::var(i)),
            }]),
        }]);
        let r = analyze_block(i, &body);
        assert!(!r.is_independent());
        assert!(r
            .deps
            .iter()
            .any(|d| matches!(d, DepKind::Carried { distance, .. } if distance.abs() == 1)));
    }

    /// Accumulating into the iteration's own slot from inside a
    /// sequential inner loop (`for i: for k: A[i] += B[k]`) is
    /// independent w.r.t. the parallel loop.
    #[test]
    fn per_iteration_accumulation_in_inner_loop_is_independent() {
        let i = v(0);
        let k = v(1);
        let body = Block::new(vec![Stmt::For {
            var: k,
            lo: Expr::iconst(0),
            hi: Expr::iconst(4),
            step: 1,
            body: Block::new(vec![Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(0),
                index: Expr::var(i),
                value: Expr::bin(
                    BinOp::Add,
                    Expr::load(ArrayId(0), Expr::var(i)),
                    Expr::load(ArrayId(1), Expr::var(k)),
                ),
            }]),
        }]);
        let r = analyze_block(i, &body);
        assert!(r.is_independent(), "got {r:?}");
    }

    /// Atomic updates synchronize: a histogram-style kernel whose only
    /// write is `atomic hist[0] += x[i]` is reported independent.
    #[test]
    fn atomic_only_updates_are_independent() {
        use crate::kernel::ReduceOp;
        let body = Block::new(vec![Stmt::Atomic {
            op: ReduceOp::Add,
            array: ArrayId(0),
            index: Expr::iconst(0),
            value: Expr::load(ArrayId(1), Expr::var(v(0))),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(r.is_independent(), "got {r:?}");
    }

    /// …but the atomic's index/value expressions still *read*: a load
    /// of `A[i+1]` inside an atomic pairs with a plain store of `A[i]`
    /// into a carried dependence.
    #[test]
    fn atomic_operands_are_read_collected() {
        use crate::kernel::ReduceOp;
        let i = v(0);
        let body = Block::new(vec![
            Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(0),
                index: Expr::var(i),
                value: Expr::fconst(1.0),
            },
            Stmt::Atomic {
                op: ReduceOp::Add,
                array: ArrayId(1),
                index: Expr::iconst(0),
                value: Expr::load(
                    ArrayId(0),
                    Expr::bin(BinOp::Add, Expr::var(i), Expr::iconst(1)),
                ),
            },
        ]);
        let r = analyze_block(i, &body);
        assert!(!r.is_independent());
        assert!(r.deps.iter().any(
            |d| matches!(d, DepKind::Carried { array: ArrayId(0), distance } if distance.abs() == 1)
        ));
    }

    /// A single loop-invariant store (BFS's `stop[0] = 1`) conflicts
    /// with *itself* across iterations: two different iterations both
    /// write the same location. Found by the dynamic race detector —
    /// the old analysis only compared distinct store statements, so a
    /// lone flag store was silently "proven" independent.
    #[test]
    fn lone_loop_invariant_store_is_carried() {
        let i = v(0);
        // if (mask[i] != 0) { stop[0] = 1 }
        let body = Block::new(vec![Stmt::If {
            cond: Expr::cmp(
                crate::expr::CmpOp::Ne,
                Expr::load(ArrayId(0), Expr::var(i)),
                Expr::iconst(0),
            ),
            then_blk: Block::new(vec![Stmt::Store {
                space: MemSpace::Global,
                array: ArrayId(1),
                index: Expr::iconst(0),
                value: Expr::iconst(1),
            }]),
            else_blk: Block::new(vec![]),
        }]);
        let r = analyze_block(i, &body);
        assert!(!r.is_independent());
        assert!(r.deps.iter().any(|d| matches!(
            d,
            DepKind::Carried {
                array: ArrayId(1),
                distance: 0
            }
        )));
    }

    /// Read-read pairs never constitute a dependence.
    #[test]
    fn read_only_kernels_are_independent() {
        let body = Block::new(vec![Stmt::Let {
            var: v(5),
            ty: crate::types::Scalar::F32,
            init: Expr::bin(
                BinOp::Add,
                Expr::load(ArrayId(0), Expr::var(v(0))),
                Expr::load(
                    ArrayId(0),
                    Expr::bin(BinOp::Add, Expr::var(v(0)), Expr::iconst(1)),
                ),
            ),
        }]);
        let r = analyze_block(v(0), &body);
        assert!(r.is_independent());
    }
}
