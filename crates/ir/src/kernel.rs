//! Kernels: OpenACC compute regions with their parallel loop nests.

use crate::expr::Expr;
use crate::stmt::{Block, Stmt};
use crate::types::{ArrayId, LocalArrayDecl, MemSpace, Scalar, VarId};
use std::collections::BTreeSet;

/// Reduction operators supported by the `reduction(op: var)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Add,
    Max,
    Min,
}

impl ReduceOp {
    /// Identity element of the reduction (f64 view; narrowed on use).
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Add => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// A `reduction(op: var)` clause attached to a sequential inner loop
/// that a compiler may parallelize with a shared-memory tree (Fig. 13
/// of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    pub op: ReduceOp,
    /// The accumulator scalar (must be a `Let` local of the body).
    pub acc: VarId,
}

/// OpenACC 2.0 `device_type` targets (Section II-B, feature 4: set
/// "different gang/worker/vector for NVIDIA GPU and AMD GPU").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccDeviceType {
    Nvidia,
    Radeon,
    XeonPhi,
}

impl AccDeviceType {
    pub fn spelling(self) -> &'static str {
        match self {
            AccDeviceType::Nvidia => "nvidia",
            AccDeviceType::Radeon => "radeon",
            AccDeviceType::XeonPhi => "xeonphi",
        }
    }
}

/// One `device_type(<dev>) gang(g) worker(w) vector(v)` override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceTypeClause {
    pub device: AccDeviceType,
    pub gang: Option<u32>,
    pub worker: Option<u32>,
    pub vector: Option<u32>,
}

/// Per-loop OpenACC clauses (Section II-B / III of the paper).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LoopClauses {
    /// `#pragma acc loop independent` — the programmer asserts no
    /// loop-carried dependence (Step 1 of the systematic method).
    pub independent: bool,
    /// `gang(n)` — requested gang count (thread blocks / global work).
    pub gang: Option<u32>,
    /// `worker(n)` — requested workers per gang.
    pub worker: Option<u32>,
    /// `vector(n)` — requested vector lanes.
    pub vector: Option<u32>,
    /// `tile(n)` — OpenACC 2.0 tiling clause (Step 4).
    pub tile: Option<u32>,
    /// HMPP-style `unroll(n), jam` request (Step 3, CAPS only;
    /// PGI uses the `-Munroll` flag instead).
    pub unroll_jam: Option<u32>,
    /// `device_type(...)` overrides (OpenACC 2.0): per-device
    /// gang/worker/vector replacing the defaults above when the
    /// compile target matches.
    pub device_overrides: Vec<DeviceTypeClause>,
}

impl LoopClauses {
    pub fn independent() -> Self {
        LoopClauses {
            independent: true,
            ..Default::default()
        }
    }

    /// True when the programmer requested an explicit distribution.
    pub fn has_explicit_distribution(&self) -> bool {
        self.gang.is_some() || self.worker.is_some() || self.vector.is_some()
    }

    /// The clauses in effect for a compile target: the base values
    /// overridden by a matching `device_type` clause, if any.
    pub fn for_device(&self, device: AccDeviceType) -> LoopClauses {
        let mut out = self.clone();
        if let Some(o) = self.device_overrides.iter().find(|o| o.device == device) {
            if o.gang.is_some() {
                out.gang = o.gang;
            }
            if o.worker.is_some() {
                out.worker = o.worker;
            }
            if o.vector.is_some() {
                out.vector = o.vector;
            }
        }
        out
    }
}

/// One level of a parallelizable loop nest.
///
/// Bounds may reference program parameters, host loop variables and
/// *outer* parallel loop variables (triangular nests, as in Gaussian
/// elimination's `for i in t+1..n`).
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelLoop {
    pub var: VarId,
    pub lo: Expr,
    pub hi: Expr,
    pub clauses: LoopClauses,
}

impl ParallelLoop {
    pub fn new(var: VarId, lo: Expr, hi: Expr) -> Self {
        ParallelLoop {
            var,
            lo,
            hi,
            clauses: LoopClauses::default(),
        }
    }
}

/// Work-group ("staged") kernel body used by the hand-written OpenCL
/// comparison versions and by reduction lowering.
///
/// Execution model: the global index space is split into groups of
/// `group_size` threads. Each `phase` is executed by every thread of a
/// group before any thread proceeds to the next phase — i.e. there is
/// an implicit work-group barrier between phases (CUDA
/// `__syncthreads()`). Local arrays live per group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedBody {
    pub group_size: u32,
    pub locals: Vec<LocalArrayDecl>,
    pub phases: Vec<Block>,
}

/// The body of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelBody {
    /// Per-iteration body indexed by the parallel loop variables.
    Simple(Block),
    /// Work-group SPMD body with local memory and barriers.
    Grouped(GroupedBody),
}

/// Launch-shape information that is part of the *source* for
/// hand-written OpenCL kernels (`clEnqueueNDRangeKernel` arguments):
/// the local work size, whether the range is two-dimensional, and
/// whether each work-group cooperates on a single outer iteration
/// (reduction-style kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchHint {
    pub local: (u32, u32),
    pub two_d: bool,
    pub group_per_iter: bool,
}

/// A compute region: `#pragma acc parallel`/`kernels` around a loop
/// nest.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    pub name: String,
    /// Outermost-first parallel loops. At least one.
    pub loops: Vec<ParallelLoop>,
    pub body: KernelBody,
    /// Locals that must be declared before interpretation (collected
    /// from `Let` statements during validation; kept for printing).
    pub locals: Vec<(VarId, Scalar)>,
    /// A reduction over the *parallel* iteration space writing a
    /// scalar result (e.g. Hydro's Courant number, BP's weight sums).
    /// The reduced value is stored to `result_array[0]`.
    pub region_reduction: Option<RegionReduction>,
    /// `#pragma acc parallel reduction` requested on the inner
    /// accumulation loop (Step V-D2 of the paper, Back Propagation).
    /// Compilers attempt the shared-memory tree lowering when set.
    pub reduction: Option<Reduction>,
    /// OpenCL NDRange information (hand-written kernels only).
    pub launch_hint: Option<LaunchHint>,
}

/// Reduction over the whole parallel iteration space of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionReduction {
    pub op: ReduceOp,
    /// Value produced by each iteration (evaluated after the body, so
    /// it may reference body locals).
    pub value: Expr,
    /// Destination array (length ≥ 1); element 0 receives the result.
    pub dest: ArrayId,
}

impl Kernel {
    pub fn simple(name: impl Into<String>, loops: Vec<ParallelLoop>, body: Block) -> Self {
        Kernel {
            name: name.into(),
            loops,
            body: KernelBody::Simple(body),
            locals: Vec::new(),
            region_reduction: None,
            reduction: None,
            launch_hint: None,
        }
    }

    /// Dimensionality of the parallel index space.
    pub fn rank(&self) -> usize {
        self.loops.len()
    }

    /// Whether any loop in the nest carries the `independent` clause.
    pub fn any_independent(&self) -> bool {
        self.loops.iter().any(|l| l.clauses.independent)
    }

    /// Whether the body uses work-group local memory.
    pub fn uses_local_memory(&self) -> bool {
        match &self.body {
            KernelBody::Grouped(g) => !g.locals.is_empty(),
            KernelBody::Simple(b) => {
                let mut uses = false;
                b.walk(&mut |s| {
                    if matches!(
                        s,
                        Stmt::Store {
                            space: MemSpace::Local,
                            ..
                        }
                    ) {
                        uses = true;
                    }
                });
                uses
            }
        }
    }

    /// The body's blocks: the simple body, or every phase in order.
    pub fn blocks(&self) -> &[Block] {
        match &self.body {
            KernelBody::Simple(b) => std::slice::from_ref(b),
            KernelBody::Grouped(g) => &g.phases,
        }
    }

    /// Mutable view of [`Kernel::blocks`].
    pub fn blocks_mut(&mut self) -> &mut [Block] {
        match &mut self.body {
            KernelBody::Simple(b) => std::slice::from_mut(b),
            KernelBody::Grouped(g) => &mut g.phases,
        }
    }

    /// Pre-order walk over every sub-expression of the kernel: each
    /// loop level's `lo` then `hi`, then the blocks (statements in
    /// pre-order), then the region-reduction value.
    pub fn walk_exprs(&self, f: &mut impl FnMut(&Expr)) {
        for lp in &self.loops {
            lp.lo.walk(f);
            lp.hi.walk(f);
        }
        for b in self.blocks() {
            b.walk_exprs(f);
        }
        if let Some(rr) = &self.region_reduction {
            rr.value.walk(f);
        }
    }

    /// The global arrays the kernel reads and writes, each set in
    /// ascending id order. Reads are global loads anywhere (bounds and
    /// the reduction value included); writes are global stores,
    /// atomics and the region reduction's destination.
    pub fn global_reads_writes(&self) -> (BTreeSet<ArrayId>, BTreeSet<ArrayId>) {
        let mut reads = BTreeSet::new();
        self.walk_exprs(&mut |e| {
            if let Expr::Load {
                space: MemSpace::Global,
                array,
                ..
            } = e
            {
                reads.insert(*array);
            }
        });
        let mut writes = BTreeSet::new();
        for b in self.blocks() {
            b.walk(&mut |s| {
                if let Stmt::Store {
                    space: MemSpace::Global,
                    array,
                    ..
                }
                | Stmt::Atomic { array, .. } = s
                {
                    writes.insert(*array);
                }
            });
        }
        writes.extend(self.region_reduction.as_ref().map(|rr| rr.dest));
        (reads, writes)
    }

    /// Every global array the kernel touches, in ascending id order:
    /// the union of [`Kernel::global_reads_writes`].
    pub fn global_arrays(&self) -> BTreeSet<ArrayId> {
        let (mut arrays, writes) = self.global_reads_writes();
        arrays.extend(writes);
        arrays
    }

    /// The simple-body block, if this is a simple kernel.
    pub fn simple_body(&self) -> Option<&Block> {
        match &self.body {
            KernelBody::Simple(b) => Some(b),
            KernelBody::Grouped(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_identities() {
        assert_eq!(ReduceOp::Add.identity(), 0.0);
        assert_eq!(ReduceOp::Max.combine(ReduceOp::Max.identity(), 3.0), 3.0);
        assert_eq!(ReduceOp::Min.combine(ReduceOp::Min.identity(), -3.0), -3.0);
    }

    #[test]
    fn clauses_distribution_detection() {
        let mut c = LoopClauses::independent();
        assert!(c.independent);
        assert!(!c.has_explicit_distribution());
        c.gang = Some(256);
        assert!(c.has_explicit_distribution());
    }

    #[test]
    fn kernel_rank_and_local_memory() {
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(
                VarId(0),
                Expr::iconst(0),
                Expr::iconst(8),
            )],
            Block::new(vec![Stmt::Store {
                space: MemSpace::Local,
                array: ArrayId(0),
                index: Expr::iconst(0),
                value: Expr::fconst(0.0),
            }]),
        );
        assert_eq!(k.rank(), 1);
        assert!(k.uses_local_memory());
        assert!(!k.any_independent());
    }
}
