//! Compilation artifacts: plans, cost trees, launch shapes and the
//! compiled program bundle.

use crate::options::{CompileOptions, CompilerId};
use paccport_ir::{Expr, VarId};
use paccport_ptx::{CategoryCounts, PtxModule};

/// How a kernel's parallel iteration space is distributed over device
/// threads — the *thread distribution* at the centre of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistSpec {
    /// One thread executes everything (the CAPS `gang(1), worker(1)`
    /// default-distribution bug, or any fully serialized kernel).
    Sequential,
    /// CAPS gang mode: Table VI row "Gang mode" — grid `[gang,1,1]`,
    /// block `[1,worker,1]`; threads stride over the iteration space.
    GangWorker { gang: u32, worker: u32 },
    /// CAPS gridify, one grid dimension for a single loop:
    /// grid `[ceil(n / (bx·by)), 1, 1]`, block `[bx, by, 1]`.
    Gridify1D { bx: u32, by: u32 },
    /// CAPS gridify, two grid dimensions for nested loops:
    /// grid `[ceil(n1/bx), ceil(n0/by), 1]`, block `[bx, by, 1]`.
    Gridify2D { bx: u32, by: u32 },
    /// PGI's automatic one-dimensional distribution: block
    /// `[vector,1,1]` (vector = 128 by default), grid sized from the
    /// outer loop; inner loops run sequentially inside each thread.
    PgiAuto { vector: u32 },
    /// Hand-written OpenCL NDRange with a fixed local size; global
    /// size is the extent rounded up to a multiple of the local size
    /// (`two_d` selects a 2-D range for nested loops).
    NdRange { lx: u32, ly: u32, two_d: bool },
    /// Work-group execution for grouped (local-memory) kernels:
    /// `extent` global threads in groups of `group_size`.
    Grouped { group_size: u32 },
    /// One work-group *per parallel iteration* (reduction kernels:
    /// every group of `group_size` threads cooperates on a single
    /// outer iteration, as in the Fig. 13 tree reduction).
    GroupedPerIter { group_size: u32 },
}

/// Concrete launch dimensions for one launch, after the loop extents
/// are known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchDims {
    pub grid: [u32; 3],
    pub block: [u32; 3],
}

impl LaunchDims {
    pub fn total_threads(&self) -> u64 {
        self.grid.iter().map(|v| *v as u64).product::<u64>()
            * self.block.iter().map(|v| *v as u64).product::<u64>()
    }

    pub fn threads_per_block(&self) -> u32 {
        self.block.iter().product()
    }

    /// `BXxBY`-style display used in the paper's figure captions
    /// ("Thread 32x4", "128x1", "1x1").
    pub fn thread_label(&self) -> String {
        format!("{}x{}", self.block[0].max(1), self.block[1].max(1))
    }
}

fn ceil_div(a: u64, b: u64) -> u32 {
    (a.div_ceil(b.max(1))).min(u32::MAX as u64) as u32
}

impl DistSpec {
    /// Compute launch dimensions from the evaluated parallel-loop
    /// extents (outermost first). Extents may be zero (empty launch).
    pub fn launch_dims(&self, extents: &[u64]) -> LaunchDims {
        let e0 = extents.first().copied().unwrap_or(0);
        let e1 = extents.get(1).copied().unwrap_or(1);
        match *self {
            DistSpec::Sequential => LaunchDims {
                grid: [1, 1, 1],
                block: [1, 1, 1],
            },
            DistSpec::GangWorker { gang, worker } => LaunchDims {
                grid: [gang, 1, 1],
                block: [1, worker, 1],
            },
            DistSpec::Gridify1D { bx, by } => LaunchDims {
                grid: [ceil_div(e0, bx as u64 * by as u64), 1, 1],
                block: [bx, by, 1],
            },
            DistSpec::Gridify2D { bx, by } => LaunchDims {
                grid: [ceil_div(e1, bx as u64), ceil_div(e0, by as u64), 1],
                block: [bx, by, 1],
            },
            DistSpec::PgiAuto { vector } => LaunchDims {
                grid: [ceil_div(e0, vector as u64).max(1), 1, 1],
                block: [vector, 1, 1],
            },
            DistSpec::NdRange { lx, ly, two_d } => {
                if two_d {
                    LaunchDims {
                        grid: [ceil_div(e1, lx as u64), ceil_div(e0, ly as u64), 1],
                        block: [lx, ly, 1],
                    }
                } else {
                    LaunchDims {
                        grid: [ceil_div(e0, lx as u64 * ly as u64), 1, 1],
                        block: [lx, ly, 1],
                    }
                }
            }
            DistSpec::Grouped { group_size } => LaunchDims {
                grid: [ceil_div(e0, group_size as u64), 1, 1],
                block: [group_size, 1, 1],
            },
            DistSpec::GroupedPerIter { group_size } => LaunchDims {
                grid: [e0.min(u32::MAX as u64) as u32, 1, 1],
                block: [group_size, 1, 1],
            },
        }
    }

    /// The launch dimensions when they ignore the extents (a serial
    /// launch, or CAPS gang mode's fixed grid), `None` otherwise.
    pub fn fixed_dims(&self) -> Option<LaunchDims> {
        matches!(self, DistSpec::Sequential | DistSpec::GangWorker { .. })
            .then(|| self.launch_dims(&[]))
    }

    /// Whether the distribution actually exploits parallelism.
    pub fn is_parallel(&self) -> bool {
        match *self {
            DistSpec::Sequential => false,
            DistSpec::GangWorker { gang, worker } => (gang as u64 * worker as u64) > 1,
            _ => true,
        }
    }
}

/// Where and how a kernel executes — discovered in the paper via
/// `PGI_ACC_TIME` and nvprof (the BFS "does not run on GPU" finding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecStrategy {
    /// Launched on the device with a parallel distribution.
    DeviceParallel,
    /// Launched on the device, but effectively one thread.
    DeviceSequential,
    /// Never launched: the host runs the loop nest sequentially.
    HostSequential,
}

/// Whether the compiled kernel computes correct results on the target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Correctness {
    Correct,
    /// Known-wrong on this target (CAPS `reduction` on MIC).
    Wrong {
        reason: String,
    },
}

/// A nested cost model for one kernel: per-parallel-iteration
/// instruction counts with loop and branch structure preserved, built
/// by the same emission pass that produces the PTX (so static counts
/// and dynamic estimates cannot drift apart).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostTree {
    /// Instructions executed once per visit of this tree, excluding
    /// children.
    pub flat: CategoryCounts,
    /// Global-memory transactions (`ld.global`/`st.global` only —
    /// `cvta` is counted in `flat` but moves no bytes) executed once
    /// per visit, excluding children.
    pub flat_ldst: u64,
    pub kids: Vec<CostNode>,
}

/// A child region of a [`CostTree`].
#[derive(Debug, Clone, PartialEq)]
pub enum CostNode {
    /// A sequential loop: `body` runs `max(0, hi-lo)/step` times, plus
    /// `overhead` (compare/branch/increment) per iteration.
    Loop {
        var: VarId,
        lo: Expr,
        hi: Expr,
        step: i64,
        overhead: CategoryCounts,
        body: CostTree,
    },
    /// A two-armed branch; the dynamic estimator weights the arms
    /// (default 0.5 unless the workload supplies a hint).
    Branch { then: CostTree, els: CostTree },
}

impl CostTree {
    /// Total static counts (every loop body and both branch arms
    /// counted once) — must match the PTX static counts of the body.
    pub fn static_counts(&self) -> CategoryCounts {
        let mut c = self.flat;
        for k in &self.kids {
            match k {
                CostNode::Loop { overhead, body, .. } => {
                    c += *overhead;
                    c += body.static_counts();
                }
                CostNode::Branch { then, els } => {
                    c += then.static_counts();
                    c += els.static_counts();
                }
            }
        }
        c
    }
}

/// A compiler diagnostic line, as printed during compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub kernel: String,
    pub message: String,
}

/// Host↔device data-movement policy the compiler settled on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferPolicy {
    /// Arrays stay resident on the device; movement only at region
    /// boundaries and explicit `update`s (PGI's hoisted schedule —
    /// Table VII "4 times in total").
    Resident,
    /// Inside dynamically-bounded host loops, written arrays are
    /// re-synchronized every iteration (CAPS — Table VII "3 times in
    /// each iteration").
    PerIteration,
}

/// Per-kernel compilation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelPlan {
    pub kernel: String,
    pub exec: ExecStrategy,
    pub dist: DistSpec,
    /// Per-thread setup cost (parameter loads, address setup, global
    /// index computation, bounds guard).
    pub prologue: CategoryCounts,
    /// Per-parallel-iteration body cost.
    pub cost: CostTree,
    pub correctness: Correctness,
    /// Figure-caption style thread configuration label ("32x4",
    /// "128x1", "256x16", "1x1").
    pub config_label: String,
    /// Slow-down multiplier for known performance bugs that do not
    /// show in the instruction stream (CAPS's reduction that emits
    /// shared-memory code but fails to speed anything up). 1.0 = none.
    pub perf_penalty: f64,
}

/// Everything a compiler produces for one program.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    pub compiler: CompilerId,
    pub options: CompileOptions,
    /// The (possibly transformed) program the device simulator runs:
    /// unrolling, tiling and reduction lowering are IR-to-IR, so the
    /// functional interpreter executes exactly what was compiled.
    pub program: paccport_ir::Program,
    /// PTX-like code, one kernel per compute region (stub bodies for
    /// host-fallback kernels, matching the paper's "few PTX
    /// instructions" observation for PGI's BFS).
    pub module: PtxModule,
    pub plans: Vec<KernelPlan>,
    pub diagnostics: Vec<Diagnostic>,
    pub transfers: TransferPolicy,
}

impl CompiledProgram {
    pub fn plan(&self, kernel: &str) -> Option<&KernelPlan> {
        self.plans.iter().find(|p| p.kernel == kernel)
    }
}

/// Compilation failure (e.g. PGI on Hydro's pointer-heavy headers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    pub compiler: CompilerId,
    pub message: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.compiler.label(), self.message)
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_ptx::Category;

    #[test]
    fn table6_gang_mode_shape() {
        // CAPS gang-mode default from Table VI: grid [192,1,1],
        // block [1,256,1].
        let d = DistSpec::GangWorker {
            gang: 192,
            worker: 256,
        };
        let l = d.launch_dims(&[4096]);
        assert_eq!(l.grid, [192, 1, 1]);
        assert_eq!(l.block, [1, 256, 1]);
        assert_eq!(l.total_threads(), 192 * 256);
    }

    /// `fixed_dims` is exactly the dimensions of every launch for the
    /// distributions that ignore the extents, and `None` for the rest.
    #[test]
    fn fixed_dims_ignore_every_extent() {
        let extents: [&[u64]; 5] = [&[], &[0], &[1], &[4096, 7], &[100, 200, 3]];
        for d in [
            DistSpec::Sequential,
            DistSpec::GangWorker {
                gang: 192,
                worker: 256,
            },
            DistSpec::Gridify1D { bx: 32, by: 4 },
            DistSpec::Gridify2D { bx: 32, by: 4 },
            DistSpec::PgiAuto { vector: 128 },
            DistSpec::NdRange {
                lx: 16,
                ly: 16,
                two_d: true,
            },
            DistSpec::Grouped { group_size: 64 },
            DistSpec::GroupedPerIter { group_size: 64 },
        ] {
            let all = extents.map(|e| d.launch_dims(e));
            let same = all.iter().all(|l| *l == all[0]);
            assert_eq!(d.fixed_dims(), same.then_some(all[0]), "{d:?}");
        }
    }

    #[test]
    fn table6_gridify_shapes() {
        // Gridify 1D on n=4096 with 32x4: grid [32,1,1], block [32,4,1].
        let d = DistSpec::Gridify1D { bx: 32, by: 4 };
        let l = d.launch_dims(&[4096]);
        assert_eq!(l.grid, [32, 1, 1]);
        assert_eq!(l.block, [32, 4, 1]);
        assert_eq!(l.thread_label(), "32x4");

        // Gridify 2D on 100x200 (outer=100, inner=200).
        let d = DistSpec::Gridify2D { bx: 32, by: 4 };
        let l = d.launch_dims(&[100, 200]);
        assert_eq!(l.grid, [200u32.div_ceil(32), 100u32.div_ceil(4), 1]);
        assert_eq!(l.block, [32, 4, 1]);
    }

    #[test]
    fn pgi_auto_is_128x1() {
        let d = DistSpec::PgiAuto { vector: 128 };
        let l = d.launch_dims(&[1000]);
        assert_eq!(l.block, [128, 1, 1]);
        assert_eq!(l.grid[0], 8);
        assert_eq!(l.thread_label(), "128x1");
    }

    #[test]
    fn sequential_is_1x1() {
        let l = DistSpec::Sequential.launch_dims(&[1 << 20]);
        assert_eq!(l.total_threads(), 1);
        assert_eq!(l.thread_label(), "1x1");
        assert!(!DistSpec::Sequential.is_parallel());
        assert!(!DistSpec::GangWorker { gang: 1, worker: 1 }.is_parallel());
        assert!(DistSpec::PgiAuto { vector: 128 }.is_parallel());
    }

    #[test]
    fn empty_extents_produce_empty_grid() {
        let d = DistSpec::Gridify1D { bx: 32, by: 4 };
        let l = d.launch_dims(&[0]);
        assert_eq!(l.grid[0], 0);
        assert_eq!(l.total_threads(), 0);
    }

    #[test]
    fn cost_tree_static_counts_sum_children() {
        let mut flat = CategoryCounts::default();
        flat.add_n(Category::Arithmetic, 2);
        let mut inner_flat = CategoryCounts::default();
        inner_flat.add_n(Category::GlobalMemory, 3);
        let mut overhead = CategoryCounts::default();
        overhead.add_n(Category::FlowControl, 2);
        let t = CostTree {
            flat,
            flat_ldst: 0,
            kids: vec![CostNode::Loop {
                var: VarId(0),
                lo: Expr::iconst(0),
                hi: Expr::iconst(10),
                step: 1,
                overhead,
                body: CostTree {
                    flat: inner_flat,
                    flat_ldst: 3,
                    kids: vec![],
                },
            }],
        };
        let c = t.static_counts();
        assert_eq!(c.get(Category::Arithmetic), 2);
        assert_eq!(c.get(Category::GlobalMemory), 3);
        assert_eq!(c.get(Category::FlowControl), 2);
    }
}
