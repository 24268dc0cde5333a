//! Whole programs: host control flow around kernel launches.

use crate::expr::Expr;
use crate::kernel::Kernel;
use crate::types::{ArrayDecl, ArrayId, ParamDecl, ParamId, Scalar, VarId};

/// Direction of an explicit `#pragma acc update` transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// `update device(...)` — host → device.
    ToDevice,
    /// `update host(...)` — device → host.
    ToHost,
}

/// Host-side statements. This mirrors the structure of the benchmark
/// `main()` functions: data regions, the sequential outer loops that
/// launch kernels per iteration (LUD's `k`, GE's `t`, Hydro's time
/// step), BFS's flag-controlled `while`, and scalar host bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub enum HostStmt {
    /// `#pragma acc data copyin/copyout/create(...) { body }`.
    /// Which arrays move in which direction follows their declared
    /// [`crate::types::Intent`].
    DataRegion {
        arrays: Vec<ArrayId>,
        body: Vec<HostStmt>,
    },
    /// Launch a compute region.
    Launch(Kernel),
    /// Sequential host loop `for (var = lo; var < hi; ++var)`.
    HostLoop {
        var: VarId,
        lo: Expr,
        hi: Expr,
        body: Vec<HostStmt>,
    },
    /// `do { body } while (flag[0] != 0)`, capped at `max_iters`
    /// (BFS's frontier loop). The flag is read from the *host* copy,
    /// so the body must `Update`-transfer it explicitly.
    WhileFlag {
        flag: ArrayId,
        max_iters: u32,
        body: Vec<HostStmt>,
    },
    /// Host scalar assignment. `Expr::Load` reads the host copy of an
    /// array (Hydro derives the time step from the reduced Courant
    /// number this way).
    HostAssign { var: VarId, ty: Scalar, value: Expr },
    /// Host-side array store (e.g. resetting BFS's stop flag).
    HostStore {
        array: ArrayId,
        index: Expr,
        value: Expr,
    },
    /// `#pragma acc update host/device(array)`.
    Update { array: ArrayId, dir: Dir },
    /// OpenACC 2.0 unstructured data regions (Section II-B, feature
    /// 2): begin a data lifetime that ends at a later `ExitData`,
    /// possibly in a different program scope.
    EnterData { arrays: Vec<ArrayId> },
    /// End an unstructured data lifetime (copy-out per intent).
    ExitData { arrays: Vec<ArrayId> },
    /// Host-side C work the IR does not model statement-by-statement
    /// (Hydro's boundary handling, transposes, …). `instr` evaluates
    /// to the approximate instruction count; the timing model divides
    /// by the host compiler's throughput (the GCC→ICC effect of
    /// Fig. 15). Functionally a no-op.
    HostCompute { label: String, instr: Expr },
}

impl HostStmt {
    /// Pre-order walk over nested host statements.
    pub fn walk(&self, f: &mut impl FnMut(&HostStmt)) {
        f(self);
        match self {
            HostStmt::DataRegion { body, .. }
            | HostStmt::HostLoop { body, .. }
            | HostStmt::WhileFlag { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }
}

/// A complete directive-annotated program: the unit the simulated
/// compilers compile and the device simulator runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub name: String,
    pub params: Vec<ParamDecl>,
    pub arrays: Vec<ArrayDecl>,
    pub body: Vec<HostStmt>,
    /// Human-readable names for every [`VarId`], indexed by id.
    /// Builders allocate ids monotonically; `var_names.len()` is the
    /// next free id.
    pub var_names: Vec<String>,
    /// Free-form source markers the simulated compilers react to,
    /// standing in for C-level properties the IR does not model
    /// (e.g. `"pointer-heavy-headers"` on Hydro, which makes the
    /// PGI personality fail to compile, as reported in the paper).
    pub tags: Vec<String>,
}

impl Program {
    /// Look up a parameter by name.
    pub fn param_id(&self, name: &str) -> Option<ParamId> {
        self.params
            .iter()
            .position(|p| p.name == name)
            .map(|i| ParamId(i as u32))
    }

    /// Look up an array by name.
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrayId(i as u32))
    }

    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    pub fn param(&self, id: ParamId) -> &ParamDecl {
        &self.params[id.0 as usize]
    }

    /// Human-readable name of a variable (falls back to `v<N>`).
    pub fn var_name(&self, id: VarId) -> String {
        self.var_names
            .get(id.0 as usize)
            .cloned()
            .unwrap_or_else(|| format!("v{}", id.0))
    }

    /// Iterate over every kernel in the program (in launch-site order,
    /// each kernel once even if its launch site is inside a loop).
    pub fn kernels(&self) -> Vec<&Kernel> {
        let mut out = Vec::new();
        collect_kernels(&self.body, &mut out);
        out
    }

    /// Find a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels().into_iter().find(|k| k.name == name)
    }

    /// Total number of distinct kernels.
    pub fn kernel_count(&self) -> usize {
        self.kernels().len()
    }

    /// Whether any statement opens an explicit data region.
    pub fn has_data_region(&self) -> bool {
        let mut found = false;
        for s in &self.body {
            s.walk(&mut |s| {
                if matches!(s, HostStmt::DataRegion { .. }) {
                    found = true;
                }
            });
        }
        found
    }

    /// Total IR statement count: every host statement (nested ones
    /// included) plus every kernel-body statement (nested `If`/`For`
    /// bodies included; all phases of a grouped body). This is the
    /// size metric shrunk conformance counterexamples are judged by.
    pub fn stmt_count(&self) -> usize {
        let mut n = 0usize;
        for s in &self.body {
            s.walk(&mut |s| {
                n += 1;
                if let HostStmt::Launch(k) = s {
                    for b in k.blocks() {
                        b.walk(&mut |_| n += 1);
                    }
                }
            });
        }
        n
    }
}

fn collect_kernels<'a>(body: &'a [HostStmt], out: &mut Vec<&'a Kernel>) {
    for s in body {
        match s {
            HostStmt::Launch(k) => out.push(k),
            HostStmt::DataRegion { body, .. }
            | HostStmt::HostLoop { body, .. }
            | HostStmt::WhileFlag { body, .. } => collect_kernels(body, out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::ParallelLoop;
    use crate::stmt::Block;
    use crate::types::Intent;

    fn tiny_program() -> Program {
        Program {
            name: "t".into(),
            params: vec![ParamDecl {
                name: "n".into(),
                ty: Scalar::I32,
            }],
            arrays: vec![ArrayDecl {
                name: "a".into(),
                elem: Scalar::F32,
                len: Expr::param(ParamId(0)),
                intent: Intent::InOut,
            }],
            body: vec![HostStmt::HostLoop {
                var: VarId(0),
                lo: Expr::iconst(0),
                hi: Expr::param(ParamId(0)),
                body: vec![HostStmt::Launch(Kernel::simple(
                    "inner",
                    vec![ParallelLoop::new(
                        VarId(1),
                        Expr::iconst(0),
                        Expr::param(ParamId(0)),
                    )],
                    Block::default(),
                ))],
            }],
            var_names: vec!["k".into(), "i".into()],
            tags: vec![],
        }
    }

    #[test]
    fn lookups_by_name() {
        let p = tiny_program();
        assert_eq!(p.param_id("n"), Some(ParamId(0)));
        assert_eq!(p.array_id("a"), Some(ArrayId(0)));
        assert_eq!(p.param_id("m"), None);
        assert_eq!(p.array_id("b"), None);
    }

    #[test]
    fn kernels_found_inside_loops() {
        let p = tiny_program();
        assert_eq!(p.kernel_count(), 1);
        assert!(p.kernel("inner").is_some());
        assert!(p.kernel("missing").is_none());
    }

    #[test]
    fn data_region_detection() {
        let mut p = tiny_program();
        assert!(!p.has_data_region());
        p.body = vec![HostStmt::DataRegion {
            arrays: vec![ArrayId(0)],
            body: p.body.clone(),
        }];
        assert!(p.has_data_region());
        assert_eq!(p.kernel_count(), 1);
    }
}
