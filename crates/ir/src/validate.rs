//! Structural validation of programs.
//!
//! All benchmark builders run their output through [`validate`] in
//! tests, so malformed IR is caught at construction time rather than
//! deep inside the interpreter or a compiler lowering.

use crate::expr::Expr;
use crate::kernel::{Kernel, KernelBody};
use crate::program::{HostStmt, Program};
use crate::stmt::{Block, Stmt};
use crate::types::{ArrayId, MemSpace, ParamId, VarId};

/// A validation failure with a human-readable location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError {
    pub location: String,
    pub message: String,
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.message)
    }
}

/// Validate a whole program. Returns all problems found.
pub fn validate(p: &Program) -> Result<(), Vec<ValidationError>> {
    let mut ctx = Ctx {
        p,
        errors: Vec::new(),
        defined_vars: Default::default(),
        local_scope: None,
    };
    // Array length expressions may only use parameters.
    for (i, a) in p.arrays.iter().enumerate() {
        if !a.len.reads_only_params() {
            ctx.err(
                &format!("array `{}` length", a.name),
                "expression must only reference parameters".into(),
            );
        }
        if p.arrays[..i].iter().any(|b| b.name == a.name) {
            ctx.err("arrays", format!("duplicate array name `{}`", a.name));
        }
    }
    for s in &p.body {
        ctx.host_stmt(s);
    }
    if ctx.errors.is_empty() {
        Ok(())
    } else {
        Err(ctx.errors)
    }
}

struct Ctx<'a> {
    p: &'a Program,
    errors: Vec<ValidationError>,
    defined_vars: std::collections::BTreeSet<VarId>,
    /// `Some(n_locals)` while validating a grouped phase body; local
    /// memory accesses are only legal there, and their array ids index
    /// the kernel's own local table of that size.
    local_scope: Option<usize>,
}

impl<'a> Ctx<'a> {
    fn err(&mut self, loc: &str, msg: String) {
        self.errors.push(ValidationError {
            location: loc.to_string(),
            message: msg,
        });
    }

    fn check_array(&mut self, a: ArrayId, loc: &str) {
        if a.0 as usize >= self.p.arrays.len() {
            self.err(loc, format!("array id {} out of range", a.0));
        }
    }

    fn check_param(&mut self, id: ParamId, loc: &str) {
        if id.0 as usize >= self.p.params.len() {
            self.err(loc, format!("param id {} out of range", id.0));
        }
    }

    fn host_stmt(&mut self, s: &HostStmt) {
        match s {
            HostStmt::DataRegion { arrays, body } => {
                for a in arrays {
                    self.check_array(*a, "data region");
                }
                for s in body {
                    self.host_stmt(s);
                }
            }
            HostStmt::Launch(k) => self.kernel(k),
            HostStmt::HostLoop { var, lo, hi, body } => {
                self.expr(lo, "host loop bound", false);
                self.expr(hi, "host loop bound", false);
                self.defined_vars.insert(*var);
                for s in body {
                    self.host_stmt(s);
                }
            }
            HostStmt::WhileFlag {
                flag,
                max_iters,
                body,
            } => {
                self.check_array(*flag, "while flag");
                if *max_iters == 0 {
                    self.err("while flag", "max_iters must be positive".into());
                }
                for s in body {
                    self.host_stmt(s);
                }
            }
            HostStmt::HostAssign { var, value, .. } => {
                self.expr(value, "host assign", false);
                self.defined_vars.insert(*var);
            }
            HostStmt::HostStore {
                array,
                index,
                value,
            } => {
                self.check_array(*array, "host store");
                self.expr(index, "host store index", false);
                self.expr(value, "host store value", false);
            }
            HostStmt::Update { array, .. } => self.check_array(*array, "update"),
            HostStmt::HostCompute { instr, .. } => self.expr(instr, "host compute", false),
            HostStmt::EnterData { arrays } | HostStmt::ExitData { arrays } => {
                for a in arrays {
                    self.check_array(*a, "enter/exit data");
                }
            }
        }
    }

    fn kernel(&mut self, k: &Kernel) {
        let loc = format!("kernel `{}`", k.name);
        if k.loops.is_empty() {
            self.err(&loc, "kernel must have at least one parallel loop".into());
        }
        let saved: std::collections::BTreeSet<VarId> = self.defined_vars.clone();
        let grouped = matches!(k.body, KernelBody::Grouped(_));
        for lp in &k.loops {
            self.expr(&lp.lo, &loc, grouped);
            self.expr(&lp.hi, &loc, grouped);
            self.defined_vars.insert(lp.var);
            if let Some(t) = lp.clauses.tile {
                if t == 0 {
                    self.err(&loc, "tile(0) is invalid".into());
                }
            }
            if let Some(u) = lp.clauses.unroll_jam {
                if u < 2 {
                    self.err(&loc, "unroll factor must be >= 2".into());
                }
            }
        }
        match &k.body {
            KernelBody::Simple(b) => self.block(b, &loc, false, false),
            KernelBody::Grouped(g) => {
                if g.group_size == 0 {
                    self.err(&loc, "group_size must be positive".into());
                }
                if g.phases.is_empty() {
                    self.err(&loc, "grouped body needs at least one phase".into());
                }
                let n_locals = g.locals.len();
                for phase in &g.phases {
                    self.block_with_locals(phase, &loc, n_locals);
                }
            }
        }
        if let Some(rr) = &k.region_reduction {
            self.check_array(rr.dest, &loc);
            self.expr(&rr.value, &loc, grouped);
        }
        self.defined_vars = saved;
    }

    fn block(&mut self, b: &Block, loc: &str, grouped: bool, in_local_scope: bool) {
        for s in &b.0 {
            match s {
                Stmt::Let { var, init, .. } => {
                    self.expr(init, loc, grouped);
                    self.defined_vars.insert(*var);
                }
                Stmt::Assign { var, value } => {
                    if !self.defined_vars.contains(var) {
                        self.err(
                            loc,
                            format!("assignment to undeclared local `{}`", self.p.var_name(*var)),
                        );
                    }
                    self.expr(value, loc, grouped);
                }
                Stmt::Store {
                    space,
                    array,
                    index,
                    value,
                } => {
                    if *space == MemSpace::Local && !in_local_scope {
                        self.err(loc, "local-memory store outside a grouped body".into());
                    }
                    if *space == MemSpace::Global {
                        self.check_array(*array, loc);
                    }
                    self.expr(index, loc, grouped);
                    self.expr(value, loc, grouped);
                }
                Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    self.expr(cond, loc, grouped);
                    // Each branch opens its own scope: a `Let` in one
                    // branch must not legitimize an `Assign` in the
                    // other branch or after the `If`.
                    let saved = self.defined_vars.clone();
                    self.block(then_blk, loc, grouped, in_local_scope);
                    self.defined_vars = saved.clone();
                    self.block(else_blk, loc, grouped, in_local_scope);
                    self.defined_vars = saved;
                }
                Stmt::For {
                    var, lo, hi, body, ..
                } => {
                    self.expr(lo, loc, grouped);
                    self.expr(hi, loc, grouped);
                    // `Let`s inside the body are scoped to the body.
                    // The loop variable itself stays bound afterwards
                    // (the interpreter's variable slots persist, like
                    // a C89 `for` with the induction variable declared
                    // outside).
                    let saved = self.defined_vars.clone();
                    self.defined_vars.insert(*var);
                    self.block(body, loc, grouped, in_local_scope);
                    self.defined_vars = saved;
                    self.defined_vars.insert(*var);
                }
                Stmt::Barrier => {
                    if !grouped {
                        self.err(loc, "barrier outside a grouped body".into());
                    }
                }
                Stmt::Atomic {
                    array,
                    index,
                    value,
                    ..
                } => {
                    self.check_array(*array, loc);
                    self.expr(index, loc, grouped);
                    self.expr(value, loc, grouped);
                }
            }
        }
    }

    fn block_with_locals(&mut self, b: &Block, loc: &str, n_locals: usize) {
        // Local array ids index the kernel's own local table.
        let check_local = |this: &mut Self, a: ArrayId| {
            if a.0 as usize >= n_locals {
                this.err(loc, format!("local array id {} out of range", a.0));
            }
        };
        b.walk(&mut |s| {
            if let Stmt::Store {
                space: MemSpace::Local,
                array,
                ..
            } = s
            {
                check_local(self, *array);
            }
        });
        let prev = self.local_scope.replace(n_locals);
        self.block(b, loc, true, true);
        self.local_scope = prev;
    }

    fn expr(&mut self, e: &Expr, loc: &str, grouped: bool) {
        e.walk(&mut |e| match e {
            Expr::Param(id) => self.check_param(*id, loc),
            Expr::Load {
                space: MemSpace::Global,
                array,
                ..
            } => self.check_array(*array, loc),
            Expr::Load {
                space: MemSpace::Local,
                array,
                ..
            } => match self.local_scope {
                // Mirrors the `Store` checks: local memory only exists
                // inside a grouped phase, and ids index its table.
                None => self.err(loc, "local-memory load outside a grouped body".into()),
                Some(n) if array.0 as usize >= n => {
                    self.err(loc, format!("local array id {} out of range", array.0));
                }
                Some(_) => {}
            },
            Expr::Special(sv) if !grouped => {
                self.err(
                    loc,
                    format!("work-group builtin {sv:?} outside a grouped body"),
                );
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{st, ProgramBuilder, E};
    use crate::kernel::ParallelLoop;
    use crate::types::{Intent, Scalar};

    fn base() -> (ProgramBuilder, ParamId, ArrayId, VarId) {
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let a = b.array("a", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        (b, n, a, i)
    }

    #[test]
    fn valid_program_passes() {
        let (b, n, a, i) = base();
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, 0.0)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn out_of_range_array_caught() {
        let (b, n, _a, i) = base();
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(ArrayId(9), i, 0.0)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("out of range")));
    }

    #[test]
    fn barrier_outside_grouped_caught() {
        let (b, n, _a, i) = base();
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![Stmt::Barrier]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("barrier")));
    }

    #[test]
    fn assign_before_let_caught() {
        let (mut b, n, a, i) = base();
        let tmp = b.var("tmp");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
                crate::builder::assign(tmp, 1.0),
                st(a, i, E::from(tmp)),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn array_len_must_be_param_only() {
        let mut b = ProgramBuilder::new("p");
        let i = b.var("i");
        b.array("a", Scalar::F32, E::from(i), Intent::In);
        let p = b.finish(vec![]);
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("only reference parameters")));
    }

    #[test]
    fn let_in_then_branch_does_not_reach_else_branch() {
        use crate::builder::{assign, if_else, let_};
        let (mut b, n, a, i) = base();
        let tmp = b.var("tmp");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
                if_else(
                    Expr::BConst(true),
                    vec![let_(tmp, Scalar::F32, 1.0)],
                    vec![assign(tmp, 2.0)],
                ),
                st(a, i, 0.0),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn let_in_if_branch_does_not_leak_past_the_if() {
        use crate::builder::{assign, if_, let_};
        let (mut b, n, a, i) = base();
        let tmp = b.var("tmp");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
                if_(Expr::BConst(true), vec![let_(tmp, Scalar::F32, 1.0)]),
                assign(tmp, 2.0),
                st(a, i, 0.0),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn let_in_for_body_does_not_leak_past_the_loop() {
        use crate::builder::{assign, for_, let_};
        let (mut b, n, a, i) = base();
        let kv = b.var("kv");
        let tmp = b.var("tmp");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
                for_(kv, 0i64, 4i64, vec![let_(tmp, Scalar::F32, 1.0)]),
                assign(tmp, 2.0),
                st(a, i, 0.0),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("undeclared")));
    }

    #[test]
    fn for_loop_var_stays_bound_after_the_loop() {
        // Matches the interpreter, whose variable slots persist.
        use crate::builder::{assign, for_};
        let (mut b, n, a, i) = base();
        let kv = b.var("kv");
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![
                for_(kv, 0i64, 4i64, vec![st(a, i, 0.0)]),
                assign(kv, 0i64),
            ]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn local_load_outside_grouped_body_caught() {
        use crate::builder::ld_local;
        let (b, n, a, i) = base();
        let k = Kernel::simple(
            "k",
            vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
            Block::new(vec![st(a, i, ld_local(ArrayId(0), 0i64))]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("local-memory load outside")));
    }

    #[test]
    fn out_of_range_local_load_caught_like_the_store() {
        use crate::builder::{ld_local, st_local};
        use crate::kernel::{GroupedBody, KernelBody};
        use crate::types::LocalArrayDecl;
        let (b, n, _a, i) = base();
        let sdata = LocalArrayDecl {
            name: "sdata".into(),
            elem: Scalar::F32,
            len: 8,
        };
        let mk = |body: Block| {
            let mut k = Kernel::simple(
                "k",
                vec![ParallelLoop::new(i, Expr::iconst(0), Expr::param(n))],
                Block::default(),
            );
            k.body = KernelBody::Grouped(GroupedBody {
                group_size: 8,
                locals: vec![sdata.clone()],
                phases: vec![body],
            });
            k
        };
        // In-range local load and store: fine.
        let ok = mk(Block::new(vec![st_local(
            ArrayId(0),
            0i64,
            ld_local(ArrayId(0), 1i64),
        )]));
        let p = base().0.finish(vec![HostStmt::Launch(ok)]);
        assert!(validate(&p).is_ok(), "{:?}", validate(&p));
        // Out-of-range local *load* now errors like the store does.
        let bad = mk(Block::new(vec![st_local(
            ArrayId(0),
            0i64,
            ld_local(ArrayId(3), 1i64),
        )]));
        let p = b.finish(vec![HostStmt::Launch(bad)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("local array id 3 out of range")));
    }

    #[test]
    fn kernel_without_loops_caught() {
        let (b, _n, _a, _i) = base();
        let k = Kernel::simple("k", vec![], Block::default());
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let errs = validate(&p).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("at least one parallel loop")));
    }
}
