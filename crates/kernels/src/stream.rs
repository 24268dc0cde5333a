//! STREAM-style bandwidth micro-benchmarks (Copy / Scale / Add /
//! Triad).
//!
//! The authors' previous work (the paper's reference \[11\]) evaluated
//! OpenACC with SHOC, STREAM and EPCC before moving to Rodinia; we
//! include STREAM both for continuity and because it pins the device
//! model: a pure-bandwidth kernel must run at a sane fraction of the
//! modeled peak, scale with concurrency, and sit far above what the
//! same code achieves when the CAPS gang(1) bug serializes it.

use crate::common::VariantCfg;
use paccport_ir::{
    ld, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, ProgramBuilder, Scalar, E,
};

/// Which STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOp {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamOp {
    pub fn label(self) -> &'static str {
        match self {
            StreamOp::Copy => "Copy",
            StreamOp::Scale => "Scale",
            StreamOp::Add => "Add",
            StreamOp::Triad => "Triad",
        }
    }

    /// Bytes moved per element (reads + writes, 4-byte floats).
    pub fn bytes_per_elem(self) -> u64 {
        match self {
            StreamOp::Copy | StreamOp::Scale => 8,
            StreamOp::Add | StreamOp::Triad => 12,
        }
    }
}

/// Build one STREAM kernel as an OpenACC program.
pub fn program(op: StreamOp, cfg: &VariantCfg) -> paccport_ir::Program {
    let mut b = ProgramBuilder::new(format!("stream_{}", op.label().to_lowercase()));
    let n = b.iparam("n");
    let a = b.array("a", Scalar::F32, n, Intent::InOut);
    let bb = b.array("b", Scalar::F32, n, Intent::InOut);
    let c = b.array("c", Scalar::F32, n, Intent::InOut);
    let i = b.var("i");
    const S: f64 = 3.0;

    let body = match op {
        StreamOp::Copy => st(c, i, ld(a, i)),
        StreamOp::Scale => st(bb, i, E::from(S) * ld(c, i)),
        StreamOp::Add => st(c, i, ld(a, i) + ld(bb, i)),
        StreamOp::Triad => st(a, i, ld(bb, i) + E::from(S) * ld(c, i)),
    };
    let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
    lp.clauses.independent = cfg.independent;
    if let Some((g, w)) = cfg.gang_worker {
        lp.clauses.gang = Some(g);
        lp.clauses.worker = Some(w);
    }
    let k = Kernel::simple(op.label().to_lowercase(), vec![lp], Block::new(vec![body]));
    b.finish(vec![HostStmt::DataRegion {
        arrays: vec![a, bb, c],
        body: vec![HostStmt::Launch(k)],
    }])
}

/// Reference result for validation.
pub fn reference(op: StreamOp, a: &mut [f32], b: &mut [f32], c: &mut [f32]) {
    const S: f32 = 3.0;
    for i in 0..a.len() {
        match op {
            StreamOp::Copy => c[i] = a[i],
            StreamOp::Scale => b[i] = S * c[i],
            StreamOp::Add => c[i] = a[i] + b[i],
            StreamOp::Triad => a[i] = b[i] + S * c[i],
        }
    }
}

/// Achieved device bandwidth (bytes/s) of a timing-only run.
pub fn measured_bandwidth(op: StreamOp, n: u64, kernel_seconds: f64) -> f64 {
    (n * op.bytes_per_elem()) as f64 / kernel_seconds
}

pub const ALL: [StreamOp; 4] = [
    StreamOp::Copy,
    StreamOp::Scale,
    StreamOp::Add,
    StreamOp::Triad,
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{compare_f32, random_vec};
    use paccport_compilers::{compile, CompileOptions, CompilerId};
    use paccport_devsim::{k40, phi5110p, run, Buffer, RunConfig};

    #[test]
    fn all_ops_compute_correctly_everywhere() {
        let n = 128usize;
        for op in ALL {
            let p = program(op, &VariantCfg::independent());
            paccport_ir::validate(&p).expect("valid IR");
            for (compiler, opts) in [
                (CompilerId::Caps, CompileOptions::gpu()),
                (CompilerId::Caps, CompileOptions::mic()),
                (CompilerId::OpenClHand, CompileOptions::gpu()),
            ] {
                let c = compile(compiler, &p, &opts).unwrap();
                let (a0, b0, c0) = (random_vec(n, 1), random_vec(n, 2), random_vec(n, 3));
                let rc = RunConfig::functional(vec![("n".into(), n as f64)])
                    .with_input("a", Buffer::F32(a0.clone()))
                    .with_input("b", Buffer::F32(b0.clone()))
                    .with_input("c", Buffer::F32(c0.clone()));
                let r = run(&c, &rc).unwrap();
                let (mut wa, mut wb, mut wc) = (a0, b0, c0);
                reference(op, &mut wa, &mut wb, &mut wc);
                for (name, want) in [("a", &wa), ("b", &wb), ("c", &wc)] {
                    let v = compare_f32(r.buffer(&c, name).unwrap().as_f32(), want, 1e-6);
                    assert!(v.passed, "{op:?} {compiler:?} {name}: {}", v.detail);
                }
            }
        }
    }

    /// Triad at full occupancy must achieve 50–100% of modeled peak
    /// bandwidth on both devices — the device-model pin.
    #[test]
    fn triad_achieves_a_sane_bandwidth_fraction() {
        let n: u64 = 1 << 26;
        let p = program(StreamOp::Triad, &VariantCfg::independent());
        let rc = RunConfig::timing(vec![("n".into(), n as f64)], 1);
        for (opts, peak) in [
            (CompileOptions::gpu(), k40().mem_bw),
            (CompileOptions::mic(), phi5110p().mem_bw),
        ] {
            let c = compile(CompilerId::Caps, &p, &opts).unwrap();
            let r = run(&c, &rc).unwrap();
            let bw = measured_bandwidth(StreamOp::Triad, n, r.kernel_time);
            let frac = bw / peak;
            assert!(
                (0.4..=1.0).contains(&frac),
                "{:?}: {:.0} GB/s of {:.0} GB/s peak ({frac:.2})",
                opts.target,
                bw / 1e9,
                peak / 1e9
            );
        }
    }

    /// The gang(1) bug murders STREAM like everything else; copy and
    /// triad differ by their byte-per-element ratio when bandwidth
    /// bound.
    #[test]
    fn bandwidth_shape_sanity() {
        let n: u64 = 1 << 26;
        let rc = RunConfig::timing(vec![("n".into(), n as f64)], 1);
        let o = CompileOptions::gpu();
        let t = |op, cfg: &VariantCfg| {
            let c = compile(CompilerId::Caps, &program(op, cfg), &o).unwrap();
            run(&c, &rc).unwrap().kernel_time
        };
        let seq = t(StreamOp::Triad, &VariantCfg::baseline());
        let par = t(StreamOp::Triad, &VariantCfg::independent());
        assert!(seq / par > 100.0, "serialized STREAM: {seq} vs {par}");
        let copy = t(StreamOp::Copy, &VariantCfg::independent());
        let triad = t(StreamOp::Triad, &VariantCfg::independent());
        let ratio = triad / copy;
        assert!(
            (1.2..1.8).contains(&ratio),
            "triad/copy should track 12/8 bytes, got {ratio:.2}"
        );
    }
}
