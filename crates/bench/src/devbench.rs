//! `reproduce bench-devsim` — kernel-execution throughput of the two
//! devsim tiers.
//!
//! Measures the pure kernel-execution path (no host walk, no transfer
//! accounting, no race tracker): each workload's kernels run over the
//! full iteration space under the tree-walking interpreter and under
//! the compile-once bytecode VM, wall-clocked with a median-of-N
//! sample loop. Before any
//! timing, both tiers run once on identical inputs and every output
//! buffer is asserted bitwise-equal — a benchmark that drifted
//! semantically would be measuring a different program.
//!
//! Two workloads, both sized so the tree tier takes tens of
//! milliseconds per pass:
//!
//! * **hydro** — the Sod-tube solver's `Optimized` OpenACC variant
//!   (the paper's Section V-E code), every kernel once per pass;
//! * **matmul** — a dense `n×n` triple loop with a sequential inner
//!   accumulation, the classic arithmetic-bound shape the paper's GE
//!   and LUD kernels reduce to.
//!
//! Output is a deterministic text table plus (optionally) a small
//! hand-rolled JSON report (`BENCH_devsim.json` in the repo root is a
//! committed reference produced by `--seed 42`; CI re-runs the bench
//! and fails if the measured speedup regresses more than 10% below
//! it).

use std::time::Instant;

use paccport_devsim::bytecode::{compile_kernel, exec_kernel_bc};
use paccport_devsim::interp::{exec_kernel, KernelFidelity, Scope};
use paccport_devsim::{Buffer, V};
use paccport_hydro::acc::{program as hydro_program, HydroVariant};
use paccport_ir::{
    assign, for_, ld, let_, st, Block, Expr, HostStmt, Intent, Kernel, ParallelLoop, Program,
    ProgramBuilder, Scalar, E,
};

/// One workload's tier timings (seconds, median of N samples).
#[derive(Debug, Clone)]
pub struct BenchEntry {
    pub name: String,
    pub kernels: usize,
    pub tree_s: f64,
    pub bytecode_s: f64,
}

impl BenchEntry {
    pub fn speedup(&self) -> f64 {
        self.tree_s / self.bytecode_s
    }
}

/// Full report of a `bench-devsim` run.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub seed: u64,
    pub samples: usize,
    pub entries: Vec<BenchEntry>,
}

impl BenchReport {
    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut s = format!(
            "devsim tier throughput (seed {}, median of {} samples)\n",
            self.seed, self.samples
        );
        for e in &self.entries {
            s.push_str(&format!(
                "  {:<8} {:>2} kernels   tree {:>10.3} ms   bytecode {:>10.3} ms   speedup {:>6.2}x\n",
                e.name,
                e.kernels,
                e.tree_s * 1e3,
                e.bytecode_s * 1e3,
                e.speedup()
            ));
        }
        s
    }

    /// Hand-rolled JSON (the shape is stable and greppable).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"samples\": {},\n", self.samples));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"kernels\": {}, \"tree_s\": {:.6}, \"bytecode_s\": {:.6}, \"speedup\": {:.2}}}{}\n",
                e.name,
                e.kernels,
                e.tree_s,
                e.bytecode_s,
                e.speedup(),
                if i + 1 < self.entries.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Extract `"name": speedup` pairs from a report previously written by
/// [`BenchReport::to_json`]. Deliberately line-oriented — it only
/// parses what `to_json` emits.
pub fn parse_speedups(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(n0) = line.find("\"name\": \"") else {
            continue;
        };
        let rest = &line[n0 + 9..];
        let Some(n1) = rest.find('"') else { continue };
        let name = rest[..n1].to_string();
        let Some(s0) = line.find("\"speedup\": ") else {
            continue;
        };
        let tail = &line[s0 + 11..];
        let num: String = tail
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse() {
            out.push((name, v));
        }
    }
    out
}

/// splitmix64 for deterministic input data.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    /// In [0.5, 1.5): away from zero so reciprocal-heavy kernels stay
    /// finite and both tiers exercise ordinary float paths.
    fn f(&mut self) -> f64 {
        0.5 + (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One benchmarkable workload: a program plus concrete inputs.
struct Workload {
    name: &'static str,
    p: Program,
    params: Vec<V>,
    bufs: Vec<Buffer>,
}

/// Dense `n×n` matmul with a sequential inner accumulation.
fn matmul_program(n: i64) -> Program {
    let mut b = ProgramBuilder::new("matmul_bench");
    let np = b.iparam("n");
    let a = b.array("a", Scalar::F32, E::from(np) * E::from(np), Intent::In);
    let bb = b.array("b", Scalar::F32, E::from(np) * E::from(np), Intent::In);
    let c = b.array("c", Scalar::F32, E::from(np) * E::from(np), Intent::Out);
    let i = b.var("i");
    let j = b.var("j");
    let kv = b.var("k");
    let acc = b.var("acc");
    let loops = vec![
        ParallelLoop::new(i, Expr::iconst(0), Expr::param(np)),
        ParallelLoop::new(j, Expr::iconst(0), Expr::param(np)),
    ];
    let body = Block::new(vec![
        let_(acc, Scalar::F32, 0.0),
        for_(
            kv,
            0i64,
            E::from(np),
            vec![assign(
                acc,
                E::from(Expr::var(acc))
                    + ld(
                        a,
                        E::from(Expr::var(i)) * E::from(np) + E::from(Expr::var(kv)),
                    ) * ld(
                        bb,
                        E::from(Expr::var(kv)) * E::from(np) + E::from(Expr::var(j)),
                    ),
            )],
        ),
        st(
            c,
            E::from(Expr::var(i)) * E::from(np) + E::from(Expr::var(j)),
            E::from(Expr::var(acc)),
        ),
    ]);
    let k = Kernel::simple("matmul", loops, body);
    let _ = n;
    b.finish(vec![HostStmt::Launch(k)])
}

/// Bind parameters in declaration order (same rule as the runner) and
/// size every array from its length expression.
fn materialize(p: Program, values: &[(&str, f64)], rng: &mut Rng, name: &'static str) -> Workload {
    let params: Vec<V> = p
        .params
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("bench workload `{name}` missing param `{}`", d.name));
            match d.ty {
                Scalar::F32 | Scalar::F64 => V::F(v),
                _ => V::I(v as i64),
            }
        })
        .collect();
    let mut bufs = Vec::with_capacity(p.arrays.len());
    let mut scratch = paccport_devsim::fresh_vars(&p);
    for a in &p.arrays {
        let mut no_bufs: [Buffer; 0] = [];
        let scope = Scope {
            vars: &mut scratch,
            bufs: &mut no_bufs,
            locals: None,
            group: Default::default(),
            tracker: None,
        };
        let len = paccport_devsim::interp::eval(&p, &params, &a.len, &scope).as_i() as usize;
        let buf = match a.elem {
            Scalar::F64 => Buffer::F64((0..len).map(|_| rng.f()).collect()),
            _ => Buffer::F32((0..len).map(|_| rng.f() as f32).collect()),
        };
        bufs.push(buf);
    }
    Workload {
        name,
        p,
        params,
        bufs,
    }
}

/// Variable environment for a bench pass: every slot pre-bound to a
/// small float, standing in for the host-assigned scalars (hydro's
/// `dt`/`dtdx`) that the full runner would have written before launch.
fn bench_vars(p: &Program) -> Vec<Option<V>> {
    vec![Some(V::F(0.004)); p.var_names.len()]
}

/// One full pass of a workload under the tree tier.
pub fn run_tree_pass(w_p: &Program, params: &[V], bufs: &mut [Buffer]) {
    let mut vars = bench_vars(w_p);
    for k in w_p.kernels() {
        exec_kernel(w_p, params, k, &mut vars, bufs, KernelFidelity::Exact);
    }
}

/// One full pass under the bytecode tier, given pre-compiled kernels.
pub fn run_bytecode_pass(
    w_p: &Program,
    codes: &[paccport_devsim::KernelCode],
    params: &[V],
    bufs: &mut [Buffer],
) {
    let mut vars = bench_vars(w_p);
    for (k, code) in w_p.kernels().iter().zip(codes) {
        exec_kernel_bc(
            code,
            params,
            k,
            &mut vars,
            bufs,
            KernelFidelity::Exact,
            None,
        );
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// The two committed workloads at their benchmark sizes.
fn workloads(seed: u64) -> Vec<Workload> {
    let mut rng = Rng(seed);
    let n = 48i64;
    vec![
        materialize(
            hydro_program(HydroVariant::Optimized),
            &[("nx", 48.0), ("ny", 48.0), ("dx", 0.02), ("nsteps", 1.0)],
            &mut rng,
            "hydro",
        ),
        materialize(matmul_program(n), &[("n", n as f64)], &mut rng, "matmul"),
    ]
}

/// Run the tier benchmark: `samples` timed passes per tier per
/// workload, median wall time, after a bitwise cross-check of the two
/// tiers' outputs on identical inputs.
pub fn run_devsim_bench(seed: u64, samples: usize) -> BenchReport {
    let samples = samples.max(1);
    let mut entries = Vec::new();
    for w in workloads(seed) {
        let codes: Vec<_> =
            w.p.kernels()
                .iter()
                .map(|k| compile_kernel(&w.p, k))
                .collect();

        // Semantic gate before any timing: identical inputs, bitwise
        // identical outputs.
        let mut tb = w.bufs.clone();
        let mut bb = w.bufs.clone();
        run_tree_pass(&w.p, &w.params, &mut tb);
        run_bytecode_pass(&w.p, &codes, &w.params, &mut bb);
        for (i, (x, y)) in tb.iter().zip(&bb).enumerate() {
            assert_eq!(
                x.bits(),
                y.bits(),
                "bench workload `{}` buffer {i} diverged between tiers",
                w.name
            );
        }

        let time = |f: &mut dyn FnMut()| {
            // Warmup pass, then N timed samples.
            f();
            let mut ts = Vec::with_capacity(samples);
            for _ in 0..samples {
                let t0 = Instant::now();
                f();
                ts.push(t0.elapsed().as_secs_f64());
            }
            median(ts)
        };
        let mut bufs = w.bufs.clone();
        let tree_s = time(&mut || run_tree_pass(&w.p, &w.params, std::hint::black_box(&mut bufs)));
        let mut bufs = w.bufs.clone();
        let bytecode_s = time(&mut || {
            run_bytecode_pass(&w.p, &codes, &w.params, std::hint::black_box(&mut bufs))
        });
        entries.push(BenchEntry {
            name: w.name.to_string(),
            kernels: codes.len(),
            tree_s,
            bytecode_s,
        });
    }
    BenchReport {
        seed,
        samples,
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_tiers_agree() {
        // One sample keeps this cheap; the bitwise gate inside
        // `run_devsim_bench` is the real assertion.
        let r = run_devsim_bench(42, 1);
        assert_eq!(r.entries.len(), 2);
        assert!(r
            .entries
            .iter()
            .all(|e| e.tree_s > 0.0 && e.bytecode_s > 0.0));
    }

    #[test]
    fn json_roundtrips_speedups() {
        let r = BenchReport {
            seed: 1,
            samples: 3,
            entries: vec![BenchEntry {
                name: "hydro".into(),
                kernels: 7,
                tree_s: 0.1,
                bytecode_s: 0.01,
            }],
        };
        let sp = parse_speedups(&r.to_json());
        assert_eq!(sp.len(), 1);
        assert_eq!(sp[0].0, "hydro");
        assert!((sp[0].1 - 10.0).abs() < 0.01);
    }
}
