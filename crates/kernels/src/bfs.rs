//! Breadth First Search (Rodinia BFS) — Section V-C.
//!
//! Data-intensive graph traversal over a CSR-like representation
//! (`nodes[2i] = edge start`, `nodes[2i+1] = degree`). The frontier
//! loop runs on the host, controlled by a device-written stop flag:
//!
//! ```text
//! do {
//!   stop = 0;  update device(stop)
//!   k1: for tid (par): if mask[tid] { mask[tid]=0;
//!         for e in start..start+deg:
//!           if !visited[edges[e]] { cost[edges[e]] = cost[tid]+1; updating[edges[e]]=1 } }
//!   k2: for tid (par): if updating[tid] { mask[tid]=1; visited[tid]=1; stop[0]=1; updating[tid]=0 }
//!   update host(stop)
//! } while (stop);
//! ```
//!
//! Paper findings reproduced here:
//! * CAPS's sequential baseline runs *faster on MIC than GPU* (higher
//!   single-thread performance — Fig. 10);
//! * PGI never offloads the kernels (indirect accesses in `k1`, the
//!   loop-invariant `stop` store in `k2`) — discovered via
//!   `PGI_ACC_TIME`/nvprof, visible here as `ran_on_device == false`
//!   and a stub PTX (Fig. 11);
//! * `independent` lets CAPS gridify: ~400× on GPU, ~30× on MIC;
//! * Table VII: CAPS transfers 3×/iteration (two explicit `stop`
//!   updates + a conservative `mask` refresh), PGI 4 in total (three
//!   region copy-ins + one copy-out).
//!
//! Costs are reported as 1-based levels (`cost[source] = 1`), so the
//! zero-initialized device scratch needs no host-side seeding.

use crate::common::VariantCfg;
use paccport_devsim::CostHints;
use paccport_ir::{
    for_, if_, ld, let_, st, Block, Dir, Expr, HostStmt, Intent, Kernel, LaunchHint, ParallelLoop,
    ProgramBuilder, Scalar, E,
};

/// A CSR-ish random graph in the Rodinia layout.
#[derive(Debug, Clone)]
pub struct Graph {
    /// `nodes[2i]` = first edge index, `nodes[2i+1]` = out-degree.
    pub nodes: Vec<i32>,
    pub edges: Vec<i32>,
    pub n: usize,
}

impl Graph {
    /// Random connected-ish graph with degrees in `1..=max_degree`
    /// (Rodinia's generator draws uniform degrees and endpoints).
    pub fn random(n: usize, max_degree: usize, seed: u64) -> Graph {
        let mut r = crate::common::rng(seed);
        let mut nodes = Vec::with_capacity(2 * n);
        let mut edges = Vec::new();
        for i in 0..n {
            let deg = r.range(1, max_degree as i64) as usize;
            nodes.push(edges.len() as i32);
            nodes.push(deg as i32);
            for _ in 0..deg {
                edges.push(r.below(n as u64) as i32);
            }
            // Chain edge to keep the graph connected from node 0.
            if i + 1 < n {
                edges.push((i + 1) as i32);
                nodes[2 * i + 1] += 1;
            }
        }
        Graph { nodes, edges, n }
    }
}

/// Reference BFS: 1-based levels from `source`; unreached nodes stay 0.
pub fn reference(g: &Graph, source: usize) -> Vec<i32> {
    let mut cost = vec![0i32; g.n];
    let mut queue = std::collections::VecDeque::new();
    cost[source] = 1;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let start = g.nodes[2 * u] as usize;
        let deg = g.nodes[2 * u + 1] as usize;
        for e in start..start + deg {
            let v = g.edges[e] as usize;
            if cost[v] == 0 && v != source {
                cost[v] = cost[u] + 1;
                queue.push_back(v);
            }
        }
    }
    cost
}

/// Build the OpenACC BFS program.
pub fn program(cfg: &VariantCfg) -> paccport_ir::Program {
    build(cfg, None)
}

/// Build the hand-written OpenCL BFS (same algorithm, explicit
/// 256-wide 1-D NDRanges, as in Rodinia's OpenCL port).
pub fn opencl_program() -> paccport_ir::Program {
    build(
        &VariantCfg::independent(),
        Some(LaunchHint {
            local: (256, 1),
            two_d: false,
            group_per_iter: false,
        }),
    )
}

fn build(cfg: &VariantCfg, hint: Option<LaunchHint>) -> paccport_ir::Program {
    let mut b = ProgramBuilder::new("bfs");
    let n = b.iparam("n");
    let nedges = b.iparam("nedges");
    let source = b.iparam("source");
    let nodes = b.array("nodes", Scalar::I32, E::from(n) * 2i64, Intent::In);
    let edges = b.array("edges", Scalar::I32, nedges, Intent::In);
    let mask = b.array("mask", Scalar::I32, n, Intent::In);
    let cost = b.array("cost", Scalar::I32, n, Intent::Out);
    let visited = b.array("visited", Scalar::I32, n, Intent::Scratch);
    let updating = b.array("updating", Scalar::I32, n, Intent::Scratch);
    let stop = b.array("stop", Scalar::I32, 1i64, Intent::Scratch);

    let tid = b.var("tid");
    let tid2 = b.var("tid2");
    let iv = b.var("iv");
    let e = b.var("e");
    let id = b.var("id");

    let clause = |lp: &mut ParallelLoop| {
        lp.clauses.independent = cfg.independent;
        if let Some((g, w)) = cfg.gang_worker {
            lp.clauses.gang = Some(g);
            lp.clauses.worker = Some(w);
        }
    };

    // Init kernel: seed the search at `source` on the device.
    let mut init_loop = ParallelLoop::new(iv, Expr::iconst(0), Expr::iconst(1));
    clause(&mut init_loop);
    let mut init = Kernel::simple(
        "bfs_init",
        vec![init_loop],
        Block::new(vec![
            st(visited, E::from(source), 1i64),
            st(cost, E::from(source), 1i64),
        ]),
    );
    init.launch_hint = hint;

    // Kernel 1: expand the frontier.
    let mut k1_loop = ParallelLoop::new(tid, Expr::iconst(0), Expr::param(n));
    clause(&mut k1_loop);
    let start = ld(nodes, E::from(tid) * 2i64);
    let deg = ld(nodes, E::from(tid) * 2i64 + 1i64);
    let mut k1 = Kernel::simple(
        "bfs_kernel1",
        vec![k1_loop],
        Block::new(vec![if_(
            ld(mask, tid).ne_(0i64),
            vec![
                st(mask, tid, 0i64),
                for_(
                    e,
                    start.clone(),
                    start + deg,
                    vec![
                        let_(id, Scalar::I32, ld(edges, e)),
                        if_(
                            ld(visited, id).eq_(0i64),
                            vec![
                                st(cost, E::from(id), ld(cost, tid) + 1i64),
                                st(updating, E::from(id), 1i64),
                            ],
                        ),
                    ],
                ),
            ],
        )]),
    );
    k1.launch_hint = hint;

    // Kernel 2: commit the new frontier and raise the stop flag.
    let mut k2_loop = ParallelLoop::new(tid2, Expr::iconst(0), Expr::param(n));
    clause(&mut k2_loop);
    let mut k2 = Kernel::simple(
        "bfs_kernel2",
        vec![k2_loop],
        Block::new(vec![if_(
            ld(updating, tid2).ne_(0i64),
            vec![
                st(mask, tid2, 1i64),
                st(visited, tid2, 1i64),
                st(stop, 0i64, 1i64),
                st(updating, tid2, 0i64),
            ],
        )]),
    );
    k2.launch_hint = hint;

    b.finish(vec![HostStmt::DataRegion {
        arrays: vec![nodes, edges, mask, cost, visited, updating, stop],
        body: vec![
            HostStmt::Launch(init),
            HostStmt::WhileFlag {
                flag: stop,
                max_iters: 100_000,
                body: vec![
                    HostStmt::HostStore {
                        array: stop,
                        index: Expr::iconst(0),
                        value: Expr::iconst(0),
                    },
                    HostStmt::Update {
                        array: stop,
                        dir: Dir::ToDevice,
                    },
                    HostStmt::Launch(k1),
                    HostStmt::Launch(k2),
                    HostStmt::Update {
                        array: stop,
                        dir: Dir::ToHost,
                    },
                ],
            },
        ],
    }])
}

/// Estimation hints for the timing model: the frontier guard is
/// usually false, and edge-loop trip counts are data dependent.
pub fn hints(g_avg_degree: f64, frontier_fraction: f64) -> CostHints {
    CostHints::default()
        .with_branch("bfs_kernel1", 0, frontier_fraction)
        .with_branch("bfs_kernel2", 0, frontier_fraction)
        .with_trips("bfs_kernel1", g_avg_degree)
}

/// The paper's input size (Table IV).
pub const PAPER_N: usize = 32_000_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::compare_i32;
    use paccport_compilers::{compile, CompileOptions, CompilerId, TransferPolicy};
    use paccport_devsim::{run, Buffer, RunConfig, RunResult};
    use paccport_ir::validate;

    fn run_bfs(
        compiler: CompilerId,
        options: &CompileOptions,
        p: &paccport_ir::Program,
        g: &Graph,
        source: usize,
    ) -> (RunResult, paccport_compilers::CompiledProgram) {
        let c = compile(compiler, p, options).unwrap();
        let mut mask = vec![0i32; g.n];
        mask[source] = 1;
        let rc = RunConfig::functional(vec![
            ("n".into(), g.n as f64),
            ("nedges".into(), g.edges.len() as f64),
            ("source".into(), source as f64),
        ])
        .with_input("nodes", Buffer::I32(g.nodes.clone()))
        .with_input("edges", Buffer::I32(g.edges.clone()))
        .with_input("mask", Buffer::I32(mask));
        let r = run(&c, &rc).unwrap();
        (r, c)
    }

    #[test]
    fn reference_levels_are_sane() {
        let g = Graph::random(64, 3, 5);
        let cost = reference(&g, 0);
        assert_eq!(cost[0], 1);
        // The chain edges guarantee everything is reachable.
        assert!(cost.iter().all(|c| *c >= 1));
        // Levels grow by at most 1 along the chain.
        for i in 1..g.n {
            assert!(cost[i] <= cost[i - 1] + 1);
        }
    }

    #[test]
    fn variants_are_well_formed() {
        validate(&program(&VariantCfg::baseline())).expect("baseline");
        validate(&program(&VariantCfg::independent())).expect("independent");
        validate(&opencl_program()).expect("opencl");
    }

    #[test]
    fn caps_independent_computes_correct_levels() {
        let g = Graph::random(200, 4, 9);
        let (r, c) = run_bfs(
            CompilerId::Caps,
            &CompileOptions::gpu(),
            &program(&VariantCfg::independent()),
            &g,
            0,
        );
        let v = compare_i32(r.buffer(&c, "cost").unwrap().as_i32(), &reference(&g, 0));
        assert!(v.passed, "{}", v.detail);
        assert!(r.while_iterations >= 2);
    }

    #[test]
    fn caps_baseline_is_sequential_but_correct() {
        let g = Graph::random(60, 3, 2);
        let (r, c) = run_bfs(
            CompilerId::Caps,
            &CompileOptions::gpu(),
            &program(&VariantCfg::baseline()),
            &g,
            0,
        );
        let v = compare_i32(r.buffer(&c, "cost").unwrap().as_i32(), &reference(&g, 0));
        assert!(v.passed, "{}", v.detail);
        assert!(r
            .kernel_stats
            .iter()
            .all(|s| s.config_label == "1x1" && s.ran_on_device));
    }

    #[test]
    fn pgi_never_runs_on_the_gpu_yet_computes_correctly() {
        // The paper's nvprof discovery, even with independent given.
        let g = Graph::random(80, 3, 4);
        let (r, c) = run_bfs(
            CompilerId::Pgi,
            &CompileOptions::gpu(),
            &program(&VariantCfg::independent()),
            &g,
            0,
        );
        assert!(
            r.kernel_stats
                .iter()
                .filter(|s| s.name.contains("kernel"))
                .all(|s| !s.ran_on_device),
            "PGI must keep BFS on the host"
        );
        let v = compare_i32(r.buffer(&c, "cost").unwrap().as_i32(), &reference(&g, 0));
        assert!(v.passed, "{}", v.detail);
        // The PTX stubs are tiny (Fig. 11: "few PTX instructions").
        assert!(c.module.kernel("bfs_kernel1_kernel").unwrap().len() <= 6);
    }

    #[test]
    fn table7_transfer_schedules() {
        let g = Graph::random(100, 3, 13);
        // CAPS: 3 transfers per frontier iteration.
        let (rc_caps, cc) = run_bfs(
            CompilerId::Caps,
            &CompileOptions::gpu(),
            &program(&VariantCfg::independent()),
            &g,
            0,
        );
        assert_eq!(cc.transfers, TransferPolicy::PerIteration);
        assert!(
            (rc_caps.transfers_per_while_iter - 3.0).abs() < 0.5,
            "CAPS: expected ~3 transfers/iteration, got {}",
            rc_caps.transfers_per_while_iter
        );
        // PGI: 4 transfers in total (3 copy-ins + 1 copy-out).
        let (rp, _cp) = run_bfs(
            CompilerId::Pgi,
            &CompileOptions::gpu(),
            &program(&VariantCfg::independent()),
            &g,
            0,
        );
        assert_eq!(
            rp.transfers.total_count(),
            4,
            "PGI: h2d={} d2h={}",
            rp.transfers.h2d_count,
            rp.transfers.d2h_count
        );
    }

    #[test]
    fn opencl_version_computes_correct_levels() {
        let g = Graph::random(150, 4, 21);
        let (r, c) = run_bfs(
            CompilerId::OpenClHand,
            &CompileOptions::gpu(),
            &opencl_program(),
            &g,
            0,
        );
        let v = compare_i32(r.buffer(&c, "cost").unwrap().as_i32(), &reference(&g, 0));
        assert!(v.passed, "{}", v.detail);
    }

    #[test]
    fn mic_baseline_beats_gpu_baseline() {
        // Fig. 10: the sequential baseline is faster on MIC.
        let p = program(&VariantCfg::baseline());
        let o = CompileOptions::gpu();
        let cg = compile(CompilerId::Caps, &p, &o).unwrap();
        let cm = compile(CompilerId::Caps, &p, &CompileOptions::mic()).unwrap();
        let rc = RunConfig::timing(
            vec![
                ("n".into(), 1_000_000.0),
                ("nedges".into(), 4_000_000.0),
                ("source".into(), 0.0),
            ],
            10,
        )
        .with_hints(hints(4.0, 0.2));
        let tg = run(&cg, &rc).unwrap().elapsed;
        let tm = run(&cm, &rc).unwrap().elapsed;
        assert!(tm < tg, "MIC {tm} should beat GPU {tg} for sequential BFS");
    }

    #[test]
    fn independent_gives_large_speedups_on_both_devices() {
        // Fig. 10: ~400× on GPU, ~30× on MIC (order of magnitude).
        let base = program(&VariantCfg::baseline());
        let indep = program(&VariantCfg::independent());
        let rc = RunConfig::timing(
            vec![
                ("n".into(), 4_000_000.0),
                ("nedges".into(), 16_000_000.0),
                ("source".into(), 0.0),
            ],
            12,
        )
        .with_hints(hints(4.0, 0.15));
        for (opts, lo, hi) in [
            (CompileOptions::gpu(), 50.0, 5000.0),
            (CompileOptions::mic(), 5.0, 500.0),
        ] {
            let cb = compile(CompilerId::Caps, &base, &opts).unwrap();
            let ci = compile(CompilerId::Caps, &indep, &opts).unwrap();
            let tb = run(&cb, &rc).unwrap().kernel_time;
            let ti = run(&ci, &rc).unwrap().kernel_time;
            let sp = tb / ti;
            assert!(
                (lo..hi).contains(&sp),
                "{:?}: speedup {sp:.0} outside [{lo}, {hi}]",
                opts.target
            );
        }
    }
}
