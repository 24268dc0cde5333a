//! The roofline timing model: launch time = max(compute, memory) +
//! overhead, with parallelism ramps, warp-utilization and gentle
//! bandwidth contention.
//!
//! Every function here is pure. The runner takes what a launch site
//! never changes within a run once ([`PlanTerms`], and [`LaunchShape`]
//! whenever the dimensions repeat) and charges the `timing.*` trace
//! counters once per run.

use crate::device::{DeviceSpec, ParallelUnit};
use crate::dyncost::DynCost;
use paccport_compilers::{ExecStrategy, KernelPlan, LaunchDims};

/// Warp/SIMD utilization of a block shape: threads per block divided
/// by the warp-rounded thread count. Work-group-scheduled devices
/// (MIC) execute groups scalar-per-core, so the notion does not apply.
pub fn warp_efficiency(spec: &DeviceSpec, dims: &LaunchDims) -> f64 {
    if spec.parallel_unit == ParallelUnit::WorkGroups {
        return 1.0;
    }
    let tpb = dims.threads_per_block().max(1) as f64;
    let w = spec.warp_width.max(1) as f64;
    tpb / ((tpb / w).ceil() * w)
}

/// How many independent schedulable units a launch supplies.
pub fn parallel_units(spec: &DeviceSpec, dims: &LaunchDims) -> f64 {
    match spec.parallel_unit {
        ParallelUnit::Threads => dims.total_threads() as f64 * warp_efficiency(spec, dims),
        // One work-group per core thread; the items inside run
        // sequentially on it (KNC OpenCL).
        ParallelUnit::WorkGroups => dims
            .grid
            .iter()
            .map(|g| *g as f64)
            .product::<f64>()
            .max(1.0),
    }
}

/// Achievable instruction throughput (instr/s) for a launch.
pub fn compute_rate(spec: &DeviceSpec, dims: &LaunchDims) -> f64 {
    let eff = warp_efficiency(spec, dims);
    let units = parallel_units(spec, dims);
    let resident = units.min(spec.max_concurrent_threads as f64);
    (resident * spec.single_thread_ips).min(spec.peak_ips * eff)
}

/// Fraction of peak memory bandwidth achieved by a launch: ramps up
/// with concurrency, saturates at `mem_sat_threads`, then degrades as
/// `(sat/units)^contention_exp` under oversubscription.
pub fn bw_fraction(spec: &DeviceSpec, dims: &LaunchDims) -> f64 {
    // Memory concurrency counts *real* threads (every thread's
    // requests occupy the memory system, warp fill notwithstanding);
    // on work-group-scheduled devices it is the group count.
    let raw = match spec.parallel_unit {
        ParallelUnit::Threads => dims.total_threads() as f64,
        ParallelUnit::WorkGroups => dims.grid.iter().map(|g| *g as f64).product::<f64>(),
    };
    let units = raw.min(spec.max_concurrent_threads as f64).max(1.0);
    let sat = spec.mem_sat_threads;
    let ramp = if units <= sat {
        units / sat
    } else {
        (sat / units).powf(spec.contention_exp)
    };
    // Block-shape term (thread-scheduled GPUs only): at equal total
    // thread counts, many small blocks spread across more SMs and
    // suffer less intra-SM cache thrash than few large ones — the
    // effect behind the paper's "(gang ≥ 256, worker 16)" optimum for
    // the memory-bound LUD (Section V-A2, Fig. 4).
    let shape = if spec.parallel_unit == ParallelUnit::Threads && spec.warp_width > 1 {
        let tpb = dims.threads_per_block().max(1) as f64;
        (spec.warp_width as f64 / tpb).powf(0.05).clamp(0.9, 1.1)
    } else {
        1.0
    };
    ramp * shape
}

/// The launch-shape terms of the roofline: [`warp_efficiency`],
/// [`compute_rate`] and [`bw_fraction`]. Each is a pure function of the
/// device and the launch dimensions, so a kernel relaunched with the
/// same `dims` can reuse them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchShape {
    warp_efficiency: f64,
    compute_rate: f64,
    bw_fraction: f64,
}

impl LaunchShape {
    pub fn new(spec: &DeviceSpec, dims: &LaunchDims) -> LaunchShape {
        LaunchShape {
            warp_efficiency: warp_efficiency(spec, dims),
            compute_rate: compute_rate(spec, dims),
            bw_fraction: bw_fraction(spec, dims),
        }
    }
}

/// What [`kernel_launch_time`] reads of a [`KernelPlan`]: where the
/// kernel executes, its prologue's issue slots per thread and its
/// performance penalty. A plan is fixed for a whole run, so these are
/// taken once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanTerms {
    exec: ExecStrategy,
    prologue_slots: f64,
    perf_penalty: f64,
}

impl PlanTerms {
    pub fn new(plan: &KernelPlan) -> PlanTerms {
        PlanTerms {
            exec: plan.exec,
            prologue_slots: plan.prologue.total() as f64,
            perf_penalty: plan.perf_penalty,
        }
    }
}

/// Modeled time of one kernel launch.
///
/// * `plan` — [`PlanTerms::new`] of the kernel's plan.
/// * `shape` — [`LaunchShape::new`] of `spec` and `dims`.
/// * `n_par` — number of parallel iterations the cost tree is "per"
///   (the distributed-iteration count; 1 for fully serialized runs).
/// * `per_iter` — averaged dynamic cost per parallel iteration.
/// * `host` — the host CPU spec, used for host-fallback execution.
pub fn kernel_launch_time(
    spec: &DeviceSpec,
    host: &DeviceSpec,
    plan: &PlanTerms,
    dims: &LaunchDims,
    shape: &LaunchShape,
    n_par: u64,
    per_iter: &DynCost,
) -> f64 {
    // Per-launch simulated hardware counters: SIMD lane fill and
    // resident-thread occupancy — the divergence/occupancy numbers a
    // real profiler would report for this launch shape.
    if paccport_trace::metrics::metrics_enabled() && plan.exec == ExecStrategy::DeviceParallel {
        let eff = shape.warp_efficiency;
        let units = parallel_units(spec, dims);
        let occupancy = (units.min(spec.max_concurrent_threads as f64)
            / spec.max_concurrent_threads as f64)
            .clamp(0.0, 1.0);
        paccport_trace::metrics::observe("devsim_warp_efficiency", &[("device", &spec.name)], eff);
        paccport_trace::metrics::observe("devsim_occupancy", &[("device", &spec.name)], occupancy);
        if eff < 1.0 {
            paccport_trace::metrics::counter_add(
                "devsim_divergent_launches_total",
                &[("device", &spec.name)],
                1,
            );
        }
    }
    let total_issue =
        n_par as f64 * per_iter.issue_slots() + dims.total_threads() as f64 * plan.prologue_slots;
    let total_bytes = n_par as f64 * per_iter.mem_bytes();
    let t = match plan.exec {
        ExecStrategy::HostSequential => total_issue / host.single_thread_ips,
        ExecStrategy::DeviceSequential => {
            total_issue / spec.single_thread_ips + spec.launch_overhead_s
        }
        ExecStrategy::DeviceParallel => {
            let compute = total_issue / shape.compute_rate;
            let mem = total_bytes / (spec.mem_bw * shape.bw_fraction);
            compute.max(mem) + spec.launch_overhead_s
        }
    };
    t * plan.perf_penalty
}

/// Modeled time of one host↔device transfer of `bytes`.
pub fn transfer_time(spec: &DeviceSpec, bytes: u64) -> f64 {
    spec.link_latency_s + bytes as f64 / spec.link_bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{host_cpu, k40, phi5110p};
    use paccport_compilers::{Correctness, CostTree, DistSpec, HostCompiler, KernelPlan};
    use paccport_ptx::{Category, CategoryCounts};

    fn plan(exec: ExecStrategy) -> KernelPlan {
        KernelPlan {
            kernel: "k".into(),
            exec,
            dist: DistSpec::PgiAuto { vector: 128 },
            prologue: CategoryCounts::default(),
            cost: CostTree::default(),
            correctness: Correctness::Correct,
            config_label: "128x1".into(),
            perf_penalty: 1.0,
        }
    }

    /// One launch with its shape computed on the spot.
    fn launch_time(
        spec: &DeviceSpec,
        host: &DeviceSpec,
        plan: &KernelPlan,
        dims: &LaunchDims,
        n_par: u64,
        per_iter: &DynCost,
    ) -> f64 {
        let shape = LaunchShape::new(spec, dims);
        let terms = PlanTerms::new(plan);
        kernel_launch_time(spec, host, &terms, dims, &shape, n_par, per_iter)
    }

    fn cost(instr: f64, ldst: f64) -> DynCost {
        let mut c = CategoryCounts::default();
        c.add_n(Category::Arithmetic, instr as u64);
        DynCost::from_counts(&c, ldst as u64)
    }

    #[test]
    fn parallel_beats_sequential_by_orders_of_magnitude() {
        let gpu = k40();
        let host = host_cpu(HostCompiler::Gcc);
        let n: u64 = 1 << 22;
        let per = cost(20.0, 2.0);
        let par = plan(ExecStrategy::DeviceParallel);
        let seq = plan(ExecStrategy::DeviceSequential);
        let dims_par = DistSpec::PgiAuto { vector: 128 }.launch_dims(&[n]);
        let dims_seq = DistSpec::Sequential.launch_dims(&[n]);
        let t_par = launch_time(&gpu, &host, &par, &dims_par, n, &per);
        let t_seq = launch_time(&gpu, &host, &seq, &dims_seq, n, &per);
        let speedup = t_seq / t_par;
        assert!(
            speedup > 300.0 && speedup < 30000.0,
            "speedup {speedup} out of the paper's band"
        );
    }

    #[test]
    fn mic_single_thread_beats_gpu_single_thread() {
        let gpu = k40();
        let mic = phi5110p();
        let host = host_cpu(HostCompiler::Gcc);
        let per = cost(50.0, 4.0);
        let seq = plan(ExecStrategy::DeviceSequential);
        let dims = DistSpec::Sequential.launch_dims(&[1 << 20]);
        let t_gpu = launch_time(&gpu, &host, &seq, &dims, 1 << 20, &per);
        let t_mic = launch_time(&mic, &host, &seq, &dims, 1 << 20, &per);
        assert!(
            t_mic < t_gpu,
            "sequential code must run faster on MIC ({t_mic} vs {t_gpu})"
        );
    }

    #[test]
    fn memory_bound_kernels_prefer_moderate_worker_counts() {
        // The Fig. 4 shape: for a memory-bound kernel, gang 256 ×
        // worker 16 beats both worker 8 (bandwidth not saturated) and
        // worker 64 (contention).
        let gpu = k40();
        let host = host_cpu(HostCompiler::Gcc);
        let par = plan(ExecStrategy::DeviceParallel);
        let n: u64 = 4096 * 4096;
        let per = cost(6.0, 3.0); // memory-bound mix
        let t = |worker: u32| {
            let d = DistSpec::GangWorker { gang: 256, worker };
            let dims = d.launch_dims(&[n]);
            launch_time(&gpu, &host, &par, &dims, n, &per)
        };
        let t8 = t(8);
        let t16 = t(16);
        let t64 = t(64);
        assert!(t16 < t8, "worker16 {t16} should beat worker8 {t8}");
        assert!(t16 < t64, "worker16 {t16} should beat worker64 {t64}");
    }

    #[test]
    fn warp_efficiency_penalizes_ragged_blocks() {
        let gpu = k40();
        let full = DistSpec::PgiAuto { vector: 128 }.launch_dims(&[1 << 20]);
        let ragged = DistSpec::GangWorker {
            gang: 256,
            worker: 48,
        }
        .launch_dims(&[1 << 20]);
        assert_eq!(warp_efficiency(&gpu, &full), 1.0);
        assert!(warp_efficiency(&gpu, &ragged) < 0.8);
    }

    #[test]
    fn icc_host_is_faster_than_gcc_host() {
        let gpu = k40();
        let hostg = host_cpu(HostCompiler::Gcc);
        let hosti = host_cpu(HostCompiler::Intel);
        let p = plan(ExecStrategy::HostSequential);
        let dims = DistSpec::Sequential.launch_dims(&[1]);
        let per = cost(100.0, 0.0);
        let tg = launch_time(&gpu, &hostg, &p, &dims, 1 << 20, &per);
        let ti = launch_time(&gpu, &hosti, &p, &dims, 1 << 20, &per);
        assert!(ti < tg);
    }

    #[test]
    fn transfer_time_has_latency_floor() {
        let gpu = k40();
        let tiny = transfer_time(&gpu, 4);
        let big = transfer_time(&gpu, 1 << 30);
        assert!(tiny >= gpu.link_latency_s);
        assert!(big > 0.15, "1 GiB over ~6 GB/s takes > 150 ms, got {big}");
    }

    #[test]
    fn perf_penalty_multiplies() {
        let gpu = k40();
        let host = host_cpu(HostCompiler::Gcc);
        let mut p = plan(ExecStrategy::DeviceParallel);
        let dims = DistSpec::PgiAuto { vector: 128 }.launch_dims(&[1 << 16]);
        let per = cost(20.0, 2.0);
        let t1 = launch_time(&gpu, &host, &p, &dims, 1 << 16, &per);
        p.perf_penalty = 128.0;
        let t2 = launch_time(&gpu, &host, &p, &dims, 1 << 16, &per);
        assert!((t2 / t1 - 128.0).abs() < 1e-6);
    }
}
