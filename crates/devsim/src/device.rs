//! Analytic device models of the paper's test bed: the π
//! supercomputer's GPU node (2× NVIDIA Kepler K40 + Sandy Bridge
//! E5-2670) and MIC node (2× Intel Xeon Phi 5110P).
//!
//! The model is a roofline with a parallelism ramp: a kernel launch
//! costs `max(compute, memory) + launch overhead`, where compute
//! throughput rises with resident threads until the core array
//! saturates, and memory bandwidth ramps up with concurrency and then
//! degrades gently under oversubscription. The constants below are
//! derived from the devices' public specifications plus a small number
//! of calibration choices documented next to each field; the *shapes*
//! of the paper's results (who wins, crossovers, the ~1000× sequential
//! gap, the MIC-vs-GPU PPR band) are reproduced by construction of the
//! mechanism, not by fitting each figure.

use paccport_compilers::{DeviceKind, HostCompiler};

/// What the device schedules independently.
///
/// GPUs schedule *threads* (warps of them); Knights Corner's OpenCL
/// runtime of the era mapped one *work-group* to one core thread,
/// serializing (or weakly vectorizing) the work-items inside — which
/// is why a 16-iteration kernel distributed as a single work-group
/// crawled on the MIC however many workers it requested, and why the
/// paper's best MIC distribution is `(gang 240, worker 1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelUnit {
    Threads,
    WorkGroups,
}

/// An accelerator (or host) performance description.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    pub name: String,
    pub kind: DeviceKind,
    /// Peak instruction issue rate with full occupancy (instr/s).
    pub peak_ips: f64,
    /// Effective per-thread issue rate when latency is exposed
    /// (instr/s) — what a single sequential thread achieves.
    pub single_thread_ips: f64,
    /// Maximum concurrently resident threads (K40: 15 SMX × 2048;
    /// 5110P: 60 cores × 4 hyperthreads).
    pub max_concurrent_threads: u64,
    /// Scheduling granularity (see [`ParallelUnit`]).
    pub parallel_unit: ParallelUnit,
    /// SIMD/warp width used for intra-block utilization.
    pub warp_width: u32,
    /// Achievable global-memory bandwidth (bytes/s).
    pub mem_bw: f64,
    /// Threads needed to saturate the memory system.
    pub mem_sat_threads: f64,
    /// Oversubscription exponent: beyond saturation, effective
    /// bandwidth scales by `(sat/threads)^exp`.
    pub contention_exp: f64,
    /// Host→device link bandwidth (bytes/s) and per-transfer latency.
    pub link_bw: f64,
    pub link_latency_s: f64,
    /// Fixed kernel-launch overhead (s).
    pub launch_overhead_s: f64,
}

/// NVIDIA Kepler K40 (GK110B): 15 SMX × 192 cores @ 745 MHz,
/// 288 GB/s GDDR5, PCIe gen3.
pub fn k40() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA Tesla K40".into(),
        kind: DeviceKind::GpuK40,
        // 2880 cores × 0.745 GHz — instruction issue ceiling.
        peak_ips: 2880.0 * 0.745e9,
        // A lone in-order GPU thread with exposed latency:
        // ~clock / (pipeline latency ≈ 3).
        single_thread_ips: 0.25e9,
        max_concurrent_threads: 15 * 2048,
        parallel_unit: ParallelUnit::Threads,
        warp_width: 32,
        // ~65% of the 288 GB/s nominal.
        mem_bw: 190.0e9,
        mem_sat_threads: 4096.0,
        contention_exp: 0.07,
        // PCIe gen3 x16 effective.
        link_bw: 6.0e9,
        link_latency_s: 12.0e-6,
        launch_overhead_s: 8.0e-6,
    }
}

/// Intel Xeon Phi 5110P (Knights Corner): 60 cores × 4 threads @
/// 1.053 GHz, 320 GB/s GDDR5 (much less achievable), 512-bit SIMD.
pub fn phi5110p() -> DeviceSpec {
    DeviceSpec {
        name: "Intel Xeon Phi 5110P".into(),
        kind: DeviceKind::Mic5110P,
        // 240 hardware threads; OpenCL on KNC vectorized poorly in
        // this era, so the effective peak is far below the SIMD peak.
        peak_ips: 240.0 * 0.9e9,
        // An in-order Pentium-class core, but a *full core* per
        // thread: much faster than one GPU lane.
        single_thread_ips: 0.8e9,
        max_concurrent_threads: 240,
        parallel_unit: ParallelUnit::WorkGroups,
        warp_width: 16,
        mem_bw: 140.0e9,
        mem_sat_threads: 60.0,
        contention_exp: 0.07,
        link_bw: 5.0e9,
        link_latency_s: 20.0e-6,
        launch_overhead_s: 15.0e-6,
    }
}

/// An AMD FirePro-class GPU (S9150 era: 2816 stream processors @
/// 900 MHz, 320 GB/s, 64-wide wavefronts). CAPS reaches it through the
/// OpenCL back end; it exists here to exercise the OpenACC 2.0
/// `device_type` clause (Section II-B).
pub fn amd_firepro() -> DeviceSpec {
    DeviceSpec {
        name: "AMD FirePro S9150".into(),
        kind: DeviceKind::AmdGpu,
        peak_ips: 2816.0 * 0.9e9,
        single_thread_ips: 0.2e9,
        max_concurrent_threads: 44 * 2560,
        parallel_unit: ParallelUnit::Threads,
        // GCN wavefronts are 64 wide — the key scheduling difference
        // the device_type clause exists to absorb.
        warp_width: 64,
        mem_bw: 210.0e9,
        mem_sat_threads: 8192.0,
        contention_exp: 0.07,
        link_bw: 6.0e9,
        link_latency_s: 12.0e-6,
        launch_overhead_s: 10.0e-6,
    }
}

/// The Sandy Bridge host (E5-2670 @ 2.6 GHz), running host-fallback
/// kernels and the host portions of Hydro. The Intel compiler's
/// vectorizer gives it a measurable edge over GCC (Figure 15).
pub fn host_cpu(hc: HostCompiler) -> DeviceSpec {
    let ips = match hc {
        HostCompiler::Gcc => 1.5e9,
        HostCompiler::Intel => 2.4e9,
    };
    DeviceSpec {
        name: format!(
            "Intel Xeon E5-2670 ({})",
            match hc {
                HostCompiler::Gcc => "GCC",
                HostCompiler::Intel => "ICC",
            }
        ),
        kind: DeviceKind::HostCpu,
        peak_ips: ips,
        single_thread_ips: ips,
        max_concurrent_threads: 1,
        parallel_unit: ParallelUnit::Threads,
        warp_width: 1,
        mem_bw: 20.0e9,
        mem_sat_threads: 1.0,
        contention_exp: 0.0,
        link_bw: f64::INFINITY,
        link_latency_s: 0.0,
        launch_overhead_s: 0.0,
    }
}

/// Look up the spec for a target device.
pub fn spec_for(kind: DeviceKind, hc: HostCompiler) -> DeviceSpec {
    match kind {
        DeviceKind::GpuK40 => k40(),
        DeviceKind::AmdGpu => amd_firepro(),
        DeviceKind::Mic5110P => phi5110p(),
        DeviceKind::HostCpu => host_cpu(hc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_has_lower_single_thread_than_mic() {
        // The premise behind sequential BFS/BP baselines running
        // faster on MIC than GPU (Sections V-C1, V-D1).
        assert!(phi5110p().single_thread_ips > k40().single_thread_ips * 3.0);
    }

    #[test]
    fn gpu_peak_dwarfs_mic_peak() {
        // All PPR values in Fig. 16 are > 1 (K40 beats 5110P).
        let r = k40().peak_ips / phi5110p().peak_ips;
        assert!(r > 5.0 && r < 20.0, "peak ratio {r}");
    }

    #[test]
    fn icc_beats_gcc_on_host() {
        assert!(
            host_cpu(HostCompiler::Intel).single_thread_ips
                > host_cpu(HostCompiler::Gcc).single_thread_ips
        );
    }

    #[test]
    fn spec_lookup_matches_kind() {
        assert_eq!(
            spec_for(DeviceKind::GpuK40, HostCompiler::Gcc).kind,
            DeviceKind::GpuK40
        );
        assert_eq!(
            spec_for(DeviceKind::Mic5110P, HostCompiler::Gcc).kind,
            DeviceKind::Mic5110P
        );
    }
}
