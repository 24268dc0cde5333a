//! Compiler identities, targets, flags (Table I) and quirk toggles.

/// The three "compilers" of the study.
///
/// `OpenClHand` is not a directive compiler: it stands for the
/// hand-written OpenCL versions of the benchmarks, which we route
/// through the same lowering machinery so their PTX can be counted and
/// compared (the paper compares OpenACC-generated PTX against the
/// OpenCL versions' PTX in Figures 9 and 11).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompilerId {
    /// CAPS 3.4.1 — source-to-source, CUDA and OpenCL back ends,
    /// targets NVIDIA GPU, AMD GPU and Intel MIC.
    Caps,
    /// PGI 14.9 — CUDA back end only, NVIDIA GPU only.
    Pgi,
    /// Hand-written OpenCL (Rodinia / Hydro OpenCL versions).
    OpenClHand,
    /// OpenARC (Oak Ridge, closed beta in 2014) — the paper's planned
    /// future research vehicle; modeled as a bug-free CAPS-compatible
    /// compiler and the substrate for auto-tuning.
    OpenArc,
}

impl CompilerId {
    pub fn label(self) -> &'static str {
        match self {
            CompilerId::Caps => "CAPS 3.4.1",
            CompilerId::Pgi => "PGI 14.9",
            CompilerId::OpenClHand => "OpenCL (hand-written)",
            CompilerId::OpenArc => "OpenARC (beta)",
        }
    }
}

/// Code-generation back end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    Cuda,
    OpenCl,
}

/// Compilation / execution target device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// NVIDIA Kepler K40 (the paper's GPU node).
    GpuK40,
    /// AMD FirePro-class GPU (CAPS and PGI both targeted AMD,
    /// Section II-C; exercised by the `device_type` clause).
    AmdGpu,
    /// Intel Xeon Phi 5110P (the paper's MIC node).
    Mic5110P,
    /// The Sandy Bridge host CPU (fallback execution, Hydro's host
    /// portions).
    HostCpu,
}

impl DeviceKind {
    /// The OpenACC `device_type` name this target answers to.
    pub fn acc_device_type(self) -> Option<paccport_ir::AccDeviceType> {
        match self {
            DeviceKind::GpuK40 => Some(paccport_ir::AccDeviceType::Nvidia),
            DeviceKind::AmdGpu => Some(paccport_ir::AccDeviceType::Radeon),
            DeviceKind::Mic5110P => Some(paccport_ir::AccDeviceType::XeonPhi),
            DeviceKind::HostCpu => None,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            DeviceKind::GpuK40 => "K40",
            DeviceKind::AmdGpu => "FirePro",
            DeviceKind::Mic5110P => "5110P",
            DeviceKind::HostCpu => "host CPU",
        }
    }
}

/// Host-side C compiler used for the CPU portions (Figure 15 shows
/// Hydro speeding up when GCC is swapped for the Intel compiler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostCompiler {
    Gcc,
    Intel,
}

/// Command-line flags from Table I of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Flag {
    /// `-O4` (PGI) — optimization level.
    O4,
    /// `-fast` (PGI) — fast math library.
    Fast,
    /// `-Mvect` (PGI) — vectorization.
    Mvect,
    /// `-Munroll` (PGI) — ILP unrolling.
    Munroll,
    /// `-Msafeptr` (PGI) — assert no pointer aliasing.
    Msafeptr,
    /// `-fastmath` (CUDA C) — fast math library.
    FastMath,
    /// `-prec-div=false` (CUDA C).
    PrecDivFalse,
    /// `-code=sm_35` (CUDA C).
    CodeSm35,
    /// `-arch=compute_35` (CUDA C).
    ArchCompute35,
    /// `-Xhmppcg -grid-block-size,BXxBY` (CAPS) — gridify block shape.
    GridBlockSize(u32, u32),
}

/// Behavioural quirks of the 2014-era toolchains, reconstructed from
/// the paper's observations. Each quirk is independently togglable so
/// the ablation benches can show which finding each one produces.
#[derive(Debug, Clone, PartialEq)]
pub struct QuirkSet {
    /// CAPS: with no explicit gang/worker clauses and no `independent`
    /// directive, the compilation log claims `gangs(192)/workers(256)`
    /// but the generated codelet actually runs `gang(1), worker(1)` —
    /// the bug behind LUD's 1000× baseline gap (Section V-A2).
    pub caps_default_gang1: bool,
    /// CAPS: `unroll(n), jam` on a kernel with no plain inner loop
    /// reports success but leaves the PTX unchanged — the "fake
    /// successful message" of Section V-B3.
    pub caps_fake_unroll_success: bool,
    /// CAPS (CUDA back end only): unroll-and-jam fails on inner loops
    /// that accumulate into a scalar inside kernels that also carry a
    /// `reduction`-style pattern — observed on Back Propagation, where
    /// the OpenCL back end *did* unroll (Section V-D1).
    pub caps_cuda_unroll_fails_on_accum: bool,
    /// CAPS: the `tile` clause silently no-ops on kernels whose body
    /// contains an inner sequential loop (LUD), while flat-body
    /// kernels are strip-mined without any shared-memory staging
    /// (Sections III-D, V-A3, V-B3).
    pub caps_tile_silent_on_nested: bool,
    /// CAPS: the `reduction` directive generates `ld.shared`/
    /// `st.shared` but fails to actually speed up the GPU execution
    /// (Section V-D2).
    pub caps_reduction_perf_bug: bool,
    /// CAPS: the `reduction` directive produces wrong results on MIC
    /// (Section V-D2).
    pub caps_reduction_wrong_on_mic: bool,
    /// CAPS: no data region is kept live across a dynamically-bounded
    /// host loop, so BFS re-transfers per frontier iteration
    /// (Table VII: 3 transfers per iteration).
    pub caps_retransfer_in_dynamic_loops: bool,
    /// PGI: `independent` on loops with indirect (non-affine) accesses
    /// is ignored; the kernel is kept on the host — the BFS finding
    /// discovered via `PGI_ACC_TIME`/nvprof (Section V-C1).
    pub pgi_conservative_indirection: bool,
    /// PGI: once `independent` is present, explicit gang/worker
    /// clauses are ignored; PGI picks its own `[128,1]` distribution
    /// (Sections III-A, V-A2).
    pub pgi_locks_distribution: bool,
    /// PGI: `-Munroll` duplicates arithmetic/data-movement PTX without
    /// improving time (Section V-B3). (The duplication itself is real
    /// unrolling; the quirk models that PGI does not re-schedule, so
    /// no speedup materialises.)
    pub pgi_unroll_no_speedup: bool,
    /// PGI: refuses to compile pointer-heavy sources (Hydro's headers)
    /// (Section V-E).
    pub pgi_pointer_alias_sensitivity: bool,
}

impl QuirkSet {
    /// Everything on — the faithful 2014 reproduction.
    pub fn faithful() -> Self {
        QuirkSet {
            caps_default_gang1: true,
            caps_fake_unroll_success: true,
            caps_cuda_unroll_fails_on_accum: true,
            caps_tile_silent_on_nested: true,
            caps_reduction_perf_bug: true,
            caps_reduction_wrong_on_mic: true,
            caps_retransfer_in_dynamic_loops: true,
            pgi_conservative_indirection: true,
            pgi_locks_distribution: true,
            pgi_unroll_no_speedup: true,
            pgi_pointer_alias_sensitivity: true,
        }
    }

    /// Everything off — an idealized bug-free toolchain, used by the
    /// ablation benches.
    pub fn none() -> Self {
        QuirkSet {
            caps_default_gang1: false,
            caps_fake_unroll_success: false,
            caps_cuda_unroll_fails_on_accum: false,
            caps_tile_silent_on_nested: false,
            caps_reduction_perf_bug: false,
            caps_reduction_wrong_on_mic: false,
            caps_retransfer_in_dynamic_loops: false,
            pgi_conservative_indirection: false,
            pgi_locks_distribution: false,
            pgi_unroll_no_speedup: false,
            pgi_pointer_alias_sensitivity: false,
        }
    }
}

impl Default for QuirkSet {
    fn default() -> Self {
        QuirkSet::faithful()
    }
}

/// Full compile configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileOptions {
    pub backend: Backend,
    pub target: DeviceKind,
    pub host_compiler: HostCompiler,
    pub flags: Vec<Flag>,
    pub quirks: QuirkSet,
}

impl CompileOptions {
    pub fn gpu() -> Self {
        CompileOptions {
            backend: Backend::Cuda,
            target: DeviceKind::GpuK40,
            host_compiler: HostCompiler::Gcc,
            flags: vec![Flag::ArchCompute35, Flag::CodeSm35],
            quirks: QuirkSet::faithful(),
        }
    }

    /// Target the AMD GPU via the OpenCL back end.
    pub fn amd() -> Self {
        CompileOptions {
            backend: Backend::OpenCl,
            target: DeviceKind::AmdGpu,
            host_compiler: HostCompiler::Gcc,
            flags: vec![],
            quirks: QuirkSet::faithful(),
        }
    }

    pub fn mic() -> Self {
        CompileOptions {
            backend: Backend::OpenCl,
            target: DeviceKind::Mic5110P,
            host_compiler: HostCompiler::Gcc,
            flags: vec![],
            quirks: QuirkSet::faithful(),
        }
    }

    pub fn with_flag(mut self, f: Flag) -> Self {
        self.flags.push(f);
        self
    }

    pub fn with_host_compiler(mut self, hc: HostCompiler) -> Self {
        self.host_compiler = hc;
        self
    }

    pub fn has_flag(&self, f: &Flag) -> bool {
        self.flags.contains(f)
    }

    /// The gridify block shape: the `-Xhmppcg -grid-block-size` flag
    /// if given, else CAPS's 32×4 default (Table VI).
    pub fn grid_block_size(&self) -> (u32, u32) {
        for f in &self.flags {
            if let Flag::GridBlockSize(x, y) = f {
                return (*x, *y);
            }
        }
        (32, 4)
    }

    /// Whether PGI-style `-Munroll` unrolling was requested.
    pub fn munroll(&self) -> bool {
        self.has_flag(&Flag::Munroll)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_gridify_shape_is_32x4() {
        let o = CompileOptions::gpu();
        assert_eq!(o.grid_block_size(), (32, 4));
        let o = o.with_flag(Flag::GridBlockSize(64, 2));
        assert_eq!(o.grid_block_size(), (64, 2));
    }

    #[test]
    fn quirk_presets() {
        assert!(QuirkSet::faithful().caps_default_gang1);
        assert!(!QuirkSet::none().caps_default_gang1);
        assert_eq!(QuirkSet::default(), QuirkSet::faithful());
    }

    #[test]
    fn flag_lookup() {
        let o = CompileOptions::gpu().with_flag(Flag::Munroll);
        assert!(o.munroll());
        assert!(!CompileOptions::mic().munroll());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(CompilerId::Caps.label(), "CAPS 3.4.1");
        assert_eq!(DeviceKind::Mic5110P.label(), "5110P");
    }
}
