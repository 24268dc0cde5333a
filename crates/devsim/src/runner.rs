//! End-to-end execution of a compiled program on a simulated device:
//! host control flow, transfer accounting (the evidence behind
//! Table VII), modeled kernel times, and — in functional mode — real
//! execution of every kernel so results can be validated.
//!
//! Functional and timing-only runs share one launch path. Each `Launch`
//! site of the host program gets a number, in the order a depth-first
//! walk meets it, and its entry is built at the site's first execution:
//! the kernel's plan, its compiled timing path (`CostPlan`), what the
//! roofline reads of the plan ([`PlanTerms`]), the launch shape when the
//! distribution ignores the extents, and the arrays the kernel touches.
//! A later launch from the site computes only what reads host
//! variables: the extents (when the launch needs them), the dynamic
//! cost, and the roofline. The `timing.*` trace counters are charged
//! once per run, when the runner is dropped.
//!
//! One walk can time several configurations that differ only in their
//! distributions ([`crate::group`]); [`run`] is the case of one. Each
//! launch then computes its extents, dynamic cost and data movement
//! once, and each configuration runs the roofline and adds to its own
//! clocks in the order a run of it alone would.

use crate::device::{host_cpu, spec_for, DeviceSpec};
use crate::dyncost::{CostHints, CostPlan, DynCost};
use crate::interp::{exec_kernel_traced, fresh_vars, KernelFidelity, V};
use crate::memory::{Buffer, TransferLedger};
use crate::race::{Race, RaceTracker};
use crate::tier::ExecTier;
use crate::timing::{kernel_launch_time, transfer_time, LaunchShape, PlanTerms};
use paccport_compilers::common::dist_rank_of;
use paccport_compilers::{
    CompiledProgram, Correctness, DistSpec, ExecStrategy, KernelPlan, LaunchDims, TransferPolicy,
};
use paccport_ir::{ArrayId, Dir, HostStmt, Intent, Kernel, KernelBody, Scalar};
use std::collections::BTreeSet;

/// How faithfully to run the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Allocate buffers, execute every kernel, produce checkable
    /// results. Use for validation-scale inputs.
    Functional,
    /// Model time only: no buffers, no execution. Flag-controlled
    /// loops run `while_iters` iterations. Use for paper-scale inputs.
    TimingOnly { while_iters: u32 },
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Parameter values by name (converted per the declared type).
    pub params: Vec<(String, f64)>,
    /// Initial host contents by array name (missing arrays start
    /// zeroed).
    pub inputs: Vec<(String, Buffer)>,
    pub fidelity: Fidelity,
    pub hints: CostHints,
    /// Run the dynamic race detector during functional execution,
    /// collecting [`RunResult::races`]. Ignored in timing-only mode
    /// (nothing executes there).
    pub race_check: bool,
    /// Label for fault-injection site keys (the engine sets it to the
    /// cell label). `None` falls back to the program name, so direct
    /// `run` callers still get per-program fault determinism.
    pub fault_scope: Option<String>,
    /// Which interpreter executes kernels during functional runs: the
    /// bytecode VM unless a test pins the tree-walking reference with
    /// [`RunConfig::with_tier`].
    pub tier: ExecTier,
}

impl RunConfig {
    pub fn functional(params: Vec<(String, f64)>) -> Self {
        RunConfig {
            params,
            inputs: Vec::new(),
            fidelity: Fidelity::Functional,
            hints: CostHints::default(),
            race_check: false,
            fault_scope: None,
            tier: ExecTier::Bytecode,
        }
    }

    pub fn timing(params: Vec<(String, f64)>, while_iters: u32) -> Self {
        RunConfig {
            params,
            inputs: Vec::new(),
            fidelity: Fidelity::TimingOnly { while_iters },
            hints: CostHints::default(),
            race_check: false,
            fault_scope: None,
            tier: ExecTier::Bytecode,
        }
    }

    pub fn with_input(mut self, name: &str, buf: Buffer) -> Self {
        self.inputs.push((name.into(), buf));
        self
    }

    pub fn with_hints(mut self, hints: CostHints) -> Self {
        self.hints = hints;
        self
    }

    pub fn with_race_check(mut self, on: bool) -> Self {
        self.race_check = on;
        self
    }

    pub fn with_tier(mut self, tier: ExecTier) -> Self {
        self.tier = tier;
        self
    }
}

/// Per-kernel execution statistics (what `nvprof` / `PGI_ACC_TIME`
/// showed the authors).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelStat {
    pub name: String,
    pub launches: u64,
    pub device_time: f64,
    /// `false` reproduces the paper's BFS discovery: the kernel never
    /// ran on the accelerator.
    pub ran_on_device: bool,
    pub config_label: String,
}

/// Result of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Total modeled wall time (kernels + transfers + host work).
    pub elapsed: f64,
    pub kernel_time: f64,
    pub transfer_time_s: f64,
    pub host_time: f64,
    pub kernel_stats: Vec<KernelStat>,
    pub transfers: TransferLedger,
    /// Iterations the flag-controlled loop executed (0 if none).
    pub while_iterations: u64,
    /// Average transfers per while-loop iteration (Table VII).
    pub transfers_per_while_iter: f64,
    /// Transfers outside the while loop (Table VII's "in total" row).
    pub transfers_outside_while: u64,
    /// Final host buffers (functional mode; empty in timing mode).
    pub host: Vec<Buffer>,
    /// A kernel with a known-wrong plan executed (validation is
    /// expected to fail).
    pub any_known_wrong: bool,
    /// Cross-thread conflicts found by the dynamic race detector
    /// (empty unless [`RunConfig::race_check`] was set), deduplicated
    /// per (kernel, array, kind, level) across launches.
    pub races: Vec<Race>,
    /// Accesses the race detector shadow-logged (0 when off).
    pub race_accesses: u64,
}

impl RunResult {
    /// Host buffer by array name.
    pub fn buffer<'a>(&'a self, c: &CompiledProgram, name: &str) -> Option<&'a Buffer> {
        let id = c.program.array_id(name)?;
        self.host.get(id.0 as usize)
    }

    /// First difference from `other` in any observable field, if any:
    /// host buffers, race set, shadow-log access count, while-loop
    /// iterations, transfer ledger, per-kernel stats and modeled
    /// timings. Floats compare by bit pattern, never numerically, so
    /// two execution tiers agree only if they agree bitwise.
    pub fn diff(&self, other: &RunResult) -> Option<String> {
        let (a, b) = (self, other);
        if a.host.len() != b.host.len() {
            return Some(format!("buffer count {} vs {}", a.host.len(), b.host.len()));
        }
        for (i, (ba, bb)) in a.host.iter().zip(&b.host).enumerate() {
            let (wa, wb) = (ba.bits(), bb.bits());
            if wa.len() != wb.len() {
                return Some(format!("buffer {i} length {} vs {}", wa.len(), wb.len()));
            }
            if let Some(j) = (0..wa.len()).find(|&j| wa[j] != wb[j]) {
                return Some(format!(
                    "buffer {i}[{j}]: bits {:#018x} vs {:#018x}",
                    wa[j], wb[j]
                ));
            }
        }
        if a.races != b.races {
            return Some(format!("race sets differ: {:?} vs {:?}", a.races, b.races));
        }
        if a.race_accesses != b.race_accesses {
            return Some(format!(
                "shadow-logged access counts differ: {} vs {}",
                a.race_accesses, b.race_accesses
            ));
        }
        if a.while_iterations != b.while_iterations {
            return Some(format!(
                "while iterations {} vs {}",
                a.while_iterations, b.while_iterations
            ));
        }
        if a.transfers != b.transfers {
            return Some(format!(
                "transfer ledgers differ: {:?} vs {:?}",
                a.transfers, b.transfers
            ));
        }
        if a.transfers_outside_while != b.transfers_outside_while {
            return Some("transfers outside while differ".into());
        }
        if a.any_known_wrong != b.any_known_wrong {
            return Some(format!(
                "known-wrong flags differ: {} vs {}",
                a.any_known_wrong, b.any_known_wrong
            ));
        }
        if a.kernel_stats.len() != b.kernel_stats.len() {
            return Some("kernel stat counts differ".into());
        }
        for (sa, sb) in a.kernel_stats.iter().zip(&b.kernel_stats) {
            if sa.name != sb.name
                || sa.launches != sb.launches
                || sa.ran_on_device != sb.ran_on_device
                || sa.config_label != sb.config_label
                || sa.device_time.to_bits() != sb.device_time.to_bits()
            {
                return Some(format!("kernel stats differ: {sa:?} vs {sb:?}"));
            }
        }
        for (label, fa, fb) in [
            ("elapsed", a.elapsed, b.elapsed),
            ("kernel_time", a.kernel_time, b.kernel_time),
            ("transfer_time_s", a.transfer_time_s, b.transfer_time_s),
            ("host_time", a.host_time, b.host_time),
            (
                "transfers_per_while_iter",
                a.transfers_per_while_iter,
                b.transfers_per_while_iter,
            ),
        ] {
            if fa.to_bits() != fb.to_bits() {
                return Some(format!("{label}: {fa} vs {fb} (bit-level)"));
            }
        }
        None
    }
}

/// Execute a compiled program.
///
/// When fault injection is active the run is bounded by a step-budget
/// watchdog (armed here unless the engine already armed one around
/// the whole job): a hung interpreter loop or an injected kernel hang
/// unwinds with a typed [`paccport_faults::WatchdogTimeout`] payload
/// that is caught and converted into a `Timeout` error instead of
/// wedging the study.
pub fn run(c: &CompiledProgram, cfg: &RunConfig) -> Result<RunResult, String> {
    walk(c, &[], cfg).map(|mut runs| runs.pop().expect("a walk times its lead"))
}

/// What a configuration that shares another's walk keeps of its own
/// artifact: each plan's distribution and figure label, in plan order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Distribution(Vec<(DistSpec, String)>);

impl Distribution {
    pub(crate) fn of(c: &CompiledProgram) -> Distribution {
        Distribution(
            c.plans
                .iter()
                .map(|p| (p.dist, p.config_label.clone()))
                .collect(),
        )
    }
}

/// Walk `c`'s host program once, timing `c` and, at every launch, each
/// of `others` too: configurations whose artifacts differ from `c`'s
/// only in their plans' distributions and labels (what
/// `group::shares_walk` checks). Returns `c`'s run, then one per
/// entry of `others`, in order; each is what [`run`] gives that
/// configuration alone, bit for bit, and charges the trace counters and
/// the metrics registry as that run would.
///
/// Watchdog and unwinding as in [`run`].
pub(crate) fn walk(
    c: &CompiledProgram,
    others: &[Distribution],
    cfg: &RunConfig,
) -> Result<Vec<RunResult>, String> {
    debug_assert!(
        others.is_empty() || cfg.fidelity != Fidelity::Functional,
        "a functional run executes one configuration's kernels"
    );
    let mut attrs = vec![("program".into(), c.program.name.clone())];
    if !others.is_empty() {
        attrs.push(("configs".into(), (1 + others.len()).to_string()));
    }
    let _span = paccport_trace::span_attrs("devsim.run", attrs);
    let armed_here = paccport_faults::active() && !paccport_faults::watchdog_armed();
    if armed_here {
        paccport_faults::arm_watchdog(paccport_faults::DEFAULT_STEP_BUDGET);
    }
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| walk_inner(c, others, cfg)));
    if armed_here {
        paccport_faults::disarm_watchdog();
    }
    match out {
        Ok(r) => r,
        Err(payload) => match paccport_faults::timeout_of(payload.as_ref()) {
            Some(_) => Err(paccport_faults::describe_panic(payload.as_ref())),
            None => std::panic::resume_unwind(payload),
        },
    }
}

fn walk_inner(
    c: &CompiledProgram,
    others: &[Distribution],
    cfg: &RunConfig,
) -> Result<Vec<RunResult>, String> {
    let spec = spec_for(c.options.target, c.options.host_compiler);
    let host_spec = host_cpu(c.options.host_compiler);
    let mut r = Runner::new(c, others, cfg, spec, host_spec)?;
    for s in &c.program.body {
        r.host_stmt(s)?;
    }
    Ok(r.finish())
}

/// What the roofline reads of a launch site besides its distribution:
/// the same for every configuration of a walk.
#[derive(Clone, Copy)]
struct Roofline {
    terms: PlanTerms,
    /// The kernel runs as one thread (on the device or the host), its
    /// cost tree covering the whole nest.
    serialized: bool,
    /// The distribution ignores the extents.
    fixed_dims: bool,
    /// How many outermost parallel loops are distributed.
    dist_rank: usize,
}

/// One configuration's distribution at a launch site, with its launch
/// dimensions and their shape terms: fixed for the run when the
/// distribution ignores the extents, else those of the latest launch,
/// recomputed only when the dimensions change.
struct SiteDist {
    dist: DistSpec,
    shape: Option<(LaunchDims, LaunchShape)>,
}

impl SiteDist {
    fn new(dist: DistSpec, spec: &DeviceSpec) -> SiteDist {
        SiteDist {
            dist,
            shape: dist
                .fixed_dims()
                .map(|dims| (dims, LaunchShape::new(spec, &dims))),
        }
    }

    /// Modeled time of one launch over `extents` whose parallel
    /// iterations each cost `per_iter`.
    fn time(
        &mut self,
        roof: &Roofline,
        spec: &DeviceSpec,
        host_spec: &DeviceSpec,
        extents: &[u64],
        per_iter: &DynCost,
    ) -> f64 {
        let (dims, shape) = match self.shape {
            Some(fixed) if roof.fixed_dims => fixed,
            latest => {
                let dims = self.dist.launch_dims(extents);
                match latest {
                    Some((last, shape)) if last == dims => (dims, shape),
                    _ => {
                        let shape = LaunchShape::new(spec, &dims);
                        self.shape = Some((dims, shape));
                        (dims, shape)
                    }
                }
            }
        };
        // Serialized executions carry a cost tree that already covers
        // the whole nest (rank-0 lowering), so the multiplier is 1.
        let n_par: u64 = if roof.serialized {
            1
        } else {
            match self.dist {
                DistSpec::GroupedPerIter { group_size } => {
                    extents.first().copied().unwrap_or(0) * group_size as u64
                }
                DistSpec::Grouped { .. } => dims.total_threads(),
                _ => match roof.dist_rank {
                    0 => 1,
                    rank => extents.iter().take(rank).product(),
                },
            }
        };
        kernel_launch_time(spec, host_spec, &roof.terms, &dims, &shape, n_par, per_iter)
    }
}

/// What one `Launch` site needs, built at its first execution in a
/// walk and reused by every later one: everything about a launch that
/// does not read a host variable.
struct Launched<'a> {
    plan: &'a KernelPlan,
    /// The site's timing path for this walk.
    cost: CostPlan<'a>,
    roof: Roofline,
    on_device: bool,
    /// Each configuration's distribution at the site, the lead's first.
    dists: Vec<SiteDist>,
    /// Global arrays the kernel reads or writes, ascending, each
    /// flagged when read.
    touched: Vec<(ArrayId, bool)>,
    /// Global arrays the kernel writes, ascending.
    writes: Vec<ArrayId>,
    /// The kernel's entry in [`Runner::stats`].
    stat: usize,
    /// Bytecode, compiled at the first functional launch on the
    /// bytecode tier: a kernel relaunched every while-loop iteration is
    /// lowered exactly once per run.
    code: Option<crate::bytecode::KernelCode>,
}

impl Launched<'_> {
    /// Whether a launch reads its loop extents: a serialized kernel
    /// with fixed dimensions needs none.
    fn needs_extents(&self) -> bool {
        !(self.roof.serialized && self.roof.fixed_dims)
    }
}

/// What a walk has moved and how many launches it has modeled. Dropping
/// it charges the timing model's trace counters once for each run the
/// walk times, so a walk cut short by an error, an injected fault or a
/// panic still counts what it did.
#[derive(Default)]
struct Tally {
    ledger: TransferLedger,
    launches: u64,
    /// How many configurations the walk times.
    runs: u64,
}

impl Drop for Tally {
    fn drop(&mut self) {
        for (name, n) in [
            ("timing.kernel_launches", self.launches),
            ("timing.transfers", self.ledger.total_count()),
            ("timing.transfer_bytes", self.ledger.total_bytes()),
        ] {
            if n > 0 {
                paccport_trace::add(name, n * self.runs);
            }
        }
    }
}

/// What each configuration of a walk adds up on its own, in the order a
/// run of it alone would.
struct Clock {
    kernel_time: f64,
    host_time: f64,
    /// Device time of each entry of [`Runner::stats`].
    device_time: Vec<f64>,
}

/// Where each array's valid copy is and what keeping it there has
/// moved: the state a launch's data bookkeeping reads and writes, kept
/// apart from the site table so that a launch can borrow its site's
/// entry and this state at once.
struct Coherence {
    functional: bool,
    lens: Vec<usize>,
    /// Size of each array in bytes.
    bytes: Vec<u64>,
    host: Vec<Buffer>,
    dev: Vec<Buffer>,
    resident: Vec<bool>,
    host_valid: Vec<bool>,
    /// Data-region nesting count per array. Kernels touching arrays
    /// *outside* any data region pay per-launch synchronization — the
    /// OpenACC semantics a 2014 compiler implements when the
    /// programmer omits `#pragma acc data` (the motivation for the
    /// paper's future-work Step 5).
    region_cover: Vec<u32>,
    /// Arrays written on the device during the current while-loop
    /// iteration, by array index.
    written_in_iter: Vec<bool>,
    in_while: bool,
    transfers_in_while: u64,
    transfer_time_s: f64,
    tally: Tally,
}

impl Coherence {
    fn note_transfer(&mut self) {
        if self.in_while {
            self.transfers_in_while += 1;
        }
    }

    fn h2d(&mut self, a: ArrayId, spec: &DeviceSpec) {
        let bytes = self.bytes[a.0 as usize];
        self.tally.ledger.record_h2d(bytes);
        self.transfer_time_s += transfer_time(spec, bytes);
        self.note_transfer();
        if self.functional {
            self.dev[a.0 as usize] = self.host[a.0 as usize].clone();
        }
        self.resident[a.0 as usize] = true;
    }

    fn d2h(&mut self, a: ArrayId, spec: &DeviceSpec) {
        let bytes = self.bytes[a.0 as usize];
        self.tally.ledger.record_d2h(bytes);
        self.transfer_time_s += transfer_time(spec, bytes);
        self.note_transfer();
        if self.functional {
            self.host[a.0 as usize] = self.dev[a.0 as usize].clone();
        }
        self.host_valid[a.0 as usize] = true;
    }

    /// Region-exit copy-out: always counted, but the data copy is
    /// skipped when the host copy is already the authoritative one.
    fn d2h_region_exit(&mut self, a: ArrayId, spec: &DeviceSpec) {
        if self.host_valid[a.0 as usize] {
            let bytes = self.bytes[a.0 as usize];
            self.tally.ledger.record_d2h(bytes);
            self.transfer_time_s += transfer_time(spec, bytes);
            self.note_transfer();
        } else {
            self.d2h(a, spec);
        }
    }

    fn ensure_on_device(&mut self, a: ArrayId, spec: &DeviceSpec) {
        if !self.resident[a.0 as usize] {
            self.h2d(a, spec);
        }
    }

    fn ensure_on_host(&mut self, a: ArrayId, spec: &DeviceSpec) {
        if !self.host_valid[a.0 as usize] {
            self.d2h(a, spec);
        }
    }
}

/// How many `Launch` sites `body` holds, nested ones included.
fn launch_sites(body: &[HostStmt]) -> usize {
    let mut n = 0;
    for s in body {
        s.walk(&mut |s| n += matches!(s, HostStmt::Launch(_)) as usize);
    }
    n
}

struct Runner<'a> {
    c: &'a CompiledProgram,
    /// The configurations timed along with `c`'s own.
    others: &'a [Distribution],
    cfg: &'a RunConfig,
    spec: DeviceSpec,
    host_spec: DeviceSpec,
    params: Vec<V>,
    vars: Vec<Option<V>>,
    /// Host variables as the timing model sees them, one slot per
    /// program variable; [`CostPlan::dyn_cost`] samples in it in place.
    env: Vec<Option<f64>>,
    coh: Coherence,
    /// One per configuration, `c`'s first.
    clocks: Vec<Clock>,
    /// One entry per `Launch` site, numbered in the order a depth-first
    /// walk of the program meets them; bound at the site's first
    /// execution.
    sites: Vec<Option<Launched<'a>>>,
    /// The number of the next `Launch` site the host program reaches.
    next_site: usize,
    /// Every kernel launched so far, in first-launch order (the order
    /// [`RunResult::kernel_stats`] reports them in), as its plan's index
    /// in `c.plans` and its launch count; each configuration's device
    /// time is in its [`Clock`].
    stats: Vec<(usize, u64)>,
    /// Scratch for one launch's loop extents.
    extents: Vec<u64>,
    any_known_wrong: bool,
    while_iterations: u64,
    races: Vec<Race>,
    /// Dedup key for `races` across launches of the same kernel.
    race_seen: BTreeSet<(String, String, crate::race::RaceKind, Option<usize>)>,
    race_accesses: u64,
    /// Arrays touched by at least one device-executed kernel (PGI's
    /// runtime elides `update`s for arrays with no device activity).
    device_active: Vec<bool>,
}

impl<'a> Runner<'a> {
    fn new(
        c: &'a CompiledProgram,
        others: &'a [Distribution],
        cfg: &'a RunConfig,
        spec: DeviceSpec,
        host_spec: DeviceSpec,
    ) -> Result<Self, String> {
        let p = &c.program;
        // Bind parameters in declaration order.
        let mut params = Vec::with_capacity(p.params.len());
        for d in &p.params {
            let v = cfg
                .params
                .iter()
                .find(|(n, _)| *n == d.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("missing parameter `{}`", d.name))?;
            params.push(match d.ty {
                Scalar::F32 | Scalar::F64 => V::F(v),
                _ => V::I(v as i64),
            });
        }
        // Array lengths.
        let empty_vars = fresh_vars(p);
        let mut lens = Vec::with_capacity(p.arrays.len());
        {
            let mut no_bufs: [Buffer; 0] = [];
            let mut scratch = empty_vars.clone();
            for a in &p.arrays {
                let scope = crate::interp::Scope {
                    vars: &mut scratch,
                    m: crate::interp::Machine::global(&mut no_bufs, None),
                };
                let l = crate::interp::eval(p, &params, &a.len, &scope).as_i();
                if l < 0 {
                    return Err(format!("array `{}` has negative length {l}", a.name));
                }
                lens.push(l as usize);
            }
        }
        let functional = matches!(cfg.fidelity, Fidelity::Functional);
        let (host, dev) = if functional {
            let mut host: Vec<Buffer> = p
                .arrays
                .iter()
                .zip(&lens)
                .map(|(a, l)| Buffer::zeroed(a.elem, *l))
                .collect();
            for (name, buf) in &cfg.inputs {
                let id = p
                    .array_id(name)
                    .ok_or_else(|| format!("unknown input array `{name}`"))?;
                if buf.len() != lens[id.0 as usize] {
                    return Err(format!(
                        "input `{name}` has length {} but the program expects {}",
                        buf.len(),
                        lens[id.0 as usize]
                    ));
                }
                host[id.0 as usize] = buf.clone();
            }
            let dev = host
                .iter()
                .map(|b| Buffer::zeroed(b.elem(), b.len()))
                .collect();
            (host, dev)
        } else {
            (Vec::new(), Vec::new())
        };
        // Which arrays any device-executed kernel touches.
        let mut device_active = vec![false; p.arrays.len()];
        for k in p.kernels() {
            if let Some(plan) = c.plan(&k.name) {
                if plan.exec != ExecStrategy::HostSequential {
                    for a in k.global_arrays() {
                        device_active[a.0 as usize] = true;
                    }
                }
            }
        }
        let bytes = p
            .arrays
            .iter()
            .zip(&lens)
            .map(|(a, l)| (l * a.elem.size_bytes()) as u64)
            .collect();
        let n = p.arrays.len();
        Ok(Runner {
            c,
            others,
            cfg,
            spec,
            host_spec,
            params,
            vars: empty_vars,
            env: vec![None; p.var_names.len()],
            coh: Coherence {
                functional,
                lens,
                bytes,
                host,
                dev,
                resident: vec![false; n],
                host_valid: vec![true; n],
                region_cover: vec![0; n],
                written_in_iter: vec![false; n],
                in_while: false,
                transfers_in_while: 0,
                transfer_time_s: 0.0,
                tally: Tally {
                    runs: 1 + others.len() as u64,
                    ..Tally::default()
                },
            },
            clocks: (0..=others.len())
                .map(|_| Clock {
                    kernel_time: 0.0,
                    host_time: 0.0,
                    device_time: Vec::new(),
                })
                .collect(),
            sites: (0..launch_sites(&p.body)).map(|_| None).collect(),
            next_site: 0,
            stats: Vec::new(),
            extents: Vec::new(),
            any_known_wrong: false,
            while_iterations: 0,
            races: Vec::new(),
            race_seen: BTreeSet::new(),
            race_accesses: 0,
            device_active,
        })
    }

    fn host_stmt(&mut self, s: &'a HostStmt) -> Result<(), String> {
        match s {
            HostStmt::DataRegion { arrays, body } => {
                self.enter_data(arrays);
                for s in body {
                    self.host_stmt(s)?;
                }
                self.exit_data(arrays)
            }
            HostStmt::Launch(k) => self.launch(k),
            HostStmt::HostLoop { var, lo, hi, body } => {
                let lo = self.eval_host(lo).as_i();
                let hi = self.eval_host(hi).as_i();
                let first = self.next_site;
                if lo >= hi {
                    self.next_site += launch_sites(body);
                }
                for i in lo..hi {
                    self.next_site = first;
                    self.vars[var.0 as usize] = Some(V::I(i));
                    self.env[var.0 as usize] = Some(i as f64);
                    for s in body {
                        self.host_stmt(s)?;
                    }
                }
                self.env[var.0 as usize] = None;
                Ok(())
            }
            HostStmt::WhileFlag {
                flag,
                max_iters,
                body,
            } => {
                let was_in_while = self.coh.in_while;
                self.coh.in_while = true;
                let mut iters: u64 = 0;
                let first = self.next_site;
                loop {
                    self.next_site = first;
                    self.coh.written_in_iter.fill(false);
                    for s in body {
                        self.host_stmt(s)?;
                    }
                    // CAPS's conservative refresh of copyin arrays
                    // modified on the device (Table VII's third
                    // per-iteration transfer).
                    if self.c.transfers == TransferPolicy::PerIteration {
                        for i in 0..self.coh.written_in_iter.len() {
                            let a = ArrayId(i as u32);
                            if self.coh.written_in_iter[i]
                                && self.c.program.array(a).intent == Intent::In
                                && self.coh.resident[i]
                            {
                                self.coh.d2h(a, &self.spec);
                            }
                        }
                    }
                    iters += 1;
                    let continue_ = match self.cfg.fidelity {
                        Fidelity::Functional => self.coh.host[flag.0 as usize].get(0) != 0.0,
                        Fidelity::TimingOnly { while_iters } => iters < while_iters as u64,
                    };
                    if !continue_ || iters >= *max_iters as u64 {
                        break;
                    }
                }
                self.while_iterations += iters;
                self.coh.in_while = was_in_while;
                Ok(())
            }
            HostStmt::HostAssign { var, value, .. } => {
                if self.coh.functional {
                    let v = self.eval_host(value);
                    self.vars[var.0 as usize] = Some(v);
                    self.env[var.0 as usize] = Some(v.as_f());
                }
                Ok(())
            }
            HostStmt::HostStore {
                array,
                index,
                value,
            } => {
                if self.coh.functional {
                    let i = self.eval_host(index).as_i() as usize;
                    let v = self.eval_host(value).as_f();
                    self.coh.host[array.0 as usize].set(i, v);
                }
                self.coh.host_valid[array.0 as usize] = true;
                self.coh.resident[array.0 as usize] = false;
                Ok(())
            }
            HostStmt::Update { array, dir } => {
                // PGI elides updates of arrays no device kernel
                // touches (its BFS ran entirely on the host).
                if !self.device_active[array.0 as usize] {
                    return Ok(());
                }
                match dir {
                    Dir::ToDevice => self.coh.h2d(*array, &self.spec),
                    Dir::ToHost => self.coh.d2h(*array, &self.spec),
                }
                Ok(())
            }
            HostStmt::HostCompute { instr, .. } => {
                let n = self.try_eval_host_f(instr).unwrap_or(0.0);
                let t = n / self.host_spec.single_thread_ips;
                for clock in &mut self.clocks {
                    clock.host_time += t;
                }
                Ok(())
            }
            HostStmt::EnterData { arrays } => {
                self.enter_data(arrays);
                Ok(())
            }
            HostStmt::ExitData { arrays } => self.exit_data(arrays),
        }
    }

    /// Open a data region (structured or `enter data`) over `arrays`:
    /// copy in what the intent copies in, allocate the rest.
    fn enter_data(&mut self, arrays: &[ArrayId]) {
        for a in arrays {
            let coh = &mut self.coh;
            coh.region_cover[a.0 as usize] += 1;
            let d = self.c.program.array(*a);
            if d.intent.copies_in() {
                coh.h2d(*a, &self.spec);
            } else {
                // `create` / copyout-only: allocate, no copy.
                coh.resident[a.0 as usize] = true;
                if coh.functional {
                    coh.dev[a.0 as usize] = Buffer::zeroed(d.elem, coh.lens[a.0 as usize]);
                }
            }
        }
    }

    /// Close a data region over `arrays`: copy out what the intent
    /// copies out and release the device copies. An array no open
    /// region covers is an error.
    fn exit_data(&mut self, arrays: &[ArrayId]) -> Result<(), String> {
        for a in arrays {
            if self.coh.region_cover[a.0 as usize] == 0 {
                return Err(format!(
                    "exit data for `{}` without a matching enter data",
                    self.c.program.array(*a).name
                ));
            }
            self.coh.region_cover[a.0 as usize] -= 1;
            if self.c.program.array(*a).intent.copies_out() {
                // The runtime performs the copy-out regardless (it is
                // counted and timed), but coherent host data is never
                // clobbered by a stale device copy (host-fallback
                // kernels wrote the host arrays directly).
                self.coh.d2h_region_exit(*a, &self.spec);
            }
            self.coh.resident[a.0 as usize] = false;
        }
        Ok(())
    }

    /// The entry of the `Launch` site of `k`, built at its first
    /// execution.
    fn bind(&mut self, k: &'a Kernel) -> Result<Launched<'a>, String> {
        let c = self.c;
        let pi = c
            .plans
            .iter()
            .position(|p| p.kernel == k.name)
            .ok_or_else(|| format!("no plan for kernel `{}`", k.name))?;
        let plan = &c.plans[pi];
        // Kernels are identified by name, as plans are: every site of
        // one name adds to one stat.
        let stat = match self.stats.iter().position(|&(p, _)| p == pi) {
            Some(i) => i,
            None => {
                self.stats.push((pi, 0));
                for clock in &mut self.clocks {
                    clock.device_time.push(0.0);
                }
                self.stats.len() - 1
            }
        };
        let (reads, writes) = k.global_reads_writes();
        let dist_rank = dist_rank_of(&plan.dist, k.rank());
        let cost = CostPlan::new(k, plan, dist_rank, &self.params, &self.cfg.hints);
        let others = self.others.iter().map(|o| o.0[pi].0);
        Ok(Launched {
            plan,
            roof: Roofline {
                terms: PlanTerms::new(plan),
                serialized: matches!(
                    plan.exec,
                    ExecStrategy::DeviceSequential | ExecStrategy::HostSequential
                ),
                fixed_dims: plan.dist.fixed_dims().is_some(),
                dist_rank: cost.dist_rank(),
            },
            cost,
            on_device: plan.exec != ExecStrategy::HostSequential,
            dists: std::iter::once(plan.dist)
                .chain(others)
                .map(|d| SiteDist::new(d, &self.spec))
                .collect(),
            touched: reads
                .union(&writes)
                .map(|a| (*a, reads.contains(a)))
                .collect(),
            writes: writes.into_iter().collect(),
            stat,
            code: None,
        })
    }

    fn eval_host(&mut self, e: &paccport_ir::Expr) -> V {
        let scope = crate::interp::Scope {
            vars: &mut self.vars,
            m: crate::interp::Machine::global(&mut self.coh.host, None),
        };
        crate::interp::eval(&self.c.program, &self.params, e, &scope)
    }

    /// Host evaluation that tolerates timing-only mode (no buffers) and
    /// expressions that are not host-evaluable at all. Kernel loop
    /// bounds may reference *outer kernel loop variables* (triangular
    /// nests); those variables only exist per-lane inside the launch,
    /// so launch-time extent estimation must return `None` for them
    /// instead of tripping the interpreter's undefined-variable panic.
    fn try_eval_host_f(&mut self, e: &paccport_ir::Expr) -> Option<f64> {
        if self.coh.functional {
            if !vars_defined(e, &self.vars) {
                return None;
            }
            Some(self.eval_host(e).as_f())
        } else {
            crate::dyncost::try_eval(e, &self.params, &self.env)
        }
    }

    fn launch(&mut self, k: &'a Kernel) -> Result<(), String> {
        if paccport_faults::active() {
            let scope = self
                .cfg
                .fault_scope
                .as_deref()
                .unwrap_or(&self.c.program.name);
            let site = format!("{scope}#{}", k.name);
            if paccport_faults::inject(paccport_faults::FaultKind::DeviceFault, &site) {
                return Err(format!(
                    "{} transient device fault launching `{}`",
                    paccport_faults::INJECTED,
                    k.name
                ));
            }
            if paccport_faults::should_inject(paccport_faults::FaultKind::KernelHang, &site) {
                paccport_faults::record(paccport_faults::FaultKind::KernelHang, &site);
                paccport_faults::hang();
            }
        }
        let site = self.next_site;
        self.next_site += 1;
        if self.sites[site].is_none() {
            self.sites[site] = Some(self.bind(k)?);
        }
        let e = self.sites[site].as_ref().expect("bound above");
        let (plan, on_device, stat) = (e.plan, e.on_device, e.stat);
        // Evaluate loop extents with host variables.
        let mut extents = std::mem::take(&mut self.extents);
        extents.clear();
        if e.needs_extents() {
            if self.coh.functional {
                for lp in &k.loops {
                    let lo = self.try_eval_host_f(&lp.lo).unwrap_or(0.0);
                    let hi = self.try_eval_host_f(&lp.hi).unwrap_or(lo);
                    extents.push((hi - lo).max(0.0) as u64);
                }
            } else {
                e.cost.extents(&self.params, &self.env, &mut extents);
            }
        }
        let Runner {
            sites,
            coh,
            clocks,
            spec,
            host_spec,
            params,
            env,
            ..
        } = self;
        let e = sites[site].as_mut().expect("bound above");
        // The cost per parallel iteration reads no distribution; only
        // the roofline runs once per configuration.
        let per_iter = e.cost.dyn_cost(params, env);
        for (d, clock) in e.dists.iter_mut().zip(clocks.iter_mut()) {
            let t = d.time(&e.roof, spec, host_spec, &extents, &per_iter);
            if on_device {
                clock.kernel_time += t;
            } else {
                clock.host_time += t;
            }
            clock.device_time[stat] += t;
        }
        coh.tally.launches += 1;

        // Data movement.
        if on_device {
            for &(a, read) in &e.touched {
                // Uncovered arrays are re-synchronized around every
                // launch (no enclosing data region to keep them
                // resident); covered arrays move at most once.
                if coh.region_cover[a.0 as usize] == 0 && read {
                    coh.h2d(a, spec);
                } else {
                    coh.ensure_on_device(a, spec);
                }
            }
            for a in &e.writes {
                coh.host_valid[a.0 as usize] = false;
                coh.written_in_iter[a.0 as usize] = true;
            }
        } else {
            let reads = e.touched.iter().filter(|(_, read)| *read).map(|(a, _)| a);
            for a in reads.chain(&e.writes) {
                coh.ensure_on_host(*a, spec);
            }
            for a in &e.writes {
                coh.resident[a.0 as usize] = false;
            }
        }
        self.extents = extents;

        // Functional execution.
        if self.coh.functional {
            let fidelity = match plan.correctness {
                Correctness::Correct => KernelFidelity::Exact,
                Correctness::Wrong { .. } => KernelFidelity::DropTreePhases,
            };
            let p = &self.c.program;
            let bufs: &mut [Buffer] = if on_device {
                &mut self.coh.dev
            } else {
                &mut self.coh.host
            };
            let tracker = self.cfg.race_check.then(|| {
                let globals = p
                    .arrays
                    .iter()
                    .zip(bufs.iter())
                    .map(|(a, b)| (&*a.name, b.len()));
                let locals = match &k.body {
                    KernelBody::Grouped(g) => g.locals.iter().map(|l| (&*l.name, l.len)).collect(),
                    KernelBody::Simple(_) => Vec::new(),
                };
                RaceTracker::new(
                    &k.name,
                    globals.collect(),
                    locals,
                    fidelity == KernelFidelity::DropTreePhases,
                )
            });
            match self.cfg.tier {
                ExecTier::Tree => exec_kernel_traced(
                    p,
                    &self.params,
                    k,
                    &mut self.vars,
                    bufs,
                    fidelity,
                    tracker.as_ref(),
                ),
                ExecTier::Bytecode => {
                    let code = self.sites[site]
                        .as_mut()
                        .expect("bound above")
                        .code
                        .get_or_insert_with(|| crate::bytecode::compile_kernel(p, k));
                    crate::bytecode::exec_kernel_bc(
                        code,
                        &self.params,
                        k,
                        &mut self.vars,
                        bufs,
                        fidelity,
                        tracker.as_ref(),
                    );
                }
            }
            if let Some(t) = tracker {
                self.race_accesses += t.accesses();
                paccport_trace::add("race.accesses", t.accesses());
                paccport_trace::add("race.batched_accesses", t.batched_accesses());
                paccport_trace::add("race.conflicts", t.conflicts());
                for race in t.races() {
                    let key = (
                        race.kernel.clone(),
                        race.array.clone(),
                        race.kind,
                        race.level,
                    );
                    if self.race_seen.insert(key) {
                        self.races.push(race);
                    }
                }
            }
        }
        if matches!(plan.correctness, Correctness::Wrong { .. }) {
            self.any_known_wrong = true;
        }
        // Uncovered written arrays are copied back after every launch
        // (per-launch synchronization without a data region).
        if on_device {
            let e = self.sites[site].as_ref().expect("bound above");
            for a in &e.writes {
                if self.coh.region_cover[a.0 as usize] == 0 {
                    self.coh.d2h(*a, &self.spec);
                }
            }
        }
        self.stats[stat].1 += 1;
        Ok(())
    }

    /// One result per configuration, `c`'s first.
    fn finish(mut self) -> Vec<RunResult> {
        // Final copy-out of dirty output arrays not already synced.
        for i in 0..self.c.program.arrays.len() {
            let a = ArrayId(i as u32);
            let intent = self.c.program.array(a).intent;
            if intent.copies_out() && !self.coh.host_valid[i] && self.coh.resident[i] {
                self.coh.d2h(a, &self.spec);
            }
        }
        let transfers_per_while_iter = if self.while_iterations > 0 {
            self.coh.transfers_in_while as f64 / self.while_iterations as f64
        } else {
            0.0
        };
        let ledger = self.coh.tally.ledger;
        let mut runs = Vec::with_capacity(self.clocks.len());
        for (m, clock) in self.clocks.iter().enumerate() {
            let kernel_stats = self
                .stats
                .iter()
                .zip(&clock.device_time)
                .map(|(&(pi, launches), &device_time)| {
                    let plan = &self.c.plans[pi];
                    KernelStat {
                        name: plan.kernel.clone(),
                        launches,
                        device_time,
                        ran_on_device: plan.exec != ExecStrategy::HostSequential,
                        config_label: match m {
                            0 => plan.config_label.clone(),
                            m => self.others[m - 1].0[pi].1.clone(),
                        },
                    }
                })
                .collect();
            let run = RunResult {
                elapsed: clock.kernel_time + self.coh.transfer_time_s + clock.host_time,
                kernel_time: clock.kernel_time,
                transfer_time_s: self.coh.transfer_time_s,
                host_time: clock.host_time,
                kernel_stats,
                transfers: ledger,
                while_iterations: self.while_iterations,
                transfers_per_while_iter,
                transfers_outside_while: ledger.total_count() - self.coh.transfers_in_while,
                // Only a timing-only walk times more than one
                // configuration (asserted in `walk`), and it has no
                // buffers or races.
                host: std::mem::take(&mut self.coh.host),
                any_known_wrong: self.any_known_wrong,
                races: std::mem::take(&mut self.races),
                race_accesses: self.race_accesses,
            };
            record_metrics(&run);
            runs.push(run);
        }
        runs
    }
}

/// Simulated hardware counters → the metrics registry: what
/// `PGI_ACC_TIME=1` + nvprof gave the paper's authors, as Prometheus
/// series. One observation per kernel per run, and host compute
/// outside any kernel gets its own series, so summing
/// `devsim_kernel_seconds`, `devsim_transfer_seconds` and
/// `devsim_host_seconds` reproduces `devsim_run_seconds` exactly (the
/// cross-check test holds the registry to that).
fn record_metrics(r: &RunResult) {
    use paccport_trace::metrics::{counter_add, metrics_enabled, observe};
    if !metrics_enabled() {
        return;
    }
    for s in &r.kernel_stats {
        let exec = if s.ran_on_device { "device" } else { "host" };
        counter_add(
            "devsim_kernel_launches_total",
            &[("kernel", &s.name), ("exec", exec)],
            s.launches,
        );
        observe(
            "devsim_kernel_seconds",
            &[("kernel", &s.name), ("exec", exec)],
            s.device_time,
        );
    }
    let l = &r.transfers;
    counter_add(
        "devsim_transfer_bytes_total",
        &[("dir", "h2d")],
        l.h2d_bytes,
    );
    counter_add(
        "devsim_transfer_bytes_total",
        &[("dir", "d2h")],
        l.d2h_bytes,
    );
    counter_add(
        "devsim_transfer_count_total",
        &[("dir", "h2d")],
        l.h2d_count,
    );
    counter_add(
        "devsim_transfer_count_total",
        &[("dir", "d2h")],
        l.d2h_count,
    );
    counter_add("devsim_while_iterations_total", &[], r.while_iterations);
    observe("devsim_transfer_seconds", &[], r.transfer_time_s);
    // `host_time` includes host-fallback kernel launches, but those are
    // already charged to their kernel's series; only the non-kernel
    // remainder (host statements between launches) is new information.
    let host_kernel: f64 = r
        .kernel_stats
        .iter()
        .filter(|s| !s.ran_on_device)
        .map(|s| s.device_time)
        .sum();
    observe("devsim_host_seconds", &[], r.host_time - host_kernel);
    observe("devsim_run_seconds", &[], r.elapsed);
}

/// True iff every `Var` the expression reads is defined in `vars`.
fn vars_defined(e: &paccport_ir::Expr, vars: &[Option<crate::interp::V>]) -> bool {
    use paccport_ir::Expr;
    match e {
        Expr::FConst(_) | Expr::IConst(_) | Expr::BConst(_) | Expr::Param(_) | Expr::Special(_) => {
            true
        }
        Expr::Var(id) => vars.get(id.0 as usize).is_some_and(|slot| slot.is_some()),
        Expr::Load { index, .. } => vars_defined(index, vars),
        Expr::Un(_, a) | Expr::Cast(_, a) => vars_defined(a, vars),
        Expr::Bin(_, a, b) | Expr::Cmp(_, a, b) => vars_defined(a, vars) && vars_defined(b, vars),
        Expr::Fma(a, b, c) | Expr::Select(a, b, c) => {
            vars_defined(a, vars) && vars_defined(b, vars) && vars_defined(c, vars)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paccport_compilers::{compile, CompileOptions, CompilerId};
    use paccport_ir::{ld, st, Expr, Intent, Kernel, ParallelLoop, ProgramBuilder, VarId, E};

    fn saxpy_program(independent: bool) -> paccport_ir::Program {
        let mut b = ProgramBuilder::new("saxpy");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let y = b.array("y", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = independent;
        let k = Kernel::simple(
            "saxpy",
            vec![lp],
            paccport_ir::Block::new(vec![st(y, i, E::from(2.0) * ld(x, i) + ld(y, i))]),
        );
        b.finish(vec![HostStmt::Launch(k)])
    }

    #[test]
    fn functional_run_produces_correct_results() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 64.0)])
            .with_input("x", Buffer::F32((0..64).map(|v| v as f32).collect()))
            .with_input("y", Buffer::F32(vec![1.0; 64]));
        let r = run(&c, &cfg).unwrap();
        let y = r.buffer(&c, "y").unwrap().as_f32();
        for (i, v) in y.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32 + 1.0);
        }
        // x copied in, y copied in and out.
        assert_eq!(r.transfers.h2d_count, 2);
        assert_eq!(r.transfers.d2h_count, 1);
        assert!(r.elapsed > 0.0);
        assert!(r.kernel_stats[0].ran_on_device);
    }

    #[test]
    fn sequential_baseline_is_much_slower_than_gridify() {
        let base = saxpy_program(false); // CAPS gang(1) bug
        let opt = saxpy_program(true); // gridify
        let cb = compile(CompilerId::Caps, &base, &CompileOptions::gpu()).unwrap();
        let co = compile(CompilerId::Caps, &opt, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::timing(vec![("n".into(), 4_000_000.0)], 1);
        let tb = run(&cb, &cfg).unwrap().kernel_time;
        let to = run(&co, &cfg).unwrap().kernel_time;
        assert!(
            tb / to > 100.0,
            "sequential {tb} vs parallel {to}: ratio {}",
            tb / to
        );
    }

    #[test]
    fn timing_only_mode_needs_no_buffers() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        // A size that would be ~64 GB if allocated.
        let cfg = RunConfig::timing(vec![("n".into(), 8e9)], 1);
        let r = run(&c, &cfg).unwrap();
        assert!(r.host.is_empty());
        assert!(r.elapsed > 0.0);
        assert!(r.transfers.total_bytes() > 8_000_000_000);
    }

    #[test]
    fn host_fallback_runs_but_not_on_device() {
        // Indirect store → PGI keeps it on the host.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let idx = b.array("idx", Scalar::I32, n, Intent::In);
        let out = b.array("out", Scalar::F32, n, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "scatter",
            vec![lp],
            paccport_ir::Block::new(vec![st(out, ld(idx, i), 1.0)]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Pgi, &p, &CompileOptions::gpu()).unwrap();
        let perm: Vec<i32> = (0..16).rev().collect();
        let cfg =
            RunConfig::functional(vec![("n".into(), 16.0)]).with_input("idx", Buffer::I32(perm));
        let r = run(&c, &cfg).unwrap();
        assert!(!r.kernel_stats[0].ran_on_device);
        // Results still correct — computed on the host.
        assert!(r
            .buffer(&c, "out")
            .unwrap()
            .as_f32()
            .iter()
            .all(|v| *v == 1.0));
        // No kernel-driven transfers.
        assert_eq!(r.transfers.total_count(), 0);
    }

    #[test]
    fn race_check_is_clean_on_saxpy() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 16.0)])
            .with_input("x", Buffer::F32(vec![1.0; 16]))
            .with_input("y", Buffer::F32(vec![1.0; 16]))
            .with_race_check(true);
        let r = run(&c, &cfg).unwrap();
        assert!(r.races.is_empty(), "{:?}", r.races);
        // 2 loads + 1 store per iteration.
        assert_eq!(r.race_accesses, 48);
    }

    #[test]
    fn race_check_flags_shared_accumulator() {
        // out[0] = out[0] + x[i] for every parallel iteration — the
        // effective schedule of a lost-update miscompilation.
        let mut b = ProgramBuilder::new("p");
        let n = b.iparam("n");
        let x = b.array("x", Scalar::F32, n, Intent::In);
        let out = b.array("acc", Scalar::F32, 1i64, Intent::InOut);
        let i = b.var("i");
        let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
        lp.clauses.independent = true;
        let k = Kernel::simple(
            "accumulate",
            vec![lp],
            paccport_ir::Block::new(vec![st(out, 0i64, ld(out, 0i64) + ld(x, i))]),
        );
        let p = b.finish(vec![HostStmt::Launch(k)]);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 8.0)])
            .with_input("x", Buffer::F32(vec![1.0; 8]))
            .with_race_check(true);
        let r = run(&c, &cfg).unwrap();
        let ww = r
            .races
            .iter()
            .find(|x| x.kind == crate::race::RaceKind::WriteWrite)
            .expect("lost update must be a write-write race");
        assert_eq!(ww.array, "acc");
        assert_eq!(ww.level, Some(0));
        let d = ww.describe();
        assert!(d.contains("`acc`[0]"), "{d}");
        assert!(d.contains("(0)") && d.contains("(1)"), "{d}");
        // Off by default: same run without the flag records nothing.
        let cfg_off = RunConfig::functional(vec![("n".into(), 8.0)])
            .with_input("x", Buffer::F32(vec![1.0; 8]));
        let r_off = run(&c, &cfg_off).unwrap();
        assert!(r_off.races.is_empty());
        assert_eq!(r_off.race_accesses, 0);
    }

    #[test]
    fn race_checked_wild_indices_keep_the_bounds_panic() {
        // Executors log an access before their bounds check, so the
        // tracker sees the wild index first: it must neither panic nor
        // size a shadow from it (a 2^40-element shadow would abort).
        for tier in [ExecTier::Tree, ExecTier::Bytecode] {
            for (idx, load) in [
                (8, true),
                (1i64 << 40, true),
                (8, false),
                (1i64 << 40, false),
            ] {
                let mut b = ProgramBuilder::new("wild");
                let n = b.iparam("n");
                let x = b.array("x", Scalar::F32, n, Intent::In);
                let y = b.array("y", Scalar::F32, n, Intent::InOut);
                let i = b.var("i");
                let mut lp = ParallelLoop::new(i, Expr::iconst(0), Expr::param(n));
                lp.clauses.independent = true;
                let body = if load {
                    st(y, i, ld(x, idx))
                } else {
                    st(y, idx, 1.0)
                };
                let k = Kernel::simple("wild", vec![lp], paccport_ir::Block::new(vec![body]));
                let p = b.finish(vec![HostStmt::Launch(k)]);
                let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
                let cfg = RunConfig::functional(vec![("n".into(), 8.0)])
                    .with_race_check(true)
                    .with_tier(tier);
                let payload = std::panic::catch_unwind(|| run(&c, &cfg))
                    .expect_err("an out-of-bounds access must panic");
                let msg = payload.downcast_ref::<String>().expect("formatted panic");
                let want = if load {
                    format!("index {idx} out of bounds for array of length 8 (Global)")
                } else {
                    format!("store index {idx} out of bounds for array of length 8")
                };
                assert_eq!(*msg, want, "{tier:?}");
            }
        }
    }

    /// Modeled time of `saxpy` launched once from each of `sites`.
    fn saxpy_sites(sites: Vec<HostStmt>) -> RunResult {
        let mut p = saxpy_program(true);
        p.body = sites;
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        run(&c, &RunConfig::timing(vec![("n".into(), 4e6)], 1)).unwrap()
    }

    #[test]
    fn one_kernel_launched_from_two_sites_keeps_one_stat() {
        let p = saxpy_program(true);
        let HostStmt::Launch(k) = &p.body[0] else {
            panic!("saxpy is one launch")
        };
        let one = saxpy_sites(vec![HostStmt::Launch(k.clone())]);
        let t = one.kernel_stats[0].device_time;
        let two = saxpy_sites(vec![
            HostStmt::Launch(k.clone()),
            HostStmt::Launch(k.clone()),
        ]);
        assert_eq!(two.kernel_stats.len(), 1, "{:?}", two.kernel_stats);
        let stat = &two.kernel_stats[0];
        assert_eq!((stat.name.as_str(), stat.launches), ("saxpy", 2));
        assert_eq!(stat.device_time.to_bits(), (t + t).to_bits());
        // The second site's own loops set its extents: half the range.
        let mut half = k.clone();
        half.loops[0].hi = (E::from(Expr::param(paccport_ir::ParamId(0))) / 2i64).0;
        let t_half = saxpy_sites(vec![HostStmt::Launch(half.clone())]).kernel_stats[0].device_time;
        let mixed = saxpy_sites(vec![HostStmt::Launch(k.clone()), HostStmt::Launch(half)]);
        assert_eq!(mixed.kernel_stats.len(), 1);
        assert_eq!(mixed.kernel_stats[0].launches, 2);
        assert_eq!(
            mixed.kernel_stats[0].device_time.to_bits(),
            (t + t_half).to_bits()
        );
        assert!(t_half < t);
    }

    /// Launch sites are numbered in program order; a host loop that runs
    /// no iteration must still skip the sites inside it, or the next
    /// site would take the entry of one it skipped.
    #[test]
    fn a_zero_trip_loop_skips_its_launch_sites() {
        let mut p = saxpy_program(true);
        let HostStmt::Launch(saxpy) = p.body[0].clone() else {
            panic!("saxpy is one launch")
        };
        let mut scale = saxpy.clone();
        scale.name = "scale".into();
        scale.loops[0].hi = Expr::iconst(16);
        let (t, h) = (
            VarId(p.var_names.len() as u32),
            VarId(p.var_names.len() as u32 + 1),
        );
        p.var_names.extend(["t".into(), "h".into()]);
        // for t in 0..3 { for h in 0..t { saxpy } scale }
        p.body = vec![HostStmt::HostLoop {
            var: t,
            lo: Expr::iconst(0),
            hi: Expr::iconst(3),
            body: vec![
                HostStmt::HostLoop {
                    var: h,
                    lo: Expr::iconst(0),
                    hi: Expr::var(t),
                    body: vec![HostStmt::Launch(saxpy.clone())],
                },
                HostStmt::Launch(scale),
            ],
        }];
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let r = run(&c, &RunConfig::timing(vec![("n".into(), 4e6)], 1)).unwrap();
        let launches: Vec<_> = r
            .kernel_stats
            .iter()
            .map(|s| (s.name.as_str(), s.launches))
            .collect();
        assert_eq!(launches, [("scale", 3), ("saxpy", 3)]);
        let t = saxpy_sites(vec![HostStmt::Launch(saxpy)]).kernel_stats[0].device_time;
        assert_eq!(
            r.kernel_stats[1].device_time.to_bits(),
            (t + t + t).to_bits()
        );
    }

    #[test]
    fn missing_param_is_an_error() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![]);
        assert!(run(&c, &cfg).is_err());
    }

    #[test]
    fn wrong_input_length_is_an_error() {
        let p = saxpy_program(true);
        let c = compile(CompilerId::Caps, &p, &CompileOptions::gpu()).unwrap();
        let cfg = RunConfig::functional(vec![("n".into(), 64.0)])
            .with_input("x", Buffer::F32(vec![0.0; 3]));
        assert!(run(&c, &cfg).is_err());
    }
}
