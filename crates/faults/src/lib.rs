//! # paccport-faults — seeded deterministic fault injection
//!
//! The 2015 campaign this repository reproduces was run on compilers
//! that crashed, kernels that hung, and artifacts that went stale (the
//! CAPS toolchain died mid-study, for real). This crate lets the
//! simulated stack rehearse all of that *reproducibly*: every fault
//! decision is a pure function of `(seed, kind, site key, attempt)`,
//! so a given `--fault-seed` produces the same failures in the same
//! cells on every run, on every machine, at any `--jobs` level.
//!
//! Three pieces:
//!
//! * **Injection** — sites in `paccport-compilers` and
//!   `paccport-devsim` ask [`inject`] whether to fail. Faults are
//!   configured from a small spec (`compile:caps:0.1,hang:bfs`) via
//!   [`configure`]; parsed by [`FaultSpec::parse`]. Every fired fault
//!   is recorded in a process-global [`ledger`], deduplicated by
//!   `(kind, key, attempt)` so the set is scheduling-independent.
//!   Injected error strings carry the [`INJECTED`] marker, which is
//!   the protocol separating "chaos we asked for" from genuine bugs.
//! * **Virtual clock + backoff** — retries back off exponentially on
//!   [`vclock`], a process-global virtual clock that only advances
//!   when someone "sleeps" on it. No wall-time sleeps anywhere, so
//!   tests of the retry schedule are instant and deterministic.
//! * **Watchdog** — a thread-local step budget ([`arm_watchdog`] /
//!   [`charge`]). The device interpreter charges one step per
//!   statement; exhausting the budget panics with a typed
//!   [`WatchdogTimeout`] payload that the runner converts into a
//!   `Timeout` error instead of wedging the whole study.
//!
//! With no spec configured every entry point is a no-op costing one
//! relaxed atomic load, mirroring how `paccport-trace` gates its
//! sites.

use paccport_trace::hash::{fnv1a64, FNV_BASIS, FNV_BASIS_ALT};
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Marker carried by every injected error message. The engine and the
/// report layer treat failures containing it as "chaos we asked for"
/// (quarantine, keep going, exit zero) and everything else as a
/// genuine failure (nonzero exit).
pub const INJECTED: &str = "[injected]";

/// Whether an error message came from an injected fault.
pub fn is_injected(msg: &str) -> bool {
    msg.contains(INJECTED)
}

// ===================================================================
// Fault kinds and the inject spec
// ===================================================================

/// The injectable failure classes, one per site family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// A compiler personality crashes (`caps.rs` / `pgi.rs`).
    CompileFail,
    /// A flaky slow compile: lowering stalls, burning virtual time
    /// and watchdog budget (`lower.rs`).
    CompileSlow,
    /// A transient device fault at kernel launch (`runner.rs`).
    DeviceFault,
    /// A kernel spins forever; only the step-budget watchdog can end
    /// it (`runner.rs` / `interp.rs`).
    KernelHang,
    /// A cached artifact is corrupted in place (`cache.rs`).
    CorruptCache,
    /// The whole process aborts right after a journal record becomes
    /// durable (`paccport-persist`). Unlike every other kind this one
    /// does not unwind — the site calls [`crash_exit`], and recovery
    /// is proven by restarting with `--resume`.
    Crash,
    /// An in-flight journal or cache-store write is truncated or
    /// garbled mid-write, then the process aborts — the on-disk state
    /// a real power cut leaves behind (`paccport-persist`).
    TornWrite,
}

impl FaultKind {
    /// The spec keyword naming this kind.
    pub fn tag(self) -> &'static str {
        match self {
            FaultKind::CompileFail => "compile",
            FaultKind::CompileSlow => "slow",
            FaultKind::DeviceFault => "device",
            FaultKind::KernelHang => "hang",
            FaultKind::CorruptCache => "corrupt-cache",
            FaultKind::Crash => "crash",
            FaultKind::TornWrite => "torn-write",
        }
    }

    /// Inverse of [`FaultKind::tag`] (journal event records persist
    /// faults by tag and decode through this).
    pub fn from_tag(s: &str) -> Option<Self> {
        Some(match s {
            "compile" => FaultKind::CompileFail,
            "slow" => FaultKind::CompileSlow,
            "device" => FaultKind::DeviceFault,
            "hang" => FaultKind::KernelHang,
            "corrupt-cache" => FaultKind::CorruptCache,
            "crash" => FaultKind::Crash,
            "torn-write" => FaultKind::TornWrite,
            _ => return None,
        })
    }
}

/// The site-key vocabulary `--inject` targets are validated against.
/// A target is accepted when it is a substring of a vocabulary word or
/// a vocabulary word is a substring of it, so both `caps` and a full
/// structured key like `journal:step-000004` pass while a typo like
/// `pgl` is rejected up front instead of silently matching nothing.
const KNOWN_SITE_VOCABULARY: &[&str] = &[
    // Compiler personalities and backends.
    "caps",
    "pgi",
    "openarc",
    "opencl",
    "hand-written",
    "cuda",
    "ocl",
    "acc",
    "gcc",
    "icc",
    // Devices.
    "k40",
    "5110p",
    "firepro",
    "amd",
    "mic",
    "gpu",
    "cpu",
    "host",
    // Benchmarks and their kernels.
    "lud",
    "gaussian",
    "bfs",
    "backprop",
    "hydro",
    "fan1",
    "fan2",
    "kernel",
    "layer_forward",
    "adjust_weights",
    // Variant / series label fragments.
    "base",
    "indep",
    "dist",
    "tile",
    "unroll",
    "reduction",
    "reorg",
    "advanced",
    "tuned",
    "fig",
    "ext",
    "check",
    "cell",
    // Structured site prefixes: compile lowering, artifact cache, and
    // the persist layer's journal/store write sites.
    "lower:",
    "cache:",
    "gen",
    "journal:",
    "step-",
    "rec-",
    "cache-file:",
];

fn target_in_vocabulary(target: &str) -> bool {
    KNOWN_SITE_VOCABULARY
        .iter()
        .any(|v| v.contains(target) || target.contains(v))
}

/// One clause of an inject spec: `kind[:target][:rate]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    pub kind: FaultKind,
    /// Case-insensitive substring matched against the site key;
    /// empty (or `*`) matches every site.
    pub target: String,
    /// Probability per (site, attempt) in `[0, 1]`; omitted = 1.
    pub rate: f64,
}

impl FaultRule {
    fn matches(&self, kind: FaultKind, key: &str) -> bool {
        self.kind == kind
            && (self.target.is_empty() || key.to_ascii_lowercase().contains(&self.target))
    }
}

/// A parsed `--inject` specification.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSpec {
    pub rules: Vec<FaultRule>,
    /// The text the spec was parsed from, echoed in the ledger header.
    pub source: String,
}

impl FaultSpec {
    /// Parse a comma-separated list of `kind[:target][:rate]` clauses.
    ///
    /// `kind` is one of `compile`, `slow`, `device`, `hang`,
    /// `corrupt-cache`, `crash`, `torn-write`; `target` is a
    /// case-insensitive substring of the site key (`*` or empty for
    /// all sites), validated against the known site vocabulary so a
    /// typo fails up front instead of silently matching nothing;
    /// `rate` is a probability in `[0, 1]` (default 1). Each kind may
    /// appear at most once — duplicate clauses would silently shadow
    /// each other via the max-rate merge. The single word `chaos`
    /// expands to [`FaultSpec::chaos`].
    ///
    /// ```
    /// let s = paccport_faults::FaultSpec::parse("compile:caps:0.1,hang:bfs").unwrap();
    /// assert_eq!(s.rules.len(), 2);
    /// assert_eq!(s.rules[0].rate, 0.1);
    /// assert_eq!(s.rules[1].target, "bfs");
    /// ```
    pub fn parse(text: &str) -> Result<FaultSpec, String> {
        if text.trim() == "chaos" {
            return Ok(FaultSpec::chaos());
        }
        let mut rules = Vec::new();
        for clause in text.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let parts: Vec<&str> = clause.split(':').collect();
            if parts.len() > 3 {
                return Err(format!(
                    "inject clause `{clause}` has too many `:` fields (kind[:target][:rate])"
                ));
            }
            let kind = FaultKind::from_tag(parts[0]).ok_or_else(|| {
                format!(
                    "unknown fault kind `{}` (expected compile|slow|device|hang|corrupt-cache|crash|torn-write, or the preset `chaos`)",
                    parts[0]
                )
            })?;
            if rules.iter().any(|r: &FaultRule| r.kind == kind) {
                return Err(format!(
                    "inject clause `{clause}`: fault kind `{}` appears in more than one clause — merge them into one `kind[:target][:rate]` clause",
                    kind.tag()
                ));
            }
            // Two-field form: the second field is a rate if it parses
            // as one, a target otherwise (`hang:bfs` vs `hang:0.2`).
            let (target, rate_text) = match parts.len() {
                1 => ("", None),
                2 => match parts[1].parse::<f64>() {
                    Ok(_) => ("", Some(parts[1])),
                    Err(_) => (parts[1], None),
                },
                _ => (parts[1], Some(parts[2])),
            };
            let rate = match rate_text {
                None => 1.0,
                Some(t) => t
                    .parse::<f64>()
                    .ok()
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or_else(|| {
                        format!("inject clause `{clause}`: rate must be a number in [0, 1]")
                    })?,
            };
            let target = if target == "*" { "" } else { target };
            let target = target.to_ascii_lowercase();
            if !target.is_empty() && !target_in_vocabulary(&target) {
                return Err(format!(
                    "inject clause `{clause}`: unknown target `{target}` — targets substring-match site keys (compilers like `caps`/`pgi`, benchmarks like `lud`/`bfs`, variants like `tile`, or persist sites like `journal:`/`step-000004`); use `*` for all sites"
                ));
            }
            rules.push(FaultRule { kind, target, rate });
        }
        if rules.is_empty() {
            return Err("inject spec is empty".into());
        }
        Ok(FaultSpec {
            rules,
            source: text.trim().to_string(),
        })
    }

    /// The `chaos` preset: moderate transient rates at every site
    /// family, low enough that bounded retry recovers almost every
    /// cell, high enough that every resilience path is exercised.
    pub fn chaos() -> FaultSpec {
        let mk = |kind, rate| FaultRule {
            kind,
            target: String::new(),
            rate,
        };
        FaultSpec {
            rules: vec![
                mk(FaultKind::CompileFail, 0.06),
                mk(FaultKind::CompileSlow, 0.05),
                mk(FaultKind::DeviceFault, 0.06),
                mk(FaultKind::KernelHang, 0.01),
                mk(FaultKind::CorruptCache, 0.05),
            ],
            source: "chaos".into(),
        }
    }

    /// The highest rate any rule assigns to `(kind, key)`, 0 if none.
    fn rate_for(&self, kind: FaultKind, key: &str) -> f64 {
        self.rules
            .iter()
            .filter(|r| r.matches(kind, key))
            .fold(0.0, |acc, r| acc.max(r.rate))
    }
}

// ===================================================================
// Global configuration
// ===================================================================

struct Config {
    spec: FaultSpec,
    seed: u64,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn config() -> &'static Mutex<Option<Config>> {
    static CONFIG: OnceLock<Mutex<Option<Config>>> = OnceLock::new();
    CONFIG.get_or_init(|| Mutex::new(None))
}

/// Install a fault spec process-wide and clear the ledger. Until
/// [`deconfigure`] every injection site rolls against it.
pub fn configure(spec: FaultSpec, seed: u64) {
    *config().lock().unwrap() = Some(Config { spec, seed });
    ledger_set().lock().unwrap().clear();
    // Telemetry timestamps follow the virtual clock while injection is
    // active, so trace exports of a chaos run are fully deterministic.
    paccport_trace::set_clock(Some(vclock::now_ns));
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Remove the fault spec; all sites become no-ops again.
pub fn deconfigure() {
    ACTIVE.store(false, Ordering::Relaxed);
    *config().lock().unwrap() = None;
    ledger_set().lock().unwrap().clear();
    paccport_trace::set_clock(None);
}

/// Whether a fault spec is currently installed.
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// `(spec source, seed)` of the installed config, if any — what the
/// fault-ledger header echoes.
pub fn config_summary() -> Option<(String, u64)> {
    config()
        .lock()
        .unwrap()
        .as_ref()
        .map(|c| (c.spec.source.clone(), c.seed))
}

/// The configured seed (0 when inactive) — shared with the engine's
/// backoff jitter so one `--fault-seed` pins the whole schedule.
pub fn seed() -> u64 {
    config().lock().unwrap().as_ref().map_or(0, |c| c.seed)
}

// ===================================================================
// Decisions
// ===================================================================

thread_local! {
    /// Which retry attempt the current job is on. Set by the engine's
    /// retry loop so a transient fault can clear on the next attempt:
    /// the decision hash includes it, and *only* it, as run state.
    static ATTEMPT: Cell<u32> = const { Cell::new(0) };
}

/// Set the current thread's retry-attempt counter (engine retry loop).
pub fn set_attempt(n: u32) {
    ATTEMPT.with(|a| a.set(n));
}

/// The current thread's retry-attempt counter.
pub fn current_attempt() -> u32 {
    ATTEMPT.with(|a| a.get())
}

/// Murmur3's 64-bit finalizer. Raw FNV-1a avalanches poorly on
/// trailing bytes: a change to the *last* byte hashed (the attempt
/// counter here) moves the hash by at most ~2^48, which almost never
/// flips a `< rate` comparison decided by the top bits — a retried
/// fault would re-fire forever. This mixes every input bit into the
/// top bits.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// A unit-interval sample, pure in its inputs.
fn roll(seed: u64, kind: FaultKind, key: &str, attempt: u32) -> f64 {
    let text = format!("{seed}\u{1f}{}\u{1f}{key}\u{1f}{attempt}", kind.tag());
    let h = mix64(fnv1a64(text.as_bytes(), FNV_BASIS));
    // Top 53 bits -> [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Whether a fault of `kind` fires at site `key` on the current
/// attempt. Pure in `(seed, kind, key, attempt)` — no per-run state,
/// so the answer is identical across schedules and processes.
pub fn should_inject(kind: FaultKind, key: &str) -> bool {
    if !active() {
        return false;
    }
    let guard = config().lock().unwrap();
    let Some(cfg) = guard.as_ref() else {
        return false;
    };
    let rate = cfg.spec.rate_for(kind, key);
    rate > 0.0 && roll(cfg.seed, kind, key, current_attempt()) < rate
}

/// [`should_inject`] plus ledger recording: the one-call form sites
/// use. Returns whether the fault fires.
pub fn inject(kind: FaultKind, key: &str) -> bool {
    if should_inject(kind, key) {
        record(kind, key);
        true
    } else {
        false
    }
}

// ===================================================================
// Ledger
// ===================================================================

/// One injected fault, as the ledger reports it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultEvent {
    pub kind: FaultKind,
    pub key: String,
    pub attempt: u32,
}

#[allow(clippy::type_complexity)]
fn ledger_set() -> &'static Mutex<BTreeSet<(&'static str, String, u32)>> {
    static LEDGER: OnceLock<Mutex<BTreeSet<(&'static str, String, u32)>>> = OnceLock::new();
    LEDGER.get_or_init(|| Mutex::new(BTreeSet::new()))
}

/// Record an injected fault. Deduplicated by `(kind, key, attempt)`:
/// when several workers observe the same shared fault (e.g. a poisoned
/// cache slot) the ledger still holds one entry, keeping its contents
/// independent of scheduling.
pub fn record(kind: FaultKind, key: &str) {
    paccport_trace::add("fault.injected", 1);
    if paccport_trace::metrics::metrics_enabled() {
        paccport_trace::metrics::counter_add("faults_injected_total", &[("kind", kind.tag())], 1);
    }
    let attempt = current_attempt();
    let fresh = ledger_set()
        .lock()
        .unwrap()
        .insert((kind.tag(), key.to_string(), attempt));
    // Notify the sink only for first sightings, and only after the
    // ledger lock is released: the sink may itself take locks (the run
    // journal appends the event durably) and must never nest inside
    // ours.
    if fresh {
        let guard = event_sink().lock().unwrap();
        if let Some(sink) = guard.as_ref() {
            sink(kind, key, attempt);
        }
    }
}

/// Every fault injected since [`configure`], sorted.
pub fn ledger() -> Vec<FaultEvent> {
    ledger_set()
        .lock()
        .unwrap()
        .iter()
        .map(|(tag, key, attempt)| FaultEvent {
            kind: FaultKind::from_tag(tag).expect("ledger holds valid tags"),
            key: key.clone(),
            attempt: *attempt,
        })
        .collect()
}

/// Whether a fault of `kind` was already recorded at site `key` on
/// *any* attempt. Persist sites use this as an at-most-once guard:
/// a torn write replayed after a crash-and-resume must not tear the
/// same bytes again, or recovery would livelock.
pub fn already_injected(kind: FaultKind, key: &str) -> bool {
    let lo = (kind.tag(), key.to_string(), 0u32);
    let hi = (kind.tag(), key.to_string(), u32::MAX);
    ledger_set().lock().unwrap().range(lo..=hi).next().is_some()
}

/// Whether the installed spec gives `kind` a nonzero rate anywhere.
pub fn kind_active(kind: FaultKind) -> bool {
    config()
        .lock()
        .unwrap()
        .as_ref()
        .is_some_and(|c| c.spec.rules.iter().any(|r| r.kind == kind && r.rate > 0.0))
}

// ===================================================================
// Event sink + restore (durability hooks)
// ===================================================================

type EventSink = Box<dyn Fn(FaultKind, &str, u32) + Send + Sync>;

fn event_sink() -> &'static Mutex<Option<EventSink>> {
    static SINK: OnceLock<Mutex<Option<EventSink>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Install a process-wide observer called once per *new* ledger entry
/// (deduplicated exactly like the ledger itself), outside the ledger
/// lock. The persist layer uses this to journal fault events durably
/// so a resumed run can rebuild the same ledger. The sink must not
/// call [`record`] (it would recurse through its own trigger) and must
/// not panic.
pub fn set_event_sink(sink: impl Fn(FaultKind, &str, u32) + Send + Sync + 'static) {
    *event_sink().lock().unwrap() = Some(Box::new(sink));
}

/// Remove the event sink installed by [`set_event_sink`].
pub fn clear_event_sink() {
    *event_sink().lock().unwrap() = None;
}

/// Re-insert a fault event recorded by an earlier process life (read
/// back from the run journal) into the ledger. Bypasses telemetry and
/// the event sink: the event already happened and is already durable —
/// this only rebuilds in-memory state so a resumed run renders the
/// same fault ledger as an uninterrupted one.
pub fn restore_event(kind: FaultKind, key: &str, attempt: u32) {
    ledger_set()
        .lock()
        .unwrap()
        .insert((kind.tag(), key.to_string(), attempt));
}

// ===================================================================
// Crash exit
// ===================================================================

/// Process exit code for an injected crash (EX_TEMPFAIL from
/// sysexits.h: "try again later" — which is literally the protocol;
/// the supervisor restarts with `--resume`). Distinct from every exit
/// code the CLI uses for real outcomes.
pub const CRASH_EXIT_CODE: i32 = 75;

type CrashHook = Box<dyn Fn() + Send + Sync>;

fn crash_hooks() -> &'static Mutex<Vec<CrashHook>> {
    static HOOKS: OnceLock<Mutex<Vec<CrashHook>>> = OnceLock::new();
    HOOKS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a hook run by [`crash_exit`] just before the process
/// aborts. The CLI registers its telemetry flush here so even a
/// crashed run leaves a parseable partial trace.
pub fn on_crash(hook: impl Fn() + Send + Sync + 'static) {
    crash_hooks().lock().unwrap().push(Box::new(hook));
}

/// Abort the process with [`CRASH_EXIT_CODE`], running the [`on_crash`]
/// hooks first. `std::process::exit` (not `abort`) so the hooks'
/// flushed output survives; no destructors beyond the hooks run, which
/// is the point — everything not already durable is lost.
pub fn crash_exit(site: &str) -> ! {
    eprintln!("{INJECTED} crash at {site}");
    for hook in crash_hooks().lock().unwrap().iter() {
        hook();
    }
    std::process::exit(CRASH_EXIT_CODE);
}

// ===================================================================
// Virtual clock + backoff
// ===================================================================

/// A process-global virtual clock, in nanoseconds. It advances only
/// when someone sleeps on it ([`vclock::advance`]); retry backoff is
/// expressed against it so the schedule is testable without wall time.
pub mod vclock {
    use super::*;

    static NOW_NS: AtomicU64 = AtomicU64::new(0);

    /// Current virtual time.
    pub fn now_ns() -> u64 {
        NOW_NS.load(Ordering::Relaxed)
    }

    /// Sleep: advance the clock by `ns` (instantly).
    pub fn advance(ns: u64) {
        NOW_NS.fetch_add(ns, Ordering::Relaxed);
    }

    /// Reset to zero (tests).
    pub fn reset() {
        NOW_NS.store(0, Ordering::Relaxed);
    }
}

/// Exponential backoff with deterministic jitter, capped.
///
/// `delay_ns(key, attempt)` for attempt `n ≥ 1` is
/// `min(cap, base·2^(n-1) + jitter)` with `jitter ∈ [0, base)` drawn
/// from `(seed, key, n)`. The cap is applied *after* the jitter, so
/// the schedule is non-decreasing in `n` for any seed and key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backoff {
    pub base_ns: u64,
    pub cap_ns: u64,
    pub seed: u64,
}

impl Backoff {
    /// The delay before retry attempt `n` (1-based; 0 returns 0).
    pub fn delay_ns(&self, key: &str, attempt: u32) -> u64 {
        if attempt == 0 || self.base_ns == 0 {
            return 0;
        }
        let exp = (attempt - 1).min(32);
        let raw = self.base_ns.saturating_mul(1u64 << exp);
        let text = format!("{}\u{1f}backoff\u{1f}{key}\u{1f}{attempt}", self.seed);
        let jitter = fnv1a64(text.as_bytes(), FNV_BASIS_ALT) % self.base_ns.max(1);
        raw.saturating_add(jitter).min(self.cap_ns)
    }
}

// ===================================================================
// Watchdog
// ===================================================================

/// The typed panic payload a tripped watchdog unwinds with. The
/// runner and the engine downcast for it and turn it into a `Timeout`
/// error; anything else keeps unwinding.
#[derive(Debug, Clone)]
pub struct WatchdogTimeout {
    /// The budget that was exhausted.
    pub budget: u64,
    /// `true` when an injected hang burned the budget (the timeout is
    /// then chaos, not a genuine runaway loop).
    pub injected: bool,
}

/// Default step budget armed around a job when faults are active but
/// the caller did not pick one. Far above any honest cell at smoke or
/// quick scale, small enough that a spin loop trips in milliseconds.
pub const DEFAULT_STEP_BUDGET: u64 = 2_000_000_000;

/// Number of threads with an armed watchdog — the fast-path gate for
/// [`charge`], mirroring `paccport-trace`'s enabled flag.
static WATCHERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static BUDGET: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Arm (or re-arm) this thread's watchdog with a fresh step budget.
pub fn arm_watchdog(steps: u64) {
    BUDGET.with(|b| {
        if b.replace(Some(steps)).is_none() {
            WATCHERS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Disarm this thread's watchdog. No-op if not armed.
pub fn disarm_watchdog() {
    BUDGET.with(|b| {
        if b.take().is_some() {
            WATCHERS.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

/// Whether this thread's watchdog is armed.
pub fn watchdog_armed() -> bool {
    WATCHERS.load(Ordering::Relaxed) > 0 && BUDGET.with(|b| b.get().is_some())
}

/// Charge `n` steps against this thread's budget; panics with a
/// [`WatchdogTimeout`] payload when it runs out. One relaxed atomic
/// load when no thread is armed.
#[inline]
pub fn charge(n: u64) {
    if WATCHERS.load(Ordering::Relaxed) == 0 {
        return;
    }
    charge_slow(n, false);
}

fn charge_slow(n: u64, injected: bool) {
    let tripped = BUDGET.with(|b| match b.get() {
        Some(left) if left < n => {
            // Disarm before unwinding so cleanup code that also
            // charges cannot double-panic.
            b.set(None);
            WATCHERS.fetch_sub(1, Ordering::Relaxed);
            Some(left)
        }
        Some(left) => {
            b.set(Some(left - n));
            None
        }
        None => None,
    });
    if let Some(budget) = tripped {
        paccport_trace::add("watchdog.timeout", 1);
        std::panic::panic_any(WatchdogTimeout {
            budget: budget.max(n),
            injected,
        });
    }
}

/// Charge `n` steps at once if this thread's budget covers every one
/// of them (always, with no watchdog armed); otherwise charge nothing
/// and return `false`, so the caller can take a path that charges step
/// by step and trips at the exact step [`charge`] would.
pub fn try_charge(n: u64) -> bool {
    if WATCHERS.load(Ordering::Relaxed) == 0 {
        return true;
    }
    BUDGET.with(|b| match b.get() {
        Some(left) if left < n => false,
        Some(left) => {
            b.set(Some(left - n));
            true
        }
        None => true,
    })
}

/// An injected hang: spin on the watchdog budget until it trips. Arms
/// the default budget first if nothing is armed, so a hang can never
/// actually wedge the process.
pub fn hang() -> ! {
    if !watchdog_armed() {
        arm_watchdog(DEFAULT_STEP_BUDGET);
    }
    loop {
        charge_slow(1 << 16, true);
    }
}

/// Downcast a caught panic payload to the watchdog timeout, if that
/// is what unwound.
pub fn timeout_of(payload: &(dyn Any + Send)) -> Option<&WatchdogTimeout> {
    payload.downcast_ref::<WatchdogTimeout>()
}

/// Render a caught panic payload as an error message. Watchdog
/// timeouts become `Timeout` errors (carrying [`INJECTED`] when a
/// hang fault caused them); other payloads keep their text.
pub fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(t) = timeout_of(payload) {
        let mark = if t.injected {
            format!("{INJECTED} ")
        } else {
            String::new()
        };
        format!("{mark}Timeout: step budget of {} exhausted", t.budget)
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".into()
    }
}

// ===================================================================
// Panic-hook quieting for isolated jobs
// ===================================================================

thread_local! {
    static IN_ISOLATED_JOB: Cell<u32> = const { Cell::new(0) };
}

/// RAII marker that the current thread is inside a `catch_unwind`
/// job whose panics are reported through the quarantine ledger; the
/// quiet hook suppresses the default stderr backtrace for them.
pub struct JobGuard(());

impl Drop for JobGuard {
    fn drop(&mut self) {
        IN_ISOLATED_JOB.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Enter an isolated job (see [`JobGuard`]).
pub fn job_guard() -> JobGuard {
    IN_ISOLATED_JOB.with(|c| c.set(c.get() + 1));
    JobGuard(())
}

/// Install (once) a panic hook that stays silent for panics inside
/// isolated jobs — they resurface as `FAILED(reason, attempts)`
/// report entries — and delegates everything else to the previous
/// hook.
pub fn install_quiet_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let quiet = IN_ISOLATED_JOB.with(|c| c.get() > 0)
                || info.payload().downcast_ref::<WatchdogTimeout>().is_some();
            if !quiet {
                previous(info);
            }
        }));
    });
}

// ===================================================================
// Convenience site helpers
// ===================================================================

/// Virtual nanoseconds a flaky slow compile stalls for.
pub const SLOW_COMPILE_VNS: u64 = 1_500_000_000;

/// The `slow` site: when the fault fires, stall on the virtual clock.
///
/// Deliberately does NOT burn watchdog steps: the step budget models
/// *work* (a hung interpreter loop), latency belongs on the clock.
/// Charging here would also couple timeouts to which thread happens
/// to warm the compile cache, making quarantine schedule-dependent.
pub fn maybe_slow_compile(key: &str) {
    if inject(FaultKind::CompileSlow, key) {
        vclock::advance(SLOW_COMPILE_VNS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Fault config is process-global; serialize the tests that touch it.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn parse_full_grammar() {
        let s = FaultSpec::parse("compile:caps:0.1,hang:bfs,corrupt-cache").unwrap();
        assert_eq!(s.rules.len(), 3);
        assert_eq!(s.rules[0].kind, FaultKind::CompileFail);
        assert_eq!(s.rules[0].target, "caps");
        assert_eq!(s.rules[0].rate, 0.1);
        assert_eq!(s.rules[1].kind, FaultKind::KernelHang);
        assert_eq!(s.rules[1].target, "bfs");
        assert_eq!(s.rules[1].rate, 1.0);
        assert_eq!(s.rules[2].target, "");
    }

    #[test]
    fn parse_two_field_rate_vs_target() {
        let s = FaultSpec::parse("device:0.25").unwrap();
        assert_eq!(s.rules[0].target, "");
        assert_eq!(s.rules[0].rate, 0.25);
        let s = FaultSpec::parse("device:LUD").unwrap();
        assert_eq!(s.rules[0].target, "lud");
        assert_eq!(s.rules[0].rate, 1.0);
    }

    #[test]
    fn parse_rejects_junk() {
        assert!(FaultSpec::parse("").is_err());
        assert!(FaultSpec::parse("explode:caps").is_err());
        assert!(FaultSpec::parse("compile:caps:1.5").is_err());
        assert!(FaultSpec::parse("compile:caps:0.1:extra").is_err());
    }

    #[test]
    fn chaos_preset_covers_every_kind() {
        let s = FaultSpec::parse("chaos").unwrap();
        let kinds: Vec<_> = s.rules.iter().map(|r| r.kind).collect();
        for k in [
            FaultKind::CompileFail,
            FaultKind::CompileSlow,
            FaultKind::DeviceFault,
            FaultKind::KernelHang,
            FaultKind::CorruptCache,
        ] {
            assert!(kinds.contains(&k), "chaos missing {k:?}");
        }
        assert!(s.rules.iter().all(|r| r.rate > 0.0 && r.rate < 0.2));
    }

    #[test]
    fn decisions_are_pure_and_seeded() {
        let _g = lock();
        configure(FaultSpec::parse("compile:*:0.5").unwrap(), 7);
        let keys: Vec<String> = (0..64).map(|i| format!("caps:prog{i}")).collect();
        let a: Vec<bool> = keys
            .iter()
            .map(|k| should_inject(FaultKind::CompileFail, k))
            .collect();
        let b: Vec<bool> = keys
            .iter()
            .map(|k| should_inject(FaultKind::CompileFail, k))
            .collect();
        assert_eq!(a, b, "same seed, same answers");
        assert!(
            a.iter().any(|&x| x) && a.iter().any(|&x| !x),
            "rate 0.5 mixes"
        );

        configure(FaultSpec::parse("compile:*:0.5").unwrap(), 8);
        let c: Vec<bool> = keys
            .iter()
            .map(|k| should_inject(FaultKind::CompileFail, k))
            .collect();
        assert_ne!(a, c, "different seed, different pattern");
        deconfigure();
    }

    #[test]
    fn rate_extremes_and_attempt_sensitivity() {
        let _g = lock();
        configure(FaultSpec::parse("device:*:1").unwrap(), 1);
        assert!(should_inject(FaultKind::DeviceFault, "x"));
        assert!(
            !should_inject(FaultKind::KernelHang, "x"),
            "other kinds silent"
        );
        configure(FaultSpec::parse("device:*:0").unwrap(), 1);
        assert!(!should_inject(FaultKind::DeviceFault, "x"));

        // A 0.5-rate fault clears on some attempt: decisions vary with
        // the attempt counter and nothing else.
        configure(FaultSpec::parse("device:*:0.5").unwrap(), 3);
        let per_attempt: Vec<bool> = (0..16)
            .map(|a| {
                set_attempt(a);
                should_inject(FaultKind::DeviceFault, "cell")
            })
            .collect();
        set_attempt(0);
        assert!(per_attempt.iter().any(|&x| !x));
        deconfigure();
    }

    #[test]
    fn target_filters_by_substring() {
        let _g = lock();
        configure(FaultSpec::parse("compile:caps").unwrap(), 1);
        assert!(should_inject(FaultKind::CompileFail, "CAPS 3.4.1:lud"));
        assert!(!should_inject(FaultKind::CompileFail, "PGI 14.9:lud"));
        deconfigure();
    }

    #[test]
    fn ledger_dedups_and_sorts() {
        let _g = lock();
        configure(FaultSpec::parse("device").unwrap(), 1);
        record(FaultKind::DeviceFault, "b");
        record(FaultKind::DeviceFault, "a");
        record(FaultKind::DeviceFault, "b");
        let l = ledger();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].key, "a");
        assert_eq!(l[1].key, "b");
        deconfigure();
        assert!(ledger().is_empty());
    }

    #[test]
    fn vclock_advances_without_wall_time() {
        let t0 = vclock::now_ns();
        vclock::advance(1_000_000);
        assert_eq!(vclock::now_ns() - t0, 1_000_000);
    }

    #[test]
    fn backoff_is_monotone_capped_deterministic() {
        let b = Backoff {
            base_ns: 50_000_000,
            cap_ns: 2_000_000_000,
            seed: 42,
        };
        let delays: Vec<u64> = (1..12).map(|a| b.delay_ns("cell", a)).collect();
        for w in delays.windows(2) {
            assert!(w[0] <= w[1], "monotone: {delays:?}");
        }
        assert!(delays.iter().all(|&d| d <= b.cap_ns));
        assert_eq!(delays.last(), Some(&b.cap_ns), "reaches the cap");
        assert_eq!(b.delay_ns("cell", 3), b.delay_ns("cell", 3));
        assert_eq!(b.delay_ns("x", 0), 0);
    }

    #[test]
    fn watchdog_trips_as_typed_timeout() {
        let _g = lock();
        install_quiet_panic_hook();
        arm_watchdog(100);
        charge(60);
        assert!(watchdog_armed());
        let caught = std::panic::catch_unwind(|| charge(60)).unwrap_err();
        let t = timeout_of(caught.as_ref()).expect("typed payload");
        assert!(!t.injected);
        assert!(!watchdog_armed(), "disarmed before unwinding");
        assert!(describe_panic(caught.as_ref()).contains("Timeout"));
        // Re-arm + disarm round-trips.
        arm_watchdog(10);
        disarm_watchdog();
        assert!(!watchdog_armed());
        charge(1_000_000); // no-op when disarmed
    }

    #[test]
    fn try_charge_takes_all_or_nothing() {
        let _g = lock();
        assert!(try_charge(u64::MAX), "no watchdog: always fits");
        arm_watchdog(100);
        assert!(!try_charge(101), "over budget: refused");
        assert!(try_charge(100), "a refusal charged nothing");
        assert!(
            watchdog_armed(),
            "exactly exhausting the budget does not trip"
        );
        assert!(!try_charge(1));
        install_quiet_panic_hook();
        let caught = std::panic::catch_unwind(|| charge(1)).unwrap_err();
        assert!(
            timeout_of(caught.as_ref()).is_some(),
            "the next single step trips"
        );
        assert!(!watchdog_armed());
    }

    #[test]
    fn hang_terminates_via_watchdog_and_is_injected() {
        let _g = lock();
        install_quiet_panic_hook();
        let caught = std::panic::catch_unwind(|| hang()).unwrap_err();
        let t = timeout_of(caught.as_ref()).expect("typed payload");
        assert!(t.injected);
        let msg = describe_panic(caught.as_ref());
        assert!(is_injected(&msg) && msg.contains("Timeout"), "{msg}");
    }

    #[test]
    fn injected_marker_protocol() {
        assert!(is_injected("[injected] transient device fault"));
        assert!(!is_injected("store index 9 out of bounds"));
    }

    #[test]
    fn parse_accepts_persist_kinds() {
        let s = FaultSpec::parse("crash:step-000004,torn-write:journal").unwrap();
        assert_eq!(s.rules[0].kind, FaultKind::Crash);
        assert_eq!(s.rules[0].target, "step-000004");
        assert_eq!(s.rules[1].kind, FaultKind::TornWrite);
        assert_eq!(s.rules[1].target, "journal");
        let s = FaultSpec::parse("crash:0.25").unwrap();
        assert_eq!(s.rules[0].rate, 0.25);
        assert_eq!(s.rules[0].target, "");
        assert_eq!(
            FaultKind::from_tag("torn-write"),
            Some(FaultKind::TornWrite)
        );
        assert_eq!(FaultKind::from_tag("crash"), Some(FaultKind::Crash));
    }

    #[test]
    fn parse_rejects_duplicate_kinds() {
        let err = FaultSpec::parse("compile:caps,compile:pgi").unwrap_err();
        assert!(err.contains("more than one clause"), "{err}");
        let err = FaultSpec::parse("crash,crash:0.5").unwrap_err();
        assert!(err.contains("`crash`"), "{err}");
        // Distinct kinds still compose.
        assert!(FaultSpec::parse("compile:caps,device:lud").is_ok());
    }

    #[test]
    fn parse_rejects_unknown_targets() {
        let err = FaultSpec::parse("hang:zzzqqq").unwrap_err();
        assert!(err.contains("unknown target `zzzqqq`"), "{err}");
        assert!(err.contains("`*`"), "actionable: {err}");
        // Known vocabulary, case-insensitively, still passes.
        for ok in [
            "hang:LUD",
            "compile:caps",
            "device:fig",
            "crash:step-000123",
            "torn-write:cache-file",
        ] {
            assert!(FaultSpec::parse(ok).is_ok(), "{ok} should parse");
        }
    }

    #[test]
    fn already_injected_restore_and_kind_active() {
        let _g = lock();
        configure(FaultSpec::parse("device:lud").unwrap(), 1);
        assert!(kind_active(FaultKind::DeviceFault));
        assert!(!kind_active(FaultKind::Crash));
        assert!(!already_injected(FaultKind::DeviceFault, "lud#k"));
        record(FaultKind::DeviceFault, "lud#k");
        assert!(already_injected(FaultKind::DeviceFault, "lud#k"));
        assert!(
            !already_injected(FaultKind::KernelHang, "lud#k"),
            "kind is part of the key"
        );

        // Restoring a journaled event rebuilds the ledger entry without
        // re-counting it as a new injection.
        restore_event(FaultKind::TornWrite, "journal:rec-1234", 2);
        let l = ledger();
        assert!(l.iter().any(|e| e.kind == FaultKind::TornWrite
            && e.key == "journal:rec-1234"
            && e.attempt == 2));
        deconfigure();
    }

    #[test]
    fn event_sink_fires_once_per_new_entry() {
        let _g = lock();
        use std::sync::Arc;
        let seen: Arc<Mutex<Vec<(String, String, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        configure(FaultSpec::parse("device:lud").unwrap(), 1);
        set_event_sink(move |kind, key, attempt| {
            seen2
                .lock()
                .unwrap()
                .push((kind.tag().into(), key.into(), attempt));
        });
        record(FaultKind::DeviceFault, "lud#a");
        record(FaultKind::DeviceFault, "lud#a"); // dedup: no second event
        record(FaultKind::DeviceFault, "lud#b");
        restore_event(FaultKind::DeviceFault, "lud#c", 0); // restore: silent
        clear_event_sink();
        record(FaultKind::DeviceFault, "lud#d"); // sink removed
        let events = seen.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                ("device".to_string(), "lud#a".to_string(), 0),
                ("device".to_string(), "lud#b".to_string(), 0),
            ]
        );
        deconfigure();
    }
}
