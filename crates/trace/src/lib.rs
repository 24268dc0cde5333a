//! # paccport-trace — structured telemetry for the pipeline
//!
//! A zero-dependency telemetry layer threaded through the compile and
//! simulation pipeline (`compilers::lower`, `compilers::transforms`,
//! `devsim::runner`, the experiment engine). It has three concentric
//! collection modes, each gated by its own flag and off by default
//! (one relaxed atomic load per site when everything is off):
//!
//! * **aggregates** ([`set_enabled`], `reproduce --trace`) — every
//!   span records call count and total wall time, every counter
//!   accumulates; [`summary`] snapshots them as the classic
//!   [`Summary`] table. This is the original `paccport-trace`
//!   surface and stays byte-compatible.
//! * **events** ([`set_events_enabled`], `reproduce --trace-out`) —
//!   every span additionally records a timestamped [`SpanEvent`]
//!   (open/close time, lane/task/seq identity, nesting stack,
//!   `key=value` attributes) into a per-thread buffer. [`events`]
//!   merges the buffers into one deterministically ordered stream for
//!   the exporters in [`export`] (Chrome trace JSON, JSONL, folded
//!   flamegraph stacks).
//! * **metrics** ([`metrics::set_metrics_enabled`],
//!   `reproduce --metrics-out`) — counters mirror into the typed
//!   [`metrics`] registry and span closes observe duration
//!   histograms; instrumented crates add labeled hardware-counter
//!   metrics on top (per-kernel launches, device seconds, occupancy).
//!
//! ## Determinism
//!
//! Recording is per-thread (no global lock on the hot path, the fix
//! for the old single mutex'd map), but the *merged* stream must not
//! depend on which OS thread ran which job. Three mechanisms make the
//! exports structurally reproducible:
//!
//! * **Canonical lanes** — the experiment engine wraps each job in a
//!   [`task_scope`] carrying the job's *home lane* (submission index
//!   mod worker count) and a process-unique task ordinal allocated at
//!   submission time ([`alloc_tasks`]). Events are attributed to that
//!   scope even when a work-stealing thread actually ran the job, so
//!   the lane layout and event ordering are pure functions of the
//!   submission order. The physical thread is still recorded
//!   ([`SpanEvent::thread`]) but deliberately excluded from exports.
//! * **Owned shared work** — a singleflight compile runs on whichever
//!   job wins the race for it; [`SharedWork`] exports its spans under
//!   the earliest-submitted job that asked for it instead.
//! * **Pluggable clock** — timestamps come from a wall-clock epoch by
//!   default; when fault injection is configured,
//!   `paccport_faults::configure` installs the virtual clock via
//!   [`set_clock`], so an injected run's timestamps are themselves
//!   schedule-independent on the serial path.
//!
//! [`events`] returns the merged stream sorted by
//! `(lane, task, seq)` — submission order, not wall-clock order — so
//! two runs with the same flags produce identically ordered exports
//! and differ only in the timestamp fields.
//!
//! ```
//! paccport_trace::reset();
//! paccport_trace::set_enabled(true);
//! paccport_trace::set_events_enabled(true);
//! {
//!     let _g = paccport_trace::span("demo.work");
//!     paccport_trace::add("demo.items", 3);
//! }
//! let s = paccport_trace::summary();
//! assert_eq!(s.counter("demo.items"), 3);
//! assert_eq!(s.span_count("demo.work"), 1);
//! let ev = paccport_trace::events();
//! assert_eq!(ev.iter().filter(|e| e.name == "demo.work").count(), 1);
//! paccport_trace::set_enabled(false);
//! paccport_trace::set_events_enabled(false);
//! ```

pub mod context;
pub mod export;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod rng;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

// ===================================================================
// Collection flags
// ===================================================================

/// Aggregate spans/counters (the classic `--trace` summary).
const F_AGG: u8 = 1;
/// Timestamped event stream (`--trace-out`).
const F_EVENTS: u8 = 2;
/// Typed metrics registry (`--metrics-out`); the bit lives here so
/// one atomic load gates every site, but the registry itself is in
/// [`metrics`].
pub(crate) const F_METRICS: u8 = 4;

pub(crate) static FLAGS: AtomicU8 = AtomicU8::new(0);

pub(crate) fn flags() -> u8 {
    FLAGS.load(Ordering::Relaxed)
}

fn set_flag(bit: u8, on: bool) {
    if on {
        FLAGS.fetch_or(bit, Ordering::Relaxed);
    } else {
        FLAGS.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// Turn aggregate collection on or off (global; off by default).
pub fn set_enabled(on: bool) {
    set_flag(F_AGG, on);
}

/// Whether aggregate collection is currently on.
pub fn enabled() -> bool {
    flags() & F_AGG != 0
}

/// Turn the timestamped event stream on or off.
pub fn set_events_enabled(on: bool) {
    set_flag(F_EVENTS, on);
}

// ===================================================================
// Clock
// ===================================================================

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[allow(clippy::type_complexity)]
fn clock_slot() -> &'static Mutex<Option<fn() -> u64>> {
    static CLOCK: OnceLock<Mutex<Option<fn() -> u64>>> = OnceLock::new();
    CLOCK.get_or_init(|| Mutex::new(None))
}

/// Install (or with `None`, remove) an alternative timestamp source.
/// `paccport-faults` installs its virtual clock here while fault
/// injection is configured, so injected runs export deterministic
/// timestamps instead of wall-clock ones.
pub fn set_clock(source: Option<fn() -> u64>) {
    *clock_slot().lock().unwrap() = source;
}

/// Current trace timestamp in nanoseconds: the installed clock if
/// any, otherwise wall time since the process's first trace call.
pub fn now_ns() -> u64 {
    if let Some(f) = *clock_slot().lock().unwrap() {
        return f();
    }
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

// ===================================================================
// Per-thread buffers
// ===================================================================

/// One completed span, as the event stream records it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Site name (`devsim.run`, `engine.job`, …).
    pub name: String,
    /// Canonical lane: 0 for the main thread, `1 + (job % workers)`
    /// for engine jobs (the job's *home* worker, stable across
    /// work-stealing schedules).
    pub lane: u32,
    /// Process-unique task ordinal of the enclosing [`task_scope`]
    /// (0 outside any scope), allocated in submission order.
    pub task: u64,
    /// Span-open order within the `(lane, task)` scope.
    pub seq: u64,
    /// Nesting depth at open (0 = top level of its scope).
    pub depth: u32,
    /// Names of the enclosing open spans, outermost first.
    pub stack: Vec<String>,
    /// Registration ordinal of the OS thread that recorded the span.
    /// Schedule-dependent, so exporters deliberately omit it.
    pub thread: u32,
    /// Request context of the enclosing [`request_scope`] (0 outside
    /// any request) — how the server partitions one shared event
    /// stream into per-request traces.
    pub ctx: u64,
    /// Clock at open ([`now_ns`]).
    pub start_ns: u64,
    /// Close minus open.
    pub dur_ns: u64,
    /// `key=value` attributes, in the order given at the call site.
    pub attrs: Vec<(String, String)>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
}

struct OpenSpan {
    name: &'static str,
    attrs: Vec<(String, String)>,
    start_ns: u64,
    seq: u64,
}

#[derive(Default)]
struct ThreadBuf {
    thread: u32,
    lane: u32,
    task: u64,
    ctx: u64,
    next_seq: u64,
    open: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
    shared: Option<Performing>,
    /// Events recorded while performing shared work, waiting to be
    /// attributed to the work's owner.
    shared_events: Vec<(Arc<SharedWork>, u32, SpanEvent)>,
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
}

type SharedBuf = Arc<Mutex<ThreadBuf>>;

fn all_bufs() -> &'static Mutex<Vec<SharedBuf>> {
    static ALL: OnceLock<Mutex<Vec<SharedBuf>>> = OnceLock::new();
    ALL.get_or_init(|| Mutex::new(Vec::new()))
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static NEXT_TASK: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TL_BUF: RefCell<Option<SharedBuf>> = const { RefCell::new(None) };
}

fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    TL_BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let arc = slot.get_or_insert_with(|| {
            let buf = Arc::new(Mutex::new(ThreadBuf {
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                ..ThreadBuf::default()
            }));
            all_bufs().lock().unwrap().push(buf.clone());
            buf
        });
        let mut b = arc.lock().unwrap();
        f(&mut b)
    })
}

/// Reserve `n` consecutive task ordinals, returning the first. The
/// engine calls this once per batch *at submission time* (on the
/// caller's thread), which is what makes task ids — and therefore the
/// merged event order — independent of worker scheduling.
pub fn alloc_tasks(n: u64) -> u64 {
    NEXT_TASK.fetch_add(n, Ordering::Relaxed)
}

/// Attribute everything this thread records, until the guard drops,
/// to canonical `(lane, task)` instead of the default main scope.
/// Restores the previous scope (including its sequence counter) on
/// drop, so scopes nest.
#[must_use = "the scope lasts until the guard drops"]
pub fn task_scope(lane: u32, task: u64) -> ScopeGuard {
    if flags() == 0 {
        return ScopeGuard { prev: None };
    }
    let prev = with_buf(|b| {
        let prev = (b.lane, b.task, b.next_seq);
        b.lane = lane;
        b.task = task;
        b.next_seq = 0;
        prev
    });
    ScopeGuard { prev: Some(prev) }
}

pub struct ScopeGuard {
    prev: Option<(u32, u64, u64)>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some((lane, task, seq)) = self.prev.take() {
            with_buf(|b| {
                b.lane = lane;
                b.task = task;
                b.next_seq = seq;
            });
        }
    }
}

/// Work that several tasks need but only one performs: the artifact
/// cache's singleflight compile. Which task wins the race to perform it
/// depends on the schedule, so its spans do not stay with the
/// performer. They are exported under the work's *owner*, the claimant
/// with the lowest task ordinal (earliest in submission order), nested
/// where that task claimed it. Every claimant reserves one sequence
/// slot when it claims, so span order within a task does not depend on
/// whether it was the one that performed the work either.
#[derive(Default)]
pub struct SharedWork {
    owner: Mutex<Option<Owner>>,
}

/// Where a claimant stood when it claimed a [`SharedWork`].
struct Owner {
    lane: u32,
    task: u64,
    seq: u64,
    stack: Vec<String>,
}

impl SharedWork {
    pub fn new() -> Arc<SharedWork> {
        Arc::default()
    }

    /// Record that the current task needs this work. Call it before
    /// [`SharedWork::perform`], whether or not this task performs it.
    pub fn claim(&self) {
        if flags() & F_EVENTS == 0 {
            return;
        }
        let me = with_buf(|b| {
            let seq = b.next_seq;
            b.next_seq += 1;
            Owner {
                lane: b.lane,
                task: b.task,
                seq,
                stack: b.open.iter().map(|o| o.name.to_string()).collect(),
            }
        });
        let mut owner = self.owner.lock().expect("owner updates never panic");
        if owner
            .as_ref()
            .is_none_or(|o| (me.task, me.seq) < (o.task, o.seq))
        {
            *owner = Some(me);
        }
    }

    /// Hold the spans this thread records, until the guard drops, for
    /// the work's owner.
    #[must_use = "the scope lasts until the guard drops"]
    pub fn perform(self: &Arc<Self>) -> SharedScope {
        if flags() & F_EVENTS == 0 {
            return SharedScope { prev: None };
        }
        let prev = with_buf(|b| {
            let depth = b.open.len() as u32;
            let prev = b.shared.replace((Arc::clone(self), depth));
            (prev, std::mem::take(&mut b.next_seq))
        });
        SharedScope { prev: Some(prev) }
    }

    /// `e`, recorded `base` spans deep while performing this work, as
    /// its owner's: in the owner's lane and task, at the reserved
    /// sequence slot, under the spans the owner had open.
    fn attribute(&self, base: u32, mut e: SpanEvent) -> SpanEvent {
        let owner = self.owner.lock().expect("owner updates never panic");
        if let Some(o) = owner.as_ref() {
            let inner = e.stack.split_off((base as usize).min(e.stack.len()));
            e.stack = o.stack.iter().cloned().chain(inner).collect();
            e.depth = e.stack.len() as u32;
            e.lane = o.lane;
            e.task = o.task;
            e.seq = o.seq;
            e.thread = 0;
        }
        e
    }
}

/// The [`SharedWork`] a thread is performing, with the nesting depth
/// it started at.
type Performing = (Arc<SharedWork>, u32);

pub struct SharedScope {
    prev: Option<(Option<Performing>, u64)>,
}

impl Drop for SharedScope {
    fn drop(&mut self) {
        if let Some((shared, seq)) = self.prev.take() {
            with_buf(|b| {
                b.shared = shared;
                b.next_seq = seq;
            });
        }
    }
}

/// Attribute held shared-work events to their owners, keeping each
/// work's events in the order they were opened, and merge them into
/// `out` (which is then sorted by the canonical key).
fn merge_shared(out: &mut Vec<SpanEvent>, shared: Vec<(Arc<SharedWork>, u32, SpanEvent)>) {
    let mut moved: Vec<(u64, SpanEvent)> = shared
        .into_iter()
        .map(|(work, base, e)| (e.seq, work.attribute(base, e)))
        .collect();
    moved.sort_by_key(|(opened, e)| (e.lane, e.task, e.seq, *opened));
    out.extend(moved.into_iter().map(|(_, e)| e));
    // Stable: attributed events tie on (lane, task, seq, thread) and
    // keep the order set above.
    out.sort_by_key(|e| (e.lane, e.task, e.seq, e.thread));
}

/// Tag everything this thread records, until the guard drops, with
/// request context `ctx` ([`SpanEvent::ctx`]). The server opens one
/// scope per request handler (and the engine re-enters the
/// submitter's context on its worker threads), so the merged event
/// stream partitions cleanly by request even while requests run
/// concurrently. Scopes nest and restore on drop like [`task_scope`].
#[must_use = "the scope lasts until the guard drops"]
pub fn request_scope(ctx: u64) -> RequestScopeGuard {
    if flags() == 0 {
        return RequestScopeGuard { prev: None };
    }
    let prev = with_buf(|b| {
        let prev = b.ctx;
        b.ctx = ctx;
        prev
    });
    RequestScopeGuard { prev: Some(prev) }
}

/// The request context this thread currently records under (0 when
/// outside any [`request_scope`]) — the engine reads it at batch
/// submission to re-enter the same context on its workers.
pub fn current_ctx() -> u64 {
    if flags() == 0 {
        return 0;
    }
    with_buf(|b| b.ctx)
}

pub struct RequestScopeGuard {
    prev: Option<u64>,
}

impl Drop for RequestScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            with_buf(|b| b.ctx = prev);
        }
    }
}

/// Drain every event recorded under request context `ctx` out of the
/// per-thread buffers, returning them in canonical `(lane, task,
/// seq)` order. This is how the server's flight recorder collects one
/// request's spans without disturbing concurrent requests — and how a
/// long-lived server keeps the buffers bounded: a request's events
/// leave the buffers the moment its trace is recorded, and buffers
/// belonging to exited engine workers are dropped once empty.
pub fn take_request_events(ctx: u64) -> Vec<SpanEvent> {
    let mut bufs = all_bufs().lock().unwrap();
    let mut out: Vec<SpanEvent> = Vec::new();
    let mut shared = Vec::new();
    for buf in bufs.iter() {
        let mut b = buf.lock().unwrap();
        let (mine, kept) = b.events.drain(..).partition(|e| e.ctx == ctx);
        out.extend::<Vec<_>>(mine);
        b.events = kept;
        let (mine, kept) = b
            .shared_events
            .drain(..)
            .partition(|(_, _, e)| e.ctx == ctx);
        shared.extend::<Vec<_>>(mine);
        b.shared_events = kept;
    }
    // Prune buffers whose thread has exited (the registry holds the
    // only Arc) once their events are drained. Their aggregates move
    // to the retired store first so `summary` stays complete — the
    // engine spawns fresh scoped workers per batch, and without this
    // a long-lived server would grow one dead buffer per worker per
    // batch.
    bufs.retain(|buf| {
        if Arc::strong_count(buf) > 1 {
            return true;
        }
        let mut b = buf.lock().unwrap();
        if !b.events.is_empty() || !b.shared_events.is_empty() || !b.open.is_empty() {
            return true;
        }
        let mut retired = retired_aggregates().lock().unwrap();
        for (k, v) in std::mem::take(&mut b.spans) {
            let s = retired.spans.entry(k).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
        for (k, v) in std::mem::take(&mut b.counters) {
            *retired.counters.entry(k).or_default() += v;
        }
        false
    });
    merge_shared(&mut out, shared);
    out
}

/// Aggregates inherited from pruned (dead-thread) buffers.
#[derive(Default)]
struct Retired {
    spans: BTreeMap<String, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
}

fn retired_aggregates() -> &'static Mutex<Retired> {
    static RETIRED: OnceLock<Mutex<Retired>> = OnceLock::new();
    RETIRED.get_or_init(|| Mutex::new(Retired::default()))
}

// ===================================================================
// Spans and counters
// ===================================================================

/// Enter a span. The returned guard records count + elapsed time
/// under `name` when dropped (and, with events enabled, a full
/// [`SpanEvent`]). When all collection is off this is one atomic load
/// and no allocation.
#[must_use = "the span is recorded when the guard drops"]
pub fn span(name: &'static str) -> SpanGuard {
    span_attrs(name, Vec::new())
}

/// [`span`] with `key=value` attributes attached to the event (and to
/// the Chrome/JSONL exports). Attributes do not affect aggregation —
/// the summary still groups by name alone.
#[must_use = "the span is recorded when the guard drops"]
pub fn span_attrs(name: &'static str, attrs: Vec<(String, String)>) -> SpanGuard {
    if flags() == 0 {
        return SpanGuard { armed: false };
    }
    let start_ns = now_ns();
    with_buf(|b| {
        let seq = b.next_seq;
        b.next_seq += 1;
        b.open.push(OpenSpan {
            name,
            attrs,
            start_ns,
            seq,
        });
    });
    SpanGuard { armed: true }
}

pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let end_ns = now_ns();
        let f = flags();
        let observed = with_buf(|b| {
            let frame = b.open.pop()?;
            let dur_ns = end_ns.saturating_sub(frame.start_ns);
            if f & (F_AGG | F_EVENTS) != 0 {
                let s = b.spans.entry(frame.name.to_string()).or_default();
                s.count += 1;
                s.total_ns += dur_ns;
            }
            if f & F_EVENTS != 0 {
                let event = SpanEvent {
                    name: frame.name.to_string(),
                    lane: b.lane,
                    task: b.task,
                    seq: frame.seq,
                    depth: b.open.len() as u32,
                    stack: b.open.iter().map(|o| o.name.to_string()).collect(),
                    thread: b.thread,
                    ctx: b.ctx,
                    start_ns: frame.start_ns,
                    dur_ns,
                    attrs: frame.attrs,
                };
                match &b.shared {
                    Some((work, base)) => {
                        let held = (Arc::clone(work), *base, event);
                        b.shared_events.push(held);
                    }
                    None => b.events.push(event),
                }
            }
            Some((frame.name, dur_ns))
        });
        if f & F_METRICS != 0 {
            if let Some((name, dur_ns)) = observed {
                metrics::observe("trace_span_seconds", &[("span", name)], dur_ns as f64 / 1e9);
            }
        }
    }
}

/// Bump a named counter by `n` (no-op while all collection is off).
/// With metrics enabled the increment also mirrors into the typed
/// registry under the Prometheus-sanitized name (`cache.hit` →
/// `cache_hit`).
pub fn add(name: &'static str, n: u64) {
    let f = flags();
    if f == 0 {
        return;
    }
    if f & (F_AGG | F_EVENTS) != 0 {
        with_buf(|b| *b.counters.entry(name).or_default() += n);
    }
    if f & F_METRICS != 0 {
        metrics::mirror_add(name, n);
    }
}

// ===================================================================
// Flush / snapshot
// ===================================================================

/// Clear all recorded spans, counters and events across every thread
/// buffer, and restart the task-ordinal allocator. (The metrics
/// registry has its own [`metrics::reset_metrics`].)
pub fn reset() {
    let bufs = all_bufs().lock().unwrap();
    for buf in bufs.iter() {
        let mut b = buf.lock().unwrap();
        b.events.clear();
        b.shared_events.clear();
        b.spans.clear();
        b.counters.clear();
        // Open frames are left alone: a guard on some thread's stack
        // will still pop its own frame.
    }
    let mut retired = retired_aggregates().lock().unwrap();
    retired.spans.clear();
    retired.counters.clear();
    NEXT_TASK.store(1, Ordering::Relaxed);
}

/// The merged event stream, sorted by `(lane, task, seq)` — i.e.
/// canonical submission order, not wall-clock arrival — with the
/// recording thread's registration ordinal as a final tie-break.
pub fn events() -> Vec<SpanEvent> {
    let bufs = all_bufs().lock().unwrap();
    let mut out: Vec<SpanEvent> = Vec::new();
    let mut shared = Vec::new();
    for buf in bufs.iter() {
        let b = buf.lock().unwrap();
        out.extend(b.events.iter().cloned());
        shared.extend(b.shared_events.iter().cloned());
    }
    merge_shared(&mut out, shared);
    out
}

/// An immutable snapshot of the aggregates recorded so far.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub spans: Vec<(String, SpanStat)>,
    pub counters: Vec<(String, u64)>,
}

impl Summary {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.count)
            .unwrap_or(0)
    }

    /// Human-readable report, names sorted, durations in ms.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "== trace summary ==");
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "{:<40}{:>10}{:>14}{:>14}",
                "span", "count", "total ms", "mean us"
            );
            for (name, s) in &self.spans {
                let total = Duration::from_nanos(s.total_ns);
                let mean_us = if s.count > 0 {
                    s.total_ns as f64 / s.count as f64 / 1e3
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:<40}{:>10}{:>14.3}{:>14.2}",
                    name,
                    s.count,
                    total.as_secs_f64() * 1e3,
                    mean_us
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<40}{:>10}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "{name:<40}{v:>10}");
            }
        }
        out
    }
}

/// Snapshot the merged per-thread aggregates (sorted by name — the
/// merge goes through a `BTreeMap`, so the order is stable no matter
/// how many threads recorded).
pub fn summary() -> Summary {
    let bufs = all_bufs().lock().unwrap();
    let mut spans: BTreeMap<String, SpanStat> = BTreeMap::new();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    {
        let retired = retired_aggregates().lock().unwrap();
        for (k, v) in &retired.spans {
            let s = spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
        for (k, v) in &retired.counters {
            *counters.entry(k).or_default() += v;
        }
    }
    for buf in bufs.iter() {
        let b = buf.lock().unwrap();
        for (k, v) in &b.spans {
            let s = spans.entry(k.clone()).or_default();
            s.count += v.count;
            s.total_ns += v.total_ns;
        }
        for (k, v) in &b.counters {
            *counters.entry(k).or_default() += v;
        }
    }
    Summary {
        spans: spans.into_iter().collect(),
        counters: counters
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and tests run in parallel, so
    // each test uses its own names and never asserts global absence.
    // The collection flags are global too: tests that toggle them run
    // one at a time.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static FLAGS_HELD: Mutex<()> = Mutex::new(());
        FLAGS_HELD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _serial = serial();
        set_enabled(false);
        {
            let _g = span("test.disabled");
            add("test.disabled.counter", 5);
        }
        let s = summary();
        assert_eq!(s.span_count("test.disabled"), 0);
        assert_eq!(s.counter("test.disabled.counter"), 0);
    }

    #[test]
    fn spans_and_counters_aggregate() {
        let _serial = serial();
        set_enabled(true);
        for _ in 0..3 {
            let _g = span("test.aggregate");
            add("test.aggregate.counter", 2);
        }
        let s = summary();
        assert_eq!(s.span_count("test.aggregate"), 3);
        assert_eq!(s.counter("test.aggregate.counter"), 6);
        assert!(s.render().contains("test.aggregate"));
    }

    #[test]
    fn events_carry_scope_stack_and_attrs() {
        let _serial = serial();
        set_enabled(true);
        set_events_enabled(true);
        {
            let _scope = task_scope(7, 1234);
            let _outer = span("test.ev.outer");
            let _inner = span_attrs("test.ev.inner", vec![("kernel".into(), "fan1".into())]);
        }
        let ev = events();
        let inner = ev
            .iter()
            .find(|e| e.name == "test.ev.inner")
            .expect("inner event recorded");
        assert_eq!(inner.lane, 7);
        assert_eq!(inner.task, 1234);
        assert_eq!(inner.stack, vec!["test.ev.outer".to_string()]);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.attrs, vec![("kernel".into(), "fan1".into())]);
        let outer = ev.iter().find(|e| e.name == "test.ev.outer").unwrap();
        assert_eq!(outer.depth, 0);
        assert!(outer.seq < inner.seq);
        assert!(outer.dur_ns >= inner.dur_ns);
        set_events_enabled(false);
        set_enabled(false);
    }

    #[test]
    fn request_scopes_partition_the_event_stream() {
        let _serial = serial();
        set_enabled(true);
        set_events_enabled(true);
        {
            let _r = request_scope(9001);
            let _s = span("test.ctx.niner");
        }
        {
            let _r = request_scope(9002);
            let _s = span("test.ctx.other");
        }
        {
            let _s = span("test.ctx.outside");
        }
        let mine = take_request_events(9001);
        assert_eq!(
            mine.iter().filter(|e| e.name == "test.ctx.niner").count(),
            1
        );
        assert!(mine.iter().all(|e| e.ctx == 9001));
        // Draining one context leaves the others alone…
        let ev = events();
        assert!(ev.iter().any(|e| e.name == "test.ctx.other"));
        assert!(!ev.iter().any(|e| e.name == "test.ctx.niner"));
        // …and a second drain of the same context comes back empty.
        assert!(take_request_events(9001).is_empty());
        // The aggregates survived the drain.
        assert!(summary().span_count("test.ctx.niner") >= 1);
        set_events_enabled(false);
        set_enabled(false);
    }

    #[test]
    fn shared_work_spans_belong_to_the_earliest_claimant() {
        let _serial = serial();
        set_enabled(true);
        set_events_enabled(true);
        let work = SharedWork::new();
        // The later-submitted task wins the race and does the work…
        {
            let _t = task_scope(2, 5021);
            let _job = span("test.shared.job");
            work.claim();
            {
                let _p = work.perform();
                let _c = span("test.shared.compile");
                let _l = span("test.shared.lower");
            }
            let _after = span("test.shared.after");
        }
        // …then the earlier one finds it done.
        {
            let _t = task_scope(1, 5020);
            let _job = span("test.shared.job");
            work.claim();
            let _after = span("test.shared.after");
        }
        let ev: Vec<SpanEvent> = events()
            .into_iter()
            .filter(|e| e.name.starts_with("test.shared."))
            .collect();
        let names = |task: u64| -> Vec<&str> {
            ev.iter()
                .filter(|e| e.task == task)
                .map(|e| e.name.as_str())
                .collect()
        };
        assert_eq!(
            names(5020),
            [
                "test.shared.job",
                "test.shared.compile",
                "test.shared.lower",
                "test.shared.after"
            ]
        );
        assert_eq!(names(5021), ["test.shared.job", "test.shared.after"]);
        let lower = ev.iter().find(|e| e.name == "test.shared.lower").unwrap();
        assert_eq!((lower.lane, lower.depth), (1, 2));
        assert_eq!(lower.stack, ["test.shared.job", "test.shared.compile"]);
        // Claiming reserved the same slot in both tasks, so their own
        // spans are numbered alike.
        for e in ev.iter().filter(|e| e.name == "test.shared.after") {
            assert_eq!(e.seq, 2, "task {}", e.task);
        }
        set_events_enabled(false);
        set_enabled(false);
    }

    #[test]
    fn task_scopes_restore_on_drop() {
        let _serial = serial();
        set_enabled(true);
        {
            let _a = task_scope(3, 30);
            {
                let _b = task_scope(4, 40);
                let _s = span("test.scope.inner");
            }
            let _s = span("test.scope.outer");
        }
        set_events_enabled(true);
        // Events were off above; just check the scope bookkeeping did
        // not corrupt subsequent recording.
        {
            let _s = span("test.scope.after");
        }
        let ev = events();
        let after = ev.iter().find(|e| e.name == "test.scope.after").unwrap();
        assert_eq!((after.lane, after.task), (0, 0));
        set_events_enabled(false);
        set_enabled(false);
    }
}
