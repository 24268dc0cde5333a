//! Parallel cached experiment engine.
//!
//! The paper's study is an *experiment matrix*: benchmark × compiler ×
//! device × optimization variant, every cell independent of every
//! other. The serial driver walks that matrix one cell at a time; this
//! module fans it out across a small work-stealing thread pool while
//! keeping two invariants the reporting layer depends on:
//!
//! 1. **Deterministic ordering** — results come back in submission
//!    order regardless of which worker finished first, so
//!    `report::render_*` output is byte-identical to the serial path.
//!    (The cells themselves are pure: the device simulator is an
//!    analytic timing model, so a cell's value never depends on
//!    scheduling.)
//! 2. **Compile-once** — all workers share one
//!    [`ArtifactCache`], so a program+options+device triple that
//!    appears in many figures (LUD ThreadDist shows up in figs. 3, 4
//!    and 6) is compiled exactly once per engine.
//!
//! `Engine::serial()` (or `jobs = 1`) runs everything inline on the
//! caller's thread — that is the reference path the equivalence tests
//! compare against.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use paccport_compilers::ArtifactCache;
use paccport_persist::wire::{Reader, Writer};

use crate::durable::{CellJournal, DurableResult};
use crate::study::{measure, CellFailure, CellSpec, Measured};

// How the engine retries failing jobs. Backoff runs on the *virtual*
// clock (`paccport_faults::vclock`): a retry "sleeps" by advancing it,
// so schedules are deterministic and tests never wall-sleep. Each
// attempt runs under a step-budget watchdog (the per-job timeout) and
// `catch_unwind` panic isolation.

/// Total attempts per job (first run + retries).
pub const MAX_ATTEMPTS: u32 = 3;
/// Base backoff delay (virtual ns, 50 ms); doubles per retry.
const BACKOFF_BASE_NS: u64 = 50_000_000;
/// Backoff ceiling (virtual ns, 2 s), applied after jitter.
const BACKOFF_CAP_NS: u64 = 2_000_000_000;

/// A job that exhausted its retry budget and was quarantined; the
/// engine's quarantine ledger holds clones of it. (Only quarantines are
/// ledgered: whether a *recovery* needed 1 or 2 attempts can depend on
/// which worker warmed the compile cache first, but the quarantine set
/// is a pure function of the fault seed — see `paccport-faults`.)
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    pub label: String,
    /// The last error (or panic message) observed.
    pub reason: String,
    /// Attempts consumed (== [`MAX_ATTEMPTS`]).
    pub attempts: u32,
    /// Whether the final failure carried the injected-fault marker —
    /// chaos we asked for, as opposed to a genuine bug.
    pub injected: bool,
}

/// A batch executor with a shared compile cache.
///
/// Cheap to clone conceptually — share it with `Arc` if several
/// figures should reuse one cache (as `reproduce` does).
pub struct Engine {
    jobs: usize,
    cache: Arc<ArtifactCache>,
    quarantine: Mutex<Vec<JobFailure>>,
    /// Run journal for `--state-dir` runs: completed cells replay
    /// instead of recomputing (see [`crate::durable`]).
    journal: Option<Arc<CellJournal>>,
    /// Ordinal of the next journaled matrix, so every
    /// `measure_matrix_detailed` call gets a distinct key prefix in
    /// submission order.
    matrix_seq: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::serial()
    }
}

impl Engine {
    /// An engine running `jobs` worker threads (clamped to ≥ 1).
    pub fn new(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            cache: Arc::new(ArtifactCache::new()),
            quarantine: Mutex::new(Vec::new()),
            journal: None,
            matrix_seq: AtomicU64::new(0),
        }
    }

    /// Attach a run journal (builder style): matrix and soundness
    /// cells journal their outcomes and replay on resume.
    pub fn with_journal(mut self, journal: Arc<CellJournal>) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Whether a run journal is attached: only then do jobs need the
    /// replay fingerprint [`Engine::run_resilient_journaled`] gates on.
    pub fn journals(&self) -> bool {
        self.journal.is_some()
    }

    /// The reference single-threaded engine.
    pub fn serial() -> Self {
        Engine::new(1)
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The shared compile cache (hit/miss counters live here).
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// Run a batch of independent closures, returning their results in
    /// submission order. With `jobs = 1` (or a batch of one) this runs
    /// inline; otherwise each worker owns a deque seeded round-robin,
    /// pops its own front, and steals from the back of the busiest
    /// other deque when empty.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if self.jobs <= 1 || n <= 1 {
            return tasks.into_iter().map(|f| f()).collect();
        }

        let workers = self.jobs.min(n);
        // Task ordinals are allocated here, on the submitting thread,
        // so the telemetry lane/task layout is a pure function of
        // submission order — not of which worker steals which job.
        let task_base = paccport_trace::alloc_tasks(n as u64);
        // The submitter's request context rides along: worker threads
        // are fresh per batch, so without re-entering the scope here
        // a server request's engine spans would lose their request
        // attribution the moment the batch goes parallel.
        let ctx = paccport_trace::current_ctx();
        let queues: Vec<Mutex<VecDeque<(usize, F)>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        for (i, f) in tasks.into_iter().enumerate() {
            queues[i % workers].lock().unwrap().push_back((i, f));
        }

        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let queues = &queues;
        let slots = &slots;
        std::thread::scope(|s| {
            for w in 0..workers {
                s.spawn(move || {
                    let _req = paccport_trace::request_scope(ctx);
                    loop {
                        // Own work first (front: preserves submission
                        // locality), then steal from the back of the
                        // longest other queue. The own-queue pop must
                        // be its own statement: chaining `.or_else`
                        // onto it keeps the own-queue guard alive
                        // through the steal (temporaries live to the
                        // end of the statement), and two workers
                        // stealing from each other then deadlock.
                        let own = queues[w].lock().unwrap().pop_front();
                        let job = own.or_else(|| {
                            let victim = (0..workers)
                                .filter(|&v| v != w)
                                .max_by_key(|&v| queues[v].lock().unwrap().len())?;
                            queues[victim].lock().unwrap().pop_back()
                        });
                        match job {
                            Some((i, f)) => {
                                paccport_trace::add("engine.jobs_run", 1);
                                // Canonical home lane: job i belongs
                                // to worker i % workers no matter who
                                // actually ran it after stealing.
                                let _scope = paccport_trace::task_scope(
                                    (i % workers) as u32 + 1,
                                    task_base + i as u64,
                                );
                                *slots[i].lock().unwrap() = Some(f());
                            }
                            None => break,
                        }
                    }
                });
            }
        });

        slots
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .take()
                    .expect("worker pool completed every slot")
            })
            .collect()
    }

    /// Run labeled fallible jobs with per-job panic isolation, a
    /// step-budget watchdog, bounded retry with exponential backoff on
    /// the virtual clock, and quarantine on exhaustion. Results come
    /// back in submission order; quarantined jobs are also appended to
    /// [`Engine::quarantined`].
    pub fn run_resilient<T, F>(&self, jobs: Vec<(String, F)>) -> Vec<Result<T, JobFailure>>
    where
        T: Send,
        F: Fn() -> Result<T, String> + Send,
    {
        paccport_faults::install_quiet_panic_hook();
        let quarantine = &self.quarantine;
        let tasks: Vec<_> = jobs
            .into_iter()
            .map(|(label, f)| move || run_with_retry(label, f, quarantine))
            .collect();
        self.run_batch(tasks)
    }

    /// [`Engine::run_resilient`] with a write-ahead of results into
    /// the engine's journal (a no-op without one). Each job carries a
    /// content fingerprint, read only when [`Engine::journals`] (callers
    /// may pass 0 otherwise); the `i`-th job's journal key is
    /// `<prefix>/c<i>`. Outcomes journaled by a previous process life
    /// replay — successes decode without recomputation, quarantines
    /// re-enter the quarantine ledger — as long as the fingerprint
    /// still matches; any mismatch recomputes. Replay is per-cell, so
    /// a run that died mid-matrix resumes exactly at the first
    /// unjournaled cell.
    pub fn run_resilient_journaled<T, F>(
        &self,
        prefix: &str,
        jobs: Vec<(String, u128, F)>,
    ) -> Vec<Result<T, JobFailure>>
    where
        T: DurableResult + Send,
        F: Fn() -> Result<T, String> + Send,
    {
        let Some(journal) = self.journal.as_ref().map(Arc::clone) else {
            return self.run_resilient(jobs.into_iter().map(|(l, _, f)| (l, f)).collect());
        };
        paccport_faults::install_quiet_panic_hook();
        let quarantine = &self.quarantine;
        let tasks: Vec<_> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (label, fp, f))| {
                let journal = Arc::clone(&journal);
                move || {
                    let key = format!("{prefix}/c{i}");
                    match journal.replay(&key, fp) {
                        Some(Ok(tokens)) => {
                            let mut r = Reader::new(tokens);
                            if let Ok(v) = T::decode(&mut r) {
                                paccport_trace::metrics::counter_add(
                                    "cells_replayed_total",
                                    &[],
                                    1,
                                );
                                return Ok(v);
                            }
                            // An undecodable journaled success means
                            // the journal predates a codec change the
                            // version guard missed; fall through and
                            // recompute (the re-journal is suppressed
                            // by the duplicate-key guard).
                        }
                        Some(Err(jf)) => {
                            paccport_trace::metrics::counter_add("cells_replayed_total", &[], 1);
                            let failure = JobFailure {
                                label,
                                reason: jf.reason.clone(),
                                attempts: jf.attempts,
                                injected: jf.injected,
                            };
                            quarantine.lock().unwrap().push(failure.clone());
                            return Err(failure);
                        }
                        None => {}
                    }
                    let res = run_with_retry(label, f, quarantine);
                    match &res {
                        Ok(v) => {
                            let mut w = Writer::new();
                            v.encode(&mut w);
                            journal.record_ok(&key, fp, &w.finish());
                        }
                        Err(jf) => {
                            journal.record_err(&key, fp, &jf.reason, jf.attempts, jf.injected)
                        }
                    }
                    res
                }
            })
            .collect();
        self.run_batch(tasks)
    }

    /// Jobs quarantined by [`Engine::run_resilient`] so far, sorted by
    /// label (deterministic regardless of worker scheduling).
    pub fn quarantined(&self) -> Vec<JobFailure> {
        let mut q = self.quarantine.lock().unwrap().clone();
        q.sort_by(|a, b| (&a.label, &a.reason).cmp(&(&b.label, &b.reason)));
        q
    }

    /// Quarantined jobs whose failure was *not* an injected fault —
    /// genuine breakage the `reproduce` CLI must exit nonzero for.
    pub fn uninjected_failures(&self) -> Vec<JobFailure> {
        self.quarantined()
            .into_iter()
            .filter(|r| !r.injected)
            .collect()
    }

    /// Measure every cell of an experiment matrix through the shared
    /// cache, results in `cells` order. Failures are the rendered
    /// string form of [`CellFailure`]; use
    /// [`Engine::measure_matrix_detailed`] for the structured form.
    pub fn measure_matrix(&self, cells: Vec<CellSpec>) -> Vec<Result<Measured, String>> {
        self.measure_matrix_detailed(cells)
            .into_iter()
            .map(|r| r.map_err(|f| f.to_string()))
            .collect()
    }

    /// [`Engine::measure_matrix`] with structured failures: each
    /// quarantined cell comes back as a [`CellFailure`] carrying its
    /// series/variant, final error, attempt count and whether the
    /// fault was injected.
    pub fn measure_matrix_detailed(
        &self,
        cells: Vec<CellSpec>,
    ) -> Vec<Result<Measured, CellFailure>> {
        let _span = paccport_trace::span("engine.measure_matrix");
        let cache = &self.cache;
        let prefix = format!("m{}", self.matrix_seq.fetch_add(1, Ordering::Relaxed));
        let names: Vec<(String, String)> = cells
            .iter()
            .map(|c| (c.series.clone(), c.variant.clone()))
            .collect();
        let jobs: Vec<_> = cells
            .into_iter()
            .map(|cell| {
                let label = format!("{}/{}", cell.series, cell.variant);
                let mut cfg = cell.cfg.clone();
                if cfg.fault_scope.is_none() {
                    cfg.fault_scope = Some(label.clone());
                }
                // The replay gate: everything that shapes this cell's
                // result. The program contributes its compile-cache
                // fingerprint rather than its (large) Debug form, and
                // the cache lookup reuses it.
                let program_fp = paccport_compilers::fingerprint(&cell.program);
                let fp = if self.journals() {
                    cell_fingerprint(&format!(
                        "{:?} {:?} {:?} {:?} {:032x} {:?}",
                        cell.series, cell.variant, cell.compiler, cell.options, program_fp, cfg
                    ))
                } else {
                    0
                };
                let task = move || {
                    let c = cache
                        .compile_fingerprinted(
                            cell.compiler,
                            &cell.program,
                            program_fp,
                            &cell.options,
                        )
                        .map_err(|e| e.to_string())?;
                    measure(&cell.series, &cell.variant, &c, &cfg)
                };
                (label, fp, task)
            })
            .collect();
        self.run_resilient_journaled(&prefix, jobs)
            .into_iter()
            .zip(names)
            .map(|(r, (series, variant))| {
                r.map_err(|f| CellFailure {
                    series,
                    variant,
                    reason: f.reason,
                    attempts: f.attempts,
                    injected: f.injected,
                })
            })
            .collect()
    }

    /// Compile through the shared cache, retrying injected faults up
    /// to [`MAX_ATTEMPTS`] times. For generators that need an artifact on the
    /// calling thread (figs. 1 and 13) and would otherwise abort a
    /// chaos run on a transient fault; genuine errors return on the
    /// first attempt, exactly like [`ArtifactCache::compile`].
    pub fn compile_resilient(
        &self,
        id: paccport_compilers::CompilerId,
        program: &paccport_ir::Program,
        options: &paccport_compilers::CompileOptions,
    ) -> Result<Arc<paccport_compilers::CompiledProgram>, String> {
        let mut last = String::new();
        for attempt in 0..MAX_ATTEMPTS {
            paccport_faults::set_attempt(attempt);
            let r = self.cache.compile(id, program, options);
            paccport_faults::set_attempt(0);
            match r {
                Ok(c) => return Ok(c),
                Err(e) => {
                    last = e.to_string();
                    if !paccport_faults::is_injected(&last) {
                        break;
                    }
                }
            }
        }
        Err(last)
    }
}

/// 128-bit content fingerprint for journal replay gates: two
/// independent 64-bit FNV-1a passes over the same bytes. Not
/// cryptographic — it only has to make "the cell spec changed between
/// runs" overwhelmingly unlikely to collide.
pub fn cell_fingerprint(spec: &str) -> u128 {
    paccport_trace::hash::fnv1a128(spec.as_bytes())
}

/// One job's attempt loop: watchdog + `catch_unwind` around every
/// attempt, virtual-clock backoff between attempts, quarantine at the
/// end. Transient injected faults clear because the fault-decision
/// hash includes the attempt counter set here.
fn run_with_retry<T, F>(
    label: String,
    f: F,
    quarantine: &Mutex<Vec<JobFailure>>,
) -> Result<T, JobFailure>
where
    F: Fn() -> Result<T, String>,
{
    let _job_span = paccport_trace::span_attrs("engine.job", vec![("label".into(), label.clone())]);
    let backoff = paccport_faults::Backoff {
        base_ns: BACKOFF_BASE_NS,
        cap_ns: BACKOFF_CAP_NS,
        seed: paccport_faults::seed(),
    };
    let mut last = String::new();
    for attempt in 0..MAX_ATTEMPTS {
        if attempt > 0 {
            let delay = backoff.delay_ns(&label, attempt);
            paccport_faults::vclock::advance(delay);
            paccport_trace::add("retry.attempts", 1);
            paccport_trace::add("retry.backoff_ns", delay);
            paccport_trace::metrics::counter_add("engine_retries_total", &[], 1);
        }
        let _attempt_span = paccport_trace::span_attrs(
            "engine.attempt",
            vec![
                ("label".into(), label.clone()),
                ("attempt".into(), attempt.to_string()),
            ],
        );
        paccport_faults::set_attempt(attempt);
        // The per-job timeout.
        paccport_faults::arm_watchdog(paccport_faults::DEFAULT_STEP_BUDGET);
        let guard = paccport_faults::job_guard();
        let outcome = catch_unwind(AssertUnwindSafe(&f));
        drop(guard);
        paccport_faults::disarm_watchdog();
        paccport_faults::set_attempt(0);
        match outcome {
            Ok(Ok(v)) => return Ok(v),
            Ok(Err(e)) => last = e,
            Err(payload) => last = paccport_faults::describe_panic(payload.as_ref()),
        }
    }
    paccport_trace::add("job.quarantined", 1);
    let injected = paccport_faults::is_injected(&last);
    paccport_trace::metrics::counter_add(
        "engine_quarantined_total",
        &[("injected", if injected { "true" } else { "false" })],
        1,
    );
    let failure = JobFailure {
        label,
        reason: last,
        attempts: MAX_ATTEMPTS,
        injected,
    };
    quarantine.lock().unwrap().push(failure.clone());
    Err(failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    type Job = (String, Box<dyn Fn() -> Result<u32, String> + Send>);

    #[test]
    fn serial_and_parallel_batches_agree_in_order() {
        let tasks = |n: usize| (0..n).map(|i| move || i * i).collect::<Vec<_>>();
        let serial = Engine::serial().run_batch(tasks(37));
        let parallel = Engine::new(8).run_batch(tasks(37));
        assert_eq!(serial, parallel);
        assert_eq!(serial[6], 36);
    }

    #[test]
    fn parallel_batch_uses_multiple_threads() {
        use std::collections::HashSet;
        let eng = Engine::new(4);
        let ids = eng.run_batch(
            (0..64)
                .map(|_| {
                    move || {
                        std::thread::sleep(std::time::Duration::from_micros(300));
                        std::thread::current().id()
                    }
                })
                .collect::<Vec<_>>(),
        );
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work on >1 worker thread");
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicUsize::new(0);
        let counter = &counter;
        let results = Engine::new(3).run_batch(
            (0..100)
                .map(|i| move || (i, counter.fetch_add(1, Ordering::Relaxed)))
                .collect::<Vec<_>>(),
        );
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        // Slot i holds task i's result, whatever order they ran in.
        for (i, (task, _)) in results.iter().enumerate() {
            assert_eq!(*task, i);
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(Engine::new(0).jobs(), 1);
    }

    #[test]
    fn resilient_jobs_succeed_and_quarantine_genuine_failures() {
        let eng = Engine::new(2);
        let jobs: Vec<Job> = vec![
            ("ok".into(), Box::new(|| Ok(7u32))),
            ("bad".into(), Box::new(|| Err("deliberate breakage".into()))),
        ];
        let results = eng.run_resilient(jobs);
        assert_eq!(results[0], Ok(7));
        let f = results[1].as_ref().unwrap_err();
        assert_eq!(f.label, "bad");
        assert_eq!(f.attempts, MAX_ATTEMPTS);
        assert!(!f.injected, "a genuine error is not an injected fault");
        let q = eng.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].label, "bad");
        assert_eq!(eng.uninjected_failures().len(), 1);
    }

    #[test]
    fn resilient_jobs_isolate_panics() {
        let eng = Engine::serial();
        let jobs: Vec<Job> = vec![
            ("panics".into(), Box::new(|| panic!("kaboom"))),
            ("fine".into(), Box::new(|| Ok(1u32))),
        ];
        let results = eng.run_resilient(jobs);
        let f = results[0].as_ref().unwrap_err();
        assert!(f.reason.contains("kaboom"), "{}", f.reason);
        assert_eq!(results[1], Ok(1));
    }

    #[derive(Debug, PartialEq)]
    struct Val(u64);

    impl DurableResult for Val {
        fn encode(&self, w: &mut Writer) {
            w.u64(self.0);
        }
        fn decode(r: &mut Reader) -> Result<Self, String> {
            Ok(Val(r.u64()?))
        }
    }

    #[test]
    fn journaled_jobs_replay_across_engine_lives() {
        let dir =
            std::env::temp_dir().join(format!("paccport-engine-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        type Job<'a> = Box<dyn Fn() -> Result<Val, String> + Send + 'a>;
        fn jobs(ran: &AtomicUsize) -> Vec<(String, u128, Job<'_>)> {
            let a: Job<'_> = Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
                Ok(Val(40))
            });
            let b: Job<'_> = Box::new(|| Err("deliberate breakage".to_string()));
            vec![
                ("good".into(), cell_fingerprint("good"), a),
                ("bad".into(), cell_fingerprint("bad"), b),
            ]
        }
        let ran = AtomicUsize::new(0);

        // First life: both outcomes computed and journaled.
        {
            let j = Arc::new(crate::durable::CellJournal::open(&dir, false).unwrap());
            let eng = Engine::new(2).with_journal(j);
            let res = eng.run_resilient_journaled("t", jobs(&ran));
            assert_eq!(res[0], Ok(Val(40)));
            assert!(res[1].is_err());
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1);

        // Second life: both replay — no recomputation, and the
        // quarantine ledger is rebuilt from the journal.
        {
            let j = Arc::new(crate::durable::CellJournal::open(&dir, true).unwrap());
            let eng = Engine::new(2).with_journal(j);
            let res = eng.run_resilient_journaled("t", jobs(&ran));
            assert_eq!(res[0], Ok(Val(40)));
            let f = res[1].as_ref().unwrap_err();
            assert_eq!(f.reason, "deliberate breakage");
            assert_eq!(f.attempts, MAX_ATTEMPTS);
            let q = eng.quarantined();
            assert_eq!(q.len(), 1);
            assert_eq!(q[0].label, "bad");
        }
        assert_eq!(ran.load(Ordering::Relaxed), 1, "replay must not recompute");

        // A changed fingerprint recomputes rather than misreplaying.
        {
            let j = Arc::new(crate::durable::CellJournal::open(&dir, true).unwrap());
            let eng = Engine::serial().with_journal(j);
            let mut js = jobs(&ran);
            js.truncate(1);
            js[0].1 = cell_fingerprint("good-but-different");
            let res = eng.run_resilient_journaled("t", js);
            assert_eq!(res[0], Ok(Val(40)));
        }
        assert_eq!(ran.load(Ordering::Relaxed), 2);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_backoff_advances_virtual_clock_only() {
        let eng = Engine::serial();
        let before = paccport_faults::vclock::now_ns();
        let wall = std::time::Instant::now();
        let jobs: Vec<Job> = vec![("always-fails".into(), Box::new(|| Err("nope".into())))];
        let _ = eng.run_resilient(jobs);
        assert!(
            paccport_faults::vclock::now_ns() > before,
            "backoff must advance the virtual clock"
        );
        assert!(
            wall.elapsed() < std::time::Duration::from_secs(1),
            "backoff must never wall-sleep"
        );
    }
}
