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
//! Every matrix — each figure's, the soundness check's, the profile
//! sweep's — runs through one cell runner, [`Engine::run_matrix`],
//! which also journals `--state-dir` runs.
//!
//! `Engine::serial()` (or `jobs = 1`) runs everything inline on the
//! caller's thread — that is the reference path the equivalence tests
//! compare against.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use paccport_compilers::{ArtifactCache, CompiledProgram};
use paccport_persist::wire::{Reader, Writer};

use crate::durable::{CellJournal, DurableResult};
use crate::study::CheckCell;

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
    /// Ordinal of the next matrix, so every [`Engine::run_matrix`]
    /// call gets a distinct journal key prefix in submission order.
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

    /// Attach a run journal (builder style): every matrix cell
    /// journals its outcome and replays on resume.
    pub fn with_journal(mut self, journal: Arc<CellJournal>) -> Self {
        self.journal = Some(journal);
        self
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

    /// Run every cell of one experiment matrix — a figure's, the
    /// soundness check's or the profile sweep's — results in `cells`
    /// order. Each cell becomes one resilient job (see
    /// [`Engine::run_resilient`]) named by `label`, whose name is also
    /// the cell's fault scope unless the cell sets its own. The job
    /// compiles the cell through the shared cache and hands the
    /// artifact to `body`.
    ///
    /// With a journal attached (see [`crate::durable`]) the `i`-th
    /// cell of the engine's `N`-th matrix journals its outcome under
    /// `m<N>/c<i>`, gated by a fingerprint of everything that shapes
    /// it. An outcome journaled by a previous process life replays —
    /// a success decodes without recomputation, a quarantine re-enters
    /// the quarantine ledger — as long as the fingerprint still
    /// matches; any mismatch recomputes. Replay is per cell, so a run
    /// that died mid-matrix resumes exactly at the first unjournaled
    /// cell.
    pub fn run_matrix<T, F>(
        &self,
        cells: Vec<CheckCell>,
        label: impl Fn(&CheckCell) -> String,
        body: F,
    ) -> Vec<Result<T, JobFailure>>
    where
        T: DurableResult + Send,
        F: Fn(&CheckCell, &CompiledProgram) -> Result<T, String> + Sync,
    {
        let _span = paccport_trace::span("engine.matrix");
        paccport_faults::install_quiet_panic_hook();
        let matrix = self.matrix_seq.fetch_add(1, Ordering::Relaxed);
        let (cache, quarantine, body) = (&*self.cache, &self.quarantine, &body);
        let journal = self.journal.as_deref();
        let tasks: Vec<_> = cells
            .into_iter()
            .enumerate()
            .map(|(i, mut cell)| {
                let label = label(&cell);
                if cell.cfg.fault_scope.is_none() {
                    cell.cfg.fault_scope = Some(label.clone());
                }
                move || {
                    let program_fp = paccport_compilers::fingerprint(&cell.program);
                    // The replay gate `Debug`-formats the cell's inputs
                    // (MBs at quick scale), so only a journaled run
                    // builds it.
                    let gate = journal.map(|j| {
                        let spec = format!(
                            "{:?} {:?} {:?} {:?} {:?} {:032x} {:?}",
                            cell.benchmark,
                            cell.series,
                            cell.variant,
                            cell.compiler,
                            cell.options,
                            program_fp,
                            cell.cfg
                        );
                        let fp = paccport_trace::hash::fnv1a128(spec.as_bytes());
                        (j, format!("m{matrix}/c{i}"), fp)
                    });
                    if let Some((j, key, fp)) = &gate {
                        if let Some(replayed) = replay(j, key, *fp, &label, quarantine) {
                            return replayed;
                        }
                    }
                    let job = || {
                        let c = cache
                            .compile_fingerprinted(
                                cell.compiler,
                                &cell.program,
                                program_fp,
                                &cell.options,
                            )
                            .map_err(|e| e.to_string())?;
                        body(&cell, &c)
                    };
                    let res = run_with_retry(label, job, quarantine);
                    if let Some((j, key, fp)) = &gate {
                        match &res {
                            Ok(v) => {
                                let mut w = Writer::new();
                                v.encode(&mut w);
                                j.record_ok(key, *fp, &w.finish());
                            }
                            Err(f) => j.record_err(key, *fp, &f.reason, f.attempts, f.injected),
                        }
                    }
                    res
                }
            })
            .collect();
        self.run_batch(tasks)
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

/// The outcome journaled under `key` by a previous process life, if its
/// fingerprint still matches `fp`. A replayed quarantine re-enters the
/// quarantine ledger under `label`.
fn replay<T: DurableResult>(
    journal: &CellJournal,
    key: &str,
    fp: u128,
    label: &str,
    quarantine: &Mutex<Vec<JobFailure>>,
) -> Option<Result<T, JobFailure>> {
    let replayed = match journal.replay(key, fp)? {
        // An undecodable journaled success means the journal predates
        // a codec change the version guard missed: recompute (the
        // re-journal is suppressed by the duplicate-key guard).
        Ok(tokens) => Ok(T::decode(&mut Reader::new(tokens)).ok()?),
        Err(jf) => {
            let failure = JobFailure {
                label: label.to_string(),
                reason: jf.reason.clone(),
                attempts: jf.attempts,
                injected: jf.injected,
            };
            quarantine.lock().unwrap().push(failure.clone());
            Err(failure)
        }
    };
    paccport_trace::metrics::counter_add("cells_replayed_total", &[], 1);
    Some(replayed)
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
    use std::sync::atomic::AtomicUsize;

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

    /// A small LUD cell, timed at n = 32.
    fn lud_cell() -> CheckCell {
        use paccport_kernels::{lud, VariantCfg};
        CheckCell::new(
            "LUD",
            "CAPS-CUDA-K40",
            "Base",
            paccport_compilers::CompilerId::Caps,
            paccport_compilers::CompileOptions::gpu(),
            lud::program(&VariantCfg::baseline()),
            paccport_devsim::RunConfig::timing(vec![("n".into(), 32.0)], 1),
        )
    }

    /// Run `cells` as one matrix of a fresh engine on the journal in
    /// `dir` (resumed when `resume`), counting the body's calls in
    /// `ran`. A cell whose variant is "broken" fails every attempt.
    fn journaled_matrix(
        dir: &std::path::Path,
        resume: bool,
        cells: Vec<CheckCell>,
        ran: &AtomicUsize,
    ) -> (Engine, Vec<Result<crate::study::Measured, JobFailure>>) {
        let j = Arc::new(CellJournal::open(dir, resume).unwrap());
        let eng = Engine::new(2).with_journal(j);
        let res = eng.run_matrix(cells, CheckCell::label, |cell, c| {
            ran.fetch_add(1, Ordering::Relaxed);
            if cell.variant == "broken" {
                return Err("deliberate breakage".into());
            }
            crate::study::measure(&cell.series, &cell.variant, c, &cell.cfg)
        });
        (eng, res)
    }

    #[test]
    fn the_replay_fingerprint_covers_every_cell_field() {
        let dir =
            std::env::temp_dir().join(format!("paccport-engine-journal-{}", std::process::id()));
        let ran = AtomicUsize::new(0);
        let count = || ran.load(Ordering::Relaxed);
        let mut broken = lud_cell();
        broken.variant = "broken".into();

        // First life: both outcomes computed and journaled.
        let (_, first) = journaled_matrix(&dir, false, vec![lud_cell(), broken.clone()], &ran);
        assert!(first[0].is_ok());
        assert!(first[1].is_err());
        assert_eq!(count(), 1 + MAX_ATTEMPTS as usize);

        // Second life: both replay without running the body, and the
        // quarantine ledger is rebuilt from the journal.
        let (eng, second) = journaled_matrix(&dir, true, vec![lud_cell(), broken.clone()], &ran);
        assert_eq!(
            count(),
            1 + MAX_ATTEMPTS as usize,
            "replay must not recompute"
        );
        assert_eq!(second[0], first[0]);
        let f = second[1].as_ref().unwrap_err();
        assert_eq!(f.reason, "deliberate breakage");
        assert_eq!(f.attempts, MAX_ATTEMPTS);
        let q = eng.quarantined();
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].label, broken.label());

        // A change to any one field of the cell recomputes it rather
        // than replaying the journaled outcome.
        type Edit = fn(&mut CheckCell);
        let edits: [(&str, Edit); 7] = [
            ("benchmark", |c| c.benchmark = "LUD2".into()),
            ("series", |c| c.series = "CAPS-OCL-5110P".into()),
            ("variant", |c| c.variant = "Base2".into()),
            ("compiler", |c| {
                c.compiler = paccport_compilers::CompilerId::Pgi;
            }),
            ("options", |c| {
                c.options = paccport_compilers::CompileOptions::mic()
            }),
            ("program", |c| {
                c.program = paccport_kernels::lud::program(
                    &paccport_kernels::VariantCfg::thread_dist(256, 16),
                );
            }),
            ("cfg", |c| {
                c.cfg = paccport_devsim::RunConfig::timing(vec![("n".into(), 64.0)], 1);
            }),
        ];
        for (field, edit) in edits {
            let mut cell = lud_cell();
            edit(&mut cell);
            let before = count();
            let (_, res) = journaled_matrix(&dir, true, vec![cell], &ran);
            assert!(res[0].is_ok(), "{field}: {res:?}");
            assert_eq!(count(), before + 1, "a changed {field} must recompute");
        }
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
