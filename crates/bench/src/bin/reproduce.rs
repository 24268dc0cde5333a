//! Regenerate every table and figure of the paper's evaluation on the
//! simulated test bed.
//!
//! ```text
//! reproduce [--check] [--scale smoke|quick|paper] [--quick]
//!           [--jobs N] [--trace] [--exp <id>]...
//!           [--passes LIST]
//!           [--inject SPEC] [--fault-seed N]
//!           [--state-dir DIR] [--resume]
//!           [--trace-out FILE] [--trace-format chrome|jsonl|folded]
//!           [--metrics-out FILE]
//! reproduce conform [--programs N] [--seed S] [telemetry flags]
//! reproduce profile [--scale ...] [--jobs N] [--inject SPEC]
//!                   [--fault-seed N] [telemetry flags]
//! reproduce fsck DIR [telemetry flags]
//! reproduce serve [--addr HOST:PORT] [--jobs N] [--workers N]
//!                 [--queue-cap N] [--cache-bytes N] [--tenant-quota N]
//!                 [--port-file FILE] [--inject SPEC] [--fault-seed N]
//!                 [--access-log FILE] [--recorder-cap N]
//! reproduce loadgen --addr HOST:PORT [--rps N] [--duration-steps K]
//!                   [--seed S] [--dup-ratio R] [--scale ...]
//!                   [--tenants N] [--slo-ms MS] [--json FILE]
//!                   [--scrape-metrics] [--shutdown]
//!                   [--sample-traces N] [--trace-dir DIR]
//! ```
//!
//! With no `--exp`, all experiments run; an id outside the list below
//! is a usage error. `--scale` picks the input sizes: `paper` (Table
//! IV, the default), `quick` (CI scale), or `smoke` (smallest
//! functional sizes); `--quick` is exactly `--scale quick`, and
//! whichever of the two comes last wins.
//! `--jobs N` fans each experiment matrix out over N worker threads
//! through a shared compile cache (`--jobs 1`, the default, is the
//! serial reference path; stdout is byte-identical either way).
//! `--trace` prints a pipeline trace — span timings and
//! cache/transform/launch counters — to stderr after the run.
//! Recognized ids:
//! tab1 tab2 tab3 tab4 tab5 tab6 tab7, fig1 fig3 fig4 fig6 fig7 fig8
//! fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16, plus the future-work
//! extensions ext1 (OpenARC auto-tuning) and ext2 (data-region
//! insertion).
//!
//! `--passes LIST` runs the middle-end pass pipeline over every
//! program before it reaches a compiler personality: a comma-
//! separated list of pass names, where `default` expands to
//! `mem2reg,constfold,licm,cse,dse` and `ptx-peephole` additionally
//! cleans dead `mov`/`cvt` debris from the lowered modules. Every
//! pass preserves bitwise-exact observables (the `conform`
//! subcommand checks each one, and each prefix of the default
//! pipeline, as its own leg); what changes are the static instruction
//! counts (Table V) and the modeled timings derived from them.
//!
//! `--check` runs the soundness cross-check instead of the figures:
//! every benchmark variant × target executes *functionally* (at
//! `smoke`-clamped sizes) under the device simulator's dynamic race
//! detector, and the findings are compared against the static
//! dependence analysis per kernel and loop level. Exits nonzero if
//! any statically-independent loop races, or a known-wrong reduction
//! plan is not caught as a write-write race.
//!
//! `conform` runs the differential conformance harness instead of the
//! figures: `--programs N` (default 50) seeded random IR programs
//! (`--seed S`, default 42) each execute under the reference oracle,
//! the functional simulator across every compiler personality ×
//! device, and every semantics-preserving transform, asserting
//! bitwise-equal observables. One more leg per program runs the
//! CAPS/K40 compilation on both devsim interpreters, the bytecode VM
//! every other run uses and the tree-walking reference, and requires
//! the whole run state, race log included, to agree bitwise. Known
//! miscompilation quirks (the CAPS MIC reduction lowering) must
//! surface as *expected* divergence. Any genuine mismatch is shrunk
//! to a minimal program, printed as a paste-ready regression test, and
//! the run exits nonzero. Output is deterministic: same arguments,
//! byte-identical stdout.
//!
//! `profile` runs every benchmark variant × target functionally and
//! prints the `nvprof`-style per-kernel profile for each cell — the
//! view that exposed PGI's BFS kernels silently running on the host
//! (Section V-C1).
//!
//! Every subcommand rejects an unknown argument, a missing value or a
//! malformed one as a usage error: exit code 2, nothing on stdout.
//! When a flag is repeated, its last value wins.
//!
//! Structured telemetry (the figure run, `conform`, `profile` and
//! `fsck`; these are the "telemetry flags"): `--trace-out FILE` records
//! the run as a timestamped span event stream and exports it in
//! `--trace-format` — `chrome` (trace-event JSON, loadable in Perfetto
//! or `chrome://tracing`, one lane per engine worker), `jsonl` (one
//! JSON object per line), or `folded` (flamegraph folded stacks).
//! `--metrics-out FILE` writes a Prometheus-style text exposition of
//! the run's metrics registry: simulated hardware counters per kernel
//! (launches, device time, memory traffic, divergence, occupancy),
//! engine job lifecycle (cache hits, retries, quarantines), compiler
//! invocations, and conformance leg outcomes. Both exports are
//! structurally deterministic — same flags, same structure; only
//! wall-clock timestamp fields vary, and under `--inject` even those
//! come from the virtual clock.
//!
//! `--inject SPEC` turns on deterministic fault injection (chaos
//! testing): `SPEC` is a comma-separated list of
//! `kind[:target][:rate]` clauses — kinds `compile`, `slow`, `device`,
//! `hang`, `corrupt-cache`, `crash`, `torn-write` — or the `chaos`
//! preset. `--fault-seed N` (default 0) seeds the pure decision hash,
//! so a given (spec, seed) injects exactly the same faults every run.
//! The engine retries injected faults with exponential backoff on a
//! virtual clock and quarantines cells that exhaust their attempts;
//! the run completes with partial results, prints a fault ledger, and
//! exits nonzero only if a cell failed for a reason that was *not*
//! injected.
//!
//! `--state-dir DIR` makes the run durable: compiled artifacts persist
//! in a checksummed on-disk store under `DIR/cache`, and every
//! completed experiment cell (and injected fault event) is appended to
//! the run journal `DIR/journal.log` the moment it finishes. Without
//! the flag nothing is ever written to disk and the run is exactly the
//! pre-durability CLI. `--resume` (requires `--state-dir`) replays the
//! journal of a previous — possibly killed — run: journaled cells are
//! *not* recomputed, restored fault events rebuild the fault ledger,
//! and stdout is byte-identical to what one uninterrupted run would
//! have printed, at any `--jobs`. Resume bookkeeping goes to stderr
//! only. The `crash` and `torn-write` fault kinds have their sites in
//! this durability layer (they only fire under `--state-dir`): `crash`
//! aborts the process with exit code 75 right after journal step *k*
//! becomes durable, `torn-write` leaves a half-written record or cache
//! entry behind and then aborts — the supervisor protocol is "exit 75
//! means restart with `--resume`".
//!
//! `reproduce fsck DIR` verifies and repairs a state directory
//! offline: the journal is truncated back to its last durable record,
//! store entries whose checksum does not verify are evicted, and
//! leftover temp files from interrupted writes are removed. Exit
//! codes: 0 — the directory was already consistent; 1 — repairs were
//! performed and the directory is now consistent; 2 — usage error;
//! 3 — the directory cannot be inspected at all.
//!
//! `serve` exposes the experiment matrix over HTTP (see the
//! `paccport-server` crate): `POST /run` executes a
//! `(benchmark × variant × target × scale × seed)` slice on the shared
//! engine behind a bounded admission queue (429 + `Retry-After` when
//! full), coalescing identical concurrent requests into one execution;
//! `POST /stream` emits one chunk per cell; `GET /metrics` is the
//! Prometheus exposition. `--cache-bytes` caps the artifact cache (LRU
//! eviction) and `--tenant-quota` bounds each `X-Tenant`'s share. Both
//! count the cache's size units, not encoded bytes: an artifact weighs
//! 256 plus 32 per PTX instruction, 64 per IR statement and 128 per plan
//! node, near its encoded length in bytes.
//! The bound address goes to stdout and `--port-file`; the process
//! runs until SIGTERM or `POST /shutdown`, then drains in-flight work
//! and exits 0. Response bodies are deterministic per
//! `(request, seed)` — byte-identical across `--jobs` levels.
//!
//! `loadgen` drives a running server with a seeded, deterministic
//! request schedule (`--dup-ratio` controls how often a request
//! repeats its predecessor, exercising coalescing) and prints a JSON
//! latency/throughput/SLO report computed on a virtual clock from the
//! server's *modeled* timings — two runs with the same seed against
//! fresh servers are byte-identical.

use paccport_compilers::passes::Pipeline;
use paccport_core::engine::Engine;
use paccport_core::experiments as exp;
use paccport_core::report;
use paccport_core::serve::scale_by_name;
use paccport_core::study::Scale;
use paccport_trace::export::TraceFormat;

/// Telemetry sinks of the subcommands that take telemetry flags:
/// where to write the event-stream export and the metrics exposition,
/// if anywhere. Held in a process global so *every* exit path —
/// normal completion, usage errors via [`die`], and injected crashes
/// via the `paccport_faults::on_crash` hook — can flush whatever has
/// been recorded so far.
struct Telemetry {
    trace_out: Option<String>,
    trace_format: Option<TraceFormat>,
    metrics_out: Option<String>,
}

static TELEMETRY: std::sync::Mutex<Telemetry> = std::sync::Mutex::new(Telemetry {
    trace_out: None,
    trace_format: None,
    metrics_out: None,
});

/// One subcommand's arguments, consumed front to back. Each
/// subcommand matches one flag per arm and reads values only through
/// [`Args::value`] and [`Args::parsed`], so an unknown argument, a
/// missing value or a malformed one is the same usage error (exit 2,
/// nothing on stdout) everywhere, and a repeated flag's last value
/// wins.
struct Args {
    /// Subcommand name prefixed to usage errors; empty for the figure
    /// run.
    cmd: &'static str,
    rest: std::vec::IntoIter<String>,
}

const POSITIVE: &str = "a positive integer";
const UNSIGNED: &str = "an unsigned integer";
const FILE: &str = "a file path";
const SCALES: &str = "smoke|quick|paper";
const FAULT_SPEC: &str = "a fault spec (try `chaos`)";

/// The figure run's experiment ids; `--exp` accepts only these.
const EXPERIMENTS: [&str; 23] = [
    "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "fig1", "fig3", "fig4", "fig6", "fig7",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "ext1", "ext2",
];
const EXPERIMENT_IDS: &str =
    "an experiment id (tab1-tab7, fig1, fig3, fig4, fig6-fig16, ext1, ext2)";

impl Args {
    fn new(cmd: &'static str, args: Vec<String>) -> Self {
        Args {
            cmd,
            rest: args.into_iter(),
        }
    }

    fn next(&mut self) -> Option<String> {
        self.rest.next()
    }

    fn die(&self, msg: &str) -> ! {
        match self.cmd {
            "" => die(msg),
            cmd => die(&format!("{cmd}: {msg}")),
        }
    }

    fn unknown(&self, arg: &str) -> ! {
        self.die(&format!("unknown argument `{arg}`"))
    }

    /// The value after `flag`; `what` describes it in the usage error.
    fn value(&mut self, flag: &str, what: &str) -> String {
        self.rest
            .next()
            .unwrap_or_else(|| self.die(&format!("{flag} requires {what}")))
    }

    /// The value after `flag` as converted by `ok`; a value `ok`
    /// rejects is the same usage error as a missing one.
    fn parsed<T>(&mut self, flag: &str, what: &str, ok: impl FnOnce(&str) -> Option<T>) -> T {
        let v = self.value(flag, what);
        ok(&v).unwrap_or_else(|| self.die(&format!("{flag} requires {what}")))
    }

    /// Consume `flag` if it is a telemetry flag, else reject it.
    /// Recording switches on the moment the flag is parsed — before
    /// any validation of later flags — so even a run that dies on a
    /// usage error leaves a parseable (if near-empty) export behind.
    fn telemetry(&mut self, flag: &str) {
        match flag {
            "--trace-out" => {
                let path = self.value(flag, FILE);
                paccport_trace::set_events_enabled(true);
                TELEMETRY.lock().unwrap().trace_out = Some(path);
            }
            "--trace-format" => {
                let name = self.value(flag, "chrome|jsonl|folded");
                let format = TraceFormat::parse(&name).unwrap_or_else(|e| die(&e));
                TELEMETRY.lock().unwrap().trace_format = Some(format);
            }
            "--metrics-out" => {
                let path = self.value(flag, FILE);
                paccport_trace::metrics::set_metrics_enabled(true);
                TELEMETRY.lock().unwrap().metrics_out = Some(path);
            }
            _ => self.unknown(flag),
        }
    }
}

fn num<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn positive<T: std::str::FromStr + PartialOrd + Default>(v: &str) -> Option<T> {
    num(v).filter(|n| *n > T::default())
}

/// Validate the telemetry flag combination after parsing.
fn tele_validate() {
    let dangling_format = {
        let t = TELEMETRY.lock().unwrap();
        t.trace_format.is_some() && t.trace_out.is_none()
    };
    if dangling_format {
        die("--trace-format requires --trace-out");
    }
}

/// Write the configured exports. The happy path (`quiet = false`)
/// dies on an I/O failure; the abort paths — usage errors, injected
/// crashes — pass `quiet = true` so a flush problem can never mask
/// the exit code the caller is about to report.
fn tele_flush(quiet: bool) {
    let (trace_out, trace_format, metrics_out) = {
        let Ok(t) = TELEMETRY.lock() else { return };
        (t.trace_out.clone(), t.trace_format, t.metrics_out.clone())
    };
    let write = |path: &str, text: String| {
        if let Err(e) = std::fs::write(path, text) {
            if quiet {
                eprintln!("reproduce: cannot write {path}: {e}");
            } else {
                die(&format!("cannot write {path}: {e}"));
            }
        }
    };
    if let Some(path) = &trace_out {
        let format = trace_format.unwrap_or(TraceFormat::Chrome);
        let text = paccport_trace::export::render(
            format,
            &paccport_trace::events(),
            &paccport_trace::summary(),
        );
        write(path, text);
    }
    if let Some(path) = &metrics_out {
        write(path, paccport_trace::metrics::render_prometheus());
    }
}

/// Flush the pipeline trace even when a panic unwinds out of `main` —
/// a normal return or `process::exit` skips this (the happy path
/// prints its own summary), so the guard only fires while panicking.
struct TraceFlushGuard;

impl Drop for TraceFlushGuard {
    fn drop(&mut self) {
        if std::thread::panicking() && paccport_trace::enabled() {
            eprintln!("reproduce: panicked — flushing pipeline trace");
            eprint!("{}", paccport_trace::summary().render());
        }
    }
}

fn main() {
    // Even a run killed by an injected crash must leave parseable
    // telemetry behind: flush from the crash hook, quietly, so exit
    // code 75 survives.
    paccport_faults::on_crash(|| tele_flush(true));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = |cmd| Args::new(cmd, argv[1..].to_vec());
    match argv.first().map(String::as_str) {
        Some("conform") => return conform(sub("conform")),
        Some("profile") => return profile_cmd(sub("profile")),
        Some("fsck") => return fsck_cmd(sub("fsck")),
        Some("serve") => return serve_cmd(sub("serve")),
        Some("loadgen") => return loadgen_cmd(sub("loadgen")),
        _ => {}
    }
    let mut args = Args::new("", argv);
    let (mut check, mut trace, mut resume) = (false, false, false);
    let mut scale = Scale::paper();
    let mut jobs: usize = 1;
    let mut wanted: Vec<&str> = Vec::new();
    let mut inject: Option<String> = None;
    let mut fault_seed: u64 = 0;
    let mut state_dir: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => check = true,
            "--trace" => trace = true,
            "--resume" => resume = true,
            "--quick" => scale = Scale::quick(),
            "--scale" => scale = args.parsed(&a, SCALES, scale_by_name),
            "--jobs" => jobs = args.parsed(&a, POSITIVE, positive),
            "--exp" => wanted.push(args.parsed(&a, EXPERIMENT_IDS, |id| {
                EXPERIMENTS.into_iter().find(|e| *e == id)
            })),
            "--passes" => {
                let spec = args.value(&a, "a comma-separated pass list (try `default`)");
                let pipeline = Pipeline::parse(&spec).unwrap_or_else(|e| die(&e));
                paccport_compilers::passes::set_global_pipeline(Some(pipeline));
            }
            "--inject" => inject = Some(args.value(&a, FAULT_SPEC)),
            "--fault-seed" => fault_seed = args.parsed(&a, UNSIGNED, num),
            "--state-dir" => state_dir = Some(args.value(&a, "a directory path")),
            flag => args.telemetry(flag),
        }
    }
    let all = wanted.is_empty();
    let want = |id: &str| {
        debug_assert!(EXPERIMENTS.contains(&id), "`{id}` missing from EXPERIMENTS");
        all || wanted.contains(&id)
    };

    if trace {
        paccport_trace::set_enabled(true);
    }
    tele_validate();
    if resume && state_dir.is_none() {
        die("--resume requires --state-dir");
    }
    let _flush_guard = TraceFlushGuard;
    configure_faults(inject, fault_seed);

    // Durable state, when asked for. Opened after fault configuration
    // so `restore_fault_events` can filter on the active kinds, and
    // before the engine so journaled cells replay. All resume
    // bookkeeping goes to stderr: stdout must stay byte-identical to
    // an uninterrupted (or stateless) run.
    let state = state_dir.as_ref().map(|dir| {
        let dir = std::path::Path::new(dir);
        let journal = std::sync::Arc::new(
            paccport_core::CellJournal::open(dir, resume)
                .unwrap_or_else(|e| die(&format!("--state-dir {}: {e}", dir.display()))),
        );
        let store = paccport_core::DiskArtifactStore::open(dir)
            .unwrap_or_else(|e| die(&format!("--state-dir {}: {e}", dir.display())));
        if resume {
            let restored = journal.restore_fault_events();
            eprintln!(
                "reproduce: resuming from {} — {} journaled cells, {} fault events restored",
                dir.display(),
                journal.replayable(),
                restored
            );
        }
        let sink = std::sync::Arc::clone(&journal);
        paccport_faults::set_event_sink(move |kind, site, attempt| {
            sink.record_event(kind.tag(), site, attempt)
        });
        (journal, store)
    });
    let mut eng = Engine::new(jobs);
    if let Some((journal, store)) = state {
        eng.cache().set_store(std::sync::Arc::new(store));
        eng = eng.with_journal(journal);
    }
    let eng = eng;

    if check {
        let report = exp::check_soundness_on(&eng, &scale);
        print!("{}", report::render_soundness(&report));
        print!("{}", report::render_fault_ledger(&eng.quarantined()));
        if trace {
            eprintln!(
                "jobs: {}  |  unique artifacts compiled: {}  |  cache hits: {}",
                eng.jobs(),
                eng.cache().misses(),
                eng.cache().hits()
            );
            eprint!("{}", paccport_trace::summary().render());
        }
        tele_flush(false);
        if !report.all_consistent() || !report.lost_update_caught() {
            eprintln!("reproduce --check: soundness invariant violated");
            std::process::exit(1);
        }
        return;
    }

    println!("paccport `reproduce` — Understanding Performance Portability of OpenACC");
    println!(
        "scale: {} (LUD {}, GE {}, BFS {}, BP {}x{}, Hydro {})\n",
        if scale == Scale::paper() {
            "paper (Table IV)"
        } else if scale == Scale::smoke() {
            "smoke"
        } else {
            "quick"
        },
        scale.lud_n,
        scale.ge_n,
        scale.bfs_n,
        scale.bp_in,
        scale.bp_hid,
        scale.hydro_n
    );

    // ---------------- Static tables ----------------
    if want("tab1") {
        println!("{}", report::render_tab1());
    }
    if want("tab2") {
        let (dep, indep) = exp::tab2_dependence_demo();
        println!("== Table II: The dependency in loops ==");
        println!("dependent loop   (A[i] = A[i-1] + 1): carried dependence found = {dep}");
        println!("independent loop (A[i] = A[i]   + 1): safely parallel          = {indep}\n");
    }
    if want("tab3") {
        println!("{}", report::render_tab3());
    }
    if want("tab4") {
        println!("{}", report::render_tab4());
    }
    if want("tab5") {
        println!("{}", report::render_tab5());
    }
    if want("tab6") {
        println!("{}", report::render_tab6(scale.lud_n as u64));
    }

    // ---------------- Demonstrations ----------------
    if want("fig1") {
        let (cuda, acc) = exp::fig1_tiling_shared_ops_on(&eng);
        println!("== Fig. 1: Tiling in CUDA vs OpenACC ==");
        println!("CUDA/OpenCL-style tiling (BP forward, __local staging): {cuda} shared-memory instructions");
        println!("OpenACC tile clause (GE fan1 under CAPS):               {acc} shared-memory instructions");
        println!("-> OpenACC tiling still reads global memory only, as the paper observes.\n");
    }
    if want("fig8") {
        println!("== Fig. 8: Advanced thread distribution configuration ==");
        println!("{}\n", exp::fig8_advanced_config());
    }
    if want("fig13") {
        println!("== Fig. 13: The reduction directive's shared-memory tree (lowered IR) ==");
        println!("{}", exp::fig13_reduction_listing_on(&eng));
    }

    // ---------------- LUD ----------------
    if want("fig3") {
        println!(
            "{}",
            report::render_elapsed(&exp::fig3_lud_on(&eng, &scale))
        );
    }
    if want("fig4") {
        println!("== Fig. 4: Elapsed time of different thread distributions (LUD) ==");
        for hm in exp::fig4_heatmaps_on(&eng, &scale) {
            println!("{}", hm.render());
            let (g, w, t) = hm.best();
            println!("best: gang {g}, worker {w} ({})\n", report::fmt_secs(t));
        }
    }
    if want("fig6") {
        println!(
            "{}",
            report::render_ptx(&exp::fig6_lud_ptx_on(&eng, &scale))
        );
    }

    // ---------------- GE ----------------
    if want("fig7") {
        println!("{}", report::render_elapsed(&exp::fig7_ge_on(&eng, &scale)));
    }
    if want("fig9") {
        println!("{}", report::render_ptx(&exp::fig9_ge_ptx_on(&eng, &scale)));
    }

    // ---------------- BFS ----------------
    if want("fig10") {
        println!(
            "{}",
            report::render_elapsed(&exp::fig10_bfs_on(&eng, &scale))
        );
    }
    if want("fig11") {
        println!(
            "{}",
            report::render_ptx(&exp::fig11_bfs_ptx_on(&eng, &scale))
        );
    }
    if want("tab7") {
        println!("{}", report::render_tab7(&exp::tab7_bfs_on(&eng, &scale)));
    }

    // ---------------- BP ----------------
    if want("fig12") {
        println!(
            "{}",
            report::render_elapsed(&exp::fig12_bp_on(&eng, &scale))
        );
    }
    if want("fig14") {
        println!(
            "{}",
            report::render_ptx(&exp::fig14_bp_ptx_on(&eng, &scale))
        );
    }

    // ---------------- Hydro ----------------
    if want("fig15") {
        println!(
            "{}",
            report::render_elapsed(&exp::fig15_hydro_on(&eng, &scale))
        );
    }

    // ---------------- PPR ----------------
    if want("fig16") {
        println!("{}", report::render_ppr(&exp::fig16_ppr_on(&eng, &scale)));
    }

    // ---------------- Extensions (the paper's future work) ----------
    if want("ext1") {
        println!("== Extension 1: OpenARC-style auto-tuning vs the hand method (LUD) ==");
        for row in exp::ext1_autotune_vs_hand_on(&eng, &scale) {
            println!(
                "  {}: hand (256,16) {}  |  auto-tuned {}  ({} tuning runs)",
                row.device,
                report::fmt_secs(row.hand_seconds),
                report::fmt_secs(row.tuned_seconds),
                row.tuning_runs
            );
            for (k, g, w) in &row.tuned_configs {
                println!("      {k}: gang {g}, worker {w}");
            }
        }
        println!();
    }
    if want("ext2") {
        println!("== Extension 2: Step 5 — automatic data-region insertion (LUD) ==");
        for row in exp::ext2_data_regions_on(&eng, &scale) {
            println!(
                "  {:<32} {:>10} transfers   {}",
                row.label,
                row.transfers,
                report::fmt_secs(row.seconds)
            );
        }
        println!();
    }

    // The fault ledger renders only when injection is configured, so
    // fault-free stdout is untouched.
    print!("{}", report::render_fault_ledger(&eng.quarantined()));

    // The trace goes to stderr so stdout stays byte-identical between
    // --jobs 1 and --jobs N.
    if trace {
        eprintln!(
            "jobs: {}  |  unique artifacts compiled: {}  |  cache hits: {}",
            eng.jobs(),
            eng.cache().misses(),
            eng.cache().hits()
        );
        eprint!("{}", paccport_trace::summary().render());
    }
    tele_flush(false);

    // Partial results are fine under chaos, but a cell that failed for
    // a reason we did NOT inject is a real bug: exit nonzero.
    let genuine = eng.uninjected_failures();
    if !genuine.is_empty() {
        for q in &genuine {
            eprintln!(
                "reproduce: genuine failure in {}: {} [{} attempts]",
                q.label, q.reason, q.attempts
            );
        }
        std::process::exit(1);
    }
}

/// `reproduce conform [--programs N] [--seed S]` — differential
/// conformance fuzzing. Exits 0 iff every program either matched the
/// oracle bitwise on every leg or diverged only through a modeled
/// compiler quirk.
fn conform(mut args: Args) {
    let (mut programs, mut seed): (u64, u64) = (50, 42);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--programs" => programs = args.parsed(&a, UNSIGNED, num),
            "--seed" => seed = args.parsed(&a, UNSIGNED, num),
            flag => args.telemetry(flag),
        }
    }
    tele_validate();
    let report = paccport_conformance::run_conformance(programs, seed);
    print!("{}", report.render());
    tele_flush(false);
    if !report.ok() {
        std::process::exit(1);
    }
}

/// `reproduce profile [--scale ...] [--jobs N] [--inject SPEC]
/// [--fault-seed N]` — the per-kernel profile sweep over the
/// functional benchmark matrix.
fn profile_cmd(mut args: Args) {
    let mut scale = Scale::smoke();
    let mut jobs: usize = 1;
    let mut inject: Option<String> = None;
    let mut fault_seed: u64 = 0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => scale = args.parsed(&a, SCALES, scale_by_name),
            "--quick" => scale = Scale::quick(),
            "--jobs" => jobs = args.parsed(&a, POSITIVE, positive),
            "--inject" => inject = Some(args.value(&a, FAULT_SPEC)),
            "--fault-seed" => fault_seed = args.parsed(&a, UNSIGNED, num),
            flag => args.telemetry(flag),
        }
    }
    tele_validate();
    let _flush_guard = TraceFlushGuard;
    configure_faults(inject, fault_seed);
    let eng = Engine::new(jobs);
    let report = paccport_core::profile::profile_matrix_on(&eng, &scale);
    print!("{}", report.render());
    print!("{}", report::render_fault_ledger(&eng.quarantined()));
    tele_flush(false);
    if !eng.uninjected_failures().is_empty() || !report.uninjected_failures().is_empty() {
        eprintln!("reproduce profile: genuine failures occurred");
        std::process::exit(1);
    }
}

/// `reproduce fsck DIR` — verify and repair a `--state-dir` offline.
///
/// Exit codes: 0 — already consistent; 1 — repairs were performed and
/// the directory is now consistent; 2 — usage error; 3 — the
/// directory cannot be inspected at all.
fn fsck_cmd(mut args: Args) {
    let mut dir: Option<String> = None;
    while let Some(a) = args.next() {
        if a.starts_with("--") {
            args.telemetry(&a);
        } else if dir.is_none() {
            dir = Some(a);
        } else {
            args.die("exactly one state directory expected");
        }
    }
    let Some(dir) = dir else {
        args.die("a state directory is required");
    };
    tele_validate();
    let report = match paccport_persist::fsck(std::path::Path::new(&dir)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce fsck: {e}");
            tele_flush(true);
            std::process::exit(3);
        }
    };
    println!("fsck {dir}");
    println!(
        "  journal: {} records intact, {} bytes of torn tail truncated",
        report.journal_records, report.journal_truncated_bytes
    );
    println!(
        "  cache:   {} entries intact, {} evicted, {} temp files removed",
        report.cache_entries,
        report.cache_evicted.len(),
        report.temp_files_removed
    );
    for name in &report.cache_evicted {
        println!("           evicted {name}");
    }
    println!(
        "  {}",
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} repairs performed", report.repairs())
        }
    );
    tele_flush(false);
    std::process::exit(if report.is_clean() { 0 } else { 1 });
}

/// `reproduce serve` — stand up the experiment server on `--addr` and
/// block until it drains (SIGTERM or `POST /shutdown`). Metrics are
/// always on so `GET /metrics` has something to say.
fn serve_cmd(mut args: Args) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut cfg = paccport_server::ServerConfig::default();
    let mut port_file: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut fault_seed: u64 = 0;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => addr = args.value(&a, "HOST:PORT"),
            "--jobs" => cfg.jobs = args.parsed(&a, POSITIVE, positive),
            "--workers" => cfg.workers = args.parsed(&a, POSITIVE, positive),
            "--queue-cap" => cfg.queue_cap = args.parsed(&a, POSITIVE, positive),
            "--cache-bytes" => cfg.cache_bytes = Some(args.parsed(&a, "a byte count", num)),
            "--tenant-quota" => cfg.tenant_quota = Some(args.parsed(&a, "a byte count", num)),
            "--port-file" => port_file = Some(args.value(&a, FILE)),
            "--access-log" => cfg.access_log = Some(args.value(&a, FILE).into()),
            "--recorder-cap" => cfg.recorder_cap = args.parsed(&a, POSITIVE, positive),
            "--inject" => inject = Some(args.value(&a, FAULT_SPEC)),
            "--fault-seed" => fault_seed = args.parsed(&a, UNSIGNED, num),
            flag => args.unknown(flag),
        }
    }
    configure_faults(inject, fault_seed);
    paccport_trace::metrics::set_metrics_enabled(true);
    paccport_server::install_sigterm_drain();
    let server = paccport_server::Server::start(&addr, cfg)
        .unwrap_or_else(|e| die(&format!("serve: cannot bind {addr}: {e}")));
    let bound = server.addr().to_string();
    if let Some(path) = &port_file {
        std::fs::write(path, &bound)
            .unwrap_or_else(|e| die(&format!("serve: cannot write {path}: {e}")));
    }
    println!("serving on {bound}");
    server.drain_on_sigterm();
    server.join();
    println!("drained");
}

/// `reproduce loadgen` — deterministic load against a running server;
/// the SLO report goes to stdout (and `--json FILE`, when given).
fn loadgen_cmd(mut args: Args) {
    let mut cfg = paccport_server::loadgen::LoadgenConfig::default();
    let mut json_out: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--addr" => cfg.addr = args.value(&a, "HOST:PORT"),
            "--rps" => cfg.rps = args.parsed(&a, POSITIVE, positive),
            "--duration-steps" => cfg.steps = args.parsed(&a, POSITIVE, positive),
            "--seed" => cfg.seed = args.parsed(&a, UNSIGNED, num),
            "--dup-ratio" => {
                let in_unit = |v: &str| num(v).filter(|r: &f64| (0.0..=1.0).contains(r));
                cfg.dup_ratio = args.parsed(&a, "a ratio in [0,1]", in_unit)
            }
            "--scale" => cfg.scale = args.value(&a, SCALES),
            "--tenants" => cfg.tenants = args.parsed(&a, UNSIGNED, num),
            "--slo-ms" => cfg.slo_ms = args.parsed(&a, "a positive number", positive),
            "--json" => json_out = Some(args.value(&a, FILE)),
            "--scrape-metrics" => cfg.scrape_metrics = true,
            "--sample-traces" => cfg.sample_traces = args.parsed(&a, UNSIGNED, num),
            "--trace-dir" => cfg.trace_dir = Some(args.value(&a, "a directory path")),
            "--shutdown" => cfg.shutdown_after = true,
            flag => args.unknown(flag),
        }
    }
    if cfg.addr.is_empty() {
        args.die("--addr HOST:PORT is required");
    }
    let report =
        paccport_server::loadgen::run(&cfg).unwrap_or_else(|e| die(&format!("loadgen: {e}")));
    if let Some(path) = &json_out {
        std::fs::write(path, &report)
            .unwrap_or_else(|e| die(&format!("loadgen: cannot write {path}: {e}")));
    }
    print!("{report}");
}

/// Turn on fault injection when `--inject SPEC` was given.
fn configure_faults(inject: Option<String>, fault_seed: u64) {
    if let Some(spec) = inject {
        let spec = paccport_faults::FaultSpec::parse(&spec)
            .unwrap_or_else(|e| die(&format!("--inject: {e}")));
        paccport_faults::configure(spec, fault_seed);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    tele_flush(true);
    std::process::exit(2);
}
