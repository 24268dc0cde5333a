//! Thread-distribution searches (the Fig. 4 sweeps and the auto-tuner)
//! time each group of configurations that differ only in their
//! distributions with one walk of the host program. Every test here
//! holds a search to the loop it replaced, kept below as the oracle:
//! each configuration compiled and run on its own. Grouped results must
//! match bit for bit, NaN cells and fault retries included, and a
//! `configure` that changes more than the clauses must not be grouped.
//!
//! Fault configuration is process-global, so every test holds a shared
//! lock (this file is its own test binary).

use std::sync::{Mutex, MutexGuard, OnceLock};

use paccport::compilers::{compile, CompileOptions, CompilerId};
use paccport::core::autotune::{autotune_distribution, default_candidates, Candidate};
use paccport::devsim::{compile_and_run_each, run, sweep, RunConfig, RunResult};
use paccport::faults::{self, FaultSpec};
use paccport::ir::Program;
use paccport::kernels::{lud, VariantCfg};
use paccport::trace::{self, metrics};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const GANGS: [u32; 8] = [1, 32, 64, 128, 240, 256, 512, 1024];
const WORKERS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The three Fig. 4 heat maps.
fn fig4_sweeps() -> [(&'static str, CompilerId, CompileOptions); 3] {
    [
        ("CAPS-K40", CompilerId::Caps, CompileOptions::gpu()),
        ("PGI-K40", CompilerId::Pgi, CompileOptions::gpu()),
        ("CAPS-MIC (5110P)", CompilerId::Caps, CompileOptions::mic()),
    ]
}

fn timing(n: f64) -> RunConfig {
    RunConfig::timing(vec![("n".into(), n)], 1)
}

fn set_distribution(p: &mut Program, g: u32, w: u32) {
    p.map_kernels(|k| {
        for lp in &mut k.loops {
            lp.clauses.gang = Some(g);
            lp.clauses.worker = Some(w);
        }
    });
}

/// One configuration compiled and run on its own.
fn alone(
    p: &Program,
    compiler: CompilerId,
    options: &CompileOptions,
    cfg: &RunConfig,
) -> Result<RunResult, String> {
    compile(compiler, p, options)
        .map_err(|e| e.to_string())
        .and_then(|c| run(&c, cfg))
}

/// The sweep as each cell compiled and ran on its own, with the retry
/// loop that clears transient injected faults.
fn sweep_oracle(
    p: &Program,
    compiler: CompilerId,
    options: &CompileOptions,
    cfg: &RunConfig,
    configure: impl Fn(&mut Program, u32, u32),
) -> Vec<Vec<f64>> {
    GANGS
        .iter()
        .map(|g| {
            WORKERS
                .iter()
                .map(|w| {
                    let mut q = p.clone();
                    configure(&mut q, *g, *w);
                    let mut elapsed = f64::NAN;
                    for attempt in 0..3 {
                        faults::set_attempt(attempt);
                        match alone(&q, compiler, options, cfg) {
                            Ok(r) => {
                                elapsed = r.elapsed;
                                break;
                            }
                            Err(e) if faults::is_injected(&e) => continue,
                            Err(_) => break,
                        }
                    }
                    faults::set_attempt(0);
                    elapsed
                })
                .collect()
        })
        .collect()
}

fn assert_same_cells(title: &str, got: &[Vec<f64>], want: &[Vec<f64>]) {
    for (gi, g) in GANGS.iter().enumerate() {
        for (wi, w) in WORKERS.iter().enumerate() {
            let (a, b) = (got[gi][wi], want[gi][wi]);
            assert_eq!(a.to_bits(), b.to_bits(), "{title} ({g},{w}): {a} vs {b}");
        }
    }
}

/// What a tuning pass chose: each kernel's candidate and the bits of
/// its time, and how many runs it made.
type Tuned = Result<(Vec<(String, Candidate, u64)>, usize), String>;

/// The auto-tuner as each candidate compiled and ran on its own.
fn autotune_oracle(program: &Program, options: &CompileOptions, cfg: &RunConfig) -> Tuned {
    let mut best = program.clone();
    let mut per_kernel = Vec::new();
    let mut total_runs = 0;
    for name in program.kernels().iter().map(|k| k.name.clone()) {
        let mut chosen: Option<(Candidate, f64)> = None;
        for cand in default_candidates() {
            let mut trial = best.clone();
            trial.map_kernel(&name, |k| {
                for lp in &mut k.loops {
                    lp.clauses.gang = Some(cand.gang);
                    lp.clauses.worker = Some(cand.worker);
                }
            });
            let Ok(r) = alone(&trial, CompilerId::OpenArc, options, cfg) else {
                continue;
            };
            total_runs += 1;
            if chosen.is_none_or(|(_, t)| r.elapsed < t) {
                chosen = Some((cand, r.elapsed));
            }
        }
        let (cand, seconds) =
            chosen.ok_or_else(|| format!("no candidate compiled for kernel `{name}`"))?;
        best.map_kernel(&name, |k| {
            for lp in &mut k.loops {
                lp.clauses.gang = Some(cand.gang);
                lp.clauses.worker = Some(cand.worker);
            }
        });
        per_kernel.push((name, cand, seconds.to_bits()));
    }
    Ok((per_kernel, total_runs))
}

fn autotuned(program: &Program, options: &CompileOptions, cfg: &RunConfig) -> Tuned {
    let out = autotune_distribution(
        program,
        CompilerId::OpenArc,
        options,
        cfg,
        &default_candidates(),
    )?;
    let per_kernel = out
        .per_kernel
        .iter()
        .map(|t| (t.kernel.clone(), t.chosen, t.seconds.to_bits()))
        .collect();
    Ok((per_kernel, out.total_runs))
}

#[test]
fn every_fig4_cell_equals_its_own_run() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    for (title, compiler, options) in fig4_sweeps() {
        let hm = sweep(
            title,
            &p,
            compiler,
            &options,
            &cfg,
            &GANGS,
            &WORKERS,
            set_distribution,
        )
        .unwrap();
        let want = sweep_oracle(&p, compiler, &options, &cfg, set_distribution);
        assert_same_cells(title, &hm.cells, &want);
    }
}

/// Every field of every grouped run — kernel stats and their labels,
/// the transfer ledger, all four clocks — is the configuration's own.
#[test]
fn grouped_runs_equal_their_own_runs_field_by_field() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    for (title, compiler, options) in fig4_sweeps() {
        let programs: Vec<Program> = GANGS
            .iter()
            .flat_map(|g| {
                WORKERS.iter().map(|w| {
                    let mut q = p.clone();
                    set_distribution(&mut q, *g, *w);
                    q
                })
            })
            .collect();
        let got = compile_and_run_each(programs.clone(), compiler, &options, &cfg);
        assert_eq!(got.len(), programs.len());
        for (q, r) in programs.iter().zip(&got) {
            let want = alone(q, compiler, &options, &cfg);
            match (r, &want) {
                (Ok(a), Ok(b)) => assert_eq!(a.diff(b), None, "{title}"),
                (a, b) => assert_eq!(a.is_ok(), b.is_ok(), "{title}"),
            }
        }
    }
}

/// A grouped configuration charges the timing trace counters and the
/// metrics registry as its own run does.
#[test]
fn grouped_runs_charge_what_their_own_runs_charge() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    let options = CompileOptions::gpu();
    let programs: Vec<Program> = WORKERS
        .iter()
        .map(|w| {
            let mut q = p.clone();
            set_distribution(&mut q, 1 + w % 3, *w);
            q
        })
        .collect();
    let charged = |f: &dyn Fn()| {
        let counters = || {
            let s = trace::summary();
            [
                "timing.kernel_launches",
                "timing.transfers",
                "timing.transfer_bytes",
            ]
            .map(|c| s.counter(c))
        };
        metrics::reset_metrics();
        let before = counters();
        f();
        let after = counters();
        let registry: Vec<String> = metrics::render_prometheus()
            .lines()
            .filter(|l| l.starts_with("devsim_"))
            .map(String::from)
            .collect();
        ([0, 1, 2].map(|i| after[i] - before[i]), registry)
    };
    trace::set_enabled(true);
    metrics::set_metrics_enabled(true);
    let grouped = charged(&|| {
        let runs = compile_and_run_each(programs.clone(), CompilerId::Caps, &options, &cfg);
        assert!(runs.iter().all(Result::is_ok));
    });
    let own = charged(&|| {
        for q in &programs {
            alone(q, CompilerId::Caps, &options, &cfg).unwrap();
        }
    });
    metrics::set_metrics_enabled(false);
    trace::set_enabled(false);
    metrics::reset_metrics();
    assert!(
        own.0[0] > 0
            && own
                .1
                .iter()
                .any(|l| l.starts_with("devsim_run_seconds_count 7"))
    );
    assert_eq!(grouped, own);
}

/// Cells that fail to compile are NaN in place, between grouped cells.
#[test]
fn failed_cells_stay_nan_between_grouped_ones() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    // PGI refuses pointer-heavy sources: every worker-8 column fails.
    let configure = |q: &mut Program, g: u32, w: u32| {
        set_distribution(q, g, w);
        if w == 8 {
            q.tags.push("pointer-heavy-headers".into());
        }
    };
    let options = CompileOptions::gpu();
    let hm = sweep(
        "PGI-K40",
        &p,
        CompilerId::Pgi,
        &options,
        &cfg,
        &GANGS,
        &WORKERS,
        configure,
    )
    .unwrap();
    let want = sweep_oracle(&p, CompilerId::Pgi, &options, &cfg, configure);
    assert_same_cells("PGI-K40", &hm.cells, &want);
    let nan = WORKERS.iter().position(|w| *w == 8).unwrap();
    assert!(hm.cells.iter().all(|row| row[nan].is_nan()));
    assert!(hm.cells.iter().flatten().filter(|v| v.is_finite()).count() == 48);
}

/// A `configure` that also moves a loop bound changes what the walk
/// reads of the program, though not the plans: such cells must not
/// share a walk with the others.
#[test]
fn a_configure_that_changes_a_loop_bound_is_not_grouped() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    let lying = |q: &mut Program, g: u32, w: u32| {
        set_distribution(q, g, w);
        if w == 4 || w == 32 {
            // `j in i..n` becomes `j in i..i`: the same plans, but
            // every launch of the row kernel is empty.
            q.map_kernel("lud_row", |k| {
                k.loops[0].hi = k.loops[0].lo.clone();
            });
        }
    };
    for (title, compiler, options) in fig4_sweeps() {
        let hm = sweep(title, &p, compiler, &options, &cfg, &GANGS, &WORKERS, lying).unwrap();
        let want = sweep_oracle(&p, compiler, &options, &cfg, lying);
        assert_same_cells(title, &hm.cells, &want);
        // The lie shows: the moved bound changes the modeled time.
        let honest = sweep_oracle(&p, compiler, &options, &cfg, set_distribution);
        let col = WORKERS.iter().position(|w| *w == 32).unwrap();
        assert!(
            (1..GANGS.len()).all(|gi| want[gi][col] != honest[gi][col]),
            "{title}: the moved bound must change every parallel cell"
        );
    }
}

#[test]
fn autotune_equals_the_per_candidate_loop() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(512.0);
    for options in [CompileOptions::gpu(), CompileOptions::mic()] {
        let want = autotune_oracle(&p, &options, &cfg);
        assert_eq!(autotuned(&p, &options, &cfg), want);
        assert_eq!(want.unwrap().1, 2 * default_candidates().len());
    }
}

/// Under fault injection every configuration compiles and runs on its
/// own: the sweep keeps its per-cell retries, the auto-tuner skips the
/// candidates that fail, and both leave the ledger the per-cell loop
/// leaves.
#[test]
fn searches_under_faults_equal_the_per_configuration_loop() {
    let _g = lock();
    let p = lud::program(&VariantCfg::baseline());
    let cfg = timing(256.0);
    for (spec, seed) in [
        ("compile:0.3", 3),
        ("device:0.3", 5),
        ("compile:0.2,device:0.2", 11),
    ] {
        let under = |f: &dyn Fn() -> String| {
            faults::configure(FaultSpec::parse(spec).unwrap(), seed);
            let out = f();
            let ledger = faults::ledger();
            faults::deconfigure();
            (out, ledger)
        };
        for (title, compiler, options) in fig4_sweeps() {
            let (got, got_ledger) = under(&|| {
                let hm = sweep(
                    title,
                    &p,
                    compiler,
                    &options,
                    &cfg,
                    &GANGS,
                    &WORKERS,
                    set_distribution,
                )
                .unwrap();
                format!(
                    "{:?}",
                    hm.cells
                        .concat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                )
            });
            let (want, want_ledger) = under(&|| {
                let cells = sweep_oracle(&p, compiler, &options, &cfg, set_distribution);
                format!(
                    "{:?}",
                    cells
                        .concat()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>()
                )
            });
            assert_eq!(got, want, "{spec} {title}");
            assert_eq!(got_ledger, want_ledger, "{spec} {title}");
        }
        for options in [CompileOptions::gpu(), CompileOptions::mic()] {
            let (got, got_ledger) = under(&|| format!("{:?}", autotuned(&p, &options, &cfg)));
            let (want, want_ledger) =
                under(&|| format!("{:?}", autotune_oracle(&p, &options, &cfg)));
            assert_eq!(got, want, "{spec} autotune");
            assert_eq!(got_ledger, want_ledger, "{spec} autotune");
        }
    }
}
