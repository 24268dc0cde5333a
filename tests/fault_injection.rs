//! End-to-end properties of the deterministic fault-injection
//! subsystem: chaos runs are reproducible from (spec, seed), lossless
//! modulo quarantine, and the watchdog turns hangs into typed
//! timeouts.
//!
//! Fault configuration is process-global, so every test here holds a
//! shared lock while a spec is active (this file is its own test
//! binary, so the lock never contends with the rest of the suite).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use paccport::compilers::cache::{ArtifactCache, ArtifactStore};
use paccport::compilers::{CompileOptions, CompilerId};
use paccport::core::engine::{Engine, MAX_ATTEMPTS};
use paccport::core::study::{measure, CheckCell, ElapsedFigure, Scale};
use paccport::core::{experiments as exp, report};
use paccport::faults::{self, FaultSpec};

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Run fig. 3 under the given fault configuration on a fresh engine.
fn fig3_under(spec: Option<(&str, u64)>) -> ElapsedFigure {
    match spec {
        Some((s, seed)) => faults::configure(FaultSpec::parse(s).unwrap(), seed),
        None => faults::deconfigure(),
    }
    let fig = exp::fig3_lud_on(&Engine::serial(), &Scale::smoke());
    faults::deconfigure();
    fig
}

#[test]
fn chaos_study_is_lossless_modulo_quarantine() {
    let _g = lock();
    let baseline = fig3_under(None);
    assert!(
        baseline.cells.iter().all(|(_, r)| r.is_ok()),
        "baseline must be fault-free"
    );

    // A compile-fault rate high enough to quarantine something across
    // seeds is not guaranteed, so pick a seed known to quarantine at
    // least one cell AND recover others; the assertions below hold for
    // any seed regardless.
    let faulted = fig3_under(Some(("compile:0.35", 9)));

    assert_eq!(
        faulted.cells.len(),
        baseline.cells.len(),
        "every cell is either measured or explicitly quarantined"
    );
    for ((series, variant), r) in &faulted.cells {
        match r {
            Ok(m) => {
                let b = baseline
                    .get(series, variant)
                    .expect("cell exists in baseline");
                assert_eq!(b, m, "non-quarantined cell must match fault-free run");
            }
            Err(f) => {
                assert!(f.injected, "only injected chaos may quarantine: {f:?}");
                assert!(faults::is_injected(&f.reason), "{}", f.reason);
                assert!(f.attempts >= 1);
            }
        }
    }
}

#[test]
fn same_seed_reproduces_the_same_figure() {
    let _g = lock();
    let a = fig3_under(Some(("chaos", 1234)));
    let b = fig3_under(Some(("chaos", 1234)));
    assert_eq!(a.cells, b.cells);
    assert_eq!(report::render_elapsed(&a), report::render_elapsed(&b));

    let c = fig3_under(Some(("chaos", 1235)));
    assert!(
        a.cells != c.cells,
        "a different seed should perturb at least one fault decision"
    );
}

#[test]
fn hung_kernel_times_out_and_is_quarantined() {
    let _g = lock();
    faults::configure(FaultSpec::parse("hang:lud:1.0").unwrap(), 0);
    let eng = Engine::serial();
    let (variant, vc) = &exp::lud_variants()[0];
    let cells = vec![CheckCell::new(
        "LUD",
        "CAPS-CUDA-K40",
        variant.clone(),
        CompilerId::Caps,
        CompileOptions::gpu(),
        paccport::kernels::lud::program(vc),
        paccport::devsim::RunConfig::timing(vec![("n".into(), 32.0)], 1),
    )];
    let results = eng.run_matrix(cells, CheckCell::label, |cell, c| {
        measure(&cell.series, &cell.variant, c, &cell.cfg)
    });
    faults::deconfigure();

    let f = results[0].as_ref().expect_err("rate-1.0 hang must fail");
    assert!(f.reason.contains("Timeout"), "{}", f.reason);
    assert!(f.injected);
    assert_eq!(f.attempts, MAX_ATTEMPTS);
    let q = eng.quarantined();
    assert_eq!(q.len(), 1);
    assert!(q[0].reason.contains("Timeout"));
}

#[test]
fn fault_ledger_names_every_injected_event() {
    let _g = lock();
    faults::configure(FaultSpec::parse("compile:0.35").unwrap(), 9);
    let fig = exp::fig3_lud_on(&Engine::serial(), &Scale::smoke());
    let events = faults::ledger();
    faults::deconfigure();
    assert!(fig.cells.iter().any(|(_, r)| r.is_ok()));
    assert!(!events.is_empty(), "rate 0.35 must fire somewhere");
    for e in &events {
        assert_eq!(e.kind.tag(), "compile");
        assert!(e.key.to_lowercase().contains("lud"), "{}", e.key);
    }
}

/// An [`ArtifactStore`] that keeps nothing and counts what it is asked.
#[derive(Default)]
struct CountingStore {
    loads: AtomicU64,
    stores: AtomicU64,
}

impl ArtifactStore for CountingStore {
    fn load(&self, _: &str) -> Option<String> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        None
    }
    fn store(&self, _: &str, _: &str) {
        self.stores.fetch_add(1, Ordering::Relaxed);
    }
    fn evict(&self, _: &str) {}
}

#[test]
fn persistent_corruption_gives_up_and_publishes_nothing() {
    let _g = lock();
    let cache = ArtifactCache::new();
    let store = Arc::new(CountingStore::default());
    cache.set_store(Arc::clone(&store) as Arc<dyn ArtifactStore>);
    let program = paccport::kernels::lud::program(&exp::lud_variants()[0].1);
    let opts = CompileOptions::gpu();

    faults::configure(FaultSpec::parse("corrupt-cache:1.0").unwrap(), 7);
    let r = cache.compile(CompilerId::Caps, &program, &opts);
    faults::deconfigure();
    let e = r.expect_err("every generation is corrupt at rate 1.0");
    assert!(faults::is_injected(&e.message), "{}", e.message);
    assert!(
        e.message.contains("persistent artifact corruption"),
        "{}",
        e.message
    );
    assert_eq!(cache.misses(), 4, "one rebuild per round, then give up");
    assert_eq!(store.loads.load(Ordering::Relaxed), 4);
    assert_eq!(
        store.stores.load(Ordering::Relaxed),
        0,
        "a corrupt generation is never published"
    );

    let c = cache
        .compile(CompilerId::Caps, &program, &opts)
        .expect("fault-free compile succeeds");
    assert_eq!(cache.misses(), 5);
    assert_eq!(store.stores.load(Ordering::Relaxed), 1);
    assert!(Arc::ptr_eq(
        &c,
        &cache.compile(CompilerId::Caps, &program, &opts).unwrap()
    ));
}

#[test]
fn corrupt_cache_targets_one_compiler_by_its_cache_key() {
    let _g = lock();
    let cache = ArtifactCache::new();
    let program = paccport::kernels::lud::program(&exp::lud_variants()[0].1);
    let opts = CompileOptions::gpu();

    // The fault site names the whole cache key, compiler included, so
    // a `pgi` target strikes PGI's artifacts of the program only.
    faults::configure(FaultSpec::parse("corrupt-cache:pgi:1.0").unwrap(), 7);
    let pgi = cache.compile(CompilerId::Pgi, &program, &opts);
    let caps = cache.compile(CompilerId::Caps, &program, &opts);
    let events = faults::ledger();
    faults::deconfigure();
    let e = pgi.expect_err("every PGI generation is corrupt at rate 1.0");
    assert!(
        e.message.contains("persistent artifact corruption"),
        "{}",
        e.message
    );
    caps.expect("the CAPS artifact of the same program is never struck");
    assert!(!events.is_empty());
    for e in &events {
        assert!(e.key.starts_with("cache:pgi-"), "{}", e.key);
    }
}
